"""Keep-newest-version-per-key dedup.

A continuously refreshed crawl sees the same page many times; the
curation rule is "keep the newest snapshot per canonical URL" (and the
same shape answers "latest event per user", "latest revision per doc").
At corpus scale that is a window function (`row_number() OVER
(PARTITION BY key ORDER BY ts DESC, id)` = 1) — i.e. a global shuffle
of every snapshot.

The rewrite here is the ranking.topk_per_group discipline with k=1 and
full-row carry: (1) a map-only per-block prune keeps each block's own
latest row per key, so the shuffle sees at most one row per key per
block, never the corpus; (2) one exchange bucketed by key picks every
key's final winner in its bucket's task.  Deterministic total order:
(ts_col DESC, tie_col ASC) — ``tie_col`` must be a unique id so equal
timestamps still select a stable row (and therefore stable non-key
columns).

Value columns never round-trip through pandas: only the three ORDER
columns are converted to choose indices, and the selected rows are
``Table.take``-n from the original Arrow block — a nullable int64
payload would otherwise float (corrupting values >= 2^53), the same
hazard joins._union_bucketed documents.

Reference parity: the reference keeps one learned template per glyph
key, newest teaching wins (`core_helper.clj:1833-1989` `nauci-slova`
swap! semantics) — this is that rule lifted to a corpus-wide operator.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .bucket_tasks import exchange_map_groups
from .joins import bucket_col, derive_num_partitions

__all__ = ["keep_latest", "crawl_diff", "table_checksum", "group_checksum"]


def keep_latest(ds, key_col: str, ts_col: str, tie_col: str):
    """One row per ``key_col``: max ``ts_col``, ties broken by min
    ``tie_col``.  All columns survive, byte-exact (Arrow ``take``, no
    pandas round-trip of value columns).

    Null keys and null ``ts_col``/``tie_col`` values raise: SQL ranks a
    NULL partition and sorts NULL timestamps last (DuckDB default), and a
    silently chosen null-ordering would diverge from the oracle — fill
    or filter first, loudly.
    """
    sch = ds.schema()
    if sch is None:
        # a fully-filtered upstream yields an empty dataset with no
        # schema to validate — nothing to deduplicate, pass it through
        return ds
    cols = list(sch.names)
    for c in (key_col, ts_col, tie_col):
        if c not in cols:
            raise ValueError(f"keep_latest: column {c!r} not in dataset schema {cols}")

    def _latest_indices(batch: pa.Table) -> np.ndarray:
        """Row indices of each key's (ts DESC, tie ASC) winner."""
        order = batch.select([key_col, ts_col, tie_col]).to_pandas()
        for c in (key_col, ts_col, tie_col):
            if order[c].isna().any():
                raise ValueError(
                    f"keep_latest: null values in {c!r} are unsupported — "
                    "filter or fill them first"
                )
        order = order.reset_index(drop=True)
        # mergesort = stable; with a unique tie_col the order is total,
        # so the kept row (all its columns) is batch-layout-invariant
        ranked = order.sort_values(
            [ts_col, tie_col], ascending=[False, True], kind="mergesort"
        )
        keep = ranked.drop_duplicates(subset=[key_col], keep="first")
        return keep.index.to_numpy()

    def latest(batch: pa.Table) -> pa.Table:
        return batch.select(cols).take(_latest_indices(batch))

    P = derive_num_partitions(ds)
    pruned = ds.map_batches(latest, batch_format="pyarrow", zero_copy_batch=True)
    return exchange_map_groups(
        pruned, lambda t: bucket_col(t.column(key_col), P), latest, P
    )


def crawl_diff(new_ds, prior_ds, id_col: str = "doc_id", text_col: str = "text"):
    """Snapshot reconciliation between two crawls of the same key space:
    one (id, status) row per key seen in EITHER crawl, status ∈
    {'added', 'removed', 'changed', 'unchanged'} by comparing the
    normalized-content md5 fingerprints — the incremental-crawl diff
    that decides what re-enters the processing pipeline.

    Scale shape: both sides reduce to (id, fingerprint) rows (32-byte
    payloads — text never crosses the wire), reconciled by ONE bucketed
    full-outer hash join; the status stamp is map-only.  The join keys
    stay int64/string (only the fingerprint VALUE columns take
    hash_join's float64/object stabilization, and md5 hexes are
    strings, so nothing is lossy).
    """
    import pyarrow.compute as pc

    from .joins import hash_join
    from ..functions.dedup import doc_fingerprints

    new_fp = doc_fingerprints(new_ds, id_col=id_col, text_col=text_col)
    old_fp = doc_fingerprints(prior_ds, id_col=id_col, text_col=text_col).map_batches(
        lambda b: b.rename_columns([id_col, "fingerprint_old"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    joined = hash_join(
        new_fp,
        old_fp,
        key_col=id_col,
        right_value_cols=["fingerprint_old"],
        how="full_outer",
        suffix="",
    )

    def stamp(b: pa.Table) -> pa.Table:
        # a single-status batch (e.g. all-removed) types the absent
        # side's column as null — cast so equal()/if_else have string
        # kernels (all if_else branches evaluate eagerly)
        new_f = b.column("fingerprint").cast(pa.string())
        old_f = b.column("fingerprint_old").cast(pa.string())
        status = pc.if_else(
            pc.is_null(new_f),
            pa.scalar("removed"),
            pc.if_else(
                pc.is_null(old_f),
                pa.scalar("added"),
                pc.if_else(
                    pc.equal(new_f, old_f),
                    pa.scalar("unchanged"),
                    pa.scalar("changed"),
                ),
            ),
        )
        return pa.Table.from_arrays(
            [b.column(id_col), status], names=[id_col, "status"]
        )

    return joined.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# anti-entropy table checksum (replication / migration validation)
# --------------------------------------------------------------------------

#: two independent 31-bit primes: a collision must defeat both sums
CHECKSUM_P1 = 2_147_483_647  # 2^31 - 1
CHECKSUM_P2 = 2_147_483_629


def table_checksum(ds, cols: list, sep: str = "\x1f"):
    """Order-free whole-table checksum — the anti-entropy primitive a
    multi-cluster deployment runs after replication, migration or a
    compaction job: two independent modular sums of per-row
    md5-lower64 hashes (duplicate rows shift the sum, unlike an XOR
    fold, and integer modular addition commutes, so the value is
    independent of block order and partitioning).  Returns a one-row
    DataFrame (n_rows, ck1, ck2); two tables are replicas iff all
    three match.

    Row hash: md5-lower64 of the ``sep``-joined column values, with
    every value rendered EXACTLY as SQL's ``CAST(x AS VARCHAR)`` does
    (ints verbatim, strings raw — callers must not put ``sep`` inside
    data, the same \\x1f contract as the composite join keys) and NULL
    rendered as the empty string via COALESCE on both sides.

    Scale shape: map-only per-block (n, s1, s2) partials, one scalar
    aggregate — no shuffle at all."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Sum

    def parts(b: pa.Table) -> pa.Table:
        col_lists = []
        for c in cols:
            vals = b.column(c).to_pylist()
            col_lists.append(
                ["" if v is None else str(v) for v in vals]
            )
        s1 = 0
        s2 = 0
        n = b.num_rows
        for row in zip(*col_lists):
            h = int.from_bytes(
                hashlib.md5(sep.join(row).encode("utf-8")).digest()[8:], "little"
            )
            s1 = (s1 + h % CHECKSUM_P1) % CHECKSUM_P1
            s2 = (s2 + h % CHECKSUM_P2) % CHECKSUM_P2
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "s1": pa.array([s1], pa.int64()),
                "s2": pa.array([s2], pa.int64()),
            }
        )

    agg = ds.map_batches(parts, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("s1", alias_name="s1"), Sum("s2", alias_name="s2")
    )
    # a ZERO-block dataset makes aggregate() return None itself (not
    # per-key Nones) — the empty side of a replication check must
    # report n_rows=0, not crash
    if agg is None:
        agg = {}
    return pd.DataFrame(
        {
            "n_rows": [int(agg.get("n") or 0)],
            "ck1": [int(agg.get("s1") or 0) % CHECKSUM_P1],
            "ck2": [int(agg.get("s2") or 0) % CHECKSUM_P2],
        }
    )


def group_checksum(ds, group_col: str, cols: list, sep: str = "\x1f"):
    """Per-group anti-entropy checksums — the drill-down companion of
    :func:`table_checksum`: when whole-table sums diverge between two
    clusters, the per-partition rows localize WHICH partition to
    re-replicate.  Returns one row per group:
    (group_col, n_rows, ck1, ck2), same hash/modulus contract.

    Scale shape: per-block per-group partial sums (a combiner — at
    most |groups-in-block| rows leave each block), one |groups|-sized
    groupby, map-only final modulus."""
    import hashlib

    import numpy as np
    from ray.data.aggregate import Sum

    def parts(b: pa.Table) -> pa.Table:
        if b.column(group_col).null_count:
            raise ValueError(
                f"group_checksum: null values in group column {group_col!r} "
                "are unsupported — filter or fill them first"
            )
        import pandas as pd

        keys = b.column(group_col).to_pylist()
        col_lists = []
        for c in cols:
            vals = b.column(c).to_pylist()
            col_lists.append(["" if v is None else str(v) for v in vals])
        h1 = np.empty(b.num_rows, dtype=np.int64)
        h2 = np.empty(b.num_rows, dtype=np.int64)
        for i, row in enumerate(zip(*col_lists)):
            h = int.from_bytes(
                hashlib.md5(sep.join(row).encode("utf-8")).digest()[8:], "little"
            )
            h1[i] = h % CHECKSUM_P1
            h2[i] = h % CHECKSUM_P2
        df = pd.DataFrame({group_col: keys, "s1": h1, "s2": h2})
        g = df.groupby(group_col, sort=False).agg(
            n=("s1", "size"), s1=("s1", "sum"), s2=("s2", "sum")
        ).reset_index()
        g["s1"] %= CHECKSUM_P1
        g["s2"] %= CHECKSUM_P2
        return pa.Table.from_arrays(
            [
                pa.array(g[group_col]),
                pa.array(g["n"].astype(np.int64)),
                pa.array(g["s1"].astype(np.int64)),
                pa.array(g["s2"].astype(np.int64)),
            ],
            names=[group_col, "n", "s1", "s2"],
        )

    agg = (
        ds.map_batches(parts, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n", alias_name="n_rows"),
            Sum("s1", alias_name="s1"),
            Sum("s2", alias_name="s2"),
        )
    )

    def fin(b: pa.Table) -> pa.Table:
        import numpy as np_

        ck1 = b.column("s1").to_numpy(zero_copy_only=False) % CHECKSUM_P1
        ck2 = b.column("s2").to_numpy(zero_copy_only=False) % CHECKSUM_P2
        return pa.Table.from_arrays(
            [
                b.column(group_col),
                b.column("n_rows"),
                pa.array(ck1.astype(np_.int64)),
                pa.array(ck2.astype(np_.int64)),
            ],
            names=[group_col, "n_rows", "ck1", "ck2"],
        )

    return agg.map_batches(fin, batch_format="pyarrow")
