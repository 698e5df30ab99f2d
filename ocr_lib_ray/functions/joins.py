"""Every equi-join of the engine: :func:`hash_join` (inner, left,
right, full_outer, semi, anti) and the temporal as-of and range joins.

The module also owns the one broadcast-or-bucketed decision
(:func:`dim_ref_adaptive` against ``DIM_BROADCAST_MAX``): a single-key
semi/anti filter or inner enrich whose prepped right side fits is
broadcast once into a map-side lookup; everything else runs bucketed.

The bucketed joins are explicit partitioned hash joins (the portable
pattern — add ``bucket = bucket_col(key, P)`` to both sides, one bucket
exchange, and merge inside the group): a bucket holds EVERY row of its
keys from both sides, so per-key logic is local to one task.  P bounds
per-task memory (size ≈ total_rows / P); skewed keys can be salted into
sub-buckets by time range if one key outgrows a worker.

Partitioning assumption (documented per the custom-operator rule): key
hashing distributes keys, not rows — a single key's full history must
fit one task.  For corpora where one key dominates, pre-split that
key's right side by coarse time window and as-of join per window.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..schema_utils import pa_col_type as _pa_col_type


def _key_list(key_col) -> list:
    """Normalize the join-key argument: a string is one key, a
    list/tuple is a composite key (joined on ALL columns)."""
    return [key_col] if isinstance(key_col, str) else list(key_col)


def bucket_ints(vals: np.ndarray, num_partitions: int) -> np.ndarray:
    """Vectorized bucket assignment for INTEGER keys: the splitmix64
    finalizer mix in numpy uint64 — no per-row Python loop.  Buckets
    are internal partitioning only (never part of any output or
    oracle), so the hash only needs to be stable within a run and well
    mixed; it IS deterministic across runs too (pure value function).
    Non-integer keys go through :func:`bucket_col`."""
    x = vals.astype(np.int64).view(np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(num_partitions)).astype(np.int32)


def bucket_int_pairs(a: np.ndarray, b: np.ndarray, num_partitions: int) -> np.ndarray:
    """Vectorized bucket for a COMPOSITE integer key (a, b): golden-ratio
    combine in wrapping uint64, then the splitmix64 finalizer via
    :func:`bucket_ints`.  Internal partitioning only — never output."""
    x = a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + b.astype(np.uint64)
    return bucket_ints(x.view(np.int64), num_partitions)


def bucket_col(col, num_partitions: int, crc_compat: bool = False) -> np.ndarray:
    """Vectorized bucket assignment for an Arrow column: splitmix64 for
    integer columns, factorized crc32 otherwise (the Python crc32 runs
    once per UNIQUE key, not per row — bit-equal to the historical
    per-row loop).  ``crc_compat=True`` forces the crc32 path even for
    integers — for sites where the bucket value is pinned by an
    on-disk layout (the streaming session log) and must never change
    across engine versions."""
    import pyarrow.types as pat

    if not crc_compat and pat.is_integer(col.type):
        iv = np.asarray(col.fill_null(0).to_numpy(zero_copy_only=False)).astype(
            np.int64
        )
        return bucket_ints(iv, num_partitions)
    vals = col.to_pylist()
    codes, uniq = pd.factorize(np.asarray(vals, dtype=object))
    # nulls factorize to code -1: the extra last slot hashes them as
    # str(None), so every null lands in one fixed bucket
    ub = np.fromiter(
        (zlib.crc32(str(k).encode()) % num_partitions for k in [*uniq, None]),
        dtype=np.int32,
        count=len(uniq) + 1,
    )
    return ub[codes]


def spread_rows(bk: np.ndarray, mask: np.ndarray, num_partitions: int) -> np.ndarray:
    """Re-bucket the ``mask``ed (hot-key) rows uniformly: each one's
    bucket re-mixed with its row ordinal.  Which bucket a hot row lands
    in is irrelevant when its key's other side is replicated into every
    bucket; only that no single task gets them all."""
    if not mask.any():
        return bk
    idx = np.flatnonzero(mask).astype(np.uint64)
    mix = bk[mask].astype(np.uint64) + ((idx + np.uint64(1)) << np.uint64(32))
    bk = bk.copy()
    bk[mask] = bucket_ints(mix.view(np.int64), num_partitions)
    return bk


#: floor for derived exchange widths — matches the historical static
#: default, so small/bench corpora keep their measured parallelism and
#: only corpora past ``floor * rows_per_group`` rows widen the exchange.
DEFAULT_PARTITIONS = 32

#: target rows per exchange bucket: every bucket materializes in ONE
#: merge task, so this bounds per-task memory.
ROWS_PER_EXCHANGE_GROUP = 100_000


def derive_num_partitions(
    ds,
    floor: int = DEFAULT_PARTITIONS,
    rows_per_group: int = ROWS_PER_EXCHANGE_GROUP,
    approx_rows: int | None = None,
) -> int:
    """Size an INTERNAL exchange (``bucket_tasks.exchange_map_groups``)
    from corpus size: ``max(floor, ceil(rows / rows_per_group))``.

    The floor preserves parallelism on small inputs (the historical
    static defaults — 32 join partitions, 64 window buckets) without
    starting 32 task pairs on a small host: past one bucket per
    cluster CPU the exchange packs its buckets into about one merge
    task per CPU, by bytes, of at most one block target each; past
    ``floor * rows_per_group`` rows the width grows so no single
    merge task materializes an unbounded bucket (the
    :func:`ocr_lib_ray.functions.dedup.derive_group_buckets` policy,
    generalized).  Row count is METADATA-ONLY (parquet footers via
    ``Dataset._meta_count()``): a transformed lineage with no metadata
    count silently keeps the floor — this helper never executes
    lineage, unlike derive_group_buckets's counted fallback, because
    exchange width is a performance knob, not a correctness one.
    Buckets are internal partitioning only, so the derived count is
    output-invariant (pinned by the bucket-count invariance tests and
    the oracle gate).  Callers with catalog row counts pass
    ``approx_rows`` to size transformed lineages too.  Every width runs
    the same two-wave exchange (there is no sort-shuffle fallback).
    """
    if approx_rows is None:
        try:
            approx_rows = ds._meta_count()
        except Exception:
            approx_rows = None
    if approx_rows is None:
        return floor
    return max(floor, -(-int(approx_rows) // rows_per_group))


def zero_fill(n: int, t: pa.DataType) -> pa.Array:
    """``n`` zero values of type ``t`` for a column a union side lacks.
    Zero, not null: nulls float int64 columns in the pandas group
    frame, corrupting ids >= 2^53 on the cast back (and blocking
    non-numeric keys).  The filled values sit only on the OTHER side's
    rows and are never read."""
    if pa.types.is_integer(t):
        return pa.array([0] * n, t)
    if pa.types.is_floating(t):
        return pa.array([0.0] * n, t)
    if pa.types.is_string(t):
        return pa.array([""] * n, t)
    return pa.nulls(n, t)


# --------------------------------------------------------------------------
# broadcast key lookup (the small side of a join, shipped once)
# --------------------------------------------------------------------------


def _null_keys_error(key_cols: list) -> ValueError:
    return ValueError(
        f"hash_join: null join keys in {key_cols!r} are unsupported "
        "(SQL never matches them; pandas would) — filter or fill "
        "them first"
    )


def make_dim_ref(dim: pa.Table, key_col: str, value_cols: list):
    """``ray.put`` a small dimension once: (sorted keys, aligned value
    columns).  The object-store ref is fetched zero-copy per task —
    the dimension is shipped to each NODE once, not per batch.  Null
    keys raise: a lookup could neither sort nor match them."""
    import ray

    if dim.column(key_col).null_count:
        raise _null_keys_error([key_col])
    keys = np.asarray(dim.column(key_col).to_numpy(zero_copy_only=False))
    order = np.argsort(keys, kind="stable")
    idx = pa.array(order)
    vals = {c: dim.column(c).take(idx).combine_chunks() for c in value_cols}
    return ray.put((keys[order], vals))


def dim_lookup(batch_keys: np.ndarray, dim):
    """Vectorized lookup of ``batch_keys`` in a ``make_dim_ref`` payload
    → (match_mask, positions).  Unmatched keys get mask=False."""
    keys, _ = dim
    if len(keys) == 0:  # empty dimension: nothing matches
        return np.zeros(len(batch_keys), dtype=bool), np.zeros(
            len(batch_keys), dtype=np.int64
        )
    pos = np.searchsorted(keys, batch_keys)
    pos_c = np.clip(pos, 0, len(keys) - 1)
    mask = keys[pos_c] == batch_keys
    return mask, pos_c


#: ADAPTIVE broadcast bound for corpus-SCALED sides that are usually
#: small after their prep filter (a part type's keys, one nation's
#: suppliers, a dedup loser set).  At or below this many rows the
#: prepped side broadcasts once (``make_dim_ref``) and the gate/enrich
#: is map-side; past it the bucketed hash join runs — exact same
#: output either way (pinned by the fallback-equality tests, which
#: set this to 0).
DIM_BROADCAST_MAX = 5_000_000


def dim_ref_adaptive(ds, key_col: str, value_cols: list):
    """Materialize a PREPPED side (already filtered/projected — cheap,
    dim-table-sized) and broadcast it when it fits: returns
    ``(dim_ref_or_None, materialized_ds)``.  The materialized handle is
    returned so the fallback join re-reads blocks instead of
    re-executing the prep.  Cost when it does NOT fit: the one
    materialize the fallback join wants anyway."""
    mat = ds.materialize()
    n = mat.count()
    if n == 0:
        if not value_cols:
            # an empty key set broadcasts as itself: every lookup misses
            empty = pa.table({key_col: pa.array([], pa.int64())})
            return make_dim_ref(empty, key_col, []), mat
        # empty enrich sides take the join path with the ORIGINAL lazy
        # handle: it still carries an inferable schema (a zero-row
        # materialized dataset reports schema=Unknown and would break
        # the bucketed union), and the join produces TYPED empties
        return None, ds
    if n > DIM_BROADCAST_MAX:
        return None, mat
    # build the table from the dataset's own Arrow blocks (typed)
    tbl = pa.concat_tables(
        list(mat.iter_batches(batch_format="pyarrow"))
    ).select([key_col] + list(value_cols))
    return make_dim_ref(tbl, key_col, list(value_cols)), mat


def _key_filter(ref, key_col: str, how: str):
    """Map-side semi/anti batch filter against a broadcast key set."""
    import ray

    def keep(b: pa.Table) -> pa.Table:
        col = b.column(key_col)
        valid = np.asarray(pc.is_valid(col).to_numpy(zero_copy_only=False))
        if col.null_count:
            col = col.fill_null(zero_fill(1, col.type)[0])
        keys = np.asarray(col.to_numpy(zero_copy_only=False))
        # EXISTS: a null left key matches nothing (semi drops it, anti
        # keeps it)
        hit = dim_lookup(keys, ray.get(ref))[0] & valid
        return b.filter(pa.array(hit if how == "semi" else ~hit))

    return keep


def _key_enrich(ref, key_col: str, value_cols: list, suffix: str):
    """Map-side inner enrich against a broadcast side with UNIQUE keys:
    a left row whose key is found gets that key's ``value_cols`` (named
    ``c + suffix``); the others drop.  Null left keys raise, and the
    column-collision guard runs on the first batch when the left schema
    was not known up front."""
    import ray

    def enrich(b: pa.Table) -> pa.Table:
        _check_right_cols(b.schema, value_cols, suffix)
        col = b.column(key_col)
        if col.null_count:
            raise _null_keys_error([key_col])
        dim = ray.get(ref)
        mask, pos = dim_lookup(np.asarray(col.to_numpy(zero_copy_only=False)), dim)
        idx = pa.array(pos[mask])
        b = b.filter(pa.array(mask))
        for c in value_cols:
            b = b.append_column(c + suffix, dim[1][c].take(idx))
        return b

    return enrich


def _key_buckets(batch: pa.Table, key_cols: list, num_partitions: int) -> np.ndarray:
    """Bucket per row for a one- or many-column key: each column through
    :func:`bucket_col`, a composite key's buckets combined pairwise."""
    bk = bucket_col(batch.column(key_cols[0]), num_partitions)
    for c in key_cols[1:]:
        cb = bucket_col(batch.column(c), num_partitions)
        bk = bucket_int_pairs(bk, cb, num_partitions)
    return bk


def _hot_mask(batch: pa.Table, key_cols: list, hot_keys: list) -> np.ndarray:
    """Rows whose key is in ``hot_keys`` (tuples for a composite key),
    by one ``pc.is_in``.  A composite key compares as its columns'
    string forms joined by the unit separator (never inside a value
    here), the hot keys cast and joined the same way."""
    cols = [batch.column(c) for c in key_cols]
    if len(cols) == 1:
        keys, hot = cols[0], pa.array(hot_keys, cols[0].type)
    else:

        def joined(arrays):
            strs = [pc.cast(x, pa.string()) for x in arrays]
            return pc.binary_join_element_wise(*strs, "\x1f")

        keys = joined(cols)
        hot = joined(
            [pa.array([k[i] for k in hot_keys], c.type) for i, c in enumerate(cols)]
        )
    return np.asarray(pc.is_in(keys, value_set=hot).to_numpy(zero_copy_only=False))


def _union_bucketed(
    left_ds,
    right_ds,
    key_col,
    num_partitions: int,
    right_prebatch=None,
    right_names: list | None = None,
    replicate_keys=None,
):
    """Union both sides under one schema with (bucket, side) tags.
    Columns a side lacks are ZERO-FILLED (see :func:`zero_fill`) so
    pandas group frames keep exact dtypes.  Returns (union_ds, left_cols).

    ``right_prebatch`` (batch → batch, same columns) is fused into the
    right aligner — schema is derived from the PRE-transform dataset,
    so a transform that Ray cannot infer a schema through (map_batches
    over a possibly-empty side) costs neither a pass nor the metadata.

    ``right_names`` pins the right-side column list when the caller
    just projected it (``select_columns``): Ray's ``schema()`` on a
    Project over a lazy ``map_groups`` upstream (i.e. the output of
    another hash_join) can report the PRE-projection names, which
    would poison the union schema with columns the runtime batches no
    longer carry — a KeyError deep inside the aligner.  Column TYPES
    are still probed by name (correct under either schema).

    ``replicate_keys`` (hot-key salting): keys in this set get their
    RIGHT rows replicated into every bucket and their LEFT rows spread
    uniformly across buckets (:func:`spread_rows`), so one dominant key
    no longer funnels all of its left rows into a single merge task.
    The output SET is unchanged — every spread left row still meets
    the full right side of its key.  Valid only for join modes where
    right rows may appear in several buckets without changing
    semantics (inner/left/semi/anti — the CALLER guards).
    """
    def names_of(ds):
        sch = ds.schema()
        if sch is None:
            # a lazy dataset whose first sampled block is one of the
            # empty zero-column blocks Ray's sort-groupby emits can
            # report no schema — materializing unions block schemas
            ds = ds.materialize()
            sch = ds.schema()
        if sch is None:
            raise ValueError(
                "dataset schema unavailable even after materialize() — "
                "cannot align the bucketed union"
            )
        return ds, list(sch.names)

    left_ds, left_names = names_of(left_ds)
    right_ds, probed_right_names = names_of(right_ds)
    if right_names is None:
        right_names = probed_right_names
    all_cols = left_names + [c for c in right_names if c not in left_names]
    types = {
        c: _pa_col_type(left_ds if c in left_names else right_ds, c) for c in all_cols
    }
    key_cols = _key_list(key_col)
    hot = list(replicate_keys) if replicate_keys else None

    def aligner(present: list, side: int):
        def align(batch: pa.Table) -> pa.Table:
            if side == 1 and right_prebatch is not None:
                batch = right_prebatch(batch)
            n = batch.num_rows
            t = pa.Table.from_arrays(
                [
                    batch.column(c) if c in present else zero_fill(n, types[c])
                    for c in all_cols
                ],
                names=all_cols,
            )
            bk = _key_buckets(batch, key_cols, num_partitions)
            mask = _hot_mask(batch, key_cols, hot) if hot is not None else None
            if mask is not None and mask.any():
                if side == 0:
                    bk = spread_rows(bk, mask, num_partitions)
                else:
                    # hot RIGHT rows replicate into EVERY bucket
                    hot_idx = np.flatnonzero(mask)
                    t = t.take(
                        np.concatenate(
                            [np.flatnonzero(~mask), np.tile(hot_idx, num_partitions)]
                        )
                    )
                    bk = np.concatenate(
                        [bk[~mask], np.repeat(np.arange(num_partitions), len(hot_idx))]
                    )
            t = t.append_column("bucket", pa.array(bk, pa.int32()))
            return t.append_column("side", pa.array(np.full(t.num_rows, side, np.int8)))

        return align

    union = left_ds.map_batches(
        aligner(left_names, 0), batch_format="pyarrow"
    ).union(right_ds.map_batches(aligner(right_names, 1), batch_format="pyarrow"))
    return union, left_names


def run_bucket_groups(
    union_ds,
    num_partitions: int,
    fn,
    batch_format: str = "pandas",
    bucket_col_name: str = "bucket",
):
    """:func:`bucket_tasks.exchange_map_groups` for rows that already
    carry their bucket id (in ``[0, num_partitions)``) in column
    ``bucket_col_name``: ``fn`` runs once per NON-EMPTY bucket, inside
    the exchange's merge task, with the whole bucket in one frame/table
    (the bucket column still present).  Empty result and eagerness are
    :func:`exchange_map_groups`'s.
    """
    from .bucket_tasks import exchange_map_groups

    return exchange_map_groups(
        union_ds,
        lambda t: t.column(bucket_col_name).to_numpy(),
        fn,
        num_partitions,
        batch_format=batch_format,
    )


def _check_right_cols(sch, right_value_cols, suffix: str, extra=()) -> None:
    """Shared join-guard on the left schema ``sch``: right value columns
    must not collide with left columns, neither bare (the bucketed
    union would merge them) nor under their suffixed OUTPUT names
    (pandas would emit _x/_y mangles and the in-group sort/rename would
    KeyError deep inside a Ray task instead of failing here)."""
    if sch is None:
        # an empty lazy left side (e.g. a groupby over a filtered-to-
        # empty stream) can report no schema, and so can a lazy one
        # probed without execution; the guard has nothing to check then
        # — the broadcast enrich re-checks each batch, and
        # _union_bucketed's materialize fallback resolves (or loudly
        # rejects) the alignment
        return
    left_names = set(sch.names)
    clash = set(right_value_cols) & left_names
    if clash:
        raise ValueError(
            f"right_value_cols {sorted(clash)} collide with left columns — "
            "rename the right side before joining (the union would merge "
            "them into one column)"
        )
    sclash = {c + suffix for c in list(right_value_cols) + list(extra)} & left_names
    if sclash:
        raise ValueError(
            f"left columns {sorted(sclash)} collide with the suffixed join "
            f"output columns (suffix {suffix!r}) — rename them or pick "
            "another suffix"
        )


def asof_join(
    left_ds,
    right_ds,
    key_col: str,
    ts_col: str,
    right_value_cols: list,
    suffix: str = "_r",
    num_partitions: int | None = None,
):
    """For every left row, the right row with the greatest ts ≤ left ts
    for the same key (backward as-of; null columns when none exists).

    Ties on equal right ts break deterministically by keeping the LAST
    right row in (ts, value...) sort order — callers needing a specific
    policy pre-aggregate the right side to one row per (key, ts), which
    also makes the result equal DuckDB ``ASOF JOIN ... ON l.key = r.key
    AND l.ts >= r.ts`` (the oracle).  Output: left columns + each right
    value column with ``suffix`` + the matched right ts as
    ``ts_col + suffix`` (float64, NaN when unmatched).
    """
    if num_partitions is None:
        num_partitions = derive_num_partitions(left_ds)
    _check_right_cols(left_ds.schema(), right_value_cols, suffix, extra=(ts_col,))
    # the matched right ts is part of the output: carry it as an
    # explicit value column (merge_asof consumes the join ts)
    right = right_ds.select_columns(
        [key_col, ts_col] + list(right_value_cols)
    ).map_batches(
        lambda b: b.append_column(ts_col + suffix, b.column(ts_col)),
        batch_format="pyarrow",
    )
    union, left_cols = _union_bucketed(
        left_ds,
        right,
        key_col,
        num_partitions,
        right_names=[key_col, ts_col] + list(right_value_cols) + [ts_col + suffix],
    )
    r_cols = [key_col, ts_col] + list(right_value_cols) + [ts_col + suffix]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 0][left_cols]
        l = l.sort_values([ts_col, key_col], kind="mergesort")
        r = g[g["side"] == 1][r_cols].sort_values(
            [ts_col] + list(right_value_cols), kind="mergesort"
        )
        if l.empty:
            # typed empty frame (an object-dtype empty frame degrades
            # the output schema and trips block-size accounting)
            out = l.copy()
            for c in right_value_cols:
                out[c + suffix] = pd.Series(dtype="float64")
            out[ts_col + suffix] = pd.Series(dtype="float64")
            return out
        out = pd.merge_asof(
            l, r, on=ts_col, by=key_col, direction="backward", suffixes=("", suffix)
        )
        out = out.rename(columns={c: c + suffix for c in right_value_cols})
        # Documented schema is float64 (NaN when unmatched) for every
        # joined column.  merge_asof keeps int64 when a group happens to
        # match every row, so without this cast the output dtype is
        # GROUP-DEPENDENT — Ray logs schema drift and the parquet files
        # mix int64/double.  Cast unconditionally.
        for c in list(right_value_cols) + [ts_col]:
            out[c + suffix] = out[c + suffix].astype("float64")
        return out

    return run_bucket_groups(union, num_partitions, merge)


def hash_join(
    left_ds,
    right_ds,
    key_col,
    right_value_cols: list | None = None,
    how: str = "inner",
    suffix: str = "_r",
    num_partitions: int | None = None,
    replicate_keys=None,
    left_group_agg: dict | None = None,
):
    """General equi-join: left rows matched to right rows on
    ``key_col`` — one column name, or a list of names for a COMPOSITE
    key (both sides must carry all of them; rows match when every key
    column is equal, and a null in ANY key column means no match, SQL
    semantics).  ``how`` = ``inner`` (unmatched left rows dropped),
    ``left`` (kept, joined columns NaN on miss — NUMERIC right columns
    are cast float64 so the schema is not group-dependent, which means
    int ids ≥ 2^53 would lose precision under ``left``: use ``inner``
    or string columns for those; non-numeric right columns stay
    object-typed with NaN holes, a stable dtype either way),
    ``right`` (mirror: every right row kept, LEFT value columns get
    the same float64/object normalization), or ``full_outer`` (both
    directions kept; value columns on BOTH sides normalized; the key
    column itself is always present — it comes from whichever side has
    the row).  A right key matched by several right rows multiplies
    (standard SQL join semantics).  The result SET is deterministic;
    row ORDER is not part of the contract (rows are key-sorted per
    bucket for locality, ties follow block arrival order — the
    driver-gate compare and any SQL-equivalent consumer are
    order-insensitive).

    Null JOIN KEYS: SQL never matches them; pandas ``merge`` WOULD
    match NaN to NaN — so null keys raise here (on whichever side they
    appear, except under semi/anti which define them away).  Filter or
    fill null keys first, loudly, as with the groupby operators.

    ``how`` = ``semi`` / ``anti`` filter the left side by key existence
    on the right (EXISTS / NOT EXISTS semantics, exactly: null right
    keys are ignored, a null-key left row matches nothing — so semi
    DROPS it and anti KEEPS it; this is NOT the ``NOT IN`` footgun
    where one right-side null empties the result): output is the left
    rows and columns unchanged — never multiplied, no joined columns,
    so ``right_value_cols`` must be empty.  Only the right KEY column
    is read, deduped per batch first.  ``anti`` is the
    dedup/decontamination filter shape (every dedup loser filter —
    dedup_by_pairs, dedup_against_reference, dedup_minhash_incremental
    — is this call).

    Broadcast or bucketed: the join picks its own path, once, before
    any left-side schema probe, from the size of the prepped right
    side (:func:`dim_ref_adaptive` against ``DIM_BROADCAST_MAX``):

    * ``semi``/``anti`` on a single-column key: the right side's
      distinct non-null keys are materialized; when they fit they are
      broadcast once into a map-side filter — no shuffle at all.
    * ``inner`` on a single-column key without ``left_group_agg``: the
      projected right side (key + value columns) is materialized; when
      it fits AND its keys are unique it is broadcast once and every
      left batch gets a map-side lookup.  Repeated right keys must
      multiply left rows, which a lookup cannot, so they keep the
      exchange, as does every ``left_group_agg`` join (its aggregate
      lives in the exchange).  On this path the column-collision guard
      runs before any task when the left schema is known without
      executing its lineage, else on the first batch; null keys raise
      on either side, as below.
    * everything else — past the bound, composite keys, ``left`` /
      ``right`` / ``full_outer`` — runs the bucketed exchange below
      (semi/anti ship distinct keys per block, not right-side rows).

    Both paths give the same output set.

    Deliberately NOT ``Dataset.join``: in Ray 2.49 a join whose output
    feeds another hash shuffle silently emits zero rows (e.g. the
    pack_sequences groupby downstream of build_training_data's dedup).
    Same-bucket hash-partition discipline instead: both sides tagged
    ``bucket_col(key, num_partitions)``, one union + bucket exchange,
    in-group vectorized ``pd.merge`` — per-task memory is bounded by
    the bucket, works for any key dtype, and the output is safe to
    shuffle again.  Size ``num_partitions`` ≈ total_bytes / 512 MB.

    ``replicate_keys`` (skew salting): a set of HOT join keys (tuples
    for composite keys) whose left rows would otherwise all land in
    one merge task.  Their right rows are replicated into every bucket
    and their left rows spread uniformly, so per-task memory is
    bounded by corpus/P again.  Same output SET; costs |hot right
    rows| × num_partitions extra shuffle rows — use for keys whose
    RIGHT side is small but LEFT side is huge (the fact⋈dim skew).
    Only inner/left/semi/anti (outer modes would emit replicated right
    rows once per bucket — rejected loudly).  The broadcast path wins
    over it: a map-side lookup has no shuffle to salt.  Finding the
    hot keys is the caller's job (a heavy_hitters pass, or domain
    knowledge).

    ``left_group_agg`` (exchange fusion): pandas named-agg spec
    ``{out_col: (in_col, how)}`` applied to the LEFT side per key
    INSIDE each bucket before the merge — a bucket holds every left
    row of its keys, so this equals a full ``groupby(key).agg`` and
    fuses what would be a separate all-to-all aggregate into the
    join's own exchange (the aggregate-then-join warehouse shape pays
    ONE shuffle instead of two).  The left output columns become
    key_cols + the agg outputs (other left columns drop — feed a
    projected left side).  Only for commutative/associative-safe aggs
    over full key groups (sum/min/max/count); ``inner``/``left`` only,
    and mutually exclusive with ``replicate_keys`` (spread hot-key
    left rows would split a group across buckets and the in-bucket
    agg would silently emit partial groups).
    """
    if num_partitions is None:
        num_partitions = derive_num_partitions(left_ds)
    if how not in ("inner", "left", "right", "full_outer", "semi", "anti"):
        raise ValueError(
            "how must be 'inner'/'left'/'right'/'full_outer'/'semi'/'anti',"
            f" got {how!r}"
        )
    if replicate_keys and how in ("right", "full_outer"):
        raise ValueError(
            f"replicate_keys is unsupported for how={how!r}: replicated "
            "right rows would be emitted once per bucket under outer "
            "semantics — use inner/left/semi/anti or drop the salting"
        )
    if left_group_agg:
        if how not in ("inner", "left"):
            raise ValueError(
                f"left_group_agg is only supported for how='inner'/'left', "
                f"got {how!r}"
            )
        if replicate_keys:
            raise ValueError(
                "left_group_agg cannot combine with replicate_keys: spread "
                "hot-key left rows split a group across buckets, so the "
                "in-bucket aggregate would emit PARTIAL groups"
            )
    right_value_cols = list(right_value_cols or [])
    key_cols = _key_list(key_col)
    if how in ("semi", "anti"):
        if right_value_cols:
            raise ValueError(
                f"how={how!r} emits left columns only — right_value_cols "
                f"{right_value_cols} would be silently dropped; pass none"
            )

        def distinct_keys(b: pa.Table) -> pa.Table:
            # per-batch combiner: nulls never match under EXISTS, drop
            # them here; dedup so the shuffle carries distinct keys
            valid = pc.is_valid(b.column(key_cols[0]))
            for c in key_cols[1:]:
                valid = pc.and_(valid, pc.is_valid(b.column(c)))
            t = b.filter(valid)
            return t.group_by(key_cols).aggregate([])

        right = right_ds.select_columns(key_cols)
        if len(key_cols) == 1:
            # decided before any left-side schema probe: the broadcast
            # filter is one map over the left rows, nothing else
            ref, right = dim_ref_adaptive(
                right.map_batches(distinct_keys, batch_format="pyarrow"),
                key_cols[0],
                [],
            )
            if ref is not None:
                return left_ds.map_batches(
                    _key_filter(ref, key_cols[0], how), batch_format="pyarrow"
                )
    elif how == "inner" and len(key_cols) == 1 and not left_group_agg:
        # decided before the left-side schema probe, as for semi/anti;
        # the collision guard runs here only if the left schema is known
        # without executing its lineage (else on the first batch)
        _check_right_cols(
            left_ds.schema(fetch_if_missing=False), right_value_cols, suffix
        )
        ref, right_ds = dim_ref_adaptive(
            right_ds.select_columns(key_cols + right_value_cols),
            key_cols[0],
            right_value_cols,
        )
        if ref is not None:
            import ray

            # a repeated right key must multiply its left rows, which a
            # lookup cannot: such a side takes the exchange
            keys = ray.get(ref)[0]
            if not (keys[1:] == keys[:-1]).any():
                return left_ds.map_batches(
                    _key_enrich(ref, key_cols[0], right_value_cols, suffix),
                    batch_format="pyarrow",
                )
    if left_ds.schema() is None:
        # a filtered-to-empty lazy left side can be schema-less even
        # after materialize (Ray's aggregate emits zero blocks); the
        # left-driven join modes are then empty-in → empty-out
        left_ds = left_ds.materialize()
        if left_ds.schema() is None:
            if how in ("inner", "left", "semi", "anti"):
                return left_ds
            raise ValueError(
                f"hash_join how={how!r}: the kept right rows need the left "
                "column set, but the (empty) left side reports no schema — "
                "anchor the left schema (e.g. emit typed empty tables) first"
            )
    if how in ("semi", "anti"):
        union, left_cols = _union_bucketed(
            left_ds,
            right,
            key_cols,
            num_partitions,
            right_prebatch=distinct_keys,
            right_names=key_cols,
            replicate_keys=replicate_keys,
        )

        def filter_keys(g: pd.DataFrame) -> pd.DataFrame:
            l = g[g["side"] == 0][left_cols]
            # EXISTS: a null left key matches nothing (pandas isin /
            # merge WOULD match NaN to NaN — mask it out explicitly)
            valid = l[key_cols].notna().all(axis=1)
            r = g[g["side"] == 1][key_cols].dropna().drop_duplicates()
            if len(key_cols) == 1:
                hit = l[key_cols[0]].isin(r[key_cols[0]])
            else:
                hit = pd.Series(
                    list(map(tuple, l[key_cols].itertuples(index=False))),
                    index=l.index,
                ).isin(set(map(tuple, r.itertuples(index=False))))
            mask = valid & hit
            out = l[mask] if how == "semi" else l[~mask]
            return out.sort_values(key_cols, kind="mergesort")

        return run_bucket_groups(union, num_partitions, filter_keys)

    _check_right_cols(left_ds.schema(), right_value_cols, suffix)
    right = right_ds.select_columns(key_cols + list(right_value_cols))
    union, left_cols = _union_bucketed(
        left_ds,
        right,
        key_cols,
        num_partitions,
        right_names=key_cols + list(right_value_cols),
        replicate_keys=replicate_keys,
    )
    r_cols = key_cols + list(right_value_cols)
    rename = {c: c + suffix for c in right_value_cols}

    pd_how = {"full_outer": "outer"}.get(how, how)
    left_value_cols = [c for c in left_cols if c not in key_cols]

    def _stabilize(out: pd.DataFrame, side_dtypes, cols) -> None:
        for jc in cols:
            # dtype decided by the SOURCE side's declared dtype, not
            # the merged output (an empty opposite-side bucket would
            # otherwise yield all-NaN float64 even for strings, making
            # the schema group-dependent)
            if pd.api.types.is_numeric_dtype(side_dtypes[jc]):
                # stable float64 for numerics (see docstring for the
                # >= 2^53 precision caveat)
                out[jc] = out[jc].astype("float64")
            else:
                out[jc] = out[jc].astype(object)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 0][left_cols]
        r = g[g["side"] == 1][r_cols].rename(columns=rename)
        # SQL never matches NULL join keys; pandas merge WOULD match
        # NaN to NaN — raise instead of silently diverging (checked
        # BEFORE the fused agg: pandas groupby would silently DROP
        # NaN keys, hiding them from this guard)
        if (
            l[key_cols].isna().any(axis=None)
            or r[key_cols].isna().any(axis=None)
        ):
            raise _null_keys_error(key_cols)
        if left_group_agg:
            l = l.groupby(key_cols, as_index=False).agg(**left_group_agg)
        # key-sorted per bucket for output locality; row ORDER among
        # ties is NOT a contract (see docstring) — only the SET is
        out = pd.merge(l, r, on=key_cols, how=pd_how).sort_values(
            key_cols, kind="mergesort"
        )
        if how in ("left", "full_outer"):
            _stabilize(out, r.dtypes, [c + suffix for c in right_value_cols])
        if how in ("right", "full_outer"):
            _stabilize(out, l.dtypes, left_value_cols)
        return out

    return run_bucket_groups(union, num_partitions, merge)


def range_join_count(
    left_ds,
    right_ds,
    key_col: str,
    ts_col: str,
    window: int,
    num_partitions: int | None = None,
):
    """Per left row: how many right rows of the same key fall in
    ``(left_ts, left_ts + window]`` — the "responses within w" range
    join, vectorized with searchsorted inside each key bucket.

    Returns the left rows plus an ``n_in_window`` int64 column.
    """
    if num_partitions is None:
        num_partitions = derive_num_partitions(left_ds)
    union, left_cols = _union_bucketed(
        left_ds,
        right_ds.select_columns([key_col, ts_col]),
        key_col,
        num_partitions,
        right_names=[key_col, ts_col],
    )

    def count_in_window(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 0][left_cols]
        r = g[g["side"] == 1][[key_col, ts_col]]
        if l.empty:
            out = l.copy()
            out["n_in_window"] = pd.Series(dtype="int64")
            return out
        parts = []
        r_by_key = {
            k: np.sort(sub[ts_col].to_numpy(dtype=np.int64))
            for k, sub in r.groupby(key_col)
        }
        for k, sub in l.groupby(key_col):
            ts = sub[ts_col].to_numpy(dtype=np.int64)
            rts = r_by_key.get(k)
            if rts is None or len(rts) == 0:
                n = np.zeros(len(ts), dtype=np.int64)
            else:
                # (ts, ts + window]: strictly after, up to and including
                n = (
                    np.searchsorted(rts, ts + window, side="right")
                    - np.searchsorted(rts, ts, side="right")
                ).astype(np.int64)
            parts.append(sub.assign(n_in_window=n))
        return pd.concat(parts, ignore_index=True)

    return run_bucket_groups(union, num_partitions, count_in_window)
