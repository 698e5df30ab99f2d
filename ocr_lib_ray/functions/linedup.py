"""Cross-document repeated-line removal (C4-style corpus cleaning).

Lines (\\n-separated units of extracted text) that occur in more than
``max_df`` documents are boilerplate the per-page classifier could not
see (chrome rendered into main content, cookie text, share prompts).

Two passes, both shuffle-light:

1. line-frequency: per-batch DISTINCT (line_hash, 1) partials →
   per-line document counts in one combiner exchange
   (``bucket_tasks.exchange_aggregate``) → filter count > max_df.  The
   surviving hot set is tiny (boilerplate lines are by definition few
   and frequent) → collected and broadcast with ``ray.put``.
2. rewrite: vectorized per-batch filter of each document's lines
   against the broadcast hot set.

Deterministic: line identity = md5 of the exact line bytes.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from .bucket_tasks import exchange_aggregate, exchange_map_groups


def _line_hash(line: str) -> str:
    return hashlib.md5(line.encode("utf-8")).hexdigest()


def line_df_partials(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """One (line_hash, n=1) row per DISTINCT line per document."""
    hashes = []
    for t in batch.column(text_col).to_pylist():
        if not t:
            continue
        seen = set()
        for line in t.split("\n"):
            if line and line not in seen:
                seen.add(line)
                hashes.append(_line_hash(line))
    return pa.Table.from_arrays(
        [pa.array(hashes, pa.string()), pa.array([1] * len(hashes), pa.int64())],
        names=["line_hash", "n"],
    )


def hot_lines(ds, text_col: str = "text", max_df: int = 1):
    """Line hashes appearing in more than ``max_df`` documents (small)."""
    import pyarrow.compute as pc

    counts = exchange_aggregate(
        ds.map_batches(
            lambda b: line_df_partials(b, text_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "line_hash",
        [("n", "sum", "n")],
    )
    hot = counts.map_batches(
        lambda b: b.filter(pc.greater(b.column("n"), max_df)).select(["line_hash"]),
        batch_format="pyarrow",
    )
    # the aggregate's keys are distinct: collect them, no second shuffle
    out: set = set()
    for b in hot.iter_batches(batch_format="pyarrow"):
        out.update(b.column("line_hash").to_pylist())
    return out


def remove_common_lines_join(
    ds,
    text_col: str = "text",
    max_df: int = 1,
    id_col: str = "doc_id",
    num_partitions: int | None = None,
):
    """Scale variant of :func:`remove_common_lines`: hash-join rewrite.

    The broadcast path collects the hot-line set on the driver — right
    while boilerplate lines are few, impossible when a web-scale corpus
    has billions of repeated lines.  Here nothing is collected: documents
    explode to (doc, line_idx, line, line_hash) rows, hot lines stay a
    Dataset, and membership is an explicit SAME-KEY-BUCKET hash join —
    both sides carry ``bucket = bucket_col(line_hash, num_partitions)``,
    union, one bucket exchange, and each bucket filters its line rows
    against its own hot subset vectorized.  (Implemented on the bucket
    exchange rather than ``Dataset.join`` because Ray 2.49's hash join
    breaks when its output feeds another hash shuffle and a right
    partition is empty.)  Surviving lines re-assemble per document in a
    second exchange bucketed by id (sort line_idx → join per id inside
    the bucket).  Two exchanges of the line rows in exchange for
    bounded memory at any hot-set size.  Returns (id_col, text_col)
    only; text equals the broadcast path (tested).
    """
    from .joins import bucket_col, derive_num_partitions, run_bucket_groups, zero_fill

    if num_partitions is None:
        num_partitions = derive_num_partitions(ds, floor=32)
    import pandas as pd
    import pyarrow.compute as pc

    def bucket_of(hashes) -> pa.Array:
        return pa.array(bucket_col(hashes, num_partitions), pa.int32())

    from ..schema_utils import pa_col_type

    id_type = pa_col_type(ds, id_col)

    def explode(batch: pa.Table) -> pa.Table:
        ids, idxs, lines, hashes = [], [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            # sentinel row (idx -1, unique hash → never hot): keeps the
            # doc present in the regroup even when EVERY line is removed
            ids.append(i)
            idxs.append(-1)
            lines.append("")
            hashes.append(f"__doc__{i}")
            for li, ln in enumerate((t or "").split("\n")):
                ids.append(i)
                idxs.append(li)
                lines.append(ln)
                hashes.append(_line_hash(ln))
        id_type = batch.schema.field(id_col).type
        hashes = pa.array(hashes, pa.string())
        return pa.Table.from_arrays(
            [
                pa.array(ids, id_type),
                pa.array(idxs, pa.int64()),
                pa.array(lines, pa.string()),
                hashes,
                bucket_of(hashes),
                pa.array([0] * len(ids), pa.int8()),  # side 0 = line row
            ],
            names=[id_col, "line_idx", "line", "line_hash", "bucket", "side"],
        )

    def hot_rows(batch: pa.Table) -> pa.Table:
        hashes = batch.column("line_hash")
        n = len(hashes)
        return pa.Table.from_arrays(
            [
                zero_fill(n, id_type),
                pa.array([0] * n, pa.int64()),
                pa.array([""] * n, pa.string()),
                hashes,
                bucket_of(hashes),
                pa.array([1] * n, pa.int8()),  # side 1 = hot-hash row
            ],
            names=[id_col, "line_idx", "line", "line_hash", "bucket", "side"],
        )

    hot = exchange_aggregate(
        ds.map_batches(lambda b: line_df_partials(b, text_col), batch_format="pyarrow"),
        "line_hash",
        [("n", "sum", "_df")],
    ).map_batches(
        lambda b: hot_rows(b.filter(pc.greater(b.column("_df"), max_df))),
        batch_format="pyarrow",
    )
    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def filter_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hot_set = set(g.loc[g["side"] == 1, "line_hash"])
        keep = g[(g["side"] == 0) & (~g["line_hash"].isin(hot_set))]
        return keep[[id_col, "line_idx", "line"]]

    kept = run_bucket_groups(
        exploded.union(hot), num_partitions, filter_in_bucket
    )

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("line_idx", kind="mergesort")
        real = g[g["line_idx"] >= 0]
        text = real.groupby(id_col, sort=False, dropna=False)["line"].agg("\n".join)
        ids = pd.unique(g[id_col])
        return pd.DataFrame(
            {id_col: ids, text_col: text.reindex(ids, fill_value="").to_numpy()}
        )

    return exchange_map_groups(
        kept,
        lambda t: bucket_col(t.column(id_col), num_partitions),
        rebuild,
        num_partitions,
        batch_format="pandas",
    )


def remove_common_lines(ds, text_col: str = "text", max_df: int = 1):
    """Rewrite ``text`` dropping lines shared by > max_df documents.

    Returns the dataset with ``text`` replaced (other columns intact).
    """
    import ray

    hot_ref = ray.put(hot_lines(ds, text_col, max_df))

    def rewrite(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        texts = batch.column(text_col).to_pylist()
        out = []
        for t in texts:
            if not t:
                out.append(t)
                continue
            kept = [ln for ln in t.split("\n") if _line_hash(ln) not in hot]
            out.append("\n".join(kept))
        i = batch.column_names.index(text_col)
        return batch.set_column(i, text_col, pa.array(out, pa.string()))

    return ds.map_batches(rewrite, batch_format="pyarrow")
