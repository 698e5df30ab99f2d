"""The engine's one bucket exchange: raw Ray tasks in two waves.

Ray Data's ``groupby(bucket).map_groups`` pays a full sort-shuffle
barrier (~seconds of fixed latency at any data size) EVERY time it
runs.  Here a dataset is exchanged into ``num_partitions`` buckets by
two task waves — a per-block split, then a per-bucket merge — with
nothing landing on the driver but refs and row counts.

* :func:`exchange_to_bucket_refs` is the two-wave implementation.
  Iterative algorithms (PageRank) call it directly: their state is
  exchanged ONCE into per-bucket ``ObjectRef``s and every iteration
  then runs as task waves over those refs with NO further shuffles.
* :func:`exchange_map_groups` is the only Dataset-level entry over it:
  a ``groupby(bucket).map_groups(fn)`` replacement whose group fn runs
  inside the merge wave (no third task wave).  It owns the only width
  gate (:func:`fits_task_exchange`) and the only sort-shuffle fallback.
  ``joins.run_bucket_groups`` is its pandas-frame adapter.

Partitioning assumption (documented per the custom-operator rule): one
bucket's rows must fit one task — callers size ``num_partitions`` with
``derive_num_partitions``, same as the Dataset exchanges.

Driver cost: the driver holds O(blocks x num_partitions) split refs —
fine for P up to a few hundred; past that the Dataset sort shuffle
amortizes better, so wider exchanges fall back to it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def split_table_by_bucket(tbl: pa.Table, buckets: np.ndarray, num_partitions: int):
    """One block → ``num_partitions`` sub-tables by precomputed bucket
    ids (a stable counting split: rows keep their in-block order inside
    each bucket, so downstream merges are deterministic)."""
    order = np.argsort(buckets, kind="stable")
    sorted_tbl = tbl.take(pa.array(order))
    counts = np.bincount(buckets, minlength=num_partitions)
    offs = np.concatenate([[0], np.cumsum(counts)])
    return [
        sorted_tbl.slice(int(offs[i]), int(counts[i])) for i in range(num_partitions)
    ]


def exchange_to_bucket_refs(
    block_refs: list,
    bucket_fn,
    num_partitions: int,
    merge_fn=None,
    pre_fn=None,
):
    """The two task waves that turn dataset blocks into buckets.

    * wave 1 — one task per input block: ``pre_fn`` (optional) trims
      the block, ``bucket_fn(table) -> np.ndarray[int]`` assigns each
      row a bucket, and the block splits into ``num_partitions``
      sub-tables (``num_returns=P`` so each sub-table is an
      independently fetchable ref — bucket *b*'s merge task pulls ONLY
      its own slices, never whole blocks).
    * wave 2 — one task per bucket: concat the per-block slices and
      apply ``merge_fn`` (default: return the concat table).

    Returns ``(refs, rows)``: per bucket, a ref to ``merge_fn``'s result
    and a ref to the bucket's input row count, so a caller can drop
    empty buckets after fetching P small ints.
    """
    import ray

    if not block_refs:
        raise ValueError("exchange_to_bucket_refs: no input blocks")

    if num_partitions == 1:
        # degenerate exchange: one merge task over the raw blocks
        @ray.remote(num_returns=2)
        def merge_all(*tbls):
            if pre_fn is not None:
                tbls = [pre_fn(x) if x.num_rows > 0 else x for x in tbls]
            live = [x for x in tbls if x.num_rows > 0]
            t = pa.concat_tables(live, promote_options="default") if live else tbls[0]
            return (merge_fn(t) if merge_fn is not None else t), t.num_rows

        ref, rows = merge_all.remote(*block_refs)
        return [ref], [rows]

    @ray.remote
    def split(tbl: pa.Table):
        if pre_fn is not None and tbl.num_rows > 0:
            tbl = pre_fn(tbl)
        if tbl.num_rows == 0:
            # map_groups upstream can emit SCHEMA-LESS empty blocks
            # (the known Ray quirk) — never hand those to bucket_fn
            return tuple([tbl] * num_partitions)
        bk = np.asarray(bucket_fn(tbl), dtype=np.int64)
        return tuple(split_table_by_bucket(tbl, bk, num_partitions))

    @ray.remote(num_returns=2)
    def merge(*parts):
        live = [p for p in parts if p.num_rows > 0]
        # wave 1 always emits P slices, so parts[0] is a typed empty
        t = pa.concat_tables(live, promote_options="default") if live else parts[0]
        return (merge_fn(t) if merge_fn is not None else t), t.num_rows

    waves = [
        split.options(num_returns=num_partitions).remote(ref) for ref in block_refs
    ]
    pairs = [
        merge.remote(*[waves[i][b] for i in range(len(waves))])
        for b in range(num_partitions)
    ]
    return [ref for ref, _ in pairs], [rows for _, rows in pairs]


#: past this exchange width the driver-side O(blocks x P) ref fan of
#: the raw exchange outgrows the sort shuffle's fixed latency
TASK_EXCHANGE_MAX_PARTITIONS = 256


def fits_task_exchange(num_partitions: int) -> bool:
    """The one width gate: True when the raw two-wave exchange beats
    the Dataset sort shuffle at this width."""
    return num_partitions <= TASK_EXCHANGE_MAX_PARTITIONS


def exchange_map_groups(ds, bucket_fn, num_partitions, group_fn, pre_fn=None):
    """``groupby(bucket).map_groups(group_fn)`` over the two-wave
    exchange: ``bucket_fn(pa.Table) -> np.ndarray`` assigns each row a
    bucket, ``pre_fn`` (optional) runs inside the split task (e.g. a
    tag filter + column prune, so only the exchanged rows ship), and
    ``group_fn(pa.Table) -> pa.Table`` runs inside the merge task.

    The map_groups contract holds: ``group_fn`` sees each NON-EMPTY
    bucket once, whole.  The merge tasks return each bucket's row count
    beside its table and the driver drops the empty buckets.  When
    every bucket is empty the result is one typed empty block:
    ``group_fn``'s output on the (zero-row) bucket-0 table, computed on
    the driver, or that table itself if ``group_fn`` rejects it.

    Past :data:`TASK_EXCHANGE_MAX_PARTITIONS` the same call runs as the
    Dataset sort shuffle over a temporary bucket column.  The raw path
    executes ``ds``'s lineage NOW (``to_arrow_refs``); the fallback
    stays lazy.  Returns a Dataset with one block per non-empty bucket.
    """
    import ray
    import ray.data as rd

    if not fits_task_exchange(num_partitions):
        tmp = "__exchange_bucket"

        def tag(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:  # possibly schema-less, as in split
                return t
            if pre_fn is not None:
                t = pre_fn(t)
            return t.append_column(tmp, pa.array(bucket_fn(t), pa.int64()))

        return (
            ds.map_batches(tag, batch_format="pyarrow")
            .groupby(tmp)
            .map_groups(
                lambda t: group_fn(t.drop_columns([tmp])), batch_format="pyarrow"
            )
        )

    refs, rows = exchange_to_bucket_refs(
        ds.to_arrow_refs(),
        bucket_fn,
        num_partitions,
        merge_fn=lambda t: group_fn(t) if t.num_rows else t,
        pre_fn=pre_fn,
    )
    live = [ref for ref, n in zip(refs, ray.get(rows)) if n]
    if live:
        return rd.from_arrow_refs(live)
    empty = ray.get(refs[0])
    try:
        empty = group_fn(empty)
    except Exception:
        # group fns may assume a non-empty bucket (e.g. read row 0) and
        # fail in any way on this probe; the input-typed block stands in
        pass
    return rd.from_arrow(empty)
