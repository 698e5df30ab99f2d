"""The engine's one group exchange: raw Ray tasks in two waves.

Ray Data's ``groupby(key).map_groups`` pays a full sort-shuffle barrier
(~seconds of fixed latency at any data size) EVERY time it runs.  Here
a dataset is exchanged into ``num_partitions`` buckets by two task
waves — a per-block split, then a per-bucket merge — with nothing
landing on the driver but refs and per-bucket row counts.

* :func:`exchange_to_bucket_refs` is the two-wave implementation.
  Wave 1 also returns each block's per-bucket row counts; the driver
  reads them and starts merge tasks only for the buckets they fill.
  Iterative algorithms (PageRank) call it directly: their state is
  exchanged ONCE into per-bucket ``ObjectRef``s and every iteration
  then runs as task waves over those refs with NO further shuffles.
* :func:`exchange_map_groups` is the only Dataset-level entry over it,
  and every group exchange in the engine goes through it.  Its key is
  a column name or list (the map_groups key: the group fn runs once per
  distinct key inside the merge task) or a bucket fn (the group fn
  runs once per bucket — for rows that already carry a bucket id, and
  for group fns that finish many keys at once).  It owns the only
  width gate (:func:`fits_task_exchange`), the pandas-frame adapter and
  the only sort-shuffle fallback, ``ds.groupby(key).map_groups(fn)``.
  ``joins.run_bucket_groups`` is its form for a bucket-id column.
* :func:`exchange_aggregate` is the grouped Sum/Min/Max/Count over it,
  in place of Ray Data's sort-shuffle ``groupby(key).aggregate``: wave
  1 pre-aggregates each block (a combiner), wave 2 combines the
  partials.

Partitioning assumption (documented per the custom-operator rule): one
bucket's rows must fit one task — ``num_partitions`` comes from
``derive_num_partitions``, by the caller or by the exchange itself.

Driver cost: the driver holds O(blocks x num_partitions) split refs —
fine for P up to a few hundred; past that the Dataset sort shuffle
amortizes better, so wider exchanges fall back to it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .joins import _key_buckets, derive_num_partitions


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
      sub-tables (``num_returns=P + 1`` so each sub-table is an
      independently fetchable ref — bucket *b*'s merge task pulls ONLY
      its own slices, never whole blocks).  The last return is the
      block's per-bucket row counts.
    * the driver fetches those P-int arrays (the exchange's map-side
      statistics) and starts wave 2 only for the buckets they fill.
    * wave 2 — one task per non-empty bucket: concat the per-block
      slices and apply ``merge_fn`` (default: return the concat table).
      Every empty bucket shares ONE result: ``merge_fn`` run on the
      driver over block 0's (zero-row) slice of the first empty bucket.

    Returns ``(refs, rows)``: per bucket, a ref to ``merge_fn``'s result
    (P positional refs, empty buckets included) and the bucket's input
    row count as an int.
    """
    import ray
    from ray.data.block import BlockAccessor

    if not block_refs:
        raise ValueError("exchange_to_bucket_refs: no input blocks")

    def arrow(block) -> pa.Table:
        # to_arrow_refs hands pandas blocks through as they are when the
        # dataset's schema is Arrow (e.g. a union with a pandas side)
        return BlockAccessor.for_block(block).to_arrow()

    if num_partitions == 1:
        # degenerate exchange: one merge task over the raw blocks
        @ray.remote(num_returns=2)
        def merge_all(*tbls):
            tbls = [arrow(x) for x in tbls]
            if pre_fn is not None:
                tbls = [pre_fn(x) if x.num_rows > 0 else x for x in tbls]
            live = [x for x in tbls if x.num_rows > 0]
            t = pa.concat_tables(live, promote_options="default") if live else tbls[0]
            return (merge_fn(t) if merge_fn is not None else t), t.num_rows

        ref, rows = merge_all.remote(*block_refs)
        return [ref], [ray.get(rows)]

    @ray.remote
    def split(tbl: pa.Table):
        tbl = arrow(tbl)
        if pre_fn is not None and tbl.num_rows > 0:
            tbl = pre_fn(tbl)
        if tbl.num_rows == 0:
            # map_groups upstream can emit SCHEMA-LESS empty blocks
            # (the known Ray quirk) — never hand those to bucket_fn
            return (*[tbl] * num_partitions, np.zeros(num_partitions, np.int64))
        bk = np.asarray(bucket_fn(tbl), dtype=np.int64)
        parts = split_table_by_bucket(tbl, bk, num_partitions)
        return (*parts, np.array([p.num_rows for p in parts], np.int64))

    @ray.remote
    def merge(*parts):
        t = pa.concat_tables(
            [p for p in parts if p.num_rows > 0], promote_options="default"
        )
        return merge_fn(t) if merge_fn is not None else t

    waves = [
        split.options(num_returns=num_partitions + 1).remote(ref) for ref in block_refs
    ]
    rows = np.sum(ray.get([w[-1] for w in waves]), axis=0).tolist()
    refs, empty = [], None
    for b, n in enumerate(rows):
        if n:
            refs.append(merge.remote(*[w[b] for w in waves]))
            continue
        if empty is None:
            t = ray.get(waves[0][b])
            empty = ray.put(merge_fn(t) if merge_fn is not None else t)
        refs.append(empty)
    return refs, rows


#: past this exchange width the driver-side O(blocks x P) ref fan of
#: the raw exchange outgrows the sort shuffle's fixed latency
TASK_EXCHANGE_MAX_PARTITIONS = 256


def fits_task_exchange(num_partitions: int) -> bool:
    """The one width gate: True when the raw two-wave exchange beats
    the Dataset sort shuffle at this width."""
    return num_partitions <= TASK_EXCHANGE_MAX_PARTITIONS


def _materialized_width(ds):
    """``ds`` materialized, and the default exchange width over it:
    ``derive_num_partitions`` of its exact row count capped at its
    block count (at most one bucket per input block)."""
    ds = ds.materialize()
    return ds, max(1, min(derive_num_partitions(ds), ds.num_blocks()))


def split_by_key(tbl: pa.Table, cols: list) -> list:
    """One sub-table per distinct value of ``cols`` (nulls form one
    group, as in Ray's groupby), in first-appearance order; rows keep
    their order inside each group."""
    rows = tbl.select(cols).append_column(
        "__row", pa.array(np.arange(tbl.num_rows, dtype=np.int64))
    )
    lists = (
        rows.group_by(cols, use_threads=False)
        .aggregate([("__row", "list")])
        .column("__row_list")
        .combine_chunks()
    )
    grouped = tbl.take(lists.flatten())
    offs = lists.offsets.to_numpy()
    return [grouped.slice(int(a), int(b - a)) for a, b in zip(offs[:-1], offs[1:])]


def exchange_map_groups(
    ds, key, group_fn, num_partitions=None, pre_fn=None, batch_format="pyarrow"
):
    """``ds.groupby(key).map_groups(group_fn)`` over the two-wave
    exchange.  ``key`` is either

    * a column name or list of names: rows hash to buckets with
      ``joins._key_buckets`` and ``group_fn`` runs once per distinct
      key, inside the merge task (Ray's map_groups contract); or
    * a bucket fn ``pa.Table -> np.ndarray`` of ids in
      ``[0, num_partitions)``: ``group_fn`` runs once per non-empty
      bucket, whole — for callers whose group fn finishes many keys at
      once, or whose rows already carry their bucket.

    ``group_fn`` takes and returns a ``pa.Table``, or pandas frames
    with ``batch_format="pandas"``.  ``pre_fn`` (optional) runs inside
    the split task (e.g. a tag filter + column prune, so only the
    exchanged rows ship).  Empty buckets start no merge task and are
    left out; if all are empty the result is one zero-row block typed
    by ``group_fn``'s output on the empty bucket-0 table (probed on the
    driver), or by that table if ``group_fn`` rejects it.

    ``num_partitions`` (required with a bucket fn) defaults to
    ``joins.derive_num_partitions`` of the materialized ``ds`` (its
    exact row count) capped at its block count: at most one bucket per
    input block, as in Ray's sort shuffle, so small inputs start no
    empty merge tasks.  Past :data:`TASK_EXCHANGE_MAX_PARTITIONS` the
    same call runs as ``ds.groupby(key).map_groups(group_fn)`` (a
    bucket fn key becomes a temporary bucket column).  The raw path
    executes ``ds``'s lineage NOW (``materialize``); with an explicit
    width the fallback stays lazy.  Returns a Dataset with one block
    per non-empty bucket.
    """
    import ray
    import ray.data as rd

    if num_partitions is None:
        ds, num_partitions = _materialized_width(ds)

    def fn(t: pa.Table) -> pa.Table:
        if batch_format == "pyarrow":
            return group_fn(t)
        out = group_fn(t.to_pandas())
        if isinstance(out, pa.Table):  # map_groups tolerates either
            return out
        return pa.Table.from_pandas(out, preserve_index=False)

    by_bucket = callable(key)
    if by_bucket:
        bucket_fn, merge_fn = key, fn
    else:
        cols = [key] if isinstance(key, str) else list(key)

        def bucket_fn(t: pa.Table) -> np.ndarray:
            return _key_buckets(t, cols, num_partitions)

        def merge_fn(t: pa.Table) -> pa.Table:
            outs = [fn(g) for g in split_by_key(t, cols)]
            return pa.concat_tables(outs, promote_options="default")

    if not fits_task_exchange(num_partitions):
        tmp = "__exchange_bucket"

        def prep(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:  # possibly schema-less, as in split
                return t
            if pre_fn is not None:
                t = pre_fn(t)
            if by_bucket:
                t = t.append_column(tmp, pa.array(bucket_fn(t), pa.int64()))
            return t

        if pre_fn is not None or by_bucket:
            ds = ds.map_batches(prep, batch_format="pyarrow")
        if by_bucket:
            return ds.groupby(tmp).map_groups(
                lambda t: fn(t.drop_columns([tmp])), batch_format="pyarrow"
            )
        return ds.groupby(key).map_groups(group_fn, batch_format=batch_format)

    refs, rows = exchange_to_bucket_refs(
        # materialize first: to_arrow_refs on a lazy dataset re-runs its
        # lineage to fetch the schema
        ds.materialize().to_arrow_refs(),
        bucket_fn,
        num_partitions,
        merge_fn=lambda t: merge_fn(t) if t.num_rows else t,
        pre_fn=pre_fn,
    )
    live = [ref for ref, n in zip(refs, rows) if n]
    if live:
        return rd.from_arrow_refs(live)
    empty = ray.get(refs[0])
    try:
        empty = fn(empty).slice(0, 0)
    except Exception:
        # group fns may assume a non-empty group (e.g. read row 0) and
        # fail in any way on this probe; the input-typed block stands in
        pass
    return rd.from_arrow(empty)


#: wave 2's combine of each wave-1 partial: counts and sums add up,
#: minima and maxima stay minima and maxima
_COMBINE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _group_aggregate(t: pa.Table, cols: list, aggs: list) -> pa.Table:
    """``t`` grouped by ``cols`` with pyarrow's hash aggregates, one
    output column per ``(column, op, alias)`` of ``aggs`` ("count"
    counts rows): columns ``[*cols, *aliases]``."""
    specs = [([], "count_all") if op == "count" else (col, op) for col, op, _ in aggs]
    names = ["count_all" if op == "count" else f"{col}_{op}" for col, op, _ in aggs]
    out = t.group_by(cols, use_threads=False).aggregate(specs)
    return out.select([*cols, *names]).rename_columns(
        [*cols, *(alias for _, _, alias in aggs)]
    )


def exchange_aggregate(ds, key, aggs: list):
    """``ds.groupby(key).aggregate(...)`` as a combiner hash aggregate
    over the two-wave exchange.

    ``key`` is a column name or list of names; ``aggs`` is a list of
    ``(column, op, alias)`` with ``op`` one of "sum", "min", "max" and
    "count" (rows per group, nulls included, as Ray's ``Count()``;
    pass column None).  Sum, min and max skip nulls as Ray's do (an
    all-null group's is null), and null keys form one group.

    * wave 1 (``pre_fn``): each block pre-aggregates with pyarrow's
      ``Table.group_by``, so one row per distinct key per block ships,
      hashed to its bucket by ``joins._key_buckets``;
    * wave 2 (the group fn, once per non-empty bucket): the partials
      combine — sums and counts add, minima and maxima stay.

    Width: :func:`exchange_map_groups`'s default
    (``min(derive_num_partitions(ds), ds.num_blocks())`` of the
    materialized ``ds``), so past :data:`TASK_EXCHANGE_MAX_PARTITIONS`
    the same call runs through its sort-shuffle fallback.  Executes
    ``ds``'s lineage now.  Returns ``[*key, *aliases]`` columns, one
    row per group, in no particular order (Ray's sort-based aggregate
    sorts by key); a zero-row input gives one zero-row block of that
    schema.
    """
    cols = [key] if isinstance(key, str) else list(key)
    combine = [(alias, _COMBINE[op], alias) for _, op, alias in aggs]

    def partial(t: pa.Table) -> pa.Table:
        return _group_aggregate(t, cols, aggs)

    def merge(t: pa.Table) -> pa.Table:
        # a zero-row table here is the driver's all-empty probe: the raw
        # input, which wave 1 never pre-aggregated
        return _group_aggregate(t if t.num_rows else partial(t), cols, combine)

    ds, num_partitions = _materialized_width(ds)
    return exchange_map_groups(
        ds,
        lambda t: _key_buckets(t, cols, num_partitions),
        merge,
        num_partitions,
        pre_fn=partial,
    )
