"""The engine's one group exchange: raw Ray tasks in two waves.

Ray Data's ``groupby(key).map_groups`` pays a full sort-shuffle barrier
(~seconds of fixed latency at any data size) EVERY time it runs.  Here
a dataset is exchanged into ``num_partitions`` buckets by two task
waves — a split of each block, then a merge of each bucket — with
nothing landing on the driver but refs and per-bucket row and byte
counts.

* :func:`exchange_to_bucket_refs` is the two-wave implementation.
  Wave 1 also returns each split task's rows and bytes per bucket; the
  driver reads them, packs the buckets they fill into consecutive
  groups and starts one merge task per group.
  Iterative algorithms (PageRank) call it directly: their state is
  exchanged ONCE into per-bucket ``ObjectRef``s and every iteration
  then runs as task waves over those refs with NO further shuffles.
* :func:`exchange_map_groups` is the only Dataset-level entry over it,
  and every group exchange in the engine goes through it.  Its key is
  a column name or list (the map_groups key: the group fn runs once per
  distinct key inside the merge task) or a bucket fn (the group fn
  runs once per bucket — for rows that already carry a bucket id, and
  for group fns that finish many keys at once).  It owns the
  pandas-frame adapter and runs at every width: the package holds no
  ``groupby().map_groups()``.  ``joins.run_bucket_groups`` is its form
  for a bucket-id column.
* :func:`exchange_aggregate` is the grouped Sum/Min/Max/Count over it,
  in place of Ray Data's sort-shuffle ``groupby(key).aggregate``: wave
  1 pre-aggregates each block (a combiner), wave 2 combines the
  partials.

Task sizing: both waves pack their items (input blocks by metadata
bytes, filled buckets by wave-1 bytes) into consecutive groups, one
task per group (:func:`_pack_groups`).  A host with at least as many
CPUs as items starts one task per item and lets Ray balance them.  A
smaller host starts about one task per CPU, each holding about an
equal share of the bytes and at most
``DataContext.target_max_block_size`` of them, so Ray's fixed per-task
cost no longer scales with ``num_partitions`` and a hot bucket (over
two CPUs' shares) does not share a task with its neighbours.  Both
waves yield their buckets one at a time.  :func:`dataset_from_refs`
hands the merged buckets to a Dataset with one metadata task per merge
task, not one per bucket.

Partitioning assumption (documented per the custom-operator rule): one
bucket's rows must fit one task — ``num_partitions`` comes from
``derive_num_partitions``, by the caller or by the exchange itself.  A
merge task reads at most one block target of buckets, or one bucket,
and holds one bucket's input and result at a time; a split task holds
its blocks' sorted copies, at most one block target or one block.

Driver cost: the driver holds split tasks x (P + 1) refs, the same
order as a sort shuffle's map x reduce fan, and packing keeps split
tasks near one per CPU.  Every width runs these waves: a bucket-fn
exchange of 400k rows in 400 blocks at 4 CPUs took 3.7 s at P=300 and
17.2 s at P=4096 against 31.0 s and 35.8 s through Ray's sort shuffle
(300 blocks at 1 CPU: 10.9 / 56.4 s against 53.2 / 57.9 s; medians of
3, Ray 2.49).  At 1 CPU the raw cost grows ~12 ms per bucket while the
sort shuffle's stays flat, so the two meet near P=4096 there.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..pool import cluster_cpus
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


def _pack_groups(sizes: list) -> list:
    """Consecutive groups of the indices of ``sizes`` (bytes per item),
    one task each.  With no more items than cluster CPUs every item is
    its own group.  Otherwise the items fall into one run per CPU, of
    about equal bytes (item ``i`` goes to run ``floor(CPUs x bytes
    before i's midpoint / total)``), so an item of more than two CPUs'
    shares runs alone rather than dragging its neighbours along, as
    runs of equal count would; then each run cuts
    wherever the next item would pass
    ``DataContext.target_max_block_size``.  A group passes the target
    only when it is one item."""
    from ray.data import DataContext

    cpus = cluster_cpus()
    if len(sizes) <= cpus:
        return [[i] for i in range(len(sizes))]
    target = DataContext.get_current().target_max_block_size
    w = np.asarray(sizes, dtype=np.float64)
    if not w.sum():  # no byte counts: runs of equal count
        w = np.ones(len(sizes))
    mids = np.cumsum(w) - w / 2
    run_of = np.minimum((mids * cpus / w.sum()).astype(np.int64), cpus - 1)
    groups, held = [], 0
    for i, size in enumerate(sizes):
        same_run = groups and run_of[groups[-1][-1]] == run_of[i]
        if same_run and (target is None or held + size <= target):
            groups[-1].append(i)
            held += size
        else:
            groups.append([i])
            held = size
    return groups


def exchange_to_bucket_refs(
    block_refs: list,
    bucket_fn,
    num_partitions: int,
    merge_fn=None,
    pre_fn=None,
):
    """The two task waves that turn dataset blocks into buckets.

    * wave 1 — one ``split`` task per entry of ``block_refs``, which is
      a block ref or a tuple of block refs: per block, ``pre_fn``
      (optional) trims it, ``bucket_fn(table) -> np.ndarray[int]``
      assigns each row a bucket, and the block splits into
      ``num_partitions`` sub-tables; a bucket's non-empty slices join
      in block order.  ``num_returns=P + 1`` makes each bucket an
      independently fetchable ref, so a merge pulls ONLY its buckets'
      slices, never whole blocks.  The last return is the task's rows
      and bytes per bucket.
    * the driver sums those (the exchange's map-side statistics) and
      packs the buckets they fill into consecutive groups
      (:func:`_pack_groups`: about one per CPU by bytes, at most one
      block target of bytes, or one bucket, per group).
    * wave 2 — one ``merge`` task per group (``num_returns`` = its
      buckets): per bucket, concat the non-empty slices, apply
      ``merge_fn`` (default: return the concat table) and yield the
      result before the next bucket starts.  Every empty
      bucket shares ONE result: ``merge_fn`` run on the driver over
      block 0's (zero-row) slice of the first empty bucket.

    Returns ``(refs, rows)``: per bucket, a ref to ``merge_fn``'s result
    (P positional refs, empty buckets included) and the bucket's input
    row count as an int.
    """
    import ray
    from ray.data.block import BlockAccessor

    if not block_refs:
        raise ValueError("exchange_to_bucket_refs: no input blocks")
    tasks = [e if isinstance(e, tuple) else (e,) for e in block_refs]
    if merge_fn is None:

        def merge_fn(t: pa.Table) -> pa.Table:
            return t

    def arrow(block) -> pa.Table:
        # input blocks may be pandas (a pandas-format upstream, or
        # to_arrow_refs handing them through under an Arrow schema)
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
            return merge_fn(t), t.num_rows

        ref, rows = merge_all.remote(*[r for t in tasks for r in t])
        return [ref], [ray.get(rows)]

    def split_block(tbl) -> list:
        tbl = arrow(tbl)
        if pre_fn is not None and tbl.num_rows > 0:
            tbl = pre_fn(tbl)
        if tbl.num_rows == 0:
            # map_groups upstream can emit SCHEMA-LESS empty blocks
            # (the known Ray quirk) — never hand those to bucket_fn
            return [tbl] * num_partitions
        bk = np.asarray(bucket_fn(tbl), dtype=np.int64)
        return split_table_by_bucket(tbl, bk, num_partitions)

    # both waves are generators under a fixed num_returns: Ray stores
    # each bucket as it is yielded, so a merge task holds one bucket's
    # input and result at a time however many buckets it merges
    @ray.remote
    def split(*tbls):
        # every block splits on its own, so a bucket's rows arrive in
        # the chunks and order one task per block gives them (pyarrow's
        # group_by output order follows the chunk layout)
        blocks = [split_block(t) for t in tbls]
        stats = []
        for b in range(num_partitions):
            live = [p[b] for p in blocks if p[b].num_rows > 0] or [blocks[0][b]]
            part = pa.concat_tables(live, promote_options="default")
            stats.append((part.num_rows, part.nbytes))
            yield part
        yield np.array(stats, np.int64).T

    @ray.remote
    def merge(counts, *parts):
        at = 0
        for n in counts:
            t = pa.concat_tables(parts[at : at + n], promote_options="default")
            at += n
            yield merge_fn(t)

    waves = [split.options(num_returns=num_partitions + 1).remote(*t) for t in tasks]
    stats = ray.get([w[-1] for w in waves])
    rows, nbytes = np.sum(stats, axis=0).tolist()
    filled = [b for b, n in enumerate(rows) if n]
    refs = [None] * num_partitions
    for group in _pack_groups([nbytes[b] for b in filled]):
        buckets = [filled[i] for i in group]
        parts = [[w[b] for w, s in zip(waves, stats) if s[0][b]] for b in buckets]
        outs = merge.options(num_returns=len(buckets)).remote(
            [len(p) for p in parts], *[r for p in parts for r in p]
        )
        for b, ref in zip(buckets, outs if len(buckets) > 1 else [outs]):
            refs[b] = ref
    empty = None
    for b, ref in enumerate(refs):
        if ref is None:
            if empty is None:
                t = ray.get(waves[0][b])
                empty = ray.put(merge_fn(t))
            refs[b] = empty
    return refs, rows


def dataset_from_refs(refs: list):
    """``ray.data.from_arrow_refs(refs)`` with one metadata task per
    task that made the refs (Ray starts one per ref): one per merge
    group of an exchange, all of them for ``ray.put`` refs.  Each
    metadata task reads only refs that one task wrote, so it runs where
    they are and pulls nothing across nodes.  The Dataset is the same
    ``FromArrow`` plan over a ``MaterializedDataset``, built as Ray
    2.49's ``from_arrow_refs`` (``ray/data/read_api.py``) builds it.  A
    Ray upgrade that moves these internals fails
    ``tests/test_exchange_waves.py``."""
    import ray
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data._internal.util import get_table_block_metadata_schema
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    @ray.remote
    def block_metadata(*tables):
        return [get_table_block_metadata_schema(t) for t in tables]

    by_task = {}
    for i, ref in enumerate(refs):
        by_task.setdefault(ref.task_id(), []).append(i)
    metas = ray.get(
        [block_metadata.remote(*[refs[i] for i in idx]) for idx in by_task.values()]
    )
    metadata = [None] * len(refs)
    for idx, got in zip(by_task.values(), metas):
        for i, meta in zip(idx, got):
            metadata[i] = meta
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metadata}, parent=None),
        DataContext.get_current().copy(),
    )
    return MaterializedDataset(
        plan, LogicalPlan(FromArrow(refs, metadata), plan._context)
    )


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
    empty merge tasks.  Every width runs these two waves; there is no
    sort-shuffle path.  The call executes ``ds``'s lineage NOW
    (``materialize``) and packs its blocks into split tasks by their
    metadata bytes.  Returns a Dataset with one block per non-empty
    bucket.
    """
    import ray
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    if num_partitions is None:
        ds, num_partitions = _materialized_width(ds)

    def fn(t: pa.Table) -> pa.Table:
        if batch_format == "pyarrow":
            return group_fn(t)
        out = group_fn(t.to_pandas())
        if isinstance(out, pa.Table):  # map_groups tolerates either
            return out
        return pa.Table.from_pandas(out, preserve_index=False)

    if callable(key):
        bucket_fn, merge_fn = key, fn
    else:
        cols = [key] if isinstance(key, str) else list(key)

        def bucket_fn(t: pa.Table) -> np.ndarray:
            return _key_buckets(t, cols, num_partitions)

        def merge_fn(t: pa.Table) -> pa.Table:
            outs = [fn(g) for g in split_by_key(t, cols)]
            return pa.concat_tables(outs, promote_options="default")

    # the blocks of the materialized input, packed by their metadata
    # bytes into split tasks (a second materialize of a materialized
    # input would cost two more Dataset builds, ~14 ms on one CPU)
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    bundles = ds.iter_internal_ref_bundles()
    blocks = [b for bundle in bundles for b in bundle.blocks]
    groups = _pack_groups([meta.size_bytes or 0 for _, meta in blocks])
    refs, rows = exchange_to_bucket_refs(
        [tuple(blocks[i][0] for i in g) for g in groups],
        bucket_fn,
        num_partitions,
        merge_fn=lambda t: merge_fn(t) if t.num_rows else t,
        pre_fn=pre_fn,
    )
    live = [ref for ref, n in zip(refs, rows) if n]
    if live:
        return dataset_from_refs(live)
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
    materialized ``ds``), run by the same two waves at any width.
    Executes ``ds``'s lineage now.  Returns ``[*key, *aliases]``
    columns, one row per group, in no particular order (Ray's
    sort-based aggregate sorts by key); a zero-row input gives one
    zero-row block of that schema.
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
