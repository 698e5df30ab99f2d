"""Frozen copy of the two-wave bucket exchange as it ran before its
waves were packed into fewer tasks: one ``split`` task per input block
(fed by ``to_arrow_refs``), one ``merge`` task per filled bucket, and
``rd.from_arrow_refs`` for the handoff.

It is the differential oracle of ``tests/test_exchange_waves.py`` —
keep it as it is; do not "fix" or speed it up.  Only the raw task path
is kept (the tests stay under the width gate); the helpers the packing
left untouched come from the engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_lib_ray.functions.bucket_tasks import (
    _COMBINE,
    _group_aggregate,
    _materialized_width,
    split_by_key,
    split_table_by_bucket,
)
from ocr_lib_ray.functions.joins import _key_buckets


def frozen_exchange_to_bucket_refs(
    block_refs: list,
    bucket_fn,
    num_partitions: int,
    merge_fn=None,
    pre_fn=None,
):
    import ray
    from ray.data.block import BlockAccessor

    if not block_refs:
        raise ValueError("exchange_to_bucket_refs: no input blocks")

    def arrow(block) -> pa.Table:
        return BlockAccessor.for_block(block).to_arrow()

    if num_partitions == 1:

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


def frozen_exchange_map_groups(
    ds, key, group_fn, num_partitions=None, pre_fn=None, batch_format="pyarrow"
):
    import ray
    import ray.data as rd

    if num_partitions is None:
        ds, num_partitions = _materialized_width(ds)

    def fn(t: pa.Table) -> pa.Table:
        if batch_format == "pyarrow":
            return group_fn(t)
        out = group_fn(t.to_pandas())
        if isinstance(out, pa.Table):
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

    refs, rows = frozen_exchange_to_bucket_refs(
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
        pass
    return rd.from_arrow(empty)


def frozen_exchange_aggregate(ds, key, aggs: list):
    cols = [key] if isinstance(key, str) else list(key)
    combine = [(alias, _COMBINE[op], alias) for _, op, alias in aggs]

    def partial(t: pa.Table) -> pa.Table:
        return _group_aggregate(t, cols, aggs)

    def merge(t: pa.Table) -> pa.Table:
        return _group_aggregate(t if t.num_rows else partial(t), cols, combine)

    ds, num_partitions = _materialized_width(ds)
    return frozen_exchange_map_groups(
        ds,
        lambda t: _key_buckets(t, cols, num_partitions),
        merge,
        num_partitions,
        pre_fn=partial,
    )
