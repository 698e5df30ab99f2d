"""The packed exchange waves against the one-task-per-block,
one-task-per-bucket exchange they replaced (``tests/frozen_exchange.py``).

* ``exchange_map_groups`` and ``exchange_aggregate`` return the same
  blocks, rows in the same order, on hypothesis tables: int, string
  and composite keys, bucket-fn keys, pandas group fns, a ``pre_fn``,
  zero-row and schema-less blocks, widths 1 to 16, and byte targets
  small enough that one bucket outgrows them.
* Ray's timeline shows ``min(blocks, CPUs)`` split tasks,
  ``min(filled buckets, CPUs)`` merge tasks and one metadata task per
  merge, and no packed group passes ``DataContext.target_max_block_size``
  unless it is one block or one bucket.
* ``_pack_groups`` splits items into runs of about equal bytes, one per
  CPU: a hot item does not share its task with its neighbours.
* ``dataset_from_refs`` builds the Dataset ``rd.from_arrow_refs``
  builds.
"""

import contextlib
import time
from collections import Counter
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from ray.data import DataContext

import frozen_exchange as fz
from ocr_lib_ray.functions import bucket_tasks

AGGS = [("v", "sum", "v_sum"), ("s", "max", "s_max"), (None, "count", "n")]
KEYS = {"int": "i", "str": "s", "composite": ["i", "s"]}
#: byte targets: Ray's default, a few rows' worth, and below any bucket
TARGETS = [None, 600, 1]


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=60))

    def col(values):
        return draw(st.lists(st.one_of(st.none(), values), min_size=n, max_size=n))

    return pa.table(
        {
            "i": pa.array(col(st.integers(-3, 5)), pa.int64()),
            "s": pa.array(col(st.sampled_from(["a", "b", "ü", ""])), pa.string()),
            "v": pa.array(col(st.integers(-1000, 1000)), pa.int64()),
        }
    )


def _blocks(t: pa.Table, k: int, schemaless: bool):
    """``t`` as ``k`` blocks (typed empty ones past its rows), with a
    column-less zero-row block in front when ``schemaless``."""
    step = -(-t.num_rows // k) if t.num_rows else 0
    tbls = [t.slice(i * step, step) for i in range(k)]
    return rd.from_arrow(([pa.table({})] if schemaless else []) + tbls)


def _assert_same(got, want):
    """The same blocks in the same order, each with the same rows in
    the same order."""
    got, want = ray.get(got.to_arrow_refs()), ray.get(want.to_arrow_refs())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.equals(w), (g.to_pylist(), w.to_pylist())


def _with_target(target):
    """``DataContext.target_max_block_size`` set to ``target`` (None:
    left at Ray's default), restored on exit."""
    if target is None:
        return contextlib.nullcontext()
    return mock.patch.object(DataContext.get_current(), "target_max_block_size", target)


def _group_fn(batch_format):
    """A group fn whose output shows its input's row order: pandas
    groups come back numbered, Arrow groups as a ``group_by`` with the
    values of each key listed in input order."""
    if batch_format == "pandas":
        # float columns: pandas types an int column with nulls as float
        return lambda df: df.astype({"i": "float64", "v": "float64"}).assign(
            pos=range(len(df))
        )
    return lambda t: t.group_by("s", use_threads=False).aggregate(
        [("v", "list"), ("i", "count")]
    )


@pytest.mark.usefixtures("ray_session")
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    tables(),
    st.sampled_from([*sorted(KEYS), "bucket_fn"]),
    st.sampled_from([1, 3, 9]),
    st.sampled_from([1, 2, 7, 16]),
    st.sampled_from(["pyarrow", "pandas"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from(TARGETS),
)
def test_map_groups_equals_frozen_exchange(
    t, key_kind, blocks, width, batch_format, pre, schemaless, target
):
    if key_kind == "bucket_fn":

        def key(tbl, width=width):
            i = tbl.column("i").fill_null(0).to_numpy(zero_copy_only=False)
            return np.abs(i) % width

    else:
        key = KEYS[key_kind]
    pre_fn = (lambda tbl: tbl.filter(pc.is_valid(tbl.column("v")))) if pre else None
    fn = _group_fn(batch_format)
    kw = {"pre_fn": pre_fn, "batch_format": batch_format}
    ds = _blocks(t, blocks, schemaless).materialize()
    with _with_target(target):
        got = bucket_tasks.exchange_map_groups(ds, key, fn, width, **kw)
        want = fz.frozen_exchange_map_groups(ds, key, fn, width, **kw)
        _assert_same(got, want)


@pytest.mark.usefixtures("ray_session")
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    tables(),
    st.sampled_from(sorted(KEYS)),
    st.sampled_from([1, 2, 9, 40]),
    st.sampled_from(TARGETS),
)
def test_aggregate_equals_frozen_exchange(t, key_kind, blocks, target):
    ds = _blocks(t, blocks, False).materialize()
    with _with_target(target):
        got = bucket_tasks.exchange_aggregate(ds, KEYS[key_kind], AGGS)
        want = fz.frozen_exchange_aggregate(ds, KEYS[key_kind], AGGS)
        _assert_same(got, want)


def _tasks_since(t0: float, expect_any: str) -> Counter:
    """Names of the Ray tasks that started after ``t0``, read from
    ``ray.timeline()`` once its count stops growing (task events reach
    the GCS about once a second)."""
    last, deadline = None, time.time() + 30
    while time.time() < deadline:
        time.sleep(1.5)
        names = Counter(
            e["name"].rsplit(".", 1)[-1]
            for e in ray.timeline()
            if str(e.get("cat", "")).startswith("task::")
            and e["ts"] >= t0 * 1e6
            and ".bucket_tasks." in e["name"]
        )
        if names == last and names[expect_any]:
            return names
        last = names
    raise AssertionError(f"timeline never settled: {last}")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("filled", [1, 3, 6])
def test_waves_start_one_task_per_cpu_for_small_blocks(filled):
    """N small blocks and k filled buckets: min(N, CPUs) splits,
    min(k, CPUs) merges and one metadata task per merge for the
    handoff."""
    cpus = int(ray.cluster_resources()["CPU"])
    n_blocks, P = 10, 8
    t = pa.table({"b": pa.array([i % filled for i in range(40)], pa.int64())})
    ds = rd.from_arrow([t.slice(i * 4, 4) for i in range(n_blocks)]).materialize()
    t0 = time.time()
    out = bucket_tasks.exchange_map_groups(
        ds, lambda tbl: tbl.column("b").to_numpy(), lambda g: g, P
    )
    assert out.count() == 40 and out.num_blocks() == filled
    names = _tasks_since(t0, "block_metadata")
    assert names["split"] == min(n_blocks, cpus)
    assert names["merge"] == min(filled, cpus)
    assert names["block_metadata"] == names["merge"]


@pytest.mark.usefixtures("ray_session")
def test_packed_groups_hold_at_most_one_block_target():
    """With the block target lowered to 2.5 blocks' bytes, every split
    and merge group stays under it unless it holds one block or one
    bucket, and the timeline shows one task per group."""
    cpus = int(ray.cluster_resources()["CPU"])
    n_blocks, P = 12, 8
    t = pa.table(
        {
            "b": pa.array([i % P if i % 3 else 0 for i in range(240)], pa.int64()),
            "pad": pa.array(["x" * 40] * 240),
        }
    )
    ds = rd.from_arrow([t.slice(i * 20, 20) for i in range(n_blocks)]).materialize()
    target = int(2.5 * t.slice(0, 20).nbytes)
    seen = []
    real = bucket_tasks._pack_groups

    def spy(sizes):
        groups = real(sizes)
        seen.append((list(sizes), groups))
        return groups

    with _with_target(target), mock.patch.object(bucket_tasks, "_pack_groups", spy):
        t0 = time.time()
        out = bucket_tasks.exchange_map_groups(
            ds, lambda tbl: tbl.column("b").to_numpy(), lambda g: g, P
        )
        assert out.count() == 240
    assert DataContext.get_current().target_max_block_size != target
    (split_sizes, split_groups), (merge_sizes, merge_groups) = seen
    # bucket 0 takes every third row, over 4 blocks' bytes: alone
    assert max(merge_sizes) > target
    for sizes, groups in seen:
        assert [i for g in groups for i in g] == list(range(len(sizes)))
        if len(sizes) <= cpus:
            assert groups == [[i] for i in range(len(sizes))]
        for g in groups:
            assert len(g) == 1 or sum(sizes[i] for i in g) <= target, (sizes, g)
    assert len(split_groups) > min(n_blocks, cpus)
    names = _tasks_since(t0, "block_metadata")
    assert names["split"] == len(split_groups)
    assert names["merge"] == len(merge_groups)


@pytest.mark.parametrize(
    "sizes, cpus, want",
    [
        # equal items: one run per CPU
        ([10] * 8, 4, [[0, 1], [2, 3], [4, 5], [6, 7]]),
        ([10] * 10, 4, [[0, 1], [2, 3, 4], [5, 6], [7, 8, 9]]),
        # no more items than CPUs: one task each, whatever the bytes
        ([1, 100, 1], 4, [[0], [1], [2]]),
        # a hot item (half the bytes) runs alone; the rest share the
        # other CPUs by bytes, not by count
        (
            [1] * 4 + [40] + [1] * 36,
            4,
            [[0, 1, 2, 3], [4], list(range(5, 21)), list(range(21, 41))],
        ),
        ([40] + [1] * 8, 4, [[0], [1, 2, 3, 4, 5, 6, 7, 8]]),
        # no byte counts: runs of equal count
        ([0] * 6, 2, [[0, 1, 2], [3, 4, 5]]),
    ],
)
def test_pack_groups_balances_bytes_per_cpu(sizes, cpus, want):
    with mock.patch.object(ray, "cluster_resources", lambda: {"CPU": cpus}):
        assert bucket_tasks._pack_groups(sizes) == want


@pytest.mark.usefixtures("ray_session")
def test_dataset_from_refs_matches_from_arrow_refs():
    """The one-metadata-task handoff builds what ``rd.from_arrow_refs``
    builds: schema, row count, block count and rows."""
    tbls = [
        pa.table({"a": pa.array([1, 2], pa.int64()), "s": ["x", "y"]}),
        pa.table({"a": pa.array([], pa.int64()), "s": pa.array([], pa.string())}),
        pa.table({"a": pa.array([3], pa.int64()), "s": ["ü"]}),
    ]

    @ray.remote(num_returns=2)
    def two(a, b):
        return a, b

    # refs from two tasks and the driver, interleaved: each metadata
    # task's results must land on the right blocks
    made = two.remote(tbls[0], tbls[2])
    refs = [made[0], ray.put(tbls[1]), made[1], ray.put(tbls[0])]
    got = bucket_tasks.dataset_from_refs(refs)
    want = rd.from_arrow_refs(refs)
    assert got.schema() == want.schema()
    assert got.count() == want.count() == 5
    assert got.num_blocks() == want.num_blocks() == 4
    assert [
        m.num_rows for b in got.iter_internal_ref_bundles() for _, m in b.blocks
    ] == [2, 0, 1, 2]
    assert got.take_all() == want.take_all()
    assert got.map_batches(lambda b: b, batch_format="pyarrow").take_all() == want.take_all()
