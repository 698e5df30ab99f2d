"""``bucket_tasks.exchange_aggregate`` against Ray's
``ds.groupby(key).aggregate(...)``.

Hypothesis tables with int, string and composite keys (null keys
included), value columns whose groups can be all null, every op (Sum,
Min, Max, Count), and inputs of 1, 2 and 40 blocks (exchange widths 1,
2 and the derived 32).  Output order is not part of the contract (Ray's
sort-based aggregate returns rows sorted by key; the exchange returns
them by bucket), so rows compare sorted, and the schemas compare by
column name and type.
"""

from unittest import mock

import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from ray.data.aggregate import Count, Max, Min, Sum

from ocr_lib_ray.functions import bucket_tasks
from ocr_lib_ray.functions.bucket_tasks import exchange_aggregate

#: (column, op, alias) specs and the Ray aggregates they stand for
AGGS = [
    ("v", "sum", "v_sum"),
    ("v", "max", "v_max"),
    ("f", "min", "f_min"),
    ("s", "min", "s_min"),
    ("s", "max", "s_max"),
    (None, "count", "n"),
]
RAY_AGGS = [
    Sum("v", alias_name="v_sum"),
    Max("v", alias_name="v_max"),
    Min("f", alias_name="f_min"),
    Min("s", alias_name="s_min"),
    Max("s", alias_name="s_max"),
    Count(alias_name="n"),
]
KEYS = {"int": "i", "str": "k", "composite": ["i", "k"]}


def _maybe(values):
    return st.one_of(st.none(), values)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=50))

    def col(values):
        return draw(st.lists(_maybe(values), min_size=n, max_size=n))

    return pa.table(
        {
            "i": pa.array(col(st.integers(-2, 4)), pa.int64()),
            "k": pa.array(col(st.sampled_from(["a", "b", "ü", ""])), pa.string()),
            "v": pa.array(col(st.integers(-1000, 1000)), pa.int64()),
            "f": pa.array(col(st.floats(-10, 10)), pa.float64()),
            "s": pa.array(col(st.sampled_from(["x", "yy", "z€", ""])), pa.string()),
        }
    )


def _blocks(t: pa.Table, k: int):
    """``t`` as exactly ``k`` blocks (typed empty ones past its rows)."""
    step = -(-t.num_rows // k) if t.num_rows else 0
    return rd.from_arrow([t.slice(i * step, step) for i in range(k)])


def _rows(ds) -> list:
    return sorted((tuple(r.values()) for r in ds.take_all()), key=repr)


def _fields(schema) -> list:
    return list(zip(schema.names, schema.types))


@pytest.mark.usefixtures("ray_session")
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    tables(),
    st.sampled_from(sorted(KEYS)),
    st.sampled_from([1, 2, 40]),
)
def test_exchange_aggregate_equals_ray_groupby(t, key_kind, blocks):
    key = KEYS[key_kind]
    # Ray's sort shuffle cannot order a null key against a string across
    # sampled blocks: the reference runs on one block
    want = rd.from_arrow(t).groupby(key).aggregate(*RAY_AGGS)
    got = exchange_aggregate(_blocks(t, blocks), key, AGGS)
    assert _rows(got) == _rows(want)
    if t.num_rows:
        ours, ray_fields = _fields(got.schema()), _fields(want.schema())
        assert [n for n, _ in ours] == [n for n, _ in ray_fields]
        # Ray types an output column whose values are all null as null;
        # the exchange keeps the type it aggregates to
        for (name, typ), (_, ray_typ) in zip(ours, ray_fields):
            assert typ == ray_typ or pa.types.is_null(ray_typ), name


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("key_kind", sorted(KEYS))
@pytest.mark.parametrize("blocks", [1, 2, 40])
def test_exchange_aggregate_zero_rows_keeps_the_result_schema(key_kind, blocks):
    """Ray's aggregate of a zero-row input has no rows and no schema;
    the exchange's is one zero-row block typed as Ray types the
    aggregate of non-empty input."""
    key = KEYS[key_kind]
    t = pa.table(
        {
            "i": pa.array([1, 2], pa.int64()),
            "k": ["a", "b"],
            "v": pa.array([3, 4], pa.int64()),
            "f": [0.5, 1.5],
            "s": ["x", "y"],
        }
    )
    typed = rd.from_arrow(t).groupby(key).aggregate(*RAY_AGGS).schema()
    assert rd.from_arrow(t.slice(0, 0)).groupby(key).aggregate(*RAY_AGGS).count() == 0
    got = exchange_aggregate(_blocks(t.slice(0, 0), blocks), key, AGGS)
    assert got.count() == 0
    assert _fields(got.schema()) == _fields(typed)


@pytest.mark.usefixtures("ray_session")
def test_exchange_aggregate_width():
    """The width is min(derive_num_partitions, blocks): at most one
    bucket per input block."""
    seen = []
    real = bucket_tasks.exchange_map_groups

    def spy(ds, key, group_fn, num_partitions=None, **kw):
        seen.append(num_partitions)
        return real(ds, key, group_fn, num_partitions, **kw)

    t = pa.table({"i": pa.array(range(100), pa.int64()), "v": pa.array(range(100), pa.int64())})
    with mock.patch.object(bucket_tasks, "exchange_map_groups", spy):
        for blocks in (1, 2, 40):
            out = exchange_aggregate(_blocks(t, blocks), "i", [("v", "sum", "v")])
            assert out.count() == 100
    assert seen == [1, 2, 32]
