"""The engine's one parquet read (``sources.tables.read_table``).

* Its width is ``max(C, min(read_op_min_num_blocks, S //
  target_min_block_size))`` for ``C`` cluster CPUs and an ``S``-byte
  read: ``C`` for a tiny read, the byte term for a larger one, capped
  at ``read_op_min_num_blocks``; the read is rebuilt only when the
  byte term passes ``C``.
* It never asks for more blocks than Ray's own autodetect rule.
* ``pool.cluster_cpus`` is 1 when Ray has not started or has no CPU.
* At the 4-CPU test session a ``_docs`` read has at most 4 blocks, and
  ``doc_stats`` / ``dedup_exact`` return the rows they return over
  Ray's default-width read.
"""

from unittest import mock

import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st
from ray.data import DataContext
from ray.data._internal.util import _autodetect_parallelism

from ocr_lib_ray import pool
from ocr_lib_ray.sources import tables

MIB = 1024 * 1024

#: (cluster CPUs, read bytes, blocks) at Ray's defaults
#: (read_op_min_num_blocks 200, target_min_block_size 1 MiB)
CASES = [
    (1, 0, 1),  # unknown size
    (1, 256 * 1024, 1),  # tiny: one block per CPU
    (4, 256 * 1024, 4),
    (4, 4 * MIB, 4),  # byte term equal to C: no rebuild
    (1, 5 * MIB + 1, 5),  # byte-bound: the byte term
    (4, 47 * MIB, 47),
    (32, 20 * MIB, 32),
    (1, 10_000 * MIB, 200),  # capped at read_op_min_num_blocks
    (300, 10_000 * MIB, 300),  # more CPUs than the cap: one block each
]


class _FakeRead:
    def __init__(self, size):
        self.size = size

    def size_bytes(self):
        return self.size


def _not_started():
    raise ray.exceptions.RaySystemError("Ray has not been started yet.")


@pytest.mark.parametrize(
    "resources, want",
    [
        (lambda: {"CPU": 4.0}, 4),
        (lambda: {"CPU": 0.5}, 1),
        (lambda: {}, 1),  # no CPU resource
        (_not_started, 1),
    ],
)
def test_cluster_cpus_one_fallback(resources, want):
    with mock.patch.object(ray, "cluster_resources", resources):
        assert pool.cluster_cpus() == want
        assert pool.autoscale_pool() == (1, max(2, want))


@pytest.mark.parametrize("cpus, size, want", CASES)
def test_read_width_table(cpus, size, want):
    built = []

    def read_parquet(paths, columns=None, override_num_blocks=None):
        built.append(override_num_blocks)
        return _FakeRead(size or None)

    with mock.patch.object(
        ray, "cluster_resources", lambda: {"CPU": cpus}
    ), mock.patch("ray.data.read_parquet", read_parquet):
        tables.read_table("any.parquet", ["a"])
    # built at C blocks, rebuilt once only when the byte term passes C
    assert built == ([cpus] if want == cpus else [cpus, want])
    assert tables.read_width(size, cpus) == want


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=300, deadline=None)
@given(
    cpus=st.integers(1, 512),
    size=st.integers(0, 2**40),
    min_blocks=st.sampled_from([1, 8, 200]),
)
def test_read_width_never_passes_rays_autodetect(cpus, size, min_blocks):
    ctx = DataContext.get_current()
    old = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = min_blocks
    try:
        ray_width, _, _ = _autodetect_parallelism(
            -1, ctx.target_max_block_size, ctx, avail_cpus=cpus, mem_size=size
        )
        assert tables.read_width(size, cpus) <= ray_width
    finally:
        ctx.read_op_min_num_blocks = old


@pytest.mark.usefixtures("ray_session")
def test_docs_read_is_cluster_sized_and_rows_hold(sf_small):
    import ray.data as rd

    import __ray_entry__ as entry

    cpus = int(ray.cluster_resources()["CPU"])
    assert entry._docs(sf_small).materialize().num_blocks() <= cpus

    def default_width(sf_dir, name, columns=None):
        return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)

    def rows(query):
        return sorted(
            tuple(sorted(r.items())) for r in query(sf_small).take_all()
        )

    for query in (entry._q_doc_stats, entry._q_dedup_exact):
        got = rows(query)
        with mock.patch.object(entry, "_table", default_width):
            assert rows(query) == got
