"""The engine's one parquet read, sized to the cluster.

Ray's default read width is never below twice the cluster's CPUs
(``ray.data._internal.util._autodetect_parallelism``), so a file that
fits in fewer blocks is split after it is read
(``ReadParquet->SplitBlocks(k)``), and a split read never fuses with
the map after it: each block then costs a read task plus a map task.
:func:`read_table` keeps Ray's rule with the CPU floor at one block per
CPU, so at one CPU a small file is one block that Ray fuses into its
first map.
"""

from __future__ import annotations

__all__ = ["read_table", "read_width"]


def read_width(size_bytes: int, cpus: int) -> int:
    """Blocks for a read of ``size_bytes`` (in memory) on ``cpus`` CPUs:
    ``max(cpus, min(read_op_min_num_blocks, size_bytes //
    target_min_block_size))`` from the current ``DataContext``.

    Ray's autodetect rule is ``max(min(read_op_min_num_blocks, the same
    byte term), size_bytes // target_max_block_size, 2 x cpus)``; this
    one drops the last two terms for ``cpus``, so it never asks for more
    blocks than Ray would.  The dropped max-block term still holds:
    Ray splits any read block past ``target_max_block_size``.
    """
    from ray.data import DataContext

    ctx = DataContext.get_current()
    by_bytes = int(size_bytes // ctx.target_min_block_size)
    return max(cpus, min(ctx.read_op_min_num_blocks, by_bytes))


def read_table(paths, columns: list | None = None):
    """``ray.data.read_parquet(paths, columns=columns)`` with
    ``override_num_blocks`` from :func:`read_width`, given the cluster's
    CPUs and the read's ``size_bytes()`` estimate (file metadata, no
    execution; unknown counts as 0).

    The read is built with one block per CPU and rebuilt only when the
    byte term asks for more.
    """
    import ray.data as rd

    from ..pool import cluster_cpus

    cpus = cluster_cpus()
    ds = rd.read_parquet(paths, columns=columns, override_num_blocks=cpus)
    width = read_width(ds.size_bytes() or 0, cpus)
    if width > cpus:
        ds = rd.read_parquet(paths, columns=columns, override_num_blocks=width)
    return ds
