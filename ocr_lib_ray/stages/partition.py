"""url-hash partitioning (north_rule scale machinery).

Partition key = ``crc32(url) % P`` — stable across processes, Python
versions and runs (unlike ``hash()``), so the output layout is
deterministic and a resumed job maps every url to the same partition.
Giant pages need no routing here: the kernel parses every page in its
own row, O(page) memory, and the extract stage converts each input
block ``ROWS_PER_SLICE`` rows at a time, so those rows are co-resident.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa


def add_partition_meta(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Append ``partition_id`` (crc32(url) % P)."""
    urls = batch.column("url").to_pylist()
    pids = np.fromiter(
        (zlib.crc32(u.encode("utf-8")) % num_partitions for u in urls),
        dtype=np.int32,
        count=len(urls),
    )
    return batch.append_column("partition_id", pa.array(pids, pa.int32()))
