"""url-hash partitioning (north_rule scale machinery).

Partition key = ``crc32(url) % P`` — stable across processes, Python
versions and runs (unlike ``hash()``), so the output layout is
deterministic and a resumed job maps every url to the same partition.
Giant pages need no routing here: the kernel parses pages past
``giant_threshold`` in bounded chunk passes (tokenize_chunked).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def add_partition_meta(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Append ``partition_id`` (crc32(url) % P) and ``html_len`` columns."""
    urls = batch.column("url").to_pylist()
    pids = np.fromiter(
        (zlib.crc32(u.encode("utf-8")) % num_partitions for u in urls),
        dtype=np.int32,
        count=len(urls),
    )
    # null html counts as length 0 — a null length would yield a null
    # mask in any html_len filter and silently DROP the row (pinned by
    # test_null_html_survives_extract)
    lens = pc.coalesce(pc.binary_length(batch.column("html")), pa.scalar(0, pa.int32()))
    out = batch.append_column("partition_id", pa.array(pids, pa.int32()))
    return out.append_column("html_len", lens.cast(pa.int64()))


def drop_columns(*names):
    """Project away columns (e.g. ``html`` right after parsing) so giant
    payloads don't ride through later stages."""

    def _drop(batch: pa.Table) -> pa.Table:
        keep = [c for c in batch.column_names if c not in names]
        return batch.select(keep)

    return _drop
