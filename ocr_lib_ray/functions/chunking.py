"""Token-bounded document chunking (training-data op): split each
document into fixed-size token windows with overlap — the map step
before context-window packing in an LLM data pipeline.

Chunk boundaries are a pure function of the normalized token list:
chunk i covers tokens [i*stride, i*stride + size), stride = size -
overlap, last chunk keeps the tail (never empty, never duplicated).
Row-wise map, no shuffle; output one row per chunk.
"""

from __future__ import annotations

import pyarrow as pa

from .joins import run_bucket_groups
from .text_stats import normalize_expr


def chunk_spans(n_tokens: int, size: int, overlap: int):
    """[(start, end)] token windows; deterministic, tail-preserving."""
    if n_tokens <= 0:
        return []
    stride = size - overlap
    assert stride > 0, "overlap must be smaller than size"
    spans = []
    start = 0
    while True:
        end = min(start + size, n_tokens)
        spans.append((start, end))
        if end >= n_tokens:
            return spans
        start += stride


def chunk_documents_batch(
    batch: pa.Table, size: int = 32, overlap: int = 8, id_col: str = "doc_id"
) -> pa.Table:
    ids = batch.column(id_col).to_pylist()
    norm = normalize_expr(batch.column("text")).to_pylist()
    out_id, out_chunk, out_text, out_n = [], [], [], []
    for doc_id, t in zip(ids, norm):
        toks = t.split(" ") if t else []
        for ci, (s, e) in enumerate(chunk_spans(len(toks), size, overlap)):
            out_id.append(doc_id)
            out_chunk.append(ci)
            out_text.append(" ".join(toks[s:e]))
            out_n.append(e - s)
    id_type = batch.schema.field(id_col).type  # int64 or string doc keys
    return pa.Table.from_arrays(
        [
            pa.array(out_id, id_type),
            pa.array(out_chunk, pa.int32()),
            pa.array(out_text, pa.string()),
            pa.array(out_n, pa.int64()),
        ],
        names=["doc_id", "chunk_id", "chunk_text", "n_tokens"],
    )


def chunk_documents(docs_ds, size: int = 32, overlap: int = 8):
    return docs_ds.map_batches(
        lambda b: chunk_documents_batch(b, size, overlap),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


#: target chunk rows per packing group — each (partition_id) group
#: materializes in ONE exchange merge task, so this bounds per-task memory.
PACK_ROWS_PER_PARTITION = 100_000


def pack_partition(doc_id, num_partitions: int) -> int:
    """Stable pack-partition key: md5 lower 64 bits of str(doc_id),
    little-endian — byte-identical to DuckDB's ``md5_number_lower``,
    so the SQL oracle reproduces the partitioning exactly."""
    import hashlib

    digest = hashlib.md5(str(doc_id).encode("utf-8")).digest()
    return int.from_bytes(digest[8:], "little") % num_partitions


def pack_sequences(
    chunks_ds,
    budget: int,
    num_partitions: int | None = None,
    approx_rows: int | None = None,
):
    """Greedy first-fit packing of chunks into token-budgeted training
    sequences — deterministic and distributed.

    Packing is inherently order-dependent, so the order is pinned:
    chunks are hash-partitioned by doc_id (md5 lower 64 bits % P — a
    stable hash DuckDB can reproduce via md5_number_lower, making the
    whole operator SQL-oracle-able; sequences never straddle
    partitions, so a resumed/re-run job packs identically), and within
    each partition packed in (doc_id, chunk_id) order.
    Output: one row per sequence
    (partition_id, seq_id, n_chunks, total_tokens ≤ budget).

    ``num_partitions=None`` derives P from the chunk count (min 16,
    ~``PACK_ROWS_PER_PARTITION`` rows per group) so no group exceeds one
    worker's memory at any corpus size; composed pipelines thread an
    explicit corpus-scaled P instead (``ExtractConfig.num_partitions``)
    to avoid the counting pass.  P is part of the output contract (a
    sequence never straddles partitions), so re-runs must reuse the same
    P — but chunk COVERAGE is P-invariant: every chunk lands in exactly
    one sequence at any P (tested).
    """
    import pandas as pd

    if num_partitions is None:
        if approx_rows is None:
            from .dedup import _rows_estimate

            approx_rows = _rows_estimate(chunks_ds)  # metadata-only when possible
        num_partitions = max(16, -(-int(approx_rows) // PACK_ROWS_PER_PARTITION))

    def add_pid(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        pids = [pack_partition(i, num_partitions) for i in ids]
        return batch.append_column("partition_id", pa.array(pids, pa.int32()))

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
        seq_id, fill, n_chunks = 0, 0, 0
        out = []
        for n in g["n_tokens"]:
            n = min(int(n), budget)
            if fill + n > budget and n_chunks > 0:
                out.append((seq_id, n_chunks, fill))
                seq_id, fill, n_chunks = seq_id + 1, 0, 0
            fill += n
            n_chunks += 1
        if n_chunks:
            out.append((seq_id, n_chunks, fill))
        df = pd.DataFrame(out, columns=["seq_id", "n_chunks", "total_tokens"])
        df.insert(0, "partition_id", int(g["partition_id"].iloc[0]))
        return df

    return run_bucket_groups(
        chunks_ds.map_batches(add_pid, batch_format="pyarrow", zero_copy_batch=True),
        num_partitions,
        pack,
        bucket_col_name="partition_id",
    )
