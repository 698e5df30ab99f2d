"""Similarity search over embedding columns (training-data ops).

* ``knn_brute`` — exact top-k cosine: the query matrix is broadcast ONCE
  (``ray.put``), each corpus batch computes a numpy matmul and emits its
  LOCAL top-k per query, and a final tiny groupby reduces to the global
  top-k.  The all-pairs work is fully distributed; the reduce handles
  only n_queries × k × n_batches candidate rows.
* ``knn_lsh`` — LSH-bucketed ANN (random-hyperplane signs): corpus and
  queries hash to buckets; only same-bucket candidates are scored.  The
  scale path (probed recall vs brute force is tested).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .bucket_tasks import exchange_map_groups
from .joins import derive_num_partitions


def _as_matrix(col) -> np.ndarray:
    """Embedding list column → (n, d) float64 matrix — ZERO-COPY flatten
    of the Arrow values buffer when the column is a null-free uniform-
    width list (the embeddings-table contract), falling back to the
    python-object path otherwise.  float32→float64 via np.astype is
    value-exact, so both paths are bit-identical."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    if arr.null_count == 0 and (pa.types.is_list(t) or pa.types.is_large_list(t)):
        offs = np.asarray(arr.offsets.to_numpy(zero_copy_only=False), np.int64)
        widths = np.diff(offs)
        if len(widths) and (widths == widths[0]).all() and widths[0] > 0:
            vals = arr.values.to_numpy(zero_copy_only=False)
            return np.asarray(vals[offs[0] : offs[-1]], dtype=np.float64).reshape(
                len(widths), int(widths[0])
            )
    if arr.null_count == 0 and pa.types.is_fixed_size_list(t):
        vals = np.asarray(arr.values.to_numpy(zero_copy_only=False), np.float64)
        return vals.reshape(len(arr), t.list_size)
    return np.asarray(arr.to_pylist(), dtype=np.float64)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


_EMPTY_TOPK = pa.Table.from_arrays(
    [pa.array([], pa.int64()), pa.array([], pa.int64()), pa.array([], pa.float64())],
    names=["query_id", "vec_id", "sim"],
)


def local_topk_batch(batch: pa.Table, q_ref, k: int) -> pa.Table:
    """Corpus batch → local top-k rows (query_id, vec_id, sim)."""
    import ray

    if batch.num_rows == 0:  # empty batches occur downstream of filters
        return _EMPTY_TOPK
    q_ids, q_mat = ray.get(q_ref)  # normalized query matrix, broadcast once
    ids = np.asarray(batch.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
    m = _normalize_rows(_as_matrix(batch.column("embedding")))
    sims = q_mat @ m.T  # (nq, batch)
    k_eff = min(k, sims.shape[1])
    out_q, out_v, out_s = [], [], []
    for qi in range(sims.shape[0]):
        idx = np.argpartition(-sims[qi], k_eff - 1)[:k_eff]
        for j in idx:
            out_q.append(int(q_ids[qi]))
            out_v.append(int(ids[j]))
            out_s.append(round(float(sims[qi, j]), 9))
    return pa.Table.from_arrays(
        [
            pa.array(out_q, pa.int64()),
            pa.array(out_v, pa.int64()),
            pa.array(out_s, pa.float64()),
        ],
        names=["query_id", "vec_id", "sim"],
    )


def driver_topk_per_query(local_ds, k, sort_cols, ascending, empty_tbl, finish=None):
    """Bounded-final driver reduce of per-block top-k partials: the
    candidate set is <= n_queries x k x n_blocks rows by construction
    (each block emits at most k per query), so the per-query groupby
    exchange the Dataset path paid was pure fixed all-to-all latency
    (the repo's bounded-final driver-reduce rule).  ``sort_cols`` /
    ``ascending`` must replicate the group fn's ordering exactly —
    a global mergesort then per-query head(k) is identical to the
    per-group sort+head.  Returns a one-block Dataset typed by
    ``empty_tbl``'s schema."""
    import ray.data as rd

    rows = local_ds.take_all()
    if not rows:
        return rd.from_arrow(empty_tbl)
    df = pd.DataFrame(rows).sort_values(sort_cols, ascending=ascending, kind="mergesort")
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    if finish is not None:
        df = finish(df)
    tbl = pa.Table.from_pandas(
        df[empty_tbl.column_names], preserve_index=False
    ).cast(empty_tbl.schema)
    return rd.from_arrow(tbl)


def knn_brute(emb_ds, query_ids, k: int = 5, exclude_self: bool = True):
    """Exact cosine top-k for ``query_ids`` over the whole embedding table.

    Returns Dataset (query_id, vec_id, sim).  The query side is collected
    on the driver (it is the SMALL side by definition) and broadcast.
    """
    import pyarrow.compute as pc
    import ray

    qset = pa.array(sorted(query_ids), pa.int64())
    q_tbl = pa.concat_tables(
        [
            b
            for b in emb_ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column("vec_id"), value_set=qset)),
                batch_format="pyarrow",
            ).iter_batches(batch_format="pyarrow")
        ]
    )
    q_ids = np.asarray(q_tbl.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.argsort(q_ids)
    q_mat = _normalize_rows(_as_matrix(q_tbl.column("embedding")))[order]
    q_ids = q_ids[order]
    q_ref = ray.put((q_ids, q_mat))

    corpus = emb_ds
    if exclude_self:
        corpus = corpus.map_batches(
            lambda t: t.filter(
                pc.invert(pc.is_in(t.column("vec_id"), value_set=qset))
            ),
            batch_format="pyarrow",
        )
    local = corpus.map_batches(
        lambda b: local_topk_batch(b, q_ref, k), batch_format="pyarrow"
    )
    return driver_topk_per_query(
        local,
        k,
        ["query_id", "sim", "vec_id"],
        [True, False, True],
        _EMPTY_TOPK,
        finish=lambda df: df.assign(sim=df["sim"].round(6)),
    )


# --- LSH-bucketed ANN ------------------------------------------------------


class HyperplaneLSH:
    """Random-hyperplane sign buckets (stateful: planes built per actor).

    ``n_tables`` independent plane sets (the standard multi-table LSH
    construction): a pair missed by one table can collide in another —
    recall 1-(1-p)^T instead of p.
    """

    def __init__(self, dim: int, n_planes: int = 8, seed: int = 42, n_tables: int = 1):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, n_planes, dim))
        self.n_tables = n_tables

    def bucket(self, m: np.ndarray, table: int = 0) -> np.ndarray:
        signs = (m @ self.planes[table].T) > 0
        return (signs * (1 << np.arange(signs.shape[1]))).sum(axis=1).astype(np.int64)


def knn_lsh(
    emb_ds,
    query_ids,
    k: int = 5,
    n_planes: int = 6,
    dim: int = 64,
    seed: int = 42,
    probes: int = 1,
    n_tables: int = 4,
):
    """ANN: score only corpus vectors sharing an LSH bucket with the
    query in at least one of ``n_tables`` independent tables.

    Recall knobs, both standard: multi-probe (``probes=r`` also
    searches every bucket within hamming distance r of the query's, per
    table) and multi-table (a pair missed by one plane set can collide
    in another).  Recall < 1 by construction; measured against
    knn_brute in tests.
    """
    import pyarrow.compute as pc
    import ray

    lsh = HyperplaneLSH(dim, n_planes, seed, n_tables=n_tables)
    qset = pa.array(sorted(query_ids), pa.int64())
    q_tbl = pa.concat_tables(
        list(
            emb_ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column("vec_id"), value_set=qset)),
                batch_format="pyarrow",
            ).iter_batches(batch_format="pyarrow")
        )
    )
    q_ids = np.asarray(q_tbl.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
    q_mat = _normalize_rows(_as_matrix(q_tbl.column("embedding")))
    # per table: queries grouped by (probed) bucket, broadcast once
    tables: list = []
    for t in range(n_tables):
        q_buckets = lsh.bucket(q_mat, t)
        by_bucket: dict = {}
        from itertools import combinations

        for qid, qv, qb in zip(q_ids, q_mat, q_buckets):
            probe_buckets = {int(qb)}
            for r in range(1, min(probes, n_planes) + 1):
                for bits in combinations(range(n_planes), r):
                    flip = 0
                    for pbit in bits:
                        flip |= 1 << pbit
                    probe_buckets.add(int(qb) ^ flip)
            for pb in probe_buckets:
                by_bucket.setdefault(pb, ([], []))
                by_bucket[pb][0].append(int(qid))
                by_bucket[pb][1].append(qv)
        tables.append({b: (np.array(i), np.stack(v)) for b, (i, v) in by_bucket.items()})
    q_ref = ray.put(tables)

    def _bucket_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_TOPK
        qtables = ray.get(q_ref)
        ids = np.asarray(batch.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
        keep = ~np.isin(ids, np.asarray(qset))
        m = _normalize_rows(_as_matrix(batch.column("embedding")))
        seen: set = set()  # (query, vec) scored once across tables
        out_q, out_v, out_s = [], [], []
        for t, qmap in enumerate(qtables):
            buckets = lsh.bucket(m, t)
            for b, (bq_ids, bq_mat) in qmap.items():
                sel = keep & (buckets == b)
                if not sel.any():
                    continue
                sims = bq_mat @ m[sel].T
                sub_ids = ids[sel]
                k_eff = min(k, sims.shape[1])
                for qi in range(sims.shape[0]):
                    idx = np.argpartition(-sims[qi], k_eff - 1)[:k_eff]
                    for j in idx:
                        key = (int(bq_ids[qi]), int(sub_ids[j]))
                        if key in seen:
                            continue
                        seen.add(key)
                        out_q.append(key[0])
                        out_v.append(key[1])
                        out_s.append(round(float(sims[qi, j]), 9))
        return pa.Table.from_arrays(
            [
                pa.array(out_q, pa.int64()),
                pa.array(out_v, pa.int64()),
                pa.array(out_s, pa.float64()),
            ],
            names=["query_id", "vec_id", "sim"],
        )

    local = emb_ds.map_batches(_bucket_topk, batch_format="pyarrow")
    return driver_topk_per_query(
        local,
        k,
        ["query_id", "sim", "vec_id"],
        [True, False, True],
        _EMPTY_TOPK,
        finish=lambda df: df.assign(sim=df["sim"].round(6)),
    )


#: target rows per (table, bucket) group for cosine LSH — the in-group
#: verify is O(k²) sims, so 2k rows ⇒ ≤ 4M-entry sim matrix per task.
TARGET_BUCKET_ROWS = 2000


def derive_n_planes(emb_ds, approx_rows=None, target_bucket_rows: int = TARGET_BUCKET_ROWS) -> int:
    """Scale-safe plane count: 2^n_planes buckets per table sized so the
    EXPECTED bucket holds ~``target_bucket_rows`` vectors.  Unlike the
    minhash ``group_buckets`` coarsening, splitting a hyperplane bucket
    by a secondary hash would LOSE pairs, so the bucket count must come
    from the plane count itself; recall loss from more planes is
    compensated by ``n_tables`` (standard multi-table LSH tradeoff).
    """
    import math

    if approx_rows is None:
        from .dedup import _rows_estimate

        approx_rows = _rows_estimate(emb_ds)  # metadata-only when possible
    return max(4, math.ceil(math.log2(max(int(approx_rows), 1) / target_bucket_rows + 1)))


# --- IVF (inverted-file) ANN ----------------------------------------------


def build_ivf_centroids(
    emb_ds,
    n_centroids: int = 64,
    sample_rows: int = 10_000,
    iters: int = 10,
):
    """Deterministic spherical k-means centroids from a corpus sample —
    the IVF coarse quantizer, built ONCE on the driver and broadcast.

    Determinism: the sample is the first ``sample_rows`` rows in dataset
    order (stable for parquet reads), init picks evenly spaced sample
    rows after a vec_id sort, and Lloyd iterations are fixed-count numpy
    — no RNG, same centroids on every run/machine.  At corpus scale the
    sample is a bounded limit() read, never a full pass.
    """
    tbl = pa.concat_tables(
        list(emb_ds.limit(sample_rows).iter_batches(batch_format="pyarrow"))
    )
    ids = np.asarray(tbl.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.argsort(ids)
    m = _normalize_rows(_as_matrix(tbl.column("embedding")))[order]
    n = m.shape[0]
    k = min(n_centroids, n)
    cent = m[np.linspace(0, n - 1, k).astype(np.int64)].copy()
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(k):
            sel = assign == c
            if sel.any():
                cent[c] = m[sel].mean(axis=0)
        cent = _normalize_rows(cent)
    return cent


def knn_ivf(
    emb_ds,
    query_ids,
    k: int = 5,
    n_centroids: int = 64,
    nprobe: int = 8,
    sample_rows: int = 10_000,
):
    """IVF ANN: corpus vectors are assigned to their nearest centroid
    cell per batch (one matmul); each query scores ONLY the vectors in
    its ``nprobe`` nearest cells.  Centroids + queries ship once
    (``ray.put``); per-batch work is two matmuls; the reduce handles
    n_queries × k × n_batches candidate rows (same shape as knn_brute).
    Scanned fraction ≈ nprobe / n_centroids; recall < 1 by construction,
    measured against knn_brute in tests.
    """
    import pyarrow.compute as pc
    import ray

    cent = build_ivf_centroids(emb_ds, n_centroids, sample_rows)
    qset = pa.array(sorted(query_ids), pa.int64())
    q_tbl = pa.concat_tables(
        list(
            emb_ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column("vec_id"), value_set=qset)),
                batch_format="pyarrow",
            ).iter_batches(batch_format="pyarrow")
        )
    )
    q_ids = np.asarray(q_tbl.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
    q_mat = _normalize_rows(_as_matrix(q_tbl.column("embedding")))
    n_cells = cent.shape[0]
    probe = np.argsort(-(q_mat @ cent.T), axis=1)[:, : min(nprobe, n_cells)]
    ref = ray.put((cent, q_ids, q_mat, probe))

    def _cell_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_TOPK
        cent_, q_ids_, q_mat_, probe_ = ray.get(ref)
        ids = np.asarray(batch.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
        keep = ~np.isin(ids, q_ids_)
        m = _normalize_rows(_as_matrix(batch.column("embedding")))
        cells = (m @ cent_.T).argmax(axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids_)):
            sel = keep & np.isin(cells, probe_[qi])
            if not sel.any():
                continue
            sims = q_mat_[qi] @ m[sel].T
            sub_ids = ids[sel]
            k_eff = min(k, sims.shape[0])
            idx = np.argpartition(-sims, k_eff - 1)[:k_eff]
            for j in idx:
                out_q.append(int(q_ids_[qi]))
                out_v.append(int(sub_ids[j]))
                out_s.append(round(float(sims[j]), 9))
        return pa.Table.from_arrays(
            [
                pa.array(out_q, pa.int64()),
                pa.array(out_v, pa.int64()),
                pa.array(out_s, pa.float64()),
            ],
            names=["query_id", "vec_id", "sim"],
        )

    local = emb_ds.map_batches(_cell_topk, batch_format="pyarrow")
    return driver_topk_per_query(
        local,
        k,
        ["query_id", "sim", "vec_id"],
        [True, False, True],
        _EMPTY_TOPK,
        finish=lambda df: df.assign(sim=df["sim"].round(6)),
    )


def cosine_dup_pairs_lsh(
    emb_ds,
    threshold: float = 0.95,
    n_planes: int | None = None,
    dim: int = 64,
    seed: int = 42,
    n_tables: int = 4,
    approx_rows: int | None = None,
):
    """Embedding near-dup at scale: LSH-bucket the corpus per table
    (hyperplane signs, ``n_tables`` independent plane sets), exact
    cosine verification INSIDE each (table, bucket) group — the same
    in-group verify pattern as minhash (vectors ride in the group rows;
    no broadcast, no second join) — then one tiny groupby dedupes pairs
    found by several tables.  Recall < 1 for pairs that collide in no
    table; measured against the brute path in tests.

    ``n_planes=None`` (default) derives the bucket count from the corpus
    size via :func:`derive_n_planes`, so default groups stay bounded at
    any scale.
    """
    import pandas as pd
    from ray.data.aggregate import Max

    if n_planes is None:
        n_planes = derive_n_planes(emb_ds, approx_rows)
    lsh = HyperplaneLSH(dim, n_planes, seed, n_tables=n_tables)

    def explode_tables(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # typed from the REAL input columns — a synthetic
            # list<float32> here mismatched list<double> corpora and
            # produced schema-drift warnings in the shuffle
            return pa.Table.from_arrays(
                [
                    pa.array([], pa.int32()),
                    pa.array([], pa.int64()),
                    batch.column("vec_id"),
                    batch.column("embedding"),
                ],
                names=["table", "bucket", "vec_id", "embedding"],
            )
        m = _normalize_rows(_as_matrix(batch.column("embedding")))
        parts = []
        for t in range(n_tables):
            parts.append(
                pa.Table.from_arrays(
                    [
                        pa.array([t] * batch.num_rows, pa.int32()),
                        pa.array(lsh.bucket(m, t), pa.int64()),
                        batch.column("vec_id"),
                        batch.column("embedding"),
                    ],
                    names=["table", "bucket", "vec_id", "embedding"],
                )
            )
        return pa.concat_tables(parts)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id").sort_values("vec_id").reset_index(drop=True)
        ids = g["vec_id"].to_numpy()
        if len(ids) < 2:
            return pd.DataFrame({"d1": [], "d2": [], "cosine": []}).astype(
                {"d1": "int64", "d2": "int64", "cosine": "float64"}
            )
        m = _normalize_rows(np.asarray(list(g["embedding"]), dtype=np.float64))
        sims = m @ m.T
        iu, ju = np.triu_indices(len(ids), 1)
        keep = sims[iu, ju] >= threshold
        return pd.DataFrame(
            {
                "d1": ids[iu[keep]],
                "d2": ids[ju[keep]],
                "cosine": np.round(sims[iu[keep], ju[keep]], 6),
            }
        )

    buckets = emb_ds.map_batches(explode_tables, batch_format="pyarrow")
    P = derive_num_partitions(emb_ds, approx_rows=approx_rows)
    pairs = exchange_map_groups(
        buckets, ["table", "bucket"], pairs_in_bucket, P, batch_format="pandas"
    )
    return pairs.groupby(["d1", "d2"]).aggregate(Max("cosine", alias_name="cosine"))


#: hard cap for the exact brute near-dup path — the broadcast side holds
#: the FULL embedding matrix; cosine_dup_pairs_lsh is the scale path.
COSINE_BRUTE_MAX_ROWS = 1_000_000


def cosine_dup_pairs(emb_ds, threshold: float = 0.95, max_rows: int = COSINE_BRUTE_MAX_ROWS):
    """Embedding near-dup: all pairs with cosine ≥ threshold (d1 < d2).

    Brute-force against a broadcast of the (small) full matrix — the
    exact small-corpus verifier, guarded at ``max_rows``; at corpus
    scale use :func:`cosine_dup_pairs_lsh` (same in-group verify pattern
    as minhash).
    """
    import ray

    full = pa.concat_tables(list(emb_ds.iter_batches(batch_format="pyarrow")))
    if full.num_rows > max_rows:
        raise ValueError(
            f"cosine_dup_pairs is the exact brute verifier (> {max_rows} "
            "rows); use cosine_dup_pairs_lsh at scale"
        )
    ids = np.asarray(full.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
    mat = _normalize_rows(_as_matrix(full.column("embedding")))
    ref = ray.put((ids, mat))

    def _pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()), pa.array([], pa.float64())],
                names=["d1", "d2", "cosine"],
            )
        all_ids, all_mat = ray.get(ref)
        bids = np.asarray(batch.column("vec_id").to_numpy(zero_copy_only=False), dtype=np.int64)
        bmat = _normalize_rows(_as_matrix(batch.column("embedding")))
        sims = bmat @ all_mat.T
        d1, d2, s = [], [], []
        for i in range(len(bids)):
            mask = (all_ids > bids[i]) & (sims[i] >= threshold)
            for j in np.nonzero(mask)[0]:
                d1.append(int(bids[i]))
                d2.append(int(all_ids[j]))
                s.append(round(float(sims[i, j]), 6))
        return pa.Table.from_arrays(
            [
                pa.array(d1, pa.int64()),
                pa.array(d2, pa.int64()),
                pa.array(s, pa.float64()),
            ],
            names=["d1", "d2", "cosine"],
        )

    return emb_ds.map_batches(_pairs, batch_format="pyarrow")


EVAL_BROADCAST_MAX_ROWS = 1_000_000


def decontaminate_embedding(
    emb_ds,
    eval_ds,
    threshold: float = 0.9,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_eval_rows: int = EVAL_BROADCAST_MAX_ROWS,
):
    """Embedding-space eval-set decontamination: drop corpus rows whose
    cosine similarity to ANY eval/benchmark embedding reaches
    ``threshold`` — the semantic companion of the n-gram
    :func:`~ocr_lib_ray.functions.ngramdup.decontaminate` (which misses
    paraphrased benchmark leaks that embed nearly identically).

    Scale shape: the eval side is SMALL by definition (benchmark suites
    are thousands of rows, the corpus is 10^12) — its normalized matrix
    ships ONCE via ``ray.put`` (``max_eval_rows``-guarded) and the
    corpus pass is map-only: one ``batch x eval`` matmul per batch, no
    shuffle at all.  A corpus row equal to an eval row drops (cos 1.0),
    mirroring dedup_against_reference's self-match rule.  Zero vectors
    never match anything (their cosine is 0 under the normalize-guard).
    """
    import ray

    eval_batches, n_eval = [], 0
    for b in eval_ds.iter_batches(batch_format="pyarrow"):
        n_eval += b.num_rows
        if n_eval > max_eval_rows:
            # raise DURING the stream — a corpus-sized eval side (the
            # misuse this guard exists for) must not be fully pulled
            # onto the driver before the error fires
            raise ValueError(
                f"eval side exceeds max_eval_rows={max_eval_rows}: the "
                "broadcast decontamination path is for benchmark-sized "
                "eval sets — for corpus-sized references use "
                "dedup_minhash_incremental or an LSH-bucketed variant"
            )
        eval_batches.append(b)
    if not eval_batches:  # empty eval set: nothing to decontaminate against
        return emb_ds
    eval_tbl = pa.concat_tables(eval_batches)
    if eval_tbl.num_rows == 0:
        return emb_ds
    eval_mat = _normalize_rows(_as_matrix(eval_tbl.column(emb_col)))
    ref = ray.put(eval_mat)

    def _keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        em = ray.get(ref)
        bmat = _normalize_rows(_as_matrix(batch.column(emb_col)))
        max_sim = (bmat @ em.T).max(axis=1)
        return batch.filter(pa.array(max_sim < threshold, pa.bool_()))

    return emb_ds.map_batches(_keep, batch_format="pyarrow")
