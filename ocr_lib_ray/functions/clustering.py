"""Embedding clustering (training-data op): the partitioning step of
semantic dedup (SemDeDup-style — cluster the corpus in embedding space,
then prune near-duplicates WITHIN each cluster so the O(n^2) similarity
work never crosses cluster boundaries).

``kmeans_milli`` is Lloyd's k-means with every number an INTEGER:
embedding components quantize once to milli-units via
``floor(x * 1000 + 0.5)`` (plain half-up — no round-half-even vs
half-away divergence), distances are exact int64 sums of squares, and
centroid updates are the half-up-rounded mean
``floor((2*sum + count) / (2*count))`` computed in float64 — exact
while ``2*sum + count < 2^53``, i.e. corpus rows x 1000 x 2 below 9e15
(a trillion-row corpus still fits; documented bound).  Every step is
therefore order-free and bit-identical across batch sizes, worker
counts and SQL — the cluster_kmeans driver query carries a full hash
oracle with the iterations unrolled as CTEs.

Scale shape: each Lloyd iteration is ONE streaming pass —
``map_batches`` assigns against the (k x d int64, a few KB) broadcast
centroid matrix and emits k partial-sum rows per batch; the driver
reduces the tiny partials exactly (Python ints) and re-broadcasts.
Zero shuffle, no materialization of the corpus; the embedding read is
column-pruned.  Empty clusters keep their previous centroid (same rule
in SQL via COALESCE).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .bucket_tasks import exchange_map_groups

MILLI = 1000.0


def quantize_milli(col) -> np.ndarray:
    """list<float> column → (B, D) int64 milli-units, bit-equal to
    DuckDB ``CAST(floor(CAST(e AS DOUBLE) * 1000 + 0.5) AS BIGINT)``
    (float32→float64 is exact; both sides do the same double ops)."""
    m = np.asarray(col.to_pylist(), dtype=np.float64)
    return np.floor(m * MILLI + 0.5).astype(np.int64)


def _rounded_mean(sums: np.ndarray, count: int) -> np.ndarray:
    """Half-up-rounded integer mean — floor((2s+c)/(2c)) in float64,
    the same double division + floor DuckDB evaluates (exact below
    2^53; see module docstring)."""
    return np.floor((2.0 * sums + count) / (2.0 * count)).astype(np.int64)


def _assign(q: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """argmin of exact int64 squared distance; ties → lowest cluster
    index (np.argmin first-hit == SQL ORDER BY dist, cluster)."""
    # (B, k): |q|^2 - 2 q.c + |c|^2 — int64 throughout, exact
    cross = q @ cent.T
    d = (q * q).sum(axis=1, keepdims=True) - 2 * cross + (cent * cent).sum(axis=1)
    return np.argmin(d, axis=1).astype(np.int64)


def kmeans_centroids(
    emb_ds,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed_ids=None,
) -> np.ndarray:
    """The Lloyd loop: seeds are the ``seed_ids`` rows (default ids
    0..k-1), then ``iters`` assign+update rounds.  Returns the (k, d)
    int64 milli-unit centroid matrix.  Each round is one streaming pass
    emitting k tiny partial rows per batch; the driver reduce is exact
    integer arithmetic, so the result is order- and batch-size-free."""
    import pyarrow.compute as pc

    import ray

    if seed_ids is None:
        seed_ids = list(range(k))
    if len(seed_ids) != k:
        raise ValueError(f"need {k} seed ids, got {len(seed_ids)}")

    seed_set = pa.array(list(seed_ids), pa.int64())
    seed_rows = emb_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column(id_col), value_set=seed_set)),
        batch_format="pyarrow",
    ).take_all()
    if len(seed_rows) != k:
        raise ValueError(
            f"seed ids {seed_ids} matched {len(seed_rows)} rows, expected {k}"
        )
    by_id = {int(r[id_col]): r[vec_col] for r in seed_rows}
    cent = np.stack(
        [
            np.floor(np.asarray(by_id[s], dtype=np.float64) * MILLI + 0.5).astype(
                np.int64
            )
            for s in seed_ids
        ]
    )
    dim = cent.shape[1]

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            q = quantize_milli(batch.column(vec_col))
            a = _assign(q, c)
            sums = np.zeros((k, dim), dtype=np.int64)
            np.add.at(sums, a, q)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            return pa.Table.from_arrays(
                [
                    pa.array(np.arange(k, dtype=np.int64)),
                    pa.array(counts),
                    pa.array(sums.tolist(), pa.list_(pa.int64())),
                ],
                names=["cluster", "count", "sums"],
            )

        rows = emb_ds.map_batches(partials, batch_format="pyarrow").take_all()
        tot_counts = np.zeros(k, dtype=np.int64)
        tot_sums = np.zeros((k, dim), dtype=np.int64)
        for r in rows:
            tot_counts[int(r["cluster"])] += int(r["count"])
            tot_sums[int(r["cluster"])] += np.asarray(r["sums"], dtype=np.int64)
        new_cent = cent.copy()  # empty clusters keep their centroid
        for j in range(k):
            if tot_counts[j] > 0:
                new_cent[j] = _rounded_mean(tot_sums[j], int(tot_counts[j]))
        cent = new_cent
    return cent


def kmeans_milli(
    emb_ds,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed_ids=None,
):
    """Deterministic integer k-means assignment: Lloyd rounds via
    :func:`kmeans_centroids`, then a final labeling pass.  Returns
    Dataset (vec_id, cluster) with cluster = seed index."""
    import ray

    cent = kmeans_centroids(emb_ds, k, iters, id_col, vec_col, seed_ids)
    final_ref = ray.put(cent)

    def label(batch: pa.Table) -> pa.Table:
        c = ray.get(final_ref)
        q = quantize_milli(batch.column(vec_col))
        return pa.Table.from_arrays(
            [batch.column(id_col), pa.array(_assign(q, c))],
            names=[id_col, "cluster"],
        )

    return emb_ds.map_batches(label, batch_format="pyarrow")


def _check_cosine_bounds(q: np.ndarray, tau_sq_num: int, tau_sq_den: int) -> None:
    """int64-exactness guard for the dominance test: with B = max|q|
    and d = dims, dot(u, v) <= d*B^2 for ANY pair (cross-batch too —
    the batch holding the global max bounds them all), and both sides
    of ``dot^2 * den >= num * n2_u * n2_v`` are <= (d*B^2)^2 * max(num,
    den).  Raise before numpy silently wraps."""
    if q.size == 0:
        return
    b = int(np.abs(q).max())
    d = q.shape[1]
    dot_max = d * b * b
    if dot_max * dot_max * max(tau_sq_num, tau_sq_den) >= 2**63:
        raise ValueError(
            f"semantic_dedup: int64 cosine test would overflow (dims={d}, "
            f"max|milli|={b}, tau={tau_sq_num}/{tau_sq_den}) — reduce the "
            "quantization scale or embedding magnitude"
        )


def semantic_dedup(
    emb_ds,
    k: int = 8,
    iters: int = 2,
    tau_sq_num: int = 16,
    tau_sq_den: int = 100,
    max_cluster: int = 10_000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed_ids=None,
):
    """SemDeDup: cluster in embedding space, then drop every vector
    that has an EARLIER (lower id) same-cluster vector with cosine
    similarity above tau (tau^2 = tau_sq_num/tau_sq_den — the test is
    ``dot > 0 AND dot^2 * den >= num * |u|^2 * |v|^2``, exact int64 in
    milli-units; :func:`_check_cosine_bounds` raises before overflow).

    "Dominated by any earlier vector" (not greedy keep-first) is the
    one-pass rule — order-free, SQL-expressible (EXISTS), and the
    O(cluster^2) similarity work never crosses cluster boundaries,
    which is the entire point of clustering first.  At corpus scale k
    grows with n (bounded cluster sizes); ``max_cluster`` raises
    before prune() allocates its dense (n, n) int64 matrices (the
    default 10k caps them at ~800 MB each — a guard that fires AFTER
    a worker-melting allocation would be no guard).

    Returns Dataset (vec_id, cluster) of the SURVIVORS.
    """
    import pandas as pd

    import ray

    cent = kmeans_centroids(emb_ds, k, iters, id_col, vec_col, seed_ids)
    cent_ref = ray.put(cent)

    def tag(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        q = quantize_milli(batch.column(vec_col))
        _check_cosine_bounds(q, tau_sq_num, tau_sq_den)
        return pa.Table.from_arrays(
            [
                batch.column(id_col),
                pa.array(_assign(q, c)),
                pa.array(q.tolist(), pa.list_(pa.int64())),
            ],
            names=[id_col, "cluster", "x"],
        )

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > max_cluster:
            raise ValueError(
                f"semantic_dedup: cluster of {len(g)} rows exceeds "
                f"max_cluster={max_cluster}; raise k or max_cluster"
            )
        g = g.sort_values(id_col, kind="stable")
        q = np.asarray(g["x"].tolist(), dtype=np.int64)
        d = q @ q.T
        n = np.diag(d)
        cond = (d > 0) & (d * d * tau_sq_den >= tau_sq_num * np.outer(n, n))
        dominated = np.triu(cond, k=1).any(axis=0)
        return g.loc[~dominated, [id_col, "cluster"]]

    tagged = emb_ds.map_batches(tag, batch_format="pyarrow")
    return exchange_map_groups(tagged, "cluster", prune, batch_format="pandas")


def quantize_embeddings(emb_ds, id_col: str = "vec_id", vec_col: str = "embedding"):
    """Int8 scalar quantization (the SQ8 storage-compression step of an
    ANN index): per-dimension [min, max] learned in one tiny shuffle,
    then ``code = floor((v - mn) / (mx - mn) * 255 + 0.5)`` stamped
    map-only, with the reconstruction error carried for observability.

    Output is FLATTENED — one (id, dim, code, err_micro) row per
    coordinate (dim 1-based) — so the driver compare is plain integers,
    and err_micro = floor(|v - (mn + code·(mx-mn)/255)| · 1e6 + 0.5).
    Every operation in the chain is basic IEEE double arithmetic (no
    transcendentals), float32 inputs widen exactly, and min/max are
    order-free, so numpy and DuckDB agree bit-for-bit.  Constant
    dimensions (mx == mn) code to 0 with zero error.

    Scale shape: pass 1 ships (dim, min, max) partials — d rows per
    block — through one d-row groupby; the [mn, mx] table broadcasts
    via ``ray.put`` (KBs); pass 2 is map-only.
    """
    import ray
    from ray.data.aggregate import Max, Min

    def mat(b: pa.Table) -> np.ndarray:
        col = b.column(vec_col).combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(b)
        if n and flat.size % n:
            raise ValueError("quantize_embeddings: ragged embedding lengths")
        return flat.reshape(n, -1) if n else flat.reshape(0, 0)

    def minmax_partials(b: pa.Table) -> pa.Table:
        m = mat(b)
        if m.size == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.float64()),
                 pa.array([], pa.float64())],
                names=["dim", "mn", "mx"],
            )
        d = m.shape[1]
        return pa.Table.from_arrays(
            [
                pa.array(np.arange(1, d + 1), pa.int64()),
                pa.array(m.min(axis=0), pa.float64()),
                pa.array(m.max(axis=0), pa.float64()),
            ],
            names=["dim", "mn", "mx"],
        )

    agg = (
        emb_ds.map_batches(minmax_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Min("mn", alias_name="mn"), Max("mx", alias_name="mx"))
        .to_pandas()
        .sort_values("dim")
    )
    mn = agg["mn"].to_numpy()
    mx = agg["mx"].to_numpy()
    ref = ray.put((mn, mx))

    def stamp(b: pa.Table) -> pa.Table:
        mn_a, mx_a = ray.get(ref)
        if len(b) == 0:
            # a (0,0) matrix cannot broadcast against the (d,) bounds
            return pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 4,
                names=[id_col, "dim", "code", "err_micro"],
            )
        m = mat(b)
        n, d = m.shape
        span = mx_a - mn_a
        const = span == 0
        safe = np.where(const, 1.0, span)
        code = np.floor((m - mn_a) / safe * 255 + 0.5)
        code[:, const] = 0.0
        recon = mn_a + code * span / 255
        err = np.floor(np.abs(m - recon) * 1e6 + 0.5)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [
                pa.array(np.repeat(ids, d), pa.int64()),
                pa.array(np.tile(np.arange(1, d + 1), n), pa.int64()),
                pa.array(code.reshape(-1).astype(np.int64), pa.int64()),
                pa.array(err.reshape(-1).astype(np.int64), pa.int64()),
            ],
            names=[id_col, "dim", "code", "err_micro"],
        )

    return emb_ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)


def sq8_reconstruct(emb_ds, id_col: str = "vec_id", vec_col: str = "embedding"):
    """(id, embedding) with every coordinate replaced by its SQ8
    reconstruction ``mn + code·(mx-mn)/255`` (float64 lists) — the
    compressed-index view a quantized ANN searches.  Shares the
    quantization chain with :func:`quantize_embeddings` exactly
    (same bounds pass, same IEEE ops), so a DuckDB replica of the codes
    reconstructs byte-identical doubles.
    """
    import ray
    from ray.data.aggregate import Max, Min

    def mat(b: pa.Table) -> np.ndarray:
        col = b.column(vec_col).combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(b)
        if n and flat.size % n:
            raise ValueError("sq8_reconstruct: ragged embedding lengths")
        return flat.reshape(n, -1) if n else flat.reshape(0, 0)

    def minmax_partials(b: pa.Table) -> pa.Table:
        m = mat(b)
        if m.size == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.float64()),
                 pa.array([], pa.float64())],
                names=["dim", "mn", "mx"],
            )
        d = m.shape[1]
        return pa.Table.from_arrays(
            [
                pa.array(np.arange(1, d + 1), pa.int64()),
                pa.array(m.min(axis=0), pa.float64()),
                pa.array(m.max(axis=0), pa.float64()),
            ],
            names=["dim", "mn", "mx"],
        )

    agg = (
        emb_ds.map_batches(minmax_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Min("mn", alias_name="mn"), Max("mx", alias_name="mx"))
        .to_pandas()
        .sort_values("dim")
    )
    ref = ray.put((agg["mn"].to_numpy(), agg["mx"].to_numpy()))

    def rec(b: pa.Table) -> pa.Table:
        mn_a, mx_a = ray.get(ref)
        if len(b) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()),
                 pa.array([], pa.list_(pa.float64()))],
                names=[id_col, vec_col],
            )
        m = mat(b)
        span = mx_a - mn_a
        const = span == 0
        safe = np.where(const, 1.0, span)
        code = np.floor((m - mn_a) / safe * 255 + 0.5)
        code[:, const] = 0.0
        recon = mn_a + code * span / 255
        return pa.Table.from_arrays(
            [
                b.column(id_col),
                pa.array(list(recon), pa.list_(pa.float64())),
            ],
            names=[id_col, vec_col],
        )

    return emb_ds.map_batches(rec, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# product quantization (Jégou et al. 2011) — codebooks, codes, ADC search
# --------------------------------------------------------------------------


def pq_codebooks(
    emb_ds,
    m: int = 4,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed_ids=None,
    coarse_centroids: np.ndarray | None = None,
) -> np.ndarray:
    """Product-quantization codebooks: the vector space is split into
    ``m`` contiguous subspaces of D/m dims and an INDEPENDENT integer
    k-means (same milli-quantized Lloyd recipe as
    :func:`kmeans_centroids` — exact int64 distances, ties to lowest
    cluster, half-up-rounded integer means, empty clusters keep their
    centroid, seeds = rows ``seed_ids`` default 0..k-1) is trained per
    subspace.  Returns the (m, k, D/m) int64 centroid tensor.

    Scale shape: ALL m sub-trainings share each streaming pass — one
    corpus read per Lloyd round emitting m·k tiny partial rows per
    batch, reduced exactly on the driver (the codebook is
    m·k·(D/m) = k·D ints — model-sized, broadcastable)."""
    import pyarrow.compute as pc

    import ray

    if seed_ids is None:
        seed_ids = list(range(k))
    if len(seed_ids) != k:
        raise ValueError(f"need {k} seed ids, got {len(seed_ids)}")

    seed_set = pa.array(list(seed_ids), pa.int64())
    seed_rows = emb_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column(id_col), value_set=seed_set)),
        batch_format="pyarrow",
    ).take_all()
    if len(seed_rows) != k:
        raise ValueError(
            f"seed ids {seed_ids} matched {len(seed_rows)} rows, expected {k}"
        )
    by_id = {int(r[id_col]): r[vec_col] for r in seed_rows}
    full = np.stack(
        [
            np.floor(np.asarray(by_id[s], dtype=np.float64) * MILLI + 0.5).astype(
                np.int64
            )
            for s in seed_ids
        ]
    )
    if coarse_centroids is not None:
        # residual PQ (the IVF-PQ second stage): every vector is
        # replaced by its residual to the nearest coarse centroid
        # BEFORE subspace training — seeds included
        full = full - coarse_centroids[_assign(full, coarse_centroids)]
    dim = full.shape[1]
    if dim % m:
        raise ValueError(f"pq: dim {dim} not divisible by m={m}")
    sub_d = dim // m
    # (m, k, sub_d)
    cent = np.stack([full[:, j * sub_d : (j + 1) * sub_d] for j in range(m)])

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            q = quantize_milli(batch.column(vec_col))
            if coarse_centroids is not None:
                q = q - coarse_centroids[_assign(q, coarse_centroids)]
            subs, clusters, counts, sums = [], [], [], []
            for j in range(m):
                qs = q[:, j * sub_d : (j + 1) * sub_d]
                a = _assign(qs, c[j])
                s = np.zeros((k, sub_d), dtype=np.int64)
                np.add.at(s, a, qs)
                cnt = np.bincount(a, minlength=k).astype(np.int64)
                subs.append(np.full(k, j, np.int64))
                clusters.append(np.arange(k, dtype=np.int64))
                counts.append(cnt)
                sums.append(s)
            return pa.Table.from_arrays(
                [
                    pa.array(np.concatenate(subs)),
                    pa.array(np.concatenate(clusters)),
                    pa.array(np.concatenate(counts)),
                    pa.array(
                        np.concatenate(sums, axis=0).tolist(), pa.list_(pa.int64())
                    ),
                ],
                names=["sub", "cluster", "count", "sums"],
            )

        rows = emb_ds.map_batches(partials, batch_format="pyarrow").take_all()
        tot_counts = np.zeros((m, k), dtype=np.int64)
        tot_sums = np.zeros((m, k, sub_d), dtype=np.int64)
        for r in rows:
            tot_counts[int(r["sub"]), int(r["cluster"])] += int(r["count"])
            tot_sums[int(r["sub"]), int(r["cluster"])] += np.asarray(
                r["sums"], dtype=np.int64
            )
        new_cent = cent.copy()
        for j in range(m):
            for c_ in range(k):
                if tot_counts[j, c_] > 0:
                    new_cent[j, c_] = _rounded_mean(
                        tot_sums[j, c_], int(tot_counts[j, c_])
                    )
        cent = new_cent
    return cent


def pq_codes(
    emb_ds,
    m: int = 4,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed_ids=None,
):
    """Product-quantization code assignment: every vector compressed to
    ``m`` sub-codes (m·log2(k) bits, e.g. 12 bits for 64 float dims at
    m=4, k=8).  Returns Dataset (vec_id, sub, code, err_sq) in long
    form — one row per (vector, subspace), ``err_sq`` the exact int64
    squared milli-distance to the chosen centroid (the per-subspace
    reconstruction error).  Broadcast codebook, map-only labeling."""
    import ray

    cb = pq_codebooks(emb_ds, m, k, iters, id_col, vec_col, seed_ids)
    sub_d = cb.shape[2]
    ref = ray.put(cb)

    def label(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        q = quantize_milli(batch.column(vec_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        out_id, out_sub, out_code, out_err = [], [], [], []
        for j in range(m):
            qs = q[:, j * sub_d : (j + 1) * sub_d]
            cross = qs @ c[j].T
            d = (
                (qs * qs).sum(axis=1, keepdims=True)
                - 2 * cross
                + (c[j] * c[j]).sum(axis=1)
            )
            a = np.argmin(d, axis=1)
            out_id.append(ids)
            out_sub.append(np.full(n, j, np.int64))
            out_code.append(a.astype(np.int64))
            out_err.append(d[np.arange(n), a].astype(np.int64))
        return pa.Table.from_arrays(
            [
                pa.array(np.concatenate(out_id)),
                pa.array(np.concatenate(out_sub)),
                pa.array(np.concatenate(out_code)),
                pa.array(np.concatenate(out_err)),
            ],
            names=[id_col, "sub", "code", "err_sq"],
        )

    return emb_ds.map_batches(label, batch_format="pyarrow")


def knn_pq(
    emb_ds,
    query_ids,
    k_nn: int = 5,
    m: int = 4,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_self: bool = True,
):
    """ANN top-k by asymmetric distance computation over PQ codes: the
    query stays full-precision (milli ints), every database vector is
    replaced by its per-subspace centroid, and the distance is the
    exact int64 sum of the m table lookups — the classic ADC search of
    Jégou et al. 2011, here with every quantity an integer so the
    ranking carries a bit-exact SQL oracle (ties dist ASC, vec_id
    ASC).  Returns (query_id, vec_id, dist_sq).

    Scale shape: codebook + the (nq, m, k) query distance tables are
    model-sized broadcasts; the corpus pass is map-only (assign codes
    + gather + per-block top-k) and the only exchange is the
    nq-bounded final top-k groupby."""
    import pandas as pd
    import pyarrow.compute as pc

    import ray

    cb = pq_codebooks(emb_ds, m, k, iters, id_col, vec_col)
    sub_d = cb.shape[2]

    qset = pa.array(sorted(int(q) for q in query_ids), pa.int64())
    q_rows = emb_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column(id_col), value_set=qset)),
        batch_format="pyarrow",
    ).take_all()
    if len(q_rows) != len(set(int(q) for q in query_ids)):
        raise ValueError(
            f"knn_pq: query_ids matched {len(q_rows)} corpus rows, "
            f"expected {len(set(int(q) for q in query_ids))} — a missing "
            "id would silently shrink the result"
        )
    q_ids = np.array(sorted(int(r[id_col]) for r in q_rows), dtype=np.int64)
    by_id = {int(r[id_col]): r[vec_col] for r in q_rows}
    q_mat = np.stack(
        [
            np.floor(np.asarray(by_id[i], dtype=np.float64) * MILLI + 0.5).astype(
                np.int64
            )
            for i in q_ids
        ]
    )
    # (nq, m, k) exact squared distances query-subvector -> centroid
    dtab = np.zeros((len(q_ids), m, k), dtype=np.int64)
    for j in range(m):
        qs = q_mat[:, j * sub_d : (j + 1) * sub_d]
        cross = qs @ cb[j].T
        dtab[:, j, :] = (
            (qs * qs).sum(axis=1, keepdims=True)
            - 2 * cross
            + (cb[j] * cb[j]).sum(axis=1)
        )
    ref = ray.put((cb, q_ids, dtab))

    def local(b: pa.Table) -> pa.Table:
        c, qi, dt = ray.get(ref)
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if exclude_self:
            keep = ~np.isin(ids, qi)
            b = b.filter(pa.array(keep))
            ids = ids[keep]
        if not len(ids):
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "dist_sq": pa.array([], pa.int64()),
                }
            )
        q = quantize_milli(b.column(vec_col))
        codes = np.empty((len(ids), m), dtype=np.int64)
        for j in range(m):
            qs = q[:, j * sub_d : (j + 1) * sub_d]
            codes[:, j] = _assign(qs, c[j])
        # (nq, B) ADC distances via m gathers
        dist = np.zeros((len(qi), len(ids)), dtype=np.int64)
        for j in range(m):
            dist += dt[:, j, :][:, codes[:, j]]
        out_q, out_v, out_d = [], [], []
        kk = min(k_nn, len(ids))
        for qi_i in range(len(qi)):
            order = np.lexsort((ids, dist[qi_i]))[:kk]
            out_q.append(np.full(kk, qi[qi_i], np.int64))
            out_v.append(ids[order])
            out_d.append(dist[qi_i][order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_v)),
                "dist_sq": pa.array(np.concatenate(out_d)),
            }
        )

    from .similarity import driver_topk_per_query

    return driver_topk_per_query(
        emb_ds.map_batches(local, batch_format="pyarrow"),
        k_nn,
        ["query_id", "dist_sq", id_col],
        [True, True, True],
        pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "dist_sq": pa.array([], pa.int64()),
            }
        ),
    )


def knn_ivf_pq(
    emb_ds,
    query_ids,
    k_nn: int = 5,
    k_coarse: int = 4,
    nprobe: int = 2,
    m: int = 16,
    k: int = 16,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_self: bool = True,
):
    """IVF-PQ ANN — the composed FAISS-style scale path: an integer
    coarse quantizer (k_coarse cells, :func:`kmeans_centroids`)
    partitions the corpus, a RESIDUAL product quantizer
    (:func:`pq_codebooks` with ``coarse_centroids``) compresses each
    vector's offset from its cell centroid, and each query scans only
    its ``nprobe`` nearest cells via per-cell ADC distance tables.
    Scanned fraction ≈ nprobe / k_coarse — the knob that keeps a
    100 TB index sublinear.  Every quantity is exact int64 (milli
    space), ties (dist ASC, vec_id ASC), cells and clusters tie to the
    lowest index — so the ranking carries a bit-exact SQL oracle,
    unlike the float sampled-centroid ``knn_ivf``.  Returns
    (query_id, vec_id, dist_sq); vectors in unprobed cells are simply
    never scored (recall < 1 by construction, measured in tests).

    Scale shape: coarse centroids (k_coarse·D ints) + codebooks
    (k·D ints) + the per-query per-probed-cell tables
    (nq·nprobe·m·k ints) are all model-sized broadcasts; the corpus
    pass is map-only; the only exchange is the nq-bounded final
    top-k groupby."""
    import pandas as pd
    import pyarrow.compute as pc

    import ray

    coarse = kmeans_centroids(emb_ds, k_coarse, iters, id_col, vec_col)
    cb = pq_codebooks(
        emb_ds, m, k, iters, id_col, vec_col, coarse_centroids=coarse
    )
    sub_d = cb.shape[2]
    nprobe = min(nprobe, k_coarse)

    qset = pa.array(sorted(int(q) for q in query_ids), pa.int64())
    q_rows = emb_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column(id_col), value_set=qset)),
        batch_format="pyarrow",
    ).take_all()
    if len(q_rows) != len(set(int(q) for q in query_ids)):
        raise ValueError(
            f"knn_ivf_pq: query_ids matched {len(q_rows)} corpus rows, "
            f"expected {len(set(int(q) for q in query_ids))} — a missing "
            "id would silently shrink the result"
        )
    q_ids = np.array(sorted(int(r[id_col]) for r in q_rows), dtype=np.int64)
    by_id = {int(r[id_col]): r[vec_col] for r in q_rows}
    q_mat = np.stack(
        [
            np.floor(np.asarray(by_id[i], dtype=np.float64) * MILLI + 0.5).astype(
                np.int64
            )
            for i in q_ids
        ]
    )
    nq = len(q_ids)
    # probe the nprobe nearest cells per query (ties -> lowest cell)
    dq = (
        (q_mat * q_mat).sum(axis=1, keepdims=True)
        - 2 * (q_mat @ coarse.T)
        + (coarse * coarse).sum(axis=1)
    )
    probe = np.stack(
        [np.lexsort((np.arange(k_coarse), dq[i]))[:nprobe] for i in range(nq)]
    )
    # per (query, probed cell): residual distance tables (m, k)
    dtabs = np.zeros((nq, nprobe, m, k), dtype=np.int64)
    for i in range(nq):
        for pi, cell in enumerate(probe[i]):
            res = q_mat[i] - coarse[cell]
            for j in range(m):
                rs = res[j * sub_d : (j + 1) * sub_d]
                dtabs[i, pi, j, :] = (
                    (rs * rs).sum() - 2 * (cb[j] @ rs) + (cb[j] * cb[j]).sum(axis=1)
                )
    ref = ray.put((coarse, cb, q_ids, probe, dtabs))

    def local(b: pa.Table) -> pa.Table:
        co, c, qi, pr, dt = ray.get(ref)
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if exclude_self:
            keep = ~np.isin(ids, qi)
            b = b.filter(pa.array(keep))
            ids = ids[keep]
        if not len(ids):
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "dist_sq": pa.array([], pa.int64()),
                }
            )
        qv = quantize_milli(b.column(vec_col))
        cells = _assign(qv, co)
        res = qv - co[cells]
        codes = np.empty((len(ids), m), dtype=np.int64)
        for j in range(m):
            codes[:, j] = _assign(res[:, j * sub_d : (j + 1) * sub_d], c[j])
        out_q, out_v, out_d = [], [], []
        for i in range(len(qi)):
            sel_d = []
            sel_v = []
            for pi, cell in enumerate(pr[i]):
                mask = cells == cell
                if not mask.any():
                    continue
                dist = np.zeros(int(mask.sum()), dtype=np.int64)
                cj = codes[mask]
                for j in range(m):
                    dist += dt[i, pi, j, :][cj[:, j]]
                sel_d.append(dist)
                sel_v.append(ids[mask])
            if not sel_d:
                continue
            dist = np.concatenate(sel_d)
            vids = np.concatenate(sel_v)
            kk = min(k_nn, len(vids))
            order = np.lexsort((vids, dist))[:kk]
            out_q.append(np.full(kk, qi[i], np.int64))
            out_v.append(vids[order])
            out_d.append(dist[order])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "dist_sq": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_v)),
                "dist_sq": pa.array(np.concatenate(out_d)),
            }
        )

    from .similarity import driver_topk_per_query

    return driver_topk_per_query(
        emb_ds.map_batches(local, batch_format="pyarrow"),
        k_nn,
        ["query_id", "dist_sq", id_col],
        [True, True, True],
        pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "dist_sq": pa.array([], pa.int64()),
            }
        ),
    )
