"""Deduplication operators (training-data ops, SURVEY.md §2.7 extension).

Four families, each Ray-Data-first and shuffle-conscious:

* exact          — content-hash key → min doc_id per key: one
                   combiner exchange on the hash key
                   (``bucket_tasks.exchange_aggregate``); the map side
                   is vectorized.
* minhash-LSH    — shingle → minhash signature (numpy, per batch) →
                   explode to (band, band_hash, doc_id, signature) rows →
                   one (band, bucket) exchange → candidate pairs verified
                   IN-GROUP from the carried signatures (estimated
                   Jaccard), so verification needs no broadcast and no
                   second join — scalable to 10^12 docs.  A pair found
                   in several bands keeps its max estimate (a combiner
                   exchange on (d1, d2)).
* simhash        — 64-bit fingerprint; band buckets (4×16 bits ⇒ any
                   pair with hamming ≤ 3 shares a band) → in-group
                   hamming verify.
* ngram-Jaccard  — exact all-pairs token-set Jaccard against a
                   broadcast inverted shingle index (``ray.put`` once);
                   cost ∝ co-occurring shingle pairs (n² when every doc
                   shares shingles): the small-corpus oracle /
                   verifier; at scale use the minhash path.

All hashing is seeded/stable — never Python ``hash``; the minhash
family uses md5-64 halves + splitmix64 (DuckDB-reproducible: the
minhash_pairs driver query carries a bit-exact SQL oracle).
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

from .bucket_tasks import exchange_aggregate, exchange_map_groups
from .joins import derive_num_partitions, dim_lookup, dim_ref_adaptive, hash_join
from .text_stats import normalize_expr

_MERSENNE = (1 << 61) - 1

#: target rows per LSH shuffle group — every (band, bucket) group
#: materializes in ONE exchange merge task, so this bounds per-task memory.
ROWS_PER_GROUP = 100_000


def derive_group_buckets(docs_ds, approx_rows=None, rows_per_group: int = ROWS_PER_GROUP) -> int:
    """Scale-safe shuffle-group sizing: ``ceil(corpus_rows / rows_per_group)``.

    With ``bucket = band_hash % group_buckets``, the groupby(band, bucket)
    groups are bounded to ~``rows_per_group`` band rows regardless of
    corpus size — at 10^12 docs this yields 10^7 buckets of 10^5 rows
    instead of 16 corpus-sized groups that cannot materialize.  Recall is
    unaffected (rows with equal band_hash always share a bucket; tested
    invariant across bucket counts).

    ``approx_rows`` skips the counting pass — pass it from catalog
    metadata at scale.  Without it, a metadata-only count is tried
    first (free for plain parquet reads); only when the dataset is a
    transformed lineage with no metadata count does this fall back to
    ``count()``, which EXECUTES the upstream lineage — a warning is
    logged so the extra corpus-sized pass is never silent.
    """
    if approx_rows is None:
        approx_rows = _rows_estimate(docs_ds)
    return max(1, -(-int(approx_rows) // rows_per_group))


def _rows_estimate(ds) -> int:
    """Row count without executing lineage when possible.

    ``Dataset._meta_count()`` answers from read metadata (parquet
    footers) for un-transformed reads; transformed datasets return None
    and the only exact answer is ``count()`` — executed with a logged
    warning so callers know to pass ``approx_rows`` on expensive
    lineages.
    """
    try:
        n = ds._meta_count()
    except Exception:
        n = None
    if n is not None:
        return int(n)
    import logging

    logging.getLogger(__name__).warning(
        "derive_group_buckets: no metadata row count for a transformed "
        "dataset — count() will execute the upstream lineage once; pass "
        "approx_rows to skip this pass"
    )
    return int(ds.count())


def _stable_token_hashes(tokens) -> np.ndarray:
    """md5 lower 64 bits little-endian per token (stable across
    runs/processes AND byte-equal to DuckDB ``md5_number_lower`` — the
    minhash_pairs SQL-oracle parity requirement; was crc32, switched
    round 3: 64-bit hashes also shrink shingle collisions): the
    digests are joined once and read as little-endian uint64 pairs,
    keeping each second half."""
    digests = b"".join(hashlib.md5(t.encode("utf-8")).digest() for t in tokens)
    return np.frombuffer(digests, dtype="<u8")[1::2].astype(np.uint64)


def shingle_hashes(text: str, n: int) -> np.ndarray:
    """Distinct hashed token n-grams of the normalized text."""
    toks = text.split(" ") if text else []
    if len(toks) < n:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
    if not grams:
        return np.empty(0, dtype=np.uint64)
    return np.unique(_stable_token_hashes(grams))


class MinHasher:
    """Per-batch minhash signatures (actor state: permutation params).

    h_i(x) = (a_i * x + b_i) mod (2^61 - 1); signature = min over
    shingles, vectorized as an outer product per document.
    """

    def __init__(self, num_perm: int = 64, shingle_n: int = 3, seed: int = 42):
        rng = np.random.default_rng(seed)
        # per-permutation xor seeds + a splitmix64 finalizer: bijective
        # in uint64 (multiplication wraps mod 2^64), so each permutation
        # is a genuine full-domain scramble.  (An affine (a*x+b) mod p
        # with a too small to wrap preserves order on small inputs and
        # degenerates to "min shingle wins" — bug caught by the planted-
        # pair test.)
        self.seeds = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_n = shingle_n

    @staticmethod
    def _mix(v: np.ndarray) -> np.ndarray:
        # splitmix64 finalizer (public domain constant set)
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return v ^ (v >> np.uint64(31))

    def signature(self, text: str) -> np.ndarray:
        sh = shingle_hashes(text, self.shingle_n)
        if sh.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        v = self._mix(sh[None, :] ^ self.seeds[:, None])
        return v.min(axis=1)


def minhash_band_rows(
    batch: pa.Table,
    hasher: MinHasher,
    bands: int,
    id_col: str = "doc_id",
    text_is_norm: bool = False,
    group_buckets: int = 1,
) -> pa.Table:
    """documents batch → exploded (band, bucket, band_hash, doc_id,
    signature).

    ``bucket = band_hash % group_buckets`` is the shuffle key partner of
    ``band``: grouping on (band, bucket) bounds every group to roughly
    ``corpus / group_buckets`` rows (a (band, band_hash) key would make
    near-singleton groups — per-group Python dispatch dominates — while
    band alone makes corpus-sized groups that cannot materialize at
    10^12 docs).  Size ``group_buckets ≈ corpus_rows / 100_000``; rows
    with equal band_hash always share a bucket, so candidate recall is
    unaffected (tested equal across bucket counts).
    """
    ids = batch.column(id_col).to_pylist()
    norm = (
        batch.column("text").to_pylist()
        if text_is_norm
        else normalize_expr(batch.column("text")).to_pylist()
    )
    rows_per_band = hasher.num_perm // bands
    out_band, out_hash, out_id, out_sig = [], [], [], []
    for doc_id, text in zip(ids, norm):
        sig = hasher.signature(text)
        sig_bytes = sig.tobytes()
        vals = [str(v) for v in sig.tolist()]
        for b in range(bands):
            # band key = md5-lower64 of the comma-joined band values
            # (mod 2^32) — DuckDB-reproducible (was crc32 of raw bytes)
            chunk = ",".join(vals[b * rows_per_band : (b + 1) * rows_per_band])
            out_band.append(b)
            out_hash.append(
                int.from_bytes(hashlib.md5(chunk.encode()).digest()[8:], "little")
                & 0xFFFFFFFF
            )
            out_id.append(doc_id)
            out_sig.append(sig_bytes)
    hash_arr = np.asarray(out_hash, dtype=np.uint32)
    return pa.Table.from_arrays(
        [
            pa.array(out_band, pa.int32()),
            pa.array((hash_arr % np.uint32(max(group_buckets, 1))).astype(np.int32)),
            pa.array(hash_arr, pa.uint32()),
            pa.array(out_id, pa.int64()),
            pa.array(out_sig, pa.binary()),
        ],
        names=["band", "bucket", "band_hash", "doc_id", "signature"],
    )


def _pairs_within_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(i, j)``, ``i < j``, of every two rows inside
    each run of equal values of the SORTED ``keys`` — the per-bucket
    clique, built with one ``triu_indices`` per distinct run length
    instead of a Python loop per bucket."""
    if keys.size < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, keys.size])
    a_parts, b_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for m in np.unique(sizes[sizes > 1]):
        iu, ju = np.triu_indices(int(m), 1)
        s = starts[sizes == m][:, None]
        a_parts.append((s + iu).ravel())
        b_parts.append((s + ju).ravel())
    return np.concatenate(a_parts), np.concatenate(b_parts)


#: row pairs compared per slice in :func:`_equal_fraction` (bounds the
#: ``pairs × num_perm`` scratch to ~64 MB)
_EQF_SLICE_PAIRS = 1 << 16


def _equal_fraction(sigs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Estimated Jaccard of the signature rows ``a[k]``, ``b[k]``: the
    fraction of equal minhashes, vectorized over all pairs."""
    out = np.empty(a.size, np.float64)
    for lo in range(0, a.size, _EQF_SLICE_PAIRS):
        hi = lo + _EQF_SLICE_PAIRS
        out[lo:hi] = (sigs[a[lo:hi]] == sigs[b[lo:hi]]).mean(axis=1)
    return out


def _signature_matrix(signatures) -> np.ndarray:
    """Sequence of equal-length signature byte strings → (rows, num_perm)
    uint64 matrix in one copy."""
    sigs = list(signatures)
    if not sigs:
        return np.empty((0, 0), np.uint64)
    return np.frombuffer(b"".join(sigs), dtype=np.uint64).reshape(len(sigs), -1)


def _pairs_from_band(g: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Verified candidate pairs of ONE (band, bucket) exchange group, from
    the signatures carried in the rows (estimated Jaccard = fraction of
    equal minhashes), in one vectorized pass over the group:

    1. drop duplicate ``(band_hash, doc_id)`` rows (first wins) and the
       band_hash buckets left with one doc;
    2. one ``lexsort`` by (band_hash, signature, doc_id) puts each
       identical-signature cluster in one run, ids ascending.  Clique
       compression: a cluster emits a CHAIN of est=1.0 pairs (k-1, not
       k·(k-1)/2) — connected-component-equivalent for dedup, and the
       difference between linear and quadratic pair volume on
       dense-duplicate corpora;
    3. the cluster's min id represents it; every two representatives
       of a bucket pair up (:func:`_pairs_within_runs`) and keep
       ``est >= threshold``, rounded with ``np.round(…, 6)``.

    Rows are the same multiset as the per-bucket loop this replaced
    (pinned against a frozen copy in tests); their order is not part of
    the contract — the caller aggregates by (d1, d2).
    """
    g = g.drop_duplicates(["band_hash", "doc_id"])
    h = g["band_hash"].to_numpy()
    _, inv, counts = np.unique(h, return_inverse=True, return_counts=True)
    multi = counts[inv] > 1
    if not multi.any():
        return pd.DataFrame({"d1": [], "d2": [], "est_jaccard": []}).astype(
            {"d1": "int64", "d2": "int64", "est_jaccard": "float64"}
        )
    h = h[multi]
    ids = g["doc_id"].to_numpy(dtype=np.int64)[multi]
    sigs = _signature_matrix(g["signature"].to_numpy()[multi])
    order = np.lexsort((ids, *sigs.T[::-1], h))
    h, ids, sigs = h[order], ids[order], sigs[order]
    new_cluster = np.r_[True, (h[1:] != h[:-1]) | (sigs[1:] != sigs[:-1]).any(axis=1)]
    in_chain = ~new_cluster[1:]
    reps = np.flatnonzero(new_cluster)
    by_id = np.lexsort((ids[reps], h[reps]))
    reps = reps[by_id]
    a, b = _pairs_within_runs(h[reps])
    eqf = _equal_fraction(sigs, reps[a], reps[b])
    keep = eqf >= threshold
    return pd.DataFrame(
        {
            "d1": np.r_[ids[:-1][in_chain], ids[reps[a[keep]]]],
            "d2": np.r_[ids[1:][in_chain], ids[reps[b[keep]]]],
            "est_jaccard": np.r_[np.ones(int(in_chain.sum())), np.round(eqf[keep], 6)],
        }
    ).astype({"d1": "int64", "d2": "int64", "est_jaccard": "float64"})


def minhash_lsh_pairs(
    docs_ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    threshold: float = 0.5,
    seed: int = 42,
    carry_signatures: bool = True,
    group_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Dataset of documents → Dataset of near-dup pairs (d1 < d2) with
    signature-estimated Jaccard.

    ``group_buckets=None`` (the default) derives the shuffle-group count
    from the corpus size via :func:`derive_group_buckets`, so the default
    path is scale-safe — no caller can accidentally produce corpus-sized
    groupby groups.  Pass ``approx_rows`` (e.g. from catalog metadata) to
    skip the counting pass on transformed inputs.

    Contract: the pair set is a SPANNING candidate set, not the full
    clique — signature-identical clusters are chain-compressed (see
    _pairs_from_band), so any two true near-dups are connected in the
    pair GRAPH (same connected component) but not necessarily paired
    directly.  That is exactly what dedup_connected consumes; tests
    assert component equivalence.

    Two verification strategies (component-equivalent, tested):

    * ``carry_signatures=True`` (default, best at bench scale): band
      rows carry the full signature (num_perm × 8 B, duplicated per
      band) and candidate pairs are verified inside the band exchange —
      one shuffle, no second pass.
    * ``carry_signatures=False`` (best at 10^12-doc scale): band rows
      carry only (band, band_hash, doc_id) — 16× less shuffle volume —
      candidates come out of the exchange unverified, and a second pass
      recomputes signatures ONLY for candidate docs (the candidate set
      is tiny relative to the corpus; its id set gates the docs through
      the semi ``hash_join``, a map-side broadcast lookup while it fits).
    """
    hasher = MinHasher(num_perm=num_perm, shingle_n=shingle_n, seed=seed)
    if group_buckets is None:
        group_buckets = derive_group_buckets(docs_ds, approx_rows)
    P = derive_num_partitions(docs_ds, approx_rows=approx_rows)
    if carry_signatures:
        band_rows = docs_ds.map_batches(
            lambda b: minhash_band_rows(b, hasher, bands, group_buckets=group_buckets),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        pairs = exchange_map_groups(
            band_rows,
            ["band", "bucket"],
            lambda g: _pairs_from_band(g, threshold),
            P,
            batch_format="pandas",
        )
        # a pair can surface in several bands → keep one row (max estimate)
        return exchange_aggregate(
            pairs, ["d1", "d2"], [("est_jaccard", "max", "est_jaccard")]
        )

    band_rows = docs_ds.map_batches(
        lambda b: minhash_band_rows(
            b, hasher, bands, group_buckets=group_buckets
        ).drop_columns(["signature"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def candidates_in_band(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band_hash", "doc_id"])
        h = g["band_hash"].to_numpy()
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((ids, h))
        a, b = _pairs_within_runs(h[order])
        return pd.DataFrame({"d1": ids[order[a]], "d2": ids[order[b]]})

    cand_df = (  # tiny: candidate pairs only
        exchange_map_groups(
            band_rows, ["band", "bucket"], candidates_in_band, P, batch_format="pandas"
        )
        .to_pandas()
        .drop_duplicates(["d1", "d2"])
    )
    import ray.data as rd

    cand_ids = pa.array(
        np.unique(cand_df[["d1", "d2"]].to_numpy(dtype=np.int64)), pa.int64()
    )
    sig_rows = hash_join(
        docs_ds, rd.from_arrow(pa.table({"doc_id": cand_ids})), "doc_id", how="semi"
    ).map_batches(lambda b: _signatures_for(b, hasher), batch_format="pyarrow")
    sig_tab = pa.concat_tables(list(sig_rows.iter_batches(batch_format="pyarrow")))
    # a repeated doc_id keeps its LAST signature row
    sig_ids = sig_tab.column("doc_id").to_numpy()[::-1]
    sig_ids, last = np.unique(sig_ids, return_index=True)
    sigs = _signature_matrix(sig_tab.column("signature").to_pylist()[::-1])[last]
    ia = np.searchsorted(sig_ids, cand_df["d1"].to_numpy(dtype=np.int64))
    ib = np.searchsorted(sig_ids, cand_df["d2"].to_numpy(dtype=np.int64))
    eqf = _equal_fraction(sigs, ia, ib)
    keep = eqf >= threshold
    return rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(cand_df["d1"].to_numpy(dtype=np.int64)[keep], pa.int64()),
                pa.array(cand_df["d2"].to_numpy(dtype=np.int64)[keep], pa.int64()),
                pa.array(np.round(eqf[keep], 6), pa.float64()),
            ],
            names=["d1", "d2", "est_jaccard"],
        )
    )


def _signatures_for(batch: pa.Table, hasher: MinHasher) -> pa.Table:
    ids = batch.column("doc_id").to_pylist()
    norm = normalize_expr(batch.column("text")).to_pylist()
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array([hasher.signature(t).tobytes() for t in norm], pa.binary()),
        ],
        names=["doc_id", "signature"],
    )


def union_find_components(d1, d2) -> dict:
    """Connected components of the near-dup graph → {doc_id: root} with
    root = the component's minimum id.

    Runs on the DRIVER over the pair list — deliberately: the pair set
    is orders of magnitude smaller than the corpus (it only contains
    docs that collided in LSH), so union-find here is O(pairs α) with
    no extra shuffle, while the corpus-side filter stays distributed.
    """
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    seen = set()
    for a, b in zip(d1, d2):
        seen.add(a)
        seen.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by min id so every root is its component's minimum
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in seen}


def dedup_connected(docs_ds, pairs_ds, id_col: str = "doc_id"):
    """Transitive-closure dedup: keep exactly one doc (the min id) per
    CONNECTED COMPONENT of the pair graph — handles chains a–b, b–c
    where the greedy pair-min policy could not see a–c.

    Pairs are collected (small by construction), components solved with
    union-find, and the losers dropped by the anti ``hash_join``.
    """
    import ray.data as rd

    pdf = pairs_ds.to_pandas()
    roots = union_find_components(pdf["d1"].tolist(), pdf["d2"].tolist())
    losers = sorted(x for x, r in roots.items() if r != x)
    loser_ds = rd.from_arrow(pa.table({id_col: pa.array(losers, pa.int64())}))
    return hash_join(docs_ds, loser_ds, id_col, how="anti")


def expand_components(pairs_ds, max_component: int = 100_000):
    """Spanning pair set → ALL intra-component pairs (full cliques).

    The LSH pair output is a SPANNING candidate set (chain-compressed,
    see :func:`minhash_lsh_pairs`) — exactly what dedup consumes.  A
    consumer that needs every pair per similarity component (e.g. pair
    auditing, weighted graphs) expands here: components are solved with
    driver-side union-find over the (small) pair list, then each
    component's k·(k-1)/2 pairs are generated DISTRIBUTED, one group
    per component in an exchange keyed by root.  Quadratic by
    definition — components larger than ``max_component`` raise
    instead of silently melting the cluster (lift the cap deliberately).

    Returns a Dataset of (d1, d2) with d1 < d2.
    """
    import ray.data as rd

    pdf = pairs_ds.to_pandas()
    roots = union_find_components(pdf["d1"].tolist(), pdf["d2"].tolist())
    biggest: dict = {}
    for node, root in roots.items():
        biggest[root] = biggest.get(root, 0) + 1
    too_big = {r: n for r, n in biggest.items() if n > max_component}
    if too_big:
        raise ValueError(
            f"components over max_component={max_component}: {too_big} — "
            "full-clique expansion is quadratic; raise the cap deliberately"
        )
    members = pa.Table.from_arrays(
        [
            pa.array(list(roots.values()), pa.int64()),
            pa.array(list(roots.keys()), pa.int64()),
        ],
        names=["root", "member"],
    )

    def clique(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g["member"].to_numpy())
        iu, ju = np.triu_indices(len(ids), 1)
        return pd.DataFrame({"d1": ids[iu], "d2": ids[ju]}).astype(
            {"d1": "int64", "d2": "int64"}
        )

    return exchange_map_groups(
        rd.from_arrow(members), "root", clique, batch_format="pandas"
    )


#: below this many DIRECTED edge rows (2 × pairs) the label propagation
#: is pure fixed exchange latency — a driver union-find labels the same
#: graph in microseconds with bounded memory (the pair set is already
#: materialized and orders of magnitude smaller than the corpus)
CC_SMALL_GRAPH_MAX_EDGES = 400_000


def connected_components(
    pairs_ds,
    node_col: str = "doc_id",
    component_col: str = "component",
    num_buckets: int | None = None,
    max_rounds: int = 64,
    small_graph_max_edges: int | None = CC_SMALL_GRAPH_MAX_EDGES,
):
    """Distributed connected components over a (d1, d2) pair Dataset:
    one (node, component) row per node appearing in any pair, with
    component = the MIN node id reachable from it (ints or strings).

    Graphs at or below ``small_graph_max_edges`` directed edge rows
    take an ADAPTIVE driver union-find cutover (round 5) — identical
    labels, none of the per-round fixed exchange latency that
    dominates gate-scale dup graphs; the distributed path below is the
    scale path and is what the rest of this docstring describes.

    This is the scale path :func:`union_find_components` /
    :func:`expand_components` cannot take — those collect the full pair
    list onto the driver, which breaks when the dup graph itself is
    corpus-sized (crawl snapshots with 40%+ duplication).  Here the
    label state stays a Dataset end-to-end: min-label propagation where
    each round (a) unions the (node, label) state with the static
    directed edge list under ``hash(node) % num_buckets`` tags
    (vectorized splitmix64 for integer nodes, factorized crc32
    otherwise) — the
    same bucketed-groupby join discipline as
    :func:`joins.hash_join`, NOT ``Dataset.join`` — so a
    groupby(bucket) ``map_groups`` can look up each edge source's label
    and send it to the peer, and (b) a second bucketed groupby takes
    the min candidate per node.  Two pair-set-sized shuffles per round,
    nothing driver-resident.

    Labels only ever decrease, so the fixpoint is certified by an exact
    count of changed labels per round (scalar aggregate over the
    materialized state — per-round materialization is REQUIRED for any
    iterative Dataset algorithm; without it lineage re-executes all
    prior rounds).  Since round 5 each round ALSO propagates label ←
    label-of-label (POINTER DOUBLING, a third tagged side riding the
    same two exchanges — see the loop comment), so rounds needed ≈
    log2(graph diameter), not diameter: near-dup components are
    near-cliques (2–3 rounds either way), but chains halve their
    round count and the per-round fixed exchange latency that
    dominates small dup graphs (the dup_cluster_sizes wall) amortizes
    twice as fast.  ``max_rounds`` still guards pathological cases —
    raising it is safe, just slow, and the raise names the knob.
    """
    if num_buckets is None:
        from .joins import derive_num_partitions

        num_buckets = derive_num_partitions(pairs_ds, floor=64)

    import ray.data as rd

    sch = pairs_ds.schema()
    id_type = sch.types[sch.names.index("d1")]
    if not isinstance(id_type, pa.DataType):
        # pandas-backed blocks surface numpy dtypes / python types
        id_type = (
            pa.string()
            if id_type in (str, object)
            else pa.from_numpy_dtype(np.dtype(id_type))
        )
    empty = pa.Table.from_arrays(
        [pa.array([], id_type), pa.array([], id_type)],
        names=[node_col, component_col],
    )

    def both_dirs(b: pa.Table) -> pa.Table:
        d1 = b.column("d1").combine_chunks()
        d2 = b.column("d2").combine_chunks()
        return pa.Table.from_arrays(
            [pa.concat_arrays([d1, d2]), pa.concat_arrays([d2, d1])],
            names=["node", "peer"],
        )

    # materialized once: every round re-reads blocks instead of
    # re-executing the (possibly expensive) pair lineage
    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(empty)
    if small_graph_max_edges and n_edges <= small_graph_max_edges:
        # ADAPTIVE CUTOVER (round 5): at this size every propagation
        # round is pure fixed exchange latency, so label on the driver
        # (same fixpoint — component minima — by construction; the
        # equality is pinned against the distributed path in tests).
        # Pass small_graph_max_edges=0/None to force distribution.
        rows = edges.take_all()
        labels_map = union_find_components(
            [r["node"] for r in rows], [r["peer"] for r in rows]
        )
        ks = sorted(labels_map)
        return rd.from_arrow(
            pa.Table.from_arrays(
                [pa.array(ks, id_type), pa.array([labels_map[k] for k in ks], id_type)],
                names=[node_col, component_col],
            )
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        from .joins import bucket_col

        return b.append_column(
            "bucket", pa.array(bucket_col(b.column("node"), num_buckets), pa.int32())
        )

    def take_min(g: pd.DataFrame) -> pd.DataFrame:
        new = g.groupby("node", sort=False)["cand"].min()
        # groupby-min (not set_index) on the self rows: the init pass
        # carries one self row per INCIDENT EDGE, the loop exactly one
        old = g.loc[g["is_self"] == 1].groupby("node")["cand"].min()
        changed = (new < old.reindex(new.index)).astype("int32")
        return pd.DataFrame(
            {"node": new.index, "label": new.values, "changed": changed.values}
        )

    def min_round(cands):
        from .joins import run_bucket_groups

        return run_bucket_groups(
            cands.map_batches(add_bucket, batch_format="pyarrow"),
            num_buckets,
            take_min,
        ).materialize()

    # init = the first propagation hop: label(node) = min(self, peers)
    def init_cands(b: pa.Table) -> pa.Table:
        node = b.column("node").combine_chunks()
        peer = b.column("peer").combine_chunks()
        n = len(node)
        return pa.Table.from_arrays(
            [
                pa.concat_arrays([node, node]),
                pa.concat_arrays([node, peer]),
                pa.array([1] * n + [0] * n, pa.int8()),
            ],
            names=["node", "cand", "is_self"],
        )

    labels = min_round(edges.map_batches(init_cands, batch_format="pyarrow"))

    # uniform (key, val, side) tagged-union schema shared by all three
    # message kinds; the bucket is always hashed on ``key``:
    #   side 0 — state row:      key=node,  val=label   (label lookup)
    #   side 1 — edge:           key=node,  val=peer    (send label(node) to peer)
    #   side 2 — pointer double: key=label, val=node    (send label(label) to node)
    # Side 2 is the round-5 POINTER-DOUBLING message (label ←
    # label-of-label): labels are always node ids, so ``key=label``
    # lands in the bucket holding that node's own state row and the
    # lookup is one dict hit — the doubling rides the SAME two
    # exchanges per round, and round count drops from O(diameter) to
    # O(log diameter) (a diameter-9 chain converges in 5 rounds, not
    # 10 — each round's reach doubles instead of growing by one hop).
    def tag_edges(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.Table.from_arrays(
            [
                b.column("node"),
                b.column("peer"),
                pa.array(np.ones(n, dtype=np.int8)),
            ],
            names=["key", "val", "side"],
        )

    edges_tagged = edges.map_batches(tag_edges, batch_format="pyarrow").materialize()

    def tag_state(b: pa.Table) -> pa.Table:
        node = b.column("node").combine_chunks()
        lab = b.column("label").combine_chunks()
        n = len(node)
        return pa.Table.from_arrays(
            [
                pa.concat_arrays([node, lab]),
                pa.concat_arrays([lab, node]),
                pa.array(
                    np.concatenate(
                        [np.zeros(n, dtype=np.int8), np.full(n, 2, dtype=np.int8)]
                    )
                ),
            ],
            names=["key", "val", "side"],
        )

    def add_key_bucket(b: pa.Table) -> pa.Table:
        from .joins import bucket_col

        return b.append_column(
            "bucket", pa.array(bucket_col(b.column("key"), num_buckets), pa.int32())
        )

    for _ in range(max_rounds):
        state = labels.select_columns(["node", "label"])
        union = (
            state.map_batches(tag_state, batch_format="pyarrow")
            .union(edges_tagged)
            .map_batches(add_key_bucket, batch_format="pyarrow")
        )

        def emit_msgs(g: pd.DataFrame) -> pd.DataFrame:
            lab = g[g["side"] == 0]
            ed = g[g["side"] == 1]
            dbl = g[g["side"] == 2]
            lmap = dict(zip(lab["key"], lab["val"]))
            edge_cands = [lmap[s] for s in ed["key"]]
            dbl_cands = [lmap[s] for s in dbl["key"]]  # label(label)
            return pd.DataFrame(
                {
                    "node": list(ed["val"]) + list(dbl["val"]) + list(lab["key"]),
                    "cand": edge_cands + dbl_cands + list(lab["val"]),
                    "is_self": [0] * (len(ed) + len(dbl)) + [1] * len(lab),
                }
            )

        from .joins import run_bucket_groups

        labels = min_round(run_bucket_groups(union, num_buckets, emit_msgs))
        if labels.sum("changed") == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in max_rounds={max_rounds} "
            "(graph diameter exceeds it) — raise max_rounds deliberately"
        )

    def rename(b: pa.Table) -> pa.Table:
        return b.select(["node", "label"]).rename_columns([node_col, component_col])

    return labels.map_batches(rename, batch_format="pyarrow")


def dedup_by_pairs(docs_ds, pairs_ds, id_col: str = "doc_id"):
    """Remove every doc that has a smaller near-dup partner: the anti
    ``hash_join`` of the docs against the pairs' ``d2`` ids.

    Greedy min-keep policy (keeps each similarity component's smallest
    id when the pair graph covers the component).  The loser set is
    usually tiny relative to the corpus and broadcasts into a map-side
    filter; a dup-heavy corpus whose loser set outgrows the broadcast
    bound takes the bucketed path, nothing collected — same survivors
    (pinned by the fallback-equality tests); works for any id dtype.
    """
    losers = pairs_ds.select_columns(["d2"]).map_batches(
        lambda b: b.rename_columns([id_col]), batch_format="pyarrow"
    )
    return hash_join(docs_ds, losers, id_col, how="anti")


# --- incremental (crawl-over-crawl) dedup ----------------------------------


def doc_fingerprints(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id, fingerprint) rows: md5 hex of the NORMALIZED text — the
    snapshot artifact one crawl publishes for the next crawl's
    :func:`dedup_against_reference` pass (same form as
    text_stats.fingerprint_batch, re-exported here as the incremental-
    dedup contract)."""

    def fp(b: pa.Table) -> pa.Table:
        norm = normalize_expr(b.column(text_col)).to_pylist()
        fps = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in norm]
        return pa.Table.from_arrays(
            [b.column(id_col), pa.array(fps, pa.string())],
            names=[id_col, "fingerprint"],
        )

    return docs_ds.map_batches(fp, batch_format="pyarrow")


def dedup_against_reference(
    docs_ds,
    ref_fps_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """Incremental dedup: drop documents whose content fingerprint
    already exists in a REFERENCE snapshot (the fingerprints of a prior
    crawl / the corpus already trained on) — the crawl-over-crawl dedup
    every continuously-refreshed training corpus needs.

    ``ref_fps_ds``: Dataset with a ``fingerprint`` column (md5 hex of
    normalized text — :func:`doc_fingerprints` of the prior corpus).

    The filter is the anti ``hash_join`` keyed on the fingerprint: a
    small reference set (a blocklist, an eval-contamination set)
    broadcasts into a map-side filter; a prior crawl — corpus-sized by
    definition — runs bucketed, nothing collected.

    Output: the surviving rows of ``docs_ds``, all columns intact.
    Within the NEW corpus nothing is deduped (compose with
    :func:`dedup_exact`-style passes for that); two new docs sharing a
    fingerprint either both survive or both drop.
    """

    def with_fp(b: pa.Table) -> pa.Table:
        norm = normalize_expr(b.column(text_col)).to_pylist()
        fps = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in norm]
        return b.append_column("_fp", pa.array(fps, pa.string()))

    ref = ref_fps_ds.select_columns(["fingerprint"]).map_batches(
        lambda b: b.rename_columns(["_fp"]), batch_format="pyarrow"
    )
    return hash_join(
        docs_ds.map_batches(with_fp, batch_format="pyarrow"),
        ref,
        "_fp",
        how="anti",
        num_partitions=num_partitions,
    ).drop_columns(["_fp"])


def dedup_minhash_incremental(
    new_ds,
    ref_ds,
    threshold: float = 0.5,
    bands: int = 16,
    group_buckets: int | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
    approx_rows: int | None = None,
):
    """NEAR-dup incremental dedup: drop NEW docs whose estimated minhash
    Jaccard vs ANY reference-corpus doc reaches ``threshold`` — the
    crawl-over-crawl companion of :func:`dedup_against_reference`
    (which is exact-fingerprint only; light paraphrases and boilerplate
    re-wraps of already-trained pages sail through it).

    Both sides run the SAME banded minhash as :func:`minhash_lsh_pairs`
    (one :class:`MinHasher`, one band-key definition — so the SQL
    replication discipline carries over verbatim).  Shuffle shape:
    band rows of both sides union → one exchange keyed by (band, bucket)
    (bucket = band_hash % group_buckets keeps groups bounded at any
    corpus size, exactly as in minhash_lsh_pairs); inside a group a new
    doc is a loser when any same-band-hash reference signature matches
    >= threshold (est = fraction of equal minima; n_perm = 64 → every
    estimate is k/64, exactly representable, so the SQL comparison is
    bit-identical).  New×new and ref×ref collisions are ignored — dedup
    WITHIN the new crawl is a separate op by design.

    The losers drop through the anti ``hash_join``: broadcast while
    near-dups vs the prior crawl are rare, bucketed with nothing
    collected once the loser set is corpus-scale (a dup-heavy crawl).

    ``approx_rows``: combined new+ref row estimate for bucket sizing.
    Leave None only when both sides expose metadata row counts (plain
    ``read_parquet``): a transformed lineage (e.g. a filtered prior
    crawl) would otherwise pay a full ``count()`` execution before the
    real work starts — pass the estimate instead (same contract as
    ``minhash_lsh_pairs(approx_rows=...)``).
    """
    if num_partitions is None:
        num_partitions = derive_num_partitions(new_ds, floor=32)
    hasher = MinHasher()
    if group_buckets is None:
        if approx_rows is None:
            approx_rows = _rows_estimate(new_ds) + _rows_estimate(ref_ds)
        group_buckets = derive_group_buckets(new_ds, approx_rows=approx_rows)

    def band_side(side: int):
        def fn(b: pa.Table) -> pa.Table:
            if text_col != "text":
                b = b.rename_columns(
                    [("text" if n == text_col else n) for n in b.schema.names]
                )
            t = minhash_band_rows(
                b, hasher, bands, id_col=id_col, group_buckets=group_buckets
            )
            return t.append_column("side", pa.array([side] * len(t), pa.int8()))

        return fn

    nb = new_ds.map_batches(band_side(0), batch_format="pyarrow")
    rb = ref_ds.map_batches(band_side(1), batch_format="pyarrow")

    def losers_fn(g: pd.DataFrame) -> pd.DataFrame:
        hit_ids: set = set()
        # only band_hash buckets holding BOTH sides can produce losers
        sides = g.groupby("band_hash")["side"].transform("nunique")
        both = g[sides > 1]
        for _, sub in both.groupby("band_hash", sort=False):
            news = sub[sub["side"] == 0].drop_duplicates("doc_id")
            refs = sub[sub["side"] == 1]
            if news.empty or refs.empty:
                continue
            # UNIQUE signatures on BOTH sides (the _pairs_from_band
            # clique-compression lesson: dense-duplicate buckets are
            # exactly where this op lives, and an n_new x n_ref x 64
            # comparison over raw rows melts the worker there), then the
            # verdicts map back through the inverse index.  The unique x
            # unique comparison is further tiled so peak scratch stays
            # ~64 MB regardless of bucket size.
            ref_sigs = np.unique(
                np.stack([np.frombuffer(s, dtype=np.uint64) for s in refs["signature"]]),
                axis=0,
            )
            raw_new = np.stack(
                [np.frombuffer(s, dtype=np.uint64) for s in news["signature"]]
            )
            uniq_new, inv = np.unique(raw_new, axis=0, return_inverse=True)
            hit_u = np.zeros(len(uniq_new), dtype=bool)
            tile = 1024
            for i in range(0, len(uniq_new), tile):
                nu = uniq_new[i : i + tile]
                for j in range(0, len(ref_sigs), tile):
                    eqf = (nu[:, None, :] == ref_sigs[None, j : j + tile, :]).mean(
                        axis=2
                    )
                    hit_u[i : i + tile] |= (eqf >= threshold).any(axis=1)
            hit_ids.update(news["doc_id"].to_numpy()[hit_u[inv]].tolist())
        return pd.DataFrame(
            {id_col: pd.Series(sorted(hit_ids), dtype=g["doc_id"].dtype)}
        )

    losers = exchange_map_groups(
        nb.union(rb),
        ["band", "bucket"],
        losers_fn,
        num_partitions,
        batch_format="pandas",
    )
    return hash_join(new_ds, losers, id_col, how="anti", num_partitions=num_partitions)


# --- simhash ---------------------------------------------------------------


def _token_hash64(token: str) -> int:
    """md5 upper 64 bits little-endian — byte-equal to DuckDB
    ``md5_number_upper`` (was blake2b; switched round 3 so the whole
    simhash — bit sums, band keys, hamming — is SQL-reproducible and
    simhash_pairs carries a full hash oracle)."""
    return int.from_bytes(hashlib.md5(token.encode()).digest()[:8], "little")


def simhash64(text: str) -> int:
    toks = text.split(" ") if text else []
    if not toks:
        return 0
    hs = np.fromiter((_token_hash64(t) for t in toks), dtype=np.uint64, count=len(toks))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.int32)
    acc = (2 * bits - 1).sum(axis=0)
    fp = np.uint64(0)
    for i in range(64):
        if acc[i] > 0:
            fp |= np.uint64(1) << np.uint64(i)
    return int(fp)


def simhash_band_rows(batch: pa.Table, bands: int = 4, group_buckets: int = 1) -> pa.Table:
    """documents → (band, bucket, band_key, doc_id, fingerprint) rows.

    4 bands × 16 bits: any pair at hamming distance ≤ 3 collides in ≥ 1
    band (pigeonhole), so in-group hamming verify is exhaustive for k≤3.
    ``bucket = band_key % group_buckets`` bounds group sizes at scale
    (see minhash_band_rows).
    """
    ids = batch.column("doc_id").to_pylist()
    norm = normalize_expr(batch.column("text")).to_pylist()
    width = 64 // bands
    mask = (1 << width) - 1
    ob, ok, oi, of = [], [], [], []
    for doc_id, text in zip(ids, norm):
        fp = simhash64(text)
        for b in range(bands):
            ob.append(b)
            ok.append((fp >> (b * width)) & mask)
            oi.append(doc_id)
            of.append(fp)
    key_arr = np.asarray(ok, dtype=np.uint64)
    return pa.Table.from_arrays(
        [
            pa.array(ob, pa.int32()),
            pa.array((key_arr % np.uint64(max(group_buckets, 1))).astype(np.int32)),
            pa.array(key_arr, pa.uint64()),
            pa.array(oi, pa.int64()),
            pa.array(of, pa.uint64()),
        ],
        names=["band", "bucket", "band_key", "doc_id", "fingerprint"],
    )


def _simhash_pairs_band(g: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """One band's frame → verified pairs; bucket by band_key with
    vectorized pandas (singleton buckets skipped in C)."""
    multi = g[g.groupby("band_key")["doc_id"].transform("size") > 1]
    parts = []
    for _, sub in multi.groupby("band_key", sort=False):
        sub = sub.drop_duplicates("doc_id").sort_values("doc_id")
        n = len(sub)
        if n < 2:
            continue
        all_ids = sub["doc_id"].to_numpy()
        all_fps = sub["fingerprint"].to_numpy(dtype=np.uint64)
        # clique compression (see _pairs_from_band): identical
        # fingerprints chain at hamming 0; cross-cluster hamming runs on
        # one representative per fingerprint value
        uniq, first_idx, inverse = np.unique(
            all_fps, return_index=True, return_inverse=True
        )
        for c in np.nonzero(np.bincount(inverse) > 1)[0]:
            members = np.sort(all_ids[inverse == c])
            parts.append(
                pd.DataFrame({"d1": members[:-1], "d2": members[1:], "hamming": 0})
            )
        ids = all_ids[first_idx]
        order = np.argsort(ids)
        ids, fps = ids[order], uniq[order]
        n = len(ids)
        if n < 2:
            continue
        x = fps[:, None] ^ fps[None, :]
        # vectorized popcount via 8-bit lookup on the bytes view
        lut = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)
        ham = lut[x.view(np.uint8)].reshape(n, n, 8).sum(axis=2)
        iu, ju = np.triu_indices(n, 1)
        keep = ham[iu, ju] <= max_hamming
        if keep.any():
            parts.append(
                pd.DataFrame(
                    {
                        "d1": ids[iu[keep]],
                        "d2": ids[ju[keep]],
                        "hamming": ham[iu[keep], ju[keep]].astype("int64"),
                    }
                )
            )
    if not parts:
        return pd.DataFrame({"d1": [], "d2": [], "hamming": []}).astype(
            {"d1": "int64", "d2": "int64", "hamming": "int64"}
        )
    return pd.concat(parts, ignore_index=True).astype(
        {"d1": "int64", "d2": "int64", "hamming": "int64"}
    )


def simhash_pairs(
    docs_ds,
    max_hamming: int = 3,
    bands: int = 4,
    group_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Near-dup pairs at hamming ≤ ``max_hamming`` (exhaustive for ≤ 3
    with 4 bands, pigeonhole).  ``group_buckets=None`` derives a
    scale-safe shuffle-group count from the corpus size (see
    :func:`derive_group_buckets`)."""
    if group_buckets is None:
        group_buckets = derive_group_buckets(docs_ds, approx_rows)
    rows = docs_ds.map_batches(
        lambda b: simhash_band_rows(b, bands, group_buckets),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    P = derive_num_partitions(docs_ds, approx_rows=approx_rows)
    pairs = exchange_map_groups(
        rows,
        ["band", "bucket"],
        lambda g: _simhash_pairs_band(g, max_hamming),
        P,
        batch_format="pandas",
    )

    return exchange_aggregate(pairs, ["d1", "d2"], [("hamming", "min", "hamming")])


# --- exact n-gram Jaccard (inverted-index verifier) ------------------------

#: hard cap for the exact verifier — the broadcast side holds every doc's
#: shingle hashes, so this path is for verification corpora only;
#: minhash_lsh_pairs is the scale path.
NGRAM_JACCARD_MAX_DOCS = 1_000_000

#: co-occurrence rows (query shingle × posting) expanded at once by
#: :func:`ngram_jaccard_pairs_batch`: bounds its scratch memory however
#: many documents share a shingle.
JACCARD_SLICE_ROWS = 1 << 20


class ShingleIndex(NamedTuple):
    """Inverted index over the broadcast side of the exact verifier
    (the all-pairs layout of Bayardo, Ma & Srikant, WWW 2007).

    ``hashes``: every doc's distinct shingle hashes, sorted;
    ``owners``: per hash, the rank of its doc in ``ids``;
    ``ids``: the distinct doc ids, ascending; ``sizes``: per doc, the
    size of its shingle set.
    """

    hashes: np.ndarray
    owners: np.ndarray
    ids: np.ndarray
    sizes: np.ndarray


def _range_rows(starts, lengths, ends, lo: int, hi: int):
    """Rows ``lo:hi`` of the concatenated ranges
    ``[starts[k], starts[k] + lengths[k])`` (``ends = cumsum(lengths)``)
    → (range index k, position) per row."""
    rows = np.arange(lo, hi, dtype=np.int64)
    k = np.searchsorted(ends, rows, side="right")
    return k, starts[k] + rows - (ends[k] - lengths[k])


def _shingle_index(ids, sizes, values) -> ShingleIndex:
    """Index the rows ``(ids[i], shingle set i)``, where ``values`` holds
    the sets concatenated in row order and ``sizes`` their lengths.  A
    repeated id keeps its LAST row (dict-assignment semantics)."""
    ids = np.asarray(ids, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    values = np.asarray(values, dtype=np.uint64)
    uniq, last = np.unique(ids[::-1], return_index=True)
    rows = ids.size - 1 - last
    lengths = sizes[rows]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    _, pos = _range_rows((np.cumsum(sizes) - sizes)[rows], lengths, ends, 0, total)
    hashes = values[pos]
    owners = np.repeat(np.arange(uniq.size, dtype=np.int64), lengths)
    order = np.argsort(hashes, kind="stable")
    return ShingleIndex(hashes[order], owners[order], uniq, lengths)


def _check_jaccard_threshold(threshold: float) -> None:
    if not threshold > 0:
        raise ValueError(
            f"threshold={threshold!r}: the exact n-gram Jaccard verifier needs "
            "threshold > 0 (it only sees pairs that share a shingle)"
        )


def ngram_jaccard_pairs(docs_ds, n: int = 3, threshold: float = 0.5, max_docs: int = NGRAM_JACCARD_MAX_DOCS):
    """Exact all-pairs token-set Jaccard (d1 < d2, jaccard ≥ threshold,
    ``0 < threshold``).

    Shingling runs DISTRIBUTED in map_batches, once per document: the
    compact (doc_id, hashes) rows are materialized, the driver reads
    them to build one :class:`ShingleIndex` and ships it once with
    ``ray.put`` (guarded at ``max_docs``).  Each batch of the same rows
    then verifies against the index
    (:func:`ngram_jaccard_pairs_batch`): the cost is proportional to the
    co-occurring shingle pairs, not to all n² doc pairs.  Worst case —
    every doc shares every shingle — that is n²·|set| rows, in bounded
    memory; use :func:`minhash_lsh_pairs` at scale.
    """
    import ray

    _check_jaccard_threshold(threshold)
    shingled = docs_ds.map_batches(
        lambda b: shingle_rows(b, n), batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    ids, sizes, values = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.uint64)]
    seen: set = set()
    for b in shingled.iter_batches(batch_format="pyarrow"):
        b_ids, b_sizes, b_values = _shingle_columns(b)
        ids.append(b_ids)
        sizes.append(b_sizes)
        values.append(b_values)
        seen.update(b_ids.tolist())
        if len(seen) > max_docs:
            raise ValueError(
                f"ngram_jaccard_pairs is the exact small-corpus verifier "
                f"(> {max_docs} docs); use minhash_lsh_pairs at scale"
            )
    ref = ray.put(_shingle_index(*map(np.concatenate, (ids, sizes, values))))
    return shingled.map_batches(
        lambda b: ngram_jaccard_pairs_batch(b, ref, n, threshold),
        batch_format="pyarrow",
    )


def shingle_rows(batch: pa.Table, n: int) -> pa.Table:
    """(doc_id, text) batch → (doc_id, hashes): each doc's distinct
    shingle hashes (:func:`shingle_hashes` of its normalized text)."""
    ids = batch.column("doc_id").to_pylist()
    norm = normalize_expr(batch.column("text")).to_pylist()
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(
                [shingle_hashes(t, n).tolist() for t in norm], pa.list_(pa.uint64())
            ),
        ],
        names=["doc_id", "hashes"],
    )


def _shingle_columns(batch: pa.Table):
    """(ids, set sizes, concatenated hashes) of a (doc_id, hashes) batch."""
    import pyarrow.compute as pc

    hashes = batch.column("hashes").combine_chunks()
    return (
        np.asarray(batch.column("doc_id").to_numpy(), np.int64),
        np.asarray(pc.list_value_length(hashes).to_numpy(), np.int64),
        np.asarray(hashes.flatten().to_numpy(), np.uint64),
    )


def _resolve_index(index_ref) -> ShingleIndex:
    if index_ref is None:
        index_ref = {}
    if isinstance(index_ref, dict):
        sets = [np.asarray(v, dtype=np.uint64) for v in index_ref.values()]
        return _shingle_index(
            list(index_ref),
            [s.size for s in sets],
            np.concatenate(sets) if sets else np.empty(0, np.uint64),
        )
    if isinstance(index_ref, ShingleIndex):
        return index_ref
    import ray

    return ray.get(index_ref)


def ngram_jaccard_pairs_batch(batch: pa.Table, index_ref, n: int, threshold: float) -> pa.Table:
    """Per-batch exact Jaccard of each doc vs every LARGER doc_id of the
    index that shares a shingle with it.

    ``batch`` holds ``doc_id`` and either ``text`` (shingled here) or
    ``hashes`` (:func:`shingle_rows`, what ``ngram_jaccard_pairs``
    passes: it shingles every doc once).  ``index_ref`` is a
    ``ray.put`` :class:`ShingleIndex` — shipped once
    per task/actor, not per batch (a ShingleIndex or a plain
    ``{doc_id: shingle-hash ndarray}`` dict is accepted for unit tests).
    Each query shingle's postings are a ``searchsorted`` range of the
    index; the (doc, partner) co-occurrences are expanded in slices of
    ``JACCARD_SLICE_ROWS`` rows and counted with ``np.unique``, so the
    cost is proportional to the co-occurring shingle pairs and the
    scratch memory stays bounded (a shingle in every doc costs O(n) per
    doc).  Rows: d1 in batch order, d2 ascending;
    ``jaccard = round(inter / (|a| + |b| - inter), 6)``.
    """
    _check_jaccard_threshold(threshold)
    index = _resolve_index(index_ref)
    if "hashes" in batch.column_names:
        ids, q_sizes, q_hash = _shingle_columns(batch)
    else:
        ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
        norm = normalize_expr(batch.column("text")).to_pylist()
        mine = [shingle_hashes(t, n) for t in norm]
        q_sizes = np.array([m.size for m in mine], dtype=np.int64)
        q_hash = np.concatenate(mine) if mine else np.empty(0, np.uint64)
    q_doc = np.repeat(np.arange(ids.size, dtype=np.int64), q_sizes)
    starts = np.searchsorted(index.hashes, q_hash, side="left")
    lengths = np.searchsorted(index.hashes, q_hash, side="right") - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    # partners have a larger id: owner rank >= the first rank above the doc
    min_owner = np.searchsorted(index.ids, ids, side="right")
    n_owners = max(index.ids.size, 1)

    d1, d2, jac = [], [], []

    def emit(keys, inter):
        q, o = keys // n_owners, keys % n_owners
        j = inter / (q_sizes[q] + index.sizes[o] - inter)
        ok = j >= threshold
        d1.append(ids[q[ok]])
        d2.append(index.ids[o[ok]])
        jac.extend(round(x, 6) for x in j[ok].tolist())

    carry_keys = carry_counts = np.empty(0, np.int64)
    for lo in range(0, total, JACCARD_SLICE_ROWS):
        hi = min(lo + JACCARD_SLICE_ROWS, total)
        k, pos = _range_rows(starts, lengths, ends, lo, hi)
        q, owner = q_doc[k], index.owners[pos]
        keep = owner >= min_owner[q]
        keys, counts = np.unique(q[keep] * n_owners + owner[keep], return_counts=True)
        if carry_keys.size:
            keys, inv = np.unique(np.r_[carry_keys, keys], return_inverse=True)
            counts = np.bincount(inv, np.r_[carry_counts, counts]).astype(np.int64)
        # every doc before the next slice's first doc is complete
        done = keys.size
        if hi < total:
            next_doc = q_doc[np.searchsorted(ends, hi, side="right")]
            done = int(np.searchsorted(keys, next_doc * n_owners))
        emit(keys[:done], counts[:done])
        carry_keys, carry_counts = keys[done:], counts[done:]
    return pa.Table.from_arrays(
        [
            pa.array(np.concatenate(d1) if d1 else [], pa.int64()),
            pa.array(np.concatenate(d2) if d2 else [], pa.int64()),
            pa.array(jac, pa.float64()),
        ],
        names=["d1", "d2", "jaccard"],
    )


def dedup_fuzzy_keep_best(
    docs_ds,
    id_col: str = "doc_id",
    quality_col: str = "n_chars",
    threshold: float = 0.5,
):
    """NEAR-dup dedup keeping each duplicate cluster's QUALITY winner
    (max ``quality_col``, ties -> min id) instead of the min-id winner —
    what production fuzzy dedup actually ships: of a boilerplate-
    trimmed page and its full-length twin, keep the longer one.

    Composition of existing scale paths: :func:`minhash_lsh_pairs`
    (spanning candidate set) -> :func:`connected_components`
    (distributed min-label propagation), then the winner pass, picked
    from the label set's size (:func:`joins.dim_ref_adaptive`):

    * labels fit the broadcast bound (they are the DUP SUBSET, not the
      corpus): they broadcast once; unlabeled docs survive map-only,
      and the winners are a driver reduce over per-block partials —
      the expensive stages scale with the duplicate count.
    * past the bound (the dup subset itself is corpus-scale, 40%+ dup
      crawls): nothing driver-collected — bucketed ``hash_join``
      how="left" back onto (id, quality) + corpus-wide ``keep_latest``
      (quality round-trips float64 through the left join, so
      qualities must stay < 2^53).

    Both give the same survivors.  Returns them as one ``id_col``
    column.
    """
    import ray

    import pyarrow.compute as pc

    from .versions import keep_latest

    pairs = minhash_lsh_pairs(docs_ds, threshold=threshold)
    ref, comps = dim_ref_adaptive(
        connected_components(pairs, node_col=id_col), id_col, ["component"]
    )

    if ref is not None:

        def _stamp(b: pa.Table):
            """(matched mask, ids, components) of the batch's labeled rows."""
            dim = ray.get(ref)
            ids = np.asarray(
                b.column(id_col).to_numpy(zero_copy_only=False), np.int64
            )
            matched, pos = dim_lookup(ids, dim)
            comp = dim[1]["component"].take(pa.array(pos[matched]))
            comp = np.asarray(comp.to_numpy(zero_copy_only=False), np.int64)
            return matched, ids[matched], comp

        def singles(b: pa.Table) -> pa.Table:
            matched, _, _ = _stamp(b)
            return b.filter(pa.array(~matched)).select([id_col])

        def winner_partials(b: pa.Table) -> pa.Table:
            """Per-block best (q desc, id asc) per component — the
            global winner reduce is then DRIVER-SIDE over <= |labels|
            partial rows (the bounded-final driver-reduce rule): a
            per-cluster keep_latest exchange would pay a full
            all-to-all of fixed latency to pick winners among rows
            whose label set is already broadcast."""
            matched, ids, comp = _stamp(b)
            q = np.asarray(
                b.column(quality_col).to_numpy(zero_copy_only=False)
            )[matched]
            # best per component: sort (component asc, q desc, id asc)
            o = np.lexsort((ids, -q, comp))
            comp, ids, q = comp[o], ids[o], q[o]
            first = np.concatenate([[True], comp[1:] != comp[:-1]])[: len(comp)]
            return pa.Table.from_arrays(
                [
                    pa.array(ids[first], pa.int64()),
                    pa.array(comp[first], pa.int64()),
                    pa.array(q[first], b.schema.field(quality_col).type),
                ],
                names=[id_col, "component", "q"],
            )

        single_ids = docs_ds.map_batches(
            singles, batch_format="pyarrow", zero_copy_batch=True
        )
        parts = docs_ds.map_batches(
            winner_partials, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        if parts:
            pdf = pd.DataFrame(parts).sort_values(
                ["q", id_col], ascending=[False, True], kind="stable"
            )
            win = pdf.drop_duplicates("component")[id_col].astype("int64")
            winner_tbl = pa.Table.from_arrays(
                [pa.array(np.sort(win.to_numpy()))], names=[id_col]
            )
        else:
            winner_tbl = pa.Table.from_arrays(
                [pa.array([], pa.int64())], names=[id_col]
            )
        import ray.data as rd

        return single_ids.union(rd.from_arrow(winner_tbl))

    labeled = hash_join(
        docs_ds.map_batches(
            lambda b: b.select([id_col, quality_col]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        comps,
        key_col=id_col,
        right_value_cols=["component"],
        how="left",
    )

    def coalesce_comp(b: pa.Table) -> pa.Table:
        # an all-miss batch types component_r as null — cast first
        comp = pc.coalesce(
            b.column("component_r").cast(pa.float64()),
            b.column(id_col).cast(pa.float64()),
        )
        q = b.column(quality_col).cast(pa.float64())
        return pa.Table.from_arrays(
            [b.column(id_col), comp, q], names=[id_col, "component", "q"]
        )

    labeled = labeled.map_batches(
        coalesce_comp, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # keep_latest's schema validation would re-run the join
    winners = keep_latest(labeled, key_col="component", ts_col="q", tie_col=id_col)
    return winners.map_batches(
        lambda b: b.select([id_col]), batch_format="pyarrow", zero_copy_batch=True
    )


def dup_cluster_sizes(docs_ds, pairs_ds, id_col: str = "doc_id"):
    """Near-duplicate CLUSTER SIZE distribution — the dedup-tuning
    dashboard number (how much of the corpus sits in 2-clusters vs
    giant cliques decides band/threshold settings and predicts dedup
    yield): (size, n_clusters) over connected components of
    ``pairs_ds``, with every unpaired document counted as its own
    singleton cluster.

    Scale shape: distributed CC over the pair set (bucketed min-label
    propagation — the repo's connected_components), then the labels
    are stamped onto the id stream, picked from the label set's size
    (:func:`joins.dim_ref_adaptive`):

    * labels fit the broadcast bound (they are the DUP SUBSET, not the
      corpus): they broadcast into a map-only stamp, and — because a
      singleton appears in exactly one block and a real component's
      partial rows are bounded by |labels| + blocks — the histogram
      finishes as a DRIVER reduce over tiny partials (the
      bounded-final driver-reduce rule): zero post-scan exchanges.
    * past the bound: one bucketed LEFT hash join stamps components
      (singletons coalesce to their own id), a per-block partial count
      per component, a #components-scale groupby, a per-block
      size-histogram partial and a ≤ max-cluster-size-sized final
      groupby.  Nothing is driver-collected.
    """
    import pyarrow.compute as pc

    ref, cc = dim_ref_adaptive(
        connected_components(pairs_ds, node_col=id_col), id_col, ["component"]
    )
    if ref is not None:
        import ray
        import ray.data as rd

        def stamp_partials(b: pa.Table) -> pa.Table:
            """Per-block (component, n) counts for MATCHED ids plus one
            (null, n_misses) singleton-count row."""
            dim = ray.get(ref)
            ids = np.asarray(b.column(id_col).to_numpy(zero_copy_only=False))
            matched, pos = dim_lookup(ids, dim)
            vc = pc.value_counts(dim[1]["component"].take(pa.array(pos[matched])))
            comp, n = vc.field("values"), vc.field("counts")
            miss = pa.array([int((~matched).sum())], n.type)
            return pa.Table.from_arrays(
                [
                    pa.concat_arrays([comp, pa.nulls(1, comp.type)]),
                    pa.concat_arrays([n, miss]),
                ],
                names=["component", "n"],
            )

        parts = docs_ds.map_batches(
            lambda b: stamp_partials(b.select([id_col])),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()
        comp_sum: dict = {}
        singletons = 0
        for row in parts:
            if row["component"] is None:
                singletons += row["n"]
            else:
                comp_sum[row["component"]] = comp_sum.get(row["component"], 0) + row["n"]
        hist: dict = {}
        for size in comp_sum.values():
            hist[size] = hist.get(size, 0) + 1
        if singletons:
            hist[1] = hist.get(1, 0) + singletons
        sizes_sorted = sorted(hist)
        return rd.from_arrow(
            pa.Table.from_arrays(
                [
                    pa.array(sizes_sorted, pa.int64()),
                    pa.array([hist[s] for s in sizes_sorted], pa.int64()),
                ],
                names=["size", "n_clusters"],
            )
        )

    ids = docs_ds.map_batches(
        lambda b: b.select([id_col]), batch_format="pyarrow"
    )
    labeled = hash_join(
        ids,
        cc,
        id_col,
        right_value_cols=["component"],
        how="left",
    )

    def comp_parts(b: pa.Table) -> pa.Table:
        # LEFT-join misses are float NaN (an all-miss batch even types
        # component_r as Arrow null) — coalesce in Arrow like
        # dedup_fuzzy_keep_best does, never pandas fillna downcasting;
        # singleton component = own id.  ids are int64 < 2^53 by the
        # repo's id contract for float64 round-trips (the documented
        # hash_join "left" caveat)
        lab = pc.coalesce(
            b.column("component_r").cast(pa.float64()),
            b.column(id_col).cast(pa.float64()),
        ).cast(pa.int64()).to_pandas()
        g = lab.value_counts().reset_index()
        g.columns = ["component", "n"]
        return pa.Table.from_arrays(
            [
                pa.array(g["component"].astype("int64")),
                pa.array(g["n"].astype("int64")),
            ],
            names=["component", "n"],
        )

    sizes = exchange_aggregate(
        labeled.map_batches(comp_parts, batch_format="pyarrow"),
        "component",
        [("n", "sum", "size")],
    )

    def size_parts(b: pa.Table) -> pa.Table:
        g = b.column("size").to_pandas().value_counts().reset_index()
        g.columns = ["size", "nc"]
        return pa.Table.from_arrays(
            [pa.array(g["size"].astype("int64")), pa.array(g["nc"].astype("int64"))],
            names=["size", "nc"],
        )

    return exchange_aggregate(
        sizes.map_batches(size_parts, batch_format="pyarrow"),
        "size",
        [("nc", "sum", "n_clusters")],
    )
