"""Dedup operator tests: planted near-dups in the driver testdata (25
pairs with 3-gram Jaccard ≥ 0.9 at sf0.001/sf0.01) plus synthetic
fixtures for exact-dup and policy checks."""

import numpy as np
import pyarrow as pa
import pytest

from ocr_lib_ray.functions.dedup import (
    MinHasher,
    ngram_jaccard_pairs_batch,
    shingle_hashes,
    simhash64,
    simhash_band_rows,
)


def exact_jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = shingle_hashes(a, n), shingle_hashes(b, n)
    inter = np.intersect1d(sa, sb).size
    return inter / (sa.size + sb.size - inter)


def test_shingles_deterministic_and_distinct():
    s1 = shingle_hashes("a b c d", 3)
    s2 = shingle_hashes("a b c d", 3)
    assert (s1 == s2).all()
    assert shingle_hashes("a b", 3).size == 1  # short doc → whole-text shingle
    assert shingle_hashes("", 3).size == 0


def test_minhash_estimates_jaccard():
    base = " ".join(f"w{i}" for i in range(100))
    near = " ".join(f"w{i}" for i in range(95)) + " x1 x2 x3 x4 x5"
    far = " ".join(f"z{i}" for i in range(100))
    h = MinHasher(num_perm=128)
    est_near = (h.signature(base) == h.signature(near)).mean()
    est_far = (h.signature(base) == h.signature(far)).mean()
    true_near = exact_jaccard(base, near)
    assert abs(est_near - true_near) < 0.15
    assert est_far < 0.05


def test_signature_stable_across_instances():
    a = MinHasher(seed=42).signature("alpha beta gamma delta")
    b = MinHasher(seed=42).signature("alpha beta gamma delta")
    assert (a == b).all()


def test_simhash_properties():
    a = simhash64("the quick brown fox jumps over the lazy dog")
    b = simhash64("the quick brown fox jumps over the lazy cat")
    c = simhash64("completely different words entirely unrelated stuff")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac
    assert simhash64("") == 0
    assert simhash64("the quick brown fox jumps over the lazy dog") == a


def test_simhash_band_pigeonhole():
    """hamming ≤ 3 with 4 bands ⇒ at least one identical 16-bit band."""
    fp = simhash64("some document text here")
    batch = pa.Table.from_arrays(
        [pa.array([1], pa.int64()), pa.array(["some document text here"], pa.string())],
        names=["doc_id", "text"],
    )
    rows = simhash_band_rows(batch, bands=4)
    assert rows.num_rows == 4
    keys = rows.column("band_key").to_pylist()
    rebuilt = sum(k << (16 * b) for b, k in enumerate(keys))
    assert rebuilt == fp


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_finds_planted_pairs(sf_small):
    """The driver testdata plants near-dup pairs (3-gram J ≈ 0.9+);
    minhash-LSH at est-threshold 0.8 must find exactly the high-J pairs
    it is sensitive to — verified against exact Jaccard."""
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import minhash_lsh_pairs

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    found = minhash_lsh_pairs(docs, threshold=0.8).to_pandas()
    import pyarrow.parquet as pq

    from ocr_lib_ray.functions.dedup import union_find_components

    t = pq.read_table(f"{sf_small}/documents.parquet")
    texts = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    # every reported pair is a true near-dup
    for d1, d2 in zip(found["d1"], found["d2"]):
        assert exact_jaccard(texts[d1], texts[d2]) >= 0.6, (d1, d2)
    # every planted gold pair (exact J >= 0.9) is CONNECTED in the
    # found-pair graph (the spanning-set contract: signature-identical
    # clusters are chain-compressed, so direct pairs are not guaranteed)
    ids = sorted(texts)
    gold = {
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if exact_jaccard(texts[a], texts[b]) >= 0.9
    }
    assert gold, "testdata should contain planted near-dups"
    roots = union_find_components(found["d1"].tolist(), found["d2"].tolist())
    for a, b in gold:
        assert roots.get(a) is not None and roots.get(a) == roots.get(b), (a, b)


@pytest.mark.usefixtures("ray_session")
def test_minhash_group_buckets_invariant(sf_small):
    """Candidate recall must be identical at any group_buckets value
    (equal band_hash always lands in the same bucket)."""
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import minhash_lsh_pairs

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    a = minhash_lsh_pairs(docs, threshold=0.8, group_buckets=1).to_pandas()
    b = minhash_lsh_pairs(docs, threshold=0.8, group_buckets=64).to_pandas()
    key = lambda df: sorted(zip(df["d1"], df["d2"], df["est_jaccard"]))
    assert key(a) == key(b)
    # the DERIVED default (group_buckets=None — what the driver queries
    # run) must match the explicit values too
    c = minhash_lsh_pairs(docs, threshold=0.8).to_pandas()
    assert key(a) == key(c)


@pytest.mark.usefixtures("ray_session")
def test_derived_group_buckets_scale():
    """The default sizing must bound groups: ~rows/100k buckets, min 1."""
    from ocr_lib_ray.functions.dedup import derive_group_buckets

    assert derive_group_buckets(None, approx_rows=500) == 1
    assert derive_group_buckets(None, approx_rows=100_000) == 1
    assert derive_group_buckets(None, approx_rows=100_001) == 2
    assert derive_group_buckets(None, approx_rows=10**12) == 10**7


@pytest.mark.usefixtures("ray_session")
def test_simhash_group_buckets_invariant(sf_small):
    """Simhash pair output is invariant across bucket counts, including
    the derived default the driver query runs."""
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import simhash_pairs

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    key = lambda df: sorted(zip(df["d1"], df["d2"], df["hamming"]))
    a = simhash_pairs(docs, max_hamming=3, group_buckets=1).to_pandas()
    b = simhash_pairs(docs, max_hamming=3, group_buckets=64).to_pandas()
    c = simhash_pairs(docs, max_hamming=3).to_pandas()
    assert key(a) == key(b) == key(c)


@pytest.mark.usefixtures("ray_session")
def test_minhash_verify_modes_agree(sf_small):
    """In-group verify (chain-compressed) and join-verify (full pairs)
    must produce the same connected components — the dedup-relevant
    equivalence."""
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import minhash_lsh_pairs, union_find_components

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    a = minhash_lsh_pairs(docs, threshold=0.8, carry_signatures=True).to_pandas()
    b = minhash_lsh_pairs(docs, threshold=0.8, carry_signatures=False).to_pandas()

    def components(df):
        roots = union_find_components(df["d1"].tolist(), df["d2"].tolist())
        comps: dict = {}
        for node, root in roots.items():
            comps.setdefault(root, set()).add(node)
        # sorted member lists: frozensets only order by inclusion, so a
        # sorted() of them depends on the input row order
        return sorted(sorted(c) for c in comps.values())

    assert components(a) == components(b)


@pytest.mark.usefixtures("ray_session")
def test_expand_components_full_cliques():
    """Chain a-b, b-c, plus isolated pair x-y → cliques {ab,ac,bc} and
    {xy}; oversized components refuse."""
    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import expand_components

    pairs = rd.from_pandas(
        pd.DataFrame({"d1": [1, 2, 10], "d2": [2, 3, 11], "w": [0.9, 0.9, 0.9]})
    )
    out = expand_components(pairs).to_pandas()
    got = sorted(zip(out["d1"], out["d2"]))
    assert got == [(1, 2), (1, 3), (2, 3), (10, 11)]
    with pytest.raises(ValueError, match="max_component"):
        expand_components(pairs, max_component=2)


@pytest.mark.usefixtures("ray_session")
def test_connected_components_matches_union_find():
    """Distributed min-label propagation == driver union-find on a
    chain + clique + isolated-pair graph, at two bucket counts (the
    partitioning must not leak into the result)."""
    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import (
        connected_components,
        union_find_components,
    )

    d1 = [1, 2, 3, 50, 51, 50, 90]
    d2 = [2, 3, 4, 51, 52, 52, 91]
    pairs = rd.from_pandas(pd.DataFrame({"d1": d1, "d2": d2}))
    want = union_find_components(d1, d2)
    for buckets in (1, 7):
        out = (
            connected_components(
                pairs, num_buckets=buckets, small_graph_max_edges=0
            )
            .to_pandas()
            .sort_values("doc_id")
        )
        got = dict(zip(out["doc_id"], out["component"]))
        assert got == want, buckets
    # adaptive small-graph cutover (the default) must label identically
    adaptive = connected_components(pairs).to_pandas()
    assert dict(zip(adaptive["doc_id"], adaptive["component"])) == want


@pytest.mark.usefixtures("ray_session")
def test_connected_components_string_ids_and_long_chain():
    """String node ids work (min = lexicographic); a diameter-9 chain
    converges; max_rounds=1 on it raises instead of returning a wrong
    fixpoint."""
    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import connected_components

    urls = [f"https://x/{c}" for c in "abcdefghij"]
    pairs = rd.from_pandas(
        pd.DataFrame({"d1": urls[:-1], "d2": urls[1:]})
    )
    out = connected_components(
        pairs, node_col="url", small_graph_max_edges=0
    ).to_pandas()
    assert set(out["component"]) == {urls[0]}
    assert len(out) == len(urls)
    # pointer-doubling regression pin: reach doubles per round, so the
    # diameter-9 chain converges (incl. the certifying zero-change
    # round) within 5 rounds — plain propagation needed 10
    out5 = connected_components(
        pairs, node_col="url", max_rounds=5, small_graph_max_edges=0
    ).to_pandas()
    assert set(out5["component"]) == {urls[0]}
    with pytest.raises(RuntimeError, match="max_rounds"):
        connected_components(pairs, max_rounds=1, small_graph_max_edges=0)


@pytest.mark.usefixtures("ray_session")
def test_connected_components_empty_pairs():
    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import connected_components

    pairs = rd.from_pandas(
        pd.DataFrame({"d1": pd.array([], dtype="int64"), "d2": pd.array([], dtype="int64")})
    )
    out = connected_components(pairs)
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "component"]


@pytest.mark.usefixtures("ray_session")
def test_dedup_by_pairs_keeps_min(sf_small):
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import dedup_by_pairs, minhash_lsh_pairs

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.8)
    pairs_df = pairs.to_pandas()
    survivors = set(dedup_by_pairs(docs, pairs).to_pandas()["doc_id"])
    losers = set(pairs_df["d2"])
    all_ids = set(docs.to_pandas()["doc_id"])
    assert survivors == all_ids - losers
    # the smaller member of every pair survives unless itself a loser
    for d1 in pairs_df["d1"]:
        if d1 not in losers:
            assert d1 in survivors



def test_union_find_chain():
    """Chain a-b, b-c without a-c: component min survives, both others
    drop — the transitive case greedy pair-min cannot prove."""
    from ocr_lib_ray.functions.dedup import union_find_components

    roots = union_find_components([10, 20], [20, 30])
    assert roots == {10: 10, 20: 10, 30: 10}
    # two components + order independence
    roots2 = union_find_components([5, 1, 9], [3, 3, 8])
    assert roots2[5] == 1 and roots2[3] == 1 and roots2[1] == 1
    assert roots2[9] == 8 and roots2[8] == 8


@pytest.mark.usefixtures("ray_session")
def test_dedup_connected_equals_by_pairs_on_testdata(sf_small):
    """On the planted testdata the components are small cliques, so the
    transitive policy and the greedy policy agree — and both drop the
    right docs."""
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import (
        dedup_by_pairs,
        dedup_connected,
        minhash_lsh_pairs,
    )

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.8)
    a = set(dedup_connected(docs, pairs).to_pandas()["doc_id"])
    pairs2 = minhash_lsh_pairs(docs, threshold=0.8)
    b = set(dedup_by_pairs(docs, pairs2).to_pandas()["doc_id"])
    assert a == b


def test_exact_ngram_pairs_batch_no_ray_broadcast():
    batch = pa.Table.from_arrays(
        [
            pa.array([1, 2], pa.int64()),
            pa.array(["a b c d e", "a b c d x"], pa.string()),
        ],
        names=["doc_id", "text"],
    )
    sets = {
        1: shingle_hashes("a b c d e", 3),
        2: shingle_hashes("a b c d x", 3),
        3: shingle_hashes("q r s t u", 3),
    }
    out = ngram_jaccard_pairs_batch(batch, sets, 3, 0.2)
    pairs = list(zip(out.column("d1").to_pylist(), out.column("d2").to_pylist()))
    assert (1, 2) in pairs
    assert all(d2 != 3 for _, d2 in pairs)


@pytest.mark.usefixtures("ray_session")
def test_dedup_against_reference_modes_agree(sf_small, monkeypatch):
    """Incremental crawl-over-crawl dedup: the bucketed anti-join (the
    corpus-sized-reference scale path, forced by a broadcast bound of
    0) must keep exactly the same docs as the broadcast filter, and
    behavior must be correct on planted overlaps and an empty
    reference."""
    import pandas as pd
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins
    from ocr_lib_ray.functions.dedup import dedup_against_reference, doc_fingerprints

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    prior = rd.from_pandas(
        docs.to_pandas().query("doc_id % 3 == 0")[["doc_id", "text"]]
    )
    ref = doc_fingerprints(prior)
    a = sorted(dedup_against_reference(docs, ref).to_pandas()["doc_id"])
    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
    b = sorted(
        dedup_against_reference(docs, ref, num_partitions=8).to_pandas()["doc_id"]
    )
    monkeypatch.undo()
    assert a == b and len(a) > 0
    assert all(i % 3 != 0 for i in a)  # every prior doc drops (self-match)

    # planted cross-crawl duplicate: a NEW doc with an old doc's content drops
    old = docs.to_pandas().query("doc_id % 3 == 0").iloc[0]
    new = rd.from_pandas(
        pd.DataFrame({"doc_id": [10_001, 10_002], "text": [old["text"], "fresh unseen text"]})
    )
    kept = sorted(dedup_against_reference(new, ref).to_pandas()["doc_id"])
    assert kept == [10_002]

    # empty reference → everything survives, columns intact
    empty_ref = rd.from_pandas(pd.DataFrame({"fingerprint": pd.array([], dtype="string")}))
    out = dedup_against_reference(new, empty_ref).to_pandas()
    assert sorted(out["doc_id"]) == [10_001, 10_002]
    assert sorted(out.columns) == ["doc_id", "text"]


def test_dedup_minhash_incremental(sf_small, monkeypatch):
    """NEAR-dup crawl-over-crawl dedup: a paraphrase of a prior-crawl
    doc must drop while fresh text survives; the broadcast and the
    bucketed (bound 0) loser filters must keep identical sets; an
    empty reference is a no-op."""
    import pandas as pd
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins
    from ocr_lib_ray.functions.dedup import dedup_minhash_incremental

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    pdf = docs.to_pandas()
    prior = rd.from_pandas(pdf.query("doc_id % 2 == 0")[["doc_id", "text"]])

    a = sorted(dedup_minhash_incremental(docs, prior).to_pandas()["doc_id"])
    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
    b = sorted(
        dedup_minhash_incremental(docs, prior, num_partitions=8)
        .to_pandas()["doc_id"]
    )
    monkeypatch.undo()
    assert a == b and len(a) > 0
    assert all(i % 2 != 0 for i in a)  # every prior doc self-matches (est 1.0)

    # planted: near-dup of an old doc (tail tweak — high shingle overlap)
    old_text = pdf.query("doc_id % 2 == 0").iloc[0]["text"]
    near = old_text + " extra trailing token"
    new = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [20_001, 20_002],
                "text": [near, "completely fresh unseen text about nothing"],
            }
        )
    )
    kept = sorted(dedup_minhash_incremental(new, prior).to_pandas()["doc_id"])
    assert kept == [20_002]

    # empty reference → everything survives (no shuffle at all)
    empty_ref = rd.from_pandas(
        pd.DataFrame({"doc_id": pd.array([], dtype="int64"), "text": pd.array([], dtype="string")})
    )
    out = dedup_minhash_incremental(new, empty_ref).to_pandas()
    assert sorted(out["doc_id"]) == [20_001, 20_002]
    assert sorted(out.columns) == ["doc_id", "text"]


@pytest.mark.usefixtures("ray_session")
def test_dedup_fuzzy_keep_best_keeps_longest_variant():
    """The quality winner (max n_chars, min-id tie) survives its
    near-dup cluster; singletons always survive."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.dedup import dedup_fuzzy_keep_best

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    docs = [
        (1, base, len(base)),                      # shorter variant
        (2, base + "lambda mu nu", len(base) + 12),  # longer → wins
        (3, "totally different content here with nothing shared at all",
         58),
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": [d[1] for d in docs],
            "n_chars": pa.array([d[2] for d in docs], pa.int64()),
        }
    )
    out = dedup_fuzzy_keep_best(rd.from_arrow(tbl), threshold=0.5).to_pandas()
    assert sorted(out["doc_id"]) == [2, 3]


@pytest.mark.usefixtures("ray_session")
def test_crawl_diff_statuses():
    """All four statuses from hand-built crawls; normalization means a
    whitespace-only edit is 'unchanged'."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.versions import crawl_diff

    prior = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": ["one", "two", "three", "four"],
        }
    )
    new = pa.table(
        {
            "doc_id": pa.array([2, 3, 4, 5], pa.int64()),
            "text": ["two  EDITED", "three", "  four \n", "five"],
        }
    )
    out = (
        crawl_diff(rd.from_arrow(new), rd.from_arrow(prior))
        .to_pandas()
        .set_index("doc_id")["status"]
        .sort_index()
    )
    assert list(out) == ["removed", "changed", "unchanged", "unchanged", "added"]


@pytest.mark.usefixtures("ray_session")
def test_crawl_diff_disjoint_snapshots():
    """Disjoint key spaces: every batch is single-status (all-added /
    all-removed), which types the absent side's fingerprint column as
    null — the stamp must still emit strings."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.versions import crawl_diff

    prior = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": ["a", "b"]})
    new = pa.table({"doc_id": pa.array([3, 4], pa.int64()), "text": ["c", "d"]})
    out = (
        crawl_diff(rd.from_arrow(new), rd.from_arrow(prior))
        .to_pandas()
        .set_index("doc_id")["status"]
        .sort_index()
    )
    assert list(out) == ["removed", "removed", "added", "added"]


@pytest.mark.usefixtures("ray_session")
def test_dedup_fuzzy_keep_best_modes_equivalent(monkeypatch):
    """The broadcast label stamp (default bound) and the bucketed left
    join + keep_latest (bound 0 — nothing collected) select the
    identical survivor set."""
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins

    sf = "/root/testdata/sf0.001/documents.parquet"
    from ocr_lib_ray.functions.dedup import dedup_fuzzy_keep_best

    docs = rd.read_parquet(sf, columns=["doc_id", "text", "n_chars"])
    a = set(dedup_fuzzy_keep_best(docs).to_pandas()["doc_id"])
    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
    docs2 = rd.read_parquet(sf, columns=["doc_id", "text", "n_chars"])
    b = set(dedup_fuzzy_keep_best(docs2).to_pandas()["doc_id"])
    assert a == b and len(a) > 0


@pytest.mark.usefixtures("ray_session")
def test_dup_cluster_sizes_hand_checked(monkeypatch):
    """Planted clusters: a 3-clique (chain pairs suffice — CC closes
    it), one 2-cluster, and singletons; the histogram counts each
    exactly once, at any block layout and on either stamp path."""
    import pandas as pd
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins

    from ocr_lib_ray.functions.dedup import dup_cluster_sizes

    docs = pa.table({"doc_id": pa.array(list(range(8)), pa.int64())})
    pairs = pa.table(
        {
            "d1": pa.array([0, 1, 4], pa.int64()),
            "d2": pa.array([1, 2, 5], pa.int64()),
        }
    )
    out = (
        dup_cluster_sizes(
            rd.from_arrow(docs).repartition(3), rd.from_arrow(pairs)
        )
        .to_pandas()
        .sort_values("size")
        .reset_index(drop=True)
    )
    # clusters: {0,1,2} size 3; {4,5} size 2; 3,6,7 singletons
    assert out["size"].tolist() == [1, 2, 3]
    assert out["n_clusters"].tolist() == [3, 1, 1]
    again = (
        dup_cluster_sizes(rd.from_arrow(docs), rd.from_arrow(pairs).repartition(2))
        .to_pandas()
        .sort_values("size")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, again)
    # the bucketed left-join stamp (labels past the broadcast bound)
    # gives the same histogram
    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
    joined = (
        dup_cluster_sizes(rd.from_arrow(docs).repartition(3), rd.from_arrow(pairs))
        .to_pandas()
        .sort_values("size")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, joined)
