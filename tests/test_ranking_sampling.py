"""Unit gates for the sampling/ranking operators (stratified_sample,
sample_fixed_k, topk_per_group, tfidf_top_terms): reference equality on
hand-built corpora + block-layout invariance (the determinism the ops
promise: same output at any batch size / partition count)."""

import math

import pandas as pd
import pyarrow as pa
import pytest

from ocr_lib_ray.functions.ranking import tfidf_top_terms, topk_per_group
from ocr_lib_ray.functions.sampling import sample_fixed_k, stratified_sample


def _docs_table(rows):
    ids, texts, sources = zip(*rows)
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(texts, pa.string()),
            pa.array(sources, pa.string()),
        ],
        names=["doc_id", "text", "source"],
    )


ROWS = [(i, f"word{i % 7} common tail", f"src{i % 3}") for i in range(60)]


@pytest.mark.usefixtures("ray_session")
def test_stratified_sample_rates_and_block_invariance():
    import ray.data as rd

    t = _docs_table(ROWS)
    rates = {"src0": 0.0, "src1": 1.0}

    def kept(num_blocks):
        ds = rd.from_arrow(t).repartition(num_blocks)
        out = stratified_sample(ds, "doc_id", "source", rates, default_rate=0.5)
        return sorted(r["doc_id"] for r in out.take_all())

    one = kept(1)
    # rate 0: no src0 rows survive; rate 1: every src1 row survives
    srcs = {i: s for i, _, s in ROWS}
    assert all(srcs[i] != "src0" for i in one)
    assert [i for i in one if srcs[i] == "src1"] == [
        i for i, _, s in ROWS if s == "src1"
    ]
    # default-rate stratum is a strict, non-empty subsample
    src2 = [i for i in one if srcs[i] == "src2"]
    assert 0 < len(src2) < sum(1 for _, _, s in ROWS if s == "src2")
    # block layout cannot change the kept set (key-stable hash decision)
    assert kept(7) == one


@pytest.mark.usefixtures("ray_session")
def test_sample_fixed_k_exact_nested_and_layout_stable():
    import ray.data as rd

    t = _docs_table(ROWS)

    def sample(k, num_blocks):
        ds = rd.from_arrow(t).repartition(num_blocks)
        return [r["doc_id"] for r in sample_fixed_k(ds, "doc_id", k).take_all()]

    s20, s50 = sample(20, 1), sample(50, 1)
    assert len(s20) == 20 and len(s50) == 50
    # bottom-k property: smaller samples nest inside larger ones
    assert s20 == s50[:20]
    # per-block prune cannot change the winners
    assert sample(20, 9) == s20
    # k > corpus degrades to the full corpus
    assert sorted(sample(100, 3)) == sorted(i for i, _, _ in ROWS)


@pytest.mark.usefixtures("ray_session")
def test_topk_per_group_matches_pandas_with_ties():
    import ray.data as rd

    # heavy ties on the order column force the doc_id tie-break
    rows = [(i, i % 4, f"g{i % 2}") for i in range(40)]
    t = pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.int64()),
            pa.array([r[1] for r in rows], pa.int64()),
            pa.array([r[2] for r in rows], pa.string()),
        ],
        names=["doc_id", "score", "grp"],
    )
    expect = (
        t.to_pandas()
        .sort_values(["score", "doc_id"], ascending=[False, True])
        .groupby("grp", sort=False)
        .head(3)
    )
    expect = expect.sort_values(["grp", "doc_id"]).reset_index(drop=True)

    for num_blocks in (1, 6):
        ds = rd.from_arrow(t).repartition(num_blocks)
        got = (
            topk_per_group(ds, "grp", "score", k=3, id_col="doc_id")
            .to_pandas()
            .sort_values(["grp", "doc_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["grp", "doc_id", "score"]], expect[["grp", "doc_id", "score"]]
        )


@pytest.mark.usefixtures("ray_session")
def test_topk_per_group_null_groups_and_empty_blocks():
    import ray.data as rd

    # 3 rows spread over 8 blocks → empty blocks hit the prune (the
    # from_pandas null-type trap)
    t = pa.Table.from_arrays(
        [
            pa.array([1, 2, 3], pa.int64()),
            pa.array([10, 20, 30], pa.int64()),
            pa.array(["a", "b", "a"], pa.string()),
        ],
        names=["doc_id", "score", "grp"],
    )
    ds = rd.from_arrow(t).repartition(8)
    got = (
        topk_per_group(ds, "grp", "score", k=1, id_col="doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == [2, 3]

    # null group keys are one group, ranked like any other (SQL ranks
    # the NULL partition), not dropped and not an error
    t_null = t.set_column(2, "grp", pa.array(["a", None, "a"], pa.string()))
    got = topk_per_group(
        rd.from_arrow(t_null).repartition(8), "grp", "score", k=1, id_col="doc_id"
    )
    assert got.schema().base_schema.field("grp").type == pa.string()
    assert sorted((r["doc_id"], r["grp"]) for r in got.take_all()) == [
        (2, None),
        (3, "a"),
    ]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("descending", [True, False])
def test_topk_per_group_null_keys_match_duckdb_row_number(descending):
    """topk_per_group == DuckDB ``ROW_NUMBER() OVER (PARTITION BY g
    ORDER BY score, doc_id) <= k`` on a table whose group column holds
    nulls (the NULL partition ranks too), at 1 and 7 blocks."""
    import duckdb
    import ray.data as rd

    n = 200
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "score": pa.array([(i * 37) % 11 for i in range(n)], pa.int64()),
            "g": pa.array(
                [None if i % 5 == 0 else f"g{i % 3}" for i in range(n)], pa.string()
            ),
        }
    )
    order = "DESC" if descending else "ASC"
    want = (
        duckdb.connect()
        .execute(
            f"""SELECT g, doc_id, score FROM (
                  SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY g ORDER BY score {order}, doc_id) AS rn
                  FROM t) WHERE rn <= 4"""
        )
        .arrow()
    )
    assert want.column("g").null_count == 4

    def rows(dicts):
        return sorted([(r["g"], r["doc_id"], r["score"]) for r in dicts], key=str)

    for num_blocks in (1, 7):
        got = topk_per_group(
            rd.from_arrow(t).repartition(num_blocks),
            "g",
            "score",
            k=4,
            id_col="doc_id",
            descending=descending,
        )
        assert rows(got.take_all()) == rows(want.to_pylist())


def _tfidf_reference(rows, k):
    texts = {i: t.split() for i, t, _ in rows if t.strip()}
    n = len(texts)
    df: dict = {}
    for ws in texts.values():
        for w in set(ws):
            df[w] = df.get(w, 0) + 1
    out = []
    for i, ws in texts.items():
        tf: dict = {}
        for w in ws:
            tf[w] = tf.get(w, 0) + 1
        top = sorted(
            ((w, c, c * math.log(n / df[w])) for w, c in tf.items()),
            key=lambda x: (-x[2], x[0]),
        )[:k]
        for r, (w, c, s) in enumerate(top, 1):
            out.append((i, r, w, c, round(s, 6)))
    return sorted(out)


@pytest.mark.usefixtures("ray_session")
def test_tfidf_matches_reference_and_layout_stable():
    import ray.data as rd

    rows = [
        (1, "apple banana apple", "s"),
        (2, "banana cherry", "s"),
        (3, "", "s"),  # empty: contributes nothing, emits nothing
        (4, "cherry cherry cherry durian", "s"),
        (5, "apple durian unique", "s"),
    ]
    expect = _tfidf_reference(rows, k=2)
    for num_blocks in (1, 4):
        ds = rd.from_arrow(_docs_table(rows)).repartition(num_blocks)
        got = sorted(
            (r["doc_id"], r["term_rank"], r["token"], r["tf"], r["tfidf"])
            for r in tfidf_top_terms(ds, k=2).take_all()
        )
        assert got == expect


@pytest.mark.usefixtures("ray_session")
def test_tfidf_identical_docs_score_zero_tiebreak_token_asc():
    import ray.data as rd

    rows = [(i, "same words here", "s") for i in range(1, 4)]
    ds = rd.from_arrow(_docs_table(rows))
    out = tfidf_top_terms(ds, k=3).to_pandas()
    # df == N for every token → score exactly 0; rank order = token asc
    assert (out["tfidf"] == 0.0).all()
    for i in range(1, 4):
        assert list(out[out["doc_id"] == i].sort_values("term_rank")["token"]) == [
            "here",
            "same",
            "words",
        ]


@pytest.mark.usefixtures("ray_session")
def test_tfidf_max_vocab_guard():
    import ray.data as rd

    ds = rd.from_arrow(_docs_table([(1, "a b c d e", "s")]))
    with pytest.raises(ValueError, match="max_vocab"):
        tfidf_top_terms(ds, k=2, max_vocab=3)


@pytest.mark.usefixtures("ray_session")
def test_cap_per_group_caps_and_is_block_invariant():
    """At most k per group, survivor SET = the k smallest md5 hashes
    (verified against a direct computation), identical across block
    layouts."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.sampling import cap_per_group

    rows = pd.DataFrame(
        {
            "g": ["a"] * 9 + ["b"] * 2 + ["c"],
            "doc_id": list(range(9)) + [100, 101] + [200],
        }
    )

    def direct(k):
        want = {}
        for g, sub in rows.groupby("g"):
            ranked = sorted(
                sub["doc_id"],
                key=lambda x: (hashlib.md5(f"cap{x}".encode()).hexdigest()[:16], x),
            )
            want[g] = set(ranked[:k])
        return want

    for nblocks in (1, 4):
        ds = rd.from_pandas(rows).repartition(nblocks)
        out = cap_per_group(ds, "g", "doc_id", k=3).to_pandas()
        got = {g: set(sub["doc_id"]) for g, sub in out.groupby("g")}
        assert got == direct(3), nblocks
        assert out.columns.tolist() == ["g", "doc_id"]


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_determinism_and_edges():
    """Keep probability = clip(w*scale, 0, 1): w>=1 always kept, w<=0
    and NaN always dropped, fractional weights match the DuckDB
    printf-threshold replica row-for-row, and the kept SET is
    partition-layout invariant."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.sampling import weighted_sample

    n = 400
    df = pd.DataFrame(
        {
            "doc_id": range(n),
            "w": [1.0, 0.0, float("nan"), 0.25, 0.5, 0.75, 0.9, 0.1] * (n // 8),
        }
    )
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    kept1 = sorted(
        weighted_sample(rd.from_arrow(tbl), "doc_id", "w").to_pandas()["doc_id"]
    )
    kept2 = sorted(
        weighted_sample(rd.from_arrow(tbl).repartition(7), "doc_id", "w")
        .to_pandas()["doc_id"]
    )
    assert kept1 == kept2  # layout-invariant
    by_id = dict(zip(df["doc_id"], df["w"]))
    assert all(by_id[i] == by_id[i] for i in kept1)  # sanity
    assert all(i in kept1 for i in df[df["w"] >= 1.0]["doc_id"])  # w>=1 kept
    dropped_always = df[(df["w"] <= 0.0) | (df["w"].isna())]["doc_id"]
    assert not set(dropped_always) & set(kept1)

    want = duckdb.connect().execute(
        """SELECT doc_id FROM tbl
           WHERE w > 0 AND w = w AND (w >= 1 OR
                 substr(md5('wsamp' || CAST(doc_id AS VARCHAR)), 1, 8)
                 < printf('%08x', CAST(floor(w * 4294967296) AS BIGINT)))
           ORDER BY doc_id"""
    ).df()["doc_id"].tolist()
    assert kept1 == want

    # keep-rate sanity: w=0.5 stratum keeps roughly half (md5 uniform)
    half = [i for i in kept1 if by_id[i] == 0.5]
    assert 0.3 * n / 8 < len(half) < 0.7 * n / 8


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_k_exact_size_and_weight_bias():
    """A-ES sample: exactly k rows, zero-weight rows never selected,
    and over the salt-keyed draws heavier rows are picked first (the
    max-weight row wins with overwhelming odds on a skewed corpus)."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.sampling import weighted_sample_k

    n = 200
    # one giant-weight row among unit weights
    weights = [1] * n
    weights[37] = 1_000_000
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(n)) + [999], pa.int64()),
            "n_chars": pa.array(weights + [0], pa.int64()),
        }
    )
    out = weighted_sample_k(
        rd.from_arrow(tbl), weight_col="n_chars", k=10
    ).to_pandas()
    assert len(out) == 10
    assert 999 not in set(out["doc_id"])  # zero weight excluded
    assert 37 in set(out["doc_id"])  # P(miss) ≈ (stuff)^1e6 — deterministic here
    # keys sorted descending with id tie-break is the selection order
    assert list(out["key_nano"]) == sorted(out["key_nano"], reverse=True)


@pytest.mark.usefixtures("ray_session")
def test_temperature_mix_rates_and_edges():
    """alpha=1 keeps everything (natural mixture); the smallest source
    is always kept whole; alpha=0 equalizes expected token counts;
    zero-token sources are kept whole; totals= skips pass 1 with
    identical output; alpha outside [0,1] raises."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.sampling import temperature_mix

    rows = []
    i = 0
    for _ in range(200):
        rows.append((i, "tok " * 10, "big")); i += 1
    for _ in range(20):
        rows.append((i, "tok " * 10, "small")); i += 1
    for _ in range(5):
        rows.append((i, "", "empty")); i += 1
    tbl = pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.int64()),
            pa.array([r[1] for r in rows], pa.string()),
            pa.array([r[2] for r in rows], pa.string()),
        ],
        names=["doc_id", "text", "source"],
    )
    ds = rd.from_arrow(tbl).repartition(4)

    all_kept = temperature_mix(ds, alpha=1.0).to_pandas()
    assert len(all_kept) == len(rows)

    out = temperature_mix(ds, alpha=0.0).to_pandas()
    by_src = out.groupby("source").size()
    assert by_src["small"] == 20, "smallest source kept whole"
    assert by_src.get("empty", 0) == 5, "zero-token source kept whole"
    # alpha=0 equalizes: big's expected survivors = 20 of 200; the md5
    # filter is deterministic, just pin the realized count is near it
    assert 5 <= by_src["big"] <= 40

    with_totals = temperature_mix(
        ds, alpha=0.0, totals={"big": 2000, "small": 200, "empty": 0}
    ).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = with_totals.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    with pytest.raises(ValueError, match="alpha"):
        temperature_mix(ds, alpha=1.5)


@pytest.mark.usefixtures("ray_session")
def test_sample_k_per_group_exact_and_layout_invariant():
    """Every group yields exactly min(k, |group|) rows, the selected
    SET is the md5-bottom-k per group, and the result is identical at
    any partition layout."""
    import ray.data as rd

    from ocr_lib_ray.functions.sampling import _md5_hex, sample_k_per_group

    rows = [(i, "g1" if i < 30 else ("g2" if i < 40 else "g3")) for i in range(42)]
    tbl = pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.int64()),
            pa.array([r[1] for r in rows], pa.string()),
        ],
        names=["doc_id", "lang"],
    )

    def run(nparts):
        out = sample_k_per_group(
            rd.from_arrow(tbl).repartition(nparts), "lang", k=5, id_col="doc_id"
        ).to_pandas()
        return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)

    a, b = run(1), run(7)
    pd.testing.assert_frame_equal(a, b)
    sizes = a.groupby("lang").size()
    assert sizes["g1"] == 5 and sizes["g2"] == 5 and sizes["g3"] == 2
    # reference: bottom-5 of g1 by the same md5 stamp
    want = sorted(range(30), key=lambda i: (_md5_hex("gk", i)[:16], i))[:5]
    assert sorted(a.loc[a["lang"] == "g1", "doc_id"]) == sorted(want)


@pytest.mark.usefixtures("ray_session")
def test_topk_with_ties_keeps_boundary_ties_any_layout():
    """RANK semantics: a tie AT the k boundary keeps every tied row
    (unlike topk_per_group's row_number cut), and a block whose own
    top-k hides a boundary tie still yields the exact global set."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.ranking import topk_with_ties

    # group g: values 9,8,7,7,7,1 with k=3 -> keep 9,8,7,7,7 (5 rows)
    t = pa.table(
        {
            "g": pa.array(["g"] * 6 + ["h"] * 2, pa.string()),
            "id": pa.array(list(range(8)), pa.int64()),
            "v": pa.array([9, 8, 7, 7, 7, 1, 5, 5], pa.int64()),
        }
    )
    for parts in (1, 4, 8):
        out = (
            topk_with_ties(
                rd.from_arrow(t).repartition(parts),
                group_col="g", order_col="v", k=3, id_col="id",
            )
            .to_pandas()
            .sort_values(["g", "id"])
            .reset_index(drop=True)
        )
        got = out.groupby("g")["id"].apply(list).to_dict()
        assert got["g"] == [0, 1, 2, 3, 4], parts
        assert got["h"] == [6, 7], parts


@pytest.mark.usefixtures("ray_session")
def test_topk_with_ties_null_order_and_bad_k_raise():
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.ranking import topk_with_ties

    t = pa.table(
        {
            "g": ["a", "a"],
            "id": pa.array([1, 2], pa.int64()),
            "v": pa.array([5, None], pa.int64()),
        }
    )
    with pytest.raises(Exception) as ei:
        topk_with_ties(rd.from_arrow(t), "g", "v", 1, "id").to_pandas()
    assert "null values in order column" in str(ei.value)
    with pytest.raises(ValueError, match="k must be >= 1"):
        topk_with_ties(rd.from_arrow(t), "g", "v", 0, "id")
