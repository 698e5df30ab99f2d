"""Differential tests of the array-code near-duplicate verifiers against
frozen copies of the per-pair / per-bucket loops they replaced
(``tests/frozen_dedup.py``):

* ``ngram_jaccard_pairs_batch`` (inverted index) must equal the frozen
  verifier table-for-table: same rows, order and values;
* ``_pairs_from_band`` (one lexsort pass) must give the same multiset of
  ``(d1, d2, est_jaccard)`` rows;
* ``_stable_token_hashes`` and ``minhash_band_rows`` must be bit-equal
  to the per-token / per-scalar hashing they replaced (non-ASCII and
  empty tokens included).

Corpora: the sf_small testdata and hypothesis corpora over a tiny
vocabulary (so Jaccard values hit the threshold exactly), with empty
texts, repeated doc ids, byte-identical documents and a shingle shared
by every document under a small slice budget.
"""

from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_dedup import (
    frozen_minhash_band_rows,
    frozen_ngram_jaccard_pairs_batch,
    frozen_pairs_from_band,
    frozen_stable_token_hashes,
)
from ocr_lib_ray.functions import dedup
from ocr_lib_ray.functions.text_stats import normalize_expr

#: simple fractions: Jaccard values of small sets land on them exactly
THRESHOLDS = [1.0, 0.5, 1 / 3, 0.25, 0.2, 0.6]


def _docs(ids, texts) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()), pa.array(texts, pa.string())],
        names=["doc_id", "text"],
    )


def _sets(docs: pa.Table, n: int) -> dict:
    """The broadcast side exactly as ngram_jaccard_pairs collects it:
    {doc_id: shingle hashes}, a repeated id keeping its last row."""
    norm = normalize_expr(docs.column("text")).to_pylist()
    return {
        i: dedup.shingle_hashes(t, n)
        for i, t in zip(docs.column("doc_id").to_pylist(), norm)
    }


def _assert_jaccard_equal(docs: pa.Table, n: int, threshold: float, batch_rows: int):
    sets = _sets(docs, n)
    index = dedup._resolve_index(sets)
    for lo in range(0, max(docs.num_rows, 1), batch_rows):
        batch = docs.slice(lo, batch_rows)
        want = frozen_ngram_jaccard_pairs_batch(batch, sets, n, threshold)
        got = dedup.ngram_jaccard_pairs_batch(batch, index, n, threshold)
        assert got.equals(want), (threshold, got.to_pydict(), want.to_pydict())
        # the form ngram_jaccard_pairs runs: shingled once, hashes passed in
        hashed = dedup.shingle_rows(batch, n)
        got = dedup.ngram_jaccard_pairs_batch(hashed, index, n, threshold)
        assert got.equals(want), (threshold, got.to_pydict(), want.to_pydict())


def _rows(df: pd.DataFrame) -> list:
    return sorted(df[["d1", "d2", "est_jaccard"]].itertuples(index=False, name=None))


def _assert_band_equal(g: pd.DataFrame, threshold: float):
    want = frozen_pairs_from_band(g, threshold)
    got = dedup._pairs_from_band(g, threshold)
    assert dict(got.dtypes) == dict(want.dtypes)
    assert _rows(got) == _rows(want)


# --- sf_small ----------------------------------------------------------------


def _sf_docs(sf_small) -> pa.Table:
    return pq.read_table(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])


@pytest.mark.parametrize("threshold", [0.5, 0.2])
def test_jaccard_verifier_equals_frozen_on_sf_small(sf_small, threshold):
    docs = _sf_docs(sf_small)
    _assert_jaccard_equal(docs, 3, threshold, batch_rows=128)


def test_jaccard_verifier_finds_the_planted_pairs(sf_small):
    """The table-equality check above is only as strong as its inputs:
    make sure the testdata actually yields pairs at the default threshold."""
    docs = _sf_docs(sf_small)
    out = dedup.ngram_jaccard_pairs_batch(docs, _sets(docs, 3), 3, 0.5)
    assert out.num_rows >= 25


@pytest.mark.parametrize("threshold", [0.5, 0.8, 1.0])
def test_band_verify_equals_frozen_on_sf_small(sf_small, threshold):
    docs = _sf_docs(sf_small)
    rows = dedup.minhash_band_rows(docs, dedup.MinHasher(), 16).to_pandas()
    n_pairs = 0
    for _, g in rows.groupby("band"):
        _assert_band_equal(g, threshold)
        n_pairs += len(dedup._pairs_from_band(g, threshold))
    assert n_pairs > 0


# --- hypothesis corpora --------------------------------------------------------

_word = st.sampled_from(["a", "b", "c", "d", "e"])
_text = st.lists(_word, max_size=6).map(" ".join)


@st.composite
def corpora(draw):
    """Rows of (doc_id, text): ids from a small range (so ids repeat),
    texts from a five-word vocabulary, some empty, some copied verbatim."""
    n = draw(st.integers(min_value=0, max_value=14))
    texts = draw(st.lists(_text, min_size=n, max_size=n))
    for i in range(n):
        if i and draw(st.booleans()):
            texts[i] = texts[draw(st.integers(0, i - 1))]  # byte-identical copy
    ids = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    return ids, texts


@settings(max_examples=300, deadline=None)
@given(
    corpora(),
    st.sampled_from(THRESHOLDS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([1, 2, 5, 1 << 20]),
)
def test_jaccard_verifier_equals_frozen_on_generated_corpora(
    corpus, threshold, n, batch_rows, slice_rows
):
    ids, texts = corpus
    with mock.patch.object(dedup, "JACCARD_SLICE_ROWS", slice_rows):
        _assert_jaccard_equal(_docs(ids, texts), n, threshold, batch_rows)


def test_shingle_in_every_doc_merges_across_slices():
    """One shingle ("common") in every doc: each doc's postings span
    many slices of a 3-row budget, so per-doc counts are merged across
    slices before the Jaccard test."""
    texts = [f"common w{i % 4} w{i % 3}" for i in range(40)] + ["", "common"]
    docs = _docs(list(range(len(texts))), texts)
    calls = []
    real = dedup._range_rows

    def counting(*args):
        calls.append(args[-1] - args[-2])
        return real(*args)

    with mock.patch.object(dedup, "JACCARD_SLICE_ROWS", 3), mock.patch.object(
        dedup, "_range_rows", counting
    ):
        for threshold in (1 / 3, 0.5, 1.0):
            _assert_jaccard_equal(docs, 1, threshold, batch_rows=len(texts))
    # (the index build expands its postings in one call of its own)
    assert calls.count(3) > len(texts)


@st.composite
def band_frames(draw):
    """One band group: few band_hash values (collisions), signatures of
    8 minhashes over a 3-value alphabet (so estimates land on k/8 and
    identical signatures are common), repeated doc ids and rows."""
    n = draw(st.integers(min_value=0, max_value=16))
    sig = st.lists(st.integers(0, 2), min_size=8, max_size=8).map(
        lambda v: np.asarray(v, np.uint64).tobytes()
    )
    rows = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9), sig), min_size=n, max_size=n)
    )
    return pd.DataFrame(
        {
            "band_hash": np.array([r[0] for r in rows], np.uint32),
            "doc_id": np.array([r[1] for r in rows], np.int64),
            "signature": pd.Series([r[2] for r in rows], dtype=object),
        }
    )


@settings(max_examples=300, deadline=None)
@given(band_frames(), st.integers(min_value=1, max_value=8))
def test_band_verify_equals_frozen_on_generated_frames(g, k):
    _assert_band_equal(g, k / 8)


def test_band_verify_chains_identical_signatures():
    sig_a = np.zeros(8, np.uint64).tobytes()
    sig_b = np.ones(8, np.uint64).tobytes()
    g = pd.DataFrame(
        {
            "band_hash": np.array([5, 5, 5, 5, 6], np.uint32),
            "doc_id": np.array([9, 3, 7, 4, 1], np.int64),
            "signature": [sig_a, sig_a, sig_a, sig_b, sig_a],
        }
    )
    out = dedup._pairs_from_band(g, 0.0)
    # cluster {3, 7, 9} chains (not a clique); its min id 3 meets 4
    assert _rows(out) == [(3, 4, 0.0), (3, 7, 1.0), (7, 9, 1.0)]


# --- hashing -------------------------------------------------------------------

#: empty, ASCII, non-ASCII (2-, 3- and 4-byte UTF-8) and whitespace tokens
_TOKENS = ["", " ", "a", "a b c", "naïve café", "日本語 テキスト", "emoji 🙂 ok", "\x00"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=12)), max_size=30))
def test_token_hashes_equal_frozen(tokens):
    got = dedup._stable_token_hashes(tokens)
    want = frozen_stable_token_hashes(tokens)
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)


def test_band_rows_equal_frozen(sf_small):
    texts = _TOKENS + ["word " * 40, "ü ü ü ü", "a b"]
    docs = pa.concat_tables(
        [_docs(list(range(len(texts))), texts), _sf_docs(sf_small).slice(0, 60)]
    )
    for hasher, bands, buckets in (
        (dedup.MinHasher(), 16, 1),
        (dedup.MinHasher(num_perm=32, shingle_n=2, seed=7), 4, 5),
    ):
        got = dedup.minhash_band_rows(docs, hasher, bands, group_buckets=buckets)
        want = frozen_minhash_band_rows(docs, hasher, bands, group_buckets=buckets)
        assert got.equals(want)


# --- threshold guard -----------------------------------------------------------


@pytest.mark.parametrize("threshold", [0.0, -0.5, float("nan")])
def test_jaccard_rejects_non_positive_threshold(threshold):
    docs = _docs([1, 2], ["a b c", "x y z"])
    with pytest.raises(ValueError, match="threshold="):
        dedup.ngram_jaccard_pairs_batch(docs, _sets(docs, 3), 3, threshold)
    with pytest.raises(ValueError, match="threshold="):
        dedup.ngram_jaccard_pairs(None, threshold=threshold)
