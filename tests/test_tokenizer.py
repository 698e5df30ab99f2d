"""Tokenizer unit goldens (analog of the reference's per-fn golden counts,
e.g. 378 black dots — /root/reference/test/clj/ocr_lib/core_test.clj:521-532)."""

import pytest

from ocr_lib_ray.kernel.tokenizer import (
    TagState,
    collapse_ws,
    tokenize,
    tokenize_chunked,
    unescape,
)

FIXTURE = (
    "<html><body><nav><a href='/'>Home</a></nav>"
    "<main><h1>Title Here</h1><p>alpha <b>beta</b> gamma</p>"
    "<p>second block</p></main>"
    "<script>var x = '<p>not text</p>';</script>"
    "<!-- comment <p>nope</p> -->"
    "</body></html>"
)


def test_node_golden_counts():
    doc = tokenize(FIXTURE)
    # exact node inventory: Home, Title Here, alpha/beta/gamma, second block
    assert doc.texts == ["Home", "Title Here", "alpha ", "beta", " gamma", "second block"]
    assert doc.link == [True, False, False, False, False, False]
    assert doc.heading == [False, True, False, False, False, False]
    # alpha/beta/gamma share one block_seq (inline <b> adds no boundary)
    assert doc.block_seq[2] == doc.block_seq[3] == doc.block_seq[4]
    assert doc.block_seq[4] != doc.block_seq[5]
    assert doc.block_tag[1] == "h1"
    assert doc.block_tag[2] == "p"


def test_offsets_point_into_source():
    doc = tokenize(FIXTURE)
    for s, e, t in zip(doc.starts, doc.ends, doc.texts):
        assert FIXTURE[s:e] == t


def test_boilerplate_flag():
    doc = tokenize("<nav><p>chrome</p></nav><p>content words here</p>")
    assert doc.boiler == [True, False]


def test_rawtext_and_comment_skipped():
    doc = tokenize("<style>p{color:red}</style><p>x y z</p><!-- <p>no</p> -->")
    assert doc.texts == ["x y z"]


def test_unterminated_constructs():
    assert tokenize("<p>a b c<!-- unterminated").texts == ["a b c"]
    assert tokenize("<p>a b c<script>never closed").texts == ["a b c"]
    assert tokenize("<p>a b c</p><div unterminated").texts == ["a b c"]


def test_literal_lt_is_text():
    doc = tokenize("<p>1 < 2 and 2 > 1</p>")
    assert "".join(doc.texts) == "1 < 2 and 2 > 1"


def test_implied_p_close():
    doc = tokenize("<p>one<p>two</p>")
    assert doc.texts == ["one", "two"]
    assert doc.block_seq[0] != doc.block_seq[1]


def test_implied_li_close():
    doc = tokenize("<ul><li>a<li>b</ul>")
    assert doc.texts == ["a", "b"]
    assert doc.listitem == [True, True]
    assert doc.block_seq[0] != doc.block_seq[1]


def test_unmatched_close_ignored():
    doc = tokenize("</div></p><p>ok fine</p>")
    assert doc.texts == ["ok fine"]


def test_void_and_selfclosing_dont_push():
    st_doc = tokenize("<p>a<br/>b<img src='x'>c</p>")
    # br is a block boundary; img is not
    assert st_doc.texts == ["a", "b", "c"]
    assert st_doc.block_seq[0] != st_doc.block_seq[1]
    assert st_doc.block_seq[1] == st_doc.block_seq[2]


def test_unescape():
    assert unescape("a &amp; b &lt;c&gt; &#65; &#x42; &nope; &amp") == "a & b <c> A B &nope; &amp"


def test_collapse_ws():
    assert collapse_ws("  a\t\n b\f\vc  ") == "a b c"


@pytest.mark.parametrize("chunk", [1, 2, 5, 17, 64, 100, 4096, 10_000])
def test_chunked_equals_oneshot(chunk):
    """Seam algebra (merge-separated-parts analog): chunked parse at any
    chunk size is identical to the one-shot parse."""
    html = FIXTURE * 3 + "<p>tail   with \n spaces</p>"
    a, b = tokenize(html), tokenize_chunked(html, chunk)
    assert a.__dict__ == b.__dict__


def test_tagstate_counters_balanced():
    """After parsing balanced markup through the REAL hot loop (the only
    code that mutates TagState), the synced-back state must be neutral —
    the seam-resume contract."""
    from ocr_lib_ray.kernel.tokenizer import TokenizedDoc, tokenize_range

    st = TagState()
    doc = TokenizedDoc()
    html = "<div><nav><a href='#'><li>x</li></a></nav></div>"
    tokenize_range(html, doc, st, 0, len(html))
    assert (st.boiler_depth, st.link_depth, st.li_depth, st.heading_depth) == (0, 0, 0, 0)
    assert st.stack == [] and st.block_tag_stack == []


def test_banded_multi_mb_page():
    """Multi-MB giant page: the chunked parse at the default
    ``chunk_size`` (the giant-page path of ``extract_document``) spans
    many seams and still equals the one-shot parse byte-for-byte."""
    from ocr_lib_ray.config import DEFAULT_CONFIG

    html = (
        "<main>"
        + "".join(
            f"<div><h2>Section {i}</h2><p>body text for block {i} "
            + "filler words here " * 40
            + "</p><ul><li>item a</li><li>item b</li></ul></div>"
            for i in range(3000)
        )
        + "</main>"
    )
    assert len(html) > 2_000_000
    assert len(html) > 4 * DEFAULT_CONFIG.chunk_size  # genuinely multi-chunk
    a = tokenize(html)
    b = tokenize_chunked(html, DEFAULT_CONFIG.chunk_size)
    assert a.__dict__ == b.__dict__
