"""Segmentation / classification / assembly / PDF-branch goldens
(analogs of grouping + matching tests, core_test.clj:1566-1630,2816-2941,
and the end-to-end golden strings :3098-3101, :3225-3238)."""

import pytest

from ocr_lib_ray.config import ExtractConfig
from ocr_lib_ray.kernel import extract_document, segment, tokenize
from ocr_lib_ray.kernel.pdf import extract_pdf, tokenize_pdf
from ocr_lib_ray.kernel.segment import classify

CFG = ExtractConfig()


def blocks_of(html: str):
    return segment(tokenize(html))


def test_block_golden():
    bs = blocks_of("<main><h1>My Title</h1><p>one two three four</p></main>")
    assert [(b.text, b.tag, b.n_words) for b in bs] == [
        ("My Title", "h1", 2),
        ("one two three four", "p", 4),
    ]


def test_inline_merge_no_space():
    bs = blocks_of("<p>fo<b>od</b> court here</p>")
    assert bs[0].text == "food court here"
    assert bs[0].n_words == 3


def test_link_words_counted():
    bs = blocks_of('<p>plain words here <a href="x">link text</a></p>')
    assert bs[0].n_words == 5
    assert bs[0].link_words == 2


def test_classify_rules():
    boiler = blocks_of("<footer><p>some footer text</p></footer>")[0]
    assert classify(boiler, CFG) == ""
    heading = blocks_of("<h2>One</h2>")[0]
    assert classify(heading, CFG) == "heading"
    short = blocks_of("<p>two words</p>")[0]
    assert classify(short, CFG) == ""
    content = blocks_of("<p>three word block</p>")[0]
    assert classify(content, CFG) == "content"
    listy = blocks_of("<ul><li>alpha beta gamma</li></ul>")[0]
    assert classify(listy, CFG) == "list"
    linky = blocks_of('<p><a href="/">all of this is a link</a></p>')[0]
    assert classify(linky, CFG) == ""
    # exactly at the 1/3 link-density boundary → accepted (<=)
    edge = blocks_of('<p><a href="x">one</a> two three</p>')[0]
    assert edge.link_words * CFG.link_density_den == edge.n_words * CFG.link_density_num
    assert classify(edge, CFG) == "content"


def test_assembly_newlines_and_residuals():
    html = (
        "<nav><p>chrome chrome chrome</p></nav>"
        "<h1>Head Line</h1><p>first body block ok</p>"
        "<p>x</p>"  # too short → residual
        "<p>second body block ok</p>"
    )
    res = extract_document(html.encode())
    assert res.text == "Head Line\nfirst body block ok\nsecond body block ok"
    # rejected: nav p (block 0), short p (block 3) → residual ids in
    # document order; span block_ids share the SAME segmentation-index
    # space (so ids skip the rejected blocks, never collide with them)
    assert res.residuals == [0, 3]
    assert [s["kind"] for s in res.spans] == ["heading", "content", "content"]
    assert [s["block_id"] for s in res.spans] == [1, 2, 4]


def test_residual_cap_is_per_document():
    html = "".join(f"<p>w{i}</p>" for i in range(50))  # 50 rejected blocks
    res = extract_document(html.encode(), CFG)
    assert len(res.residuals) == CFG.residual_cap


def test_span_offsets_cover_block():
    html = "<main><p>alpha beta gamma</p></main>"
    res = extract_document(html.encode())
    s = res.spans[0]
    assert html[s["start"] : s["end"]] == "alpha beta gamma"


def test_empty_inputs():
    for payload in (b"", b"   ", None):
        r = extract_document(payload)
        assert r.doc_kind == "empty" and r.text == "" and r.spans == []


def test_entity_handling():
    res = extract_document(b"<p>a &amp; b &lt;tag&gt; ok</p>")
    assert res.text == "a & b <tag> ok"


# --- PDF branch ------------------------------------------------------------

PDF = (
    b"%PDF-1.4\nstream\nBT\n/F1 12 Tf\n"
    b"1 0 0 1 72 760 Tm (Title Line) Tj\n"
    b"1 0 0 1 72 700 Tm (first body line) Tj\n"
    b"1 0 0 1 300 700 Tm (same line right) Tj\n"
    b"1 0 0 1 72 686 Tm (second body line) Tj\n"
    b"ET\nendstream\n%%EOF\n"
)


def test_pdf_dispatch_and_layout():
    res = extract_document(PDF)
    assert res.doc_kind == "pdf"
    # title is its own block (gap 60 > 30); body lines one block; runs
    # on one line ordered by x.  The column gap is WHITESPACE-measured
    # (end of previous run = origin + 0.6·size·len, the glyph-width
    # analog): "first body line" at x=72 ends ≈180, so the x=300 run is
    # only 120 away — same segment, one span per line.
    assert res.text == "Title Line\nfirst body line same line right second body line"
    assert [s["kind"] for s in res.spans] == ["pdf-line"] * 3
    assert [s["block_id"] for s in res.spans] == [0, 1, 1]


def test_pdf_column_split():
    from ocr_lib_ray.kernel.pdf import GlyphRun, split_columns

    runs = [
        GlyphRun(x=72, y=700, text="left col", start=0, end=8),
        GlyphRun(x=120, y=700, text="still left", start=9, end=19),
        GlyphRun(x=400, y=700, text="right col", start=20, end=29),
    ]
    segs = split_columns(runs, CFG)
    assert [[r.text for r in s] for s in segs] == [["left col", "still left"], ["right col"]]


def test_satellite_attachment():
    html = (
        "<figure><img src='x.png'/><figcaption>Fig 1</figcaption></figure>"
        "<p>main body text here</p>"
    )
    res = extract_document(html.encode())
    assert res.text == "Fig 1\nmain body text here"
    assert [s["kind"] for s in res.spans] == ["satellite", "content"]


def test_pdf_td_and_escapes():
    data = "BT (a) Tj 0 -50 Td (par\\(en\\)s \\\\ ok) Tj ET"
    runs = tokenize_pdf(data)
    assert [r.text for r in runs] == ["a", "par(en)s \\ ok"]
    assert runs[1].y == -50.0
    text, spans, _res, _rt = extract_pdf(data, CFG)
    assert text == "a\npar(en)s \\ ok"


def test_pdf_outside_bt_ignored():
    runs = tokenize_pdf("(not text) Tj BT (yes) Tj ET (also not) Tj")
    assert [r.text for r in runs] == ["yes"]


def test_pdf_tj_array_and_line_ops():
    # TJ array: strings concatenated, kerning numbers ignored
    runs = tokenize_pdf("BT 1 0 0 1 72 700 Tm [(Hel) -20 (lo) 5 ( wor) (ld)] TJ ET")
    assert [r.text for r in runs] == ["Hello world"]
    # TL + T*: next-line moves down by leading
    runs = tokenize_pdf("BT 16 TL 1 0 0 1 72 700 Tm (a) Tj T* (b) Tj ET")
    assert [(r.text, r.y) for r in runs] == [("a", 700.0), ("b", 684.0)]
    # ': move to next line then show; TD sets leading to -ty
    runs = tokenize_pdf("BT 1 0 0 1 72 700 Tm 0 -12 TD (a) Tj (b) ' ET")
    assert [(r.text, r.y) for r in runs] == [("a", 688.0), ("b", 676.0)]


def test_pdf_tf_and_rotation():
    """Round-3 PDF depth: /Tf sizes ride on runs; PURE-rotation Tm runs
    re-flow along their own baseline and append as trailing blocks in
    ascending-angle order; round 4 — NON-RIGID but invertible (sheared)
    runs re-flow through the INVERSE matrix as their own trailing
    layer; only DEGENERATE matrices (det ≈ 0) reject to residuals in
    deterministic (-y, x) fallback order."""
    import math

    from ocr_lib_ray.kernel.pdf import extract_pdf, tokenize_pdf

    data = (
        "BT /F2 24 Tf 1 0 0 1 72 760 Tm (Big Title) Tj\n"
        "/F1 12 Tf 1 0 0 1 72 700 Tm (body text here) Tj\n"
        "0.707107 0.707107 -0.707107 0.707107 180 400 Tm (WATERMARK) Tj\n"
        "0 1 -1 0 500 100 Tm (vertical label) Tj\n"
        "1 0.5 0 1 300 200 Tm (skewed stamp) Tj\n"
        "1 1 1 1 300 100 Tm (degenerate stamp) Tj ET"
    )
    runs = tokenize_pdf(data)
    assert [(r.text, r.size, r.rotated) for r in runs] == [
        ("Big Title", 24.0, False),
        ("body text here", 12.0, False),
        ("WATERMARK", 12.0, True),
        ("vertical label", 12.0, True),
        ("skewed stamp", 12.0, True),
        ("degenerate stamp", 12.0, True),
    ]
    # pure rotations carry their baseline angle; non-rigid invertible
    # carries the quantized matrix; degenerate carries neither
    assert runs[2].angle == round(math.pi / 4, 6)
    assert runs[3].angle == round(math.pi / 2, 6)
    assert runs[4].angle is None and runs[4].mat == (1.0, 0.5, 0.0, 1.0)
    assert runs[5].angle is None and runs[5].mat is None
    text, spans, residuals, _ = extract_pdf(data, CFG)
    # upright blocks first, then rotated layers by ascending angle
    # (45° watermark before the 90° vertical label), then the sheared
    # layer re-flowed via M^-1; degenerate → residual
    assert text == (
        "Big Title\nbody text here\nWATERMARK\nvertical label\nskewed stamp"
    )
    assert residuals == [5]  # id continues after the 5 content blocks
    rt_cfg = ExtractConfig(keep_residual_texts=True)
    _, _, _, rtexts = extract_pdf(data, rt_cfg)
    assert rtexts == ["degenerate stamp"]
    # rotation persists across Td until the next Tm/BT
    runs = tokenize_pdf("BT 0 1 -1 0 100 100 Tm (a) Tj 0 -14 Td (b) Tj ET")
    assert [r.rotated for r in runs] == [True, True]
    # two runs of one 90° layer re-flow as ONE line in baseline order:
    # device (100,100)→(100,86) is top-to-bottom ALONG the rotated
    # baseline (Td moves within the matrix), so the layer reads "a b"
    text_r, _, res_r, _ = extract_pdf(
        "BT 0 1 -1 0 100 100 Tm (a) Tj 0 -14 Td (b) Tj ET", CFG
    )
    assert res_r == []
    assert text_r == "a b"
    # residual cap applies to degenerate runs
    many = "BT " + " ".join(
        f"1 1 1 1 {100 + i} 100 Tm (w{i}) Tj" for i in range(20)
    ) + " ET"
    _, _, res, _ = extract_pdf(many, ExtractConfig(residual_cap=3))
    assert len(res) == 3


def test_pdf_shear_reflow_matches_text_space():
    """Inverse-matrix re-flow: two runs sharing one sheared matrix whose
    DEVICE y differs (the shear tilts the baseline) still cluster into
    ONE line in text space, in baseline x order; a second shear layer
    groups separately in ascending matrix order."""
    from ocr_lib_ray.kernel.pdf import extract_pdf

    # text-space positions (0, 0) and (100, 0) pushed through
    # M = [1 0.5; 0 1]: device (x, y) = (tx, tx*0.5 + ty)
    data = (
        "BT 1 0.5 0 1 0 0 Tm (left) Tj\n"
        "1 0.5 0 1 100 50 Tm (right) Tj\n"
        "2 0 0.5 1 40 300 Tm (other layer) Tj ET"
    )
    text, spans, residuals, _ = extract_pdf(data, CFG)
    assert residuals == []
    assert text == "left right\nother layer"


def test_run_advance_kerning_pairs():
    """Two-char keys in the width table apply a signed per-pair delta;
    a table without pair keys is bit-identical to round 3."""
    from ocr_lib_ray.kernel.pdf import GlyphRun, run_advance

    r = GlyphRun(x=0, y=0, text="AVA", start=0, end=3, size=10.0)
    widths = {"A": 0.5, "V": 0.5}
    assert run_advance(r, widths) == 10.0 * 1.5
    kerned = {"A": 0.5, "V": 0.5, "AV": -0.1, "VA": -0.05}
    assert abs(run_advance(r, kerned) - 10.0 * (1.5 - 0.15)) < 1e-9


def test_pdf_font_size_line_tolerance():
    """Baseline jitter within 0.2×size joins one line for large type but
    splits for small type (odredi-oblast-reda-ii refinement)."""
    from ocr_lib_ray.kernel.pdf import extract_pdf

    big = (
        "BT /F1 40 Tf 1 0 0 1 72 700 Tm (left part) Tj"
        " 1 0 0 1 150 694 Tm (right part) Tj ET"
    )
    text, spans, _, _ = extract_pdf(big, CFG)
    assert text == "left part right part"
    assert len(spans) == 1  # Δy=6 ≤ 0.2×40: ONE line
    small = (
        "BT /F1 12 Tf 1 0 0 1 72 700 Tm (left part) Tj"
        " 1 0 0 1 150 694 Tm (right part) Tj ET"
    )
    text, spans, _, _ = extract_pdf(small, CFG)
    assert text == "left part right part"  # same block (gap 6 < 30)
    assert len(spans) == 2  # but Δy=6 > max(2.0, 2.4): TWO lines


def test_pdf_rot_fixture_golden():
    """pdf_rot pages (two-font + mid-page rotated watermark): the pure
    45° rotation RE-FLOWS along its own baseline and appends as the
    final block — golden_text carries the trailing DRAFT line; the
    residual stream stays empty (nothing is rejected any more)."""
    from ocr_lib_ray.sources.pages import golden_text, make_pdf_rot

    text = "many words flow here across several synthetic lines " * 10
    res = extract_document(make_pdf_rot(23, text))
    assert res.doc_kind == "pdf"
    assert res.text == golden_text(23, text)
    assert res.text.endswith("\nDRAFT 23")
    assert res.title == "Document 23"
    assert len(res.residuals) == 0


def test_pdf_multipage_streams():
    """Multi-page object model: each stream…endstream block is a page;
    pages extract independently (a global y-sort would interleave them —
    page 2's y=760 title must NOT merge with page 1's) and concatenate
    in file order; span offsets stay document-absolute."""
    data = (
        "%PDF-1.4\n1 0 obj << /Type /Page >> endobj\n"
        "stream\nBT /F1 12 Tf 1 0 0 1 72 760 Tm (Page One Title) Tj "
        "1 0 0 1 72 700 Tm (page one body) Tj ET\nendstream\n"
        "2 0 obj << /Type /Page >> endobj\n"
        "stream\nBT /F1 12 Tf 1 0 0 1 72 760 Tm (Page Two Title) Tj "
        "1 0 0 1 72 700 Tm (page two body) Tj ET\nendstream\n%%EOF\n"
    )
    res = extract_document(data.encode())
    assert res.doc_kind == "pdf"
    assert res.text == (
        "Page One Title\npage one body\nPage Two Title\npage two body"
    )
    # block ids continue across pages (2 blocks per page)
    assert [s["block_id"] for s in res.spans] == [0, 1, 2, 3]
    # offsets are document-absolute: the literal text sits at each span
    for s, want in zip(
        res.spans, ["Page One Title", "page one body", "Page Two Title", "page two body"]
    ):
        assert data[s["start"] : s["end"]] == want


def test_table_extraction_policy():
    """Data tables: each cell is its own block; short cells reject (→
    residuals), sentence-length cells accept — pinned policy."""
    html = (
        "<table><caption>Results table</caption>"
        "<tr><th>name</th><th>value</th></tr>"
        "<tr><td>alpha</td><td>this row has a full sentence inside it</td></tr>"
        "</table>"
    )
    res = extract_document(html.encode())
    assert res.text == "Results table\nthis row has a full sentence inside it"
    assert [s["kind"] for s in res.spans] == ["satellite", "content"]
    assert len(res.residuals) == 3  # name, value, alpha


def test_pdf_multiple_text_objects():
    """Each BT resets the text position; objects cluster by their own
    coordinates — pinned."""
    data = (
        "BT 1 0 0 1 72 700 Tm (first object line) Tj ET\n"
        "BT 1 0 0 1 72 650 Tm (second object line) Tj ET"
    )
    text, spans, _res, _rt = extract_pdf(data, CFG)
    assert text == "first object line\nsecond object line"
    assert [s["block_id"] for s in spans] == [0, 1]


@pytest.mark.parametrize("chunked", [False, True])
def test_chunked_extraction_identical(chunked):
    html = ("<main>" + "".join(f"<p>block {i} with several words</p>" for i in range(200)) + "</main>").encode()
    # giant_threshold=0 sends every page down the chunked parse
    a = extract_document(html, ExtractConfig(giant_threshold=0) if chunked else CFG)
    b = extract_document(html, ExtractConfig(giant_threshold=0, chunk_size=64))
    assert a.text == b.text and a.spans == b.spans


def test_pdf_multipage_residual_ids_disjoint():
    """A page-1 DEGENERATE stamp's residual id must not collide with
    page 2's content block ids (shared id space per document; pure
    rotations AND invertible shears re-flow since round 4, so only
    det≈0 runs reject now)."""
    data = (
        "stream\nBT 1 0 0 1 72 760 Tm (p1 title words) Tj "
        "1 0 0 1 72 700 Tm (p1 body words) Tj "
        "1 1 1 1 200 400 Tm (WM) Tj ET\nendstream\n"
        "stream\nBT 1 0 0 1 72 760 Tm (p2 title words) Tj "
        "1 0 0 1 72 700 Tm (p2 body words) Tj ET\nendstream\n"
    )
    res = extract_document(("%PDF-1.4\n" + data).encode())
    span_ids = [s["block_id"] for s in res.spans]
    assert res.residuals == [2]  # after page 1's two blocks
    assert set(res.residuals).isdisjoint(span_ids)
    assert span_ids == [0, 1, 3, 4]  # page 2 skips the residual id


def test_pdf_prop_fixture_default_merges_and_taught_splits():
    """pdf_prop discriminator: untaught (flat heuristic) extraction
    merges each line's two runs (golden + span counts equal the pdf
    kind); a width-taught config measures the true 210pt gap and splits
    them — MORE spans, IDENTICAL text."""
    from ocr_lib_ray.sources.pages import (
        PROP_WIDTHS,
        golden_text,
        make_pdf_prop,
        page_kind,
    )

    assert page_kind(66) == "pdf_prop"  # 66 % 29 == 8, not pdf/pdf_rot
    text = "some sensible words make each generated line split across runs " * 4
    payload = make_pdf_prop(66, text)
    res = extract_document(payload)
    assert res.doc_kind == "pdf"
    assert res.text == golden_text(66, text)  # merged — shared golden
    nw = len(res.text.split("\n")[1].split(" "))
    assert len(res.spans) == 1 + -(-nw // 8)  # the pdf-kind closed form
    taught = extract_document(
        payload, ExtractConfig(pdf_glyph_widths=dict(PROP_WIDTHS))
    )
    assert taught.text == res.text  # text invariant under column split
    assert len(taught.spans) > len(res.spans)


def test_learn_glyph_widths_recovers_table():
    """nauci-slova width-teaching analog: solving measured run extents
    recovers the true table, and the bundle threads it into the
    config's pdf_glyph_widths."""
    from ocr_lib_ray.sources.pages import PROP_WIDTHS
    from ocr_lib_ray.state.bundle import build_bundle, learn_glyph_widths

    chars = "filmastoner "
    samples = [(c * 4, 12.0, 48.0 * PROP_WIDTHS[c]) for c in chars]
    samples += [
        (w, 12.0, 12.0 * sum(PROP_WIDTHS[c] for c in w))
        for w in ("fill mass", "til moon", "rift loom", "rates stone")
    ]
    learned = learn_glyph_widths(samples)
    assert set(learned) == set(chars)
    for c in chars:
        assert abs(learned[c] - PROP_WIDTHS[c]) < 1e-5
    bundle = build_bundle(glyph_widths=learned)
    cfg = bundle.apply_to(ExtractConfig())
    assert cfg.pdf_glyph_widths == learned
    assert ExtractConfig().pdf_glyph_widths is None  # untaught default


def test_infer_glyph_widths_from_corpus_extents():
    """Round-5 inference analog of nauci-slova: NO taught table — the
    solver works from the run extents the document stream itself
    exposes (true advance + the producer's constant gap, modeled as
    one shared unknown).  On the integer-geometry pdf_prop fixture the
    system is exact: recovered widths match PROP_WIDTHS, the gap
    matches PROP_GAP, and extraction with the INFERRED table splits
    identically to extraction taught the true table."""
    from ocr_lib_ray.kernel.pdf import width_samples
    from ocr_lib_ray.sources.pages import PROP_GAP, PROP_WIDTHS, make_pdf_prop
    from ocr_lib_ray.state.bundle import infer_glyph_widths

    # a deterministic 20-doc corpus with rotating word mixes AND word
    # counts NOT ≡ 0 (mod words-per-line), so (a) the sample count well
    # exceeds the observed alphabet (full-rank system — with too few
    # samples min-norm lstsq smears the shared gap across chars) and
    # (b) tail lines carry fewer words, breaking the constant-space-
    # count collinearity between the space column and the gap column
    pool = (
        "some sensible words make each generated line split across runs "
        "narrow fill till rift mass stone loom rates moon tiles quick "
        "brown vixens jump over lazy dogs while zebras graze Words Like "
        "These Should Also Split Very Often"
    ).split(" ")
    corpus = [
        (d, " ".join(pool[(7 * i + 3 * d) % len(pool)] for i in range(37)))
        for d in range(20)
    ]
    samples = []
    for doc_id, text in corpus:
        payload = make_pdf_prop(doc_id, text)
        samples.extend(width_samples(payload.decode("utf-8")))
    assert len(samples) > 60, "fixture corpus must emit many split lines"
    widths, gap = infer_glyph_widths(samples, min_count=3)
    assert abs(gap - PROP_GAP / 12.0) < 1e-3
    for c, w in widths.items():
        assert abs(w - PROP_WIDTHS[c]) < 1e-3, (c, w, PROP_WIDTHS[c])
    # behavioral closure: the inferred table splits exactly like the
    # taught one on a fresh document of the same font
    payload = make_pdf_prop(66, corpus[0][1])
    inferred = extract_document(payload, ExtractConfig(pdf_glyph_widths=widths))
    taught = extract_document(
        payload, ExtractConfig(pdf_glyph_widths=dict(PROP_WIDTHS))
    )
    untaught = extract_document(payload)
    assert inferred.text == taught.text == untaught.text
    assert len(inferred.spans) == len(taught.spans) > len(untaught.spans)


def test_infer_glyph_widths_learns_pair_kerning():
    """pair_candidates recovers a negative kerning delta from observed
    extents: runs containing 'AV' advance 0.1 em less than their
    per-char sum, and the solved table carries that as a two-char key
    (the run_advance kerning consumer added in round 4).  The pair set
    is caller-named — open-set pair inference is structurally
    underdetermined on word-composed text (rank bounded by the word
    vocabulary), see the solver docstring."""
    from ocr_lib_ray.kernel.pdf import width_samples
    from ocr_lib_ray.state.bundle import infer_glyph_widths

    w = {"A": 0.5, "V": 0.5, "a": 0.5, "o": 0.5, "n": 0.5, "e": 0.5,
         "t": 0.25, " ": 0.25}
    kern = {"AV": -0.1}
    gap = 10.0  # points between runs

    def adv(text):
        a = sum(w[c] for c in text) + sum(
            kern.get(x + y, 0.0) for x, y in zip(text, text[1:])
        )
        return 12.0 * a

    # enough varied lines for a full-rank system over the small
    # alphabet + the frequent pairs (min-norm smears otherwise)
    # "Aton"/"neAt" carry A WITHOUT a following V (else the A and AV
    # columns are perfectly collinear); word LENGTHS vary 3-5 (else
    # char-count/4 − space-count ≡ 1 duplicates the gap column)
    pool = ["AVon", "oat", "tean", "AVet", "onat", "atone",
            "AVan", "tone", "neAt", "aeon", "Vane", "Aton"]
    lines, y = [], 3000
    for i in range(60):
        # 1-3 words per left run — a CONSTANT space count would be
        # collinear with the shared gap column (min-norm smears)
        nw = 1 + (i % 3)
        left = " ".join(pool[(i * 5 + 3 * j + 3) % len(pool)] for j in range(nw))
        x2 = 72 + adv(left) + gap
        lines.append(f"1 0 0 1 72 {y} Tm ({left}) Tj")
        lines.append(f"1 0 0 1 {x2} {y} Tm (Vote) Tj")
        y -= 20
    stream = "BT /F1 12 Tf\n" + "\n".join(lines) + "\nET"
    samples = width_samples(stream)
    assert len(samples) == 60
    widths, g = infer_glyph_widths(
        samples, min_count=2, pair_candidates=["AV", "To"]
    )
    assert abs(g - gap / 12.0) < 1e-3
    assert abs(widths["AV"] - kern["AV"]) < 1e-3
    for c in "AVonet":
        assert abs(widths[c] - w[c]) < 1e-3


def test_infer_glyph_widths_empty_and_bounds():
    from ocr_lib_ray.state.bundle import infer_glyph_widths

    assert infer_glyph_widths([]) == ({}, 0.0)
    # zero/negative sizes are skipped, under-observed chars omitted
    widths, _g = infer_glyph_widths(
        [("ab", 0.0, 10.0), ("q", 12.0, 6.3)], min_count=2
    )
    assert widths == {}
