"""Deterministic synthetic pages table (the ``input_hint`` table).

Analog of the reference's fixture discipline (two checked-in images +
golden values, /root/reference/test/clj/ocr_lib/core_test.clj, and the
``nauci-slova`` fixture loader, core_helper.clj:1833-1989): every test
input is derived deterministically so goldens are exact.

Each row of the driver's ``documents`` table becomes one page (or
``repeat`` pages for bench scale) with schema exactly
``(url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string)``.  The page kind is a pure function of ``doc_id``:

* ``doc_id % 17 == 3``  → ``pdf``       (content-stream branch)
* ``doc_id % 19 == 4``  → ``pdf_rot``   (two-font + 45°-rotated
  watermark; the rotation RE-FLOWS along its own baseline and appends
  as the final block → golden gains a trailing ``DRAFT {id}`` line)
* ``doc_id % 29 == 8``  → ``pdf_prop``  (proportional-font content
  stream: body lines emitted as two abutting runs positioned with the
  :data:`PROP_WIDTHS` table; the flat width heuristic still merges them
  → same golden/spans as ``pdf``, while a bundle taught with
  PROP_WIDTHS splits them — the learned-width discriminator)
* ``doc_id % 23 == 6``  → ``pdf_shear`` (sheared-stamp content stream,
  round 4: the non-rigid [1 0 0.3 1] stamp RE-FLOWS through the inverse
  matrix and appends as the final block → golden gains a trailing
  ``SHEAR {id}`` line)
* ``doc_id % 13 == 5``  → ``malformed`` (unclosed/mis-nested tags; the
  tag-stack recovery rules neutralize them → same golden text)
* ``doc_id % 11 == 7``  → ``noisy``     (comments, tracking pixels,
  empty tags; noise rules drop them → same golden text)
* otherwise             → ``plain``

All kinds share ONE golden, ``"Document {doc_id}\\n" + collapse_ws(text)``
(title heading block + body content block) — except ``pdf_rot``
(``"\\nDRAFT {doc_id}"`` appended) and ``pdf_shear``
(``"\\nSHEAR {doc_id}"``) — which keeps the DuckDB oracle SQL a closed
form while still exercising error recovery, noise removal, boilerplate
rejection, both branch dispatches, the rotation re-flow and the
inverse-matrix shear re-flow.
"""

from __future__ import annotations

import pyarrow as pa

from ..kernel.tokenizer import collapse_ws

EPOCH_US = 1577836800_000_000  # 2020-01-01T00:00:00Z in microseconds
URL_PREFIX = "https://corpus.test/"
PDF_WORDS_PER_LINE = 8

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def page_kind(doc_id: int) -> str:
    if doc_id % 17 == 3:
        return "pdf"
    if doc_id % 19 == 4:
        return "pdf_rot"  # two-font + rotated-watermark content stream
    if doc_id % 29 == 8:
        return "pdf_prop"  # proportional-font two-run lines
    if doc_id % 23 == 6:
        return "pdf_shear"  # sheared-stamp content stream (round 4)
    if doc_id % 13 == 5:
        return "malformed"
    if doc_id % 11 == 7:
        return "noisy"
    return "plain"


def page_url(doc_id: int, source: str, rep: int = 0) -> str:
    base = f"{URL_PREFIX}{source}/{doc_id}"
    return base if rep == 0 else f"{base}?rep={rep}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _esc_pdf(text: str) -> str:
    return text.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


_CHROME_HEAD = (
    "<!DOCTYPE html>\n<html lang=\"{lang}\">\n<head><title>Document {doc_id}</title>"
    '<meta charset="utf-8"/></head>\n<body>\n'
    '<header><nav><ul><li><a href="/">Home</a></li>'
    '<li><a href="/{source}">{source}</a></li>'
    '<li><a href="/about">About Us</a></li></ul></nav></header>\n'
)
_CHROME_TAIL = (
    '<aside><p><a href="/r/1">Related one</a> <a href="/r/2">Related two</a> '
    '<a href="/r/3">Related three</a></p></aside>\n'
    '<footer><p>Copyright 2026 {source} archive. <a href="/terms">Terms</a> '
    '<a href="/privacy">Privacy</a></p></footer>\n</body>\n</html>\n'
)


def make_html(doc_id: int, text: str, lang: str, source: str, kind: str) -> bytes:
    body = _esc(collapse_ws(text))
    head = _CHROME_HEAD.format(lang=lang, doc_id=doc_id, source=source)
    tail = _CHROME_TAIL.format(source=source)
    if kind == "malformed":
        # unclosed <b>, stray </span>, p left open before </main>: the
        # recovery rules (pop-through, ignore-unmatched, EOF-close) make
        # this extract identically to the plain kind.
        main = (
            f"<main>\n<article>\n<h1>Document {doc_id}</h1></span>\n"
            f"<p><b>{body}\n</article>\n</main>\n"
        )
    elif kind == "noisy":
        main = (
            f"<main>\n<!-- tracking -->\n<article>\n<h1>Document {doc_id}</h1>\n"
            f'<img src="/t.gif" width="1" height="1"/>\n<p>   </p>\n'
            f"<p>{body}</p>\n<span></span>\n<div>\n  \n</div>\n</article>\n</main>\n"
        )
    else:
        main = (
            f"<main>\n<article>\n<h1>Document {doc_id}</h1>\n"
            f"<p>{body}</p>\n</article>\n</main>\n"
        )
    return (head + main + tail).encode("utf-8")


def make_pdf(doc_id: int, text: str) -> bytes:
    """Minimal text-positioning content stream with ``%PDF-`` magic.

    Title at y=760; body lines (``PDF_WORDS_PER_LINE`` words each) from
    y=700 stepping -14 — the title→body gap (60) exceeds
    ``pdf_block_gap`` (30) so the title is its own block, and body lines
    are one block, matching the HTML golden exactly.
    """
    body = collapse_ws(text)
    words = body.split(" ") if body else []
    lines = [
        " ".join(words[i : i + PDF_WORDS_PER_LINE])
        for i in range(0, len(words), PDF_WORDS_PER_LINE)
    ]
    ops = [f"1 0 0 1 72 760 Tm (Document {doc_id}) Tj"]
    y = 700
    for ln in lines:
        ops.append(f"1 0 0 1 72 {y} Tm ({_esc_pdf(ln)}) Tj")
        y -= 14
    stream = "BT\n/F1 12 Tf\n" + "\n".join(ops) + "\nET\n"
    return (
        "%PDF-1.4\n1 0 obj << /Type /Catalog >> endobj\n"
        "stream\n" + stream + "endstream\n%%EOF\n"
    ).encode("utf-8")


def make_pdf_rot(doc_id: int, text: str) -> bytes:
    """Two-font + rotated-watermark content stream (round-2 PDF-depth
    fixture): title at /F2 24pt (font-size-aware line tolerance), body
    at /F1 12pt, plus a 45°-rotated ``DRAFT {doc_id}`` watermark placed
    mid-page (y=320 — inside the body's y-range on long documents, so a
    rotation-detection failure would corrupt the golden text).  Round 3:
    the extractor RE-FLOWS the pure rotation along its own baseline and
    appends it as the final block — the golden is every other kind's
    golden plus a trailing ``DRAFT {doc_id}`` line (see golden_text).
    """
    body = collapse_ws(text)
    words = body.split(" ") if body else []
    lines = [
        " ".join(words[i : i + PDF_WORDS_PER_LINE])
        for i in range(0, len(words), PDF_WORDS_PER_LINE)
    ]
    ops = ["/F2 24 Tf", f"1 0 0 1 72 760 Tm (Document {doc_id}) Tj", "/F1 12 Tf"]
    y = 700
    for ln in lines:
        ops.append(f"1 0 0 1 72 {y} Tm ({_esc_pdf(ln)}) Tj")
        y -= 14
    ops.append(
        f"0.707107 0.707107 -0.707107 0.707107 180 320 Tm (DRAFT {doc_id}) Tj"
    )
    stream = "BT\n" + "\n".join(ops) + "\nET\n"
    return (
        "%PDF-1.4\n1 0 obj << /Type /Catalog >> endobj\n"
        "stream\n" + stream + "endstream\n%%EOF\n"
    ).encode("utf-8")


def make_pdf_shear(doc_id: int, text: str) -> bytes:
    """Sheared-stamp content stream (round-4 PDF-depth fixture): title +
    body upright (same layout as ``pdf``), plus a ``SHEAR {doc_id}``
    stamp under the non-rigid matrix [1 0 0.3 1] (horizontal shear,
    det = 1).  Round 4: the extractor re-flows non-rigid INVERTIBLE
    matrices through M⁻¹ and appends the layer as the final block —
    the golden is every other kind's golden plus a trailing
    ``SHEAR {doc_id}`` line (see golden_text).  Before round 4 this
    stamp would have rejected to residuals."""
    body = collapse_ws(text)
    words = body.split(" ") if body else []
    lines = [
        " ".join(words[i : i + PDF_WORDS_PER_LINE])
        for i in range(0, len(words), PDF_WORDS_PER_LINE)
    ]
    ops = [f"1 0 0 1 72 760 Tm (Document {doc_id}) Tj"]
    y = 700
    for ln in lines:
        ops.append(f"1 0 0 1 72 {y} Tm ({_esc_pdf(ln)}) Tj")
        y -= 14
    ops.append(f"1 0 0.3 1 200 320 Tm (SHEAR {doc_id}) Tj")
    stream = "BT\n/F1 12 Tf\n" + "\n".join(ops) + "\nET\n"
    return (
        "%PDF-1.4\n1 0 obj << /Type /Catalog >> endobj\n"
        "stream\n" + stream + "endstream\n%%EOF\n"
    ).encode("utf-8")


#: Proportional-font advance table (fraction of font size) — the public
#: metrics of the ``pdf_prop`` fixture font and the table a deployment
#: teaches through ``build_bundle(glyph_widths=PROP_WIDTHS)``.  Widths
#: are DYADIC (0.25 / 0.5) so every advance at 12pt is an exact integer
#: number of points (3 / 6) — the x2 position in the generated stream
#: is integer, hence byte-reconstructable in SQL with no float
#: formatting hazards.  Every width ≤ 0.5 < the flat 0.6 heuristic, so
#: the flat estimate always OVERSHOOTS a covered run's true extent —
#: that overshoot guarantees the default-config merge (make_pdf_prop).
PROP_NARROW_CHARS = "filjrt.,:;'!()- "
PROP_WIDTHS = {
    **{
        c: 0.5
        for c in "abcdeghkmnopqsuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    },
    **{c: 0.25 for c in PROP_NARROW_CHARS},
}

#: true (proportional) gap in points between a pdf_prop line's two
#: runs; > the 200.0 pdf_col_gap, so a width-taught extractor splits
#: the line into two column segments while the flat heuristic's
#: overshoot merges it.
PROP_GAP = 210

#: minimum flat-vs-true overshoot (in 0.1pt units: 200 = 20pt) the
#: generator requires before emitting a split line — guarantees the
#: untaught apparent gap ≤ 190 < pdf_col_gap for EVERY emitted split.
PROP_MIN_OVERSHOOT_UNITS = 200


def _prop_adv_units(s: str) -> int | None:
    """Advance of a run at 12pt in 0.1pt integer units (narrow 30,
    other 60); None when any char is outside the table (the generator
    then falls back to a single-run line — no split whose geometry the
    SQL oracle could not reproduce exactly)."""
    total = 0
    for c in s:
        w = PROP_WIDTHS.get(c)
        if w is None:
            return None
        total += 30 if w == 0.25 else 60
    return total


def make_pdf_prop(doc_id: int, text: str) -> bytes:
    """Proportional-font content stream: each body line whose first
    half is table-covered and narrow enough is emitted as TWO runs, the
    second positioned at the first's TRUE (PROP_WIDTHS) extent plus
    :data:`PROP_GAP` points.

    Untaught (flat 0.6) extraction overestimates run 1's extent by at
    least 20pt (the generator only splits when the table guarantees
    that margin), so the apparent gap is ≤ 190 < pdf_col_gap and the
    runs MERGE — text and span counts equal the plain ``pdf`` kind,
    keeping the driver oracle a closed form.  A bundle taught with
    PROP_WIDTHS measures the true gap (210 > 200) and SPLITS the line —
    the per-glyph-width discriminator, exercised in pytest.  All
    geometry is integer points (dyadic widths), so the payload is
    byte-reconstructable in the media_features SQL oracle.
    """
    body = collapse_ws(text)
    words = body.split(" ") if body else []
    lines = [
        " ".join(words[i : i + PDF_WORDS_PER_LINE])
        for i in range(0, len(words), PDF_WORDS_PER_LINE)
    ]
    ops = [f"1 0 0 1 72 760 Tm (Document {doc_id}) Tj"]
    y = 700
    for ln in lines:
        ws = ln.split(" ")
        k = len(ws) // 2
        run1 = " ".join(ws[:k])
        units = _prop_adv_units(run1) if k >= 1 and len(ws) > k else None
        # flat estimate in the same 0.1pt units: 0.6 × 12pt = 72/char
        if units is not None and 72 * len(run1) - units >= PROP_MIN_OVERSHOOT_UNITS:
            run2 = " ".join(ws[k:])
            x2 = 72 + units // 10 + PROP_GAP
            ops.append(f"1 0 0 1 72 {y} Tm ({_esc_pdf(run1)}) Tj")
            ops.append(f"1 0 0 1 {x2} {y} Tm ({_esc_pdf(run2)}) Tj")
        else:
            ops.append(f"1 0 0 1 72 {y} Tm ({_esc_pdf(ln)}) Tj")
        y -= 14
    stream = "BT\n/F1 12 Tf\n" + "\n".join(ops) + "\nET\n"
    return (
        "%PDF-1.4\n1 0 obj << /Type /Catalog >> endobj\n"
        "stream\n" + stream + "endstream\n%%EOF\n"
    ).encode("utf-8")


def golden_text(doc_id: int, text: str) -> str:
    """The frozen expected extraction per page kind: shared golden for
    every kind, plus the re-flowed watermark line for ``pdf_rot`` and
    the re-flowed sheared stamp for ``pdf_shear`` (round 4)."""
    body = collapse_ws(text)
    golden = f"Document {doc_id}" + ("\n" + body if body else "")
    kind = page_kind(doc_id)
    if kind == "pdf_rot":
        golden += f"\nDRAFT {doc_id}"
    elif kind == "pdf_shear":
        golden += f"\nSHEAR {doc_id}"
    return golden


def synthesize_pages_batch(batch: pa.Table, repeat: int = 1) -> pa.Table:
    """Arrow batch fn: documents rows → pages rows (stateless map stage).

    ``repeat > 1`` replicates each document with distinct urls (rep
    suffix) and warc_ts offsets — used only to scale bench input.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    sources = batch.column("source").to_pylist()
    urls, tss, htmls, out_texts, out_langs = [], [], [], [], []
    for doc_id, text, lang, source in zip(doc_ids, texts, langs, sources):
        kind = page_kind(doc_id)
        if kind == "pdf":
            payload = make_pdf(doc_id, text)
        elif kind == "pdf_rot":
            payload = make_pdf_rot(doc_id, text)
        elif kind == "pdf_prop":
            payload = make_pdf_prop(doc_id, text)
        elif kind == "pdf_shear":
            payload = make_pdf_shear(doc_id, text)
        else:
            payload = make_html(doc_id, text, lang, source, kind)
        for rep in range(repeat):
            urls.append(page_url(doc_id, source, rep))
            tss.append(EPOCH_US + doc_id * 1_000_000 + rep)
            htmls.append(payload)
            out_texts.append(text)
            out_langs.append(lang)
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array(out_texts, pa.string()),
            pa.array(out_langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )
