"""The single-document extraction kernel — the semantic spec.

Analog of ``procitaj-sliku-ii``
(/root/reference/src/clj/ocr_lib/core_helper.clj:1676-1741), the
reference's single-threaded per-document pipeline that defines the
canonical operator order: decode → normalize → read atomic units →
group into ordered structure → classify each unit → assemble text +
residuals.  The distributed Ray pipeline wraps exactly this function and
must equal it byte-for-byte at every parallelism level (the property the
reference's band-merge tests prove for its ``pcalls`` split,
core_test.clj:2474-2749).

Dispatch (the ``ImageIO/read`` format-sniff analog, core.clj:1498-1500):
``%PDF-`` magic → PDF branch; anything else → HTML branch; empty or
whitespace-only bytes → empty result (nil-guard discipline,
core_test.clj:12-83).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..config import DEFAULT_CONFIG, ExtractConfig
from .pdf import extract_pdf
from .segment import classify, segment
from .tokenizer import DEFAULT_TAGS, TagConfig, tokenize, tokenize_chunked


@dataclass
class ExtractResult:
    doc_kind: str  # "html" | "pdf" | "empty"
    text: str
    title: str = ""  # first heading block (html) / first block (pdf)
    spans: list = field(default_factory=list)  # dicts: start end block_id kind
    residuals: list = field(default_factory=list)  # rejected block ids, capped
    residual_texts: list = field(default_factory=list)  # only if cfg.keep_residual_texts


_BASE64_RE = re.compile(rb"^[A-Za-z0-9+/\s]*={0,2}\s*$")


def maybe_decode_base64(html: bytes) -> bytes:
    """Transparent base64 unwrap (``read-base64-image-fn`` parity,
    core.clj:190-208: the reference's public API accepts base64 payloads).

    Deterministic rule: a payload that contains no ``<`` in its first
    512 bytes, is ≥ 16 bytes, and consists solely of the base64
    alphabet is strictly decoded; the decode is kept only if the result
    starts with a known document magic (tag or ``%PDF-``).  A real HTML
    page always contains ``<`` (not in the base64 alphabet), so the
    rule cannot misfire on plain documents.
    """
    if len(html) < 16 or b"<" in html[:512]:
        return html
    if not _BASE64_RE.match(html):
        return html
    import base64

    try:
        decoded = base64.b64decode(html, validate=False)
    except Exception:
        return html
    head = decoded[:512].lstrip()
    if head.startswith(b"%PDF-") or head.startswith(b"<"):
        return decoded
    return html


def sniff_kind(html: bytes) -> str:
    """Content sniff on leading bytes (format-sniffing analog)."""
    if html is None:
        return "empty"
    head = html[:512].lstrip()
    if not head:
        return "empty"
    if head.startswith(b"%PDF-"):
        return "pdf"
    return "html"


_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([A-Za-z0-9_.:-]+)""", re.IGNORECASE
)

#: charsets honored by the sniffer; everything else falls back to utf-8.
#: windows-1252 also covers declared latin-1/ascii (WHATWG alias rule:
#: browsers decode iso-8859-1 as windows-1252).
_KNOWN_CHARSETS = {
    "utf-8": "utf-8",
    "utf8": "utf-8",
    "ascii": "cp1252",
    "us-ascii": "cp1252",
    "iso-8859-1": "cp1252",
    "latin-1": "cp1252",
    "latin1": "cp1252",
    "windows-1252": "cp1252",
    "cp1252": "cp1252",
}


def decode_bytes(html: bytes) -> str:
    """Deterministic charset handling (the grayscale-normalize analog):
    a ``<meta charset=…>`` declaration in the first 1024 bytes selects
    the decoder (utf-8 or windows-1252 family, per the WHATWG alias
    rule); otherwise utf-8.  Always ``errors="replace"`` — any byte
    input decodes to the same string on every run/machine."""
    m = _CHARSET_RE.search(html[:1024])
    enc = "utf-8"
    if m:
        declared = m.group(1).decode("ascii", "replace").lower()
        enc = _KNOWN_CHARSETS.get(declared, "utf-8")
    return html.decode(enc, errors="replace")


def extract_document(
    html: bytes,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    tags: TagConfig = DEFAULT_TAGS,
) -> ExtractResult:
    """bytes → (text, spans, residuals).  Pure; no I/O, no clock, no RNG.

    HTML branch: tokenize (in ``cfg.chunk_size`` passes past
    ``cfg.giant_threshold``; output-equal to the one-shot parse, memory
    O(page) either way) → segment into blocks → classify each block →
    accepted blocks join with "\\n" in reading order; rejected block ids
    become residuals capped at ``cfg.residual_cap`` per document
    (per-DOCUMENT, unlike the reference's per-thread cap — see
    config.py).
    """
    if html:
        html = maybe_decode_base64(html)
    kind = sniff_kind(html)
    if kind == "empty":
        return ExtractResult(doc_kind="empty", text="")
    data = decode_bytes(html)
    if kind == "pdf":
        text, spans, residuals, residual_texts = extract_pdf(data, cfg)
        # PDF title heuristic: the first block (top-of-page isolated line
        # group), matching the HTML first-heading rule on the fixtures
        title = text.split("\n", 1)[0] if spans and text else ""
        return ExtractResult(
            doc_kind="pdf",
            text=text,
            title=title,
            spans=spans,
            residuals=residuals,
            residual_texts=residual_texts,
        )
    if len(data) > cfg.giant_threshold:
        doc = tokenize_chunked(data, cfg.chunk_size, tags)
    else:
        doc = tokenize(data, tags)
    blocks = segment(doc, tags.entities)
    parts = []
    spans = []
    residuals = []
    residual_texts = []
    title = ""
    for bid, blk in enumerate(blocks):
        k = classify(blk, cfg)
        if k:
            if k == "heading" and not title:
                title = blk.text
            parts.append(blk.text)
            # block_id = SEGMENTATION index: spans and residuals share
            # one id space per document (as the PDF branch guarantees),
            # so a consumer can join the two without branch-dependent
            # semantics.  Accepted ids are therefore not dense.
            spans.append(
                {"start": blk.start, "end": blk.end, "block_id": bid, "kind": k}
            )
        elif len(residuals) < cfg.residual_cap:
            residuals.append(bid)
            if cfg.keep_residual_texts:
                residual_texts.append(blk.text)
    return ExtractResult(
        doc_kind="html",
        text="\n".join(parts),
        title=title,
        spans=spans,
        residuals=residuals,
        residual_texts=residual_texts,
    )
