"""Streaming array-backed tag-stack HTML tokenizer.

Analog of ``read-black-dots-fn`` (/root/reference/src/clj/ocr_lib/core.clj:332-396):
the parse step that turns opaque document bytes into the atomic units
everything downstream groups and classifies.  For the reference those
units are black pixels ``[x y]``; here they are text nodes with their
offsets and the tag context active when they were read.

No external tree library (north_star requirement): a single left-to-right
scan maintains an explicit stack of open tags.  Error-recovery rules are
deterministic and part of the golden spec (SURVEY.md §7.4):

* a ``<`` not followed by ``[a-zA-Z!/?]`` is literal text;
* a tag ends at the first ``>`` (attribute values containing ``>`` are
  not special-cased); an unterminated tag swallows the rest of the doc;
* ``<!-- ... -->`` comments (unterminated → to EOF), ``<!...>`` and
  ``<?...>`` declarations are skipped;
* ``<script>``/``<style>`` content is raw text, skipped up to the first
  case-insensitive ``</script``/``</style`` (unterminated → to EOF);
* void elements never push; ``/>`` never pushes;
* ``</x>`` pops up to and including the nearest open ``x``; with no open
  ``x`` it is ignored;
* implied ends: opening a block-level tag closes an open ``<p>``;
  opening ``<li>`` also closes an open ``<li>``;
* EOF closes everything.

Offsets (``start``/``end``) are character offsets into the decoded html
string (== byte offsets for ASCII documents).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# Tag classes ---------------------------------------------------------------

#: block-level tags: opening or closing one of these bumps the block
#: boundary counter (analog of the row boundary in the reference's page
#: structure, core.clj:770-785).
BLOCK_TAGS = frozenset(
    """html body head main article section div p h1 h2 h3 h4 h5 h6 ul ol li
    dl dt dd table caption thead tbody tfoot tr td th nav header footer aside
    blockquote pre figure figcaption form fieldset address hr br center
    noscript template iframe select option textarea title""".split()
)

#: subtree is page chrome, never main content (tag-class heuristic of the
#: north_star; analog of template classes that never match content).
BOILERPLATE_TAGS = frozenset(
    """head nav header footer aside form button select option script style
    noscript template iframe object svg title""".split()
)

HEADING_TAGS = frozenset(["h1", "h2", "h3", "h4", "h5", "h6"])

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

RAWTEXT_TAGS = frozenset(["script", "style"])

_RAWTEXT_END = {t: re.compile("</" + t, re.IGNORECASE) for t in RAWTEXT_TAGS}


class TagConfig:
    """Configurable tag-class tables (the teachable half of the
    classifier — the ``signs`` map analog).  Defaults are the module
    constants; a ClassifierBundle can extend/replace them so a
    deployment reclassifies chrome without code changes."""

    __slots__ = ("block", "boiler", "heading", "void", "rawtext", "entities")

    def __init__(
        self, block=None, boiler=None, heading=None, void=None, rawtext=None, entities=None
    ):
        self.block = frozenset(block) if block is not None else BLOCK_TAGS
        self.boiler = frozenset(boiler) if boiler is not None else BOILERPLATE_TAGS
        self.heading = frozenset(heading) if heading is not None else HEADING_TAGS
        self.void = frozenset(void) if void is not None else VOID_TAGS
        self.rawtext = frozenset(rawtext) if rawtext is not None else RAWTEXT_TAGS
        #: named-entity overlay (bundle extra_entities); None = module table
        self.entities = dict(entities) if entities is not None else None


DEFAULT_TAGS = TagConfig()

_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:-]*")
#: the non-space members of the ASCII whitespace class, mapped to " "
_WS_TO_SPACE = str.maketrans("\t\n\r\f\v", "     ")
_ENTITY_RE = re.compile(r"&(#x[0-9a-fA-F]{1,6}|#[0-9]{1,7}|[a-zA-Z][a-zA-Z0-9]{1,31});")

#: deterministic named-entity subset: the HTML basics plus the names
#: that actually occur at frequency in web text.  Unknown names pass
#: through verbatim (part of the golden spec — no silent guessing).
_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "copy": "©",
    "reg": "®",
    "trade": "™",
    "deg": "°",
    "middot": "·",
    "laquo": "«",
    "raquo": "»",
    "ldquo": "“",
    "rdquo": "”",
    "lsquo": "‘",
    "rsquo": "’",
    "ndash": "–",
    "mdash": "—",
    "hellip": "…",
    "bull": "•",
    "dagger": "†",
    "sect": "§",
    "para": "¶",
    "plusmn": "±",
    "times": "×",
    "divide": "÷",
    "frac12": "½",
    "frac14": "¼",
    "frac34": "¾",
    "euro": "€",
    "pound": "£",
    "yen": "¥",
    "cent": "¢",
    "shy": "",  # soft hyphen: dropped
}


def _entity_sub(m: re.Match) -> str:
    body = m.group(1)
    if body.startswith("#x") or body.startswith("#X"):
        try:
            cp = int(body[2:], 16)
        except ValueError:
            return m.group(0)
        return _safe_chr(cp, m.group(0))
    if body.startswith("#"):
        try:
            cp = int(body[1:])
        except ValueError:
            return m.group(0)
        return _safe_chr(cp, m.group(0))
    return _NAMED_ENTITIES.get(body, m.group(0))


def _safe_chr(cp: int, raw: str) -> str:
    """Codepoint → char, passing the reference text through verbatim for
    values no UTF-8 string may hold: lone surrogates U+D800-U+DFFF (one
    '&#xD800;' in a page would otherwise poison the whole Arrow batch —
    pa.array raises 'surrogates not allowed') and out-of-range values."""
    if 0xD800 <= cp <= 0xDFFF or cp > 0x10FFFF or cp < 0:
        return raw
    return chr(cp)


def unescape(text: str, entities: dict | None = None) -> str:
    """Decode the deterministic entity subset (named basics + numeric).

    ``entities`` overrides the named-entity table (the bundle's
    ``extra_entities`` re-teach surface); None keeps the module default
    on the zero-allocation fast path.
    """
    if "&" not in text:
        return text
    if entities is None:
        return _ENTITY_RE.sub(_entity_sub, text)

    def sub(m: re.Match) -> str:
        body = m.group(1)
        if body.startswith("#"):
            return _entity_sub(m)
        return entities.get(body, m.group(0))

    return _ENTITY_RE.sub(sub, text)


def collapse_ws(text: str) -> str:
    """Canonical whitespace: ASCII whitespace runs → one space, trimmed.

    Matches the SQL oracle ``trim(regexp_replace(x, '[ \\t\\n\\r\\f\\v]+',
    ' ', 'g'))`` exactly (the class is explicit so Python's unicode-aware
    ``\\s`` cannot diverge from it) without a regex pass: one
    ``translate`` maps the class to spaces, and only a text holding a
    double space is rebuilt from its space-separated words.
    """
    text = text.translate(_WS_TO_SPACE)
    if "  " in text:
        text = " ".join(filter(None, text.split(" ")))
    return text.strip()


# Parser state & node record ------------------------------------------------


@dataclass
class TagState:
    """Open-tag stack + derived counters; carried across chunk seams.

    Analog of the guard-row context of ``read-black-dots-part-fn``
    (core.clj:398-501): chunked parses that resume from this state are
    byte-equivalent to one unchunked parse (tested).
    """

    stack: list = field(default_factory=list)  # open tag names, bottom→top
    boiler_depth: int = 0
    link_depth: int = 0
    heading_depth: int = 0
    li_depth: int = 0
    block_seq: int = 0
    block_tag_stack: list = field(default_factory=list)  # open BLOCK tags

    # NOTE: deliberately a pure state container — the ONLY code that
    # mutates it is :func:`tokenize_range`'s hot loop (which reads tag
    # classes from the instance TagConfig).  Convenience push/pop methods
    # were removed: they duplicated the hot-loop transitions against
    # MODULE tag tables and would silently diverge under a re-taught
    # bundle TagConfig.


@dataclass
class TokenizedDoc:
    """Flattened text-node arrays for one document (parallel lists).

    The per-document equivalent of the reference's dot set — but keyed,
    flagged and offset so downstream stages are pure array code.
    """

    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    texts: list = field(default_factory=list)  # raw (entities NOT yet decoded)
    boiler: list = field(default_factory=list)
    link: list = field(default_factory=list)
    heading: list = field(default_factory=list)
    listitem: list = field(default_factory=list)
    block_seq: list = field(default_factory=list)
    block_tag: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.texts)


def tokenize_range(
    html: str,
    doc: TokenizedDoc,
    st: TagState,
    pos: int,
    limit: int,
    tags: TagConfig = DEFAULT_TAGS,
) -> int:
    """Tokenize ``html[pos:limit]`` continuing from state ``st``.

    Returns the resume position (> ``limit`` only when a construct that
    may not be split — a tag, comment, rawtext or text run straddling
    the seam — had to be consumed past it).  Appends nodes to ``doc`` in
    place.

    Hot loop: tag-stack state and output columns are held in locals and
    synced back to ``st`` on exit (the dataclass remains the seam-resume
    contract; this shaves ~30% off per-tag overhead vs method calls).
    """
    n = len(html)
    limit = min(limit, n)
    # --- load state + tag tables into locals -----------------------------
    BLOCK, BOIL = tags.block, tags.boiler
    HEAD, VOID, RAW = tags.heading, tags.void, tags.rawtext
    stack = st.stack
    # open-tag name counts: O(1) membership for close-tag matching (a
    # linear `tag in stack` scan is O(depth) per close tag → quadratic on
    # adversarially deep pages)
    open_counts: dict = {}
    for _t in stack:
        open_counts[_t] = open_counts.get(_t, 0) + 1
    boiler_d, link_d, heading_d, li_d = (
        st.boiler_depth,
        st.link_depth,
        st.heading_depth,
        st.li_depth,
    )
    block_seq = st.block_seq
    btags = st.block_tag_stack
    o_start, o_end, o_text = doc.starts, doc.ends, doc.texts
    o_boil, o_link, o_head = doc.boiler, doc.link, doc.heading
    o_li, o_seq, o_btag = doc.listitem, doc.block_seq, doc.block_tag
    find = html.find
    tag_match = _TAG_NAME_RE.match

    def emit(s: int, e: int, text: str) -> None:
        if not text or text.isspace():
            return
        o_start.append(s)
        o_end.append(e)
        o_text.append(text)
        o_boil.append(boiler_d > 0)
        o_link.append(link_d > 0)
        o_head.append(heading_d > 0)
        o_li.append(li_d > 0)
        o_seq.append(block_seq)
        o_btag.append(btags[-1] if btags else "")

    def pop_one() -> str:
        nonlocal boiler_d, link_d, heading_d, li_d, block_seq
        tag = stack.pop()
        open_counts[tag] -= 1
        if tag in BOIL:
            boiler_d -= 1
        if tag == "a":
            link_d -= 1
        if tag in HEAD:
            heading_d -= 1
        if tag == "li":
            li_d -= 1
        if tag in BLOCK:
            block_seq += 1
            if btags:
                btags.pop()
        return tag

    def pop_through(tag: str) -> None:
        while stack:
            if pop_one() == tag:
                return

    try:
        while pos < limit:
            lt = find("<", pos)
            if lt == -1 or lt >= limit:
                # A text run straddling the seam is consumed WHOLE (like
                # tags and comments): splitting it could land inside a
                # whitespace run, whose fragments are dropped as noise,
                # gluing the words on either side together (the
                # merge-separated-parts seam rule, core.clj:1392-1458).
                if lt == -1:
                    lt = n
                emit(pos, lt, html[pos:lt])
                return lt
            if lt > pos:
                emit(pos, lt, html[pos:lt])
            pos = lt
            nxt = html[lt + 1] if lt + 1 < n else ""
            if nxt == "!":
                if html.startswith("<!--", lt):
                    close = find("-->", lt + 4)
                    pos = n if close == -1 else close + 3
                else:
                    close = find(">", lt + 1)
                    pos = n if close == -1 else close + 1
                continue
            if nxt == "?":
                close = find(">", lt + 1)
                pos = n if close == -1 else close + 1
                continue
            if nxt == "/":
                close = find(">", lt + 2)
                name_m = tag_match(html, lt + 2)
                pos = n if close == -1 else close + 1
                if name_m:
                    tag = name_m.group(0).lower()
                    if open_counts.get(tag, 0) > 0:
                        pop_through(tag)
                continue
            name_m = tag_match(html, lt + 1)
            if not name_m:
                # literal '<'
                emit(lt, lt + 1, "<")
                pos = lt + 1
                continue
            tag = name_m.group(0).lower()
            close = find(">", lt + 1)
            if close == -1:
                return n  # unterminated tag swallows the tail
            self_closing = html[close - 1] == "/"
            pos = close + 1
            if tag in RAW and not self_closing:
                end_re = _RAWTEXT_END.get(tag) or re.compile("</" + tag, re.IGNORECASE)
                end_m = end_re.search(html, pos)
                if end_m is None:
                    return n
                close2 = find(">", end_m.start())
                pos = n if close2 == -1 else close2 + 1
                continue
            if tag in VOID or self_closing:
                if tag in BLOCK:  # <br>, <hr>: boundary without nesting
                    block_seq += 1
                continue
            # implied ends (top-of-stack only — deterministic minimal rule):
            # any block tag closes an open <p>; <li> also closes an open <li>.
            if stack:
                top = stack[-1]
                if top == "p" and tag in BLOCK:
                    pop_through("p")
                elif top == "li" and tag == "li":
                    pop_through("li")
            # push(tag), inlined
            stack.append(tag)
            open_counts[tag] = open_counts.get(tag, 0) + 1
            if tag in BOIL:
                boiler_d += 1
            if tag == "a":
                link_d += 1
            if tag in HEAD:
                heading_d += 1
            if tag == "li":
                li_d += 1
            if tag in BLOCK:
                block_seq += 1
                btags.append(tag)
        return pos
    finally:
        # --- sync state back for the next seam pass ----------------------
        st.boiler_depth, st.link_depth = boiler_d, link_d
        st.heading_depth, st.li_depth = heading_d, li_d
        st.block_seq = block_seq


def tokenize(html: str, tags: TagConfig = DEFAULT_TAGS) -> TokenizedDoc:
    """One-shot tokenize (the single-document semantic spec)."""
    doc = TokenizedDoc()
    st = TagState()
    pos = 0
    n = len(html)
    while pos < n:
        pos = tokenize_range(html, doc, st, pos, n, tags)
    return doc


def tokenize_chunked(html: str, chunk_size: int, tags: TagConfig = DEFAULT_TAGS) -> TokenizedDoc:
    """Tokenize in ``chunk_size`` passes (pages past ``giant_threshold``).

    Seam algebra analog of ``read-black-dots-part-fn`` +
    ``merge-separated-parts`` (core.clj:398-501, 1392-1458): each pass
    parses one byte range, the tag stack is carried across the seam, and
    a construct straddling the seam is consumed whole by the earlier
    pass.  Result is identical to :func:`tokenize` (property-tested).
    Memory is O(page) either way: the page and the whole
    :class:`TokenizedDoc` stay resident.
    """
    doc = TokenizedDoc()
    st = TagState()
    pos = 0
    n = len(html)
    while pos < n:
        pos = tokenize_range(html, doc, st, pos, min(pos + chunk_size, n), tags)
    return doc
