"""Block segmentation + classification.

Segmentation is the analog of ``grouping-dots-fn`` (flood fill + hooks +
sorted insert, /root/reference/src/clj/ocr_lib/core.clj:877-955): the
tokenizer's atomic units (text nodes) are clustered into candidate
blocks in reading order.  For HTML the adjacency relation is "same
block_seq interval" (no block-level boundary between the nodes), and
reading order is document order — so clustering is a single linear pass
over the node arrays (the reference needs BFS because pixel adjacency is
2-D; DOM adjacency is 1-D).

Classification is the analog of ``check-matching-fn`` +
``maching-unknown-signs-fn`` (core.clj:1020-1069, 1591-1695): each block
gets a deterministic accept/reject decision — accepted blocks become
output text in reading order, rejected blocks become capped residuals
(the ``"*"`` / unknown-sign-crop analog).  The decision rule uses
integer arithmetic only (word counts, link-word counts, tag classes) so
it is exact across platforms and parallelism levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tokenizer import TokenizedDoc, collapse_ws, unescape
from ..config import ExtractConfig


@dataclass
class Block:
    start: int
    end: int
    text: str
    tag: str
    n_words: int
    link_words: int
    is_heading: bool
    is_list: bool
    is_boiler: bool


def segment(doc: TokenizedDoc, entities: dict | None = None) -> list:
    """Group text nodes into reading-order blocks.

    A block = a maximal run of nodes sharing ``block_seq``.  Node texts
    are entity-decoded, concatenated (inline boundaries add nothing —
    ``foo<b>od`` is one word), then whitespace-collapsed.  Blocks whose
    collapsed text is empty are dropped (noise analog:
    ``obrisi-piksele``, core_helper.clj:519-561).
    """
    blocks: list = []
    seqs = doc.block_seq
    texts = doc.texts
    links = doc.link
    heads = doc.heading
    lis = doc.listitem
    boils = doc.boiler
    n = len(texts)
    i = 0
    while i < n:
        j = i
        seq = seqs[i]
        while j < n and seqs[j] == seq:
            j += 1
        if j == i + 1:  # common case: single-node block
            t = unescape(texts[i], entities)
            heading, listitem, boiler = heads[i], lis[i], boils[i]
            text = collapse_ws(t)
            link_words = text.count(" ") + 1 if links[i] and text else 0
        else:
            parts = []
            link_words = 0
            heading = listitem = boiler = False
            for k in range(i, j):
                t = unescape(texts[k], entities)
                parts.append(t)
                if links[k]:
                    ct = collapse_ws(t)
                    if ct:
                        link_words += ct.count(" ") + 1
                heading = heading or heads[k]
                listitem = listitem or lis[k]
                boiler = boiler or boils[k]
            text = collapse_ws("".join(parts))
        if text:
            blocks.append(
                Block(
                    start=doc.starts[i],
                    end=doc.ends[j - 1],
                    text=text,
                    tag=doc.block_tag[i],
                    n_words=text.count(" ") + 1,
                    link_words=link_words,
                    is_heading=heading,
                    is_list=listitem,
                    is_boiler=boiler,
                )
            )
        i = j
    return blocks


def classify(block: Block, cfg: ExtractConfig) -> str:
    """Deterministic accept/reject; returns the block kind or ''.

    Decision rule (the argmax+threshold analog, core.clj:1628-1638):

    * boilerplate-ancestored blocks are never content (tag-class rule);
    * headings accept with >= 1 word and link-density <= 1/3 → "heading";
    * other blocks accept with >= ``min_words`` words and link-density
      <= 1/3 → "list" when inside <li>, else "content";
    * everything else is rejected → residual.

    Link density uses the exact integer comparison
    ``link_words * den <= n_words * num`` (no floats).
    """
    if block.is_boiler:
        return ""
    low_link = (
        block.link_words * cfg.link_density_den
        <= block.n_words * cfg.link_density_num
    )
    if block.tag in ("figcaption", "caption"):
        # satellite attachment (the hooks analog, find-dots-hooks-fn
        # core.clj:687-751): caption fragments below the word threshold
        # still belong to their figure/table — accepted with their own
        # kind so the span structure records the attachment.
        return "satellite" if block.n_words >= 1 and low_link else ""
    if block.is_heading:
        return "heading" if block.n_words >= 1 and low_link else ""
    if block.n_words >= cfg.min_words and low_link:
        return "list" if block.is_list else "content"
    return ""
