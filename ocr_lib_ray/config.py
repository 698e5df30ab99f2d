"""Frozen extraction configuration.

Analog of the reference's tuning scalars threaded through every call
(``light-value``/``contrast-value``/``space-value``/``hooks-value``/
``matching-value``/``unknown-sign-count-limit-per-thread`` —
/root/reference/src/clj/ocr_lib/core.clj:1772-1806) plus the template
store the caller passes in (core.clj:1782).  Unlike the reference the
config is a single immutable object built once and shipped to every
actor, and the residual cap is PER DOCUMENT (the reference's per-thread
cap leaks thread count into the output — core.clj:1637-1672 — which
would break byte-identical output across parallelism levels).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExtractConfig:
    # -- classification (analog of matching-value accept threshold,
    #    core.clj:1628-1638): a block is "content" when it has at least
    #    min_words words and link-density <= 1/3.  Integer rule
    #    (3 * link_words <= n_words) so the decision is exact and
    #    platform-independent.
    min_words: int = 3
    link_density_num: int = 1  # accept iff link_words * den <= n_words * num
    link_density_den: int = 3

    # -- residuals (analog of unknown-sign crops + "*" emission,
    #    core.clj:1637-1672).  Cap is per document, deterministic.
    residual_cap: int = 8
    # keep the rejected blocks' text (the unknown-sign-CROP analog,
    # draw-sign core.clj:1071-1133) in a debug column; off by default —
    # it retains boilerplate bytes in the output
    keep_residual_texts: bool = False

    # -- PDF branch layout clustering (analog of projection-profile row
    #    segmentation, core_helper.clj:675-732): runs whose y differs by
    #    less than line_tol are one line; consecutive lines with y-gap
    #    greater than block_gap start a new block.
    pdf_line_tol: float = 2.0
    pdf_block_gap: float = 30.0
    # column split: x-gap between consecutive runs on one line greater
    # than this starts a new column segment (projection-profile analog,
    # core_helper.clj:395-444)
    pdf_col_gap: float = 200.0
    # per-glyph advance table {char: fraction-of-font-size} — the
    # learned-width analog (citaj consumption core_helper.clj:324-361,
    # taught by the nauci-slova analog state/bundle.learn_glyph_widths).
    # None = the flat GLYPH_WIDTH_FRACTION heuristic (frozen default
    # behavior); taught tables usually arrive via ClassifierBundle.
    pdf_glyph_widths: dict | None = None

    # -- giant pages (analog of the band split for big pages,
    #    core.clj:1460-1481): documents with len(html) above this parse
    #    in chunk_size passes (read-black-dots-part-fn + merge-separated-
    #    parts seam algebra, core.clj:398-501,1392-1458) that carry the
    #    tag-stack across the seam and equal the unchunked parse.  This
    #    bounds no memory: a page costs O(page) either way (the decoded
    #    page and its whole TokenizedDoc stay resident).  Extraction runs
    #    once per input block (Ray Data's reader builds blocks of up to
    #    DataContext.target_max_block_size, 128 MiB default) and turns
    #    it into Python objects stages.extract_stage.ROWS_PER_SLICE rows
    #    at a time, so those rows' pages and results are co-resident.
    giant_threshold: int = 1 << 20  # 1 MiB
    chunk_size: int = 256 * 1024

    # -- partitioning (north_rule: partition by url-hash)
    num_partitions: int = 16

    # -- actor pool sizing; None = autoscale (1, cluster CPUs)
    concurrency: tuple | None = None


DEFAULT_CONFIG = ExtractConfig()
