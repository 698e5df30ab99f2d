"""Corpus-curation operators: normalized dedup, blocklist filtering,
deterministic shard shuffle, one-pass multi-granularity rollup.

These are the remaining standard web-corpus curation stages (C4 /
Gopher-style): a "fuzzy-exact" dedup that keys on aggressively
normalized text (case/punctuation-blind — catches reformatted copies
exact dedup misses), a bad-terms blocklist filter, the deterministic
global shuffle that turns a curated corpus into training shards, and
the GROUPING SETS dashboard a curation run reports at.

All regex work runs on RE2 on BOTH sides (pyarrow.compute here, DuckDB
regexp_* in the oracle) so the SQL oracles are bit-exact, and all
hashes are md5 (DuckDB-reproducible) — the repo's no-wall-clock /
stable-hash discipline.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .chunking import PACK_ROWS_PER_PARTITION
from .dedup import _rows_estimate
from .joins import run_bucket_groups

__all__ = [
    "normalize_aggressive",
    "dedup_keep_best",
    "dedup_normalized",
    "filter_blocklist",
    "blocklist_pattern",
    "shuffle_shards",
    "rollup_stats",
]


def normalize_aggressive(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Case/punctuation-blind canonical form: lowercase, every run of
    non-[a-z0-9] becomes one space, trimmed.  SQL twin:
    ``trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))``.
    """
    return pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(col), "[^a-z0-9]+", " ")
    )


def _normalized_md5(batch: pa.Table) -> list:
    """md5 hex of each row's aggressive normal form — the ONE
    fingerprint definition both normalized-dedup operators key on (and
    the contract their SQL oracles replicate).  Null text raises: the
    oracle would keep a separate NULL group while a silent ``""``
    coercion would merge it into the empty-text group — fill or filter
    first, loudly (the repo-wide null discipline).
    """
    if batch.column("text").null_count:
        raise ValueError(
            "normalized dedup: null values in 'text' are unsupported — "
            "filter or fill them first (SQL would group NULL separately; "
            "coercing to '' would silently merge it with empty docs)"
        )
    norm = normalize_aggressive(batch.column("text")).to_pylist()
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in norm]


def dedup_normalized(docs_ds):
    """Exact dedup on the aggressive normal form: one winner (min
    doc_id) per distinct normalized text, plus the copy count.
    Returns (doc_id, n_copies).

    Shuffle discipline: the 32-hex md5 of the normal form is the ONLY
    thing shuffled (text never enters the exchange — same winner-key
    pattern as dedup_exact); the groupby carries
    corpus-rows × 40 bytes regardless of document size.
    """
    from ray.data.aggregate import Count, Min

    def fp(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(_normalized_md5(batch), pa.string())],
            names=["doc_id", "nfp"],
        )

    out = (
        docs_ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("nfp")
        .aggregate(
            Min("doc_id", alias_name="doc_id"),
            Count("doc_id", alias_name="n_copies"),
        )
    )
    return out.map_batches(
        lambda b: b.select(["doc_id", "n_copies"]), batch_format="pyarrow"
    )


def dedup_keep_best(docs_ds, carry_cols: tuple = ()):
    """Quality-winner dedup: one row per normalized-text group, keeping
    the LONGEST raw variant (max n_chars; tie → min doc_id) instead of
    the min-id winner — the curation rule when reformatted copies differ
    in completeness (truncated mirrors lose).  Returns
    (doc_id, n_chars, *carry_cols) — the winner's values of any
    ``carry_cols`` ride along (composed pipelines carry text/source).

    Pure composition: the normalized fingerprint feeds
    :func:`versions.keep_latest` (map-only per-block prune, then one
    winner per key), so the shuffle carries at most one row per key per
    block — 40 bytes when ``carry_cols`` is empty; with ``text`` carried
    the pruned winners' text does enter the exchange (the
    winner-broadcast pattern in pipelines/corpus.py is the alternative
    when duplicates dominate).
    """
    from .versions import keep_latest

    out_cols = ["doc_id", "n_chars", *carry_cols]

    def fp(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                batch.column("n_chars").cast(pa.int64()),
                *[batch.column(c) for c in carry_cols],
                pa.array(_normalized_md5(batch), pa.string()),
            ],
            names=[*out_cols, "nfp"],
        )

    best = keep_latest(
        docs_ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True),
        key_col="nfp",
        ts_col="n_chars",
        tie_col="doc_id",
    )
    return best.map_batches(
        lambda b: b.select(out_cols), batch_format="pyarrow"
    )


def blocklist_pattern(terms) -> str:
    """Word-boundary RE2 alternation over literal terms (phrases
    allowed) — the ONE pattern string both the Ray filter and the SQL
    oracle consume, so they cannot diverge.  Escapes only regex
    metacharacters (``re.escape`` would emit ``\\ `` for spaces, which
    RE2 — the engine on BOTH sides — rejects), and a ``\\b`` anchor is
    emitted only where the term EDGE is a word char: ``\\b`` after
    ``c++``'s '+' could never match, silently disabling the term."""
    import re

    if not terms:
        raise ValueError("blocklist_pattern: empty term list")

    def bound(raw: str) -> str:
        esc = re.sub(r"([\\^$.|?*+()\[\]{}])", r"\\\1", raw)
        pre = r"\b" if (raw[0].isalnum() or raw[0] == "_") else ""
        suf = r"\b" if (raw[-1].isalnum() or raw[-1] == "_") else ""
        return pre + esc + suf

    low = [t.lower() for t in terms]
    if any(not t for t in low):
        raise ValueError("blocklist_pattern: empty term")
    return "(?:" + "|".join(bound(t) for t in low) + ")"


def filter_blocklist(docs_ds, terms, keep_cols=("doc_id", "source", "lang")):
    """C4-style bad-terms filter: drop any document whose lowercased
    text contains a blocklisted word/phrase at word boundaries.
    Returns the surviving rows projected to ``keep_cols``.

    Map-only (no shuffle): the RE2 alternation is compiled once per
    batch call by Arrow's kernel cache and evaluated in C over the
    whole batch.  For blocklists beyond a few thousand terms, switch to
    token-set membership (hash join against a broadcast term set)
    instead of an alternation — RE2 compiles alternations to a DFA so
    moderate lists are fine.
    """
    pattern = blocklist_pattern(terms)
    cols = list(keep_cols)

    def keep(batch: pa.Table) -> pa.Table:
        hit = pc.match_substring_regex(pc.utf8_lower(batch.column("text")), pattern)
        return batch.filter(pc.invert(hit)).select(cols)

    return docs_ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def shuffle_shards(docs_ds, num_shards: int | None = None, approx_rows=None):
    """Deterministic global shuffle into training shards: shard =
    md5-lower64(str(doc_id)) % S, position = rank of the full md5 hex
    within the shard (doc_id tie-break, unreachable for distinct ids).
    Returns every input column plus (shard, pos) — a reproducible
    random permutation with NO RNG, re-derivable row-by-row by any
    engine with md5.

    Scale: one hash map + one exchange by shard; each shard sorts
    ~rows/S keys in one task, so ``num_shards=None`` derives
    S = ceil(rows / PACK_ROWS_PER_PARTITION) the same way
    pack_sequences sizes its partitions (metadata-first row estimate).
    S is part of the output contract — re-runs must reuse the same S.
    """
    if num_shards is None:
        if approx_rows is None:
            approx_rows = _rows_estimate(docs_ds)
        num_shards = max(1, -(-int(approx_rows) // PACK_ROWS_PER_PARTITION))
    S = int(num_shards)

    def key(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hexes = [hashlib.md5(str(i).encode("utf-8")).hexdigest() for i in ids]
        shard = [int.from_bytes(bytes.fromhex(h)[8:], "little") % S for h in hexes]
        return batch.append_column(
            "shard", pa.array(shard, pa.int64())
        ).append_column("h", pa.array(hexes, pa.string()))

    def order(g: pa.Table) -> pa.Table:
        # Arrow sort + take: value columns never round-trip through
        # pandas (nullable-int float hazard, see versions.keep_latest)
        idx = pc.sort_indices(
            g.select(["h", "doc_id"]),
            sort_keys=[("h", "ascending"), ("doc_id", "ascending")],
        )
        g = g.take(idx).drop_columns(["h"])
        return g.append_column("pos", pa.array(np.arange(len(g), dtype=np.int64)))

    return run_bucket_groups(
        docs_ds.map_batches(key, batch_format="pyarrow", zero_copy_batch=True),
        S,
        order,
        batch_format="pyarrow",
        bucket_col_name="shard",
    )


def rollup_stats(docs_ds):
    """One-pass multi-granularity corpus rollup — SQL ``GROUP BY
    GROUPING SETS ((source, lang), (source), ())`` with '*' filling the
    rolled-up keys.  Returns one row per grouping set member:
    (level, source, lang, n_docs, n_chars_sum).

    The corpus is scanned ONCE: per-batch Arrow partials aggregate to
    the finest (source, lang) level distributed; the two coarser levels
    are then derived from the FINE RESULT — ≤ |sources|×|langs| rows, a
    documented-small driver collection (the heavy_hitters discipline) —
    with local Arrow group_bys, because corpus-scale never reaches
    them.  Returns a pyarrow.Table.  Null group keys raise, as in
    corpus_report.
    """
    from ray.data.aggregate import Sum

    def partials(b: pa.Table) -> pa.Table:
        for c in ("source", "lang"):
            if b.column(c).null_count:
                raise ValueError(
                    f"rollup_stats: null keys in group column {c!r} are "
                    "unsupported — filter or fill them first"
                )
        t = pa.Table.from_arrays(
            [
                b.column("source"),
                b.column("lang"),
                pa.array([1] * len(b), pa.int64()),
                b.column("n_chars").cast(pa.int64()),
            ],
            names=["source", "lang", "n_docs", "n_chars_sum"],
        )
        g = t.group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("n_chars_sum", "sum")]
        )
        return g.rename_columns(["source", "lang", "n_docs", "n_chars_sum"])

    fine = (
        docs_ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "lang"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_chars_sum", alias_name="n_chars_sum"),
        )
    )

    # ONE distributed pass ends here; everything below is local over a
    # group-count-sized table (a 3-branch lazy plan would re-execute
    # the corpus scan per consumer — measured 5.7s vs 0.9s at bench sf)
    ft = pa.Table.from_pandas(fine.to_pandas(), preserve_index=False).select(
        ["source", "lang", "n_docs", "n_chars_sum"]
    )

    def level(t: pa.Table, name: str, src, lng) -> pa.Table:
        n = len(t)
        return pa.Table.from_arrays(
            [
                pa.array([name] * n, pa.string()),
                src if src is not None else pa.array(["*"] * n, pa.string()),
                lng if lng is not None else pa.array(["*"] * n, pa.string()),
                t.column("n_docs").cast(pa.int64()),
                t.column("n_chars_sum").cast(pa.int64()),
            ],
            names=["level", "source", "lang", "n_docs", "n_chars_sum"],
        )

    agg_spec = [("n_docs", "sum"), ("n_chars_sum", "sum")]
    by_source = (
        ft.group_by("source")
        .aggregate(agg_spec)
        .rename_columns(["source", "n_docs", "n_chars_sum"])
    )
    total = pa.Table.from_pylist(
        [
            {
                "n_docs": pc.sum(ft.column("n_docs")).as_py() or 0,
                "n_chars_sum": pc.sum(ft.column("n_chars_sum")).as_py() or 0,
            }
        ]
    )
    return pa.concat_tables(
        [
            level(ft, "source_lang", ft.column("source"), ft.column("lang")),
            level(by_source, "source", by_source.column("source"), None),
            level(total, "total", None, None),
        ]
    )
