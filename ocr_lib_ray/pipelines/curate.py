"""Composed corpus-curation pipeline over an already-extracted corpus:

    blocklist filter → keep-best normalized dedup → token-budget
    mixture sampling → deterministic shard shuffle

Operates on the documents schema (doc_id, text, source, lang,
n_chars) — curation of a corpus a prior extract job (or any upstream
producer) already landed as parquet.  Every stage is individually
SQL-oracled (filter_blocklist / dedup_keep_best / budget_sample /
shuffle_shards), and the composition is oracled end-to-end as the
``curate`` driver query.

Scale notes:
* ``budget_sample``'s rate depends on a global aggregate, so it scans
  its input twice; with ``checkpoint_dir`` the deduped survivors are
  parqueted once and both passes re-read parquet instead of
  re-running the filter+dedup lineage (the corpus.py checkpoint
  discipline — recommended beyond toy scale, and what a 100 TB run
  would do anyway for resumability).
* The dedup stage carries text through one pruned shuffle
  (keep_latest full-row carry); on dup-dominated corpora route
  through pipelines/corpus.py's winner-broadcast dedup instead.
"""

from __future__ import annotations

__all__ = ["curate_corpus"]


#: the structural Gopher rules — the language-neutral default for
#: ``quality_rules`` (r_stops is the English stop-word rule; enable it
#: only on English corpora)
GOPHER_STRUCTURAL = (
    "r_words", "r_wordlen", "r_symbol", "r_bullet", "r_ellip", "r_alpha",
)


def curate_corpus(
    docs_ds,
    blocklist_terms,
    budgets: dict,
    num_shards: int = 16,
    checkpoint_dir: str | None = None,
    overwrite: bool = False,
    quality_rules=None,
    ppl_keep=None,
):
    """Returns the curated corpus as (doc_id, source, shard, pos) —
    the deterministic training-shard assignment of every surviving
    document.  ``blocklist_terms``/``budgets`` as in
    :func:`functions.curation.filter_blocklist` /
    :func:`functions.sampling.budget_sample`.

    ``quality_rules``: opt-in Gopher quality gate — an iterable of
    rule-bit names from :func:`functions.text_stats.gopher_filter_batch`
    that must ALL hold (e.g. ``GOPHER_STRUCTURAL``); None (default)
    skips the gate, keeping the original 4-stage pipeline bit-stable.
    The gate is a map-only filter (zero extra shuffle) placed before
    the dedup so junk never pays for a shuffle.

    ``ppl_keep``: opt-in CCNet perplexity gate — an iterable of bucket
    names to KEEP (``("head", "middle")`` is the published recipe:
    drop the highest-perplexity tercile per language); None (default)
    skips it.  Requires a ``lang`` column on the input.  The gate
    trains the bigram LM on the blocklist survivors (one
    vocabulary-sized shuffle), takes per-language tercile thresholds
    from the distributed quantile histogram, and labels+filters
    map-only — the carried text is never materialized (see
    ``ccnet_buckets``), at the cost of one extra scoring scan.
    """
    from ..functions.curation import (
        dedup_keep_best,
        filter_blocklist,
        shuffle_shards,
    )
    from ..functions.sampling import budget_sample

    keep_cols = ("doc_id", "text", "source", "n_chars")
    if ppl_keep is not None:
        keep_cols = keep_cols + ("lang",)
    survivors = filter_blocklist(
        docs_ds,
        blocklist_terms,
        keep_cols=keep_cols,
    )
    if quality_rules is not None:
        import pyarrow.compute as pc

        from ..functions.text_stats import gopher_filter_batch

        rules = tuple(quality_rules)

        def gate(b):
            verdict = gopher_filter_batch(b)
            keep = verdict.column(rules[0])
            for r in rules[1:]:
                keep = pc.and_(keep, verdict.column(r))
            return b.filter(keep)

        survivors = survivors.map_batches(
            gate, batch_format="pyarrow", zero_copy_batch=True
        )
    if ppl_keep is not None:
        from ..functions.lm import ccnet_buckets

        keep = frozenset(ppl_keep)
        bad = keep - {"head", "middle", "tail"}
        if bad:
            raise ValueError(f"unknown ppl_keep buckets: {sorted(bad)}")
        labeled = ccnet_buckets(
            survivors, carry_cols=("text", "source", "n_chars")
        )

        def ppl_gate(b):
            import pyarrow as pa
            import pyarrow.compute as pc

            mask = pc.is_in(b.column("bucket"), value_set=pa.array(sorted(keep)))
            return b.filter(mask).select(["doc_id", "text", "source", "n_chars"])

        survivors = labeled.map_batches(
            ppl_gate, batch_format="pyarrow", zero_copy_batch=True
        )
    deduped = dedup_keep_best(survivors, carry_cols=("text", "source"))

    if checkpoint_dir is not None:
        from ..sources.tables import read_table
        from ..stages.manifest import safe_wipe_output

        safe_wipe_output(checkpoint_dir, overwrite=overwrite)
        deduped.write_parquet(checkpoint_dir)
        deduped = read_table(checkpoint_dir)

    sampled = budget_sample(deduped, budgets, keep_cols=("doc_id", "source"))
    return shuffle_shards(sampled, num_shards=num_shards)
