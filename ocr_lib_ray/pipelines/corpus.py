"""Composed training-corpus pipeline: extraction → dedup → quality gate.

The end-to-end shape a 100 TB training-data job actually runs — every
stage is one of this repo's operators, chained on a single streaming
Dataset:

    pages → extract (kernel)                  [per-batch map]
          → fingerprint extracted text        [vectorized map]
          → exact dedup (min url per content) [one groupby on the hash]
          → quality gate (min content length) [vectorized filter]

The exact-dedup groupby keys on the md5 fingerprint, not the text
itself, so the shuffle moves 32-byte keys + urls — never the documents.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.bucket_tasks import exchange_aggregate
from .extract import extract_pipeline


def _md5_hex(texts: list) -> list:
    """Dedup key: md5 over the RAW extracted text (already canonical —
    the kernel emits collapse_ws'd text), deliberately NOT
    text_stats.fingerprint_batch's re-normalizing form; one helper so
    the keyed pass and the winner filter can never diverge."""
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]


def fingerprint_extracted(batch: pa.Table) -> pa.Table:
    fps = _md5_hex(batch.column("text").to_pylist())
    return pa.Table.from_arrays(
        [
            batch.column("url"),
            pa.array(fps, pa.string()),
            pc.utf8_length(batch.column("text")).cast(pa.int64()),
        ],
        names=["url", "fingerprint", "text_chars"],
    )


def _exact_losers(keyed: rd.Dataset, num_buckets: int) -> rd.Dataset:
    """(doc_id, fp) rows → Dataset of exact-dedup losers (column ``d2``).

    A loser is any doc_id of a duplicated fp other than its min
    doc_id (the Min-winner policy; a repeated winner row is not a
    loser).  Grouping is on ``bucket_col(fp, num_buckets)`` — fp groups
    are near-singleton and per-group Python dispatch over them is the
    dominant cost otherwise (the sessionize_salted lesson) — with the
    fine key resolved vectorized inside the bucket.  Never collects;
    feeds :func:`ocr_lib_ray.functions.dedup.dedup_by_pairs`.
    """
    import numpy as np
    import pandas as pd

    from ..functions.joins import bucket_col, run_bucket_groups

    def tag(b: pa.Table) -> pa.Table:
        buckets = bucket_col(b.column("fp"), num_buckets)
        return b.append_column("bucket", pa.array(buckets, pa.int32()))

    def find_losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["fp", "doc_id"], kind="mergesort").reset_index(drop=True)
        fp = g["fp"].to_numpy()
        first = np.ones(len(g), dtype=bool)
        first[1:] = fp[1:] != fp[:-1]
        # each row's winner: the doc_id heading its fp run
        ids = g["doc_id"].to_numpy()
        winner = ids[np.flatnonzero(first)[np.cumsum(first) - 1]]
        losers = g.loc[ids != winner, "doc_id"]
        # explicit string dtype: an EMPTY object column would reach
        # Arrow as null-typed and poison the downstream groupby schema
        return pd.DataFrame({"d2": pd.array(losers.tolist(), dtype="string")})

    return run_bucket_groups(
        keyed.map_batches(tag, batch_format="pyarrow"), num_buckets, find_losers
    )


def build_training_data(
    pages: rd.Dataset,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    min_quality: float = 0.5,
    chunk_size: int = 32,
    chunk_overlap: int = 8,
    pack_budget: int = 128,
    checkpoint_dir: str | None = None,
    line_max_df: int = 1,
    overwrite: bool = False,
    mixture_rates: dict | None = None,
    mixture_key=None,
    mixture_default_rate: float = 1.0,
    eval_docs: rd.Dataset | None = None,
    decontam_n: int = 5,
    max_eval_grams: int = 20_000_000,
) -> rd.Dataset:
    """The full web-corpus → training-data pipeline, every stage one of
    this repo's operators on a single streaming Dataset:

        pages → extract (kernel)                 [map, tasks]
              → PII redact                       [vectorized map]
              → cross-doc repeated-line removal  [2 shuffle-light passes]
              → exact dedup (md5 groupby)        [32-byte-key shuffle]
              → model quality gate               [actor pool, broadcast w]
              → token-window chunking            [map]
              → sequence packing                 [hash-partition groupby]

    Returns packed-sequence rows (partition_id, seq_id, n_chunks,
    total_tokens).  Near-dup (minhash) dedup plugs in between exact
    dedup and scoring when the corpus calls for it (same Dataset shape).

    Exact dedup keeps the min doc_id per content: the losers (every
    other doc_id of a duplicated content) stay a Dataset and drop
    through :func:`ocr_lib_ray.functions.dedup.dedup_by_pairs` — a
    broadcast filter while duplicates ≪ corpus (typical crawls), the
    bucketed anti join once the loser set is corpus-sized (30-50% dup
    rates).  Same output either way (tested on a dup-heavy fixture).
    The filter keys on doc_id (the url), so urls are expected unique
    per content: a url seen twice with the same text keeps both rows,
    but a url that loses under any one of its contents drops whole.

    Opt-in curation stages (defaults leave the pipeline byte-identical):

    * ``mixture_rates``: per-stratum deterministic downsampling
      (:func:`ocr_lib_ray.functions.sampling.stratified_sample`) applied
      right after extraction+redaction — the corpus-mixture-control
      step of a training-data build.  Strata come from
      ``mixture_key(url)`` (default: the url netloc, the natural
      per-site key for a web crawl); unknown strata keep
      ``mixture_default_rate``.  Runs BEFORE the checkpoint/dedup
      passes so downsampled docs never cost another stage.
    * ``eval_docs``: benchmark decontamination — any doc sharing a
      ``decontam_n``-gram with the eval set's ``text`` column is
      dropped after exact dedup, before the quality gate (the
      :func:`ocr_lib_ray.functions.ngramdup.decontaminate` membership
      rule, filtered inline so text rides along).

    Multi-pass note: line-dedup and exact-dedup each drive a small
    keys-only pass over ``docs`` before the streaming rewrite, and Ray
    re-executes upstream lineage per pass — extraction would run 3×.
    ``checkpoint_dir`` (recommended beyond toy scale, and what a 100 TB
    job MUST do) writes the extracted+redacted docs to parquet ONCE and
    feeds every pass from the checkpoint, so re-passes re-read parquet
    instead of re-parsing HTML.  Disk-streaming, resumable-friendly, and
    measured ~1.5× faster end-to-end at bench scale.
    """
    from ..functions.chunking import chunk_documents_batch, pack_sequences
    from ..functions.linedup import remove_common_lines

    extracted = extract_pipeline(pages, cfg)

    # redact over extracted text; keep url as the doc key
    def redact_extracted(batch: pa.Table) -> pa.Table:
        from ..functions.redact import redact_text

        texts = [redact_text(t) for t in batch.column("text").to_pylist()]
        return pa.Table.from_arrays(
            [batch.column("url"), pa.array(texts, pa.string())],
            names=["doc_id", "text"],  # downstream ops key on doc_id
        )

    docs = extracted.map_batches(redact_extracted, batch_format="pyarrow")

    if mixture_rates is not None:
        from urllib.parse import urlsplit

        from ..functions.sampling import stratified_sample

        key_fn = mixture_key or (lambda u: urlsplit(u).netloc)

        def add_mix_group(b: pa.Table) -> pa.Table:
            groups = [key_fn(u) for u in b.column("doc_id").to_pylist()]
            return b.append_column("mix_group", pa.array(groups, pa.string()))

        docs = stratified_sample(
            docs.map_batches(add_mix_group, batch_format="pyarrow"),
            key_col="doc_id",
            group_col="mix_group",
            rates=mixture_rates,
            default_rate=mixture_default_rate,
        ).drop_columns(["mix_group"])

    if checkpoint_dir is not None:
        # write_parquet APPENDS into an existing dir: a reused
        # checkpoint path would silently double the corpus, so the dir
        # is wiped first (the checkpoint is an artifact of THIS run).
        # Guarded wipe: refuses a non-empty dir that isn't a prior
        # checkpoint of ours (mistyped path protection); ``overwrite``
        # (the CLI --overwrite) force-wipes — and is honored HERE, not
        # only on --output, so the refusal can't fire after the output
        # dir was already emptied.
        from ..sources.tables import read_table
        from ..stages.manifest import safe_wipe_output

        safe_wipe_output(checkpoint_dir, overwrite=overwrite)
        docs.write_parquet(checkpoint_dir)
        docs = read_table(checkpoint_dir)
    # line_max_df: C4-style hot-line threshold.  NOTE the ordering
    # subtlety: line-dedup runs BEFORE exact dedup, so on a corpus with
    # exact-duplicate documents every shared line has df ≥ dup_count —
    # max_df must exceed the expected dup multiplicity or duplicated
    # docs are stripped to empty text before the dedup stage sees them.
    docs = remove_common_lines(docs, max_df=line_max_df)

    # exact dedup: the shuffle moves ONLY (fp, doc_id) rows (32-byte
    # keys + urls), never the text; losers are the non-min doc_id per
    # duplicated fp, found vectorized inside fp-hash buckets (near-
    # singleton fp groups would melt a plain groupby(fp) dispatch)
    from ..functions.dedup import dedup_by_pairs

    def _fp_batch(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                b.column("doc_id"),
                pa.array(_md5_hex(b.column("text").to_pylist()), pa.string()),
            ],
            names=["doc_id", "fp"],
        )

    keyed = docs.map_batches(_fp_batch, batch_format="pyarrow")
    losers = _exact_losers(keyed, num_buckets=max(16, cfg.num_partitions))
    deduped = dedup_by_pairs(docs, losers, id_col="doc_id")

    if eval_docs is not None:
        # benchmark decontamination: drop any doc sharing a decontam_n-
        # gram with the eval set (filtered inline — same membership rule
        # as functions.ngramdup.decontaminate)
        import ray

        from ..functions.ngramdup import (
            _collect_gram_digests,
            _gram_digest,
            _norm_tokens,
        )

        ev_ref = ray.put(
            _collect_gram_digests(
                eval_docs, "text", decontam_n, 1, max_eval_grams, "max_eval_grams"
            )
        )

        def drop_contaminated(b: pa.Table) -> pa.Table:
            ev = ray.get(ev_ref)
            n = decontam_n
            keep = []
            for toks in _norm_tokens(b, "text"):
                # any-hit with early exit: only membership is consumed
                # here, not the coverage mask _covered builds
                keep.append(
                    not any(
                        _gram_digest(toks, i, n) in ev
                        for i in range(len(toks) - n + 1)
                    )
                )
            return b.filter(pa.array(keep, pa.bool_()))

        deduped = deduped.map_batches(drop_contaminated, batch_format="pyarrow")

    # model quality gate: score and filter INLINE so text rides along —
    # no corpus-sized keep-set broadcast, no join
    import numpy as np

    from ..functions.scoring import _DEFAULT_WEIGHTS, featurize

    def score_filter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["doc_id", "text"])
        z = featurize(batch) @ _DEFAULT_WEIGHTS
        prob = 1.0 / (1.0 + np.exp(-z))
        return batch.filter(pa.array(prob >= min_quality)).select(["doc_id", "text"])

    survivors = deduped.map_batches(score_filter, batch_format="pyarrow")
    chunks = survivors.map_batches(
        lambda b: chunk_documents_batch(b, chunk_size, chunk_overlap),
        batch_format="pyarrow",
    )
    # thread the job's corpus-scaled partition knob (callers size
    # cfg.num_partitions to the corpus) instead of paying pack_sequences'
    # derive-by-count pass over this long lineage
    return pack_sequences(
        chunks, budget=pack_budget, num_partitions=max(16, cfg.num_partitions)
    )


def clean_corpus(
    pages: rd.Dataset,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    min_chars: int = 40,
) -> rd.Dataset:
    """pages → surviving (url, text_chars) after dedup + quality gate."""
    extracted = extract_pipeline(pages, cfg)
    fps = extracted.map_batches(
        fingerprint_extracted, batch_format="pyarrow", zero_copy_batch=True
    )
    survivors = exchange_aggregate(
        fps,
        "fingerprint",
        [("url", "min", "url"), ("text_chars", "min", "text_chars")],
    )
    return survivors.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("text_chars"), min_chars)).select(
            ["url", "text_chars"]
        ),
        batch_format="pyarrow",
    )
