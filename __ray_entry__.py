"""Driver contract: entry() smoke, queries() vs oracle_sql() correctness.

Ray is initialised by the DRIVER before this module is imported — no
ray.init()/ray.shutdown() here or in ocr_lib_ray library code.

The extraction queries run over the deterministic synthetic pages table
(ocr_lib_ray/sources/pages.py) derived 1:1 from the ``documents`` view,
which is why their goldens are expressible as ANSI SQL over
``documents`` — the generator's layout is part of the frozen spec.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# canonical normalized-text SQL fragment (== kernel collapse_ws);
# _NORM_T is the same template over an arbitrary expression (used by
# the composed training_data oracle, which re-normalizes intermediate
# pipeline text rather than the documents column)
_NORM_T = "trim(regexp_replace({x}, '[ \t\n\r\f\v]+', ' ', 'g'))"
_NORM = _NORM_T.format(x="text")

# PII-redaction SQL template over an arbitrary expression — the same
# four regex passes as functions/redact.redact_text (and the
# redact_pii oracle, which is this template at x=text)
_REDACT_T = (
    "regexp_replace(regexp_replace(regexp_replace(regexp_replace({x},"
    " '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}', '<EMAIL>', 'g'),"
    " '\\b(?:[0-9]{{1,3}}\\.){{3}}[0-9]{{1,3}}\\b', '<IP>', 'g'),"
    " '\\b[0-9]{{9,}}\\b', '<NUM>', 'g'),"
    " '\\+?[0-9][0-9()\\- ]{{7,}}[0-9]', '<PHONE>', 'g')"
)


def _pack_tail_sql(budget: int = 128, num_partitions: int = 16) -> str:
    """Recursive-CTE greedy first-fit packing over a CTE named
    ``pchunks(k, cid, n_tokens)`` (k = the doc key, any type castable to
    VARCHAR).  Exactly functions/chunking.pack_sequences: partition =
    md5 lower 64 bits of str(key) mod P (DuckDB md5_number_lower ==
    Python int.from_bytes(md5[8:],'little') — verified), rows packed in
    (key, chunk_id) order, chunk clamped to the budget, sequence closes
    when fill + n would exceed the budget.  One recursion step advances
    every partition one row, so depth = max rows per partition.
    """
    return f"""
            r0 AS (SELECT CAST(md5_number_lower(CAST(k AS VARCHAR))
                              % {num_partitions} AS INTEGER) AS partition_id,
                          least(n_tokens, {budget}) AS n,
                          row_number() OVER (
                            PARTITION BY md5_number_lower(CAST(k AS VARCHAR))
                                         % {num_partitions}
                            ORDER BY k, cid) AS rn
                   FROM pchunks),
            rec AS (
                SELECT partition_id, rn, n,
                       CAST(0 AS BIGINT) AS seq_id, n AS fill
                FROM r0 WHERE rn = 1
                UNION ALL
                SELECT c.partition_id, c.rn, c.n,
                       CASE WHEN r.fill + c.n > {budget}
                            THEN r.seq_id + 1 ELSE r.seq_id END,
                       CASE WHEN r.fill + c.n > {budget}
                            THEN c.n ELSE r.fill + c.n END
                FROM rec r JOIN r0 c
                  ON c.partition_id = r.partition_id AND c.rn = r.rn + 1
            )
            SELECT partition_id, seq_id,
                   count(*) AS n_chunks,
                   CAST(sum(n) AS BIGINT) AS total_tokens
            FROM rec GROUP BY 1, 2"""


def _training_data_sql(mixture: bool = False, decontam: bool = False) -> str:
    """End-to-end SQL oracle of pipelines.corpus.build_training_data:
    golden extract → PII redact → C4 line-dedup (df over distinct docs
    per line) → exact dedup (md5, min-url winner) → logistic quality
    gate (z ≥ 0 ⇔ prob ≥ 0.5, same rounded signals as model_score) →
    32/8 chunking → recursive greedy packing.

    ``mixture`` folds in the opt-in per-source downsampling stage
    (stratified_sample's md5-threshold keyed on the url, salt 'strat';
    rates src0/srcA = 0.5 → hex threshold '80000000', src1 = 0.0,
    default 1.0) — applied before line-df so dropped docs never count.
    ``decontam`` folds in eval-set n-gram decontamination: the eval set
    is the doc_id % 20 = 0 slice of raw documents, and any deduped doc
    sharing a normalized 5-gram with it is dropped before the quality
    gate (functions/ngramdup membership rule; list slice ws[i:i+4] is
    DuckDB-inclusive = 5 tokens)."""
    mix_where = (
        f"""
              WHERE CASE source
                    WHEN 'src1' THEN FALSE
                    WHEN 'src0' THEN substr(md5('strat' ||
                        'https://corpus.test/' || source || '/' || doc_id),
                        1, 8) < '80000000'
                    WHEN 'srcA' THEN substr(md5('strat' ||
                        'https://corpus.test/' || source || '/' || doc_id),
                        1, 8) < '80000000'
                    ELSE TRUE END"""
        if mixture
        else ""
    )
    decontam_ctes = (
        f"""
            evn AS (SELECT {_NORM} AS nm FROM documents WHERE doc_id % 20 = 0),
            evg AS (SELECT DISTINCT md5(array_to_string(ws[i : i + 4], ' ')) AS gh
                    FROM (SELECT ws, unnest(generate_series(1, len(ws) - 4)) AS i
                          FROM (SELECT str_split(nm, ' ') AS ws
                                FROM evn WHERE nm <> ''))),
            dn AS (SELECT url, {_NORM_T.format(x="text")} AS nm FROM ded),
            dg AS (SELECT url, md5(array_to_string(ws[i : i + 4], ' ')) AS gh
                   FROM (SELECT url, ws,
                                unnest(generate_series(1, len(ws) - 4)) AS i
                         FROM (SELECT url, str_split(nm, ' ') AS ws
                               FROM dn WHERE nm <> ''))),
            contam AS (SELECT DISTINCT url FROM dg JOIN evg USING (gh)),
            dec AS (SELECT url, text FROM ded
                    WHERE url NOT IN (SELECT url FROM contam)),"""
        if decontam
        else ""
    )
    ded_src = "dec" if decontam else "ded"
    return f"""
            WITH RECURSIVE gold AS (
              SELECT 'https://corpus.test/' || source || '/' || doc_id AS url,
                     'Document ' || doc_id ||
                       CASE WHEN (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                              AND {_NORM} <> ''
                            THEN chr(10) || {_NORM}
                            WHEN NOT (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                              AND {_NORM} <> ''
                              AND len(str_split({_NORM}, ' ')) >= 3
                            THEN chr(10) || {_NORM} ELSE '' END ||
                       CASE WHEN doc_id % 17 <> 3 AND doc_id % 19 = 4
                            THEN chr(10) || 'DRAFT ' || doc_id
                            WHEN doc_id % 17 <> 3 AND doc_id % 19 <> 4
                              AND doc_id % 29 <> 8 AND doc_id % 23 = 6
                            THEN chr(10) || 'SHEAR ' || doc_id ELSE '' END AS text
              FROM documents{mix_where}),
            red AS (SELECT url, {_REDACT_T.format(x="text")} AS text FROM gold),
            lx AS (SELECT url, ls, unnest(generate_series(1, len(ls))) AS i
                   FROM (SELECT url, str_split(text, chr(10)) AS ls FROM red)),
            ln0 AS (SELECT url, i, ls[i] AS line FROM lx),
            ldf AS (SELECT line, count(DISTINCT url) AS df FROM ln0
                    WHERE line <> '' GROUP BY line),
            keptl AS (SELECT ln0.url, ln0.i, ln0.line
                      FROM ln0 LEFT JOIN ldf ON ln0.line = ldf.line
                      WHERE COALESCE(ldf.df, 0) <= 1),
            lagg AS (SELECT url, string_agg(line, chr(10) ORDER BY i) AS text
                     FROM keptl GROUP BY url),
            ldd AS (SELECT red.url, COALESCE(lagg.text, '') AS text
                    FROM red LEFT JOIN lagg ON red.url = lagg.url),
            fp AS (SELECT url, text, md5(text) AS f FROM ldd),
            win AS (SELECT f, min(url) AS w FROM fp GROUP BY f),
            ded AS (SELECT url, text FROM fp JOIN win
                    ON fp.f = win.f AND fp.url = win.w),{decontam_ctes}
            qt AS (SELECT url, text,
                          str_split(lower({_NORM_T.format(x="text")}), ' ') AS ws
                   FROM {ded_src}),
            uq AS (SELECT url, w, count(*) AS c FROM qt, unnest(ws) AS q(w)
                   GROUP BY 1, 2),
            mq AS (SELECT url, max(c) AS mc FROM uq GROUP BY 1),
            feats AS (SELECT qt.url, qt.text,
                   round(len(list_filter(ws, w -> list_contains(
                       {_en_stop_sql()}, w))) * 1.0 / len(ws), 6) AS stop_ratio,
                   round(list_sum(list_transform(ws, w -> len(w))) * 1.0 / len(ws), 6)
                     AS mean_word_len,
                   round(list_sum(list_transform(ws, w ->
                       len(regexp_replace(w, '[^a-zA-Z]', '', 'g')))) * 1.0 /
                     greatest(list_sum(list_transform(ws, w -> len(w))), 1), 6)
                     AS alpha_ratio,
                   CASE WHEN len(ws) = 1 AND ws[1] = '' THEN 0.0
                        ELSE round(mq.mc * 1.0 / len(ws), 6) END AS top_word_ratio,
                   ln(1.0 + length(qt.text)) AS log_len
              FROM qt JOIN mq ON qt.url = mq.url),
            scored AS (SELECT url, text FROM feats
                       WHERE 2.0 * stop_ratio + 0.15 * mean_word_len
                             + 3.0 * alpha_ratio - 4.0 * top_word_ratio
                             + 0.25 * log_len - 1.5 >= 0),
            st AS (SELECT url, str_split({_NORM_T.format(x="text")}, ' ') AS ws,
                          len(str_split({_NORM_T.format(x="text")}, ' ')) AS n
                   FROM scored WHERE {_NORM_T.format(x="text")} <> ''),
            sk AS (SELECT url, n,
                          CASE WHEN n <= 32 THEN 1
                               ELSE 1 + CAST(ceil((n - 32) / 24.0) AS BIGINT)
                          END AS nchunks
                   FROM st),
            sc AS (SELECT url, n,
                          unnest(generate_series(1, nchunks)) - 1 AS cid
                   FROM sk),
            pchunks AS (SELECT url AS k, cid,
                               least(cid * 24 + 32, n) - cid * 24 AS n_tokens
                        FROM sc),
            {_pack_tail_sql(budget=128, num_partitions=16)}
        """


def _pages(sf_dir: str, repeat: int = 1):
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    return build_pages_dataset(sf_dir, repeat)


def _extracted(sf_dir: str):
    from ocr_lib_ray.pipelines.extract import extract_pipeline

    return extract_pipeline(_pages(sf_dir))


def entry() -> Any:
    """Flagship pipeline on sf0.001 (driver smoke check)."""
    return _extracted("/root/testdata/sf0.001").select_columns(
        ["url", "text", "lang", "doc_kind"]
    )


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------


def _q_extract_text(sf_dir: str):
    return _extracted(sf_dir).select_columns(["url", "text", "lang"])


def _q_extract_title(sf_dir: str):
    return _extracted(sf_dir).select_columns(["url", "title"])


def _q_extract_spans_stats(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    def stats(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("url"),
                pc.list_value_length(batch.column("spans")).cast(pa.int64()),
                pc.list_value_length(batch.column("residuals")).cast(pa.int64()),
            ],
            names=["url", "n_spans", "n_residuals"],
        )

    return _extracted(sf_dir).map_batches(stats, batch_format="pyarrow")


def _q_sniff_kinds(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        _extracted(sf_dir)
        .groupby("doc_kind")
        .aggregate(Count(alias_name="n"))
    )


def _q_extract_by_lang(sf_dir: str):
    from ray.data.aggregate import Count, Sum
    import pyarrow as pa
    import pyarrow.compute as pc

    def add_len(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "text_chars", pc.utf8_length(batch.column("text")).cast(pa.int64())
        )

    return (
        _extracted(sf_dir)
        .map_batches(add_len, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n"), Sum("text_chars", alias_name="text_chars"))
    )


def _table(sf_dir: str, name: str, columns: list | None = None):
    """``{sf_dir}/{name}.parquet`` through the engine's one read
    (:func:`ocr_lib_ray.sources.tables.read_table`)."""
    from ocr_lib_ray.sources.tables import read_table

    return read_table(f"{sf_dir}/{name}.parquet", columns)


def _docs(sf_dir: str):
    return _table(sf_dir, "documents", ["doc_id", "text"])


def _q_doc_stats(sf_dir: str):
    from ocr_lib_ray.functions.text_stats import doc_stats_batch

    return _docs(sf_dir).map_batches(doc_stats_batch, batch_format="pyarrow")


def _q_token_quantiles(sf_dir: str):
    """Exact corpus-length percentiles via the distributed-histogram
    path (map-side value_counts → distinct-values-sized groupby →
    driver cumsum): never a corpus-wide sort.  Matches DuckDB
    quantile_disc bit-for-bit (index max(0, ceil(q*n) - 1))."""
    import pyarrow as pa

    from ocr_lib_ray.functions.quantiles import histogram_quantiles
    from ocr_lib_ray.functions.text_stats import normalize_expr, token_count

    def counts(b: "pa.Table") -> "pa.Table":
        n = token_count(normalize_expr(b.column("text"))).cast(pa.int64())
        return pa.Table.from_arrays([n], names=["n_tokens"])

    ds = _docs(sf_dir).map_batches(counts, batch_format="pyarrow")
    return histogram_quantiles(ds, "n_tokens", qs=(0.25, 0.5, 0.75, 0.9, 0.99))


def _q_quality_band(sf_dir: str):
    """Percentile outlier trim: docs inside the [P10, P90] token-count
    band — distributed-histogram bounds (two scalars) broadcast into a
    map-only filter; no sort, no corpus-sized shuffle."""
    import pyarrow as pa

    from ocr_lib_ray.functions.quantiles import quantile_band_filter
    from ocr_lib_ray.functions.text_stats import normalize_expr, token_count

    def stats(b: "pa.Table") -> "pa.Table":
        n = token_count(normalize_expr(b.column("text"))).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("doc_id"), n], names=["doc_id", "n_tokens"]
        )

    ds = _docs(sf_dir).map_batches(stats, batch_format="pyarrow")
    return quantile_band_filter(ds, "n_tokens", lo_q=0.1, hi_q=0.9)


def _q_token_quantiles_by_lang(sf_dir: str):
    """Per-language length percentiles via the fully distributed
    per-group histogram (groupby(lang, n) partial counts → per-lang
    map_groups order statistics — the driver never sees data, so both
    group count and per-group domain are unbounded)."""
    import pyarrow as pa

    from ocr_lib_ray.functions.quantiles import group_quantiles
    from ocr_lib_ray.functions.text_stats import normalize_expr, token_count

    def counts(b: "pa.Table") -> "pa.Table":
        n = token_count(normalize_expr(b.column("text"))).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("lang"), n], names=["lang", "n_tokens"]
        )

    docs = _table(sf_dir, "documents", ["text", "lang"])
    ds = docs.map_batches(counts, batch_format="pyarrow")
    return group_quantiles(ds, "lang", "n_tokens", qs=(0.25, 0.5, 0.75, 0.9, 0.99))


def _q_doc_embedding_join(sf_dir: str):
    """General bucketed hash equi-join (functions.joins.hash_join —
    NOT Dataset.join, see its Ray-2.49 hazard note): documents enriched
    with their embedding's dimensionality on doc_id = vec_id."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.joins import hash_join
    from ocr_lib_ray.functions.text_stats import normalize_expr, token_count

    def left_side(b: "pa.Table") -> "pa.Table":
        n = token_count(normalize_expr(b.column("text"))).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("doc_id"), n], names=["doc_id", "n_tokens"]
        )

    def right_side(b: "pa.Table") -> "pa.Table":
        dim = pc.list_value_length(b.column("embedding")).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("vec_id"), dim], names=["doc_id", "dim"]
        )

    left = _docs(sf_dir).map_batches(left_side, batch_format="pyarrow")
    right = _table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        right_side, batch_format="pyarrow"
    )
    return hash_join(left, right, "doc_id", ["dim"], how="inner")


def _q_doc_outer_join(sf_dir: str):
    """FULL OUTER hash_join: odd-id docs vs the vec_id % 3 == 0 third
    of the embeddings — unmatched rows on BOTH sides, value columns
    float64-stabilized in both directions (the schema-drift class the
    asof_join ADVICE fix closed, applied symmetrically)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.joins import hash_join
    from ocr_lib_ray.functions.text_stats import normalize_expr, token_count

    def left_side(b: "pa.Table") -> "pa.Table":
        b = b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 1))
        n = token_count(normalize_expr(b.column("text"))).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("doc_id"), n], names=["doc_id", "n_tokens"]
        )

    def right_side(b: "pa.Table") -> "pa.Table":
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % 3 == 0, pa.bool_()))
        dim = pc.list_value_length(b.column("embedding")).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("vec_id"), dim], names=["doc_id", "dim"]
        )

    left = _docs(sf_dir).map_batches(left_side, batch_format="pyarrow")
    right = _table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        right_side, batch_format="pyarrow"
    )
    return hash_join(left, right, "doc_id", ["dim"], how="full_outer")


def _semi_anti_sides(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    left = _table(sf_dir, "documents", ["doc_id", "source"])

    def keys(b: "pa.Table") -> "pa.Table":
        kept = b.filter(pc.less(b.column("label"), 3))
        return pa.Table.from_arrays([kept.column("vec_id")], names=["doc_id"])

    right = _table(sf_dir, "embeddings", ["vec_id", "label"]).map_batches(
        keys, batch_format="pyarrow"
    )
    return left, right


def _q_doc_semi_join(sf_dir: str):
    """Hash SEMI join (EXISTS filter): documents whose id has an
    embedding labelled < 3 — only the right KEY is read, left rows
    never multiply; the key set broadcasts while it fits, else it
    ships through the bucketed exchange."""
    from ocr_lib_ray.functions.joins import hash_join

    left, right = _semi_anti_sides(sf_dir)
    return hash_join(left, right, "doc_id", how="semi")


def _q_doc_anti_join(sf_dir: str):
    """Hash ANTI join (NOT EXISTS) — the dedup/decontamination loser
    filter every dedup operator calls."""
    from ocr_lib_ray.functions.joins import hash_join

    left, right = _semi_anti_sides(sf_dir)
    return hash_join(left, right, "doc_id", how="anti")


def _q_cap_per_source(sf_dir: str):
    """Per-domain document cap (≤3 docs per source, deterministic
    hash-uniform within the group) — topk_per_group's prune+finish path
    under an md5 order column, never a global sort."""

    from ocr_lib_ray.functions.sampling import cap_per_group

    docs = _table(sf_dir, "documents", ["doc_id", "source"])
    return cap_per_group(docs, "source", "doc_id", k=3)


def _q_fingerprint(sf_dir: str):
    from ocr_lib_ray.functions.text_stats import fingerprint_batch

    return _docs(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")


def _q_winnow_fingerprint(sf_dir: str):
    from ocr_lib_ray.functions.text_stats import winnow_fingerprint_batch

    return _docs(sf_dir).map_batches(winnow_fingerprint_batch, batch_format="pyarrow")


def _q_dedup_exact(sf_dir: str):
    from ocr_lib_ray.functions.bucket_tasks import exchange_aggregate
    from ocr_lib_ray.functions.text_stats import fingerprint_batch

    return exchange_aggregate(
        _docs(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow"),
        "fingerprint",
        [("doc_id", "min", "doc_id")],
    )


def _q_quality_basic(sf_dir: str):
    import pyarrow as pa

    from ocr_lib_ray.functions.text_stats import QualityScore

    def basic(batch: pa.Table) -> pa.Table:
        full = QualityScore()(batch)
        return full.select(["doc_id", "stop_ratio", "mean_word_len"])

    return _docs(sf_dir).map_batches(basic, batch_format="pyarrow")


def _q_quality_score(sf_dir: str):
    """Stateless tasks (thin state, cached per worker process): fuses
    with the read and skips actor-pool ramp-up — the repo's measured
    thin-state rule; the CLASS form remains for bundle-taught state."""
    from ocr_lib_ray.functions.text_stats import quality_score_batch

    return _docs(sf_dir).map_batches(quality_score_batch, batch_format="pyarrow")


def _q_lm_bigram_score(sf_dir: str):
    """Corpus-trained bigram-LM scoring (the perplexity-filter shape):
    one vocabulary-sized count shuffle, broadcast model, map-only
    scoring; int64 micro-logprob sums for exact order-free compare."""
    from ocr_lib_ray.functions.lm import bigram_logprob

    return bigram_logprob(_docs(sf_dir))


def _q_ccnet_buckets(sf_dir: str):
    """CCNet-style per-language perplexity terciles (Wenzek et al.
    2020): corpus-trained bigram LM → per-pair int64 NLL → distributed
    per-lang tercile histogram → broadcast thresholds → head/middle/
    tail labels.  All-integer statistic, hash-exact vs DuckDB."""

    from ocr_lib_ray.functions.lm import ccnet_buckets

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang"])
    return ccnet_buckets(docs)


def _q_dsir_weights(sf_dir: str):
    """DSIR hashed-ngram importance weights (Xie et al. 2023): target
    distribution = the English subset, raw = the whole corpus; ONE
    bucket-space (10k-row) shuffle + a broadcast λ array + a map-only
    scoring pass.  weight_micro is an exact int64 sum of per-bucket
    micro log-ratios, so the oracle compare is bit-exact."""
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.importance import dsir_weights

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang"])
    return dsir_weights(
        docs, lambda b: pc.equal(b.column("lang"), "en")
    ).select_columns(["doc_id", "n_features", "weight_micro"])


#: fixed BM25 query set over the fixture vocabulary — literal in the
#: oracle's VALUES list; keep the two in sync
_BM25_QUERIES = {"q1": "spark join merge", "q2": "window sort", "q3": "customer vector"}


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-10 per query: the df shuffle is bounded by the
    query vocabulary (7 terms here), idf broadcast once, scoring
    map-only, top-k via the per-block prune (never a global sort).
    score_micro = exact int64 sum of per-(doc,term) micro BM25."""
    from ocr_lib_ray.functions.retrieval import bm25_topk

    return bm25_topk(_docs(sf_dir), _BM25_QUERIES, k=10)


def _q_outlier_mad(sf_dir: str):
    """Robust per-lang length-outlier flags (median ± 3·MAD): ONE
    (lang, n_tokens)-space histogram shuffle, medians derived on the
    driver, flag pass map-only — all integers, bit-exact oracle."""
    import pyarrow as pa

    from ocr_lib_ray.functions.quantiles import mad_outliers
    from ocr_lib_ray.functions.text_stats import normalize_expr, token_count

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang"])

    def with_tokens(b: pa.Table) -> pa.Table:
        n = token_count(normalize_expr(b.column("text"))).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("doc_id"), b.column("lang"), n],
            names=["doc_id", "lang", "n_tokens"],
        )

    return mad_outliers(
        docs.map_batches(with_tokens, batch_format="pyarrow", zero_copy_batch=True),
        value_col="n_tokens",
        group_col="lang",
        id_col="doc_id",
        k=3,
    )


def _q_nb_classify(sf_dir: str):
    """Corpus-trained multinomial Naive Bayes language router: ONE
    vocabulary×classes groupby to train, broadcast model, map-only
    scoring; argmax tie-break (score DESC, class ASC) — bit-exact."""

    from ocr_lib_ray.functions.classify import nb_classify

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang"])
    return nb_classify(docs, label_col="lang")


#: count-min candidate tokens — literal in the oracle's VALUES list;
#: 'zzzunseen' exercises the absent-token (0 unless all-rows-collide) path
_CMS_CANDIDATES = ["the", "spark", "join", "window", "zzzunseen"]


def _q_countmin_topk(sf_dir: str):
    """Count-min sketch point queries vs exact counts: ONE d·w-cell
    (65k-row) shuffle builds the sketch, candidate exact counts ride
    the same shuffle on a reserved row — collisions and all replicated
    bit-exactly by the oracle's md5 double-hash."""
    from ocr_lib_ray.functions.sketches import countmin_estimate

    return countmin_estimate(_docs(sf_dir), _CMS_CANDIDATES)


def _q_bpe_pairs(sf_dir: str):
    """BPE training round-1 merge candidates — per-batch |Σ|²-bounded
    pair partials, one tiny groupby, sort over the aggregate only."""
    from ocr_lib_ray.functions.tokens import bpe_pair_counts

    return bpe_pair_counts(_docs(sf_dir), k=50)


def _q_gopher_filter(sf_dir: str):
    """Published Gopher quality rules as integer-exact per-doc verdicts
    — stateless map, zero shuffle."""
    from ocr_lib_ray.functions.text_stats import gopher_filter_batch

    return _docs(sf_dir).map_batches(gopher_filter_batch, batch_format="pyarrow")


def _q_readability(sf_dir: str):
    """Flesch reading ease in exact micro-units — stateless map, zero
    shuffle."""
    from ocr_lib_ray.functions.text_stats import readability_batch

    return _docs(sf_dir).map_batches(readability_batch, batch_format="pyarrow")


def _q_entity_counts(sf_dir: str):
    """PII/entity density per doc — RE2 counts vectorized in the Arrow
    kernel (no Python loop), map-only, zero shuffle."""
    from ocr_lib_ray.functions.redact import entity_counts_batch

    return _docs(sf_dir).map_batches(entity_counts_batch, batch_format="pyarrow")


def _q_topk_with_ties(sf_dir: str):
    """RANK-semantics per-source leaderboard: every document tied with
    the 5th-longest is kept (ties never cut — the set needs no id
    tie-break to be deterministic)."""

    from ocr_lib_ray.functions.ranking import topk_with_ties

    docs = _table(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return topk_with_ties(
        docs, group_col="source", order_col="n_chars", k=5, id_col="doc_id"
    )


def _q_table_checksum(sf_dir: str):
    """Anti-entropy checksum of the documents table (replication /
    migration validation): map-only modular row-hash sums, no shuffle."""

    from ocr_lib_ray.functions.versions import table_checksum

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"])
    return table_checksum(docs, ["doc_id", "text", "lang", "source", "n_chars"])


def _q_group_checksum(sf_dir: str):
    """Per-source anti-entropy checksums (the drill-down of
    table_checksum — localize WHICH partition diverged)."""

    from ocr_lib_ray.functions.versions import group_checksum

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"])
    return group_checksum(
        docs, "source", ["doc_id", "text", "lang", "source", "n_chars"]
    )


def _q_length_histogram(sf_dir: str):
    """Log2-bucketed token-length profile (truncation planning / the
    first dashboard to move on an extraction bug)."""
    from ocr_lib_ray.functions.text_stats import length_histogram

    return length_histogram(_docs(sf_dir))


def _q_lang_confusion(sf_dir: str):
    """Declared-vs-predicted language confusion matrix (model
    monitoring): map-only LangId + per-block |langs|² partials."""

    from ocr_lib_ray.functions.text_stats import lang_confusion

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang"])
    return lang_confusion(docs)


def _q_extract_fields(sf_dir: str):
    """Structured first-match extraction (the capture sibling of
    entity_counts): one RE2 extract_regex per pattern, map-only."""
    from ocr_lib_ray.functions.redact import extract_fields_batch

    return _docs(sf_dir).map_batches(extract_fields_batch, batch_format="pyarrow")


def _q_repetition_stats(sf_dir: str):
    """Gopher intra-doc repetition filters — stateless tasks (pure
    map, no state at all)."""
    from ocr_lib_ray.functions.text_stats import repetition_stats_batch

    return _docs(sf_dir).map_batches(repetition_stats_batch, batch_format="pyarrow")


def _q_lang_id(sf_dir: str):
    """Stateless tasks — see _q_quality_score for the rationale."""

    from ocr_lib_ray.functions.text_stats import lang_id_batch

    docs = _table(sf_dir, "documents", ["doc_id", "text", "lang"])
    return docs.map_batches(lang_id_batch, batch_format="pyarrow")


def _q_ngram_jaccard(sf_dir: str):
    from ocr_lib_ray.functions.dedup import ngram_jaccard_pairs

    # shingling runs distributed (map_batches); the driver collects only
    # the compact (doc_id, hashes) rows for the ray.put broadcast
    return ngram_jaccard_pairs(_docs(sf_dir), n=3, threshold=0.5)


def _q_dup_components(sf_dir: str):
    """Distributed connected components (bucketed min-label
    propagation, two pair-sized shuffles per round — nothing
    driver-resident) over the exact ngram-Jaccard near-dup pairs:
    (doc_id, component) with component = min doc_id reachable.  Oracle
    = recursive-CTE transitive closure over the same pair SQL."""
    from ocr_lib_ray.functions.dedup import connected_components, ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(_docs(sf_dir), n=3, threshold=0.5)
    return connected_components(pairs, node_col="doc_id")


def _q_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup pairs.  Hash-oracled (round 3): the whole
    pipeline — md5-lower64 shingles, xor-seed + splitmix64 permutations,
    band keys, chain compression, estimated Jaccard — is replicated
    bit-for-bit in SQL (see _minhash_pairs_sql)."""
    from ocr_lib_ray.functions.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs(sf_dir), threshold=0.5)


def _q_minhash_components(sf_dir: str):
    """The scale-path dedup composition: MinHash-LSH candidate pairs →
    distributed connected components (bucketed min-label propagation).
    The LSH pair output is a SPANNING set per component — exactly what
    CC needs — and the oracle chains the bit-exact minhash pair SQL
    into a recursive transitive closure."""
    from ocr_lib_ray.functions.dedup import connected_components, minhash_lsh_pairs

    pairs = minhash_lsh_pairs(_docs(sf_dir), threshold=0.5)
    return connected_components(pairs, node_col="doc_id")


def _q_dup_cluster_sizes(sf_dir: str):
    """Near-dup cluster-size distribution over minhash components
    (singletons included) — the dedup-tuning dashboard number."""
    from ocr_lib_ray.functions.dedup import dup_cluster_sizes, minhash_lsh_pairs

    docs = _docs(sf_dir)
    pairs = minhash_lsh_pairs(docs, threshold=0.5)
    return dup_cluster_sizes(docs, pairs)


def _q_dedup_fuzzy_keep_best(sf_dir: str):
    """Near-dup dedup keeping the quality winner per cluster (max
    n_chars, min-id tie) — minhash pairs → distributed CC → broadcast
    label stamp + driver winner reduce (bucketed left join →
    keep_latest once the labels outgrow the broadcast bound)."""

    from ocr_lib_ray.functions.dedup import dedup_fuzzy_keep_best

    docs = _table(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return dedup_fuzzy_keep_best(docs, threshold=0.5)


def _q_dedup_minhash(sf_dir: str):
    """Transitive-closure near-dup dedup over minhash-LSH pairs.

    Oracled (round 3): exact-Jaccard pairs at the same 0.8 threshold +
    empty-doc cliques + recursive connected components — see the SQL
    comment for why the bimodal pair distribution makes the two
    component sets provably equal on these fixtures."""
    from ocr_lib_ray.functions.dedup import dedup_connected, minhash_lsh_pairs

    docs = _docs(sf_dir)
    pairs = minhash_lsh_pairs(docs, threshold=0.8)
    return dedup_connected(docs, pairs).select_columns(["doc_id"])


def _q_crawl_diff(sf_dir: str):
    """Crawl-over-crawl snapshot diff: prior = even-id docs, new =
    ids %3≠0 with a ' v2' edit at %5==0 — added/removed/changed/
    unchanged all exercised; 32-byte fingerprints through ONE bucketed
    full-outer join, text never shuffled."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.versions import crawl_diff

    docs = _table(sf_dir, "documents", ["doc_id", "text"])

    def mutate(b: pa.Table) -> pa.Table:
        import numpy as np

        ids_np = b.column("doc_id").to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(ids_np % 3 != 0))
        ids_np = t.column("doc_id").to_numpy(zero_copy_only=False)
        edited = pa.array(ids_np % 5 == 0)
        text = pc.if_else(
            edited,
            pc.binary_join_element_wise(
                t.column("text").cast(pa.string()), " v2", ""
            ),
            t.column("text"),
        )
        return pa.Table.from_arrays(
            [t.column("doc_id"), text], names=["doc_id", "text"]
        )

    new_ds = docs.map_batches(mutate, batch_format="pyarrow", zero_copy_batch=True)
    prior = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0)),
        batch_format="pyarrow",
    )
    return crawl_diff(new_ds, prior)


def _q_dedup_incremental(sf_dir: str):
    """Crawl-over-crawl dedup: the even-doc_id half of the corpus plays
    the PRIOR crawl (its fingerprints are the published snapshot); the
    full corpus dedups against it via the anti hash_join on the
    fingerprint."""
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.dedup import dedup_against_reference, doc_fingerprints

    docs = _docs(sf_dir)
    prior = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0)),
        batch_format="pyarrow",
    )
    ref = doc_fingerprints(prior)
    return dedup_against_reference(docs, ref, num_partitions=8).select_columns(
        ["doc_id"]
    )


def _q_dedup_bloom(sf_dir: str):
    """Crawl-over-crawl dedup through a BLOOM bitmap of the prior crawl
    (even doc_ids): the prior corpus is reduced once to an m-bit array
    (mergeable, sharded build — no worker holds the full bitmap) and
    the filter is a broadcast map_batches with zero shuffle, the
    constant-memory alternative to dedup_incremental's per-crawl
    anti-join.  False positives (a deterministic over-drop) are part of
    the semantics — and of the oracle, which replicates the
    md5-double-hash probes bit-exactly in SQL."""
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.sketches import bloom_build, bloom_filter_against

    docs = _docs(sf_dir)
    prior = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0)),
        batch_format="pyarrow",
    )
    bitmap = bloom_build(prior, m_bits=1 << 20, k=4, num_shards=8)
    return bloom_filter_against(docs, bitmap, m_bits=1 << 20, k=4).select_columns(
        ["doc_id"]
    )


def _q_dedup_incremental_minhash(sf_dir: str):
    """Crawl-over-crawl NEAR-dup dedup: same even-half-as-prior-crawl
    setup as dedup_incremental, but the match is banded minhash
    (threshold 0.5) instead of exact fingerprints — paraphrases of
    already-trained pages are caught; the losers drop through the
    anti hash_join."""
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.dedup import dedup_minhash_incremental

    docs = _docs(sf_dir)
    prior = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0)),
        batch_format="pyarrow",
    )
    return dedup_minhash_incremental(
        docs, prior, threshold=0.5, num_partitions=8
    ).select_columns(["doc_id"])


def _q_simhash_pairs(sf_dir: str):
    from ocr_lib_ray.functions.dedup import simhash_pairs

    return simhash_pairs(_docs(sf_dir), max_hamming=3)


def _emb(sf_dir: str):
    return _table(sf_dir, "embeddings", ["vec_id", "embedding"])


def _q_quantize_embeddings(sf_dir: str):
    """SQ8 embedding quantization: d-row min/max shuffle + broadcast
    + map-only codes; flattened int rows for the exact compare."""

    from ocr_lib_ray.functions.clustering import quantize_embeddings

    emb = _table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return quantize_embeddings(emb)


def _q_knn_sq8(sf_dir: str):
    """Quantized ANN: exact cosine top-k over the SQ8-RECONSTRUCTED
    index (the compressed-storage search path) — reconstruction is
    map-only against broadcast bounds, then the brute top-k machinery.
    Oracled because the reconstruction chain is pure IEEE arithmetic."""
    from ocr_lib_ray.functions.clustering import sq8_reconstruct
    from ocr_lib_ray.functions.similarity import knn_brute

    rec = sq8_reconstruct(_emb(sf_dir))
    return knn_brute(rec, query_ids=list(range(10)), k=5).select_columns(
        ["query_id", "vec_id"]
    )


def _q_pq_codes(sf_dir: str):
    """Product-quantization compression (Jégou et al. 2011): m=4
    independent integer k-means over contiguous subspaces, every
    vector reduced to 4 codes + exact per-subspace reconstruction
    error.  All m trainings share each streaming pass."""
    from ocr_lib_ray.functions.clustering import pq_codes

    return pq_codes(_emb(sf_dir), m=4, k=8, iters=2)


def _q_knn_pq(sf_dir: str):
    """PQ-ADC approximate nearest neighbours: full-precision queries
    against the code-compressed corpus via exact int64 distance-table
    lookups — deterministic enough for a bit-exact rank oracle
    (the second ANN variant after knn_sq8 with that property).
    m=16, k=16 (64-bit codes): the fixture embeddings are unstructured
    Gaussian — PQ's hardest regime — so the coarser demo config's
    recall would be noise; recall floor pinned in test_clustering."""
    from ocr_lib_ray.functions.clustering import knn_pq

    return knn_pq(_emb(sf_dir), query_ids=list(range(10)), k_nn=5, m=16, k=16)


def _q_knn_ivf_pq(sf_dir: str):
    """IVF-PQ ANN (the FAISS-style composed scale path): integer
    coarse quantizer partitions the corpus, residual PQ compresses
    in-cell offsets, each query scans only nprobe/k_coarse of the
    index via per-cell ADC tables — and every quantity is exact int64,
    so even this two-stage ANN carries a bit-exact rank oracle."""
    from ocr_lib_ray.functions.clustering import knn_ivf_pq

    return knn_ivf_pq(
        _emb(sf_dir), query_ids=list(range(10)), k_nn=5,
        k_coarse=4, nprobe=2, m=16, k=16,
    )


def _q_cluster_kmeans(sf_dir: str):
    """SemDeDup-style clustering step: integer k-means (k=8, 2 Lloyd
    rounds, seeds = vec_ids 0..7) over the embedding table.  Every
    number is an exact int64 (milli-quantized components, squared
    distances, half-up-rounded centroid means), so the assignment is
    bit-identical across batch sizes AND in SQL — the oracle unrolls
    the two iterations as CTEs."""
    from ocr_lib_ray.functions.clustering import kmeans_milli

    return kmeans_milli(_emb(sf_dir), k=8, iters=2)


def _q_graph_rank(sf_dir: str):
    """Distributed PageRank (3 damped power iterations, exact integer
    micro-units) over the cyclic purchase graph (customer→supplier
    edges + supplier→customer return back-edges) — the domain-rank
    quality-prior shape of web curation (host-graph centrality as a
    crawl/quality weight).  Per iteration: two raw task waves over
    per-bucket refs (edges joined to ranks with per-destination partial
    sums, then the final Sum joined back onto the node rows); only the
    per-bucket dangling-mass scalars reach the driver."""

    from ocr_lib_ray.functions.graph import pagerank_micro, purchase_graph_edges

    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_returnflag"])
    edges = purchase_graph_edges(orders, li, num_partitions=8)
    return pagerank_micro(edges, iters=3, num_partitions=8)


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup over the embedding table: integer k-means clustering,
    then within-cluster pruning of vectors cosine-dominated (tau=0.4,
    exact int64 test) by an earlier same-cluster vector.  The cluster
    step bounds the O(n^2) similarity work; nothing crosses cluster
    boundaries."""
    from ocr_lib_ray.functions.clustering import semantic_dedup

    return semantic_dedup(_emb(sf_dir), k=8, iters=2)


def _q_knn_brute(sf_dir: str):
    from ocr_lib_ray.functions.similarity import knn_brute

    return knn_brute(_emb(sf_dir), query_ids=list(range(10)), k=5).select_columns(
        ["query_id", "vec_id"]
    )


#: planted-twin id offset for the ANN subset oracles — twins are exact
#: duplicates of vec_ids 0..9, so ANY correct LSH/IVF index MUST
#: retrieve them (identical vectors share every hyperplane sign / cell
#: and have maximal cosine); missing one is a real bug, not recall loss
_PLANT_OFFSET = 1_000_000
_PLANT_NQ = 10


def _emb_with_planted(sf_dir: str):
    """embeddings ∪ exact-duplicate twins of vec_ids 0..nq-1 (twin id =
    src + _PLANT_OFFSET, identical embedding)."""
    import pyarrow.compute as pc

    emb = _emb(sf_dir)

    def twin(b):
        t = b.filter(pc.less(b.column("vec_id"), _PLANT_NQ))
        return t.set_column(
            t.column_names.index("vec_id"),
            "vec_id",
            pc.add(t.column("vec_id"), _PLANT_OFFSET),
        )

    return emb.union(emb.map_batches(twin, batch_format="pyarrow"))


def _keep_planted_knn(out_ds):
    """Project an ANN top-k result to its planted rows: (query, twin)."""
    import pyarrow.compute as pc

    def keep(b):
        m = pc.equal(
            pc.subtract(b.column("vec_id"), b.column("query_id")), _PLANT_OFFSET
        )
        return b.filter(m).select(["query_id", "vec_id"])

    return out_ds.map_batches(keep, batch_format="pyarrow")


_PLANTED_KNN_SQL = f"""
    SELECT vec_id AS query_id, vec_id + {_PLANT_OFFSET} AS vec_id
    FROM embeddings WHERE vec_id < {_PLANT_NQ}
"""


def _q_knn_lsh(sf_dir: str):
    """Hyperplane-LSH ANN, gated by the PLANTED-TWIN subset oracle
    (round 4): a full brute-equality oracle would assert a false
    equivalence (measured fixture recall ~0.97 < 1 by construction),
    but an exact duplicate planted in the corpus shares every
    hyperplane sign with its source, so a correct index retrieves it
    DETERMINISTICALLY — the query runs the unchanged operator over
    corpus ∪ twins and returns the (query, twin) rows found, which must
    hash-equal the planted mapping.  Full-rank recall stays pinned by
    the pytest floor + the multi-table no-false-positive invariant."""
    from ocr_lib_ray.functions.similarity import knn_lsh

    return _keep_planted_knn(
        knn_lsh(_emb_with_planted(sf_dir), query_ids=list(range(_PLANT_NQ)), k=5)
    )


def _q_knn_ivf(sf_dir: str):
    """IVF ANN (deterministic k-means coarse quantizer, nprobe cells
    scanned), gated by the PLANTED-TWIN subset oracle (round 4): an
    exact duplicate is assigned to the same coarse cell its source
    probes first, so retrieval is deterministic even at nprobe < K —
    the (query, twin) projection must hash-equal the planted mapping.
    Full-rank recall and the nprobe=n_centroids==brute equivalence
    remain pinned in pytest (a brute-equality oracle would be false:
    at nprobe=6 fixture recall < 1 is real)."""
    from ocr_lib_ray.functions.similarity import knn_ivf

    return _keep_planted_knn(
        knn_ivf(
            _emb_with_planted(sf_dir),
            query_ids=list(range(_PLANT_NQ)),
            k=5,
            n_centroids=16,
            nprobe=6,
        )
    )


def _q_graph_triangles(sf_dir: str):
    """Per-edge triangle support over the co-supplier graph (suppliers
    sharing an order) — DEGREE-ORDERED wedge generation inside hash
    buckets (O(E^1.5) wedge bound, hub-safe), closed against the edge
    set with a tagged union + one Sum aggregate."""

    from ocr_lib_ray.functions.graph import cosupplier_edges, triangle_support

    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    return triangle_support(cosupplier_edges(li, num_partitions=8))


def _q_decontaminate_embedding(sf_dir: str):
    """Embedding-space eval decontamination: the vec_id % 10 == 0 rows
    play the benchmark suite; corpus rows within cosine 0.4 of any of
    them drop.  Eval matrix broadcast once, corpus pass map-only (no
    shuffle).  Threshold matches cosine_dups' known-boundary-safe 0.4
    on this data (the output is an id SET — no float column hashed)."""
    import pyarrow as pa

    from ocr_lib_ray.functions.similarity import decontaminate_embedding

    def _eval_rows(b: "pa.Table") -> "pa.Table":
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 10 == 0, pa.bool_()))

    emb = _emb(sf_dir)
    evals = emb.map_batches(_eval_rows, batch_format="pyarrow")
    return decontaminate_embedding(emb, evals, threshold=0.4).select_columns(
        ["vec_id"]
    )


def _q_cosine_dups(sf_dir: str):
    from ocr_lib_ray.functions.similarity import cosine_dup_pairs

    return cosine_dup_pairs(_emb(sf_dir), threshold=0.4).select_columns(["d1", "d2"])


def _events_us(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    ev = _table(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def to_us(b: pa.Table) -> pa.Table:
        return b.append_column(
            "ts_us", pc.cast(b.column("ts"), pa.int64())
        ).drop_columns(["ts"])

    return ev.map_batches(to_us, batch_format="pyarrow")


def _q_asof_join(sf_dir: str):
    """Backward as-of join (bucket-partitioned merge_asof): each
    purchase matched to the user's most recent view at-or-before it."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from ocr_lib_ray.functions.joins import asof_join

    ev = _events_us(sf_dir)
    left = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts_us"]
        ),
        batch_format="pyarrow",
    )
    # right side unique per (user, ts): max(value) — mirrored in the SQL
    right = (
        ev.map_batches(
            lambda b: b.filter(pc.equal(b.column("event_type"), "view")).select(
                ["user_id", "ts_us", "value"]
            ),
            batch_format="pyarrow",
        )
        .groupby(["user_id", "ts_us"])
        .aggregate(Max("value", alias_name="view_value"))
    )
    out = asof_join(left, right, "user_id", "ts_us", ["view_value"], suffix="_r")

    def shape(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                b.column("event_id"),
                b.column("user_id"),
                b.column("ts_us"),
                b.column("view_value_r"),
                pc.cast(b.column("ts_us_r"), pa.float64()),
            ],
            names=["event_id", "user_id", "ts_us", "view_value", "view_ts_us"],
        )

    return out.map_batches(shape, batch_format="pyarrow")


def _q_range_join(sf_dir: str):
    """Range join (bucket-partitioned searchsorted): per click, errors
    by the same user within the following hour."""
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.joins import range_join_count

    ev = _events_us(sf_dir)
    left = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "click")).select(
            ["event_id", "user_id", "ts_us"]
        ),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "error")).select(
            ["user_id", "ts_us"]
        ),
        batch_format="pyarrow",
    )
    return range_join_count(left, right, "user_id", "ts_us", window=3_600_000_000)


#: blocklist for the filter_blocklist query — word-boundary literal
#: terms (one phrase, to pin phrase semantics); the SAME pattern string
#: is inlined in the oracle SQL via blocklist_pattern
_BLOCKLIST_TERMS = ("spark", "slow query", "dup")


def _q_dedup_normalized(sf_dir: str):
    """Case/punctuation-blind exact dedup (normalized-form winner)."""
    from ocr_lib_ray.functions.curation import dedup_normalized

    return dedup_normalized(_docs(sf_dir))


#: per-source token budgets for the budget_sample query — src0 halved,
#: src1 cut to ~7%, src2 dropped, all other sources kept whole; the
#: oracle CASE expression mirrors this dict verbatim
_BUDGETS = {"src0": 700.0, "src1": 100.0, "src2": 0.0}


def _q_budget_sample(sf_dir: str):
    """Token-budget mixture sampling (downsample sources to a recipe)."""

    from ocr_lib_ray.functions.sampling import budget_sample

    docs = _table(sf_dir, "documents", ["doc_id", "text", "source"])
    return budget_sample(docs, _BUDGETS)


def _q_curate(sf_dir: str):
    """Composed curation: blocklist → keep-best dedup → token-budget
    mixture → shard shuffle, oracled end-to-end."""

    from ocr_lib_ray.pipelines.curate import curate_corpus

    docs = _table(sf_dir, "documents", ["doc_id", "text", "source", "n_chars"])
    return curate_corpus(docs, _BLOCKLIST_TERMS, _BUDGETS, num_shards=4)


def _q_curate_quality(sf_dir: str):
    """The curate pipeline with the opt-in Gopher structural-rule gate
    (language-neutral subset — r_stops is English-only and would empty
    this multilingual fixture): blocklist → gopher gate → keep-best
    dedup → token budget → shard shuffle, oracled end-to-end."""

    from ocr_lib_ray.pipelines.curate import GOPHER_STRUCTURAL, curate_corpus

    docs = _table(sf_dir, "documents", ["doc_id", "text", "source", "n_chars"])
    return curate_corpus(
        docs,
        _BLOCKLIST_TERMS,
        _BUDGETS,
        num_shards=4,
        quality_rules=GOPHER_STRUCTURAL,
    )


def _q_temperature_mix(sf_dir: str):
    """Temperature-scaled source mixing (XLM/XLM-R recipe, alpha=0.3):
    smallest source kept whole, larger sources downsampled with
    rate = (t_min/t)^(1-alpha) via one libm ln/exp chain + the shared
    md5-vs-printf-hex keep rule; two cheap passes (|sources|-row token
    aggregate, then a map-only filter)."""

    from ocr_lib_ray.functions.sampling import temperature_mix

    docs = _table(sf_dir, "documents", ["doc_id", "text", "source"])
    return temperature_mix(docs, alpha=0.3)


def _q_curate_ppl(sf_dir: str):
    """The curate pipeline with the opt-in CCNet perplexity gate
    (Wenzek et al. 2020): blocklist → per-language perplexity terciles
    (LM trained on the survivors) keeping head+middle → keep-best
    dedup → token budget → shard shuffle, oracled end-to-end."""

    from ocr_lib_ray.pipelines.curate import curate_corpus

    docs = _table(sf_dir, "documents", ["doc_id", "text", "source", "n_chars", "lang"])
    return curate_corpus(
        docs,
        _BLOCKLIST_TERMS,
        _BUDGETS,
        num_shards=4,
        ppl_keep=("head", "middle"),
    )


def _q_weighted_sample_k(sf_dir: str):
    """Exact-k weighted sample (A-ES keys from md5 uniforms): longer
    docs proportionally likelier, output exactly 20 rows — map-only
    stamping + per-block top-k prune."""

    from ocr_lib_ray.functions.sampling import weighted_sample_k

    docs = _table(sf_dir, "documents", ["doc_id", "n_chars"])
    return weighted_sample_k(docs, weight_col="n_chars", k=20)


def _q_dedup_keep_best(sf_dir: str):
    """Quality-winner dedup (longest variant wins, not min id)."""

    from ocr_lib_ray.functions.curation import dedup_keep_best

    docs = _table(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return dedup_keep_best(docs)


def _q_filter_blocklist(sf_dir: str):
    """C4-style bad-terms filter (word-boundary RE2, phrase-capable)."""

    from ocr_lib_ray.functions.curation import filter_blocklist

    docs = _table(sf_dir, "documents", ["doc_id", "text", "source", "lang"])
    return filter_blocklist(docs, _BLOCKLIST_TERMS)


def _q_shuffle_shards(sf_dir: str):
    """Deterministic md5 shard shuffle for training output."""

    from ocr_lib_ray.functions.curation import shuffle_shards

    docs = _table(sf_dir, "documents", ["doc_id"])
    return shuffle_shards(docs, num_shards=8)


def _q_rollup_stats(sf_dir: str):
    """One-pass GROUPING SETS rollup over (source, lang)."""

    from ocr_lib_ray.functions.curation import rollup_stats

    docs = _table(sf_dir, "documents", ["source", "lang", "n_chars"])
    return rollup_stats(docs)


def _q_fill_windows(sf_dir: str):
    """Gap-filled tumbling series (empty windows emit zero rows)."""

    from ocr_lib_ray.functions.windows import fill_windows

    events = _table(sf_dir, "events", ["ts", "value"])
    return fill_windows(events, window_seconds=3600)


def _q_rolling_stats(sf_dir: str):
    """Per-user moving 5-event sum (SQL ROWS BETWEEN 4 PRECEDING)."""

    from ocr_lib_ray.functions.ordered import rolling_stats

    events = _table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return rolling_stats(events, k=5)


def _q_lag_intervals(sf_dir: str):
    """Per-user inter-arrival gaps (SQL LAG over a per-key order)."""

    from ocr_lib_ray.functions.ordered import lag_intervals

    events = _table(sf_dir, "events", ["event_id", "user_id", "ts"])
    return lag_intervals(events)


def _q_funnel_stages(sf_dir: str):
    """Per-user sequential view->click->purchase funnel."""

    from ocr_lib_ray.functions.ordered import funnel_stages

    events = _table(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_stages(events, stages=("view", "click", "purchase"))


def _q_sessionize_assign(sf_dir: str):
    """Per-EVENT session labels (the row-level sibling of sessionize)."""

    from ocr_lib_ray.functions.ordered import sessionize_assign

    events = _table(sf_dir, "events", ["event_id", "user_id", "ts"])
    return sessionize_assign(events, gap_seconds=1800)


def _q_user_type_entropy(sf_dir: str):
    """Per-user event-type Shannon entropy in exact micro-nat·n units
    (behavioral-diversity feature, order-free)."""

    from ocr_lib_ray.functions.windows import user_type_entropy

    events = _table(sf_dir, "events", ["user_id", "event_type"])
    return user_type_entropy(events)


def _q_ab_metrics(sf_dir: str):
    """A/B experiment readout: stable md5 variant assignment + ordered
    view→purchase funnel conversion per arm, exact integer rates."""

    from ocr_lib_ray.functions.experiments import ab_metrics

    events = _table(sf_dir, "events", ["user_id", "ts", "event_type"])
    return ab_metrics(events)


def _q_transition_counts(sf_dir: str):
    """Markov event-type transition matrix over per-user ordered
    streams (LAG-pair counting — the next-event-model training shape)."""

    from ocr_lib_ray.functions.ordered import transition_counts

    events = _table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return transition_counts(events)


def _q_cohort_retention(sf_dir: str):
    """Daily cohort retention matrix (first-seen window × active window)."""

    from ocr_lib_ray.functions.ordered import cohort_retention

    events = _table(sf_dir, "events", ["user_id", "ts"])
    return cohort_retention(events, window_seconds=86_400)


def _q_window_topk(sf_dir: str):
    """Top-3 event types per hourly window (trending-items rollup)."""

    from ocr_lib_ray.functions.windows import window_topk

    events = _table(sf_dir, "events", ["ts", "event_type"])
    return window_topk(events, window_seconds=3600, k=3)


def _q_window_distinct_users(sf_dir: str):
    """Exact per-window distinct users (two-phase pair dedup — the
    exact sibling of the approx_distinct HLL)."""

    from ocr_lib_ray.functions.windows import window_distinct_users

    events = _table(sf_dir, "events", ["ts", "user_id"])
    return window_distinct_users(events, window_seconds=3600)


def _q_props_stats(sf_dir: str):
    """JSON property extraction + per-type rollup: map-only parse with
    grouped partials, ONE groups-sized shuffle — event rows never move."""

    from ocr_lib_ray.functions.props import props_stats

    events = _table(sf_dir, "events", ["event_type", "props"])
    return props_stats(events)


def _q_window_outliers(sf_dir: str):
    """Burst detection on the event stream: tumbling per-type counts →
    MAD outlier flags per type — one window groupby + one (type, n)-
    space histogram shuffle, flag pass map-only, all integers."""

    from ocr_lib_ray.functions.quantiles import mad_outliers
    from ocr_lib_ray.functions.windows import tumbling_window

    events = _table(sf_dir, "events", ["event_type", "ts", "value"])
    tw = tumbling_window(events, window_seconds=3600).select_columns(
        ["event_type", "window_start_us", "n"]
    )
    return mad_outliers(
        tw, value_col="n", group_col="event_type", id_col="window_start_us", k=3
    )


def _q_tumbling_window(sf_dir: str):
    from ocr_lib_ray.functions.windows import tumbling_window

    events = _table(sf_dir, "events", ["event_type", "ts", "value"])
    out = tumbling_window(events, window_seconds=3600)

    import pyarrow as pa
    import pyarrow.compute as pc

    def to_cents(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("value_sum")
        cents = pc.round(pc.multiply(batch.column("value_sum"), 100.0), ndigits=0)
        batch = batch.set_column(i, "value_sum_cents", cents.cast(pa.int64()))
        return batch

    return out.map_batches(to_cents, batch_format="pyarrow")


def _q_token_counts(sf_dir: str):
    from ocr_lib_ray.functions.tokens import token_counts

    return token_counts(_docs(sf_dir))


def _q_top_tokens(sf_dir: str):
    from ocr_lib_ray.functions.tokens import top_tokens

    return top_tokens(_docs(sf_dir), k=20)


def _q_source_divergence(sf_dir: str):
    """Per-source unigram KL vs the corpus blend (mixture drift
    monitor) — micro-nat integer sums, both enrich joins bucketed."""

    from ocr_lib_ray.functions.importance import source_divergence

    docs = _table(sf_dir, "documents", ["text", "source"])
    return source_divergence(docs)


def _q_bpe_encode(sf_dir: str):
    """BPE train-then-apply: the corpus's own 8 merges segment every
    word; broadcast word→pieces table, map-only encode."""
    from ocr_lib_ray.functions.tokens import bpe_encode

    return bpe_encode(_docs(sf_dir), n_merges=8)


def _q_bpe_train(sf_dir: str):
    """Full iterative BPE training (8 merges): ONE distributed
    word-count pass, then the published driver-side merge loop over
    the Heaps-law-sublinear word-frequency dict; padded-space replace
    semantics shared bit-exactly with the SQL oracle."""
    from ocr_lib_ray.functions.tokens import bpe_train

    return bpe_train(_docs(sf_dir), n_merges=8)


def _q_vocab_ranked(sf_dir: str):
    """Frequency-ranked vocabulary with DISTRIBUTED id assignment —
    no global sort, no driver-side vocab: (n, md5-prefix-bucket)
    histogram offsets + per-group ordinals."""
    from ocr_lib_ray.functions.tokens import build_vocab

    return build_vocab(_docs(sf_dir))


def _q_vocab_encode(sf_dir: str):
    """Tokenizer train-then-encode: top-32 vocab broadcast into a
    map-only vectorized encode; OOV = -1 (UNK)."""
    from ocr_lib_ray.functions.tokens import encode_docs

    return encode_docs(_docs(sf_dir), max_vocab=32)


def _q_sessionize(sf_dir: str):
    from ocr_lib_ray.functions.windows import sessionize

    events = _table(sf_dir, "events", ["user_id", "ts", "value"])
    out = sessionize(events, gap_seconds=1800)

    import pyarrow as pa
    import pyarrow.compute as pc

    def to_cents(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("value_sum")
        cents = pc.round(pc.multiply(batch.column("value_sum"), 100.0), ndigits=0)
        return batch.set_column(i, "value_sum_cents", cents.cast(pa.int64()))

    return out.map_batches(to_cents, batch_format="pyarrow")


def _q_sessionize_stream(sf_dir: str):
    """Incremental actor-state sessionize (streaming window custom
    operator) — same semantics and SQL oracle as batch sessionize."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.streaming import streaming_sessionize

    events = _table(sf_dir, "events", ["user_id", "ts", "value"])
    out = streaming_sessionize(events, gap_seconds=1800, num_buckets=8)

    def to_cents(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("value_sum")
        cents = pc.round(pc.multiply(batch.column("value_sum"), 100.0), ndigits=0)
        return batch.set_column(i, "value_sum_cents", cents.cast(pa.int64()))

    return out.map_batches(to_cents, batch_format="pyarrow")


def _q_sessionize_salted(sf_dir: str):
    """Skew-safe sessionize ((user, window) grouping + summary merge) —
    same semantics and SQL oracle as sessionize; cents rounding is safe
    against the partial-sum re-association (session sums are
    near-integers in cents, never at a rounding tie)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.windows import sessionize_salted

    events = _table(sf_dir, "events", ["user_id", "ts", "value"])
    out = sessionize_salted(events, gap_seconds=1800)

    def to_cents(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("value_sum")
        cents = pc.round(pc.multiply(batch.column("value_sum"), 100.0), ndigits=0)
        return batch.set_column(i, "value_sum_cents", cents.cast(pa.int64()))

    return out.map_batches(to_cents, batch_format="pyarrow")


def _q_cooccurrence_topk(sf_dir: str):
    """Top-30 windowed token co-occurrence pairs (collocations)."""
    from ocr_lib_ray.functions.tokens import cooccurrence_topk

    return cooccurrence_topk(_docs(sf_dir), window=3, k=30)


def _q_char_entropy(sf_dir: str):
    from ocr_lib_ray.functions.text_stats import char_entropy_batch

    return _docs(sf_dir).map_batches(char_entropy_batch, batch_format="pyarrow")


def _q_code_detect(sf_dir: str):
    """Code-vs-prose routing signals per document — all-integer
    thresholds (see code_detect_batch), map-only, zero shuffle."""
    from ocr_lib_ray.functions.text_stats import code_detect_batch

    return _docs(sf_dir).map_batches(code_detect_batch, batch_format="pyarrow")


def _q_sliding_window(sf_dir: str):
    from ocr_lib_ray.functions.windows import sliding_window

    events = _table(sf_dir, "events", ["event_type", "ts", "value"])
    out = sliding_window(events, window_seconds=3600, slide_seconds=900)

    import pyarrow as pa
    import pyarrow.compute as pc

    def to_cents(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("value_sum")
        cents = pc.round(pc.multiply(batch.column("value_sum"), 100.0), ndigits=0)
        return batch.set_column(i, "value_sum_cents", cents.cast(pa.int64()))

    return out.map_batches(to_cents, batch_format="pyarrow")


def _q_sample_split(sf_dir: str):
    """Deterministic md5-keyed train/val/test split counts."""
    from ray.data.aggregate import Count

    from ocr_lib_ray.functions.sampling import add_split_column_md5

    return (
        _docs(sf_dir)
        .map_batches(
            lambda b: add_split_column_md5(b, "doc_id", 0.1, 0.05),
            batch_format="pyarrow",
        )
        .groupby("split")
        .aggregate(Count(alias_name="n"))
    )


def _q_stratified_sample(sf_dir: str):
    """Per-source deterministic mixture downsampling (map-only)."""

    from ocr_lib_ray.functions.sampling import stratified_sample

    docs = _table(sf_dir, "documents", ["doc_id", "source"])
    return stratified_sample(
        docs, "doc_id", "source", {"src0": 0.25, "src1": 0.0}, default_rate=0.6
    )


def _q_sample_fixed_k(sf_dir: str):
    """Exactly-k hash-bottom-k uniform sample (per-block prune + tiny sort)."""

    from ocr_lib_ray.functions.sampling import sample_fixed_k

    docs = _table(sf_dir, "documents", ["doc_id"])
    return sample_fixed_k(docs, "doc_id", k=100)


def _q_topk_per_group(sf_dir: str):
    """Top-5 largest docs per source — per-block prune, no global sort."""

    from ocr_lib_ray.functions.ranking import topk_per_group

    docs = _table(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return topk_per_group(docs, "source", "n_chars", k=5, id_col="doc_id")


def _q_tfidf_top_terms(sf_dir: str):
    """Top-5 TF-IDF terms per document (vocab partials + broadcast df)."""
    from ocr_lib_ray.functions.ranking import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir), k=5)


def _q_dup_ngram_stats(sf_dir: str):
    """Per-doc duplicated-span coverage (ExactSubstr-style, 3-gram)."""
    from ocr_lib_ray.functions.ngramdup import dup_ngram_stats

    return dup_ngram_stats(_docs(sf_dir), n=3, min_df=2)


def _q_dup_ngram_stats_join(sf_dir: str):
    """Same stats with NO broadcast anywhere (the dup-heavy-crawl
    scale path): hot grams stay a dataset, occurrences semi-join it
    bucketed by gram hash, the stitch is a Sum aggregate."""
    from ocr_lib_ray.functions.ngramdup import dup_ngram_stats_join

    return dup_ngram_stats_join(_docs(sf_dir), n=3, min_df=2)


def _q_dedup_ngram_spans(sf_dir: str):
    """Rewrite: tokens covered by cross-doc duplicated 3-grams removed."""
    from ocr_lib_ray.functions.ngramdup import remove_dup_ngrams

    return remove_dup_ngrams(_docs(sf_dir), n=3, min_df=2)


def _q_dedup_ngram_spans_join(sf_dir: str):
    """Rewrite via the no-broadcast join path (hot grams stay a
    dataset; text crosses one doc-keyed shuffle)."""
    from ocr_lib_ray.functions.ngramdup import remove_dup_ngrams_join

    return remove_dup_ngrams_join(_docs(sf_dir), n=3, min_df=2)


def _q_decontaminate(sf_dir: str):
    """Eval-set 5-gram decontamination flags (eval = doc_id % 41 == 0)."""
    import pyarrow as pa

    from ocr_lib_ray.functions.ngramdup import decontaminate

    def only_eval(b: "pa.Table") -> "pa.Table":
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 41 == 0))

    eval_ds = _docs(sf_dir).map_batches(only_eval, batch_format="pyarrow")
    return decontaminate(_docs(sf_dir), eval_ds, n=5)


def _q_contamination_report(sf_dir: str):
    """Per-eval-doc dirtiness audit (GPT-3 appendix-C direction): eval
    = doc_id % 41 == 0, training corpus = the rest; the training side
    is scanned map-only against the broadcast eval gram set and only
    matched digests (bounded by the eval set) ride the one dedup
    groupby."""
    import pyarrow as pa

    from ocr_lib_ray.functions.ngramdup import contamination_report

    def split(b: "pa.Table", keep_eval: bool) -> "pa.Table":
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        m = ids % 41 == 0
        return b.filter(pa.array(m if keep_eval else ~m))

    eval_ds = _docs(sf_dir).map_batches(
        lambda b: split(b, True), batch_format="pyarrow"
    )
    train_ds = _docs(sf_dir).map_batches(
        lambda b: split(b, False), batch_format="pyarrow"
    )
    return contamination_report(eval_ds, train_ds, n=5)


def _q_cosine_dups_lsh(sf_dir: str):
    """LSH near-dup pairs, gated by the PLANTED-TWIN subset oracle
    (round 4): planted exact duplicates share every (table, bucket), so
    a correct bucketing emits each (src, twin) pair deterministically
    (cosine 1 >= any threshold); the projection to pairs differing by
    exactly _PLANT_OFFSET must hash-equal the planted mapping.  Recall
    on non-identical pairs stays pytest-gated against the brute path."""
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.similarity import cosine_dup_pairs_lsh

    out = cosine_dup_pairs_lsh(
        _emb_with_planted(sf_dir), threshold=0.4, n_planes=2
    ).select_columns(["d1", "d2"])

    def keep(b):
        return b.filter(
            pc.equal(pc.subtract(b.column("d2"), b.column("d1")), _PLANT_OFFSET)
        )

    return out.map_batches(keep, batch_format="pyarrow")


def _q_redact_pii(sf_dir: str):
    from ocr_lib_ray.functions.redact import redact_batch

    return _docs(sf_dir).map_batches(redact_batch, batch_format="pyarrow")


def _q_bpe_token_count(sf_dir: str):
    from ocr_lib_ray.functions.redact import bpe_token_count_batch

    return _docs(sf_dir).map_batches(bpe_token_count_batch, batch_format="pyarrow")


def _q_chunk_documents(sf_dir: str):
    from ocr_lib_ray.functions.chunking import chunk_documents

    return chunk_documents(_docs(sf_dir), size=32, overlap=8)


def _q_training_data(sf_dir: str):
    """Full 8-operator composition (extract→redact→line-dedup→dedup→
    quality→chunk→pack) — fully SQL-oracled end-to-end (round 3; the
    oracle chains golden extract → redact → line-df → md5 dedup →
    logistic gate → chunk → recursive-CTE pack).  The oracle pins
    pack P=16 (= max(16, DEFAULT_CONFIG.num_partitions) used here).

    Runs with a checkpoint (the multi-pass 100TB pattern): the dedup key
    passes re-read the extracted-docs parquet instead of re-parsing
    HTML."""
    from ocr_lib_ray.pipelines.corpus import build_training_data

    # per-invocation path (pid component): two concurrent callers (a
    # driver gate and a bench on the same corpus) must not share one
    # checkpoint dir — one would wipe it while the other is mid-read.
    # Single-writer semantics per process; the same process reuses its
    # dir, and an atexit hook removes it so repeated gate/bench rounds
    # don't each leak a corpus-sized parquet copy into /tmp.
    import atexit
    import os
    import shutil

    tag = sf_dir.strip("/").replace("/", "_")
    ckpt = f"/tmp/graft_td_ckpt_{tag}_{os.getpid()}"
    if not os.path.exists(ckpt):
        atexit.register(shutil.rmtree, ckpt, ignore_errors=True)
    return build_training_data(_pages(sf_dir), checkpoint_dir=ckpt)


def _q_training_data_curated(sf_dir: str):
    """Curation-stage variant of the flagship pipeline: per-source
    mixture downsampling (stratified_sample md5-threshold keyed on the
    url; src0/srcA at 0.5, src1 zero-rated) plus eval-set 5-gram
    decontamination (eval set = the raw doc_id % 20 = 0 slice), both
    folded into the end-to-end SQL oracle (_training_data_sql with
    mixture+decontam on).  No checkpoint: the gate corpus is small and
    the re-executed lineage is itself deterministic."""
    import numpy as np

    from ocr_lib_ray.pipelines.corpus import build_training_data

    def _eval_slice(b: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        return b.filter(pa.array(np.asarray(b.column("doc_id")) % 20 == 0))

    eval_ds = _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _eval_slice, batch_format="pyarrow"
    )
    return build_training_data(
        _pages(sf_dir),
        mixture_rates={"src0": 0.5, "src1": 0.0, "srcA": 0.5},
        mixture_key=lambda u: u.split("/")[3],
        eval_docs=eval_ds,
        decontam_n=5,
    )


def _q_model_score(sf_dir: str):
    """Batched model scoring (deterministic logistic with fixed public
    weights over the rounded quality signals — SQL-expressible, full
    hash oracle)."""
    from ocr_lib_ray.functions.scoring import score_documents

    return score_documents(_docs(sf_dir))


def _q_score_quantiles(sf_dir: str):
    """Exact quantiles of the (continuous) model quality score via the
    distributed-sort path (functions.quantiles.sort_quantiles — one
    all-to-all sort, per-quantile reads via split_at_indices; the
    histogram path's max_distinct raise points here)."""
    from ocr_lib_ray.functions.quantiles import sort_quantiles
    from ocr_lib_ray.functions.scoring import score_documents

    return sort_quantiles(
        score_documents(_docs(sf_dir)), "quality_prob", qs=(0.25, 0.5, 0.75, 0.9, 0.99)
    )


def _q_weighted_sample(sf_dir: str):
    """Quality-proportional deterministic sampling: keep each doc with
    probability = its model quality score (md5 key hash vs a per-row
    hex threshold — map-only, no RNG, key-stable; the continuous-weight
    generalization of stratified_sample)."""
    from ocr_lib_ray.functions.sampling import weighted_sample
    from ocr_lib_ray.functions.scoring import score_documents

    scored = score_documents(_docs(sf_dir))
    return weighted_sample(scored, "doc_id", "quality_prob").select_columns(
        ["doc_id"]
    )


def _q_corpus_report(sf_dir: str):
    """One-pass per-(source, lang) corpus dashboard: per-batch grouped
    partials (Arrow group_by in C) → one distinct-groups-sized Sum
    shuffle; avg derived from the sums after the aggregate, never
    averaged across partials."""

    from ocr_lib_ray.functions.text_stats import corpus_report

    docs = _table(sf_dir, "documents", ["text", "source", "lang"])
    return corpus_report(docs)


def _q_value_quantiles(sf_dir: str):
    """Continuous-domain quantiles WITHOUT the sort_quantiles global
    sort: deterministic grid quantization (step=0.01 — money cents) +
    the exact histogram path on grid ids; error bounded by the step and
    the whole computation SQL-reproducible (same IEEE divide/floor/
    multiply on both sides)."""

    from ocr_lib_ray.functions.quantiles import quantized_quantiles

    ev = _table(sf_dir, "events", ["value"])
    return quantized_quantiles(
        ev, "value", qs=(0.25, 0.5, 0.75, 0.9, 0.99), step=0.01
    )


def _q_percent_rank(sf_dir: str):
    """Exact percent_rank/cume_dist over doc length WITHOUT the global
    sort a window function implies: distinct-values histogram shuffle →
    driver CDF (max_distinct-guarded) → ray.put broadcast → map-only
    searchsorted stamp (functions.quantiles.ecdf_percent_rank)."""

    from ocr_lib_ray.functions.quantiles import ecdf_percent_rank

    ds = _table(sf_dir, "documents", ["doc_id", "n_chars"])
    return ecdf_percent_rank(ds, "n_chars")


def _q_percent_rank_by_lang(sf_dir: str):
    """Per-language ECDF normalization (PARTITION BY lang) — same
    histogram/broadcast discipline, per-group CDFs in one broadcast."""

    from ocr_lib_ray.functions.quantiles import ecdf_percent_rank

    ds = _table(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return ecdf_percent_rank(ds, "n_chars", group_col="lang")


def _q_latest_event(sf_dir: str):
    """Keep-newest-per-key dedup (the crawl keep-latest-snapshot-per-URL
    shape): per-block prune to one row per key, then one groupby — the
    shuffle carries <= one row per key per block, never the corpus
    (functions.versions.keep_latest)."""

    from ocr_lib_ray.functions.versions import keep_latest

    ev = _table(sf_dir, "events")
    return keep_latest(ev, key_col="user_id", ts_col="ts", tie_col="event_id")


def _q_pack_sequences(sf_dir: str):
    """Greedy packing, fully SQL-oracled (round 3): md5-lower64
    partition key + a recursive-CTE greedy loop reproduce it exactly.
    P is pinned to 16 EXPLICITLY because the oracle SQL is a fixed
    expression — the derive-from-corpus default (which the composed
    pipelines use) is P-scaling-tested in pytest instead; at gate scale
    the derived value is the same 16."""
    from ocr_lib_ray.functions.chunking import chunk_documents, pack_sequences

    return pack_sequences(
        chunk_documents(_docs(sf_dir), 32, 8), budget=128, num_partitions=16
    )


def _q_line_dedup(sf_dir: str):
    from ocr_lib_ray.functions.linedup import remove_common_lines

    return remove_common_lines(_docs(sf_dir), max_df=1)


def _q_line_dedup_join(sf_dir: str):
    """Same semantics as line_dedup via the hash-JOIN rewrite (no
    hot-set broadcast) — shares the line_dedup oracle SQL verbatim."""
    from ocr_lib_ray.functions.linedup import remove_common_lines_join

    return remove_common_lines_join(_docs(sf_dir), max_df=1, num_partitions=8)


def _q_dedup_jaccard(sf_dir: str):
    """Exact-Jaccard near-dup dedup through the loser filter
    (dedup_by_pairs, the anti hash_join), fully SQL-expressible because
    the pair source is exact ngram Jaccard."""
    from ocr_lib_ray.functions.dedup import dedup_by_pairs, ngram_jaccard_pairs

    docs = _docs(sf_dir)
    pairs = ngram_jaccard_pairs(docs, n=3, threshold=0.5)
    return dedup_by_pairs(docs, pairs).select_columns(["doc_id"])


def _q_heavy_hitters(sf_dir: str):
    from ocr_lib_ray.functions.windows import heavy_hitters

    events = _table(sf_dir, "events", ["user_id", "value"])
    return heavy_hitters(events, k=10)


def _q_approx_distinct(sf_dir: str):
    """HLL sketch.  Hash-oracled (round 3): the md5-upper64 value hash
    is DuckDB-reproducible, so the oracle rebuilds the registers and
    estimator in SQL — the APPROXIMATION is deterministic and both
    sides compute the identical estimate (accuracy still pinned in
    tests)."""

    from ocr_lib_ray.functions.sketches import approx_distinct_users_per_type

    events = _table(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct_users_per_type(events)


def _q_corpus_clean(sf_dir: str):
    from ocr_lib_ray.pipelines.corpus import clean_corpus

    return clean_corpus(_pages(sf_dir))


def _q_media_features(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_lib_ray.functions.multimodal import media_features

    # crc32 has no DuckDB equivalent (pytest-pinned instead); entropy is
    # re-rounded to 6 so float compare matches the oracle discipline
    def view(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("url"),
                batch.column("n_bytes"),
                pc.round(batch.column("byte_entropy"), ndigits=6),
            ],
            names=["url", "n_bytes", "byte_entropy"],
        )

    return media_features(_pages(sf_dir)).map_batches(view, batch_format="pyarrow")


def _q_frame_sample(sf_dir: str):
    """Video-pipeline stage shape: actor-pool frame sampling (every
    4th 256-byte frame, max 8 per doc) over the binary payloads."""
    from ocr_lib_ray.functions.multimodal import frame_sample

    return frame_sample(_pages(sf_dir))


def _payload_cte_sql(norm: str) -> str:
    """Reconstructs the synthetic page PAYLOAD BYTES in SQL (the page
    generator's templates are part of the frozen spec, sources/pages.py)
    as a WITH prefix ending in ``p(url, payload)`` — shared by the
    media_features and frame_sample oracles (ASCII corpus ⇒ char ops ==
    byte ops)."""
    esc = (
        "replace(replace(replace({x}, '&', '&amp;'), '<', '&lt;'), '>', '&gt;')"
    )
    esc_pdf = r"replace(replace(replace({x}, '\', '\\'), '(', '\('), ')', '\)')"
    # pdf_prop glyph-width SQL generated FROM the fixture's own table
    # (single source of truth — the generated-oracle discipline): 0.1pt
    # integer units at 12pt, narrow = 30, other covered = 60, unknown →
    # NULL (no split; mirrors sources/pages._prop_adv_units exactly)
    from ocr_lib_ray.sources.pages import PROP_GAP, PROP_MIN_OVERSHOOT_UNITS, PROP_WIDTHS

    def _sql_charlist(chars):
        return ", ".join("'" + c.replace("'", "''") + "'" for c in sorted(chars))

    narrow_in = _sql_charlist(c for c, w in PROP_WIDTHS.items() if w == 0.25)
    wide_in = _sql_charlist(c for c, w in PROP_WIDTHS.items() if w == 0.5)
    return f"""
        WITH d AS (
          SELECT doc_id, text, lang, source,
                 'https://corpus.test/' || source || '/' || doc_id AS url,
                 {norm} AS nm,
                 CASE WHEN doc_id % 17 = 3 THEN 'pdf'
                      WHEN doc_id % 19 = 4 THEN 'pdf_rot'
                      WHEN doc_id % 29 = 8 THEN 'pdf_prop'
                      WHEN doc_id % 23 = 6 THEN 'pdf_shear'
                      WHEN doc_id % 13 = 5 THEN 'malformed'
                      WHEN doc_id % 11 = 7 THEN 'noisy'
                      ELSE 'plain' END AS kind
          FROM documents),
        htm AS (
          SELECT url,
            e'<!DOCTYPE html>\\n<html lang="' || lang || e'">\\n<head><title>Document '
            || doc_id || e'</title><meta charset="utf-8"/></head>\\n<body>\\n'
            || '<header><nav><ul><li><a href="/">Home</a></li>'
            || '<li><a href="/' || source || '">' || source || '</a></li>'
            || e'<li><a href="/about">About Us</a></li></ul></nav></header>\\n'
            || CASE kind
                 WHEN 'malformed' THEN
                   e'<main>\\n<article>\\n<h1>Document ' || doc_id || e'</h1></span>\\n'
                   || '<p><b>' || {esc.format(x="nm")} || e'\\n</article>\\n</main>\\n'
                 WHEN 'noisy' THEN
                   e'<main>\\n<!-- tracking -->\\n<article>\\n<h1>Document ' || doc_id
                   || e'</h1>\\n<img src="/t.gif" width="1" height="1"/>\\n<p>   </p>\\n'
                   || '<p>' || {esc.format(x="nm")}
                   || e'</p>\\n<span></span>\\n<div>\\n  \\n</div>\\n</article>\\n</main>\\n'
                 ELSE
                   e'<main>\\n<article>\\n<h1>Document ' || doc_id || e'</h1>\\n'
                   || '<p>' || {esc.format(x="nm")} || e'</p>\\n</article>\\n</main>\\n'
               END
            || e'<aside><p><a href="/r/1">Related one</a> <a href="/r/2">Related two</a> '
            || e'<a href="/r/3">Related three</a></p></aside>\\n'
            || '<footer><p>Copyright 2026 ' || source
            || e' archive. <a href="/terms">Terms</a> '
            || e'<a href="/privacy">Privacy</a></p></footer>\\n</body>\\n</html>\\n'
            AS payload
          FROM d WHERE kind NOT IN ('pdf', 'pdf_rot', 'pdf_prop', 'pdf_shear')),
        pw AS (SELECT url, doc_id, nm, str_split(nm, ' ') AS ws FROM d WHERE kind = 'pdf'),
        pw2 AS (SELECT url, doc_id, nm, str_split(nm, ' ') AS ws
                FROM d WHERE kind = 'pdf_rot'),
        pdf2 AS (
          SELECT url,
            e'%PDF-1.4\\n1 0 obj << /Type /Catalog >> endobj\\nstream\\n'
            || e'BT\\n'
            || array_to_string(
                 ['/F2 24 Tf',
                  '1 0 0 1 72 760 Tm (Document ' || doc_id || ') Tj',
                  '/F1 12 Tf']
                 || CASE WHEN nm = '' THEN []
                         ELSE [ '1 0 0 1 72 ' || (700 - 14 * (i - 1)) || ' Tm ('
                                || {esc_pdf.format(x="array_to_string(ws[(i-1)*8+1:(i-1)*8+8], ' ')")}
                                || ') Tj'
                                FOR i IN generate_series(1, (len(ws) + 7) // 8) ] END
                 || ['0.707107 0.707107 -0.707107 0.707107 180 320 Tm (DRAFT '
                     || doc_id || ') Tj'],
                 e'\\n')
            || e'\\nET\\nendstream\\n%%EOF\\n' AS payload
          FROM pw2),
        pdf AS (
          SELECT url,
            e'%PDF-1.4\\n1 0 obj << /Type /Catalog >> endobj\\nstream\\n'
            || e'BT\\n/F1 12 Tf\\n'
            || array_to_string(
                 list_prepend('1 0 0 1 72 760 Tm (Document ' || doc_id || ') Tj',
                   CASE WHEN nm = '' THEN []
                        ELSE [ '1 0 0 1 72 ' || (700 - 14 * (i - 1)) || ' Tm ('
                               || {esc_pdf.format(x="array_to_string(ws[(i-1)*8+1:(i-1)*8+8], ' ')")}
                               || ') Tj'
                               FOR i IN generate_series(1, (len(ws) + 7) // 8) ] END),
                 e'\\n')
            || e'\\nET\\nendstream\\n%%EOF\\n' AS payload
          FROM pw),
        pw4 AS (SELECT url, doc_id, nm, str_split(nm, ' ') AS ws
                FROM d WHERE kind = 'pdf_shear'),
        pdf4 AS (
          SELECT url,
            e'%PDF-1.4\\n1 0 obj << /Type /Catalog >> endobj\\nstream\\n'
            || e'BT\\n/F1 12 Tf\\n'
            || array_to_string(
                 list_prepend('1 0 0 1 72 760 Tm (Document ' || doc_id || ') Tj',
                   CASE WHEN nm = '' THEN []
                        ELSE [ '1 0 0 1 72 ' || (700 - 14 * (i - 1)) || ' Tm ('
                               || {esc_pdf.format(x="array_to_string(ws[(i-1)*8+1:(i-1)*8+8], ' ')")}
                               || ') Tj'
                               FOR i IN generate_series(1, (len(ws) + 7) // 8) ] END)
                 || ['1 0 0.3 1 200 320 Tm (SHEAR ' || doc_id || ') Tj'],
                 e'\\n')
            || e'\\nET\\nendstream\\n%%EOF\\n' AS payload
          FROM pw4),
        pw3 AS (SELECT url, doc_id, nm, str_split(nm, ' ') AS ws
                FROM d WHERE kind = 'pdf_prop'),
        ppl AS (SELECT url, ws,
                       unnest(generate_series(1,
                         CASE WHEN nm = '' THEN 0 ELSE (len(ws) + 7) // 8 END)) AS i
                FROM pw3),
        ppl2 AS (SELECT url, i, ws[(i-1)*8+1:(i-1)*8+8] AS wl FROM ppl),
        ppl3 AS (SELECT url, i, wl, len(wl) // 2 AS k,
                        700 - 14 * (i - 1) AS yy
                 FROM ppl2),
        ppl4 AS (SELECT url, i, wl, k, yy,
                        array_to_string(wl[1:k], ' ') AS run1,
                        array_to_string(wl[k+1:len(wl)], ' ') AS run2
                 FROM ppl3),
        ppl5u AS (SELECT url, i, wl, k, yy, run1, run2,
                        CASE WHEN k >= 1 AND len(wl) > k THEN
                          list_transform(
                            generate_series(1, strlen(run1)),
                            j -> CASE WHEN substr(run1, j, 1) IN ({narrow_in}) THEN 30
                                      WHEN substr(run1, j, 1) IN ({wide_in}) THEN 60
                                      ELSE NULL END)
                        ELSE NULL END AS ulist
                 FROM ppl4),
        -- ANY unknown char disqualifies the split (Python
        -- _prop_adv_units returns None); list_sum alone would SKIP the
        -- NULL placeholders and reconstruct a split Python never emits
        ppl5 AS (SELECT url, i, wl, k, yy, run1, run2,
                        CASE WHEN ulist IS NOT NULL
                               AND len(list_filter(ulist, x -> x IS NULL)) = 0
                             THEN list_sum(ulist) ELSE NULL END AS units
                 FROM ppl5u),
        ppl6 AS (SELECT url, i,
                        CASE WHEN units IS NOT NULL
                               AND 72 * strlen(run1) - units >= {PROP_MIN_OVERSHOOT_UNITS}
                        THEN '1 0 0 1 72 ' || yy || ' Tm ('
                             || {esc_pdf.format(x="run1")} || e') Tj\\n'
                             || '1 0 0 1 ' || (72 + units // 10 + {PROP_GAP}) || ' '
                             || yy || ' Tm (' || {esc_pdf.format(x="run2")} || ') Tj'
                        ELSE '1 0 0 1 72 ' || yy || ' Tm ('
                             || {esc_pdf.format(x="array_to_string(wl, ' ')")} || ') Tj'
                        END AS op
                 FROM ppl5),
        ppagg AS (SELECT url, list(op ORDER BY i) AS ops FROM ppl6 GROUP BY url),
        pdf3 AS (
          SELECT pw3.url,
            e'%PDF-1.4\\n1 0 obj << /Type /Catalog >> endobj\\nstream\\n'
            || e'BT\\n/F1 12 Tf\\n'
            || array_to_string(
                 list_prepend('1 0 0 1 72 760 Tm (Document ' || doc_id || ') Tj',
                              COALESCE(ppagg.ops, [])),
                 e'\\n')
            || e'\\nET\\nendstream\\n%%EOF\\n' AS payload
          FROM pw3 LEFT JOIN ppagg ON pw3.url = ppagg.url),
        p AS (SELECT url, payload FROM htm
              UNION ALL SELECT url, payload FROM pdf
              UNION ALL SELECT url, payload FROM pdf2
              UNION ALL SELECT url, payload FROM pdf3
              UNION ALL SELECT url, payload FROM pdf4)
    """


def _media_features_sql(norm: str) -> str:
    """n_bytes + byte-distribution entropy over the reconstructed
    payloads — the multimodal feature-stage hash oracle."""
    return f"""
        {_payload_cte_sql(norm)},
        tot AS (SELECT url, strlen(payload) AS n_bytes FROM p),
        c AS (SELECT url, substr(payload, CAST(i AS INT), 1) AS ch
              FROM (SELECT url, payload,
                           unnest(generate_series(1, strlen(payload))) AS i
                    FROM p)),
        f AS (SELECT url, ch, count(*) AS cnt FROM c GROUP BY 1, 2),
        ent AS (SELECT f.url,
                       round(-sum((cnt * 1.0 / n_bytes) * log2(cnt * 1.0 / n_bytes)), 6)
                         AS byte_entropy
                FROM f JOIN tot ON f.url = tot.url GROUP BY f.url, n_bytes)
        SELECT tot.url, n_bytes, byte_entropy FROM tot JOIN ent ON tot.url = ent.url
    """


def _ts_us(s: str) -> int:
    """Naive date string → epoch micros (matches DuckDB epoch_us on the
    tz-naive parquet timestamps)."""
    import pandas as pd

    return int(pd.Timestamp(s).value // 1000)


def _q_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: grouped exact-integer pricing sums over lineitem
    (one corpus pass, per-block combiner, ≤|flag×status| shuffle rows).
    Money in integer units — see functions/relational.py module doc."""

    from ocr_lib_ray.functions.relational import pricing_summary

    li = _table(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    return pricing_summary(li, cutoff_us=_ts_us("2000-09-02"))


def _q_star_revenue(sf_dir: str):
    """TPC-H Q5 shape: revenue per ASIA nation, orders in 1996–1997.
    lineitem pre-aggregated per orderkey per block BEFORE its join;
    nation⋈region broadcast (constant-size at any scale factor);
    customer broadcasts adaptively (bucketed hash join past
    DIM_BROADCAST_MAX)."""
    import pyarrow.parquet as pq

    from ocr_lib_ray.functions.relational import star_revenue

    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    return star_revenue(
        li,
        orders,
        cust,
        nation,
        region,
        region_name="ASIA",
        lo_us=_ts_us("1996-01-01"),
        hi_us=_ts_us("1998-01-01"),
    )


def _q_top_customers(sf_dir: str):
    """TPC-H Q10 shape: top-10 customers by returned ('R') revenue in a
    one-year window; global top-k = per-block prune → single-partition
    final prune, ties (revenue DESC, custkey ASC)."""

    from ocr_lib_ray.functions.relational import top_customers

    li = _table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _table(sf_dir, "customer", ["c_custkey", "c_name"])
    return top_customers(
        li, orders, cust, lo_us=_ts_us("1996-07-01"), hi_us=_ts_us("1997-07-01"), k=10
    )


def _q_order_priority(sf_dir: str):
    """TPC-H Q4 shape: per-priority count of orders with a lineitem
    shipped after the order date (EXISTS-with-predicate rewritten as a
    max-per-orderkey partial + inner join + filter)."""

    from ocr_lib_ray.functions.relational import late_order_priority

    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    )
    return late_order_priority(
        li, orders, lo_us=_ts_us("1996-01-01"), hi_us=_ts_us("1997-01-01")
    )


def _q_ship_priority(sf_dir: str):
    """TPC-H Q3 shape: top-10 unshipped orders by revenue at the cutoff
    for BUILDING-segment customers; segment gate is a SEMI join
    (deduped custkeys only through the shuffle), lineitem pre-aggregated
    per block, top-k via per-block prune → final prune."""

    from ocr_lib_ray.functions.relational import ship_priority

    li = _table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return ship_priority(
        li, orders, cust, segment="BUILDING", cutoff_us=_ts_us("1997-06-01"), k=10
    )


def _q_revenue_delta(sf_dir: str):
    """TPC-H Q6 shape: scalar sum(extendedprice×discount) over a
    shipdate-year × discount-band × quantity predicate; one corpus
    pass, per-block (rev, n) partials, exact u4 integer units."""

    from ocr_lib_ray.functions.relational import revenue_delta

    li = _table(
        sf_dir,
        "lineitem",
        ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
    )
    return revenue_delta(
        li,
        lo_us=_ts_us("1997-01-01"),
        hi_us=_ts_us("1998-01-01"),
        disc_lo_pct=5,
        disc_hi_pct=7,
        max_qty=24,
    )


def _q_large_orders(sf_dir: str):
    """TPC-H Q18 shape: orders with total quantity > 250 (top ~1%),
    enriched with order metadata and customer name; the HAVING filter
    shrinks the left side BEFORE both hash joins."""

    from ocr_lib_ray.functions.relational import large_orders

    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = _table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    cust = _table(sf_dir, "customer", ["c_custkey", "c_name"])
    return large_orders(li, orders, cust, min_qty=250)


def _q_sample_k_per_group(sf_dir: str):
    """Exactly 5 docs per language, hash-bottom-k (balanced eval-slice
    draw): map-only md5 stamping + per-block per-group prune, never a
    global sort."""

    from ocr_lib_ray.functions.sampling import sample_k_per_group

    docs = _table(sf_dir, "documents", ["doc_id", "lang"])
    return sample_k_per_group(docs, group_col="lang", k=5)


def _q_group_enrich(sf_dir: str):
    """Enrich every document with its (lang, source) group's exact
    stats — the COMPOSITE-key join shape: per-batch (lang, source)
    partials → one group-sized groupby → bucketed hash_join back on
    BOTH key columns (group stats scale with |langs|×|sources|, which
    scales with the corpus — no broadcast assumption)."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ocr_lib_ray.functions.joins import hash_join

    docs = _table(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    def partials(b: "pa.Table") -> "pa.Table":
        t = b.select(["lang", "source", "n_chars"])
        g = t.group_by(["lang", "source"]).aggregate(
            [("n_chars", "sum"), ("n_chars", "count")]
        )
        return g.rename_columns(["lang", "source", "grp_chars", "grp_docs"])

    grp = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(
            Sum("grp_chars", alias_name="grp_chars"),
            Sum("grp_docs", alias_name="grp_docs"),
        )
    )
    out = hash_join(
        docs,
        grp,
        ["lang", "source"],
        right_value_cols=["grp_chars", "grp_docs"],
        how="inner",
    )
    return out.map_batches(
        lambda b: b.select(
            ["doc_id", "lang", "source", "n_chars", "grp_chars_r", "grp_docs_r"]
        ).rename_columns(
            ["doc_id", "lang", "source", "n_chars", "grp_chars", "grp_docs"]
        ),
        batch_format="pyarrow",
    )


def _q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: promo revenue share for one ship-year;
    lineitem window-filtered + pre-aggregated per partkey before the
    bucketed join to the (partkey, is_promo) reduced part table."""

    from ocr_lib_ray.functions.relational import promo_revenue

    li = _table(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )
    part = _table(sf_dir, "part", ["p_partkey", "p_type"])
    return promo_revenue(
        li, part, lo_us=_ts_us("1997-01-01"), hi_us=_ts_us("1998-01-01")
    )


def _q_market_share(sf_dir: str):
    """TPC-H Q8 shape: NATION_3's per-year share of ASIA's ECONOMY-part
    market; the widest star chain, part semi-gate first, supplier
    carrying one is_target bit, customer region-gated by a broadcast
    nation⋈region lookup."""
    import pyarrow.parquet as pq

    from ocr_lib_ray.functions.relational import market_share

    li = _table(
        sf_dir,
        "lineitem",
        [
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    )
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    supp = _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    part = _table(sf_dir, "part", ["p_partkey", "p_type"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    return market_share(
        li,
        orders,
        cust,
        supp,
        part,
        nation,
        region,
        target_nation="NATION_3",
        region_name="ASIA",
        part_type="ECONOMY",
        lo_us=_ts_us("1996-01-01"),
        hi_us=_ts_us("1998-01-01"),
    )


def _q_customer_features(sf_dir: str):
    """Per-customer lifetime order features (feature-store shape):
    per-block combiners → one #customers groupby → map-only integer
    ratio derivations."""

    from ocr_lib_ray.functions.relational import customer_features

    orders = _table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
    return customer_features(orders)


def _q_band_revenue(sf_dir: str):
    """TPC-H Q19 shape: OR-of-(brand × quantity-band) revenue; the
    quantity-union prune runs map-only BEFORE the bucketed part join,
    the exact band disjunction after it."""

    from ocr_lib_ray.functions.relational import band_revenue

    li = _table(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    )
    part = _table(sf_dir, "part", ["p_partkey", "p_brand"])
    return band_revenue(
        li,
        part,
        bands=[
            ("Brand#12", 1, 11),
            ("Brand#23", 10, 20),
            ("Brand#34", 20, 30),
        ],
    )


def _q_copurchase_lift(sf_dir: str):
    """Market-basket pair support + lift over the order⋈part graph
    (association-rules level 1); DISTINCT basket semantics, exact
    integer lift via arbitrary-precision // (HUGEINT in the oracle)."""

    from ocr_lib_ray.functions.basket import copurchase_lift

    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return copurchase_lift(li, min_support=2)


def _q_order_count_dist(sf_dir: str):
    """TPC-H Q13 shape: distribution of per-customer URGENT-order
    counts, zero-count customers included — the outer join is rewritten
    as a customers-as-zero-partials union into ONE custkey groupby."""

    from ocr_lib_ray.functions.relational import order_count_dist

    orders = _table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    cust = _table(sf_dir, "customer", ["c_custkey"])
    return order_count_dist(orders, cust, include_prefix="1-")


def _q_top_supplier(sf_dir: str):
    """TPC-H Q15 shape: the supplier(s) with maximum revenue over one
    ship-half-year; aggregate materialized once, only the max scalar
    reaches the driver, names via the bucketed hash join."""

    from ocr_lib_ray.functions.relational import top_supplier

    li = _table(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )
    supp = _table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return top_supplier(
        li, supp, lo_us=_ts_us("1997-01-01"), hi_us=_ts_us("1997-07-01")
    )


def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: revenue in below-1/5-of-part-average-quantity
    lineitems of one brand; the correlated AVG is decorrelated into a
    per-part map_groups that filters its own rows (exact integer
    cross-multiply, no float threshold)."""

    from ocr_lib_ray.functions.relational import small_qty_revenue

    li = _table(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    part = _table(sf_dir, "part", ["p_partkey", "p_brand"])
    return small_qty_revenue(li, part, brand="Brand#23", frac_num=1, frac_den=5)


def _q_idle_customers(sf_dir: str):
    """TPC-H Q22 shape: above-positive-mean-balance customers in three
    segments with no order since the cutoff; the mean is two driver
    scalars broadcast into an exact cross-multiplied filter, the NOT
    EXISTS is the bucketed anti join."""

    from ocr_lib_ray.functions.relational import idle_customers

    cust = _table(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = _table(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    return idle_customers(
        cust,
        orders,
        segments=["BUILDING", "AUTOMOBILE", "MACHINERY"],
        cutoff_us=_ts_us("2000-07-01"),
    )


def _q_nation_volume(sf_dir: str):
    """TPC-H Q7 shape: revenue flow between two nations in both
    directions through the full li⋈supp⋈nation⋈orders⋈cust⋈nation
    chain; nation broadcast, every corpus-scaled side bucketed."""
    import pyarrow.parquet as pq

    from ocr_lib_ray.functions.relational import nation_volume

    li = _table(
        sf_dir,
        "lineitem",
        [
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    supp = _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    return nation_volume(
        li,
        orders,
        cust,
        supp,
        nation,
        nation_a="NATION_3",
        nation_b="NATION_7",
        lo_us=_ts_us("1996-07-01"),
        hi_us=_ts_us("1997-07-01"),
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "extract_text": _q_extract_text,
        "extract_title": _q_extract_title,
        "extract_spans_stats": _q_extract_spans_stats,
        "sniff_kinds": _q_sniff_kinds,
        "extract_by_lang": _q_extract_by_lang,
        "doc_stats": _q_doc_stats,
        "token_quantiles": _q_token_quantiles,
        "quality_band": _q_quality_band,
        "token_quantiles_by_lang": _q_token_quantiles_by_lang,
        "score_quantiles": _q_score_quantiles,
        "corpus_report": _q_corpus_report,
        "weighted_sample": _q_weighted_sample,
        "weighted_sample_k": _q_weighted_sample_k,
        "value_quantiles": _q_value_quantiles,
        "percent_rank": _q_percent_rank,
        "percent_rank_by_lang": _q_percent_rank_by_lang,
        "latest_event": _q_latest_event,
        "cap_per_source": _q_cap_per_source,
        "doc_embedding_join": _q_doc_embedding_join,
        "doc_outer_join": _q_doc_outer_join,
        "doc_semi_join": _q_doc_semi_join,
        "doc_anti_join": _q_doc_anti_join,
        "fingerprint": _q_fingerprint,
        "winnow_fingerprint": _q_winnow_fingerprint,
        "dedup_exact": _q_dedup_exact,
        "quality_basic": _q_quality_basic,
        "quality_score": _q_quality_score,
        "repetition_stats": _q_repetition_stats,
        "lm_bigram_score": _q_lm_bigram_score,
        "ccnet_buckets": _q_ccnet_buckets,
        "dsir_weights": _q_dsir_weights,
        "bm25_topk": _q_bm25_topk,
        "outlier_mad": _q_outlier_mad,
        "entity_counts": _q_entity_counts,
        "extract_fields": _q_extract_fields,
        "readability": _q_readability,
        "nb_classify": _q_nb_classify,
        "countmin_topk": _q_countmin_topk,
        "gopher_filter": _q_gopher_filter,
        "bpe_pairs": _q_bpe_pairs,
        "lang_id": _q_lang_id,
        "lang_confusion": _q_lang_confusion,
        "length_histogram": _q_length_histogram,
        "table_checksum": _q_table_checksum,
        "group_checksum": _q_group_checksum,
        "topk_with_ties": _q_topk_with_ties,
        "ngram_jaccard": _q_ngram_jaccard,
        "dup_components": _q_dup_components,
        "minhash_components": _q_minhash_components,
        "dup_cluster_sizes": _q_dup_cluster_sizes,
        "minhash_pairs": _q_minhash_pairs,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_fuzzy_keep_best": _q_dedup_fuzzy_keep_best,
        "dedup_incremental": _q_dedup_incremental,
        "crawl_diff": _q_crawl_diff,
        "dedup_bloom": _q_dedup_bloom,
        "dedup_incremental_minhash": _q_dedup_incremental_minhash,
        "simhash_pairs": _q_simhash_pairs,
        "knn_brute": _q_knn_brute,
        "knn_lsh": _q_knn_lsh,
        "knn_ivf": _q_knn_ivf,
        "cosine_dups": _q_cosine_dups,
        "cluster_kmeans": _q_cluster_kmeans,
        "quantize_embeddings": _q_quantize_embeddings,
        "knn_sq8": _q_knn_sq8,
        "pq_codes": _q_pq_codes,
        "knn_pq": _q_knn_pq,
        "knn_ivf_pq": _q_knn_ivf_pq,
        "semantic_dedup": _q_semantic_dedup,
        "graph_rank": _q_graph_rank,
        "graph_triangles": _q_graph_triangles,
        "decontaminate_embedding": _q_decontaminate_embedding,
        "asof_join": _q_asof_join,
        "range_join": _q_range_join,
        "tumbling_window": _q_tumbling_window,
        "window_outliers": _q_window_outliers,
        "props_stats": _q_props_stats,
        "window_distinct_users": _q_window_distinct_users,
        "fill_windows": _q_fill_windows,
        "rolling_stats": _q_rolling_stats,
        "lag_intervals": _q_lag_intervals,
        "funnel_stages": _q_funnel_stages,
        "sessionize_assign": _q_sessionize_assign,
        "cohort_retention": _q_cohort_retention,
        "transition_counts": _q_transition_counts,
        "ab_metrics": _q_ab_metrics,
        "user_type_entropy": _q_user_type_entropy,
        "window_topk": _q_window_topk,
        "dedup_normalized": _q_dedup_normalized,
        "dedup_keep_best": _q_dedup_keep_best,
        "budget_sample": _q_budget_sample,
        "curate": _q_curate,
        "curate_quality": _q_curate_quality,
        "curate_ppl": _q_curate_ppl,
        "temperature_mix": _q_temperature_mix,
        "filter_blocklist": _q_filter_blocklist,
        "shuffle_shards": _q_shuffle_shards,
        "rollup_stats": _q_rollup_stats,
        "sessionize": _q_sessionize,
        "sessionize_stream": _q_sessionize_stream,
        "sessionize_salted": _q_sessionize_salted,
        "token_counts": _q_token_counts,
        "top_tokens": _q_top_tokens,
        "vocab_ranked": _q_vocab_ranked,
        "vocab_encode": _q_vocab_encode,
        "bpe_train": _q_bpe_train,
        "bpe_encode": _q_bpe_encode,
        "source_divergence": _q_source_divergence,
        "cooccurrence_topk": _q_cooccurrence_topk,
        "char_entropy": _q_char_entropy,
        "code_detect": _q_code_detect,
        "sliding_window": _q_sliding_window,
        "sample_split": _q_sample_split,
        "stratified_sample": _q_stratified_sample,
        "sample_fixed_k": _q_sample_fixed_k,
        "topk_per_group": _q_topk_per_group,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "dup_ngram_stats": _q_dup_ngram_stats,
        "dup_ngram_stats_join": _q_dup_ngram_stats_join,
        "dedup_ngram_spans": _q_dedup_ngram_spans,
        "dedup_ngram_spans_join": _q_dedup_ngram_spans_join,
        "decontaminate": _q_decontaminate,
        "contamination_report": _q_contamination_report,
        "cosine_dups_lsh": _q_cosine_dups_lsh,
        "corpus_clean": _q_corpus_clean,
        "chunk_documents": _q_chunk_documents,
        "pack_sequences": _q_pack_sequences,
        "model_score": _q_model_score,
        "training_data": _q_training_data,
        "training_data_curated": _q_training_data_curated,
        "line_dedup": _q_line_dedup,
        "line_dedup_join": _q_line_dedup_join,
        "dedup_jaccard": _q_dedup_jaccard,
        "redact_pii": _q_redact_pii,
        "bpe_token_count": _q_bpe_token_count,
        "heavy_hitters": _q_heavy_hitters,
        "approx_distinct": _q_approx_distinct,
        "media_features": _q_media_features,
        "frame_sample": _q_frame_sample,
        "pricing_summary": _q_pricing_summary,
        "star_revenue": _q_star_revenue,
        "top_customers": _q_top_customers,
        "order_priority": _q_order_priority,
        "ship_priority": _q_ship_priority,
        "revenue_delta": _q_revenue_delta,
        "large_orders": _q_large_orders,
        "promo_revenue": _q_promo_revenue,
        "group_enrich": _q_group_enrich,
        "sample_k_per_group": _q_sample_k_per_group,
        "copurchase_lift": _q_copurchase_lift,
        "band_revenue": _q_band_revenue,
        "customer_features": _q_customer_features,
        "market_share": _q_market_share,
        "order_count_dist": _q_order_count_dist,
        "top_supplier": _q_top_supplier,
        "small_qty_revenue": _q_small_qty_revenue,
        "idle_customers": _q_idle_customers,
        "nation_volume": _q_nation_volume,
    }


# --------------------------------------------------------------------------
# oracle SQL (DuckDB, same parquet views)
# --------------------------------------------------------------------------


def _ngram_pairs_cte(norm: str, threshold: float = 0.5, recursive: bool = False) -> str:
    """Shared WITH-clause computing exact 3-gram Jaccard pairs ≥
    ``threshold`` as `pairs(d1, d2, jaccard)` — used by the
    ngram_jaccard oracle, the dedup_jaccard (join anti-filter) oracle
    and the dedup_minhash connected-components oracle so they cannot
    diverge.  ``recursive=True`` emits WITH RECURSIVE so callers can
    append recursive CTEs (DuckDB requires the keyword up front)."""
    kw = "WITH RECURSIVE" if recursive else "WITH"
    return f"""{kw} d AS (SELECT doc_id, {norm} AS nm FROM documents),
            t AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            l AS (SELECT doc_id,
                         CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                              ELSE list_distinct([array_to_string(ws[i:i+2], ' ')
                                   FOR i IN generate_series(1, len(ws) - 2)]) END AS grams
                  FROM t),
            sh AS (SELECT doc_id, w FROM l, unnest(grams) AS u(w)),
            cnt AS (SELECT doc_id, count(*) AS cn FROM sh GROUP BY 1),
            p AS (SELECT a.doc_id AS d1, b.doc_id AS d2, count(*) AS inter
                  FROM sh a JOIN sh b ON a.w = b.w AND a.doc_id < b.doc_id
                  GROUP BY 1, 2),
            pairs AS (SELECT d1, d2,
                   round(inter * 1.0 / (ca.cn + cb.cn - inter), 6) AS jaccard
              FROM p JOIN cnt ca ON p.d1 = ca.doc_id JOIN cnt cb ON p.d2 = cb.doc_id
              WHERE inter * 1.0 / (ca.cn + cb.cn - inter) >= {threshold})"""


def _en_stop_sql() -> str:
    """English stopword list SQL literal generated from _LANG_PROFILES
    (the dict QualityScore reads) — editing the profile updates impl AND
    the three quality/model oracles together."""
    from ocr_lib_ray.functions.text_stats import _LANG_PROFILES

    return "[" + ",".join("'" + w + "'" for w in sorted(_LANG_PROFILES["en"])) + "]"


def _lang_id_sql(norm: str) -> str:
    """lang_id oracle generated from the SAME _LANG_PROFILES dict the
    LangId stage reads — impl and oracle cannot diverge as profiles are
    extended."""
    from ocr_lib_ray.functions.text_stats import _LANG_PROFILES

    h_cols = ",\n               ".join(
        "len(list_filter(ws, w -> list_contains(["
        + ",".join("'" + w + "'" for w in sorted(prof))
        + "], w))) AS h_" + tag
        for tag, prof in sorted(_LANG_PROFILES.items())
    )
    unpivot = ", ".join(f"h_{tag} AS '{tag}'" for tag in sorted(_LANG_PROFILES))
    cjk = "[\\x{4E00}-\\x{9FFF}]"
    return f"""
            WITH t AS (SELECT doc_id, text,
                          str_split(lower({norm}), ' ') AS ws FROM documents),
            h AS (SELECT doc_id, text,
               {h_cols}
               FROM t),
            s AS (SELECT doc_id, text, tag, hits FROM h
                  UNPIVOT (hits FOR tag IN ({unpivot})) ),
            best AS (SELECT doc_id, text, tag, hits,
                        row_number() OVER (PARTITION BY doc_id
                            ORDER BY hits DESC, tag ASC) AS rk FROM s)
            SELECT doc_id,
                   CASE WHEN regexp_matches(text, '{cjk}') THEN 'zh'
                        WHEN hits = 0 THEN 'und'
                        ELSE tag END AS lang_pred
            FROM best WHERE rk = 1
        """


def _simhash_pairs_sql(norm: str) -> str:
    """simhash_pairs replicated in SQL (round 3): the md5-upper64 token
    hash (== DuckDB md5_number_upper) makes the bit sums, the four
    16-bit band keys, the per-(band, key) clique-chain compression
    (identical fingerprints chain consecutively by doc_id at hamming 0;
    cross pairs run rep-vs-rep) and the hamming verify all exactly
    reproducible.  Unlike minhash-LSH this banding is EXHAUSTIVE for
    hamming ≤ 3 (pigeonhole over 4 bands), so the oracle asserts true
    semantics, not a recall gamble."""
    return f"""
        WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
        tok AS (SELECT doc_id, w
                FROM (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
                     unnest(ws) AS u(w)),
        th AS (SELECT doc_id, md5_number_upper(w) AS h FROM tok),
        bits AS (SELECT doc_id, b,
                        sum(CASE WHEN (h >> b) % 2 = 1 THEN 1 ELSE -1 END) AS acc
                 FROM th, (SELECT unnest(generate_series(0, 63)) AS b)
                 GROUP BY 1, 2),
        bk AS (SELECT doc_id, CAST(b // 16 AS INTEGER) AS band,
                      CAST(sum(CASE WHEN acc > 0
                                    THEN (CAST(1 AS BIGINT) << (b % 16))
                                    ELSE 0 END) AS BIGINT) AS key
               FROM bits GROUP BY 1, 2),
        bands AS (SELECT doc_id, band FROM (SELECT doc_id FROM d),
                  (SELECT CAST(unnest(generate_series(0, 3)) AS INTEGER) AS band)),
        keys AS (SELECT bands.doc_id, bands.band, COALESCE(bk.key, 0) AS key
                 FROM bands LEFT JOIN bk
                   ON bands.doc_id = bk.doc_id AND bands.band = bk.band),
        fp AS (SELECT doc_id,
                      max(CASE WHEN band = 0 THEN key END) AS k0,
                      max(CASE WHEN band = 1 THEN key END) AS k1,
                      max(CASE WHEN band = 2 THEN key END) AS k2,
                      max(CASE WHEN band = 3 THEN key END) AS k3
               FROM keys GROUP BY 1),
        bb AS (SELECT k.doc_id, k.band, k.key, f.k0, f.k1, f.k2, f.k3
               FROM keys k JOIN fp f USING (doc_id)),
        chain AS (SELECT doc_id,
                         lag(doc_id) OVER (PARTITION BY band, key, k0, k1, k2, k3
                                           ORDER BY doc_id) AS prev
                  FROM bb),
        cpairs AS (SELECT prev AS d1, doc_id AS d2, 0 AS hamming
                   FROM chain WHERE prev IS NOT NULL),
        reps AS (SELECT band, key, k0, k1, k2, k3, min(doc_id) AS rep
                 FROM bb GROUP BY 1, 2, 3, 4, 5, 6),
        rpairs AS (SELECT least(a.rep, b.rep) AS d1, greatest(a.rep, b.rep) AS d2,
                          bit_count(xor(a.k0, b.k0)) + bit_count(xor(a.k1, b.k1)) +
                          bit_count(xor(a.k2, b.k2)) + bit_count(xor(a.k3, b.k3))
                            AS hamming
                   FROM reps a JOIN reps b
                     ON a.band = b.band AND a.key = b.key AND a.rep < b.rep
                   WHERE (a.k0, a.k1, a.k2, a.k3) <> (b.k0, b.k1, b.k2, b.k3)),
        allp AS (SELECT * FROM cpairs UNION ALL
                 SELECT * FROM rpairs WHERE hamming <= 3)
        SELECT d1, d2, CAST(min(hamming) AS BIGINT) AS hamming
        FROM allp GROUP BY 1, 2
    """


def _mulmod64_sql(v: str, const: int) -> str:
    """(v * const) mod 2^64 for UBIGINT ``v`` via 32-bit limbs — DuckDB
    has no wrapping multiply (HUGEINT overflows at 64×64 bits), so the
    product is assembled as lo·lo + ((lo·hi + hi·lo mod 2^32) << 32),
    every intermediate < 2^64."""
    ch, cl = const >> 32, const & 0xFFFFFFFF
    return (
        f"CAST((CAST(({v} % 4294967296::UBIGINT) * {cl}::UBIGINT AS HUGEINT) + "
        f"CAST((({v} % 4294967296::UBIGINT) * {ch}::UBIGINT % 4294967296::UBIGINT + "
        f"({v} >> 32) * {cl}::UBIGINT % 4294967296::UBIGINT) % 4294967296::UBIGINT "
        f"AS HUGEINT) * 4294967296::HUGEINT) % 18446744073709551616::HUGEINT "
        f"AS UBIGINT)"
    )


def _minhash_prefix_sql(
    norm: str,
    seeds_sql: str,
    rows_per_band: int,
    empty_sig: str,
    m1: str,
    m2: str,
) -> str:
    """Shared CTE prefix of every minhash oracle: normalized shingles →
    md5-lower64 hashes → xor-seed + splitmix64 permutation minima →
    per-doc signature (empty docs get the all-max signature, exactly as
    ``MinHasher.signature('')``) → 16 md5-derived band keys (``bk``)."""
    return f"""
        WITH RECURSIVE d AS (SELECT doc_id, {norm} AS nm FROM documents),
        t AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
        g AS (SELECT doc_id,
                     CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                          ELSE list_distinct([array_to_string(ws[i:i+2], ' ')
                               FOR i IN generate_series(1, len(ws) - 2)]) END AS grams
              FROM t),
        sh AS (SELECT DISTINCT doc_id, md5_number_lower(w) AS x
               FROM g, unnest(grams) AS u(w)),
        seeds(p, seed) AS (VALUES {seeds_sql}),
        v0 AS (SELECT doc_id, p, xor(x, seed) AS v FROM sh CROSS JOIN seeds),
        v1 AS (SELECT doc_id, p, {m1} AS v FROM v0),
        v2 AS (SELECT doc_id, p, {m2} AS v FROM v1),
        v3 AS (SELECT doc_id, p, xor(v, v >> 31) AS v FROM v2),
        sig AS (SELECT doc_id, p, min(v) AS mv FROM v3 GROUP BY 1, 2),
        sigl AS (SELECT doc_id, list(CAST(mv AS VARCHAR) ORDER BY p) AS sv
                 FROM sig GROUP BY doc_id),
        sigall AS (SELECT d.doc_id, COALESCE(sigl.sv, {empty_sig}) AS sv
                   FROM d LEFT JOIN sigl ON d.doc_id = sigl.doc_id),
        bk AS (SELECT doc_id, sv, b,
                      md5_number_lower(array_to_string(
                        sv[b*{rows_per_band}+1 : b*{rows_per_band}+{rows_per_band}], ','))
                        % 4294967296 AS bh
               FROM sigall, (SELECT unnest(generate_series(0, 15)) AS b))"""


def _kmeans_sql(k: int = 8, iters: int = 2, tail: str | None = None) -> str:
    """Unrolled-CTE oracle for the integer k-means (see
    functions/clustering.py for the exactness argument): milli-quantize
    → assign (exact int64 squared distance, ties to lowest cluster) →
    half-up-rounded integer centroid mean via floor((2s+c)/(2c)) in
    double (NOT DuckDB's ``//``, which truncates toward zero while
    Python floors) → repeat; empty clusters COALESCE to the previous
    centroid.  Seeds are vec_ids 0..k-1."""
    parts = [
        f"""
        WITH el AS (
            SELECT vec_id,
                   generate_subscripts(embedding, 1) AS d,
                   CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5)
                        AS BIGINT) AS x
            FROM embeddings
        ),
        c0 AS (SELECT vec_id AS cluster, d, x FROM el WHERE vec_id < {k})"""
    ]
    for i in range(iters + 1):
        parts.append(
            f""",
        a{i} AS (
            SELECT el.vec_id, c.cluster,
                   sum((el.x - c.x) * (el.x - c.x)) AS dist
            FROM el JOIN c{i} c USING (d)
            GROUP BY el.vec_id, c.cluster
        ),
        g{i} AS (
            SELECT vec_id, cluster FROM (
                SELECT vec_id, cluster,
                       row_number() OVER (PARTITION BY vec_id
                                          ORDER BY dist, cluster) AS rn
                FROM a{i}) WHERE rn = 1
        )"""
        )
        if i < iters:
            parts.append(
                f""",
        u{i + 1} AS (
            SELECT g.cluster, el.d,
                   CAST(floor((2 * sum(el.x) + count(*)) * 1.0
                              / (2 * count(*))) AS BIGINT) AS x
            FROM g{i} g JOIN el ON g.vec_id = el.vec_id
            GROUP BY g.cluster, el.d
        ),
        c{i + 1} AS (
            SELECT c{i}.cluster, c{i}.d, COALESCE(u{i + 1}.x, c{i}.x) AS x
            FROM c{i} LEFT JOIN u{i + 1}
              ON c{i}.cluster = u{i + 1}.cluster AND c{i}.d = u{i + 1}.d
        )"""
            )
    parts.append(tail or f"\n        SELECT vec_id, cluster FROM g{iters}")
    return "".join(parts)


def _pq_sql(
    m: int = 4, k: int = 8, iters: int = 2, sub_d: int = 16, tail: str = "", dim: int = 64
) -> str:
    """Unrolled-CTE oracle for product quantization: the
    :func:`_kmeans_sql` chain generalized with a ``sub`` (subspace)
    key — m independent integer k-means run in ONE chain because every
    join/group simply adds ``sub``.  Same exactness rules: milli
    quantization, exact int64 squared distances, ties to lowest
    cluster, half-up-rounded integer means, empty clusters COALESCE,
    seeds = vec_ids 0..k-1 sliced per subspace.  The SQL derives the
    subspace key solely from ``sub_d``, so ``m`` is validated against
    the fixture dim here to keep it from drifting from the engine
    call's (m, sub_d) pair."""
    if m * sub_d != dim:
        raise ValueError(
            f"_pq_sql: m * sub_d must equal the embedding dim ({dim}); "
            f"got m={m}, sub_d={sub_d}"
        )
    parts = [
        f"""
        WITH el AS (
            SELECT vec_id,
                   generate_subscripts(embedding, 1) AS d,
                   CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5)
                        AS BIGINT) AS x
            FROM embeddings
        ),
        els AS (SELECT vec_id, CAST((d - 1) // {sub_d} AS BIGINT) AS sub, d, x
                FROM el),
        c0 AS (SELECT vec_id AS cluster, sub, d, x FROM els WHERE vec_id < {k})"""
    ]
    for i in range(iters + 1):
        parts.append(
            f""",
        a{i} AS (
            SELECT els.vec_id, els.sub, c.cluster,
                   sum((els.x - c.x) * (els.x - c.x)) AS dist
            FROM els JOIN c{i} c ON els.sub = c.sub AND els.d = c.d
            GROUP BY els.vec_id, els.sub, c.cluster
        ),
        g{i} AS (
            SELECT vec_id, sub, cluster, dist FROM (
                SELECT vec_id, sub, cluster, dist,
                       row_number() OVER (PARTITION BY vec_id, sub
                                          ORDER BY dist, cluster) AS rn
                FROM a{i}) WHERE rn = 1
        )"""
        )
        if i < iters:
            parts.append(
                f""",
        u{i + 1} AS (
            SELECT g.sub, g.cluster, els.d,
                   CAST(floor((2 * sum(els.x) + count(*)) * 1.0
                              / (2 * count(*))) AS BIGINT) AS x
            FROM g{i} g JOIN els
              ON g.vec_id = els.vec_id AND g.sub = els.sub
            GROUP BY g.sub, g.cluster, els.d
        ),
        c{i + 1} AS (
            SELECT c{i}.cluster, c{i}.sub, c{i}.d,
                   COALESCE(u{i + 1}.x, c{i}.x) AS x
            FROM c{i} LEFT JOIN u{i + 1}
              ON c{i}.cluster = u{i + 1}.cluster
             AND c{i}.sub = u{i + 1}.sub AND c{i}.d = u{i + 1}.d
        )"""
            )
    parts.append(tail)
    return "".join(parts)


def _bpe_train_sql(n_merges: int = 8, tail: str | None = None) -> str:
    """Unrolled-CTE oracle for the iterative BPE merge loop (spec in
    functions/tokens.bpe_train): word-frequency table once, then per
    round (pair counts weighted by word freq → best by (n DESC, left,
    right) → padded-space replace, which is the same leftmost
    non-overlapping scan in DuckDB ``replace`` and Python
    ``str.replace``)."""
    parts = [
        f"""
        WITH t AS (SELECT str_split({_NORM}, ' ') AS ws FROM documents
                   WHERE {_NORM} <> ''),
        c AS (SELECT w AS token, CAST(count(*) AS BIGINT) AS freq
              FROM t, unnest(ws) AS u(w) GROUP BY 1),
        w0 AS (SELECT token, freq,
                      ' ' || array_to_string(
                          list_transform(generate_series(1, len(token)),
                                         i -> token[i]), ' ') || ' ' AS s
               FROM c)"""
    ]
    for i in range(n_merges):
        parts.append(
            f""",
        p{i} AS (
            SELECT syms[i] AS l, syms[i + 1] AS r,
                   CAST(sum(freq) AS BIGINT) AS n
            FROM (SELECT freq, str_split(trim(s), ' ') AS syms FROM w{i}),
                 unnest(generate_series(1, len(syms) - 1)) AS g(i)
            GROUP BY 1, 2
        ),
        b{i} AS (
            SELECT l, r, n FROM p{i}
            ORDER BY n DESC, l ASC, r ASC LIMIT 1
        ),
        w{i + 1} AS (
            -- LEFT JOIN, not a cross join: when the pairs exhaust
            -- before round {i} (small corpora), b{i} is EMPTY and a
            -- cross join would zero out every later round while the
            -- engine's loop just stops merging; COALESCE carries the
            -- state forward unchanged instead
            SELECT w.token, w.freq,
                   COALESCE(replace(w.s, ' ' || b.l || ' ' || b.r || ' ',
                                    ' ' || b.l || b.r || ' '), w.s) AS s
            FROM w{i} w LEFT JOIN b{i} b ON TRUE
        )"""
        )
    if tail is None:
        sel = "\n        UNION ALL ".join(
            f"SELECT CAST({i} AS BIGINT) AS rank, l AS left, r AS right, n FROM b{i}"
            for i in range(n_merges)
        )
        tail = f"\n        {sel}"
    parts.append(tail)
    return "".join(parts)


def _ivfpq_sql(
    kc: int = 4,
    nprobe: int = 2,
    m: int = 16,
    k: int = 16,
    iters: int = 2,
    sub_d: int = 4,
    nq: int = 10,
    k_nn: int = 5,
    dim: int = 64,
) -> str:
    """Unrolled-CTE oracle for IVF-PQ ADC search: the coarse k-means
    chain (kc*/ka*/kg*/ku* prefixes), residuals against the final
    coarse centroids, the residual-PQ chain (same exactness rules as
    :func:`_pq_sql`), per-query nprobe cell probing (ties → lowest
    cell), per-(query, cell) distance tables, and the cell-gated ADC
    sum.  Queries are vec_ids 0..nq-1 and excluded from the corpus.
    ``m`` is validated against the fixture dim (the SQL derives
    subspaces solely from ``sub_d``) so the oracle cannot drift from
    the engine call's (m, sub_d) pair."""
    if m * sub_d != dim:
        raise ValueError(
            f"_ivfpq_sql: m * sub_d must equal the embedding dim ({dim}); "
            f"got m={m}, sub_d={sub_d}"
        )
    parts = [
        f"""
        WITH el AS (
            SELECT vec_id,
                   generate_subscripts(embedding, 1) AS d,
                   CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5)
                        AS BIGINT) AS x
            FROM embeddings
        ),
        kc0 AS (SELECT vec_id AS cluster, d, x FROM el WHERE vec_id < {kc})"""
    ]
    for i in range(iters + 1):
        parts.append(
            f""",
        ka{i} AS (
            SELECT el.vec_id, c.cluster,
                   sum((el.x - c.x) * (el.x - c.x)) AS dist
            FROM el JOIN kc{i} c USING (d)
            GROUP BY el.vec_id, c.cluster
        ),
        kg{i} AS (
            SELECT vec_id, cluster FROM (
                SELECT vec_id, cluster,
                       row_number() OVER (PARTITION BY vec_id
                                          ORDER BY dist, cluster) AS rn
                FROM ka{i}) WHERE rn = 1
        )"""
        )
        if i < iters:
            parts.append(
                f""",
        ku{i + 1} AS (
            SELECT g.cluster, el.d,
                   CAST(floor((2 * sum(el.x) + count(*)) * 1.0
                              / (2 * count(*))) AS BIGINT) AS x
            FROM kg{i} g JOIN el ON g.vec_id = el.vec_id
            GROUP BY g.cluster, el.d
        ),
        kc{i + 1} AS (
            SELECT kc{i}.cluster, kc{i}.d, COALESCE(ku{i + 1}.x, kc{i}.x) AS x
            FROM kc{i} LEFT JOIN ku{i + 1}
              ON kc{i}.cluster = ku{i + 1}.cluster AND kc{i}.d = ku{i + 1}.d
        )"""
            )
    parts.append(
        f""",
        rel AS (
            SELECT el.vec_id, CAST((el.d - 1) // {sub_d} AS BIGINT) AS sub,
                   el.d, el.x - kc{iters}.x AS x, kg{iters}.cluster AS cell
            FROM el
            JOIN kg{iters} ON el.vec_id = kg{iters}.vec_id
            JOIN kc{iters} ON kc{iters}.cluster = kg{iters}.cluster
                          AND kc{iters}.d = el.d
        ),
        c0 AS (SELECT vec_id AS cluster, sub, d, x FROM rel WHERE vec_id < {k})"""
    )
    for i in range(iters + 1):
        parts.append(
            f""",
        a{i} AS (
            SELECT rel.vec_id, rel.sub, c.cluster,
                   sum((rel.x - c.x) * (rel.x - c.x)) AS dist
            FROM rel JOIN c{i} c ON rel.sub = c.sub AND rel.d = c.d
            GROUP BY rel.vec_id, rel.sub, c.cluster
        ),
        g{i} AS (
            SELECT vec_id, sub, cluster FROM (
                SELECT vec_id, sub, cluster,
                       row_number() OVER (PARTITION BY vec_id, sub
                                          ORDER BY dist, cluster) AS rn
                FROM a{i}) WHERE rn = 1
        )"""
        )
        if i < iters:
            parts.append(
                f""",
        u{i + 1} AS (
            SELECT g.sub, g.cluster, rel.d,
                   CAST(floor((2 * sum(rel.x) + count(*)) * 1.0
                              / (2 * count(*))) AS BIGINT) AS x
            FROM g{i} g JOIN rel
              ON g.vec_id = rel.vec_id AND g.sub = rel.sub
            GROUP BY g.sub, g.cluster, rel.d
        ),
        c{i + 1} AS (
            SELECT c{i}.cluster, c{i}.sub, c{i}.d,
                   COALESCE(u{i + 1}.x, c{i}.x) AS x
            FROM c{i} LEFT JOIN u{i + 1}
              ON c{i}.cluster = u{i + 1}.cluster
             AND c{i}.sub = u{i + 1}.sub AND c{i}.d = u{i + 1}.d
        )"""
            )
    parts.append(
        f""",
        vc AS (SELECT DISTINCT vec_id, cell FROM rel),
        qd AS (SELECT vec_id AS qid, d, x FROM el WHERE vec_id < {nq}),
        qc AS (SELECT qd.qid, kcf.cluster AS cell,
                      sum((qd.x - kcf.x) * (qd.x - kcf.x)) AS dist
               FROM qd JOIN kc{iters} kcf ON qd.d = kcf.d
               GROUP BY 1, 2),
        pr AS (SELECT qid, cell FROM (
                   SELECT qid, cell,
                          row_number() OVER (PARTITION BY qid
                                             ORDER BY dist, cell) AS rn
                   FROM qc) WHERE rn <= {nprobe}),
        qres AS (
            SELECT qd.qid, pr.cell,
                   CAST((qd.d - 1) // {sub_d} AS BIGINT) AS sub, qd.d,
                   qd.x - kc{iters}.x AS x
            FROM qd
            JOIN pr ON pr.qid = qd.qid
            JOIN kc{iters} ON kc{iters}.cluster = pr.cell
                          AND kc{iters}.d = qd.d
        ),
        dt AS (SELECT qres.qid, qres.cell, cf.sub, cf.cluster,
                      sum((qres.x - cf.x) * (qres.x - cf.x)) AS dd
               FROM qres JOIN c{iters} cf
                 ON qres.sub = cf.sub AND qres.d = cf.d
               GROUP BY 1, 2, 3, 4),
        adc AS (SELECT dt.qid, g.vec_id, sum(dt.dd) AS dist_sq
                FROM g{iters} g
                JOIN vc ON vc.vec_id = g.vec_id
                JOIN dt ON dt.cell = vc.cell AND dt.sub = g.sub
                       AND dt.cluster = g.cluster
                WHERE g.vec_id >= {nq}
                GROUP BY 1, 2)
        SELECT qid AS query_id, vec_id, CAST(dist_sq AS BIGINT) AS dist_sq
        FROM (SELECT *, row_number() OVER (PARTITION BY qid
                  ORDER BY dist_sq, vec_id) AS rn FROM adc)
        WHERE rn <= {k_nn}"""
    )
    return "".join(parts)


def _semantic_dedup_sql(k: int = 8, iters: int = 2) -> str:
    """semantic_dedup oracle: the k-means CTE chain, then drop vectors
    dominated by an earlier same-cluster vector under the exact-int64
    cosine test dot>0 AND dot^2*100 >= 16*|u|^2*|v|^2 (tau = 0.4)."""
    tail = f""",
        nrm AS (SELECT vec_id, sum(x * x) AS n2 FROM el GROUP BY vec_id),
        dots AS (
            SELECT a.vec_id AS u, b.vec_id AS v, sum(ea.x * eb.x) AS dot
            FROM g{iters} a JOIN g{iters} b
              ON a.cluster = b.cluster AND a.vec_id < b.vec_id
            JOIN el ea ON ea.vec_id = a.vec_id
            JOIN el eb ON eb.vec_id = b.vec_id AND ea.d = eb.d
            GROUP BY a.vec_id, b.vec_id
        )
        SELECT g.vec_id, g.cluster FROM g{iters} g
        WHERE NOT EXISTS (
            SELECT 1 FROM dots dd
            JOIN nrm nu ON nu.vec_id = dd.u
            JOIN nrm nv ON nv.vec_id = dd.v
            WHERE dd.v = g.vec_id AND dd.dot > 0
              AND dd.dot * dd.dot * 100 >= 16 * nu.n2 * nv.n2
        )"""
    return _kmeans_sql(k=k, iters=iters, tail=tail)


def _pagerank_sql(iters: int = 3) -> str:
    """Unrolled-CTE oracle for the integer-micro-unit PageRank (spec in
    functions/graph.py): every quantity is a non-negative BIGINT and
    every division a floor (DuckDB ``//`` truncates toward zero ==
    floor on this domain), so the ranks are bit-equal."""
    parts = [
        """
        WITH pj AS (
            SELECT o_custkey AS cust, l_suppkey AS supp, l_returnflag AS flag
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
        ),
        edges AS (
            SELECT DISTINCT 2 * cust AS src, 2 * supp + 1 AS dst FROM pj
            UNION ALL
            SELECT DISTINCT 2 * supp + 1 AS src, 2 * cust AS dst
            FROM pj WHERE flag = 'R'
        ),
        nodes AS (SELECT DISTINCT n FROM
                  (SELECT src AS n FROM edges
                   UNION ALL SELECT dst AS n FROM edges)),
        od AS (SELECT nodes.n AS n, COALESCE(o.c, 0) AS outdeg
               FROM nodes LEFT JOIN
                    (SELECT src, count(*) AS c FROM edges GROUP BY src) o
               ON nodes.n = o.src),
        nn AS (SELECT count(*) AS cnt FROM nodes),
        r0 AS (SELECT n, CAST(1000000 AS BIGINT) AS r FROM nodes)"""
    ]
    for i in range(iters):
        parts.append(
            f""",
        d{i} AS (SELECT CAST(COALESCE(sum(r{i}.r), 0) AS BIGINT) AS dang
                 FROM r{i} JOIN od ON r{i}.n = od.n WHERE od.outdeg = 0),
        i{i} AS (SELECT e.dst AS n,
                        CAST(sum(r{i}.r // od.outdeg) AS BIGINT) AS inc
                 FROM edges e JOIN r{i} ON r{i}.n = e.src
                 JOIN od ON od.n = e.src
                 GROUP BY e.dst),
        r{i + 1} AS (SELECT nodes.n,
                   150000 + (85 * (COALESCE(i{i}.inc, 0)
                       + (SELECT dang FROM d{i}) // (SELECT cnt FROM nn)))
                   // 100 AS r
               FROM nodes LEFT JOIN i{i} ON nodes.n = i{i}.n)"""
        )
    parts.append(
        f"\n        SELECT CAST(n AS BIGINT) AS node,"
        f" CAST(r AS BIGINT) AS rank_micro FROM r{iters}"
    )
    return "".join(parts)


def _minhash_pairs_sql(
    norm: str,
    threshold: float = 0.5,
    components: bool = False,
    incremental: bool = False,
) -> str:
    """minhash_lsh_pairs replicated bit-for-bit in SQL (round 3).

    Everything the implementation computes is reproduced: md5-lower64
    shingle hashes (DuckDB ``md5_number_lower``), the xor-seed +
    splitmix64 permutations (seeds inlined FROM THE SAME MinHasher the
    engine uses — single source of truth; the wrapping multiplies via
    :func:`_mulmod64_sql`), per-doc minima, the md5-derived band keys,
    the identical-signature chain compression, rep-vs-rep estimated
    Jaccard (counts of equal minima / 64 — exact in 6 decimals) and the
    cross-band max.  ~3M intermediate rows at gate scale — fine for
    DuckDB, and the point is exactness, not speed."""
    from ocr_lib_ray.functions.dedup import MinHasher

    hasher = MinHasher()  # the engine's own seeds/permutation count
    seeds_sql = ", ".join(
        f"({p}, {int(s)}::UBIGINT)" for p, s in enumerate(hasher.seeds)
    )
    n_perm = hasher.num_perm
    rows_per_band = n_perm // 16
    maxu = "18446744073709551615"
    empty_sig = "[" + ", ".join(f"'{maxu}'" for _ in range(n_perm)) + "]"
    m1 = _mulmod64_sql("xor(v, v >> 30)", 0xBF58476D1CE4E5B9)
    m2 = _mulmod64_sql("xor(v, v >> 27)", 0x94D049BB133111EB)
    if incremental:
        # crawl-over-crawl NEAR-dup: every doc plays the new crawl, the
        # even-id half plays the prior one; a new doc is dropped when
        # any same-band-hash reference signature matches >= threshold
        # (est = k/64 — exactly representable, so >= is bit-identical
        # on both sides).  No chain/clique machinery: the op emits
        # survivors, not pairs.
        tail = f""",
        rb AS (SELECT doc_id, sv, b, bh FROM bk WHERE doc_id % 2 = 0),
        hits AS (SELECT DISTINCT n.doc_id
                 FROM bk n JOIN rb r ON n.b = r.b AND n.bh = r.bh
                 WHERE len(list_filter(generate_series(1, {n_perm}),
                           i -> n.sv[i] = r.sv[i])) / {n_perm}.0 >= {threshold})
        SELECT doc_id FROM d WHERE doc_id NOT IN (SELECT doc_id FROM hits)"""
        # the chain/reps pair machinery is unused here: the shared
        # prefix ends at bk (per-doc band keys + full signatures)
        return (
            _minhash_prefix_sql(norm, seeds_sql, rows_per_band, empty_sig, m1, m2)
            + tail
        )
    if components:
        # connected components over the pair set: recursive transitive
        # closure, component = min reachable doc_id (the SQL analog of
        # functions.dedup.connected_components)
        tail = """,
        mp AS (SELECT DISTINCT d1, d2 FROM allp),
        edges AS (SELECT d1 AS a, d2 AS b FROM mp
                  UNION SELECT d2, d1 FROM mp),
        walk AS (
            SELECT a AS doc_id, a AS reach FROM edges
            UNION
            SELECT w.doc_id, e.b FROM walk w JOIN edges e ON w.reach = e.a
        )
        SELECT doc_id, min(reach) AS component FROM walk GROUP BY doc_id"""
    else:
        tail = "SELECT d1, d2, max(est) AS est_jaccard FROM allp GROUP BY 1, 2"
    prefix = _minhash_prefix_sql(norm, seeds_sql, rows_per_band, empty_sig, m1, m2)
    return f"""{prefix},
        chain AS (SELECT doc_id,
                         lag(doc_id) OVER (PARTITION BY b, bh, sv ORDER BY doc_id)
                           AS prev
                  FROM bk),
        cpairs AS (SELECT prev AS d1, doc_id AS d2,
                          -- DOUBLE, explicitly: under WITH RECURSIVE
                          -- DuckDB resolves the allp UNION's est type
                          -- from this literal (DECIMAL(2,1)) and would
                          -- round every rpairs estimate to one decimal
                          CAST(1.0 AS DOUBLE) AS est
                   FROM chain WHERE prev IS NOT NULL),
        reps AS (SELECT b, bh, sv, min(doc_id) AS rep FROM bk GROUP BY 1, 2, 3),
        rpairs AS (SELECT least(a.rep, c.rep) AS d1, greatest(a.rep, c.rep) AS d2,
                          round(len(list_filter(generate_series(1, {n_perm}),
                                i -> a.sv[i] = c.sv[i])) / {n_perm}.0, 6) AS est
                   FROM reps a JOIN reps c
                     ON a.b = c.b AND a.bh = c.bh AND a.rep < c.rep
                   WHERE a.sv <> c.sv),
        allp AS (SELECT * FROM cpairs UNION ALL
                 SELECT * FROM rpairs WHERE est >= {threshold})
        {tail}
    """


def _lm_sc_ctes(src: str) -> str:
    """The corpus-trained bigram-LM scoring CTE chain over relation
    ``src`` (must carry doc_id + text): defines t/pr/uni/bi and the
    per-doc ``sc`` (doc_id, n_pairs, lm) — the single source of truth
    for the LM arithmetic, nested by lm_bigram_score, ccnet_buckets
    (via lm_bigram_score) and curate_ppl (trained on the blocklist
    survivors)."""
    return f"""t AS (SELECT doc_id, str_split({_NORM}, ' ') AS ws
                       FROM {src} WHERE {_NORM} <> ''),
            pr AS (SELECT doc_id, ws[i] AS w1, ws[i+1] AS w2
                   FROM (SELECT doc_id, ws, unnest(range(1, len(ws))) AS i
                         FROM t)),
            uni AS (SELECT w, count(*) AS c
                    FROM (SELECT unnest(ws) AS w FROM t) GROUP BY 1),
            bi AS (SELECT w1, w2, count(*) AS c FROM pr GROUP BY 1, 2),
            sc AS (SELECT pr.doc_id, count(*) AS n_pairs,
                          CAST(sum(CAST(floor(ln(bi.c * 1.0 / uni.c) * 1e6
                                                + 0.5) AS BIGINT))
                               AS BIGINT) AS lm
                   FROM pr JOIN bi ON pr.w1 = bi.w1 AND pr.w2 = bi.w2
                           JOIN uni ON uni.w = pr.w1
                   GROUP BY 1)"""


def oracle_sql() -> dict[str, str]:
    norm = _NORM
    d = {
        # golden text is branch-aware for short docs: the PDF branch has
        # no link/boiler context and keeps ANY non-empty body, while the
        # HTML classify drops bodies under min_words=3 (kernel-verified).
        # pdf kinds = %17=3 (pdf) | %19=4 (pdf_rot, re-flowed watermark
        # appends a DRAFT line) | %29=8 (pdf_prop — flat-heuristic merge
        # keeps it text-identical to pdf); CASE order mirrors page_kind.
        "extract_text": f"""
            SELECT 'https://corpus.test/' || source || '/' || doc_id AS url,
                   'Document ' || doc_id ||
                     CASE WHEN (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                            AND {norm} <> ''
                          THEN chr(10) || {norm}
                          WHEN NOT (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                            AND {norm} <> ''
                            AND len(str_split({norm}, ' ')) >= 3
                          THEN chr(10) || {norm} ELSE '' END ||
                     CASE WHEN doc_id % 17 <> 3 AND doc_id % 19 = 4
                          THEN chr(10) || 'DRAFT ' || doc_id
                          WHEN doc_id % 17 <> 3 AND doc_id % 19 <> 4
                            AND doc_id % 29 <> 8 AND doc_id % 23 = 6
                          THEN chr(10) || 'SHEAR ' || doc_id ELSE '' END AS text,
                   lang
            FROM documents
        """,
        "extract_title": """
            SELECT 'https://corpus.test/' || source || '/' || doc_id AS url,
                   'Document ' || doc_id AS title
            FROM documents
        """,
        "extract_spans_stats": f"""
            WITH d AS (SELECT doc_id, source, {norm} AS nm FROM documents),
            w AS (SELECT doc_id, source,
                         CASE WHEN nm = '' THEN 0
                              ELSE len(str_split(nm, ' ')) END AS nw
                  FROM d)
            SELECT 'https://corpus.test/' || source || '/' || doc_id AS url,
                   CASE WHEN doc_id % 17 = 3 THEN 1 + CAST(ceil(nw / 8.0) AS BIGINT)
                        WHEN doc_id % 19 = 4 THEN 2 + CAST(ceil(nw / 8.0) AS BIGINT)
                        WHEN doc_id % 29 = 8 THEN 1 + CAST(ceil(nw / 8.0) AS BIGINT)
                        WHEN doc_id % 23 = 6 THEN 2 + CAST(ceil(nw / 8.0) AS BIGINT)
                        WHEN nw >= 3 THEN 2 ELSE 1 END AS n_spans,
                   CASE WHEN doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8
                          OR doc_id % 23 = 6
                        THEN 0
                        WHEN nw >= 3 OR nw = 0 THEN 6
                        ELSE 7 END AS n_residuals
            FROM w
        """,
        "sniff_kinds": """
            SELECT CASE WHEN doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8
                          OR doc_id % 23 = 6
                        THEN 'pdf' ELSE 'html' END AS doc_kind,
                   count(*) AS n
            FROM documents GROUP BY 1
        """,
        "extract_by_lang": f"""
            SELECT lang, count(*) AS n,
                   CAST(sum(len('Document ' || doc_id) + len(
                     CASE WHEN (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                            AND {norm} <> ''
                          THEN chr(10) || {norm}
                          WHEN NOT (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                            AND {norm} <> ''
                            AND len(str_split({norm}, ' ')) >= 3
                          THEN chr(10) || {norm} ELSE '' END) + len(
                     CASE WHEN doc_id % 17 <> 3 AND doc_id % 19 = 4
                          THEN chr(10) || 'DRAFT ' || doc_id
                          WHEN doc_id % 17 <> 3 AND doc_id % 19 <> 4
                            AND doc_id % 29 <> 8 AND doc_id % 23 = 6
                          THEN chr(10) || 'SHEAR ' || doc_id ELSE '' END))
                     AS BIGINT) AS text_chars
            FROM documents GROUP BY lang
        """,
        "doc_stats": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            t AS (SELECT doc_id, nm,
                         CASE WHEN nm = '' THEN 0 ELSE len(str_split(nm, ' ')) END AS nt
                  FROM d)
            SELECT doc_id, len(nm) AS n_chars_norm, nt AS n_tokens,
                   CASE WHEN nt > 0
                        THEN round((len(nm) - (nt - 1)) * 1.0 / nt, 6)
                        ELSE 0.0 END AS avg_token_len
            FROM t
        """,
        # exact length percentiles; quantile_disc == the histogram
        # path's max(0, ceil(q*n) - 1) order statistic
        "token_quantiles": f"""
            WITH d AS (SELECT {norm} AS nm FROM documents),
            n AS (SELECT CASE WHEN nm = '' THEN 0
                              ELSE len(str_split(nm, ' ')) END AS n
                  FROM d),
            agg AS (SELECT quantile_disc(n, [0.25, 0.5, 0.75, 0.9, 0.99])
                      AS vals FROM n)
            SELECT unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q,
                   unnest(vals) AS n_tokens
            FROM agg
        """,
        # one-pass corpus dashboard; avg = round(sum/count, 6) — the
        # doc_stats float-oracle discipline (round the exact rational
        # ONCE on both sides)
        "corpus_report": f"""
            WITH t AS (SELECT source, lang,
                              CASE WHEN nm = '' THEN 0
                                   ELSE len(str_split(nm, ' ')) END AS nt,
                              CASE WHEN nm = '' THEN 1 ELSE 0 END AS emp
                       FROM (SELECT source, lang, {norm} AS nm FROM documents))
            SELECT source, lang, count(*) AS n_docs,
                   -- BIGINT casts: DuckDB sum(int) is HUGEINT, which
                   -- pandas renders float64 and breaks the repr-hash
                   CAST(sum(nt) AS BIGINT) AS n_tokens_sum,
                   CAST(sum(emp) AS BIGINT) AS n_empty,
                   round(sum(nt) * 1.0 / count(*), 6) AS avg_tokens
            FROM t GROUP BY 1, 2
        """,
        # grid-quantized continuous-domain quantiles: floor(v/step) on
        # both sides, exact histogram on grid ids, * step on the way out
        "value_quantiles": """
            WITH g AS (SELECT floor(value / 0.01) AS gv FROM events
                       WHERE value IS NOT NULL),
            agg AS (SELECT quantile_disc(gv, [0.25, 0.5, 0.75, 0.9, 0.99])
                      AS vals FROM g)
            SELECT unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q,
                   unnest(vals) * 0.01 AS value
            FROM agg
            -- 0 rows (not 5 NULL-padded ones) on an empty/all-null
            -- column, matching the op's empty-table contract
            WHERE EXISTS (SELECT 1 FROM g)
        """,
        # exact window-function ECDF, computed Ray-side WITHOUT the
        # global sort (histogram CDF broadcast + searchsorted stamp);
        # both divisions are the same int->double IEEE ops
        "percent_rank": """
            SELECT doc_id, n_chars,
                   percent_rank() OVER (ORDER BY n_chars) AS pct_rank,
                   cume_dist()    OVER (ORDER BY n_chars) AS cume_dist
            FROM documents
        """,
        "percent_rank_by_lang": """
            SELECT doc_id, lang, n_chars,
                   percent_rank() OVER (PARTITION BY lang ORDER BY n_chars)
                     AS pct_rank,
                   cume_dist()    OVER (PARTITION BY lang ORDER BY n_chars)
                     AS cume_dist
            FROM documents
        """,
        # keep-newest-snapshot-per-key dedup (row_number window = 1),
        # Ray-side as per-block prune + one one-row-per-key-per-block
        # groupby — never a corpus shuffle
        "latest_event": """
            SELECT event_id, ts, user_id, event_type, value, props
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY user_id ORDER BY ts DESC, event_id
                  ) AS rn FROM events)
            WHERE rn = 1
        """,
        # percentile band trim: inclusive [P10, P90] token-count filter
        "quality_band": f"""
            WITH t AS (SELECT doc_id,
                              CASE WHEN nm = '' THEN 0
                                   ELSE len(str_split(nm, ' ')) END AS n_tokens
                       FROM (SELECT doc_id, {norm} AS nm FROM documents)),
            b AS (SELECT quantile_disc(n_tokens, 0.1) AS lo,
                         quantile_disc(n_tokens, 0.9) AS hi FROM t)
            SELECT t.doc_id, t.n_tokens FROM t, b
            WHERE t.n_tokens BETWEEN b.lo AND b.hi
        """,
        # per-group variant: the Ray side is fully distributed
        # (per-lang map_groups over a (lang, n) histogram)
        "token_quantiles_by_lang": f"""
            WITH d AS (SELECT lang, {norm} AS nm FROM documents),
            n AS (SELECT lang, CASE WHEN nm = '' THEN 0
                                    ELSE len(str_split(nm, ' ')) END AS n
                  FROM d),
            agg AS (SELECT lang, quantile_disc(n, [0.25, 0.5, 0.75, 0.9, 0.99])
                      AS vals FROM n GROUP BY lang)
            SELECT lang, unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q,
                   unnest(vals) AS n_tokens
            FROM agg
        """,
        # general hash equi-join: documents × embeddings on id
        "doc_embedding_join": f"""
            WITH d AS (SELECT doc_id,
                              CASE WHEN nm = '' THEN 0
                                   ELSE len(str_split(nm, ' ')) END AS n_tokens
                       FROM (SELECT doc_id, {norm} AS nm FROM documents)),
            e AS (SELECT vec_id AS doc_id, len(embedding) AS dim_r
                  FROM embeddings)
            SELECT d.doc_id, d.n_tokens, e.dim_r
            FROM d JOIN e USING (doc_id)
        """,
        # FULL OUTER hash join: unmatched rows on both sides; value
        # columns double-typed in both directions (the engine's
        # stabilized schema)
        "doc_outer_join": f"""
            WITH d AS (SELECT doc_id,
                              CASE WHEN nm = '' THEN 0
                                   ELSE len(str_split(nm, ' ')) END AS n_tokens
                       FROM (SELECT doc_id, {norm} AS nm FROM documents)
                       WHERE doc_id % 2 = 1),
            e AS (SELECT vec_id AS doc_id, len(embedding) AS dim_r
                  FROM embeddings WHERE vec_id % 3 = 0)
            SELECT COALESCE(d.doc_id, e.doc_id) AS doc_id,
                   CAST(d.n_tokens AS DOUBLE) AS n_tokens,
                   CAST(e.dim_r AS DOUBLE) AS dim_r
            FROM d FULL OUTER JOIN e ON d.doc_id = e.doc_id
        """,
        # semi/anti hash join: key-existence filters against the
        # label<3 embedding subset
        "doc_semi_join": """
            SELECT d.doc_id, d.source FROM documents d
            WHERE EXISTS (SELECT 1 FROM embeddings e
                          WHERE e.vec_id = d.doc_id AND e.label < 3)
        """,
        "doc_anti_join": """
            SELECT d.doc_id, d.source FROM documents d
            WHERE NOT EXISTS (SELECT 1 FROM embeddings e
                              WHERE e.vec_id = d.doc_id AND e.label < 3)
        """,
        # per-domain cap: row_number over the same md5[:16] order the
        # Ray op uses, tie-broken by key
        "cap_per_source": """
            WITH h AS (SELECT source, doc_id,
                              substr(md5('cap' || CAST(doc_id AS VARCHAR)),
                                     1, 16) AS hh
                       FROM documents),
            r AS (SELECT source, doc_id,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY hh, doc_id) AS rn
                  FROM h)
            SELECT source, doc_id FROM r WHERE rn <= 3
        """,
        "fingerprint": f"SELECT doc_id, md5({norm}) AS fingerprint FROM documents",
        # bottom-k winnowing sketch over distinct 3-gram md5 hashes
        "winnow_fingerprint": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            t AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            l AS (SELECT doc_id,
                         CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                              ELSE list_distinct([array_to_string(ws[i:i+2], ' ')
                                   FOR i IN generate_series(1, len(ws) - 2)]) END AS grams
                  FROM t)
            SELECT doc_id,
                   array_to_string(
                     list_sort(list_distinct(
                       list_transform(grams, g -> substr(md5(g), 1, 16))))[1:8],
                     ',') AS winnow_fp
            FROM l
            UNION ALL
            SELECT doc_id, '' AS winnow_fp FROM d WHERE nm = ''
        """,
        "dedup_exact": f"""
            SELECT md5({norm}) AS fingerprint, min(doc_id) AS doc_id
            FROM documents GROUP BY 1
        """,
        "quality_basic": f"""
            WITH t AS (SELECT doc_id, str_split(lower({norm}), ' ') AS ws FROM documents)
            SELECT doc_id,
                   round(len(list_filter(ws, w -> list_contains(
                       {_en_stop_sql()}, w)))
                     * 1.0 / len(ws), 6) AS stop_ratio,
                   round(list_sum(list_transform(ws, w -> len(w))) * 1.0 / len(ws), 6)
                     AS mean_word_len
            FROM t
        """,
        # alpha_ratio uses [a-zA-Z] which equals Python isalpha() on this
        # ASCII corpus (verified: no non-ASCII chars in documents.text)
        "quality_score": f"""
            WITH t AS (SELECT doc_id, str_split(lower({norm}), ' ') AS ws FROM documents),
            u AS (SELECT doc_id, w, count(*) AS c FROM t, unnest(ws) AS q(w) GROUP BY 1, 2),
            m AS (SELECT doc_id, max(c) AS mc FROM u GROUP BY 1)
            SELECT t.doc_id,
                   round(len(list_filter(ws, w -> list_contains(
                       {_en_stop_sql()}, w)))
                     * 1.0 / len(ws), 6) AS stop_ratio,
                   round(list_sum(list_transform(ws, w -> len(w))) * 1.0 / len(ws), 6)
                     AS mean_word_len,
                   round(list_sum(list_transform(ws, w ->
                       len(regexp_replace(w, '[^a-zA-Z]', '', 'g')))) * 1.0 /
                     greatest(list_sum(list_transform(ws, w -> len(w))), 1), 6)
                     AS alpha_ratio,
                   CASE WHEN len(ws) = 1 AND ws[1] = '' THEN 0.0
                        ELSE round(m.mc * 1.0 / len(ws), 6) END AS top_word_ratio
            FROM t JOIN m ON t.doc_id = m.doc_id
        """,
        # Gopher intra-doc repetition: n-gram identity = space-joined
        # tokens (tokens never contain spaces post-collapse_ws, so the
        # join is injective); bigram chars = len(g)-1, trigram len(g)-2
        "repetition_stats": f"""
            WITH b AS (
              SELECT doc_id, str_split({norm}, ' ') AS ws,
                     len(str_split({norm}, ' ')) AS L,
                     list_sum(list_transform(str_split({norm}, ' '), w -> len(w)))
                       AS total
              FROM documents WHERE {norm} <> ''
            ),
            g2 AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g
                   FROM (SELECT doc_id, ws, unnest(range(1, L)) AS i FROM b)),
            -- most frequent gram, ties -> longer chars: mc = max count,
            -- then max charlen among count == mc (mass = mc * that cl)
            c2 AS (SELECT doc_id, g, count(*) AS c, len(g) - 1 AS cl
                   FROM g2 GROUP BY 1, 2),
            m2 AS (SELECT doc_id, max(c) AS mc FROM c2 GROUP BY 1),
            t2 AS (SELECT c2.doc_id, max(c2.c * c2.cl) AS m
                   FROM c2 JOIN m2 ON c2.doc_id = m2.doc_id AND c2.c = m2.mc
                   GROUP BY 1),
            g3 AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS g
                   FROM (SELECT doc_id, ws, unnest(range(1, L - 1)) AS i FROM b)),
            c3 AS (SELECT doc_id, g, count(*) AS c, len(g) - 2 AS cl
                   FROM g3 GROUP BY 1, 2),
            m3 AS (SELECT doc_id, max(c) AS mc FROM c3 GROUP BY 1),
            t3 AS (SELECT c3.doc_id, max(c3.c * c3.cl) AS m
                   FROM c3 JOIN m3 ON c3.doc_id = m3.doc_id AND c3.c = m3.mc
                   GROUP BY 1),
            g5 AS (SELECT doc_id, i,
                          ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
                            ws[i+3] || ' ' || ws[i+4] AS g
                   FROM (SELECT doc_id, ws, unnest(range(1, L - 3)) AS i FROM b)),
            d5 AS (SELECT doc_id, g FROM g5 GROUP BY 1, 2 HAVING count(*) > 1),
            cov AS (SELECT DISTINCT doc_id, i + k AS p
                    FROM (SELECT g5.doc_id, g5.i, unnest(range(0, 5)) AS k
                          FROM g5 JOIN d5 USING (doc_id, g))),
            dupc AS (SELECT cov.doc_id, sum(len(b.ws[cov.p])) AS dchars
                     FROM cov JOIN b USING (doc_id) GROUP BY 1)
            SELECT d.doc_id,
                   coalesce(round(t2.m * 1.0 / b.total, 6), 0.0)
                     AS top_2gram_char_frac,
                   coalesce(round(t3.m * 1.0 / b.total, 6), 0.0)
                     AS top_3gram_char_frac,
                   coalesce(round(dupc.dchars * 1.0 / b.total, 6), 0.0)
                     AS dup_5gram_char_frac
            FROM documents d
            LEFT JOIN b USING (doc_id)
            LEFT JOIN t2 USING (doc_id)
            LEFT JOIN t3 USING (doc_id)
            LEFT JOIN dupc USING (doc_id)
        """,
        # bigram-LM score: libm ln == DuckDB ln; identical double chain
        # floor(ln(c_bi/c_uni)*1e6+0.5) then exact int64 sums
        "lm_bigram_score": f"""
            WITH {_lm_sc_ctes("documents")}
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(sc.n_pairs, 0) AS BIGINT) AS n_pairs,
                   CAST(coalesce(sc.lm, 0) AS BIGINT) AS logprob_micro
            FROM documents d LEFT JOIN sc USING (doc_id)
        """,
        # DSIR importance weights: md5-lower64 % 10k bucket hashing,
        # add-one smoothing, per-bucket micro log-ratio =
        # floor((ln((ct+1)/(T+B)) - ln((cr+1)/(R+B)))*1e6 + 0.5) —
        # identical IEEE chain both sides, then exact int64 doc sums
        "dsir_weights": f"""
            WITH t AS (SELECT doc_id, lang, str_split({norm}, ' ') AS ws
                       FROM documents WHERE {norm} <> ''),
            f AS (
                SELECT doc_id, lang, ws[i] AS f
                FROM (SELECT doc_id, lang, ws,
                             unnest(range(1, len(ws) + 1)) AS i FROM t)
                UNION ALL
                SELECT doc_id, lang, ws[i] || ' ' || ws[i + 1]
                FROM (SELECT doc_id, lang, ws,
                             unnest(range(1, len(ws))) AS i FROM t)
            ),
            fb AS (SELECT doc_id, lang,
                          CAST(md5_number_lower(f) % 10000 AS BIGINT) AS b
                   FROM f),
            agg AS (SELECT b, count(*) AS cr,
                           count(*) FILTER (WHERE lang = 'en') AS ct
                    FROM fb GROUP BY 1),
            tot AS (SELECT sum(cr) AS r, sum(ct) AS t FROM agg),
            lam AS (SELECT b,
                           CAST(floor((ln((ct + 1) * 1.0 / (t + 10000))
                                       - ln((cr + 1) * 1.0 / (r + 10000)))
                                      * 1e6 + 0.5) AS BIGINT) AS lam
                    FROM agg, tot),
            sc AS (SELECT fb.doc_id, count(*) AS nf, sum(lam.lam) AS w
                   FROM fb JOIN lam USING (b) GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(sc.nf, 0) AS BIGINT) AS n_features,
                   CAST(coalesce(sc.w, 0) AS BIGINT) AS weight_micro
            FROM documents d LEFT JOIN sc USING (doc_id)
        """,
        # Okapi BM25 top-10 per query: per-(doc,term) contribution is
        # ONE IEEE chain — ln(1+(N-df+.5)/(df+.5)) * ((tf*2.2)/(tf +
        # 1.2*(0.25+0.75*(dl/avgdl)))) — micro-floored then int64-summed;
        # (k1=1.2, b=0.75) literals and op order mirror retrieval.py
        "bm25_topk": f"""
            WITH t AS (SELECT doc_id, str_split({norm}, ' ') AS ws
                       FROM documents WHERE {norm} <> ''),
            d AS (SELECT doc_id, len(ws) AS dl FROM t),
            st AS (SELECT count(*) AS n,
                          CAST(sum(dl) AS BIGINT) AS sumdl FROM d),
            q(query_id, term) AS (VALUES
                ('q1', 'spark'), ('q1', 'join'), ('q1', 'merge'),
                ('q2', 'window'), ('q2', 'sort'),
                ('q3', 'customer'), ('q3', 'vector')),
            tf AS (SELECT doc_id, w AS term, count(*) AS tf
                   FROM (SELECT doc_id, unnest(ws) AS w FROM t)
                   WHERE w IN (SELECT DISTINCT term FROM q)
                   GROUP BY 1, 2),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            sc AS (SELECT q.query_id, tf.doc_id,
                          CAST(sum(CAST(floor(
                              ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
                              * ((tf.tf * 2.2)
                                 / (tf.tf + 1.2 * (0.25 + 0.75
                                     * (d.dl / (st.sumdl * 1.0 / st.n)))))
                              * 1e6 + 0.5) AS BIGINT)) AS BIGINT) AS score_micro
                   FROM q JOIN tf USING (term) JOIN df USING (term)
                        JOIN d ON d.doc_id = tf.doc_id, st
                   GROUP BY 1, 2
                   HAVING score_micro <> 0)
            SELECT query_id, doc_id, score_micro FROM sc
            QUALIFY row_number() OVER (PARTITION BY query_id
                                       ORDER BY score_micro DESC, doc_id)
                    <= 10
        """,
        # robust per-lang length outliers: med/MAD are quantile_disc
        # order statistics of integer domains, flag is an int compare —
        # no float anywhere, bit-exact by construction
        "outlier_mad": f"""
            WITH tc AS (SELECT doc_id, lang,
                               CASE WHEN {norm} = '' THEN 0
                                    ELSE len(str_split({norm}, ' ')) END
                                 AS n_tokens
                        FROM documents),
            med AS (SELECT lang, quantile_disc(n_tokens, 0.5) AS med
                    FROM tc GROUP BY 1),
            mad AS (SELECT tc.lang,
                           quantile_disc(abs(n_tokens - med.med), 0.5) AS mad
                    FROM tc JOIN med USING (lang) GROUP BY 1)
            SELECT tc.doc_id, tc.lang,
                   CAST(tc.n_tokens AS BIGINT) AS n_tokens,
                   CAST(med.med AS BIGINT) AS med,
                   CAST(mad.mad AS BIGINT) AS mad,
                   abs(tc.n_tokens - med.med) > 3 * mad.mad AS is_outlier
            FROM tc JOIN med USING (lang) JOIN mad ON mad.lang = tc.lang
        """,
        # Flesch reading ease: one double chain micro-floored per doc;
        # sentences from RAW text, words from normalized, vowel-group
        # syllables (min 1/word) — mirrors readability_batch
        "readability": f"""
            WITH b AS (SELECT doc_id, coalesce(text, '') AS rawt,
                              {norm} AS nm FROM documents),
            w AS (SELECT doc_id, rawt,
                         CASE WHEN nm = '' THEN CAST([] AS VARCHAR[])
                              ELSE str_split(nm, ' ') END AS ws
                  FROM b),
            a AS (SELECT doc_id, len(ws) AS w,
                         CASE WHEN len(ws) = 0 THEN 0
                              ELSE greatest(1, len(regexp_extract_all(
                                       rawt, '[.!?]+'))) END AS s,
                         CASE WHEN len(ws) = 0 THEN 0
                              ELSE CAST(list_sum([greatest(1,
                                       len(regexp_extract_all(x,
                                           '[aeiouyAEIOUY]+')))
                                       FOR x IN ws]) AS BIGINT) END AS syl
                  FROM w)
            SELECT doc_id, CAST(w AS BIGINT) AS n_words,
                   CAST(s AS BIGINT) AS n_sentences,
                   CAST(syl AS BIGINT) AS n_syllables,
                   CASE WHEN w = 0 THEN 0
                        ELSE CAST(floor((206.835 - 1.015 * (w * 1.0 / s)
                                         - 84.6 * (syl * 1.0 / w))
                                        * 1e6 + 0.5) AS BIGINT)
                   END AS flesch_micro
            FROM a
        """,
        # entity density: the same RE2 patterns as redact.py, counted
        # independently on raw text (regexp_extract_all == Arrow
        # count_substring_regex: one RE2 leftmost non-overlapping scan)
        "entity_counts": """
            SELECT doc_id,
                   len(regexp_extract_all(coalesce(text, ''),
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                     AS n_emails,
                   len(regexp_extract_all(coalesce(text, ''),
                     'https?://[^ \\t\\n\\r\\f\\v]+')) AS n_urls,
                   len(regexp_extract_all(coalesce(text, ''),
                     '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b')) AS n_ipv4,
                   len(regexp_extract_all(coalesce(text, ''), '\\b[0-9]{9,}\\b'))
                     AS n_longnums,
                   len(regexp_extract_all(coalesce(text, ''), '\\+?[0-9][0-9()\\- ]{7,}[0-9]'))
                     AS n_phones
            FROM documents
        """,
        # first-match capture per pattern: regexp_extract is the same
        # RE2 leftmost scan as Arrow extract_regex; '' on no match on
        # BOTH sides (never null-vs-'' ambiguity)
        "extract_fields": """
            SELECT doc_id,
                   regexp_extract(coalesce(text, ''),
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')
                     AS email,
                   regexp_extract(coalesce(text, ''),
                     'https?://[^ \\t\\n\\r\\f\\v]+') AS url,
                   regexp_extract(coalesce(text, ''),
                     '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b') AS ipv4,
                   regexp_extract(coalesce(text, ''), '\\b[0-9]{9,}\\b')
                     AS longnum,
                   regexp_extract(coalesce(text, ''),
                     '\\+?[0-9][0-9()\\- ]{7,}[0-9]') AS phone
            FROM documents
        """,
        # corpus-trained multinomial NB: per-(token,class) micro
        # log-likelihood floor(ln((cnt+1)/(T_c+V))*1e6+0.5) summed
        # int64 per (doc,class) + micro prior ln(N_c/N); argmax with
        # (score DESC, class ASC) — mirrors classify.py exactly
        "nb_classify": f"""
            WITH t AS (SELECT doc_id, str_split({norm}, ' ') AS ws
                       FROM documents WHERE {norm} <> ''),
            tok AS (SELECT t.doc_id, unnest(ws) AS w FROM t),
            cls AS (SELECT lang AS c, count(*) AS n_docs
                    FROM documents GROUP BY 1),
            n AS (SELECT count(*) AS n FROM documents),
            tc AS (SELECT tok.w, d.lang AS c, count(*) AS cnt
                   FROM tok JOIN documents d USING (doc_id) GROUP BY 1, 2),
            totc AS (SELECT cls.c, coalesce(sum(tc.cnt), 0) AS tc
                     FROM cls LEFT JOIN tc ON tc.c = cls.c GROUP BY 1),
            v AS (SELECT count(DISTINCT w) AS v FROM tok),
            toksc AS (SELECT tok.doc_id, cls.c,
                             CAST(sum(CAST(floor(
                                 ln((coalesce(tc.cnt, 0) + 1) * 1.0
                                    / (totc.tc + v.v)) * 1e6 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS s
                      FROM tok CROSS JOIN cls
                           LEFT JOIN tc ON tc.w = tok.w AND tc.c = cls.c
                           JOIN totc ON totc.c = cls.c, v
                      GROUP BY 1, 2),
            alldc AS (SELECT d.doc_id, cls.c, cls.n_docs
                      FROM documents d CROSS JOIN cls),
            tot AS (SELECT a.doc_id, a.c,
                           coalesce(ts.s, 0)
                           + CAST(floor(ln(a.n_docs * 1.0 / n.n) * 1e6 + 0.5)
                                  AS BIGINT) AS total
                    FROM alldc a
                    LEFT JOIN toksc ts
                           ON ts.doc_id = a.doc_id AND ts.c = a.c, n)
            SELECT doc_id, c AS pred, CAST(total AS BIGINT) AS score_micro
            FROM tot
            QUALIFY row_number() OVER (PARTITION BY doc_id
                                       ORDER BY total DESC, c) = 1
        """,
        # count-min sketch: Kirsch-Mitzenmacher md5 double-hash into
        # d=4 rows × w=16384 counters; est = min over rows — collision
        # overestimates replicated bit-exactly (same bridge as bloom)
        "countmin_topk": f"""
            WITH tok AS (SELECT unnest(str_split({norm}, ' ')) AS w
                         FROM documents WHERE {norm} <> ''),
            tc AS (SELECT w, count(*) AS cnt FROM tok GROUP BY 1),
            h AS (SELECT w, cnt,
                         CAST(md5_number_lower(w) % 16384 AS BIGINT) AS h1,
                         CAST(md5_number_upper(w) % 16383 AS BIGINT) + 1
                           AS step
                  FROM tc),
            rr AS (SELECT unnest(range(0, 4)) AS r),
            cells AS (SELECT rr.r, (h.h1 + rr.r * h.step) % 16384 AS pos,
                             sum(h.cnt) AS cnt
                      FROM h CROSS JOIN rr GROUP BY 1, 2),
            cand(token) AS (VALUES ('the'), ('spark'), ('join'),
                                   ('window'), ('zzzunseen')),
            ch AS (SELECT token,
                          CAST(md5_number_lower(token) % 16384 AS BIGINT)
                            AS h1,
                          CAST(md5_number_upper(token) % 16383 AS BIGINT) + 1
                            AS step
                   FROM cand),
            est AS (SELECT ch.token,
                           min(coalesce(cells.cnt, 0)) AS est_count
                    FROM ch CROSS JOIN rr
                         LEFT JOIN cells
                                ON cells.r = rr.r
                               AND cells.pos
                                   = (ch.h1 + rr.r * ch.step) % 16384
                    GROUP BY 1)
            SELECT cand.token,
                   CAST(est.est_count AS BIGINT) AS est_count,
                   CAST(coalesce(tc.cnt, 0) AS BIGINT) AS exact_count
            FROM cand JOIN est USING (token)
                 LEFT JOIN tc ON tc.w = cand.token
        """,
        # BPE round-1 merge candidates: adjacent char pairs in word
        # tokens, (n DESC, pair ASC) — both sides code-point substrings
        "bpe_pairs": f"""
            WITH w AS (SELECT unnest(str_split({norm}, ' ')) AS w
                       FROM documents WHERE {norm} <> ''),
            p AS (SELECT substr(w, i, 2) AS pair
                  FROM (SELECT w, unnest(range(1, len(w))) AS i FROM w)
                  WHERE len(w) >= 2)
            SELECT pair, count(*) AS n FROM p
            GROUP BY 1 ORDER BY n DESC, pair LIMIT 50
        """,
        # Gopher rules: every ratio is an integer cross-multiplication
        # (3n <= chars <= 10n etc), words from normalized text, lines
        # from RAW text — mirrors gopher_filter_batch rule-for-rule
        "gopher_filter": f"""
            WITH base AS (SELECT doc_id, coalesce(text, '') AS rawt,
                                 {norm} AS nm FROM documents),
            w AS (SELECT doc_id, rawt,
                         CASE WHEN nm = '' THEN CAST([] AS VARCHAR[])
                              ELSE str_split(nm, ' ') END AS ws,
                         CASE WHEN rawt = '' THEN CAST([] AS VARCHAR[])
                              ELSE str_split(rawt, chr(10)) END AS ls
                  FROM base),
            agg AS (SELECT doc_id,
                        len(ws) AS n,
                        coalesce(list_sum([len(x) FOR x IN ws]), 0) AS chars,
                        len(list_filter(ws,
                            x -> regexp_matches(x, '[A-Za-z]'))) AS n_alpha,
                        len(list_distinct(list_filter(ws,
                            x -> list_contains(['the','be','to','of','and',
                                                'that','have','with'], x))))
                          AS n_stops,
                        len(regexp_extract_all(rawt, '#|\\.\\.\\.')) AS n_sym,
                        len(ls) AS n_lines,
                        len(list_filter(ls, l -> starts_with(l, '-')
                            OR starts_with(l, '*') OR starts_with(l, '•')))
                          AS n_bullet,
                        len(list_filter(ls, l -> ends_with(l, '...')
                            OR ends_with(l, '…'))) AS n_ellip
                    FROM w)
            SELECT doc_id, CAST(n AS BIGINT) AS n_words,
                   n BETWEEN 50 AND 100000 AS r_words,
                   3 * n <= chars AND chars <= 10 * n AS r_wordlen,
                   10 * n_sym <= n AS r_symbol,
                   10 * n_bullet <= 9 * n_lines AS r_bullet,
                   10 * n_ellip <= 3 * n_lines AS r_ellip,
                   5 * n_alpha >= 4 * n AS r_alpha,
                   n_stops >= 2 AS r_stops,
                   (n BETWEEN 50 AND 100000)
                   AND (3 * n <= chars AND chars <= 10 * n)
                   AND (10 * n_sym <= n)
                   AND (10 * n_bullet <= 9 * n_lines)
                   AND (10 * n_ellip <= 3 * n_lines)
                   AND (5 * n_alpha >= 4 * n)
                   AND (n_stops >= 2) AS passes
            FROM agg
        """,
        "lang_id": _lang_id_sql(norm),
        # log2 buckets from an INTEGER powers table (never a float log2
        # rounded at a power-of-two boundary); -1 = empty docs
        "length_histogram": f"""
            WITH d AS (SELECT CASE WHEN {norm} = '' THEN 0
                              ELSE len(str_split({norm}, ' ')) END AS n
                       FROM documents),
            p AS (SELECT g AS k, CAST(power(2, g) AS BIGINT) AS pw
                  FROM generate_series(0, 40) t(g)),
            b AS (SELECT CASE WHEN n = 0 THEN -1
                         ELSE (SELECT max(k) FROM p WHERE pw <= d.n)
                         END AS bucket
                  FROM d)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM b GROUP BY 1
        """,
        # anti-entropy checksum: md5-lower64 per row of the \\x1f-joined
        # CAST(x AS VARCHAR) rendering (NULL -> ''), two modular sums
        "table_checksum": """
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(COALESCE(sum(md5_number_lower(
                            COALESCE(CAST(doc_id AS VARCHAR), '') || chr(31)
                            || COALESCE(text, '') || chr(31)
                            || COALESCE(lang, '') || chr(31)
                            || COALESCE(source, '') || chr(31)
                            || COALESCE(CAST(n_chars AS VARCHAR), ''))
                          % 2147483647), 0) % 2147483647 AS BIGINT) AS ck1,
                   CAST(COALESCE(sum(md5_number_lower(
                            COALESCE(CAST(doc_id AS VARCHAR), '') || chr(31)
                            || COALESCE(text, '') || chr(31)
                            || COALESCE(lang, '') || chr(31)
                            || COALESCE(source, '') || chr(31)
                            || COALESCE(CAST(n_chars AS VARCHAR), ''))
                          % 2147483629), 0) % 2147483629 AS BIGINT) AS ck2
            FROM documents
        """,
        # per-group drill-down of the same checksum contract
        "group_checksum": """
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(md5_number_lower(
                            COALESCE(CAST(doc_id AS VARCHAR), '') || chr(31)
                            || COALESCE(text, '') || chr(31)
                            || COALESCE(lang, '') || chr(31)
                            || COALESCE(source, '') || chr(31)
                            || COALESCE(CAST(n_chars AS VARCHAR), ''))
                          % 2147483647) % 2147483647 AS BIGINT) AS ck1,
                   CAST(sum(md5_number_lower(
                            COALESCE(CAST(doc_id AS VARCHAR), '') || chr(31)
                            || COALESCE(text, '') || chr(31)
                            || COALESCE(lang, '') || chr(31)
                            || COALESCE(source, '') || chr(31)
                            || COALESCE(CAST(n_chars AS VARCHAR), ''))
                          % 2147483629) % 2147483629 AS BIGINT) AS ck2
            FROM documents
            GROUP BY 1
        """,
        # confusion matrix: the lang_id oracle as a subquery (single
        # source of truth for the prediction), joined to the labels
        "lang_confusion": f"""
            SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n
            FROM ({_lang_id_sql(norm)}) p
            JOIN documents d USING (doc_id)
            GROUP BY 1, 2
        """,
        "ngram_jaccard": f"""
            {_ngram_pairs_cte(norm)}
            SELECT d1, d2, jaccard FROM pairs
        """,
        # distributed CC over the same pair set; oracle = recursive
        # transitive closure, component = min reachable id
        "dup_components": f"""
            {_ngram_pairs_cte(norm, recursive=True)},
            edges AS (SELECT d1 AS a, d2 AS b FROM pairs
                      UNION SELECT d2, d1 FROM pairs),
            walk AS (
                SELECT a AS doc_id, a AS reach FROM edges
                UNION
                SELECT w.doc_id, e.b FROM walk w JOIN edges e ON w.reach = e.a
            )
            SELECT doc_id, min(reach) AS component FROM walk GROUP BY doc_id
        """,
        # dedup through the anti hash_join over exact-Jaccard pairs
        # (dedup_by_pairs)
        "dedup_jaccard": f"""
            {_ngram_pairs_cte(norm)}
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT d2 FROM pairs)
        """,
        # Transitive-closure dedup over minhash pairs @0.8.  Oracle =
        # exact-Jaccard pairs at the same threshold + empty-doc cliques
        # (identical all-max signatures ⇒ est 1.0 — two empty docs ARE
        # dups) + recursive connected components, keep each component's
        # min id.  Valid because the fixture's pair-jaccard distribution
        # is bimodal (background ≤ 0.07, planted dups ≥ 0.9 — measured)
        # and the seeded signatures are deterministic, so minhash@0.8
        # components equal exact@0.8 components on any corpus with that
        # margin; the pytest recall gates still pin the LSH mechanics.
        "dedup_minhash": f"""
            {_ngram_pairs_cte(norm, threshold=0.8, recursive=True)},
            empties AS (SELECT doc_id FROM d WHERE nm = ''),
            epairs AS (SELECT a.doc_id AS d1, b.doc_id AS d2
                       FROM empties a JOIN empties b ON a.doc_id < b.doc_id),
            allp AS (SELECT d1, d2 FROM pairs
                     UNION SELECT d1, d2 FROM epairs),
            edges AS (SELECT d1 AS a, d2 AS b FROM allp
                      UNION SELECT d2, d1 FROM allp),
            walk AS (
                SELECT a AS doc_id, a AS reach FROM edges
                UNION
                SELECT w.doc_id, e.b FROM walk w JOIN edges e ON w.reach = e.a
            ),
            roots AS (SELECT doc_id, min(reach) AS root FROM walk GROUP BY doc_id)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM roots WHERE doc_id <> root)
        """,
        # sim values are excluded from the compared output: the embedding
        # column is float32 and DuckDB's list_cosine_similarity
        # accumulates in float32 while numpy accumulates in float64 —
        # bit-equality of the scores is not meaningful.  Membership and
        # ranking ARE stable (margins ≫ 1e-7) and are what is compared.
        "knn_brute": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                       WHERE vec_id < 10),
            c AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= 10),
            s AS (SELECT query_id, vec_id,
                         row_number() OVER (PARTITION BY query_id
                             ORDER BY list_cosine_similarity(qe, embedding) DESC,
                                      vec_id ASC) AS rk
                  FROM q CROSS JOIN c)
            SELECT query_id, vec_id FROM s WHERE rk <= 5
        """,
        # quantized ANN: cosine rank over the SQ8 reconstructions —
        # recon lists rebuilt in SQL ordered by dim, then the same
        # row_number rank as knn_brute
        "knn_sq8": """
            WITH f AS (SELECT vec_id, i AS dim,
                              CAST(embedding[i] AS DOUBLE) AS v
                       FROM (SELECT vec_id, embedding,
                                    unnest(range(1, len(embedding) + 1)) AS i
                             FROM embeddings)),
            mm AS (SELECT dim, min(v) AS mn, max(v) AS mx FROM f GROUP BY 1),
            r AS (SELECT f.vec_id, f.dim,
                         CASE WHEN mm.mx = mm.mn THEN mm.mn
                              ELSE mm.mn
                                   + CAST(floor((f.v - mm.mn)
                                           / (mm.mx - mm.mn) * 255 + 0.5)
                                     AS BIGINT) * (mm.mx - mm.mn) / 255
                         END AS rv
                  FROM f JOIN mm USING (dim)),
            re AS (SELECT vec_id, list(rv ORDER BY dim) AS emb
                   FROM r GROUP BY 1),
            q AS (SELECT vec_id AS query_id, emb AS qe FROM re
                  WHERE vec_id < 10),
            c AS (SELECT vec_id, emb FROM re WHERE vec_id >= 10),
            s AS (SELECT query_id, vec_id,
                         row_number() OVER (PARTITION BY query_id
                             ORDER BY list_cosine_similarity(qe, emb) DESC,
                                      vec_id ASC) AS rk
                  FROM q CROSS JOIN c)
            SELECT query_id, vec_id FROM s WHERE rk <= 5
        """,
        # SemDeDup clustering step: integer k-means, iterations
        # unrolled as CTEs — every value exact int64 on both sides
        # SQ8 quantization: basic IEEE double chain (no transcendentals),
        # float32 widens exactly, min/max order-free — numpy == DuckDB
        "quantize_embeddings": """
            WITH f AS (SELECT vec_id, i AS dim,
                              CAST(embedding[i] AS DOUBLE) AS v
                       FROM (SELECT vec_id, embedding,
                                    unnest(range(1, len(embedding) + 1)) AS i
                             FROM embeddings)),
            mm AS (SELECT dim, min(v) AS mn, max(v) AS mx FROM f GROUP BY 1),
            q AS (SELECT f.vec_id, f.dim, f.v, mm.mn, mm.mx,
                         CASE WHEN mm.mx = mm.mn THEN 0
                              ELSE CAST(floor((f.v - mm.mn)
                                        / (mm.mx - mm.mn) * 255 + 0.5)
                                   AS BIGINT) END AS code
                  FROM f JOIN mm USING (dim))
            SELECT vec_id, CAST(dim AS BIGINT) AS dim, code,
                   CAST(floor(abs(v - (mn + code * (mx - mn) / 255))
                              * 1e6 + 0.5) AS BIGINT) AS err_micro
            FROM q
        """,
        "cluster_kmeans": _kmeans_sql(k=8, iters=2),
        # IVF-PQ: coarse chain + residual-PQ chain + probe + ADC
        "knn_ivf_pq": _ivfpq_sql(
            kc=4, nprobe=2, m=16, k=16, iters=2, sub_d=4, nq=10, k_nn=5
        ),
        # product quantization: the k-means chain generalized with a
        # subspace key; codes + exact reconstruction error
        "pq_codes": _pq_sql(
            tail="""
        SELECT g.vec_id, g.sub, g.cluster AS code,
               CAST(g.dist AS BIGINT) AS err_sq
        FROM g2 g"""
        ),
        # ADC search: per-query distance tables to the final centroids,
        # summed over each vector's codes; top-5 (dist, vec_id)
        "knn_pq": _pq_sql(
            m=16,
            k=16,
            sub_d=4,
            tail=""",
        qd AS (SELECT vec_id AS qid, sub, d, x FROM els WHERE vec_id < 10),
        dt AS (SELECT qd.qid, c.sub, c.cluster,
                      sum((qd.x - c.x) * (qd.x - c.x)) AS dd
               FROM qd JOIN c2 c ON qd.sub = c.sub AND qd.d = c.d
               GROUP BY 1, 2, 3),
        adc AS (SELECT dt.qid, g.vec_id, sum(dt.dd) AS dist_sq
                FROM g2 g JOIN dt
                  ON dt.sub = g.sub AND dt.cluster = g.cluster
                WHERE g.vec_id >= 10
                GROUP BY 1, 2)
        SELECT qid AS query_id, vec_id, CAST(dist_sq AS BIGINT) AS dist_sq
        FROM (SELECT *, row_number() OVER (PARTITION BY qid
                  ORDER BY dist_sq, vec_id) AS rn FROM adc)
        WHERE rn <= 5"""
        ),
        # SemDeDup prune: exact-int64 cosine dominance within clusters
        "semantic_dedup": _semantic_dedup_sql(k=8, iters=2),
        # distributed PageRank, integer micro-units, iterations unrolled
        "graph_rank": _pagerank_sql(iters=3),
        # each triangle closes exactly once at its min-(degree, id)
        # apex, attributed to the id-ordered pair of the other two
        # vertices — the DEGREE-ORDERED wedge construction (bounds the
        # wedge volume by O(E^1.5) on power-law graphs; on regular
        # graphs the tie-break reduces to the classic u < a < b form)
        "graph_triangles": """
            WITH li AS (SELECT DISTINCT l_orderkey AS ok, l_suppkey AS s
                        FROM lineitem),
            e AS (SELECT DISTINCT x.s AS u, y.s AS v
                  FROM li x JOIN li y ON x.ok = y.ok AND x.s < y.s),
            deg AS (SELECT node, count(*) AS d FROM (
                        SELECT u AS node FROM e UNION ALL SELECT v FROM e
                    ) GROUP BY 1),
            o AS (SELECT CASE WHEN (du.d < dv.d) OR (du.d = dv.d AND e.u < e.v)
                              THEN e.u ELSE e.v END AS s,
                         CASE WHEN (du.d < dv.d) OR (du.d = dv.d AND e.u < e.v)
                              THEN e.v ELSE e.u END AS t
                  FROM e JOIN deg du ON du.node = e.u
                         JOIN deg dv ON dv.node = e.v),
            w AS (SELECT o1.t AS a, o2.t AS b
                  FROM o o1 JOIN o o2 ON o1.s = o2.s AND o1.t < o2.t)
            SELECT w.a, w.b, count(*) AS n_tri
            FROM w JOIN e ON e.u = w.a AND e.v = w.b
            GROUP BY 1, 2
        """,
        "cosine_dups": """
            SELECT a.vec_id AS d1, b.vec_id AS d2
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
        """,
        # planted-twin subset oracles for the approximate ANN family
        # (round 4): the queries project their output to the planted
        # exact-duplicate rows, whose retrieval is DETERMINISTIC for
        # any correct LSH/IVF index — so the oracle is the planted
        # mapping itself; full-rank recall stays pytest-gated
        "knn_lsh": _PLANTED_KNN_SQL,
        "knn_ivf": _PLANTED_KNN_SQL,
        "cosine_dups_lsh": f"""
            SELECT vec_id AS d1, vec_id + {_PLANT_OFFSET} AS d2
            FROM embeddings WHERE vec_id < {_PLANT_NQ}
        """,
        # embedding-space eval decontamination: id-set output (the same
        # no-float-column discipline as cosine_dups); eval rows drop as
        # self-matches
        "decontaminate_embedding": """
            SELECT a.vec_id FROM embeddings a
            WHERE NOT EXISTS (
                SELECT 1 FROM embeddings b
                WHERE b.vec_id % 10 = 0
                  AND list_cosine_similarity(a.embedding, b.embedding) >= 0.4
            )
        """,
        # value_sum compared in integer cents: double += order differs
        # between engines, and round-to-6 is 1-ulp fragile; cents are exact.
        "asof_join": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                              event_type, value FROM events),
            l AS (SELECT event_id, user_id, ts_us FROM e
                  WHERE event_type = 'purchase'),
            r AS (SELECT user_id, ts_us, max(value) AS view_value FROM e
                  WHERE event_type = 'view' GROUP BY 1, 2)
            SELECT l.event_id, l.user_id, l.ts_us, r.view_value,
                   CAST(r.ts_us AS DOUBLE) AS view_ts_us
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts_us >= r.ts_us
        """,
        "range_join": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                              event_type FROM events),
            l AS (SELECT event_id, user_id, ts_us FROM e
                  WHERE event_type = 'click'),
            r AS (SELECT user_id, ts_us FROM e WHERE event_type = 'error')
            SELECT l.event_id, l.user_id, l.ts_us,
                   count(r.user_id) AS n_in_window
            FROM l LEFT JOIN r
              ON r.user_id = l.user_id AND r.ts_us > l.ts_us
             AND r.ts_us <= l.ts_us + 3600000000
            GROUP BY 1, 2, 3
        """,
        "window_distinct_users": """
            SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
                   count(DISTINCT user_id) AS n_users
            FROM events GROUP BY 1
        """,
        # case/punct-blind dedup: same aggressive normal form as
        # curation.normalize_aggressive (RE2 on both sides)
        "dedup_normalized": """
            WITH n AS (SELECT doc_id,
                              trim(regexp_replace(lower(text),
                                   '[^a-z0-9]+', ' ', 'g')) AS nt
                       FROM documents)
            SELECT min(doc_id) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_copies
            FROM n GROUP BY nt
        """,
        # token-budget mixture: rate = budget/total per source, decided
        # by the weighted_sample printf-hex discipline (identical IEEE
        # division/multiply/floor on both sides); b IS NULL = unbudgeted
        "budget_sample": f"""
            WITH tok AS (SELECT doc_id, source,
                         CASE WHEN {{norm}} = '' THEN 0
                              ELSE len(str_split({{norm}}, ' ')) END AS nt
                         FROM documents),
            tot AS (SELECT source, sum(nt) AS t FROM tok GROUP BY 1),
            cfg AS (SELECT source, t,
                           CASE source WHEN 'src0' THEN 700.0
                                       WHEN 'src1' THEN 100.0
                                       WHEN 'src2' THEN 0.0
                                       ELSE NULL END AS b
                    FROM tot)
            SELECT k.doc_id, k.source
            FROM tok k JOIN cfg c USING (source)
            WHERE c.b IS NULL OR c.t = 0 OR c.b / c.t >= 1.0
               OR substr(md5('budget' || CAST(k.doc_id AS VARCHAR)), 1, 8)
                  < printf('%08x',
                           CAST(floor(c.b / c.t * 4294967296.0) AS BIGINT))
        """.replace("{norm}", _NORM),
        # temperature-scaled source mixing: rate = exp((alpha-1) *
        # (ln t - ln tmin)) — the repr'd (alpha-1.0) literal parses to
        # the identical double; same md5/printf keep rule as budget
        "temperature_mix": f"""
            WITH tok AS (SELECT doc_id, source,
                                CASE WHEN {{norm}} = '' THEN 0
                                     ELSE len(str_split({{norm}}, ' ')) END AS ntk
                         FROM documents),
            tot AS (SELECT source, CAST(sum(ntk) AS BIGINT) AS t
                    FROM tok GROUP BY 1),
            mn AS (SELECT CAST(min(t) AS DOUBLE) AS tmin FROM tot WHERE t > 0),
            r AS (SELECT source,
                         CASE WHEN t = 0 THEN 1.0
                              ELSE exp({0.3 - 1.0!r} *
                                   (ln(CAST(t AS DOUBLE)) -
                                    ln((SELECT tmin FROM mn))))
                         END AS rate
                  FROM tot)
            SELECT k.doc_id, k.source
            FROM tok k JOIN r USING (source)
            WHERE r.rate >= 1.0
               OR substr(md5('temp' || CAST(k.doc_id AS VARCHAR)), 1, 8)
                  < printf('%08x', CAST(floor(r.rate * 4294967296.0) AS BIGINT))
        """.replace("{norm}", _NORM),
        # the composed curation pipeline, end to end: each CTE is the
        # oracle of its stage (filter_blocklist / dedup_keep_best /
        # budget_sample over the DEDUPED token totals / shuffle_shards)
        "curate": f"""
            WITH surv AS (SELECT doc_id, text, source, n_chars FROM documents
                WHERE NOT regexp_matches(lower(text),
                          '(?:\\bspark\\b|\\bslow query\\b|\\bdup\\b)')),
            nrm AS (SELECT doc_id, source, n_chars, text,
                           trim(regexp_replace(lower(text),
                                '[^a-z0-9]+', ' ', 'g')) AS nt
                    FROM surv),
            best AS (SELECT doc_id, source, text FROM (
                       SELECT doc_id, source, text,
                              row_number() OVER (PARTITION BY nt
                                  ORDER BY n_chars DESC, doc_id) AS rn
                       FROM nrm) WHERE rn = 1),
            tok AS (SELECT doc_id, source,
                           CASE WHEN {{norm}} = '' THEN 0
                                ELSE len(str_split({{norm}}, ' ')) END AS ntk
                    FROM best),
            tot AS (SELECT source, sum(ntk) AS t FROM tok GROUP BY 1),
            cfg AS (SELECT source, t,
                           CASE source WHEN 'src0' THEN 700.0
                                       WHEN 'src1' THEN 100.0
                                       WHEN 'src2' THEN 0.0
                                       ELSE NULL END AS b
                    FROM tot),
            samp AS (SELECT k.doc_id, k.source
                     FROM tok k JOIN cfg c USING (source)
                     WHERE c.b IS NULL OR c.t = 0 OR c.b / c.t >= 1.0
                        OR substr(md5('budget' ||
                                  CAST(k.doc_id AS VARCHAR)), 1, 8)
                           < printf('%08x', CAST(floor(c.b / c.t *
                                    4294967296.0) AS BIGINT))),
            key AS (SELECT doc_id, source,
                           md5(CAST(doc_id AS VARCHAR)) AS h,
                           CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 4
                                AS BIGINT) AS shard
                    FROM samp)
            SELECT doc_id, source, shard,
                   row_number() OVER (PARTITION BY shard
                                      ORDER BY h, doc_id) - 1 AS pos
            FROM key
        """.replace("{norm}", _NORM),
        # longest-variant winner per normalized form (row_number ties
        # broken on doc_id — same total order as keep_latest)
        # A-ES exact-k weighted sample: u from the TOP 53 bits of the
        # md5 (exact int->double both sides), key = ln(u)/w nano-floored
        "weighted_sample_k": """
            WITH w AS (SELECT doc_id, n_chars FROM documents
                       WHERE n_chars > 0),
            k AS (SELECT doc_id,
                         CAST(floor(ln(((md5_number_lower('aes' ||
                                  CAST(doc_id AS VARCHAR)) >> 11) + 1)
                                  / 9007199254740992.0)
                              / n_chars * 1e9 + 0.5) AS BIGINT) AS key_nano
                  FROM w)
            SELECT doc_id, key_nano FROM k
            QUALIFY row_number() OVER (ORDER BY key_nano DESC, doc_id) <= 20
        """,
        "dedup_keep_best": """
            WITH n AS (SELECT doc_id, n_chars,
                              trim(regexp_replace(lower(text),
                                   '[^a-z0-9]+', ' ', 'g')) AS nt
                       FROM documents),
            r AS (SELECT doc_id, n_chars,
                         row_number() OVER (PARTITION BY nt
                                            ORDER BY n_chars DESC, doc_id) AS rn
                  FROM n)
            SELECT doc_id, n_chars FROM r WHERE rn = 1
        """,
        # the regex literal below IS blocklist_pattern(_BLOCKLIST_TERMS)
        # (word-boundary alternation; RE2 in pyarrow AND DuckDB)
        "filter_blocklist": r"""
            SELECT doc_id, source, lang FROM documents
            WHERE NOT regexp_matches(lower(text),
                                     '(?:\bspark\b|\bslow query\b|\bdup\b)')
        """,
        # deterministic md5 shard shuffle: md5_number_lower == the
        # little-endian lower half of Python's md5 digest (verified by
        # the pack_sequences oracle); pos ranks the full hex
        "shuffle_shards": """
            WITH k AS (SELECT doc_id,
                              md5(CAST(doc_id AS VARCHAR)) AS h,
                              CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 8
                                   AS BIGINT) AS shard
                       FROM documents)
            SELECT doc_id, shard,
                   row_number() OVER (PARTITION BY shard
                                      ORDER BY h, doc_id) - 1 AS pos
            FROM k
        """,
        "rollup_stats": """
            SELECT CASE WHEN GROUPING(source) = 0 AND GROUPING(lang) = 0
                        THEN 'source_lang'
                        WHEN GROUPING(source) = 0 THEN 'source'
                        ELSE 'total' END AS level,
                   COALESCE(source, '*') AS source,
                   COALESCE(lang, '*') AS lang,
                   count(*) AS n_docs,
                   CAST(COALESCE(sum(n_chars), 0) AS BIGINT) AS n_chars_sum
            FROM documents
            GROUP BY GROUPING SETS ((source, lang), (source), ())
        """,
        # dense grid from the corpus min/max; empty windows LEFT-join to
        # (0, 0) — COALESCE matches the union-of-zeros Ray merge
        "fill_windows": """
            WITH e AS (SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS w,
                              CAST(round(value * 100, 0) AS BIGINT) AS cents
                       FROM events),
            b AS (SELECT min(w) AS lo, max(w) AS hi FROM e),
            g AS (SELECT lo + i * 3600000000 AS window_start_us
                  FROM b, unnest(generate_series(0, (hi - lo) // 3600000000))
                       AS t(i))
            SELECT g.window_start_us,
                   CAST(count(e.w) AS BIGINT) AS n,
                   CAST(COALESCE(sum(e.cents), 0) AS BIGINT) AS value_sum_cents
            FROM g LEFT JOIN e ON e.w = g.window_start_us
            GROUP BY 1
        """,
        # moving window in integer cents (sum(BIGINT) is HUGEINT in
        # DuckDB — cast back); (ts_us, event_id) is the total order
        "rolling_stats": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                              CAST(round(value * 100, 0) AS BIGINT) AS cents
                       FROM events)
            SELECT event_id, user_id, ts_us,
                   CAST(sum(cents) OVER w AS BIGINT) AS roll_sum_cents,
                   CAST(count(*) OVER w AS BIGINT) AS roll_n
            FROM e WINDOW w AS (PARTITION BY user_id
                                ORDER BY ts_us, event_id
                                ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        "lag_intervals": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
                       FROM events)
            SELECT event_id, user_id, ts_us,
                   COALESCE(ts_us - lag(ts_us) OVER (
                       PARTITION BY user_id ORDER BY ts_us, event_id),
                       -1) AS prev_gap_us
            FROM e
        """,
        # sequential funnel: each stage's first ts STRICTLY AFTER the
        # previous stage's first ts; -1 = unreached, and an unreached
        # stage blocks all later ones (inner JOIN on the prior CTE)
        "funnel_stages": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, event_type
                       FROM events),
            u AS (SELECT DISTINCT user_id FROM e),
            f1 AS (SELECT user_id, min(ts_us) AS t FROM e
                   WHERE event_type = 'view' GROUP BY 1),
            f2 AS (SELECT e.user_id, min(e.ts_us) AS t FROM e
                   JOIN f1 ON e.user_id = f1.user_id
                   WHERE e.event_type = 'click' AND e.ts_us > f1.t GROUP BY 1),
            f3 AS (SELECT e.user_id, min(e.ts_us) AS t FROM e
                   JOIN f2 ON e.user_id = f2.user_id
                   WHERE e.event_type = 'purchase' AND e.ts_us > f2.t GROUP BY 1)
            SELECT u.user_id,
                   COALESCE(f1.t, -1) AS s1_us,
                   COALESCE(f2.t, -1) AS s2_us,
                   COALESCE(f3.t, -1) AS s3_us,
                   CAST(CASE WHEN f1.t IS NOT NULL THEN 1 ELSE 0 END
                      + CASE WHEN f2.t IS NOT NULL THEN 1 ELSE 0 END
                      + CASE WHEN f3.t IS NOT NULL THEN 1 ELSE 0 END
                      AS BIGINT) AS depth
            FROM u LEFT JOIN f1 USING (user_id)
                   LEFT JOIN f2 USING (user_id)
                   LEFT JOIN f3 USING (user_id)
        """,
        # per-EVENT session labels: same lag/cumsum discipline as the
        # sessionize summary oracle, ordered (ts_us, event_id) so ties
        # cannot flap; session_id counts from 0 per user
        "sessionize_assign": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
                       FROM events),
            x AS (SELECT event_id, user_id, ts_us,
                    CASE WHEN lag(ts_us) OVER w IS NULL
                           OR ts_us - lag(ts_us) OVER w > 1800000000
                         THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY user_id
                                      ORDER BY ts_us, event_id))
            SELECT event_id, user_id, ts_us,
                   CAST(sum(brk) OVER (PARTITION BY user_id
                        ORDER BY ts_us, event_id
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
            FROM x
        """,
        # cohort = each user's first active day; count users per
        # (cohort, active-day) over DISTINCT (user, day) pairs
        "cohort_retention": """
            WITH p AS (SELECT DISTINCT user_id,
                         (epoch_us(ts) // 86400000000) * 86400000000 AS window_us
                       FROM events),
            f AS (SELECT user_id, min(window_us) AS cohort_us FROM p GROUP BY 1)
            SELECT f.cohort_us, p.window_us,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM p JOIN f USING (user_id)
            GROUP BY 1, 2
        """,
        # per-user entropy scaled by n: H*n = n*ln(n) - sum c*ln(c),
        # every ln through the floor(ln*1e6+0.5) chain
        "user_type_entropy": """
            WITH ut AS (SELECT user_id, event_type,
                               CAST(count(*) AS BIGINT) AS c
                        FROM events GROUP BY 1, 2),
            t AS (SELECT user_id, c,
                         CASE WHEN c > 1
                              THEN c * CAST(floor(ln(CAST(c AS DOUBLE))
                                       * 1000000 + 0.5) AS BIGINT)
                              ELSE 0 END AS clnc
                  FROM ut)
            SELECT user_id,
                   CAST(sum(c) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_types,
                   CAST(CASE WHEN sum(c) > 1
                             THEN sum(c) * CAST(floor(
                                      ln(CAST(sum(c) AS DOUBLE))
                                      * 1000000 + 0.5) AS BIGINT)
                                  - sum(clnc)
                             ELSE 0 END AS BIGINT) AS h_micro_n
            FROM t GROUP BY 1
        """,
        # A/B readout: md5_number_lower variant hash (the repo's
        # Python-parity bridge), first-view funnel bound strict >
        "ab_metrics": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            lab AS (SELECT user_id,
                           CAST(md5_number_lower('ab' ||
                                CAST(user_id AS VARCHAR)) % 2 AS BIGINT)
                               AS variant
                    FROM u),
            fv AS (SELECT user_id, min(epoch_us(ts)) AS v_us
                   FROM events WHERE event_type = 'view' GROUP BY 1),
            cv AS (SELECT DISTINCT e.user_id, 1 AS conv
                   FROM events e JOIN fv USING (user_id)
                   WHERE e.event_type = 'purchase'
                     AND epoch_us(e.ts) > fv.v_us)
            SELECT lab.variant,
                   CAST(count(*) AS BIGINT) AS n_users,
                   CAST(count(fv.v_us) AS BIGINT) AS n_exposed,
                   CAST(count(cv.conv) AS BIGINT) AS n_converted,
                   CAST(CASE WHEN count(fv.v_us) = 0 THEN 0
                             ELSE (count(cv.conv) * 1000000)
                                  // count(fv.v_us)
                        END AS BIGINT) AS cvr_micro
            FROM lab
            LEFT JOIN fv USING (user_id)
            LEFT JOIN cv USING (user_id)
            GROUP BY 1
        """,
        # Markov transitions: LAG over the same (ts, event_id) per-user
        # order as the Ray bucketed sort; the first event of each user
        # has no predecessor and is excluded on both sides
        "transition_counts": """
            WITH lagd AS (
                SELECT user_id, event_type,
                       lag(event_type) OVER (PARTITION BY user_id
                           ORDER BY epoch_us(ts), event_id) AS prev_type
                FROM events)
            SELECT prev_type, event_type AS next_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM lagd WHERE prev_type IS NOT NULL
            GROUP BY 1, 2
        """,
        # top-3 per hourly window in the deterministic (n DESC,
        # event_type ASC) total order — same tie-break as the Ray side
        "window_topk": """
            WITH c AS (SELECT (epoch_us(ts) // 3600000000) * 3600000000
                              AS window_start_us,
                              event_type, count(*) AS n
                       FROM events GROUP BY 1, 2),
            r AS (SELECT *, row_number() OVER (PARTITION BY window_start_us
                      ORDER BY n DESC, event_type ASC) AS rank
                  FROM c)
            SELECT window_start_us, event_type, CAST(n AS BIGINT) AS n,
                   CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 3
        """,
        # JSON props extraction: json_extract + TRY_CAST NULL semantics
        # mirror the python parse-or-skip; integers end-to-end
        "props_stats": """
            WITH x AS (SELECT event_type,
                              CASE WHEN props IS NOT NULL
                                    AND json_valid(props)
                                    AND json_type(props, '$.k')
                                        IN ('UBIGINT', 'BIGINT')
                                   THEN CAST(json_extract(props, '$.k')
                                             AS BIGINT) END AS k
                       FROM events)
            SELECT event_type,
                   CAST(count(k) AS BIGINT) AS n,
                   CAST(sum(k) AS BIGINT) AS k_sum,
                   CAST(min(k) AS BIGINT) AS k_min,
                   CAST(max(k) AS BIGINT) AS k_max
            FROM x WHERE k IS NOT NULL GROUP BY 1
        """,
        # tumbling per-type counts -> per-type median/MAD burst flags;
        # integers end-to-end (same discipline as outlier_mad)
        "window_outliers": """
            WITH tw AS (SELECT event_type,
                               (epoch_us(ts) // 3600000000) * 3600000000
                                 AS window_start_us,
                               count(*) AS n
                        FROM events GROUP BY 1, 2),
            med AS (SELECT event_type, quantile_disc(n, 0.5) AS med
                    FROM tw GROUP BY 1),
            mad AS (SELECT tw.event_type,
                           quantile_disc(abs(tw.n - med.med), 0.5) AS mad
                    FROM tw JOIN med USING (event_type) GROUP BY 1)
            SELECT tw.window_start_us, tw.event_type,
                   CAST(tw.n AS BIGINT) AS n,
                   CAST(med.med AS BIGINT) AS med,
                   CAST(mad.mad AS BIGINT) AS mad,
                   abs(tw.n - med.med) > 3 * mad.mad AS is_outlier
            FROM tw JOIN med USING (event_type)
                 JOIN mad ON mad.event_type = tw.event_type
        """,
        "tumbling_window": """
            SELECT event_type,
                   (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
                   count(*) AS n,
                   CAST(round(sum(value) * 100, 0) AS BIGINT) AS value_sum_cents,
                   min(value) AS value_min,
                   max(value) AS value_max
            FROM events GROUP BY 1, 2
        """,
        "sessionize": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, value FROM events),
            x AS (SELECT user_id, ts_us, value,
                    CASE WHEN lag(ts_us) OVER w IS NULL
                           OR ts_us - lag(ts_us) OVER w > 1800000000
                         THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)),
            y AS (SELECT user_id, ts_us, value,
                    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts_us
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
                  FROM x)
            SELECT user_id, session_id,
                   min(ts_us) AS session_start_us,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 100, 0) AS BIGINT) AS value_sum_cents
            FROM y GROUP BY 1, 2
        """,
        # identical golden, computed by the incremental actor path
        "sessionize_stream": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, value FROM events),
            x AS (SELECT user_id, ts_us, value,
                    CASE WHEN lag(ts_us) OVER w IS NULL
                           OR ts_us - lag(ts_us) OVER w > 1800000000
                         THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)),
            y AS (SELECT user_id, ts_us, value,
                    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts_us
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
                  FROM x)
            SELECT user_id, session_id,
                   min(ts_us) AS session_start_us,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 100, 0) AS BIGINT) AS value_sum_cents
            FROM y GROUP BY 1, 2
        """,
        # identical golden, computed by the skew-safe salted path
        "sessionize_salted": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, value FROM events),
            x AS (SELECT user_id, ts_us, value,
                    CASE WHEN lag(ts_us) OVER w IS NULL
                           OR ts_us - lag(ts_us) OVER w > 1800000000
                         THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)),
            y AS (SELECT user_id, ts_us, value,
                    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts_us
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
                  FROM x)
            SELECT user_id, session_id,
                   min(ts_us) AS session_start_us,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 100, 0) AS BIGINT) AS value_sum_cents
            FROM y GROUP BY 1, 2
        """,
        "token_counts": f"""
            WITH t AS (SELECT str_split({norm}, ' ') AS ws FROM documents
                       WHERE {norm} <> '')
            SELECT w AS token, count(*) AS n FROM t, unnest(ws) AS u(w) GROUP BY 1
        """,
        "top_tokens": f"""
            WITH t AS (SELECT str_split({norm}, ' ') AS ws FROM documents
                       WHERE {norm} <> ''),
            c AS (SELECT w AS token, count(*) AS n FROM t, unnest(ws) AS u(w) GROUP BY 1)
            SELECT token, n FROM c ORDER BY n DESC, token ASC LIMIT 20
        """,
        # iterative BPE merges: 8 rounds unrolled; replace() is the
        # same leftmost non-overlapping scan as Python str.replace
        "bpe_train": _bpe_train_sql(8),
        # train-then-apply: the chain's final w8 state IS the per-word
        # segmentation; flatten per (doc, word position, piece)
        "bpe_encode": _bpe_train_sql(
            8,
            tail=f""",
        pos AS (SELECT doc_id, ws, unnest(generate_series(1, len(ws))) AS i
                FROM (SELECT doc_id, str_split({_NORM}, ' ') AS ws
                      FROM documents WHERE {_NORM} <> '')),
        wd AS (SELECT doc_id, CAST(i - 1 AS BIGINT) AS word_pos,
                      ws[i] AS token FROM pos),
        pieces AS (SELECT token, str_split(trim(s), ' ') AS ps FROM w8),
        fl AS (SELECT wd.doc_id, wd.word_pos, ps,
                      unnest(generate_series(1, len(ps))) AS j
               FROM wd JOIN pieces USING (token))
        SELECT doc_id, word_pos, CAST(j - 1 AS BIGINT) AS piece_pos,
               ps[j] AS piece
        FROM fl""",
        ),
        # per-source unigram KL vs the corpus: one micro-nat conversion
        # per (source, token) — the same floor(ln·1e6+0.5) IEEE chain
        # as the bigram-LM family — then exact int64 sums
        "source_divergence": f"""
            WITH t AS (SELECT source, str_split({norm}, ' ') AS ws
                       FROM documents WHERE {norm} <> ''),
            u AS (SELECT source, w AS token FROM t, unnest(ws) AS x(w)),
            st AS (SELECT source, token, CAST(count(*) AS BIGINT) AS n_s
                   FROM u GROUP BY 1, 2),
            g AS (SELECT token, CAST(sum(n_s) AS BIGINT) AS n_g
                  FROM st GROUP BY 1),
            tot AS (SELECT source, CAST(sum(n_s) AS BIGINT) AS n_src
                    FROM st GROUP BY 1),
            nn AS (SELECT CAST(sum(n_s) AS BIGINT) AS grand FROM st)
            SELECT st.source,
                   CAST(sum(st.n_s) AS BIGINT) AS n_tokens,
                   CAST(sum(st.n_s *
                            CAST(floor(ln((CAST(st.n_s AS DOUBLE) * grand)
                                          / (CAST(tot.n_src AS DOUBLE) * n_g))
                                       * 1000000 + 0.5) AS BIGINT))
                        AS BIGINT) AS kl_micro_sum
            FROM st JOIN g USING (token) JOIN tot USING (source), nn
            GROUP BY 1
        """,
        # vocabulary id assignment: the (n DESC, md5(token), token)
        # total order is chosen precisely because row_number() over it
        # replicates the distributed bucket-offset rank bit-exactly
        "vocab_ranked": f"""
            WITH t AS (SELECT str_split({norm}, ' ') AS ws FROM documents
                       WHERE {norm} <> ''),
            c AS (SELECT w AS token, count(*) AS n
                  FROM t, unnest(ws) AS u(w) GROUP BY 1)
            SELECT token,
                   CAST(row_number() OVER (ORDER BY n DESC, md5(token), token)
                        - 1 AS BIGINT) AS token_id,
                   CAST(n AS BIGINT) AS n
            FROM c
        """,
        # tokenizer train-then-encode over the same corpus: top-32 ids,
        # OOV -> -1; one (doc_id, pos, token_id) row per token
        "vocab_encode": f"""
            WITH t AS (SELECT doc_id, str_split({norm}, ' ') AS ws
                       FROM documents WHERE {norm} <> ''),
            c AS (SELECT w AS token, count(*) AS n
                  FROM t, unnest(ws) AS u(w) GROUP BY 1),
            v0 AS (SELECT token, row_number() OVER (ORDER BY n DESC,
                       md5(token), token) AS rn FROM c),
            v AS (SELECT token, CAST(rn - 1 AS BIGINT) AS token_id
                  FROM v0 WHERE rn <= 32),
            pos AS (SELECT doc_id, ws,
                           unnest(generate_series(1, len(ws))) AS i FROM t),
            p AS (SELECT doc_id, ws[i] AS token,
                         CAST(i - 1 AS BIGINT) AS pos FROM pos)
            SELECT p.doc_id, p.pos,
                   CAST(COALESCE(v.token_id, -1) AS BIGINT) AS token_id
            FROM p LEFT JOIN v USING (token)
        """,
        # windowed co-occurrence: every (i, j) with 0 < j-i <= 3 inside a
        # doc, unordered via least/greatest (UTF-8 byte order == Python
        # str order); (n_pairs DESC, w1, w2) is a total order so LIMIT
        # is deterministic on both sides
        "cooccurrence_topk": f"""
            WITH t AS (SELECT str_split({norm}, ' ') AS ws FROM documents
                       WHERE {norm} <> ''),
            pos AS (SELECT ws, unnest(generate_series(1, len(ws))) AS i FROM t),
            pr AS (SELECT ws, i,
                          unnest(generate_series(i + 1,
                                 least(i + 3, len(ws)))) AS j
                   FROM pos),
            p AS (SELECT least(ws[i], ws[j]) AS w1,
                         greatest(ws[i], ws[j]) AS w2
                  FROM pr)
            SELECT w1, w2, count(*) AS n_pairs FROM p
            GROUP BY 1, 2 ORDER BY n_pairs DESC, w1, w2 LIMIT 30
        """,
        "char_entropy": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            c AS (SELECT doc_id, ch, count(*) AS cnt, len(any_value(nm)) AS n
                  FROM d, unnest(str_split(nm, '')) AS u(ch)
                  WHERE nm <> '' GROUP BY doc_id, ch)
            SELECT doc_id,
                   round(-sum((cnt * 1.0 / n) * log2(cnt * 1.0 / n)), 6)
                     AS char_entropy
            FROM c GROUP BY doc_id
            UNION ALL
            SELECT doc_id, 0.0 FROM d WHERE nm = ''
        """,
        # code-vs-prose router: RAW text (line structure), all-integer
        # cross-multiplied thresholds — >=0.5% code punctuation or
        # >=30% indented lines, with >=3 lines
        "code_detect": """
            WITH base AS (
                SELECT doc_id,
                       length(text) AS n_chars,
                       (length(text) - length(replace(text, ';', '')))
                       + (length(text) - length(replace(text, '{', '')))
                       + (length(text) - length(replace(text, '}', ''))) AS n_punct,
                       len(string_split(text, chr(10))) AS n_lines
                FROM documents),
            ind AS (
                SELECT doc_id,
                       count(*) FILTER (WHERE ln LIKE '  %'
                                        OR ln LIKE chr(9) || '%') AS n_indent
                FROM (SELECT doc_id, unnest(string_split(text, chr(10))) AS ln
                      FROM documents)
                GROUP BY doc_id)
            SELECT base.doc_id, n_chars, n_lines, n_indent, n_punct,
                   CASE WHEN n_lines >= 3 AND (n_punct * 200 >= n_chars
                        OR n_indent * 10 >= n_lines * 3)
                        THEN 1 ELSE 0 END AS is_code
            FROM base JOIN ind USING (doc_id)
        """,
        "sliding_window": """
            WITH off AS (SELECT unnest(generate_series(0, 3)) AS i),
            e AS (SELECT event_type, epoch_us(ts) AS ts_us, value FROM events)
            SELECT event_type,
                   (ts_us // 900000000) * 900000000 - i * 900000000
                     AS window_start_us,
                   count(*) AS n,
                   CAST(round(sum(value) * 100, 0) AS BIGINT) AS value_sum_cents,
                   min(value) AS value_min,
                   max(value) AS value_max
            FROM e CROSS JOIN off GROUP BY 1, 2
        """,
        # thresholds: 0.1*2^32 = 0x1999999a ; 0.15*2^32 = 0x26666666
        "sample_split": """
            WITH s AS (SELECT CASE
                 WHEN substr(md5('split' || CAST(doc_id AS VARCHAR)), 1, 8)
                      < '1999999a' THEN 'test'
                 WHEN substr(md5('split' || CAST(doc_id AS VARCHAR)), 1, 8)
                      < '26666666' THEN 'val'
                 ELSE 'train' END AS split
               FROM documents)
            SELECT split, count(*) AS n FROM s GROUP BY split
        """,
        # thresholds are hex(int(rate * 2^32)) — the exact strings
        # sampling._hex_threshold emits (0.25 → 40000000, 0.6 → 99999999);
        # rate 0 compares against '00000000' (never true), rate >= 1
        # would keep unconditionally (not exercised here)
        "stratified_sample": """
            WITH t AS (SELECT doc_id, source,
                   substr(md5('strat' || CAST(doc_id AS VARCHAR)), 1, 8) AS h
               FROM documents)
            SELECT doc_id, source FROM t
            WHERE CASE source WHEN 'src0' THEN h < '40000000'
                              WHEN 'src1' THEN h < '00000000'
                              ELSE h < '99999999' END
        """,
        "sample_fixed_k": """
            SELECT doc_id,
                   substr(md5('fixk' || CAST(doc_id AS VARCHAR)), 1, 16) AS sample_h
            FROM documents ORDER BY sample_h, doc_id LIMIT 100
        """,
        "topk_per_group": """
            WITH r AS (SELECT source, doc_id, n_chars,
                   row_number() OVER (PARTITION BY source
                                      ORDER BY n_chars DESC, doc_id ASC) AS rk
               FROM documents)
            SELECT source, doc_id, n_chars FROM r WHERE rk <= 5
        """,
        # RANK (ties kept) sibling of the row_number top-k above
        "topk_with_ties": """
            WITH r AS (SELECT source, doc_id, n_chars,
                   rank() OVER (PARTITION BY source
                                ORDER BY n_chars DESC) AS rk
               FROM documents)
            SELECT source, doc_id, n_chars FROM r WHERE rk <= 5
        """,
        # score = tf * ln(N/df): division and ln are single IEEE ops on
        # both sides (math.log == DuckDB ln on the same libm); tfidf is
        # the raw double rounded ONCE to 6 (float-oracle discipline)
        "tfidf_top_terms": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            tok AS (SELECT doc_id, w AS token
                    FROM d, unnest(str_split(nm, ' ')) AS u(w) WHERE nm <> ''),
            tf AS (SELECT doc_id, token, count(*) AS tf FROM tok GROUP BY 1, 2),
            df AS (SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
            n AS (SELECT count(DISTINCT doc_id) AS n FROM tok),
            s AS (SELECT tf.doc_id, tf.token, tf.tf,
                         tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS score
                  FROM tf JOIN df USING (token) CROSS JOIN n),
            r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                       ORDER BY score DESC, token ASC) AS term_rank FROM s)
            SELECT doc_id, term_rank, token, tf, round(score, 6) AS tfidf
            FROM r WHERE term_rank <= 5
        """,
        # gram identity = md5 of the space-joined tokens on BOTH sides;
        # slice ws[i : i+n-1] is DuckDB 1-based INCLUSIVE; positions
        # covered by overlapping hot grams dedup via DISTINCT
        "dup_ngram_stats": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ta AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            gi AS (SELECT doc_id, ws,
                          unnest(generate_series(1, len(ws) - 2)) AS i FROM ta),
            grams AS (SELECT doc_id, i,
                             md5(array_to_string(ws[i : i + 2], ' ')) AS gh FROM gi),
            hot AS (SELECT gh FROM grams GROUP BY gh
                    HAVING count(DISTINCT doc_id) >= 2),
            hotg AS (SELECT g.doc_id, g.i FROM grams g JOIN hot USING (gh)),
            cov AS (SELECT DISTINCT doc_id, p FROM
                    (SELECT doc_id, unnest(generate_series(i, i + 2)) AS p FROM hotg)),
            per AS (SELECT t.doc_id, len(t.ws) AS n_tokens,
                   (SELECT count(*) FROM hotg h WHERE h.doc_id = t.doc_id) AS n_hot_grams,
                   (SELECT count(*) FROM cov c WHERE c.doc_id = t.doc_id) AS n_dup_tokens
                    FROM ta t)
            SELECT d.doc_id,
                   coalesce(per.n_tokens, 0) AS n_tokens,
                   coalesce(per.n_hot_grams, 0) AS n_hot_grams,
                   coalesce(per.n_dup_tokens, 0) AS n_dup_tokens,
                   CASE WHEN coalesce(per.n_tokens, 0) = 0 THEN 0.0
                        ELSE round(per.n_dup_tokens * 1.0 / per.n_tokens, 6)
                   END AS dup_frac
            FROM d LEFT JOIN per USING (doc_id)
        """,
"dup_ngram_stats_join": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ta AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            gi AS (SELECT doc_id, ws,
                          unnest(generate_series(1, len(ws) - 2)) AS i FROM ta),
            grams AS (SELECT doc_id, i,
                             md5(array_to_string(ws[i : i + 2], ' ')) AS gh FROM gi),
            hot AS (SELECT gh FROM grams GROUP BY gh
                    HAVING count(DISTINCT doc_id) >= 2),
            hotg AS (SELECT g.doc_id, g.i FROM grams g JOIN hot USING (gh)),
            cov AS (SELECT DISTINCT doc_id, p FROM
                    (SELECT doc_id, unnest(generate_series(i, i + 2)) AS p FROM hotg)),
            per AS (SELECT t.doc_id, len(t.ws) AS n_tokens,
                   (SELECT count(*) FROM hotg h WHERE h.doc_id = t.doc_id) AS n_hot_grams,
                   (SELECT count(*) FROM cov c WHERE c.doc_id = t.doc_id) AS n_dup_tokens
                    FROM ta t)
            SELECT d.doc_id,
                   coalesce(per.n_tokens, 0) AS n_tokens,
                   coalesce(per.n_hot_grams, 0) AS n_hot_grams,
                   coalesce(per.n_dup_tokens, 0) AS n_dup_tokens,
                   CASE WHEN coalesce(per.n_tokens, 0) = 0 THEN 0.0
                        ELSE round(per.n_dup_tokens * 1.0 / per.n_tokens, 6)
                   END AS dup_frac
            FROM d LEFT JOIN per USING (doc_id)
        """,
        "dedup_ngram_spans": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ta AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            gi AS (SELECT doc_id, ws,
                          unnest(generate_series(1, len(ws) - 2)) AS i FROM ta),
            grams AS (SELECT doc_id, i,
                             md5(array_to_string(ws[i : i + 2], ' ')) AS gh FROM gi),
            hot AS (SELECT gh FROM grams GROUP BY gh
                    HAVING count(DISTINCT doc_id) >= 2),
            cov AS (SELECT DISTINCT doc_id, p FROM
                    (SELECT g.doc_id, unnest(generate_series(g.i, g.i + 2)) AS p
                     FROM grams g JOIN hot USING (gh))),
            tok AS (SELECT doc_id, ws, unnest(generate_series(1, len(ws))) AS p FROM ta),
            kept AS (SELECT t.doc_id, t.p, t.ws[t.p] AS w FROM tok t
                     WHERE NOT EXISTS (SELECT 1 FROM cov c
                                       WHERE c.doc_id = t.doc_id AND c.p = t.p)),
            joined AS (SELECT doc_id, string_agg(w, ' ' ORDER BY p) AS text
                       FROM kept GROUP BY doc_id)
            SELECT d.doc_id, coalesce(j.text, '') AS text
            FROM d LEFT JOIN joined j USING (doc_id)
        """,
"dedup_ngram_spans_join": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ta AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            gi AS (SELECT doc_id, ws,
                          unnest(generate_series(1, len(ws) - 2)) AS i FROM ta),
            grams AS (SELECT doc_id, i,
                             md5(array_to_string(ws[i : i + 2], ' ')) AS gh FROM gi),
            hot AS (SELECT gh FROM grams GROUP BY gh
                    HAVING count(DISTINCT doc_id) >= 2),
            cov AS (SELECT DISTINCT doc_id, p FROM
                    (SELECT g.doc_id, unnest(generate_series(g.i, g.i + 2)) AS p
                     FROM grams g JOIN hot USING (gh))),
            tok AS (SELECT doc_id, ws, unnest(generate_series(1, len(ws))) AS p FROM ta),
            kept AS (SELECT t.doc_id, t.p, t.ws[t.p] AS w FROM tok t
                     WHERE NOT EXISTS (SELECT 1 FROM cov c
                                       WHERE c.doc_id = t.doc_id AND c.p = t.p)),
            joined AS (SELECT doc_id, string_agg(w, ' ' ORDER BY p) AS text
                       FROM kept GROUP BY doc_id)
            SELECT d.doc_id, coalesce(j.text, '') AS text
            FROM d LEFT JOIN joined j USING (doc_id)
        """,
        "decontaminate": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ta AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            gi AS (SELECT doc_id, ws,
                          unnest(generate_series(1, len(ws) - 4)) AS i FROM ta),
            grams AS (SELECT doc_id, i,
                             md5(array_to_string(ws[i : i + 4], ' ')) AS gh FROM gi),
            ev AS (SELECT DISTINCT gh FROM grams WHERE doc_id % 41 = 0),
            hits AS (SELECT g.doc_id, count(DISTINCT g.gh) AS n_eval_grams
                     FROM grams g JOIN ev USING (gh) GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(h.n_eval_grams, 0) AS BIGINT) AS n_eval_grams,
                   CAST(CASE WHEN coalesce(h.n_eval_grams, 0) > 0
                             THEN 1 ELSE 0 END AS BIGINT) AS contaminated
            FROM d LEFT JOIN hits h USING (doc_id)
        """,
        # per-eval-doc dirtiness: n_grams counts POSITIONS, n_dirty the
        # positions whose gram occurs in the TRAINING side (distinct
        # join keys — each position counted once); exact int64 micro
        "contamination_report": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ta AS (SELECT doc_id, str_split(nm, ' ') AS ws FROM d WHERE nm <> ''),
            gi AS (SELECT doc_id, ws,
                          unnest(generate_series(1, len(ws) - 4)) AS i FROM ta),
            grams AS (SELECT doc_id, i,
                             md5(array_to_string(ws[i : i + 4], ' ')) AS gh FROM gi),
            ev AS (SELECT doc_id, gh FROM grams WHERE doc_id % 41 = 0),
            tr AS (SELECT DISTINCT gh FROM grams WHERE doc_id % 41 <> 0),
            tot AS (SELECT doc_id, count(*) AS n_grams FROM ev GROUP BY 1),
            hit AS (SELECT e.doc_id, count(*) AS n_dirty
                    FROM ev e JOIN tr USING (gh) GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(tot.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(coalesce(hit.n_dirty, 0) AS BIGINT) AS n_dirty,
                   CAST(CASE WHEN coalesce(tot.n_grams, 0) = 0 THEN 0
                             ELSE (coalesce(hit.n_dirty, 0) * 1000000)
                                  // tot.n_grams END AS BIGINT) AS dirty_micro
            FROM d LEFT JOIN tot USING (doc_id) LEFT JOIN hit USING (doc_id)
            WHERE d.doc_id % 41 = 0
        """,
        "corpus_clean": f"""
            WITH gold AS (
              SELECT 'https://corpus.test/' || source || '/' || doc_id AS url,
                     'Document ' || doc_id ||
                       CASE WHEN (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                              AND {norm} <> ''
                            THEN chr(10) || {norm}
                            WHEN NOT (doc_id % 17 = 3 OR doc_id % 19 = 4 OR doc_id % 29 = 8 OR doc_id % 23 = 6)
                              AND {norm} <> ''
                              AND len(str_split({norm}, ' ')) >= 3
                            THEN chr(10) || {norm} ELSE '' END ||
                       CASE WHEN doc_id % 17 <> 3 AND doc_id % 19 = 4
                            THEN chr(10) || 'DRAFT ' || doc_id
                            WHEN doc_id % 17 <> 3 AND doc_id % 19 <> 4
                              AND doc_id % 29 <> 8 AND doc_id % 23 = 6
                            THEN chr(10) || 'SHEAR ' || doc_id ELSE '' END AS text
              FROM documents),
            dedup AS (SELECT md5(text) AS fp, min(url) AS url,
                             min(len(text)) AS text_chars
                      FROM gold GROUP BY md5(text))
            SELECT url, text_chars FROM dedup WHERE text_chars >= 40
        """,
        # size=32, overlap=8 → stride 24; chunk count = 1 if n<=32 else
        # 1 + ceil((n-32)/24); slices are 1-based inclusive in DuckDB
        "chunk_documents": f"""
            WITH t AS (SELECT doc_id, str_split({norm}, ' ') AS ws,
                              len(str_split({norm}, ' ')) AS n
                       FROM documents WHERE {norm} <> ''),
            k AS (SELECT doc_id, ws, n,
                         CASE WHEN n <= 32 THEN 1
                              ELSE 1 + CAST(ceil((n - 32) / 24.0) AS BIGINT)
                         END AS nchunks
                  FROM t),
            c AS (SELECT doc_id, ws, n,
                         unnest(generate_series(1, nchunks)) - 1 AS cid
                  FROM k)
            SELECT doc_id,
                   CAST(cid AS INTEGER) AS chunk_id,
                   array_to_string(ws[cid * 24 + 1 : least(cid * 24 + 32, n)], ' ')
                     AS chunk_text,
                   least(cid * 24 + 32, n) - cid * 24 AS n_tokens
            FROM c
        """,
        # documents.text has no newlines, so each doc is one "line":
        # docs sharing their exact text with another doc are blanked
        "line_dedup": """
            WITH c AS (SELECT text, count(*) AS n FROM documents GROUP BY text)
            SELECT d.doc_id,
                   CASE WHEN c.n > 1 THEN '' ELSE d.text END AS text
            FROM documents d JOIN c ON d.text = c.text
        """,
        # identical golden, computed by the hash-join rewrite path
        "line_dedup_join": """
            WITH c AS (SELECT text, count(*) AS n FROM documents GROUP BY text)
            SELECT d.doc_id,
                   CASE WHEN c.n > 1 THEN '' ELSE d.text END AS text
            FROM documents d JOIN c ON d.text = c.text
        """,
        # patterns imported from the SAME module the Ray op uses
        # (RE2-compatible; python-re/DuckDB agreement verified in tests)
        "redact_pii": """
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(regexp_replace(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                     '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b', '<IP>', 'g'),
                     '\\b[0-9]{9,}\\b', '<NUM>', 'g'),
                     '\\+?[0-9][0-9()\\- ]{7,}[0-9]', '<PHONE>', 'g') AS text_redacted
            FROM documents
        """,
        "bpe_token_count": """
            SELECT doc_id,
                   len(regexp_extract_all(text,
                     '''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+| +'))
                     AS n_bpe_tokens
            FROM documents
        """,
        "heavy_hitters": """
            WITH t AS (SELECT user_id,
                              CAST(round(sum(value) * 100, 0) AS BIGINT)
                                AS value_sum_cents,
                              count(*) AS n
                       FROM events GROUP BY user_id)
            SELECT user_id, value_sum_cents, n FROM t
            ORDER BY value_sum_cents DESC, user_id ASC LIMIT 10
        """,
        # the synthetic payload bytes are SQL-reconstructible (the page
        # templates are part of the frozen spec), so the media stage gets
        # a full hash oracle on (url, n_bytes, byte_entropy); crc32 has
        # no DuckDB builtin and is pytest-pinned instead
        "media_features": _media_features_sql(norm),
        # frame sampling over the same reconstructed payloads: frame i
        # = 256-byte window, sampled every 4th, first 8 samples
        "frame_sample": f"""
            {_payload_cte_sql(norm)},
            fr AS (SELECT url, payload,
                          CAST((strlen(payload) + 255) // 256 AS BIGINT)
                            AS n_frames
                   FROM p WHERE strlen(payload) > 0),
            idx AS (SELECT url, payload, n_frames,
                           unnest(generate_series(0, CAST(n_frames - 1 AS BIGINT), 4))
                             AS frame_idx
                    FROM fr)
            SELECT url, frame_idx, n_frames,
                   md5(substr(payload, CAST(frame_idx * 256 + 1 AS INT), 256))
                     AS frame_md5
            FROM idx WHERE frame_idx // 4 < 8
        """,
        # logistic over the ROUNDED quality signals (featurize reads
        # QualityScore's round-6 outputs) + log1p(raw length) + bias,
        # weights frozen in scoring._DEFAULT_WEIGHTS
        "model_score": f"""
            WITH t AS (SELECT doc_id, text,
                              str_split(lower({norm}), ' ') AS ws FROM documents),
            u AS (SELECT doc_id, w, count(*) AS c FROM t, unnest(ws) AS q(w) GROUP BY 1, 2),
            m AS (SELECT doc_id, max(c) AS mc FROM u GROUP BY 1),
            feats AS (SELECT t.doc_id,
                   round(len(list_filter(ws, w -> list_contains(
                       {_en_stop_sql()}, w)))
                     * 1.0 / len(ws), 6) AS stop_ratio,
                   round(list_sum(list_transform(ws, w -> len(w))) * 1.0 / len(ws), 6)
                     AS mean_word_len,
                   round(list_sum(list_transform(ws, w ->
                       len(regexp_replace(w, '[^a-zA-Z]', '', 'g')))) * 1.0 /
                     greatest(list_sum(list_transform(ws, w -> len(w))), 1), 6)
                     AS alpha_ratio,
                   CASE WHEN len(ws) = 1 AND ws[1] = '' THEN 0.0
                        ELSE round(m.mc * 1.0 / len(ws), 6) END AS top_word_ratio,
                   ln(1.0 + length(t.text)) AS log_len
              FROM t JOIN m ON t.doc_id = m.doc_id)
            SELECT doc_id,
                   round(1.0 / (1.0 + exp(-(2.0 * stop_ratio + 0.15 * mean_word_len
                         + 3.0 * alpha_ratio - 4.0 * top_word_ratio
                         + 0.25 * log_len - 1.5))), 6) AS quality_prob
            FROM feats
        """,
        # Greedy packing oracled end-to-end (round 3): the partition key
        # became md5-lower-64 (DuckDB md5_number_lower reproduces it
        # exactly) and the order-dependent greedy loop is a recursive
        # CTE advancing every partition one chunk per step.
        "pack_sequences": f"""
            WITH RECURSIVE t AS (SELECT doc_id, str_split({norm}, ' ') AS ws,
                              len(str_split({norm}, ' ')) AS n
                       FROM documents WHERE {norm} <> ''),
            kk AS (SELECT doc_id, ws, n,
                         CASE WHEN n <= 32 THEN 1
                              ELSE 1 + CAST(ceil((n - 32) / 24.0) AS BIGINT)
                         END AS nchunks
                  FROM t),
            cc AS (SELECT doc_id, n,
                         unnest(generate_series(1, nchunks)) - 1 AS cid
                  FROM kk),
            pchunks AS (SELECT doc_id AS k, cid,
                               least(cid * 24 + 32, n) - cid * 24 AS n_tokens
                        FROM cc),
            {_pack_tail_sql(budget=128, num_partitions=16)}
        """,
        # The full 8-operator composition, oracled end-to-end (round 3);
        # see _training_data_sql for the stage-by-stage chain.
        "training_data": _training_data_sql(),
        # The curated variant: same chain with the opt-in per-source
        # mixture downsampling and eval-set 5-gram decontamination
        # stages folded in (round 3).
        "training_data_curated": _training_data_sql(mixture=True, decontam=True),
        # The HLL sketch itself replicated in SQL (round 3): md5-upper64
        # hash → register index (top 12 bits) + rank (leading zeros of
        # the low 52 bits, via floor(log2) — exact because the low bits
        # fit a double), max per register, standard estimator + linear
        # counting.  The approximation is deterministic, so the oracle
        # reproduces the exact integer estimate.
        "approx_distinct": """
            WITH h AS (SELECT event_type,
                              md5_number_upper(CAST(user_id AS VARCHAR)) AS h
                       FROM events),
            r AS (SELECT event_type,
                         CAST(h >> 52 AS BIGINT) AS idx,
                         CAST(h % 4503599627370496 AS BIGINT) AS low
                  FROM h),
            -- exact integer bit length: floor(log2(x)) in a double can
            -- round UP for x within half an ulp below a power of two
            -- (e.g. 2^52-1), so the estimate is post-corrected with two
            -- exact shift compares — bl is then exact for any x
            rl AS (SELECT event_type, idx, low,
                          CAST(floor(log2(low)) AS BIGINT) AS k0
                   FROM r WHERE low > 0),
            rbl AS (SELECT event_type, idx,
                           CASE WHEN (CAST(1 AS BIGINT) << CAST(k0 AS INTEGER)) > low
                                THEN k0 - 1
                                WHEN (CAST(1 AS BIGINT) << CAST(k0 + 1 AS INTEGER)) <= low
                                THEN k0 + 1
                                ELSE k0 END AS k
                    FROM rl),
            rk AS (SELECT event_type, idx, max(rank) AS rank FROM (
                       SELECT event_type, idx, 52 - k AS rank FROM rbl
                       UNION ALL
                       SELECT event_type, idx, 53 AS rank FROM r WHERE low = 0
                   ) GROUP BY 1, 2),
            s AS (SELECT event_type,
                         sum(pow(2.0, -rank)) AS sum_present,
                         count(*) AS n_present
                  FROM rk GROUP BY 1),
            e AS (SELECT event_type,
                         (0.7213 / (1 + 1.079 / 4096)) * 4096 * 4096
                           / (sum_present + (4096 - n_present)) AS raw,
                         4096 - n_present AS zeros
                  FROM s)
            SELECT event_type,
                   CAST(round(CASE WHEN raw <= 2.5 * 4096 AND zeros > 0
                                   THEN 4096 * ln(4096 * 1.0 / zeros)
                                   ELSE raw END, 0) AS BIGINT)
                     AS approx_distinct_users
            FROM e
        """,
        "simhash_pairs": _simhash_pairs_sql(norm),
        "minhash_components": _minhash_pairs_sql(norm, components=True),
        # cluster-size histogram over the SAME bit-exact CC labels,
        # singletons coalesced to their own id
        "dup_cluster_sizes": f"""
            WITH cc AS ({_minhash_pairs_sql(norm, components=True)}),
            lab AS (SELECT d.doc_id,
                           coalesce(cc.component, d.doc_id) AS comp
                    FROM documents d LEFT JOIN cc USING (doc_id)),
            sz AS (SELECT comp, CAST(count(*) AS BIGINT) AS size
                   FROM lab GROUP BY 1)
            SELECT size, CAST(count(*) AS BIGINT) AS n_clusters
            FROM sz GROUP BY 1
        """,
        # fuzzy keep-best: the same bit-exact CC labels, quality winner
        # (n_chars DESC, doc_id ASC) per component, singletons survive
        "dedup_fuzzy_keep_best": f"""
            WITH cc AS ({_minhash_pairs_sql(norm, components=True)}),
            lab AS (SELECT d.doc_id, d.n_chars,
                           coalesce(cc.component, d.doc_id) AS comp
                    FROM documents d LEFT JOIN cc USING (doc_id))
            SELECT doc_id FROM (
                SELECT doc_id,
                       row_number() OVER (PARTITION BY comp
                           ORDER BY n_chars DESC, doc_id) AS rn
                FROM lab) WHERE rn = 1
        """,
        "dedup_incremental_minhash": _minhash_pairs_sql(
            norm, threshold=0.5, incremental=True
        ),
        # incremental crawl-over-crawl dedup: survivors are docs whose
        # normalized-content md5 is absent from the prior-crawl (even
        # doc_id) fingerprint snapshot
        # snapshot diff: fingerprint compare over a full-outer join;
        # the ' v2' edit is applied pre-normalization on both sides
        "crawl_diff": f"""
            WITH n0 AS (SELECT doc_id,
                               CASE WHEN doc_id % 5 = 0
                                    THEN {_NORM_T.format(x="text || ' v2'")}
                                    ELSE {norm} END AS nm
                        FROM documents WHERE doc_id % 3 <> 0),
            p0 AS (SELECT doc_id, {norm} AS nm
                   FROM documents WHERE doc_id % 2 = 0),
            j AS (SELECT doc_id, n0.nm AS nn, p0.nm AS pn,
                         n0.doc_id IS NOT NULL AS in_new,
                         p0.doc_id IS NOT NULL AS in_old
                  FROM n0 FULL OUTER JOIN p0 USING (doc_id))
            SELECT doc_id,
                   CASE WHEN NOT in_new THEN 'removed'
                        WHEN NOT in_old THEN 'added'
                        WHEN nn = pn THEN 'unchanged'
                        ELSE 'changed' END AS status
            FROM j
        """,
        "dedup_incremental": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            ref AS (SELECT md5(nm) AS f FROM d WHERE doc_id % 2 = 0)
            SELECT doc_id FROM d
            WHERE md5(nm) NOT IN (SELECT f FROM ref)
        """,
        # Bloom crawl-over-crawl dedup: the k=4 double-hash probes
        # (md5_number_lower/upper halves, m = 2^20) are replicated
        # bit-exactly, so the oracle reproduces the engine's false
        # positives too — survivors are docs with at least one probe
        # position absent from the prior-crawl (even doc_id) bit set
        "dedup_bloom": f"""
            WITH d AS (SELECT doc_id, {norm} AS nm FROM documents),
            pos AS (
                SELECT doc_id,
                       (CAST(md5_number_lower(nm) % 1048576 AS BIGINT)
                        + t.i * (CAST(md5_number_upper(nm) % 1048575 AS BIGINT) + 1))
                       % 1048576 AS p
                FROM d CROSS JOIN range(4) t(i)
            ),
            oldpos AS (SELECT DISTINCT p FROM pos WHERE doc_id % 2 = 0),
            hits AS (
                SELECT pos.doc_id, count(oldpos.p) AS nhit
                FROM pos LEFT JOIN oldpos ON pos.p = oldpos.p
                GROUP BY pos.doc_id
            )
            SELECT doc_id FROM hits WHERE nhit < 4
        """,
        # TPC-H-shaped relational family: all money in exact integer
        # units (cents / u4 / u6 — see functions/relational.py);
        # sum(BIGINT) is HUGEINT in DuckDB, cast back
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_base_cents,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS sum_disc_u4,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT))
                            * (100 + CAST(round(l_tax * 100) AS BIGINT)))
                        AS BIGINT) AS sum_charge_u6,
                   CAST(count(*) AS BIGINT) AS n
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '2000-09-02'
            GROUP BY 1, 2
        """,
        "star_revenue": """
            SELECT n.n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS revenue_u4
            FROM lineitem l
            JOIN orders o   ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n   ON c.c_nationkey = n.n_nationkey
            JOIN region r   ON n.n_regionkey = r.r_regionkey
            WHERE r.r_name = 'ASIA'
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate <  TIMESTAMP '1998-01-01'
            GROUP BY 1
        """,
        "top_customers": """
            WITH rev AS (
                SELECT o.o_custkey AS custkey,
                       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                            AS BIGINT) AS revenue_u4
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                WHERE l.l_returnflag = 'R'
                  AND o.o_orderdate >= TIMESTAMP '1996-07-01'
                  AND o.o_orderdate <  TIMESTAMP '1997-07-01'
                GROUP BY 1)
            SELECT custkey, c.c_name, revenue_u4
            FROM rev JOIN customer c ON rev.custkey = c.c_custkey
            ORDER BY revenue_u4 DESC, custkey
            LIMIT 10
        """,
        "order_priority": """
            WITH ms AS (SELECT l_orderkey AS orderkey,
                               max(epoch_us(l_shipdate)) AS max_ship_us
                        FROM lineitem GROUP BY 1)
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n
            FROM orders o JOIN ms ON o.o_orderkey = ms.orderkey
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate <  TIMESTAMP '1997-01-01'
              AND ms.max_ship_us > epoch_us(o.o_orderdate)
            GROUP BY 1
        """,
        "ship_priority": """
            WITH rev AS (
                SELECT l_orderkey AS orderkey,
                       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                                * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                            AS BIGINT) AS revenue_u4
                FROM lineitem
                WHERE l_shipdate > TIMESTAMP '1997-06-01'
                GROUP BY 1)
            SELECT r.orderkey, epoch_us(o.o_orderdate) AS o_date_us, r.revenue_u4
            FROM rev r
            JOIN orders o   ON r.orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1997-06-01'
            ORDER BY revenue_u4 DESC, o_date_us, orderkey
            LIMIT 10
        """,
        "revenue_delta": """
            SELECT COALESCE(CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                                     * CAST(round(l_discount * 100) AS BIGINT))
                                 AS BIGINT), 0) AS revenue_u4,
                   CAST(count(*) AS BIGINT) AS n
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1997-01-01'
              AND l_shipdate <  TIMESTAMP '1998-01-01'
              AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24
        """,
        "sample_k_per_group": """
            SELECT lang, doc_id,
                   substr(md5('gk' || CAST(doc_id AS VARCHAR)), 1, 16)
                       AS sample_h
            FROM documents
            QUALIFY row_number() OVER (PARTITION BY lang
                                       ORDER BY sample_h, doc_id) <= 5
        """,
        "group_enrich": """
            WITH g AS (SELECT lang, source,
                              CAST(sum(n_chars) AS BIGINT) AS grp_chars,
                              CAST(count(*) AS BIGINT) AS grp_docs
                       FROM documents GROUP BY 1, 2)
            SELECT d.doc_id, d.lang, d.source, d.n_chars,
                   g.grp_chars, g.grp_docs
            FROM documents d JOIN g USING (lang, source)
        """,
        "promo_revenue": """
            SELECT CAST(coalesce(sum(CASE WHEN p.p_type LIKE 'PROMO%'
                                 THEN CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                      * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                                 ELSE 0 END), 0) AS BIGINT) AS promo_u4,
                   CAST(coalesce(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT))),
                                 0) AS BIGINT) AS total_u4,
                   CAST(CASE WHEN coalesce(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT))), 0) = 0
                             THEN 0
                             ELSE (sum(CASE WHEN p.p_type LIKE 'PROMO%'
                                 THEN CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                      * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                                 ELSE 0 END) * 1000000)
                                  // sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        END AS BIGINT) AS promo_micro
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE l.l_shipdate >= TIMESTAMP '1997-01-01'
              AND l.l_shipdate <  TIMESTAMP '1998-01-01'
        """,
        "large_orders": """
            WITH q AS (SELECT l_orderkey AS orderkey,
                              CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                                  AS sum_qty
                       FROM lineitem GROUP BY 1
                       HAVING sum(CAST(l_quantity AS BIGINT)) > 250)
            SELECT q.orderkey,
                   o.o_custkey AS custkey,
                   c.c_name,
                   epoch_us(o.o_orderdate) AS o_date_us,
                   CAST(round(o.o_totalprice * 100) AS BIGINT) AS total_cents,
                   q.sum_qty
            FROM q
            JOIN orders o   ON q.orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "copurchase_lift": """
            WITH lp AS (SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk
                        FROM lineitem),
            n AS (SELECT CAST(count(DISTINCT ok) AS BIGINT) AS n_orders FROM lp),
            pc AS (SELECT pk, CAST(count(*) AS BIGINT) AS n_p FROM lp GROUP BY 1),
            pairs AS (SELECT a.pk AS part_a, b.pk AS part_b,
                             CAST(count(*) AS BIGINT) AS n_pair
                      FROM lp a JOIN lp b ON a.ok = b.ok AND a.pk < b.pk
                      GROUP BY 1, 2 HAVING count(*) >= 2)
            SELECT p.part_a, p.part_b, p.n_pair,
                   ca.n_p AS n_a, cb.n_p AS n_b,
                   CAST((CAST(p.n_pair AS HUGEINT) * n.n_orders * 1000000)
                        // (CAST(ca.n_p AS HUGEINT) * cb.n_p) AS BIGINT)
                       AS lift_micro
            FROM pairs p
            JOIN pc ca ON p.part_a = ca.pk
            JOIN pc cb ON p.part_b = cb.pk, n
        """,
        "customer_features": """
            WITH a AS (SELECT o_custkey AS custkey,
                              CAST(count(*) AS BIGINT) AS n_orders,
                              min(epoch_us(o_orderdate)) AS first_us,
                              max(epoch_us(o_orderdate)) AS last_us,
                              CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                                   AS BIGINT) AS total_cents
                       FROM orders GROUP BY 1)
            SELECT custkey, n_orders, first_us, last_us,
                   CAST(last_us - first_us AS BIGINT) AS span_us,
                   total_cents,
                   CAST(total_cents // n_orders AS BIGINT) AS avg_order_cents,
                   CAST(CASE WHEN n_orders > 1
                             THEN (last_us - first_us) // (n_orders - 1)
                             ELSE -1 END AS BIGINT) AS avg_gap_us
            FROM a
        """,
        "band_revenue": """
            SELECT COALESCE(CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                       AS BIGINT), 0) AS revenue_u4,
                   CAST(count(*) AS BIGINT) AS n
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE (p.p_brand = 'Brand#12'
                   AND CAST(round(l.l_quantity) AS BIGINT) BETWEEN 1 AND 11)
               OR (p.p_brand = 'Brand#23'
                   AND CAST(round(l.l_quantity) AS BIGINT) BETWEEN 10 AND 20)
               OR (p.p_brand = 'Brand#34'
                   AND CAST(round(l.l_quantity) AS BIGINT) BETWEEN 20 AND 30)
        """,
        "market_share": """
            WITH rev AS (
                SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                       CAST(round(l.l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                           AS rev_u4,
                       CASE WHEN sn.n_name = 'NATION_3' THEN 1 ELSE 0 END
                           AS is_target
                FROM lineitem l
                JOIN part p     ON l.l_partkey = p.p_partkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation sn  ON s.s_nationkey = sn.n_nationkey
                JOIN orders o   ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN nation cn  ON c.c_nationkey = cn.n_nationkey
                JOIN region r   ON cn.n_regionkey = r.r_regionkey
                WHERE p.p_type = 'ECONOMY'
                  AND r.r_name = 'ASIA'
                  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o.o_orderdate <  TIMESTAMP '1998-01-01')
            SELECT o_year,
                   CAST(COALESCE(sum(CASE WHEN is_target = 1
                                          THEN rev_u4 END), 0) AS BIGINT)
                       AS target_u4,
                   CAST(sum(rev_u4) AS BIGINT) AS total_u4,
                   CAST(CASE WHEN sum(rev_u4) = 0 THEN 0
                             ELSE (COALESCE(sum(CASE WHEN is_target = 1
                                                     THEN rev_u4 END), 0)
                                   * 1000000) // sum(rev_u4)
                        END AS BIGINT) AS share_micro
            FROM rev GROUP BY 1
        """,
        "order_count_dist": """
            WITH oc AS (SELECT c.c_custkey AS custkey,
                               CAST(count(o.o_custkey) AS BIGINT) AS c_count
                        FROM customer c LEFT JOIN orders o
                          ON c.c_custkey = o.o_custkey
                         AND o.o_orderpriority LIKE '1-%'
                        GROUP BY 1)
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM oc GROUP BY 1
        """,
        "top_supplier": """
            WITH rev AS (
                SELECT l_suppkey AS suppkey,
                       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                                * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                            AS BIGINT) AS total_rev_u4
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                  AND l_shipdate <  TIMESTAMP '1997-07-01'
                GROUP BY 1)
            SELECT r.suppkey, s.s_name, r.total_rev_u4
            FROM rev r JOIN supplier s ON r.suppkey = s.s_suppkey
            WHERE r.total_rev_u4 = (SELECT max(total_rev_u4) FROM rev)
        """,
        "small_qty_revenue": """
            WITH bl AS (SELECT l.l_partkey AS partkey,
                               CAST(round(l.l_quantity) AS BIGINT) AS q,
                               CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                   AS cents_ext
                        FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
                        WHERE p.p_brand = 'Brand#23'),
                 st AS (SELECT partkey, CAST(sum(q) AS BIGINT) AS qs,
                               CAST(count(*) AS BIGINT) AS n
                        FROM bl GROUP BY 1)
            SELECT COALESCE(CAST(sum(bl.cents_ext) AS BIGINT), 0) AS total_cents,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(COALESCE(CAST(sum(bl.cents_ext) AS BIGINT), 0) // 7
                        AS BIGINT) AS avg_yearly_cents
            FROM bl JOIN st USING (partkey)
            WHERE bl.q * (5 * st.n) < st.qs * 1
        """,
        "idle_customers": """
            WITH seg AS (SELECT c_custkey AS custkey,
                                c_mktsegment AS segment,
                                CAST(round(c_acctbal * 100) AS BIGINT) AS bal
                         FROM customer
                         WHERE c_mktsegment IN
                               ('BUILDING', 'AUTOMOBILE', 'MACHINERY')),
                 avgp AS (SELECT CAST(COALESCE(sum(bal), 0) AS BIGINT) AS s,
                                 CAST(count(*) AS BIGINT) AS n
                          FROM seg WHERE bal > 0)
            SELECT seg.segment,
                   CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(sum(seg.bal) AS BIGINT) AS bal_cents_sum
            FROM seg, avgp
            WHERE seg.bal * avgp.n > avgp.s
              AND NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = seg.custkey
                                AND o.o_orderdate >= TIMESTAMP '2000-07-01')
            GROUP BY 1
        """,
        "nation_volume": """
            SELECT sn.n_name AS supp_nation,
                   cn.n_name AS cust_nation,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS revenue_u4
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation sn  ON s.s_nationkey = sn.n_nationkey
            JOIN orders o   ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation cn  ON c.c_nationkey = cn.n_nationkey
            WHERE l.l_shipdate >= TIMESTAMP '1996-07-01'
              AND l.l_shipdate <  TIMESTAMP '1997-07-01'
              AND ((sn.n_name = 'NATION_3' AND cn.n_name = 'NATION_7')
                OR (sn.n_name = 'NATION_7' AND cn.n_name = 'NATION_3'))
            GROUP BY 1, 2
        """,
        "minhash_pairs": _minhash_pairs_sql(norm, threshold=0.5),
        # knn_lsh, knn_ivf, cosine_dups_lsh (recall < 1 — audited round
        # 3, see the query docstrings): the ONLY rows-only queries left;
        # every deterministic operator now carries a full hash oracle.
    }
    # exact continuous-domain quantiles via the distributed sort path:
    # the oracle wraps the model_score SQL so the score definition has
    # a single source of truth
    # quality-proportional sampling: per-row md5-vs-printf('%08x') hex
    # threshold (same IEEE product + floor + string compare as the
    # engine); weight = the model_score SQL, single source of truth
    # CCNet per-language perplexity terciles: the lm_bigram_score SQL
    # is nested as a CTE (single source of truth for the LM); the
    # statistic is all-integer ((-logprob)//n_pairs) and the tercile
    # thresholds use the same quantile_disc discipline as the engine
    d["ccnet_buckets"] = f"""
        WITH sc AS ({d["lm_bigram_score"]}),
        st AS (SELECT sc.doc_id, dd.lang,
                      CASE WHEN sc.n_pairs = 0 THEN 0
                           ELSE (-sc.logprob_micro) // sc.n_pairs
                      END AS nll_micro_per_pair
               FROM sc JOIN documents dd USING (doc_id)),
        th AS (SELECT lang,
                      quantile_disc(nll_micro_per_pair, 1.0/3) AS t1,
                      quantile_disc(nll_micro_per_pair, 2.0/3) AS t2
               FROM st GROUP BY 1)
        SELECT st.doc_id, st.lang, st.nll_micro_per_pair,
               CASE WHEN nll_micro_per_pair <= t1 THEN 'head'
                    WHEN nll_micro_per_pair <= t2 THEN 'middle'
                    ELSE 'tail' END AS bucket
        FROM st JOIN th USING (lang)
    """
    d["weighted_sample"] = f"""
        WITH scored AS ({d["model_score"]})
        SELECT doc_id FROM scored
        WHERE quality_prob > 0 AND (quality_prob >= 1 OR
              substr(md5('wsamp' || CAST(doc_id AS VARCHAR)), 1, 8)
              < printf('%08x', CAST(floor(quality_prob * 4294967296) AS BIGINT)))
    """
    d["score_quantiles"] = f"""
        WITH scored AS ({d["model_score"]}),
        agg AS (SELECT quantile_disc(quality_prob,
                       [0.25, 0.5, 0.75, 0.9, 0.99]) AS vals FROM scored)
        SELECT unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q,
               unnest(vals) AS quality_prob
        FROM agg
    """
    # curate with the opt-in Gopher structural gate: the gopher_filter
    # oracle is nested as a CTE and its rule bits AND into the curate
    # chain's surv stage — single source of truth for both rule sets
    _gq_surv = """WITH gf AS ({gf}),
            surv AS (SELECT d.doc_id, d.text, d.source, d.n_chars
                     FROM documents d JOIN gf USING (doc_id)
                     WHERE gf.r_words AND gf.r_wordlen AND gf.r_symbol
                       AND gf.r_bullet AND gf.r_ellip AND gf.r_alpha
                       AND NOT regexp_matches(lower(d.text),
                           '(?:\\bspark\\b|\\bslow query\\b|\\bdup\\b)')),"""
    _curate_prefix = d["curate"][: d["curate"].index("nrm AS")]
    assert "surv AS" in _curate_prefix, "curate oracle shape changed"
    d["curate_quality"] = d["curate"].replace(
        _curate_prefix,
        _gq_surv.format(gf=d["gopher_filter"]) + "\n            ",
        1,
    )
    # curate with the opt-in CCNet perplexity gate: the bigram LM is
    # trained on the blocklist SURVIVORS (same corpus the engine
    # trains on), per-language tercile thresholds via quantile_disc,
    # keep head+middle (nll <= t2) — then the unchanged curate chain
    _ppl_surv = f"""WITH surv0 AS (SELECT doc_id, text, source, n_chars, lang
                     FROM documents
                     WHERE NOT regexp_matches(lower(text),
                         '(?:\\bspark\\b|\\bslow query\\b|\\bdup\\b)')),
            {_lm_sc_ctes("surv0")},
            st AS (SELECT s0.doc_id, s0.lang,
                          CASE WHEN coalesce(sc.n_pairs, 0) = 0 THEN 0
                               ELSE (-sc.lm) // sc.n_pairs END AS nll
                   FROM surv0 s0 LEFT JOIN sc USING (doc_id)),
            th AS (SELECT lang,
                          quantile_disc(nll, 1.0/3) AS t1,
                          quantile_disc(nll, 2.0/3) AS t2
                   FROM st GROUP BY 1),
            surv AS (SELECT s0.doc_id, s0.text, s0.source, s0.n_chars
                     FROM surv0 s0 JOIN st USING (doc_id)
                     JOIN th ON st.lang = th.lang
                     WHERE st.nll <= th.t2),"""
    d["curate_ppl"] = d["curate"].replace(
        _curate_prefix, _ppl_surv + "\n            ", 1
    )
    return d

