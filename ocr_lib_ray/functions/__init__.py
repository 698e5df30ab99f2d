"""Training-data operator library — convenience exports."""

from .chunking import chunk_documents, pack_sequences
from .clustering import (
    kmeans_centroids,
    kmeans_milli,
    knn_ivf_pq,
    knn_pq,
    pq_codebooks,
    pq_codes,
    semantic_dedup,
)
from .dedup import (
    connected_components,
    dedup_by_pairs,
    dedup_connected,
    dedup_minhash_incremental,
    dup_cluster_sizes,
    expand_components,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_pairs,
    union_find_components,
)
from .graph import pagerank_micro, purchase_graph_edges
from .basket import copurchase_lift
from .experiments import ab_metrics
from .importance import dsir_weights, source_divergence
from .joins import asof_join, hash_join, range_join_count
from .lm import bigram_logprob, ccnet_buckets, train_bigram_model
from .linedup import remove_common_lines, remove_common_lines_join
from .curation import (
    dedup_keep_best,
    dedup_normalized,
    filter_blocklist,
    rollup_stats,
    shuffle_shards,
)
from .ngramdup import (
    contamination_report,
    decontaminate,
    dup_ngram_stats,
    hot_ngrams,
    remove_dup_ngrams,
)
from .ordered import (
    cohort_retention,
    funnel_stages,
    lag_intervals,
    rolling_stats,
    sessionize_assign,
)
from .windows import fill_windows, window_topk
from .redact import bpe_token_count_batch, redact_batch, redact_text
from .quantiles import (
    ecdf_percent_rank,
    group_quantiles,
    histogram_quantiles,
    sort_quantiles,
)
from .ranking import tfidf_top_terms, topk_per_group, topk_with_ties
from .relational import (
    large_orders,
    late_order_priority,
    pricing_summary,
    promo_revenue,
    revenue_delta,
    ship_priority,
    star_revenue,
    top_customers,
)
from .sampling import (
    budget_sample,
    cap_per_group,
    sample_fixed_k,
    sample_k_per_group,
    split_dataset,
    stratified_sample,
    take_split,
    temperature_mix,
    weighted_sample,
    weighted_sample_k,
)
from .scoring import score_documents
from .similarity import (
    cosine_dup_pairs,
    cosine_dup_pairs_lsh,
    decontaminate_embedding,
    knn_brute,
    knn_ivf,
    knn_lsh,
)
from .streaming import streaming_sessionize
from .versions import group_checksum, keep_latest, table_checksum
from .sketches import (
    approx_distinct_users_per_type,
    bloom_build,
    bloom_filter_against,
    bloom_test,
    hll_aggregate,
)
from .text_stats import (
    LangId,
    lang_confusion,
    length_histogram,
    QualityScore,
    code_detect_batch,
    doc_stats_batch,
    fingerprint_batch,
    winnow_fingerprint_batch,
)
from .tokens import (
    bpe_encode,
    bpe_train,
    build_vocab,
    cooccurrence_topk,
    encode_docs,
    token_counts,
    top_tokens,
)
from .urls import canonicalize_url
from .windows import (
    heavy_hitters,
    user_type_entropy,
    sessionize,
    sessionize_salted,
    sliding_window,
    tumbling_window,
)

__all__ = [
    "chunk_documents",
    "pack_sequences",
    "dedup_by_pairs",
    "dedup_connected",
    "dedup_minhash_incremental",
    "dup_cluster_sizes",
    "expand_components",
    "minhash_lsh_pairs",
    "ngram_jaccard_pairs",
    "simhash_pairs",
    "connected_components",
    "cap_per_group",
    "budget_sample",
    "dedup_keep_best",
    "dedup_normalized",
    "ecdf_percent_rank",
    "fill_windows",
    "filter_blocklist",
    "funnel_stages",
    "sessionize_assign",
    "cohort_retention",
    "window_topk",
    "rollup_stats",
    "shuffle_shards",
    "group_quantiles",
    "lag_intervals",
    "rolling_stats",
    "hash_join",
    "histogram_quantiles",
    "keep_latest",
    "group_checksum",
    "table_checksum",
    "sort_quantiles",
    "union_find_components",
    "asof_join",
    "range_join_count",
    "remove_common_lines",
    "remove_common_lines_join",
    "decontaminate",
    "dup_ngram_stats",
    "hot_ngrams",
    "remove_dup_ngrams",
    "bpe_token_count_batch",
    "redact_batch",
    "redact_text",
    "split_dataset",
    "take_split",
    "stratified_sample",
    "sample_fixed_k",
    "weighted_sample",
    "tfidf_top_terms",
    "topk_per_group",
    "topk_with_ties",
    "score_documents",
    "cosine_dup_pairs",
    "cosine_dup_pairs_lsh",
    "decontaminate_embedding",
    "knn_brute",
    "knn_ivf",
    "knn_lsh",
    "approx_distinct_users_per_type",
    "hll_aggregate",
    "LangId",
    "QualityScore",
    "doc_stats_batch",
    "fingerprint_batch",
    "winnow_fingerprint_batch",
    "ab_metrics",
    "bpe_encode",
    "bpe_train",
    "build_vocab",
    "copurchase_lift",
    "knn_ivf_pq",
    "knn_pq",
    "pq_codebooks",
    "pq_codes",
    "dsir_weights",
    "source_divergence",
    "encode_docs",
    "token_counts",
    "cooccurrence_topk",
    "top_tokens",
    "canonicalize_url",
    "heavy_hitters",
    "streaming_sessionize",
    "sessionize",
    "sessionize_salted",
    "sliding_window",
    "tumbling_window",
    "user_type_entropy",
]
