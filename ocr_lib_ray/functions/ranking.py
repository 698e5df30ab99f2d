"""Distributed ranking ops: per-group top-k and corpus TF-IDF.

Both follow the repo's shuffle-discipline:

- :func:`topk_per_group` never globally sorts — each block prunes
  itself to its own per-group top-k (map-only), then one groupby over
  the pruned candidates finishes the ranking.  The shuffle carries at
  most ``k x n_blocks`` rows per group, never the corpus.
- :func:`tfidf_top_terms` computes document frequencies as per-batch
  DISTINCT partials (one small row per distinct token per batch — the
  same pre-aggregation as ``tokens.token_counts``), broadcasts the
  vocabulary once with ``ray.put``, and scores every document in a
  single map-only second pass (per-doc top-k needs no shuffle: a
  document is whole within its batch row).

Reference parity: the top-k pattern is the `sort-rows` + take analog
(core.clj:753-785 ordering + argmax discipline, core.clj:1020-1069)
lifted to a corpus-wide grouped operator.
"""

from __future__ import annotations

import math

import pandas as pd
import pyarrow as pa

from .bucket_tasks import exchange_map_groups

__all__ = ["topk_per_group", "tfidf_top_terms"]


def topk_per_group(
    ds,
    group_col: str,
    order_col: str,
    k: int,
    id_col: str,
    descending: bool = True,
):
    """Top-k rows per group by ``order_col`` — no global sort.

    Deterministic total order: (order_col desc|asc, id_col asc) — the
    id tie-break makes the selected SET stable across batch sizes and
    cluster layouts, not just the ordering.

    Two stages: (1) map-only per-block prune — each block keeps its own
    per-group top-k, so the shuffle sees at most k rows per group per
    block; (2) one exchange keyed by ``group_col`` takes the final top-k
    over the pruned candidates.  With B blocks a group's candidate set is <= k*B;
    for k*B beyond group-task memory, run the prune twice (tree
    combine) — at k<=100 and 10^5 blocks that is still only 10^7 rows,
    so a single level is the right default.

    Null group keys form one group, ranked like any other (SQL's NULL
    partition).

    Output columns: (group_col, id_col, order_col).
    """
    cols = [group_col, id_col, order_col]
    ascending = [not descending, True]

    def top(batch: pa.Table) -> pa.Table:
        # per-group top-k of a block (the prune) or of one group's
        # candidates (the finish)
        tbl = batch.select(cols)
        top = (
            tbl.to_pandas()
            .sort_values([order_col, id_col], ascending=ascending)
            .groupby(group_col, sort=False, dropna=False)
            .head(k)
        )
        # explicit schema: from_pandas on an EMPTY block (or an all-null
        # group) would infer `null` types and break schema unification
        return pa.Table.from_pandas(top, schema=tbl.schema, preserve_index=False)

    pruned = ds.map_batches(top, batch_format="pyarrow", zero_copy_batch=True)
    return exchange_map_groups(pruned, group_col, top)


def _df_partials(batch: pa.Table, text_col: str) -> pa.Table:
    """(token, nd=1) per DISTINCT token per document, plus one sentinel
    row (token='', nd=1) per document WITH at least one token — the
    sentinel rides the same aggregate so corpus size N needs no second
    corpus pass.  '' can never collide with a real token (collapse_ws
    output split on single spaces yields no empty strings)."""
    from .text_stats import normalize_expr

    tokens, counts = [], []
    for t in normalize_expr(batch.column(text_col)).to_pylist():
        if not t:
            continue
        tokens.extend(set(t.split(" ")))
        tokens.append("")
    return pa.Table.from_arrays(
        [
            pa.array(tokens, pa.string()),
            pa.array([1] * len(tokens), pa.int64()),
        ],
        names=["token", "nd"],
    )


def tfidf_top_terms(
    docs_ds,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_vocab: int = 5_000_000,
):
    """Top-k TF-IDF terms per document: (id, term_rank, token, tf, tfidf).

    score = tf * ln(N / df) over whitespace tokens of the normalized
    text; N = documents with >= 1 token; order (score desc, token asc);
    tfidf emitted rounded to 6 (raw double rounded ONCE — the repo's
    float-oracle discipline).  ``ln`` goes through ``math.log`` (libm)
    so DuckDB's ``ln`` reproduces it bit-for-bit on the same host.

    Scale: pass 1 aggregates per-batch DISTINCT (token, 1) partials —
    the shuffle carries vocabulary-sized partials, never raw tokens.
    The aggregated vocabulary (heavy-tailed, ~millions of rows for
    web-scale corpora after normalization) is broadcast once via
    ``ray.put``; ``max_vocab`` guards the driver collection — beyond
    it, rebuild this op with the same-key-bucket join rewrite of
    ``linedup.remove_common_lines_join`` (explode (doc, token) rows,
    bucket by token hash, regroup by doc).  Pass 2 is map-only.
    """
    import ray
    from ray.data.aggregate import Sum

    df_tbl = (
        docs_ds.map_batches(
            lambda b: _df_partials(b, text_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("token")
        .aggregate(Sum("nd", alias_name="nd"))
        .materialize()
    )
    n_vocab = df_tbl.count()  # metadata-only on a materialized dataset
    if n_vocab > max_vocab:
        raise ValueError(
            f"vocabulary {n_vocab} exceeds max_vocab={max_vocab}; use a "
            "bucketed join variant (see linedup.remove_common_lines_join) "
            "instead of the broadcast path"
        )
    df_map: dict = {}
    for b in df_tbl.iter_batches(batch_format="pyarrow"):
        df_map.update(zip(b.column("token").to_pylist(), b.column("nd").to_pylist()))
    n_docs = df_map.pop("", 0)
    ref = ray.put((df_map, n_docs))

    def score(batch: pa.Table) -> pa.Table:
        from .text_stats import normalize_expr

        dfm, n = ray.get(ref)
        ids, ranks, toks, tfs, scores = [], [], [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            normalize_expr(batch.column(text_col)).to_pylist(),
        ):
            if not t:
                continue
            tf: dict = {}
            for w in t.split(" "):
                tf[w] = tf.get(w, 0) + 1
            scored = sorted(
                ((tok, c, c * math.log(n / dfm[tok])) for tok, c in tf.items()),
                key=lambda x: (-x[2], x[0]),
            )[:k]
            for r, (tok, c, s) in enumerate(scored, 1):
                ids.append(i)
                ranks.append(r)
                toks.append(tok)
                tfs.append(c)
                scores.append(round(s, 6))
        return pa.Table.from_arrays(
            [
                pa.array(ids, batch.schema.field(id_col).type),
                pa.array(ranks, pa.int64()),
                pa.array(toks, pa.string()),
                pa.array(tfs, pa.int64()),
                pa.array(scores, pa.float64()),
            ],
            names=[id_col, "term_rank", "token", "tf", "tfidf"],
        )

    return docs_ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def topk_with_ties(
    ds,
    group_col: str,
    order_col: str,
    k: int,
    id_col: str,
    descending: bool = True,
):
    """Top-k rows per group under RANK semantics — every row TIED with
    the k-th value is kept (``RANK() OVER (...) <= k``), the
    leaderboard contract where cutting a tie arbitrarily would be
    wrong; the ROW_NUMBER sibling is :func:`topk_per_group`.  The
    selected SET is deterministic without any id tie-break, because
    ties are never cut.

    Scale shape, same two stages as topk_per_group with a ties-safe
    prune: stage 1 keeps each block's rows with fewer than k STRICTLY
    better values in that block (local RANK <= k) — sound because a
    row with k strictly-better rows in its own block has at least k
    globally, so its global rank already exceeds k; stage 2 is the
    exact per-group RANK filter over the pruned candidates.  A
    pathological all-tied group keeps everything — that is the
    semantics, and the group task bound is the group's tied-row
    count (use topk_per_group when a hard k bound matters more than
    tie fairness).

    Output columns: (group_col, id_col, order_col).
    """
    if k < 1:
        raise ValueError(f"topk_with_ties: k must be >= 1, got {k}")
    cols = [group_col, id_col, order_col]

    def _rank_keep(vals: "np.ndarray") -> "np.ndarray":
        # rank-with-ties filter: strictly-better count < k
        import numpy as np

        if descending:
            order = np.sort(vals)[::-1]
        else:
            order = np.sort(vals)
        if len(order) <= k:
            return np.ones(len(vals), dtype=bool)
        kth = order[k - 1]
        return vals >= kth if descending else vals <= kth

    def prune(batch: pa.Table) -> pa.Table:
        if batch.column(group_col).null_count:
            raise ValueError(
                f"topk_with_ties: null values in group column {group_col!r} "
                "are unsupported — filter or fill them first"
            )
        if batch.column(order_col).null_count:
            raise ValueError(
                f"topk_with_ties: null values in order column {order_col!r} "
                "are unsupported — filter or fill them first (NaN would "
                "poison the kth threshold and silently drop valid rows, "
                "while SQL RANK sorts NULLS LAST)"
            )
        import numpy as np
        import pandas as pd

        df = batch.select(cols).to_pandas()
        keep = np.zeros(len(df), dtype=bool)
        for _, idx in df.groupby(group_col, sort=False).indices.items():
            vals = df[order_col].to_numpy()[idx]
            keep[idx] = _rank_keep(vals)
        return batch.select(cols).filter(pa.array(keep))

    def final(g: "pd.DataFrame") -> "pd.DataFrame":
        import numpy as np

        vals = g[order_col].to_numpy()
        return g.loc[_rank_keep(vals)].reset_index(drop=True)

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    return exchange_map_groups(pruned, group_col, final, batch_format="pandas")
