"""DSIR-style importance weighting for data selection.

Implements the hashed-ngram importance-resampling estimator of
"Data Selection for Language Models via Importance Resampling"
(Xie et al., NeurIPS 2023): features are word unigrams + bigrams
hashed into ``n_buckets`` buckets; a target subset of the corpus
defines the target distribution; every document is scored with

    weight(d) = sum over feature occurrences f in d of
                ln p_target(bucket(f)) - ln p_raw(bucket(f))

with add-one smoothing on the bucket counts.  High-weight documents
look like the target; downstream samplers (``budget_sample``,
``weighted_sample``) resample proportionally to ``exp(weight)``.

Exactness discipline (shared with ``lm.bigram_logprob``): the
per-bucket log-ratio is converted ONCE to micro-units —
``floor((ln((ct+1)/(T+B)) - ln((cr+1)/(R+B))) * 1e6 + 0.5)`` as
int64, the identical IEEE double chain DuckDB produces — and the
per-document score is an exact int64 SUM of those micro-units, so it
is order-free and hash-oracle-able.  Bucketing is the repo's standard
DuckDB bridge: ``md5_number_lower(feature) % n_buckets``.

Scale shape (100 TB): pass 1 ships per-batch (bucket, cnt_t, cnt_r)
partials — at most ``n_buckets`` rows per batch — through ONE
bucket-space groupby (B rows total, ~10k), so the shuffle is
feature-space-bounded, never corpus-bounded.  The λ table is a
B-entry int64 array broadcast once with ``ray.put`` (~80 KB at the
default B); pass 2 is map-only.  No stage materializes the corpus.
"""

from __future__ import annotations

import hashlib
import math

import pyarrow as pa

#: source_divergence adaptive bounds (round 5): at or below these the
#: per-source totals / global token table broadcast and the enrichment
#: is map-side with driver-reduced finals; past them the fully-streamed
#: bucketed-join path runs (bit-identical output)
SOURCES_BROADCAST_MAX = 1_000_000
VOCAB_BROADCAST_MAX = 5_000_000

__all__ = ["dsir_weights", "source_divergence"]

DEFAULT_N_BUCKETS = 10_000

# process-level feature→md5-lower64 memo (web vocab is Zipfian: the
# hot tokens dominate occurrences; cap keeps a pathological corpus
# from growing the memo without bound).  The memo stores the RAW
# 64-bit hash, not the bucket, so concurrent/successive calls with
# different n_buckets in one worker process cannot poison each other.
_HASH_MEMO: dict = {}
_HASH_MEMO_CAP = 2_000_000


def _bucket(feature: str, n_buckets: int) -> int:
    """md5-lower64 % n_buckets — byte-equal to DuckDB
    ``md5_number_lower(f) % n_buckets`` (same bridge as sketches.py)."""
    h = _HASH_MEMO.get(feature)
    if h is None:
        d = hashlib.md5(feature.encode("utf-8")).digest()
        h = int.from_bytes(d[8:], "little")
        if len(_HASH_MEMO) < _HASH_MEMO_CAP:
            _HASH_MEMO[feature] = h
    return h % n_buckets


def _doc_buckets(text: str, n_buckets: int) -> list:
    """Bucket ids of every unigram + bigram occurrence (multiplicity
    kept — DSIR counts occurrences, not distinct features)."""
    toks = text.split(" ") if text else []
    out = [_bucket(t, n_buckets) for t in toks]
    out.extend(_bucket(f"{a} {b}", n_buckets) for a, b in zip(toks, toks[1:]))
    return out


def dsir_weights(
    docs_ds,
    target_mask_fn,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
):
    """(id, n_features, weight_micro) per document.

    ``target_mask_fn(batch: pa.Table) -> pa.BooleanArray`` marks the
    rows that define the target distribution (e.g. a trusted-domain or
    language predicate); the raw distribution is the whole corpus.
    Documents with no tokens emit (0, 0).
    """
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    from .text_stats import normalize_expr

    def partials(batch: pa.Table) -> pa.Table:
        mask = target_mask_fn(batch)
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        is_t = mask.to_pylist()
        cnt_t: dict = {}
        cnt_r: dict = {}
        for t, tgt in zip(normalize_expr(batch.column(text_col)).to_pylist(), is_t):
            for b in _doc_buckets(t, n_buckets):
                cnt_r[b] = cnt_r.get(b, 0) + 1
                if tgt:
                    cnt_t[b] = cnt_t.get(b, 0) + 1
        keys = list(cnt_r.keys())
        return pa.Table.from_arrays(
            [
                pa.array(keys, pa.int64()),
                pa.array([cnt_t.get(k, 0) for k in keys], pa.int64()),
                pa.array([cnt_r[k] for k in keys], pa.int64()),
            ],
            names=["bucket", "cnt_t", "cnt_r"],
        )

    agg = (
        docs_ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum("cnt_t", alias_name="cnt_t"), Sum("cnt_r", alias_name="cnt_r"))
    )
    ct = np.zeros(n_buckets, dtype=np.int64)
    cr = np.zeros(n_buckets, dtype=np.int64)
    for b in agg.iter_batches(batch_format="pyarrow"):
        idx = b.column("bucket").to_numpy(zero_copy_only=False)
        ct[idx] = b.column("cnt_t").to_numpy(zero_copy_only=False)
        cr[idx] = b.column("cnt_r").to_numpy(zero_copy_only=False)
    total_t = int(ct.sum())
    total_r = int(cr.sum())
    lam = np.empty(n_buckets, dtype=np.int64)
    for b in range(n_buckets):
        # identical IEEE chain to the SQL oracle: int/int division →
        # double, libm ln == DuckDB ln, double subtract, *1e6, floor
        lam[b] = math.floor(
            (
                math.log((int(ct[b]) + 1) / (total_t + n_buckets))
                - math.log((int(cr[b]) + 1) / (total_r + n_buckets))
            )
            * 1e6
            + 0.5
        )
    lam_ref = ray.put(lam)

    def score(batch: pa.Table) -> pa.Table:
        lam_arr = ray.get(lam_ref)
        n_feats, weights = [], []
        for t in normalize_expr(batch.column(text_col)).to_pylist():
            bs = _doc_buckets(t, n_buckets)
            n_feats.append(len(bs))
            # exact int64 sum of per-bucket micro log-ratios
            weights.append(int(lam_arr[bs].sum()) if bs else 0)
        return pa.Table.from_arrays(
            [
                batch.column(id_col),
                pa.array(n_feats, pa.int64()),
                pa.array(weights, pa.int64()),
            ],
            names=[id_col, "n_features", "weight_micro"],
        )

    return docs_ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def source_divergence(docs_ds, text_col: str = "text", source_col: str = "source"):
    """Per-source unigram KL divergence against the whole-corpus token
    distribution — the mixture-drift monitor a multi-source training
    pipeline runs per crawl (is source X's language shifting away from
    the blend it was weighted for?).  Returns one row per source:
    (source, n_tokens, kl_micro_sum) where

        KL(source ‖ corpus) = kl_micro_sum / (n_tokens * 1e6)   nats,
        kl_micro_sum = Σ_t n_s(t) * floor(ln((n_s(t)·N) /
                                             (N_s·n_g(t))) * 1e6 + 0.5)

    with n_s/n_g the per-source/global token counts and N_s/N the
    totals.  The ln argument is an explicit IEEE chain
    ``(double(n_s)·double(N)) / (double(N_s)·double(n_g))`` and the
    micro conversion happens ONCE per (source, token) — the same
    discipline as :mod:`lm` — so the int64 sum is order-free and the
    DuckDB oracle reproduces it bit-exactly.

    Int64 bound (documented, not silently wrong): per-source
    ``Σ n_s·|ln-ratio micro|`` must stay below 2^63 ≈ 9.2e18; with
    |ln ratio| ≤ 30 nats that is ~3e11 tokens in ONE source — beyond
    that, rescale to milli-units or accumulate float.

    Scale shape (round-5 adaptive): per-batch (source, token) count
    partials → ONE groupby at |sources|×|vocab| scale, materialized
    once; the corpus is read exactly once.  Per-source totals and the
    grand total then come from a DRIVER reduce of per-block partials
    (≤ blocks × |sources| tiny rows — no exchange), and when the
    global token table fits ``VOCAB_BROADCAST_MAX`` it broadcasts into
    a map-side annotate with the final per-source reduction also
    driver-reduced — the whole query pays TWO exchanges (the st and
    glob groupbys).  Past the bounds (millions of sources, or a vocab
    beyond broadcast) the original fully-streamed path runs: both
    enrichment joins (token → n_g, source → N_s) as inner hash joins,
    each broadcast by ``hash_join`` itself while its side fits
    ``joins.DIM_BROADCAST_MAX``, and a distributed final groupby —
    bit-identical output (pinned by a monkeypatched equality test).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .joins import hash_join
    from .text_stats import normalize_expr

    def st_partials(b: pa.Table) -> pa.Table:
        if b.column(source_col).null_count:
            raise ValueError(
                f"source_divergence: null values in {source_col!r} are "
                "unsupported — filter or fill them first (pandas groupby "
                "would silently DROP those tokens while SQL groups them, "
                "shifting every other source's KL)"
            )
        norm = normalize_expr(b.column(text_col))
        keep = pc.greater(pc.utf8_length(norm), 0)
        src = b.column(source_col).filter(keep)
        lt = pc.split_pattern(norm.filter(keep), " ")
        flat = pc.list_flatten(lt)
        parent = pc.list_parent_indices(lt)
        df = pd.DataFrame(
            {
                "source": src.take(parent).to_pylist(),
                "token": flat.to_pylist(),
            }
        )
        g = df.groupby(["source", "token"], sort=False).size().reset_index(name="n_s")
        return pa.Table.from_arrays(
            [
                pa.array(g["source"], pa.string()),
                pa.array(g["token"], pa.string()),
                pa.array(g["n_s"].astype(np.int64)),
            ],
            names=["source", "token", "n_s"],
        )

    st = (
        docs_ds.map_batches(st_partials, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("n_s", alias_name="n_s"))
        .materialize()  # aggregate-sized; consumers below re-read blocks
    )

    # per-source totals + grand total: per-block partials → DRIVER
    # reduce (≤ blocks × |sources| tiny integer rows — no exchange)
    tot_parts = st.map_batches(
        lambda b: pa.Table.from_pandas(
            b.select(["source", "n_s"])
            .to_pandas()
            .groupby("source", sort=False)["n_s"]
            .sum()
            .reset_index(),
            preserve_index=False,
        ),
        batch_format="pyarrow",
    ).take_all()
    tot_map: dict = {}
    for r in tot_parts:
        tot_map[r["source"]] = tot_map.get(r["source"], 0) + int(r["n_s"])
    grand = sum(tot_map.values())
    if not tot_map:
        return pd.DataFrame(
            {
                "source": pd.Series(dtype=object),
                "n_tokens": pd.Series(dtype="int64"),
                "kl_micro_sum": pd.Series(dtype="int64"),
            }
        )

    glob_mat = (
        st.groupby("token").aggregate(Sum("n_s", alias_name="n_g")).materialize()
    )
    if (
        len(tot_map) <= SOURCES_BROADCAST_MAX
        and glob_mat.count() <= VOCAB_BROADCAST_MAX
    ):
        import ray

        glob_map = {r["token"]: int(r["n_g"]) for r in glob_mat.take_all()}
        refs = ray.put((glob_map, tot_map))

        def terms_bcast(b: pa.Table) -> pa.Table:
            gm, tm = ray.get(refs)
            df = b.select(["source", "token", "n_s"]).to_pandas()
            ng = df["token"].map(gm).to_numpy(dtype=np.int64)
            nsrc = df["source"].map(tm).to_numpy(dtype=np.int64)
            ns = df["n_s"].to_numpy(dtype=np.int64)
            micro = np.fromiter(
                (
                    math.floor(
                        math.log((float(a) * float(grand)) / (float(c) * float(g)))
                        * 1e6
                        + 0.5
                    )
                    for a, g, c in zip(ns, ng, nsrc)
                ),
                dtype=np.int64,
                count=len(ns),
            )
            out = pd.DataFrame(
                {"source": df["source"], "n_tokens": ns, "term": ns * micro}
            )
            g2 = out.groupby("source", sort=False).agg(
                n_tokens=("n_tokens", "sum"), kl_micro_sum=("term", "sum")
            ).reset_index()
            return pa.Table.from_pandas(g2, preserve_index=False)

        parts = st.map_batches(terms_bcast, batch_format="pyarrow").take_all()
        agg = (
            pd.DataFrame(parts)
            .groupby("source", sort=True)
            .agg(
                n_tokens=("n_tokens", "sum"),
                kl_micro_sum=("kl_micro_sum", "sum"),
            )
            .reset_index()
        )
        agg["n_tokens"] = agg["n_tokens"].astype(np.int64)
        agg["kl_micro_sum"] = agg["kl_micro_sum"].astype(np.int64)
        return agg

    # fully-streamed fallback: bucketed enrich joins + distributed final
    tot = st.groupby("source").aggregate(Sum("n_s", alias_name="n_src"))
    with_g = hash_join(st, glob_mat, "token", right_value_cols=["n_g"], how="inner")
    with_tot = hash_join(
        with_g, tot, "source", right_value_cols=["n_src"], how="inner"
    )

    def terms(b: pa.Table) -> pa.Table:
        ns = b.column("n_s").to_numpy(zero_copy_only=False).astype(np.int64)
        ng = b.column("n_g_r").to_numpy(zero_copy_only=False).astype(np.int64)
        nsrc = b.column("n_src_r").to_numpy(zero_copy_only=False).astype(np.int64)
        src = b.column("source")
        # scalar math.log/floor per (source, token) row — aggregate-side
        # work, and the exact chain the SQL oracle spells out
        micro = np.fromiter(
            (
                math.floor(
                    math.log((float(a) * float(grand)) / (float(c) * float(g)))
                    * 1e6
                    + 0.5
                )
                for a, g, c in zip(ns, ng, nsrc)
            ),
            dtype=np.int64,
            count=len(ns),
        )
        df = pd.DataFrame(
            {"source": src.to_pylist(), "n_tokens": ns, "term": ns * micro}
        )
        g2 = df.groupby("source", sort=False).agg(
            n_tokens=("n_tokens", "sum"), kl_micro_sum=("term", "sum")
        ).reset_index()
        return pa.Table.from_arrays(
            [
                pa.array(g2["source"], pa.string()),
                pa.array(g2["n_tokens"].astype(np.int64)),
                pa.array(g2["kl_micro_sum"].astype(np.int64)),
            ],
            names=["source", "n_tokens", "kl_micro_sum"],
        )

    return (
        with_tot.map_batches(terms, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("kl_micro_sum", alias_name="kl_micro_sum"),
        )
    )
