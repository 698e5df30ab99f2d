"""Cross-document duplicated-span detection and removal (word n-grams).

The exact-substring dedup of "Deduplicating Training Data Makes
Language Models Better" (Lee et al., 2022), expressed at word-n-gram
granularity so it distributes as two shuffle-light passes:

1. gram document-frequency: per-batch DISTINCT (gram_hash, 1) partials
   per document → per-gram document counts in one combiner exchange
   (``bucket_tasks.exchange_aggregate``) → grams in >= ``min_df``
   DISTINCT documents form the *hot set* (duplicated spans).  The
   exchange pre-aggregates each block, so it carries one row per
   distinct gram per block — never every gram occurrence.
2. map-only rewrite/stats: a token position is *duplicated* iff some
   hot gram covers it; each document marks covered positions against
   the broadcast hot set and emits stats (:func:`dup_ngram_stats`) or
   the text with covered tokens removed (:func:`remove_dup_ngrams`).

Gram identity = md5 of the space-joined normalized tokens — stable
across runs and bit-reproducible in DuckDB SQL (the driver oracle
rebuilds the same hot set with ``md5(array_to_string(...))``).

The hot set is broadcast via ``ray.put`` behind a ``max_hot`` guard;
on a dup-heavy crawl where duplicated grams are corpus-scale, rebuild
on the same-key-bucket join pattern of
``linedup.remove_common_lines_join`` (explode (doc, pos, gram) rows,
bucket by gram hash, regroup by doc).  Stats here intentionally count
df over DISTINCT documents: intra-document repetition is not
cross-document duplication.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .bucket_tasks import exchange_aggregate

__all__ = [
    "contamination_report",
    "decontaminate",
    "dup_ngram_stats",
    "dup_ngram_stats_join",
    "remove_dup_ngrams",
    "remove_dup_ngrams_join",
    "hot_ngrams",
]


def _gram_hash(tokens: list, i: int, n: int) -> str:
    return hashlib.md5(" ".join(tokens[i : i + n]).encode("utf-8")).hexdigest()


def _gram_digest(tokens: list, i: int, n: int) -> bytes:
    """16-byte md5 digest (== bytes.fromhex(_gram_hash(...)): the hex
    form flows through the shuffle for oracle parity; the broadcast set
    stores digests — same membership decisions, ~40% less driver/object
    -store memory)."""
    return hashlib.md5(" ".join(tokens[i : i + n]).encode("utf-8")).digest()


def _norm_tokens(batch: pa.Table, text_col: str):
    from .text_stats import normalize_expr

    for t in normalize_expr(batch.column(text_col)).to_pylist():
        yield t.split(" ") if t else []


def _gram_df_partials(batch: pa.Table, text_col: str, n: int) -> pa.Table:
    """(gram_hash, nd=1) per DISTINCT gram per document."""
    hashes = []
    for toks in _norm_tokens(batch, text_col):
        seen = set()
        for i in range(len(toks) - n + 1):
            h = _gram_hash(toks, i, n)
            if h not in seen:
                seen.add(h)
                hashes.append(h)
    return pa.Table.from_arrays(
        [pa.array(hashes, pa.string()), pa.array([1] * len(hashes), pa.int64())],
        names=["gram_hash", "nd"],
    )


def _collect_gram_digests(
    ds, text_col: str, n: int, min_df: int, max_size: int, guard: str
) -> set:
    """Distributed gram-df aggregate → driver set of 16-byte digests.

    Shared by :func:`hot_ngrams` (min_df >= 2 duplicated spans) and
    :func:`decontaminate` (min_df=1: every eval gram).  ``guard`` names
    the caller's limit parameter in the size error."""
    import pyarrow.compute as pc

    counts = (
        exchange_aggregate(
            ds.map_batches(
                lambda b: _gram_df_partials(b, text_col, n),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            "gram_hash",
            [("nd", "sum", "nd")],
        )
        .map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("nd"), min_df)).select(
                ["gram_hash"]
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_hot = counts.count()  # metadata-only on a materialized dataset
    if n_hot > max_size:
        raise ValueError(
            f"gram set {n_hot} exceeds {guard}={max_size}; use a "
            "bucketed join rewrite (see linedup.remove_common_lines_join) "
            "instead of the broadcast path"
        )
    out: set = set()
    for b in counts.iter_batches(batch_format="pyarrow"):
        out.update(bytes.fromhex(h) for h in b.column("gram_hash").to_pylist())
    return out


def hot_ngrams(
    ds, text_col: str = "text", n: int = 3, min_df: int = 2, max_hot: int = 20_000_000
) -> set:
    """md5 digests of n-grams present in >= min_df distinct documents.

    ``max_hot`` bounds the DRIVER set (20M digests ≈ 1.5 GB of Python
    set) — beyond it the broadcast pattern itself is wrong, not just
    the limit; switch to the bucketed join rewrite."""
    return _collect_gram_digests(ds, text_col, n, min_df, max_hot, "max_hot")


def _covered(toks: list, n: int, hot: set):
    """Boolean coverage per token position + hot-gram position count
    (``hot`` holds 16-byte digests)."""
    L = len(toks)
    cov = np.zeros(L, dtype=bool)
    n_hot_grams = 0
    for i in range(L - n + 1):
        if _gram_digest(toks, i, n) in hot:
            n_hot_grams += 1
            cov[i : i + n] = True
    return cov, n_hot_grams


def dup_ngram_stats(
    docs_ds,
    n: int = 3,
    min_df: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hot: int = 20_000_000,
):
    """(id, n_tokens, n_hot_grams, n_dup_tokens, dup_frac) per document.

    dup_frac = duplicated tokens / tokens, rounded once to 6 (0.0 for
    empty docs).  One row per input document, empty docs included.
    """
    import ray

    hot_ref = ray.put(hot_ngrams(docs_ds, text_col, n, min_df, max_hot))

    def stats(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        n_toks, n_hot, n_dup, fracs = [], [], [], []
        for toks in _norm_tokens(batch, text_col):
            cov, hot_grams = _covered(toks, n, hot)
            dup = int(cov.sum())
            n_toks.append(len(toks))
            n_hot.append(hot_grams)
            n_dup.append(dup)
            fracs.append(round(dup / len(toks), 6) if toks else 0.0)
        return pa.Table.from_arrays(
            [
                batch.column(id_col),
                pa.array(n_toks, pa.int64()),
                pa.array(n_hot, pa.int64()),
                pa.array(n_dup, pa.int64()),
                pa.array(fracs, pa.float64()),
            ],
            names=[id_col, "n_tokens", "n_hot_grams", "n_dup_tokens", "dup_frac"],
        )

    return docs_ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def _gram_h64(tokens: list, i: int, n: int) -> int:
    """Signed-int64 view of the md5 digest's low 8 bytes — 4× fewer
    shuffle bytes than the hex form for the join path, same md5-64
    identity discipline the pack/HLL operators already accept (doc:
    birthday collisions become material only near ~2^32 DISTINCT
    grams; at that scale conflating two grams adds one spurious hot
    gram, it does not corrupt the pipeline)."""
    import struct

    return struct.unpack("<q", _gram_digest(tokens, i, n)[:8])[0]


def _hot_occurrences_fused(docs_ds, n, min_df, id_col, text_col, num_partitions):
    """(id, pos) rows for HOT gram occurrences in ONE gram-keyed
    exchange: the per-block distinct-doc df partials and the exploded
    occurrence rows ride the same tagged bucketed union (the PageRank
    exchange-fusion pattern, graph.py), and each bucket sums its grams'
    df and semi-filters its occurrences in-task.  Replaces the old
    {df groupby → semi hash_join} pair — same rows, one all-to-all
    fewer.  Shared by the stats and rewrite join paths."""
    import pandas as pd

    from .joins import _union_bucketed

    def occurrences(batch: pa.Table) -> pa.Table:
        ids, poss, hashes = [], [], []
        id_vals = batch.column(id_col).to_pylist()
        for did, toks in zip(id_vals, _norm_tokens(batch, text_col)):
            for i in range(len(toks) - n + 1):
                ids.append(did)
                poss.append(i)
                hashes.append(_gram_h64(toks, i, n))
        return pa.Table.from_arrays(
            [
                pa.array(hashes, pa.int64()),
                pa.array(ids, batch.column(id_col).type),
                pa.array(poss, pa.int64()),
            ],
            names=["gram_h64", id_col, "pos"],
        )

    def partials(batch: pa.Table) -> pa.Table:
        hashes = []
        for toks in _norm_tokens(batch, text_col):
            seen = set()
            for i in range(len(toks) - n + 1):
                h = _gram_h64(toks, i, n)
                if h not in seen:
                    seen.add(h)
                    hashes.append(h)
        return pa.Table.from_arrays(
            [pa.array(hashes, pa.int64()), pa.array([1] * len(hashes), pa.int64())],
            names=["gram_h64", "nd"],
        )

    occ = docs_ds.map_batches(
        occurrences, batch_format="pyarrow", zero_copy_batch=True
    )
    parts = docs_ds.map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    union, _ = _union_bucketed(occ, parts, "gram_h64", num_partitions)

    def filt(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["side"] == 1]
        df = p.groupby("gram_h64", sort=False)["nd"].sum()
        hot = df.index[df.to_numpy() >= min_df]
        o = g[g["side"] == 0]
        return o[o["gram_h64"].isin(hot)][[id_col, "pos"]]

    from .joins import run_bucket_groups

    return run_bucket_groups(union, num_partitions, filt)


def dup_ngram_stats_join(
    docs_ds,
    n: int = 3,
    min_df: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """:func:`dup_ngram_stats` with NO driver-side hot set — the scale
    path the broadcast docstring points at, for dup-heavy crawls where
    duplicated grams are corpus-scale (> max_hot).

    Same output, different shape: (1) the per-block gram-df partials
    and the exploded (gram_hash, doc, pos) occurrence rows ride ONE
    gram-keyed tagged exchange — each bucket sums df and semi-filters
    its occurrences in-task (:func:`_hot_occurrences_fused`); (2) the
    surviving (id, pos) rows and the (id, n_tokens) base rows ride ONE
    doc-keyed tagged exchange whose buckets merge the covered
    [pos, pos+n) intervals segment-vectorized (numpy min of sorted
    per-doc gaps — no per-position rows, no per-KEY dispatch) and
    stitch the zeros for unduplicated docs.  TWO bounded shuffles
    total, nothing collected: every stage is sized by its keys, not
    the corpus.  Prefer the broadcast form while the hot set fits
    ``max_hot`` — it is one shuffle cheaper still.
    """
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(docs_ds, floor=32)
    import numpy as np
    import pandas as pd

    from .joins import _union_bucketed

    hot_occ = _hot_occurrences_fused(
        docs_ds, n, min_df, id_col, text_col, num_partitions
    )

    def base(batch: pa.Table) -> pa.Table:
        n_toks = [len(t) for t in _norm_tokens(batch, text_col)]
        return pa.Table.from_arrays(
            [batch.column(id_col), pa.array(n_toks, pa.int64())],
            names=[id_col, "n_tokens"],
        )

    base_ds = docs_ds.map_batches(base, batch_format="pyarrow", zero_copy_batch=True)
    union, _ = _union_bucketed(base_ds, hot_occ, id_col, num_partitions)

    def stats_merge(g: pd.DataFrame) -> pd.DataFrame:
        b = g[g["side"] == 0]
        out = pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(),
                "n_tokens": b["n_tokens"].to_numpy(np.int64),
            }
        )
        o = g[g["side"] == 1]
        if o.empty:
            out["n_hot_grams"] = np.int64(0)
            out["n_dup_tokens"] = np.int64(0)
            return out
        o = o.sort_values([id_col, "pos"], kind="mergesort")
        oi = o[id_col].to_numpy()
        op = o["pos"].to_numpy(np.int64)
        new_seg = np.empty(len(oi), dtype=bool)
        new_seg[0] = True
        new_seg[1:] = oi[1:] != oi[:-1]
        # covered tokens = union of [s, s+n): the first start of a doc
        # contributes n, each later start n minus the overlap with the
        # previous interval = min(gap, n)
        contrib = np.empty(len(oi), np.int64)
        contrib[new_seg] = n
        same = ~new_seg[1:]
        contrib[1:][same] = np.minimum(np.diff(op)[same], n)
        seg = np.cumsum(new_seg) - 1
        per_doc = pd.DataFrame(
            {
                id_col: oi[new_seg],
                "n_hot_grams": np.bincount(seg).astype(np.int64),
                "n_dup_tokens": np.bincount(seg, weights=contrib).astype(np.int64),
            }
        )
        out = out.merge(per_doc, on=id_col, how="left")
        out["n_hot_grams"] = out["n_hot_grams"].fillna(0).astype(np.int64)
        out["n_dup_tokens"] = out["n_dup_tokens"].fillna(0).astype(np.int64)
        return out

    from .joins import run_bucket_groups

    stitched = run_bucket_groups(union, num_partitions, stats_merge)

    def finish(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_toks = b.column("n_tokens")
        frac = pc.if_else(
            pc.greater(n_toks, 0),
            pc.round(
                pc.divide(
                    b.column("n_dup_tokens").cast(pa.float64()),
                    n_toks.cast(pa.float64()),
                ),
                ndigits=6,
            ),
            pa.scalar(0.0),
        )
        return pa.Table.from_arrays(
            [
                b.column(id_col),
                n_toks,
                b.column("n_hot_grams"),
                b.column("n_dup_tokens"),
                frac,
            ],
            names=[id_col, "n_tokens", "n_hot_grams", "n_dup_tokens", "dup_frac"],
        )

    return stitched.map_batches(finish, batch_format="pyarrow")


def remove_dup_ngrams_join(
    docs_ds,
    n: int = 3,
    min_df: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """:func:`remove_dup_ngrams` with NO driver-side hot set — the
    rewrite sibling of :func:`dup_ngram_stats_join` for dup-heavy
    crawls.

    The hot occurrences (id, pos) regroup WITH the document text under
    one tagged bucketed union (the text side carries its normalized
    text as ``payload``; the occurrence side's payload zero-fills) and
    one BUCKET-keyed ``map_groups`` drops the covered tokens for every
    document in its bucket — bucket-first, not per-doc dispatch (the
    sessionize lesson: map_groups on a raw near-unique key pays one
    task per key).  Text crosses exactly one doc-keyed shuffle
    (inherent for a rewrite: the output IS text); positions cross the
    fused gram-keyed exchange.  Nothing collected; TWO shuffles total.
    """
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(docs_ds, floor=32)
    import pandas as pd

    from .joins import _union_bucketed

    hot_occ = _hot_occurrences_fused(
        docs_ds, n, min_df, id_col, text_col, num_partitions
    )

    def text_rows(batch: pa.Table) -> pa.Table:
        from .text_stats import normalize_expr

        norm = normalize_expr(batch.column(text_col))
        return pa.Table.from_arrays(
            [
                batch.column(id_col),
                norm.combine_chunks() if isinstance(norm, pa.ChunkedArray) else norm,
            ],
            names=[id_col, "payload"],
        )

    texts = docs_ds.map_batches(
        text_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    union, _ = _union_bucketed(texts, hot_occ, id_col, num_partitions)

    def rewrite_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g[g["side"] == 0]
        o = g[g["side"] == 1]
        starts_of = (
            {did: grp["pos"].to_numpy(np.int64) for did, grp in o.groupby(id_col, sort=False)}
            if len(o)
            else {}
        )
        out_ids, out_texts = [], []
        for did, text in zip(t[id_col].to_numpy(), t["payload"].to_numpy()):
            toks = text.split(" ") if text else []
            starts = starts_of.get(did)
            if starts is not None and len(starts):
                cov = np.zeros(len(toks), dtype=bool)
                for s in starts:
                    cov[s : s + n] = True
                toks = [tok for tok, c in zip(toks, cov) if not c]
            out_ids.append(did)
            out_texts.append(" ".join(toks))
        return pd.DataFrame({id_col: out_ids, text_col: out_texts})

    from .joins import run_bucket_groups

    return run_bucket_groups(union, num_partitions, rewrite_bucket)


def decontaminate(
    docs_ds,
    eval_ds,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_eval_grams: int = 20_000_000,
):
    """Benchmark decontamination: flag training docs sharing any word
    n-gram with an evaluation set (the GPT-3/PaLM 13-gram-overlap
    protocol, n configurable).

    Returns one row per training document:
    (id, n_eval_grams = DISTINCT eval grams the doc contains,
    contaminated = 0/1).  Filtering is then a trivial map; keeping the
    counts makes the contamination-rate audit free.

    Scale shape: the eval side is small BY DEFINITION (benchmarks are
    thousands of docs, not billions) — its distinct gram-hash set
    builds distributed, collects once (``max_eval_grams`` guard) and
    broadcasts via ``ray.put``; the corpus pass is map-only.  This is
    the n-gram-level sibling of ``dedup.dedup_against_reference``
    (whole-doc fingerprint anti-join): use that when the reference side
    is corpus-sized, this when it is an eval set.
    """
    import ray

    hot_ref = ray.put(
        _collect_gram_digests(eval_ds, text_col, n, 1, max_eval_grams, "max_eval_grams")
    )

    def flag(batch: pa.Table) -> pa.Table:
        ev = ray.get(hot_ref)
        hits, flags = [], []
        for toks in _norm_tokens(batch, text_col):
            doc_hits = {
                h
                for i in range(len(toks) - n + 1)
                if (h := _gram_digest(toks, i, n)) in ev
            }
            hits.append(len(doc_hits))
            flags.append(1 if doc_hits else 0)
        return pa.Table.from_arrays(
            [
                batch.column(id_col),
                pa.array(hits, pa.int64()),
                pa.array(flags, pa.int64()),
            ],
            names=[id_col, "n_eval_grams", "contaminated"],
        )

    return docs_ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def remove_dup_ngrams(
    docs_ds,
    n: int = 3,
    min_df: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hot: int = 20_000_000,
):
    """(id, text) with every token covered by a duplicated n-gram removed.

    Output text is the NORMALIZED form (collapse_ws) minus covered
    tokens, space-joined — span removal operates on the token stream,
    so the normalized stream is the faithful unit (same contract as the
    chunking ops).  Documents whose every token is duplicated emit ''.
    """
    import ray

    hot_ref = ray.put(hot_ngrams(docs_ds, text_col, n, min_df, max_hot))

    def rewrite(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        out = []
        for toks in _norm_tokens(batch, text_col):
            cov, _ = _covered(toks, n, hot)
            out.append(" ".join(t for t, c in zip(toks, cov) if not c))
        return pa.Table.from_arrays(
            [batch.column(id_col), pa.array(out, pa.string())],
            names=[id_col, text_col],
        )

    return docs_ds.map_batches(rewrite, batch_format="pyarrow", zero_copy_batch=True)


def contamination_report(
    eval_ds,
    train_ds,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_eval_grams: int = 20_000_000,
):
    """Per-EVAL-document dirtiness audit — the inverse direction of
    :func:`decontaminate` and the statistic benchmark cards actually
    publish (the GPT-3 appendix-C protocol: for each evaluation
    example, what fraction of its word n-grams also occur in the
    training corpus).

    Returns one row per eval document: (id, n_grams = gram POSITIONS,
    n_dirty = positions whose gram occurs anywhere in ``train_ds``,
    dirty_micro = (n_dirty * 1e6) // n_grams — exact int64, 0 for
    docs shorter than n tokens).

    Scale shape: the eval gram-digest set builds distributed and
    broadcasts once (small by definition; ``max_eval_grams`` guard);
    the TRAINING corpus — the big side — is scanned map-only, each
    batch emitting only the eval digests it matched (≤ |eval grams|
    per batch, deduped per batch), one digest-keyed combiner exchange
    dedups the matches globally (bounded by the eval set, never the
    corpus), and
    the matched set broadcasts back for a map-only eval labeling pass.
    Nothing corpus-sized is ever collected or shuffled.
    """
    import ray

    ev_ref = ray.put(
        _collect_gram_digests(
            eval_ds, text_col, n, 1, max_eval_grams, "max_eval_grams"
        )
    )

    def matched_partials(batch: pa.Table) -> pa.Table:
        ev = ray.get(ev_ref)
        s: set = set()
        for toks in _norm_tokens(batch, text_col):
            for i in range(len(toks) - n + 1):
                h = _gram_digest(toks, i, n)
                if h in ev:
                    s.add(h)
        return pa.Table.from_arrays(
            [pa.array(list(s), pa.binary())], names=["gh"]
        )

    matched_ds = exchange_aggregate(
        train_ds.map_batches(
            matched_partials, batch_format="pyarrow", zero_copy_batch=True
        ),
        "gh",
        [(None, "count", "nb")],
    )
    matched = set()
    for b in matched_ds.iter_batches(batch_format="pyarrow"):
        matched.update(b.column("gh").to_pylist())
    mt_ref = ray.put(matched)

    def report(batch: pa.Table) -> pa.Table:
        mt = ray.get(mt_ref)
        n_grams, n_dirty, micro = [], [], []
        for toks in _norm_tokens(batch, text_col):
            total = max(0, len(toks) - n + 1)
            dirty = sum(
                1 for i in range(total) if _gram_digest(toks, i, n) in mt
            )
            n_grams.append(total)
            n_dirty.append(dirty)
            micro.append((dirty * 1_000_000) // total if total else 0)
        return pa.Table.from_arrays(
            [
                batch.column(id_col),
                pa.array(n_grams, pa.int64()),
                pa.array(n_dirty, pa.int64()),
                pa.array(micro, pa.int64()),
            ],
            names=[id_col, "n_grams", "n_dirty", "dirty_micro"],
        )

    return eval_ds.map_batches(report, batch_format="pyarrow", zero_copy_batch=True)
