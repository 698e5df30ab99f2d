"""Corpus token statistics: the classic pre-aggregated wordcount plus a
deterministic top-k — the shuffle-aggregation pattern (partial combine
inside map_batches, then a small groupby over partials; see the Ray
guide "Aggregation at scale")."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from .bucket_tasks import exchange_map_groups
from .text_stats import normalize_expr


def partial_token_counts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: one (token, n) row per distinct token."""
    norm = normalize_expr(batch.column("text")).to_pylist()
    counts: dict = {}
    for t in norm:
        if not t:
            continue
        for w in t.split(" "):
            counts[w] = counts.get(w, 0) + 1
    return pa.Table.from_arrays(
        [
            pa.array(list(counts.keys()), pa.string()),
            pa.array(list(counts.values()), pa.int64()),
        ],
        names=["token", "n"],
    )


def token_counts(docs_ds):
    """(token, n) over the whole corpus — one small shuffle over
    per-batch partials, never over raw tokens."""
    partials = docs_ds.map_batches(
        partial_token_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.groupby("token").aggregate(Sum("n", alias_name="n"))


def top_tokens(docs_ds, k: int = 20):
    """Top-k tokens by count; deterministic tie-break (n desc, token asc).

    The aggregated vocabulary is small, so the final sort/limit runs on
    the aggregate output, not the corpus.
    """
    counts = token_counts(docs_ds)
    # sort+limit over the (small) aggregate, not the corpus
    return counts.sort(["n", "token"], descending=[True, False]).limit(k)


def partial_cooccurrence(batch: pa.Table, window: int) -> pa.Table:
    """Per-batch combiner for windowed co-occurrence: one
    (w1, w2, n_pairs) row per distinct unordered pair in the batch.

    Vectorized over the FLATTENED batch: all tokens in one numpy array
    with a doc index; for each offset d ≤ window, pair token[i] with
    token[i+d] where both sit in the same document — ``window`` strided
    comparisons instead of a per-row loop.
    """
    import numpy as np

    norm = normalize_expr(batch.column("text")).to_pylist()
    toks: list = []
    doc_idx: list = []
    for di, t in enumerate(norm):
        if not t:
            continue
        ws = t.split(" ")
        toks.extend(ws)
        doc_idx.extend([di] * len(ws))
    parts = []
    if toks:
        arr = np.asarray(toks, dtype=object)
        didx = np.asarray(doc_idx, dtype=np.int64)
        for d in range(1, window + 1):
            if d >= len(arr):
                break
            a, b = arr[:-d], arr[d:]
            same = didx[:-d] == didx[d:]
            a, b = a[same], b[same]
            lo = np.where(a <= b, a, b)
            hi = np.where(a <= b, b, a)
            parts.append(pd.DataFrame({"w1": lo, "w2": hi}))
    g = (
        pd.concat(parts, ignore_index=True)
        .groupby(["w1", "w2"], sort=False)
        .size()
        .reset_index(name="n_pairs")
        if parts
        else pd.DataFrame({"w1": [], "w2": [], "n_pairs": []})
    )
    # explicit types: an all-filtered batch (e.g. only one-token docs)
    # would otherwise emit null-typed w1/w2 and drift the stream schema
    return pa.Table.from_arrays(
        [
            pa.array(g["w1"], pa.string()),
            pa.array(g["w2"], pa.string()),
            pa.array(g["n_pairs"], pa.int64()),
        ],
        names=["w1", "w2", "n_pairs"],
    )


def cooccurrence_topk(docs_ds, window: int = 3, k: int = 30):
    """Top-k co-occurring token pairs within ``window`` positions inside
    a document (unordered; the collocation/PMI numerator).  Returns
    (w1, w2, n_pairs) with the deterministic total order
    (n_pairs desc, w1 asc, w2 asc).

    Shuffle discipline: per-batch PARTIAL pair counts combine before
    the groupby, so the exchange carries distinct-pairs-per-batch rows,
    not corpus token positions.  The pair space is vocabulary², so for
    open-vocabulary web text compose with a count cutoff or a
    first-pass vocabulary prune (top_tokens) before widening ``window``
    — the final sort here runs on the aggregated pair table.
    """
    partials = docs_ds.map_batches(
        lambda b: partial_cooccurrence(b, window),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    counts = partials.groupby(["w1", "w2"]).aggregate(
        Sum("n_pairs", alias_name="n_pairs")
    )
    return counts.sort(
        ["n_pairs", "w1", "w2"], descending=[True, False, False]
    ).limit(k)


def partial_bpe_pairs(batch: pa.Table) -> pa.Table:
    """Per-batch adjacent-character-pair counts over word tokens — the
    symbol-pair statistics of BPE training round 1 (each later round
    would re-tokenize against the merges so far; round 1 is pure char
    pairs and is the distributed-counting step that dominates at
    corpus scale)."""
    from collections import Counter

    from .text_stats import normalize_expr

    counts: Counter = Counter()
    for t in normalize_expr(batch.column("text")).to_pylist():
        for w in t.split(" ") if t else []:
            counts.update(w[i : i + 2] for i in range(len(w) - 1))
    keys = list(counts.keys())
    return pa.Table.from_arrays(
        [pa.array(keys, pa.string()), pa.array([counts[k] for k in keys], pa.int64())],
        names=["pair", "n"],
    )


def bpe_pair_counts(docs_ds, k: int = 50):
    """Top-``k`` BPE merge candidates: (pair, n) of adjacent character
    pairs inside word tokens, ordered (n DESC, pair ASC) — the first
    merge BPE training would take (Sennrich et al. 2016), computed
    distributed.

    Scale shape: the pair space is alphabet², so per-batch Counter
    partials collapse each block to at most |Σ|² rows before ONE tiny
    groupby; the sort runs over the aggregated pair table (≤ |Σ|²
    rows), never corpus rows.
    """
    from ray.data.aggregate import Sum

    return (
        docs_ds.map_batches(
            partial_bpe_pairs, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("pair")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "pair"], descending=[True, False])
        .limit(k)
    )


# --------------------------------------------------------------------------
# vocabulary build + encode (tokenizer-construction shape)
# --------------------------------------------------------------------------

#: driver-side (n, bucket) histogram guard for the uncapped rank path
VOCAB_RANK_MAX_HISTOGRAM = 5_000_000


def _md5_hex(token: str) -> str:
    import hashlib

    return hashlib.md5(token.encode()).hexdigest()


def _empty_vocab_table() -> pa.Table:
    """Typed empty (token, token_id, n) table for all-empty corpora."""
    return pa.Table.from_arrays(
        [
            pa.array([], pa.string()),
            pa.array([], pa.int64()),
            pa.array([], pa.int64()),
        ],
        names=["token", "token_id", "n"],
    )


def vocab_frame(vocab_ds) -> pd.DataFrame:
    """Collect a :func:`build_vocab` dataset to pandas, coercing the
    zero-row case to the typed (token, token_id, n) frame — Ray's
    ``to_pandas()`` drops columns on ANY zero-row dataset even when the
    schema is known, so consumers (``encode_docs``, ``cli tokenize``)
    must go through this instead of calling ``to_pandas()`` raw."""
    df = vocab_ds.to_pandas()
    if not len(df):
        return _empty_vocab_table().to_pandas()
    return df


def build_vocab(docs_ds, max_vocab: int | None = None, rank_buckets: int = 256):
    """Frequency-ranked vocabulary over the corpus: (token, token_id, n)
    with ``token_id`` = 0-based rank in the deterministic total order
    ``(n DESC, md5(token) ASC, token ASC)`` — the id assignment step of
    tokenizer training (BPE/unigram both start from exactly this
    ranked count table).  The md5 tie-break is deliberate: it is
    reproducible in SQL (``row_number() OVER (ORDER BY n DESC,
    md5(token), token)``) AND it spreads equal-frequency ties uniformly
    over hash space, which is what makes the distributed rank below
    scale.

    ``max_vocab`` caps the vocabulary at the top-V tokens (the standard
    tokenizer shape; V is model-sized, so the final ranking runs in ONE
    V-bounded block after a per-block prune — same pattern as
    top-k).

    Uncapped, the rank is computed DISTRIBUTED — no global sort, no
    driver-side vocabulary:

    1. per-token md5 + a ``rank_buckets``-way PREFIX bucket of the hex
       (a bucket is a contiguous md5 range, so (n DESC, bucket ASC)
       refines to the total order);
    2. one (n, bucket) count histogram — ``distinct_frequencies ×
       rank_buckets`` rows, reduced to the driver (guarded by
       ``VOCAB_RANK_MAX_HISTOGRAM``; distinct frequencies grow like
       sqrt(corpus tokens), not like the vocabulary);
    3. driver prefix-sums the histogram into per-(n, bucket) base
       offsets, broadcast via ``ray.put``;
    4. one exchange keyed by (n, bucket): each group sorts its own
       ≈|vocab_n|/rank_buckets tokens by (md5, token) and stamps
       ``base + local_ordinal``.
    """
    import ray

    if rank_buckets < 1 or 65536 % rank_buckets:
        raise ValueError(
            f"rank_buckets must divide 65536 (a power of two <= 65536) so a "
            f"bucket is an exact md5-prefix range; got {rank_buckets}"
        )
    if max_vocab is not None and max_vocab < 1:
        raise ValueError(f"max_vocab must be >= 1, got {max_vocab}")
    counts = token_counts(docs_ds)

    def add_hash(b: pa.Table) -> pa.Table:
        toks = b.column("token").to_pylist()
        h = [_md5_hex(t) for t in toks]
        bucket = [int(x[:4], 16) // (65536 // rank_buckets) for x in h]
        return b.append_column("h", pa.array(h, pa.string())).append_column(
            "bucket", pa.array(bucket, pa.int32())
        )

    hashed = counts.map_batches(add_hash, batch_format="pyarrow")

    sort_keys = [
        ("n", "descending"),
        ("h", "ascending"),
        ("token", "ascending"),
    ]

    if max_vocab is not None:

        def prune(b: pa.Table) -> pa.Table:
            if b.num_rows <= max_vocab:
                return b
            idx = pc.sort_indices(b, sort_keys=sort_keys)
            return b.take(idx[:max_vocab])

        def finish(b: pa.Table) -> pa.Table:
            idx = pc.sort_indices(b, sort_keys=sort_keys)
            # the single merged block still holds up to max_vocab rows
            # PER upstream block — the final cut happens here
            b = b.take(idx[:max_vocab])
            import numpy as np

            return pa.Table.from_arrays(
                [
                    b.column("token"),
                    pa.array(np.arange(b.num_rows, dtype=np.int64)),
                    b.column("n"),
                ],
                names=["token", "token_id", "n"],
            )

        capped = (
            hashed.map_batches(prune, batch_format="pyarrow")
            .repartition(1)
            .map_batches(finish, batch_format="pyarrow")
            .materialize()
        )
        # zero-block to_pandas() drops columns even with a known schema
        # (the top_supplier empty-frame pattern): hand callers a typed
        # empty table so encode_docs / cli tokenize degrade cleanly
        if capped.count() == 0:
            return ray.data.from_arrow(_empty_vocab_table())
        return capped

    # ---- uncapped: distributed rank ------------------------------------
    import numpy as np

    def hist_partial(b: pa.Table) -> pa.Table:
        df = b.select(["n", "bucket"]).to_pandas()
        g = df.groupby(["n", "bucket"], sort=False).size().reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    hist = (
        hashed.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["n", "bucket"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )
    n_cells = hist.count()
    if n_cells > VOCAB_RANK_MAX_HISTOGRAM:
        raise ValueError(
            f"build_vocab: (n, bucket) histogram has {n_cells} cells > "
            f"VOCAB_RANK_MAX_HISTOGRAM ({VOCAB_RANK_MAX_HISTOGRAM}) — raise "
            "the guard or lower rank_buckets"
        )
    hdf = hist.to_pandas()
    if not len(hdf):
        return ray.data.from_arrow(_empty_vocab_table())
    hdf = hdf.sort_values(["n", "bucket"], ascending=[False, True]).reset_index(
        drop=True
    )
    base = np.concatenate([[0], np.cumsum(hdf["cnt"].to_numpy(dtype=np.int64))[:-1]])
    offsets = {
        (int(nn), int(bb)): int(off)
        for nn, bb, off in zip(hdf["n"], hdf["bucket"], base)
    }
    off_ref = ray.put(offsets)

    def stamp(g) -> pa.Table:
        g = g.sort_values(["h", "token"], kind="mergesort").reset_index(drop=True)
        off = ray.get(off_ref)[(int(g["n"].iloc[0]), int(g["bucket"].iloc[0]))]
        return pa.Table.from_arrays(
            [
                pa.array(g["token"], pa.string()),
                pa.array(off + np.arange(len(g), dtype=np.int64)),
                pa.array(g["n"], pa.int64()),
            ],
            names=["token", "token_id", "n"],
        )

    return exchange_map_groups(hashed, ["n", "bucket"], stamp, batch_format="pandas")


def encode_docs(docs_ds, max_vocab: int = 4096, rank_buckets: int = 256, vocab_df=None):
    """Encode every document as (doc_id, pos, token_id) rows against
    the top-``max_vocab`` vocabulary of the SAME corpus (the tokenizer
    train-then-encode shape); out-of-vocabulary tokens get id ``-1``
    (UNK).  Empty documents produce no rows.  Pass ``vocab_df`` (a
    (token, token_id) frame from a prior :func:`build_vocab`) to skip
    re-training — the CLI uses this to write the vocab AND the encoded
    corpus from one training pass.

    Scale shape: the capped vocabulary is model-sized by construction,
    so it is collected once and broadcast via ``ray.put`` into a
    map-only vectorized encode pass (flattened token array + one
    factorized dict lookup per batch — no per-row loop, no shuffle)."""
    import numpy as np
    import ray

    from .text_stats import normalize_expr

    if vocab_df is None:
        vocab = build_vocab(docs_ds, max_vocab=max_vocab, rank_buckets=rank_buckets)
        vdf = vocab_frame(vocab)
    else:
        # the cap is part of the documented contract even for a
        # caller-supplied vocabulary: an uncapped build_vocab frame
        # would otherwise silently encode every token with no UNKs
        vdf = vocab_df[vocab_df["token_id"] < max_vocab]
    vmap = dict(zip(vdf["token"], vdf["token_id"].astype(np.int64)))
    vref = ray.put(vmap)

    def enc(b: pa.Table) -> pa.Table:
        norm = normalize_expr(b.column("text"))
        keep = pc.greater(pc.utf8_length(norm), 0)
        doc_id = b.column("doc_id").filter(keep)
        lt = pc.split_pattern(norm.filter(keep), " ")
        flat = pc.list_flatten(lt)
        lens = pc.list_value_length(lt).to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]) if len(lens) else np.array([], dtype=np.int64)
        pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)
        parent = pc.list_parent_indices(lt)
        vm = ray.get(vref)
        ids = (
            pd.Series(flat.to_pylist())
            .map(vm)
            .fillna(-1)
            .astype(np.int64)
            .to_numpy()
        )
        return pa.Table.from_arrays(
            [
                doc_id.take(parent),
                pa.array(pos),
                pa.array(ids),
            ],
            names=["doc_id", "pos", "token_id"],
        )

    return docs_ds.map_batches(enc, batch_format="pyarrow")


# --------------------------------------------------------------------------
# BPE training (Sennrich et al. 2016) — the full iterative merge loop
# --------------------------------------------------------------------------

#: driver-side word-frequency dict guard for bpe_train
BPE_TRAIN_MAX_WORDS = 2_000_000


def _bpe_merge_loop(states: list, n_merges: int) -> tuple:
    """The single source of truth for the merge iteration (shared by
    :func:`bpe_train` and :func:`bpe_encode` so the two can never
    drift): ``states`` is [(padded_symbol_string, freq)]; returns
    (merges, final_states) with merges = [(left, right, n), ...] in
    rank order, stopping early when no pairs remain."""
    merges: list = []
    for _ in range(n_merges):
        pair_counts: dict = {}
        for s, freq in states:
            syms = s.split()
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + freq
        if not pair_counts:
            break
        (left, right), n = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((left, right, n))
        pat, repl = f" {left} {right} ", f" {left}{right} "
        states = [(s.replace(pat, repl), f) for s, f in states]
    return merges, states


def _bpe_apply(word: str, merges: list) -> list:
    """Segment ONE word by replaying the merge list — the OOV path of
    :func:`bpe_encode`; identical replace semantics to the loop."""
    s = " " + " ".join(word) + " "
    for left, right, _n in merges:
        s = s.replace(f" {left} {right} ", f" {left}{right} ")
    return s.split()


def bpe_train(docs_ds, n_merges: int = 8, max_words: int | None = None):
    """Byte-pair-encoding training: learn the first ``n_merges`` merge
    rules over the corpus (Sennrich et al. 2016 — the algorithm behind
    GPT-2/RoBERTa vocabularies).  Returns one row per merge:
    (rank, left, right, n) where (left, right) is the most frequent
    adjacent symbol pair at that round (frequency summed over word
    occurrences) and ``n`` its count; ties break (n DESC, left ASC,
    right ASC).

    Merge semantics contract (chosen to be SQL-replicable AND faithful
    to the reference implementation's behavior class): a word's symbol
    sequence is represented as a space-joined string padded with one
    space on each side, and a merge applies
    ``padded.replace(f" {l} {r} ", f" {l}{r} ")`` — leftmost
    non-overlapping, scan continuing AFTER each replacement (both
    Python ``str.replace`` and DuckDB ``replace`` do exactly this, so
    a run of four identical symbols merges 1st+2nd but not 3rd+4th in
    the same pass, just like the published re.sub implementation).

    Scale shape: the CORPUS work is one distributed word-count pass
    (the same partial-combine + groupby as ``token_counts``); the
    merge loop then runs driver-side over the word-FREQUENCY dict —
    exactly how the published trainers work, because the dict grows
    sublinearly (Heaps' law) while the corpus grows linearly.  The
    dict is guarded by ``max_words`` (default
    ``BPE_TRAIN_MAX_WORDS``); past it, pre-filter rare words
    (min-frequency) upstream — a documented knob, not a silent cap."""
    if n_merges < 1:
        raise ValueError(f"bpe_train: n_merges must be >= 1, got {n_merges}")
    limit = BPE_TRAIN_MAX_WORDS if max_words is None else max_words

    counts = token_counts(docs_ds).materialize()
    n_words = counts.count()
    if n_words > limit:
        raise ValueError(
            f"bpe_train: {n_words} distinct words exceed the driver-dict "
            f"guard ({limit}) — min-frequency-filter the corpus first or "
            "raise max_words"
        )
    rows = counts.take_all()
    # symbol string per word: ' c h a r s ' (padded space-join)
    words = [(" " + " ".join(r["token"]) + " ", int(r["n"])) for r in rows]
    merges, _states = _bpe_merge_loop(words, n_merges)

    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "left": pa.array([m[0] for m in merges], pa.string()),
            "right": pa.array([m[1] for m in merges], pa.string()),
            "n": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


def bpe_encode(docs_ds, n_merges: int = 8, max_words: int | None = None):
    """Encode every document into BPE subword pieces under merges
    trained on the SAME corpus (the train-then-apply tokenizer shape,
    companion of :func:`bpe_train`).  Returns flattened rows
    (doc_id, word_pos, piece_pos, piece): word_pos is the word's
    0-based position in the normalized document, piece_pos the piece's
    0-based position within the word after applying all merges in rank
    order.  Empty documents emit no rows.

    Scale shape: training as in :func:`bpe_train` (one corpus pass +
    the driver merge loop); the word→pieces table is the word dict
    itself (guarded, model-scale), broadcast once via ``ray.put`` into
    a map-only encode; a word unseen at train time (impossible here,
    where train and apply corpora coincide, but reachable through the
    public API) is segmented by applying the SAME merge list on the
    fly — identical algorithm, no silent divergence."""
    import numpy as np
    import ray

    if n_merges < 1:
        raise ValueError(f"bpe_encode: n_merges must be >= 1, got {n_merges}")
    limit = BPE_TRAIN_MAX_WORDS if max_words is None else max_words

    counts = token_counts(docs_ds).materialize()
    n_words = counts.count()
    if n_words > limit:
        raise ValueError(
            f"bpe_encode: {n_words} distinct words exceed the driver-dict "
            f"guard ({limit}) — min-frequency-filter the corpus first or "
            "raise max_words"
        )
    rows = counts.take_all()
    tokens = [r["token"] for r in rows]
    states = [
        (" " + " ".join(r["token"]) + " ", int(r["n"])) for r in rows
    ]
    merges, final_states = _bpe_merge_loop(states, n_merges)
    pieces_by_word = {
        w: s.split() for w, (s, _f) in zip(tokens, final_states)
    }
    ref = ray.put((pieces_by_word, tuple(merges)))

    import pyarrow.compute as pc

    from .text_stats import normalize_expr

    def enc(b: pa.Table) -> pa.Table:
        table, mg = ray.get(ref)
        norm = normalize_expr(b.column("text"))
        keep = pc.greater(pc.utf8_length(norm), 0)
        doc_id = b.column("doc_id").filter(keep).to_pylist()
        texts = norm.filter(keep).to_pylist()
        out_d, out_w, out_p, out_piece = [], [], [], []
        for did, t in zip(doc_id, texts):
            for wi, w in enumerate(t.split(" ")):
                ps = table.get(w)
                if ps is None:
                    ps = _bpe_apply(w, mg)
                for pi, piece in enumerate(ps):
                    out_d.append(did)
                    out_w.append(wi)
                    out_p.append(pi)
                    out_piece.append(piece)
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "word_pos": pa.array(np.asarray(out_w, dtype=np.int64)),
                "piece_pos": pa.array(np.asarray(out_p, dtype=np.int64)),
                "piece": pa.array(out_piece, pa.string()),
            }
        )

    return docs_ds.map_batches(enc, batch_format="pyarrow")
