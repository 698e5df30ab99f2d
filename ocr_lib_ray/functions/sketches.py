"""Mergeable sketches as custom Ray Data aggregates.

HyperLogLog (dense, 2^p registers, md5-hashed, fully deterministic)
wired through ``ray.data.aggregate.AggregateFn`` with
``accumulate_block`` — each block updates a register array vectorized in
numpy, partial sketches merge with an elementwise max, and only the
finalize step estimates.  The groupby therefore shuffles 2^p-byte
sketches, never rows — the sketch-combiner pattern from the Ray guide
("sketches are designed to be mergeable").

The value hash is the md5 UPPER 64 bits little-endian — exactly DuckDB's
``md5_number_upper`` — so the whole sketch (registers, estimator, linear
counting) is reproducible in SQL and the approx_distinct driver query
carries a full hash oracle (round 3; was blake2b + rows-only).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
from ray.data.aggregate import AggregateFn

from .joins import run_bucket_groups

DEFAULT_P = 12  # 4096 registers, ~1.6% standard error


def _hash64(values) -> np.ndarray:
    """Stable 64-bit hashes: md5 upper half, little-endian — byte-equal
    to DuckDB ``md5_number_upper(CAST(v AS VARCHAR))`` (the SQL-oracle
    parity requirement; see module docstring)."""
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(v).encode("utf-8")).digest()[:8], "little")
            for v in values
        ),
        dtype=np.uint64,
        count=len(values),
    )


def hll_update(registers: np.ndarray, values, p: int = DEFAULT_P) -> np.ndarray:
    """Vectorized register update for a batch of values."""
    if len(values) == 0:
        return registers
    h = _hash64(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits in the high positions
    # rank = leading zeros of `rest` + 1, capped at 64-p+1
    rank = np.full(len(h), 64 - p + 1, dtype=np.uint8)
    nz = rest != 0
    # leading zeros via bit_length: lz = 64 - bit_length(rest)
    bl = np.zeros(len(h), dtype=np.uint8)
    v = rest[nz]
    lengths = np.frompyfunc(lambda x: int(x).bit_length(), 1, 1)(v).astype(np.uint8)
    bl[nz] = lengths
    rank[nz] = (64 - bl[nz] + 1).astype(np.uint8)
    np.maximum.at(registers, idx, rank)
    return registers


def hll_estimate(registers: np.ndarray) -> float:
    """Standard HLL estimator with small-range (linear counting) and
    bias corrections."""
    m = registers.size
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.count_nonzero(registers == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # linear counting
    return float(est)


def hll_aggregate(on: str, p: int = DEFAULT_P, alias_name: str = "approx_distinct"):
    """AggregateFn: approx-distinct of column ``on`` (groupable)."""

    def init(_key):
        return np.zeros(1 << p, dtype=np.uint8)

    def accumulate_block(regs: np.ndarray, block) -> np.ndarray:
        col = (
            block.column(on).to_pylist()
            if isinstance(block, pa.Table)
            else block[on].tolist()
        )
        return hll_update(regs.copy(), col, p)

    def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum(a, b)

    def finalize(regs: np.ndarray) -> int:
        return int(round(hll_estimate(regs)))

    return AggregateFn(
        init=init,
        merge=merge,
        name=alias_name,
        accumulate_block=accumulate_block,
        finalize=finalize,
    )


def approx_distinct_users_per_type(events_ds, p: int = DEFAULT_P):
    """(event_type, approx_distinct_users) via mergeable HLL sketches."""
    return events_ds.groupby("event_type").aggregate(
        hll_aggregate("user_id", p, alias_name="approx_distinct_users")
    )


# ---------------------------------------------------------------------------
# Bloom filter: constant-memory crawl-over-crawl membership.
#
# dedup_against_reference (functions/dedup.py) pays one bucketed
# all-to-all on the REFERENCE fingerprints every crawl; the Bloom path
# reduces the prior corpus ONCE to an m-bit array (mergeable by OR,
# sized to memory: ~10 bits/key at 1% FPR, so 3B keys ~= 4 GiB), ships
# it via ray.put (zero-copy reads — numpy uint8 over plasma), and makes
# every subsequent crawl's filter a broadcast map_batches with ZERO
# shuffle.  The trade is a deterministic false-positive rate: a tiny
# over-drop of new documents, which is exactly the trade production
# crawl dedup makes (a dropped unique page costs little; a shuffle of
# the full historical corpus per crawl costs a lot).
#
# Probes are Kirsch-Mitzenmacher double hashing on the md5 halves of
# the normalized text — DuckDB's md5_number_lower / md5_number_upper —
#     h1   = md5_lower64(nm) % m
#     step = md5_upper64(nm) % (m-1) + 1
#     pos_i = (h1 + i*step) % m          for i in 0..k-1
# so the whole filter, FALSE POSITIVES INCLUDED, is bit-exactly
# reproducible in SQL (the dedup_bloom driver oracle).
#
# Build is sharded so no worker ever holds the full bitmap: batches
# emit distinct probe positions (8 B rows — less than shuffling 32 B
# fingerprints), one exchange by shard packs each bit-range on its own
# worker, and the driver assembles the ≤ m/8-byte result from the
# per-shard binaries.
# ---------------------------------------------------------------------------

DEFAULT_BLOOM_M = 1 << 20  # 128 KiB — sandbox default; size to memory at scale
DEFAULT_BLOOM_K = 4


def _md5_halves(texts) -> tuple[np.ndarray, np.ndarray]:
    """(lower64, upper64) md5 halves, little-endian — byte-equal to
    DuckDB md5_number_lower / md5_number_upper."""
    lo = np.empty(len(texts), dtype=np.uint64)
    hi = np.empty(len(texts), dtype=np.uint64)
    for j, t in enumerate(texts):
        d = hashlib.md5((t or "").encode("utf-8")).digest()
        lo[j] = int.from_bytes(d[8:], "little")
        hi[j] = int.from_bytes(d[:8], "little")
    return lo, hi


def bloom_positions(texts, m_bits: int = DEFAULT_BLOOM_M, k: int = DEFAULT_BLOOM_K) -> np.ndarray:
    """(n, k) int64 probe positions for each text (double hashing)."""
    if len(texts) == 0:
        return np.empty((0, k), dtype=np.int64)
    lo, hi = _md5_halves(texts)
    h1 = (lo % np.uint64(m_bits)).astype(np.int64)
    step = (hi % np.uint64(m_bits - 1)).astype(np.int64) + 1
    i = np.arange(k, dtype=np.int64)[None, :]
    return (h1[:, None] + i * step[:, None]) % m_bits


def bloom_build(
    ds,
    text_col: str = "text",
    m_bits: int = DEFAULT_BLOOM_M,
    k: int = DEFAULT_BLOOM_K,
    num_shards: int = 16,
) -> np.ndarray:
    """Build the m-bit Bloom bitmap of ``ds``'s normalized ``text_col``
    as a uint8 array (LSB-first within each byte).

    Sharded build: batches emit per-batch-DISTINCT positions, an
    exchange by shard packs each byte-aligned bit range on its own worker
    (peak per-worker memory m/(8*num_shards), not m/8), and the driver
    assembles the final ≤ m/8 + 7*num_shards bytes.  Deterministic for
    any batch size / shard count (bits are ORed, order-free).
    """
    import pandas as pd

    from .text_stats import normalize_expr

    shard_bytes = -(-m_bits // (8 * num_shards))  # ceil, byte-aligned shards
    shard_bits = shard_bytes * 8

    def pos_rows(b: pa.Table) -> pa.Table:
        texts = normalize_expr(b.column(text_col)).to_pylist()
        p = np.unique(bloom_positions(texts, m_bits, k))
        return pa.Table.from_arrays(
            [pa.array((p // shard_bits).astype(np.int64)), pa.array(p)],
            names=["shard", "pos"],
        )

    def pack_shard(g: pd.DataFrame) -> pd.DataFrame:
        s = int(g["shard"].iloc[0])
        local = np.zeros(shard_bytes, dtype=np.uint8)
        rel = g["pos"].to_numpy(dtype=np.int64) - s * shard_bits
        np.bitwise_or.at(local, rel >> 3, np.uint8(1) << (rel & 7).astype(np.uint8))
        return pd.DataFrame({"shard": [s], "bits": [local.tobytes()]})

    parts = run_bucket_groups(
        ds.map_batches(pos_rows, batch_format="pyarrow"),
        num_shards,
        pack_shard,
        bucket_col_name="shard",
    ).take_all()
    bitmap = np.zeros(num_shards * shard_bytes, dtype=np.uint8)
    for row in parts:
        s = int(row["shard"])
        bitmap[s * shard_bytes : (s + 1) * shard_bytes] = np.frombuffer(
            row["bits"], dtype=np.uint8
        )
    return bitmap


def bloom_test(bitmap: np.ndarray, texts, m_bits: int, k: int) -> np.ndarray:
    """Vectorized membership: True where ALL k probe bits are set
    (member of the built set, or a deterministic false positive)."""
    pos = bloom_positions(texts, m_bits, k)
    if pos.size == 0:
        return np.zeros(0, dtype=bool)
    bits = (bitmap[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bits.all(axis=1)


def bloom_filter_against(
    new_ds,
    bitmap: np.ndarray,
    text_col: str = "text",
    m_bits: int = DEFAULT_BLOOM_M,
    k: int = DEFAULT_BLOOM_K,
):
    """Drop rows of ``new_ds`` whose normalized ``text_col`` hits the
    Bloom bitmap of a prior corpus — broadcast filter, zero shuffle."""
    import ray

    from .text_stats import normalize_expr

    ref = ray.put(bitmap)

    def flt(b: pa.Table) -> pa.Table:
        bm = ray.get(ref)
        texts = normalize_expr(b.column(text_col)).to_pylist()
        dup = bloom_test(bm, texts, m_bits, k)
        return b.filter(pa.array(~dup))

    return new_ds.map_batches(flt, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch (Cormode & Muthukrishnan 2005): approximate token
# frequencies in d×w counters regardless of vocabulary size.  Hashing is
# the same Kirsch-Mitzenmacher md5 double-hash as the Bloom filter —
#     h1   = md5_lower64(tok) % w
#     step = md5_upper64(tok) % (w-1) + 1
#     pos_r = (h1 + r*step) % w        for r in 0..d-1
# so the whole sketch, COLLISION OVERESTIMATES INCLUDED, is bit-exactly
# reproducible in SQL (the countmin_topk driver oracle).
#
# Build shape (100 TB): per-batch partials emit (row, pos, cnt) cells —
# at most d × distinct-tokens-per-batch rows — through ONE groupby of
# the d·w cell space (65k rows at the defaults), never corpus rows;
# candidate exact counts ride the same shuffle on reserved row = -1
# cells, so the whole op is one pass + one tiny aggregate.
# ---------------------------------------------------------------------------

DEFAULT_CMS_D = 4
DEFAULT_CMS_W = 1 << 14


def countmin_estimate(
    ds,
    candidates,
    text_col: str = "text",
    d: int = DEFAULT_CMS_D,
    w: int = DEFAULT_CMS_W,
):
    """(token, est_count, exact_count) for each candidate token:
    ``est_count`` = min over the d counter rows the token hashes into
    (the CMS point query — an overestimate exactly when another token
    collides in all d rows), ``exact_count`` = the true corpus
    occurrence count, carried through the same shuffle so the error is
    observable.  Candidates absent from the corpus estimate 0 unless
    every row collides.  Returns a pyarrow Table (candidate-sized).
    """
    from ray.data.aggregate import Sum

    from .text_stats import normalize_expr

    cand = sorted(set(candidates))
    cand_idx = {t: i for i, t in enumerate(cand)}

    def partials(b: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in normalize_expr(b.column(text_col)).to_pylist():
            counts.update(t.split(" ") if t else [])
        toks = list(counts.keys())
        rows, poss, cnts = [], [], []
        if toks:
            pos = bloom_positions(toks, w, d)  # same double-hash, k=d probes
            for j, tok in enumerate(toks):
                c = counts[tok]
                for r in range(d):
                    rows.append(r)
                    poss.append(int(pos[j, r]))
                    cnts.append(c)
                ci = cand_idx.get(tok)
                if ci is not None:  # exact count on the reserved row
                    rows.append(-1)
                    poss.append(ci)
                    cnts.append(c)
        return pa.Table.from_arrays(
            [
                pa.array(rows, pa.int64()),
                pa.array(poss, pa.int64()),
                pa.array(cnts, pa.int64()),
            ],
            names=["r", "pos", "cnt"],
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["r", "pos"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    cells: dict = {}
    exact = [0] * len(cand)
    for b in agg.iter_batches(batch_format="pyarrow"):
        for r, pos, cnt in zip(
            b.column("r").to_pylist(),
            b.column("pos").to_pylist(),
            b.column("cnt").to_pylist(),
        ):
            if r == -1:
                exact[pos] = cnt
            else:
                cells[(r, pos)] = cnt
    if cand:
        cpos = bloom_positions(cand, w, d)
    ests = [
        min(cells.get((r, int(cpos[i, r])), 0) for r in range(d))
        for i in range(len(cand))
    ]
    return pa.Table.from_arrays(
        [
            pa.array(cand, pa.string()),
            pa.array(ests, pa.int64()),
            pa.array(exact, pa.int64()),
        ],
        names=["token", "est_count", "exact_count"],
    )
