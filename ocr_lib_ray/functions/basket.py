"""Market-basket association mining over the order⋈part bipartite
graph: pair support and lift (the Apriori/association-rules first
level, Agrawal & Srikant 1994) — which parts are bought together more
often than independence predicts.

The reference engine's set-ops + count reducers (SURVEY §2.6) compose
into this shape; it is also the co-purchase cousin of the
co-occurrence and triangle operators already in the repo.

Exactness: every statistic is an integer count; lift is emitted as
``lift_micro = (n_pair · n_orders · 1e6) // (n_a · n_b)`` computed in
arbitrary-precision Python ints (the DuckDB oracle uses HUGEINT for
the same intermediate), so the result is bit-exact at any block
layout.  The int64 OUTPUT bound is lift_micro ≤ 1e6 · n_orders /
max(n_a, n_b) — overflow needs one part pair to dominate a >9e12-order
corpus; documented, not silently wrong.

Scale shape: ONE orderkey exchange groups each order's lines; the
group fn dedups parts and emits a tagged union (pair partials / per-
order part rows / one order-marker row), so downstream aggregates run
over pre-thinned streams: the pair groupby is bounded by distinct
co-purchase pairs, the part groupby by the catalog, and the order
count reduces to a scalar without any shuffle.  The two enrichment
joins (pair → n_a, pair → n_b) are bucketed hash joins — the part
count table scales with the catalog and is never broadcast.  A
pathological giant order would emit O(items²) pairs; the
``max_items_per_order`` guard raises instead of melting a worker
(salt such an order by item-range and merge pair partials if it is
ever real).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from .joins import hash_join

__all__ = ["copurchase_lift"]

#: driver-side SON candidate-set guard — locally-frequent pairs are
#: model-sized by construction, but a pathological (min_support,
#: num_partitions) pair could still explode; raise loudly instead
SON_MAX_CANDIDATES = 5_000_000

#: part_counts rows at or below this broadcast into the lift annotation
#: (two int64 arrays ≈ 80 MB at the bound) instead of paying two
#: bucketed exchanges; above it the exact hash-join path runs
PART_COUNTS_BROADCAST_MAX = 5_000_000


def copurchase_lift(
    lineitem_ds,
    min_support: int = 2,
    max_items_per_order: int = 10_000,
    num_partitions: int | None = None,
    son_prune: bool = True,
):
    """(part_a, part_b, n_pair, n_a, n_b, lift_micro) for every
    unordered part pair co-occurring in at least ``min_support``
    distinct orders; ``part_a < part_b``; duplicate lines of the same
    part within one order count once (DISTINCT basket semantics).

    SON candidate filter (Savasere–Omiecinski–Navathe two-pass shape,
    round 4): each bucket marks pairs reaching LOCAL support
    ``L = ceil(min_support / num_partitions)`` as candidates; a pair
    below L in every one of the P buckets totals at most P·(L−1) <
    min_support, so every frequent pair is a candidate somewhere.  The
    candidate set (bounded, guarded by ``SON_MAX_CANDIDATES``) is
    collected once and broadcast, and the pair-groupby exchange then
    ships ONLY candidate partials — counted over ALL their partials, so
    the final counts (and the output) are bit-identical to the
    unpruned path (tested).  The filter only bites when
    ``min_support > num_partitions`` (L = 1 marks everything
    otherwise — a cross-bucket pair of singletons can still reach
    support 2); the dropped-partial count is logged so the reduction
    is never silent."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)

    def prep(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey")
        if ok.null_count or b.column("l_partkey").null_count:
            raise ValueError(
                "copurchase_lift: null l_orderkey/l_partkey values are "
                "unsupported — filter them first (pandas would silently "
                "drop the basket while the SQL DISTINCT keeps the row)"
            )
        # bucket the exchange (the repo's per-key-sort pattern): one
        # group = many whole orders, so the group fn runs P times, not
        # #orders times; vectorized integer hash, no per-row loop
        from .joins import bucket_ints

        bk = bucket_ints(
            np.asarray(ok.to_numpy(zero_copy_only=False)), num_partitions
        )
        return pa.table(
            {
                "ok": ok,
                "pk": b.column("l_partkey"),
                "bucket": pa.array(bk, pa.int32()),
            }
        )

    # SON local threshold: sound superset filter (see docstring)
    local_min = (
        -(-min_support // max(num_partitions, 1)) if son_prune else 1
    )

    def per_order(g: pd.DataFrame) -> pa.Table:
        # the bucketed group may hold MANY orders: dedup (ok, pk) then
        # emit per-order pair partials vectorized over the whole group
        u = g[["ok", "pk"]].drop_duplicates()
        sizes = u.groupby("ok", sort=False)["pk"].transform("size")
        if (sizes > max_items_per_order).any():
            big = int(u.loc[sizes.idxmax(), "ok"])
            raise ValueError(
                f"copurchase_lift: order {big} has more than "
                f"{max_items_per_order} distinct parts — pair expansion "
                "would be quadratic; raise max_items_per_order or salt "
                "the order by item range"
            )
        u = u.sort_values(["ok", "pk"], kind="mergesort")
        ok = u["ok"].to_numpy()
        pk = u["pk"].to_numpy()
        # pairs via per-order offset expansion (no Python loop over
        # rows): for each strided offset d, pair row i with row i+d
        # while both are in the same order
        parts_a, parts_b = [], []
        max_sz = int(u.groupby("ok", sort=False)["pk"].size().max()) if len(u) else 0
        for d in range(1, max_sz):
            same = ok[d:] == ok[:-d]
            if not same.any():
                break
            parts_a.append(pk[:-d][same])
            parts_b.append(pk[d:][same])
        if parts_a:
            pdf = pd.DataFrame(
                {
                    "part_a": np.concatenate(parts_a),
                    "part_b": np.concatenate(parts_b),
                }
            )
            pairs = (
                pdf.groupby(["part_a", "part_b"], sort=False)
                .size()
                .reset_index(name="n")
            )
        else:
            pairs = pd.DataFrame({"part_a": [], "part_b": [], "n": []})
        # SON pass 1: pairs reaching local support are CANDIDATES; the
        # partials themselves all ride (candidates are re-counted over
        # every bucket, so the final counts are exact)
        cand = (
            pairs[pairs["n"] >= local_min]
            if local_min > 1 and len(pairs)
            else pairs.iloc[0:0]
        )
        parts = u.groupby("pk", sort=False).size().reset_index(name="n")
        n_orders = u["ok"].nunique()
        # tagged union: kind 0 = pair partial, 1 = part partial,
        # 2 = order-count partial (part_a/part_b zero-filled),
        # 3 = SON candidate marker (only emitted when local_min > 1)
        z = np.int64(0)
        return pa.Table.from_arrays(
            [
                pa.array(
                    np.concatenate(
                        [
                            pairs["part_a"].to_numpy(dtype=np.int64),
                            parts["pk"].to_numpy(dtype=np.int64),
                            np.array([z]),
                            cand["part_a"].to_numpy(dtype=np.int64),
                        ]
                    )
                ),
                pa.array(
                    np.concatenate(
                        [
                            pairs["part_b"].to_numpy(dtype=np.int64),
                            np.zeros(len(parts), np.int64),
                            np.array([z]),
                            cand["part_b"].to_numpy(dtype=np.int64),
                        ]
                    )
                ),
                pa.array(
                    np.concatenate(
                        [
                            pairs["n"].to_numpy(dtype=np.int64),
                            parts["n"].to_numpy(dtype=np.int64),
                            np.array([np.int64(n_orders)]),
                            np.ones(len(cand), np.int64),
                        ]
                    )
                ),
                pa.array(
                    np.concatenate(
                        [
                            np.zeros(len(pairs), np.int8),
                            np.ones(len(parts), np.int8),
                            np.array([2], np.int8),
                            np.full(len(cand), 3, np.int8),
                        ]
                    )
                ),
            ],
            names=["part_a", "part_b", "n", "kind"],
        )

    from .joins import run_bucket_groups

    tagged = run_bucket_groups(
        lineitem_ds.map_batches(prep, batch_format="pyarrow"),
        num_partitions,
        per_order,
    ).materialize()  # three consumers; already reduced to partials

    def kind_eq(k: int):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("kind"), k))

        return f

    # n_orders + part counts: both finals are BOUNDED (one kind-2 row
    # per bucket; kind-1 partials <= buckets x catalog, and SKU catalogs
    # stay bounded even under a 100 TB fact table) — so ADAPTIVELY
    # (round 5) reduce them on the driver from ONE streamed scan of the
    # materialized partials instead of {a Sum pass + a catalog groupby
    # exchange + its materialize}.  The stream aborts past the cap and
    # falls back to the exchange, nothing unbounded ever lands.
    n_orders = 0
    pk_parts: list = []
    n_meta = 0
    meta12 = tagged.map_batches(
        lambda b: b.filter(
            pc.and_(pc.greater_equal(b.column("kind"), 1), pc.less_equal(b.column("kind"), 2))
        ).select(["part_a", "n", "kind"]),
        batch_format="pyarrow",
    )
    for mb in meta12.iter_batches(batch_format="pyarrow"):
        n_meta += mb.num_rows
        if n_meta > PART_COUNTS_BROADCAST_MAX:
            pk_parts = None
            break
        kinds = mb.column("kind").to_numpy(zero_copy_only=False)
        nv = np.asarray(mb.column("n").to_numpy(zero_copy_only=False), np.int64)
        n_orders += int(nv[kinds == 2].sum())
        m1 = kinds == 1
        pk_parts.append(
            (
                np.asarray(
                    mb.column("part_a").to_numpy(zero_copy_only=False), np.int64
                )[m1],
                nv[m1],
            )
        )
    if pk_parts is not None:
        if pk_parts:
            pk_all = np.concatenate([p[0] for p in pk_parts])
            nv_all = np.concatenate([p[1] for p in pk_parts])
            o = np.argsort(pk_all, kind="stable")
            pk_all, nv_all = pk_all[o], nv_all[o]
            starts = np.flatnonzero(
                np.concatenate([[True], pk_all[1:] != pk_all[:-1]])
            ) if len(pk_all) else np.zeros(0, np.int64)
            pk_u = pk_all[starts]
            np_u = np.add.reduceat(nv_all, starts).astype(np.int64) if len(starts) else np.zeros(0, np.int64)
        else:
            pk_u = np_u = np.zeros(0, np.int64)
        part_counts = None
    else:
        # fallback: the original catalog-sized exchange
        n_orders = int(
            tagged.map_batches(kind_eq(2), batch_format="pyarrow").aggregate(
                Sum("n", alias_name="s")
            )["s"]
            or 0
        )
        part_counts = (
            tagged.map_batches(kind_eq(1), batch_format="pyarrow")
            .map_batches(
                lambda b: b.select(["part_a", "n"]).rename_columns(["pk", "n"]),
                batch_format="pyarrow",
            )
            .groupby("pk")
            .aggregate(Sum("n", alias_name="n_p"))
            .materialize()  # catalog-sized; joined twice below, and
            # hash_join's schema probe would execute the lazy groupby anyway
        )
    pair_stream = tagged.map_batches(kind_eq(0), batch_format="pyarrow")
    if local_min > 1:
        # SON pass 2: only candidate partials enter the pair exchange.
        # Candidates are bounded (locally frequent in >= 1 bucket) and
        # the take is guarded, never corpus-sized.
        import logging

        import ray

        cand_rows = (
            tagged.map_batches(kind_eq(3), batch_format="pyarrow")
            .groupby(["part_a", "part_b"])
            .count()
            .select_columns(["part_a", "part_b"])
            .take_all()
        )
        if len(cand_rows) > SON_MAX_CANDIDATES:
            raise ValueError(
                f"copurchase_lift: {len(cand_rows)} SON candidates exceed "
                f"SON_MAX_CANDIDATES ({SON_MAX_CANDIDATES}) — lower "
                "num_partitions, raise min_support, or pass son_prune=False"
            )
        # combined key built in numpy int64 on BOTH sides (same wrap
        # semantics); a collision can only keep an extra non-candidate
        # partial — counts stay exact either way
        cand_a = np.fromiter(
            (r["part_a"] for r in cand_rows), np.int64, count=len(cand_rows)
        )
        cand_b = np.fromiter(
            (r["part_b"] for r in cand_rows), np.int64, count=len(cand_rows)
        )
        cand_keys = np.sort((cand_a << 32) | cand_b)
        cand_ref = ray.put(cand_keys)
        total_partials = pair_stream.count()

        def keep_candidates(b: pa.Table) -> pa.Table:
            keys = (
                b.column("part_a").to_numpy(zero_copy_only=False).astype(np.int64)
                << 32
            ) | b.column("part_b").to_numpy(zero_copy_only=False).astype(np.int64)
            mask = np.isin(keys, ray.get(cand_ref))
            return b.filter(pa.array(mask))

        pair_stream = pair_stream.map_batches(
            keep_candidates, batch_format="pyarrow"
        ).materialize()
        logging.getLogger(__name__).info(
            "copurchase_lift SON filter: %d of %d pair partials survive "
            "(%d candidates at local support %d, min_support=%d over %d "
            "buckets)",
            pair_stream.count(),
            total_partials,
            len(cand_keys),
            local_min,
            min_support,
            num_partitions,
        )
    from .bucket_tasks import exchange_map_groups
    from .joins import bucket_int_pairs

    def pair_sum_group(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("part_a").to_numpy(zero_copy_only=False), np.int64)
        bb = np.asarray(t.column("part_b").to_numpy(zero_copy_only=False), np.int64)
        n = np.asarray(t.column("n").to_numpy(zero_copy_only=False), np.int64)
        o = np.lexsort((bb, a))
        a, bb, n = a[o], bb[o], n[o]
        first = np.ones(len(a), dtype=bool)
        first[1:] = (a[1:] != a[:-1]) | (bb[1:] != bb[:-1])
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(n, starts).astype(np.int64)
        keep = sums >= min_support
        return pa.Table.from_arrays(
            [pa.array(a[starts][keep]), pa.array(bb[starts][keep]), pa.array(sums[keep])],
            names=["part_a", "part_b", "n_pair"],
        )

    # the pair Sum is the dominant exchange of this operator: the
    # split-side pre_fn ships ONLY kind-0 rows.  Both pair_stream
    # variants are views over MATERIALIZED blocks (tagged, or the
    # SON-filtered materialization), so the source dataset re-reads
    # blocks, never re-executes lineage.
    pairs = exchange_map_groups(
        tagged if local_min <= 1 else pair_stream,
        lambda t: bucket_int_pairs(
            np.asarray(t.column("part_a").to_numpy(zero_copy_only=False), np.int64),
            np.asarray(t.column("part_b").to_numpy(zero_copy_only=False), np.int64),
            num_partitions,
        ),
        pair_sum_group,
        num_partitions,
        pre_fn=lambda t: t.filter(pc.equal(t.column("kind"), 0)).select(
            ["part_a", "part_b", "n"]
        ),
    )

    # lift annotation: every surviving pair needs (n_a, n_b) from the
    # catalog-sized part_counts table.  ADAPTIVE (round 5): when the
    # count table fits a broadcast (≤ PART_COUNTS_BROADCAST_MAX rows —
    # SKU catalogs usually do even when the fact table is 100 TB), ship
    # it once via ray.put and annotate map-side with two searchsorted
    # lookups, saving TWO bucketed exchanges; past the bound, fall back
    # to the exact same bucketed hash joins (bit-identical output —
    # inner joins on keys that exist by construction).
    if part_counts is None or part_counts.count() <= PART_COUNTS_BROADCAST_MAX:
        import ray

        if part_counts is None:
            counts_ref = ray.put((pk_u, np_u))  # already driver-reduced, sorted
        else:
            rows = part_counts.take_all()
            pk_arr = np.fromiter((r["pk"] for r in rows), np.int64, count=len(rows))
            np_arr = np.fromiter((r["n_p"] for r in rows), np.int64, count=len(rows))
            o = np.argsort(pk_arr)
            counts_ref = ray.put((pk_arr[o], np_arr[o]))

        def add_counts(b: pa.Table) -> pa.Table:
            keys, vals = ray.get(counts_ref)

            def look(col):
                x = np.asarray(
                    b.column(col).to_numpy(zero_copy_only=False), dtype=np.int64
                )
                pos = np.searchsorted(keys, x)
                if pos.max(initial=-1) >= len(keys) or not (keys[pos] == x).all():
                    raise ValueError(
                        "copurchase_lift: pair part missing from part_counts "
                        "(every pair part has a kind-1 row by construction)"
                    )
                return vals[pos]

            return b.append_column("n_a_r", pa.array(look("part_a"))).append_column(
                "n_b_r", pa.array(look("part_b"))
            )

        with_b = pairs.map_batches(add_counts, batch_format="pyarrow")
    else:
        with_a = hash_join(
            pairs,
            part_counts.map_batches(
                lambda b: b.rename_columns(["part_a", "n_a"]), batch_format="pyarrow"
            ),
            "part_a",
            right_value_cols=["n_a"],
            how="inner",
            num_partitions=num_partitions,
        )
        with_b = hash_join(
            with_a,
            part_counts.map_batches(
                lambda b: b.rename_columns(["part_b", "n_b"]), batch_format="pyarrow"
            ),
            "part_b",
            right_value_cols=["n_b"],
            how="inner",
            num_partitions=num_partitions,
        )

    def lift(b: pa.Table) -> pa.Table:
        np_ = b.column("n_pair").to_pylist()
        na = b.column("n_a_r").to_pylist()
        nb = b.column("n_b_r").to_pylist()
        # arbitrary-precision intermediate == the oracle's HUGEINT
        lm = [
            (p * n_orders * 1_000_000) // (a * bb)
            for p, a, bb in zip(np_, na, nb)
        ]
        return pa.Table.from_arrays(
            [
                b.column("part_a"),
                b.column("part_b"),
                b.column("n_pair"),
                pa.array(na, pa.int64()),
                pa.array(nb, pa.int64()),
                pa.array(lm, pa.int64()),
            ],
            names=["part_a", "part_b", "n_pair", "n_a", "n_b", "lift_micro"],
        )

    return with_b.map_batches(lift, batch_format="pyarrow")
