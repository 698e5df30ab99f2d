"""Link-graph ranking (training-data op): PageRank power iteration
over an edge table — the domain-rank quality-prior shape web-corpus
curation uses (host-graph centrality as a crawl-priority / quality
weight, e.g. the published Common Crawl host ranks).

Exactness: ranks live in integer MICRO-units (r0 = 1_000_000), the
per-edge share is ``r // outdeg``, the damped update is
``base + (d_num * (incoming + dangling // N)) // d_den`` — every
quantity a non-negative int64, every division a floor, so the result
is order-free, batch-size-free, and bit-equal to the unrolled-CTE SQL
oracle (DuckDB ``//`` truncates toward zero, which equals floor on the
non-negative domain; the engine never produces a negative rank).
Bound: per-node incoming mass <= total rank mass ~= N * 2.2e6; the
whole update is int64 end-to-end.  The binding term is
``DAMP_NUM * (inc + share)`` in wave B of :func:`_pagerank_tasks_loop`
— an 85× int64 multiply that numpy wraps silently — so exactness holds
while TOTAL rank mass stays below 2^63 / DAMP_NUM, i.e. N up to ~5e10
nodes.

Scale shape: setup is two bucket exchanges (distinct edges, then the
seeded node state with out-degrees); then the edges and the state are
exchanged ONCE into per-bucket refs and each iteration is two raw task
waves over them (:func:`_pagerank_tasks_loop`), at every
``num_partitions``.  Wave A (per src bucket) joins edges to their
source state rows and pre-sums contributions per destination, so only
per-bucket partial sums (bounded by distinct dst per bucket) move
between buckets, never per-edge rows; wave B (per dst bucket) finishes
{final Sum + left join + damped update}.  Nothing is collected on the
driver except the per-iteration dangling mass, one scalar per bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

R0 = 1_000_000
BASE = 150_000  # (1 - 0.85) * R0
DAMP_NUM = 85
DAMP_DEN = 100


def _distinct_pairs(pairs_ds):
    """DISTINCT (src, dst) rows: one count aggregate over the pair key
    (``bucket_tasks.exchange_aggregate``, whose per-block combiner cuts
    the exchange to distinct pairs per block), count dropped."""
    from .bucket_tasks import exchange_aggregate

    return exchange_aggregate(
        pairs_ds, ["src", "dst"], [(None, "count", "n")]
    ).select_columns(["src", "dst"])


#: below this out-degree a source is never worth salting — replicating
#: its state row into every bucket would cost more than the skew saves
PAGERANK_HOT_MIN_DEGREE = 1024


def _hot_keys(
    ds, key_col: str, deg_col: str, n_edges: int, num_partitions: int, hot_degree_min
):
    """Detect hub keys whose edge rows would dominate one merge bucket
    of a join keyed on them: degree >= max(E / P, floor).  The
    collected set is BOUNDED by construction — at most E / threshold <=
    num_partitions keys can exceed E / P — so the driver-side take is
    hub-count-sized, never graph-sized."""
    import pyarrow.compute as pc

    thr = (
        int(hot_degree_min)
        if hot_degree_min is not None
        else max(n_edges // max(num_partitions, 1), PAGERANK_HOT_MIN_DEGREE)
    )
    if thr < 1:
        thr = 1
    rows = (
        ds.map_batches(
            lambda b, _t=thr: b.filter(pc.greater_equal(b.column(deg_col), _t)),
            batch_format="pyarrow",
        )
        .select_columns([key_col])
        .take_all()
    )
    return {int(r[key_col]) for r in rows}


def pagerank_micro(
    edges_ds,
    iters: int = 3,
    num_partitions: int | None = None,
    hot_degree_min=None,
):
    """PageRank over DISTINCT directed edges (src, dst) — integer
    micro-unit spec in the module docstring.  Returns Dataset
    (node, rank_micro) after ``iters`` damped updates.

    Hub-skew hardening: sources whose out-degree exceeds
    max(E / num_partitions, ``hot_degree_min`` or
    :data:`PAGERANK_HOT_MIN_DEGREE`) are salted: their edge rows spread
    uniformly over the buckets and their single state row ships to
    every wave-A task, so a power-law hub cannot melt one task.  The
    output is bit-identical with or without salting (integer sums
    commute).

    The iterations run as raw task waves (:func:`_pagerank_tasks_loop`)
    at every width."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(edges_ds, floor=32)
    import ray.data as rd

    from .joins import bucket_int_pairs, bucket_ints, run_bucket_groups, spread_rows

    # Setup = two exchanges.  S1 dedups edges bucketed by the (src, dst)
    # PAIR hash — hub-safe (a hub's edges spread across buckets; same
    # pair → same bucket, so in-bucket np.unique IS the global
    # distinct).  Each distinct pair then lives in exactly ONE output
    # block, so per-block node sets and per-block (src, count) rows are
    # valid PARTIALS, and S2 (keyed by n) unions them to finish
    # {distinct nodes + outdeg Sum + the left join + r0 seed} per bucket.

    def tag_pairs(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column("src").to_numpy(zero_copy_only=False), dtype=np.int64)
        d = np.asarray(b.column("dst").to_numpy(zero_copy_only=False), dtype=np.int64)
        u = np.unique(np.stack([s, d], axis=1), axis=0)  # per-block partial
        bk = bucket_int_pairs(u[:, 0], u[:, 1], num_partitions)
        return pa.Table.from_arrays(
            [pa.array(u[:, 0]), pa.array(u[:, 1]), pa.array(bk, pa.int32())],
            names=["src", "dst", "bucket"],
        )

    def uniq_pairs(g: pa.Table) -> pa.Table:
        s = np.asarray(g.column("src").to_numpy(zero_copy_only=False), dtype=np.int64)
        d = np.asarray(g.column("dst").to_numpy(zero_copy_only=False), dtype=np.int64)
        u = np.unique(np.stack([s, d], axis=1), axis=0)
        return pa.Table.from_arrays(
            [pa.array(u[:, 0]), pa.array(u[:, 1])], names=["src", "dst"]
        )

    edges = run_bucket_groups(
        edges_ds.map_batches(tag_pairs, batch_format="pyarrow"),
        num_partitions,
        uniq_pairs,
        batch_format="pyarrow",
    ).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "rank_micro": pa.array([], pa.int64()),
                }
            )
        )

    def state_partials(b: pa.Table) -> pa.Table:
        """Per-block node-set + outdeg partials under one union schema
        (n, deg, side): side 0 = distinct endpoint, side 1 = per-src
        distinct-dst count (valid partial — each distinct pair lives in
        exactly one block after S1)."""
        s = np.asarray(b.column("src").to_numpy(zero_copy_only=False), dtype=np.int64)
        d = np.asarray(b.column("dst").to_numpy(zero_copy_only=False), dtype=np.int64)
        nodes_u = np.unique(np.concatenate([s, d]))
        su, cnt = np.unique(s, return_counts=True)
        n_col = np.concatenate([nodes_u, su])
        deg = np.concatenate([np.zeros(len(nodes_u), dtype=np.int64), cnt.astype(np.int64)])
        side = np.concatenate(
            [np.zeros(len(nodes_u), dtype=np.int8), np.ones(len(su), dtype=np.int8)]
        )
        bk = bucket_ints(n_col, num_partitions)
        return pa.Table.from_arrays(
            [pa.array(n_col), pa.array(deg), pa.array(side), pa.array(bk, pa.int32())],
            names=["n", "deg", "side", "bucket"],
        )

    def init_bucket(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        n_col = np.asarray(g.column("n").to_numpy(zero_copy_only=False), dtype=np.int64)
        nodes_u = np.unique(n_col[side == 0])
        outdeg = np.zeros(len(nodes_u), dtype=np.int64)
        sk = n_col[side == 1]
        if len(sk):
            dv = np.asarray(
                g.column("deg").to_numpy(zero_copy_only=False), dtype=np.int64
            )[side == 1]
            o = np.argsort(sk, kind="stable")
            sks, dvs = sk[o], dv[o]
            starts = np.flatnonzero(np.concatenate([[True], sks[1:] != sks[:-1]]))
            sums = np.add.reduceat(dvs, starts)
            pos = np.searchsorted(nodes_u, sks[starts])
            if pos.max(initial=-1) >= len(nodes_u) or not (
                nodes_u[pos] == sks[starts]
            ).all():
                raise ValueError(
                    "pagerank setup: outdeg source missing from the node "
                    "set (every src IS an endpoint — invariant broken)"
                )
            outdeg[pos] = sums
        return pa.Table.from_arrays(
            [
                pa.array(nodes_u),
                pa.array(np.full(len(nodes_u), R0, dtype=np.int64)),
                pa.array(outdeg),
            ],
            names=["n", "r", "outdeg"],
        )

    state = run_bucket_groups(
        edges.map_batches(state_partials, batch_format="pyarrow"),
        num_partitions,
        init_bucket,
        batch_format="pyarrow",
    ).materialize()
    hot = _hot_keys(state, "n", "outdeg", n_edges, num_partitions, hot_degree_min)

    n_nodes = state.count()

    hot_arr = (
        np.fromiter((int(k) for k in hot), dtype=np.int64, count=len(hot))
        if hot
        else None
    )

    def _spread_hot(keys: np.ndarray, bk: np.ndarray) -> np.ndarray:
        """Hot-SOURCE rows spread uniformly — the hot state row
        replicates into EVERY bucket (the replicate_keys discipline)."""
        if hot_arr is None:
            return bk
        return spread_rows(bk, np.isin(keys, hot_arr), num_partitions)

    return _pagerank_tasks_loop(
        edges, state, hot_arr, n_nodes, num_partitions, iters, _spread_hot
    )


def _pagerank_tasks_loop(
    edges, state, hot_arr, n_nodes, num_partitions, iters, spread_hot
):
    """The iteration loop as raw task waves.  Both of an iteration's
    exchanges key by ``bucket(node)``, so the state partition is
    INVARIANT across iterations; a ``groupby`` per exchange would pay a
    full sort-shuffle barrier each time anyway.  Here the edges and
    the seeded state are exchanged ONCE into per-bucket ObjectRefs
    (two task waves each, ``bucket_tasks``), and every iteration is
    exactly two task WAVES with object transfers only bucket→bucket:

    * wave A (one task per src bucket): the fused join of edges to
      their source state rows (searchsorted) + a per-dst pre-sum,
      emitting one tiny (dst, partial) pair per DESTINATION bucket
      (``num_returns=P+1``; the +1 is this bucket's dangling-mass
      scalar, so no separate pass over the state is needed).  The
      driver holds these P x (P+1) refs per iteration.
    * wave B (one task per dst bucket): the final Sum + left join
      onto the node rows + damped update, consuming its P partials
      and its own state ref.

    The per-bucket edge structure is precomputed once at merge time
    (sorted by (dst_bucket, dst) with per-dst run starts), so an
    iteration's map task is {searchsorted, //, reduceat, P slices} —
    no re-sorting.  Bit-equality with the pure-Python reference of the
    integer spec is pinned by test across widths, with and without hub
    salting (integer sums commute, so hot-spread placement cannot
    change the result).
    """
    import ray

    from .bucket_tasks import dataset_from_refs, exchange_to_bucket_refs
    from .joins import bucket_ints

    P = num_partitions

    def edge_buckets(tbl: pa.Table) -> np.ndarray:
        src = np.asarray(
            tbl.column("src").to_numpy(zero_copy_only=False), dtype=np.int64
        )
        return spread_hot(src, bucket_ints(src, P))

    def edge_merge(tbl: pa.Table) -> dict:
        src = np.asarray(
            tbl.column("src").to_numpy(zero_copy_only=False), dtype=np.int64
        )
        dst = np.asarray(
            tbl.column("dst").to_numpy(zero_copy_only=False), dtype=np.int64
        )
        db = bucket_ints(dst, P).astype(np.int64)
        order = np.lexsort((dst, db))
        src, dst, db = src[order], dst[order], db[order]
        if len(dst):
            starts = np.flatnonzero(np.concatenate([[True], dst[1:] != dst[:-1]]))
        else:
            starts = np.zeros(0, dtype=np.int64)
        run_counts = np.bincount(db[starts], minlength=P) if len(starts) else np.zeros(P, np.int64)
        run_off = np.concatenate([[0], np.cumsum(run_counts)]).astype(np.int64)
        return {
            "src": src,
            "dst_run": dst[starts],
            "starts": starts.astype(np.int64),
            "run_off": run_off,
        }

    def state_buckets(tbl: pa.Table) -> np.ndarray:
        n = np.asarray(tbl.column("n").to_numpy(zero_copy_only=False), dtype=np.int64)
        return bucket_ints(n, P)

    def state_merge(tbl: pa.Table) -> dict:
        n = np.asarray(tbl.column("n").to_numpy(zero_copy_only=False), dtype=np.int64)
        r = np.asarray(tbl.column("r").to_numpy(zero_copy_only=False), dtype=np.int64)
        od = np.asarray(
            tbl.column("outdeg").to_numpy(zero_copy_only=False), dtype=np.int64
        )
        o = np.argsort(n, kind="stable")
        return {"n": n[o], "r": r[o], "outdeg": od[o]}

    edge_refs, _ = exchange_to_bucket_refs(
        edges.to_arrow_refs(), edge_buckets, P, edge_merge
    )
    state_refs, _ = exchange_to_bucket_refs(
        state.to_arrow_refs(), state_buckets, P, state_merge
    )

    hot_home = (
        sorted({int(b) for b in bucket_ints(hot_arr, P)})
        if hot_arr is not None
        else []
    )

    @ray.remote
    def gather_hot(*sts):
        """Hot state rows from their HOME buckets (bounded by hub
        count) — shipped to every wave-A task, mirroring the Dataset
        path's replicate-into-every-bucket discipline."""
        ns = np.concatenate([s["n"] for s in sts])
        rs = np.concatenate([s["r"] for s in sts])
        ods = np.concatenate([s["outdeg"] for s in sts])
        mask = np.isin(ns, hot_arr)
        return {"n": ns[mask], "r": rs[mask], "outdeg": ods[mask]}

    @ray.remote
    def contrib(eb, st, hot_rows):
        # dangling partial of THIS bucket's pre-update state rides the
        # same wave (return slot P) — no separate pass over the state
        dang = int(st["r"][st["outdeg"] == 0].sum())
        src = eb["src"]
        if len(src) == 0:
            empty = (np.zeros(0, np.int64), np.zeros(0, np.int64))
            return tuple([empty] * P + [dang])
        if hot_rows is not None and len(hot_rows["n"]):
            lk_n = np.concatenate([st["n"], hot_rows["n"]])
            lk_r = np.concatenate([st["r"], hot_rows["r"]])
            lk_o = np.concatenate([st["outdeg"], hot_rows["outdeg"]])
            o = np.argsort(lk_n, kind="stable")
            lk_n, lk_r, lk_o = lk_n[o], lk_r[o], lk_o[o]
        else:
            lk_n, lk_r, lk_o = st["n"], st["r"], st["outdeg"]
        pos = np.searchsorted(lk_n, src)
        if pos.max(initial=-1) >= len(lk_n) or not (lk_n[pos] == src).all():
            raise ValueError(
                "pagerank tasks wave A: edge source missing its in-bucket "
                "state row (hot-replication / bucketing invariant broken)"
            )
        ce = lk_r[pos] // lk_o[pos]
        sums = np.add.reduceat(ce, eb["starts"]).astype(np.int64)
        out = []
        for c in range(P):
            lo, hi = int(eb["run_off"][c]), int(eb["run_off"][c + 1])
            out.append((eb["dst_run"][lo:hi], sums[lo:hi]))
        return tuple(out + [dang])

    @ray.remote
    def update(share, st, *partials):
        sk, sod = st["n"], st["outdeg"]
        inc = np.zeros(len(sk), dtype=np.int64)
        live = [p for p in partials if len(p[0])]
        if live:
            pk = np.concatenate([p[0] for p in live])
            pv = np.concatenate([p[1] for p in live])
            o = np.argsort(pk, kind="stable")
            pks, pcs = pk[o], pv[o]
            starts = np.flatnonzero(np.concatenate([[True], pks[1:] != pks[:-1]]))
            sums = np.add.reduceat(pcs, starts)
            pos = np.searchsorted(sk, pks[starts])
            if pos.max(initial=-1) >= len(sk) or not (sk[pos] == pks[starts]).all():
                raise ValueError(
                    "pagerank tasks wave B: contribution destination missing "
                    "its in-bucket node row (bucketing invariant broken)"
                )
            inc[pos] = sums
        r = BASE + (DAMP_NUM * (inc + share)) // DAMP_DEN
        return {"n": sk, "r": r.astype(np.int64), "outdeg": sod}

    for _ in range(iters):
        hot_rows = (
            gather_hot.remote(*[state_refs[b] for b in hot_home])
            if hot_home
            else None
        )
        outs = [
            contrib.options(num_returns=P + 1).remote(
                edge_refs[b], state_refs[b], hot_rows
            )
            for b in range(P)
        ]
        dang = sum(ray.get([o[P] for o in outs]))
        share = dang // n_nodes
        state_refs = [
            update.remote(share, state_refs[c], *[outs[b][c] for b in range(P)])
            for c in range(P)
        ]

    @ray.remote
    def finish(st):
        return pa.Table.from_arrays(
            [pa.array(st["n"]), pa.array(st["r"])], names=["node", "rank_micro"]
        )

    return dataset_from_refs([finish.remote(s) for s in state_refs])


def purchase_graph_edges(orders_ds, lineitem_ds, num_partitions: int | None = None):
    """The fixture graph: customer → supplier edges for every purchase
    (orders ⋈ lineitem on orderkey), plus supplier → customer
    BACK-edges for returned items (l_returnflag = 'R') so the graph is
    cyclic and the power iteration is non-trivial.  Node ids are
    parity-namespaced (customer c → 2c, supplier s → 2s+1)."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    from .joins import hash_join

    li = lineitem_ds.map_batches(
        lambda b: b.select(["l_orderkey", "l_suppkey", "l_returnflag"]).rename_columns(
            ["ok", "supp", "flag"]
        ),
        batch_format="pyarrow",
    )
    od = orders_ds.map_batches(
        lambda b: b.select(["o_orderkey", "o_custkey"]).rename_columns(["ok", "cust"]),
        batch_format="pyarrow",
    )
    joined = hash_join(
        li, od, key_col="ok", right_value_cols=["cust"],
        how="inner", suffix="", num_partitions=num_partitions,
    )

    def to_edges(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cust = b.column("cust").to_numpy(zero_copy_only=False).astype(np.int64)
        supp = b.column("supp").to_numpy(zero_copy_only=False).astype(np.int64)
        flag = (
            pc.equal(b.column("flag"), "R")
            .combine_chunks()
            .fill_null(False)
            .to_numpy(zero_copy_only=False)
        )
        src = np.concatenate([2 * cust, (2 * supp + 1)[flag]])
        dst = np.concatenate([2 * supp + 1, (2 * cust)[flag]])
        return pa.Table.from_arrays([pa.array(src), pa.array(dst)], names=["src", "dst"])

    return joined.map_batches(to_edges, batch_format="pyarrow")


def cosupplier_edges(lineitem_ds, num_partitions: int | None = None):
    """Undirected co-purchase edges between suppliers: (u, v), u < v,
    iff both supplied the same order — the co-occurrence-graph
    construction (SKUs bought together, hosts linked from the same
    page) on the fixture tables.

    The exchange keys on a HASH BUCKET of the order key, not the order
    itself (the sessionize_salted lesson: per-tiny-group Python
    dispatch dominates otherwise — measured 11 s vs ~4 s at sf0.01);
    orders are resolved vectorized inside the bucket and pair emission
    loops over ORDERS (small, bounded by order size), never rows.
    Deduped with the :func:`_distinct_pairs` count aggregate."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    from .joins import bucket_ints

    def add_bucket(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        bk = bucket_ints(np.asarray(ok).astype(np.int64), num_partitions)
        return pa.Table.from_arrays(
            [b.column("l_orderkey"), b.column("l_suppkey"),
             pa.array(bk, pa.int32())],
            names=["ok", "supp", "bucket"],
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        ok = g.column("ok").to_numpy(zero_copy_only=False)
        s = g.column("supp").to_numpy(zero_copy_only=False)
        order = np.lexsort((s, ok))
        ok, s = ok[order], s[order]
        keep = np.ones(len(ok), dtype=bool)  # distinct (ok, supp)
        if len(ok) > 1:
            keep[1:] = (ok[1:] != ok[:-1]) | (s[1:] != s[:-1])
        ok, s = ok[keep], s[keep]
        starts = np.flatnonzero(
            np.concatenate([[True], ok[1:] != ok[:-1]])
        )
        ends = np.concatenate([starts[1:], [len(ok)]])
        us, vs = [], []
        for lo, hi in zip(starts, ends):
            if hi - lo < 2:
                continue
            iu, iv = np.triu_indices(hi - lo, k=1)
            us.append(s[lo:hi][iu])
            vs.append(s[lo:hi][iv])
        if not us:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["src", "dst"],
            )
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(us)), pa.array(np.concatenate(vs))],
            names=["src", "dst"],
        )

    from .joins import run_bucket_groups

    pairs = run_bucket_groups(
        lineitem_ds.map_batches(add_bucket, batch_format="pyarrow"),
        num_partitions,
        per_bucket,
        batch_format="pyarrow",
    )
    return _distinct_pairs(pairs)


def triangle_support(edges_ds, max_wedges: int = 50_000_000, num_partitions: int | None = None):
    """Per-edge triangle support over an undirected graph given as
    DISTINCT (src, dst) with src < dst: each triangle is counted
    exactly once — at its minimum-(degree, id) apex — and attributed to
    the id-normalized pair (a, b), a < b, of its other two vertices.
    Returns (a, b, n_tri) for pairs with support >= 1 (sum(n_tri) =
    total triangle count; per-edge support is the k-truss building
    block).  On a regular graph (all degrees equal, e.g. K_n) the
    (degree, id) tie-break reduces to pure id orientation, so the
    counts coincide with the classic u < a < b attribution.

    Shape — DEGREE-ORDERED orientation (the Chiba–Nishizeki /
    Ortmann–Brandes discipline): each undirected edge is oriented from
    its lower-(degree, id) endpoint toward the higher, so per-apex
    out-degree is O(sqrt(E)) and total wedge volume is O(E^1.5) even on
    power-law (hub-skewed) graphs — a star graph generates ZERO wedges
    instead of C(hub_degree, 2).  Wedges are generated per apex inside
    HASH-BUCKET groups (bucket-first, never per-key dispatch),
    pre-counted per (a, b) inside the bucket, then matched against the
    edge set with a TAGGED UNION + one (a, b) Sum aggregate.  The two degree
    joins broadcast the degree table while it fits
    ``joins.DIM_BROADCAST_MAX``; past it they are hub-salted
    (``replicate_keys``) so the hub's edge rows never funnel into one
    merge task.

    Guard, not a silent melt: the wedge volume Σ C(out-deg, 2) over the
    ORIENTED graph is pre-computed distributed and the op raises above
    ``max_wedges`` — dense graphs (the uniform fixture tables project
    to near-complete co-occurrence graphs; any exact algorithm is
    Θ(#triangles) there) must be thresholded/sampled upstream.
    """
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(edges_ds, floor=32)
    from .bucket_tasks import exchange_aggregate
    from .joins import bucket_ints, hash_join

    # one materialization: the edge table feeds the degree scan, the
    # orientation joins AND the closing union — without it each
    # consumer re-executes the construction lineage (rollup_stats)
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()

    # per-node UNDIRECTED degree: per-batch partials over src ∪ dst,
    # then one node-scale aggregate
    def deg_partial(b: pa.Table) -> pa.Table:
        s = b.column("src").to_numpy(zero_copy_only=False)
        d = b.column("dst").to_numpy(zero_copy_only=False)
        u, c = np.unique(np.concatenate([s, d]), return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(u.astype(np.int64)), pa.array(c.astype(np.int64))],
            names=["node", "d_part"],
        )

    deg = exchange_aggregate(
        edges_ds.map_batches(deg_partial, batch_format="pyarrow"),
        "node",
        [("d_part", "sum", "deg")],
    )
    hot = _hot_keys(deg, "node", "deg", n_edges, num_partitions, None)

    deg_s = deg.map_batches(
        lambda b: b.rename_columns(["src", "deg_s"]), batch_format="pyarrow"
    )
    deg_d = deg.map_batches(
        lambda b: b.rename_columns(["dst", "deg_d"]), batch_format="pyarrow"
    )
    e1 = hash_join(
        edges_ds, deg_s, key_col="src", right_value_cols=["deg_s"],
        how="inner", suffix="", num_partitions=num_partitions,
        replicate_keys=hot or None,
    )
    e2 = hash_join(
        e1, deg_d, key_col="dst", right_value_cols=["deg_d"],
        how="inner", suffix="", num_partitions=num_partitions,
        replicate_keys=hot or None,
    )

    def orient(b: pa.Table) -> pa.Table:
        s = b.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        d = b.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        gs = b.column("deg_s").to_numpy(zero_copy_only=False).astype(np.int64)
        gd = b.column("deg_d").to_numpy(zero_copy_only=False).astype(np.int64)
        src_first = (gs < gd) | ((gs == gd) & (s < d))
        apex = np.where(src_first, s, d)
        other = np.where(src_first, d, s)
        return pa.Table.from_arrays(
            [pa.array(apex), pa.array(other)], names=["apex", "other"]
        )

    oriented = e2.map_batches(orient, batch_format="pyarrow").materialize()

    # exact wedge bound from ORIENTED out-degrees: one count aggregate,
    # per-batch partial Σ C(deg, 2), one scalar to the driver
    def degree_partial(b: pa.Table) -> pa.Table:
        c = b.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array([int((c * (c - 1) // 2).sum())])], names=["nw"]
        )

    n_wedges = (
        exchange_aggregate(oriented, "apex", [(None, "count", "n")])
        .map_batches(degree_partial, batch_format="pyarrow")
        .sum("nw")
        or 0
    )
    if n_wedges > max_wedges:
        raise ValueError(
            f"triangle_support: wedge volume {n_wedges} exceeds max_wedges="
            f"{max_wedges} — the graph is too dense even under the "
            "degree-ordered orientation; threshold/sample edges upstream"
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        a = b.column("apex").to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column(
            "bucket", pa.array(bucket_ints(a, num_partitions), pa.int32())
        )

    def wedges(g: pa.Table) -> pa.Table:
        # per-bucket: vectorized lexsort into apex segments, triangle
        # pair emission per apex (loop over APEXES, bounded by the
        # O(sqrt(E)) oriented out-degree, never over rows)
        a = g.column("apex").to_numpy(zero_copy_only=False).astype(np.int64)
        o = g.column("other").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((o, a))
        a, o = a[order], o[order]
        starts = np.flatnonzero(np.concatenate([[True], a[1:] != a[:-1]]))
        ends = np.concatenate([starts[1:], [len(a)]])
        As, Bs = [], []
        for lo, hi in zip(starts, ends):
            if hi - lo < 2:
                continue
            nb = o[lo:hi]  # ascending by lexsort -> pairs come out a < b
            iu, iv = np.triu_indices(hi - lo, k=1)
            As.append(nb[iu])
            Bs.append(nb[iv])
        if not As:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["a", "b", "nw", "has_edge"],
            )
        pairs = np.stack([np.concatenate(As), np.concatenate(Bs)], axis=1)
        u, c = np.unique(pairs, axis=0, return_counts=True)
        return pa.Table.from_arrays(
            [
                pa.array(u[:, 0]),
                pa.array(u[:, 1]),
                pa.array(c.astype(np.int64)),
                pa.array(np.zeros(len(u), dtype=np.int64)),
            ],
            names=["a", "b", "nw", "has_edge"],
        )

    from .joins import run_bucket_groups

    wedge_rows = run_bucket_groups(
        oriented.map_batches(add_bucket, batch_format="pyarrow"),
        num_partitions,
        wedges,
        batch_format="pyarrow",
    )

    def tag_edges(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.Table.from_arrays(
            [
                b.column("src"),
                b.column("dst"),
                pa.array(np.zeros(n, dtype=np.int64)),
                pa.array(np.ones(n, dtype=np.int64)),
            ],
            names=["a", "b", "nw", "has_edge"],
        )

    tagged = wedge_rows.union(
        edges_ds.map_batches(tag_edges, batch_format="pyarrow")
    )
    agg = exchange_aggregate(
        tagged, ["a", "b"], [("nw", "sum", "nw"), ("has_edge", "sum", "has_edge")]
    )

    def close(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.greater(b.column("has_edge"), 0), pc.greater(b.column("nw"), 0)
        )
        out = b.filter(keep)
        return pa.Table.from_arrays(
            [out.column("a"), out.column("b"),
             out.column("nw").cast(pa.int64())],
            names=["a", "b", "n_tri"],
        )

    return agg.map_batches(close, batch_format="pyarrow")
