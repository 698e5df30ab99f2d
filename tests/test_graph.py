"""PageRank (integer micro-units): equivalence with a driver-side
reference on the fixture purchase graph, partition invariance, and the
dangling-mass rule on a hand-built chain."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ocr_lib_ray.functions.graph import BASE, DAMP_DEN, DAMP_NUM, R0


def ref_pagerank(edges, iters):
    """Pure-python reference of the exact integer spec."""
    edges = sorted(set(edges))
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    n = len(nodes)
    od = {}
    for s, _ in edges:
        od[s] = od.get(s, 0) + 1
    r = {v: R0 for v in nodes}
    for _ in range(iters):
        dang = sum(r[v] for v in nodes if od.get(v, 0) == 0)
        share = dang // n
        inc = {v: 0 for v in nodes}
        for s, d in edges:
            inc[d] += r[s] // od[s]
        r = {v: BASE + (DAMP_NUM * (inc[v] + share)) // DAMP_DEN for v in nodes}
    return r


def edge_ds(edges):
    import ray.data as rd

    return rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array([s for s, _ in edges], pa.int64()),
                pa.array([d for _, d in edges], pa.int64()),
            ],
            names=["src", "dst"],
        )
    )


@pytest.mark.usefixtures("ray_session")
def test_pagerank_dangling_chain():
    """0→1→2 with 2 dangling: ranks redistribute the dangling mass and
    match the reference bit-exactly."""
    from ocr_lib_ray.functions.graph import pagerank_micro

    edges = [(0, 1), (1, 2)]
    out = {
        r["node"]: r["rank_micro"]
        for r in pagerank_micro(edge_ds(edges), iters=3, num_partitions=4).take_all()
    }
    assert out == ref_pagerank(edges, 3)
    assert out[2] > out[1] > out[0]  # downstream accumulates


@pytest.mark.usefixtures("ray_session")
def test_pagerank_duplicate_edges_ignored():
    """The operator dedups (src, dst) rows: a multiedge input equals the
    simple-graph input."""
    from ocr_lib_ray.functions.graph import pagerank_micro

    simple = [(0, 1), (1, 0), (1, 2)]
    multi = simple + [(0, 1)] * 5
    a = {
        r["node"]: r["rank_micro"]
        for r in pagerank_micro(edge_ds(simple), iters=2, num_partitions=4).take_all()
    }
    b = {
        r["node"]: r["rank_micro"]
        for r in pagerank_micro(edge_ds(multi), iters=2, num_partitions=4).take_all()
    }
    assert a == b == ref_pagerank(simple, 2)


@pytest.mark.usefixtures("ray_session")
def test_purchase_graph_matches_reference(sf_small):
    """Full fixture pipeline (orders ⋈ lineitem → cyclic graph → 2
    iterations) == driver reference, at two partition counts."""
    import ray.data as rd

    from ocr_lib_ray.functions.graph import pagerank_micro, purchase_graph_edges

    o = pd.read_parquet(f"{sf_small}/orders.parquet")[["o_orderkey", "o_custkey"]]
    l = pd.read_parquet(f"{sf_small}/lineitem.parquet")[
        ["l_orderkey", "l_suppkey", "l_returnflag"]
    ]
    j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
    fwd = set(zip(2 * j["o_custkey"], 2 * j["l_suppkey"] + 1))
    rj = j[j["l_returnflag"] == "R"]
    rev = set(zip(2 * rj["l_suppkey"] + 1, 2 * rj["o_custkey"]))
    want = ref_pagerank(sorted(fwd | rev), 2)

    for parts in (4, 8):
        orders = rd.read_parquet(
            f"{sf_small}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        )
        li = rd.read_parquet(
            f"{sf_small}/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_returnflag"],
        )
        edges = purchase_graph_edges(orders, li, num_partitions=parts)
        got = {
            r["node"]: r["rank_micro"]
            for r in pagerank_micro(edges, iters=2, num_partitions=parts).take_all()
        }
        assert got == want, parts


# --- triangle_support --------------------------------------------------------


def _edges_ds(pairs):
    import pyarrow as pa
    import ray.data as rd

    u, v = zip(*pairs) if pairs else ((), ())
    return rd.from_arrow(
        pa.Table.from_arrays(
            [pa.array(u, pa.int64()), pa.array(v, pa.int64())],
            names=["src", "dst"],
        )
    )


@pytest.mark.usefixtures("ray_session")
def test_triangle_support_k4_and_path():
    from ocr_lib_ray.functions.graph import triangle_support

    # K4: every edge closes 2 triangles; total = sum/3? No: each
    # triangle counted ONCE at its closing edge (a,b) with apex u<a<b.
    # K4 has 4 triangles; closing-edge counts: edge (b,c) closes {a<b<c}.
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    got = (
        triangle_support(_edges_ds(k4))
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert got["n_tri"].sum() == 4  # C(4,3) triangles, each once
    # edge (3,4) closes apexes 1 and 2 -> support 2
    assert got.set_index(["a", "b"]).loc[(3, 4), "n_tri"] == 2
    # a path has no triangles
    path = [(1, 2), (2, 3), (3, 4)]
    assert triangle_support(_edges_ds(path)).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_triangle_support_matches_duckdb_on_sparse_graph():
    import duckdb
    import pandas as pd

    from ocr_lib_ray.functions.graph import triangle_support

    # deterministic sparse graph: edge (u, v) iff (u*31 + v) % 7 == 0
    pairs = [
        (u, v) for u in range(40) for v in range(u + 1, 40) if (u * 31 + v) % 7 == 0
    ]
    got = (
        triangle_support(_edges_ds(pairs))
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
        .astype("int64")
    )
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE e AS SELECT * FROM (VALUES "
        + ",".join(f"({u},{v})" for u, v in pairs)
        + ") t(u, v)"
    )
    want = (
        con.execute(
            """
            WITH deg AS (
                SELECT node, count(*) AS d FROM (
                    SELECT u AS node FROM e UNION ALL SELECT v FROM e
                ) GROUP BY 1),
            o AS (
                SELECT CASE WHEN (du.d < dv.d) OR (du.d = dv.d AND e.u < e.v)
                            THEN e.u ELSE e.v END AS s,
                       CASE WHEN (du.d < dv.d) OR (du.d = dv.d AND e.u < e.v)
                            THEN e.v ELSE e.u END AS t
                FROM e JOIN deg du ON du.node = e.u
                       JOIN deg dv ON dv.node = e.v),
            w AS (SELECT o1.t AS a, o2.t AS b
                  FROM o o1 JOIN o o2 ON o1.s = o2.s AND o1.t < o2.t)
            SELECT w.a, w.b, count(*) AS n_tri
            FROM w JOIN e ON e.u = w.a AND e.v = w.b GROUP BY 1, 2
            """
        )
        .df()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got[want.columns], want)


@pytest.mark.usefixtures("ray_session")
def test_triangle_support_wedge_guard_raises_on_dense_graph():
    from ocr_lib_ray.functions.graph import triangle_support

    k20 = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    with pytest.raises(Exception, match="wedge volume"):
        # K20: sum C(outdeg,2) = sum C(19-i,2) = C(20,3) = 1140 wedges
        triangle_support(_edges_ds(k20), max_wedges=1000).count()


@pytest.mark.usefixtures("ray_session")
def test_cosupplier_edges_layout_invariant():
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.graph import cosupplier_edges

    rows = [(i % 37, (i * 13) % 11) for i in range(300)]  # (order, supplier)
    ok, s = zip(*rows)
    tbl = pa.Table.from_arrays(
        [pa.array(ok, pa.int64()), pa.array(s, pa.int64())],
        names=["l_orderkey", "l_suppkey"],
    )
    a = (
        cosupplier_edges(rd.from_arrow(tbl), num_partitions=2)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    b = (
        cosupplier_edges(rd.from_arrow(tbl).repartition(9), num_partitions=16)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert (a["src"] < a["dst"]).all()
    assert not a.duplicated(["src", "dst"]).any()


@pytest.mark.usefixtures("ray_session")
def test_pagerank_hub_salting_bit_equal():
    """A power-law hub (one source holding most edges) detected by the
    hot-source threshold must yield BIT-identical ranks to the unsalted
    path — replicate_keys changes bucket placement, never the result."""
    from ocr_lib_ray.functions.graph import pagerank_micro

    # hub 0 -> 1..120 (plus a sparse cold tail and back-edges to 0)
    edges = [(0, i) for i in range(1, 121)]
    edges += [(i, (i * 7) % 120 + 1) for i in range(1, 40)]
    edges += [(5, 0), (11, 0)]
    salted = (
        pagerank_micro(edge_ds(edges), iters=3, num_partitions=8, hot_degree_min=10)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    plain = (
        pagerank_micro(
            edge_ds(edges), iters=3, num_partitions=8, hot_degree_min=10**9
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(salted, plain)
    # and both match the pure-python integer reference
    want = ref_pagerank(edges, 3)
    got = dict(zip(salted["node"], salted["rank_micro"]))
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_hot_source_detection_bounded():
    """_hot_keys collects only above-threshold hubs (bounded by
    E/threshold keys, never graph-sized)."""
    import ray.data as rd

    from ocr_lib_ray.functions.graph import _hot_keys

    def _hot_sources(ds, n_edges, num_partitions, hot_degree_min):
        return _hot_keys(ds, "n", "outdeg", n_edges, num_partitions, hot_degree_min)

    outdeg = rd.from_arrow(
        pa.table(
            {
                "n": pa.array([0, 1, 2, 3], pa.int64()),
                "outdeg": pa.array([5000, 3, 2, 1], pa.int64()),
            }
        )
    )
    # auto threshold = max(E // P, PAGERANK_HOT_MIN_DEGREE floor)
    assert _hot_sources(outdeg, 5006, num_partitions=8, hot_degree_min=None) == {0}
    assert _hot_sources(outdeg, 5006, num_partitions=8, hot_degree_min=3) == {0, 1}
    # the 1024 floor keeps tiny graphs unsalted even when E/P is small
    outdeg_small = rd.from_arrow(
        pa.table(
            {
                "n": pa.array([0, 1], pa.int64()),
                "outdeg": pa.array([500, 3], pa.int64()),
            }
        )
    )
    assert _hot_sources(outdeg_small, 503, num_partitions=8, hot_degree_min=None) == set()
    # explicit threshold above every degree -> empty set (no salting)
    assert _hot_sources(outdeg, 5006, num_partitions=8, hot_degree_min=10**9) == set()


@pytest.mark.usefixtures("ray_session")
def test_triangle_support_star_graph_degree_oriented():
    """A hub star (the power-law worst case): degree orientation points
    every edge AT the hub, so the wedge volume is ZERO — id orientation
    would generate C(1999, 2) ≈ 2M wedges and trip max_wedges=1000."""
    from ocr_lib_ray.functions.graph import triangle_support

    star = [(0, i) for i in range(1, 2000)]
    got = triangle_support(_edges_ds(star), max_wedges=1000)
    assert got.count() == 0  # a star has no triangles

    # hub PLUS one triangle: the triangle survives degree orientation
    starred = star + [(1, 2)]
    out = (
        triangle_support(_edges_ds(starred), max_wedges=1000)
        .to_pandas()
        .astype("int64")
    )
    assert len(out) == 1 and out["n_tri"].sum() == 1
    # apex = min-(degree, id) vertex of {0, 1, 2} = 1 or 2 (degree 2)
    # vs hub 0 (degree 1999) -> apex 1, closing pair (0, 2) id-ordered
    assert (int(out["a"].iloc[0]), int(out["b"].iloc[0])) == (0, 2)


@pytest.mark.usefixtures("ray_session")
def test_pagerank_state_block_count_stays_clamped():
    """Five iterations at num_partitions=4 return at most
    num_partitions blocks (an iterated exchange whose output block
    count tracked its input block count would compound empty blocks
    per iteration) and stay bit-exact."""
    from ocr_lib_ray.functions.graph import pagerank_micro

    rng = np.random.RandomState(7)
    edges = sorted({(int(a), int(b)) for a, b in rng.randint(0, 50, (300, 2)) if a != b})
    res = pagerank_micro(edge_ds(edges), iters=5, num_partitions=4).materialize()
    assert res.num_blocks() <= 4
    out = {r["node"]: r["rank_micro"] for r in res.take_all()}
    assert out == ref_pagerank(edges, 5)


@pytest.mark.usefixtures("ray_session")
def test_pagerank_bit_equal_to_reference_across_widths():
    """The raw-task loop is bit-equal to the pure-Python reference
    across partition counts (the degenerate P=1 exchange up to a width
    past 256), at iters=0 (seed state only), and with hub salting
    active (integer sums commute, so hot-spread placement cannot change
    the result)."""
    from ocr_lib_ray.functions.graph import pagerank_micro

    rng = np.random.RandomState(11)
    edges = sorted(
        {(int(a), int(b)) for a, b in rng.randint(0, 200, (1500, 2)) if a != b}
    )

    # hub case: node 7 fans out to 400 destinations — salted
    hub = [(7, d) for d in range(400)] + [(d, 7) for d in range(40)]
    runs = [(edges, 3, dict(num_partitions=P)) for P in (1, 4, 8, 300)] + [
        (edges, 0, dict(num_partitions=4)),
        (hub, 3, dict(num_partitions=4, hot_degree_min=10)),
    ]
    for e, iters, kw in runs:
        got = {
            r["node"]: r["rank_micro"]
            for r in pagerank_micro(edge_ds(e), iters=iters, **kw).take_all()
        }
        assert got == ref_pagerank(e, iters), (iters, kw)
