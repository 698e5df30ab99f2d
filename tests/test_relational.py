"""TPC-H-shaped relational family: DuckDB equivalence on the sf0.001
fixture tables, broadcast-dim-join semantics, exact-integer money, and
top-k boundary tie-breaking."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _con():
    con = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "nation", "region", "part", "supplier"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _cmp(ds, sql):
    got = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    want = _con().execute(sql).fetchdf()
    cols = sorted(got.columns)
    assert cols == sorted(want.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        if g[c].dtype != w[c].dtype:
            g[c] = g[c].astype("int64") if "int" in str(w[c].dtype) else g[c]
        w[c] = w[c].astype(g[c].dtype)
    pd.testing.assert_frame_equal(g, w)


@pytest.mark.usefixtures("ray_session")
def test_pricing_summary_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(
        entry.queries()["pricing_summary"](SF),
        entry.oracle_sql()["pricing_summary"],
    )


@pytest.mark.usefixtures("ray_session")
def test_star_revenue_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["star_revenue"](SF), entry.oracle_sql()["star_revenue"])


@pytest.mark.usefixtures("ray_session")
def test_top_customers_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["top_customers"](SF), entry.oracle_sql()["top_customers"])


@pytest.mark.usefixtures("ray_session")
def test_order_priority_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["order_priority"](SF), entry.oracle_sql()["order_priority"])


@pytest.mark.usefixtures("ray_session")
def test_pricing_summary_batch_size_invariance():
    """Integer partial sums commute: tiny blocks give the same bytes."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import pricing_summary

    cutoff = int(pd.Timestamp("2000-09-02").value // 1000)
    li = pq.read_table(f"{SF}/lineitem.parquet")
    a = pricing_summary(rd.from_arrow(li), cutoff).to_pandas()
    b = pricing_summary(
        rd.from_arrow(li).repartition(37), cutoff
    ).to_pandas()
    key = ["l_returnflag", "l_linestatus"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )


@pytest.mark.usefixtures("ray_session")
def test_empty_order_window_yields_zero_rows():
    """A date window containing no orders flows through the whole star
    join and aggregates to an empty result — not a crash."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import late_order_priority, star_revenue

    lo = int(pd.Timestamp("2050-01-01").value // 1000)
    hi = int(pd.Timestamp("2051-01-01").value // 1000)
    li = rd.from_arrow(pq.read_table(f"{SF}/lineitem.parquet"))
    orders = rd.from_arrow(pq.read_table(f"{SF}/orders.parquet"))
    cust = rd.from_arrow(pq.read_table(f"{SF}/customer.parquet"))
    nation = pq.read_table(f"{SF}/nation.parquet")
    region = pq.read_table(f"{SF}/region.parquet")
    out = star_revenue(li, orders, cust, nation, region, "ASIA", lo, hi)
    assert len(out) == 0
    assert list(out.columns) == ["n_name", "revenue_u4"]
    out2 = late_order_priority(li, orders, lo, hi).to_pandas()
    assert len(out2) == 0


@pytest.mark.usefixtures("ray_session")
def test_top_customers_tie_break_boundary():
    """Two customers tied exactly at the k-boundary: the smaller custkey
    wins, deterministically, at any block layout."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import top_customers

    # 3 customers, all revenue equal; k=2 must keep custkeys 1 and 2
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 2, 3], pa.int64()),
            "l_extendedprice": [100.0, 100.0, 100.0],
            "l_discount": [0.0, 0.0, 0.0],
            "l_returnflag": ["R", "R", "R"],
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3], pa.int64()),
            "o_custkey": pa.array([3, 1, 2], pa.int64()),
            "o_orderdate": pa.array([pd.Timestamp("1996-08-01")] * 3),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array([1, 2, 3], pa.int64()),
            "c_name": ["one", "two", "three"],
        }
    )
    lo = int(pd.Timestamp("1996-07-01").value // 1000)
    hi = int(pd.Timestamp("1997-07-01").value // 1000)
    out = top_customers(
        rd.from_arrow(li).repartition(3),
        rd.from_arrow(orders),
        rd.from_arrow(cust),
        lo,
        hi,
        k=2,
    )
    assert sorted(out["custkey"].tolist()) == [1, 2]


@pytest.mark.usefixtures("ray_session")
def test_ship_priority_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["ship_priority"](SF), entry.oracle_sql()["ship_priority"])


@pytest.mark.usefixtures("ray_session")
def test_revenue_delta_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["revenue_delta"](SF), entry.oracle_sql()["revenue_delta"])


@pytest.mark.usefixtures("ray_session")
def test_large_orders_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["large_orders"](SF), entry.oracle_sql()["large_orders"])


@pytest.mark.usefixtures("ray_session")
def test_ship_priority_tie_break_boundary():
    """Orders tied exactly at the k-boundary revenue: earlier order
    date wins, then smaller orderkey — at any block layout."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import ship_priority

    cut = int(pd.Timestamp("1997-06-01").value // 1000)
    after = pd.Timestamp("1997-07-01")
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 2, 3], pa.int64()),
            "l_extendedprice": [100.0, 100.0, 100.0],
            "l_discount": [0.0, 0.0, 0.0],
            "l_shipdate": pa.array([after] * 3),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3], pa.int64()),
            "o_custkey": pa.array([1, 1, 1], pa.int64()),
            # order 3 placed earlier than 1 and 2 (which tie on date)
            "o_orderdate": pa.array(
                [
                    pd.Timestamp("1997-02-01"),
                    pd.Timestamp("1997-02-01"),
                    pd.Timestamp("1997-01-01"),
                ]
            ),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array([1], pa.int64()),
            "c_mktsegment": ["BUILDING"],
        }
    )
    out = ship_priority(
        rd.from_arrow(li).repartition(3),
        rd.from_arrow(orders),
        rd.from_arrow(cust),
        segment="BUILDING",
        cutoff_us=cut,
        k=2,
    )
    # all revenues tie: date breaks first (order 3), then orderkey (1)
    assert sorted(out["orderkey"].tolist()) == [1, 3]


@pytest.mark.usefixtures("ray_session")
def test_ship_priority_segment_gate_and_shipped_excluded():
    """Customers outside the segment and lineitems already shipped at
    the cutoff contribute nothing."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import ship_priority

    cut = int(pd.Timestamp("1997-06-01").value // 1000)
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 2], pa.int64()),
            "l_extendedprice": [50.0, 70.0, 99.0],
            "l_discount": [0.0, 0.5, 0.0],
            # first line of order 1 shipped BEFORE the cutoff: excluded
            "l_shipdate": pa.array(
                [
                    pd.Timestamp("1997-01-01"),
                    pd.Timestamp("1997-08-01"),
                    pd.Timestamp("1997-08-01"),
                ]
            ),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_custkey": pa.array([1, 2], pa.int64()),
            "o_orderdate": pa.array([pd.Timestamp("1997-03-01")] * 2),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array([1, 2], pa.int64()),
            "c_mktsegment": ["BUILDING", "MACHINERY"],
        }
    )
    out = ship_priority(
        rd.from_arrow(li),
        rd.from_arrow(orders),
        rd.from_arrow(cust),
        segment="BUILDING",
        cutoff_us=cut,
        k=10,
    )
    # order 2's customer is outside the segment; order 1 counts only
    # its unshipped 70.0 @ 50% line = 7000 cents * 50 = 350000 u4
    assert out["orderkey"].tolist() == [1]
    assert out["revenue_u4"].tolist() == [350_000]


@pytest.mark.usefixtures("ray_session")
def test_revenue_delta_empty_band_and_bounds():
    """Discount band inclusive on both ends, quantity strictly below;
    an empty band returns (0, 0) not NULL."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import revenue_delta

    lo = int(pd.Timestamp("1997-01-01").value // 1000)
    hi = int(pd.Timestamp("1998-01-01").value // 1000)
    li = pa.table(
        {
            "l_extendedprice": [100.0, 100.0, 100.0, 100.0],
            "l_discount": [0.05, 0.07, 0.08, 0.06],
            "l_quantity": [10.0, 23.0, 10.0, 24.0],
            "l_shipdate": pa.array([pd.Timestamp("1997-06-01")] * 4),
        }
    )
    out = revenue_delta(
        rd.from_arrow(li).repartition(2), lo, hi, 5, 7, 24
    )
    # rows 1 (5%) and 2 (7%) qualify; 8% is out of band, qty=24 is not <24
    assert out["n"].tolist() == [2]
    assert out["revenue_u4"].tolist() == [10_000 * 5 + 10_000 * 7]
    empty = revenue_delta(rd.from_arrow(li), lo, hi, 1, 2, 5)
    assert empty["revenue_u4"].tolist() == [0] and empty["n"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
def test_promo_revenue_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["promo_revenue"](SF), entry.oracle_sql()["promo_revenue"])


@pytest.mark.usefixtures("ray_session")
def test_promo_revenue_hand_counts_and_empty_window():
    import ray.data as rd

    from ocr_lib_ray.functions.relational import promo_revenue

    li = pa.table(
        {
            "l_partkey": pa.array([1, 2, 1], pa.int64()),
            "l_extendedprice": [100.0, 50.0, 100.0],
            "l_discount": [0.0, 0.0, 0.5],
            "l_shipdate": pa.array([pd.Timestamp("1997-03-01")] * 3),
        }
    )
    part = pa.table(
        {
            "p_partkey": pa.array([1, 2], pa.int64()),
            "p_type": ["PROMO SHINY", "STANDARD DULL"],
        }
    )
    lo = int(pd.Timestamp("1997-01-01").value // 1000)
    hi = int(pd.Timestamp("1998-01-01").value // 1000)
    out = promo_revenue(
        rd.from_arrow(li).repartition(2), rd.from_arrow(part), lo, hi
    )
    # part 1 revenue: 100*100% + 100*50% = 1_000_000 + 500_000 u4 (promo)
    # part 2 revenue: 50*100% = 500_000 u4
    assert out["promo_u4"].tolist() == [1_500_000]
    assert out["total_u4"].tolist() == [2_000_000]
    assert out["promo_micro"].tolist() == [750_000]
    empty = promo_revenue(
        rd.from_arrow(li),
        rd.from_arrow(part),
        int(pd.Timestamp("2050-01-01").value // 1000),
        int(pd.Timestamp("2051-01-01").value // 1000),
    )
    assert empty["promo_micro"].tolist() == [0]
    assert empty["total_u4"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
def test_order_count_dist_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(
        entry.queries()["order_count_dist"](SF),
        entry.oracle_sql()["order_count_dist"],
    )


@pytest.mark.usefixtures("ray_session")
def test_order_count_dist_zero_bucket():
    """The outer-join zero path: a customer with no qualifying orders
    lands in the c_count=0 bucket (not dropped)."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import order_count_dist

    orders = pa.table(
        {
            "o_custkey": pa.array([1, 1, 2], pa.int64()),
            "o_orderpriority": ["1-URGENT", "1-URGENT", "5-LOW"],
        }
    )
    cust = pa.table({"c_custkey": pa.array([1, 2, 3], pa.int64())})
    out = (
        order_count_dist(rd.from_arrow(orders).repartition(2), rd.from_arrow(cust))
        .to_pandas()
        .sort_values("c_count")
        .reset_index(drop=True)
    )
    # cust 1: 2 urgent; cust 2: only LOW -> 0; cust 3: no orders -> 0
    assert out["c_count"].tolist() == [0, 2]
    assert out["custdist"].tolist() == [2, 1]


@pytest.mark.usefixtures("ray_session")
def test_top_supplier_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["top_supplier"](SF), entry.oracle_sql()["top_supplier"])


@pytest.mark.usefixtures("ray_session")
def test_top_supplier_ties_and_empty_window():
    import ray.data as rd

    from ocr_lib_ray.functions.relational import top_supplier

    li = pa.table(
        {
            "l_suppkey": pa.array([1, 2, 3], pa.int64()),
            "l_extendedprice": [100.0, 100.0, 50.0],
            "l_discount": [0.0, 0.0, 0.0],
            "l_shipdate": pa.array([pd.Timestamp("1997-03-01")] * 3),
        }
    )
    supp = pa.table(
        {
            "s_suppkey": pa.array([1, 2, 3], pa.int64()),
            "s_name": ["s1", "s2", "s3"],
        }
    )
    lo = int(pd.Timestamp("1997-01-01").value // 1000)
    hi = int(pd.Timestamp("1998-01-01").value // 1000)
    out = (
        top_supplier(rd.from_arrow(li).repartition(2), rd.from_arrow(supp), lo, hi)
        .to_pandas()
        .sort_values("suppkey")
        .reset_index(drop=True)
    )
    # suppliers 1 and 2 tie at the max -> BOTH returned
    assert out["suppkey"].tolist() == [1, 2]
    assert out["s_name"].tolist() == ["s1", "s2"]
    assert out["total_rev_u4"].tolist() == [1_000_000, 1_000_000]
    empty = top_supplier(
        rd.from_arrow(li),
        rd.from_arrow(supp),
        int(pd.Timestamp("2050-01-01").value // 1000),
        int(pd.Timestamp("2051-01-01").value // 1000),
    )
    assert len(empty) == 0
    assert sorted(empty.columns) == ["s_name", "suppkey", "total_rev_u4"]


@pytest.mark.usefixtures("ray_session")
def test_small_qty_revenue_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(
        entry.queries()["small_qty_revenue"](SF),
        entry.oracle_sql()["small_qty_revenue"],
    )


@pytest.mark.usefixtures("ray_session")
def test_small_qty_revenue_threshold_is_strict():
    """qty exactly AT frac*avg is excluded (strict <), and other
    brands never contribute."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import small_qty_revenue

    # part 1 (brand B): quantities 1, 4, 10 -> avg 5, threshold 1/5*5 = 1
    #   qty 1 is NOT < 1 -> excluded; nothing qualifies for part 1
    # part 2 (brand B): quantities 1, 9 -> avg 5, threshold 1 -> excluded too
    # part 3 (other brand): tiny qty, must be ignored entirely
    li = pa.table(
        {
            "l_partkey": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "l_quantity": [1.0, 4.0, 10.0, 1.0, 9.0, 1.0],
            "l_extendedprice": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        }
    )
    part = pa.table(
        {
            "p_partkey": pa.array([1, 2, 3], pa.int64()),
            "p_brand": ["B", "B", "X"],
        }
    )
    out = small_qty_revenue(
        rd.from_arrow(li).repartition(3), rd.from_arrow(part), brand="B",
        frac_num=1, frac_den=5,
    )
    assert out["total_cents"].tolist() == [0]
    assert out["n"].tolist() == [0]
    # loosen the fraction to 1/2: threshold 2.5 -> qty-1 rows qualify
    out2 = small_qty_revenue(
        rd.from_arrow(li).repartition(3), rd.from_arrow(part), brand="B",
        frac_num=1, frac_den=2,
    )
    assert out2["total_cents"].tolist() == [1000 + 4000]
    assert out2["n"].tolist() == [2]


@pytest.mark.usefixtures("ray_session")
def test_idle_customers_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["idle_customers"](SF), entry.oracle_sql()["idle_customers"])


@pytest.mark.usefixtures("ray_session")
def test_idle_customers_empty_is_typed():
    """A cutoff every customer ordered after yields an EMPTY result
    with the documented pinned schema (not a schema-less block)."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import idle_customers

    cust = pa.table(
        {
            "c_custkey": pa.array([1, 2], pa.int64()),
            "c_mktsegment": ["BUILDING", "BUILDING"],
            "c_acctbal": [100.0, 200.0],
        }
    )
    orders = pa.table(
        {
            "o_custkey": pa.array([1, 2], pa.int64()),
            "o_orderdate": pa.array([pd.Timestamp("1999-01-01")] * 2),
        }
    )
    out = idle_customers(
        rd.from_arrow(cust),
        rd.from_arrow(orders),
        segments=["BUILDING"],
        cutoff_us=int(pd.Timestamp("1998-01-01").value // 1000),
    )
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    assert len(out) == 0
    assert sorted(out.columns) == ["bal_cents_sum", "n_cust", "segment"]


@pytest.mark.usefixtures("ray_session")
def test_nation_volume_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["nation_volume"](SF), entry.oracle_sql()["nation_volume"])


@pytest.mark.usefixtures("ray_session")
def test_market_share_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["market_share"](SF), entry.oracle_sql()["market_share"])


@pytest.mark.usefixtures("ray_session")
def test_order_count_dist_drops_order_side_orphans():
    """LEFT JOIN semantics exactly: an order whose custkey has no
    customer row contributes nothing (review finding — the zero-union
    rewrite used to count orphans)."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import order_count_dist

    orders = pa.table(
        {
            "o_custkey": pa.array([1, 99], pa.int64()),  # 99 is an orphan
            "o_orderpriority": ["1-URGENT", "1-URGENT"],
        }
    )
    cust = pa.table({"c_custkey": pa.array([1, 2], pa.int64())})
    out = (
        order_count_dist(rd.from_arrow(orders), rd.from_arrow(cust))
        .to_pandas()
        .sort_values("c_count")
        .reset_index(drop=True)
    )
    # cust 1: one urgent order; cust 2: zero; orphan 99: DROPPED
    assert out["c_count"].tolist() == [0, 1]
    assert out["custdist"].tolist() == [1, 1]


@pytest.mark.usefixtures("ray_session")
def test_nation_volume_and_market_share_empty_are_typed():
    """Empty windows hand back typed empty frames, not schema-less
    zero-block datasets (review finding)."""
    import pyarrow.parquet as pq2
    import ray.data as rd

    from ocr_lib_ray.functions.relational import market_share, nation_volume

    lo = int(pd.Timestamp("2050-01-01").value // 1000)
    hi = int(pd.Timestamp("2051-01-01").value // 1000)
    li = rd.from_arrow(pq2.read_table(f"{SF}/lineitem.parquet"))
    orders = rd.from_arrow(pq2.read_table(f"{SF}/orders.parquet"))
    cust = rd.from_arrow(pq2.read_table(f"{SF}/customer.parquet"))
    supp = rd.from_arrow(pq2.read_table(f"{SF}/supplier.parquet"))
    part = rd.from_arrow(pq2.read_table(f"{SF}/part.parquet"))
    nation = pq2.read_table(f"{SF}/nation.parquet")
    region = pq2.read_table(f"{SF}/region.parquet")
    nv = nation_volume(
        li, orders, cust, supp, nation, "NATION_3", "NATION_7", lo, hi
    )
    nv = nv.to_pandas() if hasattr(nv, "to_pandas") else nv
    assert len(nv) == 0
    assert sorted(nv.columns) == ["cust_nation", "revenue_u4", "supp_nation"]
    ms = market_share(
        li, orders, cust, supp, part, nation, region,
        "NATION_3", "ASIA", "ECONOMY", lo, hi,
    )
    ms = ms.to_pandas() if hasattr(ms, "to_pandas") else ms
    assert len(ms) == 0
    assert sorted(ms.columns) == [
        "o_year", "share_micro", "target_u4", "total_u4",
    ]


@pytest.mark.usefixtures("ray_session")
def test_nation_volume_and_market_share_empty_left_side(monkeypatch):
    """An empty per-order side reaches the final orderkey join (only the
    right side is probed for emptiness) and comes back as the typed
    empty frame on both join paths: broadcast, and bucketed with
    DIM_BROADCAST_MAX at 0."""
    import pyarrow.parquet as pq2
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins
    import ocr_lib_ray.functions.relational as rel

    li = rd.from_arrow(pq2.read_table(f"{SF}/lineitem.parquet"))
    orders = rd.from_arrow(pq2.read_table(f"{SF}/orders.parquet"))
    cust = rd.from_arrow(pq2.read_table(f"{SF}/customer.parquet"))
    supp = rd.from_arrow(pq2.read_table(f"{SF}/supplier.parquet"))
    part = rd.from_arrow(pq2.read_table(f"{SF}/part.parquet"))
    nation = pq2.read_table(f"{SF}/nation.parquet")
    region = pq2.read_table(f"{SF}/region.parquet")

    def ts(day):
        return int(pd.Timestamp(day).value // 1000)

    empty_nv = pd.DataFrame(
        {
            "supp_nation": pd.Series([], dtype=object),
            "cust_nation": pd.Series([], dtype=object),
            "revenue_u4": pd.Series([], dtype=np.int64),
        }
    )
    empty_ms = pd.DataFrame(
        {
            c: pd.Series([], dtype=np.int64)
            for c in ("o_year", "target_u4", "total_u4", "share_micro")
        }
    )
    orderkey_joins = []
    real_join = rel.hash_join

    def spy(left, right, key, *a, **kw):
        if key == "orderkey":
            orderkey_joins.append(key)
        return real_join(left, right, key, *a, **kw)

    monkeypatch.setattr(rel, "hash_join", spy)
    for bound in (joins.DIM_BROADCAST_MAX, 0):
        monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", bound)
        orderkey_joins.clear()
        # no lineitem ships in 2050; the orders side is the whole table
        nv = rel.nation_volume(
            li, orders, cust, supp, nation, "NATION_3", "NATION_7",
            ts("2050-01-01"), ts("2051-01-01"),
        )
        # no part has this type; the gated orders are 1995-1997's
        ms = rel.market_share(
            li, orders, cust, supp, part, nation, region,
            "NATION_3", "ASIA", "NO SUCH TYPE", ts("1995-01-01"), ts("1997-01-01"),
        )
        assert orderkey_joins == ["orderkey", "orderkey"], bound
        pd.testing.assert_frame_equal(nv, empty_nv)
        pd.testing.assert_frame_equal(ms, empty_ms)


@pytest.mark.usefixtures("ray_session")
def test_band_revenue_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(entry.queries()["band_revenue"](SF), entry.oracle_sql()["band_revenue"])


@pytest.mark.usefixtures("ray_session")
def test_band_revenue_disjunction_semantics():
    """A line matching the qty range of ANOTHER brand's band must NOT
    count (the OR is of conjunctions, not of separate predicates)."""
    import ray.data as rd

    from ocr_lib_ray.functions.relational import band_revenue

    li = pa.table(
        {
            "l_partkey": pa.array([1, 2, 2], pa.int64()),
            "l_quantity": [5.0, 5.0, 15.0],
            "l_extendedprice": [100.0, 200.0, 400.0],
            "l_discount": [0.0, 0.0, 0.0],
        }
    )
    part = pa.table(
        {
            "p_partkey": pa.array([1, 2], pa.int64()),
            "p_brand": ["A", "B"],
        }
    )
    out = band_revenue(
        rd.from_arrow(li).repartition(2),
        rd.from_arrow(part),
        bands=[("A", 1, 10), ("B", 11, 20)],
    )
    # line 1 (A, qty 5): in A's band; line 2 (B, qty 5): qty only fits
    # A's band -> excluded; line 3 (B, qty 15): in B's band
    assert out["revenue_u4"].tolist() == [(10_000 + 40_000) * 100]
    assert out["n"].tolist() == [2]


@pytest.mark.usefixtures("ray_session")
def test_customer_features_matches_duckdb():
    import __ray_entry__ as entry

    _cmp(
        entry.queries()["customer_features"](SF),
        entry.oracle_sql()["customer_features"],
    )


@pytest.mark.usefixtures("ray_session")
def test_customer_features_single_order_sentinel():
    import ray.data as rd

    from ocr_lib_ray.functions.relational import customer_features

    orders = pa.table(
        {
            "o_custkey": pa.array([1, 2, 2], pa.int64()),
            "o_orderdate": pa.array(
                [
                    pd.Timestamp("1997-01-01"),
                    pd.Timestamp("1997-01-01"),
                    pd.Timestamp("1997-01-03"),
                ]
            ),
            "o_totalprice": [10.0, 20.0, 40.0],
        }
    )
    out = (
        customer_features(rd.from_arrow(orders).repartition(2))
        .to_pandas()
        .set_index("custkey")
        .sort_index()
    )
    assert out.loc[1, "avg_gap_us"] == -1  # single order: sentinel
    assert out.loc[1, "span_us"] == 0
    assert out.loc[2, "n_orders"] == 2
    assert out.loc[2, "span_us"] == 2 * 86_400_000_000
    assert out.loc[2, "avg_gap_us"] == 2 * 86_400_000_000
    assert out.loc[2, "avg_order_cents"] == 3000


@pytest.mark.usefixtures("ray_session")
def test_customer_features_null_custkey_raises():
    import ray.data as rd

    from ocr_lib_ray.functions.relational import customer_features

    orders = pa.table(
        {
            "o_custkey": pa.array([1, None], pa.int64()),
            "o_orderdate": pa.array([pd.Timestamp("1997-01-01")] * 2),
            "o_totalprice": [10.0, 20.0],
        }
    )
    with pytest.raises(Exception) as ei:
        customer_features(rd.from_arrow(orders)).to_pandas()
    assert "null o_custkey" in str(ei.value)


@pytest.mark.usefixtures("ray_session")
def test_order_count_dist_null_keys_raise():
    import ray.data as rd

    from ocr_lib_ray.functions.relational import order_count_dist

    orders = pa.table(
        {
            "o_custkey": pa.array([1, None], pa.int64()),
            "o_orderpriority": ["1-URGENT", "1-URGENT"],
        }
    )
    cust = pa.table({"c_custkey": pa.array([1, 2], pa.int64())})
    with pytest.raises(Exception) as ei:
        order_count_dist(rd.from_arrow(orders), rd.from_arrow(cust)).to_pandas()
    assert "null o_custkey" in str(ei.value)

    orders_ok = pa.table(
        {
            "o_custkey": pa.array([1], pa.int64()),
            "o_orderpriority": ["1-URGENT"],
        }
    )
    cust_null = pa.table({"c_custkey": pa.array([1, None], pa.int64())})
    with pytest.raises(Exception) as ei:
        order_count_dist(rd.from_arrow(orders_ok), rd.from_arrow(cust_null)).to_pandas()
    assert "null c_custkey" in str(ei.value)


@pytest.mark.usefixtures("ray_session")
def test_adaptive_dim_broadcast_equals_join_fallback(monkeypatch):
    """Round-5 adaptive dims: the broadcast plan (default at catalog
    scale) and the bucketed-join fallback must produce identical
    results for both restructured star queries."""
    import pyarrow.parquet as pq2
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins
    import ocr_lib_ray.functions.relational as rel

    lo = int(pd.Timestamp("1995-01-01").value // 1000)
    hi = int(pd.Timestamp("1997-01-01").value // 1000)
    li = rd.from_arrow(pq2.read_table(f"{SF}/lineitem.parquet"))
    orders = rd.from_arrow(pq2.read_table(f"{SF}/orders.parquet"))
    cust = rd.from_arrow(pq2.read_table(f"{SF}/customer.parquet"))
    supp = rd.from_arrow(pq2.read_table(f"{SF}/supplier.parquet"))
    part = rd.from_arrow(pq2.read_table(f"{SF}/part.parquet"))
    nation = pq2.read_table(f"{SF}/nation.parquet")
    region = pq2.read_table(f"{SF}/region.parquet")

    def both(fn):
        a = fn()
        monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
        b = fn()
        monkeypatch.undo()
        return a, b

    pt = pq2.read_table(f"{SF}/part.parquet").column("p_type")[0].as_py()
    a, b = both(
        lambda: rel.market_share(
            li, orders, cust, supp, part, nation, region,
            "NATION_3", "ASIA", pt, lo, hi,
        )
    )
    pd.testing.assert_frame_equal(
        a.sort_values("o_year").reset_index(drop=True),
        b.sort_values("o_year").reset_index(drop=True),
    )
    a2, b2 = both(
        lambda: rel.nation_volume(
            li, orders, cust, supp, nation, "NATION_3", "NATION_7", lo, hi
        )
    )
    key = ["supp_nation", "cust_nation"]
    pd.testing.assert_frame_equal(
        a2.sort_values(key).reset_index(drop=True),
        b2.sort_values(key).reset_index(drop=True),
    )
    assert len(a2) or len(a)  # at least one query exercised real rows

    # large_orders: the customer-name enrich broadcasts by default and
    # must equal the bucketed-join fallback row-for-row
    a3, b3 = both(
        lambda: rel.large_orders(li, orders, cust, min_qty=25)
        .to_pandas()
        .sort_values("orderkey")
        .reset_index(drop=True)
    )
    assert len(a3) > 0
    pd.testing.assert_frame_equal(a3, b3)

    # ship_priority: the segment-custkey gate broadcasts by default and
    # must equal the bucketed semi-join fallback row-for-row
    seg = pq2.read_table(f"{SF}/customer.parquet").column("c_mktsegment")[0].as_py()
    cutoff = int(pd.Timestamp("1996-01-01").value // 1000)
    a4, b4 = both(
        lambda: rel.ship_priority(li, orders, cust, seg, cutoff, k=10)
    )
    assert len(a4) > 0
    pd.testing.assert_frame_equal(a4, b4)

    # star_revenue: the (custkey -> nationkey) broadcast tag must equal
    # the fused bucketed-join fallback row-for-row
    a5, b5 = both(
        lambda: rel.star_revenue(
            li, orders, cust, nation, region, "ASIA", lo, hi
        )
    )
    assert len(a5) > 0
    pd.testing.assert_frame_equal(a5, b5)
