"""Star-schema relational analytics (TPC-H-shaped) over the
lineitem / orders / customer / nation / region tables.

The reference engine's aggregate / sort / join primitives (SURVEY
§2.6: min/max/count/sum reducers, sort, set ops — `core.clj` reduce
pipeline) compose here into the classic warehouse query shapes a
corpus-scale deployment runs next to its extraction jobs:

* ``pricing_summary``      — one-pass grouped sums (TPC-H Q1 shape)
* ``star_revenue``         — fact⋈fact⋈dims star join (Q5 shape)
* ``top_customers``        — global top-k revenue ranking (Q10 shape)
* ``late_order_priority``  — EXISTS-with-predicate count (Q4 shape)
* ``ship_priority``        — segment-gated unshipped-order top-k (Q3 shape)
* ``revenue_delta``        — predicate-band scalar aggregate (Q6 shape)
* ``large_orders``         — HAVING-on-join-key filter (Q18 shape)
* ``order_count_dist``     — outer-join count histogram (Q13 shape)
* ``top_supplier``         — max-over-aggregate self-filter (Q15 shape)
* ``small_qty_revenue``    — correlated AVG subquery, decorrelated (Q17 shape)
* ``idle_customers``       — scalar-broadcast filter + anti join (Q22 shape)
* ``nation_volume``        — two-fact two-dim join chain (Q7 shape)
* ``market_share``         — share-of-aggregate star chain (Q8 shape)

Money is integer.  Every monetary input column is 2-decimal exact
(verified against the fixture generator: max |x*100 − round(x*100)|
< 1e-9), so aggregates run in exact integer units — cents (1e-2 $),
``u4`` = cents × whole-percent (1e-4 $) for discounted revenue, and
``u6`` = u4 × (100+tax%) (1e-6 $) for the taxed charge.  Integer sums
commute, so every aggregate is bit-equal to the DuckDB oracle
regardless of block arrival order (float sums are order-dependent and
would hash-diverge).  Bound: per-row u6 ≤ ~1.1e11 (a 10k$ line), so a
single (flag,status) group overflows int64 only past ~8e7 rows ×
1.1e11 ≈ beyond 10 PB of lineitem in ONE group — at that scale switch
the partial dtype to float128/decimal; documented, not silently wrong.

Scale design (100 TB): the only all-to-all exchanges are the bucketed
fact⋈fact hash joins (revenue⋈orders on orderkey, revenue⋈customer on
custkey) and final groupbys over pre-aggregated partials.  lineitem —
the dominant table — is pre-aggregated to one row per orderkey per
block BEFORE any join, so the join shuffles ~#orders rows, never
#lineitems.  Every join here is a :func:`joins.hash_join` call, which
picks its own path: a single-key inner enrich or semi/anti gate whose
prepped right side fits ``joins.DIM_BROADCAST_MAX`` (nation, region,
one nation's suppliers, a region's customers — and ``customer`` itself
while it is that small) is broadcast once into a map-side lookup; a
larger side, a repeated right key or a fused ``left_group_agg`` runs
the bucketed exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from .bucket_tasks import exchange_map_groups
from .joins import dim_lookup, hash_join, make_dim_ref


def cents(col) -> pa.ChunkedArray:
    """2-decimal double column → exact int64 cents (see module doc)."""
    return pc.round(pc.multiply(col, 100.0), ndigits=0).cast(pa.int64())


def pct(col) -> pa.ChunkedArray:
    """2-decimal rate column (discount/tax) → exact int64 whole percent."""
    return pc.round(pc.multiply(col, 100.0), ndigits=0).cast(pa.int64())


# --------------------------------------------------------------------------
# Q1 shape — pricing summary
# --------------------------------------------------------------------------


def pricing_summary(lineitem_ds, cutoff_us: int):
    """Grouped pricing summary over lineitem shipped on/before
    ``cutoff_us`` (epoch micros): per (l_returnflag, l_linestatus) the
    exact integer sums sum_qty / sum_base_cents / sum_disc_u4 /
    sum_charge_u6 and row count n.  One corpus pass: per-block partial
    sums (combiner) then a ≤|flag×status| groupby — the shuffle
    carries a handful of rows per block."""

    def partials(b: pa.Table) -> pa.Table:
        keep = pc.less_equal(b.column("l_shipdate").cast(pa.int64()), cutoff_us)
        b = b.filter(keep)
        base = cents(b.column("l_extendedprice"))
        disc = pct(b.column("l_discount"))
        tax = pct(b.column("l_tax"))
        disc_u4 = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
        charge_u6 = pc.multiply(disc_u4, pc.add(pa.scalar(100, pa.int64()), tax))
        t = pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": b.column("l_quantity").cast(pa.int64()),
                "base": base,
                "disc_u4": disc_u4,
                "charge_u6": charge_u6,
            }
        )
        df = t.to_pandas()
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty=("qty", "sum"),
                sum_base_cents=("base", "sum"),
                sum_disc_u4=("disc_u4", "sum"),
                sum_charge_u6=("charge_u6", "sum"),
                n=("qty", "count"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    part = lineitem_ds.map_batches(partials, batch_format="pyarrow")
    return part.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_u4", alias_name="sum_disc_u4"),
        Sum("sum_charge_u6", alias_name="sum_charge_u6"),
        Sum("n", alias_name="n"),
    )


# --------------------------------------------------------------------------
# shared: lineitem → one revenue row per orderkey per block
# --------------------------------------------------------------------------


def _revenue_partials(b: pa.Table, flag: str | None = None) -> pa.Table:
    """(orderkey, rev_u4) partials — one row per orderkey per block.
    ``flag`` optionally restricts to one l_returnflag (Q10's 'R')."""
    if flag is not None:
        b = b.filter(pc.equal(b.column("l_returnflag"), flag))
    base = cents(b.column("l_extendedprice"))
    disc = pct(b.column("l_discount"))
    rev = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
    t = pa.table({"orderkey": b.column("l_orderkey"), "rev_u4": rev})
    df = t.to_pandas()
    g = df.groupby("orderkey", sort=False)["rev_u4"].sum().reset_index()
    return pa.Table.from_pandas(g, preserve_index=False)


def _orders_window(orders_ds, lo_us: int, hi_us: int, extra_cols=()):
    """orders filtered to ``lo_us <= o_orderdate < hi_us``, renamed to
    the bare join key."""

    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").cast(pa.int64())
        keep = pc.and_(pc.greater_equal(d, lo_us), pc.less(d, hi_us))
        b = b.filter(keep)
        cols = {"orderkey": b.column("o_orderkey"), "custkey": b.column("o_custkey")}
        for c in extra_cols:
            cols[c] = b.column(c)
        return pa.table(cols)

    return orders_ds.map_batches(prep, batch_format="pyarrow")


def _revenue_by_custkey(
    lineitem_ds,
    orders_ds,
    lo_us,
    hi_us,
    flag=None,
    num_partitions=None,
    as_partials: bool = False,
):
    """lineitem ⋈ orders-in-window → exact integer revenue per custkey.
    lineitem is pre-aggregated per block before the join, and the full
    per-orderkey aggregate is FUSED into the join exchange
    (``left_group_agg`` — one all-to-all where groupby-then-join would
    pay two).  ``as_partials=True`` returns per-block (custkey, rev_u4)
    PARTIAL sums instead of the final per-custkey aggregate, so a
    downstream join can fuse that aggregate into its own exchange too.
    """
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    rev = lineitem_ds.map_batches(
        lambda b: _revenue_partials(b, flag), batch_format="pyarrow"
    )
    joined = hash_join(
        rev,
        _orders_window(orders_ds, lo_us, hi_us),
        "orderkey",
        right_value_cols=["custkey"],
        how="inner",
        num_partitions=num_partitions,
        left_group_agg={"rev_u4": ("rev_u4", "sum")},
    )

    def part(b: pa.Table) -> pa.Table:
        # hash_join suffixes right value columns with "_r"
        df = b.select(["custkey_r", "rev_u4"]).to_pandas()
        df.columns = ["custkey", "rev_u4"]
        df["custkey"] = df["custkey"].astype(np.int64)
        g = df.groupby("custkey", sort=False)["rev_u4"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = joined.map_batches(part, batch_format="pyarrow")
    if as_partials:
        return partials
    return partials.groupby("custkey").aggregate(Sum("rev_u4", alias_name="revenue_u4"))


# --------------------------------------------------------------------------
# Q5 shape — revenue per nation within one region
# --------------------------------------------------------------------------


def star_revenue(
    lineitem_ds,
    orders_ds,
    customer_ds,
    nation: pa.Table,
    region: pa.Table,
    region_name: str,
    lo_us: int,
    hi_us: int,
    num_partitions: int | None = None,
):
    """Revenue per nation for customers in ``region_name``, orders in
    [lo_us, hi_us): the star-join shape.  nation⋈region is pre-joined
    driver-side (≤ 30 rows total at ANY scale); it and (custkey ->
    nationkey) tag the per-block revenue partials through two inner
    ``hash_join`` calls, each a broadcast while its side fits
    ``DIM_BROADCAST_MAX`` (one exchange total) and bucketed past it.
    No per-custkey aggregate is needed before the tags: the driver
    reduce sums partials per nation, and sums commute.  Output:
    (n_name, revenue_u4), exact integer units."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    rev_cust_partials = _revenue_by_custkey(
        lineitem_ds,
        orders_ds,
        lo_us,
        hi_us,
        num_partitions=num_partitions,
        as_partials=True,
    )

    cust = customer_ds.map_batches(
        lambda b: pa.table(
            {
                "custkey": b.column("c_custkey"),
                "nationkey": b.column("c_nationkey").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    with_nation = hash_join(
        rev_cust_partials,
        cust,
        "custkey",
        right_value_cols=["nationkey"],
        suffix="",
        num_partitions=num_partitions,
    )

    # driver-side dim prejoin: 25 nations × 5 regions — constant-size
    rk = {
        r["r_name"]: r["r_regionkey"] for r in region.to_pylist()
    }
    if region_name not in rk:
        raise ValueError(f"unknown region {region_name!r}")
    nat = nation.filter(pc.equal(nation.column("n_regionkey"), rk[region_name]))
    dim = pa.table(
        {
            "nationkey": nat.column("n_nationkey").cast(pa.int64()),
            "n_name": nat.column("n_name"),
        }
    )
    import ray.data as rd

    tagged = hash_join(
        with_nation,
        rd.from_arrow(dim),
        "nationkey",
        right_value_cols=["n_name"],
        suffix="",
        num_partitions=num_partitions,
    )

    def part(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {"n_name": pa.array([], pa.string()), "rev": pa.array([], pa.int64())}
            )
        df = b.select(["n_name", "rev_u4"]).to_pandas()
        df["rev_u4"] = df["rev_u4"].astype(np.int64)
        g = df.groupby("n_name", sort=False)["rev_u4"].sum().reset_index()
        g.columns = ["n_name", "rev"]
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = tagged.map_batches(part, batch_format="pyarrow")
    # driver-side reduce of the per-block partials (≤ blocks × |region
    # nations| tiny integer rows at any corpus size) — the old
    # groupby paid a full all-to-all's fixed latency to sum a
    # |nations|-sized result (round-5 market_share pattern)
    import pandas as pd

    rows = partials.take_all()
    if not rows:
        return pd.DataFrame(
            {
                "n_name": pd.Series(dtype=object),
                "revenue_u4": pd.Series(dtype="int64"),
            }
        )
    agg = pd.DataFrame(rows).groupby("n_name", sort=True)["rev"].sum().reset_index()
    agg.columns = ["n_name", "revenue_u4"]
    agg["revenue_u4"] = agg["revenue_u4"].astype(np.int64)
    return agg


# --------------------------------------------------------------------------
# Q10 shape — top-k customers by returned revenue
# --------------------------------------------------------------------------


def top_customers(
    lineitem_ds,
    orders_ds,
    customer_ds,
    lo_us: int,
    hi_us: int,
    k: int = 10,
    num_partitions: int | None = None,
):
    """Top-``k`` customers by returned ('R') revenue for orders in
    [lo_us, hi_us), joined back to the customer name.  Global top-k is
    per-block prune to k (on the per-custkey aggregate — already one
    row per customer) → DRIVER merge of the ≤ blocks × k pruned rows
    (round 5: the old repartition(1) paid an all-to-all barrier for
    the same merge); ties break (revenue DESC, custkey ASC) so the
    k-boundary is deterministic.  The k winner keys then BROADCAST
    into a map-only name lookup over the corpus-scaled customer table
    — never an exchange for k rows.  Output: pandas
    (custkey, c_name, revenue_u4)."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    rev_cust = _revenue_by_custkey(
        lineitem_ds, orders_ds, lo_us, hi_us, flag="R", num_partitions=num_partitions
    )

    def prune(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        idx = pc.sort_indices(
            b, sort_keys=[("revenue_u4", "descending"), ("custkey", "ascending")]
        )
        return b.take(idx[:k])

    # per-block prune → DRIVER merge (≤ blocks × k tiny rows; the old
    # repartition(1) paid an all-to-all for the same merge), then the
    # k winner keys BROADCAST into a map-only name lookup over the
    # corpus-scaled customer table — the old final hash_join shipped
    # every customer row through an exchange to join k winners
    import pandas as pd
    import ray

    pruned = rev_cust.map_batches(prune, batch_format="pyarrow").take_all()
    empty = pd.DataFrame(
        {
            "custkey": pd.Series(dtype="int64"),
            "c_name": pd.Series(dtype=object),
            "revenue_u4": pd.Series(dtype="int64"),
        }
    )
    if not pruned:
        return empty
    top = (
        pd.DataFrame(pruned)
        .sort_values(
            ["revenue_u4", "custkey"], ascending=[False, True], kind="mergesort"
        )
        .head(k)
        .reset_index(drop=True)
    )
    key_ref = ray.put(
        pa.array(sorted(int(x) for x in top["custkey"]), pa.int64())
    )

    def match_names(b: pa.Table) -> pa.Table:
        want = ray.get(key_ref)
        t = pa.table(
            {"custkey": b.column("c_custkey"), "c_name": b.column("c_name")}
        )
        return t.filter(pc.is_in(t.column("custkey"), value_set=want))

    names = customer_ds.map_batches(match_names, batch_format="pyarrow").take_all()
    name_by_key = {int(r["custkey"]): r["c_name"] for r in names}
    # inner-join semantics: winners missing from customer drop
    top = top[top["custkey"].astype("int64").isin(name_by_key)].reset_index(drop=True)
    if top.empty:
        return empty
    top["c_name"] = [name_by_key[int(ck)] for ck in top["custkey"]]
    top["custkey"] = top["custkey"].astype(np.int64)
    top["revenue_u4"] = top["revenue_u4"].astype(np.int64)
    return top[["custkey", "c_name", "revenue_u4"]]


# --------------------------------------------------------------------------
# Q4 shape — order priority counts with an EXISTS predicate
# --------------------------------------------------------------------------


def late_order_priority(lineitem_ds, orders_ds, lo_us: int, hi_us: int, num_partitions: int | None = None):
    """Per-priority count of orders in [lo_us, hi_us) that have at
    least one lineitem shipped AFTER the order date (the
    EXISTS-with-cross-table-predicate shape, TPC-H Q4).  The predicate
    EXISTS(l.orderkey = o.orderkey AND l_shipdate > o_orderdate) is
    rewritten as max(l_shipdate) per orderkey (a per-block partial +
    tiny groupby) inner-joined to orders then filtered — equivalent
    because only the latest shipment decides existence.  Output:
    (o_orderpriority, n)."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)

    def ship_partials(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "orderkey": b.column("l_orderkey"),
                "max_ship_us": b.column("l_shipdate").cast(pa.int64()),
            }
        )
        df = t.to_pandas()
        g = df.groupby("orderkey", sort=False)["max_ship_us"].max().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    ship = lineitem_ds.map_batches(ship_partials, batch_format="pyarrow")
    orders = _orders_window(
        orders_ds, lo_us, hi_us, extra_cols=("o_orderpriority", "o_orderdate")
    )
    # the per-orderkey MAX is fused into the join exchange: one
    # all-to-all where groupby(orderkey)-then-join would pay two
    joined = hash_join(
        ship,
        orders,
        "orderkey",
        right_value_cols=["o_orderpriority", "o_orderdate"],
        how="inner",
        num_partitions=num_partitions,
        left_group_agg={"max_ship_us": ("max_ship_us", "max")},
    )

    schema = pa.schema([("o_orderpriority", pa.string()), ("n", pa.int64())])

    def part(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return schema.empty_table()
        late = pc.greater(
            pc.cast(b.column("max_ship_us"), pa.int64()),
            b.column("o_orderdate_r").cast(pa.int64()),
        )
        b = b.filter(late)
        df = b.select(["o_orderpriority_r"]).to_pandas()
        df.columns = ["o_orderpriority"]
        g = df.groupby("o_orderpriority", sort=False).size().reset_index(name="n")
        # pin the schema: an all-filtered batch would otherwise emit a
        # null-typed object column and drift the stream schema
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    partials = joined.map_batches(part, batch_format="pyarrow")
    return partials.groupby("o_orderpriority").aggregate(Sum("n", alias_name="n"))

# --------------------------------------------------------------------------
# Q3 shape — unshipped-order revenue top-k within a market segment
# --------------------------------------------------------------------------


def ship_priority(
    lineitem_ds,
    orders_ds,
    customer_ds,
    segment: str,
    cutoff_us: int,
    k: int = 10,
    num_partitions: int | None = None,
):
    """Top-``k`` orders by revenue of lineitems NOT YET shipped at
    ``cutoff_us``, for orders placed before the cutoff by customers in
    ``segment`` (TPC-H Q3 shape).  Output: (orderkey, o_date_us,
    revenue_u4), ties (revenue DESC, o_date ASC, orderkey ASC).

    Scale shape: lineitem — the dominant table — is filtered AND
    pre-aggregated to one (orderkey, rev) row per block before its
    join; the segment gate is a SEMI ``hash_join``, which broadcasts
    the segment custkeys when they fit ``DIM_BROADCAST_MAX`` (map-side
    lookup) and runs bucketed past the bound; global top-k
    is per-block prune → DRIVER merge of the ≤ k × #blocks pruned
    rows (round 5: the old repartition(1) paid an all-to-all barrier
    for the same merge).  Output: pandas (orderkey, o_date_us,
    revenue_u4)."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)

    def seg_keys(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("c_mktsegment"), segment))
        return pa.table({"custkey": b.column("c_custkey")})

    seg = customer_ds.map_batches(seg_keys, batch_format="pyarrow")

    def orders_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").cast(pa.int64())
        b = b.filter(pc.less(d, cutoff_us))
        return pa.table(
            {
                "orderkey": b.column("o_orderkey"),
                "custkey": b.column("o_custkey"),
                "o_date_us": b.column("o_orderdate").cast(pa.int64()),
            }
        )

    orders = orders_ds.map_batches(orders_prep, batch_format="pyarrow")
    # segment gate: the semi join broadcasts the segment custkeys when
    # they fit (map-side lookup — no custkey exchange at all), else it
    # runs bucketed (fallback-equality pinned in test_relational.py)
    orders_in_seg = hash_join(
        orders, seg, "custkey", how="semi", num_partitions=num_partitions
    )

    def rev_parts(b: pa.Table) -> pa.Table:
        keep = pc.greater(b.column("l_shipdate").cast(pa.int64()), cutoff_us)
        return _revenue_partials(b.filter(keep))

    rev = lineitem_ds.map_batches(rev_parts, batch_format="pyarrow")

    # per-orderkey revenue aggregate fused into the join exchange
    joined = hash_join(
        rev,
        orders_in_seg,
        "orderkey",
        right_value_cols=["o_date_us"],
        how="inner",
        num_partitions=num_partitions,
        left_group_agg={"revenue_u4": ("rev_u4", "sum")},
    ).map_batches(
        lambda b: b.select(["orderkey", "o_date_us_r", "revenue_u4"]).rename_columns(
            ["orderkey", "o_date_us", "revenue_u4"]
        ),
        batch_format="pyarrow",
    )

    def prune(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        idx = pc.sort_indices(
            b,
            sort_keys=[
                ("revenue_u4", "descending"),
                ("o_date_us", "ascending"),
                ("orderkey", "ascending"),
            ],
        )
        return b.take(idx[:k])

    # per-block prune → DRIVER merge of ≤ blocks × k tiny rows (the
    # old repartition(1) paid an all-to-all barrier for the same merge)
    import pandas as pd

    pruned = joined.map_batches(prune, batch_format="pyarrow").take_all()
    cols = ["orderkey", "o_date_us", "revenue_u4"]
    if not pruned:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    top = (
        pd.DataFrame(pruned)
        .sort_values(
            ["revenue_u4", "o_date_us", "orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        )
        .head(k)
        .reset_index(drop=True)
    )
    for c in cols:
        top[c] = top[c].astype(np.int64)
    return top[cols]


# --------------------------------------------------------------------------
# Q6 shape — predicate-band scalar revenue aggregate
# --------------------------------------------------------------------------


def revenue_delta(
    lineitem_ds,
    lo_us: int,
    hi_us: int,
    disc_lo_pct: int,
    disc_hi_pct: int,
    max_qty: int,
):
    """Scalar forecast-revenue-change aggregate (TPC-H Q6 shape): over
    lineitems shipped in [lo_us, hi_us) with discount in
    [disc_lo_pct, disc_hi_pct] whole percent and quantity < max_qty,
    the exact integer sum of extendedprice×discount (u4 = cents×pct)
    plus the qualifying row count.  One corpus pass, per-block partial
    sums, only (rev, n) pairs leave each block; the driver reduces a
    per-block pair list — nothing corpus-sized is collected.  Returns a
    one-row pandas DataFrame (revenue_u4, n); an empty band yields
    (0, 0) to match the oracle's COALESCE."""
    import pandas as pd

    def part(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").cast(pa.int64())
        disc = pct(b.column("l_discount"))
        keep = pc.and_(
            pc.and_(pc.greater_equal(d, lo_us), pc.less(d, hi_us)),
            pc.and_(
                pc.and_(
                    pc.greater_equal(disc, disc_lo_pct),
                    pc.less_equal(disc, disc_hi_pct),
                ),
                pc.less(b.column("l_quantity"), float(max_qty)),
            ),
        )
        b2 = b.filter(keep)
        rev = pc.multiply(
            cents(b2.column("l_extendedprice")), pct(b2.column("l_discount"))
        )
        s = pc.sum(rev)
        return pa.table(
            {
                "rev_u4": pa.array([s.as_py() or 0], pa.int64()),
                "n": pa.array([b2.num_rows], pa.int64()),
            }
        )

    agg = lineitem_ds.map_batches(part, batch_format="pyarrow").aggregate(
        Sum("rev_u4", alias_name="revenue_u4"), Sum("n", alias_name="n")
    )
    return pd.DataFrame(
        {
            "revenue_u4": [int(agg["revenue_u4"] or 0)],
            "n": [int(agg["n"] or 0)],
        }
    )


# --------------------------------------------------------------------------
# Q18 shape — large-volume orders (HAVING on the join key's aggregate)
# --------------------------------------------------------------------------


def large_orders(
    lineitem_ds,
    orders_ds,
    customer_ds,
    min_qty: int,
    num_partitions: int | None = None,
):
    """Orders whose TOTAL lineitem quantity exceeds ``min_qty``, joined
    to order metadata and the customer name (TPC-H Q18 shape — the
    HAVING-filter-then-enrich pattern).  Output: (orderkey, custkey,
    c_name, o_date_us, total_cents, sum_qty), one row per qualifying
    order; the full set is returned (it is HAVING-filtered to a tiny
    fraction of orders by construction), order not part of the
    contract.

    Scale shape: quantity partials per block → one groupby at
    #orders scale → the > min_qty filter shrinks the left side BEFORE
    both joins, so the joins shuffle only qualifying orders; the
    customer name enrich is an inner ``hash_join``, a broadcast while
    the name table fits ``DIM_BROADCAST_MAX`` (map-side lookup, no
    second exchange) and bucketed past the bound."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)

    def qty_parts(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "orderkey": b.column("l_orderkey"),
                "qty": b.column("l_quantity").cast(pa.int64()),
            }
        )
        df = t.to_pandas()
        g = df.groupby("orderkey", sort=False)["qty"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    qty = lineitem_ds.map_batches(qty_parts, batch_format="pyarrow")

    def orders_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": b.column("o_orderkey"),
                "custkey": b.column("o_custkey"),
                "o_date_us": b.column("o_orderdate").cast(pa.int64()),
                "total_cents": cents(b.column("o_totalprice")),
            }
        )

    orders = orders_ds.map_batches(orders_prep, batch_format="pyarrow")
    # the per-orderkey quantity aggregate is fused into the join
    # exchange; the HAVING filter then runs map-only on the joined
    # rows (equivalent: the fused agg makes the left one row per
    # orderkey, and orders is 1:1 on orderkey, so no multiplication)
    with_order = hash_join(
        qty,
        orders,
        "orderkey",
        right_value_cols=["custkey", "o_date_us", "total_cents"],
        suffix="",
        num_partitions=num_partitions,
        left_group_agg={"sum_qty": ("qty", "sum")},
    ).map_batches(
        lambda b: b.filter(pc.greater(b.column("sum_qty"), int(min_qty))),
        batch_format="pyarrow",
    )

    cust = customer_ds.map_batches(
        lambda b: pa.table(
            {"custkey": b.column("c_custkey"), "c_name": b.column("c_name")}
        ),
        batch_format="pyarrow",
    )
    return hash_join(
        with_order,
        cust,
        "custkey",
        right_value_cols=["c_name"],
        suffix="",
        num_partitions=num_partitions,
    ).select_columns(
        ["orderkey", "custkey", "c_name", "o_date_us", "total_cents", "sum_qty"]
    )


# --------------------------------------------------------------------------
# Q14 shape — promotion revenue share
# --------------------------------------------------------------------------


def promo_revenue(
    lineitem_ds,
    part_ds,
    lo_us: int,
    hi_us: int,
    promo_prefix: str = "PROMO",
    num_partitions: int | None = None,
):
    """Promotion revenue share over lineitems shipped in [lo_us, hi_us)
    (TPC-H Q14 shape — the fact⋈product-dimension CASE-ratio).  Output:
    one-row pandas DataFrame (promo_u4, total_u4, promo_micro) where
    promo_micro = (promo_u4 * 1e6) // total_u4 exact int64 (0 when the
    window is empty).  Int64 bound: promo_u4 must stay under ~9.2e12
    (≈ a billion promo dollars) for the micro product — beyond that
    switch the share to a float or rescale; documented, not silently
    wrong.

    Scale shape: lineitem is window-filtered AND pre-aggregated to one
    (partkey, rev) row per block before the join; ``part`` scales with
    the catalog, so it goes through the bucketed hash join (reduced to
    (partkey, is_promo) first — two thin columns), never a broadcast;
    the final reduction ships one (promo, total) pair per block."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    import pandas as pd

    def rev_parts(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").cast(pa.int64())
        keep = pc.and_(pc.greater_equal(d, lo_us), pc.less(d, hi_us))
        b = b.filter(keep)
        base = cents(b.column("l_extendedprice"))
        disc = pct(b.column("l_discount"))
        rev = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
        t = pa.table({"partkey": b.column("l_partkey"), "rev_u4": rev})
        df = t.to_pandas()
        g = df.groupby("partkey", sort=False)["rev_u4"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = lineitem_ds.map_batches(rev_parts, batch_format="pyarrow")

    def part_prep(b: pa.Table) -> pa.Table:
        promo = pc.starts_with(b.column("p_type"), promo_prefix).cast(pa.int64())
        return pa.table({"partkey": b.column("p_partkey"), "is_promo": promo})

    part = part_ds.map_batches(part_prep, batch_format="pyarrow")
    # per-partkey revenue aggregate fused into the join exchange
    joined = hash_join(
        rev,
        part,
        "partkey",
        right_value_cols=["is_promo"],
        how="inner",
        num_partitions=num_partitions,
        left_group_agg={"rev_u4": ("rev_u4", "sum")},
    )

    def pair(b: pa.Table) -> pa.Table:
        r = b.column("rev_u4").to_numpy(zero_copy_only=False)
        p = b.column("is_promo_r").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "promo_u4": pa.array([int((r * p).sum())], pa.int64()),
                "total_u4": pa.array([int(r.sum())], pa.int64()),
            }
        )

    agg = joined.map_batches(pair, batch_format="pyarrow").aggregate(
        Sum("promo_u4", alias_name="promo_u4"), Sum("total_u4", alias_name="total_u4")
    )
    promo = int(agg["promo_u4"] or 0)
    total = int(agg["total_u4"] or 0)
    return pd.DataFrame(
        {
            "promo_u4": [promo],
            "total_u4": [total],
            "promo_micro": [(promo * 1_000_000) // total if total else 0],
        }
    )


# --------------------------------------------------------------------------
# Q13 shape — per-customer order-count distribution (outer-join histogram)
# --------------------------------------------------------------------------


def order_count_dist(
    orders_ds,
    customer_ds,
    include_prefix: str = "1-",
):
    """Distribution of per-customer order counts, counting only orders
    whose priority starts with ``include_prefix`` (TPC-H Q13 shape —
    LEFT JOIN with a filtered right side, then a second aggregation
    over the first's result).  Customers with NO qualifying orders land
    in the ``c_count = 0`` bucket — the outer-join zero path — and,
    matching LEFT JOIN semantics exactly, orders whose custkey has no
    customer row are DROPPED (an ``is_cust`` presence flag rides the
    same exchange, so referential orphans cost no extra join).
    Output: (c_count, custdist), exact int64.

    Scale shape: the outer join is eliminated, not shuffled — every
    customer enters the SAME custkey groupby as a zero-count partial
    (union of the order partials and a customers-as-zeros stream), so
    the whole left-outer-join-plus-count collapses into ONE exchange at
    #customers scale.  The distribution regroup ships per-block
    (c_count, n) partials into a ≤ max-order-count-sized groupby."""

    def order_parts(b: pa.Table) -> pa.Table:
        if b.column("o_custkey").null_count:
            raise ValueError(
                "order_count_dist: null o_custkey values are unsupported — "
                "filter them first (pandas groupby would silently drop the "
                "rows while SQL keeps a NULL-custkey group)"
            )
        keep = pc.starts_with(b.column("o_orderpriority"), include_prefix)
        t = b.filter(keep)
        df = pa.table({"custkey": t.column("o_custkey")}).to_pandas()
        g = df.groupby("custkey", sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        g["is_cust"] = np.zeros(len(g), np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def cust_zeros(b: pa.Table) -> pa.Table:
        if b.column("c_custkey").null_count:
            raise ValueError(
                "order_count_dist: null c_custkey values are unsupported — "
                "filter them first (the groupby would silently diverge from "
                "the SQL oracle's NULL-key group)"
            )
        return pa.table(
            {
                "custkey": b.column("c_custkey"),
                "n": pa.array(np.zeros(b.num_rows, np.int64)),
                "is_cust": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )

    parts = orders_ds.map_batches(order_parts, batch_format="pyarrow").union(
        customer_ds.map_batches(cust_zeros, batch_format="pyarrow")
    )
    per_cust = parts.groupby("custkey").aggregate(
        Sum("n", alias_name="c_count"), Sum("is_cust", alias_name="is_cust")
    )

    def dist_parts(b: pa.Table) -> pa.Table:
        # drop order-side orphans: custkeys with no customer row
        b = b.filter(pc.greater(b.column("is_cust"), 0))
        df = b.select(["c_count"]).to_pandas()
        g = df.groupby("c_count", sort=False).size().reset_index(name="nd")
        g["nd"] = g["nd"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        per_cust.map_batches(dist_parts, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("nd", alias_name="custdist"))
    )


# --------------------------------------------------------------------------
# Q15 shape — top supplier (max over an aggregate, joined back)
# --------------------------------------------------------------------------


def top_supplier(lineitem_ds, supplier_ds, lo_us: int, hi_us: int, num_partitions: int | None = None):
    """Supplier(s) achieving the maximum revenue over lineitems shipped
    in [lo_us, hi_us) (TPC-H Q15 shape — a view-level aggregate whose
    MAX feeds a self-filter, then an enrich join).  ALL tied suppliers
    are returned, exact integer u4 revenue.  Output: (suppkey, s_name,
    total_rev_u4).

    Scale shape: lineitem reduces to per-block (suppkey, rev) partials
    before its only exchange (a #suppliers-scale groupby).  The
    aggregate is materialized ONCE — it is already one row per
    supplier, i.e. aggregate-sized, and both the max-scalar pass and
    the winner filter read that materialization instead of re-running
    the corpus lineage.  Only ONE scalar (the max) reaches the driver;
    winners (a handful of rows) join names through the bucketed hash
    join, since supplier scales with the corpus — never broadcast."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)

    def rev_parts(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").cast(pa.int64())
        b = b.filter(pc.and_(pc.greater_equal(d, lo_us), pc.less(d, hi_us)))
        base = cents(b.column("l_extendedprice"))
        disc = pct(b.column("l_discount"))
        rev = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
        df = pa.table({"suppkey": b.column("l_suppkey"), "rev_u4": rev}).to_pandas()
        g = df.groupby("suppkey", sort=False)["rev_u4"].sum().reset_index()
        g.columns = ["suppkey", "total_rev_u4"]
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = (
        lineitem_ds.map_batches(rev_parts, batch_format="pyarrow")
        .groupby("suppkey")
        .aggregate(Sum("total_rev_u4", alias_name="total_rev_u4"))
        .materialize()
    )
    empty = pa.table(
        {
            "suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "total_rev_u4": pa.array([], pa.int64()),
        }
    )
    if rev.count() == 0:
        # a Dataset built from a 0-row table loses its columns in
        # to_pandas(); hand back the typed empty frame directly
        return empty.to_pandas()
    mx = int(rev.max("total_rev_u4"))
    winners = rev.map_batches(
        lambda b: b.filter(pc.equal(b.column("total_rev_u4"), mx)),
        batch_format="pyarrow",
    )
    supp = supplier_ds.map_batches(
        lambda b: pa.table(
            {"suppkey": b.column("s_suppkey"), "s_name": b.column("s_name")}
        ),
        batch_format="pyarrow",
    )
    out = hash_join(
        winners,
        supp,
        "suppkey",
        right_value_cols=["s_name"],
        how="inner",
        num_partitions=num_partitions,
    )
    return out.map_batches(
        lambda b: b.select(["suppkey", "s_name_r", "total_rev_u4"]).rename_columns(
            ["suppkey", "s_name", "total_rev_u4"]
        ),
        batch_format="pyarrow",
    )


# --------------------------------------------------------------------------
# Q17 shape — small-quantity revenue (correlated avg subquery, decorrelated)
# --------------------------------------------------------------------------


def small_qty_revenue(
    lineitem_ds,
    part_ds,
    brand: str,
    frac_num: int = 1,
    frac_den: int = 5,
    num_partitions: int | None = None,
):
    """Revenue sitting in small-quantity lineitems of one brand's parts
    (TPC-H Q17 shape — the correlated per-part AVG subquery,
    decorrelated into a per-part aggregate consumed in the same
    exchange).  A lineitem qualifies when its quantity is STRICTLY
    below frac_num/frac_den of its part's mean quantity; the comparison
    is the exact integer cross-multiplication
    ``qty * frac_den * n_part < qty_sum_part * frac_num`` (quantities
    are integer-valued — fixture-contract checked by the round+cast).
    Output: one-row DataFrame (total_cents, n, avg_yearly_cents =
    total_cents // 7), (0, 0, 0) when nothing qualifies.

    Scale shape: ``part`` reduces to brand partkeys (a thin key set
    that scales with the catalog — bucketed SEMI join, not broadcast);
    the surviving brand lineitems then make ONE partkey exchange where
    each group computes its own avg AND filters its own rows
    (one exchange by partkey — subquery and probe fused, no second join);
    per-group (cents, n) partials reduce to a single driver pair."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    import pandas as pd

    def li_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "partkey": b.column("l_partkey"),
                "q": pc.round(b.column("l_quantity"), ndigits=0).cast(pa.int64()),
                "cents_ext": cents(b.column("l_extendedprice")),
            }
        )

    li = lineitem_ds.map_batches(li_prep, batch_format="pyarrow")

    def brand_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("p_brand"), brand))
        return pa.table({"partkey": t.column("p_partkey")})

    bp = part_ds.map_batches(brand_keys, batch_format="pyarrow")
    brand_li = hash_join(li, bp, "partkey", how="semi", num_partitions=num_partitions)

    def per_part(df: "pd.DataFrame") -> "pd.DataFrame":
        qs = int(df["q"].sum())
        n = len(df)
        keep = df["q"].to_numpy() * (frac_den * n) < qs * frac_num
        return pd.DataFrame(
            {
                "total_cents": [int(df["cents_ext"].to_numpy()[keep].sum())],
                "n": [int(keep.sum())],
            }
        )

    agg = exchange_map_groups(
        brand_li, "partkey", per_part, num_partitions, batch_format="pandas"
    ).aggregate(Sum("total_cents", alias_name="total_cents"), Sum("n", alias_name="n"))
    total = int(agg["total_cents"] or 0)
    return pd.DataFrame(
        {
            "total_cents": [total],
            "n": [int(agg["n"] or 0)],
            "avg_yearly_cents": [total // 7],
        }
    )


# --------------------------------------------------------------------------
# Q22 shape — dormant high-balance customers (scalar broadcast + anti join)
# --------------------------------------------------------------------------


def idle_customers(
    customer_ds,
    orders_ds,
    segments: list,
    cutoff_us: int,
    num_partitions: int | None = None,
):
    """Per-segment count and balance of high-balance customers with NO
    order on/after ``cutoff_us`` (TPC-H Q22 shape — a global-scalar AVG
    subquery broadcast into a filter, then NOT EXISTS).  'High balance'
    = account balance strictly above the mean POSITIVE balance of the
    selected-segment population; the comparison is the exact integer
    cross-multiplication ``bal_cents * n_pos > sum_pos_cents``.
    Output: (segment, n_cust, bal_cents_sum).

    Scale shape: the AVG subquery reduces to exactly TWO driver
    scalars (positive-balance cent sum + count) via per-block partials
    — the corpus-sized population never leaves the workers; the NOT
    EXISTS is the bucketed ANTI join against the cutoff-filtered order
    custkeys (orders scale with the corpus — never broadcast, and the
    date filter prunes the right side before its exchange); the final
    groupby is |segments|-sized over per-block partials."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(customer_ds, floor=32)

    def seg_prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b.column("c_mktsegment"), value_set=pa.array(segments)))
        return pa.table(
            {
                "custkey": t.column("c_custkey"),
                "segment": t.column("c_mktsegment"),
                "bal": cents(t.column("c_acctbal")),
            }
        )

    # the thin 3-column segment slice feeds TWO passes (the scalar
    # reduce, then the rich filter); materialize it once so the
    # corpus-scale customer read + segment filter never re-executes —
    # 24 B/row, the object store spills if a giant segment demands it
    seg = customer_ds.map_batches(seg_prep, batch_format="pyarrow").materialize()

    def pos_parts(b: pa.Table) -> pa.Table:
        bal = b.column("bal").filter(pc.greater(b.column("bal"), 0))
        s = pc.sum(bal)
        return pa.table(
            {
                "s_pos": pa.array([s.as_py() or 0], pa.int64()),
                "n_pos": pa.array([len(bal)], pa.int64()),
            }
        )

    scal = seg.map_batches(pos_parts, batch_format="pyarrow").aggregate(
        Sum("s_pos", alias_name="s_pos"), Sum("n_pos", alias_name="n_pos")
    )
    s_pos = int(scal["s_pos"] or 0)
    n_pos = int(scal["n_pos"] or 0)

    rich = seg.map_batches(
        lambda b: b.filter(
            pc.greater(pc.multiply(b.column("bal"), n_pos), s_pos)
        ),
        batch_format="pyarrow",
    )

    def recent_orders(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").cast(pa.int64())
        t = b.filter(pc.greater_equal(d, cutoff_us))
        return pa.table({"custkey": t.column("o_custkey")})

    recent = orders_ds.map_batches(recent_orders, batch_format="pyarrow")
    idle = hash_join(rich, recent, "custkey", how="anti", num_partitions=num_partitions)

    def seg_parts(b: pa.Table) -> pa.Table:
        df = b.select(["segment", "bal"]).to_pandas()
        g = df.groupby("segment", sort=False).agg(
            n_cust=("bal", "size"), bal_cents_sum=("bal", "sum")
        ).reset_index()
        g["n_cust"] = g["n_cust"].astype(np.int64)
        g["bal_cents_sum"] = g["bal_cents_sum"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        idle.map_batches(seg_parts, batch_format="pyarrow")
        .groupby("segment")
        .aggregate(
            Sum("n_cust", alias_name="n_cust"),
            Sum("bal_cents_sum", alias_name="bal_cents_sum"),
        )
    )

    # an all-filtered corpus leaves the groupby with ZERO blocks, and a
    # block-less Dataset drops its columns in to_pandas(); the final
    # aggregate is |segments|-sized, so materializing it is free — the
    # pipeline runs exactly once, and the empty case hands back a typed
    # empty frame with the documented (segment, n_cust, bal_cents_sum)
    # schema instead of a schema-less result
    empty = pa.table(
        {
            "segment": pa.array([], pa.string()),
            "n_cust": pa.array([], pa.int64()),
            "bal_cents_sum": pa.array([], pa.int64()),
        }
    )

    def pin_schema(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "segment" not in b.column_names:
            return empty
        return b.select(["segment", "n_cust", "bal_cents_sum"])

    res = out.map_batches(pin_schema, batch_format="pyarrow").materialize()
    if res.count() == 0:
        return empty.to_pandas()
    return res


# --------------------------------------------------------------------------
# Q7 shape — cross-nation volume shipping (two-fact, two-dimension chain)
# --------------------------------------------------------------------------


def nation_volume(
    lineitem_ds,
    orders_ds,
    customer_ds,
    supplier_ds,
    nation_tbl: pa.Table,
    nation_a: str,
    nation_b: str,
    lo_us: int,
    hi_us: int,
    num_partitions: int | None = None,
):
    """Revenue flow between two nations in both directions — supplier
    nation → customer nation (TPC-H Q7 shape: the longest join chain in
    the suite, lineitem⋈supplier⋈nation⋈orders⋈customer⋈nation).
    Output: (supp_nation, cust_nation, revenue_u4), one row per
    surviving direction, exact integer u4.

    Scale shape (round-5 restructure): nation (O(25) rows at ANY
    scale) is broadcast onto supplier and customer map-side; the
    supplier side is then FILTERED to the two nations (~2/|nations| of
    suppliers).  The customer enrich moved OFF the fact chain: orders
    join the pair-filtered customers in a SIDE BRANCH (run
    CONCURRENTLY with the lineitem⋈supplier join by the streaming
    executor — both joins are 1:1 on their keys, so reordering them
    preserves the row set), and the per-(orderkey, supp_nation)
    partials meet the cust_nation-enriched orders in ONE orderkey
    join.  The final |2×2|-sized aggregate is a DRIVER-side reduce of
    per-block integer partials (the market_share pattern) — no
    all-to-all for a handful of rows.  supplier/customer/orders all
    scale with the corpus, so each of the three inner ``hash_join``
    calls broadcasts only while its filtered side fits
    ``DIM_BROADCAST_MAX``: past the bound each one is a bucketed
    exchange."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    import pandas as pd

    nat_ref = make_dim_ref(nation_tbl, "n_nationkey", ["n_name"])
    pair = {nation_a, nation_b}

    def supp_prep(b: pa.Table) -> pa.Table:
        import ray

        keys, vals = ray.get(nat_ref)
        nk = np.asarray(b.column("s_nationkey").to_numpy(zero_copy_only=False))
        mask, pos = dim_lookup(nk, (keys, vals))
        names = vals["n_name"].take(pa.array(pos))
        t = pa.table({"suppkey": b.column("s_suppkey"), "supp_nation": names}).filter(
            pa.array(mask)
        )
        return t.filter(pc.is_in(t.column("supp_nation"), value_set=pa.array(sorted(pair))))

    supp = supplier_ds.map_batches(supp_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").cast(pa.int64())
        b = b.filter(pc.and_(pc.greater_equal(d, lo_us), pc.less(d, hi_us)))
        base = cents(b.column("l_extendedprice"))
        disc = pct(b.column("l_discount"))
        rev = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table(
            {
                "orderkey": b.column("l_orderkey"),
                "suppkey": b.column("l_suppkey"),
                "rev_u4": rev,
            }
        )

    li = lineitem_ds.map_batches(li_prep, batch_format="pyarrow")
    # two nations' suppliers usually fit a broadcast: a map-side
    # gate+enrich
    with_supp = hash_join(
        li,
        supp,
        "suppkey",
        right_value_cols=["supp_nation"],
        suffix="",
        num_partitions=num_partitions,
    )

    def order_parts(b: pa.Table) -> pa.Table:
        df = b.select(["orderkey", "supp_nation", "rev_u4"]).to_pandas()
        g = (
            df.groupby(["orderkey", "supp_nation"], sort=False)["rev_u4"]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    per_order = with_supp.map_batches(order_parts, batch_format="pyarrow")

    def cust_prep(b: pa.Table) -> pa.Table:
        import ray

        keys, vals = ray.get(nat_ref)
        nk = np.asarray(b.column("c_nationkey").to_numpy(zero_copy_only=False))
        mask, pos = dim_lookup(nk, (keys, vals))
        names = vals["n_name"].take(pa.array(pos))
        t = pa.table({"custkey": b.column("c_custkey"), "cust_nation": names}).filter(
            pa.array(mask)
        )
        return t.filter(pc.is_in(t.column("cust_nation"), value_set=pa.array(sorted(pair))))

    cust = customer_ds.map_batches(cust_prep, batch_format="pyarrow")
    orders = orders_ds.map_batches(
        lambda b: pa.table(
            {"orderkey": b.column("o_orderkey"), "custkey": b.column("o_custkey")}
        ),
        batch_format="pyarrow",
    )
    # cust_nation enrich on the ORDERS side branch (concurrent with the
    # lineitem⋈supplier fact exchange); custkey never ships down the
    # fact stream.  Inner join also GATES orders to the pair's
    # customers, so the orderkey exchange below ships ~2/|nations| of
    # the per-order partials' join partners.  The pair's customers
    # usually fit a broadcast — the enrich is then map-side.
    enriched = hash_join(
        orders,
        cust,
        "custkey",
        right_value_cols=["cust_nation"],
        suffix="",
        num_partitions=num_partitions,
    ).select_columns(["orderkey", "cust_nation"])

    def _empty_nv():
        return pa.table(
            {
                "supp_nation": pa.array([], pa.string()),
                "cust_nation": pa.array([], pa.string()),
                "revenue_u4": pa.array([], pa.int64()),
            }
        ).to_pandas()

    # emptiness short-circuit on the right side only (see market_share)
    if enriched.limit(1).count() == 0:
        return _empty_nv()
    joined = hash_join(
        per_order,
        enriched,
        "orderkey",
        right_value_cols=["cust_nation"],
        how="inner",
        num_partitions=num_partitions,
    )

    def pair_parts(b: pa.Table) -> pa.Table:
        df = b.select(["supp_nation", "cust_nation_r", "rev_u4"]).to_pandas()
        df.columns = ["supp_nation", "cust_nation", "rev_u4"]
        df = df[df["supp_nation"] != df["cust_nation"]]
        g = (
            df.groupby(["supp_nation", "cust_nation"], sort=False)["rev_u4"]
            .sum()
            .reset_index()
        )
        g.columns = ["supp_nation", "cust_nation", "rev"]
        return pa.Table.from_pandas(g, preserve_index=False)

    # final |2×2|-sized aggregate: driver-side reduce of per-block
    # integer partials (market_share pattern) — the old groupby paid a
    # full all-to-all's fixed latency to sum at most a handful of rows,
    # and the empty case hands back the typed frame directly
    parts = joined.map_batches(pair_parts, batch_format="pyarrow").take_all()
    if not parts:
        return _empty_nv()
    agg = (
        pd.DataFrame(parts)
        .groupby(["supp_nation", "cust_nation"], sort=True)["rev"]
        .sum()
        .reset_index()
    )
    agg.columns = ["supp_nation", "cust_nation", "revenue_u4"]
    agg["revenue_u4"] = agg["revenue_u4"].astype(np.int64)
    return agg


# --------------------------------------------------------------------------
# Q8 shape — national market share (share-of-aggregate CASE ratio per year)
# --------------------------------------------------------------------------


def market_share(
    lineitem_ds,
    orders_ds,
    customer_ds,
    supplier_ds,
    part_ds,
    nation_tbl: pa.Table,
    region_tbl: pa.Table,
    target_nation: str,
    region_name: str,
    part_type: str,
    lo_us: int,
    hi_us: int,
    num_partitions: int | None = None,
):
    """Per-order-year share of one nation's suppliers in a region's
    market for one part type (TPC-H Q8 shape — the widest star join
    plus a share-of-aggregate CASE ratio).  Output: (o_year,
    target_u4, total_u4, share_micro) with share_micro =
    (target_u4 · 1e6) // total_u4 exact int64 — the same integer-ratio
    discipline as promo_revenue; the int64 bound (target_u4 below
    ~9.2e12) is documented there.

    Scale shape (round-5 restructure): every dimension side is
    ADAPTIVE — the type's part keys and the region's customer keys
    (semi ``hash_join`` gates) and the supplier ``is_target`` bits
    (an inner ``hash_join`` enrich) each broadcast when they fit
    ``DIM_BROADCAST_MAX`` (they usually do
    even under a 100 TB fact table, so the common plan pays exactly
    ONE exchange: per-order partials ⋈ gated orders) and fall back to
    the bucketed semi/inner hash joins past the bound (bit-identical
    output).  The stream is pre-aggregated per (orderkey, is_target)
    before the orders join either way.
    The customer region gate moved OFF the fact chain: orders are
    semi-gated by the region's customers in a SIDE BRANCH (one
    custkey-keyed exchange over the orders table that the streaming
    executor runs CONCURRENTLY with the part/supplier fact exchanges —
    the gate commutes with the 1:1 orderkey join, so the row set is
    identical), and the fact stream meets the pre-gated orders in one
    orderkey exchange.  The final |years|-sized aggregate is a
    DRIVER-side reduce of per-block integer partials (≤ blocks×years×2
    tiny rows at any corpus size) — the old groupby paid a full
    all-to-all's fixed latency to sum a handful of rows."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)

    nat_ref = make_dim_ref(nation_tbl, "n_nationkey", ["n_name"])
    # nationkey -> region name, resolved driver-side (both dims O(25))
    nk = nation_tbl.column("n_nationkey").to_pylist()
    nrk = nation_tbl.column("n_regionkey").to_pylist()
    rk = region_tbl.column("r_regionkey").to_pylist()
    rn = region_tbl.column("r_name").to_pylist()
    r_by_k = dict(zip(rk, rn))
    region_nationkeys = sorted(
        int(a) for a, b in zip(nk, nrk) if r_by_k.get(b) == region_name
    )

    def type_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("p_type"), part_type))
        return pa.table({"partkey": t.column("p_partkey")})

    tp = part_ds.map_batches(type_keys, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        base = cents(b.column("l_extendedprice"))
        disc = pct(b.column("l_discount"))
        rev = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table(
            {
                "partkey": b.column("l_partkey"),
                "orderkey": b.column("l_orderkey"),
                "suppkey": b.column("l_suppkey"),
                "rev_u4": rev,
            }
        )

    li_raw = lineitem_ds.map_batches(li_prep, batch_format="pyarrow")
    # part gate: one part type's keys usually fit a broadcast even
    # under a 100 TB fact table — then the semi join turns the biggest
    # exchange of the chain (all of lineitem, keyed by partkey) into a
    # map-side lookup; past the bound it runs bucketed
    li = hash_join(li_raw, tp, "partkey", how="semi", num_partitions=num_partitions)

    def supp_prep(b: pa.Table) -> pa.Table:
        import ray

        keys, vals = ray.get(nat_ref)
        nkk = np.asarray(b.column("s_nationkey").to_numpy(zero_copy_only=False))
        mask, pos = dim_lookup(nkk, (keys, vals))
        names = vals["n_name"].take(pa.array(pos))
        is_t = pc.equal(names, target_nation).cast(pa.int64())
        return pa.table(
            {"suppkey": b.column("s_suppkey"), "is_target": is_t}
        ).filter(pa.array(mask))

    supp = supplier_ds.map_batches(supp_prep, batch_format="pyarrow")
    # the (suppkey, is_target) side is one int per supplier
    with_supp = hash_join(
        li,
        supp,
        "suppkey",
        right_value_cols=["is_target"],
        suffix="",
        num_partitions=num_partitions,
    )

    def order_parts(b: pa.Table) -> pa.Table:
        df = b.select(["orderkey", "is_target", "rev_u4"]).to_pandas()
        g = (
            df.groupby(["orderkey", "is_target"], sort=False)["rev_u4"]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    per_order = with_supp.map_batches(order_parts, batch_format="pyarrow")

    def orders_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").cast(pa.int64())
        t = b.filter(pc.and_(pc.greater_equal(d, lo_us), pc.less(d, hi_us)))
        yr = pc.year(t.column("o_orderdate")).cast(pa.int64())
        return pa.table(
            {
                "orderkey": t.column("o_orderkey"),
                "custkey": t.column("o_custkey"),
                "o_year": yr,
            }
        )

    rkeys = pa.array(region_nationkeys, pa.int32())

    def cust_prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b.column("c_nationkey"), value_set=rkeys))
        return pa.table({"custkey": t.column("c_custkey")})

    cust = customer_ds.map_batches(cust_prep, batch_format="pyarrow")
    # region gate on the ORDERS side branch (concurrent with the fact
    # chain); custkey never ships down the fact stream.  A region's
    # customer keys usually fit the semi join's broadcast — the gate is
    # then map-side and the whole query pays ONE exchange
    gated_orders = hash_join(
        orders_ds.map_batches(orders_prep, batch_format="pyarrow"),
        cust,
        "custkey",
        how="semi",
        num_partitions=num_partitions,
    ).select_columns(["orderkey", "o_year"])

    def _empty_ms():
        return pa.table(
            {
                "o_year": pa.array([], pa.int64()),
                "target_u4": pa.array([], pa.int64()),
                "total_u4": pa.array([], pa.int64()),
                "share_micro": pa.array([], pa.int64()),
            }
        ).to_pandas()

    # emptiness short-circuit (typed result) on the right side: a
    # zero-row right side makes the join's dim_ref_adaptive hand back
    # the lazy side, and an all-empty chained-map dataset keeps ZERO
    # blocks — no schema survives for the bucketed union.  An empty
    # left side needs no probe: it is empty-in, empty-out on both join
    # paths, and the empty take_all below returns the typed frame
    if gated_orders.limit(1).count() == 0:
        return _empty_ms()
    with_orders = hash_join(
        per_order,
        gated_orders,
        "orderkey",
        right_value_cols=["o_year"],
        how="inner",
        num_partitions=num_partitions,
    )

    def year_parts(b: pa.Table) -> pa.Table:
        df = b.select(["o_year_r", "is_target", "rev_u4"]).to_pandas()
        df.columns = ["o_year", "is_target", "rev_u4"]
        df["target"] = df["rev_u4"] * df["is_target"]
        g = df.groupby("o_year", sort=False).agg(
            target_u4=("target", "sum"), total_u4=("rev_u4", "sum")
        ).reset_index()
        g["target_u4"] = g["target_u4"].astype(np.int64)
        g["total_u4"] = g["total_u4"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    # final aggregate: DRIVER-side reduce of the per-block partials —
    # bounded by output-blocks × |years| tiny integer rows at any
    # corpus size, so the collect is scalar-like (the pagerank
    # dangling-mass pattern), and the old |years|-groupby's full
    # all-to-all fixed latency is gone
    import pandas as pd

    parts = with_orders.map_batches(year_parts, batch_format="pyarrow").take_all()
    if not parts:
        return _empty_ms()
    agg = (
        pd.DataFrame(parts)
        .groupby("o_year", sort=True)
        .agg(target_u4=("target_u4", "sum"), total_u4=("total_u4", "sum"))
        .reset_index()
    )
    t = agg["target_u4"].to_numpy(dtype=np.int64)
    tot = agg["total_u4"].to_numpy(dtype=np.int64)
    agg["target_u4"] = t
    agg["total_u4"] = tot
    agg["share_micro"] = np.where(
        tot > 0, (t * 1_000_000) // np.maximum(tot, 1), 0
    ).astype(np.int64)
    agg["o_year"] = agg["o_year"].astype(np.int64)
    return agg


# --------------------------------------------------------------------------
# Q19 shape — disjunctive predicate-band revenue
# --------------------------------------------------------------------------


def band_revenue(
    lineitem_ds,
    part_ds,
    bands: list,
    num_partitions: int | None = None,
):
    """Revenue matched by a DISJUNCTION of (brand, qty_lo, qty_hi)
    bands (TPC-H Q19 shape — the OR-of-conjunctions predicate that
    defeats naive pushdown).  A lineitem qualifies when its part's
    brand and its quantity fall inside ANY band (qty bounds
    inclusive).  Output: one-row DataFrame (revenue_u4, n), (0, 0)
    when nothing matches.

    Scale shape: the predicate is split across the join — the quantity
    disjunction (brand-independent part) cannot prune alone, so
    lineitem is reduced to (partkey, qty, rev) rows filtered to the
    UNION of all quantity ranges first (a map-only prune that keeps
    only potentially-matching lines), the part side is reduced to the
    banded brands' keys + brand, and the inner hash join carries thin
    rows (a broadcast while those keys fit, bucketed past them); the
    final band check and (rev, n) reduction are map-only.  No
    driver-side collection beyond the two scalars."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(lineitem_ds, floor=32)
    import pandas as pd

    if not bands:
        raise ValueError("band_revenue: need at least one (brand, lo, hi) band")
    brands = sorted({b for b, _, _ in bands})
    qty_lo = min(lo for _, lo, _ in bands)
    qty_hi = max(hi for _, _, hi in bands)

    def li_prep(b: pa.Table) -> pa.Table:
        qty = pc.round(b.column("l_quantity"), ndigits=0).cast(pa.int64())
        keep = pc.and_(
            pc.greater_equal(qty, qty_lo), pc.less_equal(qty, qty_hi)
        )
        base = cents(b.column("l_extendedprice"))
        disc = pct(b.column("l_discount"))
        rev = pc.multiply(base, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table(
            {
                "partkey": b.column("l_partkey"),
                "qty": qty,
                "rev_u4": rev,
            }
        ).filter(keep)

    li = lineitem_ds.map_batches(li_prep, batch_format="pyarrow")

    def part_prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b.column("p_brand"), value_set=pa.array(brands)))
        return pa.table(
            {"partkey": t.column("p_partkey"), "brand": t.column("p_brand")}
        )

    part = part_ds.map_batches(part_prep, batch_format="pyarrow")
    joined = hash_join(
        li,
        part,
        "partkey",
        right_value_cols=["brand"],
        how="inner",
        num_partitions=num_partitions,
    )

    def band_parts(b: pa.Table) -> pa.Table:
        brand = b.column("brand_r").to_numpy(zero_copy_only=False)
        qty = b.column("qty").to_numpy(zero_copy_only=False)
        rev = b.column("rev_u4").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(brand), dtype=bool)
        for bb, lo, hi in bands:
            keep |= (brand == bb) & (qty >= lo) & (qty <= hi)
        return pa.table(
            {
                "rev_u4": pa.array([int(rev[keep].sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    agg = joined.map_batches(band_parts, batch_format="pyarrow").aggregate(
        Sum("rev_u4", alias_name="revenue_u4"), Sum("n", alias_name="n")
    )
    return pd.DataFrame(
        {
            "revenue_u4": [int(agg["revenue_u4"] or 0)],
            "n": [int(agg["n"] or 0)],
        }
    )


# --------------------------------------------------------------------------
# feature-store shape — per-customer lifetime aggregates
# --------------------------------------------------------------------------


def customer_features(
    orders_ds,
    num_partitions: int | None = None,
):
    """Per-customer lifetime order features — the feature-store /
    churn-model input shape: (custkey, n_orders, first_us, last_us,
    span_us, total_cents, avg_order_cents, avg_gap_us), every value
    exact int64.  ``avg_order_cents = total_cents // n_orders`` and
    ``avg_gap_us = span_us // (n_orders - 1)`` (floor; ``-1`` for
    single-order customers — an integer sentinel, never a float NaN).

    Scale shape: one corpus pass emits per-block per-customer partials
    (min/max/sum/count — a combiner, so the groupby ships ≤ #customers
    rows per block, never raw orders), then ONE #customers-scale
    groupby; the derived ratios are map-only integer divisions."""
    if num_partitions is None:
        from .joins import derive_num_partitions

        num_partitions = derive_num_partitions(orders_ds, floor=32)
    from ray.data.aggregate import Max, Min

    def partials(b: pa.Table) -> pa.Table:
        if b.column("o_custkey").null_count:
            raise ValueError(
                "customer_features: null o_custkey values are unsupported — "
                "filter them first (pandas groupby would silently drop the "
                "rows while SQL emits a NULL-custkey group)"
            )
        t = pa.table(
            {
                "custkey": b.column("o_custkey"),
                "d_us": b.column("o_orderdate").cast(pa.int64()),
                "cents": cents(b.column("o_totalprice")),
            }
        )
        df = t.to_pandas()
        g = df.groupby("custkey", sort=False).agg(
            n=("cents", "size"),
            first_us=("d_us", "min"),
            last_us=("d_us", "max"),
            total_cents=("cents", "sum"),
        ).reset_index()
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        orders_ds.map_batches(partials, batch_format="pyarrow")
        .groupby("custkey")
        .aggregate(
            Sum("n", alias_name="n_orders"),
            Min("first_us", alias_name="first_us"),
            Max("last_us", alias_name="last_us"),
            Sum("total_cents", alias_name="total_cents"),
        )
    )

    def derive(b: pa.Table) -> pa.Table:
        n = b.column("n_orders").to_numpy(zero_copy_only=False)
        first = b.column("first_us").to_numpy(zero_copy_only=False)
        last = b.column("last_us").to_numpy(zero_copy_only=False)
        tot = b.column("total_cents").to_numpy(zero_copy_only=False)
        span = last - first
        avg_order = tot // np.maximum(n, 1)
        gap = np.where(n > 1, span // np.maximum(n - 1, 1), -1)
        return pa.Table.from_arrays(
            [
                b.column("custkey"),
                pa.array(n.astype(np.int64)),
                pa.array(first.astype(np.int64)),
                pa.array(last.astype(np.int64)),
                pa.array(span.astype(np.int64)),
                pa.array(tot.astype(np.int64)),
                pa.array(avg_order.astype(np.int64)),
                pa.array(gap.astype(np.int64)),
            ],
            names=[
                "custkey",
                "n_orders",
                "first_us",
                "last_us",
                "span_us",
                "total_cents",
                "avg_order_cents",
                "avg_gap_us",
            ],
        )

    return agg.map_batches(derive, batch_format="pyarrow")
