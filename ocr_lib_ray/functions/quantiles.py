"""Distributed exact quantiles over a bounded-domain numeric column.

The standard corpus-curation question — "what is the P50/P90/P99
document length?" — needs exact quantiles over 10^12 rows.  A global
``sort`` is an all-to-all shuffle of every row; sampling sketches are
approximate.  For the columns this actually gets asked of (token
counts, line counts, chunk counts — small-integer domains), the scale
answer is a HISTOGRAM: a map-side ``value_counts`` per batch, one tiny
``groupby(value)`` shuffle of (value, count) partials — distinct-
values-sized, not corpus-sized — then a driver cumulative sum over the
collected histogram to read the order statistics off exactly.

The quantile definition matches DuckDB ``quantile_disc`` bit-for-bit
(index ``max(0, ceil(q*n) - 1)`` into the sorted values, the discrete
lower-order statistic; verified empirically and pinned by the oracle):
both sides compute ``ceil`` of the same IEEE double product, so the
driver query hash-verifies.
"""

from __future__ import annotations

import math

import pyarrow as pa
import pyarrow.compute as pc

from .bucket_tasks import exchange_map_groups


def _check_qs(qs) -> None:
    bad = [q for q in qs if not 0.0 <= q <= 1.0]
    if bad:
        raise ValueError(
            f"quantile fractions must be in [0, 1], got {bad} — an out-of-"
            "range q would otherwise surface as an opaque length mismatch"
        )


def histogram_quantiles(
    ds,
    col: str,
    qs=(0.25, 0.5, 0.75, 0.9, 0.99),
    max_distinct: int = 1_000_000,
):
    """Exact quantiles of ``ds[col]`` → pyarrow Table (q, <col>).

    ``max_distinct`` guards the driver-collected histogram: the method
    is for bounded-domain columns (counts, sizes, years).  A column
    with more distinct values than that (float scores, timestamps)
    needs a sort-based or sketch path instead — the raise says so
    rather than silently melting the driver.

    Nulls are ignored (SQL aggregate semantics).  Returns an empty
    table when every value is null / the dataset is empty.
    """
    from ray.data.aggregate import Sum

    _check_qs(qs)

    def partials(b: pa.Table) -> pa.Table:
        vc = pc.value_counts(b.column(col).drop_null().combine_chunks())
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=[col, "cnt"],
        )

    hist = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(col)
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )
    n_distinct = hist.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"{n_distinct} distinct values exceeds max_distinct="
            f"{max_distinct}: histogram_quantiles is for bounded-domain "
            "columns — use a sort-based quantile for continuous data"
        )
    rows = sorted(
        (r[col], r["cnt"]) for b in hist.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    )
    try:
        sch = hist.schema()
        val_type = sch.types[sch.names.index(col)]
        if not isinstance(val_type, pa.DataType):
            val_type = pa.int64()
    except Exception:  # empty dataset: no schema to read
        val_type = pa.int64()
    if not rows:
        return pa.Table.from_arrays(
            [pa.array([], pa.float64()), pa.array([], val_type)],
            names=["q", col],
        )
    total = sum(c for _, c in rows)
    out = []
    for q in qs:
        # DuckDB quantile_disc: sorted index max(0, ceil(q*n) - 1);
        # same IEEE double product on both sides, so boundary cases
        # (q*n landing on an integer ± 1 ulp) agree bit-for-bit
        target = max(0, math.ceil(q * total) - 1)
        cum = 0
        for v, c in rows:
            cum += c
            if cum > target:
                out.append(v)
                break
    return pa.Table.from_arrays(
        [pa.array(list(qs), pa.float64()), pa.array(out, val_type)],
        names=["q", col],
    )


def quantile_band_filter(
    ds,
    col: str,
    lo_q: float = 0.1,
    hi_q: float = 0.9,
    max_distinct: int = 1_000_000,
):
    """Keep rows whose ``col`` lies inside the corpus-level
    ``[lo_q, hi_q]`` exact quantile band (inclusive) — the percentile
    outlier trim ("drop the shortest 10% and longest 10%") used to cut
    boilerplate stubs and concatenation monsters before training.

    Two passes over ``ds`` (quantile bounds, then a map-only filter):
    pass a cheap projection — or a materialized stats dataset — when
    upstream lineage is expensive to re-execute.  The bounds are two
    scalars, broadcast by closure capture (no shuffle in pass 2).
    Null values never match the band (SQL BETWEEN semantics); an
    all-null/empty column yields an empty result for the same reason.
    """
    _check_qs([lo_q, hi_q])
    if lo_q > hi_q:
        raise ValueError(f"lo_q {lo_q} > hi_q {hi_q}")
    bounds = histogram_quantiles(ds, col, (lo_q, hi_q), max_distinct)
    if bounds.num_rows == 0:
        lo, hi = None, None  # BETWEEN NULL — matches nothing
    else:
        lo = bounds.column(col)[0].as_py()
        hi = bounds.column(col)[1].as_py()

    def keep(b: pa.Table) -> pa.Table:
        if lo is None:
            return b.slice(0, 0)
        c = b.column(col)
        return b.filter(pc.and_kleene(pc.greater_equal(c, lo), pc.less_equal(c, hi)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def sort_quantiles(
    ds,
    col: str,
    qs=(0.25, 0.5, 0.75, 0.9, 0.99),
):
    """Exact quantiles of a CONTINUOUS-domain column (float scores,
    timestamps) — the path :func:`histogram_quantiles`' ``max_distinct``
    raise points at.

    One distributed ``sort(col)`` (the unavoidable all-to-all for exact
    order statistics on an unbounded domain), then each target index is
    read via ``split_at_indices`` + ``limit(1)`` — per-quantile cost is
    one block read, never a driver-side scan of the sorted data.  The
    quantile definition matches DuckDB ``quantile_disc`` exactly
    (sorted index ``max(0, ceil(q*n) - 1)``).  Nulls are dropped first
    (SQL aggregate semantics).  Prefer :func:`histogram_quantiles`
    whenever the domain is bounded — it does the same job with a
    distinct-values-sized shuffle instead of a full sort.
    """
    _check_qs(qs)

    def drop_nulls(b: pa.Table) -> pa.Table:
        return b.select([col]).drop_null()

    ordered = (
        ds.map_batches(drop_nulls, batch_format="pyarrow", zero_copy_batch=True)
        .sort(col)
        .materialize()
    )
    total = ordered.count()  # metadata-only on a materialized dataset
    if total == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.float64()), pa.array([], pa.int64())],
            names=["q", col],
        )
    # one split pass shared by every quantile: split at each distinct
    # target index; the first row of each following split is the value
    targets = [max(0, math.ceil(q * total) - 1) for q in qs]
    uniq = sorted(set(targets))
    splits = ordered.split_at_indices(uniq)
    at: dict = {}
    for idx, part in zip(uniq, splits[1:]):
        at[idx] = part.limit(1).take(1)[0][col]
    vals = [at[t] for t in targets]
    sch = ordered.schema()
    vt = sch.types[sch.names.index(col)]
    return pa.Table.from_arrays(
        [
            pa.array(list(qs), pa.float64()),
            pa.array(vals, vt if isinstance(vt, pa.DataType) else None),
        ],
        names=["q", col],
    )


def quantized_quantiles(
    ds,
    col: str,
    qs=(0.25, 0.5, 0.75, 0.9, 0.99),
    step: float = 0.01,
    max_distinct: int = 1_000_000,
):
    """Quantiles of a CONTINUOUS column without the global sort
    :func:`sort_quantiles` pays: values are floored onto a fixed grid
    (``g = floor(v / step)``) and the exact histogram path runs on the
    grid ids — one distinct-grid-values-sized shuffle at any corpus
    size.  The answer is the lower grid edge (``g * step``), so the
    error is bounded by ``step`` — DETERMINISTIC and SQL-reproducible
    (``quantile_disc(floor(v/step)) * step`` — same IEEE divide/floor/
    multiply on both sides), unlike a sampling or t-digest sketch.

    Pick ``step`` from the column's semantics (0.01 for money, 1.0 for
    millisecond latencies, …); ``max_distinct`` still guards the grid
    cardinality (range/step buckets).  Nulls ignored; empty → empty.
    """
    _check_qs(qs)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")

    def grid(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(col).drop_null().combine_chunks(), pa.float64())
        return pa.Table.from_arrays(
            [pc.floor(pc.divide(v, step))], names=[col]
        )

    t = histogram_quantiles(
        ds.map_batches(grid, batch_format="pyarrow", zero_copy_batch=True),
        col,
        qs,
        max_distinct,
    )
    if t.num_rows == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.float64()), pa.array([], pa.float64())],
            names=["q", col],
        )
    vals = pc.multiply(pc.cast(t.column(col), pa.float64()), step)
    return t.set_column(1, col, vals)


def ecdf_percent_rank(
    ds,
    col: str,
    group_col: str | None = None,
    max_distinct: int = 1_000_000,
    rank_col: str = "pct_rank",
    cume_col: str = "cume_dist",
):
    """Append exact ``percent_rank()`` / ``cume_dist()`` over ``col``
    (optionally ``PARTITION BY group_col``) to every row — the score-
    normalization step of a filtering pipeline ("drop everything below
    the corpus P30 of quality", "keep each language's top decile")
    wants the corpus-relative rank, not the raw score.

    A window function over 10^12 rows is a global sort; this is the
    histogram rewrite: map-side ``value_counts`` partials, one
    distinct-values-sized ``groupby`` shuffle, a driver cumulative sum
    (``max_distinct``-guarded — for bounded domains like token counts,
    scores quantized to ints, years), then one broadcast (``ray.put``)
    and a map-only ``searchsorted`` pass to stamp every row.  For
    continuous domains beyond ``max_distinct``, quantize first or rank
    off :func:`sort_quantiles`-style global sort instead — the raise
    says so.

    Bit-for-bit DuckDB window semantics (pinned by the oracle):

    * ``percent_rank = count(values < x) / (n_total - 1)`` (0.0 when
      the partition has one row) — ties share the rank;
    * ``cume_dist = count(values <= x) / n_total``;
    * NULL values sort LAST: ``percent_rank = n_nonnull/(n_total-1)``,
      ``cume_dist = 1.0`` (DuckDB default ``NULLS LAST`` order);
    * both divisions are the same int→double IEEE ops DuckDB performs.

    Null GROUP keys raise (SQL ranks the NULL partition; Ray's
    sort-based groupby cannot shuffle them — silent drop would diverge
    from the oracle).
    """
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    keys = ([group_col] if group_col else []) + [col, "_isnull"]

    def partials(b: pa.Table) -> pa.Table:
        if group_col and b.column(group_col).null_count:
            raise ValueError(
                f"ecdf_percent_rank: null keys in group column "
                f"{group_col!r} are unsupported — filter or fill them first"
            )
        cols = ([group_col] if group_col else []) + [col]
        t = b.select(cols)
        vals = t.column(col)
        # null values ride the same histogram under a flag column with a
        # type-valid placeholder value (sort-based groupby cannot
        # shuffle null keys); the driver reads them back out via _isnull
        isnull = pc.is_null(vals)
        filled = pc.fill_null(vals, pa.scalar(0, vals.type))
        t = t.set_column(t.schema.get_field_index(col), col, filled)
        t = t.append_column("_isnull", pc.cast(isnull, pa.int64()))
        g = t.group_by(keys).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g.column(k) for k in keys] + [g.column("count_all").cast(pa.int64())],
            names=keys + ["cnt"],
        )

    hist = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(keys)
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )
    n_distinct = hist.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"{n_distinct} distinct (group, value) pairs exceeds "
            f"max_distinct={max_distinct}: ecdf_percent_rank is for "
            "bounded-domain columns — quantize the score or rank via a "
            "global sort for continuous data"
        )
    per_group: dict = {}
    for b in hist.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            gkey = r[group_col] if group_col else None
            per_group.setdefault(gkey, []).append((bool(r["_isnull"]), r[col], r["cnt"]))
    cdf: dict = {}
    for gkey, rows in per_group.items():
        n_null = sum(c for isn, _, c in rows if isn)
        nonnull = sorted((v, c) for isn, v, c in rows if not isn)
        vals = np.array([v for v, _ in nonnull])
        counts = np.array([c for _, c in nonnull], dtype=np.int64)
        cum_le = counts.cumsum()
        cum_less = cum_le - counts
        n_nonnull = int(cum_le[-1]) if len(cum_le) else 0
        cdf[gkey] = (vals, cum_less, cum_le, n_nonnull, n_nonnull + n_null)
    handle = ray.put(cdf)

    def stamp(b: pa.Table) -> pa.Table:
        table = ray.get(handle)
        x = b.column(col)
        pr = np.empty(len(b), dtype=np.float64)
        cd = np.empty(len(b), dtype=np.float64)
        if group_col:
            gvals = b.column(group_col).to_pylist()
            groups: dict = {}
            for i, gv in enumerate(gvals):
                groups.setdefault(gv, []).append(i)
            items = groups.items()
        else:
            items = [(None, range(len(b)))]
        # dtype-preserving value array: converting a NULL-carrying int64
        # chunk straight to numpy floats it, collapsing distinct values
        # >= 2^53 onto one double BEFORE searchsorted — so extract the
        # non-null values in their native dtype and scatter them into a
        # full-length buffer (null slots are never read)
        isnull = pc.is_null(x).to_numpy(zero_copy_only=False)
        nonnull_np = pc.filter(x, pc.is_valid(x)).to_numpy(zero_copy_only=False)
        xn = np.empty(len(b), dtype=nonnull_np.dtype)
        xn[~isnull] = nonnull_np
        for gkey, idx in items:
            vals, cum_less, cum_le, n_nonnull, n_total = table[gkey]
            idx = np.fromiter(idx, dtype=np.int64) if not isinstance(idx, range) else np.arange(idx.start, idx.stop)
            denom = float(n_total - 1) if n_total > 1 else 1.0
            gx = xn[idx]
            gnull = isnull[idx]
            pos = np.searchsorted(vals, gx[~gnull])
            nn = idx[~gnull]
            pr[nn] = cum_less[pos] / denom
            cd[nn] = cum_le[pos] / float(n_total)
            ns = idx[gnull]
            pr[ns] = n_nonnull / denom
            cd[ns] = 1.0
        out = b.append_column(rank_col, pa.array(pr, pa.float64()))
        return out.append_column(cume_col, pa.array(cd, pa.float64()))

    return ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)


def group_quantiles(
    ds,
    group_col: str,
    col: str,
    qs=(0.25, 0.5, 0.75, 0.9, 0.99),
):
    """Per-group exact quantiles → Dataset (group_col, q, <col>).

    Same histogram discipline as :func:`histogram_quantiles` but fully
    distributed end-to-end: map-side (group, value) counts, one
    groupby(group, value) partial-sum shuffle (distinct-pairs-sized),
    then one exchange keyed by group reads each group's order
    statistics off its own histogram — the driver never sees data, so
    group count AND per-group domain size are both unbounded.  The
    quantile definition is the same DuckDB-quantile_disc index
    ``max(0, ceil(q*n) - 1)``.  Null VALUES are ignored; a group whose
    values are all null disappears (SQL aggregate semantics).  Null
    GROUP keys raise (SQL would keep a NULL group — silently dropping
    it would diverge from the oracle).
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    _check_qs(qs)

    def partials(b: pa.Table) -> pa.Table:
        # loud raise on null GROUP keys (same discipline as
        # ranking.topk_per_group): the SQL analog keeps a NULL group,
        # drop_null below would silently lose it, and Ray's sort-based
        # groupby cannot shuffle None keys anyway
        if b.column(group_col).null_count:
            raise ValueError(
                f"group_quantiles: null keys in group column {group_col!r} "
                "are unsupported — filter or fill them first"
            )
        t = b.select([group_col, col]).drop_null()
        g = t.group_by([group_col, col]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [
                g.column(group_col),
                g.column(col),
                g.column("count_all").cast(pa.int64()),
            ],
            names=[group_col, col, "cnt"],
        )

    hist = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, col])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    qlist = list(qs)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(col, kind="mergesort")
        counts = g["cnt"].to_numpy()
        cum = counts.cumsum()
        total = int(cum[-1])
        vals = []
        for q in qlist:
            target = max(0, math.ceil(q * total) - 1)
            vals.append(g[col].iloc[int((cum <= target).sum())])
        return pd.DataFrame(
            {
                group_col: [g[group_col].iloc[0]] * len(qlist),
                "q": qlist,
                col: vals,
            }
        )

    return exchange_map_groups(hist, group_col, finish, batch_format="pandas")


def mad_outliers(
    ds,
    value_col: str,
    group_col: str,
    id_col: str,
    k: int = 3,
    max_distinct: int = 1_000_000,
):
    """Robust per-group outlier flags via median absolute deviation:
    ``is_outlier = |x - median_g| > k * MAD_g`` where ``MAD_g`` is the
    within-group median of ``|x - median_g|``.

    The MAD criterion is the standard robust alternative to a z-score
    length trim (a few giant documents cannot drag the threshold the
    way they drag a mean/stddev), and it is EXACT in integers: both
    medians are DuckDB-``quantile_disc``-semantics order statistics of
    integer domains, and the flag is an integer comparison — no float
    enters, so the result hash-verifies bit-for-bit.

    Scale shape: ONE (group, value)-space histogram shuffle — distinct
    (group, value) pairs, never corpus rows (``max_distinct`` guards
    the driver collect); medians + MADs are derived on the driver from
    the same histogram (the deviation histogram is a re-keying of the
    value histogram, no second pass); the flag pass is map-only against
    the broadcast {group: (median, mad)} table.

    Output: (id_col, group_col, value_col, med, mad, is_outlier); null
    values are excluded (SQL aggregate semantics).
    """
    import ray
    from ray.data.aggregate import Sum

    def partials(b: pa.Table) -> pa.Table:
        t = b.select([group_col, value_col]).drop_null()
        g = t.group_by([group_col, value_col]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [
                g.column(group_col),
                g.column(value_col),
                g.column("count_all").cast(pa.int64()),
            ],
            names=[group_col, value_col, "cnt"],
        )

    hist = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, value_col])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )
    n_distinct = hist.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"{n_distinct} distinct (group, value) pairs exceeds "
            f"max_distinct={max_distinct}: mad_outliers is for bounded-"
            "domain columns — use group_quantiles' per-group path instead"
        )
    by_group: dict = {}
    for b in hist.iter_batches(batch_format="pyarrow"):
        for g, v, c in zip(
            b.column(group_col).to_pylist(),
            b.column(value_col).to_pylist(),
            b.column("cnt").to_pylist(),
        ):
            by_group.setdefault(g, []).append((v, c))

    def disc_median(rows) -> int:
        # DuckDB quantile_disc(x, 0.5): sorted index max(0, ceil(n/2)-1)
        rows = sorted(rows)
        total = sum(c for _, c in rows)
        target = max(0, math.ceil(0.5 * total) - 1)
        cum = 0
        for v, c in rows:
            cum += c
            if cum > target:
                return v
        raise AssertionError("unreachable: histogram exhausted")

    stats = {}
    for g, rows in by_group.items():
        med = disc_median(rows)
        mad = disc_median([(abs(v - med), c) for v, c in rows])
        stats[g] = (med, mad)
    stats_ref = ray.put(stats)

    def flag(b: pa.Table) -> pa.Table:
        st = ray.get(stats_ref)
        t = b.select([id_col, group_col, value_col]).drop_null()
        groups = t.column(group_col).to_pylist()
        meds = pa.array([st[g][0] for g in groups], pa.int64())
        mads = pa.array([st[g][1] for g in groups], pa.int64())
        dev = pc.abs(pc.subtract(t.column(value_col).cast(pa.int64()), meds))
        out = pc.greater(dev, pc.multiply(mads, k))
        return pa.Table.from_arrays(
            [t.column(id_col), t.column(group_col), t.column(value_col),
             meds, mads, out],
            names=[id_col, group_col, value_col, "med", "mad", "is_outlier"],
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)
