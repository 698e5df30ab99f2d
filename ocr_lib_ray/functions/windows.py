"""Windowed aggregates over the events table (streaming-shaped op).

Ray Data has no event-time windows; tumbling windows are expressed as
``window_id = ts_us // window_us`` (a vectorized map) followed by a
pre-aggregated groupby — the partial/combiner pattern: per-batch partial
sums first, then a small shuffle over partials only (SURVEY guide:
"Aggregation at scale").
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count, Max, Min, Sum

from .bucket_tasks import exchange_map_groups


def add_window_id(batch: pa.Table, window_us: int) -> pa.Table:
    ts = batch.column("ts").cast(pa.int64())  # epoch micros (non-negative)
    win = pc.multiply(pc.divide(ts, window_us), window_us)  # int floor-div
    return batch.append_column("window_start_us", win)


def partial_window_agg(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: one row per (event_type, window) per batch."""
    df = batch.select(["event_type", "window_start_us", "value"]).to_pandas()
    g = (
        df.groupby(["event_type", "window_start_us"], sort=False)["value"]
        .agg(n="count", value_sum="sum", value_min="min", value_max="max")
        .reset_index()
    )
    return pa.Table.from_pandas(g, preserve_index=False)


def window_distinct_users(events_ds, window_seconds: int = 3600):
    """Exact distinct users per tumbling window → (window_start_us,
    n_users) — the exact sibling of the HLL ``approx_distinct`` sketch
    (use the sketch when per-window cardinalities are huge and ±2% is
    fine; this when the answer must be exact).

    Two-phase distinct: per-batch DISTINCT (window, user) pairs first
    (the combiner — the shuffle carries one row per distinct pair per
    batch, never per event), one groupby over the pair key to finish
    the dedup, then a count per window.  Both shuffle keys are bounded
    by distinct pairs, not event volume.
    """
    window_us = window_seconds * 1_000_000

    def pair_partials(batch: pa.Table) -> pa.Table:
        b = add_window_id(batch, window_us)
        t = b.select(["window_start_us", "user_id"])
        return t.group_by(["window_start_us", "user_id"]).aggregate([])

    pairs = (
        events_ds.map_batches(
            pair_partials, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["window_start_us", "user_id"])
        .aggregate(Count(alias_name="dup"))
    )
    # each surviving row IS one distinct (window, user) pair — count
    # rows per window directly (the dup column is never read)
    return pairs.groupby("window_start_us").aggregate(Count(alias_name="n_users"))


def heavy_hitters(events_ds, k: int = 10):
    """Top-k users by total value — partial per-batch combine, small
    groupby over partials, sort/limit on the aggregate only.  Returns
    (user_id, value_sum_cents, n) with deterministic tie-break
    (sum desc, user_id asc)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "value"]).to_pandas()
        g = df.groupby("user_id", sort=False)["value"].agg(n="count", value_sum="sum").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = events_ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    totals = partials.groupby("user_id").aggregate(
        Sum("value_sum", alias_name="value_sum"), Sum("n", alias_name="n")
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(batch.column("value_sum"), 100.0), ndigits=0)
        i = batch.column_names.index("value_sum")
        return batch.set_column(i, "value_sum_cents", cents.cast(pa.int64()))

    return (
        totals.map_batches(to_cents, batch_format="pyarrow")
        .sort(["value_sum_cents", "user_id"], descending=[True, False])
        .limit(k)
    )


def sessionize(
    events_ds, gap_seconds: int = 1800, num_buckets: int | None = None
):
    """Session windows per user: events sorted by ts within a user;
    a gap > ``gap_seconds`` starts a new session.  Returns one row per
    session: (user_id, session_id, session_start_us, n_events,
    value_sum).

    Groups on a HASH BUCKET of the user (never the raw key — per-key
    ``map_groups`` dispatch is the dominant cost on near-singleton
    keys, the cosupplier_edges lesson) and sessionizes every user in
    the bucket in ONE vectorized pass (stable sort by (user, ts),
    break-mask cumsum).  Ordering assumption: per-USER history fits a
    task along with its bucket peers; a user holding a large share of
    the corpus still lands in one bucket — use
    :func:`sessionize_salted` for hot-key corpora (it splits the heavy
    key by time window)."""
    import numpy as np
    import pandas as pd

    from .joins import bucket_col, derive_num_partitions

    if num_buckets is None:
        num_buckets = derive_num_partitions(events_ds, floor=64)
    gap_us = gap_seconds * 1_000_000

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bucket",
            pa.array(bucket_col(batch.column("user_id"), num_buckets), pa.int32()),
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort").reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy()
        n = len(g)
        new_user = np.ones(n, dtype=bool)
        gap_brk = np.ones(n, dtype=bool)
        if n > 1:
            new_user[1:] = u[1:] != u[:-1]
            gap_brk[1:] = (ts[1:] - ts[:-1]) > gap_us
        brk = new_user | gap_brk
        gsid = np.cumsum(brk) - 1  # bucket-global session ordinal
        # per-user session_id: gsid minus gsid at the user's first row
        # (gsid is nondecreasing, so a running max of the user-start
        # values propagates the right base to every row)
        user_base = np.maximum.accumulate(np.where(new_user, gsid, 0))
        df = pd.DataFrame(
            {
                "user_id": u,
                "g": gsid,
                "sid": gsid - user_base,
                "ts_us": ts,
                "value": g["value"].to_numpy(),
            }
        )
        out = (
            df.groupby("g", sort=True)
            .agg(
                user_id=("user_id", "first"),
                session_id=("sid", "first"),
                session_start_us=("ts_us", "min"),
                n_events=("ts_us", "count"),
                value_sum=("value", "sum"),
            )
            .reset_index(drop=True)
        )
        return out[
            ["user_id", "session_id", "session_start_us", "n_events", "value_sum"]
        ]

    from .joins import run_bucket_groups

    return run_bucket_groups(
        events_ds.map_batches(add_bucket, batch_format="pyarrow"),
        num_buckets,
        per_bucket,
    )


def sessionize_salted(
    events_ds,
    gap_seconds: int = 1800,
    window_seconds: int = 86_400,
    num_buckets: int | None = None,
):
    """Skew-safe sessionize: a HOT user (one key holding a large share
    of the corpus) melts :func:`sessionize`'s per-user group.  Here the
    heavy grouping key is (user, time-window) — each holds at most one
    window of one user's events — and per-window PARTIAL sessions are
    then merged per user in a second pass over SESSION SUMMARIES (one
    tiny row per partial session, ≪ events even for the hottest key).

    Both passes group on a HASH BUCKET of their key (``num_buckets``
    groups) and resolve the fine key vectorized inside the bucket —
    (user, window) keys are near-singleton and per-group Python
    dispatch over them is the dominant cost otherwise (measured 18 s vs
    ~1 s on the bench).  Equivalent to :func:`sessionize` (tested;
    value_sum may differ in the last float ulp because partial sums
    re-associate).  Pick ``window_seconds`` ≫ gap so sessions rarely
    straddle windows.
    """
    import zlib

    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .joins import derive_num_partitions

    if num_buckets is None:
        num_buckets = derive_num_partitions(events_ds, floor=64)
    gap_us = gap_seconds * 1_000_000
    window_us = window_seconds * 1_000_000

    def add_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.types as pat

        from .joins import bucket_int_pairs

        ts = batch.column("ts").cast(pa.int64())
        win = pc.multiply(pc.divide(ts, window_us), window_us)
        uc = batch.column("user_id")
        wv = np.asarray(win.to_numpy(zero_copy_only=False)).astype(np.int64)
        if pat.is_integer(uc.type):
            uv = np.asarray(
                uc.fill_null(0).to_numpy(zero_copy_only=False)
            ).astype(np.int64)
        else:
            # factorized discipline (joins.bucket_col): the Python
            # crc32 runs once per UNIQUE user, the per-row work is a
            # vectorized code lookup + integer-pair combine.  Bucket
            # values are internal partitioning only (a (user, win)
            # group lands whole in one bucket either way), so swapping
            # the per-row crc32-of-"u|w" for crc32(user)⊕window is
            # output-invariant (pinned by the sessionize equivalence
            # tests).
            codes, uniq = pd.factorize(np.asarray(uc.to_pylist(), dtype=object))
            uh = np.fromiter(
                (zlib.crc32(str(k).encode()) for k in uniq),
                dtype=np.int64,
                count=len(uniq),
            )
            uv = uh[codes]
        b1 = bucket_int_pairs(uv, wv, num_buckets)
        return batch.append_column("win", win).append_column(
            "bucket", pa.array(b1, pa.int32())
        )

    def partial_sessions(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the WHOLE bucket: session breaks at any
        # (user, win) change or intra-window gap
        g = g.sort_values(["user_id", "win", "ts"], kind="mergesort").reset_index(
            drop=True
        )
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy()
        w = g["win"].to_numpy()
        brk = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            brk[1:] = (
                (u[1:] != u[:-1]) | (w[1:] != w[:-1]) | (ts[1:] - ts[:-1] > gap_us)
            )
        sid = np.cumsum(brk) - 1
        out = (
            pd.DataFrame(
                {
                    "user_id": u,
                    "_sid": sid,
                    "ts_us": ts,
                    "value": g["value"].to_numpy(),
                }
            )
            .groupby(["user_id", "_sid"], sort=True)
            .agg(
                session_start_us=("ts_us", "min"),
                session_end_us=("ts_us", "max"),
                n_events=("ts_us", "count"),
                value_sum=("value", "sum"),
            )
            .reset_index()
            .drop(columns=["_sid"])
        )
        return out

    from .joins import run_bucket_groups

    partials = run_bucket_groups(
        events_ds.map_batches(add_keys, batch_format="pyarrow"),
        num_buckets,
        partial_sessions,
    )

    def add_user_bucket(batch: pa.Table) -> pa.Table:
        from .joins import bucket_col

        b2 = bucket_col(batch.column("user_id"), num_buckets)
        return batch.append_column("ubucket", pa.array(b2, pa.int32()))

    def merge_users(g: pd.DataFrame) -> pd.DataFrame:
        # one linear pass over the bucket's session summaries: chain-
        # merge per user with a running max end (sessions may span many
        # windows); sessions are few even for the hottest user
        g = g.sort_values(["user_id", "session_start_us"], kind="mergesort").reset_index(
            drop=True
        )
        u = g["user_id"].to_numpy()
        starts = g["session_start_us"].to_numpy()
        ends = g["session_end_us"].to_numpy()
        sid = np.zeros(len(g), dtype=np.int64)
        cur_end = ends[0] if len(g) else 0
        cur = 0
        for i in range(1, len(g)):
            if u[i] != u[i - 1]:
                cur = 0
                cur_end = ends[i]
            elif starts[i] - cur_end > gap_us:
                cur += 1
                cur_end = ends[i]
            else:
                cur_end = max(cur_end, ends[i])
            sid[i] = cur
        out = (
            g.assign(session_id=sid)
            .groupby(["user_id", "session_id"], sort=True)
            .agg(
                session_start_us=("session_start_us", "min"),
                n_events=("n_events", "sum"),
                value_sum=("value_sum", "sum"),
            )
            .reset_index()
        )
        return out[["user_id", "session_id", "session_start_us", "n_events", "value_sum"]]

    return run_bucket_groups(
        partials.map_batches(add_user_bucket, batch_format="pyarrow"),
        num_buckets,
        merge_users,
        bucket_col_name="ubucket",
    )


def sliding_window(events_ds, window_seconds: int = 3600, slide_seconds: int = 900):
    """Overlapping windows: each event explodes into the window_size /
    slide windows covering it (vectorized numpy repeat), then the same
    partial-combine + small groupby as tumbling.  Returns
    (event_type, window_start_us, n, value_sum, value_min, value_max).
    """
    import numpy as np

    window_us = window_seconds * 1_000_000
    slide_us = slide_seconds * 1_000_000
    k = window_us // slide_us  # windows covering each event

    def explode(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = np.asarray(batch.column("event_type").to_pylist())
        val = batch.column("value").to_numpy()
        # last slide-aligned window start covering ts, then k-1 earlier
        # ones — emitted unconditionally, including negative starts for
        # events within (k-1)*slide of epoch (matches the SQL oracle,
        # which generates all k offsets; pinned by the near-epoch test)
        last = (ts // slide_us) * slide_us
        offs = (np.arange(k) * slide_us)[None, :]
        starts = (last[:, None] - offs).reshape(-1)
        return pa.Table.from_arrays(
            [
                pa.array(np.repeat(et, k)),
                pa.array(starts, pa.int64()),
                pa.array(np.repeat(val, k), pa.float64()),
            ],
            names=["event_type", "window_start_us", "value"],
        )

    partials = events_ds.map_batches(
        lambda b: partial_window_agg(explode(b)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return partials.groupby(["event_type", "window_start_us"]).aggregate(
        Sum("n", alias_name="n"),
        Sum("value_sum", alias_name="value_sum"),
        Min("value_min", alias_name="value_min"),
        Max("value_max", alias_name="value_max"),
    )


def tumbling_window(events_ds, window_seconds: int = 3600):
    """events → (event_type, window_start_us, n, value_sum, value_min,
    value_max): tumbling count/sum/min/max per type."""
    window_us = window_seconds * 1_000_000
    partials = events_ds.map_batches(
        lambda b: partial_window_agg(add_window_id(b, window_us)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return partials.groupby(["event_type", "window_start_us"]).aggregate(
        Sum("n", alias_name="n"),
        Sum("value_sum", alias_name="value_sum"),
        Min("value_min", alias_name="value_min"),
        Max("value_max", alias_name="value_max"),
    )


def fill_windows(events_ds, window_seconds: int = 3600, max_windows: int = 10_000_000):
    """Dense tumbling series: (window_start_us, n, value_sum_cents) for
    EVERY window between the corpus min and max event time inclusive —
    empty windows emit (0, 0) rows.  This is the gap-fill / resample
    step before time-series modeling: a groupby alone silently skips
    windows with no events, which downstream differencing/forecasting
    misreads as "no gap".

    Shape: per-batch integer-cent partials (one row per window per
    block) are materialized ONCE — they feed the min/max bound scalars
    AND the final groupby, and without pinning each consumer would
    re-execute the corpus scan.  The dense grid is generated
    DISTRIBUTED from ``ray.data.range`` (never a driver-side list) and
    merged with the partials by a tagged union + one groupby over
    window ids.  ``max_windows`` guards a degenerate span (one stray
    epoch-0 event against today's data = half a million windows per
    year of span at 1 h): raising beats streaming a grid nobody meant.
    """
    import ray.data as rd

    window_us = window_seconds * 1_000_000

    def partials(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64())
        win = pc.multiply(pc.divide(ts, window_us), window_us)
        cents = pc.round(pc.multiply(b.column("value"), 100.0), ndigits=0).cast(
            pa.int64()
        )
        t = pa.Table.from_arrays(
            [win, pa.array([1] * len(b), pa.int64()), cents],
            names=["window_start_us", "n", "value_sum_cents"],
        )
        g = t.group_by("window_start_us").aggregate(
            [("n", "sum"), ("value_sum_cents", "sum")]
        )
        return g.rename_columns(["window_start_us", "n", "value_sum_cents"])

    part = events_ds.map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    lo = part.min("window_start_us")
    hi = part.max("window_start_us")
    if lo is None or hi is None:
        # empty input: the SQL generate_series over NULL bounds yields
        # no grid rows — return the empty typed result, not a TypeError
        import ray.data as _rd

        return _rd.from_arrow(
            pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 3,
                names=["window_start_us", "n", "value_sum_cents"],
            )
        )
    n_windows = (hi - lo) // window_us + 1
    if n_windows > max_windows:
        raise ValueError(
            f"fill_windows: span needs {n_windows} windows > max_windows="
            f"{max_windows} — check for stray timestamps or widen the window"
        )

    def to_grid(b: pa.Table) -> pa.Table:
        i = b.column("id").cast(pa.int64())
        win = pc.add(pc.multiply(i, window_us), lo)
        z = pa.array([0] * len(b), pa.int64())
        return pa.Table.from_arrays(
            [win, z, z], names=["window_start_us", "n", "value_sum_cents"]
        )

    grid = rd.range(int(n_windows)).map_batches(to_grid, batch_format="pyarrow")
    return part.union(grid).groupby("window_start_us").aggregate(
        Sum("n", alias_name="n"),
        Sum("value_sum_cents", alias_name="value_sum_cents"),
    )


def window_topk(events_ds, window_seconds: int = 3600, k: int = 3):
    """Top-k event types per tumbling window by count — the trending-
    items rollup.  Returns (window_start_us, event_type, n, rank) with
    rank 1..k in the deterministic total order (n desc, event_type asc)
    so ties at the k boundary cannot flap.

    Per-batch (window, type) partials (Arrow group_by in C) ride one
    distinct-pairs-sized Sum groupby; the top-k selection runs per
    WINDOW group over type-count rows (≤ |event types| rows each),
    never over events.
    """
    window_us = window_seconds * 1_000_000

    def partials(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64())
        win = pc.multiply(pc.divide(ts, window_us), window_us)
        t = pa.Table.from_arrays(
            [win, b.column("event_type"), pa.array([1] * len(b), pa.int64())],
            names=["window_start_us", "event_type", "n"],
        )
        g = t.group_by(["window_start_us", "event_type"]).aggregate([("n", "sum")])
        return g.rename_columns(["window_start_us", "event_type", "n"])

    counts = (
        events_ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["window_start_us", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def topk(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g.select(["n", "event_type"]),
            sort_keys=[("n", "descending"), ("event_type", "ascending")],
        )
        g = g.take(idx[: min(k, len(g))])
        import numpy as np

        return g.append_column(
            "rank", pa.array(np.arange(1, len(g) + 1, dtype=np.int64))
        )

    return exchange_map_groups(counts, "window_start_us", topk)


def user_type_entropy(events_ds):
    """Per-user behavioral diversity: the Shannon entropy of each
    user's event-type distribution — the bot/churn feature (a scraper
    fires one type; an engaged user mixes them).  To stay bit-exact,
    the output is the entropy SCALED BY n (exact integer identity
    ``H·n = n·ln(n) − Σ c·ln(c)`` over micro-nat logs):
    (user_id, n_events, n_types, h_micro_n) with
    ``H ≈ h_micro_n / (n_events · 1e6)`` nats; ln terms use the repo's
    ``floor(ln(x)·1e6 + 0.5)`` IEEE chain, so every value is an int64
    and the DuckDB oracle reproduces it bit-for-bit.

    Scale shape: per-block (user, type) count partials → one groupby
    at |users × types| scale → the per-row c·ln(c) term map-side → a
    second #users-scale groupby → map-only final identity.  No
    ordered exchange needed (entropy is order-free)."""
    import math

    import pandas as pd
    from ray.data.aggregate import Sum

    def ut_parts(b: pa.Table) -> pa.Table:
        if b.column("event_type").null_count:
            raise ValueError(
                "user_type_entropy: null event_type values are unsupported "
                "— filter or fill them first (pandas groupby would drop "
                "them while SQL groups them under NULL)"
            )
        df = pd.DataFrame(
            {
                "user_id": b.column("user_id").to_pylist(),
                "event_type": b.column("event_type").to_pylist(),
            }
        )
        g = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.Table.from_arrays(
            [
                pa.array(g["user_id"].astype("int64")),
                pa.array(g["event_type"], pa.string()),
                pa.array(g["c"].astype("int64")),
            ],
            names=["user_id", "event_type", "c"],
        )

    ut = (
        events_ds.map_batches(ut_parts, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("c", alias_name="c"))
    )

    def term(b: pa.Table) -> pa.Table:
        cs = b.column("c").to_pylist()
        t = [
            c * math.floor(math.log(float(c)) * 1e6 + 0.5) if c > 1 else 0
            for c in cs
        ]
        return pa.Table.from_arrays(
            [
                b.column("user_id"),
                pa.array(cs, pa.int64()),
                pa.array(t, pa.int64()),
                pa.array([1] * len(cs), pa.int64()),
            ],
            names=["user_id", "c", "clnc", "one"],
        )

    agg = (
        ut.map_batches(term, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("c", alias_name="n_events"),
            Sum("clnc", alias_name="sum_clnc"),
            Sum("one", alias_name="n_types"),
        )
    )

    def fin(b: pa.Table) -> pa.Table:
        import numpy as np

        n = b.column("n_events").to_pylist()
        s = b.column("sum_clnc").to_pylist()
        h = [
            ni * math.floor(math.log(float(ni)) * 1e6 + 0.5) - si if ni > 1 else 0
            for ni, si in zip(n, s)
        ]
        return pa.Table.from_arrays(
            [
                b.column("user_id"),
                b.column("n_events"),
                b.column("n_types"),
                pa.array(np.asarray(h, dtype=np.int64)),
            ],
            names=["user_id", "n_events", "n_types", "h_micro_n"],
        )

    return agg.map_batches(fin, batch_format="pyarrow")
