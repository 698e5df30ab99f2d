"""Ordered per-key window analytics over the events table.

SQL window functions (``SUM ... OVER (PARTITION BY k ORDER BY ts ROWS
BETWEEN n PRECEDING ...)``, ``LAG``, sequential funnels) need rows of
one key in time order — but never need a GLOBAL sort.  Every op here
uses the repo's bucketed per-key-sort pattern (same as joins.asof_join
and windows.sessionize_salted): hash the key into ``num_buckets``
groups, ``groupby(bucket).map_groups`` with an in-group mergesort, and
compute the window vectorized over the whole bucket with numpy
segment tricks (never a Python loop over rows).

Partitioning assumption (documented, same as asof_join): one KEY's
history fits one task.  Buckets hold many keys; a single pathological
key hotter than a worker's memory needs the salted two-pass treatment
(see sessionize_salted) — not needed for moving windows of bounded k,
where a window never spans bucket boundaries by construction.

Value sums ride integer cents (``round(value * 100)``) so the Ray
output is bit-exact against the DuckDB window-function oracle — the
repo's no-float-reassociation discipline.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "rolling_stats",
    "lag_intervals",
    "funnel_stages",
    "sessionize_assign",
    "cohort_retention",
    "transition_counts",
]

_I64 = np.int64


def _add_bucket(batch: pa.Table, key_col: str, num_buckets: int) -> pa.Table:
    """Append a stable hash-bucket shuffle key (vectorized splitmix64
    mix for integer keys, crc32 loop otherwise; buckets are internal
    partitioning only — never part of an output or oracle)."""
    import pyarrow.types as pat

    kc = batch.column(key_col)
    if kc.null_count:
        raise ValueError(
            f"ordered: null values in key column {key_col!r} are unsupported — "
            "filter or fill them first (SQL PARTITION BY would make a NULL "
            "peer group; silence would diverge from the oracle)"
        )
    if pat.is_integer(kc.type):
        from .joins import bucket_ints

        b = pa.array(
            bucket_ints(
                np.asarray(kc.to_numpy(zero_copy_only=False)), num_buckets
            ),
            pa.int32(),
        )
    else:
        from .joins import bucket_col

        # factorized crc32: the Python hash runs once per UNIQUE key
        # (bit-equal to the historical per-row loop)
        b = pa.array(bucket_col(kc, num_buckets, crc_compat=True), pa.int32())
    return batch.append_column("bucket", b)


def _sorted_frame(g: pd.DataFrame, key_col: str, order_cols: list) -> pd.DataFrame:
    return g.sort_values([key_col, *order_cols], kind="mergesort").reset_index(
        drop=True
    )


def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """For sorted ``keys``, index of the first row of each row's key run."""
    n = len(keys)
    idx = np.arange(n, dtype=_I64)
    first = np.ones(n, dtype=bool)
    if n > 1:
        first[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(first, idx, 0))


def _prep_events(batch: pa.Table) -> pa.Table:
    ts_us = batch.column("ts").cast(pa.int64())
    cents = pc.round(pc.multiply(batch.column("value"), 100.0), ndigits=0).cast(
        pa.int64()
    )
    return pa.Table.from_arrays(
        [batch.column("event_id"), batch.column("user_id"), ts_us, cents],
        names=["event_id", "user_id", "ts_us", "cents"],
    )


def rolling_stats(events_ds, k: int = 5, num_buckets: int | None = None):
    """Per-user moving sum/count of the last ``k`` events (inclusive),
    ordered by (ts, event_id) — SQL ``SUM(cents) OVER (PARTITION BY
    user_id ORDER BY ts_us, event_id ROWS BETWEEN k-1 PRECEDING AND
    CURRENT ROW)``.  Returns one row per event:
    (event_id, user_id, ts_us, roll_sum_cents, roll_n).

    In-group compute is one prefix-sum: with ``c0 = [0, cumsum(cents)]``
    and window start ``s = max(segment_start, i - k + 1)``,
    ``roll_sum = c0[i+1] - c0[s]`` — O(bucket) regardless of k.
    """
    if num_buckets is None:
        from .joins import derive_num_partitions

        num_buckets = derive_num_partitions(events_ds, floor=64)
    if k < 1:
        raise ValueError(f"rolling_stats: k must be >= 1, got {k}")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = _sorted_frame(g, "user_id", ["ts_us", "event_id"])
        n = len(g)
        seg = _segment_starts(g["user_id"].to_numpy())
        i = np.arange(n, dtype=_I64)
        start = np.maximum(seg, i - (k - 1))
        c0 = np.concatenate([[0], np.cumsum(g["cents"].to_numpy(dtype=_I64))])
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "ts_us": g["ts_us"],
                "roll_sum_cents": c0[i + 1] - c0[start],
                "roll_n": i - start + 1,
            }
        )

    from .joins import run_bucket_groups

    return run_bucket_groups(
        events_ds.map_batches(_prep_events, batch_format="pyarrow").map_batches(
            lambda b: _add_bucket(b, "user_id", num_buckets), batch_format="pyarrow"
        ),
        num_buckets,
        per_bucket,
    )


def lag_intervals(events_ds, num_buckets: int | None = None):
    """Per-user inter-arrival gap: ``ts_us - LAG(ts_us) OVER (PARTITION
    BY user_id ORDER BY ts_us, event_id)``, with ``-1`` for each user's
    first event (COALESCE'd in the oracle too — int64 end to end, no
    null-vs-NaN hash ambiguity).  Returns
    (event_id, user_id, ts_us, prev_gap_us).
    """
    if num_buckets is None:
        from .joins import derive_num_partitions

        num_buckets = derive_num_partitions(events_ds, floor=64)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = _sorted_frame(g, "user_id", ["ts_us", "event_id"])
        n = len(g)
        u = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy(dtype=_I64)
        gap = np.full(n, -1, dtype=_I64)
        if n > 1:
            same = u[1:] == u[:-1]
            gap[1:][same] = (ts[1:] - ts[:-1])[same]
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "ts_us": g["ts_us"],
                "prev_gap_us": gap,
            }
        )

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("event_id"), batch.column("user_id"), ts_us],
            names=["event_id", "user_id", "ts_us"],
        )

    from .joins import run_bucket_groups

    return run_bucket_groups(
        events_ds.map_batches(prep, batch_format="pyarrow").map_batches(
            lambda b: _add_bucket(b, "user_id", num_buckets), batch_format="pyarrow"
        ),
        num_buckets,
        per_bucket,
    )


def funnel_stages(
    events_ds,
    stages: tuple = ("view", "click", "purchase"),
    num_buckets: int | None = None,
):
    """Per-user sequential conversion funnel: stage i+1 counts only
    STRICTLY AFTER the user's first completion of stage i (the classic
    ordered-funnel semantics; ties at the same ts do not advance).
    Returns one row per user: (user_id, s1_us, s2_us, ..., depth) with
    ``-1`` for unreached stages and depth = number of stages reached.

    Vectorized per bucket: one pandas groupby-min per STAGE (len(stages)
    passes over the bucket, never a per-row loop); an unreached stage
    poisons later ones via a +inf sentinel.
    """
    if num_buckets is None:
        from .joins import derive_num_partitions

        num_buckets = derive_num_partitions(events_ds, floor=64)
    if len(stages) < 1:
        raise ValueError("funnel_stages: need at least one stage")

    stage_list = list(stages)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        users = pd.Index(g["user_id"].unique(), name="user_id").sort_values()
        ts = g["ts_us"]
        out = {"user_id": users.to_numpy()}
        # prev = ts of the previous stage per user; -1 sentinel means
        # "no lower bound" for stage 1, +MAX means "unreached".
        prev = pd.Series(np.full(len(users), -1, dtype=_I64), index=users)
        unreached = np.iinfo(np.int64).max
        depth = np.zeros(len(users), dtype=_I64)
        for si, stage in enumerate(stage_list):
            mask = g["event_type"].to_numpy() == stage
            sub = g.loc[mask, ["user_id", "ts_us"]]
            bound = prev.reindex(sub["user_id"]).to_numpy()
            sub = sub.loc[sub["ts_us"].to_numpy() > bound]
            first = sub.groupby("user_id")["ts_us"].min()
            # fill_value keeps the reindex in int64 end to end — a NaN
            # reindex would float the ts and round values >= 2^53 (the
            # keep_latest/ecdf nullable-float hazard); -1 is safe: ts_us
            # is epoch micros >= 0, and -1 is already the output sentinel
            vals = first.reindex(users, fill_value=np.int64(-1)).to_numpy(
                dtype=_I64
            )
            reached = vals != -1
            out[f"s{si + 1}_us"] = vals
            depth += reached.astype(_I64)
            prev = pd.Series(
                np.where(reached, vals, unreached), index=users, dtype=_I64
            )
        out["depth"] = depth
        return pd.DataFrame(out)

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("user_id"), ts_us, batch.column("event_type")],
            names=["user_id", "ts_us", "event_type"],
        )

    from .joins import run_bucket_groups

    return run_bucket_groups(
        events_ds.map_batches(prep, batch_format="pyarrow").map_batches(
            lambda b: _add_bucket(b, "user_id", num_buckets), batch_format="pyarrow"
        ),
        num_buckets,
        per_bucket,
    )


def sessionize_assign(events_ds, gap_seconds: int = 1800, num_buckets: int | None = None):
    """Per-EVENT session labels: every event gets its (user, session)
    id — the labeling sibling of windows.sessionize (which returns one
    SUMMARY row per session).  Downstream feature building ("events in
    this session so far", session-scoped aggregates) needs the label on
    the event row, not the summary.  Returns
    (event_id, user_id, ts_us, session_id) with session_id counting
    from 0 per user in (ts, event_id) order; a gap > ``gap_seconds``
    starts a new session.

    Same bucketed per-key-sort shape as the rest of this module;
    the in-group compute is one diff + cumsum per bucket.
    """
    if num_buckets is None:
        from .joins import derive_num_partitions

        num_buckets = derive_num_partitions(events_ds, floor=64)
    gap_us = gap_seconds * 1_000_000

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = _sorted_frame(g, "user_id", ["ts_us", "event_id"])
        n = len(g)
        u = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy(dtype=_I64)
        brk = np.ones(n, dtype=bool)
        if n > 1:
            brk[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        # session_id restarts at each user: global cumsum of breaks
        # minus the cumsum value at the user's first row
        gid = np.cumsum(brk) - 1
        first_gid = np.zeros(n, dtype=_I64)
        if n:
            seg = _segment_starts(u)
            first_gid = gid[seg]
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "ts_us": g["ts_us"],
                "session_id": gid - first_gid,
            }
        )

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("event_id"), batch.column("user_id"), ts_us],
            names=["event_id", "user_id", "ts_us"],
        )

    from .joins import run_bucket_groups

    return run_bucket_groups(
        events_ds.map_batches(prep, batch_format="pyarrow").map_batches(
            lambda b: _add_bucket(b, "user_id", num_buckets), batch_format="pyarrow"
        ),
        num_buckets,
        per_bucket,
    )


def transition_counts(events_ds, num_buckets: int | None = None):
    """Markov event-type transition matrix: counts of consecutive
    (prev_type, next_type) pairs within each user's (ts, event_id)-
    ordered stream — SQL ``LAG(event_type) OVER (PARTITION BY user_id
    ORDER BY ts, event_id)`` grouped and counted.  Returns
    (prev_type, next_type, n) — the sequence-mining /
    next-event-model training shape.

    Scale shape: ONE bucketed exchange of thin (user, ts, type) rows;
    inside each bucket the pair stream collapses to a ≤|types|²
    partial (numpy shift mask + pandas groupby — no row loop), and the
    final global groupby is |types|²-sized.
    """
    if num_buckets is None:
        from .joins import derive_num_partitions

        num_buckets = derive_num_partitions(events_ds, floor=64)
    from ray.data.aggregate import Sum

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = _sorted_frame(g, "user_id", ["ts_us", "event_id"])
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        if len(g) >= 2:
            same = u[1:] == u[:-1]
            pairs = pd.DataFrame(
                {"prev_type": t[:-1][same], "next_type": t[1:][same]}
            )
        else:
            pairs = pd.DataFrame({"prev_type": [], "next_type": []})
        cnt = (
            pairs.groupby(["prev_type", "next_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        # explicit types: a single-user single-event bucket would
        # otherwise emit null-typed columns and drift the stream schema
        return pa.Table.from_arrays(
            [
                pa.array(cnt["prev_type"], pa.string()),
                pa.array(cnt["next_type"], pa.string()),
                pa.array(cnt["n"], pa.int64()),
            ],
            names=["prev_type", "next_type", "n"],
        )

    def prep(batch: pa.Table) -> pa.Table:
        if batch.column("event_type").null_count:
            raise ValueError(
                "transition_counts: null event_type values are unsupported — "
                "filter or fill them first (pandas groupby would silently "
                "DROP the pair while SQL groups it under NULL)"
            )
        ts_us = batch.column("ts").cast(pa.int64())
        return pa.Table.from_arrays(
            [
                batch.column("event_id"),
                batch.column("user_id"),
                ts_us,
                batch.column("event_type"),
            ],
            names=["event_id", "user_id", "ts_us", "event_type"],
        )

    from .joins import run_bucket_groups

    return run_bucket_groups(
        events_ds.map_batches(prep, batch_format="pyarrow").map_batches(
            lambda b: _add_bucket(b, "user_id", num_buckets), batch_format="pyarrow"
        ),
        num_buckets,
        per_bucket,
    ).groupby(["prev_type", "next_type"]).aggregate(Sum("n", alias_name="n"))


def cohort_retention(events_ds, window_seconds: int = 86_400):
    """Cohort retention matrix: users grouped by their FIRST-seen
    window (the cohort), counted in every window they were active —
    (cohort_us, window_us, n_users).  The classic product-analytics
    rollup, and a genuinely two-pass shape: activity pairs must join
    against a per-user global minimum.

    Distributed shape: (1) distinct (user, window) activity pairs —
    per-batch np.unique partial, then one two-key groupby; (2) the
    per-user first window as a Min groupby over the SAME pairs; both
    aggregates ride user-keyed shuffles of pair rows, never raw events.
    The cohort label joins back via an inner hash_join (a broadcast
    while the per-user table fits, bucketed past it) and the final
    matrix is a (cohort, window) count — output is
    windows² rows at most.
    """
    from ray.data.aggregate import Count, Min

    from .joins import hash_join

    window_us = window_seconds * 1_000_000

    def pairs_partial(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        u = b.column("user_id").to_numpy(zero_copy_only=False)
        w = (ts // window_us) * window_us
        uniq = np.unique(np.stack([u, w], axis=1), axis=0)
        return pa.Table.from_arrays(
            [pa.array(uniq[:, 0]), pa.array(uniq[:, 1])],
            names=["user_id", "window_us"],
        )

    pairs = (
        events_ds.map_batches(pairs_partial, batch_format="pyarrow")
        .groupby(["user_id", "window_us"])
        .count()
        .select_columns(["user_id", "window_us"])
        .materialize()  # two consumers below; pair rows ≪ events
    )
    firsts = pairs.groupby("user_id").aggregate(
        Min("window_us", alias_name="cohort_us")
    )
    labeled = hash_join(
        pairs, firsts, key_col="user_id", right_value_cols=["cohort_us"],
        how="inner", suffix="",
    )

    def to_cohort(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column("cohort_us").cast(pa.int64()), b.column("window_us")],
            names=["cohort_us", "window_us"],
        )

    return (
        labeled.map_batches(to_cohort, batch_format="pyarrow")
        .groupby(["cohort_us", "window_us"])
        .aggregate(Count("window_us", alias_name="n_users"))
    )
