"""Streaming (incremental) session windows — actor-held state.

The batch :func:`ocr_lib_ray.functions.windows.sessionize` groups each
user's full history in one task; a STREAM cannot do that — sessions
must close incrementally as the event log advances, with bounded state
(only the OPEN sessions).  The Dataset API cannot express ordered
incremental delivery to a stateful consumer, so per the custom-operator
rule this drops to raw Ray actors (the last-resort tier) with the
assumptions documented:

* **Log layout** (:func:`prepare_bucket_log`): a DISTRIBUTED one-time
  job repartitions the event log into per-bucket ts-ordered parquet
  partitions (``bucket = crc32(user) % num_buckets``) — one
  ``groupby(bucket).map_groups`` pass, never a global sort, nothing on
  the driver.  A production deployment already HAS this layout (a
  partitioned, time-ordered log à la Kafka/Kinesis); the builder is
  the sandbox stand-in for that source.
* **Workers**: one :class:`SessionBucketWorker` actor per bucket holds
  the open sessions of its users (state size = open sessions, not
  history); consume is VECTORIZED — numpy gap-break segmentation +
  ``add.reduceat`` per chunk, a Python loop only over the resulting
  segments (≈ sessions ≪ events).
* **Feeders**: one raw Ray task per bucket streams its partition's
  row batches to its worker in ts order with per-chunk backpressure
  (``ray.get`` per chunk) — buckets run in parallel; the driver only
  holds task refs.
* **Fault tolerance**: workers snapshot ``(bucket, batches_consumed,
  open sessions, closed-but-undrained sessions)`` atomically every
  ``checkpoint_every_chunks`` chunks; recovery = restore the snapshot
  and replay the bucket's log from the checkpointed batch offset —
  bit-identical to an uninterrupted run (tested by killing a worker
  mid-stream).  Mid-stream ``take_closed`` drains are at-least-once
  under replay (a drain after the checkpoint is re-emitted); the
  end-of-log ``flush`` path is exactly-once.
* Closed sessions are emitted incrementally (drainable mid-stream via
  ``take_closed``); ``flush`` closes whatever remains at end-of-log.
* **Storage assumption (multi-node)**: ``log_dir`` and
  ``checkpoint_dir`` must be on storage visible to every node (NFS /
  object-store mount) — layout tasks, feeders and workers run wherever
  Ray schedules them.  The single-host sandbox satisfies this with
  /tmp; a real cluster points both at shared paths, exactly like the
  parquet corpus itself.
* Checkpoints embed their feed parameters (chunk_rows / num_buckets /
  gap / bucket id): offsets are batch counts, so restoring under
  different parameters would silently skip/replay events — ``restore``
  refuses a mismatched snapshot instead.  (The log path itself is NOT
  pinned: the layout is deterministic for the same events, so a rerun's
  fresh temp log carries identical batch boundaries.)

Output and semantics are identical to the batch ``sessionize``
(equivalence-tested, and the driver query shares its SQL oracle);
``value_sum`` may differ from the batch path in the last float ulp
because chunked partial sums re-associate (the oracle rounds to cents,
as it already does for the salted variant).
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pyarrow as pa

import ray

SESSION_SCHEMA = pa.schema(
    [
        ("user_id", pa.int64()),
        ("session_id", pa.int64()),
        ("session_start_us", pa.int64()),
        ("n_events", pa.int64()),
        ("value_sum", pa.float64()),
    ]
)

LOG_COLUMNS = ["user_id", "ts_us", "value"]


@ray.remote
class SessionBucketWorker:
    """Open-session state for one key-hash bucket of users."""

    def __init__(self, gap_us: int):
        self.gap_us = gap_us
        # user -> [session_id, start_us, last_us, n_events, value_sum]
        self.open: dict = {}
        self.closed: list = []
        self.batches_consumed = 0

    def _close(self, user: int) -> None:
        sid, start, _last, n, vsum = self.open.pop(user)
        self.closed.append((user, sid, start, n, vsum))

    def process(self, users, ts_us, values) -> int:
        """Consume one ts-ordered chunk; returns closed-so-far count.

        Vectorized: a stable sort by user keeps each user's events in
        ts order, gap breaks are one numpy compare, per-segment sums
        come from ``add.reduceat`` — Python touches only the SEGMENTS
        (one per partial session in the chunk), never the events.
        """
        self.batches_consumed += 1
        u = np.asarray(users, dtype=np.int64)
        t = np.asarray(ts_us, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        n = len(u)
        if n == 0:
            return len(self.closed)
        order = np.argsort(u, kind="stable")  # ts order preserved per user
        u, t, v = u[order], t[order], v[order]
        brk = np.ones(n, dtype=bool)
        if n > 1:
            brk[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > self.gap_us)
        seg = np.flatnonzero(brk)
        seg_n = np.diff(np.append(seg, n))
        seg_vsum = np.add.reduceat(v, seg)
        seg_u = u[seg]
        seg_t0 = t[seg]
        seg_t1 = t[np.append(seg[1:], n) - 1]
        for i in range(len(seg)):
            uu = int(seg_u[i])
            st = self.open.get(uu)
            if st is None:
                self.open[uu] = [0, int(seg_t0[i]), int(seg_t1[i]), int(seg_n[i]), float(seg_vsum[i])]
            elif int(seg_t0[i]) - st[2] <= self.gap_us:
                st[2] = int(seg_t1[i])
                st[3] += int(seg_n[i])
                st[4] += float(seg_vsum[i])
            else:
                next_sid = st[0] + 1
                self._close(uu)
                self.open[uu] = [next_sid, int(seg_t0[i]), int(seg_t1[i]), int(seg_n[i]), float(seg_vsum[i])]
        return len(self.closed)

    def take_closed(self) -> pa.Table:
        """Drain sessions closed since the last drain (incremental)."""
        rows = self.closed
        self.closed = []
        return _rows_to_table(rows)

    def flush(self) -> pa.Table:
        """End of log: close every open session and drain everything."""
        for u in sorted(self.open):
            self._close(u)
        return self.take_closed()

    def checkpoint(self, path: str, meta: dict | None = None) -> int:
        """Atomic (offset, open, undrained-closed) snapshot; returns the
        batch offset the snapshot covers (feed from there on recovery).
        ``meta`` records the feed parameters the offset is only valid
        under (chunk_rows / num_buckets / log path)."""
        state = {
            "batches_consumed": self.batches_consumed,
            "open": self.open,
            "closed": self.closed,
            "meta": meta or {},
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(state, f)
        os.replace(tmp, path)
        return self.batches_consumed

    def restore(self, path: str, meta: dict | None = None) -> int:
        """Load a snapshot; returns the batch offset to resume the feed
        from (0 when no checkpoint exists — feed from the start).

        The offset is a BATCH COUNT: it only addresses the same events
        when the log layout and chunking match the checkpointing run,
        so a snapshot whose recorded meta differs from ``meta`` is
        REFUSED (silently skipping/replaying the wrong events would
        corrupt session counts with no error)."""
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as f:
            state = pickle.load(f)
        if meta is not None and state.get("meta") and state["meta"] != meta:
            raise ValueError(
                f"checkpoint {path!r} was written under feed parameters "
                f"{state['meta']!r} but restore was asked for {meta!r} — "
                "batch offsets do not transfer; delete the checkpoint or "
                "rerun with the original parameters"
            )
        self.batches_consumed = state["batches_consumed"]
        self.open = state["open"]
        self.closed = state["closed"]
        return self.batches_consumed


def _rows_to_table(rows: list) -> pa.Table:
    cols = list(zip(*rows)) if rows else [[], [], [], [], []]
    return pa.Table.from_arrays(
        [
            pa.array(cols[0], pa.int64()),
            pa.array(cols[1], pa.int64()),
            pa.array(cols[2], pa.int64()),
            pa.array(cols[3], pa.int64()),
            pa.array(cols[4], pa.float64()),
        ],
        schema=SESSION_SCHEMA,
    )


def prepare_bucket_log(
    events_ds, num_buckets: int, log_dir: str, row_group_rows: int = 32768
) -> dict:
    """Distributed log-layout job: events → per-bucket ts-ordered
    parquet partitions under ``log_dir`` (``bucket=N.parquet``).

    One map to tag ``bucket = crc32(user) % num_buckets``, one
    ``groupby(bucket)`` shuffle, and a per-bucket in-task sort —
    NEVER a global sort, nothing materialized on the driver.  The sort
    key is canonical ``(ts_us, user_id, value)`` so the layout (and
    therefore every downstream session) is deterministic regardless of
    shuffle order.  Returns ``{bucket: path}`` for the buckets that
    have rows (a tiny, ``num_buckets``-row manifest).
    """
    import pandas as pd
    import pyarrow.parquet as pq

    os.makedirs(log_dir, exist_ok=True)

    def tag(batch: pa.Table) -> pa.Table:
        from .joins import bucket_col

        ts = batch.column("ts").cast(pa.int64())
        # crc_compat: the bucket value is pinned by the on-disk log
        # layout (bucket=N.parquet) that checkpoints replay against —
        # it must never change across engine versions; the factorized
        # form runs crc32 once per UNIQUE user, not per row
        b = bucket_col(batch.column("user_id"), num_buckets, crc_compat=True)
        return pa.Table.from_arrays(
            [batch.column("user_id"), ts, batch.column("value"), pa.array(b, pa.int32())],
            names=LOG_COLUMNS + ["bucket"],
        )

    def write_partition(g: pd.DataFrame) -> pd.DataFrame:
        w = int(g["bucket"].iloc[0])
        g = g.sort_values(["ts_us", "user_id", "value"], kind="mergesort")
        path = os.path.join(log_dir, f"bucket={w}.parquet")
        tmp = path + ".tmp"
        pq.write_table(
            pa.Table.from_pandas(g[LOG_COLUMNS], preserve_index=False),
            tmp,
            row_group_size=row_group_rows,
        )
        os.replace(tmp, path)
        return pd.DataFrame({"bucket": [w], "path": [path], "n_rows": [len(g)]})

    from .joins import run_bucket_groups

    manifest = run_bucket_groups(
        events_ds.map_batches(tag, batch_format="pyarrow"),
        num_buckets,
        write_partition,
    ).to_pandas()  # num_buckets rows — metadata, not data
    return dict(zip(manifest["bucket"], manifest["path"]))


@ray.remote
def feed_bucket(
    log_path,
    worker,
    chunk_rows: int = 8192,
    ckpt_path: str | None = None,
    ckpt_every: int = 0,
    start_batches: int = 0,
    max_batches: int | None = None,
    ckpt_meta: dict | None = None,
) -> int:
    """Stream one bucket's ordered partition to its worker.

    ``ray.get`` per chunk = one in-flight chunk per bucket
    (backpressure); ``start_batches`` skips batches a restored worker
    already consumed (checkpoints land on batch boundaries, and pyarrow
    ``iter_batches`` boundaries are deterministic for a given file);
    ``max_batches`` exists for fault-injection tests (stop mid-stream).
    Returns the number of batches consumed in THIS call.
    """
    if log_path is None:
        return 0
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(log_path)
    seen = 0
    fed = 0
    for batch in pf.iter_batches(batch_size=chunk_rows, columns=LOG_COLUMNS):
        seen += 1
        if seen <= start_batches:
            continue
        if max_batches is not None and fed >= max_batches:
            break
        ray.get(
            worker.process.remote(
                batch.column("user_id").to_numpy(zero_copy_only=False),
                batch.column("ts_us").to_numpy(zero_copy_only=False),
                batch.column("value").to_numpy(zero_copy_only=False),
            )
        )
        fed += 1
        if ckpt_path and ckpt_every and fed % ckpt_every == 0:
            ray.get(worker.checkpoint.remote(ckpt_path, ckpt_meta))
    return fed


def bucket_ckpt_path(checkpoint_dir: str, bucket: int) -> str:
    return os.path.join(checkpoint_dir, f"bucket-{bucket}.ckpt")


def streaming_sessionize(
    events_ds,
    gap_seconds: int = 1800,
    num_buckets: int = 8,
    chunk_rows: int = 8192,
    log_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every_chunks: int = 64,
):
    """events Dataset → closed-sessions Dataset via incremental actors.

    Lay out the log per bucket (distributed, ordered — see
    :func:`prepare_bucket_log`), feed every bucket's worker in parallel
    from its own partition (one raw Ray task per bucket), flush, and
    assemble the result from the workers' Arrow tables WITHOUT driver
    materialization (``bucket_tasks.dataset_from_refs``).  With
    ``checkpoint_dir`` set, workers restore from any existing snapshot
    first (replaying only the un-checkpointed tail) and snapshot every
    ``checkpoint_every_chunks`` chunks.
    """
    import shutil
    import tempfile

    from .bucket_tasks import dataset_from_refs

    gap_us = gap_seconds * 1_000_000
    owns_log = log_dir is None
    if owns_log:
        log_dir = tempfile.mkdtemp(prefix="ocr_lib_ray_sesslog_")
    try:
        paths = prepare_bucket_log(events_ds, num_buckets, log_dir)
        workers = [SessionBucketWorker.remote(gap_us) for _ in range(num_buckets)]
        starts = [0] * num_buckets
        ckpts = [None] * num_buckets
        metas = [None] * num_buckets
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            ckpts = [bucket_ckpt_path(checkpoint_dir, w) for w in range(num_buckets)]
            # batch offsets only transfer under identical feed params —
            # recorded per bucket, enforced by restore
            # (no log PATH in the meta: an owns-log rerun lays out an
            # identical log at a fresh temp path — offsets transfer
            # because the layout is deterministic for the same events)
            metas = [
                {
                    "chunk_rows": chunk_rows,
                    "num_buckets": num_buckets,
                    "gap_us": gap_us,
                    "bucket": w,
                }
                for w in range(num_buckets)
            ]
            starts = ray.get(
                [
                    workers[w].restore.remote(ckpts[w], metas[w])
                    for w in range(num_buckets)
                ]
            )
        feeds = [
            feed_bucket.remote(
                paths.get(w),
                workers[w],
                chunk_rows,
                ckpts[w],
                checkpoint_every_chunks if checkpoint_dir else 0,
                starts[w],
                None,
                metas[w],
            )
            for w in range(num_buckets)
        ]
        ray.get(feeds)
        # flush results stay in the object store — the driver holds refs
        flush_refs = [w.flush.remote() for w in workers]
        ds = dataset_from_refs(flush_refs)
        ds = ds.materialize()  # consume before the workers are released
    finally:
        if owns_log:
            shutil.rmtree(log_dir, ignore_errors=True)
    return ds
