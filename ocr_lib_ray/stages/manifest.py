"""Per-partition lineage manifests + checkpointed resume (north_rule).

Output layout (resumable; never one giant file):

    out_dir/data/part={pid}/part-{pid}.parquet   # one dir per partition
    out_dir/manifest/part-{pid}.parquet          # one manifest row file

A partition is complete iff its manifest row exists with status "ok";
the data file is written first, then the manifest (write-then-rename on
the data side makes the pair effectively atomic: a crash between the
two leaves a data file that the next run simply overwrites).

Resume = read the manifest dir at job start, collect finished
partition ids, and filter them out of the input BEFORE extraction —
the anti-join-against-manifest design from SURVEY.md §2.7.

Checksum: order-independent sum of ``crc32(url) ^ crc32(text)`` per row
(mod 2^64), so two runs that produced the same rows in any order agree —
the deterministic-merge analog of the reference's thread-number re-sort
(core.clj:1746-1751).
"""

from __future__ import annotations

import os
import zlib

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("n_docs", pa.int64()),
        ("n_bytes", pa.int64()),
        ("checksum", pa.uint64()),
        ("status", pa.string()),
        ("output_path", pa.string()),
        # metrics (progress-atom analog, core.clj:15-106): per-partition
        # write wall time — docs/s per partition = n_docs / write_sec
        ("write_sec", pa.float64()),
    ]
)


JOB_MARKER = ".ocr_lib_ray_job"


def safe_wipe_output(path: str, overwrite: bool = False) -> None:
    """Wipe ``path`` for a fresh job run — but only when it is safe.

    write_parquet APPENDS into an existing dir, so rerun paths must be
    wiped; but an unconditional rmtree on a user-supplied path silently
    destroys unrelated data on a typo.  Wipe only when the dir is
    absent, empty, or carries the :data:`JOB_MARKER` from a prior run
    of ours; anything else requires ``overwrite=True``.  After wiping,
    the dir is recreated with the marker so the NEXT rerun (even after
    a mid-job crash) is recognized as ours.
    """
    import shutil

    if os.path.isdir(path) and os.listdir(path):
        ours = os.path.exists(os.path.join(path, JOB_MARKER))
        if not (ours or overwrite):
            raise SystemExit(
                f"refusing to delete non-empty {path!r}: it was not written "
                "by a prior run of this job (no marker file) — pass "
                "--overwrite to wipe it anyway"
            )
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, JOB_MARKER), "w") as f:
        f.write("ocr_lib_ray job output dir\n")


def partition_checksum(urls, texts) -> int:
    acc = 0
    for u, t in zip(urls, texts):
        acc = (
            acc
            + (zlib.crc32(u.encode("utf-8")) ^ zlib.crc32(t.encode("utf-8")))
        ) & 0xFFFFFFFFFFFFFFFF
    return acc


def make_partition_writer(out_dir: str):
    """Group fn of the manifest sink's exchange keyed by
    ``partition_id`` (``pipelines.extract.write_with_manifest``): writes
    one partition's data atomically and returns its manifest row.  On
    an empty table it raises before writing anything (the exchange
    probes it so to type an all-empty result)."""

    def _write(group: pa.Table) -> pa.Table:
        import time

        if group.num_rows == 0:
            raise ValueError("make_partition_writer: empty partition")
        t0 = time.time()
        pid = group.column("partition_id")[0].as_py()
        data_dir = os.path.join(out_dir, "data", f"part={pid}")
        os.makedirs(data_dir, exist_ok=True)
        final = os.path.join(data_dir, f"part-{pid}.parquet")
        tmp = final + ".tmp"
        pq.write_table(group, tmp)
        os.replace(tmp, final)
        urls = group.column("url").to_pylist()
        texts = group.column("text").to_pylist()
        row = pa.Table.from_arrays(
            [
                pa.array([pid], pa.int32()),
                pa.array([group.num_rows], pa.int64()),
                pa.array([group.nbytes], pa.int64()),
                pa.array([partition_checksum(urls, texts)], pa.uint64()),
                pa.array(["ok"], pa.string()),
                pa.array([final], pa.string()),
                pa.array([round(time.time() - t0, 6)], pa.float64()),
            ],
            schema=MANIFEST_SCHEMA,
        )
        man_dir = os.path.join(out_dir, "manifest")
        os.makedirs(man_dir, exist_ok=True)
        mtmp = os.path.join(man_dir, f"part-{pid}.parquet.tmp")
        pq.write_table(row, mtmp)
        os.replace(mtmp, os.path.join(man_dir, f"part-{pid}.parquet"))
        return row

    return _write


def completed_partitions(out_dir: str) -> set:
    """Partition ids already finished (for the resume filter)."""
    man_dir = os.path.join(out_dir, "manifest")
    done = set()
    if not os.path.isdir(man_dir):
        return done
    for name in sorted(os.listdir(man_dir)):
        if not name.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(man_dir, name), columns=["partition_id", "status"])
        for pid, status in zip(
            t.column("partition_id").to_pylist(), t.column("status").to_pylist()
        ):
            if status == "ok":
                done.add(pid)
    return done


def validate_job(out_dir: str) -> dict:
    """Lineage integrity check: re-read every completed partition's data
    file and verify row count + checksum against its manifest row.

    Returns {"partitions": n, "valid": k, "invalid": [pid, ...]} — the
    audit tool a resumable 100 TB job needs before trusting a resume.
    """
    man_dir = os.path.join(out_dir, "manifest")
    invalid = []
    total = 0
    if not os.path.isdir(man_dir):
        return {"partitions": 0, "valid": 0, "invalid": []}
    for name in sorted(os.listdir(man_dir)):
        if not name.endswith(".parquet"):
            continue
        m = pq.read_table(os.path.join(man_dir, name))
        for i in range(m.num_rows):
            total += 1
            pid = m.column("partition_id")[i].as_py()
            path = m.column("output_path")[i].as_py()
            try:
                data = pq.read_table(path, columns=["url", "text"])
            except Exception:
                invalid.append(pid)
                continue
            ok_rows = data.num_rows == m.column("n_docs")[i].as_py()
            stored = m.column("checksum")[i].as_py()
            cs = partition_checksum(
                data.column("url").to_pylist(), data.column("text").to_pylist()
            )
            if not ok_rows or cs != stored:
                invalid.append(pid)
    return {"partitions": total, "valid": total - len(invalid), "invalid": invalid}


def make_resume_filter(done: set):
    """Vectorized filter dropping rows of already-completed partitions."""
    import pyarrow.compute as pc

    done_arr = pa.array(sorted(done), pa.int32())

    def _filter(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(batch.column("partition_id"), value_set=done_arr))
        return batch.filter(mask)

    return _filter
