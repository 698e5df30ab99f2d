"""Spans recorded from outside the engine, around its public functions.

:func:`install` replaces each function listed in :data:`PATCHES` with a
wrapper, in its defining module and in every ``ocr_lib_ray`` module that
bound it at import (``kernel.extract`` binds ``tokenize``, for example),
so the wrapper runs wherever the function is looked up.  The driver
calls :func:`install` itself; Ray worker processes call it through the
``worker_process_setup_hook`` named by :func:`worker_hook`.  A wrapper
pickles by reference (it carries the original's module and name), so a
task shipped from the driver resolves to the worker's own wrapper.

A span is ``(name, id, parent id, start, end, self seconds, count)``;
self time is the span's duration minus the time of its child spans.
Spans carry the run id and are kept in memory: the driver writes its
own when the run ends, a worker writes its batch when its outermost
wrapped call returns (the end of that call's Ray task).  Wrappers record
only while the flag file ``ACTIVE`` exists in the trace directory, so a
run can time untraced and traced phases with the same workers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_RUN = "PERFBENCH_RUN_ID"
FLAG = "ACTIVE"


class _Local(threading.local):
    def __init__(self):
        self.depth = 0
        self.on = False
        self.stack = []  # open spans: [id, name, child seconds]
        self.tag = None  # exchange id, set by the tagged bucket fn


_TL = _Local()
_SPANS: list = []
_IDS = itertools.count(1)
_STATE = {"dir": None, "run": None, "worker": False, "installed": False}


def _active() -> bool:
    return _STATE["dir"] is not None and os.path.exists(os.path.join(_STATE["dir"], FLAG))


def set_active(on: bool) -> None:
    flag = os.path.join(_STATE["dir"], FLAG)
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def _call(name, fn, count, args, kwargs):
    tl = _TL
    if tl.depth == 0:
        tl.on = _active()
    if not tl.on:
        tl.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tl.depth -= 1
    parent = tl.stack[-1] if tl.stack else None
    frame = [next(_IDS), name, 0.0]
    tl.stack.append(frame)
    tl.depth += 1
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        t1 = time.perf_counter()
        tl.stack.pop()
        tl.depth -= 1
        if parent is not None:
            parent[2] += t1 - t0
    n = count(out, args) if count is not None else None
    _SPANS.append(
        (name, frame[0], parent[0] if parent else None, t0, t1, t1 - t0 - frame[2], n)
    )
    if tl.depth == 0 and _STATE["worker"]:
        flush()
    return out


def _wrap(name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _call(name, fn, count, args, kwargs)

    return wrapper


def _set_tag(xid) -> None:
    _TL.tag = xid


def _in_exchange() -> bool:
    return any(f[1] in EXCHANGE_SPANS for f in _TL.stack)


# ------------------------------------------------------- special wrappers


def _wrap_exchange(fn):
    """exchange_to_bucket_refs: tag the bucket fn with this exchange's id,
    so the split wave's per-bucket byte counts group by exchange."""

    @functools.wraps(fn)
    def wrapper(block_refs, bucket_fn, num_partitions, merge_fn=None, pre_fn=None):
        xid = f"{os.getpid()}-{next(_IDS)}"

        def tagged(tbl):
            _set_tag(xid)
            return bucket_fn(tbl)

        return _call(
            "exchange.exchange_to_bucket_refs",
            fn,
            None,
            (block_refs, tagged, num_partitions),
            {"merge_fn": merge_fn, "pre_fn": pre_fn},
        )

    return wrapper


def _wrap_writer(make):
    """make_partition_writer: trace the per-partition group fn it returns."""

    @functools.wraps(make)
    def wrapper(out_dir):
        inner = make(out_dir)

        def write_partition(group):
            return _call(
                "manifest.write_partition",
                inner,
                _count_group,
                (group,),
                {},
            )

        return write_partition

    return wrapper


def _wrap_ray_get(get):
    """ray.get: a span only while an exchange entry point waits on it."""

    @functools.wraps(get)
    def wrapper(*args, **kwargs):
        if _TL.on and _TL.depth and _in_exchange():
            return _call("exchange.ray_get", get, None, args, kwargs)
        return get(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------- counts


def _count_len_arg(out, args):
    return len(args[0])


def _count_len(out, args):
    return len(out)


def _count_rows(out, args):
    return out.num_rows


def _count_group(out, args):
    return [args[0].num_rows, args[0].nbytes]


def _count_split(out, args):
    return [_TL.tag, args[0].num_rows, args[0].nbytes, [s.nbytes for s in out]]


def _count_band(out, args):
    sizes = args[0]["band_hash"].value_counts()
    return [int((sizes * (sizes - 1) // 2).sum()), len(out)]


#: (module, attribute, span name, count fn); ``Class.method`` attributes
#: patch the class.  Every span name here feeds a metric in LAYERS.
PATCHES = [
    ("ocr_lib_ray.kernel.tokenizer", "tokenize", "tokenizer.tokenize", _count_len_arg),
    ("ocr_lib_ray.kernel.tokenizer", "tokenize_chunked", "tokenizer.tokenize_chunked", _count_len_arg),
    ("ocr_lib_ray.kernel.segment", "segment", "segment.segment", _count_len),
    ("ocr_lib_ray.kernel.pdf", "extract_pdf", "pdf.extract_pdf", None),
    ("ocr_lib_ray.kernel.extract", "maybe_decode_base64", "extract.decode", None),
    ("ocr_lib_ray.kernel.extract", "sniff_kind", "extract.decode", None),
    ("ocr_lib_ray.kernel.extract", "decode_bytes", "extract.decode", None),
    ("ocr_lib_ray.kernel.extract", "extract_document", "extract.extract_document", None),
    ("ocr_lib_ray.stages.extract_stage", "extract_batch", "extract_stage.extract_batch", _count_rows),
    ("ocr_lib_ray.stages.partition", "add_partition_meta", "partition.add_partition_meta", None),
    ("ocr_lib_ray.stages.manifest", "partition_checksum", "manifest.checksum", None),
    ("ocr_lib_ray.stages.manifest", "completed_partitions", "manifest.completed_partitions", None),
    ("ocr_lib_ray.pipelines.extract", "write_with_manifest", "manifest.write_with_manifest", None),
    ("ocr_lib_ray.functions.bucket_tasks", "split_table_by_bucket", "exchange.split", _count_split),
    ("ocr_lib_ray.functions.bucket_tasks", "exchange_map_groups", "exchange.exchange_map_groups", None),
    ("ocr_lib_ray.functions.joins", "run_bucket_groups", "exchange.run_bucket_groups", None),
    ("ocr_lib_ray.functions.dedup", "MinHasher.signature", "dedup.minhash_signature", None),
    ("ocr_lib_ray.functions.dedup", "minhash_band_rows", "dedup.minhash_band_rows", None),
    ("ocr_lib_ray.functions.dedup", "_pairs_from_band", "dedup.pairs_from_band", _count_band),
    ("ocr_lib_ray.functions.text_stats", "fingerprint_batch", "text_stats.fingerprint_batch", None),
    ("ocr_lib_ray.functions.linedup", "line_df_partials", "linedup.line_df_partials", _count_rows),
    (
        "ray.data._internal.planner.exchange.pull_based_shuffle_task_scheduler",
        "PullBasedShuffleTaskScheduler.execute",
        "sort_shuffle.execute",
        None,
    ),
    (
        "ray.data._internal.planner.exchange.push_based_shuffle_task_scheduler",
        "PushBasedShuffleTaskScheduler.execute",
        "sort_shuffle.execute",
        None,
    ),
]
SPECIAL = [
    ("ocr_lib_ray.functions.bucket_tasks", "exchange_to_bucket_refs", _wrap_exchange),
    ("ocr_lib_ray.stages.manifest", "make_partition_writer", _wrap_writer),
    ("ray", "get", _wrap_ray_get),
]
EXCHANGE_SPANS = {
    "exchange.exchange_to_bucket_refs",
    "exchange.exchange_map_groups",
    "exchange.run_bucket_groups",
}


def _rebind(original, replacement) -> None:
    """Point every engine module's binding of ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name.startswith("ocr_lib_ray") or mod_name == "__ray_entry__"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install() -> None:
    """Wrap every function in PATCHES and SPECIAL in this process (idempotent)."""
    if _STATE["installed"]:
        return
    _STATE["installed"] = True
    _STATE["dir"] = os.environ.get(ENV_DIR)
    _STATE["run"] = os.environ.get(ENV_RUN)
    for name in (
        "ocr_lib_ray.pipelines.extract",
        "ocr_lib_ray.functions.dedup",
        "ocr_lib_ray.functions.text_stats",
        "ocr_lib_ray.functions.linedup",
        "ocr_lib_ray.functions.joins",
        "ocr_lib_ray.functions.bucket_tasks",
    ):
        importlib.import_module(name)
    for mod_name, attr, span, count in PATCHES:
        mod = importlib.import_module(mod_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, fn_name)
        wrapped = _wrap(span, original, count)
        setattr(owner, fn_name, wrapped)
        if not owner_name:
            _rebind(original, wrapped)
    for mod_name, attr, factory in SPECIAL:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        wrapped = factory(original)
        setattr(mod, attr, wrapped)
        _rebind(original, wrapped)


def worker_hook() -> None:
    """``worker_process_setup_hook`` for Ray workers of a traced run."""
    _STATE["worker"] = True
    install()


def flush() -> None:
    """Append this process's recorded spans to its file and forget them."""
    if not _SPANS or _STATE["dir"] is None:
        return
    batch = list(_SPANS)
    del _SPANS[: len(batch)]
    path = os.path.join(_STATE["dir"], f"spans-{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps({"run": _STATE["run"], "pid": os.getpid(), "spans": batch}) + "\n")


def load(trace_dir: str, run_id: str) -> list:
    """Every span of ``run_id`` written under ``trace_dir``, as
    ``(pid, name, id, parent, start, end, self_s, count)`` tuples."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(trace_dir, name)) as f:
            for line in f:
                rec = json.loads(line)
                if rec["run"] == run_id:
                    out.extend((rec["pid"], *s) for s in rec["spans"])
    return out
