"""Host probes and /proc readers (psutil is not needed).

Every result records the host it ran on, so a slow host shows up as a
host number rather than as an engine regression: ``nproc``, a
single-core kernel probe (``extract_batch`` docs/s over fixture pages,
in-process, no Ray) and an allocation probe (seconds to fault in a
fresh 100 MB buffer).
"""

from __future__ import annotations

import os
import time

import numpy as np


def alloc_probe_s() -> float:
    t0 = time.perf_counter()
    a = np.zeros(100_000_000 // 8)
    a[::512] = 1.0  # touch every page
    return time.perf_counter() - t0


def kernel_probe_docs_per_s(pages) -> float:
    """Single-core ``extract_batch`` rate over ``pages`` (a pages table)."""
    from ocr_lib_ray.stages.extract_stage import extract_batch

    extract_batch(pages.slice(0, 50))  # warm imports and regex caches
    t0 = time.perf_counter()
    extract_batch(pages)
    return pages.num_rows / (time.perf_counter() - t0)


def _ppid_map() -> dict:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(root: int) -> list:
    """Every live process below ``root`` (excluding ``root``)."""
    ppid = _ppid_map()
    children: dict = {}
    for pid, parent in ppid.items():
        children.setdefault(parent, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def _vm_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def ray_worker_pids() -> list:
    """Ray worker processes started by this driver (they rename
    themselves ``ray::<task>``; idle ones run ``default_worker.py``)."""
    cmds = {p: _cmdline(p) for p in descendants(os.getpid())}
    return [p for p, c in cmds.items() if c.startswith("ray::") or "default_worker.py" in c]


def reset_peak_rss() -> int:
    """Reset VmHWM to the current RSS (``5`` into ``/proc/<pid>/clear_refs``)
    for this process and its live Ray workers, so the peak read later covers
    only what runs after this call; returns how many were reset."""
    n = 0
    for pid in [os.getpid()] + ray_worker_pids():
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
            n += 1
        except OSError:
            pass
    return n


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) summed over the driver and its live
    Ray worker processes."""
    pids = [os.getpid()] + ray_worker_pids()
    return sum(_vm_kb(p, "VmHWM:") for p in pids) / 1024.0
