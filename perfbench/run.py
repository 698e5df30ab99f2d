"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs one workload (or each in turn) in a child process with a timeout,
prints every metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones of a separate traced run.  A child that crashes, times out or
misses a metric counts as a failed operation, the tail of its stderr
is printed, and the next workload still runs; every process it started
is killed and waited for.  The exit code is 0 only when every
operation passed its check and every metric was measured.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import host  # noqa: E402
from perfbench.layers import END_TO_END, LAYERS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
#: the program under test, which the checkout must hold
PROGRAM = ("ocr_lib_ray", "__ray_entry__.py", os.path.join("tools", "check_oracles.py"))
WORKLOADS = ["extract_stream", "extract_large", "sink_resume", "dedup_exchange"]
#: a run must end within 180 s; the child gets this long
TIMEOUT_S = 160
STDERR_TAIL_LINES = 20
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Ray daemons outlive their parent) so
    they can be found and waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_all(grace_s: float = 5.0) -> None:
    """Stop every remaining descendant: SIGTERM, then SIGKILL, then wait."""
    deadline = time.monotonic() + grace_s
    sig = signal.SIGTERM
    while True:
        pids = host.descendants(os.getpid())
        if not pids:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.2)
        while True:
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break


def _tail(path: str) -> str:
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-STDERR_TAIL_LINES:])
    except OSError:
        return ""


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child and return its result.  A child that
    crashes, times out or ends without every metric still gives a result:
    the run counts as one more failed operation, and its stderr tail is
    kept."""
    run_dir = os.path.join(ROOT, ".bench_run", f"{workload}-s{seed}-t{trace}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    err_path = os.path.join(run_dir, "stderr.log")
    cmd = [
        sys.executable, CHILD,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--run-dir", run_dir,
    ]
    with open(err_path, "w") as err, open(os.path.join(run_dir, "stdout.log"), "w") as out:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            code = "timeout"
    _reap_all()
    shutil.rmtree(os.path.join(ROOT, ".bench_run", "ray"), ignore_errors=True)
    for sub in ("pages", "sink", "sf"):
        shutil.rmtree(os.path.join(run_dir, sub), ignore_errors=True)
    try:
        with open(os.path.join(run_dir, "result.json")) as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "details": {}}
    result["details"].setdefault("seed", seed)
    result["details"].setdefault("units", 0)
    missing = sorted(set(expected_metrics(trace)) - set(result["metrics"]))
    if code != 0 or missing:
        tail = _tail(err_path)
        print(f"[{workload}] child exited with {code}, missing metrics {missing}; stderr tail:\n{tail}", file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        result["attempted"] += 1
        result["details"]["crash"] = {"exit": code, "missing_metrics": missing, "stderr_tail": tail}
    result["details"]["error_rate"] = result["failed"] / result["attempted"]
    return result


def expected_metrics(trace: int) -> dict:
    return {m[0]: m[1] for m in (LAYERS if trace else END_TO_END)}


def report(workload: str, result: dict, trace: int) -> None:
    units = expected_metrics(trace)
    layer = {m[0]: f"  [{m[3]}] predicted: {m[4]}" for m in LAYERS} if trace else {}
    d = result["details"]
    print(f"== {workload} (seed {d['seed']}, trace {trace}, {d['units']} units)")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s}{layer.get(name, '')}")
    print(f"  {'error_rate':28s} {d['error_rate']:14.6g} failed/attempted ({result['failed']}/{result['attempted']})")
    if "resume_s" in d:
        print(f"  {'resume_s':28s} {d['resume_s']:14.6g} s")
    print("  details " + json.dumps(d, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in PROGRAM if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"program not found in {ROOT}: {missing}", file=sys.stderr)
        return 2
    _become_subreaper()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, args.trace)
        report(name, results[name], args.trace)
    if len(results) == 1:
        (r,) = results.values()
        metrics = {k: {"value": v, "unit": expected_metrics(args.trace)[k]} for k, v in r["metrics"].items()}
    else:
        metrics = {
            f"{w}.{k}": {"value": v, "unit": expected_metrics(args.trace)[k]}
            for w, r in results.items()
            for k, v in r["metrics"].items()
        }
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
