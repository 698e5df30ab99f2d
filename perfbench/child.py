"""One benchmark run of one workload, in-process (started by run.py).

Closed loop: this single driver process runs one timed unit at a time
against a local Ray with one CPU per CPU this process may use; no extra
client threads.  The result file is rewritten after every unit and always
before ``ray.shutdown()``, so a crash or a timeout still leaves what
was measured.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 --run-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import host, layers, spans, workloads  # noqa: E402

#: repeats of input materialization inside set-up (setup_s takes the median)
MATERIALIZE_REPEATS = 3
#: units tried even when they overrun --seconds
MIN_UNITS = 3
#: Ray object store size: small and fixed, the inputs are a few MB
OBJECT_STORE_BYTES = 512 * 1024 * 1024
#: AF_UNIX paths are limited to 107 bytes; Ray's socket names under its
#: temp dir need about this many on top of the dir itself
RAY_SOCKET_SUFFIX = 70
#: scheduling priority of Ray workers, the same as this driver's
WORKER_NICENESS = "0"
#: seconds for Ray task events to reach the GCS before ray.timeline()
TIMELINE_SETTLE_S = 2.5


def nproc() -> int:
    """CPUs for this run, as ``nproc`` counts them: the CPUs this process
    may run on, capped by ``OMP_NUM_THREADS`` when the host sets it.
    os.cpu_count() counts the machine's CPUs, shared or not."""
    n = len(os.sched_getaffinity(0))
    cap = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(cap)) if cap.isdigit() and int(cap) > 0 else n


NCPU = nproc()


class Run:
    def __init__(self, args):
        self.args = args
        self.run_dir = args.run_dir
        self.run_id = os.path.basename(self.run_dir)
        self.wl = workloads.make(args.workload, self.run_dir, args.seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        self.metrics: dict = {}
        self.units: list = []  # timed units that passed their checks

    # -------------------------------------------------------------- results

    def write(self) -> None:
        if self.args.trace == 0 and self.units:
            docs = [o.docs / o.seconds[self.wl.headline] for o in self.units]
            self.metrics = {
                "docs_per_s": statistics.median(docs),
                "setup_s": self.details["setup"]["setup_s"],
                "peak_rss_mb": host.peak_rss_mb(),
            }
            self.details["docs_per_s_samples"] = docs
            self.details["op_s"] = {
                k: statistics.median(o.seconds[k] for o in self.units) for k in self.units[0].seconds
            }
            if "resume" in self.details["op_s"]:
                self.details["resume_s"] = self.details["op_s"]["resume"]
        else:
            self.details["peak_rss_mb"] = host.peak_rss_mb()
        self.details["units"] = len(self.units)
        self.details["error_rate"] = self.failed / self.attempted if self.attempted else 0.0
        self.details["errors"] = self.errors[-5:]
        out = {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "details": self.details,
        }
        path = os.path.join(self.run_dir, "result.json")
        with open(path + ".tmp", "w") as f:
            json.dump(out, f)
        os.replace(path + ".tmp", path)

    # ---------------------------------------------------------------- units

    def unit(self) -> workloads.Outcome:
        try:
            o = self.wl.run_once()
        except Exception:
            o = workloads.Outcome(ops=1, failed=1, errors=[traceback.format_exc(limit=3)])
        self.attempted += o.ops
        self.failed += o.failed
        self.errors += o.errors
        return o

    def measure(self, seconds: float, tries: int = MIN_UNITS) -> list:
        """Run units for ``seconds``, and at least ``tries`` of them;
        return those that passed their checks."""
        done = []
        t_end = time.perf_counter() + seconds
        n = 0
        while n < tries or time.perf_counter() < t_end:
            n += 1
            o = self.unit()
            if not o.failed:
                done.append(o)
                self.units.append(o)
            self.write()
        return done

    # ---------------------------------------------------------------- phases

    def start_ray(self) -> float:
        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
        )
        # Ray lowers its workers' priority (nice 15) by default, so any other
        # process on a shared host preempts the timed work
        os.environ["RAY_worker_niceness"] = WORKER_NICENESS
        kw = dict(
            address="local",
            num_cpus=NCPU,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
        )
        tmp = os.path.join(ROOT, ".bench_run", "ray")
        if len(tmp) + RAY_SOCKET_SUFFIX <= 107:
            kw["_temp_dir"] = tmp
        self.details["ray_temp_dir"] = kw.get("_temp_dir", "default")
        if self.args.trace:
            trace_dir = os.path.join(self.run_dir, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            os.environ[spans.ENV_DIR] = trace_dir
            os.environ[spans.ENV_RUN] = self.run_id
            kw["runtime_env"] = {"worker_process_setup_hook": "perfbench.spans.worker_hook"}
        t0 = time.perf_counter()
        ray.init(**kw)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        return time.perf_counter() - t0

    def setup(self) -> None:
        from ocr_lib_ray.sources.pages import synthesize_pages_batch

        fixture = workloads.load_fixture()
        self.details["host"] = {
            "nproc": NCPU,
            "os_cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "alloc_probe_s": host.alloc_probe_s(),
            "kernel_probe_docs_per_s": host.kernel_probe_docs_per_s(
                synthesize_pages_batch(fixture.slice(0, 500))
            ),
        }
        ray_start = self.start_ray()
        mats = []
        for _ in range(MATERIALIZE_REPEATS):
            t0 = time.perf_counter()
            self.details["input"] = self.wl.materialize(fixture)
            mats.append(time.perf_counter() - t0)
        self.wl.prepare()
        t0 = time.perf_counter()
        self.unit()  # warm-up: worker start, imports, caches
        warmup = time.perf_counter() - t0
        self.details["setup"] = {
            "ray_start_s": ray_start,
            "materialize_s": mats,
            "warmup_s": warmup,
            "setup_s": ray_start + statistics.median(mats) + warmup,
        }

    def traced(self) -> None:
        """Alternate untraced and traced units for --seconds, so both see
        the same host conditions; the traced ones give the layer metrics."""
        import ray

        spans.install()
        untraced, traced, windows = [], [], []
        t_end = time.perf_counter() + self.args.seconds
        while len(windows) < MIN_UNITS or time.perf_counter() < t_end:
            untraced += self.measure(0, tries=1)
            spans.set_active(True)
            w0 = time.time()
            traced += self.measure(0, tries=1)
            windows.append((w0, time.time()))
            spans.set_active(False)
        time.sleep(TIMELINE_SETTLE_S)
        events = ray.timeline()
        spans.flush()
        self.metrics = layers.per_layer(
            spans.load(os.environ[spans.ENV_DIR], self.run_id),
            events,
            windows,
            len(traced),
            [o.wall for o in traced],
            [o.wall for o in untraced],
            NCPU,
            os.getpid(),
            [w for o in traced for w in o.windows],
        )

    def main(self) -> None:
        import ray

        try:
            self.setup()
            self.units = []  # the warm-up unit is set-up, not a sample
            # peak_rss_mb covers the timed phase only, not the host probes,
            # the oracle or the warm-up
            self.details["peak_rss_reset_pids"] = host.reset_peak_rss()
            if self.args.trace:
                self.traced()
            else:
                self.measure(self.args.seconds)
            self.write()
        finally:
            if ray.is_initialized():
                ray.shutdown()


def parse(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    return ap.parse_args(argv)


if __name__ == "__main__":
    Run(parse()).main()
