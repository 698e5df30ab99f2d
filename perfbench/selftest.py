"""Self-tests of the benchmark itself (no Ray needed, ~10 s).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from perfbench import layers, run, workloads  # noqa: E402


class Scratch(unittest.TestCase):
    def setUp(self):
        base = os.path.join(ROOT, ".bench_run")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=base)
        self.fixture = workloads.load_fixture()

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class TestGeneration(Scratch):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            fps = [
                workloads.make(name, os.path.join(self.dir, f"{name}-{i}"), seed).materialize(self.fixture)
                for i, seed in enumerate((7, 7, 8))
            ]
            self.assertEqual(fps[0], fps[1], name)
            self.assertNotEqual(fps[0]["sha256"], fps[2]["sha256"], name)

    def test_extract_large_crosses_giant_threshold(self):
        from ocr_lib_ray.config import DEFAULT_CONFIG

        wl = workloads.make("extract_large", self.dir, 3)
        wl.materialize(self.fixture)
        sizes = [len(h) for h in pq.read_table(wl.pages_dir).column("html").to_pylist()]
        self.assertEqual(sum(s > DEFAULT_CONFIG.giant_threshold for s in sizes), workloads.LARGE_GIANTS)
        self.assertGreater(min(sizes), 16 * 1024)


class TestMetricNames(unittest.TestCase):
    def test_names_equal_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(layers.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [m[:3] for m in layers.LAYERS],
        )

    def test_traced_run_emits_every_layer_metric(self):
        values = layers.per_layer([], [], [(0.0, 1.0)], 1, [1.0], [1.0], 1, 0, [])
        self.assertEqual(list(values), [m[0] for m in layers.LAYERS])
        self.assertEqual(set(values), set(run.expected_metrics(1)))


class TestCorruptionCounted(Scratch):
    def test_extract_check_counts_a_corrupted_row(self):
        wl = workloads.make("extract_stream", self.dir, 5)
        wl.materialize(self.fixture)
        wl.prepare()
        urls = list(wl.golden)
        texts = [wl.golden[u] for u in urls]
        self.assertEqual(wl.check(pa.table({"url": urls, "text": texts})), 0)
        texts[17] += " corrupted"
        self.assertEqual(wl.check(pa.table({"url": urls, "text": texts})), 1)
        self.assertEqual(wl.check(pa.table({"url": urls[1:], "text": texts[1:]})), 2)

    def test_dedup_check_rejects_a_corrupted_row(self):
        import duckdb

        wl = workloads.make("dedup_exchange", self.dir, 5)
        wl.materialize(self.fixture)
        wl.prepare()
        import __ray_entry__ as entry

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{wl.sf_dir}/documents.parquet')"
        )
        good = con.execute(entry.oracle_sql()["dedup_exact"]).df()
        self.assertTrue(wl.check("dedup_exact", good))
        bad = good.copy()
        bad.loc[3, "doc_id"] += 1
        self.assertFalse(wl.check("dedup_exact", bad))

    def test_failed_check_is_counted_in_error_rate(self):
        from perfbench import child

        class Corrupt:
            headline = "extract"

            def run_once(self):
                return workloads.Outcome(seconds={"extract": 1.0}, ops=1, failed=1, errors=["bad row"])

        args = child.parse(["--workload", "extract_stream", "--seed", "1", "--seconds", "0", "--run-dir", self.dir])
        r = child.Run(args)
        r.wl, r.units = Corrupt(), []
        r.unit()
        self.assertEqual((r.attempted, r.failed), (1, 1))


#: stand-in children for run.py: one whose every unit fails its check,
#: one that crashes before measuring anything
ALL_UNITS_FAIL = f"""
import sys
sys.path.insert(0, {ROOT!r})
from perfbench import child, workloads

class Corrupt:
    headline = "extract"

    def run_once(self):
        return workloads.Outcome(seconds={{"extract": 0.01}}, ops=1, failed=1, errors=["text differs"])

r = child.Run(child.parse())
r.wl = Corrupt()
r.measure(0)
r.write()
"""
CRASH = "raise RuntimeError('child blew up')\n"


class TestFailedRunsCounted(Scratch):
    def run_main(self, child_source: str, workload: str):
        path = os.path.join(self.dir, "fake_child.py")
        with open(path, "w") as f:
            f.write(child_source)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "CHILD", path), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"])
        lines = out.getvalue().strip().splitlines()
        return code, json.loads(lines[-1]), out.getvalue(), err.getvalue()

    def test_every_unit_failing_reports_error_rate_one(self):
        code, final, out, _ = self.run_main(ALL_UNITS_FAIL, "extract_stream")
        self.assertNotEqual(code, 0)
        self.assertFalse(final["correct"])
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(final["failed"], final["attempted"])
        self.assertRegex(out, r"error_rate\s+1 ")

    def test_crash_is_counted_and_the_next_workload_still_runs(self):
        code, final, out, err = self.run_main(CRASH, "all")
        self.assertNotEqual(code, 0)
        self.assertEqual((final["attempted"], final["failed"]), (len(run.WORKLOADS), len(run.WORKLOADS)))
        for name in run.WORKLOADS:
            self.assertIn(f"== {name} ", out)
        self.assertIn("child blew up", err)
        self.assertIn("child blew up", out)  # stderr tail kept in the details


if __name__ == "__main__":
    unittest.main()
