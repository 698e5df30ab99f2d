"""The four workloads: seeded input generation, the timed unit of work,
and the output checks that feed ``error_rate``.

Every input derives from ``fixtures/documents.parquet`` (a byte copy of
the engine's sf0.1 ``documents`` fixture), its measured near-duplicate
clusters (``fixtures/near_dups.json``) and the workload seed only.
Pages are synthesized by the engine's own ``sources.pages`` module, so
a change there shows up as a changed input fingerprint, not as a
speed-up.

Each workload object is driven the same way by ``child.py``:
``materialize()`` writes the inputs (repeatable, part of set-up),
``prepare()`` builds the expected outputs (untimed), and ``run_once()``
executes one timed unit and checks it.  ``run_once`` returns an
:class:`Outcome`: the timed seconds per operation plus the number of
operations that failed their check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "documents.parquet")

#: extract_stream / sink_resume: pages per job (~1 KB each)
STREAM_PAGES = 4000
SINK_PAGES = 2000
#: extract_large: pages per job and their HTML size range
LARGE_PAGES = 30
LARGE_GIANTS = 2  # pages just past giant_threshold, so tokenize_chunked runs
LARGE_MIN_BYTES = 24 * 1024
LARGE_MAX_BYTES = 900 * 1024
#: dedup_exchange: documents per job.  dedup_jaccard grows quadratically
#: (1 CPU: 1.2 s at 360 rows, 3.6 s at 1000, 13.7 s at 2000, 95 s at the
#: fixture's 5000); at 800 per-row work outweighs Ray's fixed latency and
#: a run (three ~6 s chains after set-up) still takes under a minute
DEDUP_ROWS = 800
#: the fixture's near-duplicate clusters (minhash_pairs oracle), measured
#: by fixtures/near_dups.py
NEAR_DUPS = os.path.join(HERE, "fixtures", "near_dups.json")
#: line_dedup_join is left out: whenever a line is hot (any exact duplicate
#: text) it returns doc_id as float64, so its result never matches its
#: oracle; line_dedup (same semantics, broadcast hot set) and dedup_jaccard
#: (a joins.run_bucket_groups hash anti-join) cover its layers instead.
DEDUP_QUERIES = ("dedup_exact", "minhash_pairs", "line_dedup", "dedup_jaccard")
SHARDS = 4


def load_fixture() -> pa.Table:
    return pq.read_table(FIXTURE)


def fingerprint(table: pa.Table, cols: list) -> dict:
    """Row count, byte count and a content hash over ``cols`` in row order."""
    h = hashlib.sha256()
    nbytes = 0
    for col in cols:
        for v in table.column(col).to_pylist():
            b = v if isinstance(v, bytes) else str(v).encode("utf-8")
            nbytes += len(b)
            h.update(len(b).to_bytes(8, "little"))
            h.update(b)
    return {"rows": table.num_rows, "bytes": nbytes, "sha256": h.hexdigest()[:16]}


def write_shards(table: pa.Table, out_dir: str, shards: int = SHARDS) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    step = -(-table.num_rows // shards)
    for i in range(shards):
        part = table.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))


# ---------------------------------------------------------------- inputs


def stream_docs(fixture: pa.Table, seed: int, n: int) -> pa.Table:
    """A seeded sample of ``n`` fixture documents (page kinds follow doc_id:
    about 82% HTML in plain/noisy/malformed form, 18% PDF streams)."""
    idx = random.Random(f"stream:{seed}").sample(range(fixture.num_rows), n)
    return fixture.take(pa.array(idx))


def large_docs(fixture: pa.Table, seed: int) -> pa.Table:
    """HTML-kind documents whose bodies concatenate fixture texts, sized
    log-uniformly from tens of KB, plus LARGE_GIANTS just past
    ``giant_threshold``."""
    from ocr_lib_ray.config import DEFAULT_CONFIG
    from ocr_lib_ray.sources.pages import page_kind

    rng = random.Random(f"large:{seed}")
    ids = fixture.column("doc_id").to_pylist()
    texts = fixture.column("text").to_pylist()
    html_rows = [i for i, d in enumerate(ids) if not page_kind(d).startswith("pdf")]
    giant = DEFAULT_CONFIG.giant_threshold
    out = {"doc_id": [], "text": [], "lang": [], "source": []}
    # log-uniform sizes drawn one per stratum, so every seed carries about
    # the same bytes and only the contents and the order change
    n = LARGE_PAGES - LARGE_GIANTS
    lo, hi = LARGE_MIN_BYTES, LARGE_MAX_BYTES
    targets = [int(giant * rng.uniform(1.02, 1.10)) for _ in range(LARGE_GIANTS)]
    targets += [int(lo * (hi / lo) ** ((k + rng.random()) / n)) for k in range(n)]
    rng.shuffle(targets)
    for target, row in zip(targets, rng.sample(html_rows, LARGE_PAGES)):
        parts, size = [], 0
        while size < target:
            t = texts[rng.randrange(len(texts))]
            parts.append(t)
            size += len(t) + 1
        out["doc_id"].append(ids[row])
        out["text"].append(" ".join(parts))
        out["lang"].append(fixture.column("lang")[row].as_py())
        out["source"].append(fixture.column("source")[row].as_py())
    return pa.table(out)


def dedup_docs(fixture: pa.Table, seed: int) -> pa.Table:
    """A seeded DEDUP_ROWS-row sample of the fixture that keeps its
    duplicates: whole near-duplicate clusters make up the same share of
    rows as in the fixture (477 of 5000), single documents the rest."""
    with open(NEAR_DUPS) as f:
        near = json.load(f)
    rng = random.Random(f"dedup:{seed}")
    ids = fixture.column("doc_id").to_pylist()
    row_of = {d: i for i, d in enumerate(ids)}
    want = round(DEDUP_ROWS * near["docs_in_clusters"] / near["rows"])
    rows: list = []
    for group in rng.sample(near["clusters"], len(near["clusters"])):
        if len(rows) >= want:
            break
        rows += [row_of[d] for d in group]
    clustered = {d for g in near["clusters"] for d in g}
    singles = [i for i, d in enumerate(ids) if d not in clustered]
    rows += rng.sample(singles, DEDUP_ROWS - len(rows))
    rng.shuffle(rows)
    return fixture.take(pa.array(rows))


def golden_by_url(docs: pa.Table) -> dict:
    """url -> expected extracted text, from the engine's frozen golden rule."""
    from ocr_lib_ray.sources.pages import golden_text, page_url

    return {
        page_url(d, s): golden_text(d, t)
        for d, t, s in zip(
            docs.column("doc_id").to_pylist(),
            docs.column("text").to_pylist(),
            docs.column("source").to_pylist(),
        )
    }


def mismatched_rows(urls: list, texts: list, golden: dict) -> int:
    """Rows whose text differs from the golden, plus golden urls that are
    missing or duplicated in the output."""
    bad = sum(1 for u, t in zip(urls, texts) if golden.get(u) != t)
    seen = set(urls)
    return bad + len(golden.keys() - seen) + (len(urls) - len(seen))


# ---------------------------------------------------------------- workloads


@dataclass
class Outcome:
    """One timed unit: seconds per named operation and in total, the
    perf_counter windows of resumed jobs, documents processed by the
    headline operation, and how many operations failed a check."""

    seconds: dict = field(default_factory=dict)
    wall: float = 0.0
    windows: list = field(default_factory=list)
    docs: int = 0
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class ExtractWorkload:
    """read_parquet(pages) -> extract_pipeline -> consume (url, text)."""

    headline = "extract"

    def __init__(self, name: str, run_dir: str, seed: int):
        self.name, self.run_dir, self.seed = name, run_dir, seed
        self.pages_dir = os.path.join(run_dir, "pages")

    def docs_table(self, fixture: pa.Table) -> pa.Table:
        return stream_docs(fixture, self.seed, STREAM_PAGES)

    def materialize(self, fixture: pa.Table) -> dict:
        from ocr_lib_ray.sources.pages import synthesize_pages_batch

        self.docs = self.docs_table(fixture)
        pages = synthesize_pages_batch(self.docs)
        write_shards(pages, self.pages_dir)
        self.n_docs = pages.num_rows
        return fingerprint(pages, ["url", "html"])

    def prepare(self) -> None:
        self.golden = golden_by_url(self.docs)

    def check(self, out: pa.Table) -> int:
        return mismatched_rows(
            out.column("url").to_pylist(), out.column("text").to_pylist(), self.golden
        )

    def run_once(self) -> Outcome:
        import ray.data as rd

        import ocr_lib_ray.pipelines.extract as pe

        o = Outcome(docs=self.n_docs, ops=1)
        t0 = time.perf_counter()
        batches = list(
            pe.extract_pipeline(rd.read_parquet(self.pages_dir))
            .select_columns(["url", "text"])
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
        o.seconds["extract"] = o.wall = time.perf_counter() - t0
        if self.check(pa.concat_tables(batches)):
            o.failed += 1
            o.errors.append("extract: output differs from golden")
        return o


class LargeExtractWorkload(ExtractWorkload):
    """The extract job over large pages (see :func:`large_docs`)."""

    def docs_table(self, fixture: pa.Table) -> pa.Table:
        return large_docs(fixture, self.seed)


class SinkResumeWorkload(ExtractWorkload):
    """extract_stream's pages into write_with_manifest in a fresh dir,
    then a resume after a seeded half of the manifest rows is deleted."""

    headline = "fresh_write"

    def __init__(self, name: str, run_dir: str, seed: int):
        super().__init__(name, run_dir, seed)
        self.iteration = 0

    def docs_table(self, fixture: pa.Table) -> pa.Table:
        return stream_docs(fixture, self.seed, SINK_PAGES)

    def prepare(self) -> None:
        from ocr_lib_ray.config import DEFAULT_CONFIG

        super().prepare()
        self.num_partitions = DEFAULT_CONFIG.num_partitions
        pids = list(range(self.num_partitions))
        self.undone = sorted(
            random.Random(f"resume:{self.seed}").sample(pids, self.num_partitions // 2)
        )

    def check_sink(self, out_dir: str, res: dict, skipped: int) -> list:
        from ocr_lib_ray.stages.manifest import validate_job

        errs = []
        P = self.num_partitions
        if res != {"partitions_written": P - skipped, "partitions_skipped": skipped}:
            errs.append(f"partition counts {res}, expected {P - skipped} written + {skipped} skipped")
        audit = validate_job(out_dir)
        if audit["partitions"] != P or audit["invalid"]:
            errs.append(f"validate_job {audit}")
        data = os.path.join(out_dir, "data")
        tables = [
            pq.read_table(os.path.join(data, d, f"part-{d.split('=')[1]}.parquet"), columns=["url", "text"])
            for d in sorted(os.listdir(data))
        ]
        if self.check(pa.concat_tables(tables)):
            errs.append("union of partitions differs from golden")
        return errs

    def run_once(self) -> Outcome:
        import ray.data as rd

        import ocr_lib_ray.pipelines.extract as pe

        self.iteration += 1
        out_dir = os.path.join(self.run_dir, "sink", f"iter-{self.iteration}")
        shutil.rmtree(os.path.dirname(out_dir), ignore_errors=True)
        o = Outcome(docs=self.n_docs, ops=2)
        for phase, skipped in (("fresh_write", 0), ("resume", self.num_partitions // 2)):
            if phase == "resume":
                for pid in self.undone:
                    os.remove(os.path.join(out_dir, "manifest", f"part-{pid}.parquet"))
            t0 = time.perf_counter()
            res = pe.write_with_manifest(
                pe.extract_pipeline(rd.read_parquet(self.pages_dir)), out_dir
            )
            t1 = time.perf_counter()
            o.seconds[phase] = t1 - t0
            o.wall += t1 - t0
            if phase == "resume":
                o.windows.append((t0, t1))
            errs = self.check_sink(out_dir, res, skipped)
            if errs:
                o.failed += 1
                o.errors.append(f"{phase}: " + "; ".join(errs))
                break
        return o


class DedupWorkload:
    """The DEDUP_QUERIES entries of queries() over a generated sf dir,
    hash-compared with their DuckDB oracle_sql()."""

    headline = "chain"

    def __init__(self, name: str, run_dir: str, seed: int):
        self.name, self.run_dir, self.seed = name, run_dir, seed
        self.sf_dir = os.path.join(run_dir, "sf")

    def materialize(self, fixture: pa.Table) -> dict:
        docs = dedup_docs(fixture, self.seed)
        shutil.rmtree(self.sf_dir, ignore_errors=True)
        os.makedirs(self.sf_dir)
        pq.write_table(docs, os.path.join(self.sf_dir, "documents.parquet"))
        self.n_docs = docs.num_rows
        return fingerprint(docs, ["doc_id", "text"])

    def prepare(self) -> None:
        """Oracle hashes, computed once per run with DuckDB (untimed)."""
        import duckdb

        import __ray_entry__ as entry
        from tools.check_oracles import norm_df, value_hash

        self.queries = entry.queries()
        sql = entry.oracle_sql()
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM read_parquet("
            f"'{os.path.join(self.sf_dir, 'documents.parquet')}')"
        )
        self.oracle = {}
        for q in DEDUP_QUERIES:
            want = norm_df(con.execute(sql[q]).df())
            self.oracle[q] = (len(want), sorted(want.columns), value_hash(want))
        con.close()

    def check(self, q: str, df) -> bool:
        from tools.check_oracles import norm_df, value_hash

        got = norm_df(df)
        return (len(got), sorted(got.columns), value_hash(got)) == self.oracle[q]

    def run_once(self) -> Outcome:
        o = Outcome(docs=self.n_docs, ops=len(DEDUP_QUERIES))
        results = {}
        t0 = time.perf_counter()
        for q in DEDUP_QUERIES:
            tq = time.perf_counter()
            results[q] = self.queries[q](self.sf_dir).to_pandas()
            o.seconds[q] = time.perf_counter() - tq
        o.seconds["chain"] = o.wall = time.perf_counter() - t0
        for q, df in results.items():
            if not self.check(q, df):
                o.failed += 1
                o.errors.append(f"{q}: result hash differs from oracle_sql()")
        return o


WORKLOADS = {
    "extract_stream": ExtractWorkload,
    "extract_large": LargeExtractWorkload,
    "sink_resume": SinkResumeWorkload,
    "dedup_exchange": DedupWorkload,
}


def make(name: str, run_dir: str, seed: int):
    return WORKLOADS[name](name, run_dir, seed)
