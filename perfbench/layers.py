"""Metric registry and the per-layer metrics of a traced run.

``END_TO_END`` and ``LAYERS`` are the metrics ``BENCHMARK.json`` lists
(the self-test keeps the two in step).  Each layer metric names the
module it measures and the prediction written down before measuring:
which end-to-end metric it should move, on which workload.

Per-layer values are per timed unit (one job, or one fresh write plus
resume, or one query chain), averaged over the traced units.  Span
times come from :mod:`perfbench.spans`; Ray task counts and task time
from ``ray.timeline()`` events inside the traced units.
"""

from __future__ import annotations

import statistics

#: (name, unit, better)
END_TO_END = [
    ("docs_per_s", "docs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: (name, unit, better, layer, prediction)
LAYERS = [
    ("tokenizer.self_s", "s", "lower", "kernel.tokenizer", "docs_per_s on extract_stream most; extract_large little (long text runs); dedup_exchange none"),
    ("tokenizer.chunked_s", "s", "lower", "kernel.tokenizer", "docs_per_s on extract_large (pages past giant_threshold)"),
    ("tokenizer.mb", "MB", "lower", "kernel.tokenizer", "work count, no prediction"),
    ("segment.self_s", "s", "lower", "kernel.segment", "docs_per_s on extract_large most (per-byte text work), then extract_stream"),
    ("segment.blocks", "count", "lower", "kernel.segment", "work count, no prediction"),
    ("pdf.self_s", "s", "lower", "kernel.pdf", "docs_per_s on extract_stream"),
    ("pdf.docs", "count", "lower", "kernel.pdf", "work count, no prediction"),
    ("extract.decode_s", "s", "lower", "kernel.extract", "docs_per_s on extract_stream"),
    ("extract.assemble_s", "s", "lower", "kernel.extract", "docs_per_s on extract_stream"),
    ("extract_stage.arrow_s", "s", "lower", "stages.extract_stage", "docs_per_s on extract_stream; barely extract_large"),
    ("partition.meta_s", "s", "lower", "stages.partition", "docs_per_s on extract_stream"),
    ("ray.tasks", "count", "lower", "pipelines.extract/Ray Data", "docs_per_s on extract_stream and dedup_exchange"),
    ("ray.task_cpu_s", "s", "lower", "pipelines.extract/Ray Data", "docs_per_s on extract_stream and dedup_exchange"),
    ("ray.overhead_s", "s", "lower", "pipelines.extract/Ray Data", "docs_per_s on extract_stream and dedup_exchange"),
    ("ray.overhead_share", "ratio", "lower", "pipelines.extract/Ray Data", "docs_per_s on extract_stream and dedup_exchange"),
    ("manifest.sort_exchange_s", "s", "lower", "stages.manifest", "docs_per_s on sink_resume"),
    ("manifest.write_s", "s", "lower", "stages.manifest", "docs_per_s on sink_resume"),
    ("manifest.checksum_s", "s", "lower", "stages.manifest", "docs_per_s on sink_resume"),
    ("manifest.bytes", "B", "lower", "stages.manifest", "docs_per_s on sink_resume"),
    ("manifest.scan_s", "s", "lower", "stages.manifest", "resume_s on sink_resume"),
    ("resume.docs_extracted", "count", "lower", "stages.manifest", "resume_s on sink_resume"),
    ("resume.useful_ratio", "ratio", "higher", "stages.manifest", "resume_s on sink_resume"),
    ("exchange.calls", "count", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.split_s", "s", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.merge_s", "s", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.group_s", "s", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.driver_wait_s", "s", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.rows", "count", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.bytes", "B", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange; 0 on extract_*"),
    ("exchange.bucket_bytes_max", "B", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange (skew)"),
    ("exchange.bucket_bytes_p50", "B", "lower", "functions.bucket_tasks+joins", "docs_per_s on dedup_exchange (skew)"),
    ("sort_shuffle.calls", "count", "lower", "Ray Data sort shuffle", "docs_per_s on dedup_exchange and sink_resume"),
    ("sort_shuffle.s", "s", "lower", "Ray Data sort shuffle", "docs_per_s on dedup_exchange and sink_resume"),
    ("dedup.minhash_sig_s", "s", "lower", "functions.dedup", "docs_per_s on dedup_exchange"),
    ("dedup.band_rows_s", "s", "lower", "functions.dedup", "docs_per_s on dedup_exchange"),
    ("dedup.lsh_verify_s", "s", "lower", "functions.dedup", "docs_per_s on dedup_exchange"),
    ("dedup.lsh_candidates", "count", "lower", "functions.dedup", "docs_per_s on dedup_exchange"),
    ("dedup.lsh_pairs", "count", "lower", "functions.dedup", "docs_per_s on dedup_exchange"),
    ("dedup.lsh_useful_ratio", "ratio", "higher", "functions.dedup", "docs_per_s on dedup_exchange"),
    ("text_stats.fingerprint_s", "s", "lower", "functions.text_stats", "docs_per_s on dedup_exchange"),
    ("linedup.line_rows", "count", "lower", "functions.linedup", "docs_per_s on dedup_exchange"),
    ("trace.wall_s", "s", "lower", "benchmark", "traced wall per unit (reconciliation base)"),
    ("trace.unattributed_s", "s", "lower", "benchmark", "task time no layer span covers (read, Ray block handling)"),
    ("trace.accounted_share", "ratio", "higher", "benchmark", "(worker layer self times + ray.overhead_s) / (wall x CPUs)"),
    ("trace.overhead_share", "ratio", "lower", "benchmark", "cost of recording: traced / untraced wall per unit - 1, wrappers installed in both"),
]

#: Ray task names (suffixes) of the raw two-wave exchange's waves
SPLIT_TASKS = ("bucket_tasks.split", "bucket_tasks.merge_all")
MERGE_TASKS = ("bucket_tasks.merge",)
GROUP_TASKS = ("joins.run_group", "joins.empty_out")


def _task_events(events: list, windows: list) -> list:
    """Ray task executions (``task::`` events) that started inside one of
    ``windows`` ((start, end) in epoch seconds)."""
    us = [(a * 1e6, b * 1e6) for a, b in windows]
    return [
        e
        for e in events
        if e.get("ph") == "X"
        and str(e.get("cat", "")).startswith("task::")
        and any(a <= e["ts"] <= b for a, b in us)
    ]


def per_layer(spans, events, windows, units, walls, untraced_walls, ncpu, driver_pid, resume_windows):
    """The LAYERS metrics of one traced phase.

    ``spans``: tuples from :func:`perfbench.spans.load` plus the driver's;
    ``events``: ``ray.timeline()``; ``windows``: (start, end) epoch seconds
    of each traced unit; ``units``: the number of traced units; ``walls`` /
    ``untraced_walls``: timed seconds per unit with and without tracing;
    ``resume_windows``: perf_counter (start, end) of each resumed job.
    """
    n = max(units, 1)
    by: dict = {}
    for s in spans:
        by.setdefault(s[1], []).append(s)

    def self_s(*names):
        return sum(s[6] for nm in names for s in by.get(nm, ())) / n

    def dur(nm):
        return sum(s[5] - s[4] for s in by.get(nm, ())) / n

    def counts(nm):
        return [s[7] for s in by.get(nm, ())]

    def in_resume(s):
        return any(a <= s[4] <= b for a, b in resume_windows)

    tasks = _task_events(events, windows)

    def task_s(suffixes):
        return sum(e["dur"] for e in tasks if e["name"].endswith(suffixes)) / 1e6 / n

    wall = sum(walls) / n
    task_cpu = sum(e["dur"] for e in tasks) / 1e6 / n
    overhead = wall * ncpu - task_cpu
    worker_self = sum(s[6] for s in spans if s[0] != driver_pid) / n

    sinks = [(s[4], s[5]) for s in by.get("manifest.write_with_manifest", ())]
    sort_in_sink = sum(
        s[5] - s[4]
        for s in by.get("sort_shuffle.execute", ())
        if any(a <= s[4] and s[5] <= b for a, b in sinks)
    ) / n

    resumed = [s for s in by.get("extract_stage.extract_batch", ()) if in_resume(s)]
    docs_extracted = sum(s[7] for s in resumed) / n
    kept = sum(s[7][0] for s in by.get("manifest.write_partition", ()) if in_resume(s)) / n

    buckets: dict = {}
    for tag, _rows, _bytes, sizes in counts("exchange.split"):
        acc = buckets.setdefault(tag, [0] * len(sizes))
        for i, b in enumerate(sizes):
            acc[i] += b
    pooled = [b for acc in buckets.values() for b in acc]

    band = counts("dedup.pairs_from_band")
    candidates = sum(c for c, _ in band) / n
    pairs = sum(p for _, p in band) / n

    values = {
        "tokenizer.self_s": self_s("tokenizer.tokenize"),
        "tokenizer.chunked_s": self_s("tokenizer.tokenize_chunked"),
        "tokenizer.mb": sum(counts("tokenizer.tokenize") + counts("tokenizer.tokenize_chunked")) / 1e6 / n,
        "segment.self_s": self_s("segment.segment"),
        "segment.blocks": sum(counts("segment.segment")) / n,
        "pdf.self_s": self_s("pdf.extract_pdf"),
        "pdf.docs": len(by.get("pdf.extract_pdf", ())) / n,
        "extract.decode_s": self_s("extract.decode"),
        "extract.assemble_s": self_s("extract.extract_document"),
        "extract_stage.arrow_s": self_s("extract_stage.extract_batch"),
        "partition.meta_s": self_s("partition.add_partition_meta"),
        "ray.tasks": len(tasks) / n,
        "ray.task_cpu_s": task_cpu,
        "ray.overhead_s": overhead,
        "ray.overhead_share": overhead / (wall * ncpu) if wall else 0.0,
        "manifest.sort_exchange_s": sort_in_sink,
        "manifest.write_s": self_s("manifest.write_partition"),
        "manifest.checksum_s": self_s("manifest.checksum"),
        "manifest.bytes": sum(c[1] for c in counts("manifest.write_partition")) / n,
        "manifest.scan_s": self_s("manifest.completed_partitions"),
        "resume.docs_extracted": docs_extracted,
        "resume.useful_ratio": kept / docs_extracted if docs_extracted else 0.0,
        "exchange.calls": len(by.get("exchange.exchange_to_bucket_refs", ())) / n,
        "exchange.split_s": task_s(SPLIT_TASKS),
        "exchange.merge_s": task_s(MERGE_TASKS),
        "exchange.group_s": task_s(GROUP_TASKS),
        "exchange.driver_wait_s": self_s("exchange.ray_get"),
        "exchange.rows": sum(c[1] for c in counts("exchange.split")) / n,
        "exchange.bytes": sum(c[2] for c in counts("exchange.split")) / n,
        "exchange.bucket_bytes_max": float(max(pooled)) if pooled else 0.0,
        "exchange.bucket_bytes_p50": float(statistics.median(pooled)) if pooled else 0.0,
        "sort_shuffle.calls": len(by.get("sort_shuffle.execute", ())) / n,
        "sort_shuffle.s": dur("sort_shuffle.execute"),
        "dedup.minhash_sig_s": self_s("dedup.minhash_signature"),
        "dedup.band_rows_s": self_s("dedup.minhash_band_rows"),
        "dedup.lsh_verify_s": self_s("dedup.pairs_from_band"),
        "dedup.lsh_candidates": candidates,
        "dedup.lsh_pairs": pairs,
        "dedup.lsh_useful_ratio": pairs / candidates if candidates else 0.0,
        "text_stats.fingerprint_s": self_s("text_stats.fingerprint_batch"),
        "linedup.line_rows": sum(counts("linedup.line_df_partials")) / n,
        "trace.wall_s": wall,
        "trace.unattributed_s": task_cpu - worker_self,
        "trace.accounted_share": (worker_self + overhead) / (wall * ncpu) if wall else 0.0,
        "trace.overhead_share": (
            statistics.median(walls) / statistics.median(untraced_walls) - 1.0
            if walls and untraced_walls
            else 0.0
        ),
    }
    assert set(values) == {m[0] for m in LAYERS}
    return values
