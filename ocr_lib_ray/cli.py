"""Job entrypoint for ``ray job submit`` (north_rule: runs via ray job
submit on fixed-size clusters).

Usage (cluster):
    ray job submit --working-dir . -- \
        python -m ocr_lib_ray.cli extract --input <pages-parquet-dir> \
            --output /data/out --partitions 256 --resume

Usage (local sandbox):
    python -m ocr_lib_ray.cli extract --sf-dir /root/testdata/sf0.001 \
        --output /tmp/out

``--input`` reads a real pages table (input_hint schema);
``--sf-dir`` synthesizes the deterministic fixture pages from the
documents table instead.  Exactly one of the two is required.

This is the only module besides bench.py/tests that owns a Ray session.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="ocr_lib_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    ex = sub.add_parser("extract", help="run the extraction job")
    ex.add_argument("--input", help="pages parquet dir (url, warc_ts, html, text, lang)")
    ex.add_argument("--sf-dir", help="testdata dir; synthesize fixture pages")
    ex.add_argument("--output", required=True, help="job output root")
    ex.add_argument("--partitions", type=int, default=16)
    ex.add_argument("--repeat", type=int, default=1)
    ex.add_argument("--resume", action="store_true", default=True)
    ex.add_argument("--no-resume", dest="resume", action="store_false")
    va = sub.add_parser("validate", help="audit a job's partitions against its manifests")
    va.add_argument("--output", required=True, help="job output root to audit")
    cc = sub.add_parser(
        "clean", help="corpus-clean job: extract → dedup → quality gate → parquet"
    )
    cc.add_argument("--input", help="pages parquet dir (url, warc_ts, html, text, lang)")
    cc.add_argument("--sf-dir", help="testdata dir; synthesize fixture pages")
    cc.add_argument("--output", required=True, help="surviving-docs parquet dir")
    cc.add_argument("--min-chars", type=int, default=40)
    cc.add_argument(
        "--overwrite",
        action="store_true",
        help="wipe a non-empty --output even without a prior-run marker",
    )
    rp = sub.add_parser(
        "report",
        help="one-pass corpus dashboard over the extracted docs "
        "(per-group doc/token/empty counts — run before and after a "
        "filter stage)",
    )
    rp.add_argument("--input", help="pages parquet dir (url, warc_ts, html, text, lang)")
    rp.add_argument("--sf-dir", help="testdata dir; synthesize fixture pages")
    rp.add_argument(
        "--group-cols",
        default="lang",
        help="comma-separated group columns of the extracted docs (default: lang)",
    )
    td = sub.add_parser(
        "training-data",
        help="full 8-operator pipeline: extract → redact → line-dedup → "
        "exact-dedup → quality gate → chunk → pack → parquet",
    )
    td.add_argument("--input", help="pages parquet dir (url, warc_ts, html, text, lang)")
    td.add_argument("--sf-dir", help="testdata dir; synthesize fixture pages")
    td.add_argument("--output", required=True, help="packed-sequences parquet dir")
    td.add_argument("--partitions", type=int, default=16)
    td.add_argument(
        "--checkpoint-dir",
        help="extraction checkpoint dir (recommended beyond toy scale: the "
        "dedup key passes re-read parquet instead of re-parsing HTML)",
    )
    td.add_argument(
        "--overwrite",
        action="store_true",
        help="wipe a non-empty --output even without a prior-run marker",
    )
    td.add_argument(
        "--line-max-df",
        type=int,
        default=1,
        help="C4 line-dedup document-frequency threshold (raise above the "
        "expected duplicate multiplicity on dup-heavy corpora)",
    )
    cu = sub.add_parser(
        "curate",
        help="curate an EXTRACTED corpus (documents schema): blocklist "
        "filter → keep-best normalized dedup → token-budget mixture → "
        "deterministic shard shuffle → shard-partitioned parquet",
    )
    cu.add_argument(
        "--input", help="documents dir/file (doc_id, text, source, n_chars)"
    )
    cu.add_argument(
        "--input-format",
        default="parquet",
        choices=["parquet", "jsonl", "csv"],
        help="storage format of --input (parquet prunes columns at the "
        "read; jsonl/csv project in the first map pass)",
    )
    cu.add_argument("--sf-dir", help="testdata dir; use its documents.parquet")
    cu.add_argument("--output", required=True, help="shard-partitioned parquet dir")
    cu.add_argument(
        "--blocklist",
        default="spark,slow query,dup",
        help="comma-separated blocked terms/phrases (word-boundary match)",
    )
    cu.add_argument(
        "--budgets",
        default="",
        help="per-source token budgets as src=tokens[,src=tokens...]; "
        "unlisted sources are kept whole",
    )
    cu.add_argument("--shards", type=int, default=16)
    cu.add_argument(
        "--quality-gate",
        action="store_true",
        help="apply the Gopher STRUCTURAL quality rules (language-"
        "neutral subset — no stop-word rule) before the dedup",
    )
    cu.add_argument(
        "--ppl-gate",
        action="store_true",
        help="apply the CCNet perplexity gate before the dedup: train "
        "a bigram LM on the blocklist survivors and drop the worst "
        "per-language perplexity tercile (keeps head+middle); needs a "
        "lang column on the input",
    )
    cu.add_argument(
        "--checkpoint-dir",
        help="deduped-survivors checkpoint (recommended beyond toy scale: "
        "the budget stage's two passes re-read parquet instead of "
        "re-running filter+dedup)",
    )
    cp = sub.add_parser(
        "compact",
        help="compact a parquet dir's many small files into "
        "--target-files (content-preserving; footer row counts "
        "validated before reporting success)",
    )
    cp.add_argument("--input", required=True, help="parquet dir to compact")
    cp.add_argument("--output", required=True, help="compacted parquet dir")
    cp.add_argument("--target-files", type=int, default=16)
    cp.add_argument(
        "--overwrite",
        action="store_true",
        help="wipe a non-empty --output even without a prior-run marker",
    )
    tk = sub.add_parser(
        "tokenize",
        help="train a frequency-ranked vocabulary on an EXTRACTED "
        "corpus (documents schema) and encode it: writes vocab.parquet "
        "+ shard-partitioned (doc_id, pos, token_id) parquet (OOV -1)",
    )
    tk.add_argument("--input", help="documents dir/file (doc_id, text)")
    tk.add_argument(
        "--input-format",
        default="parquet",
        choices=["parquet", "jsonl", "csv"],
        help="storage format of --input",
    )
    tk.add_argument("--sf-dir", help="testdata dir; use its documents.parquet")
    tk.add_argument("--output", required=True, help="output dir")
    tk.add_argument("--max-vocab", type=int, default=4096)
    tk.add_argument("--shards", type=int, default=16)
    tk.add_argument(
        "--overwrite",
        action="store_true",
        help="wipe a non-empty --output even without a prior-run marker",
    )
    cu.add_argument(
        "--overwrite",
        action="store_true",
        help="wipe a non-empty --output even without a prior-run marker",
    )
    args = p.parse_args(argv)

    if args.cmd == "validate":
        from .stages.manifest import validate_job

        result = validate_job(args.output)
        print(json.dumps(result))
        return 0 if not result["invalid"] else 1

    if args.cmd == "compact":
        import glob

        import pyarrow.parquet as pqt_

        import ray

        owns_session = not ray.is_initialized()
        if owns_session:
            ray.init(logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        import time as _t

        from .sources.tables import read_table
        from .stages.manifest import safe_wipe_output

        t0 = _t.time()
        in_files = glob.glob(f"{args.input}/**/*.parquet", recursive=True)
        in_rows = sum(pqt_.ParquetFile(f).metadata.num_rows for f in in_files)
        safe_wipe_output(args.output, overwrite=args.overwrite)
        read_table(args.input).repartition(args.target_files).write_parquet(
            args.output
        )
        out_files = glob.glob(f"{args.output}/**/*.parquet", recursive=True)
        out_rows = sum(pqt_.ParquetFile(f).metadata.num_rows for f in out_files)
        ok = out_rows == in_rows
        print(
            json.dumps(
                {
                    "rows_in": in_rows,
                    "rows_out": out_rows,
                    "files_in": len(in_files),
                    "files_out": len(out_files),
                    "row_counts_match": ok,
                    "wall_sec": round(_t.time() - t0, 3),
                }
            )
        )
        if owns_session:
            ray.shutdown()
        return 0 if ok else 1

    if bool(args.input) == bool(args.sf_dir):
        p.error("exactly one of --input / --sf-dir is required")

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(logging_level="ERROR")  # on a cluster: RAY_ADDRESS from env
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .config import ExtractConfig
    from .pipelines.extract import (
        build_pages_dataset,
        extract_pipeline,
        write_with_manifest,
    )
    from .sources.tables import read_table

    t0 = time.time()
    if args.cmd == "curate":
        # curation consumes the DOCUMENTS schema directly (an already-
        # extracted corpus), not fixture pages
        from .pipelines.curate import curate_corpus
        from .stages.manifest import safe_wipe_output

        from .sources.text_files import read_documents

        docs_path = args.input or f"{args.sf_dir}/documents.parquet"
        doc_cols = ["doc_id", "text", "source", "n_chars"]
        if args.ppl_gate:
            doc_cols.append("lang")
        docs = read_documents(
            docs_path,
            format=args.input_format if args.input else "parquet",
            columns=doc_cols,
        )
        budgets = {}
        if args.budgets:
            for kv in args.budgets.split(","):
                k, v = kv.split("=", 1)
                budgets[k.strip()] = float(v)
        terms = [t.strip() for t in args.blocklist.split(",") if t.strip()]
        safe_wipe_output(args.output, overwrite=args.overwrite)
        from .pipelines.curate import GOPHER_STRUCTURAL

        curated = curate_corpus(
            docs,
            terms,
            budgets,
            num_shards=args.shards,
            checkpoint_dir=args.checkpoint_dir,
            overwrite=args.overwrite,
            quality_rules=GOPHER_STRUCTURAL if args.quality_gate else None,
            ppl_keep=("head", "middle") if args.ppl_gate else None,
        )
        curated.write_parquet(args.output, partition_cols=["shard"])

        import glob

        import pyarrow.parquet as pqt

        rows = sum(
            pqt.ParquetFile(f).metadata.num_rows
            for f in glob.glob(f"{args.output}/**/*.parquet", recursive=True)
        )
        print(
            json.dumps(
                {
                    "rows": rows,
                    "shards": args.shards,
                    "wall_sec": round(time.time() - t0, 3),
                }
            )
        )
        if owns_session:
            ray.shutdown()
        return 0

    if args.cmd == "tokenize":
        import pyarrow as pa_

        from .functions.joins import run_bucket_groups
        from .functions.tokens import build_vocab, encode_docs, vocab_frame
        from .sources.text_files import read_documents
        from .stages.manifest import safe_wipe_output

        docs_path = args.input or f"{args.sf_dir}/documents.parquet"
        docs = read_documents(
            docs_path,
            format=args.input_format if args.input else "parquet",
            columns=["doc_id", "text"],
        )
        safe_wipe_output(args.output, overwrite=args.overwrite)
        vocab = build_vocab(docs, max_vocab=args.max_vocab)
        vdf = vocab_frame(vocab)
        import pyarrow.parquet as pqt_

        import os

        os.makedirs(f"{args.output}/vocab", exist_ok=True)
        pqt_.write_table(
            pa_.Table.from_pandas(vdf, preserve_index=False),
            f"{args.output}/vocab/vocab.parquet",
        )
        enc = encode_docs(docs, max_vocab=args.max_vocab, vocab_df=vdf)

        def add_shard(b):
            import numpy as np_

            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            shard = (ids % args.shards).astype(np_.int32)
            return b.append_column("shard", pa_.array(shard))

        # group by shard BEFORE the partitioned write (the
        # shuffle_shards layout discipline): write_parquet emits one
        # file per (block, partition) pair, so shard-grouped blocks
        # give exactly one file per shard instead of per-block shrapnel
        run_bucket_groups(
            enc.map_batches(add_shard, batch_format="pyarrow"),
            args.shards,
            lambda g: g,
            batch_format="pyarrow",
            bucket_col_name="shard",
        ).write_parquet(f"{args.output}/encoded", partition_cols=["shard"])
        import glob

        rows = sum(
            pqt_.ParquetFile(f).metadata.num_rows
            for f in glob.glob(f"{args.output}/encoded/**/*.parquet", recursive=True)
        )
        print(
            json.dumps(
                {
                    "rows": rows,
                    "vocab_size": int(len(vdf)),
                    "shards": args.shards,
                    "wall_sec": round(time.time() - t0, 3),
                }
            )
        )
        if owns_session:
            ray.shutdown()
        return 0

    if args.input:
        pages = read_table(args.input)
    else:
        pages = build_pages_dataset(args.sf_dir, repeat=getattr(args, "repeat", 1))

    def _written_rows(out_dir: str) -> int:
        # row count from the written footers (metadata-only) — counting
        # the Dataset after write_parquet would re-execute the pipeline
        import glob
        import pyarrow.parquet as pqt

        return sum(
            pqt.ParquetFile(f).metadata.num_rows
            for f in glob.glob(f"{out_dir}/**/*.parquet", recursive=True)
        )

    if args.cmd in ("clean", "training-data"):
        # write_parquet APPENDS into an existing dir: a rerun into the
        # same --output would silently double the corpus, so wipe first
        # (these jobs have no per-partition manifests; rerun = rewrite).
        # Guarded: refuses to destroy a non-empty dir that is not a
        # prior run of ours unless --overwrite is given.
        from .stages.manifest import safe_wipe_output

        safe_wipe_output(args.output, overwrite=args.overwrite)

    if args.cmd == "clean":
        from .pipelines.corpus import clean_corpus

        clean_corpus(pages, min_chars=args.min_chars).write_parquet(args.output)
        print(
            json.dumps(
                {"rows": _written_rows(args.output), "wall_sec": round(time.time() - t0, 3)}
            )
        )
        if owns_session:
            ray.shutdown()
        return 0
    if args.cmd == "training-data":
        from .pipelines.corpus import build_training_data

        # hive layout by pack partition: a rerun can skip finished
        # partition dirs (resumable-output discipline)
        build_training_data(
            pages,
            ExtractConfig(num_partitions=args.partitions),
            checkpoint_dir=args.checkpoint_dir,
            line_max_df=args.line_max_df,
            overwrite=args.overwrite,
        ).write_parquet(args.output, partition_cols=["partition_id"])
        print(
            json.dumps(
                {"rows": _written_rows(args.output), "wall_sec": round(time.time() - t0, 3)}
            )
        )
        if owns_session:
            ray.shutdown()
        return 0

    if args.cmd == "report":
        from .functions.text_stats import corpus_report

        docs = extract_pipeline(pages, ExtractConfig())
        groups = (
            corpus_report(docs, group_cols=args.group_cols.split(","))
            .to_pandas()
            .sort_values(args.group_cols.split(","))
            .to_dict("records")
        )
        print(
            json.dumps(
                {"groups": groups, "wall_sec": round(time.time() - t0, 3)}
            )
        )
        if owns_session:
            ray.shutdown()
        return 0

    cfg = ExtractConfig(num_partitions=args.partitions)
    extracted = extract_pipeline(pages, cfg)
    stats = write_with_manifest(extracted, args.output, resume=args.resume)
    stats["wall_sec"] = round(time.time() - t0, 3)
    print(json.dumps(stats))
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
