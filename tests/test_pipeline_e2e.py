"""End-to-end golden conformance (analog of the read-image-fn golden
string test, core_test.clj:3225-3238): the distributed pipeline must be
byte-identical to the single-threaded kernel at every parallelism."""

import shutil

import pyarrow.parquet as pq
import pytest

from ocr_lib_ray.config import ExtractConfig
from ocr_lib_ray.sources.pages import golden_text, page_url


def golden_map(sf_dir):
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    return {
        page_url(d, s): golden_text(d, t)
        for d, t, s in zip(
            docs.column("doc_id").to_pylist(),
            docs.column("text").to_pylist(),
            docs.column("source").to_pylist(),
        )
    }


@pytest.mark.usefixtures("ray_session")
def test_pipeline_matches_frozen_golden(sf_small):
    """The conformance anchor: distributed pipeline output must equal
    the COMMITTED golden parquet (generated once by the single-threaded
    kernel via tools/make_golden.py and frozen — the reference's
    golden-fixture discipline, core_test.clj:3225-3238).  Catches any
    silent semantic drift of kernel or pipeline."""
    import os

    import pyarrow.parquet as pq2

    from ocr_lib_ray.pipelines.extract import build_pages_dataset, extract_pipeline

    golden = pq2.read_table(
        os.path.join(os.path.dirname(__file__), "golden_sf0001.parquet")
    )
    out = (
        extract_pipeline(
            build_pages_dataset(sf_small), ExtractConfig(keep_residual_texts=True)
        )
        .to_pandas()
        .set_index("url")
    )
    g = golden.to_pandas().set_index("url")
    assert set(out.index) == set(g.index)
    out = out.loc[g.index]
    # the FULL extraction surface is frozen: text, title, kind, spans,
    # residual ids AND residual texts
    assert (out["text"] == g["text"]).all()
    assert (out["title"] == g["title"]).all()
    assert (out["doc_kind"] == g["doc_kind"]).all()
    assert out["spans"].map(repr).equals(g["spans"].map(repr))
    assert out["residuals"].map(list).equals(g["residuals"].map(list))
    assert out["residual_texts"].map(list).equals(g["residual_texts"].map(list))


@pytest.mark.usefixtures("ray_session")
def test_pipeline_matches_golden(sf_small):
    from ocr_lib_ray.pipelines.extract import build_pages_dataset, extract_pipeline

    out = extract_pipeline(build_pages_dataset(sf_small)).to_pandas()
    gold = golden_map(sf_small)
    assert len(out) == len(gold)
    for url, text in zip(out["url"], out["text"]):
        assert text == gold[url], url


@pytest.mark.usefixtures("ray_session")
def test_pipeline_batchsize_invariance(sf_small):
    """Output must not depend on batch composition (the reference's
    per-thread residual cap violates this; ours must not): the same
    pages cut into 1, 7 and 64 blocks extract identically."""
    from ocr_lib_ray.pipelines.extract import build_pages_dataset, extract_pipeline

    pages = build_pages_dataset(sf_small).materialize()
    a, b, c = (
        extract_pipeline(pages.repartition(n))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
        for n in (1, 7, 64)
    )
    for other in (b, c):
        assert (a["url"] == other["url"]).all()
        assert (a["text"] == other["text"]).all()
        assert a["spans"].map(repr).equals(other["spans"].map(repr))


def test_extract_batch_bounds_rows_per_call(sf_small, monkeypatch):
    """A block of any size is converted ``ROWS_PER_SLICE`` rows at a time
    (the Python-side results one call holds), and the output is the same
    as converting the whole block at once."""
    from ocr_lib_ray.sources.pages import synthesize_pages_batch
    from ocr_lib_ray.stages import extract_stage

    docs = pq.read_table(
        f"{sf_small}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = synthesize_pages_batch(docs)
    whole = extract_stage.extract_batch(pages)
    rows = []
    convert = extract_stage._extract_rows
    monkeypatch.setattr(extract_stage, "ROWS_PER_SLICE", 64)
    monkeypatch.setattr(
        extract_stage,
        "_extract_rows",
        lambda b, cfg, tags: rows.append(b.num_rows) or convert(b, cfg, tags),
    )
    sliced = extract_stage.extract_batch(pages)
    assert max(rows) == 64 and sum(rows) == pages.num_rows
    assert sliced.equals(whole)
    assert extract_stage.extract_batch(pages.slice(0, 0)).schema == whole.schema


@pytest.mark.usefixtures("ray_session")
def test_read_fuses_into_extraction(sf_small, tmp_path):
    """Extraction takes each input block as it is read: over an unsplit
    read (one block per file) the plan is one fused
    ReadParquet->...->MapBatches(extract_batch) operator, and there is
    one output block per input block."""
    import ray.data as rd

    from ocr_lib_ray.pipelines.extract import extract_pipeline
    from ocr_lib_ray.sources.pages import synthesize_pages_batch

    docs = pq.read_table(
        f"{sf_small}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = synthesize_pages_batch(docs)
    files = 3
    step = -(-pages.num_rows // files)
    for i in range(files):
        pq.write_table(pages.slice(i * step, step), str(tmp_path / f"part-{i}.parquet"))
    out = extract_pipeline(
        rd.read_parquet(str(tmp_path), override_num_blocks=files)
    ).materialize()
    ops = [
        line.split(":")[0].split(" ", 2)[2]
        for line in out.stats().splitlines()
        if line.startswith("Operator ")
    ]
    assert len(ops) == 1, ops
    assert ops[0].startswith("ReadParquet->")
    assert ops[0].endswith("->MapBatches(extract_batch)")
    assert out.num_blocks() == files
    assert out.count() == pages.num_rows


@pytest.mark.usefixtures("ray_session")
def test_actor_pool_with_bundle_equivalent(sf_small):
    """bundle_ref path (actor pool, state fetched once per actor) must
    produce identical output to the stateless-task path."""
    from ocr_lib_ray.pipelines.extract import build_pages_dataset, extract_pipeline

    from ocr_lib_ray.state.bundle import broadcast_bundle, build_bundle

    ref = broadcast_bundle(build_bundle())
    # a re-taught bundle actually changes classification: marking
    # <article> as boilerplate kills all fixture main content
    ref2 = broadcast_bundle(build_bundle(extra_boilerplate=["article"]))
    taught = extract_pipeline(build_pages_dataset(sf_small), bundle_ref=ref2).to_pandas()
    html_rows = taught[taught["doc_kind"] == "html"]
    assert (html_rows["text"] == "").all()  # article subtree rejected everywhere
    a = (
        extract_pipeline(build_pages_dataset(sf_small), bundle_ref=ref)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        extract_pipeline(build_pages_dataset(sf_small))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert (a["url"] == b["url"]).all()
    assert (a["text"] == b["text"]).all()


@pytest.mark.usefixtures("ray_session")
def test_bundle_threshold_overrides(sf_small):
    """The bundle can re-teach classification THRESHOLDS (the reference's
    caller-threaded matching-value, core.clj:1772-1806), not just tag
    classes: a min_words override must change accept decisions
    pipeline-wide through the actor path, and a default bundle must
    leave output identical to the no-bundle path."""
    from ocr_lib_ray.pipelines.extract import build_pages_dataset, extract_pipeline
    from ocr_lib_ray.state.bundle import broadcast_bundle, build_bundle

    base = (
        extract_pipeline(build_pages_dataset(sf_small))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    strict_ref = broadcast_bundle(build_bundle(min_words=10_000))
    strict = (
        extract_pipeline(build_pages_dataset(sf_small), bundle_ref=strict_ref)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert (base["url"] == strict["url"]).all()
    changed = (base["text"] != strict["text"]).sum()
    assert changed > 0  # the override reached classify through the pool
    # strict text is always a (possibly equal) reduction of base text
    assert (
        strict["text"].str.len() <= base["text"].str.len()
    ).all()
    # residual_cap override flows too: cap 0 → no residuals anywhere
    nocap_ref = broadcast_bundle(build_bundle(min_words=10_000, residual_cap=0))
    nocap = extract_pipeline(build_pages_dataset(sf_small), bundle_ref=nocap_ref).to_pandas()
    assert nocap["residuals"].map(len).max() == 0
    assert strict["residuals"].map(len).max() > 0


@pytest.mark.usefixtures("ray_session")
def test_giant_page_through_pipeline():
    """A page above giant_threshold flows through the pipeline via the
    kernel's bounded chunked parse and matches the one-shot kernel."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.kernel import extract_document
    from ocr_lib_ray.pipelines.extract import extract_pipeline

    body = "<p>" + "lorem ipsum dolor sit amet " * 60000 + "</p>"  # ~1.6 MB
    html = ("<main>" + body + "</main>").encode()
    pages = rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(["https://x.test/giant"], pa.string()),
                pa.array([0], pa.timestamp("us")),
                pa.array([html], pa.binary()),
                pa.array([""], pa.string()),
                pa.array(["en"], pa.string()),
            ],
            names=["url", "warc_ts", "html", "text", "lang"],
        )
    )
    out = extract_pipeline(pages).to_pandas()
    want = extract_document(html)
    assert len(out) == 1
    assert out["text"][0] == want.text
    assert want.text.startswith("lorem ipsum")


@pytest.mark.usefixtures("ray_session")
def test_manifest_job_and_resume(sf_small, tmp_path):
    from ocr_lib_ray.pipelines.extract import run_extract_job
    from ocr_lib_ray.stages.manifest import completed_partitions

    out = str(tmp_path / "job")
    r1 = run_extract_job(sf_small, out, resume=True)
    assert r1["partitions_written"] > 0 and r1["partitions_skipped"] == 0
    done = completed_partitions(out)
    assert len(done) == r1["partitions_written"]
    import os

    def files():
        return {
            os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
            for d, _, fs in os.walk(out)
            for f in fs
        }

    # resume: everything already done → nothing rewritten; the sink's
    # group fn, probed once on an empty table to type the empty result,
    # must not write either
    before = files()
    r2 = run_extract_job(sf_small, out, resume=True)
    assert r2["partitions_written"] == 0
    assert r2["partitions_skipped"] == r1["partitions_written"]
    assert files() == before
    # partial resume: delete one manifest row → exactly one partition redone

    man = sorted(os.listdir(os.path.join(out, "manifest")))
    os.remove(os.path.join(out, "manifest", man[0]))
    r3 = run_extract_job(sf_small, out, resume=True)
    assert r3["partitions_written"] == 1


@pytest.mark.usefixtures("ray_session")
def test_manifest_sink_width_follows_blocks(sf_small, tmp_path, monkeypatch):
    """The manifest sink exchanges over one bucket per extracted block,
    not capped by the default job's partition count: a 24-partition job
    over ~32 blocks runs one exchange as wide as its block count, and
    every partition is written and valid."""
    import ocr_lib_ray.pipelines.extract as pe
    from ocr_lib_ray.config import DEFAULT_CONFIG, ExtractConfig
    from ocr_lib_ray.stages.manifest import validate_job

    widths = []
    exchange = pe.exchange_map_groups

    def spy(ds, key, fn, num_partitions=None, **kw):
        widths.append((num_partitions, ds.num_blocks()))
        return exchange(ds, key, fn, num_partitions, **kw)

    monkeypatch.setattr(pe, "exchange_map_groups", spy)
    cfg = ExtractConfig(num_partitions=24)
    pages = pe.build_pages_dataset(sf_small).repartition(32)
    out = str(tmp_path / "wide")
    r = pe.write_with_manifest(pe.extract_pipeline(pages, cfg), out)
    ((width, blocks),) = widths
    assert width == blocks > DEFAULT_CONFIG.num_partitions
    assert r == {"partitions_written": 24, "partitions_skipped": 0}
    audit = validate_job(out)
    assert audit["partitions"] == 24 and not audit["invalid"]


@pytest.mark.usefixtures("ray_session")
def test_partition_layout_deterministic(sf_small, tmp_path):
    """Same input → same partition files and checksums across runs
    (url-hash partitioning is stable)."""
    from ocr_lib_ray.pipelines.extract import run_extract_job
    from ocr_lib_ray.stages import manifest as m

    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_extract_job(sf_small, out1, resume=False)
    run_extract_job(sf_small, out2, resume=False)

    import os
    import pyarrow.parquet as pq2

    def checks(out):
        rows = {}
        for f in sorted(os.listdir(os.path.join(out, "manifest"))):
            t = pq2.read_table(os.path.join(out, "manifest", f))
            for pid, cs, nd in zip(
                t.column("partition_id").to_pylist(),
                t.column("checksum").to_pylist(),
                t.column("n_docs").to_pylist(),
            ):
                rows[pid] = (cs, nd)
        return rows

    assert checks(out1) == checks(out2)


@pytest.mark.usefixtures("ray_session")
def test_build_training_data_end_to_end(sf_small):
    """The 8-operator composition: extract → redact → line-dedup →
    exact-dedup → quality gate → chunk → pack, on one streaming
    Dataset; budget + coverage + determinism asserted."""
    from ocr_lib_ray.pipelines.corpus import build_training_data
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    a = (
        build_training_data(build_pages_dataset(sf_small))
        .to_pandas()
        .sort_values(["partition_id", "seq_id"])
        .reset_index(drop=True)
    )
    assert len(a) > 0
    assert (a["total_tokens"] <= 128).all()
    assert (a["n_chunks"] >= 1).all()
    b = (
        build_training_data(build_pages_dataset(sf_small))
        .to_pandas()
        .sort_values(["partition_id", "seq_id"])
        .reset_index(drop=True)
    )
    assert a.equals(b)  # deterministic end to end


@pytest.mark.usefixtures("ray_session")
def test_build_training_data_checkpoint_equivalent(sf_small, tmp_path):
    """checkpoint_dir (the multi-pass 100TB pattern — extract once to
    parquet, key passes re-read it) must not change the output."""
    from ocr_lib_ray.pipelines.corpus import build_training_data
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    key = ["partition_id", "seq_id"]
    a = (
        build_training_data(build_pages_dataset(sf_small))
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    b = (
        build_training_data(
            build_pages_dataset(sf_small), checkpoint_dir=str(tmp_path / "ckpt")
        )
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_entry_contract(sf_small):
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as em

    ds = em.entry()
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    assert len(df) == 500  # sf0.001 corpus size — a 0-row entry is a bug
    assert set(["url", "text", "lang", "doc_kind"]) <= set(df.columns)
    assert set(em.oracle_sql()) <= set(em.queries())


@pytest.mark.usefixtures("ray_session")
def test_cli_clean_and_training_data(sf_small, tmp_path):
    """The composed-pipeline CLI subcommands run end-to-end and report
    footer-counted rows (reuses the session's Ray)."""
    import json

    from ocr_lib_ray.cli import main

    out_clean = str(tmp_path / "clean")
    rc = main(["clean", "--sf-dir", sf_small, "--output", out_clean])
    assert rc in (0, None)
    import glob

    import pyarrow.parquet as pq

    rows = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(f"{out_clean}/**/*.parquet", recursive=True)
    )
    assert rows == 500
    out_td = str(tmp_path / "td")
    rc = main(
        [
            "training-data",
            "--sf-dir",
            sf_small,
            "--output",
            out_td,
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
        ]
    )
    assert rc in (0, None)
    assert glob.glob(f"{out_td}/**/*.parquet", recursive=True)


@pytest.mark.usefixtures("ray_session")
def test_bundle_extra_entities_reteach():
    """The bundle's extra_entities overlay must reach entity decoding
    through the actor pool (previously a documented no-op)."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.pipelines.extract import extract_pipeline
    from ocr_lib_ray.state.bundle import ClassifierBundle, broadcast_bundle

    html = b"<main><p>price is &currency;42 total today</p></main>"
    pages = rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(["https://x.test/e"], pa.string()),
                pa.array([0], pa.timestamp("us")),
                pa.array([html], pa.binary()),
                pa.array([""], pa.string()),
                pa.array(["en"], pa.string()),
            ],
            names=["url", "warc_ts", "html", "text", "lang"],
        )
    )
    base = extract_pipeline(pages).to_pandas()
    assert "&currency;" in base["text"][0]  # unknown entity passes through
    ref = broadcast_bundle(ClassifierBundle(extra_entities={"currency": "¤"}))
    taught = extract_pipeline(pages, bundle_ref=ref).to_pandas()
    assert taught["text"][0] == "price is ¤42 total today"


@pytest.mark.usefixtures("ray_session")
def test_build_training_data_join_dedup_equivalent(sf_small, monkeypatch):
    """The exact-dedup loser filter keeps the same docs on its
    broadcast path (default bound) and its bucketed anti-join path
    (bound 0 — the dup-heavy-corpus scale path) on a dup-heavy fixture
    (repeat=3: every doc duplicated under 3 distinct urls)."""
    import ocr_lib_ray.functions.joins as joins
    from ocr_lib_ray.pipelines.corpus import build_training_data
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    key = ["partition_id", "seq_id"]

    def run(repeat):
        # line_max_df=10 keeps the shared lines alive (repeat=3 gives
        # every line df=3; the default max_df=1 would strip duplicated
        # docs to empty text BEFORE exact dedup and trivialize the
        # comparison)
        return (
            build_training_data(build_pages_dataset(sf_small, repeat=repeat), line_max_df=10)
            .to_pandas()
            .sort_values(key)
            .reset_index(drop=True)
        )

    a = run(3)
    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
    b = run(3)
    assert len(a) > 0
    assert a.equals(b)
    # the dedup actually bit: the dup-heavy corpus packs exactly the
    # tokens of the singleton corpus (one winner per content survives)
    monkeypatch.undo()
    c = run(1)
    assert a["total_tokens"].sum() == c["total_tokens"].sum()


@pytest.mark.usefixtures("ray_session")
def test_exact_losers_keep_a_repeated_winner():
    """A loser is a doc_id other than its content's min doc_id: a
    winner row seen twice (the same url crawled twice) is no loser, so
    the anti filter keeps both copies."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.pipelines.corpus import _exact_losers

    keyed = rd.from_arrow(
        pa.table(
            {
                "doc_id": ["u1", "u1", "u2", "u3", "u4"],
                "fp": ["A", "A", "A", "B", "C"],
            }
        )
    )
    losers = _exact_losers(keyed, num_buckets=4).to_pandas()
    assert sorted(losers["d2"]) == ["u2"]


@pytest.mark.usefixtures("ray_session")
def test_build_training_data_mixture_and_decontam_defaults_are_noops(sf_small):
    """mixture at rate 1.0 and an eval set overlapping nothing must both
    leave the packed output byte-identical to the default pipeline."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.pipelines.corpus import build_training_data
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    key = ["partition_id", "seq_id"]
    base = (
        build_training_data(build_pages_dataset(sf_small))
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    no_overlap_eval = rd.from_arrow(
        pa.Table.from_arrays(
            [pa.array(["zz qq xx ww vv uu tt ss rr"], pa.string())], names=["text"]
        )
    )
    same = (
        build_training_data(
            build_pages_dataset(sf_small),
            mixture_rates={},  # every stratum takes the default rate 1.0
            eval_docs=no_overlap_eval,
        )
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    assert base.equals(same)


@pytest.mark.usefixtures("ray_session")
def test_build_training_data_mixture_downsamples_by_source(sf_small):
    """Zero-rating one source stratum removes its docs (fewer packed
    tokens), deterministically across runs."""
    from ocr_lib_ray.pipelines.corpus import build_training_data
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    def src_of(url: str) -> str:
        return url.split("/")[3]  # https://corpus.test/<source>/<doc_id>

    kw = dict(
        mixture_rates={"src0": 0.0, "src1": 0.0},
        mixture_key=src_of,
        mixture_default_rate=1.0,
    )
    a = build_training_data(build_pages_dataset(sf_small), **kw).to_pandas()
    base = build_training_data(build_pages_dataset(sf_small)).to_pandas()
    assert a["total_tokens"].sum() < base["total_tokens"].sum()
    b = build_training_data(build_pages_dataset(sf_small), **kw).to_pandas()
    key = ["partition_id", "seq_id"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_build_training_data_decontam_drops_planted_eval_doc(sf_small):
    """An eval set copied from a real document's text removes that
    document's tokens from the packed output."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.pipelines.corpus import build_training_data
    from ocr_lib_ray.pipelines.extract import build_pages_dataset

    docs = pd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    rich = docs[docs["text"].str.split().str.len() >= 8].iloc[0]
    eval_ds = rd.from_arrow(
        pa.Table.from_arrays([pa.array([rich["text"]], pa.string())], names=["text"])
    )
    base = build_training_data(build_pages_dataset(sf_small)).to_pandas()
    decon = build_training_data(
        build_pages_dataset(sf_small), eval_docs=eval_ds, decontam_n=5
    ).to_pandas()
    assert decon["total_tokens"].sum() < base["total_tokens"].sum()


@pytest.mark.usefixtures("ray_session")
def test_cli_report(sf_small, capsys):
    """The report subcommand prints one JSON line of per-group corpus
    stats over the extracted docs (reuses the session's Ray)."""
    import json

    from ocr_lib_ray.cli import main

    rc = main(["report", "--sf-dir", sf_small])
    assert rc in (0, None)
    line = [l for l in capsys.readouterr().out.strip().splitlines() if l][-1]
    out = json.loads(line)
    langs = {g["lang"] for g in out["groups"]}
    assert "en" in langs and len(out["groups"]) >= 3
    assert sum(g["n_docs"] for g in out["groups"]) == 500
    for g in out["groups"]:
        assert g["n_tokens_sum"] > 0 and g["avg_tokens"] > 0


@pytest.mark.usefixtures("ray_session")
def test_cli_tokenize_matches_oracle(sf_small, tmp_path, capsys):
    """cli tokenize writes vocab.parquet + shard-partitioned encoded
    rows byte-equal to the vocab_encode oracle."""
    import glob
    import json

    import duckdb
    import pandas as pd

    import __ray_entry__ as em
    from ocr_lib_ray.cli import main

    out = str(tmp_path / "tok")
    rc = main(
        [
            "tokenize",
            "--sf-dir",
            sf_small,
            "--output",
            out,
            "--max-vocab",
            "32",
            "--shards",
            "4",
        ]
    )
    assert rc in (0, None)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["vocab_size"] >= 1 and line["rows"] > 0

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_small}/documents.parquet')"
    )
    want = (
        con.execute(em.oracle_sql()["vocab_encode"])
        .df()
        .sort_values(["doc_id", "pos"])
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "pos": "int64", "token_id": "int64"})
    )
    files = glob.glob(f"{out}/encoded/**/*.parquet", recursive=True)
    got = con.execute(
        f"SELECT doc_id, pos, token_id FROM read_parquet({files!r}) "
        "ORDER BY doc_id, pos"
    ).df()
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_cli_compact_preserves_content(sf_small, tmp_path, capsys):
    """compact rewrites many small files into few, content-preserving
    (hive partition column folded into the data, full row multiset
    equal via DuckDB sorted compare)."""
    import glob
    import json

    import duckdb

    from ocr_lib_ray.cli import main

    tok = str(tmp_path / "tok")
    rc = main(
        ["tokenize", "--sf-dir", sf_small, "--output", tok, "--max-vocab", "8",
         "--shards", "4"]
    )
    assert rc in (0, None)
    out = str(tmp_path / "compact")
    rc = main(
        ["compact", "--input", f"{tok}/encoded", "--output", out,
         "--target-files", "2"]
    )
    assert rc in (0, None)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["row_counts_match"] is True
    assert line["files_out"] < line["files_in"]

    con = duckdb.connect()
    a = glob.glob(f"{tok}/encoded/**/*.parquet", recursive=True)
    b = glob.glob(f"{out}/**/*.parquet", recursive=True)
    diff = con.execute(
        f"""
        SELECT count(*) FROM (
            (SELECT doc_id, pos, token_id, shard
             FROM read_parquet({a!r}, hive_partitioning=1)
             EXCEPT
             SELECT doc_id, pos, token_id, shard FROM read_parquet({b!r}))
            UNION ALL
            (SELECT doc_id, pos, token_id, shard FROM read_parquet({b!r})
             EXCEPT
             SELECT doc_id, pos, token_id, shard
             FROM read_parquet({a!r}, hive_partitioning=1))
        )
        """
    ).fetchone()[0]
    assert diff == 0


@pytest.mark.usefixtures("ray_session")
def test_infer_glyph_widths_ds_distributed():
    """Distributed width inference (round 5, the corpus-side
    nauci-slova completion): a pages Dataset of pdf_prop fixtures plus
    non-PDF noise yields the fixture font table with NO taught bundle,
    and the inferred table splits proportional lines exactly like the
    taught PROP_WIDTHS."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.config import ExtractConfig
    from ocr_lib_ray.kernel.extract import extract_document
    from ocr_lib_ray.sources.pages import PROP_GAP, PROP_WIDTHS, make_pdf_prop
    from ocr_lib_ray.state.bundle import infer_glyph_widths_ds

    pool = (
        "some sensible words make each generated line split across runs "
        "narrow fill till rift mass stone loom rates moon tiles quick "
        "brown vixens jump over lazy dogs while zebras graze Words Like "
        "These Should Also Split Very Often"
    ).split(" ")
    texts = {
        d: " ".join(pool[(7 * i + 3 * d) % len(pool)] for i in range(37))
        for d in range(20)
    }
    payloads = [make_pdf_prop(d, t) for d, t in texts.items()]
    payloads += [b"<html><body><p>not a pdf</p></body></html>", None]
    pages = rd.from_arrow(pa.table({"html": pa.array(payloads, pa.binary())}))
    widths, gap = infer_glyph_widths_ds(pages, min_count=3)
    assert abs(gap - PROP_GAP / 12.0) < 1e-3
    assert widths, "must learn something"
    for c, w in widths.items():
        assert abs(w - PROP_WIDTHS[c]) < 1e-3, (c, w)
    payload = make_pdf_prop(0, texts[0])
    inferred = extract_document(payload, ExtractConfig(pdf_glyph_widths=widths))
    taught = extract_document(
        payload, ExtractConfig(pdf_glyph_widths=dict(PROP_WIDTHS))
    )
    assert inferred.text == taught.text
    assert len(inferred.spans) == len(taught.spans)
