"""The flagship pipeline: pages → extracted (url, text, spans, lang).

Distributed form of ``read-image-fn``
(/root/reference/src/clj/ocr_lib/core.clj:1772-1806), Ray-Data-first:

    read_parquet (column-pruned)
      → map_batches(synthesize_pages)          # fixture source stage
      → map_batches(add_partition_meta)        # url-hash partition id
      → map_batches(ExtractDocuments, actor pool)  # the kernel
      → write_with_manifest (exchange by partition id)

No stage before the sink materializes the dataset; the only
all-to-all exchange is the manifest sink's exchange keyed by
``partition_id`` in :func:`write_with_manifest`
(``bucket_tasks.exchange_map_groups``, the engine's one group
exchange; SURVEY.md §7.3).  See
:func:`extract_pipeline` for the measured compute-strategy decisions
(tasks vs actor pool).
"""

from __future__ import annotations

import ray.data as rd

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.bucket_tasks import exchange_map_groups
from ..sources.pages import synthesize_pages_batch
from ..sources.tables import read_table
from ..stages.extract_stage import ExtractDocuments, extract_batch
from ..stages.manifest import (
    completed_partitions,
    make_partition_writer,
    make_resume_filter,
)
from ..stages.partition import add_partition_meta


def build_pages_dataset(sf_dir: str, repeat: int = 1) -> rd.Dataset:
    """documents.parquet → pages Dataset (columns pruned at the read)."""
    docs = read_table(
        f"{sf_dir}/documents.parquet", ["doc_id", "text", "lang", "source"]
    )
    return docs.map_batches(
        lambda b: synthesize_pages_batch(b, repeat),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _pool_size(cfg: ExtractConfig) -> tuple:
    """Actor pool bounds: explicit from config, else (1, cluster CPUs) —
    the extraction stage is the dominant compute (the reference's 46%+36%
    phase split, core.clj:153-164) and should be able to own the node."""
    if cfg.concurrency is not None:
        return cfg.concurrency
    from ..pool import autoscale_pool

    return autoscale_pool()


def extract_pipeline(
    pages: rd.Dataset,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    bundle_ref=None,
) -> rd.Dataset:
    """pages Dataset → extracted Dataset (lazy, streaming).

    Compute strategy (measured on the sf0.1 bench, 100k pages, 32 CPUs):

    * default — STATELESS TASKS (47k docs/s).  The stage's state is a
      frozen config + module-level compiled regexes; per the Ray Data
      rule "plain function → stateless tasks", tasks fuse with the read
      and scale elastically.  An actor pool for the same stage measured
      ~15k docs/s (dispatch + ramp-up overhead) — actors are reserved
      for the case that actually has heavy state:
    * ``bundle_ref`` set — ACTOR POOL: the classifier bundle (the
      ``signs`` template-store analog) is fetched once per actor in
      ``__init__`` and shared across batches.

    Giant pages need no routing: the kernel parses any page above
    ``giant_threshold`` in ``chunk_size`` passes, output-equal to the
    one-shot parse.  A page's memory is O(page) on either parse.

    Extraction takes no ``batch_size``: each input block is one extract
    call and one output block, and on an unsplit read Ray fuses the read
    into extraction.  A split read (``ReadParquet->SplitBlocks(k)``,
    which Ray's default width makes of any file smaller than 2 x CPUs
    blocks) never fuses: read pages through
    :func:`sources.tables.read_table`, as :func:`build_pages_dataset`
    does, which splits a small file only up to one block per CPU.
    A ``batch_size`` would set ``min_rows_per_bundled_input``, which
    stops that fusion and makes every page wait in the object store for
    its bundle.  The call holds the block's Arrow columns (the reader
    builds blocks of up to ``DataContext.target_max_block_size``) and
    converts ``extract_stage.ROWS_PER_SLICE`` rows to Python objects at
    a time, so a block of thousands of rows costs one slice's pages and
    results in Python memory, not the block's.
    """
    import functools

    ds = pages.map_batches(
        lambda b: add_partition_meta(b, cfg.num_partitions),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if bundle_ref is not None:
        extract_kw: dict = dict(
            fn=ExtractDocuments,
            fn_constructor_args=(cfg, bundle_ref),
            concurrency=_pool_size(cfg),
        )
    else:
        extract_kw = dict(fn=functools.partial(extract_batch, cfg=cfg))
    return ds.map_batches(batch_format="pyarrow", **extract_kw)


def write_with_manifest(extracted: rd.Dataset, out_dir: str, resume: bool = True) -> dict:
    """Sink: per-partition atomic parquet + lineage manifest rows; with
    ``resume`` the already-completed partitions are filtered out of the
    EXTRACTED rows (anti-join against the manifest), so a resumed job
    still extracts every page and writes only the missing partitions.
    Dropping the done partitions on the pages side, before extraction,
    is ROADMAP item 1.

    Returns ``{"partitions_written": n, "partitions_skipped": k}``.
    """
    skipped = 0
    if resume:
        done = completed_partitions(out_dir)
        skipped = len(done)
        if done:
            extracted = extracted.map_batches(
                make_resume_filter(done), batch_format="pyarrow"
            )
    # The job's partition count is unknown here, so the partition id is
    # a column key over one bucket per extracted block (extraction maps
    # each input block to one output block) — the sort shuffle's width,
    # run by the same two-wave exchange at any block count.
    # Like any all-to-all, it holds the extracted corpus until it ends.
    extracted = extracted.materialize()
    manifest = exchange_map_groups(
        extracted,
        "partition_id",
        make_partition_writer(out_dir),
        max(1, extracted.num_blocks()),
    )
    rows = manifest.count()
    return {"partitions_written": rows, "partitions_skipped": skipped}


def run_extract_job(
    sf_dir: str,
    out_dir: str,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    repeat: int = 1,
    resume: bool = True,
) -> dict:
    """Fixture-input convenience wrapper over :func:`write_with_manifest`."""
    pages = build_pages_dataset(sf_dir, repeat)
    return write_with_manifest(extract_pipeline(pages, cfg), out_dir, resume=resume)
