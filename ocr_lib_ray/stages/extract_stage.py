"""Ray Data stages wrapping the per-document kernel (Arrow in / Arrow out).

The distributed form of the reference's thread fan-out
(``read-unknown-signs-tasks-fn`` + ``pcalls``,
/root/reference/src/clj/ocr_lib/core.clj:1460-1514): Ray Data schedules
batches across the cluster instead of bands across threads, and because
the kernel is a pure per-document function, output is byte-identical at
any parallelism — the property the reference needs its band-merge algebra
for.  A page is never split across tasks: each row is one kernel call,
O(page) memory, and a block is extracted ``ROWS_PER_SLICE`` rows at a
time, so that many rows' Python-side results are co-resident per call.

``ExtractDocuments`` is a callable CLASS → actor pool: configuration and
compiled state are built ONCE per actor in ``__init__`` (fixing the
reference's per-call template reload, core.clj:1792-1796), batches flow
through ``__call__``.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..kernel.extract import extract_document

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("start", pa.int64()),
            ("end", pa.int64()),
            ("block_id", pa.int32()),
            ("kind", pa.string()),
        ]
    )
)

EXTRACT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("text", pa.string()),
        ("title", pa.string()),
        ("spans", SPAN_TYPE),
        ("lang", pa.string()),
        ("doc_kind", pa.string()),
        ("residuals", pa.list_(pa.int32())),
        ("residual_texts", pa.list_(pa.string())),  # empty unless cfg.keep_residual_texts
        ("partition_id", pa.int32()),
    ]
)


class ExtractDocuments:
    """Actor-pool stage: pages batch → extraction batch.

    State (config + the classifier bundle analog of the ``signs``
    template store, core.clj:1782) is bound once per actor.  An optional
    ``bundle_ref`` (a ``ray.put`` object ref) is resolved here so big
    classifier resources ship once per actor, not once per batch.
    """

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG, bundle_ref=None):
        from ..kernel.tokenizer import DEFAULT_TAGS, TagConfig

        self.cfg = cfg
        self.tags = DEFAULT_TAGS
        if bundle_ref is not None:
            import ray

            self.bundle = ray.get(bundle_ref)
            # the bundle's tag-class tables re-teach the tokenizer/classifier
            # (the signs-map extension surface), built once per actor
            if getattr(self.bundle, "boilerplate_tags", None) is not None:
                extra = getattr(self.bundle, "extra_entities", None)
                entities = None
                if extra:
                    from ..kernel.tokenizer import _NAMED_ENTITIES

                    entities = {**_NAMED_ENTITIES, **extra}
                self.tags = TagConfig(
                    block=getattr(self.bundle, "block_tags", None),
                    boiler=self.bundle.boilerplate_tags,
                    heading=getattr(self.bundle, "heading_tags", None),
                    entities=entities,
                )
            # threshold overrides (the caller-threaded matching-value
            # analog): the bundle can re-teach min_words / link-density /
            # residual_cap pipeline-wide, once per actor
            if hasattr(self.bundle, "apply_to"):
                self.cfg = self.bundle.apply_to(cfg)
        else:
            self.bundle = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_batch(batch, self.cfg, self.tags)


#: rows one extract call turns into Python objects at once: an input block
#: of any size is extracted slice by slice, so the call holds one slice's
#: html strings and results plus the block's Arrow columns
ROWS_PER_SLICE = 256


def extract_batch(
    batch: pa.Table, cfg: ExtractConfig = DEFAULT_CONFIG, tags=None
) -> pa.Table:
    """Pure batch transform (usable as a stateless task too): one
    :func:`extract_document` call per row, no Ray tasks, converted to
    Arrow every ``ROWS_PER_SLICE`` rows."""
    from ..kernel.tokenizer import DEFAULT_TAGS

    if tags is None:
        tags = DEFAULT_TAGS
    slices = [
        batch.slice(i, ROWS_PER_SLICE)
        for i in range(0, batch.num_rows, ROWS_PER_SLICE)
    ]
    return pa.concat_tables([_extract_rows(s, cfg, tags) for s in slices or [batch]])


def _extract_rows(batch: pa.Table, cfg: ExtractConfig, tags) -> pa.Table:
    urls = batch.column("url")
    htmls = batch.column("html")
    langs = (
        batch.column("lang")
        if "lang" in batch.column_names
        else pa.nulls(batch.num_rows, pa.string())
    )
    pids = (
        batch.column("partition_id")
        if "partition_id" in batch.column_names
        else pa.nulls(batch.num_rows, pa.int32())
    )
    texts, titles, spans, kinds, residuals, res_texts = [], [], [], [], [], []
    raw = htmls.to_pylist()
    for i in range(batch.num_rows):
        res = extract_document(raw[i], cfg, tags=tags)
        texts.append(res.text)
        titles.append(res.title)
        spans.append(res.spans)
        kinds.append(res.doc_kind)
        residuals.append(res.residuals)
        res_texts.append(res.residual_texts)
    return pa.Table.from_arrays(
        [
            urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls,
            pa.array(texts, pa.string()),
            pa.array(titles, pa.string()),
            pa.array(spans, SPAN_TYPE),
            langs.combine_chunks() if isinstance(langs, pa.ChunkedArray) else langs,
            pa.array(kinds, pa.string()),
            pa.array(residuals, pa.list_(pa.int32())),
            pa.array(res_texts, pa.list_(pa.string())),
            pids.combine_chunks() if isinstance(pids, pa.ChunkedArray) else pids,
        ],
        schema=EXTRACT_SCHEMA,
    )
