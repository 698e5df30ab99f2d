"""documents-schema ingestion across storage formats.

The reference reads its inputs from whatever the deployment hands it
(classpath image files, ``rw-image`` — core_helper.clj:563-603); the
Ray-native analog is format-pluggable ingestion into ONE canonical
table shape so every downstream operator (all of ``functions/``,
``pipelines/curate.py``) is storage-agnostic: read with the matching
``ray.data`` reader, then normalize schema in a map-only pass.

Canonical documents schema: ``doc_id:int64, text:string, lang:string,
source:string, n_chars:int64`` (subset selectable via ``columns``).
JSONL and CSV readers cannot column-prune at the source the way
parquet row groups can — the projection happens in the first map pass
instead, so only the requested columns survive the first exchange;
for corpus-scale inputs convert to parquet once (``to_parquet``) and
get real pruned reads thereafter.
"""

from __future__ import annotations

import pyarrow as pa

__all__ = ["read_documents", "DOCUMENT_TYPES"]

#: canonical column types; n_chars is derived from text when absent
DOCUMENT_TYPES = {
    "doc_id": pa.int64(),
    "text": pa.string(),
    "lang": pa.string(),
    "source": pa.string(),
    "n_chars": pa.int64(),
}


def read_documents(path, format: str = "parquet", columns: list | None = None):
    """Read a documents table from ``path`` in ``format`` ('parquet',
    'jsonl'/'json', or 'csv') and normalize it to the canonical
    schema.  ``columns`` selects a subset (parquet prunes at the read;
    jsonl/csv project in the first map pass).  ``n_chars`` is computed
    from ``text`` when requested but missing from the file (JSONL/CSV
    exports often omit derived columns).

    Unknown columns are passed through untouched (typed as read) so
    corpora with extra metadata keep it; known columns are CAST to the
    canonical types — a CSV reader that inferred doc_id as int32 or a
    JSON reader that saw only-null lang would otherwise leak a
    divergent schema into every downstream shuffle.
    """
    import ray.data as rd

    from .tables import read_table

    fmt = format.lower()
    if fmt == "parquet":
        ds = read_table(path, columns)
    elif fmt in ("jsonl", "json"):
        ds = rd.read_json(path)
    elif fmt == "csv":
        ds = rd.read_csv(path)
    else:
        raise ValueError(
            f"unknown format {format!r}: expected parquet / jsonl / csv"
        )

    want = list(columns) if columns is not None else None

    def normalize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        names = want if want is not None else b.column_names
        arrays, out_names = [], []
        for c in names:
            if c in b.column_names:
                col = b.column(c)
                t = DOCUMENT_TYPES.get(c)
                arrays.append(col.cast(t) if t is not None and col.type != t else col)
            elif c == "n_chars" and "text" in b.column_names:
                arrays.append(
                    pc.utf8_length(b.column("text")).cast(pa.int64())
                )
            else:
                raise ValueError(
                    f"column {c!r} absent from {fmt} input "
                    f"(have {b.column_names})"
                )
            out_names.append(c)
        return pa.Table.from_arrays(arrays, names=out_names)

    return ds.map_batches(normalize, batch_format="pyarrow", zero_copy_batch=True)
