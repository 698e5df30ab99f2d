"""Source guards over the package's AST.

* Every group exchange in the engine goes through
  ``bucket_tasks.exchange_map_groups``, the two-wave raw exchange, at
  every width: no ``.map_groups`` is left in the package, and neither
  is the old width gate (``fits_task_exchange``,
  ``TASK_EXCHANGE_MAX_PARTITIONS``) that sent wide exchanges to Ray's
  sort shuffle.
* The per-document kernel and its Ray Data stages submit no nested
  tasks: no ``ray.remote`` (nor any ``.remote`` submission) appears
  under ``kernel/`` or ``stages/``, so a page always parses inside the
  one task that holds its row.
* Broadcast or bucketed is decided in ``joins.py``: ``dim_ref_adaptive``
  is called only there and in dedup's two label stamps, and no other
  module defines or calls a broadcast-enrich helper.
* The dedup family and the graph ops aggregate through
  ``bucket_tasks.exchange_aggregate``: no Ray Data ``.aggregate(`` or
  ``.unique(`` (each a sort shuffle) is left in their modules or in the
  ``dedup_exact`` query.
* Object refs become a Dataset through ``bucket_tasks.dataset_from_refs``
  (one metadata task per producing task): no ``rd.from_arrow_refs`` (one
  per ref) is left.
* Parquet is read through ``sources.tables.read_table``, sized to the
  cluster: no other ``read_parquet(`` call is left in the package or in
  ``__ray_entry__.py``.
"""

import ast
import pathlib

import ocr_lib_ray

PACKAGE = pathlib.Path(ocr_lib_ray.__file__).parent


def _attribute_sites(attr: str, *subdirs: str, skip=()) -> list:
    """``(path, line)`` of every ``<expr>.<attr>`` under the package (or
    under ``subdirs`` of it, directories or files), except those whose
    ``<expr>`` is a name in ``skip``."""
    roots = [PACKAGE / d for d in subdirs] or [PACKAGE]
    sites = []
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == attr
                    and getattr(node.value, "id", None) not in skip
                ):
                    sites.append((path.relative_to(PACKAGE).as_posix(), node.lineno))
    return sites


#: names of the deleted width gate
WIDTH_GATE = ("fits_task_exchange", "TASK_EXCHANGE_MAX_PARTITIONS")


def test_no_map_groups_in_the_package():
    assert _attribute_sites("map_groups") == []
    gate = [
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in WIDTH_GATE
        if name in path.read_text()
    ]
    assert gate == []


def test_no_nested_ray_tasks_in_kernel_or_stages():
    assert _attribute_sites("remote", "functions")  # the walk does find sites
    assert _attribute_sites("remote", "kernel", "stages") == []


#: broadcast-enrich helpers: joins.py's own, and the relational.py one
#: it replaced
ENRICH_HELPERS = {"_key_enrich", "broadcast_dim_join"}


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def test_broadcast_decision_only_in_joins():
    sized = set()  # (path, top-level function) calling dim_ref_adaptive
    helpers = []  # (path, line) defining or calling an enrich helper
    for path in sorted(PACKAGE.rglob("*.py")) + [PACKAGE.parent / "__ray_entry__.py"]:
        rel = path.relative_to(PACKAGE.parent).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                name = _called_name(node)
                if name == "dim_ref_adaptive":
                    sized.add((rel, owner))
                defined = isinstance(node, ast.FunctionDef) and node.name
                if rel != "ocr_lib_ray/functions/joins.py" and (
                    name in ENRICH_HELPERS or defined in ENRICH_HELPERS
                ):
                    helpers.append((rel, node.lineno))
    assert ("ocr_lib_ray/functions/joins.py", "hash_join") in sized
    outside = {s for s in sized if s[0] != "ocr_lib_ray/functions/joins.py"}
    assert outside == {
        ("ocr_lib_ray/functions/dedup.py", "dedup_fuzzy_keep_best"),
        ("ocr_lib_ray/functions/dedup.py", "dup_cluster_sizes"),
    }
    assert helpers == []


#: the dedup family's modules and graph.py, and the array libraries
#: whose ``np.unique`` / ``pd.unique`` are not Ray Data calls
AGGREGATE_MODULES = (
    "functions/dedup.py",
    "functions/linedup.py",
    "functions/ngramdup.py",
    "pipelines/corpus.py",
    "functions/graph.py",
)
ARRAY_MODULES = ("np", "pd")


def test_dedup_family_aggregates_in_the_exchange():
    for attr in ("aggregate", "unique"):
        assert _attribute_sites(attr, *AGGREGATE_MODULES, skip=ARRAY_MODULES) == []
    entry = ast.parse((PACKAGE.parent / "__ray_entry__.py").read_text())
    query = next(
        node
        for node in entry.body
        if isinstance(node, ast.FunctionDef) and node.name == "_q_dedup_exact"
    )
    assert [
        node.lineno
        for node in ast.walk(query)
        if isinstance(node, ast.Attribute) and node.attr in ("aggregate", "unique")
    ] == []
    assert "exchange_aggregate" in ast.unparse(query)


def test_refs_become_a_dataset_through_one_helper():
    assert _attribute_sites("from_arrow_refs") == []


#: the one module that calls ``read_parquet``
READ_HELPER = "ocr_lib_ray/sources/tables.py"


def test_parquet_is_read_through_one_helper():
    calls = []  # (path, line) of every read_parquet(...) call
    for path in sorted(PACKAGE.rglob("*.py")) + [PACKAGE.parent / "__ray_entry__.py"]:
        rel = path.relative_to(PACKAGE.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _called_name(node) == "read_parquet":
                calls.append((rel, node.lineno))
    assert {rel for rel, _ in calls} == {READ_HELPER}
