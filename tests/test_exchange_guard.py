"""Source guards over the package's AST.

* Every group exchange in the engine goes through
  ``bucket_tasks.exchange_map_groups``: the only ``.map_groups`` left in
  the package is that function's sort-shuffle fallback.
* The per-document kernel and its Ray Data stages submit no nested
  tasks: no ``ray.remote`` (nor any ``.remote`` submission) appears
  under ``kernel/`` or ``stages/``, so a page always parses inside the
  one task that holds its row.
"""

import ast
import pathlib

import ocr_lib_ray

PACKAGE = pathlib.Path(ocr_lib_ray.__file__).parent


def _attribute_sites(attr: str, *subdirs: str) -> list:
    """``(path, line)`` of every ``<expr>.<attr>`` under the package (or
    under ``subdirs`` of it)."""
    roots = [PACKAGE / d for d in subdirs] or [PACKAGE]
    sites = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and node.attr == attr:
                    sites.append((path.relative_to(PACKAGE).as_posix(), node.lineno))
    return sites


def test_map_groups_only_in_the_exchange_fallback():
    sites = _attribute_sites("map_groups")
    exchange = next(
        node
        for node in ast.parse((PACKAGE / "functions" / "bucket_tasks.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "exchange_map_groups"
    )
    fallback = next(
        node
        for node in ast.walk(exchange)
        if isinstance(node, ast.If) and "fits_task_exchange" in ast.unparse(node.test)
    )
    lines = range(fallback.lineno, fallback.end_lineno + 1)
    assert sites
    assert [s for s in sites if s[0] != "functions/bucket_tasks.py" or s[1] not in lines] == []


def test_no_nested_ray_tasks_in_kernel_or_stages():
    assert _attribute_sites("remote", "functions")  # the walk does find sites
    assert _attribute_sites("remote", "kernel", "stages") == []
