"""Every group exchange in the engine goes through
``bucket_tasks.exchange_map_groups``: the only ``.map_groups`` left in
the package is that function's sort-shuffle fallback."""

import ast
import pathlib

import ocr_lib_ray

PACKAGE = pathlib.Path(ocr_lib_ray.__file__).parent


def test_map_groups_only_in_the_exchange_fallback():
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "map_groups":
                sites.append((path.relative_to(PACKAGE).as_posix(), node.lineno))
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
