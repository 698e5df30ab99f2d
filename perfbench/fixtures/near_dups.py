"""Measure the near-duplicate structure of ``documents.parquet`` and write
it to ``near_dups.json`` (the dedup_exchange workload samples from it).

    python3 perfbench/fixtures/near_dups.py     # ~40 s, DuckDB only

Near duplicates are the pairs of the engine's ``minhash_pairs`` oracle SQL
(estimated Jaccard >= 0.5); they are grouped into clusters (connected
components).  Exact duplicates are counted with the ``dedup_exact`` oracle.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

FIXTURE = os.path.join(HERE, "documents.parquet")
OUT = os.path.join(HERE, "near_dups.json")


def clusters(pairs: list) -> list:
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict = {}
    for x in list(parent):
        groups.setdefault(find(x), []).append(x)
    return sorted(sorted(g) for g in groups.values())


def main() -> None:
    import duckdb

    import __ray_entry__ as entry

    sql = entry.oracle_sql()
    con = duckdb.connect()
    con.execute("SET enable_progress_bar = false")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{FIXTURE}')")
    rows = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    distinct = con.execute(f"SELECT count(*) FROM ({sql['dedup_exact']})").fetchone()[0]
    pairs = [(int(a), int(b)) for a, b in con.execute(f"SELECT d1, d2 FROM ({sql['minhash_pairs']})").fetchall()]
    groups = clusters(pairs)
    out = {
        "rows": rows,
        "exact_duplicate_rows": rows - distinct,
        "near_pairs": len(pairs),
        "docs_in_clusters": sum(len(g) for g in groups),
        "clusters": groups,
    }
    with open(OUT, "w") as f:
        json.dump(out, f, separators=(",", ":"))
        f.write("\n")
    print({k: v for k, v in out.items() if k != "clusters"}, len(groups), "clusters")


if __name__ == "__main__":
    main()
