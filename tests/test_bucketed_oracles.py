"""Forced-bucketed oracle gate: every query whose semi/anti filter,
inner enrich join or label stamp sizes itself through
``joins.dim_ref_adaptive`` and broadcasts on the fixtures must still
hash-match its DuckDB oracle when the broadcast bound is 0, i.e. on the
bucketed exchange path that only corpora past ``DIM_BROADCAST_MAX``
reach.  The driver fixtures are far below the bound, so without this
gate the oracles would only ever see the broadcast path."""

import os
import sys

import duckdb
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from check_oracles import TABLES, norm_df, to_pandas, value_hash  # noqa: E402

QUERIES = [
    "dedup_jaccard",
    "dedup_incremental",
    "dedup_incremental_minhash",
    "doc_semi_join",
    "doc_anti_join",
    "dedup_fuzzy_keep_best",
    "dup_cluster_sizes",
    "dedup_minhash",
    # inner enrich joins (hash_join how="inner")
    "band_revenue",
    "cohort_retention",
    "doc_embedding_join",
    "graph_rank",
    "graph_triangles",
    "top_supplier",
    "nation_volume",
    "market_share",
    "star_revenue",
    "large_orders",
]


@pytest.fixture(scope="module")
def oracle_con(sf_small):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_small}/{t}.parquet')"
        )
    yield con
    con.close()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", QUERIES)
def test_bucketed_path_matches_oracle(name, sf_small, oracle_con, monkeypatch):
    import __ray_entry__ as entry

    import ocr_lib_ray.functions.joins as joins

    calls = {"bucketed": 0, "broadcast": 0}

    def spy(key, fn):
        def wrapped(*a, **kw):
            calls[key] += 1
            return fn(*a, **kw)

        return wrapped

    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", 0)
    monkeypatch.setattr(joins, "_union_bucketed", spy("bucketed", joins._union_bucketed))
    monkeypatch.setattr(joins, "_key_filter", spy("broadcast", joins._key_filter))
    monkeypatch.setattr(joins, "_key_enrich", spy("broadcast", joins._key_enrich))
    got = norm_df(to_pandas(entry.queries()[name](sf_small)))
    want = norm_df(oracle_con.execute(entry.oracle_sql()[name]).df())
    assert calls["bucketed"] > 0 and calls["broadcast"] == 0, calls
    assert len(got) == len(want) > 0
    assert sorted(got.columns) == sorted(want.columns)
    assert value_hash(got) == value_hash(want)
