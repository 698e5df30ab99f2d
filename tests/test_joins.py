"""Join semantics: as-of and range joins, and hash_join on both its
broadcast and bucketed paths."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

import ocr_lib_ray.functions.joins as joins
from ocr_lib_ray.functions.joins import asof_join, range_join_count

#: the broadcast bound at its default, then 0 (every join bucketed)
BOUNDS = (joins.DIM_BROADCAST_MAX, 0)


def _path_spy(monkeypatch, bound) -> dict:
    """Set ``joins.DIM_BROADCAST_MAX`` to ``bound`` and count what ran:
    the size decision (``dim_ref_adaptive``), the bucketed union and
    the broadcast inner enrich."""
    monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", bound)
    calls = {"sized": 0, "bucketed": 0, "broadcast": 0}
    for key, name in (
        ("sized", "dim_ref_adaptive"),
        ("bucketed", "_union_bucketed"),
        ("broadcast", "_key_enrich"),
    ):

        def wrapped(*a, _fn=getattr(joins, name), _key=key, **kw):
            calls[_key] += 1
            return _fn(*a, **kw)

        monkeypatch.setattr(joins, name, wrapped)
    return calls


@pytest.mark.usefixtures("ray_session")
def test_asof_join_backward_and_nulls():
    left = rd.from_pandas(
        pd.DataFrame(
            {"event_id": [10, 11, 12], "user_id": [1, 1, 2], "ts_us": [100, 50, 100]}
        )
    )
    right = rd.from_pandas(
        pd.DataFrame({"user_id": [1, 1], "ts_us": [60, 90], "v": [1.0, 2.0]})
    )
    out = (
        asof_join(left, right, "user_id", "ts_us", ["v"], num_partitions=4)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # event 10 (u1, t100) → right t90; event 11 (u1, t50) → none;
    # event 12 (u2) → no right rows for the key
    assert list(out["event_id"]) == [10, 11, 12]
    assert out["v_r"].tolist()[0] == 2.0
    assert np.isnan(out["v_r"].tolist()[1]) and np.isnan(out["v_r"].tolist()[2])
    assert out["ts_us_r"].tolist()[0] == 90.0
    # equal-ts right row matches (<=, backward)
    right2 = rd.from_pandas(pd.DataFrame({"user_id": [1], "ts_us": [100], "v": [7.0]}))
    out2 = asof_join(left, right2, "user_id", "ts_us", ["v"], num_partitions=2).to_pandas()
    assert out2.sort_values("event_id")["v_r"].tolist()[0] == 7.0


@pytest.mark.usefixtures("ray_session")
def test_range_join_count_window_edges():
    left = rd.from_pandas(
        pd.DataFrame({"event_id": [1, 2], "user_id": [5, 5], "ts_us": [0, 1000]})
    )
    right = rd.from_pandas(
        pd.DataFrame({"user_id": [5, 5, 5, 5], "ts_us": [0, 1, 100, 101]})
    )
    out = (
        range_join_count(left, right, "user_id", "ts_us", window=100, num_partitions=4)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # (0, 100]: ts 1 and 100 count; ts 0 (equal to left) and 101 do not
    assert out["n_in_window"].tolist() == [2, 0]
    assert str(out["n_in_window"].dtype) == "int64"
    assert str(out["event_id"].dtype) == "int64"  # int restored after union nulls


@pytest.mark.usefixtures("ray_session")
def test_asof_join_matches_brute_reference():
    """Randomized-but-seeded inputs: bucket-partitioned as-of equals a
    brute per-row scan (the obviously-correct reference)."""
    rng = np.random.default_rng(7)
    n_l, n_r = 120, 150
    left = pd.DataFrame(
        {
            "event_id": np.arange(n_l),
            "user_id": rng.integers(0, 12, n_l),
            "ts_us": rng.integers(0, 1000, n_l),
        }
    )
    right = (
        pd.DataFrame(
            {
                "user_id": rng.integers(0, 12, n_r),
                "ts_us": rng.integers(0, 1000, n_r),
                "v": np.round(rng.random(n_r), 3),
            }
        )
        .groupby(["user_id", "ts_us"], as_index=False)["v"]
        .max()  # unique per (key, ts): the documented contract
    )
    got = (
        asof_join(
            rd.from_pandas(left), rd.from_pandas(right), "user_id", "ts_us", ["v"],
            num_partitions=5,
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    for _, row in left.iterrows():
        cand = right[(right["user_id"] == row["user_id"]) & (right["ts_us"] <= row["ts_us"])]
        g = got[got["event_id"] == row["event_id"]].iloc[0]
        if cand.empty:
            assert np.isnan(g["v_r"])
        else:
            best = cand.loc[cand["ts_us"].idxmax()]
            assert g["v_r"] == best["v"] and g["ts_us_r"] == best["ts_us"]


@pytest.mark.usefixtures("ray_session")
def test_range_join_matches_brute_reference():
    rng = np.random.default_rng(11)
    n_l, n_r, w = 100, 200, 50
    left = pd.DataFrame(
        {
            "event_id": np.arange(n_l),
            "user_id": rng.integers(0, 9, n_l),
            "ts_us": rng.integers(0, 500, n_l),
        }
    )
    right = pd.DataFrame(
        {"user_id": rng.integers(0, 9, n_r), "ts_us": rng.integers(0, 500, n_r)}
    )
    got = (
        range_join_count(
            rd.from_pandas(left), rd.from_pandas(right), "user_id", "ts_us", window=w,
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    for _, row in left.iterrows():
        want = (
            (right["user_id"] == row["user_id"])
            & (right["ts_us"] > row["ts_us"])
            & (right["ts_us"] <= row["ts_us"] + w)
        ).sum()
        assert got[got["event_id"] == row["event_id"]]["n_in_window"].iloc[0] == want


@pytest.mark.usefixtures("ray_session")
def test_joins_preserve_big_int64_ids_and_string_keys():
    """Left-only int columns must survive >2^53 (zero-fill defaults, no
    float round-trip), and string keys must work end to end."""
    big = 9007199254740993  # 2^53 + 1: not float64-representable
    left = rd.from_pandas(
        pd.DataFrame({"event_id": [big], "user_id": ["alice"], "ts_us": [100]})
    )
    right = rd.from_pandas(
        pd.DataFrame({"user_id": ["alice", "bob"], "ts_us": [90, 10], "v": [1.5, 9.9]})
    )
    out = asof_join(left, right, "user_id", "ts_us", ["v"], num_partitions=4).to_pandas()
    assert out["event_id"].tolist() == [big]
    assert out["user_id"].tolist() == ["alice"] and out["v_r"].tolist() == [1.5]
    out2 = range_join_count(
        left, right, "user_id", "ts_us", window=1000, num_partitions=4
    ).to_pandas()
    assert out2["event_id"].tolist() == [big]
    assert out2["n_in_window"].tolist() == [0]  # right ts 90 <= left ts


@pytest.mark.usefixtures("ray_session")
def test_asof_join_dtype_stable_when_every_row_matches():
    # A bucket where EVERY left row matches used to emit int64 joined
    # columns (group-dependent schema — parquet files mixing int64 and
    # double); the documented contract is float64 always.
    left = rd.from_pandas(
        pd.DataFrame({"event_id": [1, 2], "user_id": [1, 1], "ts_us": [100, 200]})
    )
    right = rd.from_pandas(
        pd.DataFrame({"user_id": [1], "ts_us": [50], "rv": [7]})  # int right value
    )
    out = asof_join(left, right, "user_id", "ts_us", ["rv"], num_partitions=2)
    schema = out.schema()
    types = dict(zip(schema.names, [str(t) for t in schema.types]))
    assert types["rv_r"] == "double"
    assert types["ts_us_r"] == "double"
    df = out.to_pandas()
    assert df["rv_r"].tolist() == [7.0, 7.0]


@pytest.mark.usefixtures("ray_session")
def test_hash_join_inner_and_left_match_pandas(monkeypatch):
    """Equi-join == pandas merge on a key set with unmatched rows on
    both sides, with and without a multiplying right key, at two
    partition counts (bucketing must not leak into the result) and at
    both broadcast bounds.  Only an inner join on unique right keys
    under the default bound broadcasts: the repeated key 2 and every
    left join take the bucketed exchange."""
    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4], "lv": [10, 20, 30, 40, 41]})
    right = pd.DataFrame({"k": [2, 2, 4, 9], "rv": [200, 201, 400, 900]})
    unique = right.drop_duplicates("k")
    for bound in BOUNDS:
        for how in ("inner", "left"):
            for r in (right, unique):
                want = pd.merge(left, r.rename(columns={"rv": "rv_r"}), on="k", how=how)
                if how == "left":
                    want["rv_r"] = want["rv_r"].astype("float64")
                want = want.sort_values(["k", "lv"]).reset_index(drop=True)
                broadcast = bound > 0 and how == "inner" and r is unique
                for nparts in (1, 5):
                    calls = _path_spy(monkeypatch, bound)
                    got = (
                        hash_join(
                            rd.from_pandas(left).repartition(2),
                            rd.from_pandas(r),
                            "k",
                            ["rv"],
                            how=how,
                            num_partitions=nparts,
                        )
                        .to_pandas()
                        .sort_values(["k", "lv"])
                        .reset_index(drop=True)
                    )
                    monkeypatch.undo()
                    assert calls["broadcast"] == int(broadcast), (bound, how, calls)
                    assert calls["bucketed"] == int(not broadcast), (bound, how, calls)
                    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


@pytest.mark.usefixtures("ray_session")
def test_hash_join_semi_anti(monkeypatch):
    """semi/anti = EXISTS / NOT EXISTS key filters: left columns only,
    no multiplication from duplicate right keys, partition-count
    invariant; right value columns are rejected up front.  Every case
    runs on both paths: the broadcast key lookup (default bound) and
    the bucketed exchange (bound 0)."""
    import pandas as pd
    import pytest as pt
    import ray.data as rd

    import ocr_lib_ray.functions.joins as joins
    from ocr_lib_ray.functions.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4], "lv": [10, 20, 30, 40, 41]})
    right = pd.DataFrame({"k": [2, 2, 4, 9], "rv": [200, 201, 400, 900]})
    want_semi = left[left["k"].isin(right["k"])]
    want_anti = left[~left["k"].isin(right["k"])]
    for bound in (joins.DIM_BROADCAST_MAX, 0):
        monkeypatch.setattr(joins, "DIM_BROADCAST_MAX", bound)
        for how, want in (("semi", want_semi), ("anti", want_anti)):
            want = want.sort_values(["k", "lv"]).reset_index(drop=True)
            for nparts in (1, 5):
                got = (
                    hash_join(
                        rd.from_pandas(left).repartition(2),
                        rd.from_pandas(right),
                        "k",
                        how=how,
                        num_partitions=nparts,
                    )
                    .to_pandas()
                    .sort_values(["k", "lv"])
                    .reset_index(drop=True)
                )
                pd.testing.assert_frame_equal(got[want.columns.tolist()], want)
        with pt.raises(ValueError, match="left columns only"):
            hash_join(
                rd.from_pandas(left), rd.from_pandas(right), "k", ["rv"], how="semi"
            )
        # EXISTS/NOT EXISTS null semantics: a null left key matches
        # nothing (semi drops it, anti keeps it); null right keys are
        # ignored — NOT the SQL `NOT IN` footgun where one right null
        # empties the result.  Float and string keys alike.
        for lk, rk in (([1.0, None, 3.0], [1.0, None]), (["a", None, "c"], ["a", None])):
            lnull = pd.DataFrame({"k": lk, "lv": [10, 20, 30]})
            rnull = pd.DataFrame({"k": rk})
            semi = hash_join(
                rd.from_pandas(lnull), rd.from_pandas(rnull), "k", how="semi"
            ).to_pandas()
            assert semi["lv"].tolist() == [10]
            anti = hash_join(
                rd.from_pandas(lnull), rd.from_pandas(rnull), "k", how="anti"
            ).to_pandas()
            assert sorted(anti["lv"].tolist()) == [20, 30]
        # an empty right side: semi keeps nothing, anti keeps everything
        empty = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64")}))
        assert hash_join(rd.from_pandas(left), empty, "k", how="semi").count() == 0
        assert hash_join(rd.from_pandas(left), empty, "k", how="anti").count() == 5


@pytest.mark.usefixtures("ray_session")
def test_hash_join_guards(monkeypatch):
    """A right value column colliding with a left column fails before
    any task when the left schema is known without execution; on a
    lazy left side it fails at the schema probe (bucketed) or on the
    first batch (broadcast)."""
    import pandas as pd
    import pytest as pt
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    l = rd.from_pandas(pd.DataFrame({"k": [1], "v": [1]}))
    r = rd.from_pandas(pd.DataFrame({"k": [1], "v": [2]}))
    lazy = l.map_batches(lambda b: b, batch_format="pyarrow")
    for bound in BOUNDS:
        calls = _path_spy(monkeypatch, bound)
        with pt.raises(ValueError, match="collide"):
            hash_join(l, r, "k", ["v"])
        assert calls == {"sized": 0, "bucketed": 0, "broadcast": 0}, calls
        with pt.raises(ValueError, match="how"):
            hash_join(l, r, "k", ["w"], how="outer")
        with pt.raises(Exception, match="collide"):
            hash_join(lazy, r, "k", ["v"]).materialize()
        assert calls["bucketed"] == 0 and calls["broadcast"] == int(bound > 0), calls
        monkeypatch.undo()


@pytest.mark.usefixtures("ray_session")
def test_hash_join_suffixed_collision_and_string_left(monkeypatch):
    """A left column named <col>+suffix fails up front (not as a
    KeyError in a Ray task), on both paths, before any task when the
    left schema is known and on the first broadcast batch when it is
    not; left-join with a STRING right column keeps object dtype with
    NaN holes."""
    import pandas as pd
    import pytest as pt
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    l = rd.from_pandas(pd.DataFrame({"k": [1], "rv_r": [5]}))
    r = rd.from_pandas(pd.DataFrame({"k": [1], "rv": [7]}))
    for bound in BOUNDS:
        calls = _path_spy(monkeypatch, bound)
        with pt.raises(ValueError, match="suffixed"):
            hash_join(l, r, "k", ["rv"])
        assert calls == {"sized": 0, "bucketed": 0, "broadcast": 0}, calls
        lazy = l.map_batches(lambda b: b, batch_format="pyarrow")
        with pt.raises(Exception, match="suffixed"):
            hash_join(lazy, r, "k", ["rv"]).materialize()
        assert calls["bucketed"] == 0 and calls["broadcast"] == int(bound > 0), calls
        monkeypatch.undo()

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2], "lv": [10, 20]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1], "name": ["x"]}))
    out = (
        hash_join(left, right, "k", ["name"], how="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["name_r"].tolist()[0] == "x"
    assert pd.isna(out["name_r"].tolist()[1])
    assert out["name_r"].dtype == object


@pytest.mark.usefixtures("ray_session")
def test_hash_join_right_and_full_outer_match_duckdb():
    """right / full_outer == SQL on a key set with unmatched rows on
    both sides, a multiplying right key, and a STRING left value column
    (object dtype with None holes, never float64); both value-column
    directions stabilized; partition-count invariant."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    left = pd.DataFrame(
        {"k": [1, 2, 3, 4, 4], "lv": [10, 20, 30, 40, 41], "ls": list("abcde")}
    )
    right = pd.DataFrame({"k": [2, 2, 4, 9], "rv": [200, 201, 400, 900]})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, sql_how in (("right", "RIGHT"), ("full_outer", "FULL OUTER")):
        want = con.execute(
            f"""SELECT COALESCE(l.k, r.k) AS k,
                       CAST(l.lv AS DOUBLE) AS lv, l.ls,
                       CAST(r.rv AS DOUBLE) AS rv_r
                FROM l {sql_how} JOIN r ON l.k = r.k"""
        ).df().sort_values(["k", "lv", "rv_r"]).reset_index(drop=True)
        for nparts in (1, 5):
            got = (
                hash_join(
                    rd.from_pandas(left).repartition(2),
                    rd.from_pandas(right),
                    "k",
                    ["rv"],
                    how=how,
                    num_partitions=nparts,
                )
                .to_pandas()
                .sort_values(["k", "lv", "rv_r"])
                .reset_index(drop=True)
            )
            assert got["k"].tolist() == want["k"].tolist()
            assert got["lv"].astype("float64").equals(want["lv"])
            assert got["rv_r"].astype("float64").equals(want["rv_r"])
            # string left col: None on right-only rows, never NaN-float
            got_ls = ["-" if pd.isna(v) else v for v in got["ls"]]
            want_ls = ["-" if pd.isna(v) else v for v in want["ls"]]
            assert got_ls == want_ls


@pytest.mark.usefixtures("ray_session")
def test_hash_join_null_keys_raise(monkeypatch):
    """SQL never matches NULL join keys; pandas merge would match NaN
    to NaN — the join raises instead of silently diverging, for a null
    on either side and on both paths: the broadcast enrich on a null
    left key, its size decision on a null right key."""
    import pandas as pd
    import pytest as pt
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    left = pd.DataFrame({"k": [1.0, None], "lv": [10, 20]})
    right = pd.DataFrame({"k": [1.0, None], "rv": [100, 200]})
    ok_left = pd.DataFrame({"k": [1.0, 2.0], "lv": [10, 20]})
    ok_right = pd.DataFrame({"k": [1.0, 2.0], "rv": [100, 200]})
    for bound in BOUNDS:
        for l, r, broadcast in (
            (left, right, False),
            (left, ok_right, bound > 0),
            (ok_left, right, False),
        ):
            calls = _path_spy(monkeypatch, bound)
            with pt.raises(Exception, match="null join keys"):
                hash_join(
                    rd.from_pandas(l), rd.from_pandas(r), "k", ["rv"], how="inner"
                ).materialize()
            monkeypatch.undo()
            assert calls["broadcast"] == int(broadcast), (bound, calls)
            assert calls["bucketed"] == int(bound == 0), (bound, calls)


@pytest.mark.usefixtures("ray_session")
def test_hash_join_composes_over_join_output(monkeypatch):
    """Regression: a hash_join whose RIGHT side is another join's
    output (semi → inner here) used to poison the union schema — Ray's
    schema() on the internal select_columns Project over the lazy
    map_groups upstream reported the PRE-projection names, and the
    aligner KeyError'd on a column the batches no longer carry.  The
    union now pins the projected right-name list explicitly."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    base = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, 4], pa.int64()),
                "c": pa.array([10, 20, 30, 40], pa.int64()),
                "d": pa.array([5, 6, 7, 8], pa.int64()),
            }
        )
    )
    left = base.map_batches(lambda b: b, batch_format="pyarrow")
    seg = rd.from_arrow(pa.table({"c": pa.array([10, 30], pa.int64())}))
    semi = hash_join(left, seg, "c", how="semi", num_partitions=2)
    rev = rd.from_arrow(
        pa.table(
            {"k": pa.array([1, 3], pa.int64()), "r": pa.array([100, 300], pa.int64())}
        )
    )
    for bound in BOUNDS:
        calls = _path_spy(monkeypatch, bound)
        out = hash_join(
            rev, semi, "k", right_value_cols=["d"], how="inner", num_partitions=2
        )
        rows = sorted((r["k"], r["r"], r["d_r"]) for r in out.take_all())
        monkeypatch.undo()
        assert rows == [(1, 100, 5), (3, 300, 7)]
        assert calls["broadcast"] == int(bound > 0), calls
        assert calls["bucketed"] == int(bound == 0), calls


@pytest.mark.usefixtures("ray_session")
def test_hash_join_composite_key_all_modes():
    """Composite (two-column) keys: inner/left multiply correctly,
    semi/anti use EXISTS semantics with any-null-key = no match, and
    non-semi modes raise on null keys."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    left = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 1, 2, 2, 3], pa.int64()),
                "b": ["x", "y", "x", "y", "x"],
                "v": pa.array([10, 20, 30, 40, 50], pa.int64()),
            }
        )
    ).repartition(3)
    right = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 2, 2, 9], pa.int64()),
                "b": ["x", "y", "y", "x"],
                "w": pa.array([100, 200, 201, 900], pa.int64()),
            }
        )
    )
    inner = sorted(
        (r["a"], r["b"], r["v"], r["w_r"])
        for r in hash_join(
            left, right, ["a", "b"], right_value_cols=["w"], num_partitions=2
        ).take_all()
    )
    # (1,x) matches once; (2,y) matches TWICE (multiplies); others drop
    assert inner == [(1, "x", 10, 100), (2, "y", 40, 200), (2, "y", 40, 201)]

    semi = sorted(
        (r["a"], r["b"]) for r in hash_join(
            left, right, ["a", "b"], how="semi", num_partitions=2
        ).take_all()
    )
    assert semi == [(1, "x"), (2, "y")]
    anti = sorted(
        (r["a"], r["b"]) for r in hash_join(
            left, right, ["a", "b"], how="anti", num_partitions=2
        ).take_all()
    )
    assert anti == [(1, "y"), (2, "x"), (3, "x")]

    # null in ONE key column: semi drops the row, anti keeps it
    left_n = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, None], pa.int64()),
                "b": ["x", "x"],
                "v": pa.array([1, 2], pa.int64()),
            }
        )
    )
    semi_n = [(r["a"], r["v"]) for r in hash_join(
        left_n, right, ["a", "b"], how="semi", num_partitions=2
    ).take_all()]
    assert semi_n == [(1, 1)]
    anti_n = sorted(
        (r["v"],) for r in hash_join(
            left_n, right, ["a", "b"], how="anti", num_partitions=2
        ).take_all()
    )
    # (1,x) matched -> dropped by anti; the null-key row matches
    # nothing -> anti KEEPS it (NOT-EXISTS semantics, not NOT IN)
    assert anti_n == [(2,)]

    with pytest.raises(Exception, match="null join keys"):
        hash_join(
            left_n, right, ["a", "b"], right_value_cols=["w"], num_partitions=2
        ).take_all()


@pytest.mark.usefixtures("ray_session")
def test_exchange_map_groups_contract_and_wide_width():
    """The group fn runs once per NON-EMPTY bucket and only those reach
    the output; with a column key it runs once per distinct key, whole;
    an all-empty exchange is ONE typed empty block; a width past 256
    (300) yields the same rows as width 16."""
    import pyarrow as pa

    from ocr_lib_ray.functions.bucket_tasks import exchange_map_groups

    keys = [0, 5, 9] * 10
    ds = (
        rd.from_arrow(
            pa.table(
                {"k": pa.array(keys, pa.int64()), "v": pa.array(range(30), pa.int64())}
            )
        )
        .repartition(4)
        .materialize()
    )

    def bucket_fn(t):
        return t.column("k").to_numpy() % 16

    def group(t):
        if t.num_rows == 0:
            raise AssertionError("group fn saw an empty bucket")
        return t.group_by("k").aggregate([("v", "sum")])

    def rows(out):
        return sorted((r["k"], r["v_sum"]) for r in out.take_all())

    want = sorted(
        (k, sum(v for v, kk in zip(range(30), keys) if kk == k)) for k in {0, 5, 9}
    )
    raw = exchange_map_groups(ds, bucket_fn, group, 16)
    assert raw.num_blocks() == 3
    assert rows(raw) == want

    empty = exchange_map_groups(
        ds,
        bucket_fn,
        lambda t: t.group_by("k").aggregate([("v", "sum")]),
        16,
        pre_fn=lambda t: t.slice(0, 0),
    )
    assert empty.num_blocks() == 1 and empty.count() == 0
    assert sorted(empty.schema().names) == ["k", "v_sum"]

    # column keys: the group fn runs once per distinct key, whole — an
    # int key, a string key with nulls, a composite key (pandas frames)
    from collections import Counter

    n = 40
    tbl = pa.table(
        {
            "i": pa.array([i % 7 for i in range(n)], pa.int64()),
            "s": pa.array([None if i % 5 == 0 else f"k{i % 3}" for i in range(n)]),
            "v": pa.array(range(n), pa.int64()),
        }
    )
    kds = rd.from_arrow(tbl).repartition(4).materialize()
    for key, fmt in [("i", "pyarrow"), ("s", "pyarrow"), (["i", "s"], "pandas")]:
        cols = [key] if isinstance(key, str) else key
        src = kds.take_all()
        sizes = Counter(tuple(r[c] for c in cols) for r in src)

        def per_key(g, cols=cols, sizes=sizes, fmt=fmt):
            recs = g.to_dict("records") if fmt == "pandas" else g.to_pylist()
            keys = {tuple(None if pd.isna(r[c]) else r[c] for c in cols) for r in recs}
            assert len(keys) == 1, f"group fn saw keys {keys}"
            (k,) = keys
            assert len(recs) == sizes[k], f"key {k} split across calls"
            out = {c: [k[j]] for j, c in enumerate(cols)}
            out["vs"] = [",".join(str(r["v"]) for r in sorted(recs, key=lambda r: r["v"]))]
            return pd.DataFrame(out) if fmt == "pandas" else pa.table(out)

        def key_rows(out, cols=cols):
            return sorted(
                ((tuple(r[c] for c in cols), r["vs"]) for r in out.take_all()),
                key=repr,
            )

        raw = key_rows(exchange_map_groups(kds, key, per_key, 16, batch_format=fmt))
        assert len(raw) == len(sizes)
        # the default width: at most one bucket per input block
        assert key_rows(exchange_map_groups(kds, key, per_key, batch_format=fmt)) == raw
        wide = key_rows(exchange_map_groups(kds, key, per_key, 300, batch_format=fmt))
        assert wide == raw, key

    def wide_bucket_fn(t):
        return t.column("k").to_numpy() % 300

    assert rows(exchange_map_groups(ds, wide_bucket_fn, group, 300)) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("filled", [(), (3,), (0, 5, 6), tuple(range(8))])
def test_exchange_starts_merges_only_for_filled_buckets(filled):
    """Wave 1 returns per-bucket row counts; the driver submits a merge
    task for exactly the k buckets they fill, and the P - k empty ones
    share one merge_fn result computed on the driver over a typed
    empty slice.  P positional refs come back either way."""
    import os

    import pyarrow as pa
    import ray

    from ocr_lib_ray.functions.bucket_tasks import exchange_to_bucket_refs

    P, driver = 8, os.getpid()
    keys = [b for b in filled for _ in range(3)]
    blocks = [
        pa.table({"b": pa.array(keys[i::2], pa.int64())}) for i in range(2)
    ]
    on_driver = []

    def merge_fn(t):
        if os.getpid() == driver:
            on_driver.append(t.schema)
        return (os.getpid(), t.num_rows)

    refs, rows = exchange_to_bucket_refs(
        [ray.put(b) for b in blocks],
        lambda t: t.column("b").to_numpy(),
        P,
        merge_fn,
    )
    assert len(refs) == P
    assert rows == [3 if b in filled else 0 for b in range(P)]
    assert all(type(n) is int for n in rows)
    results = ray.get(refs)
    merged = [b for b, (pid, _) in enumerate(results) if pid != driver]
    assert merged == sorted(filled)
    assert [n for _, n in results] == rows
    empty = [r for b, r in enumerate(refs) if b not in filled]
    assert len(set(empty)) == min(1, len(empty))
    assert on_driver == ([pa.schema([("b", pa.int64())])] if empty else [])


@pytest.mark.usefixtures("ray_session")
def test_hash_join_replicate_keys_equivalence():
    """Skew salting: a dominant key (90% of left rows) joined with and
    without replicate_keys yields the identical output SET across
    inner/left/semi/anti, for an int64, a string and a composite key;
    outer modes reject it."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    n = 400
    ks = [7 if i % 10 else i for i in range(n)]
    right_k = [7, 7, 20, 30]
    cases = [
        # (key, left key columns, right key columns, hot keys)
        (
            "k",
            {"k": pa.array(ks, pa.int64())},
            {"k": pa.array(right_k, pa.int64())},
            {7},
        ),
        (
            "k",
            {"k": pa.array([f"u{k}" for k in ks])},
            {"k": pa.array([f"u{k}" for k in right_k])},
            {"u7"},
        ),
        (
            ["k", "k2"],
            {"k": pa.array(ks, pa.int64()), "k2": pa.array([f"u{k}" for k in ks])},
            {
                "k": pa.array(right_k, pa.int64()),
                "k2": pa.array([f"u{k}" for k in right_k]),
            },
            {(7, "u7")},
        ),
    ]

    def canon(ds, cols):
        return sorted(tuple(r[c] for c in cols) for r in ds.take_all())

    for key, lcols, rcols, hot in cases:
        kcols = [key] if isinstance(key, str) else key
        left = rd.from_arrow(
            pa.table({**lcols, "v": pa.array(list(range(n)), pa.int64())})
        ).repartition(5)
        right = rd.from_arrow(
            pa.table({**rcols, "w": pa.array([1, 2, 3, 4], pa.int64())})
        )
        for how, cols in [
            ("inner", kcols + ["v", "w_r"]),
            ("left", kcols + ["v"]),
            ("semi", kcols + ["v"]),
            ("anti", kcols + ["v"]),
        ]:
            kw = dict(right_value_cols=["w"]) if how in ("inner", "left") else {}
            plain = canon(
                hash_join(left, right, key, how=how, num_partitions=4, **kw), cols
            )
            salted = canon(
                hash_join(
                    left,
                    right,
                    key,
                    how=how,
                    num_partitions=4,
                    replicate_keys=hot,
                    **kw,
                ),
                cols,
            )
            assert salted == plain, (key, how)

    with pytest.raises(ValueError, match="replicate_keys"):
        hash_join(
            left, right, "k", right_value_cols=["w"], how="full_outer",
            replicate_keys={7},
        )


@pytest.mark.usefixtures("ray_session")
def test_hash_join_left_group_agg_fusion():
    """Exchange fusion: groupby(key).agg folded into the join equals
    the two-step groupby-then-join; null keys still raise (checked
    BEFORE the agg, which would silently drop them); guards reject
    outer modes and the replicate_keys combination."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_lib_ray.functions.joins import hash_join

    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 2, 2, 3], pa.int64()),
                "v": pa.array([10, 5, 1, 2, 3, 9], pa.int64()),
            }
        )
    ).repartition(3)
    right = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 9], pa.int64()), "w": ["a", "b", "z"]})
    )
    fused = sorted(
        (r["k"], r["sv"], r["w_r"])
        for r in hash_join(
            left,
            right,
            "k",
            right_value_cols=["w"],
            num_partitions=2,
            left_group_agg={"sv": ("v", "sum")},
        ).take_all()
    )
    assert fused == [(1, 15, "a"), (2, 6, "b")]
    # left mode keeps the unmatched aggregated key with a NaN w
    fused_l = {
        r["k"]: r["w_r"]
        for r in hash_join(
            left,
            right,
            "k",
            right_value_cols=["w"],
            how="left",
            num_partitions=2,
            left_group_agg={"sv": ("v", "sum")},
        ).take_all()
    }
    assert set(fused_l) == {1, 2, 3} and fused_l[3] is None or pd.isna(fused_l[3])

    left_n = rd.from_arrow(
        pa.table({"k": pa.array([1, None], pa.int64()), "v": pa.array([1, 2], pa.int64())})
    )
    with pytest.raises(Exception, match="null join keys"):
        hash_join(
            left_n, right, "k", right_value_cols=["w"],
            left_group_agg={"sv": ("v", "sum")}, num_partitions=2,
        ).take_all()
    with pytest.raises(ValueError, match="left_group_agg"):
        hash_join(
            left, right, "k", right_value_cols=["w"], how="full_outer",
            left_group_agg={"sv": ("v", "sum")},
        )
    with pytest.raises(ValueError, match="left_group_agg"):
        hash_join(
            left, right, "k", right_value_cols=["w"],
            left_group_agg={"sv": ("v", "sum")}, replicate_keys={1},
        )
