"""Grouping-sets rollup (one-shuffle multi-level aggregation)."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------- rollup


def test_rollup_and_cube_lattices():
    from fetch_engines_ray.ops.rollup import cube_sets, rollup_sets

    assert rollup_sets(["a", "b"]) == [("a", "b"), ("a",), ()]
    cs = cube_sets(["a", "b"])
    assert set(cs) == {("a", "b"), ("a",), ("b",), ()}
    assert len(cube_sets(["a", "b", "c"])) == 8


def test_grouping_sets_aggregate_duckdb_parity(ray_session):
    import duckdb

    import ray.data
    from fetch_engines_ray.ops.rollup import cube_sets, grouping_sets_aggregate

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "a": rng.choice(["x", "y", "z"], n),
            "b": rng.choice(["p", "q"], n),
            "v": rng.integers(0, 1000, n).astype("int64"),
        }
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = grouping_sets_aggregate(ds, keys=["a", "b"], sum_cols=["v"], count_alias="n")

    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        "SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grouping_id,"
        " count(*) AS n, sum(v) AS v FROM t GROUP BY ROLLUP(a, b)"
        " ORDER BY grouping_id, a, b"
    ).df()
    # normalize: DuckDB NULL -> None/NaN; ours uses real None
    for fr in (got, want):
        fr["a"] = fr["a"].where(fr["a"].notna(), "<null>")
        fr["b"] = fr["b"].where(fr["b"].notna(), "<null>")
        fr["n"] = fr["n"].astype("int64")
        fr["v"] = fr["v"].astype("int64")
    pd.testing.assert_frame_equal(
        got.sort_values(["grouping_id", "a", "b"]).reset_index(drop=True),
        want.sort_values(["grouping_id", "a", "b"]).reset_index(drop=True),
        check_like=True,
    )

    # CUBE: the (b)-only level too, same one-shuffle operator
    got_cube = grouping_sets_aggregate(
        ds, keys=["a", "b"], sum_cols=["v"], sets=cube_sets(["a", "b"]), count_alias="n"
    )
    want_cube = con.execute(
        "SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grouping_id,"
        " count(*) AS n, sum(v) AS v FROM t GROUP BY CUBE(a, b)"
        " ORDER BY grouping_id, a, b"
    ).df()
    assert len(got_cube) == len(want_cube)
    b_only = got_cube[got_cube["grouping_id"] == 2]
    assert set(b_only["b"]) == {"p", "q"}
    assert b_only["n"].sum() == n


def test_lineitem_pricing_rollup_oracle_parity(ray_session):
    import duckdb

    from fetch_engines_ray.ops.rollup import (
        lineitem_pricing_rollup,
        lineitem_pricing_rollup_sql,
    )

    got = lineitem_pricing_rollup(SF)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{SF}/lineitem.parquet')"
    )
    want = con.execute(lineitem_pricing_rollup_sql()).df()
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)
    # grand-total row consistency: n_items at gid=3 equals the sum of
    # the leaf level, and every level sums to the same revenue
    leaf = got[got["grouping_id"] == 0]
    total = got[got["grouping_id"] == 3]
    assert int(total["n_items"].iloc[0]) == int(leaf["n_items"].sum())
    assert abs(float(total["revenue"].iloc[0]) - float(leaf["revenue"].sum())) < 0.02


def test_grouping_sets_rejects_bad_sets(ray_session):
    import ray.data
    from fetch_engines_ray.ops.rollup import grouping_sets_aggregate

    ds = ray.data.from_pandas(pd.DataFrame({"a": ["x"], "v": [1]}))
    with pytest.raises(ValueError, match="non-keys"):
        grouping_sets_aggregate(ds, keys=["a"], sum_cols=["v"], sets=[("zz",)])
    with pytest.raises(ValueError, match="duplicate"):
        grouping_sets_aggregate(ds, keys=["a"], sum_cols=["v"], sets=[("a",), ("a",)])


def test_grouping_sets_property_random(ray_session):
    """Property: for randomized frames and random grouping sets, the
    one-shuffle operator equals a per-set pandas reference."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import ray.data
    from fetch_engines_ray.ops.rollup import _grouping_id, grouping_sets_aggregate

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 400),
        sets_mask=st.integers(1, 15),
    )
    def check(seed, n, sets_mask):
        rng = np.random.default_rng(seed)
        df = pd.DataFrame(
            {
                "a": rng.choice(["x", "y", "z", "w"], n),
                "b": rng.choice(["p", "q", "r"], n),
                "v": rng.integers(-50, 50, n).astype("int64"),
            }
        )
        all_sets = [("a", "b"), ("a",), ("b",), ()]
        sets = [s for i, s in enumerate(all_sets) if (sets_mask >> i) & 1]
        got = grouping_sets_aggregate(
            ray.data.from_pandas(df).repartition(3),
            keys=["a", "b"],
            sum_cols=["v"],
            sets=sets,
            count_alias="n",
        )
        frames = []
        for s in sets:
            if s:
                ref = df.groupby(list(s), as_index=False).agg(
                    n=("v", "size"), v=("v", "sum")
                )
            else:
                ref = pd.DataFrame({"n": [len(df)], "v": [df["v"].sum()]})
            for k in ("a", "b"):
                if k not in s:
                    ref[k] = None
            ref["grouping_id"] = _grouping_id(["a", "b"], s)
            frames.append(ref[["a", "b", "grouping_id", "n", "v"]])
        want = pd.concat(frames, ignore_index=True)
        for fr in (got, want):
            fr["a"] = fr["a"].where(fr["a"].notna(), "<null>")
            fr["b"] = fr["b"].where(fr["b"].notna(), "<null>")
            fr.sort_values(["grouping_id", "a", "b"], inplace=True)
            fr.reset_index(drop=True, inplace=True)
        assert got["n"].astype("int64").tolist() == want["n"].astype("int64").tolist()
        assert got["v"].astype("int64").tolist() == want["v"].astype("int64").tolist()
        assert got["a"].tolist() == want["a"].tolist()
        assert got["b"].tolist() == want["b"].tolist()

    check()


def test_grouping_sets_custom_sets_sentinel_collision_is_loud(ray_session):
    """With custom ``sets`` that omit the full key set there are no
    grouping_id==0 rows — the collision check must key off each
    column's own grouping bit or a data value equal to the sentinel is
    silently rewritten to NULL (review finding)."""
    import ray.data

    from fetch_engines_ray.ops.rollup import _ALL, grouping_sets_aggregate

    rows = [
        {"a": _ALL, "b": "x", "v": 1},
        {"a": "real", "b": "y", "v": 2},
    ]
    ds = ray.data.from_items(rows)
    with pytest.raises(AssertionError, match="sentinel collision"):
        grouping_sets_aggregate(ds, keys=["a", "b"], sum_cols=["v"], sets=[("a",), ()])


def test_grouping_sets_custom_sets_duckdb_parity(ray_session):
    """Custom grouping sets (no full key set) still match DuckDB."""
    import duckdb

    import ray.data
    from fetch_engines_ray.ops.rollup import grouping_sets_aggregate

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "a": rng.choice(["p", "q", "r"], size=500),
            "b": rng.choice(["u", "v"], size=500),
            "v": rng.integers(0, 100, size=500),
        }
    )
    got = grouping_sets_aggregate(
        ray.data.from_pandas(df), keys=["a", "b"], sum_cols=["v"], sets=[("a",), ()]
    )
    want = duckdb.sql(
        "SELECT a, NULL AS b, CAST(count(*) AS BIGINT) AS n_rows,"
        " CAST(sum(v) AS BIGINT) AS v FROM df GROUP BY a"
        " UNION ALL SELECT NULL, NULL, CAST(count(*) AS BIGINT),"
        " CAST(sum(v) AS BIGINT) FROM df"
    ).df()
    got_a = got[got["grouping_id"] == 0b01].sort_values("a").reset_index(drop=True)
    want_a = want[want["a"].notna()].sort_values("a").reset_index(drop=True)
    assert (got_a["a"].to_numpy() == want_a["a"].to_numpy()).all()
    assert (got_a["v"].astype("int64").to_numpy() == want_a["v"].astype("int64").to_numpy()).all()
    got_all = got[got["grouping_id"] == 0b11]
    assert int(got_all["v"].iloc[0]) == int(df["v"].sum())
