"""Regression pins for the relational/window review findings (typed
empty blocks, floor-division windows, rounding modes, batched quantile
narrowing)."""

import numpy as np
import pandas as pd


def test_heavy_hitters_exact_blocks_without_candidates(ray_session):
    """A block containing none of the broadcast candidates used to emit
    a null-typed empty 'value' column that broke schema unification in
    the recount groupby (review finding)."""
    import ray.data

    from fetch_engines_ray.ops.sketches import heavy_hitters_exact

    # block 0: one dominant value; block 1: all-unique values that can
    # never be candidates (capacity small)
    rows = [{"w": "hot"}] * 50 + [{"w": f"unique-{i}"} for i in range(50)]
    ds = ray.data.from_items(rows).repartition(4)
    out = heavy_hitters_exact(ds, "w", k=1, capacity=2)
    assert out["value"].iloc[0] == "hot"
    assert int(out["count"].iloc[0]) == 50


def test_tumbling_window_floors_pre_epoch_timestamps(ray_session, tmp_path):
    """pc.divide truncates toward zero, so a 1969 timestamp landed in
    window 0 instead of -3600 — the engine must FLOOR like the hopping
    window and the DuckDB oracle (review finding)."""
    import duckdb

    from fetch_engines_ray.ops.relational import events_tumbling_window

    df = pd.DataFrame(
        {
            "ts": pd.to_datetime(
                ["1969-12-31 23:30:00", "1970-01-01 00:30:00", "1970-01-01 01:30:00"]
            ),
            "value": [1.0, 2.0, 4.0],
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    df.to_parquet(sf / "events.parquet")
    got = events_tumbling_window(str(sf))
    want = duckdb.sql(
        "SELECT CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS window_start,"
        " count(*) AS n, sum(value) AS total FROM df"
        " GROUP BY 1 ORDER BY 1"
    ).df()
    assert got["window_start"].tolist() == want["window_start"].tolist()
    assert got["window_start"].iloc[0] == -3600


def _orders_and_lineitem(sf, orderkeys, line_keys):
    """``orders`` rows ``(o_orderkey, o_orderpriority)`` and one
    lineitem per ``line_keys`` entry (price 10, no discount)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sf.mkdir()
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([k for k, _ in orderkeys], pa.int64()),
                "o_orderpriority": [p for _, p in orderkeys],
            }
        ),
        sf / "orders.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(line_keys, pa.int64()),
                "l_extendedprice": [10.0] * len(line_keys),
                "l_discount": [0.0] * len(line_keys),
            }
        ),
        sf / "lineitem.parquet",
    )
    return str(sf)


def test_revenue_by_orderpriority_consistent_across_join_strategies(
    ray_session, tmp_path, both_join_paths
):
    """A lineitem with no orders row must be dropped (INNER, the SQL
    oracle's semantics) in BOTH the broadcast and partitioned paths — the
    broadcast path used to keep such a row under a phantom '' group
    (review finding)."""
    import fetch_engines_ray.ops.relational as rel

    sf = _orders_and_lineitem(
        tmp_path / "sf", [(1, "1-URGENT"), (2, "2-HIGH")], [1, 1, 2, 99]
    )
    outs = [rel.revenue_by_orderpriority(sf) for _ in both_join_paths()]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert outs[0]["o_orderpriority"].tolist() == ["1-URGENT", "2-HIGH"]
    assert outs[0]["n_items"].tolist() == [2, 1]
    assert float(outs[0]["revenue"].sum()) == 30.0


def test_exact_int_quantiles_multi_rank_batched(ray_session):
    """Multiple ranks must still be exact through the batched one-pass-
    per-level narrowing (and match a sorted-array pick)."""
    import ray.data

    from fetch_engines_ray.ops.sketches import exact_int_quantiles

    rng = np.random.default_rng(9)
    vals = rng.integers(-(2**40), 2**40, size=20_000)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals}))
    s = np.sort(vals)
    ranks = [0, 100, 9_999, 19_000, 19_999]
    got = exact_int_quantiles(ds, "v", ranks, bins=256)
    assert got == [int(s[r]) for r in ranks]


def test_revenue_by_orderpriority_null_key_matches_nothing(
    ray_session, tmp_path, both_join_paths
):
    """A null ``l_orderkey`` must not pick up the priority of a null-key
    orders row (SQL and Arrow joins match nothing on a null key): the
    inner join drops it on both attach paths."""
    import fetch_engines_ray.ops.relational as rel

    sf = _orders_and_lineitem(
        tmp_path / "sf",
        [(0, "1-URGENT"), (1, "2-HIGH"), (None, "NULL KEY ROW")],
        [0, 0, 1, None],
    )
    for limit in both_join_paths():
        out = rel.revenue_by_orderpriority(sf)
        by = dict(zip(out["o_orderpriority"], out["n_items"]))
        assert by == {"1-URGENT": 2, "2-HIGH": 1}, limit
