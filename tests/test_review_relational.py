"""Regression pins for the relational/window review findings (planner
schema parity, typed empty blocks, floor-division windows, rounding
modes, batched quantile narrowing)."""

import numpy as np
import pandas as pd


def test_auto_join_broadcast_left_keeps_left_key_name(ray_session):
    """The flipped broadcast_left strategy must present the join key
    under the caller's left-key name, exactly like the shuffle and
    broadcast_right strategies — it used to drop BOTH key columns, so a
    downstream groupby broke only once data crossed the planner
    threshold (review finding)."""
    import ray.data

    from fetch_engines_ray.ops.joinplan import auto_join

    cust = ray.data.from_items(
        [{"c_custkey": i, "seg": f"s{i % 3}"} for i in range(10)]
    )
    orders = ray.data.from_items(
        [{"o_custkey": i % 10, "price": float(i)} for i in range(200)]
    )
    # tiny left + big right → planner flips to broadcast_left
    out = auto_join(
        cust, orders, on="c_custkey", right_on="o_custkey",
        left_bytes=100, right_bytes=10**9,
    ).to_pandas()
    assert "c_custkey" in out.columns
    assert "o_custkey" not in out.columns
    assert len(out) == 200
    # and the key VALUES are the join keys, usable for grouping
    assert out.groupby("c_custkey")["price"].count().sum() == 200


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


def test_revenue_by_segment_consistent_across_join_strategies(
    ray_session, tmp_path, monkeypatch
):
    """An order with no customer row must be dropped (INNER, the SQL
    oracle's semantics) in BOTH the broadcast and hash-join paths — the
    broadcast path used to keep it under a phantom '' segment (review
    finding)."""
    import fetch_engines_ray.ops.relational as rel

    cust = pd.DataFrame(
        {"c_custkey": [1, 2], "c_mktsegment": ["AUTO", "HOUSE"]}
    )
    orders = pd.DataFrame(
        {"o_custkey": [1, 1, 2, 99], "o_totalprice": [10.0, 20.0, 30.0, 999.0]}
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    cust.to_parquet(sf / "customer.parquet")
    orders.to_parquet(sf / "orders.parquet")

    broadcast = rel.customer_revenue_by_segment(str(sf))
    monkeypatch.setattr(rel, "BROADCAST_JOIN_MAX_ROWS", 0)
    hashed = rel.customer_revenue_by_segment(str(sf))
    pd.testing.assert_frame_equal(
        broadcast.reset_index(drop=True), hashed.reset_index(drop=True)
    )
    assert broadcast["c_mktsegment"].tolist() == ["AUTO", "HOUSE"]
    assert float(broadcast["revenue"].sum()) == 60.0


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
