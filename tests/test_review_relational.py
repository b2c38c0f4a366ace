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


def test_revenue_by_segment_consistent_across_join_strategies(
    ray_session, tmp_path, monkeypatch
):
    """An order with no customer row must be dropped (INNER, the SQL
    oracle's semantics) in BOTH the broadcast and partitioned paths — the
    broadcast path used to keep it under a phantom '' segment (review
    finding)."""
    import fetch_engines_ray.ops.relational as rel
    from fetch_engines_ray.ops import exchange

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
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
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


def test_supplier_count_by_nation_null_key_matches_nothing(
    ray_session, tmp_path, both_join_paths
):
    """A null ``s_nationkey`` must not pick up the name of a null-key
    nation row (SQL and Arrow joins match nothing on a null key): the
    supplier counts under a null ``n_name`` on both attach paths."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import fetch_engines_ray.ops.relational as rel

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array([0, 1, None], pa.int64()),
                "n_name": ["ALGERIA", "BRAZIL", "NULL KEY ROW"],
            }
        ),
        sf / "nation.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "s_nationkey": pa.array([0, 0, 1, None], pa.int64()),
                "s_acctbal": [1.0, 2.0, 3.0, 4.0],
            }
        ),
        sf / "supplier.parquet",
    )
    for limit in both_join_paths():
        out = rel.supplier_count_by_nation(str(sf))
        by = {
            (None if pd.isna(n) else n): (c, t)
            for n, c, t in zip(out["n_name"], out["n_suppliers"], out["total_acctbal"])
        }
        assert by == {"ALGERIA": (2, 3.0), "BRAZIL": (1, 3.0), None: (1, 4.0)}, limit
