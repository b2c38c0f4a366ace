"""Generic window functions (ops/window.py) pytest-oracled against
DuckDB window SQL over the REAL testdata events table — LAG/LEAD match
exactly, including partition edges and tie ordering."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def events_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["user_id", "ts", "value"]
    )


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT user_id, ts, value FROM read_parquet('{SF}/events.parquet')")
    return con.execute(sql).df()


def test_lag_lead_matches_duckdb(events_ds):
    from fetch_engines_ray.ops.window import lag_lead

    got = (
        lag_lead(events_ds, "user_id", "ts", "value")
        .to_pandas()
        .sort_values(["user_id", "ts", "value"], kind="mergesort")
        .reset_index(drop=True)
    )
    want = _oracle(
        "SELECT user_id, ts, value,"
        " lag(value) OVER w AS value_lag,"
        " lead(value) OVER w AS value_lead"
        " FROM events"
        " WINDOW w AS (PARTITION BY user_id ORDER BY ts, value)"
        " ORDER BY user_id, ts, value"
    )
    assert len(got) == len(want)
    for c in ("value_lag", "value_lead"):
        a, b = got[c].to_numpy(), want[c].to_numpy()
        both_nan = np.isnan(a) & np.isnan(b)
        assert (both_nan | (a == b)).all(), c
