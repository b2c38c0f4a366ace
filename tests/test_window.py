"""Generic window functions (ops/window.py) pytest-oracled against
DuckDB window SQL over the REAL testdata events table — LAG/LEAD match
exactly, including partition edges and tie ordering — and the
distributed asof join against pandas ``merge_asof``."""

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


def test_generic_asof_join_matches_pandas(ray_session):
    """Distributed asof_join (tagged-union hash partition + one
    merge_asof per part) equals a single-process pandas merge_asof for
    backward/forward/nearest and with a tolerance; unmatched left rows
    survive with nulls."""
    import ray.data

    from fetch_engines_ray.ops.rangejoin import asof_join

    rng = np.random.RandomState(13)
    syms = [f"S{i}" for i in range(17)]
    trades = pd.DataFrame(
        {
            "ts": rng.randint(0, 10_000, 800).astype("int64"),
            "sym": rng.choice(syms, 800),
            "qty": rng.randint(1, 100, 800).astype("int64"),
        }
    )
    quotes = pd.DataFrame(
        {
            "ts": rng.randint(0, 10_000, 600).astype("int64"),
            "sym": rng.choice(syms[:12], 600),  # some syms have NO quotes
            "px": rng.randint(100, 200, 600).astype("int64"),
        }
    )

    def reference(direction, tolerance=None):
        lt = trades.sort_values("ts", kind="mergesort")
        rt = quotes.sort_values("ts", kind="mergesort")
        return pd.merge_asof(
            lt, rt, on="ts", by="sym", direction=direction, tolerance=tolerance
        )

    for direction, tol in (("backward", None), ("forward", None),
                           ("nearest", None), ("backward", 50)):
        got = (
            asof_join(
                ray.data.from_pandas(trades).repartition(5),
                ray.data.from_pandas(quotes).repartition(4),
                on="ts",
                by="sym",
                direction=direction,
                tolerance=tol,
                n_parts=8,
            )
            .to_pandas()
        )
        want = reference(direction, tol)
        key = ["sym", "ts", "qty"]
        got = got.sort_values(key, kind="mergesort").reset_index(drop=True)
        want = want.sort_values(key, kind="mergesort").reset_index(drop=True)
        assert len(got) == len(want), direction
        ga = got["px"].to_numpy(dtype="float64", na_value=np.nan)
        wa = want["px"].to_numpy(dtype="float64", na_value=np.nan)
        both_nan = np.isnan(ga) & np.isnan(wa)
        assert (both_nan | (ga == wa)).all(), (direction, tol)
        # no-quote symbols survived with null px
        assert got[got["sym"] == "S15"]["px"].isna().all()

    with pytest.raises(ValueError, match="direction"):
        asof_join(
            ray.data.from_pandas(trades), ray.data.from_pandas(quotes),
            on="ts", by="sym", direction="sideways",
        )
