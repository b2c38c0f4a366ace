"""Generic relational operators over the TPC-H-ish test tables.

Demonstrates the engine's wide-operation parity (groupby / sort / join /
distinct / filter) the Ray-Data-first way:

* aggregations pre-combine inside ``map_batches`` only when needed —
  Ray Data's ``groupby().aggregate()`` already does partial aggregation
  per block before the shuffle;
* joins go through ``ops/dedup.attach``: a small right side is read
  once, put in the object store (``ray.put``) and joined onto every
  ``map_batches`` batch — no all-to-all shuffle — and a large one
  co-locates with the left side through the engine's one exchange;
* sorts that feed a ``limit(k)`` keep only per-block top-k first.

Every function returns columns named to match its DuckDB oracle SQL in
``__ray_entry__.oracle_sql`` exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from fetch_engines_ray.arrowclean import read_parquet_clean
from fetch_engines_ray.ops.dedup import attach
from ray.data.aggregate import Count, Mean, Sum


def _read(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _round_cols(df: pd.DataFrame, cols: list[str], nd: int = 3) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].round(nd)
    return df


# ---------------------------------------------------------------------------
# Aggregations
# ---------------------------------------------------------------------------

def lineitem_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped: grouped pricing summary with derived revenue."""
    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def add_disc_price(batch: pa.Table) -> pa.Table:
        # prices are 2-decimal, discounts 2-decimal → disc_price is an
        # exact multiple of 1e-4.  Sum in integer 1e-4 units (int64) so
        # the aggregate is EXACT and order-independent: float sums land
        # on either side of a round(3) boundary depending on block
        # order, which flaked the oracle hash at sf0.001.
        disc = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        disc_i = pc.cast(pc.round(pc.multiply(disc, pa.scalar(10000.0)), round_mode="half_towards_infinity"), pa.int64())
        base_i = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], pa.scalar(100.0)), round_mode="half_towards_infinity"), pa.int64()
        )
        batch = batch.append_column("disc_price_i", disc_i)
        return batch.append_column("base_price_i", base_i)

    ds = ds.map_batches(add_disc_price, batch_format="pyarrow", batch_size=65536)
    out = (
        ds.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("base_price_i", alias_name="base_price_i"),
            Sum("disc_price_i", alias_name="disc_price_i"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    out["sum_base_price"] = out["base_price_i"] / 100.0
    # round to 3dp in INTEGER space, half away from zero (matching SQL
    # round()): a 1e-4-exact sum can land exactly on the 3dp half
    # boundary, where pandas' half-even disagrees with DuckDB
    out["sum_disc_price"] = ((out["disc_price_i"] + 5) // 10) / 1000.0
    out = out.drop(columns=["base_price_i", "disc_price_i"])
    out = out[
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
         "sum_disc_price", "avg_qty", "count_order"]
    ]
    out = _round_cols(out, ["sum_qty", "sum_base_price", "avg_qty"])
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Distinct, joins (ops/dedup.attach), windows, top-k
# ---------------------------------------------------------------------------

def distinct_users_by_event_type(sf_dir: str) -> pd.DataFrame:
    """COUNT(DISTINCT …) composed from two grouped passes: the first
    groupby dedups (event_type, user_id) pairs with partial aggregation
    per block, so the second shuffle sees only distinct pairs."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    pairs = ds.groupby(["event_type", "user_id"]).aggregate(Count(alias_name="_n"))
    out = (
        pairs.groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
        .to_pandas()
    )
    return out.sort_values("event_type").reset_index(drop=True)


def revenue_by_orderpriority(sf_dir: str) -> pd.DataFrame:
    """lineitem ⋈ orders on orderkey, then a grouped rollup on the
    joined stream.  ``attach`` broadcasts the orders side while it is
    small and partitions both sides once it is not."""
    lineitem = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        # exact 1e-4-unit integers (2dp price x 2dp discount factor)
        rev_i = pc.cast(pc.round(pc.multiply(rev, pa.scalar(10000.0)), round_mode="half_towards_infinity"), pa.int64())
        return pa.table({"l_orderkey": batch.column("l_orderkey"), "rev_i": rev_i})

    lineitem = lineitem.map_batches(revenue, batch_format="pyarrow", batch_size=8192)
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = attach(lineitem, orders, "l_orderkey", "o_orderkey")
    out = (
        joined.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_items"), Sum("rev_i", alias_name="rev_i"))
        .to_pandas()
    )
    # 3dp half-away-from-zero in integer space (matches SQL round())
    out["revenue"] = ((out["rev_i"] + 5) // 10) / 1000.0
    out = out.drop(columns=["rev_i"])
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def events_tumbling_window(sf_dir: str, window_minutes: int = 60) -> pd.DataFrame:
    """Tumbling-window aggregate over the event stream: count + value
    sum per [window_start, window_start + w) bucket.  The bucket key is
    computed vectorized per batch (epoch floor-div), so the only wide
    op is the final grouped rollup — the streaming-window shape for a
    replayed log."""
    ds = _read(sf_dir, "events", columns=["ts", "value"])
    w_us = window_minutes * 60 * 1_000_000

    def bucket(batch: pa.Table) -> pa.Table:
        # integer epoch-second window key: timezone-free and exact-hash
        # stable against the SQL oracle (no strftime/locale drift).
        # FLOOR division via numpy `//` — pc.divide truncates toward
        # zero, putting pre-1970 timestamps in the wrong bucket (the
        # hopping window and the DuckDB oracle both floor)
        # normalize to MICROSECOND precision first: a ns-precision
        # events table (pandas' parquet default) would otherwise yield
        # epoch-ns integers and silently bucket 1000x off
        ts_us = pc.cast(batch.column("ts"), pa.timestamp("us"))
        epoch_us = pc.cast(ts_us, pa.int64()).combine_chunks().to_numpy()
        win = (epoch_us // w_us) * (window_minutes * 60)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), pa.scalar(100.0)), round_mode="half_towards_infinity"), pa.int64()
        )
        return pa.table(
            {"window_start": pa.array(win, type=pa.int64()), "cents": cents}
        )

    out = (
        ds.map_batches(bucket, batch_format="pyarrow", batch_size=65536)
        .groupby("window_start")
        .aggregate(Count(alias_name="n_events"), Sum("cents", alias_name="cents"))
        .to_pandas()
    )
    out["total_value"] = out["cents"] / 100.0
    out = out.drop(columns=["cents"])
    out = _round_cols(out, ["total_value"])
    return out.sort_values("window_start").reset_index(drop=True)


def events_hopping_window(
    sf_dir: str, window_minutes: int = 60, hop_minutes: int = 30
) -> pd.DataFrame:
    """Hopping (sliding) window aggregate: count + value sum per
    [window_start, window_start + w) for windows starting every hop h
    (w must be a multiple of h).  Each event is replicated into the
    m = w/h windows covering it with one vectorized numpy repeat inside
    ``map_batches`` — the replication factor is the constant m, not data
    size — so the only wide op stays the final grouped rollup."""
    assert window_minutes % hop_minutes == 0
    m = window_minutes // hop_minutes
    h_us = hop_minutes * 60 * 1_000_000
    hop_s = hop_minutes * 60
    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def explode(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("ts"), pa.timestamp("us"))
        epoch_us = pc.cast(ts_us, pa.int64()).combine_chunks().to_numpy()
        vals = batch.column("value").combine_chunks().to_numpy(zero_copy_only=False)
        # half-away-from-zero like every other int-scaled money site
        # (np.rint is half-even and diverges from SQL round() on
        # half-cent inputs)
        scaled = vals * 100.0
        cents = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)
        b = epoch_us // h_us  # hop-bucket index of each event
        # an event in hop bucket b lies inside windows starting at
        # (b - i) * hop for i in 0..m-1
        starts = (np.repeat(b, m) - np.tile(np.arange(m, dtype=np.int64), len(b))) * hop_s
        return pa.table(
            {
                "window_start": pa.array(starts, type=pa.int64()),
                "cents": pa.array(np.repeat(cents, m)),
            }
        )

    out = (
        ds.map_batches(explode, batch_format="pyarrow", batch_size=65536)
        .groupby("window_start")
        .aggregate(Count(alias_name="n_events"), Sum("cents", alias_name="cents"))
        .to_pandas()
    )
    out["total_value"] = out["cents"] / 100.0
    out = out.drop(columns=["cents"])
    out = _round_cols(out, ["total_value"])
    return out.sort_values("window_start").reset_index(drop=True)


def top_docs_per_lang(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k rows per group (longest docs per language) with a
    per-block combiner: each block reduces to at most k rows per group
    BEFORE the shuffle, so the grouped finalize sees ~k × num_blocks
    rows per group instead of the whole corpus — the scale shape for
    rank-within-group over 10^12 rows.  Ties break on doc_id asc."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        return pa.Table.from_pandas(df.groupby("lang", sort=False).head(k), preserve_index=False)

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(k)
        group["rank"] = np.arange(1, len(group) + 1, dtype=np.int64)
        return group

    out = (
        ds.map_batches(partial_topk, batch_format="pyarrow", batch_size=65536)
        .groupby("lang")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["lang", "rank"]).reset_index(drop=True)


def user_sessions(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Sessionization (session windows): per-user event runs split on
    inactivity gaps > ``gap_minutes``.

    The wide op is ONE ``groupby(user_id).map_groups`` — each group
    sorts its own events and derives session boundaries vectorized
    (numpy diff on epoch seconds), so no cross-group state and no
    second shuffle.  Equivalent SQL needs lag() + a windowed running
    sum; see the oracle in __ray_entry__.oracle_sql.
    """
    gap_s = gap_minutes * 60
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "value"])

    def sessionize(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["ts", "event_id"])
        # microsecond integers end-to-end: fractional-second gaps and
        # round-vs-floor casts otherwise drift off the SQL oracle
        epoch_us = g["ts"].astype("datetime64[us]").astype("int64")
        new_sess = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            new_sess[1:] = (np.diff(epoch_us.to_numpy()) > gap_s * 1_000_000).astype(np.int64)
        sess_idx = np.cumsum(new_sess) - 1
        g = g.assign(session_idx=sess_idx, epoch=epoch_us // 1_000_000)
        out = (
            g.groupby("session_idx", as_index=False)
            .agg(
                n_events=("event_id", "size"),
                start_epoch=("epoch", "min"),
                total_value=("value", "sum"),
            )
        )
        out.insert(0, "user_id", g["user_id"].iloc[0])
        out["n_events"] = out["n_events"].astype("int64")
        out["total_value"] = out["total_value"].round(3)
        return out[["user_id", "session_idx", "n_events", "start_epoch", "total_value"]]

    out = (
        ds.groupby("user_id")
        .map_groups(sessionize, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["user_id", "session_idx"]).reset_index(drop=True)


def events_last_order_asof(sf_dir: str) -> pd.DataFrame:
    """AS-OF JOIN: for every event, the date of the same customer's
    latest order at-or-before the event time (-1 if none).

    Ray Data has no asof-join primitive; the Ray-Data-first composition
    is a tagged UNION of both streams followed by ONE
    ``groupby(key).map_groups`` — each group sorts its own order dates
    once and resolves all its events with a vectorized searchsorted.
    Output carries the matched order DATE (not key) so equal-date ties
    cannot make the result nondeterministic.  Partitioning assumption:
    one customer's events+orders fit in a group (same as any
    sort-merge-per-key operator; salt the key if a customer is hot).
    """
    events = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def tag_events(batch: pa.Table) -> pa.Table:
        t_us = pc.cast(batch.column("ts"), pa.int64())
        return pa.table(
            {
                "key": pc.cast(batch.column("user_id"), pa.int64()),
                "t_us": t_us,
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        t_us = pc.cast(batch.column("o_orderdate"), pa.int64())
        return pa.table(
            {
                "key": pc.cast(batch.column("o_custkey"), pa.int64()),
                "t_us": t_us,
                "event_id": pa.array([-1] * batch.num_rows, type=pa.int64()),
            }
        )

    tagged = events.map_batches(tag_events, batch_format="pyarrow", batch_size=65536).union(
        orders.map_batches(tag_orders, batch_format="pyarrow", batch_size=65536)
    )

    def asof(group: pd.DataFrame) -> pd.DataFrame:
        ev = group[group["event_id"] >= 0]
        od = np.sort(group.loc[group["event_id"] < 0, "t_us"].to_numpy())
        if len(ev) == 0:
            return pd.DataFrame(columns=["event_id", "user_id", "last_order_epoch"])
        ev_t = ev["t_us"].to_numpy()
        if len(od) == 0:
            matched = np.full(len(ev), -1, dtype=np.int64)
        else:
            idx = np.searchsorted(od, ev_t, side="right") - 1
            matched = np.where(idx >= 0, od[np.clip(idx, 0, None)] // 1_000_000, -1)
        return pd.DataFrame(
            {
                "event_id": ev["event_id"].to_numpy(),
                "user_id": ev["key"].to_numpy(),
                "last_order_epoch": matched.astype("int64"),
            }
        )

    out = tagged.groupby("key").map_groups(asof, batch_format="pandas").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def events_props_k_by_type(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: the events table carries a JSON
    ``props`` column ('{"k": 87}'); extract the integer field with a
    vectorized regex (no per-row json.loads) and roll it up per
    event_type.  Oracle: DuckDB json_extract."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract_k(batch: pa.Table) -> pa.Table:
        k = pc.extract_regex(batch.column("props"), pattern=r'"k":\s*(?P<k>-?\d+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64())
        return pa.table({"event_type": batch.column("event_type"), "k": kv})

    out = (
        ds.map_batches(extract_k, batch_format="pyarrow", batch_size=65536)
        .groupby("event_type")
        .aggregate(Count(alias_name="n_events"), Sum("k", alias_name="k_total"))
        .to_pandas()
    )
    out["k_total"] = out["k_total"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def customer_order_full_outer(
    sf_dir: str,
    min_acctbal: float = 7000.0,
    min_total: float = 400000.0,
) -> pd.DataFrame:
    """Distributed FULL OUTER join (``attach(how="full")``):
    high-balance customers vs per-customer counts of high-value
    orders.  Both sides keep
    unmatched rows — customers with no qualifying order carry
    ``n_orders`` 0, qualifying orders whose customer misses the balance
    cut carry ``c_acctbal_cents`` -1 — so the result is the union of
    both key spaces (the reconciliation-report shape).  Orders
    pre-aggregate to one row per customer before the exchange."""
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def keep_high(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(batch["c_acctbal"], pa.scalar(min_acctbal))
        )
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["c_acctbal"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table({"c_custkey": batch["c_custkey"], "c_acctbal_cents": cents})

    left = cust.map_batches(keep_high, batch_format="pyarrow", batch_size=8192)
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    per_cust = (
        orders.map_batches(
            lambda b: b.filter(pc.greater(b["o_totalprice"], pa.scalar(min_total))),
            batch_format="pyarrow",
            batch_size=8192,
        )
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_orders"))
    )
    out = attach(left, per_cust, "c_custkey", "o_custkey", how="full").to_pandas()
    res = pd.DataFrame(
        {
            "custkey": out["c_custkey"].astype("int64"),
            "c_acctbal_cents": out["c_acctbal_cents"].fillna(-1).astype("int64"),
            "n_orders": out["n_orders"].fillna(0).astype("int64"),
        }
    )
    return res.sort_values("custkey").reset_index(drop=True)
