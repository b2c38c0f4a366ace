"""Multi-level grouped aggregation in ONE shuffle (GROUPING SETS /
ROLLUP / CUBE).

The naive plan for ``GROUP BY ROLLUP(a, b)`` is three separate
``groupby().aggregate()`` passes — three all-to-all shuffles over the
same corpus-sized input.  At 100 TB that triples the exchange cost for
aggregates whose outputs are all cardinality-bounded.  This operator
does what a database's grouping-sets rewrite does, Ray-Data-first:

* **per block** (inside ``map_batches``): one pandas partial aggregate
  PER GROUPING SET, each partial row tagged with the SQL
  ``GROUPING()`` bitmask and absent key columns filled with a
  sentinel.  A block with ``r`` rows emits at most
  ``sum(per-set block cardinality)`` partial rows — group-bounded, not
  row-bounded;
* **global**: ONE ``groupby(grouping_id, *keys)`` summing the partial
  counts/sums.  All levels ride a single shuffle whose input is
  already pre-aggregated to group cardinality.

The sentinel never leaves the operator: finalize maps it back to real
NULLs, so output rows match ANSI ``GROUP BY ROLLUP`` (NULL key +
``GROUPING()`` bitmask to disambiguate from genuine NULL data keys).

Reference analog: the per-archetype THEN overall pass-rate rollup of
the eval report sink (/root/reference/test/generate-eval-report.ts —
aggregate per case class, then the overall gate row), generalized to
arbitrary grouping sets.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pandas as pd

import ray.data
from ray.data.aggregate import Sum

# Unit-separator framing makes collision with real data values
# practically impossible; an assert below makes it loud if it happens.
_ALL = "\x1f__all__\x1f"


def rollup_sets(keys: Sequence[str]) -> list[tuple[str, ...]]:
    """The ANSI ROLLUP lattice: (a,b,c) -> [(a,b,c), (a,b), (a,), ()]."""
    ks = list(keys)
    return [tuple(ks[:i]) for i in range(len(ks), -1, -1)]


def _grouping_id(keys: Sequence[str], gset: Sequence[str]) -> int:
    """SQL ``GROUPING(k1, .., kn)``: bit i (MSB-first) set iff key i is
    aggregated away in this set."""
    gid = 0
    present = set(gset)
    for k in keys:
        gid = (gid << 1) | (0 if k in present else 1)
    return gid


def grouping_sets_aggregate(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    sum_cols: Sequence[str],
    sets: Optional[Sequence[Sequence[str]]] = None,
    count_alias: str = "n_rows",
) -> pd.DataFrame:
    """Aggregate ``sum_cols`` (plus a row count) at every grouping set.

    ``keys`` must be string-typed columns (the usual shape for
    categorical rollups); ``sets`` defaults to the ROLLUP lattice.
    Returns a pandas frame with columns
    ``[*keys, 'grouping_id', count_alias, *sum_cols]`` where absent
    keys are real ``None``s — exactly DuckDB's
    ``GROUP BY GROUPING SETS`` output shape.
    """
    keys = list(keys)
    sum_cols = list(sum_cols)
    gsets = [tuple(s) for s in (sets if sets is not None else rollup_sets(keys))]
    for s in gsets:
        unknown = set(s) - set(keys)
        if unknown:
            raise ValueError(f"grouping set {s} references non-keys {unknown}")
    gids = [_grouping_id(keys, s) for s in gsets]
    if len(set(gids)) != len(gids):
        raise ValueError("duplicate grouping sets")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        pieces = []
        for gset, gid in zip(gsets, gids):
            if gset:
                g = batch.groupby(list(gset), dropna=False, observed=True, sort=False)
                agg = g[sum_cols].sum() if sum_cols else g.size().to_frame("_drop")[[]]
                agg[count_alias] = g.size()
                agg = agg.reset_index()
            else:
                row = {c: [batch[c].sum()] for c in sum_cols}
                row[count_alias] = [len(batch)]
                agg = pd.DataFrame(row)
            for k in keys:
                if k not in gset:
                    agg[k] = _ALL
            agg["grouping_id"] = gid
            pieces.append(agg[keys + ["grouping_id", count_alias] + sum_cols])
        return pd.concat(pieces, ignore_index=True)

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    out = (
        partials.groupby(keys + ["grouping_id"])
        .aggregate(
            Sum(count_alias, alias_name=count_alias),
            *[Sum(c, alias_name=c) for c in sum_cols],
        )
        .to_pandas()
    )
    for i, k in enumerate(keys):
        col = out[k]
        # a real data value colliding with the sentinel would silently
        # merge a data group into the subtotal row — make it loud.  The
        # sentinel is legitimate ONLY where this key's grouping bit is
        # set (checking gid==0 alone misses custom ``sets`` that omit
        # the full key set — the collision then slips through unseen)
        bit = 1 << (len(keys) - 1 - i)
        aggregated_away = (out["grouping_id"] & bit) != 0
        assert not ((col == _ALL) & ~aggregated_away).any(), (
            f"sentinel collision in key column {k!r}"
        )
        out[k] = col.where(~aggregated_away, None)
    sort_cols = ["grouping_id"] + keys
    return (
        out.sort_values(sort_cols, na_position="last")
        .reset_index(drop=True)[keys + ["grouping_id", count_alias] + sum_cols]
    )


def lineitem_pricing_rollup(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q1-shaped pricing summary at EVERY rollup level —
    (flag, status), (flag), and grand total — in one shuffle.

    Money rides as exact scaled integers end-to-end (the relational
    family's contract): quantity in hundredths, discounted revenue in
    1e-4 units, finalized to SQL-round semantics on the driver.  NULL
    subtotal keys are emitted as the literal ``'(all)'`` (with
    ``grouping_id`` disambiguating) so the result hashes stably against
    the DuckDB oracle's ``coalesce``d ROLLUP output.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from .relational import _read

    def prep(batch: pa.Table) -> pa.Table:
        qty_i = pc.cast(
            pc.round(
                pc.multiply(batch["l_quantity"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        rev_i = pc.cast(
            pc.round(
                pc.multiply(rev, pa.scalar(10000.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_i": qty_i,
                "rev_i": rev_i,
            }
        )

    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(prep, batch_format="pyarrow", batch_size=65536)
    out = grouping_sets_aggregate(
        ds,
        keys=["l_returnflag", "l_linestatus"],
        sum_cols=["qty_i", "rev_i"],
        count_alias="n_items",
    )
    for k in ("l_returnflag", "l_linestatus"):
        out[k] = out[k].fillna("(all)")
    out["sum_qty"] = out["qty_i"] / 100.0
    # 3dp half-away-from-zero in integer space (matches SQL round())
    out["revenue"] = ((out["rev_i"] + 5) // 10) / 1000.0
    out = out.drop(columns=["qty_i", "rev_i"])
    out["n_items"] = out["n_items"].astype("int64")
    out["grouping_id"] = out["grouping_id"].astype("int64")
    return out.sort_values(["grouping_id", "l_returnflag", "l_linestatus"]).reset_index(
        drop=True
    )


def lineitem_pricing_rollup_sql() -> str:
    """DuckDB oracle for :func:`lineitem_pricing_rollup` — ANSI
    ``GROUP BY ROLLUP`` with the same integer-space money arithmetic."""
    qty_i = "CAST(round(l_quantity * 100.0) AS BIGINT)"
    rev_i = "CAST(round(l_extendedprice * (1.0 - l_discount) * 10000.0) AS BIGINT)"
    return (
        "SELECT coalesce(l_returnflag, '(all)') AS l_returnflag,"
        " coalesce(l_linestatus, '(all)') AS l_linestatus,"
        " CAST(GROUPING(l_returnflag, l_linestatus) AS BIGINT) AS grouping_id,"
        " count(*) AS n_items,"
        f" sum({qty_i}) / 100.0 AS sum_qty,"
        f" ((sum({rev_i}) + 5) // 10) / 1000.0 AS revenue"
        " FROM lineitem"
        " GROUP BY ROLLUP(l_returnflag, l_linestatus)"
        " ORDER BY grouping_id, l_returnflag, l_linestatus"
    )
