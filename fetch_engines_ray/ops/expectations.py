"""Declarative data-quality gates over a Dataset, one streaming pass.

Public-knowledge basis: the expectation-suite pattern every data
platform ships (Great Expectations, dbt tests, Deequ): declare per-
column invariants, evaluate them in one pass, fail the pipeline run —
not individual rows — when a gate breaks.  A 100-TB ingest wants this
BETWEEN stages (post-extraction, post-curation, pre-delivery) so a bad
upstream change stops before it burns a full downstream pass.

Supported checks (each maps to a decomposable per-batch partial, so the
whole suite is ONE ``map_batches`` pass + a tiny driver reduce — no
shuffle, nothing row-sized leaves the workers):

- ``not_null(col)``                 — no nulls in ``col``
- ``unique(col)``                   — no duplicate values in ``col``
  (exact, via one distinct-count groupby — the only check that
  shuffles; HLL would be cheaper but approximate)
- ``row_count(lo, hi)``             — total row bounds

``validate`` returns a report frame (check, ok, observed);
``ops/datacard.write_datacard`` renders it as the card's gate table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

import pandas as pd
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray


@dataclass(frozen=True)
class Check:
    kind: str
    col: Optional[str] = None
    lo: Any = None
    hi: Any = None

    def label(self) -> str:
        if self.kind == "row_count":
            return f"row_count[{self.lo},{self.hi}]"
        return f"{self.kind}({self.col})"


def not_null(col: str) -> Check:
    return Check("not_null", col)


def unique(col: str) -> Check:
    return Check("unique", col)


def row_count(lo: int, hi: Optional[int] = None) -> Check:
    return Check("row_count", lo=lo, hi=hi if hi is not None else (1 << 62))


def validate(ds: "ray.data.Dataset", checks: Sequence[Check]) -> pd.DataFrame:
    """Evaluate every check; returns ``(check, ok, observed)`` rows.

    All non-unique checks share ONE map_batches pass (per-batch partial
    counters reduced on the driver); each ``unique`` check adds one
    distinct-count groupby."""
    cols = sorted({c.col for c in checks if c.kind == "not_null"})

    def partial(batch: pa.Table) -> pa.Table:
        rec: dict[str, Any] = {"__rows": batch.num_rows}
        for col in cols:
            rec[f"{col}__nulls"] = batch[col].null_count
        return pa.Table.from_pylist([rec])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    totals = partials.sum(numeric_only=True) if len(partials) else pd.Series(dtype="int64")
    n_rows = int(totals.get("__rows", 0))

    rows = []
    for c in checks:
        if c.kind == "row_count":
            ok = c.lo <= n_rows <= c.hi
            rows.append((c.label(), ok, n_rows))
        elif c.kind == "not_null":
            nulls = int(totals.get(f"{c.col}__nulls", 0))
            rows.append((c.label(), nulls == 0, nulls))
        elif c.kind == "unique":
            from ray.data.aggregate import Count

            distinct = ds.groupby(c.col).aggregate(Count(alias_name="_c")).count()
            rows.append((c.label(), distinct == n_rows, n_rows - distinct))
        else:  # pragma: no cover
            raise ValueError(f"unknown check kind {c.kind}")
    return pd.DataFrame(rows, columns=["check", "ok", "observed"])
