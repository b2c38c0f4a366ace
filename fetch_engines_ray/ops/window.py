"""Generic partitioned window functions: lag / lead.

SQL's ``LAG(x) OVER (PARTITION BY k ORDER BY t)`` family.  The engine
already ships special-cases (sessionize's per-user deltas, tumbling /
hopping windows, top-k per group); this module is the GENERIC form a
reference user reaches for when their window isn't one of those.

Ray-Data shape (the line-dedup lesson, BASELINE.md): never
``map_groups`` per partition key — Ray dispatches ~2 ms per group, so a
per-user window over 10^9 users would burn CPU-days on dispatch alone.
Instead the PARTITION KEY is hash-partitioned into a bounded number of
parts through ``ops/exchange.co_group`` (keys never straddle parts)
and ONE vectorized pandas pass runs per part: ``sort_values`` +
``groupby(...).shift`` are C-level over the whole part.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import pandas as pd
import pyarrow as pa

from .exchange import co_group

if TYPE_CHECKING:  # pragma: no cover
    import ray


def lag_lead(
    ds: "ray.data.Dataset",
    partition_by: str,
    order_by: str,
    value_col: str,
    n: int = 1,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Adds ``<value_col>_lag`` and ``<value_col>_lead`` (nulls at
    partition edges), ordering each partition by ``(order_by, value_col)``
    — the deterministic tie rule a hash-comparable result needs."""

    def window_part(part: pa.Table) -> pd.DataFrame:
        g = part.to_pandas().sort_values([partition_by, order_by, value_col], kind="mergesort")
        grp = g.groupby(partition_by, sort=False)[value_col]
        g[f"{value_col}_lag"] = grp.shift(n)
        g[f"{value_col}_lead"] = grp.shift(-n)
        return g

    return co_group([(ds, partition_by)], n_parts, window_part)
