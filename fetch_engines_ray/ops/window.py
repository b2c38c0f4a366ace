"""Generic partitioned window functions: lag / lead.

SQL's ``LAG(x) OVER (PARTITION BY k ORDER BY t)`` family.  The engine
already ships special-cases (sessionize's per-user deltas, tumbling /
hopping windows, top-k per group); this module is the GENERIC form a
reference user reaches for when their window isn't one of those.

Ray-Data shape (the line-dedup lesson, BASELINE.md): never
``map_groups`` per partition key — Ray dispatches ~2 ms per group, so a
per-user window over 10^9 users would burn CPU-days on dispatch alone.
Instead hash-partition the PARTITION KEY into a bounded number of parts
(keys never straddle parts) and run ONE vectorized pandas pass per
part: ``sort_values`` + ``groupby(...).shift`` are C-level over
the whole part.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray


def hash_part(keys, n_parts: int) -> np.ndarray:
    """The engine's partition assignment for arbitrary (string/object)
    keys: ``pd.util.hash_array % n_parts`` — ONE shared implementation
    (asof_join reuses it) so the partitioning idiom cannot drift."""
    return (
        pd.util.hash_array(np.asarray(keys, dtype=object)) % np.uint64(n_parts)
    ).astype(np.int64)


def _with_part(ds: "ray.data.Dataset", partition_by: str, n_parts: int) -> "ray.data.Dataset":
    def add_part(batch: pa.Table) -> pa.Table:
        part = hash_part(batch[partition_by].to_pylist(), n_parts)
        return batch.append_column("__part", pa.array(part))

    return ds.map_batches(add_part, batch_format="pyarrow", batch_size=8192)


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

    def window_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([partition_by, order_by, value_col], kind="mergesort")
        grp = g.groupby(partition_by, sort=False)[value_col]
        g[f"{value_col}_lag"] = grp.shift(n)
        g[f"{value_col}_lead"] = grp.shift(-n)
        return g.drop(columns=["__part"])

    return (
        _with_part(ds, partition_by, n_parts)
        .groupby("__part")
        .map_groups(window_part, batch_format="pandas")
    )
