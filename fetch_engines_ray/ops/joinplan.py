"""Cost-based join strategy selection: broadcast vs hash-shuffle.

At 100 TB the single most expensive mistake a pipeline can make is
shuffling a join whose small side would fit in every worker's heap —
or, symmetrically, trying to broadcast a side that does NOT fit.  The
reference engine never joins (it is a per-URL extractor); this module
is engine infrastructure for the analysis tier, making the choice the
way a SQL planner would, from input-size estimates:

- ``min(side) <= broadcast_threshold`` -> **broadcast join**: the small
  side is pulled once (bounded by the threshold), ``ray.put`` once, and
  every big-side batch does a C-level pandas merge — zero shuffle, the
  big side streams.
- otherwise -> **hash-shuffle join**: Ray Data's native distributed
  join, with ``num_partitions`` scaled to the input size (each join
  partition spins up a shuffle aggregator actor — a fixed multi-second
  cost that dwarfs small inputs; see ``relational.py``).

Size estimates should come from :func:`parquet_size_hint` (file bytes
x decompression factor — pure filesystem metadata) passed as
``left_bytes`` / ``right_bytes``; the ``Dataset.size_bytes()`` fallback
EXECUTES the plan to measure it, fine only for small or already
materialized inputs.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import pandas as pd

if TYPE_CHECKING:  # pragma: no cover
    import ray

DEFAULT_BROADCAST_THRESHOLD = 64 << 20  # 64 MiB: comfortable per-worker heap


def parquet_size_hint(path: str, inflate: float = 4.0) -> int:
    """Planning-grade size estimate from parquet FILE bytes — pure
    filesystem metadata, ZERO execution.  ``Dataset.size_bytes()`` is
    NOT metadata-only: on a bare ``read_parquet`` it executes the read
    (measured 5 s on the sf0.1 lineitem table), which defeats the point
    of planning.  ``inflate`` approximates the decompressed in-memory
    blow-up (snappy web-ish data lands ~2-4x; 4 is the conservative
    default — overestimating only flips a borderline broadcast to a
    safe shuffle)."""
    import os

    if os.path.isdir(path):
        total = sum(
            os.path.getsize(os.path.join(r, f))
            for r, _, fs in os.walk(path)
            for f in fs
            if f.endswith(".parquet")
        )
    else:
        total = os.path.getsize(path)
    return int(total * inflate)


def _as_tuple(on: Union[str, Sequence[str]]) -> tuple:
    return (on,) if isinstance(on, str) else tuple(on)


def plan_join(
    left_bytes: int,
    right_bytes: int,
    how: str = "inner",
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
) -> str:
    """Pick a strategy from size estimates:
    ``broadcast_right`` / ``broadcast_left`` / ``shuffle``.

    The preserved side of an outer join cannot be the broadcast side
    without a match-tracking reduce, so ``how="left"`` only broadcasts
    the right side.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how: {how}")
    if right_bytes <= broadcast_threshold:
        return "broadcast_right"
    if left_bytes <= broadcast_threshold and how == "inner":
        return "broadcast_left"
    return "shuffle"


def broadcast_join(
    big: "ray.data.Dataset",
    small: "pd.DataFrame | object",
    big_on: tuple,
    small_on: tuple,
    how: str = "inner",
    drop_cols: tuple = (),
    rename_map: "dict | None" = None,
) -> "ray.data.Dataset":
    """Join a streaming big side against a driver-resident small side:
    the small table is ``ray.put`` ONCE **as Arrow** (``ray.get`` is
    then zero-copy per task — a pandas frame here would re-unpickle its
    object-dtype columns on EVERY batch, measured 5x slower end-to-end
    at sf0.1), and each big-side batch runs one C++-level
    ``pyarrow.Table.join`` — no shuffle, output order follows the big
    side's blocks.  ``how`` is relative to the big side (inner/left);
    ``drop_cols`` removes duplicated key columns after the merge (so
    the output schema matches Ray's native join, which keeps only the
    left-side key); ``rename_map`` renames surviving columns after the
    merge (the flipped broadcast_left path uses it to present the BIG
    side's key under the caller's left-key name, keeping the output
    schema identical across planner strategies)."""
    import pyarrow as pa
    import ray as _ray

    small_tbl = (
        pa.Table.from_pandas(small, preserve_index=False)
        if isinstance(small, pd.DataFrame)
        else small
    )
    join_type = {"inner": "inner", "left": "left outer"}[how]
    small_ref = _ray.put(small_tbl.combine_chunks())

    def merge(batch: pa.Table) -> pa.Table:
        s = _ray.get(small_ref)
        out = batch.join(
            s, keys=list(big_on), right_keys=list(small_on), join_type=join_type
        )
        out = out.drop_columns([c for c in drop_cols if c in out.column_names])
        if rename_map:
            out = out.rename_columns(
                [rename_map.get(c, c) for c in out.column_names]
            )
        return out

    return big.map_batches(merge, batch_format="pyarrow", batch_size=65536)


def auto_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Union[str, Sequence[str]],
    right_on: Optional[Union[str, Sequence[str]]] = None,
    how: str = "inner",
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
    num_partitions: Optional[int] = None,
    left_bytes: Optional[int] = None,
    right_bytes: Optional[int] = None,
) -> "ray.data.Dataset":
    """Join with the strategy chosen by :func:`plan_join`.

    PASS SIZE HINTS (``left_bytes`` / ``right_bytes``, e.g. from
    :func:`parquet_size_hint`): the ``Dataset.size_bytes()`` fallback
    EXECUTES the plan to measure it — acceptable for small or already
    materialized inputs, a silent extra pass otherwise.

    Non-key output columns must be disjoint between the two sides (the
    same contract as SQL ``NATURAL``-safe joins); the ``right_on`` key
    columns are dropped from the output when their names differ from
    ``on``, matching Ray's native join.
    """
    lo, ro = _as_tuple(on), _as_tuple(right_on if right_on is not None else on)
    if len(lo) != len(ro):
        raise ValueError("on/right_on arity mismatch")
    lb = left_bytes if left_bytes is not None else (left.size_bytes() or 0)
    rb = right_bytes if right_bytes is not None else (right.size_bytes() or 0)
    strategy = plan_join(lb, rb, how=how, broadcast_threshold=broadcast_threshold)

    import pyarrow as pa
    import ray as _ray

    def _collect(side: "ray.data.Dataset") -> "pa.Table":
        # Arrow all the way: to_pandas() would round-trip object dtypes
        return pa.concat_tables(
            _ray.get(r).replace_schema_metadata(None) for r in side.to_arrow_refs()
        )

    dup_keys = tuple(r for l, r in zip(lo, ro) if r != l)
    if strategy == "broadcast_right":
        return broadcast_join(
            left, _collect(right), lo, ro, how=how, drop_cols=dup_keys
        )
    if strategy == "broadcast_left":
        # the flipped join keeps the BIG (right) side's key columns —
        # rename them to the caller's left-key names so the output
        # schema is identical to the shuffle / broadcast_right
        # strategies (dropping them left NO key column at all, and a
        # downstream groupby broke only once data crossed the planner
        # threshold)
        return broadcast_join(
            right,
            _collect(left),
            ro,
            lo,
            how="inner",
            rename_map={r: l for l, r in zip(lo, ro) if r != l},
        )

    if num_partitions is None:
        # one partition per ~128 MiB of the larger side, bounded
        num_partitions = max(2, min(64, int(max(lb, rb)) // (128 << 20) + 1))
    return left.join(
        right,
        join_type=how,
        num_partitions=num_partitions,
        on=lo,
        right_on=ro if ro != lo else None,
    )
