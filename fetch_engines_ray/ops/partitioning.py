"""Partitioning / skew control (SURVEY.md §4.2, north rule: "documents
are range-partitioned by doc_id with a size-aware repartition to break
skew from mega-pages").

Design at 100 TB: the pre-pass computes per-document span bytes with
vectorized Arrow kernels (no Python loop over rows), then a tiny
driver-side aggregate picks the partition count so that each output
partition holds ~``target_bytes`` of span text.  Mega-docs above the
target become singleton partitions via Ray Data's dynamic block
splitting rather than straggling inside fat blocks.  The only wide
operation is the optional sort in :func:`range_partition_by_doc_id`;
:func:`size_aware_repartition` itself uses the cheaper non-shuffle
``repartition``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

TARGET_PARTITION_BYTES = 64 * 1024 * 1024  # 64 MiB of span text


def _span_bytes_column(spans: pa.ChunkedArray) -> pa.Array:
    """Vectorized per-row sum of span text bytes for a
    list<struct<...,text,...>> column (no Python per-row loop)."""
    out = []
    for chunk in spans.chunks if isinstance(spans, pa.ChunkedArray) else [spans]:
        chunk = chunk.combine_chunks() if isinstance(chunk, pa.ChunkedArray) else chunk
        # Flatten to the struct child, take utf8 byte lengths, then
        # reduce per list via the list offsets.
        offsets = np.asarray(chunk.offsets)
        flat = chunk.flatten()
        text = flat.field("text")
        import pyarrow.compute as pc

        lens = pc.fill_null(pc.binary_length(text), 0)
        csum = np.concatenate([[0], np.cumsum(np.asarray(lens, dtype=np.int64))])
        per_row = csum[offsets[1:] - offsets[0]] - csum[offsets[:-1] - offsets[0]]
        out.append(pa.array(per_row, type=pa.int64()))
    return pa.concat_arrays(out) if len(out) != 1 else out[0]


def add_doc_bytes(batch: pa.Table, spans_column: str = "spans") -> pa.Table:
    """map_batches fn: append ``doc_bytes`` = total span-text bytes."""
    return batch.append_column("doc_bytes", _span_bytes_column(batch.column(spans_column)))


def size_aware_repartition(
    ds: "ray.data.Dataset",
    target_bytes: int = TARGET_PARTITION_BYTES,
    spans_column: str = "spans",
    max_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """Repartition so each partition carries ~``target_bytes`` of span
    text.

    The input is materialized ONCE up front, so an expensive lazy
    upstream (e.g. extraction) is not executed twice by the byte
    pre-pass and the repartition — both run over the pinned blocks.
    The byte pre-pass aggregates a single int on workers (``Sum``);
    the repartition is NOT an all-to-all shuffle (``shuffle=False``
    semantics): blocks are split/coalesced.
    """
    ds = ds.materialize()
    total = (
        ds.map_batches(
            lambda b: pa.Table.from_pydict(
                {"doc_bytes": _span_bytes_column(b.column(spans_column))}
            ),
            batch_format="pyarrow",
            batch_size=1024,
        )
        .aggregate(Sum("doc_bytes", alias_name="total"))
    )["total"]
    n = max(1, math.ceil((total or 0) / target_bytes))
    if max_partitions:
        n = min(n, max_partitions)
    return ds.repartition(n)


def range_partition_by_doc_id(ds: "ray.data.Dataset", num_partitions: int) -> "ray.data.Dataset":
    """Deterministic range partitioning: sort by ``doc_id`` then split
    into ``num_partitions`` contiguous ranges.  This IS an all-to-all
    shuffle — use only when downstream stages rely on doc_id locality
    (e.g. partition-atomic lineage with stable partition ids)."""
    return ds.sort("doc_id").repartition(num_partitions)


def assign_shards(
    ds: "ray.data.Dataset",
    n_shards: int,
    seed: int = 0,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Deterministic pseudo-random shard assignment for training-data
    delivery: ``shard = md5(seed:id)[:8 hex] % n_shards`` and
    ``shuffle_key`` = the first 15 hex chars (60 bits, fits int64) of
    the same digest — so sorting by ``(shard, shuffle_key)`` IS a
    seeded global shuffle that is reproducible across runs, machines
    and engines (DuckDB mirror:
    ``('0x' || substr(md5(seed || ':' || id), 1, 8))::BIGINT % n`` /
    ``substr(..., 1, 15)``).  Per-row md5 is Python but O(1)/row.
    """
    import hashlib

    def add(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        digs = [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids]
        batch = batch.append_column(
            "shard", pa.array([int(d[:8], 16) % n_shards for d in digs], type=pa.int64())
        )
        return batch.append_column(
            "shuffle_key", pa.array([int(d[:15], 16) for d in digs], type=pa.int64())
        )

    return ds.map_batches(add, batch_format="pyarrow", batch_size=8192)


def export_shards(
    ds: "ray.data.Dataset",
    path: str,
    n_shards: int,
    seed: int = 0,
    id_col: str = "doc_id",
) -> None:
    """Seeded global shuffle + sharded parquet export: assign shards,
    ONE all-to-all sort by ``(shard, shuffle_key)`` (the shuffle), and
    a hive-partitioned write (``path/shard=K/``) — one directory per
    shard, so a failed export run resumes by skipping completed shard
    directories, and trainers stream shards independently.  Everything
    before the write is lazy/streaming; nothing lands on the driver.
    """
    sharded = assign_shards(ds, n_shards, seed=seed, id_col=id_col)
    sharded.sort(["shard", "shuffle_key"]).write_parquet(
        path, partition_cols=["shard"]
    )
