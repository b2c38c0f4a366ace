"""The engine's one hash-partitioned exchange.

Ray Data's hash join dies when a partition receives no block from one
side (its aggregator synthesizes a schema-less empty table and fails
with ``ArrowInvalid: No match for FieldRef``), which is the normal case
for a sparse side: few candidate pairs, a small increment, a hot key.
Every partitioned operator in ``ops/`` therefore co-locates its sides
here instead, the engine's one join (``ops/dedup.attach``) included:

- :func:`part_of` is the one routing rule from a key column to a part.
- :func:`co_group` hash-partitions one or more sides on their keys,
  moves them through ONE union exchange, and runs ``fn`` once per part
  on each side's rows in that side's own Arrow schema.

The engine's sizing and scheduling rules live here too:

- :func:`measured` is the one choice between this exchange and the
  driver: it executes a lookup side once and returns one driver Arrow
  table when it fits :data:`BROADCAST_BYTES`, the materialized Dataset
  (sized for :func:`co_group` by :func:`parts_for`) otherwise.
- :func:`read_tasks` is the one read-task rule, from the cluster's CPUs
  and the files' on-disk bytes (:func:`sized_read` applies it).
- :func:`reservation` is the one place that sets Ray Data's
  per-operator resource reservation: off on a map-only chain, the
  session's setting on a chain that holds an exchange.

Each input batch ships as one Arrow IPC payload per part, so no side
is null-padded into a shared schema: nested payload columns
(``spans``' ``list<struct>``), full-range int64 ids and any key type
ride through byte-for-byte.  Every batch sends every part a payload,
empty ones included, which is how a part with no rows of a side still
hands ``fn`` a typed empty table.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.dataset import MaterializedDataset

from .sketches import _splitmix64_vec

# rows per scattered batch: small blocks coalesce up to it (otherwise
# every exchange would output as many blocks as all its inputs had, and
# chained exchanges, e.g. PageRank iterations, would double their block
# count each time), and each batch costs n_parts payloads
_BATCH_ROWS = 8192

_EXCHANGE_SCHEMA = pa.schema(
    [("part", pa.int64()), ("side", pa.int32()), ("payload", pa.large_binary())]
)


# The one broadcast threshold: a measured lookup side (a key filter's
# key column, a join's right side, a diff's hashed snapshot) of up to
# this many bytes comes to the driver as one Arrow table; a larger one
# takes the exchange.  A 2M-row ``doc{idx:010d}`` id column measures
# 34,000,000 bytes.
BROADCAST_BYTES = 64 << 20


def n_parts_for(n_rows: int) -> int:
    """Shuffle part count for a table of ``n_rows``: one part per 200k
    rows and at least 2.  No ceiling — a fixed cap turns each part into
    a straggler once the table outgrows it."""
    return max(2, 1 + n_rows // 200_000)


def n_rows(side: "pa.Table | ray.data.Dataset") -> int:
    """Row count of a :func:`measured` side (metadata only for a
    materialized Dataset)."""
    return side.num_rows if isinstance(side, pa.Table) else side.count()


def parts_for(side: "pa.Table | ray.data.Dataset") -> int:
    """Part count for a :func:`co_group` over a measured lookup side:
    :func:`n_parts_for` of its rows, never fewer than 64 (each part
    holds its whole share of the other side, which only partitions at
    scale)."""
    return max(64, n_parts_for(n_rows(side)))


def read_tasks(files: Sequence[str]) -> int:
    """Read tasks for a parquet read of ``files``: one per cluster CPU,
    or one per ``DataContext.target_max_block_size`` of on-disk bytes
    when that is more, and never more than one per file.

    Ray's own heuristic, max(min(200, in-memory bytes / 1 MiB), 2 ×
    CPUs), splits a few megabytes of input into several tasks per CPU.
    Each Ray Data task costs about 20 ms of CPU on its own, as much as
    a vectorised Arrow pass over one such task's rows: a no-op read →
    write of a 40-file, 4.4 MB corpus took 0.28 CPU-s in 4 tasks, 0.44
    in 12 and 1.0 in 40 (``num_cpus=4`` Ray on a one-core host).  A
    read feeding extraction (about 2 ms of Python per doc) gains less,
    since the task cost is a few percent of its time there: on the same
    host a 2000-doc extraction's wall and CPU time stayed within their
    run-to-run spread.

    The byte term has not been measured on any workload: every
    benchmark corpus is far below CPUs × ``target_max_block_size``, so
    the rule has always come out as the CPU count.  It compares
    compressed on-disk bytes with a target Ray applies to in-memory
    blocks, so on a corpus of a few GB it gives a few dozen tasks where
    Ray's default gives 200; load balance and memory per task at that
    scale are unverified."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    n_bytes = sum(os.path.getsize(f) for f in files)
    blocks = -(-n_bytes // ray.data.DataContext.get_current().target_max_block_size)
    return max(1, min(len(files), max(cpus, blocks)))


def sized_read(path: str, files: "Sequence[str] | None", **kwargs) -> "ray.data.Dataset":
    """``arrowclean.read_parquet_clean(path, **kwargs)`` in
    :func:`read_tasks` of ``files`` tasks; ``files`` are the parquet
    files under ``path`` (``arrowclean.parquet_files``).  A path off
    the local file system (``files`` None, no sizes to read) keeps
    Ray's default."""
    from ..arrowclean import read_parquet_clean

    tasks = None if files is None else read_tasks(files)
    return read_parquet_clean(path, override_num_blocks=tasks, **kwargs)


def reservation(ds: "ray.data.Dataset", map_only: bool) -> "ray.data.Dataset":
    """Return ``ds`` with Ray Data's per-operator resource reservation
    off when its chain is map-only, and at the session's setting when it
    holds an exchange (a :func:`co_group`, or Ray's own ``groupby``).

    Until a map task reports a real output size, the reservation budgets
    it at twice ``target_max_block_size`` of pending output, so under a
    small object store it admits one task of a map-only chain while the
    other CPUs wait for that task to end.  A chain of reads, maps,
    writes and unions of them has no exchange whose buffers the
    reservation protects; without it every worker starts at once.  The
    setting changes scheduling only, never a row.

    ``ds`` must own its context: a read made by the engine (its maps
    share the read's context), a ``union`` (which copies its first
    input's context) or a ``materialize()`` (which copies its input's).
    ``map_batches`` over a caller's Dataset shares the caller's context,
    so such a Dataset never comes here with ``map_only=True``."""
    ds.context.op_resource_reservation_enabled = (
        not map_only and ray.data.DataContext.get_current().op_resource_reservation_enabled
    )
    return ds


def measured(
    side: "ray.data.Dataset | pa.Table",
) -> "pa.Table | MaterializedDataset":
    """Execute ``side`` once.  Up to :data:`BROADCAST_BYTES` it comes
    back as one driver Arrow table: its blocks concatenated (schemas
    unified with promotion), or a zero-column table when no block has a
    schema (no rows at all).  Above it the ``MaterializedDataset`` comes
    back.  A ``pa.Table`` comes back unchanged, and a materialized
    Dataset does not execute again and comes back as it is.

    A Dataset materialized here owns a copy of its input's context, and
    takes the session's :func:`reservation` setting whatever the chain
    that produced it ran under: above the limit it goes on to an
    exchange."""
    if isinstance(side, pa.Table):
        return side
    if not isinstance(side, MaterializedDataset):
        side = reservation(side.materialize(), map_only=False)
    if (side.size_bytes() or 0) > BROADCAST_BYTES:
        return side
    tables = [t for t in ray.get(side.to_arrow_refs()) if t.num_columns]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive").combine_chunks()


def part_of(column: "pa.Array | pa.ChunkedArray", n_parts: int) -> np.ndarray:
    """int64 part in ``[0, n_parts)`` for each value of ``column``.

    The part depends on the key VALUE, not its Arrow width: integers of
    any width mix as 64-bit values through splitmix64 (so sequential and
    strided id spaces still spread evenly), and every other type hashes
    its Python values, so ``string`` and ``large_string`` holding the
    same text co-locate.  Null keys route to part 0."""
    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    if pa.types.is_dictionary(column.type):
        column = column.dictionary_decode()
    if pa.types.is_integer(column.type):
        k = _splitmix64_vec(
            pc.fill_null(column, 0).to_numpy(zero_copy_only=False).astype(np.uint64)
        )
    else:
        # categorize=False: the factorizing path hashes strings only up
        # to an embedded NUL, so keys that differ after one would share
        # the hash of whichever came first in the batch
        k = pd.util.hash_array(
            np.asarray(column.to_numpy(zero_copy_only=False), dtype=object), categorize=False
        )
    part = (k % np.uint64(n_parts)).astype(np.int64)
    if column.null_count:
        part[~pc.is_valid(column).to_numpy(zero_copy_only=False)] = 0
    return part


def _payloads(table: pa.Table, part: np.ndarray, n_parts: int) -> pa.Array:
    """One Arrow IPC stream per part, written back to back into one
    buffer and returned as a ``large_binary`` array of ``n_parts``."""
    order = np.argsort(part, kind="stable")
    ordered = table.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(n_parts + 1))
    sink = pa.BufferOutputStream()
    offsets = [0]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        with pa.ipc.new_stream(sink, table.schema) as writer:
            writer.write_table(ordered.slice(lo, hi - lo))
        offsets.append(sink.tell())
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        n_parts,
        [None, pa.array(offsets, type=pa.int64()).buffers()[1], sink.getvalue()],
    )


def co_group(
    sides: Sequence["tuple[ray.data.Dataset | pa.Table, str]"],
    n_parts: int,
    fn: Callable[..., "pa.Table | pd.DataFrame"],
) -> "ray.data.Dataset":
    """Hash-partition every ``(dataset, key_col)`` side on its key into
    ``n_parts`` parts and return the Dataset of ``fn(*tables)``, called
    once per part with one ``pa.Table`` per side, in ``sides`` order.
    A side given as a driver ``pa.Table`` (a :func:`measured` side next
    to one that did not fit) goes to the object store once.

    Each table holds that side's rows in the part, in the side's own
    Arrow schema (batches of differing schemas are unified with
    ``pa.concat_tables`` promotion), and is a typed empty table when
    the side has rows elsewhere but none here.  A key never straddles
    parts, and rows whose key is equal in value meet in the same call
    whatever their integer width or string flavour.  A side with no
    rows and no schema anywhere arrives as an empty zero-column table.

    With more than one side, the exchange runs at the session's
    :func:`reservation` setting (on the ``union``'s own copy of the first
    side's context), even when a side comes from a map-only chain that
    runs without it.  A single side's exchange shares that side's
    context.
    """

    def scatter(side: int, key_col: str):
        def to_parts(batch: pa.Table) -> pa.Table:
            payload = _payloads(batch, part_of(batch[key_col], n_parts), n_parts)
            return pa.table(
                [
                    pa.array(np.arange(n_parts, dtype=np.int64)),
                    pa.array(np.full(n_parts, side, dtype=np.int32)),
                    payload,
                ],
                schema=_EXCHANGE_SCHEMA,
            )

        return to_parts

    def gather(group: pa.Table) -> "pa.Table | pd.DataFrame":
        tables: list[list[pa.Table]] = [[] for _ in sides]
        for side, payload in zip(
            group["side"].to_numpy(), group["payload"].combine_chunks()
        ):
            tables[side].append(pa.ipc.open_stream(payload.as_buffer()).read_all())
        return fn(
            *(
                pa.concat_tables(t, promote_options="permissive") if t else pa.table({})
                for t in tables
            )
        )

    first, *rest = [
        (ray.data.from_arrow(ds) if isinstance(ds, pa.Table) else ds).map_batches(
            scatter(side, key_col), batch_format="pyarrow", batch_size=_BATCH_ROWS
        )
        for side, (ds, key_col) in enumerate(sides)
    ]
    exchanged = reservation(first.union(*rest), map_only=False) if rest else first
    return exchanged.groupby("part").map_groups(gather, batch_format="pyarrow")
