"""Corpus snapshot diff: which documents were ADDED, REMOVED or
CHANGED between two versions of a document table — the governance
primitive behind "what changed since the last crawl / curation run"
(pairs with ``ops/drift.py``, which answers the distributional form of
the same question).

Scale shape: one pass over each snapshot.  The old side collapses to
``(id, content_hash)`` inside one vectorized ``map_batches`` (the
text's bytes hash as they are, no per-row Python strings) and executes
once through ``ops/exchange.measured``.  The new side is not
collapsed: one pass hashes its text column and drops it, every other
column riding through, attaches the measured old hashes with
``ops/dedup.attach(how="left")`` and classifies each row as added,
changed or unchanged.  ``attach`` broadcasts the old hashes when they
fit ``exchange.BROADCAST_BYTES`` and co-groups them with the new rows
by id otherwise, so the diff holds no size decision of its own.  An
unchanged row keeps only its id; added and changed rows keep their
columns, so a caller gets the rows to act on from the same pass.

The classified rows execute once through ``measured`` and settle in
one step: the first row of each id wins, and the old ids no new row
matched come back as removed.  The step runs on the driver when both
sides came back as tables, once per ``co_group`` part otherwise.  The
output is CHANGE-sized, not corpus-sized: unchanged ids drop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .dedup import attach
from .exchange import co_group, measured, parts_for

# the hash columns the pass adds and drops; a snapshot must not carry them
_NEW_HASH, _OLD_HASH = "__new_hash", "__old_hash"


def _content_hash(text: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """int64 content hash per row of a string column.

    64 bits: a collision can only hide a CHANGED verdict for one id,
    w.p. 2^-64 per changed doc.  It hashes the UTF-8 BYTES (the
    column's own data, viewed as binary), not str objects — pandas'
    object-string hashing truncates at the first NUL (C-string
    semantics), so str hashing would mask any change after an embedded
    \x00.  A null text hashes as ``b""``."""
    data = pc.fill_null(text.cast(pa.binary()), b"")
    return pd.util.hash_array(data.to_numpy(zero_copy_only=False)).view(np.int64)


def _hashed(ds: "ray.data.Dataset", id_col: str, text_col: str, hash_col: str, keep: bool):
    """``ds`` with ``text_col`` replaced by its content hash in
    ``hash_col``; ``keep=False`` keeps only ``id_col`` beside it."""

    def collapse(batch: pa.Table) -> pa.Table:
        if batch[id_col].null_count:
            raise ValueError(
                f"corpus_diff: null {id_col!r} in a snapshot; every document needs an id"
            )
        rows = batch.drop_columns([text_col]) if keep else batch.select([id_col])
        return rows.append_column(hash_col, pa.array(_content_hash(batch[text_col]), pa.int64()))

    # whole blocks (batch_size=None): the collapse is per row, so it
    # fuses into the stage that produced the text instead of taking a
    # re-batching hop through the object store
    return ds.map_batches(collapse, batch_format="pyarrow", batch_size=None)


def corpus_diff(
    ds_old: "ray.data.Dataset",
    ds_new: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "pa.Table | ray.data.Dataset":
    """Diff two corpus snapshots by id + content hash.

    Returns the table of ``(<id_col>, status, *other new columns)``
    with status one of ``added`` (id only in ``ds_new``), ``removed``
    (only in ``ds_old``) or ``changed`` (both sides, different text
    hash).  Added and changed rows carry ``ds_new``'s columns other
    than ``text_col`` byte for byte; removed rows carry nulls there.
    Ids are assumed unique per side (the document-table contract);
    duplicate ids keep their first row.  A null id on either side
    raises ``ValueError`` naming ``id_col``.

    ``ds_old`` executes once, as ``(id, hash)``, and ``ds_new`` once,
    joined to those hashes by ``ops/dedup.attach`` and classified in
    the same pass; both come back through ``exchange.measured``.  When
    both are driver tables the diff settles there and comes back as a
    ``pa.Table`` (two snapshots with no rows at all give an empty one);
    otherwise both go through ``co_group``, sized by
    ``exchange.parts_for`` of the larger side, and the diff comes back
    as a lazy Dataset.

    Each pass runs under the Data context of the Dataset that executes
    it, so the caller chooses Ray Data's per-operator reservation for
    the map-only ones by the contexts of ``ds_old`` and ``ds_new``
    (``refresh_extract`` reads both without it,
    ``exchange.reservation``): the old side's hash, and the new side's
    hash → broadcast ``attach`` → classify when the old hashes come back
    as a driver table.  Every exchange here runs at the session's
    setting: the new side's pass when it takes ``attach``'s ``co_group``
    (the old hashes did not fit), and the settle ``co_group`` over the
    ``measured`` sides.

    Either result converts with ``.to_pandas()`` while the new side's
    columns are flat; with nested ones, collect a Dataset's Arrow blocks
    (Ray's ``to_pandas`` casts equal-length list columns to its tensor
    extension, which rejects struct items)."""

    def classify(batch: pa.Table) -> pa.Table:
        old_hash = (
            batch[_OLD_HASH]
            if _OLD_HASH in batch.column_names
            else pa.nulls(batch.num_rows, pa.int64())
        )
        same = pc.fill_null(pc.equal(batch[_NEW_HASH], old_hash), False)
        status = pc.if_else(
            pc.is_null(old_hash), "added", pc.if_else(same, "unchanged", "changed")
        )
        rows = batch.drop_columns([c for c in (_NEW_HASH, _OLD_HASH) if c in batch.column_names])
        # an unchanged row is settled by its id alone
        cols = {
            c: rows[c] if c == id_col else pc.if_else(same, pa.nulls(rows.num_rows, rows[c].type), rows[c])
            for c in rows.column_names
        }
        return pa.table({id_col: cols.pop(id_col), "status": status, **cols})

    def settle(seen: pa.Table, old: pa.Table) -> pa.Table:
        if not (seen.num_columns or old.num_columns):
            # two snapshots with no rows at all
            return pa.table({id_col: pa.nulls(0), "status": pa.array([], pa.string())})
        if not seen.num_columns:
            # a new snapshot with no rows at all arrives without columns
            seen = pa.table({id_col: old[id_col].slice(0, 0), "status": pa.array([], pa.string())})
        ids = seen[id_col].combine_chunks()
        seen = seen.take(pc.index_in(pc.unique(ids), value_set=ids))
        gone = old[id_col].cast(ids.type) if old.num_columns else ids.slice(0, 0)
        gone = pc.unique(gone.filter(pc.invert(pc.is_in(gone, value_set=seen[id_col]))))
        removed = {c: pa.nulls(len(gone), seen.schema.field(c).type) for c in seen.column_names}
        removed.update({id_col: gone, "status": pa.array(["removed"] * len(gone), pa.string())})
        return pa.concat_tables(
            [seen.filter(pc.not_equal(seen["status"], "unchanged")), pa.table(removed)]
        )

    old = measured(_hashed(ds_old, id_col, text_col, _OLD_HASH, keep=False))
    new = _hashed(ds_new, id_col, text_col, _NEW_HASH, keep=True)
    seen = measured(
        attach(new, old, id_col, how="left").map_batches(
            classify, batch_format="pyarrow", batch_size=None
        )
    )
    if isinstance(seen, pa.Table) and isinstance(old, pa.Table):
        return settle(seen, old)
    return co_group([(seen, id_col), (old, id_col)], max(parts_for(seen), parts_for(old)), settle)
