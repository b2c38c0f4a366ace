"""Corpus snapshot diff: which documents were ADDED, REMOVED or
CHANGED between two versions of a document table — the governance
primitive behind "what changed since the last crawl / curation run"
(pairs with ``ops/drift.py``, which answers the distributional form of
the same question).

Scale shape: each side collapses to ``(id, content_hash)`` inside one
vectorized ``map_batches`` (the text's bytes hash as they are, no
per-row Python strings) — document TEXT never leaves that stage, only
the id and 8 bytes per row do.  Both hashed sides then execute once
through ``ops/exchange.measured``, under the engine's one broadcast
threshold (``exchange.BROADCAST_BYTES``): when both fit they are
diffed by ONE vectorized pandas merge on the driver, with no shuffle,
and the diff stays a driver Arrow table; otherwise they co-locate by
id through ``ops/exchange.co_group`` (a key never straddles parts) and
the same merge runs once per part.  The output is CHANGE-sized, not
corpus-sized: unchanged ids drop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .exchange import co_group, measured, parts_for


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


def _id_hash_side(ds: "ray.data.Dataset", id_col: str, text_col: str):
    def collapse(batch: pa.Table) -> pa.Table:
        if batch[id_col].null_count:
            raise ValueError(
                f"corpus_diff: null {id_col!r} in a snapshot; every document needs an id"
            )
        h = _content_hash(batch[text_col])
        return pa.table({"key": batch[id_col], "h": pa.array(h, type=pa.int64())})

    # whole blocks (batch_size=None): the collapse is per row, so it
    # fuses into the stage that produced the text instead of taking a
    # re-batching hop through the object store
    return ds.map_batches(collapse, batch_format="pyarrow", batch_size=None)


def _keyed(side: pa.Table) -> pd.DataFrame:
    # hashes ride as NULLABLE Int64 through the outer merge — the
    # default NaN-padding promotes int64 to float64, rounding full-range
    # hashes to 52-bit mantissas and silently weakening the 2^-64
    # collision bound to ~2^-53
    return side.to_pandas().drop_duplicates("key").astype({"h": "Int64"})


def corpus_diff(
    ds_old: "ray.data.Dataset",
    ds_new: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "pa.Table | ray.data.Dataset":
    """Diff two corpus snapshots by id + content hash.

    Returns the table of ``(<id_col>, status)`` with status one of
    ``added`` (id only in ``ds_new``), ``removed`` (only in
    ``ds_old``) or ``changed`` (both sides, different text hash).  Ids
    are assumed unique per side (the document-table contract);
    duplicate ids keep their first row.  A null id on either side
    raises ``ValueError`` naming ``id_col``.

    Both hashed ``(id, hash)`` sides execute here, at the call, through
    ``exchange.measured``.  When both fit ``exchange.BROADCAST_BYTES``
    the diff runs once on the driver and comes back as a ``pa.Table``
    (two snapshots with no rows at all give an empty one); otherwise
    both sides go through ``co_group``, sized by ``exchange.parts_for``
    of the larger side, and the diff comes back as a lazy Dataset.
    Either one converts with ``.to_pandas()``."""

    def diff_part(old: pa.Table, new: pa.Table) -> pa.Table:
        if not (old.num_columns or new.num_columns):
            # two snapshots with no rows at all
            return pa.table({id_col: pa.nulls(0), "status": pa.array([], pa.string())})
        # a snapshot with no rows at all arrives without columns
        old = old if old.num_columns else new.schema.empty_table()
        new = new if new.num_columns else old.schema.empty_table()
        m = _keyed(old).merge(_keyed(new), on="key", how="outer", suffixes=("_old", "_new"))
        same = (m["h_old"] == m["h_new"]).fillna(False).to_numpy(dtype=bool)
        status = np.where(
            m["h_old"].isna().to_numpy(),
            "added",
            np.where(m["h_new"].isna().to_numpy(), "removed", "changed"),
        )
        is_int = pa.types.is_integer(old.schema.field("key").type)
        return pa.table(
            {
                id_col: pa.array(
                    m["key"].to_numpy()[~same], type=pa.int64() if is_int else pa.string()
                ),
                "status": pa.array(status[~same], type=pa.string()),
            }
        )

    old, new = (measured(_id_hash_side(ds, id_col, text_col)) for ds in (ds_old, ds_new))
    if isinstance(old, pa.Table) and isinstance(new, pa.Table):
        return diff_part(old, new)
    return co_group([(old, "key"), (new, "key")], max(parts_for(old), parts_for(new)), diff_part)
