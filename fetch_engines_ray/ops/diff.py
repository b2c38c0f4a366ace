"""Corpus snapshot diff: which documents were ADDED, REMOVED or
CHANGED between two versions of a document table — the governance
primitive behind "what changed since the last crawl / curation run"
(pairs with ``ops/drift.py``, which answers the distributional form of
the same question).

Scale shape: each side collapses to ``(id, content_hash)`` inside one
vectorized ``map_batches`` — document TEXT never crosses the shuffle,
only the id and 8 bytes per row do.  Both sides then co-locate by id
through ``ops/exchange.co_group`` (a key never straddles parts) and ONE
vectorized pandas merge per part emits the verdicts.  The output is
CHANGE-sized, not corpus-sized: unchanged ids drop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import co_group


def _id_hash_side(ds: "ray.data.Dataset", id_col: str, text_col: str):
    def collapse(batch: pa.Table) -> pa.Table:
        if batch[id_col].null_count:
            raise ValueError(
                f"corpus_diff: null {id_col!r} in a snapshot; every document needs an id"
            )
        # 64-bit content hash: a collision can only hide a CHANGED
        # verdict for one id, w.p. 2^-64 per changed doc.  Hash the
        # UTF-8 BYTES, not the str objects — pandas' object-string
        # hashing truncates at the first NUL (C-string semantics), so
        # str hashing would mask any change after an embedded \x00
        h = pd.util.hash_array(
            np.asarray(
                [(t or "").encode() for t in batch[text_col].to_pylist()],
                dtype=object,
            )
        ).view(np.int64)
        return pa.table({"key": batch[id_col], "h": pa.array(h, type=pa.int64())})

    return ds.map_batches(collapse, batch_format="pyarrow", batch_size=8192)


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
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Diff two corpus snapshots by id + content hash.

    Returns a Dataset of ``(<id_col>, status)`` with status one of
    ``added`` (id only in ``ds_new``), ``removed`` (only in
    ``ds_old``) or ``changed`` (both sides, different text hash).  Ids
    are assumed unique per side (the document-table contract);
    duplicate ids keep their first row.  A null id on either side
    raises ``ValueError`` naming ``id_col``."""

    def diff_part(old: pa.Table, new: pa.Table) -> pa.Table:
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

    return co_group(
        [
            (_id_hash_side(ds_old, id_col, text_col), "key"),
            (_id_hash_side(ds_new, id_col, text_col), "key"),
        ],
        n_parts,
        diff_part,
    )
