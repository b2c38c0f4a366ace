"""Parquet checkpoints: anonymous spills and named, resumable ones.

A spill (:func:`_checkpoint_parquet`) writes a mid-pipeline table that
several consumers read, so each of them streams it back from disk
instead of re-running its lineage or pinning it in the object store.
The caller removes it once consumed (:func:`_cleanup_checkpoint`).

A named checkpoint (:func:`write_named_checkpoint`,
:func:`try_named_checkpoint`) is a resume point: its keyed directory
carries a fingerprint sidecar, written last, so a later run with the
same name resumes from it only when its fingerprint matches.

Every directory lives under ``FER_CHECKPOINT_DIR`` (default /tmp).  On
a multi-node cluster point it at shared storage: a driver-local path is
invisible to other nodes' read tasks.  ``FER_KEEP_CHECKPOINTS=1`` keeps
consumed spills.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from fetch_engines_ray.arrowclean import read_parquet_clean


def _root() -> str:
    return os.environ.get("FER_CHECKPOINT_DIR", "/tmp")


def _checkpoint_parquet(
    ds: "ray.data.Dataset", tag: str = "ckpt"
) -> tuple["ray.data.Dataset", str]:
    """Spill a dataset to a parquet checkpoint and read it back; returns
    ``(dataset, path)`` so the caller can clean up after consumption.
    Unlike ``materialize()`` this does NOT pin the whole table in the
    object store: each consumer streams it back from disk."""
    root = _root()
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"fer_{tag}_", dir=root)
    ds.write_parquet(path)
    return read_parquet_clean(path), path


def _cleanup_checkpoint(path: str) -> None:
    """Remove a consumed checkpoint dir (kept when FER_KEEP_CHECKPOINTS=1)."""
    if os.environ.get("FER_KEEP_CHECKPOINTS") == "1":
        return
    shutil.rmtree(path, ignore_errors=True)


def footer_rows(path: str) -> int:
    """Rows of a checkpoint, read from its parquet footers only: nothing
    executes."""
    files = glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def _named_checkpoint_path(tag: str, name: str) -> tuple[str, str]:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    path = os.path.join(_root(), f"fer_{tag}_{safe}")
    return path, os.path.join(path, "_FINGERPRINT.json")


def try_named_checkpoint(
    tag: str, name: str, fingerprint: dict
) -> "tuple[ray.data.Dataset, str] | None":
    """Resume side of the NAMED checkpoint contract: if a complete
    checkpoint ``<FER_CHECKPOINT_DIR>/fer_<tag>_<name>/`` exists, return
    it read back with its path (skipping every stage upstream of it) —
    but only when its recorded fingerprint matches; a mismatch raises
    instead of silently resuming a DIFFERENT run's data under the same
    name.  Returns None when there is nothing to resume (no dir, or an
    incomplete write — the ``_FINGERPRINT.json`` sidecar lands last,
    tmp+renamed, so its presence IS the completeness marker)."""
    path, marker = _named_checkpoint_path(tag, name)
    if not os.path.exists(marker):
        return None
    with open(marker, encoding="utf-8") as f:
        recorded = json.load(f)
    if recorded != fingerprint:
        raise ValueError(
            f"named checkpoint {path!r} was written by a run with a different "
            f"input/option fingerprint (recorded {recorded!r}, this run "
            f"{fingerprint!r}) — pick a new checkpoint name or remove the dir"
        )
    return read_parquet_clean(path), path


def write_named_checkpoint(
    ds: "ray.data.Dataset", tag: str, name: str, fingerprint: dict
) -> tuple["ray.data.Dataset", str]:
    """Write side of the named checkpoint: spill ``ds`` to the keyed
    directory and land the fingerprint sidecar LAST (tmp+rename), so a
    killed run leaves an incomplete dir that the next run discards and
    rewrites.  Returns the read-back Dataset and its path."""
    path, marker = _named_checkpoint_path(tag, name)
    if os.path.exists(path):
        # an existing COMPLETE dir was already handled by the caller via
        # try_named_checkpoint; anything still here is a partial write
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    ds.write_parquet(path)
    tmp = marker + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(fingerprint, f, sort_keys=True)
    os.replace(tmp, marker)
    return read_parquet_clean(path), path


def content_fingerprint(ds: "ray.data.Dataset", cols: list) -> int:
    """Order-independent 64-bit content fingerprint of the selected
    columns: per-row hashes (strings hashed as UTF-8 BYTES — pandas'
    str hashing truncates at embedded NULs, see ops/diff.py) combined
    per row with splitmix64, then summed mod 2^64 across the corpus
    (sum, not xor: duplicate rows must not cancel).  One streaming
    pass, O(1) driver state — cheap enough to gate a resume on
    CONTENT, not just row count (a re-crawl with the same cardinality
    but new text must not silently resume a stale checkpoint)."""
    from fetch_engines_ray.ops.sketches import _splitmix64_vec

    def part(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"fp": pa.array([], type=pa.uint64())})
        row = np.zeros(len(batch), dtype=np.uint64)
        for c in cols:
            col = batch[c]
            if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                vals = pd.util.hash_array(
                    col.to_numpy(zero_copy_only=False)
                ).astype(np.uint64)
            else:
                vals = pd.util.hash_array(
                    np.asarray(
                        [
                            (v if isinstance(v, bytes) else str(v or "").encode())
                            for v in col.to_pylist()
                        ],
                        dtype=object,
                    )
                ).astype(np.uint64)
            row = _splitmix64_vec(row ^ vals)
        with np.errstate(over="ignore"):
            total = np.add.reduce(row, dtype=np.uint64)
        return pa.table({"fp": pa.array([total], type=pa.uint64())})

    parts = ds.map_batches(part, batch_format="pyarrow", batch_size=8192).to_pandas()
    if "fp" not in parts.columns or not len(parts):
        return 0
    with np.errstate(over="ignore"):
        return int(parts["fp"].to_numpy(dtype=np.uint64).sum(dtype=np.uint64))


def plan_fingerprint(ds: "ray.data.Dataset", cols: list, stages: list) -> dict:
    """The resume key of a named checkpoint: the content of ``ds``'s
    ``cols`` plus the ``(name, options)`` of every stage that produces
    the checkpoint from it.  A Dataset option enters by its content,
    a list or tuple option by the md5 of its items.  The key is passed
    through JSON so it compares equal to the sidecar read back."""

    def value(v):
        if isinstance(v, ray.data.Dataset):
            return content_fingerprint(v, v.columns())
        if isinstance(v, (list, tuple)):
            return hashlib.md5("\x00".join(map(str, v)).encode()).hexdigest()
        return v

    key = {
        "cols": cols,
        "input": content_fingerprint(ds, cols),
        "stages": [[name, {k: value(v) for k, v in opts.items()}] for name, opts in stages],
    }
    return json.loads(json.dumps(key, sort_keys=True))
