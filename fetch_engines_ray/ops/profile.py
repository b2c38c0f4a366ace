"""One-pass distributed table profiler ("describe" for 100-TB tables).

Before any curation run over an unfamiliar corpus you want per-column
row/null counts, min/max, and approximate distinct cardinality — the
reference has no analog (it profiles nothing), but a training-data
pipeline at scale needs this as the first stage of every new source.

Scale shape: classic partial aggregation.  Each ``map_batches`` call
reduces its batch to ONE tiny partial row per column (counts, typed
min/max, a fixed 2^p-byte HLL register blob), so the only data that
ever leaves a worker is O(columns) bytes per block; the driver merges
O(blocks x columns) partials — no shuffle at all, one streaming pass
over the input.  Per-batch work is vectorized: Arrow ``null_count``,
``pyarrow.compute.min_max``, and the sketches module's numpy HLL
kernel.
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .sketches import _estimate, _registers_for

_HLL_P = 12
_EMPTY_REGS = b""


def _batch_partials(batch: pa.Table, columns: list[str]) -> pa.Table:
    rows = []
    for name in columns:
        col = batch[name]
        n = len(col)
        nulls = col.null_count
        valid = col.drop_null()
        mn = mx = None
        if len(valid) > 0:
            try:
                mm = pc.min_max(valid)
                mn, mx = mm["min"].as_py(), mm["max"].as_py()
            except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
                pass  # nested / unordered types: no extrema
        regs = _EMPTY_REGS
        if len(valid) > 0:
            try:
                regs = _registers_for(valid.to_pandas(), _HLL_P).tobytes()
            except TypeError:
                pass  # unhashable payloads (list columns): no sketch
        rows.append(
            {
                "column": name,
                "n_rows": n,
                "n_nulls": nulls,
                # typed extrema travel pickled (repr round-trips break
                # on datetimes); the driver merge compares TYPED values,
                # so numeric columns never fall back to string ordering
                "min_max": pickle.dumps((mn, mx)) if mn is not None else b"",
                "hll": regs,
            }
        )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("column", pa.string()),
                ("n_rows", pa.int64()),
                ("n_nulls", pa.int64()),
                ("min_max", pa.binary()),
                ("hll", pa.binary()),
            ]
        ),
    )


def profile_table(
    ds: "ray.data.Dataset",
    columns: list[str] | None = None,
) -> pd.DataFrame:
    """Profile ``columns`` (default: every column) of ``ds`` in one
    streaming pass.  Returns one row per column:
    ``(column, n_rows, n_nulls, approx_distinct, min_repr, max_repr)``
    where min/max are string renderings of the exact typed extrema
    (empty for unordered types) and ``approx_distinct`` is the HLL
    estimate (p=12, ~1.6% std error) over non-null values, or NaN for
    unhashable payload columns.

    The merge is driver-side over per-block partials only — O(blocks x
    columns) tiny rows, never the data.
    """
    columns = columns or ds.schema().names
    parts = ds.map_batches(
        lambda b: _batch_partials(b, columns),
        batch_format="pyarrow",
        batch_size=65536,
    ).to_pandas()
    return _render(_merge_partial_frame(parts, columns))


def _merge_partial_frame(parts: pd.DataFrame, columns: list[str]) -> pd.DataFrame:
    """Merge per-block partial rows to one row per column: exact counts,
    typed pickled extrema, max-merged HLL registers (register max IS
    the union sketch)."""
    if "column" not in parts.columns:
        # an EMPTY dataset's to_pandas() is column-less (the recurring
        # empty-partition hazard): profile it as zero rows per column
        parts = pd.DataFrame(
            {"column": pd.Series(dtype=object), "n_rows": [], "n_nulls": [],
             "min_max": [], "hll": []}
        )
    rows = []
    for name in columns:
        p = parts[parts["column"] == name]
        regs = np.zeros(1 << _HLL_P, dtype=np.uint8)
        sketched = False
        for blob in p["hll"]:
            if blob:
                regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
                sketched = True
        mn = mx = None
        for blob in p["min_max"]:
            if not blob:
                continue
            vmin, vmax = pickle.loads(blob)
            mn = vmin if mn is None or vmin < mn else mn
            mx = vmax if mx is None or vmax > mx else mx
        rows.append(
            {
                "column": name,
                "n_rows": int(p["n_rows"].sum()),
                "n_nulls": int(p["n_nulls"].sum()),
                "min_max": pickle.dumps((mn, mx)) if mn is not None else b"",
                "hll": regs.tobytes() if sketched else b"",
            }
        )
    return pd.DataFrame(rows, columns=["column", "n_rows", "n_nulls", "min_max", "hll"])


def _render(merged: pd.DataFrame) -> pd.DataFrame:
    out = []
    for _, r in merged.iterrows():
        mn = mx = None
        if r["min_max"]:
            mn, mx = pickle.loads(r["min_max"])
        n_valid = int(r["n_rows"]) - int(r["n_nulls"])
        out.append(
            {
                "column": r["column"],
                "n_rows": int(r["n_rows"]),
                "n_nulls": int(r["n_nulls"]),
                "approx_distinct": (
                    float(_estimate(np.frombuffer(r["hll"], dtype=np.uint8), _HLL_P))
                    if r["hll"]
                    else (0.0 if n_valid == 0 else float("nan"))
                ),
                "min_repr": "" if mn is None else str(mn),
                "max_repr": "" if mx is None else str(mx),
            }
        )
    return pd.DataFrame(
        out,
        columns=[
            "column",
            "n_rows",
            "n_nulls",
            "approx_distinct",
            "min_repr",
            "max_repr",
        ],
    )
