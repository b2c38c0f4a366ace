"""Product quantization (PQ) for compressed similarity search.

Public-knowledge basis: Jégou, Douze, Schmid, "Product Quantization for
Nearest Neighbor Search" (TPAMI 2011) — split each d-dim vector into
``m`` subvectors, vector-quantize every subspace with its own
``ksub``-centroid codebook, store each vector as ``m`` uint8 codes, and
search with asymmetric distance computation (ADC): per query build an
``m x ksub`` lookup table once, then score any database vector with
``m`` table lookups instead of a ``d``-dim dot product.

Why it matters at 100 TB: a 64-dim float32 embedding is 256 bytes;
its PQ code at m=8 is 8 bytes — a 32x shrink that turns an
object-store-resident ANN corpus into something that fits in worker
heaps.  Recall is bounded by quantization error; the brute-force path
(:func:`fetch_engines_ray.ops.similarity.knn_bruteforce`) stays the
exactness oracle and the pytest recall floor is asserted against it.

Ray-Data shape:

- codebooks train driver-side on a bounded seeded sample (the standard
  practice — FAISS trains PQ on a sample too); the codebook tensor is
  ``m * ksub * (d/m)`` floats (a few hundred KiB), broadcast via
  ``ray.put``;
- encoding and ADC search run inside the IVFPQ index
  (``ops/ann_index.py``), which trains its codebooks here.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from fetch_engines_ray.ops.similarity import _normalize

if TYPE_CHECKING:  # pragma: no cover
    import ray


def _md5_order(n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random ordering of range(n) (md5 of index)."""
    import hashlib

    keys = np.asarray(
        [int(hashlib.md5(f"{seed}:{i}".encode()).hexdigest()[:12], 16) for i in range(n)]
    )
    return np.argsort(keys, kind="stable")


def _lloyd_euclidean(
    mat: np.ndarray, k: int, n_iters: int = 20, seed: int = 13
) -> np.ndarray:
    """Deterministic Euclidean Lloyd's on a driver-side sample: init =
    first k rows in md5 order; empty clusters keep their centroid."""
    k = min(k, len(mat))
    cents = mat[_md5_order(len(mat), seed)[:k]].astype(np.float64).copy()
    for _ in range(n_iters):
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; argmin drops ||x||^2
        d = -2.0 * (mat @ cents.T) + (cents**2).sum(axis=1)
        assign = d.argmin(axis=1)
        moved = 0.0
        for c in range(k):
            members = mat[assign == c]
            if len(members):
                nc = members.mean(axis=0)
                moved = max(moved, float(np.abs(nc - cents[c]).max()))
                cents[c] = nc
        if moved < 1e-9:
            break
    return cents


def sample_matrix(
    ds: "ray.data.Dataset", sample_size: int, seed: int, vec_col: str
) -> np.ndarray:
    """Seeded bounded sample -> L2-normalized float64 matrix — ONE
    implementation shared by pq_train and ann_index's residual branch
    (two hand-copies once risked drifting)."""
    total = ds.count()
    frac = min(1.0, sample_size / max(1, total))
    sample = ds.random_sample(frac, seed=seed).take_all() if frac < 1.0 else ds.take_all()
    if not sample:
        raise ValueError("cannot train PQ codebooks on an empty dataset")
    return _normalize(np.asarray([r[vec_col] for r in sample], dtype=np.float64))


def pq_train(
    ds: "ray.data.Dataset",
    m: int = 8,
    ksub: int = 256,
    sample_size: int = 16384,
    seed: int = 13,
    vec_col: str = "embedding",
) -> np.ndarray:
    """Train per-subspace codebooks on a seeded sample.

    Returns ``codebooks`` of shape ``(m, ksub, d // m)`` (float64).
    Vectors are L2-normalized first so ADC inner products approximate
    cosine similarity (the family's metric)."""
    mat = sample_matrix(ds, sample_size, seed, vec_col)
    return pq_train_matrix(mat, m=m, ksub=ksub, seed=seed)


def pq_train_matrix(
    mat: np.ndarray, m: int = 8, ksub: int = 256, seed: int = 13
) -> np.ndarray:
    """Codebooks from an in-memory training matrix (rows are the
    vectors to quantize — raw normalized vectors, or coarse-centroid
    RESIDUALS for the IVFADC form in ``ops/ann_index``)."""
    d = mat.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    ksub = min(ksub, len(mat))
    return np.stack(
        [
            _lloyd_euclidean(mat[:, j * dsub : (j + 1) * dsub], ksub, seed=seed + j)
            for j in range(m)
        ]
    )
