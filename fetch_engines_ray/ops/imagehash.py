"""Perceptual image hashing + the shared 64-bit hamming pair finder.

Public-knowledge basis: difference hash (dHash) from the pHash family
(Krawetz, "Kind of Like That", 2013; Zauner's pHash thesis 2010) — the
standard instruments for image
near-dup detection in web-scale training-data curation (LAION-style
pipelines dedup billions of images this way).  The reference engine
carries media spans opaquely (`src/MarkdownConverter.ts` media_ref
placeholders) and has no image analysis; this family is part of the
training-data tier the north rule adds on top (SURVEY.md §2.8), the
image-side sibling of the text dedup family in ``ops/dedup.py``.

Ray-Data shape (100-TB posture):

- **Hashing** runs inside ``curate_media``'s actor-pool fingerprint
  stage (``pipelines/mmcurate.MediaRefFingerprinter``): decode (the
  repo's own real PNG codec), integer BT.601 grayscale, adaptive
  average-pool to the hash grid, gradient bits — all integer
  arithmetic, so the hash is bit-deterministic across platforms and
  partitionings.  Only
  the 8-byte hash leaves the stage; pixels never transit the shuffle.
- **Pairing** is one caller of the near-dup resolver
  (``ops/dedup.verified_pairs``), shared with ``simhash_pairs``: bucket
  by each 16-bit hash chunk (pigeonhole: hamming ≤ 3 over 64 bits
  shares at least one of 4 chunks — LOSSLESS banding), attach the
  8-byte hash of each candidate end, vectorized popcount verify.

Why dHash: it hashes horizontal GRADIENTS, so it is
exactly invariant to uniform brightness shift (until clipping) and
robust to re-encoding — the two dominant benign transforms in crawled
image corpora — while staying a 64-bit integer the existing hamming
LSH machinery consumes unchanged.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray


def to_grayscale(pixels: np.ndarray) -> np.ndarray:
    """Integer ITU-R BT.601 luma: ``(299R + 587G + 114B) // 1000``.

    Grey input passes through.  Integer floor keeps the hash
    bit-deterministic (no float rounding differences across BLAS/CPU)."""
    p = np.asarray(pixels, dtype=np.int64)
    if p.ndim == 2:
        return p
    return (299 * p[..., 0] + 587 * p[..., 1] + 114 * p[..., 2]) // 1000


def pool_mean(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Adaptive average pooling to ``(out_h, out_w)`` with integer cell
    boundaries (``ys[i] = i*h // out_h``) and integer floor means —
    vectorized as two ``np.add.reduceat`` passes.  Images smaller than
    the grid are first nearest-upsampled (the repo's integer-exact
    :func:`ops.multimodal.resample_nearest`) so every cell is
    non-empty."""
    from fetch_engines_ray.ops.multimodal import resample_nearest

    g = np.asarray(gray, dtype=np.int64)
    h, w = g.shape
    if h < out_h or w < out_w:
        g = resample_nearest(g, max(w, out_w), max(h, out_h))
        h, w = g.shape
    ys = (np.arange(out_h + 1, dtype=np.int64) * h) // out_h
    xs = (np.arange(out_w + 1, dtype=np.int64) * w) // out_w
    rows = np.add.reduceat(g, ys[:-1], axis=0)
    cells = np.add.reduceat(rows, xs[:-1], axis=1)
    counts = np.diff(ys)[:, None] * np.diff(xs)[None, :]
    return cells // counts


def _pack_bits64(bits: np.ndarray) -> int:
    """Row-major LSB-first packing of a 64-element boolean array."""
    b = bits.reshape(-1).astype(np.uint64)
    return int((b << np.arange(64, dtype=np.uint64)).sum())


def dhash64(pixels: np.ndarray) -> int:
    """Difference hash: 8x9 pooled grid, bit = ``g[r,c+1] > g[r,c]``
    (one bit per horizontal gradient, 8 rows x 8 gradients)."""
    g = pool_mean(to_grayscale(pixels), 8, 9)
    return _pack_bits64(g[:, 1:] > g[:, :-1])


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of ``a XOR b`` over int64/uint64 arrays."""
    x = np.bitwise_xor(
        np.asarray(a).astype(np.int64).view(np.uint64),
        np.asarray(b).astype(np.int64).view(np.uint64),
    )
    return (
        np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)
    )


def check_max_hamming(max_hamming: int) -> None:
    """4x16-bit banding finds every pair at hamming ``<= 3`` (pigeonhole)
    and a negative bound finds none: anything outside ``0..3`` raises."""
    if not 0 <= max_hamming <= 3:
        raise ValueError(
            f"4x16-bit banding is lossless only for max_hamming in 0..3, got {max_hamming}"
        )


def hamming_bands(batch: pa.Table, family: "np.ndarray | int" = 0) -> pa.Table:
    """``(bucket, doc_id)`` band rows of a ``(doc_id, h64)`` batch, one per
    16-bit chunk of the hash: bucket = ``family << 18 | chunk index <<
    16 | chunk``.  Rows of different ``family`` (one value, or one per
    row) never share a bucket."""
    u = batch["h64"].to_numpy().astype(np.int64).view(np.uint64)
    c = np.arange(4, dtype=np.uint64)
    chunks = ((u[:, None] >> (c * np.uint64(16))) & np.uint64(0xFFFF)).astype(np.int64)
    family = np.asarray(family, dtype=np.int64)[..., None]
    buckets = (family << 18) | (c.astype(np.int64) << 16) | chunks
    idx = pa.array(np.repeat(np.arange(batch.num_rows, dtype=np.int64), 4))
    return pa.table({"bucket": pa.array(buckets.reshape(-1)), "doc_id": batch["doc_id"].take(idx)})


def hamming_verify(max_hamming: int):
    """Resolver verify for 64-bit hashes: popcount of ``h64_a XOR h64_b``
    kept at ``<= max_hamming``."""
    from fetch_engines_ray.ops.dedup import _verified

    def verify(t: pa.Table) -> pa.Table:
        d = hamming64(t["h64_a"].to_numpy(), t["h64_b"].to_numpy())
        return _verified(t, d, d <= max_hamming, "hamming")

    return verify


def hamming64_pairs(
    sigs: "ray.data.Dataset",
    hash_col: str = "dhash",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> pd.DataFrame:
    """Near-dup pairs over ANY 64-bit hash column: bucket by each
    16-bit chunk, verify popcount ≤ ``max_hamming``.

    Banding is LOSSLESS for ``max_hamming <= 3`` with 4 chunks
    (pigeonhole) — the result equals exact all-pairs hamming.  One
    caller of the near-dup resolver (``ops/dedup.verified_pairs``) with
    the 8-byte hash as its verify lookup."""
    from fetch_engines_ray.ops.dedup import _pairs_frame, verified_pairs

    check_max_hamming(max_hamming)
    # materialize the (narrow, 8-bytes-per-hash) signature table once:
    # sigs is usually a lazy hash chain, which the resolver would
    # otherwise execute for the count, the banding and the lookup
    sigs = sigs.map_batches(
        lambda b: pa.table(
            {"doc_id": b[id_col], "h64": pa.array(b[hash_col].to_numpy().astype(np.int64))}
        ),
        batch_format="pyarrow",
        batch_size=8192,
    ).materialize()
    return _pairs_frame(
        verified_pairs(sigs, hamming_bands, sigs, hamming_verify(max_hamming)), "hamming"
    )
