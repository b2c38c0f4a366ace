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
- **Pairing** reuses the exact simhash posture
  (``ops/dedup.py::simhash_pairs``): bucket by each 16-bit hash chunk
  (pigeonhole: hamming ≤ 3 over 64 bits shares at least one of 4
  chunks — LOSSLESS banding), partitioned run expansion for candidate
  pairs (``_lsh_candidate_pairs``), vectorized popcount verify.  The
  8-byte hash rides through the expansion, so verification is local —
  no re-attach joins.

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


def hamming64_pairs(
    sigs: "ray.data.Dataset",
    hash_col: str = "dhash",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> pd.DataFrame:
    """Near-dup pairs over ANY 64-bit hash column: bucket by each
    16-bit chunk, verify popcount ≤ ``max_hamming``.

    Banding is LOSSLESS for ``max_hamming <= 3`` with 4 chunks
    (pigeonhole) — the result equals exact all-pairs hamming.  Same
    partitioned run-expansion machinery as ``simhash_pairs``
    (ops/dedup.py); shuffle partition count scales with the input."""
    from fetch_engines_ray.ops.dedup import _consume_pairs, _lsh_candidate_pairs
    from fetch_engines_ray.ops.exchange import n_parts_for

    if max_hamming > 3:
        raise ValueError(
            f"4x16-bit banding is lossless only for max_hamming <= 3, got {max_hamming}"
        )

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        hs = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u = hs.view(np.uint64)
        buckets = np.empty((n, 4), dtype=np.int64)
        for c in range(4):
            buckets[:, c] = (
                (np.int64(c) << np.int64(16))
                | ((u >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            )
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), 4))
        return pa.table(
            {
                "bucket": pa.array(buckets.reshape(-1)),
                "doc_id": ids.take(idx),
                "h64": pa.array(np.repeat(hs, 4)),
            }
        )

    # materialize the (narrow, 8-bytes-per-hash) signature table before
    # counting: sigs is usually a lazy decode+hash chain, and a bare
    # count() would execute every decode once just to size the shuffle,
    # then the pair consume would execute it all again
    sigs = sigs.materialize()
    banded = sigs.map_batches(explode, batch_format="pyarrow", batch_size=2048)
    cand = _lsh_candidate_pairs(banded, n_parts_for(sigs.count()), carry=("h64",))

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_a": batch["doc_a"],
                    "doc_b": batch["doc_b"],
                    "hamming": pa.array([], type=pa.int64()),
                }
            )
        d = hamming64(
            batch["h64"].to_numpy(zero_copy_only=False),
            batch["h64_b"].to_numpy(zero_copy_only=False),
        )
        keep = pa.array(d <= max_hamming)
        return pa.table(
            {
                "doc_a": batch["doc_a"].filter(keep),
                "doc_b": batch["doc_b"].filter(keep),
                "hamming": pa.array(d[d <= max_hamming]),
            }
        )

    empty = pd.DataFrame(columns=["doc_a", "doc_b", "hamming"])
    pairs = _consume_pairs(
        lambda: cand.map_batches(verify, batch_format="pyarrow", batch_size=8192).to_pandas(),
        cand,
        empty,
    )
    if pairs.empty:
        return empty
    return (
        pairs.drop_duplicates(["doc_a", "doc_b"])
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
