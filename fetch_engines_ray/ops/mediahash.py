"""Audio perceptual fingerprints (and the video convention).

Completes the multimodal dedup family: text (``ops/dedup.py`` minhash /
simhash), images (``ops/imagehash.py`` dHash), and — here — audio;
video is the dHash of one decoded frame.  All funnel into ONE pass of
the near-dup resolver (``ops/dedup.verified_pairs`` with the lossless
64-bit hamming bands and verify of ``ops/imagehash``, kind in the band
key) inside ``curate_media``.

Public-knowledge basis:

- **Audio**: Haitsma & Kalker, "A Highly Robust Audio Fingerprinting
  System" (ISMIR 2002) fingerprint by the SIGN of band-energy
  differences over a time-frequency grid — invariant to gain and
  robust to re-encoding.  This implementation keeps their bit rule but
  computes band energies as EXACT int64 sums of squared int16 PCM (no
  FFT library; a contiguous sub-band filterbank), so the fingerprint
  is bit-deterministic across platforms and exactly gain-invariant for
  integer scalings.
- **Video**: frame-hash fingerprinting (the standard pHash-family
  practice for clip dedup): ``curate_media`` dHashes a representative
  frame — the MIDDLE frame, matching the ``gif_decode`` oracle's
  midpoint pin — after applying the palette, so a re-encoded GIF with
  a permuted palette (same rendered pixels) hashes identically.

Ray-Data shape: ``curate_media``'s actor-pool decode+hash stage
(``pipelines/mmcurate.MediaRefFingerprinter``, over the repo's own real
WAV / GIF codecs) calls this, 8-byte hashes out, pixels/PCM never
transit the shuffle; pairing is the near-dup resolver of
``ops/dedup.py``, shared with the text and image fingerprints.  The reference engine carries media spans
opaquely (`src/MarkdownConverter.ts` media_ref placeholders); this
family is training-data-tier (SURVEY.md §2.8).
"""
from __future__ import annotations

import numpy as np

from fetch_engines_ray.ops.imagehash import _pack_bits64, pool_mean


def band_energy_matrix(
    samples: np.ndarray,
    sample_rate: int,
    n_bands: int = 9,
    frame_length_ms: int = 25,
    hop_ms: int = 10,
) -> np.ndarray:
    """``(n_frames, n_bands)`` int64 band energies: per frame, the EXACT
    sum of squared int16 samples in each contiguous sub-band (integer
    throughout, so scaling the PCM by an integer ``g`` scales every
    energy by exactly ``g**2`` — the gain-invariance proof for the sign
    bits).  Stereo input is mixed down by exact integer sum of channels
    first."""
    x = np.asarray(samples, dtype=np.int64)
    if x.ndim == 2:
        x = x.sum(axis=1)
    flen = sample_rate * frame_length_ms // 1000
    hop = sample_rate * hop_ms // 1000
    # hop==0 happens for sample rates in [1000/hop_ms, 1000/frame_ms)
    # (e.g. rate 50 at the 25/10 ms defaults: flen=1, hop=0) — treat
    # like too-short input instead of ZeroDivisionError-ing the task
    if len(x) < flen or flen == 0 or hop == 0:
        return np.zeros((0, n_bands), dtype=np.int64)
    n_frames = 1 + (len(x) - flen) // hop
    bounds = (np.arange(n_bands + 1, dtype=np.int64) * flen) // n_bands
    out = np.empty((n_frames, n_bands), dtype=np.int64)
    # slab the overlapped frame matrix (~2.5x overlap at the defaults):
    # materializing all frames at once costs ~20-40x the PCM size in
    # transient int64 — a 3-minute clip peaked ~160 MB per actor
    slab = 4096
    base = np.arange(flen)[None, :]
    for s in range(0, n_frames, slab):
        e = min(s + slab, n_frames)
        idx = base + hop * np.arange(s, e)[:, None]
        sq = x[idx] ** 2  # exact int64 (|int16|^2 <= 2^30)
        out[s:e] = np.add.reduceat(sq, bounds[:-1], axis=1)
    return out


def audio_fingerprint64(samples: np.ndarray, sample_rate: int) -> int:
    """64-bit Haitsma-Kalker-style fingerprint: band energies pooled to
    an 8x9 time-band grid (integer adaptive pooling shared with the
    image dHash), bit = band-energy gradient sign per time cell.

    Exactly invariant to integer gain (energies scale uniformly; sign
    of differences is preserved) and to WAV re-encoding (the codec is
    lossless 16-bit PCM).  Clips shorter than one frame hash to 0."""
    e = band_energy_matrix(samples, sample_rate, n_bands=9)
    if e.shape[0] == 0:
        return 0
    g = pool_mean(e, 8, 9)
    return _pack_bits64(g[:, 1:] > g[:, :-1])
