"""Multimodal (image/audio/video) stage plumbing.

Media payloads are opaque ``binary``/``media_ref`` columns.
:func:`media_spans_dataset` explodes the media spans of extraction
output into one row per span (``curate_media`` fingerprints them).  The
decode stages below are actor-pool ``map_batches`` UDFs behind the
oracled real-decode gate queries; each one actually runs its codec:

* **image** — :class:`PngDecoder` (``ops.png.decode_png``: CRC-verified
  chunk walk, zlib inflate, all five PNG row filters) plus the
  :func:`letterbox` / :func:`resample_nearest` resize, and
  :class:`JpegDecoder` (``ops.jpeg.decode_jpeg``: Huffman scan + IDCT).
* **audio** — :class:`WavDecoder` (``ops.wav.decode_wav``: RIFF/WAVE
  16-bit PCM).
* **video** — :class:`GifDecoder` (``ops.gif.decode_gif``: GIF89a with
  per-frame Graphic Control delays and a full variable-width LZW
  inflate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .gif import decode_gif
from .png import decode_png
from .wav import decode_wav


def media_spans_dataset(extracted_ds):
    """Explode media spans out of extraction output → one row per media
    span (media_ref, kind, doc_id)."""

    def explode(batch: pa.Table) -> pa.Table:
        doc_ids, refs, kinds = [], [], []
        for doc_id, spans in zip(
            batch["doc_id"].to_pylist(), batch["out_spans"].to_pylist()
        ):
            for s in spans or []:
                if s["kind"] in ("image", "video", "audio"):
                    doc_ids.append(doc_id)
                    refs.append(s["media_ref"])
                    kinds.append(s["kind"])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.string()),
                "media_ref": pa.array(refs, type=pa.string()),
                "kind": pa.array(kinds, type=pa.string()),
            }
        )

    return extracted_ds.map_batches(explode, batch_format="pyarrow", batch_size=1024)


def letterbox(w: int, h: int, tw: int, th: int) -> tuple[int, int]:
    """Aspect-preserving fit of (w, h) inside (tw, th) — the one
    letterbox formula, used by :class:`PngDecoder` for the oracled
    ``png_decode`` query (its SQL mirrors exactly this arithmetic)."""
    scale = min(tw / w, th / h)
    return max(1, int(w * scale)), max(1, int(h * scale))


def resample_nearest(pixels: np.ndarray, rw: int, rh: int) -> np.ndarray:
    """REAL pixel resampling: nearest-neighbor (pixel-center mapping,
    ``src = ((2*dst + 1) * src_dim) // (2 * dst_dim)`` — integer-exact,
    so the SQL oracle can mirror it bit-for-bit).  Vectorized as two
    index-map gathers; works for ``(h, w)`` grey and ``(h, w, 3)``
    RGB."""
    h, w = pixels.shape[:2]
    ys = ((2 * np.arange(rh, dtype=np.int64) + 1) * h) // (2 * rh)
    xs = ((2 * np.arange(rw, dtype=np.int64) + 1) * w) // (2 * rw)
    return pixels[ys][:, xs]


PNG_DECODE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("width", pa.int64()),
        ("height", pa.int64()),
        ("bit_depth", pa.int64()),
        ("pixel_sum", pa.int64()),
        ("resized_width", pa.int64()),
        ("resized_height", pa.int64()),
        ("resized_pixel_sum", pa.int64()),
    ]
)


class PngDecoder:
    """Actor-pool stage for the oracled real-decode query: (doc_id,
    payload) batches in, fully-decoded metadata out.  ``pixel_sum`` is
    the sum over every decoded pixel value — recoverable only by
    actually inflating and de-filtering the IDAT stream — the letterbox
    plan reuses :func:`letterbox` on the decoded dimensions, and
    ``resized_pixel_sum`` sums the REAL letterboxed nearest-neighbor
    resample (:func:`resample_nearest`) of the decoded pixels."""

    def __init__(self, target_size: tuple[int, int] = (224, 224)) -> None:
        self.tw, self.th = target_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, payload in zip(
            batch["doc_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            dec = decode_png(payload)
            rw, rh = letterbox(dec["width"], dec["height"], self.tw, self.th)
            resized = resample_nearest(dec["pixels"], rw, rh)
            rows.append(
                {
                    "doc_id": int(doc_id),
                    "width": dec["width"],
                    "height": dec["height"],
                    "bit_depth": dec["bit_depth"],
                    "pixel_sum": int(dec["pixels"].astype(np.int64).sum()),
                    "resized_width": rw,
                    "resized_height": rh,
                    "resized_pixel_sum": int(resized.astype(np.int64).sum()),
                }
            )
        return pa.Table.from_pylist(rows, schema=PNG_DECODE_SCHEMA)


JPEG_DECODE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("width", pa.int64()),
        ("height", pa.int64()),
        ("level", pa.int64()),
        ("pixel_sum", pa.int64()),
    ]
)


class JpegDecoder:
    """Actor-pool stage for the oracled REAL-JPEG-decode query:
    (doc_id, payload) batches in, decoded metadata out.  ``level`` is
    the top-left decoded sample and ``pixel_sum`` the sum over every
    decoded pixel — both recoverable only by actually Huffman-decoding
    the entropy-coded scan and running the IDCT (ops/jpeg.py); the
    planted solid tiles quantize LOSSILY at quality 50, so the values
    differ from the encoder input by the closed quantization form the
    SQL oracle mirrors."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .jpeg import decode_jpeg

        rows = []
        for doc_id, payload in zip(
            batch["doc_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            dec = decode_jpeg(payload)
            px = dec["pixels"].astype(np.int64)
            rows.append(
                {
                    "doc_id": int(doc_id),
                    "width": dec["width"],
                    "height": dec["height"],
                    "level": int(px.flat[0]),
                    "pixel_sum": int(px.sum()),
                }
            )
        return pa.Table.from_pylist(rows, schema=JPEG_DECODE_SCHEMA)


GIF_DECODE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("width", pa.int64()),
        ("height", pa.int64()),
        ("n_frames", pa.int64()),
        ("duration_ms", pa.int64()),
        ("pixel_sum", pa.int64()),
        ("mid_frame_sum", pa.int64()),
    ]
)


class GifDecoder:
    """Actor-pool stage for the oracled real-VIDEO-decode query:
    (doc_id, payload) batches in, fully-decoded metadata out.
    ``pixel_sum`` sums every RGB value across every decoded frame and
    ``mid_frame_sum`` sums the middle frame (``n_frames // 2``) — both
    recoverable only by actually LZW-inflating each frame's image data
    and applying the global color table; ``duration_ms`` comes from the
    per-frame Graphic Control delays."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, payload in zip(
            batch["doc_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            dec = decode_gif(payload)
            stacked = np.stack(dec["frames"]).astype(np.int64)
            rows.append(
                {
                    "doc_id": int(doc_id),
                    "width": dec["width"],
                    "height": dec["height"],
                    "n_frames": dec["n_frames"],
                    "duration_ms": dec["duration_ms"],
                    "pixel_sum": int(stacked.sum()),
                    "mid_frame_sum": int(stacked[dec["n_frames"] // 2].sum()),
                }
            )
        return pa.Table.from_pylist(rows, schema=GIF_DECODE_SCHEMA)


WAV_DECODE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("sample_rate", pa.int64()),
        ("n_samples", pa.int64()),
        ("duration_ms", pa.int64()),
        ("pcm_abs_sum", pa.int64()),
        ("n_frames", pa.int64()),
    ]
)


class WavDecoder:
    """Actor-pool stage for the oracled real-audio-decode query:
    (doc_id, payload) batches in, fully-decoded metadata out.
    ``pcm_abs_sum`` sums |sample| over every decoded PCM value —
    recoverable only by actually parsing the RIFF data chunk — and
    ``n_frames`` is the 25 ms / 10 ms framing count over the decoded
    stream."""

    def __init__(self, frame_length_ms: int = 25, hop_ms: int = 10) -> None:
        self.frame_length_ms = frame_length_ms
        self.hop_ms = hop_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, payload in zip(
            batch["doc_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            dec = decode_wav(payload)
            s = np.asarray(dec["samples"], dtype=np.int64).reshape(-1)
            flen = dec["sample_rate"] * self.frame_length_ms // 1000
            hop = dec["sample_rate"] * self.hop_ms // 1000
            n_frames = 1 + (dec["n_samples"] - flen) // hop if dec["n_samples"] >= flen else 0
            rows.append(
                {
                    "doc_id": int(doc_id),
                    "sample_rate": dec["sample_rate"],
                    "n_samples": dec["n_samples"],
                    "duration_ms": dec["duration_ms"],
                    "pcm_abs_sum": int(np.abs(s).sum()),
                    "n_frames": n_frames,
                }
            )
        return pa.Table.from_pylist(rows, schema=WAV_DECODE_SCHEMA)
