"""Pure-Python WAV (RIFF/PCM) codec — the audio analog of
:mod:`ops.png`.

The container has no audio DSP libraries, but 16-bit PCM WAV is a
self-describing public format parseable with stdlib ``struct`` — so
planted audio payloads in the synthetic corpus are genuine WAV bytes
and the decode path does genuine work: RIFF/WAVE signature checks,
chunk walk, fmt validation, PCM extraction.  Tests cross-validate both
directions against the independent stdlib ``wave`` module (our encoder
→ stdlib decoder and stdlib encoder → our decoder).

Reference analog: binary content handling in
/root/reference/src/FetchEngine.ts:211-225.

Scope: mono/stereo 16-bit PCM (format tag 1), the planted corpus is
mono 16-bit; other layouts raise ``WavFormatError``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .codecguard import guarded


class WavFormatError(ValueError):
    """Raised on malformed/unsupported WAV bytes."""


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode int16 mono samples as a canonical RIFF/WAVE/PCM file."""
    samples = np.asarray(samples, dtype="<i2")
    if samples.ndim != 1:
        raise WavFormatError("mono int16 samples expected")
    data = samples.tobytes()
    fmt = struct.pack(
        "<HHIIHH",
        1,  # PCM
        1,  # channels
        sample_rate,
        sample_rate * 2,  # byte rate
        2,  # block align
        16,  # bits per sample
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


@guarded(WavFormatError)
def decode_wav(data: bytes) -> dict:
    """Decode RIFF/WAVE 16-bit PCM → ``{sample_rate, n_channels,
    n_samples, duration_ms, samples}`` (samples: int16 array, frames x
    channels flattened for mono, ``(n, ch)`` for multi-channel)."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE stream")
    (riff_size,) = struct.unpack("<I", data[4:8])
    if riff_size + 8 > len(data) + 1:  # tolerate 1-byte RIFF padding slack
        raise WavFormatError("truncated RIFF payload")
    pos = 12
    fmt = None
    pcm = None
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        chunk = data[pos + 8 : pos + 8 + size]
        if len(chunk) < size:
            raise WavFormatError(f"truncated chunk {tag!r}")
        if tag == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk too small")
            audio_fmt, n_ch, rate, _brate, _balign, bits = struct.unpack(
                "<HHIIHH", chunk[:16]
            )
            if audio_fmt != 1 or bits != 16:
                raise WavFormatError(
                    f"unsupported layout: format={audio_fmt} bits={bits}"
                )
            if n_ch not in (1, 2):
                raise WavFormatError(f"unsupported channel count {n_ch}")
            fmt = (n_ch, rate)
        elif tag == b"data":
            pcm = chunk
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or pcm is None:
        raise WavFormatError("missing fmt/data chunk")
    n_ch, rate = fmt
    if len(pcm) % (2 * n_ch):
        raise WavFormatError("data chunk not sample-aligned")
    samples = np.frombuffer(pcm, dtype="<i2")
    n_samples = len(samples) // n_ch
    if n_ch > 1:
        samples = samples.reshape(n_samples, n_ch)
    return {
        "sample_rate": rate,
        "n_channels": n_ch,
        "n_samples": n_samples,
        "duration_ms": n_samples * 1000 // rate,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# Planted payloads for the synthetic corpus
# ---------------------------------------------------------------------------

PLANTED_RATE = 8000


def planted_samples(key: int) -> np.ndarray:
    """Deterministic integer "audio" for ``key``: ``n = 400 + (key %
    200) * 8`` samples (so duration_ms = n / 8 is exact at 8 kHz) with
    ``s[i] = ((7 i^2 + 13 i + key) % 65536) - 32768`` — a closed form
    the SQL oracle mirrors exactly; the engine recovers the values only
    by parsing the WAV container."""
    n = 400 + (key % 200) * 8
    i = np.arange(n, dtype=np.int64)
    return (((7 * i * i + 13 * i + key) % 65536) - 32768).astype(np.int16)


def planted_wav(key: int) -> bytes:
    return encode_wav(planted_samples(key), PLANTED_RATE)


def planted_wav_for_ref(media_ref: str) -> bytes:
    """Resolve a corpus ``media://...`` audio ref to its planted WAV
    payload — the deterministic network-fetch stand-in (same contract
    as :func:`ops.png.planted_png_for_ref`)."""
    key = zlib.crc32(media_ref.encode()) & 0x7FFFFFFF
    return planted_wav(key)
