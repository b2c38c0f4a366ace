"""WAV codec tests: roundtrip, CROSS-VALIDATION against the independent
stdlib ``wave`` module in both directions, failure modes, planted
closed-form parity, and real framed features."""

import io
import struct
import wave as stdlib_wave

import numpy as np
import pytest

from fetch_engines_ray.ops.wav import (
    PLANTED_RATE,
    WavFormatError,
    decode_wav,
    encode_wav,
    planted_samples,
    planted_wav,
    planted_wav_for_ref,
)


def test_roundtrip():
    rng = np.random.RandomState(0)
    for n in (1, 7, 400, 8000):
        s = rng.randint(-32768, 32768, n).astype(np.int16)
        dec = decode_wav(encode_wav(s, 16000))
        assert dec["sample_rate"] == 16000 and dec["n_samples"] == n
        assert np.array_equal(dec["samples"], s)


def test_our_encoder_stdlib_decoder():
    rng = np.random.RandomState(1)
    s = rng.randint(-32768, 32768, 1234).astype(np.int16)
    data = encode_wav(s, 8000)
    with stdlib_wave.open(io.BytesIO(data)) as w:
        assert w.getframerate() == 8000
        assert w.getnchannels() == 1
        assert w.getsampwidth() == 2
        assert w.getnframes() == 1234
        pcm = np.frombuffer(w.readframes(1234), dtype="<i2")
    assert np.array_equal(pcm, s)


def test_stdlib_encoder_our_decoder():
    rng = np.random.RandomState(2)
    s = rng.randint(-32768, 32768, 555).astype(np.int16)
    buf = io.BytesIO()
    with stdlib_wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(22050)
        w.writeframes(s.astype("<i2").tobytes())
    dec = decode_wav(buf.getvalue())
    assert dec["sample_rate"] == 22050 and dec["n_samples"] == 555
    assert np.array_equal(dec["samples"], s)


def test_stereo_decodes():
    buf = io.BytesIO()
    s = np.arange(-100, 100, dtype=np.int16)
    with stdlib_wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(s.astype("<i2").tobytes())
    dec = decode_wav(buf.getvalue())
    assert dec["n_channels"] == 2 and dec["samples"].shape == (100, 2)


def test_failure_modes():
    with pytest.raises(WavFormatError):
        decode_wav(b"not a wave file at all....")
    good = encode_wav(np.zeros(100, dtype=np.int16), 8000)
    with pytest.raises(WavFormatError):
        decode_wav(good[:30])  # truncated
    # unsupported bit depth
    bad = bytearray(good)
    bits_off = good.index(b"fmt ") + 8 + 14
    struct.pack_into("<H", bad, bits_off, 8)
    with pytest.raises(WavFormatError, match="unsupported"):
        decode_wav(bytes(bad))


def test_planted_matches_closed_form():
    for key in (0, 1, 77, 499, 12345):
        s = planted_samples(key)
        n = 400 + (key % 200) * 8
        assert len(s) == n and n % 8 == 0
        i = np.arange(n, dtype=np.int64)
        want = ((7 * i * i + 13 * i + key) % 65536) - 32768
        assert np.array_equal(s.astype(np.int64), want)
        dec = decode_wav(planted_wav(key))
        assert dec["sample_rate"] == PLANTED_RATE
        assert np.array_equal(dec["samples"], s)
        assert dec["duration_ms"] == n // 8


def test_planted_ref_resolver_deterministic():
    a = planted_wav_for_ref("media://doc1/2")
    assert a == planted_wav_for_ref("media://doc1/2")
    assert a != planted_wav_for_ref("media://doc1/3")
    decode_wav(a)


def test_list_info_chunk_is_skipped():
    """RIFF files often carry LIST/INFO metadata chunks — the chunk walk
    must skip them (including odd-length word padding) and still find
    fmt/data."""
    s = np.arange(-50, 50, dtype=np.int16)
    data = encode_wav(s, 8000)
    # splice a LIST chunk (odd payload length -> exercises padding)
    payload = b"INFOIART\x05\x00\x00\x00abcd\x00"
    chunk = b"LIST" + struct.pack("<I", len(payload)) + payload + (b"\x00" if len(payload) & 1 else b"")
    spliced = data[:12] + chunk + data[12:]
    # fix the RIFF size field
    spliced = bytearray(spliced)
    struct.pack_into("<I", spliced, 4, len(spliced) - 8)
    dec = decode_wav(bytes(spliced))
    assert dec["sample_rate"] == 8000
    assert np.array_equal(dec["samples"], s)
