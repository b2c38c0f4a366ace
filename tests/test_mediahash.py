"""Audio/video perceptual fingerprints (ops/mediahash.py, and the
middle-frame dHash ``pipelines/mmcurate.py`` takes of a GIF): exact-integer
band energies, gain invariance and palette-permutation invariance."""

import numpy as np

from fetch_engines_ray.ops.gif import (
    decode_gif_frame,
    encode_gif,
    planted_frames,
    planted_palette,
)
from fetch_engines_ray.ops.imagehash import dhash64
from fetch_engines_ray.ops.mediahash import audio_fingerprint64, band_energy_matrix
from fetch_engines_ray.ops.wav import decode_wav, encode_wav

RATE = 8000


def _tone(key: int, n: int = 4000, amp_mod: int = 8000) -> np.ndarray:
    i = np.arange(n, dtype=np.int64)
    return (((7 * i * i + 13 * i + key) % (2 * amp_mod)) - amp_mod).astype(np.int16)


def _clip(key: int, n: int = 4000) -> np.ndarray:
    """Key-distinct test audio: white noise with a per-segment gain
    envelope, so each key has its own time-energy landscape (the
    quadratic `_tone` pattern has near-identical band structure across
    keys and is only useful for exactness tests)."""
    rng = np.random.RandomState(key)
    seg = np.repeat(rng.randint(1, 16, size=8), n // 8 + 1)[:n]
    base = rng.randint(-500, 500, size=n)
    return (base * seg).astype(np.int16)  # |max| 7500: x2 gain stays in int16


def test_band_energy_matrix_exact_integer():
    s = np.array([1, -2, 3, -4] * 100, dtype=np.int16)
    e = band_energy_matrix(s, RATE, n_bands=4, frame_length_ms=25, hop_ms=10)
    flen = RATE * 25 // 1000  # 200
    assert e.shape == (3, 4)
    # first frame, first band = exact sum of squares of samples 0..49
    expect = int((s[:50].astype(np.int64) ** 2).sum())
    assert e[0, 0] == expect
    assert e.dtype == np.int64


def test_band_energy_stereo_mixdown():
    mono = _tone(5, n=1000)
    stereo = np.stack([mono, mono], axis=1)
    e_mono2 = band_energy_matrix(mono.astype(np.int64) * 2, RATE)
    e_stereo = band_energy_matrix(stereo, RATE)
    assert np.array_equal(e_mono2, e_stereo)


def test_audio_fingerprint_gain_invariant():
    s = _clip(11)
    assert audio_fingerprint64(s, RATE) == audio_fingerprint64(
        (s.astype(np.int64) * 2).astype(np.int16), RATE
    )
    assert audio_fingerprint64(s, RATE) == audio_fingerprint64(
        (s.astype(np.int64) * 3).astype(np.int32), RATE
    )


def test_audio_fingerprint_roundtrip_and_separation():
    a, b = _clip(11), _clip(9731)
    fa = audio_fingerprint64(a, RATE)
    dec = decode_wav(encode_wav(a, RATE))
    assert audio_fingerprint64(dec["samples"], dec["sample_rate"]) == fa
    xor = np.uint64(fa) ^ np.uint64(audio_fingerprint64(b, RATE))
    assert bin(int(xor)).count("1") > 3  # distinct content lands far apart


def test_audio_fingerprint_short_clip_is_zero():
    assert audio_fingerprint64(np.zeros(10, dtype=np.int16), RATE) == 0


def test_video_fingerprint_palette_permutation_invariant():
    frames = planted_frames(7)
    palette = planted_palette()
    n = palette.shape[0]
    rng = np.random.RandomState(3)
    perm = rng.permutation(n).astype(np.uint8)
    permuted_palette = np.zeros_like(palette)
    permuted_palette[perm] = palette  # color i now lives at slot perm[i]
    remapped = [perm[f] for f in frames]
    from fetch_engines_ray.ops.gif import decode_gif

    g1 = encode_gif(frames, palette, [10] * len(frames))
    g2 = encode_gif(remapped, permuted_palette, [10] * len(frames))
    d1, d2 = decode_gif(g1), decode_gif(g2)
    assert np.array_equal(d1["frames"][0], d2["frames"][0])  # rendered pixels equal
    assert dhash64(decode_gif_frame(g1)["frame"]) == dhash64(decode_gif_frame(g2)["frame"])


def test_video_fingerprint_separates_distinct_animations():
    from fetch_engines_ray.ops.gif import planted_gif

    f1 = dhash64(decode_gif_frame(planted_gif(3))["frame"])
    f2 = dhash64(decode_gif_frame(planted_gif(977))["frame"])
    xor = np.uint64(f1) ^ np.uint64(f2)
    assert bin(int(xor)).count("1") > 3


def test_band_energy_matrix_low_sample_rate_no_crash():
    """Sample rates where hop floors to 0 (e.g. 50 Hz at 25/10 ms
    defaults) must degrade to an empty matrix, not ZeroDivisionError
    (review finding); slab framing stays bit-identical to the full
    matrix on normal input."""
    import numpy as np

    from fetch_engines_ray.ops.mediahash import band_energy_matrix

    assert band_energy_matrix(np.ones(500, dtype=np.int16), 50).shape == (0, 9)
    # slab-vs-reference parity on a clip spanning multiple slabs
    rng = np.random.default_rng(4)
    x = rng.integers(-3000, 3000, size=8000 * 60, dtype=np.int64)
    out = band_energy_matrix(x, 8000)
    flen, hop = 8000 * 25 // 1000, 8000 * 10 // 1000
    n = 1 + (len(x) - flen) // hop
    idx = np.arange(flen)[None, :] + hop * np.arange(n)[:, None]
    bounds = (np.arange(10, dtype=np.int64) * flen) // 9
    want = np.add.reduceat(x[idx] ** 2, bounds[:-1], axis=1)
    assert (out == want).all()
