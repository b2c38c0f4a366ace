"""Pure-Python animated-GIF codec tests (no Ray needed except the
stage test): LZW roundtrips across shapes/palettes including forced
code-width growth and the 12-bit table reset, failure modes, extension
tolerance, the public minimal-GIF vector, and planted payload parity
with the closed form the SQL oracle mirrors."""

import numpy as np
import pytest

from fetch_engines_ray.ops.gif import (
    GifFormatError,
    _lzw_decode,
    _lzw_encode,
    decode_gif,
    encode_gif,
    planted_delays_cs,
    planted_frames,
    planted_gif,
    planted_gif_for_ref,
    planted_palette,
)


def _pal(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.int64)
    return np.stack([(i * 5) % 256, (i * 9) % 256, (i * 13) % 256], axis=1).astype(
        np.uint8
    )


def test_roundtrip_shapes_and_palettes():
    rng = np.random.RandomState(0)
    for n_colors in [4, 16, 64, 256]:
        for shape in [(1, 1), (3, 7), (13, 4), (9, 9)]:
            frames = [
                rng.randint(0, n_colors, size=shape).astype(np.uint8)
                for _ in range(3)
            ]
            dec = decode_gif(encode_gif(frames, _pal(n_colors), [2, 5, 9]))
            assert dec["width"] == shape[1] and dec["height"] == shape[0]
            assert dec["n_frames"] == 3
            assert dec["delays_ms"] == [20, 50, 90]
            assert dec["duration_ms"] == 160
            for a, b in zip(dec["index_frames"], frames):
                assert np.array_equal(a, b), (n_colors, shape)
            # RGB frames are the palette applied to the indices
            pal = _pal(n_colors)
            for rgb, idx in zip(dec["frames"], frames):
                assert np.array_equal(rgb, pal[idx])


def test_lzw_width_growth_and_kwkwk():
    """Noisy 64-color frames force the code width past the initial
    mcs+1 bits; repetitive data exercises the KwKwK (code == next
    slot) decode case.  Pins the encoder/decoder width pairing derived
    in the module docstring."""
    rng = np.random.RandomState(1)
    noisy = rng.randint(0, 64, size=(60, 80)).astype(np.uint8)
    rep = np.tile(np.array([[1, 1, 1, 2, 2, 2]], dtype=np.uint8), (10, 20))
    for frame in [noisy, rep]:
        dec = decode_gif(encode_gif([frame], planted_palette(), [4]))
        assert np.array_equal(dec["index_frames"][0], frame)


def test_lzw_12bit_cap_reset():
    """A 200x300 noise frame overflows the 4096-entry LZW table; the
    encoder must emit a mid-stream clear code and the decoder must
    rebuild its table."""
    rng = np.random.RandomState(2)
    big = rng.randint(0, 64, size=(200, 300)).astype(np.uint8)
    dec = decode_gif(encode_gif([big], planted_palette(), [4]))
    assert np.array_equal(dec["index_frames"][0], big)


def test_lzw_raw_roundtrip_small_alphabet():
    rng = np.random.RandomState(3)
    for mcs in [2, 4, 6, 8]:
        data = rng.randint(0, 1 << mcs, size=5000).astype(np.uint8).tobytes()
        assert _lzw_decode(_lzw_encode(data, mcs), mcs, len(data)) == data


def test_public_minimal_gif_vector():
    """The widely-documented minimal 1x1 GIF89a byte sequence (public
    knowledge, e.g. the canonical 'smallest GIF' example) must decode:
    one 1x1 frame, palette index 0, zero delay, transparency extension
    tolerated."""
    tiny = bytes(
        [0x47, 0x49, 0x46, 0x38, 0x39, 0x61,  # GIF89a
         0x01, 0x00, 0x01, 0x00, 0x80, 0x00, 0x00,  # LSD 1x1 + GCT flag
         0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF,  # 2-color table
         0x21, 0xF9, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00,  # GCE
         0x2C, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00,
         0x02, 0x02, 0x44, 0x01, 0x00,  # mcs=2, LZW data
         0x3B]
    )
    dec = decode_gif(tiny)
    assert (dec["width"], dec["height"], dec["n_frames"]) == (1, 1, 1)
    assert dec["index_frames"][0][0, 0] == 0
    assert np.array_equal(dec["frames"][0][0, 0], [0, 0, 0])


def test_unknown_extensions_tolerated():
    g = bytearray(encode_gif([np.zeros((2, 3), dtype=np.uint8)], _pal(4), [1]))
    # splice a comment extension right after the global color table
    insert_at = 13 + 4 * 3
    comment = b"\x21\xfe\x05hello\x00"
    g2 = bytes(g[:insert_at]) + comment + bytes(g[insert_at:])
    dec = decode_gif(g2)
    assert dec["n_frames"] == 1 and dec["width"] == 3


def test_malformed_raises():
    good = encode_gif([np.zeros((2, 2), dtype=np.uint8)], _pal(4), [1])
    with pytest.raises(GifFormatError, match="signature"):
        decode_gif(b"NOTAGIF" + good)
    with pytest.raises(GifFormatError):
        decode_gif(good[:20])  # truncated
    bad = bytearray(good)
    bad[-2] ^= 0x04  # corrupt a byte inside the LZW data
    with pytest.raises(GifFormatError):
        decode_gif(bytes(bad))
    # interlace flag rejected, not guessed
    interlaced = bytearray(good)
    # image descriptor starts after header+LSD+GCT+netscape(19 bytes)+GCE(8)
    idesc = bytes(good).index(b"\x2c", 13 + 12)
    interlaced[idesc + 9] |= 0x40
    with pytest.raises(GifFormatError, match="interlaced"):
        decode_gif(bytes(interlaced))


def test_planted_closed_form():
    """Planted payloads must decode to exactly the closed form the SQL
    oracle mirrors (dims, index pattern, palette arithmetic, delays)."""
    for key in [0, 1, 7, 123, 4567, 2**31 - 1]:
        dec = decode_gif(planted_gif(key))
        w, h, nf = 4 + key % 11, 3 + key % 5, 2 + key % 4
        assert (dec["width"], dec["height"], dec["n_frames"]) == (w, h, nf)
        assert dec["delays_ms"] == [10 * d for d in planted_delays_cs(key)]
        frames = planted_frames(key)
        pal = planted_palette()
        expect_sum = 0
        for f in range(nf):
            idx = frames[f].astype(np.int64)
            assert np.array_equal(dec["index_frames"][f], frames[f])
            assert np.array_equal(dec["frames"][f], pal[frames[f]])
            expect_sum += int(pal[frames[f]].astype(np.int64).sum())
        # the quantity the oracled gif_decode query reconstructs
        got_sum = sum(int(fr.astype(np.int64).sum()) for fr in dec["frames"])
        assert got_sum == expect_sum


def test_planted_ref_resolver_stable():
    a = planted_gif_for_ref("media://video/abc")
    b = planted_gif_for_ref("media://video/abc")
    c = planted_gif_for_ref("media://video/xyz")
    assert a == b and a != c
    assert decode_gif(a)["n_frames"] >= 2


def test_decode_gif_frame_parity_with_full_decode():
    """Selective single-frame decode returns exactly the full decode's
    frame, metadata, and palette application, for every frame index."""
    import numpy as np

    from fetch_engines_ray.ops.gif import decode_gif, decode_gif_frame, planted_gif

    for key in (3, 41, 977):
        data = planted_gif(key)
        full = decode_gif(data)
        mid = decode_gif_frame(data)
        assert mid["frame_index"] == full["n_frames"] // 2
        assert mid["n_frames"] == full["n_frames"]
        assert mid["duration_ms"] == full["duration_ms"]
        assert (mid["width"], mid["height"]) == (full["width"], full["height"])
        assert np.array_equal(mid["frame"], full["frames"][full["n_frames"] // 2])
        for i in range(full["n_frames"]):
            one = decode_gif_frame(data, index=i)
            assert np.array_equal(one["index_frame"], full["index_frames"][i])


def test_decode_gif_frame_failure_modes():
    import pytest

    from fetch_engines_ray.ops.gif import GifFormatError, decode_gif_frame, planted_gif

    data = planted_gif(7)
    with pytest.raises(GifFormatError):
        decode_gif_frame(data, index=99)
    with pytest.raises(GifFormatError):
        decode_gif_frame(data[:20])  # truncated
