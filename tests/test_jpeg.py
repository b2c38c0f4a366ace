"""REAL baseline JPEG codec (ops/jpeg.py): roundtrip fidelity,
closed-form solid-tile exactness, subsampling, malformed payloads, and
the actor-pool decode stage."""

import numpy as np
import pytest

from fetch_engines_ray.ops.jpeg import (
    PLANTED_QUALITY,
    QUANT_LUMA,
    JpegFormatError,
    decode_jpeg,
    encode_jpeg,
    jpeg_oracle_sql,
    planted_dims,
    planted_gray,
    planted_jpeg,
    scaled_quant,
)


def planted_decoded_gray(key: int) -> int:
    """The closed-form decoded level of :func:`planted_jpeg`, so the
    tests can pin engine == closed form == SQL oracle."""
    q = int(scaled_quant(QUANT_LUMA, PLANTED_QUALITY)[0])
    g = planted_gray(key)
    c = 8.0 * (g - 128)
    # encoder quantization is half-away-from-zero (sign * floor(|c|/q + 0.5))
    dcq = int(np.sign(c) * np.floor(abs(c) / q + 0.5))
    level = int(np.floor(dcq * q / 8.0 + 0.5)) + 128
    return max(0, min(255, level))


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return 10 * np.log10(255.0**2 / max(mse, 1e-12))


def test_solid_tiles_match_closed_form():
    """Planted solid tiles decode to EXACTLY the quantization closed
    form — every pixel, not just a summary — and quality 50 really is
    lossy (some planted levels differ from the encoder input)."""
    lossy_seen = False
    for key in range(40):
        d = decode_jpeg(planted_jpeg(key))
        w, h = planted_dims(key)
        assert (d["width"], d["height"]) == (w, h)
        expect = planted_decoded_gray(key)
        assert d["pixels"].shape == (h, w)
        assert (d["pixels"] == expect).all(), key
        if expect != planted_gray(key):
            lossy_seen = True
    assert lossy_seen  # the oracle exercises real quantization loss


def test_planted_quality_quantizer_is_lossy():
    q0 = int(scaled_quant(QUANT_LUMA, PLANTED_QUALITY)[0])
    assert q0 == 16  # quality-50 Annex-K DC quantizer; 8*delta/16 rounds


def test_grayscale_roundtrip_psnr():
    x = np.linspace(0, 1, 64)
    img = ((np.outer(np.sin(x * 3), np.cos(x * 2)) * 0.5 + 0.5) * 255).astype(np.uint8)
    for q, bar in ((95, 40.0), (75, 33.0), (40, 28.0)):
        d = decode_jpeg(encode_jpeg(img, quality=q))
        assert d["pixels"].shape == img.shape
        assert _psnr(d["pixels"], img) > bar, q


def test_rgb_roundtrip_both_subsamplings():
    x = np.linspace(0, 1, 48)
    yy, xx = np.meshgrid(x, x, indexing="ij")
    rgb = np.stack(
        [(xx * 200 + 20), (yy * 180 + 30), ((xx + yy) * 100 + 20)], axis=-1
    ).astype(np.uint8)
    for sub, bar in (("4:4:4", 40.0), ("4:2:0", 35.0)):
        d = decode_jpeg(encode_jpeg(rgb, quality=90, subsampling=sub))
        assert d["pixels"].shape == rgb.shape
        assert _psnr(d["pixels"], rgb) > bar, sub


def test_solid_rgb_near_exact():
    rgb = np.full((16, 24, 3), [200, 80, 40], dtype=np.uint8)
    d = decode_jpeg(encode_jpeg(rgb, quality=90))
    assert np.abs(d["pixels"].astype(int) - rgb.astype(int)).max() <= 2


def test_odd_dimensions_and_edges():
    for shape in ((7, 5), (9, 17), (1, 1), (8, 8), (17, 33)):
        g = (np.arange(np.prod(shape)).reshape(shape) % 256).astype(np.uint8)
        d = decode_jpeg(encode_jpeg(g, quality=95))
        assert d["pixels"].shape == shape, shape
    # odd RGB under 4:2:0 (chroma plane needs padding on both axes)
    rgb = np.full((13, 11, 3), [10, 200, 90], dtype=np.uint8)
    d = decode_jpeg(encode_jpeg(rgb, quality=85, subsampling="4:2:0"))
    assert d["pixels"].shape == (13, 11, 3)
    assert np.abs(d["pixels"].astype(int) - rgb.astype(int)).max() <= 6


def test_byte_stuffing_roundtrip():
    """A gradient tuned to produce 0xFF bytes in the entropy stream
    still roundtrips (stuffed 0x00 handled on both sides)."""
    rng = np.random.RandomState(5)
    for _ in range(5):
        img = rng.randint(0, 256, (32, 32), dtype=np.uint8).astype(np.uint8)
        payload = encode_jpeg(img, quality=30)
        d = decode_jpeg(payload)
        assert d["pixels"].shape == img.shape


def test_malformed_payloads_raise():
    good = planted_jpeg(3)
    with pytest.raises(JpegFormatError):
        decode_jpeg(b"\x89PNG\r\n")  # not a JPEG
    with pytest.raises(JpegFormatError):
        decode_jpeg(good[:20])  # truncated in the marker section
    with pytest.raises(JpegFormatError):
        decode_jpeg(good[:-30])  # truncated entropy data
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4)), quality=75)  # not uint8
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4), np.uint8), quality=0)


def test_progressive_marker_rejected():
    """SOF2 (progressive) is recognized and refused, not mis-decoded."""
    payload = bytearray(planted_jpeg(1))
    i = payload.find(b"\xff\xc0")
    payload[i + 1] = 0xC2
    with pytest.raises(JpegFormatError, match="non-baseline"):
        decode_jpeg(bytes(payload))


def test_oracle_sql_matches_decoder(ray_session):
    """The SQL closed form (DuckDB) equals the REAL decode for a key
    range — the same contract the driver gate checks corpus-wide."""
    import duckdb

    want = duckdb.sql(
        "SELECT doc_id, width, height, level, pixel_sum FROM ("
        + jpeg_oracle_sql("(SELECT unnest(range(0, 64)) AS doc_id)")
        + ")"
    ).df()
    for _, row in want.iterrows():
        d = decode_jpeg(planted_jpeg(int(row["doc_id"])))
        px = d["pixels"].astype(np.int64)
        assert d["width"] == row["width"] and d["height"] == row["height"]
        assert int(px.flat[0]) == row["level"]
        assert int(px.sum()) == row["pixel_sum"]


def test_jpeg_decoder_actor_stage(ray_session):
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.jpeg import planted_jpeg as pj
    from fetch_engines_ray.ops.multimodal import JpegDecoder

    df = pd.DataFrame(
        {"doc_id": range(12), "payload": [pj(i) for i in range(12)]}
    )
    out = (
        ray.data.from_pandas(df)
        .map_batches(JpegDecoder, batch_format="pyarrow", batch_size=4, concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(out) == 12
    for i in range(12):
        w, h = planted_dims(i)
        assert out.loc[i, "width"] == w and out.loc[i, "height"] == h
        assert out.loc[i, "level"] == planted_decoded_gray(i)
        assert out.loc[i, "pixel_sum"] == w * h * planted_decoded_gray(i)


def test_codec_guard_every_truncation_and_flip_raises_format_error():
    """The decode contract — malformed bytes raise *FormatError, never a
    raw IndexError/KeyError/struct.error — must hold for EVERY
    truncation and single-byte corruption, because a decode stage can
    turn exactly that class into a flagged row; any other type kills
    the whole Ray task (review finding, fuzz-found:
    ~20 % of truncations escaped as low-level errors pre-guard)."""
    good = planted_jpeg(7)
    for cut in range(2, len(good)):
        try:
            decode_jpeg(good[:cut])  # cuts past the last MCU still decode
        except JpegFormatError:
            pass  # the ONLY acceptable failure type
    rng = np.random.default_rng(42)
    for _ in range(300):
        b = bytearray(good)
        i = int(rng.integers(2, len(b)))
        b[i] ^= int(rng.integers(1, 255))
        try:
            decode_jpeg(bytes(b))  # some flips still decode — fine
        except JpegFormatError:
            pass  # the ONLY acceptable failure type
