"""REAL baseline JPEG codec, pure stdlib + numpy.

Completes the multimodal codec family (ops/png.py lossless image,
ops/wav.py PCM audio, ops/gif.py LZW video) with the dominant lossy
web-image format: baseline sequential DCT JFIF (ITU-T T.81), standard
Annex-K quantization + Huffman tables, IJG quality scaling.

Encoder: grayscale or RGB, 4:4:4 or 4:2:0 chroma subsampling — level
shift, 8x8 forward DCT (one numpy matmul pair per component, all
blocks at once), quantization (half-up), zigzag, DC-difference +
run-length AC Huffman coding with 0xFF byte stuffing.

Decoder: full baseline parse (SOI/APP/DQT/DHT/SOF0/DRI/SOS/EOI),
canonical Huffman tables rebuilt from the DHT bit-length counts,
entropy decode with restart-marker handling, dequantize, inverse
zigzag, IDCT (same matmul pair, transposed), chroma upsampling via
``np.repeat``, YCbCr -> RGB, clamp.  Rounding conventions are pinned
(half-up via ``floor(x + 0.5)``) so decoded output is bit-stable
across platforms — the SQL oracle for planted solid tiles mirrors the
exact integer form.

Reference analog: binary content fetched by the reference
(/root/reference/src/FetchEngine.ts:211-225) is opaque bytes; this
codec (like the PNG/WAV/GIF ones) makes the decode stage REAL.
"""

from __future__ import annotations

import struct

import numpy as np

from .codecguard import guarded


class JpegFormatError(ValueError):
    """Malformed or unsupported JPEG payload."""


# ----------------------------------------------------------------- tables

ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

# ITU-T T.81 Annex K.1 — luminance / chrominance quantization
QUANT_LUMA = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
)
QUANT_CHROMA = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int64,
)

# Annex K.3 typical Huffman tables: (bits[1..16], values)
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]

# orthonormal 8-point DCT-II basis matrix (C @ block @ C.T == 2-D DCT
# in the JPEG normalization)
_C = np.zeros((8, 8))
for _k in range(8):
    for _n in range(8):
        _C[_k, _n] = np.cos((2 * _n + 1) * _k * np.pi / 16.0) * (
            np.sqrt(1.0 / 8.0) if _k == 0 else np.sqrt(2.0 / 8.0)
        )


def scaled_quant(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling: 1..100 -> scaled table clamped to [1, 255]."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in 1..100, got {quality}")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (base * scale + 50) // 100
    return np.clip(q, 1, 255).astype(np.int64)


def _half_up(x: np.ndarray) -> np.ndarray:
    """Pinned rounding: floor(x + 0.5) — identical in numpy and SQL."""
    return np.floor(x + 0.5).astype(np.int64)


# ------------------------------------------------------------- bit I/O


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:  # byte stuffing
                self.out.append(0x00)

    def flush(self) -> None:
        if self._nbits:
            pad = 8 - self._nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per spec


class _BitReader:
    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos
        self._acc = 0
        self._nbits = 0

    def _fill(self) -> None:
        if self.pos >= len(self.data):
            raise JpegFormatError("truncated entropy-coded segment")
        b = self.data[self.pos]
        self.pos += 1
        if b == 0xFF:
            if self.pos >= len(self.data):
                raise JpegFormatError("truncated after 0xFF")
            nxt = self.data[self.pos]
            if nxt == 0x00:
                self.pos += 1  # stuffed byte
            else:
                # a real marker inside the scan — signal to caller
                self.pos -= 1
                raise _MarkerInScan()
        self._acc = (self._acc << 8) | b
        self._nbits += 8

    def read_bit(self) -> int:
        if self._nbits == 0:
            self._fill()
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def receive(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def align(self) -> None:
        self._acc = 0
        self._nbits = 0


class _MarkerInScan(Exception):
    pass


# ------------------------------------------------------------- huffman


def _build_encode_table(bits, vals) -> dict:
    """symbol -> (code, length) canonical assignment."""
    table = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            table[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return table


def _build_decode_table(bits, vals) -> dict:
    """(length, code) -> symbol."""
    table = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            table[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return table


def _decode_symbol(br: _BitReader, table: dict) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read_bit()
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise JpegFormatError("invalid Huffman code")


def _category(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length()


def _amplitude_bits(v: int, size: int) -> int:
    return v if v >= 0 else v + (1 << size) - 1


def _extend(v: int, size: int) -> int:
    if size == 0:
        return 0
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


# ------------------------------------------------------------- encoder


def _to_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) -> (n_blocks, 8, 8) row-major, edge-replicated padding."""
    h, w = plane.shape
    ph, pw = (h + 7) // 8 * 8, (w + 7) // 8 * 8
    padded = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return (
        padded.reshape(ph // 8, 8, pw // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


def _encode_plane(
    bw: _BitWriter,
    blocks_q: np.ndarray,
    dc_table: dict,
    ac_table: dict,
    pred: int,
) -> int:
    """Entropy-code quantized zigzag blocks (n, 64); returns new DC
    predictor."""
    for blk in blocks_q:
        dc = int(blk[0])
        diff = dc - pred
        pred = dc
        size = _category(diff)
        code, length = dc_table[size]
        bw.write(code, length)
        if size:
            bw.write(_amplitude_bits(diff, size), size)
        run = 0
        nz = np.nonzero(blk[1:])[0]
        last = nz[-1] + 1 if len(nz) else 0
        for i in range(1, last + 1):
            v = int(blk[i])
            if v == 0:
                run += 1
                continue
            while run > 15:
                code, length = ac_table[0xF0]  # ZRL
                bw.write(code, length)
                run -= 16
            size = _category(v)
            code, length = ac_table[(run << 4) | size]
            bw.write(code, length)
            bw.write(_amplitude_bits(v, size), size)
            run = 0
        if last < 63:
            code, length = ac_table[0x00]  # EOB
            bw.write(code, length)
    return pred


def _fdct_quant(plane: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """(H, W) uint8 -> quantized zigzag blocks (n, 64) int."""
    blocks = _to_blocks(plane.astype(np.float64) - 128.0)
    coeffs = np.einsum("ij,njk,lk->nil", _C, blocks, _C)
    q2d = quant.reshape(8, 8).astype(np.float64)
    quantized = np.sign(coeffs) * np.floor(np.abs(coeffs) / q2d + 0.5)
    return quantized.reshape(-1, 64)[:, ZIGZAG].astype(np.int64)


def encode_jpeg(
    pixels: np.ndarray, quality: int = 75, subsampling: str = "4:4:4"
) -> bytes:
    """Baseline JFIF encode of a (H, W) grayscale or (H, W, 3) RGB
    uint8 array."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ValueError("pixels must be uint8")
    gray = pixels.ndim == 2
    if not gray and (pixels.ndim != 3 or pixels.shape[2] != 3):
        raise ValueError("pixels must be (H, W) or (H, W, 3)")
    if subsampling not in ("4:4:4", "4:2:0"):
        raise ValueError(f"unsupported subsampling {subsampling!r}")
    h, w = pixels.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    ql = scaled_quant(QUANT_LUMA, quality)
    qc = scaled_quant(QUANT_CHROMA, quality)

    out = bytearray()
    out += b"\xff\xd8"  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    tables = [(0, ql)] if gray else [(0, ql), (1, qc)]
    for tid, q in tables:
        zz = bytes(int(q[ZIGZAG[i]]) for i in range(64))
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid]) + zz

    # SOF0
    n_comp = 1 if gray else 3
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * n_comp, 8, h, w, n_comp)
    sub420 = (not gray) and subsampling == "4:2:0"
    luma_hv = 0x22 if sub420 else 0x11
    if gray:
        out += bytes([1, 0x11, 0])
    else:
        out += bytes([1, luma_hv, 0, 2, 0x11, 1, 3, 0x11, 1])

    # DHT
    def dht(tc_th: int, bits, vals) -> bytes:
        payload = bytes([tc_th]) + bytes(bits) + bytes(vals)
        return b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload

    out += dht(0x00, DC_LUMA_BITS, DC_LUMA_VALS)
    out += dht(0x10, AC_LUMA_BITS, AC_LUMA_VALS)
    if not gray:
        out += dht(0x01, DC_CHROMA_BITS, DC_CHROMA_VALS)
        out += dht(0x11, AC_CHROMA_BITS, AC_CHROMA_VALS)

    # SOS
    if gray:
        out += b"\xff\xda" + struct.pack(">HB", 8, 1) + bytes([1, 0x00, 0, 63, 0])
    else:
        out += b"\xff\xda" + struct.pack(">HB", 12, 3) + bytes(
            [1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]
        )

    # color transform + planes
    if gray:
        planes = [pixels.astype(np.float64)]
    else:
        rgb = pixels.astype(np.float64)
        r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
        yy = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        if sub420:
            # average 2x2 (pad to even first)
            def down(p):
                ph, pw = (p.shape[0] + 1) // 2 * 2, (p.shape[1] + 1) // 2 * 2
                pp = np.pad(p, ((0, ph - p.shape[0]), (0, pw - p.shape[1])), mode="edge")
                return (
                    pp.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
                )

            cb, cr = down(cb), down(cr)
        planes = [yy, cb, cr]

    bw = _BitWriter()
    enc = _build_encode_table
    dc_l, ac_l = enc(DC_LUMA_BITS, DC_LUMA_VALS), enc(AC_LUMA_BITS, AC_LUMA_VALS)
    dc_c, ac_c = enc(DC_CHROMA_BITS, DC_CHROMA_VALS), enc(AC_CHROMA_BITS, AC_CHROMA_VALS)

    clip = lambda p: np.clip(_half_up(p), 0, 255).astype(np.uint8)  # noqa: E731
    if gray:
        blocks = _fdct_quant(clip(planes[0]), ql)
        _encode_plane(bw, blocks, dc_l, ac_l, 0)
    elif not sub420:
        # 4:4:4 — interleave one block per component per MCU
        qblocks = [
            _fdct_quant(clip(p), ql if i == 0 else qc)
            for i, p in enumerate(planes)
        ]
        preds = [0, 0, 0]
        n_mcu = qblocks[0].shape[0]
        tabs = [(dc_l, ac_l), (dc_c, ac_c), (dc_c, ac_c)]
        for m in range(n_mcu):
            for ci in range(3):
                dct, act = tabs[ci]
                preds[ci] = _encode_plane(
                    bw, qblocks[ci][m : m + 1], dct, act, preds[ci]
                )
    else:
        # 4:2:0 — MCU = 4 luma blocks (2x2) + 1 Cb + 1 Cr
        yq = _fdct_quant(clip(planes[0]), ql)
        cbq = _fdct_quant(clip(planes[1]), qc)
        crq = _fdct_quant(clip(planes[2]), qc)
        ybw = (w + 7) // 8  # luma blocks per row
        ybw_pad = (ybw + 1) // 2 * 2
        ybh = (h + 7) // 8
        ybh_pad = (ybh + 1) // 2 * 2
        # pad luma block grid to even dimensions by re-blocking a padded plane
        if ybw != ybw_pad or ybh != ybh_pad:
            pl = np.pad(
                clip(planes[0]),
                ((0, ybh_pad * 8 - h), (0, ybw_pad * 8 - w)),
                mode="edge",
            )
            yq = _fdct_quant(pl, ql)
            ybw, ybh = ybw_pad, ybh_pad
        cbw = (planes[1].shape[1] + 7) // 8  # chroma blocks per row
        preds = [0, 0, 0]
        for my in range(ybh // 2):
            for mx in range(ybw // 2):
                for dy in range(2):
                    for dx in range(2):
                        bi = (my * 2 + dy) * ybw + (mx * 2 + dx)
                        preds[0] = _encode_plane(
                            bw, yq[bi : bi + 1], dc_l, ac_l, preds[0]
                        )
                ci = my * cbw + mx
                preds[1] = _encode_plane(bw, cbq[ci : ci + 1], dc_c, ac_c, preds[1])
                preds[2] = _encode_plane(bw, crq[ci : ci + 1], dc_c, ac_c, preds[2])
    bw.flush()
    out += bw.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# ------------------------------------------------------------- decoder


@guarded(JpegFormatError)
def decode_jpeg(data: bytes) -> dict:
    """Decode a baseline JFIF payload; returns ``{"width", "height",
    "pixels"}`` with pixels (H, W) uint8 for grayscale or (H, W, 3)
    RGB.  Malformed bytes raise ``JpegFormatError`` — always (raw
    low-level errors are normalized by :mod:`.codecguard`)."""
    if len(data) < 4 or data[:2] != b"\xff\xd8":
        raise JpegFormatError("not a JPEG (missing SOI)")
    pos = 2
    quant: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    frame = None
    restart_interval = 0
    while pos < len(data):
        if data[pos] != 0xFF:
            raise JpegFormatError(f"expected marker at {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            raise JpegFormatError("EOI before SOS")
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            continue  # parameterless
        if pos + 2 > len(data):
            raise JpegFormatError("truncated segment header")
        seglen = struct.unpack(">H", data[pos : pos + 2])[0]
        seg = data[pos + 2 : pos + seglen]
        if len(seg) != seglen - 2:
            raise JpegFormatError("truncated segment")
        if marker == 0xDB:  # DQT
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 0x0F
                p += 1
                if pq != 0:
                    raise JpegFormatError("16-bit quant tables unsupported")
                zz = np.frombuffer(seg[p : p + 64], dtype=np.uint8).astype(np.int64)
                p += 64
                tbl = np.zeros(64, dtype=np.int64)
                tbl[ZIGZAG] = zz
                quant[tq] = tbl
        elif marker == 0xC4:  # DHT
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 0x0F
                p += 1
                bits = list(seg[p : p + 16])
                p += 16
                nv = sum(bits)
                vals = list(seg[p : p + nv])
                p += nv
                table = _build_decode_table(bits, vals)
                (huff_ac if tc else huff_dc)[th] = table
        elif marker == 0xC0:  # SOF0 baseline
            prec, fh, fw, nc = seg[0], struct.unpack(">H", seg[1:3])[0], struct.unpack(">H", seg[3:5])[0], seg[5]
            if prec != 8:
                raise JpegFormatError("only 8-bit precision supported")
            comps = []
            for i in range(nc):
                cid, hv, tq = seg[6 + 3 * i], seg[7 + 3 * i], seg[8 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0x0F, "tq": tq})
            frame = {"h": fh, "w": fw, "comps": comps}
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise JpegFormatError(f"non-baseline frame marker 0x{marker:02x}")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", seg[:2])[0]
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise JpegFormatError("SOS before SOF0")
            ns = seg[0]
            scan = []
            for i in range(ns):
                cs, tt = seg[1 + 2 * i], seg[2 + 2 * i]
                scan.append({"cs": cs, "dc": tt >> 4, "ac": tt & 0x0F})
            return _decode_scan(
                data, pos + seglen, frame, scan, quant, huff_dc, huff_ac,
                restart_interval,
            )
        pos += seglen
    raise JpegFormatError("no SOS marker")


def _decode_scan(data, pos, frame, scan, quant, huff_dc, huff_ac, restart_interval):
    comps = frame["comps"]
    fh, fw = frame["h"], frame["w"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = (fw + 8 * hmax - 1) // (8 * hmax)
    mcuy = (fh + 8 * vmax - 1) // (8 * vmax)
    by_id = {c["id"]: c for c in comps}
    order = [by_id[s["cs"]] for s in scan]
    for c, s in zip(order, scan):
        c["dc_tbl"] = huff_dc.get(s["dc"])
        c["ac_tbl"] = huff_ac.get(s["ac"])
        if c["dc_tbl"] is None or c["ac_tbl"] is None:
            raise JpegFormatError("missing Huffman table")
        if c["tq"] not in quant:
            raise JpegFormatError("missing quant table")
        c["bw"] = mcux * c["h"]  # blocks per row
        c["bh"] = mcuy * c["v"]
        c["coef"] = np.zeros((c["bh"] * c["bw"], 64), dtype=np.int64)
        c["pred"] = 0

    br = _BitReader(data, pos)
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                br.align()
                if (
                    br.pos + 1 < len(data)
                    and data[br.pos] == 0xFF
                    and 0xD0 <= data[br.pos + 1] <= 0xD7
                ):
                    br.pos += 2
                for c in order:
                    c["pred"] = 0
            try:
                for c in order:
                    for dy in range(c["v"]):
                        for dx in range(c["h"]):
                            blk = np.zeros(64, dtype=np.int64)
                            sym = _decode_symbol(br, c["dc_tbl"])
                            diff = _extend(br.receive(sym), sym)
                            c["pred"] += diff
                            blk[0] = c["pred"]
                            k = 1
                            while k < 64:
                                rs = _decode_symbol(br, c["ac_tbl"])
                                r, s = rs >> 4, rs & 0x0F
                                if rs == 0x00:  # EOB
                                    break
                                if rs == 0xF0:  # ZRL
                                    k += 16
                                    continue
                                k += r
                                if k > 63:
                                    raise JpegFormatError("AC run past block end")
                                blk[k] = _extend(br.receive(s), s)
                                k += 1
                            bi = (my * c["v"] + dy) * c["bw"] + (mx * c["h"] + dx)
                            c["coef"][bi] = blk
            except _MarkerInScan:
                raise JpegFormatError("marker inside entropy data (truncated scan)")
            mcu_count += 1

    planes = []
    for c in order:
        q = quant[c["tq"]].astype(np.float64)
        zz = np.zeros((c["coef"].shape[0], 64), dtype=np.float64)
        zz[:, ZIGZAG] = c["coef"] * q  # inverse zigzag + dequantize
        blocks = zz.reshape(-1, 8, 8)
        spat = np.einsum("ji,njk,kl->nil", _C, blocks, _C)
        bh, bw_ = c["bh"], c["bw"]
        plane = (
            spat.reshape(bh, bw_, 8, 8).transpose(0, 2, 1, 3).reshape(bh * 8, bw_ * 8)
        )
        plane = np.clip(np.floor(plane + 0.5) + 128, 0, 255)
        # upsample to full frame resolution
        plane = np.repeat(np.repeat(plane, vmax // c["v"], axis=0), hmax // c["h"], axis=1)
        planes.append(plane[:fh, :fw])

    if len(planes) == 1:
        return {"width": fw, "height": fh, "pixels": planes[0].astype(np.uint8)}
    yy, cb, cr = planes
    r = yy + 1.402 * (cr - 128.0)
    g = yy - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = yy + 1.772 * (cb - 128.0)
    rgb = np.stack([r, g, b], axis=-1)
    rgb = np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)
    return {"width": fw, "height": fh, "pixels": rgb}


# ------------------------------------------------------------- planted


def planted_gray(key: int) -> int:
    """Solid-tile gray level for integer ``key`` (closed form the SQL
    oracle mirrors)."""
    return (37 * key + 19) % 256


def planted_dims(key: int) -> tuple:
    """(width, height) for integer ``key`` — whole 8x8 blocks so the
    solid tile stays exactly solid through the codec."""
    return 8 * (1 + key % 3), 8 * (1 + key % 2)


# quality 50 => DC quantizer 16: 8*(g-128) does NOT quantize exactly,
# so the closed form exercises REAL lossy rounding (levels collapse to
# even values) — a pass-through or header peek cannot fake it
PLANTED_QUALITY = 50


def planted_jpeg(key: int) -> bytes:
    """Planted baseline-JPEG payload: a solid grayscale tile.  Solid
    input means DC-only blocks, so the decoded level has the closed
    form ``clamp(floor(floor(8*(g-128)/q + 0.5) * q / 8 + 0.5) + 128)``
    with ``q`` the quality-scaled DC quantizer — SQL-expressible, while
    the engine can only recover it by really Huffman-decoding and
    IDCTing the scan (the value is entropy-coded, not in any header)."""
    w, h = planted_dims(key)
    g = planted_gray(key)
    return encode_jpeg(np.full((h, w), g, dtype=np.uint8), quality=PLANTED_QUALITY)


def jpeg_oracle_sql(source: str = "documents") -> str:
    """DuckDB oracle for the planted-JPEG decode query, composed from
    the SAME constants the codec uses (planted closed forms, Annex-K
    DC quantizer 16, IJG quality scaling, half-up/half-away rounding)
    so engine and oracle can never drift."""
    q_ = PLANTED_QUALITY
    scale_expr = f"(5000 // {q_})" if q_ < 50 else f"(200 - 2 * {q_})"
    return (
        f"WITH qt AS (SELECT CAST(least(greatest((16 * {scale_expr} + 50) // 100, 1), 255) AS BIGINT) AS q0),"
        " p AS (SELECT doc_id,"
        "   CAST(8 * (1 + doc_id % 3) AS BIGINT) AS width,"
        "   CAST(8 * (1 + doc_id % 2) AS BIGINT) AS height,"
        "   (37 * doc_id + 19) % 256 AS g"
        f"  FROM {source}),"
        " lv AS (SELECT p.doc_id, p.width, p.height,"
        "   CAST(least(greatest("
        "     CAST(floor(CAST(sign(p.g - 128) AS BIGINT)"
        "       * floor(abs(p.g - 128) * 8.0 / qt.q0 + 0.5)"
        "       * qt.q0 / 8.0 + 0.5) AS BIGINT) + 128,"
        "   0), 255) AS BIGINT) AS level"
        "  FROM p, qt)"
        " SELECT doc_id, width, height, level,"
        "  width * height * level AS pixel_sum"
        " FROM lv ORDER BY doc_id"
    )
