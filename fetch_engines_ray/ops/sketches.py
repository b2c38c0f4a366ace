"""Distributed sketches: HyperLogLog registers (the distinct counts of
``ops/profile``), histogram quantiles, Misra-Gries heavy hitters and
Bloom membership.

The scale-right shape for COUNT(DISTINCT) over 10^12 rows: each block
reduces to a fixed 2^p-byte register array inside ``map_batches`` (the
"partial"), partials merge by elementwise max — a tiny driver-side
reduce over per-block sketches instead of an all-to-all shuffle of the
raw keys.  Standard HLL from the public literature (Flajolet et al.,
"HyperLogLog: the analysis of a near-optimal cardinality estimation
algorithm", AofA 2007), with the usual small-range linear-counting
correction.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import AggregateFnV2

_HASH_KEY = "0123456789123456"  # pandas siphash key: fixed → cross-process stable


def _hash64(values) -> np.ndarray:
    s = pd.Series(values)
    return pd.util.hash_pandas_object(s, index=False, hash_key=_HASH_KEY).to_numpy()


def _registers_for(values, p: int) -> np.ndarray:
    """HLL register array (uint8, size 2^p) for one batch of values."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = _hash64(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rem = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    # rho = 1 + number of leading zeros in the remaining bits
    # (use bit_length on the left-aligned remainder)
    rem_nonzero = rem != 0
    v = rem[rem_nonzero]
    # vectorized bit_length via log2 is float-unsafe near 2^63; use
    # np.frexp on float64 only for exponent-safe values — instead do it
    # with a 4-step de Bruijn-free shift count (uint64-safe, all numpy)
    lz = np.full(v.shape, 0, dtype=np.uint64)
    x = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += np.uint64(shift)
        x[mask] <<= np.uint64(shift)
    rho = np.full(len(h), 64 - p + 1, dtype=np.uint8)  # all-zero remainder
    rho_nz = (lz + 1).astype(np.uint8)
    rho_nz = np.minimum(rho_nz, 64 - p + 1)
    rho[rem_nonzero] = rho_nz
    np.maximum.at(regs, idx, rho)
    return regs


def _estimate(regs: np.ndarray, p: int) -> float:
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    return float(est)


# ---------------------------------------------------------------------------
# Approximate quantiles: two-pass fixed-width histogram
# ---------------------------------------------------------------------------

class HistogramSketch(AggregateFnV2):
    """Fixed-width histogram over a known [lo, hi] domain as a Ray Data
    aggregation.

    Accumulator = int64 count array of ``bins`` buckets (+1 overflow
    bucket for values == hi); blocks reduce to one array each, arrays
    merge by elementwise add — exactly mergeable, block-order
    independent, and nothing that scales with row count ever moves.
    Values outside [lo, hi] clamp to the edge buckets.
    """

    def __init__(
        self,
        on: str,
        lo: float,
        hi: float,
        bins: int = 4096,
        alias_name: str | None = None,
    ):
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self._lo, self._hi, self._bins = float(lo), float(hi), int(bins)
        super().__init__(
            alias_name or f"histogram({on})",
            zero_factory=lambda: bytes(8 * (bins + 1)),
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block) -> bytes:
        from ray.data.block import BlockAccessor

        col = BlockAccessor.for_block(block).to_arrow().column(self._target_col_name)
        v = np.asarray(col.drop_null().to_pylist(), dtype=np.float64)
        counts = np.zeros(self._bins + 1, dtype=np.int64)
        if len(v):
            scaled = (v - self._lo) / (self._hi - self._lo) * self._bins
            idx = np.clip(np.floor(scaled).astype(np.int64), 0, self._bins)
            np.add.at(counts, idx, 1)
        return counts.tobytes()

    def combine(self, current_accumulator: bytes, new: bytes) -> bytes:
        return (
            np.frombuffer(current_accumulator, dtype=np.int64)
            + np.frombuffer(new, dtype=np.int64)
        ).tobytes()

    def finalize(self, accumulator: bytes) -> bytes:
        return accumulator  # counts blob; quantile interpolation is driver-side


def quantiles_from_histogram(
    blob: bytes, lo: float, hi: float, qs: list[float]
) -> list[float]:
    """Interpolated quantiles from a histogram blob; error is bounded by
    one bucket width = (hi - lo) / bins."""
    counts = np.frombuffer(blob, dtype=np.int64).astype(np.float64)
    bins = len(counts) - 1
    total = counts.sum()
    if total == 0:
        return [float("nan")] * len(qs)
    cum = np.cumsum(counts)
    width = (hi - lo) / bins
    out = []
    for q in qs:
        target = q * total
        b = int(np.searchsorted(cum, target, side="left"))
        b = min(b, bins)
        prev = cum[b - 1] if b > 0 else 0.0
        inbin = counts[b]
        frac = (target - prev) / inbin if inbin > 0 else 0.0
        # clamp: frac=1 in the overflow bucket would otherwise report
        # hi + width, a value strictly above every observation
        out.append(min(lo + (b + frac) * width, hi))
    return out


def approx_quantiles(
    ds: "ray.data.Dataset", column: str, qs: list[float], bins: int = 4096
) -> list[float]:
    """Two-pass distributed approximate quantiles: pass 1 is Ray's
    built-in min/max aggregate (cheap, streaming), pass 2 the
    fixed-width :class:`HistogramSketch`.  Error <= (max-min)/bins per
    quantile; both passes move only O(bins) bytes per block."""
    from ray.data.aggregate import Max, Min

    mm = ds.aggregate(Min(column, alias_name="lo"), Max(column, alias_name="hi"))
    if mm["lo"] is None:  # empty / all-null column
        raise ValueError(
            f"approx_quantiles: column {column!r} has no non-null values"
        )
    lo, hi = float(mm["lo"]), float(mm["hi"])
    if hi == lo:
        return [lo] * len(qs)
    blob = ds.aggregate(
        HistogramSketch(on=column, lo=lo, hi=hi, bins=bins, alias_name="hist")
    )["hist"]
    return quantiles_from_histogram(blob, lo, hi, qs)


class MultiRangeIntHistogram(AggregateFnV2):
    """Integer-bucketed histograms over several DIFFERENT ``[lo, hi]``
    ranges of the same column in ONE streaming pass — values outside a
    range are MASKED (not clipped), so the input needs no per-range
    filter.  ``ranges`` is ``[(lo, width, nbuckets), ...]``; the
    accumulator concatenates the per-range count arrays.  This is what
    lets :func:`exact_int_quantiles` narrow EVERY requested rank per
    level with one aggregate instead of one filtered pass per rank."""

    def __init__(self, on: str, ranges: list, alias_name=None):
        self._ranges = [(int(lo), int(w), int(n)) for lo, w, n in ranges]
        self._total = sum(n for _, _, n in self._ranges)
        total = self._total
        super().__init__(
            alias_name or f"multi_int_histogram({on})",
            zero_factory=lambda: bytes(8 * total),
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block) -> bytes:
        from ray.data.block import BlockAccessor

        col = BlockAccessor.for_block(block).to_arrow().column(self._target_col_name)
        v = col.drop_null().to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.zeros(self._total, dtype=np.int64)
        off = 0
        for lo, width, n in self._ranges:
            if len(v):
                idx = (v - lo) // width
                m = (idx >= 0) & (idx < n)
                np.add.at(counts[off : off + n], idx[m], 1)
            off += n
        return counts.tobytes()

    def combine(self, a: bytes, b: bytes) -> bytes:
        return (np.frombuffer(a, dtype=np.int64) + np.frombuffer(b, dtype=np.int64)).tobytes()

    def finalize(self, accumulator: bytes) -> bytes:
        return accumulator


def exact_int_quantiles(
    ds: "ray.data.Dataset", column: str, ranks: list[int], bins: int = 4096
) -> list[int]:
    """EXACT order statistics of an int64 column at the given 0-indexed
    ``ranks`` — without sorting and without streaming rows through the
    driver (the scale-killer the sorted-scan form had: picking the 0.95
    quantile pulled ~95 % of all rows through one process).

    Iterative histogram narrowing: each level is ONE streaming
    :class:`MultiRangeIntHistogram` aggregate over the column; the
    bucket containing each rank becomes that rank's next range.  Integer
    widths shrink the range ≥ ``bins``× per level, so full-int64 data
    resolves in ≤ 5 levels and typical bounded scores in 1-2; driver
    state is O(bins) per level.  Exactness: buckets partition the
    integers, so the rank's bucket — and, once ``width == 1``, the
    rank's exact value — follows from the counts alone.
    """
    from ray.data.aggregate import Max, Min

    mm = ds.aggregate(Min(column, alias_name="lo"), Max(column, alias_name="hi"))
    if mm["lo"] is None:
        return []
    g_lo, g_hi = int(mm["lo"]), int(mm["hi"])

    def _geom(lo: int, hi: int) -> tuple[int, int]:
        span = hi - lo + 1
        width = -(-span // bins)  # ceil: integer bucket width >= 1
        return width, -(-span // width)

    # Per-rank narrowing state; EVERY pending rank narrows one level per
    # streaming pass via MultiRangeIntHistogram (one filtered aggregate
    # per rank per level would scan the dataset len(ranks)x per level).
    # Ranks sharing a range share one histogram slot.
    states = [(g_lo, g_hi, int(r)) for r in ranks]
    out: list = [None] * len(ranks)
    for i, (lo, hi, _r) in enumerate(states):
        if hi <= lo:
            out[i] = lo
    while any(v is None for v in out):
        pending = [i for i, v in enumerate(out) if v is None]
        uniq: dict[tuple[int, int], int] = {}
        ranges = []
        for i in pending:
            lo, hi, _ = states[i]
            if (lo, hi) not in uniq:
                uniq[(lo, hi)] = len(ranges)
                w, n_b = _geom(lo, hi)
                ranges.append((lo, w, n_b))
        blob = ds.aggregate(
            MultiRangeIntHistogram(column, ranges, alias_name="h")
        )["h"]
        counts = np.frombuffer(blob, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum([n for _, _, n in ranges])))
        for i in pending:
            lo, hi, r = states[i]
            slot = uniq[(lo, hi)]
            w = ranges[slot][1]
            cum = np.cumsum(counts[offsets[slot] : offsets[slot + 1]])
            b = int(np.searchsorted(cum, r + 1, side="left"))
            r -= int(cum[b - 1]) if b > 0 else 0
            lo, hi = lo + b * w, min(hi, lo + (b + 1) * w - 1)
            if w == 1 or hi <= lo:
                out[i] = lo
            else:
                states[i] = (lo, hi, r)
    return out


# ---------------------------------------------------------------------------
# Heavy hitters: mergeable Misra-Gries summary
# ---------------------------------------------------------------------------

def _mg_trim(counters: dict, k: int) -> dict:
    """Keep <= k counters by subtracting the (k+1)-th largest count from
    every counter and dropping non-positives (standard mergeable
    Misra-Gries reduction, Agarwal et al., 'Mergeable Summaries')."""
    if len(counters) <= k:
        return counters
    kth = sorted(counters.values(), reverse=True)[k]
    return {key: c - kth for key, c in counters.items() if c > kth}


class HeavyHitters(AggregateFnV2):
    """Misra-Gries top-k sketch as a Ray Data aggregation.

    Accumulator = dict of <= k (value, lower-bound count) pairs; blocks
    reduce with exact per-block value_counts then a trim, partials merge
    by counter addition + trim.  Guarantee: any value with true
    frequency > N/(k+1) survives, and every kept count undercounts by at
    most N/(k+1) — planted heavy hitters are test-verified.  The sketch
    moves O(k) entries per block regardless of cardinality.
    """

    def __init__(self, on: str, k: int = 16, alias_name: str | None = None):
        self._k = int(k)
        super().__init__(
            alias_name or f"heavy_hitters({on})",
            zero_factory=dict,
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block) -> dict:
        from ray.data.block import BlockAccessor

        col = BlockAccessor.for_block(block).to_arrow().column(self._target_col_name)
        vals, counts = np.unique(
            np.asarray(col.drop_null().to_pylist(), dtype=object), return_counts=True
        )
        return _mg_trim(
            {v: int(c) for v, c in zip(vals.tolist(), counts.tolist())}, self._k
        )

    def combine(self, current_accumulator: dict, new: dict) -> dict:
        merged = dict(current_accumulator)
        for v, c in new.items():
            merged[v] = merged.get(v, 0) + c
        return _mg_trim(merged, self._k)

    def finalize(self, accumulator: dict) -> dict:
        return accumulator


def heavy_hitters_exact(
    ds: "ray.data.Dataset", column: str, k: int = 16, capacity: int = 4096
) -> pd.DataFrame:
    """EXACT top-``k`` most frequent values, two streaming passes:

    1. the Misra-Gries sketch above with ``capacity`` counters yields a
       candidate superset (any value with frequency > N/(capacity+1)
       survives — Misra & Gries 1982, mergeable form Agarwal et al.
       PODS 2012);
    2. a second pass recounts ONLY the candidates exactly — per-block
       ``value_counts`` restricted to the broadcast candidate set, then
       a candidate-sized groupby-sum (the shuffle moves <= capacity
       rows per block, never one row per occurrence).

    A full ``groupby(value).count()`` would shuffle every distinct
    value — billions of singleton typo/number strings on web text; this
    form's state is O(capacity) everywhere.  Returns ``value, count``
    (exact) descending, ties by value; ``df.attrs["exact_topk"]`` is
    True when the k-th count clears the survival bound, i.e. no value
    outside the candidate set could displace the reported top-k.
    """
    import ray as _ray
    from ray.data.aggregate import Count as _Count, Sum as _Sum

    if not 1 <= k <= capacity:
        raise ValueError("need 1 <= k <= capacity")
    agg = ds.aggregate(
        HeavyHitters(on=column, k=capacity, alias_name="hh"),
        _Count(alias_name="n_rows"),
    )
    sketch, n_total = agg["hh"], int(agg["n_rows"])
    if not sketch:
        out = pd.DataFrame({"value": pd.Series([], dtype=object), "count": pd.Series([], dtype="int64")})
        out.attrs["exact_topk"] = True
        return out
    cand_ref = _ray.put(set(sketch))

    def count_candidates(batch: pa.Table) -> pa.Table:
        cand = _ray.get(cand_ref)
        col_type = batch.column(column).type
        vc = batch.column(column).to_pandas().value_counts()
        vc = vc[vc.index.isin(cand)]
        # type the value column from the INPUT even when this block has
        # zero candidate matches — pa.array([]) is null-typed, and the
        # downstream groupby dies unifying it with non-empty blocks'
        # string/int schema (same hazard rangejoin.join_cell guards)
        return pa.table(
            {
                "value": pa.array(vc.index.tolist(), type=col_type),
                "n": pa.array(vc.to_numpy(), type=pa.int64()),
            }
        )

    exact = (
        ds.map_batches(count_candidates, batch_format="pyarrow", batch_size=65536)
        .groupby("value")
        .aggregate(_Sum("n", alias_name="count"))
        .to_pandas()  # bounded: <= capacity rows
    )
    out = (
        exact.sort_values(["count", "value"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    kth = int(out["count"].iloc[-1]) if len(out) == k else 0
    out.attrs["exact_topk"] = len(out) < k or kth > n_total // (capacity + 1)
    return out


# ---------------------------------------------------------------------------
# Bloom filter bits (the decontamination probe builds and reads them)
# ---------------------------------------------------------------------------

def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 mix (public constants) over uint64."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _bloom_positions(values, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing h1 + i*h2 (Kirsch &
    Mitzenmacher: two hash functions suffice for k indexes)."""
    h1 = _hash64(values)
    h2 = _splitmix64_vec(h1) | np.uint64(1)  # odd → full-period stride
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)).astype(
        np.int64
    )


def _bloom_set(values, m_bits: int, k: int) -> np.ndarray:
    """Bit array (uint8, m_bits/8 bytes) with every value's k bits set."""
    bits = np.zeros(m_bits >> 3, dtype=np.uint8)
    if len(values) == 0:
        return bits
    pos = _bloom_positions(values, m_bits, k).reshape(-1)
    np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bits


def bloom_contains(blob: bytes, values, m_bits: int, k: int) -> np.ndarray:
    """Vectorized membership probe: True where ALL k bits are set.
    No false negatives; false-positive rate ≈ (1 - e^(-k*n/m))^k."""
    bits = np.frombuffer(blob, dtype=np.uint8)
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(values, m_bits, k)
    probe = (bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return probe.all(axis=1)
