"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale design: every flavor is partial-first — per-batch signature
computation in ``map_batches`` (vectorized numpy), then ONE bucket
exchange whose fan-in is tiny (bucket members), never an all-pairs
shuffle.  Every near-dup flavor, text and media alike, then runs the
one resolver of this module: :func:`verified_pairs` turns band rows
into candidate pairs, attaches each candidate's lookup row to both
ends and scores it with the caller's Arrow ``verify``, and
:func:`cluster_verdicts` resolves the verified pairs into clusters.
Only ``(bucket, doc_id)`` rows and candidate ids move through the
wide ops, not documents.

The module also holds the engine's one key filter (:func:`keep_by_keys`)
and its one join (:func:`attach`): both broadcast a lookup side that
``ops/exchange.measured`` returns as a driver table and partition one
it returns as a Dataset.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from fetch_engines_ray.ops.exchange import co_group, measured, n_parts_for, n_rows, parts_for
from fetch_engines_ray.state.checkpoint import _checkpoint_parquet, _cleanup_checkpoint
from ray.data.aggregate import Count, Min


def _splitmix64(x: int) -> int:
    """Deterministic 64-bit mixer (public splitmix64 constants)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _md5_hex(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def exact_dedup_groups(ds: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id"):
    """Hash-partitioned exact dedup: md5(text) groups; keep min(doc_id).

    Returns (text_hash, keep_doc_id, n_dups) — SQL-oracle-equivalent to
    ``SELECT md5(text), min(doc_id), count(*) ... GROUP BY md5(text)``.
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [_md5_hex(t or "") for t in batch[text_col].to_pylist()]
        return pa.table(
            {"text_hash": pa.array(hashes), id_col: batch[id_col]}
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow", batch_size=4096)
    return hashed.groupby("text_hash").aggregate(
        Min(id_col, alias_name="keep_doc_id"), Count(alias_name="n_dups")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

class MinHasher:
    """Per-batch MinHash signatures over word shingles.

    Stateful actor stage: the (a, b) permutation parameters are built
    once per actor in ``__init__`` (seeded → identical across actors).
    """

    def __init__(self, num_perm: int = 64, shingle_size: int = 3, seed: int = 7) -> None:
        rng = np.random.RandomState(seed)
        # affine maps h -> a*h + b (mod 2^64) with ODD a are bijections
        # of the 64-bit space (standard multiply-add minhash family) —
        # no `% p` in the hot loop: int64 division was ~4x the cost of
        # the whole remaining kernel
        hi = rng.randint(0, 1 << 32, size=2 * num_perm, dtype=np.uint64)
        lo = rng.randint(0, 1 << 32, size=2 * num_perm, dtype=np.uint64)
        ab = (hi << np.uint64(32)) | lo
        self.a = ab[:num_perm] | np.uint64(1)
        self.b = ab[num_perm:]
        self.num_perm = num_perm
        self._scratch = None  # lazily-allocated reusable minhash matrix
        self.shingle_size = shingle_size
        # one DISTINCT odd multiplier per shingle position — cycling a
        # fixed 4-tuple made positions j and j+4 share a multiplier, so
        # the commutative XOR combine collided shingles differing only
        # by a token swap at distance 4 (shingle_size > 4 only)
        self.pos_mult = tuple(
            self._POS_MULT[j] if j < len(self._POS_MULT) else _splitmix64(0x9E3779B9 + j) | 1
            for j in range(shingle_size)
        )

    # distinct odd multipliers combining the k token hashes of a shingle
    # (first four kept verbatim so default-config signatures are stable)
    _POS_MULT = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5)

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def signatures(self, texts: list) -> np.ndarray:
        """Vectorized batch signatures, shape ``(n_docs, num_perm)``.

        One ``pd.util.hash_array`` call hashes EVERY token of the batch
        (the same C-vectorized hasher ``_simhash64_batch`` uses — the
        round-2 per-token ``zlib.crc32`` loop dominated
        ``minhash_dedup_pairs`` wall time); shingle folding is a
        ``shingle_size``-step vectorized combine per doc, and the
        min-over-shingles runs as chunked ``np.minimum.reduceat`` over
        the concatenated shingle-hash array (bounded matrix size).
        """
        k = self.shingle_size
        mask62 = np.uint64((1 << 62) - 1)
        # flat string list: tokens for normal docs, ONE joined pseudo-
        # token for docs shorter than the shingle size
        items: list = []
        counts: list[int] = []
        short: list[bool] = []
        for t in texts:
            toks = (t or "").lower().split()
            if len(toks) < k:
                items.append(" ".join(toks))
                counts.append(1)
                short.append(True)
            else:
                items.extend(toks)
                counts.append(len(toks))
                short.append(False)
        th_all = pd.util.hash_array(np.asarray(items, dtype=object))  # uint64
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # per-doc shingle hashes (uint64), concatenated
        segs: list[np.ndarray] = []
        seg_lens: list[int] = []
        for d in range(len(texts)):
            seg = th_all[offsets[d] : offsets[d + 1]]
            if short[d]:
                hv = seg & mask62
            else:
                n_sh = counts[d] - k + 1
                acc = np.zeros(n_sh, dtype=np.uint64)
                for j in range(k):
                    acc ^= seg[j : j + n_sh] * np.uint64(self.pos_mult[j])
                hv = acc & mask62
            segs.append(hv)
            seg_lens.append(len(hv))
        hv_all = np.concatenate(segs) if segs else np.zeros(0, dtype=np.uint64)
        starts = np.concatenate([[0], np.cumsum(seg_lens)[:-1]]).astype(np.int64)
        out = np.empty((len(texts), self.num_perm), dtype=np.uint64)
        # chunk docs so the (num_perm x n_shingles) matrix fits the ONE
        # per-instance scratch buffer, written in place — this host
        # stalls catastrophically (5-1000x) on large fresh allocations
        # during noise phases, so the hot loop must not allocate
        max_sh = max(1, (1 << 19) // self.num_perm)  # 4 MB scratch
        if self._scratch is None:
            self._scratch = np.empty((self.num_perm, max_sh), dtype=np.uint64)
        d0 = 0
        while d0 < len(texts):
            d1 = d0
            tot = 0
            while d1 < len(texts) and (d1 == d0 or tot + seg_lens[d1] <= max_sh):
                tot += seg_lens[d1]
                d1 += 1
            lo, hi = starts[d0], starts[d1 - 1] + seg_lens[d1 - 1]
            hv = hv_all[lo:hi]
            if len(hv) <= max_sh:
                buf = self._scratch[:, : len(hv)]
                np.multiply(self.a[:, None], hv[None, :], out=buf)
                buf += self.b[:, None]
            else:  # single oversized doc: one-off allocation
                buf = self.a[:, None] * hv[None, :] + self.b[:, None]
            out[d0:d1] = np.minimum.reduceat(buf, starts[d0:d1] - lo, axis=1).T
            d0 = d1
        # int64 bit-pattern view: downstream stores/compares signatures
        # (blob encode, equality for est_jaccard) — order is irrelevant
        return out.view(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        sigs = self.signatures(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "minhash_sig": pa.array([s.tolist() for s in sigs], type=pa.list_(pa.int64())),
            }
        )


_MINHASHERS: dict = {}


_MODP = 2147483647  # 2^31 - 1 (Mersenne prime): a*h fits int64 exactly


def _md5_modp_signatures(
    texts: list, num_perm: int = 64, shingle_size: int = 3
) -> np.ndarray:
    """DuckDB-reproducible MinHash variant: gram hash = high-32 md5
    mod p (p = 2^31-1), permutations = closed-form affine maps mod p
    (``a_i = 2654435761(i+1) mod p``, ``b_i = 40503(i+1)+9 mod p`` —
    formulas, not RNG state, so SQL regenerates them with ``range``).
    All arithmetic stays below 2^62, exact in BIGINT on both engines.
    This is the oracle path for the ``minhash_dedup_pairs`` registry
    query; the siphash/mod-2^64 default remains the scale kernel."""
    import hashlib

    i1 = np.arange(1, num_perm + 1, dtype=np.int64)
    a = (2654435761 * i1) % _MODP
    b = (40503 * i1 + 9) % _MODP
    sigs = np.full((len(texts), num_perm), _MODP, dtype=np.int64)
    cache: dict = {}
    for di, t in enumerate(texts):
        toks = (t or "").lower().split()
        if not toks:
            continue
        if len(toks) < shingle_size:
            grams = {" ".join(toks)}
        else:
            grams = {
                " ".join(toks[i : i + shingle_size])
                for i in range(len(toks) - shingle_size + 1)
            }
        hs = np.fromiter(
            (
                cache.setdefault(
                    g, int(hashlib.md5(g.encode()).hexdigest()[:8], 16) % _MODP
                )
                for g in grams
            ),
            dtype=np.int64,
            count=len(grams),
        )
        sigs[di] = ((a[None, :] * hs[:, None] + b[None, :]) % _MODP).min(axis=0)
    return sigs


def minhash_batch(
    batch: pa.Table,
    num_perm: int = 64,
    shingle_size: int = 3,
    seed: int = 7,
    hash_fn: str = "sip",
) -> pa.Table:
    """Task-pool form of MinHasher: per-worker cached permutation state.
    (An actor pool caps the fused upstream at pool size — see
    stages/extract.py for the same pattern.)

    Emits the signature as a fixed-width little-endian int64 blob —
    Arrow hash joins don't support list payload columns, and the blob
    is also ~half the wire size of a list<int64>."""
    ids = batch["doc_id"].to_pylist()
    if hash_fn == "md5":
        sigs = _md5_modp_signatures(
            batch["text"].to_pylist(), num_perm, shingle_size
        ).astype("<i8")
    else:
        key = (num_perm, shingle_size, seed)
        h = _MINHASHERS.get(key)
        if h is None:
            h = _MINHASHERS[key] = MinHasher(num_perm, shingle_size, seed)
        sigs = h.signatures(batch["text"].to_pylist()).astype("<i8")
    blobs = [sigs[i].tobytes() for i in range(len(ids))]
    return pa.table({"doc_id": pa.array(ids), "minhash_sig": pa.array(blobs, type=pa.binary())})


def _decode_sigs(col) -> np.ndarray:
    return np.stack([np.frombuffer(b, dtype="<i8") for b in col.to_pylist()])


def _fold_band_keys(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """Fold ``(n_docs, num_perm)`` int64 signatures into ``(n_docs,
    num_bands)`` int64 band keys — the LSH bucket identity.  Equal band
    chunks → equal keys; spurious 64-bit collisions are removed by
    downstream verification.  Shared by the pair-LSH explode
    (``_band_rows``) and the broadcast probe side
    (``decontam.fuzzy_decontaminate``) so both bucket identically."""
    n, num_perm = sigs.shape
    rpb = num_perm // num_bands
    chunks = sigs[:, : num_bands * rpb].reshape(n, num_bands, rpb).astype(np.uint64)
    # multiply-xor fold per band (splitmix64 constants)
    acc = np.full((n, num_bands), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for j in range(rpb):
        acc = (acc ^ chunks[:, :, j]) * np.uint64(0xBF58476D1CE4E5B9)
        acc ^= acc >> np.uint64(29)
    # mix the band index so identical chunks in different bands differ
    acc ^= np.arange(num_bands, dtype=np.uint64) * np.uint64(0x94D049BB133111EB)
    return acc.view(np.int64)


def _band_rows(batch: pa.Table, num_bands: int) -> pa.Table:
    """Explode signatures into (band_bucket, doc_id) rows — fully
    vectorized (one reshape + a ``rows_per_band``-step mix loop per
    batch, no per-doc Python).

    Bucket keys are int64 (8 bytes on the wire vs a 16-char hex string)
    and deliberately do NOT carry the signature through the LSH shuffle
    — that would duplicate ~0.5 KB/doc x num_bands across the
    all-to-all exchange.  Signatures are re-attached to the (tiny)
    candidate-pair set afterwards."""
    sigs = _decode_sigs(batch["minhash_sig"])  # (n_docs, num_perm) int64
    n = sigs.shape[0]
    bucket = _fold_band_keys(sigs, num_bands).reshape(-1)
    ids = batch["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), num_bands))
    return pa.table({"bucket": pa.array(bucket), "doc_id": ids.take(idx)})


def _lsh_candidate_pairs(banded: "ray.data.Dataset", n_parts: int) -> "ray.data.Dataset":
    """All co-bucket candidate pairs (doc_a < doc_b): band rows are
    hash-partitioned by bucket into a bounded number of parts (a bucket
    never straddles parts), then ONE vectorized numpy pass per part
    sorts its rows, finds colliding runs, and expands each run's
    ``L*(L-1)/2`` pairs batched by run length.  The parts are the
    one-side form of :func:`~fetch_engines_ray.ops.exchange.co_group`,
    ``max(64, 8 * n_parts)`` of them.

    This replaces the former distributed SELF-JOIN on the bucket key —
    same pairs, ~4x faster (27.2 s -> 6.0 s on a 1M-doc / 16M-band-row
    corpus at 16 CPUs, same-session A/B): the join shuffled every band
    row TWICE through join aggregator actors; this moves each row ONCE
    through the bounded-part exchange, and pair emission is run-length
    batched numpy instead of join machinery.  (The round-1 shape —
    count-groupby -> driver-broadcast collision set — stays rejected:
    its driver state is O(colliding buckets), which on clone-heavy web
    corpora is O(docs).)  Like the join, a pathological mega-bucket
    co-locates in one part (quadratic pair blowup there is inherent to
    LSH; the verified output stays tiny).

    A pair that collides in k bands appears k times;
    :func:`verified_pairs` dedups it before attaching anything."""

    def pairs_part(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        b = t["bucket"].to_numpy()
        d = ids.to_numpy()
        order = np.lexsort((d, b))
        b, d = b[order], d[order]
        if len(b) == 0:
            return pa.table({"doc_a": ids, "doc_b": ids})
        edge = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1], [True])))
        lens = np.diff(edge)
        starts = edge[:-1]
        ia_parts, ib_parts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        # expand runs batched BY LENGTH: all runs of length L stack into
        # a (k, L) index matrix and share one triu_indices expansion
        for length in np.unique(lens[lens > 1]):
            s = starts[lens == length]
            mat = s[:, None] + np.arange(length, dtype=np.int64)[None, :]
            ii, jj = np.triu_indices(int(length), k=1)
            ia_parts.append(mat[:, ii].ravel())
            ib_parts.append(mat[:, jj].ravel())
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        # rows sort by (bucket, doc_id), so d[ia] <= d[ib]; equal ids
        # (the same doc landing twice in one bucket) are dropped
        keep = d[ia] < d[ib]
        return pa.table({"doc_a": ids.take(order[ia[keep]]), "doc_b": ids.take(order[ib[keep]])})

    return co_group([(banded, "bucket")], max(64, n_parts * 8), pairs_part)


def minhash_lsh_pairs(
    ds: "ray.data.Dataset",
    num_perm: int = 64,
    num_bands: int = 16,
    shingle_size: int = 3,
    threshold: float = 0.7,
    hash_fn: str = "sip",
) -> pd.DataFrame:
    """Candidate near-dup pairs via banded MinHash-LSH.

    Returns (doc_a, doc_b, est_jaccard) with doc_a < doc_b, deduplicated
    across buckets, est_jaccard = fraction of equal signature rows ≥
    ``threshold``.  ``hash_fn="md5"`` switches to the DuckDB-reproducible
    signature family (:func:`_md5_modp_signatures`) the registry oracle
    recomputes in SQL.
    """
    with _minhash_checkpoint(ds, num_perm, shingle_size, hash_fn, "minhash_sigs") as sigs:
        pairs = verified_pairs(
            sigs, lambda b: _band_rows(b, num_bands), sigs, _minhash_verify(threshold)
        )
        return _pairs_frame(pairs, "est_jaccard")


@contextmanager
def _minhash_checkpoint(
    ds: "ray.data.Dataset", num_perm: int, shingle_size: int, hash_fn: str, tag: str
) -> Iterator["ray.data.Dataset"]:
    """``(doc_id, minhash_sig)`` of every doc, spilled to one parquet
    checkpoint for the ``with`` block and removed after it: the
    resolver reads the signatures twice (banding and the verify
    lookup), so nothing pins the object store."""
    sigs = ds.map_batches(
        minhash_batch,
        fn_kwargs={"num_perm": num_perm, "shingle_size": shingle_size, "hash_fn": hash_fn},
        batch_format="pyarrow",
        batch_size=1024,
    )
    sigs, path = _checkpoint_parquet(sigs, tag)
    try:
        yield sigs
    finally:
        _cleanup_checkpoint(path)


def filter_by_keys(
    ds: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    key_col: str,
    keep_matches: bool,
    n_parts: int,
    keys_col: "str | None" = None,
) -> "ray.data.Dataset":
    """Partitioned semi-join (``keep_matches=True``) / anti-join
    (``False``) filter: keep ``ds`` rows whose ``key_col`` value is /
    is not present in ``keys[keys_col]`` — without a Ray hash join
    (whose aggregator dies on schema-less empty partitions whenever the
    key side is sparse) and without a driver broadcast.  The large-key
    side of :func:`keep_by_keys`, which callers use instead.

    Both sides co-locate through
    :func:`~fetch_engines_ray.ops.exchange.co_group`, so ``ds`` rows
    keep their own Arrow schema (``spans``' ``list<struct>`` rides
    through untouched) and each part resolves with one vectorized
    ``pc.is_in``.  A null key matches nothing: semi drops the row, anti
    keeps it."""
    import pyarrow.compute as pc

    keys_col = keys_col or key_col

    def filter_part(data: pa.Table, keyset: pa.Table) -> pa.Table:
        if data.num_rows == 0 or keyset.num_rows == 0:
            return data.slice(0, 0) if keep_matches else data
        col = data[key_col]
        value_set = pc.unique(pc.drop_null(keyset[keys_col].combine_chunks()))
        m = pc.fill_null(pc.is_in(col, value_set=value_set.cast(col.type)), False)
        return data.filter(m if keep_matches else pc.invert(m))

    return co_group([(ds, key_col), (keys, keys_col)], n_parts, filter_part)


# Broadcast key sets as hashed pandas Indexes, built once per worker
# process and kept for the next batches and tasks: pc.is_in rebuilds its
# hash table from the whole value set on EVERY call, which cost about
# 0.27 s per 1024-row batch at 1M string keys against 0.3 ms for a
# lookup in a built Index (one x86 vCPU).  Keyed by (ObjectRef hex,
# data key type).
_KEY_LOOKUPS: "dict[tuple[str, str], pd.Index]" = {}
_KEY_LOOKUPS_HELD = 4


def _key_lookup(value_ref: "ray.ObjectRef", col_type: pa.DataType) -> pd.Index:
    key = (value_ref.hex(), str(col_type))
    index = _KEY_LOOKUPS.get(key)
    if index is None:
        values = ray.get(value_ref)
        if values.type != col_type:
            values = values.cast(col_type)
        index = pd.Index(values.to_numpy(zero_copy_only=False))
        while len(_KEY_LOOKUPS) >= _KEY_LOOKUPS_HELD:
            _KEY_LOOKUPS.pop(next(iter(_KEY_LOOKUPS)))
        _KEY_LOOKUPS[key] = index
    return index


def keep_by_keys(
    ds: "ray.data.Dataset",
    keys: "ray.data.Dataset | pa.Table",
    key_col: str,
    keep: bool,
    keys_col: "str | None" = None,
) -> "ray.data.Dataset":
    """Keep (``keep=True``, semi-filter) or drop (``keep=False``,
    anti-filter) the ``ds`` rows whose ``key_col`` value is in
    ``keys[keys_col]`` — the engine's one key filter.

    A key Dataset executes once, as its narrow key column, through
    ``exchange.measured``; a key table already on the driver is used as
    it is.  A side that fits ``exchange.BROADCAST_BYTES`` sends its
    distinct non-null keys to the object store once, each worker hashes
    them once into a pandas Index, and every ``ds`` batch runs one
    vectorized lookup whose cost does not grow with the key count; a
    larger one feeds the partitioned :func:`filter_by_keys`
    (``exchange.parts_for`` parts), so no corpus-sized key set reaches
    the driver.  Both paths give the same
    rows: a null key on either side matches nothing, so semi drops
    null-key rows and anti keeps them.  An empty key side, with or
    without a schema, keeps nothing (semi) or everything (anti)."""
    import pyarrow.compute as pc

    keys_col = keys_col or key_col
    key_side = measured(keys if isinstance(keys, pa.Table) else keys.select_columns([keys_col]))
    if not isinstance(key_side, pa.Table):
        return filter_by_keys(
            ds, key_side, key_col, keep, n_parts=parts_for(key_side), keys_col=keys_col
        )
    if not keep and key_side.num_rows == 0:
        return ds
    value_set = (
        pc.unique(pc.drop_null(key_side[keys_col]))
        if key_side.num_rows
        else pa.array([], type=pa.null())
    )
    value_ref = ray.put(value_set)

    def filter_batch(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        index = _key_lookup(value_ref, col.type)
        valid = None
        if col.null_count and pa.types.is_integer(col.type):
            # to_numpy would turn a null-bearing int column into float64
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            col = pc.fill_null(col, 0)
        m = index.get_indexer(col.to_numpy()) >= 0
        if valid is not None:
            m &= valid
        return batch.filter(pa.array(m if keep else ~m))

    # not batch_size=None: a whole-block filter fuses into the read and
    # hands every tiny surviving block on as its own block / output
    # file; 1024-row batches cut refresh CPU by about 10 % (perfbench
    # refresh workload, num_cpus=4 Ray on a one-core host)
    return ds.map_batches(filter_batch, batch_format="pyarrow", batch_size=1024)


_JOIN_TYPES = {"inner": "inner", "left": "left outer", "full": "full outer"}


def _join_tables(
    left: pa.Table, right: pa.Table, on: str, right_on: str, how: str
) -> pa.Table:
    """One Arrow join of a ``left`` table with a ``right`` lookup table
    on ``left[on] == right[right_on]``, the right key cast to the left
    key's type and coalesced into ``on``.  A table with no columns is a
    side with no rows and no schema.

    Arrow's hash join carries only flat non-key columns, so it joins
    each side's key and row index alone and the payload columns follow
    by ``take``: nested ones (``spans``' ``list<struct>``) ride through
    byte for byte.  Rows come out in left row order, then the unmatched
    right rows of a full join in right row order."""
    if right.num_columns == 0:
        return left.slice(0, 0) if how == "inner" else left
    clash = set(left.column_names) & (set(right.column_names) - {right_on})
    if clash:
        raise ValueError(f"attach: both sides carry columns {sorted(clash)}")
    right = right.rename_columns([on if c == right_on else c for c in right.column_names])
    if left.num_columns == 0:
        return right if how == "full" else left
    key_type = left.schema.field(on).type
    right_key = right[on] if right[on].type == key_type else right[on].cast(key_type)
    pairs = (
        pa.table({on: left[on], "l": np.arange(left.num_rows)})
        .join(
            pa.table({on: right_key, "r": np.arange(right.num_rows)}),
            on,
            join_type=_JOIN_TYPES[how],
            coalesce_keys=True,
        )
        .sort_by([("l", "ascending"), ("r", "ascending")])
    )
    left_rows = left.take(pairs["l"])
    right_rows = right.drop_columns([on]).take(pairs["r"])
    return pa.table(
        [pairs[on] if c == on else left_rows[c] for c in left.column_names]
        + right_rows.columns,
        names=left.column_names + right_rows.column_names,
    )


def attach(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset | pa.Table",
    on: str,
    right_on: "str | None" = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Join ``right``'s columns onto the ``left`` rows whose ``on`` value
    equals ``right[right_on]`` — the engine's one join.

    ``how`` is ``"inner"``, ``"left"`` (unmatched left rows keep null
    right columns) or ``"full"`` (unmatched rows of both sides).  The
    output carries the left columns, the key under the name ``on`` (a
    full join's key is the coalesced key of both sides) and the right
    non-key columns, which must not share a name with a left column.  A
    null key matches nothing.  The right key is cast to the left key's
    type.  An empty right side, with or without a schema, gives no rows
    (inner) or the left rows unchanged (left).  Payload columns of any
    type, nested ``list<struct>`` ones included, ride through byte for
    byte, and each output batch keeps its left rows' order (a left
    row's matches in right row order), which is how
    ``ops/diff.corpus_diff`` finds a duplicated id's first row.

    The right side executes once through ``exchange.measured`` (a right
    table already on the driver is used as it is).  A driver table goes
    to the object store once and every ``left`` batch runs one Arrow
    join against it; a larger side, and any right side of a ``"full"``
    join (whose preserved right side cannot be broadcast), co-locates
    with the left side through ``exchange.co_group`` in
    ``exchange.parts_for`` parts, one Arrow join per part.  Neither
    path uses Ray's hash join, whose aggregator dies on a partition
    that receives no block from a sparse side."""
    if how not in _JOIN_TYPES:
        raise ValueError(f"attach: how must be one of {sorted(_JOIN_TYPES)}, got {how!r}")
    right_on = right_on or on
    right = measured(right)

    def join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return _join_tables(lt, rt, on, right_on, how)

    if isinstance(right, pa.Table) and how != "full":
        small_ref = ray.put(right)

        def join_batch(batch: pa.Table) -> pa.Table:
            return join(batch, ray.get(small_ref))

        # whole blocks: a broadcast join is per left row, so it fuses
        # into the stage that produced the left rows (a corpus read, in
        # corpus_diff) instead of re-batching them through the object
        # store; 65536-row batches cost refresh about 0.15 CPU-s per
        # 2,000-doc job (num_cpus=4 Ray on a one-core host)
        return left.map_batches(join_batch, batch_format="pyarrow", batch_size=None)
    if not isinstance(right, pa.Table):
        # a fresh Dataset over the same blocks: Ray walks a result's
        # stats through every materialized ancestor without merging
        # shared ones, and iterative callers (PageRank, label
        # propagation) reach the previous round along two paths, so
        # each round would double that walk
        right = ray.data.from_arrow_refs(right.to_arrow_refs())
    return co_group([(left, on), (right, right_on)], parts_for(right), join)


# ---------------------------------------------------------------------------
# The near-dup resolver: LSH candidates -> verified pairs -> clusters
# ---------------------------------------------------------------------------

def _unique_pairs(t: pa.Table) -> pa.Table:
    """One row per ``(doc_a, doc_b)``: a pair that collides in k bands
    arrives as k candidate rows."""
    if not t.num_columns:
        return t
    return t.group_by(["doc_a", "doc_b"], use_threads=False).aggregate([])


def _pair_ids(t: pa.Table) -> pa.Table:
    ids = pa.chunked_array(t["doc_a"].chunks + t["doc_b"].chunks, t["doc_a"].type)
    return pa.table({"doc_id": ids})


def _per_key(
    side: "ray.data.Dataset", key: str, fn: Callable[[pa.Table], pa.Table]
) -> "ray.data.Dataset":
    """``fn`` over the rows of ``side`` grouped by ``key``, as one
    materialized Dataset.  ``side`` executes once through
    ``exchange.measured``: a driver table takes one ``fn`` call, a
    larger side one call per ``exchange.co_group`` part (a key never
    straddles parts).  ``fn`` also gets a zero-column table when
    ``side`` has no rows."""
    side = measured(side)
    if isinstance(side, pa.Table):
        return ray.data.from_arrow(fn(side))
    return co_group([(side, key)], parts_for(side), fn).materialize()


def _suffixed(side: "pa.Table | ray.data.Dataset", suffix: str):
    """``side`` with every column but ``doc_id`` renamed ``<col><suffix>``."""

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([c if c == "doc_id" else c + suffix for c in t.column_names])

    if isinstance(side, pa.Table):
        return rename(side)
    return side.map_batches(rename, batch_format="pyarrow")


def _verified(t: pa.Table, score: np.ndarray, keep: np.ndarray, name: str) -> pa.Table:
    """The ``(doc_a, doc_b, <name>)`` rows of candidate batch ``t`` that
    ``keep`` marks — the output of every resolver ``verify``."""
    keep = pa.array(keep, type=pa.bool_())
    return pa.table(
        {
            "doc_a": t["doc_a"].filter(keep),
            "doc_b": t["doc_b"].filter(keep),
            name: pa.array(score).filter(keep),
        }
    )


def verified_pairs(
    sigs: "ray.data.Dataset",
    bands: Callable[[pa.Table], pa.Table],
    lookup: "ray.data.Dataset",
    verify: Callable[[pa.Table], pa.Table],
) -> "pa.Table | ray.data.Dataset | None":
    """Steps 1-2 of the near-dup resolver that every near-dup caller
    (MinHash, n-gram, SimHash, media fingerprints) runs.

    ``sigs`` is a ``doc_id``-keyed signature Dataset that is cheap to
    count and to read twice (a parquet checkpoint or a materialized
    table); ``bands`` maps a batch of it to ``(bucket, doc_id)`` rows;
    ``lookup`` holds the ``doc_id``-keyed columns ``verify`` reads; and
    ``verify`` maps an Arrow batch of candidate pairs that carries them
    as ``<col>_a`` / ``<col>_b`` to its verified ``(doc_a, doc_b,
    <score>)`` rows.  The same ``verify`` runs on either path below.

    1. Candidates: the band rows go through one
       :func:`_lsh_candidate_pairs` exchange sized by the signature
       count, and each pair that collides in several bands is kept once
       (:func:`_per_key`: on the driver, or per ``doc_a`` part when the
       candidate table outgrows ``BROADCAST_BYTES``).
    2. Verified pairs: one :func:`keep_by_keys` cuts ``lookup`` to the
       candidate ids, which execute once through ``exchange.measured``;
       :func:`attach` joins them to both ends of each pair; ``verify``
       runs per batch.

    Returns the verified pairs through ``exchange.measured`` — a driver
    table when they fit, the materialized Dataset otherwise — or None
    when no candidate exists or none verifies."""
    banded = sigs.map_batches(bands, batch_format="pyarrow", batch_size=1024)
    cand = _per_key(
        _lsh_candidate_pairs(banded, n_parts_for(sigs.count())), "doc_a", _unique_pairs
    )
    if cand.count() == 0:
        return None
    ids = cand.map_batches(_pair_ids, batch_format="pyarrow", batch_size=None)
    look = measured(keep_by_keys(lookup, ids, "doc_id", keep=True))
    both = attach(
        attach(cand, _suffixed(look, "_a"), "doc_a", "doc_id"),
        _suffixed(look, "_b"),
        "doc_b",
        "doc_id",
    )
    pairs = measured(both.map_batches(verify, batch_format="pyarrow", batch_size=2048))
    return pairs if n_rows(pairs) else None


def cluster_verdicts(
    pairs: "pa.Table | ray.data.Dataset | None",
) -> "pa.Table | ray.data.Dataset | None":
    """Step 3 of the near-dup resolver: ``(doc_id, cluster_rep,
    is_kept)`` for every id of a :func:`verified_pairs` result, min id
    kept per cluster.  Where the pairs were measured decides where the
    clusters resolve: a driver table by union-find
    (:func:`dedup_clusters`) into a driver table, a Dataset by label
    propagation (:func:`dedup_clusters_distributed`) into a Dataset.
    Both give the same rows; no pairs (None) give None."""
    if pairs is None:
        return None
    if isinstance(pairs, pa.Table):
        return pa.Table.from_pandas(dedup_clusters(pairs.to_pandas()), preserve_index=False)
    return dedup_clusters_distributed(pairs)


def _pairs_frame(pairs: "pa.Table | ray.data.Dataset | None", score: str) -> pd.DataFrame:
    """A :func:`verified_pairs` result as the pair functions' driver
    frame ``(doc_a, doc_b, <score>)``, sorted by id pair."""
    if pairs is None:
        return pd.DataFrame(columns=["doc_a", "doc_b", score])
    return pairs.to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _minhash_verify(threshold: float) -> Callable[[pa.Table], pa.Table]:
    """MinHash verify: est_jaccard = fraction of equal signature rows,
    kept at ``>= threshold``."""

    def verify(t: pa.Table) -> pa.Table:
        est = (
            (_decode_sigs(t["minhash_sig_a"]) == _decode_sigs(t["minhash_sig_b"])).mean(axis=1)
            if t.num_rows
            else np.zeros(0)
        )
        return _verified(t, est, est >= threshold, "est_jaccard")

    return verify


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

def _simhash64_batch(texts: list, hash_fn: str = "sip") -> np.ndarray:
    """Vectorized 64-bit SimHash per document.

    ONE ``pd.util.hash_array`` call hashes every token of the whole
    batch (element-wise hashing, so values are identical to the former
    per-doc calls — signatures are bit-stable); bit-plane unpacking and
    the per-doc column sums run chunked (``np.add.reduceat`` over doc
    boundaries) so no temporary exceeds ~4 MB — large fresh allocations
    stall badly on this host.

    ``hash_fn="md5"`` swaps the token hash for the high 64 bits of
    ``md5(token)`` (computed once per DISTINCT token in the batch) —
    bit-reproducible in DuckDB (``substr(md5(w), ...)``), which is what
    lets the ``simhash_dedup_pairs`` registry query carry a full SQL
    oracle.  The siphash default stays the scale path (one C call for
    the whole batch)."""
    tok_lists = [(t or "").lower().split() for t in texts]
    counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
    nonempty = np.nonzero(counts)[0]
    out = np.zeros(len(texts), dtype=np.uint64)
    if len(nonempty) == 0:
        return out
    flat = [tok for toks in tok_lists for tok in toks]
    if hash_fn == "md5":
        import hashlib

        uniq, inv = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
        uh = np.array(
            [int(hashlib.md5(w.encode()).hexdigest()[:16], 16) for w in uniq],
            dtype=np.uint64,
        )
        th = uh[inv]
    else:
        th = pd.util.hash_array(np.asarray(flat, dtype=object))  # uint64, N tokens
    ne_counts = counts[nonempty]
    starts = np.cumsum(ne_counts) - ne_counts  # segment starts in th
    ones = np.zeros((len(nonempty), 64), dtype=np.int64)
    # chunk over whole docs: bits temp = chunk_tokens x 64 uint8 <= ~4MB
    max_tok = 1 << 16
    d0 = 0
    while d0 < len(nonempty):
        d1 = d0
        tot = 0
        while d1 < len(nonempty) and (d1 == d0 or tot + ne_counts[d1] <= max_tok):
            tot += ne_counts[d1]
            d1 += 1
        lo = starts[d0]
        hi = starts[d1 - 1] + ne_counts[d1 - 1]
        bits = np.unpackbits(
            th[lo:hi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )  # (chunk_tokens, 64)
        ones[d0:d1] = np.add.reduceat(bits, starts[d0:d1] - lo, axis=0)
        d0 = d1
    majority = (ones * 2 > ne_counts[:, None]).astype(np.uint8)
    out[nonempty] = np.packbits(majority, axis=1, bitorder="little").view(np.uint64)[:, 0]
    return out


def simhash_signatures(ds: "ray.data.Dataset", hash_fn: str = "sip"):
    """(doc_id, simhash: int64, chunk0..chunk3) — 16-bit chunks are the
    LSH bucket keys (two near-dup docs with hamming distance ≤ 3 share
    at least one chunk by pigeonhole)."""

    def add(batch: pa.Table) -> pa.Table:
        hs = _simhash64_batch(batch["text"].to_pylist(), hash_fn=hash_fn)
        cols = {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(hs.view(np.int64)),
        }
        for c in range(4):
            cols[f"chunk{c}"] = pa.array(
                ((hs >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int32)
            )
        return pa.table(cols)

    return ds.map_batches(add, batch_format="pyarrow", batch_size=2048)


def simhash_pairs(
    ds: "ray.data.Dataset", max_hamming: int = 3, hash_fn: str = "sip"
) -> pd.DataFrame:
    """Near-dup pairs: bucket by each 16-bit chunk, verify hamming ≤ k.

    Banding is LOSSLESS for ``max_hamming <= 3`` with 4 chunks
    (pigeonhole), so the result equals exact all-pairs hamming — which
    is exactly what the registry query's DuckDB oracle computes.

    The pairs come from ``ops.imagehash.hamming64_pairs``, the 64-bit
    hamming caller of :func:`verified_pairs` that the media
    fingerprints share; this wrapper contributes only the simhash
    signature computation."""
    from fetch_engines_ray.ops.imagehash import hamming64_pairs

    return hamming64_pairs(
        simhash_signatures(ds, hash_fn=hash_fn),
        hash_col="simhash",
        id_col="doc_id",
        max_hamming=max_hamming,
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard verification
# ---------------------------------------------------------------------------

def _ngram_set(t: str, n: int) -> set:
    toks = t.lower().split()
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def ngram_jaccard_pairs(
    ds: "ray.data.Dataset",
    threshold: float = 0.7,
    shingle_size: int = 3,
    num_perm: int = 64,
    num_bands: int = 16,
) -> pd.DataFrame:
    """Near-dup pairs verified by EXACT word n-gram Jaccard.

    Same LSH candidate generation as :func:`minhash_lsh_pairs`, but the
    verify lookup is the raw TEXTS of the candidate ids and the score is
    the true n-gram Jaccard — the estimator-free variant for when
    candidate volume is small enough to afford exact verification.
    Returns (doc_a, doc_b, jaccard_x1000) with an integer-scaled score
    (hash-stable).
    """
    texts = ds.map_batches(
        lambda b: b.select(["doc_id", "text"]), batch_format="pyarrow", batch_size=4096
    )
    with _minhash_checkpoint(ds, num_perm, shingle_size, "sip", "ngram_sigs") as sigs:
        pairs = verified_pairs(
            sigs,
            lambda b: _band_rows(b, num_bands),
            texts,
            _ngram_verify(threshold, shingle_size),
        )
        return _pairs_frame(pairs, "jaccard_x1000")


def _ngram_verify(threshold: float, shingle_size: int) -> Callable[[pa.Table], pa.Table]:
    """n-gram verify with an integer-exact score: jaccard_x1000 =
    (1000 * |intersect|) // |union| — floor division on both engine and
    oracle side, so the value representation can never drift (a float
    round() had half-boundary parity risk vs SQL)."""

    def verify(t: pa.Table) -> pa.Table:
        inter, union = [], []
        for a, b in zip(t["text_a"].to_pylist(), t["text_b"].to_pylist()):
            ga, gb = _ngram_set(a or "", shingle_size), _ngram_set(b or "", shingle_size)
            inter.append(len(ga & gb))
            union.append(len(ga | gb) or 1)
        inter, union = np.array(inter, dtype=np.int64), np.array(union, dtype=np.int64)
        return _verified(t, (1000 * inter) // union, inter >= threshold * union, "jaccard_x1000")

    return verify


def dedup_clusters(pairs: pd.DataFrame) -> pd.DataFrame:
    """Resolve near-dup PAIRS into clusters via union-find and pick the
    min doc_id as each cluster's representative.

    The driver form of :func:`cluster_verdicts`; a pair list that does
    not fit the driver resolves by label propagation over the same
    (doc_a, doc_b) edges instead (:func:`dedup_clusters_distributed`,
    same output contract).

    Returns (doc_id, cluster_rep, is_kept) for every doc appearing in a
    pair; docs not in any pair are implicitly kept.
    """
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller id as root → deterministic representative
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        union(a, b)
    rows = [
        {"doc_id": d, "cluster_rep": find(d), "is_kept": find(d) == d}
        for d in sorted(parent)
    ]
    return pd.DataFrame(rows, columns=["doc_id", "cluster_rep", "is_kept"])


def dedup_clusters_distributed(pairs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Distributed min-label propagation over a near-dup PAIR edge set —
    the cluster-scale form of :func:`dedup_clusters` (same output
    contract: ``(doc_id, cluster_rep, is_kept)``, min doc_id is the
    representative, so both paths produce identical tables).

    Each iteration is one :func:`attach` (symmetrized edges x labels)
    plus a min-groupby; nothing corpus-sized ever reaches the driver —
    the only driver-side value per iteration is the number of labels
    that changed.  Each row carries its previous label as ``own``, so
    one min-groupby yields both the new label and that count, whatever
    the id type (ints or strings).  Min-labels only ever decrease, so a
    round that changes none is the fixed point: the loop runs as many
    iterations as the largest cluster's diameter needs, with no budget
    that could cut a long chain short and emit wrong representatives.

    The label table (one row per doc appearing in a PAIR — tiny relative
    to the corpus) is ``materialize()``d per iteration: without it the
    lazy plan deepens by one join per iteration and re-executes the
    whole history on every convergence check."""
    import pyarrow.compute as pc

    def symmetrize(b: pa.Table) -> pa.Table:
        fwd = pa.table({"src": b["doc_a"], "dst": b["doc_b"]})
        rev = pa.table({"src": b["doc_b"], "dst": b["doc_a"]})
        return pa.concat_tables([fwd, rev])

    def labelled(ids: pa.ChunkedArray, label: pa.ChunkedArray, own) -> pa.Table:
        return pa.table({"doc_id": ids, "label": label, "own": own})

    edges = pairs.map_batches(
        symmetrize, batch_format="pyarrow", batch_size=65536
    ).materialize()
    # initial labels: every node labels itself
    labels = (
        edges.map_batches(
            lambda b: pa.table({"doc_id": b["src"], "label": b["src"]}),
            batch_format="pyarrow",
            batch_size=65536,
        )
        .groupby("doc_id")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )
    while True:
        # neighbor labels: edge (src, dst) joined with label(dst); a
        # neighbor row has no own label (Min skips the null)
        nbr = attach(edges, labels, "dst", "doc_id").map_batches(
            lambda b: labelled(b["src"], b["label"], pa.nulls(b.num_rows, b["label"].type)),
            batch_format="pyarrow",
            batch_size=65536,
        )
        own = labels.map_batches(
            lambda b: labelled(b["doc_id"], b["label"], b["label"]),
            batch_format="pyarrow",
            batch_size=65536,
        )
        labels = (
            own.union(nbr)
            .groupby("doc_id")
            .aggregate(Min("label", alias_name="label"), Min("own", alias_name="own"))
            .materialize()
        )
        if labels.filter(expr="label != own").count() == 0:
            break

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "cluster_rep": b["label"],
                "is_kept": pc.equal(b["doc_id"], b["label"]),
            }
        )

    out = labels.map_batches(finish, batch_format="pyarrow", batch_size=65536)
    return out.sort("doc_id")


_VERDICT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("cluster_rep", pa.int64()), ("is_kept", pa.bool_())]
)


def minhash_dedup_ds(
    ds: "ray.data.Dataset",
    threshold: float = 0.7,
    num_perm: int = 64,
    num_bands: int = 16,
    shingle_size: int = 3,
    hash_fn: str = "sip",
) -> "ray.data.Dataset":
    """End-to-end MinHash-LSH near-dedup verdicts as a Dataset:
    ``(doc_id, cluster_rep, is_kept)``, one row per doc appearing in a
    verified pair, min ``doc_id`` kept per cluster; docs in no pair
    simply have no row.

    One signature pass + checkpoint, then the near-dup resolver:
    :func:`verified_pairs` with the MinHash band rule and estimator,
    and :func:`cluster_verdicts`, which resolves the verified pairs by
    union-find on the driver when they fit ``exchange.BROADCAST_BYTES``
    and by label propagation otherwise, so nothing pair-, cluster- or
    drop-set-sized reaches the driver.  Both paths give the same
    table."""
    with _minhash_checkpoint(ds, num_perm, shingle_size, hash_fn, "minhash_sigs_ds") as sigs:
        clusters = cluster_verdicts(
            verified_pairs(
                sigs, lambda b: _band_rows(b, num_bands), sigs, _minhash_verify(threshold)
            )
        )
    if clusters is None:
        return ray.data.from_arrow(_VERDICT_SCHEMA.empty_table())
    # a distributed result is a lazy tail over its materialized labels,
    # so it outlives the signature checkpoint
    return ray.data.from_arrow(clusters) if isinstance(clusters, pa.Table) else clusters


# ---------------------------------------------------------------------------
# Cross-document line-level exact dedup (C4-style)
# ---------------------------------------------------------------------------

# parts for both line_dedup exchanges; any value is correct, it only
# sets parallelism and the per-part heap (size it near total_lines / 2M)
_LINE_PARTS = 64


def line_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """C4/RefinedWeb-style cross-corpus line dedup: every distinct
    non-empty line survives exactly ONCE corpus-wide (first occurrence
    by ``(doc_id, line_no)``); documents are rebuilt from their
    surviving lines (docs that lose every line drop out).

    Reference analog: the converters' per-document boilerplate removal
    (MarkdownConverter.ts postprocess) is within-doc only — this is the
    corpus-wide variant a training-data pipeline needs (C4's "discard
    duplicated lines across the corpus" step).

    Scale design (two :func:`~fetch_engines_ray.ops.exchange.co_group`
    exchanges of :data:`_LINE_PARTS` parts, no joins):

    * Explode is a vectorized ``map_batches`` (numpy repeat/cumsum for
      line numbers) with a per-batch combiner — local duplicate lines
      collapse to their min-``(doc_id, line_no)`` witness BEFORE the
      shuffle, so repetitive corpora shuffle far less than corpus size.
    * Winner selection partitions on the line text and resolves EXACTLY
      inside each part with one vectorized pandas ``drop_duplicates``
      on the full line text — hash collisions only co-locate lines,
      they can never merge distinct ones.  (Not a Ray aggregate on the
      line: sort-aggregating with a long-string group key measured
      ~4 ms/row of remote time.)
    * The first-occurrence winner is the lexicographic min of
      ``(doc_id, line_no)`` carried as TWO int64 columns — NOT packed
      into ``doc_id * 2^32 + line_no``: ids are full-range int64 in the
      ingest path (blake2b-derived, signed), and the packed form wraps
      for any ``|doc_id| >= 2^31``, corrupting rebuilt doc_ids and
      merging unrelated documents that share their low 32 id bits.  The
      oracle mirrors the same rule with a ``row_number()`` window.
    * Document reconstruction partitions on ``doc_id`` (NOT per-doc
      groups — Ray dispatches map_groups once per group, ~2ms each, so
      per-doc grouping was measured 200x slower than one vectorized
      pandas groupby over the whole part).

    Returns a Dataset of ``(doc_id, text, n_lines)``.
    """

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        parts = batch[text_col].fillna("").str.split("\n", regex=False)
        lens = parts.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        doc_ids = batch[id_col].to_numpy(dtype=np.int64).repeat(lens)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        line_no = np.arange(total, dtype=np.int64) - starts + 1
        lines = np.empty(total, dtype=object)
        pos = 0
        for p in parts:
            lines[pos : pos + len(p)] = p
            pos += len(p)
        keep = lines != ""
        df = pd.DataFrame(
            {"doc_id": doc_ids[keep], "line_no": line_no[keep], "line": lines[keep]}
        )
        # local combiner: one witness per distinct line before the shuffle
        return df.sort_values(["doc_id", "line_no"], kind="stable").drop_duplicates(
            "line", keep="first"
        )

    def pick_part(t: pa.Table) -> pd.DataFrame:
        # exact winner per DISTINCT LINE, vectorized over the whole part
        return t.to_pandas().sort_values(["doc_id", "line_no"], kind="stable").drop_duplicates(
            "line", keep="first"
        )

    def rebuild_part(t: pa.Table) -> pd.DataFrame:
        # one vectorized pandas groupby over the WHOLE part — not a Ray
        # call per document (per-group dispatch measured ~2ms each;
        # pandas agg is ~10us/doc)
        g = t.to_pandas().sort_values(["doc_id", "line_no"], kind="stable")
        grp = g.groupby("doc_id", sort=True)
        text = grp["line"].agg("\n".join)
        return pd.DataFrame(
            {
                "doc_id": text.index.to_numpy(dtype=np.int64),
                "text": text.to_numpy(),
                "n_lines": grp.size().to_numpy(dtype=np.int64),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pandas", batch_size=2048)
    winners = co_group([(exploded, "line")], _LINE_PARTS, pick_part)
    return co_group([(winners, "doc_id")], _LINE_PARTS, rebuild_part)
