"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale design: every flavor is partial-first — per-batch signature
computation in ``map_batches`` (vectorized numpy), then ONE ``groupby``
on a bucket key whose fan-in is tiny (bucket members), never an
all-pairs shuffle.  Candidate verification happens inside the bucket
group (``map_groups``), so the only wide op moves (key, doc_id,
signature) triples, not documents.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from fetch_engines_ray.arrowclean import read_parquet_clean
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
    candidate-pair set afterwards via hash join."""
    sigs = _decode_sigs(batch["minhash_sig"])  # (n_docs, num_perm) int64
    n = sigs.shape[0]
    bucket = _fold_band_keys(sigs, num_bands).reshape(-1)
    ids = batch["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), num_bands))
    return pa.table({"bucket": pa.array(bucket), "doc_id": ids.take(idx)})


def _lsh_candidate_pairs(
    banded: "ray.data.Dataset",
    n_parts: int = 2,
    carry: tuple = (),
    require_flag: "str | None" = None,
) -> "ray.data.Dataset":
    """All co-bucket candidate pairs (doc_a < doc_b): band rows are
    hash-partitioned by bucket into a bounded number of parts (a bucket
    never straddles parts), then ONE vectorized numpy pass per part
    sorts its rows, finds colliding runs, and expands each run's
    ``L*(L-1)/2`` pairs batched by run length.

    This replaces the former distributed SELF-JOIN on the bucket key —
    same pairs, ~4x faster (27.2 s -> 6.0 s on a 1M-doc / 16M-band-row
    corpus at 16 CPUs, same-session A/B): the join shuffled every band
    row TWICE through join aggregator actors; this moves each row ONCE
    through a bounded-part groupby, and pair emission is run-length
    batched numpy instead of join machinery.  (The round-1 shape —
    count-groupby -> driver-broadcast collision set — stays rejected:
    its driver state is O(colliding buckets), which on clone-heavy web
    corpora is O(docs).)  Like the join, a pathological mega-bucket
    co-locates in one part (quadratic pair blowup there is inherent to
    LSH; the verified output stays tiny).

    ``carry`` columns (small, fixed-width — e.g. an 8-byte simhash)
    ride through as ``<col>`` / ``<col>_b``.  A pair that collides in k
    bands appears k times; dedup happens on the (tiny) verified
    output.

    ``require_flag``: name of a 0/1 int column — only pairs where at
    least one member has flag=1 are emitted, and runs with NO flagged
    member are skipped BEFORE expansion.  This is the incremental-dedup
    shape (new×all, never old×old): on a small increment against a big
    checkpoint almost every colliding run is all-old, so the skip keeps
    the expansion bounded by buckets the increment actually touches."""
    carry = tuple(carry)
    if require_flag is not None and require_flag not in carry:
        carry = carry + (require_flag,)
    n_hash_parts = max(64, n_parts * 8)

    def add_part(b: pa.Table) -> pa.Table:
        arr = b["bucket"].to_numpy(zero_copy_only=False)
        if np.issubdtype(arr.dtype, np.integer):
            k = _mix_mod(arr.astype(np.int64), n_hash_parts)
        else:
            k = (
                pd.util.hash_array(np.asarray(arr, dtype=object))
                % np.uint64(n_hash_parts)
            ).astype(np.int64)
        return b.append_column("__part", pa.array(k))

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        b = g["bucket"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, b))
        b, d = b[order], d[order]
        cvals = {c: g[c].to_numpy()[order] for c in carry}

        def typed_empty() -> pd.DataFrame:
            data = {"doc_a": d[:0], "doc_b": d[:0]}
            for c in carry:
                data[c] = cvals[c][:0]
                data[f"{c}_b"] = cvals[c][:0]
            return pd.DataFrame(data)

        if len(b) == 0:
            return typed_empty()
        edge = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1], [True])))
        lens = np.diff(edge)
        starts = edge[:-1]
        if require_flag is not None:
            # skip all-old runs wholesale before any expansion
            fl = cvals[require_flag].astype(np.int64)
            has_new = np.add.reduceat(fl, starts) > 0
            starts, lens = starts[has_new], lens[has_new]
        ia_parts, ib_parts = [], []
        # expand runs batched BY LENGTH: all runs of length L stack into
        # a (k, L) index matrix and share one triu_indices expansion
        for length in np.unique(lens[lens > 1]):
            s = starts[lens == length]
            mat = s[:, None] + np.arange(length, dtype=np.int64)[None, :]
            ii, jj = np.triu_indices(int(length), k=1)
            ia_parts.append(mat[:, ii].ravel())
            ib_parts.append(mat[:, jj].ravel())
        if not ia_parts:
            return typed_empty()
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        # rows sort by (bucket, doc_id), so d[ia] <= d[ib]; equal ids
        # (the same doc landing twice in one bucket) are dropped
        keep = d[ia] < d[ib]
        if require_flag is not None:
            fl = cvals[require_flag].astype(np.int64)
            keep &= (fl[ia] + fl[ib]) > 0
        ia, ib = ia[keep], ib[keep]
        data = {"doc_a": d[ia], "doc_b": d[ib]}
        for c in carry:
            data[c] = cvals[c][ia]
            data[f"{c}_b"] = cvals[c][ib]
        return pd.DataFrame(data)

    return (
        banded.map_batches(add_part, batch_format="pyarrow", batch_size=65536)
        .groupby("__part")
        .map_groups(pairs_part, batch_format="pandas")
    )


def _checkpoint_parquet(
    ds: "ray.data.Dataset", tag: str = "ckpt"
) -> tuple["ray.data.Dataset", str]:
    """Spill a dataset to a parquet checkpoint and read it back; returns
    ``(dataset, path)`` so the caller can clean up after consumption.

    Used where a mid-pipeline table is consumed by several downstream
    branches: unlike ``materialize()`` this does NOT pin the whole table
    in the object store — each consumer streams it back from disk.

    The directory root comes from ``FER_CHECKPOINT_DIR`` (point it at
    shared storage on a multi-node cluster — a driver-local /tmp path is
    invisible to other nodes' read tasks) and defaults to /tmp locally.
    Callers remove the directory once the consuming pipeline finishes
    unless ``FER_KEEP_CHECKPOINTS=1`` (keep it as a resume point)."""
    import os
    import tempfile

    root = os.environ.get("FER_CHECKPOINT_DIR", "/tmp")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"fer_{tag}_", dir=root)
    ds.write_parquet(path)
    return read_parquet_clean(path), path


def _named_checkpoint_path(tag: str, name: str) -> tuple[str, str]:
    import os
    import re

    root = os.environ.get("FER_CHECKPOINT_DIR", "/tmp")
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    path = os.path.join(root, f"fer_{tag}_{safe}")
    return path, os.path.join(path, "_FINGERPRINT.json")


def try_named_checkpoint(
    tag: str, name: str, fingerprint: dict
) -> "ray.data.Dataset | None":
    """Resume side of the NAMED checkpoint contract: if a complete
    checkpoint ``<FER_CHECKPOINT_DIR>/fer_<tag>_<name>/`` exists, read
    it back (skipping every stage upstream of it) — but only when its
    recorded fingerprint matches; a mismatch raises instead of silently
    resuming a DIFFERENT run's data under the same name.  Returns None
    when there is nothing to resume (no dir, or an incomplete write —
    the ``_FINGERPRINT.json`` sidecar lands last, tmp+renamed, so its
    presence IS the completeness marker)."""
    import json
    import os

    path, marker = _named_checkpoint_path(tag, name)
    if not os.path.exists(marker):
        return None
    with open(marker, encoding="utf-8") as f:
        recorded = json.load(f)
    if recorded != fingerprint:
        raise ValueError(
            f"named checkpoint {path!r} was written by a run with a different "
            f"input/option fingerprint (recorded {recorded!r}, this run "
            f"{fingerprint!r}) — pick a new checkpoint name or remove the dir"
        )
    return read_parquet_clean(path)


def write_named_checkpoint(
    ds: "ray.data.Dataset", tag: str, name: str, fingerprint: dict
) -> "ray.data.Dataset":
    """Write side of the named checkpoint: spill ``ds`` to the keyed
    directory and land the fingerprint sidecar LAST (tmp+rename), so a
    killed run leaves an incomplete dir that the next run discards and
    rewrites.  Returns the read-back Dataset (downstream passes stream
    plain columnar reads instead of re-running the producing chain)."""
    import json
    import os
    import shutil

    path, marker = _named_checkpoint_path(tag, name)
    if os.path.exists(path):
        # an existing COMPLETE dir was already handled by the caller via
        # try_named_checkpoint; anything still here is a partial write
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    ds.write_parquet(path)
    tmp = marker + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(fingerprint, f, sort_keys=True)
    os.replace(tmp, marker)
    return read_parquet_clean(path)


def content_fingerprint(ds: "ray.data.Dataset", cols: list) -> int:
    """Order-independent 64-bit content fingerprint of the selected
    columns: per-row hashes (strings hashed as UTF-8 BYTES — pandas'
    str hashing truncates at embedded NULs, see ops/diff.py) combined
    per row with splitmix64, then summed mod 2^64 across the corpus
    (sum, not xor: duplicate rows must not cancel).  One streaming
    pass, O(1) driver state — cheap enough to gate a resume on
    CONTENT, not just row count (a re-crawl with the same cardinality
    but new text must not silently resume a stale checkpoint)."""
    import pandas as pd
    import pyarrow as pa

    from .sketches import _splitmix64_vec

    def part(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"fp": pa.array([], type=pa.uint64())})
        row = np.zeros(len(batch), dtype=np.uint64)
        for c in cols:
            col = batch[c]
            if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                vals = pd.util.hash_array(
                    col.to_numpy(zero_copy_only=False)
                ).astype(np.uint64)
            else:
                vals = pd.util.hash_array(
                    np.asarray(
                        [
                            (v if isinstance(v, bytes) else str(v or "").encode())
                            for v in col.to_pylist()
                        ],
                        dtype=object,
                    )
                ).astype(np.uint64)
            row = _splitmix64_vec(row ^ vals)
        with np.errstate(over="ignore"):
            total = np.add.reduce(row, dtype=np.uint64)
        return pa.table({"fp": pa.array([total], type=pa.uint64())})

    parts = ds.map_batches(part, batch_format="pyarrow", batch_size=8192).to_pandas()
    if "fp" not in parts.columns or not len(parts):
        return 0
    with np.errstate(over="ignore"):
        return int(parts["fp"].to_numpy(dtype=np.uint64).sum(dtype=np.uint64))


def _cleanup_checkpoint(path: str) -> None:
    """Remove a consumed checkpoint dir (kept when FER_KEEP_CHECKPOINTS=1)."""
    import os
    import shutil

    if os.environ.get("FER_KEEP_CHECKPOINTS") == "1":
        return
    shutil.rmtree(path, ignore_errors=True)


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
    sigs = ds.map_batches(
        minhash_batch,
        fn_kwargs={"num_perm": num_perm, "shingle_size": shingle_size, "hash_fn": hash_fn},
        batch_format="pyarrow",
        batch_size=1024,
    )
    # Signatures are consumed three times (banding + both join sides);
    # checkpoint to parquet once — nothing pins the object store, and at
    # cluster scale (FER_CHECKPOINT_DIR on shared storage) the
    # checkpoint is the resume point.
    sigs, ckpt = _checkpoint_parquet(sigs, "minhash_sigs")
    try:
        return _minhash_pairs_from_sigs(sigs, num_bands, threshold)
    finally:
        _cleanup_checkpoint(ckpt)


def _minhash_pairs_from_sigs(
    sigs: "ray.data.Dataset", num_bands: int, threshold: float
) -> pd.DataFrame:
    banded = sigs.map_batches(
        lambda b: _band_rows(b, num_bands), batch_format="pyarrow", batch_size=1024
    )
    # Partition count scales with the table (count on a parquet read is
    # metadata-only) — every join/shuffle partition is an aggregator
    # actor with multi-second fixed cost, so stay small at small scale.
    n_docs = sigs.count()
    n_parts = n_parts_for(n_docs)
    cand = _lsh_candidate_pairs(banded, n_parts)
    return _verify_minhash_pairs(cand, sigs, threshold)


def _consume_pairs(consume, cand: "ray.data.Dataset", empty: pd.DataFrame) -> pd.DataFrame:
    """Consume a candidate-pair plan, mapping the schema-less-empty-
    stream failure modes to the typed empty frame.

    When an LSH pass finds ZERO colliding buckets (a corpus with no
    near-dups), Ray's hash shuffle emits schema-less empty blocks and a
    downstream join/groupby dies with ``ArrowInvalid: No match ... for
    key field FieldRef`` (wrapped in RayTaskError) or ``ValueError`` at
    pandas conversion.  Only a VERIFIED-empty candidate set maps to the
    empty result — the count re-executes the candidate plan, but only on
    this rare error path.  If the verification count ITSELF fails, the
    ORIGINAL error re-raises: mapping an unverifiable failure to "no
    pairs" would silently disable dedup on a genuine worker-side bug
    (e.g. an import error inside a map task), which at corpus scale is
    a quiet data-quality disaster, not a recoverable empty stream."""
    try:
        return consume()
    except (ValueError, ray.exceptions.RayTaskError) as err:
        try:
            n = cand.count()
        except (ValueError, ray.exceptions.RayTaskError):
            raise err
        if n == 0:
            return empty
        raise


def _mix_mod(key: np.ndarray, n_parts: int) -> np.ndarray:
    """Splitmix-style mix before the modulus so structured id spaces
    (sequential, strided) still spread evenly across parts."""
    k = key.astype(np.uint64, copy=True)
    k *= np.uint64(0x9E3779B97F4A7C15)
    k ^= k >> np.uint64(31)
    return (k % np.uint64(n_parts)).astype(np.int64)


def _partitioned_attach(
    pairs: "ray.data.Dataset",
    lookup: "ray.data.Dataset",
    key_col: str,
    carry: list[tuple[str, "pa.DataType"]],
    value_col: str,
    value_type: "pa.DataType",
    out_col: str,
    n_parts: int = 64,
    how: str = "inner",
    lookup_key: str = "doc_id",
) -> "ray.data.Dataset":
    """Attach ``lookup[value_col]`` onto ``pairs`` rows matching
    ``pairs[key_col] == lookup.doc_id`` WITHOUT a Ray hash join
    (``how="left"`` keeps unmatched pair rows with a null value).

    Ray's hash-join aggregator synthesizes a SCHEMA-LESS empty table for
    any partition that receives zero blocks from one side and then dies
    with ``ArrowInvalid: No match for FieldRef`` — guaranteed to trigger
    when the candidate-pair side is sparse (few pairs, or one hot doc
    owning every pair), which is the NORMAL case for near-dup
    verification.  This helper is the engine's standard alternative
    (see BASELINE.md line-dedup lessons): union both sides under one
    conformed schema, hash-partition the join key into ``n_parts`` int64
    parts (a key never straddles parts; empty parts simply don't
    exist), and run ONE vectorized pandas merge per part.  Exchange
    volume is the same as the hash join's (lookup rows cross once)."""
    import pyarrow.compute as pc

    carry_fields = [(c, t) for c, t in carry]

    def conform_pairs(batch: pa.Table) -> pa.Table:
        key = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        part = _mix_mod(key, n_parts)
        cols = {
            "part": pa.array(part, type=pa.int64()),
            "key": pa.array(key, type=pa.int64()),
            "role": pa.array(np.zeros(len(key), dtype=np.int8)),
            "value": pa.nulls(len(key), type=value_type),
        }
        for c, t in carry_fields:
            cols[c] = pc.cast(batch[c], t)
        return pa.table(cols)

    def conform_lookup(batch: pa.Table) -> pa.Table:
        key = batch[lookup_key].to_numpy(zero_copy_only=False).astype(np.int64)
        part = _mix_mod(key, n_parts)
        cols = {
            "part": pa.array(part, type=pa.int64()),
            "key": pa.array(key, type=pa.int64()),
            "role": pa.array(np.ones(len(key), dtype=np.int8)),
            "value": pc.cast(batch[value_col], value_type),
        }
        for c, t in carry_fields:
            # integer carries pad with a 0 SENTINEL, not null: an int64
            # column with nulls lands in pandas as float64, and float64
            # cannot represent full-range ids (blake2b int64 doc ids
            # corrupt silently).  Lookup rows are filtered out by role
            # before the carries are read, so the sentinel is never seen.
            if pa.types.is_integer(t):
                cols[c] = pa.array(np.zeros(len(key), dtype=np.int64), type=t)
            else:
                cols[c] = pa.nulls(len(key), type=t)
        return pa.table(cols)

    unioned = pairs.map_batches(
        conform_pairs, batch_format="pyarrow", batch_size=8192
    ).union(lookup.map_batches(conform_lookup, batch_format="pyarrow", batch_size=8192))

    def merge_part(group: pd.DataFrame) -> pd.DataFrame:
        look = group[group["role"] == 1]
        prs = group[group["role"] == 0]
        if prs.empty or (look.empty and how == "inner"):
            out = prs.iloc[0:0].copy()
        elif look.empty:  # left: every pair row keeps a null value
            out = prs.copy()
            out["value"] = None
        else:
            out = prs.merge(
                look[["key", "value"]].rename(columns={"value": "__v"}),
                on="key",
                how=how,
            )
            out["value"] = out["__v"] if "__v" in out.columns else None
        cols = {}
        for c, t in carry_fields:
            # the union null-pads carry columns on lookup rows, which
            # floats pandas int64 carries (NaN-able) — cast back after
            # the lookup rows are gone or ids silently become floats
            cols[c] = (
                pa.array(out[c].astype("int64"), type=t)
                if pa.types.is_integer(t)
                else pa.array(out[c], type=t, from_pandas=True)
            )
        cols[out_col] = pa.array(out["value"], type=value_type, from_pandas=True)
        # return Arrow, not pandas: Ray's pandas→Arrow block conversion
        # attaches a `pandas` schema-metadata blob, which makes
        # hash(schema) raise and defeats block-schema deduplication in
        # every downstream operator (see fetch_engines_ray/arrowclean.py)
        return pa.table(cols)

    return unioned.groupby("part").map_groups(merge_part, batch_format="pandas")


def _as_arrow(batch: pa.Table) -> pa.Table:
    return batch


def filter_by_keys(
    ds: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    key_col: str,
    keep_matches: bool,
    n_parts: int = 64,
    keys_col: "str | None" = None,
    batch_size: int = 1024,
) -> "ray.data.Dataset":
    """Partitioned semi-join (``keep_matches=True``) / anti-join
    (``False``) filter: keep ``ds`` rows whose ``key_col`` value is /
    is not present in ``keys[keys_col]`` — without a Ray hash join
    (whose aggregator dies on schema-less empty partitions whenever the
    key side is sparse) and without a driver broadcast.  The large-key
    side of :func:`keep_by_keys`, which callers use instead.

    Same shape as :func:`_partitioned_attach` but Arrow END TO END, so
    payload columns of any nested type (``spans``/``out_spans``
    ``list<struct>``) ride through untouched: both sides conform to the
    DATA schema plus ``(__part, __role)``, hash-partition on the key
    (string or integer), and each bounded part resolves with one
    vectorized ``pc.is_in``.  A key never straddles parts; parts with
    no key rows resolve trivially."""
    import pyarrow.compute as pc

    keys_col = keys_col or key_col
    data_schema = ds.schema()
    if not isinstance(data_schema.base_schema, pa.Schema):
        # pandas blocks report object dtypes the key rows cannot null-pad
        # with: convert to Arrow blocks and read the Arrow schema
        ds = ds.map_batches(_as_arrow, batch_format="pyarrow", batch_size=None)
        data_schema = ds.schema()
    names = list(data_schema.names)
    types = dict(zip(data_schema.names, data_schema.types))

    def _part_of(col) -> np.ndarray:
        # decide on the ARROW type, not the numpy dtype: one null in an
        # int64 batch degrades to_numpy to float64, which would route
        # the whole batch through the string hash while the other side
        # uses _mix_mod — silently separating matching keys (review
        # finding).  Null keys fill to 0 for ROUTING only; the per-part
        # is_in below treats them as match-nothing.
        import pyarrow.compute as _pc

        ctype = col.type if hasattr(col, "type") else col.chunk(0).type
        if pa.types.is_integer(ctype):
            arr = _pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
            return _mix_mod(arr.astype(np.int64), n_parts)
        arr = col.to_numpy(zero_copy_only=False)
        return (
            pd.util.hash_array(np.asarray(arr, dtype=object))
            % np.uint64(n_parts)
        ).astype(np.int64)

    def conform_data(batch: pa.Table) -> pa.Table:
        cols = {n: batch[n] for n in names}
        cols["__part"] = pa.array(_part_of(batch[key_col]))
        cols["__role"] = pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        return pa.table(cols)

    def conform_keys(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for name in names:
            if name == key_col:
                cols[name] = batch[keys_col].cast(types[name])
            else:
                cols[name] = pa.nulls(n, type=types[name])
        cols["__part"] = pa.array(_part_of(batch[keys_col]))
        cols["__role"] = pa.array(np.ones(n, dtype=np.int8))
        return pa.table(cols)

    def filter_part(group: pa.Table) -> pa.Table:
        role = group["__role"]
        data = group.filter(pc.equal(role, 0)).drop_columns(["__part", "__role"])
        keyset = group.filter(pc.equal(role, 1))[key_col]
        if len(keyset) == 0:
            return data.slice(0, 0) if keep_matches else data
        keyset = pc.drop_null(keyset.combine_chunks())
        m = pc.is_in(data[key_col], value_set=pc.unique(keyset))
        # a NULL data key matches nothing: semi drops it, anti keeps it
        m = pc.fill_null(m, False)
        return data.filter(m if keep_matches else pc.invert(m))

    return (
        ds.map_batches(conform_data, batch_format="pyarrow", batch_size=batch_size)
        .union(
            keys.map_batches(
                conform_keys, batch_format="pyarrow", batch_size=8192
            )
        )
        .groupby("__part")
        .map_groups(filter_part, batch_format="pyarrow")
    )


# Key sides up to this many keys broadcast into every filter task;
# larger ones take the partitioned filter_by_keys path.
BROADCAST_KEY_LIMIT = 2_000_000

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


def n_parts_for(n_rows: int) -> int:
    """Shuffle part count for a table of ``n_rows``: one part per 200k
    rows and at least 2.  No ceiling — a fixed cap turns each part into
    a straggler once the table outgrows it."""
    return max(2, 1 + n_rows // 200_000)


def keep_by_keys(
    ds: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    key_col: str,
    keep: bool,
    keys_col: "str | None" = None,
) -> "ray.data.Dataset":
    """Keep (``keep=True``, semi-filter) or drop (``keep=False``,
    anti-filter) the ``ds`` rows whose ``key_col`` value is in
    ``keys[keys_col]`` — the engine's one key filter.

    The key side executes once, as its narrow key column (a
    materialized Dataset holding just that column is used as it is).
    Its measured row count picks the path: up to
    :data:`BROADCAST_KEY_LIMIT` keys the distinct non-null keys go to
    the object store once, each worker hashes them once into a pandas
    Index, and every ``ds`` batch runs one vectorized lookup whose cost
    does not grow with the key count; above it the materialized key
    column feeds the partitioned :func:`filter_by_keys` (at least 64
    parts), so no corpus-sized key set reaches the driver.  Both paths give the same rows: a null key on either
    side matches nothing, so semi drops null-key rows and anti keeps
    them.  An empty key side, with or without a schema, keeps nothing
    (semi) or everything (anti)."""
    import pyarrow.compute as pc

    from ray.data.dataset import MaterializedDataset

    keys_col = keys_col or key_col
    key_side = keys
    if not (isinstance(keys, MaterializedDataset) and keys.columns() == [keys_col]):
        key_side = keys.select_columns([keys_col]).materialize()
    n_keys = key_side.count()
    if n_keys > BROADCAST_KEY_LIMIT:
        return filter_by_keys(
            ds,
            key_side,
            key_col,
            keep_matches=keep,
            # never fewer parts than the former fixed 64: each part holds
            # its whole share of the DATA side, which only runs here at
            # corpus scale and has not been measured above the limit
            n_parts=max(64, n_parts_for(n_keys)),
            keys_col=keys_col,
        )
    if n_keys == 0 and not keep:
        return ds
    values = [t[keys_col] for t in ray.get(key_side.to_arrow_refs()) if t.num_rows]
    value_set = (
        pc.unique(pc.drop_null(pa.chunked_array(values).combine_chunks()))
        if values
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


def _verify_minhash_pairs(
    cand: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    threshold: float,
) -> pd.DataFrame:
    """Verify candidate pairs against their signatures WITHOUT any
    post-LSH shuffle.

    The verified pair frame is this function's RETURN VALUE and has
    been driver-resident by contract since round 1; the unverified
    candidate list is the same size class (true pairs + spurious band
    collisions), so it lands on the driver first, its key set
    broadcasts via ``ray.put``, and ONE streaming filter pass over the
    signature table brings back only the candidates' signatures
    (0.5 KB x 2 x pairs).  Estimation is one vectorized numpy
    comparison.  This replaced two re-attach hash joins: Ray's join
    aggregator dies on sparse candidate sides (schema-less empty
    partitions — see :func:`_partitioned_attach`), and join/groupby
    aggregator fixed costs made verification SLOWER at higher CPU
    counts at bench scale."""
    import pyarrow.compute as pc

    empty = pd.DataFrame(columns=["doc_a", "doc_b", "est_jaccard"])
    cand_pd = _consume_pairs(lambda: cand.to_pandas(), cand, empty)
    if cand_pd.empty:
        return empty
    cand_pd = cand_pd.drop_duplicates(["doc_a", "doc_b"])
    keys_ref = ray.put(
        pa.array(
            np.union1d(cand_pd["doc_a"].to_numpy(), cand_pd["doc_b"].to_numpy())
        )
    )

    def only_candidates(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        return batch.filter(pc.is_in(batch["doc_id"], value_set=keys.cast(batch["doc_id"].type)))

    sig_pd = sigs.map_batches(
        only_candidates, batch_format="pyarrow", batch_size=4096
    ).to_pandas()
    if sig_pd.empty:
        return empty
    sig_ix = {int(d): i for i, d in enumerate(sig_pd["doc_id"])}
    mat = _decode_sigs(pa.array(sig_pd["minhash_sig"]))
    ia = cand_pd["doc_a"].map(sig_ix)
    ib = cand_pd["doc_b"].map(sig_ix)
    ok = ia.notna() & ib.notna()  # keys absent from sigs (incremental old-old) drop
    cand_pd = cand_pd[ok]
    est = (mat[ia[ok].astype(int).to_numpy()] == mat[ib[ok].astype(int).to_numpy()]).mean(axis=1)
    keep = est >= threshold
    out = pd.DataFrame(
        {
            "doc_a": cand_pd["doc_a"].to_numpy()[keep],
            "doc_b": cand_pd["doc_b"].to_numpy()[keep],
            "est_jaccard": est[keep],
        }
    )
    if out.empty:
        return empty
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def build_minhash_checkpoint(
    ds: "ray.data.Dataset",
    path: str,
    num_perm: int = 64,
    shingle_size: int = 3,
) -> None:
    """Write the corpus's ``(doc_id, minhash_sig)`` table to ``path`` as
    parquet — the persistent signature index for
    :func:`minhash_incremental_pairs`.  On a cluster, point ``path`` at
    shared storage."""
    ds.map_batches(
        minhash_batch,
        fn_kwargs={"num_perm": num_perm, "shingle_size": shingle_size},
        batch_format="pyarrow",
        batch_size=1024,
    ).write_parquet(path)


def minhash_incremental_pairs(
    new_ds: "ray.data.Dataset",
    checkpoint_path: str,
    num_perm: int = 64,
    num_bands: int = 16,
    shingle_size: int = 3,
    threshold: float = 0.7,
    persist_new: bool = True,
) -> pd.DataFrame:
    """Continuous-ingest dedup: near-dup pairs between a NEW document
    batch and the existing corpus, plus within the new batch, WITHOUT
    recomputing the old corpus's signatures.

    This is the 100-TB ingestion shape: the baseline corpus is
    represented only by its signature checkpoint (written by
    :func:`build_minhash_checkpoint` / a prior increment), so each
    increment costs O(new + index-scan) instead of O(corpus).  The LSH
    join is new-side x all-sides — old-old pairs are structurally
    excluded (the left side only carries new docs), new-old and new-new
    pairs surface exactly as in the batch path.  With ``persist_new``
    the new signatures are appended to the checkpoint directory
    (Ray writes uniquely-named files), so the next increment dedups
    against old + new.

    Returns the same ``(doc_a, doc_b, est_jaccard)`` contract as
    :func:`minhash_lsh_pairs`.
    """
    new_sigs_stream = new_ds.map_batches(
        minhash_batch,
        fn_kwargs={"num_perm": num_perm, "shingle_size": shingle_size},
        batch_format="pyarrow",
        batch_size=1024,
    )
    # signatures are consumed by banding, both verify joins, and the
    # optional persist — checkpoint once, stream back per consumer
    new_sigs, tmp = _checkpoint_parquet(new_sigs_stream, "minhash_new")
    try:
        base_sigs = read_parquet_clean(checkpoint_path)
        all_sigs = base_sigs.union(new_sigs)
        band = lambda b: _band_rows(b, num_bands)  # noqa: E731

        # tag band rows new/old and run the SAME partitioned run
        # expansion as the full sweep with ``require_flag`` — all-old
        # runs are skipped before expansion, and only new×all pairs
        # emit.  (The former Ray hash join on the bucket key died with
        # schema-less empty partitions whenever a small increment's few
        # band rows didn't cover every join partition — the NORMAL
        # shape for continuous ingest against a big checkpoint.)
        def tag(flag: int):
            def _t(b: pa.Table) -> pa.Table:
                t = band(b)
                return t.append_column(
                    "is_new", pa.array(np.full(len(t), flag, dtype=np.int8))
                )

            return _t

        tagged = new_sigs.map_batches(
            tag(1), batch_format="pyarrow", batch_size=1024
        ).union(
            base_sigs.map_batches(tag(0), batch_format="pyarrow", batch_size=1024)
        )
        n_parts = n_parts_for(all_sigs.count())
        cand = _lsh_candidate_pairs(
            tagged, n_parts, require_flag="is_new"
        ).map_batches(
            lambda b: b.select(["doc_a", "doc_b"]),
            batch_format="pyarrow",
            batch_size=65536,
        )
        pairs = _verify_minhash_pairs(cand, all_sigs, threshold)
        if persist_new:
            new_sigs.write_parquet(checkpoint_path)
        return pairs
    finally:
        _cleanup_checkpoint(tmp)


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

    The band-explode / run-expansion / popcount-verify machinery is the
    generic 64-bit hamming LSH shared with the media fingerprints
    (``ops.imagehash.hamming64_pairs`` — ONE implementation, so the
    text and media paths cannot drift); this wrapper contributes only
    the simhash signature computation."""
    from fetch_engines_ray.ops.imagehash import hamming64_pairs

    return hamming64_pairs(
        simhash_signatures(ds, hash_fn=hash_fn),
        hash_col="simhash",
        id_col="doc_id",
        max_hamming=max_hamming,
        # partition count scales with the INPUT table (same formula as
        # the minhash path); the generic materializes the signature
        # stage so nothing executes twice
        n_parts=n_parts_for(ds.count()),
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
    verification joins the candidate ids back to the raw TEXTS (hash
    join) and computes the true n-gram Jaccard — the estimator-free
    variant for when candidate volume is small enough to afford exact
    verification.  Returns (doc_a, doc_b, jaccard_x1000) with an
    integer-scaled score (hash-stable).
    """
    sigs, ckpt = _checkpoint_parquet(
        ds.map_batches(
            minhash_batch,
            fn_kwargs={"num_perm": num_perm, "shingle_size": shingle_size},
            batch_format="pyarrow",
            batch_size=1024,
        ),
        "ngram_sigs",
    )
    try:
        return _ngram_pairs_from_sigs(ds, sigs, threshold, shingle_size, num_bands)
    finally:
        _cleanup_checkpoint(ckpt)


def _ngram_pairs_from_sigs(
    ds: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    threshold: float,
    shingle_size: int,
    num_bands: int,
) -> pd.DataFrame:
    banded = sigs.map_batches(
        lambda b: _band_rows(b, num_bands), batch_format="pyarrow", batch_size=1024
    )
    empty = pd.DataFrame(columns=["doc_a", "doc_b", "jaccard_x1000"])
    n_parts = n_parts_for(sigs.count())
    # dedup candidate pairs BEFORE the text joins: a pair colliding in k
    # bands would otherwise shuffle its (large) texts k times
    cand = (
        _lsh_candidate_pairs(banded, n_parts)
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="_nb"))
        .drop_columns(["_nb"])
    )
    texts = ds.map_batches(
        lambda b: b.select(["doc_id", "text"]), batch_format="pyarrow", batch_size=4096
    )
    # partitioned attach, not hash joins: the sparse candidate side
    # leaves join partitions block-less (see _partitioned_attach)
    attach_parts = max(64, n_parts * 8)
    left = _partitioned_attach(
        cand,
        texts,
        key_col="doc_a",
        carry=[("doc_a", pa.int64()), ("doc_b", pa.int64())],
        value_col="text",
        value_type=pa.string(),
        out_col="text",
        n_parts=attach_parts,
    )
    both = _partitioned_attach(
        left,
        texts,
        key_col="doc_b",
        carry=[("doc_a", pa.int64()), ("doc_b", pa.int64()), ("text", pa.string())],
        value_col="text",
        value_type=pa.string(),
        out_col="text_b",
        n_parts=attach_parts,
    )

    def verify(batch: pa.Table) -> pa.Table:
        # integer-exact score: jaccard_x1000 = (1000 * |intersect|) //
        # |union| — floor division on both engine and oracle side, so
        # the value representation can never drift (a float round() had
        # half-boundary parity risk vs SQL)
        rows = []
        for r in batch.select(["doc_a", "doc_b", "text", "text_b"]).to_pylist():
            ga = _ngram_set(r["text"] or "", shingle_size)
            gb = _ngram_set(r["text_b"] or "", shingle_size)
            inter = len(ga & gb)
            union = len(ga | gb) or 1
            if inter >= threshold * union:
                rows.append(
                    {
                        "doc_a": r["doc_a"],
                        "doc_b": r["doc_b"],
                        "jaccard_x1000": (1000 * inter) // union,
                    }
                )
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("doc_a", batch.schema.field("doc_a").type), ("doc_b", batch.schema.field("doc_b").type), ("jaccard_x1000", pa.int64())]
            ),
        )

    pairs = _consume_pairs(
        lambda: both.map_batches(verify, batch_format="pyarrow", batch_size=2048).to_pandas(),
        cand,
        empty,
    )
    if pairs.empty:
        return empty
    return (
        pairs.drop_duplicates(["doc_a", "doc_b"]).sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )


def dedup_clusters(pairs: pd.DataFrame) -> pd.DataFrame:
    """Resolve near-dup PAIRS into clusters via union-find and pick the
    min doc_id as each cluster's representative.

    Pair lists are tiny relative to the corpus (only near-dups), so the
    union-find runs driver-side; at a scale where even the pair list is
    distributed, this becomes iterative label propagation over the same
    (doc_a, doc_b) edge dataset — same output contract.

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


def dedup_clusters_distributed(
    pairs: "ray.data.Dataset", max_iters: int = 50
) -> "ray.data.Dataset":
    """Distributed min-label propagation over a near-dup PAIR edge set —
    the cluster-scale form of :func:`dedup_clusters` (same output
    contract: ``(doc_id, cluster_rep, is_kept)``, min doc_id is the
    representative, so both paths produce identical tables).

    Each iteration is one hash join (symmetrized edges x labels) plus a
    min-groupby; nothing corpus-sized ever reaches the driver — the only
    driver-side value per iteration is the int64 label checksum used for
    the convergence test.  Iteration count is bounded by the cluster
    diameter (near-dup clusters are shallow; ``max_iters`` is a guard).

    The label table (one row per doc appearing in a PAIR — tiny relative
    to the corpus) is ``materialize()``d per iteration: without it the
    lazy plan deepens by one join per iteration and re-executes the
    whole history on every convergence check."""
    import pyarrow.compute as pc

    def symmetrize(b: pa.Table) -> pa.Table:
        fwd = pa.table({"src": b["doc_a"], "dst": b["doc_b"]})
        rev = pa.table({"src": b["doc_b"], "dst": b["doc_a"]})
        return pa.concat_tables([fwd, rev])

    edges = pairs.map_batches(
        symmetrize, batch_format="pyarrow", batch_size=65536
    ).materialize()
    n_edges = edges.count()
    n_parts = n_parts_for(n_edges)
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
    prev_sum = None
    converged = False
    for _ in range(max_iters):
        # neighbor labels: edge (src, dst) joined with label(dst)
        nbr = edges.join(
            labels,
            join_type="inner",
            num_partitions=n_parts,
            on=("dst",),
            right_on=("doc_id",),
        ).map_batches(
            lambda b: pa.table({"doc_id": b["src"], "label": b["label"]}),
            batch_format="pyarrow",
            batch_size=65536,
        )
        labels = (
            labels.union(nbr)
            .groupby("doc_id")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:  # fixed point: min-labels can only decrease
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # silent truncation would emit WRONG cluster_rep/is_kept (a
        # drifting-template chain longer than max_iters keeps docs the
        # exact-closure contract drops) — and this function's output is
        # load-bearing for curate drop-strategy equality and the
        # neardup_cluster_verdicts SQL oracle.  Near-dup clusters are
        # shallow in practice; no caller passes max_iters, so the error
        # names the route that has no iteration budget.
        raise RuntimeError(
            f"label propagation did not converge within max_iters={max_iters} "
            "(cluster diameter exceeds the iteration budget); rerun with "
            'drop_strategy="broadcast", which resolves the clusters on the '
            "driver by union-find with no iteration budget"
        )

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


def minhash_dedup(
    ds: "ray.data.Dataset",
    threshold: float = 0.7,
    **lsh_kwargs,
) -> pd.DataFrame:
    """End-to-end near-dedup: LSH pairs → clusters → per-doc keep/drop
    decision (docs in no cluster are kept).

    Cluster resolution runs driver-side union-find over the (tiny) pair
    list; :func:`dedup_clusters_distributed` is the drop-in for scales
    where even the pair table must stay distributed (pytest pins both
    paths to identical output)."""
    pairs = minhash_lsh_pairs(ds, threshold=threshold, **lsh_kwargs)
    return dedup_clusters(pairs)


_VERDICT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("cluster_rep", pa.int64()), ("is_kept", pa.bool_())]
)


def _verify_minhash_pairs_ds(
    cand: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    threshold: float,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Distributed verification of LSH candidate pairs — Dataset in,
    Dataset out; nothing pair-sized ever touches the driver (contrast
    :func:`_verify_minhash_pairs`, whose pair frame is driver-resident
    by contract).

    Two partitioned attach passes in the :func:`_partitioned_attach`
    shape (union both sides under ONE conformed schema, hash-partition
    the key, one vectorized pandas merge per part — Ray's hash join
    dies on sparse candidate sides): pass 1 keys on ``doc_a`` and
    attaches that side's signature (deduping the k-band copies of each
    pair, which all share ``mix(doc_a)`` and therefore co-locate);
    pass 2 keys on ``doc_b``, attaches the other signature and scores
    ``est = |equal rows| / num_perm`` inline — exactly the driver
    path's estimator, so both paths emit identical pair sets."""
    import pyarrow.compute as pc  # noqa: F401  (kept for parity with siblings)

    def conform_cand(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "part": pa.array(_mix_mod(a, n_parts)),
                "key": pa.array(a),
                "other": pa.array(b),
                "sig": pa.nulls(len(a), type=pa.binary()),
                "sig_o": pa.nulls(len(a), type=pa.binary()),
                "role": pa.array(np.zeros(len(a), dtype=np.int8)),
            }
        )

    def conform_sigs(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "part": pa.array(_mix_mod(d, n_parts)),
                "key": pa.array(d),
                "other": pa.array(np.zeros(len(d), dtype=np.int64)),
                "sig": batch["minhash_sig"].cast(pa.binary()),
                "sig_o": pa.nulls(len(d), type=pa.binary()),
                "role": pa.array(np.ones(len(d), dtype=np.int8)),
            }
        )

    def _typed_stage1_empty() -> pa.Table:
        return pa.table(
            {
                "part": pa.array([], type=pa.int64()),
                "key": pa.array([], type=pa.int64()),
                "other": pa.array([], type=pa.int64()),
                "sig": pa.array([], type=pa.binary()),
                "sig_o": pa.array([], type=pa.binary()),
                "role": pa.array([], type=pa.int8()),
            }
        )

    def merge_attach_a(group: pd.DataFrame) -> pa.Table:
        look = group[group["role"] == 1]
        prs = group[group["role"] == 0]
        if prs.empty or look.empty:
            return _typed_stage1_empty()
        # the k-band copies of a pair all carry the same doc_a, hence
        # the same part — dedup here, where they are co-located
        prs = prs.drop_duplicates(["key", "other"])
        m = prs.merge(
            look[["key", "sig"]].rename(columns={"sig": "__sig_a"}),
            on="key",
            how="inner",
        )
        if m.empty:
            return _typed_stage1_empty()
        # emit already conformed for pass 2: key becomes doc_b
        b = m["other"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "part": pa.array(_mix_mod(b, n_parts)),
                "key": pa.array(b),
                "other": pa.array(m["key"].to_numpy(dtype=np.int64)),
                "sig": pa.nulls(len(m), type=pa.binary()),
                "sig_o": pa.array(m["__sig_a"], type=pa.binary(), from_pandas=True),
                "role": pa.array(np.zeros(len(m), dtype=np.int8)),
            }
        )

    def _typed_pairs_empty() -> pa.Table:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "est_jaccard": pa.array([], type=pa.float64()),
            }
        )

    def merge_score_b(group: pd.DataFrame) -> pa.Table:
        look = group[group["role"] == 1]
        prs = group[group["role"] == 0]
        if prs.empty or look.empty:
            return _typed_pairs_empty()
        m = prs.merge(
            look[["key", "sig"]].rename(columns={"sig": "__sig_b"}),
            on="key",
            how="inner",
        )
        if m.empty:
            return _typed_pairs_empty()
        mat_a = np.stack([np.frombuffer(s, dtype="<i8") for s in m["sig_o"]])
        mat_b = np.stack([np.frombuffer(s, dtype="<i8") for s in m["__sig_b"]])
        est = (mat_a == mat_b).mean(axis=1)
        keep = est >= threshold
        return pa.table(
            {
                "doc_a": pa.array(m["other"].to_numpy(dtype=np.int64)[keep]),
                "doc_b": pa.array(m["key"].to_numpy(dtype=np.int64)[keep]),
                "est_jaccard": pa.array(est[keep], type=pa.float64()),
            }
        )

    stage1 = (
        cand.map_batches(conform_cand, batch_format="pyarrow", batch_size=65536)
        .union(sigs.map_batches(conform_sigs, batch_format="pyarrow", batch_size=8192))
        .groupby("part")
        .map_groups(merge_attach_a, batch_format="pandas")
    )
    return (
        stage1.union(
            sigs.map_batches(conform_sigs, batch_format="pyarrow", batch_size=8192)
        )
        .groupby("part")
        .map_groups(merge_score_b, batch_format="pandas")
    )


def minhash_dedup_ds(
    ds: "ray.data.Dataset",
    threshold: float = 0.7,
    num_perm: int = 64,
    num_bands: int = 16,
    shingle_size: int = 3,
    hash_fn: str = "sip",
) -> "ray.data.Dataset":
    """Cluster-scale end-to-end near-dedup: the DISTRIBUTED form of
    :func:`minhash_dedup` — identical decision contract (``(doc_id,
    cluster_rep, is_kept)``, one row per doc appearing in a verified
    pair, min ``doc_id`` kept per cluster; docs in no pair simply have
    no row) but the candidate pairs, the verification and the cluster
    resolution all stay Datasets end to end.  Nothing pair-, cluster-
    or drop-set-sized ever reaches the driver, so this is the handoff
    for clone-heavy corpora where the duplicate mass outgrows it
    (``curate_corpus(drop_strategy="semi_join")`` routes here).

    Cost shape: one signature pass + checkpoint, the same bounded-part
    bucket groupby as the driver path, two partitioned attach passes
    over the candidate set, one (tiny) verified-pair checkpoint, then
    label propagation's per-iteration join — each wide op moves keys
    and 0.5 KB signatures, never documents."""
    sig_stream = ds.map_batches(
        minhash_batch,
        fn_kwargs={
            "num_perm": num_perm,
            "shingle_size": shingle_size,
            "hash_fn": hash_fn,
        },
        batch_format="pyarrow",
        batch_size=1024,
    )
    sigs, sig_ckpt = _checkpoint_parquet(sig_stream, "minhash_sigs_ds")
    pairs_ckpt = None
    try:
        banded = sigs.map_batches(
            lambda b: _band_rows(b, num_bands), batch_format="pyarrow", batch_size=1024
        )
        n_docs = sigs.count()
        n_parts = n_parts_for(n_docs)
        cand = _lsh_candidate_pairs(banded, n_parts)
        pair_stream = _verify_minhash_pairs_ds(
            cand, sigs, threshold, n_parts=max(16, n_parts * 8)
        )
        # verified pairs are tiny; the checkpoint makes the zero-pair
        # count metadata-only AND lets label propagation's edge
        # materialize stream plain parquet instead of re-running the
        # attach passes
        pairs, pairs_ckpt = _checkpoint_parquet(pair_stream, "minhash_pairs_ds")
        if pairs.count() == 0:
            return ray.data.from_arrow(_VERDICT_SCHEMA.empty_table())
        # materializes its label table internally, consuming both
        # checkpoints — the returned lazy tail only reads those labels
        return dedup_clusters_distributed(pairs)
    finally:
        _cleanup_checkpoint(sig_ckpt)
        if pairs_ckpt is not None:
            _cleanup_checkpoint(pairs_ckpt)


# ---------------------------------------------------------------------------
# Cross-document line-level exact dedup (C4-style)
# ---------------------------------------------------------------------------

def line_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    rebuild_partitions: int = 64,
    sep: str = "\n",
):
    """C4/RefinedWeb-style cross-corpus line dedup: every distinct
    non-empty line survives exactly ONCE corpus-wide (first occurrence
    by ``(doc_id, line_no)``); documents are rebuilt from their
    surviving lines (docs that lose every line drop out).

    ``sep`` sets the dedup granularity: the default ``"\n"`` dedups
    LINES; ``"\n\n"`` dedups PARAGRAPHS (the MassiveWeb/Gopher
    repeated-paragraph rule) — see :func:`paragraph_dedup`.

    Reference analog: the converters' per-document boilerplate removal
    (MarkdownConverter.ts postprocess) is within-doc only — this is the
    corpus-wide variant a training-data pipeline needs (C4's "discard
    duplicated lines across the corpus" step).

    Scale design (two shuffles total, no joins):

    * Explode is a vectorized ``map_batches`` (numpy repeat/cumsum for
      line numbers) with a per-batch combiner — local duplicate lines
      collapse to their min-``(doc_id, line_no)`` witness BEFORE the
      shuffle, so repetitive corpora shuffle far less than corpus size.
    * Winner selection shuffles on ``hash(line) % rebuild_partitions``
      (int64 — the line string is payload, never a sort key: Ray's
      sort-aggregate with a long-string group key measured ~4ms/row)
      and resolves EXACTLY inside each partition with one vectorized
      pandas ``drop_duplicates`` on the full line text — hash
      collisions only co-locate lines, they can never merge distinct
      ones.
    * The first-occurrence winner is the lexicographic min of
      ``(doc_id, line_no)`` carried as TWO int64 columns — NOT packed
      into ``doc_id * 2^32 + line_no``: ids are full-range int64 in the
      ingest path (blake2b-derived, signed), and the packed form wraps
      for any ``|doc_id| >= 2^31``, corrupting rebuilt doc_ids and
      merging unrelated documents that share their low 32 id bits.  The
      oracle mirrors the same rule with a ``row_number()`` window.
    * Document reconstruction is the second shuffle, keyed on
      ``doc_id % rebuild_partitions`` (NOT per-doc groups — Ray
      dispatches map_groups once per group, ~2ms each, so per-doc
      grouping was measured 200x slower than one vectorized pandas
      groupby over the whole hash partition).  Size
      ``rebuild_partitions`` so one partition's surviving lines fit a
      worker's heap (≈ total_lines / 2M on a big corpus); any value is
      correct, it only changes parallelism and peak memory.

    Returns a Dataset of ``(doc_id, text, n_lines)``.
    """

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_col].fillna("")
        parts = texts.str.split(sep, regex=False)
        lens = parts.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        if total == 0:
            return pd.DataFrame(
                {"part": np.array([], dtype=np.int64),
                 "pack": np.array([], dtype=np.int64),
                 "line": np.array([], dtype=object)}
            )
        doc_ids = batch[id_col].to_numpy(dtype=np.int64).repeat(lens)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        line_no = np.arange(total, dtype=np.int64) - starts + 1
        lines = np.empty(total, dtype=object)
        pos = 0
        for p in parts:
            lines[pos : pos + len(p)] = p
            pos += len(p)
        keep = lines != ""
        doc_ids, line_no, lines = doc_ids[keep], line_no[keep], lines[keep]
        df = pd.DataFrame(
            {
                "part": (
                    pd.util.hash_array(lines).view(np.int64) % rebuild_partitions
                ),
                "doc_id": doc_ids,
                "line_no": line_no,
                "line": lines,
            }
        )
        # local combiner: one witness per distinct line before the shuffle
        df = df.sort_values(["doc_id", "line_no"], kind="stable").drop_duplicates(
            "line", keep="first"
        )
        return df

    def unpack_part(batch: pd.DataFrame) -> pd.DataFrame:
        doc = batch["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "part": doc % rebuild_partitions,
                "doc_id": doc,
                "line_no": batch["line_no"],
                "line": batch["line"],
            }
        )

    def rebuild_part(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pandas groupby over the WHOLE hash partition —
        # not a Ray call per document (per-group dispatch measured ~2ms
        # each; pandas agg is ~10us/doc)
        g = g.sort_values(["doc_id", "line_no"], kind="stable")
        grp = g.groupby("doc_id", sort=True)
        text = grp["line"].agg(sep.join)
        return pd.DataFrame(
            {
                "doc_id": text.index.to_numpy(dtype=np.int64),
                "text": text.to_numpy(),
                "n_lines": grp.size().to_numpy(dtype=np.int64),
            }
        )

    def pick_part(g: pd.DataFrame) -> pd.DataFrame:
        # exact winner per DISTINCT LINE, vectorized over the whole hash
        # partition: pandas drop_duplicates hashes/compares the full
        # line text in C, so hash-partitioning is only a routing step —
        # 64-bit partition-key collisions are harmless (the lines just
        # share a partition) and can never merge distinct lines.
        g = g.sort_values(["doc_id", "line_no"], kind="stable").drop_duplicates(
            "line", keep="first"
        )
        return g[["doc_id", "line_no", "line"]]

    # winner = lexicographic-min (doc_id, line_no) per DISTINCT LINE.
    # NOT a Ray aggregate on
    # (hash, line): sort-aggregating with a long-string group key
    # measured ~4ms/row of remote time (22s for a 5k-line corpus);
    # partitioning on the int64 line-hash and resolving exactly inside
    # each partition with one vectorized pandas pass is >30x cheaper
    # and keeps identical semantics.
    winners = (
        ds.map_batches(explode, batch_format="pandas", batch_size=2048)
        .groupby("part")
        .map_groups(pick_part, batch_format="pandas")
    )
    return (
        winners.map_batches(unpack_part, batch_format="pandas", batch_size=65536)
        .groupby("part")
        .map_groups(rebuild_part, batch_format="pandas")
    )


def paragraph_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    rebuild_partitions: int = 64,
):
    """Cross-corpus exact PARAGRAPH dedup (the MassiveWeb/Gopher
    repeated-paragraph rule, Rae et al. 2021): every distinct non-empty
    blank-line-separated paragraph survives exactly once corpus-wide,
    first occurrence by ``(doc_id, paragraph_no)``.  Same two-shuffle
    machinery as :func:`line_dedup` with ``sep="\\n\\n"`` — paragraphs
    keep their internal single newlines intact."""
    return line_dedup(
        ds,
        text_col=text_col,
        id_col=id_col,
        rebuild_partitions=rebuild_partitions,
        sep="\n\n",
    )
