"""Stupid-Backoff n-gram language model over a document corpus.

Public-knowledge basis: Brants et al., "Large Language Models in
Machine Translation" (EMNLP 2007) — the canonical *distributed*
web-scale LM: raw n-gram counts sharded with MapReduce and an
inexpensive smoothing scheme ("Stupid Backoff") whose scores need no
normalization pass, chosen precisely because it keeps training to pure
counting at trillion-token scale.  The reference engine has no LM
surface (it is a per-URL extractor, `/root/reference/src/FetchEngine.ts`),
so this family belongs to the training-data tier the north rule adds
(SURVEY.md §2.8) — it upgrades the CCNet-style unigram perplexity gate
(:mod:`fetch_engines_ray.ops.lm`) with context-aware scoring.

Scoring rule (Brants et al. §3, α = ``lam`` = 0.4)::

    S(w | ctx_k) = count(ctx_k w) / count(ctx_k)   if both counts > 0
                 = lam * S(w | ctx_{k-1})          otherwise
    S(w)         = (count(w) + alpha) / (N + alpha * (V + 1))

The base case is the same add-alpha unigram as
:func:`fetch_engines_ray.ops.lm.train_unigram_lm` so out-of-vocabulary
tokens get a proper floor (Brants et al. leave OOV handling to the
consumer).  Tokens near a document start use the longest context that
exists — no backoff penalty is charged for context that never existed.

Design (Ray-Data-first, 100-TB shape):

- **Training is one counting shuffle.**  Each batch pre-aggregates its
  own n-grams (pandas shifted-concat keys, one ``np.unique`` per order)
  before a single ``groupby(ngram).sum`` — one row per distinct n-gram
  per batch crosses the exchange, never one per token.  ``min_count``
  (Brants et al.'s count cutoff) prunes the tail *inside the shuffle
  output*; ``max_ngrams`` bounds the driver pull per order with the
  provable local-top-N superset trick from
  :func:`fetch_engines_ray.ops.lm.train_unigram_lm`.
- **Scoring broadcasts the model once** (``ray.put``) and is one
  vectorized pass per batch: shifted-concat context keys,
  ``np.searchsorted`` lookups per order, a backoff cascade computed as
  whole-array ``np.where`` selects — no joins, no shuffle.
- Per-token log-scores are quantized to int64 micro-nats
  (``floor(ln(S) * 1e6)``) so per-doc sums are block-order independent.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from fetch_engines_ray.ops.lm import EmptyCorpusError

if TYPE_CHECKING:  # pragma: no cover
    import ray

TOTAL_SENTINEL = "\x00total"  # NUL-prefixed: cannot collide with a token
BACKOFF_LAM = 0.4  # Brants et al. 2007 §3: "we use alpha = 0.4"


def _flat_tokens(texts: Sequence[Optional[str]]) -> tuple[np.ndarray, np.ndarray]:
    """All docs' tokens as one flat object array + int64 doc offsets."""
    toks: list[str] = []
    offs = np.empty(len(texts) + 1, dtype=np.int64)
    offs[0] = 0
    for i, t in enumerate(texts):
        # reserved-NUL exclusion (see lm._tokenize): NUL-prefixed
        # tokens are binary garbage and would collide with the
        # TOTAL_SENTINEL row, corrupting the corpus total N
        toks.extend(
            w for w in (t or "").lower().split() if not w.startswith("\x00")
        )
        offs[i + 1] = len(toks)
    return np.asarray(toks, dtype=object), offs


def _ngram_keys(toks: np.ndarray, offs: np.ndarray, order: int) -> list[np.ndarray]:
    """Per-order arrays of n-gram key strings aligned to token position.

    ``keys[k-1][i]`` is the space-joined k-gram ENDING at token ``i``
    (empty string where the k-gram would cross a document boundary).
    Vectorized: one pandas shifted string-concat per order level.
    """
    n = len(toks)
    docid = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    s = pd.Series(toks, dtype=object)
    out: list[np.ndarray] = [toks]
    prev = s
    for k in range(2, order + 1):
        # key ending at i covers tokens i-k+1..i -> build as prefix(i-1) + " " + tok(i)
        prev = prev.shift(1).str.cat(s, sep=" ")
        valid = np.zeros(n, dtype=bool)
        if n >= k:
            valid[k - 1:] = docid[k - 1:] == docid[: n - k + 1]
        arr = prev.to_numpy(dtype=object, copy=True)
        arr[~valid] = ""
        out.append(arr)
    return out


def train_backoff_lm(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    order: int = 3,
    min_count: int | Sequence[int] = 1,
    max_ngrams: Optional[int] = None,
    alpha: float = 0.5,
) -> pa.Table:
    """Distributed n-gram counts -> finalized Stupid-Backoff model table.

    Returns an Arrow table ``(ngram, k, n)`` sorted by ``ngram`` — the
    order ``k`` is the n-gram's token count, and one sentinel row
    (``ngram="\\x00total", k=0``) carries the corpus token total ``N``.
    ``alpha`` rides along in the table's last sentinel-adjacent use at
    score time (pass the same value to :func:`score_backoff`).

    ``min_count`` — int (the same threshold for EVERY order, unigrams
    included) or one threshold per order — is Brants et al.'s count
    cutoff, applied to the rolled-up counts dataset BEFORE anything
    reaches the driver.  Note cutting unigrams shrinks V and therefore
    the add-alpha OOV floor; pass ``[1, c, c, ...]`` to keep the
    unigram vocab untouched.  ``max_ngrams`` bounds the driver pull per
    order: after the groupby every n-gram lives in exactly one block,
    so keeping each block's local top-N by ``(n desc, ngram asc)`` and
    cutting the union to N again is provably identical to a full-table
    cut (same superset argument as ``train_unigram_lm``).  Dropped
    n-grams (any order) keep NO tail mass — they score exactly like
    unseen n-grams (the add-alpha/backoff floor), while the corpus
    total ``N`` stays exact via the sentinel.
    """
    from ray.data.aggregate import Sum

    if order < 1:
        raise ValueError("order must be >= 1")
    cuts = (
        [int(min_count)] * order
        if isinstance(min_count, int)
        else [int(c) for c in min_count]
    )
    if len(cuts) != order:
        raise ValueError(f"min_count needs {order} thresholds, got {len(cuts)}")

    def partial_counts(batch: pa.Table) -> pa.Table:
        toks, offs = _flat_tokens(batch[text_col].to_pylist())
        if len(toks) == 0:
            return pa.table(
                {"ngram": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64())}
            )
        keys = _ngram_keys(toks, offs, order)
        grams: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for arr in keys:
            vals = arr[arr != ""] if arr is not toks else arr
            if len(vals) == 0:
                continue
            u, c = np.unique(vals, return_counts=True)
            grams.append(u)
            counts.append(c.astype(np.int64))
        # one sentinel row per batch carrying the batch token total
        grams.append(np.asarray([TOTAL_SENTINEL], dtype=object))
        counts.append(np.asarray([len(toks)], dtype=np.int64))
        return pa.table(
            {"ngram": pa.array(np.concatenate(grams).tolist(), type=pa.string()),
             "n": pa.array(np.concatenate(counts), type=pa.int64())}
        )

    rolled = (
        ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=4096)
        .groupby("ngram")
        .aggregate(Sum("n", alias_name="n"))
    )

    def add_order(batch: pa.Table) -> pa.Table:
        g = batch["ngram"].to_pandas()
        k = (g.str.count(" ") + 1).astype("int64")
        k[g == TOTAL_SENTINEL] = 0
        return batch.append_column("k", pa.array(k.to_numpy(), type=pa.int64()))

    rolled = rolled.map_batches(add_order, batch_format="pyarrow")
    cut_at = np.asarray([0] + [max(1, c) for c in cuts], dtype=np.int64)

    def apply_cuts(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(n >= cut_at[k]))

    rolled = rolled.map_batches(apply_cuts, batch_format="pyarrow")

    if max_ngrams is not None:
        def local_top(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            keep = [df[df["k"] == 0]]
            for k in range(1, order + 1):
                part = df[df["k"] == k].sort_values(
                    ["n", "ngram"], ascending=[False, True]
                )
                keep.append(part.iloc[:max_ngrams])
            return pa.Table.from_pandas(pd.concat(keep), preserve_index=False)

        df = rolled.map_batches(
            local_top, batch_format="pyarrow", batch_size=max(2 * max_ngrams, 8192)
        ).to_pandas()
        if "k" in df.columns:  # an empty corpus gives a column-less frame
            parts = [df[df["k"] == 0]]
            for k in range(1, order + 1):
                part = df[df["k"] == k].sort_values(["n", "ngram"], ascending=[False, True])
                parts.append(part.iloc[:max_ngrams])
            # Base probabilities use N (exact via the sentinel) and kept-V
            # only, so dropped-tail mass needs no extra bookkeeping — unseen
            # and dropped tokens both get the add-alpha floor.
            df = pd.concat(parts, ignore_index=True)
    else:
        df = rolled.to_pandas()
    if df.empty or "ngram" not in df.columns:
        raise EmptyCorpusError("cannot train a backoff LM on an empty corpus")
    df = df.sort_values("ngram").reset_index(drop=True)
    return pa.table(
        {
            "ngram": pa.array(df["ngram"].tolist(), type=pa.string()),
            "k": pa.array(df["k"].astype("int64").to_numpy(), type=pa.int64()),
            "n": pa.array(df["n"].astype("int64").to_numpy(), type=pa.int64()),
        }
    )


def _split_model(lm: pa.Table, order: int, alpha: float):
    """Broadcast payload: per-order sorted key/count arrays + (N, V)."""
    g = np.asarray(lm["ngram"].to_pylist(), dtype=object)
    k = lm["k"].to_numpy(zero_copy_only=False)
    n = lm["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(n[k == 0].sum())
    per_order = []
    for kk in range(1, order + 1):
        m = k == kk
        per_order.append((g[m], n[m]))  # already ngram-sorted
    v = len(per_order[0][0])
    return per_order, total, v, float(alpha)


def _lookup(keys: np.ndarray, counts: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Vectorized exact-match count lookup (0 where absent)."""
    if len(keys) == 0 or len(probe) == 0:
        return np.zeros(len(probe), dtype=np.int64)
    pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
    hit = keys[pos] == probe
    return np.where(hit, counts[pos], 0).astype(np.int64)


def _score_tokens(
    toks: np.ndarray,
    offs: np.ndarray,
    per_order,
    total: int,
    v: int,
    alpha: float,
    lam: float,
) -> np.ndarray:
    """Per-token Stupid-Backoff log-score (float64 nats), fully vectorized."""
    order = len(per_order)
    n = len(toks)
    keys = _ngram_keys(toks, offs, order)
    uni = _lookup(per_order[0][0], per_order[0][1], toks)
    denom = total + alpha * (v + 1)
    score = np.log((uni + alpha) / denom)
    log_lam = math.log(lam)
    pos_in_doc = np.arange(n) - np.repeat(offs[:-1], np.diff(offs))
    prev_num = uni  # count of the (k-1)-gram ending at each position
    for k in range(2, order + 1):
        key_k = keys[k - 1]
        num = _lookup(per_order[k - 1][0], per_order[k - 1][1], key_k)
        # context count = (k-1)-gram ending at the PREVIOUS token
        den = np.concatenate([[0], prev_num[:-1]])
        applicable = pos_in_doc >= (k - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(np.maximum(num, 1) / np.maximum(den, 1))
        hit = applicable & (num > 0) & (den > 0)
        score = np.where(
            hit, ratio, np.where(applicable, log_lam + score, score)
        )
        prev_num = num
    return score


def score_backoff(
    ds: "ray.data.Dataset",
    lm: pa.Table,
    text_col: str = "text",
    order: Optional[int] = None,
    alpha: float = 0.5,
    lam: float = BACKOFF_LAM,
) -> "ray.data.Dataset":
    """Score every document with the Stupid-Backoff model.

    Adds ``sb_token_count`` (int64), ``sb_logscore_micro`` (int64 sum of
    per-token ``floor(ln(S) * 1e6)``) and ``sb_mean_neg`` (int64,
    ``(-sum) // tokens`` — the comparable quality signal; lower = more
    natural text).  The model table is broadcast once via ``ray.put``;
    each batch is one vectorized cascade — no shuffle.
    """
    import ray

    if order is None:  # infer from the table so the two can't disagree
        order = int(pa.compute.max(lm["k"]).as_py())
    lm_ref = ray.put(_split_model(lm, order, alpha))

    def score(batch: pa.Table) -> pa.Table:
        per_order, total, v, a = ray.get(lm_ref)
        toks, offs = _flat_tokens(batch[text_col].to_pylist())
        tc = np.diff(offs)
        if len(toks):
            micro = np.floor(
                _score_tokens(toks, offs, per_order, total, v, a, lam) * 1_000_000
            ).astype(np.int64)
            sums = np.add.reduceat(
                np.concatenate([micro, [0]]), np.minimum(offs[:-1], len(micro))
            )
            sums[tc == 0] = 0
        else:
            sums = np.zeros(batch.num_rows, dtype=np.int64)
        mean_neg = np.where(tc > 0, (-sums) // np.maximum(tc, 1), 0)
        return (
            batch.append_column("sb_token_count", pa.array(tc, type=pa.int64()))
            .append_column("sb_logscore_micro", pa.array(sums, type=pa.int64()))
            .append_column("sb_mean_neg", pa.array(mean_neg, type=pa.int64()))
        )

    return ds.map_batches(score, batch_format="pyarrow", batch_size=2048)


def backoff_reference(
    texts: Sequence[Optional[str]],
    order: int = 3,
    min_count: int | Sequence[int] = 1,
    max_ngrams: Optional[int] = None,
    alpha: float = 0.5,
    lam: float = BACKOFF_LAM,
) -> list[tuple[int, int]]:
    """Single-process reference of train+score (pytest parity pin):
    returns ``(token_count, logscore_micro)`` per text.  Fully
    independent of the distributed kernels: Counter-based training and
    a per-token Python recursion with ``math.log`` — the parity pytest
    allows ±1 micro-nat per token for the libm-vs-numpy ULP gap.
    """
    from collections import Counter

    cuts = (
        [int(min_count)] * order
        if isinstance(min_count, int)
        else [int(c) for c in min_count]
    )
    counters: list[Counter] = [Counter() for _ in range(order)]
    total = 0
    docs = [
        [w for w in (t or "").lower().split() if not w.startswith("\x00")]
        for t in texts
    ]  # same reserved-NUL exclusion as _flat_tokens
    for ws in docs:
        total += len(ws)
        for k in range(1, order + 1):
            for i in range(len(ws) - k + 1):
                counters[k - 1][" ".join(ws[i : i + k])] += 1
    tables: list[dict] = []
    for k in range(1, order + 1):
        items = [(g, c) for g, c in counters[k - 1].items() if c >= max(1, cuts[k - 1])]
        if max_ngrams is not None:
            items.sort(key=lambda gc: (-gc[1], gc[0]))
            items = items[:max_ngrams]
        tables.append(dict(items))
    v = len(tables[0])
    denom = total + alpha * (v + 1)
    out = []
    for ws in docs:
        doc_sum = 0
        for i in range(len(ws)):
            s = math.log((tables[0].get(ws[i], 0) + alpha) / denom)
            for k in range(2, order + 1):
                if i - (k - 1) < 0:
                    break  # context never existed; higher orders neither
                num = tables[k - 1].get(" ".join(ws[i - k + 1 : i + 1]), 0)
                den = tables[k - 2].get(" ".join(ws[i - k + 1 : i]), 0)
                if num > 0 and den > 0:
                    s = math.log(num / den)
                else:
                    s = math.log(lam) + s
            doc_sum += math.floor(s * 1_000_000)
        out.append((len(ws), doc_sum))
    return out
