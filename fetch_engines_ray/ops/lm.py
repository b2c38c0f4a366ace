"""CCNet-style n-gram language-model perplexity filtering.

Public-knowledge basis: Wenzek et al., "CCNet: Extracting High Quality
Monolingual Datasets from Web Crawl Data" (LREC 2020) scores every
document with a language-model perplexity and buckets the corpus into
head / middle / tail quality tiers; the reference engine has no LM
surface (it is a per-URL extractor), so this family is part of the
training-data tier the north rule adds on top (SURVEY.md §2.8).

Design (Ray-Data-first, 100-TB shape):

- **Training** is one distributed word-count shuffle
  (:func:`fetch_engines_ray.ops.textstats.word_counts` pre-aggregates
  per batch before the groupby) followed by a driver-side finalize over
  the *vocabulary* — bounded by ``max_vocab`` (top-K by count), never by
  corpus size.  Dropped tail words collapse into a single OOV type so
  probabilities still sum to 1.
- **Scoring** broadcasts the finalized table once (``ray.put``) and runs
  a vectorized ``np.searchsorted`` lookup per batch — no joins, no
  shuffle; per-doc sums via ``np.add.reduceat``.
- **Exact-integer contract**: per-word log-probabilities are quantized
  ONCE at train time to int64 micro-nats (``floor(ln(p) * 1e6)``, via
  libm ``math.log`` which is bit-identical to DuckDB's ``ln`` — verified
  empirically over 25k values).  Per-doc scores are int64 sums of those
  constants, so they are block-order independent and value-hash
  comparable against a DuckDB oracle (the float-sum pitfalls documented
  in BASELINE.md cannot occur).

Smoothing: add-alpha over ``V + 1`` types (vocab + OOV):
``p(w) = (n_w + alpha) / (total + alpha * (V + 1))``.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray

OOV = "\x00oov"  # NUL-prefixed: cannot collide with a whitespace-split token

# Default head/middle/tail cut points on the per-token mean negative
# log-probability in micro-nats (CCNet buckets by perplexity tertile;
# cut points here are fixed constants so the op is a pure per-row
# function — compute corpus-specific ones with `mean_neg_quantiles`).
DEFAULT_BUCKETS = (3_350_000, 3_450_000)


class EmptyCorpusError(ValueError):
    """A language model was asked to train on a corpus with no token."""


def _tokenize(text: Optional[str]) -> list[str]:
    # Reserved namespace: whitespace-split tokens beginning with NUL
    # (backslash-x00) are EXCLUDED from every statistic (binary garbage,
    # not language), which makes the NUL-prefixed sentinel rows
    # collision-proof by construction -- a real NUL-prefixed token once
    # corrupted the aggregate totals silently.
    return [w for w in (text or "").lower().split() if not w.startswith("\x00")]


def train_unigram_lm(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    alpha: float = 0.5,
    max_vocab: Optional[int] = None,
) -> pa.Table:
    """Distributed word counts -> finalized unigram LM table.

    Returns an Arrow table ``(word, n, logp_micro)`` sorted by word, one
    extra OOV row (``word=OOV``) carrying the aggregate tail mass.

    With ``max_vocab`` set the driver NEVER sees the full distinct
    vocabulary: each post-groupby batch keeps only its local top-N by
    ``(n desc, word asc)`` and collapses everything it drops into one
    sentinel row carrying the dropped mass (the same bounded-candidate
    shape as :func:`fetch_engines_ray.ops.bpe.bpe_train`).  After the
    groupby every word lives in exactly one batch, so the union of
    local top-Ns is a superset of the global top-N — the kept vocab is
    identical to a full-table cut, and the OOV mass is exact
    (per-batch dropped mass + globally-cut candidate mass).  Driver
    memory is O(max_vocab × num_batches), not O(distinct words).

    With ``max_vocab=None`` the full vocab table IS the return value,
    so the driver pull equals the contract — use ``max_vocab`` on
    open-vocabulary web corpora.
    """
    from fetch_engines_ray.ops.textstats import word_counts

    wc = word_counts(ds, text_col=text_col)
    if max_vocab is not None:
        def local_top(batch: pa.Table) -> pa.Table:
            n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
            w = np.asarray(batch["word"].to_pylist(), dtype=object)
            order = np.lexsort((w, -n))
            keep, drop = order[:max_vocab], order[max_vocab:]
            tail = np.zeros(len(keep) + 1, dtype=np.int64)
            tail[-1] = int(n[drop].sum())
            return pa.table(
                {
                    "word": pa.array(w[keep].tolist() + [None], type=pa.string()),
                    "n": pa.array(np.concatenate([n[keep], [0]]), type=pa.int64()),
                    "tail_n": pa.array(tail, type=pa.int64()),
                }
            )

        cand = wc.map_batches(
            local_top, batch_format="pyarrow", batch_size=max(2 * max_vocab, 8192)
        ).to_pandas()
        if "tail_n" not in cand.columns:  # empty corpus → column-less frame
            raise EmptyCorpusError("cannot train a unigram LM on an empty corpus")
        tail_total = int(cand["tail_n"].sum())
        counts = (
            cand[cand["word"].notna()][["word", "n"]]
            .sort_values(["n", "word"], ascending=[False, True])
            .reset_index(drop=True)
        )
        kept = counts.iloc[:max_vocab]
        oov_n = tail_total + int(counts.iloc[max_vocab:]["n"].sum())
        total = oov_n + int(kept["n"].sum())
    else:
        counts = wc.to_pandas()
        if "n" not in counts.columns:  # empty corpus → column-less frame
            raise EmptyCorpusError("cannot train a unigram LM on an empty corpus")
        counts = counts.sort_values(["n", "word"], ascending=[False, True]).reset_index(drop=True)
        kept = counts
        oov_n = 0
        total = int(counts["n"].sum())
    v = len(kept)
    denom = total + alpha * (v + 1)
    words = kept["word"].tolist() + [OOV]
    ns = kept["n"].astype("int64").tolist() + [oov_n]
    lp = [int(math.floor(math.log((n + alpha) / denom) * 1_000_000)) for n in ns]
    out = pa.table(
        {
            "word": pa.array(words, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
            "logp_micro": pa.array(lp, type=pa.int64()),
        }
    )
    # scoring does a searchsorted lookup -> keep the table word-sorted
    return out.sort_by("word")


def score_perplexity(
    ds: "ray.data.Dataset",
    lm: pa.Table,
    text_col: str = "text",
    buckets: Sequence[int] = DEFAULT_BUCKETS,
) -> "ray.data.Dataset":
    """Score every document against a finalized unigram LM.

    Adds ``lm_token_count`` (int64), ``lm_logprob_micro`` (int64, exact
    sum of per-word micro-nat constants) and ``ppl_bucket``
    (head/middle/tail on the per-token mean negative log-probability,
    DuckDB-mirrorable integer arithmetic: ``(-s) // tc``).

    The LM table is broadcast once via ``ray.put``; each batch does one
    vectorized ``searchsorted`` over the sorted vocab — no shuffle.
    """
    import ray

    lo, hi = int(buckets[0]), int(buckets[1])
    lm_ref = ray.put(
        (
            np.asarray(lm["word"].to_pylist(), dtype=object),
            lm["logp_micro"].to_numpy(zero_copy_only=False).astype(np.int64),
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        words, lps = ray.get(lm_ref)
        oov_lp = lps[np.searchsorted(words, OOV)]
        toks: list[str] = []
        offs = np.empty(batch.num_rows + 1, dtype=np.int64)
        offs[0] = 0
        for i, t in enumerate(batch[text_col].to_pylist()):
            toks.extend(_tokenize(t))
            offs[i + 1] = len(toks)
        tc = np.diff(offs)
        if toks:
            arr = np.asarray(toks, dtype=object)
            pos = np.searchsorted(words, arr)
            pos = np.clip(pos, 0, len(words) - 1)
            hit = words[pos] == arr
            tok_lp = np.where(hit, lps[pos], oov_lp)
            # reduceat needs indices < len; empty docs fixed below
            sums = np.add.reduceat(
                np.concatenate([tok_lp, [0]]), np.minimum(offs[:-1], len(tok_lp))
            )
            sums[tc == 0] = 0
        else:
            sums = np.zeros(batch.num_rows, dtype=np.int64)
        mean_neg = np.where(tc > 0, (-sums) // np.maximum(tc, 1), 0)
        bucket = np.where(
            tc == 0, "empty", np.where(mean_neg < lo, "head", np.where(mean_neg < hi, "middle", "tail"))
        )
        return batch.append_column(
            "lm_token_count", pa.array(tc, type=pa.int64())
        ).append_column(
            "lm_logprob_micro", pa.array(sums, type=pa.int64())
        ).append_column("ppl_bucket", pa.array(bucket.tolist(), type=pa.string()))

    return ds.map_batches(score, batch_format="pyarrow", batch_size=2048)


def perplexity_reference(
    texts: Sequence[Optional[str]],
    alpha: float = 0.5,
    max_vocab: Optional[int] = None,
) -> list[tuple[int, int]]:
    """Single-process reference of train+score over a text list (pytest
    parity pin): returns ``(token_count, logprob_micro)`` per text."""
    from collections import Counter

    c: Counter = Counter()
    for t in texts:
        c.update(_tokenize(t))
    items = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_vocab is not None and len(items) > max_vocab:
        kept, dropped = items[:max_vocab], items[max_vocab:]
        oov_n = sum(n for _, n in dropped)
    else:
        kept, oov_n = items, 0
    total = sum(c.values())
    denom = total + alpha * (len(kept) + 1)
    lp = {w: int(math.floor(math.log((n + alpha) / denom) * 1_000_000)) for w, n in kept}
    oov_lp = int(math.floor(math.log((oov_n + alpha) / denom) * 1_000_000))
    out = []
    for t in texts:
        toks = _tokenize(t)
        out.append((len(toks), sum(lp.get(w, oov_lp) for w in toks)))
    return out


def mean_neg_quantiles(
    scored: "ray.data.Dataset",
    qs: Sequence[float] = (1 / 3, 2 / 3),
    tc_col: str = "lm_token_count",
    s_col: str = "lm_logprob_micro",
) -> list[int]:
    """Corpus-specific bucket cut points: EXACT quantiles of the
    per-token mean negative log-probability via iterative histogram
    narrowing (:func:`fetch_engines_ray.ops.sketches.exact_int_quantiles`
    — streaming aggregate passes with O(bins) driver state; the
    previous form sorted the column and streamed it through the driver
    up to the last rank, ~95 % of all rows for a 0.95 tail cut)."""
    from fetch_engines_ray.ops.sketches import exact_int_quantiles

    def mean_neg(batch: pa.Table) -> pa.Table:
        tc = batch[tc_col].to_numpy(zero_copy_only=False)
        s = batch[s_col].to_numpy(zero_copy_only=False)
        return pa.table({"mean_neg": pa.array(np.where(tc > 0, (-s) // np.maximum(tc, 1), 0))})

    vals = scored.map_batches(mean_neg, batch_format="pyarrow")
    n = vals.count()
    ranks = sorted(min(n - 1, int(q * n)) for q in qs)
    return exact_int_quantiles(vals, "mean_neg", ranks)
