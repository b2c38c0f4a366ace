"""SentencePiece-style unigram-LM tokenizer (Kudo 2018, "Subword
Regularization") — the second learned-tokenizer family next to BPE
(``ops/bpe.py``), trained and applied with the same distributed shape:

- the corpus-sized work is ONE distributed word-count
  (``ops/textstats.word_counts``, per-batch pre-aggregation before the
  shuffle) followed by the bounded per-block top-N pull ``bpe_train``
  uses — the driver never sees the open vocabulary;
- seed-vocab extraction, EM over the segmentation lattices and vocab
  pruning run driver-side over that BOUNDED (word, count) table
  (exactly where HF/SentencePiece trainers do this work);
- encoding is a streaming ``map_batches`` Viterbi pass with the piece
  log-probability table broadcast once (``ray.put``) and a per-task
  word→pieces cache.

Algorithm notes (vs Kudo §3.2): the E-step computes exact expected
piece counts by forward–backward over each word's segmentation
lattice (weighted by corpus word count); the M-step renormalizes.
Pruning drops the lowest-expected-count multi-character pieces a
fraction at a time between EM rounds (single characters are always
kept, so every string stays encodable); Kudo's exact leave-one-out
likelihood loss is approximated by the expected-count ranking, the
common reimplementation shortcut.  Unknown characters at encode time
segment as single-char pieces at a floor log-probability, so
``"".join(pieces) == word`` is lossless by construction.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pyarrow as pa

import ray
import ray.data

# floor log-prob for characters never seen in training (keeps Viterbi
# total finite and unknown chars isolated as their own pieces)
UNK_LOGP = -100.0


# ---------------------------------------------------------------------------
# driver-side learning over the bounded (word, count) table


def _seed_pieces(
    vocab: list[tuple[str, int]], max_seed: int, max_piece_len: int
) -> dict[str, float]:
    """Initial piece table: every substring of length ≤ ``max_piece_len``
    weighted by word count, kept top-``max_seed`` by weight — plus ALL
    single characters (coverage guarantee).  Log-probs initialize to the
    normalized log weights."""
    counts: dict[str, float] = {}
    for w, c in vocab:
        n = len(w)
        for i in range(n):
            for j in range(i + 1, min(n, i + max_piece_len) + 1):
                s = w[i:j]
                counts[s] = counts.get(s, 0.0) + c
    chars = {s for s in counts if len(s) == 1}
    multi = sorted(
        ((s, c) for s, c in counts.items() if len(s) > 1),
        key=lambda sc: (-sc[1], sc[0]),
    )[: max(0, max_seed - len(chars))]
    kept = {s: counts[s] for s in chars}
    kept.update(dict(multi))
    total = math.log(sum(kept.values()))
    return {s: math.log(c) - total for s, c in kept.items()}


def _word_lattice_pass(
    word: str, cnt: int, logp: dict, max_len: int, exp_counts: dict
) -> float:
    """Forward–backward over one word's segmentation lattice: adds
    ``cnt``-weighted expected piece counts into ``exp_counts`` and
    returns the word's log-likelihood contribution (``cnt * logZ``)."""
    n = len(word)
    neg = float("-inf")
    fwd = [neg] * (n + 1)
    fwd[0] = 0.0
    edges: list[tuple[int, int, str, float]] = []
    for i in range(1, n + 1):
        acc = neg
        for j in range(max(0, i - max_len), i):
            if fwd[j] == neg:
                continue
            p = word[j:i]
            lp = logp.get(p)
            if lp is None:
                if i - j != 1:
                    continue
                lp = UNK_LOGP
            edges.append((j, i, p, lp))
            acc = np.logaddexp(acc, fwd[j] + lp)
        fwd[i] = acc
    total = fwd[n]
    if total == neg:  # unreachable: single chars always present
        return 0.0
    bwd = [neg] * (n + 1)
    bwd[n] = 0.0
    for j in range(n - 1, -1, -1):
        acc = neg
        for i in range(j + 1, min(n, j + max_len) + 1):
            if bwd[i] == neg:
                continue
            p = word[j:i]
            lp = logp.get(p)
            if lp is None:
                if i - j != 1:
                    continue
                lp = UNK_LOGP
            acc = np.logaddexp(acc, lp + bwd[i])
        bwd[j] = acc
    for j, i, p, lp in edges:
        post = math.exp(fwd[j] + lp + bwd[i] - total)
        if post > 0.0:
            exp_counts[p] = exp_counts.get(p, 0.0) + cnt * post
    return cnt * total


def _em_step(
    vocab: list[tuple[str, int]], logp: dict, max_len: int
) -> tuple[dict, float]:
    """One EM iteration: returns (re-estimated log-prob table, corpus
    log-likelihood under the INPUT table).  Pieces whose expected count
    vanishes keep a floor probability if single-char, else drop."""
    exp_counts: dict[str, float] = {}
    ll = 0.0
    for w, c in vocab:
        ll += _word_lattice_pass(w, c, logp, max_len, exp_counts)
    total = sum(exp_counts.values())
    lt = math.log(total)
    new: dict[str, float] = {}
    for p in logp:
        c = exp_counts.get(p, 0.0)
        if c > 0.0:
            new[p] = math.log(c) - lt
        elif len(p) == 1:
            new[p] = UNK_LOGP  # coverage floor
    return new, ll


def _prune(logp: dict, exp_counts_rank: dict, target: int) -> dict:
    """Drop the lowest-ranked multi-char pieces down to ``target``
    entries (single chars always survive)."""
    chars = [p for p in logp if len(p) == 1]
    multi = sorted(
        (p for p in logp if len(p) > 1),
        key=lambda p: (-exp_counts_rank.get(p, 0.0), p),
    )
    keep = multi[: max(0, target - len(chars))]
    return {p: logp[p] for p in [*chars, *keep]}


def train_unigram_tokenizer_from_vocab(
    vocab: list[tuple[str, int]],
    vocab_size: int = 512,
    max_piece_len: int = 8,
    em_iters: int = 2,
    prune_frac: float = 0.25,
    seed_mult: int = 4,
) -> dict[str, float]:
    """Pure driver-side trainer over a (word, count) table — the
    single-process reference the distributed form is pinned against.

    ``vocab_size`` must exceed the distinct single-character count:
    single chars are unprunable (the coverage floor), so a smaller
    target is unreachable — SentencePiece raises the same way
    ("Vocabulary size is smaller than required_chars")."""
    n_chars = len({ch for w, _ in vocab for ch in w})
    if vocab_size <= n_chars:
        raise ValueError(
            f"vocab_size={vocab_size} <= {n_chars} distinct characters in the "
            "corpus; single-char pieces are unprunable, so the target can "
            "never be reached — raise vocab_size above the alphabet size"
        )
    logp = _seed_pieces(vocab, max_seed=seed_mult * vocab_size, max_piece_len=max_piece_len)
    while True:
        for _ in range(em_iters):
            logp, _ll = _em_step(vocab, logp, max_piece_len)
        if len(logp) <= vocab_size:
            return logp
        # rank for pruning = expected counts under the CURRENT table
        exp_counts: dict[str, float] = {}
        for w, c in vocab:
            _word_lattice_pass(w, c, logp, max_piece_len, exp_counts)
        target = max(vocab_size, int(len(logp) * (1.0 - prune_frac)))
        logp = _prune(logp, exp_counts, target)
        if len(logp) <= vocab_size:
            # final renormalizing EM round over the pruned table
            for _ in range(em_iters):
                logp, _ll = _em_step(vocab, logp, max_piece_len)
            return logp


def unigram_train(
    ds: "ray.data.Dataset",
    vocab_size: int = 512,
    text_col: str = "text",
    max_words: int = 8000,
    min_count: int = 1,
    max_piece_len: int = 8,
    em_iters: int = 2,
    prune_frac: float = 0.25,
) -> dict[str, float]:
    """Distributed word-count → bounded driver-side unigram-LM training
    (same scale shape as ``bpe_train``: the driver sees at most
    ``max_words`` rows, pulled via per-block top-N + tiny reduce)."""
    from .bpe import bounded_word_table

    vocab = bounded_word_table(ds, text_col=text_col, max_words=max_words, min_count=min_count)
    return train_unigram_tokenizer_from_vocab(
        vocab,
        vocab_size=vocab_size,
        max_piece_len=max_piece_len,
        em_iters=em_iters,
        prune_frac=prune_frac,
    )


# ---------------------------------------------------------------------------
# encoding


def viterbi_encode_word(word: str, logp: dict, max_len: int = 8) -> list[str]:
    """Maximum-likelihood segmentation of one word (Viterbi over the
    piece lattice; unknown chars fall back to single-char UNK pieces,
    so the pieces always concatenate back to ``word``)."""
    n = len(word)
    neg = float("-inf")
    best = [neg] * (n + 1)
    best[0] = 0.0
    back: list[int] = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(max(0, i - max_len), i):
            if best[j] == neg:
                continue
            p = word[j:i]
            lp = logp.get(p)
            if lp is None:
                if i - j != 1:
                    continue
                lp = UNK_LOGP
            s = best[j] + lp
            # ties break toward the LONGER last piece (smaller j) for
            # determinism; strict > keeps the first (smallest-j) winner
            if s > best[i]:
                best[i] = s
                back[i] = j
    out: list[str] = []
    i = n
    while i > 0:
        j = back[i]
        out.append(word[j:i])
        i = j
    out.reverse()
    return out


def unigram_encode(
    ds: "ray.data.Dataset",
    model: dict,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_pieces: bool = False,
    max_piece_len: int = 8,
) -> "ray.data.Dataset":
    """Streaming Viterbi encode: (doc_id, n_pieces[, pieces]) per
    document; the model broadcasts once and each task caches encodes
    per distinct word (same posture as ``bpe_encode``)."""
    model_ref = ray.put(dict(model))

    class Encoder:
        def __init__(self):
            self.logp = ray.get(model_ref)
            self.cache: dict = {}

        def _pieces(self, w: str) -> list[str]:
            out = self.cache.get(w)
            if out is None:
                out = viterbi_encode_word(w, self.logp, max_piece_len)
                self.cache[w] = out
            return out

        def __call__(self, batch: pa.Table) -> pa.Table:
            texts = batch[text_col].to_pylist()
            docs = [(t or "").lower().split() for t in texts]
            flat = np.asarray([w for d in docs for w in d] or [""], dtype=object)
            uniq, inv = np.unique(flat, return_inverse=True)
            enc = [self._pieces(w) for w in uniq]
            cols: dict = {id_col: batch[id_col]}
            n_out, pieces_out, pos = [], [], 0
            for d in docs:
                k = len(d)
                idxs = inv[pos : pos + k]
                pos += k
                doc_pieces = [p for i in idxs for p in enc[i]]
                n_out.append(len(doc_pieces))
                if keep_pieces:
                    pieces_out.append(doc_pieces)
            cols["n_pieces"] = pa.array(n_out, type=pa.int64())
            if keep_pieces:
                cols["pieces"] = pa.array(pieces_out, type=pa.list_(pa.string()))
            return pa.table(cols)

    return ds.map_batches(
        Encoder, concurrency=(1, 8), batch_format="pyarrow", batch_size=1024
    )


# ---------------------------------------------------------------------------
# artifact


def save_model(model: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {"format": "fer-unigram-v1", "pieces": sorted(model.items())}, f
        )


def load_model(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    if obj.get("format") != "fer-unigram-v1":
        raise ValueError(f"not a fer-unigram-v1 artifact: {path}")
    return dict(map(tuple, obj["pieces"]))
