"""Unigram-LM tokenizer (Kudo 2018): Viterbi optimality vs brute-force
enumeration, EM monotonicity, coverage/losslessness, distributed ==
single-process parity, artifact roundtrip."""

import math

import numpy as np
import pytest

from fetch_engines_ray.ops.unigram_tok import (
    UNK_LOGP,
    _em_step,
    _seed_pieces,
    load_model,
    save_model,
    train_unigram_tokenizer_from_vocab,
    unigram_encode,
    unigram_train,
    viterbi_encode_word,
)


def _brute_best(word: str, logp: dict, max_len: int = 8):
    """Enumerate every segmentation; return the max total log-prob
    (unknown single chars at the UNK floor, unknown longer spans
    disallowed) — the oracle for Viterbi."""
    n = len(word)
    best = float("-inf")
    # compositions of n into parts of size 1..max_len
    def rec(i, acc):
        nonlocal best
        if i == n:
            best = max(best, acc)
            return
        for j in range(i + 1, min(n, i + max_len) + 1):
            p = word[i:j]
            lp = logp.get(p)
            if lp is None:
                if j - i != 1:
                    continue
                lp = UNK_LOGP
            rec(j, acc + lp)

    rec(0, 0.0)
    return best


def test_viterbi_matches_bruteforce_on_random_models():
    rng = np.random.RandomState(5)
    alphabet = "abc"
    for trial in range(40):
        # random piece table over substrings of a random short word
        word = "".join(rng.choice(list(alphabet), size=rng.randint(1, 8)))
        pieces = set()
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                if rng.rand() < 0.6:
                    pieces.add(word[i:j])
        # drop some single chars too (exercises the UNK floor)
        logp = {p: float(-rng.rand() * 5 - 0.1) for p in pieces}
        got = viterbi_encode_word(word, logp)
        assert "".join(got) == word  # lossless always
        total = sum(
            logp.get(p, UNK_LOGP if len(p) == 1 else float("-inf")) for p in got
        )
        assert math.isclose(total, _brute_best(word, logp), rel_tol=0, abs_tol=1e-9), (
            word,
            got,
        )


def test_em_loglik_nondecreasing():
    vocab = [("abab", 10), ("abc", 5), ("banana", 3), ("cab", 7)]
    logp = _seed_pieces(vocab, max_seed=64, max_piece_len=4)
    lls = []
    for _ in range(5):
        logp, ll = _em_step(vocab, logp, 4)
        lls.append(ll)
    for a, b in zip(lls, lls[1:]):
        assert b >= a - 1e-9, lls  # EM guarantee on the SAME vocab table


def test_trained_model_learns_frequent_substring_and_covers():
    # "ing" dominates the corpus: the trained table must keep it as one
    # piece and the encoder must use it
    vocab = [
        ("walking", 50), ("talking", 50), ("running", 50), ("sing", 40),
        ("zebra", 2), ("qux", 1),
    ]
    model = train_unigram_tokenizer_from_vocab(vocab, vocab_size=24, max_piece_len=4)
    assert "ing" in model
    pieces = viterbi_encode_word("walking", model, max_len=4)
    assert "".join(pieces) == "walking"
    assert "ing" in pieces
    assert len(pieces) < len("walking")  # compresses vs chars
    # full coverage incl. characters never trained on
    for w in ("zebra", "hello", "xyzzy", "a"):
        ps = viterbi_encode_word(w, model, max_len=4)
        assert "".join(ps) == w
    # single chars always survive training
    assert all(len(p) >= 1 for p in model) and any(len(p) == 1 for p in model)
    # log-probs are a (sub-)distribution: sum of exp ≤ 1 + eps
    assert sum(math.exp(lp) for lp in model.values() if lp > UNK_LOGP) <= 1.0 + 1e-6


def test_unigram_train_distributed_matches_reference(ray_session):
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.bpe import bounded_word_table

    rng = np.random.RandomState(9)
    words = ["walking", "talking", "running", "sing", "thing", "bring"]
    texts = [" ".join(rng.choice(words, size=12)) for _ in range(30)]
    df = pd.DataFrame({"doc_id": range(30), "text": texts})
    ds = ray.data.from_pandas(df)

    got = unigram_train(ds, vocab_size=24, max_piece_len=4)

    vocab = bounded_word_table(ds, max_words=8000)
    want = train_unigram_tokenizer_from_vocab(vocab, vocab_size=24, max_piece_len=4)
    assert got == want  # identical table, exact floats

    enc = (
        unigram_encode(ds, got, keep_pieces=True, max_piece_len=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (enc["n_pieces"] > 0).all()
    # losslessness over the real corpus: pieces rebuild the lowered text
    for i in range(5):
        rebuilt = "".join(enc.loc[i, "pieces"])
        assert rebuilt == texts[i].lower().replace(" ", "")
    # determinism across a second train
    again = unigram_train(ds, vocab_size=24, max_piece_len=4)
    assert again == got


def test_model_artifact_roundtrip(tmp_path):
    vocab = [("abab", 10), ("cab", 7)]
    model = train_unigram_tokenizer_from_vocab(vocab, vocab_size=12, max_piece_len=3)
    p = str(tmp_path / "unigram.json")
    save_model(model, p)
    assert load_model(p) == model
    with pytest.raises(ValueError):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            f.write('{"format": "other"}')
        load_model(bad)


def test_curate_unigram_export_ships_tokenizer(ray_session, tmp_path):
    """curate_corpus(tokenizer='unigram', export_path=...) writes the
    unigram _tokenizer.json artifact, and a trainer-side re-encode with
    the loaded model reproduces the packed token totals exactly."""
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(5)
    stop = "the a of and to in is it for on with as at by this".split()
    words = stop + [f"tok{i:02d}" for i in range(20)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 80)))}
        for i in range(20)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = str(tmp_path / "delivery")
    packed = curate_corpus(
        ds, max_tokens=128, tokenizer="unigram", unigram_vocab_size=48,
        export_path=out, n_shards=2,
    ).to_pandas()
    model = load_model(out + "/_tokenizer.json")
    assert model and len(model) <= 48 + 0  # vocab bound (chars always kept)
    text_by_id = {r["doc_id"]: r["text"] for r in rows}
    for _, row in packed.iterrows():
        want = sum(
            len(viterbi_encode_word(w, model))
            for d in row["doc_ids"]
            for w in text_by_id[d].lower().split()
        )
        assert int(row["total_tokens"]) == want

    # bin export stays BPE-only
    with pytest.raises(ValueError):
        curate_corpus(
            ds, max_tokens=128, tokenizer="unigram",
            bin_export_path=str(tmp_path / "bins"),
        )


def test_unigram_trainer_rejects_vocab_smaller_than_alphabet():
    """Single-char pieces are unprunable, so vocab_size <= the distinct
    character count can never be reached — the trainer must raise, not
    loop forever (review finding: reproduced hang on a 26-char alphabet
    with vocab_size=10)."""
    import pytest

    from fetch_engines_ray.ops.unigram_tok import train_unigram_tokenizer_from_vocab

    vocab = [(w, 5) for w in ("abc", "def", "ghi", "jkl", "mno", "pqr")]
    with pytest.raises(ValueError, match="distinct characters"):
        train_unigram_tokenizer_from_vocab(vocab, vocab_size=10)
