"""Property-based checks for session-4 pure kernels (no Ray session):
winnowing position/hash consistency with the whole-doc fingerprint op,
BM25 reference invariants, RRF monotonicity, LM reference arithmetic,
DSIR hashing, and PQ codebook determinism."""

import string

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
TEXTS = st.lists(WORD, min_size=0, max_size=60).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(st.lists(TEXTS, min_size=1, max_size=12), st.integers(0, 2**31))
def test_bm25_reference_invariants(texts, seed):
    from fetch_engines_ray.ops.retrieval import bm25_reference

    docs = list(enumerate(texts))
    rng = np.random.RandomState(seed % (2**31))
    qwords = [w for t in texts for w in t.split()]
    query = " ".join(rng.choice(qwords, size=min(3, len(qwords)))) if qwords else "x"
    out = bm25_reference(docs, query, k=5)
    # scores positive, ranks contiguous from 1, sorted desc with id ties asc
    assert (out["score_x1e6"] > 0).all()
    assert out["rank"].tolist() == list(range(1, len(out) + 1))
    s = out["score_x1e6"].to_numpy()
    assert (np.diff(s) <= 0).all()
    # every returned doc contains at least one query term
    qt = set(query.split())
    for d in out["doc_id"]:
        assert qt & set(texts[d].split())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(1, 50))
def test_rrf_two_list_ranking_monotone(r1, r2):
    """A doc's RRF score strictly decreases in either of its ranks."""
    from fetch_engines_ray.ops.retrieval import rrf_fuse

    a = pd.DataFrame({"doc_id": [1], "rank": [r1]})
    b = pd.DataFrame({"doc_id": [1], "rank": [r2]})
    base = int(rrf_fuse([a, b]).iloc[0]["rrf_score_x1e9"])
    worse = pd.DataFrame({"doc_id": [1], "rank": [r1 + 1]})
    lower = int(rrf_fuse([worse, b]).iloc[0]["rrf_score_x1e9"])
    assert lower < base


@settings(max_examples=30, deadline=None)
@given(st.lists(TEXTS, min_size=1, max_size=10))
def test_lm_reference_totals(texts):
    """Reference LM: token counts match a direct tokenize; logprobs are
    negative for nonempty docs and 0 for empty ones; full-vocab training
    never hits OOV (every token's logprob comes from the table)."""
    from fetch_engines_ray.ops.lm import perplexity_reference

    out = perplexity_reference(texts)
    for (tc, lp), t in zip(out, texts):
        toks = t.lower().split()
        assert tc == len(toks)
        assert (lp < 0) if toks else (lp == 0)


@settings(max_examples=30, deadline=None)
@given(TEXTS)
def test_dsir_ngram_buckets_in_range(text):
    from fetch_engines_ray.ops.dsir import _bucket_ids, _doc_ngrams

    ids = _bucket_ids(_doc_ngrams(text), 8192)
    assert ((ids >= 0) & (ids < 8192)).all()
    toks = text.lower().split()
    assert len(ids) == max(0, len(toks)) + max(0, len(toks) - 1)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_pq_lloyd_deterministic_and_partitions(seed):
    from fetch_engines_ray.ops.pq import _lloyd_euclidean

    rng = np.random.RandomState(seed % (2**31))
    mat = rng.randn(64, 8)
    a = _lloyd_euclidean(mat, 8, seed=13)
    b = _lloyd_euclidean(mat, 8, seed=13)
    assert np.array_equal(a, b)
    # every centroid is finite and lives in the data's bounding box
    assert np.isfinite(a).all()
    assert (a.min() >= mat.min() - 1e-12) and (a.max() <= mat.max() + 1e-12)
