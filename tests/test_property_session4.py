"""Property-based checks for session-4 pure kernels (no Ray session):
LM reference arithmetic, DSIR hashing, and PQ codebook determinism."""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
TEXTS = st.lists(WORD, min_size=0, max_size=60).map(" ".join)


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
