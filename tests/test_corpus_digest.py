"""Whole-corpus extraction digest pin (sf0.001 synthetic corpus).

The converter conformance suite pins per-document span sequences on
mirrored fixtures; this test closes the remaining gap — silent drift on
corpus shapes the fixture set misses — by pinning ONE digest over the
full flagship extraction output: the order-insensitive xor of every
document's order-sensitive 64-bit span-sequence hash (the exact hash
the lineage sidecars record, ``state/lineage.py``).

Update workflow for an INTENTIONAL converter change: run
``python scripts/corpus_digest.py`` and commit the new constant in the
SAME commit as the converter change, citing it in the message.
"""

EXPECTED_N_DOCS = 336
EXPECTED_DIGEST = 0x7D7A83657EB928EB


def test_full_corpus_extraction_digest(ray_session):
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    try:
        from corpus_digest import corpus_digest, sf0001_corpus
    finally:
        sys.path.pop(0)

    n, digest = corpus_digest(sf0001_corpus())
    assert n == EXPECTED_N_DOCS
    assert digest == EXPECTED_DIGEST, (
        f"extraction output drifted: digest=0x{digest:016x} (expected "
        f"0x{EXPECTED_DIGEST:016x}). If the converter change is intentional, "
        "re-run scripts/corpus_digest.py and update this constant in the same commit."
    )


def test_extraction_digest_partition_invariant(ray_session):
    """The SAME digest must come out under a different batch size (so
    different per-call slices of each block) — extraction output is a
    pure per-document function, so batch structure can never leak into
    results."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    try:
        from corpus_digest import corpus_digest, sf0001_corpus
    finally:
        sys.path.pop(0)

    from fetch_engines_ray.pipelines.extract import PipelineConfig

    n, digest = corpus_digest(
        sf0001_corpus(), PipelineConfig(batch_size=5, warm_batch_size=7)
    )
    assert n == EXPECTED_N_DOCS
    assert digest == EXPECTED_DIGEST
