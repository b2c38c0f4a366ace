"""Whole-corpus extraction digest over the sf0.001 synthetic corpus.

Prints the order-insensitive xor of every document's order-SENSITIVE
span-sequence hash (``state.lineage.span_hash_for_doc`` — the same
64-bit hash the lineage sidecars record).  The committed value lives in
``tests/test_corpus_digest.py``; after an INTENTIONAL converter change,
re-run this script and update the constant in the same commit as the
converter change:

    python scripts/corpus_digest.py
"""
from __future__ import annotations

import os
import sys

# scripts/ is sys.path[0] when invoked as documented — the repo root
# (one level up) holds the package
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def corpus_digest(corpus_dir: str, cfg=None) -> tuple[int, int]:
    """(n_docs, xor-combined span-sequence digest) for a corpus dir.

    ``cfg`` overrides the PipelineConfig — the digest must be IDENTICAL
    for any fast / warm batch size and block structure (partition
    invariance is pinned by ``tests/test_corpus_digest.py``)."""
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus
    from fetch_engines_ray.state.lineage import combine_hashes, span_hash_for_doc

    ds = extract_corpus(corpus_dir, cfg or PipelineConfig(batch_size=16))

    def doc_hashes(batch):
        import pyarrow as pa

        hs = [
            span_hash_for_doc(d, spans or [])
            for d, spans in zip(batch["doc_id"].to_pylist(), batch["out_spans"].to_pylist())
        ]
        return pa.table({"h": pa.array(hs, type=pa.uint64())})

    hashes = ds.map_batches(doc_hashes, batch_format="pyarrow").to_pandas()
    return len(hashes), combine_hashes(int(v) for v in hashes["h"])


def sf0001_corpus() -> str:
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py")
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m._synth_corpus("/root/testdata/sf0.001")


if __name__ == "__main__":
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    n, digest = corpus_digest(sys.argv[1] if len(sys.argv) > 1 else sf0001_corpus())
    print(f"n_docs={n} digest=0x{digest:016x}")
    ray.shutdown()
