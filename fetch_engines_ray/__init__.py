"""fetch_engines_ray — Ray-Data-native content-extraction engine.

Public surface (reference analog: /root/reference/src/index.ts:1-9):

* :func:`extract_corpus` / :func:`build_pipeline` — the flagship
  HTML→Markdown extraction pipeline over interleaved-span corpora.
* :class:`PipelineConfig` — engine knobs.
* :func:`run_resumable` — partition-atomic runner with lineage resume.
* :func:`convert` — the pure per-document converter (M1-M22 chain).
* :func:`pipelines.curate.curate_corpus` — the composed training-data
  chain (dedup → semantic dedup → decontamination → perplexity gate →
  quality → PII → DSIR selection → packing → sharded export; every
  stage optional past the dedup core).
* :func:`pipelines.search.build_search_index` / ``hybrid_search`` —
  persisted IVFPQ + BM25 hybrid retrieval.
* ``sources`` / ``ops`` submodules — readers/sinks and the
  training-data operator families (dedup incl. line-level +
  incremental + SemDeDup, similarity incl. PQ/IVFPQ, retrieval
  (BM25/RRF), LM perplexity, DSIR, text stats incl. decontamination
  (exact n-gram + fuzzy MinHash) + mixture sampling, learned
  tokenizers (BPE + unigram-LM), Stupid-Backoff n-gram LM, binary
  token-shard delivery, windows, graph (PageRank), corpus snapshot
  diff, expectations, drift, datacard, sketches, profiling,
  partitioning incl. sharded export, multimodal codecs and perceptual
  hashes).  ``curate_corpus`` runs are resumable via named
  fingerprinted checkpoints.
"""

from .functions.converter import convert  # noqa: F401
from .pipelines.extract import (  # noqa: F401
    PipelineConfig,
    build_pipeline,
    escalate_low_quality,
    extract_corpus,
    extract_with_escalation,
    run_resumable,
)
