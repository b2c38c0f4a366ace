"""Composed corpus-search pipeline: build keyword + vector indexes once,
serve hybrid queries from them.

    documents
      → embed            (actor-pool batched inference, ops/embed.py)
      → IVFPQ index      (codes-only hive partitions, ops/ann_index.py)
      [query time]
      → BM25 top-k       (one stats pass per query set, ops/retrieval.py)
      → ADC vector top-k (probed partitions only)
      → RRF fusion       (driver-side over two k-sized lists)

All reference public building blocks already pinned by their own test
suites; this module is the composition plus the one thing only the
composition can provide: a persisted QUERYABLE artifact (the index
directory outlives the build run).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np
import pandas as pd

if TYPE_CHECKING:  # pragma: no cover
    import ray


def build_search_index(
    docs: "ray.data.Dataset",
    path: str,
    dim: int = 64,
    n_clusters: Optional[int] = None,
    pq_m: int = 8,
    pq_ksub: int = 64,
    embed_concurrency: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> dict:
    """Embed the corpus (actor pool) and persist the IVFPQ index at
    ``path``; returns build metadata.  The documents table itself is the
    BM25 side — keyword stats are one cheap pass per query set, so no
    keyword artifact is persisted (at a scale where that pass hurts,
    checkpoint ``docs`` next to the index)."""
    from ..ops.ann_index import build_ivfpq_index
    from ..ops.embed import embed_texts

    emb = embed_texts(
        docs, dim=dim, concurrency=embed_concurrency, text_col=text_col, id_col=id_col
    )
    n_clusters = build_ivfpq_index(
        emb,
        path,
        n_clusters=n_clusters,
        pq_m=pq_m,
        pq_ksub=pq_ksub,
        id_col=id_col,
        vec_col="embedding",
    )
    return {"path": path, "n_clusters": n_clusters, "dim": dim}


def _embed_queries(queries: list[str], dim: int) -> np.ndarray:
    """Queries embed with the SAME deterministic model the corpus used
    (seeded projection — a real deployment loads identical weights)."""
    from ..ops.embed import TextEmbedder

    enc = TextEmbedder(dim=dim)
    return enc._encode(queries)


def hybrid_search(
    docs: "ray.data.Dataset",
    index_path: str,
    query: str,
    k: int = 10,
    nprobe: int = 4,
    rrf_k: int = 60,
    dim: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Keyword + vector hybrid retrieval: BM25 over the documents table,
    ADC search over the persisted IVFPQ index, fused with RRF.  Returns
    ``(doc_id, rrf_score_x1e9, rank)``."""
    from ..ops.ann_index import search_ivfpq_index
    from ..ops.retrieval import bm25_topk, rrf_fuse

    kw = bm25_topk(docs, query, k=k, id_col=id_col, text_col=text_col)
    qv = _embed_queries([query], dim)
    vec = search_ivfpq_index(index_path, qv, k=k, nprobe=nprobe)
    vec = vec.rename(columns={"neighbor_id": id_col})[[id_col, "rank"]]
    fused = rrf_fuse([kw, vec], id_cols=[id_col, id_col], k=rrf_k, topk=k)
    # rrf_fuse always emits its id column as "doc_id" — present it
    # under the CALLER'S id_col so hybrid_search_rerank (and any
    # downstream keyed on id_col) doesn't KeyError on non-default names
    if id_col != "doc_id":
        fused = fused.rename(columns={"doc_id": id_col})
    return fused


class LexicalOverlapReranker:
    """Default rerank backend: token-set F1 between query and document
    (2.|Q∩D| / (|Q|+|D|)), integer x1e6.  Deterministic and cheap — the
    slot where a real cross-encoder plugs in via ``reranker_factory``
    (same backend-protocol posture as ``stages/structured.ProviderSpec``:
    the factory runs ONCE per worker in ``__init__``, scoring per batch).
    """

    def __init__(self) -> None:
        self._q: Optional[frozenset] = None

    def score(self, query: str, texts: "pd.Series") -> np.ndarray:
        if self._q is None:
            self._q = frozenset(query.lower().split())
        q = self._q
        toks = texts.str.lower().str.split()
        out = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(toks):
            d = set(t or ())
            denom = len(q) + len(d)
            if denom:
                out[i] = (2 * len(q & d) * 1_000_000) // denom
        return out


def rerank_topk(
    docs: "ray.data.Dataset",
    candidate_ids: list[int],
    query: str,
    k: int = 10,
    reranker_factory=None,
    concurrency: Optional[int] = None,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Second-stage reranking: re-score ``candidate_ids`` (a first-stage
    top-k — tiny) against ``query`` with a pairwise model and return the
    best ``k`` as ``(doc_id, rerank_score_x1e6, rank)``.

    Scale shape: the candidate id set broadcasts inside the closure
    (k-sized); ONE streaming filter+score pass over the documents table
    fetches and scores the candidate texts where they live — candidate
    texts never ship to the driver, only (id, score) pairs come back.
    The reranker is built once per worker (``reranker_factory``, actor
    pool when ``concurrency`` is set) — the cross-encoder slot.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    factory = reranker_factory or LexicalOverlapReranker
    want = pa.array([int(i) for i in candidate_ids], type=pa.int64())

    class _Score:
        def __init__(self) -> None:
            self.model = factory()

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_in(batch[id_col], value_set=want))
            texts = batch[text_col].to_pandas().fillna("")
            return pa.table(
                {
                    id_col: batch[id_col],
                    "rerank_score_x1e6": pa.array(
                        self.model.score(query, texts), type=pa.int64()
                    ),
                }
            )

    # task-pool default: one instance built here and serialized into
    # every task (fine for light backends); concurrency=N switches to
    # the actor-pool form where the factory runs once per ACTOR — the
    # expensive-model slot (mirrors stages/structured.structured_extract)
    if concurrency is None:
        scored = docs.map_batches(
            _Score(), batch_format="pyarrow", batch_size=4096
        ).to_pandas()  # candidate-sized
    else:
        scored = docs.map_batches(
            _Score,
            batch_format="pyarrow",
            batch_size=4096,
            concurrency=concurrency,
            num_cpus=1,
        ).to_pandas()  # candidate-sized
    if "rerank_score_x1e6" not in scored.columns:
        # every candidate id missed (stale list / empty first stage):
        # Ray's to_pandas of an all-empty dataset is COLUMN-LESS —
        # return the typed empty top-k, don't KeyError
        return pd.DataFrame(
            {
                id_col: pd.Series(dtype="int64"),
                "rerank_score_x1e6": pd.Series(dtype="int64"),
                "rank": pd.Series(dtype="int64"),
            }
        )
    scored.sort_values(
        ["rerank_score_x1e6", id_col], ascending=[False, True], kind="stable", inplace=True
    )
    top = scored.head(k).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1)
    return top


def hybrid_search_rerank(
    docs: "ray.data.Dataset",
    index_path: str,
    query: str,
    k: int = 10,
    fetch_k: int = 30,
    reranker_factory=None,
    **kwargs,
) -> pd.DataFrame:
    """Retrieve-then-rerank: RRF-fused hybrid top-``fetch_k`` candidates
    (recall stage), reranked pairwise down to ``k`` (precision stage) —
    the standard two-stage serving shape."""
    fused = hybrid_search(docs, index_path, query, k=fetch_k, **kwargs)
    id_col = kwargs.get("id_col", "doc_id")
    return rerank_topk(
        docs,
        fused[id_col].tolist(),
        query,
        k=k,
        reranker_factory=reranker_factory,
        id_col=id_col,
        text_col=kwargs.get("text_col", "text"),
    )
