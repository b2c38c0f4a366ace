"""Composed search pipeline (pipelines/search.py): the persisted index
answers hybrid queries with the planted relevant doc on top, and
vector and keyword evidence both contribute to fusion."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def corpus(ray_session):
    import ray.data

    rng = np.random.RandomState(29)
    filler = [f"w{i:03d}" for i in range(300)]
    rows = []
    for i in range(80):
        rows.append({"doc_id": i, "text": " ".join(rng.choice(filler, size=60))})
    # planted topic cluster: docs 200/201/202 about "ray data engine"
    rows.append({"doc_id": 200, "text": "ray data engine streaming batches " * 8})
    rows.append({"doc_id": 201, "text": "ray data engine actor pools " * 8})
    rows.append({"doc_id": 202, "text": "engine throughput " + " ".join(rng.choice(filler, size=50))})
    return ray.data.from_pandas(pd.DataFrame(rows))


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    from fetch_engines_ray.pipelines.search import build_search_index

    path = str(tmp_path_factory.mktemp("search") / "idx")
    meta = build_search_index(corpus, path, n_clusters=8, pq_m=8, pq_ksub=32)
    return path, meta


def test_build_persists_queryable_artifact(index):
    import os

    path, meta = index
    assert meta["n_clusters"] == 8
    assert os.path.exists(os.path.join(path, "_ivf_meta.json"))
    assert os.path.exists(os.path.join(path, "_ivf_pq_codebooks.parquet"))


def test_hybrid_search_finds_planted_topic(corpus, index):
    from fetch_engines_ray.pipelines.search import hybrid_search

    path, _ = index
    out = hybrid_search(corpus, path, "ray data engine", k=10)
    assert len(out) > 0
    # the planted topic docs dominate the fused top ranks
    top3 = set(out.head(3)["doc_id"])
    assert top3 & {200, 201}
    assert out.iloc[0]["doc_id"] in {200, 201}
    assert out["rank"].tolist() == list(range(1, len(out) + 1))


def test_rerank_topk_orders_by_pairwise_overlap(corpus, ray_session):
    from fetch_engines_ray.pipelines.search import rerank_topk

    # candidates drawn from the planted cluster + filler: the pairwise
    # token-F1 stage must put the full-phrase docs above the partial one
    out = rerank_topk(corpus, [200, 201, 202, 5, 9], "ray data engine", k=4)
    assert list(out.columns) == ["doc_id", "rerank_score_x1e6", "rank"]
    assert out["rank"].tolist() == [1, 2, 3, 4]
    top2 = set(out.head(2)["doc_id"])
    assert top2 == {200, 201}
    assert out.iloc[0]["rerank_score_x1e6"] >= out.iloc[-1]["rerank_score_x1e6"]
    # deterministic across runs
    again = rerank_topk(corpus, [200, 201, 202, 5, 9], "ray data engine", k=4)
    assert again["doc_id"].tolist() == out["doc_id"].tolist()


def test_rerank_custom_backend_in_actor_pool(corpus, ray_session):
    """A mock cross-encoder drops into the reranker_factory slot (actor
    pool): scoring flips to doc_id order, proving the custom model is
    the one consulted."""
    import numpy as np

    from fetch_engines_ray.pipelines.search import rerank_topk

    class MockCrossEncoder:
        def __init__(self):
            self.calls = 0  # built once per actor

        def score(self, query, texts):
            self.calls += 1
            return np.asarray([len(t) for t in texts], dtype=np.int64)

    out = rerank_topk(
        corpus,
        [200, 201, 202],
        "whatever",
        k=3,
        reranker_factory=MockCrossEncoder,
        concurrency=2,
    )
    # longest text wins under the mock scorer
    texts = {r["doc_id"]: r["text"] for r in corpus.take_all() if r["doc_id"] in (200, 201, 202)}
    want = sorted(texts, key=lambda i: (-len(texts[i]), i))
    assert out["doc_id"].tolist() == want


def test_hybrid_search_rerank_end_to_end(corpus, index):
    from fetch_engines_ray.pipelines.search import hybrid_search_rerank

    path, _ = index
    out = hybrid_search_rerank(corpus, path, "ray data engine", k=5, fetch_k=15)
    assert len(out) == 5
    assert set(out.head(2)["doc_id"]) == {200, 201}
