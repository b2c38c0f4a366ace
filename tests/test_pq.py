"""Product quantization (ops/pq.py): codes are m bytes, ADC search
(through a one-cluster IVFPQ index) clears a recall floor against exact
brute force, reconstruction error improves with codebook capacity, and
training is deterministic."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    return ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


@pytest.fixture(scope="module")
def trained(emb_ds, tmp_path_factory):
    """Codebooks, plus a one-cluster IVFPQ index over the same corpus:
    with a single coarse cluster the index's encode + ADC search is
    flat PQ."""
    from fetch_engines_ray.ops.ann_index import build_ivfpq_index
    from fetch_engines_ray.ops.pq import pq_train

    cb = pq_train(emb_ds, m=8, ksub=64, seed=13)
    path = str(tmp_path_factory.mktemp("pq") / "index")
    build_ivfpq_index(emb_ds, path, n_clusters=1, pq_m=8, pq_ksub=64, seed=13)
    return cb, path


def test_code_shape_and_compression(trained):
    import ray.data

    cb, path = trained
    assert cb.shape == (8, 64, 8)  # 64-dim embeddings, m=8
    rows = ray.data.read_parquet(path).take(5)
    for r in rows:
        assert len(r["pq_code"]) == 8  # 8 bytes vs 256 B float32 raw


def test_pq_recall_against_bruteforce(emb_ds, trained):
    from fetch_engines_ray.ops.ann_index import search_ivfpq_index
    from fetch_engines_ray.ops.similarity import knn_bruteforce

    _, path = trained
    qids = [0, 1, 2, 3]
    qvecs = np.asarray(
        [r["embedding"] for r in emb_ds.filter(expr="vec_id < 4").sort("vec_id").take_all()],
        dtype=np.float64,
    )
    approx = search_ivfpq_index(path, qvecs, k=11, nprobe=1)
    exact = knn_bruteforce(emb_ds, query_ids=qids, k=10)
    recalls = []
    for qi, q in enumerate(qids):
        # the index has no id notion: drop the query's own row
        got = approx[approx["query_idx"] == qi]["neighbor_id"].tolist()
        a = set([n for n in got if n != q][:10])
        e = set(exact[exact["query_id"] == q]["neighbor_id"])
        assert len(a) == 10
        recalls.append(len(e & a) / len(e))
    assert sum(recalls) / len(recalls) >= 0.5, recalls


def _reconstruction_error(ds, codebooks) -> float:
    """Mean squared distance from each normalized vector to its nearest
    code, subspace by subspace."""
    from fetch_engines_ray.ops.similarity import _normalize

    mat = _normalize(np.asarray(ds.to_pandas()["embedding"].tolist(), dtype=np.float64))
    m, _ksub, dsub = codebooks.shape
    total = 0.0
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        d = ((sub[:, None, :] - codebooks[j][None, :, :]) ** 2).sum(axis=2)
        total += float(d.min(axis=1).sum())
    return total / len(mat)


def test_more_capacity_lowers_reconstruction_error(emb_ds):
    from fetch_engines_ray.ops.pq import pq_train

    small = pq_train(emb_ds, m=8, ksub=4, seed=13)
    big = pq_train(emb_ds, m=8, ksub=64, seed=13)
    e_small = _reconstruction_error(emb_ds, small)
    e_big = _reconstruction_error(emb_ds, big)
    assert e_big < e_small
    assert e_big >= 0.0


def test_training_and_encoding_deterministic(emb_ds, tmp_path):
    import ray.data

    from fetch_engines_ray.ops.ann_index import build_ivfpq_index
    from fetch_engines_ray.ops.pq import pq_train

    a = pq_train(emb_ds, m=8, ksub=16, seed=13)
    b = pq_train(emb_ds, m=8, ksub=16, seed=13)
    assert np.array_equal(a, b)
    codes = []
    for name in ("a", "b"):
        path = str(tmp_path / name)
        build_ivfpq_index(emb_ds, path, n_clusters=1, pq_m=8, pq_ksub=16, seed=13)
        codes.append(ray.data.read_parquet(path).to_pandas().sort_values("vec_id"))
    assert codes[0]["pq_code"].tolist() == codes[1]["pq_code"].tolist()


def test_dim_not_divisible_raises(emb_ds):
    from fetch_engines_ray.ops.pq import pq_train

    with pytest.raises(ValueError, match="not divisible"):
        pq_train(emb_ds, m=7)
