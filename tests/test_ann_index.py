"""Persistent IVF index: partition-pruned reads, recall vs exact
brute force, determinism, and layout round-trip."""

import os

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from fetch_engines_ray.ops.ann_index import (
    build_ivf_index,
    probed_partitions,
    search_ivf_index,
)
from fetch_engines_ray.ops.similarity import _normalize


def _vectors(seed=21, n_per=80, d=16, centers=6):
    rng = np.random.RandomState(seed)
    base = _normalize(rng.randn(centers, d))
    vecs, ids = [], []
    for c in range(centers):
        pts = base[c] + 0.08 * rng.randn(n_per, d)
        vecs.extend(pts.tolist())
        ids.extend(range(c * n_per, (c + 1) * n_per))
    return np.asarray(ids), np.asarray(vecs)


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory):
    ids, mat = _vectors()
    tbl = pa.table(
        {"vec_id": pa.array(ids, type=pa.int64()),
         "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))}
    )
    path = str(tmp_path_factory.mktemp("ivf") / "index")
    n_clusters = build_ivf_index(
        ray.data.from_arrow(tbl).repartition(5), path, n_clusters=8, n_iters=4
    )
    return path, n_clusters, ids, mat


def test_layout_and_meta(index):
    path, n_clusters, ids, mat = index
    assert n_clusters == 8
    dirs = [d for d in os.listdir(path) if d.startswith("cluster=")]
    assert 1 < len(dirs) <= 8
    # every vector is in exactly one partition
    total = ray.data.read_parquet(path).count()
    assert total == len(ids)


def test_search_prunes_partitions(index):
    path, n_clusters, ids, mat = index
    queries = mat[[0, 100, 200]]
    files, probes, meta = probed_partitions(path, queries, nprobe=2)
    probed_dirs = {os.path.basename(os.path.dirname(f)) for f in files}
    all_dirs = {d for d in os.listdir(path) if d.startswith("cluster=")}
    assert probed_dirs < all_dirs  # the read really prunes
    assert probes.shape == (3, 2)
    assert meta["n"] == len(ids)


def test_search_recall_vs_exact(index):
    path, n_clusters, ids, mat = index
    rng = np.random.RandomState(5)
    q_idx = rng.choice(len(ids), size=8, replace=False)
    queries = mat[q_idx]
    got = search_ivf_index(path, queries, k=10, nprobe=2)
    qn = _normalize(np.asarray(queries))
    base = _normalize(np.asarray(mat))
    sims = qn @ base.T
    recalls = []
    for qi in range(len(queries)):
        exact = set(ids[np.argsort(-sims[qi])[:10]].tolist())
        approx = set(got.loc[got["query_idx"] == qi, "neighbor_id"].tolist())
        recalls.append(len(exact & approx) / 10)
    assert np.mean(recalls) >= 0.8  # tight blobs: probing 2/8 suffices
    # ranks are 1..k per query, deterministic on a re-run
    assert (got.groupby("query_idx")["rank"].min() == 1).all()
    again = search_ivf_index(path, queries, k=10, nprobe=2)
    assert got.equals(again)


def test_search_empty_probe_set(ray_session, index):
    path, n_clusters, ids, mat = index
    out = search_ivf_index(path, mat[[3]], k=5, nprobe=1)
    assert set(out.columns) == {"query_idx", "neighbor_id", "rank"}
    assert len(out) == 5


# ---------------------------------------------------------------------------
# IVFPQ (compressed codes-only index)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pq_index(ray_session, tmp_path_factory):
    from fetch_engines_ray.ops.ann_index import build_ivfpq_index

    ids, mat = _vectors()
    tbl = pa.table(
        {"vec_id": pa.array(ids, type=pa.int64()),
         "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))}
    )
    path = str(tmp_path_factory.mktemp("ivfpq") / "index")
    n_clusters = build_ivfpq_index(
        ray.data.from_arrow(tbl).repartition(5), path,
        n_clusters=8, pq_m=4, pq_ksub=32, n_iters=4,
    )
    return path, n_clusters, ids, mat


def test_ivfpq_stores_codes_not_vectors(pq_index):
    path, _, ids, _ = pq_index
    ds = ray.data.read_parquet(path)
    cols = set(ds.schema().names)
    assert "pq_code" in cols and "embedding" not in cols
    rows = ds.take(3)
    for r in rows:
        assert len(r["pq_code"]) == 4  # m bytes per vector
    assert ds.count() == len(ids)


def test_ivfpq_finds_the_right_coarse_cluster(pq_index):
    """This fixture's blobs are adversarial for PQ resolution (80
    near-identical points per blob; WHICH ten of them rank top-10 is
    below code resolution by design), so the correctness bar here is
    coarse: every returned neighbor must come from the query's own
    generating blob.  Fine-grained ADC recall on spread-out vectors is
    pinned in tests/test_pq.py against exact brute force."""
    from fetch_engines_ray.ops.ann_index import search_ivfpq_index

    path, _, ids, mat = pq_index
    qpos = [0, 100, 250, 400]
    out = search_ivfpq_index(path, mat[qpos], k=10, nprobe=3)
    for qi, p in enumerate(qpos):
        blob = p // 80
        got = out[out["query_idx"] == qi]["neighbor_id"].to_numpy()
        assert len(got) == 10
        assert (got // 80 == blob).all()


def test_ivfpq_full_probe_equals_flat_pq(pq_index, ray_session):
    """With nprobe = n_clusters the candidate set is the whole corpus,
    so the partitioned ADC search must rank EXACTLY like flat PQ over
    the same codebooks, computed here in numpy (plumbing equivalence:
    hive round-trip, code bytes, LUTs, tie rules)."""
    from fetch_engines_ray.ops.ann_index import search_ivfpq_index
    from fetch_engines_ray.ops.pq import pq_train

    path, n_clusters, ids, mat = pq_index
    tbl = pa.table(
        {"vec_id": pa.array(ids, type=pa.int64()),
         "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))}
    )
    ds = ray.data.from_arrow(tbl).repartition(5)
    # same training call as build_ivfpq_index -> identical codebooks
    cb = pq_train(ds, m=4, ksub=32, seed=13)
    m, _, dsub = cb.shape
    x = _normalize(np.asarray(mat, dtype=np.float64))
    codes = np.empty((len(x), m), dtype=np.int64)
    for j in range(m):
        sub = x[:, j * dsub : (j + 1) * dsub]
        codes[:, j] = (-2.0 * (sub @ cb[j].T) + (cb[j] ** 2).sum(axis=1)).argmin(axis=1)
    ids = np.asarray(ids, dtype=np.int64)
    qpos = [0, 130, 333]
    part = search_ivfpq_index(path, mat[qpos], k=8, nprobe=n_clusters)
    for qi, p in enumerate(qpos):
        lut = np.stack([x[p, j * dsub : (j + 1) * dsub] @ cb[j].T for j in range(m)])
        sims = lut[np.arange(m), codes].sum(axis=1)
        others = np.nonzero(ids != ids[p])[0]
        b = ids[others[np.lexsort((ids[others], -sims[others]))[:8]]].tolist()
        # the index search has no id notion: drop self from its result
        a = [n for n in part[part["query_idx"] == qi]["neighbor_id"].tolist() if n != ids[p]]
        n = min(len(a), len(b))
        assert n >= 7 and a[:n] == b[:n]


def test_ivfpq_search_on_plain_ivf_raises(index):
    from fetch_engines_ray.ops.ann_index import search_ivfpq_index

    path, _, _, mat = index
    with pytest.raises(ValueError, match="not an IVFPQ index"):
        search_ivfpq_index(path, mat[[0]], k=5)


def test_ivfpq_deterministic_rebuild(ray_session, tmp_path):
    from fetch_engines_ray.ops.ann_index import build_ivfpq_index, search_ivfpq_index

    ids, mat = _vectors(seed=33, n_per=40, centers=4)
    tbl = pa.table(
        {"vec_id": pa.array(ids, type=pa.int64()),
         "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))}
    )
    outs = []
    for sub in ("a", "b"):
        p = str(tmp_path / sub)
        build_ivfpq_index(ray.data.from_arrow(tbl), p, n_clusters=4, pq_m=4, pq_ksub=16)
        outs.append(search_ivfpq_index(p, mat[[0, 50]], k=5, nprobe=2))
    assert outs[0].equals(outs[1])


def test_ivfpq_residual_encoding_cuts_reconstruction_error(ray_session, tmp_path):
    """IVFADC (residual=True): quantizing v - centroid[assign(v)] with
    the same m-byte budget must reconstruct the vectors strictly better
    than quantizing the raw vectors — residual norms are a fraction of
    vector norms, so the codebook resolution goes much further."""
    import json

    from fetch_engines_ray.ops.ann_index import _load_pq_codebooks, build_ivfpq_index
    from fetch_engines_ray.ops.similarity import _normalize as _nrm

    ids, mat = _vectors(seed=31)
    tbl = pa.table(
        {"vec_id": pa.array(ids, type=pa.int64()),
         "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))}
    )
    errs = {}
    for residual in (False, True):
        path = str(tmp_path / f"idx_res_{residual}")
        build_ivfpq_index(
            ray.data.from_arrow(tbl).repartition(4), path,
            n_clusters=8, pq_m=4, pq_ksub=16, n_iters=4, residual=residual,
        )
        with open(os.path.join(path, "_ivf_meta.json")) as f:
            meta = json.load(f)
        assert meta["residual"] is residual
        cb = _load_pq_codebooks(path, meta)
        import pyarrow.parquet as pq_
        ctab = pq_.read_table(os.path.join(path, "_ivf_centroids.parquet"))
        cents = np.asarray([np.asarray(v) for v in ctab["centroid"].to_pylist()])
        # reconstruct every vector from its stored code
        rows = ray.data.read_parquet(path).take_all()
        by_id = {r["vec_id"]: r for r in rows}
        nmat = _nrm(mat)
        dsub = meta["pq_dsub"]
        tot = 0.0
        for vid, v in zip(ids, nmat):
            r = by_id[vid]
            code = np.frombuffer(r["pq_code"], dtype=np.uint8)
            dec = np.concatenate([cb[j, code[j]] for j in range(meta["pq_m"])])
            if residual:
                dec = dec + cents[r["cluster_id"]]
            tot += float(((v - dec) ** 2).sum())
        errs[residual] = tot / len(ids)
    assert errs[True] < errs[False] * 0.7, errs  # decisively better


def test_ivfpq_residual_search(ray_session, tmp_path):
    """Residual-index search returns blob-correct neighbors through the
    q·c + q·r correction."""
    from fetch_engines_ray.ops.ann_index import build_ivfpq_index, search_ivfpq_index

    ids, mat = _vectors(seed=37)
    tbl = pa.table(
        {"vec_id": pa.array(ids, type=pa.int64()),
         "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float64()))}
    )
    path = str(tmp_path / "idx_res")
    build_ivfpq_index(
        ray.data.from_arrow(tbl).repartition(4), path,
        n_clusters=8, pq_m=4, pq_ksub=32, n_iters=4, residual=True,
    )
    qpos = [0, 150, 300, 450]
    out = search_ivfpq_index(path, mat[qpos], k=10, nprobe=3)
    for qi, p in enumerate(qpos):
        got = out[out["query_idx"] == qi]["neighbor_id"].to_numpy()
        assert len(got) == 10
        assert (got // 80 == p // 80).all()  # all from the query's blob


def test_build_into_existing_index_dir_refuses(ray_session, tmp_path):
    """Rebuilding into a populated index path would MIX stale partition
    files (assigned under obsolete centroids) into the new index —
    searches would score old rows twice.  The build APIs must refuse."""
    import numpy as np
    import pytest

    import ray.data
    from fetch_engines_ray.ops.ann_index import build_ivf_index

    rng = np.random.default_rng(5)
    rows = [
        {"vec_id": i, "embedding": rng.normal(size=8).tolist()} for i in range(64)
    ]
    ds = ray.data.from_items(rows)
    path = str(tmp_path / "idx")
    build_ivf_index(ds, path, n_clusters=4)
    with pytest.raises(ValueError, match="already contains parquet files"):
        build_ivf_index(ds, path, n_clusters=4)


def test_build_refuses_populated_dir_before_training(
    ray_session, tmp_path, monkeypatch
):
    """The populated-directory refusal must land at function ENTRY —
    before the expensive distributed kmeans / PQ training passes are
    paid for (advice finding: it used to fire only after them)."""
    import numpy as np
    import pytest

    import ray.data
    from fetch_engines_ray.ops import ann_index
    from fetch_engines_ray.ops.ann_index import build_ivf_index, build_ivfpq_index

    rng = np.random.default_rng(5)
    rows = [
        {"vec_id": i, "embedding": rng.normal(size=8).tolist()} for i in range(64)
    ]
    ds = ray.data.from_items(rows)
    path = str(tmp_path / "idx")
    build_ivf_index(ds, path, n_clusters=4)

    def bomb(*a, **k):  # training must never start on a refused build
        raise AssertionError("kmeans_fit ran before the fresh-dir check")

    monkeypatch.setattr(ann_index, "kmeans_fit", bomb)
    with pytest.raises(ValueError, match="already contains parquet files"):
        build_ivf_index(ds, path, n_clusters=4)
    with pytest.raises(ValueError, match="already contains parquet files"):
        build_ivfpq_index(ds, path, n_clusters=4, pq_m=2, pq_ksub=4)


def test_ivf_knn_boundary_ties_match_bruteforce(ray_session):
    """Duplicate vectors tie exactly at the k-th boundary: with full
    probing, ivf_knn must resolve them (sim desc, id asc) identically
    to knn_bruteforce — argpartition kept whichever tied candidate
    landed first in memory order (review finding)."""
    import numpy as np

    import ray.data
    from fetch_engines_ray.ops.similarity import ivf_knn, knn_bruteforce

    base = np.eye(4)
    rows = []
    # 8 exact copies of each basis vector → massive exact ties
    for rep in range(8):
        for j in range(4):
            rows.append(
                {"vec_id": rep * 4 + j, "embedding": base[j].tolist()}
            )
    ds = ray.data.from_items(rows)
    queries = [0, 5]
    exact = knn_bruteforce(ds, queries, k=5)
    approx = ivf_knn(ds, queries, k=5, n_clusters=4, nprobe=4)
    for q in queries:
        e = exact[exact["query_id"] == q]["neighbor_id"].tolist()
        a = approx[approx["query_id"] == q]["neighbor_id"].tolist()
        assert a == e, f"query {q}: {a} != {e}"
