"""Persistent IVF (inverted-file) vector index: build once, search
many, READ only what a query probes.

`ops/similarity.ivf_knn` filters probed clusters inside map tasks —
correct, but every search still streams the whole embedding table off
storage.  At 100-TB scale the index must prune at the READ: this
module writes the corpus hive-partitioned by cluster
(``cluster=K/*.parquet``) so a search lists only its probed
partitions' files and the object store never sees the rest — the same
read-pruning contract as `read_parquet(columns=...)`, applied to rows.

Layout under ``path``:

* ``cluster=K/*.parquet`` — the vectors of cluster K (hive dirs; the
  cluster id ALSO rides as a regular ``cluster_id`` column because
  parquet drops partition columns from the files themselves);
* ``_ivf_centroids.parquet`` — the (k x d) centroid matrix (tiny);
* ``_ivf_meta.json`` — n_clusters, column names, row count.

Centroids come from `ops/clustering.kmeans_fit` (distributed Lloyd's,
md5-rank init) with ``n_clusters ≈ √N`` by default — the same sizing
rule the bounded near-dup bucketing uses, keeping expected cluster
size O(√N).
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from fetch_engines_ray.arrowclean import read_parquet_clean

from .clustering import kmeans_fit
from .similarity import _normalize, _to_matrix

_META = "_ivf_meta.json"
_CENTROIDS = "_ivf_centroids.parquet"


def build_ivf_index(
    ds: "ray.data.Dataset",
    path: str,
    n_clusters: Optional[int] = None,
    n_iters: int = 4,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> int:
    """Fit centroids, assign, and write the cluster-partitioned layout;
    returns the number of clusters.  One streaming pass per Lloyd
    iteration plus one assignment+write pass — nothing corpus-sized on
    the driver."""
    # refuse a populated destination BEFORE the expensive distributed
    # training passes, not after (the makedirs side effect is harmless
    # if training then fails)
    _require_fresh_index_dir(path)
    if n_clusters is None:
        # the sizing count is the only extra pass (metadata-cheap on
        # parquet-backed inputs; pass n_clusters explicitly to skip it)
        n_clusters = max(4, min(4096, int(math.isqrt(max(ds.count(), 1)))))
    cents = kmeans_fit(
        ds, n_clusters, n_iters=n_iters, seed=seed, id_col=id_col, vec_col=vec_col
    )
    ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mat = _normalize(_to_matrix(batch[vec_col]))
        best = (mat @ c.T).argmax(axis=1).astype(np.int64)
        batch = batch.append_column("cluster_id", pa.array(best, type=pa.int64()))
        # string partition key gives stable lexicographic dir names
        return batch.append_column(
            "cluster", pa.array([f"{b:05d}" for b in best], type=pa.string())
        )

    ds.map_batches(assign, batch_format="pyarrow", batch_size=8192).write_parquet(
        path, partition_cols=["cluster"]
    )
    # the row count WRITTEN, from the parquet footers (metadata only);
    # the fresh-dir refusal makes every file here this build's output
    n = sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(path))
    pq.write_table(
        pa.table(
            {
                "cluster": pa.array(range(len(cents)), type=pa.int64()),
                "centroid": pa.array([c.tolist() for c in cents], type=pa.list_(pa.float64())),
            }
        ),
        os.path.join(path, _CENTROIDS),
    )
    with open(os.path.join(path, _META), "w") as f:
        json.dump(
            {"n_clusters": int(len(cents)), "id_col": id_col, "vec_col": vec_col, "n": n},
            f,
        )
    return int(len(cents))


def _require_fresh_index_dir(path: str) -> None:
    """Refuse to BUILD into a directory that already holds index files:
    write_parquet appends uniquely-named files, so a rebuild would MIX
    stale partitions (assigned under the obsolete centroids) into the
    new index — searches would score old rows twice while the meta
    under-reports n.  A periodic rebuild goes to a fresh path (then
    swap)."""
    if os.path.isdir(path) and _parquet_files(path):
        raise ValueError(
            f"index path {path!r} already contains parquet files — rebuild "
            "into a fresh directory (then swap)"
        )
    os.makedirs(path, exist_ok=True)


def _parquet_files(path: str) -> set[str]:
    out = set()
    for root, _dirs, names in os.walk(path):
        out.update(os.path.join(root, n) for n in names if n.endswith(".parquet"))
    return out


def probed_partitions(
    path: str, query_vecs: np.ndarray, nprobe: int
) -> tuple[list[str], np.ndarray, dict]:
    """Driver-side probe planning (centroids are tiny): the parquet
    files of the hive partitions a query set needs, the per-query probe
    matrix, and the index meta."""
    with open(os.path.join(path, _META)) as f:
        meta = json.load(f)
    ctab = pq.read_table(os.path.join(path, _CENTROIDS))
    cents = np.asarray([np.asarray(v) for v in ctab["centroid"].to_pylist()])
    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    nprobe = min(nprobe, len(cents))
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]  # [Q, nprobe]
    files = []
    for c in sorted(set(probes.reshape(-1).tolist())):
        d = os.path.join(path, f"cluster={c:05d}")
        if os.path.isdir(d):  # empty clusters have no dir
            files.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
            )
    return files, probes, meta


def search_ivf_index(
    path: str,
    query_vecs: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
) -> pd.DataFrame:
    """Approximate cosine top-k over the persistent index.  Returns
    (query_idx, neighbor_id, rank) with query_idx the row position in
    ``query_vecs``; ties break by neighbor_id (deterministic).

    Only the probed ``cluster=K/`` partitions are read — the rest of
    the corpus never leaves storage."""
    dirs, probes, meta = probed_partitions(path, query_vecs, nprobe)
    id_col, vec_col = meta["id_col"], meta["vec_col"]
    if not dirs:
        return pd.DataFrame(columns=["query_idx", "neighbor_id", "rank"])
    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    q_ref = ray.put((qmat, probes))

    def local_topk(batch: pa.Table) -> pa.Table:
        qmat_l, probes_l = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        clusters = batch["cluster_id"].to_numpy(zero_copy_only=False)
        mat = _normalize(_to_matrix(batch[vec_col]))
        sims = qmat_l @ mat.T  # [Q, n]
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qmat_l)):
            cand = np.nonzero(np.isin(clusters, probes_l[qi]))[0]
            if len(cand) == 0:
                continue
            # deterministic k-th-boundary ties: (sim desc, id asc) —
            # argpartition would keep whichever tied candidate lands
            # first in memory order, varying with file/batch layout
            order = np.lexsort((ids[cand], -sims[qi, cand]))[: min(k, len(cand))]
            top = cand[order]
            out_q.extend([qi] * len(top))
            out_n.extend(ids[top].tolist())
            out_s.extend(sims[qi, top].tolist())
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    cand = (
        read_parquet_clean(dirs, columns=[id_col, "cluster_id", vec_col])
        .map_batches(local_topk, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    cand.sort_values(
        ["query_idx", "sim", "neighbor_id"], ascending=[True, False, True], inplace=True
    )
    topk = cand.groupby("query_idx", sort=True).head(k).copy()
    topk["rank"] = topk.groupby("query_idx").cumcount() + 1
    return topk[["query_idx", "neighbor_id", "rank"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVFPQ: the compressed variant (Jégou et al. 2011; FAISS IndexIVFPQ
# analog with by_residual=False).  The partition files store ONLY
# (id, cluster_id, pq_code) — m bytes per vector instead of the full
# embedding — so at 100 TB the index itself shrinks ~32x and a probe
# reads kilobytes per cluster.  Search is ADC over the probed
# partitions; the exactness oracle stays `similarity.knn_bruteforce`.
# ---------------------------------------------------------------------------

_PQ_CODEBOOKS = "_ivf_pq_codebooks.parquet"


def build_ivfpq_index(
    ds: "ray.data.Dataset",
    path: str,
    n_clusters: Optional[int] = None,
    pq_m: int = 8,
    pq_ksub: int = 256,
    n_iters: int = 4,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    residual: bool = False,
    pq_sample_size: int = 16384,
) -> int:
    """Build the compressed index: distributed coarse centroids, PQ
    codebooks from a seeded sample, then ONE assign+encode+write pass.
    Returns the number of coarse clusters.

    ``residual=True`` is the published IVFADC form (Jégou, Douze,
    Schmid, "Product Quantization for Nearest Neighbor Search", TPAMI
    2011 §IV): codebooks are trained on — and codes store — the
    RESIDUAL ``v - centroid[assign(v)]`` instead of the raw vector.
    Residuals are much smaller in norm than the vectors, so the same
    m-byte budget quantizes them far more finely.  With the family's
    inner-product metric the search-side correction is exact and cheap:
    ``q·v ≈ q·c + q·r`` — the global ADC lookup table is unchanged and
    each candidate just adds the scalar ``q·centroid[cluster]`` (a
    Q × n_clusters driver matrix), no per-cluster tables needed."""
    from .pq import pq_train, pq_train_matrix

    # same entry-time refusal as build_ivf_index: fail on a populated
    # destination before kmeans + PQ codebook training are paid for
    _require_fresh_index_dir(path)
    if n_clusters is None:
        n_clusters = max(4, min(4096, int(math.isqrt(max(ds.count(), 1)))))
    cents = kmeans_fit(
        ds, n_clusters, n_iters=n_iters, seed=seed, id_col=id_col, vec_col=vec_col
    )
    if residual:
        from .pq import sample_matrix

        smat = sample_matrix(ds, pq_sample_size, seed, vec_col)
        res = smat - cents[(smat @ cents.T).argmax(axis=1)]
        codebooks = pq_train_matrix(res, m=pq_m, ksub=pq_ksub, seed=seed)
    else:
        codebooks = pq_train(
            ds, m=pq_m, ksub=pq_ksub, sample_size=pq_sample_size, seed=seed, vec_col=vec_col
        )
    ref = ray.put((cents, codebooks))
    m, ksub, dsub = codebooks.shape

    def assign_encode(batch: pa.Table) -> pa.Table:
        # normalize → coarse assign → optional residual → per-subspace
        # nearest code
        c, cb = ray.get(ref)
        mat = _normalize(_to_matrix(batch[vec_col]))
        best = (mat @ c.T).argmax(axis=1).astype(np.int64)
        enc = mat - c[best] if residual else mat
        codes = np.empty((len(mat), m), dtype=np.uint8)
        for j in range(m):
            sub = enc[:, j * dsub : (j + 1) * dsub]
            d = -2.0 * (sub @ cb[j].T) + (cb[j] ** 2).sum(axis=1)
            codes[:, j] = d.argmin(axis=1)
        return pa.table(
            {
                id_col: batch[id_col],
                "cluster_id": pa.array(best, type=pa.int64()),
                "pq_code": pa.array([r.tobytes() for r in codes], type=pa.binary()),
                "cluster": pa.array([f"{b:05d}" for b in best], type=pa.string()),
            }
        )

    ds.map_batches(assign_encode, batch_format="pyarrow", batch_size=8192).write_parquet(
        path, partition_cols=["cluster"]
    )
    # the entry-time fresh-dir refusal guarantees every parquet file
    # here is this build's output
    n = sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(path))
    pq.write_table(
        pa.table(
            {
                "cluster": pa.array(range(len(cents)), type=pa.int64()),
                "centroid": pa.array([c.tolist() for c in cents], type=pa.list_(pa.float64())),
            }
        ),
        os.path.join(path, _CENTROIDS),
    )
    pq.write_table(
        pa.table(
            {
                "subspace": pa.array(
                    np.repeat(np.arange(m), ksub), type=pa.int64()
                ),
                "code": pa.array(np.tile(np.arange(ksub), m), type=pa.int64()),
                "centroid": pa.array(
                    [codebooks[j, i].tolist() for j in range(m) for i in range(ksub)],
                    type=pa.list_(pa.float64()),
                ),
            }
        ),
        os.path.join(path, _PQ_CODEBOOKS),
    )
    with open(os.path.join(path, _META), "w") as f:
        json.dump(
            {
                "n_clusters": int(len(cents)),
                "id_col": id_col,
                "vec_col": vec_col,
                "n": n,
                "pq_m": int(m),
                "pq_ksub": int(ksub),
                "pq_dsub": int(dsub),
                "residual": bool(residual),
            },
            f,
        )
    return int(len(cents))


def _load_pq_codebooks(path: str, meta: dict) -> np.ndarray:
    tab = pq.read_table(os.path.join(path, _PQ_CODEBOOKS))
    m, ksub, dsub = meta["pq_m"], meta["pq_ksub"], meta["pq_dsub"]
    cb = np.empty((m, ksub, dsub), dtype=np.float64)
    subs = tab["subspace"].to_numpy()
    codes = tab["code"].to_numpy()
    for row, vec in enumerate(tab["centroid"].to_pylist()):
        cb[subs[row], codes[row]] = vec
    return cb


def search_ivfpq_index(
    path: str,
    query_vecs: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
) -> pd.DataFrame:
    """ADC top-k over the compressed index: probed partitions only,
    m-byte codes scored with a broadcast per-query lookup table.
    Returns (query_idx, neighbor_id, rank) like `search_ivf_index`."""
    dirs, probes, meta = probed_partitions(path, query_vecs, nprobe)
    if "pq_m" not in meta:
        raise ValueError(f"{path} is not an IVFPQ index (no pq meta)")
    if not dirs:
        return pd.DataFrame(columns=["query_idx", "neighbor_id", "rank"])
    id_col = meta["id_col"]
    m, dsub = meta["pq_m"], meta["pq_dsub"]
    codebooks = _load_pq_codebooks(path, meta)
    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    luts = np.stack(
        [
            np.stack([qv[j * dsub : (j + 1) * dsub] @ codebooks[j].T for j in range(m)])
            for qv in qmat
        ]
    )
    if meta.get("residual"):
        # IVFADC correction: codes store residuals, so the LUT sum is
        # q·r; add the exact per-(query, cluster) scalar q·centroid
        ctab = pq.read_table(os.path.join(path, _CENTROIDS))
        cents = np.asarray([np.asarray(v) for v in ctab["centroid"].to_pylist()])
        qc = qmat @ cents.T  # [Q, n_clusters] — driver-tiny
    else:
        qc = np.zeros((len(qmat), int(meta["n_clusters"])))
    q_ref = ray.put((luts, probes, qc))
    cols = np.arange(m)

    def local_topk(batch: pa.Table) -> pa.Table:
        luts_l, probes_l, qc_l = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        clusters = batch["cluster_id"].to_numpy(zero_copy_only=False)
        raw = b"".join(batch["pq_code"].to_pylist())
        codes = np.frombuffer(raw, dtype=np.uint8).reshape(len(ids), m)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(luts_l)):
            cand = np.nonzero(np.isin(clusters, probes_l[qi]))[0]
            if len(cand) == 0:
                continue
            sims = luts_l[qi][cols, codes[cand]].sum(axis=1) + qc_l[qi, clusters[cand]]
            order = np.lexsort((ids[cand], -sims))[: min(k, len(cand))]
            top = cand[order]
            out_q.extend([qi] * len(top))
            out_n.extend(ids[top].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    cand = (
        read_parquet_clean(dirs, columns=[id_col, "cluster_id", "pq_code"])
        .map_batches(local_topk, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
    )
    cand.sort_values(
        ["query_idx", "sim", "neighbor_id"], ascending=[True, False, True], inplace=True
    )
    topk = cand.groupby("query_idx", sort=True).head(k).copy()
    topk["rank"] = topk.groupby("query_idx").cumcount() + 1
    return topk[["query_idx", "neighbor_id", "rank"]].reset_index(drop=True)
