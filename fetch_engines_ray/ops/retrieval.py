"""Distributed BM25 keyword retrieval.

Public-knowledge basis: Robertson & Zaragoza, "The Probabilistic
Relevance Framework: BM25 and Beyond" (FnTIR 2009) — the standard
keyword-relevance score.  A training-data engine needs it for targeted
corpus slicing ("every document about X") and keyword/vector hybrid
retrieval next to the vector-search family.

Ray-Data shape:

- corpus statistics are ONE pass: per-batch partial document-frequency
  rows (distinct terms per doc, pre-aggregated per batch before the
  shuffle, exactly like ``textstats.word_counts``) plus a tiny
  ``(n_docs, total_len)`` reduce for the average document length;
- only the QUERY terms' statistics are kept (a query touches a handful
  of terms), broadcast once via ``ray.put``;
- scoring is one stateless ``map_batches`` pass (vectorized term
  counting against the query vocabulary), with per-block top-k partials
  before the final ``sort.limit`` reduce.

Scores are computed in float64 from exact integer inputs with a fixed
per-term summation order (query-term order), so results are
deterministic and partitioning-invariant; ties break by doc id.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray


def _tokenize(text: Optional[str]) -> list[str]:
    # Reserved namespace: whitespace-split tokens beginning with NUL
    # (backslash-x00) are EXCLUDED from every statistic (binary garbage,
    # not language), which makes the NUL-prefixed sentinel rows
    # collision-proof by construction -- a real NUL-prefixed token once
    # corrupted the aggregate totals silently.
    return [w for w in (text or "").lower().split() if not w.startswith("\x00")]


def corpus_stats(
    ds: "ray.data.Dataset",
    query_terms: Sequence[str],
    text_col: str = "text",
) -> tuple[dict[str, int], int, float]:
    """One distributed pass: document frequencies for the QUERY terms
    only, corpus size, and average document length."""
    from ray.data.aggregate import Sum

    terms = sorted(set(t.lower() for t in query_terms))
    term_arr = np.asarray(terms, dtype=object)

    def partial(batch: pa.Table) -> pa.Table:
        df_counts = np.zeros(len(terms), dtype=np.int64)
        n_docs = 0
        total_len = 0
        for t in batch[text_col].to_pylist():
            toks = _tokenize(t)
            n_docs += 1
            total_len += len(toks)
            if toks:
                present = np.isin(term_arr, np.unique(np.asarray(toks, dtype=object)))
                df_counts += present
        rows = {
            "term": pa.array(terms + ["\x00n_docs", "\x00total_len"], type=pa.string()),
            "n": pa.array(
                np.concatenate([df_counts, [n_docs, total_len]]), type=pa.int64()
            ),
        }
        return pa.table(rows)

    rolled = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    stats = dict(zip(rolled["term"], rolled["n"].astype(int)))
    n_docs = stats.pop("\x00n_docs", 0)
    total_len = stats.pop("\x00total_len", 0)
    avgdl = (total_len / n_docs) if n_docs else 0.0
    return stats, n_docs, avgdl


def _idf(df: int, n_docs: int) -> float:
    # BM25+-style floor at 0 via the standard Robertson idf with 0.5s
    return max(0.0, math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0))


def bm25_topk(
    ds: "ray.data.Dataset",
    query: str,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """BM25 top-k documents for one query string (stats computed in one
    corpus pass per call — see :func:`build_bm25_stats` +
    :func:`bm25_topk_indexed` for repeated-query workloads).

    Returns ``(doc_id, score_x1e6, rank)`` — the score rides as integer
    micro-units (round-half-away) so downstream hash comparisons are
    representation-stable."""
    terms = sorted(set(_tokenize(query)))
    if not terms:
        return pd.DataFrame(columns=[id_col, "score_x1e6", "rank"])
    dfs, n_docs, avgdl = corpus_stats(ds, terms, text_col)
    return _score_topk(ds, terms, dfs, n_docs, avgdl, k, k1, b, id_col, text_col)


def _score_topk(
    ds: "ray.data.Dataset",
    terms: list[str],
    dfs: dict[str, int],
    n_docs: int,
    avgdl: float,
    k: int,
    k1: float,
    b: float,
    id_col: str,
    text_col: str,
) -> pd.DataFrame:
    """Shared scoring pass: broadcast (terms, idf, avgdl), vectorized
    per-batch term counting, per-block top-k partials, tiny final
    reduce.  Both the one-shot and the indexed entry points run THIS, so
    their results are identical by construction."""
    import ray

    idf = np.asarray([_idf(dfs.get(t, 0), n_docs) for t in terms])
    bc = ray.put((np.asarray(terms, dtype=object), idf, float(avgdl)))

    def block_topk(batch: pa.Table) -> pa.Table:
        terms_l, idf_l, avgdl_l = ray.get(bc)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        tf = np.zeros((len(ids), len(terms_l)), dtype=np.float64)
        dl = np.zeros(len(ids), dtype=np.float64)
        for i, t in enumerate(batch[text_col].to_pylist()):
            toks = _tokenize(t)
            dl[i] = len(toks)
            if toks:
                u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
                pos = np.searchsorted(u, terms_l)
                pos = np.clip(pos, 0, len(u) - 1)
                hit = u[pos] == terms_l
                tf[i] = np.where(hit, c[pos], 0)
        denom = tf + k1 * (1.0 - b + b * dl[:, None] / (avgdl_l or 1.0))
        scores = ((tf * (k1 + 1.0)) / denom) @ idf_l
        # integer micro-units, half-away (matches the engine's money
        # convention); keep only scoring docs
        sx = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
        nz = sx > 0
        order = np.lexsort((ids[nz], -sx[nz]))[:k]
        keep = np.nonzero(nz)[0][order]
        return pa.table(
            {
                id_col: pa.array(ids[keep]),
                "score_x1e6": pa.array(sx[keep], type=pa.int64()),
            }
        )

    reduced = ds.map_batches(block_topk, batch_format="pyarrow", batch_size=4096).to_pandas()
    if reduced.empty:  # no scoring doc anywhere (ray drops empty schema)
        return pd.DataFrame(columns=[id_col, "score_x1e6", "rank"])
    reduced.sort_values(
        ["score_x1e6", id_col], ascending=[False, True], inplace=True
    )
    top = reduced.head(k).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def bm25_reference(
    docs: Sequence[tuple[int, str]],
    query: str,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """Single-process BM25 (pytest parity pin; identical arithmetic)."""
    terms = sorted(set(_tokenize(query)))
    toks = {d: _tokenize(t) for d, t in docs}
    n_docs = len(docs)
    avgdl = (sum(len(v) for v in toks.values()) / n_docs) if n_docs else 0.0
    dfs = {t: sum(1 for v in toks.values() if t in set(v)) for t in terms}
    idf = np.asarray([_idf(dfs[t], n_docs) for t in terms])
    rows = []
    for d, tk in toks.items():
        tf = np.asarray([float(tk.count(t)) for t in terms])
        denom = tf + k1 * (1.0 - b + b * len(tk) / (avgdl or 1.0))
        score = float(((tf * (k1 + 1.0)) / denom) @ idf)
        sx = int(math.floor(score * 1_000_000 + 0.5))
        if sx > 0:
            rows.append((d, sx))
    out = pd.DataFrame(rows, columns=["doc_id", "score_x1e6"]).sort_values(
        ["score_x1e6", "doc_id"], ascending=[False, True]
    )
    out = out.head(k).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out


def rrf_fuse(
    ranked: Sequence[pd.DataFrame],
    id_cols: Optional[Sequence[str]] = None,
    k: int = 60,
    topk: Optional[int] = None,
) -> pd.DataFrame:
    """Reciprocal-rank fusion of ranked result lists (Cormack, Clarke &
    Buettcher, SIGIR 2009): ``score = sum_lists 1 / (k + rank)`` — the
    standard way to combine BM25 and vector-search results without score
    calibration.

    Each input frame needs an id column (default ``doc_id``,
    ``neighbor_id`` accepted for the kNN family's output) and a ``rank``
    column.  Driver-side by design: inputs are k-sized result lists.
    Scores ride as integer nano-units summed in list order —
    deterministic, ties break by id."""
    if id_cols is None:
        id_cols = [
            "doc_id" if "doc_id" in f.columns else "neighbor_id" for f in ranked
        ]
    acc: dict = {}
    for f, idc in zip(ranked, id_cols):
        for did, rank in zip(f[idc], f["rank"]):
            acc[did] = acc.get(did, 0) + round(1e9 / (k + int(rank)))
    out = pd.DataFrame(
        sorted(acc.items(), key=lambda kv: (-kv[1], kv[0])),
        columns=["doc_id", "rrf_score_x1e9"],
    )
    if topk is not None:
        out = out.head(topk)
    out = out.reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out


# ---------------------------------------------------------------------------
# Persisted BM25 statistics artifact (repeated-query workloads)
# ---------------------------------------------------------------------------

_BM25_META = "_bm25_stats.json"


def build_bm25_stats(
    ds: "ray.data.Dataset",
    path: str,
    text_col: str = "text",
    min_df: int = 1,
    n_parts: int = 64,
) -> dict:
    """Persist corpus-wide BM25 term statistics as a READ-PRUNED
    artifact — the keyword analog of the IVF index in ``ops/ann_index``.

    One corpus pass computes per-term document frequencies (distinct
    terms per doc pre-aggregated per batch, exactly the ``word_counts``
    shuffle shape) plus ``(n_docs, total_len)`` sentinel rows; the term
    table is written hive-partitioned by a STABLE term hash
    (``part = _hash64(term) % n_parts``, fixed-key siphash — identical
    across processes), so a query later reads ONLY the partition
    directories its handful of terms hash into.  Corpus-size scalars
    live in a ``_bm25_stats.json`` sidecar.  ``min_df`` prunes the
    long tail (df below it scores ≈ the df=0 floor anyway).

    At repeated-query scale this turns the per-query cost from one full
    corpus pass (``corpus_stats``) into a few footer-planned partition
    reads; the build itself costs one word-df shuffle, paid once.
    """
    import json
    import os

    from ray.data.aggregate import Sum

    from fetch_engines_ray.ops.sketches import _hash64

    def partial(batch: pa.Table) -> pa.Table:
        doc_terms: list = []
        total_len = 0
        for t in batch[text_col].to_pylist():
            toks = _tokenize(t)
            total_len += len(toks)
            if toks:
                doc_terms.extend(set(toks))
        if doc_terms:
            u, c = np.unique(np.asarray(doc_terms, dtype=object), return_counts=True)
            words, counts = u.tolist(), c
        else:
            words, counts = [], np.zeros(0, dtype=np.int64)
        return pa.table(
            {
                "term": pa.array(words + ["\x00n_docs", "\x00total_len"], type=pa.string()),
                "n": pa.array(
                    np.concatenate([counts, [batch.num_rows, total_len]]), type=pa.int64()
                ),
            }
        )

    rolled = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()  # consumed twice below (sidecar scalars + hive write)
    )

    def sentinels_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.starts_with(batch["term"], "\x00"))

    sent = rolled.map_batches(sentinels_only, batch_format="pyarrow").to_pandas()
    scalars = dict(zip(sent["term"], sent["n"].astype(int)))
    n_docs = int(scalars.get("\x00n_docs", 0))
    total_len = int(scalars.get("\x00total_len", 0))

    def add_part(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(
            pc.and_(
                pc.invert(pc.starts_with(batch["term"], "\x00")),
                pc.greater_equal(batch["n"], min_df),
            )
        )
        part = (
            _hash64(np.asarray(batch["term"].to_pylist(), dtype=object))
            % np.uint64(n_parts)
        ).astype(np.int64)
        return batch.append_column("part", pa.array(part, type=pa.int64()))

    rolled.map_batches(add_part, batch_format="pyarrow").write_parquet(
        path, partition_cols=["part"]
    )
    meta = {
        "n_docs": n_docs,
        "total_len": total_len,
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "n_parts": n_parts,
        "min_df": min_df,
        "text_col": text_col,
    }
    with open(os.path.join(path, _BM25_META), "w") as f:
        json.dump(meta, f)
    return meta


def load_bm25_stats(
    path: str, query_terms: Sequence[str]
) -> tuple[dict[str, int], int, float]:
    """Document frequencies for ``query_terms`` from a persisted stats
    artifact: plans the term-hash partitions the terms live in and
    reads ONLY those directories (missing terms get df=0)."""
    import json
    import os

    from fetch_engines_ray.arrowclean import read_parquet_clean
    from fetch_engines_ray.ops.sketches import _hash64

    with open(os.path.join(path, _BM25_META)) as f:
        meta = json.load(f)
    terms = sorted(set(t.lower() for t in query_terms))
    if not terms:
        return {}, meta["n_docs"], meta["avgdl"]
    parts = np.unique(
        (_hash64(np.asarray(terms, dtype=object)) % np.uint64(meta["n_parts"])).astype(int)
    )
    # expand to FILES: ray.data.read_parquet only dir-expands a single
    # root path, not a list of partition directories (same planning
    # shape as ops/ann_index.probed_partitions)
    dirs: list[str] = []
    for p in parts:
        d = os.path.join(path, f"part={p}")
        if os.path.isdir(d):
            dirs.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
            )
    dfs: dict[str, int] = {}
    if dirs:
        import pyarrow.compute as pc

        want = pa.array(terms, type=pa.string())

        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["term"], value_set=want))

        hit = (
            read_parquet_clean(dirs, columns=["term", "n"])
            .map_batches(pick, batch_format="pyarrow")
            .to_pandas()
        )
        dfs = dict(zip(hit["term"], hit["n"].astype(int)))
    return dfs, meta["n_docs"], meta["avgdl"]


def bm25_topk_indexed(
    ds: "ray.data.Dataset",
    stats_path: str,
    query: str,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """BM25 top-k against a persisted stats artifact: the per-query
    corpus pass reduces to a few partition reads + the scoring pass.
    Identical results to :func:`bm25_topk` by construction (shared
    ``_score_topk``; pytest-pinned), as long as the artifact was built
    from the same corpus with ``min_df`` below the query terms' dfs."""
    terms = sorted(set(_tokenize(query)))
    if not terms:
        return pd.DataFrame(columns=[id_col, "score_x1e6", "rank"])
    dfs, n_docs, avgdl = load_bm25_stats(stats_path, terms)
    return _score_topk(ds, terms, dfs, n_docs, avgdl, k, k1, b, id_col, text_col)
