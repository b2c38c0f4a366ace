"""Distributed link-graph analytics: PageRank over an edge Dataset.

Public-knowledge basis: Page, Brin, Motwani, Winograd, "The PageRank
Citation Ranking" (1999).  Web-corpus curation uses link-graph authority
as a quality prior (e.g. Common-Crawl-derived corpora filter or weight
by harmonic centrality / PageRank), so the engine carries it.

Ray-Data shape (one streaming pass per power iteration — the same
posture as ``ops/clustering.kmeans_fit``):

- edges live as a ``(src, dst)`` Dataset; out-degrees are ONE groupby,
  joined onto the edge table once up front (degree rides the edge row
  through every iteration instead of re-joining per pass);
- each iteration: ``map_batches`` computes per-edge contributions
  ``rank[src] / deg[src]`` against the BROADCAST rank vector (ranks are
  node-count-sized, not edge-count-sized — broadcastable far beyond the
  point where edges stop fitting anywhere), then ONE
  ``groupby(dst).sum`` shuffle builds the next vector;
- dangling-node mass and the teleport term are folded in driver-side
  (scalars).  The rank table is the only driver-resident state —
  ``O(nodes)``; :func:`pagerank_distributed` is the handoff for graphs
  whose node set outgrows the driver (ranks live as a Dataset, each
  iteration is a partitioned attach + groupby-sum, driver state is
  three scalars).

Determinism: ranks are float64; per-iteration sums run through Ray's
Sum aggregate (block-order dependent at the ULP level, like every
distributed float sum).  The pytest pins parity with a single-process
reference to 1e-9 and exact rank ORDER on fixtures.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray


def _node_batch_unique(batch: pa.Table) -> pa.Table:
    """Per-batch distinct node ids from (src, dst) — shared by the
    driver-resident and distributed node enumerations."""
    u = np.unique(
        np.concatenate(
            [
                batch["src"].to_numpy(zero_copy_only=False),
                batch["dst"].to_numpy(zero_copy_only=False),
            ]
        )
    )
    return pa.table({"node": pa.array(u, type=pa.int64())})


def _node_index(edges: "ray.data.Dataset") -> np.ndarray:
    """Sorted unique node ids (src ∪ dst): two per-batch unique passes
    + one distinct groupby — node-table sized on the driver."""
    from ray.data.aggregate import Count

    distinct = (
        edges.map_batches(_node_batch_unique, batch_format="pyarrow", batch_size=8192)
        .groupby("node")
        .aggregate(Count(alias_name="_c"))
        .to_pandas()
    )
    if distinct.empty:  # empty graph: ray drops columns on empty frames
        return np.empty(0, dtype=np.int64)
    return np.sort(distinct["node"].to_numpy().astype(np.int64))


def pagerank(
    edges: "ray.data.Dataset",
    damping: float = 0.85,
    n_iters: int = 20,
    tol: float = 1e-9,
) -> pd.DataFrame:
    """PageRank over ``(src:int64, dst:int64)`` edges; returns
    ``(node, rank)`` summing to 1.0 (driver-resident: O(nodes))."""
    import ray
    from ray.data.aggregate import Count, Sum

    node_ids = _node_index(edges)
    n = len(node_ids)
    if n == 0:
        return pd.DataFrame({"node": pd.Series(dtype="int64"), "rank": pd.Series(dtype="float64")})

    deg = (
        edges.groupby("src").aggregate(Count(alias_name="deg")).to_pandas()
    )  # O(nodes) rows
    deg_map = np.zeros(n, dtype=np.int64)
    deg_map[np.searchsorted(node_ids, deg["src"].to_numpy())] = deg["deg"].to_numpy()

    rank = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        # one broadcast per iteration: (node index, out-degrees, ranks)
        # — all O(nodes); the closure captures only the ObjectRef
        state_ref = ray.put((node_ids, deg_map, rank))

        def contribs(batch: pa.Table, ref=state_ref) -> pa.Table:
            ids_l, deg_l, r_l = ray.get(ref)
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            si = np.searchsorted(ids_l, src)
            # per-batch pre-aggregation by dst before the shuffle
            d_u, inv = np.unique(dst, return_inverse=True)
            acc = np.zeros(len(d_u))
            np.add.at(acc, inv, r_l[si] / np.maximum(deg_l[si], 1))
            return pa.table(
                {"dst": pa.array(d_u, type=pa.int64()), "c": pa.array(acc, type=pa.float64())}
            )

        summed = (
            edges.map_batches(contribs, batch_format="pyarrow", batch_size=8192)
            .groupby("dst")
            .aggregate(Sum("c", alias_name="c"))
            .to_pandas()
        )
        new = np.zeros(n)
        if len(summed):
            new[np.searchsorted(node_ids, summed["dst"].to_numpy())] = summed["c"].to_numpy()
        dangling = rank[deg_map == 0].sum()
        new = (1.0 - damping) / n + damping * (new + dangling / n)
        delta = float(np.abs(new - rank).max())
        rank = new
        if delta < tol:
            break
    return pd.DataFrame({"node": node_ids, "rank": rank})


def pagerank_distributed(
    edges: "ray.data.Dataset",
    damping: float = 0.85,
    n_iters: int = 20,
    tol: float = 1e-9,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """PageRank with the rank table as a DATASET — the documented
    handoff for graphs whose node set outgrows the driver (a 100-TB
    link graph has 10^9-10^10 nodes; :func:`pagerank`'s broadcast
    vector is the small-graph fast path).

    Shape per iteration (the ``dedup_clusters_distributed`` posture —
    ops/dedup.py — applied to power iteration):

    - per-edge contributions: ``edges ⋈ ranks`` on ``src`` via
      ``_partitioned_attach`` (Ray's hash join dies on partitions that
      receive zero blocks from one side — guaranteed here, because
      dangling nodes hold rank rows but never appear as ``src``), then
      per-batch pre-aggregation by ``dst`` and ONE ``groupby(dst).sum``;
    - new ranks: contributions left-attached back onto the node table
      the same way; teleport + dangling mass folded in per batch;
    - driver-side state per iteration is three SCALARS (node count,
      dangling mass, max |delta|); the rank table is materialized per
      iteration so the plan does not deepen.

    Returns a ``(node:int64, rank:float64)`` Dataset summing to 1.0.
    The pytest pins parity with :func:`pagerank` at 1e-9.
    """
    from ray.data.aggregate import Count, Sum

    from fetch_engines_ray.ops.dedup import _partitioned_attach

    nodes = (
        edges.map_batches(_node_batch_unique, batch_format="pyarrow", batch_size=8192)
        .groupby("node")
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
    )
    n = nodes.count()
    if n == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table({"node": pa.array([], type=pa.int64()), "rank": pa.array([], type=pa.float64())})
        )

    deg = edges.groupby("src").aggregate(Count(alias_name="deg"))
    with_deg = _partitioned_attach(
        nodes,
        deg,
        key_col="node",
        carry=[("node", pa.int64())],
        value_col="deg",
        value_type=pa.int64(),
        out_col="deg",
        n_parts=n_parts,
        how="left",
        lookup_key="src",
    )

    def init_rank(batch: pd.DataFrame) -> pa.Table:
        # left-attach null-pads deg (pandas float64) — counts are small,
        # exact in float64, cast back before anything else sees them.
        # Arrow outputs throughout: Ray's pandas→Arrow block conversion
        # attaches schema metadata that defeats block-schema dedup
        return pa.table(
            {
                "node": pa.array(batch["node"].astype("int64"), type=pa.int64()),
                "deg": pa.array(batch["deg"].fillna(0).astype("int64"), type=pa.int64()),
                "rank": pa.array(np.full(len(batch), 1.0 / n), type=pa.float64()),
            }
        )

    ranks = with_deg.map_batches(init_rank, batch_format="pandas").materialize()

    def to_contrib(batch: pa.Table) -> pa.Table:
        deg = batch["deg"].to_numpy(zero_copy_only=False)
        rank = batch["rank"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": batch["node"],
                "cpe": pa.array(rank / np.maximum(deg, 1), type=pa.float64()),
            }
        )

    def preagg_dst(batch: pd.DataFrame) -> pa.Table:
        d_u, inv = np.unique(batch["dst"].to_numpy(), return_inverse=True)
        acc = np.zeros(len(d_u))
        np.add.at(acc, inv, batch["c"].to_numpy())
        return pa.table(
            {
                "dst": pa.array(d_u.astype("int64"), type=pa.int64()),
                "c": pa.array(acc, type=pa.float64()),
            }
        )

    for _ in range(n_iters):
        dangling = ranks.filter(expr="deg == 0").sum("rank") or 0.0
        attached = _partitioned_attach(
            edges,
            ranks.map_batches(to_contrib, batch_format="pyarrow"),
            key_col="src",
            carry=[("dst", pa.int64())],
            value_col="cpe",
            value_type=pa.float64(),
            out_col="c",
            n_parts=n_parts,
            how="inner",
            lookup_key="node",
        )
        sums = (
            attached.map_batches(preagg_dst, batch_format="pandas")
            .groupby("dst")
            .aggregate(Sum("c", alias_name="c"))
        )
        joined = _partitioned_attach(
            ranks,
            sums,
            key_col="node",
            carry=[("node", pa.int64()), ("deg", pa.int64()), ("rank", pa.float64())],
            value_col="c",
            value_type=pa.float64(),
            out_col="c",
            n_parts=n_parts,
            how="left",
            lookup_key="dst",
        )

        def step(batch: pd.DataFrame, dang=dangling) -> pa.Table:
            old = batch["rank"].to_numpy()
            new = (1.0 - damping) / n + damping * (
                batch["c"].fillna(0.0).to_numpy() + dang / n
            )
            return pa.table(
                {
                    "node": pa.array(batch["node"].astype("int64"), type=pa.int64()),
                    "deg": pa.array(batch["deg"].astype("int64"), type=pa.int64()),
                    "rank": pa.array(new, type=pa.float64()),
                    "delta": pa.array(np.abs(new - old), type=pa.float64()),
                }
            )

        stepped = joined.map_batches(step, batch_format="pandas").materialize()
        delta = stepped.max("delta")
        ranks = stepped.drop_columns(["delta"])  # lazy projection over the materialized base
        if delta < tol:
            break
    return ranks.drop_columns(["deg"])


def pagerank_reference(
    edge_list: list[tuple[int, int]],
    damping: float = 0.85,
    n_iters: int = 20,
    tol: float = 1e-9,
) -> pd.DataFrame:
    """Single-process power iteration (pytest parity pin)."""
    nodes = np.sort(np.unique(np.asarray(edge_list).reshape(-1)))
    n = len(nodes)
    idx = {int(v): i for i, v in enumerate(nodes)}
    deg = np.zeros(n, dtype=np.int64)
    for s, _ in edge_list:
        deg[idx[s]] += 1
    rank = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        new = np.zeros(n)
        for s, d in edge_list:
            new[idx[d]] += rank[idx[s]] / deg[idx[s]]
        dangling = rank[deg == 0].sum()
        new = (1.0 - damping) / n + damping * (new + dangling / n)
        delta = float(np.abs(new - rank).max())
        rank = new
        if delta < tol:
            break
    return pd.DataFrame({"node": nodes, "rank": rank})
