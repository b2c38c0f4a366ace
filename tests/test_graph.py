"""Distributed PageRank (ops/graph.py): parity with the single-process
power iteration, authority ordering on a hub fixture, dangling-node
mass conservation, and empty/degenerate graphs."""

import numpy as np
import pandas as pd
import pytest


def _hub_graph():
    # 0 is an authority: everyone links to it; 1 links out only; a
    # chain 2->3->4 and a dangling node 9 (no out-links)
    edges = [(i, 0) for i in range(1, 8)]
    edges += [(2, 3), (3, 4), (0, 9)]
    return edges


def _ds(edges):
    import ray.data

    return ray.data.from_pandas(
        pd.DataFrame(edges, columns=["src", "dst"]).astype("int64")
    ).repartition(4)


def test_pagerank_matches_reference(ray_session):
    from fetch_engines_ray.ops.graph import pagerank, pagerank_reference

    edges = _hub_graph()
    got = pagerank(_ds(edges), n_iters=30).sort_values("node").reset_index(drop=True)
    want = pagerank_reference(edges, n_iters=30).sort_values("node").reset_index(drop=True)
    assert got["node"].tolist() == want["node"].tolist()
    assert np.allclose(got["rank"], want["rank"], atol=1e-9)


def test_pagerank_mass_and_order(ray_session):
    from fetch_engines_ray.ops.graph import pagerank

    out = pagerank(_ds(_hub_graph()), n_iters=40)
    assert abs(out["rank"].sum() - 1.0) < 1e-9  # dangling mass conserved
    by = dict(zip(out["node"], out["rank"]))
    # the authority out-ranks everything
    assert by[0] == max(by.values())
    # node 9 (linked only from the authority) out-ranks a mid-chain node
    assert by[9] > by[3] > by[1]


def test_pagerank_larger_random_graph_parity(ray_session):
    from fetch_engines_ray.ops.graph import pagerank, pagerank_reference

    rng = np.random.RandomState(41)
    edges = list({(int(a), int(b)) for a, b in rng.randint(0, 200, size=(3000, 2)) if a != b})
    got = pagerank(_ds(edges), n_iters=25).sort_values("node").reset_index(drop=True)
    want = pagerank_reference(edges, n_iters=25).sort_values("node").reset_index(drop=True)
    assert np.allclose(got["rank"], want["rank"], atol=1e-9)


def test_pagerank_distributed_matches_broadcast(ray_session, both_join_paths):
    """The join-based rank-table form must match the broadcast-vector
    fast path at 1e-9 — hub fixture (dangling node, authority) AND a
    random graph, with its attaches broadcast and partitioned."""
    from fetch_engines_ray.ops.graph import pagerank, pagerank_distributed

    # fixed iteration count on both forms: parity is per-iteration, so
    # it pins the whole update rule without waiting for convergence
    cases = (
        (_hub_graph(), 12),
        (
            list(
                {
                    (int(a), int(b))
                    for a, b in np.random.RandomState(43).randint(0, 150, size=(2000, 2))
                    if a != b
                }
            ),
            6,
        ),
    )
    for limit in both_join_paths():
        for edges, iters in cases:
            got = (
                pagerank_distributed(_ds(edges), n_iters=iters)
                .to_pandas()
                .sort_values("node")
                .reset_index(drop=True)
            )
            want = pagerank(_ds(edges), n_iters=iters).sort_values("node").reset_index(drop=True)
            assert got["node"].tolist() == want["node"].tolist(), limit
            assert np.allclose(got["rank"], want["rank"], atol=1e-9), limit
            assert abs(got["rank"].sum() - 1.0) < 1e-9, limit


def test_pagerank_distributed_single_pair(ray_session, both_join_paths):
    """Tiny sparse graph (1 edge, 1 dangling node) — exactly the shape
    that kills Ray's hash join with schema-less empty partitions; both
    attach paths must survive it."""
    from fetch_engines_ray.ops.graph import pagerank, pagerank_distributed

    edges = [(7, 13)]
    want = pagerank(_ds(edges), n_iters=4).sort_values("node")
    for limit in both_join_paths():
        got = pagerank_distributed(_ds(edges), n_iters=4).to_pandas().sort_values("node")
        assert np.allclose(got["rank"].to_numpy(), want["rank"].to_numpy(), atol=1e-9), limit


def test_pagerank_distributed_empty_graph(ray_session, both_join_paths):
    import ray.data

    from fetch_engines_ray.ops.graph import pagerank_distributed

    empty = ray.data.from_pandas(
        pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
    )
    for limit in both_join_paths():
        assert pagerank_distributed(empty).count() == 0, limit


def test_pagerank_empty_graph(ray_session):
    import ray.data

    from fetch_engines_ray.ops.graph import pagerank

    empty = ray.data.from_pandas(
        pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
    )
    out = pagerank(empty)
    assert out.empty
