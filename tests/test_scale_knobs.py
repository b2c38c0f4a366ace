"""Real-scale knobs under test (round-1 deferred list): mega-doc block
splitting via DataContext.target_max_block_size, and warm-stage worker
crash recovery (A3 pool-health analog — Ray Data task retry)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc


def _mega_doc(doc_id: str, mb: int = 10) -> dict:
    para = "<p>" + ("Substantial sentence with many words in it. " * 40) + "</p>"
    n = (mb * 1024 * 1024) // len(para)
    return {
        "doc_id": doc_id,
        "spans": [
            {
                "kind": "html",
                "text": "<html><body><main><h1>Mega</h1>" + para * n + "</main></body></html>",
                "media_ref": "",
                "offset": 0,
            }
        ],
        "base_url": "",
        "archetype": "mega",
        "expected_route": "",
    }


def test_mega_doc_flows_with_block_splitting(ray_session, tmp_path):
    """A ~10 MB document must flow through extraction without producing
    one straggling fat block: with target_max_block_size clamped down,
    Ray's dynamic block splitting isolates the mega output."""
    import ray.data
    from ray.data.context import DataContext

    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    rows = [make_doc(i, 13) for i in range(8)] + [_mega_doc("mega-1", mb=10)]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{tmp_path}/p.parquet")

    ctx = DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 2 * 1024 * 1024  # 2 MiB
    try:
        out = extract_corpus(str(tmp_path), PipelineConfig(batch_size=4)).materialize()
        rows_out = {r["doc_id"]: r for r in out.take_all()}
        assert len(rows_out) == 9
        assert rows_out["mega-1"]["n_out_chars"] > 5 * 1024 * 1024
        # a block cannot be smaller than one row, so the 10 MB doc IS a
        # fat block — but dynamic splitting must ISOLATE it: any block
        # over the clamped target holds exactly that one row, and no
        # sibling doc straggles behind the mega output
        metas = [
            m for bundle in out.iter_internal_ref_bundles() for m in bundle.metadata
        ]
        assert len(metas) >= 3
        for m in metas:
            if (m.size_bytes or 0) > ctx.target_max_block_size:
                assert m.num_rows == 1  # the mega row, alone in its block
    finally:
        ctx.target_max_block_size = prev


def test_warm_task_crash_is_recovered(ray_session, tmp_path):
    """A worker process that dies inside the warm stage must not lose or
    duplicate docs: Ray Data retries the failed task (its default task
    ``max_retries=-1``), so the fast → warm task chain completes with
    every doc exactly once and the same spans as a clean run (reference
    A3 pool health-check analog)."""
    import ray.data

    from fetch_engines_ray.stages.extract import extract_fast_batch, warm_extract_batch
    from fetch_engines_ray.state.lineage import span_hash_for_doc

    # defined LOCALLY so cloudpickle serializes the function by value — a
    # fresh worker process cannot import the pytest module
    def crash_once_warm(batch: pa.Table, marker: str) -> pa.Table:
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("crashed")
            os._exit(1)  # simulate a warm-stage worker dying mid-task
        return warm_extract_batch(batch)

    rows = [make_doc(i, 17) for i in range(16)]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{tmp_path}/p.parquet")
    marker = str(tmp_path / "crash_marker")

    def signatures(warm_fn, **fn_kwargs) -> list:
        out = (
            ray.data.read_parquet(f"{tmp_path}/p.parquet")
            .map_batches(extract_fast_batch, batch_format="pyarrow", batch_size=4)
            .map_batches(warm_fn, fn_kwargs=fn_kwargs, batch_format="pyarrow", batch_size=4)
            .take_all()
        )
        return sorted((r["doc_id"], span_hash_for_doc(r["doc_id"], r["out_spans"])) for r in out)

    crashed = signatures(crash_once_warm, marker=marker)
    assert os.path.exists(marker)  # the crash really happened
    # every doc exactly once
    assert [d for d, _ in crashed] == sorted(r["doc_id"] for r in rows)
    assert crashed == signatures(warm_extract_batch)
