"""Near-dup drop-strategy equivalence: curate_corpus must produce the
IDENTICAL survivor set whether the drop handoff is the driver broadcast,
the auto flip, or the fully distributed semi-join — the clone-heavy
re-crawl scenario is exactly where the strategies diverge in mechanism
(corpus-scale drop mass) while the contract pins their OUTPUT equal.

Also pins minhash_dedup vs minhash_dedup_ds decision parity (the
distributed verdict pipeline: Dataset candidate pairs, two partitioned
signature-attach passes, label propagation) and the upstream-checkpoint
cleanup contract (advice finding: gated runs leaked the step-0 spill).
"""
import glob
import os

import pandas as pd
import pyarrow as pa
import pytest


def _clone_heavy_corpus(n_base: int = 60, clones_per_doc: int = 8) -> pd.DataFrame:
    """~90 % duplicate mass: each base doc plus exact clones and one
    near clone under fresh ids — the re-crawl shape."""
    rows = []
    did = 0
    for i in range(n_base):
        # long enough / stopword-bearing / sentence-terminated enough
        # to clear the Gopher gate AND the C4 line rules, so the
        # survivor comparison sees the dedup output
        body = (
            f"The document {i} is about the topic {i % 7} and covers plenty. "
            + " ".join(f"The shared corpus word {j} is of note here." for j in range(15))
            + f" The distinctive tail {i} has marker alpha beta gamma."
        )
        rows.append({"doc_id": did, "text": body})
        did += 1
        for _ in range(clones_per_doc):
            rows.append({"doc_id": did, "text": body})
            did += 1
        rows.append({"doc_id": did, "text": body + " near duplicate suffix"})
        did += 1
    return pd.DataFrame(rows)


def _survivor_ids(packed: pd.DataFrame) -> list:
    """The strategy-invariant artifact is the SURVIVOR DOC SET: packing
    is first-fit in stream order by contract (ops/packing.py — "document
    order inside each sequence follows the shard"), and the semi-join
    path legitimately re-partitions the stream, so sequence GROUPINGS
    may differ across strategies while the surviving documents and
    their token mass may not."""
    return sorted(int(i) for ids in packed["doc_ids"].tolist() for i in ids)


def test_drop_strategy_equivalence(ray_session):
    import ray.data

    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.pipelines.curate import curate_corpus

    df = _clone_heavy_corpus()

    def run(strategy: str, limit: int = 2_000_000) -> tuple:
        # limit 0 forces every key filter onto keep_by_keys' partitioned
        # path (and auto's clone guard to semi_join) on this tiny corpus
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dedup, "BROADCAST_BYTES", limit)
            packed = curate_corpus(
                ray.data.from_pandas(df).repartition(4),
                max_tokens=128,
                drop_strategy=strategy,
            ).to_pandas()
        return _survivor_ids(packed), int(packed["total_tokens"].sum())

    runs = {
        (strategy, limit): run(strategy, limit)
        for strategy in ("broadcast", "semi_join", "auto")
        for limit in (2_000_000, 0)
    }
    broadcast, tok_b = runs[("broadcast", 2_000_000)]
    for key, (survivors, tokens) in runs.items():
        assert survivors == broadcast, f"{key} survivor set diverged from broadcast"
        assert tokens == tok_b, f"{key} token mass diverged"
    # the clone mass must actually have been dropped (dedup did work)
    assert len(set(broadcast)) <= 60, f"{len(set(broadcast))} survivors — dedup no-op?"


def test_drop_strategy_validation(ray_session):
    import pytest

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["x"]}))
    with pytest.raises(ValueError, match="drop_strategy"):
        curate_corpus(ds, drop_strategy="bogus")


def test_minhash_dedup_ds_parity(ray_session):
    """Distributed verdicts == driver union-find decisions, including
    the zero-pair corpus (typed empty verdict table)."""
    import ray.data

    from fetch_engines_ray.ops.dedup import minhash_dedup, minhash_dedup_ds

    df = _clone_heavy_corpus(n_base=20, clones_per_doc=3)
    ds = ray.data.from_pandas(df).repartition(3)
    drv = (
        minhash_dedup(ds, threshold=0.7)
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "cluster_rep", "is_kept"]]
    )
    dist = (
        minhash_dedup_ds(ds, threshold=0.7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "cluster_rep", "is_kept"]]
    )
    pd.testing.assert_frame_equal(
        drv.astype({"doc_id": "int64", "cluster_rep": "int64", "is_kept": "bool"}),
        dist.astype({"doc_id": "int64", "cluster_rep": "int64", "is_kept": "bool"}),
    )

    uniq = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": range(8),
                "text": [
                    f"wholly unique doc {i} " + " ".join(f"w{i}x{j}" for j in range(30))
                    for i in range(8)
                ],
            }
        )
    )
    empty = minhash_dedup_ds(uniq, threshold=0.7)
    assert empty.count() == 0
    assert set(empty.schema().names) == {"doc_id", "cluster_rep", "is_kept"}


def test_step0_checkpoint_released_after_survivor_spill(
    ray_session, tmp_path, monkeypatch
):
    """A gated curate run (c4_clean) with a downstream eager spill
    (tokenizer clean checkpoint) must remove its step-0 spill instead of
    leaking a cleaned-corpus-sized directory (advice finding)."""
    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))
    df = _clone_heavy_corpus(n_base=10, clones_per_doc=2)
    packed = curate_corpus(
        ray.data.from_pandas(df).repartition(2),
        max_tokens=128,
        c4_clean=True,
        c4_min_words=1,
        c4_min_sentences=1,
        tokenizer="bpe",
        bpe_merges=20,
    )
    assert packed.count() > 0
    leaked = glob.glob(os.path.join(str(tmp_path), "fer_curate_step0_*"))
    assert leaked == [], f"step-0 checkpoint leaked: {leaked}"
    # the clean checkpoint legitimately stays (the returned Dataset
    # streams from it)
    assert glob.glob(os.path.join(str(tmp_path), "fer_curate_clean_*"))


def test_filter_by_keys_null_int_keys(ray_session, tmp_path):
    """One null in an int64 key batch must not degrade routing (the
    to_numpy float64 trap): non-null keys still match across sides and
    null-key rows match NOTHING — semi drops them, anti keeps them.

    keep_by_keys gives the same rows on both sides of its broadcast
    limit (forced through the one constant): semi and anti filters,
    int64 and string keys, null data and key values, a schema-less
    empty key side — and its key side executes exactly once."""
    import ray.data

    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.ops.dedup import filter_by_keys

    data = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, None, 4, 5], type=pa.int64()),
                "text": ["a", "b", "c", "d", "e"],
            }
        )
    )
    keys = ray.data.from_arrow(pa.table({"doc_id": pa.array([2, 4], type=pa.int64())}))
    semi = filter_by_keys(data, keys, "doc_id", keep_matches=True, n_parts=4).to_pandas()
    anti = filter_by_keys(data, keys, "doc_id", keep_matches=False, n_parts=4).to_pandas()
    assert sorted(semi["text"]) == ["b", "d"]
    assert sorted(anti["text"]) == ["a", "c", "e"]

    cases = [
        (pa.array([1, 2, None, 4, 5], type=pa.int64()), pa.array([2, None, 4, 9], type=pa.int64())),
        (pa.array(["v", "w", None, "y", "z"]), pa.array(["w", None, "y", "q"])),
        # key side cast to the data key type
        (pa.array([1, 2, None, 4, 5], type=pa.int32()), pa.array([2, None, 4, 9], type=pa.int64())),
    ]
    small = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int64()), "text": ["a", "b"]}))
    empty = ray.data.from_items([{"k": 1}]).filter(expr="k > 1").groupby("k").count()

    def record(batch: pa.Table) -> pa.Table:
        # one line per execution of the (single-block) key side
        with open(tmp_path / "key_side_runs", "a") as f:
            f.write("run\n")
        return batch

    for limit in (dedup.BROADCAST_BYTES, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dedup, "BROADCAST_BYTES", limit)
            for data_keys, key_values in cases:
                data = ray.data.from_arrow(pa.table({"k": data_keys, "text": list("abcde")}))
                keys = ray.data.from_arrow(pa.table({"key": key_values}))
                semi = dedup.keep_by_keys(data, keys, "k", keep=True, keys_col="key")
                anti = dedup.keep_by_keys(data, keys, "k", keep=False, keys_col="key")
                assert sorted(semi.to_pandas()["text"]) == ["b", "d"], limit
                assert sorted(anti.to_pandas()["text"]) == ["a", "c", "e"], limit

            assert dedup.keep_by_keys(small, empty, "k", keep=True).count() == 0
            kept = dedup.keep_by_keys(small, empty, "k", keep=False)
            assert sorted(kept.to_pandas()["text"]) == ["a", "b"]

            (tmp_path / "key_side_runs").write_text("")
            keys = ray.data.from_arrow(pa.table({"k": pa.array([2], type=pa.int64())}))
            keys = keys.map_batches(record, batch_format="pyarrow", batch_size=None)
            kept = dedup.keep_by_keys(small, keys, "k", keep=True)
            assert kept.to_pandas()["text"].tolist() == ["b"]
            assert (tmp_path / "key_side_runs").read_text().count("run") == 1, limit


def test_broadcast_key_lookup_built_once(ray_session):
    """The broadcast filter hashes its key set once per worker process
    and data key type, then reuses it for every batch — not once per
    batch, which made a large key set cost O(keys) per batch."""
    import ray

    from fetch_engines_ray.ops import dedup

    ref = ray.put(pa.array(["a", "b"]))
    first = dedup._key_lookup(ref, pa.string())
    assert dedup._key_lookup(ref, pa.string()) is first
    assert dedup._key_lookup(ref, pa.large_string()) is not first
    assert first.get_indexer(["b", "z"]).tolist() == [1, -1]


def test_label_propagation_refuses_silent_truncation(ray_session, both_join_paths):
    """A chain whose diameter exceeds max_iters must RAISE, not emit
    wrong cluster representatives (review finding: the output is
    load-bearing for drop-strategy equality and the SQL oracle), with
    the per-iteration attach broadcast and partitioned."""
    import pytest

    import ray.data

    from fetch_engines_ray.ops.dedup import dedup_clusters_distributed

    chain = pa.table(
        {
            "doc_a": pa.array(list(range(0, 12)), type=pa.int64()),
            "doc_b": pa.array(list(range(1, 13)), type=pa.int64()),
        }
    )
    pairs = ray.data.from_arrow(chain)
    for limit in both_join_paths():
        with pytest.raises(RuntimeError, match='did not converge.*drop_strategy="broadcast"'):
            dedup_clusters_distributed(pairs, max_iters=3)
        out = dedup_clusters_distributed(pairs, max_iters=30).to_pandas()
        assert (out["cluster_rep"] == 0).all(), limit
        assert sorted(out["doc_id"]) == list(range(13)), limit


def test_auto_clone_guard_routes_semijoin(ray_session, monkeypatch):
    """With the clone-pair mass over the limit, auto must route to the
    distributed path BEFORE the driver LSH runs (the 500k clone stress
    measured 14x; the driver pass is the thing being skipped)."""
    import ray.data

    import fetch_engines_ray.pipelines.curate as cur
    from fetch_engines_ray.pipelines.curate import curate_corpus

    def bomb(*a, **k):
        raise AssertionError("driver minhash ran despite the clone guard")

    monkeypatch.setattr(cur, "minhash_dedup", bomb)
    df = _clone_heavy_corpus(n_base=10, clones_per_doc=4)
    packed = curate_corpus(
        ray.data.from_pandas(df).repartition(2),
        max_tokens=128,
        clone_pair_limit=0,
    ).to_pandas()
    assert len(packed) > 0
