"""Near-dup verdict equivalence: curate_corpus runs one near-dup path
(``ops/dedup.minhash_dedup_ds`` over the exact-dedup winners) whose
verdicts resolve on the driver or distributed by the measured size of
the verified pairs.  On either side of ``BROADCAST_BYTES`` the survivor
set must equal a reference built from the primitives (min-id exact
winners minus the union-find drops over the full corpus) — the
clone-heavy re-crawl scenario is exactly where the two verdict paths
diverge in mechanism while the contract pins their OUTPUT equal.

Also pins that exact clones never reach the LSH candidate table, both
verdict paths against ``dedup_clusters(minhash_lsh_pairs(...))``, and
the upstream-checkpoint cleanup contract (advice finding: gated runs
leaked the step-0 spill).
"""
import glob
import os

import pandas as pd
import pyarrow as pa
import pytest


_WORDS = (
    "river stone garden paper window silver market winter forest signal "
    "harbor copper meadow lantern violet engine canyon orchard velvet thunder "
    "pillar basket candle rocket marble feather island ladder mirror saddle "
    "tunnel walnut anchor blanket cactus dragon falcon glacier hammer jigsaw"
).split()


def _base_body(i: int) -> str:
    """A body of its own for base doc ``i``: 15 sentences of seeded
    random words, so two base docs share almost no word 3-shingle and
    never form a near-dup cluster.  Long, stopword-bearing and
    sentence-terminated enough to clear the Gopher gate AND the C4 line
    rules, so the survivor comparison sees the dedup output."""
    import random

    rng = random.Random(i)
    sentences = [
        f"The {' '.join(rng.choices(_WORDS, k=4))} and the {' '.join(rng.choices(_WORDS, k=3))} of record {i}."
        for _ in range(15)
    ]
    return " ".join(sentences)


def _clone_heavy_corpus(n_base: int = 60, clones_per_doc: int = 8) -> pd.DataFrame:
    """~90 % duplicate mass: each base doc plus exact clones and one
    near clone under fresh ids — the re-crawl shape.  Base doc ``i``
    has id ``i * (clones_per_doc + 2)`` and is the smallest id of its
    cluster, so it is the one survivor the cluster should leave."""
    rows = []
    did = 0
    for i in range(n_base):
        body = _base_body(i)
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


def _reference_survivors(df: pd.DataFrame) -> list:
    """Dedup survivors from primitives that stay: min-id exact winners
    minus the union-find drops of the LSH pairs over the FULL corpus."""
    import ray.data

    from fetch_engines_ray.ops.dedup import dedup_clusters, minhash_lsh_pairs

    winners = set(df.groupby("text")["doc_id"].min())
    clusters = dedup_clusters(
        minhash_lsh_pairs(ray.data.from_pandas(df), threshold=0.7)
    )
    dropped = set(clusters.loc[~clusters["is_kept"], "doc_id"])
    return sorted(int(i) for i in winners - dropped)


def test_drop_strategy_equivalence(ray_session, both_join_paths):
    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    df = _clone_heavy_corpus()
    expected = _reference_survivors(df)
    # one survivor per base doc: its cluster's smallest id, so a wrong
    # per-cluster representative shows as a diverged survivor set
    assert expected == [i * 10 for i in range(60)]
    runs = {}
    # BROADCAST_BYTES 0 forces the distributed verdicts and every key
    # filter onto keep_by_keys' partitioned path on this tiny corpus
    for limit in both_join_paths():
        packed = curate_corpus(
            ray.data.from_pandas(df).repartition(4), max_tokens=128
        ).to_pandas()
        runs[limit] = (_survivor_ids(packed), int(packed["total_tokens"].sum()))
    texts = dict(zip(df["doc_id"], df["text"]))
    tokens = sum(len(texts[i].split()) for i in expected)
    for limit, (survivors, mass) in runs.items():
        assert survivors == expected, f"BROADCAST_BYTES={limit}: survivor set diverged"
        assert mass == tokens, f"BROADCAST_BYTES={limit}: token mass diverged"


def test_near_dup_candidates_never_pair_exact_clones(
    ray_session, monkeypatch, both_join_paths, tmp_path
):
    """Near-dup LSH runs over the exact-dedup winners, so no candidate
    pair ever joins two exact clones — whatever the clone-pair mass,
    on the driver and the distributed verdict path alike.  20 docs x
    30 exact clones is a pair mass far below the old clone-guard limit,
    which sent the full corpus through driver LSH and expanded every
    clone group into candidate pairs.  The spy wraps the resolver's
    MinHash verify, which sees every candidate pair on both paths; it
    runs in Ray workers, so it records the pairs in a file."""
    import ray.data

    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.pipelines.curate import curate_corpus

    df = _clone_heavy_corpus(n_base=20, clones_per_doc=30)
    texts = dict(zip(df["doc_id"], df["text"]))
    log = tmp_path / "verified_candidates"
    real_verify = dedup._minhash_verify

    def spy_verify(threshold):
        verify = real_verify(threshold)

        def wrapped(t):
            with open(log, "a") as f:
                for a, b in zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist()):
                    f.write(f"{a} {b}\n")
            return verify(t)

        return wrapped

    monkeypatch.setattr(dedup, "_minhash_verify", spy_verify)
    expected = _reference_survivors(df)
    for limit in both_join_paths():
        log.write_text("")
        packed = curate_corpus(
            ray.data.from_pandas(df).repartition(4), max_tokens=128
        ).to_pandas()
        seen = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert seen, f"BROADCAST_BYTES={limit}: no candidate pair reached verification"
        clone_pairs = [(a, b) for a, b in seen if texts[a] == texts[b]]
        assert clone_pairs == [], f"{len(clone_pairs)} candidate pairs join exact clones"
        assert _survivor_ids(packed) == expected, limit


def test_minhash_dedup_ds_parity(ray_session, both_join_paths):
    """Both verdict paths of minhash_dedup_ds (driver union-find at the
    default BROADCAST_BYTES, distributed label propagation at 0) equal
    dedup_clusters over minhash_lsh_pairs, including the zero-pair
    corpus (typed empty verdict table)."""
    import ray.data

    from fetch_engines_ray.ops.dedup import (
        dedup_clusters,
        minhash_dedup_ds,
        minhash_lsh_pairs,
    )

    df = _clone_heavy_corpus(n_base=20, clones_per_doc=3)
    ds = ray.data.from_pandas(df).repartition(3)
    cols = ["doc_id", "cluster_rep", "is_kept"]
    types = {"doc_id": "int64", "cluster_rep": "int64", "is_kept": "bool"}
    ref = (
        dedup_clusters(minhash_lsh_pairs(ds, threshold=0.7))
        .sort_values("doc_id")
        .reset_index(drop=True)[cols]
        .astype(types)
    )
    assert not ref["is_kept"].all()
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
    for limit in both_join_paths():
        got = (
            minhash_dedup_ds(ds, threshold=0.7)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)[cols]
            .astype(types)
        )
        pd.testing.assert_frame_equal(ref, got, obj=f"BROADCAST_BYTES={limit}")
        empty = minhash_dedup_ds(uniq, threshold=0.7)
        assert empty.count() == 0, limit
        assert set(empty.schema().names) == set(cols), limit


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

    from fetch_engines_ray.ops import dedup, exchange
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

    for limit in (exchange.BROADCAST_BYTES, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exchange, "BROADCAST_BYTES", limit)
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
    """Label propagation runs to its fixed point: a 12-hop chain (far
    deeper than real near-dup clusters) resolves every node to rep 0
    rather than being cut short with wrong cluster representatives
    (the output is load-bearing for the curate survivor set and the SQL
    oracle), with the per-iteration attach broadcast and partitioned."""
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
        out = dedup_clusters_distributed(pairs).to_pandas()
        assert (out["cluster_rep"] == 0).all(), limit
        assert sorted(out["doc_id"]) == list(range(13)), limit


def test_curate_rejects_near_dup_threshold_outside_unit_interval(ray_session):
    """A near-dup threshold above 1 matches no pair and one at or below
    0 matches every candidate: curate_corpus raises instead."""
    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    ds = ray.data.from_pandas(_clone_heavy_corpus(n_base=2, clones_per_doc=1))
    for bad in (1.5, 0.0, -0.2, float("nan")):
        with pytest.raises(ValueError, match="near_dup_threshold"):
            curate_corpus(ds, near_dup_threshold=bad)
