"""Composition fuzz: curate_corpus must never crash and must hold its
invariants on arbitrary small corpora x option combinations (the
zero-near-dup join crash lived exactly in this composition space)."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# corpus shapes: word pools from tiny (everything collides) to disjoint
# (nothing collides), doc counts crossing the packing/dedup edges
CORPUS = st.fixed_dictionaries(
    {
        "n_docs": st.integers(3, 18),
        "vocab": st.sampled_from(["tiny", "mixed", "disjoint"]),
        "seed": st.integers(0, 10_000),
        "plant_exact_dup": st.booleans(),
        "with_decontam": st.booleans(),
        "with_dsir": st.booleans(),
        "with_c4": st.booleans(),
        "with_rep_gate": st.booleans(),
        "with_line_dedup": st.booleans(),
        "drop_strategy": st.sampled_from(["auto", "broadcast", "semi_join"]),
    }
)


def _build(cfg) -> tuple[pd.DataFrame, list, list]:
    rng = np.random.RandomState(cfg["seed"])
    stop = "the be to of and that have with".split()
    if cfg["vocab"] == "tiny":
        words = stop + ["alpha", "beta"]
    elif cfg["vocab"] == "mixed":
        words = stop + [f"w{i:02d}xx" for i in range(20)]
    else:
        words = None  # per-doc disjoint vocab
    rows = []
    for i in range(cfg["n_docs"]):
        pool = words if words is not None else [f"d{i}t{j}" for j in range(30)] + stop
        rows.append(
            {"doc_id": i, "text": " ".join(rng.choice(pool, size=rng.randint(55, 90)))}
        )
    if cfg["plant_exact_dup"]:
        rows.append({"doc_id": 500, "text": rows[0]["text"]})
    bench = [" ".join(rows[1]["text"].split()[:15])] if cfg["with_decontam"] else None
    target = [rows[0]["text"]] if cfg["with_dsir"] else None
    return pd.DataFrame(rows), bench, target


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(CORPUS)
def test_curate_never_crashes_and_holds_invariants(ray_session, cfg):
    import ray.data

    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.pipelines.curate import curate_corpus

    df, bench, target = _build(cfg)
    ds = ray.data.from_pandas(df)
    kwargs = dict(
        max_tokens=128,
        drop_strategy=cfg["drop_strategy"],
        # tiny limits force the partitioned key filters / clone guard on
        # these small corpora too, so every handoff fuzzes across every
        # shape
        clone_pair_limit=0 if cfg["seed"] % 3 == 0 else 5_000_000,
    )
    if bench:
        kwargs["benchmark_texts"] = bench
    if target:
        kwargs["dsir_target_texts"] = target
        kwargs["dsir_n"] = max(1, cfg["n_docs"] // 2)
    if cfg["with_c4"]:
        # single-line unpunctuated docs: C4 wipes everything unless the
        # page rule is relaxed — exercise the stage with permissive
        # thresholds so BOTH empty-out and survive paths get fuzzed
        kwargs["c4_clean"] = True
    if cfg["with_rep_gate"]:
        kwargs["gopher_repetition"] = True
    if cfg["with_line_dedup"]:
        kwargs["within_doc_line_dedup"] = True
        kwargs["corpus_line_dedup"] = True
    with pytest.MonkeyPatch.context() as mp:
        if cfg["seed"] % 2:
            mp.setattr(dedup, "BROADCAST_KEY_LIMIT", 0)
        packed = curate_corpus(ds, **kwargs).to_pandas()
    if packed.empty:
        return  # everything filtered: a legal outcome, not a crash
    docs = [d for ids in packed["doc_ids"] for d in ids]
    # no doc packed twice; every packed doc came from the input
    assert len(docs) == len(set(docs))
    assert set(docs) <= set(df["doc_id"])
    # budget invariant on non-oversize sequences
    ok = packed[~packed["oversize"]]
    assert (ok["total_tokens"] <= 128).all()
    # planted exact dup never survives alongside its twin
    if cfg["plant_exact_dup"]:
        assert not ({0, 500} <= set(docs))
