"""Pipeline-level tests: golden span-sequence equality (the north-rule
invariant), Ray Data end-to-end streaming execution, and resumable
partition-atomic runs with lineage."""

import json
import os

import pyarrow as pa
import pytest

from fetch_engines_ray.corpus.generate import (
    INPUT_SCHEMA,
    fixture_docs,
    generate_corpus,
    make_doc,
)
from fetch_engines_ray.stages.extract import DocumentExtractor
from fetch_engines_ray.state import lineage as lin

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "fixture_goldens.json")


def _extract_all(rows):
    table = pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)
    return {r["doc_id"]: r for r in DocumentExtractor()(table).to_pylist()}


def test_span_sequence_equality_against_goldens():
    """Per-document span-sequence equality on (kind, text, media_ref, order)."""
    with open(GOLDENS) as f:
        goldens = json.load(f)
    rows = fixture_docs() + [make_doc(i, 42) for i in range(50)]
    results = _extract_all(rows)
    assert set(results) == set(goldens)
    for doc_id, golden in goldens.items():
        got = results[doc_id]
        got_spans = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in got["out_spans"]
        ]
        want_spans = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in golden["out_spans"]
        ]
        assert got_spans == want_spans, f"span mismatch for {doc_id}"
        assert got["title"] == golden["title"], doc_id
        assert got["route"] == golden["route"], doc_id


def test_extraction_is_deterministic():
    rows = [make_doc(i, 7) for i in range(20)]
    a = _extract_all(rows)
    b = _extract_all(rows)
    for doc_id in a:
        assert a[doc_id] == b[doc_id]


def test_media_span_order_preserved():
    rows = fixture_docs()
    results = _extract_all(rows)
    f21 = results["fixture-F21"]
    kinds = [(s["kind"], s["media_ref"]) for s in f21["out_spans"]]
    assert kinds == [
        ("text", ""),
        ("image", "media://fixture-F21/1"),
        ("text", ""),
        ("video", "media://fixture-F21/3"),
        ("text", ""),
    ]
    assert [s["order"] for s in f21["out_spans"]] == [0, 1, 2, 3, 4]


def test_filler_routes_match_expected():
    rows = [make_doc(i, 42) for i in range(200)]
    results = _extract_all(rows)
    for r in rows:
        assert results[r["doc_id"]]["route"] == r["expected_route"], r["doc_id"]


def test_warm_best_of_keeps_better_hydrated_content():
    rows = fixture_docs()
    results = _extract_all(rows)
    f23 = results["fixture-F23"]
    assert f23["route"] == "warm"
    assert "Hydrated Application" in f23["out_spans"][0]["text"]


def test_pdf_layout_parse():
    rows = fixture_docs()
    results = _extract_all(rows)
    f24 = results["fixture-F24"]
    md = f24["out_spans"][0]["text"]
    assert md.startswith("# Quarterly Layout Report")
    assert "- First finding" in md
    assert "| a | b | c |" in md


class _RecordingDataset:
    """Stands in for a Dataset and records the transforms applied to it."""

    def __init__(self):
        self.calls = []

    def map_batches(self, fn, **kwargs):
        self.calls.append((fn, kwargs))
        return self

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, kwargs))
            return self

        return record


def test_build_pipeline_is_one_whole_block_map():
    """The fusion precondition: extraction is exactly one map_batches with
    no batch size, so Ray Data runs the read, extraction and write of a
    block in one task (a batch size keeps the read a separate operator)."""
    from fetch_engines_ray.pipelines.extract import PipelineConfig, build_pipeline
    from fetch_engines_ray.stages.extract import extract_block

    ds = _RecordingDataset()
    cfg = PipelineConfig(batch_size=5, max_content_length=100, warm_url_patterns=("x",))
    assert build_pipeline(ds, cfg) is ds
    [(fn, kwargs)] = ds.calls
    assert fn is extract_block
    assert kwargs["batch_size"] is None
    assert kwargs["fn_kwargs"] == {"batch_size": 5, "max_content_length": 100, "warm_url_patterns": ("x",)}


def test_extract_block_equals_whole_batch_extraction():
    """Slicing a block into batch_size calls changes nothing, and an empty
    block yields one typed empty output."""
    from fetch_engines_ray.stages.extract import OUTPUT_SCHEMA, extract_block

    rows = [make_doc(i, 3) for i in range(23)]
    table = pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)
    whole = DocumentExtractor()(table)
    sliced = list(extract_block(table, 5))
    assert len(sliced) == 5
    assert pa.concat_tables(sliced).equals(whole)
    [empty] = extract_block(table.slice(0, 0), 5)
    assert empty.num_rows == 0 and empty.schema == OUTPUT_SCHEMA


@pytest.mark.usefixtures("ray_session")
def test_ray_pipeline_end_to_end(tmp_path):
    import ray.data

    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=120, seed=42, rows_per_file=40)
    cfg = PipelineConfig(batch_size=16)
    ds = extract_corpus(corpus, cfg)
    out = str(tmp_path / "out")
    ds.write_parquet(out)

    got = ray.data.read_parquet(out)
    n = got.count()
    assert n == 120 + len(fixture_docs())
    sample = got.take(5)
    assert {"doc_id", "out_spans", "title", "route"} <= set(sample[0].keys())


@pytest.mark.usefixtures("ray_session")
def test_resumable_run_with_lineage(tmp_path):
    from fetch_engines_ray.pipelines.extract import run_resumable

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=100, seed=1, include_fixtures=False, rows_per_file=25)
    out1 = str(tmp_path / "out1")

    # First run: everything processed.
    r1 = run_resumable(corpus, out1, concurrency=2)
    assert r1["processed"] == 4 and r1["skipped"] == 0 and r1["rows"] == 100

    # Second run: everything skipped (idempotent resume).
    r2 = run_resumable(corpus, out1, concurrency=2)
    assert r2["processed"] == 0 and r2["skipped"] == 4

    # Simulate a mid-run kill: delete one partition's lineage record →
    # only that fragment is reprocessed, and its span hash is unchanged.
    recs_before = lin.read_lineage(out1)
    victim = sorted(recs_before)[0]
    os.remove(lin.lineage_path(out1, victim))
    r3 = run_resumable(corpus, out1, concurrency=2)
    assert r3["processed"] == 1 and r3["skipped"] == 3
    recs_after = lin.read_lineage(out1)
    assert recs_after[victim]["span_hash"] == recs_before[victim]["span_hash"]
    assert recs_after[victim]["row_count"] == recs_before[victim]["row_count"]


def test_resumable_matches_direct_pipeline(ray_session, tmp_path):
    """Kill/resume contract: the partition-atomic runner's output is
    span-identical to the one-shot streaming pipeline."""
    import pyarrow.parquet as pq

    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.pipelines.extract import extract_corpus, run_resumable
    from fetch_engines_ray.state.lineage import span_hash_for_doc

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=60, seed=11, rows_per_file=20)

    direct = {
        r["doc_id"]: span_hash_for_doc(r["doc_id"], r["out_spans"])
        for r in extract_corpus(corpus).select_columns(["doc_id", "out_spans"]).take_all()
    }

    out_dir = str(tmp_path / "resumable")
    run_resumable(corpus, out_dir, concurrency=2)
    resumed = {}
    for f in sorted(os.listdir(out_dir)):
        if f.endswith(".out.parquet"):
            t = pq.read_table(os.path.join(out_dir, f), columns=["doc_id", "out_spans"])
            for r in t.to_pylist():
                resumed[r["doc_id"]] = span_hash_for_doc(r["doc_id"], r["out_spans"])
    assert direct == resumed


def test_escalate_low_quality(ray_session, tmp_path):
    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.pipelines.extract import escalate_low_quality, extract_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=40, seed=5, rows_per_file=20)
    extracted = extract_corpus(corpus).materialize()
    low = {r["doc_id"] for r in extracted.filter(expr="quality_score < 3").take_all()}
    second = escalate_low_quality(corpus, extracted, min_quality=3)
    if not low:
        assert second is None
        return
    rows = second.take_all()
    assert {r["doc_id"] for r in rows} == low
    assert all(r["route"] == "warm" for r in rows)  # escalation forces warm


def test_kill_and_resume_produces_identical_hashes(ray_session, tmp_path):
    """North-rule resume evidence: SIGKILL a resumable run mid-flight,
    resume it, and the final output hashes equal a one-shot run's."""
    import signal
    import subprocess
    import sys
    import time as _time

    import pyarrow.parquet as pq

    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.pipelines.extract import extract_corpus, run_resumable
    from fetch_engines_ray.state.lineage import span_hash_for_doc

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=300, seed=7, rows_per_file=20)
    out_dir = str(tmp_path / "out")

    script = (
        "import ray; ray.init(address='local', num_cpus=2, include_dashboard=False, logging_level='ERROR')\n"
        "from ray.data import DataContext; DataContext.get_current().enable_progress_bars=False\n"
        "from fetch_engines_ray.pipelines.extract import run_resumable\n"
        f"run_resumable({corpus!r}, {out_dir!r}, concurrency=1)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], cwd="/root/repo")
    # wait until at least one fragment committed, then hard-kill
    deadline = _time.time() + 120
    while _time.time() < deadline:
        done = [f for f in os.listdir(out_dir)] if os.path.isdir(out_dir) else []
        if any(f.endswith(".out.parquet") for f in done):
            break
        if proc.poll() is not None:
            break  # finished before we could kill — still a valid (weaker) run
        _time.sleep(0.3)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

    committed_before = {f for f in os.listdir(out_dir) if f.endswith(".out.parquet")}
    n_fragments = len([f for f in os.listdir(corpus) if f.endswith(".parquet")])
    r = run_resumable(corpus, out_dir, concurrency=2)
    assert r["processed"] + r["skipped"] == n_fragments  # all fragments accounted for
    if committed_before:
        assert r["skipped"] >= len(committed_before) - 1  # committed work not redone

    resumed = {}
    for f in sorted(os.listdir(out_dir)):
        if f.endswith(".out.parquet"):
            t = pq.read_table(os.path.join(out_dir, f), columns=["doc_id", "out_spans"])
            for row in t.to_pylist():
                resumed[row["doc_id"]] = span_hash_for_doc(row["doc_id"], row["out_spans"])

    direct = {
        row["doc_id"]: span_hash_for_doc(row["doc_id"], row["out_spans"])
        for row in extract_corpus(corpus).select_columns(["doc_id", "out_spans"]).take_all()
    }
    assert resumed == direct


def test_extract_with_escalation_merges(ray_session, tmp_path):
    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.pipelines.extract import extract_corpus, extract_with_escalation

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=40, seed=5, rows_per_file=20)
    base = extract_corpus(corpus).to_pandas()
    merged = extract_with_escalation(corpus, min_quality=3).to_pandas()
    # same doc set, no duplicates
    assert sorted(merged["doc_id"]) == sorted(base["doc_id"])
    # every previously-low doc is now the warm re-run
    low = set(base.loc[base["quality_score"] < 3, "doc_id"])
    assert (merged.set_index("doc_id").loc[sorted(low), "route"] == "warm").all()


def test_driver_registry_contract():
    """The external correctness gate records at most 50 queries in dict
    order (round 2 registered 51 and the 51st silently vanished), so the
    registry must stay at <= 50 entries and every oracle key must have a
    matching query."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "_entry_for_test",
        os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    qs = mod.queries()
    oracles = mod.oracle_sql()
    assert len(qs) <= 50, f"driver gate caps at 50 recorded queries, got {len(qs)}"
    missing = sorted(set(oracles) - set(qs))
    assert not missing, f"oracle entries without a query: {missing}"


def test_evalrows_spill_is_private_under_checkpoint_dir(tmp_path, monkeypatch):
    """The extract_quality oracle spill is an mkstemp file under
    FER_CHECKPOINT_DIR (unguessable name, owner-only), shared by the
    query and its oracle SQL within one process."""
    import importlib.util
    import os
    import stat

    spec = importlib.util.spec_from_file_location(
        "_entry_for_spill_test",
        os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))
    path = mod._evalrows_spill()
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path) != f"fer_evalrows_gate_{os.getpid()}.parquet"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert mod._evalrows_spill() == path
    assert f"read_parquet('{path}')" in mod.oracle_sql()["extract_quality_by_archetype"]


def test_curate_corpus_end_to_end(ray_session):
    """The composed curation chain: exact dups collapse to one winner,
    near-dups drop, junk fails the quality gate, PII is redacted before
    packing, and pack budgets hold."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(6)
    stop = "the be to of and that have with".split()
    # long-ish content words keep the mean word length inside the
    # Gopher window (3.0-10.0 chars); stopwords supply the hits
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = []
    for i in range(40):
        # quality-passing docs: 60-90 words with stopwords mixed in
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))})
    rows.append({"doc_id": 100, "text": rows[0]["text"]})  # exact dup -> loses to 0
    near = rows[1]["text"].split(); near[5] = "CHANGED"
    rows.append({"doc_id": 101, "text": " ".join(near)})  # near dup -> dropped
    rows.append({"doc_id": 102, "text": "junk"})  # fails gopher (too short)
    pii_text = " ".join(rng.choice(words, size=70)) + " contact bob@example.com now"
    rows.append({"doc_id": 103, "text": pii_text})  # PII doc, quality-passing
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    # decontamination stage: doc 2's own opening words form the
    # benchmark -> doc 2 must drop while everything else is unaffected
    bench = [" ".join(rows[2]["text"].split()[:20])]
    packed = curate_corpus(
        ds, max_tokens=256, benchmark_texts=bench, decontam_ngram=13
    ).to_pandas()
    packed_docs = sorted(d for ids in packed["doc_ids"] for d in ids)
    assert 100 not in packed_docs  # exact dup collapsed
    assert 101 not in packed_docs  # near dup dropped
    assert 102 not in packed_docs  # quality-gated
    assert 2 not in packed_docs  # contaminated by the benchmark
    assert 0 in packed_docs and 1 in packed_docs and 103 in packed_docs
    assert len(packed_docs) == len(set(packed_docs))
    ok = packed[~packed["oversize"]]
    assert (ok["total_tokens"] <= 256).all()


def test_curate_learned_quality_gate(ray_session):
    """clf_pos_texts/clf_neg_texts train a seed classifier
    (FineWeb-Edu recipe shape) whose cut composes with the rule-based
    gate: stopword-free keyword spam that PASSES every Gopher rule is
    dropped by the learned gate, natural prose survives, and without
    the seeds the spam sails through (proving the cut is the
    classifier's)."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(17)
    stop = "the be to of and that have with is for in".split()
    prose_words = stop + [f"word{i:03d}xx" for i in range(40)]
    # keyword spam: content words only, plus exactly two stopword hits
    # so the Gopher >=2-stopword rule passes — the learned gate is the
    # ONLY thing that can tell it from prose
    # 7-char words keep the mean word length inside the Gopher window
    spam_pools = [[f"sp{j}{i:03d}z" for i in range(40)] for j in range(8)]

    rows = []
    good_ids, bad_ids = [], []
    for i in range(8):
        rows.append(
            {"doc_id": i, "text": " ".join(rng.choice(prose_words, size=75))}
        )
        good_ids.append(i)
    for j in range(6):
        body = " ".join(rng.choice(spam_pools[j], size=70))
        rows.append({"doc_id": 200 + j, "text": body + " the of"})
        bad_ids.append(200 + j)
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    pos_seeds = [" ".join(rng.choice(prose_words, size=80)) for _ in range(4)]
    neg_seeds = [
        " ".join(rng.choice(spam_pools[6 + (k % 2)], size=75)) + " the of"
        for k in range(4)
    ]

    kwargs = dict(max_tokens=100_000, near_dup_threshold=0.95)
    gated = curate_corpus(
        ds, clf_pos_texts=pos_seeds, clf_neg_texts=neg_seeds, **kwargs
    ).to_pandas()
    gated_docs = sorted(d for ids in gated["doc_ids"] for d in ids)
    assert set(good_ids) <= set(gated_docs)
    assert not set(bad_ids) & set(gated_docs)

    ungated = curate_corpus(ds, **kwargs).to_pandas()
    ungated_docs = sorted(d for ids in ungated["doc_ids"] for d in ids)
    # spam passes every RULE-based gate — only the classifier cuts it
    assert set(bad_ids) <= set(ungated_docs)


def test_curate_corpus_sharded_export(ray_session, tmp_path):
    """The optional export tail writes hive-partitioned shard dirs whose
    union is exactly the packed output (list columns survive the sort
    and the parquet round-trip)."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(9)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        for i in range(30)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = str(tmp_path / "delivery")
    packed = curate_corpus(ds, max_tokens=256, export_path=out, n_shards=4).to_pandas()

    shard_dirs = sorted((tmp_path / "delivery").glob("shard=*"))
    assert 1 <= len(shard_dirs) <= 4
    exported = pd.concat(
        [pd.read_parquet(f) for d in shard_dirs for f in sorted(d.glob("*.parquet"))],
        ignore_index=True,
    )
    assert sorted(exported["seq_id"]) == sorted(packed["seq_id"])
    # every doc of the packed output survives the export round-trip
    assert sorted(d for ids in exported["doc_ids"] for d in ids) == sorted(
        d for ids in packed["doc_ids"] for d in ids
    )


def test_curate_corpus_bpe_tokenizer_tail(ray_session, monkeypatch, tmp_path):
    """tokenizer="bpe": the chain trains a real BPE tokenizer on the
    cleaned corpus and packs by LEARNED piece counts — totals match a
    driver-side re-encode of the surviving docs, and budgets hold."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.bpe import bpe_train, encode_word
    from fetch_engines_ray.pipelines.curate import curate_corpus

    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))

    rng = np.random.RandomState(3)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        for i in range(25)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    packed = curate_corpus(ds, max_tokens=128, tokenizer="bpe", bpe_merges=40).to_pandas()

    docs = sorted(d for ids in packed["doc_ids"] for d in ids)
    assert docs == list(range(25))  # all quality-passing, no dups planted
    ok = packed[~packed["oversize"]]
    assert (ok["total_tokens"] <= 128).all()

    # totals are BPE piece counts: re-derive with the same deterministic
    # trainer + encoder over the same clean text (no PII/dups -> clean
    # text == input text)
    merges = bpe_train(ds, n_merges=40)
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    piece_count = {
        r["doc_id"]: sum(len(encode_word(w, ranks)) for w in r["text"].lower().split())
        for r in rows
    }
    for _, seq in packed.iterrows():
        assert seq["total_tokens"] == sum(piece_count[d] for d in seq["doc_ids"])
    # learned packing differs from whitespace packing (pieces > words)
    ws = curate_corpus(ds, max_tokens=128).to_pandas()
    assert packed["total_tokens"].sum() > ws["total_tokens"].sum()


def test_curate_corpus_semdedup_and_dsir_stages(ray_session):
    """The optional semantic-dedup and DSIR-selection stages: a planted
    embedding clone drops (keeper = lower id), docs WITHOUT an embedding
    row survive (null flag = no evidence), and DSIR selection keeps the
    target-dialect docs only — in both the top-k and threshold forms."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(9)
    stop = "the be to of and that have with".split()
    formal = stop + [f"formal{i:03d}xx" for i in range(30)]
    slang = stop + [f"slang{i:03d}yy" for i in range(30)]
    rows = []
    for i in range(30):
        words = formal if i % 2 == 0 else slang
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))})
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    # embeddings: docs 0..19 only (10 docs have NO embedding row);
    # docs 4 and 6 share a vector -> semantic dupes, 6 must drop
    vecs = rng.randn(20, 32)
    vecs[6] = vecs[4]
    emb = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": list(range(20)), "embedding": [v.tolist() for v in (vecs / np.linalg.norm(vecs, axis=1, keepdims=True))]}
        )
    )
    packed = curate_corpus(ds, max_tokens=512, embeddings=emb, semdedup_eps=0.95).to_pandas()
    docs = sorted(d for ids in packed["doc_ids"] for d in ids)
    assert 6 not in docs  # planted semantic dupe dropped
    assert 4 in docs  # its keeper survives
    assert all(i in docs for i in range(20, 30))  # no-embedding docs kept

    # DSIR top-k selection toward the formal dialect
    target = [" ".join(rng.choice(formal, size=70)) for _ in range(10)]
    packed2 = curate_corpus(
        ds, max_tokens=512, dsir_target_texts=target, dsir_n=10
    ).to_pandas()
    docs2 = sorted(d for ids in packed2["doc_ids"] for d in ids)
    assert len(docs2) == 10
    assert all(d % 2 == 0 for d in docs2)  # formal docs only

    # DSIR streaming threshold form: the dialects separate cleanly
    # (formal logw >= -72, slang <= -232 on this corpus — absolute
    # levels are negative because the 10-doc target only covers part of
    # the formal n-gram space), so a mid-gap threshold keeps exactly
    # the formal docs
    packed3 = curate_corpus(
        ds, max_tokens=512, dsir_target_texts=target, dsir_min_logw=-150.0
    ).to_pandas()
    docs3 = sorted(d for ids in packed3["doc_ids"] for d in ids)
    # >= 13 of the 15 formal docs survive (the upstream Gopher gate or
    # a below-gap weight can eat the odd one) and NO slang doc passes
    assert len(docs3) >= 13 and all(d % 2 == 0 for d in docs3)


def test_curate_corpus_perplexity_gate(ray_session):
    """The optional CCNet-style stage: a repetitive-gibberish doc (high
    per-token surprise under the corpus LM... actually LOW surprise when
    repetitive — the planted doc here uses words absent from the rest of
    the corpus, making its tokens rare and its mean negative logprob the
    corpus maximum) is exactly what the tail cut removes."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(13)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(30)]
    rows = []
    for i in range(24):
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))})
    # quality-passing doc made of words seen nowhere else -> rarest
    # tokens in the corpus -> worst (highest) mean negative logprob
    rare = [f"zq{i:03d}vv" for i in range(30)]
    rows.append(
        {"doc_id": 99, "text": " ".join(list(rng.choice(rare, size=40)) + list(rng.choice(stop, size=20)))}
    )
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    gated = curate_corpus(ds, max_tokens=512, ppl_tail_quantile=0.05).to_pandas()
    docs = sorted(d for ids in gated["doc_ids"] for d in ids)
    assert 99 not in docs  # the tail cut removed the outlier
    assert len(docs) >= 22  # and little else

    ungated = curate_corpus(ds, max_tokens=512).to_pandas()
    docs_u = sorted(d for ids in ungated["doc_ids"] for d in ids)
    assert 99 in docs_u  # without the gate it survives (Gopher-passing)


def test_curate_corpus_backoff_ppl_gate(ray_session):
    """ppl_lm="backoff": a scrambled-phrase doc whose UNIGRAM profile
    matches the corpus (the unigram gate cannot see it) carries novel
    bigram/trigram contexts -> worst mean negative log-score under the
    Stupid-Backoff LM -> exactly what the tail cut removes."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(13)
    stop = "the be to of and that have with".split()
    phrase = (
        "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima"
    ).split()
    rows = []
    for i in range(24):
        toks = (
            list(rng.choice(stop, size=rng.randint(30, 45)))
            + phrase
            + list(rng.choice(stop, size=rng.randint(15, 25)))
        )
        rows.append({"doc_id": i, "text": " ".join(toks)})
    scr = list(phrase)
    rng.shuffle(scr)
    rows.append(
        {
            "doc_id": 99,
            "text": " ".join(
                list(rng.choice(stop, size=38)) + scr + list(rng.choice(stop, size=20))
            ),
        }
    )
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    gated = curate_corpus(
        ds, max_tokens=512, ppl_tail_quantile=0.05, ppl_lm="backoff"
    ).to_pandas()
    docs = sorted(d for ids in gated["doc_ids"] for d in ids)
    assert 99 not in docs  # the context-aware tail cut removed it
    assert len(docs) >= 22

    ungated = curate_corpus(ds, max_tokens=512).to_pandas()
    docs_u = sorted(d for ids in ungated["doc_ids"] for d in ids)
    assert 99 in docs_u  # Gopher-passing; survives without the gate


def test_curate_corpus_all_stages_compose(ray_session, tmp_path):
    """Kitchen-sink composability: every optional curation stage ON at
    once (near-dup + semantic dedup + decontamination + perplexity gate
    + DSIR selection + BPE packing + sharded export) runs end to end
    and each stage's planted victim is gone from the delivery."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(21)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(30)]
    rows = []
    for i in range(26):
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))})
    rows.append({"doc_id": 100, "text": rows[0]["text"]})  # exact dup
    rare = [f"zz{i:03d}qq" for i in range(30)]
    rows.append({"doc_id": 101, "text": " ".join(list(rng.choice(rare, size=40)) + list(rng.choice(stop, size=20)))})  # ppl outlier
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df)

    # embeddings for ids 0..19; 4 and 6 share a vector (semantic dup)
    vecs = rng.randn(20, 16)
    vecs[6] = vecs[4]
    emb = ray.data.from_pandas(
        pd.DataFrame({"vec_id": list(range(20)),
                      "embedding": [v.tolist() for v in (vecs / np.linalg.norm(vecs, axis=1, keepdims=True))]})
    )
    bench = [" ".join(rows[2]["text"].split()[:20])]  # contaminates doc 2
    target = [rows[0]["text"], rows[8]["text"]]
    out = str(tmp_path / "delivery")

    packed = curate_corpus(
        ds,
        max_tokens=256,
        benchmark_texts=bench,
        embeddings=emb,
        semdedup_eps=0.95,
        dsir_target_texts=target,
        dsir_n=12,
        ppl_tail_quantile=0.05,
        tokenizer="bpe",
        bpe_merges=30,
        export_path=out,
        n_shards=2,
    ).to_pandas()
    docs = sorted(d for ids in packed["doc_ids"] for d in ids)
    assert docs and len(docs) == len(set(docs)) <= 12  # DSIR cap holds
    assert 100 not in docs  # exact dup
    assert 101 not in docs  # perplexity outlier
    assert 6 not in docs  # semantic dup (keeper is 4)
    assert 2 not in docs  # contaminated
    # the sharded delivery exists and unions to the packed output
    import os

    shard_dirs = [d for d in os.listdir(out) if d.startswith("shard=")]
    assert 1 <= len(shard_dirs) <= 2
    exported = ray.data.read_parquet(out).count()
    assert exported == len(packed)


def test_curate_fuzzy_decontam_catches_paraphrase(ray_session):
    """A benchmark paraphrase with an edit every 12 tokens shares NO
    13-gram with the benchmark (exact rule keeps it) but keeps high
    shingle Jaccard — only the fuzzy MinHash gate drops it."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.decontam import flag_contaminated
    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(17)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = []
    for i in range(20):
        rows.append(
            {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        )
    bench = " ".join(rng.choice(words, size=90))
    para = bench.split()
    for j in range(6, len(para), 12):  # max unchanged run = 11 < 13
        para[j] = f"edit{j:03d}xx"
    rows.append({"doc_id": 200, "text": " ".join(para)})
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    # the exact 13-gram rule does NOT flag the paraphrase
    exact = (
        flag_contaminated(ds, [bench], n=13)
        .to_pandas()
        .set_index("doc_id")
    )
    assert not exact.loc[200, "contaminated"]

    def packed_ids(**kw):
        packed = curate_corpus(
            ds, max_tokens=256, benchmark_texts=[bench], decontam_ngram=13, **kw
        ).to_pandas()
        return sorted(d for ids in packed["doc_ids"] for d in ids)

    assert 200 in packed_ids()  # exact-only chain keeps the paraphrase
    with_fuzzy = packed_ids(fuzzy_decontam_threshold=0.5)
    assert 200 not in with_fuzzy  # fuzzy gate drops it
    assert 0 in with_fuzzy and 1 in with_fuzzy  # clean docs unaffected


def test_curate_timing_surface(ray_session, monkeypatch, capsys):
    """FER_CURATE_TIMING=1 prints one JSON line of per-eager-stage
    wall-time deltas covering the stages the options enabled."""
    import json

    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(29)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        for i in range(25)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    monkeypatch.setenv("FER_CURATE_TIMING", "1")
    packed = curate_corpus(ds, max_tokens=256, ppl_tail_quantile=0.1).to_pandas()
    assert len(packed) > 0
    lines = [
        l for l in capsys.readouterr().out.splitlines() if "curate_timing_sec" in l
    ]
    assert len(lines) == 1
    timing = json.loads(lines[-1])["curate_timing_sec"]
    for stage in ("size_count", "near_dedup_decisions", "survivor_checkpoint",
                  "perplexity_cut"):
        assert stage in timing and timing[stage] >= 0.0, timing
    assert "dsir_select" not in timing  # option not enabled
    assert "bpe_train" not in timing
    # funnel: footer-counted survivor rows between input and output
    funnel = json.loads(lines[-1])["curate_funnel"]
    assert funnel["input"] == 25
    assert 0 < funnel["survivors"] <= 25


def test_curate_named_checkpoint_resume(ray_session, monkeypatch, tmp_path, capsys):
    """checkpoint_name makes curate resumable: the second run reads the
    named survivor checkpoint (dedup stages skipped, files untouched)
    and returns identical output; a changed option fingerprint raises
    instead of resuming foreign data."""
    import json
    import os

    import numpy as np
    import pandas as pd
    import pytest as _pytest

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(31)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        for i in range(30)
    ]
    rows.append({"doc_id": 100, "text": rows[0]["text"]})  # exact dup
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))
    monkeypatch.setenv("FER_CURATE_TIMING", "1")

    def run(**kw):
        packed = curate_corpus(
            ds, max_tokens=256, checkpoint_name="r1", ppl_tail_quantile=0.1, **kw
        ).to_pandas()
        out = capsys.readouterr().out
        report = json.loads(
            [l for l in out.splitlines() if "curate_timing_sec" in l][-1]
        )
        funnels.append(report["curate_funnel"])
        return sorted(d for ids in packed["doc_ids"] for d in ids), report["curate_timing_sec"]

    funnels = []
    docs1, t1 = run()
    assert "near_dedup_decisions" in t1 and "survivor_checkpoint" in t1
    assert 100 not in docs1  # dedup ran
    # the named survivor barrier is in the funnel, counted from its footers
    assert funnels[-1]["survivors"] == 30

    ckpt = tmp_path / "fer_curate_survivors_r1"
    marker = ckpt / "_FINGERPRINT.json"
    assert marker.exists()
    mtimes = {p.name: p.stat().st_mtime_ns for p in ckpt.iterdir()}

    docs2, t2 = run()
    assert docs2 == docs1
    assert "survivor_resume" in t2  # resumed
    assert funnels[-1]["survivors"] == 30
    assert "near_dedup_decisions" not in t2  # dedup SKIPPED
    assert {p.name: p.stat().st_mtime_ns for p in ckpt.iterdir()} == mtimes

    # changed option -> fingerprint mismatch -> loud failure
    with _pytest.raises(ValueError, match="fingerprint"):
        run(near_dup_threshold=0.9)

    # an INCOMPLETE checkpoint (marker missing) is discarded and rebuilt
    os.remove(marker)
    docs3, t3 = run()
    assert docs3 == docs1
    assert "near_dedup_decisions" in t3 and "survivor_checkpoint" in t3
    assert marker.exists()


def test_curate_named_checkpoint_gates_on_content_not_just_row_count(
    ray_session, monkeypatch, tmp_path
):
    """A re-crawl that keeps the cardinality but changes the TEXT must
    not silently resume the stale survivor table — the fingerprint
    carries a 64-bit content hash, not just n_input (review finding)."""
    import numpy as np
    import pandas as pd
    import pytest as _pytest

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(7)
    words = "the be to of and that have with".split() + [
        f"tok{i:03d}" for i in range(40)
    ]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=70))} for i in range(25)
    ]
    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))
    ds1 = ray.data.from_pandas(pd.DataFrame(rows))
    curate_corpus(ds1, max_tokens=256, checkpoint_name="cfp").to_pandas()

    # same doc_ids, same row count, ONE document's text regenerated
    rows2 = [dict(r) for r in rows]
    rows2[3]["text"] = " ".join(rng.choice(words, size=70))
    ds2 = ray.data.from_pandas(pd.DataFrame(rows2))
    with _pytest.raises(ValueError, match="fingerprint"):
        curate_corpus(ds2, max_tokens=256, checkpoint_name="cfp").to_pandas()


def test_curate_rejects_unknown_tokenizer_and_orphan_fuzzy_threshold(ray_session):
    """Both options had silent-fallthrough failure modes: an unknown
    tokenizer packed by whitespace with no artifact, and a fuzzy
    threshold without benchmark texts ran zero decontamination."""
    import pandas as pd
    import pytest as _pytest

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    ds = ray.data.from_pandas(
        pd.DataFrame([{"doc_id": 1, "text": "hello world"}])
    )
    with _pytest.raises(ValueError, match="unknown tokenizer"):
        curate_corpus(ds, tokenizer="BPE")
    with _pytest.raises(ValueError, match="requires benchmark_texts"):
        curate_corpus(ds, fuzzy_decontam_threshold=0.8)


def _reserved(ds) -> bool:
    return ds.context.op_resource_reservation_enabled


def test_extract_corpus_runs_without_the_reservation(ray_session, tmp_path):
    """``extract_corpus`` owns its read's context and its chain is
    map-only, so Ray Data's per-operator reservation is off on it and
    only on it: a caller's Dataset mapped by ``build_pipeline`` and the
    session context keep theirs."""
    import ray.data
    from ray.data import DataContext

    from fetch_engines_ray.pipelines.extract import build_pipeline, extract_corpus, read_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=20, seed=5, rows_per_file=10)
    ds = extract_corpus(corpus)
    assert not _reserved(ds)
    assert ds.count() == 20 + len(fixture_docs())
    assert not _reserved(ds)
    assert DataContext.get_current().op_resource_reservation_enabled

    caller = read_corpus(corpus)
    mapped = build_pipeline(caller)
    assert _reserved(caller) and _reserved(mapped)
    assert _reserved(ray.data.range(3))


def test_gate_extraction_cache_takes_the_reservation_back(ray_session, tmp_path, monkeypatch):
    """``__ray_entry__._extracted`` caches one materialized extraction
    that gate queries append ``groupby`` exchanges to: the cached
    Dataset runs at the session's reservation setting, while a fresh
    ``extract_corpus`` keeps it off."""
    import importlib.util

    from ray.data import DataContext

    from fetch_engines_ray.pipelines.extract import extract_corpus

    spec = importlib.util.spec_from_file_location(
        "_entry_for_cache_test",
        os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=10, seed=5, rows_per_file=10)
    monkeypatch.setattr(mod, "_synth_corpus", lambda sf_dir: corpus)

    cached = mod._extracted("sf0.001")
    assert _reserved(cached) and mod._extracted("sf0.001") is cached
    assert not _reserved(extract_corpus(corpus))
    per_archetype = cached.groupby("archetype").count().to_pandas()
    assert per_archetype["count()"].sum() == 10 + len(fixture_docs())
    assert _reserved(cached) and DataContext.get_current().op_resource_reservation_enabled


def test_extract_with_escalation_reservation_follows_the_filter_path(
    ray_session, tmp_path, both_join_paths
):
    """The escalation output owns its contexts (the first pass's read
    and the union's copy): it runs without the reservation when the
    low-quality ids take the broadcast filter, and keeps the session's
    setting when they take the partitioned exchange."""
    from ray.data import DataContext

    from fetch_engines_ray.pipelines.extract import extract_with_escalation

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=20, seed=5, rows_per_file=10)
    n = 20 + len(fixture_docs())
    for limit in both_join_paths():
        # min_quality 10 escalates every doc scoring below the top
        merged = extract_with_escalation(corpus, min_quality=10)
        assert _reserved(merged) == (limit == 0), limit
        assert merged.count() == n
        assert _reserved(merged) == (limit == 0), limit
        assert DataContext.get_current().op_resource_reservation_enabled
    # no row below the bar: the output is the first pass itself
    first = extract_with_escalation(corpus, min_quality=0)
    assert not _reserved(first)
    assert DataContext.get_current().op_resource_reservation_enabled
