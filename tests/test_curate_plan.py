"""``curate_corpus`` runs one plan of stages: bad options fail before any
Ray work, every barrier spills once under its tag and lands in the
funnel, the named-resume fingerprint is derived from the plan, and the
checkpoint helpers are called only where the plan needs them."""

import ast
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent

def _docs(n: int = 30) -> pd.DataFrame:
    """``n`` docs of six seeded, sentence-terminated lines (they clear
    the Gopher gates and the C4 line rules), plus an exact dup of doc 0."""
    rng = np.random.RandomState(31)
    words = "the be to of and that have with".split() + [f"word{i:03d}xx" for i in range(200)]
    rows = []
    for i in range(n):
        lines = [" ".join(rng.choice(words, size=12)).capitalize() + "." for _ in range(6)]
        rows.append({"doc_id": i, "text": "\n".join(lines)})
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    return pd.DataFrame(rows)


def _embeddings(n: int = 20, seed: int = 3) -> pd.DataFrame:
    vecs = np.random.RandomState(seed).randn(n, 16)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return pd.DataFrame({"vec_id": list(range(n)), "embedding": [v.tolist() for v in vecs]})


def _report(capsys) -> dict:
    lines = [l for l in capsys.readouterr().out.splitlines() if "curate_timing_sec" in l]
    assert len(lines) == 1, lines
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "bad",
    [
        {"bin_export_path": "bins", "tokenizer": "unigram"},
        {"bin_export_path": "bins"},
        {"ppl_lm": "trigram"},
    ],
)
def test_bad_configs_fail_before_any_ray_work(ray_session, monkeypatch, tmp_path, bad):
    """A bad option raises before the input is read or anything spills."""
    import pyarrow as pa

    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(ckpt))
    seen = tmp_path / "input_read"

    def record(batch: pa.Table) -> pa.Table:
        seen.write_text("read")
        return batch

    ds = ray.data.from_pandas(_docs()).map_batches(record, batch_format="pyarrow")
    if "bin_export_path" in bad:
        bad = {**bad, "bin_export_path": str(tmp_path / "bins")}
    with pytest.raises(ValueError, match="bin_export_path|ppl_lm"):
        curate_corpus(ds, ppl_tail_quantile=0.1, **bad)
    assert os.listdir(ckpt) == []
    assert not seen.exists()


def test_perplexity_gate_passes_through_token_less_survivors(ray_session):
    """Survivors without a single token leave nothing to rank: both LMs
    pass them through, so the gated run equals the ungated one, and both
    trainers say why with the same error type."""
    import ray.data

    from fetch_engines_ray.ops.backoff_lm import train_backoff_lm
    from fetch_engines_ray.ops.lm import EmptyCorpusError, train_unigram_lm
    from fetch_engines_ray.pipelines.curate import curate_corpus

    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": list(range(6)), "text": ["", " ", "  "] * 2})
    )

    def docs(**kw) -> list:
        return sorted(d for row in curate_corpus(ds, **kw).take_all() for d in row["doc_ids"])

    want = docs()
    assert want == []
    for lm in ("unigram", "backoff"):
        assert docs(ppl_tail_quantile=0.1, ppl_lm=lm) == want, lm
    with pytest.raises(EmptyCorpusError):
        train_unigram_lm(ds, max_vocab=10)
    with pytest.raises(EmptyCorpusError):
        train_backoff_lm(ds, max_ngrams=10)
    with pytest.raises(EmptyCorpusError):
        train_backoff_lm(ds)


def test_output_keeps_the_packed_columns_when_nothing_survives(ray_session):
    """An input whose rows all fail the gates has the packed schema, as
    an empty input does, not a Dataset without columns.  (Ray's
    ``to_pandas`` of any Dataset with no rows has no columns, whatever
    its schema, so the pin reads the schema and the Arrow blocks.)"""
    import pyarrow as pa
    import ray
    import ray.data

    from fetch_engines_ray.ops.packing import _OUT_SCHEMA
    from fetch_engines_ray.pipelines.curate import curate_corpus

    blank = ray.data.from_pandas(
        pd.DataFrame({"doc_id": list(range(6)), "text": ["", " ", "  "] * 2})
    )
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    for ds in (blank, empty):
        out = curate_corpus(ds)
        assert out.schema().names == _OUT_SCHEMA.names
        typed = [t for t in ray.get(out.to_arrow_refs()) if t.num_columns]
        assert typed and all(t.schema == _OUT_SCHEMA and t.num_rows == 0 for t in typed)
    # with survivors the rows are those of the packing alone
    assert sorted(d for row in curate_corpus(ray.data.from_pandas(_docs(4))).take_all()
                  for d in row["doc_ids"]) == [0, 1, 2, 3]


# option combination -> the barrier spills it makes, by tag ("named":
# the named survivor checkpoint)
_SPILLS = [
    ({}, []),
    ({"gopher_repetition": True}, []),
    ({"c4_clean": True}, ["curate_step0"]),
    ({"ppl_tail_quantile": 0.1}, ["curate_survivors"]),
    ({"dsir_min_logw": -50.0}, ["curate_survivors"]),
    ({"checkpoint_name": "named", "ppl_tail_quantile": 0.1, "dsir_n": 10}, ["named"]),
    ({"gopher_repetition": True, "jsonl_export_path": "jsonl"}, ["curate_clean_gated"]),
    ({"gopher_repetition": True, "dsir_n": 10}, ["curate_clean_gated", "curate_survivors"]),
    ({"within_doc_line_dedup": True, "tokenizer": "unigram"}, ["curate_clean", "curate_step0"]),
    (
        {
            "corpus_line_dedup": True,
            "checkpoint_name": "named",
            "ppl_tail_quantile": 0.1,
            "gopher_repetition": True,
            "jsonl_export_path": "jsonl",
            "tokenizer": "bpe",
        },
        ["curate_clean", "curate_clean_gated", "curate_step0", "named"],
    ),
]


def _spill_tags(ckpt: Path) -> list:
    tags = []
    for d in os.listdir(ckpt):
        if d == "fer_curate_survivors_named":
            tags.append("named")
        elif d.startswith("fer_curate_"):
            tags.append(d[len("fer_") : -9])  # "_" + mkdtemp's 8 random chars
    return sorted(tags)


def test_spill_set_per_option_combination(ray_session, monkeypatch, tmp_path, capsys):
    """Each option combination spills exactly its barriers, each once and
    under its tag, and the funnel counts the input and every barrier."""
    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    monkeypatch.setenv("FER_KEEP_CHECKPOINTS", "1")
    monkeypatch.setenv("FER_CURATE_TIMING", "1")
    ds = ray.data.from_pandas(_docs())
    target = _docs()["text"].tolist()[:8]
    got = []
    for i, (opts, _) in enumerate(_SPILLS):
        ckpt = tmp_path / f"c{i}"
        monkeypatch.setenv("FER_CHECKPOINT_DIR", str(ckpt))
        kw = {**opts, "dsir_target_texts": target, "max_tokens": 256, "unigram_vocab_size": 64}
        if "jsonl_export_path" in kw:
            kw["jsonl_export_path"] = str(tmp_path / f"jsonl{i}")
        assert curate_corpus(ds, **kw).count() > 0, opts
        tags = _spill_tags(ckpt)
        got.append(tags)
        funnel = _report(capsys)["curate_funnel"]
        want_funnel = {"input"} | {
            "survivors" if t == "named" else t[len("curate_") :] for t in tags
        }
        assert set(funnel) == want_funnel, (opts, funnel)
        for key in want_funnel - {"input"}:
            assert 0 < funnel[key] <= funnel["input"], (opts, funnel)
    assert got == [want for _, want in _SPILLS]


def test_barrier_frees_the_spill_it_consumed(ray_session, monkeypatch, tmp_path):
    """A barrier removes the anonymous spill before it once written;
    the named checkpoint and the last spill stay."""
    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))
    opts, _ = _SPILLS[-1]
    packed = curate_corpus(
        ray.data.from_pandas(_docs()),
        max_tokens=256,
        **{**opts, "jsonl_export_path": str(tmp_path / "jsonl")},
    )
    assert packed.count() > 0
    assert _spill_tags(tmp_path) == ["curate_clean", "named"]


# every pre-survivor option of curate_corpus with a changed value; each
# change alone must make a named resume raise
_PRE_SURVIVOR = {
    "near_dup_threshold": 0.8,
    "benchmark_texts": ["zebra quartz banjo fjord sphinx of black quartz judge my vow"],
    "decontam_ngram": 8,
    "fuzzy_decontam_threshold": 0.95,
    "embeddings": "changed",
    "semdedup_eps": 0.9,
    "emb_id_col": "vec_key",
    "c4_clean": False,
    "within_doc_line_dedup": False,
    "corpus_line_dedup": False,
    "c4_min_words": 2,
    "c4_min_sentences": 2,
    "c4_badwords": ("zebra",),
    "id_col": "key",
    "text_col": "body",
}
_POST_SURVIVOR = {
    "max_tokens", "dsir_target_texts", "dsir_n", "dsir_min_logw", "dsir_seed",
    "ppl_tail_quantile", "ppl_lm", "lm_max_vocab", "export_path", "bin_export_path",
    "jsonl_export_path", "jsonl_compression", "n_shards", "gopher_repetition",
    "clf_pos_texts", "clf_neg_texts", "clf_threshold", "clf_iters", "tokenizer",
    "bpe_merges", "unigram_vocab_size",
}


def test_resume_fingerprint_is_derived_from_the_plan(ray_session, monkeypatch, tmp_path, capsys):
    """Any one pre-survivor option changed makes a named resume raise; a
    changed post-survivor option still resumes (dedup skipped)."""
    import ray.data

    from fetch_engines_ray.pipelines.curate import curate_corpus

    params = set(inspect.signature(curate_corpus).parameters)
    assert set(_PRE_SURVIVOR) | _POST_SURVIVOR | {"ds", "checkpoint_name"} == params

    monkeypatch.setenv("FER_CHECKPOINT_DIR", str(tmp_path))
    monkeypatch.setenv("FER_CURATE_TIMING", "1")
    df = _docs()
    emb = _embeddings()
    changed_emb = emb.copy()
    changed_emb.at[3, "embedding"] = emb.at[4, "embedding"]
    base = {
        "max_tokens": 256,
        "checkpoint_name": "fp",
        "c4_clean": True,
        "c4_min_words": 1,
        "c4_min_sentences": 1,
        "within_doc_line_dedup": True,
        "corpus_line_dedup": True,
        "benchmark_texts": ["a benchmark question about violet canyons"],
        "fuzzy_decontam_threshold": 0.9,
        "embeddings": ray.data.from_pandas(emb),
    }
    first = curate_corpus(ray.data.from_pandas(df), **base).count()
    assert first > 0
    assert "near_dedup_decisions" in _report(capsys)["curate_timing_sec"]

    for opt, value in _PRE_SURVIVOR.items():
        data = df
        if opt == "embeddings":
            value = ray.data.from_pandas(changed_emb)
        elif opt in ("id_col", "text_col"):
            data = df.rename(columns={"doc_id": "key"} if opt == "id_col" else {"text": "body"})
        with pytest.raises(ValueError, match="fingerprint"):
            curate_corpus(ray.data.from_pandas(data), **{**base, opt: value})
        capsys.readouterr()

    for opt, value in [
        ("max_tokens", 128),
        ("ppl_tail_quantile", 0.1),
        ("gopher_repetition", True),
        ("tokenizer", "bpe"),
    ]:
        assert curate_corpus(ray.data.from_pandas(df), **{**base, opt: value}).count() > 0
        timing = _report(capsys)["curate_timing_sec"]
        assert "survivor_resume" in timing and "near_dedup_decisions" not in timing, opt


# the checkpoint helpers, and the only functions besides
# state/checkpoint.py allowed to call them
_CHECKPOINT_HELPERS = {
    "_checkpoint_parquet",
    "_cleanup_checkpoint",
    "footer_rows",
    "_named_checkpoint_path",
    "try_named_checkpoint",
    "write_named_checkpoint",
    "content_fingerprint",
    "plan_fingerprint",
}
_CHECKPOINT_CALLERS = {
    ("fetch_engines_ray/pipelines/curate.py", "_run"),
    ("fetch_engines_ray/ops/dedup.py", "_minhash_checkpoint"),
}


def _checkpoint_bypasses() -> list:
    """Calls of a checkpoint helper outside state/checkpoint.py, the
    curate plan loop and the MinHash signature spill (the innermost
    enclosing function counts), and defs of one outside its module."""
    paths = [
        p
        for p in [*(ROOT / "fetch_engines_ray").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py"), ROOT / "bench.py", ROOT / "__ray_entry__.py"]
        if p.exists()
    ]
    found = []
    for path in sorted(paths):
        rel = path.relative_to(ROOT).as_posix()
        if rel == "fetch_engines_ray/state/checkpoint.py":
            continue

        def visit(node, fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _CHECKPOINT_HELPERS:
                    found.append(f"{rel}:{node.lineno} def {node.name}")
                fn = node.name
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in _CHECKPOINT_HELPERS and (rel, fn) not in _CHECKPOINT_CALLERS:
                    found.append(f"{rel}:{node.lineno} {name}")
            for child in ast.iter_child_nodes(node):
                visit(child, fn)

        visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_only_the_plan_loop_calls_the_checkpoint_helpers():
    assert _checkpoint_bypasses() == []
