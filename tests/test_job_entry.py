"""`ray job submit` entry script: subprocess smoke + resume contract.

The script owns its own Ray session in a child process (the library
never calls ray.init), so this test runs it exactly as `ray job
submit` would on a cluster node."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_corpus(path: str, n: int = 8) -> None:
    from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc

    rows = [make_doc(i, 42) for i in range(n)]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), path)


def _run(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "job_entry.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=240,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")]
    assert lines, proc.stdout[-500:]
    return json.loads(lines[-1])


def test_job_entry_resumable_run_and_skip(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write_corpus(str(corpus / "part0.parquet"), 5)
    _write_corpus(str(corpus / "part1.parquet"), 5)
    out = str(tmp_path / "out")

    first = _run(["--input", str(corpus), "--output", out, "--resumable",
                  "--concurrency", "2"])
    assert first["fragments"] == {"processed": 2, "skipped": 0, "rows": 10}
    import pandas as pd

    got = pd.concat(
        pd.read_parquet(os.path.join(root, f))
        for root, _d, files in os.walk(out)
        for f in files
        if f.endswith(".parquet")
    )
    assert len(got) == 10
    assert "out_spans" in got.columns

    # second submit resumes: every fragment's lineage is complete
    second = _run(["--input", str(corpus), "--output", out, "--resumable",
                   "--concurrency", "2"])
    assert second["fragments"] == {"processed": 0, "skipped": 2, "rows": 0}


def test_job_entry_writes_datacard(tmp_path):
    corpus = str(tmp_path / "c.parquet")
    _write_corpus(corpus, n=6)
    out = str(tmp_path / "out")
    card = str(tmp_path / "card.md")
    res = _run(["--input", corpus, "--output", out, "--concurrency", "2", "--datacard", card])
    assert res["datacard"] == card
    text = open(card).read()
    assert text.startswith("# Datacard:")
    assert "## Column profile" in text and "## Quality gates" in text
    assert "3/3 gates pass." in text


def _run_curate(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "curate_entry.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=240,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")]
    assert lines, proc.stdout[-500:]
    return json.loads(lines[-1])


def test_curate_entry_smoke(tmp_path):
    """The curation job script end-to-end in a child process: exact dup
    collapses, the benchmark-contaminated doc drops (exact n-gram gate),
    the fuzzy flag parses, and packed sequences land as parquet."""
    import numpy as np
    import pandas as pd

    rng = np.random.RandomState(23)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        for i in range(15)
    ]
    rows.append({"doc_id": 100, "text": rows[0]["text"]})  # exact dup
    docs = str(tmp_path / "docs.parquet")
    pd.DataFrame(rows).to_parquet(docs)
    bench_file = tmp_path / "bench.txt"
    bench_file.write_text(" ".join(rows[2]["text"].split()[:20]) + "\n")
    out = str(tmp_path / "packed")

    res = _run_curate(
        [
            "--input", docs,
            "--output", out,
            "--benchmark-file", str(bench_file),
            "--fuzzy-threshold", "0.8",
            "--max-tokens", "256",
        ]
    )
    assert res["docs_in"] == 16
    assert res["sequences"] > 0

    packed = pd.concat(
        pd.read_parquet(os.path.join(root, f))
        for root, _d, files in os.walk(out)
        for f in files
        if f.endswith(".parquet")
    )
    assert len(packed) == res["sequences"]
    packed_docs = sorted(d for ids in packed["doc_ids"] for d in ids)
    assert 100 not in packed_docs  # exact dup collapsed
    assert 2 not in packed_docs  # contaminated by the benchmark excerpt
    assert 0 in packed_docs and 1 in packed_docs


def test_curate_entry_drops_exact_and_near_dups(tmp_path):
    """Near-dedup through the CLI: the exact clone and the near clone
    both drop, and their min-id representatives survive."""
    import numpy as np
    import pandas as pd

    rng = np.random.RandomState(5)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(50)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 90)))}
        for i in range(12)
    ]
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[1]["text"] + " tail"})
    docs = str(tmp_path / "docs.parquet")
    pd.DataFrame(rows).to_parquet(docs)

    out = str(tmp_path / "packed")
    res = _run_curate(["--input", docs, "--output", out, "--max-tokens", "256"])
    assert res["sequences"] > 0
    packed = pd.concat(
        pd.read_parquet(os.path.join(root, f))
        for root, _d, files in os.walk(out)
        for f in files
        if f.endswith(".parquet")
    )
    survivors = sorted(d for ids in packed["doc_ids"] for d in ids)
    assert 100 not in survivors and 101 not in survivors
    assert 0 in survivors and 1 in survivors
