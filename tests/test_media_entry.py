"""`ray job submit` media-curation entry script: subprocess smoke.

The script owns its own Ray session in a child process (the library
never calls ray.init), so this runs it exactly as `ray job submit`
would on a cluster node."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPAN_TYPE = pa.struct(
    [("kind", pa.string()), ("text", pa.string()), ("media_ref", pa.string())]
)


def _write_extracted(path: str) -> None:
    def span(kind, text="", ref=""):
        return {"kind": kind, "text": text, "media_ref": ref}

    rows = [
        {
            "doc_id": "d1",
            "out_spans": [
                span("text", "Logo intro text."),
                span("image", ref="media://shared/logo"),
                span("text", "Caption after the logo."),
            ],
        },
        {
            "doc_id": "d2",
            "out_spans": [
                span("image", ref="media://shared/logo"),
                span("text", "Second doc reuses the logo."),
                span("audio", ref="media://d2/clip"),
            ],
        },
    ]
    schema = pa.schema([("doc_id", pa.string()), ("out_spans", pa.list_(SPAN_TYPE))])
    pq.write_table(pa.Table.from_pylist(rows, schema=schema), path)


def test_media_entry_smoke(tmp_path):
    inp = tmp_path / "extracted"
    inp.mkdir()
    _write_extracted(str(inp / "part0.parquet"))
    out = str(tmp_path / "pairs")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO, "scripts", "media_entry.py"),
            "--input", str(inp),
            "--output", out,
            "--num-cpus", "2",
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=240,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")]
    assert lines, proc.stdout[-500:]
    report = json.loads(lines[-1])
    assert report["pairs_written"] >= 2  # both logo occurrences + the clip
    assert os.path.exists(os.path.join(out, "_REPORT.json"))
    import pandas as pd

    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    df = pd.concat(pd.read_parquet(os.path.join(out, f)) for f in files)
    assert {"doc_id", "media_ref", "kind", "caption"} <= set(df.columns)
    assert set(df.loc[df["media_ref"] == "media://shared/logo", "doc_id"]) == {"d1", "d2"}
