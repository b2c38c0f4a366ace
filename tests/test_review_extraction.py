"""Regression pins for the session-7 extraction-core review findings
(routing wipe, hydration escaping, corrupt-shard containment, null
offsets, dead-letter contract, challenge precedence, resumable routing
parity, task-mode budget)."""

import gzip

import numpy as np
import pyarrow as pa
import pytest

SOFT_BLOCK_HTML = (
    "<html><head><title>Just a moment...</title></head><body>"
    "<p>Checking your browser before accessing example.com.</p>"
    "<p>Please enable JavaScript and cookies to continue.</p>"
    "</body></html>"
)

ARTICLE_HTML = (
    "<html><head><title>A real, fully server-rendered article</title></head>"
    "<body><main><h1>Real article</h1>"
    + "".join(
        f"<p>Substantive paragraph number {i} with plenty of meaningful words "
        "in it, written out at article length so the render-need scorer sees "
        "a fully server-rendered page rather than a short client shell.</p>"
        for i in range(30)
    )
    + "</main></body></html>"
)


def _span(kind, text, offset, media_ref=""):
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


# ------------------------------------------------------- routing wipe


def test_force_fast_on_warm_looking_doc_is_not_wiped_by_warm_stage():
    """force_route='fast' on a doc whose HTML naturally routes warm must
    keep its fast extraction: pre-fix, the inner re-route flipped the
    row to route='warm' with raw_spans=None and the warm stage replaced
    the extraction with an empty page (verified n_out_chars 78 → 0)."""
    from fetch_engines_ray.stages.extract import (
        extract_fast_batch,
        warm_extract_batch,
    )

    batch = pa.Table.from_pylist(
        [
            {
                "doc_id": "forced",
                "spans": [_span("html", SOFT_BLOCK_HTML, 0)],
                "base_url": "https://ex.com/f",
                "archetype": "",
                "force_route": "fast",
            },
            {
                "doc_id": "normal",
                "spans": [_span("html", ARTICLE_HTML, 0)],
                "base_url": "https://ex.com/n",
                "archetype": "",
                "force_route": None,
            },
        ]
    )
    out = warm_extract_batch(extract_fast_batch(batch)).to_pylist()
    rows = {r["doc_id"]: r for r in out}
    assert rows["forced"]["route"] == "fast"
    assert rows["forced"]["n_out_chars"] > 0
    assert rows["normal"]["n_out_chars"] > 0


def test_warm_stage_reuses_the_fast_stage_route(monkeypatch):
    """Each doc is routed once: the warm stage extracts from the decision
    carried in the placeholder row, and its rows equal a fresh
    force_route='warm' extraction — for naturally warm docs, docs forced
    by a force_route='warm' column (escalation) and C10 pattern-forced
    docs."""
    import fetch_engines_ray.stages.extract as sx
    from fetch_engines_ray.corpus.generate import make_doc

    docs = [make_doc(i, 5) for i in range(60)]
    for i, d in enumerate(docs):
        d["force_route"] = "warm" if i % 7 == 0 else None
        d.pop("expected_route")
    patterns = ("/1", "/2")  # base_urls end in /<idx>: forces idx 1, 2, 10-29
    batch = pa.Table.from_pylist(docs)

    calls = []
    route = sx.route_document
    monkeypatch.setattr(sx, "route_document", lambda *a, **k: calls.append(1) or route(*a, **k))
    out = sx.warm_extract_batch(sx.extract_fast_batch(batch, warm_url_patterns=patterns)).to_pylist()
    assert len(calls) == len(docs)

    ex = sx.DocumentExtractor()
    warm = [r for r in out if r["route"] == "warm"]
    kinds = {"js_shell", "pdf", "forced", "pattern"}
    seen = set()
    for r, d in zip(out, docs):
        if r["route"] != "warm":
            continue
        if d["force_route"] == "warm":
            seen.add("forced")
        if any(p in d["base_url"] for p in patterns):
            seen.add("pattern")
        seen |= {s["kind"] for s in d["spans"]} & kinds
        want = ex.extract_document(
            d["doc_id"], d["spans"], d["base_url"], d["archetype"], force_route="warm"
        )
        assert r == want
    assert seen == kinds and len(warm) > 15


# --------------------------------------------------- hydration escaping


def test_hydrate_shell_inserts_backslash_payload_verbatim():
    """The body-close insertion must treat the payload as literal text:
    a template-string re.sub raises re.error on '\\d' and substitutes
    '\\g<0>' instead of inserting it."""
    from fetch_engines_ray.stages.extract import hydrate_shell

    shell = "<html><body><p>shell</p></body></html>"
    payload = r"<script>var re = /\d+/;</script><p>uses \g<0> literally</p>"
    hydrated = hydrate_shell(shell, payload)
    assert payload in hydrated
    assert hydrated.endswith("</body></html>")


# ------------------------------------------- corrupt gzip shard skipped


def test_read_warc_skips_mid_stream_gzip_corruption(ray_session, tmp_path):
    """Bit-rot past the gzip header raises zlib.error, which the shard
    handler must treat like any other corrupt shard: skip the FILE,
    keep every other file in the read."""
    from fetch_engines_ray.sources.warc import read_warc, write_warc

    good = str(tmp_path / "good.warc")
    write_warc(
        [{"url": "https://ex.com/a", "html": "<html><body><p>alpha page body</p></body></html>"}],
        good,
    )
    # a gzip member whose tail is corrupted mid-stream
    blob = bytearray(gzip.compress(b"WARC/1.0\r\n" + b"x" * 4096))
    for i in range(len(blob) // 2, len(blob)):
        blob[i] ^= 0xA5
    bad = tmp_path / "bad.warc"
    bad.write_bytes(bytes(blob))

    docs = read_warc([good, str(bad)]).take_all()
    assert [d["doc_id"] for d in docs] == ["good.warc:0"]


# --------------------------------------------------- null span offsets


def test_read_jsonl_docs_tolerates_null_padded_offsets(ray_session, tmp_path):
    """When some docs' spans carry 'offset' and others omit it, Arrow
    null-pads the field (key present, value None) — the reader must
    fall back to the span index instead of int(None) crashing."""
    import json

    from fetch_engines_ray.sources.io import read_jsonl_docs

    lines = [
        {"doc_id": "with", "spans": [
            {"kind": "html", "text": "<p>a</p>", "media_ref": "", "offset": 5}]},
        {"doc_id": "without", "spans": [
            {"kind": "html", "text": "<p>b</p>", "media_ref": ""}]},
    ]
    p = tmp_path / "docs.jsonl"
    p.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    rows = {r["doc_id"]: r for r in read_jsonl_docs(str(p)).take_all()}
    assert rows["with"]["spans"][0]["offset"] == 5
    assert rows["without"]["spans"][0]["offset"] == 0


# ------------------------------------------------- js_shell dead letter


def test_js_shell_without_html_span_dead_letters():
    """A hydration payload with no html span to hydrate is
    unextractable by construction — it must carry an error_code, not
    return a silent empty page."""
    from fetch_engines_ray.functions import errors as errs
    from fetch_engines_ray.stages.extract import DocumentExtractor

    ex = DocumentExtractor()
    row = ex.extract_document(
        "orphan", [_span("js_shell", "<p>payload</p>", 0)], None
    )
    assert row["n_out_chars"] == 0
    assert row["error_code"] == errs.ERR_CONVERSION
    assert "js_shell" in row["error"]


# --------------------------------------- challenge-code precedence


def test_escalation_keeps_challenge_code_over_retry_exhausted(ray_session, tmp_path):
    """A challenge page that stays blocked after the warm re-run is a
    CHALLENGE failure; tag_exhausted must not clobber it with
    ERR_MAX_RETRIES_REACHED (eval gating keys on the challenge code)."""
    import pyarrow.parquet as pq

    from fetch_engines_ray.functions import errors as errs
    from fetch_engines_ray.pipelines.extract import extract_with_escalation
    from fetch_engines_ray.stages.extract import RAW_SPAN_TYPE

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    table = pa.Table.from_pylist(
        [
            {
                "doc_id": "challenge",
                "spans": [_span("html", SOFT_BLOCK_HTML, 0)],
                "base_url": "https://ex.com/c",
                "archetype": "spa",
            },
            {
                "doc_id": "fine",
                "spans": [_span("html", ARTICLE_HTML, 0)],
                "base_url": "https://ex.com/ok",
                "archetype": "static",
            },
        ],
        schema=pa.schema(
            [
                ("doc_id", pa.string()),
                ("spans", pa.list_(RAW_SPAN_TYPE)),
                ("base_url", pa.string()),
                ("archetype", pa.string()),
            ]
        ),
    )
    pq.write_table(table, str(corpus / "part-0.parquet"))
    out = {r["doc_id"]: r for r in extract_with_escalation(str(corpus)).take_all()}
    assert out["challenge"]["error_code"] == errs.ERR_CHALLENGE_PAGE
    assert out["fine"]["error_code"] != errs.ERR_MAX_RETRIES_REACHED


# ----------------------------------- resumable routing parity (C10)


def test_run_resumable_honors_force_route_and_url_patterns(ray_session, tmp_path):
    """'Resume equals rerun': the fragment runner must apply the same
    C10 pattern overrides and per-row force_route as the two-stage
    pipeline (pre-fix it silently dropped both)."""
    import pyarrow.parquet as pq

    from fetch_engines_ray.pipelines.extract import PipelineConfig, run_resumable
    from fetch_engines_ray.stages.extract import RAW_SPAN_TYPE

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    table = pa.Table.from_pylist(
        [
            {
                "doc_id": "forced-warm",
                "spans": [_span("html", ARTICLE_HTML, 0)],
                "base_url": "https://ex.com/a",
                "archetype": "",
                "force_route": "warm",
            },
            {
                "doc_id": "pattern-warm",
                "spans": [_span("html", ARTICLE_HTML, 0)],
                "base_url": "https://warmme.example/x",
                "archetype": "",
                "force_route": None,
            },
            {
                "doc_id": "plain",
                "spans": [_span("html", ARTICLE_HTML, 0)],
                "base_url": "https://ex.com/b",
                "archetype": "",
                "force_route": None,
            },
        ],
        schema=pa.schema(
            [
                ("doc_id", pa.string()),
                ("spans", pa.list_(RAW_SPAN_TYPE)),
                ("base_url", pa.string()),
                ("archetype", pa.string()),
                ("force_route", pa.string()),
            ]
        ),
    )
    pq.write_table(table, str(corpus / "part-0.parquet"))
    out_dir = str(tmp_path / "out")
    cfg = PipelineConfig(warm_url_patterns=("warmme.example",))
    run_resumable(str(corpus), out_dir, cfg, concurrency=1)
    got = {
        r["doc_id"]: r["route"]
        for r in pq.read_table(f"{out_dir}/part-0.out.parquet").to_pylist()
    }
    assert got["forced-warm"] == "warm"
    assert got["pattern-warm"] == "warm"
    assert got["plain"] == "fast"


# ------------------------------------------- task-mode budget refused


def test_structured_task_mode_rejects_cumulative_budget(ray_session):
    """max_total_tokens cannot accumulate across task-pool workers
    (each mutates its own deserialized copy) — requesting it without an
    actor pool must raise instead of silently never tripping."""
    import ray.data

    from fetch_engines_ray.stages.structured import (
        FieldSpec,
        ProviderSpec,
        structured_extract,
    )

    ds = ray.data.from_items([{"doc_id": 1, "text": "price: 5"}])
    fields = [
        FieldSpec(
            name="price",
            description="the price",
            pattern=r"price: (?P<value>\d+)",
            dtype=pa.int64(),
        )
    ]
    with pytest.raises(ValueError, match="actor-pool"):
        structured_extract(
            ds,
            fields,
            provider=ProviderSpec(max_total_tokens=10),
        )
    # actor-pool form with the same budget is the supported path
    out = structured_extract(
        ds,
        fields,
        provider=ProviderSpec(max_total_tokens=10_000),
        concurrency=1,
    ).to_pandas()
    assert len(out) == 1
