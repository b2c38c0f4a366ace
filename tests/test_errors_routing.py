"""Error-code taxonomy (reference errors.ts analog) and regex route
overrides (C10 `(string | RegExp)[]` contract)."""

import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc
from fetch_engines_ray.functions import errors as errs


def _doc(doc_id, kind, text, base_url="", media_ref=""):
    return {
        "doc_id": doc_id,
        "spans": [{"kind": kind, "text": text, "media_ref": media_ref, "offset": 0}],
        "base_url": base_url,
        "archetype": "test",
        "expected_route": "",
    }


SOFT_BLOCK_HTML = (
    "<html><head><title>Just a moment...</title></head><body>"
    "<p>Checking your browser before accessing. Please enable JavaScript "
    "and complete the security check.</p></body></html>"
)


@pytest.fixture(scope="module")
def dead_letter_corpus(ray_session, tmp_path_factory):
    out = tmp_path_factory.mktemp("dl_corpus")
    rows = [
        _doc("ok-html", "html", "<html><body><main><h1>Fine</h1><p>Plenty of good text here.</p></main></body></html>"),
        _doc("bad-pdf-empty", "pdf", "   ", media_ref="pdf://e"),
        _doc("bad-pdf-notabs", "pdf", "h1 Title without separator\njust prose", media_ref="pdf://n"),
        _doc("blocked", "html", SOFT_BLOCK_HTML),
        _doc("good-pdf", "pdf", "h1\tReport\np\tA body paragraph.", media_ref="pdf://g"),
    ]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{out}/part0.parquet")
    return str(out)


def test_dead_letter_rows_carry_stable_codes(ray_session, dead_letter_corpus):
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    out = {
        r["doc_id"]: r
        for r in extract_corpus(
            dead_letter_corpus, PipelineConfig(batch_size=4)
        ).take_all()
    }
    assert len(out) == 5  # no task died; every doc produced a row
    assert out["ok-html"]["error_code"] == ""
    assert out["good-pdf"]["error_code"] == ""
    assert out["bad-pdf-empty"]["error_code"] == errs.ERR_PDF_PARSE
    assert out["bad-pdf-notabs"]["error_code"] == errs.ERR_PDF_PARSE
    assert out["blocked"]["error_code"] == errs.ERR_CHALLENGE_PAGE
    # dead-letter rows keep a raw passthrough payload (R3)
    assert out["bad-pdf-notabs"]["error"].startswith(errs.ERR_PDF_PARSE)


def test_soft_block_recovered_by_hydration_has_no_code(ray_session, tmp_path):
    """A shell doc that hydrates into real content must NOT be tagged
    ERR_CHALLENGE_PAGE (reference clears the error after a successful
    Playwright fallback)."""
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    body = "".join(
        f"<p>Recovered substantive paragraph number {i} with plenty of text.</p>"
        for i in range(40)
    )
    rows = [
        {
            "doc_id": "shell-recovered",
            "spans": [
                {"kind": "html", "text": SOFT_BLOCK_HTML, "media_ref": "", "offset": 0},
                {
                    "kind": "js_shell",
                    "text": f"<main><h1>Recovered</h1>{body}</main>",
                    "media_ref": "",
                    "offset": 1,
                },
            ],
            "base_url": "",
            "archetype": "test",
            "expected_route": "",
        }
    ]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{tmp_path}/p.parquet")
    (row,) = extract_corpus(str(tmp_path), PipelineConfig(batch_size=4)).take_all()
    assert row["route"] == "warm"
    assert row["error_code"] == ""
    assert row["n_out_chars"] > 1500


def test_regex_route_override(ray_session, tmp_path):
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    rows = [make_doc(i, 7) for i in range(12)]
    for i, r in enumerate(rows):
        r["base_url"] = f"https://site{i % 3}.example.com/page/{i}"
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{tmp_path}/p.parquet")

    pattern = re.compile(r"site[01]\.example\.com")
    forced = extract_corpus(
        str(tmp_path), PipelineConfig(warm_url_patterns=(pattern,), batch_size=4)
    ).to_pandas()
    assert len(forced) == 12
    n_warm_forced = 0
    for _, r in forced.iterrows():
        idx = int(r["doc_id"][3:])
        if idx % 3 in (0, 1):  # base_url matches the regex
            assert r["route"] == "warm"
            n_warm_forced += 1
    assert n_warm_forced == 8


def test_escalation_tags_exhausted_rows(ray_session, tmp_path):
    """Rows still below the quality bar after the warm re-run carry
    ERR_MAX_RETRIES_REACHED."""
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_with_escalation

    rows = [
        _doc("thin", "html", "<html><body><p>tiny</p></body></html>"),
        _doc("rich", "html", "<html><body><main><h1>Rich</h1>"
             + "".join(f"<p>Substantial paragraph {i} with many words inside.</p>" for i in range(30))
             + "</main></body></html>"),
    ]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{tmp_path}/p.parquet")
    out = {
        r["doc_id"]: r
        for r in extract_with_escalation(
            str(tmp_path), PipelineConfig(batch_size=4), min_quality=3
        ).take_all()
    }
    assert out["rich"]["error_code"] == ""
    assert out["thin"]["quality_score"] < 3
    assert out["thin"]["error_code"] == errs.ERR_MAX_RETRIES_REACHED


def test_rendered_dom_snapshot_weight_set():
    """C11 weight set pinned to PlaywrightEngine.ts:324-375."""
    from fetch_engines_ray.functions.render_detection import (
        capture_rendered_dom_snapshot,
        rendered_snapshot_has_meaningful_content,
    )

    shell = "<html><head></head><body><div id='root'></div></body></html>"
    s = capture_rendered_dom_snapshot(shell)
    # title=0 (+2), text<80 (+3), html<2000 (+1), empty root & text<120
    # (+2), no main/heading & text<140 (+1) = 9
    assert s.shell_score == 9 and s.quality_score == 0

    body = "x" * 130
    rich = (
        "<html><head><title>A Long Enough Title</title></head><body>"
        f"<main><h1>Heading Words Here</h1><p>{body}</p><p>{body}</p><p>{body}</p>"
        "</main></body></html>"
    )
    r = capture_rendered_dom_snapshot(rich)
    # text 390+ -> min(6, //120)=3; title 19 -> +1; main-like>=120 -> +2;
    # heading>=12 -> +1
    assert r.quality_score == 3 + 1 + 2 + 1
    assert r.shell_score == 1  # only html<2000
    assert rendered_snapshot_has_meaningful_content(r, s)
    assert not rendered_snapshot_has_meaningful_content(s, s)


def test_unconverged_hydration_keeps_fast_result(ray_session, tmp_path):
    """A js_shell payload that leaves the DOM shell-like must NOT win
    over the fast result (the reference's best-snapshot fallback)."""
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    shell = (
        "<html><head><title>Shell</title></head><body>"
        "<div id=\"root\"></div><noscript>enable javascript</noscript></body></html>"
    )
    rows = [
        {
            "doc_id": "never-hydrates",
            "spans": [
                {"kind": "html", "text": shell, "media_ref": "", "offset": 0},
                {"kind": "js_shell", "text": "<span> </span>", "media_ref": "", "offset": 1},
            ],
            "base_url": "",
            "archetype": "test",
            "expected_route": "",
        }
    ]
    pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA), f"{tmp_path}/p.parquet")
    (row,) = extract_corpus(str(tmp_path), PipelineConfig(batch_size=4)).take_all()
    assert row["route"] == "warm"
    # fast result of the bare shell: tiny, but not replaced by the
    # equally-shell-like "hydrated" DOM
    assert row["n_out_chars"] < 200
