"""Ray Data extraction stages.

The pipeline's heart: two task-function ``map_batches`` stages
(:func:`extract_fast_batch` → :func:`warm_extract_batch`) that Ray Data
fuses into one self-scheduling task-pool operator.  They turn
interleaved ``(doc_id, spans)`` documents into extracted
``(doc_id, out_spans, title, route, …)`` rows; the compiled converter
state is built once per worker process and cached.

Per-document semantics (reference: HybridEngine.fetchHTML,
/root/reference/src/HybridEngine.ts:126-223):

* classify raw HTML (app-shell score, soft-block) → route fast/warm
* fast: convert every ``html`` span to Markdown (converter chain M1-M22)
* warm: deterministically "hydrate" ``js_shell`` payloads into the shell
  (replacing the Playwright render), layout-parse ``pdf`` spans, then
  keep the warm result only when meaningfully better (C7 best-of)
* media spans (image/video/audio) pass through as placeholders with
  ``media_ref`` and relative order preserved exactly
"""

from __future__ import annotations

import re
from typing import Any, Optional

import pyarrow as pa

from ..functions import converter as conv
from ..functions import errors as errs
from ..functions import render_detection as rd

# Output spans: kind = "text" for markdown blocks, original kind for media.
SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),
    ]
)

OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("out_spans", pa.list_(SPAN_TYPE)),
        ("title", pa.string()),
        ("route", pa.string()),
        ("shell_score", pa.int32()),
        ("quality_score", pa.int32()),
        ("soft_block", pa.bool_()),
        ("is_forum", pa.bool_()),
        ("render_needed", pa.bool_()),
        ("error", pa.string()),
        ("error_code", pa.string()),
        ("n_out_chars", pa.int64()),
        ("archetype", pa.string()),
    ]
)

MEDIA_KINDS = frozenset({"image", "video", "audio"})

# Input span struct (BASELINE.json input_hint shape).
RAW_SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

# Intermediate schema between the fast stage and the warm stage: final
# output columns plus the raw spans/base_url carried only for rows
# routed "warm" (null for fast rows).
EXTENDED_SCHEMA = pa.schema(
    list(OUTPUT_SCHEMA)
    + [
        ("raw_spans", pa.list_(RAW_SPAN_TYPE)),
        ("base_url", pa.string()),
    ]
)

_ROOT_DIV_RE = re.compile(
    r"(<(?:div|main|section)[^>]*\bid=[\"']?(?:root|app)\b[\"']?[^>]*>)(\s*)(</(?:div|main|section)>)",
    re.I,
)
_BODY_CLOSE_RE = re.compile(r"</body>", re.I)


def hydrate_shell(shell_html: str, payload_html: str) -> str:
    """Deterministic stand-in for a browser hydration pass.

    Inserts the hydration payload into the empty root container (the DOM
    a JS framework would have produced), mirroring what
    ``page.content()`` returns after the reference's rendered-DOM
    quiet-window wait (/root/reference/src/PlaywrightEngine.ts:387-479).
    """
    new, n = _ROOT_DIV_RE.subn(lambda m: m.group(1) + payload_html + m.group(3), shell_html, count=1)
    if n:
        return new
    # lambda replacement, NOT a template string: payload HTML containing
    # backslash sequences ("\d" in inline JS, "\g<0>") would otherwise
    # raise re.error / be substituted instead of inserted verbatim
    new, n = _BODY_CLOSE_RE.subn(lambda _m: payload_html + "</body>", shell_html, count=1)
    if n:
        return new
    return shell_html + payload_html


def parse_pdf_layout(layout_text: str) -> str:
    """Layout-parse a synthetic PDF text stream to Markdown.

    The corpus encodes PDF layout as tab-separated ``kind\\ttext`` lines
    (kinds: h1-h6, p, li, table with ``|``-separated cells and
    ``;``-separated rows).  This is the deterministic stand-in for a real
    PDF layout engine (north_rule: "PDF/layout parse"); the Ray-side
    plumbing (worker state, batching, schema) is identical to what a real
    parser would need.

    Raises :class:`errs.ExtractionError` (``ERR_PDF_PARSE``) on a
    malformed stream (empty, or a non-empty line with no kind separator)
    — the caller turns it into a dead-letter row, never a task failure.
    """
    if not layout_text.strip():
        raise errs.ExtractionError("empty PDF layout stream", errs.ERR_PDF_PARSE)
    blocks: list[str] = []
    for line in layout_text.split("\n"):
        if not line.strip():
            continue
        kind, sep, text = line.partition("\t")
        if not sep:
            raise errs.ExtractionError(
                f"malformed PDF layout line (no kind separator): {line[:60]!r}",
                errs.ERR_PDF_PARSE,
            )
        kind = kind.strip().lower()
        text = text.strip()
        if kind in ("h1", "h2", "h3", "h4", "h5", "h6"):
            blocks.append("#" * int(kind[1]) + " " + text)
        elif kind == "li":
            blocks.append("- " + text)
        elif kind == "table":
            rows = [r.split("|") for r in text.split(";") if r]
            if rows:
                ncols = max(len(r) for r in rows)
                lines = ["| " + " | ".join(r + [""] * (ncols - len(r))) + " |" for r in rows]
                lines.insert(1, "| " + " | ".join(["---"] * ncols) + " |")
                blocks.append("\n".join(lines))
        else:  # p and anything unknown
            blocks.append(text)
    return "\n\n".join(blocks)


class _RenderNotConverged(Exception):
    """Internal: hydrated DOM still shell-like — keep the fast result."""


def _pattern_matches(pattern, url: str) -> bool:
    """One C10 override entry against a URL: ``re.Pattern`` → search,
    anything else → substring (reference ``(string | RegExp)[]``,
    /root/reference/src/HybridEngine.ts:160-170)."""
    if isinstance(pattern, re.Pattern):
        return pattern.search(url) is not None
    return pattern in url


def route_document(
    spans: list[dict],
    force_route: Optional[str] = None,
    url: Optional[str] = None,
    warm_url_patterns: tuple = (),
) -> tuple[list[dict], dict[str, Any]]:
    """C9 routing predicate (/root/reference/src/HybridEngine.ts:58-66):
    sort spans by offset and decide fast vs warm from the raw HTML
    (shell-score + soft-block computed BEFORE any conversion, pinned by
    the reference's test/HybridEngine.test.ts:311-330).

    Overrides (C10, /root/reference/src/HybridEngine.ts:160-170 and the
    per-request ``fastMode`` knob, src/types.ts:221-230):
    ``warm_url_patterns`` entries matched against ``url`` force the
    warm path — each entry is either a plain substring or a compiled
    ``re.Pattern`` (``pattern.search(url)``), matching the reference's
    ``(string | RegExp)[]`` contract (src/types.ts:199-205);
    ``force_route`` ("fast"/"warm") is a per-row override — forcing
    "fast" still yields warm when the doc physically needs the warm
    engine (js_shell/pdf spans can't be extracted without it).
    """
    spans = sorted(spans, key=lambda s: s["offset"])
    full_html = "\n".join(s["text"] or "" for s in spans if s["kind"] == "html")
    has_js_shell = any(s["kind"] == "js_shell" for s in spans)
    has_pdf = any(s["kind"] == "pdf" for s in spans)
    assessment = rd.assess_html_render_need(full_html) if full_html else None
    soft_block = rd.is_soft_block_page(full_html) if full_html else False
    render_needed = assessment.render_likely_needed if assessment else False
    shell_score = assessment.render_likely_needed_score if assessment else 0
    route = "warm" if (soft_block or render_needed or has_js_shell or has_pdf) else "fast"
    if force_route == "warm" or (url and any(_pattern_matches(p, url) for p in warm_url_patterns)):
        route = "warm"
    elif force_route == "fast" and not (has_js_shell or has_pdf):
        route = "fast"
    return spans, {
        "route": route,
        "shell_score": shell_score,
        "soft_block": soft_block,
        "render_needed": render_needed,
        "has_js_shell": has_js_shell,
        "has_pdf": has_pdf,
    }


class DocumentExtractor:
    """Batch extractor: ``pa.Table`` in → ``pa.Table`` out.

    All compiled state (regexes, the selector cache warmed by a priming
    conversion) is built once in ``__init__``: once per worker process
    for the two pipeline stages (:func:`_cached_extractor`), once per
    fragment actor for the resumable runner.
    """

    def __init__(
        self,
        max_content_length: Optional[int] = None,
        warm_url_patterns: tuple = (),
    ) -> None:
        self.max_content_length = max_content_length
        # C10 route overrides, honored by __call__ so every entry point
        # (incl. the resumable fragment runner) routes identically to
        # the two-stage pipeline
        self.warm_url_patterns = tuple(warm_url_patterns)
        # Prime the selector cache / regex modules once per instance.
        conv.convert("<body><main><h1>warmup</h1><p>warmup doc</p></main></body>")

    # -- per-document ------------------------------------------------------
    def _convert_html(self, html: str, base_url: Optional[str]) -> conv.ConvertResult:
        return conv.convert(html, base_url=base_url, max_content_length=self.max_content_length)

    def extract_document(
        self,
        doc_id: str,
        spans: list[dict],
        base_url: Optional[str],
        archetype: str = "",
        force_route: Optional[str] = None,
        warm_url_patterns: tuple = (),
        routed_rt: Optional[dict] = None,
    ) -> dict[str, Any]:
        # ``routed_rt``: the caller already ran route_document on these
        # spans (the fast stage routes every doc to SPLIT the stream) —
        # re-deriving here would (a) pay the shell-score/soft-block
        # regex scans twice per doc and (b) silently overturn a forced
        # route: a force_route="fast" doc whose HTML naturally routes
        # warm would be re-labeled route="warm" with raw_spans=None and
        # the warm stage would wipe its extraction to empty.
        if routed_rt is None:
            spans, rt = route_document(
                spans, force_route=force_route, url=base_url, warm_url_patterns=warm_url_patterns
            )
        else:
            rt = routed_rt
        has_js_shell = rt["has_js_shell"]
        soft_block = rt["soft_block"]
        render_needed = rt["render_needed"]
        shell_score = rt["shell_score"]
        route = rt["route"]

        out_spans: list[dict] = []
        title = ""
        is_forum = False
        error = ""
        error_code = ""
        order = 0
        first_text_emitted = False

        # Pre-collect hydration payloads (they are consumed by the html
        # span they hydrate, not emitted on their own).
        payloads = [s["text"] or "" for s in spans if s["kind"] == "js_shell"]
        payload_iter = iter(payloads)

        for s in spans:
            kind = s["kind"]
            if kind in MEDIA_KINDS:
                out_spans.append(
                    {"kind": kind, "text": "", "media_ref": s["media_ref"] or "", "order": order}
                )
                order += 1
                continue
            if kind == "js_shell":
                continue  # consumed by hydration
            try:
                if kind == "pdf":
                    md = conv.postprocess_markdown(
                        parse_pdf_layout(s["text"] or ""), self.max_content_length
                    )
                elif kind in ("html", "text"):
                    html = s["text"] or ""
                    if kind == "text":
                        md = html.strip()
                    else:
                        fast_res = self._convert_html(html, base_url)
                        md = fast_res.markdown
                        if not title:
                            title = fast_res.title
                        if route == "warm" and has_js_shell:
                            payload = next(payload_iter, None)
                            if payload is not None:
                                # Warm render + best-of merge (C7,
                                # /root/reference/src/HybridEngine.ts:183-204)
                                try:
                                    hydrated = hydrate_shell(html, payload)
                                    # C11/A7 convergence gate: the quiet-
                                    # window loop's exit predicate over the
                                    # rendered-DOM snapshot (PlaywrightEngine
                                    # .ts:387-479).  Cheap short-circuit:
                                    # text>=200 alone satisfies it; the full
                                    # snapshot runs only for under-hydrated
                                    # docs.  A DOM that never converges past
                                    # the shell keeps the fast result (the
                                    # reference's best-snapshot fallback).
                                    if len(rd.strip_html_to_visible_text(hydrated)) < 200:
                                        snap = rd.capture_rendered_dom_snapshot(hydrated)
                                        initial = rd.capture_rendered_dom_snapshot(html)
                                        if not rd.rendered_snapshot_has_meaningful_content(
                                            snap, initial
                                        ):
                                            raise _RenderNotConverged()
                                    warm_res = self._convert_html(hydrated, base_url)
                                    baseline = rd.assess_serialized_content(md, "markdown")
                                    candidate = rd.assess_serialized_content(
                                        warm_res.markdown, "markdown"
                                    )
                                    if rd.is_rendered_content_meaningfully_better(
                                        baseline, candidate
                                    ):
                                        md = warm_res.markdown
                                        if warm_res.title:
                                            title = warm_res.title
                                except Exception:
                                    pass  # render failure keeps fast result (R1)
                        if fast_res.is_forum:
                            is_forum = True
                else:
                    # unknown span kind: opaque passthrough
                    out_spans.append(
                        {
                            "kind": kind,
                            "text": s["text"] or "",
                            "media_ref": s["media_ref"] or "",
                            "order": order,
                        }
                    )
                    order += 1
                    continue
            except Exception as exc:  # R3: conversion failure → raw passthrough
                code = exc.code if isinstance(exc, errs.ExtractionError) else errs.ERR_CONVERSION
                error = f"{code}: {exc}"
                if not error_code:
                    error_code = code
                md = s["text"] or ""
            if not first_text_emitted and base_url and md:
                md = conv.inject_source_url(md, base_url)
                first_text_emitted = True
            out_spans.append({"kind": "text", "text": md, "media_ref": "", "order": order})
            order += 1

        out_text = "\n\n".join(sp["text"] for sp in out_spans if sp["kind"] == "text")
        quality = rd.assess_serialized_content(out_text, "markdown").quality_score if out_text else 0
        # a js_shell payload with no html span to hydrate is
        # unextractable by construction — dead-letter it like every
        # other unextractable kind instead of returning a silent empty
        # page (the wire-format contract: hydration payloads are
        # consumed BY an html span, never emitted on their own)
        if payloads and not error_code and not any(s["kind"] == "html" for s in spans):
            error_code = errs.ERR_CONVERSION
            error = f"{errs.ERR_CONVERSION}: js_shell payload with no html span to hydrate"
        # challenge pages outrank span-level codes — but only when the
        # doc is STILL blocked after the warm pass (the reference clears
        # the challenge error after a successful Playwright fallback,
        # /root/reference/src/HybridEngine.ts:126-223)
        if soft_block and (not out_text or rd.is_soft_block_page(out_text)):
            error_code = errs.ERR_CHALLENGE_PAGE
            if not error:
                error = f"{errs.ERR_CHALLENGE_PAGE}: soft-block/challenge page not recovered"

        return {
            "doc_id": doc_id,
            "out_spans": out_spans,
            "title": title,
            "route": route,
            "shell_score": shell_score,
            "quality_score": quality,
            "soft_block": soft_block,
            "is_forum": is_forum,
            "render_needed": render_needed,
            "error": error,
            "error_code": error_code,
            "n_out_chars": len(out_text),
            "archetype": archetype,
        }

    # -- per-batch ---------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        base_urls = (
            batch.column("base_url").to_pylist()
            if "base_url" in batch.column_names
            else [None] * len(doc_ids)
        )
        archetypes = (
            batch.column("archetype").to_pylist()
            if "archetype" in batch.column_names
            else [""] * len(doc_ids)
        )
        forces = (
            batch.column("force_route").to_pylist()
            if "force_route" in batch.column_names
            else [None] * len(doc_ids)
        )
        rows = [
            self.extract_document(
                d, s or [], u, a or "",
                force_route=fr,
                warm_url_patterns=self.warm_url_patterns,
            )
            for d, s, u, a, fr in zip(doc_ids, spans_col, base_urls, archetypes, forces)
        ]
        return pa.Table.from_pylist(rows, schema=OUTPUT_SCHEMA)


# ---------------------------------------------------------------------------
# Two-stage split: fast stage + warm stage, both task functions.
#
# The flagship pipeline runs  read → extract_fast_batch → warm_extract_batch
# → write  as ONE linear stream: the fast stage fully extracts
# "fast"-routed docs and passes "warm"-routed docs through untouched (raw
# spans carried in `raw_spans`), so no branch of the Dataset is ever
# executed twice and only the small warm fraction is extracted by the
# warm stage.  Reference analog: HybridEngine's per-doc
# fast-then-maybe-render orchestration
# (/root/reference/src/HybridEngine.ts:126-223) re-expressed as two
# dataset stages instead of per-record control flow.
# ---------------------------------------------------------------------------

_EXTRACTORS: dict = {}


def _cached_extractor(max_content_length: Optional[int]) -> "DocumentExtractor":
    ex = _EXTRACTORS.get(max_content_length)
    if ex is None:
        ex = _EXTRACTORS[max_content_length] = DocumentExtractor(max_content_length)
    return ex


def _placeholder_warm_row(
    doc_id: str, spans: list[dict], base_url: Optional[str], archetype: str, rt: dict
) -> dict[str, Any]:
    return {
        "doc_id": doc_id,
        "out_spans": [],
        "title": "",
        "route": "warm",
        "shell_score": rt["shell_score"],
        "quality_score": 0,
        "soft_block": rt["soft_block"],
        "is_forum": False,
        "render_needed": rt["render_needed"],
        "error": "",
        "error_code": "",
        "n_out_chars": 0,
        "archetype": archetype,
        "raw_spans": spans,
        "base_url": base_url,
    }


def extract_fast_batch(
    batch: pa.Table,
    max_content_length: Optional[int] = None,
    warm_url_patterns: tuple = (),
) -> pa.Table:
    """Stateless task-pool stage: route every doc; fully extract fast
    docs; pass warm docs through with raw spans for the warm stage.

    Honors an optional per-row ``force_route`` column ("fast"/"warm",
    the reference's per-request override surface, src/types.ts:221-230)
    and ``warm_url_patterns`` config (C10 route overrides).

    Module-level extractor cache = warm compiled-regex state per worker
    process (tasks reuse processes, so this loads once per worker just
    like an actor ``__init__`` — without pinning CPUs to a fixed pool).
    """
    ex = _cached_extractor(max_content_length)
    doc_ids = batch.column("doc_id").to_pylist()
    spans_col = batch.column("spans").to_pylist()
    names = batch.column_names
    base_urls = batch.column("base_url").to_pylist() if "base_url" in names else [None] * len(doc_ids)
    archetypes = batch.column("archetype").to_pylist() if "archetype" in names else [""] * len(doc_ids)
    forces = (
        batch.column("force_route").to_pylist() if "force_route" in names else [None] * len(doc_ids)
    )

    rows = []
    for d, s, u, a, fr in zip(doc_ids, spans_col, base_urls, archetypes, forces):
        spans, rt = route_document(
            s or [], force_route=fr, url=u, warm_url_patterns=warm_url_patterns
        )
        if rt["route"] == "warm":
            rows.append(_placeholder_warm_row(d, spans, u, a or "", rt))
        else:
            row = ex.extract_document(d, spans, u, a or "", routed_rt=rt)
            row["raw_spans"] = None
            row["base_url"] = None
            rows.append(row)
    return pa.Table.from_pylist(rows, schema=EXTENDED_SCHEMA)


def warm_extract_batch(batch: pa.Table, max_content_length: Optional[int] = None) -> pa.Table:
    """Task-pool warm stage for warm-routed docs (JS-shell hydration,
    PDF layout parse, soft-block handling); fast rows pass through as
    Arrow slices without row materialization.

    Uses the same per-worker cached extractor as
    :func:`extract_fast_batch`.  Ray Data fuses the two adjacent map
    stages into one task-pool operator that self-schedules across all
    CPUs; a fused task→actor chain would run entirely on the actor
    pool, capping the whole pipeline at the pool size (measured ~3x
    slower at 32 CPUs).
    """
    import numpy as np
    import pyarrow.compute as pc

    drop = [c for c in ("raw_spans", "base_url") if c in batch.column_names]
    out_names = [c for c in batch.column_names if c not in drop]
    warm_mask = pc.equal(batch.column("route"), "warm")
    n_warm = pc.sum(warm_mask).as_py() or 0
    if n_warm == 0:
        return batch.drop_columns(drop)

    ex = _cached_extractor(max_content_length)
    pos = pa.array(np.arange(len(batch), dtype=np.int64))
    batch = batch.append_column("_pos", pos)
    fast_part = batch.filter(pc.invert(warm_mask)).drop_columns(drop)
    warm_part = batch.filter(warm_mask)

    rows = []
    for r in warm_part.select(["doc_id", "raw_spans", "base_url", "archetype", "_pos"]).to_pylist():
        # force_route="warm": the routing decision (incl. C10 /
        # per-row overrides) was made upstream — re-deriving it here
        # would silently demote pattern-forced docs back to "fast".
        out = ex.extract_document(
            r["doc_id"],
            r["raw_spans"] or [],
            r["base_url"],
            r["archetype"] or "",
            force_route="warm",
        )
        out["_pos"] = r["_pos"]
        rows.append(out)
    warm_schema = pa.schema(list(OUTPUT_SCHEMA) + [("_pos", pa.int64())])
    warm_out = pa.Table.from_pylist(rows, schema=warm_schema).select(out_names + ["_pos"])
    merged = pa.concat_tables([fast_part.select(out_names + ["_pos"]), warm_out])
    return merged.sort_by("_pos").drop_columns(["_pos"])
