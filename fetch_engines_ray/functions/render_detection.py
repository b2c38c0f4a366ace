"""Render-need / soft-block classifiers (operators C1–C7).

Pure string-level feature functions, re-expressed from the reference's
behavior (/root/reference/src/utils/render-detection.ts:51-180).  These
feed the routing stage: ``route = "warm"`` when a document looks like a
JS app shell or a challenge page, else ``"fast"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_ROOT_CONTAINER_EMPTY = re.compile(
    r"<div[^>]+id=[\"']?(?:root|app)\b[\"']?[^>]*>\s*(?:<!--[\s\S]*?-->\s*)*</div>", re.I
)
_HAS_ROOT_CONTAINER = re.compile(r"<(?:div|main|section)[^>]+id=[\"']?(?:root|app)\b[\"']?[^>]*>", re.I)
_TITLE = re.compile(r"<title[^>]*>([\s\S]*?)</title>", re.I)
_HEADING = re.compile(r"<h[1-3][^>]*>", re.I)
_MAIN_LIKE = re.compile(r"<(?:main|article)[^>]*>", re.I)
_NOSCRIPT_ENABLE_JS = re.compile(
    r"<noscript[\s\S]*?(enable javascript|requires javascript|javascript to run)", re.I
)
_SCRIPT_TAG = re.compile(r"<script\b", re.I)

_SOFT_BLOCK_TITLE = re.compile(
    r"just a moment|attention required|access denied|please wait|one more step|"
    r"checking your browser|security check|you have been blocked|blocked by|are you a robot",
    re.I,
)
# 18 challenge phrases, grouped by first letter behind a lookahead on
# the first letters: SRE rejects most positions on one class test
# instead of trying every alternative (about half the scan time over
# short pages).  Callers only test for a match, and the set of strings
# that match is the plain alternation's (pinned in test_fuzz_converter).
_SOFT_BLOCK_BODY = re.compile(
    r"(?=[abcehprstuvw])(?:"
    r"a(?:utomated (?:access|request))|"
    r"b(?:ot detect)|"
    r"c(?:hecking your browser|f-(?:challenge|turnstile)|aptcha-container)|"
    r"e(?:nable (?:javascript|cookies) to (?:continue|access|view))|"
    r"h(?:captcha)|"
    r"p(?:lease complete the security check)|"
    r"r(?:ecaptcha|ate limit exceeded)|"
    r"s(?:uspicious activity)|"
    r"t(?:oo many requests)|"
    r"u(?:nusual traffic)|"
    r"v(?:erify you.{0,10}(?:(?:are |'re )?(?:not a )?(?:ro)?bot|human))|"
    r"w(?:e need to verify))",
    re.I,
)

_WS = re.compile(r"\s+")
_COMMENT = re.compile(r"<!--[\s\S]*?-->")
_SCRIPT_BLOCK = re.compile(r"<script[\s\S]*?</script>", re.I)
_STYLE_BLOCK = re.compile(r"<style[\s\S]*?</style>", re.I)
_SVG_BLOCK = re.compile(r"<svg[\s\S]*?</svg>", re.I)
_NOSCRIPT_BLOCK = re.compile(r"<noscript[\s\S]*?</noscript>", re.I)
_ANY_TAG = re.compile(r"<[^>]+>")

_MD_CODE_FENCE = re.compile(r"```[\s\S]*?```")
_MD_INLINE_CODE = re.compile(r"`[^`]*`")
_MD_IMAGE = re.compile(r"!\[[^\]]*]\([^)]*\)")
_MD_LINK = re.compile(r"\[([^\]]*)\]\([^)]*\)")
_MD_HEADING = re.compile(r"(?m)^#{1,6}\s+")
# the markdown marks strip_markdown_to_visible_text blanks
_MD_MARKS = str.maketrans(dict.fromkeys("*_~>-", " "))
_MD_FIRST_H1 = re.compile(r"(?m)^#\s+(.+)$")


def _collapse(value: str) -> str:
    # C-level equivalent of _WS.sub(" ", value).strip(): str.split()'s
    # whitespace set is exactly re \s (verified over the full codepoint
    # range), and join-of-split both collapses runs and trims ends.
    return " ".join(value.split())


# Sequential per-entity passes (NOT one alternation): the reference
# decodes "&amp;lt;" → "<" because earlier passes feed later ones.
_ENTITY_PASSES = tuple(
    (re.compile(re.escape(pat), re.I), repl)
    for pat, repl in (
        ("&nbsp;", " "),
        ("&amp;", "&"),
        ("&lt;", "<"),
        ("&gt;", ">"),
        ("&quot;", '"'),
        ("&#39;", "'"),
    )
)


def _entity_decode(value: str) -> str:
    if "&" not in value:
        return value
    for pat, repl in _ENTITY_PASSES:
        value = pat.sub(repl, value)
    return value


def strip_html_to_visible_text(html: str) -> str:
    """C1 — render-detection.ts:51-63"""
    s = _COMMENT.sub(" ", html)
    s = _SCRIPT_BLOCK.sub(" ", s)
    s = _STYLE_BLOCK.sub(" ", s)
    s = _SVG_BLOCK.sub(" ", s)
    s = _NOSCRIPT_BLOCK.sub(" ", s)
    s = _ANY_TAG.sub(" ", s)
    return _collapse(_entity_decode(s))


def strip_markdown_to_visible_text(markdown: str) -> str:
    """C2 — render-detection.ts:65-75"""
    # each pattern runs only when the current text holds a literal it
    # requires ("```" and "`" for code, "](" for images and links, "#"
    # for headings)
    s = markdown
    if "`" in s:
        if "```" in s:
            s = _MD_CODE_FENCE.sub(" ", s)
        s = _MD_INLINE_CODE.sub(" ", s)
    if "](" in s:
        s = _MD_IMAGE.sub(" ", s)
        s = _MD_LINK.sub(r"\1", s)
    if "#" in s:
        s = _MD_HEADING.sub("", s)
    return _collapse(s.translate(_MD_MARKS))


def score_text_signals(text_length: int, title_length: int, has_main_like: bool, heading_count: int) -> int:
    """C3 — render-detection.ts:77-84"""
    score = 0
    score += min(6, text_length // 120)
    score += min(2, title_length // 12)
    if has_main_like:
        score += 2
    if heading_count > 0:
        score += 1
    return score


@dataclass
class HtmlRenderAssessment:
    html_length: int
    visible_text_length: int
    title_length: int
    script_count: int
    heading_count: int
    has_main_like: bool
    has_root_container: bool
    has_empty_root_container: bool
    has_noscript_enable_js: bool
    quality_score: int
    render_likely_needed_score: int
    render_likely_needed: bool


@dataclass
class SerializedContentAssessment:
    text_length: int
    title_length: int
    quality_score: int


def assess_html_render_need(html: str) -> HtmlRenderAssessment:
    """C4 — app-shell detector (render-detection.ts:86-128)."""
    return _assess_html(html, strip_html_to_visible_text(html), _TITLE.search(html))


def _assess_html(html: str, visible_text: str, title_match) -> HtmlRenderAssessment:
    html_length = len(html)
    visible_text_length = len(visible_text)
    title_length = len(_collapse(_entity_decode(title_match.group(1) if title_match else "")))
    script_count = len(_SCRIPT_TAG.findall(html))
    heading_count = len(_HEADING.findall(html))
    has_main_like = _MAIN_LIKE.search(html) is not None
    has_root_container = _HAS_ROOT_CONTAINER.search(html) is not None
    has_empty_root_container = _ROOT_CONTAINER_EMPTY.search(html) is not None
    has_noscript_enable_js = _NOSCRIPT_ENABLE_JS.search(html) is not None

    score = 0
    if title_length == 0:
        score += 3
    if visible_text_length < 80:
        score += 3
    if has_empty_root_container:
        score += 3
    if has_noscript_enable_js:
        score += 2
    if html_length < 2000:
        score += 1
    if script_count >= 3 and visible_text_length < 200:
        score += 1
    if has_root_container and visible_text_length < 160:
        score += 1
    if not has_main_like and heading_count == 0 and visible_text_length < 120:
        score += 1

    quality = score_text_signals(visible_text_length, title_length, has_main_like, heading_count)
    if has_empty_root_container:
        quality -= 3
    if title_length == 0:
        quality -= 2
    if visible_text_length < 80:
        quality -= 2

    return HtmlRenderAssessment(
        html_length=html_length,
        visible_text_length=visible_text_length,
        title_length=title_length,
        script_count=script_count,
        heading_count=heading_count,
        has_main_like=has_main_like,
        has_root_container=has_root_container,
        has_empty_root_container=has_empty_root_container,
        has_noscript_enable_js=has_noscript_enable_js,
        quality_score=quality,
        render_likely_needed_score=score,
        render_likely_needed=score >= 4,
    )


def is_soft_block_page(html: str) -> bool:
    """C5 — challenge/CAPTCHA/bot-gate detector (render-detection.ts:135-145)."""
    visible = strip_html_to_visible_text(html)
    return len(visible) <= 1500 and _soft_block(html, _TITLE.search(html))


def _soft_block(html: str, title_match) -> bool:
    title = title_match.group(1) if title_match else ""
    if _SOFT_BLOCK_TITLE.search(title):
        return True
    return _SOFT_BLOCK_BODY.search(html) is not None


def assess_html_route(html: str) -> tuple[HtmlRenderAssessment, bool]:
    """C4 and C5 together, as routing needs them: ``(assess_html_render_need(html),
    is_soft_block_page(html))`` from one visible-text strip and one title
    search of the raw HTML."""
    visible = strip_html_to_visible_text(html)
    m = _TITLE.search(html)
    soft_block = len(visible) <= 1500 and _soft_block(html, m)
    return _assess_html(html, visible, m), soft_block


def assess_serialized_content(content: str, content_type: str) -> SerializedContentAssessment:
    """C6 — render-detection.ts:147-169"""
    if content_type == "html":
        a = assess_html_render_need(content)
        return SerializedContentAssessment(
            text_length=a.visible_text_length,
            title_length=a.title_length,
            quality_score=a.quality_score,
        )
    visible = strip_markdown_to_visible_text(content)
    m = _MD_FIRST_H1.search(content)
    title_length = len(_collapse(m.group(1) if m else ""))
    return SerializedContentAssessment(
        text_length=len(visible),
        title_length=title_length,
        quality_score=score_text_signals(len(visible), title_length, False, 1 if m else 0),
    )


def is_rendered_content_meaningfully_better(
    baseline: SerializedContentAssessment, candidate: SerializedContentAssessment
) -> bool:
    """C7 — best-of policy (render-detection.ts:171-180)."""
    if candidate.quality_score >= baseline.quality_score + 2:
        return True
    if candidate.text_length >= max(200, baseline.text_length * 2):
        return True
    if candidate.title_length > 0 and baseline.title_length == 0 and candidate.text_length >= baseline.text_length:
        return True
    return False


# ---------------------------------------------------------------------------
# C11 — rendered-DOM snapshot scorer (the live-DOM weight set)
# ---------------------------------------------------------------------------


@dataclass
class RenderedDomSnapshot:
    """Mirror of the reference's ``RenderedDomSnapshot``
    (/root/reference/src/PlaywrightEngine.ts:324-375): the richer
    live-DOM signal set captured from a (here: deterministically
    hydrated) rendered document."""

    title_length: int
    text_length: int
    main_like_text_length: int
    heading_text_length: int
    html_length: int
    has_root_container: bool
    root_child_count: int
    app_child_count: int
    quality_score: int
    shell_score: int


def capture_rendered_dom_snapshot(html: str) -> RenderedDomSnapshot:
    """C11 analog of ``captureRenderedDomSnapshot``
    (/root/reference/src/PlaywrightEngine.ts:324-375) with the exact
    quality/shell weight sets; runs over serialized HTML (our
    ``page.content()`` stand-in) using the engine's own DOM."""
    from ..dom.parser import parse_html
    from ..dom.selectors import select_all, select_one
    from ..dom.nodes import Element

    text_length = len(strip_html_to_visible_text(html))
    m = _TITLE.search(html)
    title_length = len(_collapse(_entity_decode(m.group(1)))) if m else 0
    html_length = len(html)

    root = parse_html(html)
    main_like = _collapse(" ".join(el.text_content for el in select_all(root, "main, article")))
    heading = _collapse(" ".join(el.text_content for el in select_all(root, "h1, h2, h3")))
    root_el = select_one(root, "#root")
    app_el = select_one(root, "#app")
    root_children = (
        sum(1 for c in root_el.children if isinstance(c, Element)) if root_el is not None else 0
    )
    app_children = (
        sum(1 for c in app_el.children if isinstance(c, Element)) if app_el is not None else 0
    )
    has_root_container = root_el is not None or app_el is not None

    quality = min(6, text_length // 120) + min(2, title_length // 12)
    if len(main_like) >= 120:
        quality += 2
    if len(heading) >= 12:
        quality += 1

    shell = 0
    if title_length == 0:
        shell += 2
    if text_length < 80:
        shell += 3
    if html_length < 2000:
        shell += 1
    if has_root_container and root_children + app_children <= 1 and text_length < 120:
        shell += 2
    if len(main_like) < 60 and len(heading) < 12 and text_length < 140:
        shell += 1

    return RenderedDomSnapshot(
        title_length=title_length,
        text_length=text_length,
        main_like_text_length=len(main_like),
        heading_text_length=len(heading),
        html_length=html_length,
        has_root_container=has_root_container,
        root_child_count=root_children,
        app_child_count=app_children,
        quality_score=quality,
        shell_score=shell,
    )


def rendered_snapshot_has_meaningful_content(
    snapshot: RenderedDomSnapshot, initial: RenderedDomSnapshot
) -> bool:
    """The quiet-window wait loop's exit predicate
    (/root/reference/src/PlaywrightEngine.ts:460-466): the rendered DOM
    counts as converged when quality improved past the initial shell or
    any absolute content floor is met."""
    return (
        snapshot.quality_score >= max(3, initial.quality_score + 1)
        or snapshot.text_length >= 200
        or snapshot.main_like_text_length >= 120
        or snapshot.heading_text_length >= 16
    )
