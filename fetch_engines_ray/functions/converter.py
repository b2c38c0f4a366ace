"""HTML → clean Markdown conversion chain (operators M1–M22).

Re-implements, from public behavioral knowledge of the reference
(/root/reference/src/utils/markdown-converter.ts — cited per-function
below), the full preprocess → extract-main-content → serialize →
postprocess chain as pure functions suitable for a Ray Data
``map_batches`` stage.  Everything is deterministic; no I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional
from urllib.parse import urljoin, urlparse

from ..dom.nodes import Element, Text
from ..dom.parser import parse_html
from ..dom.selectors import closest, compile_group, select_all, select_group, select_one
from .md_serializer import serialize

# --- Constants (markdown-converter.ts:27-113) ------------------------------

PREPROCESSING_REMOVE_SELECTORS = (
    "script",
    "style",
    "noscript",
    "iframe:not([title])",
    "svg",
    "img[src*='data:image/svg']",
    "button",
    "[role='button']",
    "input[type='button']",
    "input[type='submit']",
    "input[type='reset']",
    "#cookies",
    "[id*='cookie-banner']",
    "[id*='cookie-consent']",
    "[class*='cookie-banner']",
    "[class*='cookie-consent']",
    "[class*='consent-banner']",
)

CONTENT_SUBTREE_REMOVE_SELECTORS = (
    "nav",
    "header",
    "footer",
    "aside",
    "[role='navigation']",
    "[role='banner']",
    "[role='contentinfo']",
    "[role='complementary']",
    "[class*='navbar']",
    "[class*='site-nav']",
    "[class*='site-header']",
    "[class*='site-footer']",
    "[id*='navbar']",
    "[id*='site-header']",
    "[id*='site-footer']",
    "#footer",
    "#header",
)

MAIN_CONTENT_SELECTORS = (
    "article",
    "main",
    "[role='main']",
    "[role='article']",
    "[class*='article-body']",
    "[class*='post-content']",
    "[class*='main-content']",
    "[class*='entry-content']",
    "[id*='article-body']",
    "[id*='main-content']",
    ".article",
    ".post",
    ".entry",
    ".blog-post",
    "body",
)

FORUM_COMMENT_SELECTORS = (".comment", ".comments", ".comtr", "[id^='comment-']", "div[id^='c_']")
FORUM_THREAD_SELECTORS = (".thread", ".post", "[id^='thread-']")
FORUM_VOTE_SELECTORS = (".vote", ".score", ".upvote", ".downvote", ".votelinks")
FORUM_MAIN_POST_SELECTORS = (".fatitem", ".submission", ".op", ".original-post")
FORUM_COMMENTS_CONTAINER_SELECTORS = (".comment-tree", ".comments", "#comments")
FORUM_OBVIOUS_NON_CONTENT_SELECTORS = ("header", "footer", ".nav", ".sidebar")

BREADCRUMB_SELECTORS = (
    "nav[aria-label='breadcrumb']",
    "nav[aria-label='Breadcrumb']",
    "[aria-label='breadcrumbs']",
    "[aria-label='Breadcrumbs']",
    "nav.breadcrumb",
    "nav.breadcrumbs",
    "ol.breadcrumb",
    "ul.breadcrumb",
    ".breadcrumb",
    ".breadcrumbs",
    "[itemtype*='Breadcrumb']",
    "[itemtype*='breadcrumb']",
    "[typeof*='BreadcrumbList']",
)

MIN_LINK_DENSITY_TEXT_LENGTH = 50
DEFAULT_LINK_DENSITY_THRESHOLD = 0.4
MIN_FORUM_INDICATOR_COUNT = 3
POSTPROCESSING_MAX_CONSECUTIVE_NEWLINES = 2

# --- Precompiled regexes ----------------------------------------------------

_RE_AMIL = re.compile(r"AMIL:\[=-,amilft[^\s]*")
_RE_TEMPLATE_VAR = re.compile(r"\{\{\s*[^}\s]+\s*}}")
_RE_CONTROL = re.compile(r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]")
_RE_NONHTTP_SCHEME = re.compile(r"^(?:mailto:|tel:|sms:|javascript:|data:|blob:|about:|file:)", re.I)
_RE_ABS_SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:", re.I)
_RE_FRAMEWORK_ATTR = re.compile(r"^data-(?:reactid|reactroot|react-|testid|v-|js-|qa-|cy-)")
_RE_NG_ATTR = re.compile(r"^(?:ng-|_ngcontent-)")

_RE_PP_HEADING = re.compile(r"(?m)^(\s*\n)?(#{1,6}\s.*)$")
_RE_PP_LIST = re.compile(r"(?m)^(\s*\n)?(([*\-+>]|\d+\.)\s)")
_RE_PP_EMPTY_LINK = re.compile(r"\[\]\([^)]*\)")
_RE_PP_EMPTY_IMG = re.compile(r"!\[\]\([^)]*\)")
_RE_PP_PROTO_REL = re.compile(r"(!?\[[^\]]*\]\()(//)")
_RE_PP_ADJ_LINKS = re.compile(r"(\]\([^)]+\))(?=\[)")
_RE_PP_NEWLINES = re.compile("\n" * (POSTPROCESSING_MAX_CONSECUTIVE_NEWLINES + 1) + "+")
_RE_PP_CODE_FENCE = re.compile(r"(?m)^(\s*\n)?(```(.*)\n[\s\S]*?\n```)(\s*\n)?")
_RE_PP_DUP_LINES = re.compile(r"(?m)^(.{30,})$(\n\1)+")
_RE_PP_SEPARATOR = re.compile(r"(\n---\n)(\S)")
_RE_LINK_RUN = re.compile(r"\[[^\]]*]\([^)]+\)")
_RE_LINK_SPLIT = re.compile(r"(\]\([^)]+\))\s*(?=\[)")
_RE_SOURCE_LINE = re.compile(r"(?m)^Source:\s+")
_RE_FIRST_H1_LINE = re.compile(r"(?m)^(\s*#\s.*)$")


@dataclass
class ConvertResult:
    markdown: str
    title: str
    is_forum: bool = False


# ---------------------------------------------------------------------------
# M1 — raw HTML cleanup (markdown-converter.ts:444-455)
# ---------------------------------------------------------------------------

def cleanup_html(html: str) -> str:
    html = _RE_AMIL.sub("", html)
    html = _RE_TEMPLATE_VAR.sub("", html)
    html = _RE_CONTROL.sub("", html)
    return html


# ---------------------------------------------------------------------------
# M4 — URL absolutization (markdown-converter.ts:361-407)
# ---------------------------------------------------------------------------

def _resolve_url(raw: str, base: str) -> Optional[str]:
    value = raw.strip()
    if not value:
        return None
    if _RE_NONHTTP_SCHEME.match(value):
        return value
    if _RE_ABS_SCHEME.match(value):
        return value
    try:
        return urljoin(base, value)
    except ValueError:
        return value


def absolutize_relative_urls(root: Element, base_url: Optional[str]) -> None:
    if not base_url:
        return
    p = urlparse(base_url)
    if not p.scheme or not p.netloc:
        return
    for el in select_all(root, "a[href], img[src], source[src], video[src], audio[src], track[src]"):
        href = el.get("href")
        if href:
            resolved = _resolve_url(href, base_url)
            if resolved:
                el.set("href", resolved)
        src = el.get("src")
        if src:
            resolved = _resolve_url(src, base_url)
            if resolved:
                el.set("src", resolved)


# ---------------------------------------------------------------------------
# M5 / M6 — SVG image refs, breadcrumbs (markdown-converter.ts:256-292)
# ---------------------------------------------------------------------------

def remove_svg_image_refs(root: Element) -> None:
    for el in select_all(root, "img[src]"):
        if ".svg" in (el.get("src") or "").lower():
            el.remove()


def remove_breadcrumbs(root: Element) -> None:
    for el in select_group(root, BREADCRUMB_SELECTORS):
        nav = closest(el, "nav")
        (nav or el).remove()


# ---------------------------------------------------------------------------
# Element predicates (markdown-converter.ts:478-550)
# ---------------------------------------------------------------------------

def _has_class(cls: str, exact: str) -> bool:
    return any(tok == exact for tok in cls.split())


def _has_class_substring(cls: str, sub: str) -> bool:
    return any(sub in tok for tok in cls.split())


def element_matches_main_content(el: Element) -> bool:
    tag = el.tag
    role = (el.get("role") or "").lower()
    cls = (el.get("class") or "").lower()
    eid = (el.get("id") or "").lower()
    if tag in ("body", "main", "article"):
        return True
    if role in ("main", "article"):
        return True
    if (
        _has_class_substring(cls, "article-body")
        or _has_class_substring(cls, "post-content")
        or _has_class_substring(cls, "main-content")
        or _has_class_substring(cls, "entry-content")
        or _has_class(cls, "article")
        or _has_class(cls, "post")
        or _has_class(cls, "content")
        or _has_class(cls, "entry")
        or _has_class(cls, "blog-post")
    ):
        return True
    if "article-body" in eid or "main-content" in eid:
        return True
    return False


def element_matches_boilerplate(el: Element) -> bool:
    tag = el.tag
    role = (el.get("role") or "").lower()
    cls = (el.get("class") or "").lower()
    if tag in ("header", "footer", "nav", "aside"):
        return True
    if role in ("navigation", "complementary", "banner"):
        return True
    return (
        _has_class_substring(cls, "sidebar")
        or _has_class_substring(cls, "widget")
        or _has_class_substring(cls, "menu")
        or _has_class_substring(cls, "nav")
        or _has_class_substring(cls, "header")
        or _has_class_substring(cls, "footer")
    )


def _is_within_protected_main_content(el: Element) -> bool:
    return closest(el, "main, article, [role='main'], [role='article']") is not None


def _is_likely_consent_or_interstitial(el: Element) -> bool:
    eid = (el.get("id") or "").lower()
    cls = (el.get("class") or "").lower()
    if "cookie" in eid or "cookie" in cls or "consent" in cls:
        return True
    text = el.text_content.lower()
    return (
        "manage preferences" in text
        or "agree to all" in text
        or "refuse all" in text
        or "accept cookies" in text
    )


def _is_attached(el: Element, root: Element) -> bool:
    node: Optional[Element] = el
    while node is not None:
        if node is root:
            return True
        node = node.parent
    return False


def _link_text_length(el: Element, collapse: bool = False) -> int:
    # Reference counts every <a>'s text (link.closest("a") === link always
    # holds for well-formed trees — markdown-converter.ts:577-582).
    total = 0
    for link in select_all(el, "a"):
        t = link.text_content
        if collapse:
            t = " ".join(t.split())  # C-level whitespace collapse + strip
        total += len(t)
    return total


def has_high_link_density(el: Element, threshold: float) -> bool:
    """markdown-converter.ts:877-897"""
    text = el.text_content
    if len(text) < MIN_LINK_DENSITY_TEXT_LENGTH:
        return False
    links = select_all(el, "a")
    if len(links) < 3:
        return False
    text_len = len(text)
    if text_len == 0:
        return False
    return _link_text_length(el) / text_len > threshold


# ---------------------------------------------------------------------------
# M7 — high link density boilerplate removal (markdown-converter.ts:552-605)
# ---------------------------------------------------------------------------

def remove_high_link_density_elements(element: Element, threshold: float) -> None:
    candidates = select_all(
        element,
        "div, nav, ul, aside, section, .sidebar, .widget, .menu, "
        "[role='navigation'], [role='menubar']",
    )
    for el in candidates:
        if not _is_attached(el, element):
            continue
        if _is_within_protected_main_content(el):
            continue
        if _is_likely_consent_or_interstitial(el):
            el.remove()
            continue
        text = el.text_content
        if len(text) < MIN_LINK_DENSITY_TEXT_LENGTH:
            continue
        links = select_all(el, "a")
        if len(links) < 3:
            continue
        text_len = len(text)
        if text_len == 0:
            continue
        link_len = _link_text_length(el)
        density = link_len / text_len
        if density > threshold:
            if select_one(el, "main, article, [role='main'], [role='article']") is not None:
                continue
            if element_matches_main_content(el):
                continue
            non_link = max(0, text_len - link_len)
            has_headings = select_one(el, "h1, h2, h3, h4, h5, h6") is not None
            has_paragraphs = select_one(el, "p") is not None
            if non_link > 200 and (has_headings or has_paragraphs):
                continue
            el.remove()


# ---------------------------------------------------------------------------
# M15 / M16 — in-content cleanup (markdown-converter.ts:294-359)
# ---------------------------------------------------------------------------

def remove_content_subtree_boilerplate(content: Element) -> None:
    for el in select_group(content, CONTENT_SUBTREE_REMOVE_SELECTORS):
        el.remove()


def remove_high_link_density_in_selected_content(content: Element) -> None:
    candidates = select_all(content, "div, section, nav, ul, ol, aside")
    for cand in candidates:
        if cand is content or not _is_attached(cand, content):
            continue
        text = " ".join(cand.text_content.split())
        if len(text) < MIN_LINK_DENSITY_TEXT_LENGTH:
            continue
        links = select_all(cand, "a")
        if len(links) < 2:
            continue
        heading_count = len(select_all(cand, "h1, h2, h3, h4, h5, h6"))
        paragraphs = select_all(cand, "p")
        has_paragraph = len(paragraphs) > 0
        has_long_paragraph = any(
            len(" ".join(p.text_content.split())) >= 140 for p in paragraphs
        )
        link_len = _link_text_length(cand, collapse=True)
        density = link_len / max(1, len(text))
        non_link = max(0, len(text) - link_len)
        likely_utility = (
            density > 0.78
            and heading_count == 0
            and not has_paragraph
            and not has_long_paragraph
            and len(text) <= 260
            and non_link < 120
        )
        likely_related = (
            len(links) >= 4
            and density > 0.82
            and heading_count == 0
            and not has_paragraph
            and not has_long_paragraph
            and len(text) <= 320
            and non_link < 80
        )
        if likely_utility or likely_related:
            cand.remove()


# ---------------------------------------------------------------------------
# M10 — forum detection (markdown-converter.ts:637-692)
# ---------------------------------------------------------------------------

_FORUM_ALL_SELECTORS = FORUM_COMMENT_SELECTORS + FORUM_THREAD_SELECTORS + FORUM_VOTE_SELECTORS


def detect_forum_page(root: Element) -> bool:
    # all three indicator families counted in ONE walk; an element
    # matching two selectors still counts twice
    per_sel = compile_group(_FORUM_ALL_SELECTORS).count_by_label(root)
    nc, nt = len(FORUM_COMMENT_SELECTORS), len(FORUM_THREAD_SELECTORS)
    comment_count = sum(per_sel[:nc])
    thread_count = sum(per_sel[nc : nc + nt])
    vote_count = sum(per_sel[nc + nt :])

    is_known_forum_host = False
    canonical = None
    link = select_one(root, "link[rel='canonical']")
    if link is not None:
        canonical = link.get("href")
    if not canonical:
        og = select_one(root, "meta[property='og:url']")
        if og is not None:
            canonical = og.get("content")
    if canonical:
        try:
            absolute = urljoin("http://example.com", canonical)
            hostname = (urlparse(absolute).hostname or "").lower()
            is_known_forum_host = (
                "reddit.com" in hostname
                or "news.ycombinator.com" in hostname
                or "forum" in hostname
                or "discuss" in hostname
                or "community" in hostname
            )
        except ValueError:
            pass

    return (
        comment_count >= MIN_FORUM_INDICATOR_COUNT
        or thread_count > 1
        or vote_count >= MIN_FORUM_INDICATOR_COUNT
        or is_known_forum_host
    )


# ---------------------------------------------------------------------------
# M11 / M12 / M13 — article content selection (markdown-converter.ts:607-784)
# ---------------------------------------------------------------------------

def find_semantic_main_content(root: Element) -> Optional[Element]:
    best: Optional[Element] = None
    best_score = -1.0
    for el in select_all(root, "main, article, [role='main'], [role='article']"):
        text_len = len(el.text_content.strip())
        # one walk counting all three tag families (was three select_all walks)
        heading_count = image_count = paragraph_count = 0
        for d in el.iter_elements():
            t = d.tag
            if t in ("h1", "h2", "h3"):
                heading_count += 1
            elif t in ("img", "figure", "video"):
                image_count += 1
            elif t == "p":
                paragraph_count += 1
        if text_len < 120 and heading_count == 0 and image_count == 0:
            continue
        score = float(text_len)
        if heading_count > 0:
            score += 150
        if paragraph_count > 1:
            score += 75
        if image_count > 0:
            score += 40
        if score > best_score:
            best_score = score
            best = el
    return best


def _calculate_element_score(el: Element, current_max: float) -> float:
    """markdown-converter.ts:703-743"""
    text_len = len(el.text_content.strip())
    if text_len < 100 and select_one(el, "img, video, iframe, figure") is None:
        return -1.0
    score = float(text_len)
    if el.tag in ("article", "main"):
        score *= 1.5
    if (el.get("role") or "") in ("main", "article"):
        score *= 1.5
    if el.tag in ("header", "footer", "nav", "aside"):
        score *= 0.3
    if element_matches_boilerplate(el):
        score *= 0.2
    if has_high_link_density(el, 0.6):
        score *= 0.5
    if len(select_all(el, "p")) > 2:
        score *= 1.2
    if el.tag == "body" and current_max > 200:
        return -1.0
    return score


def extract_article_content_element(root: Element) -> Element:
    semantic = find_semantic_main_content(root)
    if semantic is not None:
        return semantic
    best: Optional[Element] = None
    max_score = -1.0
    # one walk, but matches processed in selector-priority order — the
    # scorer's BODY rejection depends on the running max_score
    for matched in compile_group(MAIN_CONTENT_SELECTORS).select_by_label(root):
        for el in matched:
            score = _calculate_element_score(el, max_score)
            if score > max_score:
                max_score = score
                best = el
    return best if best is not None else root


# ---------------------------------------------------------------------------
# M14 — forum content extraction (markdown-converter.ts:790-872)
# ---------------------------------------------------------------------------

def extract_forum_content_element(root: Element) -> Element:
    container = Element("div")

    main_post: Optional[Element] = None
    for sel in FORUM_MAIN_POST_SELECTORS:
        main_post = select_one(root, sel)
        if main_post is not None:
            break
    if main_post is not None:
        container.append(main_post.clone())

    comments: Optional[Element] = None
    for sel in FORUM_COMMENTS_CONTAINER_SELECTORS:
        comments = select_one(root, sel)
        if comments is not None:
            break
    if comments is not None:
        cloned = comments.clone()
        for el in select_group(cloned, FORUM_OBVIOUS_NON_CONTENT_SELECTORS):
            el.remove()
        container.append(cloned)

    if container.children:
        return container

    body = select_one(root, "body")
    if body is not None:
        cloned_body = body.clone()
        for el in select_group(cloned_body, FORUM_OBVIOUS_NON_CONTENT_SELECTORS):
            el.remove()
        remove_high_link_density_elements(cloned_body, DEFAULT_LINK_DENSITY_THRESHOLD)
        return cloned_body

    return root


# ---------------------------------------------------------------------------
# M17 — primary heading policy (markdown-converter.ts:409-442)
# ---------------------------------------------------------------------------

def ensure_primary_heading(content: Element, provided_title: Optional[str]) -> None:
    def norm(s: Optional[str]) -> str:
        return " ".join((s or "").split())

    title_norm = norm(provided_title)
    first_h1 = select_one(content, "h1")
    first_heading = select_one(content, "h1, h2, h3, h4, h5, h6")
    h1_text = norm(first_h1.text_content if first_h1 is not None else "")

    if first_h1 is not None:
        if (
            title_norm
            and len(title_norm) > len(h1_text)
            and (h1_text in title_norm or title_norm.split("|")[0].strip() in h1_text)
        ):
            first_h1.set_text(provided_title or "")
        return

    if title_norm:
        h1 = Element("h1")
        h1.append(Text(provided_title or ""))
        content.prepend(h1)
        return

    if first_heading is not None:
        first_heading.tag = "h1"


# ---------------------------------------------------------------------------
# M18 — framework attribute scrub (markdown-converter.ts:457-476)
# ---------------------------------------------------------------------------

def cleanup_content_dom(content: Element) -> None:
    for el in [content, *content.iter_elements()]:
        drop = [k for k in el.attrs if _RE_FRAMEWORK_ATTR.match(k) or _RE_NG_ATTR.match(k)]
        for k in drop:
            del el.attrs[k]
        cls = el.attrs.get("class")
        if cls and (cls.startswith("ng-") or cls.startswith("mat-")):
            del el.attrs["class"]
            el._classes = None


# ---------------------------------------------------------------------------
# Preprocess driver (markdown-converter.ts:152-254)
# ---------------------------------------------------------------------------

def extract_title(root: Element) -> str:
    for sel, attr in (
        ("meta[property='og:title']", "content"),
        ("meta[name='twitter:title']", "content"),
        ("meta[name='DC.title']", "content"),
    ):
        el = select_one(root, sel)
        if el is not None:
            v = el.get(attr)
            if v is not None:
                return v
    t = select_one(root, "title")
    if t is not None:
        return t.text_content
    return ""


def preprocess(html: str, base_url: Optional[str] = None) -> tuple[Element, str, bool]:
    """Run the full preprocessing chain.

    Returns ``(content_element, best_title, is_forum)``.  On an internal
    failure, falls back to the cleaned full tree (reference behavior,
    markdown-converter.ts:249-253).
    """
    cleaned = cleanup_html(html)
    try:
        root = parse_html(cleaned)

        for el in select_group(root, PREPROCESSING_REMOVE_SELECTORS):
            el.remove()

        absolutize_relative_urls(root, base_url)
        remove_svg_image_refs(root)
        remove_breadcrumbs(root)
        remove_high_link_density_elements(root, DEFAULT_LINK_DENSITY_THRESHOLD)

        best_title = extract_title(root)
        head = select_one(root, "head")
        if head is not None:
            head.remove()

        # DELIBERATE parity: the reference also drops <head> immediately
        # BEFORE forum detection (markdown-converter.ts:208-210), so its
        # canonical/og:url known-host check only fires for metas living
        # outside an explicit <head> — matching that exactly (neither
        # parser synthesizes an implicit head element)
        is_forum = detect_forum_page(root)
        if is_forum:
            content: Element = extract_forum_content_element(root)
        else:
            try:
                content = extract_article_content_element(root)
            except Exception:
                body = select_one(root, "body")
                content = body if body is not None else root

        if content.tag == "html":
            body = select_one(root, "body")
            if body is not None:
                content = body

        remove_content_subtree_boilerplate(content)
        remove_high_link_density_in_selected_content(content)
        ensure_primary_heading(content, best_title)
        cleanup_content_dom(content)
        return content, best_title, is_forum
    except Exception:
        return parse_html(cleaned), "", False


# ---------------------------------------------------------------------------
# M20 / M21 — Markdown postprocessing (markdown-converter.ts:899-969)
# ---------------------------------------------------------------------------

def split_dense_adjacent_link_runs(markdown: str) -> str:
    out = []
    for line in markdown.split("\n"):
        runs = _RE_LINK_RUN.findall(line)
        if len(runs) >= 3 and len(line) >= 180:
            line = _RE_LINK_SPLIT.sub(r"\1\n", line)
        out.append(line)
    return "\n".join(out)


def postprocess_markdown(markdown: str, max_content_length: Optional[int] = None) -> str:
    p = markdown
    # 1. heading spacing
    p = _RE_PP_HEADING.sub(r"\n\n\2\n\n", p)
    # 2. blank line before list items
    p = _RE_PP_LIST.sub(lambda m: "\n\n" + m.group(2), p)
    # 3. empty links / images (substring prechecks: the patterns require
    # these literals, and one C-level `in` scan beats a regex pass)
    if "[](" in p:
        p = _RE_PP_EMPTY_LINK.sub("", p)
        p = _RE_PP_EMPTY_IMG.sub("", p)
    # 4. protocol-relative URLs + adjacent-link separation
    if "](//" in p:
        p = _RE_PP_PROTO_REL.sub(r"\1https://", p)
    if ")[" in p:
        p = _RE_PP_ADJ_LINKS.sub(r"\1 ", p)
    p = split_dense_adjacent_link_runs(p)
    # 5. collapse newlines
    if "\n" * (POSTPROCESSING_MAX_CONSECUTIVE_NEWLINES + 1) in p:
        p = _RE_PP_NEWLINES.sub("\n" * POSTPROCESSING_MAX_CONSECUTIVE_NEWLINES, p)
    # 6. trim line edges — C-level equivalent of
    # re.sub(r"(?m)^[ \t]+|[ \t]+$", "", p): strip [ \t] runs at each
    # \n-delimited line's edges (a CR before the \n blocks the regex's $
    # just as it blocks strip(" \t"), so the two agree on \r\n text too;
    # pinned by tests/test_fuzz_converter.py)
    p = "\n".join(seg.strip(" \t") for seg in p.split("\n"))
    # 7. code fence spacing
    if "```" in p:
        p = _RE_PP_CODE_FENCE.sub(r"\n\n\2\n\n", p)
    # 8. dedupe immediately-repeated long lines
    p = _RE_PP_DUP_LINES.sub(r"\1", p)
    # 9. separator spacing
    if "\n---\n" in p:
        p = _RE_PP_SEPARATOR.sub(r"\1\n\2", p)
    # 10. truncation at sentence boundary
    if max_content_length and len(p) > max_content_length:
        truncated_point = p.rfind(".", 0, max(0, max_content_length - 15) + 1)
        slice_end = (
            truncated_point + 1 if truncated_point > max_content_length / 2 else max_content_length
        )
        p = p[:slice_end] + "... (truncated)"
    # 11. final trim
    return p.strip()


# ---------------------------------------------------------------------------
# M22 — Source line injection (markdown-converter.ts:972-979)
# ---------------------------------------------------------------------------

def inject_source_url(markdown: str, source_url: str) -> str:
    if not markdown or not source_url:
        return markdown
    head = "\n".join(markdown.split("\n")[:50])
    if _RE_SOURCE_LINE.search(head):
        return markdown
    safe = source_url.strip()
    return _RE_FIRST_H1_LINE.sub(lambda m: f"{m.group(1)}\n\nSource: {safe}", markdown, count=1)


# ---------------------------------------------------------------------------
# Top-level convert (markdown-converter.ts:137-148)
# ---------------------------------------------------------------------------

def convert(
    html: str,
    base_url: Optional[str] = None,
    max_content_length: Optional[int] = None,
) -> ConvertResult:
    content, title, is_forum = preprocess(html, base_url)
    markdown = serialize(content)
    markdown = postprocess_markdown(markdown, max_content_length)
    return ConvertResult(
        markdown=markdown, title=" ".join(title.split()), is_forum=is_forum
    )
