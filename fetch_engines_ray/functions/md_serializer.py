"""DOM → Markdown serializer (own implementation).

Replaces the role of the Rust ``@kreuzberg/html-to-markdown`` serializer
in the reference (/root/reference/src/utils/markdown-converter.ts:142):
ATX headings, GFM tables **with header promotion of the first row when
no ``<thead>``/``<th>`` header exists** (behavior pinned by
/root/reference/test/MarkdownConverter.test.ts:22-47), fenced code
blocks, links/images, nested lists, blockquotes.  Deterministic: output
depends only on the input tree.
"""

from __future__ import annotations

import re

from ..dom.nodes import Element, Node, Text

_WS = re.compile(r"\s+")

INLINE_TAGS = frozenset(
    "a abbr b bdi bdo br cite code data dfn em i kbd mark q rp rt ruby s "
    "samp small span strong sub sup time u var wbr img picture source label "
    "font del ins strike".split()
)

_EMPHASIS = {"strong": "**", "b": "**", "em": "*", "i": "*", "del": "~~", "s": "~~", "strike": "~~"}


def serialize(el: Element) -> str:
    """Serialize an element (and subtree) to Markdown."""
    return _render_block(el).strip()


# ---------------------------------------------------------------------------
# Inline rendering
# ---------------------------------------------------------------------------

def _collapse_keep_edges(d: str) -> str:
    """C-level equivalent of _WS.sub(" ", d): each maximal whitespace
    run becomes one space, including leading/trailing runs."""
    parts = d.split()
    if not parts:
        return " " if d else ""
    out = " ".join(parts)
    if d[0].isspace():
        out = " " + out
    if d[-1].isspace():
        out += " "
    return out


def _render_inline(node: Node) -> str:
    if isinstance(node, Text):
        return _collapse_keep_edges(node.data)
    assert isinstance(node, Element)
    tag = node.tag
    if tag == "br":
        return "\n"
    if tag == "img":
        src = node.get("src", "")
        if not src:
            return ""
        alt = _WS.sub(" ", node.get("alt", "") or "").strip()
        return f"![{alt}]({src})"
    if tag in _EMPHASIS:
        inner = _inline_children(node).strip()
        if not inner:
            return ""
        mark = _EMPHASIS[tag]
        return f"{mark}{inner}{mark}"
    if tag == "code":
        inner = node.text_content.strip()
        if not inner:
            return ""
        return f"`{inner}`"
    if tag == "a":
        inner = _inline_children(node).strip()
        href = (node.get("href") or "").strip()
        if not href:
            return inner
        return f"[{inner}]({href})"
    # generic inline container (span etc.) or unknown treated inline
    return _inline_children(node)


def _inline_children(el: Element) -> str:
    return "".join(_render_inline(c) for c in el.children)


_SPACE_RUN = re.compile(r" {2,}")


def _finalize_paragraph(text: str) -> str:
    # collapse runs of spaces introduced by adjacent whitespace, keep \n (from <br>)
    if "\n" not in text:
        # one line: the same collapse and strip, without the split and join
        if "  " in text:
            text = _SPACE_RUN.sub(" ", text)
        return text.strip()
    lines = [_SPACE_RUN.sub(" ", ln).strip() for ln in text.split("\n")]
    return "\n".join(ln for ln in lines if ln != "").strip()


# ---------------------------------------------------------------------------
# Block rendering
# ---------------------------------------------------------------------------

def _render_block(el: Element) -> str:
    tag = el.tag
    if tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
        inner = _finalize_paragraph(_inline_children(el)).replace("\n", " ")
        return f"{'#' * int(tag[1])} {inner}" if inner else ""
    if tag == "p":
        return _render_container(el)
    if tag == "hr":
        return "---"
    if tag == "pre":
        return _render_pre(el)
    if tag == "blockquote":
        inner = _render_container(el)
        return "\n".join(("> " + ln).rstrip() for ln in inner.split("\n"))
    if tag in ("ul", "ol"):
        return _render_list(el)
    if tag == "table":
        return _render_table(el)
    if tag == "dt":
        inner = _finalize_paragraph(_inline_children(el))
        return f"**{inner}**" if inner else ""
    # generic block container: div, section, article, main, body, li, dd, ...
    return _render_container(el)


def _render_container(el: Element) -> str:
    blocks: list[str] = []
    inline_buf: list[str] = []

    def flush() -> None:
        if inline_buf:
            para = _finalize_paragraph("".join(inline_buf))
            inline_buf.clear()
            if para:
                blocks.append(para)

    for c in el.children:
        if isinstance(c, Text) or (isinstance(c, Element) and c.tag in INLINE_TAGS):
            inline_buf.append(_render_inline(c))
        else:
            flush()
            assert isinstance(c, Element)
            sub = _render_block(c)
            if sub:
                blocks.append(sub)
    flush()
    return "\n\n".join(blocks)


def _render_pre(el: Element) -> str:
    lang = ""
    code_child = None
    for c in el.children:
        if isinstance(c, Element) and c.tag == "code":
            code_child = c
            break
    if code_child is not None:
        for cls in code_child.classes:
            if cls.startswith("language-") or cls.startswith("lang-"):
                lang = cls.split("-", 1)[1]
                break
    raw = (code_child or el).text_content
    raw = raw.strip("\n")
    return f"```{lang}\n{raw}\n```"


def _render_list(el: Element, depth: int = 0) -> str:
    ordered = el.tag == "ol"
    try:
        start = int(el.get("start", "1") or "1")
    except ValueError:
        start = 1
    items: list[str] = []
    idx = start
    indent = "  " * depth
    for c in el.children:
        if not (isinstance(c, Element) and c.tag == "li"):
            continue
        marker = f"{idx}. " if ordered else "- "
        idx += 1
        body = _render_li(c, depth)
        if not body:
            body = ""
        lines = body.split("\n")
        first = f"{indent}{marker}{lines[0]}" if lines else f"{indent}{marker}"
        cont_indent = indent + " " * len(marker)
        rest = [f"{cont_indent}{ln}" if ln else "" for ln in lines[1:]]
        items.append("\n".join([first] + rest))
    return "\n".join(i for i in items if i.strip())


def _render_li(el: Element, depth: int) -> str:
    parts: list[str] = []
    inline_buf: list[str] = []

    def flush() -> None:
        if inline_buf:
            para = _finalize_paragraph("".join(inline_buf))
            inline_buf.clear()
            if para:
                parts.append(para)

    for c in el.children:
        if isinstance(c, Text) or (isinstance(c, Element) and c.tag in INLINE_TAGS):
            inline_buf.append(_render_inline(c))
        elif isinstance(c, Element) and c.tag in ("ul", "ol"):
            flush()
            sub = _render_list(c, depth + 1)
            if sub:
                # nested list already indented one level deeper relative to item
                parts.append(sub)
        else:
            flush()
            assert isinstance(c, Element)
            sub = _render_block(c)
            if sub:
                parts.append(sub)
    flush()
    return "\n".join(parts)


def _cell_text(cell: Element) -> str:
    text = _finalize_paragraph(_inline_children(cell)).replace("\n", " ")
    return text.replace("|", "\\|")


def _render_table(el: Element) -> str:
    # Collect rows in document order, noting whether they came from <thead>
    # or use <th> cells (an explicit header).
    header: list[str] | None = None
    body_rows: list[list[str]] = []
    rows: list[tuple[Element, bool]] = []

    def walk(container: Element, in_thead: bool) -> None:
        for c in container.children:
            if not isinstance(c, Element):
                continue
            if c.tag == "tr":
                rows.append((c, in_thead))
            elif c.tag in ("thead", "tbody", "tfoot"):
                walk(c, c.tag == "thead")

    walk(el, False)
    if not rows:
        return ""

    for tr, in_thead in rows:
        cells = [c for c in tr.children if isinstance(c, Element) and c.tag in ("td", "th")]
        texts = [_cell_text(c) for c in cells]
        if header is None and (in_thead or (cells and all(c.tag == "th" for c in cells))):
            header = texts
        else:
            body_rows.append(texts)

    if header is None:
        # GFM requires a header row: promote the first body row
        # (reference behavior pinned by test/MarkdownConverter.test.ts:22-47).
        if not body_rows:
            return ""
        header = body_rows.pop(0)

    ncols = max([len(header)] + [len(r) for r in body_rows]) if body_rows else len(header)
    header += [""] * (ncols - len(header))
    out = ["| " + " | ".join(header) + " |", "| " + " | ".join(["---"] * ncols) + " |"]
    for r in body_rows:
        r = r + [""] * (ncols - len(r))
        out.append("| " + " | ".join(r) + " |")
    return "\n".join(out)
