"""HTML → DOM tree parser built on the stdlib ``html.parser``.

Mirrors the parse configuration the reference uses
(/root/reference/src/utils/markdown-converter.ts:166-169):
comments dropped, ``script``/``style`` content treated as opaque text
blocks (``html.parser`` already does CDATA-mode for those two), entity
references decoded into text.
"""

from __future__ import annotations

from html.parser import HTMLParser

from .nodes import _SIBLING_CLOSERS, P_CLOSING_BLOCKS, VOID_ELEMENTS, Element, Index, Text


class _TreeBuilder(HTMLParser):
    """Builds the tree and its element :class:`Index` in one pass: elements
    are created in document order, and an element's descendants are
    exactly the elements created while it is open, so its interval ends
    when it is popped."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("#root")
        self.index = Index()
        self.index.add(self.root)
        self.stack: list[Element] = [self.root]
        self._open_tags: list[str] = ["#root"]

    # -- handlers ----------------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        # Implicit closes: a sibling-closing open tag (li/tr/td/…) pops open
        # same-group siblings; a block-level open tag closes an open <p>.
        group = _SIBLING_CLOSERS.get(tag)
        if group is not None:
            while len(self.stack) > 1 and self.stack[-1].tag in group:
                self._pop()
        if tag in P_CLOSING_BLOCKS and self.stack[-1].tag == "p":
            self._pop()
        el = self._element(tag, attrs)
        if tag not in VOID_ELEMENTS:
            self.stack.append(el)
            self._open_tags.append(tag)
        else:
            el._end = el._pre

    def handle_startendtag(self, tag: str, attrs) -> None:
        el = self._element(tag, attrs)
        el._end = el._pre

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return
        if tag in self._open_tags:
            while len(self.stack) > 1:
                popped = self.stack[-1].tag
                self._pop()
                if popped == tag:
                    break
        # else: stray end tag — ignore

    def handle_data(self, data: str) -> None:
        if data:
            t = Text(data)
            parent = t.parent = self.stack[-1]
            parent.children.append(t)

    def handle_comment(self, data: str) -> None:  # dropped (comment: false)
        pass

    def handle_decl(self, decl: str) -> None:  # <!doctype html>
        pass

    # -- internals ---------------------------------------------------------
    def _element(self, tag: str, attrs) -> Element:
        d: dict = {}
        for k, v in attrs:
            if k not in d:
                d[k] = v if v is not None else ""
        el = Element(tag, d)
        # attached directly: Element.append would mark the index stale
        parent = el.parent = self.stack[-1]
        parent.children.append(el)
        self.index.add(el)
        return el

    def _pop(self) -> None:
        self.stack.pop()._end = len(self.index.els) - 1
        self._open_tags.pop()

    def finish(self) -> Element:
        """Close the intervals of the elements still open at end of input
        (or at a parse error) and return the root."""
        last = len(self.index.els) - 1
        for el in self.stack:
            el._end = last
        return self.root

    def updatepos(self, i: int, j: int) -> int:
        # line/column tracking is only for getpos()/error messages,
        # which this builder never uses — skip the newline counting
        # (hundreds of thousands of calls per large page)
        return j


def _stdlib_parse_into(builder: _TreeBuilder, html: str) -> None:
    builder.feed(html)
    builder.close()


# --- fast single-pass tokenizer --------------------------------------------
# A transcription of html.parser's goahead(end=True) for the
# whole-string convert_charrefs=True case, driving the same
# _TreeBuilder handlers with the stdlib's own tolerant regexes — so
# attribute parsing, charref decoding, CDATA handling and every broken-
# markup recovery path behave byte-identically — minus the feed()
# buffering, per-token method dispatch through _markupbase, and
# position bookkeeping (~40% of parse cost on large pages).
# Equivalence is pinned by tests/test_converter_conformance.py's
# stdlib-vs-fast tree comparison and the md5-identical extraction
# harness on the 2286-doc profile corpus.

import re as _re
from html import unescape as _unescape
from html.parser import (  # type: ignore[attr-defined]
    attrfind_tolerant as _attrfind,
    tagfind_tolerant as _tagfind,
    locatestarttagend_tolerant as _locatestart,
    endtagfind as _endtagfind,
)
from _markupbase import (  # type: ignore[attr-defined]
    _declname_match,
    _markedsectionclose,
    _msmarkedsectionclose,
)

_commentclose = _re.compile(r"--\s*>")
_starttagopen = _re.compile("<[a-zA-Z]")
_endendtag = _re.compile(">")
_CDATA_ELEMENTS = ("script", "style")
_cdata_close = {
    el: _re.compile(r"</\s*%s\s*>" % el, _re.I) for el in _CDATA_ELEMENTS
}


def _fast_parse_into(b: _TreeBuilder, raw: str) -> None:
    n = len(raw)
    i = 0
    cdata_elem: str | None = None
    handle_data = b.handle_data
    find = raw.find
    startswith = raw.startswith

    def parse_starttag(i: int) -> int:
        nonlocal cdata_elem
        # check_for_whole_start_tag
        m = _locatestart.match(raw, i)
        j = m.end()
        nxt = raw[j : j + 1]
        if nxt == ">":
            endpos = j + 1
        elif nxt == "/":
            # stdlib: "/" not followed by ">" is always a buffer
            # boundary (-1) -> end-of-input recovery path
            endpos = j + 2 if startswith("/>", j) else -1
        elif nxt == "":
            endpos = -1
        elif nxt in "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            endpos = -1
        else:
            endpos = j if j > i else i + 1
        if endpos < 0:
            return endpos
        attrs = []
        m = _tagfind.match(raw, i + 1)
        k = m.end()
        tag = m.group(1).lower()
        while k < endpos:
            am = _attrfind.match(raw, k)
            if not am:
                break
            attrname, rest, attrvalue = am.group(1, 2, 3)
            if not rest:
                attrvalue = None
            elif attrvalue[:1] == "'" == attrvalue[-1:] or attrvalue[:1] == '"' == attrvalue[-1:]:
                attrvalue = attrvalue[1:-1]
            if attrvalue:
                attrvalue = _unescape(attrvalue)
            attrs.append((attrname.lower(), attrvalue))
            k = am.end()
        end = raw[k:endpos].strip()
        if end not in (">", "/>"):
            handle_data(raw[i:endpos])
            return endpos
        if end.endswith("/>"):
            b.handle_startendtag(tag, attrs)
        else:
            b.handle_starttag(tag, attrs)
            if tag in _CDATA_ELEMENTS:
                cdata_elem = tag
        return endpos

    def parse_bogus_comment(i: int) -> int:
        pos = find(">", i + 2)
        return -1 if pos == -1 else pos + 1  # handle_comment is a no-op

    def parse_endtag(i: int) -> int:
        nonlocal cdata_elem
        m = _endendtag.search(raw, i + 1)
        if not m:
            return -1
        gtpos = m.end()
        m = _endtagfind.match(raw, i)
        if not m:
            if cdata_elem is not None:
                handle_data(raw[i:gtpos])
                return gtpos
            nm = _tagfind.match(raw, i + 2)
            if not nm:
                return i + 3 if raw[i : i + 3] == "</>" else parse_bogus_comment(i)
            tagname = nm.group(1).lower()
            gtpos = find(">", nm.end())
            b.handle_endtag(tagname)
            return gtpos + 1
        elem = m.group(1).lower()
        if cdata_elem is not None and elem != cdata_elem:
            handle_data(raw[i:gtpos])
            return gtpos
        b.handle_endtag(elem)
        cdata_elem = None
        return gtpos

    def parse_html_declaration(i: int) -> int:
        if startswith("<![", i):
            # marked section (stdlib _markupbase semantics, incl. the
            # AssertionError on unknown keywords -> caught by parse_html)
            if i + 3 == n:
                return -1
            dm = _declname_match(raw, i + 3)
            if not dm:
                raise AssertionError(
                    "expected name token at %r" % raw[i : i + 20]
                )
            s = dm.group()
            if i + 3 + len(s) == n:
                return -1
            name = s.strip().lower()
            if name in {"temp", "cdata", "ignore", "include", "rcdata"}:
                cm = _markedsectionclose.search(raw, i + 3)
            elif name in {"if", "else", "endif"}:
                cm = _msmarkedsectionclose.search(raw, i + 3)
            else:
                raise AssertionError(
                    "unknown status keyword %r in marked section" % raw[i + 3 : dm.end()]
                )
            return -1 if not cm else cm.end(0)
        if startswith("<!doctype", i) or startswith("<!DOCTYPE", i) or raw[i : i + 9].lower() == "<!doctype":
            gtpos = find(">", i + 9)
            return -1 if gtpos == -1 else gtpos + 1  # handle_decl no-op
        return parse_bogus_comment(i)

    while i < n:
        if cdata_elem is None:
            j = find("<", i)
            if j < 0:
                j = n
        else:
            m = _cdata_close[cdata_elem].search(raw, i)
            if m:
                j = m.start()
            else:
                # unterminated CDATA content is dropped (stdlib close())
                return
        if i < j:
            handle_data(_unescape(raw[i:j]) if cdata_elem is None else raw[i:j])
        i = j
        if i == n:
            break
        if _starttagopen.match(raw, i):
            k = parse_starttag(i)
        elif startswith("</", i):
            k = parse_endtag(i)
        elif startswith("<!--", i):
            cm = _commentclose.search(raw, i + 4)
            k = -1 if not cm else cm.end()  # handle_comment no-op
        elif startswith("<?", i):
            pm = _endendtag.search(raw, i + 2)
            k = -1 if not pm else pm.end()  # handle_pi no-op
        elif startswith("<!", i):
            k = parse_html_declaration(i)
        elif i + 1 < n:
            handle_data("<")
            k = i + 1
        else:
            break
        if k < 0:
            # end-of-input recovery (goahead end=True branch)
            k = find(">", i + 1)
            if k < 0:
                k = find("<", i + 1)
                if k < 0:
                    k = i + 1
            else:
                k += 1
            handle_data(_unescape(raw[i:k]) if cdata_elem is None else raw[i:k])
        i = k
    if i < n and cdata_elem is None:
        handle_data(_unescape(raw[i:n]))


def parse_html(html: str, _impl: str = "fast") -> Element:
    """Parse an HTML string into a DOM tree rooted at a synthetic ``#root``."""
    builder = _TreeBuilder()
    try:
        if _impl == "fast":
            _fast_parse_into(builder, html)
        else:
            _stdlib_parse_into(builder, html)
    except Exception:
        # stdlib parser is tolerant; on a hard failure return what we have
        pass
    return builder.finish()

