"""HTML → DOM tree parser built on the stdlib ``html.parser``.

Mirrors the parse configuration the reference uses
(/root/reference/src/utils/markdown-converter.ts:166-169):
comments dropped, ``script``/``style`` content treated as opaque text
blocks (``html.parser`` already does CDATA-mode for those two), entity
references decoded into text.
"""

from __future__ import annotations

import re
from html import unescape as _unescape
from html.parser import HTMLParser

from .nodes import _SIBLING_CLOSERS, P_CLOSING_BLOCKS, VOID_ELEMENTS, Element, Index, Text

# tags whose opening may close open elements, and the tags it may close:
# an opening tag pops nothing unless it is in the first set and the
# innermost open element is in the second
_IMPLICIT_CLOSERS = frozenset(_SIBLING_CLOSERS) | P_CLOSING_BLOCKS
_IMPLICITLY_CLOSED = frozenset().union(*_SIBLING_CLOSERS.values()) | {"p"}


class _TreeBuilder(HTMLParser):
    """Builds the tree and its element :class:`Index` in one pass: elements
    are created in document order, and an element's descendants are
    exactly the elements created while it is open, so its interval ends
    when it is popped.  ``text_pos`` is the length of all text emitted so
    far; an element's ``Index.tlen`` entry starts at ``-text_pos`` and
    gains ``text_pos`` when the element closes, which leaves its subtree's
    text length."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("#root")
        self.index = Index()
        self.index.add(self.root)
        self.index.tlen.append(0)
        self.stack: list[Element] = [self.root]
        self._open_tags: list[str] = ["#root"]
        self.text_pos = 0

    def close_implicit(self, tag: str, text_pos: int) -> None:
        """The implicit closes of opening ``tag``: a sibling-closing tag
        (li/tr/td/…) pops open same-group siblings; a block-level tag
        closes an open <p>."""
        stack = self.stack
        group = _SIBLING_CLOSERS.get(tag)
        if group is not None:
            while len(stack) > 1 and stack[-1].tag in group:
                self._pop(text_pos)
        if tag in P_CLOSING_BLOCKS and stack[-1].tag == "p":
            self._pop(text_pos)

    # -- handlers (the stdlib tokenizer's callbacks) ------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _IMPLICIT_CLOSERS:
            self.close_implicit(tag, self.text_pos)
        el = self._element(tag, attrs)
        if tag not in VOID_ELEMENTS:
            self.stack.append(el)
            self._open_tags.append(tag)
            self.index.tlen.append(-self.text_pos)
        else:
            el._end = el._pre
            self.index.tlen.append(0)

    def handle_startendtag(self, tag: str, attrs) -> None:
        el = self._element(tag, attrs)
        el._end = el._pre
        self.index.tlen.append(0)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return
        if tag in self._open_tags:
            while len(self.stack) > 1:
                popped = self.stack[-1].tag
                self._pop(self.text_pos)
                if popped == tag:
                    break
        # else: stray end tag — ignore

    def handle_data(self, data: str) -> None:
        if data:
            self.text_pos += len(data)
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

    def _pop(self, text_pos: int) -> None:
        el = self.stack.pop()
        el._end = len(self.index.els) - 1
        self.index.tlen[el._pre] += text_pos
        self._open_tags.pop()

    def finish(self) -> Element:
        """Close the intervals of the elements still open at end of input
        (or at a parse error) and return the root."""
        last = len(self.index.els) - 1
        tlen = self.index.tlen
        for el in self.stack:
            el._end = last
            tlen[el._pre] += self.text_pos
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
# One master regex, consumed by finditer, takes the three common tokens:
# text runs, start tags whose attributes are plain (names of
# [a-zA-Z_:][-a-zA-Z0-9_:.]*, ASCII whitespace between them, single "=",
# quoted values or unquoted values without leading quote/=/</>/`), and
# end tags with a plain name.  On those html.parser's tolerant regexes
# find the same tag name, attributes and end, so the tree is the same.
# Anything else at a "<" (comments, declarations, PIs, odd attribute
# syntax, broken markup) matches the bare "<" alternative and goes
# through a transcription of html.parser's goahead(end=True) for the
# whole-string convert_charrefs=True case, with the stdlib's own
# regexes, which returns its token to the same loop.  Equivalence with
# the stdlib tokenizer (_stdlib_parse_into) is pinned by
# tests/test_parser_equivalence.py and tests/test_dom_index.py.

from html.parser import (  # type: ignore[attr-defined]  # noqa: E402
    attrfind_tolerant as _attrfind,
    tagfind_tolerant as _tagfind,
    locatestarttagend_tolerant as _locatestart,
    endtagfind as _endtagfind,
)
from _markupbase import (  # type: ignore[attr-defined]  # noqa: E402
    _declname_match,
    _markedsectionclose,
    _msmarkedsectionclose,
)

_ATTR = (
    r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
    r"""(?:[\t\n\r\f ]*=[\t\n\r\f ]*(?:"[^"]*"|'[^']*'|[^\s"'=<>`][^\s>]*))?"""
)
# token kinds are the group numbers that close last (Match.lastindex)
_TEXT, _START, _END = 1, 4, 5
_TOKEN = re.compile(
    r"([^<]+)"  # 1: text run
    r"|<([a-zA-Z][^\t\n\r\f />\x00]*)"  # 2: start tag name
    r"((?:[\t\n\r\f ]+" + _ATTR + r")*)"  # 3: its attributes
    r"[\t\n\r\f ]*(/?)>"  # 4: "/" when self-closing
    r"|</([a-zA-Z][-.a-zA-Z0-9:_]*)[\t\n\r\f ]*>"  # 5: end tag name
    r"|<"  # anything else: the stdlib transcription
)
# one attribute of a matched attribute span: name, then the value's
# double-quoted, single-quoted or unquoted form
_ATTR_PARTS = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)"""
    r"""(?:[\t\n\r\f ]*=[\t\n\r\f ]*(?:"([^"]*)"|'([^']*)'|([^\s"'=<>`][^\s>]*)))?"""
)

_commentclose = re.compile(r"--\s*>")
_starttagopen = re.compile("<[a-zA-Z]")
_CDATA_ELEMENTS = ("script", "style")
_cdata_close = {
    el: re.compile(r"</\s*%s\s*>" % el, re.I) for el in _CDATA_ELEMENTS
}


def _fast_parse_into(b: _TreeBuilder, raw: str) -> None:
    n = len(raw)
    find = raw.find
    startswith = raw.startswith
    # a search for ">", or for a close pattern ending in one, that starts
    # past the last ">" fails at once instead of scanning to the end of
    # input: a flood of "</", "<!" or "<?" with no ">" after it stays linear
    last_gt = raw.rfind(">")

    def find_gt(start: int) -> int:
        return find(">", start) if start <= last_gt else -1

    # -- the stdlib transcription: each returns its token as
    # (end, kind, text, tag, attrs, self_closing), kind 0 for nothing
    # emitted, or None where goahead takes its end-of-input recovery
    def parse_starttag(i: int):
        # check_for_whole_start_tag
        j = _locatestart.match(raw, i).end()
        nxt = raw[j : j + 1]
        if nxt == ">":
            endpos = j + 1
        elif nxt == "/":
            # stdlib: "/" not followed by ">" is always a buffer
            # boundary (-1) -> end-of-input recovery path
            if not startswith("/>", j):
                return None
            endpos = j + 2
        elif nxt == "" or nxt in "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            return None
        else:
            endpos = j if j > i else i + 1
        attrs: dict = {}
        m = _tagfind.match(raw, i + 1)
        k = m.end()
        tag = m.group(1).lower()
        while k < endpos:
            am = _attrfind.match(raw, k)
            if not am:
                break
            attrname, rest, attrvalue = am.group(1, 2, 3)
            if not rest:
                attrvalue = ""
            elif attrvalue[:1] == "'" == attrvalue[-1:] or attrvalue[:1] == '"' == attrvalue[-1:]:
                attrvalue = attrvalue[1:-1]
            if attrvalue:
                attrvalue = _unescape(attrvalue)
            attrs.setdefault(attrname.lower(), attrvalue)
            k = am.end()
        end = raw[k:endpos].strip()
        if end not in (">", "/>"):
            return endpos, _TEXT, raw[i:endpos], None, None, False
        return endpos, _START, None, tag, attrs, end == "/>"

    def parse_bogus_comment(i: int):
        pos = find_gt(i + 2)
        return None if pos == -1 else (pos + 1, 0, None, None, None, False)

    def parse_endtag(i: int):
        # never in CDATA mode: the main loop consumes raw text itself
        gtpos = find_gt(i + 1) + 1
        if not gtpos:
            return None
        m = _endtagfind.match(raw, i)
        if m:
            return gtpos, _END, None, m.group(1).lower(), None, False
        nm = _tagfind.match(raw, i + 2)
        if not nm:
            if raw[i : i + 3] == "</>":
                return i + 3, 0, None, None, None, False
            return parse_bogus_comment(i)
        return find(">", nm.end()) + 1, _END, None, nm.group(1).lower(), None, False

    def parse_html_declaration(i: int):
        if startswith("<![", i):
            # marked section (stdlib _markupbase semantics, incl. the
            # AssertionError on unknown keywords -> caught by parse_html)
            if i + 3 == n:
                return None
            dm = _declname_match(raw, i + 3)
            if not dm:
                raise AssertionError(
                    "expected name token at %r" % raw[i : i + 20]
                )
            s = dm.group()
            if i + 3 + len(s) == n:
                return None
            name = s.strip().lower()
            if name in {"temp", "cdata", "ignore", "include", "rcdata"}:
                cm = _markedsectionclose.search(raw, i + 3) if i + 3 <= last_gt else None
            elif name in {"if", "else", "endif"}:
                cm = _msmarkedsectionclose.search(raw, i + 3) if i + 3 <= last_gt else None
            else:
                raise AssertionError(
                    "unknown status keyword %r in marked section" % raw[i + 3 : dm.end()]
                )
            return (cm.end(0), 0, None, None, None, False) if cm else None
        if raw[i : i + 9].lower() == "<!doctype":
            gtpos = find_gt(i + 9)
            return None if gtpos == -1 else (gtpos + 1, 0, None, None, None, False)  # handle_decl no-op
        return parse_bogus_comment(i)

    def markup(i: int):
        """The token at a "<" the master regex did not take."""
        if _starttagopen.match(raw, i):
            tok = parse_starttag(i)
        elif startswith("</", i):
            tok = parse_endtag(i)
        elif startswith("<!--", i):
            cm = _commentclose.search(raw, i + 4) if i + 4 <= last_gt else None
            tok = (cm.end(), 0, None, None, None, False) if cm else None  # handle_comment no-op
        elif startswith("<?", i):
            k = find_gt(i + 2)
            tok = (k + 1, 0, None, None, None, False) if k >= 0 else None  # handle_pi no-op
        elif startswith("<!", i):
            tok = parse_html_declaration(i)
        else:
            return i + 1, _TEXT, "<", None, None, False
        if tok is None:
            # end-of-input recovery (goahead end=True branch)
            k = find_gt(i + 1)
            if k < 0:
                k = find("<", i + 1)
                if k < 0:
                    k = i + 1
            else:
                k += 1
            return k, _TEXT, _unescape(raw[i:k]), None, None, False
        return tok

    ix = b.index
    els = ix.els
    els_append = els.append
    tag_buckets = ix.tags
    attr_buckets = ix.attrs
    tlen = ix.tlen
    tlen_append = tlen.append
    stack = b.stack
    stack_append = stack.append
    stack_pop = stack.pop
    open_tags = b._open_tags
    close_implicit = b.close_implicit
    attr_parts = _ATTR_PARTS.findall
    tpos = b.text_pos
    pos = 0
    try:
        while True:
            for m in _TOKEN.finditer(raw, pos):
                kind = m.lastindex
                end = m.end()
                if kind == _TEXT:
                    text = m.group(1)
                    if "&" in text:
                        text = _unescape(text)
                elif kind == _START:
                    tag, span, slash = m.group(2, 3, 4)
                    tag = tag.lower()
                    attrs = {}
                    if span:
                        for name, dq, sq, bare in attr_parts(span):
                            name = name.lower()
                            if name not in attrs:
                                value = dq or sq or bare
                                attrs[name] = _unescape(value) if "&" in value else value
                elif kind == _END:
                    tag = m.group(5).lower()
                else:
                    end, kind, text, tag, attrs, slash = markup(m.start())

                if kind == _TEXT:
                    if text:
                        tpos += len(text)
                        t = Text(text)
                        parent = t.parent = stack[-1]
                        parent.children.append(t)
                elif kind == _START:
                    # a self-closing tag closes nothing (handle_startendtag)
                    if not slash and tag in _IMPLICIT_CLOSERS and stack[-1].tag in _IMPLICITLY_CLOSED:
                        close_implicit(tag, tpos)
                    el = Element(tag, attrs)
                    parent = el.parent = stack[-1]
                    parent.children.append(el)
                    el._ix = ix
                    p = el._pre = len(els)
                    els_append(el)
                    bucket = tag_buckets.get(tag)
                    if bucket is None:
                        tag_buckets[tag] = [p]
                    else:
                        bucket.append(p)
                    for name in attrs:
                        bucket = attr_buckets.get(name)
                        if bucket is None:
                            attr_buckets[name] = [p]
                        else:
                            bucket.append(p)
                    if slash or tag in VOID_ELEMENTS:
                        el._end = p
                        tlen_append(0)
                    else:
                        stack_append(el)
                        open_tags.append(tag)
                        tlen_append(-tpos)
                        if tag in _CDATA_ELEMENTS:
                            # raw text up to the matching close tag, which
                            # the next token then closes; unterminated raw
                            # text is dropped (stdlib close())
                            cm = _cdata_close[tag].search(raw, end)
                            if cm is None:
                                return
                            j = cm.start()
                            if j > end:
                                tpos += j - end
                                t = Text(raw[end:j])
                                t.parent = el
                                el.children.append(t)
                            end = j
                elif kind == _END:
                    if tag not in VOID_ELEMENTS and tag in open_tags:
                        last = len(els) - 1
                        while len(stack) > 1:
                            el = stack_pop()
                            open_tags.pop()
                            el._end = last
                            tlen[el._pre] += tpos
                            if el.tag == tag:
                                break
                if end != m.end():
                    pos = end
                    break
            else:
                return
    finally:
        b.text_pos = tpos


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
