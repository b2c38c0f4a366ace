"""Tiny CSS selector engine over the DOM in ``nodes.py``.

Supports exactly the selector subset the reference pipeline uses
(/root/reference/src/utils/markdown-converter.ts:27-103,266-280):
compound simple selectors (``tag``, ``#id``, ``.class``, ``[attr]``,
``[attr='v']``, ``[attr*='v']``, ``[attr^='v']``, ``:not(...)``) joined
in comma-separated groups.  No combinators are needed — the reference
never uses descendant/child selectors.

Queries never walk the tree: they read the element index the parser
built (``nodes.index_of``).  A query under ``root`` reads positions
``root._pre + 1 .. root._end`` of the index buckets its compounds
require (a tag, or the ``id`` / ``class`` / attribute name a tag-less
compound tests), a bisect each; only a compound with no requirement
makes it test every live element of the interval.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Optional

from .nodes import Element, index_of

_TOKEN = re.compile(
    r"""
    (?P<tag>[a-zA-Z][a-zA-Z0-9-]*)
  | \#(?P<id>[\w-]+)
  | \.(?P<cls>[\w-]+)
  | \[(?P<attr>[\w-]+)(?:(?P<op>[*^$]?=)(?P<q>["']?)(?P<val>[^\]"']*)(?P=q))?\]
  | :not\((?P<not>[^)]*)\)
    """,
    re.VERBOSE,
)


class Compound:
    """One compound selector: all conditions must hold on a single element."""

    __slots__ = ("tag", "id", "classes", "attr_tests", "not_sels")

    def __init__(self, text: str) -> None:
        self.tag: Optional[str] = None
        self.id: Optional[str] = None
        self.classes: list[str] = []
        self.attr_tests: list[tuple[str, str, str]] = []  # (name, op, value)
        self.not_sels: list[Compound] = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"unsupported selector: {text!r} at {pos}")
            if m.group("tag"):
                self.tag = m.group("tag").lower()
            elif m.group("id"):
                self.id = m.group("id")
            elif m.group("cls"):
                self.classes.append(m.group("cls"))
            elif m.group("attr"):
                name = m.group("attr").lower()
                op = m.group("op") or ""
                val = m.group("val") if m.group("val") is not None else ""
                self.attr_tests.append((name, op, val))
            elif m.group("not") is not None:
                self.not_sels.append(Compound(m.group("not")))
            pos = m.end()

    def matches(self, el: Element) -> bool:
        if self.tag is not None and el.tag != self.tag:
            return False
        if self.id is not None and el.id != self.id:
            return False
        if self.classes:
            ecl = el.classes
            for c in self.classes:
                if c not in ecl:
                    return False
        for name, op, val in self.attr_tests:
            actual = el.attrs.get(name)
            if actual is None:
                return False
            if op == "":
                continue
            if op == "=":
                if actual != val:
                    return False
            elif op == "*=":
                if val not in actual:
                    return False
            elif op == "^=":
                if not actual.startswith(val):
                    return False
            elif op == "$=":
                if not actual.endswith(val):
                    return False
        for ns in self.not_sels:
            if ns.matches(el):
                return False
        return True


_CACHE: dict[str, list[Compound]] = {}


def compile_selector(selector: str) -> list[Compound]:
    sels = _CACHE.get(selector)
    if sels is None:
        sels = [Compound(part) for part in selector.split(",") if part.strip()]
        _CACHE[selector] = sels
    return sels


def closest(el: Element, selector: str) -> Optional[Element]:
    """Nearest ancestor-or-self matching ``selector`` (like DOM closest())."""
    sels = compile_selector(selector)
    node: Optional[Element] = el
    while node is not None and node.tag != "#root":
        for s in sels:
            if s.matches(node):
                return node
        node = node.parent
    return None


class CompiledGroup:
    """Many selectors answered together from one tree index.

    A group buckets its compounds by one requirement each: a tag, or
    for tag-less (or generic-tag) compounds an id, a class or an
    attribute name.  The same requirement picks the query's candidates
    from the index (tag buckets, or the ``id`` / ``class`` / attribute-
    name buckets), and each candidate only tests the compounds of the
    buckets it falls in.  Only compounds with no requirement at all
    (a bare ``:not(...)``) make a query test its whole interval;
    ``pure`` groups (bare tags only, "a", "h1, h2, h3") test nothing.
    """

    __slots__ = (
        "by_tag", "by_class", "by_id", "by_attr", "rest", "n_selectors", "attr_gates", "pure"
    )

    # Tags too common to be a useful bucket key when the compound also
    # carries an attribute test (a `div[id^=...]` should gate on "has an
    # id attribute", which few elements do, not on "is a div").
    _GENERIC_TAGS = frozenset(("div", "span", "p", "a", "ul", "ol", "li", "section"))

    def __init__(self, selectors: tuple) -> None:
        self.by_tag: dict[str, list[tuple[int, Compound]]] = {}
        self.by_class: dict[str, list[tuple[int, Compound]]] = {}
        self.by_id: dict[str, list[tuple[int, Compound]]] = {}
        # attribute-NAME buckets for compounds whose only cheap gate is
        # "element has attribute X" ([role=...], [class*=...], [id*=...])
        self.by_attr: dict[str, list[tuple[int, Compound]]] = {}
        self.rest: list[tuple[int, Compound]] = []
        self.n_selectors = len(selectors)
        pure = True
        for i, s in enumerate(selectors):
            for c in compile_selector(s):
                pure = pure and c.tag is not None and not (
                    c.id is not None or c.classes or c.attr_tests or c.not_sels
                )
                # most-selective-first bucket choice; any bucket is
                # CORRECT as long as every element the compound could
                # match reaches it (matches() re-checks everything)
                if c.id is not None:
                    self.by_id.setdefault(c.id, []).append((i, c))
                elif c.classes:
                    # any required class works as the bucket key: an
                    # element lacking it can never match the compound
                    self.by_class.setdefault(c.classes[0], []).append((i, c))
                elif c.tag is not None and not (
                    c.attr_tests and c.tag in self._GENERIC_TAGS
                ):
                    self.by_tag.setdefault(c.tag, []).append((i, c))
                elif c.attr_tests:
                    self.by_attr.setdefault(c.attr_tests[0][0], []).append((i, c))
                elif c.tag is not None:
                    self.by_tag.setdefault(c.tag, []).append((i, c))
                else:
                    self.rest.append((i, c))
        # index attribute buckets that hold every element a compound
        # outside by_tag could match
        self.attr_gates = tuple(
            dict.fromkeys((["id"] if self.by_id else []) + (["class"] if self.by_class else []) + list(self.by_attr))
        )
        self.pure = pure

    def _elements(self, root: Element) -> list:
        """Live descendants of ``root`` in document order that could
        match: the group's index buckets cut to root's interval, or the
        whole interval when some compound has no bucket."""
        ix = index_of(root)
        els = ix.els
        lo = root._pre + 1
        hi = root._end + 1
        if self.rest:
            return list(filter(None, els[lo:hi]))
        pos: list = []
        n = 0
        for buckets, names in ((ix.tags, self.by_tag), (ix.attrs, self.attr_gates)):
            for name in names:
                b = buckets.get(name)
                if b:
                    pos += b[bisect_left(b, lo) : bisect_left(b, hi)]
                    n += 1
        if n > 1:
            # an element can sit in one tag bucket and several attribute buckets
            pos = sorted(set(pos))
        return list(filter(None, map(els.__getitem__, pos)))

    def _compounds(self, el: Element):
        """Compound lists that could match ``el`` (bucket lookups only)."""
        cand = []
        b = self.by_tag.get(el.tag)
        if b is not None:
            cand.append(b)
        if self.by_class:
            for cls in el.classes:
                b = self.by_class.get(cls)
                if b is not None:
                    cand.append(b)
        attrs = el.attrs
        if self.by_id:
            b = self.by_id.get(attrs.get("id", ""))
            if b is not None:
                cand.append(b)
        if self.by_attr and attrs:
            for name, b in self.by_attr.items():
                if name in attrs:
                    cand.append(b)
        if self.rest:
            cand.append(self.rest)
        return cand

    def matches(self, el: Element) -> bool:
        # _compounds() inlined with early return: this runs once per
        # candidate element per query, and skipping the candidate-list build
        # (most elements hit zero or one bucket) is a measurable share
        # of converter CPU.
        b = self.by_tag.get(el.tag)
        if b is not None:
            for _, c in b:
                if c.matches(el):
                    return True
        if self.by_class:
            by_class = self.by_class
            for cls in el.classes:
                b = by_class.get(cls)
                if b is not None:
                    for _, c in b:
                        if c.matches(el):
                            return True
        attrs = el.attrs
        if self.by_id:
            b = self.by_id.get(attrs.get("id", ""))
            if b is not None:
                for _, c in b:
                    if c.matches(el):
                        return True
        if self.by_attr and attrs:
            for name, b in self.by_attr.items():
                if name in attrs:
                    for _, c in b:
                        if c.matches(el):
                            return True
        for _, c in self.rest:
            if c.matches(el):
                return True
        return False

    def select(self, root: Element) -> list:
        """Doc-order unique elements matching any selector of the group."""
        els = self._elements(root)
        if self.pure:
            return els
        m = self.matches
        return [el for el in els if m(el)]

    def first(self, root: Element) -> Optional[Element]:
        """First doc-order element matching any selector of the group."""
        for el in self._elements(root):
            if self.pure or self.matches(el):
                return el
        return None

    def select_by_label(self, root: Element) -> list:
        """Per-selector match lists (doc order within each).  Preserves
        selector-priority iteration semantics for callers that process
        matches selector-by-selector."""
        out: list = [[] for _ in range(self.n_selectors)]
        for el in self._elements(root):
            for bucket in self._compounds(el):
                for i, c in bucket:
                    if c.matches(el):
                        out[i].append(el)
        return out

    def count_by_label(self, root: Element) -> list:
        """Per-selector (element, selector) match counts."""
        out = [0] * self.n_selectors
        for el in self._elements(root):
            for bucket in self._compounds(el):
                for i, c in bucket:
                    if c.matches(el):
                        out[i] += 1
        return out


_GROUP_CACHE: dict = {}


def compile_group(selectors) -> CompiledGroup:
    """The cached group for one selector string or a tuple of them."""
    key = selectors if isinstance(selectors, str) else tuple(selectors)
    g = _GROUP_CACHE.get(key)
    if g is None:
        g = _GROUP_CACHE[key] = CompiledGroup((key,) if isinstance(key, str) else key)
    return g


def select_all(root: Element, selector: str) -> list[Element]:
    """Document-order matches among *descendants* of ``root`` (excl. root)."""
    return compile_group(selector).select(root)


def select_one(root: Element, selector: str) -> Optional[Element]:
    """First document-order match among descendants of ``root``."""
    return compile_group(selector).first(root)


def select_group(root: Element, selectors) -> list:
    return compile_group(selectors).select(root)
