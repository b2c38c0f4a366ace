"""Tiny CSS selector engine over the DOM in ``nodes.py``.

Supports exactly the selector subset the reference pipeline uses
(/root/reference/src/utils/markdown-converter.ts:27-103,266-280):
compound simple selectors (``tag``, ``#id``, ``.class``, ``[attr]``,
``[attr='v']``, ``[attr*='v']``, ``[attr^='v']``, ``:not(...)``) joined
in comma-separated groups.  No combinators are needed — the reference
never uses descendant/child selectors.
"""

from __future__ import annotations

import re
from typing import Optional

from .nodes import Element

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


_PURE_TAGSET: dict[str, Optional[frozenset]] = {}


def _pure_tagset(selector: str, sels: list) -> Optional[frozenset]:
    """frozenset of tags when every compound is a bare tag selector
    ("a", "p", "h1, h2, h3" — the converter's hottest lookups), else
    None.  Lets the select functions skip the per-element Compound
    dispatch."""
    ts = _PURE_TAGSET.get(selector, False)
    if ts is False:
        if all(
            s.tag is not None and s.id is None and not s.classes and not s.attr_tests and not s.not_sels
            for s in sels
        ):
            ts = frozenset(s.tag for s in sels)
        else:
            ts = None
        _PURE_TAGSET[selector] = ts
    return ts


def select_all(root: Element, selector: str) -> list[Element]:
    """Document-order matches among *descendants* of ``root`` (excl.
    root), as one plain loop over ``collect_elements`` (a generator
    would cost a resume per element; this is the converter's hottest
    entry point)."""
    sels = compile_selector(selector)
    tagset = _pure_tagset(selector, sels)
    from .nodes import collect_elements

    els = collect_elements(root)
    if tagset is not None:
        return [el for el in els if el.tag in tagset]
    g = compile_group((selector,))
    return [el for el in els if g.matches(el)]


def select_one(root: Element, selector: str) -> Optional[Element]:
    """First document-order match, as a plain stack loop: a miss walks
    the whole tree, and a generator's resume cost (one per element)
    dominated converter profiles."""
    sels = compile_selector(selector)
    tagset = _pure_tagset(selector, sels)
    g = None if tagset is not None else compile_group((selector,))
    stack = [c for c in reversed(root.children) if isinstance(c, Element)]
    pop = stack.pop
    push = stack.append
    while stack:
        el = pop()
        if tagset is not None:
            if el.tag in tagset:
                return el
        elif g.matches(el):
            return el
        for c in reversed(el.children):
            if isinstance(c, Element):
                push(c)
    return None


def matches(el: Element, selector: str) -> bool:
    return any(s.matches(el) for s in compile_selector(selector))


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
    """Many selectors compiled for a SINGLE tree walk.

    The converter's removal/count passes apply 10-20 selectors each;
    evaluating them per-selector costs one full DOM traversal per
    selector (~130 walks/document measured).  A group bucket-indexes
    compounds by required tag — and tag-less compounds by a required
    class / id — so each element only tests the few compounds that
    could possibly match it (most test zero) — one walk total.
    """

    __slots__ = ("by_tag", "by_class", "by_id", "by_attr", "rest", "n_selectors")

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
        for i, s in enumerate(selectors):
            for c in compile_selector(s):
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

    def _candidates(self, el: Element):
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
        # _candidates() inlined with early return: this runs once per
        # element per group walk, and skipping the candidate-list build
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
        from .nodes import collect_elements

        return [el for el in collect_elements(root) if self.matches(el)]

    def select_by_label(self, root: Element) -> list:
        """Per-selector match lists (doc order within each), one walk.
        Preserves selector-priority iteration semantics for callers that
        process matches selector-by-selector."""
        from .nodes import collect_elements

        out: list = [[] for _ in range(self.n_selectors)]
        for el in collect_elements(root):
            for bucket in self._candidates(el):
                for i, c in bucket:
                    if c.matches(el):
                        out[i].append(el)
        return out

    def count_by_label(self, root: Element) -> list:
        """Per-selector (element, selector) match counts in ONE walk —
        the grouped equivalent of calling count_matches per sub-group."""
        from .nodes import collect_elements

        out = [0] * self.n_selectors
        for el in collect_elements(root):
            for bucket in self._candidates(el):
                for i, c in bucket:
                    if c.matches(el):
                        out[i] += 1
        return out

    def count_matches(self, root: Element) -> int:
        """Total (element, selector) match pairs — an element matching
        two selectors counts twice, mirroring per-selector summing."""
        from .nodes import collect_elements

        n = 0
        for el in collect_elements(root):
            for bucket in self._candidates(el):
                for _, c in bucket:
                    if c.matches(el):
                        n += 1
        return n


_GROUP_CACHE: dict[tuple, CompiledGroup] = {}


def compile_group(selectors) -> CompiledGroup:
    key = tuple(selectors)
    g = _GROUP_CACHE.get(key)
    if g is None:
        g = _GROUP_CACHE[key] = CompiledGroup(key)
    return g


def select_group(root: Element, selectors) -> list:
    return compile_group(selectors).select(root)
