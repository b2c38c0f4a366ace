"""Minimal DOM tree for HTML processing.

Plays the role node-html-parser plays in the reference
(/root/reference/src/utils/markdown-converter.ts:2) — parse once, run
selector-driven pruning passes, then serialize.  Built on the Python
stdlib only (no lxml/bs4 in this environment).  Designed for speed:
slotted nodes, lazy class-set computation, and one element
:class:`Index` per tree, built inside the parser's own pass, that
answers every selector and subtree query without walking the tree again.
"""

from __future__ import annotations

from typing import Optional

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# Block-level tags whose OPENING implicitly closes an open <p>.
P_CLOSING_BLOCKS = frozenset(
    "address article aside blockquote div dl fieldset figure footer form "
    "h1 h2 h3 h4 h5 h6 header hr main nav ol p pre section table ul".split()
)

# Opening tag → set of open-sibling tags it implicitly closes.
_SIBLING_CLOSERS = {
    "li": frozenset(("li",)),
    "tr": frozenset(("td", "th", "tr")),
    "td": frozenset(("td", "th")),
    "th": frozenset(("td", "th")),
    "option": frozenset(("option",)),
    "dd": frozenset(("dd", "dt")),
    "dt": frozenset(("dd", "dt")),
}


class Index:
    """Element index of one tree: positions in document order.

    ``els[i]`` is the element at pre-order position ``i`` (the tree's
    top element is position 0); an element's descendants are exactly
    positions ``_pre + 1 .. _end``, so a subtree is a slice and
    "descendant of" is an interval check.  ``tags`` maps a tag, and
    ``attrs`` an attribute name, to the ascending positions of the
    elements carrying it.  A removed element's positions hold ``None``;
    an element insert, a rename or a new attribute marks the index
    ``stale`` and the next query rebuilds it (:func:`index_of`).  An
    attribute deleted in place leaves its bucket entry: buckets may over-
    but never under-approximate, and attribute queries re-check.

    ``tlen[i]`` is the text length of the subtree at position ``i``,
    ``len(els[i].text_content)``: the parser takes it as the difference
    of the running text-length prefix sum at the element's close and at
    its open.  Every text change under a live element (``remove``,
    ``set_text``, a text node inserted or removed) adds its delta to the
    element and its ancestors, so the entries of live elements stay
    exact."""

    __slots__ = ("els", "tags", "attrs", "tlen", "stale")

    def __init__(self) -> None:
        self.els: list = []
        self.tags: dict[str, list[int]] = {}
        self.attrs: dict[str, list[int]] = {}
        self.tlen: list[int] = []
        self.stale = False

    def add(self, el: "Element") -> None:
        """Give ``el`` the next position (callers add in document order)."""
        el._ix = self
        pos = el._pre = len(self.els)
        self.els.append(el)
        b = self.tags.get(el.tag)
        if b is None:
            self.tags[el.tag] = [pos]
        else:
            b.append(pos)
        if el.attrs:
            attrs = self.attrs
            for name in el.attrs:
                b = attrs.get(name)
                if b is None:
                    attrs[name] = [pos]
                else:
                    b.append(pos)


class Node:
    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[Element] = None

    def remove(self) -> None:
        p = self.parent
        if p is not None:
            try:
                p.children.remove(self)
            except ValueError:
                pass
            else:
                if isinstance(self, Text):
                    ix = p._indexed()
                    if ix is not None:
                        p._add_text(ix, -len(self.data))
            self.parent = None

    @property
    def text_content(self) -> str:
        return ""


class Text(Node):
    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        self.parent = None
        self.data = data

    @property
    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover
        return f"Text({self.data[:30]!r})"


class Element(Node):
    # _ix/_pre/_end: the element's index and its interval there, set by
    # the parser or by index_of(); _pre/_end are unset while _ix is None
    __slots__ = ("tag", "attrs", "children", "_classes", "_ix", "_pre", "_end")

    def __init__(self, tag: str, attrs: Optional[dict] = None) -> None:
        self.parent = None
        self.tag = tag
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: list[Node] = []
        self._classes: Optional[frozenset[str]] = None
        self._ix: Optional[Index] = None

    # -- attribute helpers -------------------------------------------------
    def get(self, name: str, default=None):
        return self.attrs.get(name, default)

    def set(self, name: str, value: str) -> None:
        if name not in self.attrs:
            self._stale()
        self.attrs[name] = value
        if name == "class":
            self._classes = None

    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    @property
    def classes(self) -> frozenset[str]:
        if self._classes is None:
            cls = self.attrs.get("class")
            self._classes = frozenset(cls.split()) if cls else frozenset()
        return self._classes

    # -- tree ops ----------------------------------------------------------
    # Every mutator keeps the element index exact: a removal marks its
    # positions dead; an element insert, a rename or a new attribute
    # (set) marks the index stale.
    def _indexed(self) -> Optional[Index]:
        """This element's index if it is live there, else None."""
        ix = self._ix
        if ix is not None and not ix.stale and ix.els[self._pre] is self:
            return ix
        return None

    def _drop(self, descendants_only: bool) -> None:
        """Mark this element's subtree (or only its descendants) dead."""
        ix = self._indexed()
        if ix is not None:
            lo = self._pre + descendants_only
            ix.els[lo : self._end + 1] = [None] * (self._end + 1 - lo)

    def _stale(self) -> None:
        ix = self._indexed()
        if ix is not None:
            ix.stale = True

    def _add_text(self, ix: Index, delta: int) -> None:
        """Add ``delta`` to the text length of this live element and of
        its ancestors."""
        tlen = ix.tlen
        el: Optional[Element] = self
        while el is not None:
            tlen[el._pre] += delta
            el = el.parent

    def _insert(self, node: Node) -> None:
        node.parent = self
        if isinstance(node, Element):
            self._stale()
        else:
            ix = self._indexed()
            if ix is not None:
                self._add_text(ix, len(node.data))  # type: ignore[attr-defined]

    def remove(self) -> None:
        p = self.parent
        if p is not None:
            ix = self._indexed()
            if ix is not None:
                p._add_text(ix, -ix.tlen[self._pre])
            super().remove()
            self._drop(False)

    def append(self, node: Node) -> None:
        self._insert(node)
        self.children.append(node)

    def prepend(self, node: Node) -> None:
        self._insert(node)
        self.children.insert(0, node)

    def rename(self, tag: str) -> None:
        self.tag = tag
        self._stale()

    def set_text(self, text: str) -> None:
        """Replace all children with one text node (reference: `set_content`,
        markdown-converter.ts:426)."""
        ix = self._indexed()
        if ix is not None:
            self._add_text(ix, len(text) - ix.tlen[self._pre])
        self._drop(True)
        for c in self.children:
            c.parent = None
        t = Text(text)
        t.parent = self
        self.children = [t]

    def clone(self) -> "Element":
        el = Element(self.tag, dict(self.attrs))
        kids = el.children
        for c in self.children:
            n = c.clone() if isinstance(c, Element) else Text(c.data)  # type: ignore[union-attr]
            n.parent = el
            kids.append(n)
        return el

    @property
    def text_content(self) -> str:
        """Concatenated descendant text (entities already decoded at parse)."""
        out: list[str] = []
        stack: list[Node] = list(reversed(self.children))
        while stack:
            n = stack.pop()
            if isinstance(n, Text):
                out.append(n.data)
            else:
                stack.extend(reversed(n.children))  # type: ignore[union-attr]
        return "".join(out)

    # -- serialization -----------------------------------------------------
    def to_html(self) -> str:
        out: list[str] = []
        self._write_html(out)
        return "".join(out)

    def _write_html(self, out: list[str]) -> None:
        attrs = "".join(
            f' {k}="{_escape_attr(v)}"' if v != "" else f" {k}" for k, v in self.attrs.items()
        )
        if self.tag in VOID_ELEMENTS:
            out.append(f"<{self.tag}{attrs} />")
            return
        out.append(f"<{self.tag}{attrs}>")
        for c in self.children:
            if isinstance(c, Element):
                c._write_html(out)
            else:
                out.append(_escape_text(c.data))  # type: ignore[union-attr]
        out.append(f"</{self.tag}>")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.tag} id={self.id!r} class={sorted(self.classes)}>"


def _escape_attr(v: str) -> str:
    return v.replace("&", "&amp;").replace('"', "&quot;")


def _escape_text(v: str) -> str:
    return v.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _build_index(top: Element) -> Index:
    """Index the tree under ``top`` (a parentless element) in one walk."""
    ix = Index()
    add = ix.add
    stack = [top]
    pop = stack.pop
    push = stack.append
    while stack:
        el = pop()
        add(el)
        for c in reversed(el.children):
            if isinstance(c, Element):
                push(c)
    tlen = ix.tlen = [0] * len(ix.els)
    for el in reversed(ix.els):
        end = el._pre
        n = 0
        for c in el.children:
            if isinstance(c, Element):
                end = c._end
                n += tlen[c._pre]
            else:
                n += len(c.data)  # type: ignore[attr-defined]
        el._end = end
        tlen[el._pre] = n
    return ix


def index_of(el: Element) -> Index:
    """The live index of ``el``'s tree, built on first use (clones,
    hand-built trees, removed subtrees) or after a stale mark."""
    ix = el._indexed()
    if ix is None:
        top = el
        while top.parent is not None:
            top = top.parent
        ix = _build_index(top)
    return ix


def text_length(el: Element) -> int:
    """``len(el.text_content)``, read from the index."""
    return index_of(el).tlen[el._pre]


def descendants(root: Element) -> list:
    """Document-order descendant elements of ``root`` (excl. root)."""
    ix = index_of(root)
    return list(filter(None, ix.els[root._pre + 1 : root._end + 1]))


def contains(root: Element, el: Element) -> bool:
    """``el`` is ``root`` or one of its descendants."""
    ix = index_of(root)
    return el._ix is ix and ix.els[el._pre] is el and root._pre <= el._pre <= root._end
