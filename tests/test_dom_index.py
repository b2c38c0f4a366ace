"""The element index contract (dom/nodes.py ``Index``).

Every selector query reads the tree's element index instead of walking
the tree.  These tests hold the index to a naive walk-based reference
selector kept here only: after any sequence of the DOM's mutators, on
the top root and on any subtree root, every query answers as the walk
would, and every indexed text length is the length of the element's
text.  They also pin that the fast and stdlib parsers build the same
index, and that a conversion walks each tree at most twice."""

import fixtures_html
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fuzz_converter import _chunk
from test_parser_equivalence import EDGES

from fetch_engines_ray.dom import nodes
from fetch_engines_ray.dom.nodes import Element, Text, contains, descendants, index_of, text_length
from fetch_engines_ray.dom.parser import parse_html
from fetch_engines_ray.dom.selectors import (
    CompiledGroup,
    compile_group,
    compile_selector,
    select_all,
    select_group,
    select_one,
)
from fetch_engines_ray.functions import converter as conv

PAGES = [v for k, v in sorted(vars(fixtures_html).items()) if k.startswith("F") and isinstance(v, str) and "<" in v]

SELECTORS = (
    "a", "p", "div", "li", "h1, h2, h3", "h1, h2, h3, h4, h5, h6", "td, th, tr",
    ".sidebar", ".a", "#main", "#x", "[href]", "a[href^='/']", "[class*='nav']",
    "div.x", ":not(p)", "img[src*='svg']", "iframe:not([title])", "div, .sidebar, [role='main']",
    "nav[aria-label='breadcrumb']", "[id^='c']", "li:not(.a)",
)
GROUPS = (
    conv.PREPROCESSING_REMOVE_SELECTORS,
    conv.CONTENT_SUBTREE_REMOVE_SELECTORS,
    conv.MAIN_CONTENT_SELECTORS,
    conv.BREADCRUMB_SELECTORS,
    conv._FORUM_ALL_SELECTORS,
    ("p", "p, a", "a, .a, [href]", ":not(div)"),
)


# -- the walk-based reference ------------------------------------------------
def ref_descendants(root):
    out, stack = [], [c for c in reversed(root.children) if isinstance(c, Element)]
    while stack:
        el = stack.pop()
        out.append(el)
        stack.extend(c for c in reversed(el.children) if isinstance(c, Element))
    return out


def ref_labels(root, selectors):
    out = [[] for _ in selectors]
    for el in ref_descendants(root):
        for i, s in enumerate(selectors):
            out[i].extend(el for c in compile_selector(s) if c.matches(el))
    return out


def ref_select_all(root, selector):
    return [el for el in ref_descendants(root) if any(c.matches(el) for c in compile_selector(selector))]


def top_of(el):
    while el.parent is not None:
        el = el.parent
    return el


def check_queries(root):
    """Every query under ``root`` equals the reference walk."""
    for sel in SELECTORS:
        want = ref_select_all(root, sel)
        assert select_all(root, sel) == want, sel
        assert select_one(root, sel) is (want[0] if want else None), sel
    for group in GROUPS:
        labels = ref_labels(root, group)
        assert compile_group(group).select_by_label(root) == labels, group
        assert compile_group(group).count_by_label(root) == [len(x) for x in labels], group
        union = set(map(id, (el for lab in labels for el in lab)))
        assert select_group(root, group) == [el for el in ref_descendants(root) if id(el) in union], group
    inside = ref_descendants(root)
    assert descendants(root) == inside
    members = set(map(id, inside))
    for el in ref_descendants(top_of(root)):
        assert contains(root, el) is (el is root or id(el) in members)


# -- index structure ---------------------------------------------------------
def index_shape(root):
    ix = index_of(root)
    return (
        [(el.tag, el._pre, el._end) for el in ix.els],
        ix.tags,
        ix.attrs,
        ix.tlen,
    )


def check_intervals(root):
    ix = root._ix
    assert ix is not None and not ix.stale
    assert ix.els[0] is root
    assert ix.els == [root, *ref_descendants(root)]
    assert len(ix.tlen) == len(ix.els)
    for pos, el in enumerate(ix.els):
        assert el._ix is ix and el._pre == pos
        assert ix.els[el._pre + 1 : el._end + 1] == ref_descendants(el)
        assert ix.tlen[pos] == len(el.text_content)
    for tag, positions in ix.tags.items():
        assert positions == [i for i, el in enumerate(ix.els) if el.tag == tag]
    for name, positions in ix.attrs.items():
        assert positions == [i for i, el in enumerate(ix.els) if name in el.attrs]


def _fuzz_strings(n):
    import random

    rng = random.Random(20261017)
    chunks = ["<div>", "</div>", "<p>", "</p>", "<li>", "<a href='/x'>", "</a>", "<td>", "<tr>",
              "<div class='a sidebar'>", "<img src=x.svg>", "text ", "<![weird]]>", "<!--", "-->",
              "<script>", "</script>", "<br/>", "<h2 id=main>", "</h2>"]
    return ["".join(rng.choice(chunks) for _ in range(rng.randint(1, 30))) for _ in range(n)]


@pytest.mark.parametrize("html", EDGES + _fuzz_strings(200) + PAGES)
def test_parsers_build_the_same_index(html):
    fast = parse_html(html, _impl="fast")
    stdlib = parse_html(html, _impl="stdlib")
    check_intervals(fast)
    assert index_shape(fast) == index_shape(stdlib)
    # the parse-time index equals one built by walking an unindexed copy
    assert index_shape(fast) == index_shape(fast.clone())


def test_parse_error_leaves_a_closed_index():
    # the fast tokenizer raises on an unknown marked section and keeps
    # the partial tree; every element still open then gets its interval
    root = parse_html("<div><p>a<![weird]]><b>x</b>", _impl="fast")
    check_intervals(root)
    assert index_shape(root) == index_shape(parse_html("<div><p>a<![weird]]><b>x</b>", _impl="stdlib"))


@pytest.mark.parametrize("html", PAGES)
def test_queries_match_reference_on_fixture_pages(html):
    root = parse_html(html)
    check_queries(root)
    for el in ref_descendants(root)[::7]:
        check_queries(el)


def test_removed_subtree_then_original_tree():
    root = parse_html(
        "<body><div id=a class=x><p>one</p><a href=/1>l</a><div class=sidebar><a>m</a></div></div>"
        "<section><p>two</p><a href=/2>k</a></section></body>"
    )
    sub = select_one(root, "#a")
    inner = select_one(sub, ".sidebar")
    sub.remove()
    # the removed subtree gets its own index on first query ...
    assert select_all(sub, "a") == ref_select_all(sub, "a")
    check_queries(sub)
    check_queries(inner)
    assert sub._ix is not root._ix
    # ... and the original tree still answers from its own
    check_queries(root)
    assert [el.get("href") for el in select_all(root, "a")] == ["/2"]
    assert not contains(root, inner)
    # put back: the tree goes stale and is re-indexed on its next query
    select_one(root, "section").append(sub)
    check_queries(root)
    check_intervals(root)
    assert contains(root, inner)


def test_removed_subtree_of_a_clone_and_a_hand_built_tree():
    root = parse_html(fixtures_html.F18_FORUM)
    container = Element("div")
    container.append(select_one(root, "body").clone())
    container.append(Element("p"))
    check_queries(container)
    for el in select_group(container, conv.FORUM_OBVIOUS_NON_CONTENT_SELECTORS):
        el.remove()
        check_queries(el)
    check_queries(container)
    check_queries(root)


def check_text(root):
    """Every live indexed text length, and every element's under ``root``
    through ``text_length``, is the length of its text; and the consent
    check answered once for ``root`` answers as the per-element walk."""
    for el in [root, *ref_descendants(root)]:
        ix = el._indexed()
        if ix is not None:
            assert ix.tlen[el._pre] == len(el.text_content)
    in_scope = conv._has_consent_phrase(root)
    for el in [root, *ref_descendants(root)]:
        assert text_length(el) == len(el.text_content)
        assert conv._is_likely_consent_or_interstitial(el, in_scope) == conv._is_likely_consent_or_interstitial(el)


# -- random mutation sequences -------------------------------------------------
_OPS = st.sampled_from(
    ["remove", "append", "prepend", "set_text", "rename", "set_class", "set_attr", "add_text", "remove_text"]
)
_TAG = st.sampled_from(["div", "p", "a", "li", "h1", "h2", "nav", "section"])
_CLASS = st.sampled_from(["", "a", "sidebar", "x a", "nav-bar", "post"])
# texts that form a consent phrase alone or next to each other
_TEXT = st.sampled_from(["t", "replaced", "", "Accept Cookies", "manage ", "preferences", "REFUSE ALL", "agree to", " all"])


def _fresh(data):
    el = Element(data.draw(_TAG), {"class": data.draw(_CLASS)} if data.draw(st.booleans()) else {})
    el.append(Text(data.draw(_TEXT)))
    if data.draw(st.booleans()):
        kid = Element(data.draw(_TAG), {"href": "/k"})
        kid.append(Text("k"))
        el.append(kid)
    return el


def _pick(data, els):
    return els[data.draw(st.integers(0, len(els) - 1))]


def _mutate_and_check(root, data):
    detached = []
    for _ in range(data.draw(st.integers(1, 8))):
        live = ref_descendants(root)
        op = data.draw(_OPS)
        if not live and op != "append":
            continue
        el = _pick(data, live) if live else root
        if op == "remove":
            el.remove()
            detached.append(el)
        elif op in ("append", "prepend"):
            node = detached.pop() if detached and data.draw(st.booleans()) else _fresh(data)
            getattr(_pick(data, [root, *live]), op)(node)
        elif op == "set_text":
            el.set_text(data.draw(_TEXT))
        elif op == "add_text":
            getattr(el, data.draw(st.sampled_from(["append", "prepend"])))(Text(data.draw(_TEXT)))
        elif op == "remove_text":
            texts = [c for c in el.children if isinstance(c, Text)]
            if texts:
                _pick(data, texts).remove()
        elif op == "rename":
            el.rename(data.draw(_TAG))
        elif op == "set_class":
            el.set("class", data.draw(_CLASS))
        else:
            el.set(data.draw(st.sampled_from(["href", "id", "role"])), "main")
        if data.draw(st.booleans()):
            # queries between mutations: they (re)build indexes mid-sequence
            check_queries(_pick(data, [root, *ref_descendants(root)]))
        if data.draw(st.booleans()):
            check_text(root)
    check_text(root)
    check_queries(root)
    for el in ref_descendants(root)[:: max(1, len(ref_descendants(root)) // 5)]:
        check_queries(el)
    for d in detached:
        check_queries(d)
    check_queries(root)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EDGES + PAGES), st.data())
def test_mutations_keep_queries_exact_on_edges_and_pages(html, data):
    _mutate_and_check(parse_html(html), data)


@settings(max_examples=60, deadline=None)
@given(st.lists(_chunk, max_size=30).map("".join), st.data())
def test_mutations_keep_queries_exact_on_fuzz(html, data):
    _mutate_and_check(parse_html(html), data)


# -- walk count ----------------------------------------------------------------
class _CountingChildren:
    """Stands in for the ``Element.children`` slot and counts reads."""

    def __init__(self, slot):
        self.slot = slot
        self.reads = 0

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.reads += 1
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


def test_conversion_walks_each_tree_at_most_twice(monkeypatch):
    """A full-tree walk is a parse (which builds the index in its own
    pass) or a selector query that reads any element's children: an
    index build, or a query that walks instead of reading the index.
    Each fixture page converts in at most two."""
    children = _CountingChildren(nodes.Element.__dict__["children"])
    monkeypatch.setattr(nodes.Element, "children", children)
    walks = [0]
    depth = [0]

    def counted(fn, parse=False):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            before = children.reads
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0 and (parse or children.reads != before):
                    walks[0] += 1

        return wrapper

    monkeypatch.setattr(conv, "parse_html", counted(conv.parse_html, parse=True))
    for name in ("select_all", "select_one", "select_group", "descendants", "contains", "closest"):
        monkeypatch.setattr(conv, name, counted(getattr(conv, name)))
    for name in ("select", "first", "select_by_label", "count_by_label"):
        monkeypatch.setattr(CompiledGroup, name, counted(getattr(CompiledGroup, name)))

    per_page = []
    for html in PAGES:
        walks[0] = 0
        conv.convert(html, base_url="https://example.com/a/b")
        per_page.append(walks[0])
    assert per_page and max(per_page) <= 2, per_page
    assert sum(w == 2 for w in per_page) < len(per_page)  # most pages: the parse alone
