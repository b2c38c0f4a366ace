"""URL absolutization (M4) must answer as ``urljoin`` does.

``_resolve_url`` joins a plain root-relative path onto the base's
``scheme://netloc`` without calling ``urljoin``.  These tests run
``absolutize_relative_urls`` over fuzzed hrefs and bases and compare
every result with the plain ``urljoin`` rule it replaced."""

import itertools
import re
from urllib.parse import urljoin, urlparse

from hypothesis import given, settings
from hypothesis import strategies as st

from fetch_engines_ray.dom.nodes import Element
from fetch_engines_ray.functions.converter import absolutize_relative_urls

_NONHTTP = re.compile(r"^(?:mailto:|tel:|sms:|javascript:|data:|blob:|about:|file:)", re.I)
_ABS = re.compile(r"^[a-z][a-z0-9+.-]*:", re.I)


def reference(raw: str, base: str):
    value = raw.strip()
    if not value:
        return None
    if _NONHTTP.match(value) or _ABS.match(value):
        return value
    try:
        return urljoin(base, value)
    except ValueError:
        return value


def absolutized(hrefs, base):
    root = Element("body")
    links = []
    for href in hrefs:
        a = Element("a", {"href": href})
        root.append(a)
        links.append(a)
    absolutize_relative_urls(root, base)
    return [a.get("href") for a in links]


def check(hrefs, base):
    p = urlparse(base)
    if not p.scheme or not p.netloc:
        want = list(hrefs)  # no usable base: every href stays as it is
    else:
        want = [reference(h, base) or h for h in hrefs]
    assert absolutized(hrefs, base) == want, base


BASES = [
    "https://example.com", "https://example.com/", "http://example.com/a/b", "https://example.com/a/b/",
    "https://example.com/a/b?q=1", "https://example.com/a?q=1#frag", "http://example.com:8080/x",
    "https://user:pw@example.com/p/", "HTTPS://Example.COM/A/", "ftp://example.com/dir/file",
    "https://example.com/a;p", "https://例え.jp/パス/", "https://[::1]:8443/x", "file:///tmp/x",
    "example.com/no/scheme", "mailto:someone@example.com", "https://example.com/a/../b/",
]
HREFS = [
    "", " ", "/", "/a", "/a/b", "/a/b/", " /a/b ", "\t/a\n", "/a/./b", "/a/../b", "/..", "/.", "/.well-known/x",
    "/a/b.", "//cdn.example.com/x", "/a//b", "/a?x=1", "/a#f", "/a;p", "/a\\b", "/\\x", "/a\tb", "/a\rb",
    "/a\nb", "/é/ü", "/路径", "/a%20b", "/a b", "/a:b", "a/b", "../c", "./d", "?q", "#f", "x:y",
    "mailto:x@y", "javascript:void(0)", "HTTP://other.com/x", "/\x00x", "/a\x0bb", "\x0c/a", "/a\xa0",
]


def test_root_relative_fast_path_matches_urljoin_on_lists():
    for base in BASES:
        check(HREFS, base)


_PIECE = st.sampled_from(
    ["/", "//", "a", "B", ".", "..", "?", "#", ";", "\\", " ", "\t", "\n", "é", "路", "%2e", "=", "&", ":", "@", "x.y"]
)
_HREF = st.one_of(st.lists(_PIECE, max_size=8).map("".join), st.text(max_size=12), st.just(""))
_BASE = st.builds(
    lambda scheme, auth, port, path, query: f"{scheme}://{auth}example.com{port}{path}{query}",
    st.sampled_from(["http", "https", "HTTP", "ftp"]),
    st.sampled_from(["", "user@", "user:pw@"]),
    st.sampled_from(["", ":80", ":8443"]),
    st.sampled_from(["", "/", "/a", "/a/", "/a/b/c", "/a/b;p", "/%7Ex/"]),
    st.sampled_from(["", "?q=1", "#f", "?q=1#f"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_HREF, min_size=1, max_size=6), _BASE)
def test_root_relative_fast_path_matches_urljoin_on_fuzz(hrefs, base):
    check(hrefs, base)


def test_most_corpus_hrefs_take_the_fast_path():
    """The fuzz above is not vacuous: plain root-relative paths, the
    common case, are among the inputs for every base."""
    plain = [h for h in HREFS if h[:1] == "/" and not re.search(r"//|/\.|[?#;\\\t\r\n]", h)]
    assert len(plain) >= 10
    for base, href in itertools.product(BASES[:4], plain):
        p = urlparse(base)
        assert absolutized([href], base) == [f"{p.scheme}://{p.netloc}{href.strip()}"]
