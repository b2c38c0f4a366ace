"""Robustness fuzzing: the converter must never raise — malformed,
truncated, or adversarial markup degrades to the documented fallbacks
(R3/R4: cleaned-HTML or raw passthrough), mirroring the reference's
"never throw from convert" posture.  Also pins the string-method form
of one postprocess step against the regex it replaced."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from fetch_engines_ray.functions.converter import convert
from fetch_engines_ray.stages.extract import DocumentExtractor

_TAGS = ["div", "p", "main", "article", "nav", "table", "tr", "td", "ul", "li", "a", "h1", "script", "iframe"]

_chunk = st.one_of(
    st.text(max_size=40),
    st.sampled_from([f"<{t}>" for t in _TAGS]),
    st.sampled_from([f"</{t}>" for t in _TAGS]),
    st.sampled_from(["<", ">", "<!--", "-->", "&amp;", "&", "<!doctype html>", "]]>", "<![CDATA[", "=\"", "'"]),
    st.sampled_from(['<a href="/x">', '<img src="y.png">', '<div class="sidebar">', "{{var}}", "\x00\x01\x02"]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_chunk, max_size=30).map("".join))
def test_convert_never_raises(html):
    res = convert(html)
    assert isinstance(res.markdown, str)
    assert isinstance(res.title, str)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["html", "text", "image", "pdf", "js_shell", "mystery"]),
                "text": st.text(max_size=60),
                "media_ref": st.text(max_size=10),
                "offset": st.integers(min_value=-5, max_value=50),
            }
        ),
        max_size=6,
    )
)
def test_extract_document_never_raises(spans):
    ex = DocumentExtractor()
    row = ex.extract_document("fuzz-doc", spans, base_url=None)
    assert row["doc_id"] == "fuzz-doc"
    assert isinstance(row["out_spans"], list)
    # output order is a clean 0..n-1 sequence regardless of input offsets
    orders = [s["order"] for s in row["out_spans"]]
    assert orders == list(range(len(orders)))


_LINE_TRIM = re.compile(r"(?m)^[ \t]+|[ \t]+$")
_EDGE_TEXT = st.one_of(
    st.lists(
        st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\xa0", "a", "b c"]),
        max_size=40,
    ).map("".join),
    st.text(max_size=60),
)


@settings(max_examples=400, deadline=None)
@given(_EDGE_TEXT)
def test_postprocess_line_trim_equals_regex(text):
    """Step 6 of ``postprocess_markdown`` trims line edges with
    ``str.strip(" \\t")`` per ``\\n``-delimited segment; it must equal
    the multiline regex it replaced, ``\\r\\n`` text included."""
    assert "\n".join(seg.strip(" \t") for seg in text.split("\n")) == _LINE_TRIM.sub("", text)
