"""Robustness fuzzing: the converter must never raise — malformed,
truncated, or adversarial markup degrades to the documented fallbacks
(R3/R4: cleaned-HTML or raw passthrough), mirroring the reference's
"never throw from convert" posture.  Also pins the string-method forms
and substring prechecks of the postprocess, serializer and assess steps
against the regexes they replaced or guard."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from fetch_engines_ray.functions import converter as conv
from fetch_engines_ray.functions import md_serializer as mds
from fetch_engines_ray.functions import render_detection as rd
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


_MD_TEXT = st.lists(
    st.sampled_from([
        "\n", "\n\n", " ", "  ", "\t", "\r", "# ", "## ", "- ", "* ", "1. ", "> ", "`", "```", "```py\n",
        "[a](/x)", "![i](/y.png)", "[]()", "](", "_", "~", "-", "*", "#", "a" * 31, "b" * 30, "word ",
        "\xa0", "é",
    ]),
    max_size=40,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_MD_TEXT, st.text(max_size=60)))
def test_dup_line_precheck_is_necessary(text):
    """Step 8 of ``postprocess_markdown`` skips its regex when no line
    of 30+ chars is followed by a line starting with it; the regex must
    then find nothing."""
    if conv._RE_PP_DUP_LINES.search(text) is not None:
        assert conv._repeats_a_long_line(text.split("\n"))


_MD_CODE_FENCE = re.compile(r"```[\s\S]*?```")
_MD_INLINE_CODE = re.compile(r"`[^`]*`")
_MD_IMAGE = re.compile(r"!\[[^\]]*]\([^)]*\)")
_MD_LINK = re.compile(r"\[([^\]]*)\]\([^)]*\)")
_MD_HEADING = re.compile(r"(?m)^#{1,6}\s+")
_MD_MARKS = re.compile(r"[*_~>-]")
_SPACE_RUN = re.compile(r" {2,}")


@settings(max_examples=400, deadline=None)
@given(st.one_of(_MD_TEXT, st.text(max_size=60)))
def test_markdown_visible_text_equals_regex_chain(text):
    """``strip_markdown_to_visible_text`` runs each pattern only when the
    text holds a literal it needs, and blanks marks with ``str.translate``;
    it must equal the unconditional regex chain."""
    s = _MD_CODE_FENCE.sub(" ", text)
    s = _MD_INLINE_CODE.sub(" ", s)
    s = _MD_IMAGE.sub(" ", s)
    s = _MD_LINK.sub(r"\1", s)
    s = _MD_HEADING.sub("", s)
    s = _MD_MARKS.sub(" ", s)
    assert rd.strip_markdown_to_visible_text(text) == " ".join(s.split())


@settings(max_examples=400, deadline=None)
@given(st.one_of(_MD_TEXT, _EDGE_TEXT))
def test_finalize_paragraph_single_line_path(text):
    """The one-line path of ``_finalize_paragraph`` equals the per-line
    collapse, strip and join."""
    lines = [_SPACE_RUN.sub(" ", ln).strip() for ln in text.split("\n")]
    assert mds._finalize_paragraph(text) == "\n".join(ln for ln in lines if ln != "").strip()


# The plain alternation that ``render_detection._SOFT_BLOCK_BODY``
# replaced; callers test only for a match, so both must match the same
# strings.
_SOFT_BLOCK_PLAIN = re.compile(
    r"checking your browser|verify you.{0,10}(?:are |'re )?(?:not a )?(?:ro)?bot|"
    r"verify you.{0,10}human|please complete the security check|cf-challenge|"
    r"captcha-container|hcaptcha|recaptcha|cf-turnstile|"
    r"enable (?:javascript|cookies) to (?:continue|access|view)|"
    r"automated (?:access|request)|bot detect|suspicious activity|unusual traffic|"
    r"too many requests|rate limit exceeded|we need to verify",
    re.I,
)
_SOFT_BLOCK_PHRASES = [
    "checking your browser", "verify you are not a robot", "verify you're a bot",
    "verify you, the human", "verify you1234567890bot", "please complete the security check",
    "cf-challenge", "captcha-container", "hcaptcha", "recaptcha", "cf-turnstile",
    "enable javascript to continue", "enable cookies to access", "enable javascript to view",
    "automated access", "automated request", "bot detect", "suspicious activity",
    "unusual traffic", "too many requests", "rate limit exceeded", "we need to verify",
]
# re.I folds these apart from str.lower: the long s and the Kelvin sign
# match s and k, and the dotted capital I and the dotless small i are
# their own cases
_FOLD_SPECIALS = "ſKİı"


def _same_soft_block(text: str) -> None:
    got = rd._SOFT_BLOCK_BODY.search(text) is not None
    assert got == (_SOFT_BLOCK_PLAIN.search(text) is not None), repr(text)


def test_soft_block_body_matches_phrases_and_case_folds():
    for phrase in _SOFT_BLOCK_PHRASES:
        assert rd._SOFT_BLOCK_BODY.search(f"<p>{phrase.upper()}</p>") is not None, phrase
        for i in range(len(phrase)):
            _same_soft_block(phrase[:i] + phrase[i].swapcase() + phrase[i + 1:])
            for ch in _FOLD_SPECIALS:
                _same_soft_block(phrase[:i] + ch + phrase[i + 1:])
                _same_soft_block(f"x{phrase[:i]}{ch}{phrase[i:]}y")
    # the specials reach the first letter too
    assert rd._SOFT_BLOCK_BODY.search("ſuspicious activity") is not None


def test_soft_block_body_matches_on_generated_pages():
    from fetch_engines_ray.corpus.generate import make_doc

    hits = 0
    for i in range(400):
        for span in make_doc(i, 1)["spans"]:
            if span["kind"] == "html" and span["text"]:
                _same_soft_block(span["text"])
                hits += _SOFT_BLOCK_PLAIN.search(span["text"]) is not None
    assert hits  # the generated challenge pages are covered


_SOFT_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_SOFT_BLOCK_PHRASES),
        st.sampled_from([p[:k] for p in _SOFT_BLOCK_PHRASES for k in (1, 3, 6)]),
        st.sampled_from(list(_FOLD_SPECIALS) + [" ", "\n", "'re ", "not a ", "ro", "you"]),
        st.text(max_size=8),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_SOFT_TEXT)
def test_soft_block_body_equals_plain_alternation(text):
    _same_soft_block(text)
