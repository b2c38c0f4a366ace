"""The fast single-pass tokenizer must be byte-identical to the stdlib
html.parser path it transcribes (dom/parser.py): same tree, same
recovery on broken markup.  Any future edit to the fast path has to
keep this suite green."""

import gc
import random
import time

import pytest

from fetch_engines_ray.dom.parser import parse_html

EDGES = [
    "", "<", ">", "</>", "</ >", "<a", "<a ", "<a href", "<a href=",
    "<a href='x", '<a href="x', "<a/>", "<a / >", "<a/ >", "<br/>",
    "<a href=x>t</a>", "<a href=x y>", "<a 'x'>",
    "<!-- c -->", "<!-- unterminated", "<!--", "<!---->", "<!-- -- >x",
    "<!doctype html>", "<!DOCTYPE html><p>x</p>", "<!doctype",
    "<![CDATA[ x ]]>", "<![CDATA[ unterminated", "<![if foo]>x<![endif]>",
    "<![weird]]>", "<![", "<?php echo ?>", "<?pi", "<?>",
    "<script>var a = '<p>';</script>", "<script>unterminated",
    "<style>a{} </style", "<script>x</SCRIPT >y",
    "<script>a</script b>c</script>d",
    "&amp; &lt; &unknown; &#65; &#x41; &#65 &amp", "a < b > c",
    "<1tag>", "<ümlaut>", "</tag attr='>'>after", "</123>", "</ tag>",
    "<a b=c d='e' f=\"g\" h>i</a>", "<p>a<p>b</p>", "<li>a<li>b",
    "<td>x<tr>y", "text&#; more", "&#xZZ;", "&;", "<a href='&amp;x'>t</a>",
    "<img src=x.png alt='y z'>", "<a\nhref='x'\n>t</a>",
    "<div class='a b  c'>x</div>", "\x00<p>\x01</p>",
    "<p>" + "&" * 40 + "</p>", "<!bogus>x", "<!>x", "</\x00>",
    "<a =b>", "<a ==>", "<a b=>x</a>",
    # the master regex's boundaries: what it takes must parse as the
    # stdlib parses it, and what it leaves goes to the transcription
    "<DIV CLASS='A'>x</DIV>", "<Img SRC=x.png ALT=y>", "<P Id=a>t</p>",
    "<a href=1 href=2 HREF=3>t</a>", "<a b c b=x>t</a>",
    "<a href='?x=1&amp;y=2' title=\"a&lt;b\">t</a>", "<a href=/p?a=1&b=2>t</a>",
    "<a href=/x/y/z>t</a>", "<a href=/x/>t</a>", "<a b=c/>t", "<a b='c'/>t",
    "<a b/>t", "<br/>x", "<br />x", "<hr/><p>x<hr/>y", "<p>a<div/>b</p>",
    "<h1>a</h1><h6 id=x>b</h6><td1>c</td1>", "<a1b2>x</a1b2>",
    "<a >t</a >", "<a\t\n>t</a\n>", "<a b='c' >t</a>", "<a b = 'c' d= e >t</a>",
    "<a\x0bb>t</a>", "<a\xa0b=c>t</a>", "<a b=c\xa0d>t</a>", "<a b=`c`>t</a>",
    "<a b='c'd='e'>t</a>", "<a b=\"c\"/ >t", "<a b=c\x00>t", "<a-b c=d>t</a-b>",
    "<my-el data-x=1 aria-label='y'>t</my-el>", "<svg:rect xml:lang=en/>",
    "<script type=x>a<b</script>c", "<style>p{}</style >d", "<script></script>e",
    "<SCRIPT>x</script>y", "<script/>z<p>q</p>", "<textarea><p>x</textarea>",
]


@pytest.mark.parametrize("html", EDGES, ids=range(len(EDGES)))
def test_fast_parser_matches_stdlib_on_edges(html):
    assert (
        parse_html(html, _impl="fast").to_html()
        == parse_html(html, _impl="stdlib").to_html()
    )


def test_fast_parser_matches_stdlib_on_fuzz():
    rng = random.Random(20260817)
    chunks = [
        "<div>", "</div>", "<p ", "a='b'", '"', "'", ">", "<", "&amp;",
        "&", "&#65;", "text ", "<!--", "-->", "<script>", "</script>",
        "<![CDATA[", "]]>", "<!doctype html>", "<?pi?>", "=", "/", "/>",
        "\n", " ", "\x00", "é", "<img src=x>", "</a attr='>'>",
        "<![if x]>", "<![endif]>",
    ]
    for _ in range(1500):
        s = "".join(rng.choice(chunks) for _ in range(rng.randint(1, 25)))
        assert (
            parse_html(s, _impl="fast").to_html()
            == parse_html(s, _impl="stdlib").to_html()
        ), repr(s)


def _fuzz_tag(rng):
    name = rng.choice(["a", "DIV", "p", "h2", "my-el", "x1", "Td", "br", "script"])
    attrs = "".join(
        rng.choice(["", " ", "\t", "\n", "  ", "/", "\xa0"])
        + rng.choice(["href", "CLASS", "data-x", "a:b", "_c", "=", "'q'", "x", "dup", "dup"])
        + rng.choice([
            "", "=", "=v", "= v", " =v", "='v w'", '="v&amp;w"', "=v/", "=/a/b", "='", '="',
            "=`v`", "==v", "=v>w", "=\"a'b\"", "=&lt;", "=\xa0v",
        ])
        for _ in range(rng.randint(0, 4))
    )
    return "<" + name + attrs + rng.choice([">", "/>", " >", " / >", "", "\t>"])


def test_fast_parser_matches_stdlib_on_attribute_fuzz():
    """Start tags near the edges of what the master regex takes."""
    rng = random.Random(20261019)
    for _ in range(3000):
        s = "".join(
            rng.choice([_fuzz_tag(rng), "text ", "</a>", "</DIV >", "</p\n>", "&amp;", "<"])
            for _ in range(rng.randint(1, 8))
        )
        assert (
            parse_html(s, _impl="fast").to_html()
            == parse_html(s, _impl="stdlib").to_html()
        ), repr(s)


# hostile inputs, each built to about n chars
HOSTILE = {
    "unclosed_attribute_run": lambda n: "<div " + "a=1 " * (n // 4),
    "unclosed_quoted_attribute_run": lambda n: "<div " + "a='1' " * (n // 6) + "<p>x</p>",
    "lt_flood": lambda n: "<" * n,
    "lt_slash_flood": lambda n: "</" * (n // 2),
    "comment_open_flood": lambda n: "<!--" * (n // 4),
    "declaration_open_flood": lambda n: "<!x" * (n // 3),
    "pi_open_flood": lambda n: "<?" * (n // 2),
    "cdata_open_flood": lambda n: "<![CDATA[" * (n // 9),
    "unterminated_double_quote": lambda n: '<a href="' + "x " * (n // 2),
    "unterminated_single_quote": lambda n: "<p>a</p><a title='" + "<b>y</b>" * (n // 8),
    "long_unquoted_value": lambda n: "<a href=" + "x" * n + ">t</a>",
    "long_unquoted_value_unclosed": lambda n: "<a href=" + "x" * n,
    "many_plain_tags": lambda n: "<p class=a id='b'>x</p>" * (n // 23),
}


def _best_times(htmls, reps):
    """The best of 7 timings of ``reps`` parses of each input, taken
    alternately so a slow phase of the host hits every input.  The cyclic
    GC is off while timing: its full collections scan every live object,
    so a parse that allocates a node per "<" would time the rest of the
    test run's heap too."""
    best = [float("inf")] * len(htmls)
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            for i, html in enumerate(htmls):
                t0 = time.perf_counter()
                for _ in range(reps):
                    parse_html(html, _impl="fast")
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


@pytest.mark.parametrize("kind", sorted(HOSTILE))
def test_fast_parser_is_linear_on_hostile_input(kind):
    """Doubling a hostile input at most about doubles its parse time
    (the bound is 3x, for timer noise), and the parse still equals the
    stdlib's."""
    n = 50_000
    small, large = HOSTILE[kind](n), HOSTILE[kind](2 * n)
    [once] = _best_times([small], 1)
    reps = max(1, int(0.02 / max(once, 1e-6)))  # time at least ~20 ms per trial
    t_small, t_large = _best_times([small, large], reps)
    assert t_large < 3 * t_small, (kind, t_small, t_large)
    assert parse_html(large, _impl="fast").to_html() == parse_html(large, _impl="stdlib").to_html()
