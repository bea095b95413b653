"""The native tree builder (``html/_scan.c``) against the Python
tokenizer and builder: every parse must give the same tree and the
same errors with the extension active and with ``parser._scan`` set to
None."""

import json
import logging
import os
import string
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gumbo_pp_ray.html import ELEMENT, TEXT, _native, parser, walk
from gumbo_pp_ray.html.parser import ParseOptions, parse

FIXTURES = os.path.join(os.path.dirname(__file__), "data",
                        "extract_fixtures.json")

OPTIONS = (
    None,
    ParseOptions(max_errors=2),
    ParseOptions(stop_on_first_error=True),
    ParseOptions(fragment_context="ul"),
    ParseOptions(fragment_context="title"),
)


def dump(doc) -> list:
    """Every node's kind, tag, attrs, text, offsets, flags and parent
    position, plus the document's error record."""
    order = {}
    rows = [(doc.doctype, doc.parse_errors, doc.errors)]
    for i, n in enumerate(walk(doc)):
        order[id(n)] = i
        rows.append((
            n.kind, getattr(n, "tag", None), dict(n.attrs),
            getattr(n, "text", None), n.start, getattr(n, "start_tag_end", None),
            getattr(n, "end_tag_start", None), n.end,
            getattr(n, "implied", None), n.index_within_parent,
            order.get(id(n.parent)),
        ))
    return rows


def assert_same(html: str, opts=None):
    native = dump(parse(html, opts))
    with mock.patch.object(parser, "_scan", None):
        python = dump(parse(html, opts))
    assert native == python, html


def test_scanner_is_built():
    # a silent fallback would leave every test below comparing the
    # Python tokenizer with itself
    assert parser._scan is not None


def test_failed_build_falls_back_with_one_warning(tmp_path, monkeypatch,
                                                  caplog):
    bad = tmp_path / "_scan.c"
    bad.write_text("#include <Python.h>\nthis is not C;\n")
    monkeypatch.setattr(_native, "_SOURCE", str(bad))
    before = set(os.listdir(os.path.join(_native._HERE, "__pycache__")))
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        assert _native.load_scan() is None
    assert len(caplog.records) == 1
    assert "error" in caplog.records[0].getMessage()
    # no half-written module or temporary file is left behind
    assert set(os.listdir(os.path.join(_native._HERE, "__pycache__"))) \
        == before


def in_body(html: str) -> parser._TreeBuilder:
    """A builder in in-body mode that has inserted ``html`` natively."""
    tb = parser._TreeBuilder(len(html))
    tb._ensure_body(0)
    assert parser._scan.build(html, 0, parser._SCAN_DEFER, tb) \
        == (None, len(html))
    return tb


def shape(node) -> list:
    return [(c.kind, getattr(c, "tag", None) or c.text, c.start, c.end,
             shape(c)) for c in node.children]


def test_scanner_tokens():
    build, d = parser._scan.build, parser._SCAN_DEFER
    html = "a<P x='>'/>b</p \t>"
    tb = in_body("")
    # a non-void self-closing tag is the first token with a rule
    assert build(html, 0, d, tb) == (
        (1, "p", {"x": ">"}, 1, 11, True), 11)
    tb.start_tag("p", {"x": ">"}, 1, 11, True)
    assert build(html, 11, d, tb) == (None, 18)
    assert shape(tb.body) == [(TEXT, "a", 0, 1, []),
                              (ELEMENT, "p", 1, 18, [(TEXT, "b", 11, 12, [])])]
    # stops before the first token it leaves to the Python loop
    for rest in ("<!-- c -->", "<script>", "<image>", "</p/>", "< p>",
                 "<?pi>", "<a b='>", "<" + "x" * 256 + ">"):
        tb = in_body("")
        assert build("\U0001F600é<b>" + rest, 0, d, tb) == (None, 5), rest
        assert shape(tb.body) == [(TEXT, "\U0001F600é", 0, 2, []),
                                  (ELEMENT, "b", 2, 5, [])], rest
    # an end tag that closes nothing open is handed back
    assert build("</p\xa0>", 0, d, in_body("")) == ((2, "p", 0, 5), 5)
    assert build("<a>", 3, d, in_body("")) == (None, 3)
    # before <body>, every token is handed back, one per call
    tb = parser._TreeBuilder(20)
    assert build("<html>\n<body>", 0, d, tb) == ((1, "html", {}, 0, 6,
                                                   False), 6)


@pytest.mark.parametrize("before, token, want", [
    ("<table>", "x", (0, "x", 7, 8)),                  # foster parenting
    ("<table><tr>", "x", (0, "x", 11, 12)),
    ("<pre>", "\nx", (0, "\nx", 5, 7)),               # newline rule
    ("<listing>", "x", (0, "x", 9, 10)),
    ("", "<form>", (1, "form", {}, 0, 6, False)),
    ("", "<template>", (1, "template", {}, 0, 10, False)),
    ("", "<body id=b>", (1, "body", {"id": "b"}, 0, 11, False)),
    ("", "<div/>", (1, "div", {}, 0, 6, True)),
    ("<a href=1>x", "<a href=2>", (1, "a", {"href": "2"}, 11, 21, False)),
    ("<b>" * 3, "<b>", (1, "b", {}, 9, 12, False)),     # Noah's Ark
    ("<div>", "</span>", (2, "span", 5, 12)),           # not the top
    ("<div><p>", "</div>", (2, "div", 8, 14)),
    ("", "</body>", (2, "body", 0, 7)),
])
def test_build_hands_back_tokens_with_rules(before, token, want):
    tb = in_body(before)
    n = len(before)
    assert parser._scan.build(before + token, n, parser._SCAN_DEFER, tb) \
        == (want, n + len(token))
    # nothing of the token was inserted
    assert shape(tb.doc) == shape(in_body(before).doc)


def test_build_hands_back_text_while_formatting_is_dirty():
    tb = in_body("<p><b>x")
    tb.end_tag("p", 7, 11)          # leaves <b> to reconstruct
    assert tb.afe_dirty
    build = parser._scan.build
    assert build("<i>", 0, parser._SCAN_DEFER, tb) \
        == ((1, "i", {}, 0, 3, False), 3)
    assert build("y", 0, parser._SCAN_DEFER, tb) == ((0, "y", 0, 1), 1)
    # whitespace needs no reconstruction
    assert build(" ", 0, parser._SCAN_DEFER, tb) == (None, 1)


def test_well_formed_body_never_reaches_the_python_builder():
    """A fast path that silently turned off would still give the same
    trees; this pins that only the tokens before <body>, and the end
    tags of body and html, reach the Python builder methods."""
    html = ("<!DOCTYPE html>\n<html lang=en>\n<head>\n<meta charset=utf-8>"
            "\n<title>T</title>\n</head>\n<body>\n<div id=main><h1>Head</h1>"
            "<p>One <b>two</b> <a href=x>th&amp;ree</a>.</p>\n<ul><li>a</li>"
            "<li>b</li></ul><table><tr><td>1</td><td>2</td></tr></table>"
            "<img src=i.png><br></div>\n</body>\n</html>\n")
    calls = []

    def spy(name):
        method = getattr(parser._TreeBuilder, name)

        def record(tb, first, *args):
            calls.append((name, first))
            return method(tb, first, *args)
        return mock.patch.object(parser._TreeBuilder, name, record)

    with spy("start_tag"), spy("end_tag"), spy("text"):
        doc = parse(html)
    assert calls == [
        ("text", "\n"), ("start_tag", "html"), ("text", "\n"),
        ("start_tag", "head"), ("text", "\n"), ("start_tag", "meta"),
        ("text", "\n"), ("start_tag", "title"), ("text", "\n"),
        ("end_tag", "head"), ("text", "\n"), ("start_tag", "body"),
        ("end_tag", "body"), ("end_tag", "html")]
    assert doc.parse_errors == 0
    assert_same(html)


def test_native_release_empties_every_child_list():
    assert parser.release is parser._scan.release
    doc = parse("<!DOCTYPE html><html><head><title>t</title></head><body>"
                "<div><p>a <b>b<i>c</i></b></p><ul><li>x<li>y</ul>"
                "<table><tr><td>1</td></tr></table><img src=i.png></div>"
                "<!-- c --></body></html>")
    parents = [n for n in walk(doc) if n.children]
    assert doc in parents and len(parents) > 10
    parser.release(doc)
    assert all(n.children == [] for n in parents)
    assert doc.children == []


def test_fixtures_parse_identically():
    with open(FIXTURES) as f:
        docs = json.load(f)
    for html in docs:
        for opts in OPTIONS:
            assert_same(html, opts)


_NAMES = ("div", "p", "b", "a", "i", "li", "ul", "table", "tr", "td",
          "span", "html", "head", "body", "br", "img", "svg", "DIV", "Td",
          "x:y", "my-widget", "h1", "title", "script", "style", "textarea",
          "xmp", "image", "n" * 300, "em", "strong", "nobr", "th", "caption",
          "tbody", "dd", "dt", "option", "optgroup", "pre", "listing",
          "form", "template", "hr", "h2")
_TEXT = st.text(alphabet=string.ascii_letters + " \t\n&;#<>\"'=/"
                "\xa0\xe9\xff　中\U0001F600", max_size=12)
_ATTR = st.sampled_from((
    "", " x", " x=1", ' x="a>b"', " x='<p>'", " X=\"&amp;\"", " b='>'",
    ' c="unterminated', " d='unterminated", " a=b\"c", " / ", " x=/",
))


@st.composite
def tag_soup(draw):
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            parts.append(draw(_TEXT))
        elif kind == 1:
            name = draw(st.sampled_from(_NAMES))
            attrs = "".join(draw(st.lists(_ATTR, max_size=2)))
            parts.append(f"<{name}{attrs}{draw(st.sampled_from(('', '/')))}>")
        elif kind == 2:
            name = draw(st.sampled_from(_NAMES))
            ws = draw(st.sampled_from(("", " ", "\t", "\xa0", "　",
                                       " x=1", "/")))
            parts.append(f"</{name}{ws}>")
        else:
            parts.append(draw(st.sampled_from((
                "<!-->", "<!--->", "<!-- c -->", "<!--a--!>", "<!--",
                "<![CDATA[x]]>", "<![CDATA[", "<?pi>", "<?x", "<", "< p",
                "<!doctype html>", "<!x>", "</>", "</ p>", "<é>", "<2",
                "<script/>", "<image src=i.png>", "<a b='>'>", "</p\t>",
                "</p\xa0>"))))
    html = "".join(parts)
    cut = draw(st.integers(0, len(html)))     # EOF anywhere, mid-tag too
    return html if draw(st.booleans()) else html[:cut]


@settings(max_examples=1500, deadline=None)
@given(tag_soup(), st.sampled_from(OPTIONS))
def test_tag_soup_parses_identically(html, opts):
    assert_same(html, opts)


# builder-focused soup: runs of identical formatting tags (Noah's Ark),
# nested links, unclosed <p>/<li>, cells outside and inside tables
_BUILDER_PART = st.sampled_from((
    "<b>", "<b class=x>", "</b>", "<i>", "</i>", "<em>", "</em>",
    "<a href=1>", "<a href=2>", "</a>", "<nobr>", "</nobr>",
    "<p>", "</p>", "<li>", "</li>", "<ul>", "</ul>", "<dd>", "<dt>",
    "<table>", "</table>", "<tr>", "</tr>", "<td>", "</td>", "<th>",
    "</th>", "<caption>", "</caption>", "<tbody>", "<div>", "</div>",
    "<pre>", "</pre>", "<form>", "</form>", "<br>", "<hr/>", "<body>",
    "</body>", "x", "y&amp;", " ", "\n", "\t\n",
))


@st.composite
def builder_soup(draw):
    parts = [draw(st.sampled_from(("", "<body>", "<html><body>",
                                   "<table>", "<table><tr>", "<td>")))]
    for _ in range(draw(st.integers(0, 14))):
        parts.append(draw(_BUILDER_PART) * draw(st.sampled_from((1, 1, 2,
                                                                 4, 5))))
    return "".join(parts)


@settings(max_examples=1500, deadline=None)
@given(builder_soup(), st.sampled_from(OPTIONS))
@example("<p><b>1</p><table></table>2", None)     # marker cleared by </table>
@example("<p><b>1</p><table><tr><td>2</td></tr></table>3", None)
@example("<a>1<table><td><a>2</td></table><a>3", None)
@example("<b><b><b><b><b>x</b></b></b></b></b>" * 2, None)
def test_builder_soup_parses_identically(html, opts):
    assert_same(html, opts)
