"""The native tree builder (``html/_scan.c``) against the Python
tokenizer and builder: every parse must give the same tree and the
same errors with the extension active and with ``parser._scan`` set to
None."""

import json
import logging
import os
import string
from html import unescape
from html.entities import html5
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gumbo_pp_ray.html import COMMENT, ELEMENT, TEXT, _native, parser, walk
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


#: tests that call the native builder directly; the two pins of the
#: native path (test_scanner_is_built and
#: test_well_formed_body_never_reaches_the_python_builder) are not
#: marked: they must fail without the extension
native_only = pytest.mark.skipif(parser._scan is None,
                                 reason="the native builder is not loaded")


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


@native_only
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
    for rest in ("<!-->", "<!--->", "<!--a--!>b-->", "<!-- c", "<![CDATA[x]]>",
                 "<!x>", "<!doctype html>", "<script/>", "<image>", "</p/>",
                 "< p>", "<?pi>", "<a b='>", "<" + "x" * 256 + ">"):
        tb = in_body("")
        assert build("\U0001F600é<b>" + rest, 0, d, tb) == (None, 5), rest
        assert shape(tb.body) == [(TEXT, "\U0001F600é", 0, 2, []),
                                  (ELEMENT, "b", 2, 5, [])], rest
    # plain comments and raw text are built natively
    tb = in_body("")
    assert build("<!-- c --><script>a</b></script>", 0, d, tb) == (None, 32)
    assert shape(tb.body) == [(COMMENT, " c ", 0, 10, []),
                              (ELEMENT, "script", 10, 32,
                               [(TEXT, "a</b>", 18, 23, [])])]
    # an end tag that closes nothing open is handed back
    assert build("</p\xa0>", 0, d, in_body("")) == ((2, "p", 0, 5), 5)
    assert build("<a>", 3, d, in_body("")) == (None, 3)
    # the scaffold is built natively; an implied <head> is a Python rule
    tb = parser._TreeBuilder(20)
    assert build("<html>\n<body>", 0, d, tb) == ((1, "body", {}, 7, 13,
                                                   False), 13)
    assert [e.tag for e in tb.stack[1:]] == ["html"]
    assert tb.mode == parser._BEFORE_HEAD


@native_only
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
    ("<b><div>", "</b>", (2, "b", 8, 12)),              # adoption agency
    ("<div>", "</p>", (2, "p", 5, 9)),                  # no open p
])
def test_build_hands_back_tokens_with_rules(before, token, want):
    tb = in_body(before)
    n = len(before)
    assert parser._scan.build(before + token, n, parser._SCAN_DEFER, tb) \
        == (want, n + len(token))
    # nothing of the token was inserted
    assert shape(tb.doc) == shape(in_body(before).doc)


@native_only
@pytest.mark.parametrize("before, token", [
    ("<div>", "</span>"),               # unmatched: an error, nothing closes
    ("<div><p>", "</div>"),             # misnested: p closes at </div>
    ("", "</body>"),                    # body records it and stays open
    ("<div><b>x<i>y", "</div>"),        # formatting popped: afe dirty
    ("<table><tr><td><b>", "</table>"),  # table/cell markers cleared
    ("<p><span>", "</p>"),
])
def test_build_closes_end_tags_below_the_top(before, token):
    """In body, a non-formatting end tag below the stack top is closed
    natively, exactly as _TreeBuilder.end_tag's stack walk closes it."""
    native = in_body(before)
    n = len(before)
    assert parser._scan.build(before + token, n, parser._SCAN_DEFER, native) \
        == (None, n + len(token))
    python = in_body(before)
    python.end_tag(token[2:-1], n, n + len(token))
    assert shape(native.doc) == shape(python.doc)
    assert (native.errors, native.parse_errors, native.afe_dirty) \
        == (python.errors, python.parse_errors, python.afe_dirty)
    assert [e.tag for e in native.stack[1:]] \
        == [e.tag for e in python.stack[1:]]
    assert len(native.afe) == len(python.afe)


@native_only
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
    trees; this pins that a well-formed page (doctype, comments, the
    html/head/body scaffold, raw text and RCDATA, attributes and text
    with character references) is built without one call of the Python
    builder's token methods or of its attribute and entity decoders."""
    html = ("<!DOCTYPE html>\n<!-- top -->\n<html lang=en>\n<head>\n"
            "<meta charset=utf-8>\n<title>T &amp; &#x41;</title>\n"
            "<style>p > b { color: red }</style>\n"
            "<script>if (a < b && c) { x = '</div>'; }</script>\n"
            "<link rel=stylesheet href='s.css?a=1&amp;b=2&notify=1'>\n"
            "</head>\n<body class='home &amp; x'>\n<!-- a comment -->\n"
            "<div id=main><h1>Head</h1><p>One <b>two</b> <a href=x?y=1&not=2>"
            "th&amp;ree &#x41; &not here</a>.</p>\n<ul><li>a</li><li>b</li>"
            "</ul><table><tr><td>1</td><td>2</td></tr></table><img src=i.png"
            " alt='&#169; 2024'><br><textarea>\nx &lt;</textarea></div>\n"
            "</body>\n</html>\n")
    calls = []

    def spy(owner, name):
        method = getattr(owner, name)

        def record(*args):
            calls.append((name, args[1] if owner is parser._TreeBuilder
                          else args[0]))
            return method(*args)
        return mock.patch.object(owner, name, record)

    with spy(parser._TreeBuilder, "start_tag"), \
            spy(parser._TreeBuilder, "end_tag"), \
            spy(parser._TreeBuilder, "text"), \
            spy(parser._TreeBuilder, "comment"), \
            spy(parser, "_parse_attrs"), spy(parser, "_decode"), \
            spy(parser, "_decode_attr"):
        doc = parse(html)
    assert calls == []
    assert doc.parse_errors == 0 and doc.doctype == "html"
    first = {}
    for n in walk(doc):
        first.setdefault(getattr(n, "tag", n.kind), n)
    assert first["title"].children[0].text == "T & A"
    assert first["link"].attrs["href"] == "s.css?a=1&b=2&notify=1"
    assert first["body"].attrs == {"class": "home & x"}
    assert first["textarea"].children[0].text == "x <"
    assert_same(html)


@native_only
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


# character references in text and in attribute values: numeric at the
# edges of html.unescape's tables, legacy names before alphanumerics and
# '=', names at the end of input, unknown names; duplicate and unquoted
# attributes
_REF = st.one_of(
    st.sampled_from((
        "&amp;", "&amp", "&AMP", "&notit;", "&notin;", "&not=", "&not",
        "&noti", "&ampx;", "&gt1", "&lt;&gt;", "&bogus;", "&#;", "&#x;",
        "&#xZ", "&&amp;", "&;", "& amp;", "&a", "&ab", "&nGt;", "&#",
        "&" + "a" * 40 + ";", "&CounterClockwiseContourIntegral;",
        "&CounterClockwiseContourIntegralx;", "&é;", "&amp\u0130")),
    st.builds("&#{}{}".format,
              st.one_of(st.integers(0, 0xA0), st.integers(0xD7FF, 0xE000),
                        st.integers(0xFDCF, 0xFDF0), st.integers(0xFFFD, 0x10000),
                        st.integers(0x10FFFE, 0x110001),
                        st.just(10 ** 30)),
              st.sampled_from(("", ";"))),
    st.builds("&#x{:X}{}".format,
              st.one_of(st.integers(0x7E, 0xA0), st.integers(0xD800, 0xDFFF),
                        st.integers(0x10FFFF, 0x110000),
                        st.just(16 ** 20)),
              st.sampled_from(("", ";"))),
)
_REF_TEXT = st.lists(st.one_of(_REF, st.sampled_from(
    ("x", "1", "=", ";", " ", "é", "\u0130", "\n"))), max_size=6).map("".join)


@st.composite
def reference_soup(draw):
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            parts.append(draw(_REF_TEXT))
        else:
            attrs = []
            for _ in range(draw(st.integers(0, 3))):
                name = draw(st.sampled_from(("href", "HREF", "alt", "x",
                                             "data-é", "\u0130d")))
                quote = draw(st.sampled_from(('"', "'", "")))
                value = draw(_REF_TEXT)
                if not quote:
                    value = "".join(c for c in value if c not in " \n>")
                attrs.append(f" {name}={quote}{value}{quote}"
                             if draw(st.booleans()) else f" {name}")
            tag = draw(st.sampled_from(("p", "a", "title", "textarea")))
            parts.append(f"<{tag}{''.join(attrs)}>")
    html = "".join(parts)
    return html if draw(st.booleans()) else "<body>" + html


@settings(max_examples=1500, deadline=None)
@given(reference_soup())
@example("<p title=&notit;>&notit;")
@example("<a href='?a=1&amp'>&amp")
@example("<p>&#128;&#x9F;&#0;&#xD800;&#1114112;&#65535;&#13;</p>")
def test_character_references_decode_identically(html):
    assert_same(html)


def test_every_numeric_reference_decodes_as_html_unescape():
    cps = list(range(0, 0x110000, 7)) + list(range(0x80, 0xA0)) + [
        0xD800, 0xDFFF, 0xFDD0, 0xFFFE, 0x10FFFF, 0x110000, 10 ** 12]
    text = "".join(f"&#{cp};&#x{cp:x}" for cp in cps)
    doc = parse("<body><p>" + text + f"<p title='{text}'>")
    p1, p2 = doc.children[0].children[1].children
    assert p1.children[0].text == unescape(text)
    assert p2.attrs["title"] == parser._decode_attr(text)


def test_every_named_reference_decodes_identically():
    names = sorted(html5)
    for after in ("", ";", "x", "=", "1", " ", "é"):
        text = "".join(f"&{name}{after}|" for name in names)
        assert_same(f"<p>{text}</p><p title=\"{text}\">")


@pytest.mark.parametrize("html", [
    "<script>a</script >b", "<script>a</SCRIPT\tb", "<script>a</SCRIPT",
    "<script>a</scriptx>b</script>", "<style>a", "<style>", "<title/>x",
    "<title>a&amp;b</title/>", "<textarea>\r\nx</textarea>",
    "<textarea>\r</textarea>", "<textarea>\n\n</textarea>",
    "<textarea></textarea>", "<xmp><b></xmp>", "<noembed>a</noembed",
    "<noframes>&amp;</noframes>", "<script>a</\u017fcript>b",
    "<title>a</t\u0130tle>b", "<title>a</t\u0131tle>b", "<script/>x",
    "<body><script>\n</script>", "<head><style> </style><title>&lt;</title>",
    "<head><textarea>x</textarea>", "<html><head><noembed>x",
    "<table><script>x</script><tr><td><style>y</style>",
])
def test_raw_text_parses_identically(html):
    for opts in OPTIONS:
        assert_same(html, opts)


@pytest.mark.parametrize("html", [
    "<!-- plain -->x", "<!-->x", "<!--->x", "<!--a--!>x-->", "<!--a-->b--!>",
    "<!-- eof", "<!---->x", "<!--a--b-->", "<html><!--c--><head><!--d-->"
    "</head><!--e--><body><!--f--></body><!--g--></html><!--h-->",
])
def test_comments_parse_identically(html):
    for opts in OPTIONS:
        assert_same(html, opts)
        assert_same("<!DOCTYPE html>" + html, opts)


@settings(max_examples=800, deadline=None)
@given(st.lists(st.sampled_from((
    "<b>", "<i>", "<a href=1>", "<em>", "<div>", "<span>", "<p>", "<ul>",
    "<li>", "<table>", "<td>", "x", "</div>", "</span>", "</ul>", "</li>",
    "</p>", "</td>", "</table>", "</b>", "</i>", "</body>", "</html>",
    "</head>", "</nope>")), max_size=16).map("".join))
def test_misnested_end_tags_parse_identically(html):
    assert_same(html)
    assert_same("<!DOCTYPE html><html><head></head><body>" + html)
