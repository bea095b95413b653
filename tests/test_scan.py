"""The native scanner (``html/_scan.c``) against the Python tokenizer:
every parse must give the same tree and the same errors with the
scanner active and with ``parser._scan`` set to None."""

import json
import logging
import os
import string
from unittest import mock

from hypothesis import given, settings, strategies as st

from gumbo_pp_ray.html import _native, parser, walk
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


def test_scanner_tokens():
    scan = parser._scan.scan
    d = parser._SCAN_DEFER
    assert scan("a<P x='>'/>b</p \t>", 0, d) == ([
        (0, "a", 0, 1), (1, "p", " x='>'", 1, 11, True), (0, "b", 11, 12),
        (2, "p", 12, 18)], 18)
    # stops before the first token it leaves to the Python loop
    for rest in ("<!-- c -->", "<script>", "<image>", "</p/>", "< p>",
                 "<?pi>", "<a b='>", "<" + "x" * 256 + ">"):
        assert scan("\U0001F600é<b>" + rest, 0, d) == (
            [(0, "\U0001F600é", 0, 2), (1, "b", "", 2, 5, False)], 5), rest
    assert scan("</p\xa0>", 0, d) == ([(2, "p", 0, 5)], 5)
    assert scan("<a>", 3, d) == ([], 3)


def test_fixtures_parse_identically():
    with open(FIXTURES) as f:
        docs = json.load(f)
    for html in docs:
        for opts in OPTIONS:
            assert_same(html, opts)


_NAMES = ("div", "p", "b", "a", "i", "li", "ul", "table", "tr", "td",
          "span", "html", "head", "body", "br", "img", "svg", "DIV", "Td",
          "x:y", "my-widget", "h1", "title", "script", "style", "textarea",
          "xmp", "image", "n" * 300)
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
