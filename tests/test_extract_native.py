"""The native span walk (``_scan.extract``) against the Python walk of
``extract_spans``: every document must give the same spans with the
extension active and with ``extract._scan`` set to None, under every
profile; a malformed tree must raise, never crash the process."""

import json
import os
from unittest import mock

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from gumbo_pp_ray.html import ExtractProfile, extract, extract_spans, parse
from gumbo_pp_ray.html.dom import Element, TextNode, TEXT
from gumbo_pp_ray.stages import extractor

from test_scan import builder_soup, tag_soup

FIXTURES = os.path.join(os.path.dirname(__file__), "data",
                        "extract_fixtures.json")

PROFILES = (
    ExtractProfile(),
    ExtractProfile(normalize_ws=False),
    ExtractProfile(emit_links=False),
    ExtractProfile(prune_links=True),
    ExtractProfile(strip_tags={"p", "nav", "svg"},
                   ad_tokens={"main", "x", "Caf\xe9", "AD", "a_b"}),
)


#: tests of what only the native walk does (its errors)
native_only = pytest.mark.skipif(extract._scan is None,
                                 reason="the native walk is not loaded")


def python_spans(doc, profile):
    with mock.patch.object(extract, "_scan", None):
        return extract_spans(doc, profile)


def assert_same(html: str, profiles=PROFILES):
    doc = parse(html)
    for profile in profiles:
        assert extract_spans(doc, profile) == python_spans(doc, profile), \
            (html, profile.strip_tags, profile.normalize_ws)


def both(html: str, profile=PROFILES[0]) -> list:
    """The spans of ``html``, after checking both walks agree."""
    doc = parse(html)
    spans = extract_spans(doc, profile)
    assert spans == python_spans(doc, profile), html
    return spans


def test_native_walk_is_active():
    # a silent fallback would leave every test below comparing the
    # Python walk with itself
    assert extract._scan is not None
    with mock.patch.object(extract, "_walk", side_effect=AssertionError):
        for profile in PROFILES:
            extract_spans(parse("<p>a<a href=x>b</a></p>"), profile)


def test_python_walk_runs_for_other_profiles_and_roots():
    class NoStrip(ExtractProfile):
        __slots__ = ()

        def is_stripped(self, el):
            return False

    doc = parse("<nav>menu</nav><p>body</p>")
    assert extract_spans(doc, NoStrip()) == [("text", "menu", "", 0),
                                             ("text", "body", "", 1)]
    leaf = TextNode(TEXT, "x", 0, 1)
    with mock.patch.object(extract, "_walk", wraps=extract._walk) as walk:
        assert extract_spans(leaf) == []
    assert walk.call_count == 1


def test_fixtures_extract_identically():
    with open(FIXTURES) as f:
        docs = json.load(f)
    for html in docs:
        assert_same(html)


@pytest.mark.parametrize("html, want", [
    # Unicode whitespace collapses as str.split() has it
    ("<p>a\xa0b　c\x85d\x1ce \x1f</p>", [("text", "a b c d e", "", 0)]),
    ("<p>\xa0</p><p>x</p>", [("text", "x", "", 0)]),
    ("<a href=u>　l\xa0\xa0i\x85</a>", [("link", "l i", "u", 0)]),
    ("<pre>\n\n\xa0x  y\x85\n</pre>", [("code", "\xa0x  y", "", 0)]),
    ("<pre>  \n \t</pre><pre>\xa0</pre>", []),
    # the ad-token rule: '_' is '-', case folds as str.lower() has it
    ("<div class='x_ad'>a</div><p>b</p>", [("text", "b", "", 0)]),
    ("<div class='AD'>a</div><p>b</p>", [("text", "b", "", 0)]),
    ("<div class='İ-ad'>a</div><p>b</p>", [("text", "b", "", 0)]),
    ("<div id='Ads-top'>a</div><div class='x\x1cpromo'>b</div><p>c</p>",
     [("text", "c", "", 0)]),
    ("<div class='adx readme \xe9-ad'>a</div>", []),
    ("<div class='adx readme'>a</div>", [("text", "a", "", 0)]),
    ("<div class=''>a</div>", [("text", "a", "", 0)]),
    # links and media
    ("<p>see <a>here</a> now</p>", [("text", "see here now", "", 0)]),
    ("<a href=''>x<!--c--> y</a>", [("link", "x y", "", 0)]),
    ("<a href=u></a>", [("link", "", "u", 0)]),
    ("<img src='' data-src=d><img><video src=v data-src=d>",
     [("media", "", "d", 0), ("media", "", "", 1), ("media", "", "v", 2)]),
    # a plain block flushes with the kind of the block around it
    ("<li>a<b>b</b><div>c</div>d</li>e",
     [("list_item", "ab", "", 0), ("list_item", "c", "", 1),
      ("list_item", "d", "", 2), ("text", "e", "", 3)]),
    ("<td></td><p> </p><br>x", [("text", "x", "", 0)]),
])
def test_hand_cases(html, want):
    assert both(html) == want
    assert_same(html)


def test_link_text_includes_cdata_and_stripped_subtrees():
    # today's behaviour on both walks: a link's text is content_text of
    # the anchor, which keeps CDATA and the text of stripped subtrees
    # that the span walk itself drops
    assert both("<a href=/u>c<![CDATA[y]]>d</a>") == [
        ("link", "cyd", "/u", 0)]
    assert both("<p>a<![CDATA[x]]>b</p>") == [("text", "ab", "", 0)]
    assert both("<a href=u><math><![CDATA[m]]></math>t</a>") == [
        ("link", "mt", "u", 0)]
    assert both("<a href=u><svg><title>Icon</title></svg>Home</a>") == [
        ("link", "IconHome", "u", 0)]


def test_normalize_off_keeps_raw_text():
    raw = ExtractProfile(normalize_ws=False)
    assert both("<p> a\n<b>b</b> </p><pre>\n x \n</pre><pre> \n</pre>",
                raw) == [("text", " a\nb ", "", 0),
                         ("code", " x \n", "", 1)]
    assert both("<a href=u> l\ni </a>", raw) == [("link", " l\ni ", "u", 0)]


def test_deep_nesting():
    depth = 100_000
    html = "<div>" * depth + "x" + "<p>y</p>" + "</div>" * depth
    assert both(html) == [("text", "x", "", 0), ("text", "y", "", 1)]
    html = "<a href=u>" + "<span>" * depth + "t" + "</span>" * depth + "</a>"
    assert both(html) == [("link", "t", "u", 0)]


@pytest.mark.parametrize("html, text", [
    # already collapsed: one piece, several pieces
    ("<p>one two</p>", "one two"),
    ("<p>one <b>two</b> three</p>", "one two three"),
    # one space too many, a leading or trailing space, another space
    ("<p>one  two</p>", "one two"),
    ("<p><b>one </b> two</p>", "one two"),
    ("<p> one</p>", "one"),
    ("<p>one </p>", "one"),
    ("<p>one\ttwo</p>", "one two"),
])
def test_collapse_of_collapsed_and_uncollapsed_text(html, text):
    assert both(html) == [("text", text, "", 0)]


_EXTRACT_PART = st.sampled_from((
    "<p>", "</p>", "<li>", "<pre>", "</pre>", "<h2>", "<td>", "<div>",
    "</div>", "<span>", "</span>", "<b>", "<br>", "<table>", "<tr>",
    "<nav>", "</nav>", "<script>s</script>", "<svg><title>t</title></svg>",
    "<div class='ad'>", "<div class='x_ad y'>", "<p class='AD'>",
    "<p id='İ-ad'>", "<span class='Ads-x'>", "<p class='main'>",
    "<a href=u>", "<a href=''>", "<a>", "</a>", "<img src=i>",
    "<img src='' data-src=d>", "<video>", "<embed data-src=e>",
    "<!-- c -->", "<![CDATA[cd]]>", "x", "y z", " ", "\n", "\t\n ",
    "\xa0", "　", "\x85", "\x1c", "caf\xe9", "中", "&amp;",
    "\U0001F600",
))


@st.composite
def extract_soup(draw):
    return "".join(draw(st.lists(_EXTRACT_PART, max_size=24)))


@settings(max_examples=1500, deadline=None)
@given(extract_soup())
def test_extract_soup_extracts_identically(html):
    assert_same(html)


@settings(max_examples=500, deadline=None)
@given(tag_soup())
def test_tag_soup_extracts_identically(html):
    assert_same(html)


@settings(max_examples=500, deadline=None)
@given(builder_soup())
def test_builder_soup_extracts_identically(html):
    assert_same(html)


# -- error contract: a malformed tree raises, the row is quarantined --

def malformed_children():
    doc = parse("<div><p>a</p></div>")
    div = doc.children[0].children[1].children[0]
    div._children = "not a list"
    return doc


def malformed_class():
    doc = parse("<div class=x><p>a</p></div>")
    doc.children[0].children[1].children[0].attrs["class"] = 5
    return doc


@native_only
@pytest.mark.parametrize("build", [malformed_children, malformed_class])
def test_malformed_tree_raises(build):
    with pytest.raises((TypeError, AttributeError)):
        extract_spans(build())
    with pytest.raises(Exception):      # the Python walk raises too
        python_spans(build(), PROFILES[0])


@native_only
def test_malformed_node_raises():
    doc = parse("<p>a</p>")
    doc.children[0].children[1].children[0]._children.append("text")
    with pytest.raises(TypeError):
        extract_spans(doc)
    el = Element("p", {}, 0, 3)
    el._children.append(TextNode.__new__(TextNode))   # no slot set
    with pytest.raises(TypeError):
        extract_spans(el)


@pytest.mark.parametrize("build", [malformed_children, malformed_class])
def test_extractor_quarantines_a_malformed_tree(build):
    real = extractor.parse

    def fake_parse(html):
        return build() if html == "BAD" else real(html)

    batch = pa.table({
        "doc_id": ["a", "b", "c"],
        "spans": [[{"kind": "text", "text": t, "media_ref": None,
                    "offset": 0}] for t in ("<p>one</p>", "BAD",
                                            "<p>three</p>")],
    })
    with mock.patch.object(extractor, "parse", fake_parse):
        out = extractor.ExtractSpans()(batch).to_pydict()
    assert out["status"] == ["ok", "error", "ok"]
    assert [[s["text"] for s in spans] for spans in out["spans"]] == [
        ["one"], [], ["three"]]
