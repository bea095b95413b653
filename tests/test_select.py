"""Selector algebra unit tests — every leaf matcher M1-M21 and
combinator C1-C5 (reference gumbo_matchers.h), including the
reference-semantics corner cases SURVEY.md §2.4 calls out."""

import pickle

from gumbo_pp_ray.html import parse, walk, match
from gumbo_pp_ray.html.walk import find_first, find_all

DOC = ("<html><head><title>t</title></head><body>"
       "<div class='hello' id='main' data-x='abc-def'>Hey</div>"
       "<div class='hello world'>multi</div>"
       "<p lang='en-US'>english</p>"
       "<p lang='enx'>notdash</p>"
       "<span data-empty=''>e</span>"
       "<b>plain</b>"
       "</body></html>")


def d():
    return parse(DOC)


def first(sel, doc=None):
    return find_first(walk(doc or d()), sel)


def count(sel, doc=None):
    return sum(1 for _ in find_all(walk(doc or d()), sel))


# ----- combinators C1-C5 -----

def test_and_combinator():
    assert first(match.tag.DIV & match.id.is_("main")) is not None
    assert first(match.tag.P & match.id.is_("main")) is None


def test_or_combinator():
    assert count(match.tag.B | match.tag.SPAN) == 2


def test_xor_combinator():
    # odd-parity match (match_one, reference gumbo_matchers.h:101-134)
    sel = match.tag.DIV ^ match.class_type.is_("hello")
    # div.hello: both true -> False; div.'hello world': only tag -> True
    assert count(sel) == 1


def test_not_combinator():
    sel = match.tag.DIV & ~match.class_type.is_("hello")
    n = first(sel)
    assert n.attr("class") == "hello world"


def test_explicit_combinator_classes():
    assert match.All(match.tag.DIV, match.id.is_("main"))(first(match.id.is_("main")))
    assert match.AnyOf(match.tag.TABLE, match.tag.DIV)(first(match.tag.DIV))
    assert not match.OneOf(match.tag.DIV, match.tag.DIV)(first(match.tag.DIV))
    assert match.Not(match.tag.TABLE)(first(match.tag.DIV))


# ----- attribute matchers M1-M10 -----

def test_attr_where():
    sel = match.attribute.where(lambda k, v: k == "data-x" and "def" in v)
    assert first(sel).attr("id") == "main"


def test_attr_has_and_has_none():
    assert first(match.attribute.has()).tag == "div"
    n = first(match.tag.B & match.attribute.has_none())
    assert n is not None


def test_attr_exists_and_name_is():
    assert first(match.attribute.exists("data-x")).attr("id") == "main"
    assert first(match.attribute.exists("nope", "data-empty")).tag == "span"
    assert first(match.attribute.name.is_("data-empty")).tag == "span"
    # container overload
    assert first(match.attribute.exists(["nope", "data-x"])) is not None


def test_attr_dash_match():
    # CSS [a|=v]: value == v or startswith v + '-'
    # (reference gumbo_matchers.h:244-259)
    sel = match.attribute.value.contains_prefix("lang", "en")
    hits = [n.attr("lang") for n in find_all(walk(d()), sel)]
    assert hits == ["en-US"]  # 'enx' must NOT match


def test_attr_value_contains():
    assert first(match.attribute.value.contains("data-x", "c-d")) is not None
    assert first(match.attribute.value.contains("data-x", "zz", "bc")) is not None
    assert first(match.attribute.value.contains("data-x", "zz")) is None


def test_attr_value_starts_ends_with():
    assert first(match.attribute.value.starts_with("data-x", "abc")) is not None
    assert first(match.attribute.value.starts_with("data-x", "def")) is None
    assert first(match.attribute.value.ends_with("data-x", "def")) is not None
    assert first(match.attribute.value.ends_with("data-x", "abc")) is None


def test_attr_value_is():
    assert first(match.attribute.value.is_("class", "hello")).attr("id") == "main"
    assert first(match.attribute.value.is_("class", "nope")) is None
    # variadic ORs over values
    assert first(match.attribute.value.is_("class", "nope", "hello")) is not None


def test_attr_value_empty_null_nonempty():
    assert first(match.attribute.value.is_empty("data-empty")).tag == "span"
    assert first(match.attribute.value.is_null("data-empty")).tag == "span"
    assert first(match.attribute.value.has_value("data-x")) is not None
    assert first(match.attribute.value.has_value("data-empty")) is None


# ----- class / id matchers M11-M13 -----

def test_class_exact_equality_semantics():
    # M12: whole-attribute exact equality, NOT token membership
    # (reference gumbo_matchers.h:466-476)
    assert count(match.class_type.is_("hello")) == 1
    n = first(match.class_type.is_("hello"))
    assert n.attr("id") == "main"
    assert first(match.class_type.is_("world")) is None
    assert first(match.class_type.is_("hello world")) is not None


def test_class_has_token_engine_addition():
    assert count(match.class_type.has_token("hello")) == 2
    assert count(match.class_type.has_token("world")) == 1


def test_class_where():
    assert first(match.class_type.where(lambda v: v.endswith("world"))) is not None


def test_id_matchers():
    assert first(match.id.is_("main")).tag == "div"
    assert first(match.id.is_("nope")) is None
    assert first(match.id.where(lambda v: v.startswith("ma"))) is not None


# ----- text matchers M14-M17 -----

def test_content_text_contains():
    assert first(match.tag.DIV & match.content_text.contains("Hey")) is not None
    assert first(match.tag.DIV & match.content_text.contains("zzz")) is None


def test_content_text_where_and_map():
    sel = match.tag.P & match.content_text.where(lambda t: t == "english")
    assert first(sel) is not None
    sel = match.tag.P & match.content_text.map(str.upper,
                                               lambda t: t == "ENGLISH")
    assert first(sel) is not None


def test_content_text_is_empty():
    doc = parse("<div id='e'></div><div id='f'>x</div>")
    assert first(match.tag.DIV & match.content_text.is_empty(), doc).attr("id") == "e"


def test_content_text_starts_ends_is_intended_semantics():
    # intended semantics for the reference's buggy M17 surface
    # (gumbo_matchers.h:610 / :625)
    assert first(match.tag.DIV & match.content_text.starts_with("He")) is not None
    assert first(match.tag.DIV & match.content_text.ends_with("ey")) is not None
    assert first(match.tag.DIV & match.content_text.ends_with("He")) is None
    assert first(match.tag.DIV & match.content_text.is_("Hey")) is not None
    assert first(match.tag.DIV & match.content_text.is_(["nope", "Hey"])) is not None


# ----- raw-slice matchers M18-M19 -----

def test_inner_outer_text_matchers():
    html = "<div id='q'><b>bold</b></div>"
    doc = parse(html)
    # unscoped raw-slice matchers also hit Document/implied-html nodes
    # (their slices span the children) — same as the reference, whose
    # inner_text of a Document node slices across all children
    # (gumbo_text.h:96-106); scope with a tag matcher.
    assert first(match.tag.DIV & match.inner_text.contains(html, "<b>"),
                 doc).attr("id") == "q"
    assert first(match.tag.DIV & match.outer_text.starts_with(html, "<div id='q'>"), doc) is not None
    assert first(match.tag.DIV & match.inner_text.is_(html, "<b>bold</b>"), doc) is not None
    assert first(match.tag.B & match.outer_text.ends_with(html, "</b>"), doc) is not None
    e = parse("<div id='e'></div>")
    assert first(match.tag.DIV & match.inner_text.is_empty("<div id='e'></div>"), e) is not None


# ----- tag matchers M20-M21 -----

def test_tag_constants_and_types():
    assert first(match.tag.DIV).tag == "div"
    assert first(match.tag.types("span", "b")) is not None
    assert first(match.tag.types(["table"])) is None
    # the constant table covers the reference's full tag list
    for t in ("HTML", "HEAD", "TITLE", "DIV", "A", "IMG", "VIDEO",
              "TABLE", "TR", "TD", "RTC", "RUBY", "BLINK", "MARQUEE"):
        assert hasattr(match.tag, t)


def test_tag_constants_math_svg_and_legacy_names():
    # the MathML / SVG / legacy names of the reference's list; a "-" in
    # the tag name becomes "_" in the constant
    names = {"MI": "mi", "MO": "mo", "MN": "mn", "MS": "ms",
             "MTEXT": "mtext", "MGLYPH": "mglyph",
             "MALIGNMARK": "malignmark",
             "ANNOTATION_XML": "annotation-xml",
             "FOREIGNOBJECT": "foreignobject", "DESC": "desc",
             "KEYGEN": "keygen"}
    for const, t in names.items():
        assert getattr(match.tag, const).tags == frozenset([t])
    doc = parse("<math><mi>x</mi><annotation-xml>y</annotation-xml>"
                "</math><p>z</p>")
    hits = find_all(walk(doc), match.tag.ANNOTATION_XML)
    assert [n.tag for n in hits] == ["annotation-xml"]
    assert first(match.tag.MI, doc).tag == "mi"


def test_tag_where():
    sel = match.tag.where(lambda t: t.startswith("sp"))
    assert first(sel).tag == "span"


def test_tag_matchers_element_only():
    doc = parse("<div>text</div>")
    text_nodes = [n for n in walk(doc) if n.kind == 2]
    assert not match.tag.DIV(text_nodes[0])
    assert not match.attribute.has()(text_nodes[0])


# ----- engine requirements -----

def test_selectors_are_picklable():
    sels = [
        match.tag.DIV & match.id.is_("main"),
        match.class_type.is_("a") | ~match.attribute.exists("x"),
        match.content_text.contains("y") ^ match.tag.P,
        match.attribute.value.starts_with("href", "http"),
    ]
    for s in sels:
        s2 = pickle.loads(pickle.dumps(s))
        n = first(match.tag.DIV)
        assert s(n) == s2(n)
