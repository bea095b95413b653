"""Selector pushdown (stages/selector_query.py): the bound each selector
shape derives, the row rule, and — by property — that the filtered
stages return exactly what an unfiltered parse of every row returns."""

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbo_pp_ray.html import content_text, find_all, match, parse, walk
from gumbo_pp_ray.stages.selector_query import (
    MultiSelectorQuery, SelectorQuery, pushdown_mask, selector_bound,
    selector_doc_html,
)

C = match.content_text


def any_(*needles):
    return ("any", needles)


@pytest.mark.parametrize("sel, bound", [
    (C.contains("window"), any_("window")),
    (C.contains("a", "b"), any_("a", "b")),
    (C.contains(["a", "b"]), any_("a", "b")),
    (C.starts_with("a"), any_("a")),
    (C.ends_with("n"), any_("n")),
    (C.is_("fr"), any_("fr")),
    (C.contains(""), None),
    (C.contains("a", ""), None),
    (C.is_(""), None),
    (match.tag.P & C.contains("window"), any_("window")),
    (C.contains("a") & C.ends_with("b"),
     ("and", (any_("a"), any_("b")))),
    (C.contains("a") | C.is_("b"), ("or", (any_("a"), any_("b")))),
    (C.contains("a") ^ C.is_("b"), ("or", (any_("a"), any_("b")))),
    (match.tag.P & (C.contains("a") | C.contains("b")),
     ("or", (any_("a"), any_("b")))),
    (C.contains("a") | match.tag.P, None),
    (C.contains("a") ^ match.tag.P, None),
    (~C.contains("a"), None),
    (match.tag.P & ~C.contains("a"), None),
    (C.where(lambda t: "a" in t), None),
    (C.map(str.upper, lambda t: "A" in t), None),
    (C.is_empty(), None),
    (match.inner_text.contains("", "a"), None),
    (match.outer_text.is_("", "a"), None),
    (match.tag.P, None),
    (match.class_type.is_("en"), None),
    (match.attribute.value.contains("data-source", "c1"), None),
    (match.Where(lambda n: True), None),
    (match.All(), None),
    (match.AnyOf(), None),
])
def test_bound_per_selector_shape(sel, bound):
    assert selector_bound(sel) == bound


def test_multi_selector_bound_is_the_or():
    both = MultiSelectorQuery({"a": C.contains("x"),
                               "b": match.tag.SPAN & C.is_("y")})
    assert both.bound == ("or", (any_("x"), any_("y")))
    one_unbounded = MultiSelectorQuery({"a": C.contains("x"),
                                        "b": match.tag.P})
    assert one_unbounded.bound is None


def test_row_rule():
    rows = [
        # (doc_id, text, lang, source, kept)
        (1, "a window here", "en", "s", True),      # plain needle
        (2, "nothing", "en", "s", False),
        (3, "a w&#105;ndow", "en", "s", True),      # entity: '&'
        (4, "win<b>dow", "en", "s", True),          # markup: '<'
        (5, "win\x00dow", "en", "s", True),
        (6, "win\rdow", "en", "s", True),
        (7, "nothing", "en", 'a"b', True),          # quote in source
        (8, None, "en", "s", True),                 # null column
        (9, "nothing", None, "s", True),
        (10, "nothing", "en", None, True),
        (None, "nothing", "en", "s", True),
        (12, "the win", "dow", "s", True),          # spans text→lang
        (13, "wind", "en", "s", False),
        (14, "window", "en", "s<", True),
    ]
    batch = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
        "source": pa.array([r[3] for r in rows], pa.string())})
    mask = pushdown_mask(batch, any_("window"))
    assert mask.to_pylist() == [r[4] for r in rows]
    # the template's title text "t" leads the content text
    assert pushdown_mask(batch, any_("tno")).to_pylist()[1]
    # a quote in a string doc_id keeps the row
    ids = pa.table({"doc_id": ['x"y', "xy"], "text": ["a", "a"],
                    "lang": ["en", "en"], "source": ["s", "s"]})
    assert pushdown_mask(ids, any_("window")).to_pylist() == [True, False]


def test_parse_only_rows_that_pass(monkeypatch):
    from gumbo_pp_ray.stages import selector_query as sq
    parsed = []

    def counting_parse(html):
        parsed.append(html)
        return parse(html)

    monkeypatch.setattr(sq, "parse", counting_parse)
    batch = pa.table({"doc_id": [1, 2, 3], "text": ["x", "window", "y"],
                      "lang": ["en", "en", "en"],
                      "source": ["s", "s", "s"]})
    out = SelectorQuery(match.tag.P & C.contains("window"))(batch)
    assert out.to_pylist() == [{"doc_id": "2", "match_text": "window"}]
    assert len(parsed) == 1


# ------------------------------------------------- soundness property

def one_row(doc_id, text, lang="en", source="s"):
    return pa.table({"doc_id": [doc_id], "text": pa.array([text], pa.string()),
                     "lang": pa.array([lang], pa.string()),
                     "source": pa.array([source], pa.string())})


# each row is a true match that a weaker row rule or bound would drop
TRAPS = [
    (C.contains("window"), one_row(1, "a w&#105;ndow")),       # entity
    (match.tag.P & C.contains("window"), one_row(1, "win<b>dow</b>")),
    (C.contains("window"), one_row(1, "win<!---->dow")),       # comment
    (C.contains("window"), one_row('w"', "x", source=">window")),  # quote
    (C.contains("None"), one_row(1, None)),                    # null
    (C.starts_with("tw"), one_row(1, "w")),                    # title
    (match.tag.BODY & C.contains("window"),
     one_row(1, "the win", lang="dow")),                       # text→lang
    (C.contains("zzz") | match.tag.P, one_row(1, "x")),        # OR
    (C.contains("zzz") ^ match.tag.P, one_row(1, "x")),        # XOR
]


@pytest.mark.parametrize("sel, batch", TRAPS)
def test_trap_rows_match_as_unfiltered(sel, batch):
    expected = reference(sel, batch)
    assert expected
    assert SelectorQuery(sel)(batch).to_pylist() == expected
    assert (MultiSelectorQuery({"m": sel})(batch).to_pylist()
            == reference_multi({"m": sel}, batch))


NEEDLES = ["window", "window", "dow", "n", "fr", "tw", "a b", "<", "x&y",
           "None"]
PLAIN = st.sampled_from([
    "window", "a window pane", "win", "dow", "w", "t", "n", "fr", "en",
    "a b", "a  b", "a\tb", "a\nb", " ", "\x0c", "é", "it's", "a>b", "=",
    "/", "x", "None",
])
TRAP = st.sampled_from([
    "w&#105;ndow", "w&#x69;ndow", "win&shy;dow", "&lt;", "x&amp;y", "&",
    "&amp", "win<b>dow</b>", "win<!---->dow", "win<!-- c -->dow",
    "win</p>dow", "<p>", "</span>", "<div class=x>", "win\x00dow",
    "win\r\ndow", "win\rdow", '"', 'say "hi"', '">window', "<",
])
TEXT = st.lists(st.one_of(PLAIN, PLAIN, PLAIN, TRAP),
                max_size=4).map("".join)
# short attribute-like values, mostly clean so that a row's one trap
# is often the only thing keeping it
SHORT = st.one_of(st.sampled_from(["en", "fr", "dow", "n", "w", "", "s"]),
                  st.sampled_from(["en", "src1", "x"]), TEXT)


def maybe(strategy):
    """Mostly values, sometimes null."""
    return st.one_of(*[strategy] * 7, st.none())


@st.composite
def batches(draw):
    n = draw(st.integers(1, 6))
    string_ids = draw(st.booleans())
    ids = [draw(maybe(SHORT if string_ids else st.integers(-5, 10**6)))
           for _ in range(n)]
    cols = {
        "doc_id": pa.array(ids, pa.string() if string_ids else pa.int64()),
        "text": pa.array([draw(maybe(TEXT)) for _ in range(n)],
                         pa.string()),
        "lang": pa.array([draw(maybe(SHORT)) for _ in range(n)],
                         pa.string()),
        "source": pa.array([draw(maybe(SHORT)) for _ in range(n)],
                           pa.string()),
    }
    if draw(st.booleans()):
        cols["n_chars"] = pa.array(
            [draw(st.one_of(st.none(), st.integers(0, 600)))
             for _ in range(n)], pa.int64())
    return pa.table(cols)


NEEDLE_ARGS = st.lists(st.sampled_from(NEEDLES + [""]), min_size=1,
                       max_size=2)
NEEDLE_LEAVES = st.one_of(
    NEEDLE_ARGS.map(lambda a: C.contains(*a)),
    NEEDLE_ARGS.map(lambda a: C.starts_with(*a)),
    NEEDLE_ARGS.map(lambda a: C.ends_with(*a)),
    NEEDLE_ARGS.map(lambda a: C.is_(*a)),
)
LEAVES = st.one_of(
    NEEDLE_LEAVES, NEEDLE_LEAVES,
    st.sampled_from([match.tag.P, match.tag.SPAN, match.tag.DIV,
                     match.tag.BODY, match.class_type.is_("en"),
                     C.is_empty()]),
)
SELECTORS = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(
            lambda p: match.All(*p)),
        st.lists(kids, min_size=1, max_size=3).map(
            lambda p: match.AnyOf(*p)),
        st.lists(kids, min_size=1, max_size=3).map(
            lambda p: match.OneOf(*p)),
        kids.map(match.Not)),
    max_leaves=6)


def rows_of(batch):
    n_chars = (batch.column("n_chars").to_pylist()
               if "n_chars" in batch.schema.names
               else [None] * batch.num_rows)
    return zip(batch.column("doc_id").to_pylist(),
               batch.column("text").to_pylist(),
               batch.column("lang").to_pylist(),
               batch.column("source").to_pylist(), n_chars)


def match_text(node):
    return content_text(node, normalize_ws=True, include_comments=False)


def reference(sel, batch):
    """Unfiltered: parse every row, apply the selector to every node."""
    out = []
    for i, t, lg, src, nc in rows_of(batch):
        doc = parse(selector_doc_html(i, t, lg, src, nc))
        out.extend({"doc_id": str(i), "match_text": match_text(node)}
                   for node in find_all(walk(doc), sel))
    return out


def reference_multi(sels, batch):
    out = []
    for i, t, lg, src, nc in rows_of(batch):
        nodes = list(walk(parse(selector_doc_html(i, t, lg, src, nc))))
        out.extend({"doc_id": str(i), "matcher": name,
                    "match_text": match_text(node)}
                   for name, sel in sels.items()
                   for node in nodes if sel(node))
    return out


@settings(max_examples=500, deadline=None)
@given(SELECTORS, batches())
def test_selector_query_equals_unfiltered_reference(sel, batch):
    assert SelectorQuery(sel)(batch).to_pylist() == reference(sel, batch)


@settings(max_examples=200, deadline=None)
@given(st.lists(SELECTORS, min_size=1, max_size=3), batches())
def test_multi_selector_query_equals_unfiltered_reference(sels, batch):
    named = {f"m{k}": s for k, s in enumerate(sels)}
    assert (MultiSelectorQuery(named)(batch).to_pylist()
            == reference_multi(named, batch))
