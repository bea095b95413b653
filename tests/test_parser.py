"""Tokenizer + tree builder unit tests (gumbo_pp parse semantics;
reference src/gumbo_pp.cpp:24-34 delegates to the gumbo C library —
this suite pins our from-scratch replacement)."""

from gumbo_pp_ray.html import (
    CDATA, COMMENT, DOCUMENT, ELEMENT, TEXT, WHITESPACE,
    parse, walk,
)


def tags(doc):
    return [n.tag for n in walk(doc) if n.kind == ELEMENT]


def test_implied_structure_full_doc():
    d = parse("<html><head><title>T</title></head><body><p>x</p></body></html>")
    assert tags(d) == ["html", "head", "title", "body", "p"]
    html = d.children[0]
    assert not html.implied


def test_implied_structure_fragment():
    # gumbo synthesizes html/head/body around fragments
    # (reference tests/src/test.cpp:79-90 relies on this)
    d = parse('<p id="example">hi</p>')
    assert tags(d) == ["html", "head", "body", "p"]
    html = d.children[0]
    assert html.implied and html.children[0].tag == "head"


def test_bare_text_goes_to_body():
    d = parse("just text")
    assert tags(d) == ["html", "head", "body"]
    body = [n for n in walk(d) if n.tag == "body"][0]
    assert body.children[0].kind == TEXT
    assert body.children[0].text == "just text"


def test_leading_whitespace_dropped_before_html():
    d = parse("\n\t<html><body>x</body></html>")
    assert d.children[0].tag == "html"


def test_whitespace_is_html_whitespace_only():
    # TAB, LF, FF, CR and SPACE only (str.isspace is wider): U+3000
    # before any tag is text and opens the body, NBSP inside a <p> is
    # a Text node, and VT after <html> is text too
    d = parse("\u3000<p>x</p>")
    body = [n for n in walk(d) if n.tag == "body"][0]
    assert [(c.kind, getattr(c, "text", c.tag)) for c in body.children] \
        == [(TEXT, "\u3000"), (ELEMENT, "p")]
    p = parse("<p>\xa0</p>").children[0].children[1].children[0]
    assert p.tag == "p"
    assert [(c.kind, c.text) for c in p.children] == [(TEXT, "\xa0")]
    d = parse("<html>\x0b<p>x</p>")
    body = [n for n in walk(d) if n.tag == "body"][0]
    assert (body.children[0].kind, body.children[0].text) == (TEXT, "\x0b")
    assert body.children[1].tag == "p"


def test_void_elements_do_not_nest():
    d = parse("<p>a<br>b<img src='x'>c</p>")
    p = [n for n in walk(d) if n.tag == "p"][0]
    kinds = [(c.kind, getattr(c, "tag", None) or c.text) for c in p.children]
    assert kinds == [(TEXT, "a"), (ELEMENT, "br"), (TEXT, "b"),
                     (ELEMENT, "img"), (TEXT, "c")]


def test_self_closing_slash():
    # spec: the trailing solidus on a KNOWN non-void HTML element is a
    # parse error and IGNORED — <span/> stays open and contains the
    # following text
    d = parse("<div><span/>after</div>")
    div = [n for n in walk(d) if n.tag == "div"][0]
    assert [c.tag for c in div.children if c.kind == ELEMENT] == ["span"]
    span = div.children[0]
    assert [c.text for c in span.children] == ["after"]
    assert d.parse_errors >= 1
    # void elements and foreign/unknown tags still honor it
    d = parse("<p>a<br/>b</p>")
    p = [n for n in walk(d) if n.tag == "p"][0]
    assert [c.tag for c in p.children if c.kind == ELEMENT] == ["br"]
    d = parse("<svg/><p>k</p>")
    svg = [n for n in walk(d) if n.tag == "svg"][0]
    assert svg.children == []


def test_attributes_quoted_unquoted_valueless():
    d = parse("<div a='1' b=\"2\" c=3 d e = 4>x</div>")
    div = [n for n in walk(d) if n.tag == "div"][0]
    assert div.attrs == {"a": "1", "b": "2", "c": "3", "d": "", "e": "4"}


def test_attribute_first_occurrence_wins():
    d = parse("<div a='1' a='2'>x</div>")
    div = [n for n in walk(d) if n.tag == "div"][0]
    assert div.attrs == {"a": "1"}


def test_attribute_entity_decoding():
    d = parse('<a href="?a=1&amp;b=2">x</a>')
    a = [n for n in walk(d) if n.tag == "a"][0]
    assert a.attr("href") == "?a=1&b=2"


def test_tag_and_attr_names_lowercased():
    d = parse("<DIV CLASS='x'>y</DIV>")
    div = [n for n in walk(d) if n.kind == ELEMENT and n.tag == "div"][0]
    assert div.attr("class") == "x"


def test_text_entities_decoded():
    d = parse("<p>x&amp;y &#65; &lt;tag&gt;</p>")
    p = [n for n in walk(d) if n.tag == "p"][0]
    assert p.children[0].text == "x&y A <tag>"


def test_comment_and_kinds():
    d = parse("<body><!-- note --><p> </p>txt</body>")
    kinds = [n.kind for n in walk(d)]
    assert COMMENT in kinds and WHITESPACE in kinds and TEXT in kinds
    comment = [n for n in walk(d) if n.kind == COMMENT][0]
    assert comment.text == " note "


def test_cdata_node():
    d = parse("<body><![CDATA[raw <stuff>]]></body>")
    c = [n for n in walk(d) if n.kind == CDATA][0]
    assert c.text == "raw <stuff>"


def test_doctype():
    d = parse("<!DOCTYPE html><html><body>x</body></html>")
    assert d.doctype == "html"
    assert d.children[0].tag == "html"


def test_rawtext_script_style():
    d = parse("<script>var a = '<div>no</div>';</script>")
    s = [n for n in walk(d) if n.tag == "script"][0]
    assert len(s.children) == 1
    assert s.children[0].text == "var a = '<div>no</div>';"
    assert "div" not in tags(d)[3:]


def test_rcdata_title_decodes_entities():
    d = parse("<title>a &amp; b</title>")
    t = [n for n in walk(d) if n.tag == "title"][0]
    assert t.children[0].text == "a & b"


def test_implied_end_p():
    d = parse("<p>a<p>b<div>c</div>")
    ps = [n for n in walk(d) if n.tag == "p"]
    assert len(ps) == 2
    assert [c.text for p in ps for c in p.children] == ["a", "b"]


def test_implied_end_li():
    d = parse("<ul><li>one<li>two</ul>")
    lis = [n for n in walk(d) if n.tag == "li"]
    assert [c.text for li in lis for c in li.children] == ["one", "two"]


def test_implied_end_table_cells():
    d = parse("<table><tr><td>a<td>b<tr><td>c</table>")
    trs = [n for n in walk(d) if n.tag == "tr"]
    assert len(trs) == 2
    tds = [n for n in walk(d) if n.tag == "td"]
    assert [c.text for td in tds for c in td.children] == ["a", "b", "c"]


def test_misnesting_recovery_counts_errors():
    d = parse("<b><i>x</b></i>")
    assert d.parse_errors >= 1
    b = [n for n in walk(d) if n.tag == "b"][0]
    i = [n for n in walk(d) if n.tag == "i"][0]
    assert i.parent is b


def test_unmatched_end_tag_ignored():
    d = parse("<div>x</span></div>")
    assert d.parse_errors == 1
    assert tags(d) == ["html", "head", "body", "div"]


def test_well_formed_doc_has_zero_errors():
    d = parse("<html><head><title>t</title></head>"
              "<body><p>x</p></body></html>")
    assert d.parse_errors == 0


def test_unterminated_comment():
    d = parse("<body>x<!-- never closed")
    assert d.parse_errors >= 1
    c = [n for n in walk(d) if n.kind == COMMENT][0]
    assert c.text == " never closed"


def test_unterminated_tag_is_text():
    d = parse("<body>a <b")  # EOF in tag
    assert d.parse_errors >= 1


def test_bare_lt_is_text():
    d = parse("<p>1 < 2 and 3 > 2</p>")
    p = [n for n in walk(d) if n.tag == "p"][0]
    assert "".join(c.text for c in p.children) == "1 < 2 and 3 > 2"


def test_empty_doc():
    d = parse("")
    assert d.kind == DOCUMENT
    # implied structure still synthesized at EOF
    assert tags(d) == ["html", "head", "body"]


def test_offsets_reconstruct_source():
    html = "<html><head></head><body><div class='x'>abc</div></body></html>"
    d = parse(html)
    div = [n for n in walk(d) if n.tag == "div"][0]
    assert html[div.start:div.end] == "<div class='x'>abc</div>"
    assert html[div.start_tag_end:div.end_tag_start] == "abc"
    txt = div.children[0]
    assert html[txt.start:txt.end] == "abc"


def test_offsets_true_for_text_nodes():
    # divergence from the reference's node_end_offset-returns-strlen
    # quirk (reference gumbo_util.h:121-146): we keep true offsets
    html = "<p>hello</p><p>world</p>"
    d = parse(html)
    texts = [n for n in walk(d) if n.kind == TEXT]
    assert [(t.start, t.end) for t in texts] == [(3, 8), (15, 20)]


def test_after_body_whitespace_lands_in_body():
    html = "<html><body><p>x</p></body>\n"
    d = parse(html)
    body = [n for n in walk(d) if n.tag == "body"][0]
    assert body.children[-1].kind == WHITESPACE
    # body end-tag offsets recorded at the real </body>
    assert html[body.end_tag_start:body.end] == "</body>"


def test_head_elements_in_head_content_in_body():
    d = parse("<meta charset='utf-8'><title>t</title><p>x</p>")
    head = [n for n in walk(d) if n.tag == "head"][0]
    body = [n for n in walk(d) if n.tag == "body"][0]
    assert [c.tag for c in head.children] == ["meta", "title"]
    assert [c.tag for c in body.children] == ["p"]


def test_garbage_bytes_never_raise():
    for blob in ("\x00\x01\x02", "<<<>>>", "<" * 1000, "a" * 10 + "<!",
                 "</" + "x" * 50, "<!['cdata'"):
        d = parse(blob)
        assert d.kind == DOCUMENT


def test_foster_parenting_table_text():
    # HTML5 in-table text: non-whitespace text inside table scaffolding
    # is re-parented BEFORE the table (gumbo's tree construction does
    # the same); whitespace stays inside the table
    html = "<body>pre<table>oops<tr><td>x</td></tr></table>post</body>"
    d = parse(html)
    body = [n for n in walk(d) if n.tag == "body"][0]
    kinds = [(c.tag or c.text) for c in body.children]
    assert kinds == ["pre", "oops", "table", "post"]
    assert [c.index_within_parent for c in body.children] == [0, 1, 2, 3]
    from gumbo_pp_ray.html import content_text
    assert content_text(d) == "preoopsxpost"
    assert d.parse_errors >= 1

    d2 = parse("<table> <tr><td>a</td></tr> </table>")
    assert content_text(d2) == " a "        # whitespace not fostered


def test_adoption_agency_misnested_formatting():
    # <p><b>1<i>2</b>3</i>4</p> → b{1, i{2}}, i{3}, "4" — the HTML5
    # adoption-agency result (browsers/gumbo agree); "3" stays italic,
    # not bold
    d = parse("<p><b>1<i>2</b>3</i>4</p>")
    p = [n for n in walk(d) if n.tag == "p"][0]
    kids = [(c.tag if c.kind == ELEMENT else c.text) for c in p.children]
    assert kids == ["b", "i", "4"]
    i_els = [n for n in walk(d) if n.tag == "i"]
    assert len(i_els) == 2
    from gumbo_pp_ray.html import content_text
    assert [content_text(i) for i in i_els] == ["2", "3"]
    assert content_text(d) == "1234"


def test_formatting_reconstructed_across_blocks():
    # spec: <p><b>x</p><p>y</p> renders y bold (active formatting
    # elements reconstructed in the next block)
    from gumbo_pp_ray.html import content_text
    d = parse("<p><b>x</p><p>y</p>")
    bs = [n for n in walk(d) if n.tag == "b"]
    assert [content_text(b) for b in bs] == ["x", "y"]
    assert bs[1].implied


def test_formatting_does_not_leak_into_tables():
    d = parse("<b>x<table><tr><td>cell</td></tr></table></b>")
    td = [n for n in walk(d) if n.tag == "td"][0]
    assert [c.tag for c in td.children if c.kind == ELEMENT] == []


def test_stray_formatting_end_tag_ignored():
    d = parse("<p>a</b>b</p>")
    assert d.parse_errors >= 1
    from gumbo_pp_ray.html import content_text
    assert content_text(d) == "ab"


# ------------------------------ ParseOptions (gumbo_pp.cpp:24-34 parity)


def test_parse_options_error_records_and_cap():
    from gumbo_pp_ray.html.parser import ParseOptions, parse

    bad = "<div><b>x</div></b><p>y</span>"
    d = parse(bad)
    assert d.parse_errors >= 2
    assert len(d.errors) == d.parse_errors
    assert all(isinstance(o, int) and isinstance(c, str)
               for o, c in d.errors)
    capped = parse(bad, ParseOptions(max_errors=1))
    assert capped.parse_errors == d.parse_errors    # count never capped
    assert len(capped.errors) == 1


def test_parse_options_stop_on_first_error():
    from gumbo_pp_ray.html.parser import ParseOptions, parse

    html = "<p>a</p></span><p>b</p><p>c</p>"
    full = parse(html)
    stopped = parse(html, ParseOptions(stop_on_first_error=True))
    # full parse sees all three paragraphs; stopped parse abandons
    # input after the stray </span>
    def n_p(doc):
        from gumbo_pp_ray.html.walk import find_all, walk
        from gumbo_pp_ray.html import match
        return len(list(find_all(walk(doc), match.tag.P)))
    assert n_p(full) == 3
    assert n_p(stopped) == 1
    assert stopped.parse_errors == 1


def test_parse_options_fragment_context():
    from gumbo_pp_ray.html.parser import ParseOptions, parse
    from gumbo_pp_ray.html.text import content_text

    frag = parse("<li>one</li><li>two</li>",
                 ParseOptions(fragment_context="ul"))
    body = frag.children[0].children[1]
    ul = body.children[0]
    assert ul.tag == "ul" and [c.tag for c in ul.children] == ["li", "li"]
    # RAWTEXT context: whole input is text, tags are NOT parsed
    sc = parse("var a = '<div>';", ParseOptions(fragment_context="script"))
    body = sc.children[0].children[1]
    assert body.children[0].tag == "script"
    assert content_text(body.children[0]) == "var a = '<div>';"


def test_attribute_context_entity_rules():
    """Spec's ATTRIBUTE-context character-reference rule: a legacy
    (no-semicolon) named entity followed by an alphanumeric or '=' is
    NOT decoded — real-world URLs like ?lang=en&notify=1 must survive
    verbatim (the text-context decoder would corrupt them)."""
    from gumbo_pp_ray.html import parse, walk

    def href(h):
        d = parse(h)
        return [n.attr("href") for n in walk(d)
                if getattr(n, "tag", "") == "a"][0]

    assert href('<a href="?lang=en&notify=1">x</a>') == "?lang=en&notify=1"
    assert href('<a href="&ltx">x</a>') == "&ltx"
    assert href('<a href="&amp=1">x</a>') == "&amp=1"
    # with a semicolon (or a non-alnum follower) decoding still happens
    assert href('<a href="?x=&not;y">x</a>') == "?x=¬y"
    assert href('<a href="?a=1&amp;b=2">x</a>') == "?a=1&b=2"
    assert href('<a href="&lt">x</a>') == "<"
    assert href('<a href="a&#65;b">x</a>') == "aAb"
    assert href('<a href="&bogus;z">x</a>') == "&bogus;z"
    # TEXT context keeps the lenient legacy behavior
    from gumbo_pp_ray.html import content_text
    assert content_text(parse("<p>a&ltb</p>")) == "a<b"


def test_pre_textarea_leading_newline_dropped():
    """Spec: a single newline immediately after <pre>, <listing> or
    <textarea> start tags is dropped; only the first one."""
    from gumbo_pp_ray.html import content_text, parse, walk

    def text_of(h, tag):
        for n in walk(parse(h)):
            if getattr(n, "tag", "") == tag:
                return content_text(n)

    assert text_of("<pre>\nkeep</pre>", "pre") == "keep"
    assert text_of("<pre>\r\nkeep</pre>", "pre") == "keep"
    assert text_of("<pre>\n\nkeep</pre>", "pre") == "\nkeep"
    assert text_of("<pre>keep</pre>", "pre") == "keep"
    assert text_of("<textarea>\nkeep</textarea>", "textarea") == "keep"
    assert text_of("<listing>\nx</listing>", "listing") == "x"


def test_image_tag_aliases_to_img():
    """Spec: an <image> start tag is a parse error treated as <img> —
    legacy markup keeps its media span."""
    from gumbo_pp_ray.html import parse
    from gumbo_pp_ray.html.extract import DEFAULT_PROFILE, extract_spans

    d = parse("<p>x<image src='img://legacy.png'></p>")
    spans = list(extract_spans(d, DEFAULT_PROFILE))
    assert ("media", "", "img://legacy.png") in [
        (s[0], s[1], s[2]) for s in spans]
    assert d.parse_errors >= 1


def test_duplicate_html_body_attrs_merge():
    """Spec: duplicate <html>/<body> start tags add their attributes
    NOT already present to the existing element (never overriding)."""
    from gumbo_pp_ray.html import parse

    d = parse("<body class='a'><p>t</p></body><body id='b' class='c'>")
    body = d.children[0].children[1]
    assert body.attrs == {"class": "a", "id": "b"}
    d = parse("<html lang=en><html dir=rtl><body>x</body>")
    assert d.children[0].attrs == {"lang": "en", "dir": "rtl"}


def test_comment_abrupt_and_bang_closers():
    """Spec comment edge cases that previously swallowed the page:
    <!--> / <!---> are abruptly-closed EMPTY comments; --!> closes a
    comment (incorrectly-closed-comment error)."""
    from gumbo_pp_ray.html import COMMENT, parse, walk
    from gumbo_pp_ray.html.extract import DEFAULT_PROFILE, extract_spans

    def spans(h):
        return [s[1] for s in extract_spans(parse(h), DEFAULT_PROFILE)]

    assert spans("<!---><p>x</p>") == ["x"]
    assert spans("<!--><p>x</p>") == ["x"]
    assert spans("<!-- c --!><p>x</p>") == ["x"]
    d = parse("<!-- c --!>k")
    assert [n.text for n in walk(d) if n.kind == COMMENT] == [" c "]
    assert d.parse_errors >= 1


def test_processing_instruction_is_bogus_comment():
    """<?php …?> / <?xml …?> become bogus comments (spec), never text —
    leaked server-side source must not reach extracted spans."""
    from gumbo_pp_ray.html import COMMENT, parse, walk
    from gumbo_pp_ray.html.extract import DEFAULT_PROFILE, extract_spans

    d = parse("<?php echo $secret; ?><p>visible</p>")
    assert [s[1] for s in extract_spans(d, DEFAULT_PROFILE)] == ["visible"]
    assert [n.text for n in walk(d) if n.kind == COMMENT] == \
        ["?php echo $secret; ?"]
    assert d.parse_errors >= 1
    d2 = parse("<?xml version='1.0'?><p>k</p>")
    assert [s[1] for s in extract_spans(d2, DEFAULT_PROFILE)] == ["k"]


def test_end_tag_with_attributes_or_solidus_processed():
    """Spec: </div class=x> and </div/> are parse errors but the end
    tag IS processed (junk dropped); </ div> stays a bogus comment."""
    from gumbo_pp_ray.html import parse

    def body_tags(h):
        d = parse(h)
        body = d.children[0].children[1]
        return [(getattr(c, "tag", ""),
                 [getattr(g, "tag", "") for g in c.children
                  if getattr(g, "tag", "")])
                for c in body.children if getattr(c, "tag", "")], \
            d.parse_errors

    assert body_tags("<div>a</div class=x><p>b</p>") == \
        ([("div", []), ("p", [])], 1)
    assert body_tags("<div>a</div/><p>b</p>") == \
        ([("div", []), ("p", [])], 1)
    # space before the name: bogus comment, div stays open (spec)
    assert body_tags("<div>a</ div><p>b</p>") == \
        ([("div", ["p"])], 1)


def test_lt_before_non_ascii_letter_is_text():
    """A tag name starts with an ASCII letter, so '<é' and '<中' are
    text like '<2', and the rest of the page still parses as markup."""
    from gumbo_pp_ray.html import extract_spans

    for ch in ("é", "中"):
        doc = parse(f"<p>a <{ch} b</p><p>next para</p><img src=x.png>")
        assert extract_spans(doc) == [
            ("text", f"a <{ch} b", "", 0),
            ("text", "next para", "", 1),
            ("media", "", "x.png", 2),
        ]
    assert [s[1] for s in extract_spans(parse("<p>1 <2 3</p><p>x</p>"))] \
        == ["1 <2 3", "x"]


def test_release_empties_every_child_list():
    from gumbo_pp_ray.html.dom import release

    doc = parse("<!DOCTYPE html><html><head><title>t</title></head><body>"
                "<div><p>a <b>b<i>c</i></b></p><ul><li>x<li>y</ul>"
                "<table><tr><td>1</td></tr></table><img src=i.png></div>"
                "<!-- c --></body></html>")
    parents = [n for n in walk(doc) if n.children]
    assert doc in parents and len(parents) > 10
    release(doc)
    assert all(n.children == [] for n in parents)
    assert doc.children == []


def test_self_closing_rawtext_start_tag_enters_rawtext():
    """The builder ignores the solidus on known non-void tags (title,
    script, style, textarea) and leaves the element open, so what
    follows is its raw text up to the real end tag, not markup."""
    from gumbo_pp_ray.html import extract_spans

    for tag in ("title", "script", "style", "textarea"):
        d = parse(f"<{tag}/>T</{tag}><p>z</p>")
        assert extract_spans(d) == [("text", "z", "", 0)], tag
        d = parse(f"<div><{tag}/>x</div>y</{tag}><p>after</p>")
        el = [n for n in walk(d) if n.tag == tag][0]
        assert [c.text for c in el.children] == ["x</div>y"], tag
        assert [n.tag for n in walk(d) if n.kind == ELEMENT][-1] == "p"
        assert ("text", "y", "", 0) not in extract_spans(d)
    # xmp is outside _SPECIAL: its solidus is honoured, nothing is raw
    d = parse("<xmp/>a<p>b</p>")
    xmp = [n for n in walk(d) if n.tag == "xmp"][0]
    assert xmp.children == []
    assert [s[1] for s in extract_spans(d)] == ["a", "b"]
