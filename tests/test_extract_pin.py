"""Pins ``extract_spans`` output with one digest.

The corpus is the HTML literals of ``test_extract.py`` and
``test_realworld_html.py`` (frozen in ``data/extract_fixtures.json``,
so editing those modules does not move the pin) plus 500 seeded pages
that reach every branch of the span walk: kinded and plain blocks,
inline flow, stripped and ad subtrees, links, media, comments, CDATA,
whitespace runs, entities and mis-nesting.  Each document is extracted
under four profiles.  A change to the walk that alters any span of any
document moves the digest.
"""

import hashlib
import json
import os
import random

from gumbo_pp_ray.html import ExtractProfile, extract_spans, parse

PROFILES = (ExtractProfile(), ExtractProfile(normalize_ws=False),
            ExtractProfile(emit_links=False),
            ExtractProfile(prune_links=True))

KINDED = ("h1", "h2", "h3", "h4", "h5", "h6", "li", "dt", "dd", "td",
          "th", "pre", "caption", "figcaption", "blockquote", "p",
          "summary")
BLOCKS = ("div", "section", "article", "main", "table", "tr", "ul", "ol",
          "dl", "figure", "details", "center", "menu", "picture")
INLINE = ("b", "i", "em", "strong", "span", "code", "small", "u", "a")
STRIPPED = ("script", "style", "noscript", "nav", "aside", "header",
            "footer", "form", "button", "select", "svg", "iframe")

#: digest of the corpus below, computed before the span walk was
#: rewritten to push nodes instead of ("n", node) tuples
PINNED = "299c30c5e518ab3bc3822c870d96b3c70a02919e0b8fa1bd897253a1f7f8df16"

WORDS = ("alpha", "beta", "gamma", "delta", "&amp;", "&lt;", "&#233;",
         "&eacute;", "caf\u00e9", "\u4e2d\u6587", "x<y", "a>b", "1&2")


def _text(rng):
    sep = rng.choice((" ", "  ", "\n", "\t ", " \r\n "))
    return sep.join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))


def _node(rng, depth):
    r = rng.random()
    if depth > 4 or r < 0.3:
        return _text(rng)
    if r < 0.36:
        return rng.choice((" ", "\n  ", "\t"))
    if r < 0.40:
        return f"<!-- {_text(rng)} -->"
    if r < 0.42:
        return f"<![CDATA[{_text(rng)}]]>"
    if r < 0.48:
        tag = rng.choice(("img", "video", "source", "embed", "track"))
        attr = rng.choice(("src", "data-src", "alt"))
        return f"<{tag} {attr}='m://{rng.randint(0, 99)}.bin'>"
    if r < 0.54:
        return (f"<a href='/p/{rng.randint(0, 99)}'>"
                f"{_kids(rng, depth + 1)}</a>")
    if r < 0.58:
        tag = rng.choice(STRIPPED)
        return f"<{tag}>{_kids(rng, depth + 1)}</{tag}>"
    if r < 0.61:
        cls = rng.choice(("ad-slot", "sidebar", "x_ads", "share bar"))
        key = rng.choice(("class", "id"))
        return f"<div {key}='{cls}'>{_kids(rng, depth + 1)}</div>"
    if r < 0.64:
        return rng.choice(("<br>", "<hr>", "<wbr>"))
    tag = rng.choice(KINDED + BLOCKS + INLINE)
    close = "" if rng.random() < 0.08 else f"</{tag}>"
    return f"<{tag}>{_kids(rng, depth + 1)}{close}"


def _kids(rng, depth):
    return "".join(_node(rng, depth) for _ in range(rng.randint(0, 5)))


def generated_pages(n=500, seed=20261017):
    rng = random.Random(seed)
    pages = []
    for _ in range(n):
        body = "".join(_node(rng, 0) for _ in range(rng.randint(4, 24)))
        if rng.random() < 0.5:
            body = ("<!DOCTYPE html><html><head><title>t</title></head>"
                    f"<body>{body}</body></html>")
        pages.append(body)
    return pages


def corpus():
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "data", "extract_fixtures.json")) as f:
        fixtures = json.load(f)
    return fixtures + generated_pages()


def spans_digest(docs):
    h = hashlib.sha256()
    for html in docs:
        doc = parse(html)
        for profile in PROFILES:
            h.update(json.dumps(extract_spans(doc, profile),
                                ensure_ascii=False).encode("utf-8",
                                                           "surrogatepass"))
            h.update(b"\n")
    return h.hexdigest()


def test_extract_spans_output_pinned():
    docs = corpus()
    assert len(docs) == 611
    assert spans_digest(docs) == PINNED
