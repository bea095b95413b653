"""Main-content span extraction (engine-new; the north-star operation).

Walks a parsed document, strips boilerplate subtrees (the strip set is
expressed in the same selector algebra as the reference's matchers —
SURVEY.md §2.4 M21), and emits an ordered span sequence::

    (kind, text, media_ref, offset)

* ``kind`` ∈ {"text", "heading", "list_item", "table_cell", "code",
  "link", "media"}; ``offset`` is the 0-based position of the span in
  the document's output sequence (the span-sequence-equality order
  key).
* Block-level boundaries flush the text accumulator; inline elements
  (b/i/strong/em/span/…) flow into the enclosing block, matching the
  reference's DFS text accumulation (``node_content_text``, reference
  gumbo_text.h:23-58) — e.g. ``<p>This is an <strong>example</strong>
  paragraph</p>`` emits ONE span ``"This is an example paragraph"``
  (the reference's inner-text-normalization case,
  tests/src/test.cpp:87-95).
* ``img``/``video``/``audio``/``source``/``embed`` emit
  ``kind="media"`` spans with ``media_ref`` = their ``src`` (fallback
  ``data-src``), order preserved among text spans; anchors with
  ``href`` emit ``kind="link"`` spans carrying both the anchor text
  and the href as ``media_ref`` (the reference's anchor extraction,
  tests/src/test.cpp:71-76).
* Unlike the reference's ``node_content_text`` (which includes comment
  text — gumbo_text.h:23-58), extraction EXCLUDES comments/CDATA:
  they are never main content. Divergence is deliberate and tested;
  the faithful reference semantics remain available via
  ``text.content_text``.

The walk runs in C (``_scan.extract``, built with the parser's
extension) whenever the extension is loaded, the profile is a plain
``ExtractProfile`` and the root is a ``Document`` or an ``Element``.
The Python loop below is its specification, span for span, and the
fallback for everything else: no extension, a profile subclass (which
may override ``is_stripped``), any other root.
"""

from __future__ import annotations

from .dom import COMMENT, TEXT, WHITESPACE, Document, Element, Node, TextNode
from .parser import _scan
from .text import content_text
from . import select as match

# tags whose entire subtree is boilerplate
STRIP_TAGS = frozenset((
    "script", "style", "noscript", "template", "iframe", "head",
    "nav", "aside", "header", "footer", "form", "button", "select",
    "option", "textarea", "label", "datalist", "svg", "math",
    "object", "applet", "link", "meta", "base",
))

# class/id tokens that mark ad/boilerplate containers (heuristic part
# of the strip set; token-wise, deterministic)
AD_TOKENS = frozenset((
    "ad", "ads", "advert", "advertisement", "banner", "promo",
    "sponsored", "sponsor", "sidebar", "cookie", "popup", "paywall",
    "newsletter", "breadcrumb", "breadcrumbs", "share", "social",
    "related", "comments", "comment",
))
_AD_PREFIXES = ("ad-", "ads-")
_AD_SUFFIXES = ("-ad", "-ads")

MEDIA_TAGS = frozenset(("img", "video", "audio", "source", "embed", "track"))

_HEADINGS = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))
_KIND_BY_TAG = {t: "heading" for t in _HEADINGS}
_KIND_BY_TAG.update({"li": "list_item", "dt": "list_item", "dd": "list_item",
                     "td": "table_cell", "th": "table_cell",
                     "pre": "code", "caption": "text",
                     "figcaption": "text", "blockquote": "text",
                     "p": "text", "summary": "text"})

# block-level boundaries that flush the accumulator without forcing a
# specific span kind
_BLOCK_TAGS = frozenset((
    "div", "section", "article", "main", "body", "html", "table",
    "thead", "tbody", "tfoot", "tr", "ul", "ol", "dl", "figure",
    "details", "fieldset", "address", "hgroup", "hr", "br", "center",
    "dialog", "frameset", "frame", "marquee", "menu", "canvas",
    "picture", "map", "colgroup", "col",
)) | _HEADINGS  # (headings hit _KIND_BY_TAG first; listed for completeness)


def _has_ad_token(val: str, tokens: frozenset = AD_TOKENS) -> bool:
    for tok in val.replace("_", "-").lower().split():
        if (tok in tokens or tok.startswith(_AD_PREFIXES)
                or tok.endswith(_AD_SUFFIXES)):
            return True
    return False


def _default_strip_selector() -> "match.Selector":
    """The strip set, expressed in the reference's selector algebra
    (M21 tag constants + M1 attribute.where combinators, composed with
    C2 OR — SURVEY.md §2.4)."""
    return match.TagIs(*STRIP_TAGS) | match.AttrWhere(
        lambda k, v: k in ("class", "id") and _has_ad_token(v))


class ExtractProfile:
    """Compiled extraction configuration — built ONCE per run
    (reference analogue: the compiled selector sets + tag dispatch
    tables the north rule names; SURVEY.md §2.4 M21, §3.4).

    Picklable: ships to Ray workers in the extraction stage's
    ``fn_kwargs``.
    """

    __slots__ = ("strip_tags", "ad_tokens", "normalize_ws",
                 "emit_links", "kind_by_tag", "prune_links")

    def __init__(self, strip_tags=STRIP_TAGS, ad_tokens=AD_TOKENS,
                 normalize_ws=True, emit_links=True, prune_links=False):
        self.strip_tags = frozenset(strip_tags)
        self.ad_tokens = frozenset(ad_tokens)
        self.normalize_ws = normalize_ws
        self.emit_links = emit_links
        # optional link-density DOM heuristic (prune_link_runs) applied
        # to the emitted span sequence — engine addition, off by default
        self.prune_links = prune_links
        self.kind_by_tag = dict(_KIND_BY_TAG)

    def is_stripped(self, el: Node) -> bool:
        if el.tag in self.strip_tags:
            return True
        attrs = el.attrs
        if attrs:
            v = attrs.get("class")
            if v and _has_ad_token(v, self.ad_tokens):
                return True
            v = attrs.get("id")
            if v and _has_ad_token(v, self.ad_tokens):
                return True
        return False


DEFAULT_PROFILE = ExtractProfile()


# stack marker: a plain block ends here (a kinded block's end is marked
# by its kind string)
_BLOCK_END = object()


def extract_spans(doc: Node, profile: ExtractProfile = DEFAULT_PROFILE):
    """Extract the ordered main-content span sequence from a parsed
    document. Returns ``list[(kind, text, media_ref, offset)]``.

    Iterative DFS with an explicit stack (mega-doc safe); skipped
    subtrees are never entered (O(kept nodes)).
    """
    cls = doc.__class__
    if (_scan is not None and type(profile) is ExtractProfile
            and (cls is Document or cls is Element)):
        spans = _scan.extract(doc, profile.strip_tags, profile.ad_tokens,
                              profile.normalize_ws, profile.emit_links,
                              profile.kind_by_tag)
    else:
        spans = _walk(doc, profile)
    if profile.prune_links:
        return prune_link_runs(spans)
    return spans


def _walk(doc: Node, profile: ExtractProfile) -> list:
    """The span walk in Python: the specification of ``_scan.extract``
    and its fallback."""
    normalize = profile.normalize_ws
    kind_by_tag = profile.kind_by_tag
    is_stripped = profile.is_stripped
    emit_links = profile.emit_links

    spans: list[tuple[str, str, str, int]] = []
    buf: list[str] = []
    # stack entries: nodes to enter, a kind string closing a kinded
    # block, or _BLOCK_END closing a plain block
    stack: list = list(reversed(doc.children))
    pop = stack.pop
    push = stack.append
    extend = stack.extend

    def flush(kind: str):
        # callers test ``buf`` first: most block edges have nothing
        # to flush, and the test is cheaper than the call
        txt = "".join(buf)
        buf.clear()
        if normalize:
            if kind == "code":
                # <pre>/code blocks keep internal layout (browsers
                # preserve pre whitespace); only outer blank lines go
                txt = txt.strip("\n").rstrip()
            else:
                # equivalent to collapsing \s+ runs + strip, ~3x faster
                txt = " ".join(txt.split())
        if txt and not (kind == "code" and not txt.strip()):
            spans.append((kind, txt, "", len(spans)))

    # kind context: innermost block kind being accumulated
    kind_stack = ["text"]

    while stack:
        node = pop()
        cls = node.__class__
        if cls is TextNode:
            k = node.kind
            if k == TEXT:
                buf.append(node.text)
            elif k == WHITESPACE and buf:   # inter-block whitespace dropped
                buf.append(node.text if not normalize else " ")
            continue                        # comments/CDATA: never content
        if cls is not Element:
            if cls is str:                  # close a kinded block
                if buf:
                    flush(node)
                kind_stack.pop()
            elif buf:                       # _BLOCK_END
                flush(kind_stack[-1])
            continue
        if is_stripped(node):
            continue                        # subtree never entered
        tag = node.tag
        if tag in MEDIA_TAGS:
            if buf:
                flush(kind_stack[-1])
            attrs = node.attrs
            ref = attrs.get("src") or attrs.get("data-src") or ""
            spans.append(("media", "", ref, len(spans)))
            continue
        if emit_links and tag == "a" and "href" in node.attrs:
            if buf:
                flush(kind_stack[-1])
            txt = content_text(node, normalize_ws=normalize,
                               include_comments=False)
            spans.append(("link", txt, node.attrs["href"], len(spans)))
            continue                        # subtree consumed by content_text
        kinded = kind_by_tag.get(tag)
        if kinded is not None:
            if buf:
                flush(kind_stack[-1])
            kind_stack.append(kinded)
            push(kinded)
        elif tag in _BLOCK_TAGS:
            if buf:
                flush(kind_stack[-1])
            push(_BLOCK_END)
        # inline elements push no marker: children flow into the
        # current block
        extend(node._children[::-1])

    if buf:
        flush(kind_stack[-1])
    return spans


def scrape_table(doc: Node, scope: "match.Selector" = None,
                 *, normalize_ws: bool = True) -> list[list[str]]:
    """Structured table extraction — the reference's table-scrape
    query (Q5, reference tests/src/table_scrape.cpp:43-71): find the
    scope node (default: first <table>), then its tbody/table, then
    per-TR per-TD/TH content text → list of rows of cell strings.

    Mirrors the reference's nested find_iterator pattern: scoped
    ``subtree`` ranges for rows/cells, ``walk_from`` (continue-past-
    subtree) for the initial scope search.
    """
    from .walk import find_first, find_all, subtree, walk

    if scope is None:
        scope_node = find_first(walk(doc), match.TagIs("table"))
    else:
        scope_node = find_first(walk(doc), scope)
    if scope_node is None:
        return []
    tbl = (scope_node if scope_node.tag in ("table", "tbody")
           else find_first(subtree(scope_node),
                           match.TagIs("table", "tbody")))
    if tbl is None:
        return []
    rows = []
    for tr in find_all(subtree(tbl), match.TagIs("tr")):
        cells = [content_text(td, normalize_ws=normalize_ws,
                              include_comments=False)
                 for td in find_all(subtree(tr), match.TagIs("td", "th"))]
        if cells:
            rows.append(cells)
    return rows


def prune_link_runs(spans, *, min_links: int = 3, max_text_len: int = 30):
    """DOM-heuristic boilerplate pruning over an extracted span
    sequence (public Boilerpipe-family link-density idea: navigation
    regions are runs of links with little surrounding prose).

    Drops every maximal run of consecutive spans in which each span is
    either a ``link`` or a short text (< ``max_text_len`` chars), when
    the run contains at least ``min_links`` links. Long prose, isolated
    inline links and media are untouched. Offsets are renumbered.

    This is OPTIONAL post-processing (engine addition, not reference
    behavior) — apply via ``extract_spans(...)`` output or the
    ``prune_links`` pipeline flag.
    """
    def run_member(s):
        return s[0] == "link" or (s[0] == "text"
                                  and len(s[1]) < max_text_len)

    out = []
    i = 0
    n = len(spans)
    while i < n:
        if not run_member(spans[i]):
            out.append(spans[i])
            i += 1
            continue
        j = i
        links = 0
        while j < n and run_member(spans[j]):
            links += spans[j][0] == "link"
            j += 1
        if links >= min_links:
            i = j                       # drop the nav-like run
        else:
            out.extend(spans[i:j])
            i = j
    return [(k, t, m, x) for x, (k, t, m, _o) in enumerate(out)]


def extract_metadata(doc: Node) -> dict:
    """Page-metadata extraction (engine addition; the head content the
    span extractor deliberately strips): title, meta description /
    keywords, Open Graph properties, canonical link, html lang.

    Selector-algebra driven (M13/M9/M7 kernels): first match wins for
    title/canonical/lang; og: properties collect into a dict.
    """
    from .walk import walk

    meta = {"title": "", "description": "", "keywords": "",
            "canonical": "", "lang": "", "og": {}}
    for n in walk(doc):
        tag = n.tag
        if tag == "html" and not meta["lang"]:
            meta["lang"] = n.attr("lang", "")
        elif tag == "title" and not meta["title"]:
            meta["title"] = content_text(n, normalize_ws=True,
                                         include_comments=False)
        elif tag == "meta":
            name = (n.attr("name") or "").lower()
            prop = (n.attr("property") or "").lower()
            content = n.attr("content", "")
            if name == "description" and not meta["description"]:
                meta["description"] = content
            elif name == "keywords" and not meta["keywords"]:
                meta["keywords"] = content
            elif prop.startswith("og:"):
                meta["og"].setdefault(prop[3:], content)
        elif tag == "link":
            rel = (n.attr("rel") or "").lower()
            if rel == "canonical" and not meta["canonical"]:
                meta["canonical"] = n.attr("href", "")
        elif tag == "body":
            break                       # metadata lives in head
    return meta


if _scan is not None:
    _scan.configure_extract(media=MEDIA_TAGS, blocks=_BLOCK_TAGS,
                            comment_kind=COMMENT, has_ad_token=_has_ad_token)
