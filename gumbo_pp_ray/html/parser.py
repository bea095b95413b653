"""From-scratch HTML5-ish tokenizer + tree builder with source offsets.

The reference (beached/gumbo_pp) delegates parsing to the external
Google ``gumbo`` C library (reference src/gumbo_pp.cpp:27-34); this is
our replacement, written from public knowledge of the WHATWG HTML
parsing algorithm, scoped to the fidelity bar of the reference's
observable behavior (its test documents + our conformance corpus):

* implied ``html``/``head``/``body`` structure (all four insertion-
  mode-lite states), void elements, raw-text (``script``/``style``)
  and RCDATA (``title``/``textarea``) elements,
* implied end tags (``p``/``li``/``dd``/``dt``/``td``/``th``/``tr``/
  table sections/``option``), generic mis-nesting recovery (pop to the
  matching open element; unmatched end tags ignored and counted),
* comments / doctype / CDATA / whitespace-only text classified into
  the seven gumbo node kinds (reference gumbo_util.h:161-180),
* character entities decoded in text and attribute values (as gumbo's
  tokenizer does), raw source slices recoverable via true offsets.

Also implemented: foster parenting of non-whitespace in-table text
(re-parented before the table); the FULL WHATWG adoption agency
(active-formatting-elements list with table-boundary markers,
reconstruction, Noah's Ark clause, and the 8-iteration outer /
3-step inner loop — multi-block misnesting like
``<b>1<div>2<div>3</b>`` clones the formatting element into every
intervening block, the html5lib adoption01 family; see
_adoption_agency); ``</p>`` with no open ``p`` synthesizes an empty
``p`` (WHATWG in-body rule). Recoverable errors are counted.

Designed for the hot path of a Ray extraction task: one module-level
pass, no recursion, compiled regexes shared per process.

The in-body common case is built in C: ``_scan.c`` (built at first
import by ``_native.load_scan``) tokenizes text runs, the start tags
that ``_START_TAG_RE`` accepts and the end tags that ``_END_TAG_RE``
accepts, and inserts each straight into the live ``_TreeBuilder`` while
no recovery rule fires: in-body text, ordinary, void and formatting
start tags, the table/cell markers and end tags that close the stack
top.  It hands every other token back to the builder's Python methods
(every token before ``<body>``, one per call; foster-parented text,
``html``/``head``/``body``/``form``/``template``, a nested ``<a>``,
Noah's Ark, misnested end tags, ...), and stops before every ``<`` it
does not tokenize — comments, doctype, CDATA, ``<?``, a bare ``<``, end
tags with junk, unterminated tags, overlong names and the
``_SCAN_DEFER`` start tags (raw text, ``<image>``) — which ``parse``'s
loop body tokenizes in Python.  The Python builder holds every rule;
when the extension cannot be built, ``_scan`` is None and Python
tokenizes and builds everything: the same trees, slower.
"""

from __future__ import annotations

import re
from html import unescape

from . import dom
from ._native import load_scan
from .dom import (
    CDATA, COMMENT, ELEMENT, TEXT, WHITESPACE,
    Document, Element, Node, TextNode,
)

VOID_ELEMENTS = frozenset((
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
))

# <script>/<style>: content is raw text; <title>/<textarea>: RCDATA
# (entities decoded). Both produce a single text child.
RAWTEXT_ELEMENTS = frozenset(("script", "style", "xmp", "noembed", "noframes"))
RCDATA_ELEMENTS = frozenset(("title", "textarea"))

HEAD_ELEMENTS = frozenset((
    "title", "meta", "link", "style", "script", "base", "basefont",
    "bgsound", "noframes", "template",
))

_H = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))

# a newline right after these start tags is dropped
_NEWLINE_DROPPED = frozenset(("pre", "listing"))

# start tag T closes the open element at the stack top when
# top.tag in _CLOSED_BY and T in _CLOSED_BY[top.tag]
_P_CLOSERS = frozenset((
    "address", "article", "aside", "blockquote", "details", "dialog",
    "div", "dl", "fieldset", "figcaption", "figure", "footer", "form",
    "header", "hr", "main", "menu", "nav", "ol", "p", "pre", "section",
    "table", "ul", "li", "dd", "dt",
)) | _H
_CELL_CLOSERS = frozenset(("td", "th", "tr", "tbody", "thead", "tfoot",
                           "caption", "colgroup"))
_CLOSED_BY = {
    "p": _P_CLOSERS,
    "li": frozenset(("li",)),
    "dd": frozenset(("dd", "dt")),
    "dt": frozenset(("dd", "dt")),
    "td": _CELL_CLOSERS,
    "th": _CELL_CLOSERS,
    "tr": frozenset(("tr", "tbody", "thead", "tfoot", "caption")),
    "thead": frozenset(("tbody", "tfoot")),
    "tbody": frozenset(("tbody", "tfoot")),
    "tfoot": frozenset(("tbody",)),
    "option": frozenset(("option", "optgroup")),
    "optgroup": frozenset(("optgroup",)),
}
# every tag that can trigger an implied end — gate for the close loop
_ANY_CLOSER = frozenset().union(*_CLOSED_BY.values())

# insertion points whose non-whitespace text gets foster-parented
_TABLE_SCAFFOLD = frozenset(("table", "tbody", "thead", "tfoot", "tr"))

# formatting elements tracked by the active-formatting-elements list
# (full WHATWG adoption agency — see _adoption_agency)
_FORMATTING = frozenset(
    "a b big code em font i nobr s small strike strong tt u".split())
# "has an element in scope" barrier set (WHATWG 13.2.4.2, HTML subset)
_SCOPE_BARRIERS = frozenset(
    "applet caption html table td th marquee object template".split())
# boundaries formatting must not leak across (spec: marker entries)
_AFE_MARKERS = frozenset(("table", "td", "th", "caption"))
_AFE_MARKER = object()

# known non-void HTML elements outside _SPECIAL/_FORMATTING whose
# trailing solidus is also ignored (spec rule; foreign tags keep it)
_SLASH_IGNORED_EXTRA = frozenset((
    "span", "label", "abbr", "cite", "q", "sub", "sup", "mark", "time",
    "data", "kbd", "samp", "var", "bdi", "bdo", "ruby", "rt", "rp",
    "ins", "del", "dfn", "output", "picture", "audio", "video",
))

# the WHATWG "special" category (trimmed to tags this parser emits) —
# used as the furthest-block test in the adoption agency
_SPECIAL = frozenset((
    "address article aside blockquote body button caption center col "
    "colgroup dd details dir div dl dt embed fieldset figcaption "
    "figure footer form frame frameset h1 h2 h3 h4 h5 h6 head header "
    "hgroup hr html iframe img input li listing main marquee menu "
    "nav noembed noframes noscript object ol p plaintext pre script "
    "section select source style summary table tbody td template "
    "textarea tfoot th thead title tr ul wbr"
).split())

_START_TAG_RE = re.compile(
    r"<([a-zA-Z][a-zA-Z0-9:_-]*)"
    r"((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)"
    r"(/?)>",
    re.S,
)
_END_TAG_RE = re.compile(r"</([a-zA-Z][a-zA-Z0-9:_-]*)\s*>")
# fallback: end tags carrying attributes / a trailing solidus — the
# name is honored, the junk is dropped (spec end-tag-with-attributes)
_END_TAG_NAME_RE = re.compile(r"</([a-zA-Z][a-zA-Z0-9:_-]*)[\s/]")
# fallback for tags the quote-aware regex rejects (e.g. a stray quote
# inside an unquoted attribute value: <div class=foo"bar>) — consume to
# the first '>' like the HTML5 tokenizer's attribute-value-unquoted
# state would
_START_TAG_RELAXED_RE = re.compile(
    r"<([a-zA-Z][a-zA-Z0-9:_-]*)([^>]*?)(/?)>")
_ATTR_RE = re.compile(
    r"([^\s/>=]+)(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)

# parse-until-close patterns for raw-text/RCDATA content, per tag
_RAWTEXT_CLOSE = {
    t: re.compile(r"</" + t + r"(?=[\s/>])", re.I)
    for t in RAWTEXT_ELEMENTS | RCDATA_ELEMENTS
}

# the native builder (None when it cannot be built), the start tags it
# leaves to parse's loop (raw text, and <image>'s rename) and the
# in-body start tags it hands back to start_tag's rules
_scan = load_scan()
_SCAN_DEFER = frozenset(_RAWTEXT_CLOSE) | {"image"}
_BUILD_RULE_TAGS = frozenset(("html", "head", "body", "form", "template"))

# insertion-mode-lite states
_BEFORE_HTML = 0
_BEFORE_HEAD = 1
_IN_HEAD = 2
_AFTER_HEAD = 3
_IN_BODY = 4


class ParseOptions:
    """Parse-options pass-through (reference ``gumbo_range(html,
    options)`` accepts GumboOptions, src/gumbo_pp.cpp:24-34):

    * ``max_errors`` — cap on RECORDED error positions (``doc.errors``
      list of (offset, code) tuples); -1 = unlimited.  Like gumbo's
      max_errors it limits the record, never the recovery —
      ``doc.parse_errors`` always counts every error.
    * ``stop_on_first_error`` — abandon the parse at the first
      recoverable error; the tree contains everything built so far
      (gumbo's stop_on_first_error semantics).
    * ``fragment_context`` — parse as a fragment inside the named
      element (gumbo_parse_with_options' fragment mode): structure
      synthesis still provides the implied html/body scaffold, and
      RAWTEXT/RCDATA contexts ("script", "title", ...) treat the whole
      input as that element's text.
    """

    __slots__ = ("max_errors", "stop_on_first_error", "fragment_context")

    def __init__(self, max_errors: int = -1,
                 stop_on_first_error: bool = False,
                 fragment_context: str | None = None):
        self.max_errors = max_errors
        self.stop_on_first_error = stop_on_first_error
        self.fragment_context = fragment_context


DEFAULT_OPTIONS = ParseOptions()


def _decode(raw: str) -> str:
    return unescape(raw) if "&" in raw else raw


from html.entities import html5 as _HTML5_ENTITIES  # noqa: E402

_MAX_ENT_LEN = max(len(k) for k in _HTML5_ENTITIES)
_NUMERIC_ENT_RE = re.compile(r"&#(?:[0-9]+|[xX][0-9a-fA-F]+);?")


def _decode_attr(raw: str) -> str:
    """Attribute-value character references, per the spec's
    ATTRIBUTE context rule: a legacy (no-semicolon) named entity
    followed by an ASCII alphanumeric or '=' is NOT decoded —
    ``href="?lang=en&notify=1"`` must keep its literal ``&not``
    (``html.unescape`` implements only the TEXT context and would
    corrupt such URLs to ``…en¬ify=1``)."""
    if "&" not in raw:
        return raw
    out = []
    i, n = 0, len(raw)
    while True:
        j = raw.find("&", i)
        if j == -1:
            out.append(raw[i:])
            break
        out.append(raw[i:j])
        m = _NUMERIC_ENT_RE.match(raw, j)
        if m:                   # numeric refs decode in both contexts
            out.append(unescape(m.group(0)))
            i = m.end()
            continue
        seg = raw[j + 1:j + 1 + _MAX_ENT_LEN]
        best = None
        for ln in range(len(seg), 0, -1):    # longest match wins
            if seg[:ln] in _HTML5_ENTITIES:
                best = seg[:ln]
                break
        if best is None:
            out.append("&")
            i = j + 1
            continue
        end = j + 1 + len(best)
        if (not best.endswith(";") and end < n
                and (raw[end].isalnum() or raw[end] == "=")):
            out.append("&")     # attribute-context rule: keep literal
            i = j + 1
            continue
        out.append(_HTML5_ENTITIES[best])
        i = end
    return "".join(out)


def _is_ws(s: str) -> bool:
    """Empty, or only HTML whitespace: TAB, LF, FF, CR and SPACE."""
    return not s.strip(" \t\n\f\r")


def _parse_attrs(raw: str) -> dict:
    attrs = {}
    for m in _ATTR_RE.finditer(raw):
        name = m.group(1).lower()
        if name in attrs:           # HTML5: first occurrence wins
            continue
        val = m.group(2)
        if val is None:
            attrs[name] = ""
        else:
            if val[:1] in "\"'" and val[-1:] == val[:1] and len(val) >= 2:
                val = val[1:-1]
            attrs[name] = _decode_attr(val)
    return attrs


class _TreeBuilder:
    __slots__ = ("doc", "stack", "mode", "html", "head", "body",
                 "parse_errors", "n", "afe", "afe_dirty", "errors",
                 "max_errors")

    def __init__(self, source_len: int, max_errors: int = -1):
        self.doc = Document()
        self.doc.end = self.doc.source_len = source_len
        self.stack = [self.doc]
        self.mode = _BEFORE_HTML
        self.html = None
        self.head = None
        self.body = None
        self.parse_errors = 0
        self.n = source_len
        # active formatting elements: [tag, attrs, element] entries
        # plus _AFE_MARKER sentinels at table boundaries; afe_dirty is
        # set when a formatting element leaves the stack while still
        # listed — reconstruction only runs then (hot-path guard)
        self.afe: list = []
        self.afe_dirty = False
        # recorded (offset, code) tuples, capped at max_errors (the
        # COUNT in parse_errors is never capped — gumbo semantics)
        self.errors: list = []
        self.max_errors = max_errors

    def error(self, pos: int, code: str):
        self.parse_errors += 1
        if self.max_errors < 0 or len(self.errors) < self.max_errors:
            self.errors.append((pos, code))

    # -- active formatting elements (adoption-agency-lite) --

    def _afe_remove(self, el):
        for idx in range(len(self.afe) - 1, -1, -1):
            e = self.afe[idx]
            if e is not _AFE_MARKER and e[2] is el:
                del self.afe[idx]
                return

    def _afe_clear_to_marker(self):
        while self.afe:
            e = self.afe.pop()
            if e is _AFE_MARKER:
                return

    def _reconstruct_afe(self, pos: int):
        """Reopen formatting elements (after the last marker) whose
        element is no longer on the stack — HTML5 'reconstruct the
        active formatting elements' (simplified)."""
        self.afe_dirty = False
        if not self.afe:
            return
        start = 0
        for idx in range(len(self.afe) - 1, -1, -1):
            if self.afe[idx] is _AFE_MARKER:
                start = idx + 1
                break
        on_stack = {id(x) for x in self.stack}
        for idx in range(start, len(self.afe)):
            entry = self.afe[idx]
            if id(entry[2]) not in on_stack:
                el = Element(entry[0], dict(entry[1]), pos, pos,
                             implied=True)
                self._push(el)
                entry[2] = el
                on_stack.add(id(el))

    def _afe_index_of(self, el):
        for idx in range(len(self.afe) - 1, -1, -1):
            e = self.afe[idx]
            if e is not _AFE_MARKER and e[2] is el:
                return idx
        return None

    def _detach(self, node: Node):
        p = node.parent
        if p is None:
            return
        kids = p._children
        i = node.index_within_parent
        del kids[i]
        for j in range(i, len(kids)):
            kids[j].index_within_parent = j
        node.parent = None

    def _append_child(self, parent, node: Node):
        node.parent = parent
        node.index_within_parent = len(parent._children)
        parent._children.append(node)

    def _in_scope(self, target) -> bool:
        """WHATWG "has an element in scope" for a stack element."""
        for el in reversed(self.stack):
            if el is target:
                return True
            if getattr(el, "tag", "") in _SCOPE_BARRIERS:
                return False
        return False

    def _any_other_end_tag(self, tag: str, start: int, end: int):
        """WHATWG in-body "any other end tag": close up to a matching
        open element, never across a SPECIAL element (a formatting
        subject routes here when it has no afe entry — e.g. its entry
        sits before a table/cell marker)."""
        for i in range(len(self.stack) - 1, 0, -1):
            node = self.stack[i]
            if node.tag == tag:
                while len(self.stack) - 1 > i:
                    self.error(start, "misnested-end-tag")
                    self._pop(start)
                el = self.stack.pop()
                el.end_tag_start = start
                el.end = end
                return
            if node.tag in _SPECIAL:
                self.error(start, "unmatched-end-tag")
                return
        self.error(start, "unmatched-end-tag")

    def _adoption_agency(self, subject: str, start: int, end: int):
        """WHATWG 13.2.6.4.7 adoption agency algorithm, FULL form:
        outer loop up to 8 iterations — one furthest block each, so
        multi-block misnesting (<b>1<div>2<div>3</b>) clones the
        formatting element into EVERY intervening block — with the
        ≤3-step inner loop rebuilding the common-ancestor chain.
        Replaces the earlier single-furthest-block form (rounds 1-4).
        Reference parity anchor: the external gumbo C library the
        reference builds on implements this same algorithm; all tree
        shapes here are the spec's (html5lib adoption01 family,
        pinned in tests/test_realworld_html.py)."""
        for _ in range(8):
            # formatting element: last afe entry for subject after the
            # last marker
            fe_idx = None
            for idx in range(len(self.afe) - 1, -1, -1):
                e = self.afe[idx]
                if e is _AFE_MARKER:
                    break
                if e[0] == subject:
                    fe_idx = idx
                    break
            if fe_idx is None:
                self._any_other_end_tag(subject, start, end)
                return
            entry = self.afe[fe_idx]
            fe = entry[2]
            fe_stack = None
            for i in range(len(self.stack) - 1, 0, -1):
                if self.stack[i] is fe:
                    fe_stack = i
                    break
            if fe_stack is None:           # in afe but not on stack
                self.error(start, "adoption-agency")
                del self.afe[fe_idx]
                return
            if not self._in_scope(fe):
                self.error(start, "unmatched-end-tag")
                return
            if fe is not self.stack[-1]:
                self.error(start, "adoption-agency")
            # furthest block: the EARLIEST special element above fe
            fb_idx = None
            for j in range(fe_stack + 1, len(self.stack)):
                if self.stack[j].tag in _SPECIAL:
                    fb_idx = j
                    break
            if fb_idx is None:             # no block: pop through fe
                while self.stack[-1] is not fe:
                    self._pop(start)
                self.stack.pop()
                if fe.end <= fe.start_tag_end:
                    fe.end_tag_start = start
                    fe.end = end
                self._afe_remove(fe)
                return
            common = self.stack[fe_stack - 1]
            fb = self.stack[fb_idx]
            bookmark = fe_idx
            node_idx = fb_idx
            last_node = fb
            inner = 0
            while True:                    # inner loop
                inner += 1
                node_idx -= 1
                node = self.stack[node_idx]
                if node is fe:
                    break
                nafe = self._afe_index_of(node)
                if inner > 3 and nafe is not None:
                    del self.afe[nafe]
                    if nafe < bookmark:
                        bookmark -= 1
                    nafe = None
                if nafe is None:
                    del self.stack[node_idx]
                    continue
                # anchored at last_node's start so offsets stay
                # monotonic (parent.start <= child.start) and raw
                # slices of adopted subtrees recover real source
                clone = Element(node.tag, dict(self.afe[nafe][1]),
                                last_node.start, last_node.start,
                                implied=True)
                self.afe[nafe][2] = clone
                self.stack[node_idx] = clone
                node = clone
                if last_node is fb:
                    bookmark = nafe + 1
                self._detach(last_node)
                self._append_child(node, last_node)
                last_node = node
            self._detach(last_node)
            if getattr(common, "tag", "") in _TABLE_SCAFFOLD:
                self._foster_append(last_node)   # appropriate place
            else:
                self._append_child(common, last_node)
            # clone of fe wraps everything fb accumulated so far
            clone = Element(fe.tag, dict(entry[1]), fb.start_tag_end,
                            fb.start_tag_end, implied=True)
            kids = fb._children
            fb._children = []
            clone._children = kids
            for k, c in enumerate(kids):
                c.parent = clone
                c.index_within_parent = k
            self._append_child(fb, clone)
            nafe = self._afe_index_of(fe)
            if nafe is not None:
                del self.afe[nafe]
                if nafe < bookmark:
                    bookmark -= 1
            self.afe.insert(bookmark, [fe.tag, dict(entry[1]), clone])
            del self.stack[fe_stack]
            self.stack.insert(self.stack.index(fb) + 1, clone)
            # the original fe closes at this end tag (clones close
            # when later popped / adopted themselves)
            if fe.end <= fe.start_tag_end:
                fe.end_tag_start = start
                fe.end = end

    # -- low-level insertion --

    def _append(self, node: Node):
        parent = self.stack[-1]
        node.parent = parent
        kids = parent._children        # Document/Element slot (hot path)
        node.index_within_parent = len(kids)
        kids.append(node)

    def _push(self, el: Element):
        self._append(el)
        self.stack.append(el)

    def _pop(self, pos: int, end: int | None = None):
        """Implied close of the top element at source position pos."""
        el = self.stack.pop()
        if el.tag in _FORMATTING:
            self.afe_dirty = True
        if el.end <= el.start_tag_end:      # not closed by a real end tag yet
            el.end_tag_start = pos
            el.end = end if end is not None else pos

    # -- structure synthesis --

    def _ensure_html(self, pos: int):
        if self.html is None:
            el = Element("html", {}, pos, pos, implied=True)
            self._push(el)
            self.html = el
            self.mode = _BEFORE_HEAD

    def _ensure_head(self, pos: int):
        self._ensure_html(pos)
        if self.head is None:
            el = Element("head", {}, pos, pos, implied=True)
            self._push(el)
            self.head = el
            self.mode = _IN_HEAD

    def _close_head(self, pos: int):
        if self.head is not None and self.stack[-1] is self.head:
            self._pop(pos)
        self.mode = _AFTER_HEAD

    def _ensure_body(self, pos: int):
        if self.mode < _IN_HEAD:
            self._ensure_head(pos)
        if self.mode == _IN_HEAD:
            self._close_head(pos)
        if self.body is None:
            el = Element("body", {}, pos, pos, implied=True)
            self._push(el)
            self.body = el
        self.mode = _IN_BODY

    # -- token handlers --

    def doctype(self, raw: str, start: int, end: int):
        if self.mode == _BEFORE_HTML and not self.doc.doctype:
            self.doc.doctype = raw
        else:
            self.error(start, "duplicate-doctype")

    def comment(self, text: str, start: int, end: int):
        self._append(TextNode(COMMENT, text, start, end))

    def cdata(self, text: str, start: int, end: int):
        if self.mode != _IN_BODY:
            self._ensure_body(start)
        self._append(TextNode(CDATA, text, start, end))

    def text(self, raw: str, start: int, end: int):
        top = self.stack[-1]
        if (getattr(top, "tag", "") in _NEWLINE_DROPPED
                and not top._children):
            # spec: a single newline immediately after a <pre>/<listing>
            # start tag is dropped
            if raw.startswith("\r\n"):
                raw, start = raw[2:], start + 2
            elif raw.startswith(("\n", "\r")):
                raw, start = raw[1:], start + 1
            if not raw:
                return
        if _is_ws(raw):
            # whitespace before <html>, before <head> and between
            # </head> and <body> is ignored (HTML5 modes); inside
            # head/body it becomes a Whitespace node.
            if self.mode in (_BEFORE_HTML, _BEFORE_HEAD, _AFTER_HEAD):
                return
            self._append(TextNode(WHITESPACE, _decode(raw), start, end))
            return
        if self.mode != _IN_BODY:
            self._ensure_body(start)
        node = TextNode(TEXT, _decode(raw), start, end)
        # foster parenting (HTML5 in-table text): non-whitespace text
        # directly inside table scaffolding is re-parented BEFORE the
        # table (gumbo does this; whitespace stays in the table)
        if self.stack[-1].tag in _TABLE_SCAFFOLD:
            self._foster_append(node)
            self.error(start, "foster-parented-text")
        else:
            if self.afe_dirty:
                self._reconstruct_afe(start)
            self._append(node)

    def _merge_structural_attrs(self, tag: str, attrs: dict):
        """Spec: a duplicate <html>/<body> start tag adds its attrs
        NOT already present to the existing element (never overrides)."""
        target = (self.html if tag == "html"
                  else self.body if tag == "body" else None)
        if target is not None and attrs:
            for k, v in attrs.items():
                target.attrs.setdefault(k, v)

    def _foster_append(self, node: Node):
        for i in range(len(self.stack) - 1, 0, -1):
            el = self.stack[i]
            if el.tag == "table":
                parent = el.parent
                pos = el.index_within_parent
                node.parent = parent
                kids = parent._children
                kids.insert(pos, node)
                for j in range(pos, len(kids)):
                    kids[j].index_within_parent = j
                return
        # no open table: the spec's adjusted insertion location is
        # inside the FIRST element in the stack (the html element) —
        # NEVER the stack top: during adoption the top can be the very
        # node being re-parented, and appending there creates a
        # detached parent cycle that silently swallows the rest of
        # the document (round-5 review finding, fuzz-reproduced on
        # stray <tr>/<tbody> + misnested formatting soup)
        self._append_child(self.stack[0], node)

    def start_tag(self, tag: str, attrs: dict, start: int, end: int,
                  self_closing: bool) -> Element:
        # fast path: the steady state is in-body with an ordinary tag
        if self.mode == _IN_BODY:
            if tag not in ("html", "head", "body"):
                return self._insert_element(tag, attrs, start, end,
                                            self_closing)
            self.error(start, "duplicate-structural-tag")
            self._merge_structural_attrs(tag, attrs)
            top = self.stack[-1]
            return top if isinstance(top, Element) else None
        if self.mode == _BEFORE_HTML:
            if tag == "html":
                el = Element("html", attrs, start, end)
                self._push(el)
                self.html = el
                self.mode = _BEFORE_HEAD
                return el
            self._ensure_html(start)
        if self.mode == _BEFORE_HEAD:
            if tag == "head":
                el = Element("head", attrs, start, end)
                self._push(el)
                self.head = el
                self.mode = _IN_HEAD
                return el
            if tag in HEAD_ELEMENTS:
                self._ensure_head(start)
            else:
                self._ensure_head(start)
                self._close_head(start)
        if self.mode == _IN_HEAD and tag not in HEAD_ELEMENTS:
            self._close_head(start)
        if self.mode == _AFTER_HEAD:
            if tag == "body":
                el = Element("body", attrs, start, end)
                self._push(el)
                self.body = el
                self.mode = _IN_BODY
                return el
            if tag in HEAD_ELEMENTS and self.head is not None:
                # late head element: parse into head (HTML5 after-head rule)
                self.stack.append(self.head)
                el = self._insert_element(tag, attrs, start, end, self_closing)
                if self.stack and self.stack[-1] is self.head:
                    self.stack.pop()
                else:       # non-void head element still open: leave on stack
                    self.stack.remove(self.head)
                return el
            self._ensure_body(start)
        if self.mode == _IN_BODY and tag in ("html", "head", "body"):
            self.error(start, "duplicate-structural-tag")
            self._merge_structural_attrs(tag, attrs)
            return self.stack[-1] if isinstance(self.stack[-1], Element) else None
        return self._insert_element(tag, attrs, start, end, self_closing)

    def _insert_element(self, tag: str, attrs: dict, start: int, end: int,
                        self_closing: bool) -> Element:
        # implied end tags: close stack tops that the new tag terminates
        # (skip the loop entirely when this tag closes nothing)
        if tag in _ANY_CLOSER:
            while True:
                top = self.stack[-1]
                closers = _CLOSED_BY.get(top.tag)
                if closers is not None and tag in closers:
                    self._pop(start)
                else:
                    break
        if tag == "form":
            for e in reversed(self.stack):
                t = getattr(e, "tag", "")
                if t in ("td", "th", "caption"):
                    break
                if t in _TABLE_SCAFFOLD:
                    # HTML5 "in table" form rule: parse error; the form
                    # element is inserted EMPTY and popped immediately,
                    # so the table's rows stay in the table (a form
                    # subtree here would swallow the rows — and the
                    # boilerplate strip-set would then drop them)
                    self.error(start, "form-in-table")
                    el = Element(tag, attrs, start, end)
                    self._append(el)
                    el.end_tag_start = el.end = end
                    return el
        if tag in _FORMATTING:
            if tag == "a":
                # links never nest: an <a> already in the active
                # formatting list (since the last marker) is a parse
                # error and acts as </a> first (HTML5 "in body"
                # a-start-tag rule)
                for idx in range(len(self.afe) - 1, -1, -1):
                    entry = self.afe[idx]
                    if entry is _AFE_MARKER:
                        break
                    if entry[0] == "a":
                        self.error(start, "nested-a")
                        prev = entry[2]
                        del self.afe[idx]
                        if any(x is prev for x in self.stack):
                            while self.stack[-1] is not prev:
                                self._pop(start)
                            self._pop(start)
                        break
            if self.afe_dirty:
                self._reconstruct_afe(start)
            # Noah's Ark clause: at most 3 identical (tag, attrs)
            # entries after the last marker.  Without it, churn input
            # like "<p><b></p>" * N reopens every prior <b> on each
            # reconstruction — O(N^2) element creation (measured: 69 s
            # for N=5000; ~0.1 s with the clause).
            count, earliest = 0, -1
            for idx in range(len(self.afe) - 1, -1, -1):
                entry = self.afe[idx]
                if entry is _AFE_MARKER:
                    break
                if entry[0] == tag and entry[1] == attrs:
                    count += 1
                    earliest = idx
            if count >= 3:
                del self.afe[earliest]
            el = Element(tag, attrs, start, end)
            self._push(el)
            self.afe.append([tag, attrs, el])
            return el
        el = Element(tag, attrs, start, end)
        if self_closing and tag not in VOID_ELEMENTS:
            if tag in _SPECIAL or tag in _FORMATTING or tag in _SLASH_IGNORED_EXTRA:
                # spec: the trailing solidus on a KNOWN non-void HTML
                # element is a parse error and IGNORED — <div/> opens a
                # div (foreign/unknown tags below keep honoring it, as
                # foreign content does)
                self.error(start, "trailing-solidus-on-nonvoid")
                self_closing = False
        if tag in VOID_ELEMENTS or self_closing:
            self._append(el)
            el.end_tag_start = el.end = end
        else:
            self._push(el)
            if tag in _AFE_MARKERS:
                self.afe.append(_AFE_MARKER)
        return el

    def end_tag(self, tag: str, start: int, end: int):
        # fast path: well-formed close of the current element
        top = self.stack[-1]
        if (top.tag == tag and self.mode == _IN_BODY
                and top is not self.body and top is not self.html):
            self.stack.pop()
            top.end_tag_start = start
            top.end = end
            if tag in _FORMATTING:
                self._afe_remove(top)
            elif tag in _AFE_MARKERS:
                self._afe_clear_to_marker()
            return
        if tag in _FORMATTING:
            # element not at top: the full WHATWG adoption agency (up
            # to 8 furthest blocks re-wrapped; <b><p>x</b>y</p> →
            # <b></b><p><b>x</b>y</p>, later text NOT bold)
            self._adoption_agency(tag, start, end)
            return
        if tag == "p" and not any(
                getattr(nd, "tag", "") == "p" for nd in self.stack[1:]):
            # WHATWG in-body "</p>" with no p in scope: parse error,
            # act as if <p> was seen, then close it — synthesizes an
            # EMPTY p at this position (gumbo does the same)
            self.error(start, "stray-end-p")
            if self.mode != _IN_BODY:
                self._ensure_body(start)
            if self.afe_dirty:
                self._reconstruct_afe(start)
            el = Element("p", {}, start, start, implied=True)
            self._append(el)
            el.end_tag_start = start
            el.end = end
            return
        if self.mode != _IN_BODY and tag in ("body", "html"):
            self._ensure_body(start)
        if tag == "head" and self.mode == _IN_HEAD:
            self._close_head(start)
            if self.head is not None:
                self.head.end_tag_start = start
                self.head.end = end
            return
        # find matching open element
        for i in range(len(self.stack) - 1, 0, -1):
            node = self.stack[i]
            if node.tag == tag:
                # pop everything above it (mis-nesting recovery);
                # elements whose real end tag was already seen (body /
                # html kept insertable after their end tag) are not
                # errors
                while len(self.stack) - 1 > i:
                    if self.stack[-1].end <= self.stack[-1].start_tag_end:
                        self.error(start, "misnested-end-tag")
                    self._pop(start)
                el = self.stack.pop()
                el.end_tag_start = start
                el.end = end
                if el.tag in _AFE_MARKERS:
                    self._afe_clear_to_marker()
                if el is self.body or el is self.html:
                    # spec keeps body/html insertable after their end
                    # tag (after-body whitespace lands in body); record
                    # offsets, keep on stack.
                    self.stack.append(el)
                return
        self.error(start, "unmatched-end-tag")

    def finish(self):
        if self.mode != _IN_BODY:
            self._ensure_body(self.n)
        while len(self.stack) > 1:
            self._pop(self.n, self.n)
        return self.doc


def parse(html: str, options: ParseOptions | None = None) -> Document:
    """Parse an HTML document → Document tree (gumbo_range analogue,
    reference src/gumbo_pp.cpp:24-34). Never raises on malformed input;
    recoverable errors are counted in ``doc.parse_errors`` and recorded
    (capped by ``options.max_errors``) in ``doc.errors``."""
    opts = options or DEFAULT_OPTIONS
    n = len(html)
    tb = _TreeBuilder(n, max_errors=opts.max_errors)
    pos = 0
    find = html.find
    startswith = html.startswith
    ctx = opts.fragment_context
    if ctx:
        # fragment mode: pre-open the scaffold and the context element
        tb._ensure_body(0)
        if ctx not in ("body", "html"):
            if ctx in _RAWTEXT_CLOSE:
                # RAWTEXT/RCDATA context: whole input is the element text
                el = Element(ctx, {}, 0, 0, implied=True)
                tb._push(el)
                if html:
                    txt = (_decode(html) if ctx in RCDATA_ELEMENTS
                           else html)
                    tb._append(TextNode(
                        WHITESPACE if _is_ws(html) else TEXT, txt, 0, n))
                pos = n
            else:
                tb._push(Element(ctx, {}, 0, 0, implied=True))
    stop = opts.stop_on_first_error
    # the native builder inserts the in-body common tokens and returns
    # the first token that needs a rule below; each '<' it stops at
    # takes one pass of the loop body, the tokenizer of last resort.
    # stop_on_first_error must end at the token that raised, so it
    # never builds natively
    build = None if stop or _scan is None else _scan.build
    while pos < n:
        if build is not None:
            tok, pos = build(html, pos, _SCAN_DEFER, tb)
            if tok is not None:
                kind = tok[0]
                if kind == 0:
                    tb.text(tok[1], tok[2], tok[3])
                elif kind == 1:
                    tb.start_tag(tok[1], tok[2], tok[3], tok[4], tok[5])
                else:
                    tb.end_tag(tok[1], tok[2], tok[3])
                continue
            if pos >= n:
                break
        if stop and tb.parse_errors:
            break
        lt = find("<", pos)
        if lt < 0:
            tb.text(html[pos:], pos, n)
            break
        if lt > pos:
            tb.text(html[pos:lt], pos, lt)
        c = html[lt + 1: lt + 2]
        if c == "!":
            if startswith("<!--", lt):
                body_start = lt + 4
                bang = find("--!>", body_start)
                close = find("-->", body_start)
                if startswith(">", body_start) or startswith("->",
                                                             body_start):
                    # spec "abrupt closing of empty comment": <!--> and
                    # <!---> are empty comments, NOT comment openers —
                    # treating them as openers swallows the page
                    clen = 1 if html[body_start] == ">" else 2
                    tb.comment("", lt, body_start + clen)
                    tb.error(lt, "abrupt-closing-of-empty-comment")
                    pos = body_start + clen
                elif bang != -1 and (close < 0 or bang < close):
                    # spec "incorrectly-closed-comment": --!> ends it
                    tb.comment(html[body_start:bang], lt, bang + 4)
                    tb.error(lt, "incorrectly-closed-comment")
                    pos = bang + 4
                elif close < 0:
                    tb.comment(html[body_start:], lt, n)
                    tb.error(lt, "eof-in-comment")
                    pos = n
                else:
                    tb.comment(html[body_start: close], lt, close + 3)
                    pos = close + 3
            elif startswith("<![CDATA[", lt):
                close = find("]]>", lt + 9)
                if close < 0:
                    tb.cdata(html[lt + 9:], lt, n)
                    tb.error(lt, "eof-in-cdata")
                    pos = n
                else:
                    tb.cdata(html[lt + 9: close], lt, close + 3)
                    pos = close + 3
            else:
                gt = find(">", lt)
                if gt < 0:
                    tb.error(lt, "eof-in-markup")
                    pos = n
                    break
                body = html[lt + 2: gt]
                if body[:7].lower() == "doctype":
                    tb.doctype(body[7:].strip(), lt, gt + 1)
                else:                   # bogus comment
                    tb.comment(body, lt, gt + 1)
                pos = gt + 1
        elif c == "?":
            # spec "unexpected-question-mark-instead-of-tag-name":
            # processing instructions (<?php …?>) become BOGUS COMMENTS
            # — emitting them as text would leak server-side source
            # into extracted spans
            gt = find(">", lt)
            if gt < 0:
                tb.comment(html[lt + 1:], lt, n)
                tb.error(lt, "eof-in-bogus-comment")
                pos = n
            else:
                tb.comment(html[lt + 1: gt], lt, gt + 1)
                tb.error(lt, "pi-as-bogus-comment")
                pos = gt + 1
        elif c == "/":
            m = _END_TAG_RE.match(html, lt)
            if m:
                tb.end_tag(m.group(1).lower(), lt, m.end())
                pos = m.end()
            else:
                m = _END_TAG_NAME_RE.match(html, lt)
                gt = find(">", lt)
                if gt < 0:
                    tb.error(lt, "eof-in-end-tag")
                    pos = n
                    break
                if m:
                    # spec: an end tag with attributes or a trailing
                    # solidus (</div class=x>, </div/>) is a parse
                    # error but the end tag IS processed (junk ignored)
                    tb.end_tag(m.group(1).lower(), lt, gt + 1)
                    tb.error(lt, "end-tag-with-attributes")
                else:
                    tb.comment(html[lt + 2: gt], lt, gt + 1)   # bogus
                    tb.error(lt, "malformed-end-tag")
                pos = gt + 1
        elif c.isascii() and c.isalpha():
            # a tag name starts with an ASCII letter (as in the tag
            # regexes): '<é' or '<中' is text, like '<2'
            m = _START_TAG_RE.match(html, lt)
            if not m:
                m = _START_TAG_RELAXED_RE.match(html, lt)
                if m:
                    tb.error(lt, "malformed-attributes")
            if not m:
                # unterminated tag: rest of input is text (tokenizer
                # EOF-in-tag error)
                tb.error(lt, "eof-in-tag")
                tb.text(html[lt:], lt, n)
                break
            tag, rawattrs, slash = m.group(1, 2, 3)
            tag = tag.lower()
            if tag == "image":
                # spec "in body": <image> is a parse error treated as
                # <img> — legacy pages still use it and its media_ref
                # must not be lost
                tb.error(lt, "image-tag")
                tag = "img"
            attrs = _parse_attrs(rawattrs) if rawattrs else {}
            self_closing = slash == "/"
            el = tb.start_tag(tag, attrs, lt, m.end(), self_closing)
            pos = m.end()
            # raw text whenever the element stays open: a solidus the
            # builder ignored (<title/>) must not leave its content as
            # markup
            if (el is not None and el.tag == tag and tag in _RAWTEXT_CLOSE
                    and tb.stack[-1] is el):
                cm = _RAWTEXT_CLOSE[tag].search(html, pos)
                if cm:
                    content_end = cm.start()
                    gt = find(">", cm.end())
                    tag_end = (gt + 1) if gt >= 0 else n
                else:
                    content_end = n
                    tag_end = n
                    tb.error(pos, "eof-in-rawtext")
                raw = html[pos:content_end]
                if tag == "textarea":
                    # spec: a single newline right after <textarea> is
                    # dropped (same rule as <pre>)
                    if raw.startswith("\r\n"):
                        raw, pos = raw[2:], pos + 2
                    elif raw.startswith(("\n", "\r")):
                        raw, pos = raw[1:], pos + 1
                if raw:
                    txt = _decode(raw) if tag in RCDATA_ELEMENTS else raw
                    node = TextNode(WHITESPACE if _is_ws(raw) else TEXT,
                                    txt, pos, content_end)
                    tb._append(node)
                tb._pop(content_end, tag_end)
                el.end_tag_start = content_end
                el.end = tag_end
                pos = tag_end
        else:
            # bare '<' is text
            tb.text("<", lt, lt + 1)
            pos = lt + 1
    doc = tb.finish()
    doc.parse_errors = tb.parse_errors
    doc.errors = tb.errors
    return doc


if _scan is not None:
    _scan.configure(
        element=Element, text_node=TextNode, document=Document,
        builder=_TreeBuilder, element_kind=ELEMENT, text_kind=TEXT,
        whitespace_kind=WHITESPACE, in_body=_IN_BODY, afe_marker=_AFE_MARKER,
        void=VOID_ELEMENTS, closed_by=_CLOSED_BY, any_closer=_ANY_CLOSER,
        formatting=_FORMATTING, markers=_AFE_MARKERS, scaffold=_TABLE_SCAFFOLD,
        rule_tags=_BUILD_RULE_TAGS, pre=_NEWLINE_DROPPED,
        no_nest=frozenset(("a",)), decode=_decode, parse_attrs=_parse_attrs)

# frees a parsed tree by refcount (dom.release, in C when built)
release = dom.release if _scan is None else _scan.release
