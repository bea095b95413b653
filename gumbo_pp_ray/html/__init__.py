"""Per-document HTML kernel in Python (no Ray dependency).

Re-implements, from public knowledge only, the observable semantics of
beached/gumbo_pp's query layer (reference: /root/reference
include/daw/gumbo_pp/*.h) on top of a from-scratch HTML5-ish tokenizer
and tree builder (the reference delegates parsing to the external
Google ``gumbo`` C library; we delegate to nothing — a small C builder
of our own, ``_scan.c``, only speeds up the in-body common path).

Public surface:
    parse(html)                -> Document        (gumbo_range, P2)
    walk(node) / subtree(node) -> DFS iterators   (gumbo_node_iterator, T1/T2)
    content_text / inner_text / outer_text        (gumbo_text.h, E1-E3)
    match.*                    -> selector algebra (gumbo_matchers.h, C1-C5, M1-M21)
    find_first / find_all / find_some             (Q1-Q4)
    extract_spans              -> ordered content spans (engine-new)
"""

from .dom import (
    DOCUMENT,
    ELEMENT,
    TEXT,
    CDATA,
    COMMENT,
    WHITESPACE,
    TEMPLATE,
    KIND_NAMES,
    Node,
    Document,
    Element,
    TextNode,
)
from .parser import ParseOptions, parse
from .walk import walk, subtree, walk_from, find_first, find_all, find_some
from .text import content_text, inner_text, outer_text
from . import select as match
from .extract import extract_spans, ExtractProfile, DEFAULT_PROFILE

__all__ = [
    "DOCUMENT", "ELEMENT", "TEXT", "CDATA", "COMMENT", "WHITESPACE",
    "TEMPLATE", "KIND_NAMES", "Node", "Document", "Element", "TextNode",
    "parse", "ParseOptions", "walk", "subtree", "walk_from", "find_first", "find_all",
    "find_some", "content_text", "inner_text", "outer_text", "match",
    "extract_spans", "ExtractProfile", "DEFAULT_PROFILE",
]
