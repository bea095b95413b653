"""DOM node model.

Mirrors the seven gumbo node kinds the reference enumerates in
``to_string(GumboNodeType)`` (reference gumbo_util.h:161-180):
Document, Element, Text, CData, Comment, Whitespace, Template.

Differences from the reference, by design (documented divergences):

* Text-ish nodes carry TRUE byte offsets ``(start, end)`` into the
  original document. The reference's ``node_end_offset`` returns
  ``strlen(text)`` for text nodes (a length, not an offset — reference
  gumbo_util.h:121-146); we keep real offsets so raw-slice extraction
  and span reassembly stay consistent.
* ``next_sibling`` implements the *intended* semantics (own
  ``index_within_parent + 1``); the reference reads the parent's index
  and dereferences before the null check (reference
  gumbo_node_iterator.h:131-145).
"""

from __future__ import annotations

# Node kinds — same order as GumboNodeType (reference gumbo_util.h:161-180).
DOCUMENT = 0
ELEMENT = 1
TEXT = 2
CDATA = 3
COMMENT = 4
WHITESPACE = 5
TEMPLATE = 6

KIND_NAMES = (
    "Document", "Element", "Text", "CData", "Comment", "Whitespace", "Template",
)

_TEXTISH = (TEXT, CDATA, COMMENT, WHITESPACE)


class Node:
    """Common base; concrete nodes use __slots__ subclasses."""

    __slots__ = ("kind", "parent", "index_within_parent")

    kind: int

    # -- accessors shared by all kinds (gumbo_util.h T9 analogues) --

    @property
    def children(self):  # overridden where meaningful
        return ()

    def child_at(self, i: int):
        """get_child_node_at (reference gumbo_util.h:20-58); None if OOB."""
        ch = self.children
        return ch[i] if 0 <= i < len(ch) else None

    @property
    def children_count(self) -> int:
        """get_children_count (reference gumbo_util.h:60-70)."""
        return len(self.children)

    def next_sibling(self):
        """Intended semantics of reference gumbo_node_iterator.h:131-145."""
        p = self.parent
        if p is None:
            return None
        sibs = p.children
        i = self.index_within_parent + 1
        return sibs[i] if i < len(sibs) else None

    def last_sibling(self):
        """last_sibling (reference gumbo_node_iterator.h:147-156)."""
        p = self.parent
        if p is None:
            return self
        return p.children[-1]

    # -- attribute surface: non-elements have none --

    @property
    def attrs(self):
        return {}

    def attr(self, name: str, default=None):
        """node_attribute_value (reference gumbo_util.h:148-159); the
        reference returns "" when absent — callers pass default=""
        where they need that contract."""
        return default

    def has_attr(self, name: str) -> bool:
        return False

    @property
    def tag(self) -> str:
        return ""

    @property
    def is_textish(self) -> bool:
        return self.kind in _TEXTISH


class Document(Node):
    __slots__ = ("_children", "doctype", "start", "end", "source_len",
                 "parse_errors", "errors")

    def __init__(self):
        self.kind = DOCUMENT
        self.parent = None
        self.index_within_parent = 0
        self._children = []
        self.doctype = ""
        self.start = 0
        self.end = 0
        self.source_len = 0
        self.parse_errors = 0
        self.errors = []        # recorded (offset, code), see ParseOptions

    @property
    def children(self):
        return self._children

    def __repr__(self):
        return f"<Document children={len(self._children)}>"


class Element(Node):
    """Element or Template node.

    Offsets (bytes into the original document string):
      start           — '<' of the start tag ('original_tag' begin)
      start_tag_end   — one past '>' of the start tag
      end_tag_start   — '<' of the end tag (== end for implied/void ends)
      end             — one past '>' of the end tag ('original_end_tag' end)
    For implied (synthesized) elements all four collapse pairwise to the
    insertion point, mirroring gumbo's empty original_tag slices.
    """

    # ``tag``/``attrs`` are direct slots (shadowing the Node-level
    # properties via the member descriptors): they are the hottest
    # attribute reads in parse/select — a property getter per access
    # measurably shows up at 100k+ lookups per batch
    __slots__ = (
        "tag", "attrs", "_children",
        "start", "start_tag_end", "end_tag_start", "end", "implied",
    )

    def __init__(self, tag: str, attrs: dict, start: int, start_tag_end: int,
                 implied: bool = False):
        self.kind = TEMPLATE if tag == "template" else ELEMENT
        self.parent = None
        self.index_within_parent = 0
        self.tag = tag
        self.attrs = attrs
        self._children = []
        self.start = start
        self.start_tag_end = start_tag_end
        self.end_tag_start = start_tag_end
        self.end = start_tag_end
        self.implied = implied

    @property
    def children(self):
        return self._children

    def attr(self, name: str, default=None):
        return self.attrs.get(name, default)

    def has_attr(self, name: str) -> bool:
        return name in self.attrs

    def attr_at(self, i: int):
        """get_attribute_node_at (reference gumbo_util.h:72-98) →
        (name, value) or None."""
        if 0 <= i < len(self.attrs):
            k = list(self.attrs)[i]
            return (k, self.attrs[k])
        return None

    @property
    def attr_count(self) -> int:
        return len(self.attrs)

    def __repr__(self):
        return f"<Element {self.tag} @{self.start}:{self.end}>"


class TextNode(Node):
    """Text / CData / Comment / Whitespace leaf.

    ``text`` is the decoded text (entities resolved for TEXT/RCDATA;
    raw for comments/CDATA, matching what gumbo's tokenizer hands
    back); ``start``/``end`` are TRUE source offsets of the raw slice.
    """

    __slots__ = ("text", "start", "end")

    # leaves share one empty child sequence, so a tree walk over
    # ``_children`` needs no kind test
    _children = ()

    def __init__(self, kind: int, text: str, start: int, end: int):
        self.kind = kind
        self.parent = None
        self.index_within_parent = 0
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self):
        return f"<{KIND_NAMES[self.kind]} {self.text[:20]!r} @{self.start}:{self.end}>"


def release(root: Node) -> None:
    """Empty every child list under ``root``, ``root``'s own included.

    A parsed tree is one big reference cycle (each child points at its
    parent), so dropping it leaves the whole tree to the cyclic GC.
    Cutting the parent → child edges lets reference counting free each
    node as soon as the caller drops it.  Iterative (deep-tree safe);
    the tree is unusable afterwards.
    """
    stack = [root]
    pop = stack.pop
    extend = stack.extend
    while stack:
        kids = pop()._children
        if kids:
            extend(kids)
            kids.clear()
