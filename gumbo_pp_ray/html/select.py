"""Selector algebra — gumbo_matchers.h semantics (C1-C5, M1-M21).

Boolean algebra over node predicates, mirroring the reference's
matcher combinators (reference gumbo_matchers.h:29-152: match_all /
match_any / match_one / match_not plus operator sugar at :1081-1127)
and every leaf matcher namespace re-exported at
gumbo_matchers.h:1129-1157: ``attribute``, ``class_type``, ``id``,
``content_text``, ``inner_text``, ``outer_text``, ``tag``.

Selectors are small picklable objects (shipped to Ray actors once, in
``__init__``); combine with ``&`` ``|`` ``^`` ``~`` (the reference's
``and/or/^/not`` operator sugar). Variadic leaf forms OR over their
arguments, exactly as the reference's variadic overloads do.

Reference-semantics notes (each unit-tested):

* ``class_type.is_`` matches the WHOLE ``class`` attribute value by
  exact equality — NOT CSS token-in-list semantics (reference
  gumbo_matchers.h:466-476; ``class="hello"`` matches ``is_("hello")``,
  ``class="hello world"`` does not). ``class_type.has_token`` is our
  clearly-named CSS-style ``.c`` addition.
* ``content_text.ends_with`` / container ``is_``: the reference has
  outright bugs there (variadic ends_with tests starts_with for its
  first argument, gumbo_matchers.h:610; container is_ uses assignment,
  :625). We implement the *intended* suffix/equality semantics.
* ``attribute.value.is_null`` — our parser normalizes valueless
  attributes to ``""`` (as gumbo's tokenizer presents them), so
  ``is_null`` ≡ ``is_empty`` here (documented divergence).
* attribute / tag matchers are element-only (reference
  details/find_attrib_if_impl.h:18-21).
"""

from __future__ import annotations

from .dom import ELEMENT, TEMPLATE, Node
from .text import content_text as _content_text
from .text import inner_text as _inner_text
from .text import outer_text as _outer_text

_EL = (ELEMENT, TEMPLATE)


class Selector:
    """Base node predicate. Subclasses implement ``__call__(node)``."""

    __slots__ = ()

    def __call__(self, node: Node) -> bool:     # pragma: no cover
        raise NotImplementedError

    def __and__(self, other):
        return All(self, other)

    def __or__(self, other):
        return AnyOf(self, other)

    def __xor__(self, other):
        return OneOf(self, other)

    def __invert__(self):
        return Not(self)


def _wrap(fn) -> Selector:
    return fn if isinstance(fn, Selector) else Where(fn)


class Where(Selector):
    """Arbitrary user predicate over the node (extension surface §2.10)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, node):
        return bool(self.fn(node))


# ---------------------------------------------------------------- C1-C4

class All(Selector):
    """match_all — AND-fold (reference gumbo_matchers.h:29-62)."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = tuple(_wrap(p) for p in parts)

    def __call__(self, node):
        return all(p(node) for p in self.parts)


class AnyOf(Selector):
    """match_any — OR-fold (reference gumbo_matchers.h:65-99)."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = tuple(_wrap(p) for p in parts)

    def __call__(self, node):
        return any(p(node) for p in self.parts)


class OneOf(Selector):
    """match_one — XOR-fold / odd-parity match (reference
    gumbo_matchers.h:101-134)."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = tuple(_wrap(p) for p in parts)

    def __call__(self, node):
        r = False
        for p in self.parts:
            r ^= bool(p(node))
        return r


class Not(Selector):
    """match_not (reference gumbo_matchers.h:136-152)."""

    __slots__ = ("part",)

    def __init__(self, part):
        self.part = _wrap(part)

    def __call__(self, node):
        return not self.part(node)


# ------------------------------------------------- attribute leaf kernels

class _AttrSelector(Selector):
    __slots__ = ()


class AttrWhere(_AttrSelector):
    """M1 — ∃ attribute where all preds(name, value) hold (reference
    gumbo_matchers.h:159-172; scan order = document order via
    find_attribute_if_impl, details/find_attrib_if_impl.h:24-38)."""

    __slots__ = ("preds",)

    def __init__(self, *preds):
        self.preds = preds

    def __call__(self, node):
        if node.kind not in _EL:
            return False
        for k, v in node.attrs.items():
            if all(p(k, v) for p in self.preds):
                return True
        return False


class HasAttrs(_AttrSelector):
    """M2 — has ≥1 attribute (reference gumbo_matchers.h:175-182)."""

    __slots__ = ()

    def __call__(self, node):
        return node.kind in _EL and len(node.attrs) > 0


class AttrExists(_AttrSelector):
    """M3/M4 — any named attribute present (reference
    gumbo_matchers.h:185-239; CSS ``[name]``)."""

    __slots__ = ("names",)

    def __init__(self, *names):
        self.names = frozenset(n.lower() for n in _flat(names))

    def __call__(self, node):
        if node.kind not in _EL:
            return False
        attrs = node.attrs
        return any(n in attrs for n in self.names)


def _flat(args):
    """Variadic forms also accept a single iterable (the reference's
    Container overloads)."""
    if len(args) == 1 and not isinstance(args[0], str) and hasattr(args[0], "__iter__"):
        return tuple(args[0])
    return args


class _AttrValue(_AttrSelector):
    __slots__ = ("name", "values")

    def __init__(self, name, *values):
        self.name = name.lower()
        self.values = tuple(_flat(values))


class AttrDashMatch(_AttrValue):
    """M5 — value == prefix or starts with prefix+'-' (reference
    gumbo_matchers.h:244-259; CSS ``[a|=v]``)."""

    def __call__(self, node):
        v = node.attr(self.name)
        if v is None:
            return False
        return any(v == p or v.startswith(p + "-") for p in self.values)


class AttrContains(_AttrValue):
    """M6 — value contains any substring (reference
    gumbo_matchers.h:263-299; CSS ``[a*=v]``)."""

    def __call__(self, node):
        v = node.attr(self.name)
        if v is None:
            return False
        return any(s in v for s in self.values)


class AttrStartsWith(_AttrValue):
    """M7 — CSS ``[a^=v]`` (reference gumbo_matchers.h:301-336)."""

    def __call__(self, node):
        v = node.attr(self.name)
        if v is None:
            return False
        return v.startswith(self.values)


class AttrEndsWith(_AttrValue):
    """M8 — CSS ``[a$=v]`` (reference gumbo_matchers.h:338-373)."""

    def __call__(self, node):
        v = node.attr(self.name)
        if v is None:
            return False
        return v.endswith(self.values)


class AttrEquals(_AttrValue):
    """M9 — exact value equality (reference gumbo_matchers.h:375-407;
    CSS ``[a=v]``)."""

    def __call__(self, node):
        v = node.attr(self.name)
        return v is not None and v in self.values


class AttrEmpty(_AttrSelector):
    """M10 — attribute present with empty value (reference
    gumbo_matchers.h:410-431; is_null ≡ is_empty here, see module
    docstring)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name.lower()

    def __call__(self, node):
        return node.attr(self.name) == ""


class AttrNonEmpty(_AttrSelector):
    """M10 — attribute present with non-empty value."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name.lower()

    def __call__(self, node):
        v = node.attr(self.name)
        return v is not None and v != ""


# ------------------------------------------------------ single-attr sugar

class _OneAttrWhere(_AttrSelector):
    """Predicate over one named attribute's value (kernel for
    class_type.where / id.where, reference gumbo_matchers.h:437-445,
    479-489)."""

    __slots__ = ("name", "preds")

    def __init__(self, name, *preds):
        self.name = name
        self.preds = preds

    def __call__(self, node):
        v = node.attr(self.name)
        return v is not None and all(p(v) for p in self.preds)


class ClassIs(Selector):
    """M12 — whole-class-attribute exact equality (reference
    gumbo_matchers.h:466-476; see module docstring)."""

    __slots__ = ("values",)

    def __init__(self, *values):
        self.values = tuple(_flat(values))

    def __call__(self, node):
        v = node.attr("class")
        return v is not None and v in self.values


class ClassHasToken(Selector):
    """Engine addition (clearly named, NOT in the reference): CSS-style
    ``.c`` — class token list membership."""

    __slots__ = ("tokens",)

    def __init__(self, *tokens):
        self.tokens = frozenset(_flat(tokens))

    def __call__(self, node):
        v = node.attr("class")
        if not v:
            return False
        return not self.tokens.isdisjoint(v.split())


class IdIs(Selector):
    """M13 — id equality (reference gumbo_matchers.h:491-503; CSS #id)."""

    __slots__ = ("values",)

    def __init__(self, *values):
        self.values = tuple(_flat(values))

    def __call__(self, node):
        v = node.attr("id")
        return v is not None and v in self.values


# ------------------------------------------------------- text matchers

class _TextSelector(Selector):
    """Kernel for content/inner/outer text predicates. ``source`` is
    needed for inner/outer (raw-slice) variants — the reference's
    inner_text/outer_text matchers likewise take the document string
    (reference gumbo_matchers.h:641-899)."""

    __slots__ = ("mode", "source")

    CONTENT, INNER, OUTER = 0, 1, 2

    def _text(self, node):
        if self.mode == self.CONTENT:
            return _content_text(node)
        if self.mode == self.INNER:
            return _inner_text(node, self.source)
        return _outer_text(node, self.source)


def _mk_text_leaf(name, test, doc):
    class _Leaf(_TextSelector):
        __slots__ = ("args",)

        def __init__(self, *args, mode=_TextSelector.CONTENT, source=""):
            self.args = tuple(_flat(args))
            self.mode = mode
            self.source = source

        def __call__(self, node):
            return test(self._text(node), self.args)

    _Leaf.__name__ = _Leaf.__qualname__ = name
    _Leaf.__doc__ = doc
    return _Leaf


TextContains = _mk_text_leaf(
    "TextContains", lambda t, args: any(s in t for s in args),
    "M15 — content text contains any (reference gumbo_matchers.h:526-555).")
TextStartsWith = _mk_text_leaf(
    "TextStartsWith", lambda t, args: t.startswith(args),
    "M17 — content text prefix (reference gumbo_matchers.h:561-585).")
TextEndsWith = _mk_text_leaf(
    "TextEndsWith", lambda t, args: t.endswith(args),
    "M17 — content text suffix; the reference's variadic form tests "
    "starts_with for its first arg (bug, gumbo_matchers.h:610) — we "
    "implement the intended suffix test.")
TextIs = _mk_text_leaf(
    "TextIs", lambda t, args: t in args,
    "M17 — content text equality; intended semantics (the reference's "
    "container overload uses assignment, gumbo_matchers.h:625).")
TextEmpty = _mk_text_leaf(
    "TextEmpty", lambda t, args: t == "",
    "M16 — content text empty (reference gumbo_matchers.h:557-559).")


class TextWhere(_TextSelector):
    """M14/M18/M19 where — user predicate over extracted text
    (reference gumbo_matchers.h:508-524, 644-651, 773-781). ``map_fn``
    gives the reference's ``content_text::map(map, pred)``
    transform-then-test form."""

    __slots__ = ("preds", "map_fn")

    def __init__(self, *preds, mode=_TextSelector.CONTENT, source="",
                 map_fn=None):
        self.preds = preds
        self.mode = mode
        self.source = source
        self.map_fn = map_fn

    def __call__(self, node):
        t = self._text(node)
        if self.map_fn is not None:
            t = self.map_fn(t)
        return all(p(t) for p in self.preds)


# -------------------------------------------------------- tag matchers

class TagIs(Selector):
    """M21 — tag equality, element-only (reference
    gumbo_matchers.h:917-924 kernel; :926-1077 named constants)."""

    __slots__ = ("tags",)

    def __init__(self, *tags):
        self.tags = frozenset(t.lower() for t in _flat(tags))

    def __call__(self, node):
        return node.kind in _EL and node.tag in self.tags


class TagWhere(Selector):
    """M20 — predicate over the tag name, element-only (reference
    gumbo_matchers.h:904-913)."""

    __slots__ = ("preds",)

    def __init__(self, *preds):
        self.preds = preds

    def __call__(self, node):
        return node.kind in _EL and all(p(node.tag) for p in self.preds)


# ------------------------------------------- reference-style namespaces
# mirror daw::gumbo::match::{attribute,class_type,id,content_text,
# inner_text,outer_text,tag} (reference gumbo_matchers.h:1129-1157)

class attribute:
    where = AttrWhere
    has = HasAttrs

    @staticmethod
    def has_none(node=None):
        sel = Not(HasAttrs())
        return sel if node is None else sel(node)

    exists = AttrExists

    class name:
        is_ = AttrExists        # M4 — same semantics, second spelling

    class value:
        contains_prefix = AttrDashMatch
        contains = AttrContains
        starts_with = AttrStartsWith
        ends_with = AttrEndsWith
        is_ = AttrEquals
        is_empty = AttrEmpty
        is_null = AttrEmpty     # see module docstring
        has_value = AttrNonEmpty


class class_type:
    @staticmethod
    def where(*preds):
        return _OneAttrWhere("class", *preds)

    is_ = ClassIs
    has_token = ClassHasToken


class id:
    @staticmethod
    def where(*preds):
        return _OneAttrWhere("id", *preds)

    is_ = IdIs


class content_text:
    @staticmethod
    def where(*preds):
        return TextWhere(*preds)

    @staticmethod
    def map(map_fn, *preds):
        return TextWhere(*preds, map_fn=map_fn)

    contains = TextContains
    starts_with = TextStartsWith
    ends_with = TextEndsWith
    is_ = TextIs

    @staticmethod
    def is_empty(node=None):
        sel = TextEmpty()
        return sel if node is None else sel(node)


def _raw_ns(ns_name, mode, ref):
    class _NS:
        @staticmethod
        def where(source, *preds):
            return TextWhere(*preds, mode=mode, source=source)

        @staticmethod
        def contains(source, *args):
            return TextContains(*args, mode=mode, source=source)

        @staticmethod
        def starts_with(source, *args):
            return TextStartsWith(*args, mode=mode, source=source)

        @staticmethod
        def ends_with(source, *args):
            return TextEndsWith(*args, mode=mode, source=source)

        @staticmethod
        def is_(source, *args):
            return TextIs(*args, mode=mode, source=source)

        @staticmethod
        def is_empty(source):
            return TextEmpty(mode=mode, source=source)

    _NS.__name__ = _NS.__qualname__ = ns_name
    _NS.__doc__ = (f"M18/M19 — predicates over the raw {ns_name} source "
                   f"slice; needs the original document string "
                   f"(reference {ref}). The reference's container "
                   f"overloads there do not compile (untested surface); "
                   f"we implement the intended semantics.")
    return _NS


inner_text = _raw_ns("inner_text", _TextSelector.INNER,
                     "gumbo_matchers.h:641-769")
outer_text = _raw_ns("outer_text", _TextSelector.OUTER,
                     "gumbo_matchers.h:771-899")


class tag:
    """M21 namespace; named constants below mirror the reference's 150
    per-tag matcher constants (reference gumbo_matchers.h:926-1077)."""

    where = TagWhere
    types = TagIs


# The full HTML tag constant set, matching the reference's list
# (reference gumbo_matchers.h:926-1077 — HTML through RTC) — public
# HTML tag names, generated programmatically rather than 150 lines of
# boilerplate.
_ALL_TAGS = (
    "html head title base link meta style script noscript template "
    "body article section nav aside h1 h2 h3 h4 h5 h6 hgroup header "
    "footer address p hr pre blockquote ol ul li dl dt dd figure "
    "figcaption main div a em strong small s cite q dfn abbr data "
    "time code var samp kbd sub sup i b u mark ruby rt rp bdi bdo "
    "span br wbr ins del image img iframe embed object param video "
    "audio source track map area math svg table caption colgroup col "
    "tbody thead tfoot tr td th form fieldset legend label input "
    "button select datalist optgroup option textarea output progress "
    "meter details summary menu menuitem applet acronym bgsound dir "
    "frame frameset noframes isindex listing xmp nextid noembed "
    "plaintext rb strike basefont big blink center font marquee "
    "multicol nobr spacer tt rtc dialog canvas slot picture "
    "mi mo mn ms mtext mglyph malignmark annotation-xml "
    "foreignobject desc keygen"
).split()

for _t in _ALL_TAGS:
    setattr(tag, _t.upper().replace("-", "_"), TagIs(_t))
del _t
