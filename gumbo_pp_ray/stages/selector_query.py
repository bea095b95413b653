"""Distributed selector queries over the documents table.

Each documents row is rendered into a FIXED per-row HTML template, a
compiled selector (the reference's matcher algebra, SURVEY.md §2.3-2.4)
is applied over the parsed DOM with ``find_all`` (Q2), and every match
emits ``(doc_id, match_text)`` — ``match_text`` = normalized content
text of the matched node (E1).

Because the template is a pure function of the row's columns, each
selector query has an exact ANSI-SQL oracle over the original table
(see ``__ray_entry__.oracle_sql``): the correctness gate for matcher
semantics at distributed scale.

Template (per row)::

  <html><head><title>t</title></head><body>
  <div id="doc-{id}" class="{lang}" data-source="{source}"><p>{text}</p></div>
  <span id="lang-{id}" lang="{lang}-std" data-note="...">{lang}</span>
  </body></html>

(``data-note`` is empty for short docs and ``"long"`` for
``n_chars > 300`` — gives the M10 empty/has-value matchers a
selective, SQL-reproducible predicate.)

The stage is a callable class: the selector is compiled/deserialized
ONCE per actor, not per batch.

Selector pushdown: both stages parse only the rows that can match.
Once per actor, ``selector_bound`` derives from the selector AST a
necessary condition on the content text of any matching node: sets
of needles (that text contains one of the set), combined by AND / OR:

* ``content_text.contains`` / ``starts_with`` / ``ends_with`` / ``is_``
  give their arguments (no bound if one of them is ``""``);
* ``All`` gives the AND of its parts' bounds (unbounded parts skipped);
  ``AnyOf`` / ``OneOf`` the OR (no bound if any part has none);
* ``Not``, ``Where``, ``TextWhere``, ``is_empty``, the inner/outer text
  modes and the tag/attribute leaves give no bound.

Per batch, ``pushdown_mask`` tests that bound with ``pyarrow.compute``
and the batch is filtered before the row loop.  A row is kept if

* any template column (``doc_id``, ``text``, ``lang``, ``source``) is
  null or holds one of ``<`` ``&`` ``"`` CR NUL — markup can split a
  needle (``win<b>dow``), an entity or a dropped NUL can build one, a
  quote can break out of an attribute — or is of a type other than
  string or integer; or
* ``"t" + text + lang`` satisfies the bound.

The rule never drops a true match: for every other row the tree is
exactly the template, whose text nodes are ``t`` (title), ``text``
(``<p>``) and ``lang`` (``<span>``) in document order, so the content
text of any node is a substring of ``"t" + text + lang``; a needle in
a node's content text is in that string.  A selector with no bound
keeps every row.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.prefilters import needle_mask
from ..html.parser import parse
from ..html.select import (
    All, AnyOf, OneOf, TextContains, TextEndsWith, TextIs, TextStartsWith,
)
from ..html.text import content_text
from ..html.walk import find_all, walk

_NEEDLE_LEAVES = (TextContains, TextStartsWith, TextEndsWith, TextIs)
# characters that let a column change the template's tree or text
_MARKUP_RE = r'[<&"\r\x00]'
_TEMPLATE_COLUMNS = ("doc_id", "text", "lang", "source")


def _join(op, bounds):
    return bounds[0] if len(bounds) == 1 else (op, tuple(bounds))


def selector_bound(sel):
    """Needle bound of ``sel`` (see module docstring): a bound for
    ``functions.prefilters.needle_mask`` that the content text of every
    node ``sel`` matches satisfies, or None (no bound)."""
    if isinstance(sel, _NEEDLE_LEAVES):
        if sel.mode != sel.CONTENT or not all(
                isinstance(a, str) and a for a in sel.args):
            return None
        return ("any", sel.args)
    if isinstance(sel, All):
        bounds = [b for b in map(selector_bound, sel.parts)
                  if b is not None]
        return _join("and", bounds) if bounds else None
    if isinstance(sel, (AnyOf, OneOf)):
        return _any_bound(sel.parts)
    return None


def _any_bound(selectors):
    """OR of the selectors' bounds; None if there are none or one of
    them has none."""
    bounds = [selector_bound(s) for s in selectors]
    if not bounds or None in bounds:
        return None
    return _join("or", bounds)


def _as_text(col):
    """The column as the template's f-string renders it, or None where
    an Arrow string cast may differ from ``str()``."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col
    if pa.types.is_integer(col.type):
        return pc.cast(col, pa.string())
    return None


def pushdown_mask(batch: pa.Table, bound):
    """Rows of ``batch`` that may hold a node matching a selector with
    needle ``bound`` (rule and soundness: module docstring)."""
    cols = {name: _as_text(batch.column(name))
            for name in _TEMPLATE_COLUMNS}
    if None in cols.values():
        return pa.repeat(True, batch.num_rows)
    keep = needle_mask(pc.binary_join_element_wise(
        "t", cols["text"], cols["lang"], ""), bound)
    for col in cols.values():
        keep = pc.or_kleene(keep, pc.match_substring_regex(col, _MARKUP_RE))
    return pc.fill_null(keep, True)


def _prefilter(batch: pa.Table, bound) -> pa.Table:
    return batch if bound is None else batch.filter(
        pushdown_mask(batch, bound))


def selector_doc_html(doc_id, text, lang, source, n_chars=None) -> str:
    # data-long is present iff n_chars > 300 — gives presence-style
    # matchers (attribute.exists, xor combinations) a selective,
    # SQL-reproducible predicate
    long_attr = " data-long=\"y\"" if (n_chars or 0) > 300 else ""
    note = "long" if (n_chars or 0) > 300 else ""
    return (f"<html><head><title>t</title></head><body>"
            f"<div id=\"doc-{doc_id}\" class=\"{lang}\" "
            f"data-source=\"{source}\"{long_attr}><p>{text}</p></div>"
            f"<span id=\"lang-{doc_id}\" lang=\"{lang}-std\" "
            f"data-note=\"{note}\">{lang}</span>"
            f"</body></html>")


class MultiSelectorQuery:
    """Compound selector query: ONE parse per document, a whole named
    family of compiled selectors applied to the tree, each match
    emitting ``(doc_id, matcher, match_text)``.

    This folds what used to be N independent driver queries (N parses
    of the same corpus) into one pass — the per-matcher oracles stay
    exact (UNION ALL with a ``matcher`` literal per branch), and the
    whole matcher surface fits inside the driver's per-round query
    budget (VERDICT r3 item 1).
    """

    def __init__(self, selectors):
        # dict name -> picklable Selector AST; compiled once per actor
        self.selectors = list(selectors.items())
        self.bound = _any_bound(selectors.values())

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _prefilter(batch, self.bound)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        sources = batch.column("source").to_pylist()
        if "n_chars" in batch.schema.names:
            n_chars = batch.column("n_chars").to_pylist()
        else:
            n_chars = [None] * len(ids)
        out_ids, out_names, out_texts = [], [], []
        for i, t, lg, src, nc in zip(ids, texts, langs, sources, n_chars):
            doc = parse(selector_doc_html(i, t, lg, src, nc))
            nodes = list(walk(doc))
            for name, sel in self.selectors:
                for node in nodes:
                    if sel(node):
                        out_ids.append(str(i))
                        out_names.append(name)
                        out_texts.append(content_text(
                            node, normalize_ws=True,
                            include_comments=False))
        return pa.table({"doc_id": pa.array(out_ids, pa.string()),
                         "matcher": pa.array(out_names, pa.string()),
                         "match_text": pa.array(out_texts, pa.string())})


class SelectorQuery:
    def __init__(self, selector):
        self.selector = selector        # picklable Selector AST
        self.bound = selector_bound(selector)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sel = self.selector
        batch = _prefilter(batch, self.bound)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        sources = batch.column("source").to_pylist()
        if "n_chars" in batch.schema.names:
            n_chars = batch.column("n_chars").to_pylist()
        else:
            n_chars = [None] * len(ids)
        out_ids, out_texts = [], []
        for i, t, lg, src, nc in zip(ids, texts, langs, sources, n_chars):
            doc = parse(selector_doc_html(i, t, lg, src, nc))
            for node in find_all(walk(doc), sel):
                out_ids.append(str(i))
                out_texts.append(content_text(node, normalize_ws=True,
                                              include_comments=False))
        return pa.table({"doc_id": pa.array(out_ids, pa.string()),
                         "match_text": pa.array(out_texts, pa.string())})
