"""Vectorized string predicates over Arrow batches (SURVEY.md §2.9).

Each helper is a ``map_batches``-ready function (or returns a boolean
mask) built on ``pyarrow.compute`` kernels — zero Python per row.
``contains_any`` / ``needle_mask`` evaluate the needle bounds that
``stages.selector_query`` derives from a selector, so its pushdown
parses only the rows that can match.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc


def payload_contains(batch: pa.Table, *, column: str, needle: str
                     ) -> pa.Table:
    """Keep rows whose string column contains ``needle``
    (batch form of M6/M15)."""
    return batch.filter(pc.match_substring(batch.column(column), needle))


def contains_any(col, needles) -> pa.ChunkedArray | pa.Array:
    """Boolean mask: the string contains ANY needle (the variadic-OR
    contract of the reference's matcher overloads); all false for no
    needles, null for a null string."""
    if not needles:
        return pa.repeat(False, len(col))
    return functools.reduce(pc.or_, (pc.match_substring(col, n)
                                     for n in needles))


def needle_mask(col, bound) -> pa.ChunkedArray | pa.Array:
    """Evaluate a needle bound over a string column.  A bound is
    ``("any", needles)`` (contains one of them), ``("and", bounds)`` or
    ``("or", bounds)``."""
    op, arg = bound
    if op == "any":
        return contains_any(col, arg)
    return functools.reduce(pc.and_ if op == "and" else pc.or_,
                            (needle_mask(col, b) for b in arg))


def payload_matches_any(batch: pa.Table, *, column: str,
                        needles: tuple) -> pa.Table:
    """Keep rows whose string column contains ANY needle."""
    return batch.filter(contains_any(batch.column(column), needles))


def drop_empty_payloads(batch: pa.Table, *, column: str) -> pa.Table:
    """Drop null/empty strings (batch form of M16 emptiness) — the
    skip-empty pre-filter in front of a parse stage."""
    col = batch.column(column)
    keep = pc.and_(col.is_valid(),
                   pc.greater(pc.utf8_length(col), 0))
    return batch.filter(keep)


def dash_match(col: pa.ChunkedArray | pa.Array, prefix: str):
    """Boolean mask for CSS ``[a|=v]`` dash-match semantics
    (value == prefix or startswith prefix + '-'; batch form of M5,
    reference gumbo_matchers.h:244-259)."""
    return pc.or_(pc.equal(col, prefix),
                  pc.starts_with(col, prefix + "-"))


def contains_filter(column: str, needle: str):
    """functools.partial convenience for map_batches."""
    return functools.partial(payload_contains, column=column,
                             needle=needle)
