"""Batch-level scalar functions — vectorized pre-filters.

The reference's scalar surface is string predicates only (SURVEY.md
§2.9: equality, contains, prefix/suffix, emptiness, dash-match —
reference gumbo_matchers.h M5-M10/M15-M19). The per-node forms live in
``html.select``; these are their BATCH-level pyarrow.compute
counterparts, used to prune rows before a parse stage ever sees them
(ray_guide: vectorized predicate inside map_batches beats row
filters).

Production caller: the selector pushdown of ``stages.selector_query``.
From a selector it derives needles that the content text of every
matching node must contain (``content_text.contains`` / ``starts_with``
/ ``ends_with`` / ``is_`` give their arguments; ``&`` ANDs, ``|`` and
``^`` OR, anything else gives no bound) and evaluates them here with
``needle_mask``.  A row of the selector template is parsed only if one
of its template columns is null or holds ``<`` ``&`` ``"`` CR NUL, or
``"t" + text + lang`` satisfies the needles.  Sound because, without
those characters, no markup, entity or attribute break-out can enter
the template, so its tree is fixed and every node's content text is a
substring of ``"t" + text + lang``.
"""

from .prefilters import (
    payload_contains, payload_matches_any, drop_empty_payloads,
    dash_match,
)

__all__ = ["payload_contains", "payload_matches_any",
           "drop_empty_payloads", "dash_match"]
