"""Output checks: compare what the engine produced with the oracle the
generator planted.  Each check returns the number of documents that
failed (missing, duplicated, wrong, or wrongly quarantined) and a few
human-readable reasons."""

from __future__ import annotations

import glob
import os
from collections import Counter

import pyarrow.parquet as pq

from gen import span_digest


def read_dir(path: str, columns=None):
    """All parquet rows under ``path`` (sidecars starting with ``_``
    excluded), as a list of dicts."""
    rows = []
    for f in sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                              recursive=True)):
        if os.path.relpath(f, path).startswith("_"):
            continue
        rows.extend(pq.read_table(f, columns=columns).to_pylist())
    return rows


def _digest(row) -> str:
    return span_digest((s["kind"], s["text"], s["media_ref"], s["offset"])
                       for s in row["spans"])


def check_spans(rows, expected: dict, quarantined=(), planted=None
                ) -> tuple[int, list[str]]:
    """``rows``: extracted rows (doc_id, spans, status).  ``expected``:
    doc_id → span digest of every document that must come out clean.
    ``quarantined``: ``(doc_id, status)`` of the rows the engine set
    aside; ``planted``: doc_id → status of the rows that must be set
    aside."""
    planted = planted or {}
    bad: set[str] = set()
    why: list[str] = []
    seen = Counter(r["doc_id"] for r in rows)
    for r in rows:
        d = r["doc_id"]
        if d not in expected:
            bad.add(d)
            why.append(f"{d}: unexpected row (status={r['status']})")
        elif seen[d] > 1:
            bad.add(d)
            why.append(f"{d}: duplicated x{seen[d]}")
        elif r["status"] != "ok" or _digest(r) != expected[d]:
            bad.add(d)
            why.append(f"{d}: wrong spans (status={r['status']})")
    for d in expected:
        if d not in seen:
            bad.add(d)
            why.append(f"{d}: missing")
    q = Counter(d for d, _st in quarantined)
    for d, st in quarantined:
        if planted.get(d) != st or q[d] > 1:
            bad.add(d)
            why.append(f"{d}: quarantined as {st} x{q[d]}, planted as "
                       f"{planted.get(d)}")
    for d, st in planted.items():
        if d not in q:
            bad.add(d)
            why.append(f"{d}: planted {st} row not quarantined")
    return len(bad), why[:5]


def check_matches(rows, expected: dict) -> tuple[int, list[str]]:
    """Selector output rows (doc_id, match_text) against the needle
    documents; exactly one match per needle document."""
    bad: set[str] = set()
    why: list[str] = []
    seen = Counter(r["doc_id"] for r in rows)
    for r in rows:
        d = r["doc_id"]
        if d not in expected:
            bad.add(d)
            why.append(f"{d}: false positive")
        elif seen[d] > 1 or r["match_text"] != expected[d]:
            bad.add(d)
            why.append(f"{d}: wrong or duplicated match")
    for d in expected:
        if d not in seen:
            bad.add(d)
            why.append(f"{d}: false negative")
    return len(bad), why[:5]


def check_dedup(exact_rows, pair_rows, oracle: dict
                ) -> tuple[int, list[str]]:
    """exact_dedup rows (doc_id = group min, n_dups) and MinHash pairs
    (doc_a < doc_b) against the planted groups and pairs.  Every
    planted pair has true shingle Jaccard >= 0.9 and every other pair
    shares almost nothing, so the expected pair set is exact."""
    n = oracle["docs"]
    groups = oracle["dup_groups"]
    want = {i: 1 for i in range(n)}
    for g in groups:
        for m in g[1:]:
            del want[m]
        want[g[0]] = len(g)
    want_pairs = {(a, b) for a, b, _j in oracle["near_pairs"]}
    for g in groups:
        want_pairs.update((a, b) for i, a in enumerate(g) for b in g[i + 1:])
    bad: set[int] = set()
    why: list[str] = []
    got = Counter(r["doc_id"] for r in exact_rows)
    for r in exact_rows:
        d = r["doc_id"]
        if want.get(d) != r["n_dups"] or got[d] > 1:
            bad.add(d)
            why.append(f"exact: doc {d} n_dups={r['n_dups']}"
                       f" want {want.get(d)}")
    for d in want:
        if d not in got:
            bad.add(d)
            why.append(f"exact: doc {d} missing")
    got_pairs = Counter((r["doc_a"], r["doc_b"]) for r in pair_rows)
    for p, c in got_pairs.items():
        if p not in want_pairs or c > 1:
            bad.update(p)
            why.append(f"minhash: pair {p} unexpected (x{c})")
    for p in want_pairs - set(got_pairs):
        bad.update(p)
        why.append(f"minhash: planted pair {p} missing")
    return len(bad), why[:5]
