"""The benchmark's own guarantees: reproducible inputs, an oracle that
notices a wrong span, and a tracer that charges time to the right
layer.  In-process only; no Ray session."""

from __future__ import annotations

import glob
import os
import time

import pyarrow.parquet as pq
import pytest

import checks
import gen
import workloads as W
from tracing import Tracer


def _files(d):
    return {os.path.relpath(f, d): open(f, "rb").read()
            for f in sorted(glob.glob(os.path.join(d, "**", "*"),
                                      recursive=True))
            if os.path.isfile(f)}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    a, oa = gen.ensure_inputs(workload, 7, str(tmp_path / "a"))
    b, ob = gen.ensure_inputs(workload, 7, str(tmp_path / "b"))
    c, oc = gen.ensure_inputs(workload, 8, str(tmp_path / "c"))
    assert _files(a) == _files(b) and _files(a)
    assert oa == ob
    assert _files(a) != _files(c)


def _extracted_rows(inp):
    from gumbo_pp_ray.stages.extractor import ExtractSpans
    f = W.input_files(inp)[0]
    return ExtractSpans()(pq.read_table(f)).to_pylist()


def test_oracle_rejects_one_corrupted_span(tmp_path):
    inp, oracle = gen.ensure_inputs("extract_pages", 3, str(tmp_path))
    rows = _extracted_rows(inp)
    expected = {r["doc_id"]: oracle["spans"][r["doc_id"]] for r in rows}
    assert checks.check_spans(rows, expected) == (0, [])

    victim = rows[len(rows) // 2]
    span = victim["spans"][len(victim["spans"]) // 2]
    span["text"] = span["text"] + "x"
    failed, why = checks.check_spans(rows, expected)
    assert failed == 1 and victim["doc_id"] in why[0]


def test_oracle_flags_missing_duplicate_and_unplanted_quarantine(tmp_path):
    inp, oracle = gen.ensure_inputs("extract_pages", 3, str(tmp_path))
    rows = _extracted_rows(inp)
    expected = {r["doc_id"]: oracle["spans"][r["doc_id"]] for r in rows}
    assert checks.check_spans(rows[1:] + [rows[2]], expected)[0] == 2
    assert checks.check_spans(
        rows, expected, quarantined=[(rows[0]["doc_id"], "error")])[0] == 1


def test_oracle_checks_quarantine_status():
    planted = {"a": "error", "b": "oversize"}
    ok = [("a", "error"), ("b", "oversize")]
    assert checks.check_spans([], {}, ok, planted) == (0, [])
    assert checks.check_spans([], {}, ok[:1], planted)[0] == 1
    assert checks.check_spans([], {}, [("a", "oversize"), ok[1]],
                              planted)[0] == 1


def test_crawl_pass_quarantines_exactly_the_planted_rows(tmp_path):
    inp, oracle = gen.ensure_inputs("crawl_waves", 3, str(tmp_path))
    tracer = Tracer("test")
    _wall, failed, why = W.local_pass("crawl_waves", inp, str(tmp_path),
                                      oracle, tracer)
    assert failed == 0, why
    c = tracer.counts
    assert c["stages.extractor.quarantined.error"] == len(oracle["errors"])
    assert c["stages.extractor.quarantined.oversize"] == len(
        oracle["oversize"])
    assert oracle["errors"] and oracle["oversize"]
    assert c["stages.extractor.cache_hits"] > 0


def _layers(tmp_path, inp, oracle):
    tracer = Tracer("test")
    wall, failed, why = W.local_pass("extract_pages", inp,
                                        str(tmp_path), oracle, tracer)
    assert failed == 0, why
    return tracer.self_times(), wall


def test_injected_sleep_lands_in_one_layer_only(tmp_path, monkeypatch):
    monkeypatch.setitem(gen.SIZES["extract_pages"], "mb", 0.15)
    inp, oracle = gen.ensure_inputs("extract_pages", 5, str(tmp_path))
    _layers(tmp_path, inp, oracle)                     # warm imports
    base, _ = _layers(tmp_path, inp, oracle)

    from gumbo_pp_ray.stages import extractor
    real = extractor.extract_spans
    delay = 0.01

    def slow_extract_spans(*a, **kw):
        time.sleep(delay)
        return real(*a, **kw)
    monkeypatch.setattr(extractor, "extract_spans", slow_extract_spans)
    slow, wall = _layers(tmp_path, inp, oracle)

    injected = delay * oracle["docs"]                  # one call per page
    grew = {k: slow.get(k, 0.0) - base.get(k, 0.0) for k in slow}
    assert grew["html.extract_spans"] >= 0.9 * injected
    for layer, d in grew.items():
        if layer != "html.extract_spans":
            assert abs(d) < 0.25 * injected, (layer, d)
    # the layers' self times account for the whole in-process wall
    assert sum(slow.values()) == pytest.approx(wall, rel=0.1)


def _perfect_dedup(oracle):
    groups = {m: g for g in oracle["dup_groups"] for m in g}
    exact = [{"doc_id": i, "n_dups": len(groups.get(i, [i]))}
             for i in range(oracle["docs"]) if groups.get(i, [i])[0] == i]
    pairs = [{"doc_a": a, "doc_b": b} for a, b, _j in oracle["near_pairs"]]
    pairs += [{"doc_a": a, "doc_b": b} for g in oracle["dup_groups"]
              for i, a in enumerate(g) for b in g[i + 1:]]
    return exact, pairs


def test_dedup_oracle_rejects_missing_and_spurious_pairs(tmp_path):
    _inp, oracle = gen.ensure_inputs("dedup_near", 3, str(tmp_path))
    assert all(j >= 0.9 for _a, _b, j in oracle["near_pairs"])
    exact, pairs = _perfect_dedup(oracle)
    assert checks.check_dedup(exact, pairs, oracle) == (0, [])
    assert checks.check_dedup(exact, pairs[1:], oracle)[0] == 2
    spurious = {"doc_a": pairs[0]["doc_a"], "doc_b": pairs[-1]["doc_b"]}
    assert checks.check_dedup(exact, pairs + [spurious], oracle)[0] == 2
    assert checks.check_dedup(exact[1:], pairs, oracle)[0] == 1


def test_selector_oracle_rejects_a_false_negative(tmp_path):
    inp, oracle = gen.ensure_inputs("select_rare", 3, str(tmp_path))
    raw = {str(r["doc_id"]): r["text"] for f in W.input_files(inp)
           for r in pq.read_table(f).to_pylist()}
    # some needle documents carry the needle only entity-encoded
    hidden = [d for d in oracle["matches"] if oracle["needle"] not in raw[d]]
    assert 0 < len(hidden) < len(oracle["matches"])
    rows = [{"doc_id": d, "match_text": t}
            for d, t in oracle["matches"].items()]
    assert checks.check_matches(rows, oracle["matches"]) == (0, [])
    assert checks.check_matches(rows[1:], oracle["matches"])[0] == 1
