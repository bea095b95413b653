"""Kernel A/B: ``ExtractSpans`` CPU time, another checkout vs this one.

Runs ``ExtractSpans`` (96-row batches, a fresh extractor per rep) over
the cached ``extract_pages`` inputs of the benchmark
(``perfbench/.cache/extract_pages-<seed>-*/input``, left by any
``perfbench/run.py --workload extract_pages --seed N`` run).  Each side
and seed runs in its own fresh process; the two sides alternate which
goes first; a process reports the minimum ``time.process_time()`` of
its reps and which native HTML path was active (``"native"``:
``"extract"`` for the C span walk with the C tree builder, ``"build"``
for the C tree builder alone, ``"scan"`` for the older C scanner,
``null`` for the Python fallback; an A/B must not compare the fallback
by accident).  On a host whose speed drifts, even inside one
process, the minimum over fresh processes is the number that repeats.

``--layer parse`` times ``parse()`` plus ``release()`` alone over the
same payloads (each row's spans joined in offset order), without the
row loop, extraction or the payload cache, so a parser change can be
A/B'd on its own.  ``--layer extract`` parses those payloads once,
untimed, and times ``extract_spans`` alone over the trees (default
profile), the A/B for a change to the span walk.

    python tools/kernel_ab.py PARENT_CHECKOUT [--seeds 1-5] [--reps 5]
                              [--rounds 2] [--layer kernel|parse|extract]

Prints one JSON line per process, then one summary line per seed
(each side's minimum, ``new/parent``) and the median ratio.  Children
run outside both checkouts with their side's package first on
``sys.path``, so neither side can import the other's package.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import glob, json, sys, time
root, inp, reps, layer = sys.argv[1:5]
reps = int(reps)
sys.path.insert(0, root)
import pyarrow.parquet as pq
from gumbo_pp_ray.html import parser
from gumbo_pp_ray.stages import extractor
assert extractor.__file__.startswith(root), extractor.__file__
tables = [pq.read_table(f, columns=["doc_id", "spans"])
          for f in sorted(glob.glob(inp + "/*.parquet"))]
if layer == "kernel":
    work = [t.slice(lo, 96) for t in tables
            for lo in range(0, t.num_rows, 96)]

    def run(ex):
        for b in work:
            ex(b)
else:
    work = []
    for t in tables:
        for spans in t.column("spans").to_pylist():
            spans.sort(key=lambda s: s["offset"])
            work.append("".join(s["text"] or "" for s in spans))
    parse, release = parser.parse, extractor.release
    if layer == "parse":
        def run(ex):
            for html in work:
                release(parse(html))
    else:
        docs = [parse(html) for html in work]
        extract_spans = extractor.extract_spans

        def run(ex):
            for doc in docs:
                extract_spans(doc)
best = float("inf")
for _ in range(reps):
    ex = extractor.ExtractSpans()
    t0 = time.process_time()
    run(ex)
    best = min(best, time.process_time() - t0)
scan = getattr(parser, "_scan", None)
print(json.dumps({"min_cpu_s": round(best, 4),
                  "native": None if scan is None else
                  "extract" if hasattr(scan, "extract") else
                  "build" if hasattr(scan, "build") else "scan"}))
"""


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_side(root: str, inp: str, reps: int, layer: str, cwd: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, root, inp, str(reps),
                          layer],
                         cwd=cwd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--layer", choices=("kernel", "parse", "extract"),
                    default="kernel",
                    help="kernel: ExtractSpans batches; parse: parse() + "
                    "release() of each row's payload; extract: "
                    "extract_spans() over the parsed payloads")
    a = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(a.parent), "new": HERE}
    ratios = []
    with tempfile.TemporaryDirectory() as cwd:
        for seed in a.seeds:
            found = glob.glob(os.path.join(
                HERE, "perfbench", ".cache", f"extract_pages-{seed}-*",
                "input"))
            if not found:
                sys.exit(f"no cached input for seed {seed}: run "
                         "perfbench/run.py --workload extract_pages "
                         f"--seed {seed} first")
            best = {"parent": float("inf"), "new": float("inf")}
            for r in range(a.rounds):
                order = ("parent", "new") if (seed + r) % 2 == 0 else (
                    "new", "parent")
                for side in order:
                    res = run_side(sides[side], found[0], a.reps, a.layer, cwd)
                    best[side] = min(best[side], res["min_cpu_s"])
                    print(json.dumps({"seed": seed, "round": r,
                                      "side": side, **res}), flush=True)
            ratio = best["new"] / best["parent"]
            ratios.append(ratio)
            print(json.dumps({"seed": seed, "parent_s": best["parent"],
                              "new_s": best["new"],
                              "ratio": round(ratio, 3)}), flush=True)
    print(json.dumps({"median_ratio": round(statistics.median(ratios), 3)}))


if __name__ == "__main__":
    main()
