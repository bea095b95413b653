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
A/B'd on its own; each process also reports
``builder_calls_per_page``, the mean number of token calls per page
that reach the Python ``_TreeBuilder`` methods (``start_tag``,
``end_tag``, ``text``, ``comment``, ``doctype``, ``cdata``), counted in
one extra untimed pass: the tokens the native builder hands back or
leaves to ``parse``'s own loop.  ``--layer extract`` parses those
payloads once, untimed, and times ``extract_spans`` alone over the
trees (default profile), the A/B for a change to the span walk.

``--layer job`` times the Ray job instead:
``extract_dataset(read_interleaved(files)).write_parquet(tmp)`` over
each seed's files, in one fresh process per side and Ray CPU budget
(``ray.init(num_cpus=N)`` for each N of ``--ray-cpus``), the sides
alternating.  A rep is the summed wall of one job per seed; the first
rep is a warm-up and is dropped.  It prints each process's executed
plan (the operators of ``Dataset.stats()``, so an A/B cannot compare
an unfused plan by accident), then per side and budget the median rep
wall and the scaling efficiency ``wall@1 / (N * wall@N)`` against the
bar of 0.8.

    python tools/kernel_ab.py PARENT_CHECKOUT [--seeds 1-5] [--reps 5]
                              [--rounds 2] [--layer kernel|parse|extract]
    python tools/kernel_ab.py PARENT_CHECKOUT --layer job --ray-cpus 1,2,4

Prints one JSON line per process, then one summary line per seed
(each side's minimum, ``new/parent``) and the median ratio, or for
``--layer job`` one line per budget.  Children run outside both
checkouts with their side's package first on ``sys.path`` (and on
``PYTHONPATH`` for Ray's workers), so neither side can import the
other's package.
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
res = {"min_cpu_s": round(best, 4),
       "native": None if scan is None else
       "extract" if hasattr(scan, "extract") else
       "build" if hasattr(scan, "build") else "scan"}
if layer == "parse":
    # one more, untimed pass counting the tokens the Python builder
    # methods take (the native builder's hand-backs, and every token
    # parse's own loop tokenizes)
    calls = [0]

    def counted(method):
        def call(*args):
            calls[0] += 1
            return method(*args)
        return call
    tb = parser._TreeBuilder
    methods = {m: getattr(tb, m) for m in ("start_tag", "end_tag", "text",
                                           "comment", "doctype", "cdata")}
    for m, f in methods.items():
        setattr(tb, m, counted(f))
    run(None)
    for m, f in methods.items():
        setattr(tb, m, f)
    res["builder_calls_per_page"] = round(calls[0] / len(work), 2)
print(json.dumps(res))
"""

JOB_CHILD = r"""
import glob, json, os, re, sys, tempfile, time
root, inputs, reps, cpus = sys.argv[1:5]
sys.path.insert(0, root)
import ray
ray.init(num_cpus=int(cpus), include_dashboard=False,
         logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
import gumbo_pp_ray
from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
from gumbo_pp_ray.sources.io import read_interleaved
assert gumbo_pp_ray.__file__.startswith(root), gumbo_pp_ray.__file__
walls = []
with tempfile.TemporaryDirectory() as tmp:
    for rep in range(int(reps) + 1):
        wall = 0.0
        for i, inp in enumerate(inputs.split(os.pathsep)):
            ds = extract_dataset(read_interleaved(
                sorted(glob.glob(inp + "/*.parquet"))))
            t0 = time.perf_counter()
            ds.write_parquet(os.path.join(tmp, f"{rep}-{i}"))
            wall += time.perf_counter() - t0
        if rep:
            walls.append(round(wall, 4))
plan = " | ".join(re.findall(r"^Operator \d+ (.+: \d+ tasks) executed",
                             ds.stats(), re.M))
ray.shutdown()
print(json.dumps({"walls_s": walls, "plan": plan}))
"""


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_side(child: str, root: str, inp: str, reps: int, arg: str,
             cwd: str) -> dict:
    out = subprocess.run([sys.executable, "-c", child, root, inp, str(reps),
                          arg], cwd=cwd, check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": root})
    return json.loads(out.stdout.strip().splitlines()[-1])


def cached_input(seed: int) -> str:
    found = glob.glob(os.path.join(
        HERE, "perfbench", ".cache", f"extract_pages-{seed}-*", "input"))
    if not found:
        sys.exit(f"no cached input for seed {seed}: run "
                 "perfbench/run.py --workload extract_pages "
                 f"--seed {seed} first")
    return found[0]


def main_job(a, sides: dict, cwd: str):
    """``--layer job``: one fresh Ray process per side and budget."""
    inputs = os.pathsep.join(cached_input(seed) for seed in a.seeds)
    walls = {(side, n): [] for side in sides for n in a.ray_cpus}
    for r in range(a.rounds):
        for n in a.ray_cpus:
            order = ("parent", "new") if (n + r) % 2 == 0 else (
                "new", "parent")
            for side in order:
                res = run_side(JOB_CHILD, sides[side], inputs, a.reps,
                               str(n), cwd)
                walls[side, n] += res["walls_s"]
                print(json.dumps({"round": r, "ray_cpus": n, "side": side,
                                  **res}), flush=True)
    lo = min(a.ray_cpus)
    for n in a.ray_cpus:
        med = {side: statistics.median(walls[side, n]) for side in sides}
        eff = {side: round(
            lo * statistics.median(walls[side, lo]) / (n * med[side]), 3)
            for side in sides}
        print(json.dumps({"ray_cpus": n,
                          **{f"{side}_wall_s": round(med[side], 4)
                             for side in sides},
                          "ratio": round(med["new"] / med["parent"], 3),
                          **{f"{side}_efficiency": eff[side]
                             for side in sides},
                          "efficiency_bar": 0.8}), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--layer", choices=("kernel", "parse", "extract", "job"),
                    default="kernel",
                    help="kernel: ExtractSpans batches; parse: parse() + "
                    "release() of each row's payload; extract: "
                    "extract_spans() over the parsed payloads; job: the "
                    "Ray job read -> extract -> write_parquet")
    ap.add_argument("--ray-cpus", type=seeds_arg, default=[1, 2, 4],
                    help="--layer job: Ray CPU budgets, e.g. 1,2,4")
    a = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(a.parent), "new": HERE}
    ratios = []
    with tempfile.TemporaryDirectory() as cwd:
        if a.layer == "job":
            return main_job(a, sides, cwd)
        for seed in a.seeds:
            inp = cached_input(seed)
            best = {"parent": float("inf"), "new": float("inf")}
            calls = {}
            for r in range(a.rounds):
                order = ("parent", "new") if (seed + r) % 2 == 0 else (
                    "new", "parent")
                for side in order:
                    res = run_side(CHILD, sides[side], inp, a.reps,
                                   a.layer, cwd)
                    best[side] = min(best[side], res["min_cpu_s"])
                    if "builder_calls_per_page" in res:
                        calls[side] = res["builder_calls_per_page"]
                    print(json.dumps({"seed": seed, "round": r,
                                      "side": side, **res}), flush=True)
            ratio = best["new"] / best["parent"]
            ratios.append(ratio)
            print(json.dumps({"seed": seed, "parent_s": best["parent"],
                              "new_s": best["new"],
                              "ratio": round(ratio, 3),
                              **({"builder_calls_per_page": calls}
                                 if calls else {})}), flush=True)
    print(json.dumps({"median_ratio": round(statistics.median(ratios), 3)}))


if __name__ == "__main__":
    main()
