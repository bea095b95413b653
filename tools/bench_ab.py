"""Benchmark A/B: ``perfbench/run.py`` in another checkout vs this one.

For each seed, runs ``python3 perfbench/run.py --workload W --seed N
--seconds 16 --trace 0`` once in each checkout, from that checkout's
own root (so each side builds and caches its own inputs), the parent
first on odd seeds and this checkout first on even ones.

    python tools/bench_ab.py PARENT_CHECKOUT --workload extract_pages
                             [--seeds 1-10] [--trace 0|1]

Prints one JSON line per run (side, seed, ``correct``, ``failed`` and
the metrics), then one line per metric: both medians, the parent's
quartiles, the pairs the new side wins, the median gain, whether
that gain exceeds the parent's quartile spread, and each seed's
new/parent ratio with the ratios' quartiles (a paired view: the seed's
own speed cancels out of its ratio).  The metrics and their
directions come from ``BENCHMARK.json`` (``end_to_end`` for
``--trace 0``, ``per_layer`` for ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from kernel_ab import HERE, seeds_arg


def run_side(root: str, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "16", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"perfbench failed in {root} (seed {seed}, exit "
                 f"{out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summary(name: str, higher: bool, parent: list[float],
            new: list[float]) -> dict:
    sign = 1 if higher else -1
    p_med, n_med = statistics.median(parent), statistics.median(new)
    q1, q3 = quartiles(parent)
    gain = sign * (n_med - p_med)
    ratios = [n / p for p, n in zip(parent, new) if p]
    r_q1, r_q3 = quartiles(ratios) if ratios else (None, None)
    return {"metric": name, "better": "higher" if higher else "lower",
            "parent_median": p_med, "new_median": n_med,
            "parent_q1": q1, "parent_q3": q3,
            "wins": sum(sign * (n - p) > 0 for p, n in zip(parent, new)),
            "pairs": len(parent),
            "median_gain_frac": round(gain / p_med, 4) if p_med else None,
            "gain_exceeds_parent_iqr": gain > q3 - q1,
            "ratios": [round(r, 4) for r in ratios],
            "ratio_q1_median_q3": [round(r, 4) for r in (
                r_q1, statistics.median(ratios), r_q3)] if ratios else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    with open(os.path.join(HERE, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if a.trace else "end_to_end"]
    sides = {"parent": os.path.abspath(a.parent), "new": HERE}
    values = {side: {m["name"]: [] for m in spec} for side in sides}
    for seed in a.seeds:
        got = {}
        order = ("parent", "new") if seed % 2 else ("new", "parent")
        for side in order:
            r = run_side(sides[side], a.workload, seed, a.trace)
            got[side] = r["metrics"]
            print(json.dumps({
                "side": side, "seed": seed, "correct": r["correct"],
                "failed": r["failed"],
                "metrics": {k: v["value"] for k, v in r["metrics"].items()}}),
                flush=True)
        # a pair counts only when both sides report the metric (traced
        # runs leave out the layers a workload never enters)
        for m in spec:
            if all(m["name"] in got[side] for side in sides):
                for side in sides:
                    values[side][m["name"]].append(
                        got[side][m["name"]]["value"])
    for m in spec:
        if values["parent"][m["name"]]:
            print(json.dumps(summary(
                m["name"], m["better"] == "higher",
                values["parent"][m["name"]], values["new"][m["name"]])))


if __name__ == "__main__":
    main()
