#!/usr/bin/env python3
"""gumbo_pp_ray benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload extract_pages --seed 1 \
        --seconds 16 --trace 0

Run from the root of a checkout.  The inputs of ``(workload, seed)``
are generated once into ``perfbench/.cache`` together with their
oracle; every job's output is checked against that oracle.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several Ray session start + preflight cycles), the median job ``wall_s``
over the timed repetitions, the throughputs derived from it and the
peak summed RSS of the run's processes.  ``--trace 1`` prints the
per-layer metrics of a separate traced run (see README.md).

This process is only the guard: the run itself happens in a child in
its own session.  A child that gives no result within ``GUARD_S`` is
killed with every process of its session; such a run, or one whose
child died without a result, is reported with all of its documents
failed and the cause printed.  The last line of standard output is
always the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import uuid
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
WORK = os.path.join(HERE, ".work")
TRACES = os.path.join(HERE, ".traces")
WORKLOADS = ("extract_pages", "select_rare")

#: Wall-clock limit of one run, set-up included (a run must end in 180 s).
GUARD_S = 150
#: Ray session start + preflight cycles per run; setup_s is their median.
SETUPS = 3
#: Timed jobs per run at least; more while their walls sum to less than
#: ``--seconds``.  wall_s is their median.
MIN_REPS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "docs_per_s": "1/s",
              "input_mb_per_s": "MB/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "html.parse.self_s": "s", "html.parse.docs": "count",
    "html.parse.mb": "MB", "html.parse.errors": "count",
    "html.extract_spans.self_s": "s", "html.extract_spans.spans": "count",
    "html.select.self_s": "s", "html.select.matches": "count",
    "stages.extractor.self_s": "s", "stages.extractor.cache_hits": "count",
    "stages.extractor.cache_hit_ratio": "ratio",
    "stages.extractor.quarantined.oversize": "count",
    "stages.extractor.quarantined.error": "count",
    "stages.selector_query.self_s": "s",
    "stages.selector_query.parse_ratio": "ratio",
    "stages.dedup.exact_s": "s", "stages.dedup.minhash_s": "s",
    "stages.dedup.groups": "count", "stages.dedup.pairs": "count",
    "stages.dedup.upstream_ratio": "ratio",
    "sources.read.self_s": "s", "sources.read.mb": "MB",
    "sources.write.self_s": "s", "sources.write.mb": "MB",
    "pipelines.waves": "count", "pipelines.wave_wall_s": "s",
    "pipelines.commit_extra_s": "s", "pipelines.resume_s": "s",
    "ray.floor_s": "s", "ray.overhead_s": "s",
    "trace.overhead_frac": "ratio", "trace.self_sum_frac": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}})


# ------------------------------------------------------------- guard

def session_pids(sid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:        # field 6: session id
            pids.append(int(name))
    return pids


def reap_session(sid: int, timeout: float = 15.0):
    """SIGKILL every process left in session ``sid`` and wait until all
    are gone (Ray daemons and workers stay in the child's session)."""
    deadline = time.monotonic() + timeout
    while True:
        left = session_pids(sid)
        if not left or time.monotonic() > deadline:
            return left
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def guard(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "gumbo_pp_ray", "__init__.py")):
        print(f"perfbench: no gumbo_pp_ray package in {ROOT}; run from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # Ray workers inherit the environment of the process that starts
    # Ray: this is what lets them import the engine (otherwise the actor
    # constructor fails and Ray Data retries it forever)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    cause = None
    try:
        out, _ = proc.communicate(timeout=GUARD_S)
    except subprocess.TimeoutExpired:
        cause = f"guard: no result within {GUARD_S} s (hang)"
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    left = reap_session(proc.pid)
    if left:
        print(f"perfbench: processes {left} survived SIGKILL",
              file=sys.stderr)
    if out:
        print(out, end="")
    lines = out.splitlines()
    if cause is None:
        if proc.returncode == 0 and lines and lines[-1].startswith("{"):
            return 0
        cause = f"run failed: exit {proc.returncode} without a result"
    docs = 1
    for path in glob.glob(os.path.join(
            CACHE, f"{args.workload}-{args.seed}-*", "oracle.json")):
        with open(path) as f:
            docs = json.load(f)["docs"]
    print(json.dumps({"guard": cause, "workload": args.workload,
                      "seed": args.seed, "failed_frac": 1.0}))
    print(f"perfbench: {cause}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(result_line(False, docs, docs, {k: 0.0 for k in units}, units))
    return 0


# ------------------------------------------------------------- child

def ray_worker(pid: int) -> bool:
    """Ray titles its worker processes ``ray::<task or actor>``; its
    daemons (GCS, raylet, agents) keep their program names."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read(5) == b"ray::"
    except OSError:
        return False


class RssSampler(threading.Thread):
    """Peak summed RSS (MB) of the benchmark process and the Ray worker
    processes of this run's session; Ray's daemons are left out."""

    def __init__(self, interval: float = 0.2):
        super().__init__(daemon=True)
        self.interval = interval
        self.sid = os.getsid(0)
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0.0
        self._halt = threading.Event()

    def sample(self) -> float:
        total = 0
        me = os.getpid()
        for pid in session_pids(self.sid):
            if pid != me and not ray_worker(pid):
                continue
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1])
            except OSError:
                continue
        return total * self.page / 1e6

    def run(self):
        while not self._halt.wait(self.interval):
            self.peak = max(self.peak, self.sample())

    def reset(self) -> float:
        peak, self.peak = self.peak, self.sample()
        return max(peak, self.peak)

    def stop(self):
        self._halt.set()
        self.join()


class PreflightError(RuntimeError):
    pass


def start_ray(cpus: int) -> str:
    """Start a Ray session; returns its session directory."""
    import logging
    import ray
    import ray.data
    ray.init(num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 1024 * 1024)
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray._private.worker._global_node.get_session_dir_path()


def import_engine() -> str:
    """Import every engine module the jobs use, with Ray Data."""
    import ray.data  # noqa: F401
    import gumbo_pp_ray.pipelines.extract_pipeline  # noqa: F401
    import gumbo_pp_ray.stages.dedup  # noqa: F401
    import gumbo_pp_ray.stages.selector_query  # noqa: F401
    return gumbo_pp_ray.__file__


def preflight():
    """The workers must be able to import the engine: a plain task, so
    a failure raises here instead of an actor retrying forever.  It
    imports every module the jobs use, so import-time work of the engine
    lands in ``setup_s``."""
    import ray

    @ray.remote(max_retries=0)
    def probe():
        return import_engine()
    try:
        ray.get(probe.remote(), timeout=60)
    except Exception as e:          # any failure here means: no run
        raise PreflightError(f"preflight: Ray workers cannot import "
                             f"gumbo_pp_ray ({type(e).__name__}: {e})")


def settle(cpus: int, timeout: float = 10.0):
    """Bring the Ray session to the same state before every timed job.

    A finished job's actors hold their logical CPUs until its Dataset is
    garbage-collected, so collect and wait until every CPU is free.  A
    job also takes an idle worker process for its actor, which dies with
    the job: a job that finds too few idle workers starts one while it
    runs, and back-to-back jobs alternated between a slow and a fast
    wall.  Running ``cpus`` concurrent tasks refills the idle pool
    first; each imports what the jobs import, so that no job's actor
    pays those imports on a fresh worker.  Ray's view of free CPUs lags
    behind finished tasks, so it is awaited once more after them."""
    import gc
    import ray

    @ray.remote(num_cpus=1)
    def hold():
        import_engine()
        time.sleep(0.3)

    def await_free_cpus():
        deadline = time.monotonic() + timeout
        while (ray.available_resources().get("CPU", 0) < cpus
               and time.monotonic() < deadline):
            time.sleep(0.05)
    gc.collect()
    await_free_cpus()
    ray.get([hold.remote() for _ in range(cpus)])
    await_free_cpus()


class Run:
    """One child run: its inputs, working directory and tallies."""

    def __init__(self, args):
        import gen
        import workloads
        self.W = workloads
        self.wl = args.workload
        self.seed = args.seed
        self.inp, self.oracle = gen.ensure_inputs(self.wl, args.seed, CACHE)
        self.work = os.path.join(WORK, uuid.uuid4().hex[:8])
        os.makedirs(self.work)
        self.job, self.check = workloads.JOBS[self.wl]
        self.attempted = self.failed = 0
        self.why: list[str] = []
        self.sampler = RssSampler()
        self.sessions: list[str] = []

    def shutdown(self):
        """Stop the Ray session and delete every session directory this
        run created."""
        import ray
        ray.shutdown()
        for d in self.sessions:
            shutil.rmtree(d, ignore_errors=True)
        self.sessions.clear()

    def out_dir(self) -> str:
        return os.path.join(self.work, uuid.uuid4().hex[:8])

    def tally(self, failed: int, why: list[str], docs: int | None = None):
        self.attempted += docs or self.oracle["docs"]
        self.failed += failed
        self.why.extend(why)

    def rep(self) -> tuple[float, float]:
        """One timed job, checked; returns (wall_s, peak_rss_mb)."""
        out = self.out_dir()
        settle(self.W.RAY_CPUS)
        self.sampler.reset()
        t0 = time.perf_counter()
        res = self.job(self.inp, out, self.oracle)
        wall = time.perf_counter() - t0
        peak = self.sampler.reset()
        self.tally(*self.check(res, self.oracle))
        shutil.rmtree(out, ignore_errors=True)
        return wall, peak

    def setups(self, n: int) -> list[float]:
        """``n`` cycles of Ray session start and preflight; the last
        session stays up.  Then the workload's own job runs once, untimed,
        on the first input shard, so that every code path of the timed
        job has run in this session before timing starts."""
        times = []
        for k in range(n):
            if k:
                self.shutdown()
            t0 = time.perf_counter()
            self.sessions.append(start_ray(self.W.RAY_CPUS))
            preflight()
            times.append(time.perf_counter() - t0)
        out = self.out_dir()
        self.job(self.W.input_files(self.inp)[0], out, self.oracle)
        shutil.rmtree(out, ignore_errors=True)
        return times

    def timed(self, seconds: float, info: dict) -> dict:
        setups = self.setups(SETUPS)
        self.sampler.start()
        walls, peaks = [], []
        while len(walls) < MIN_REPS or sum(walls) < seconds:
            w, p = self.rep()
            walls.append(w)
            peaks.append(p)
        info.update(setups_s=[round(x, 4) for x in setups],
                    walls_s=[round(x, 4) for x in walls])
        wall = median(walls)
        return {"setup_s": median(setups), "wall_s": wall,
                "docs_per_s": self.oracle["docs"] / wall,
                "input_mb_per_s": self.oracle["input_bytes"] / 1e6 / wall,
                "peak_rss_mb": median(peaks)}

    def traced(self, info: dict) -> dict:
        """Per-layer metrics.  Ray side: the workload's job twice, the
        Ray floor over its input, the wave pipeline and the dedup stages.
        In-process, on one thread: the workload's own path, untraced and
        traced in turn (after one warm pass), then one traced pass of
        each other in-process path over this seed's inputs, so that each
        layer is measured in the traced run of either workload."""
        import gen
        from tracing import Tracer
        W, wl, oracle = self.W, self.wl, self.oracle
        self.setups(1)
        m = {}
        ray_wall = median([self.rep()[0] for _ in range(2)])
        floors = []
        for _ in range(2):
            out = self.out_dir()
            t0 = time.perf_counter()
            W.ray_floor(self.inp, out)
            floors.append(time.perf_counter() - t0)
            shutil.rmtree(out, ignore_errors=True)
        m["ray.floor_s"] = median(floors)
        m.update(self.waves())
        m.update(self.dedup())
        plain, traced = [], []
        # the first pass pays the imports; the others alternate
        self.tally(*W.local_pass(wl, self.inp, self.work, oracle)[1:])
        for _ in range(2):
            wall, bad, why = W.local_pass(wl, self.inp, self.work, oracle)
            plain.append(wall)
            self.tally(bad, why)
            own = Tracer(f"{wl}-{self.seed}-{wl}")
            wall, bad, why = W.local_pass(wl, self.inp, self.work, oracle,
                                          own)
            traced.append(wall)
            self.tally(bad, why)
        tracers = {wl: own}
        for path in W.LOCAL:
            if path == wl:
                continue
            inp, orc = gen.ensure_inputs(path, self.seed, CACHE)
            tracers[path] = Tracer(f"{wl}-{self.seed}-{path}")
            _wall, bad, why = W.local_pass(path, inp, self.work, orc,
                                           tracers[path])
            self.tally(bad, why, orc["docs"])
        self_s, c = {}, {}
        for tr in tracers.values():
            for k, v in tr.self_times().items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in tr.counts.items():
                c[k] = c.get(k, 0.0) + v
        for layer in ("html.parse", "html.extract_spans", "html.select",
                      "stages.extractor", "stages.selector_query",
                      "sources.read", "sources.write"):
            m[f"{layer}.self_s"] = self_s[layer]
        for k in ("html.parse.docs", "html.parse.mb", "html.parse.errors",
                  "html.extract_spans.spans", "html.select.matches",
                  "sources.read.mb", "sources.write.mb"):
            m[k] = c[k]
        # the extractor's cache and quarantine counters of the crawl
        # pass alone (the unique pages never hit the cache)
        crawl = tracers["crawl_waves"].counts
        for k in ("stages.extractor.cache_hits",
                  "stages.extractor.quarantined.oversize",
                  "stages.extractor.quarantined.error"):
            m[k] = crawl[k]
        m["stages.extractor.cache_hit_ratio"] = (
            crawl["stages.extractor.cache_hits"]
            / crawl["stages.extractor.rows"])
        sel = tracers["select_rare"].counts
        m["stages.selector_query.parse_ratio"] = (
            sel["html.parse.docs"] / sel["stages.selector_query.docs"])
        m["ray.overhead_s"] = ray_wall - median(plain)
        m["trace.overhead_frac"] = median(traced) / median(plain) - 1
        m["trace.self_sum_frac"] = sum(own.self_times().values()) / traced[-1]
        info.update(ray_wall_s=round(ray_wall, 4),
                    local_wall_s=round(median(plain), 4),
                    traced_wall_s=round(median(traced), 4))
        os.makedirs(TRACES, exist_ok=True)
        for tr in tracers.values():
            tr.dump(os.path.join(TRACES, f"{tr.run_id}.json"))
        return {k: m[k] for k in PER_LAYER}

    def dedup(self) -> dict:
        """The dedup stages over this seed's ``dedup_near`` rows (planted
        exact-duplicate groups and near-duplicate pairs, read through a
        lazy chain): ``exact_dedup`` and ``minhash_lsh_pairs`` timed
        apart, checked, and how often each re-ran the chain."""
        import gen
        inp, oracle = gen.ensure_inputs("dedup_near", self.seed, CACHE)
        settle(self.W.RAY_CPUS)
        r = self.W.dedup_layers(inp, self.out_dir(), oracle)
        self.tally(r["failed"], r["why"], oracle["docs"])
        return r["metrics"]

    def waves(self) -> dict:
        """The wave pipeline over this seed's ``crawl_waves`` shards (3
        waves; near and far duplicates, planted oversize and error rows,
        mega-docs): ``run_extraction``'s commit and resume cost."""
        import gen
        inp, oracle = gen.ensure_inputs("crawl_waves", self.seed, CACHE)
        settle(self.W.RAY_CPUS)
        r = self.W.crawl_layers(inp, self.out_dir(), oracle)
        self.tally(r["failed"], r["why"], oracle["docs"])
        return r["metrics"]


def child(args) -> int:
    import ray
    run = Run(args)
    units = PER_LAYER if args.trace else END_TO_END
    info = {"workload": run.wl, "seed": args.seed, "trace": args.trace,
            "nproc": run.W.NPROC, "cores": len(os.sched_getaffinity(0)),
            "ray_version": ray.__version__, "ray_cpus": run.W.RAY_CPUS,
            "docs": run.oracle["docs"],
            "input_mb": run.oracle["input_bytes"] / 1e6}
    try:
        m = run.traced(info) if args.trace else run.timed(args.seconds, info)
    except PreflightError as e:
        print(json.dumps(dict(info, guard=str(e), failed_frac=1.0)))
        print(f"perfbench: {e}", file=sys.stderr)
        docs = run.oracle["docs"]
        print(result_line(False, docs, docs, {k: 0.0 for k in units},
                          units))
        return 0
    finally:
        if run.sampler.is_alive():
            run.sampler.stop()
        run.shutdown()
        shutil.rmtree(run.work, ignore_errors=True)
    info.update(failed_frac=run.failed / run.attempted,
                failures=run.why[:5])
    print(json.dumps(info))
    print(result_line(run.failed == 0, run.attempted, run.failed, m, units))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return child(args) if args.child else guard(args)


if __name__ == "__main__":
    sys.exit(main())
