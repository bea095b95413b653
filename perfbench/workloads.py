"""The workloads: the timed Ray job of each, its output check, and the
in-process path the traced run wraps; plus the two pipelines only the
traced runs time: the wave pipeline (``crawl_waves`` shards) and the
dedup stages (``dedup_near`` rows).

Every Ray job is a closed loop with one client: this process submits one
batch job and waits for its complete result before the next.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import shutil
import time
import uuid
from collections import defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

import checks
from gen import SIZES
from tracing import Tracer, patch


def nproc() -> int:
    """What ``nproc`` reports: the usable cores, capped by
    ``OMP_NUM_THREADS`` when set (as GNU nproc does)."""
    n = len(os.sched_getaffinity(0))
    try:
        return max(1, min(n, int(os.environ["OMP_NUM_THREADS"])))
    except (KeyError, ValueError):
        return n


#: The hot actor pool is sized to ``nproc`` through ``concurrency=``.
NPROC = nproc()
#: Logical CPUs given to Ray.  One per core deadlocks read → actor pool
#: → write on a 1-core box (the read task and the actor each wait for
#: the single CPU); three spare slots keep reads, writes and a lingering
#: actor of the previous job from starving the hot pool.
RAY_CPUS = NPROC + 3


def input_files(src: str) -> list[str]:
    """The shards of an input directory, or ``[src]`` for one shard."""
    if os.path.isfile(src):
        return [src]
    return sorted(glob.glob(os.path.join(src, "*.parquet")))


# ------------------------------------------------------------ Ray jobs

def ray_extract_pages(inp, out, oracle):
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.sources.io import read_interleaved
    ds = read_interleaved(input_files(inp))
    extract_dataset(ds, concurrency=NPROC).write_parquet(out)
    return out


def check_extract_pages(out, oracle):
    return checks.check_spans(checks.read_dir(out), oracle["spans"])


def crawl(inp, out) -> dict:
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction
    cfg = SIZES["crawl_waves"]
    return run_extraction(inp, out, concurrency=NPROC,
                          files_per_wave=cfg["files_per_wave"],
                          max_doc_bytes=cfg["max_doc_bytes"],
                          split_threshold=cfg["split_threshold"])


def check_crawl_waves(out, oracle):
    """``run_extraction`` output: the planted oversize rows quarantined,
    every other row clean (the planted error rows too: the parquet read
    drops their ``input_error`` column)."""
    quarantined = [(r["doc_id"], r["status"]) for r in checks.read_dir(
        os.path.join(out, "_quarantine"), columns=["doc_id", "status"])]
    return checks.check_spans(checks.read_dir(out), oracle["spans"],
                              quarantined,
                              dict.fromkeys(oracle["oversize"], "oversize"))


def needle_selector(needle: str):
    from gumbo_pp_ray.html import match
    return match.tag.P & match.content_text.contains(needle)


def ray_select_rare(inp, out, oracle):
    from gumbo_pp_ray.sources.io import read_parquet_clean
    from gumbo_pp_ray.stages.selector_query import SelectorQuery
    ds = read_parquet_clean(
        input_files(inp),
        columns=["doc_id", "text", "lang", "source", "n_chars"])
    return ds.map_batches(
        SelectorQuery,
        fn_constructor_kwargs={"selector": needle_selector(
            oracle["needle"])},
        batch_format="pyarrow", batch_size=256,
        concurrency=NPROC).take_all()


def check_select_rare(rows, oracle):
    return checks.check_matches(rows, oracle["matches"])


def upstream_map(batch: pa.Table, *, marker_dir: str) -> pa.Table:
    """The benchmark's own upstream stage of the dedup chain: passes the
    batch through and drops one marker file per execution, so hidden
    re-runs of the chain can be counted without touching the engine."""
    with open(os.path.join(marker_dir, uuid.uuid4().hex), "w"):
        pass
    return batch


def dedup_chain(inp: str, marker_dir: str):
    import ray.data
    os.makedirs(marker_dir, exist_ok=True)
    return ray.data.read_parquet(input_files(inp)).map_batches(
        functools.partial(upstream_map, marker_dir=marker_dir),
        batch_format="pyarrow")


def check_dedup_near(res, oracle):
    exact, pairs = res
    return checks.check_dedup(exact, pairs, oracle)


JOBS = {
    "extract_pages": (ray_extract_pages, check_extract_pages),
    "select_rare": (ray_select_rare, check_select_rare),
}


def ray_floor(inp: str, out: str):
    """Identity ``map_batches`` read → write over the same input: the
    Ray Data cost with no engine work in it."""
    import ray.data
    (ray.data.read_parquet(input_files(inp))
        .map_batches(lambda b: b, batch_format="pyarrow")
        .write_parquet(out))


# ------------------------------------------------- in-process (traced)

class Layers:
    """Wraps the calls into each layer for one in-process pass.  With
    ``tracer=None`` the same pass runs unwrapped (the untraced
    baseline for ``trace.overhead_frac``)."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self._stack = None

    def __enter__(self):
        from gumbo_pp_ray.stages import extractor, selector_query
        self._stack = contextlib.ExitStack()
        tr = self.tracer
        if tr is None:
            return self
        c = tr.counts

        def on_parse(doc, args):
            c["html.parse.docs"] += 1
            c["html.parse.mb"] += len(args[0].encode("utf-8",
                                                    "surrogatepass")) / 1e6
            c["html.parse.errors"] += doc.parse_errors

        def on_spans(spans, args):
            c["html.extract_spans.spans"] += len(spans)

        def on_match(node, args):
            c["html.select.matches"] += 1

        p = self._stack.enter_context
        p(patch(extractor, "parse", tr.wrap("html.parse", extractor.parse,
                                            on_parse)))
        p(patch(extractor, "extract_spans",
                tr.wrap("html.extract_spans", extractor.extract_spans,
                        on_spans)))
        p(patch(extractor.ExtractSpans, "__call__",
                tr.wrap("stages.extractor",
                        extractor.ExtractSpans.__call__)))
        sq = selector_query
        p(patch(sq, "parse", tr.wrap("html.parse", sq.parse, on_parse)))
        p(patch(sq, "walk", tr.wrap("html.select", sq.walk)))
        p(patch(sq, "find_all", tr.wrap_iter("html.select", sq.find_all,
                                             on_match)))
        p(patch(sq, "content_text",
                tr.wrap("html.select", sq.content_text)))
        p(patch(sq.SelectorQuery, "__call__",
                tr.wrap("stages.selector_query",
                        sq.SelectorQuery.__call__)))
        return self

    def __exit__(self, *exc):
        self._stack.close()

    def span(self, name: str):
        return (self.tracer.span(name) if self.tracer
                else contextlib.nullcontext())

    def read(self, path: str, columns=None) -> pa.Table:
        with self.span("sources.read"):
            t = pq.read_table(path, columns=columns)
        if self.tracer:
            self.tracer.counts["sources.read.mb"] += t.nbytes / 1e6
        return t

    def write(self, table: pa.Table, path: str):
        with self.span("sources.write"):
            pq.write_table(table, path)
        if self.tracer:
            self.tracer.counts["sources.write.mb"] += table.nbytes / 1e6


def _batches(table: pa.Table, size: int):
    for lo in range(0, table.num_rows, size):
        yield table.slice(lo, size)


def local_extract(files, out: str, layers: Layers, extractor_kw: dict,
                  counts: dict, columns=("doc_id", "spans")):
    """Read → ``ExtractSpans`` per 96-row batch → write, one file at a
    time with one extractor instance (one actor's view)."""
    from gumbo_pp_ray.stages.extractor import ExtractSpans
    os.makedirs(out, exist_ok=True)
    ex = ExtractSpans(**extractor_kw)
    rows = 0
    for i, f in enumerate(files):
        t = layers.read(f, columns=list(columns))
        parts = [ex(b) for b in _batches(t, 96)]
        res = pa.concat_tables(parts)
        rows += res.num_rows
        st = res.column("status").to_pylist()
        counts["stages.extractor.quarantined.oversize"] += st.count(
            "oversize")
        counts["stages.extractor.quarantined.error"] += st.count("error")
        layers.write(res, os.path.join(out, f"part-{i:03d}.parquet"))
    counts["stages.extractor.cache_hits"] += ex.cache_hits
    counts["stages.extractor.rows"] += rows


def local_pages(inp, out, oracle, layers, counts):
    local_extract(input_files(inp), out, layers, {}, counts)
    return out


def local_crawl(inp, out, oracle, layers, counts):
    cfg = SIZES["crawl_waves"]
    files = input_files(inp)
    k = cfg["files_per_wave"]
    kw = {"max_doc_bytes": cfg["max_doc_bytes"],
          "chunk_spans": cfg["split_threshold"]}
    for w in range(0, len(files), k):
        # one extractor per wave, as run_extraction builds one pool
        local_extract(files[w:w + k], os.path.join(out, f"wave-{w // k}"),
                      layers, kw, counts,
                      columns=("doc_id", "spans", "input_error"))
    return out


def check_local_crawl(out, oracle):
    """In-process crawl output: the planted oversize and error rows
    quarantined with their status, every other row clean."""
    rows = checks.read_dir(out)
    clean = [r for r in rows if r["status"] == "ok"]
    quarantined = [(r["doc_id"], r["status"]) for r in rows
                   if r["status"] != "ok"]
    planted = dict.fromkeys(oracle["oversize"], "oversize")
    planted.update(dict.fromkeys(oracle["errors"], "error"))
    expected = {d: v for d, v in oracle["spans"].items()
                if d not in planted}
    return checks.check_spans(clean, expected, quarantined, planted)


def local_select(inp, out, oracle, layers, counts):
    from gumbo_pp_ray.stages.selector_query import SelectorQuery
    q = SelectorQuery(needle_selector(oracle["needle"]))
    rows = []
    for f in input_files(inp):
        t = layers.read(f, columns=["doc_id", "text", "lang", "source",
                                    "n_chars"])
        for b in _batches(t, 256):
            rows.extend(q(b).to_pylist())
            counts["stages.selector_query.docs"] += b.num_rows
    return rows


#: workload → (in-process pass, its output check)
LOCAL = {"extract_pages": (local_pages, check_extract_pages),
         "crawl_waves": (local_crawl, check_local_crawl),
         "select_rare": (local_select, check_select_rare)}


def local_pass(workload, inp, work, oracle, tracer=None):
    """One in-process pass, timed without its output check; returns
    (wall_s, failed, why)."""
    out = os.path.join(work, "local-" + uuid.uuid4().hex[:8])
    counts = tracer.counts if tracer else defaultdict(float)
    run, check = LOCAL[workload]
    with Layers(tracer) as layers:
        t0 = time.perf_counter()
        res = run(inp, out, oracle, layers, counts)
        wall = time.perf_counter() - t0
    failed, why = check(res, oracle)
    shutil.rmtree(out, ignore_errors=True)
    return wall, failed, why


def read_manifests(out: str) -> list[dict]:
    ms = []
    for f in sorted(glob.glob(os.path.join(out, "_lineage", "*.json"))):
        with open(f) as fh:
            ms.append(json.load(fh))
    return ms


# ------------------------------------------ Ray-side layer timings

def _timed(fn, *a, **kw):
    t0 = time.perf_counter()
    res = fn(*a, **kw)
    return res, time.perf_counter() - t0


def crawl_layers(inp: str, out: str, oracle: dict) -> dict:
    """Wave commit cost: ``run_extraction`` against ``extract_dataset``
    + write over the same wave files, and a resume that skips all."""
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.sources.io import read_interleaved
    cfg = SIZES["crawl_waves"]
    _, run_wall = _timed(crawl, inp, out)
    failed, why = check_crawl_waves(out, oracle)
    manifests = read_manifests(out)
    summary, resume_s = _timed(crawl, inp, out)
    if summary["waves_run"]:
        failed, why = oracle["docs"], why + ["resume re-ran a wave"]
    files = input_files(inp)
    k = cfg["files_per_wave"]
    plain = 0.0
    for w in range(0, len(files), k):
        wave = files[w:w + k]

        def extract_write():
            ds = read_interleaved(
                wave, override_num_blocks=max(4 * NPROC, len(wave)))
            extract_dataset(ds, split_threshold=cfg["split_threshold"],
                            concurrency=NPROC,
                            max_doc_bytes=cfg["max_doc_bytes"]
                            ).write_parquet(os.path.join(out, f"p{w}"))
        plain += _timed(extract_write)[1]
    shutil.rmtree(out, ignore_errors=True)
    return {"failed": failed, "why": why, "metrics": {
        "pipelines.waves": len(manifests),
        "pipelines.wave_wall_s": sum(m["wall_sec"] for m in manifests),
        "pipelines.commit_extra_s": run_wall - plain,
        "pipelines.resume_s": resume_s}}


def dedup_layers(inp: str, out: str, oracle: dict) -> dict:
    """exact_dedup and minhash_lsh_pairs timed apart (after one untimed
    pass), and how often each ran the upstream chain per input batch."""
    from gumbo_pp_ray.stages.dedup import exact_dedup, minhash_lsh_pairs

    def markers(name):
        return len(os.listdir(os.path.join(out, name)))
    # untimed, on the first shard: the exchange's code paths run once
    warm = dedup_chain(input_files(inp)[0], os.path.join(out, "warm"))
    exact_dedup(warm).take_all()
    minhash_lsh_pairs(warm, threshold=0.5).take_all()
    dedup_chain(inp, os.path.join(out, "once")).materialize()
    exact, exact_s = _timed(lambda: exact_dedup(
        dedup_chain(inp, os.path.join(out, "exact"))).take_all())
    pairs, minhash_s = _timed(lambda: minhash_lsh_pairs(
        dedup_chain(inp, os.path.join(out, "minhash")),
        threshold=0.5).take_all())
    failed, why = check_dedup_near((exact, pairs), oracle)
    ratio = (markers("exact") + markers("minhash")) / (2 * markers("once"))
    shutil.rmtree(out, ignore_errors=True)
    return {"failed": failed, "why": why, "metrics": {
        "stages.dedup.exact_s": exact_s,
        "stages.dedup.minhash_s": minhash_s,
        "stages.dedup.groups": sum(1 for r in exact if r["n_dups"] > 1),
        "stages.dedup.pairs": len(pairs),
        "stages.dedup.upstream_ratio": ratio}}
