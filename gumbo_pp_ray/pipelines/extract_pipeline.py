"""The flagship pipeline: interleaved spans → extracted content spans.

Topology (SURVEY.md §3.4) — PURE MAP, no exchange::

    read (column-pruned, one block per shard)
      → map_batches(extract_batch)            # assemble+parse+extract
      → _WaveSink (ok rows → wave, others → quarantine; atomic, resumable)

Ray fuses the three into one operator: one task per input file reads,
extracts and writes it.

Each input row stays a complete document through extraction, so
nothing is grouped or exchanged. Mega-doc skew is handled inside the
kernel: ``max_doc_bytes`` quarantines byte-bombs and ``split_threshold``
parses an oversized document one span-slice at a time.

Two execution shapes:

* ``extract_dataset(ds)`` — composable Dataset → Dataset transform
  (lazy, streaming; no Ray session management).
* ``run_extraction(input, out)`` — checkpoint-resumable job: input
  shards are processed in waves; each wave's output directory is
  written to a temp name and atomically renamed, with a lineage
  manifest (input files, counters, wall time) under ``_lineage/`` and
  its non-ok rows under ``_quarantine/``.
  A rerun skips completed waves (SURVEY.md §4.2 checkpoint/resume).
"""

from __future__ import annotations

import glob
import json
import os
import time
import uuid
import warnings
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data._internal.datasource.lance_datasink import LanceDatasink
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink, WriteResult

from ..html.extract import DEFAULT_PROFILE, ExtractProfile
from ..sources.io import list_input_files, read_interleaved
from ..stages.extractor import extract_batch


def extract_dataset(
    ds: "ray.data.Dataset",
    *,
    profile: ExtractProfile | None = None,
    split_threshold: int | None = 256,
    concurrency=None,
    batch_size: int | None = 96,
    max_doc_bytes: int | None = 256 * 1024 * 1024,
) -> "ray.data.Dataset":
    """Compose the extraction stage over an interleaved-docs Dataset.

    ``split_threshold`` is the kernel's ``chunk_spans`` slice size: a
    document with more input spans is parsed one slice at a time
    (bounded DOM memory) and emitted as one complete row; ``None``
    parses every document whole. Each call gets a fresh run token, so
    the workers' extractors (profile, payload cache) are scoped to this
    run.

    The stage is a plain map: one task per input block, one CPU each,
    no pool size. Ray fuses it with the read before it and the write
    or maps after it, so ``read_interleaved`` (one block per shard)
    → extract → ``write_parquet`` runs as the one operator
    ``ReadParquet->MapBatches(extract_batch)->Write``: one task per
    file, as many at once as Ray has CPUs. ``batch_size`` is the rows
    per kernel call inside a task (``None``: the whole block in one
    call).

    ``concurrency`` is ignored and deprecated: a sized task pool does
    not fuse with a default write.
    """
    _ignore_concurrency("extract_dataset", concurrency)
    return ds.map_batches(
        extract_batch,
        fn_kwargs={
            "run": uuid.uuid4().hex,
            "batch_size": batch_size,
            "profile": profile,
            "max_doc_bytes": max_doc_bytes,
            "chunk_spans": split_threshold},
        batch_format="pyarrow",
        batch_size=None,
        num_cpus=1,
    )


def _ignore_concurrency(caller: str, concurrency):
    if concurrency is not None:
        warnings.warn(
            f"{caller}: concurrency= is ignored (the extraction stage "
            "runs one task per input block, as wide as Ray's CPUs) and "
            "will be removed", DeprecationWarning, stacklevel=3)


def shutil_rmtree(path: str):
    import shutil
    shutil.rmtree(path, ignore_errors=True)


#: A tmp dir younger than this may belong to a LIVE racing run still
#: writing it; deleting it mid-write would crash that run instead of
#: letting it adopt the winner's manifest.  Older tmps are crashed
#: runs' garbage.
_TMP_SWEEP_MIN_AGE_SEC = 3600


def _sweep_stale_tmps(out_dir: str, name: str):
    """Remove orphan tmp dirs (wave and quarantine) for a COMMITTED
    wave: crashed runs' partial writes; the wave's data is already
    final, so a remaining OLD tmp for it is garbage — recent tmps are
    left alone in case a concurrent run is still writing them."""
    now = time.time()
    for stale in glob.glob(os.path.join(out_dir, f"_tmp-{name}-*")):
        try:
            age = now - os.path.getmtime(stale)
        except OSError:
            continue
        if age >= _TMP_SWEEP_MIN_AGE_SEC:
            shutil_rmtree(stale)


def _claim_run_config(out_dir: str, config: dict):
    """Pin ``out_dir`` to the settings that shape its output bytes.

    The first run creates ``_run_config.json`` (``O_CREAT|O_EXCL``: one
    writer wins even when runs race); every later run — resume, retry
    or racing competitor — must match it before any wave runs, because
    both skipping a committed wave and adopting a racing winner's wave
    assume the outputs are byte-identical."""
    path = os.path.join(out_dir, "_run_config.json")
    # frozenset profile slots serialize as sorted lists
    text = json.dumps(config, sort_keys=True, indent=1, default=sorted)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        with open(path) as f:
            committed = json.load(f)
        mine = json.loads(text)
        if committed != mine:
            diff = sorted(k for k in committed.keys() | mine.keys()
                          if committed.get(k) != mine.get(k))
            raise ValueError(
                f"run config mismatch for {out_dir}: it was started "
                f"with different settings ({', '.join(diff)}) than this "
                f"run. Resuming into it would mix the output of two "
                f"configurations; write to a fresh out_dir.")
        return
    with os.fdopen(fd, "w") as f:
        f.write(text)


class _WaveSink(Datasink):
    """One write per wave: each task sends its ``ok`` rows to
    ``ok_sink`` (the output format's own sink) and the rest to a parquet
    sink at ``quarantine_dir``, and returns its counters (rows by
    status; ``spans``, ``parse_errors`` over ok rows).  At the end each
    inner sink completes on its own returns (Lance commits fragments,
    parquet drops a dir it wrote no row to) and ``counts`` sums them."""

    def __init__(self, ok_sink: Datasink, quarantine_dir: str):
        self.sinks = {"ok": ok_sink,
                      "quarantine": ParquetDatasink(quarantine_dir)}
        self.counts: Counter = Counter()

    def on_write_start(self):
        for sink in self.sinks.values():
            sink.on_write_start()

    def write(self, blocks, ctx):
        # a zero-row block may carry no columns at all
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return Counter(), {k: (0, 0, None) for k in self.sinks}
        t = pa.concat_tables(tables)
        ok = pc.equal(t["status"], "ok")
        parts = {"ok": t.filter(ok), "quarantine": t.filter(pc.invert(ok))}
        counts = Counter(t["status"].to_pylist())
        counts["spans"] = pc.sum(parts["ok"]["n_spans"]).as_py() or 0
        counts["parse_errors"] = pc.sum(
            parts["ok"]["n_parse_errors"]).as_py() or 0
        return counts, {
            k: (p.num_rows, p.nbytes,
                self.sinks[k].write(iter([p]), ctx) if p.num_rows else None)
            for k, p in parts.items()}

    def on_write_complete(self, write_result: WriteResult):
        for k, sink in self.sinks.items():
            done = [r[1][k] for r in write_result.write_returns]
            sink.on_write_complete(WriteResult(
                sum(n for n, _b, _r in done), sum(b for _n, b, _r in done),
                [r for _n, _b, r in done if r is not None]))
        for counts, _ in write_result.write_returns:
            self.counts.update(counts)


def _add_wave(summary: dict, manifest: dict, outcome: str):
    summary[outcome] += 1
    for k in ("docs", "spans", "errors"):
        summary[k] += manifest.get(k, 0)


def run_extraction(
    input_path: str,
    out_dir: str,
    *,
    profile: ExtractProfile | None = None,
    split_threshold: int | None = 256,
    concurrency=None,
    batch_size: int | None = 96,
    files_per_wave: int = 32,
    resume: bool = True,
    max_doc_bytes: int | None = 256 * 1024 * 1024,
    output_format: str = "parquet",
) -> dict:
    """Checkpoint-resumable extraction job. Returns run summary.

    ``input_path`` may hold interleaved parquet/lance shards OR raw
    WARC archives (``.warc``/``.warc.gz`` — detected when no
    parquet/lance shards exist); archives stream through
    ``sources.warc`` and the resume unit is the archive.

    Each wave is one write: ``ok`` rows to the wave dir, the rest
    (``oversize``, ``error``) to ``_quarantine/<wave>/`` as parquet; the
    manifest's counters (``quarantined`` by status too) come from the
    write tasks.  ``output_format="lance"`` writes the wave dir through
    Ray's Lance sink (the north rule's storage target), which raises
    ImportError without the ``lance`` wheel; ``"parquet"`` (default)
    writes identically-shaped parquet.  Commit/resume semantics are
    format-independent.

    Each wave runs as one fused operator, read → extract →
    ``_WaveSink``: one task per input shard (per archive for WARC), as
    many at once as Ray has CPUs, so a wave of one large file is one
    task. ``batch_size`` is the rows per kernel call; ``concurrency``
    is ignored and deprecated (see ``extract_dataset``).

    The first run into ``out_dir`` pins the settings that shape the
    output bytes (``split_threshold``, ``max_doc_bytes``,
    ``output_format``, the profile); a later run with different ones
    raises ``ValueError`` before any wave runs.
    """
    _ignore_concurrency("run_extraction", concurrency)
    # input kind by shard extension: interleaved parquet/lance tables,
    # or raw WARC archives (Common Crawl shape) — WARC waves read the
    # archives and bridge through warc_to_interleaved, so the resume
    # unit is the ARCHIVE either way
    files = list_input_files(input_path)
    warc_input = False
    if not files:
        files = list_input_files(input_path,
                                 exts=(".warc", ".warc.gz"))
        warc_input = bool(files)
    if not files:
        raise FileNotFoundError(f"no input shards under {input_path}")
    kinds = {os.path.splitext(f)[1] for f in files}
    if len(kinds) > 1:
        # a mixed parquet/lance dir (e.g. mid format-conversion) would
        # feed some waves' files to the wrong reader
        raise ValueError(
            f"mixed input shard formats under {input_path}: "
            f"{sorted(kinds)}; run each format separately")
    waves = [files[i:i + files_per_wave]
             for i in range(0, len(files), files_per_wave)]
    lineage_dir = os.path.join(out_dir, "_lineage")
    os.makedirs(lineage_dir, exist_ok=True)
    p = profile or DEFAULT_PROFILE
    _claim_run_config(out_dir, {
        "split_threshold": split_threshold,
        "max_doc_bytes": max_doc_bytes,
        "output_format": output_format,
        "profile": {k: getattr(p, k) for k in ExtractProfile.__slots__},
    })

    summary = {"waves_total": len(waves), "waves_run": 0,
               "waves_skipped": 0, "docs": 0, "spans": 0, "errors": 0}
    for i, wave_files in enumerate(waves):
        name = f"wave-{i:05d}"
        final_dir = os.path.join(out_dir, name)
        manifest_path = os.path.join(lineage_dir, f"{name}.json")
        if resume and os.path.exists(manifest_path) and os.path.isdir(final_dir):
            with open(manifest_path) as f:
                m = json.load(f)
            committed = m.get("input_files")
            if committed is not None and committed != wave_files:
                # the input set changed under resume: wave boundaries
                # shifted, so skipping by index would silently drop
                # some shards and double-process others
                raise ValueError(
                    f"resume mismatch for {name}: manifest was written "
                    f"for {len(committed)} input file(s) that differ "
                    f"from the current wave composition ({len(wave_files)}"
                    f" file(s)). The input set changed since the run "
                    f"being resumed; write to a fresh out_dir.")
            _add_wave(summary, m, "waves_skipped")
            _sweep_stale_tmps(out_dir, name)
            continue
        if os.path.isdir(final_dir):
            # crash window: died after the directory rename but before
            # the manifest write.  The manifest is the commit marker —
            # a final_dir without one is uncommitted output; remove it
            # so the re-run's os.replace cannot collide (rename onto a
            # non-empty directory raises and would wedge resume).
            shutil_rmtree(final_dir)
        t0 = time.perf_counter()
        if warc_input:
            from ..sources.warc import read_warc, warc_to_interleaved
            ds = read_warc(wave_files).map_batches(
                warc_to_interleaved, batch_format="pyarrow")
        else:
            ds = read_interleaved(wave_files)
        out = extract_dataset(ds, profile=profile,
                              split_threshold=split_threshold,
                              batch_size=batch_size,
                              max_doc_bytes=max_doc_bytes)
        # PER-RUN-UNIQUE tmp names (the wave and its quarantine): a
        # tmp shared by two racing runs let one delete the other's
        # in-flight write (a committed wave with mixed-run part files,
        # seen in the round-5 drill).  Committed waves are single-
        # writer; crashed runs' orphan tmps are swept after the commit.
        tmp_dir = os.path.join(out_dir,
                               f"_tmp-{name}-{uuid.uuid4().hex[:8]}")
        # ONE streamed pass: extract → split by status → write
        # (materializing would serialize the phases and hold the wave
        # in the object store — measured 3x slower); the counters come
        # back from the write tasks, nothing reads the wave back.
        qtmp_dir = tmp_dir + "-q"
        sink_cls = (LanceDatasink if output_format == "lance"
                    else ParquetDatasink)
        sink = _WaveSink(sink_cls(tmp_dir), qtmp_dir)
        out.write_datasink(sink)
        # a sink that wrote no row leaves no dir (e.g. WARC archives
        # with no 200 text/html records under html_only): commit an
        # empty wave dir so resume skips it
        os.makedirs(tmp_dir, exist_ok=True)
        # atomic commit, tolerant of a CONCURRENT run on the same
        # out_dir (a lingering driver, racing retries): os.replace onto
        # a non-empty dir raises, and the first commit wins.  The
        # loser's output is byte-identical (same inputs, the run config
        # pinned by _claim_run_config, deterministic extraction), so it
        # drops its tmps and counts the wave from the winner's manifest.
        try:
            os.replace(tmp_dir, final_dir)
        except OSError:
            if os.path.exists(manifest_path):
                # another run committed this wave: adopt its manifest
                shutil_rmtree(tmp_dir)
                shutil_rmtree(qtmp_dir)
                with open(manifest_path) as f:
                    _add_wave(summary, json.load(f), "waves_skipped")
                _sweep_stale_tmps(out_dir, name)
                continue
            # final_dir without a manifest: a crashed run's rename
            # window — clear it and retry once (raises if still stuck)
            shutil_rmtree(final_dir)
            os.replace(tmp_dir, final_dir)
        if os.path.isdir(qtmp_dir):
            # this run won the wave: publish its quarantine (replacing
            # a crashed run's copy for this uncommitted wave)
            qdir = os.path.join(out_dir, "_quarantine", name)
            shutil_rmtree(qdir)
            os.makedirs(os.path.dirname(qdir), exist_ok=True)
            os.replace(qtmp_dir, qdir)
        c = sink.counts
        manifest = {
            "wave": name,
            "input_files": wave_files,
            "docs": c["ok"] + c["oversize"] + c["error"],
            "docs_ok": c["ok"],
            "spans": c["spans"],
            "parse_errors": c["parse_errors"],
            "errors": c["oversize"] + c["error"],
            "quarantined": {"oversize": c["oversize"], "error": c["error"]},
            "wall_sec": round(time.perf_counter() - t0, 3),
            # Dataset.stats() excerpt (SURVEY.md §4.2 metrics): per-
            # stage wall/cpu/rows for post-hoc performance forensics
            "stats_excerpt": out.stats()[:2000],
        }
        with open(manifest_path + ".tmp", "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(manifest_path + ".tmp", manifest_path)
        _sweep_stale_tmps(out_dir, name)
        _add_wave(summary, manifest, "waves_run")
    return summary
