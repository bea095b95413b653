"""The flagship pipeline: interleaved spans → extracted content spans.

Topology (SURVEY.md §3.4) — PURE MAP, no exchange::

    read (column-pruned)
      → map_batches(extract_batch, tasks)     # fused assemble+parse+extract
      → write_parquet (wave-partitioned, atomic, resumable)

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
  manifest (input files, counters, wall time) under ``_lineage/``.
  A rerun skips completed waves (SURVEY.md §4.2 checkpoint/resume).
"""

from __future__ import annotations

import glob
import json
import os
import time
import uuid

import ray.data

from ..html.extract import DEFAULT_PROFILE, ExtractProfile
from ..sources.io import list_input_files, read_interleaved
from ..stages.extractor import extract_batch


def extract_dataset(
    ds: "ray.data.Dataset",
    *,
    profile: ExtractProfile | None = None,
    split_threshold: int | None = 256,
    concurrency=None,
    batch_size: int = 96,
    max_doc_bytes: int | None = 256 * 1024 * 1024,
) -> "ray.data.Dataset":
    """Compose the extraction stages over an interleaved-docs Dataset.

    ``split_threshold`` is the kernel's ``chunk_spans`` slice size: a
    document with more input spans is parsed one slice at a time
    (bounded DOM memory) and emitted as one complete row; ``None``
    parses every document whole. The extraction task stage is the last
    operator: at most ``concurrency`` tasks at once, one CPU each. Each
    call gets a fresh run token, so the workers' extractors (profile,
    payload cache) are scoped to this run.

    ``batch_size`` is the rows per kernel call; the rows per task are
    derived (``state.sizing.rows_per_task``), and ``None`` runs one
    task, and one kernel call, per input block.
    """
    from ..state.sizing import default_pool_size, rows_per_task

    if concurrency is None:
        concurrency = default_pool_size()
    return ds.map_batches(
        extract_batch,
        fn_kwargs={
            "run": uuid.uuid4().hex,
            "batch_size": batch_size,
            "profile": profile,
            "max_doc_bytes": max_doc_bytes,
            "chunk_spans": split_threshold},
        batch_format="pyarrow",
        batch_size=rows_per_task(ds, concurrency, batch_size),
        num_cpus=1,
        concurrency=concurrency,
    )


def _wave_name(i: int) -> str:
    return f"wave-{i:05d}"


def shutil_rmtree(path: str):
    import shutil
    shutil.rmtree(path, ignore_errors=True)


#: A tmp dir younger than this may belong to a LIVE racing run still
#: writing it; deleting it mid-write would crash that run instead of
#: letting it adopt the winner's manifest.  Older tmps are crashed
#: runs' garbage.
_TMP_SWEEP_MIN_AGE_SEC = 3600


def _sweep_stale_tmps(out_dir: str, name: str):
    """Remove orphan tmp dirs for a COMMITTED wave (crashed runs'
    partial writes; the wave's data is already final, so a remaining
    OLD tmp for it is garbage — recent tmps are left alone in case a
    concurrent run is still writing them).  Also matches the
    pre-round-5 un-suffixed `_tmp-{name}` form."""
    candidates = glob.glob(os.path.join(out_dir, f"_tmp-{name}-*"))
    legacy = os.path.join(out_dir, f"_tmp-{name}")
    if os.path.isdir(legacy):
        candidates.append(legacy)
    now = time.time()
    for stale in candidates:
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


def run_extraction(
    input_path: str,
    out_dir: str,
    *,
    profile: ExtractProfile | None = None,
    split_threshold: int | None = 256,
    concurrency=None,
    batch_size: int = 96,
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

    ``output_format="lance"`` writes each wave as a Lance dataset
    (the north rule's storage target) when the ``lance`` wheel is
    importable — raises ImportError otherwise (this sandbox ships no
    lance); ``"parquet"`` (default) writes identically-shaped parquet.
    Wave commit/resume semantics are format-independent.

    ``batch_size`` is the rows per kernel call; the rows per task are
    derived from each wave's row count (see ``extract_dataset``).

    The first run into ``out_dir`` pins the settings that shape the
    output bytes (``split_threshold``, ``max_doc_bytes``,
    ``output_format``, the profile); a later run with different ones
    raises ``ValueError`` before any wave runs.
    """
    if concurrency is None:
        from ..state.sizing import default_pool_size
        concurrency = default_pool_size()
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
        # produce waves whose files feed the wrong reader — fail
        # loudly instead of crashing mid-wave
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
        name = _wave_name(i)
        final_dir = os.path.join(out_dir, name)
        manifest_path = os.path.join(lineage_dir, f"{name}.json")
        if resume and os.path.exists(manifest_path) and os.path.isdir(final_dir):
            with open(manifest_path) as f:
                m = json.load(f)
            committed = m.get("input_files")
            if committed is not None and committed != wave_files:
                # the input set changed under resume: wave boundaries
                # shifted, so skipping by index would silently drop
                # some shards and double-process others.  Fail loudly —
                # resume is only valid over the exact input set that
                # produced the manifests (use a fresh out_dir after
                # adding shards).
                raise ValueError(
                    f"resume mismatch for {name}: manifest was written "
                    f"for {len(committed)} input file(s) that differ "
                    f"from the current wave composition ({len(wave_files)}"
                    f" file(s)). The input set changed since the run "
                    f"being resumed; write to a fresh out_dir.")
            summary["waves_skipped"] += 1
            summary["docs"] += m.get("docs", 0)
            summary["spans"] += m.get("spans", 0)
            summary["errors"] += m.get("errors", 0)
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
            # one task per archive: with no row count known, a batch
            # size packs ALL of a wave's one-row archive blocks into ONE
            # task (measured 10x wave slowdown on the 1M-page drill)
            wave_batch_size = None
        else:
            # 4N read blocks, bundled into 2N tasks by extract_dataset:
            # blocks==files would quantize to ~1 file per worker, and
            # the slowest file would set the wave's critical path
            ds = read_interleaved(
                wave_files,
                override_num_blocks=max(4 * concurrency, len(wave_files)))
            wave_batch_size = batch_size
        out = extract_dataset(ds, profile=profile,
                              split_threshold=split_threshold,
                              concurrency=concurrency,
                              batch_size=wave_batch_size,
                              max_doc_bytes=max_doc_bytes)
        # PER-RUN-UNIQUE tmp name: two runs racing on the same out_dir
        # must never share a tmp path — a shared path let one run's
        # stale-cleanup rmtree delete the other's IN-FLIGHT write and
        # produced a committed wave with mixed-run part files (observed
        # live in the round-5 drill).  With unique tmps, committed
        # waves are always single-writer; a racing loser adopts the
        # winner's manifest at os.replace time (below) or errors — it
        # can never corrupt committed data.  Crashed runs' orphan tmps
        # are swept after this wave commits (_sweep_stale_tmps).
        tmp_dir = os.path.join(out_dir,
                               f"_tmp-{name}-{uuid.uuid4().hex[:8]}")
        # ONE fully-streamed pass: extract → write (the executor
        # pipelines read/parse/write; materializing here would serialize
        # the phases and hold the whole wave in the object store —
        # measured 3x slower end-to-end).
        if output_format == "lance":
            import lance  # noqa: F401  (raises if unavailable)
            out.write_lance(tmp_dir)
        else:
            out.write_parquet(tmp_dir)
        if not os.path.isdir(tmp_dir):
            # a ZERO-ROW wave writes nothing and creates no directory
            # (e.g. WARC archives with no 200 text/html records under
            # html_only) — commit an empty wave dir so resume skips it
            # instead of crashing on the accounting read
            os.makedirs(tmp_dir)
            stats = {"count()": 0, "spans": 0, "perr": 0}
            n_err = 0
        else:
            # post-write accounting from the WRITTEN files: a narrow
            # column-pruned read of the counters, no re-extraction
            if output_format == "lance":
                written = ray.data.read_lance(
                    tmp_dir,
                    columns=["status", "n_spans", "n_parse_errors"])
            else:
                written = ray.data.read_parquet(
                    tmp_dir,
                    columns=["status", "n_spans", "n_parse_errors"])
            # counters over ok rows (error rows carry sentinel -1s);
            # count over everything
            stats = written.filter(expr="status == 'ok'").aggregate(
                ray.data.aggregate.Count(),
                ray.data.aggregate.Sum("n_spans", alias_name="spans"),
                ray.data.aggregate.Sum("n_parse_errors",
                                       alias_name="perr"),
            )
            n_err = written.count() - int(stats["count()"] or 0)
        if n_err:
            # rare path: split the written wave into clean + quarantine
            # (format-aware: the clean wave must match output_format;
            # the quarantine sidecar is for inspection and stays
            # parquet either way)
            qdir = os.path.join(out_dir, "_quarantine", name)
            shutil_rmtree(qdir)
            full = (ray.data.read_lance(tmp_dir)
                    if output_format == "lance"
                    else ray.data.read_parquet(tmp_dir))
            full.filter(expr="status != 'ok'").write_parquet(qdir)
            clean_dir = tmp_dir + "-clean"
            shutil_rmtree(clean_dir)
            clean = full.filter(expr="status == 'ok'")
            if output_format == "lance":
                clean.write_lance(clean_dir)
            else:
                clean.write_parquet(clean_dir)
            shutil_rmtree(tmp_dir)
            tmp_dir = clean_dir
        # atomic commit of the wave — tolerant of a CONCURRENT run on
        # the same out_dir (a lingering prior driver, or two retries
        # racing): os.replace onto an existing non-empty directory
        # raises, and before round 5 that crashed the losing run
        # (observed in the 1M-page drill when a presumed-dead driver
        # was still committing).  First commit wins; the loser's
        # output is byte-identical (same inputs, the run config pinned
        # by _claim_run_config, deterministic extraction), so it is
        # discarded and the wave counted from the winner's manifest.
        try:
            os.replace(tmp_dir, final_dir)
        except OSError:
            if os.path.exists(manifest_path):
                # another run committed this wave while we processed
                # it: adopt its manifest, drop our redundant copy
                shutil_rmtree(tmp_dir)
                with open(manifest_path) as f:
                    m = json.load(f)
                summary["waves_skipped"] += 1
                summary["docs"] += m.get("docs", 0)
                summary["spans"] += m.get("spans", 0)
                summary["errors"] += m.get("errors", 0)
                _sweep_stale_tmps(out_dir, name)
                continue
            # final_dir without a manifest: a crashed run's rename
            # window — clear it and retry once (raises if still stuck)
            shutil_rmtree(final_dir)
            os.replace(tmp_dir, final_dir)
        manifest = {
            "wave": name,
            "input_files": wave_files,
            "docs": int(stats["count()"] or 0) + int(n_err),
            "docs_ok": int(stats["count()"] or 0),
            "spans": int(stats["spans"] or 0),
            "parse_errors": int(stats["perr"] or 0),
            "errors": int(n_err),
            "wall_sec": round(time.perf_counter() - t0, 3),
            # Dataset.stats() excerpt (SURVEY.md §4.2 metrics): per-
            # stage wall/cpu/rows for post-hoc performance forensics
            "stats_excerpt": out.stats()[:2000],
        }
        with open(manifest_path + ".tmp", "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(manifest_path + ".tmp", manifest_path)
        _sweep_stale_tmps(out_dir, name)
        summary["waves_run"] += 1
        summary["docs"] += manifest["docs"]
        summary["spans"] += manifest["spans"]
        summary["errors"] += manifest["errors"]
    return summary
