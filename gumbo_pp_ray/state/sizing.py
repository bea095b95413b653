"""Stage sizing from live cluster resources and the plan's metadata.

Sizing rules (each failure mode measured on a single node):

* The ONE hot stage of a pipeline gets a FIXED size
  (``default_pool_size()``): cluster CPUs minus 2, so read/write/
  shuffle tasks keep CPUs. Ray's autoscaling ramps far too slowly for
  batch jobs (autoscale (1,30): 7.4k docs/s vs fixed 24: 15k docs/s).
  Extraction is no longer such a stage: it is a plain map that Ray
  fuses with its read and write (one task per input file, as wide as
  Ray's CPUs; ``pipelines.extract_pipeline``), and a sized pool would
  stop that fusion.
* A stage is a plain task function — stateless, or reading a
  broadcast side through ``state.broadcast.broadcast_state`` (built
  once per warm worker). Only stages whose state is NOT a broadcast
  (the selector, table-scrape, media and PDF stages) are actor pools,
  and those autoscale from 1 (``default_concurrency``): two fixed
  stages that sum to every core starve the read/shuffle tasks —
  observed as a hard livelock (idle-worker SIGTERM → lost blocks →
  unsatisfiable re-execution); a min of 1 cannot deadlock.
* A plan gate that needs a row count asks ``row_count``: the input's
  plan metadata when it knows the count (a parquet read: nothing
  runs), else ONE materialize of the caller's narrow per-document
  stage that its later stages reuse — a lazy upstream never runs
  twice.
"""

from __future__ import annotations

import logging

import ray

log = logging.getLogger(__name__)

#: Hot-stage size cap on a single node (see ``default_pool_size``).
SINGLE_NODE_POOL_CAP = 24


def default_pool_size(reserve: int = 2, floor: int = 2) -> int:
    """Hot-stage size: cluster CPUs minus a reserve for read/shuffle.

    SINGLE-NODE cap (measured, this VM class): aggregate throughput of
    alloc-heavy parse workers degrades beyond ~24 workers on one box
    (32-CPU medians at sf0.1: pool 24 → 5.3 s, pool 30 → 6.3 s; CPU
    steal + shared memory bandwidth, see BASELINE.md) — so when the
    cluster is one node the size is capped at ``SINGLE_NODE_POOL_CAP``.
    Multi-node clusters are NEVER capped: concurrency is cluster-wide
    there and must scale with total CPUs — each node brings its own
    memory bandwidth."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:       # not initialised (pure-local unit tests)
        cpus = 4
    size = max(floor, cpus - reserve)
    try:
        single_node = sum(1 for n in ray.nodes() if n.get("Alive")) <= 1
    except Exception:
        single_node = True
    if single_node:
        size = min(size, max(floor, SINGLE_NODE_POOL_CAP))
    return size


def default_concurrency(reserve: int = 2, floor: int = 2) -> tuple:
    """Autoscaling actor-pool bounds ``(1, cpus - reserve)`` — for the
    non-broadcast actor stages only (see the module docstring)."""
    return (1, default_pool_size(reserve, floor))


def _plan_rows(ds) -> tuple:
    """``(rows, size_bytes)`` from the plan's metadata — parquet
    footers, ``from_arrow`` tables, a materialized dataset's blocks —
    without executing anything; ``None`` for what the plan does not
    know (e.g. rows after a ``map_batches``)."""
    try:
        meta = ds._logical_plan.dag.infer_metadata()
        return meta.num_rows, meta.size_bytes
    except AttributeError:      # a Ray upgrade moved the metadata
        return None, None


def row_count(ds, caller: str, derived=None) -> tuple:
    """``(out, n)`` for a plan gate: ``n`` equals ``ds.count()``.
    ``derived`` is a row-preserving map of ``ds`` that the caller
    builds anyway (its narrowest per-document stage); ``out`` is
    ``derived``, or ``ds`` when none is given.  When ``ds``'s plan
    metadata knows the count, nothing executes and ``out`` comes back
    unchanged; otherwise ``out`` comes back materialized and ``n`` is
    its block-metadata count, so the caller's later stages reuse the
    blocks instead of re-running the upstream.  Logs the number and
    where it came from."""
    out = ds if derived is None else derived
    n, _ = _plan_rows(ds)
    source = "plan"
    if n is None:
        out = out.materialize()
        n, source = out.count(), "materialized"
    log.info("%s: rows=%d source=%s", caller, n, source)
    return out, n
