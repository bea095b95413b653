"""Stage sizing from live cluster resources and the plan's metadata.

Sizing rules (each failure mode measured on a single node):

* The ONE hot stage of a pipeline gets a FIXED size
  (``default_pool_size()``): cluster CPUs minus 2, so read/write/
  shuffle tasks keep CPUs. Ray's autoscaling ramps far too slowly for
  batch jobs (autoscale (1,30): 7.4k docs/s vs fixed 24: 15k docs/s).
* Any ADDITIONAL actor pool autoscales from 1 (``default_concurrency``):
  two fixed stages that sum to every core starve the read/shuffle
  tasks — observed as a hard livelock (idle-worker SIGTERM → lost
  blocks → unsatisfiable re-execution); a min of 1 cannot deadlock.
  Stateless stages are plain functions, never pools.
* A hot-stage task gets ``rows_per_task`` rows: two tasks per worker,
  so Ray's fixed cost per task (dispatch, and seeing the finish only
  after the next write or a 0.1 s ``ray.wait``) is paid a few times
  per run, not once per read block.
"""

from __future__ import annotations

import logging
import os

import ray

log = logging.getLogger(__name__)


def default_pool_size(reserve: int = 2, floor: int = 2) -> int:
    """Hot-stage size: cluster CPUs minus a reserve for read/shuffle.

    SINGLE-NODE cap (measured, this VM class): aggregate throughput of
    alloc-heavy parse workers degrades beyond ~24 workers on one box
    (32-CPU medians at sf0.1: pool 24 → 5.3 s, pool 30 → 6.3 s; CPU
    steal + shared memory bandwidth, see BASELINE.md) — so when the
    cluster is one node the size is capped at ``GRAFT_POOL_CAP``
    (default 24).  Multi-node clusters are NEVER capped: concurrency
    is cluster-wide there and must scale with total CPUs — each node
    brings its own memory bandwidth."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:       # not initialised (pure-local unit tests)
        cpus = 4
    size = max(floor, cpus - reserve)
    try:
        single_node = sum(1 for n in ray.nodes() if n.get("Alive")) <= 1
    except Exception:
        single_node = True
    try:
        cap = int(os.environ.get("GRAFT_POOL_CAP", "24"))
    except ValueError:      # config typo must not kill every pipeline
        cap = 24
    if single_node and cap > 0:
        size = min(size, max(floor, cap))
    return size


def default_concurrency(reserve: int = 2, floor: int = 2) -> tuple:
    """Autoscaling actor-pool bounds ``(1, cpus - reserve)`` — for
    SECONDARY actor stages only (see the module docstring)."""
    return (1, default_pool_size(reserve, floor))


def rows_per_task(ds, concurrency: int, floor: int | None) -> int | None:
    """Rows per task of a ``concurrency``-wide stage over ``ds``:
    ``max(floor, ceil(rows / (2 * concurrency)))``, capped at one
    ``target_max_block_size`` of input.  ``rows`` is plan metadata
    (parquet footers), never an execution; unknown rows (e.g. after a
    ``map_batches``) give ``floor``; ``floor=None`` (one task per input
    block) stays ``None``.  Logs the decision."""
    try:
        meta = ds._logical_plan.dag.infer_metadata()
        rows, size = meta.num_rows, meta.size_bytes
        cap = ds.context.target_max_block_size
    except AttributeError:      # a Ray upgrade moved the metadata
        rows = size = cap = None
    n = floor
    if rows and floor is not None:
        n = max(floor, -(-rows // (2 * concurrency)))
        if size and cap:
            n = min(n, max(1, cap * rows // size))
    log.info("task size: rows=%s concurrency=%d rows_per_task=%s "
             "kernel_batch=%s", "unknown" if rows is None else rows,
             concurrency, n or "per block", floor)
    return n
