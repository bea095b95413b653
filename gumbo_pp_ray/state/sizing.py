"""Stage sizing from live cluster resources.

A hot stage that reserves every CPU starves the read/write/shuffle
stages and serializes the pipeline (ray_guide: size concurrency x
num_cpus to the node ALONGSIDE the other stages) — leaves 2 CPUs free.
"""

from __future__ import annotations

import os

import ray


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
    SECONDARY actor stages only.

    Sizing rules (both failure modes measured on a single node):

    * The ONE hot stage of a pipeline gets a FIXED size
      (``default_pool_size()``); extraction is a task stage, so it
      runs on warm workers and pays no actor start-up. Ray's
      autoscaling policy ramps far too slowly for batch jobs —
      measured 2x slower end-to-end than a fixed pool on identical
      input (autoscale (1,30): 7.4k docs/s vs fixed 24: 15k docs/s).
    * Any ADDITIONAL actor pool in the same pipeline autoscales from 1
      (this function): two fixed stages that sum to every core starve
      the read/shuffle tasks — observed as a hard livelock
      (idle-worker SIGTERM → lost blocks → unsatisfiable
      re-execution). A min of 1 cannot deadlock.
    * Stateless stages are plain functions, never pools.
    """
    return (1, default_pool_size(reserve, floor))
