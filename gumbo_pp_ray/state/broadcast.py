"""Broadcast small sides: ``ray.put`` once on the driver, then read
through ``broadcast_state`` in a plain ``map_batches`` task — never
re-shipped per batch, never a shuffle join, and no actor pool to
spin up (ray_guide: joins & lookups).

Usage::

    def _sorted_keys(dim):                  # module level: the cache key
        return np.sort(dim["keys"])

    def lookup_batch(batch, *, dim_ref):
        keys = broadcast_state(_sorted_keys, dim_ref)   # once per worker
        ...

    ds.map_batches(functools.partial(lookup_batch, dim_ref=ray.put(dim)))
"""

from __future__ import annotations

import ray

#: build function → (ref, build(ray.get(ref))) of this worker process.
_state: dict = {}


def broadcast_state(build, ref):
    """``build(obj)`` for the object behind ``ref``, built once per
    worker process.  One entry per ``build``: a new ref replaces the
    old entry, whose state is freed first, so a worker pins at most one
    broadcast object per stage kind.  A plain object (not an
    ``ObjectRef``, as in a local test) is built on every call and never
    cached."""
    if not isinstance(ref, ray.ObjectRef):
        return build(ref)
    if build not in _state or _state[build][0] != ref:
        _state.pop(build, None)          # free the old ref's state first
        _state[build] = (ref, build(ray.get(ref)))
    return _state[build][1]
