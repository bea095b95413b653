"""Broadcast dimension lookup — the small-side join pattern.

The dimension table is ``ray.put`` ONCE on the driver; each worker
builds its sorted key arrays from the ref once
(``state.broadcast.broadcast_state``; zero-copy shared memory on the
same node) and per batch does a vectorized numpy take — a plain task
stage, no shuffle, nothing re-shipped per batch (ray_guide: joins &
lookups). This is the default join strategy for dimension tables; the
both-sides-large path is a bucketed co-group through
``state.exchange`` (see __ray_entry__ spans_by_lang).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..state.broadcast import broadcast_state


def _dim_arrays(dim) -> tuple:
    return (np.asarray(dim["keys"], dtype=np.int64),
            np.asarray(dim["values"], dtype=object))


def _dim_keys(dim) -> np.ndarray:
    return np.asarray(dim["keys"], dtype=np.int64)


def _lookup_batch(batch: pa.Table, *, dim_ref, fk_col: str, out_col: str,
                  default: str) -> pa.Table:
    keys, values = broadcast_state(_dim_arrays, dim_ref)
    fk = batch.column(fk_col).to_numpy(zero_copy_only=False)
    if not len(keys):
        # empty dimension table: every row misses → default (the
        # unguarded clip(idx, 0, -1) indexed an empty array)
        out = np.full(len(fk), default, dtype=object)
        return batch.append_column(
            out_col, pa.array(out.tolist(), pa.string()))
    idx = np.searchsorted(keys, fk)
    idx_clamped = np.clip(idx, 0, len(keys) - 1)
    hit = keys[idx_clamped] == fk
    out = np.where(hit, values[idx_clamped], default)
    return batch.append_column(out_col,
                               pa.array(out.tolist(), pa.string()))


def broadcast_lookup(ds, dim_ref, *, fk_col: str, out_col: str,
                     default: str = ""):
    """Append ``out_col`` = dim[fk] per row.  ``dim_ref``: broadcast
    dict {"keys": int64 ndarray (sorted), "values": list[str]} (see
    ``broadcast_dim``); unmatched keys get ``default``."""
    return ds.map_batches(
        functools.partial(_lookup_batch, dim_ref=dim_ref, fk_col=fk_col,
                          out_col=out_col, default=default),
        batch_format="pyarrow")


def broadcast_dim(table: pa.Table, key_col: str, val_col: str):
    """Driver-side: dimension table → sorted broadcast payload ref."""
    import ray
    keys = np.asarray(table.column(key_col).to_pylist(), dtype=np.int64)
    vals = np.asarray(table.column(val_col).to_pylist(), dtype=object)
    order = np.argsort(keys, kind="stable")
    return ray.put({"keys": keys[order], "values": vals[order]})


def _membership_batch(batch: pa.Table, *, dim_ref, fk_col: str,
                      mode: str) -> pa.Table:
    keys = broadcast_state(_dim_keys, dim_ref)
    fk = batch.column(fk_col).to_numpy(zero_copy_only=False)
    idx = np.clip(np.searchsorted(keys, fk), 0, max(len(keys) - 1, 0))
    hit = (keys[idx] == fk) if len(keys) else \
        np.zeros(len(fk), dtype=bool)
    keep = hit if mode == "semi" else ~hit
    return batch.filter(pa.array(keep))


def broadcast_membership(ds, dim_ref, *, fk_col: str, mode: str = "semi"):
    """SEMI / ANTI join against a broadcast key set: keep rows whose
    ``fk_col`` is (semi) or is not (anti) in the dimension keys (see
    ``broadcast_keys``).  Same shape as ``broadcast_lookup``: keys built
    once per worker, vectorized searchsorted per batch, no shuffle."""
    if mode not in ("semi", "anti"):
        raise ValueError(f"mode must be 'semi' or 'anti': {mode}")
    return ds.map_batches(
        functools.partial(_membership_batch, dim_ref=dim_ref,
                          fk_col=fk_col, mode=mode),
        batch_format="pyarrow")


def broadcast_keys(table: pa.Table, key_col: str):
    """Driver-side: key column → sorted broadcast key-set ref (for
    ``broadcast_membership``)."""
    import ray
    keys = np.unique(np.asarray(table.column(key_col).to_pylist(),
                                dtype=np.int64))
    return ray.put({"keys": keys})
