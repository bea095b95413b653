"""Streaming-shaped workloads over an ordered, partitioned log.

Ray Data is a batch engine with no event-time watermarks (ray_guide:
streaming-shaped workloads); windows are expressed as
``groupby(key)`` + per-group ordered computation:

* **Tumbling windows**: window id = epoch_us // window_us computed
  VECTORIZED per batch (no shuffle for the id), then a
  ``groupby([key, window_id])`` count — the only exchange carries the
  narrow key columns.
* **Session windows**: TWO-PHASE to bound per-task memory under key
  skew.  Phase 1 groups by (key, coarse time bucket) and emits
  maximal event runs as narrow SEGMENT rows (start_ts, end_ts,
  n_events) — a power user's history is split across buckets, so no
  single task ever holds one user's full event log.  Phase 2 groups
  the segments by key (segment count ≈ n_sessions + n_buckets — tiny)
  and merges boundary-straddling runs, which reproduces exact
  single-pass sessionization because segments partition time and the
  merge rule compares the same inter-event gaps.  The ordering
  assumption (per-key sort within the group) is established by the
  in-group sort, never by block order.

Integer-only outputs (counts, ids) so results are exactly
SQL-reproducible for the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.exchange import exchange, key_buckets, partitions_for
from ..state.sizing import row_count


def _period_ids(batch: pa.Table, *, ts_col: str,
                period_sec: int) -> np.ndarray:
    """ts column → FLOOR(epoch_us / period) int64 ids.  numpy
    floor_divide, not pa.compute.divide: Arrow integer divide
    truncates toward zero, which disagrees with the hopping-window
    numpy ``//`` and the DuckDB ``//`` oracle on pre-epoch
    timestamps (a 1969 event must land in window -1, not 0)."""
    ts = batch.column(ts_col)
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    us = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
    return us // (np.int64(period_sec) * 1_000_000)


def add_tumbling_window(batch: pa.Table, *, window_sec: int,
                        ts_col: str = "ts") -> pa.Table:
    return batch.append_column(
        "window_id",
        pa.array(_period_ids(batch, ts_col=ts_col,
                             period_sec=window_sec)))


def tumbling_counts(ds, *, key: str = "user_id", window_sec: int = 86400,
                    ts_col: str = "ts"):
    """Events per (key, tumbling window) → (user_id, window_id,
    n_events)."""
    import functools
    ds = ds.map_batches(
        functools.partial(add_tumbling_window, window_sec=window_sec,
                          ts_col=ts_col),
        batch_format="pyarrow")
    out = ds.groupby([key, "window_id"]).count()
    return out.map_batches(
        lambda t: t.rename_columns([key, "window_id", "n_events"]),
        batch_format="pyarrow")


def _add_phase_bucket(batch: pa.Table, *, phase_sec: int,
                      ts_col: str) -> pa.Table:
    return batch.append_column(
        "phase_bucket",
        pa.array(_period_ids(batch, ts_col=ts_col,
                             period_sec=phase_sec)))


def _segments_bucket(df: pd.DataFrame, *, gap_sec: int, key: str,
                     ts_col: str) -> pd.DataFrame:
    """Phase 1, one HASH BUCKET of (key, phase_bucket) groups →
    maximal event runs (gap ≤ gap_sec) as segment rows.  The whole
    bucket is processed in one vectorized pass (sort + shift-compare +
    groupby-agg) — one UDF call per bucket, not per group: Ray's
    per-group map_groups dispatch costs ~1-2 ms/group, which dominated
    wall time at ~10k groups."""
    if not len(df):
        # dtype-pinned empty frame (asof.py pattern): object-dtype
        # columns become null-typed Arrow blocks that can fail schema
        # unification against the non-empty partitions
        return pd.DataFrame({
            key: pd.Series([], dtype="int64"),
            "start_ts": pd.Series([], dtype="datetime64[us]"),
            "end_ts": pd.Series([], dtype="datetime64[us]"),
            "n_events": pd.Series([], dtype="int64")})
    g = df.sort_values([key, "phase_bucket", ts_col], kind="stable")
    delta = g[ts_col].diff().dt.total_seconds()
    boundary = ((g[key] != g[key].shift())
                | (g["phase_bucket"] != g["phase_bucket"].shift()))
    seg_id = (boundary | (delta > gap_sec)).cumsum()
    agg = g.groupby(seg_id, sort=True).agg(
        _k=(key, "first"), start_ts=(ts_col, "min"),
        end_ts=(ts_col, "max"), n_events=(ts_col, "size"))
    out = agg.rename(columns={"_k": key}).reset_index(drop=True)
    out["n_events"] = out["n_events"].astype(np.int64)
    return out


def _merge_segments_bucket(df: pd.DataFrame, *, gap_sec: int,
                           key: str) -> pd.DataFrame:
    """Phase 2, one hash bucket of keys: each key's segments
    (time-ordered, non-overlapping because phase buckets partition
    time) merge into final sessions — a segment starts a new session
    iff the gap to the previous segment's end exceeds gap_sec, the
    same inter-event gap the single-pass rule tests.  Vectorized over
    the whole bucket."""
    if not len(df):
        return pd.DataFrame({
            key: pd.Series([], dtype="int64"),
            "session_id": pd.Series([], dtype="int64"),
            "n_events": pd.Series([], dtype="int64")})
    g = df.sort_values([key, "start_ts", "end_ts"], kind="stable")
    new_user = g[key] != g[key].shift()
    gap = (g["start_ts"] - g["end_ts"].shift()).dt.total_seconds()
    new_session = new_user | (gap > gap_sec) | gap.isna()
    sid_global = new_session.cumsum()
    first_of_user = sid_global.groupby(g[key].to_numpy()).transform("min")
    sid = (sid_global - first_of_user).astype(np.int64)
    out = (g.assign(session_id=sid)
            .groupby([key, "session_id"], sort=True)["n_events"].sum()
            .reset_index())
    out["n_events"] = out["n_events"].astype(np.int64)
    return out


def session_windows(ds, *, key: str = "user_id", gap_sec: int = 1800,
                    ts_col: str = "ts", phase_sec: int | None = None,
                    num_partitions: int | None = None):
    """Inactivity-gap sessionization → (user_id, session_id,
    n_events); session_id is the 0-based per-user session index in ts
    order.

    Two-phase: segments within (key, phase bucket), then a per-key
    merge over the narrow segment rows — bounds the largest task by
    events-per-(user, bucket) instead of events-per-user, so one hot
    key cannot OOM a worker at corpus scale.  ``phase_sec`` (default
    16 x gap) trades bucket-group size against segment count; any
    value yields identical results."""
    import functools
    if phase_sec is None:
        phase_sec = max(gap_sec * 16, 3600)
    if num_partitions is None:
        # ~100k events per partition: session rows are narrow
        ds, n = row_count(ds, "session_windows")
        num_partitions = partitions_for(n, 100_000)
    # phase 2 runs over SEGMENT rows (~sessions, orders of magnitude
    # fewer than events) — reusing the events-derived partition count
    # would pay the per-partition fixed sort cost hundreds of times
    # over for near-empty partitions
    p2_partitions = max(8, num_partitions // 64)

    def add_cg_bucket(batch: pa.Table) -> pa.Table:
        # co-group key = hash(key, phase_bucket): a hot user's history
        # still splits across tasks by time bucket
        return batch.append_column("cg_bucket", pa.array(key_buckets(
            batch.column(key), batch.column("phase_bucket"),
            num_buckets=num_partitions)))

    def add_sg_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("sg_bucket", pa.array(key_buckets(
            batch.column(key), num_buckets=p2_partitions)))

    ds = ds.map_batches(
        functools.partial(_add_phase_bucket, phase_sec=phase_sec,
                          ts_col=ts_col),
        batch_format="pyarrow").map_batches(
        add_cg_bucket, batch_format="pyarrow")
    segments = exchange(
        ds, functools.partial(_segments_bucket, gap_sec=gap_sec, key=key,
                              ts_col=ts_col),
        key="cg_bucket", num_partitions=num_partitions,
        batch_format="pandas")
    segments = segments.map_batches(add_sg_bucket, batch_format="pyarrow")
    return exchange(
        segments, functools.partial(_merge_segments_bucket,
                                    gap_sec=gap_sec, key=key),
        key="sg_bucket", num_partitions=p2_partitions,
        batch_format="pandas")


def explode_hopping_windows(batch: pa.Table, *, window_sec: int,
                            hop_sec: int, ts_col: str = "ts",
                            key: str = "user_id") -> pa.Table:
    """Each event belongs to window_sec/hop_sec overlapping windows
    (window w covers [w*hop, w*hop + window)); explode to (key,
    window_id) rows, fully vectorized (np.repeat + ranges)."""
    ts = batch.column(ts_col)
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    us = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
    if len(us) == 0:
        # Ray Data can deliver 0-row blocks (post-filter / empty file);
        # np.repeat of the offsets below would fail to broadcast.
        return pa.table({
            key: batch.column(key).combine_chunks()
            if isinstance(batch.column(key), pa.ChunkedArray)
            else batch.column(key),
            "window_id": pa.array([], pa.int64()),
        })
    w_us = np.int64(window_sec) * 1_000_000
    h_us = np.int64(hop_sec) * 1_000_000
    lo = (us - w_us) // h_us + 1
    hi = us // h_us                           # inclusive
    counts = (hi - lo + 1).astype(np.int64)
    keys = batch.column(key).to_numpy(zero_copy_only=False)
    rep_keys = np.repeat(keys, counts)
    # per-event consecutive window ids, vectorized
    total = int(counts.sum())
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    idx = np.arange(total) - np.repeat(offsets, counts)
    win = np.repeat(lo, counts) + idx
    return pa.table({
        key: pa.array(rep_keys),
        "window_id": pa.array(win, pa.int64()),
    })


def hopping_counts(ds, *, key: str = "user_id", window_sec: int = 3600,
                   hop_sec: int = 900, ts_col: str = "ts"):
    """Events per (key, hopping window): overlapping sliding windows
    of ``window_sec`` advancing every ``hop_sec``.  The explode
    multiplies rows by window/hop — keep the ratio modest (the only
    shuffle then carries (key, window_id) rows)."""
    import functools
    ds = ds.map_batches(
        functools.partial(explode_hopping_windows, window_sec=window_sec,
                          hop_sec=hop_sec, ts_col=ts_col, key=key),
        batch_format="pyarrow")
    out = ds.groupby([key, "window_id"]).count()
    return out.map_batches(
        lambda t: t.rename_columns([key, "window_id", "n_events"]),
        batch_format="pyarrow")
