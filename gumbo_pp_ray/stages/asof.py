"""As-of (point-in-time) join — the guide's co-group pattern.

``asof_join_events_orders``: for every event, the most recent order of
the same customer at or before the event time. Shape (ray_guide: as-of
/ range join): both sides are tagged with a source flag, unioned and
bucketed by key (``state.exchange``), and each bucket group runs one
``pandas.merge_asof(..., by=key, direction="backward")`` over
ts-sorted frames — per-bucket work is a linear merge; the exchange
carries only the join columns.

Determinism: the right side is sorted by (ts, right_id) so ties on the
as-of timestamp resolve to the highest id — the same rule the SQL
oracle uses. Events with no matching order are dropped (inner as-of),
keeping the output schema null-free and dtype-exact vs the oracle.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.exchange import exchange, key_buckets, partitions_for
from ..state.sizing import row_count


def _tag_left(batch: pa.Table) -> pa.Table:
    n = len(batch)
    return pa.table({
        "key": batch.column("user_id").cast(pa.int64()),
        "ts": batch.column("ts"),
        "left_id": batch.column("event_id").cast(pa.int64()),
        "right_id": pa.nulls(n, pa.int64()),
        "src": pa.array(np.zeros(n, dtype=np.int8)),
    })


def _tag_right(batch: pa.Table) -> pa.Table:
    n = len(batch)
    return pa.table({
        "key": batch.column("o_custkey").cast(pa.int64()),
        "ts": batch.column("o_orderdate"),
        "left_id": pa.nulls(n, pa.int64()),
        "right_id": batch.column("o_orderkey").cast(pa.int64()),
        "src": pa.array(np.ones(n, dtype=np.int8)),
    })


def _bucket_asof(group: pd.DataFrame) -> pd.DataFrame:
    left = group[group["src"] == 0]
    right = group[group["src"] == 1]
    if left.empty or right.empty:
        return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                             "user_id": pd.Series([], dtype="int64"),
                             "o_orderkey": pd.Series([], dtype="int64")})
    left = left.sort_values("ts", kind="stable")
    # tie rule: highest right_id wins at equal ts (merge_asof backward
    # takes the last row ≤ ts in sort order)
    right = right.sort_values(["ts", "right_id"], kind="stable")
    merged = pd.merge_asof(
        left[["key", "ts", "left_id"]],
        right[["key", "ts", "right_id"]],
        on="ts", by="key", direction="backward")
    merged = merged.dropna(subset=["right_id"])
    return pd.DataFrame({
        "event_id": merged["left_id"].astype("int64"),
        "user_id": merged["key"].astype("int64"),
        "o_orderkey": merged["right_id"].astype("int64"),
    })


#: target rows per bucket group — one bucket's pandas frame (join
#: columns only, ~40 B/row) stays well under a worker's heap
_ROWS_PER_BUCKET = 250_000


def _bucketed_union(events_ds, orders_ds, num_buckets: int | None):
    """Both sides pruned to the join columns, unioned and bucketed by
    key; ``num_buckets=None`` sizes from the sides' row counts
    (floor 16)."""
    left = events_ds.map_batches(_tag_left, batch_format="pyarrow")
    right = orders_ds.map_batches(_tag_right, batch_format="pyarrow")
    if num_buckets is None:
        left, n_left = row_count(events_ds, "asof events", left)
        right, n_right = row_count(orders_ds, "asof orders", right)
        num_buckets = partitions_for(n_left + n_right, _ROWS_PER_BUCKET,
                                     floor=16)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("bucket", pa.array(key_buckets(
            batch.column("key"), num_buckets=num_buckets)))

    return (left.union(right).map_batches(add_bucket,
                                          batch_format="pyarrow"),
            num_buckets)


def _add_slice(batch: pa.Table, *, slice_sec: int) -> pa.Table:
    ts = batch.column("ts")
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    us = ts.cast(pa.int64())
    return batch.append_column(
        "slice", pa.compute.divide(us, np.int64(slice_sec) * 1_000_000))


def _sliced_asof_phase1(group: pd.DataFrame) -> pd.DataFrame:
    """One HASH PARTITION of (key-bucket, time-slice) cells: in-slice
    merge_asof vectorized over every cell at once
    (``by=["key", "slice"]``) — one Ray dispatch per partition, not
    per cell (per-group dispatch at ~1-2 ms dominated wall time at
    buckets x slices group counts).  Emits matched rows (kind=0),
    UNMATCHED events (kind=1 — their match, if any, precedes the
    slice) and one last-order summary row per (key, slice) (kind=2)
    for the carry pass."""
    left = group[group["src"] == 0]
    right = group[group["src"] == 1]
    out = []
    if not left.empty and not right.empty:
        ls = left.sort_values("ts", kind="stable")
        rs = right.sort_values(["ts", "right_id"], kind="stable")
        merged = pd.merge_asof(
            ls[["key", "slice", "bucket", "ts", "left_id"]],
            rs[["key", "slice", "ts", "right_id"]],
            on="ts", by=["key", "slice"], direction="backward")
        hit = merged.dropna(subset=["right_id"])
        out.append(pd.DataFrame({
            "kind": 0, "bucket": hit["bucket"].astype("int64"),
            "key": hit["key"].astype("int64"),
            "slice": hit["slice"].astype("int64"),
            "left_id": hit["left_id"].astype("int64"),
            "right_id": hit["right_id"].astype("int64"),
            "ts": hit["ts"]}))
        miss = merged[merged["right_id"].isna()]
        out.append(pd.DataFrame({
            "kind": 1, "bucket": miss["bucket"].astype("int64"),
            "key": miss["key"].astype("int64"),
            "slice": miss["slice"].astype("int64"),
            "left_id": miss["left_id"].astype("int64"),
            "right_id": -1, "ts": miss["ts"]}))
    elif not left.empty:
        out.append(pd.DataFrame({
            "kind": 1, "bucket": left["bucket"].astype("int64"),
            "key": left["key"].astype("int64"),
            "slice": left["slice"].astype("int64"),
            "left_id": left["left_id"].astype("int64"),
            "right_id": -1, "ts": left["ts"]}))
    if not right.empty:
        # per-(key, slice) last order (tie rule: max (ts, id))
        last = (right.sort_values(["ts", "right_id"], kind="stable")
                .groupby(["key", "slice"], sort=False).tail(1))
        out.append(pd.DataFrame({
            "kind": 2, "bucket": last["bucket"].astype("int64"),
            "key": last["key"].astype("int64"),
            "slice": last["slice"].astype("int64"),
            "left_id": -1,
            "right_id": last["right_id"].astype("int64"),
            "ts": last["ts"]}))
    if not out:
        return pd.DataFrame({"kind": pd.Series([], dtype="int64"),
                             "bucket": pd.Series([], dtype="int64"),
                             "key": pd.Series([], dtype="int64"),
                             "slice": pd.Series([], dtype="int64"),
                             "left_id": pd.Series([], dtype="int64"),
                             "right_id": pd.Series([], dtype="int64"),
                             "ts": pd.Series([], dtype="datetime64[us]")})
    return pd.concat(out, ignore_index=True)


def _sliced_asof_phase2(group: pd.DataFrame) -> pd.DataFrame:
    """One key-bucket of carry rows: for each unmatched event (kind=1)
    find the last-order summary (kind=2) of the latest EARLIER slice —
    slices partition time, so any earlier-slice order precedes the
    event.  Matched rows (kind=0) pass through."""
    matched = group[group["kind"] == 0]
    out = [pd.DataFrame({
        "event_id": matched["left_id"].astype("int64"),
        "user_id": matched["key"].astype("int64"),
        "o_orderkey": matched["right_id"].astype("int64")})]
    miss = group[group["kind"] == 1]
    summ = group[group["kind"] == 2]
    if not miss.empty and not summ.empty:
        ms = miss.sort_values("slice", kind="stable")
        ss = summ.sort_values(["slice", "ts", "right_id"], kind="stable")
        carried = pd.merge_asof(
            ms[["key", "slice", "left_id"]],
            ss[["key", "slice", "right_id"]],
            on="slice", by="key", direction="backward",
            allow_exact_matches=False)    # strictly earlier slice
        hit = carried.dropna(subset=["right_id"])
        out.append(pd.DataFrame({
            "event_id": hit["left_id"].astype("int64"),
            "user_id": hit["key"].astype("int64"),
            "o_orderkey": hit["right_id"].astype("int64")}))
    return pd.concat(out, ignore_index=True)


def asof_join_events_orders(events_ds, orders_ds, *,
                            num_buckets: int | None = None,
                            slice_sec: int | None = None):
    """(event_id, user_id, o_orderkey) — latest order at or before each
    event's timestamp, per customer.

    ``num_buckets=None`` derives the bucket count from the events'
    and orders' row counts so per-bucket frames stay bounded as
    inputs grow (``state.sizing.row_count``: a parquet-read side is
    counted from its footers; a lazy side is materialized once, pruned
    to the join columns, and reused).
    Both sides are pruned to the join columns BEFORE the bucket
    shuffle (_tag_left/_tag_right), so a bucket group holds ~1/B of
    the narrow join keys, never the full payload rows.

    ``slice_sec`` defuses HOT KEYS: with it set, phase 1 groups by
    (key bucket, time slice) — a hot key's history is split across
    slices, so no task holds it whole — and resolves in-slice matches;
    events whose match precedes their slice re-group per key with ONE
    last-order summary row per (key, slice) and take the latest
    earlier slice's carry (exact, because slices partition time).
    Phase-2 load per key = unmatched events + slice summaries, not the
    full history.  ``None`` keeps the single-pass shape."""
    both, num_buckets = _bucketed_union(events_ds, orders_ds, num_buckets)
    if slice_sec is None:
        return exchange(both, _bucket_asof, num_partitions=num_buckets,
                        batch_format="pandas")
    both = both.map_batches(
        functools.partial(_add_slice, slice_sec=slice_sec),
        batch_format="pyarrow")

    def add_cell_bucket(batch: pa.Table) -> pa.Table:
        # phase-1 partition = hash(bucket, slice): a hot key's history
        # still splits across tasks by slice, but each task processes
        # MANY cells in one vectorized pass
        return batch.append_column("cell", pa.array(key_buckets(
            batch.column("bucket"), batch.column("slice"),
            num_buckets=num_buckets)))

    both = both.map_batches(add_cell_bucket, batch_format="pyarrow")
    phase1 = exchange(both, _sliced_asof_phase1, key="cell",
                      num_partitions=num_buckets, batch_format="pandas")
    return exchange(phase1, _sliced_asof_phase2,
                    num_partitions=num_buckets, batch_format="pandas")


def _bucket_range_count(group: pd.DataFrame, *, window_sec: int
                        ) -> pd.DataFrame:
    """One key bucket: per event, count same-key orders with
    o_orderdate in [ts - window, ts].  Orders are sorted once per key
    and each key's events resolve both interval bounds with
    np.searchsorted — per-key work is O((E+O) log O), never a
    cartesian merge."""
    left = group[group["src"] == 0]
    right = group[group["src"] == 1]
    if left.empty:
        return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                             "user_id": pd.Series([], dtype="int64"),
                             "n_orders": pd.Series([], dtype="int64")})
    out_e, out_u, out_n = [], [], []
    window = np.timedelta64(window_sec, "s")
    rs = right.sort_values(["key", "ts"], kind="stable")
    r_keys = rs["key"].to_numpy()
    r_ts = rs["ts"].to_numpy()
    uniq = np.unique(r_keys)
    key_index = dict(zip(
        uniq.tolist(),
        zip(np.searchsorted(r_keys, uniq, side="left").tolist(),
            np.searchsorted(r_keys, uniq, side="right").tolist())))
    for key, ev in left.groupby("key", sort=False):
        ets = ev["ts"].to_numpy()
        span = key_index.get(key)
        if span is None:
            counts = np.zeros(len(ets), dtype=np.int64)
        else:
            lo, hi = span
            odates = r_ts[lo:hi]
            a = np.searchsorted(odates, ets - window, side="left")
            b = np.searchsorted(odates, ets, side="right")
            counts = (b - a).astype(np.int64)
        out_e.extend(ev["left_id"].astype("int64").tolist())
        out_u.extend([int(key)] * len(ets))
        out_n.extend(counts.tolist())
    return pd.DataFrame({"event_id": pd.Series(out_e, dtype="int64"),
                         "user_id": pd.Series(out_u, dtype="int64"),
                         "n_orders": pd.Series(out_n, dtype="int64")})


def range_count_events_orders(events_ds, orders_ds, *,
                              window_sec: int = 30 * 86400,
                              num_buckets: int | None = None):
    """Range (interval) join, counting form: for every event, the
    number of same-customer orders with o_orderdate in
    [ts - window_sec, ts].  Same bucketed co-group shape as the as-of
    join; the exchange carries only join columns.  Events with zero
    matching orders are KEPT (count 0) so the output is total over
    events."""
    both, num_buckets = _bucketed_union(events_ds, orders_ds, num_buckets)
    return exchange(
        both, functools.partial(_bucket_range_count, window_sec=window_sec),
        num_partitions=num_buckets, batch_format="pandas")
