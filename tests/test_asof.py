"""As-of join tests with genuinely interleaved timestamps (the
testdata's orders all precede its events, so the real point-in-time
semantics are pinned here)."""

import datetime as dt

import pandas as pd
import pyarrow as pa

from gumbo_pp_ray.stages.asof import asof_join_events_orders


def _ts(*args):
    return dt.datetime(2024, 1, *args)


def make_tables():
    events = pd.DataFrame([
        {"event_id": 1, "user_id": 7, "ts": _ts(10)},
        {"event_id": 2, "user_id": 7, "ts": _ts(20)},
        {"event_id": 3, "user_id": 8, "ts": _ts(5)},
        {"event_id": 4, "user_id": 9, "ts": _ts(2)},   # before any order
    ])
    orders = pd.DataFrame([
        {"o_orderkey": 100, "o_custkey": 7, "o_orderdate": _ts(5)},
        {"o_orderkey": 101, "o_custkey": 7, "o_orderdate": _ts(15)},
        {"o_orderkey": 102, "o_custkey": 8, "o_orderdate": _ts(5)},   # same ts as event
        {"o_orderkey": 103, "o_custkey": 8, "o_orderdate": _ts(5)},   # tie → max key
        {"o_orderkey": 104, "o_custkey": 9, "o_orderdate": _ts(9)},
    ])
    def t(df):
        tb = pa.Table.from_pandas(df, preserve_index=False)
        for c in tb.schema.names:
            if tb.schema.field(c).type == pa.timestamp("ns"):
                tb = tb.set_column(tb.schema.names.index(c), c,
                                   tb.column(c).cast(pa.timestamp("us")))
        return tb
    return t(events), t(orders)


def test_asof_semantics(ray_session):
    import ray.data
    ev, od = make_tables()
    out = asof_join_events_orders(ray.data.from_arrow(ev),
                                  ray.data.from_arrow(od),
                                  num_buckets=4).take_all()
    got = {r["event_id"]: r["o_orderkey"] for r in out}
    assert got == {
        1: 100,      # latest order at/before Jan 10 for user 7
        2: 101,      # Jan 15 order precedes Jan 20 event
        3: 103,      # equal-timestamp tie → highest orderkey
        # event 4 has no prior order → dropped (inner as-of)
    }
    assert all(r["user_id"] in (7, 8) for r in out)


def test_asof_auto_buckets(ray_session):
    # num_buckets=None derives from input counts and stays correct
    import ray.data
    ev, od = make_tables()
    out = asof_join_events_orders(ray.data.from_arrow(ev),
                                  ray.data.from_arrow(od)).take_all()
    got = {r["event_id"]: r["o_orderkey"] for r in out}
    assert got == {1: 100, 2: 101, 3: 103}


def test_asof_bucketing_spans_keys(ray_session):
    # many keys per bucket; results must not depend on bucket count
    import ray.data
    ev, od = make_tables()
    a = asof_join_events_orders(ray.data.from_arrow(ev),
                                ray.data.from_arrow(od),
                                num_buckets=1).take_all()
    b = asof_join_events_orders(ray.data.from_arrow(ev),
                                ray.data.from_arrow(od),
                                num_buckets=16).take_all()
    key = lambda r: (r["event_id"], r["o_orderkey"])
    assert sorted(map(key, a)) == sorted(map(key, b))


def test_asof_sliced_matches_unsliced(ray_session):
    import ray.data
    ev, od = make_tables()
    base = asof_join_events_orders(ray.data.from_arrow(ev),
                                   ray.data.from_arrow(od),
                                   num_buckets=4).take_all()
    # tiny slices force cross-slice carries
    sliced = asof_join_events_orders(ray.data.from_arrow(ev),
                                     ray.data.from_arrow(od),
                                     num_buckets=4,
                                     slice_sec=86400).take_all()
    key = lambda r: (r["event_id"], r["user_id"], r["o_orderkey"])
    assert sorted(map(key, base)) == sorted(map(key, sliced))


def test_asof_sliced_hot_key_randomized(ray_session):
    """One hot user owns most events; sliced mode must agree with a
    local reference while splitting the hot history across slices."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    rng = np.random.RandomState(17)
    base = dt.datetime(2024, 1, 1)
    ev_rows, od_rows = [], []
    eid = oid = 0
    for u, n_ev, n_od in [(1, 300, 12), (2, 30, 5), (3, 20, 0)]:
        for _ in range(n_ev):
            eid += 1
            ev_rows.append({"event_id": eid, "user_id": u,
                            "ts": base + dt.timedelta(
                                minutes=int(rng.randint(0, 20000)))})
        for _ in range(n_od):
            oid += 1
            od_rows.append({"o_orderkey": oid, "o_custkey": u,
                            "o_orderdate": base + dt.timedelta(
                                minutes=int(rng.randint(0, 20000)))})

    def t(df):
        tb = pa.Table.from_pandas(df, preserve_index=False)
        for c in tb.schema.names:
            if tb.schema.field(c).type == pa.timestamp("ns"):
                tb = tb.set_column(tb.schema.names.index(c), c,
                                   tb.column(c).cast(pa.timestamp("us")))
        return tb

    ev = t(pd.DataFrame(ev_rows))
    od = t(pd.DataFrame(od_rows))

    # local reference
    ref = {}
    for e in ev_rows:
        cands = [o for o in od_rows
                 if o["o_custkey"] == e["user_id"]
                 and o["o_orderdate"] <= e["ts"]]
        if cands:
            best = max(cands, key=lambda o: (o["o_orderdate"],
                                             o["o_orderkey"]))
            ref[e["event_id"]] = best["o_orderkey"]

    out = asof_join_events_orders(
        ray.data.from_arrow(ev), ray.data.from_arrow(od),
        num_buckets=4, slice_sec=86400).take_all()
    got = {r["event_id"]: r["o_orderkey"] for r in out}
    assert got == ref


def test_range_count_semantics(ray_session):
    import ray.data
    from gumbo_pp_ray.stages.asof import range_count_events_orders
    ev, od = make_tables()
    # window of 6 days
    out = range_count_events_orders(ray.data.from_arrow(ev),
                                    ray.data.from_arrow(od),
                                    window_sec=6 * 86400,
                                    num_buckets=4).take_all()
    got = {r["event_id"]: r["n_orders"] for r in out}
    # event 1 (u7, Jan10): orders Jan5, Jan15 → only Jan5 in [Jan4, Jan10] → 1
    # event 2 (u7, Jan20): Jan15 in [Jan14, Jan20] → 1
    # event 3 (u8, Jan5): both Jan5 orders within window → 2
    # event 4 (u9, Jan2): order Jan9 is AFTER the event → 0 (kept)
    assert got == {1: 1, 2: 1, 3: 2, 4: 0}
