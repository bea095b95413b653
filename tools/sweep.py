"""Local replica of the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry at a chosen scale factor
and compares row count / schema / values against ``oracle_sql()`` via
DuckDB (column-name-sorted, row-order-insensitive — the driver's
comparison shape).

Usage::

    python tools/sweep.py [sf_dir] [query ...]

Defaults: sf_dir=/root/testdata/sf0.01, all queries.  Owns its Ray
session (the library and __ray_entry__ never call ray.init).  Each
query's line also reports ``workers``: the live ``ray::`` worker
processes of this process's session after the query, read from /proc
(run one sweep per session for a clean count).
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def ray_workers() -> int:
    """Live Ray worker processes (titled ``ray::<task or actor>``) in
    this process's session; Ray's daemons keep their program names."""
    sid, n = os.getsid(0), 0
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                title = f.read(5)
        except OSError:
            continue
        n += int(fields[3]) == sid and title == b"ray::"
    return n


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    import duckdb
    import pandas as pd

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")

    qs, osql = e.queries(), e.oracle_sql()
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            r = fn(sf)
            df = r.to_pandas() if hasattr(r, "to_pandas") else r
            if not isinstance(df, pd.DataFrame):
                df = df.to_pandas()
        except Exception as ex:
            results[name] = {"err":
                             f"query: {type(ex).__name__} {str(ex)[:160]}",
                             "workers": ray_workers()}
            print(name, results[name], flush=True)
            continue
        dt = time.perf_counter() - t0
        if name not in osql:
            results[name] = {"rows": len(df), "oracle": None,
                             "sec": round(dt, 1)}
        else:
            try:
                odf = con.execute(osql[name]).df()
                cols = sorted(df.columns)
                a = df[cols].sort_values(cols).reset_index(drop=True)
                b = (odf[sorted(odf.columns)]
                     .sort_values(sorted(odf.columns))
                     .reset_index(drop=True))
                b = b.astype({c: a[c].dtype for c in cols})
                results[name] = {"rows": len(a), "orows": len(b),
                                 "match": bool(a.equals(b)),
                                 "sec": round(dt, 1)}
            except Exception as ex:
                results[name] = {
                    "err": f"oracle: {type(ex).__name__} {str(ex)[:160]}"}
        results[name]["workers"] = ray_workers()
        print(name, results[name], flush=True)

    bad = [k for k, v in results.items()
           if v.get("match") is False or "err" in v]
    n_oracle = sum(1 for v in results.values() if "match" in v)
    print(json.dumps({"n_queries": len(results), "n_oracle": n_oracle,
                      "failures": bad}), flush=True)
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
