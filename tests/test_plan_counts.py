"""Plan gates count without re-running their upstream
(``state.sizing.row_count``): every public stage whose plan or sizing
depends on a row count executes a lazy upstream exactly once."""

import datetime as dt
import logging
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gumbo_pp_ray.state import sizing


def _docs(n=40, start=0):
    texts = [f"document {i % 9} shares words with its twin number "
             f"{i % 9} plus filler text here" for i in range(n)]
    return pa.table({"doc_id": pa.array(range(start, start + n),
                                        pa.int64()),
                     "text": texts})


class Upstream:
    """A lazy two-block upstream (``from_arrow`` → ``map_batches``)
    that drops one marker file per executed batch, so every run of
    the chain is counted."""

    def __init__(self, tmp_path, table):
        self.dir = str(tmp_path / uuid.uuid4().hex)
        os.makedirs(self.dir)
        self.table = table

    def ds(self):
        import ray.data
        marker_dir = self.dir

        def mark(batch: pa.Table) -> pa.Table:
            with open(os.path.join(marker_dir, uuid.uuid4().hex), "w"):
                pass
            return batch

        half = self.table.num_rows // 2
        return ray.data.from_arrow(
            [self.table.slice(0, half), self.table.slice(half)]
        ).map_batches(mark, batch_format="pyarrow")

    def runs(self):
        """Executions of the whole chain (two marker files each)."""
        return len(os.listdir(self.dir)) / 2


def test_row_count_reads_plan_metadata_without_executing(ray_session,
                                                          tmp_path,
                                                          caplog):
    import ray.data
    pq.write_table(_docs(30), str(tmp_path / "a.parquet"))
    pq.write_table(_docs(12, start=30), str(tmp_path / "b.parquet"))
    ds = ray.data.read_parquet(str(tmp_path))
    with caplog.at_level(logging.INFO, logger=sizing.__name__):
        out, n = sizing.row_count(ds, "probe")
    assert out is ds
    assert not ds._plan.has_computed_output()
    assert n == 42
    assert "probe: rows=42 source=plan" in caplog.text


def test_row_count_materializes_a_lazy_upstream_once(ray_session,
                                                     tmp_path, caplog):
    up = Upstream(tmp_path, _docs(40))
    ds = up.ds()
    with caplog.at_level(logging.INFO, logger=sizing.__name__):
        out, n = sizing.row_count(ds, "probe")
    assert n == ds.count() == 40
    assert out._plan.has_computed_output()
    assert "probe: rows=40 source=materialized" in caplog.text
    runs = up.runs()
    assert out.count() == 40 and len(out.take_all()) == 40
    assert up.runs() == runs        # reusing ``out`` runs nothing


def test_gates_count_a_parquet_read_from_its_footers(ray_session,
                                                    tmp_path, caplog):
    """On parquet-read inputs no gate executes anything to count: each
    takes its input's footer count, as ``ds.count()`` did."""
    import ray
    import ray.data
    from gumbo_pp_ray.pipelines.prep_pipeline import prep_training_corpus
    from gumbo_pp_ray.stages.asof import _bucketed_union
    from gumbo_pp_ray.stages.corpus_stats import ngram_set
    from gumbo_pp_ray.stages.dedup import (
        exact_dedup, minhash_lsh_pairs, simhash_neardup_pairs,
    )
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )
    idx = str(tmp_path / "sigidx")
    write_signature_index(ray.data.from_arrow(_docs(20)), idx)
    base = dt.datetime(2024, 1, 1)
    tables = {
        "docs": _docs(),
        "events": pa.table({
            "event_id": pa.array(range(6), pa.int64()),
            "user_id": pa.array([1] * 6, pa.int64()),
            "ts": pa.array([base] * 6, pa.timestamp("us"))}),
        "orders": pa.table({
            "o_orderkey": pa.array(range(3), pa.int64()),
            "o_custkey": pa.array([1] * 3, pa.int64()),
            "o_orderdate": pa.array([base] * 3, pa.timestamp("us"))}),
    }
    read = {}
    for name, table in tables.items():
        pq.write_table(table, str(tmp_path / f"{name}.parquet"))
        read[name] = ray.data.read_parquet(str(tmp_path / f"{name}.parquet"))
    docs = read["docs"]
    ref = ray.put(ngram_set(["the quick brown fox"], n=3))
    with caplog.at_level(logging.INFO, logger=sizing.__name__):
        outs = [exact_dedup(docs), minhash_lsh_pairs(docs),
                simhash_neardup_pairs(docs),
                prep_training_corpus(docs, ref, min_quality_milli=0),
                minhash_lsh_pairs_incremental(docs, idx)]
        _bucketed_union(read["events"], read["orders"], None)
    assert "source=materialized" not in caplog.text
    for caller in ("exact_dedup", "minhash_lsh_pairs",
                   "simhash_neardup_pairs", "prep_training_corpus",
                   "minhash_lsh_pairs_incremental"):
        assert f"{caller}: rows=40 source=plan" in caplog.text
    assert "asof events: rows=6 source=plan" in caplog.text
    assert "asof orders: rows=3 source=plan" in caplog.text
    assert sum(r["n_dups"] for r in outs[0].take_all()) == 40
    assert outs[1].take_all() and outs[4].take_all()


@pytest.mark.parametrize("max_docs,plan", [(100_000, "signatures"),
                                           (0, "ids")])
def test_minhash_runs_upstream_once(ray_session, tmp_path, max_docs,
                                    plan, caplog):
    from gumbo_pp_ray.stages.dedup import minhash_lsh_pairs
    up = Upstream(tmp_path, _docs())
    with caplog.at_level(logging.INFO):
        pairs = minhash_lsh_pairs(
            up.ds(), threshold=0.5,
            auto_signatures_max_docs=max_docs).take_all()
    assert pairs
    assert up.runs() == 1
    # the plan the gate chose: only the ids plan exchanges candidates
    assert ("bucket_candidate_ids" in caplog.text) == (plan == "ids")


def test_exact_dedup_runs_upstream_once(ray_session, tmp_path):
    from gumbo_pp_ray.stages.dedup import exact_dedup
    up = Upstream(tmp_path, _docs())
    out = exact_dedup(up.ds()).take_all()
    assert sum(r["n_dups"] for r in out) == 40
    assert up.runs() == 1


def test_simhash_runs_upstream_once(ray_session, tmp_path):
    from gumbo_pp_ray.stages.dedup import simhash_neardup_pairs
    up = Upstream(tmp_path, _docs())
    assert simhash_neardup_pairs(up.ds()).take_all()
    assert up.runs() == 1


def test_prep_runs_upstream_once(ray_session, tmp_path):
    import ray
    from gumbo_pp_ray.pipelines.prep_pipeline import prep_training_corpus
    from gumbo_pp_ray.stages.corpus_stats import ngram_set
    up = Upstream(tmp_path, _docs())
    ref = ray.put(ngram_set(["the quick brown fox"], n=3))
    prep_training_corpus(up.ds(), ref, min_quality_milli=0).take_all()
    assert up.runs() == 1


def test_incremental_runs_upstream_once(ray_session, tmp_path):
    import ray.data
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )
    idx = str(tmp_path / "sigidx")
    write_signature_index(ray.data.from_arrow(_docs(20)), idx)
    up = Upstream(tmp_path, _docs(20, start=100))
    pairs = minhash_lsh_pairs_incremental(up.ds(), idx,
                                          threshold=0.5).take_all()
    assert pairs
    assert up.runs() == 1


def test_session_windows_run_upstream_once(ray_session, tmp_path):
    from gumbo_pp_ray.stages.windows import session_windows
    base = dt.datetime(2024, 1, 1)
    events = pa.table({
        "user_id": pa.array([i % 3 for i in range(30)], pa.int64()),
        "ts": pa.array([base + dt.timedelta(minutes=7 * i)
                        for i in range(30)], pa.timestamp("us"))})
    up = Upstream(tmp_path, events)
    out = session_windows(up.ds(), gap_sec=1800).take_all()
    assert sum(r["n_events"] for r in out) == 30
    assert up.runs() == 1


def test_asof_runs_each_upstream_once(ray_session, tmp_path):
    from gumbo_pp_ray.stages.asof import asof_join_events_orders
    base = dt.datetime(2024, 1, 1)
    events = pa.table({
        "event_id": pa.array(range(20), pa.int64()),
        "user_id": pa.array([i % 4 for i in range(20)], pa.int64()),
        "ts": pa.array([base + dt.timedelta(days=i + 1)
                        for i in range(20)], pa.timestamp("us"))})
    orders = pa.table({
        "o_orderkey": pa.array(range(100, 110), pa.int64()),
        "o_custkey": pa.array([i % 4 for i in range(10)], pa.int64()),
        "o_orderdate": pa.array([base + dt.timedelta(days=2 * i)
                                 for i in range(10)], pa.timestamp("us"))})
    ev, od = Upstream(tmp_path, events), Upstream(tmp_path, orders)
    assert asof_join_events_orders(ev.ds(), od.ds()).take_all()
    assert ev.runs() == 1
    assert od.runs() == 1


def test_connected_components_auto_runs_upstream_once(ray_session,
                                                      tmp_path):
    import ray.data
    from gumbo_pp_ray.stages.graph import connected_components
    pairs = ray.data.from_arrow(pa.table({"doc_a": [0, 1, 5],
                                          "doc_b": [1, 2, 6]}))
    up = Upstream(tmp_path, pa.table({"doc_id": list(range(8))}))
    out = connected_components(pairs, up.ds(), plan="auto").take_all()
    assert {r["doc_id"]: r["cluster_id"] for r in out}[2] == 0
    assert up.runs() == 1
