"""End-to-end Ray Data pipeline tests: span-sequence equality vs the
single-process kernel, in-actor mega-doc chunking, quarantine,
checkpoint/resume."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from gumbo_pp_ray.html import parse, extract_spans
from gumbo_pp_ray.pipelines.corpus import CorpusSpec, gen_corpus, write_corpus
from gumbo_pp_ray.stages.assemble import assemble_payloads
from gumbo_pp_ray.stages.extractor import ExtractSpans


def kernel_reference(table: pa.Table) -> dict:
    """Single-process ground truth: per doc, assemble + parse + extract
    with the local kernel (what span-sequence equality is measured
    against)."""
    out = {}
    for doc_id, html in zip(table.column("doc_id").to_pylist(),
                            assemble_payloads(table)):
        out[doc_id] = extract_spans(parse(html))
    return out


# ---------- local (no-Ray) stage units ----------

def test_assemble_joins_in_offset_order():
    t = pa.table({
        "doc_id": ["a"],
        "spans": [[
            {"kind": "text", "text": "<p>B</p>", "media_ref": "", "offset": 1},
            {"kind": "text", "text": "<p>A</p>", "media_ref": "", "offset": 0},
        ]],
    })
    assert assemble_payloads(t) == ["<p>A</p><p>B</p>"]


def test_extractor_quarantines_oversize():
    t = pa.table({
        "doc_id": ["big", "ok"],
        "spans": [
            [{"kind": "text", "text": "<p>" + "x" * 100 + "</p>",
              "media_ref": "", "offset": 0}],
            [{"kind": "text", "text": "<p>fine</p>", "media_ref": "",
              "offset": 0}],
        ],
    })
    out = ExtractSpans(max_doc_bytes=50)(t)
    rows = out.to_pylist()
    assert rows[0]["status"] == "oversize" and rows[0]["spans"] == []
    assert rows[1]["status"] == "ok"
    assert rows[1]["spans"][0]["text"] == "fine"


def test_extractor_batch_never_raises_on_garbage():
    t = pa.table({
        "doc_id": ["g1", "g2"],
        "spans": [
            [{"kind": "text", "text": "\x00<<<!%", "media_ref": "", "offset": 0}],
            [{"kind": "text", "text": "", "media_ref": "", "offset": 0}],
        ],
    })
    out = ExtractSpans()(t)
    assert out.column("status").to_pylist() == ["ok", "ok"]


# ---------- Ray e2e ----------

@pytest.fixture(scope="module")
def corpus_table():
    return gen_corpus(CorpusSpec(num_docs=80, mega_every=25, mega_spans=400))


def test_e2e_span_sequence_equality(ray_session, corpus_table):
    import ray.data
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset

    expected = kernel_reference(corpus_table)
    ds = ray.data.from_arrow(corpus_table)
    # mega-docs (400 spans) are parsed in 64-span slices in the kernel
    out = extract_dataset(ds, split_threshold=64, concurrency=2,
                          batch_size=16)
    rows = out.take_all()
    assert len(rows) == corpus_table.num_rows
    for r in rows:
        got = [(s["kind"], s["text"], s["media_ref"], s["offset"])
               for s in r["spans"]]
        assert got == expected[r["doc_id"]], r["doc_id"]
        assert r["status"] == "ok"


def test_e2e_no_split_pure_map_path(ray_session, corpus_table):
    import ray.data
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset

    expected = kernel_reference(corpus_table)
    ds = ray.data.from_arrow(corpus_table)
    out = extract_dataset(ds, split_threshold=None, concurrency=2,
                          batch_size=16)
    for r in out.take_all():
        got = [(s["kind"], s["text"], s["media_ref"], s["offset"])
               for s in r["spans"]]
        assert got == expected[r["doc_id"]]


def test_run_extraction_resume(ray_session, tmp_path):
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "corpus")
    out1 = str(tmp_path / "out")
    write_corpus(inp, CorpusSpec(num_docs=40, mega_every=0), files=4)

    s1 = run_extraction(inp, out1, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s1["waves_total"] == 4 and s1["waves_run"] == 4
    assert s1["docs"] == 40 and s1["errors"] == 0

    # simulate a crash that lost the last wave
    shutil.rmtree(os.path.join(out1, "wave-00003"))
    os.remove(os.path.join(out1, "_lineage", "wave-00003.json"))

    s2 = run_extraction(inp, out1, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s2["waves_skipped"] == 3 and s2["waves_run"] == 1
    assert s2["docs"] == 40

    # every wave has a manifest with counters
    for i in range(4):
        with open(os.path.join(out1, "_lineage", f"wave-{i:05d}.json")) as f:
            m = json.load(f)
        assert m["docs"] == 10 and m["spans"] > 0

    # output readable and complete, byte-identical doc set
    import ray.data
    from gumbo_pp_ray.sources.io import list_input_files
    files = [f for f in list_input_files(out1) if "_lineage" not in f]
    ds = ray.data.read_parquet(files)
    assert sorted(r["doc_id"] for r in ds.select_columns(["doc_id"]).take_all()) \
        == [f"doc-{i:06d}" for i in range(40)]


def test_run_extraction_resume_uncommitted_wave(ray_session, tmp_path):
    """Crash window between the wave-dir rename and the manifest write:
    a final_dir WITHOUT a manifest is uncommitted — resume must clear
    and re-run it, not wedge on os.replace into a non-empty dir."""
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "corpus")
    out1 = str(tmp_path / "out")
    write_corpus(inp, CorpusSpec(num_docs=20, mega_every=0), files=2)
    s1 = run_extraction(inp, out1, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s1["waves_run"] == 2
    # simulate: wave dir committed, manifest write lost
    os.remove(os.path.join(out1, "_lineage", "wave-00001.json"))
    assert os.path.isdir(os.path.join(out1, "wave-00001"))
    s2 = run_extraction(inp, out1, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s2["waves_skipped"] == 1 and s2["waves_run"] == 1
    assert s2["docs"] == 20
    assert os.path.exists(os.path.join(out1, "_lineage",
                                       "wave-00001.json"))


def test_table_scrape_query_stage(ray_session):
    import ray.data
    from gumbo_pp_ray.stages.table_query import TableScrapeQuery

    t = pa.table({"doc_id": [7], "lang": ["en"], "source": ["src3"],
                  "n_chars": [42]})
    out = (ray.data.from_arrow(t)
           .map_batches(TableScrapeQuery, batch_format="pyarrow",
                        concurrency=1).take_all())
    cells = {(r["row_idx"], r["col_idx"]): r["cell"] for r in out}
    assert cells == {(0, 0): "en", (0, 1): "src3",
                     (1, 0): "n42", (1, 1): "7"}
    assert all(r["doc_id"] == "7" for r in out)


def test_cli_gen_and_extract_and_stats(ray_session, tmp_path, capsys):
    from gumbo_pp_ray import cli

    inp = str(tmp_path / "c")
    out = str(tmp_path / "o")
    assert cli.main(["gen-corpus", "--output", inp, "--docs", "30",
                     "--files", "3", "--mega-every", "0"]) == 0
    # note: cmd_extract shuts the session down; re-init in fixture scope
    import ray
    rc = cli.main(["extract", "--input", inp, "--output", out,
                   "--files-per-wave", "2"])
    assert rc == 0
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    assert cli.main(["stats", "--output", out]) == 0
    captured = capsys.readouterr().out.strip().splitlines()
    import json
    st = json.loads(captured[-1])
    assert st["docs"] == 30 and st["errors"] == 0


def test_run_extraction_quarantine(ray_session, tmp_path):
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "qc")
    out = str(tmp_path / "qo")
    write_corpus(inp, CorpusSpec(num_docs=20, mega_every=0), files=2)
    # tiny byte cap → most docs quarantined as oversize
    s = run_extraction(inp, out, files_per_wave=2, concurrency=2,
                       batch_size=8, max_doc_bytes=400)
    assert s["errors"] > 0
    assert s["docs"] == 20
    qdir = os.path.join(out, "_quarantine", "wave-00000")
    assert os.path.isdir(qdir)
    import ray.data
    from gumbo_pp_ray.sources.io import list_input_files
    bad = ray.data.read_parquet(list_input_files(qdir))
    assert bad.count() == s["errors"]
    assert set(r["status"] for r in bad.take_all()) == {"oversize"}
    with open(os.path.join(out, "_lineage", "wave-00000.json")) as f:
        assert json.load(f)["quarantined"] == {"oversize": s["errors"],
                                               "error": 0}
    # clean output contains only ok rows (filter on the path RELATIVE
    # to the run dir — the absolute tmp path itself contains the
    # substring "_quarantine" via the test name)
    good_files = [f for f in list_input_files(out)
                  if not os.path.relpath(f, out).startswith("_")]
    good = ray.data.read_parquet(good_files)
    assert good.count() == 20 - s["errors"]


def test_extractor_duplicate_payload_cache():
    html = ("<html><body><article><h1>T</h1><p>" + "word " * 50 +
            "</p></article></body></html>")
    rows = [[{"kind": "text", "text": html, "media_ref": "", "offset": 0}]
            ] * 50
    t = pa.table({"doc_id": [f"d{i}" for i in range(50)],
                  "spans": pa.array(rows, t_spans_type())})
    cached = ExtractSpans(cache_size=256)
    plain = ExtractSpans(cache_size=0)
    a, b = cached(t), plain(t)
    assert cached.cache_hits == 49 and plain.cache_hits == 0
    assert a.column("spans").to_pylist() == b.column("spans").to_pylist()
    assert a.column("n_parse_errors").to_pylist() == \
        b.column("n_parse_errors").to_pylist()


def test_extractor_cache_keys_on_span_structure():
    """Two payloads with identical concatenation but different span
    boundaries must NOT share a cache entry when chunk_spans slices
    them into different fragment groupings."""
    p1 = "<p>alpha beta</p>"
    p2 = "<p>gamma delta</p>"
    whole = p1 + p2
    rows = [
        # doc A: two spans, chunked at 1 → parsed as two fragments
        [{"kind": "text", "text": p1, "media_ref": "", "offset": 0},
         {"kind": "text", "text": p2, "media_ref": "", "offset": 1}],
        # doc B: one span with the same concatenation → one fragment
        [{"kind": "text", "text": whole, "media_ref": "", "offset": 0}],
    ]
    t = pa.table({"doc_id": ["a", "b"],
                  "spans": pa.array(rows, t_spans_type())})
    cached = ExtractSpans(cache_size=256, chunk_spans=1)
    plain = ExtractSpans(cache_size=0, chunk_spans=1)
    a, b = cached(t), plain(t)
    assert cached.cache_hits == 0          # structures differ → no reuse
    assert a.column("spans").to_pylist() == b.column("spans").to_pylist()


def test_extract_batch_scopes_one_extractor_to_its_run(monkeypatch):
    import weakref
    from gumbo_pp_ray.stages import extractor

    monkeypatch.setattr(extractor, "_run_extractor", None)
    html = "<html><body><article><p>" + "word " * 20 + "</p></article>"

    def batch(*ids):
        rows = [[{"kind": "text", "text": html, "media_ref": "",
                  "offset": 0}]] * len(ids)
        return pa.table({"doc_id": list(ids),
                         "spans": pa.array(rows, t_spans_type())})

    def run(b, token):
        return list(extractor.extract_batch(b, run=token, chunk_spans=64))

    out, = run(batch("a"), "r1")
    assert out.equals(ExtractSpans(chunk_spans=64)(batch("a")))
    first = extractor._run_extractor[1]
    assert first.chunk_spans == 64 and first.cache_hits == 0
    # a second batch of the same run: same extractor, the payload it
    # saw in the first batch is a cache hit
    run(batch("b"), "r1")
    assert extractor._run_extractor[1] is first and first.cache_hits == 1
    # a new run starts fresh and drops the old run's extractor
    run(batch("c"), "r2")
    token, fresh = extractor._run_extractor
    assert token == "r2" and fresh is not first and fresh.cache_hits == 0
    old = weakref.ref(first)
    del first
    assert old() is None


def test_extract_batch_slices_task_rows_into_kernel_batches(monkeypatch):
    """A task's rows run through the kernel ``batch_size`` rows at a
    time; the slices together are one whole-table kernel call."""
    from gumbo_pp_ray.stages import extractor

    monkeypatch.setattr(extractor, "_run_extractor", None)
    t = gen_corpus(CorpusSpec(num_docs=250, mega_every=0))
    parts = list(extractor.extract_batch(t, run="r", batch_size=96))
    assert [p.num_rows for p in parts] == [96, 96, 58]
    assert pa.concat_tables(parts).equals(ExtractSpans()(t))


def _plan_ops(ds):
    ops, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        ops.append(op)
        todo.extend(op.input_dependencies)
    return ops


def test_extraction_runs_as_task_stage(ray_session, tmp_path, monkeypatch):
    """``extract_dataset`` is one task-pool MapBatches of the size asked
    for; no actor pool anywhere on the extraction path, waves
    included."""
    import ray.data
    from ray.data._internal.compute import (ActorPoolStrategy,
                                            TaskPoolStrategy)
    from ray.data._internal.logical.operators.map_operator import (
        MapBatches)
    from gumbo_pp_ray.pipelines import extract_pipeline as ep
    from gumbo_pp_ray.state.sizing import default_pool_size

    def computes(ds):
        return [(type(op), op._compute) for op in _plan_ops(ds)
                if hasattr(op, "_compute")]

    ds = ray.data.from_arrow(gen_corpus(CorpusSpec(num_docs=8,
                                                   mega_every=0)))
    for n in (1, 3):
        (kind, compute), = computes(ep.extract_dataset(ds, concurrency=n))
        assert kind is MapBatches
        assert isinstance(compute, TaskPoolStrategy) and compute.size == n

    built = []
    real = ep.extract_dataset

    def spy(*a, **kw):
        built.append(real(*a, **kw))
        return built[-1]

    monkeypatch.setattr(ep, "extract_dataset", spy)
    inp = str(tmp_path / "corpus")
    write_corpus(inp, CorpusSpec(num_docs=20, mega_every=0), files=2)
    for conc in (2, None):           # explicit, and the default
        ep.run_extraction(inp, str(tmp_path / f"out{conc}"),
                          files_per_wave=1, concurrency=conc,
                          batch_size=16)
    assert len(built) == 4
    for i, wave in enumerate(built):
        found = computes(wave)
        assert not any(isinstance(c, ActorPoolStrategy) for _, c in found)
        sizes = [c.size for k, c in found if k is MapBatches]
        assert sizes == [2 if i < 2 else default_pool_size()]


def test_extraction_task_rows_follow_the_plan_row_count(ray_session,
                                                      tmp_path):
    """Rows per extraction task: two tasks per worker from the read's
    metadata row count, never below the kernel batch; the kernel batch
    when the count is unknown; one task per block for ``None``; at most
    ``target_max_block_size`` of input."""
    import math
    from ray.data._internal.logical.operators.map_operator import (
        MapBatches)
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.sources.io import read_interleaved

    def task_rows(ds, **kw):
        op = extract_dataset(ds, **kw)._logical_plan.dag
        assert isinstance(op, MapBatches)
        return op._min_rows_per_bundled_input

    n = 200
    inp = str(tmp_path / "corpus")
    write_corpus(inp, CorpusSpec(num_docs=n, mega_every=0), files=2)
    ds = read_interleaved(inp)
    for conc in (1, 3):
        for batch in (16, 96):
            assert task_rows(ds, concurrency=conc, batch_size=batch) == \
                max(batch, math.ceil(n / (2 * conc)))
    assert task_rows(ds, concurrency=1, batch_size=None) is None
    unknown = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert task_rows(unknown, concurrency=1, batch_size=16) == 16

    tiny = read_interleaved(inp)
    size = tiny._logical_plan.dag.infer_metadata().size_bytes
    tiny.context.target_max_block_size = size // 5
    assert task_rows(tiny, concurrency=1, batch_size=16) == \
        (size // 5) * n // size < n // 2


def test_extract_dataset_back_to_back_runs_identical(ray_session,
                                                     corpus_table):
    import ray
    import ray.data
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset

    # repeated payloads make the run-scoped cache hit within each run
    t = pa.concat_tables([corpus_table, corpus_table.set_column(
        0, "doc_id", pa.array([f"{d}-dup" for d in
                               corpus_table.column("doc_id").to_pylist()]))])
    ds = ray.data.from_arrow(t)

    def run():
        out = extract_dataset(ds, split_threshold=64, concurrency=2,
                              batch_size=16)
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        return got.sort_by("doc_id").combine_chunks()

    first, second = run(), run()
    assert first.num_rows == t.num_rows
    assert first.equals(second)


def t_spans_type():
    return pa.list_(pa.struct([
        ("kind", pa.string()), ("text", pa.string()),
        ("media_ref", pa.string()), ("offset", pa.int32())]))


def test_broadcast_lookup_stage(ray_session):
    import numpy as np
    import ray.data
    from gumbo_pp_ray.stages.lookup import broadcast_dim, broadcast_lookup

    dim = pa.table({"k": pa.array([5, 1, 9], pa.int64()),
                    "v": ["five", "one", "nine"]})
    ref = broadcast_dim(dim, "k", "v")
    facts = pa.table({"event_id": [1, 2, 3, 4],
                      "user_id": pa.array([1, 9, 5, 42], pa.int64())})
    out = broadcast_lookup(ray.data.from_arrow(facts), ref,
                           fk_col="user_id", out_col="name",
                           default="?").take_all()
    got = {r["event_id"]: r["name"] for r in out}
    assert got == {1: "one", 2: "nine", 3: "five", 4: "?"}


def test_custom_profile_ships_to_actors(ray_session):
    # profile objects (slots classes) must survive pickling into the
    # actor pool; prune_links + normalize off exercised end-to-end
    import ray.data
    from gumbo_pp_ray.html.extract import ExtractProfile
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset

    html = ("<div><a href='/1'>A</a><a href='/2'>B</a><a href='/3'>C</a>"
            "</div><p>real   prose stays with its   spacing</p>")
    t = pa.table({"doc_id": ["x"],
                  "spans": pa.array(
                      [[{"kind": "text", "text": html, "media_ref": "",
                         "offset": 0}]], t_spans_type())})
    prof = ExtractProfile(normalize_ws=False, prune_links=True)
    out = extract_dataset(ray.data.from_arrow(t), profile=prof,
                          concurrency=1, batch_size=4).take_all()
    spans = out[0]["spans"]
    texts = [s["text"] for s in spans]
    assert "real   prose stays with its   spacing" in texts  # raw ws kept
    assert all("A" != s["text"] for s in spans)              # nav run pruned


def test_run_extraction_lance_requires_wheel(ray_session, tmp_path):
    """output_format='lance' is import-gated: without the wheel it
    raises ImportError before writing anything."""
    import pytest

    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "lc")
    write_corpus(inp, CorpusSpec(num_docs=10, mega_every=0), files=1)
    try:
        import lance  # noqa: F401
        pytest.skip("lance installed; the gated branch is live")
    except ImportError:
        pass
    with pytest.raises(ImportError):
        run_extraction(inp, str(tmp_path / "lo"), files_per_wave=1,
                       concurrency=2, output_format="lance")


def test_broadcast_membership_semi_anti(ray_session):
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.stages.lookup import (broadcast_keys,
                                            broadcast_membership)

    dim = pa.table({"k": [2, 4, 6]})
    ref = broadcast_keys(dim, "k")
    t = pa.table({"event_id": [1, 2, 3, 4], "user_id": [2, 3, 4, 9]})
    def run(mode):
        return sorted(r["event_id"] for r in broadcast_membership(
            ray.data.from_arrow(t), ref, fk_col="user_id",
            mode=mode).take_all())
    assert run("semi") == [1, 3]
    assert run("anti") == [2, 4]


def test_broadcast_stages_run_as_tasks(ray_session):
    """Every stage that reads a broadcast ref is a plain task stage: no
    operator of these plans has an actor-pool compute."""
    import numpy as np
    import ray
    import ray.data
    from ray.data._internal.compute import ActorPoolStrategy
    from gumbo_pp_ray.pipelines.prep_pipeline import prep_training_corpus
    from gumbo_pp_ray.stages.corpus_stats import decontaminate, ngram_set
    from gumbo_pp_ray.stages.lm import perplexity_scores
    from gumbo_pp_ray.stages.lookup import (
        broadcast_dim, broadcast_keys, broadcast_lookup,
        broadcast_membership,
    )
    from gumbo_pp_ray.stages.similarity import ann_topk_ivf, ann_topk_lsh
    from gumbo_pp_ray.stages.substring import substring_rebuild

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["the quick brown fox", "a b c d e f g h i j"]}))
    bench = ray.put(ngram_set(["the quick brown fox"], n=3))
    model = {"vocab": np.array(["a"]), "uni": np.zeros(2, np.int64),
             "bg_keys": np.zeros(0, np.int64),
             "bg_counts": np.zeros(0, np.int64)}
    rng = np.random.RandomState(0)
    m = rng.standard_normal((6, 4))
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array(m.tolist(), pa.list_(pa.float64()))}))
    queries = {"ids": [0, 1], "matrix": m[:2]}
    removals = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "rpos": pa.array([0], pa.int64())}))
    dim = pa.table({"k": pa.array([0], pa.int64()), "v": ["x"]})
    facts = ray.data.from_arrow(pa.table({
        "user_id": pa.array([0, 1], pa.int64())}))
    plans = {
        "decontaminate": decontaminate(docs, bench),
        "prep_training_corpus": prep_training_corpus(docs, bench),
        "perplexity_scores": perplexity_scores(docs, model),
        "ann_topk_lsh": ann_topk_lsh(emb, queries, dim=4, k=2),
        "ann_topk_ivf": ann_topk_ivf(emb, queries, dim=4, k=2,
                                     centroids=m[:2]),
        "substring_rebuild": substring_rebuild(docs, removals,
                                               plan="broadcast"),
        "broadcast_lookup": broadcast_lookup(
            facts, broadcast_dim(dim, "k", "v"), fk_col="user_id",
            out_col="v"),
        "broadcast_membership": broadcast_membership(
            facts, broadcast_keys(dim, "k"), fk_col="user_id"),
    }
    for name, ds in plans.items():
        actors = [op.name for op in _plan_ops(ds)
                  if isinstance(getattr(op, "_compute", None),
                                ActorPoolStrategy)]
        assert not actors, (name, actors)


def test_wave_commit_race_first_wins(ray_session, tmp_path, monkeypatch):
    """Two runs racing on one out_dir: a competitor commits the wave
    between our processing and our os.replace — the loser must adopt
    the winner's manifest instead of crashing with ENOTEMPTY
    (observed live in the round-5 1M-page drill)."""
    import json
    import os as _os
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.pipelines import extract_pipeline as ep
    from gumbo_pp_ray.pipelines.wrap import wrap_documents

    src = tmp_path / "in"
    src.mkdir()
    docs = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": [f"doc {i} body words here" for i in range(6)],
        "lang": ["en"] * 6, "source": ["t"] * 6,
    })
    ray.data.from_arrow(wrap_documents(docs)).repartition(2) \
        .write_parquet(str(src))

    out = tmp_path / "out"
    real_replace = _os.replace
    fired = {}

    def racing_replace(a, b):
        # simulate the competitor winning the FIRST wave commit
        if b.endswith("wave-00000") and "fired" not in fired:
            fired["fired"] = True
            _os.makedirs(b)
            with open(_os.path.join(b, "part-0.parquet"), "wb") as f:
                f.write(b"winner")
            with open(str(out / "_lineage" / "wave-00000.json"),
                      "w") as f:
                json.dump({"wave": "wave-00000", "docs": 6,
                           "spans": 6, "errors": 0}, f)
        return real_replace(a, b)

    monkeypatch.setattr(ep.os, "replace", racing_replace)
    s = ep.run_extraction(str(src), str(out), concurrency=2)
    # the loser adopted the winner's manifest: no crash, wave counted
    assert s["waves_skipped"] == 1 and s["errors"] == 0
    assert s["docs"] == 6


def write_wrapped_shards(path: str, shards: list[list[tuple[str, str]]]):
    """One interleaved parquet shard per list of ``(doc_id, text)``."""
    import pyarrow.parquet as pq

    from gumbo_pp_ray.pipelines.wrap import wrap_documents

    os.makedirs(path)
    for i, rows in enumerate(shards):
        docs = pa.table({"doc_id": [d for d, _ in rows],
                         "text": [t for _, t in rows],
                         "lang": ["en"] * len(rows),
                         "source": ["t"] * len(rows)})
        pq.write_table(wrap_documents(docs),
                       os.path.join(path, f"shard-{i}.parquet"))


def test_wave_commit_race_loser_keeps_winner_quarantine(ray_session,
                                                        tmp_path,
                                                        monkeypatch):
    """A racing run commits the wave, its manifest and its quarantine
    while this run extracts the same wave: this run must adopt the
    manifest and leave the winner's quarantine alone.  Only the run
    whose wave commit succeeds publishes its quarantine."""
    from gumbo_pp_ray.pipelines import extract_pipeline as ep

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    write_wrapped_shards(inp, [[("a", "a few words"),
                                ("b", "word " * 1000)]])
    qdir = os.path.join(out, "_quarantine", "wave-00000")
    real_extract = ep.extract_dataset

    def winner_commits_first(ds, **kw):
        os.makedirs(os.path.join(out, "wave-00000"))
        os.makedirs(qdir)
        for path in (os.path.join(out, "wave-00000", "part-0.parquet"),
                     os.path.join(qdir, "winner.parquet")):
            with open(path, "wb") as f:
                f.write(b"winner")
        with open(os.path.join(out, "_lineage", "wave-00000.json"),
                  "w") as f:
            json.dump({"wave": "wave-00000", "docs": 2, "spans": 3,
                       "errors": 1}, f)
        return real_extract(ds, **kw)

    monkeypatch.setattr(ep, "extract_dataset", winner_commits_first)
    s = ep.run_extraction(inp, out, concurrency=2, max_doc_bytes=2000)
    assert s["waves_skipped"] == 1 and s["waves_run"] == 0
    assert s["docs"] == 2 and s["errors"] == 1
    assert os.listdir(qdir) == ["winner.parquet"]
    assert not [d for d in os.listdir(out) if d.startswith("_tmp-")]


def test_run_extraction_commits_each_wave_in_one_pass(ray_session,
                                                      tmp_path,
                                                      monkeypatch):
    """A wave's counters come from the tasks that write it: nothing
    filters, aggregates or counts the written wave.  The manifest
    matches a recount of the committed files and of the quarantine,
    and a clean wave leaves no quarantine dir."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    write_wrapped_shards(inp, [
        [(f"d{i}", "word " * 1000 if i % 3 == 0 else f"doc {i} words")
         for i in range(9)],
        [(f"e{i}", f"clean doc {i}") for i in range(5)]])

    def second_pass(*_a, **_kw):
        raise AssertionError("a second pass over the written wave")
    for method in ("filter", "aggregate", "count"):
        monkeypatch.setattr(ray.data.Dataset, method, second_pass)
    s = run_extraction(inp, out, files_per_wave=1, concurrency=2,
                       max_doc_bytes=2000)
    assert s["waves_run"] == 2 and s["docs"] == 14 and s["errors"] == 3

    def read(d):
        return pa.concat_tables([pq.read_table(f) for f in sorted(
            glob.glob(os.path.join(d, "*.parquet")))])
    for wave, n_bad in (("wave-00000", 3), ("wave-00001", 0)):
        with open(os.path.join(out, "_lineage", f"{wave}.json")) as f:
            m = json.load(f)
        good = read(os.path.join(out, wave))
        assert good["status"].unique().to_pylist() == ["ok"]
        qdir = os.path.join(out, "_quarantine", wave)
        assert os.path.isdir(qdir) == bool(n_bad)
        bad = read(qdir)["status"].to_pylist() if n_bad else []
        assert len(bad) == n_bad
        assert m["docs"] == good.num_rows + len(bad)
        assert m["docs_ok"] == good.num_rows
        assert m["spans"] == pc.sum(good["n_spans"]).as_py()
        assert m["parse_errors"] == pc.sum(good["n_parse_errors"]).as_py()
        assert m["errors"] == len(bad)
        assert m["quarantined"] == {"oversize": bad.count("oversize"),
                                    "error": bad.count("error")}


def test_run_extraction_resume_rejects_changed_input(ray_session,
                                                     tmp_path):
    """Adding shards shifts wave boundaries; skipping committed waves
    by index would silently drop/double-process shards — resume must
    fail loudly on an input-set mismatch (round-5 review finding)."""
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "corpus")
    out1 = str(tmp_path / "out")
    write_corpus(inp, CorpusSpec(num_docs=20, mega_every=0), files=2)
    run_extraction(inp, out1, files_per_wave=2, concurrency=2,
                   batch_size=16)
    # grow the input set: wave 0's composition changes
    write_corpus(str(tmp_path / "extra"),
                 CorpusSpec(num_docs=10, mega_every=0), files=1)
    extra = os.listdir(str(tmp_path / "extra"))[0]
    # sorts FIRST, shifting every wave boundary (a file sorting last
    # only appends new waves, which resume handles fine)
    shutil.copy(os.path.join(str(tmp_path / "extra"), extra),
                os.path.join(inp, "aa-extra.parquet"))
    with pytest.raises(ValueError, match="resume mismatch"):
        run_extraction(inp, out1, files_per_wave=2, concurrency=2,
                       batch_size=16)


def test_run_extraction_rejects_changed_config(ray_session, tmp_path):
    """A rerun into the same out_dir with a setting that changes the
    output bytes must fail before any wave runs and leave the committed
    waves untouched: a losing racer with another config could otherwise
    delete the winner's uncommitted wave, and a resume would mix two
    configurations' output.  A same-config rerun still resumes."""
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus(inp, CorpusSpec(num_docs=20, mega_every=0), files=2)
    s1 = run_extraction(inp, out, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s1["waves_run"] == 2

    def snapshot():
        return {os.path.relpath(os.path.join(root, f), out):
                os.path.getmtime(os.path.join(root, f))
                for root, _dirs, files in os.walk(out) for f in files}

    before = snapshot()
    with pytest.raises(ValueError, match="run config mismatch"):
        run_extraction(inp, out, files_per_wave=1, concurrency=2,
                       batch_size=16, max_doc_bytes=1 << 20)
    assert snapshot() == before
    s2 = run_extraction(inp, out, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s2["waves_skipped"] == 2 and s2["waves_run"] == 0
    assert s2["docs"] == 20


def test_run_extraction_zero_row_wave_commits(ray_session, tmp_path):
    """A wave whose rows are all filtered away (e.g. WARC archives
    with no 200 text/html records) writes nothing — the wave must
    still COMMIT (empty dir + manifest with zero counts) so resume
    skips it, not crash on the accounting read."""
    import pyarrow.parquet as pq

    from gumbo_pp_ray.pipelines.wrap import SPANS_TYPE
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    inp = str(tmp_path / "empty_corpus")
    os.makedirs(inp)
    empty = pa.table({
        "doc_id": pa.array([], pa.string()),
        "spans": pa.array([], SPANS_TYPE),
    })
    pq.write_table(empty, os.path.join(inp, "shard-0.parquet"))
    out = str(tmp_path / "out")
    s = run_extraction(inp, out, files_per_wave=1, concurrency=2,
                       batch_size=16)
    assert s["waves_run"] == 1 and s["docs"] == 0 and s["errors"] == 0
    assert os.path.isdir(os.path.join(out, "wave-00000"))
    with open(os.path.join(out, "_lineage", "wave-00000.json")) as f:
        assert json.load(f)["docs"] == 0
    # resume skips the committed empty wave
    s2 = run_extraction(inp, out, files_per_wave=1, concurrency=2,
                        batch_size=16)
    assert s2["waves_skipped"] == 1 and s2["waves_run"] == 0


def test_null_span_text_quarantined_not_fatal(ray_session):
    """A null span text in a corrupt shard must quarantine the ROW as
    status='error'/oversize-free, never crash the batch (the
    documented contract; total_bytes ran outside the try)."""
    from gumbo_pp_ray.pipelines.wrap import SPANS_TYPE

    spans_ok = [{"kind": "text", "text": "<p>fine</p>",
                 "media_ref": "", "offset": 0}]
    spans_null = [{"kind": "text", "text": None,
                   "media_ref": "", "offset": 0}]
    t = pa.table({
        "doc_id": pa.array(["a", "b"], pa.string()),
        "spans": pa.array([spans_ok, spans_null], SPANS_TYPE),
    })
    out = ExtractSpans()(t)
    by_id = {r["doc_id"]: r for r in out.to_pylist()}
    assert by_id["a"]["status"] == "ok" and by_id["a"]["n_spans"] > 0
    # the null-text doc parses as an empty payload: ok with 0 spans
    assert by_id["b"]["status"] in ("ok", "error")


def _reference_row(spans, chunk=None):
    """Per-row reference for ``ExtractSpans``: stable sort by offset,
    null text as "", parse + extract each chunk of the payload."""
    seg = [s["text"] or "" for s in sorted(spans, key=lambda s: s["offset"])]
    step = chunk if (chunk and len(seg) > chunk) else len(seg) or 1
    out, errs = [], 0
    for j in range(0, len(seg), step):
        doc = parse("".join(seg[j:j + step]))
        errs += doc.parse_errors
        out += extract_spans(doc)
    return ([{"kind": k, "text": t, "media_ref": m, "offset": i}
             for i, (k, t, m, _o) in enumerate(out)], errs)


def test_extractor_batch_order_detection_matches_per_row_reference():
    """Out-of-order span offsets are found once per batch; every row
    must still come out exactly as a per-row stable sort would give."""
    def row(*pairs):
        return [{"kind": "text", "text": t, "media_ref": "", "offset": o}
                for o, t in pairs]

    page = row((0, "<h1>Title</h1>"), (1, "<p>one <b>bo"),
               (2, "ld</b></p>"), (3, "<img src='a.png'>"), (4, "<p>two</p>"))
    shuffled = [page[3], page[0], page[4], page[2], page[1]]
    tail = row((0, "<ul><li>a"), (1, "</li><li>b</li>"), (2, "</ul>"),
               (3, "<pre>  x\n</pre>"))
    ties = row((1, "<p>b</p>"), (0, "<p>a</p>"), (1, "<p>c</p>"))
    rows = [
        ("before", shuffled, None),       # sliced away below
        ("first", shuffled, None),
        ("asc-long", page, None),
        # starts below the previous row's last offset: a descent that
        # falls exactly on a row boundary, not inside a row
        ("boundary", row((0, "<p>x</p>"), (1, "<p>y</p>")), None),
        ("empty-1", [], None),
        ("middle", ties, None),
        # offsets need not start at 0; starting above "middle"'s last
        # leaves "middle"'s only descent inside it, next to its start
        ("null", row((2, "<p>n</p>"), (3, None), (4, "<p>m</p>")), None),
        ("input-error", shuffled, "truncated record"),
        ("empty-2", [], None),
        ("dup", page, None),
        ("last", [tail[2], tail[0], tail[3], tail[1]], None),
    ]
    t = pa.table({
        "doc_id": [r[0] for r in rows],
        "spans": pa.array([r[1] for r in rows], t_spans_type()),
        "input_error": pa.array([r[2] for r in rows], pa.string()),
    }).slice(1)
    for kw in ({}, {"chunk_spans": 1}):
        ex = ExtractSpans(**kw)
        out = {r["doc_id"]: r for r in ex(t).to_pylist()}
        assert list(out) == [r[0] for r in rows[1:]]
        # "asc-long" and "dup" reuse "first" (the same payload once
        # sorted); "empty-2" reuses "empty-1"
        assert ex.cache_hits == 3
        for doc_id, spans, ierr in rows[1:]:
            got = out[doc_id]
            if ierr is not None:
                assert (got["status"], got["spans"]) == ("error", [])
                continue
            want, errs = _reference_row(spans, kw.get("chunk_spans"))
            assert got["status"] == "ok", doc_id
            assert got["spans"] == want, doc_id
            assert got["n_parse_errors"] == errs, doc_id
            assert got["n_spans"] == len(want), doc_id
        assert out["first"]["spans"][0]["kind"] == "heading"


def test_extractor_leaves_no_cyclic_garbage():
    """Each parsed tree is released after extraction, so it is freed by
    reference counting: with the cyclic GC off, a 96-row batch leaves
    no DOM node for ``gc.collect()`` to find."""
    import gc

    from gumbo_pp_ray.html.dom import Node

    table = gen_corpus(CorpusSpec(num_docs=96, mega_every=40,
                                  mega_spans=120))
    for kw in ({}, {"chunk_spans": 8}):
        ex = ExtractSpans(**kw)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            out = ex(table)
            gc.collect()
            leaked = sum(isinstance(o, Node) for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert out.num_rows == 96
        assert set(out.column("status").to_pylist()) == {"ok"}
        assert leaked == 0
