"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in the library code.

Naming contract: every computed column is named identically in the Ray
pipeline and the oracle SQL (the driver sorts columns by name before
hashing).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import pyarrow as pa

_SF0001 = "/root/testdata/sf0.001"


def _qconc():
    """Autoscaling actor-pool bounds ``(1, cpus-2)`` for the actor
    stages of the doc-annotation, sketch and broadcast-membership
    queries.

    The driver runs ~60 queries sequentially in ONE Ray session; each
    fixed-size pool waits for its full actor complement before
    processing, and slow teardown of the previous query's pool can
    starve that wait forever (observed livelock after ~37 sequential
    queries).  Autoscaling pools start with one actor and never wait,
    and sf0.01 correctness runs are too short for the fixed-pool
    steady-state advantage to matter.  Extraction builds no pool: it
    is a task stage sized by ``default_pool_size()``.
    """
    from gumbo_pp_ray.state.sizing import default_concurrency
    return default_concurrency()


def _docs(sf_dir: str, columns=("doc_id", "text", "lang", "source")):
    # small-sf tables are a single row group = ONE Ray block; split so
    # actor pools parallelize instead of serializing on one task
    from gumbo_pp_ray.sources.io import read_parquet_clean
    return read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"), columns=list(columns),
        override_num_blocks=32)


# --------------------------------------------------------------- entry

def entry() -> Any:
    """Flagship pipeline on sf0.001: documents → interleaved spans →
    task-stage extraction (pure map; mega-docs chunked in the kernel).
    Returns the extracted Dataset (doc_id, spans, status, counters)."""
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.pipelines.wrap import wrap_documents_chunked

    ds = _docs(_SF0001).map_batches(wrap_documents_chunked,
                                    batch_format="pyarrow")
    return extract_dataset(ds, split_threshold=256, batch_size=64)


# ------------------------------------------------------------- queries

def _q_extract_flagship(sf_dir: str):
    """Full extraction pipeline; spans exploded to one row per span so
    the oracle can reproduce them relationally."""
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.pipelines.wrap import wrap_documents
    from gumbo_pp_ray.stages.explode import explode_spans

    ds = _docs(sf_dir).map_batches(wrap_documents, batch_format="pyarrow")
    out = extract_dataset(ds, split_threshold=256, batch_size=64)
    return (out.select_columns(["doc_id", "spans"])
               .map_batches(explode_spans, batch_format="pyarrow"))


def _sel(selector_builder):
    """Selector query runner: compiled selector applied over the fixed
    per-row template; see stages/selector_query.py."""
    def run(sf_dir: str):
        from gumbo_pp_ray.stages.selector_query import SelectorQuery
        from gumbo_pp_ray.state.sizing import default_concurrency
        return _docs(sf_dir, ("doc_id", "text", "lang", "source",
                              "n_chars")).map_batches(
            SelectorQuery,
            fn_constructor_kwargs={"selector": selector_builder()},
            batch_format="pyarrow", batch_size=256,
            concurrency=default_concurrency())
    return run


def _sel_class_exact():
    from gumbo_pp_ray.html import match
    # M12 — whole-attribute exact equality (reference
    # gumbo_matchers.h:466-476)
    return match.class_type.is_("en")


def _sel_attr_starts_with():
    from gumbo_pp_ray.html import match
    return match.attribute.value.starts_with("data-source", "src1")


def _sel_attr_contains():
    from gumbo_pp_ray.html import match
    return match.attribute.value.contains("data-source", "c1")


def _sel_attr_ends_with():
    from gumbo_pp_ray.html import match
    return match.attribute.value.ends_with("data-source", "3")


def _sel_attr_dash_match():
    from gumbo_pp_ray.html import match
    # M5 — CSS [a|=v]: matches lang="en-std" for prefix "en" only
    return match.attribute.value.contains_prefix("lang", "en")


def _sel_find_all_tag():
    from gumbo_pp_ray.html import match
    return match.tag.P


def _sel_and_not():
    from gumbo_pp_ray.html import match
    return match.tag.DIV & ~match.class_type.is_("en")


def _sel_content_contains():
    from gumbo_pp_ray.html import match
    return match.tag.P & match.content_text.contains("window")


def _sel_id_prefix():
    from gumbo_pp_ray.html import match
    return match.attribute.value.starts_with("id", "doc-1")


def _sel_attr_exists():
    from gumbo_pp_ray.html import match
    # M3 — presence of the conditional data-long attribute
    return match.attribute.exists("data-long")


def _sel_xor():
    from gumbo_pp_ray.html import match
    # C3 — odd-parity combinator over two independent predicates
    return match.tag.DIV & (match.class_type.is_("en")
                            ^ match.attribute.exists("data-long"))


def _sel_attr_value_is():
    from gumbo_pp_ray.html import match
    # M9 — exact whole-value attribute equality (reference
    # gumbo_matchers.h:375-388): matches the span's lang="en-std"
    return match.attribute.value.is_("lang", "en-std")


def _sel_attr_value_empty():
    from gumbo_pp_ray.html import match
    # M10 — attribute present with EMPTY value (reference
    # gumbo_matchers.h:410-431): span data-note="" iff n_chars <= 300
    return match.attribute.value.is_empty("data-note")


def _sel_attr_has_value():
    from gumbo_pp_ray.html import match
    # M10 — attribute present with NON-empty value: data-note="long"
    return match.attribute.value.has_value("data-note")


def _sel_content_ends_with():
    from gumbo_pp_ray.html import match
    # M17 — content-text suffix (intended semantics; the reference's
    # variadic form is buggy, gumbo_matchers.h:610)
    return match.tag.SPAN & match.content_text.ends_with("n")


def _sel_content_is():
    from gumbo_pp_ray.html import match
    # M17 — content-text equality (intended semantics,
    # gumbo_matchers.h:625)
    return match.tag.SPAN & match.content_text.is_("fr")


def _sel_families() -> dict[str, dict[str, Callable[[], Any]]]:
    """The full matcher surface (SURVEY.md §2.3-2.4, reference
    gumbo_matchers.h:159-1077) folded into THREE compound queries so
    every family gets a driver CORRECTNESS row every round (the driver
    records only the first ~50 queries; 16 singletons never all fit —
    VERDICT r3 item 1).  Each family is one pass (one parse per doc),
    each matcher keeps its own exact UNION-branch oracle."""
    return {
        "sel_tag_combinators": {
            # C1-C5 combinator algebra over tag/class/attr predicates
            "find_all_tag": _sel_find_all_tag,
            "and_not": _sel_and_not,
            "xor": _sel_xor,
        },
        "sel_attr_matchers": {
            # M3, M5-M10, M13 attribute namespace
            "starts_with": _sel_attr_starts_with,
            "contains": _sel_attr_contains,
            "ends_with": _sel_attr_ends_with,
            "dash_match": _sel_attr_dash_match,
            "exists": _sel_attr_exists,
            "value_is": _sel_attr_value_is,
            "value_empty": _sel_attr_value_empty,
            "has_value": _sel_attr_has_value,
            "id_prefix": _sel_id_prefix,
        },
        "sel_content_matchers": {
            # M12 class + M15/M17 content_text namespaces
            "class_exact": _sel_class_exact,
            "content_contains": _sel_content_contains,
            "content_ends_with": _sel_content_ends_with,
            "content_is": _sel_content_is,
        },
    }


def _msel(family: str):
    """Compound selector query runner (one parse per doc, the whole
    family of compiled matchers per actor)."""
    def run(sf_dir: str):
        from gumbo_pp_ray.stages.selector_query import MultiSelectorQuery
        from gumbo_pp_ray.state.sizing import default_concurrency
        sels = {name: build()
                for name, build in _sel_families()[family].items()}
        return _docs(sf_dir, ("doc_id", "text", "lang", "source",
                              "n_chars")).map_batches(
            MultiSelectorQuery,
            fn_constructor_kwargs={"selectors": sels},
            batch_format="pyarrow", batch_size=256,
            concurrency=default_concurrency())
    return run


def _q_raw_slices(sf_dir: str):
    """E2/E3 — node_inner_text / node_outer_text raw document slices
    (reference gumbo_pp.h inner/outer accessors): the template's <p>
    node slices back to exactly the row's text, so both accessors are
    SQL-reproducible."""
    from gumbo_pp_ray.html import match
    from gumbo_pp_ray.html.parser import parse as _parse
    from gumbo_pp_ray.html.text import inner_text, outer_text
    from gumbo_pp_ray.html.walk import find_all, walk
    from gumbo_pp_ray.stages.selector_query import selector_doc_html

    sel = match.tag.P

    def run(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        sources = batch.column("source").to_pylist()
        ncs = batch.column("n_chars").to_pylist()
        out_id, out_in, out_out = [], [], []
        for i, t, lg, src, nc in zip(ids, texts, langs, sources, ncs):
            html = selector_doc_html(i, t, lg, src, nc)
            doc = _parse(html)
            for node in find_all(walk(doc), sel):
                out_id.append(str(i))
                out_in.append(inner_text(node, html))
                out_out.append(outer_text(node, html))
        return pa.table({"doc_id": pa.array(out_id, pa.string()),
                         "inner": pa.array(out_in, pa.string()),
                         "outer": pa.array(out_out, pa.string())})

    return _docs(sf_dir, ("doc_id", "text", "lang", "source",
                          "n_chars")).map_batches(
        run, batch_format="pyarrow", batch_size=256)


# --------------------------- training-data operators (dedup/analysis)

def _q_token_stats(sf_dir: str):
    from gumbo_pp_ray.stages.text_analysis import token_stats
    return _docs(sf_dir).map_batches(token_stats, batch_format="pyarrow")


def _q_quality_score(sf_dir: str):
    """Document-quality COMPOUND (VERDICT r4 item 4): the heuristic
    integer components AND the CCNet-style bigram-LM perplexity
    (stages/lm.py — trained on this corpus with the default bounds,
    scored per doc) in one row per document, both pinned by the exact
    DuckDB oracle (the SQL recomputes add-one-smoothed bigram
    perplexity from the same thresholded model).  One fused actor
    stage: model broadcast once, heuristic + ppl computed per batch —
    no join, no extra shuffle."""
    import ray
    from gumbo_pp_ray.stages.lm import (PerplexityScore,
                                        train_bigram_lm)
    from gumbo_pp_ray.stages.text_analysis import QualityScore
    from gumbo_pp_ray.state.sizing import default_concurrency

    model = train_bigram_lm(_docs(sf_dir, ("doc_id", "text")))
    model_ref = ray.put(model)

    class QualityWithPpl:
        def __init__(self):
            self.heur = QualityScore()
            self.ppl = PerplexityScore(model_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            qt = self.heur(batch)
            pt = self.ppl(batch)
            return qt.append_column(
                "ppl_milli", pt.column("ppl_milli")).append_column(
                "n_transitions", pt.column("n_transitions"))

    return _docs(sf_dir).map_batches(
        QualityWithPpl, batch_format="pyarrow",
        concurrency=default_concurrency())


def _tag_lit(col: str, value: str):
    """map_batches fn: append a constant string column (query-fold
    discriminator; the oracle's UNION branch carries the literal)."""
    def add(t: pa.Table) -> pa.Table:
        return t.append_column(col, pa.array([value] * len(t),
                                             pa.string()))
    return add


def _q_dedup_exact(sf_dir: str):
    """Exact dedup in BOTH modes (raw md5 + whitespace/case-normalized)
    folded into one driver query via a ``dedup_mode`` discriminator —
    both hash-groupby keep-min plans run, each against its own oracle
    UNION branch."""
    from gumbo_pp_ray.stages.dedup import exact_dedup
    raw = exact_dedup(_docs(sf_dir)).map_batches(
        _tag_lit("dedup_mode", "raw"), batch_format="pyarrow")
    norm = exact_dedup(_docs(sf_dir), normalize=True).map_batches(
        _tag_lit("dedup_mode", "norm"), batch_format="pyarrow")
    return raw.union(norm)


def _query_tokens(sf_dir: str) -> frozenset:
    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"],
                      filters=[("doc_id", "=", 0)])
    return frozenset(t.column("text")[0].as_py().split())


def _q_word_jaccard(sf_dir: str):
    import functools
    from gumbo_pp_ray.stages.text_analysis import word_jaccard_vs_query
    q = _query_tokens(sf_dir)
    return _docs(sf_dir).map_batches(
        functools.partial(word_jaccard_vs_query, query_tokens=q),
        batch_format="pyarrow")


def _q_doc_annotations(sf_dir: str):
    """Stopword-profile language ID per document — now EXACT: the
    heuristic (ordered stopword-hit argmax with a CJK char-range
    short-circuit, LangId at text_analysis.py:98) is reproduced in
    SQL with regexp_split tokenization + list_filter hit counts, so
    the driver hash-pins the actual prediction, not just row counts.
    The winnowing-fingerprint half of the old compound (CRC rolling
    hash, not SQL-expressible) moved to the simhash_all sketch
    family."""
    class Annotate:
        def __init__(self):
            from gumbo_pp_ray.stages.text_analysis import LangId
            self.lang = LangId()

        def __call__(self, batch: pa.Table) -> pa.Table:
            return self.lang(batch)

    return _docs(sf_dir, ("doc_id", "text")).map_batches(
        Annotate, batch_format="pyarrow", concurrency=_qconc())


def _q_simhash_all(sf_dir: str):
    """SimHash surface folded into one query: per-doc 64-bit sketches
    (kind='hash': a=doc_id, v=signed bit pattern) plus bit-band LSH
    near-dup pairs (kind='pair': a/b=doc pair, v=hamming) plus
    winnowing fingerprint counts (kind='fp': a=doc_id,
    v=n_fingerprints — moved here from doc_annotations so langid
    could go exact; fingerprints are CRC-rolling sketches like the
    rest of this family).  Rows-only by nature (bit sketches)."""
    from gumbo_pp_ray.stages.dedup import simhash_neardup_pairs

    class Sketches:
        """One per-doc pass emitting BOTH sketch kinds (simhash bits +
        fingerprint counts) — one actor pool and one read instead of
        two (a third union branch at 8 driver CPUs starved the
        executor; two branches are the proven shape)."""

        def __init__(self):
            from gumbo_pp_ray.stages.dedup import SimHash
            from gumbo_pp_ray.stages.text_analysis import Fingerprint
            self.sh = SimHash()
            self.fp = Fingerprint()

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").cast("int64")
            h = self.sh(t)
            f = self.fp(t)
            n = len(t)
            return pa.table({
                "a": pa.chunked_array([ids, ids]),
                "b": pa.array([-1] * (2 * n), pa.int64()),
                "v": pa.chunked_array([
                    h.column("simhash"),
                    f.column("n_fingerprints").cast(pa.int64()),
                ]),
                "kind": pa.array(["hash"] * n + ["fp"] * n,
                                 pa.string()),
            })

    hashes = _docs(sf_dir).map_batches(
        Sketches, batch_format="pyarrow", concurrency=_qconc())
    pairs = simhash_neardup_pairs(_docs(sf_dir), max_hamming=3) \
        .map_batches(
        lambda t: pa.table({
            "a": t.column("doc_a").cast("int64"),
            "b": t.column("doc_b").cast("int64"),
            "v": t.column("hamming").cast("int64"),
            "kind": pa.array(["pair"] * len(t), pa.string()),
        }), batch_format="pyarrow")
    return hashes.union(pairs)


def _q_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup pairs, BOTH deployment shapes folded into
    one compound (freeing a contract slot for substring_dedup):
    mode='full' re-hashes the whole corpus; mode='incr' dedupes only
    docs >= 250 against a persisted signature index of docs < 250
    (the 100 TB shape: corpus signatures are kept, only the new shard
    is hashed).  Rows-only — MinHash estimates are probabilistic."""
    import shutil
    from gumbo_pp_ray.stages.dedup import minhash_lsh_pairs
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )
    full = minhash_lsh_pairs(_docs(sf_dir), threshold=0.5).map_batches(
        _tag_lit("mode", "full"), batch_format="pyarrow")
    base = _docs(sf_dir, ("doc_id", "text")).filter(expr="doc_id < 250")
    new = _docs(sf_dir, ("doc_id", "text")).filter(expr="doc_id >= 250")
    idx = os.path.join("/tmp/gumbo_q_sigidx",
                       os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(idx, ignore_errors=True)
    write_signature_index(base, idx)
    incr = minhash_lsh_pairs_incremental(
        new, idx, threshold=0.5).map_batches(
        _tag_lit("mode", "incr"), batch_format="pyarrow")
    return full.union(incr)


def _read_query_embeddings(sf_dir: str, n: int = 10) -> dict:
    import numpy as np
    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n)])
    ids = t.column("vec_id").to_pylist()
    mat = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    return {"ids": ids, "matrix": mat}


def _emb(sf_dir: str):
    from gumbo_pp_ray.sources.io import read_parquet_clean
    return read_parquet_clean(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"], override_num_blocks=32)


def _q_ann_topk(sf_dir: str):
    from gumbo_pp_ray.stages.similarity import ann_topk
    return ann_topk(_emb(sf_dir), _read_query_embeddings(sf_dir), k=10)


def _q_ann_topk_lsh(sf_dir: str):
    """Hyperplane-LSH top-k at a DEGENERATE full-probe config
    (n_planes=2, n_flip=2 ⇒ every query probes all 2^2 buckets), which
    is provably exact — the hist_quantiles trick (VERDICT r3 item 2):
    the whole bucketed machinery (bucket stage, probe map,
    per-bucket scoring, top-k reduce) runs and is pinned by the exact
    brute-force oracle.  Approximate-recall configs are measured in
    tests/test_similarity.py."""
    from gumbo_pp_ray.stages.similarity import ann_topk_lsh
    q = _read_query_embeddings(sf_dir)
    dim = q["matrix"].shape[1]
    return ann_topk_lsh(_emb(sf_dir), q, dim=dim, k=10, n_planes=2,
                        n_flip=2)


def _q_ann_topk_ivf(sf_dir: str):
    """IVF top-k at the DEGENERATE n_probe=n_clusters config (every
    query scores every cluster ⇒ exact; same trick as ann_topk_lsh) —
    training, assignment, probe-map and cluster scoring all run under
    the exact brute-force oracle.  Partial-probe recall is measured in
    tests/test_similarity.py."""
    from gumbo_pp_ray.stages.similarity import ann_topk_ivf
    q = _read_query_embeddings(sf_dir)
    dim = q["matrix"].shape[1]
    return ann_topk_ivf(_emb(sf_dir), q, dim=dim, k=10, n_clusters=16,
                        n_probe=16)


def _q_knn_graph(sf_dir: str):
    """kNN graph PLAN DISCRIMINATOR (VERDICT r4 item 8): both
    execution plans — the exact broadcast baseline (zero shuffle) AND
    the LSH-bucketed scale path at its degenerate ``n_planes=0``
    config (one bucket ⇒ exact) — emit the same (vec_id, neighbor_id,
    rank) edges tagged with a ``plan`` column, so ONE oracle row pins
    them identical.  Approximate-recall LSH configs are measured in
    tests/test_similarity.py."""
    import numpy as np
    import pyarrow.parquet as pq
    from gumbo_pp_ray.stages.similarity import knn_graph, knn_graph_lsh
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    corpus = {"ids": t.column("vec_id").to_pylist(),
              "matrix": np.asarray(t.column("embedding").to_pylist(),
                                   dtype=np.float64)}
    dim = corpus["matrix"].shape[1]

    def tag(plan):
        def add(tb):
            return tb.append_column(
                "plan", pa.array([plan] * len(tb), pa.string()))
        return add

    exact = knn_graph(_emb(sf_dir), corpus, k=5).map_batches(
        tag("broadcast"), batch_format="pyarrow")
    lsh = knn_graph_lsh(_emb(sf_dir), dim=dim, k=5,
                        n_planes=0).map_batches(
        tag("lsh_onebucket"), batch_format="pyarrow")
    return exact.union(lsh)


def _q_emb_neardup(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq
    from gumbo_pp_ray.stages.similarity import embedding_neardup_pairs
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    corpus = {"ids": t.column("vec_id").to_pylist(),
              "matrix": np.asarray(t.column("embedding").to_pylist(),
                                   dtype=np.float64)}
    ds = embedding_neardup_pairs(_emb(sf_dir), corpus, threshold=0.5)
    # an all-empty Dataset loses its schema through to_pandas — return
    # an explicitly-typed Arrow table (pair sets are tiny by nature)
    rows = ds.take_all()
    return pa.table({
        "vec_a": pa.array([r["vec_a"] for r in rows], pa.int64()),
        "vec_b": pa.array([r["vec_b"] for r in rows], pa.int64()),
    })


def _q_emb_neardup_lsh(sf_dir: str):
    """Bucket-first embedding near-dup (the scale path: hyperplane
    buckets → in-bucket pairwise) at the DEGENERATE ``n_planes=0``
    config — one bucket ⇒ the in-bucket pairwise IS the exact
    all-pairs, so the whole bucketed machinery (bucket stage, groupby
    exchange, per-bucket matmul, pair canonicalization) runs under the
    exact emb_neardup oracle (VERDICT r4 item 3, the ann_topk_lsh
    trick).  Approximate-recall configs (n_planes=6) are measured in
    tests/test_similarity.py."""
    from gumbo_pp_ray.stages.similarity import embedding_neardup_pairs_lsh
    dim = _read_query_embeddings(sf_dir, n=1)["matrix"].shape[1]
    ds = embedding_neardup_pairs_lsh(_emb(sf_dir), dim=dim,
                                     threshold=0.5, n_planes=0)
    rows = ds.take_all()
    return pa.table({
        "vec_a": pa.array([r["vec_a"] for r in rows], pa.int64()),
        "vec_b": pa.array([r["vec_b"] for r in rows], pa.int64()),
    })


def _q_emb_neardup_clusters(sf_dir: str):
    """Near-dup PAIRS resolved into duplicate CLUSTERS — the
    composition a real dedup decision pipeline runs (pairs alone are
    not decisions) — as a DUAL plan discriminator: branch
    ``exact_bcast`` runs the exact broadcast pair path into the
    broadcast CC plan; branch ``lsh0_cogroup`` runs the bucketed LSH
    pair path at its degenerate ``n_planes=0`` config (one bucket ⇒
    exact pairs) into the COGROUP CC plan (the 10^12-node shape,
    otherwise never oracle-exercised — dup_clusters' auto plan picks
    broadcast at driver scale).  One recursive-CTE oracle pins both
    stacks identical.  Approximate-recall LSH configs (n_planes=6)
    are measured in tests/test_similarity.py."""
    import numpy as np
    import pyarrow.parquet as pq
    from gumbo_pp_ray.stages.graph import connected_components
    from gumbo_pp_ray.stages.similarity import (
        embedding_neardup_pairs, embedding_neardup_pairs_lsh)
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    corpus = {"ids": t.column("vec_id").to_pylist(),
              "matrix": np.asarray(t.column("embedding").to_pylist(),
                                   dtype=np.float64)}
    dim = corpus["matrix"].shape[1]
    nodes = _emb(sf_dir).select_columns(["vec_id"]).map_batches(
        lambda tb: tb.rename_columns(["doc_id"]), batch_format="pyarrow")

    def run(pairs, cc_plan: str, tag: str):
        pairs = pairs.select_columns(["vec_a", "vec_b"]).map_batches(
            lambda tb: tb.rename_columns(["doc_a", "doc_b"]),
            batch_format="pyarrow")
        cc = connected_components(pairs, nodes, num_partitions=8,
                                  plan=cc_plan)
        return cc.map_batches(
            lambda tb: tb.rename_columns(["vec_id", "cluster_id"])
            .append_column("plan", pa.array([tag] * len(tb),
                                            pa.string())),
            batch_format="pyarrow")

    exact = run(embedding_neardup_pairs(_emb(sf_dir), corpus,
                                        threshold=0.5),
                "broadcast", "exact_bcast")
    lsh = run(embedding_neardup_pairs_lsh(_emb(sf_dir), dim=dim,
                                          threshold=0.5, n_planes=0),
              "cogroup", "lsh0_cogroup")
    return exact.union(lsh)


def _q_page_metadata(sf_dir: str):
    """Head-metadata extraction (title / meta description) over the
    wrapped corpus — the content the span extractor strips."""
    from gumbo_pp_ray.pipelines.wrap import wrap_documents
    from gumbo_pp_ray.stages.assemble import assemble_payloads
    from gumbo_pp_ray.html.extract import extract_metadata
    from gumbo_pp_ray.html.parser import parse as _parse

    def meta_batch(batch):
        ids = batch.column("doc_id").to_pylist()
        titles, descs = [], []
        for html in assemble_payloads(batch):
            m = extract_metadata(_parse(html))
            titles.append(m["title"])
            descs.append(m["description"])
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "title": pa.array(titles, pa.string()),
                         "description": pa.array(descs, pa.string())})

    return (_docs(sf_dir).map_batches(wrap_documents,
                                      batch_format="pyarrow")
                         .map_batches(meta_batch, batch_format="pyarrow"))


def _q_media_refs(sf_dir: str):
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.pipelines.wrap import wrap_documents
    from gumbo_pp_ray.stages.media import collect_media_refs
    ds = _docs(sf_dir).map_batches(wrap_documents, batch_format="pyarrow")
    out = extract_dataset(ds, split_threshold=256, batch_size=64)
    return (out.select_columns(["doc_id", "spans"])
               .map_batches(collect_media_refs, batch_format="pyarrow"))


def _q_media_decode(sf_dir: str):
    """REAL media decode (VERDICT r3 item 3): deterministic honest
    PNG/GIF/JPEG container payloads per media span → pure-Python
    header decode (PNG IHDR / GIF LSD / JPEG SOF) in the actor pool.
    Geometry is a pure function of doc_id, so the decoded output has
    an exact SQL oracle; the fake/Pillow codec seams stay tested in
    tests/test_media.py."""
    from gumbo_pp_ray.stages.media import DecodeMedia, synth_image_payloads
    from gumbo_pp_ray.state.sizing import default_concurrency
    ds = _q_media_refs(sf_dir).map_batches(synth_image_payloads,
                                           batch_format="pyarrow")
    # SECONDARY pool (the extract stage upstream holds a fixed
    # number of CPUs): autoscaling from 1 — a fixed pool beside it
    # would over-reserve CPUs
    out = ds.map_batches(DecodeMedia,
                         fn_constructor_kwargs={"decoder": "headers"},
                         batch_format="pyarrow", batch_size=32,
                         concurrency=default_concurrency())
    return out.select_columns(["doc_id", "media_ref", "media_type",
                               "format", "width", "height", "n_frames"])


def _q_spans_by_lang(sf_dir: str):
    """Hash-partitioned join (Dataset.join, Ray 2.49) of the extraction
    output against document metadata, then a grouped aggregate:
    per-language total extracted spans. The small-side-broadcast
    alternative (state/broadcast.py) is the default for dimension-table
    lookups; this exercises the shuffle join path."""
    import ray.data
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.pipelines.wrap import wrap_documents

    docs = _docs(sf_dir)
    ds = docs.map_batches(wrap_documents, batch_format="pyarrow")
    out = extract_dataset(ds, split_threshold=256, batch_size=64)
    left = out.select_columns(["doc_id", "n_spans"])
    right = _docs(sf_dir, ("doc_id", "lang")).map_batches(
        lambda t: t.set_column(0, "doc_id",
                               t.column("doc_id").cast("string")),
        batch_format="pyarrow")
    joined = left.join(right, join_type="inner", num_partitions=8,
                       on=("doc_id",))
    agg = joined.groupby("lang").aggregate(
        ray.data.aggregate.Sum("n_spans", alias_name="total_spans"))
    return agg.map_batches(
        lambda t: t.set_column(
            t.schema.names.index("total_spans"), "total_spans",
            t.column("total_spans").cast("int64")),
        batch_format="pyarrow")


def _events(sf_dir: str, columns=("user_id", "ts")):
    # events queries are SHUFFLE-bound (windows/as-of sort groupbys pay
    # a fixed cost per partition, and partition count tracks block
    # count) — keep blocks few, unlike the parse-heavy _docs reads
    from gumbo_pp_ray.sources.io import read_parquet_clean
    return read_parquet_clean(os.path.join(sf_dir, "events.parquet"),
                              columns=list(columns),
                              override_num_blocks=4)


def _q_window_counts(sf_dir: str):
    """Tumbling (1-day) AND hopping (1-day window, 6-hour hop — each
    event in 4 windows) aggregations folded into one query via a
    ``kind`` discriminator; both windowing plans run against their own
    exact oracle UNION branch."""
    from gumbo_pp_ray.stages.windows import hopping_counts, tumbling_counts
    t = tumbling_counts(_events(sf_dir), window_sec=86400).map_batches(
        _tag_lit("kind", "tumbling"), batch_format="pyarrow")
    h = hopping_counts(_events(sf_dir), window_sec=86400,
                       hop_sec=21600).map_batches(
        _tag_lit("kind", "hopping"), batch_format="pyarrow")
    return t.union(h)


def _q_doc_chunks(sf_dir: str):
    """Sliding-window chunking (128-token chunks, 32 overlap) — the
    embed/train preprocessing step; exact vs the SQL window oracle."""
    import functools
    from gumbo_pp_ray.stages.text_analysis import chunk_documents
    return _docs(sf_dir, ("doc_id", "text")).map_batches(
        functools.partial(chunk_documents, chunk_tokens=128, overlap=32),
        batch_format="pyarrow")


def _q_norm_text(sf_dir: str):
    """Text-hygiene compound: mode='norm' is Unicode NFC + lowercase
    + whitespace-collapse normalization (the standard
    pre-tokenization step; md5 doubles as the downstream dedup key);
    mode='pii' is the C4/ROOTS-style PII scrub (email/IPv4/phone →
    typed placeholders) run over a deterministic PII-SEEDED
    derivation of each doc — the synthetic corpus contains no PII, so
    the seed (same ``||``-concat recomputed by the oracle) makes the
    redaction path non-trivial and hash-pinned: every doc redacts one
    email, one IP and one phone.  mode='linededup' is corpus-level
    line dedup (C4/CCNet boilerplate-line removal,
    text_analysis.line_dedup): 8-token derived lines, every
    occurrence of a cross-doc-repeated line removed, docs rebuilt —
    a two-co-group distributed pipeline whose exact output the
    oracle recomputes with a window-free GROUP BY."""
    from gumbo_pp_ray.stages.text_analysis import (
        line_dedup, normalize_text, scrub_pii,
    )

    def norm_branch(t: pa.Table) -> pa.Table:
        out = normalize_text(t)
        n = len(out)
        return pa.table({
            "doc_id": out.column("doc_id"),
            "mode": pa.array(["norm"] * n, pa.string()),
            "out_text": out.column("norm_text"),
            "out_hash": out.column("norm_hash"),
            "n_redactions": pa.array([0] * n, pa.int64()),
        })

    def pii_branch(t: pa.Table) -> pa.Table:
        import hashlib
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        seeded = [
            f"{s} reach me at user{i}@example.com or "
            f"10.0.{i % 256}.7 or +1 555 0{i % 100} 4242"
            for i, s in zip(ids, texts)
        ]
        out = scrub_pii(pa.table({
            "doc_id": t.column("doc_id"),
            "text": pa.array(seeded, pa.string()),
        }))
        return pa.table({
            "doc_id": out.column("doc_id"),
            "mode": pa.array(["pii"] * len(out), pa.string()),
            "out_text": out.column("scrubbed"),
            "out_hash": pa.array(
                [hashlib.md5(s.encode("utf-8")).hexdigest()
                 for s in out.column("scrubbed").to_pylist()],
                pa.string()),
            "n_redactions": out.column("n_redactions"),
        })

    def linededup_branch(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "mode": pa.array(["linededup"] * n, pa.string()),
            "out_text": t.column("out_text"),
            "out_hash": t.column("out_hash"),
            "n_redactions": t.column("n_removed"),
        })

    docs = _docs(sf_dir, ("doc_id", "text"))
    norm = docs.map_batches(norm_branch, batch_format="pyarrow")
    pii = docs.map_batches(pii_branch, batch_format="pyarrow")
    ldl = line_dedup(docs, tokens_per_line=8, max_docs=1,
                     num_partitions=8).map_batches(
        linededup_branch, batch_format="pyarrow")
    return norm.union(pii).union(ldl)


def _q_session_windows(sf_dir: str):
    from gumbo_pp_ray.stages.windows import session_windows
    return session_windows(_events(sf_dir), gap_sec=1800)


def _q_events_by_segment(sf_dir: str):
    """Broadcast dimension lookup (customer → mktsegment, ray.put once,
    read per actor) + grouped count — the no-shuffle join strategy for
    small sides."""
    import pyarrow.parquet as pq
    import ray.data
    from gumbo_pp_ray.stages.lookup import BroadcastLookup, broadcast_dim
    from gumbo_pp_ray.state.sizing import default_concurrency

    dim = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                        columns=["c_custkey", "c_mktsegment"])
    ref = broadcast_dim(dim, "c_custkey", "c_mktsegment")
    ev = _events(sf_dir, ("event_id", "user_id"))
    tagged = ev.map_batches(
        BroadcastLookup,
        fn_constructor_kwargs={"dim_ref": ref, "fk_col": "user_id",
                               "out_col": "segment"},
        batch_format="pyarrow", concurrency=default_concurrency())
    out = tagged.groupby("segment").count()
    return out.map_batches(
        lambda t: t.rename_columns(["segment", "n_events"]),
        batch_format="pyarrow")


def _member_events(sf_dir: str, mode: str):
    """Broadcast SEMI/ANTI join: events vs the BUILDING-segment
    customer key set (ray.put once, vectorized membership per
    batch — no shuffle)."""
    import pyarrow.parquet as pq
    import ray.data
    from gumbo_pp_ray.stages.lookup import BroadcastMembership, broadcast_keys
    dim = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                        columns=["c_custkey", "c_mktsegment"],
                        filters=[("c_mktsegment", "=", "BUILDING")])
    ref = broadcast_keys(dim, "c_custkey")
    ev = _events(sf_dir, ("event_id", "user_id"))
    return ev.map_batches(
        BroadcastMembership,
        fn_constructor_kwargs={"dim_ref": ref, "fk_col": "user_id",
                               "mode": mode},
        batch_format="pyarrow", concurrency=_qconc())


def _q_events_semi_anti(sf_dir: str):
    """Broadcast SEMI and ANTI joins vs the BUILDING-segment key set,
    folded into one query via a ``side`` discriminator (the two sides
    partition the events table, so both paths are pinned exactly)."""
    semi = _member_events(sf_dir, "semi").map_batches(
        _tag_lit("side", "semi"), batch_format="pyarrow")
    anti = _member_events(sf_dir, "anti").map_batches(
        _tag_lit("side", "anti"), batch_format="pyarrow")
    return semi.union(anti)


def _q_asof_orders(sf_dir: str):
    from gumbo_pp_ray.sources.io import read_parquet_clean
    from gumbo_pp_ray.stages.asof import asof_join_events_orders
    ev = _events(sf_dir, ("event_id", "user_id", "ts"))
    od = read_parquet_clean(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_orderkey", "o_custkey",
                                     "o_orderdate"])
    # weekly time slices: exercises the hot-key-safe two-phase path
    # (exact — the oracle pins it)
    return asof_join_events_orders(ev, od, slice_sec=7 * 86400)


def _q_range_orders(sf_dir: str):
    """Range (interval) join: per event, same-customer orders within
    the trailing 30-day window — the bounded-window companion to the
    as-of join, same bucketed co-group shape."""
    from gumbo_pp_ray.sources.io import read_parquet_clean
    from gumbo_pp_ray.stages.asof import range_count_events_orders
    ev = _events(sf_dir, ("event_id", "user_id", "ts"))
    od = read_parquet_clean(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_orderkey", "o_custkey",
                                     "o_orderdate"])
    return range_count_events_orders(ev, od, window_sec=30 * 86400)


def _q_pdf_layout(sf_dir: str):
    """REAL PDF parse (VERDICT r3 item 6): deterministic well-formed
    uncompressed PDFs per doc (multi-page, two-column, blocks written
    in REVERSED stream order) → pure-Python mini extractor (object
    table → page tree → content-stream Td/Tj ops, real coordinates)
    → reading-order reconstruction → span sequence.  The span output
    is a pure function of doc_id, so the whole chain has an exact SQL
    oracle; the stub/pypdf seams stay tested in tests/test_pdf.py."""
    from gumbo_pp_ray.stages.explode import explode_spans
    from gumbo_pp_ray.stages.pdf import (
        PdfParse, layout_to_spans, synth_pdf_payloads,
    )
    from gumbo_pp_ray.state.sizing import default_concurrency

    ds = _docs(sf_dir, ("doc_id",)).map_batches(synth_pdf_payloads,
                                                batch_format="pyarrow")
    out = (ds.map_batches(PdfParse,
                          fn_constructor_kwargs={"parser": "mini"},
                          batch_format="pyarrow", batch_size=64,
                          concurrency=default_concurrency())
             .map_batches(layout_to_spans, batch_format="pyarrow",
                          batch_size=None))
    return out.map_batches(explode_spans, batch_format="pyarrow")


def _clusters_ds(sf_dir: str):
    """Dup-cluster resolution: deterministic equivalence edges (same
    source ∪ same lang, star-linked per group) → distributed
    connected components (min-label propagation) → (doc_id,
    cluster_id).  The multi-relation union forces multi-hop
    propagation, pinning transitivity against the recursive-CTE
    oracle."""
    from gumbo_pp_ray.stages.graph import connected_components, star_edges

    def keyed(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        lang = batch.column("lang").to_pylist()
        nc = batch.column("n_chars").to_pylist()
        return pa.table({
            "doc_id": batch.column("doc_id").cast("int64"),
            "k1": pa.array([f"{a}|{b}" for a, b in zip(src, lang)]),
            "k2": pa.array([f"{b}|{c % 7}" for b, c in zip(lang, nc)]),
        })

    keyed_ds = _docs(sf_dir, ("doc_id", "source", "lang", "n_chars")) \
        .map_batches(keyed, batch_format="pyarrow")
    e1 = star_edges(keyed_ds, "k1")
    e2 = star_edges(keyed_ds, "k2")
    return connected_components(e1.union(e2), _docs(sf_dir, ("doc_id",)),
                                num_partitions=8)


def _q_dup_clusters(sf_dir: str):
    """Connected-component cluster assignment PLUS the dedup keep
    decision folded into one query: ``is_keeper`` = doc is its
    cluster's min-id representative (the cluster_keepers predicate,
    graph.py:320) — one row per doc, both facts oracle-pinned."""
    import pyarrow.compute as pc

    def tag(t: pa.Table) -> pa.Table:
        eq = pc.cast(pc.equal(t.column("doc_id"),
                              t.column("cluster_id")), pa.int64())
        return t.append_column("is_keeper", eq)

    return _clusters_ds(sf_dir).map_batches(tag, batch_format="pyarrow")


def _q_repetition_stats(sf_dir: str):
    """Gopher-style within-document repetition signals (duplicate
    3-gram fraction, integer milli)."""
    from gumbo_pp_ray.stages.text_analysis import repetition_stats
    return _docs(sf_dir, ("doc_id", "text")).map_batches(
        repetition_stats, batch_format="pyarrow")


def _q_lang_profile(sf_dir: str):
    """Per-language corpus profile: Ray Data's NATIVE grouped
    aggregates (Count/Sum/Min/Max push-down) MERGED with custom
    grouped order statistics (discrete percentiles via map_groups,
    exact distinct-source counts) — the lang_stats + lang_percentiles
    fold.  Both distributed plans run; the per-language results (one
    row per language, bounded by |langs|) merge on the driver."""
    import math

    import ray.data

    agg = _docs(sf_dir, ("doc_id", "lang", "n_chars")).groupby(
        "lang").aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("n_chars", alias_name="total_chars"),
        ray.data.aggregate.Min("n_chars", alias_name="min_chars"),
        ray.data.aggregate.Max("n_chars", alias_name="max_chars"))

    def fix(t: pa.Table) -> pa.Table:
        t = t.rename_columns(
            ["lang", "n_docs", "total_chars", "min_chars", "max_chars"])
        for c in ("n_docs", "total_chars", "min_chars", "max_chars"):
            t = t.set_column(t.schema.names.index(c), c,
                             t.column(c).cast(pa.int64()))
        return t

    stats = agg.map_batches(fix, batch_format="pyarrow")

    def pctl(group: pa.Table) -> pa.Table:
        import numpy as np
        nc = np.sort(group.column("n_chars").to_numpy(
            zero_copy_only=False))
        n = len(nc)

        def q(p):
            return int(nc[max(0, math.ceil(p * n) - 1)])

        n_sources = len(set(group.column("source").to_pylist()))
        return pa.table({
            "lang": group.column("lang").slice(0, 1),
            "p50_chars": pa.array([q(0.5)], pa.int64()),
            "p90_chars": pa.array([q(0.9)], pa.int64()),
            "n_sources": pa.array([n_sources], pa.int64()),
        })

    pcts = _docs(sf_dir, ("doc_id", "lang", "source", "n_chars")) \
        .groupby("lang").map_groups(pctl, batch_format="pyarrow")

    # per-language outputs are |langs|-sized — driver merge is bounded
    a = stats.to_pandas()
    b = pcts.to_pandas()
    return a.merge(b, on="lang")


def _q_top_tokens_by_lang(sf_dir: str):
    """Per-language token leaderboard (combiner pre-agg → grouped sum
    → per-group top-k with a total order)."""
    from gumbo_pp_ray.stages.text_analysis import top_tokens_by_group
    return top_tokens_by_group(
        _docs(sf_dir, ("doc_id", "text", "lang")), group_col="lang",
        k=5)


def _q_tfidf_scores(sf_dir: str):
    """Corpus-weighted TF-IDF per document — the canonical global-state
    text statistic, computed with two shuffles and no driver-side
    vocabulary (df is computed inside the token-hash co-group)."""
    from gumbo_pp_ray.stages.corpus_stats import tfidf_doc_scores
    return tfidf_doc_scores(_docs(sf_dir, ("doc_id", "text")),
                            num_partitions=8)


def _q_decontam(sf_dir: str):
    """Benchmark decontamination (flag documents sharing word 3-grams
    with the docs-0-4 benchmark set) under ALL THREE plans folded into
    one query: the broadcast-set plan (plan='broadcast'), the
    no-broadcast gram-hash shuffle-join scale plan (plan='shuffle'),
    and the Bloom-prefilter plan (plan='bloom': ~2 MB bitarray
    broadcast + exact co-group verification of bloom-positive suspects
    only — the 100 TB default).  All plans must emit identical rows,
    so one oracle body pinned per plan literal keeps them mutually
    verified every round."""
    import ray
    import pyarrow.parquet as pq
    from gumbo_pp_ray.stages.corpus_stats import (
        decontaminate, decontaminate_bloom, decontaminate_shuffle,
        ngram_set,
    )
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"],
                      filters=[("doc_id", "<", 5)])
    bench_ref = ray.put(ngram_set(t.column("text").to_pylist(), n=3))
    docs = _docs(sf_dir, ("doc_id", "text"))
    bench_ds = docs.filter(expr="doc_id < 5")
    bcast = decontaminate(docs, bench_ref, n=3).map_batches(
        _tag_lit("plan", "broadcast"), batch_format="pyarrow")
    shuf = decontaminate_shuffle(docs, bench_ds, n=3).map_batches(
        _tag_lit("plan", "shuffle"), batch_format="pyarrow")
    blm = decontaminate_bloom(docs, bench_ds, n=3).map_batches(
        _tag_lit("plan", "bloom"), batch_format="pyarrow")
    return bcast.union(shuf).union(blm)


def _q_substring_dedup(sf_dir: str):
    """Substring-level exact dedup (Lee et al. ACL'22 design,
    distributed token-k-gram form): every duplicated 8-token gram
    keeps only its (doc_id, pos)-minimal occurrence; other
    occurrences' positions are removed from their docs.  EXACT —
    DuckDB recomputes the whole pipeline (gram explode → global
    first-occurrence ranking → covered-position union → rebuild) —
    and a PLAN DISCRIMINATOR: both reassembly exchanges (the
    broadcast fast path and the cogroup scale shape) run under the
    same oracle body."""
    from gumbo_pp_ray.stages.substring import (
        substring_rebuild, substring_removals,
    )
    docs = _docs(sf_dir, ("doc_id", "text"))
    removals = substring_removals(docs, k=8,
                                  num_partitions=8).materialize()

    def run(plan):
        out = substring_rebuild(docs, removals, plan=plan,
                                num_partitions=8)
        return out.map_batches(_tag_lit("plan", plan),
                               batch_format="pyarrow")

    return run("broadcast").union(run("cogroup"))


def _q_samples(sf_dir: str):
    """Deterministic sampling surface folded into one query: global
    20% md5-threshold sampling (method='hash20') UNION stratified
    20-per-language md5-rank sampling (method='bylang') — both
    partition-invariant, both against exact oracle branches."""
    import functools
    from gumbo_pp_ray.stages.text_analysis import (
        hash_sample, stratified_sample,
    )
    flat = _docs(sf_dir, ("doc_id",)).map_batches(
        functools.partial(hash_sample, rate=0.2),
        batch_format="pyarrow").map_batches(
        lambda t: t.append_column("stratum",
                                  pa.array([""] * len(t), pa.string())),
        batch_format="pyarrow").map_batches(
        _tag_lit("method", "hash20"), batch_format="pyarrow")
    strat = stratified_sample(_docs(sf_dir, ("doc_id", "lang")),
                              stratum_col="lang", k=20).map_batches(
        lambda t: t.rename_columns(["doc_id", "stratum"]),
        batch_format="pyarrow").map_batches(
        _tag_lit("method", "bylang"), batch_format="pyarrow")
    return flat.union(strat)


def _q_corpus_prep(sf_dir: str):
    """END-TO-END training-corpus prep: quality filter →
    decontamination (vs docs 0-4's 3-grams) → exact dedup keep-min →
    (doc_id, n_tokens).  One fused map + one hash shuffle; the whole
    composition has a single exact oracle."""
    import ray
    import pyarrow.parquet as pq
    from gumbo_pp_ray.pipelines.prep_pipeline import prep_training_corpus
    from gumbo_pp_ray.stages.corpus_stats import ngram_set
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"],
                      filters=[("doc_id", "<", 5)])
    bench_ref = ray.put(ngram_set(t.column("text").to_pylist(), n=3))
    return prep_training_corpus(_docs(sf_dir, ("doc_id", "text")),
                                bench_ref, min_quality_milli=500)


def _q_sample_20pct(sf_dir: str):
    """Deterministic hash sampling (reproducible splits): same keys on
    every run/partitioning, no RNG state."""
    import functools
    from gumbo_pp_ray.stages.text_analysis import hash_sample
    return _docs(sf_dir, ("doc_id",)).map_batches(
        functools.partial(hash_sample, rate=0.2), batch_format="pyarrow")


def _q_frequent_tokens(sf_dir: str):
    from gumbo_pp_ray.stages.text_analysis import frequent_tokens
    return frequent_tokens(_docs(sf_dir, ("doc_id", "text")),
                           min_count=500)


def _q_vocab_size(sf_dir: str):
    from gumbo_pp_ray.stages.sketches import exact_distinct_tokens
    return exact_distinct_tokens(_docs(sf_dir, ("doc_id", "text")))


def _q_vocab_size_hll(sf_dir: str):
    from gumbo_pp_ray.stages.sketches import hll_distinct_tokens
    return hll_distinct_tokens(_docs(sf_dir, ("doc_id", "text")))


def _q_cms_counts(sf_dir: str):
    """Count-min sketch corpus frequency estimates for the query doc's
    first 10 tokens at a DEGENERATE width (w=2^18 » vocab, d=4): the
    probability any probe shares all four row-cells with another token
    collapses to ~(vocab/w)^d, and the fixed seeded hashes make the
    result deterministic — locally verified collision-free at sf0.01,
    so the sketch path gets an exact GROUP-BY oracle (the
    hist_quantiles bin-width-1 trick, VERDICT r3 item 2)."""
    from gumbo_pp_ray.stages.sketches import cms_token_counts
    probes = sorted(_query_tokens(sf_dir))[:10]
    _, est = cms_token_counts(_docs(sf_dir, ("doc_id", "text")),
                              probes=probes, d=4, w=1 << 18)
    return pa.table({
        "token": pa.array(list(est.keys()), pa.string()),
        "est_n": pa.array(list(est.values()), pa.int64()),
    })


def _q_hist_quantiles(sf_dir: str):
    """Histogram-sketch quantiles over n_chars with BIN WIDTH 1
    (lo=0, hi=1024, bins=1024): the bin-width error bound collapses to
    zero, so the mergeable-sketch path is exactly the discrete
    quantile and gets a real DuckDB oracle (quantile_disc)."""
    from gumbo_pp_ray.stages.sketches import histogram_quantiles
    ds = _docs(sf_dir, ("doc_id", "n_chars"))
    est = histogram_quantiles(ds, col="n_chars", lo=0, hi=1024,
                              bins=1024, quantiles=(0.5, 0.9, 0.99))
    qs_ = sorted(est)
    return pa.table({
        "q_milli": pa.array([int(round(q * 1000)) for q in qs_],
                            pa.int64()),
        "n_chars_q": pa.array([int(est[q]) for q in qs_], pa.int64()),
    })


def _q_token_shards(sf_dir: str):
    """Training-shard assembly: contiguous packing of docs (id order)
    into ~10k-char shards via the distributed prefix scan —
    shard_id = exclusive_prefix_sum(n_chars) // budget, exact vs the
    SQL window oracle."""
    from gumbo_pp_ray.stages.packing import assign_contiguous_shards
    return assign_contiguous_shards(
        _docs(sf_dir, ("doc_id", "n_chars")), budget=10_000)


def _q_url_canon(sf_dir: str):
    """URL canonicalization: messy URLs synthesized deterministically
    per doc (lang picks the mess shape: casing, default ports, empty
    paths, fragments, unsorted/duplicate query params) → canonical
    form + host.  The oracle constructs the expected canonical strings
    independently in SQL."""
    from gumbo_pp_ray.stages.urls import canonicalize_urls

    def mk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        urls = []
        for i, lg in zip(ids, langs):
            k = i % 7
            if lg == "en":
                urls.append(f"HTTP://WWW.Example{k}.COM:80/path/{i}"
                            f"?b=2&a=1#frag")
            elif lg == "fr":
                urls.append(f"https://Site{k}.FR:443")
            elif lg == "de":
                urls.append(f"http://host{k}.de:8080/p/{i}?z=9&a=2&a=1")
            elif lg == "es":
                urls.append(f"HTTPS://a{k}.ES/q/{i}#sec")
            else:
                urls.append(f"http://M{k}.it/{i}")
        return pa.table({"doc_id": batch.column("doc_id"),
                         "url": pa.array(urls, pa.string())})

    ds = _docs(sf_dir, ("doc_id", "lang")).map_batches(
        mk, batch_format="pyarrow")
    return canonicalize_urls(ds)


def _q_table_scrape(sf_dir: str):
    from gumbo_pp_ray.stages.table_query import TableScrapeQuery
    from gumbo_pp_ray.state.sizing import default_concurrency
    return _docs(sf_dir, ("doc_id", "lang", "source", "n_chars")) \
        .map_batches(TableScrapeQuery, batch_format="pyarrow",
                     batch_size=256, concurrency=default_concurrency())


def _q_extract_totals(sf_dir: str):
    """Corpus-level counters (the lineage metrics path) as a tiny
    aggregate over the flagship output."""
    import ray.data
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.pipelines.wrap import wrap_documents

    ds = _docs(sf_dir).map_batches(wrap_documents, batch_format="pyarrow")
    out = extract_dataset(ds, split_threshold=256, batch_size=64)
    agg = out.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("n_spans", alias_name="n_spans"),
        ray.data.aggregate.Sum("n_parse_errors", alias_name="n_parse_errors"))
    import pyarrow as pa_
    return pa_.table({
        "n_docs": pa_.array([int(agg["count()"])], pa_.int64()),
        "n_spans": pa_.array([int(agg["n_spans"])], pa_.int64()),
        "n_parse_errors": pa_.array([int(agg["n_parse_errors"])],
                                    pa_.int64()),
    })


def queries() -> dict[str, Callable[[str], Any]]:
    # 49 entries — the WHOLE contract fits under the driver's ~50-row
    # per-round cap (VERDICT r3 item 1), so every query gets a
    # CORRECTNESS row every round.  Related singletons are folded into
    # compound queries with a discriminator column + UNION-branch
    # oracles (see each _q_* docstring).  Ordered riskiest-first:
    # the selector families exercise parser.py (changed 9x in r3),
    # then queries whose last green row predates recent stage changes.
    return {
        # matcher surface (SURVEY.md §2.3-2.4) — re-oracled
        # post-parser-changes as three compound families
        "sel_tag_combinators": _msel("sel_tag_combinators"),
        "sel_attr_matchers": _msel("sel_attr_matchers"),
        "sel_content_matchers": _msel("sel_content_matchers"),
        # last green row r2, stage code changed since (VERDICT item 4)
        "samples": _q_samples,
        "dup_clusters": _q_dup_clusters,
        "frequent_tokens": _q_frequent_tokens,
        # newly exact this round (degenerate configs / real decode)
        "ann_topk_lsh": _q_ann_topk_lsh,
        "ann_topk_ivf": _q_ann_topk_ivf,
        "cms_counts": _q_cms_counts,
        "media_decode": _q_media_decode,
        "pdf_layout": _q_pdf_layout,
        # flagship + end-to-end pipelines
        "extract_flagship": _q_extract_flagship,
        "extract_totals": _q_extract_totals,
        "table_scrape": _q_table_scrape,
        "corpus_prep": _q_corpus_prep,
        "raw_slices": _q_raw_slices,
        "page_metadata": _q_page_metadata,
        "media_refs": _q_media_refs,
        "spans_by_lang": _q_spans_by_lang,
        # dedup / similarity
        "dedup_exact": _q_dedup_exact,
        "minhash_pairs": _q_minhash_pairs,      # rows-only (full+incr)
        "substring_dedup": _q_substring_dedup,
        "simhash_all": _q_simhash_all,          # rows-only (sketches)
        "word_jaccard": _q_word_jaccard,
        "ann_topk": _q_ann_topk,
        "knn_graph": _q_knn_graph,
        "emb_neardup": _q_emb_neardup,
        "emb_neardup_lsh": _q_emb_neardup_lsh,  # exact at n_planes=0
        "emb_neardup_clusters": _q_emb_neardup_clusters,  # dual-plan exact
        # text analysis / corpus stats
        "token_stats": _q_token_stats,
        "quality_score": _q_quality_score,
        "doc_annotations": _q_doc_annotations,  # exact (SQL langid)
        "repetition_stats": _q_repetition_stats,
        "lang_profile": _q_lang_profile,
        "top_tokens_by_lang": _q_top_tokens_by_lang,
        "tfidf_scores": _q_tfidf_scores,
        "decontam": _q_decontam,
        "norm_text": _q_norm_text,
        "doc_chunks": _q_doc_chunks,
        "token_shards": _q_token_shards,
        "url_canon": _q_url_canon,
        # sketches
        "vocab_size": _q_vocab_size,
        "vocab_size_hll": _q_vocab_size_hll,    # rows-only (sketch)
        "hist_quantiles": _q_hist_quantiles,
        # windows / joins over events
        "window_counts": _q_window_counts,
        "session_windows": _q_session_windows,
        "asof_orders": _q_asof_orders,
        "range_orders": _q_range_orders,
        "events_by_segment": _q_events_by_segment,
        "events_semi_anti": _q_events_semi_anti,
    }


# -------------------------------------------------------------- oracle

def oracle_sql() -> dict[str, str]:
    return {
        "extract_flagship": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id, 'heading' AS kind,
                   source AS text, '' AS media_ref, 0 AS "offset"
            FROM documents
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'text', text, '', 1
            FROM documents
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'media', '',
                   'img://doc/' || CAST(doc_id AS VARCHAR) || '.jpg', 2
            FROM documents
        """,
        # compound selector families: one UNION branch per matcher,
        # each branch identical to the former singleton oracle
        "sel_tag_combinators": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'find_all_tag' AS matcher, text AS match_text
            FROM documents
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'and_not', text
            FROM documents WHERE lang <> 'en'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'xor', text
            FROM documents WHERE (lang = 'en') <> (n_chars > 300)
        """,
        "sel_attr_matchers": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'starts_with' AS matcher, text AS match_text
            FROM documents WHERE source LIKE 'src1%'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'contains', text
            FROM documents WHERE source LIKE '%c1%'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'ends_with', text
            FROM documents WHERE source LIKE '%3'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'dash_match', lang
            FROM documents WHERE lang = 'en'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'exists', text
            FROM documents WHERE n_chars > 300
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'value_is', lang
            FROM documents WHERE lang = 'en'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'value_empty', lang
            FROM documents WHERE n_chars <= 300
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'has_value', lang
            FROM documents WHERE n_chars > 300
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'id_prefix', text
            FROM documents WHERE CAST(doc_id AS VARCHAR) LIKE '1%'
        """,
        "sel_content_matchers": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'class_exact' AS matcher, text AS match_text
            FROM documents WHERE lang = 'en'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'content_contains', text
            FROM documents WHERE text LIKE '%window%'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'content_ends_with', lang
            FROM documents WHERE lang LIKE '%n'
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 'content_is', lang
            FROM documents WHERE lang = 'fr'
        """,
        "raw_slices": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   text AS "inner",
                   '<p>' || text || '</p>' AS "outer"
            FROM documents
        """,
        "token_stats": r"""
            WITH t AS (
              SELECT doc_id, length(text) AS n_chars,
                     CASE WHEN trim(text) = '' THEN []
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS toks
              FROM documents)
            SELECT doc_id, n_chars,
                   CAST(len(toks) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(toks)) AS BIGINT)
                     AS n_uniq_tokens,
                   CAST(CASE WHEN len(toks) = 0 THEN 0
                        ELSE 1000 * len(list_distinct(toks)) // len(toks)
                        END AS BIGINT) AS uniq_ratio_milli
            FROM t
        """,
        # compound: heuristic components + CCNet-style bigram-LM
        # perplexity recomputed from scratch in SQL — same model as
        # stages/lm.py defaults (vocab_min_count=5, bigram_min_count=2,
        # caps non-binding at oracle scales), add-one smoothing with
        # UNK folding, ppl_milli = round(1000 * 2^mean(-log2 p))
        "quality_score": r"""
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS toks,
                     length(text) AS n_chars,
                     length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                       AS n_alpha
              FROM documents),
            tok AS (SELECT doc_id, u.tok FROM t, unnest(toks) AS u(tok)),
            uni AS (
              SELECT tok, CAST(count(*) AS BIGINT) AS n FROM tok
              GROUP BY tok HAVING count(*) >= 5),
            vsz AS (SELECT count(*) AS v FROM uni),
            rawpairs AS (
              SELECT t.doc_id, z[1] AS w1r, z[2] AS w2r
              FROM t, unnest(list_zip(toks, toks[2:])) AS zz(z)
              WHERE z[2] IS NOT NULL),
            folded AS (
              SELECT p.doc_id,
                     CASE WHEN u1.tok IS NULL THEN NULL
                          ELSE p.w1r END AS w1,
                     CASE WHEN u2.tok IS NULL THEN NULL
                          ELSE p.w2r END AS w2,
                     u1.n AS w1n
              FROM rawpairs p
              LEFT JOIN uni u1 ON u1.tok = p.w1r
              LEFT JOIN uni u2 ON u2.tok = p.w2r),
            bg AS (
              SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
              FROM folded GROUP BY w1, w2 HAVING count(*) >= 2),
            unk AS (SELECT COALESCE(sum(n), 0) AS n
                    FROM bg WHERE w1 IS NULL),
            trans AS (
              SELECT f.doc_id,
                     COALESCE(g.n, 0) + 1.0 AS num,
                     COALESCE(f.w1n, (SELECT n FROM unk))
                       + (SELECT v FROM vsz) + 1.0 AS den
              FROM folded f
              LEFT JOIN bg g ON g.w1 IS NOT DISTINCT FROM f.w1
                            AND g.w2 IS NOT DISTINCT FROM f.w2),
            ppl AS (
              SELECT doc_id,
                     CAST(round(1000 * pow(2.0,
                          avg(-log2(num / den)))) AS BIGINT)
                       AS ppl_milli,
                     CAST(count(*) AS BIGINT) AS n_transitions
              FROM trans GROUP BY doc_id)
            SELECT t.doc_id,
                   CAST(len(toks) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(toks)) AS BIGINT) AS n_uniq,
                   CAST(n_alpha AS BIGINT) AS n_alpha,
                   CAST(n_chars AS BIGINT) AS n_chars,
                   CAST(400 * LEAST(len(toks), 200) // 200
                        + 300 * len(list_distinct(toks))
                          // GREATEST(len(toks), 1)
                        + 300 * n_alpha // GREATEST(n_chars, 1)
                        AS BIGINT) AS quality_milli,
                   COALESCE(p.ppl_milli, 0) AS ppl_milli,
                   COALESCE(p.n_transitions, 0) AS n_transitions
            FROM t LEFT JOIN ppl p ON p.doc_id = t.doc_id
        """,
        "dedup_exact": r"""
            SELECT md5(text) AS content_hash,
                   min(doc_id) AS doc_id,
                   count(*) AS n_dups,
                   'raw' AS dedup_mode
            FROM documents GROUP BY md5(text)
            UNION ALL
            SELECT md5(trim(lower(regexp_replace(text, '\s+', ' ', 'g')))),
                   min(doc_id), count(*), 'norm'
            FROM documents
            GROUP BY md5(trim(lower(regexp_replace(text, '\s+', ' ', 'g'))))
        """,
        "word_jaccard": r"""
            WITH q AS (
              SELECT list_distinct(regexp_split_to_array(trim(text), '\s+'))
                       AS qt
              FROM documents WHERE doc_id = 0),
            d AS (
              SELECT doc_id,
                     list_distinct(regexp_split_to_array(trim(text), '\s+'))
                       AS dt
              FROM documents)
            SELECT d.doc_id,
                   CAST(len(list_intersect(d.dt, q.qt)) AS BIGINT)
                     AS n_inter,
                   CAST(len(d.dt) + len(q.qt)
                        - len(list_intersect(d.dt, q.qt)) AS BIGINT)
                     AS n_union,
                   CAST(1000 * len(list_intersect(d.dt, q.qt))
                        // (len(d.dt) + len(q.qt)
                            - len(list_intersect(d.dt, q.qt)))
                        AS BIGINT) AS jaccard_milli
            FROM d, q
        """,
        "ann_topk": """
            WITH q AS (
              SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id < 10),
            s AS (
              SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                     list_cosine_similarity(
                       q.qe, CAST(e.embedding AS DOUBLE[])) AS cos
              FROM q, embeddings e WHERE e.vec_id <> q.qid)
            SELECT query_id, neighbor_id, rank FROM (
              SELECT query_id, neighbor_id,
                     row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY cos DESC, neighbor_id) AS rank
              FROM s)
            WHERE rank <= 10
        """,
        "knn_graph": """
            WITH s AS (
              SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id,
                     list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])) AS cos
              FROM embeddings a, embeddings b
              WHERE a.vec_id <> b.vec_id),
            topk AS (
              SELECT vec_id, neighbor_id, rank FROM (
                SELECT vec_id, neighbor_id,
                       row_number() OVER (
                         PARTITION BY vec_id
                         ORDER BY cos DESC, neighbor_id) AS rank
                FROM s)
              WHERE rank <= 5)
            SELECT t.vec_id, t.neighbor_id, t.rank, p.plan
            FROM topk t, (VALUES ('broadcast'),
                                 ('lsh_onebucket')) AS p(plan)
        """,
        # degenerate full-probe configs are EXACT -> same oracle as
        # the brute-force path (see _q_ann_topk_lsh/_q_ann_topk_ivf)
        "ann_topk_lsh": """
            WITH q AS (
              SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id < 10),
            s AS (
              SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                     list_cosine_similarity(
                       q.qe, CAST(e.embedding AS DOUBLE[])) AS cos
              FROM q, embeddings e WHERE e.vec_id <> q.qid)
            SELECT query_id, neighbor_id, rank FROM (
              SELECT query_id, neighbor_id,
                     row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY cos DESC, neighbor_id) AS rank
              FROM s)
            WHERE rank <= 10
        """,
        "ann_topk_ivf": """
            WITH q AS (
              SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id < 10),
            s AS (
              SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                     list_cosine_similarity(
                       q.qe, CAST(e.embedding AS DOUBLE[])) AS cos
              FROM q, embeddings e WHERE e.vec_id <> q.qid)
            SELECT query_id, neighbor_id, rank FROM (
              SELECT query_id, neighbor_id,
                     row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY cos DESC, neighbor_id) AS rank
              FROM s)
            WHERE rank <= 10
        """,
        "cms_counts": r"""
            WITH probes AS (
              SELECT DISTINCT t.tok FROM documents,
                   unnest(regexp_split_to_array(trim(text), '\s+'))
                     AS t(tok)
              WHERE doc_id = 0 ORDER BY t.tok LIMIT 10),
            cnt AS (
              SELECT t.tok, CAST(count(*) AS BIGINT) AS est_n
              FROM documents,
                   unnest(regexp_split_to_array(trim(text), '\s+'))
                     AS t(tok)
              GROUP BY t.tok)
            SELECT p.tok AS token, c.est_n
            FROM probes p JOIN cnt c ON p.tok = c.tok
        """,
        "emb_neardup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(
                    CAST(a.embedding AS DOUBLE[]),
                    CAST(b.embedding AS DOUBLE[])) >= 0.5
        """,
        # degenerate n_planes=0 (one bucket) is EXACT -> same pair
        # oracle as the broadcast path (see _q_emb_neardup_lsh)
        "emb_neardup_lsh": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(
                    CAST(a.embedding AS DOUBLE[]),
                    CAST(b.embedding AS DOUBLE[])) >= 0.5
        """,
        # both branches (exact-broadcast pairs -> broadcast CC;
        # lsh-onebucket pairs -> cogroup CC) must equal the
        # recursive-CTE min-label components over the exact pair set
        "emb_neardup_clusters": """
            WITH RECURSIVE e AS (
                SELECT a.vec_id AS u, b.vec_id AS v
                FROM embeddings a, embeddings b
                WHERE a.vec_id <> b.vec_id
                  AND list_cosine_similarity(
                        CAST(a.embedding AS DOUBLE[]),
                        CAST(b.embedding AS DOUBLE[])) >= 0.5
            ),
            walk(vec_id, r) AS (
                SELECT vec_id, vec_id FROM embeddings
                UNION
                SELECT e.v, w.r FROM walk w JOIN e ON e.u = w.vec_id
            ),
            cc AS (
                SELECT vec_id, CAST(min(r) AS BIGINT) AS cluster_id
                FROM walk GROUP BY vec_id
            )
            SELECT c.vec_id, c.cluster_id, p.plan
            FROM cc c, (VALUES ('exact_bcast'),
                               ('lsh0_cogroup')) AS p(plan)
        """,
        "page_metadata": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'doc ' || CAST(doc_id AS VARCHAR) AS title,
                   source AS description
            FROM documents
        """,
        "media_refs": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'img://doc/' || CAST(doc_id AS VARCHAR) || '.jpg'
                     AS media_ref,
                   'image' AS media_type
            FROM documents
        """,
        # page/block/text formulas mirror pdf.synth_pdf_bytes; reading
        # order (p asc, block asc) is what layout reconstruction must
        # recover from the REVERSED content streams
        "pdf_layout": """
            WITH pages AS (
              SELECT doc_id, t.p AS p
              FROM documents,
                   unnest(generate_series(0, doc_id % 2)) AS t(p)),
            blocks AS (
              SELECT doc_id, p, u.k AS k
              FROM pages,
                   unnest(generate_series(0, 1 + (doc_id + p) % 3))
                     AS u(k))
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'text' AS kind,
                   'doc ' || doc_id || ' p' || p || ' b' || k AS text,
                   '' AS media_ref,
                   CAST(row_number() OVER (
                     PARTITION BY doc_id ORDER BY p, k) - 1 AS INT)
                     AS "offset"
            FROM blocks
        """,
        # geometry formulas mirror media.synth_image_bytes (the real
        # containers the header decoder parses back)
        "media_decode": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'img://doc/' || CAST(doc_id AS VARCHAR) || '.jpg'
                     AS media_ref,
                   'image' AS media_type,
                   CASE doc_id % 3 WHEN 0 THEN 'png' WHEN 1 THEN 'gif'
                        ELSE 'jpeg' END AS format,
                   CAST(16 + (doc_id * 3) % 240 AS INT) AS width,
                   CAST(16 + (doc_id * 7) % 240 AS INT) AS height,
                   CAST(1 AS INT) AS n_frames
            FROM documents
        """,
        "table_scrape": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   CAST(0 AS BIGINT) AS row_idx, CAST(0 AS BIGINT) AS col_idx,
                   lang AS cell FROM documents
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 0, 1, source FROM documents
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 1, 0,
                   'n' || CAST(n_chars AS VARCHAR) FROM documents
            UNION ALL
            SELECT CAST(doc_id AS VARCHAR), 1, 1,
                   CAST(doc_id AS VARCHAR) FROM documents
        """,
        "extract_totals": """
            SELECT count(*) AS n_docs,
                   3 * count(*) AS n_spans,
                   CAST(0 AS BIGINT) AS n_parse_errors
            FROM documents
        """,
        "spans_by_lang": """
            SELECT lang, CAST(3 * count(*) AS BIGINT) AS total_spans
            FROM documents GROUP BY lang
        """,
        "events_by_segment": """
            SELECT c.c_mktsegment AS segment, count(*) AS n_events
            FROM events e JOIN customer c ON e.user_id = c.c_custkey
            GROUP BY 1
        """,
        "asof_orders": """
            SELECT e.event_id, e.user_id, x.o_orderkey
            FROM events e, LATERAL (
              SELECT o.o_orderkey FROM orders o
              WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
              ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1) x
        """,
        "events_semi_anti": """
            SELECT event_id, user_id, 'semi' AS side FROM events
            WHERE user_id IN (SELECT c_custkey FROM customer
                              WHERE c_mktsegment = 'BUILDING')
            UNION ALL
            SELECT event_id, user_id, 'anti' FROM events
            WHERE user_id NOT IN (SELECT c_custkey FROM customer
                                  WHERE c_mktsegment = 'BUILDING')
        """,
        "range_orders": """
            SELECT e.event_id, e.user_id,
                   CAST(COALESCE(c.n, 0) AS BIGINT) AS n_orders
            FROM events e LEFT JOIN (
              SELECT e2.event_id AS eid, count(*) AS n
              FROM events e2 JOIN orders o
                ON o.o_custkey = e2.user_id
               AND o.o_orderdate <= e2.ts
               AND o.o_orderdate >= e2.ts - INTERVAL 30 DAY
              GROUP BY 1) c ON c.eid = e.event_id
        """,
        "window_counts": """
            SELECT user_id,
                   epoch_us(ts) // 86400000000 AS window_id,
                   count(*) AS n_events,
                   'tumbling' AS kind
            FROM events GROUP BY 1, 2
            UNION ALL
            SELECT user_id, t.w, count(*), 'hopping'
            FROM events, unnest(generate_series(
                CAST((epoch_us(ts) - 86400000000) // 21600000000 + 1
                     AS BIGINT),
                CAST(epoch_us(ts) // 21600000000 AS BIGINT))) AS t(w)
            GROUP BY 1, 2
        """,
        "url_canon": """
            SELECT doc_id,
              CASE lang
                WHEN 'en' THEN 'HTTP://WWW.Example' || (doc_id % 7)
                  || '.COM:80/path/' || doc_id || '?b=2&a=1#frag'
                WHEN 'fr' THEN 'https://Site' || (doc_id % 7) || '.FR:443'
                WHEN 'de' THEN 'http://host' || (doc_id % 7)
                  || '.de:8080/p/' || doc_id || '?z=9&a=2&a=1'
                WHEN 'es' THEN 'HTTPS://a' || (doc_id % 7) || '.ES/q/'
                  || doc_id || '#sec'
                ELSE 'http://M' || (doc_id % 7) || '.it/' || doc_id
              END AS url,
              CASE lang
                WHEN 'en' THEN 'http://www.example' || (doc_id % 7)
                  || '.com/path/' || doc_id || '?a=1&b=2'
                WHEN 'fr' THEN 'https://site' || (doc_id % 7) || '.fr/'
                WHEN 'de' THEN 'http://host' || (doc_id % 7)
                  || '.de:8080/p/' || doc_id || '?a=1&a=2&z=9'
                WHEN 'es' THEN 'https://a' || (doc_id % 7) || '.es/q/'
                  || doc_id
                ELSE 'http://m' || (doc_id % 7) || '.it/' || doc_id
              END AS url_canon,
              CASE lang
                WHEN 'en' THEN 'www.example' || (doc_id % 7) || '.com'
                WHEN 'fr' THEN 'site' || (doc_id % 7) || '.fr'
                WHEN 'de' THEN 'host' || (doc_id % 7) || '.de'
                WHEN 'es' THEN 'a' || (doc_id % 7) || '.es'
                ELSE 'm' || (doc_id % 7) || '.it'
              END AS host
            FROM documents
        """,
        "doc_chunks": r"""
            WITH toks AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS t
              FROM documents),
            starts AS (
              SELECT doc_id, t, u.s AS s
              FROM toks,
                   unnest(generate_series(0, GREATEST(len(t) - 1, 0),
                                          96)) AS u(s)
              WHERE len(t) > 0 AND u.s < len(t))
            SELECT doc_id,
                   CAST(s // 96 AS BIGINT) AS chunk_idx,
                   array_to_string(t[s + 1:s + 128], ' ') AS chunk_text,
                   CAST(LEAST(len(t) - s, 128) AS BIGINT) AS n_tokens
            FROM starts
        """,
        "token_shards": """
            SELECT doc_id, n_chars,
                   CAST(COALESCE(SUM(n_chars) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) // 10000
                        AS BIGINT) AS shard_id
            FROM documents
        """,
        "hist_quantiles": """
            SELECT CAST(500 AS BIGINT) AS q_milli,
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT)
                     AS n_chars_q FROM documents
            UNION ALL
            SELECT 900, CAST(quantile_disc(n_chars, 0.9) AS BIGINT)
            FROM documents
            UNION ALL
            SELECT 990, CAST(quantile_disc(n_chars, 0.99) AS BIGINT)
            FROM documents
        """,
        # LangId (text_analysis.py:98) reproduced in SQL: lower+split
        # tokens, stopword-profile hit counts, CJK char-range
        # short-circuit, ordered argmax (earlier profile wins ties —
        # the >= chain encodes the dict iteration order en,fr,es,de,zh)
        "doc_annotations": r"""
            WITH t AS (
              SELECT doc_id, text,
                     list_filter(regexp_split_to_array(lower(text),
                                                       '\s+'),
                                 x -> x <> '') AS tk
              FROM documents
            ),
            h AS (
              SELECT doc_id, len(tk) AS n,
                regexp_matches(substr(text, 1, 200),
                               '[\x{4e00}-\x{9fff}]') AS cjk,
                len(list_filter(tk, x -> x IN ('the','and','of','to',
                  'a','in','is','that','it','was'))) AS h_en,
                len(list_filter(tk, x -> x IN ('le','la','les','de',
                  'et','un','une','est','que','dans'))) AS h_fr,
                len(list_filter(tk, x -> x IN ('el','la','los','de',
                  'y','un','una','es','que','en'))) AS h_es,
                len(list_filter(tk, x -> x IN ('der','die','das','und',
                  'ein','eine','ist','nicht','zu'))) AS h_de,
                len(list_filter(tk, x -> x IN ('的','了','是','在','我',
                  '有','和','不','人','这'))) AS h_zh
              FROM t
            )
            SELECT doc_id,
              CASE
                WHEN n = 0 THEN 'und'
                WHEN cjk THEN 'zh'
                WHEN h_en = 0 AND h_fr = 0 AND h_es = 0 AND h_de = 0
                     AND h_zh = 0 THEN 'und'
                WHEN h_en >= h_fr AND h_en >= h_es AND h_en >= h_de
                     AND h_en >= h_zh THEN 'en'
                WHEN h_fr >= h_es AND h_fr >= h_de AND h_fr >= h_zh
                     THEN 'fr'
                WHEN h_es >= h_de AND h_es >= h_zh THEN 'es'
                WHEN h_de >= h_zh THEN 'de'
                ELSE 'zh'
              END AS lang_pred
            FROM h
        """,
        # the full substring-dedup pipeline recomputed in SQL: gram
        # explode -> global (doc_id, pos) first-occurrence ranking ->
        # covered-position union -> per-doc rebuild.  1-based list
        # positions in SQL vs 0-based in the engine cancel out (both
        # orderings and spans are position-shift-invariant).
        "substring_dedup": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS tk
              FROM documents
            ),
            pos AS (
              SELECT doc_id, unnest(tk) AS tok,
                     generate_subscripts(tk, 1) AS p
              FROM toks
            ),
            grams AS (
              SELECT doc_id, p,
                     array_to_string(tk[p : p + 8 - 1], ' ') AS g
              FROM (SELECT doc_id, tk, generate_subscripts(tk, 1) AS p
                    FROM toks)
              WHERE p + 8 - 1 <= len(tk)
            ),
            ranked AS (
              SELECT doc_id, p,
                     row_number() OVER (PARTITION BY g
                                        ORDER BY doc_id, p) AS rn
              FROM grams
            ),
            removed AS (
              SELECT DISTINCT r.doc_id, r.p + t.u AS rp
              FROM ranked r CROSS JOIN range(8) t(u)
              WHERE r.rn > 1
            ),
            kept AS (
              SELECT x.doc_id,
                     string_agg(x.tok, ' ' ORDER BY x.p) AS text_kept,
                     count(*) AS n_kept
              FROM pos x LEFT JOIN removed r
                ON r.doc_id = x.doc_id AND r.rp = x.p
              WHERE r.doc_id IS NULL
              GROUP BY x.doc_id
            )
            SELECT t.doc_id,
                   coalesce(k.text_kept, '') AS text,
                   CAST(len(t.tk) AS BIGINT) AS n_tokens_in,
                   CAST(len(t.tk) - coalesce(k.n_kept, 0) AS BIGINT)
                     AS n_removed,
                   p.plan
            FROM toks t LEFT JOIN kept k USING (doc_id)
                 CROSS JOIN (VALUES ('broadcast'),
                                    ('cogroup')) AS p(plan)
        """,
        # both engines run RE2 (pyarrow.compute / DuckDB), so the
        # sequential scrub chain is exactly reproducible in SQL
        "norm_text": r"""
            WITH norm AS (
                SELECT doc_id, 'norm' AS mode,
                       regexp_replace(trim(lower(nfc_normalize(text))),
                                      '\s+', ' ', 'g') AS out_text,
                       CAST(0 AS BIGINT) AS n_redactions
                FROM documents
            ),
            seeded AS (
                SELECT doc_id,
                       text || ' reach me at user'
                            || CAST(doc_id AS VARCHAR)
                            || '@example.com or 10.0.'
                            || CAST(doc_id % 256 AS VARCHAR)
                            || '.7 or +1 555 0'
                            || CAST(doc_id % 100 AS VARCHAR)
                            || ' 4242' AS t
                FROM documents
            ),
            s1 AS (
                SELECT doc_id,
                       len(regexp_extract_all(t,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'
                           )) AS c1,
                       regexp_replace(t,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t
                FROM seeded
            ),
            s2 AS (
                SELECT doc_id, c1,
                       len(regexp_extract_all(t,
                           '\b(?:\d{1,3}\.){3}\d{1,3}\b')) AS c2,
                       regexp_replace(t, '\b(?:\d{1,3}\.){3}\d{1,3}\b',
                                      '<IP>', 'g') AS t
                FROM s1
            ),
            s3 AS (
                SELECT doc_id, c1, c2,
                       len(regexp_extract_all(t,
                           '\+?\d[\d -]{7,}\d')) AS c3,
                       regexp_replace(t, '\+?\d[\d -]{7,}\d',
                                      '<PHONE>', 'g') AS t
                FROM s2
            )
            , toks AS (
                SELECT doc_id,
                       regexp_split_to_array(trim(text), '\s+') AS t
                FROM documents WHERE trim(text) <> ''
            ),
            ldl AS (
                SELECT doc_id, i AS line_idx,
                       array_to_string(t[(i*8+1):(i*8+8)], ' ') AS line
                FROM toks, unnest(generate_series(
                    0, CAST(ceil(len(t)/8.0) AS BIGINT) - 1)) AS u(i)
            ),
            lfreq AS (
                SELECT line, count(DISTINCT doc_id) AS nd
                FROM ldl GROUP BY 1
            ),
            flagged AS (
                SELECT l.doc_id, l.line_idx, l.line,
                       CASE WHEN f.nd > 1 THEN 1 ELSE 0 END AS rm
                FROM ldl l JOIN lfreq f USING (line)
            ),
            rebuilt AS (
                SELECT d.doc_id,
                       COALESCE(string_agg(
                           CASE WHEN g.rm = 0 THEN g.line END,
                           chr(10) ORDER BY g.line_idx), '') AS out_text,
                       CAST(COALESCE(sum(g.rm), 0) AS BIGINT) AS n_rm
                FROM documents d LEFT JOIN flagged g USING (doc_id)
                GROUP BY d.doc_id
            )
            SELECT doc_id, mode, out_text, md5(out_text) AS out_hash,
                   n_redactions
            FROM norm
            UNION ALL
            SELECT doc_id, 'pii', t, md5(t),
                   CAST(c1 + c2 + c3 AS BIGINT)
            FROM s3
            UNION ALL
            SELECT doc_id, 'linededup', out_text, md5(out_text), n_rm
            FROM rebuilt
        """,
        "session_windows": """
            WITH marks AS (
              SELECT user_id, ts,
                     CASE WHEN epoch(ts) - epoch(lag(ts) OVER w) > 1800
                          THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
            tagged AS (
              SELECT user_id,
                     CAST(sum(new_s) OVER (
                       PARTITION BY user_id ORDER BY ts
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
              FROM marks)
            SELECT user_id, session_id, count(*) AS n_events
            FROM tagged GROUP BY 1, 2
        """,
        "repetition_stats": r"""
            WITH toks AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS t
              FROM documents WHERE trim(text) <> ''),
            grams AS (
              SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
              FROM toks, unnest(generate_series(1, len(t) - 2)) AS u(i)
              WHERE len(t) >= 3),
            cnt AS (SELECT doc_id, g, count(*) AS c
                    FROM grams GROUP BY 1, 2),
            agg AS (SELECT doc_id, sum(c) AS ng,
                           COALESCE(sum(CASE WHEN c > 1 THEN c END), 0)
                             AS nd
                    FROM cnt GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(a.ng, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(a.nd, 0) AS BIGINT) AS n_dup_grams,
                   CAST(CASE WHEN COALESCE(a.ng, 0) = 0 THEN 0
                        ELSE 1000 * a.nd // a.ng END AS BIGINT)
                     AS dup_gram_milli
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        "lang_profile": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   CAST(min(n_chars) AS BIGINT) AS min_chars,
                   CAST(max(n_chars) AS BIGINT) AS max_chars,
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT)
                     AS p50_chars,
                   CAST(quantile_disc(n_chars, 0.9) AS BIGINT)
                     AS p90_chars,
                   CAST(count(DISTINCT source) AS BIGINT) AS n_sources
            FROM documents GROUP BY lang
        """,
        "top_tokens_by_lang": r"""
            WITH toks AS (
              SELECT lang,
                     unnest(regexp_split_to_array(trim(text), '\s+'))
                       AS token
              FROM documents WHERE trim(text) <> ''),
            cnt AS (SELECT lang, token, CAST(count(*) AS BIGINT) AS n
                    FROM toks GROUP BY 1, 2)
            SELECT lang, token, n, CAST(rank AS BIGINT) AS rank FROM (
              SELECT lang, token, n,
                     row_number() OVER (
                       PARTITION BY lang ORDER BY n DESC, token) AS rank
              FROM cnt) WHERE rank <= 5
        """,
        "tfidf_scores": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(trim(text), '\s+'))
                       AS tok
              FROM documents WHERE trim(text) <> ''),
            tf AS (SELECT doc_id, tok, count(*) AS tf
                   FROM toks GROUP BY 1, 2),
            df AS (SELECT tok, count(*) AS df FROM tf GROUP BY 1),
            n AS (SELECT count(*) AS n FROM documents)
            SELECT tf.doc_id,
                   CAST(sum(tf.tf * ((1000 * n.n) // df.df)) AS BIGINT)
                     AS tfidf_milli
            FROM tf, df, n WHERE tf.tok = df.tok GROUP BY tf.doc_id
        """,
        "decontam": r"""
            WITH toks AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS t
              FROM documents WHERE trim(text) <> ''),
            grams AS (
              SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
              FROM toks, unnest(generate_series(1, len(t) - 2)) AS u(i)
              WHERE len(t) >= 3),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id < 5),
            hits AS (SELECT g.doc_id, count(DISTINCT g.g) AS n
                     FROM grams g JOIN bench b ON g.g = b.g
                     GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(h.n, 0) AS BIGINT) AS n_contaminated,
                   CAST(CASE WHEN COALESCE(h.n, 0) > 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS contaminated,
                   p.plan
            FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id
            CROSS JOIN (VALUES ('broadcast'), ('shuffle'),
                               ('bloom')) AS p(plan)
        """,
        "samples": """
            SELECT doc_id, '' AS stratum, 'hash20' AS method
            FROM documents
            WHERE substr(md5('42:' || CAST(doc_id AS VARCHAR)), 1, 8)
                  < '33333333'
            UNION ALL
            SELECT doc_id, lang, 'bylang' FROM (
              SELECT doc_id, lang,
                     row_number() OVER (
                       PARTITION BY lang
                       ORDER BY md5('42:' || CAST(doc_id AS VARCHAR)),
                                doc_id) AS rn
              FROM documents) WHERE rn <= 20
        """,
        "dup_clusters": """
            WITH RECURSIVE e AS (
                SELECT a.doc_id AS u, b.doc_id AS v
                FROM documents a JOIN documents b
                  ON a.source = b.source AND a.lang = b.lang
                     AND a.doc_id <> b.doc_id
                UNION
                SELECT a.doc_id, b.doc_id
                FROM documents a JOIN documents b
                  ON a.lang = b.lang AND a.n_chars % 7 = b.n_chars % 7
                     AND a.doc_id <> b.doc_id
            ),
            walk(doc_id, r) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT e.v, w.r FROM walk w JOIN e ON e.u = w.doc_id
            )
            SELECT doc_id, CAST(min(r) AS BIGINT) AS cluster_id,
                   CAST(doc_id = min(r) AS BIGINT) AS is_keeper
            FROM walk GROUP BY doc_id
        """,
        "corpus_prep": r"""
            WITH toks AS (
              SELECT doc_id, text,
                     CASE WHEN trim(text) = '' THEN []
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS t
              FROM documents),
            q AS (
              SELECT doc_id, text, t,
                     400 * LEAST(len(t), 200) // 200
                     + 300 * len(list_distinct(t)) // GREATEST(len(t), 1)
                     + 300 * length(regexp_replace(text, '[^A-Za-z]',
                                                   '', 'g'))
                       // GREATEST(length(text), 1) AS quality_milli
              FROM toks),
            grams AS (
              SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
              FROM toks, unnest(generate_series(1, len(t) - 2)) AS u(i)
              WHERE len(t) >= 3),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id < 5),
            hits AS (SELECT g.doc_id, count(DISTINCT g.g) AS n
                     FROM grams g JOIN bench b ON g.g = b.g GROUP BY 1),
            ok AS (
              SELECT q.doc_id, md5(q.text) AS h,
                     CAST(len(q.t) AS BIGINT) AS n_tokens
              FROM q LEFT JOIN hits ON q.doc_id = hits.doc_id
              WHERE q.quality_milli >= 500
                AND COALESCE(hits.n, 0) = 0)
            SELECT doc_id, n_tokens FROM ok
            QUALIFY row_number() OVER (PARTITION BY h
                                       ORDER BY doc_id) = 1
        """,
        "frequent_tokens": r"""
            SELECT t.tok, CAST(count(*) AS BIGINT) AS n
            FROM documents,
                 unnest(regexp_split_to_array(trim(text), '\s+')) AS t(tok)
            GROUP BY t.tok HAVING count(*) >= 500
        """,
        "vocab_size": r"""
            SELECT CAST(count(DISTINCT t.tok) AS BIGINT)
                     AS n_distinct_tokens
            FROM documents,
                 unnest(regexp_split_to_array(trim(text), '\s+')) AS t(tok)
        """,
    }
