"""TF-IDF, decontamination and stratified-sampling tests."""

import hashlib

import pyarrow as pa

from gumbo_pp_ray.stages.corpus_stats import (
    ngram_set, tfidf_doc_scores, decontaminate,
)
from gumbo_pp_ray.stages.text_analysis import stratified_sample


def test_ngram_set_unit():
    s = ngram_set(["a b c d", "x y z"], n=3)
    assert s == frozenset({"a b c", "b c d", "x y z"})
    assert ngram_set(["a b"], n=3) == frozenset()


def test_tfidf_integer_exact(ray_session):
    import ray.data
    # 4 docs; token "common" in all (idf = 1000*4//4 = 1000),
    # "rare" in one (idf = 4000)
    t = pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["common rare rare", "common", "common", "common"],
    })
    out = tfidf_doc_scores(ray.data.from_arrow(t),
                           num_partitions=4).take_all()
    got = {r["doc_id"]: r["tfidf_milli"] for r in out}
    assert got == {0: 1 * 1000 + 2 * 4000, 1: 1000, 2: 1000, 3: 1000}


def test_tfidf_empty_docs_skipped(ray_session):
    import ray.data
    t = pa.table({"doc_id": [0, 1], "text": ["a b", ""]})
    out = tfidf_doc_scores(ray.data.from_arrow(t),
                           num_partitions=2).take_all()
    assert {r["doc_id"] for r in out} == {0}


def test_decontaminate_planted_overlap(ray_session):
    import ray
    import ray.data
    bench = ngram_set(["the quick brown fox jumps"], n=3)
    ref = ray.put(bench)
    t = pa.table({
        "doc_id": [0, 1, 2],
        "text": ["nothing shared here at all",
                 "we said the quick brown fox runs",   # 2 shared grams
                 "short"],
    })
    out = decontaminate(ray.data.from_arrow(t), ref, n=3).take_all()
    got = {r["doc_id"]: (r["n_contaminated"], r["contaminated"])
           for r in out}
    assert got == {0: (0, 0), 1: (2, 1), 2: (0, 0)}


def test_stratified_sample_deterministic(ray_session):
    import ray.data
    t = pa.table({
        "doc_id": list(range(100)),
        "lang": [("en", "fr", "de")[i % 3] for i in range(100)],
    })
    a = stratified_sample(ray.data.from_arrow(t), stratum_col="lang",
                          k=5).take_all()
    b = stratified_sample(
        ray.data.from_arrow(t).random_shuffle(seed=3).repartition(7),
        stratum_col="lang", k=5).take_all()
    key = lambda r: (r["lang"], r["doc_id"])
    assert sorted(map(key, a)) == sorted(map(key, b))
    per = {}
    for r in a:
        per[r["lang"]] = per.get(r["lang"], 0) + 1
    assert per == {"en": 5, "fr": 5, "de": 5}
    # rank rule: the kept ids are the 5 smallest md5-ranks per stratum
    for lang in per:
        members = [i for i in range(100)
                   if ("en", "fr", "de")[i % 3] == lang]
        ranked = sorted(members, key=lambda i: (
            hashlib.md5(f"42:{i}".encode()).hexdigest(), i))[:5]
        kept = sorted(r["doc_id"] for r in a if r["lang"] == lang)
        assert kept == sorted(ranked)


def test_prep_training_corpus_composition(ray_session):
    """End-to-end prep: low-quality docs, contaminated docs and exact
    duplicates all drop; survivors keep the min doc_id per dup group."""
    import ray
    import ray.data
    from gumbo_pp_ray.pipelines.prep_pipeline import prep_training_corpus

    syl = ["ka", "ri", "to", "mu", "se", "lo", "ne", "vi", "da",
           "po", "gu", "fa", "che", "bi"]
    # ~196 distinct all-alpha tokens → long, diverse, high quality
    good = " ".join(a + b for a in syl for b in syl)
    bench_text = "the quick brown fox jumps over the lazy dog"
    contaminated = good + " " + bench_text
    t = pa.table({
        "doc_id": [0, 1, 2, 3, 4],
        "text": [good, good,           # exact dups → keep doc 0
                 contaminated,         # benchmark overlap → dropped
                 "repeat repeat repeat repeat",   # low quality → dropped
                 good + " unique tail extra"],
    })
    ref = ray.put(ngram_set([bench_text], n=3))
    out = prep_training_corpus(ray.data.from_arrow(t), ref,
                               min_quality_milli=500).take_all()
    got = {r["doc_id"]: r["n_tokens"] for r in out}
    assert set(got) == {0, 4}
    assert got[0] == len(good.split())


def test_decontaminate_shuffle_matches_broadcast(ray_session):
    """The no-broadcast scale path must produce exactly the broadcast
    path's output (schema and values), including zero-hit docs."""
    import pyarrow as pa
    import ray
    import ray.data
    from gumbo_pp_ray.stages.corpus_stats import (
        decontaminate, decontaminate_shuffle, ngram_set,
    )

    texts = [f"alpha beta gamma delta {i} epsilon zeta" for i in range(30)]
    texts += ["alpha beta gamma shared phrase here"] * 3
    texts += ["totally different words nothing shared"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": texts})
    bench_texts = ["alpha beta gamma shared phrase here",
                   "epsilon zeta nothing"]
    ds = ray.data.from_arrow(t).repartition(4)
    bench_ds = ray.data.from_arrow(
        pa.table({"text": bench_texts})).repartition(2)

    ref = ray.put(ngram_set(bench_texts, n=3))
    want = decontaminate(ds, ref, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    got = decontaminate_shuffle(ds, bench_ds, n=3, num_partitions=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got[sorted(got.columns)].equals(want[sorted(want.columns)])
    assert got["contaminated"].sum() >= 3     # planted overlaps found
    assert (got["n_contaminated"] == 0).any()  # zero-hit docs present


def test_decontaminate_shuffle_empty_bench_side(ray_session):
    """No benchmark n-grams at all -> every doc present with 0 hits."""
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.stages.corpus_stats import decontaminate_shuffle

    t = pa.table({"doc_id": pa.array(range(10), pa.int64()),
                  "text": [f"doc {i} words here now" for i in range(10)]})
    bench = ray.data.from_arrow(pa.table({"text": ["xy"]}))  # < n tokens
    out = decontaminate_shuffle(ray.data.from_arrow(t), bench, n=3,
                                num_partitions=4).to_pandas()
    assert len(out) == 10
    assert (out["n_contaminated"] == 0).all()
    assert (out["contaminated"] == 0).all()


def test_decontaminate_bloom_matches_broadcast(ray_session):
    """The Bloom-prefilter plan is EXACT: identical output to the
    broadcast plan (schema and values, zero-hit docs included), and
    the prefilter genuinely prunes — suspect gram rows are a small
    fraction of the corpus' distinct grams."""
    import pyarrow as pa
    import ray
    import ray.data
    from gumbo_pp_ray.stages.corpus_stats import (
        _bloom_suspect_rows, build_bench_bloom, decontaminate,
        decontaminate_bloom, ngram_set,
    )

    texts = [f"alpha beta gamma delta {i} epsilon zeta" for i in range(30)]
    texts += ["alpha beta gamma shared phrase here"] * 3
    texts += ["totally different words nothing shared"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": texts})
    bench_texts = ["alpha beta gamma shared phrase here",
                   "epsilon zeta nothing"]
    ds = ray.data.from_arrow(t).repartition(4)
    bench_ds = ray.data.from_arrow(
        pa.table({"text": bench_texts})).repartition(2)

    ref = ray.put(ngram_set(bench_texts, n=3))
    want = decontaminate(ds, ref, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    bloom = build_bench_bloom(bench_ds, n=3)
    got = decontaminate_bloom(ds, bench_ds, n=3, num_partitions=4,
                              bloom=bloom) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got[sorted(got.columns)].equals(want[sorted(want.columns)])
    assert got["contaminated"].sum() >= 3
    assert (got["n_contaminated"] == 0).any()
    # the prefilter prunes: suspect rows << distinct doc grams
    import numpy as np
    bloom_arr = ray.get(bloom[0])
    suspects = _bloom_suspect_rows(
        t, n=3, num_buckets=4, bloom_ref=bloom_arr,
        bits=bloom[1]["bits"], k=bloom[1]["k"])
    n_doc_grams = sum(
        len({" ".join(tx.split()[j:j + 3])
             for j in range(len(tx.split()) - 2)}) for tx in texts)
    assert 0 < suspects.num_rows < n_doc_grams // 2


def test_bloom_false_positive_never_leaks(ray_session):
    """Even a Bloom filter that claims EVERYTHING (all bits set) must
    not change the output — exact verification adjudicates every
    suspect."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from gumbo_pp_ray.stages.corpus_stats import (
        decontaminate, decontaminate_bloom, ngram_set,
    )

    texts = [f"unique words {i} in this doc" for i in range(12)]
    texts.append("planted overlap three gram here")
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": texts})
    bench_texts = ["planted overlap three gram here"]
    ds = ray.data.from_arrow(t).repartition(3)
    bench_ds = ray.data.from_arrow(pa.table({"text": bench_texts}))

    bits = 1 << 12
    all_set = ray.put(np.full(bits // 8, 0xFF, dtype=np.uint8))
    got = decontaminate_bloom(
        ds, bench_ds, n=3, num_partitions=4,
        bloom=(all_set, {"bits": bits, "k": 2, "n": 3})) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    ref = ray.put(ngram_set(bench_texts, n=3))
    want = decontaminate(ds, ref, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got[sorted(got.columns)].equals(want[sorted(want.columns)])


def test_bloom_param_validation():
    import pytest

    from gumbo_pp_ray.stages.corpus_stats import (
        build_bench_bloom, decontaminate_bloom,
    )
    with pytest.raises(ValueError, match="power of two"):
        build_bench_bloom(None, bits=100)
    with pytest.raises(ValueError, match="k must be"):
        build_bench_bloom(None, k=0)
    with pytest.raises(ValueError, match="built for n="):
        decontaminate_bloom(None, None, n=4,
                            bloom=(None, {"bits": 8, "k": 2, "n": 3}))
