"""Dedup operator tests: exact, MinHash signatures + LSH pipeline,
SimHash, n-gram Jaccard verification."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from gumbo_pp_ray.stages.dedup import (
    MinHasher, SimHash, add_content_hash, hamming64, ngram_jaccard,
)


def tbl(*texts):
    return pa.table({"doc_id": list(range(len(texts))),
                     "text": list(texts)})


def test_content_hash_matches_md5():
    out = add_content_hash(tbl("hello", "hello", "world"))
    hs = out.column("content_hash").to_pylist()
    assert hs[0] == hs[1] == hashlib.md5(b"hello").hexdigest()
    assert hs[2] != hs[0]


def test_content_hash_normalized():
    out = add_content_hash(tbl("Hello   World", "hello world"),
                           normalize=True)
    hs = out.column("content_hash").to_pylist()
    assert hs[0] == hs[1]


def test_minhash_jaccard_estimate():
    mh = MinHasher(num_perm=256)
    base = "the quick brown fox jumps over the lazy dog " * 10
    near = base.replace("lazy", "sleepy", 2)
    far = "completely different words entirely unrelated content here " * 10
    s1, s2, s3 = (mh.signature(t) for t in (base, near, far))
    est_near = (s1 == s2).mean()
    est_far = (s1 == s3).mean()
    assert est_near > 0.5
    assert est_far < 0.1
    # deterministic across instances (seeded)
    assert (MinHasher(num_perm=256).signature(base) == s1).all()


def test_minhash_estimate_tracks_true_jaccard():
    mh = MinHasher(num_perm=256, shingle_words=3)
    a = " ".join(f"w{i}" for i in range(200))
    b = " ".join(f"w{i}" for i in range(100)) + " " + \
        " ".join(f"x{i}" for i in range(100))
    true_j = ngram_jaccard(a, b, 3)
    est = (mh.signature(a) == mh.signature(b)).mean()
    assert abs(est - true_j) < 0.12     # 256 perms → stderr ~0.03


def test_simhash_near_and_far():
    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("dog", "cat")
    far = "totally different text with other tokens " * 5
    h1 = SimHash.simhash64(base)
    h2 = SimHash.simhash64(near)
    h3 = SimHash.simhash64(far)
    assert hamming64(h1, h2) < 12
    assert hamming64(h1, h3) > 20
    assert SimHash.simhash64("") == 0
    out = SimHash()(tbl(base))
    assert isinstance(out.column("simhash").to_pylist()[0], int)


def test_ngram_jaccard():
    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0
    assert ngram_jaccard("", "") == 1.0
    j = ngram_jaccard("a b c d e", "a b c d x")
    assert 0 < j < 1


# ------------------------------- Ray pipelines -------------------------------

@pytest.fixture()
def dup_corpus():
    """60 distinct docs + 3 planted near-dup clusters."""
    rng = np.random.RandomState(7)
    words = [f"tok{i}" for i in range(500)]
    texts, ids = [], []
    n = 0
    for _ in range(60):
        texts.append(" ".join(rng.choice(words, 80)))
        ids.append(n)
        n += 1
    planted = []
    for c in range(3):
        base = " ".join(rng.choice(words, 80))
        texts.append(base)
        ids.append(n)
        a = n
        n += 1
        toks = base.split()
        toks[5] = "CHANGED"
        texts.append(" ".join(toks))
        ids.append(n)
        planted.append((a, n))
        n += 1
    return pa.table({"doc_id": ids, "text": texts}), planted


def test_exact_dedup_pipeline(ray_session):
    import ray.data
    from gumbo_pp_ray.stages.dedup import exact_dedup

    t = tbl("aaa", "bbb", "aaa", "ccc", "bbb", "aaa")
    out = exact_dedup(ray.data.from_arrow(t)).take_all()
    by_hash = {r["content_hash"]: r for r in out}
    assert len(by_hash) == 3
    counts = sorted(r["n_dups"] for r in out)
    assert counts == [1, 2, 3]
    # winner is min doc_id
    aaa = hashlib.md5(b"aaa").hexdigest()
    assert by_hash[aaa]["doc_id"] == 0


def test_minhash_lsh_finds_planted_pairs(ray_session, dup_corpus):
    import ray.data
    from gumbo_pp_ray.stages.dedup import minhash_lsh_pairs

    table, planted = dup_corpus
    pairs = minhash_lsh_pairs(ray.data.from_arrow(table),
                              threshold=0.5).take_all()
    found = {(r["doc_a"], r["doc_b"]) for r in pairs}
    for a, b in planted:
        assert (a, b) in found, f"planted pair {(a, b)} missed"
    # no false positives among random docs (threshold 0.5)
    for a, b in found:
        assert ngram_jaccard(
            table.column("text")[a].as_py(),
            table.column("text")[b].as_py()) > 0.3


def test_simhash_neardup_pipeline(ray_session):
    import ray.data
    from gumbo_pp_ray.stages.dedup import simhash_neardup_pairs

    rng = np.random.RandomState(9)
    words = [f"w{i}" for i in range(400)]
    texts, ids = [], []
    for n in range(40):
        texts.append(" ".join(rng.choice(words, 60)))
        ids.append(n)
    # planted near-dup: one word changed out of 60
    base = texts[5].split()
    base[10] = "ALTERED"
    texts.append(" ".join(base))
    ids.append(40)
    t = pa.table({"doc_id": ids, "text": texts})
    pairs = simhash_neardup_pairs(ray.data.from_arrow(t),
                                  max_hamming=3).take_all()
    found = {(r["doc_a"], r["doc_b"]) for r in pairs}
    assert (5, 40) in found, found
    # no random pair should be within hamming 3
    from gumbo_pp_ray.stages.dedup import SimHash, hamming64
    for a, b in found:
        d = hamming64(SimHash.simhash64(texts[a]), SimHash.simhash64(texts[b]))
        assert d <= 3


def test_bucket_star_overflow_unit():
    """Hot buckets: quadratic pairs up to the cap, star links to the
    bucket minimum beyond it — no member silently dropped."""
    from gumbo_pp_ray.stages.dedup import HOT_BUCKET_CAP, bucket_candidate_ids

    n = HOT_BUCKET_CAP + 44
    g = pa.table({"doc_id": list(range(n))})
    out = bucket_candidate_ids(g)
    pairs = set(zip(out.column("doc_a").to_pylist(),
                    out.column("doc_b").to_pylist()))
    assert len(pairs) == HOT_BUCKET_CAP * (HOT_BUCKET_CAP - 1) // 2 + 44
    covered = {a for a, _ in pairs} | {b for _, b in pairs}
    assert covered == set(range(n))          # full membership coverage
    for j in range(HOT_BUCKET_CAP, n):
        assert (0, j) in pairs               # star links to the hub


def test_minhash_hot_bucket_full_cluster_recall(ray_session):
    """A planted hot bucket (600 identical docs, >> HOT_BUCKET_CAP)
    must keep every member connected in the verified pair output."""
    import ray.data
    from gumbo_pp_ray.stages.dedup import minhash_lsh_pairs

    n = 600
    t = pa.table({"doc_id": list(range(n)),
                  "text": ["identical boilerplate page " * 20] * n})
    pairs = minhash_lsh_pairs(ray.data.from_arrow(t),
                              threshold=0.5).take_all()
    covered = ({r["doc_a"] for r in pairs}
               | {r["doc_b"] for r in pairs})
    assert covered == set(range(n))
    # identical docs → estimate is exactly 1.0
    assert all(r["jaccard_est_milli"] == 1000 for r in pairs)


def test_minhash_no_candidates_empty_result(ray_session):
    """A corpus with no near-dups flows through the distributed verify
    without error and yields zero pairs."""
    import ray.data
    from gumbo_pp_ray.stages.dedup import minhash_lsh_pairs

    texts = [" ".join(f"u{i}w{j}" for j in range(50)) for i in range(8)]
    t = pa.table({"doc_id": list(range(8)), "text": texts})
    pairs = minhash_lsh_pairs(ray.data.from_arrow(t),
                              threshold=0.5).take_all()
    assert pairs == []


def test_simhash_band_keys_disjoint_across_bands():
    """bands=2 → 32-bit band values; the int key b*2^width + v must
    keep band namespaces disjoint (the value is masked to width bits,
    so the namespaces tile the key space without overlap)."""
    import numpy as np

    from gumbo_pp_ray.stages.dedup import simhash_bands

    t = pa.table({"doc_id": [0, 1],
                  "simhash": pa.array([(1 << 48) | 7, 7], pa.int64())})
    out = simhash_bands(t, bands=2)
    keys = np.asarray(out.column("band_key").to_pylist(),
                      dtype=np.uint64)
    band_of = keys >> np.uint64(32)
    assert set(band_of.tolist()) == {0, 1}
    # doc 0's upper band value (1<<16) could collide with a band-0
    # value; the band id in the top bits must keep the keys distinct
    b0 = set(keys[band_of == 0].tolist())
    b1 = set(keys[band_of == 1].tolist())
    assert not (b0 & b1)
    # docs 0 and 1 share band 0 (both lower halves == 7) but not band 1
    assert len(b0) == 1 and len(b1) == 2


def test_minhash_band_exchange_modes_agree(ray_session, dup_corpus):
    import ray.data
    from gumbo_pp_ray.stages.dedup import minhash_lsh_pairs

    table, planted = dup_corpus
    def pairset(mode):
        ds = ray.data.from_arrow(table)
        return {(r["doc_a"], r["doc_b"], r["jaccard_est_milli"])
                for r in minhash_lsh_pairs(ds, threshold=0.5,
                                           band_exchange=mode).take_all()}
    ids_mode = pairset("ids")
    sig_mode = pairset("signatures")
    assert ids_mode == sig_mode
    found = {(a, b) for a, b, _ in ids_mode}
    for p in planted:
        assert p in found


def test_cogroup_verify_prune_equivalence(ray_session, monkeypatch):
    """The cost-gated candidate semi-join prune must not change the
    ids-plan output: identical pairs with the prune forced ON
    (default at this scale) and forced OFF (all signatures ride the
    attach exchanges, the above-the-gate shape)."""
    import ray.data

    from gumbo_pp_ray.stages import dedup

    texts = [" ".join(f"d{i}w{j}" for j in range(60)) for i in range(30)]
    texts[7] = texts[3]                       # planted exact dup
    base = texts[11].split(); base[5] = "X"   # planted near dup
    texts.append(" ".join(base))
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})

    def run():
        return sorted(
            (r["doc_a"], r["doc_b"], r["jaccard_est_milli"])
            for r in dedup.minhash_lsh_pairs(
                ray.data.from_arrow(t), threshold=0.5,
                band_exchange="ids").take_all())

    pruned = run()
    monkeypatch.setattr(dedup, "CAND_BROADCAST_MAX_PAIRS", 0)
    unpruned = run()
    assert pruned == unpruned
    assert (3, 7, 1000) in pruned


def test_simhash_batch_matches_scalar_reference():
    """simhash_batch (vectorized: one unpackbits + reduceat) must be
    bit-for-bit identical to the scalar SimHash.simhash64 reference,
    including empty docs and single-token docs."""
    from gumbo_pp_ray.stages.dedup import SimHash, simhash_batch

    rng = np.random.RandomState(3)
    words = [f"t{i}" for i in range(300)]
    texts = ["", "solo", "  ", "a b", "unicode éè tokens"]
    texts += [" ".join(rng.choice(words, rng.randint(1, 120)))
              for _ in range(40)]
    out = simhash_batch(tbl(*texts))
    got = out.column("simhash").to_pylist()
    for t, g in zip(texts, got):
        ref = SimHash.simhash64(t)
        assert np.uint64(np.int64(g)) == np.uint64(ref), t


def test_lsh_bands_vectorized_alignment():
    """lsh_bands emits bands rows per doc in doc-major order with the
    doc's signature repeated on each (carry mode), identical band
    keys for identical signatures, distinct keys across bands for the
    same chunk values, and bucket == the exchange bucket of band_key."""
    from gumbo_pp_ray.stages.dedup import lsh_bands
    from gumbo_pp_ray.state.exchange import key_buckets

    sig_a = list(range(16))
    sig_b = list(range(16))          # identical -> same band keys
    sig_c = [7] * 16                 # same chunk value in every band
    t = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "signature": pa.array([sig_a, sig_b, sig_c],
                              pa.list_(pa.int64())),
    })
    out = lsh_bands(t, bands=4, rows=4, num_buckets=32)
    assert out.column("doc_id").to_pylist() == [10] * 4 + [11] * 4 + [12] * 4
    keys = out.column("band_key").to_pylist()
    assert keys[0:4] == keys[4:8]            # identical sigs agree
    # identical chunk VALUES in different bands must not collide
    assert len(set(keys[8:12])) == 4
    sigs = out.column("signature").to_pylist()
    assert sigs[0] == sig_a and sigs[5] == sig_b and sigs[11] == sig_c
    buckets = out.column("bucket").to_pylist()
    assert buckets == key_buckets(np.asarray(keys, dtype=np.int64),
                                  num_buckets=32).tolist()
    # id-only mode drops the signature column, keeps alignment
    out2 = lsh_bands(t, bands=4, rows=4, carry_signature=False)
    assert out2.column_names == ["band_key", "doc_id"]
    assert out2.column("band_key").to_pylist() == keys


def test_signature_stages_slice_boundary_equivalence(monkeypatch):
    """The heap-bounding doc-boundary slicing inside
    minhash_signatures / simhash_batch must not change any value:
    force tiny budgets so every slice boundary shape (multi-doc
    slice, single-doc slice, oversized single doc, empty doc at a
    boundary) is exercised and compare to the unsliced output."""
    from gumbo_pp_ray.stages import dedup

    rng = np.random.RandomState(11)
    words = [f"q{i}" for i in range(200)]
    texts = [" ".join(rng.choice(words, rng.randint(1, 90)))
             for _ in range(25)]
    texts[3] = ""                               # empty at a boundary
    texts[7] = " ".join(rng.choice(words, 400))  # oversized single doc
    t = tbl(*texts)
    big_m = dedup.minhash_signatures(t)
    big_s = dedup.simhash_batch(t)
    monkeypatch.setattr(dedup, "_MINHASH_SHINGLE_BUDGET", 50)
    monkeypatch.setattr(dedup, "_SIMHASH_TOKEN_BUDGET", 64)
    assert dedup.minhash_signatures(t).equals(big_m)
    assert dedup.simhash_batch(t).equals(big_s)


def test_lsh_bands_partial_signature_width():
    """bands*rows may be LESS than num_perm (trailing slots unused,
    the scalar construction's semantics); exceeding it must raise."""
    from gumbo_pp_ray.stages.dedup import lsh_bands

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "signature": pa.array([list(range(16)), list(range(16))],
                              pa.list_(pa.int64())),
    })
    out = lsh_bands(t, bands=2, rows=4)          # uses slots 0..7 only
    assert out.num_rows == 4
    k = out.column("band_key").to_pylist()
    assert k[0:2] == k[2:4]                      # identical sigs agree
    with pytest.raises(ValueError, match="exceeds signature width"):
        lsh_bands(t, bands=4, rows=8)
