"""Corpus-global text statistics that need a cross-document exchange:
TF-IDF scoring and benchmark decontamination.

**TF-IDF** is the canonical "needs global state" operator: idf(t)
depends on every document.  Scale shape — TWO shuffles, no driver
state, no broadcast of the vocabulary:

1. map_batches: (doc_id, token, tf) rows, one per DISTINCT token per
   doc (pre-combined in the batch, so the exchange is bounded by
   distinct-tokens-per-doc, not token occurrences);
2. exchange by token bucket: a token's rows land in ONE group, so the
   group computes df(token) locally AND attaches the integer idf to
   every row — document frequency never exists as a separate pass or
   a driver-side dict;
3. exchange by doc bucket: per-doc score sum.

Integer arithmetic end to end (score_milli = Σ tf · (1000·N // df))
so the DuckDB oracle reproduces results bit-exactly — floating idf
logs would hash-mismatch on rounding.

**Decontamination** (train/test overlap): the benchmark n-gram set is
broadcast ONCE via ``ray.put`` (benchmark suites are small by nature —
the asymmetry is the whole point: corpus is huge, contamination list
is not) and every worker counts overlapping shingles per document.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..state.exchange import exchange, key_buckets


def doc_token_tf(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    """documents → (bucket, doc_id, token, tf) rows, one per distinct
    token per doc (whitespace tokenization, same as the oracle)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out_id, out_tok, out_tf = [], [], []
    for i, t in zip(ids, texts):
        counts: dict = {}
        for tok in t.split():
            counts[tok] = counts.get(tok, 0) + 1
        out_id.extend([i] * len(counts))
        out_tok.extend(counts.keys())
        out_tf.extend(counts.values())
    return pa.table({
        "bucket": pa.array(key_buckets(out_tok, num_buckets=num_buckets)),
        "doc_id": pa.array(out_id, pa.int64()),
        "token": pa.array(out_tok, pa.string()),
        "tf": pa.array(out_tf, pa.int64()),
    })


def _attach_idf_group(group: pa.Table, *, n_docs: int,
                      num_buckets: int) -> pa.Table:
    """One token-hash bucket: df(token) computed in-group (each token
    is fully contained here), idf attached vectorized."""
    toks = group.column("token")
    df_tbl = pa.table({"token": toks}).group_by("token").aggregate(
        [("token", "count")])
    idx = pa.compute.index_in(toks, value_set=df_tbl.column("token"))
    df = pa.compute.take(df_tbl.column("token_count"), idx) \
        .to_numpy(zero_copy_only=False)
    tf = group.column("tf").to_numpy(zero_copy_only=False)
    score = tf * (1000 * n_docs // df)
    ids = group.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "doc_id": group.column("doc_id"),
        "score": pa.array(score.astype(np.int64), pa.int64()),
    })


def _sum_scores_group(group: pa.Table) -> pa.Table:
    t = pa.table({"doc_id": group.column("doc_id"),
                  "score": group.column("score")})
    out = t.group_by("doc_id").aggregate([("score", "sum")])
    return pa.table({"doc_id": out.column("doc_id"),
                     "tfidf_milli": out.column("score_sum")})


def tfidf_doc_scores(ds, *, num_partitions: int = 16,
                     n_docs: int | None = None):
    """documents Dataset → (doc_id, tfidf_milli) with
    tfidf_milli = Σ_distinct-tokens tf · (1000·N // df) — integer-exact
    corpus-weighted score.  ``n_docs`` defaults to ``ds.count()``,
    which runs a lazy upstream one extra time — pass it when known."""
    if n_docs is None:
        n_docs = ds.count()
    rows = ds.map_batches(
        functools.partial(doc_token_tf, num_buckets=num_partitions),
        batch_format="pyarrow")
    scored = exchange(rows, functools.partial(
        _attach_idf_group, n_docs=n_docs, num_buckets=num_partitions),
        num_partitions=num_partitions, n_rows=n_docs)
    return exchange(scored, _sum_scores_group,
                    num_partitions=num_partitions, n_rows=n_docs)


# ----------------------------------------------------- decontamination

def ngram_set(texts, n: int = 3) -> frozenset:
    """Word n-grams of a benchmark text collection (the broadcast
    side)."""
    grams = set()
    for t in texts:
        toks = t.split()
        for i in range(len(toks) - n + 1):
            grams.add(" ".join(toks[i:i + n]))
    return frozenset(grams)


class ContaminationCheck:
    """Actor-pool stage: flags documents sharing n-grams with a
    broadcast benchmark set.  The set is fetched from the object store
    ONCE per actor in ``__init__`` (ray.put on the driver, zero-copy
    reads everywhere), never per batch."""

    def __init__(self, bench_ref, n: int = 3):
        import ray
        self.bench = (ray.get(bench_ref)
                      if not isinstance(bench_ref, frozenset)
                      else bench_ref)
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        bench = self.bench
        n = self.n
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        hits = []
        for t in texts:
            toks = t.split()
            grams = {" ".join(toks[i:i + n])
                     for i in range(len(toks) - n + 1)}
            hits.append(len(grams & bench))
        hits_arr = pa.array(hits, pa.int64())
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_contaminated": hits_arr,
            "contaminated": pa.compute.cast(
                pa.compute.greater(hits_arr, 0), pa.int64()),
        })


def decontaminate(ds, bench_ref, *, n: int = 3, concurrency=None):
    """documents Dataset → (doc_id, n_contaminated, contaminated)."""
    from ..state.sizing import default_pool_size
    if concurrency is None:
        concurrency = default_pool_size()
    return ds.map_batches(
        ContaminationCheck,
        fn_constructor_kwargs={"bench_ref": bench_ref, "n": n},
        batch_format="pyarrow", concurrency=concurrency)


# ------------------------------------------- decontamination at scale

def _decon_gram_rows(batch: pa.Table, *, n: int, num_buckets: int,
                     is_bench: bool) -> pa.Table:
    """(doc_id?, text) → one row per DISTINCT word n-gram per doc:
    (bucket=hash(gram), doc_id, gram); bench-side rows carry
    doc_id=-1."""
    texts = batch.column("text").to_pylist()
    ids = ([-1] * len(texts) if is_bench
           else batch.column("doc_id").to_pylist())
    out_id, out_g = [], []
    for i, t in zip(ids, texts):
        toks = t.split()
        grams = {" ".join(toks[j:j + n])
                 for j in range(len(toks) - n + 1)}
        out_id.extend([i] * len(grams))
        out_g.extend(grams)
    return pa.table({
        "bucket": pa.array(key_buckets(out_g, num_buckets=num_buckets)),
        "doc_id": pa.array(out_id, pa.int64()),
        "gram": pa.array(out_g, pa.string()),
    })


def _gram_hits_group(group: pa.Table, *, num_buckets: int) -> pa.Table:
    """One gram-hash bucket: membership of doc grams in the bucket's
    bench grams (every occurrence of a gram lands here, both sides),
    partial hit counts per doc."""
    ids = group.column("doc_id").to_numpy(zero_copy_only=False)
    bench_mask = ids == -1
    if not bench_mask.any() or bench_mask.all():
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "hits": pa.array([], pa.int64())})
    grams = group.column("gram")
    member = pa.compute.is_in(
        grams, value_set=grams.filter(pa.array(bench_mask))) \
        .to_numpy(zero_copy_only=False)
    doc_hit_ids = ids[~bench_mask & member]
    uniq, counts = np.unique(doc_hit_ids, return_counts=True)
    return pa.table({
        "bucket": pa.array(key_buckets(uniq, num_buckets=num_buckets)),
        "doc_id": pa.array(uniq, pa.int64()),
        "hits": pa.array(counts.astype(np.int64), pa.int64()),
    })


def _doc_anchor_rows(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "doc_id": pa.array(ids, pa.int64()),
        "hits": pa.array(np.full(len(ids), -1, dtype=np.int64)),
    })


def _sum_hits_group(group: pa.Table) -> pa.Table:
    """One doc-hash bucket: total hits per anchored doc (anchor rows
    carry hits=-1 and guarantee every doc appears with 0)."""
    ids = group.column("doc_id").to_numpy(zero_copy_only=False)
    hits = group.column("hits").to_numpy(zero_copy_only=False)
    anchored = np.unique(ids[hits < 0])
    pos = hits > 0
    totals = {}
    for i, h in zip(ids[pos], hits[pos]):
        totals[i] = totals.get(i, 0) + int(h)
    n_arr = np.array([totals.get(i, 0) for i in anchored],
                     dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(anchored, pa.int64()),
        "n_contaminated": pa.array(n_arr, pa.int64()),
        "contaminated": pa.array((n_arr > 0).astype(np.int64),
                                 pa.int64()),
    })


def decontaminate_shuffle(ds, bench_ds, *, n: int = 3,
                          num_partitions: int = 16):
    """Shuffle-join decontamination — the scale path for when the
    BENCHMARK side is itself too big to broadcast (the broadcast
    variant ships the whole n-gram set to every actor; fine for normal
    benchmark suites, not for, say, decontaminating against another
    corpus).  No broadcast, no driver state: two bucketed co-groups —

    1. gram-hash co-group: distinct doc n-grams union bench n-grams,
       membership tested where both sides of a gram necessarily meet;
    2. doc-hash co-group: partial hit counts summed per doc, anchor
       rows guaranteeing every input doc appears (hits 0 included).

    Output schema and values identical to ``decontaminate``.

    Partitioning assumption: one gram-hash bucket's rows (both sides)
    and one doc-hash bucket's rows must fit a worker — size
    ``num_partitions`` ≈ total distinct n-grams / 5M at corpus scale
    (the default 16 fits single-node corpora).
    """
    grams = ds.map_batches(
        functools.partial(_decon_gram_rows, n=n,
                          num_buckets=num_partitions, is_bench=False),
        batch_format="pyarrow")
    return _exact_gram_verify(ds, grams, bench_ds, n=n,
                              num_partitions=num_partitions)


def _exact_gram_verify(ds, doc_gram_rows, bench_ds, *, n: int,
                       num_partitions: int):
    """Shared tail of the shuffle/bloom plans: doc gram rows (already
    pruned or not) ∪ bench gram rows → gram-hash membership co-group →
    doc-hash hit sum with anchors (every doc appears, zeros
    included)."""
    bench_grams = bench_ds.map_batches(
        functools.partial(_decon_gram_rows, n=n,
                          num_buckets=num_partitions, is_bench=True),
        batch_format="pyarrow")
    partial_hits = exchange(
        doc_gram_rows.union(bench_grams),
        functools.partial(_gram_hits_group, num_buckets=num_partitions),
        num_partitions=num_partitions)
    anchors = ds.select_columns(["doc_id"]).map_batches(
        functools.partial(_doc_anchor_rows, num_buckets=num_partitions),
        batch_format="pyarrow")
    return exchange(anchors.union(partial_hits), _sum_hits_group,
                    num_partitions=num_partitions)


# ------------------------------------- Bloom-accelerated decontamination

#: Bloom parameters: bits must be a power of two (positions come from
#: 32-bit CRCs masked to the bit width).  The defaults (16M bits =
#: 2 MB, 4 salted hashes) give ~0.24% false-positive rate at 1M bench
#: grams — false positives only cost a little extra EXACT verification,
#: never a wrong answer.
BLOOM_BITS_DEFAULT = 1 << 24
BLOOM_K_DEFAULT = 4
_BLOOM_SALTS = (b"#bl0", b"#bl1", b"#bl2", b"#bl3",
                b"#bl4", b"#bl5", b"#bl6", b"#bl7")


def _bloom_positions(grams: list, *, bits: int, k: int) -> np.ndarray:
    """(G, k) bit positions from k salted CRC32s per gram."""
    import zlib
    pos = np.empty((len(grams), k), dtype=np.uint32)
    salts = _BLOOM_SALTS[:k]
    for gi, g in enumerate(grams):
        b = g.encode("utf-8")
        for i, salt in enumerate(salts):
            pos[gi, i] = zlib.crc32(b + salt)
    return pos & np.uint32(bits - 1)


def _bloom_test(bloom: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """(G, k) positions → (G,) bool: all k bits set."""
    bit = (bloom[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bit.all(axis=1)


def build_bench_bloom(bench_ds, *, n: int = 3,
                      bits: int = BLOOM_BITS_DEFAULT,
                      k: int = BLOOM_K_DEFAULT):
    """Benchmark Dataset(text) → (ray.ObjectRef of a packed uint8
    Bloom bitarray, params dict).  Built distributed: each block emits
    one bits/8-byte partial bitmap, OR-merged on the driver (blocks x
    2 MB of driver traffic at the defaults; for benchmark sets big
    enough that that matters, use decontaminate_shuffle — the Bloom
    plan's whole premise is a bench set that fits a broadcast)."""
    import ray
    if bits & (bits - 1):
        raise ValueError(f"bits must be a power of two, got {bits}")
    if not 1 <= k <= len(_BLOOM_SALTS):
        raise ValueError(f"k must be 1..{len(_BLOOM_SALTS)}, got {k}")

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        grams = set()
        for t in texts:
            toks = t.split()
            for j in range(len(toks) - n + 1):
                grams.add(" ".join(toks[j:j + n]))
        arr = np.zeros(bits // 8, dtype=np.uint8)
        if grams:
            p = _bloom_positions(sorted(grams), bits=bits,
                                 k=k).reshape(-1)
            np.bitwise_or.at(
                arr, p >> 3,
                (np.uint8(1) << (p & 7).astype(np.uint8)))
        return pa.table({"bloom": pa.array([arr.tobytes()],
                                           pa.binary())})

    acc = np.zeros(bits // 8, dtype=np.uint8)
    for row in bench_ds.map_batches(
            partial, batch_format="pyarrow").take_all():
        acc |= np.frombuffer(row["bloom"], dtype=np.uint8)
    return ray.put(acc), {"bits": bits, "k": k, "n": n}


def _bloom_suspect_rows(batch: pa.Table, *, n: int, num_buckets: int,
                        bloom_ref, bits: int, k: int) -> pa.Table:
    """Docs → gram rows for BLOOM-POSITIVE distinct grams only (the
    suspects the exact verify must adjudicate).  The bitarray is a
    zero-copy plasma view per task."""
    import ray
    bloom = (ray.get(bloom_ref)
             if not isinstance(bloom_ref, np.ndarray) else bloom_ref)
    texts = batch.column("text").to_pylist()
    ids = batch.column("doc_id").to_pylist()
    out_id, out_g = [], []
    for i, t in zip(ids, texts):
        toks = t.split()
        grams = sorted({" ".join(toks[j:j + n])
                        for j in range(len(toks) - n + 1)})
        if not grams:
            continue
        hit = _bloom_test(bloom,
                          _bloom_positions(grams, bits=bits, k=k))
        for g, h in zip(grams, hit):
            if h:
                out_id.append(i)
                out_g.append(g)
    return pa.table({
        "bucket": pa.array(key_buckets(out_g, num_buckets=num_buckets)),
        "doc_id": pa.array(out_id, pa.int64()),
        "gram": pa.array(out_g, pa.string()),
    })


def decontaminate_bloom(ds, bench_ds, *, n: int = 3,
                        bits: int = BLOOM_BITS_DEFAULT,
                        k: int = BLOOM_K_DEFAULT,
                        num_partitions: int = 16, bloom=None):
    """Bloom-accelerated EXACT decontamination — the 100 TB default
    when the benchmark fits a broadcast but the corpus dwarfs it:

    1. a ~2 MB Bloom bitarray of the bench n-grams is broadcast once
       (vs the broadcast plan's full Python gram set — hundreds of MB
       of driver/actor heap for large suites, and vs the shuffle
       plan's full doc-gram exchange — the corpus' every distinct
       n-gram through an all-to-all);
    2. each doc's distinct grams are bloom-tested in the map — clean
       docs (the overwhelming majority) contribute NOTHING to the
       exchange;
    3. only bloom-positive suspect grams ride the exact gram-hash
       co-group verify, so false positives cost a few extra verified
       rows, never a wrong answer.  Output schema and values
       identical to ``decontaminate`` / ``decontaminate_shuffle``.

    ``bloom``: pass a prebuilt ``(ref, params)`` from
    ``build_bench_bloom`` to amortize the build across shards."""
    if bloom is None:
        bloom = build_bench_bloom(bench_ds, n=n, bits=bits, k=k)
    bloom_ref, params = bloom
    if params["n"] != n:
        raise ValueError(
            f"bloom was built for n={params['n']}, called with n={n}")
    suspects = ds.map_batches(
        functools.partial(_bloom_suspect_rows, n=n,
                          num_buckets=num_partitions,
                          bloom_ref=bloom_ref,
                          bits=params["bits"], k=params["k"]),
        batch_format="pyarrow")
    return _exact_gram_verify(ds, suspects, bench_ds, n=n,
                              num_partitions=num_partitions)
