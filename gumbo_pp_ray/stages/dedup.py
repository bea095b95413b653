"""Deduplication operators — exact, MinHash+LSH, SimHash, n-gram
Jaccard verification.

Scale shapes (ray_guide: aggregation at scale):

* **Exact / normalized-exact**: vectorized content-hash column in
  ``map_batches`` → prune to (hash, doc_id) BEFORE the shuffle →
  ``groupby(hash)`` keep min(doc_id). The exchange moves 2 narrow
  columns, never the text.
* **MinHash+LSH**: per batch, shingle → 128-permutation minhash
  signature (numpy, one matrix min per doc) → explode to id-only
  (band_key, doc_id) rows → groupby on the band key → candidate id
  pairs (all-pairs to HOT_BUCKET_CAP, star-linked beyond) →
  distributed shuffle dedup → bucketed co-group verification that
  joins signatures back onto the pairs and filters by the
  slot-agreement estimate. Every stage is a lazy Dataset transform:
  no candidate set or signature set ever lands on the driver.
  Signature hashing uses CRC32 — deterministic across processes
  (PYTHONHASHSEED-free).
* **SimHash**: 64-bit signatures; near-dup = small Hamming distance.
* Exact verification (``ngram_jaccard``) recomputes true Jaccard for
  candidate pairs from their shingle sets.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa

from ..state.exchange import (
    digest_buckets, exchange, key_buckets, partitions_for,
)
from ..state.sizing import row_count

# ---------------------------------------------------------- exact dedup

def add_content_hash(batch: pa.Table, *, normalize: bool = False
                     ) -> pa.Table:
    """md5 hex of the text (optionally lowercased + whitespace-
    collapsed) — matches DuckDB's md5() for the oracle."""
    texts = batch.column("text").to_pylist()
    if normalize:
        texts = [" ".join(t.lower().split()) for t in texts]
    hashes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "content_hash": pa.array(hashes, pa.string()),
    })


def _exact_partial(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    """Per-block combiner (Arrow C++ hash group-by): one row per
    distinct hash per block BEFORE the shuffle — (hash, min id, count)
    plus the coarse merge bucket."""
    t = batch.group_by("content_hash").aggregate(
        [("doc_id", "min"), ("doc_id", "count")])
    return t.append_column(
        "bucket", pa.array(digest_buckets(t.column("content_hash"),
                                          num_buckets)))


def _exact_merge_bucket(group: pa.Table) -> pa.Table:
    """Merge one bucket's partials, vectorized: byte-sort the hashes,
    then per-run min/sum via ``np.minimum/add.reduceat`` — zero
    per-hash Python calls."""
    h = np.ascontiguousarray(group.column("content_hash")
                             .to_numpy(zero_copy_only=False).astype("S32"))
    order = np.argsort(h, kind="stable")
    h_s = h[order]
    mins = group.column("doc_id_min").to_numpy(
        zero_copy_only=False)[order]
    cnts = group.column("doc_id_count").to_numpy(
        zero_copy_only=False)[order]
    starts = np.flatnonzero(
        np.concatenate(([True], h_s[1:] != h_s[:-1])))
    return pa.table({
        "content_hash": group.column("content_hash").take(
            pa.array(order[starts], pa.int64())),
        "doc_id": pa.array(np.minimum.reduceat(mins, starts)),
        "n_dups": pa.array(np.add.reduceat(cnts, starts)
                           .astype(np.int64)),
    })


def size_exact_exchange(ds, per_doc, caller: str,
                        num_buckets: int | None,
                        num_partitions: int | None) -> tuple:
    """Bucket and partition counts of an exact-dedup exchange over the
    documents ``ds``: ~100k rows per coarse hash bucket (floor 64) and
    ~10k rows per reducer task.  ``per_doc`` is the caller's
    row-preserving per-document stage over ``ds``.  Only counts (via
    ``state.sizing.row_count``) when one is not given.  Returns
    ``(per_doc, n, num_buckets, num_partitions)``; use the returned
    ``per_doc`` downstream, ``n`` is None when nothing was counted."""
    n = None
    if num_buckets is None or num_partitions is None:
        per_doc, n = row_count(ds, caller, per_doc)
        if num_buckets is None:
            num_buckets = partitions_for(n, 100_000, floor=64)
        if num_partitions is None:
            num_partitions = partitions_for(n, 10_000)
    return per_doc, n, num_buckets, num_partitions


def exact_dedup(ds, *, normalize: bool = False,
                num_partitions: int | None = None,
                num_buckets: int | None = None):
    """documents Dataset → (content_hash, doc_id=min, n_dups).

    Shape: vectorized hash column → per-block Arrow combiner (one row
    per distinct hash per block) → ONE shuffle keyed on a coarse hash
    bucket → vectorized per-bucket merge (sort + ``reduceat``).
    Bucket and partition counts not given are sized from the row
    count (``size_exact_exchange``) — so the merge stays a handful of
    numpy ops per task at any corpus size, never a Python call per
    distinct hash."""
    import functools
    hashed = ds.map_batches(
        functools.partial(add_content_hash, normalize=normalize),
        batch_format="pyarrow")
    hashed, n, num_buckets, num_partitions = size_exact_exchange(
        ds, hashed, "exact_dedup", num_buckets, num_partitions)
    ds = hashed.map_batches(
        functools.partial(_exact_partial, num_buckets=num_buckets),
        batch_format="pyarrow")
    return exchange(ds, _exact_merge_bucket,
                    num_partitions=num_partitions, n_rows=n)


# ------------------------------------------------------ MinHash + LSH

_MERSENNE = (1 << 61) - 1


class MinHasher:
    """128-perm MinHash signatures over word shingles.

    Permutations h_i(x) = (a_i * x + b_i) mod p (universal hashing,
    standard Broder minhash construction) with a fixed seed; shingle
    base hash = CRC32 (process-stable).
    """

    def __init__(self, num_perm: int = 128, shingle_words: int = 3,
                 seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_words = shingle_words

    def shingles(self, text: str) -> np.ndarray:
        toks = text.split()
        w = self.shingle_words
        if len(toks) < w:
            grams = [" ".join(toks)] if toks else [""]
        else:
            grams = [" ".join(toks[i:i + w])
                     for i in range(len(toks) - w + 1)]
        return np.asarray(
            sorted({zlib.crc32(g.encode("utf-8")) for g in grams}),
            dtype=np.uint64)

    def signature(self, text: str) -> np.ndarray:
        x = self.shingles(text)
        if len(x) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (P, S) matrix of permuted hashes → min over shingles
        hx = (np.outer(self.a, x) + self.b[:, None]) % _MERSENNE
        return hx.min(axis=1)


import functools as _functools

#: Per-slice working-set bounds for the vectorized signature stages —
#: batches are processed in doc-boundary slices of at most this many
#: shingles/tokens so whole-block batches of long real-web documents
#: can never blow a worker heap (module constants so tests can pin
#: slice-boundary equivalence).
_MINHASH_SHINGLE_BUDGET = 1 << 19
_SIMHASH_TOKEN_BUDGET = 1 << 20


@_functools.lru_cache(maxsize=8)
def _cached_hasher(num_perm: int, shingle_words: int,
                   seed: int) -> "MinHasher":
    """Per-worker-process hasher cache: the state is two num_perm-
    element uint64 arrays (microseconds to build), so the signature
    stage runs as ORDINARY TASKS — a fixed actor pool here buys
    nothing but spin-up latency (measured ~2-3 s per pipeline run at
    sf0.1 for a pool that hashes for <1 s)."""
    return MinHasher(num_perm, shingle_words, seed)


def minhash_signatures(batch: pa.Table, *, num_perm: int = 128,
                       shingle_words: int = 3, seed: int = 42
                       ) -> pa.Table:
    """map_batches task: text → signature (list<uint64 as int64>).

    Vectorized across the whole batch: ONE (P x total_shingles)
    permuted-hash matrix + per-doc segment minima
    (``np.minimum.reduceat``) instead of a per-document outer product;
    the output list column is built zero-copy from the (n, P) matrix
    (``ListArray.from_arrays``), never via per-row Python lists.
    """
    mh = _cached_hasher(num_perm, shingle_words, seed)
    texts = batch.column("text").to_pylist()
    shingle_arrays = [mh.shingles(t) for t in texts]
    counts = np.asarray([len(s) for s in shingle_arrays],
                        dtype=np.int64)
    n = len(texts)
    out = np.zeros((n, mh.num_perm), dtype=np.int64)
    # The (P x shingles) permuted-hash matrix is the working set:
    # bound it by slicing the batch at doc boundaries every ~512k
    # shingles (P=128 → ≤512 MB per slice) so a whole-block batch of
    # real web documents can't blow the worker heap.
    budget = _MINHASH_SHINGLE_BUDGET
    lo = 0
    while lo < n:
        hi, tot = lo, 0
        while hi < n and (tot == 0 or tot + counts[hi] <= budget):
            tot += int(counts[hi])
            hi += 1
        sl = slice(lo, hi)
        nonempty = counts[sl] > 0
        if nonempty.any():
            x = np.concatenate(
                [s for s in shingle_arrays[lo:hi] if len(s)])
            hx = (np.outer(mh.a, x) + mh.b[:, None]) % _MERSENNE
            starts = np.zeros(int(nonempty.sum()), dtype=np.int64)
            np.cumsum(counts[sl][nonempty][:-1], out=starts[1:])
            mins = np.minimum.reduceat(hx, starts, axis=1)  # (P, docs)
            out[sl][nonempty] = mins.T.astype(np.int64)
        lo = hi
    offsets = pa.array(
        np.arange(0, (n + 1) * mh.num_perm, mh.num_perm,
                  dtype=np.int32))
    sig = pa.ListArray.from_arrays(offsets, pa.array(out.reshape(-1)))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "signature": sig,
    })


_FNV_OFFSET = np.uint64(0xcbf29ce484222325)
_FNV_PRIME = np.uint64(0x100000001b3)


def lsh_bands(batch: pa.Table, *, bands: int = 16, rows: int = 8,
              carry_signature: bool = True,
              num_buckets: int | None = None) -> pa.Table:
    """Explode signatures to LSH band rows; band_key = int64 FNV-1a
    hash of (band_id, band slot values) — the bucket join key.
    Fully vectorized: ONE (n x bands) numpy hash fold, no per-row
    Python.  A 64-bit hash can collide where the old per-band md5
    couldn't, but a collision only ADDS a candidate pair that full-
    signature verification then filters — recall is unaffected and
    precision is restored downstream.  Stateless function stage (NOT
    an actor pool — stacking a second fixed pool in the pipeline can
    reserve every CPU and starve the shuffle; see state/sizing.py).

    ``carry_signature=False`` emits only (band_key, doc_id) — the
    scale shape: the exchange shrinks from ~bands x signature bytes
    per doc (16 KB/doc at 128 perms) to ~16 B/doc, and signatures are
    joined back over the (small) candidate set afterwards.

    ``num_buckets`` adds an int64 ``bucket`` column (band_key hashed
    to num_buckets): the COARSE shuffle key — grouping on it lets the
    bucket reducers run once per bucket over many band keys
    (vectorized run detection) instead of once per distinct band key
    (a Python/Arrow UDF call per tiny group, the round-4 bottleneck:
    ~19 s CPU at 80k band rows)."""
    n = batch.num_rows
    cols: dict = {}
    if n == 0:
        cols["band_key"] = pa.array([], pa.int64())
        cols["doc_id"] = pa.array([], pa.int64())
        if carry_signature:
            cols["signature"] = pa.array([], pa.list_(pa.int64()))
        if num_buckets:
            cols["bucket"] = pa.array([], pa.int64())
        return pa.table(cols)
    mat = _sig_matrix(batch.column("signature"))
    if bands * rows > mat.shape[1]:
        raise ValueError(
            f"bands*rows = {bands * rows} exceeds signature width "
            f"{mat.shape[1]}")
    # bands*rows may be < num_perm (trailing slots unused), matching
    # the per-band slicing semantics of the scalar construction
    chunks = mat[:, :bands * rows].reshape(n, bands,
                                           rows).astype(np.uint64)
    h = np.full((n, bands), _FNV_OFFSET, dtype=np.uint64)
    # band id folded in first: identical slot values in different
    # bands land under different keys
    h = (h ^ np.arange(bands, dtype=np.uint64)[None, :]) * _FNV_PRIME
    for r in range(rows):
        h = (h ^ chunks[:, :, r]) * _FNV_PRIME
    flat = h.reshape(-1)                     # doc-major: d0 b0..bN, d1 ...
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    cols["band_key"] = pa.array(flat.view(np.int64))
    cols["doc_id"] = pa.array(np.repeat(ids, bands))
    if carry_signature:
        idx = np.repeat(np.arange(n, dtype=np.int64), bands)
        cols["signature"] = batch.column("signature").take(pa.array(idx))
    if num_buckets:
        cols["bucket"] = pa.array(key_buckets(flat,
                                              num_buckets=num_buckets))
    return pa.table(cols)


#: Quadratic pair emission is bounded to this many bucket members; the
#: overflow members are star-linked instead (see _run_pair_idx).
HOT_BUCKET_CAP = 256


_TRIU_CACHE: dict = {}


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pairs (i<j) for run sizes up to the
    hot-bucket cap — runs of 2 dominate real buckets, so the cache is
    effectively a handful of entries."""
    t = _TRIU_CACHE.get(n)
    if t is None:
        t = np.triu_indices(n, k=1)
        if len(_TRIU_CACHE) < 1024:
            _TRIU_CACHE[n] = t
    return t


def _sorted_runs(group: pa.Table):
    """One COARSE bucket of band rows → sorted, de-duplicated view
    plus equal-band_key run boundaries.

    Returns ``(sel, ids_s, newf_s, starts, ends)``: ``sel`` maps each
    kept (band_key, doc_id)-distinct row back to its original group
    row (for signature lookup), ``ids_s`` the doc ids in (band_key,
    doc_id) order, ``newf_s`` the is_new flags (None when the column
    is absent — the non-incremental paths), and ``starts``/``ends``
    the per-band_key run bounds.  Duplicate (band_key, doc_id) rows
    collapse to ONE row; with is_new present the NEW row wins (a
    re-indexed doc keeps its new signature — incremental's new-wins
    rule).  Missing band_key (unit-test convenience) treats the whole
    group as a single run."""
    n = group.num_rows
    names = group.column_names
    if "band_key" in names:
        keys = group.column("band_key").to_numpy(zero_copy_only=False)
    else:
        keys = np.zeros(n, dtype=np.int64)
    ids = group.column("doc_id").to_numpy(zero_copy_only=False)
    if "is_new" in names:
        newf = group.column("is_new").to_numpy(
            zero_copy_only=False).astype(bool)
        order = np.lexsort((~newf, ids, keys))   # new first among dups
    else:
        newf = None
        order = np.lexsort((ids, keys))
    keys_s = keys[order]
    ids_s = ids[order]
    keep = np.ones(n, dtype=bool)
    if n > 1:
        keep[1:] = ((keys_s[1:] != keys_s[:-1])
                    | (ids_s[1:] != ids_s[:-1]))
    sel = order[keep]
    keys_s = keys_s[keep]
    ids_s = ids_s[keep]
    newf_s = newf[sel] if newf is not None else None
    m = len(keys_s)
    if m == 0:
        z = np.empty(0, dtype=np.int64)
        return sel, ids_s, newf_s, z, z
    starts = np.flatnonzero(
        np.concatenate(([True], keys_s[1:] != keys_s[:-1])))
    ends = np.append(starts[1:], m)
    return sel, ids_s, newf_s, starts, ends


def _run_pair_idx(starts: np.ndarray, ends: np.ndarray,
                  newf_s: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs over every multi-member run.

    Hot-bucket policy: all-pairs over the first HOT_BUCKET_CAP
    id-sorted members; members beyond the cap are star-linked to the
    run minimum (one pair each) instead of quadratically to every
    other member.  No member is silently dropped — every doc appears
    in at least one candidate pair, so duplicate-CLUSTER recall is
    preserved (components stay connected through the hub) while the
    pair count stays linear in bucket size.  With ``newf_s``
    (incremental), pairs where BOTH sides are old are suppressed and
    only NEW overflow members star-link (old-old pairs were already
    emitted by the ingest that indexed them)."""
    a_parts: list = []
    b_parts: list = []
    lens = ends - starts
    for ri in np.flatnonzero(lens >= 2):
        s = int(starts[ri])
        length = int(lens[ri])
        head = length if length <= HOT_BUCKET_CAP else HOT_BUCKET_CAP
        ii, jj = _triu(head)
        ai = ii + s
        bi = jj + s
        if newf_s is not None:
            k = newf_s[ai] | newf_s[bi]
            ai = ai[k]
            bi = bi[k]
        if ai.size:
            a_parts.append(ai)
            b_parts.append(bi)
        if length > head:
            ov = np.arange(s + head, s + length, dtype=np.int64)
            if newf_s is not None:
                ov = ov[newf_s[ov]]
            if ov.size:
                a_parts.append(np.full(ov.size, s, dtype=np.int64))
                b_parts.append(ov)
    if not a_parts:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(a_parts), np.concatenate(b_parts)


#: Pairwise signature comparisons are evaluated in slices of this many
#: pairs so one dense (pairs x perms) equality matrix never exceeds a
#: few MB, whatever the bucket's duplication profile.
_PAIR_CHUNK = 65536


def bucket_candidate_ids(group: pa.Table) -> pa.Table:
    """One coarse bucket of id-only band rows → candidate id pairs
    (doc_a < doc_b), no similarity yet — verification happens after
    the signatures are joined back.  Vectorized over all band-key
    runs in the bucket (sort + run bounds + cached triangle indices);
    called with a single band key's rows (or no band_key column at
    all) it degrades to the one-run case.  With an ``is_new`` column
    (the incremental path) old-old pairs are suppressed."""
    sel, ids_s, newf_s, starts, ends = _sorted_runs(group)
    a_i, b_i = _run_pair_idx(starts, ends, newf_s)
    return pa.table({"doc_a": pa.array(ids_s[a_i].astype(np.int64)),
                     "doc_b": pa.array(ids_s[b_i].astype(np.int64))})


def bucket_candidate_pairs(group: pa.Table, *, threshold: float = 0.5
                           ) -> pa.Table:
    """One coarse bucket of signature-carrying band rows → verified
    pairs (doc_a < doc_b, slot-agreement estimate >= threshold).
    Vectorized end-to-end: run detection as in bucket_candidate_ids,
    then ONE dense signature-equality comparison per pair slice —
    zero per-band-key Python calls.  With an ``is_new`` column
    (incremental) old-old pairs are suppressed before verification."""
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "jaccard_est_milli": pa.array([], pa.int64())})
    sel, ids_s, newf_s, starts, ends = _sorted_runs(group)
    a_i, b_i = _run_pair_idx(starts, ends, newf_s)
    if a_i.size == 0:
        return empty
    mat = _sig_matrix(group.column("signature"))
    a_rows = sel[a_i]
    b_rows = sel[b_i]
    jv = np.empty(a_i.size, dtype=np.float64)
    for lo in range(0, a_i.size, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, a_i.size)
        jv[lo:hi] = (mat[a_rows[lo:hi]]
                     == mat[b_rows[lo:hi]]).mean(axis=1)
    keep = jv >= threshold
    return pa.table({
        "doc_a": pa.array(ids_s[a_i[keep]].astype(np.int64)),
        "doc_b": pa.array(ids_s[b_i[keep]].astype(np.int64)),
        "jaccard_est_milli": pa.array(
            (jv[keep] * 1000).astype(np.int64)),
    })


def _sig_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Fixed-length list<int64> column → (n, P) numpy matrix via
    flatten + reshape (no per-row Python lists)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(n, -1) if n else flat.reshape(0, 1)


def _sig_to_fixed_binary(t: pa.Table, out_col: str) -> pa.Table:
    """(doc_id, signature:list<int64>) → (doc_id, out_col:fixed-width
    binary).  Arrow's hash join rejects nested payload columns, so the
    P-slot signature travels through the join as P*8 opaque bytes —
    packed zero-copy from the (n, P) int64 matrix."""
    mat = np.ascontiguousarray(_sig_matrix(t.column("signature")),
                               dtype="<i8")
    n, p = mat.shape
    fb = pa.Array.from_buffers(pa.binary(p * 8), n,
                               [None, pa.py_buffer(mat.tobytes())])
    return pa.table({"doc_id": t.column("doc_id"), out_col: fb})


def _fixed_binary_to_matrix(col) -> np.ndarray:
    """fixed_size_binary column → (n, P) int64 matrix, zero-copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    p = col.type.byte_width // 8
    mat = np.frombuffer(col.buffers()[1], dtype="<i8").reshape(-1, p)
    return mat[col.offset:col.offset + len(col)]


#: Cost gate for the candidate semi-join prune: at or below this many
#: candidate pairs, the distinct candidate ids (≤ 2/pair, 8 B each →
#: ≤32 MB) ride ONE ray.put broadcast and the signature dataset is
#: filtered BEFORE the attach exchanges.
CAND_BROADCAST_MAX_PAIRS = 2_000_000


def _candidate_id_filter(cand, *, max_pairs: int | None = None):
    """Cost-gated semi-join prune for the co-group verify: the attach
    stages only need the CANDIDATES' signatures, but by default every
    doc's signature rides both attach exchanges.  When the candidate
    set is modest (counted from block metadata after the groupby
    barrier — free), pull the distinct ids as one numpy array,
    broadcast it once, and return a batch filter to apply to the
    signature dataset(s) — at a ~1% dup rate this cuts the attach
    exchange ~100x.  Above the gate (boilerplate-heavy corpora whose
    candidate set is corpus-sized) returns no filter: the unpruned
    all-signatures shape is already the right one.

    Returns ``(cand_materialized, keep_fn | None)``; ``cand`` is
    consumed twice downstream either way, so the materialize is not
    an extra pass.  ``max_pairs`` defaults to the module constant at
    CALL time so tests can pin the unpruned path by monkeypatching
    ``CAND_BROADCAST_MAX_PAIRS``."""
    import ray
    if max_pairs is None:
        max_pairs = CAND_BROADCAST_MAX_PAIRS
    cand = cand.materialize()
    if cand.count() > max_pairs:
        return cand, None
    parts = [ray.get(r) for r in cand.to_arrow_refs()]
    arrs = [np.concatenate([
        t.column("doc_a").to_numpy(zero_copy_only=False),
        t.column("doc_b").to_numpy(zero_copy_only=False)])
        for t in parts if t.num_rows]
    ids = (np.unique(np.concatenate(arrs)).astype(np.int64)
           if arrs else np.empty(0, dtype=np.int64))
    ids_ref = ray.put(ids)

    def keep(batch: pa.Table) -> pa.Table:
        w = ray.get(ids_ref)
        if len(w) == 0:
            return batch.slice(0, 0)
        m = batch.column("doc_id").to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(w, m), 0, len(w) - 1)
        return batch.filter(pa.array(w[pos] == m))

    return cand, keep


def _prune_sigs_to_candidates(cand, sigs, *,
                              max_pairs: int | None = None):
    """One-dataset convenience over _candidate_id_filter."""
    cand, keep = _candidate_id_filter(cand, max_pairs=max_pairs)
    if keep is not None:
        sigs = sigs.map_batches(keep, batch_format="pyarrow")
    return cand, sigs


def _cogroup_sig_rows(t: pa.Table, *, num_buckets: int) -> pa.Table:
    """Signatures → co-group rows (src=0): one row per doc, bucketed
    by hash(doc_id).  ``other`` is the pair's second id slot, unused
    for signature rows."""
    t2 = _sig_to_fixed_binary(t, "sig")
    ids = t2.column("doc_id").to_numpy(zero_copy_only=False)
    n = len(t2)
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "doc_id": t2.column("doc_id").cast(pa.int64()),
        "other": pa.nulls(n, pa.int64()),
        "src": pa.array(np.zeros(n, dtype=np.int8)),
        "sig": t2.column("sig"),
    })


def _cogroup_pair_rows_a(t: pa.Table, *, num_buckets: int,
                         sig_width: int) -> pa.Table:
    """Candidate pairs → co-group rows (src=1) keyed by doc_a
    (doc_id=doc_a, other=doc_b); sig slot empty until attached."""
    a = t.column("doc_a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = t.column("doc_b").to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(a)
    return pa.table({
        "bucket": pa.array(key_buckets(a, num_buckets=num_buckets)),
        "doc_id": pa.array(a, pa.int64()),
        "other": pa.array(b, pa.int64()),
        "src": pa.array(np.ones(n, dtype=np.int8)),
        "sig": pa.nulls(n, pa.binary(sig_width)),
    })


def _attach_a_group(group: pa.Table, *, num_buckets: int) -> pa.Table:
    """Verify stage 1 (one bucket group): signatures of every doc
    hashing here (src=0) + candidate pairs keyed by doc_a (src=1).
    Dedupes the pairs (duplicates from multiple matching bands share
    doc_a, hence this bucket — np.unique is a GLOBAL exact distinct)
    and attaches sig_a via vectorized index_in/take.  Emits co-group
    rows for stage 2, re-keyed (and re-bucketed) by doc_b."""
    src = group.column("src")
    sig_rows = group.filter(pa.compute.equal(src, 0))
    pair_rows = group.filter(pa.compute.equal(src, 1))
    empty = pa.table({"bucket": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "other": pa.array([], pa.int64()),
                      "src": pa.array([], pa.int8()),
                      "sig": pa.array([], group.column("sig").type)})
    if pair_rows.num_rows == 0 or sig_rows.num_rows == 0:
        return empty
    a = pair_rows.column("doc_id").to_numpy(zero_copy_only=False)
    b = pair_rows.column("other").to_numpy(zero_copy_only=False)
    uniq = np.unique(np.stack([a, b], axis=1), axis=0)
    ua, ub = uniq[:, 0], uniq[:, 1]
    idx = pa.compute.index_in(pa.array(ua, pa.int64()),
                              value_set=sig_rows.column("doc_id"))
    found = pa.compute.is_valid(idx)
    fnp = found.to_numpy(zero_copy_only=False)
    sig_a = pa.compute.take(sig_rows.column("sig").combine_chunks(),
                            idx.filter(found))
    b = ub[fnp].astype(np.int64)
    return pa.table({
        "bucket": pa.array(key_buckets(b, num_buckets=num_buckets)),
        "doc_id": pa.array(b),                        # doc_b
        "other": pa.array(ua[fnp], pa.int64()),       # doc_a
        "src": pa.array(np.ones(len(b), dtype=np.int8)),
        "sig": sig_a,                                 # sig_a attached
    })


def _attach_b_group(group: pa.Table, *, threshold: float) -> pa.Table:
    """Verify stage 2 (one bucket group): signatures (src=0) +
    sig_a-carrying pairs keyed by doc_b (src=1).  Looks up sig_b,
    computes the rowwise slot-agreement estimate (the unbiased MinHash
    Jaccard estimator) and emits pairs ≥ threshold."""
    src = group.column("src")
    sig_rows = group.filter(pa.compute.equal(src, 0))
    pair_rows = group.filter(pa.compute.equal(src, 1))
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "jaccard_est_milli": pa.array([], pa.int64())})
    if pair_rows.num_rows == 0 or sig_rows.num_rows == 0:
        return empty
    idx = pa.compute.index_in(pair_rows.column("doc_id"),
                              value_set=sig_rows.column("doc_id"))
    found = pa.compute.is_valid(idx)
    pair_rows = pair_rows.filter(found)
    if pair_rows.num_rows == 0:
        return empty
    sig_b = pa.compute.take(sig_rows.column("sig").combine_chunks(),
                            idx.filter(found))
    sa = _fixed_binary_to_matrix(pair_rows.column("sig"))
    sb = _fixed_binary_to_matrix(sig_b)
    jv = (sa == sb).mean(axis=1)
    keep = jv >= threshold
    if not keep.any():
        return empty
    return pa.table({
        "doc_a": pair_rows.column("other").filter(pa.array(keep)),
        "doc_b": pair_rows.column("doc_id").filter(pa.array(keep)),
        "jaccard_est_milli": pa.array(
            (jv[keep] * 1000).astype(np.int64), pa.int64()),
    })


def _cogroup_verify(sig_rows, cand, *, num_partitions: int,
                    sig_width: int, threshold: float,
                    attach_a=_attach_a_group, attach_b=_attach_b_group):
    """The two bucketed co-group attaches: candidate pairs keyed by
    doc_a meet the signature rows (``attach_a`` attaches sig_a; its
    in-group np.unique is the GLOBAL pair distinct, since every
    duplicate of a pair shares doc_a), re-key by doc_b, and meet the
    signature rows again (``attach_b`` attaches sig_b and verifies).
    ``sig_rows`` are ``_cogroup_sig_rows`` output bucketed over
    ``num_partitions``."""
    import functools
    pair_rows = cand.map_batches(
        functools.partial(_cogroup_pair_rows_a,
                          num_buckets=num_partitions, sig_width=sig_width),
        batch_format="pyarrow")
    with_a = exchange(sig_rows.union(pair_rows),
                      functools.partial(attach_a, num_buckets=num_partitions),
                      num_partitions=num_partitions)
    return exchange(sig_rows.union(with_a),
                    functools.partial(attach_b, threshold=threshold),
                    num_partitions=num_partitions)


def _distinct_pairs(ds, extra_cols: tuple = ()):
    """Distributed distinct over (doc_a, doc_b[, extra]) — a hash
    groupby + count, exchange carries only the narrow key columns.
    The pair dedup of every near-dup plan: candidate sets on
    boilerplate-heavy corpora can be a large fraction of the corpus,
    too big for one block."""
    keys = ["doc_a", "doc_b", *extra_cols]
    out = ds.groupby(keys).count()
    return out.select_columns(keys)


def minhash_lsh_pairs(ds, *, num_perm=128, bands=16, rows=8,
                      shingle_words=3, threshold=0.5, seed=42,
                      band_exchange="auto", num_partitions=None,
                      auto_signatures_max_docs=100_000):
    """Full MinHash-LSH near-dup candidate pipeline over a documents
    Dataset → distinct (doc_a, doc_b, jaccard_est_milli).

    ``band_exchange`` controls what the bucket shuffle moves:

    * ``"auto"`` (default): cost-based plan choice — corpora up to
      ``auto_signatures_max_docs`` (100k, ≈1.6 GB exchange at 128
      perms) use ``"signatures"`` (ONE shuffle, verification
      in-bucket, no extra passes); larger corpora use ``"ids"`` whose
      exchange is 1000x narrower.  Both plans are fully distributed
      and driver-free; the choice takes the row count from the
      input's plan metadata (parquet footers: nothing runs), else
      from the signatures (``state.sizing.row_count``: materialized
      once, then reused by the band stage, so the upstream runs
      once).  The 100k crossover is
      measured (round 5, post-vectorization, 40-token docs, 32 CPUs):
      50k docs — signatures 4.3 s vs ids 12.0 s; 100k — 18.0 vs
      16.5 s; 250k — 74 vs 29 s; 1M — 437 vs 162 s.  The old 1M gate
      dated from when the pipeline's per-stage fixed costs dominated;
      with task-pool signatures + coarse-bucket reducers the exchange
      width takes over far earlier.
    * ``"ids"`` (the SCALE shape): band rows carry only
      (band_key, doc_id) — ~16 B/doc exchanged instead of
      bands x signature ≈ 16 KB/doc (a 1000x reduction; at 10^12 docs
      the difference is petabytes). Candidate pairs come out id-only
      and are verified by joining the signatures back onto the pairs
      with two bucketed distributed co-groups (``_cogroup_verify``:
      attach sig_a by doc_a, then sig_b and the slot-agreement
      estimate by doc_b).  Nothing pair-set-sized ever lands on the
      driver — on boilerplate-heavy corpora the candidate set is
      O(corpus).  (``Dataset.join`` would express the same attach, but
      Ray 2.49's join operator builds 0-column tables for partitions
      that receive no blocks on one side and ``pa.Table.join`` then
      raises — the bucketed co-group avoids the operator entirely.)
    * ``"signatures"`` — the band rows carry signatures and buckets
      verify in place; avoids the second pass when candidate sets are
      a large fraction of the corpus.

    A pair can surface from several bands; a distributed hash groupby
    over the narrow pair columns keeps one of each.
    """
    import functools
    from ..state.sizing import default_pool_size
    # stateless task stage, NOT an actor pool: the hasher state is
    # two tiny arrays cached per worker process (_cached_hasher), so
    # tasks start hashing immediately — no pool spin-up
    sigs = ds.map_batches(
        functools.partial(minhash_signatures, num_perm=num_perm,
                          shingle_words=shingle_words, seed=seed),
        batch_format="pyarrow")
    n_docs = None
    if band_exchange == "auto":
        sigs, n_docs = row_count(ds, "minhash_lsh_pairs", sigs)
        band_exchange = ("signatures"
                         if n_docs <= auto_signatures_max_docs
                         else "ids")
        if num_partitions is None:
            # shuffle partition count from DATA size, not pool size
            num_partitions = partitions_for(n_docs, 10_000)
    if num_partitions is None:
        num_partitions = max(8, default_pool_size())
    # coarse band buckets: ~100k band rows per reducer call, or
    # 8 x num_partitions when the corpus was not counted
    num_buckets = (max(64, 8 * num_partitions) if n_docs is None else
                   partitions_for(n_docs * bands, 100_000, floor=64,
                                  cap=1 << 20))
    if band_exchange == "signatures":
        bandrows = sigs.map_batches(
            functools.partial(lsh_bands, bands=bands, rows=rows,
                              num_buckets=num_buckets),
            batch_format="pyarrow")
        pairs = exchange(
            bandrows,
            functools.partial(bucket_candidate_pairs, threshold=threshold),
            num_partitions=num_partitions, n_rows=n_docs)
        # estimates are signature-determined, identical across
        # bands → keying on all 3 columns is an exact distinct
        return _distinct_pairs(pairs, ("jaccard_est_milli",))

    # scale shape: id-only band rows; signatures materialized once
    # (block-level, stays in the object store; a no-op when the count
    # above already materialized them) and joined back over the
    # candidate pairs for verification by TWO bucketed co-groups
    # (attach sig_a by doc_a, then sig_b + verify by doc_b); no
    # separate pre-dedup shuffle needed
    sigs = sigs.materialize()
    bandrows = sigs.map_batches(
        functools.partial(lsh_bands, bands=bands, rows=rows,
                          carry_signature=False,
                          num_buckets=num_buckets),
        batch_format="pyarrow")
    cand = exchange(bandrows, bucket_candidate_ids,
                    num_partitions=num_partitions, n_rows=n_docs)
    cand, sigs = _prune_sigs_to_candidates(cand, sigs)
    sig_rows = sigs.map_batches(
        functools.partial(_cogroup_sig_rows,
                          num_buckets=num_partitions),
        batch_format="pyarrow")
    return _cogroup_verify(sig_rows, cand,
                           num_partitions=num_partitions,
                           sig_width=num_perm * 8,
                           threshold=threshold)


# ------------------------------------------------------------- SimHash

def simhash_batch(batch: pa.Table) -> pa.Table:
    """map_batches task: text → 64-bit SimHash (signed int64 bit
    pattern).  Vectorized across the batch: token CRCs are collected
    into ONE uint64 array, unpacked to a (tokens, 64) bit matrix, and
    per-doc majorities come from segment sums (``np.add.reduceat``) —
    bit-for-bit identical to ``SimHash.simhash64`` (bit i of the
    result = position i of the little-endian-byte / MSB-first-bit
    unpacking, the same order both construct)."""
    texts = batch.column("text").to_pylist()
    per_doc: list = []
    counts = np.empty(len(texts), dtype=np.int64)
    for d, t in enumerate(texts):
        toks = t.split()
        counts[d] = len(toks)
        per_doc.append([
            (zlib.crc32(b) << 32) | zlib.crc32(b + b"#salt")
            for b in (tok.encode("utf-8") for tok in toks)])
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    # the (tokens x 64) unpacked-bit matrix is the working set: slice
    # the batch at doc boundaries every ~1M tokens (≤64 MB of uint8
    # bits + ≤512 MB int32 sums worst case → int32 keeps it ≤320 MB)
    # so whole-block batches of long documents stay heap-bounded
    budget = _SIMHASH_TOKEN_BUDGET
    lo = 0
    while lo < n:
        hi, tot = lo, 0
        while hi < n and (tot == 0 or tot + counts[hi] <= budget):
            tot += int(counts[hi])
            hi += 1
        sl = slice(lo, hi)
        nonempty = counts[sl] > 0
        if tot:
            arr = np.asarray(
                [h for doc in per_doc[lo:hi] for h in doc],
                dtype=np.uint64)
            bits = np.unpackbits(
                arr.view(np.uint8).reshape(len(arr), 8),
                axis=1).astype(np.int32)                   # (T, 64)
            starts = np.zeros(int(nonempty.sum()), dtype=np.int64)
            np.cumsum(counts[sl][nonempty][:-1], out=starts[1:])
            sums = np.add.reduceat(bits, starts, axis=0)   # (docs, 64)
            # majority: acc_i = 2*sum_i - n_tok > 0
            maj = (2 * sums.astype(np.int64)) \
                > counts[sl][nonempty][:, None]
            out[sl][nonempty] = (maj * weights[None, :]).sum(
                axis=1, dtype=np.uint64)
        lo = hi
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "simhash": pa.array(out.view(np.int64)),
    })


class SimHash:
    """64-bit SimHash (Charikar's random-hyperplane sketch, public
    STOC'02 construction) over word features; CRC32 feature hashes
    extended to 64 bits via a second salted CRC.  ``simhash64`` is
    the scalar reference the tests compare against; batches go
    through the vectorized ``simhash_batch`` (which the pipelines pass
    directly, as a task stage)."""

    def __init__(self):
        pass

    @staticmethod
    def simhash64(text: str) -> int:
        toks = text.split()
        if not toks:
            return 0
        acc = np.zeros(64, dtype=np.int64)
        for t in toks:
            b = t.encode("utf-8")
            h = (zlib.crc32(b) << 32) | zlib.crc32(b + b"#salt")
            bits = np.unpackbits(
                np.frombuffer(np.uint64(h).tobytes(), dtype=np.uint8))
            acc += bits.astype(np.int64) * 2 - 1
        out = np.uint64(0)
        for i, v in enumerate(acc):
            if v > 0:
                out |= np.uint64(1) << np.uint64(i)
        return int(out)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return simhash_batch(batch)


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


# -------------------------------------------- exact n-gram verification

def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact word n-gram Jaccard — the verifier for candidate pairs."""
    def grams(t):
        toks = t.split()
        if len(toks) < n:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}
    ga, gb = grams(text_a), grams(text_b)
    if not ga and not gb:
        return 1.0
    u = len(ga | gb)
    return len(ga & gb) / u if u else 0.0


def simhash_bands(batch: pa.Table, *, bands: int = 4,
                  num_buckets: int | None = None) -> pa.Table:
    """Explode 64-bit simhashes into bit-band rows.  Pigeonhole
    guarantee: two hashes within Hamming distance bands-1 share at
    least one exact band — the standard bit-sampling LSH for Hamming
    space.  Stateless, fully vectorized function stage.

    The key is the int64 ``band_id * 2^width + value`` — collision-
    free across bands because the value is masked to ``width`` bits,
    so each band's keys occupy a disjoint 2^width-sized block of the
    key space.  ``num_buckets`` adds the coarse ``bucket``
    column (key hashed to num_buckets) for the vectorized reducer, as
    in lsh_bands."""
    n = batch.num_rows
    hs = batch.column("simhash").to_numpy(zero_copy_only=False)
    width = 64 // bands
    mask = (np.uint64((1 << width) - 1) if width < 64
            else np.uint64(0xFFFFFFFFFFFFFFFF))
    u = hs.astype(np.uint64)
    # (n, bands): band b = bits [b*width, (b+1)*width)
    shifts = (np.arange(bands, dtype=np.uint64) * np.uint64(width))
    vals = (u[:, None] >> shifts[None, :]) & mask
    keys = (np.arange(bands, dtype=np.uint64)[None, :] << np.uint64(width)
            if width < 64 else np.zeros((1, bands), np.uint64)) | vals
    flat = keys.reshape(-1)                   # doc-major: d0 b0..bN ...
    cols = {
        "band_key": pa.array(flat.view(np.int64)),
        "doc_id": pa.array(np.repeat(
            batch.column("doc_id").to_numpy(zero_copy_only=False), bands)),
        "simhash": pa.array(np.repeat(hs, bands)),
    }
    if num_buckets:
        cols["bucket"] = pa.array(key_buckets(flat,
                                              num_buckets=num_buckets))
    return pa.table(cols) if n else pa.table(cols).slice(0, 0)


def _popcount64(x: np.ndarray) -> np.ndarray:
    bits = np.unpackbits(np.ascontiguousarray(x).view(np.uint8)
                         .reshape(len(x), 8), axis=1)
    return bits.sum(axis=1)


def simhash_bucket_pairs(group: pa.Table, *, max_hamming: int = 3
                         ) -> pa.Table:
    """One coarse bucket of simhash band rows → pairs (doc_a < doc_b,
    hamming <= max_hamming).  Same vectorized run machinery and
    hot-bucket star policy as the MinHash reducers: all-pairs up to
    HOT_BUCKET_CAP members per band key, overflow star-checked
    against the run minimum — nothing silently dropped, cluster
    connectivity preserved through the hub."""
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})
    sel, ids_s, newf_s, starts, ends = _sorted_runs(group)
    a_i, b_i = _run_pair_idx(starts, ends, newf_s)
    if a_i.size == 0:
        return empty
    u = group.column("simhash").to_numpy(
        zero_copy_only=False).astype(np.uint64)
    dist = np.empty(a_i.size, dtype=np.int64)
    for lo in range(0, a_i.size, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, a_i.size)
        dist[lo:hi] = _popcount64(u[sel[a_i[lo:hi]]]
                                  ^ u[sel[b_i[lo:hi]]])
    keep = dist <= max_hamming
    a_out = ids_s[a_i[keep]].astype(np.int64)
    b_out = ids_s[b_i[keep]].astype(np.int64)
    d_out = dist[keep]
    if not len(a_out):
        return empty
    return pa.table({"doc_a": pa.array(a_out, pa.int64()),
                     "doc_b": pa.array(b_out, pa.int64()),
                     "hamming": pa.array(d_out, pa.int64())})


def simhash_neardup_pairs(ds, *, max_hamming: int = 3, bands: int = 4):
    """SimHash near-dup pipeline over a documents Dataset:
    simhash → bit-band explode → groupby(band) → within-bucket Hamming
    → distinct (doc_a, doc_b, hamming). Exact for
    max_hamming <= bands-1 (pigeonhole); the only shuffle moves
    (band_key, doc_id, simhash) rows.  The distinct is a distributed
    hash groupby over the narrow pair columns — pair sets on
    near-identical-boilerplate corpora can be corpus-sized."""
    import functools
    sh = ds.map_batches(simhash_batch, batch_format="pyarrow")
    sh, n_docs = row_count(ds, "simhash_neardup_pairs", sh)
    # coarse-bucket count from the corpus size so per-reducer input
    # tracks ~100k band rows at ANY corpus size — a fixed bucket count
    # would make the per-task working set O(N*bands/buckets), unbounded
    num_buckets = partitions_for(n_docs * bands, 100_000, floor=64,
                                 cap=1 << 20)
    bandrows = sh.map_batches(
        functools.partial(simhash_bands, bands=bands,
                          num_buckets=num_buckets),
        batch_format="pyarrow")
    pairs = exchange(
        bandrows,
        functools.partial(simhash_bucket_pairs, max_hamming=max_hamming),
        num_partitions=partitions_for(n_docs, 10_000), n_rows=n_docs)
    # hamming is pair-determined → keying on all 3 is exact distinct
    return _distinct_pairs(pairs, ("hamming",))
