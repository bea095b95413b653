"""Similarity search over an embedding column (list<float>).

* **Brute-force cosine top-k** (the exactness baseline): the query
  matrix is broadcast ONCE (``ray.put``) and read once per actor in
  ``__init__`` — never re-shipped per batch. Each batch does one
  float64 matmul (Q x d) @ (d x B) and emits per-(query, batch) top-k
  candidate rows; a tiny ``groupby(query_id)`` reduce keeps the global
  top-k. The shuffle moves at most Q x k x num_batches candidate rows
  — never embeddings.
* **LSH-bucketed ANN** (the scale path): random-hyperplane sign
  buckets (seeded); corpus rows are compared only within the query's
  bucket (multi-probe over single-bit flips to recover recall).
  Recall/probe trade-off is measured in tests against brute force.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.broadcast import Broadcast


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64, copy=False)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _batch_matrix(batch: pa.Table) -> np.ndarray:
    col = batch.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.values.to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), -1)


_BCAST_STATE_CACHE: dict = {}


def _cached_ids_matrix(ref, *, normalize: bool):
    """Per-worker-process cache of a broadcast {"ids", "matrix"} blob.
    ray.get of a plasma numpy is already a zero-copy view, so the
    cache only saves the ids dtype conversion and (for query blobs)
    the normalize — but it makes task stages exactly as cheap per
    batch as the old actor __init__ was per actor, WITHOUT the fixed
    pool spin-up (~2-3 s/pipeline, see dedup._cached_hasher)."""
    key = (ref.hex() if hasattr(ref, "hex") else id(ref), normalize)
    st = _BCAST_STATE_CACHE.get(key)
    if st is None:
        c = Broadcast.get(ref)
        m = np.asarray(c["matrix"])
        st = (np.asarray(c["ids"], dtype=np.int64),
              _normalize(m) if normalize else m)
        if len(_BCAST_STATE_CACHE) >= 8:    # blobs can be GBs; bound it
            _BCAST_STATE_CACHE.clear()
        _BCAST_STATE_CACHE[key] = st
    return st


def brute_force_topk_batch(batch: pa.Table, *, queries_ref,
                           k: int = 10) -> pa.Table:
    """Per-batch top-k against the broadcast query matrix (stateless
    task stage; query state cached per worker process)."""
    query_ids, q = _cached_ids_matrix(queries_ref, normalize=True)
    vecs = _normalize(_batch_matrix(batch))
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    sims = q @ vecs.T                           # (Q, B)
    k = min(k, sims.shape[1])
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]   # (Q, k)
    return pa.table({
        "query_id": pa.array(np.repeat(query_ids, k), pa.int64()),
        "neighbor_id": pa.array(ids[top.ravel()], pa.int64()),
        "cosine": pa.array(
            np.take_along_axis(sims, top, axis=1).ravel(),
            pa.float64()),
    })


class BruteForceTopK:
    """Class form of ``brute_force_topk_batch`` (actor-compatible);
    the pipelines pass the function so the stage runs as tasks."""

    def __init__(self, queries_ref, k: int = 10):
        self._kw = dict(queries_ref=queries_ref, k=k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return brute_force_topk_batch(batch, **self._kw)


def _topk_reduce_factory(k: int, exclude_self: bool):
    def reduce_group(group: pa.Table) -> pa.Table:
        qid = group.column("query_id")[0].as_py()
        nid = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        cos = group.column("cosine").to_numpy(zero_copy_only=False)
        if exclude_self:
            keep = nid != qid
            nid, cos = nid[keep], cos[keep]
        # deterministic under cosine ties: sort by (-cosine, neighbor)
        order = np.lexsort((nid, -cos))[:k]
        n = len(order)
        return pa.table({
            "query_id": pa.array([qid] * n, pa.int64()),
            "neighbor_id": pa.array(nid[order], pa.int64()),
            "rank": pa.array(np.arange(1, n + 1, dtype=np.int64)),
        })
    return reduce_group


def ann_topk(ds, queries: dict, *, k: int = 10, exclude_self: bool = True):
    """Brute-force exact top-k: Dataset(vec_id, embedding) + broadcast
    queries {"ids": [...], "matrix": ndarray} → (query_id,
    neighbor_id, rank)."""
    import functools

    import ray
    ref = ray.put(queries)
    cand = ds.map_batches(
        functools.partial(brute_force_topk_batch, queries_ref=ref,
                          k=k + exclude_self),
        batch_format="pyarrow", batch_size=4096)
    return cand.groupby("query_id").map_groups(
        _topk_reduce_factory(k, exclude_self), batch_format="pyarrow")


# ------------------------------------------------------- LSH scale path

class HyperplaneLsh:
    """Seeded random-hyperplane signer: embedding → integer bucket id
    (sign bits of n_planes projections)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((n_planes, dim))
        self.n_planes = n_planes

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        signs = (self.planes @ m.T) > 0          # (P, N)
        weights = (1 << np.arange(self.n_planes))[:, None]
        return (signs * weights).sum(axis=0).astype(np.int64)

    def probes(self, vec: np.ndarray, n_flip: int = 1) -> list[int]:
        """Multi-probe: the bucket plus all buckets within ``n_flip``
        sign-bit flips — recovers recall lost at hyperplane borders
        (probe count grows as C(planes, n_flip); keep n_flip ≤ 2)."""
        base = int(self.bucket_of(vec.reshape(1, -1))[0])
        out = [base]
        if n_flip >= 1:
            out += [base ^ (1 << i) for i in range(self.n_planes)]
        if n_flip >= 2:
            out += [base ^ (1 << i) ^ (1 << j)
                    for i in range(self.n_planes)
                    for j in range(i + 1, self.n_planes)]
        return out


def lsh_bucket_stage(batch: pa.Table, *, dim: int, n_planes: int = 12,
                     seed: int = 42) -> pa.Table:
    """Stateless function stage (plane matrix is cheap to rebuild per
    task; avoids a second fixed actor pool — see state/sizing.py)."""
    lsh = HyperplaneLsh(dim, n_planes, seed)
    m = _normalize(_batch_matrix(batch))
    buckets = lsh.bucket_of(m)
    return batch.append_column("bucket", pa.array(buckets, pa.int64()))


def ann_topk_lsh(ds, queries: dict, *, dim: int, k: int = 10,
                 n_planes: int = 12, seed: int = 42, n_flip: int = 1,
                 exclude_self: bool = True, concurrency=None):
    """Approximate top-k: corpus rows hashed to hyperplane buckets;
    each batch only scores queries probing one of its buckets. Same
    output schema as ann_topk (recall < 1; measured in tests)."""
    import ray
    from ..state.sizing import default_pool_size
    if concurrency is None:
        concurrency = default_pool_size()

    lsh = HyperplaneLsh(dim, n_planes, seed)
    qm = _normalize(np.asarray(queries["matrix"]))
    probe_map = {}                       # bucket -> [query rows]
    for qi, vec in enumerate(qm):
        for b in lsh.probes(vec, n_flip=n_flip):
            probe_map.setdefault(b, []).append(qi)
    payload = {"ids": np.asarray(queries["ids"], dtype=np.int64),
               "matrix": qm, "probe_map": probe_map}
    ref = ray.put(payload)

    class BucketScore:
        def __init__(self, queries_ref, k):
            q = Broadcast.get(queries_ref)
            self.query_ids = q["ids"]
            self.q = q["matrix"]
            self.probe_map = q["probe_map"]
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _normalize(_batch_matrix(batch))
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
            out_q, out_n, out_s = [], [], []
            for b in np.unique(buckets):
                qrows = self.probe_map.get(int(b))
                if not qrows:
                    continue
                mask = buckets == b
                sub, sub_ids = m[mask], ids[mask]
                sims = self.q[qrows] @ sub.T
                kk = min(self.k, sims.shape[1])
                top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
                for r, qi in enumerate(qrows):
                    for c in top[r]:
                        out_q.append(int(self.query_ids[qi]))
                        out_n.append(int(sub_ids[c]))
                        out_s.append(float(sims[r, c]))
            return pa.table({
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            })

    import functools
    bucketed = ds.map_batches(
        functools.partial(lsh_bucket_stage, dim=dim, n_planes=n_planes,
                          seed=seed),
        batch_format="pyarrow", batch_size=4096)
    cand = bucketed.map_batches(
        BucketScore,
        fn_constructor_kwargs={"queries_ref": ref, "k": k + exclude_self},
        batch_format="pyarrow", batch_size=4096, concurrency=concurrency)
    return cand.groupby("query_id").map_groups(
        _topk_reduce_factory(k, exclude_self), batch_format="pyarrow")


class NearDupPairs:
    """Embedding-cosine near-dup pairs: each batch is scored against
    the broadcast (normalized) corpus matrix; emits (vec_a < vec_b)
    pairs with cosine >= threshold.

    Exact but O(N^2/batch) — the small-N / verification tool. At
    10^12-vector scale use hyperplane bucketing first
    (``lsh_bucket_stage`` + within-bucket pairwise, same shape as
    dedup.minhash_lsh_pairs) and accept the recall/probe trade-off.
    """

    def __init__(self, corpus_ref, threshold: float = 0.5):
        self._kw = dict(corpus_ref=corpus_ref, threshold=threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return neardup_pairs_batch(batch, **self._kw)


def neardup_pairs_batch(batch: pa.Table, *, corpus_ref,
                        threshold: float = 0.5) -> pa.Table:
    """Task form of NearDupPairs (corpus matrix is a zero-copy plasma
    view; ids cached per worker process)."""
    corpus_ids, m = _cached_ids_matrix(corpus_ref, normalize=False)
    vecs = _normalize(_batch_matrix(batch))
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    sims = vecs @ m.T                           # (B, N)
    bi, cj = np.nonzero(sims >= threshold)
    a = ids[bi]
    b = corpus_ids[cj]
    keep = a < b                                # dedupe + drop self
    return pa.table({
        "vec_a": pa.array(a[keep], pa.int64()),
        "vec_b": pa.array(b[keep], pa.int64()),
    })


def embedding_neardup_pairs(ds, corpus: dict, *, threshold: float = 0.5):
    """Dataset(vec_id, embedding) + broadcast {"ids", "matrix"} →
    exact cosine near-dup pairs (vec_a, vec_b)."""
    import functools

    import ray
    payload = {"ids": np.asarray(corpus["ids"], dtype=np.int64),
               "matrix": _normalize(np.asarray(corpus["matrix"]))}
    ref = ray.put(payload)
    return ds.map_batches(
        functools.partial(neardup_pairs_batch, corpus_ref=ref,
                          threshold=threshold),
        batch_format="pyarrow", batch_size=4096)


# ------------------------------------------------------- IVF scale path

def _ivf_sample_mask(ids: list, sample_rate: float) -> list[bool]:
    """Deterministic md5-threshold membership — partition-invariant,
    keeps each vec_id with probability ``sample_rate``."""
    import hashlib
    thr = format(int(sample_rate * 16 ** 8), "08x")
    return [hashlib.md5(f"ivf:{i}".encode()).hexdigest()[:8] < thr
            for i in ids]


def train_coarse_centroids(ds, *, dim: int, n_clusters: int = 16,
                           sample_rate: float | None = None,
                           max_train_vectors: int = 262_144,
                           iters: int = 10, seed: int = 42) -> np.ndarray:
    """Seeded Lloyd k-means on a deterministic hash-sample of the
    corpus — the IVF coarse quantizer (public IVF/Faiss design: train
    on a bounded sample, assign everything).

    The training sample is bounded by ABSOLUTE count: when
    ``sample_rate`` is not given it is derived from ``ds.count()`` so
    at most ~``max_train_vectors`` rows are pulled to the driver no
    matter how large the corpus is (a rate-only default of 1.0 would
    ``take_all()`` a 100 TB corpus).  Training itself is a few numpy
    matmuls."""
    if sample_rate is None:
        n = ds.count()
        sample_rate = min(1.0, max_train_vectors / max(n, 1))

    def keep(batch: pa.Table) -> pa.Table:
        if sample_rate >= 1.0:
            return batch
        ids = batch.column("vec_id").to_pylist()
        return batch.filter(pa.array(_ivf_sample_mask(ids, sample_rate),
                                     pa.bool_()))

    rows = ds.map_batches(keep, batch_format="pyarrow").take_all()
    m = _normalize(np.asarray([r["embedding"] for r in rows]))
    rng = np.random.RandomState(seed)
    k = min(n_clusters, len(m))
    centroids = m[rng.choice(len(m), size=k, replace=False)]
    for _ in range(iters):
        assign = np.argmax(centroids @ m.T, axis=0)
        for c in range(k):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    return centroids


def ivf_assign_stage(batch: pa.Table, *, centroids_ref) -> pa.Table:
    """Stateless assign: cluster = argmax centroid similarity."""
    from ..state.broadcast import Broadcast
    cents = Broadcast.get(centroids_ref)
    m = _normalize(_batch_matrix(batch))
    assign = np.argmax(cents @ m.T, axis=0).astype(np.int64)
    return batch.append_column("ivf_cluster", pa.array(assign))


def ann_topk_ivf(ds, queries: dict, *, dim: int, k: int = 10,
                 n_clusters: int = 16, n_probe: int = 4,
                 exclude_self: bool = True, concurrency=None,
                 centroids: np.ndarray | None = None):
    """IVF approximate top-k: a coarse quantizer (trained on a
    bounded sample unless ``centroids`` given) partitions the corpus;
    each query scores only rows assigned to its ``n_probe`` nearest
    clusters.  Same output schema as ann_topk; recall/probe trade-off
    measured in tests.  vs the LSH path: data-adaptive cells (better
    for clustered corpora), one extra training pass."""
    import functools
    import ray
    from ..state.sizing import default_pool_size
    if concurrency is None:
        concurrency = default_pool_size()
    if centroids is None:
        centroids = train_coarse_centroids(ds, dim=dim,
                                           n_clusters=n_clusters)
    cents_ref = ray.put(centroids)
    qm = _normalize(np.asarray(queries["matrix"]))
    sims = centroids @ qm.T                       # (C, Q)
    n_probe = min(n_probe, centroids.shape[0])
    probe = np.argpartition(-sims, n_probe - 1, axis=0)[:n_probe]
    probe_map: dict = {}
    for qi in range(qm.shape[0]):
        for c in probe[:, qi]:
            probe_map.setdefault(int(c), []).append(qi)
    payload = {"ids": np.asarray(queries["ids"], dtype=np.int64),
               "matrix": qm, "probe_map": probe_map}
    ref = ray.put(payload)

    class ClusterScore:
        def __init__(self, queries_ref, k):
            from ..state.broadcast import Broadcast
            q = Broadcast.get(queries_ref)
            self.query_ids = q["ids"]
            self.q = q["matrix"]
            self.probe_map = q["probe_map"]
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _normalize(_batch_matrix(batch))
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            cl = batch.column("ivf_cluster").to_numpy(zero_copy_only=False)
            out_q, out_n, out_s = [], [], []
            for c in np.unique(cl):
                qrows = self.probe_map.get(int(c))
                if not qrows:
                    continue
                mask = cl == c
                sub, sub_ids = m[mask], ids[mask]
                sims = self.q[qrows] @ sub.T
                kk = min(self.k, sims.shape[1])
                top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
                for r, qi in enumerate(qrows):
                    for cc in top[r]:
                        out_q.append(int(self.query_ids[qi]))
                        out_n.append(int(sub_ids[cc]))
                        out_s.append(float(sims[r, cc]))
            return pa.table({
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            })

    assigned = ds.map_batches(
        functools.partial(ivf_assign_stage, centroids_ref=cents_ref),
        batch_format="pyarrow", batch_size=4096)
    cand = assigned.map_batches(
        ClusterScore,
        fn_constructor_kwargs={"queries_ref": ref, "k": k + exclude_self},
        batch_format="pyarrow", batch_size=4096, concurrency=concurrency)
    return cand.groupby("query_id").map_groups(
        _topk_reduce_factory(k, exclude_self), batch_format="pyarrow")


# ------------------------------------------------------- kNN graph

def _row_topk_table(sims: np.ndarray, row_ids: np.ndarray,
                    col_ids: np.ndarray, k: int) -> pa.Table:
    """Per-row top-k of a similarity block with deterministic
    (-cosine, neighbor_id) ordering; self matches must already be
    masked to -inf.  Vectorized: one argpartition over 2k candidates +
    one lexsort, no Python loop on the common path.

    Boundary ties: ``argpartition`` alone picks ARBITRARY columns
    among cosines tied at the k-th value (e.g. duplicate embeddings),
    which can disagree with the (-cosine, neighbor_id) contract.  We
    partition 2k candidates and, for the rare rows whose first
    DROPPED candidate ties the last KEPT one, redo that row with a
    full deterministic lexsort — exactness for a per-row fallback
    that fires only on tie clusters wider than k."""
    width = sims.shape[1]
    k = min(k, width - 1) if width > 1 else 0
    if k <= 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    kk = min(2 * k, width)          # kk > k whenever k < width
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    rows = np.arange(sims.shape[0])[:, None]
    cand_sims = sims[rows, part]
    cand_ids = col_ids[part]
    order = np.lexsort((cand_ids, -cand_sims), axis=1)
    top_sims = np.take_along_axis(cand_sims, order, axis=1)
    nid = np.take_along_axis(cand_ids, order, axis=1)[:, :k]
    if kk > k:
        risky = np.nonzero(top_sims[:, k] == top_sims[:, k - 1])[0]
        for r in risky:
            full = np.lexsort((col_ids, -sims[r]))[:k]
            nid[r] = col_ids[full]
    return pa.table({
        "vec_id": pa.array(np.repeat(row_ids, k), pa.int64()),
        "neighbor_id": pa.array(nid.ravel(), pa.int64()),
        "rank": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int64),
                                 sims.shape[0])),
    })


class KnnGraphScore:
    """Per-batch exact kNN against the broadcast corpus matrix:
    one (B x d) @ (d x N) matmul, per-row top-k — a pure map, zero
    shuffle (each row sees the FULL corpus, so no cross-batch reduce
    is needed, unlike BruteForceTopK whose queries are scored per
    corpus batch)."""

    def __init__(self, corpus_ref, k: int):
        self._kw = dict(corpus_ref=corpus_ref, k=k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return knn_graph_score_batch(batch, **self._kw)


def knn_graph_score_batch(batch: pa.Table, *, corpus_ref,
                          k: int) -> pa.Table:
    """Task form of KnnGraphScore (corpus matrix is a zero-copy plasma
    view; ids cached per worker process)."""
    corpus_ids, m = _cached_ids_matrix(corpus_ref, normalize=False)
    vecs = _normalize(_batch_matrix(batch))
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    sims = vecs @ m.T                           # (B, N)
    sims[ids[:, None] == corpus_ids[None, :]] = -np.inf
    return _row_topk_table(sims, ids, corpus_ids, k)


def knn_graph(ds, corpus: dict, *, k: int = 5):
    """Exact k-nearest-neighbor graph (every corpus vector is a
    query): Dataset(vec_id, embedding) + broadcast {"ids", "matrix"}
    → (vec_id, neighbor_id, rank), rank 1..k by (-cosine,
    neighbor_id).

    The EXACTNESS BASELINE, same contract as NearDupPairs: the corpus
    matrix is broadcast once (``ray.put``, read per actor in
    ``__init__``) and each batch does one matmul — O(N x B x d) total
    work, corpus matrix must fit in a worker heap (~10M x 64 float64 ≈
    5 GB).  Past that, use ``knn_graph_lsh`` — bucketed, no broadcast,
    approximate."""
    import functools

    import ray
    payload = {"ids": np.asarray(corpus["ids"], dtype=np.int64),
               "matrix": _normalize(np.asarray(corpus["matrix"]))}
    ref = ray.put(payload)
    return ds.map_batches(
        functools.partial(knn_graph_score_batch, corpus_ref=ref, k=k),
        batch_format="pyarrow", batch_size=4096)


def _bucket_knn_group(group: pa.Table, *, k: int) -> pa.Table:
    """One hyperplane bucket: exact within-bucket per-row top-k
    (single matmul).  Rows in singleton buckets emit nothing."""
    ids = group.column("vec_id").to_numpy(zero_copy_only=False)
    if len(ids) < 2:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    m = _normalize(_batch_matrix(group))
    sims = m @ m.T
    np.fill_diagonal(sims, -np.inf)
    return _row_topk_table(sims, ids, ids, k)


def knn_graph_lsh(ds, *, dim: int, k: int = 5, n_planes: int = 8,
                  seed: int = 42, num_partitions: int | None = None):
    """SCALE path for the kNN graph: hyperplane sign buckets → ONE
    groupby(bucket) → exact per-row top-k within each bucket.  No
    broadcast corpus, no all-pairs — quadratic work is bounded per
    bucket (2^n_planes cells).  Approximate: neighbors in other
    buckets are missed (``n_planes=0`` ⇒ one bucket ⇒ exact — the
    degenerate-config equivalence pinned in tests; recall at real
    configs measured there too).  Same output schema as knn_graph."""
    import functools
    bucketed = ds.map_batches(
        functools.partial(lsh_bucket_stage, dim=dim, n_planes=n_planes,
                          seed=seed),
        batch_format="pyarrow", batch_size=4096)
    gb = (bucketed.groupby("bucket", num_partitions=num_partitions)
          if num_partitions else bucketed.groupby("bucket"))
    return gb.map_groups(
        functools.partial(_bucket_knn_group, k=k),
        batch_format="pyarrow")


def _bucket_pairs_group(group: pa.Table, *, threshold: float
                        ) -> pa.Table:
    """One hyperplane bucket: exact pairwise cosine within the bucket
    (single matmul), pairs ≥ threshold."""
    m = _normalize(_batch_matrix(group))
    ids = group.column("vec_id").to_numpy(zero_copy_only=False)
    empty = pa.table({"vec_a": pa.array([], pa.int64()),
                      "vec_b": pa.array([], pa.int64())})
    if len(ids) < 2:
        return empty
    sims = m @ m.T
    ai, bj = np.nonzero(np.triu(sims >= threshold, k=1))
    a, b = ids[ai], ids[bj]
    swap = a > b
    a2 = np.where(swap, b, a)
    b2 = np.where(swap, a, b)
    return pa.table({"vec_a": pa.array(a2, pa.int64()),
                     "vec_b": pa.array(b2, pa.int64())})


def embedding_neardup_pairs_lsh(ds, *, dim: int, threshold: float = 0.5,
                                n_planes: int = 8, seed: int = 42,
                                num_partitions: int | None = None):
    """SCALE path for embedding near-dups: hyperplane sign buckets →
    ONE groupby(bucket) → exact pairwise cosine within each bucket.
    No broadcast corpus matrix, no all-pairs — the quadratic work is
    bounded per bucket (2^n_planes cells).  Approximate: pairs whose
    members land in different buckets are missed (recall measured in
    tests; raise by lowering n_planes or multi-probe re-runs with
    different seeds).  Output distinct by construction (one bucket
    per vector)."""
    import functools
    bucketed = ds.map_batches(
        functools.partial(lsh_bucket_stage, dim=dim, n_planes=n_planes,
                          seed=seed),
        batch_format="pyarrow", batch_size=4096)
    gb = (bucketed.groupby("bucket", num_partitions=num_partitions)
          if num_partitions else bucketed.groupby("bucket"))
    return gb.map_groups(
        functools.partial(_bucket_pairs_group, threshold=threshold),
        batch_format="pyarrow")
