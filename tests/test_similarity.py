"""Similarity-search tests: brute-force exactness vs numpy reference,
LSH recall vs brute force."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def emb_table():
    rng = np.random.RandomState(11)
    n, d = 400, 32
    m = rng.standard_normal((n, d)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([row.tolist() for row in m],
                              pa.list_(pa.float32())),
    }), m


def numpy_topk(m, q_ids, k):
    mm = m.astype(np.float64)
    mm /= np.linalg.norm(mm, axis=1, keepdims=True)
    sims = mm[q_ids] @ mm.T
    out = {}
    for row, qid in enumerate(q_ids):
        s = sims[row].copy()
        s[qid] = -np.inf                    # exclude self
        order = np.lexsort((np.arange(len(s)), -s))[:k]
        out[qid] = list(order)
    return out


def test_brute_force_matches_numpy(ray_session, emb_table):
    import ray.data
    from gumbo_pp_ray.stages.similarity import ann_topk

    table, m = emb_table
    q_ids = [0, 7, 42]
    queries = {"ids": q_ids, "matrix": m[q_ids]}
    ds = ray.data.from_arrow(table)
    rows = ann_topk(ds, queries, k=10).take_all()
    got = {}
    for r in rows:
        got.setdefault(r["query_id"], []).append((r["rank"], r["neighbor_id"]))
    expected = numpy_topk(m, q_ids, 10)
    for qid in q_ids:
        ordered = [n for _rk, n in sorted(got[qid])]
        assert ordered == expected[qid], qid


def test_lsh_recall_on_clustered_data(ray_session):
    # the honest ANN use case: clustered embeddings (near-dup groups),
    # where true neighbors have high cosine — not isotropic noise
    import ray.data
    from gumbo_pp_ray.stages.similarity import ann_topk_lsh

    rng = np.random.RandomState(3)
    centers = rng.standard_normal((40, 32))
    pts = np.vstack([c + 0.15 * rng.standard_normal((10, 32))
                     for c in centers]).astype(np.float32)
    table = pa.table({
        "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in pts],
                              pa.list_(pa.float32())),
    })
    q_ids = [0, 10, 20, 30, 100, 200, 399]
    queries = {"ids": q_ids, "matrix": pts[q_ids]}
    rows = ann_topk_lsh(ray.data.from_arrow(table), queries,
                        dim=32, k=9, n_planes=10,
                        n_flip=2).take_all()
    got = {}
    for r in rows:
        got.setdefault(r["query_id"], set()).add(r["neighbor_id"])
    expected = numpy_topk(pts, q_ids, 9)
    recalls = [len(got.get(q, set()) & set(expected[q])) / 9 for q in q_ids]
    assert np.mean(recalls) > 0.8, recalls


def test_embedding_neardup_pairs_exact(ray_session):
    import ray.data
    from gumbo_pp_ray.stages.similarity import embedding_neardup_pairs

    rng = np.random.RandomState(5)
    base = rng.standard_normal((50, 16)).astype(np.float32)
    # plant two near-dup pairs
    base[10] = base[3] + 0.01 * rng.standard_normal(16)
    base[40] = base[20] + 0.01 * rng.standard_normal(16)
    table = pa.table({
        "vec_id": pa.array(np.arange(50, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in base],
                              pa.list_(pa.float32())),
    })
    corpus = {"ids": list(range(50)), "matrix": base}
    out = embedding_neardup_pairs(ray.data.from_arrow(table), corpus,
                                  threshold=0.95).take_all()
    pairs = {(r["vec_a"], r["vec_b"]) for r in out}
    assert (3, 10) in pairs and (20, 40) in pairs
    # exactness: matches the numpy reference at the same threshold
    m = base.astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    expected = {(i, j) for i in range(50) for j in range(i + 1, 50)
                if sims[i, j] >= 0.95}
    assert pairs == expected


def test_ann_topk_ivf_recall(ray_session):
    """IVF path: clustered corpus → recall vs brute force must be
    high with enough probes, and perfect when probing all clusters."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.stages.similarity import ann_topk, ann_topk_ivf

    rng = np.random.RandomState(21)
    dim, per = 16, 60
    centers = rng.standard_normal((5, dim)) * 4
    vecs = np.concatenate([c + rng.standard_normal((per, dim))
                           for c in centers])
    ids = list(range(len(vecs)))
    t = pa.table({"vec_id": ids,
                  "embedding": [v.tolist() for v in vecs]})
    queries = {"ids": ids[:8], "matrix": vecs[:8]}

    def ds():
        return ray.data.from_arrow(t)

    exact = {(r["query_id"], r["neighbor_id"])
             for r in ann_topk(ds(), queries, k=5).take_all()}
    ivf = {(r["query_id"], r["neighbor_id"])
           for r in ann_topk_ivf(ds(), queries, dim=dim, k=5,
                                 n_clusters=8,
                                 n_probe=3).take_all()}
    recall = len(exact & ivf) / len(exact)
    assert recall > 0.8, recall
    # probing every cluster = exact
    full = {(r["query_id"], r["neighbor_id"])
            for r in ann_topk_ivf(ds(), queries, dim=dim, k=5,
                                  n_clusters=8,
                                  n_probe=8).take_all()}
    assert full == exact


def test_embedding_neardup_lsh_recall(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.stages.similarity import (
        _normalize, embedding_neardup_pairs_lsh,
    )

    rng = np.random.RandomState(5)
    dim = 12
    base = rng.standard_normal((40, dim))
    # planted near-dups: tiny perturbations of the first 10 vectors
    near = base[:10] + rng.standard_normal((10, dim)) * 0.01
    vecs = np.concatenate([base, near])
    t = pa.table({"vec_id": list(range(len(vecs))),
                  "embedding": [v.tolist() for v in vecs]})
    got = {(r["vec_a"], r["vec_b"])
           for r in embedding_neardup_pairs_lsh(
               ray.data.from_arrow(t), dim=dim, threshold=0.95,
               n_planes=4).take_all()}
    planted = {(i, 40 + i) for i in range(10)}
    # exact truth at this threshold = the planted pairs
    nm = _normalize(vecs)
    sims = nm @ nm.T
    truth = {(i, j) for i in range(len(vecs))
             for j in range(i + 1, len(vecs)) if sims[i, j] >= 0.95}
    assert truth == planted
    assert got <= truth                      # no false positives
    assert len(got) / len(truth) >= 0.6      # bucketed recall


def test_ivf_training_sample_bounded(ray_session):
    """The IVF training default must never pull the full corpus to the
    driver: sample_rate derives from max_train_vectors / count."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.stages.similarity import (
        _ivf_sample_mask, train_coarse_centroids,
    )

    # unit: mask keeps ~rate of ids, deterministically
    ids = list(range(5000))
    m1 = _ivf_sample_mask(ids, 0.1)
    assert m1 == _ivf_sample_mask(ids, 0.1)
    assert 300 <= sum(m1) <= 700
    # every kept id at a lower rate is kept at a higher one (nested)
    m2 = _ivf_sample_mask(ids, 0.3)
    assert all(b or not a for a, b in zip(m1, m2))

    rng = np.random.RandomState(0)
    n, dim = 2000, 8
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(
            [list(map(float, r)) for r in rng.randn(n, dim)],
            pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t)
    cents = train_coarse_centroids(ds, dim=dim, n_clusters=4,
                                   max_train_vectors=200)
    assert cents.shape == (4, dim)
    # the derived rate keeps roughly max_train_vectors rows
    kept = sum(_ivf_sample_mask(list(range(n)), 200 / n))
    assert kept < 400


def test_ivf_default_does_not_materialize_corpus(ray_session,
                                                 monkeypatch):
    """With default args, train_coarse_centroids take_all()s only the
    bounded hash-sample, never the full dataset."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from gumbo_pp_ray.stages import similarity

    rng = np.random.RandomState(1)
    n, dim = 1000, 4
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(
            [list(map(float, r)) for r in rng.randn(n, dim)],
            pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t)
    pulled = {}
    orig = ray.data.Dataset.take_all

    def spy(self, *a, **k):
        rows = orig(self, *a, **k)
        pulled["n"] = len(rows)
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy)
    similarity.train_coarse_centroids(ds, dim=dim, n_clusters=4,
                                      max_train_vectors=100)
    assert pulled["n"] < n / 2


def _numpy_knn_graph(m, k):
    mm = m.astype(np.float64)
    mm /= np.linalg.norm(mm, axis=1, keepdims=True)
    sims = mm @ mm.T
    np.fill_diagonal(sims, -np.inf)
    out = {}
    for i in range(len(mm)):
        order = np.lexsort((np.arange(sims.shape[1]), -sims[i]))[:k]
        out[i] = list(order)
    return out


def test_knn_graph_matches_numpy(ray_session, emb_table):
    import ray.data
    from gumbo_pp_ray.stages.similarity import knn_graph

    table, m = emb_table
    corpus = {"ids": np.arange(len(m)), "matrix": m}
    ds = ray.data.from_arrow(table)
    rows = knn_graph(ds, corpus, k=5).take_all()
    got = {}
    for r in rows:
        got.setdefault(r["vec_id"], []).append((r["rank"], r["neighbor_id"]))
    expected = _numpy_knn_graph(m, 5)
    assert len(got) == len(m)
    for vid, exp in expected.items():
        assert [n for _rk, n in sorted(got[vid])] == exp, vid


def test_knn_graph_lsh_degenerate_equals_exact(ray_session, emb_table):
    """n_planes=0 puts every vector in one bucket — the bucketed
    machinery (bucket stage, groupby, in-bucket top-k) must then
    reproduce the exact graph (degenerate-config equivalence, same
    trick as ann_topk_lsh's full-probe query)."""
    import ray.data
    from gumbo_pp_ray.stages.similarity import knn_graph, knn_graph_lsh

    table, m = emb_table
    corpus = {"ids": np.arange(len(m)), "matrix": m}
    ds = ray.data.from_arrow(table)
    exact = {(r["vec_id"], r["neighbor_id"], r["rank"])
             for r in knn_graph(ds, corpus, k=5).take_all()}
    lsh = {(r["vec_id"], r["neighbor_id"], r["rank"])
           for r in knn_graph_lsh(ds, dim=m.shape[1], k=5,
                                  n_planes=0).take_all()}
    assert lsh == exact


def test_knn_graph_lsh_recall_on_clustered_data(ray_session):
    import ray.data
    from gumbo_pp_ray.stages.similarity import knn_graph, knn_graph_lsh

    rng = np.random.RandomState(5)
    centers = rng.standard_normal((30, 32))
    pts = np.vstack([c + 0.12 * rng.standard_normal((8, 32))
                     for c in centers]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in pts],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t)
    corpus = {"ids": np.arange(len(pts)), "matrix": pts}
    exact = {(r["vec_id"], r["neighbor_id"])
             for r in knn_graph(ds, corpus, k=3).take_all()}
    approx = {(r["vec_id"], r["neighbor_id"])
              for r in knn_graph_lsh(ds, dim=32, k=3,
                                     n_planes=4).take_all()}
    recall = len(exact & approx) / len(exact)
    assert recall > 0.6, recall


def test_row_topk_boundary_ties_deterministic():
    """Duplicate embeddings create cosine ties straddling the k
    boundary; the selection must still follow (-cosine, neighbor_id)
    — the DuckDB oracle's ORDER BY (ADVICE round 4: bare argpartition
    picked arbitrary tied columns)."""
    from gumbo_pp_ray.stages.similarity import _row_topk_table

    # row 0: col 0 is the unique best (cos 1.0), cols 1..9 all tied at
    # 0.5 → top-3 must be [0, 1, 2] (smallest ids among the tie), for
    # EVERY permutation of column order
    rng = np.random.RandomState(7)
    for _ in range(20):
        perm = rng.permutation(10)
        sims = np.full((1, 10), 0.5)
        sims[0, np.where(perm == 0)[0][0]] = 1.0
        col_ids = perm.astype(np.int64)
        t = _row_topk_table(sims, np.array([99], dtype=np.int64),
                            col_ids, k=3)
        assert t.column("neighbor_id").to_pylist() == [0, 1, 2]
        assert t.column("rank").to_pylist() == [1, 2, 3]

    # tie cluster WIDER than 2k (the fallback path): 16 tied columns,
    # k=3 → smallest three ids win
    sims = np.full((2, 16), 0.25)
    col_ids = np.arange(16, 0, -1).astype(np.int64)   # ids 16..1
    t = _row_topk_table(sims, np.array([1, 2], dtype=np.int64),
                        col_ids, k=3)
    assert t.column("neighbor_id").to_pylist() == [1, 2, 3, 1, 2, 3]
