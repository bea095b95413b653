"""Incremental near-dup against a persisted signature index
(stages/incremental.py)."""

import pyarrow as pa
import pytest


def _mk_corpus(texts, start_id=0):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(start_id, start_id + len(texts)),
                           pa.int64()),
        "text": texts,
    })).repartition(2)


BASE = [f"base document number {i} with plenty of distinct words "
        f"for shingles to chew on here {i * 7}" for i in range(40)]


def test_incremental_pairs_new_vs_index(ray_session, tmp_path):
    import ray
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )

    idx = str(tmp_path / "sigidx")
    write_signature_index(_mk_corpus(BASE), idx)

    # new shard: dup of base doc 3, dup of base doc 7, two mutual
    # new-new dups, and fresh unique docs
    new_texts = [BASE[3], BASE[7],
                 "entirely new duplicated payload shared by two docs x",
                 "entirely new duplicated payload shared by two docs x",
                 "totally unique new content nothing like anything"]
    pairs = minhash_lsh_pairs_incremental(
        _mk_corpus(new_texts, start_id=100), idx,
        threshold=0.8, num_partitions=4).to_pandas()
    got = {tuple(r) for r in pairs[["doc_a", "doc_b"]].itertuples(
        index=False)}
    assert (3, 100) in got          # new-old
    assert (7, 101) in got          # new-old
    assert (102, 103) in got        # new-new, emitted once
    # NO old-old pairs ever (index side was already deduped)
    assert not any(a < 100 and b < 100 for a, b in got)
    # exact dups score 1000
    assert (pairs["jaccard_est_milli"] == 1000).all()


def test_incremental_param_mismatch_raises(ray_session, tmp_path):
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )

    idx = str(tmp_path / "sigidx2")
    write_signature_index(_mk_corpus(BASE[:5]), idx, num_perm=32)
    with pytest.raises(ValueError, match="num_perm"):
        minhash_lsh_pairs_incremental(
            _mk_corpus(["x"], start_id=50), idx, bands=16, rows=8)


def test_index_params_roundtrip(ray_session, tmp_path):
    from gumbo_pp_ray.stages.incremental import (
        read_index_params, write_signature_index,
    )
    idx = str(tmp_path / "sigidx3")
    p = write_signature_index(_mk_corpus(BASE[:3]), idx, num_perm=64,
                              shingle_words=2, seed=7)
    assert read_index_params(idx) == p == {
        "num_perm": 64, "shingle_words": 2, "seed": 7}


def test_multi_increment_index_growth(ray_session, tmp_path):
    """Three successive ingest waves against one accreting index
    (VERDICT r3 item 8): each wave dedups ONLY against what the index
    held before it, old-old pairs stay suppressed as generations
    accrete, and the sidecar params govern every appended shard."""
    from gumbo_pp_ray.sources.io import list_input_files
    from gumbo_pp_ray.stages.incremental import (
        append_signature_index, minhash_lsh_pairs_incremental,
        read_index_params, write_signature_index,
    )

    idx = str(tmp_path / "sigidx_grow")
    write_signature_index(_mk_corpus(BASE), idx)
    n_files_0 = len(list_input_files(idx))
    params_0 = read_index_params(idx)

    # wave 1: one dup of base doc 5, one fresh doc
    w1 = [BASE[5], "wave one fresh unique content alpha beta gamma"]
    pairs1 = minhash_lsh_pairs_incremental(
        _mk_corpus(w1, start_id=100), idx, threshold=0.8,
        num_partitions=4).to_pandas()
    got1 = {tuple(r) for r in pairs1[["doc_a", "doc_b"]].itertuples(
        index=False)}
    assert (5, 100) in got1
    append_signature_index(_mk_corpus(w1, start_id=100), idx)
    assert len(list_input_files(idx)) > n_files_0     # accreted, not
    assert read_index_params(idx) == params_0         # rewritten

    # wave 2: dups of BASE doc 9 AND of wave-1 doc 101 — the second
    # only pairs if wave 1 really joined the index
    w2 = [BASE[9], w1[1], "wave two brand new never seen text"]
    pairs2 = minhash_lsh_pairs_incremental(
        _mk_corpus(w2, start_id=200), idx, threshold=0.8,
        num_partitions=4).to_pandas()
    got2 = {tuple(r) for r in pairs2[["doc_a", "doc_b"]].itertuples(
        index=False)}
    assert (9, 200) in got2          # vs generation 0
    assert (101, 201) in got2        # vs generation 1
    # old-old suppression holds across generations: every pair has a
    # wave-2 member
    assert all(b >= 200 for _, b in got2)
    append_signature_index(_mk_corpus(w2, start_id=200), idx)

    # wave 3: dup of a wave-2 doc; index now spans three generations
    w3 = [w2[2]]
    pairs3 = minhash_lsh_pairs_incremental(
        _mk_corpus(w3, start_id=300), idx, threshold=0.8,
        num_partitions=4).to_pandas()
    got3 = {tuple(r) for r in pairs3[["doc_a", "doc_b"]].itertuples(
        index=False)}
    assert (202, 300) in got3
    assert all(b >= 300 for _, b in got3)


def test_incremental_band_exchange_modes_agree(ray_session, tmp_path):
    """The narrow ids exchange (band rows = band_key/doc_id/is_new,
    co-group verify) must produce the exact same pair set as the
    signatures exchange (in-bucket verify) — same guarantee the main
    path pins in test_dedup.test_minhash_band_exchange_modes_agree."""
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )

    idx = str(tmp_path / "sigidx_modes")
    write_signature_index(_mk_corpus(BASE), idx)
    new_texts = [BASE[3], BASE[11],
                 "entirely new duplicated payload shared by two docs y",
                 "entirely new duplicated payload shared by two docs y",
                 "one more unique new document unlike all the others",
                 BASE[3]]                    # second dup of the same base
    results = {}
    for mode in ("signatures", "ids"):
        df = minhash_lsh_pairs_incremental(
            _mk_corpus(new_texts, start_id=100), idx, threshold=0.8,
            num_partitions=4,
            band_exchange=mode).to_pandas()
        results[mode] = {tuple(r) for r in df[
            ["doc_a", "doc_b", "jaccard_est_milli"]].itertuples(
            index=False)}
    assert results["ids"] == results["signatures"]
    assert (3, 100, 1000) in results["ids"]
    assert not any(a < 100 and b < 100 for a, b, _ in results["ids"])


def test_incremental_auto_gate_picks_ids_above_ceiling(ray_session,
                                                       tmp_path):
    """auto band_exchange flips to the narrow ids plan when
    index+new exceeds the ceiling (here forced to 10 docs)."""
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )

    idx = str(tmp_path / "sigidx_gate")
    write_signature_index(_mk_corpus(BASE), idx)
    df = minhash_lsh_pairs_incremental(
        _mk_corpus([BASE[2], "fresh unique text qq"], start_id=100),
        idx, threshold=0.8,
        auto_signatures_max_docs=10).to_pandas()
    got = {tuple(r) for r in df[["doc_a", "doc_b"]].itertuples(
        index=False)}
    assert (2, 100) in got
    assert all(b >= 100 for _, b in got)


def test_append_requires_existing_index(ray_session, tmp_path):
    import pytest

    from gumbo_pp_ray.stages.incremental import append_signature_index

    with pytest.raises(FileNotFoundError):
        append_signature_index(_mk_corpus(["x"]),
                               str(tmp_path / "nope"))


def test_reindexed_doc_new_signature_wins(ray_session, tmp_path):
    """A doc_id present in BOTH the index (old text) and the new shard
    (changed text) must be verified against its NEW signature in both
    plans (round-4 ADVICE: the ids plan attached whichever signature
    index_in found first, breaking mode equivalence)."""
    from gumbo_pp_ray.stages.incremental import (
        minhash_lsh_pairs_incremental, write_signature_index,
    )

    idx = str(tmp_path / "sigidx")
    # index: doc 5's OLD text is a dup of doc 3; docs 0..9 otherwise
    # unique
    write_signature_index(_mk_corpus(BASE[:10]), idx)

    # new shard re-indexes doc 5 with COMPLETELY different text that
    # now duplicates new doc 100
    changed = "rewritten payload after edit shared with the new doc y"
    import ray.data
    new_ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([5, 100], pa.int64()),
        "text": [changed, changed],
    }))

    results = {}
    for mode in ("signatures", "ids"):
        pairs = minhash_lsh_pairs_incremental(
            new_ds, idx, threshold=0.8,
            num_partitions=4, band_exchange=mode).to_pandas()
        results[mode] = {tuple(r) for r in
                         pairs[["doc_a", "doc_b"]].itertuples(index=False)}
    # both plans: the re-indexed doc pairs with its new twin, and its
    # OLD signature no longer produces (3, 5)
    assert results["signatures"] == results["ids"]
    assert (5, 100) in results["ids"]
    assert (3, 5) not in results["ids"]


def test_incremental_bucket_reducer_star_overflow_unit():
    """Hot-run policy under is_new (pure unit, no Ray): all-pairs over
    the first HOT_BUCKET_CAP id-sorted members keep only new|new or
    new|old pairs; overflow members star-link to the run-minimum hub
    ONLY when the overflow member is new.  Checked against a brute
    reference over a mixed new/old run larger than the cap."""
    import numpy as np

    from gumbo_pp_ray.stages.dedup import HOT_BUCKET_CAP
    from gumbo_pp_ray.stages.incremental import (
        bucket_candidate_ids_incremental,
    )

    n = HOT_BUCKET_CAP + 20
    ids = np.arange(n, dtype=np.int64)
    newf = (ids % 3 == 0)                      # mixed, hub (id 0) new
    g = pa.table({
        "band_key": pa.array(np.zeros(n, dtype=np.int64)),
        "doc_id": pa.array(ids),
        "is_new": pa.array(newf.astype(np.int8)),
    })
    out = bucket_candidate_ids_incremental(g)
    got = set(zip(out.column("doc_a").to_pylist(),
                  out.column("doc_b").to_pylist()))
    want = set()
    for i in range(HOT_BUCKET_CAP - 1):
        for j in range(i + 1, HOT_BUCKET_CAP):
            if newf[i] or newf[j]:
                want.add((i, j))
    for j in range(HOT_BUCKET_CAP, n):
        if newf[j]:                            # only NEW overflow links
            want.add((0, j))
    assert got == want
    # old-old pairs never appear
    assert not any(not newf[a] and not newf[b] for a, b in got)


def test_sorted_runs_newwins_collapse_unit():
    """Duplicate (band_key, doc_id) rows collapse to ONE row and the
    NEW row's signature is the one verification sees (re-indexed doc:
    its new text's signature must drive the estimate)."""
    from gumbo_pp_ray.stages.dedup import bucket_candidate_pairs

    sig_old = [1] * 8
    sig_new = [2] * 8
    sig_match = [2] * 8
    g = pa.table({
        "band_key": pa.array([7, 7, 7], pa.int64()),
        "doc_id": pa.array([5, 5, 9], pa.int64()),
        "signature": pa.array([sig_old, sig_new, sig_match],
                              pa.list_(pa.int64())),
        # doc 5 appears as OLD (index) and NEW (re-indexed); doc 9 new
        "is_new": pa.array([0, 1, 1], pa.int8()),
    })
    out = bucket_candidate_pairs(g, threshold=0.5)
    rows = out.to_pylist()
    # with the NEW signature for doc 5, (5, 9) agrees on every slot;
    # with the old one the estimate would be 0 and the pair dropped
    assert rows == [{"doc_a": 5, "doc_b": 9, "jaccard_est_milli": 1000}]
