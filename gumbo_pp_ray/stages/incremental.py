"""Incremental near-dup: dedup a NEW shard against a persisted
signature index, never recomputing the existing corpus.

At 100 TB, the corpus's MinHash signatures (~1-2% of corpus bytes at
128 perms) are the artifact you keep: ``write_signature_index`` runs
the signature stage once and writes a partitioned parquet index plus a
params sidecar; ``minhash_lsh_pairs_incremental`` computes signatures
for the new shard ONLY, unions its band rows with band rows derived
from the index, and emits candidate pairs where at least one side is
new — old-old pairs are suppressed by construction (the indexed corpus
was already deduped; re-emitting its internal pairs would be
output-sized noise).

Scale shape: mirrors stages/dedup.py's two plans, chosen by the same
cost gate (``band_exchange``):

* ``"signatures"`` — one band-key shuffle carrying signatures,
  verification in-bucket.  Right up to ~100k total docs (the measured
  crossover; see dedup.minhash_lsh_pairs).
* ``"ids"`` — band rows carry only (band_key, doc_id, is_new)
  (~17 B/doc vs bands x signature ≈ 16 KB/doc, a ~1000x narrower
  exchange); candidate pairs come out id-only and are verified by the
  same two bucketed co-group attaches as the main path — fully
  distributed, nothing pair-set-sized on the driver.  This is the
  shape an accreted multi-TB signature index actually needs: the
  index side streams from parquet TWICE (cheap column-pruned reads),
  never through a wide shuffle.

Old-old pair suppression happens at candidate generation in both
plans, so the verify stages are shared with the main path unchanged.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pyarrow as pa

from ..state.exchange import exchange, partitions_for
from ..state.sizing import row_count
from .dedup import (
    _attach_a_group, _attach_b_group, _candidate_id_filter,
    _cogroup_sig_rows, _cogroup_verify, _distinct_pairs,
    bucket_candidate_ids, bucket_candidate_pairs, lsh_bands,
    minhash_signatures,
)

_PARAMS_FILE = "_index_params.json"


def write_signature_index(ds, index_dir: str, *, num_perm: int = 128,
                          shingle_words: int = 3, seed: int = 42) -> dict:
    """documents Dataset → parquet signature index at ``index_dir``
    (columns: doc_id, signature) + a params sidecar that
    ``minhash_lsh_pairs_incremental`` validates against — a signature
    computed with different perms/shingles/seed is not comparable, so
    a mismatch must fail loudly, not degrade recall silently."""
    sigs = ds.map_batches(
        functools.partial(minhash_signatures, num_perm=num_perm,
                          shingle_words=shingle_words, seed=seed),
        batch_format="pyarrow")
    sigs.write_parquet(index_dir)
    params = {"num_perm": num_perm, "shingle_words": shingle_words,
              "seed": seed}
    with open(os.path.join(index_dir, _PARAMS_FILE), "w") as f:
        json.dump(params, f)
    return params


def read_index_params(index_dir: str) -> dict:
    with open(os.path.join(index_dir, _PARAMS_FILE)) as f:
        return json.load(f)


def append_signature_index(ds, index_dir: str) -> dict:
    """Accrete a new shard's signatures into an EXISTING index — the
    ingest loop's commit step after the shard has been deduped against
    the corpus.  Hash params are read from the sidecar (never passed
    in), so an accreted index can never silently mix incomparable
    signatures; the shard's parquet files land beside the prior
    generations' (Ray writes unique filenames — no rewrite of old
    data, which at 100 TB is the difference between appending ~1-2%
    and rewriting everything)."""
    params = read_index_params(index_dir)
    sigs = ds.map_batches(
        functools.partial(minhash_signatures,
                          num_perm=params["num_perm"],
                          shingle_words=params["shingle_words"],
                          seed=params["seed"]),
        batch_format="pyarrow")
    sigs.write_parquet(index_dir)
    return params


def bucket_candidate_pairs_incremental(group: pa.Table, *,
                                       threshold: float) -> pa.Table:
    """One coarse bucket of flagged band rows: verify every NEW member
    against all run members (new-new pairs once via doc_a < doc_b;
    new-old always; old-old never).  Shared is_new-aware vectorized
    core (dedup.bucket_candidate_pairs): hot runs capped at
    HOT_BUCKET_CAP id-sorted members plus the run minimum as a star
    hub, duplicate (band_key, doc_id) rows collapse new-wins."""
    return bucket_candidate_pairs(group, threshold=threshold)


def bucket_candidate_ids_incremental(group: pa.Table) -> pa.Table:
    """Id-only flavor of bucket_candidate_pairs_incremental: candidate
    pairs where at least one side is NEW, same recall policy, no
    similarity yet (verification happens after the signatures are
    joined back)."""
    return bucket_candidate_ids(group)


def _newwins_sig_dedupe(group: pa.Table) -> pa.Table:
    """Per-bucket pre-step for the ids plan's attach stages: when the
    same doc_id has a signature on BOTH sides (caller re-indexed a doc
    whose text changed), keep the NEW one — matching
    bucket_candidate_pairs_incremental's "is_new wins" rule so the two
    plans stay equivalent (round-4 ADVICE).  The sig rows' otherwise-
    unused ``other`` slot carries the flag (1=new, 0=index); colliding
    doc_ids always hash to the same bucket, so the dedupe is local."""
    import pyarrow.compute as pc
    src = group.column("src")
    sig_mask = pc.equal(src, 0)
    sig_rows = group.filter(sig_mask)
    n = sig_rows.num_rows
    if n <= 1:
        return group
    ids = sig_rows.column("doc_id").to_numpy(zero_copy_only=False)
    pref = sig_rows.column("other").to_numpy(zero_copy_only=False)
    order = np.lexsort((-pref, ids))        # by id, new first
    ids_s = ids[order]
    first = np.ones(n, dtype=bool)
    first[1:] = ids_s[1:] != ids_s[:-1]
    if first.all():
        return group
    sig_rows = sig_rows.take(pa.array(order[first], pa.int64()))
    rest = group.filter(pc.invert(sig_mask))
    return pa.concat_tables([sig_rows, rest])


def _attach_a_group_newwins(group: pa.Table, *, num_buckets: int
                            ) -> pa.Table:
    return _attach_a_group(_newwins_sig_dedupe(group),
                           num_buckets=num_buckets)


def _attach_b_group_newwins(group: pa.Table, *, threshold: float
                            ) -> pa.Table:
    return _attach_b_group(_newwins_sig_dedupe(group),
                           threshold=threshold)


def minhash_lsh_pairs_incremental(new_ds, index_dir: str, *,
                                  bands: int = 16, rows: int = 8,
                                  threshold: float = 0.5,
                                  num_partitions: int | None = None,
                                  band_exchange: str = "auto",
                                  auto_signatures_max_docs: int = 100_000,
                                  new_count_hint: int | None = None):
    """Near-dup pairs (doc_a, doc_b, jaccard_est_milli) involving at
    least one NEW document: new-vs-index and new-vs-new; never
    index-vs-index.

    ``band_exchange`` follows dedup.minhash_lsh_pairs's cost gate:

    * ``"auto"`` — counts (index rows from the parquet footers; the
      new shard uses ``new_count_hint`` when given — an ingest loop
      just wrote the shard, so it knows — else
      ``state.sizing.row_count``: a parquet-read shard's footers, or
      the new signatures materialized once for the band stage to
      reuse): up to
      ``auto_signatures_max_docs`` total uses ``"signatures"``, above
      it ``"ids"``.
    * ``"signatures"`` — band rows carry signatures, in-bucket verify;
      one shuffle.
    * ``"ids"`` — band rows carry (band_key, doc_id, is_new) only
      (~1000x narrower exchange); candidates are verified by the main
      path's two bucketed co-group attaches, with the new shard's
      signatures materialized block-level and the index signatures
      streamed from parquet.

    Partitioning assumption: one band-key shuffle partition holds
    ~(index+new) x bands / num_partitions band rows; auto sizes
    num_partitions from the total doc count like the main path."""
    from ..sources.io import list_input_files, read_parquet_clean
    params = read_index_params(index_dir)
    if bands * rows > params["num_perm"]:
        raise ValueError(
            f"bands*rows = {bands * rows} exceeds index num_perm "
            f"{params['num_perm']}")
    if band_exchange not in ("auto", "signatures", "ids"):
        raise ValueError(f"unknown band_exchange: {band_exchange}")
    idx_files = list_input_files(index_dir)   # skips the _params sidecar
    idx_sigs_plain = read_parquet_clean(
        idx_files, columns=["doc_id", "signature"])
    new_sigs_plain = new_ds.map_batches(
        functools.partial(minhash_signatures,
                          num_perm=params["num_perm"],
                          shingle_words=params["shingle_words"],
                          seed=params["seed"]),
        batch_format="pyarrow")
    n_total = None
    if band_exchange == "auto" or num_partitions is None:
        # index rows from parquet FOOTERS (no read tasks); the new
        # shard's count from ``new_count_hint`` when the caller knows it
        # (an ingest loop just wrote the shard), else row_count: the
        # shard's own footers when it is a parquet read (nothing runs),
        # otherwise one materialize of its signatures that the band
        # stage reuses.  Skipped when the index alone exceeds the
        # ceiling.  Measured for a lazy shard (20k-doc index + 8k-doc
        # new shard, signatures plan, 4 CPUs, 6 runs a side) against
        # ``new_ds.count()``, which ran the shard's upstream twice:
        # the upstream now runs once and the median wall fell
        # 5.22 → 4.87 s.
        import pyarrow.parquet as pq
        n_total = sum(pq.ParquetFile(f).metadata.num_rows
                      for f in idx_files)
        if n_total <= auto_signatures_max_docs or num_partitions is None:
            if new_count_hint is None:
                new_sigs_plain, new_count_hint = row_count(
                    new_ds, "minhash_lsh_pairs_incremental",
                    new_sigs_plain)
            n_total += new_count_hint
        if band_exchange == "auto":
            band_exchange = ("signatures"
                             if n_total <= auto_signatures_max_docs
                             else "ids")
        if num_partitions is None:
            num_partitions = partitions_for(n_total, 10_000)
    carry = band_exchange == "signatures"
    if not carry:
        # ids plan consumes the new signatures twice (band rows +
        # verify); materialize block-level so the stage runs once
        new_sigs_plain = new_sigs_plain.materialize()

    num_buckets = (max(64, 8 * num_partitions) if n_total is None else
                   partitions_for(n_total * bands, 100_000, floor=64,
                                  cap=1 << 20))

    def bands_flagged(batch: pa.Table, *, is_new: int) -> pa.Table:
        rows_t = lsh_bands(batch, bands=bands, rows=rows,
                           carry_signature=carry,
                           num_buckets=num_buckets)
        # lsh_bands emits ``bands`` rows per input row, in input order
        return rows_t.append_column("is_new", pa.array(
            np.full(rows_t.num_rows, is_new, dtype=np.int8)))

    bandrows = new_sigs_plain.map_batches(
        functools.partial(bands_flagged, is_new=1),
        batch_format="pyarrow").union(idx_sigs_plain.map_batches(
            functools.partial(bands_flagged, is_new=0),
            batch_format="pyarrow"))
    if carry:
        pairs = exchange(
            bandrows,
            functools.partial(bucket_candidate_pairs_incremental,
                              threshold=threshold),
            num_partitions=num_partitions, n_rows=n_total)
        return _distinct_pairs(pairs, ("jaccard_est_milli",))

    # ids plan: narrow candidate generation + the main path's
    # co-group verification (dedup._cogroup_verify) over new ∪ index
    # sigs.
    # Sig rows carry a new/index flag in their unused ``other`` slot so
    # the attach stages can keep the NEW signature when a re-indexed
    # doc_id appears on both sides (see _newwins_sig_dedupe).
    cand = exchange(bandrows, bucket_candidate_ids_incremental,
                    num_partitions=num_partitions, n_rows=n_total)
    # cost-gated semi-join: only candidates' signatures need to ride
    # the two attach exchanges (dedup._candidate_id_filter) — applied
    # to BOTH sides, which for the index means most of its parquet
    # signature bytes never enter the shuffle at all
    cand, _keep = _candidate_id_filter(cand)
    if _keep is not None:
        new_sigs_plain = new_sigs_plain.map_batches(
            _keep, batch_format="pyarrow")
        idx_sigs_plain = idx_sigs_plain.map_batches(
            _keep, batch_format="pyarrow")

    def sig_rows_flagged(batch: pa.Table, *, is_new: int) -> pa.Table:
        rows_t = _cogroup_sig_rows(batch, num_buckets=num_partitions)
        i = rows_t.schema.get_field_index("other")
        return rows_t.set_column(
            i, "other", pa.array(np.full(len(rows_t), is_new,
                                         dtype=np.int64)))

    sig_rows = new_sigs_plain.map_batches(
        functools.partial(sig_rows_flagged, is_new=1),
        batch_format="pyarrow").union(idx_sigs_plain.map_batches(
            functools.partial(sig_rows_flagged, is_new=0),
            batch_format="pyarrow"))
    return _cogroup_verify(sig_rows, cand, num_partitions=num_partitions,
                           sig_width=params["num_perm"] * 8,
                           threshold=threshold,
                           attach_a=_attach_a_group_newwins,
                           attach_b=_attach_b_group_newwins)
