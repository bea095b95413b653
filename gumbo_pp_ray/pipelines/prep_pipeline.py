"""End-to-end training-corpus preparation — the composition the
individual operators exist FOR: quality filter → benchmark
decontamination → exact dedup → per-doc token accounting, as one
streaming Dataset pipeline.

Shape: ONE fused map over the documents (quality score, contamination
count, content hash and token count computed together — the text is
read once and never re-shipped between stages), a vectorized Arrow
filter, then a single ``groupby(content_hash)`` shuffle that keeps
each duplicate group's minimum doc_id.  The exchange carries
(hash, doc_id, n_tokens) — never text.

Every step is integer/deterministic, so the WHOLE pipeline has one
exact DuckDB oracle (see __ray_entry__ ``corpus_prep``).
"""

from __future__ import annotations

import functools
import hashlib
import re

import pyarrow as pa

from ..state.broadcast import broadcast_state

_ALPHA = re.compile(r"[A-Za-z]")


def _prep_stats_batch(batch: pa.Table, *, bench_ref, n: int) -> pa.Table:
    """Fused per-doc stats: quality_milli (same integer formula as
    text_analysis.QualityScore), contamination count against the
    broadcast benchmark n-gram set (built once per worker), md5
    content hash, token count."""
    bench = broadcast_state(frozenset, bench_ref)
    texts = batch.column("text").to_pylist()
    quality, contam, hashes, n_tokens = [], [], [], []
    for t in texts:
        toks = t.split()
        nt, nu = len(toks), len(set(toks))
        nc, na = len(t), len(_ALPHA.findall(t))
        quality.append(400 * min(nt, 200) // 200
                       + 300 * nu // max(nt, 1)
                       + 300 * na // max(nc, 1))
        grams = {" ".join(toks[i:i + n])
                 for i in range(len(toks) - n + 1)}
        contam.append(len(grams & bench))
        hashes.append(hashlib.md5(t.encode("utf-8")).hexdigest())
        n_tokens.append(nt)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "content_hash": pa.array(hashes, pa.string()),
        "quality_milli": pa.array(quality, pa.int64()),
        "n_contaminated": pa.array(contam, pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
    })


def _keep_min_bucket(group: pa.Table) -> pa.Table:
    """One coarse bucket of (content_hash, doc_id, n_tokens) rows →
    the min-doc_id winner row per distinct hash, vectorized: byte-sort
    by (hash, doc_id), take the first row of each equal-hash run."""
    import numpy as np
    h = np.ascontiguousarray(group.column("content_hash")
                             .to_numpy(zero_copy_only=False).astype("S32"))
    ids = group.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, h))
    h_s = h[order]
    first = np.flatnonzero(
        np.concatenate(([True], h_s[1:] != h_s[:-1])))
    rows = group.take(pa.array(order[first], pa.int64()))
    return pa.table({"doc_id": rows.column("doc_id"),
                     "n_tokens": rows.column("n_tokens")})


def prep_training_corpus(ds, bench_ref, *, min_quality_milli: int = 500,
                         ngram: int = 3,
                         num_partitions: int | None = None,
                         num_buckets: int | None = None):
    """documents Dataset + broadcast benchmark n-gram set →
    (doc_id, n_tokens) of the surviving corpus: quality ≥ threshold,
    zero benchmark overlap, exact-dup groups reduced to their minimum
    doc_id.

    The dedup shuffle groups on a COARSE hash bucket and resolves
    winners vectorized inside — same shape as stages/dedup.py's
    exact_dedup and sized by the same ``size_exact_exchange``, never a
    Python call per distinct hash."""
    from ..stages.dedup import size_exact_exchange
    from ..state.exchange import digest_buckets, exchange
    stats = ds.map_batches(
        functools.partial(_prep_stats_batch, bench_ref=bench_ref, n=ngram),
        batch_format="pyarrow")
    stats, n, num_buckets, num_partitions = size_exact_exchange(
        ds, stats, "prep_training_corpus", num_buckets, num_partitions)
    ok = stats.filter(
        expr=f"quality_milli >= {int(min_quality_milli)} "
             f"and n_contaminated == 0")

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("bucket", pa.array(digest_buckets(
            batch.column("content_hash"), num_buckets)))

    return exchange(ok.map_batches(add_bucket, batch_format="pyarrow"),
                    _keep_min_bucket, num_partitions=num_partitions,
                    n_rows=n)
