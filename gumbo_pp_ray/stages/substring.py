"""Substring-level exact deduplication — remove duplicated token
k-grams corpus-wide, keeping each duplicated passage's globally-first
occurrence (public design: Lee et al., "Deduplicating Training Data
Makes Language Models Better", ACL 2022, which removes duplicated
byte spans via one corpus-wide suffix array; this engine's equivalent
is a distributed token-k-gram hash exchange — the shape that scales
out instead of up).

Semantics (deterministic, SQL-reproducible — see the
``substring_dedup`` oracle in ``__ray_entry__.py``): a token k-gram
occurring more than once in the corpus keeps only its
(doc_id, pos)-minimal occurrence; every other occurrence's k token
positions are removed from their documents.  Overlapping duplicated
grams union their covered positions.  Docs shorter than k tokens are
untouched.

Distributed shape — two key-partitioned exchanges, nothing
driver-side, all per-bucket work vectorized:

1. **gram emit** (map_batches): each doc row emits
   (gram_key: 16-byte md5, doc_id, pos) — ~28 B/token, the inherent
   exchange cost of substring dedup (the centralized original pays a
   corpus-sized suffix array instead).  The full 128-bit key keeps
   false-collision removals negligible even at 10^12 grams.
2. **bucket reduce** (``state.exchange``, bucket = the gram key's
   digest bytes): per bucket, ONE Arrow
   sort by (gram_key, doc_id, pos) + a shifted-equality mask finds
   every non-first occurrence — work linear in bucket size, so hot
   grams (boilerplate phrases) cost their occurrence count, not a
   quadratic blowup.  Covered positions are exploded with numpy
   repeat/tile and deduplicated per bucket before the exchange.
3. **reassembly co-group** (union tagged doc + removal rows →
   exchange by doc bucket): rebuild each doc skipping its
   removed positions (string work is per-doc by nature; the removal
   sets are materialized vectorized).

Partitioning assumptions: stage 2 needs all occurrences of one gram
in one group (hash partition by gram_key); stage 3 needs one doc's
removals co-located with its text (hash partition by doc_id).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.exchange import digest_buckets, exchange, key_buckets

_EMPTY_REMOVALS = pa.table({
    "doc_id": pa.array([], pa.int64()),
    "rpos": pa.array([], pa.int64()),
})


# Tokenization contract: tokens are ``str.split()`` (Python/Unicode
# whitespace).  The DuckDB oracle splits on RE2 '\s+' (ASCII); the
# two agree on ASCII-whitespace corpora (all driver test data).  On
# crawl text containing exotic whitespace (NBSP, U+2028, ...) the
# engine treats it as a separator where SQL would not — the engine's
# behavior is the intended one for training-data hygiene.


def _gram_occurrences(batch: pa.Table, *, k: int,
                      num_partitions: int) -> pa.Table:
    """(doc_id, text) rows → one (bucket, gram_key, doc_id, pos) row
    per token k-gram occurrence."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    keys: list[bytes] = []
    docs: list[int] = []
    poss: list[int] = []
    for did, s in zip(ids, texts):
        toks = s.split()
        for i in range(len(toks) - k + 1):
            g = " ".join(toks[i:i + k])
            keys.append(hashlib.md5(g.encode("utf-8")).digest())
            docs.append(did)
            poss.append(i)
    gram_key = pa.array(keys, pa.binary(16))
    return pa.table({
        "bucket": pa.array(digest_buckets(gram_key, num_partitions)),
        "gram_key": gram_key,
        "doc_id": pa.array(docs, pa.int64()),
        "pos": pa.array(poss, pa.int64()),
    })


def _bucket_removals(group: pa.Table, *, k: int) -> pa.Table:
    """One gram bucket → distinct covered (doc_id, rpos) removal
    positions for every non-first occurrence of a duplicated gram.
    Vectorized: one sort + shifted key equality + repeat/tile."""
    if group.num_rows < 2:
        return _EMPTY_REMOVALS
    g = group.sort_by([("gram_key", "ascending"),
                       ("doc_id", "ascending"), ("pos", "ascending")])
    keys = g.column("gram_key").combine_chunks()
    # row i is a non-first occurrence iff key[i] == key[i-1]
    dup_mask = np.concatenate((
        [False],
        pc.equal(keys.slice(1), keys.slice(0, len(keys) - 1))
        .to_numpy(zero_copy_only=False),
    ))
    if not dup_mask.any():
        return _EMPTY_REMOVALS
    docs = g.column("doc_id").to_numpy(zero_copy_only=False)[dup_mask]
    pos = g.column("pos").to_numpy(zero_copy_only=False)[dup_mask]
    # explode each occurrence into its k covered positions
    rdoc = np.repeat(docs, k)
    rpos = np.repeat(pos, k) + np.tile(np.arange(k, dtype=np.int64),
                                       len(pos))
    uniq = np.unique(np.stack([rdoc, rpos], axis=1), axis=0)
    return pa.table({
        "doc_id": pa.array(uniq[:, 0], pa.int64()),
        "rpos": pa.array(uniq[:, 1], pa.int64()),
    })


def _rebuild_docs(group: pa.Table) -> pa.Table:
    """One doc bucket of union-tagged rows (is_doc=1 carries text,
    is_doc=0 carries a removal position) → cleaned docs."""
    is_doc = group.column("is_doc").to_numpy(zero_copy_only=False) == 1
    docs_t = group.filter(pa.array(is_doc))
    rem_t = group.filter(pa.array(~is_doc))
    rdocs = rem_t.column("doc_id").to_numpy(zero_copy_only=False)
    rpos = rem_t.column("rpos").to_numpy(zero_copy_only=False)
    return _apply_removals(docs_t, rdocs, rpos)


def _apply_removals(docs_t: pa.Table, rdocs: np.ndarray,
                    rpos: np.ndarray, *,
                    presorted: bool = False) -> pa.Table:
    """Docs table + (doc_id, rpos) removal arrays → cleaned docs.
    Shared by both reassembly plans.  ``presorted=True`` skips the
    lexsort when the arrays were sorted once at broadcast time
    (re-sorting up to 4M rows per doc BATCH dominated the broadcast
    plan's per-batch cost).  Docs with NO removals pass through
    byte-identical — the stage never rewrites whitespace it did not
    touch; rebuilt (touched) docs are single-space token joins."""
    if not presorted:
        order = np.lexsort((rpos, rdocs))
        rdocs, rpos = rdocs[order], rpos[order]
    dids = docs_t.column("doc_id").to_numpy(zero_copy_only=False)
    starts = np.searchsorted(rdocs, dids, side="left")
    ends = np.searchsorted(rdocs, dids, side="right")
    out_id, out_text, out_in, out_rm = [], [], [], []
    texts = docs_t.column("text").to_pylist()
    ids = docs_t.column("doc_id").to_pylist()
    for did, s, a, b in zip(ids, texts, starts, ends):
        toks = s.split()
        removed = rpos[a:b]
        if len(removed):
            keep = np.ones(len(toks), dtype=bool)
            keep[removed] = False          # dedupes repeated positions
            text_out = " ".join(
                t for t, m in zip(toks, keep) if m)
            n_rm = int((~keep).sum())
        else:
            text_out = s                  # untouched: byte-identical
            n_rm = 0
        out_id.append(did)
        out_text.append(text_out)
        out_in.append(len(toks))
        out_rm.append(n_rm)
    return pa.table({
        "doc_id": pa.array(out_id, pa.int64()),
        "text": pa.array(out_text, pa.string()),
        "n_tokens_in": pa.array(out_in, pa.int64()),
        "n_removed": pa.array(out_rm, pa.int64()),
    })


class _BroadcastRebuild:
    """Broadcast-plan reassembly actor: the full removal set is
    fetched ONCE per actor as two sorted numpy columns; each doc
    batch is cleaned with vectorized searchsorted slicing."""

    def __init__(self, removals_ref):
        import ray
        rdocs, rpos = ray.get(removals_ref)
        self.rdocs = rdocs
        self.rpos = rpos

    def __call__(self, batch: pa.Table) -> pa.Table:
        docs_t = pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "text": batch.column("text"),
        })
        return _apply_removals(docs_t, self.rdocs, self.rpos,
                               presorted=True)


def substring_dedup(ds, *, k: int = 8, num_partitions: int = 16,
                    plan: str = "auto",
                    broadcast_max_removals: int = 4_000_000,
                    concurrency=None):
    """Dataset(doc_id, text) → Dataset(doc_id, text, n_tokens_in,
    n_removed) with every duplicated token k-gram reduced to its
    globally-first occurrence.

    ``plan`` picks the reassembly exchange (cost-based like
    stages/dedup.py / stages/graph.py):

    * ``"auto"``: ``"broadcast"`` when the removal-position count is
      at most ``broadcast_max_removals`` (≈64 MB of two int64
      columns — the same 4M bound as graph.connected_components'
      label broadcast), else ``"cogroup"``.  The count is read from
      the materialized removal blocks' metadata, not a second pass.
    * ``"broadcast"``: removals shipped ONCE via ``ray.put`` to a
      rebuild actor pool; docs flow through a pure map — no third
      shuffle.  The fast path for lightly-duplicated corpora.
    * ``"cogroup"``: union-tagged docs + removals hash-partitioned by
      doc_id — never materializes the removal set anywhere central;
      the only shape that survives duplication-heavy crawls at
      10^12 tokens (30-50% duplicated content ⇒ removal rows on the
      order of the corpus)."""
    removals = substring_removals(ds, k=k,
                                  num_partitions=num_partitions)
    return substring_rebuild(
        ds, removals, plan=plan,
        broadcast_max_removals=broadcast_max_removals,
        num_partitions=num_partitions, concurrency=concurrency)


def substring_removals(ds, *, k: int = 8, num_partitions: int = 16):
    """Stage 1+2 alone: Dataset(doc_id, text) → (doc_id, rpos)
    removal positions.  Exposed so several reassembly plans (or an
    audit that only wants the removal mass) can share ONE gram
    exchange."""
    import functools

    grams = ds.map_batches(
        functools.partial(_gram_occurrences, k=k,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    return exchange(grams, functools.partial(_bucket_removals, k=k),
                    num_partitions=num_partitions)


def substring_rebuild(ds, removals, *, plan: str = "auto",
                      broadcast_max_removals: int = 4_000_000,
                      num_partitions: int = 16, concurrency=None):
    """Stage 3 alone: apply a removal set to the docs under the
    chosen exchange plan (see ``substring_dedup``)."""
    import ray

    if plan not in ("auto", "broadcast", "cogroup"):
        raise ValueError(f"unknown plan: {plan!r}")
    if plan != "cogroup":
        removals = removals.materialize()
    if plan == "auto":
        plan = ("broadcast"
                if removals.count() <= broadcast_max_removals
                else "cogroup")
    if plan == "broadcast":
        batches = list(removals.iter_batches(batch_format="pyarrow",
                                             batch_size=None))
        rem_t = (pa.concat_tables(batches, promote_options="default")
                 if batches else _EMPTY_REMOVALS)
        rdocs = rem_t.column("doc_id").to_numpy(zero_copy_only=False)
        rpos = rem_t.column("rpos").to_numpy(zero_copy_only=False)
        order = np.lexsort((rpos, rdocs))   # sort ONCE, before the put
        ref = ray.put((np.ascontiguousarray(rdocs[order]),
                       np.ascontiguousarray(rpos[order])))
        if concurrency is None:
            from ..state.sizing import default_concurrency
            concurrency = default_concurrency()
        return ds.map_batches(
            _BroadcastRebuild,
            fn_constructor_kwargs={"removals_ref": ref},
            batch_format="pyarrow", concurrency=concurrency)

    def tag_docs(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": t.column("text"),
            "rpos": pa.array([-1] * len(t), pa.int64()),
            "is_doc": pa.array([1] * len(t), pa.int64()),
        })

    def tag_removals(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "text": pa.array([""] * len(t), pa.string()),
            "rpos": t.column("rpos"),
            "is_doc": pa.array([0] * len(t), pa.int64()),
        })

    def add_doc_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("dbucket", pa.array(key_buckets(
            t.column("doc_id"), num_buckets=num_partitions)))

    tagged = (ds.map_batches(tag_docs, batch_format="pyarrow")
              .union(removals.map_batches(tag_removals,
                                          batch_format="pyarrow"))
              .map_batches(add_doc_bucket, batch_format="pyarrow"))
    return exchange(tagged, _rebuild_docs, key="dbucket",
                    num_partitions=num_partitions)
