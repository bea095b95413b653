"""The extraction kernel — the engine's hot stage.

``ExtractSpans`` builds the compiled profile (strip-set + tag dispatch)
once in ``__init__`` and runs ``__call__`` per Arrow batch. Ray runs it
as a TASK stage, ``map_batches(extract_batch, fn_kwargs={"run": token,
...})``, on already-warm workers: no actor start-up per job (a fresh
process importing ``ray.data``, 0.6-1.6 s on a 4-CPU box). A worker
keeps only the ``ExtractSpans`` of the run token it last served, so
the profile and the payload cache live for one ``extract_dataset``
call, as an actor's did; nothing carries into the next run.

Per-row robustness (SURVEY.md §4.2 poison documents): parse + extract
are wrapped per row; a pathological document yields a
``status="error"`` quarantine row with empty spans — a batch NEVER
fails, so Ray task retries stay safe and idempotent.

Fused assembly: the span→payload concatenation happens inside the
task, so multi-MB HTML strings never cross an object-store boundary.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from ..html.extract import DEFAULT_PROFILE, ExtractProfile, extract_spans
from ..html.parser import parse, release


class ExtractSpans:
    """parse → select → strip → emit ordered spans, per document row."""

    def __init__(self, profile: ExtractProfile | None = None,
                 max_doc_bytes: int | None = 256 * 1024 * 1024,
                 chunk_spans: int | None = None,
                 cache_size: int = 256):
        # once per run: compiled strip set / kind dispatch
        self.profile = profile or DEFAULT_PROFILE
        # quarantines pathological byte-bombs instead of OOMing the
        # worker (status="oversize"); chunk_spans cannot bound a
        # single-span payload
        self.max_doc_bytes = max_doc_bytes
        # in-kernel mega-doc chunking: a doc with more than chunk_spans
        # input spans is assembled + parsed one span-slice at a time
        # (each slice a self-contained fragment per the
        # interleaved-table contract), bounding peak memory to one
        # chunk's DOM instead of the whole mega-doc; None parses the
        # whole document at once
        self.chunk_spans = chunk_spans
        # exact-duplicate payload cache (web corpora repeat whole
        # documents — mirrors, retries, boilerplate pages): payload
        # md5 → extracted result, per run, cleared when full.
        # Deterministic extraction makes reuse safe; doc_id and
        # counters stay per-row.
        self._cache_size = max(0, cache_size)
        self._cache: dict = {}
        self.cache_hits = 0

    def _extract(self, seg: list[str]):
        """Parse + extract one document's payload → ``(kinds, texts,
        media_refs, parse_errors)``; a payload of more than
        ``chunk_spans`` input spans is parsed one slice at a time."""
        chunk = self.chunk_spans
        step = chunk if (chunk and len(seg) > chunk) else len(seg) or 1
        spans: list = []
        errs = 0
        for j in range(0, len(seg), step):
            doc = parse("".join(seg[j:j + step]))
            errs += doc.parse_errors
            spans += extract_spans(doc, self.profile)
            # cut the tree's parent/child cycles so it is freed by
            # refcount here, not later by the cyclic GC
            release(doc)
        if not spans:
            return (), (), (), errs
        kinds, texts, refs, _offsets = zip(*spans)
        return kinds, texts, refs, errs

    def __call__(self, batch: pa.Table) -> pa.Table:
        max_bytes = self.max_doc_bytes
        chunk = self.chunk_spans
        doc_ids = batch.column("doc_id").to_pylist()
        names = batch.schema.names
        # optional upstream-corruption marker (sources/warc.py error
        # rows): non-null → quarantine directly, same status="error"
        # contract as a poison parse — never dropped, never parsed
        ierr = (batch.column("input_error").to_pylist()
                if "input_error" in names else None)

        col = batch.column("spans")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        texts = col.values.field("text").to_pylist()
        offs = col.values.field("offset").to_numpy(zero_copy_only=False)
        row_offsets = col.offsets.to_numpy(zero_copy_only=False)
        # rows whose span offsets are out of order, found once per
        # batch: a descent between neighbours (``not <=``, so a null
        # offset counts too) that is not at a row boundary
        base, end = int(row_offsets[0]), int(row_offsets[-1])
        o = offs[base:end]
        desc = np.flatnonzero(~(o[:-1] <= o[1:])) + (base + 1)
        desc = desc[~np.isin(desc, row_offsets)]
        unsorted = set((np.searchsorted(row_offsets, desc, side="right")
                        - 1).tolist())

        # flat columnar output accumulators — the spans list<struct>
        # column is assembled from four flat arrays + list offsets
        # (ListArray.from_arrays), never per-span Python dicts: dict
        # building was the allocation hot spot that capped aggregate
        # throughput under a full worker pool (memory pressure, not CPU)
        f_kind: list[str] = []
        f_text: list[str] = []
        f_ref: list[str] = []
        statuses, n_errs, n_spans, n_bytes = [], [], [], []

        def quarantine(status: str, nbytes: int):
            statuses.append(status)
            n_errs.append(-1)
            n_spans.append(0)
            n_bytes.append(nbytes)

        cache = self._cache
        for i in range(len(doc_ids)):
            if ierr is not None and ierr[i] is not None:
                quarantine("error", 0)
                continue
            lo, hi = int(row_offsets[i]), int(row_offsets[i + 1])
            if i in unsorted:                 # rare: enforce order
                order = np.argsort(offs[lo:hi], kind="stable")
                seg = [texts[lo + j] for j in order]
            else:
                seg = texts[lo:hi]
            if None in seg:
                # corrupt shard: a null span text must quarantine the
                # ROW, never crash the batch (the documented contract)
                seg = [s if s is not None else "" for s in seg]
            # cheap code-point total first; UTF-8 can be up to 4x the
            # code points, so only docs within 4x of the cap pay the
            # exact byte count — the byte-bomb guard must measure
            # BYTES or a 250M-char CJK page slips under a 256MB cap
            total_bytes = sum(map(len, seg))
            if max_bytes is not None and total_bytes * 4 > max_bytes:
                total_bytes = sum(
                    len(s.encode("utf-8", "surrogatepass"))
                    for s in seg)
            if max_bytes is not None and total_bytes > max_bytes:
                quarantine("oversize", total_bytes)
                continue
            try:
                ckey = hit = None
                # only payloads the cache can STORE (< 1 MiB) are
                # worth keying — hashing a 100 MB doc for a
                # guaranteed miss costs ~100 ms in the hot stage
                if self._cache_size and total_bytes < 1 << 20:
                    # the key folds in the span STRUCTURE (count, each
                    # segment's length) and the chunking step, not
                    # just the concatenated text: two payloads with the
                    # same concatenation but different span boundaries
                    # can parse into different fragment groupings when
                    # chunk_spans slices them
                    h = hashlib.md5(struct.pack(
                        f"<qq{len(seg)}q", len(seg), chunk or -1,
                        *map(len, seg)))
                    h.update("".join(seg).encode("utf-8", "surrogatepass"))
                    ckey = h.digest()
                    hit = cache.get(ckey)
                if hit is not None:
                    self.cache_hits += 1
                else:
                    hit = self._extract(seg)
                    if ckey is not None:
                        if len(cache) >= self._cache_size:
                            cache.clear()
                        cache[ckey] = hit
            except Exception:           # poison row → quarantine, never raise
                quarantine("error", total_bytes)
                continue
            kinds, span_texts, refs, errs = hit
            f_kind.extend(kinds)
            f_text.extend(span_texts)
            f_ref.extend(refs)
            statuses.append("ok")
            n_errs.append(errs)
            n_spans.append(len(kinds))
            n_bytes.append(total_bytes)

        list_offsets = np.zeros(len(doc_ids) + 1, dtype=np.int32)
        list_offsets[1:] = np.cumsum(n_spans)
        # per-doc span offsets 0..n-1, vectorized
        total = int(list_offsets[-1])
        pos = np.arange(total, dtype=np.int32) - np.repeat(
            list_offsets[:-1].astype(np.int32), n_spans)
        values = pa.StructArray.from_arrays(
            [pa.array(f_kind, pa.string()),
             pa.array(f_text, pa.string()),
             pa.array(f_ref, pa.string()),
             pa.array(pos, pa.int32())],
            names=["kind", "text", "media_ref", "offset"])
        spans_arr = pa.ListArray.from_arrays(pa.array(list_offsets),
                                             values)

        return pa.table({
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": spans_arr,
            "status": pa.array(statuses, pa.string()),
            "n_parse_errors": pa.array(n_errs, pa.int64()),
            "n_spans": pa.array(n_spans, pa.int64()),
            "n_bytes_in": pa.array(n_bytes, pa.int64()),
        })


#: ``(run token, ExtractSpans)`` of the run this worker process last
#: served; a new token replaces it, so one extractor is held at a time.
_run_extractor: tuple | None = None


def extract_batch(batch: pa.Table, *, run: str, batch_size: int | None = None,
                  **extractor_kw):
    """Task-stage entry: yields ``ExtractSpans(**extractor_kw)`` over
    ``batch_size``-row slices of the task's rows (all at once when
    ``None``), through the worker's extractor for run token ``run``,
    built on its first batch of that run."""
    global _run_extractor
    if _run_extractor is None or _run_extractor[0] != run:
        _run_extractor = None       # free the old run's cache first
        _run_extractor = (run, ExtractSpans(**extractor_kw))
    step = batch_size or max(batch.num_rows, 1)
    for i in range(0, max(batch.num_rows, 1), step):
        yield _run_extractor[1](batch.slice(i, step))
