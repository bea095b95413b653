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
It happens without per-span Python strings: the spans of a row sit
next to each other in the text column's UTF-8 value buffer, so a row
whose spans are in offset order and not null is one byte slice
(``chunk_spans`` slices likewise), decoded once into the payload
``parse`` reads; the payload cache hashes those bytes and the span byte
lengths.  A row with out-of-order or null spans is first gathered span
by span in offset order.  Decoding happens per row inside the row's
``try``: parquet does not validate UTF-8, and a row that is not UTF-8
quarantines as ``status="error"``.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import accumulate

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

    def _extract(self, payloads: list[str]):
        """Parse + extract one document, given as its payload slices
        (one per ``chunk_spans`` input spans, or one for the whole
        document) → ``(kinds, texts, media_refs, parse_errors)``."""
        spans: list = []
        errs = 0
        for payload in payloads:
            doc = parse(payload)
            errs += doc.parse_errors
            spans += extract_spans(doc, self.profile)
            # cut the tree's parent/child cycles so it is freed by
            # refcount here, not later by the cyclic GC
            release(doc)
        if not spans:
            return (), (), (), errs
        kinds, texts, refs, _offsets = zip(*spans)
        return kinds, texts, refs, errs

    def _cache_key(self, n_spans: int, byte_lens: bytes, payload) -> bytes:
        """Payload cache key: the UTF-8 payload plus its span STRUCTURE
        (span count, each span's byte length) and the chunking step.
        Two payloads with the same concatenation but different span
        boundaries can parse into different fragment groupings when
        chunk_spans slices them."""
        h = hashlib.md5(struct.pack("<qq", n_spans, self.chunk_spans or -1))
        h.update(byte_lens)
        h.update(payload)
        return h.digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        max_bytes = self.max_doc_bytes
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
        text = col.values.field("text")
        voff, data = _utf8_buffers(text)
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
        # rows holding a null span text
        valid = None
        if text.null_count:
            valid = text.is_valid().to_numpy(zero_copy_only=False)
            unsorted.update((np.searchsorted(
                row_offsets, np.flatnonzero(~valid), side="right")
                - 1).tolist())
        starts = voff.tolist()

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
            n = hi - lo
            if i in unsorted:
                # rare: the spans gathered in offset order, a null
                # span read as ""
                order = np.argsort(offs[lo:hi], kind="stable") + lo
                raw = [data[starts[j]:starts[j + 1]]
                       if valid is None or valid[j] else b"" for j in order]
                lens = np.fromiter(map(len, raw), np.int64, n)
                buf, bounds = b"".join(raw), [0, *accumulate(lens.tolist())]
            else:
                # the spans are consecutive in the value buffer
                lens = np.diff(voff[lo:hi + 1])
                buf, bounds = data, starts[lo:hi + 1]
            a, z = bounds[0], bounds[n]
            if max_bytes is not None and z - a > max_bytes:
                quarantine("oversize", z - a)
                continue
            # n_bytes_in: code points when 4 bytes per code point stays
            # within max_doc_bytes, else UTF-8 bytes — the byte-bomb
            # guard must measure BYTES or a 250M-char CJK page slips
            # under a 256MB cap; UTF-8 bytes for a row that fails to
            # decode
            total_bytes = z - a
            try:
                # each payload slice decoded once, straight from the
                # bytes
                chunk = self.chunk_spans
                step = chunk if (chunk and n > chunk) else n or 1
                payloads = [str(buf[bounds[j]:bounds[min(j + step, n)]],
                                "utf-8") for j in range(0, n, step)]
                chars = sum(map(len, payloads))
                if max_bytes is None or chars * 4 <= max_bytes:
                    total_bytes = chars
                ckey = hit = None
                # only payloads the cache can STORE (< 1 MiB) are
                # worth keying — hashing a 100 MB doc for a
                # guaranteed miss costs ~100 ms in the hot stage
                if self._cache_size and total_bytes < 1 << 20:
                    ckey = self._cache_key(n, lens.astype("<i8").tobytes(),
                                           buf[a:z])
                    hit = cache.get(ckey)
                if hit is not None:
                    self.cache_hits += 1
                else:
                    hit = self._extract(payloads)
                    if ckey is not None:
                        if len(cache) >= self._cache_size:
                            cache.clear()
                        cache[ckey] = hit
            except Exception:           # poison row → quarantine, never raise
                # (invalid UTF-8 included: parquet does not validate it)
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


def _utf8_buffers(text: pa.Array):
    """A string array's value offsets (numpy, one more than its length)
    and its UTF-8 value buffer (a memoryview): span ``j``'s bytes are
    ``data[voff[j]:voff[j + 1]]``, and a row of consecutive spans is one
    contiguous slice."""
    if not (pa.types.is_string(text.type)
            or pa.types.is_large_string(text.type)):
        text = text.cast(pa.large_string())
    width = np.int64 if pa.types.is_large_string(text.type) else np.int32
    _, offsets, data = text.buffers()
    if offsets is None:
        voff = np.zeros(1, dtype=width)
    else:
        voff = np.frombuffer(offsets, dtype=width)[
            text.offset:text.offset + len(text) + 1]
    return voff, memoryview(data if data is not None else b"")


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
