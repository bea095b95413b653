"""The extraction actor — the engine's hot stage.

A callable CLASS for ``map_batches(ExtractSpans, batch_format="pyarrow",
concurrency=N, batch_size=B)``: the compiled extraction profile
(selector strip-set + tag dispatch tables) is built ONCE per actor in
``__init__`` (the stateful-actor-pool pattern the north rule names);
``__call__`` runs per Arrow batch.

Per-row robustness (SURVEY.md §4.2 poison documents): parse + extract
are wrapped per row; a pathological document yields a
``status="error"`` quarantine row with empty spans — a batch NEVER
fails, so Ray task retries stay safe and idempotent.

Fused assembly: the span→payload concatenation happens inside the
actor, so multi-MB HTML strings never cross an object-store boundary.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..html.extract import DEFAULT_PROFILE, ExtractProfile, extract_spans
from ..html.parser import parse


class ExtractSpans:
    """parse → select → strip → emit ordered spans, per document row."""

    def __init__(self, profile: ExtractProfile | None = None,
                 max_doc_bytes: int | None = 256 * 1024 * 1024,
                 chunk_spans: int | None = None,
                 cache_size: int = 256):
        # once per actor: compiled strip set / kind dispatch
        self.profile = profile or DEFAULT_PROFILE
        # quarantines pathological byte-bombs instead of OOMing the
        # actor (status="oversize"); chunk_spans cannot bound a
        # single-span payload
        self.max_doc_bytes = max_doc_bytes
        # in-actor mega-doc chunking: a doc with more than chunk_spans
        # input spans is assembled + parsed one span-slice at a time
        # (each slice a self-contained fragment per the
        # interleaved-table contract), bounding peak memory to one
        # chunk's DOM instead of the whole mega-doc; None parses the
        # whole document at once
        self.chunk_spans = chunk_spans
        # exact-duplicate payload cache (web corpora repeat whole
        # documents — mirrors, retries, boilerplate pages): payload
        # md5 → extracted result, per actor, cleared when full.
        # Deterministic extraction makes reuse safe; doc_id and
        # counters stay per-row.
        self._cache_size = max(0, cache_size)
        self._cache: dict = {}
        self.cache_hits = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        profile = self.profile
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

        # flat columnar output accumulators — the spans list<struct>
        # column is assembled from four flat arrays + list offsets
        # (ListArray.from_arrays), never per-span Python dicts: dict
        # building was the allocation hot spot that capped aggregate
        # throughput under a full actor pool (memory pressure, not CPU)
        f_kind: list[str] = []
        f_text: list[str] = []
        f_ref: list[str] = []
        statuses, n_errs, n_spans, n_bytes = [], [], [], []
        span_counts = np.empty(len(doc_ids), dtype=np.int64)

        for i in range(len(doc_ids)):
            if ierr is not None and ierr[i] is not None:
                span_counts[i] = 0
                statuses.append("error")
                n_errs.append(-1)
                n_spans.append(0)
                n_bytes.append(0)
                continue
            lo, hi = int(row_offsets[i]), int(row_offsets[i + 1])
            o = offs[lo:hi]
            if len(o) > 1 and not (o[:-1] <= o[1:]).all():
                order = np.argsort(o, kind="stable")  # rare: enforce order
                seg = [texts[lo + j] for j in order]
            else:
                seg = texts[lo:hi]
            if any(s is None for s in seg):
                # corrupt shard: a null span text must quarantine the
                # ROW, never crash the batch (the documented contract)
                seg = [s if s is not None else "" for s in seg]
            # cheap code-point total first; UTF-8 can be up to 4x the
            # code points, so only docs within 4x of the cap pay the
            # exact byte count — the byte-bomb guard must measure
            # BYTES or a 250M-char CJK page slips under a 256MB cap
            total_bytes = sum(len(s) for s in seg)
            if max_bytes is not None and total_bytes * 4 > max_bytes:
                total_bytes = sum(
                    len(s.encode("utf-8", "surrogatepass"))
                    for s in seg)
            if max_bytes is not None and total_bytes > max_bytes:
                span_counts[i] = 0
                statuses.append("oversize")
                n_errs.append(-1)
                n_spans.append(0)
                n_bytes.append(total_bytes)
                continue
            before = len(f_kind)
            try:
                ckey = None
                # only payloads the cache can STORE (< 1 MiB) are
                # worth keying — hashing a 100 MB doc for a
                # guaranteed miss costs ~100 ms in the hot actor
                if self._cache_size and total_bytes < 1 << 20:
                    import hashlib
                    import struct
                    # the key folds in the span STRUCTURE (count, each
                    # segment's byte length) and the chunking step, not
                    # just the concatenated text: two payloads with the
                    # same concatenation but different span boundaries
                    # can parse into different fragment groupings when
                    # chunk_spans slices them
                    h = hashlib.md5()
                    h.update(struct.pack("<qq", len(seg), chunk or -1))
                    for s in seg:
                        b = s.encode("utf-8", "surrogatepass")
                        h.update(struct.pack("<q", len(b)))
                        h.update(b)
                    ckey = h.digest()
                    hit = self._cache.get(ckey)
                    if hit is not None:
                        ck, ct, cm, errs = hit
                        f_kind.extend(ck)
                        f_text.extend(ct)
                        f_ref.extend(cm)
                        self.cache_hits += 1
                        span_counts[i] = len(ck)
                        statuses.append("ok")
                        n_errs.append(errs)
                        n_spans.append(len(ck))
                        n_bytes.append(total_bytes)
                        continue
                errs = 0
                step = chunk if (chunk and len(seg) > chunk) else len(seg) or 1
                for j in range(0, len(seg), step):
                    doc = parse("".join(seg[j:j + step]))
                    errs += doc.parse_errors
                    for k, t, m, _o in extract_spans(doc, profile):
                        f_kind.append(k)
                        f_text.append(t)
                        f_ref.append(m)
                count = len(f_kind) - before
                span_counts[i] = count
                statuses.append("ok")
                n_errs.append(errs)
                n_spans.append(count)
                if ckey is not None and total_bytes < 1 << 20:
                    if len(self._cache) >= self._cache_size:
                        self._cache.clear()
                    self._cache[ckey] = (tuple(f_kind[before:]),
                                         tuple(f_text[before:]),
                                         tuple(f_ref[before:]), errs)
            except Exception:           # poison row → quarantine, never raise
                del f_kind[before:], f_text[before:], f_ref[before:]
                span_counts[i] = 0
                statuses.append("error")
                n_errs.append(-1)
                n_spans.append(0)
            n_bytes.append(total_bytes)

        list_offsets = np.zeros(len(doc_ids) + 1, dtype=np.int32)
        list_offsets[1:] = np.cumsum(span_counts)
        # per-doc span offsets 0..n-1, vectorized
        total = int(list_offsets[-1])
        pos = np.arange(total, dtype=np.int32) - np.repeat(
            list_offsets[:-1].astype(np.int32), span_counts)
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
