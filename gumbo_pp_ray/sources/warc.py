"""WARC (Web ARChive, ISO 28500) reader — the Common-Crawl-shaped
ingestion path for the extraction engine.

The reference has no sources at all (SURVEY.md §2.7: documents are
string literals in its tests); at 100 TB the real input is WARC
archives, so this module turns them into the engine's documents shape
(url / fetch metadata / html text) as a streaming Ray Data read:

* **One task per archive.**  WARC files are only splittable at gzip
  member boundaries, which cannot be found without scanning; the
  public convention (Common Crawl) is ~1 GB archives, so per-file
  tasks match Ray's block sizing.  Parallelism = number of archives —
  pass many shards, not one giant file.
* **Per-record gzip** (the Common Crawl layout: each record its own
  gzip member, members concatenated) is handled transparently:
  ``gzip.GzipFile`` reads concatenated members as one stream, and
  records are self-delimiting via ``Content-Length``.
* **Corruption is quarantined, not fatal**: a malformed record emits
  an ``error`` row and the parser resyncs on the next ``WARC/1.``
  magic — one bad record cannot drop an archive (mirrors the
  extractor's status="error" contract, stages/extractor.py).

Only ``response`` records with an HTTP payload become document rows;
request/metadata/warcinfo records are counted and skipped.  The HTTP
status line and headers are parsed for status / MIME / charset, and
the body is decoded with the declared charset (``errors="replace"``).

``build_warc`` writes deterministic archives for tests and demos.
"""

from __future__ import annotations

import gzip
import io
import zlib


_MAGIC = b"WARC/1."
_CRLF2 = b"\r\n\r\n"
_CHUNK = 1 << 20                # streaming read granularity (1 MiB)

SCHEMA_COLUMNS = ("warc_file", "record_id", "url", "warc_date",
                  "status", "mime", "html", "n_bytes", "error")


def _parse_headers(blob: bytes) -> dict:
    """Header block (after the version line) → lowercase-key dict."""
    out = {}
    for line in blob.split(b"\r\n"):
        if b":" in line:
            k, _, v = line.partition(b":")
            out[k.strip().lower().decode("latin-1")] = \
                v.strip().decode("latin-1")
    return out


def _decode_http(payload: bytes) -> tuple[int | None, str, str]:
    """HTTP response bytes → (status, mime, body_text)."""
    head_end = payload.find(_CRLF2)
    if head_end < 0:                      # headers only / truncated
        head, body = payload, b""
    else:
        head, body = payload[:head_end], payload[head_end + 4:]
    lines = head.split(b"\r\n")
    status = None
    first = lines[0] if lines else b""
    if first[:5] == b"HTTP/":
        parts = first.split()
        if len(parts) >= 2 and parts[1].isdigit():
            status = int(parts[1])
    hdrs = _parse_headers(b"\r\n".join(lines[1:]))
    ctype = hdrs.get("content-type", "")
    mime = ctype.split(";")[0].strip().lower()
    charset = "utf-8"
    if "charset=" in ctype:
        charset = ctype.split("charset=")[-1].split(";")[0].strip(
            ' "\'') or "utf-8"
    try:
        text = body.decode(charset, errors="replace")
    except (LookupError, ValueError):     # unknown / NUL-poisoned label
        text = body.decode("utf-8", errors="replace")
    return status, mime, text


_MAX_HEADER = 1 << 20     # a WARC header block past 1 MiB is corrupt
#: Content-Length sanity cap: a resync landing inside a payload can
#: parse a bogus huge length from look-alike bytes; without a cap,
#: fill() would buffer the rest of the decompressed archive (the
#: round-4 OOM hazard the streaming scanner exists to prevent).
#: Real Common Crawl records are << 1 GiB.
_MAX_RECORD = 1 << 30


class _ChainReader:
    """Non-seekable reader serving a sniffed prefix before the stream
    (lets the gzip-magic peek work on pipes / object-store streams)."""

    def __init__(self, prefix: bytes, f):
        self._prefix = prefix
        self._f = f

    def read(self, n: int = -1) -> bytes:
        if self._prefix:
            if n is None or n < 0:
                out, self._prefix = self._prefix, b""
                return out + self._f.read()
            out, self._prefix = self._prefix[:n], self._prefix[n:]
            if len(out) < n:
                out += self._f.read(n - len(out))
            return out
        return self._f.read(n)


class _GunzipReader:
    """Incremental multi-member gzip reader built on
    ``zlib.decompressobj`` instead of ``GzipFile``: on a truncated or
    bit-flipped stream, ``GzipFile.read`` raises and DISCARDS the data
    it had already inflated in that call — this reader returns
    everything recovered first and raises only on the next call, so
    the record scanner can quarantine the damage instead of losing the
    archive prefix."""

    def __init__(self, f):
        self._f = f
        self._d = zlib.decompressobj(31)       # gzip wrapper + CRC
        self._comp_eof = False
        self._error = False

    def read(self, n: int = -1) -> bytes:
        if self._error:
            raise zlib.error("corrupt gzip stream")
        out = bytearray()
        while n < 0 or len(out) < n:
            if self._d.eof:                    # member done → next one
                leftover = self._d.unused_data
                if not leftover:
                    if self._comp_eof:
                        break
                    leftover = self._f.read(_CHUNK)
                    if not leftover:
                        self._comp_eof = True
                        break
                self._d = zlib.decompressobj(31)
                try:
                    out += self._d.decompress(leftover)
                except zlib.error:
                    self._error = True
                    break
                continue
            chunk = self._f.read(_CHUNK)
            if not chunk:
                self._comp_eof = True
                if not self._d.eof:            # truncated mid-member
                    self._error = True
                break
            try:
                out += self._d.decompress(chunk)
            except zlib.error:                 # bit-flip / bad CRC
                self._error = True
                break
        if out:
            return bytes(out)
        if self._error:
            raise zlib.error("corrupt gzip stream")
        return b""


class _RecordStream:
    """Bounded rolling buffer over a byte stream; decompression errors
    are captured (not raised) so records recovered before the damage
    still come out."""

    def __init__(self, f):
        self.f = f
        self.buf = bytearray()
        self.eof = False
        self.error: str | None = None
        self.peak = 0            # high-water mark (test instrumentation)

    def fill(self, need: int) -> None:
        while not self.eof and len(self.buf) < need:
            try:
                chunk = self.f.read(_CHUNK)
            except (EOFError, OSError, zlib.error):
                # truncated / bit-flipped gzip member: keep what was
                # recovered, surface ONE gzip-corrupt row at the end
                self.error = "gzip-corrupt"
                self.eof = True
                return
            if not chunk:
                self.eof = True
                return
            self.buf += chunk
            if len(self.buf) > self.peak:
                self.peak = len(self.buf)


def iter_warc_stream(fileobj, *, source: str = "", _stats: dict | None = None):
    """Yield one dict per WARC record (SCHEMA_COLUMNS keys) from a
    binary file-like, **streaming**: the archive is scanned record at a
    time through a rolling buffer, so peak memory is bounded by the
    largest single record (+ one read chunk), never the decompressed
    archive size (a 1 GB Common Crawl member set is ~4-5 GB inflated —
    holding that per task was the round-4 memory hazard).

    Pure-bytes parser: version line, CRLF headers, ``Content-Length``
    payload, ``\\r\\n\\r\\n`` separator.  On any malformed record an
    ``error`` row is yielded and scanning resyncs at the next
    ``WARC/1.`` magic; a corrupt gzip stream yields the records
    recovered before the damage plus one final ``gzip-corrupt`` row
    (never an exception — one bad archive cannot crash a read task).
    Gzip (single- or multi-member) is sniffed from the magic bytes.

    ``_stats``: optional dict that receives ``peak_buffer`` (test
    instrumentation for the memory bound).
    """
    head = fileobj.read(2) or b""
    while len(head) == 1:                  # pipes may return short reads
        more = fileobj.read(1)
        if not more:
            break
        head += more
    raw = _ChainReader(head, fileobj)
    stream = _GunzipReader(raw) if head[:2] == b"\x1f\x8b" else raw
    rs = _RecordStream(stream)
    buf = rs.buf

    def err_row(code: str, hdrs: dict | None = None, n_bytes: int = 0):
        h = hdrs or {}
        return {"warc_file": source,
                "record_id": h.get("warc-record-id"),
                "url": h.get("warc-target-uri"),
                "warc_date": h.get("warc-date"),
                "status": None, "mime": None, "html": None,
                "n_bytes": n_bytes, "error": code}

    try:
        while True:
            idx = buf.find(_MAGIC)
            while idx < 0 and not rs.eof:
                if len(buf) >= len(_MAGIC):
                    # keep a magic-length tail for boundary matches
                    del buf[:len(buf) - (len(_MAGIC) - 1)]
                rs.fill(len(buf) + _CHUNK)
                idx = buf.find(_MAGIC)
            if idx < 0:
                break
            del buf[:idx]
            head_end = buf.find(_CRLF2)
            while head_end < 0 and not rs.eof and len(buf) <= _MAX_HEADER:
                rs.fill(len(buf) + _CHUNK)
                head_end = buf.find(_CRLF2)
            if head_end < 0:
                if not rs.eof:              # > _MAX_HEADER: resync past it
                    yield err_row("oversized-header")
                    del buf[:len(_MAGIC)]
                    continue
                yield err_row("truncated-header")
                break
            hdrs = _parse_headers(bytes(buf[:head_end]))
            try:
                length = int(hdrs["content-length"])
                if length < 0:
                    raise ValueError
            except (KeyError, ValueError):
                yield err_row("bad-content-length", hdrs)
                del buf[:head_end + len(_CRLF2)]   # resync at next magic
                continue
            if length > _MAX_RECORD:
                # implausible length (usually a resync landing inside
                # a payload that quotes WARC markup) — quarantine
                # instead of buffering to EOF
                yield err_row("oversized-record", hdrs)
                del buf[:head_end + len(_CRLF2)]
                continue
            body_start = head_end + len(_CRLF2)
            rs.fill(body_start + length + len(_CRLF2))
            payload = bytes(buf[body_start:body_start + length])
            if len(payload) < length:
                if not rs.error:           # gzip-corrupt reports once,
                    yield err_row("truncated-payload", hdrs,   # below
                                  len(payload))
                break
            consumed = body_start + length
            # spec: two CRLFs close a record; tolerate their absence
            if bytes(buf[consumed:consumed + len(_CRLF2)]) == _CRLF2:
                consumed += len(_CRLF2)
            del buf[:consumed]
            if hdrs.get("warc-type") != "response":
                continue                   # request/metadata/warcinfo
            status, mime, text = _decode_http(payload)
            yield {"warc_file": source,
                   "record_id": hdrs.get("warc-record-id"),
                   "url": hdrs.get("warc-target-uri"),
                   "warc_date": hdrs.get("warc-date"),
                   "status": status, "mime": mime, "html": text,
                   "n_bytes": len(payload), "error": None}
        if rs.error:
            yield err_row(rs.error)
    finally:
        if _stats is not None:
            _stats["peak_buffer"] = rs.peak


def iter_warc_records(data: bytes, *, source: str = ""):
    """Bytes-input convenience wrapper over ``iter_warc_stream``
    (same rows; kept for callers that already hold the archive)."""
    yield from iter_warc_stream(io.BytesIO(data), source=source)


def _records_table(rows: list[dict]):
    import pyarrow as pa
    return pa.table({
        "warc_file": pa.array([r["warc_file"] for r in rows],
                              pa.string()),
        "record_id": pa.array([r["record_id"] for r in rows],
                              pa.string()),
        "url": pa.array([r["url"] for r in rows], pa.string()),
        "warc_date": pa.array([r["warc_date"] for r in rows],
                              pa.string()),
        "status": pa.array([r["status"] for r in rows], pa.int32()),
        "mime": pa.array([r["mime"] for r in rows], pa.string()),
        "html": pa.array([r["html"] for r in rows], pa.string()),
        "n_bytes": pa.array([r["n_bytes"] for r in rows], pa.int64()),
        "error": pa.array([r["error"] for r in rows], pa.string()),
        "record_ordinal": pa.array([r["record_ordinal"] for r in rows],
                                   pa.int64()),
    })


def _expand_warc_paths(paths) -> list[str]:
    import os
    if isinstance(paths, (str, bytes)):
        paths = [paths]
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p)
                if f.endswith((".warc", ".warc.gz"))))
        else:
            out.append(p)
    return out


def read_warc(paths, *, html_only: bool = True,
              flush_records: int = 4096,
              flush_bytes: int = 64 << 20) -> "ray.data.Dataset":
    """WARC archive(s) → Dataset(warc_file, record_id, url, warc_date,
    status, mime, html, n_bytes, error, record_ordinal).

    ``record_ordinal`` numbers the rows ``iter_warc_stream`` yields for
    one archive (0, 1, ... before the ``html_only`` filter): with
    ``warc_file`` it identifies a record across flushes.

    One task per archive (the Common Crawl convention — WARC is only
    splittable at gzip member boundaries; parallelism = number of
    archives), but WITHIN a task everything streams: records are
    scanned straight off the file through ``iter_warc_stream`` (never
    the whole archive in memory, compressed or decompressed) and
    emitted as Arrow blocks every ``flush_records`` rows /
    ``flush_bytes`` of text, so per-task peak memory is
    max(record size, flush threshold) — independent of archive size.

    ``html_only`` keeps status-200 text/html rows plus all error rows (the
    quarantine must survive downstream filters); pass False for every
    response record.  Feed the result straight into the extraction
    pipeline — html is the raw-bytes-decoded page, exactly what
    ``parse`` expects.
    """
    import ray.data

    files = _expand_warc_paths(paths)
    if not files:
        raise FileNotFoundError(f"no .warc/.warc.gz archives in {paths}")

    def stream_archives(batch):
        for path in batch.column("path").to_pylist():
            rows: list[dict] = []
            nb = 0
            with open(path, "rb") as f:
                for ordinal, row in enumerate(
                        iter_warc_stream(f, source=path)):
                    row["record_ordinal"] = ordinal
                    if html_only and row["error"] is None and not (
                            row["status"] == 200
                            and row["mime"] == "text/html"):
                        continue
                    rows.append(row)
                    nb += len(row["html"] or "")
                    if len(rows) >= flush_records or nb >= flush_bytes:
                        yield _records_table(rows)
                        rows, nb = [], 0
            if rows:
                yield _records_table(rows)

    ds = ray.data.from_items([{"path": p} for p in files],
                             override_num_blocks=len(files))
    return ds.map_batches(stream_archives, batch_format="pyarrow",
                          batch_size=1)    # one archive per task


def warc_to_interleaved(batch) -> "pa.Table":
    """map_batches adapter: ``read_warc`` rows → the engine's
    interleaved input shape (doc_id:string, spans list<struct>) with
    ONE raw-HTML span per page, so WARC archives feed
    ``extract_dataset`` / the flagship pipeline unchanged::

        read_warc(archives).map_batches(warc_to_interleaved,
                                        batch_format="pyarrow")
          |> extract_dataset |> write_parquet

    ``doc_id`` is the target URI (the stable key of a crawl).  Error
    rows (corrupt/truncated records, html is null) become docs with
    empty spans and a non-null ``input_error`` column — the extractor
    quarantines them as ``status="error"`` rows, so on the
    run_extraction path they reach the ``_quarantine`` sidecar and the
    wave manifest's error count instead of silently vanishing."""
    import pyarrow as pa
    files = batch.column("warc_file").to_pylist()
    rids = batch.column("record_id").to_pylist()
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    errs = batch.column("error").to_pylist()

    def fallback_id(i, kind):
        # the per-archive ordinal, not the batch index: read_warc emits
        # one archive in several flushes
        ordinal = batch.column("record_ordinal")[i].as_py()
        return f"{files[i]}#{kind}-{ordinal}"

    ids, spans, ierr = [], [], []
    for i, (url, html) in enumerate(zip(urls, htmls)):
        if html is None:
            ids.append(url or rids[i] or fallback_id(i, "corrupt"))
            spans.append([])
            ierr.append(errs[i] or "no-payload")
            continue
        # same fallback chain as the error path: a lenient header
        # parse can yield a response with no WARC-Target-URI, and a
        # null doc_id poisons every downstream groupby / manifest
        ids.append(url or rids[i] or fallback_id(i, "record"))
        spans.append([{"kind": "text", "text": html,
                       "media_ref": "", "offset": 0}])
        ierr.append(None)
    from ..pipelines.wrap import SPANS_TYPE
    return pa.table({"doc_id": pa.array(ids, pa.string()),
                     "spans": pa.array(spans, SPANS_TYPE),
                     "input_error": pa.array(ierr, pa.string())})


# ------------------------------------------------------ test builder

def build_warc(records, *, gzip_members: bool = False) -> bytes:
    """Deterministic WARC bytes for tests/demos.

    ``records``: iterable of dicts with keys ``url``, ``html`` and
    optional ``warc_type`` (default response), ``status`` (200),
    ``mime`` (text/html), ``charset``, ``date``, ``record_id``.
    ``gzip_members=True`` emits the Common Crawl layout (one gzip
    member per record, concatenated); mtime is pinned for
    byte-determinism.
    """
    out = []
    for i, r in enumerate(records):
        body = r["html"].encode(r.get("charset", "utf-8"))
        ctype = r.get("mime", "text/html")
        if r.get("charset"):
            ctype += f"; charset={r['charset']}"
        http = (f"HTTP/1.1 {r.get('status', 200)} OK\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("latin-1") + body
        head = (
            "WARC/1.0\r\n"
            f"WARC-Type: {r.get('warc_type', 'response')}\r\n"
            f"WARC-Record-ID: "
            f"{r.get('record_id', f'<urn:uuid:rec-{i:04d}>')}\r\n"
            f"WARC-Date: {r.get('date', '2024-01-01T00:00:00Z')}\r\n"
            f"WARC-Target-URI: {r['url']}\r\n"
            "Content-Type: application/http; msgtype=response\r\n"
            f"Content-Length: {len(http)}\r\n\r\n"
        ).encode("latin-1")
        rec = head + http + _CRLF2
        if gzip_members:
            buf = io.BytesIO()
            with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as z:
                z.write(rec)
            rec = buf.getvalue()
        out.append(rec)
    return b"".join(out)
