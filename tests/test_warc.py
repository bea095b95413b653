"""WARC reader tests: pure-bytes parser round-trip, gzip members,
corruption quarantine + resync, and the Ray read → extract path."""

import gzip
import io

import pytest

from gumbo_pp_ray.sources.warc import (
    build_warc, iter_warc_records, read_warc,
)

RECORDS = [
    {"url": "http://a.test/page1",
     "html": "<html><body><p>alpha text</p></body></html>"},
    {"url": "http://a.test/robots", "warc_type": "request",
     "html": "GET /"},
    {"url": "http://a.test/page2", "status": 404,
     "html": "<html><body>not found</body></html>"},
    {"url": "http://a.test/page3", "charset": "iso-8859-1",
     "html": "<html><body><p>café</p></body></html>"},
    {"url": "http://a.test/data.json", "mime": "application/json",
     "html": '{"k": 1}'},
]


def test_round_trip_plain():
    rows = list(iter_warc_records(build_warc(RECORDS), source="f"))
    # request record skipped; 4 responses survive
    assert [r["url"] for r in rows] == [
        "http://a.test/page1", "http://a.test/page2",
        "http://a.test/page3", "http://a.test/data.json"]
    assert [r["status"] for r in rows] == [200, 404, 200, 200]
    assert rows[0]["mime"] == "text/html"
    assert "alpha text" in rows[0]["html"]
    assert "café" in rows[2]["html"]     # latin-1 decoded
    assert all(r["error"] is None for r in rows)
    assert all(r["warc_file"] == "f" for r in rows)


def test_round_trip_gzip_members():
    plain = list(iter_warc_records(build_warc(RECORDS)))
    gz = list(iter_warc_records(build_warc(RECORDS,
                                           gzip_members=True)))
    assert [(r["url"], r["status"], r["html"]) for r in gz] == \
           [(r["url"], r["status"], r["html"]) for r in plain]


def test_corrupt_record_quarantined_and_resynced():
    good = build_warc([RECORDS[0]])
    bad = (b"WARC/1.0\r\nWARC-Type: response\r\n"
           b"WARC-Target-URI: http://bad.test/\r\n"
           b"Content-Length: nope\r\n\r\njunk")
    tail = build_warc([RECORDS[2]])
    rows = list(iter_warc_records(good + bad + b"\r\n\r\n" + tail))
    errors = [r for r in rows if r["error"]]
    ok = [r for r in rows if not r["error"]]
    assert len(errors) == 1
    assert errors[0]["error"] == "bad-content-length"
    assert errors[0]["url"] == "http://bad.test/"
    # the record AFTER the corruption still parses
    assert [r["url"] for r in ok] == ["http://a.test/page1",
                                     "http://a.test/page2"]


def test_truncated_payload_reported():
    blob = build_warc([RECORDS[0]])[:-30]
    rows = list(iter_warc_records(blob))
    assert rows and rows[-1]["error"] == "truncated-payload"


def test_read_warc_to_extract(ray_session, tmp_path):
    """Archives on disk → read_warc → the HTML kernel, end to end."""
    (tmp_path / "shard-00.warc.gz").write_bytes(
        build_warc(RECORDS, gzip_members=True))
    (tmp_path / "shard-01.warc").write_bytes(build_warc([
        {"url": "http://b.test/x",
         "html": "<html><body><p>beta words</p></body></html>"}]))

    ds = read_warc(str(tmp_path))
    rows = ds.take_all()
    # html_only: 200 text/html rows only (no 404, json, request)
    assert sorted(r["url"] for r in rows) == [
        "http://a.test/page1", "http://a.test/page3",
        "http://b.test/x"]
    assert all(r["error"] is None for r in rows)

    import pyarrow as pa
    from gumbo_pp_ray.html import parse
    from gumbo_pp_ray.html.extract import DEFAULT_PROFILE, extract_spans

    def extract(batch: pa.Table) -> pa.Table:
        urls, texts = [], []
        for url, html in zip(batch.column("url").to_pylist(),
                             batch.column("html").to_pylist()):
            spans = list(extract_spans(parse(html), DEFAULT_PROFILE))
            urls.append(url)
            texts.append(" ".join(s[1] for s in spans))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "text": pa.array(texts, pa.string())})

    out = {r["url"]: r["text"]
           for r in ds.map_batches(extract,
                                   batch_format="pyarrow").take_all()}
    assert "alpha text" in out["http://a.test/page1"]
    assert "beta words" in out["http://b.test/x"]


def test_read_warc_all_responses(ray_session, tmp_path):
    (tmp_path / "s.warc").write_bytes(build_warc(RECORDS))
    rows = read_warc(str(tmp_path), html_only=False).take_all()
    assert len(rows) == 4                  # every response record
    assert {r["status"] for r in rows} == {200, 404}


def test_warc_feeds_flagship_pipeline(ray_session, tmp_path):
    """read_warc → warc_to_interleaved → extract_dataset: the full
    archive-to-content-spans path on real Ray, including the
    extractor's own quarantine for a binary-garbage page."""
    from gumbo_pp_ray.pipelines.extract_pipeline import extract_dataset
    from gumbo_pp_ray.sources.warc import warc_to_interleaved

    (tmp_path / "s.warc.gz").write_bytes(build_warc([
        {"url": "http://c.test/good",
         "html": "<html><body><nav>skip</nav><h1>Title</h1>"
                 "<p>body words</p></body></html>"},
        {"url": "http://c.test/garbage",
         "html": "\x00\x01�<<<>>>"},
    ], gzip_members=True))

    ds = read_warc(str(tmp_path)).map_batches(
        warc_to_interleaved, batch_format="pyarrow")
    out = {r["doc_id"]: r for r in extract_dataset(
        ds, split_threshold=None).take_all()}
    assert set(out) == {"http://c.test/good", "http://c.test/garbage"}
    good = out["http://c.test/good"]
    texts = [s["text"] for s in good["spans"]]
    assert any("body words" in t for t in texts)
    assert not any("skip" in t for t in texts)      # nav stripped
    assert good["status"] == "ok"
    # garbage page: quarantined row, never a crashed batch
    assert out["http://c.test/garbage"]["status"] in ("ok", "error")


def test_run_extraction_over_warc_archives(ray_session, tmp_path):
    """run_extraction pointed at a directory of WARC archives:
    wave-committed parquet out, and a rerun skips committed waves
    (resume unit = archive)."""
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    src = tmp_path / "crawl"
    src.mkdir()
    for shard in range(3):
        recs = [{"url": f"http://w{shard}.test/p{i}",
                 "html": f"<html><body><p>s{shard} d{i} words</p>"
                         "</body></html>"}
                for i in range(4)]
        (src / f"shard-{shard:02d}.warc.gz").write_bytes(
            build_warc(recs, gzip_members=True))

    out = tmp_path / "out"
    s1 = run_extraction(str(src), str(out), files_per_wave=2,
                        concurrency=2)
    assert s1["docs"] == 12 and s1["errors"] == 0
    assert s1["waves_run"] == 2 and s1["waves_skipped"] == 0

    s2 = run_extraction(str(src), str(out), files_per_wave=2,
                        concurrency=2)
    assert s2["waves_skipped"] == 2 and s2["waves_run"] == 0
    assert s2["docs"] == 12

    import pyarrow.parquet as pq
    from gumbo_pp_ray.sources.io import list_output_files
    t = pq.read_table(list_output_files(str(out)))
    assert t.num_rows == 12
    assert sorted(t.column("doc_id").to_pylist())[0] == \
        "http://w0.test/p0"


def test_gzip_corrupt_archive_recovers_prefix():
    """A truncated / bit-flipped gzip archive yields the records
    recovered before the damage plus ONE final gzip-corrupt error row
    — never an exception (ADVICE round 4: gzip-level corruption must
    follow the same quarantine contract as WARC-level corruption)."""
    blob = build_warc(RECORDS, gzip_members=True)
    # truncate inside the last member
    rows = list(iter_warc_records(blob[:-40], source="t"))
    assert rows and rows[-1]["error"] == "gzip-corrupt"
    ok = [r for r in rows if r["error"] is None]
    assert [r["url"] for r in ok] == [
        "http://a.test/page1", "http://a.test/page2",
        "http://a.test/page3"]
    # bit-flip mid-stream (inside the first member's deflate data)
    flipped = bytearray(blob)
    flipped[60] ^= 0xFF
    rows = list(iter_warc_records(bytes(flipped)))
    assert rows[-1]["error"] == "gzip-corrupt"
    # single-member gzip truncated: same contract
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as z:
        z.write(build_warc(RECORDS))
    rows = list(iter_warc_records(buf.getvalue()[:-8]))
    assert rows[-1]["error"] == "gzip-corrupt"


class _NoSlurpFile:
    """File-like that forbids unbounded reads — proves the scanner
    never materializes the archive."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, n: int = -1) -> bytes:
        assert n is not None and n >= 0, "full-file read attempted"
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out


def test_stream_scan_is_memory_bounded(monkeypatch):
    """Peak buffer while scanning a many-record archive stays at
    max(record size) + one read chunk, independent of archive size."""
    import gumbo_pp_ray.sources.warc as warc_mod
    from gumbo_pp_ray.sources.warc import iter_warc_stream

    monkeypatch.setattr(warc_mod, "_CHUNK", 4096)
    recs = [{"url": f"http://m.test/{i}", "html": "x" * 2000}
            for i in range(500)]                  # ~1.2 MB total
    blob = build_warc(recs, gzip_members=True)
    stats = {}
    rows = list(iter_warc_stream(_NoSlurpFile(blob), _stats=stats))
    assert len(rows) == 500
    assert all(r["error"] is None for r in rows)
    # largest record ~2.4 KB; bound = record + a few 4 KB chunks,
    # nowhere near the ~1.2 MB archive
    assert stats["peak_buffer"] < 64 * 1024
    # plain (uncompressed) input through the same bound
    stats = {}
    rows = list(iter_warc_stream(_NoSlurpFile(build_warc(recs)),
                                 _stats=stats))
    assert len(rows) == 500
    assert stats["peak_buffer"] < 64 * 1024


def test_warc_error_rows_reach_quarantine(ray_session, tmp_path):
    """Corrupt records are NOT dropped on the run_extraction WARC
    path: they surface as status='error' docs, land in the
    _quarantine sidecar, and count in the wave manifest (ADVICE
    round 4, warc_to_interleaved silent-drop)."""
    from gumbo_pp_ray.pipelines.extract_pipeline import run_extraction

    src = tmp_path / "crawl"
    src.mkdir()
    good = build_warc([
        {"url": f"http://q.test/p{i}",
         "html": f"<html><body><p>doc {i} words</p></body></html>"}
        for i in range(3)])
    bad = (b"WARC/1.0\r\nWARC-Type: response\r\n"
           b"WARC-Target-URI: http://q.test/corrupt\r\n"
           b"Content-Length: nope\r\n\r\njunk\r\n\r\n")
    (src / "s.warc").write_bytes(good + bad)

    out = tmp_path / "out"
    s = run_extraction(str(src), str(out), concurrency=2)
    assert s["docs"] == 4 and s["errors"] == 1

    import pyarrow.parquet as pq
    qfiles = list((out / "_quarantine").rglob("*.parquet"))
    assert qfiles
    q = pq.read_table([str(f) for f in qfiles])
    assert q.num_rows == 1
    assert q.column("doc_id").to_pylist() == ["http://q.test/corrupt"]
    assert q.column("status").to_pylist() == ["error"]
    # clean waves contain only the good docs
    from gumbo_pp_ray.sources.io import list_output_files
    t = pq.read_table(list_output_files(str(out)))
    assert sorted(t.column("doc_id").to_pylist()) == [
        f"http://q.test/p{i}" for i in range(3)]


def test_warc_round_trip_property():
    """Property: build_warc → iter_warc_records is lossless for any
    record content, including HTML that embeds WARC magic, CRLF
    pairs, and high unicode."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    texts = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)),
        min_size=0, max_size=400)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=5), st.integers(0, 4))
    def check(bodies, gz):
        recs = [{"url": f"http://p.test/{i}", "html": b}
                for i, b in enumerate(bodies)]
        blob = build_warc(recs, gzip_members=bool(gz % 2))
        rows = list(iter_warc_records(blob))
        assert [r["url"] for r in rows] == \
            [r["url"] for r in recs]
        assert [r["html"] for r in rows] == bodies
        assert all(r["error"] is None for r in rows)

    check()


def test_nul_poisoned_charset_quarantined_not_fatal():
    """A charset label with an embedded NUL raises ValueError from
    bytes.decode — it must fall back to utf-8, never crash the read
    task (round-5 review finding)."""
    body = b"<html><body>ok nul charset</body></html>"
    http = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/html; charset=ut\x00f8\r\n\r\n" + body)
    rec = (b"WARC/1.0\r\n"
           b"WARC-Type: response\r\n"
           b"WARC-Target-URI: http://x.test/nul\r\n"
           b"Content-Length: " + str(len(http)).encode() + b"\r\n\r\n"
           + http + b"\r\n\r\n")
    rows = list(iter_warc_records(rec, source="f"))
    assert len(rows) == 1 and rows[0]["error"] is None
    assert "ok nul charset" in rows[0]["html"]


def test_oversized_content_length_quarantined():
    """An implausibly huge Content-Length (resync landing inside a
    payload that quotes WARC markup) must be quarantined instead of
    buffering the rest of the archive into memory."""
    bogus = (b"WARC/1.0\r\n"
             b"WARC-Type: response\r\n"
             b"Content-Length: 999999999999\r\n\r\n")
    good = build_warc([{"url": "http://x.test/after",
                        "html": "<html><body>survivor</body></html>"}])
    rows = list(iter_warc_records(bogus + good, source="f"))
    errs = [r for r in rows if r["error"]]
    assert [r["error"] for r in errs] == ["oversized-record"]
    ok = [r for r in rows if not r["error"]]
    assert len(ok) == 1 and "survivor" in ok[0]["html"]


def test_missing_target_uri_gets_fallback_doc_id():
    """A parseable response with no WARC-Target-URI must still get a
    non-null doc_id on the interleaved path (null ids poison every
    downstream groupby)."""
    import pyarrow as pa

    from gumbo_pp_ray.sources.warc import warc_to_interleaved

    body = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>x</p>"
    rec = (b"WARC/1.0\r\n"
           b"WARC-Type: response\r\n"
           b"WARC-Record-ID: <urn:uuid:42>\r\n"
           b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
           + body + b"\r\n\r\n")
    rows = list(iter_warc_records(rec, source="f"))
    assert len(rows) == 1 and rows[0]["url"] is None
    t = pa.table({k: [r.get(k) for r in rows]
                  for k in ("warc_file", "record_id", "url", "html",
                            "error")})
    out = warc_to_interleaved(t)
    did = out.column("doc_id").to_pylist()
    assert did == ["<urn:uuid:42>"]


def test_gzip_corrupt_reports_single_error_row():
    """Mid-payload gzip damage yields exactly ONE quarantine row
    (gzip-corrupt), not truncated-payload + gzip-corrupt for the same
    incident."""
    payload = build_warc(
        [{"url": f"http://x.test/{i}",
          "html": f"<html><body>page {i} body text</body></html>"}
         for i in range(6)])
    gz = bytearray(gzip.compress(payload))
    gz[len(gz) // 2] ^= 0xFF                 # bit-flip mid-stream
    rows = list(iter_warc_records(bytes(gz), source="f"))
    errs = [r["error"] for r in rows if r["error"]]
    assert errs == ["gzip-corrupt"]
    # (prefix recovery itself is pinned by
    # test_gzip_corrupt_archive_recovers_prefix; this one pins the
    # single-row quarantine accounting)


def test_url_less_fallback_ids_unique_across_flushes(ray_session, tmp_path):
    """Two records with neither WARC-Target-URI nor WARC-Record-ID,
    emitted in different flushes of one archive, get distinct fallback
    doc_ids (the batch-local index gave both ``#record-0`` and merged
    them downstream)."""
    from gumbo_pp_ray.sources.warc import warc_to_interleaved

    def url_less(body: bytes) -> bytes:
        http = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
                + body)
        return (b"WARC/1.0\r\nWARC-Type: response\r\n"
                b"Content-Length: " + str(len(http)).encode()
                + b"\r\n\r\n" + http + b"\r\n\r\n")

    path = tmp_path / "anon.warc"
    path.write_bytes(url_less(b"<p>first</p>") + url_less(b"<p>second</p>"))
    ds = read_warc(str(path), flush_records=1).map_batches(
        warc_to_interleaved, batch_format="pyarrow", batch_size=1)
    ids = sorted(r["doc_id"] for r in ds.take_all())
    assert ids == [f"{path}#record-0", f"{path}#record-1"]
