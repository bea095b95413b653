"""ExtractSpans reads each row's payload from the text column's UTF-8
value buffer: rows whose spans are in order and not null are decoded in
one slice, the others span by span.  Both paths must give the same
output, one bad row must never fail the batch, and ``n_bytes_in`` keeps
its unit on both."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gumbo_pp_ray.stages.extractor import ExtractSpans

SPAN = pa.struct([("kind", pa.string()), ("text", pa.string()),
                  ("media_ref", pa.string()), ("offset", pa.int32())])


def batch(rows, ids=None):
    """A spans batch; each row is a list of (text, offset) with text a
    str, UTF-8 bytes (written to the value buffer unchecked) or None."""
    texts = [t for row in rows for t, _ in row]
    raw = [t.encode() if isinstance(t, str) else t or b"" for t in texts]
    value_offsets = np.zeros(len(raw) + 1, dtype=np.int32)
    value_offsets[1:] = np.cumsum([len(b) for b in raw])
    valid = [t is not None for t in texts]
    text = pa.StringArray.from_buffers(
        len(raw), pa.py_buffer(value_offsets.tobytes()),
        pa.py_buffer(b"".join(raw)),
        None if all(valid) else pa.array(valid).buffers()[1])
    n = len(texts)
    values = pa.StructArray.from_arrays(
        [pa.array(["text"] * n), text, pa.array([""] * n),
         pa.array([o for row in rows for _, o in row], pa.int32())],
        fields=list(SPAN))
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    offsets[1:] = np.cumsum([len(r) for r in rows])
    return pa.table({
        "doc_id": ids or [f"d{i}" for i in range(len(rows))],
        "spans": pa.ListArray.from_arrays(pa.array(offsets), values)})


def round_trip(t, tmp_path):
    pq.write_table(t, tmp_path / "t.parquet")
    return pq.read_table(tmp_path / "t.parquet")


GOOD = [("<p>one</p>", 0)]
BAD = {
    "in order": [("<p>\xff</p>".encode("latin-1"), 0)],
    "out of order": [("<p>two</p>", 1), (b"<p>\xff</p>", 0)],
    "with a null": [("<p>two</p>", 0), (None, 1), (b"\xc3", 2)],
}


@pytest.mark.parametrize("bad", BAD, ids=list(BAD))
@pytest.mark.parametrize("parquet", (False, True), ids=("arrow", "parquet"))
def test_invalid_utf8_quarantines_only_its_row(bad, parquet, tmp_path):
    t = batch([GOOD, BAD[bad], GOOD])
    if parquet:         # parquet does not validate UTF-8 either
        t = round_trip(t, tmp_path)
    out = ExtractSpans()(t).to_pylist()
    assert [r["status"] for r in out] == ["ok", "error", "ok"]
    assert out[0]["spans"][0]["text"] == "one" == out[2]["spans"][0]["text"]
    nbytes = sum(len(b) for b, _ in BAD[bad] if b is not None)
    assert (out[1]["spans"], out[1]["n_bytes_in"]) == ([], nbytes)


CAP = 100


def payload(char: str, k: int) -> str:
    return "<p>" + char * k + "</p>"


# (payload, status, n_bytes_in): code points while 4 x code points stays
# within the cap, UTF-8 bytes past it; an oversize row counts its bytes
PINNED = [
    (payload("a", 18), "ok", 25), (payload("a", 19), "ok", 26),
    (payload("a", 93), "ok", 100), (payload("a", 94), "oversize", 101),
    (payload("中", 18), "ok", 25), (payload("中", 19), "ok", 64),
    (payload("中", 31), "ok", 100), (payload("中", 32), "oversize", 103),
    (payload("\U0001F600", 18), "ok", 25),
    (payload("\U0001F600", 19), "ok", 83),
    (payload("\U0001F600", 23), "ok", 99),
    (payload("\U0001F600", 24), "oversize", 103),
]


def split(p: str, order: str) -> list:
    """p as two spans: in offset order, out of order, or with a null."""
    if order == "one span":
        return [(p, 0)]
    a, b = p[:5], p[5:]
    if order == "in order":
        return [(a, 0), (b, 1)]
    if order == "out of order":
        return [(b, 1), (a, 0)]
    return [(a, 0), (None, 1), (b, 2)]


@pytest.mark.parametrize("order", ("one span", "in order", "out of order",
                                   "with a null"))
def test_n_bytes_in_is_pinned_on_both_payload_paths(order):
    t = batch([split(p, order) for p, _, _ in PINNED])
    out = ExtractSpans(max_doc_bytes=CAP)(t).to_pylist()
    assert [(r["status"], r["n_bytes_in"]) for r in out] \
        == [(status, n) for _, status, n in PINNED]
    assert all(r["spans"] == [] for r in out if r["status"] == "oversize")


def test_both_payload_paths_give_the_same_table():
    html = ["<html><body><p>a &amp; b</p><img src=i.png>",
            "<div><h1>T</h1><ul><li>x</li></ul><a href=/u>link</a></div>",
            "<pre>\ncode</pre><script>s</script><p>é中\U0001F600</p>"]
    rows = [[(h[:9], 0), (h[9:20], 1), (h[20:], 2)] for h in html]
    fast = batch(rows)
    slow = batch([[r[1], r[0], r[2]] for r in rows])     # out of order
    null = batch([r + [(None, 3)] for r in rows])
    for chunk in (None, 1, 2):
        want = ExtractSpans(chunk_spans=chunk)(fast)
        assert ExtractSpans(chunk_spans=chunk)(slow).equals(want)
        assert ExtractSpans(chunk_spans=chunk)(null).equals(want)
        assert want.column("status").to_pylist() == ["ok"] * 3


def test_payload_cache_is_shared_by_both_paths():
    html = "<p>" + "word " * 30 + "</p>"
    rows = [[(html[:10], 0), (html[10:], 1)],
            [(html[10:], 1), (html[:10], 0)]]
    ex = ExtractSpans()
    out = ex(batch(rows))
    assert ex.cache_hits == 1
    spans = out.column("spans").to_pylist()
    assert spans[0] == spans[1] and spans[0]


def test_sliced_batches_read_their_own_rows():
    rows = [[(f"<p>row {i}</p>", 0), (f"<p>more {i}</p>", 1)]
            for i in range(6)]
    t = batch(rows)
    whole = ExtractSpans()(t)
    for lo in range(6):
        assert ExtractSpans()(t.slice(lo, 2)).equals(whole.slice(lo, 2)
                                                     .combine_chunks())
