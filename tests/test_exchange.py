"""The bucketed-exchange primitive: key → bucket uniformity,
co-location across row types, partition sizing, and the per-task row
bound it buys."""

import hashlib
import logging
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from gumbo_pp_ray.state.exchange import (
    digest_buckets, exchange, key_buckets, partitions_for,
)


def _max_load(buckets: np.ndarray, n: int) -> float:
    """Largest bucket's load relative to a perfectly uniform split."""
    counts = np.bincount(buckets, minlength=n)
    assert len(counts) == n                      # no bucket out of range
    return counts.max() / (len(buckets) / n)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_strided_int_keys_uniform(n):
    """Ids that differ only in high bits (multiples of 1024) must still
    reach every bucket evenly — a bare multiply-then-modulo hash sends
    all of them to ONE bucket at any power-of-two count."""
    ids = np.arange(10_000, dtype=np.int64) * 1024
    assert _max_load(key_buckets(ids, num_buckets=n), n) <= 1.5
    # the same ids as an Arrow column bucket identically
    assert (key_buckets(pa.array(ids), num_buckets=n)
            == key_buckets(ids, num_buckets=n)).all()


@pytest.mark.parametrize("n", [8, 16, 64])
def test_multi_column_cells_uniform(n):
    """(key, phase_bucket) and (bucket, slice) cells: a few hot keys
    times many small slice numbers, strided keys times one slice —
    both spread evenly, and a cell is not its first column's bucket."""
    keys = np.repeat(np.arange(20, dtype=np.int64) * 4096, 500)
    phase = np.tile(np.arange(500, dtype=np.int64), 20)
    cell = key_buckets(keys, phase, num_buckets=n)
    assert _max_load(cell, n) <= 1.5
    strided = np.arange(10_000, dtype=np.int64) * 1024
    one_slice = np.zeros(10_000, dtype=np.int64)
    assert _max_load(key_buckets(strided, one_slice, num_buckets=n),
                     n) <= 1.5
    assert not (cell == key_buckets(keys, num_buckets=n)).all()
    # order matters: (a, b) and (b, a) are different cells
    assert not (cell == key_buckets(phase, keys, num_buckets=n)).all()


def test_timestamp_keys_bucket_as_ints():
    us = np.arange(5_000, dtype=np.int64) * 86_400_000_000
    ts = pa.array(us, pa.timestamp("us"))
    assert (key_buckets(ts, num_buckets=16)
            == key_buckets(us, num_buckets=16)).all()


def test_digest_buckets_uniform():
    """md5-hex digests must reach EVERY bucket with near-uniform load
    (an ASCII-fold of the hex left most buckets empty and skewed
    per-reducer input up to ~129x); the same digests as fixed-size
    binary bucket identically."""
    hexes = [hashlib.md5(str(i).encode()).hexdigest()
             for i in range(20_000)]
    hs = pa.chunked_array([pa.array(hexes)])
    raw = pa.array([bytes.fromhex(h) for h in hexes], pa.binary(16))
    for nb in (16, 64, 256):
        b = digest_buckets(hs, nb)
        counts = np.bincount(b, minlength=nb)
        assert (counts > 0).all()                # every bucket reachable
        assert counts.max() / (20_000 / nb) < 1.5
        assert (digest_buckets(raw, nb) == b).all()
    assert digest_buckets(pa.array([], pa.string()), 8).shape == (0,)
    # a sliced fixed-size-binary column honours its offset
    assert (digest_buckets(raw.slice(100, 50), 64)
            == digest_buckets(hs, 64)[100:150]).all()


def test_short_token_buckets_uniform():
    toks = [f"t{i}" for i in range(10_000)]
    for n in (16, 64):
        b = key_buckets(toks, num_buckets=n)
        assert _max_load(b, n) <= 1.5
        # a Python list, an Arrow column and bytes agree
        assert (key_buckets(pa.array(toks), num_buckets=n) == b).all()
        assert (key_buckets([t.encode() for t in toks], num_buckets=n)
                == b).all()


def test_buckets_stable_across_processes():
    """Routing must not depend on PYTHONHASHSEED: a bucket computed in
    another interpreter (different hash seed) is the same bucket."""
    code = ("import numpy as np; "
            "from gumbo_pp_ray.state.exchange import key_buckets; "
            "print(key_buckets(['alpha', 'beta'], num_buckets=97).tolist(),"
            " key_buckets(np.array([7, 1 << 40]), num_buckets=97)"
            ".tolist())")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
    want = (f"{key_buckets(['alpha', 'beta'], num_buckets=97).tolist()} "
            f"{key_buckets(np.array([7, 1 << 40]), num_buckets=97).tolist()}")
    assert out.stdout.strip() == want


def test_cogroup_row_types_colocate():
    """Every co-group's two sides bucket the same key the same way:
    signature rows vs pair rows (keyed by doc_a, then re-keyed by
    doc_b), label rows vs edge rows, doc anchors vs hit rows."""
    from gumbo_pp_ray.stages import corpus_stats, dedup, graph

    nb = 16
    ids = np.arange(0, 50_000, 1024, dtype=np.int64)
    other = ids[::-1].copy()
    sigs = pa.table({"doc_id": ids,
                     "signature": pa.array([[1, 2]] * len(ids),
                                           pa.list_(pa.int64()))})
    pairs = pa.table({"doc_a": ids, "doc_b": other})
    sig_rows = dedup._cogroup_sig_rows(sigs, num_buckets=nb)
    pair_rows = dedup._cogroup_pair_rows_a(pairs, num_buckets=nb,
                                           sig_width=16)
    assert sig_rows.column("bucket").equals(pair_rows.column("bucket"))
    # stage 1 re-keys each pair by doc_b: its bucket is doc_b's
    # signature-row bucket
    with_a = dedup._attach_a_group(pa.concat_tables([sig_rows, pair_rows]),
                                   num_buckets=nb)
    by_id = dict(zip(ids.tolist(), sig_rows.column("bucket").to_pylist()))
    assert with_a.num_rows == len(ids)
    assert with_a.column("bucket").to_pylist() == [
        by_id[d] for d in with_a.column("doc_id").to_pylist()]

    labels = pa.table({"doc_id": ids, "label": ids})
    edges = pa.table({"node": other, "nbr": ids})
    assert graph._label_rows(labels, num_buckets=nb).column("bucket") \
        .equals(graph._edge_rows(edges, num_buckets=nb).column("bucket"))
    msgs = pa.table({"node": ids, "label": other})
    assert graph._min_label_rows(msgs, id_col="node", own=0,
                                 num_buckets=nb).column("bucket").equals(
        graph._min_label_rows(labels, id_col="doc_id", own=1,
                              num_buckets=nb).column("bucket"))

    anchors = corpus_stats._doc_anchor_rows(pa.table({"doc_id": ids}),
                                            num_buckets=nb)
    hits = corpus_stats._gram_hits_group(pa.table({
        "doc_id": np.concatenate([ids, [-1]]),
        "gram": ["g"] * (len(ids) + 1)}), num_buckets=nb)
    assert anchors.column("bucket").equals(hits.column("bucket"))


def test_partitions_for():
    # floor, scaling (ceil division) and cap
    assert partitions_for(0, 10_000) == 8
    assert partitions_for(80_000, 10_000) == 8
    assert partitions_for(80_001, 10_000) == 9
    assert partitions_for(10**12, 10_000) == 65536
    assert partitions_for(10**12, 100_000, floor=64, cap=1 << 20) == 1 << 20
    assert partitions_for(1_000, 100_000, floor=64, cap=1 << 20) == 64
    # the as-of join's rule: 250k rows per bucket, floor 16
    assert partitions_for(0, 250_000, floor=16) == 16
    assert partitions_for(25_000, 250_000, floor=16) == 16
    assert partitions_for(10_000_000, 250_000, floor=16) == 40
    assert partitions_for(10**12, 250_000, floor=16) == 65536


def test_exchange_logs_and_bounds_group_size(ray_session, caplog):
    """Per-task row bound: on strided ids, bucketed to as many buckets
    as partitions, the largest group any map_groups call receives
    stays within 2x rows/partitions."""
    import ray.data

    n_rows, parts = 20_000, 16
    ids = np.arange(n_rows, dtype=np.int64) * 1024
    ds = ray.data.from_arrow(pa.table({"doc_id": ids})).map_batches(
        lambda t: t.append_column("bucket", pa.array(key_buckets(
            t.column("doc_id"), num_buckets=parts))),
        batch_format="pyarrow")

    def group_size(group: pa.Table) -> pa.Table:
        return pa.table({"rows": [group.num_rows]})

    with caplog.at_level(logging.INFO, logger="gumbo_pp_ray.state.exchange"):
        sizes = [r["rows"] for r in exchange(
            ds, group_size, num_partitions=parts, n_rows=n_rows).take_all()]
    assert sum(sizes) == n_rows
    assert len(sizes) == parts
    assert max(sizes) <= 2 * n_rows / parts
    assert any("group_size" in m and "partitions=16" in m
               and f"rows={n_rows}" in m for m in caplog.messages)
