"""Bucketed exchange — the one way a stage co-locates rows by key:
tag each row with a routing ``bucket`` (a process-stable hash of its
key), then ``groupby(bucket, num_partitions).map_groups`` so all rows
sharing a key meet in ONE vectorized UDF call per bucket.

* **key → bucket**: ``key_buckets`` (int keys, multi-column cells such
  as ``(key, phase_bucket)``, other strings/bytes) and
  ``digest_buckets`` (md5 digests).  Uniform by construction, and the
  same key gets the same bucket in every process and from every row
  type — the co-group contract (signature rows meet pair rows, label
  rows meet edge rows).
* **sizing**: ``partitions_for``, one rows-per-partition rule.
* **the call**: ``exchange``, which also logs the partition count.
"""

from __future__ import annotations

import logging
import zlib

import numpy as np
import pyarrow as pa

log = logging.getLogger(__name__)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized: every input bit reaches every
    output bit, so ids that differ only in high bits (multiples of
    1024, say) still spread over every bucket — a bare multiply leaves
    the low bits, and hence ``% n`` for power-of-two n, unchanged."""
    x = x + _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def _words(col) -> np.ndarray:
    """One key column → uint64 words.  Integer-like columns (numpy or
    Arrow ints, timestamps) are their values; strings and bytes
    (a Python list or an Arrow column) hash per value with CRC32 —
    process-stable, and faster than ``pd.util.hash_array`` here."""
    if isinstance(col, np.ndarray):
        return col.astype(np.uint64)
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_integer(col.type) or pa.types.is_timestamp(col.type):
            return (col.cast(pa.int64()).fill_null(0)
                    .to_numpy(zero_copy_only=False).astype(np.uint64))
        col = col.to_pylist()
    try:        # map() over builtins: no bytecode per value
        return np.fromiter(map(zlib.crc32, map(str.encode, col)),
                           dtype=np.uint64, count=len(col))
    except TypeError:                           # bytes, None, ...
        return np.array([zlib.crc32(v if isinstance(v, bytes) else
                                    str(v).encode("utf-8")) for v in col],
                        dtype=np.uint64)


def key_buckets(*keys, num_buckets: int) -> np.ndarray:
    """Key column(s) → int64 bucket in ``[0, num_buckets)`` per row.
    Several columns form one cell key: ``key_buckets(key, slice, ...)``
    buckets the (key, slice) pair."""
    h = _words(keys[0])
    for k in keys[1:]:
        h = _splitmix64(h) ^ _words(k)
    return (_splitmix64(h) % np.uint64(num_buckets)).astype(np.int64)


def digest_buckets(col, num_buckets: int) -> np.ndarray:
    """md5 digest column → int64 bucket, vectorized.  Takes 32-char
    md5-hex strings or ``binary(16)`` digests; hex NIBBLES are
    decoded back to digest bytes first — XOR-folding the raw ASCII
    keeps the hex alphabet's fixed high-nibble bits, leaving most
    buckets unreachable (per-bucket load up to ~129x at the 65536
    cap).  Digest bytes are uniform already, so the two 64-bit words
    fold with one XOR."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if pa.types.is_fixed_size_binary(col.type):          # 16-byte md5
        by = np.frombuffer(col.buffers()[1], dtype=np.uint8)[
            col.offset * 16:(col.offset + n) * 16].reshape(n, 16)
    else:
        s = np.ascontiguousarray(
            col.to_numpy(zero_copy_only=False).astype("S32"))
        a = s.view(np.uint8).reshape(n, 32)
        nib = (a - 48 - (a >= 97) * 39).astype(np.uint8)  # '0'-'9','a'-'f'
        by = (nib[:, 0::2] << 4) | nib[:, 1::2]           # (n, 16) bytes
    v = np.ascontiguousarray(by).view(np.uint64)          # (n, 2) words
    return ((v[:, 0] ^ v[:, 1]) % np.uint64(num_buckets)).astype(np.int64)


def partitions_for(n_rows: int, rows_per_partition: int, *, floor: int = 8,
                   cap: int = 65536) -> int:
    """Partition (or bucket) count targeting ``rows_per_partition``
    rows per reducer task: ``ceil(n_rows / rows_per_partition)``
    clamped to ``[floor, cap]``.  Sort-based map_groups pays a fixed cost per
    partition, so tiny inputs take the floor; huge ones need enough
    partitions to bound per-task memory."""
    return max(floor, min(cap, -(-n_rows // rows_per_partition)))


def exchange(ds, fn, *, key: str = "bucket", num_partitions: int,
             batch_format: str = "pyarrow", n_rows: int | None = None):
    """``groupby(key, num_partitions).map_groups(fn)`` — every bucketed
    exchange goes through here.  ``num_partitions`` is required:
    without it Ray's sort-based groupby defaults to the input block
    count, so one task could hold ~input/blocks rows.  ``n_rows`` is
    the stage's input row count when the caller already counted it
    (logged only)."""
    stage = getattr(getattr(fn, "func", fn), "__qualname__", fn)
    log.info("exchange %s: rows=%s partitions=%d", stage,
             "?" if n_rows is None else n_rows, num_partitions)
    return ds.groupby(key, num_partitions=num_partitions).map_groups(
        fn, batch_format=batch_format)
