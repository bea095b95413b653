"""Input readers.

The reference has NO sources/sinks (documents are string literals in
its tests; retrieval is delegated — SURVEY.md §2.7). The engine reads
the interleaved span table from Lance when the wheel is available
(north rule's storage target), transparently falling back to Parquet
with the identical Arrow schema (this sandbox ships no ``lance``).

Column pruning is applied at the read (``columns=[...]``) — only
``doc_id`` and ``spans`` leave storage.
"""

from __future__ import annotations

import os

import ray.data

INPUT_COLUMNS = ["doc_id", "spans"]

try:                                    # pragma: no cover - env dependent
    import lance  # noqa: F401
    _HAVE_LANCE = True
except ImportError:
    _HAVE_LANCE = False


def list_input_files(path: str,
                     exts: tuple = (".parquet", ".lance")) -> list[str]:
    """Deterministic (sorted) list of input shards — the resume unit."""
    if os.path.isfile(path):
        return [path]
    out = []
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(exts):
                out.append(os.path.join(root, f))
    return sorted(out)


def clean_parquet_schema(path: str,
                         columns: list[str] | None = None):
    """Metadata-free (and column-pruned) schema of a parquet file.

    pandas-written parquet carries ``pandas`` key-value metadata that
    makes ``pa.Schema`` UNHASHABLE; Ray Data's block concat tries
    ``set(schemas)`` for dedup and logs a per-worker "Failed to hash
    the schemas" warning on every stage that bundles read blocks.
    Passing this stripped schema to ``read_parquet(schema=...)``
    yields metadata-free blocks and a silent pipeline."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    full = pq.read_schema(path).remove_metadata()
    if columns is None:
        return full
    return pa.schema([full.field(c) for c in columns])


def read_parquet_clean(paths: str | list[str], *,
                       columns: list[str] | None = None,
                       **kw) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` with a metadata-stripped schema (see
    ``clean_parquet_schema``)."""
    sample = paths if isinstance(paths, str) else paths[0]
    if os.path.isdir(sample):
        # parquet-only: the default extension list includes .lance,
        # and feeding a lance file to pq.read_schema fails the read
        files = list_input_files(sample, exts=(".parquet",))
        sample = files[0] if files else None
    schema = (clean_parquet_schema(sample, columns)
              if sample else None)
    return ray.data.read_parquet(paths, columns=columns, schema=schema,
                                 **kw)


def read_interleaved(paths: str | list[str], *,
                     columns: list[str] | None = None,
                     override_num_blocks: int | None = None) -> "ray.data.Dataset":
    """Read the interleaved document table (Lance if available, else
    Parquet), pruned to the needed columns, one block per input shard
    unless ``override_num_blocks`` says otherwise.

    One read task per shard splits no block, so Ray fuses the read with
    the extraction map and the write after it (one task per file reads,
    extracts and writes it); a read with more blocks than files would
    add a ``SplitBlocks`` that stops that fusion."""
    columns = columns or INPUT_COLUMNS
    shards = [paths] if isinstance(paths, str) else paths
    is_lance = bool(shards) and all(p.endswith(".lance") for p in shards)
    ext = ".lance" if is_lance else ".parquet"
    n = override_num_blocks or sum(
        len(list_input_files(p, exts=(ext,))) for p in shards)
    kw = {"override_num_blocks": n} if n else {}
    if is_lance:                               # pragma: no cover - no
        if not _HAVE_LANCE:                    # lance wheel in sandbox
            raise ImportError(
                "input is Lance but the 'lance' wheel is not "
                "installed; convert to parquet or install lance")
        # run_extraction hands a LIST of shard files (the resume
        # unit), so the lance branch accepts lists too
        return ray.data.read_lance(paths, columns=columns, **kw)
    return read_parquet_clean(paths, columns=columns, **kw)


def read_jsonl(paths: str | list[str], *,
               columns: list[str] | None = None,
               **kw) -> "ray.data.Dataset":
    """JSONL corpus read (plain or ``.jsonl.gz``; compression
    auto-detected) → Dataset, optionally projected to ``columns``.

    Unlike parquet, JSON cannot prune columns or rows AT THE READ —
    every byte is parsed before projection, and gzip files are not
    splittable (parallelism = file count, like WARC). Fine as an
    ingestion step; for repeated processing convert once to parquet
    (``read_jsonl(...).write_parquet(...)``) and read that."""
    ds = ray.data.read_json(
        paths,
        arrow_open_stream_args={"compression": "detect"},
        file_extensions=["json", "jsonl", "json.gz", "jsonl.gz"], **kw)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def list_output_files(out_dir: str) -> list[str]:
    """Data files of a run_extraction output, excluding the ``_``-
    prefixed sidecars (_lineage, _quarantine, _tmp-*). Filters on the
    path RELATIVE to out_dir — absolute paths may contain those
    substrings by accident."""
    out = []
    for f in list_input_files(out_dir):
        rel = os.path.relpath(f, out_dir)
        if not rel.startswith("_"):
            out.append(f)
    return out
