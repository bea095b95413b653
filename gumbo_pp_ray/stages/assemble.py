"""Span-list → HTML payload assembly.

The input table's contract (BASELINE.json input_hint): a document's
HTML source is the concatenation of its span ``text`` fields in
``offset`` order. This stage flattens the Arrow list column ONCE per
batch (zero-copy via ``ListArray.values`` / ``offsets``) and joins
per-row slices — no per-row Arrow round trips.

The single-process reference for the extractor's fused in-kernel
assembly (the payload string never crosses an object-store boundary).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def assemble_payloads(batch: pa.Table) -> list[str]:
    """Per-row HTML payloads from the ``spans`` column (offset order)."""
    col = batch.column("spans")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # Sort span structs by (row, offset) once for the whole batch, then
    # join row slices. Input contract says spans are stored in offset
    # order; we enforce it cheaply by checking sortedness first.
    values = col.values
    texts = values.field("text")
    offs = values.field("offset")
    row_offsets = col.offsets.to_numpy(zero_copy_only=False)
    offs_np = offs.to_numpy(zero_copy_only=False)
    txt_list = texts.to_pylist()
    out = []
    for i in range(len(col)):
        lo, hi = row_offsets[i], row_offsets[i + 1]
        seg = txt_list[lo:hi]
        if hi > lo:
            o = offs_np[lo:hi]
            if not (o[:-1] <= o[1:]).all():     # rare: enforce offset order
                seg = [seg[j] for j in np.argsort(o, kind="stable")]
        out.append("".join(seg))
    return out

