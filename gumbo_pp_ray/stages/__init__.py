"""Ray Data batch transforms (the engine's operators as stages).

Modules:
    assemble        span-list → HTML payload plumbing
    extractor       the hot parse+select+strip kernel, run as a task
                    stage (in-kernel mega-doc chunking)
    explode         spans list<struct> → one row per span
    selector_query  distributed matcher queries over templates
    table_query     scoped structured-table scrape (Q5)
    dedup           exact / MinHash+LSH / SimHash near-dup
                    (auto exchange plan, distributed co-group verify)
    graph           connected components: pairs → dup clusters/keepers
    similarity      brute-force + LSH + IVF ANN, embedding near-dups
    text_analysis   token stats, quality, lang-id, fingerprints,
                    jaccard-vs-query, frequent tokens, repetition,
                    stratified sampling, top-k tokens per group
    corpus_stats    TF-IDF (co-group df), benchmark decontamination
    sketches        HyperLogLog + count-min (mergeable blobs)
    windows         tumbling / two-phase session windows
    asof            point-in-time join (bucketed merge_asof,
                    time-sliced hot-key path)
    lookup          broadcast dimension lookup (no-shuffle join)
    media           multimodal binary columns (codec auto-probe)
    pdf             PDF/layout parse plumbing (auto-probe)
"""

from .extractor import ExtractSpans
from .explode import explode_spans

__all__ = ["ExtractSpans", "explode_spans"]
