"""gumbo_pp_ray — a Ray-Data-native main-content extraction engine.

A brand-new engine (NOT a port) with the query and extraction
capabilities of beached/gumbo_pp (reference at /root/reference), built
Ray-Data-first: ``ray.data.Dataset`` pipelines of ``map_batches`` over
zero-copy Arrow batches, extraction as a warm task stage that chunks
mega-documents in place (a pure map, no exchange), broadcast sides
read once per worker, checkpoint-resumable partitioned output.

Layers
------
``gumbo_pp_ray.html``       pure-Python per-document kernel: HTML5-ish
                            tokenizer + tree builder, DFS node walker,
                            selector algebra, text extraction
                            (reference semantics: gumbo_pp's
                            gumbo_node_iterator / gumbo_matchers /
                            gumbo_text surfaces).
``gumbo_pp_ray.stages``     Ray Data batch transforms (assemble,
                            extract task stage, dedup, text analysis,
                            similarity, media).
``gumbo_pp_ray.sources``    read/write with resumable partition layout.
``gumbo_pp_ray.pipelines``  end-to-end pipelines + synthetic corpus.
``gumbo_pp_ray.functions``  scalar/batch helper functions (pyarrow
                            pre-filters, hashing).
``gumbo_pp_ray.state``      the per-worker broadcast cache for
                            small sides, stage sizing and the
                            bucketed exchange.
"""

__version__ = "0.1.0"
