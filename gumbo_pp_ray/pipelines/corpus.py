"""Deterministic synthetic interleaved-document corpus.

Generates the engine's primary input shape (BASELINE.json input_hint /
FIXTURES.md §1)::

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string,
                        offset:int32>>

A document's HTML source is the concatenation of its span ``text``
fields in ``offset`` order; ``kind="media"`` spans carry their markup
in ``text`` and the canonical source identity in ``media_ref``.

Everything is seeded (default seed=42, FIXTURES.md §5) and built from
a fixed fragment vocabulary — no external data, no timestamps. A
configurable fraction of "mega-docs" (≥100x median span count)
exercises the extractor's in-kernel chunking skew path.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

_WORDS = ("data span table query batch ray arrow block shuffle actor "
          "stream parse node tree text media select strip merge sort "
          "offset group doc corpus lane train fast slow wide narrow").split()

_BOILER = (
    "<nav><ul><li><a href='/'>home</a></li><li><a href='/about'>about</a>"
    "</li></ul></nav>",
    "<script>var t = track('<div>fake</div>');</script>",
    "<style>.main{color:#222}</style>",
    "<aside class='sidebar'>widgets</aside>",
    "<header class='site-header'>site title</header>",
    "<footer>(c) example corp</footer>",
    "<div class='ad-banner'>BUY NOW</div>",
    "<form><input name='q'><button>go</button></form>",
)

SPANS_TYPE = pa.list_(pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
]))

SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", SPANS_TYPE)])


@dataclass
class CorpusSpec:
    num_docs: int = 200
    seed: int = 42
    min_spans: int = 1
    max_spans: int = 24
    mega_every: int = 97        # every Nth doc is a mega-doc (0 = none)
    mega_spans: int = 1500      # ≥100x median
    media_prob: float = 0.15
    boiler_prob: float = 0.25


def _sentence(rng: random.Random, lo=4, hi=14) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def _content_fragment(rng: random.Random, doc_id: str, i: int) -> tuple:
    """One self-contained block-level HTML fragment (kind='text' span)."""
    r = rng.random()
    if r < 0.12:
        frag = f"<h2>{_sentence(rng, 2, 5)}</h2>"
    elif r < 0.22:
        items = "".join(f"<li>{_sentence(rng, 2, 6)}</li>"
                        for _ in range(rng.randint(2, 4)))
        frag = f"<ul>{items}</ul>"
    elif r < 0.30:
        rows = "".join(
            f"<tr><td>{_sentence(rng, 1, 3)}</td><td>{rng.randint(0, 99)}</td></tr>"
            for _ in range(rng.randint(2, 3)))
        frag = f"<table><tbody>{rows}</tbody></table>"
    elif r < 0.36:
        frag = (f"<p>{_sentence(rng)} <a href='https://ex.com/{doc_id}/{i}'>"
                f"{_sentence(rng, 1, 2)}</a> {_sentence(rng, 2, 6)}</p>")
    else:
        frag = f"<p>{_sentence(rng)}</p>"
    return ("text", frag, "")


def _media_fragment(rng: random.Random, doc_id: str, i: int) -> tuple:
    if rng.random() < 0.7:
        ref = f"img://{doc_id}/p{i}.jpg"
        return ("media", f"<img src='{ref}'>", ref)
    ref = f"vid://{doc_id}/v{i}.mp4"
    return ("media", f"<video src='{ref}'></video>", ref)


def gen_doc(rng: random.Random, doc_id: str, n_spans: int,
            spec: CorpusSpec) -> list[dict]:
    spans = [("text", f"<html><head><title>{doc_id}</title></head><body>", "")]
    for i in range(n_spans):
        r = rng.random()
        if r < spec.media_prob:
            spans.append(_media_fragment(rng, doc_id, i))
        elif r < spec.media_prob + spec.boiler_prob:
            spans.append(("text", rng.choice(_BOILER), ""))
        else:
            spans.append(_content_fragment(rng, doc_id, i))
    spans.append(("text", "</body></html>", ""))
    return [{"kind": k, "text": t, "media_ref": m, "offset": i}
            for i, (k, t, m) in enumerate(spans)]


def gen_corpus(spec: CorpusSpec | None = None, **kw) -> pa.Table:
    """Deterministic corpus as one Arrow table (small scales / tests)."""
    spec = spec or CorpusSpec(**kw)
    rng = random.Random(spec.seed)
    ids, span_lists = [], []
    for n in range(spec.num_docs):
        doc_id = f"doc-{n:06d}"
        if spec.mega_every and n and n % spec.mega_every == 0:
            n_spans = spec.mega_spans
        else:
            n_spans = rng.randint(spec.min_spans, spec.max_spans)
        ids.append(doc_id)
        span_lists.append(gen_doc(rng, doc_id, n_spans, spec))
    return pa.table(
        {"doc_id": pa.array(ids, pa.string()),
         "spans": pa.array(span_lists, SPANS_TYPE)})


def write_corpus(out_dir: str, spec: CorpusSpec | None = None,
                 files: int = 8, **kw) -> str:
    """Write the corpus as ``files`` parquet shards (deterministic
    layout → resumable-run unit = one input file)."""
    spec = spec or CorpusSpec(**kw)
    os.makedirs(out_dir, exist_ok=True)
    table = gen_corpus(spec)
    n = table.num_rows
    per = max(1, (n + files - 1) // files)
    for i in range(0, n, per):
        pq.write_table(table.slice(i, per),
                       os.path.join(out_dir, f"part-{i // per:05d}.parquet"))
    return out_dir
