"""Seeded input generators and their oracles.

Every workload's inputs are a pure function of ``(workload, seed)``.
Each generator also returns the expected result, derived from what it
planted (never from running the engine):

* pages (``extract_pages``, ``crawl_waves``): the exact
  ``(kind, text, media_ref, offset)`` span sequence of every document,
  built block by block alongside the HTML that encodes it;
* ``select_rare``: the documents that carry the needle, and the
  decoded paragraph text each match must report;
* ``dedup_near``: the exact-duplicate groups and the planted
  near-duplicate pairs, with their true shingle Jaccard.

Pure Python + pyarrow; nothing here imports Ray or the engine.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

SPAN_TYPE = pa.struct([("kind", pa.string()), ("text", pa.string()),
                       ("media_ref", pa.string()), ("offset", pa.int32())])
INTERLEAVED = pa.schema([("doc_id", pa.string()),
                         ("spans", pa.list_(SPAN_TYPE))])

#: Input sizes.  Chosen so one timed job takes about 2-4 s with a
#: one-actor pool, and a 16 s run holds about five of them.
SIZES = {
    "extract_pages": {"mb": 4.0},
    "crawl_waves": {"waves": 3, "files_per_wave": 2, "unique_per_file": 60,
                    "near_dups_per_file": 16, "far_dups_per_file": 4,
                    "oversize_per_wave": 2, "error_per_wave": 1,
                    "mega_per_wave": 1,
                    "max_doc_bytes": 48_000, "split_threshold": 64},
    "select_rare": {"docs": 12000, "needle_frac": 0.01},
    "dedup_near": {"docs": 3000, "dup_groups": 60, "near_pairs": 60},
}

# entity spelling → decoded text (all decoded by every HTML5 parser)
_ENTITIES = (("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
             ("&quot;", '"'), ("&#39;", "'"), ("&#233;", "é"),
             ("&eacute;", "é"), ("&copy;", "©"),
             ("&#x4E2D;", "中"))

_SYLLABLES = ("ka lo mi nu re sa ti vo ze bu da fe gi ho ju ly "
              "ma ne po ru si to va we xi yo zu ba ce di").split()


def vocabulary(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct lowercase words of 2-4 syllables."""
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choice(_SYLLABLES)
                          for _ in range(rng.randint(2, 4))))
    return sorted(words)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ------------------------------------------------------------------ pages

class PageMaker:
    """Builds one page as a list of HTML blocks plus the span sequence
    the extractor must emit for it.  Each block is self-contained, so a
    document split at block boundaries (the in-actor chunking path)
    extracts to the same sequence."""

    def __init__(self, rng: random.Random, words: list[str], doc_id: str):
        self.rng = rng
        self.words = words
        self.doc_id = doc_id
        self.blocks: list[str] = []
        self.spans: list[tuple[str, str, str]] = []
        self.n_media = 0

    def _phrase(self, lo: int, hi: int, entities: bool = False
                ) -> tuple[str, str]:
        """(html, decoded text) of a run of words, single-spaced."""
        rng = self.rng
        words = rng.choices(self.words, k=rng.randint(lo, hi))
        if not entities:
            text = " ".join(words)
            return text, text
        html, text = [], []
        for w in words:
            if rng.random() < 0.08:
                enc, dec = rng.choice(_ENTITIES)
                html.append(w + enc)
                text.append(w + dec)
            else:
                html.append(w)
                text.append(w)
        return " ".join(html), " ".join(text)

    def content_block(self):
        rng = self.rng
        r = rng.random()
        if r < 0.12:
            h, t = self._phrase(2, 6)
            lvl = rng.randint(1, 4)
            self.blocks.append(f"<h{lvl}>{h}</h{lvl}>")
            self.spans.append(("heading", t, ""))
        elif r < 0.45:
            # paragraph with inline markup flowing into one span
            h1, t1 = self._phrase(3, 14, entities=True)
            h2, t2 = self._phrase(1, 3)
            h3, t3 = self._phrase(2, 14, entities=True)
            tag = rng.choice(("b", "em", "span class=\"hl\"", "i"))
            end = tag.split()[0]
            self.blocks.append(f"<p>{h1} <{tag}>{h2}</{end}> {h3}</p>")
            self.spans.append(("text", f"{t1} {t2} {t3}", ""))
        elif r < 0.53:
            # malformed: unclosed <p> closed by the next <p>, plus a
            # stray end tag the parser must ignore
            h1, t1 = self._phrase(3, 10, entities=True)
            h2, t2 = self._phrase(3, 10)
            self.blocks.append(f"<div><p>{h1}</span><p>{h2}</div>")
            self.spans.append(("text", t1, ""))
            self.spans.append(("text", t2, ""))
        elif r < 0.62:
            # list; every other one leaves its <li>s unclosed
            n = rng.randint(2, 5)
            items = [self._phrase(1, 6, entities=True) for _ in range(n)]
            close = "</li>" if rng.random() < 0.5 else ""
            self.blocks.append(
                "<ul>" + "".join(f"<li>{h}{close}" for h, _ in items)
                + "</ul>")
            self.spans.extend(("list_item", t, "") for _, t in items)
        elif r < 0.72:
            # prose around an inline link: text, link, text
            h1, t1 = self._phrase(2, 8)
            ha, ta = self._phrase(1, 4)
            h3, t3 = self._phrase(2, 8)
            href = f"/{self.doc_id}/l{len(self.spans)}"
            self.blocks.append(
                f"<p>{h1} <a href=\"{href}\">{ha}</a> {h3}</p>")
            self.spans.extend((("text", t1, ""), ("link", ta, href),
                               ("text", t3, "")))
        elif r < 0.82:
            src = f"img/{self.doc_id}/{self.n_media}.jpg"
            self.n_media += 1
            hc, tc = self._phrase(2, 8)
            self.blocks.append(f"<figure><img src=\"{src}\" alt=\"x\">"
                               f"<figcaption>{hc}</figcaption></figure>")
            self.spans.extend((("media", "", src), ("text", tc, "")))
        elif r < 0.90:
            n = rng.randint(1, 3)
            cells = [self._phrase(1, 4) for _ in range(2 * n)]
            rows = "".join(
                f"<tr><td>{cells[2 * i][0]}</td><td>{cells[2 * i + 1][0]}"
                f"</td></tr>" for i in range(n))
            self.blocks.append(f"<table>{rows}</table>")
            self.spans.extend(("table_cell", t, "") for _, t in cells)
        else:
            a, b = rng.choice(self.words), rng.choice(self.words)
            code = f"{a} = {b}(1);  {b}.run()"
            self.blocks.append(f"<pre>{code}</pre>")
            self.spans.append(("code", code, ""))

    def boilerplate_block(self):
        rng = self.rng
        h, _ = self._phrase(2, 6)
        self.blocks.append(rng.choice((
            f"<nav><ul><li><a href=\"/\">{h}</a></li></ul></nav>",
            f"<script>var s = '</div><p>{h}</p>'; track(s);</script>",
            f"<style>.{rng.choice(self.words)} {{ color: #222 }}</style>",
            f"<div class=\"ad-slot\"><p>{h}</p></div>",
            f"<aside><p>{h}</p></aside>",
            f"<!-- {h} -->",
            f"<div class=\"social share\"><a href=\"/s\">{h}</a></div>",
        )))

    def page(self, n_blocks: int, boiler_share: float) -> list[str]:
        """Full page: doctype, head, site header, article, footer.
        Returns the page split into input spans at block boundaries."""
        head_h, _ = self._phrase(2, 5)
        parts = [f"<!DOCTYPE html><html><head><title>{head_h}</title>"
                 f"<meta charset=\"utf-8\"><style>body {{ margin: 0 }}"
                 f"</style><script>var a = '<p>x</p>';</script></head>"
                 f"<body><header><nav><a href=\"/\">{head_h}</a></nav>"
                 f"</header><main><article>"]
        for _ in range(n_blocks):
            if self.rng.random() < boiler_share:
                self.boilerplate_block()
            self.content_block()
        parts.extend(self.blocks)
        parts.append(f"</article></main><footer>{head_h}</footer>"
                     f"</body></html>")
        return parts

    def fragment(self, n_blocks: int) -> list[str]:
        """Shell-less run of content blocks (one input span each)."""
        for _ in range(n_blocks):
            self.content_block()
        return list(self.blocks)


def span_rows(parts: list[str]) -> list[dict]:
    return [{"kind": "text", "text": p, "media_ref": "", "offset": i}
            for i, p in enumerate(parts)]


def expected_spans(spans: list[tuple[str, str, str]]) -> list[tuple]:
    return [(k, t, m, i) for i, (k, t, m) in enumerate(spans)]


def span_digest(spans) -> str:
    """Canonical digest of one document's span sequence (fields joined
    by unit separators, spans by record separators)."""
    return hashlib.sha256("\x1e".join(
        f"{k}\x1f{t}\x1f{m}\x1f{o}" for k, t, m, o in spans
    ).encode("utf-8", "surrogatepass")).hexdigest()


def _write_shards(table: pa.Table, out_dir: str):
    """``table`` split into 4 parquet shards of equal row count."""
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // 4)
    for f in range(4):
        pq.write_table(table.slice(f * step, step),
                       os.path.join(out_dir, f"part-{f:03d}.parquet"))


def gen_pages(seed: int, out_dir: str) -> dict:
    """``extract_pages``: unique web-like pages of log-normal size, until
    the input holds ``mb`` MB of HTML (so every seed parses about the
    same number of bytes)."""
    rng = _rng("extract_pages", seed)
    words = vocabulary(rng, 1500)
    target = SIZES["extract_pages"]["mb"] * 1e6
    ids, docs, oracle = [], [], {}
    in_bytes = 0
    while in_bytes < target:
        doc_id = f"p{seed}-{len(ids):05d}"
        b = PageMaker(rng, words, doc_id)
        n_blocks = max(3, min(150, int(rng.lognormvariate(math.log(22), 0.6))))
        parts = b.page(n_blocks, boiler_share=rng.uniform(0.05, 0.5))
        ids.append(doc_id)
        docs.append(span_rows(parts))
        oracle[doc_id] = span_digest(expected_spans(b.spans))
        in_bytes += sum(len(p.encode()) for p in parts)
    _write_shards(pa.table({"doc_id": ids, "spans": docs},
                           schema=INTERLEAVED), out_dir)
    return {"docs": len(ids), "input_bytes": in_bytes, "spans": oracle}


def gen_crawl(seed: int, out_dir: str) -> dict:
    """``crawl_waves``: shards with near and far exact duplicates,
    planted oversize and error rows in every wave and a few mega-docs.

    An error row is an ordinary page whose ``input_error`` column is
    set, as the WARC bridge marks a corrupt record: ``ExtractSpans``
    quarantines it when that column reaches it.  ``run_extraction``
    reads only ``doc_id`` and ``spans`` from parquet shards, so on that
    path the row must come out clean."""
    cfg = SIZES["crawl_waves"]
    rng = _rng("crawl_waves", seed)
    words = vocabulary(rng, 1500)
    os.makedirs(out_dir, exist_ok=True)
    oracle, oversize, errors = {}, [], []
    pool: list[tuple[list[dict], str]] = []     # earlier waves' payloads
    n_docs = in_bytes = 0
    for w in range(cfg["waves"]):
        this_wave = []
        for f in range(cfg["files_per_wave"]):
            rows: list[tuple[str, list[dict], str | None]] = []
            fresh = []
            for u in range(cfg["unique_per_file"]):
                doc_id = f"c{seed}-w{w}f{f}u{u:03d}"
                b = PageMaker(rng, words, doc_id)
                n_blocks = max(3, min(60, int(rng.lognormvariate(
                    math.log(12), 0.5))))
                parts = span_rows(b.page(n_blocks, 0.3))
                dig = span_digest(expected_spans(b.spans))
                rows.append((doc_id, parts, dig))
                fresh.append((parts, dig))
            # near duplicates: repeat a payload of this same shard,
            # a few rows later (inside the per-actor cache window)
            for d in range(cfg["near_dups_per_file"]):
                parts, dig = rng.choice(fresh)
                rows.insert(rng.randint(len(rows) // 2, len(rows)),
                            (f"c{seed}-w{w}f{f}n{d:03d}", parts, dig))
            # far duplicates: repeat a payload from an earlier wave
            # (a new wave is a new actor pool, so the cache is cold)
            for d in range(cfg["far_dups_per_file"]):
                if pool:
                    parts, dig = rng.choice(pool)
                    rows.insert(rng.randint(0, len(rows)),
                                (f"c{seed}-w{w}f{f}x{d:03d}", parts, dig))
            if f == 0:
                for m in range(cfg["mega_per_wave"]):
                    doc_id = f"c{seed}-w{w}m{m}"
                    b = PageMaker(rng, words, doc_id)
                    parts = span_rows(b.fragment(
                        cfg["split_threshold"] * 2 + rng.randint(1, 40)))
                    rows.insert(rng.randint(0, len(rows)),
                                (doc_id, parts,
                                 span_digest(expected_spans(b.spans))))
                for o in range(cfg["oversize_per_wave"]):
                    doc_id = f"c{seed}-w{w}o{o}"
                    blob = ("<p>" + " ".join(rng.choices(words, k=12_000))
                            + "</p>")
                    rows.insert(rng.randint(0, len(rows)),
                                (doc_id, span_rows([blob]), None))
                    oversize.append(doc_id)
                for e in range(cfg["error_per_wave"]):
                    doc_id = f"c{seed}-w{w}e{e}"
                    b = PageMaker(rng, words, doc_id)
                    parts = span_rows(b.page(8, 0.3))
                    rows.insert(rng.randint(0, len(rows)),
                                (doc_id, parts,
                                 span_digest(expected_spans(b.spans))))
                    errors.append(doc_id)
            this_wave.extend(fresh)
            for doc_id, parts, dig in rows:
                if dig is not None:
                    oracle[doc_id] = dig
                in_bytes += sum(len(p["text"].encode()) for p in parts)
            n_docs += len(rows)
            pq.write_table(
                pa.table({"doc_id": [r[0] for r in rows],
                          "spans": [r[1] for r in rows],
                          "input_error": [
                              "planted: truncated record"
                              if r[0] in errors else None for r in rows]},
                         schema=INTERLEAVED.append(
                             pa.field("input_error", pa.string()))),
                os.path.join(out_dir, f"shard-w{w}-f{f}.parquet"))
        pool.extend(this_wave)
    return {"docs": n_docs, "input_bytes": in_bytes, "spans": oracle,
            "oversize": sorted(oversize), "errors": sorted(errors)}


def gen_select(seed: int, out_dir: str) -> dict:
    """``select_rare``: documents-shaped rows; ~1% carry the needle,
    a third of those only entity-encoded."""
    cfg = SIZES["select_rare"]
    rng = _rng("select_rare", seed)
    words = vocabulary(rng, 2000)
    # the vocabulary is syllables of letters only; a digit keeps the
    # needle out of every generated word
    needle = "q" + "".join(rng.choice("xzkv") for _ in range(4)) + "7"
    n = cfg["docs"]
    n_hits = max(1, round(n * cfg["needle_frac"]))
    hit_ids = set(rng.sample(range(n), n_hits))
    ids, texts, langs, sources, n_chars = [], [], [], [], []
    matches = {}
    for i in range(n):
        ws = [rng.choice(words) for _ in range(rng.randint(30, 90))]
        decoded = list(ws)
        if i in hit_ids:
            pos = rng.randrange(len(ws))
            if rng.random() < 1 / 3:
                # encode one needle letter: only the decoded text
                # contains the needle
                k = rng.randrange(len(needle))
                ws.insert(pos, needle[:k] + f"&#{ord(needle[k])};"
                          + needle[k + 1:])
            else:
                ws.insert(pos, needle)
            decoded.insert(pos, needle)
            matches[str(i)] = " ".join(decoded)
        text = " ".join(ws)
        ids.append(i)
        texts.append(text)
        langs.append(rng.choice(("en", "de", "fr")))
        sources.append(rng.choice(("web", "news", "forum")))
        n_chars.append(len(text))
    _write_shards(pa.table({"doc_id": pa.array(ids, pa.int64()),
                            "text": texts, "lang": langs, "source": sources,
                            "n_chars": pa.array(n_chars, pa.int64())}),
                  out_dir)
    return {"docs": n, "input_bytes": sum(len(x.encode()) for x in texts),
            "needle": needle, "matches": matches}


def shingles(text: str, k: int = 3) -> set:
    ws = text.split()
    return {" ".join(ws[i:i + k]) for i in range(max(1, len(ws) - k + 1))}


def jaccard(a: str, b: str) -> float:
    sa, sb = shingles(a), shingles(b)
    return len(sa & sb) / len(sa | sb)


def gen_dedup(seed: int, out_dir: str) -> dict:
    """``dedup_near``: plain text with planted exact-duplicate groups
    and near-duplicate pairs (one word replaced: shingle Jaccard >=
    0.9); every other pair shares almost no 3-word shingle."""
    cfg = SIZES["dedup_near"]
    rng = _rng("dedup_near", seed)
    words = vocabulary(rng, 4000)
    n = cfg["docs"]
    texts: list[str | None] = [None] * n
    order = list(range(n))
    rng.shuffle(order)
    groups, pairs = [], []
    k = 0

    def fresh() -> str:
        return " ".join(rng.choice(words)
                        for _ in range(rng.randint(80, 140)))

    for _ in range(cfg["dup_groups"]):
        size = rng.randint(2, 4)
        members = sorted(order[k:k + size])
        k += size
        t = fresh()
        for m in members:
            texts[m] = t
        groups.append(members)
    for _ in range(cfg["near_pairs"]):
        a, b = sorted(order[k:k + 2])
        k += 2
        base = fresh()
        ws = base.split()
        # replace one word in the middle: 3 of ~100 shingles differ
        p = rng.randrange(3, len(ws) - 3)
        ws[p] = rng.choice([w for w in words[:50] if w != ws[p]])
        other = " ".join(ws)
        texts[a], texts[b] = base, other
        pairs.append((a, b, round(jaccard(base, other), 4)))
    for i in range(n):
        if texts[i] is None:
            texts[i] = fresh()
    _write_shards(pa.table({"doc_id": pa.array(range(n), pa.int64()),
                            "text": texts}), out_dir)
    return {"docs": n, "input_bytes": sum(len(x.encode()) for x in texts),
            "dup_groups": groups, "near_pairs": pairs}


GENERATORS = {"extract_pages": gen_pages, "crawl_waves": gen_crawl,
              "select_rare": gen_select, "dedup_near": gen_dedup}


def ensure_inputs(workload: str, seed: int, cache_root: str
                  ) -> tuple[str, dict]:
    """Generate (once per seed) the workload's input directory and
    oracle; returns ``(input_dir, oracle)``."""
    size = hashlib.md5(json.dumps(SIZES[workload], sort_keys=True)
                       .encode()).hexdigest()[:8]
    base = os.path.join(cache_root, f"{workload}-{seed}-{size}")
    inp, orc = os.path.join(base, "input"), os.path.join(base, "oracle.json")
    if os.path.exists(orc):
        with open(orc) as f:
            return inp, json.load(f)
    tmp = base + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    oracle = GENERATORS[workload](seed, os.path.join(tmp, "input"))
    with open(os.path.join(tmp, "oracle.json"), "w") as f:
        json.dump(oracle, f)
    shutil.rmtree(base, ignore_errors=True)
    os.replace(tmp, base)
    return inp, oracle
