"""Text-analysis operators over a documents table.

Large-scale training-data pipeline primitives (driver brief): token
counting, quality scoring, language-ID, document fingerprinting. All
are ``map_batches`` transforms over Arrow batches; integer outputs are
used for oracle-checked columns (float hashing across engines is not
deterministic — integer ratios in "milli" units are).

Scale notes: every transform here is embarrassingly parallel (no
shuffle); string kernels run on Python lists built once per batch
(pandas ``str`` falls back to Python-per-row anyway for these ops);
stateful pieces (stopword profiles, compiled regexes) live in actor
``__init__``.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pyarrow as pa

from ..state.exchange import exchange, key_buckets


def token_stats(batch: pa.Table) -> pa.Table:
    """Whitespace token counts (oracle-checkable).

    Columns: n_chars, n_tokens, n_uniq_tokens,
    uniq_ratio_milli = 1000 * n_uniq // n_tokens (integer math).
    """
    texts = batch.column("text").to_pylist()
    n_chars, n_tokens, n_uniq, ratio = [], [], [], []
    for t in texts:
        toks = t.split()
        nt = len(toks)
        nu = len(set(toks))
        n_chars.append(len(t))
        n_tokens.append(nt)
        n_uniq.append(nu)
        ratio.append(1000 * nu // nt if nt else 0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_chars": pa.array(n_chars, pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
        "n_uniq_tokens": pa.array(n_uniq, pa.int64()),
        "uniq_ratio_milli": pa.array(ratio, pa.int64()),
    })


class QualityScore:
    """Heuristic quality components + a composite score.

    Integer components are exactly reproducible in SQL; the composite
    ``quality_milli`` uses only integer arithmetic so it is too:

        quality_milli = (400 * min(n_tokens, 200) // 200
                         + 300 * n_uniq // max(n_tokens, 1)
                         + 300 * n_alpha // max(n_chars, 1))
    """

    def __init__(self):
        self.alpha = re.compile(r"[A-Za-z]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        out = {"n_tokens": [], "n_uniq": [], "n_alpha": [], "n_chars": [],
               "quality_milli": []}
        findall = self.alpha.findall
        for t in texts:
            toks = t.split()
            nt, nu = len(toks), len(set(toks))
            nc = len(t)
            na = len(findall(t))
            q = (400 * min(nt, 200) // 200
                 + 300 * nu // max(nt, 1)
                 + 300 * na // max(nc, 1))
            out["n_tokens"].append(nt)
            out["n_uniq"].append(nu)
            out["n_alpha"].append(na)
            out["n_chars"].append(nc)
            out["quality_milli"].append(q)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            **{k: pa.array(v, pa.int64()) for k, v in out.items()},
        })


# tiny per-language stopword profiles (public common function words)
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "was"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "que", "dans"},
    "es": {"el", "la", "los", "de", "y", "un", "una", "es", "que", "en"},
    "de": {"der", "die", "das", "und", "ein", "eine", "ist", "nicht", "zu"},
    "zh": {"的", "了", "是", "在", "我", "有", "和", "不", "人", "这"},
}


class LangId:
    """n-gram/stopword-heuristic language ID (non-SQL-expressible →
    rows-only driver check). Profiles compiled once per actor."""

    def __init__(self, profiles=None):
        self.profiles = {k: frozenset(v)
                         for k, v in (profiles or _LANG_PROFILES).items()}

    def predict(self, text: str) -> str:
        toks = text.lower().split()
        if not toks:
            return "und"
        # char heuristic first: CJK presence
        if any("一" <= c <= "鿿" for c in text[:200]):
            return "zh"
        best, best_hits = "und", 0
        for lang, prof in self.profiles.items():
            hits = sum(1 for t in toks if t in prof)
            if hits > best_hits:
                best, best_hits = lang, hits
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.predict(t) for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang_pred": pa.array(preds, pa.string()),
        })


class Fingerprint:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken's
    local fingerprinting scheme, public SIGMOD'03 algorithm): rolling
    CRC32 over character k-grams, minimum per sliding window, distinct
    minima kept. Deterministic across processes (no PYTHONHASHSEED
    dependence). Output: one row per doc with the fingerprint list and
    its count."""

    def __init__(self, k: int = 8, window: int = 16):
        self.k = k
        self.window = window

    def fingerprints(self, text: str) -> list[int]:
        k, w = self.k, self.window
        data = text.encode("utf-8", "ignore")
        n = len(data)
        if n < k:
            return [zlib.crc32(data)] if n else []
        hs = [zlib.crc32(data[i:i + k]) for i in range(n - k + 1)]
        arr = np.asarray(hs, dtype=np.uint32)
        if len(arr) <= w:
            return [int(arr.min())]
        view = np.lib.stride_tricks.sliding_window_view(arr, w)
        mins = view.min(axis=1)
        out, last = [], None
        for m in mins:
            if m != last:
                out.append(int(m))
                last = m
        return sorted(set(out))

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = [self.fingerprints(t)
               for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "fingerprints": pa.array(fps, pa.list_(pa.int64())),
            "n_fingerprints": pa.array([len(f) for f in fps], pa.int64()),
        })


def word_jaccard_vs_query(batch: pa.Table, *, query_tokens: frozenset
                          ) -> pa.Table:
    """Distinct-word Jaccard similarity of every document against a
    fixed query token set — integer outputs, exactly SQL-reproducible
    (list_distinct + list_intersect in DuckDB)."""
    texts = batch.column("text").to_pylist()
    n_inter, n_union, milli = [], [], []
    for t in texts:
        s = set(t.split())
        i = len(s & query_tokens)
        u = len(s | query_tokens)
        n_inter.append(i)
        n_union.append(u)
        milli.append(1000 * i // u if u else 0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_inter": pa.array(n_inter, pa.int64()),
        "n_union": pa.array(n_union, pa.int64()),
        "jaccard_milli": pa.array(milli, pa.int64()),
    })


def _partial_token_counts(batch: pa.Table) -> pa.Table:
    """Combiner: per-batch token counts (one row per distinct token per
    batch) — the pre-aggregation that keeps the groupby exchange
    proportional to vocabulary, not corpus size."""
    from collections import Counter
    c = Counter()
    for t in batch.column("text").to_pylist():
        if t:                         # null/empty text contributes nothing
            c.update(t.split())
    return pa.table({
        "tok": pa.array(list(c.keys()), pa.string()),
        "partial": pa.array(list(c.values()), pa.int64()),
    })


def frequent_tokens(ds, *, min_count: int = 100):
    """Heavy hitters: tokens appearing at least ``min_count`` times
    corpus-wide → (tok, n). map_batches combiner → groupby(tok) sum →
    threshold filter (a threshold, not top-k, so the result set is
    deterministic under count ties)."""
    import ray.data
    partials = ds.map_batches(_partial_token_counts,
                              batch_format="pyarrow")
    totals = partials.groupby("tok").aggregate(
        ray.data.aggregate.Sum("partial", alias_name="n"))
    return totals.filter(expr=f"n >= {int(min_count)}")


def hash_sample(batch: pa.Table, *, rate: float, key_col: str = "doc_id",
                salt: str = "42") -> pa.Table:
    """Deterministic hash sampling: keep a row iff the first 8 hex
    chars of md5(salt:key) fall below rate*16^8 — the standard
    reproducible-split technique (same key → same side on every run,
    any machine, any partitioning; no RNG state). Lowercase-hex string
    comparison equals numeric comparison, so the oracle is a plain
    SQL substr(md5(...)) < 'threshold' predicate.
    """
    import hashlib
    threshold = format(int(rate * 16 ** 8), "08x")
    keys = batch.column(key_col).to_pylist()
    keep = [hashlib.md5(f"{salt}:{k}".encode()).hexdigest()[:8] < threshold
            for k in keys]
    return batch.filter(pa.array(keep, pa.bool_()))


def _stratum_top_k(group: pa.Table, *, k: int, key_col: str,
                   salt: str) -> pa.Table:
    """One stratum: keep the k rows with the smallest
    (md5(salt:id), id) rank — deterministic under any partitioning."""
    import hashlib
    ids = group.column(key_col).to_pylist()
    ranked = sorted(
        range(len(ids)),
        key=lambda i: (hashlib.md5(f"{salt}:{ids[i]}".encode())
                       .hexdigest(), ids[i]))
    return group.take(pa.array(sorted(ranked[:k]), pa.int64()))


def _stratum_top_k_partial(batch: pa.Table, *, k: int,
                           stratum_col: str, key_col: str,
                           salt: str) -> pa.Table:
    """Per-block combiner: at most k rows PER STRATUM survive each
    block, so the merge shuffle moves ≤ k x strata x blocks rows
    instead of the whole corpus.  Top-k of a union is the top-k of
    per-part top-ks, so the combine is lossless."""
    strata = batch.column(stratum_col).to_pylist()
    keep: list = []
    by_stratum: dict = {}
    for i, s in enumerate(strata):
        by_stratum.setdefault(s, []).append(i)
    for rows in by_stratum.values():
        sub = batch.take(pa.array(rows, pa.int64()))
        kept = _stratum_top_k(sub, k=k, key_col=key_col, salt=salt)
        keep.append(kept)
    return pa.concat_tables(keep) if keep else batch.slice(0, 0)


def stratified_sample(ds, *, stratum_col: str = "lang", k: int = 20,
                      key_col: str = "doc_id", salt: str = "42",
                      num_partitions: int | None = None):
    """Deterministic k-per-stratum sampling: within each stratum keep
    the k members with the smallest md5(salt:key) rank.  Same keys on
    every run and partitioning (no RNG state), and SQL-reproducible:
    ``row_number() OVER (PARTITION BY stratum ORDER BY md5(...), key)
    <= k``.

    Scale shape: a per-block combiner keeps ≤ k rows per stratum per
    block BEFORE the shuffle (top-k of a union = top-k of per-part
    top-ks), so the stratum merge group holds ≤ k x blocks rows —
    never a whole stratum.  Without the combiner a popular stratum
    (e.g. lang='en' at web scale) would ship its ENTIRE row set into
    one map_groups call."""
    import functools
    partial = ds.map_batches(
        functools.partial(_stratum_top_k_partial, k=k,
                          stratum_col=stratum_col, key_col=key_col,
                          salt=salt),
        batch_format="pyarrow")
    gb = (partial.groupby(stratum_col, num_partitions=num_partitions)
          if num_partitions else partial.groupby(stratum_col))
    return gb.map_groups(
        functools.partial(_stratum_top_k, k=k, key_col=key_col,
                          salt=salt),
        batch_format="pyarrow")


def repetition_stats(batch: pa.Table, *, n: int = 3) -> pa.Table:
    """Gopher-style repetition signals (public Rae et al. 2021 rules,
    adapted to integer math): per document,

    * ``n_grams`` — word n-gram instances,
    * ``n_dup_grams`` — instances whose n-gram occurs more than once
      within the document,
    * ``dup_gram_milli`` — 1000 * n_dup_grams // max(n_grams, 1).

    Boilerplate-heavy or looping machine text scores high; pure map,
    SQL-reproducible."""
    ids = batch.column("doc_id")
    texts = batch.column("text").to_pylist()
    n_grams, n_dup, milli = [], [], []
    for t in texts:
        toks = t.split()
        total = max(len(toks) - n + 1, 0)
        counts: dict = {}
        for i in range(total):
            g = " ".join(toks[i:i + n])
            counts[g] = counts.get(g, 0) + 1
        dup = sum(c for c in counts.values() if c > 1)
        n_grams.append(total)
        n_dup.append(dup)
        milli.append(1000 * dup // total if total else 0)
    return pa.table({
        "doc_id": ids,
        "n_grams": pa.array(n_grams, pa.int64()),
        "n_dup_grams": pa.array(n_dup, pa.int64()),
        "dup_gram_milli": pa.array(milli, pa.int64()),
    })


def _topk_tokens_group(group: pa.Table, *, k: int, group_col: str
                       ) -> pa.Table:
    """One group's (token, n) rows → top-k by (n desc, token asc)."""
    t = group.sort_by([("n", "descending"), ("token", "ascending")])
    out = t.slice(0, k)
    return pa.table({
        group_col: out.column(group_col),
        "token": out.column("token"),
        "n": out.column("n"),
        "rank": pa.array(np.arange(1, out.num_rows + 1), pa.int64()),
    })


def top_tokens_by_group(ds, *, group_col: str = "lang", k: int = 5):
    """Per-group token leaderboard: batch-local (group, token)
    pre-aggregation → groupby((group, token)).sum → per-group top-k
    with a total order (count desc, token asc).  The exchange carries
    (group, token, count) — bounded by vocabulary x groups, never
    token occurrences."""
    def combine(batch: pa.Table) -> pa.Table:
        groups = batch.column(group_col).to_pylist()
        texts = batch.column("text").to_pylist()
        counts: dict = {}
        for g, t in zip(groups, texts):
            for tok in t.split():
                key = (g, tok)
                counts[key] = counts.get(key, 0) + 1
        return pa.table({
            group_col: pa.array([g for g, _ in counts], pa.string()),
            "token": pa.array([t for _, t in counts], pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    import functools
    import ray.data
    summed = (ds.map_batches(combine, batch_format="pyarrow")
                .groupby([group_col, "token"])
                .aggregate(ray.data.aggregate.Sum("n", alias_name="n")))

    def partial_topk(batch: pa.Table) -> pa.Table:
        # per-block combiner: after the Sum aggregate each (group,
        # token) is globally unique, so block-local top-k per group is
        # LOSSLESS and the final merge group holds ≤ k x blocks rows —
        # never a whole language's vocabulary (the unbounded-group
        # trap at web scale).  rank is dropped (recomputed at merge).
        groups = batch.column(group_col).to_pylist()
        idx_by_g: dict = {}
        for i, g in enumerate(groups):
            idx_by_g.setdefault(g, []).append(i)
        parts = []
        for rows in idx_by_g.values():
            sub = batch.take(pa.array(rows, pa.int64()))
            parts.append(sub.sort_by(
                [("n", "descending"), ("token", "ascending")])
                .slice(0, k))
        return (pa.concat_tables(parts) if parts
                else batch.slice(0, 0))

    return summed.map_batches(
        partial_topk, batch_format="pyarrow").groupby(
        group_col).map_groups(
        functools.partial(_topk_tokens_group, k=k, group_col=group_col),
        batch_format="pyarrow")


def normalize_text(batch: pa.Table, *, form: str = "NFC",
                   lowercase: bool = True,
                   collapse_ws: bool = True) -> pa.Table:
    """Training-data text normalization: Unicode normalization form
    (NFC/NFKC — the standard pre-tokenization step), optional
    lowercasing and whitespace collapse.  Emits the normalized text
    plus its md5 (the join/dedup key downstream normalizers want).
    Pure map; DuckDB's nfc_normalize/lower reproduce it exactly."""
    import hashlib
    import unicodedata
    texts = batch.column("text").to_pylist()
    out, hashes = [], []
    for t in texts:
        s = unicodedata.normalize(form, t)
        if lowercase:
            s = s.lower()
        if collapse_ws:
            s = " ".join(s.split())
        out.append(s)
        hashes.append(hashlib.md5(s.encode("utf-8")).hexdigest())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "norm_text": pa.array(out, pa.string()),
        "norm_hash": pa.array(hashes, pa.string()),
    })


#: PII redaction rules, applied IN ORDER (later patterns run over the
#: already-redacted text, so counts compose sequentially).  RE2-only
#: syntax — pyarrow.compute and DuckDB both run RE2, which is what
#: makes the scrub exactly SQL-reproducible.
PII_RULES: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ip", r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    ("phone", r"\+?\d[\d -]{7,}\d", "<PHONE>"),
]


def scrub_pii(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Training-data PII scrub (the C4/ROOTS-style hygiene pass, a
    public preprocessing convention): redact emails, IPv4 addresses
    and phone-like digit runs to typed placeholder tokens, in a fixed
    rule order.  Fully vectorized — one
    ``pyarrow.compute.replace_substring_regex`` +
    ``count_substring_regex`` pair per rule over the whole Arrow
    column, no Python loop.  Output: scrubbed text + per-rule and
    total redaction counts (the audit numbers a removal pass must
    report)."""
    import pyarrow.compute as pc
    arr = batch.column(text_col)
    cols: dict = {"doc_id": batch.column("doc_id")}
    total = None
    for name, pat, repl in PII_RULES:
        c = pc.cast(pc.count_substring_regex(arr, pattern=pat),
                    pa.int64())
        cols[f"n_{name}"] = c
        total = c if total is None else pc.add(total, c)
        arr = pc.replace_substring_regex(arr, pattern=pat,
                                         replacement=repl)
    cols["scrubbed"] = arr
    cols["n_redactions"] = total
    return pa.table(cols)


def chunk_documents(batch: pa.Table, *, chunk_tokens: int = 128,
                    overlap: int = 32) -> pa.Table:
    """Sliding-window chunking — the embed/train preprocessing step:
    each doc's whitespace tokens are windowed into chunks of
    ``chunk_tokens`` starting every ``chunk_tokens - overlap`` tokens
    (consecutive chunks share ``overlap`` tokens; the last chunk may be
    shorter; empty docs emit no chunks).  Pure map — chunking is
    per-doc, so the stage adds rows without any exchange; integer
    chunk_idx and token counts keep it exactly SQL-reproducible."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError(
            f"need 0 <= overlap < chunk_tokens, got {overlap} / "
            f"{chunk_tokens}")
    step = chunk_tokens - overlap
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out_id, out_idx, out_text, out_n = [], [], [], []
    for i, t in zip(ids, texts):
        toks = t.split()
        for start in range(0, len(toks), step):
            window = toks[start:start + chunk_tokens]
            out_id.append(i)
            out_idx.append(start // step)
            out_text.append(" ".join(window))
            out_n.append(len(window))
    return pa.table({
        "doc_id": pa.array(out_id),
        "chunk_idx": pa.array(out_idx, pa.int64()),
        "chunk_text": pa.array(out_text, pa.string()),
        "n_tokens": pa.array(out_n, pa.int64()),
    })


# ------------------------------------------------- corpus line dedup

def _line_rows(batch: pa.Table, *, tokens_per_line: int,
               num_buckets: int) -> pa.Table:
    """Docs → one row per derived line (consecutive
    ``tokens_per_line``-token groups of ``text.split()``), keyed by a
    line-hash bucket: (bucket, doc_id, line_idx, line)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out_id, out_idx, out_line = [], [], []
    for i, t in zip(ids, texts):
        toks = t.split()
        for j in range(0, len(toks), tokens_per_line):
            out_id.append(i)
            out_idx.append(j // tokens_per_line)
            out_line.append(" ".join(toks[j:j + tokens_per_line]))
    return pa.table({
        "bucket": pa.array(key_buckets(out_line, num_buckets=num_buckets)),
        "doc_id": pa.array(out_id, pa.int64()),
        "line_idx": pa.array(out_idx, pa.int64()),
        "line": pa.array(out_line, pa.string()),
    })


def _mark_dup_lines(group: pa.Table, *, max_docs: int,
                    num_buckets: int) -> pa.Table:
    """One line-hash bucket: flag every occurrence of a line that
    appears in more than ``max_docs`` distinct docs.  Vectorized:
    Arrow sort by (line, doc_id), run bounds by shifted inequality,
    distinct-doc counts via reduceat over doc-boundary marks.  Output
    rows re-keyed by DOC bucket for the rebuild co-group."""
    t = group.sort_by([("line", "ascending"), ("doc_id", "ascending")])
    n = t.num_rows
    line = t.column("line")
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    if n == 0:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "line_idx": pa.array([], pa.int64()),
                         "line": pa.array([], pa.string()),
                         "kept": pa.array([], pa.int8())})
    import pyarrow.compute as pc
    new_line = np.ones(n, dtype=bool)
    if n > 1:
        new_line[1:] = pc.not_equal(
            line.slice(1), line.slice(0, n - 1)).to_numpy(
            zero_copy_only=False)
    new_doc = np.ones(n, dtype=bool)
    if n > 1:
        new_doc[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new_line)
    # distinct docs per line run = count of doc boundaries in the run
    nd = np.add.reduceat((new_line | new_doc).astype(np.int64), starts)
    run_id = np.cumsum(new_line) - 1
    kept = (nd <= max_docs)[run_id]
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "doc_id": t.column("doc_id"),
        "line_idx": t.column("line_idx"),
        "line": line,
        "kept": pa.array(kept.astype(np.int8)),
    })


def _doc_anchor_rows_line(batch: pa.Table, *, num_buckets: int
                          ) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    n = len(ids)
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "doc_id": pa.array(ids.astype(np.int64)),
        "line_idx": pa.array(np.full(n, -1, dtype=np.int64)),
        "line": pa.array([""] * n, pa.string()),
        "kept": pa.array(np.full(n, -1, dtype=np.int8)),
    })


def _rebuild_docs_group(group: pa.Table) -> pa.Table:
    """One doc-hash bucket: per doc, kept lines joined by newline in
    line_idx order + removed-line count.  Anchor rows (kept=-1)
    guarantee every doc appears, even fully-removed or empty ones."""
    import hashlib
    t = group.sort_by([("doc_id", "ascending"),
                       ("line_idx", "ascending")])
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    kept = t.column("kept").to_numpy(zero_copy_only=False)
    lines = t.column("line").to_pylist()
    out_id, out_text, out_hash, out_rm = [], [], [], []
    lo = 0
    n = len(ids)
    while lo < n:
        hi = lo
        while hi < n and ids[hi] == ids[lo]:
            hi += 1
        doc_lines = [lines[j] for j in range(lo, hi) if kept[j] == 1]
        n_rm = int((kept[lo:hi] == 0).sum())
        text = "\n".join(doc_lines)
        out_id.append(int(ids[lo]))
        out_text.append(text)
        out_hash.append(hashlib.md5(text.encode("utf-8")).hexdigest())
        out_rm.append(n_rm)
        lo = hi
    return pa.table({
        "doc_id": pa.array(out_id, pa.int64()),
        "out_text": pa.array(out_text, pa.string()),
        "out_hash": pa.array(out_hash, pa.string()),
        "n_removed": pa.array(out_rm, pa.int64()),
    })


def line_dedup(ds, *, tokens_per_line: int = 8, max_docs: int = 1,
               num_partitions: int = 16):
    """Corpus-level line deduplication (the C4/CCNet hygiene step:
    drop boilerplate lines repeated across documents).  Lines are
    consecutive ``tokens_per_line``-token groups of ``text.split()``
    (real corpora would split on newlines; the derivation keeps the
    operator exactly SQL-reproducible over the newline-free synthetic
    corpus).  EVERY occurrence of a line appearing in more than
    ``max_docs`` distinct docs is removed; docs are rebuilt from their
    kept lines in order (newline-joined) with a removed count.

    Scale shape — two bucketed co-groups, no broadcast, no driver
    state, mirrors corpus_stats.decontaminate_shuffle:

    1. line-hash co-group: all occurrences of a line necessarily meet;
       distinct-doc counts are one Arrow sort + two shifted-equality
       masks + one ``reduceat`` per bucket;
    2. doc-hash co-group: kept lines reassemble per doc (the line
       strings ride the exchange because the rebuild needs them
       anyway — re-reading the docs would cost more than shipping
       the lines once); anchor rows keep empty/fully-removed docs
       present.

    Output: (doc_id, out_text, out_hash, n_removed)."""
    import functools
    rows = ds.map_batches(
        functools.partial(_line_rows, tokens_per_line=tokens_per_line,
                          num_buckets=num_partitions),
        batch_format="pyarrow")
    marked = exchange(rows, functools.partial(
        _mark_dup_lines, max_docs=max_docs, num_buckets=num_partitions),
        num_partitions=num_partitions)
    anchors = ds.select_columns(["doc_id"]).map_batches(
        functools.partial(_doc_anchor_rows_line,
                          num_buckets=num_partitions),
        batch_format="pyarrow")
    return exchange(anchors.union(marked), _rebuild_docs_group,
                    num_partitions=num_partitions)
