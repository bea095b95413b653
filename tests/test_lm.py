"""Bigram-LM perplexity tests: exact agreement with a pure-Python
reference model, quality ordering on natural vs shuffled text, and
the driver-side model bounds."""

import math

import numpy as np
import pyarrow as pa
import pytest


CORPUS = [
    "the cat sat on the mat and the dog sat on the rug",
    "the dog ran to the cat and the cat ran to the mat",
    "a cat and a dog sat on a mat in the sun",
    "the sun was warm and the mat was soft under the cat",
] * 5


def _mk_docs(texts, start=0):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(start, start + len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


def _ref_model(texts, vocab_min, bg_min):
    from collections import Counter
    uni = Counter()
    for t in texts:
        uni.update(t.split())
    vocab = sorted(t for t, n in uni.items() if n >= vocab_min)
    vset = set(vocab)
    bg = Counter()
    for t in texts:
        toks = ["<unk>" if w not in vset else w for w in t.split()]
        bg.update(zip(toks[:-1], toks[1:]))
    bg = {k: n for k, n in bg.items() if n >= bg_min}
    return vocab, {t: uni[t] for t in vocab}, bg


def _ref_ppl(text, vocab, uni, bg):
    vset = set(vocab)
    v = len(vocab)
    toks = ["<unk>" if w not in vset else w for w in text.split()]
    if len(toks) < 2:
        return 0
    unk_uni = sum(n for (a, _b), n in bg.items() if a == "<unk>")
    h = 0.0
    for a, b in zip(toks[:-1], toks[1:]):
        num = bg.get((a, b), 0) + 1.0
        den = (uni[a] if a != "<unk>" else unk_uni) + v + 1.0
        h -= math.log2(num / den)
    h /= len(toks) - 1
    return int(round(1000.0 * 2.0 ** h))


def test_perplexity_matches_reference(ray_session):
    from gumbo_pp_ray.stages.lm import perplexity_scores, train_bigram_lm

    model = train_bigram_lm(_mk_docs(CORPUS), vocab_min_count=2,
                            bigram_min_count=1)
    vocab, uni, bg = _ref_model(CORPUS, 2, 1)
    assert list(model["vocab"]) == vocab

    probes = ["the cat sat on the mat",
              "dog cat the on mat sat",
              "zzz qqq unseen words entirely",
              "single"]
    got = {r["doc_id"]: r["ppl_milli"]
           for r in perplexity_scores(_mk_docs(probes),
                                      model).take_all()}
    for i, p in enumerate(probes):
        assert got[i] == _ref_ppl(p, vocab, uni, bg), p


def test_natural_text_scores_below_garbage(ray_session):
    from gumbo_pp_ray.stages.lm import perplexity_scores, train_bigram_lm

    model = train_bigram_lm(_mk_docs(CORPUS), vocab_min_count=2,
                            bigram_min_count=1)
    probes = ["the cat sat on the mat and the dog ran to the sun",
              "mat the cat dog sun on and sat the ran the to the"]
    got = {r["doc_id"]: r["ppl_milli"]
           for r in perplexity_scores(_mk_docs(probes),
                                      model).take_all()}
    assert got[0] < got[1]               # natural order beats shuffled
    # short/empty docs: sentinel 0, never a crash
    got2 = perplexity_scores(_mk_docs(["", "one"]),
                             model).take_all()
    assert all(r["ppl_milli"] == 0 for r in got2)


def test_vocab_cap_is_deterministic(ray_session):
    from gumbo_pp_ray.stages.lm import train_bigram_lm

    m1 = train_bigram_lm(_mk_docs(CORPUS), vocab_min_count=1,
                         bigram_min_count=1, max_vocab=5)
    m2 = train_bigram_lm(_mk_docs(list(reversed(CORPUS))),
                         vocab_min_count=1, bigram_min_count=1,
                         max_vocab=5)
    assert len(m1["vocab"]) == 5
    assert list(m1["vocab"]) == list(m2["vocab"])   # order-invariant


def test_bigram_cap_bounds_driver_pull(ray_session):
    from gumbo_pp_ray.stages.lm import train_bigram_lm

    m = train_bigram_lm(_mk_docs(CORPUS), vocab_min_count=1,
                        bigram_min_count=1, max_bigrams=7)
    assert len(m["bg_keys"]) == 7
    m2 = train_bigram_lm(_mk_docs(list(reversed(CORPUS))),
                         vocab_min_count=1, bigram_min_count=1,
                         max_bigrams=7)
    assert list(m["bg_keys"]) == list(m2["bg_keys"])
