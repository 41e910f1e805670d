"""Correctness gate run after every benchmark measurement.

It fails the run on any mismatch with the program's pinned behaviour:
the classifier gold file, the hand-written normalization pairs and the
pinned corpus statistics of the acceptance suite, and three invariants
checked on a seeded subset of generated documents.  Returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import random

import lggnorm.apply as apply
import lggnorm.classify as classify
import lggnorm.resources as resources
import lggnorm.stats as stats
import lggnorm.tokenizer as tokenizer

import gen

NORMALIZATION_PAIRS = (
    ("영화 잼있어요", "영화 재미있어요"),
    ("이 상품을 강추합니다", "이 상품을 강력 추천합니다"),
    ("효과가 넘 좋아요", "효과가 너무 좋아요"),
    ("안녕하세욤", "안녕하세요"),
    ("초콜렛향기", "초콜릿향기"),
    ("짱 멋있다", "진짜 멋있다"),
    ("텔레비", "텔레비전"),
)

# (tokens, types, non-analyzable types, ratio) of the bundled corpora
PINNED_STATS = {
    "formal_sample.txt": (307, 113, 2, "1.8"),
    "informal_sample.txt": (312, 125, 27, "21.6"),
}

INVARIANT_DOCS = 24


def lossless(text: str) -> bool:
    """Token surfaces sit at their byte offsets and only whitespace lies
    between them."""
    data = text.encode("utf-8")
    prev = 0
    for tok in tokenizer.tokenize(text):
        if data[tok.start:tok.end].decode("utf-8") != tok.surface:
            return False
        if data[prev:tok.start].decode("utf-8").strip():
            return False
        prev = tok.end
    return not data[prev:].decode("utf-8").strip()


def check(seed: int, items: list[tuple[str, str, str]]) -> list[str]:
    failures: list[str] = []
    lexicon = resources.load_lexicon()
    library = resources.load_grammar_library()
    res = resources.load_classifier_resources(lexicon, library)

    gold = {}
    for line in resources.corpus_path("informal_gold.tsv").read_text(
            encoding="utf-8").splitlines():
        if line.strip():
            parts = line.split("\t") + ["", ""]
            gold[parts[0]] = (parts[1], parts[2])
    informal = resources.corpus_path("informal_sample.txt").read_text(encoding="utf-8")
    got = {r.token.surface: (r.primary.value, r.suggestion or "")
           for r in classify.classify_corpus(tokenizer.tokenize(informal), res).results}
    if got != gold:
        wrong = sorted(k for k in gold.keys() | got.keys() if gold.get(k) != got.get(k))
        failures.append(f"classifier gold: {len(wrong)} of {len(gold)} types differ: {wrong[:5]}")

    for source, expected in NORMALIZATION_PAIRS:
        out = apply.normalize(source, library.fsts, lexicon)
        if out != expected:
            failures.append(f"normalize {source!r} -> {out!r}, wanted {expected!r}")

    for name, pinned in PINNED_STATS.items():
        text = resources.corpus_path(name).read_text(encoding="utf-8")
        s = stats.corpus_stats(tokenizer.tokenize(text), lexicon)
        got_stats = (s.token_count, s.type_count, s.non_analyzable_types, s.ratio_str)
        if got_stats != pinned:
            failures.append(f"stats {name}: {got_stats} != {pinned}")

    rng = random.Random(f"gate:{seed}")
    docs = [text for _, text, _ in rng.sample(gen.normalize_docs(seed), INVARIANT_DOCS)]
    own = [text for _, text, _ in rng.sample(items, min(INVARIANT_DOCS, len(items)))]
    for text in docs + own:
        if not lossless(text):
            failures.append(f"tokenizer not lossless on {text[:40]!r}")
    for text in docs:
        matches = apply.find_matches(text, library.fsts, lexicon)
        merged = apply.transform(text, matches, apply.Mode.MERGE)
        if apply.strip_merge(merged) != text:
            failures.append(f"MERGE strip differs from source {text[:40]!r}")
        once = apply.normalize(text, library.fsts, lexicon)
        if apply.normalize(once, library.fsts, lexicon) != once:
            failures.append(f"REPLACE not idempotent on {text[:40]!r}")
    return failures
