"""Acceptance suite: every release criterion, one pass/fail line each."""

import random
import time

from lggnorm.apply import find_matches, normalize, strip_merge, transform, Mode
from lggnorm.classify import classify_corpus
from lggnorm.fst import EpsilonOnlyPath, compile_graph
from lggnorm.grammar import parse_graph, validate
from lggnorm.hangul import compose_syllable, decompose_syllable, from_jamo_seq, \
    iter_all_syllables, to_jamo_seq
from lggnorm.lexicon import DictEntry, Lexicon, Pos
from lggnorm.stats import CorpusStats, compare, corpus_stats
from lggnorm.tokenizer import tokenize
from oracles import BruteMatcher, enumerate_paths, random_graph_text, relation, text_to_symbols

PASSED = []


def report(criterion: int, description: str):
    line = f"ACCEPTANCE {criterion}: PASS - {description}"
    PASSED.append(line)
    print(line)


# 1 ------------------------------------------------------------------------

GOLD_PAIRS = [
    ("영화 잼있어요", "영화 재미있어요"),
    ("이 상품을 강추합니다", "이 상품을 강력 추천합니다"),
    ("효과가 넘 좋아요", "효과가 너무 좋아요"),
    ("안녕하세욤", "안녕하세요"),
    ("초콜렛향기", "초콜릿향기"),
    ("짱 멋있다", "진짜 멋있다"),
    ("텔레비", "텔레비전"),
]


def test_acceptance_1_normalization_gold_suite(library, lexicon):
    start = time.perf_counter()
    for source, expected in GOLD_PAIRS:
        got = normalize(source, library.fsts, lexicon)
        assert got == expected, f"{source!r} -> {got!r}, wanted {expected!r}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"gold suite took {elapsed:.3f}s"
    report(1, f"{len(GOLD_PAIRS)} normalization pairs byte-exact in {elapsed:.3f}s")


# 2 ------------------------------------------------------------------------

def test_acceptance_2_published_ratio_arithmetic():
    a = CorpusStats.from_counts(10488, 3967, 152)
    b = CorpusStats.from_counts(10608, 3792, 1062)
    assert a.ratio_str == "3.8"
    # 1062/3792 is 28.0% as computed; the formula is not adjusted to
    # reproduce a coarser published rounding of ~27%
    assert b.ratio_str == "28.0"
    report(2, "type-ratio arithmetic gives 3.8 and 28.0 (as computed)")


# 3 ------------------------------------------------------------------------

# pinned after first computation over the bundled corpora
FORMAL_GOLDEN = (307, 113, 2, "1.8")
INFORMAL_GOLDEN = (312, 125, 27, "21.6")


def test_acceptance_3_corpus_comparison(lexicon, formal_text, informal_text):
    f = corpus_stats(tokenize(formal_text), lexicon)
    i = corpus_stats(tokenize(informal_text), lexicon)
    assert f.token_count >= 300 and i.token_count >= 300
    assert (f.token_count, f.type_count, f.non_analyzable_types, f.ratio_str) == FORMAL_GOLDEN
    assert (i.token_count, i.type_count, i.non_analyzable_types, i.ratio_str) == INFORMAL_GOLDEN
    delta = compare(f, i).ratio_delta
    assert delta >= 10.0, f"informal - formal ratio delta {delta:.2f} < 10"
    report(3, f"informal ratio exceeds formal by {delta:.1f} points "
              f"({i.ratio_str}% vs {f.ratio_str}%)")


# 4 ------------------------------------------------------------------------

def test_acceptance_4_classifier_gold(classifier_resources, informal_text, gold_rows):
    start = time.perf_counter()
    out = classify_corpus(tokenize(informal_text), classifier_resources)
    elapsed = time.perf_counter() - start
    assert len(out.results) == len(gold_rows)
    for r in out.results:
        category, suggestion = gold_rows[r.token.surface]
        assert r.primary.value == category, \
            f"{r.token.surface}: {r.primary.value} != {category}"
        assert (r.suggestion or "") == suggestion, \
            f"{r.token.surface}: {r.suggestion!r} != {suggestion!r}"
    assert elapsed < 1.0, f"classifier gold run took {elapsed:.3f}s"
    report(4, f"{len(gold_rows)} gold types at 100% agreement in {elapsed:.3f}s")


# 5 ------------------------------------------------------------------------

def _relation_via_machine(fst, max_len):
    return {("".join(syms), out) for syms, out in relation(fst, max_len)}


def _relation_via_ir(g, library, max_len):
    return {("".join(text_to_symbols(i)), o)
            for i, o in enumerate_paths(g, library, max_len)}


def test_acceptance_5_fst_oracle_equivalence(library):
    start = time.perf_counter()
    helper_names = {n for g in library.graphs for n in g.subgraph_names()}
    checked = 0
    for g in library.graphs:
        if g.name in helper_names:
            continue
        fst = next(f for f in library.fsts if f.name == g.name)
        assert _relation_via_machine(fst, 12) == _relation_via_ir(g, library.graphs, 12), g.name
        checked += 1

    rng_graphs = 0
    seed = 0
    while rng_graphs < 100:
        seed += 1
        assert seed < 2000, "random graph generation stalled"
        rng = random.Random(seed)
        g = parse_graph(random_graph_text(rng))
        if validate(g):
            continue
        try:
            fst = compile_graph(g)
        except EpsilonOnlyPath:
            assert any(i == "" for i, _ in enumerate_paths(g, max_input_len=12))
            continue
        assert _relation_via_machine(fst, 12) == _relation_via_ir(g, [], 12), \
            f"seed {seed}"
        rng_graphs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.2f}s"
    report(5, f"{checked} bundled + {rng_graphs} random graphs equal the "
              f"path-enumeration oracle in {elapsed:.2f}s")


# 6 ------------------------------------------------------------------------

CASE_LEXICON = Lexicon([
    DictEntry("가나", "가나", Pos.N),
    DictEntry("나다", "나다", Pos.N),
    DictEntry("다", "다", Pos.N),
    DictEntry("너무", "너무", Pos.ADV),
    DictEntry("요", "요", Pos.EOMI),
])

TOKEN_POOL = ["가", "나", "다", "가나", "나다", "가나다", "너무", "한", "나가"]
LITERAL_POOL = ["가", "나", "다", "가나", "나다", "가나다", "한", "너", "다가"]
OUTPUT_POOL = ["x", "너무", "가"]


def _random_case_grammars(rng):
    graphs = []
    for gi in range(rng.randint(1, 2)):
        lines = [f"GRAPH Case{gi} TAG T{gi}"]
        shape = rng.random()
        if shape < 0.15:
            lines.append("0 INITIAL -> 1")
            lines.append("1 <N> -> 2")
            lit = rng.choice(LITERAL_POOL)
            lines.append(f'2 "{lit}" / "{rng.choice(OUTPUT_POOL)}" -> 9')
        elif shape < 0.4:
            alts1 = "|".join(rng.sample(LITERAL_POOL, rng.randint(1, 2)))
            alts2 = "|".join(rng.sample(LITERAL_POOL, rng.randint(1, 2)))
            lines.append("0 INITIAL -> 1")
            lines.append(f'1 "{alts1}" / "{rng.choice(OUTPUT_POOL)}" -> 2')
            lines.append(f'2 "{alts2}" -> 9')
        else:
            alts = "|".join(rng.sample(LITERAL_POOL, rng.randint(1, 4)))
            out = f' / "{rng.choice(OUTPUT_POOL)}"' if rng.random() < 0.7 else ""
            lines.append("0 INITIAL -> 1")
            lines.append(f'1 "{alts}"{out} -> 9')
        lines.append("9 FINAL")
        graphs.append(parse_graph("\n".join(lines) + "\n"))
    return graphs


def test_acceptance_6_leftmost_longest_equivalence():
    rng = random.Random(99)
    for case in range(500):
        graphs = _random_case_grammars(rng)
        fsts = [compile_graph(g) for g in graphs]
        text = " ".join(rng.choice(TOKEN_POOL)
                        for _ in range(rng.randint(1, 6)))
        matcher = BruteMatcher(graphs, CASE_LEXICON)
        expected = matcher.select(text)
        got = []
        for m in find_matches(text, fsts, CASE_LEXICON):
            start_char = len(text.encode("utf-8")[:m.start].decode("utf-8"))
            got.append((start_char, start_char + len(m.surface), m.grammar, m.output))
        assert got == expected, f"case {case}: {text!r} {got} != {expected}"
    report(6, "500 randomized cases equal the all-matches + greedy oracle")


# 7 ------------------------------------------------------------------------

RANDOM_ALPHABET = (
    [chr(c) for c in range(0xAC00, 0xAC00 + 80)]
    + list("힣한글잼넘짱ㅋㅎㅠㅜㅇ")
    + list("abcXYZ019 ._*@?!~「」%^&=+\t\n　")
)


def _random_text(rng, max_len=24):
    return "".join(rng.choice(RANDOM_ALPHABET)
                   for _ in range(rng.randint(0, max_len)))


def test_acceptance_7_hangul_round_trips():
    failures = 0
    for ch in iter_all_syllables():
        if compose_syllable(*decompose_syllable(ch)) != ch:
            failures += 1
    assert failures == 0
    rng = random.Random(1234)
    for _ in range(10_000):
        s = _random_text(rng)
        if from_jamo_seq(to_jamo_seq(s)) != s:
            failures += 1
    assert failures == 0
    report(7, "11,172 syllable and 10,000 string round-trips, zero failures")


# 8 ------------------------------------------------------------------------

def test_acceptance_8_idempotence_and_losslessness(library, lexicon,
                                                   formal_text, informal_text):
    for text in (formal_text, informal_text):
        once = normalize(text, library.fsts, lexicon)
        assert normalize(once, library.fsts, lexicon) == once
        merged = transform(text, find_matches(text, library.fsts, lexicon),
                           Mode.MERGE)
        assert strip_merge(merged) == text

    rng = random.Random(4321)
    for _ in range(10_000):
        s = _random_text(rng, max_len=16)
        stream = tokenize(s)
        data = s.encode("utf-8")
        rebuilt = bytearray()
        prev = 0
        for tok in stream:
            rebuilt += data[prev:tok.start]
            rebuilt += tok.surface.encode("utf-8")
            prev = tok.end
        rebuilt += data[prev:]
        assert bytes(rebuilt) == data
    report(8, "normalize idempotent, MERGE stripping and tokenizer lossless")
