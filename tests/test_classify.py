import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm import resources
from lggnorm.apply import TextIndex, longest_match
from lggnorm.classify import (
    DEVIANT_RULES,
    Candidate,
    Category,
    PreconditionViolated,
    Resources,
    Thresholds,
    _CASCADE,
    _deviant_by_distance,
    _dict_prefix,
    _loanword_by_distance,
    classify_corpus,
    classify_token,
    detections,
)
from lggnorm.fst import Fst, compile_graph
from lggnorm.grammar import parse_graph
from lggnorm.hangul import (
    FINAL_LETTERS,
    INITIAL_LETTERS,
    MEDIAL_LETTERS,
    compose_letters,
    distance_key,
    fold_letters,
    is_compat_jamo,
)
from lggnorm.lexicon import (BandedRows, DictEntry, KeyTrie, Lexicon, Pos, RuleAutomaton, is_analyzable,
                             read_entries_file)
from lggnorm.tokenizer import Token, TokenClass, tokenize
from oracles import (DEVIANT_SHAPES, brute_deviant_best, brute_loan_best, detections_by_eager_loop,
                     deviant_forms, every_detection, linear_dict_prefix, rebuilt)


DEVIANT, LOAN = Category.DEVIANT_SPELLING, Category.LOANWORD_VARIANT


def tok(s):
    return next(iter(tokenize(s)))


def classify(s, res):
    return classify_token(tok(s), res)


def test_emoticon_no_suggestion(classifier_resources):
    r = classify("ㅋㅋ", classifier_resources)
    assert r.primary is Category.EMOTICON and r.suggestion is None


def test_symbol_emoticon_via_grammar(classifier_resources):
    r = classify("*_*", classifier_resources)
    assert r.primary is Category.EMOTICON and r.suggestion is None


def test_spacing(classifier_resources):
    r = classify("색깔이예뻐요", classifier_resources)
    assert r.primary is Category.SPACING
    assert r.suggestion == "색깔이 예뻐요"


def test_loanword_variant(classifier_resources):
    r = classify("텔레비", classifier_resources)
    assert r.primary is Category.LOANWORD_VARIANT
    assert r.suggestion == "텔레비전"


def test_loanword_fuzzy_fallback(classifier_resources):
    # 테레비 is not a listed variant; edit distance to 텔레비전 stays within 2
    # only via the prefix comparison against 텔레비 -- here we use 초콜렡,
    # one jamo away from the standard 초콜릿
    r = classify("초콜렡", classifier_resources)
    assert r.primary is Category.LOANWORD_VARIANT
    assert r.suggestion == "초콜릿"
    assert r.candidates[0].evidence.startswith("distance:")


def test_loanword_fuzzy_tie_goes_to_longer_prefix(classifier_resources):
    # prefixes 컴퓨 and 컴퓨다 are both two edits from 컴퓨터; the longer one
    # is replaced
    r = classify("컴퓨다", classifier_resources)
    assert r.primary is Category.LOANWORD_VARIANT
    assert r.suggestion == "컴퓨터"


def test_neologism(classifier_resources):
    r = classify("짱", classifier_resources)
    assert r.primary is Category.NEOLOGISM and r.suggestion == "진짜"


def test_neologism_hada_pattern(classifier_resources):
    r = classify("클래식하다", classifier_resources)
    assert r.primary is Category.NEOLOGISM
    assert r.suggestion is None
    assert r.candidates[0].evidence == "hada-pattern:클래식"


def test_deviant_spelling(classifier_resources):
    r = classify("안녕하세욤", classifier_resources)
    assert r.primary is Category.DEVIANT_SPELLING
    assert r.suggestion == "안녕하세요"


def test_deviant_fuzzy(classifier_resources):
    r = classify("조아요", classifier_resources)
    assert r.primary is Category.DEVIANT_SPELLING
    assert r.suggestion == "좋아요"


@pytest.mark.parametrize("surface, suggestion", [
    # 영화 + 해 + ㅂ니다: 영화했ㅂ니다 is as near, but keeps a standalone ㅂ
    ("영화했니다", "영화햅니다"),
    # 재미 + 해 + ㄴ다: the ending's consonant becomes the stem's final
    ("재미해니다", "재미핸다"),
    # 증가로 and 증가과 are both one edit away and 증가과 sorts first, but
    # 증가로 shares one more unit of the token's onset
    ("증가롸", "증가로"),
])
def test_deviant_fuzzy_candidate_forms(classifier_resources, surface, suggestion):
    r = classify(surface, classifier_resources)
    assert r.primary is Category.DEVIANT_SPELLING
    assert r.candidates[0].evidence == "distance:1"
    assert r.suggestion == suggestion


@pytest.mark.parametrize("limit, primary, suggestion", [
    (0, Category.UNKNOWN, None),
    (2, Category.DEVIANT_SPELLING, "좋아요"),
])
def test_deviant_threshold(classifier_resources, limit, primary, suggestion):
    res = rebuilt(classifier_resources, thresholds=Thresholds(deviant=limit))
    r = classify("조아요", res)
    assert r.primary is primary and r.suggestion == suggestion


def test_abbreviation_from_dictionary(classifier_resources):
    r = classify("깜놀", classifier_resources)
    assert r.primary is Category.ABBREVIATION
    assert r.suggestion == "깜짝 놀람"


def test_unknown_fallthrough(classifier_resources):
    r = classify("쀍", classifier_resources)
    assert r.primary is Category.UNKNOWN
    assert r.candidates == () and r.suggestion is None


def test_precondition(classifier_resources):
    with pytest.raises(PreconditionViolated):
        classify("너무", classifier_resources)


def test_candidates_contain_primary(classifier_resources):
    for s in ["잼있어요", "짱", "안녕하세욤", "색깔이예뻐요", "초콜렛향기"]:
        r = classify(s, classifier_resources)
        assert r.candidates[0].category is r.primary


def test_abbreviation_collects_hada_candidate_too(classifier_resources):
    r = classify("강추합니다", classifier_resources)
    assert r.primary is Category.ABBREVIATION
    cats = [c.category for c, _ in detections(tok("강추합니다"), classifier_resources)]
    assert cats[0] is Category.ABBREVIATION
    assert Category.NEOLOGISM in cats  # unknown root + 하 + ending also fired


def test_grammar_match_runs_the_grammars_that_may_start_at_a_character(
        monkeypatch, classifier_resources):
    import lggnorm.classify as classify_module
    res = rebuilt(classifier_resources)
    may_start = Fst.may_start
    checked, handed = Counter(), []

    def counting_may_start(self, ch):
        checked[ch] += 1
        return may_start(self, ch)

    def handed_longest_match(fsts, index, unit):
        handed.append([f.name for f in fsts])
        return longest_match(fsts, index, unit)

    monkeypatch.setattr(Fst, "may_start", counting_may_start)
    monkeypatch.setattr(classify_module, "longest_match", handed_longest_match)

    def names(cat, surface, start=0):
        """The grammars grammar_match runs from character ``start``,
        checking that it returns what longest_match of all of them does."""
        handed.clear()
        index = TextIndex(surface, res.lexicon)
        got = res.grammar_match(cat, index, start)
        unit = index.char_start_unit[start]
        assert got == longest_match(res._by_category.get(cat, []), index, unit)
        assert len(handed) <= 1 and (got is None or handed)
        return handed[0] if handed else []

    assert names(Category.EMOTICON, "") == ["EmoJoy", "EmoSad", "EmoAgree", "EmoOther"]
    assert names(Category.EMOTICON, "ㅠ") == ["EmoSad"]
    assert names(Category.EMOTICON, "ㅇ") == ["EmoAgree"]
    assert names(Category.ABBREVIATION, "넘") == ["Abbrev"]
    # 넘 reads ᄂ ᅥ ᆷ: all of 너 is on its path, and 넙 leaves it at ᆸ
    assert names(Category.ABBREVIATION, "너") == ["Abbrev"]
    assert names(Category.ABBREVIATION, "넙") == []
    assert names(Category.ABBREVIATION, "넙넘", 1) == ["Abbrev"]  # the character at start
    assert names(Category.LOANWORD_VARIANT, "쪼") == ["Loan"]  # through a subgraph call
    # remembered per (category, character): a second call asks may_start nothing
    names(Category.DEVIANT_SPELLING, "안")
    before = checked["안"]
    assert before > 0
    names(Category.DEVIANT_SPELLING, "안녕")
    assert checked["안"] == before


def test_grammar_checks_find_what_every_grammar_of_the_category_finds(
        monkeypatch, classifier_resources, formal_text, informal_text, gold_rows):
    # the per-character selection changes no detection, grammar ones included
    tokens = ["ㅋㅋㅋ", "ㅠㅠ", "ㅜ_ㅜ", "ㅇㅋ", "gg", "안녕하세욤", "초콜렛향기", "쪼꼬렛", "티비로", "넘",
              "짱이다", "심플하다요", "강추", "ㄱ", "각"]
    stream = tokenize(" ".join([formal_text, informal_text, *gold_rows, *tokens]))
    selected = every_detection(stream, rebuilt(classifier_resources))
    monkeypatch.setattr(Fst, "may_start", lambda self, ch: True)
    assert every_detection(stream, rebuilt(classifier_resources)) == selected
    evidence = [c.evidence for found in selected.values() for c, _ in found]
    assert sum(e.startswith("grammar:") for e in evidence) >= 10


# user grammars: (name, tag, the span it rewrites as 최고, the category it
# fires for, or None when classify never runs it)
TAGGED_GRAMMARS = [("Abbr", "ABBR", "뷁뷁", Category.ABBREVIATION),
                   ("UserAbbr", "ABBR_USER", "쀍쀍", Category.ABBREVIATION),
                   ("Neo1", "NEO_1", "꿻꿻", Category.NEOLOGISM),
                   ("AbbrX", "ABBRX", "뛣뛣", None),
                   ("LoanX", "LOANX", "뗣뗣", None),
                   ("Plain", "T", "쒧쒧", None)]


def test_classify_reads_a_tag_alone_or_before_an_underscore(classifier_resources):
    # a tag is read by classify when it is ABBR, NEO, LOAN, DEVIANT or
    # EMOTICON, alone or followed by "_" and more: ABBRX is not ABBR
    fsts = {name: compile_graph(parse_graph(
        f'GRAPH {name} TAG {tag}\n0 INITIAL -> 1\n1 "{span}" / "최고" -> 9\n9 FINAL\n'))
        for name, tag, span, _ in TAGGED_GRAMMARS}
    res = rebuilt(classifier_resources, fsts=classifier_resources.fsts + list(fsts.values()))
    for name, _, span, cat in TAGGED_GRAMMARS:
        token = tok(span + "이다")
        assert longest_match([fsts[name]], TextIndex(token.surface, res.lexicon), 0) is not None
        if cat is not None:
            assert classify_token(token, res).primary is cat
            assert (Candidate(cat, f"grammar:{name}"), "최고이다") in detections(token, res)
        else:
            without = rebuilt(res, fsts=[f for f in res.fsts if f.name != name])
            assert classify_token(token, res) == classify_token(token, without)
            assert list(detections(token, res)) == list(detections(token, without))


def test_determinism(classifier_resources):
    a = classify("조아요", classifier_resources)
    b = classify("조아요", classifier_resources)
    assert a == b


def test_classify_corpus_counts_partition(classifier_resources, informal_text):
    stream = tokenize(informal_text)
    out = classify_corpus(stream, classifier_resources)
    assert sum(Counter(r.primary for r in out.results).values()) == len(out.results)
    surfaces = [r.token.surface for r in out.results]
    assert len(surfaces) == len(set(surfaces))  # one result per type


def test_classify_corpus_standard_text_is_empty(classifier_resources):
    out = classify_corpus(tokenize("효과가 너무 좋아요"), classifier_resources)
    assert out.results == ()


def test_classify_corpus_type_level(classifier_resources):
    out = classify_corpus(tokenize("ㅋㅋ ㅋㅋ"), classifier_resources)
    assert len(out.results) == 1
    assert Counter(r.primary for r in out.results) == {Category.EMOTICON: 1}


def test_classify_corpus_checks_each_type_once(classifier_resources, informal_text,
                                               monkeypatch):
    import lggnorm.classify as classify_module

    stream = tokenize(informal_text)
    out = classify_corpus(stream, classifier_resources)
    assert list(out.results) == [classify_token(r.token, classifier_resources)
                                 for r in out.results]
    checked = []

    def counting(token, lexicon):
        checked.append(token.surface)
        return is_analyzable(token, lexicon)

    monkeypatch.setattr(classify_module, "is_analyzable", counting)
    assert classify_corpus(stream, classifier_resources) == out
    assert out.results and len(checked) == len(set(checked))


def test_classify_corpus_keys_each_type_at_most_once(classifier_resources, informal_text,
                                                    monkeypatch):
    # the searches share the TextIndex's one distance key: a count, so it
    # holds on any host
    import lggnorm.apply as apply_module
    import lggnorm.classify as classify_module
    from lggnorm.hangul import distance_key

    calls = []

    def counting(s):
        calls.append(s)
        return distance_key(s)

    for module in (apply_module, classify_module):
        monkeypatch.setattr(module, "distance_key", counting, raising=False)
    out = classify_corpus(tokenize(informal_text), classifier_resources)
    assert out.results and len(calls) <= len(out.results)


def test_classify_corpus_folds_each_hangul_type_once(classifier_resources, informal_text,
                                                     monkeypatch):
    # the analysability test, the 하-root and the spacing split share the
    # TextIndex's letters; only a suggestion's words are folded besides
    import lggnorm.apply as apply_module
    import lggnorm.classify as classify_module
    import lggnorm.lexicon as lexicon_module

    folds = {"token": 0, "suggestion": 0}
    suggested_words = []
    inside = []

    def counting(fold):
        def counted(s):
            folds["suggestion" if inside else "token"] += 1
            return fold(s)
        return counted

    suggestion_ok = classify_module._suggestion_ok

    def counting_suggestion_ok(s, lexicon):
        suggested_words.extend(s.split(" "))
        inside.append(s)
        try:
            return suggestion_ok(s, lexicon)
        finally:
            inside.pop()

    for module in (apply_module, classify_module, lexicon_module):
        monkeypatch.setattr(module, "fold_letters", counting(fold_letters))
    monkeypatch.setattr(classify_module, "_suggestion_ok", counting_suggestion_ok)
    stream = tokenize(informal_text)
    out = classify_corpus(stream, classifier_resources)
    hangul_types = {t.surface for t in stream if t.cls is TokenClass.HANGUL}
    assert out.results and suggested_words
    assert folds["token"] == len(hangul_types)
    assert 0 < folds["suggestion"] <= len(suggested_words)


def test_classify_corpus_tokenizes_nothing(classifier_resources, informal_text, monkeypatch):
    # a classified token is one token by construction, so its index is
    # built from its one span: the tokenizer's run regex (behind tokenize
    # and token_spans) is searched once, for the stream's own tokens on
    # first iteration, and never for a token.  A count, so it holds on any host
    import lggnorm.tokenizer as tokenizer_module

    runs = tokenizer_module._RUNS
    searches = []

    class CountingRuns:
        def __getattr__(self, name):
            searches.append(name)
            return getattr(runs, name)

    stream = tokenize(informal_text)
    monkeypatch.setattr(tokenizer_module, "_RUNS", CountingRuns())
    out = classify_corpus(stream, classifier_resources)
    assert out.results and searches == ["finditer"]


def test_suggestions_are_analyzable(classifier_resources, informal_text):
    from lggnorm.classify import _suggestion_ok

    out = classify_corpus(tokenize(informal_text), classifier_resources)
    for r in out.results:
        if r.suggestion is not None:
            assert _suggestion_ok(r.suggestion, classifier_resources.lexicon), \
                f"{r.token.surface} -> {r.suggestion}"


def test_gold_corpus_agreement(classifier_resources, informal_text, gold_rows):
    out = classify_corpus(tokenize(informal_text), classifier_resources)
    assert len(out.results) == len(gold_rows)
    for r in out.results:
        category, suggestion = gold_rows[r.token.surface]
        assert r.primary.value == category, r.token.surface
        assert (r.suggestion or "") == suggestion, r.token.surface


# ------------------------------------------- fuzzy searches against oracles

EDIT_LETTERS = INITIAL_LETTERS + MEDIAL_LETTERS + FINAL_LETTERS
HANGUL_SYLLABLES = st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3)


def assert_searches_match_oracles(surface, res, limit):
    res = rebuilt(res, thresholds=Thresholds(loan=limit, deviant=limit))
    token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
    index = TextIndex(token.surface, res.lexicon)
    assert _deviant_by_distance(index, res, DEVIANT) == brute_deviant_best(token, res)
    assert _loanword_by_distance(index, res, LOAN) == brute_loan_best(token, res)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), limit=st.sampled_from([0, 1, 2]))
def test_searches_match_oracles_on_edited_forms(classifier_resources, data, limit):
    by_pos = {}
    for e in classifier_resources.lexicon.entries:
        by_pos.setdefault(e.pos, []).append(e.surface)
    letters = []
    for pos in data.draw(st.sampled_from(DEVIANT_SHAPES)):
        letters += fold_letters(data.draw(st.sampled_from(by_pos[pos])))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(letters)))
        op = data.draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            letters.insert(i, data.draw(st.sampled_from(EDIT_LETTERS)))
        elif i < len(letters):
            if op == "delete":
                del letters[i]
            else:
                letters[i] = data.draw(st.sampled_from(EDIT_LETTERS))
    surface = compose_letters(letters)
    if surface:
        assert_searches_match_oracles(surface, classifier_resources, limit)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), limit=st.sampled_from([0, 1, 2]))
def test_searches_match_oracles_on_random_syllables(classifier_resources, data, limit):
    lexicon_syllables = sorted({ch for e in classifier_resources.lexicon.entries
                                for ch in e.surface if "가" <= ch <= "힣"})
    syllable = st.one_of(st.sampled_from(lexicon_syllables), HANGUL_SYLLABLES)
    surface = "".join(data.draw(st.lists(syllable, min_size=1, max_size=8)))
    assert_searches_match_oracles(surface, classifier_resources, limit)


@pytest.mark.parametrize("surface", ["쀍", "ㅋ"])
def test_searches_match_oracles_for_huge_thresholds(classifier_resources, surface):
    # the band is capped at what any distance can reach, not 2*limit+1
    # wide; the nearest form to ㅋ is more edits away than ㅋ is long
    for limit in (10, 10**12):
        assert_searches_match_oracles(surface, classifier_resources, limit)


def test_deviant_rules_accept_exactly_the_deviant_shapes():
    automaton = RuleAutomaton(DEVIANT_RULES)
    for n in range(5):
        for seq in itertools.product(Pos, repeat=n):
            assert automaton.accepts(seq) == (seq in DEVIANT_SHAPES), seq


# small lexicons whose surfaces collide across parts of speech: 가 can be
# a noun, a verb and a josa, 하 a verb and the verbalizer, 크 a noun and an
# adjective
STEM_SURFACES = ["가", "사람", "크", "하", "먹", "좋"]
STEM_POS = [Pos.N, Pos.V, Pos.ADJ, Pos.ADV, Pos.DET, Pos.INTERJ, Pos.PROPER]
SUFFIX_SURFACES = {Pos.JOSA: ["이", "가", "를"], Pos.XSV: ["하", "되"],
                   Pos.EOMI: ["어요", "ㅂ니다", "다", "아"]}


def small_entries(surfaces, parts):
    return st.lists(st.sampled_from(parts).flatmap(
        lambda pos: st.sampled_from(surfaces(pos)).map(
            lambda surface: DictEntry(surface, surface, pos))), min_size=1, max_size=5)


small_lexicons = st.tuples(
    small_entries(lambda pos: STEM_SURFACES, STEM_POS),
    small_entries(SUFFIX_SURFACES.get, list(SUFFIX_SURFACES)),
).map(lambda parts: parts[0] + parts[1])


def draw_small_token(data, entries) -> Token:
    """A form of the candidate language of ``entries``, or a few of their
    syllables, then up to two jamo edits."""
    by_pos = {}
    for e in entries:
        by_pos.setdefault(e.pos, []).append(e.surface)
    shapes = [shape for shape in DEVIANT_SHAPES if all(pos in by_pos for pos in shape)]
    letters = []
    if shapes and data.draw(st.integers(0, 3)):
        for pos in data.draw(st.sampled_from(shapes)):
            letters += fold_letters(data.draw(st.sampled_from(by_pos[pos])))
    else:
        syllables = sorted({ch for e in entries for ch in e.surface} | {"ㅋ", "를", "요"})
        letters += fold_letters("".join(data.draw(
            st.lists(st.sampled_from(syllables), min_size=1, max_size=4))))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(letters)))
        op = data.draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            letters.insert(i, data.draw(st.sampled_from(EDIT_LETTERS)))
        elif i < len(letters) > 1:
            if op == "delete":
                del letters[i]
            else:
                letters[i] = data.draw(st.sampled_from(EDIT_LETTERS))
    surface = compose_letters(letters)
    return Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))


@settings(max_examples=200, deadline=None)
@given(entries=small_lexicons, data=st.data(), limit=st.sampled_from([0, 1, 2, 6]))
def test_deviant_search_matches_oracle_on_small_lexicons(entries, data, limit):
    # several tokens through one Resources: the deviant automaton already
    # holds the states of the earlier tokens when it searches a later one
    lexicon = Lexicon(entries)
    res = Resources(lexicon=lexicon, fsts=[], thresholds=Thresholds(deviant=limit))
    for _ in range(data.draw(st.integers(1, 4))):
        token = draw_small_token(data, entries)
        index = TextIndex(token.surface, lexicon)
        assert _deviant_by_distance(index, res, DEVIANT) == brute_deviant_best(token, res), \
            token.surface


@settings(max_examples=200, deadline=None)
@given(entries=small_lexicons, data=st.data(), limit=st.sampled_from([0, 1]))
def test_deviant_search_matches_oracle_on_far_tokens(entries, data, limit):
    # letters drawn from the whole alphabet rather than edits of a form:
    # most keys have no whole half and skip the walk
    lexicon = Lexicon(entries)
    res = Resources(lexicon=lexicon, fsts=[], thresholds=Thresholds(deviant=limit))
    for _ in range(data.draw(st.integers(1, 4))):
        surface = compose_letters(data.draw(st.lists(st.sampled_from(EDIT_LETTERS),
                                                     min_size=1, max_size=12)))
        token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
        index = TextIndex(surface, lexicon)
        assert _deviant_by_distance(index, res, DEVIANT) == brute_deviant_best(token, res), surface


@settings(max_examples=200, deadline=None)
@given(entries=small_lexicons, data=st.data())
def test_dead_runs_prove_that_no_form_starts_or_ends_so(entries, data):
    # a live state may be one no form completes, so only a dead run is
    # checked: no form key starts with x, or ends with it for the twin
    search = Resources(lexicon=Lexicon(entries), fsts=[]).deviant_search
    keys = [key for key, _ in deviant_forms(search.lexicon)]
    for _ in range(data.draw(st.integers(1, 6))):
        if keys and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(keys))
            i = data.draw(st.integers(0, len(key)))
            x = data.draw(st.sampled_from([key[:i], key[i:]]))
        else:
            x = tuple(data.draw(st.lists(st.sampled_from(EDIT_LETTERS), max_size=5)))
        if not search.run(x):
            assert not any(key[:len(x)] == x for key in keys), x
        if not search.backward.run(x[::-1]):
            assert not any(key[len(key) - len(x):] == x for key in keys), x


def deviant_work(limit: int, lexicon: Lexicon | None = None) -> tuple:
    """(rows, forward, backward) after running every category on each type
    of both bundled corpora at deviant threshold ``limit`` through one
    fresh Resources (on ``lexicon``, by default the bundled one): the rows
    BandedRows.grow returns inside the deviant search, and the (states,
    step calls, stored transitions) of the deviant automaton and of its
    backward twin.  Classify itself stops at the first category that
    fires, which leaves the deviant search to few of the types."""
    res = resources.load_classifier_resources(lexicon, thresholds=Thresholds(deviant=limit))
    search, grow = res.deviant_search, BandedRows.grow
    automata = (search, search.backward)
    nearest = search.nearest
    work = {"rows": 0, "searching": False}
    steps = dict.fromkeys(automata, 0)

    def counting_grow(self, *args):
        got = grow(self, *args)
        work["rows"] += len(got) if work["searching"] else 0
        return got

    def counting_nearest(*args):
        work["searching"] = True
        try:
            return nearest(*args)
        finally:
            work["searching"] = False

    def counting_step(automaton):
        step = automaton.step

        def counted(*args):
            steps[automaton] += 1
            return step(*args)
        return counted

    search.nearest = counting_nearest
    for automaton in automata:
        automaton.step = counting_step(automaton)
    BandedRows.grow = counting_grow
    try:
        for name in ("formal_sample.txt", "informal_sample.txt"):
            every_detection(tokenize(resources.corpus_path(name).read_text(encoding="utf-8")), res)
    finally:
        BandedRows.grow = grow
    return (work["rows"], *((len(a.pairs), steps[a], sum(map(len, a.delta)))
                            for a in automata))


@pytest.mark.parametrize("limit", [1, 6])
def test_deviant_automaton_states_stay_within_the_letters_stepped(limit):
    # every state but the dead and the start state is made by one step,
    # and each (state, letter) is stepped once, in the deviant automaton
    # and in its backward twin, which only limits 0 and 1 run
    _, forward, backward = deviant_work(limit)
    for states, steps, transitions in (forward, backward):
        assert states <= 2 + steps
        assert steps == transitions
    assert (backward[1] > 0) == (limit <= 1)


def test_deviant_search_finds_nothing_within_a_negative_limit(classifier_resources):
    nearest = classifier_resources.deviant_search.nearest
    assert nearest(distance_key("너무"), 0) == (0, "너무")
    assert nearest(distance_key("너무"), -1) is None


@pytest.mark.parametrize("limit, rows", [(0, 20), (1, 127), (2, 2_261)])
def test_deviant_search_skips_the_walk_only_at_limits_up_to_one(limit, rows):
    # at limits 0 and 1 a key is walked from the state of its first half
    # and, backward, from that of its second half, and a half whose run
    # dies is not walked: the walks from the root of a key with a live
    # half grew 53 and 552 rows here, and 679 at limit 1 when every key
    # was walked.  Limit 2 walks every key from the root, as before
    assert deviant_work(limit)[0] <= 1.1 * rows


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_deviant_search_grows_no_more_rows_than_per_pair_frames(hash_seed):
    # a walk with a frame per (trie node, rule state) pair, which finished
    # a morpheme before starting the next one, grew 11,017 rows here, and
    # one that read letters in the dictionary's order 10,969.  Set
    # iteration may vary between processes; the walk grows the token's
    # next letter first, and the other letters in that order
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "from test_classify import deviant_work; print(deviant_work(6)[0])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=hash_seed), timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) <= 1.1 * 7_001


def test_deviant_rows_hardly_depend_on_the_dictionary_line_order():
    # the walk grows the child on the token's next letter first, whatever
    # order the trie's children were added in; walking them in the
    # dictionary's order read 10,671-15,577 rows over these orders (1.46x)
    core = list(read_entries_file(resources.dictionary_path("core.dic")))
    loan = list(read_entries_file(resources.dictionary_path("loan.dic")))
    orders = [core, core[::-1]]
    for seed in range(5):
        shuffled = core[:]
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    rows = [deviant_work(6, Lexicon(entries + loan))[0] for entries in orders]
    assert max(rows) <= 1.25 * min(rows), rows


@settings(max_examples=200, deadline=None)
@given(entries=small_lexicons, data=st.data(), limit=st.sampled_from([1, 2]))
def test_deviant_suggestions_hold_no_standalone_letter(entries, data, limit):
    # 먹 + ㅂ니다 composes to 먹ㅂ니다, whose ㅂ joins no syllable
    lexicon = Lexicon(entries)
    res = Resources(lexicon=lexicon, fsts=[], thresholds=Thresholds(deviant=limit))
    got = _deviant_by_distance(TextIndex(draw_small_token(data, entries).surface, lexicon), res,
                               DEVIANT)
    if got is not None:
        assert not any(map(is_compat_jamo, got[1])), got


# ------------------------------------------ the cascade against the eager loop

def assert_cascade_matches_eager_loop(token: Token, res: Resources) -> int | None:
    """The lazy cascade, exhausted, yields what the eager loop finds, and
    classify_token keeps its first item; the number of items found, or
    None for an analyzable token, which both turn away."""
    try:
        want = detections_by_eager_loop(token, res)
    except PreconditionViolated:
        with pytest.raises(PreconditionViolated):
            classify_token(token, res)
        return None
    assert tuple(detections(token, res)) == tuple(want), token.surface
    r = classify_token(token, res)
    if want:
        candidate, suggestion = want[0]
        assert (r.primary, r.suggestion, r.candidates) == (candidate.category, suggestion,
                                                           (candidate,)), token.surface
    else:
        assert (r.primary, r.suggestion, r.candidates) == (Category.UNKNOWN, None, ()), \
            token.surface
    return len(want)


@pytest.mark.parametrize("limit", [1, 3])
def test_cascade_matches_the_eager_loop_on_the_corpora_and_gold(
        classifier_resources, formal_text, informal_text, gold_rows, limit):
    res = rebuilt(classifier_resources, thresholds=Thresholds(deviant=limit))
    types = {t.surface: t for text in (formal_text, informal_text) for t in tokenize(text)}
    found = [assert_cascade_matches_eager_loop(t, res) for t in types.values()]
    # analyzable types are turned away, and some type has a category
    # firing after the first
    assert None in found and max(n for n in found if n is not None) > 1
    # a category fires on every gold type
    assert all(assert_cascade_matches_eager_loop(tok(s), res) for s in gold_rows)


@settings(max_examples=100, deadline=None)
@given(entries=st.one_of(st.none(), small_lexicons), data=st.data(),
       limit=st.sampled_from([1, 3]))
def test_cascade_matches_the_eager_loop_on_drawn_tokens(classifier_resources, entries, data,
                                                        limit):
    # the bundled grammars and side dictionaries, over the bundled lexicon
    # (entries None) or a small one
    lexicon = classifier_resources.lexicon if entries is None else Lexicon(entries)
    res = rebuilt(classifier_resources, lexicon=lexicon, thresholds=Thresholds(deviant=limit))
    for _ in range(data.draw(st.integers(1, 4))):
        assert_cascade_matches_eager_loop(draw_small_token(data, entries or lexicon.entries), res)


def test_cascade_matches_the_eager_loop_with_no_grammars(classifier_resources, formal_text,
                                                         informal_text, gold_rows):
    # with no grammar the later steps speak for their categories: 짱해요
    # is in the neologism dictionary and is a 하-verb of 짱, so the
    # dictionary step must run before the 하-root step
    res = rebuilt(classifier_resources, fsts=[])
    types = {t.surface: t for text in (formal_text, informal_text, " ".join(gold_rows), "짱해요")
             for t in tokenize(text)}
    for token in types.values():
        assert_cascade_matches_eager_loop(token, res)
    assert [c.evidence for c, _ in detections(tok("짱해요"), res)] == ["dict:짱"]


def test_documented_priority_is_the_cascade_order():
    # the numbered list of the module docstring is the order of the table
    # detections reads, and only EMOTICON reads jamo and symbol tokens
    import lggnorm.classify as classify_module

    listed = re.findall(r"^(\d)\. (\w+)", classify_module.__doc__, re.MULTILINE)
    assert [int(n) for n, _ in listed] == list(range(1, 7))
    assert [name for _, name in listed] == [cat.value for cat, _, _ in _CASCADE]
    reads = {cat: set(classes) for cat, classes, _ in _CASCADE}
    assert reads.pop(Category.EMOTICON) == {TokenClass.JAMO, TokenClass.SYMBOL}
    assert all(classes == {TokenClass.HANGUL} for classes in reads.values())


# the three 텔레비X of the seed-0 classify-types pool whose suggestion is
# no word, and three more of the same shape
NON_WORD_TOKENS = ["텔레비정효과", "텔레비햔안녕에", "텔레비천이", "텔레비톤행사해요", "텔레비젼이",
                   "텔레비젼"]


def test_non_word_suggestions_stay_within_their_ceilings(classifier_resources, formal_text,
                                                         informal_text, gold_rows):
    # a count per category of the suggestions that are not words, as
    # (primary, over every detection), on both corpora, the gold types and
    # NON_WORD_TOKENS: all are LOANWORD_VARIANT, from the clipped 텔레비 of
    # the Loan grammar spliced before the rest of the token
    from lggnorm.classify import _suggestion_ok

    ceilings = {Category.LOANWORD_VARIANT: (5, 6)}
    stream = tokenize(" ".join([formal_text, informal_text, *gold_rows, *NON_WORD_TOKENS]))
    primary, overall, evidence = Counter(), Counter(), set()
    for found in every_detection(stream, classifier_resources).values():
        for i, (candidate, suggestion) in enumerate(found):
            if suggestion is not None and not _suggestion_ok(suggestion,
                                                             classifier_resources.lexicon):
                overall[candidate.category] += 1
                if i == 0:
                    primary[candidate.category] += 1
                evidence.add(candidate.evidence)
    for cat in Category:
        most_primary, most_overall = ceilings.get(cat, (0, 0))
        assert primary[cat] <= most_primary and overall[cat] <= most_overall, cat
    assert evidence <= {"grammar:Loan"}, evidence


def test_fuzzy_searches_run_only_where_no_earlier_detector_decided(
        swap_step, classifier_resources, formal_text, informal_text):
    # counts, so they hold on any host: the deviant search runs only for a
    # HANGUL type that ends UNKNOWN or deviant by distance (3 here; 18 when
    # every category ran on every type), and the loan distance search only
    # for one that no abbreviation, neologism or loan grammar claims (5; 12)
    res = rebuilt(classifier_resources)
    nearest = res.deviant_search.nearest
    calls = {"deviant": 0, "loan": 0}

    def counting_nearest(*args):
        calls["deviant"] += 1
        return nearest(*args)

    def counting_loan_by_distance(*args):
        calls["loan"] += 1
        return _loanword_by_distance(*args)

    res.deviant_search.nearest = counting_nearest
    swap_step(_loanword_by_distance, counting_loan_by_distance)
    out = classify_corpus(tokenize(formal_text + "\n" + informal_text), res)

    def searched(r, after, by_distance):
        """Whether r's type reached a search: its primary comes after the
        search, or is the search's own category with distance evidence."""
        return r.token.cls is TokenClass.HANGUL and (
            r.primary in after or r.primary is by_distance
            and r.candidates[0].evidence.startswith("distance:"))

    deviant = [r for r in out.results
               if searched(r, {Category.UNKNOWN}, Category.DEVIANT_SPELLING)]
    loan = [r for r in out.results
            if searched(r, {Category.SPACING, Category.DEVIANT_SPELLING, Category.UNKNOWN},
                        Category.LOANWORD_VARIANT)]
    assert calls["deviant"] == len(deviant) == 3
    assert calls["loan"] == len(loan) == 5


def test_only_the_loan_and_deviant_searches_build_banded_rows(
        monkeypatch, swap_step, classifier_resources, formal_text, informal_text):
    # counts, so they hold on any host: an abbreviation or neologism
    # lookup walks the token key's one path down its trie, so banded rows
    # are built only by the two distance searches.  Walked as banded rows
    # at no edits, every dictionary lookup built one
    res = rebuilt(classifier_resources)
    init = BandedRows.__init__
    built, calls, running = Counter(), Counter(), [None]

    def counting_init(self, *args):
        built[running[0]] += 1
        init(self, *args)

    def watched(name, search):
        def counted(*args):
            calls[name] += 1
            running[0] = name
            try:
                return search(*args)
            finally:
                running[0] = None
        return counted

    monkeypatch.setattr(BandedRows, "__init__", counting_init)
    swap_step(_dict_prefix, watched("dict", _dict_prefix))
    swap_step(_loanword_by_distance, watched("loan", _loanword_by_distance))
    res.deviant_search.nearest = watched("deviant", res.deviant_search.nearest)
    stream = tokenize(formal_text + "\n" + informal_text)
    classify_corpus(stream, res)
    every_detection(stream, res)
    assert calls["dict"] > 0 and built["loan"] > 0 and built["deviant"] > 0
    assert set(built) == {"loan", "deviant"}, built


def test_loan_search_rules_out_all_but_one_corpus_key_before_it_walks(
        monkeypatch, classifier_resources, formal_text, informal_text):
    # a count, so it holds on any host: with every category run on each
    # type of both corpora, the loan distance search runs for 12 keys and
    # the piece check leaves one of them to walk; banded rows were built
    # for all 12 (138 rows) when every key was walked
    res = rebuilt(classifier_resources)
    init, prefix_matches = BandedRows.__init__, res.tries[LOAN].prefix_matches
    work = Counter()

    def counting_init(self, *args):
        work["built"] += work["searching"]
        init(self, *args)

    def counting_prefix_matches(*args):
        work["calls"] += 1
        work["searching"] = 1
        try:
            return prefix_matches(*args)
        finally:
            work["searching"] = 0

    monkeypatch.setattr(BandedRows, "__init__", counting_init)
    monkeypatch.setattr(res.tries[LOAN], "prefix_matches", counting_prefix_matches)
    every_detection(tokenize(formal_text + "\n" + informal_text), res)
    assert work["calls"] == 12 and work["built"] <= 1, work


# ------------------------------------------ side dictionaries against oracles

def side_entries(surfaces, flag=st.just(frozenset())):
    """Up to six entries of ``surfaces``, repeats allowed, in file order."""
    return st.lists(st.tuples(st.sampled_from(surfaces), flag).map(
        lambda sf: DictEntry(sf[0], sf[0] + "!", Pos.N, sf[1])), min_size=1, max_size=6)


def side_token(data, entries) -> str:
    """Entry surfaces, their syllables and a few others glued together,
    then up to two jamo edits."""
    pieces = sorted({e.surface for e in entries} | {ch for e in entries for ch in e.surface}
                    | {"미", "있", "ㅋ"})
    letters = list(fold_letters("".join(data.draw(
        st.lists(st.sampled_from(pieces), min_size=1, max_size=3)))))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(letters)))
        op = data.draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            letters.insert(i, data.draw(st.sampled_from(EDIT_LETTERS)))
        elif i < len(letters) > 1:
            if op == "delete":
                del letters[i]
            else:
                letters[i] = data.draw(st.sampled_from(EDIT_LETTERS))
    return compose_letters(letters)


# 잼 is a letter prefix of 재미 but not a character prefix; 각 and 가ㄱ
# share their letters; a standalone ㄱ or ㅋ is its own unit
PREFIX_SURFACES = ["잼", "재미", "재", "잼있", "가", "각", "가ㄱ", "ㄱ", "ㅋ", "강추", "강"]
EXPANSION = st.sampled_from([frozenset(), frozenset({"exp=X"}), frozenset({"abbr", "exp=Y_Z"})])


@settings(max_examples=300, deadline=None)
@given(entries=side_entries(PREFIX_SURFACES, EXPANSION), data=st.data())
def test_dict_prefix_matches_the_linear_scan(entries, data):
    # one list of entries as both side dictionaries: an abbreviation
    # suggests its expansion and a neologism its lemma
    lexicon = Lexicon([DictEntry("재미", "재미", Pos.N), DictEntry("강", "강", Pos.N)])
    res = Resources(lexicon=lexicon, fsts=[], abbr_entries=tuple(entries),
                    neo_entries=tuple(entries))
    index = TextIndex(side_token(data, entries), lexicon)
    for cat, suggestion_of in ((Category.ABBREVIATION, lambda e: e.flag_value("exp")),
                               (Category.NEOLOGISM, lambda e: e.lemma)):
        assert (_dict_prefix(index, res, cat)
                == linear_dict_prefix(index, entries, suggestion_of))


@settings(max_examples=300, deadline=None)
@given(entries=side_entries(PREFIX_SURFACES), data=st.data())
def test_exact_trie_walk_matches_the_banded_walk_at_no_edits(entries, data):
    # the banded walk, which the loan search keeps, is the reference for
    # the exact walk of the abbreviation and neologism lookups: at no
    # edits both find the entries on the key's path, by depth, that end
    # where a character starts (a standalone ㄱ or ㅋ is a character)
    lexicon = Lexicon([DictEntry("재미", "재미", Pos.N), DictEntry("강", "강", Pos.N)])
    index = TextIndex(side_token(data, entries), lexicon)
    trie = KeyTrie(entries)
    exact = [(0, end, order) for end, order in trie.prefix_items(index.key, 0)
             if end in index.char_aligned]
    assert exact == trie.prefix_matches(index.key, index.char_aligned, 0)


# shared prefixes, entries one edit apart and a standalone compatibility
# letter inside an entry
LOAN_SURFACES = ["텔레비전", "텔레비", "텔레", "테레비", "컴퓨터", "컴퓨", "컴", "초콜릿",
                 "초코", "커ㅁ", "ㅋ"]


@settings(max_examples=300, deadline=None)
@given(entries=side_entries(LOAN_SURFACES), data=st.data(), limit=st.integers(0, 3))
def test_loan_search_matches_oracle_on_small_dictionaries(entries, data, limit):
    lexicon = Lexicon([DictEntry("텔레비전", "텔레비전", Pos.N), DictEntry("을", "을", Pos.JOSA)])
    res = Resources(lexicon=lexicon, fsts=[], loan_entries=tuple(entries),
                    thresholds=Thresholds(loan=limit))
    surface = side_token(data, entries)
    token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
    assert (_loanword_by_distance(TextIndex(surface, lexicon), res, LOAN)
            == brute_loan_best(token, res))


@settings(max_examples=300, deadline=None)
@given(entries=side_entries(LOAN_SURFACES + ["가"]), data=st.data(), limit=st.integers(0, 3))
def test_loan_search_matches_oracle_on_far_tokens(entries, data, limit):
    # letters drawn from the whole alphabet rather than edits of the
    # entries, so the piece check often rules a key out; ㅋ (1 letter), 가
    # (2) and 컴 (3) are entries no longer than some limits, which turn
    # the check off
    lexicon = Lexicon([DictEntry("텔레비전", "텔레비전", Pos.N), DictEntry("을", "을", Pos.JOSA)])
    res = Resources(lexicon=lexicon, fsts=[], loan_entries=tuple(entries),
                    thresholds=Thresholds(loan=limit))
    surface = compose_letters(data.draw(st.lists(st.sampled_from(EDIT_LETTERS),
                                                 min_size=1, max_size=12)))
    token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
    index = TextIndex(surface, lexicon)
    want = brute_loan_best(token, res)
    assert _loanword_by_distance(index, res, LOAN) == want, surface
    if not res.tries[LOAN].may_match(index.key, limit):
        assert want is None, surface


def test_loan_piece_check_keeps_a_piece_shifted_past_the_greatest_offset():
    # 텔레비전 at limit 2 is cut ㅌㅔㄹ | ㄹㅔㅂ | ㅣㅈㅓㄴ; an insertion in each of
    # the first two pieces leaves only the last one whole, two letters to
    # the right of its offset 6, the greatest offset of any piece
    trie = KeyTrie([DictEntry("텔레비전", "텔레비전", Pos.N)])
    key = tuple("ㅌㅔㅎㄹㄹㅔㅎㅂㅣㅈㅓㄴ")
    assert trie.pieces(2)[2] == 6
    assert trie.prefix_matches(key, range(len(key) + 1), 2) == [(2, 12, 0)]


def walked_from(rows: BandedRows, start, kids, k0: int = 0) -> dict:
    """letters -> (node, row, k) of each path of ``rows.walk``."""
    return {letters: (node, tuple(row), k) for node, row, k, letters in rows.walk(start, kids, k0)}


@settings(max_examples=200, deadline=None)
@given(entries=small_lexicons, loan=side_entries(LOAN_SURFACES), data=st.data(),
       limit=st.integers(0, 2))
def test_a_walk_from_an_exact_prefix_is_the_full_walk_below_it(entries, loan, data, limit):
    # with the bound left at the band, a walk started at depth h from the
    # state or node of key[:h] yields the paths of the walk from the root
    # that start with key[:h], with the same rows: the deviant automaton
    # of a small lexicon and a loan KeyTrie, each against a drawn key
    search = Resources(lexicon=Lexicon(entries), fsts=[]).deviant_search
    trie = KeyTrie(loan)

    def trie_node(prefix):
        node = trie.root
        for letter in prefix:
            node = node.children.get(letter)
            if node is None:
                break
        return node

    for root, kids, start_of, longest, surface in (
            (1, search.out, search.run, search.max_letters,
             draw_small_token(data, entries).surface),
            (trie.root, lambda node: node.children, trie_node, trie.longest,
             side_token(data, loan))):
        key = distance_key(surface)
        h = data.draw(st.integers(0, len(key)))
        full = {letters: item for letters, item
                in walked_from(BandedRows(key, limit, longest), root, kids).items()
                if letters[:h] == key[:h]}
        start = start_of(key[:h])
        below = walked_from(BandedRows(key, limit, longest), start, kids, h) if start else {}
        assert below == full, surface
