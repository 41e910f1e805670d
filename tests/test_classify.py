from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.classify import (
    Category,
    PreconditionViolated,
    Thresholds,
    _deviant_by_distance,
    _loanword_by_distance,
    _token_index,
    classify_corpus,
    classify_token,
)
from lggnorm.hangul import (
    FINAL_LETTERS,
    INITIAL_LETTERS,
    MEDIAL_LETTERS,
    compose_letters,
    fold_letters,
)
from lggnorm.lexicon import is_analyzable
from lggnorm.tokenizer import Token, TokenClass, tokenize
from oracles import DEVIANT_SHAPES, brute_deviant_best, brute_loan_best


def tok(s):
    return tokenize(s).tokens[0]


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
    # 영화 + 했 + ㅂ니다 composes with a leftover standalone ㅂ, which costs
    # one edit against any syllable-only token
    ("영화했니다", "영화했ㅂ니다"),
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
    res = replace(classifier_resources, thresholds=Thresholds(deviant=limit))
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
    cats = [c.category for c in r.candidates]
    assert Category.NEOLOGISM in cats  # unknown root + 하 + ending also fired


def test_determinism(classifier_resources):
    a = classify("조아요", classifier_resources)
    b = classify("조아요", classifier_resources)
    assert a == b


def test_classify_corpus_counts_partition(classifier_resources, informal_text):
    stream = tokenize(informal_text)
    out = classify_corpus(stream, classifier_resources)
    assert sum(out.counts.values()) == len(out.results)
    surfaces = [r.token.surface for r in out.results]
    assert len(surfaces) == len(set(surfaces))  # one result per type


def test_classify_corpus_standard_text_is_empty(classifier_resources):
    out = classify_corpus(tokenize("효과가 너무 좋아요"), classifier_resources)
    assert out.results == ()


def test_classify_corpus_type_level(classifier_resources):
    out = classify_corpus(tokenize("ㅋㅋ ㅋㅋ"), classifier_resources)
    assert len(out.results) == 1
    assert out.counts == {Category.EMOTICON: 1}


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
    res = replace(res, thresholds=Thresholds(loan=limit, deviant=limit))
    token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
    index = _token_index(token, res.lexicon)
    assert _deviant_by_distance(index, res) == brute_deviant_best(token, res)
    assert _loanword_by_distance(index, res) == brute_loan_best(token, res)


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
