import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.hangul import (
    COMPOSE_START,
    FINAL_LETTERS,
    INITIAL_LETTERS,
    MEDIAL_LETTERS,
    IndexOutOfRange,
    InvalidJamoGrouping,
    Jamo,
    JamoKind,
    JamoSeq,
    NotHangulSyllable,
    compat,
    compose_key_step,
    compose_letters,
    compose_syllable,
    decompose_syllable,
    distance_key,
    final,
    fold_letters,
    from_jamo_seq,
    initial,
    iter_all_syllables,
    jamo_edit_distance,
    medial,
    prefix_distances,
    to_jamo_seq,
)
from oracles import brute_levenshtein

HANGUL_SYLLABLES = st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3)
MIXED_TEXT = st.text(
    alphabet=st.one_of(
        HANGUL_SYLLABLES,
        st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
        st.sampled_from(list("abcXYZ019 ._*@-?ㅋㅠ한글")),
    ),
    max_size=24,
)


def test_decompose_first_syllable():
    ini, med, fin = decompose_syllable("가")
    assert (ini.index, med.index, fin) == (0, 0, None)
    assert ini.letter == "ㄱ" and med.letter == "ㅏ"


def test_decompose_han_matches_nfd():
    ini, med, fin = decompose_syllable("한")
    # independent check: canonical decomposition gives the conjoining jamo
    assert [ini.char, med.char, fin.char] == list(unicodedata.normalize("NFD", "한"))
    assert (ini.letter, med.letter, fin.letter) == ("ㅎ", "ㅏ", "ㄴ")


def test_decompose_rejects_non_syllable():
    with pytest.raises(NotHangulSyllable):
        decompose_syllable("A")
    with pytest.raises(NotHangulSyllable):
        decompose_syllable("ㅋ")


def test_compose_basics():
    assert compose_syllable(initial(0), medial(0)) == "가"
    assert compose_syllable(*decompose_syllable("한")) == "한"


def test_compose_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        compose_syllable(19, 0)
    with pytest.raises(IndexOutOfRange):
        compose_syllable(0, 21)
    with pytest.raises(IndexOutOfRange):
        compose_syllable(0, 0, 28)
    with pytest.raises(IndexOutOfRange):
        initial(19)
    with pytest.raises(IndexOutOfRange):
        final(0)  # "no final" is represented by absence


def test_compose_rejects_wrong_kind():
    with pytest.raises(IndexOutOfRange):
        compose_syllable(medial(0), medial(0))
    with pytest.raises(IndexOutOfRange):
        compose_syllable(initial(0), medial(0), compat("ㄱ"))


def test_round_trip_all_syllables():
    for ch in iter_all_syllables():
        assert compose_syllable(*decompose_syllable(ch)) == ch


def test_to_jamo_seq_jaem():
    seq = to_jamo_seq("잼")
    assert [u.letter for u in seq.units] == ["ㅈ", "ㅐ", "ㅁ"]
    assert seq.syllable_boundaries == (0,)


def test_to_jamo_seq_empty():
    seq = to_jamo_seq("")
    assert len(seq) == 0 and seq.syllable_boundaries == ()
    assert from_jamo_seq(seq) == ""


def test_to_jamo_seq_passthrough():
    seq = to_jamo_seq("a한b")
    assert seq.units[0] == "a" and seq.units[-1] == "b"
    assert [u.letter for u in seq.units[1:4]] == ["ㅎ", "ㅏ", "ㄴ"]
    assert seq.syllable_boundaries == (1,)


def test_compat_jamo_are_units_not_passthrough():
    seq = to_jamo_seq("ㅋㅋ")
    assert all(isinstance(u, Jamo) and u.kind is JamoKind.COMPAT for u in seq.units)


def test_from_jamo_seq_rejects_bad_grouping():
    with pytest.raises(InvalidJamoGrouping):
        from_jamo_seq(JamoSeq((initial(0),), ()))  # stray positional jamo
    with pytest.raises(InvalidJamoGrouping):
        from_jamo_seq(JamoSeq((initial(0), initial(0)), (0,)))  # no medial


@given(MIXED_TEXT)
def test_string_round_trip(s):
    assert from_jamo_seq(to_jamo_seq(s)) == s


def test_edit_distance_examples():
    assert jamo_edit_distance("초콜렛", "초콜릿") == 1  # medial ㅔ -> ㅣ
    assert jamo_edit_distance("너무", "넘") == 1       # one deletion after folding
    assert jamo_edit_distance("세요", "세욤") == 1
    assert jamo_edit_distance("", "") == 0
    assert jamo_edit_distance("abc", "abd") == 1


def test_edit_distance_compat_stays_distinct():
    # a standalone ㅋ is not the same unit as the initial of 크
    assert jamo_edit_distance("ㅋ", "크") == 2


@given(MIXED_TEXT)
def test_edit_distance_identity(s):
    assert jamo_edit_distance(s, s) == 0


@given(MIXED_TEXT, MIXED_TEXT)
def test_edit_distance_symmetry(a, b):
    assert jamo_edit_distance(a, b) == jamo_edit_distance(b, a)


@settings(max_examples=60)
@given(MIXED_TEXT, MIXED_TEXT, MIXED_TEXT)
def test_edit_distance_triangle(a, b, c):
    assert jamo_edit_distance(a, c) <= jamo_edit_distance(a, b) + jamo_edit_distance(b, c)


def test_edit_distance_against_brute_force():
    from lggnorm.hangul import distance_key

    rng = random.Random(7)
    pool = "가나다한너무넘좋아료ㅋㅠab "
    for _ in range(150):
        a = "".join(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        b = "".join(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        assert jamo_edit_distance(a, b) == brute_levenshtein(
            distance_key(a), distance_key(b))


def test_fold_letters_merges_positions():
    assert fold_letters("합니다") == ("ㅎ", "ㅏ", "ㅂ", "ㄴ", "ㅣ", "ㄷ", "ㅏ")
    assert fold_letters("ㅂ니다") == ("ㅂ", "ㄴ", "ㅣ", "ㄷ", "ㅏ")


def test_compose_letters_joins_sub_syllabic_endings():
    assert compose_letters(fold_letters("하") + fold_letters("ㅂ니다")) == "합니다"
    assert compose_letters(fold_letters("색깔") + fold_letters("이")) == "색깔이"
    assert compose_letters(list("abc")) == "abc"


LETTER_SEQS = st.lists(st.sampled_from(list(INITIAL_LETTERS + MEDIAL_LETTERS + FINAL_LETTERS + "a1")),
                       max_size=12)


@given(LETTER_SEQS)
def test_compose_key_step_yields_composed_distance_key(letters):
    state, key = COMPOSE_START, []
    for i, letter in enumerate(letters):
        nxt = letters[i + 1] if i + 1 < len(letters) else ""
        state, unit = compose_key_step(state, letter, nxt != "" and nxt in MEDIAL_LETTERS)
        key.append(unit)
    assert tuple(key) == distance_key(compose_letters(letters))


@given(st.text(alphabet=st.sampled_from(list("가각나ㅂ니다a")), max_size=6),
       st.text(alphabet=st.sampled_from(list("가각나ㅂ니다a")), max_size=6),
       st.integers(0, 3))
def test_prefix_distances_match_levenshtein(a, b, cap):
    ka, kb = distance_key(a), distance_key(b)
    dists = prefix_distances(ka, kb, cap)
    for i in range(len(ka) + 1):
        if i < len(dists):
            assert dists[i] == brute_levenshtein(ka[:i], kb)
        else:
            assert brute_levenshtein(ka[:i], kb) > cap
