import itertools
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.hangul import (
    FINAL_LETTERS,
    INITIAL_LETTERS,
    MEDIAL_LETTERS,
    IndexOutOfRange,
    Jamo,
    JamoKind,
    compose_letters,
    compose_syllable,
    distance_key,
    final,
    fold_letters,
    initial,
    jamo_units,
    key_distance,
    to_jamo_seq,
)
from oracles import brute_levenshtein, compose_letters_by_loop, syllable_jamo, unit_letter

HANGUL_SYLLABLES = st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3)
MIXED_TEXT = st.text(
    alphabet=st.one_of(
        HANGUL_SYLLABLES,
        st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
        st.sampled_from(list("abcXYZ019 ._*@-?ㅋㅠ한글")),
    ),
    max_size=24,
)


def test_compose_basics():
    assert compose_syllable(0, 0) == "가"
    assert compose_syllable(18, 0, 4) == "한"


def test_compose_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        compose_syllable(19, 0)
    with pytest.raises(IndexOutOfRange):
        compose_syllable(0, 21)
    with pytest.raises(IndexOutOfRange):
        compose_syllable(0, 0, 28)
    with pytest.raises(IndexOutOfRange):
        compose_syllable(-1, 0)
    with pytest.raises(IndexOutOfRange):
        initial(19)
    with pytest.raises(IndexOutOfRange):
        final(0)  # "no final" is represented by absence


def test_round_trip_all_syllables():
    for cp in range(0xAC00, 0xD7A4):
        ini, med, fin = syllable_jamo(chr(cp))
        assert compose_syllable(ini.index, med.index, fin.index if fin else 0) == chr(cp)


def test_to_jamo_seq_jaem():
    seq = to_jamo_seq("잼")
    assert [unit_letter(u) for u in seq.units] == ["ㅈ", "ㅐ", "ㅁ"]
    assert seq.syllable_boundaries == (0,)


def test_to_jamo_seq_empty():
    seq = to_jamo_seq("")
    assert len(seq) == 0 and seq.syllable_boundaries == ()


def test_to_jamo_seq_passthrough():
    seq = to_jamo_seq("a한b")
    assert seq.units[0] == "a" and seq.units[-1] == "b"
    assert [unit_letter(u) for u in seq.units[1:4]] == ["ㅎ", "ㅏ", "ㄴ"]
    assert seq.syllable_boundaries == (1,)


def test_compat_jamo_are_units_not_passthrough():
    seq = to_jamo_seq("ㅋㅋ")
    assert all(isinstance(u, Jamo) and u.kind is JamoKind.COMPAT for u in seq.units)


@given(MIXED_TEXT)
def test_string_round_trip(s):
    assert unicodedata.normalize("NFC", jamo_units(s)) == s


def jamo_distance(a: str, b: str) -> int:
    return key_distance(distance_key(a), distance_key(b))


def test_edit_distance_examples():
    assert jamo_distance("초콜렛", "초콜릿") == 1  # medial ㅔ -> ㅣ
    assert jamo_distance("너무", "넘") == 1       # one deletion after folding
    assert jamo_distance("세요", "세욤") == 1
    assert jamo_distance("", "") == 0
    assert jamo_distance("abc", "abd") == 1


def test_edit_distance_compat_stays_distinct():
    # a standalone ㅋ is not the same unit as the initial of 크
    assert jamo_distance("ㅋ", "크") == 2


@given(MIXED_TEXT)
def test_edit_distance_identity(s):
    assert jamo_distance(s, s) == 0


@given(MIXED_TEXT, MIXED_TEXT)
def test_edit_distance_symmetry(a, b):
    assert jamo_distance(a, b) == jamo_distance(b, a)


@settings(max_examples=60)
@given(MIXED_TEXT, MIXED_TEXT, MIXED_TEXT)
def test_edit_distance_triangle(a, b, c):
    assert jamo_distance(a, c) <= jamo_distance(a, b) + jamo_distance(b, c)


def test_edit_distance_against_brute_force():
    rng = random.Random(7)
    pool = "가나다한너무넘좋아료ㅋㅠab "
    for _ in range(150):
        a = "".join(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        b = "".join(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        assert jamo_distance(a, b) == brute_levenshtein(
            distance_key(a), distance_key(b))


def test_fold_letters_merges_positions():
    assert tuple(fold_letters("합니다")) == ("ㅎ", "ㅏ", "ㅂ", "ㄴ", "ㅣ", "ㄷ", "ㅏ")
    assert tuple(fold_letters("ㅂ니다")) == ("ㅂ", "ㄴ", "ㅣ", "ㄷ", "ㅏ")


def test_compose_letters_joins_sub_syllabic_endings():
    assert compose_letters(fold_letters("하") + fold_letters("ㅂ니다")) == "합니다"
    assert compose_letters(fold_letters("색깔") + fold_letters("이")) == "색깔이"
    assert compose_letters(list("abc")) == "abc"


def test_compose_letters_matches_the_loop():
    # the 51 distinct letters, a Latin letter, a stray conjoining medial
    # and a syllable: every sequence of up to three of them, then seeded
    # random ones of up to twelve, long enough to hold a final letter
    # before a vowel letter
    items = sorted(set(INITIAL_LETTERS + MEDIAL_LETTERS + FINAL_LETTERS)) + ["a", "\u1161", "가"]
    assert len(items) == 54
    for n in range(4):
        for seq in itertools.product(items, repeat=n):
            assert compose_letters(seq) == compose_letters_by_loop(seq), seq
    rng = random.Random(0)
    for _ in range(200_000):
        seq = rng.choices(items, k=rng.randint(0, 12))
        assert compose_letters(seq) == compose_letters_by_loop(seq), seq


@given(st.text(alphabet=st.one_of(HANGUL_SYLLABLES, st.sampled_from("a1")), max_size=8))
def test_letters_are_the_distance_key_of_syllable_only_text(s):
    # a final is always followed by an initial consonant or by no letter,
    # so compose_letters regroups the letters into the same syllables
    letters = fold_letters(s)
    assert compose_letters(letters) == s
    assert tuple(letters) == distance_key(s)


@given(st.text(alphabet=st.sampled_from(list("가각나ㅂ니다a")), max_size=6),
       st.text(alphabet=st.sampled_from(list("가각나ㅂ니다a")), max_size=6))
def test_capped_key_distance_matches_levenshtein(a, b):
    ka, kb = distance_key(a), distance_key(b)
    for i in range(len(ka) + 1):
        exact = brute_levenshtein(ka[:i], kb)
        assert key_distance(ka[:i], kb) == exact
        for cap in range(4):
            got = key_distance(ka[:i], kb, cap)
            assert got == exact if exact <= cap else got > cap
