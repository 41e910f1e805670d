"""The jamo unit string and every key and offset derived from it, checked
against the one-Jamo-object-per-unit encodings kept in oracles.py."""

import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.apply import TextIndex
from lggnorm.fst import literal_symbols
from lggnorm.hangul import (
    COMPOSE_START,
    FINAL_LETTERS,
    INITIAL_LETTERS,
    MEDIAL_LETTERS,
    Jamo,
    compose_key_step,
    compose_letters,
    distance_key,
    fold_letters,
    jamo_edit_distance,
    jamo_units,
    to_jamo_seq,
    unit_offsets,
)
from oracles import (
    char_index_of_unit,
    distance_key_by_unit,
    fold_letters_by_unit,
    jamo_seq,
    letter,
    text_offsets,
    unit_symbols,
)
from oracles import literal_symbols as literal_symbols_by_unit

STRAY_JAMO = st.characters(min_codepoint=0x1100, max_codepoint=0x11FF)
CHARS = st.one_of(
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),  # syllables
    st.characters(min_codepoint=0x3131, max_codepoint=0x318E),  # compatibility letters
    STRAY_JAMO,                                                 # conjoining jamo
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),      # ASCII
    st.sampled_from(" \t\n"),
    st.characters(codec="utf-8", min_codepoint=0x80, max_codepoint=0x7FF),     # 2 bytes
    st.characters(codec="utf-8", min_codepoint=0x800, max_codepoint=0xFFFF),   # 3 bytes
    st.characters(codec="utf-8", min_codepoint=0x10000),                       # 4 bytes
)
TEXT = st.text(alphabet=CHARS, max_size=24)


def same_equalities(new: tuple, old: tuple) -> bool:
    """Two units of ``new`` are equal exactly when the same two of ``old`` are."""
    return len(new) == len(old) and all(
        (new[i] == new[j]) == (old[i] == old[j])
        for i in range(len(new)) for j in range(len(new)))


@settings(max_examples=300)
@given(TEXT)
def test_units_and_keys_match_the_per_unit_encodings(s):
    assert jamo_units(s) == "".join(unit_symbols(s))
    assert to_jamo_seq(s) == jamo_seq(s)
    assert [u.letter for u in jamo_seq(s).units if isinstance(u, Jamo)] == \
        [letter(u) for u in jamo_seq(s).units if isinstance(u, Jamo)]
    assert literal_symbols(s) == literal_symbols_by_unit(s)
    assert fold_letters(s) == fold_letters_by_unit(s)
    assert same_equalities(distance_key(s), distance_key_by_unit(s))
    starts = unit_offsets(s)
    unit_chars = char_index_of_unit(jamo_seq(s))
    assert starts[-1] == len(unit_chars)
    assert [unit_chars[u] for u in starts[:-1]] == list(range(len(s)))


@settings(max_examples=300)
@given(TEXT)
def test_text_index_offsets_match_the_byte_loop(s):
    text = unicodedata.normalize("NFC", s)
    index = TextIndex(text)
    unit_chars, char_start_unit, byte_of_char, token_end_unit = text_offsets(text)
    assert index.units == "".join(unit_symbols(text))
    assert [index.char_of_unit(u) for u in range(len(index.units))] == list(unit_chars)
    assert index.char_of_unit(len(index.units)) == len(text)
    assert index.char_start_unit == char_start_unit + [len(unit_chars)]
    assert index.byte_of_char == byte_of_char
    assert index.token_end_unit == token_end_unit


LETTERS = st.lists(st.one_of(st.sampled_from(INITIAL_LETTERS + MEDIAL_LETTERS + FINAL_LETTERS + "a"),
                             STRAY_JAMO), max_size=12)


@given(LETTERS)
def test_compose_key_step_with_stray_jamo(letters):
    state, key = COMPOSE_START, []
    for i, ch in enumerate(letters):
        nxt = letters[i + 1] if i + 1 < len(letters) else ""
        state, unit = compose_key_step(state, ch, nxt != "" and nxt in MEDIAL_LETTERS)
        key.append(unit)
    composed = compose_letters(letters)
    assert tuple(key) == distance_key(composed)
    assert same_equalities(tuple(key), distance_key_by_unit(composed))


def test_stray_jamo_stay_apart_from_syllable_jamo():
    # U+1100 and U+1161 are also the initial and medial of 가, U+11A8 the
    # final of 각; standing outside a syllable they are other units
    assert fold_letters("\u1100가") == ("\u1100", "ㄱ", "ㅏ")
    assert jamo_edit_distance("\u1100", "ㄱ") == 1
    assert jamo_edit_distance("\u1100\u1161", "가") == 2
    assert jamo_edit_distance("가\u11a8", "각") == 1
    assert jamo_edit_distance("각", "가기") == 1  # a final still meets its initial
