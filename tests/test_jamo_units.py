"""The jamo unit string and every key and offset derived from it, checked
against the one-Jamo-object-per-unit encodings kept in oracles.py."""

import subprocess
import sys
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.apply import TextIndex
from lggnorm.fst import literal_symbols
from lggnorm.hangul import (
    Jamo,
    compose_letters,
    distance_key,
    fold_letters,
    jamo_units,
    key_distance,
    to_jamo_seq,
    unit_offsets,
)
from lggnorm.tokenizer import utf8_offsets
from oracles import (
    char_index_of_unit,
    distance_key_by_regex,
    distance_key_by_unit,
    fold_letters_by_regex,
    fold_letters_by_unit,
    jamo_seq,
    jamo_units_by_nfd,
    letter,
    text_offsets,
    unit_letter,
    unit_offsets_by_loop,
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
    got, want = to_jamo_seq(s), jamo_seq(s)
    assert (got.units, got.syllable_boundaries) == (want.units, want.syllable_boundaries)
    assert [unit_letter(u) for u in jamo_seq(s).units if isinstance(u, Jamo)] == \
        [letter(u) for u in jamo_seq(s).units if isinstance(u, Jamo)]
    assert literal_symbols(s) == literal_symbols_by_unit(s)
    assert tuple(fold_letters(s)) == fold_letters_by_unit(s)
    assert same_equalities(distance_key(s), distance_key_by_unit(s))
    starts = unit_offsets(s)
    assert starts == unit_offsets_by_loop(s)
    unit_chars = char_index_of_unit(jamo_seq(s))
    assert starts[-1] == len(unit_chars)
    assert [unit_chars[u] for u in starts[:-1]] == list(range(len(s)))


@settings(max_examples=300)
@given(TEXT)
def test_text_index_offsets_match_the_byte_loop(s):
    # the index holds no bytes: the tokens it reads in characters must sit
    # where the byte-addressed tokens do, and the running sum that turns
    # match characters into bytes must agree with the per-character loop
    text = unicodedata.normalize("NFC", s)
    index = TextIndex(text)
    unit_chars, char_start_unit, byte_of_char, token_at_unit = text_offsets(text)
    assert index.units == "".join(unit_symbols(text))
    assert [index.char_of_unit(u) for u in range(len(index.units))] == list(unit_chars)
    assert index.char_of_unit(len(index.units)) == len(text)
    assert index.char_start_unit == char_start_unit + [len(unit_chars)]
    assert index.token_at_unit == token_at_unit
    assert list(utf8_offsets(text, range(len(text) + 1))) == byte_of_char


SYLLABLE_TEXT = st.text(alphabet=st.one_of(
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3), STRAY_JAMO, st.just("a")),
    max_size=8)


@given(SYLLABLE_TEXT)
def test_letters_are_the_distance_key_with_stray_jamo(s):
    letters = fold_letters(s)
    assert compose_letters(letters) == s  # no letter left standalone
    assert tuple(letters) == distance_key(s)
    assert same_equalities(letters, distance_key_by_unit(s))


def test_stray_jamo_stay_apart_from_syllable_jamo():
    # U+1100 and U+1161 are also the initial and medial of 가, U+11A8 the
    # final of 각; standing outside a syllable they are other units
    assert tuple(fold_letters("\u1100가")) == ("\u1100", "ㄱ", "ㅏ")
    assert key_distance(distance_key("\u1100"), distance_key("ㄱ")) == 1
    assert key_distance(distance_key("\u1100\u1161"), distance_key("가")) == 2
    assert key_distance(distance_key("가\u11a8"), distance_key("각")) == 1
    # a final still meets its initial
    assert key_distance(distance_key("각"), distance_key("가기")) == 1


# every syllable, every conjoining jamo and every compatibility letter
TABLE_CHARS = [chr(cp) for block in ((0xAC00, 0xD7A3), (0x1100, 0x11FF), (0x3131, 0x318E))
               for cp in range(block[0], block[1] + 1)]
# characters past the Basic Multilingual Plane, which the tables never store
ASTRAL_CHARS = ["\U00010000", "😀", "\U0002A6D6", "\U0010FFFF"]


def test_tables_match_the_regex_and_nfd_reference_on_every_jamo_character():
    for ch in TABLE_CHARS:
        assert jamo_units(ch) == jamo_units_by_nfd(ch), ch
        assert tuple(fold_letters(ch)) == fold_letters_by_regex(ch), ch
        assert distance_key(ch) == distance_key_by_regex(ch), ch
    text = "a".join(TABLE_CHARS)
    assert jamo_units(text) == jamo_units_by_nfd(text)
    assert tuple(fold_letters(text)) == fold_letters_by_regex(text)
    assert distance_key(text) == distance_key_by_regex(text)


def test_unit_offsets_match_the_loop_on_every_jamo_and_astral_character():
    for ch in TABLE_CHARS + ASTRAL_CHARS:
        assert unit_offsets(ch) == unit_offsets_by_loop(ch), ch
    text = "a".join(TABLE_CHARS + ASTRAL_CHARS * 2)
    assert unit_offsets(text) == unit_offsets_by_loop(text)


def test_tables_are_empty_after_import():
    # the tables fill on first use; the package and its CLI fill none on import
    code = ("import lggnorm, lggnorm.cli; from lggnorm import hangul; "
            "print(len(hangul._UNITS), len(hangul._LETTERS), len(hangul._UNIT_COUNTS))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 0 0\n"
