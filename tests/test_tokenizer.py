import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.apply import TextIndex
from lggnorm.tokenizer import (
    PUNCT_CHARS,
    InvalidEncoding,
    TokenClass,
    tokenize,
)
from oracles import char_class, char_class_by_rules, tokenize_by_groupby

NFC_SAFE = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
        st.sampled_from(list("abcXYZ019 \t\n._*@~?!「」한국말%^&=+")),
    ),
    max_size=40,
)


def classes(text):
    return [(t.surface, t.cls) for t in tokenize(text)]


def test_hangul_sentence():
    assert classes("영화 잼있어요") == [
        ("영화", TokenClass.HANGUL),
        ("잼있어요", TokenClass.HANGUL),
    ]


def test_jamo_token():
    assert classes("ㅋㅋ") == [("ㅋㅋ", TokenClass.JAMO)]


def test_empty():
    assert len(tuple(tokenize(""))) == 0


def test_symbol_runs_stay_single_tokens():
    assert classes("*_*") == [("*_*", TokenClass.SYMBOL)]
    assert classes("@@") == [("@@", TokenClass.SYMBOL)]


def test_mixed_script_splits_at_class_boundaries():
    assert classes("abc가1.") == [
        ("abc", TokenClass.LATIN),
        ("가", TokenClass.HANGUL),
        ("1", TokenClass.DIGIT),
        (".", TokenClass.PUNCT),
    ]


def test_jamo_symbol_mix_splits():
    assert classes("ㅜ_ㅜ") == [
        ("ㅜ", TokenClass.JAMO),
        ("_", TokenClass.SYMBOL),
        ("ㅜ", TokenClass.JAMO),
    ]


def test_byte_offsets_slice_source():
    text = "영화 잼있어요 good"
    data = text.encode("utf-8")
    for tok in tokenize(text):
        assert data[tok.start:tok.end].decode("utf-8") == tok.surface


def test_rejects_nfd():
    decomposed = "한"  # NFD 한
    with pytest.raises(InvalidEncoding):
        tokenize(decomposed)


@given(NFC_SAFE)
def test_losslessness(text):
    stream = tokenize(text)
    data = text.encode("utf-8")
    rebuilt = bytearray()
    prev = 0
    for tok in stream:
        gap = data[prev:tok.start].decode("utf-8")
        assert gap == "" or gap.isspace()
        rebuilt += data[prev:tok.start]
        rebuilt += tok.surface.encode("utf-8")
        prev = tok.end
    tail = data[prev:].decode("utf-8")
    assert tail == "" or tail.isspace()
    rebuilt += data[prev:]
    assert bytes(rebuilt) == data


@given(NFC_SAFE)
def test_class_purity(text):
    for tok in tokenize(text):
        for ch in tok.surface:
            assert char_class_by_rules(ch) is tok.cls


def test_char_class_every_code_point():
    wrong = []
    for cp in range(sys.maxunicode + 1):
        if 0xD800 <= cp <= 0xDFFF:
            continue
        ch = chr(cp)
        if char_class(ch) is not char_class_by_rules(ch):
            wrong.append(hex(cp))
    assert wrong == []


MIXED = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
        st.characters(min_codepoint=0x1100, max_codepoint=0x11FF),  # stray jamo
        st.characters(min_codepoint=0x00, max_codepoint=0x7F),
        st.sampled_from(list("\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2003\u2028\u3000")),
        st.sampled_from(sorted(PUNCT_CHARS)),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF,
                      blacklist_categories=("Cs",)),
    ),
    max_size=60,
).map(lambda text: unicodedata.normalize("NFC", text))


@settings(max_examples=300)
@given(MIXED)
def test_runs_match_per_character_grouping(text):
    stream = tokenize(text)
    assert (tuple(stream), len(text.encode())) == tokenize_by_groupby(text)


@settings(max_examples=300)
@given(MIXED)
def test_a_token_surface_tokenizes_to_itself(lexicon, text):
    # the classifier indexes a token through its one span, without
    # tokenizing its surface: that index must equal the tokenized one
    for tok in tokenize(text):
        alone = tuple(tokenize(tok.surface))
        assert alone == (tok._replace(start=0, end=tok.end - tok.start),)
        one_span = TextIndex(tok.surface, lexicon, [(0, len(tok.surface), tok.cls)])
        tokenized = TextIndex(tok.surface, lexicon)
        assert one_span.token_at_unit == tokenized.token_at_unit
        assert one_span.single_pos(0) == tokenized.single_pos(0)


@given(NFC_SAFE)
def test_census_counts_sum_to_token_count(text):
    stream = tokenize(text)
    assert sum(runs.total() for runs in stream.census.values()) == len(tuple(stream))


def test_census_counts():
    stream = tokenize("영화 잼있어요 영화")
    assert {cls: runs for cls, runs in stream.census.items() if runs} == {
        TokenClass.HANGUL: {"영화": 2, "잼있어요": 1}}


def test_census_folds_latin_case():
    assert tokenize("GG gg").census[TokenClass.LATIN] == {"gg": 2}


def test_census_empty():
    assert not any(tokenize("").census.values())
