import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.apply import Anchor, ApplyConfig, find_matches
from lggnorm.concord import ConcordSort, build_concordance
from lggnorm.fst import compile_graph
from lggnorm.grammar import parse_graph
from lggnorm.tokenizer import TokenClass
from oracles import byte_offsets, char_class_by_rules, concordance_by_bisect


def test_kwic_line(library, lexicon):
    text = "영화 잼있어요"
    matches = find_matches(text, library.fsts, lexicon)
    lines = build_concordance(text, matches, 5, 5)
    assert len(lines) == 1
    line = lines[0]
    assert (line.left, line.keyword, line.right) == ("영화 ", "잼", "있어요")


def test_zero_matches(library, lexicon):
    assert build_concordance("표준 문장", [], 5, 5) == []


def test_contiguity(library, lexicon, informal_text):
    matches = find_matches(informal_text, library.fsts, lexicon)
    for line in build_concordance(informal_text, matches, 10, 10):
        assert (line.left + line.keyword + line.right) in informal_text


def test_widths_count_characters(library, lexicon):
    text = "가나다라마바사 잼있어요"
    matches = find_matches(text, library.fsts, lexicon)
    lines = build_concordance(text, matches, 3, 2)
    assert lines[0].keyword == "잼"
    assert lines[0].left == "바사 "   # 3 characters, not 3 bytes
    assert lines[0].right == "있어"   # truncated at 2 characters


def test_keyword_sort_with_offset_tiebreak(library, lexicon):
    text = "넘 좋아요 짱 좋아요 넘 빨라요"
    matches = find_matches(text, library.fsts, lexicon)
    lines = build_concordance(text, matches, 8, 8, ConcordSort.KEYWORD)
    keywords = [l.keyword for l in lines]
    assert keywords == sorted(keywords)
    offsets = [l.offset for l in lines if l.keyword == "넘"]
    assert offsets == sorted(offsets)


def test_text_order_sorted_by_offset(library, lexicon, informal_text):
    lines = build_concordance(
        informal_text,
        find_matches(informal_text, library.fsts, lexicon),
        10, 10, ConcordSort.TEXT_ORDER)
    offsets = [l.offset for l in lines]
    assert offsets == sorted(offsets)


def test_newlines_render_flat(library, lexicon):
    text = "효과가 좋아요\n넘 좋아요"
    matches = find_matches(text, library.fsts, lexicon)
    lines = build_concordance(text, matches, 6, 6)
    rendered = lines[0].render(6)
    assert "\n" not in rendered and "⏎" in rendered


NEOM = compile_graph(parse_graph('GRAPH Neom TAG T\n0 INITIAL -> 1\n1 "넘" / "너무" -> 9\n9 FINAL\n'))
# syllables, 넘 itself, multi-byte and ASCII whitespace, astral symbols, ASCII
MULTIBYTE = st.text(alphabet=st.one_of(
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
    st.just("넘"),
    st.sampled_from([" ", "　", " ", "\n"]),
    st.characters(min_codepoint=0x1F300, max_codepoint=0x1FAFF),
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
), max_size=40).map(lambda s: unicodedata.normalize("NFC", s))


@settings(max_examples=300)
@given(MULTIBYTE, st.sampled_from(Anchor), st.integers(0, 6), st.integers(0, 6), st.randoms())
def test_byte_offsets_around_multibyte_characters(lexicon, text, anchor, left, right, rnd):
    matches = find_matches(text, [NEOM], lexicon, ApplyConfig(anchor=anchor))
    byte_of_char = byte_offsets(text)
    # 넘 is one character: a token-start anchor takes it after a
    # non-syllable or at the start, the other anchor everywhere
    expected = [(byte_of_char[i], byte_of_char[i + 1], "넘") for i, ch in enumerate(text)
                if ch == "넘" and (anchor is Anchor.ANYWHERE or i == 0
                                  or char_class_by_rules(text[i - 1]) is not TokenClass.HANGUL)]
    assert [(m.start, m.end, m.surface) for m in matches] == expected
    shuffled = rnd.sample(matches, len(matches))
    for sort in ConcordSort:
        want = concordance_by_bisect(text, matches, left, right, sort)
        assert build_concordance(text, matches, left, right, sort) == want
        assert build_concordance(text, shuffled, left, right, sort) == want
