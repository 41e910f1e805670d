import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.apply import (
    Anchor,
    ApplyConfig,
    Mode,
    TextIndex,
    find_matches,
    longest_match,
    normalize,
    run_from,
    strip_merge,
    transform,
)
from lggnorm.fst import EpsilonOnlyPath, Fst, compile_graph
from lggnorm.grammar import TAG_PATTERN, parse_graph, validate
from lggnorm.tokenizer import InvalidEncoding, TokenClass
from oracles import LITERAL_SYLLABLES, random_graph_text

NOUN_FIRST = 'GRAPH G TAG T\n0 INITIAL -> 1\n1 <N> / "명사" -> 9\n9 FINAL\n'


def test_abbreviation_match(library, lexicon):
    matches = find_matches("이 상품을 강추합니다", library.fsts, lexicon)
    assert len(matches) == 1
    m = matches[0]
    assert (m.surface, m.output, m.tag) == ("강추", "강력 추천", "ABBR")


def test_match_prefix_of_compound(library, lexicon):
    matches = find_matches("초콜렛향기", library.fsts, lexicon)
    assert len(matches) == 1
    m = matches[0]
    assert m.start == 0 and m.surface == "초콜렛" and m.output == "초콜릿"


def test_standard_sentence_has_no_effective_match(library, lexicon):
    text = "효과가 좋아요"
    assert normalize(text, library.fsts, lexicon) == text


def test_replace_examples(library, lexicon):
    assert normalize("효과가 넘 좋아요", library.fsts, lexicon) == "효과가 너무 좋아요"
    assert normalize("안녕하세욤", library.fsts, lexicon) == "안녕하세요"
    assert normalize("", library.fsts, lexicon) == ""


def test_merge_decoration(library, lexicon):
    text = "영화 잼있어요"
    matches = find_matches(text, library.fsts, lexicon)
    assert transform(text, matches, Mode.MERGE) == "영화 {잼,재미.ABBR}있어요"


def test_match_surface_equals_source_slice(library, lexicon, informal_text):
    data = informal_text.encode("utf-8")
    matches = find_matches(informal_text, library.fsts, lexicon)
    assert matches
    prev_end = 0
    for m in matches:
        assert m.start < m.end
        assert m.start >= prev_end  # sorted, non-overlapping
        prev_end = m.end
        assert data[m.start:m.end].decode("utf-8") == m.surface


def test_replace_identity_with_no_matches():
    text = "아무 일도 없다"
    assert transform(text, [], Mode.REPLACE) == text


def test_merge_strip_recovers_source(library, lexicon, informal_text):
    matches = find_matches(informal_text, library.fsts, lexicon)
    merged = transform(informal_text, matches, Mode.MERGE)
    assert strip_merge(merged) == informal_text


def test_idempotent_on_corpora(library, lexicon, formal_text, informal_text):
    for text in (formal_text, informal_text):
        once = normalize(text, library.fsts, lexicon)
        assert normalize(once, library.fsts, lexicon) == once


def test_token_start_anchor_blocks_interior_match(lexicon):
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 "넘" / "너무" -> 9\n9 FINAL\n')
    fst = compile_graph(g)
    # 넘 appears mid-token in 안넘; TOKEN_START must not fire there
    assert find_matches("안넘", [fst], lexicon) == []
    anywhere = ApplyConfig(anchor=Anchor.ANYWHERE)
    hits = find_matches("안넘", [fst], lexicon, anywhere)
    assert [m.surface for m in hits] == ["넘"]


def test_longest_match_wins_across_grammars(lexicon):
    short = parse_graph('GRAPH Short TAG A\n0 INITIAL -> 1\n1 "가나" / "s" -> 9\n9 FINAL\n')
    long_ = parse_graph('GRAPH Long TAG B\n0 INITIAL -> 1\n1 "가나다" / "l" -> 9\n9 FINAL\n')
    fsts = [compile_graph(short), compile_graph(long_)]
    matches = find_matches("가나다", fsts, lexicon)
    assert [m.output for m in matches] == ["l"]


def test_priority_breaks_span_ties(lexicon):
    a = parse_graph('GRAPH A TAG A\n0 INITIAL -> 1\n1 "가나" / "a" -> 9\n9 FINAL\n')
    b = parse_graph('GRAPH B TAG B\n0 INITIAL -> 1\n1 "가나" / "b" -> 9\n9 FINAL\n')
    fsts = [compile_graph(a), compile_graph(b)]
    assert find_matches("가나", fsts, lexicon)[0].output == "a"
    flipped = ApplyConfig(grammar_priority=("B", "A"))
    assert find_matches("가나", fsts, lexicon, flipped)[0].output == "b"


def test_reordered_transducers_need_no_priority(lexicon):
    # the order of the list is the priority: reordering it once gives what
    # naming the priority on every call gives
    a = parse_graph('GRAPH A TAG A\n0 INITIAL -> 1\n1 "가나" / "a" -> 9\n9 FINAL\n')
    b = parse_graph('GRAPH B TAG B\n0 INITIAL -> 1\n1 "가나|다" / "b" -> 9\n9 FINAL\n')
    fsts = [compile_graph(a), compile_graph(b)]
    text = "가나 다 가나"
    flipped = find_matches(text, fsts, lexicon, ApplyConfig(grammar_priority=("B", "A")))
    assert [m.output for m in flipped] == ["b", "b", "b"]
    assert find_matches(text, fsts[::-1], lexicon) == flipped
    assert find_matches(text, fsts, lexicon) != flipped


def test_alternative_order_breaks_ties_within_graph(lexicon):
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1,2\n'
                    '1 "가나" / "first" -> 9\n2 "가나" / "second" -> 9\n9 FINAL\n')
    fst = compile_graph(g)
    assert find_matches("가나", [fst], lexicon)[0].output == "first"


def test_priority_must_cover_grammars(library, lexicon):
    with pytest.raises(ValueError):
        find_matches("x", library.fsts, lexicon,
                     ApplyConfig(grammar_priority=("Abbrev",)))


def test_an_empty_accept_is_no_match(lexicon):
    # compile_graph refuses a graph that accepts the empty input, so the
    # transducer whose initial state is final is built by hand
    with pytest.raises(EpsilonOnlyPath):
        compile_graph(parse_graph("GRAPH E TAG T\n0 INITIAL -> 9\n9 FINAL\n"))
    empty = Fst("Empty", "T", 1, 0, {0: ("x",)}, ())
    neom = compile_graph(parse_graph('GRAPH Neom TAG T\n0 INITIAL -> 1\n1 "넘" / "너무" -> 9\n9 FINAL\n'))
    index = TextIndex("넘 좋아", lexicon)
    assert run_from(empty, index, 0) is None
    assert longest_match([neom], index, 0) == (3, "너무", neom)  # the units of 넘
    assert longest_match([empty, neom], index, 0) == longest_match([neom], index, 0)
    assert find_matches("넘 좋아", [empty], lexicon) == []


def test_text_index_refuses_decomposed_text():
    with pytest.raises(InvalidEncoding):
        TextIndex("\u1100\u1161")  # 가 as a conjoining initial and medial


def test_mask_consumes_analyzable_token(lexicon):
    fst = compile_graph(parse_graph(NOUN_FIRST))
    matches = find_matches("효과 잼", [fst], lexicon)
    assert [m.surface for m in matches] == ["효과"]  # 잼 is not analyzable
    assert matches[0].output == "명사"


def test_mask_pos_must_agree(lexicon):
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 <JOSA> -> 9\n9 FINAL\n')
    fst = compile_graph(g)
    assert find_matches("효과", [fst], lexicon) == []


def test_boundary_symbol_matches_single_space(lexicon):
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 "강력 추천" / "강추" -> 9\n9 FINAL\n')
    fst = compile_graph(g)
    matches = find_matches("강력 추천", [fst], lexicon)
    assert [m.surface for m in matches] == ["강력 추천"]
    assert find_matches("강력  추천", [fst], lexicon) == []


def test_emoticon_matches_span_token_boundaries(library, lexicon):
    # ㅜ_ㅜ tokenizes into three tokens but matches as one sad emoticon
    matches = find_matches("ㅜ_ㅜ 늦어요", library.fsts, lexicon)
    assert [m.surface for m in matches] == ["ㅜ_ㅜ"]
    assert matches[0].tag == "EMOTICON_SAD"


@settings(max_examples=40, deadline=None)
@given(tag=st.from_regex(TAG_PATTERN, fullmatch=True),
       output=st.sampled_from(["웃음", "", "하하 웃음", "a.B"]))
def test_strip_merge_undoes_merge_for_every_tag(lexicon, tag, output):
    g = parse_graph(f'GRAPH Laugh TAG {tag}\n0 INITIAL -> 1\n'
                    f'1 "ㅋㅋ|ㅎㅎ" / "{output}" -> 2\n2 FINAL\n')
    text = "ㅋㅋ 진짜 웃겨 ㅎㅎ"
    matches = find_matches(text, [compile_graph(g)], lexicon)
    assert len(matches) == 2
    assert strip_merge(transform(text, matches, Mode.MERGE)) == text


def random_fsts(n: int) -> list:
    """The first ``n`` random graphs that validate and compile."""
    fsts, seed = [], 0
    while len(fsts) < n:
        seed += 1
        g = parse_graph(random_graph_text(random.Random(seed), name=f"R{seed}"))
        if not validate(g):
            try:
                fsts.append(compile_graph(g))
            except EpsilonOnlyPath:
                pass
    return fsts


def test_may_start_pins():
    ga_na = compile_graph(parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 "가나" -> 9\n9 FINAL\n'))
    assert ga_na.may_start("가")
    assert not ga_na.may_start("각")  # ᄀ ᅡ ᆨ: the path reads ᄀ ᅡ, then has no ᆨ arc
    assert not ga_na.may_start("나") and not ga_na.may_start("ㄱ")
    assert ga_na.may_start("")  # past the end
    noun_first = compile_graph(parse_graph(NOUN_FIRST))
    assert all(map(noun_first.may_start, "가각나 ㅋa.😀"))


def test_may_start_false_proves_that_no_run_starts_at_that_character(
        library, lexicon, formal_text, informal_text):
    # the bundled grammars and random ones over the corpora's characters
    # and random strings that mix them with the random grammars' literals
    # and near misses (각 and 낙 begin like 가 and 나)
    fsts = list(library.fsts) + random_fsts(40)
    rng = random.Random(0)
    alphabet = sorted(set(formal_text + informal_text)) + LITERAL_SYLLABLES * 8 + list("각낙닭핫 ")
    texts = [formal_text, informal_text] + [
        "".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(300)]
    proved = matched = 0
    for text in texts:
        # many tokens, and the whole text as one token, as classify reads one
        for index in (TextIndex(text, lexicon),
                      TextIndex(text, lexicon, ((0, len(text), TokenClass.HANGUL),))):
            for ch, unit in zip(text, index.char_start_unit):
                for fst in fsts:
                    if fst.may_start(ch):
                        matched += run_from(fst, index, unit) is not None
                    else:
                        assert run_from(fst, index, unit) is None, (fst.name, text, ch)
                        proved += 1
    assert proved > 100_000 and matched > 1_000
