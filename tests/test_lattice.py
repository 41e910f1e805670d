"""The lexicon lattice against the recursive analysers it replaced."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from lggnorm.apply import TextIndex
from lggnorm.classify import Resources, _detect_spacing, _hada_root, _token_index
from lggnorm.hangul import FINAL_LETTERS, INITIAL_LETTERS, MEDIAL_LETTERS, compose_letters, fold_letters
from lggnorm.lexicon import (DEFAULT_CONCAT_RULES, DictEntry, Lexicon, Pos, _RulePattern,
                             is_analyzable)
from lggnorm.resources import load_lexicon
from lggnorm.tokenizer import Token, TokenClass, tokenize
from oracles import (analyze_key_by_recursion, hada_root_by_suffixes, rule_positions,
                     spacing_by_substrings, word_ends_by_lattice)

EDIT_LETTERS = INITIAL_LETTERS + MEDIAL_LETTERS + FINAL_LETTERS
CORE = load_lexicon().entries
# the same entries again, as loaded from a second and a third dictionary
DUPLICATES = (CORE + tuple(replace(e) for e in CORE[::3])
              + tuple(replace(e, flags=frozenset({"src=extra"})) for e in CORE[::4]))

RULE_POS = [Pos.N, Pos.V, Pos.ADJ, Pos.JOSA, Pos.EOMI, Pos.XSV, Pos.ADV, Pos.DET]
BY_POS: dict = {}
for _e in CORE:
    BY_POS.setdefault(_e.pos, []).append(_e.surface)
# words the default rules accept, and a root of any syllables before 하 EOMI
SHAPES = [(Pos.N,), (Pos.N, Pos.JOSA), (Pos.N, Pos.JOSA, Pos.JOSA), (Pos.V, Pos.EOMI),
          (Pos.ADJ, Pos.EOMI, Pos.EOMI), (Pos.N, Pos.XSV, Pos.EOMI), (Pos.ADV,),
          (Pos.DET,), ("root", Pos.XSV, Pos.EOMI), (Pos.JOSA,), (Pos.EOMI,)]
SYLLABLES = sorted({ch for e in CORE for ch in e.surface if "가" <= ch <= "힣"})

# a rule over random parts of speech, or over the parts of a shape above
rule_atoms = st.one_of(
    st.lists(st.sampled_from(RULE_POS), min_size=1, max_size=3),
    st.sampled_from([shape for shape in SHAPES if "root" not in shape]),
)
rule_text = rule_atoms.flatmap(lambda atoms: st.tuples(
    *(st.sampled_from([pos.value, pos.value + "*", pos.value + "+"]) for pos in atoms)
).map(" ".join))
concat_rules = st.one_of(
    st.just(DEFAULT_CONCAT_RULES),
    st.lists(rule_text, min_size=1, max_size=3).map(tuple),
    st.lists(rule_text, min_size=1, max_size=2).map(lambda r: DEFAULT_CONCAT_RULES[:4] + tuple(r)),
)

_resources: dict = {}


def resources_for(entries, rules) -> Resources:
    if (len(entries), rules) not in _resources:
        _resources[len(entries), rules] = Resources(lexicon=Lexicon(entries, rules), fsts=[])
    return _resources[len(entries), rules]


@st.composite
def edited_tokens(draw):
    """Up to 12 characters glued from 1-3 words of dictionary morphemes,
    with 0-2 jamo edits."""
    letters = []
    for _ in range(draw(st.integers(1, 3))):
        for pos in draw(st.sampled_from(SHAPES)):
            if pos == "root":
                letters += fold_letters("".join(draw(st.lists(st.sampled_from(SYLLABLES),
                                                              min_size=1, max_size=2))))
            else:
                letters += fold_letters(draw(st.sampled_from(BY_POS[pos])))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(letters)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            letters.insert(i, draw(st.sampled_from(EDIT_LETTERS)))
        elif i < len(letters):
            if op == "delete":
                del letters[i]
            else:
                letters[i] = draw(st.sampled_from(EDIT_LETTERS))
    return compose_letters(letters)[:12]


def segment_ids(analyses):
    return [[(s, id(e)) for s, e in a.segments] for a in analyses]


def assert_lattice_matches_oracles(surface, res):
    lexicon = res.lexicon
    key = fold_letters(surface)
    expected = analyze_key_by_recursion(lexicon, key)
    # the same analyses in the same order, down to which duplicate entry
    assert segment_ids(lexicon.analyze_key(key)) == segment_ids(expected)
    assert (len(key) in lexicon.word_ends(key)) == bool(expected)
    tokens = tokenize(surface).tokens
    if len(tokens) == 1 and tokens[0].cls is TokenClass.HANGUL:
        assert is_analyzable(tokens[0], lexicon) == bool(expected)

    if not surface:
        return
    token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
    index = _token_index(token, lexicon)
    assert _detect_spacing(index, res) == spacing_by_substrings(surface, lexicon)
    assert _hada_root(index, lexicon) == hada_root_by_suffixes(surface, lexicon)


@settings(max_examples=300, deadline=None)
@given(surface=edited_tokens(), rules=concat_rules,
       entries=st.sampled_from([CORE, DUPLICATES]))
def test_lattice_matches_recursive_oracles(surface, rules, entries):
    assert_lattice_matches_oracles(surface, resources_for(entries, rules))


@settings(max_examples=300, deadline=None)
@given(surface=edited_tokens(), rules=concat_rules,
       entries=st.sampled_from([CORE, DUPLICATES]))
def test_word_walk_matches_lattice(surface, rules, entries):
    lexicon = resources_for(entries, rules).lexicon
    key = fold_letters(surface)
    ends = word_ends_by_lattice(lexicon, key)
    assert lexicon.word_ends(key) == ends
    # the early exit, at every length of the key
    assert [lexicon.is_word(key[:u]) for u in range(len(key) + 1)] == \
        [u in ends for u in range(len(key) + 1)]
    if surface:
        token = Token(surface, TokenClass.HANGUL, 0, len(surface.encode("utf-8")))
        assert is_analyzable(token, lexicon) == (len(key) in ends)


def test_word_walk_expands_each_pair_once():
    # 가 splits into 가 and 가가 JOSAs in Fibonacci(24) ways, but reaches
    # each (unit, rule state) pair once
    lexicon = Lexicon([DictEntry("가", "가", Pos.N), DictEntry("가", "가", Pos.JOSA),
                       DictEntry("가가", "가가", Pos.JOSA)])
    steps = []
    step = lexicon._step
    lexicon._step = lambda state, pos: steps.append(pos) or step(state, pos)
    key = fold_letters("가" * 24 + "ㅋ")
    assert lexicon.word_ends(key) == set(range(2, 49, 2))
    assert not lexicon.is_word(key)
    assert len(steps) < 400


@pytest.mark.parametrize("surface, rules", [
    # 착하 (ADJ) ends inside 합, where 하 (XSV) returns to the start state
    ("착합니다", ("XSV* EOMI*", "XSV* ADJ*")),
    ("추천합니다요", ("N", "XSV*", "EOMI+")),
    ("사람들이영화를", ("N JOSA*", "JOSA*")),
])
def test_words_end_only_at_character_boundaries(surface, rules):
    assert_lattice_matches_oracles(surface, resources_for(CORE, rules))


def test_single_pos_keeps_the_entries_the_rules_accept_alone():
    lexicon = resources_for(CORE, DEFAULT_CONCAT_RULES).lexicon
    assert TextIndex("이 사람", lexicon).single_pos(0) == {"DET"}  # not JOSA
    for e in CORE:
        one_word = {a.segments[0][1].pos.value
                    for a in analyze_key_by_recursion(lexicon, fold_letters(e.surface))
                    if len(a.segments) == 1}
        assert TextIndex(e.surface, lexicon).single_pos(0) == one_word, e.surface


@settings(max_examples=100, deadline=None)
@given(rules=concat_rules, seq=st.lists(st.sampled_from(RULE_POS), max_size=5).map(tuple))
def test_rule_automaton_matches_position_sets(rules, seq):
    lexicon = Lexicon((), rules)
    expected = bool(seq) and any(len(r.atoms) in rule_positions(r, seq)
                                 for r in map(_RulePattern, rules))
    assert lexicon.pos_seq_allowed(seq) == expected


def test_duplicate_entries_keep_dictionary_order():
    lexicon = Lexicon(DUPLICATES)
    key = fold_letters("사람들이")
    got = lexicon.analyze_key(key)
    assert len(got) > 1
    assert segment_ids(got) == segment_ids(analyze_key_by_recursion(lexicon, key))
