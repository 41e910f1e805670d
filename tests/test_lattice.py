"""The lexicon lattice against the recursive analysers it replaced."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from lggnorm.apply import TextIndex
from lggnorm.classify import DEVIANT_RULES, Category, Resources, _hada_root, _spacing_split
from lggnorm.hangul import FINAL_LETTERS, INITIAL_LETTERS, MEDIAL_LETTERS, compose_letters, fold_letters
from lggnorm.lexicon import (DEFAULT_CONCAT_RULES, DictEntry, Lexicon, Pos, RuleAutomaton,
                             _RulePattern, is_analyzable, read_entries)
from lggnorm.resources import load_lexicon
from lggnorm.stats import corpus_stats
from lggnorm.tokenizer import Token, TokenClass, tokenize
from oracles import (PositionSetAutomaton, analyze_key_by_recursion, fewest_words_by_lattice,
                     hada_root_by_prefix_walk, hada_root_by_suffixes, rule_positions,
                     spacing_by_substrings, word_ends_by_lattice, word_walk)

EDIT_LETTERS = INITIAL_LETTERS + MEDIAL_LETTERS + FINAL_LETTERS
CORE = load_lexicon().entries
# the same entries again, as loaded from a second and a third dictionary
DUPLICATES = (CORE + tuple(e._replace() for e in CORE[::3])
              + tuple(e._replace(flags=frozenset({"src=extra"})) for e in CORE[::4]))


def hada_root(index, res):
    """The root the 하-root step names, or None when it does not fire."""
    got = _hada_root(index, res, Category.NEOLOGISM)
    return None if got is None else got[0].removeprefix("hada-pattern:")

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
        if len(_resources) >= 16:
            # a lexicon per drawn pair would stay on the heap, and every
            # later gen-2 collection would walk it inside a timed test
            _resources.clear()
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


def pos_seq(analysis):
    return tuple(e.pos for _, e in analysis.segments)


def assert_lattice_matches_oracles(surface, res):
    lexicon = res.lexicon
    key = fold_letters(surface)
    expected = analyze_key_by_recursion(lexicon, key)
    # the same analyses in the same order, down to which duplicate entry
    assert segment_ids(lexicon.analyze_key(key)) == segment_ids(expected)
    assert (len(key) in lexicon.word_ends(key)) == bool(expected)
    tokens = tuple(tokenize(surface))
    if len(tokens) == 1 and tokens[0].cls is TokenClass.HANGUL:
        assert is_analyzable(tokens[0], lexicon) == bool(expected)

    if not surface:
        return
    index = TextIndex(surface, lexicon)
    assert _spacing_split(index, res, Category.SPACING) == spacing_by_substrings(surface, lexicon)
    root = hada_root(index, res)
    assert root == hada_root_by_suffixes(surface, lexicon)
    assert root == hada_root_by_prefix_walk(index, lexicon)


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


@settings(max_examples=300, deadline=None)
@given(surface=edited_tokens(), rules=concat_rules,
       entries=st.sampled_from([CORE, DUPLICATES]))
def test_best_analysis_is_the_first_of_analyze_key(surface, rules, entries):
    lexicon = resources_for(entries, rules).lexicon
    key = fold_letters(surface)
    analyses = lexicon.analyze_key(key)
    best = lexicon.best_analysis(key)
    # the same first analysis, down to which duplicate entry
    assert (segment_ids([best]) if best else []) == segment_ids(analyses[:1])


@settings(max_examples=300, deadline=None)
@given(surface=edited_tokens(), rules=concat_rules,
       entries=st.sampled_from([CORE, DUPLICATES]))
def test_fewest_words_matches_the_lattice_split(surface, rules, entries):
    lexicon = resources_for(entries, rules).lexicon
    index = TextIndex(surface, lexicon)
    starts = index.char_start_unit
    assert lexicon.fewest_words(index.letters, starts) == \
        fewest_words_by_lattice(lexicon, index.letters, starts)


def test_fewest_words_keeps_the_lesser_of_two_splits_that_meet():
    # 나다라|마바|가… and 나다|라마바가|가… both hold two words when their
    # third, a noun and josas, reaches one state; the first is live
    # sooner, yet the second has the sooner first end
    lexicon = Lexicon(read_entries(["나다,나다.N", "나다라,나다라.N", "마바,마바.ADV",
                                    "라마바가,라마바가.ADV", "가,가.N", "가,가.JOSA"]))
    index = TextIndex("나다라마바가가가가", lexicon)
    assert lexicon.fewest_words(index.letters, index.char_start_unit) == [4, 12, 18]
    res = Resources(lexicon=lexicon, fsts=[])
    assert _spacing_split(index, res, Category.SPACING)[1] == "나다 라마바가 가가가"


def test_fewest_words_covers_the_empty_key_with_no_words():
    lexicon = Lexicon(CORE)
    assert lexicon.fewest_words((), [0]) == [] == fewest_words_by_lattice(lexicon, (), [0])


# the 하 verbalizer and its allomorphs, the same of 되, and endings that
# join a syllable (ㅆ어, ㅂ니다) or start one
HA_XSV = [DictEntry(s, "하", Pos.XSV) for s in ("하", "해", "했")]
DOE_XSV = [DictEntry(s, "되", Pos.XSV) for s in ("되", "돼", "됐")]
HADA_EOMI = [DictEntry(s, s, Pos.EOMI) for s in ("어", "요", "어요", "ㅆ어", "ㅂ니다", "다", "니다")]
HADA_ROOTS = ["뷁", "가", "클래식", "하", "되"]


@st.composite
def hada_lexicons_and_tokens(draw):
    """A small lexicon of some 하 and 되 verbalizers, some endings and a
    noun or two, and a token of a root, a verbalizer and 0-3 endings,
    perhaps with one letter changed."""
    entries = (draw(st.lists(st.sampled_from(HA_XSV + DOE_XSV), min_size=1, unique=True))
               + draw(st.lists(st.sampled_from(HADA_EOMI), min_size=1, unique=True))
               + [DictEntry(s, s, Pos.N) for s in
                  draw(st.lists(st.sampled_from(["가", "클래식", "뷁하"]), unique=True))])
    letters = list(fold_letters("".join(draw(st.lists(st.sampled_from(HADA_ROOTS),
                                                      min_size=1, max_size=2)))))
    letters += fold_letters(draw(st.sampled_from(HA_XSV + DOE_XSV)).surface)
    for e in draw(st.lists(st.sampled_from(HADA_EOMI), max_size=3)):
        letters += fold_letters(e.surface)
    if draw(st.sampled_from([False, False, True])):
        letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from(EDIT_LETTERS))
    return Lexicon(entries), compose_letters(letters)


@settings(max_examples=300, deadline=None)
@given(drawn=hada_lexicons_and_tokens())
def test_hada_root_takes_only_lemma_ha_verbalizers(drawn):
    lexicon, surface = drawn
    res = Resources(lexicon=lexicon, fsts=[])
    index = TextIndex(surface, lexicon)
    root = hada_root(index, res)
    assert root == hada_root_by_suffixes(surface, lexicon)
    assert root == hada_root_by_prefix_walk(index, lexicon)


def test_hada_root_ignores_a_doe_verbalizer():
    endings = [DictEntry("어", "어", Pos.EOMI), DictEntry("요", "요", Pos.EOMI)]
    doe_only = Resources(lexicon=Lexicon([DictEntry("되", "되", Pos.XSV)] + endings), fsts=[])
    assert hada_root(TextIndex("뷁되어요", doe_only.lexicon), doe_only) is None
    both = Resources(lexicon=Lexicon(HA_XSV + DOE_XSV + endings), fsts=[])
    assert hada_root(TextIndex("뷁되어요", both.lexicon), both) is None
    assert _hada_root(TextIndex("뷁해요", both.lexicon), both, Category.NEOLOGISM) == (
        "hada-pattern:뷁", None)


def test_best_analysis_breaks_count_ties_by_segments_not_edge_order():
    # 가/V comes first in the dictionary, 가/N first in analyze_key's order
    lexicon = Lexicon([DictEntry("가", "가", Pos.V), DictEntry("나", "나", Pos.EOMI),
                       DictEntry("가", "가", Pos.N), DictEntry("나", "나", Pos.JOSA)])
    key = fold_letters("가나")
    assert [pos_seq(a) for a in lexicon.analyze_key(key)] == [(Pos.N, Pos.JOSA),
                                                               (Pos.V, Pos.EOMI)]
    assert pos_seq(lexicon.best_analysis(key)) == (Pos.N, Pos.JOSA)


def test_word_walk_expands_each_pair_once():
    # 가 splits into 가 and 가가 JOSAs in Fibonacci(24) ways, but the letter
    # automaton builds each step once, reading one table cell for each
    # part of speech at the child of a (trie node, rule state) pair
    lexicon = Lexicon([DictEntry("가", "가", Pos.N), DictEntry("가", "가", Pos.JOSA),
                       DictEntry("가가", "가가", Pos.JOSA)])
    rows = []

    class CountingTable(list):
        def __getitem__(self, state):
            rows.append(state)
            return super().__getitem__(state)

    lexicon._words.table = CountingTable(lexicon._words.table)
    key = fold_letters("가" * 24 + "ㅋ")
    assert lexicon.word_ends(key) == set(range(2, 49, 2))
    assert not lexicon.is_word(key)
    assert 0 < len(rows) < 400


def assert_letter_automaton_matches_the_walk(lexicon, key):
    ends = word_walk(lexicon, key)
    assert lexicon.word_ends(key) == ends, key
    assert lexicon.is_word(key) == (bool(key) and len(key) in word_walk(lexicon, key, len(key))), key
    assert 0 not in ends


# a few syllables that spell words of each other, and compatibility letters
WORD_CHARS = st.sampled_from(list("가각나아하합니다ㄱㅂㅏ"))
random_entries = st.lists(st.builds(lambda s, pos: DictEntry(s, s, pos),
                                    st.text(WORD_CHARS, min_size=1, max_size=3),
                                    st.sampled_from(RULE_POS)),
                          max_size=12)
random_keys = st.lists(st.text(WORD_CHARS, max_size=8).map(fold_letters), max_size=20)


@settings(max_examples=200, deadline=None)
@given(entries=random_entries, rules=concat_rules, keys=random_keys, data=st.data())
def test_letter_automaton_matches_the_walk_over_many_keys(entries, rules, keys, data):
    # one lexicon for every key, read twice in two orders: a transition
    # stored for one key and read for another must still be right
    lexicon = Lexicon(entries, rules)
    for key in keys + data.draw(st.permutations(keys)) + [()]:
        assert_letter_automaton_matches_the_walk(lexicon, key)


@settings(max_examples=200, deadline=None)
@given(entries=random_entries, rules=st.lists(concat_rules, min_size=2, max_size=2, unique=True),
       keys=random_keys)
def test_lexicons_with_other_rules_share_no_states(entries, rules, keys):
    lexicons = [Lexicon(entries, r) for r in rules]
    for key in keys:
        for lexicon in lexicons:
            assert_letter_automaton_matches_the_walk(lexicon, key)


def test_letter_automaton_states_stay_within_the_letters_stepped(formal_text, informal_text):
    # every state but the dead and the start state is made by one letter
    # step, so after stats on both corpora it holds at most one per letter
    lexicon = load_lexicon()
    letters = 0
    for text in (formal_text, informal_text):
        stream = tokenize(text)
        corpus_stats(stream, lexicon)
        letters += sum(len(fold_letters(surface)) for surface in
                       {t.surface for t in stream if t.cls is TokenClass.HANGUL})
    assert len(lexicon._words.pairs) <= 2 + letters
    for surface in {t.surface for t in tokenize(formal_text + informal_text)
                    if t.cls is TokenClass.HANGUL}:
        assert_letter_automaton_matches_the_walk(lexicon, fold_letters(surface))


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


def assert_table_matches_position_sets(rules):
    """Each state of the table stands for one position set of the oracle,
    matched from the start states: every row cell is the oracle's step and
    every final flag the oracle's, and no two states share a set."""
    automaton, oracle = RuleAutomaton(rules), PositionSetAutomaton(rules)
    assert automaton.table[0] == (0,) * len(Pos) and not automaton.final[0]
    set_of = {0: frozenset(), automaton.start: oracle.start}
    todo = [automaton.start]
    while todo:
        state = todo.pop()
        for pos in Pos:
            nxt, want = automaton.table[state][pos.index], oracle.step(set_of[state], pos)
            if nxt not in set_of:
                set_of[nxt] = want
                todo.append(nxt)
            assert set_of[nxt] == want, (rules, state, pos)
    assert len(set(set_of.values())) == len(set_of) == len(automaton.table) == len(automaton.final)
    assert all(automaton.final[s] == oracle.is_final(set_of[s]) for s in set_of)


@settings(max_examples=200, deadline=None)
@given(rules=concat_rules)
def test_rule_table_matches_position_sets(rules):
    assert_table_matches_position_sets(rules)


@pytest.mark.parametrize("rules", [DEFAULT_CONCAT_RULES, DEVIANT_RULES],
                         ids=["default", "deviant"])
def test_rule_tables_of_the_bundled_rules(rules):
    assert_table_matches_position_sets(rules)
    assert len(RuleAutomaton(rules).table) == 1 + 13  # the dead state and 13 live ones


def test_duplicate_entries_keep_dictionary_order():
    # 가/N and 이/JOSA twice each: 가이 has four N JOSA analyses that differ
    # only in which entry each of its two segments takes
    twice = [DictEntry("가", "가", Pos.N), DictEntry("이", "이", Pos.JOSA),
             DictEntry("가", "가", Pos.V), DictEntry("이", "이", Pos.EOMI)]
    twice += [e._replace(flags=frozenset({"src=extra"})) for e in twice[:2]]
    for lexicon, surface in [(Lexicon(DUPLICATES), "사람들이"), (Lexicon(twice), "가이")]:
        key = fold_letters(surface)
        got = lexicon.analyze_key(key)
        assert len(got) > 1
        assert segment_ids(got) == segment_ids(analyze_key_by_recursion(lexicon, key))
