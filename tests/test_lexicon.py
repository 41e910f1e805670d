import random

import pytest

from lggnorm.hangul import fold_letters
from lggnorm.lexicon import (
    DictEntry,
    Lexicon,
    MalformedEntry,
    Pos,
    RuleAutomaton,
    is_analyzable,
    load_dictionary_file,
    parse_entry,
    read_entries,
)
from lggnorm.tokenizer import tokenize


def tok(s):
    return next(iter(tokenize(s)))


def test_parse_entry_basic():
    e = parse_entry("재미,재미.N")
    assert (e.surface, e.lemma, e.pos, e.flags) == ("재미", "재미", Pos.N, frozenset())


@pytest.mark.parametrize("build, message", [
    (lambda: parse_entry("가,가.N++x"), "empty flag"),
    (lambda: RuleAutomaton(["N FOO"]), "unknown POS 'FOO' in rule 'N FOO'"),
    (lambda: Lexicon([DictEntry("", "가", Pos.N)]), "entry surface must be non-empty"),
], ids=["empty-flag", "unknown-rule-pos", "empty-surface"])
def test_malformed_dictionary_parts_are_refused_with_their_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_parse_entry_flags():
    e = parse_entry("예뻐,예쁘.ADJ+allo")
    assert e.lemma == "예쁘" and "allo" in e.flags
    e = parse_entry("강추,강추.N+abbr+exp=강력_추천")
    assert e.flag_value("exp") == "강력 추천"


def test_load_collects_all_bad_lines():
    with pytest.raises(MalformedEntry) as exc:
        Lexicon(read_entries(["bad line", "재미,재미.N", "also bad", "x,y.NOPE"]))
    assert [n for n, _ in exc.value.errors] == [1, 3, 4]


@pytest.mark.parametrize("data, detail", [
    ("caf\xe9,caf\xe9.N\n".encode("latin-1"), "not UTF-8"),
    ("재미,재미.N\nno commas here\n".encode(), "malformed dictionary entry at line(s) 2"),
    # 가 decomposed: its letters could never match an NFC token
    ("재미,재미.N\n\u1100\u1161,가.V\n".encode(), "malformed dictionary entry at line(s) 2"),
    # no token holds whitespace, so such a surface could never match
    ("재미,재미.N\n가 나,가나.N\n".encode(), "malformed dictionary entry at line(s) 2"),
], ids=["latin-1", "malformed", "nfd-surface", "whitespace-surface"])
def test_dictionary_file_errors_name_the_file(tmp_path, data, detail):
    path = tmp_path / "bad.dic"
    path.write_bytes(data)
    with pytest.raises(MalformedEntry) as exc:
        load_dictionary_file(path)
    assert str(exc.value).startswith(f"{path}: {detail}")


def test_load_skips_comments_and_blanks():
    lex = Lexicon(read_entries(["# comment", "", "재미,재미.N"]))
    assert len(lex) == 1


def test_duplicates_allowed():
    lex = Lexicon(read_entries(["이,이.JOSA", "이,이.DET"]))
    assert {e.pos for e in lex.lookup("이")} == {Pos.JOSA, Pos.DET}


def test_analyze_with_josa(lexicon):
    analyses = lexicon.analyze_key(fold_letters("색깔이"))
    assert [(s, e.pos) for s, e in analyses[0].segments] == [
        ("색깔", Pos.N), ("이", Pos.JOSA)]


def test_analyze_non_word(lexicon):
    assert lexicon.analyze_key(fold_letters("잼")) == []


def test_analyze_adverb(lexicon):
    analyses = lexicon.analyze_key(fold_letters("너무"))
    assert analyses and analyses[0].segments[0][1].pos is Pos.ADV


def test_analyze_sub_syllable_join(lexicon):
    analyses = lexicon.analyze_key(fold_letters("추천합니다"))
    assert [e.surface for _, e in analyses[0].segments] == ["추천", "하", "ㅂ니다"]


def test_analyses_ordered_fewest_segments_first(lexicon):
    analyses = lexicon.analyze_key(fold_letters("나온다"))
    assert len(analyses) >= 1
    sizes = [len(a.segments) for a in analyses]
    assert sizes == sorted(sizes)


def test_every_analysis_reconcatenates(lexicon):
    for word in ["색깔이", "추천합니다", "좋아요", "주민들이", "시작됐다"]:
        for a in lexicon.analyze_key(fold_letters(word)):
            joined = []
            for s, _ in a.segments:
                joined.extend(fold_letters(s))
            assert "".join(joined) == fold_letters(word)
            assert lexicon.pos_seq_allowed(tuple(e.pos for _, e in a.segments))


def test_is_analyzable(lexicon):
    assert is_analyzable(tok("너무"), lexicon)
    assert not is_analyzable(tok("ㅋㅋ"), lexicon)
    assert is_analyzable(tok("2024"), lexicon)
    assert is_analyzable(tok("gg"), lexicon)
    assert not is_analyzable(tok("*_*"), lexicon)
    assert is_analyzable(tok("."), lexicon)
    assert is_analyzable(tok("잼"), lexicon) is False
    assert is_analyzable(tok("너무"), lexicon) == bool(lexicon.analyze_key(fold_letters("너무")))


def _linear_scan_analyses(entries, key, rules_lex):
    """Brute-force segmentation: try every split point with a linear lookup."""
    results = []

    def walk(i, segs, poses):
        if i == len(key):
            if poses and rules_lex.pos_seq_allowed(tuple(poses)):
                results.append(tuple(segs))
            return
        for e in entries:
            ek = fold_letters(e.surface)
            if key[i:i + len(ek)] == ek:
                walk(i + len(ek), segs + [(e.surface, e)], poses + [e.pos])

    walk(0, [], [])
    return sorted(results, key=lambda segs: (
        len(segs), tuple((s, e.pos.value, e.lemma) for s, e in segs)))


def test_trie_agrees_with_linear_scan():
    rng = random.Random(11)
    syllables = ["가", "나", "다", "라", "마", "바", "사", "아", "자", "차"]
    poses = [Pos.N, Pos.JOSA, Pos.V, Pos.EOMI, Pos.ADV, Pos.XSV]
    for trial in range(40):
        entries = []
        for _ in range(rng.randint(1, 60)):
            surface = "".join(rng.choice(syllables)
                              for _ in range(rng.randint(1, 3)))
            entries.append(DictEntry(surface, surface, rng.choice(poses)))
        lex = Lexicon(entries)
        for _ in range(10):
            word = "".join(rng.choice(syllables)
                           for _ in range(rng.randint(1, 6)))
            key = fold_letters(word)
            got = [tuple(a.segments) for a in lex.analyze_key(key)]
            expected = _linear_scan_analyses(entries, key, lex)
            assert got == list(expected)
