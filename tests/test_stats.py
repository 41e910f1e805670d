import string
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lggnorm.classify import classify_corpus
from lggnorm.stats import CorpusStats, compare, corpus_stats
from lggnorm.tokenizer import PUNCT_CHARS, tokenize
from oracles import corpus_stats_by_tokens, fold_surface


def test_published_count_arithmetic():
    a = CorpusStats(10488, 3967, 152)
    assert a.ratio_str == "3.8"
    b = CorpusStats(10608, 3792, 1062)
    # 1062/3792 computes to 28.0, reported as computed (not rounded to 27)
    assert b.ratio_str == "28.0"


def test_ratio_formula_exact():
    s = CorpusStats(100, 50, 7)
    assert s.non_analyzable_ratio == 100.0 * 7 / 50


def test_empty_corpus_flag():
    s = CorpusStats(0, 0, 0)
    assert s.empty and s.non_analyzable_ratio == 0.0
    assert s.rows()[-1] == ("non_analyzable_pct", "0.0")


def test_replace_keeps_the_ratio_and_empty_flag_consistent():
    # the ratio and the empty flag are read from the counts, so a record
    # with a count replaced cannot contradict itself
    s = CorpusStats(10, 4, 1)
    assert s._replace(non_analyzable_types=3).ratio_str == "75.0"
    assert s._replace(type_count=0).empty
    assert CorpusStats._fields == ("token_count", "type_count", "non_analyzable_types")


def test_compare_published_counts():
    a = CorpusStats(10488, 3967, 152)
    b = CorpusStats(10608, 3792, 1062)
    report = compare(a, b)
    assert round(report.ratio_delta, 1) == 24.2
    assert report.token_delta == 120


def test_compare_self_is_zero():
    s = CorpusStats(10, 5, 1)
    r = compare(s, s)
    assert (r.token_delta, r.type_delta, r.non_analyzable_delta, r.ratio_delta) == (0, 0, 0, 0.0)


def test_corpus_stats_counts(lexicon):
    stream = tokenize("효과가 좋아요 잼 잼 ㅋㅋ")
    s = corpus_stats(stream, lexicon)
    assert s.token_count == 5
    assert s.type_count == 4
    assert s.non_analyzable_types == 2  # 잼, ㅋㅋ


def test_monotonicity(lexicon):
    base = corpus_stats(tokenize("효과가 좋아요"), lexicon)
    grown = corpus_stats(tokenize("효과가 좋아요 쀍"), lexicon)
    assert grown.non_analyzable_ratio >= base.non_analyzable_ratio


def test_informal_exceeds_formal(lexicon, formal_text, informal_text):
    f = corpus_stats(tokenize(formal_text), lexicon)
    i = corpus_stats(tokenize(informal_text), lexicon)
    assert i.non_analyzable_ratio > f.non_analyzable_ratio


def test_stats_agree_with_classifier(classifier_resources, informal_text):
    stream = tokenize(informal_text)
    s = corpus_stats(stream, classifier_resources.lexicon)
    out = classify_corpus(stream, classifier_resources)
    assert len(out.results) == s.non_analyzable_types


# texts of every class: syllables and whole dictionary words (so some
# HANGUL types are analyzable), compatibility jamo, both Latin cases,
# digits, every PUNCT character, multi-byte whitespace and astral symbols
CENSUS_TEXT = st.lists(
    st.one_of(
        st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        st.sampled_from(["너무", "좋아요", "효과가", "잼", "넘", "GG", "gg", "Gg"]),
        st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
        st.sampled_from(string.ascii_letters + string.digits),
        st.sampled_from(sorted(PUNCT_CHARS)),
        st.sampled_from([" ", "\n", "\t", "\xa0", "\u3000"]),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF,
                      blacklist_categories=("Cs",)),
    ),
    max_size=40,
).map(lambda pieces: unicodedata.normalize("NFC", "".join(pieces)))


@settings(max_examples=300)
@given(CENSUS_TEXT)
def test_census_matches_the_tokens(lexicon, text):
    census = Counter({(surface, cls): n for cls, runs in tokenize(text).census.items()
                      for surface, n in runs.items()})
    assert census == Counter((fold_surface(t), t.cls) for t in tokenize(text))
    assert corpus_stats(tokenize(text), lexicon) == corpus_stats_by_tokens(tokenize(text), lexicon)


@pytest.mark.parametrize("text", ["", " \n\t\xa0\u3000 "])
def test_stats_of_a_text_without_tokens_are_empty(lexicon, text):
    s = corpus_stats(tokenize(text), lexicon)
    assert s.empty and s.token_count == 0
    assert s == corpus_stats_by_tokens(tokenize(text), lexicon)


def test_corpus_stats_builds_no_token(lexicon, formal_text, informal_text, monkeypatch):
    # the ratio needs only the type table: over both corpora stats
    # constructs no Token and never searches the run regex behind the
    # tokens.  Counts, so it holds on any host
    import lggnorm.tokenizer as tokenizer_module

    runs, token = tokenizer_module._RUNS, tokenizer_module.Token
    used = []

    class CountingRuns:
        def __getattr__(self, name):
            used.append(name)
            return getattr(runs, name)

    def counting_token(*fields):
        used.append("Token")
        return token(*fields)

    monkeypatch.setattr(tokenizer_module, "_RUNS", CountingRuns())
    monkeypatch.setattr(tokenizer_module, "Token", counting_token)
    counts = [corpus_stats(tokenize(text), lexicon).type_count
              for text in (formal_text, informal_text)]
    assert used == [] and counts == [113, 125]
    # the counters do see a stream that reads its tokens
    assert len(tuple(tokenize("가 a"))) == 2 and used == ["finditer", "Token", "Token"]
