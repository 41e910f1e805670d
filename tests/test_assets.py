"""Coherence of the bundled dictionaries, grammars and corpora."""

from lggnorm.classify import Category, classify_corpus
from lggnorm.lexicon import is_analyzable
from lggnorm.tokenizer import TokenClass, tokenize

FORMAL_EXPECTED_NA = {"미르", "누리"}  # unlisted proper nouns, deliberate


def test_corpora_are_large_enough(formal_text, informal_text):
    assert len(tuple(tokenize(formal_text))) >= 300
    assert len(tuple(tokenize(informal_text))) >= 300


def test_informal_non_analyzable_types_match_gold(lexicon, informal_text, gold_rows):
    seen = {}
    for tok in tokenize(informal_text):
        seen.setdefault(tok.surface, tok)
    na = {s for s, tok in seen.items()
          if tok.cls in (TokenClass.HANGUL, TokenClass.JAMO, TokenClass.SYMBOL)
          and not is_analyzable(tok, lexicon)}
    assert na == set(gold_rows)


def test_formal_corpus_is_clean(lexicon, formal_text):
    seen = {}
    for tok in tokenize(formal_text):
        seen.setdefault(tok.surface, tok)
    na = {s for s, tok in seen.items() if not is_analyzable(tok, lexicon)}
    assert na == FORMAL_EXPECTED_NA


def test_gold_covers_all_six_categories(gold_rows):
    categories = {c for c, _ in gold_rows.values()}
    assert categories == {
        "SPACING", "ABBREVIATION", "DEVIANT_SPELLING",
        "LOANWORD_VARIANT", "NEOLOGISM", "EMOTICON"}


def test_formal_classification_is_unknown_only(classifier_resources, formal_text):
    out = classify_corpus(tokenize(formal_text), classifier_resources)
    assert {r.token.surface for r in out.results} == FORMAL_EXPECTED_NA
    assert all(r.primary is Category.UNKNOWN for r in out.results)
