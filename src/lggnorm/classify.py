"""Classify non-analyzable tokens into the six non-standard-form categories.

The categories run as one lazy cascade in a fixed priority order, each by
its steps in order (``_CASCADE``); the first step that fires speaks for
the category.  The first category that fires is the primary, and
``classify_token`` stops there; ``detections`` yields the ones after it,
each with its own suggestion, on demand:

1. EMOTICON        jamo/symbol token made of laugh/cry letters, or an
                   emoticon grammar accepts the whole token
2. ABBREVIATION    abbreviation grammar or dictionary matches a
                   token-start span
3. NEOLOGISM       neologism grammar/dictionary matches, or an unknown
                   root carries the 하-verbalizer plus an ending
4. LOANWORD_VARIANT loanword grammar matches, or a token prefix is within
                   the loan threshold of a loanword standard
5. SPACING         the token splits into two or more analyzable words
6. DEVIANT_SPELLING deviant-ending grammar matches a suffix, or the token
                   is within the deviant threshold of a candidate form

Cheap exact steps outrank fuzzy distance steps, so the loanword and
deviant distance searches run only for a token no exact step claims; a
clean multi-word split (SPACING) is stronger evidence than a one-jamo
edit (DEVIANT_SPELLING).

The grammar steps run, of the category's grammars, only those that may
start at the character the step starts at (``Fst.may_start``, remembered
per character by ``Resources.grammar_match``), and skip ``longest_match``
when none may.

Every step reads the token through a TextIndex of its surface.  Lookup and
edit distance both work on the token's letters (hangul's distance
alphabet); the analysability test, the 하-root and the spacing split read
its letters, one string folded once, as ``TextIndex.letters``, and the
searches below its distance key, as ``TextIndex.key``.  The 하-root is one
backward run of a LetterAutomaton over the reversed endings and 하
verbalizers, and the spacing split is one forward run of the lexicon's
word automaton.  The deviant candidate forms are the syllable-only words
of DEVIANT_RULES (N, N JOSA, N XSV EOMI, V EOMI, ADJ EOMI, ADV, DET,
INTERJ or PROPER); a LetterAutomaton of those rules finds the one nearest
to the token within ``Thresholds.deviant`` edits.  The abbreviation,
neologism and loanword dictionaries are lexicon.KeyTrie tries, searched
for the entries a token's leading characters match.  The first two are
exact: one walk down the token key's path in the trie.  Loanwords are
within ``Thresholds.loan`` edits: a banded walk, which the deviant search
shares.  Matches end where a character starts (잼 is not a prefix of 재미)
and are ranked on that unit.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from .apply import TextIndex, longest_match, run_from  # perfbench/selftest.py reads run_from
from .fst import Fst
from .hangul import fold_letters
from .lexicon import DictEntry, KeyTrie, LetterAutomaton, Lexicon, Pos, RuleAutomaton, is_analyzable
from .tokenizer import Token, TokenClass, TokenStream

EMOTICON_SCALARS = frozenset("ㅋㅎㅠㅜㅇ_")


class Category(enum.Enum):
    SPACING = "SPACING"
    ABBREVIATION = "ABBREVIATION"
    DEVIANT_SPELLING = "DEVIANT_SPELLING"
    LOANWORD_VARIANT = "LOANWORD_VARIANT"
    NEOLOGISM = "NEOLOGISM"
    EMOTICON = "EMOTICON"
    UNKNOWN = "UNKNOWN"


# a grammar's tag, or the part of it before its first "_" -> category
TAG_CATEGORIES = {
    "ABBR": Category.ABBREVIATION,
    "DEVIANT": Category.DEVIANT_SPELLING,
    "LOAN": Category.LOANWORD_VARIANT,
    "NEO": Category.NEOLOGISM,
    "EMOTICON": Category.EMOTICON,
}


class PreconditionViolated(ValueError):
    """classify_token was handed an analyzable token."""


class Thresholds(NamedTuple):
    loan: int = 2     # max jamo edits from a loanword standard
    deviant: int = 1  # max jamo edits from an analyzable form


class Candidate(NamedTuple):
    category: Category
    evidence: str


class ClassificationResult(NamedTuple):
    token: Token
    primary: Category
    # the primary's candidate, or () for UNKNOWN; ``detections`` yields
    # every firing category, each from its first step that fires
    candidates: tuple[Candidate, ...]
    suggestion: str | None


class Resources:
    """Everything classification consults besides the token itself, keyed
    by the category that searches it (``grammar_match``, ``tries``).  The
    deviant and 하-tail automata and the grammars per starting character
    grow as tokens are classified, so one Resources is not for concurrent threads."""

    def __init__(self, lexicon: Lexicon, fsts: list[Fst],
                 abbr_entries: tuple[DictEntry, ...] = (),
                 neo_entries: tuple[DictEntry, ...] = (),
                 loan_entries: tuple[DictEntry, ...] = (),
                 thresholds: Thresholds = Thresholds()):
        self.lexicon, self.fsts, self.thresholds = lexicon, fsts, thresholds
        self._by_category: dict[Category, list[Fst]] = {}
        for f in self.fsts:
            cat = TAG_CATEGORIES.get(f.tag.split("_", 1)[0])
            if cat is not None:
                self._by_category.setdefault(cat, []).append(f)
        self._starting: dict[tuple[Category, str], list[Fst]] = {}
        self.tries = {Category.ABBREVIATION: KeyTrie(abbr_entries),
                      Category.NEOLOGISM: KeyTrie(neo_entries),
                      Category.LOANWORD_VARIANT: KeyTrie(loan_entries)}
        self.deviant_search = LetterAutomaton(self.lexicon, _DEVIANT)
        self.hada_tails = LetterAutomaton(self.lexicon, RuleAutomaton(["EOMI+ XSV"]), (
            e for e in lexicon.entries if e.pos is Pos.EOMI or e.pos is Pos.XSV and e.lemma == "하"))

    def grammar_match(self, cat: Category, index: TextIndex,
                      start: int) -> tuple[int, str, Fst] | None:
        """``longest_match`` from the character ``start`` of the category's
        grammars, in priority order, that may start a match there
        (``Fst.may_start``), remembered per (category, character); None
        when none may."""
        ch = index.text[start:start + 1]
        fsts = self._starting.get((cat, ch))
        if fsts is None:
            fsts = self._starting[cat, ch] = [
                f for f in self._by_category.get(cat, ()) if f.may_start(ch)]
        return longest_match(fsts, index, index.char_start_unit[start]) if fsts else None


def _suggestion_ok(s: str, lexicon: Lexicon) -> bool:
    """Every space-separated word of ``s`` is one analyzable word."""
    return all(map(lexicon.is_word, map(fold_letters, s.split(" "))))


def _splice(surface: str, start_char: int, end_char: int, output: str,
            lexicon: Lexicon) -> str:
    """Replacement suggestion for a span; falls back to inserting spaces
    at the replacement boundary when the direct splice is not a
    well-formed word."""
    direct = surface[:start_char] + output + surface[end_char:]
    if _suggestion_ok(direct, lexicon):
        return direct
    pieces = [p for p in (surface[:start_char], output, surface[end_char:]) if p]
    spaced = " ".join(pieces)
    if _suggestion_ok(spaced, lexicon):
        return spaced
    return direct


def _emoticon_scalars(index: TextIndex, res: Resources, cat: Category):
    if all(ch in EMOTICON_SCALARS for ch in index.text):
        return "emoticon-scalars", None
    return None


def _grammar_whole(index: TextIndex, res: Resources, cat: Category):
    """The category's grammars accept the whole token, with their output as suggestion."""
    got = res.grammar_match(cat, index, 0)
    if got is not None and got[0] == len(index.units):
        return f"grammar:{got[2].name}", got[1] or None
    return None


def _grammar_prefix(index: TextIndex, res: Resources, cat: Category):
    """The category's grammars matched from the token start, with the
    matched span replaced in the suggestion."""
    got = res.grammar_match(cat, index, 0)
    if got is None:
        return None
    sug = _splice(index.text, 0, index.char_of_unit(got[0]), got[1], index.lexicon)
    return f"grammar:{got[2].name}", sug


def _dict_prefix(index: TextIndex, res: Resources, cat: Category):
    """First side-dictionary entry, in file order, whose surface is a
    leading span of the token and that has a suggestion: the entries on
    the token key's path down the trie that end where a character starts."""
    trie, suggestion_of = res.tries[cat], _SIDE_DICTS[cat]
    aligned = index.char_aligned
    for order, end in sorted((order, end) for end, order in trie.prefix_items(index.key, 0)
                             if end in aligned):
        e = trie.entries[order]
        out = suggestion_of(e)
        if out is not None:
            sug = _splice(index.text, 0, index.char_of_unit(end), out, index.lexicon)
            return f"dict:{e.surface}", sug
    return None


def _hada_root(index: TextIndex, res: Resources, cat: Category):
    """Shortest unknown root followed by the 하 verbalizer and at least
    one ending that reach the end of the token, from one backward run."""
    key = index.letters
    tails = {len(key) - r for r in res.hada_tails.ends(key[::-1])}
    known = res.lexicon.word_ends(key) if tails else ()
    for i, u in enumerate(index.char_start_unit[1:-1], 1):
        if u in tails and u not in known:
            return f"hada-pattern:{index.text[:i]}", None
    return None


def _loanword_by_distance(index: TextIndex, res: Resources, cat: Category):
    """Loan entry nearest to a token prefix of whole characters, ranked by
    (distance, -prefix units, entry order) within the loan threshold; one
    walk of the loan trie gives the distances of all those prefixes."""
    trie = res.tries[cat]
    best = min(trie.prefix_matches(index.key, index.char_aligned, res.thresholds.loan),
               key=lambda m: (m[0], -m[1], m[2]), default=None)
    if best is None:
        return None
    _, end, order = best
    entry = trie.entries[order]
    sug = _splice(index.text, 0, index.char_of_unit(end), entry.surface, index.lexicon)
    return f"distance:{entry.surface}", sug


def _spacing_split(index: TextIndex, res: Resources, cat: Category):
    # fewest words, then the lexicographically smallest word tuple: of two
    # first words from one start the shorter is a prefix of the longer
    ends = res.lexicon.fewest_words(index.letters, index.char_aligned)
    if ends is None or len(ends) < 2:
        return None
    cuts = [0] + [index.char_of_unit(u) for u in ends]
    words = [index.text[a:b] for a, b in zip(cuts, cuts[1:])]
    return f"split:{len(words)}", " ".join(words)


def _grammar_suffix(index: TextIndex, res: Resources, cat: Category):
    """The category's grammars matched from the earliest character start to the token end."""
    for start_char in range(len(index.text)):
        got = res.grammar_match(cat, index, start_char)
        if got is not None and got[0] == len(index.units):
            sug = _splice(index.text, start_char, len(index.text), got[1], index.lexicon)
            return f"grammar:{got[2].name}", sug
    return None


# exactly one JOSA or EOMI, not the JOSA*/EOMI+ of the analyzability rules
DEVIANT_RULES = ("N", "N JOSA", "N XSV EOMI", "V EOMI", "ADJ EOMI",
                 "ADV", "DET", "INTERJ", "PROPER")
_DEVIANT = RuleAutomaton(DEVIANT_RULES)


def _deviant_by_distance(index: TextIndex, res: Resources, cat: Category):
    got = res.deviant_search.nearest(index.key, res.thresholds.deviant)
    if got is None:
        return None
    return f"distance:{got[0]}", got[1]


# the suggestion an entry of each exact side dictionary gives
_SIDE_DICTS = {Category.ABBREVIATION: lambda e: e.flag_value("exp"),
               Category.NEOLOGISM: lambda e: e.lemma}
# each category in priority order, the token classes it reads and its steps
# in order, each (index, res, category) -> (evidence, suggestion) or None
_HANGUL = (TokenClass.HANGUL,)
_CASCADE = (
    (Category.EMOTICON, (TokenClass.JAMO, TokenClass.SYMBOL), (_emoticon_scalars, _grammar_whole)),
    (Category.ABBREVIATION, _HANGUL, (_grammar_prefix, _dict_prefix)),
    (Category.NEOLOGISM, _HANGUL, (_grammar_prefix, _dict_prefix, _hada_root)),
    (Category.LOANWORD_VARIANT, _HANGUL, (_grammar_prefix, _loanword_by_distance)),
    (Category.SPACING, _HANGUL, (_spacing_split,)),
    (Category.DEVIANT_SPELLING, _HANGUL, (_grammar_suffix, _deviant_by_distance)),
)


def detections(token: Token, res: Resources) -> Iterator[tuple[Candidate, str | None]]:
    """Each firing category's (candidate, suggestion) for one
    non-analyzable token, in priority order, from its first step that
    fires; a category runs only when the next item is read, so the fuzzy
    searches run only for a token no earlier step claims."""
    # the surface is one token by construction: no need to tokenize it
    index = TextIndex(token.surface, res.lexicon, ((0, len(token.surface), token.cls),))
    if (res.lexicon.is_word(index.letters) if token.cls is TokenClass.HANGUL
            else is_analyzable(token, res.lexicon)):
        raise PreconditionViolated(f"token {token.surface!r} is analyzable")
    for cat, classes, steps in _CASCADE:
        if token.cls in classes:
            for step in steps:
                got = step(index, res, cat)
                if got is not None:
                    yield Candidate(cat, got[0]), got[1]
                    break


def classify_token(token: Token, res: Resources) -> ClassificationResult:
    """Classify one non-analyzable token by the first category that fires:
    its category, candidate and suggestion."""
    got = next(detections(token, res), None)
    if got is None:
        return ClassificationResult(token, Category.UNKNOWN, (), None)
    candidate, suggestion = got
    return ClassificationResult(token, candidate.category, (candidate,), suggestion)


class CorpusClassification(NamedTuple):
    results: tuple[ClassificationResult, ...]


def classify_corpus(stream: TokenStream, res: Resources) -> CorpusClassification:
    """Classify each distinct non-analyzable surface once, in
    first-occurrence order; ``is_analyzable`` alone decides which tokens
    those are (never a LATIN, DIGIT or PUNCT one)."""
    seen: set[str] = set()
    results: list[ClassificationResult] = []
    for token in stream:
        if token.surface in seen:
            continue
        seen.add(token.surface)
        try:
            result = classify_token(token, res)
        except PreconditionViolated:
            continue
        results.append(result)
    return CorpusClassification(tuple(results))
