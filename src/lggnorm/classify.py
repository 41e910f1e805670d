"""Classify non-analyzable tokens into the six non-standard-form categories.

Detectors run in a fixed priority order and all firing detectors are
collected; the first one becomes the primary category:

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

Cheap exact tests outrank fuzzy distance tests; a clean multi-word split
(SPACING) is stronger evidence than a one-jamo edit (DEVIANT_SPELLING).

The deviant candidate forms are the dictionary letters of N, N JOSA,
N XSV EOMI, V EOMI, ADJ EOMI, ADV, DET, INTERJ or PROPER (exactly one
JOSA or EOMI) recomposed with compose_letters.  No per-lexicon list of
them is built: the search walks the lexicon's letter trie with one
Levenshtein row against the token and drops every branch that is
already more than ``Thresholds.deviant`` jamo edits away.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .apply import TextIndex, run_from
from .fst import Fst
from .hangul import (COMPOSE_START, MEDIAL_LETTERS, compose_key_step, compose_letters,
                     distance_key, fold_letters, prefix_distances)
from .lexicon import DictEntry, Lexicon, Pos, is_analyzable
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


# grammar tag (prefix) -> category
TAG_CATEGORIES = {
    "ABBR": Category.ABBREVIATION,
    "DEVIANT": Category.DEVIANT_SPELLING,
    "LOAN": Category.LOANWORD_VARIANT,
    "NEO": Category.NEOLOGISM,
    "EMOTICON": Category.EMOTICON,
}


def tag_category(tag: str) -> Category | None:
    for prefix, cat in TAG_CATEGORIES.items():
        if tag == prefix or tag.startswith(prefix + "_"):
            return cat
    return None


class PreconditionViolated(ValueError):
    """classify_token was handed an analyzable token."""


@dataclass(frozen=True)
class Thresholds:
    loan: int = 2     # max jamo edits from a loanword standard
    deviant: int = 1  # max jamo edits from an analyzable form


@dataclass(frozen=True)
class Candidate:
    category: Category
    evidence: str


@dataclass(frozen=True)
class ClassificationResult:
    token: Token
    primary: Category
    candidates: tuple[Candidate, ...]
    suggestion: str | None


@dataclass
class Resources:
    """Everything classification consults besides the token itself."""

    lexicon: Lexicon                       # analyzability dictionary
    fsts: list[Fst]                        # compiled root grammars
    abbr_entries: tuple[DictEntry, ...] = ()
    neo_entries: tuple[DictEntry, ...] = ()
    loan_entries: tuple[DictEntry, ...] = ()
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        self._by_category: dict[Category, list[Fst]] = {}
        for f in self.fsts:
            cat = tag_category(f.tag)
            if cat is not None:
                self._by_category.setdefault(cat, []).append(f)
        self._loan_keys = [distance_key(e.surface) for e in self.loan_entries]
        self.deviant_search = _DeviantSearch(self.lexicon)

    def grammars_for(self, cat: Category) -> list[Fst]:
        return self._by_category.get(cat, [])

    def loan_keys(self) -> list[tuple]:
        return self._loan_keys


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


def _grammar_span(index: TextIndex, fsts: list[Fst], start_unit: int):
    """Longest accept over several transducers from one unit; returns
    (end_unit, output, fst) or None."""
    best = None
    for f in fsts:
        got = run_from(f, index, start_unit)
        if got is not None and (best is None or got[0] > best[0]):
            best = (got[0], got[1], f)
    return best


def _token_index(token: Token, lexicon: Lexicon) -> TextIndex:
    """TextIndex of a token on its own, as a one-token stream whose
    offsets start at 0; the detectors all work on it."""
    n_bytes = token.end - token.start
    alone = Token(token.surface, token.cls, 0, n_bytes)
    return TextIndex(token.surface, lexicon, TokenStream((alone,), n_bytes))


def _detect_emoticon(index: TextIndex, res: Resources) -> tuple[Candidate, str | None] | None:
    if all(ch in EMOTICON_SCALARS for ch in index.text):
        return Candidate(Category.EMOTICON, "emoticon-scalars"), None
    got = _grammar_span(index, res.grammars_for(Category.EMOTICON), 0)
    if got is not None and got[0] == len(index.units):
        return Candidate(Category.EMOTICON, f"grammar:{got[2].name}"), got[1] or None
    return None


def _grammar_prefix(index: TextIndex, res: Resources, cat: Category):
    """The category's grammars matched from the token start, with the
    matched span replaced in the suggestion."""
    got = _grammar_span(index, res.grammars_for(cat), 0)
    if got is None:
        return None
    sug = _splice(index.text, 0, index.char_of_unit(got[0]), got[1], index.lexicon)
    return Candidate(cat, f"grammar:{got[2].name}"), sug


def _dict_prefix(index: TextIndex, cat: Category, entries, suggestion_of):
    """First dictionary entry whose surface is a leading span of the token."""
    for e in entries:
        out = suggestion_of(e) if index.text.startswith(e.surface) else None
        if out is not None:
            sug = _splice(index.text, 0, len(e.surface), out, index.lexicon)
            return Candidate(cat, f"dict:{e.surface}"), sug
    return None


def _detect_abbreviation(index: TextIndex, res: Resources):
    cat = Category.ABBREVIATION
    return (_grammar_prefix(index, res, cat)
            or _dict_prefix(index, cat, res.abbr_entries, lambda e: e.flag_value("exp")))


def _hada_root(index: TextIndex, lexicon: Lexicon) -> str | None:
    """Shortest unknown root followed by the 하 verbalizer and at least
    one ending that reach the end of the token."""
    key = fold_letters(index.text)
    n = len(key)
    # eomi_tail[u]: key[u:] is one or more endings
    eomi_tail = [False] * (n + 1)
    for u in range(n - 1, -1, -1):
        eomi_tail[u] = any(e.pos is Pos.EOMI and (end == n or eomi_tail[end])
                           for end, e in lexicon.iter_prefix_entries(key, u))
    known = lexicon.word_ends(key)
    for i, u in enumerate(index.char_start_unit[1:-1], 1):
        if u not in known and any(e.pos is Pos.XSV and e.lemma == "하" and eomi_tail[end]
                                  for end, e in lexicon.iter_prefix_entries(key, u)):
            return index.text[:i]
    return None


def _detect_neologism(index: TextIndex, res: Resources):
    cat = Category.NEOLOGISM
    got = (_grammar_prefix(index, res, cat)
           or _dict_prefix(index, cat, res.neo_entries, lambda e: e.lemma))
    if got is None:
        root = _hada_root(index, res.lexicon)
        if root is not None:
            got = Candidate(cat, f"hada-pattern:{root}"), None
    return got


def _detect_loanword(index: TextIndex, res: Resources):
    return (_grammar_prefix(index, res, Category.LOANWORD_VARIANT)
            or _loanword_by_distance(index, res))


def _loanword_by_distance(index: TextIndex, res: Resources):
    """Loan entry nearest to a token prefix, ranked by (distance, -prefix
    chars, entry order) within the loan threshold; one DP per entry gives
    the distances of all char-aligned prefixes."""
    limit = res.thresholds.loan
    token_key = distance_key(index.text)
    ends = index.char_start_unit[1:]
    best = None  # (distance, -prefix_chars, entry_order) -> suggestion parts
    for order, (entry, entry_key) in enumerate(zip(res.loan_entries, res.loan_keys())):
        dists = prefix_distances(token_key, entry_key, limit)
        for n_chars, end_unit in enumerate(ends, 1):
            if end_unit < len(dists) and dists[end_unit] <= limit:
                rank = (dists[end_unit], -n_chars, order)
                if best is None or rank < best[0]:
                    best = (rank, entry, n_chars)
    if best is not None:
        _, entry, n_chars = best
        sug = _splice(index.text, 0, n_chars, entry.surface, index.lexicon)
        return Candidate(Category.LOANWORD_VARIANT,
                         f"distance:{entry.surface}"), sug
    return None


def _detect_spacing(index: TextIndex, res: Resources):
    # fewest words, then the lexicographically smallest word tuple: of two
    # first words from one start the shorter is a prefix of the longer
    ends = res.lexicon.fewest_words(fold_letters(index.text), index.char_start_unit)
    if ends is None or len(ends) < 2:
        return None
    cuts = [0] + [index.char_of_unit(u) for u in ends]
    words = [index.text[a:b] for a, b in zip(cuts, cuts[1:])]
    return Candidate(Category.SPACING, f"split:{len(words)}"), " ".join(words)


def _detect_deviant(index: TextIndex, res: Resources):
    fsts = res.grammars_for(Category.DEVIANT_SPELLING)
    for start_char, start_unit in enumerate(index.char_start_unit[:-1]):
        got = _grammar_span(index, fsts, start_unit)
        if got is not None and got[0] == len(index.units):
            sug = _splice(index.text, start_char, len(index.text), got[1],
                          res.lexicon)
            return Candidate(Category.DEVIANT_SPELLING,
                             f"grammar:{got[2].name}"), sug

    return _deviant_by_distance(index, res)


# The deviant candidate language: from each state, the part of speech of
# the next morpheme and the state it leads to.  Its forms are N, N JOSA,
# N XSV EOMI, V EOMI, ADJ EOMI, ADV, DET, INTERJ and PROPER, i.e. exactly
# one JOSA or EOMI, not the JOSA*/EOMI+ of the analyzability rules.
_DEVIANT_STEPS: dict[str, dict[Pos, str]] = {
    "start": {Pos.N: "noun", Pos.V: "stem", Pos.ADJ: "stem", Pos.ADV: "end",
              Pos.DET: "end", Pos.INTERJ: "end", Pos.PROPER: "end"},
    "noun": {Pos.JOSA: "end", Pos.XSV: "stem"},
    "stem": {Pos.EOMI: "end"},
    "end": {},
}
_DEVIANT_FINAL = frozenset({"noun", "end"})
_VOWELS = frozenset(MEDIAL_LETTERS)
_FAR = 1 << 30  # stands for any distance beyond the band


class _DeviantSearch:
    """Nearest form of the deviant candidate language to a token, found by
    a bounded walk of the lexicon's letter trie; no form list is built.

    For each language state that takes another morpheme, ``moves`` maps a
    trie node to the states its entries lead to, its children whose
    subtree ends an entry of a part of speech that state takes, and the
    look-aheads (is the next letter a vowel?) its last letter needs.
    """

    def __init__(self, lexicon: Lexicon):
        self.root = lexicon.trie_root
        nodes = []  # preorder, so reversed() sees children before parents
        stack = [(self.root, 0)]
        depth = 0
        while stack:
            node, d = stack.pop()
            nodes.append(node)
            depth = max(depth, d)
            stack.extend((child, d + 1) for child in node.children.values())
        # letters in the longest form; the language is acyclic, so a form
        # has fewer morphemes than the language has states
        self.max_letters = (len(_DEVIANT_STEPS) - 1) * depth
        self.moves: dict[str, dict] = {}
        for lang, steps in _DEVIANT_STEPS.items():
            if not steps:
                continue
            moves = self.moves[lang] = {}
            for node in reversed(nodes):
                targets = tuple(sorted({steps[e.pos] for e in node.entries if e.pos in steps}))
                kids = tuple((letter, child, letter in _VOWELS)
                             for letter, child in node.children.items() if child in moves)
                if targets or kids:
                    ahead = {False} if targets else set()
                    moves[node] = (targets, kids, tuple(ahead | {v for _, _, v in kids}))

    def nearest(self, token_key: tuple, limit: int) -> tuple[int, str] | None:
        """(distance, form) of the form whose composed distance key is
        nearest to ``token_key`` within ``limit`` edits; ties go to the
        longer shared key prefix, then to the smaller form.

        A depth-first walk that jumps back to the trie root at a morpheme
        end allowed by _DEVIANT_STEPS.  It carries one Levenshtein row
        against the token key, banded to the cells that can hold a distance
        within the limit, and drops a branch once the row's
        minimum exceeds the best distance found so far.  A letter's unit
        depends on the letter after it (compose_key_step), so each frame
        holds its last letter pending until the next one is known.
        """
        if limit < 0 or self.root not in self.moves["start"]:
            return None
        m = len(token_key)
        # no distance exceeds m + max_letters, so a wider band adds nothing
        band = min(limit, m + self.max_letters)
        width = 2 * band + 1

        def push(prev: list[int], k: int, unit: tuple) -> list[int]:
            """Row of candidate depth k (cells j = k-band .. k+band) from k-1."""
            cur = []
            left = _FAR
            for t in range(width):
                j = k - band + t
                if j < 0 or j > m:
                    v = _FAR
                elif j == 0:
                    v = k
                else:
                    v = prev[t] + (unit != token_key[j - 1])
                    if t + 1 < width and prev[t + 1] + 1 < v:
                        v = prev[t + 1] + 1
                    if left + 1 < v:
                        v = left + 1
                cur.append(v)
                left = v
            return cur

        best = None  # (distance, -shared_prefix, form): deviance keeps the onset
        bound = band
        row0 = [t - band if 0 <= t - band <= m else _FAR for t in range(width)]
        # frame: trie node, language state, compose state before the pending
        # letter, pending letter, row over the k settled units and its
        # minimum, k, shared prefix of the settled units and the token key,
        # letters including the pending one
        stack = [(child, "start", COMPOSE_START, letter, row0, 0, 0, 0, letter)
                 for letter, child, _ in self.moves["start"][self.root][1]]
        while stack:
            node, lang, state, pending, row, low, k, shared, letters = stack.pop()
            if low > bound:
                continue
            targets, kids, lookaheads = self.moves[lang][node]
            settled = [None, None]  # by whether the next letter is a vowel
            for next_is_vowel in lookaheads:
                state2, unit = compose_key_step(state, pending, next_is_vowel)
                row2 = push(row, k + 1, unit)
                shared2 = shared + 1 if shared == k < m and unit == token_key[k] else shared
                settled[next_is_vowel] = (state2, row2, min(row2), shared2)
            for lang2 in targets:
                if lang2 in _DEVIANT_FINAL:
                    _, row2, _, shared2 = settled[False]
                    t = m - (k + 1) + band
                    if 0 <= t < width and row2[t] <= bound:
                        rank = (row2[t], -shared2, compose_letters(letters))
                        if best is None or rank < best:
                            best = rank
                            bound = rank[0]
                if self.root in self.moves.get(lang2, ()):
                    stack.append((self.root, lang2, state, pending, row, low, k, shared,
                                  letters))
            for letter, child, next_is_vowel in kids:
                state2, row2, low2, shared2 = settled[next_is_vowel]
                if low2 <= bound:
                    stack.append((child, lang, state2, letter, row2, low2, k + 1, shared2,
                                  letters + letter))
        if best is None:
            return None
        return best[0], best[2]


def _deviant_by_distance(index: TextIndex, res: Resources):
    got = res.deviant_search.nearest(distance_key(index.text), res.thresholds.deviant)
    if got is None:
        return None
    return Candidate(Category.DEVIANT_SPELLING, f"distance:{got[0]}"), got[1]


# each detector with the token classes it looks at
_HANGUL = (TokenClass.HANGUL,)
_DETECTORS = (
    (_detect_emoticon, (TokenClass.JAMO, TokenClass.SYMBOL)),
    (_detect_abbreviation, _HANGUL),
    (_detect_neologism, _HANGUL),
    (_detect_loanword, _HANGUL),
    (_detect_spacing, _HANGUL),
    (_detect_deviant, _HANGUL),
)


def classify_token(token: Token, res: Resources) -> ClassificationResult:
    """Classify one non-analyzable token; all firing detectors are kept
    as candidates and the first becomes the primary category."""
    if is_analyzable(token, res.lexicon):
        raise PreconditionViolated(f"token {token.surface!r} is analyzable")
    index = _token_index(token, res.lexicon)
    candidates: list[Candidate] = []
    suggestion: str | None = None
    for detect, classes in _DETECTORS:
        if token.cls not in classes:
            continue
        got = detect(index, res)
        if got is None:
            continue
        cand, sug = got
        candidates.append(cand)
        if len(candidates) == 1:
            suggestion = sug
    if not candidates:
        return ClassificationResult(token, Category.UNKNOWN, (), None)
    return ClassificationResult(token, candidates[0].category,
                                tuple(candidates), suggestion)


@dataclass(frozen=True)
class CorpusClassification:
    results: tuple[ClassificationResult, ...]
    counts: dict[Category, int]


def classify_corpus(stream: TokenStream, res: Resources) -> CorpusClassification:
    """Classify each distinct non-analyzable HANGUL/JAMO/SYMBOL surface
    once, in first-occurrence order."""
    seen: set[str] = set()
    results: list[ClassificationResult] = []
    counts: dict[Category, int] = {}
    for token in stream:
        if token.cls not in (TokenClass.HANGUL, TokenClass.JAMO, TokenClass.SYMBOL):
            continue
        if token.surface in seen:
            continue
        seen.add(token.surface)
        try:
            result = classify_token(token, res)
        except PreconditionViolated:
            continue
        results.append(result)
        counts[result.primary] = counts.get(result.primary, 0) + 1
    return CorpusClassification(tuple(results), counts)
