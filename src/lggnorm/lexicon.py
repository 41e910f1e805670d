"""Machine-readable dictionary and the analyzability test.

Dictionary lines look like ``surface,lemma.POS`` or
``surface,lemma.POS+flag1+flag2``; ``#`` starts a comment.  Lookup runs
over letter-level jamo keys, so an ending written ``ㅂ니다`` joins a stem
inside a shared syllable (추천합니다 = 추천 + 하 + ㅂ니다).

A token is analyzable when at least one segmentation into dictionary
entries satisfies the part-of-speech concatenation rules; classification
treats the complement — the non-analyzable tokens — as its problem space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .hangul import fold_letters
from .tokenizer import Token, TokenClass


class Pos(enum.Enum):
    N = "N"
    V = "V"
    ADJ = "ADJ"
    ADV = "ADV"
    DET = "DET"
    INTERJ = "INTERJ"
    JOSA = "JOSA"
    EOMI = "EOMI"
    XSV = "XSV"  # verbalizing suffix (하다/되다 pattern)
    PROPER = "PROPER"


POS_NAMES = frozenset(p.value for p in Pos)

DEFAULT_CONCAT_RULES = (
    "N JOSA*",
    "V EOMI+",
    "ADJ EOMI+",
    "N XSV EOMI+",
    "ADV",
    "DET",
    "INTERJ",
    "PROPER",
)


class MalformedEntry(ValueError):
    """One or more dictionary lines failed to parse."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        lines = ", ".join(str(n) for n, _ in errors)
        super().__init__(f"malformed dictionary entry at line(s) {lines}")


@dataclass(frozen=True)
class DictEntry:
    surface: str
    lemma: str
    pos: Pos
    flags: frozenset[str] = field(default=frozenset())

    def flag_value(self, name: str) -> str | None:
        """Value of a ``name=value`` flag, with ``_`` decoded as space."""
        prefix = name + "="
        for f in self.flags:
            if f.startswith(prefix):
                return f[len(prefix):].replace("_", " ")
        return None

    def __repr__(self):
        return f"DictEntry({self.surface}:{self.lemma}.{self.pos.value})"


def parse_entry(line: str) -> DictEntry:
    surface, sep, rest = line.partition(",")
    if not sep or not surface:
        raise ValueError("missing ',' separator")
    parts = rest.split("+")
    lemma, dot, pos_name = parts[0].rpartition(".")
    if not dot or not lemma or pos_name not in POS_NAMES:
        raise ValueError(f"bad lemma.POS field {parts[0]!r}")
    flags = frozenset(p for p in parts[1:] if p)
    if len(flags) != len(parts) - 1:
        raise ValueError("empty flag")
    return DictEntry(surface, lemma, Pos(pos_name), flags)


class _TrieNode:
    __slots__ = ("children", "entries")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.entries: list[DictEntry] = []


class _RulePattern:
    """One concatenation rule, e.g. ``N XSV EOMI+`` (quantifiers: none, *, +).

    Matched with a position-set automaton: state i = "about to match
    atom i", state len(atoms) = accept.
    """

    def __init__(self, text: str):
        self.text = text
        self.atoms: list[tuple[Pos, bool, bool]] = []  # (pos, skippable, repeatable)
        for item in text.split():
            quant = ""
            if item[-1] in "*+":
                item, quant = item[:-1], item[-1]
            if item not in POS_NAMES:
                raise ValueError(f"unknown POS {item!r} in rule {text!r}")
            self.atoms.append((Pos(item), quant == "*", quant in ("*", "+")))

    def _closure(self, states: set[int]) -> set[int]:
        out = set(states)
        for i in sorted(states):
            j = i
            while j < len(self.atoms) and self.atoms[j][1]:
                j += 1
                out.add(j)
        return out

    def _run(self, seq: tuple[Pos, ...]) -> set[int]:
        states = self._closure({0})
        for pos in seq:
            nxt = set()
            for i in states:
                if i < len(self.atoms) and self.atoms[i][0] is pos:
                    nxt.add(i + 1)
                    if self.atoms[i][2]:
                        nxt.add(i)
            if not nxt:
                return set()
            states = self._closure(nxt)
        return states

    def matches(self, seq: tuple[Pos, ...]) -> bool:
        return bool(seq) and len(self.atoms) in self._run(seq)

    def viable_prefix(self, seq: tuple[Pos, ...]) -> bool:
        return bool(self._run(seq))


@dataclass
class MorphAnalysis:
    """One segmentation of a token into dictionary entries."""

    segments: tuple[tuple[str, DictEntry], ...]

    @property
    def pos_seq(self) -> tuple[Pos, ...]:
        return tuple(e.pos for _, e in self.segments)

    def __repr__(self):
        inner = "+".join(f"{s}/{e.pos.value}" for s, e in self.segments)
        return f"MorphAnalysis({inner})"


class Lexicon:
    """Immutable multimap surface -> entries behind a letter-jamo trie."""

    def __init__(self, entries: Iterable[DictEntry],
                 concat_rules: Iterable[str] = DEFAULT_CONCAT_RULES):
        self._root = _TrieNode()
        self._entries: list[DictEntry] = []
        self.concat_rules = tuple(concat_rules)
        self._rules = [_RulePattern(r) for r in self.concat_rules]
        for e in entries:
            self._insert(e)

    def _insert(self, entry: DictEntry):
        if not entry.surface:
            raise ValueError("entry surface must be non-empty")
        self._entries.append(entry)
        node = self._root
        for letter in fold_letters(entry.surface):
            node = node.children.setdefault(letter, _TrieNode())
        node.entries.append(entry)

    def __len__(self):
        return len(self._entries)

    @property
    def entries(self) -> tuple[DictEntry, ...]:
        return tuple(self._entries)

    @property
    def trie_root(self) -> _TrieNode:
        """Root of the letter trie (``children`` by letter, ``entries``
        ending at the node); read-only for callers."""
        return self._root

    def lookup(self, surface: str) -> list[DictEntry]:
        node = self._root
        for letter in fold_letters(surface):
            node = node.children.get(letter)
            if node is None:
                return []
        return list(node.entries)

    def iter_prefix_entries(self, key: tuple[str, ...], start: int) -> Iterator[tuple[int, DictEntry]]:
        """Yield (end_index, entry) for every entry matching key[start:end]."""
        node = self._root
        i = start
        while i < len(key):
            node = node.children.get(key[i])
            if node is None:
                return
            i += 1
            for e in node.entries:
                yield i, e

    def pos_seq_allowed(self, seq: tuple[Pos, ...]) -> bool:
        return any(r.matches(seq) for r in self._rules)

    def _pos_prefix_viable(self, seq: tuple[Pos, ...]) -> bool:
        return any(r.viable_prefix(seq) for r in self._rules)

    def analyze_key(self, key: tuple[str, ...]) -> list[MorphAnalysis]:
        """All rule-satisfying segmentations of a letter-jamo key."""
        results: list[MorphAnalysis] = []

        def walk(i: int, segs: list[tuple[str, DictEntry]], poses: tuple[Pos, ...]):
            if i == len(key):
                if self.pos_seq_allowed(poses):
                    results.append(MorphAnalysis(tuple(segs)))
                return
            for end, entry in self.iter_prefix_entries(key, i):
                nxt = poses + (entry.pos,)
                if not self._pos_prefix_viable(nxt):
                    continue
                segs.append((entry.surface, entry))
                walk(end, segs, nxt)
                segs.pop()

        walk(0, [], ())
        results.sort(key=lambda a: (
            len(a.segments),
            tuple((s, e.pos.value, e.lemma) for s, e in a.segments),
        ))
        return results


def load_dictionary(source: Iterable[str],
                    concat_rules: Iterable[str] = DEFAULT_CONCAT_RULES) -> Lexicon:
    """Build a Lexicon from dictionary lines, collecting all malformed lines."""
    entries: list[DictEntry] = []
    errors: list[tuple[int, str]] = []
    for lineno, raw in enumerate(source, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            entries.append(parse_entry(line.strip()))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    if errors:
        raise MalformedEntry(errors)
    return Lexicon(entries, concat_rules)


def load_dictionary_file(path, concat_rules: Iterable[str] = DEFAULT_CONCAT_RULES) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return load_dictionary(fh, concat_rules)


def analyze_token(token: Token, lexicon: Lexicon) -> list[MorphAnalysis]:
    """All admissible segmentations of a HANGUL token, fewest segments first."""
    if token.cls is not TokenClass.HANGUL:
        raise ValueError(f"analyze_token expects a HANGUL token, got {token.cls.value}")
    return lexicon.analyze_key(fold_letters(token.surface))


def is_analyzable(token: Token, lexicon: Lexicon) -> bool:
    """HANGUL: has an analysis; JAMO/SYMBOL: never; LATIN/DIGIT/PUNCT: always."""
    if token.cls is TokenClass.HANGUL:
        return bool(analyze_token(token, lexicon))
    if token.cls in (TokenClass.JAMO, TokenClass.SYMBOL):
        return False
    return True
