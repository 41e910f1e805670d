"""Machine-readable dictionary and the analyzability test.

Dictionary lines look like ``surface,lemma.POS`` or
``surface,lemma.POS+flag1+flag2``; ``#`` starts a comment.  Lookup runs
over letter-level jamo keys, so an ending written ``ㅂ니다`` joins a stem
inside a shared syllable (추천합니다 = 추천 + 하 + ㅂ니다).

A token is analyzable when at least one segmentation into dictionary
entries satisfies the part-of-speech concatenation rules; classification
treats the complement — the non-analyzable tokens — as its problem space.

Analyses, the analysability test and the fewest-words split all walk
the letter trie over (unit, rule state) pairs, each expanded once, so the
work per token is bounded by units × trie depth × rule states.  Analyses
and the fewest-words split read the whole lattice with its edges; the
analysability test steps the rule state once per part of speech at a
trie node, keeps no edges and stops at the first complete segmentation.
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
    __slots__ = ("children", "entries", "pos")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.entries: list[DictEntry] = []
        self.pos: list[Pos] = []  # distinct parts of speech of the entries


class _RulePattern:
    """One concatenation rule, e.g. ``N XSV EOMI+`` (quantifiers: none, *, +)."""

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

    def skip(self, i: int) -> list[int]:
        """Atom position ``i`` and those reached from it past optional atoms."""
        out = [i]
        while out[-1] < len(self.atoms) and self.atoms[out[-1]][1]:
            out.append(out[-1] + 1)
        return out


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
        # rule automaton: a state is the frozenset of (rule, atom) positions
        # reached, empty once no rule fits; steps are memoized
        self._start = frozenset((r, i) for r, rule in enumerate(self._rules)
                                for i in rule.skip(0))
        self._finals = frozenset((r, len(rule.atoms)) for r, rule in enumerate(self._rules))
        self._steps: dict[tuple[frozenset, Pos], frozenset] = {}
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
        if entry.pos not in node.pos:
            node.pos.append(entry.pos)

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
        key = fold_letters(surface)
        return [e for end, e in self.iter_prefix_entries(key, 0) if end == len(key)]

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

    def _step(self, state: frozenset, pos: Pos) -> frozenset:
        """Rule state after one more morpheme of ``pos``."""
        try:
            return self._steps[state, pos]
        except KeyError:
            nxt = set()
            for r, i in state:
                atoms = self._rules[r].atoms
                if i < len(atoms) and atoms[i][0] is pos:
                    nxt.update((r, j) for j in self._rules[r].skip(i + 1))
                    if atoms[i][2]:
                        nxt.add((r, i))
            self._steps[state, pos] = frozenset(nxt)
            return self._steps[state, pos]

    def pos_seq_allowed(self, seq: tuple[Pos, ...]) -> bool:
        state = self._start
        for pos in seq:
            state = self._step(state, pos)
        return bool(seq) and not state.isdisjoint(self._finals)

    def lattice(self, key: tuple[str, ...], starts: Iterable[int] = (0,)) -> dict:
        """Every (unit, rule state) pair reachable from the start state at
        the ``starts`` units, with its edges (entry, next pair) in
        iter_prefix_entries order.  Each pair is expanded once."""
        edges: dict[tuple[int, frozenset], list] = {}
        stack = [(u, self._start) for u in starts]
        while stack:
            pair = stack.pop()
            if pair not in edges:
                steps = [(e, (end, self._step(pair[1], e.pos)))
                         for end, e in self.iter_prefix_entries(key, pair[0])]
                edges[pair] = [(e, dst) for e, dst in steps if dst[1]]
                stack.extend(dst for _, dst in edges[pair])
        return edges

    def _word_walk(self, key: tuple[str, ...], goal: int | None) -> set[int]:
        """Units where a rule-satisfying word that starts the key ends;
        stops as soon as one ends at ``goal``.  Walks the (unit, rule
        state) pairs of ``lattice`` without its edges, stepping the rule
        state once per part of speech at a trie node."""
        ends: set[int] = set()
        seen = {(0, self._start)}
        stack = [(0, self._start)]
        while stack:
            unit, state = stack.pop()
            node = self._root
            for end in range(unit + 1, len(key) + 1):
                node = node.children.get(key[end - 1])
                if node is None:
                    break
                for pos in node.pos:
                    nxt = self._step(state, pos)
                    if nxt and (end, nxt) not in seen:
                        seen.add((end, nxt))
                        stack.append((end, nxt))
                        if not nxt.isdisjoint(self._finals):
                            ends.add(end)
                            if end == goal:
                                return ends
        return ends

    def word_ends(self, key: tuple[str, ...]) -> set[int]:
        """Units where a rule-satisfying word that starts the key ends."""
        return self._word_walk(key, None)

    def is_word(self, key: tuple[str, ...]) -> bool:
        """The whole key is one rule-satisfying word."""
        return len(key) in self._word_walk(key, len(key))

    def fewest_words(self, key: tuple[str, ...], starts: list[int]) -> list[int] | None:
        """Ends of the fewest rule-satisfying words that cover the key,
        each starting at one of ``starts`` (ascending, ending with
        len(key)); ties go to the sooner first end, then recursively.
        None when no such split exists.  A shortest path over the lattice
        from all starts, settled right to left."""
        edges = self.lattice(key, starts[:-1])
        aligned = set(starts)
        # (words, end of the first word) of the best split from a start,
        # and of the best way to finish the word under way at a pair
        rest = {starts[-1]: (0, starts[-1])}
        ahead = {}
        for pair in sorted(edges, key=lambda p: (-p[0], p[1] != self._start)):
            unit, state = pair
            ranks = [ahead[dst] for _, dst in edges[pair] if dst in ahead]
            if ranks and unit in aligned and state == self._start:
                rest[unit] = min(ranks)
            if unit in rest and not state.isdisjoint(self._finals):
                ranks.append((rest[unit][0] + 1, unit))
            if ranks:
                ahead[pair] = min(ranks)
        ends = [0]
        while ends[-1] in rest and ends[-1] != starts[-1]:
            ends.append(rest[ends[-1]][1])
        return ends[1:] if ends[-1] == starts[-1] else None

    def analyze_key(self, key: tuple[str, ...]) -> list[MorphAnalysis]:
        """All rule-satisfying segmentations of a letter-jamo key."""
        edges = self.lattice(key)
        # segments that finish the key from each pair, in edge order; every
        # edge moves right, so one pass by decreasing unit settles them
        tails: dict[tuple[int, frozenset], list] = {}
        for pair in sorted(edges, key=lambda p: -p[0]):
            done = pair[0] == len(key) > 0 and not pair[1].isdisjoint(self._finals)
            tails[pair] = [()] if done else []
            for e, dst in edges[pair]:
                tails[pair] += [((e.surface, e),) + t for t in tails[dst]]
        results = [MorphAnalysis(t) for t in tails[0, self._start]]
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
        return lexicon.is_word(fold_letters(token.surface))
    if token.cls in (TokenClass.JAMO, TokenClass.SYMBOL):
        return False
    return True
