"""Machine-readable dictionary and the analyzability test.

Dictionary lines look like ``surface,lemma.POS`` or
``surface,lemma.POS+flag1+flag2``; ``#`` starts a comment, a file may
start with a byte order mark and a surface must be NFC.  Lookup runs
over the letter string of ``fold_letters``, so an ending written ``ㅂ니다``
joins a stem inside a shared syllable (추천합니다 = 추천 + 하 + ㅂ니다).

A token is analyzable when at least one segmentation into dictionary
entries satisfies the part-of-speech concatenation rules; classification
treats the complement — the non-analyzable tokens — as its problem space.

The concatenation rules compile to one integer transition table,
RuleAutomaton: a rule state is a row number and a part of speech a
column, ``Pos.index``; trie nodes keep their parts of speech as indices.
Every dictionary is one _Trie (the lexicon, its twin over reversed
letters and each side dictionary, a KeyTrie), and an exact lookup is the
key's one path down it, ``_Trie.prefix_items``.
Analyses need the edges, so they read the lattice of (unit, rule state)
pairs, each expanded once from the entries ``prefix_items`` finds at its
unit (units × trie depth × rule states of work at most), and settle it
right to left, a pair after the pairs its edges reach.  Otherwise a
LetterAutomaton answers, for the analysability test, the fewest-words
split and the classifier's 하-tail and deviant-spelling searches: the subset
construction (Aho, Sethi & Ullman, "Compilers", §3.7) over (trie node,
rule state) pairs, done lazily.  A state is the set of pairs live after
a prefix of letters, and a letter step follows each pair's trie child
and, at a part of speech the rule state takes, returns to the root in
the next rule state.  Each state and each transition is made the first
time it is reached and kept, so a key costs one dict lookup per letter
once its steps are known, and the states never outnumber the letters
stepped.
The deviant and loanword searches are one fuzzy search, BandedRows.walk:
a depth-first walk of the deviant automaton or the loan KeyTrie beside
banded edit-distance rows; the exact abbreviation and neologism lookups
grow no rows.  Both fuzzy searches start from what must match exactly.
At a limit of 0 or 1 a form keeps one half of the key whole, so the
deviant search runs the first half forward and the second backward,
through the automaton of the reversed twin, and walks on only from the
states those exact runs reach.  An entry within k edits of a key prefix
keeps one of its k + 1 pieces whole, near its offset, so the loan search
walks only a key that holds such a piece.  No other module reads a trie
node.
"""

from __future__ import annotations

import enum
import math
import unicodedata
from typing import Callable, Collection, Container, Iterable, Iterator, NamedTuple, Sequence

from .hangul import compose_letters, distance_key, fold_letters, is_compat_jamo
from .tokenizer import Token, TokenClass


class Pos(enum.Enum):
    """A part of speech; ``index`` is its place in the declaration, the
    column of rule tables."""

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

    def __init__(self, value):
        self.index = len(type(self)._member_names_)  # the members declared before


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
    """A dictionary failed to parse; ``errors`` holds the line number and
    message of each malformed line."""

    def __init__(self, message: str, errors: list[tuple[int, str]] = ()):
        super().__init__(message)
        self.errors = list(errors)


class DictEntry(NamedTuple):
    surface: str
    lemma: str
    pos: Pos
    flags: frozenset[str] = frozenset()

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
    if not unicodedata.is_normalized("NFC", surface):
        raise ValueError("surface is not NFC")
    if any(map(str.isspace, surface)):
        raise ValueError("surface holds whitespace")
    parts = rest.split("+")
    lemma, dot, pos_name = parts[0].rpartition(".")
    if not dot or not lemma or pos_name not in POS_NAMES:
        raise ValueError(f"bad lemma.POS field {parts[0]!r}")
    flags = frozenset(p for p in parts[1:] if p)
    if len(flags) != len(parts) - 1:
        raise ValueError("empty flag")
    return DictEntry(surface, lemma, Pos(pos_name), flags)


class _TrieNode:
    __slots__ = ("children", "entries", "pos", "below")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.entries: list = []  # the items whose keys end here
        self.pos: list[int] = []  # distinct Pos.index of those items
        self.below = 0  # bit Pos.index set for each part of speech in the subtree


class _Trie:
    """Items under letter keys, from (key, Pos.index, item) triples, each
    node's items in their order: the lexicon, its reversed twin and each
    side dictionary.  ``longest`` is the most letters in a key."""

    def __init__(self, keyed: Iterable[tuple[Sequence, int, object]]):
        self.root = _TrieNode()
        self.longest = 0
        for key, p, item in keyed:
            self.longest = max(self.longest, len(key))
            node = self.root
            for letter in key:
                node = node.children.setdefault(letter, _TrieNode())
                node.below |= 1 << p
            if p not in node.pos:
                node.pos.append(p)
            node.entries.append(item)

    def prefix_items(self, key: Sequence, start: int) -> Iterator[tuple[int, object]]:
        """(end, item) for each item whose key is key[start:end], by end:
        the one path of the key down the trie."""
        node = self.root
        i = start
        while i < len(key):
            node = node.children.get(key[i])
            if node is None:
                return
            i += 1
            for item in node.entries:
                yield i, item


class _RulePattern:
    """One concatenation rule, e.g. ``N XSV EOMI+`` (quantifiers: none, *, +)."""

    def __init__(self, text: str):
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


class RuleAutomaton:
    """The part-of-speech sequences some concatenation rule accepts, as a
    deterministic automaton over integer states.

    The states are numbered at construction by a breadth-first subset
    construction (Mohri 1997, "Finite-state transducers in language and
    speech processing") over the sets of (rule, atom) positions reached,
    each set a bit mask: ``table[state][pos.index]`` is the state after one
    more morpheme, ``final[state]`` whether some rule is complete and
    ``takes[state]`` has bit ``pos.index`` set for each part of speech
    whose cell is live.  State 0 is the dead state, where no rule fits;
    ``start`` is 1.
    """

    def __init__(self, rules: Iterable[str]):
        self.rules = tuple(rules)
        patterns = [_RulePattern(r) for r in self.rules]
        bit = {}  # (rule, atom) position -> its bit; atom len(atoms) ends the rule
        for r, rule in enumerate(patterns):
            for i in range(len(rule.atoms) + 1):
                bit[r, i] = 1 << len(bit)

        def reach(r: int, i: int) -> int:
            return sum(bit[r, j] for j in patterns[r].skip(i))

        # (position bit, Pos.index, positions one morpheme of that part of speech reaches)
        moves = [(bit[r, i], pos.index, reach(r, i + 1) | (bit[r, i] if repeat else 0))
                 for r, rule in enumerate(patterns)
                 for i, (pos, _, repeat) in enumerate(rule.atoms)]
        ends = sum(bit[r, len(rule.atoms)] for r, rule in enumerate(patterns))
        masks = [0, sum(reach(r, 0) for r in range(len(patterns)))]
        number = {mask: state for state, mask in enumerate(masks)}
        self.start = 1
        self.table: list[tuple[int, ...]] = []
        for mask in masks:  # grows as new position sets are met
            row = [0] * len(Pos)
            for b, p, reached in moves:
                if mask & b:
                    row[p] |= reached
            for nxt in row:
                if nxt not in number:
                    number[nxt] = len(masks)
                    masks.append(nxt)
            self.table.append(tuple(number[nxt] for nxt in row))
        self.final = [bool(mask & ends) for mask in masks]
        self.takes = [sum(1 << p for p, nxt in enumerate(row) if nxt) for row in self.table]
        # morphemes in the longest sequence accepted; None when a rule repeats
        self.max_morphemes = (
            None if any(atom[2] for rule in patterns for atom in rule.atoms)
            else max((len(rule.atoms) for rule in patterns), default=0))

    def reversed(self) -> RuleAutomaton:
        """Each rule's atoms in reverse order: ``N XSV EOMI`` as ``EOMI XSV N``."""
        return RuleAutomaton(" ".join(rule.split()[::-1]) for rule in self.rules)

    def accepts(self, seq: tuple[Pos, ...]) -> bool:
        state = self.start
        for pos in seq:
            state = self.table[state][pos.index]
        return bool(seq) and self.final[state]


class MorphAnalysis(NamedTuple):
    """One segmentation of a token into dictionary entries."""

    segments: tuple[tuple[str, DictEntry], ...]

    def __repr__(self):
        inner = "+".join(f"{s}/{e.pos.value}" for s, e in self.segments)
        return f"MorphAnalysis({inner})"


class Lexicon:
    """Multimap surface -> entries behind a letter-jamo trie.  The entries
    never change; the LetterAutomaton of ``is_word`` and ``word_ends``
    grows as keys are read, so one Lexicon is not for concurrent
    threads."""

    def __init__(self, entries: Iterable[DictEntry],
                 concat_rules: Iterable[str] = DEFAULT_CONCAT_RULES):
        self.entries: tuple[DictEntry, ...] = tuple(entries)
        if not all(e.surface for e in self.entries):
            raise ValueError("entry surface must be non-empty")
        self._trie = _Trie((fold_letters(e.surface), e.pos.index, e) for e in self.entries)
        self.concat_rules = tuple(concat_rules)
        self._rules = RuleAutomaton(self.concat_rules)
        self._words = LetterAutomaton(self, self._rules)

    def __len__(self):
        return len(self.entries)

    def lookup(self, surface: str) -> list[DictEntry]:
        key = fold_letters(surface)
        return [e for end, e in self._trie.prefix_items(key, 0) if end == len(key)]

    def pos_seq_allowed(self, seq: tuple[Pos, ...]) -> bool:
        return self._rules.accepts(seq)

    def lattice(self, key: str) -> dict:
        """Every (unit, rule state) pair reachable from (0, start state),
        with its edges (entry, next pair) in prefix_items order.  Each pair
        is expanded once."""
        edges: dict[tuple[int, int], list] = {}
        stack = [(0, self._rules.start)]
        while stack:
            pair = stack.pop()
            if pair in edges:
                continue
            row = self._rules.table[pair[1]]
            out = edges[pair] = []
            for end, e in self._trie.prefix_items(key, pair[0]):
                nxt = row[e.pos.index]
                if nxt:
                    out.append((e, (end, nxt)))
            stack.extend(dst for _, dst in out)
        return edges

    def word_ends(self, key: str) -> set[int]:
        """Units where a rule-satisfying word that starts the key ends."""
        return self._words.ends(key)

    # is_word, the hot loop of stats, runs the automaton in its own loop:
    # written as accepts[run(key)], a stats-vocab pool pass was slower in 5
    # of 5 alternating rounds (median 89.0-90.7 -> 91.2-92.7 ms, 2 vCPU).
    def is_word(self, key: str) -> bool:
        """The whole key is one rule-satisfying word."""
        words = self._words
        delta, state = words.delta, 1
        for letter in key:
            nxt = delta[state].get(letter)
            state = words.step(state, letter) if nxt is None else nxt
            if not state:
                return False
        return bool(key) and words.accepts[state]

    def fewest_words(self, key: str, starts: Container[int]) -> list[int] | None:
        """Ends of the fewest rule-satisfying words that cover the key,
        each starting at one of ``starts`` (0 and len(key) among them);
        ties go to the sooner first end, then recursively.  None when no
        such split exists.  A shortest path (Mohri 2002) in one run of the
        word automaton: each live state keeps the least (words, ends) of
        the words ended before the one under way in it, which is exact,
        for two splits in one state finish alike.  At a unit of ``starts``
        where a state accepts, the next word starts in state 1."""
        delta, accepts, step = self._words.delta, self._words.accepts, self._words.step
        split = (0, ())  # least (words, ends) of words covering the letters read, or None
        live: dict[int, tuple] = {}
        for unit, letter in enumerate(key, 1):
            if split is not None:
                live[1] = min(live.get(1, split), split)
            moved: dict[int, tuple] = {}
            for state, got in live.items():
                nxt = delta[state].get(letter)
                if nxt is None:
                    nxt = step(state, letter)
                if nxt and (nxt not in moved or got < moved[nxt]):
                    moved[nxt] = got
            live = moved
            if not live:
                return None
            split = None
            if unit in starts:
                done = [got for state, got in live.items() if accepts[state]]
                if done:
                    words, ends = min(done)
                    split = (words + 1, ends + (unit,))
        return None if split is None else list(split[1])

    def analyze_key(self, key: str) -> list[MorphAnalysis]:
        """Every rule-satisfying segmentation of a letter-jamo key, fewest
        segments first, then by each segment's (surface, POS, lemma), then
        by the entries' dictionary order: a stable sort of the segment
        tuples that each pair, right to left, finds to finish the key."""
        edges = self.lattice(key)
        finish: dict[tuple[int, int], list] = {}  # pair -> segment tuples
        for pair in sorted(edges, key=lambda p: -p[0]):
            done = [()] if pair[0] == len(key) > 0 and self._rules.final[pair[1]] else []
            finish[pair] = done + [((e.surface, e),) + rest
                                   for e, dst in edges[pair] for rest in finish[dst]]
        found = sorted(finish[0, self._rules.start], key=lambda segments: (
            len(segments), [(s, e.pos.value, e.lemma) for s, e in segments]))
        return list(map(MorphAnalysis, found))

    def best_analysis(self, key: str) -> MorphAnalysis | None:
        """The first of ``analyze_key(key)``, or None when there is none: a
        shortest path settled right to left (Mohri 2002, "Semiring frameworks
        and algorithms for shortest-distance problems").  A pair keeps its
        edge of least (segments, (surface, POS, lemma)); two such edges
        reach the same next pair, and ``min`` keeps the first of them."""
        edges = self.lattice(key)
        best = {}  # pair -> (segments, (surface, POS, lemma), entry, next pair)
        for pair in sorted(edges, key=lambda p: -p[0]):
            ranked = [(best[dst][0] + 1, (e.surface, e.pos.value, e.lemma), e, dst)
                      for e, dst in edges[pair] if dst in best]
            if pair[0] == len(key) > 0 and self._rules.final[pair[1]]:
                ranked.append((0, (), None, None))
            if ranked:
                best[pair] = min(ranked, key=lambda r: r[:2])
        pair = (0, self._rules.start)
        if pair not in best:
            return None
        segments = []
        while best[pair][0]:
            _, _, e, pair = best[pair]
            segments.append((e.surface, e))
        return MorphAnalysis(tuple(segments))


_FAR = 1 << 30  # stands for any distance beyond the band


class BandedRows:
    """Levenshtein rows of trie paths against one token key, and the one
    walk that the classifier's fuzzy searches share.

    The row of a path of k letters holds the cells j = k-band .. k+band
    for the distance from the path to ``key[:j]``.  ``bound`` starts at
    the band and a search lowers it to the best distance found; a path
    whose row minimum exceeds it is dropped, since the minimum never
    falls as a path grows.  A cell within the bound holds the exact
    distance, because an alignment of that cost never leaves the band;
    any other cell holds some value above the bound.
    """

    def __init__(self, key: tuple, limit: int, longest: float):
        m = len(key)
        self.key, self.m = key, m
        # no distance exceeds m + longest, so a wider band adds nothing
        self.band = band = min(limit, m + longest)
        self.width = 2 * band + 1
        self.bound = band

    def cell(self, row: list[int], k: int, j: int) -> int:
        """Cell j of the row of a path of k letters."""
        t = j - k + self.band
        return row[t] if 0 <= t < self.width else _FAR

    def walk(self, start, kids: Callable[[object], dict], k0: int = 0) -> Iterator[tuple]:
        """(node, row, k, letters) of each path of k ``letters`` (a tuple)
        from ``start`` whose row keeps a cell within the bound, depth first;
        ``kids(node)`` maps a letter to a child.  The walk starts from what
        must match exactly: ``start`` is the node of the token's first
        ``k0`` letters (the root at 0), which every path starts with, and
        its row is that exact path's, cell j holding |j - k0|.  A path comes
        before its children, and the child on the token's next letter,
        ``key[k]``, is walked first, whatever the ``kids`` order: it is the
        likeliest to reach a near hit, and a hit that lowers ``bound``
        prunes the rest."""
        key, band, m = self.key, self.band, self.m
        row = [abs(t - band) if 0 <= k0 - band + t <= m else _FAR for t in range(self.width)]
        stack = [(start, row, 0, k0, key[:k0])]
        pop, push, grow = stack.pop, stack.append, self.grow  # extend(genexpr) costs 15%
        while stack:
            node, row, low, k, letters = pop()
            if low > self.bound:
                continue
            yield node, row, k, letters
            grown = grow(kids(node), row, low, k)
            if len(grown) > 1 and k < m:  # the child on key[k] last, so it is popped first
                grown.sort(key=lambda g: g[0] == key[k])
            for letter, child, row2, low2 in grown:
                push((child, row2, low2, k + 1, letters + (letter,)))

    def grow(self, kids: dict, row: list[int], low: int, k: int) -> list[tuple]:
        """(letter, child, row, minimum) of each of ``kids`` (letter ->
        child) whose row at k + 1 letters keeps a cell within the bound;
        ``row`` is the path's row at k letters, ``low`` its minimum.

        Once ``low`` is the bound, a child's cell stays within it only by
        a diagonal match from a cell at the bound (Schulz & Mihov 2002,
        "Fast string correction with Levenshtein automata"): only the
        token letters after those cells are looked up, in cell order, and
        the child's row holds the bound in those cells alone."""
        key, m, band, width, bound = self.key, self.m, self.band, self.width, self.bound
        j0 = k - band  # the cell j of row[0]
        grown = []
        if low >= bound:
            at: dict = {}  # token letter after a cell at the bound -> its row indices
            for t in range(max(-j0, 0), min(m - j0, width)):
                if row[t] == bound:
                    at.setdefault(key[j0 + t], []).append(t)
            for letter, ts in at.items():
                child = kids.get(letter)
                if child is not None:
                    cur = [_FAR] * width
                    for t in ts:
                        cur[t] = bound
                    grown.append((letter, child, cur, bound))
            return grown
        k += 1
        j0 += 1
        for letter, child in kids.items():
            cur = []
            left = _FAR
            for t in range(width):
                j = j0 + t
                if j < 0 or j > m:
                    v = _FAR
                elif j == 0:
                    v = k
                else:
                    v = row[t] + (letter != key[j - 1])
                    if t + 1 < width and row[t + 1] + 1 < v:
                        v = row[t + 1] + 1
                    if left + 1 < v:
                        v = left + 1
                cur.append(v)
                left = v
            low2 = min(cur)
            if low2 <= bound:
                grown.append((letter, child, cur, low2))
        return grown


class LetterAutomaton:
    """The words of ``rules`` over the lexicon's letter trie, or over the
    reversed letters of ``reversed_entries`` when given, as a
    deterministic letter automaton built as it is read.

    State n is the set of live (trie node, rule state) pairs ``pairs[n]``,
    ``delta[n]`` maps a letter to the next state and ``accepts[n]`` tells
    whether a word ends; state 0 is dead and state 1 is {(root, start)}.
    Each ``step`` adds one transition and at most one state, so the
    states never outnumber 2 + the letters stepped.
    """

    def __init__(self, lexicon: Lexicon, rules: RuleAutomaton,
                 reversed_entries: Iterable[DictEntry] | None = None):
        self.lexicon, self.rules, self._backward = lexicon, rules, None
        trie = lexicon._trie if reversed_entries is None else _Trie(
            (fold_letters(e.surface)[::-1], e.pos.index, e) for e in reversed_entries)
        self.root = trie.root
        self.table, self.final, self.takes = rules.table, rules.final, rules.takes
        self.pairs = [frozenset(), frozenset({(self.root, rules.start)})]
        self.number = {pairs: n for n, pairs in enumerate(self.pairs)}
        self.delta: list[dict[str, int]] = [{}, {}]
        self.accepts = [False, self.final[rules.start]]
        self.outs: dict[int, dict[str, int]] = {}
        # letters in the longest word: one entry per morpheme of a rule
        n = rules.max_morphemes
        self.max_letters = math.inf if n is None else n * trie.longest

    def step(self, state: int, letter: str) -> int:
        """The state after ``letter`` from ``state``, made and numbered the
        first time it is reached, and stored in ``delta``.  Each pair
        follows its trie child, kept while the child's subtree holds a part
        of speech the rule state takes, and each part of speech at the
        child that the rule state takes ends a morpheme: the pair (root,
        next rule state).  A new state's ``accepts`` entry is in place
        before its number is stored."""
        pairs = []
        accepts = False
        for node, s in self.pairs[state]:
            child = node.children.get(letter)
            if child is None:
                continue
            if child.below & self.takes[s]:
                pairs.append((child, s))
            for p in child.pos:
                nxt = self.table[s][p]
                if nxt:
                    pairs.append((self.root, nxt))
                    accepts = accepts or self.final[nxt]
        nxt = 0
        if pairs:
            pairs = frozenset(pairs)
            nxt = self.number.get(pairs)
            if nxt is None:
                nxt = len(self.pairs)
                self.pairs.append(pairs)
                self.delta.append({})
                self.accepts.append(accepts)
                self.number[pairs] = nxt
        self.delta[state][letter] = nxt
        return nxt

    @property
    def backward(self) -> LetterAutomaton:
        """The automaton of the reversed words, over a trie of the entries'
        reversed letters under the reversed rules; made on first use."""
        if self._backward is None:
            self._backward = LetterAutomaton(self.lexicon, self.rules.reversed(), self.lexicon.entries)
        return self._backward

    def run(self, key: Sequence[str]) -> int:
        """The state after ``key`` from state 1: 0 proves that no word
        starts with ``key``; a live state may be one no word completes."""
        delta, state = self.delta, 1
        for letter in key:
            nxt = delta[state].get(letter)
            state = self.step(state, letter) if nxt is None else nxt
            if not state:
                break
        return state

    def ends(self, key: str) -> set[int]:
        """Lengths of the prefixes of ``key`` that are words, in one run."""
        delta, accepts, state = self.delta, self.accepts, 1
        ends = set()
        for end, letter in enumerate(key, 1):
            nxt = delta[state].get(letter)
            state = self.step(state, letter) if nxt is None else nxt
            if not state:
                break
            if accepts[state]:
                ends.add(end)
        return ends

    def out(self, state: int) -> dict[str, int]:
        """Each letter that leads from ``state`` to a live state, mapped to
        that state; made once per state, stepping only unstored letters."""
        try:
            return self.outs[state]
        except KeyError:
            delta = self.delta[state]
            letters = dict.fromkeys(letter for node, s in self.pairs[state]
                                    for letter, child in node.children.items()
                                    if child.below & self.takes[s])
            got = self.outs[state] = {letter: delta[letter] if letter in delta
                                      else self.step(state, letter) for letter in letters}
            return got

    def nearest(self, token_key: tuple, limit: int) -> tuple[int, str] | None:
        """(distance, form) of the nearest form within ``limit`` edits of
        ``token_key``; ties go to the longer shared key prefix, then to
        the smaller form.  A form is the dictionary letters of a word,
        recomposed with compose_letters, where the recomposition leaves no
        letter standalone, so a form's letters are its distance key.

        A BandedRows walk of the automaton, whose bound falls to each
        nearer form; a form that composes with a standalone letter is
        passed over where it ends.  At a ``limit`` of 0 or 1 a form keeps
        the key's first ceil(m/2) letters or the rest whole (Mihov & Schulz
        2004), so the search starts from what must match exactly: one walk
        from the state ``run`` of the first half reaches, and one through
        ``backward`` over the reversed key from the state of the rest
        reversed, under the first walk's bound.  The rank is a minimum
        over the union of the two walks' forms, and a half whose run dies
        is not walked.  Greater limits walk the whole automaton.
        """
        if limit < 0:
            return None
        if limit > 1:
            walks = [(self, 1, token_key, 0, 1)]
        else:
            half = (len(token_key) + 1) // 2
            rest = token_key[half:][::-1]
            walks = [(self, self.run(token_key[:half]), token_key, half, 1),
                     (self.backward, self.backward.run(rest), token_key[::-1], len(rest), -1)]
        m = len(token_key)
        best = None  # (distance, -shared_prefix, form): deviance keeps the onset
        for automaton, start, key, k0, direction in walks:
            if not start:
                continue
            rows = BandedRows(key, limit, self.max_letters)
            if best is not None:
                rows.bound = best[0]
            accepts = automaton.accepts
            for state, row, k, letters in rows.walk(start, automaton.out, k0):
                if accepts[state] and k:
                    d = rows.cell(row, k, m)
                    if d <= rows.bound:
                        letters = letters[::direction]  # the backward walk's letters are reversed
                        form = compose_letters(letters)
                        shared = next((i for i, (a, b) in enumerate(zip(letters, token_key))
                                       if a != b), min(k, m))
                        rank = (d, -shared, form)
                        if (best is None or rank < best) and not any(map(is_compat_jamo, form)):
                            best = rank
                            rows.bound = d
        if best is None:
            return None
        return best[0], best[2]


class KeyTrie(_Trie):
    """Side-dictionary entries (abbreviations, neologisms, loanword
    standards) in a trie of their surfaces' distance keys whose nodes
    hold entry positions, searched for the entries a token starts with:
    exactly by ``prefix_items``, within some edits by ``prefix_matches``."""

    def __init__(self, entries: Iterable[DictEntry]):
        self.entries = tuple(entries)
        super().__init__((distance_key(e.surface), e.pos.index, order)
                         for order, e in enumerate(self.entries))
        self._pieces: dict[int, tuple | None] = {}  # limit -> pieces(limit)

    def pieces(self, limit: int) -> tuple[dict[tuple, set[int]], list[int], int] | None:
        """The entry keys cut into ``limit + 1`` pieces as evenly as
        they go: (piece -> its offsets in the keys, the piece lengths, the
        greatest offset), made on first use at each limit; None when some
        key has no more than ``limit`` letters, for such an entry is within
        ``limit`` edits of any short prefix and no piece need match."""
        if limit not in self._pieces:
            keys = {distance_key(e.surface) for e in self.entries}
            got = None
            if all(len(key) > limit for key in keys):
                index: dict[tuple, set[int]] = {}
                for key in keys:
                    cuts = [len(key) * i // (limit + 1) for i in range(limit + 2)]
                    for a, b in zip(cuts, cuts[1:]):
                        index.setdefault(key[a:b], set()).add(a)
                got = (index, sorted({len(piece) for piece in index}),
                       max((max(offsets) for offsets in index.values()), default=0))
            self._pieces[limit] = got
        return self._pieces[limit]

    def may_match(self, key: tuple, limit: int) -> bool:
        """False proves that no entry is within ``limit`` edits of a prefix
        of ``key`` (Wu & Manber 1992): of an entry's ``limit + 1`` pieces
        an alignment of at most ``limit`` edits leaves one whole, in the
        key no more than ``limit`` letters from its offset in the entry."""
        got = self.pieces(limit)
        if got is None:
            return True
        index, lengths, last = got
        for n in lengths:
            for p in range(min(len(key) - n, last + limit) + 1):
                offsets = index.get(key[p:p + n])
                if offsets and any(abs(p - a) <= limit for a in offsets):
                    return True
        return False

    def prefix_matches(self, key: tuple, ends: Container[int],
                       limit: int) -> list[tuple[int, int, int]]:
        """(distance, end, order): entry ``order`` is ``distance`` edits
        from ``key[:end]``, for an ``end`` in ``ends`` other than 0 (the
        empty prefix is never a match), within ``limit``.  Every match at
        the least distance is listed, and perhaps some farther ones found
        before it.

        The search starts from what must match exactly: a key in which
        ``may_match`` finds no entry's whole piece near its offset has no
        match, and grows no rows.  Otherwise a BandedRows walk of the trie;
        where an entry ends, each cell of the row at one of ``ends`` within
        the bound is a match, and the bound falls to its distance."""
        if limit < 0 or not self.may_match(key, limit):
            return []
        rows = BandedRows(key, limit, self.longest)
        matches = []
        for node, row, k, _ in rows.walk(self.root, lambda node: node.children):
            if node.entries:
                j0 = k - rows.band  # the cell j of row[0]
                for t, d in enumerate(row):
                    if d <= rows.bound and j0 + t > 0 and j0 + t in ends:
                        rows.bound = d
                        matches.extend((d, j0 + t, order) for order in node.entries)
        return matches


def read_entries(source: Iterable[str]) -> list[DictEntry]:
    """Entries of dictionary lines, collecting all malformed lines."""
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
        lines = ", ".join(str(n) for n, _ in errors)
        raise MalformedEntry(f"malformed dictionary entry at line(s) {lines}", errors)
    return entries


def read_entries_file(path) -> tuple[DictEntry, ...]:
    """Entries of a dictionary file, less a leading byte order mark; a
    file that is not UTF-8 or holds a malformed line raises MalformedEntry
    whose message starts with the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return tuple(read_entries(fh))
    except UnicodeDecodeError as exc:
        raise MalformedEntry(f"{path}: not UTF-8 ({exc})") from exc
    except MalformedEntry as exc:
        raise MalformedEntry(f"{path}: {exc}", exc.errors) from exc


def load_dictionary_file(path) -> Lexicon:
    """Build a Lexicon from a dictionary file (see read_entries_file)."""
    return Lexicon(read_entries_file(path))


def count_analyzable(cls: TokenClass, surfaces: Collection[str], lexicon: Lexicon) -> int:
    """How many of ``surfaces``, all of class ``cls``, are analyzable:
    HANGUL those with an analysis, JAMO/SYMBOL none, LATIN/DIGIT/PUNCT all."""
    if cls is TokenClass.HANGUL:
        return sum(map(lexicon.is_word, map(fold_letters, surfaces)))
    return 0 if cls in (TokenClass.JAMO, TokenClass.SYMBOL) else len(surfaces)


def is_analyzable(token: Token, lexicon: Lexicon) -> bool:
    """Whether the token is analyzable (see count_analyzable)."""
    return count_analyzable(token.cls, (token.surface,), lexicon) == 1
