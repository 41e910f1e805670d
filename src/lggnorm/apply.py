"""Run compiled transducers over text and rewrite the matched spans.

Scanning is leftmost-longest: positions are tried left to right (token
starts by default), every transducer runs at each position, the longest
consumed span wins, ties fall to grammar priority order and then to the
graph's own alternative order.  Accepted matches never overlap; REPLACE
splices outputs into the text, MERGE decorates spans in place as
``{surface,output.TAG}``.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .fst import Fst, TOKEN_BOUNDARY, is_sentinel
from .grammar import TAG_PATTERN
from .hangul import distance_key, fold_letters, jamo_units, unit_offsets
from .lexicon import Lexicon
from .tokenizer import Token, TokenClass, byte_offsets, tokenize


class Mode(enum.Enum):
    REPLACE = "replace"
    MERGE = "merge"


class Anchor(enum.Enum):
    TOKEN_START = "token"
    ANYWHERE = "anywhere"


@dataclass(frozen=True)
class Match:
    start: int  # byte offsets
    end: int
    surface: str
    output: str
    grammar: str
    tag: str


@dataclass(frozen=True)
class ApplyConfig:
    mode: Mode = Mode.REPLACE
    anchor: Anchor = Anchor.TOKEN_START
    grammar_priority: tuple[str, ...] = ()


class TextIndex:
    """Jamo units of a text plus the unit/char/byte/token cross-references,
    and its letters ``letters`` and distance key ``key``, each computed on
    first read (by classify)."""

    def __init__(self, text: str, lexicon: Lexicon | None = None):
        self.text = text
        self.lexicon = lexicon
        self.units = jamo_units(text)
        # unit and byte offset of each character, then the totals
        self.char_start_unit = unit_offsets(text)
        self.byte_of_char = byte_offsets(text)
        self.char_aligned = set(self.char_start_unit)

        self.token_at_unit: dict[int, Token] = {}
        self.token_end_unit: dict[int, int] = {}
        for tok in tokenize(text):
            start_char = bisect_left(self.byte_of_char, tok.start)
            u = self.char_start_unit[start_char]
            self.token_at_unit[u] = tok
            self.token_end_unit[u] = self.char_start_unit[start_char + len(tok.surface)]
        self._single_pos: dict[int, frozenset[str]] = {}

    @cached_property
    def letters(self) -> tuple[str, ...]:
        return fold_letters(self.text)

    @cached_property
    def key(self) -> tuple:
        return distance_key(self.text)

    def char_of_unit(self, unit: int) -> int:
        """Index of the character a unit belongs to; len(text) past the end."""
        return bisect_right(self.char_start_unit, unit) - 1

    def scan_positions(self, anchor: Anchor) -> list[int]:
        if anchor is Anchor.TOKEN_START:
            return sorted(self.token_at_unit)
        return self.char_start_unit[:-1]

    def single_pos(self, unit: int) -> frozenset[str]:
        """POS names under which the token starting here is one bare word."""
        if unit not in self._single_pos:
            tok = self.token_at_unit.get(unit)
            entries = (self.lexicon.lookup(tok.surface)
                       if tok is not None and tok.cls is TokenClass.HANGUL and self.lexicon
                       else ())
            self._single_pos[unit] = frozenset(
                e.pos.value for e in entries if self.lexicon.pos_seq_allowed((e.pos,)))
        return self._single_pos[unit]

    def consume(self, symbol: str, unit: int) -> int | None:
        """Unit index after consuming one transition symbol, or None."""
        if unit >= len(self.units):
            return None
        if not is_sentinel(symbol):
            return unit + 1 if self.units[unit] == symbol else None
        if symbol == TOKEN_BOUNDARY:
            return unit + 1 if self.units[unit].isspace() else None
        if symbol[1:-1] in self.single_pos(unit):
            return self.token_end_unit[unit]
        return None


def run_from(fst: Fst, index: TextIndex, start_unit: int) -> tuple[int, str] | None:
    """Longest accept of ``fst`` starting at a unit; ties resolved by the
    transducer's transition order.  Accepts only at character boundaries.
    Returns (end unit, output) or None."""
    best: dict[tuple[int, int], tuple[int, str] | None] = {}
    # Depth-first over (state, unit) pairs with an explicit stack: a pair
    # is pushed once to expand its steps and settled when popped again,
    # after every pair its steps lead to.  Every step consumes a unit, so
    # no pair leads back to itself.
    stack: list[tuple[int, int, list | None]] = [(fst.initial, start_unit, None)]
    while stack:
        state, unit, steps = stack.pop()
        if steps is None:
            if (state, unit) in best:
                continue
            steps = []
            for _, sym, out, dst in fst.arcs.get(state, ()):
                nxt = index.consume(sym, unit)
                if nxt is not None:
                    steps.append((out, (dst, nxt)))
            stack.append((state, unit, steps))
            stack.extend((dst, nxt, None) for _, (dst, nxt) in steps)
            continue
        # a final at a character boundary comes first; a longer end wins,
        # and on an equal end the earlier transition stays
        fo = fst.final_outputs.get(state)
        result = (unit, fo[0]) if fo is not None and unit in index.char_aligned else None
        for out, pair in steps:
            sub = best[pair]
            if sub is not None and (result is None or sub[0] > result[0]):
                result = (sub[0], out + sub[1])
        best[(state, unit)] = result

    got = best[(fst.initial, start_unit)]
    if got is not None and got[0] == start_unit:
        return None  # no empty matches
    return got


def order_grammars(fsts: list[Fst], priority: tuple[str, ...]) -> list[Fst]:
    """The transducers in ``priority`` order; raises ValueError unless the
    priority names every one of them exactly once."""
    by_name = {f.name: f for f in fsts}
    if set(priority) != set(by_name) or len(priority) != len(by_name):
        raise ValueError("grammar_priority must cover exactly the loaded grammars")
    return [by_name[name] for name in priority]


def find_matches(text: str, fsts: list[Fst], lexicon: Lexicon,
                 config: ApplyConfig | None = None) -> list[Match]:
    """Non-overlapping leftmost-longest matches of all transducers.  The
    order of ``fsts`` is the grammar priority unless the config names one."""
    if config is None:
        config = ApplyConfig()
    ordered = (order_grammars(fsts, config.grammar_priority)
               if config.grammar_priority else fsts)

    index = TextIndex(text, lexicon)
    positions = index.scan_positions(config.anchor)
    matches: list[Match] = []
    i = 0
    while i < len(positions):
        pos = positions[i]
        chosen: tuple[int, str, Fst] | None = None
        for fst in ordered:
            got = run_from(fst, index, pos)
            if got is not None and (chosen is None or got[0] > chosen[0]):
                chosen = (got[0], got[1], fst)
        if chosen is None:
            i += 1
            continue
        end_unit, output, fst = chosen
        start_char = index.char_of_unit(pos)
        end_char = index.char_of_unit(end_unit)
        matches.append(Match(
            start=index.byte_of_char[start_char],
            end=index.byte_of_char[end_char],
            surface=text[start_char:end_char],
            output=output,
            grammar=fst.name,
            tag=fst.tag,
        ))
        while i < len(positions) and positions[i] < end_unit:
            i += 1
    return matches


def transform(text: str, matches: list[Match], mode: Mode) -> str:
    """Rewrite matched spans; bytes outside the spans are preserved."""
    data = text.encode("utf-8")
    parts: list[bytes] = []
    prev = 0
    for m in matches:
        parts.append(data[prev:m.start])
        if mode is Mode.REPLACE:
            parts.append(m.output.encode("utf-8"))
        else:
            parts.append(f"{{{m.surface},{m.output}.{m.tag}}}".encode("utf-8"))
        prev = m.end
    parts.append(data[prev:])
    return b"".join(parts).decode("utf-8")


_MERGE_RE = re.compile(r"\{(.*?),([^,{}]*)\." + TAG_PATTERN + r"\}")


def strip_merge(text: str) -> str:
    """Undo MERGE decorations, recovering the original surfaces."""
    return _MERGE_RE.sub(r"\1", text)


def normalize(text: str, fsts: list[Fst], lexicon: Lexicon,
              config: ApplyConfig | None = None) -> str:
    """find_matches + REPLACE in one call."""
    if config is None:
        config = ApplyConfig()
    matches = find_matches(text, fsts, lexicon, config)
    return transform(text, matches, Mode.REPLACE)
