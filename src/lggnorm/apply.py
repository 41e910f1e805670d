"""Run compiled transducers over text and rewrite the matched spans.

Scanning is leftmost-longest: positions are tried left to right (token
starts by default), and at each one ``longest_match`` runs every
transducer and ranks the runs: the longest consumed span wins, ties fall
to grammar priority order and then to the graph's own alternative order.
Accepted matches never overlap; REPLACE splices outputs into the text,
MERGE decorates spans in place as ``{surface,output.TAG}``.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple

from .fst import Fst, TOKEN_BOUNDARY, is_sentinel
from .grammar import TAG_PATTERN
from .hangul import distance_key, fold_letters, jamo_units, unit_offsets
from .lexicon import Lexicon
from .tokenizer import TokenClass, token_spans, utf8_offsets


class Mode(enum.Enum):
    REPLACE = "replace"
    MERGE = "merge"


class Anchor(enum.Enum):
    TOKEN_START = "token"
    ANYWHERE = "anywhere"


class Match(NamedTuple):
    start: int  # byte offsets
    end: int
    surface: str
    output: str
    grammar: str
    tag: str


class ApplyConfig(NamedTuple):
    mode: Mode = Mode.REPLACE
    anchor: Anchor = Anchor.TOKEN_START
    grammar_priority: tuple[str, ...] = ()


class TextIndex:
    """Jamo units of a text and its unit/char/token cross-references (no
    byte offsets), and its letters ``letters`` (a string as long as
    ``units``) and distance key ``key`` (a tuple), each computed on first
    read (by classify).  ``spans`` are the tokens, (start char, end char,
    class); the tokenizer's regex finds them if None."""

    def __init__(self, text: str, lexicon: Lexicon | None = None, spans=None):
        self.text = text
        self.lexicon = lexicon
        self.units = jamo_units(text)
        # unit offset of each character, then the unit count
        self.char_start_unit = starts = unit_offsets(text)
        self.char_aligned = set(starts)
        # start unit of each token -> (surface, class, end unit)
        self.token_at_unit: dict[int, tuple[str, TokenClass, int]] = {
            starts[start]: (text[start:end], cls, starts[end])
            for start, end, cls in (token_spans(text) if spans is None else spans)}
        self._single_pos: dict[int, frozenset[str]] = {}

    @cached_property
    def letters(self) -> str:
        return fold_letters(self.text)

    @cached_property
    def key(self) -> tuple:
        return distance_key(self.text)

    def char_of_unit(self, unit: int) -> int:
        """Index of the character a unit belongs to; len(text) past the end."""
        return bisect_right(self.char_start_unit, unit) - 1

    def single_pos(self, unit: int) -> frozenset[str]:
        """POS names under which the token starting here is one bare word."""
        if unit not in self._single_pos:
            surface, cls, _ = self.token_at_unit.get(unit, (None, None, None))
            entries = (self.lexicon.lookup(surface)
                       if cls is TokenClass.HANGUL and self.lexicon else ())
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
            return self.token_at_unit[unit][2]
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


def longest_match(fsts: list[Fst], index: TextIndex, unit: int) -> tuple[int, str, Fst] | None:
    """Longest accept of any of ``fsts`` from a unit, as (end unit,
    output, fst); on an equal end the earlier transducer wins.  The only
    place runs of different grammars are ranked against each other."""
    best = None
    for fst in fsts:
        got = run_from(fst, index, unit)
        if got is not None and (best is None or got[0] > best[0]):
            best = (got[0], got[1], fst)
    return best


def find_matches(text: str, fsts: list[Fst], lexicon: Lexicon,
                 config: ApplyConfig = ApplyConfig()) -> list[Match]:
    """Non-overlapping leftmost-longest matches of all transducers.  The
    order of ``fsts`` is the grammar priority unless the config names one."""
    ordered = (order_grammars(fsts, config.grammar_priority)
               if config.grammar_priority else fsts)

    index = TextIndex(text, lexicon)
    spans: list[tuple[int, int, str, Fst]] = []  # characters, output, grammar
    end_unit = 0
    # token_at_unit is built from ascending spans, so its keys ascend
    positions = (index.token_at_unit if config.anchor is Anchor.TOKEN_START
                 else index.char_start_unit[:-1])
    for pos in positions:
        if pos < end_unit:
            continue  # inside the last match
        got = longest_match(ordered, index, pos)
        if got is not None:
            end_unit, output, fst = got
            spans.append((index.char_of_unit(pos), index.char_of_unit(end_unit), output, fst))
    # the spans ascend without overlap, so their starts and ends, taken
    # in turn, ascend too; zip reads each span's start byte, then its end
    offsets = utf8_offsets(text, [c for start, end, _, _ in spans for c in (start, end)])
    return [Match(start_byte, end_byte, text[start:end], output, fst.name, fst.tag)
            for (start, end, output, fst), start_byte, end_byte in zip(spans, offsets, offsets)]


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
              config: ApplyConfig = ApplyConfig()) -> str:
    """find_matches + REPLACE in one call."""
    return transform(text, find_matches(text, fsts, lexicon, config), Mode.REPLACE)
