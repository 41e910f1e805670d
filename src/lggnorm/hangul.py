"""Hangul text as jamo units and letters, and jamo-level edit distance.

Text has two encodings.  All matching works on one string of jamo units,
``jamo_units(text)``: each precomposed syllable (U+AC00..U+D7A3) becomes
its conjoining initial, medial and optional final, and every other
character stays as it is.  Lookup and edit distance work on its letters,
``fold_letters(text)``, one string of the same length: each positional
jamo becomes its compatibility letter (U+3131..U+318E), so an initial and
a final with the same letter are one unit and 넘 vs 너무 differ by one
deletion.  A conjoining jamo that stands outside any syllable keeps its
own identity.  The letters are the distance alphabet: ``distance_key`` is
the letters as a tuple, a standalone letter as a 1-tuple, so the ㅋ of
"ㅋㅋ" never equals the ㅋ of 크 and emoticon-style tokens survive
verbatim.

Units, letters and unit offsets each take one ``str.translate`` of the
text, through a table that gains a character's entry the first time a
text holds it.
"""

from __future__ import annotations

import enum
import itertools
import re
from typing import Iterable, NamedTuple, Union

SYLLABLE_BASE = 0xAC00
SYLLABLE_LAST = 0xD7A3
COMPAT_FIRST = 0x3131
COMPAT_LAST = 0x318E

INITIAL_BASE = 0x1100  # conjoining choseong block
MEDIAL_BASE = 0x1161   # conjoining jungseong block
FINAL_BASE = 0x11A7    # conjoining jongseong block, index 1 -> U+11A8

INITIAL_COUNT = 19
MEDIAL_COUNT = 21
FINAL_COUNT = 28  # index 0 = no final, 1..27 = consonants

# Compatibility-block letter for each positional index.
INITIAL_LETTERS = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
MEDIAL_LETTERS = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"
FINAL_LETTERS = "ㄱㄲㄳㄴㄵㄶㄷㄹㄺㄻㄼㄽㄾㄿㅀㅁㅂㅄㅅㅆㅇㅈㅊㅋㅌㅍㅎ"


class IndexOutOfRange(ValueError):
    """Jamo index outside its positional range."""


class JamoKind(enum.Enum):
    INITIAL = "initial"
    MEDIAL = "medial"
    FINAL = "final"
    COMPAT = "compat"


# each kind's (first index, last index, code point of index 0)
_JAMO_RANGE = {JamoKind.INITIAL: (0, INITIAL_COUNT - 1, INITIAL_BASE),
               JamoKind.MEDIAL: (0, MEDIAL_COUNT - 1, MEDIAL_BASE),
               JamoKind.FINAL: (1, FINAL_COUNT - 1, FINAL_BASE),
               JamoKind.COMPAT: (0, COMPAT_LAST - COMPAT_FIRST, COMPAT_FIRST)}


class Jamo(NamedTuple("Jamo", [("kind", JamoKind), ("index", int), ("codepoint", int)])):
    """One jamo unit: positional (initial/medial/final) or standalone compat letter."""

    __slots__ = ()

    def __new__(cls, kind: JamoKind, index: int, codepoint: int):
        first, last, base = _JAMO_RANGE[kind]
        if not first <= index <= last:
            raise IndexOutOfRange(f"{kind.value} index {index} not in {first}..{last}")
        if codepoint != base + index:
            raise IndexOutOfRange(f"codepoint {codepoint:#x} is not {kind.value} jamo {index}")
        return super().__new__(cls, kind, index, codepoint)

    @classmethod
    def _make(cls, fields):  # so _replace checks the new jamo too
        return cls(*fields)

    @property
    def char(self) -> str:
        return chr(self.codepoint)

    def __repr__(self):
        return f"Jamo({self.kind.value} {self.char!r})"


def initial(index: int) -> Jamo:
    return Jamo(JamoKind.INITIAL, index, INITIAL_BASE + index)


def medial(index: int) -> Jamo:
    return Jamo(JamoKind.MEDIAL, index, MEDIAL_BASE + index)


def final(index: int) -> Jamo:
    return Jamo(JamoKind.FINAL, index, FINAL_BASE + index)


def compat(ch: str) -> Jamo:
    cp = ord(ch)
    return Jamo(JamoKind.COMPAT, cp - COMPAT_FIRST, cp)


def is_compat_jamo(ch: str) -> bool:
    return len(ch) == 1 and COMPAT_FIRST <= ord(ch) <= COMPAT_LAST


class _SyllableTable(dict):
    """A ``str.translate`` table filled on first use: a syllable maps to
    ``spell(initial, medial, final)`` of its indices (final 0 = none), any
    other character to ``other(code point)``, by default itself.  Only the
    characters met get an entry, not all 11,172 syllables; a character
    past the Basic Multilingual Plane gets none, so the table never
    outgrows 65,536 entries."""

    def __init__(self, spell, other=chr):
        super().__init__()
        self._spell = spell
        self._other = other

    def __missing__(self, cp: int) -> str:
        if SYLLABLE_BASE <= cp <= SYLLABLE_LAST:
            ini, rest = divmod(cp - SYLLABLE_BASE, MEDIAL_COUNT * FINAL_COUNT)
            out = self._spell(ini, *divmod(rest, FINAL_COUNT))
        else:
            out = self._other(cp)
        if cp <= 0xFFFF:
            self[cp] = out
        return out


# a syllable's conjoining initial, medial and optional final, and their letters
_UNITS = _SyllableTable(lambda i, m, f: chr(INITIAL_BASE + i) + chr(MEDIAL_BASE + m)
                        + (chr(FINAL_BASE + f) if f else ""))
_LETTERS = _SyllableTable(lambda i, m, f: INITIAL_LETTERS[i] + MEDIAL_LETTERS[m]
                          + (FINAL_LETTERS[f - 1] if f else ""))
# each character's unit count (3 for a syllable with a final, 2 without,
# 1 for any other character) as the character of that code point, so the
# translated text encodes to one count byte per character
_UNIT_COUNTS = _SyllableTable(lambda i, m, f: "\3" if f else "\2", lambda cp: "\1")


def jamo_units(text: str) -> str:
    """``text`` as a string of jamo units, one character per unit: each
    precomposed syllable becomes its conjoining initial, medial and
    optional final, every other character stays as it is."""
    return text.translate(_UNITS)


def unit_offsets(text: str) -> list[int]:
    """Index in ``jamo_units(text)`` where each character's units begin,
    plus the unit count at the end: a running sum of the characters'
    unit counts."""
    return list(itertools.accumulate(text.translate(_UNIT_COUNTS).encode("ascii"), initial=0))


def _positional(unit: str) -> Jamo:
    """The Jamo of a conjoining unit taken from a syllable."""
    cp = ord(unit)
    if cp < MEDIAL_BASE:
        return initial(cp - INITIAL_BASE)
    if cp < MEDIAL_BASE + MEDIAL_COUNT:
        return medial(cp - MEDIAL_BASE)
    return final(cp - FINAL_BASE)


def compose_syllable(ini: int, med: int, fin: int = 0) -> str:
    """The syllable of an initial, medial and final index (final 0 = none)."""
    if not (0 <= ini < INITIAL_COUNT and 0 <= med < MEDIAL_COUNT and 0 <= fin < FINAL_COUNT):
        raise IndexOutOfRange(f"no syllable has indices ({ini}, {med}, {fin})")
    return chr(SYLLABLE_BASE + (ini * MEDIAL_COUNT + med) * FINAL_COUNT + fin)


Unit = Union[Jamo, str]  # str = passthrough character


class JamoSeq:
    """A string decomposed to jamo units, non-Hangul characters passed through.

    ``syllable_boundaries`` records the unit index where each source
    syllable began; compat jamo and passthrough characters are single
    units and carry no boundary entry.
    """

    def __init__(self, units: tuple[Unit, ...], syllable_boundaries: tuple[int, ...] = ()):
        self.units, self.syllable_boundaries = units, syllable_boundaries

    def __len__(self):
        return len(self.units)


def to_jamo_seq(s: str) -> JamoSeq:
    """jamo_units(s) as validated Jamo values, non-Hangul characters
    passed through."""
    text_units = jamo_units(s)
    starts = unit_offsets(s)
    units: list[Unit] = []
    boundaries: list[int] = []
    for ch, start, end in zip(s, starts, starts[1:]):
        if end - start > 1:
            boundaries.append(start)
            units.extend(map(_positional, text_units[start:end]))
        elif is_compat_jamo(ch):
            units.append(compat(ch))
        else:
            units.append(ch)
    return JamoSeq(tuple(units), tuple(boundaries))


_COMPAT_LETTERS = frozenset(map(chr, range(COMPAT_FIRST, COMPAT_LAST + 1)))


def fold_letters(s: str) -> str:
    """Letter-level key for dictionary lookup: jamo_units(s) with each
    positional jamo turned into its letter, one character per unit, so
    positional and compat jamo with the same letter fold together; other
    characters, stray conjoining jamo among them, stay themselves."""
    return s.translate(_LETTERS)


def distance_key(s: str) -> tuple:
    """Unit-comparison key of the classifier's tries and banded rows: the
    letters of ``s``, with a compatibility letter outside any syllable as
    a 1-tuple."""
    if _COMPAT_LETTERS.isdisjoint(s):
        return tuple(s.translate(_LETTERS))
    return tuple(unit for ch in s
                 for unit in (((ch,),) if ch in _COMPAT_LETTERS else _LETTERS[ord(ch)]))


def key_distance(ka: tuple, kb: tuple, cap: int | None = None) -> int:
    """Levenshtein distance over precomputed keys; with ``cap`` it is exact
    when at most ``cap`` and some value above ``cap`` otherwise: the rows
    stop after the first whose minimum exceeds ``cap``."""
    if cap is None:
        cap = max(len(ka), len(kb))  # no distance exceeds it
    if abs(len(ka) - len(kb)) > cap:
        return cap + 1
    row = list(range(len(kb) + 1))
    for ua in ka:
        if min(row) > cap:
            break  # no later row comes back within cap
        cur = [row[0] + 1]
        for j, ub in enumerate(kb, 1):
            cur.append(min(row[j] + 1, cur[j - 1] + 1, row[j - 1] + (ua != ub)))
        row = cur
    return row[-1]


# an initial and a medial letter, then a final letter unless a vowel letter follows it
_SYLLABLE_LETTERS = re.compile(f"([{INITIAL_LETTERS}])([{MEDIAL_LETTERS}])"
                               f"(?:([{FINAL_LETTERS}])(?![{MEDIAL_LETTERS}]))?")


def compose_letters(letters: Iterable[str]) -> str:
    """Greedy recomposition of a letter-level sequence into syllables by
    ``_SYLLABLE_LETTERS``; letters that cannot join a syllable stay as they are."""
    return _SYLLABLE_LETTERS.sub(
        lambda m: compose_syllable(INITIAL_LETTERS.index(m[1]), MEDIAL_LETTERS.index(m[2]),
                                   FINAL_LETTERS.index(m[3]) + 1 if m[3] else 0),
        "".join(letters))
