"""Hangul syllable <-> jamo decomposition and jamo-level edit distance.

All matching works on one string of jamo units, ``jamo_units(text)``:
each precomposed syllable (U+AC00..U+D7A3) becomes its conjoining
initial, medial and optional final, and every other character stays as
it is.  Standalone letters from the compatibility block (U+3131..U+318E)
thus never unify with positional jamo, so emoticon-style tokens such as
"ㅋㅋ" survive verbatim.  Its two keys are translations of that string:
``fold_letters`` (dictionary lookup) turns a positional jamo into its
compatibility letter; ``distance_key`` (edit distance) turns a final
into the initial with the same letter.  A conjoining jamo that stands
outside any syllable keeps its own identity in both.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Union

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

_INITIAL_BY_LETTER = {ch: i for i, ch in enumerate(INITIAL_LETTERS)}
_MEDIAL_BY_LETTER = {ch: i for i, ch in enumerate(MEDIAL_LETTERS)}
_FINAL_BY_LETTER = {ch: i + 1 for i, ch in enumerate(FINAL_LETTERS)}

# Compatibility letter of each conjoining jamo a syllable decomposes into.
_LETTER_OF_UNIT = {
    **{INITIAL_BASE + i: letter for i, letter in enumerate(INITIAL_LETTERS)},
    **{MEDIAL_BASE + i: letter for i, letter in enumerate(MEDIAL_LETTERS)},
    **{FINAL_BASE + i: letter for i, letter in enumerate(FINAL_LETTERS, 1)},
}


class HangulError(ValueError):
    """Base class for jamo/syllable errors."""


class NotHangulSyllable(HangulError):
    """Character is outside the precomposed syllable block."""


class IndexOutOfRange(HangulError):
    """Jamo index outside its positional range."""


class InvalidJamoGrouping(HangulError):
    """Jamo units cannot be regrouped into syllables."""


class JamoKind(enum.Enum):
    INITIAL = "initial"
    MEDIAL = "medial"
    FINAL = "final"
    COMPAT = "compat"


@dataclass(frozen=True)
class Jamo:
    """One jamo unit: positional (initial/medial/final) or standalone compat letter."""

    kind: JamoKind
    index: int
    codepoint: int

    def __post_init__(self):
        if self.kind is JamoKind.INITIAL and not 0 <= self.index < INITIAL_COUNT:
            raise IndexOutOfRange(f"initial index {self.index} not in 0..18")
        if self.kind is JamoKind.MEDIAL and not 0 <= self.index < MEDIAL_COUNT:
            raise IndexOutOfRange(f"medial index {self.index} not in 0..20")
        if self.kind is JamoKind.FINAL and not 1 <= self.index < FINAL_COUNT:
            raise IndexOutOfRange(f"final index {self.index} not in 1..27")
        if self.kind is JamoKind.COMPAT and not COMPAT_FIRST <= self.codepoint <= COMPAT_LAST:
            raise IndexOutOfRange(f"compat codepoint {self.codepoint:#x} not in U+3131..U+318E")

    @property
    def char(self) -> str:
        return chr(self.codepoint)

    @property
    def letter(self) -> str:
        """Compatibility-block letter naming this jamo (position folded away)."""
        return _LETTER_OF_UNIT.get(self.codepoint, self.char)

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


def is_syllable(ch: str) -> bool:
    return len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


def is_compat_jamo(ch: str) -> bool:
    return len(ch) == 1 and COMPAT_FIRST <= ord(ch) <= COMPAT_LAST


_SYLLABLE_RUN = re.compile(f"[{chr(SYLLABLE_BASE)}-{chr(SYLLABLE_LAST)}]+")


def _decompose_run(m: re.Match) -> str:
    # a syllable's canonical decomposition is its conjoining initial,
    # medial and optional final; jamo never reorder under NFD
    return unicodedata.normalize("NFD", m.group())


def jamo_units(text: str) -> str:
    """``text`` as a string of jamo units, one character per unit: each
    precomposed syllable becomes its conjoining initial, medial and
    optional final, every other character stays as it is."""
    return _SYLLABLE_RUN.sub(_decompose_run, text)


def unit_offsets(text: str) -> list[int]:
    """Index in ``jamo_units(text)`` where each character's units begin,
    plus the unit count at the end."""
    offsets = [0]
    n = 0
    for ch in text:
        if SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST:
            n += 3 if (ord(ch) - SYLLABLE_BASE) % FINAL_COUNT else 2
        else:
            n += 1
        offsets.append(n)
    return offsets


def _positional(unit: str) -> Jamo:
    """The Jamo of a conjoining unit taken from a syllable."""
    cp = ord(unit)
    if cp < MEDIAL_BASE:
        return initial(cp - INITIAL_BASE)
    if cp < MEDIAL_BASE + MEDIAL_COUNT:
        return medial(cp - MEDIAL_BASE)
    return final(cp - FINAL_BASE)


def decompose_syllable(ch: str) -> tuple[Jamo, Jamo, Jamo | None]:
    """Split one precomposed syllable into (initial, medial, final-or-None)."""
    if not is_syllable(ch):
        raise NotHangulSyllable(f"{ch!r} is not in U+AC00..U+D7A3")
    ini, med, *fin = map(_positional, jamo_units(ch))
    return ini, med, fin[0] if fin else None


def _index_for(j: Union[Jamo, int], kind: JamoKind, lo: int, hi: int) -> int:
    if isinstance(j, Jamo):
        if j.kind is not kind:
            raise IndexOutOfRange(f"expected {kind.value} jamo, got {j.kind.value}")
        return j.index
    if not lo <= j <= hi:
        raise IndexOutOfRange(f"{kind.value} index {j} not in {lo}..{hi}")
    return j


def compose_syllable(ini: Union[Jamo, int], med: Union[Jamo, int],
                     fin: Union[Jamo, int, None] = None) -> str:
    """Inverse of decompose_syllable; accepts Jamo values or raw indices."""
    i = _index_for(ini, JamoKind.INITIAL, 0, INITIAL_COUNT - 1)
    m = _index_for(med, JamoKind.MEDIAL, 0, MEDIAL_COUNT - 1)
    f = 0 if fin is None else _index_for(fin, JamoKind.FINAL, 1, FINAL_COUNT - 1)
    return chr(SYLLABLE_BASE + (i * MEDIAL_COUNT + m) * FINAL_COUNT + f)


Unit = Union[Jamo, str]  # str = passthrough character


@dataclass(frozen=True)
class JamoSeq:
    """A string decomposed to jamo units, non-Hangul characters passed through.

    ``syllable_boundaries`` records the unit index where each source
    syllable began; compat jamo and passthrough characters are single
    units and carry no boundary entry.
    """

    units: tuple[Unit, ...]
    syllable_boundaries: tuple[int, ...] = field(default=())

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


def from_jamo_seq(seq: JamoSeq) -> str:
    """Recompose a JamoSeq back into text; inverse of to_jamo_seq."""
    boundaries = set(seq.syllable_boundaries)
    units = seq.units
    out: list[str] = []
    i = 0
    while i < len(units):
        if i in boundaries:
            ini = units[i]
            med = units[i + 1] if i + 1 < len(units) else None
            if (not isinstance(ini, Jamo) or ini.kind is not JamoKind.INITIAL
                    or not isinstance(med, Jamo) or med.kind is not JamoKind.MEDIAL):
                raise InvalidJamoGrouping(f"no initial+medial pair at unit {i}")
            fin = None
            j = i + 2
            if (j < len(units) and j not in boundaries and isinstance(units[j], Jamo)
                    and units[j].kind is JamoKind.FINAL):
                fin = units[j]
                j += 1
            out.append(compose_syllable(ini, med, fin))
            i = j
        else:
            u = units[i]
            if isinstance(u, Jamo):
                if u.kind is JamoKind.COMPAT:
                    out.append(u.char)
                else:
                    raise InvalidJamoGrouping(
                        f"positional jamo {u!r} at unit {i} outside any syllable")
            else:
                out.append(u)
            i += 1
    return "".join(out)


# distance_key folds a final onto the initial with the same letter.
_KEY_OF_UNIT = {FINAL_BASE + i: INITIAL_BASE + _INITIAL_BY_LETTER[letter]
                for i, letter in enumerate(FINAL_LETTERS, 1)
                if letter in _INITIAL_BY_LETTER}
# distance_key unit of a letter placed in a syllable, whatever its position.
_KEY_OF_LETTER = {letter: chr(unit).translate(_KEY_OF_UNIT)
                  for unit, letter in _LETTER_OF_UNIT.items()}
_CONJOINING = re.compile("[\u1100-\u11ff]")


def _standalone_key(ch: str):
    """distance_key unit of a character outside any syllable: itself, or a
    1-tuple for a conjoining jamo, which must not equal a syllable's jamo."""
    return (ch,) if _CONJOINING.match(ch) else ch


def _translate_units(s: str, table: dict, stray) -> tuple:
    """jamo_units(s) translated by ``table``, one tuple item per unit; a
    conjoining jamo that stands in ``s`` outside any syllable becomes
    ``stray(ch)`` instead."""
    units = jamo_units(s).translate(table)
    if _CONJOINING.search(s) is None:
        return tuple(units)
    out = list(units)
    for ch, start in zip(s, unit_offsets(s)):
        if _CONJOINING.match(ch):
            out[start] = stray(ch)
    return tuple(out)


def distance_key(s: str) -> tuple:
    """Precomputed unit-comparison key for key_distance: the jamo units
    with each final folded onto the initial of the same letter, so that
    e.g. 넘 vs 너무 differ by one deletion; compat letters stay apart."""
    return _translate_units(s, _KEY_OF_UNIT, _standalone_key)


def key_distance(ka: tuple, kb: tuple, cap: int | None = None) -> int:
    """Levenshtein distance over precomputed keys; with ``cap`` the search
    stops early and returns cap + 1 once the distance provably exceeds it."""
    if len(ka) < len(kb):
        ka, kb = kb, ka
    if cap is not None and len(ka) - len(kb) > cap:
        return cap + 1
    prev = list(range(len(kb) + 1))
    for i, ua in enumerate(ka, 1):
        cur = [i]
        for j, ub in enumerate(kb, 1):
            cost = 0 if ua == ub else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        if cap is not None and min(cur) > cap:
            return cap + 1
        prev = cur
    return prev[-1]


def jamo_edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit costs over the two jamo sequences."""
    return key_distance(distance_key(a), distance_key(b))


def prefix_distances(ka: tuple, kb: tuple, cap: int) -> list[int]:
    """Levenshtein distance from every prefix of ``ka`` to ``kb`` in one DP
    with a row per unit of ``ka``: entry i is the distance of ka[:i].  The
    list stops after the first row whose minimum exceeds ``cap``, because
    no longer prefix comes within ``cap`` after it."""
    row = list(range(len(kb) + 1))
    out = [row[-1]]
    for ua in ka:
        if min(row) > cap:
            break
        cur = [row[0] + 1]
        for j, ub in enumerate(kb, 1):
            cur.append(min(row[j] + 1, cur[j - 1] + 1, row[j - 1] + (ua != ub)))
        row = cur
        out.append(row[-1])
    return out


def fold_letters(s: str) -> tuple[str, ...]:
    """Letter-level key for dictionary lookup: positional and compat jamo
    with the same letter fold together, other characters stay themselves."""
    return _translate_units(s, _LETTER_OF_UNIT, lambda ch: ch)


def compose_letters(letters: Iterable[str]) -> str:
    """Greedy recomposition of a letter-level sequence into syllables.

    A consonant letter becomes a final only when the next letter is not a
    vowel; letters that cannot join a syllable stay as they are.
    """
    seq = list(letters)
    out: list[str] = []
    i = 0
    while i < len(seq):
        ch = seq[i]
        if (ch in _INITIAL_BY_LETTER and i + 1 < len(seq)
                and seq[i + 1] in _MEDIAL_BY_LETTER):
            ini = _INITIAL_BY_LETTER[ch]
            med = _MEDIAL_BY_LETTER[seq[i + 1]]
            j = i + 2
            fin = None
            if (j < len(seq) and seq[j] in _FINAL_BY_LETTER
                    and not (j + 1 < len(seq) and seq[j + 1] in _MEDIAL_BY_LETTER)):
                fin = _FINAL_BY_LETTER[seq[j]]
                j += 1
            out.append(compose_syllable(ini, med, fin))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# compose_letters' greedy state before a letter: outside a syllable, just
# after a syllable's initial, just after its medial.
COMPOSE_START, _AFTER_INITIAL, _AFTER_MEDIAL = 0, 1, 2


def compose_key_step(state: int, letter: str, next_is_vowel: bool) -> tuple[int, str | tuple]:
    """compose_letters one letter at a time, with one letter of look-ahead.

    ``state`` is COMPOSE_START before the first letter; ``next_is_vowel``
    says whether the following letter is a medial vowel (False at the
    end).  Returns the state after ``letter`` and the distance_key unit the
    letter gets in the composed text, whether it joins a syllable or is
    left standalone.
    Stepping through a letter sequence this way yields
    distance_key(compose_letters(letters)) without composing it.
    """
    if state == _AFTER_INITIAL:
        return _AFTER_MEDIAL, _KEY_OF_LETTER[letter]
    if state == _AFTER_MEDIAL and letter in _FINAL_BY_LETTER and not next_is_vowel:
        return COMPOSE_START, _KEY_OF_LETTER[letter]
    if letter in _INITIAL_BY_LETTER and next_is_vowel:
        return _AFTER_INITIAL, _KEY_OF_LETTER[letter]
    return COMPOSE_START, _standalone_key(letter)


def iter_all_syllables() -> Iterable[str]:
    for cp in range(SYLLABLE_BASE, SYLLABLE_LAST + 1):
        yield chr(cp)
