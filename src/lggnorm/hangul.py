"""Hangul syllable <-> jamo decomposition and jamo-level edit distance.

Precomposed syllables (U+AC00..U+D7A3) decompose into positional jamo:
an initial consonant, a medial vowel and an optional final consonant,
addressed by the standard Unicode arithmetic (588/28 stride).  Standalone
letters from the compatibility block (U+3131..U+318E) are kept as their
own kind and never unify with positional jamo, so emoticon-style tokens
such as "ㅋㅋ" survive verbatim.
"""

from __future__ import annotations

import enum
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
        if self.kind is JamoKind.INITIAL:
            return INITIAL_LETTERS[self.index]
        if self.kind is JamoKind.MEDIAL:
            return MEDIAL_LETTERS[self.index]
        if self.kind is JamoKind.FINAL:
            return FINAL_LETTERS[self.index - 1]
        return self.char

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


def initial_of(letter_char: str) -> Jamo:
    """Initial jamo for a compatibility letter, e.g. 'ㄱ' -> initial 0."""
    if letter_char not in _INITIAL_BY_LETTER:
        raise IndexOutOfRange(f"{letter_char!r} is not an initial consonant")
    return initial(_INITIAL_BY_LETTER[letter_char])


def medial_of(letter_char: str) -> Jamo:
    if letter_char not in _MEDIAL_BY_LETTER:
        raise IndexOutOfRange(f"{letter_char!r} is not a medial vowel")
    return medial(_MEDIAL_BY_LETTER[letter_char])


def final_of(letter_char: str) -> Jamo:
    if letter_char not in _FINAL_BY_LETTER:
        raise IndexOutOfRange(f"{letter_char!r} is not a final consonant")
    return final(_FINAL_BY_LETTER[letter_char])


def is_syllable(ch: str) -> bool:
    return len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


def is_compat_jamo(ch: str) -> bool:
    return len(ch) == 1 and COMPAT_FIRST <= ord(ch) <= COMPAT_LAST


def decompose_syllable(ch: str) -> tuple[Jamo, Jamo, Jamo | None]:
    """Split one precomposed syllable into (initial, medial, final-or-None)."""
    if not is_syllable(ch):
        raise NotHangulSyllable(f"{ch!r} is not in U+AC00..U+D7A3")
    offset = ord(ch) - SYLLABLE_BASE
    fin = offset % FINAL_COUNT
    med = (offset // FINAL_COUNT) % MEDIAL_COUNT
    ini = offset // (FINAL_COUNT * MEDIAL_COUNT)
    return initial(ini), medial(med), final(fin) if fin else None


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

    def char_index_of_unit(self) -> tuple[int, ...]:
        """Source character index of each unit."""
        boundaries = set(self.syllable_boundaries)
        out = []
        char = -1
        for i, u in enumerate(self.units):
            if i in boundaries or not isinstance(u, Jamo) or u.kind is JamoKind.COMPAT:
                char += 1
            out.append(char)
        return tuple(out)


def to_jamo_seq(s: str) -> JamoSeq:
    """Decompose every syllable of ``s``; everything else passes through."""
    units: list[Unit] = []
    boundaries: list[int] = []
    for ch in s:
        if is_syllable(ch):
            boundaries.append(len(units))
            ini, med, fin = decompose_syllable(ch)
            units.append(ini)
            units.append(med)
            if fin is not None:
                units.append(fin)
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


def _distance_key(u: Unit):
    # Positional jamo compare by letter so that e.g. the final and the
    # initial ㅁ count as the same unit (넘 vs 너무 differ by one deletion);
    # compat letters stay a separate namespace.
    if isinstance(u, Jamo):
        if u.kind is JamoKind.COMPAT:
            return ("compat", u.char)
        return ("jamo", u.letter)
    return ("char", u)


def distance_key(s: str) -> tuple:
    """Precomputed unit-comparison key for key_distance."""
    return tuple(_distance_key(u) for u in to_jamo_seq(s).units)


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
    out = []
    for u in to_jamo_seq(s).units:
        out.append(u.letter if isinstance(u, Jamo) else u)
    return tuple(out)


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


def compose_key_step(state: int, letter: str, next_is_vowel: bool) -> tuple[int, tuple]:
    """compose_letters one letter at a time, with one letter of look-ahead.

    ``state`` is COMPOSE_START before the first letter; ``next_is_vowel``
    says whether the following letter is a medial vowel (False at the
    end).  Returns the state after ``letter`` and the distance_key unit the
    letter gets in the composed text: ("jamo", letter) when it joins a
    syllable, the unit of a lone character when it is left standalone.
    Stepping through a letter sequence this way yields
    distance_key(compose_letters(letters)) without composing it.
    """
    if state == _AFTER_INITIAL:
        return _AFTER_MEDIAL, ("jamo", letter)
    if state == _AFTER_MEDIAL and letter in _FINAL_BY_LETTER and not next_is_vowel:
        return COMPOSE_START, ("jamo", letter)
    if letter in _INITIAL_BY_LETTER and next_is_vowel:
        return _AFTER_INITIAL, ("jamo", letter)
    return COMPOSE_START, ("compat", letter) if is_compat_jamo(letter) else ("char", letter)


def iter_all_syllables() -> Iterable[str]:
    for cp in range(SYLLABLE_BASE, SYLLABLE_LAST + 1):
        yield chr(cp)
