"""Lossless tokenization into classified, byte-addressed spans.

Each non-space character belongs to exactly one class; a token is a
maximal run of same-class characters, so reassembling token surfaces and
the whitespace between them reproduces the input byte for byte.

One compiled regex holds one group per class; ``tokenize`` finds the
runs with it and sums byte offsets per run, not per character, and
``char_class`` reads one character's class from the same regex.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

from .hangul import COMPAT_FIRST, COMPAT_LAST, SYLLABLE_BASE, SYLLABLE_LAST


class InvalidEncoding(ValueError):
    """Input text is not NFC-normalized."""


class TokenClass(enum.Enum):
    HANGUL = "HANGUL"
    JAMO = "JAMO"
    LATIN = "LATIN"
    DIGIT = "DIGIT"
    PUNCT = "PUNCT"
    SYMBOL = "SYMBOL"


# Sentence punctuation is kept apart from SYMBOL runs so that emoticons
# like *_* or @@ form single SYMBOL tokens while a trailing "." does not
# count against the non-analyzable ratio.
PUNCT_CHARS = frozenset(".,!?;:…·'\"()[]{}“”‘’「」『』~-")


@dataclass(frozen=True)
class Token:
    surface: str
    cls: TokenClass
    start: int  # byte offset into the UTF-8 encoding
    end: int

    def __repr__(self):
        return f"Token({self.surface!r}/{self.cls.value} @{self.start}:{self.end})"


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[Token, ...]
    source_len: int  # byte count

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self):
        return len(self.tokens)


# character set of each class but SYMBOL (None: whitespace, a token gap)
_CLASS_SETS = (
    (TokenClass.HANGUL, f"{chr(SYLLABLE_BASE)}-{chr(SYLLABLE_LAST)}"),
    (TokenClass.JAMO, f"{chr(COMPAT_FIRST)}-{chr(COMPAT_LAST)}"),
    (TokenClass.LATIN, "a-zA-Z"),
    (TokenClass.DIGIT, "0-9"),
    (None, r"\s"),
    (TokenClass.PUNCT, re.escape("".join(sorted(PUNCT_CHARS)))),
)
# one group per class; SYMBOL's takes every character the others do not.
# The sets are disjoint, so each match is a maximal same-class run and
# the matches tile the text.
_RUNS = re.compile("|".join(f"([{chars}]+)" for _, chars in _CLASS_SETS)
                   + "|([^" + "".join(chars for _, chars in _CLASS_SETS) + "]+)")
_GROUP_CLASS = (None, *(cls for cls, _ in _CLASS_SETS), TokenClass.SYMBOL)


def char_class(ch: str) -> TokenClass | None:
    """Class of one scalar; None for whitespace (token gap)."""
    return _GROUP_CLASS[_RUNS.fullmatch(ch).lastindex]


def byte_offsets(text: str) -> list[int]:
    """UTF-8 byte offset of each character of ``text``, plus the byte
    length at the end."""
    offsets = [0]
    n = 0
    for ch in text:
        n += len(ch.encode("utf-8"))
        offsets.append(n)
    return offsets


def tokenize(text: str) -> TokenStream:
    """Split NFC text into maximal same-class runs with byte offsets."""
    if not unicodedata.is_normalized("NFC", text):
        raise InvalidEncoding("input must be NFC-normalized")
    tokens: list[Token] = []
    start = 0
    for m in _RUNS.finditer(text):
        run = m.group()
        end = start + len(run.encode("utf-8"))
        cls = _GROUP_CLASS[m.lastindex]
        if cls is not None:
            tokens.append(Token(run, cls, start, end))
        start = end
    return TokenStream(tuple(tokens), start)


def fold_surface(token: Token) -> str:
    """Census key for a token: LATIN lowercased, everything else verbatim."""
    if token.cls is TokenClass.LATIN:
        return token.surface.lower()
    return token.surface


def type_census(stream: TokenStream) -> dict[str, int]:
    """Occurrence count per distinct (case-folded) surface."""
    return dict(Counter(fold_surface(t) for t in stream))
