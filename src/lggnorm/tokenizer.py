"""Lossless tokenization into classified, byte-addressed spans.

Each non-space character belongs to exactly one class; a token is a
maximal run of same-class characters, so reassembling token surfaces and
the whitespace between them reproduces the input byte for byte.
"""

from __future__ import annotations

import enum
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

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


def char_class(ch: str) -> TokenClass | None:
    """Class of one scalar; None for whitespace (token gap)."""
    o = ord(ch)
    if SYLLABLE_BASE <= o <= SYLLABLE_LAST:
        return TokenClass.HANGUL
    if COMPAT_FIRST <= o <= COMPAT_LAST:
        return TokenClass.JAMO
    if ch.isascii():
        if ch.isalpha():
            return TokenClass.LATIN
        if ch.isdigit():
            return TokenClass.DIGIT
    if ch.isspace():
        return None
    if ch in PUNCT_CHARS:
        return TokenClass.PUNCT
    return TokenClass.SYMBOL


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
    offsets = byte_offsets(text)
    tokens: list[Token] = []
    start = 0
    for cls, run in groupby(map(char_class, text)):
        end = start + len(list(run))
        if cls is not None:
            tokens.append(Token(text[start:end], cls, offsets[start], offsets[end]))
        start = end
    return TokenStream(tuple(tokens), offsets[-1])


def fold_surface(token: Token) -> str:
    """Census key for a token: LATIN lowercased, everything else verbatim."""
    if token.cls is TokenClass.LATIN:
        return token.surface.lower()
    return token.surface


def type_census(stream: TokenStream) -> dict[str, int]:
    """Occurrence count per distinct (case-folded) surface."""
    return dict(Counter(fold_surface(t) for t in stream))
