"""Lossless tokenization into classified, byte-addressed spans.

Each non-space character belongs to exactly one class; a token is a
maximal run of same-class characters, so reassembling token surfaces and
the whitespace between them reproduces the input byte for byte.

One regex with a group per class finds a TokenStream's tokens on each
read, byte offsets summed per run, and the runs ``token_spans`` reads in
characters; the census reads one run regex per class instead.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

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


class Token(NamedTuple):
    surface: str
    cls: TokenClass
    start: int  # byte offset into the UTF-8 encoding
    end: int

    def __repr__(self):
        return f"Token({self.surface!r}/{self.cls.value} @{self.start}:{self.end})"


# character set of each class (None: whitespace, a token gap); SYMBOL's
# takes every character the others do not
_CLASS_SETS = (
    (TokenClass.HANGUL, f"{chr(SYLLABLE_BASE)}-{chr(SYLLABLE_LAST)}"),
    (TokenClass.JAMO, f"{chr(COMPAT_FIRST)}-{chr(COMPAT_LAST)}"),
    (TokenClass.LATIN, "a-zA-Z"),
    (TokenClass.DIGIT, "0-9"),
    (None, r"\s"),
    (TokenClass.PUNCT, re.escape("".join(sorted(PUNCT_CHARS)))),
)
_CLASS_SETS += ((TokenClass.SYMBOL, "^" + "".join(chars for _, chars in _CLASS_SETS)),)
# one group per class; the sets are disjoint, so the matches tile the text
_RUNS = re.compile("|".join(f"([{chars}]+)" for _, chars in _CLASS_SETS))
_GROUP_CLASS = (None, *(cls for cls, _ in _CLASS_SETS))
_CLASS_RUNS = tuple((cls, re.compile(f"[{chars}]+")) for cls, chars in _CLASS_SETS if cls)


class TokenStream:
    """The tokens of one NFC text, yielded by one scan on each read and
    kept nowhere; ``census`` reads one run regex per class instead and
    builds no Token."""

    def __init__(self, text: str):
        self.text = text

    def __iter__(self) -> Iterator[Token]:
        start = 0
        for m in _RUNS.finditer(self.text):
            run = m.group()
            end = start + len(run.encode("utf-8"))
            if cls := _GROUP_CLASS[m.lastindex]:
                yield Token(run, cls, start, end)
            start = end

    @cached_property
    def census(self) -> dict[TokenClass, Counter[str]]:
        """Tokens per surface of each class, LATIN surfaces lowercased."""
        found = ((cls, runs.findall(self.text)) for cls, runs in _CLASS_RUNS)
        return {cls: Counter(map(str.lower, surfaces) if cls is TokenClass.LATIN else surfaces)
                for cls, surfaces in found}


def token_spans(text: str) -> list[tuple[int, int, TokenClass]]:
    """(start char, end char, class) of each token of NFC text, in order."""
    if not unicodedata.is_normalized("NFC", text):
        raise InvalidEncoding("input must be NFC-normalized")
    found = ((m.start(), m.end(), _GROUP_CLASS[m.lastindex]) for m in _RUNS.finditer(text))
    return [span for span in found if span[2] is not None]


def utf8_offsets(text: str, chars: Iterable[int]) -> Iterator[int]:
    """UTF-8 byte offset of each of the ascending character offsets
    ``chars`` into ``text``: one running sum over the gaps between them."""
    prev = byte = 0
    for char in chars:
        byte += len(text[prev:char].encode("utf-8"))
        prev = char
        yield byte


def tokenize(text: str) -> TokenStream:
    """Split NFC text into maximal same-class runs with byte offsets."""
    if not unicodedata.is_normalized("NFC", text):
        raise InvalidEncoding("input must be NFC-normalized")
    return TokenStream(text)
