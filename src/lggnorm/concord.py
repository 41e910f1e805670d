"""Keyword-in-context concordance lines for match results."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .apply import Match


class ConcordSort(enum.Enum):
    TEXT_ORDER = "text"
    KEYWORD = "keyword"
    RIGHT_CONTEXT = "right"


def flat(s: str) -> str:
    """``s`` on one physical line, its newlines made visible."""
    return s.replace("\n", "⏎")


class ConcordLine(NamedTuple):
    left: str
    keyword: str
    right: str
    offset: int  # byte offset of the keyword in the source

    def render(self, left_width: int) -> str:
        return f"{flat(self.left):>{left_width}}[{flat(self.keyword)}]{flat(self.right)}"


def build_concordance(text: str, matches: list[Match], left_width: int = 24,
                      right_width: int = 24,
                      sort: ConcordSort = ConcordSort.TEXT_ORDER) -> list[ConcordLine]:
    """One context line per match; widths count characters, not bytes.
    Each match's byte offset becomes a character offset by decoding the
    bytes since the previous match, in start order."""
    data = text.encode("utf-8")
    lines = []
    prev = start = 0
    for m in sorted(matches, key=lambda m: m.start):
        start += len(data[prev:m.start].decode("utf-8"))
        prev = m.start
        end = start + len(m.surface)
        left = text[max(0, start - left_width):start]
        right = text[end:end + right_width]
        lines.append(ConcordLine(left, text[start:end], right, m.start))

    if sort is ConcordSort.KEYWORD:
        lines.sort(key=lambda l: (l.keyword, l.offset))
    elif sort is ConcordSort.RIGHT_CONTEXT:
        lines.sort(key=lambda l: (l.right, l.offset))
    else:
        lines.sort(key=lambda l: l.offset)
    return lines
