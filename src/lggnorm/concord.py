"""Keyword-in-context concordance lines for match results."""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from .apply import Match
from .tokenizer import byte_offsets


class ConcordSort(enum.Enum):
    TEXT_ORDER = "text"
    KEYWORD = "keyword"
    RIGHT_CONTEXT = "right"


@dataclass(frozen=True)
class ConcordLine:
    left: str
    keyword: str
    right: str
    offset: int  # byte offset of the keyword in the source

    def render(self, left_width: int) -> str:
        # one physical line per hit, newlines made visible
        def flat(s: str) -> str:
            return s.replace("\n", "⏎")
        return f"{flat(self.left):>{left_width}}[{flat(self.keyword)}]{flat(self.right)}"


def build_concordance(text: str, matches: list[Match], left_width: int = 24,
                      right_width: int = 24,
                      sort: ConcordSort = ConcordSort.TEXT_ORDER) -> list[ConcordLine]:
    """One context line per match; widths count characters, not bytes."""
    byte_of_char = byte_offsets(text)
    lines = []
    for m in matches:
        start = bisect_left(byte_of_char, m.start)
        end = bisect_left(byte_of_char, m.end)
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
