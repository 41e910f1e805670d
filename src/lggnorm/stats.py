"""Corpus-level counts: tokens, types, and the non-analyzable type ratio."""

from __future__ import annotations

from typing import NamedTuple

from .lexicon import Lexicon, count_analyzable
from .tokenizer import TokenStream


FIGURES = ("corpus_size", "types", "non_analyzable_types", "non_analyzable_pct")


class CorpusStats(NamedTuple):
    token_count: int
    type_count: int
    non_analyzable_types: int

    @property
    def non_analyzable_ratio(self) -> float:  # percent, 0.0 for no types
        return 100.0 * self.non_analyzable_types / self.type_count if self.type_count else 0.0

    @property
    def empty(self) -> bool:
        return self.type_count == 0

    @property
    def ratio_str(self) -> str:
        return f"{self.non_analyzable_ratio:.1f}"

    def figures(self) -> tuple[int, int, int, float]:
        """The values of ``FIGURES``: the three counts and the ratio."""
        return (*self, self.non_analyzable_ratio)

    def rows(self) -> list[tuple[str, str]]:
        return list(zip(FIGURES, (*map(str, self), self.ratio_str)))


def corpus_stats(stream: TokenStream, lexicon: Lexicon) -> CorpusStats:
    """Token/type counts plus how many types the dictionary rejects."""
    census = stream.census
    types = sum(map(len, census.values()))
    analyzable = sum(count_analyzable(cls, runs, lexicon) for cls, runs in census.items())
    return CorpusStats(sum(sum(runs.values()) for runs in census.values()),
                       types, types - analyzable)


class ComparisonReport(NamedTuple):
    a: CorpusStats
    b: CorpusStats

    @property
    def token_delta(self) -> int:
        return self.b.token_count - self.a.token_count

    @property
    def type_delta(self) -> int:
        return self.b.type_count - self.a.type_count

    @property
    def non_analyzable_delta(self) -> int:
        return self.b.non_analyzable_types - self.a.non_analyzable_types

    @property
    def ratio_delta(self) -> float:
        return self.b.non_analyzable_ratio - self.a.non_analyzable_ratio


def compare(a: CorpusStats, b: CorpusStats) -> ComparisonReport:
    """Side-by-side stats with B minus A deltas."""
    return ComparisonReport(a, b)
