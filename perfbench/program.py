"""The program under test, driven through its public API.

Importing this module imports lggnorm, so the import is part of the
measured set-up.  Every call goes through a module attribute
(``apply.find_matches``, not a local alias) so that the tracer, which
swaps those attributes, sees it.
"""

from __future__ import annotations

import lggnorm.apply as apply
import lggnorm.classify as classify
import lggnorm.concord as concord
import lggnorm.resources as resources
import lggnorm.stats as stats
import lggnorm.tokenizer as tokenizer

# Joins the two files of a stats-vocab item (one ``lggnorm stats A B`` op).
PAIR_SEPARATOR = "\f"

# Workloads whose ops classify tokens load the classifier resources too.
CLASSIFYING = ("classify-types", "long-tokens")

# Fixed one-line warm-up input per op.  The classify line ends in a
# deviant spelling that no grammar covers, so the lazily built fuzzy
# candidate set is built during set-up, not during the first timed op.
WARM_UP = {
    "replace": "영화 잼있어요 ㅋㅋ",
    "merge": "영화 잼있어요 ㅋㅋ",
    "concord": "영화 잼있어요 ㅋㅋ",
    "classify": "색깔이예뻐요 조아요",
    "compare": "정부가 새 정책을 발표했다" + PAIR_SEPARATOR + "효과가 넘 좋아요",
}

WORKLOAD_OPS = {
    "normalize-docs": ("replace", "merge", "concord"),
    "classify-types": ("classify",),
    "stats-vocab": ("compare",),
    "long-tokens": ("classify", "replace"),
}


class Program:
    """Loaded resources plus one method per benchmark op.

    ``run`` returns (output text, match count, types); the output text is
    what the matching CLI subcommand would print for the input, and types
    is the number of distinct types the program itself reports: types
    classified for ``classify``, types counted by ``corpus_stats`` in both
    files for ``compare``, and None for the normalize ops, which count
    no types.
    """

    def __init__(self, workload: str):
        self.lexicon = resources.load_lexicon()
        self.library = resources.load_grammar_library()
        self.res = (resources.load_classifier_resources(self.lexicon, self.library)
                    if workload in CLASSIFYING else None)
        self.configs = {
            mode: apply.ApplyConfig(mode=mode, grammar_priority=self.library.priority)
            for mode in apply.Mode
        }
        for op in WORKLOAD_OPS[workload]:
            self.run(op, WARM_UP[op])

    def run(self, op: str, text: str) -> tuple[str, int, int | None]:
        if op == "classify":
            return self._classify(text)
        if op == "compare":
            return self._compare(*text.split(PAIR_SEPARATOR))
        mode = apply.Mode.MERGE if op == "merge" else apply.Mode.REPLACE
        config = self.configs[mode]
        matches = apply.find_matches(text, self.library.fsts, self.lexicon, config)
        if op == "concord":
            lines = concord.build_concordance(text, matches)
            return "\n".join(line.render(24) for line in lines), len(matches), None
        return apply.transform(text, matches, mode), len(matches), None

    def _classify(self, text: str) -> tuple[str, int, int]:
        result = classify.classify_corpus(tokenizer.tokenize(text), self.res)
        return "\n".join(
            f"{r.token.surface}\t{r.primary.value}\t{r.suggestion or ''}\t"
            f"{r.candidates[0].evidence if r.candidates else ''}"
            for r in result.results), 0, len(result.results)

    def _compare(self, a: str, b: str) -> tuple[str, int, int]:
        """Two corpus files side by side with B-minus-A deltas, as
        ``lggnorm stats A B`` prints them."""
        sa = stats.corpus_stats(tokenizer.tokenize(a), self.lexicon)
        sb = stats.corpus_stats(tokenizer.tokenize(b), self.lexicon)
        report = stats.compare(sa, sb)
        deltas = [report.token_delta, report.type_delta,
                  report.non_analyzable_delta, f"{report.ratio_delta:+.1f}"]
        out = "\n".join(f"{name}\t{va}\t{vb}\t{d}"
                        for (name, va), (_, vb), d in zip(sa.rows(), sb.rows(), deltas))
        return out, 0, sa.type_count + sb.type_count
