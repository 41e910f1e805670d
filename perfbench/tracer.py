"""Outside-in tracing of lggnorm's public functions.

The tracer replaces each traced function at every module binding where a
caller looks it up (``lggnorm.apply.run_from`` and ``lggnorm.classify.run_from``
are the same function bound twice), or on its class for a method, and puts
the originals back on ``uninstall``.  Each call is a span (name, start,
end, parent span id, op id); spans are kept in memory up to a cap and
written once at the end.  Self time is a span's duration minus the
durations of the traced spans directly under it, accumulated as calls
return, so it is exact even when the span buffer is full.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import sys
from time import perf_counter


def _key_within_cap(c, args, kwargs, result):
    cap = args[2] if len(args) > 2 else kwargs.get("cap")
    c["within_cap"] += cap is None or result <= cap


def _inc(counter: str, amount):
    def count(c, args, kwargs, result):
        c[counter] += amount(args, result)
    return count


def _compiled(c, args, kwargs, result):
    c["states"] += result.n_states
    c["arcs"] += len(result.transitions)


def _primary(c, args, kwargs, result):
    c["primary." + result.primary.value] += 1


# (layer, module, function or Class.method, counter update or None)
TARGETS = (
    ("tokenizer", "lggnorm.tokenizer", "tokenize",
     _inc("chars", lambda a, r: len(a[0]))),
    ("hangul", "lggnorm.hangul", "to_jamo_seq", None),
    ("hangul", "lggnorm.hangul", "fold_letters", None),
    ("hangul", "lggnorm.hangul", "distance_key", None),
    ("hangul", "lggnorm.hangul", "key_distance", _key_within_cap),
    ("lexicon", "lggnorm.lexicon", "load_dictionary_file", None),
    ("lexicon", "lggnorm.lexicon", "Lexicon.analyze_key",
     _inc("hits", lambda a, r: bool(r))),
    ("lexicon", "lggnorm.lexicon", "is_analyzable", None),
    ("grammar", "lggnorm.grammar", "load_grammar_file", None),
    ("fst", "lggnorm.fst", "compile_graph", _compiled),
    ("apply", "lggnorm.apply", "TextIndex.__init__",
     _inc("units", lambda a, r: len(getattr(a[0], "units", ())))),
    ("apply", "lggnorm.apply", "run_from", _inc("hits", lambda a, r: r is not None)),
    ("apply", "lggnorm.apply", "find_matches", _inc("matches", lambda a, r: len(r))),
    ("apply", "lggnorm.apply", "transform", None),
    ("classify", "lggnorm.classify", "classify_corpus", None),
    ("classify", "lggnorm.classify", "classify_token", _primary),
    ("stats", "lggnorm.stats", "corpus_stats", None),
    ("concord", "lggnorm.concord", "build_concordance", None),
    ("resources", "lggnorm.resources", "load_classifier_resources", None),
)


def span_name(layer: str, function: str) -> str:
    """``apply.TextIndex`` for a constructor, ``lexicon.analyze_key`` for
    a method, ``hangul.key_distance`` for a function."""
    cls, _, attr = function.rpartition(".")
    return f"{layer}.{cls if attr == '__init__' else attr}"


class Stats:
    """Per-span-name totals: calls, inclusive and self seconds, counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, collections.Counter] = {}

    def add(self, name: str):
        self.calls[name] = 0
        self.total_s[name] = 0.0
        self.self_s[name] = 0.0
        self.counters[name] = collections.Counter()

    def as_dict(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name], **self.counters[name]}
                for name in self.calls}


class Tracer:
    def __init__(self, span_cap: int = 20_000):
        self.span_cap = span_cap
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped = 0
        self.op = -1  # id of the benchmark op in progress; -1 during set-up
        self.stats = Stats()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset_stats(self) -> Stats:
        """Start fresh totals; returns the ones collected so far."""
        done, self.stats = self.stats, Stats()
        for name in done.calls:
            self.stats.add(name)
        return done

    def _wrap(self, name: str, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                s = tracer.stats
                s.calls[name] += 1
                s.total_s[name] += dur
                s.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((name, start, end, parent, tracer.op))
                else:
                    tracer.dropped += 1
            if count is not None:
                count(tracer.stats.counters[name], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lggnorm" or n.startswith("lggnorm.")]
        for layer, module_name, function, count in TARGETS:
            name = span_name(layer, function)
            self.stats.add(name)
            module = importlib.import_module(module_name)
            cls_name, _, attr = function.rpartition(".")
            if cls_name:
                owner = getattr(module, cls_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(name)
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, count)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, binding, original))
                        setattr(m, binding, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, extra: dict):
        """Spans and totals as one JSON file."""
        payload = dict(extra, spans_dropped=self.dropped,
                       missing=self.missing,
                       spans=[list(s) for s in self.spans])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
