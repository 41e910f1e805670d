"""Independent reference implementations the test suite checks against."""

from __future__ import annotations

import itertools
import random
import re
import unicodedata
from bisect import bisect_left
from functools import lru_cache
from typing import Iterator
from unittest import mock

from lggnorm import fst as fst_module
from lggnorm.apply import Anchor, TextIndex
from lggnorm.classify import (Candidate, Category, PreconditionViolated, Resources,
                              _deviant_by_distance, _dict_prefix, _emoticon_scalars,
                              _grammar_prefix, _grammar_suffix, _grammar_whole, _hada_root,
                              _loanword_by_distance, _spacing_split, _splice, detections)
from lggnorm.concord import ConcordLine, ConcordSort
from lggnorm.fst import TOKEN_BOUNDARY, Fst, mask_symbol
from lggnorm.grammar import (BoxKind, Diagnostic, DiagnosticCode, GraphIR, LabelKind,
                             _library_by_name, _validate_structure, parse_graph, reachable,
                             validate)
from lggnorm.hangul import (COMPAT_FIRST, COMPAT_LAST, FINAL_BASE, FINAL_LETTERS, INITIAL_BASE,
                            INITIAL_LETTERS, MEDIAL_BASE, MEDIAL_LETTERS, SYLLABLE_BASE,
                            SYLLABLE_LAST, Jamo, JamoKind, JamoSeq, compat, compose_letters,
                            compose_syllable, distance_key, final, fold_letters, initial,
                            is_compat_jamo, key_distance, medial)
from lggnorm.lexicon import Lexicon, MorphAnalysis, Pos, _RulePattern, is_analyzable
from lggnorm.stats import CorpusStats
from lggnorm.tokenizer import (_GROUP_CLASS, _RUNS, PUNCT_CHARS, Token, TokenClass, TokenStream,
                               tokenize)


def brute_levenshtein(a: tuple, b: tuple) -> int:
    """Plain recursive Levenshtein, memoized; no DP table."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        cost = 0 if a[i] == b[j] else 1
        return min(go(i + 1, j) + 1, go(i, j + 1) + 1, go(i + 1, j + 1) + cost)

    return go(0, 0)


# ------------------------------------------------ tokenizer, per character

def byte_offsets(text: str) -> list[int]:
    """UTF-8 byte offset of each character of ``text``, plus the byte
    length at the end: one loop over the characters."""
    offsets = [0]
    n = 0
    for ch in text:
        n += len(ch.encode("utf-8"))
        offsets.append(n)
    return offsets


def char_class(ch: str) -> TokenClass | None:
    """Class of one scalar by the tokenizer's run regex; None for
    whitespace (token gap)."""
    return _GROUP_CLASS[_RUNS.fullmatch(ch).lastindex]


def char_class_by_rules(ch: str) -> TokenClass | None:
    """Class of one scalar by code-point range and str predicates; None
    for whitespace (token gap)."""
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


def tokenize_by_groupby(text: str) -> tuple[tuple[Token, ...], int]:
    """(tokens, byte count) of a TokenStream: maximal same-class runs
    found by classifying every character with char_class_by_rules and
    grouping equal neighbours; byte offsets per character."""
    offsets = byte_offsets(text)
    tokens: list[Token] = []
    start = 0
    for cls, run in itertools.groupby(map(char_class_by_rules, text)):
        end = start + len(list(run))
        if cls is not None:
            tokens.append(Token(text[start:end], cls, offsets[start], offsets[end]))
        start = end
    return tuple(tokens), offsets[-1]


def fold_surface(token: Token) -> str:
    """Census key for a token: LATIN lowercased, everything else verbatim."""
    if token.cls is TokenClass.LATIN:
        return token.surface.lower()
    return token.surface


def corpus_stats_by_tokens(stream: TokenStream, lexicon: Lexicon) -> CorpusStats:
    """corpus_stats from the stream's tokens: the first token of each
    folded surface stands for its type."""
    representatives = {}
    for token in stream:
        representatives.setdefault(fold_surface(token), token)
    non_analyzable = sum(
        1 for token in representatives.values() if not is_analyzable(token, lexicon)
    )
    return CorpusStats(len(tuple(stream)), len(representatives),
                       non_analyzable)


# ------------------------------------------- jamo units, one object per unit

def is_syllable(ch: str) -> bool:
    return len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


def syllable_jamo(ch: str) -> tuple[Jamo, Jamo, Jamo | None]:
    """(initial, medial, final-or-None) of a syllable by the Unicode
    arithmetic (588/28 stride), not by normalization."""
    offset = ord(ch) - 0xAC00
    fin = offset % 28
    return initial(offset // 588), medial(offset // 28 % 21), final(fin) if fin else None


def jamo_seq(s: str) -> JamoSeq:
    """Jamo objects per unit, built one character at a time."""
    units = []
    boundaries = []
    for ch in s:
        if is_syllable(ch):
            boundaries.append(len(units))
            units.extend(j for j in syllable_jamo(ch) if j is not None)
        elif is_compat_jamo(ch):
            units.append(compat(ch))
        else:
            units.append(ch)
    return JamoSeq(tuple(units), tuple(boundaries))


def char_index_of_unit(seq: JamoSeq) -> tuple[int, ...]:
    """Source character index of each unit."""
    boundaries = set(seq.syllable_boundaries)
    out = []
    char = -1
    for i, u in enumerate(seq.units):
        if i in boundaries or not isinstance(u, Jamo) or u.kind is JamoKind.COMPAT:
            char += 1
        out.append(char)
    return tuple(out)


def unit_symbols(text: str) -> list[str]:
    return [u.char if isinstance(u, Jamo) else u for u in jamo_seq(text).units]


def literal_symbols(text: str) -> list[str]:
    return [TOKEN_BOUNDARY if u == " " else u for u in unit_symbols(text)]


def letter(u: Jamo) -> str:
    """Compatibility letter of a jamo, by its kind and index."""
    if u.kind is JamoKind.INITIAL:
        return INITIAL_LETTERS[u.index]
    if u.kind is JamoKind.MEDIAL:
        return MEDIAL_LETTERS[u.index]
    if u.kind is JamoKind.FINAL:
        return FINAL_LETTERS[u.index - 1]
    return u.char


# Compatibility letter of each conjoining jamo a syllable decomposes into.
LETTER_OF_UNIT = {
    **{INITIAL_BASE + i: letter for i, letter in enumerate(INITIAL_LETTERS)},
    **{MEDIAL_BASE + i: letter for i, letter in enumerate(MEDIAL_LETTERS)},
    **{FINAL_BASE + i: letter for i, letter in enumerate(FINAL_LETTERS, 1)},
}


def unit_letter(u: Jamo) -> str:
    """Compatibility letter of a jamo, by LETTER_OF_UNIT."""
    return u.char.translate(LETTER_OF_UNIT)


def fold_letters_by_unit(s: str) -> tuple[str, ...]:
    return tuple(letter(u) if isinstance(u, Jamo) else u for u in jamo_seq(s).units)


def distance_key_by_unit(s: str) -> tuple:
    """Positional jamo compare by letter; compat letters and other
    characters each keep a namespace of their own."""
    def key(u):
        if isinstance(u, Jamo):
            if u.kind is JamoKind.COMPAT:
                return ("compat", u.char)
            return ("jamo", letter(u))
        return ("char", u)
    return tuple(key(u) for u in jamo_seq(s).units)


def unit_offsets_by_loop(text: str) -> list[int]:
    """hangul.unit_offsets by one loop over the characters: a syllable
    with a final is 3 units, one without 2, any other character 1."""
    offsets = [0]
    n = 0
    for ch in text:
        if SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST:
            n += 3 if (ord(ch) - SYLLABLE_BASE) % 28 else 2
        else:
            n += 1
        offsets.append(n)
    return offsets


_SYLLABLE_RUN = re.compile(f"[{chr(SYLLABLE_BASE)}-{chr(SYLLABLE_LAST)}]+")


def jamo_units_by_nfd(text: str) -> str:
    """Each run of syllables replaced by its canonical decomposition, the
    conjoining initial, medial and optional final of each syllable."""
    return _SYLLABLE_RUN.sub(lambda m: unicodedata.normalize("NFD", m.group()), text)


def _letters_by_regex(s: str, standalone: re.Pattern) -> tuple:
    units = jamo_units_by_nfd(s).translate(LETTER_OF_UNIT)
    if standalone.search(s) is None:
        return tuple(units)
    out = list(units)
    for ch, start in zip(s, unit_offsets_by_loop(s)):
        if standalone.match(ch):
            out[start] = (ch,) if is_compat_jamo(ch) else ch
    return tuple(out)


def fold_letters_by_regex(s: str) -> tuple[str, ...]:
    """jamo_units_by_nfd(s) with each unit turned into its letter, where
    a stray conjoining jamo of ``s`` stays itself."""
    return _letters_by_regex(s, re.compile("[\u1100-\u11ff]"))


def distance_key_by_regex(s: str) -> tuple:
    """fold_letters_by_regex, where also a compatibility letter of ``s``
    becomes a 1-tuple."""
    return _letters_by_regex(s, re.compile(f"[\u1100-\u11ff{chr(COMPAT_FIRST)}-{chr(COMPAT_LAST)}]"))


def compose_letters_by_loop(letters) -> str:
    """hangul.compose_letters by one loop over the letters with two
    indices: an initial and a medial letter make a syllable, and a final
    letter joins it unless a medial letter follows."""
    initial_by_letter = {ch: i for i, ch in enumerate(INITIAL_LETTERS)}
    medial_by_letter = {ch: i for i, ch in enumerate(MEDIAL_LETTERS)}
    final_by_letter = {ch: i + 1 for i, ch in enumerate(FINAL_LETTERS)}
    seq = list(letters)
    out: list[str] = []
    i = 0
    while i < len(seq):
        ch = seq[i]
        if (ch in initial_by_letter and i + 1 < len(seq)
                and seq[i + 1] in medial_by_letter):
            ini = initial_by_letter[ch]
            med = medial_by_letter[seq[i + 1]]
            j = i + 2
            fin = 0
            if (j < len(seq) and seq[j] in final_by_letter
                    and not (j + 1 < len(seq) and seq[j + 1] in medial_by_letter)):
                fin = final_by_letter[seq[j]]
                j += 1
            out.append(compose_syllable(ini, med, fin))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def text_offsets(text: str):
    """(unit -> char, char -> start unit, char -> byte, token start unit
    -> (surface, class, token end unit)) of NFC text, from a byte loop
    and a byte -> char dict."""
    unit_chars = char_index_of_unit(jamo_seq(text))
    char_start_unit = []
    for i, c in enumerate(unit_chars):
        if c == len(char_start_unit):
            char_start_unit.append(i)
    byte_of_char = byte_offsets(text)
    char_of_byte = {b: i for i, b in enumerate(byte_of_char)}
    token_at_unit = {}
    for tok in tokenize(text):
        start_char = char_of_byte[tok.start]
        end_char = start_char + len(tok.surface)
        end_unit = (char_start_unit[end_char] if end_char < len(char_start_unit)
                    else len(unit_chars))
        token_at_unit[char_start_unit[start_char]] = (tok.surface, tok.cls, end_unit)
    return unit_chars, char_start_unit, byte_of_char, token_at_unit


# ---------------------------------------------------------------- graphs

LITERAL_SYLLABLES = ["가", "나", "다", "한", "너", "무", "요", "ㅋ", "a"]


def random_graph_text(rng: random.Random, name: str = "Rand", tag: str = "RAND",
                      max_boxes: int = 8, max_alts: int = 3,
                      allow_epsilon: bool = True, allow_mask: bool = True,
                      subgraphs: tuple[str, ...] = ()) -> str:
    """Text of a random acyclic graph in the .lgg format.

    Successors always point to higher box ids, so the box graph is a DAG;
    validity (reachability both ways) is up to the caller to check.
    """
    n_plain = rng.randint(1, max_boxes - 2)
    final_id = n_plain + 1
    lines = [f"GRAPH {name} TAG {tag}"]
    init_succ = sorted(rng.sample(range(1, n_plain + 1),
                                  rng.randint(1, n_plain)))
    lines.append(f"0 INITIAL -> {','.join(map(str, init_succ))}")
    for box in range(1, n_plain + 1):
        choices = ["literal"]
        if allow_epsilon:
            choices.append("epsilon")
        if allow_mask:
            choices.append("mask")
        if subgraphs:
            choices.append("subgraph")
        kind = rng.choice(choices)
        if kind == "literal":
            alts = []
            for _ in range(rng.randint(1, max_alts)):
                alts.append("".join(rng.choice(LITERAL_SYLLABLES)
                                    for _ in range(rng.randint(1, 2))))
            spec = '"' + "|".join(alts) + '"'
        elif kind == "epsilon":
            spec = "<E>"
        elif kind == "mask":
            spec = "<N>"
        else:
            spec = ":" + rng.choice(list(subgraphs))
        out = ""
        if rng.random() < 0.5:
            out = f' / "{rng.choice(["너무", "진짜", "x"])}"'
        succ = sorted(set(rng.choice(range(box + 1, final_id + 1))
                          for _ in range(rng.randint(1, 2))))
        lines.append(f"{box} {spec}{out} -> {','.join(map(str, succ))}")
    lines.append(f"{final_id} FINAL")
    return "\n".join(lines) + "\n"


def random_cyclic_graph_text(rng: random.Random, name: str = "Cyc", tag: str = "CYC",
                             max_boxes: int = 7) -> str:
    """Text of a random graph whose successors may point back.

    Each box holds ``<E>``, ``<E> / "x"``, a literal or a mask, the last
    two with or without an output, and points to the next box plus up to
    two boxes anywhere, FINAL included.  INITIAL points to box 1 and maybe
    one more, so every box is reached and reaches FINAL; epsilon cycles,
    emitting or not, and graphs that accept the empty input are common.
    """
    n_plain = rng.randint(1, max_boxes - 2)
    final_id = n_plain + 1
    lines = [f"GRAPH {name} TAG {tag}",
             f"0 INITIAL -> {','.join(map(str, sorted({1, rng.randint(1, final_id)})))}"]
    for box in range(1, n_plain + 1):
        spec = rng.choice(["<E>", '<E> / "x"', "literal", "<N>"])
        if spec == "literal":
            spec = '"' + "|".join(rng.choice(LITERAL_SYLLABLES)
                                  for _ in range(rng.randint(1, 2))) + '"'
        if spec[0] == '"' or spec == "<N>":
            spec += rng.choice(["", ' / "y"'])
        succ = {box + 1}
        succ.update(rng.randint(1, final_id) for _ in range(rng.randint(0, 2)))
        lines.append(f"{box} {spec} -> {','.join(map(str, sorted(succ)))}")
    lines.append(f"{final_id} FINAL")
    return "\n".join(lines) + "\n"


def random_graph(rng: random.Random, **kwargs) -> GraphIR:
    return parse_graph(random_graph_text(rng, **kwargs))


def box_reachability_by_fixed_point(g: GraphIR) -> tuple[set[int], set[int]]:
    """(boxes reached from INITIAL, boxes that reach FINAL), each grown by
    sweeping every box until a sweep adds nothing: no stack and no
    reverse map.  A successor that is not a box of ``g`` is ignored."""
    reach, coreach = {g.initial.id}, {g.final.id}
    grew = True
    while grew:
        grew = False
        for box in g.boxes.values():
            targets = {s for s in box.successors if s in g.boxes}
            if box.id in reach and not targets <= reach:
                reach |= targets
                grew = True
            if box.id not in coreach and targets & coreach:
                coreach.add(box.id)
                grew = True
    return reach, coreach


def relation(fst: Fst, max_input_len: int) -> set[tuple[tuple[str, ...], str]]:
    """Brute-force enumeration of a transducer's transduction relation,
    inputs bounded by symbol count."""
    out: set[tuple[tuple[str, ...], str]] = set()
    stack = [(fst.initial, (), "")]
    while stack:
        state, syms, emitted = stack.pop()
        for fo in fst.final_outputs.get(state, ()):
            out.add((syms, emitted + fo))
        if len(syms) >= max_input_len:
            continue
        for _, sym, o, dst in fst.arcs.get(state, ()):
            stack.append((dst, syms + (sym,), emitted + o))
    return out


_SENTINEL_RE = re.compile(r"<[A-Z]+>")


def text_to_symbols(text: str) -> tuple[str, ...]:
    """Symbols for an enumerated input string, parsing <POS>/<B> sentinels.

    Intended for oracle comparisons; literal text must not itself contain
    angle-bracket sequences.
    """
    syms: list[str] = []
    pos = 0
    for m in _SENTINEL_RE.finditer(text):
        for ch in text[pos:m.start()]:
            syms.extend(literal_symbols(ch))
        syms.append(m.group(0))
        pos = m.end()
    for ch in text[pos:]:
        syms.extend(literal_symbols(ch))
    return tuple(syms)


def enumerate_paths(g: GraphIR, library=(), max_input_len: int = 12) -> set[tuple[str, str]]:
    """Exhaustively enumerate (input, output) pairs of a graph.

    Independent of compilation: walks the graph IR directly, inlining
    subgraph calls via an explicit continuation stack.  Inputs are
    rendered as text with MASK labels as ``<POS>`` sentinels; a MASK
    counts one unit against ``max_input_len``.
    """
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    results: set[tuple[str, str]] = set()

    def stack_key(stack):
        return tuple((sg.name, sb.id) for sg, sb, _ in stack)

    def after_box(graph, box, stack, text, length, out, path):
        for succ in box.successors:
            enter_box(graph, graph.boxes[succ], stack, text, length, out, path)

    def enter_box(graph, box, stack, text, length, out, path):
        key = (graph.name, box.id, stack_key(stack), length, len(out))
        if key in path:
            return  # zero-progress cycle
        path = path | {key}
        if box.kind is BoxKind.FINAL:
            if stack:
                cgraph, cbox, cout = stack[-1]
                after_box(cgraph, cbox, stack[:-1], text, length, out + cout, path)
            else:
                results.add((text, out))
            return
        if box.kind is BoxKind.INITIAL:
            after_box(graph, box, stack, text, length, out, path)
            return
        output = box.output or ""
        for label in box.alternatives:
            if label.kind is LabelKind.LITERAL:
                step = len(literal_symbols(label.payload))
                if length + step > max_input_len:
                    continue
                after_box(graph, box, stack, text + label.payload,
                          length + step, out + output, path)
            elif label.kind is LabelKind.MASK:
                if length + 1 > max_input_len:
                    continue
                after_box(graph, box, stack, text + mask_symbol(label.payload),
                          length + 1, out + output, path)
            elif label.kind is LabelKind.EPSILON:
                after_box(graph, box, stack, text, length, out + output, path)
            else:
                callee = lib[label.payload]
                enter_box(callee, callee.initial,
                          stack + ((graph, box, output),), text, length, out, path)

    root = g.initial
    enter_box(g, root, (), "", 0, "", frozenset())
    return results


def validate_by_recursion(g: GraphIR, library=()) -> list[Diagnostic]:
    """grammar.validate with one recursive call per subgraph call."""
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    diags: list[Diagnostic] = []

    missing_reported = set()
    visiting: list[str] = []
    visited: set[str] = set()
    cycle_reported = set()

    def visit(name: str):
        if name in visiting:
            edge = (visiting[-1], name)
            if edge not in cycle_reported:
                cycle_reported.add(edge)
                diags.append(Diagnostic(
                    DiagnosticCode.RECURSIVE_CALL,
                    f"recursive subgraph call {edge[0]} -> {edge[1]}",
                    graph=g.name, detail=edge))
            return
        if name in visited:
            return
        graph = lib.get(name)
        if graph is None:
            if name not in missing_reported:
                missing_reported.add(name)
                diags.append(Diagnostic(
                    DiagnosticCode.UNKNOWN_SUBGRAPH,
                    f"subgraph {name!r} is not in the library",
                    graph=visiting[-1] if visiting else g.name, detail=(name,)))
            return
        visited.add(name)
        diags.extend(_validate_structure(graph))
        visiting.append(name)
        for callee in graph.subgraph_names():
            visit(callee)
        visiting.pop()

    visit(g.name)
    return diags


class RecursiveBuilder(fst_module._Builder):
    """fst._Builder inlining each subgraph call by a recursive call."""

    def build(self, g: GraphIR) -> tuple[int, int]:
        enter: dict[int, int] = {}
        exit_: dict[int, int] = {}
        for box_id in g.boxes:
            box = g.boxes[box_id]
            s = self.new_state()
            enter[box_id] = s
            exit_[box_id] = s if box.kind is not BoxKind.PLAIN else self.new_state()

        for box_id in g.boxes:
            box = g.boxes[box_id]
            if box.kind is BoxKind.PLAIN:
                self._wire_by_recursion(box, enter[box_id], exit_[box_id])
            for succ in box.successors:
                self.eps.append((exit_[box_id], "", enter[succ]))
        return enter[g.initial.id], enter[g.final.id]

    def _wire_by_recursion(self, box, src: int, dst: int):
        output = box.output or ""
        for label in box.alternatives:
            if label.kind is LabelKind.LITERAL:
                syms = fst_module.literal_symbols(label.payload)
                cur = src
                for i, sym in enumerate(syms):
                    last = i == len(syms) - 1
                    nxt = dst if last else self.new_state()
                    self.arcs.append((cur, sym, output if last else "", nxt))
                    cur = nxt
            elif label.kind is LabelKind.MASK:
                self.arcs.append((src, mask_symbol(label.payload), output, dst))
            elif label.kind is LabelKind.EPSILON:
                self.eps.append((src, output, dst))
            else:  # SUBGRAPH
                sub_in, sub_out = self.build(self.library[label.payload])
                self.eps.append((src, "", sub_in))
                self.eps.append((sub_out, output, dst))


def compile_graph_by_recursion(g: GraphIR, library=()) -> Fst:
    """fst.compile_graph with RecursiveBuilder inlining the subgraphs."""
    with mock.patch.object(fst_module, "_Builder", RecursiveBuilder):
        return fst_module.compile_graph(g, library)


def compile_graph_in_passes(g: GraphIR, library=()) -> Fst:
    """fst.compile_graph removing epsilons in separate passes over the
    builder's states: a check of every emitting epsilon arc for a cycle
    back to its source, the closure of every state that can be entered (the
    initial state and the targets of consuming arcs), then the outputs
    pushed onto one arc list over all of them, then a breadth-first walk
    that renumbers and prunes the states."""
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    diags = validate(g, lib)
    if diags:
        raise fst_module.GraphValidationError(diags)
    builder = fst_module._Builder(lib, fst_module.DEFAULT_MAX_STATES)
    init, accept = builder.build(g)

    adj: dict[int, list[tuple[str, int]]] = {}
    for src, out, dst in reversed(builder.eps):
        adj.setdefault(src, []).append((out, dst))
    # an emitting arc is on a cycle when its source is reached back from
    # its target: one reachability walk per emitting arc
    succ: dict[int, list[int]] = {}
    for src, _, dst in builder.eps:
        succ.setdefault(src, []).append(dst)
    for src, out, dst in builder.eps:
        if out and src in reachable([dst], succ):
            raise fst_module.EpsilonCycle(f"epsilon cycle through state {src} emits {out!r}")

    entered = sorted({init}.union(arc[3] for arc in builder.arcs))
    closures: dict[int, list[tuple[int, str]]] = {}
    for q in entered:
        pairs: list[tuple[int, str]] = []
        seen: set[tuple[int, str]] = set()
        stack = [(q, "")]
        while stack:
            pair = stack.pop()
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
            state, out = pair
            for o, dst in adj.get(state, ()):
                stack.append((dst, out + o))
        closures[q] = pairs

    arcs_by_src: dict[int, list[tuple[int, str, str, int]]] = {}
    for arc in builder.arcs:
        arcs_by_src.setdefault(arc[0], []).append(arc)
    new_arcs: list[tuple[int, str, str, int]] = []
    seen_arcs: set[tuple[int, str, str, int]] = set()
    final_outputs: dict[int, tuple[str, ...]] = {}
    for q in entered:
        outs: list[str] = []
        for r, w in closures[q]:
            if r == accept and w not in outs:
                outs.append(w)
            for _, sym, o, dst in arcs_by_src.get(r, ()):
                arc = (q, sym, w + o, dst)
                if arc not in seen_arcs:
                    seen_arcs.add(arc)
                    new_arcs.append(arc)
        if outs:
            final_outputs[q] = tuple(outs)
    if init in final_outputs:
        raise fst_module.EpsilonOnlyPath(f"graph {g.name!r} accepts the empty input")

    fwd: dict[int, list[tuple[int, str, str, int]]] = {}
    for arc in new_arcs:
        fwd.setdefault(arc[0], []).append(arc)
    order: dict[int, int] = {init: 0}
    queue = [init]
    kept_arcs: list[tuple[int, str, str, int]] = []
    for s in queue:
        for _, sym, o, dst in fwd.get(s, ()):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
            kept_arcs.append((order[s], sym, o, order[dst]))
    finals = {order[s]: outs for s, outs in final_outputs.items() if s in order}
    return Fst(name=g.name, tag=g.tag, n_states=len(order), initial=0,
               final_outputs=finals, transitions=tuple(kept_arcs))


# ------------------------------------------------- leftmost-longest oracle

def ordered_pairs(g: GraphIR, library=None, max_len: int = 24) -> list[tuple[str, str]]:
    """(input, output) pairs of a graph in alternative/successor order.

    Unlike enumerate_paths this keeps the DFS ordering, which is the
    tie-break order for equal spans.
    """
    lib = {gr.name: gr for gr in (library or [])}
    lib.setdefault(g.name, g)
    pairs: list[tuple[str, str]] = []

    def enter(graph, box, stack, text, length, out):
        if length > max_len:
            return
        if box.kind is BoxKind.FINAL:
            if stack:
                cgraph, cbox, cout = stack[-1]
                leave(cgraph, cbox, stack[:-1], text, length, out + cout)
            else:
                pairs.append((text, out))
            return
        if box.kind is BoxKind.INITIAL:
            leave(graph, box, stack, text, length, out)
            return
        output = box.output or ""
        for label in box.alternatives:
            if label.kind is LabelKind.LITERAL:
                step = len(text_to_symbols(label.payload))
                leave(graph, box, stack, text + label.payload, length + step,
                      out + output)
            elif label.kind is LabelKind.MASK:
                leave(graph, box, stack, text + f"<{label.payload}>", length + 1,
                      out + output)
            elif label.kind is LabelKind.EPSILON:
                leave(graph, box, stack, text, length, out + output)
            else:
                callee = lib[label.payload]
                enter(callee, callee.initial, stack + ((graph, box, output),),
                      text, length, out)

    def leave(graph, box, stack, text, length, out):
        for succ in box.successors:
            enter(graph, graph.boxes[succ], stack, text, length, out)

    enter(g, g.initial, (), "", 0, "")
    return pairs


class BruteMatcher:
    """All-matches enumeration followed by greedy leftmost-longest selection.

    Independent of apply.find_matches: works from the graph IR pair lists,
    not from compiled transducers.
    """

    def __init__(self, graphs: list[GraphIR], lexicon: Lexicon, library=None):
        self.lexicon = lexicon
        self.pair_lists = [ordered_pairs(g, library or graphs) for g in graphs]
        self.names = [g.name for g in graphs]

    def _match_at(self, text_syms, char_aligned, token_info, pos, pair):
        """End unit of one pair matched at a unit position, or None."""
        inp, _ = pair
        u = pos
        for sym in text_to_symbols(inp):
            if u >= len(text_syms):
                return None
            if len(sym) > 1 and sym != "<B>":  # POS mask
                info = token_info.get(u)
                if info is None or sym[1:-1] not in info[1]:
                    return None
                u = info[0]
            elif sym == "<B>":
                if not (isinstance(text_syms[u], str) and text_syms[u].isspace()
                        and len(text_syms[u]) == 1):
                    return None
                u += 1
            else:
                if text_syms[u] != sym:
                    return None
                u += 1
        if u not in char_aligned or u == pos:
            return None
        return u

    def all_matches(self, text: str, positions, char_aligned, token_info):
        syms = unit_symbols(text)
        found = []
        for pos in positions:
            for gi, pairs in enumerate(self.pair_lists):
                for pi, pair in enumerate(pairs):
                    end = self._match_at(syms, char_aligned, token_info, pos, pair)
                    if end is not None:
                        found.append((pos, end, gi, pi, pair[1]))
        return found

    def select(self, text: str, anchor: Anchor = Anchor.TOKEN_START):
        """Greedy leftmost-longest with priority and alternative-order ties,
        from token starts, or from every character start under ANYWHERE."""
        seq = jamo_seq(text)
        unit_chars = char_index_of_unit(seq)
        char_start_unit = []
        for i, c in enumerate(unit_chars):
            if c == len(char_start_unit):
                char_start_unit.append(i)
        char_aligned = set(char_start_unit) | {len(seq.units)}

        stream = tokenize(text)
        token_info = {}
        byte = 0
        char_of_byte = {}
        b = 0
        for i, ch in enumerate(text):
            char_of_byte[b] = i
            b += len(ch.encode("utf-8"))
        for tok in stream:
            start_char = char_of_byte[tok.start]
            u = char_start_unit[start_char]
            end_char = start_char + len(tok.surface)
            end_u = (char_start_unit[end_char] if end_char < len(char_start_unit)
                     else len(seq.units))
            poses = set()
            if tok.cls is TokenClass.HANGUL:
                for a in analyze_key_by_recursion(self.lexicon, fold_letters(tok.surface)):
                    if len(a.segments) == 1:
                        poses.add(a.segments[0][1].pos.value)
            token_info[u] = (end_u, poses)

        positions = sorted(token_info) if anchor is Anchor.TOKEN_START else char_start_unit
        found = self.all_matches(text, positions, char_aligned, token_info)
        chosen = []
        i = 0
        while i < len(positions):
            pos = positions[i]
            here = [m for m in found if m[0] == pos]
            if not here:
                i += 1
                continue
            best = min(here, key=lambda m: (-m[1], m[2], m[3]))
            start_char = unit_chars[pos]
            end_char = unit_chars[best[1] - 1] + 1
            chosen.append((start_char, end_char, self.names[best[2]], best[4]))
            while i < len(positions) and positions[i] < best[1]:
                i += 1
        return chosen


# ------------------------------------------- concordance, by bisection

def concordance_by_bisect(text: str, matches, left_width: int, right_width: int,
                          sort: ConcordSort) -> list[ConcordLine]:
    """Concordance lines with each match's characters found by bisecting
    the per-character byte table, matches taken in the order given."""
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


# ------------------------------------------------- classifier fuzzy scans

# Morpheme shapes of the deviant candidate language: exactly one JOSA or EOMI.
DEVIANT_SHAPES = (
    (Pos.N,), (Pos.N, Pos.JOSA), (Pos.N, Pos.XSV, Pos.EOMI), (Pos.V, Pos.EOMI),
    (Pos.ADJ, Pos.EOMI), (Pos.ADV,), (Pos.DET,), (Pos.INTERJ,), (Pos.PROPER,),
)


@lru_cache(maxsize=None)
def deviant_forms(lexicon: Lexicon) -> list[tuple[tuple, str]]:
    """(distance key, composed form) of every syllable-only form of the
    deviant candidate language, materialised as the full cross product of
    DEVIANT_SHAPES over the lexicon's entries."""
    by_pos: dict[Pos, list[tuple]] = {}
    for e in lexicon.entries:
        by_pos.setdefault(e.pos, []).append(tuple(fold_letters(e.surface)))
    forms: dict[str, tuple] = {}
    for shape in DEVIANT_SHAPES:
        for keys in itertools.product(*(by_pos.get(pos, ()) for pos in shape)):
            form = compose_letters(sum(keys, ()))
            if form not in forms and not any(map(is_compat_jamo, form)):
                forms[form] = distance_key(form)
    return [(k, f) for f, k in forms.items()]


def rebuilt(res: Resources, **changes) -> Resources:
    """A new Resources built from the six fields of ``res``, with
    ``changes`` in their place, so its tries follow its entries and its
    deviant automaton starts afresh."""
    fields = dict(lexicon=res.lexicon, fsts=res.fsts,
                  abbr_entries=res.tries[Category.ABBREVIATION].entries,
                  neo_entries=res.tries[Category.NEOLOGISM].entries,
                  loan_entries=res.tries[Category.LOANWORD_VARIANT].entries,
                  thresholds=res.thresholds)
    return Resources(**{**fields, **changes})


def detections_by_eager_loop(token: Token, res: Resources) -> list[tuple]:
    """Every step of every category that reads the token's class, each run
    on one TextIndex of its surface, the categories in the priority order
    the classify module docstring lists and each one's steps in order: the
    (Candidate, suggestion) of each category from the first of its steps
    that fired.  Raises PreconditionViolated on an analyzable token."""
    if is_analyzable(token, res.lexicon):
        raise PreconditionViolated(f"token {token.surface!r} is analyzable")
    index = TextIndex(token.surface, res.lexicon, ((0, len(token.surface), token.cls),))
    if token.cls is TokenClass.HANGUL:
        categories = [(Category.ABBREVIATION, [_grammar_prefix, _dict_prefix]),
                      (Category.NEOLOGISM, [_grammar_prefix, _dict_prefix, _hada_root]),
                      (Category.LOANWORD_VARIANT, [_grammar_prefix, _loanword_by_distance]),
                      (Category.SPACING, [_spacing_split]),
                      (Category.DEVIANT_SPELLING, [_grammar_suffix, _deviant_by_distance])]
    elif token.cls in (TokenClass.JAMO, TokenClass.SYMBOL):
        categories = [(Category.EMOTICON, [_emoticon_scalars, _grammar_whole])]
    else:
        categories = []
    found = []
    for cat, steps in categories:
        fired = [got for got in [step(index, res, cat) for step in steps] if got is not None]
        if fired:
            evidence, suggestion = fired[0]
            found.append((Candidate(cat, evidence), suggestion))
    return found


def every_detection(stream: TokenStream, res: Resources) -> dict[str, tuple]:
    """``tuple(detections(token, res))`` of each distinct non-analyzable
    type of ``stream`` in first-occurrence order: the types classify_corpus
    classifies, with every category run on each, not only up to the first
    that fires."""
    found: dict[str, tuple | None] = {}
    for token in stream:
        if token.surface not in found:
            try:
                found[token.surface] = tuple(detections(token, res))
            except PreconditionViolated:
                found[token.surface] = None
    return {surface: got for surface, got in found.items() if got is not None}


def brute_deviant_best(token: Token, res: Resources):
    """Linear scan of deviant_forms: the nearest form within the deviant
    threshold, ranked by (distance, -shared key prefix, form), as
    (evidence, suggestion) or None."""
    limit = res.thresholds.deviant
    token_key = distance_key(token.surface)
    best = None
    for key, form in deviant_forms(res.lexicon):
        if abs(len(key) - len(token_key)) > limit:
            continue
        d = key_distance(token_key, key, cap=limit)
        if d > limit:
            continue
        shared = 0
        for a, b in zip(token_key, key):
            if a != b:
                break
            shared += 1
        rank = (d, -shared, form)
        if best is None or rank < best:
            best = rank
    if best is None:
        return None
    return f"distance:{best[0]}", best[2]


def brute_loan_best(token: Token, res: Resources):
    """Capped key_distance of every (loan entry, token prefix) pair: the
    entry within the loan threshold ranked by (distance, -prefix chars,
    entry order), as (evidence, suggestion) or None."""
    limit = res.thresholds.loan
    chars = token.surface
    token_key = distance_key(chars)
    starts = TextIndex(chars).char_start_unit
    best = None
    for order, entry in enumerate(res.tries[Category.LOANWORD_VARIANT].entries):
        entry_key = distance_key(entry.surface)
        for n_chars in range(1, len(chars) + 1):
            end_unit = starts[n_chars] if n_chars < len(starts) else len(token_key)
            d = key_distance(token_key[:end_unit], entry_key, cap=limit)
            if d <= limit:
                rank = (d, -n_chars, order)
                if best is None or rank < best[0]:
                    best = (rank, entry, n_chars)
    if best is None:
        return None
    _, entry, n_chars = best
    sug = _splice(chars, 0, n_chars, entry.surface, res.lexicon)
    return f"distance:{entry.surface}", sug


def linear_dict_prefix(index: TextIndex, entries, suggestion_of):
    """``startswith`` over every entry in file order: the first whose
    surface is a leading span of the token and that has a suggestion, as
    (evidence, suggestion) or None."""
    for e in entries:
        out = suggestion_of(e) if index.text.startswith(e.surface) else None
        if out is not None:
            sug = _splice(index.text, 0, len(e.surface), out, index.lexicon)
            return f"dict:{e.surface}", sug
    return None


# ------------------------------------------ analysability by recursion

def rule_positions(rule: _RulePattern, seq: tuple[Pos, ...]) -> set[int]:
    """Atom positions of one rule after ``seq``, by a position-set run:
    i = "about to match atom i", len(atoms) = accept."""
    atoms = rule.atoms

    def closure(states):
        out = set(states)
        for i in sorted(states):
            j = i
            while j < len(atoms) and atoms[j][1]:
                j += 1
                out.add(j)
        return out

    states = closure({0})
    for pos in seq:
        nxt = set()
        for i in states:
            if i < len(atoms) and atoms[i][0] is pos:
                nxt.add(i + 1)
                if atoms[i][2]:
                    nxt.add(i)
        if not nxt:
            return set()
        states = closure(nxt)
    return states


def analyze_key_by_recursion(lexicon: Lexicon, key: str) -> list[MorphAnalysis]:
    """Every segmentation of ``key`` into entries whose part-of-speech
    sequence a rule matches, by a recursive walk that re-runs every rule
    over the whole sequence at each morpheme; fewest segments first, then
    by (surface, POS, lemma) of each segment."""
    rules = [_RulePattern(r) for r in lexicon.concat_rules]
    results = []

    def walk(i, segs, poses):
        if i == len(key):
            if poses and any(len(r.atoms) in rule_positions(r, poses) for r in rules):
                results.append(MorphAnalysis(tuple(segs)))
            return
        for end, entry in lexicon._trie.prefix_items(key, i):
            nxt = poses + (entry.pos,)
            if not any(rule_positions(r, nxt) for r in rules):
                continue
            segs.append((entry.surface, entry))
            walk(end, segs, nxt)
            segs.pop()

    walk(0, [], ())
    results.sort(key=lambda a: (
        len(a.segments),
        tuple((s, e.pos.value, e.lemma) for s, e in a.segments),
    ))
    return results


def analyses_by_count_masks(lexicon: Lexicon, key: str) -> Iterator[MorphAnalysis]:
    """The rule-satisfying segmentations of a letter-jamo key, lazily, in
    ``analyze_key_by_recursion`` order, the entries' dictionary order last,
    the first segment varying slowest.  Each lattice pair masks the
    segment counts that finish the key from it (bit n: n segments); for
    each count, a depth-first walk over the sorted groups of edges of one
    (surface, POS, lemma) enters only the groups whose next pair can
    finish in the segments left, so the first analysis costs one pass."""
    edges = lexicon.lattice(key)
    counts: dict[tuple[int, int], int] = {}
    for pair in sorted(edges, key=lambda p: -p[0]):
        mask = pair[0] == len(key) > 0 and lexicon._rules.final[pair[1]]
        for _, dst in edges[pair]:
            mask |= counts[dst] << 1
        counts[pair] = mask
    groups: dict[tuple[int, int], list] = {}  # pair -> [(segments, next pair)]

    def grouped(pair):
        if pair not in groups:
            by_key: dict[tuple, tuple[list, tuple]] = {}  # (surface, POS, lemma)
            for e, dst in edges[pair]:
                group = by_key.setdefault((e.surface, e.pos.value, e.lemma), ([], dst))
                group[0].append((e.surface, e))
            groups[pair] = [by_key[k] for k in sorted(by_key)]
        return groups[pair]

    start = (0, lexicon._rules.start)
    todo = counts[start]
    while todo:
        n = (todo & -todo).bit_length() - 1  # the fewest segments not yet walked
        todo &= todo - 1
        stack = [(iter(grouped(start)), n, None)]  # (groups left, segments left, group in)
        while stack:
            rest, left, _ = stack[-1]
            for group, dst in rest:
                if counts[dst] >> (left - 1) & 1:
                    break
            else:
                stack.pop()
                continue
            if left > 1:
                stack.append((iter(grouped(dst)), left - 1, group))
            else:
                path = [taken for _, _, taken in stack[1:]] + [group]
                yield from map(MorphAnalysis, itertools.product(*path))


def word_analyzable_by_recursion(word: str, lexicon: Lexicon) -> bool:
    return bool(word) and bool(analyze_key_by_recursion(lexicon, fold_letters(word)))


def spacing_by_substrings(chars: str, lexicon: Lexicon):
    """Fewest-words split of ``chars`` into analyzable words, ties to the
    lexicographically smallest word tuple, by testing every substring;
    as (evidence, suggestion) when it has two words or more, else None."""
    n = len(chars)
    best_split = {n: (0, ())}

    def solve(i):
        if i in best_split:
            return best_split[i]
        best = None
        for j in range(i + 1, n + 1):
            word = chars[i:j]
            if not word_analyzable_by_recursion(word, lexicon):
                continue
            rest = solve(j)
            if rest is None:
                continue
            cand = (rest[0] + 1, (word,) + rest[1])
            if best is None or cand < best:
                best = cand
        best_split[i] = best
        return best

    got = solve(0)
    if got is not None and got[0] >= 2:
        words = got[1]
        return f"split:{len(words)}", " ".join(words)
    return None


def eomi_chain(lexicon: Lexicon, key: tuple, start: int) -> bool:
    """key[start:] is one or more EOMI entries."""
    for end, e in lexicon._trie.prefix_items(key, start):
        if e.pos is not Pos.EOMI:
            continue
        if end == len(key) or eomi_chain(lexicon, key, end):
            return True
    return False


def hada_root_by_suffixes(chars: str, lexicon: Lexicon) -> str | None:
    """Shortest non-analyzable root followed by 하/XSV and an EOMI chain,
    folding every suffix of ``chars`` anew."""
    for i in range(1, len(chars)):
        root = chars[:i]
        rest_key = fold_letters(chars[i:])
        for end, e in lexicon._trie.prefix_items(rest_key, 0):
            if e.pos is not Pos.XSV or e.lemma != "하":
                continue
            if (eomi_chain(lexicon, rest_key, end)
                    and not word_analyzable_by_recursion(root, lexicon)):
                return root
    return None


def hada_root_by_prefix_walk(index: TextIndex, lexicon: Lexicon) -> str | None:
    """Shortest unknown root followed by 하/XSV and one or more endings
    that reach the end of the token, by two walks of the lexicon trie:
    from every unit right to left for the units that start an EOMI chain,
    then from every character start for a 하 verbalizer that ends at one."""
    key = index.letters
    n = len(key)
    # eomi_tail[u]: key[u:] is one or more endings
    eomi_tail = [False] * (n + 1)
    for u in range(n - 1, -1, -1):
        eomi_tail[u] = any(e.pos is Pos.EOMI and (end == n or eomi_tail[end])
                           for end, e in lexicon._trie.prefix_items(key, u))
    known = lexicon.word_ends(key)
    for i, u in enumerate(index.char_start_unit[1:-1], 1):
        if u not in known and any(e.pos is Pos.XSV and e.lemma == "하" and eomi_tail[end]
                                  for end, e in lexicon._trie.prefix_items(key, u)):
            return index.text[:i]
    return None


def word_walk(lexicon: Lexicon, key: str, goal: int | None = None) -> set[int]:
    """Lexicon.word_ends by a walk of the trie from each (unit, rule
    state) pair, each expanded once, without the lattice's edges; stops
    as soon as a word ends at ``goal``, so ``goal in word_walk(lexicon,
    key, goal)`` is Lexicon.is_word for a non-empty key."""
    root, rules, n = lexicon._trie.root, lexicon._rules, len(key)
    table, final = rules.table, rules.final
    ends: set[int] = set()
    seen = {(0, rules.start)}
    stack = [(0, rules.start)]
    while stack:
        unit, state = stack.pop()
        row = table[state]
        node = root
        for end in range(unit + 1, n + 1):
            node = node.children.get(key[end - 1])
            if node is None:
                break
            for p in node.pos:
                nxt = row[p]
                if nxt and (end, nxt) not in seen:
                    seen.add((end, nxt))
                    stack.append((end, nxt))
                    if final[nxt]:
                        ends.add(end)
                        if end == goal:
                            return ends
    return ends


def word_ends_by_lattice(lexicon: Lexicon, key: str) -> set[int]:
    """Lexicon.word_ends read off the whole lattice, edges included."""
    return {u for u, state in lexicon.lattice(key) if u and lexicon._rules.final[state]}


def fewest_words_by_lattice(lexicon: Lexicon, key: str,
                            starts: list[int]) -> list[int] | None:
    """Lexicon.fewest_words as a shortest path over the lattice of
    (unit, rule state) pairs reachable from the start state at every unit
    of ``starts`` but the last, settled right to left."""
    start, table, final = lexicon._rules.start, lexicon._rules.table, lexicon._rules.final
    edges: dict[tuple[int, int], list] = {}
    stack = [(u, start) for u in starts[:-1]]
    while stack:
        pair = stack.pop()
        if pair not in edges:
            row = table[pair[1]]
            edges[pair] = [(end, row[e.pos.index])
                           for end, e in lexicon._trie.prefix_items(key, pair[0])
                           if row[e.pos.index]]
            stack.extend(edges[pair])
    aligned = set(starts)
    # (words, end of the first word) of the best split from a start,
    # and of the best way to finish the word under way at a pair
    rest = {starts[-1]: (0, starts[-1])}
    ahead = {}
    for pair in sorted(edges, key=lambda p: (-p[0], p[1] != start)):
        unit, state = pair
        ranks = [ahead[dst] for dst in edges[pair] if dst in ahead]
        if ranks and unit in aligned and state == start:
            rest[unit] = min(ranks)
        if unit in rest and final[state]:
            ranks.append((rest[unit][0] + 1, unit))
        if ranks:
            ahead[pair] = min(ranks)
    ends = [0]
    while ends[-1] in rest and ends[-1] != starts[-1]:
        ends.append(rest[ends[-1]][1])
    return ends[1:] if ends[-1] == starts[-1] else None


class PositionSetAutomaton:
    """The concatenation rules as sets of (rule, atom) positions: a state
    is the frozenset of positions reached, empty once no rule fits; steps
    are memoized."""

    def __init__(self, rules):
        self._rules = [_RulePattern(r) for r in rules]
        self.start = frozenset((r, i) for r, rule in enumerate(self._rules)
                               for i in rule.skip(0))
        self.finals = frozenset((r, len(rule.atoms)) for r, rule in enumerate(self._rules))
        self._steps: dict[tuple[frozenset, Pos], frozenset] = {}

    def step(self, state: frozenset, pos: Pos) -> frozenset:
        """Rule state after one more morpheme of ``pos``."""
        if (state, pos) not in self._steps:
            nxt = set()
            for r, i in state:
                atoms = self._rules[r].atoms
                if i < len(atoms) and atoms[i][0] is pos:
                    nxt.update((r, j) for j in self._rules[r].skip(i + 1))
                    if atoms[i][2]:
                        nxt.add((r, i))
            self._steps[state, pos] = frozenset(nxt)
        return self._steps[state, pos]

    def is_final(self, state: frozenset) -> bool:
        return not state.isdisjoint(self.finals)
