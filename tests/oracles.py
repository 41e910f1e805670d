"""Independent reference implementations the test suite checks against."""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache
from unittest import mock

from lggnorm import fst as fst_module
from lggnorm.apply import TextIndex
from lggnorm.classify import Candidate, Category, Resources, _splice
from lggnorm.fst import TOKEN_BOUNDARY, Fst, mask_symbol
from lggnorm.grammar import (BoxKind, Diagnostic, DiagnosticCode, GraphIR, LabelKind,
                             _library_by_name, _validate_structure, parse_graph)
from lggnorm.hangul import (COMPAT_FIRST, COMPAT_LAST, FINAL_LETTERS, INITIAL_LETTERS,
                            MEDIAL_LETTERS, SYLLABLE_BASE, SYLLABLE_LAST, Jamo, JamoKind,
                            JamoSeq, compat, compose_letters, distance_key, final,
                            fold_letters, initial, is_compat_jamo, is_syllable, key_distance,
                            medial)
from lggnorm.lexicon import Lexicon, MorphAnalysis, Pos, _RulePattern
from lggnorm.tokenizer import (PUNCT_CHARS, Token, TokenClass, TokenStream, byte_offsets,
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


def tokenize_by_groupby(text: str) -> TokenStream:
    """Maximal same-class runs found by classifying every character with
    char_class_by_rules and grouping equal neighbours; byte offsets per
    character."""
    offsets = byte_offsets(text)
    tokens: list[Token] = []
    start = 0
    for cls, run in itertools.groupby(map(char_class_by_rules, text)):
        end = start + len(list(run))
        if cls is not None:
            tokens.append(Token(text[start:end], cls, offsets[start], offsets[end]))
        start = end
    return TokenStream(tuple(tokens), offsets[-1])


# ------------------------------------------- jamo units, one object per unit

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


def text_offsets(text: str):
    """(unit -> char, char -> start unit, char -> byte, token start unit
    -> token end unit) of NFC text, from a byte loop and a byte -> char
    dict."""
    unit_chars = char_index_of_unit(jamo_seq(text))
    char_start_unit = []
    for i, c in enumerate(unit_chars):
        if c == len(char_start_unit):
            char_start_unit.append(i)
    byte_of_char = [0]
    for ch in text:
        byte_of_char.append(byte_of_char[-1] + len(ch.encode("utf-8")))
    char_of_byte = {b: i for i, b in enumerate(byte_of_char)}
    token_end_unit = {}
    for tok in tokenize(text):
        start_char = char_of_byte[tok.start]
        end_char = start_char + len(tok.surface)
        token_end_unit[char_start_unit[start_char]] = (
            char_start_unit[end_char] if end_char < len(char_start_unit) else len(unit_chars))
    return unit_chars, char_start_unit, byte_of_char, token_end_unit


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


def random_graph(rng: random.Random, **kwargs) -> GraphIR:
    return parse_graph(random_graph_text(rng, **kwargs))


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

    def select(self, text: str):
        """Greedy leftmost-longest with priority and alternative-order ties."""
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

        positions = sorted(token_info)
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


# ------------------------------------------------- classifier fuzzy scans

# Morpheme shapes of the deviant candidate language: exactly one JOSA or EOMI.
DEVIANT_SHAPES = (
    (Pos.N,), (Pos.N, Pos.JOSA), (Pos.N, Pos.XSV, Pos.EOMI), (Pos.V, Pos.EOMI),
    (Pos.ADJ, Pos.EOMI), (Pos.ADV,), (Pos.DET,), (Pos.INTERJ,), (Pos.PROPER,),
)


@lru_cache(maxsize=None)
def deviant_forms(lexicon: Lexicon) -> list[tuple[tuple, str]]:
    """(distance key, composed form) of every form of the deviant
    candidate language, materialised as the full cross product of
    DEVIANT_SHAPES over the lexicon's entries."""
    by_pos: dict[Pos, list[tuple]] = {}
    for e in lexicon.entries:
        by_pos.setdefault(e.pos, []).append(fold_letters(e.surface))
    forms: dict[str, tuple] = {}
    for shape in DEVIANT_SHAPES:
        for keys in itertools.product(*(by_pos.get(pos, ()) for pos in shape)):
            form = compose_letters(sum(keys, ()))
            if form not in forms:
                forms[form] = distance_key(form)
    return [(k, f) for f, k in forms.items()]


def brute_deviant_best(token: Token, res: Resources):
    """Linear scan of deviant_forms: the nearest form within the deviant
    threshold, ranked by (distance, -shared key prefix, form), as
    (Candidate, suggestion) or None."""
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
    return Candidate(Category.DEVIANT_SPELLING, f"distance:{best[0]}"), best[2]


def brute_loan_best(token: Token, res: Resources):
    """Capped key_distance of every (loan entry, token prefix) pair: the
    entry within the loan threshold ranked by (distance, -prefix chars,
    entry order), as (Candidate, suggestion) or None."""
    limit = res.thresholds.loan
    chars = token.surface
    token_key = distance_key(chars)
    starts = TextIndex(chars).char_start_unit
    best = None
    for order, entry in enumerate(res.loan_entries):
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
    return Candidate(Category.LOANWORD_VARIANT, f"distance:{entry.surface}"), sug


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


def analyze_key_by_recursion(lexicon: Lexicon, key: tuple[str, ...]) -> list[MorphAnalysis]:
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
        for end, entry in lexicon.iter_prefix_entries(key, i):
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


def word_analyzable_by_recursion(word: str, lexicon: Lexicon) -> bool:
    return bool(word) and bool(analyze_key_by_recursion(lexicon, fold_letters(word)))


def spacing_by_substrings(chars: str, lexicon: Lexicon):
    """Fewest-words split of ``chars`` into analyzable words, ties to the
    lexicographically smallest word tuple, by testing every substring;
    as (Candidate, suggestion) when it has two words or more, else None."""
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
        return Candidate(Category.SPACING, f"split:{len(words)}"), " ".join(words)
    return None


def eomi_chain(lexicon: Lexicon, key: tuple, start: int) -> bool:
    """key[start:] is one or more EOMI entries."""
    for end, e in lexicon.iter_prefix_entries(key, start):
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
        for end, e in lexicon.iter_prefix_entries(rest_key, 0):
            if e.pos is not Pos.XSV or e.lemma != "하":
                continue
            if (eomi_chain(lexicon, rest_key, end)
                    and not word_analyzable_by_recursion(root, lexicon)):
                return root
    return None


def word_ends_by_lattice(lexicon: Lexicon, key: tuple[str, ...]) -> set[int]:
    """Lexicon.word_ends read off the whole lattice, edges included."""
    return {u for u, state in lexicon.lattice(key)
            if u and not state.isdisjoint(lexicon._finals)}
