"""Compile local grammar graphs into finite-state transducers.

Compilation inlines subgraph calls (the call graph must be acyclic),
expands every literal alternative into a chain of jamo-unit transitions,
then removes epsilon transitions while pushing their outputs forward.
Outputs that would be emitted after the last consumed symbol survive as
per-final-state output strings, so the compiled relation is exactly the
graph's input/output relation.

Input symbols are single characters (the jamo units of
``hangul.jamo_units``: conjoining jamo for decomposed syllables,
compatibility jamo and other characters verbatim), ``<POS>``
mask sentinels bound to whole tokens at application time, and the
``<B>`` token-boundary sentinel produced by a space inside a literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .grammar import Box, BoxKind, GraphIR, LabelKind, validate, _library_by_name
from .hangul import jamo_units

TOKEN_BOUNDARY = "<B>"
DEFAULT_MAX_STATES = 100_000


class CompileError(ValueError):
    """Base class for graph compilation failures."""


class GraphValidationError(CompileError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class EpsilonOnlyPath(CompileError):
    """The graph accepts the empty input."""


class EpsilonCycle(CompileError):
    """An epsilon cycle emitting output would make the relation infinite."""


class CompileOverflow(CompileError):
    """Inlined state count exceeded the configured cap."""


def mask_symbol(pos_name: str) -> str:
    return f"<{pos_name}>"


def is_sentinel(symbol: str) -> bool:
    return len(symbol) > 1


def literal_symbols(text: str) -> list[str]:
    """Input symbols for a literal: its jamo units, a space becoming <B>."""
    return [TOKEN_BOUNDARY if u == " " else u for u in jamo_units(text)]


@dataclass(frozen=True)
class Fst:
    """Epsilon-free transducer: transitions are (src, symbol, output, dst)."""

    name: str
    tag: str
    n_states: int
    initial: int
    final_outputs: dict[int, tuple[str, ...]]
    transitions: tuple[tuple[int, str, str, int], ...]

    @cached_property
    def arcs(self) -> dict[int, list[tuple[int, str, str, int]]]:
        """Transitions by source state, in transition order."""
        adj: dict[int, list[tuple[int, str, str, int]]] = {}
        for t in self.transitions:
            adj.setdefault(t[0], []).append(t)
        return adj

    def dump(self) -> str:
        lines = [f"fst\t{self.name}\t{self.tag}",
                 f"states\t{self.n_states}",
                 f"initial\t{self.initial}"]
        for state in sorted(self.final_outputs):
            for fo in self.final_outputs[state]:
                lines.append(f"final\t{state}\t{fo}")
        for src, sym, o, dst in self.transitions:
            lines.append(f"{src}\t{sym}\t{o}\t{dst}")
        return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self, library: dict[str, GraphIR], max_states: int):
        self.library = library
        self.max_states = max_states
        self.n = 0
        self.eps: list[tuple[int, str, int]] = []          # (src, out, dst)
        self.arcs: list[tuple[int, str, str, int]] = []    # (src, sym, out, dst)

    def new_state(self) -> int:
        if self.n >= self.max_states:
            raise CompileOverflow(f"state count exceeded cap {self.max_states}")
        self.n += 1
        return self.n - 1

    def build(self, g: GraphIR) -> tuple[int, int]:
        """Wire a graph and, depth first, every subgraph it calls; returns
        (entry state, accept state).  A graph waits for each callee on an
        explicit stack of ``_wire`` frames, so a long call chain keeps no
        interpreter frame per graph."""
        frames = [self._wire(g)]
        sent = None
        while True:
            try:
                callee = frames[-1].send(sent)
            except StopIteration as done:
                frames.pop()
                if not frames:
                    return done.value
                sent = done.value
            else:
                frames.append(self._wire(callee))
                sent = None

    def _wire(self, g: GraphIR):
        """Wire one graph: yields each called subgraph in call order and is
        sent back its (entry, accept) states; returns its own."""
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
                yield from self._wire_alternatives(box, enter[box_id], exit_[box_id])
            for succ in box.successors:
                self.eps.append((exit_[box_id], "", enter[succ]))
        return enter[g.initial.id], enter[g.final.id]

    def _wire_alternatives(self, box: Box, src: int, dst: int):
        output = box.output or ""
        for label in box.alternatives:
            if label.kind is LabelKind.LITERAL:
                syms = literal_symbols(label.payload)
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
                sub_in, sub_out = yield self.library[label.payload]
                self.eps.append((src, "", sub_in))
                self.eps.append((sub_out, output, dst))


def _epsilon_closure(n_states: int, eps: list[tuple[int, str, int]]):
    """Closure pairs (reachable state, accumulated output) per state, in
    deterministic DFS preorder.  Raises EpsilonCycle when an epsilon cycle
    carries output (its closure would be infinite)."""
    # successors in reverse arc order, so that they pop off a stack in order
    adj: dict[int, list[tuple[str, int]]] = {}
    for src, out, dst in reversed(eps):
        adj.setdefault(src, []).append((out, dst))

    # reject epsilon cycles that emit output
    for src, out, dst in eps:
        if not out:
            continue
        seen = {dst}
        stack = [dst]
        while stack:
            s = stack.pop()
            if s == src:
                raise EpsilonCycle(
                    f"epsilon cycle through state {src} emits {out!r}")
            for _, nxt in adj.get(s, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)

    closures: list[list[tuple[int, str]]] = []
    for q in range(n_states):
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
        closures.append(pairs)
    return closures


def compile_graph(g: GraphIR, library=(), max_states: int = DEFAULT_MAX_STATES) -> Fst:
    """Compile a validated graph (plus its subgraph library) into an Fst."""
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    diags = validate(g, lib)
    if diags:
        raise GraphValidationError(diags)

    builder = _Builder(lib, max_states)
    init, accept = builder.build(g)
    closures = _epsilon_closure(builder.n, builder.eps)

    # push epsilon outputs forward onto following consuming transitions
    arcs_by_src: dict[int, list[tuple[int, str, str, int]]] = {}
    for arc in builder.arcs:
        arcs_by_src.setdefault(arc[0], []).append(arc)

    new_arcs: list[tuple[int, str, str, int]] = []
    seen_arcs: set[tuple[int, str, str, int]] = set()
    final_outputs: dict[int, tuple[str, ...]] = {}
    for q in range(builder.n):
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
        raise EpsilonOnlyPath(f"graph {g.name!r} accepts the empty input")

    # prune states not on an initial..final path, renumber breadth-first
    fwd: dict[int, list[int]] = {}
    rev: dict[int, list[int]] = {}
    for src, _, _, dst in new_arcs:
        fwd.setdefault(src, []).append(dst)
        rev.setdefault(dst, []).append(src)

    reach = {init}
    frontier = [init]
    while frontier:
        s = frontier.pop()
        for d in fwd.get(s, ()):
            if d not in reach:
                reach.add(d)
                frontier.append(d)
    coreach = set(final_outputs)
    frontier = list(final_outputs)
    while frontier:
        s = frontier.pop()
        for d in rev.get(s, ()):
            if d not in coreach:
                coreach.add(d)
                frontier.append(d)
    keep = reach & coreach
    keep.add(init)

    order: dict[int, int] = {init: 0}
    queue = [init]
    while queue:
        s = queue.pop(0)
        for src, _, _, dst in new_arcs:
            if src == s and dst in keep and dst not in order:
                order[dst] = len(order)
                queue.append(dst)

    kept_arcs = [
        (order[src], sym, o, order[dst])
        for src, sym, o, dst in new_arcs
        if src in order and dst in order
    ]
    kept_arcs.sort(key=lambda a: a[0])  # stable: per-state order preserved
    finals = {
        order[s]: outs for s, outs in final_outputs.items() if s in order
    }
    return Fst(
        name=g.name,
        tag=g.tag,
        n_states=len(order),
        initial=0,
        final_outputs=finals,
        transitions=tuple(kept_arcs),
    )
