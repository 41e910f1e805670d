"""Compile local grammar graphs into finite-state transducers.

Compilation inlines subgraph calls (the call graph must be acyclic),
expands every literal alternative into a chain of jamo-unit transitions,
then removes epsilon transitions while pushing their outputs forward, in
one breadth-first walk from the initial state: each state is numbered,
closed over epsilons and given its consuming transitions when the walk
first reaches it (on-demand epsilon removal, Mohri 2002).  The closure
is a depth-first walk that keeps its path, so it also finds an epsilon
cycle that emits (which would make the relation infinite) when it first
goes round one.  Outputs that would be emitted after the last consumed
symbol survive as per-final-state output strings, so the compiled
relation is exactly the graph's input/output relation.

Input symbols are single characters (the jamo units of
``hangul.jamo_units``: conjoining jamo for decomposed syllables,
compatibility jamo and other characters verbatim), ``<POS>``
mask sentinels bound to whole tokens at application time, and the
``<B>`` token-boundary sentinel produced by a space inside a literal.
"""

from __future__ import annotations

from functools import cached_property

from .grammar import BoxKind, GraphIR, LabelKind, validate, _library_by_name
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


class Fst:
    """Epsilon-free transducer: transitions are (src, symbol, output, dst)."""

    def __init__(self, name: str, tag: str, n_states: int, initial: int,
                 final_outputs: dict[int, tuple[str, ...]],
                 transitions: tuple[tuple[int, str, str, int], ...]):
        self.name, self.tag, self.n_states, self.initial = name, tag, n_states, initial
        self.final_outputs, self.transitions = final_outputs, transitions

    @cached_property
    def arcs(self) -> dict[int, list[tuple[int, str, str, int]]]:
        """Transitions by source state, in transition order."""
        adj: dict[int, list[tuple[int, str, str, int]]] = {}
        for t in self.transitions:
            adj.setdefault(t[0], []).append(t)
        return adj

    def may_start(self, ch: str) -> bool:
        """False only if no run from the initial state reads all of
        ``ch``'s units: no path of literal arcs reads them, and no sentinel
        arc leaves a state on such a path.  Every accept of ``run_from``
        is non-empty and ends where a character starts, so a False proves
        that no match starts where ``ch`` does (a FIRST-set test, Aho, Sethi
        & Ullman 1986, §4.4).  The empty string, past the end, is True."""
        states = {self.initial}
        for unit in jamo_units(ch):
            arcs = [arc for s in states for arc in self.arcs.get(s, ())]
            if any(is_sentinel(sym) for _, sym, _, _ in arcs):
                return True
            states = {dst for _, sym, _, dst in arcs if sym == unit}
            if not states:
                return False
        return True

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
        """Wire a graph and every subgraph it calls; returns (entry state,
        accept state).  A call takes its callee's entry and accept states
        at once and leaves the callee on a work list, wired when popped, so
        a long call chain keeps no interpreter frame per graph.  The pop
        order changes no state's arcs or their order, and epsilon removal
        renumbers the states, so the compiled Fst does not depend on it."""
        entry, accept = self.new_state(), self.new_state()
        todo = [(g, entry, accept)]
        while todo:
            self._wire(*todo.pop(), todo)
        return entry, accept

    def _wire(self, g: GraphIR, entry: int, accept: int, todo: list) -> None:
        """Wire one graph from ``entry`` to ``accept``, pushing each graph it
        calls onto ``todo`` with the states the call wires it between."""
        enter: dict[int, int] = {}
        exit_: dict[int, int] = {}
        for box_id, box in g.boxes.items():
            if box.kind is BoxKind.PLAIN:
                enter[box_id], exit_[box_id] = self.new_state(), self.new_state()
            else:
                enter[box_id] = exit_[box_id] = entry if box.kind is BoxKind.INITIAL else accept

        for box_id, box in g.boxes.items():
            src, dst = enter[box_id], exit_[box_id]
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
                    sub_in, sub_out = self.new_state(), self.new_state()
                    todo.append((self.library[label.payload], sub_in, sub_out))
                    self.eps.append((src, "", sub_in))
                    self.eps.append((sub_out, output, dst))
            for succ in box.successors:
                self.eps.append((dst, "", enter[succ]))


def _epsilon_closure(eps: dict[int, list[tuple[str, int]]], q: int) -> list[tuple[int, str]]:
    """Closure pairs (reachable state, accumulated output) of state ``q``
    over the epsilon successors ``eps``, in depth-first preorder.  The walk
    keeps the states on its path with the output each had there; coming
    back to one of them with other output means it went once round a cycle
    that emits, which would make the closure infinite, so it raises
    EpsilonCycle naming that trip's output."""
    pairs = [(q, "")]
    seen = set(pairs)
    path = {q: ""}
    stack = [(q, "", iter(eps.get(q, ())))]
    while stack:
        state, out, succ = stack[-1]
        for o, dst in succ:
            w = out + o
            pair = (dst, w)
            if pair in seen:
                continue
            if dst in path:
                raise EpsilonCycle(f"an epsilon cycle emits {w[len(path[dst]):]!r}")
            seen.add(pair)
            pairs.append(pair)
            path[dst] = w
            stack.append((dst, w, iter(eps.get(dst, ()))))
            break
        else:
            stack.pop()
            del path[state]
    return pairs


def compile_graph(g: GraphIR, library=(), max_states: int = DEFAULT_MAX_STATES) -> Fst:
    """Compile a validated graph (plus its subgraph library) into an Fst."""
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    diags = validate(g, lib)
    if diags:
        raise GraphValidationError(diags)

    builder = _Builder(lib, max_states)
    try:
        init, accept = builder.build(g)
        eps: dict[int, list[tuple[str, int]]] = {}
        for src, out, dst in builder.eps:
            eps.setdefault(src, []).append((out, dst))
        arcs: dict[int, list[tuple[int, str, str, int]]] = {}
        for arc in builder.arcs:
            arcs.setdefault(arc[0], []).append(arc)

        # one breadth-first walk from init: a state is numbered when first
        # reached; when walked, it is closed over epsilons (which rejects
        # an epsilon cycle that emits) and the closure outputs are pushed
        # onto the consuming arcs leaving the closure.  Every state reached
        # also reaches a final state, because validate has every box reach
        # FINAL, so none needs pruning.
        order: dict[int, int] = {init: 0}
        queue = [init]
        transitions: list[tuple[int, str, str, int]] = []
        final_outputs: dict[int, tuple[str, ...]] = {}
        for s in queue:  # also walks the states appended on the way
            outs: list[str] = []
            pushed: set[tuple[int, str, str, int]] = set()
            for r, w in _epsilon_closure(eps, s):
                if r == accept and w not in outs:
                    outs.append(w)
                for _, sym, o, dst in arcs.get(r, ()):
                    if dst not in order:
                        order[dst] = len(order)
                        queue.append(dst)
                    arc = (order[s], sym, w + o, order[dst])
                    if arc not in pushed:
                        pushed.add(arc)
                        transitions.append(arc)
            if outs:
                final_outputs[order[s]] = tuple(outs)
    except (CompileOverflow, EpsilonCycle) as exc:
        raise type(exc)(f"graph {g.name!r}: {exc}") from None

    if 0 in final_outputs:
        raise EpsilonOnlyPath(f"graph {g.name!r} accepts the empty input")
    return Fst(
        name=g.name,
        tag=g.tag,
        n_states=len(order),
        initial=0,
        final_outputs=final_outputs,
        transitions=tuple(transitions),
    )
