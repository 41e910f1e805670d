"""Local grammar graphs: a line-based text format and its validation.

A graph is a header plus one line per box::

    GRAPH Loan TAG LOAN
    0 INITIAL -> 1,2
    1 "초콜렛|초코렛" / "초콜릿" -> 9
    2 <N> -> 9
    9 FINAL

Label specs: ``"alt1|alt2"`` literal alternatives, ``<POS>`` a
part-of-speech mask, ``:Name`` a subgraph call, ``<E>`` epsilon wiring.
``/ "output"`` attaches a transduction output to the box; a tag matches
TAG_PATTERN.  ``#`` starts a comment line; blank lines are ignored.

A text that does not parse raises GraphSyntaxError, which carries the
line, when one line is at fault, and GraphError otherwise: a graph with
no INITIAL or no FINAL box, or a text with no graph.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple

from .lexicon import POS_NAMES


class GraphError(ValueError):
    """Base class for grammar file errors."""


class GraphSyntaxError(GraphError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class LabelKind(enum.Enum):
    LITERAL = "literal"
    MASK = "mask"
    SUBGRAPH = "subgraph"
    EPSILON = "epsilon"


class Label(NamedTuple("Label", [("kind", LabelKind), ("payload", str)])):
    """One alternative of a box.  The rules of a well-formed label live
    here, so a parsed box and one built in code are checked alike: a
    literal is non-empty, a mask names a part of speech and an epsilon
    carries nothing.  The parser adds the line number."""

    __slots__ = ()

    def __new__(cls, kind: LabelKind, payload: str = ""):
        if kind is LabelKind.LITERAL and not payload:
            raise GraphError("empty literal alternative (use <E>)")
        if kind is LabelKind.MASK and payload not in POS_NAMES:
            raise GraphError(f"unknown POS mask <{payload}>")
        if kind is LabelKind.EPSILON and payload:
            raise GraphError("epsilon label carries no payload")
        return super().__new__(cls, kind, payload)

    @classmethod
    def _make(cls, fields):  # so _replace checks the new label too
        return cls(*fields)


class BoxKind(enum.Enum):
    INITIAL = "INITIAL"
    FINAL = "FINAL"
    PLAIN = "PLAIN"


class Box(NamedTuple):
    id: int
    kind: BoxKind
    alternatives: tuple[Label, ...] = ()
    output: str | None = None
    successors: tuple[int, ...] = ()


class GraphIR(NamedTuple):
    name: str
    tag: str
    boxes: dict[int, Box]

    @property
    def initial(self) -> Box:
        return next(b for b in self.boxes.values() if b.kind is BoxKind.INITIAL)

    @property
    def final(self) -> Box:
        return next(b for b in self.boxes.values() if b.kind is BoxKind.FINAL)

    def subgraph_names(self) -> tuple[str, ...]:
        names = []
        for box in self.boxes.values():
            for lab in box.alternatives:
                if lab.kind is LabelKind.SUBGRAPH and lab.payload not in names:
                    names.append(lab.payload)
        return tuple(names)


# the shape of a tag, which MERGE output writes and apply.strip_merge reads
TAG_PATTERN = "[A-Z][A-Z0-9_]*"
_HEADER_RE = re.compile(r"^GRAPH\s+(\S+)\s+TAG\s+(\S+)$")
_BOX_RE = re.compile(
    r"""^(?P<id>\d+)\s+
        (?P<spec>INITIAL|FINAL|"[^"]*"|<[A-Za-z]+>|:\S+)
        (?:\s*/\s*"(?P<output>[^"]*)")?
        (?:\s*->\s*(?P<succ>\d+(?:\s*,\s*\d+)*))?
        \s*$""",
    re.VERBOSE,
)


def _parse_label_spec(spec: str) -> tuple[Label, ...]:
    if spec.startswith('"'):
        return tuple(Label(LabelKind.LITERAL, a) for a in spec[1:-1].split("|"))
    if spec == "<E>":
        return (Label(LabelKind.EPSILON),)
    if spec.startswith("<"):
        return (Label(LabelKind.MASK, spec[1:-1]),)
    return (Label(LabelKind.SUBGRAPH, spec[1:]),)


def parse_graph(text: str) -> GraphIR:
    """Parse exactly one graph; see module docstring for the format."""
    graphs = parse_graph_library(text)
    if len(graphs) != 1:
        raise GraphError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def parse_graph_library(text: str) -> list[GraphIR]:
    """Parse a file that may contain several GRAPH sections."""
    graphs: list[GraphIR] = []
    name = tag = None
    boxes: dict[int, Box] = {}
    initial_line = final_line = None
    header_line = 0

    def finish():
        nonlocal boxes, initial_line, final_line
        if name is not None:
            if initial_line is None:
                raise GraphError(f"graph {name!r} (line {header_line}) has no INITIAL box")
            if final_line is None:
                raise GraphError(f"graph {name!r} (line {header_line}) has no FINAL box")
            graphs.append(GraphIR(name, tag, boxes))
        boxes = {}
        initial_line = final_line = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER_RE.match(line)
        if m:
            finish()
            name, tag = m.group(1), m.group(2)
            if not re.fullmatch(TAG_PATTERN, tag):
                raise GraphSyntaxError(lineno, f"tag {tag!r} does not match {TAG_PATTERN}")
            header_line = lineno
            continue
        if name is None:
            raise GraphSyntaxError(lineno, "box line before GRAPH header")
        m = _BOX_RE.match(line)
        if m is None:
            raise GraphSyntaxError(lineno, f"cannot parse box line {line!r}")
        box_id = int(m.group("id"))
        if box_id in boxes:
            raise GraphSyntaxError(lineno, f"duplicate box id {box_id}")
        spec = m.group("spec")
        output = m.group("output")
        succ = tuple(int(s.strip()) for s in m.group("succ").split(",")) if m.group("succ") else ()

        if spec == "INITIAL":
            if initial_line is not None:
                raise GraphSyntaxError(lineno, "second INITIAL box")
            if output is not None:
                raise GraphSyntaxError(lineno, "INITIAL box cannot carry an output")
            initial_line = lineno
            boxes[box_id] = Box(box_id, BoxKind.INITIAL, (), None, succ)
        elif spec == "FINAL":
            if final_line is not None:
                raise GraphSyntaxError(lineno, "second FINAL box")
            if output is not None or succ:
                raise GraphSyntaxError(lineno, "FINAL box carries no output or successors")
            final_line = lineno
            boxes[box_id] = Box(box_id, BoxKind.FINAL)
        else:
            try:
                labels = _parse_label_spec(spec)
            except GraphError as exc:
                raise GraphSyntaxError(lineno, str(exc)) from exc
            boxes[box_id] = Box(box_id, BoxKind.PLAIN, labels, output, succ)

    finish()
    if not graphs:
        raise GraphError("no GRAPH header found")
    return graphs


class DiagnosticCode(enum.Enum):
    UNREACHABLE_BOX = "unreachable-box"
    FINAL_UNREACHABLE = "final-unreachable"
    DANGLING_SUCCESSOR = "dangling-successor"
    UNKNOWN_SUBGRAPH = "unknown-subgraph"
    RECURSIVE_CALL = "recursive-call"


class Diagnostic(NamedTuple):
    code: DiagnosticCode
    message: str
    graph: str = ""
    box_id: int | None = None
    detail: tuple[str, ...] = ()

    def __str__(self):
        return f"{self.graph}: {self.code.value}: {self.message}"


def _library_by_name(library) -> dict[str, GraphIR]:
    if isinstance(library, dict):
        return dict(library)
    return {g.name: g for g in library}


def reachable(starts, successors) -> set:
    """Every node reached from ``starts``, included, along ``successors``:
    a dict from a node to its successors (none for a node it lacks).
    Iterative, so a long chain costs no interpreter frames."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in successors.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _validate_structure(g: GraphIR) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    preds: dict[int, list[int]] = {}
    for box in g.boxes.values():
        for succ in box.successors:
            preds.setdefault(succ, []).append(box.id)
            if succ not in g.boxes:
                diags.append(Diagnostic(
                    DiagnosticCode.DANGLING_SUCCESSOR,
                    f"box {box.id} points to missing box {succ}",
                    graph=g.name, box_id=box.id, detail=(str(succ),)))
    succs = {box.id: box.successors for box in g.boxes.values()}
    for reached, code, message in (
            (reachable([g.initial.id], succs), DiagnosticCode.UNREACHABLE_BOX,
             "is unreachable from INITIAL"),
            (reachable([g.final.id], preds), DiagnosticCode.FINAL_UNREACHABLE,
             "cannot reach FINAL")):
        for box_id in sorted(g.boxes):
            if box_id not in reached:
                diags.append(Diagnostic(code, f"box {box_id} {message}",
                                        graph=g.name, box_id=box_id))
    return diags


def validate(g: GraphIR, library=()) -> list[Diagnostic]:
    """Structural diagnostics for a graph and every subgraph it can call;
    an empty list means the graph compiles."""
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    diags: list[Diagnostic] = []

    # the call path from g, innermost last: each graph on it maps to its
    # callees not yet visited, so a membership test costs O(1) at any depth
    path: dict[str, Iterator[str]] = {}
    visited: set[str] = set()  # expanded graphs and reported unknown names

    # each graph is expanded once and names each callee once, so each
    # call edge, recursive or not, is met once
    def visit(name: str):
        if name in path:
            edge = (next(reversed(path)), name)
            diags.append(Diagnostic(
                DiagnosticCode.RECURSIVE_CALL,
                f"recursive subgraph call {edge[0]} -> {edge[1]}",
                graph=g.name, detail=edge))
            return
        if name in visited:
            return
        visited.add(name)
        graph = lib.get(name)
        if graph is None:
            diags.append(Diagnostic(
                DiagnosticCode.UNKNOWN_SUBGRAPH,
                f"subgraph {name!r} is not in the library",
                graph=next(reversed(path), g.name), detail=(name,)))
            return
        diags.extend(_validate_structure(graph))
        path[name] = iter(graph.subgraph_names())

    # depth first over the call graph, from the path itself
    visit(g.name)
    while path:
        callee = next(path[next(reversed(path))], None)
        if callee is None:
            path.popitem()
        else:
            visit(callee)
    return diags


def root_graphs(graphs: list[GraphIR]) -> list[GraphIR]:
    """The graphs applied to text: those no graph calls, then those no
    such root reaches, each in library order.  Callers of the latter are
    unreached too, so following them back meets a recursive call, which
    validation reports.  Two graphs of one name raise GraphError."""
    calls: dict[str, tuple[str, ...]] = {}
    for g in graphs:
        if g.name in calls:
            raise GraphError(f"two graphs are named {g.name!r}")
        calls[g.name] = g.subgraph_names()
    called = {name for names in calls.values() for name in names}
    roots = [g for g in graphs if g.name not in called]
    reached = reachable([g.name for g in roots], calls)
    return roots + [g for g in graphs if g.name not in reached]


def load_grammar_file(path) -> list[GraphIR]:
    """The graphs of a grammar file, less a leading byte order mark; a file
    that is not UTF-8 or does not parse raises GraphError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse_graph_library(fh.read())
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 ({exc})") from exc
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc
