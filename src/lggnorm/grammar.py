"""Local grammar graphs: a line-based text format and its validation.

A graph is a header plus one line per box::

    GRAPH Loan TAG LOAN
    0 INITIAL -> 1,2
    1 "초콜렛|초코렛" / "초콜릿" -> 9
    2 <N> -> 9
    9 FINAL

Label specs: ``"alt1|alt2"`` literal alternatives, ``<POS>`` a
part-of-speech mask, ``:Name`` a subgraph call, ``<E>`` epsilon wiring.
``/ "output"`` attaches a transduction output to the box.  ``#`` starts
a comment line; blank lines are ignored.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterator

from .lexicon import POS_NAMES


class GraphError(ValueError):
    """Base class for grammar file errors."""


class GraphSyntaxError(GraphError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateBoxId(GraphError):
    def __init__(self, line: int, box_id: int):
        self.line = line
        self.box_id = box_id
        super().__init__(f"line {line}: duplicate box id {box_id}")


class MissingInitial(GraphError):
    pass


class DuplicateInitial(GraphError):
    def __init__(self, line: int):
        self.line = line
        super().__init__(f"line {line}: second INITIAL box")


class MissingFinal(GraphError):
    pass


class DuplicateFinal(GraphError):
    def __init__(self, line: int):
        self.line = line
        super().__init__(f"line {line}: second FINAL box")


class LabelKind(enum.Enum):
    LITERAL = "literal"
    MASK = "mask"
    SUBGRAPH = "subgraph"
    EPSILON = "epsilon"


@dataclass(frozen=True)
class Label:
    kind: LabelKind
    payload: str = ""

    def __post_init__(self):
        if self.kind is LabelKind.LITERAL and not self.payload:
            raise GraphError("literal label must be non-empty")
        if self.kind is LabelKind.MASK and self.payload not in POS_NAMES:
            raise GraphError(f"mask payload {self.payload!r} is not a POS")
        if self.kind is LabelKind.EPSILON and self.payload:
            raise GraphError("epsilon label carries no payload")


class BoxKind(enum.Enum):
    INITIAL = "INITIAL"
    FINAL = "FINAL"
    PLAIN = "PLAIN"


@dataclass(frozen=True)
class Box:
    id: int
    kind: BoxKind
    alternatives: tuple[Label, ...] = ()
    output: str | None = None
    successors: tuple[int, ...] = ()


@dataclass(frozen=True)
class GraphIR:
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


_HEADER_RE = re.compile(r"^GRAPH\s+(\S+)\s+TAG\s+(\S+)$")
_BOX_RE = re.compile(
    r"""^(?P<id>\d+)\s+
        (?P<spec>INITIAL|FINAL|"[^"]*"|<[A-Za-z]+>|:\S+)
        (?:\s*/\s*"(?P<output>[^"]*)")?
        (?:\s*->\s*(?P<succ>\d+(?:\s*,\s*\d+)*))?
        \s*$""",
    re.VERBOSE,
)


def _parse_label_spec(spec: str, lineno: int) -> tuple[Label, ...]:
    if spec.startswith('"'):
        body = spec[1:-1]
        alts = body.split("|")
        if any(not a for a in alts):
            raise GraphSyntaxError(lineno, "empty literal alternative (use <E>)")
        return tuple(Label(LabelKind.LITERAL, a) for a in alts)
    if spec == "<E>":
        return (Label(LabelKind.EPSILON),)
    if spec.startswith("<"):
        pos = spec[1:-1]
        if pos not in POS_NAMES:
            raise GraphSyntaxError(lineno, f"unknown POS mask {spec}")
        return (Label(LabelKind.MASK, pos),)
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
                raise MissingInitial(f"graph {name!r} (line {header_line}) has no INITIAL box")
            if final_line is None:
                raise MissingFinal(f"graph {name!r} (line {header_line}) has no FINAL box")
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
            header_line = lineno
            continue
        if name is None:
            raise GraphSyntaxError(lineno, "box line before GRAPH header")
        m = _BOX_RE.match(line)
        if m is None:
            raise GraphSyntaxError(lineno, f"cannot parse box line {line!r}")
        box_id = int(m.group("id"))
        if box_id in boxes:
            raise DuplicateBoxId(lineno, box_id)
        spec = m.group("spec")
        output = m.group("output")
        succ = tuple(int(s.strip()) for s in m.group("succ").split(",")) if m.group("succ") else ()

        if spec == "INITIAL":
            if initial_line is not None:
                raise DuplicateInitial(lineno)
            if output is not None:
                raise GraphSyntaxError(lineno, "INITIAL box cannot carry an output")
            initial_line = lineno
            boxes[box_id] = Box(box_id, BoxKind.INITIAL, (), None, succ)
        elif spec == "FINAL":
            if final_line is not None:
                raise DuplicateFinal(lineno)
            if output is not None or succ:
                raise GraphSyntaxError(lineno, "FINAL box carries no output or successors")
            final_line = lineno
            boxes[box_id] = Box(box_id, BoxKind.FINAL)
        else:
            try:
                labels = _parse_label_spec(spec, lineno)
            except GraphError as exc:
                if isinstance(exc, GraphSyntaxError):
                    raise
                raise GraphSyntaxError(lineno, str(exc)) from exc
            boxes[box_id] = Box(box_id, BoxKind.PLAIN, labels, output, succ)

    finish()
    if not graphs:
        raise GraphError("no GRAPH header found")
    return graphs


def print_graph(g: GraphIR) -> str:
    """Render a GraphIR back to its text form (parse/print round-trips)."""
    lines = [f"GRAPH {g.name} TAG {g.tag}"]
    for box_id in sorted(g.boxes):
        box = g.boxes[box_id]
        if box.kind is BoxKind.INITIAL:
            spec = "INITIAL"
        elif box.kind is BoxKind.FINAL:
            spec = "FINAL"
        else:
            first = box.alternatives[0]
            if first.kind is LabelKind.LITERAL:
                spec = '"' + "|".join(l.payload for l in box.alternatives) + '"'
            elif first.kind is LabelKind.MASK:
                spec = f"<{first.payload}>"
            elif first.kind is LabelKind.EPSILON:
                spec = "<E>"
            else:
                spec = f":{first.payload}"
        parts = [str(box_id), spec]
        if box.output is not None:
            parts.append(f'/ "{box.output}"')
        if box.successors:
            parts.append("-> " + ",".join(str(s) for s in box.successors))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


class DiagnosticCode(enum.Enum):
    UNREACHABLE_BOX = "unreachable-box"
    FINAL_UNREACHABLE = "final-unreachable"
    DANGLING_SUCCESSOR = "dangling-successor"
    UNKNOWN_SUBGRAPH = "unknown-subgraph"
    RECURSIVE_CALL = "recursive-call"


@dataclass(frozen=True)
class Diagnostic:
    code: DiagnosticCode
    message: str
    graph: str = ""
    box_id: int | None = None
    detail: tuple[str, ...] = field(default=())

    def __str__(self):
        return f"{self.graph}: {self.code.value}: {self.message}"


def _library_by_name(library) -> dict[str, GraphIR]:
    if isinstance(library, dict):
        return dict(library)
    return {g.name: g for g in library}


def _validate_structure(g: GraphIR) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for box in g.boxes.values():
        for succ in box.successors:
            if succ not in g.boxes:
                diags.append(Diagnostic(
                    DiagnosticCode.DANGLING_SUCCESSOR,
                    f"box {box.id} points to missing box {succ}",
                    graph=g.name, box_id=box.id, detail=(str(succ),)))

    # forward reachability from INITIAL
    reach = set()
    stack = [g.initial.id]
    while stack:
        b = stack.pop()
        if b in reach:
            continue
        reach.add(b)
        stack.extend(s for s in g.boxes[b].successors if s in g.boxes)
    for box_id in sorted(g.boxes):
        if box_id not in reach:
            diags.append(Diagnostic(
                DiagnosticCode.UNREACHABLE_BOX,
                f"box {box_id} is unreachable from INITIAL",
                graph=g.name, box_id=box_id))

    # backward reachability from FINAL
    rev: dict[int, list[int]] = {b: [] for b in g.boxes}
    for box in g.boxes.values():
        for succ in box.successors:
            if succ in rev:
                rev[succ].append(box.id)
    coreach = set()
    stack = [g.final.id]
    while stack:
        b = stack.pop()
        if b in coreach:
            continue
        coreach.add(b)
        stack.extend(rev[b])
    for box_id in sorted(g.boxes):
        if box_id not in coreach:
            diags.append(Diagnostic(
                DiagnosticCode.FINAL_UNREACHABLE,
                f"box {box_id} cannot reach FINAL",
                graph=g.name, box_id=box_id))
    return diags


def validate(g: GraphIR, library=()) -> list[Diagnostic]:
    """Structural diagnostics for a graph and every subgraph it can call;
    an empty list means the graph compiles."""
    lib = _library_by_name(library)
    lib.setdefault(g.name, g)
    diags: list[Diagnostic] = []

    missing_reported = set()
    visiting: list[str] = []  # the call path from g, innermost last
    callees: list[Iterator[str]] = []  # callees left to visit, one per path entry
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
        callees.append(iter(graph.subgraph_names()))

    # depth first over the call graph, from an explicit stack
    visit(g.name)
    while callees:
        callee = next(callees[-1], None)
        if callee is None:
            callees.pop()
            visiting.pop()
        else:
            visit(callee)
    return diags


def load_grammar_file(path) -> list[GraphIR]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_library(fh.read())
