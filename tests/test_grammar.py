import random

import pytest

from lggnorm.fst import compile_graph, CompileError, EpsilonOnlyPath
from lggnorm.grammar import (
    BoxKind,
    DiagnosticCode,
    DuplicateBoxId,
    DuplicateInitial,
    GraphSyntaxError,
    LabelKind,
    MissingFinal,
    MissingInitial,
    parse_graph,
    parse_graph_library,
    print_graph,
    validate,
)
from oracles import random_graph_text, validate_by_recursion

CHOCOLATE = """\
GRAPH Choco TAG LOAN
0 INITIAL -> 2
2 "초콜렛|쪼꼬렛|초코렛|초코레트" / "초콜릿" -> 1
1 FINAL
"""


def test_parse_chocolate_graph():
    g = parse_graph(CHOCOLATE)
    assert g.name == "Choco" and g.tag == "LOAN"
    assert len(g.boxes) == 3
    box = g.boxes[2]
    assert box.kind is BoxKind.PLAIN
    assert [l.payload for l in box.alternatives] == ["초콜렛", "쪼꼬렛", "초코렛", "초코레트"]
    assert box.output == "초콜릿"
    assert box.successors == (1,)


def test_two_initials_is_duplicate_not_missing():
    text = "GRAPH G TAG T\n0 INITIAL -> 2\n1 INITIAL -> 2\n2 FINAL\n"
    with pytest.raises(DuplicateInitial):
        parse_graph(text)


def test_missing_initial_and_final():
    with pytest.raises(MissingInitial):
        parse_graph("GRAPH G TAG T\n1 FINAL\n")
    with pytest.raises(MissingFinal):
        parse_graph("GRAPH G TAG T\n0 INITIAL -> 0\n")


def test_duplicate_box_id():
    text = 'GRAPH G TAG T\n0 INITIAL -> 1\n1 "a" -> 2\n1 "b" -> 2\n2 FINAL\n'
    with pytest.raises(DuplicateBoxId):
        parse_graph(text)


def test_subgraph_label():
    g = parse_graph("GRAPH G TAG T\n0 INITIAL -> 5\n5 :Variants -> 1\n1 FINAL\n")
    label = g.boxes[5].alternatives[0]
    assert label.kind is LabelKind.SUBGRAPH and label.payload == "Variants"


def test_mask_and_epsilon_labels():
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1,2\n1 <N> -> 9\n2 <E> -> 9\n9 FINAL\n')
    assert g.boxes[1].alternatives[0].kind is LabelKind.MASK
    assert g.boxes[1].alternatives[0].payload == "N"
    assert g.boxes[2].alternatives[0].kind is LabelKind.EPSILON


def test_unknown_mask_pos_is_syntax_error():
    with pytest.raises(GraphSyntaxError):
        parse_graph("GRAPH G TAG T\n0 INITIAL -> 1\n1 <NOUN> -> 9\n9 FINAL\n")


def test_empty_alternative_rejected():
    with pytest.raises(GraphSyntaxError):
        parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 "a||b" -> 9\n9 FINAL\n')


def test_final_with_successors_rejected():
    with pytest.raises(GraphSyntaxError):
        parse_graph("GRAPH G TAG T\n0 INITIAL -> 1\n1 FINAL -> 0\n")


def test_output_on_initial_rejected():
    with pytest.raises(GraphSyntaxError):
        parse_graph('GRAPH G TAG T\n0 INITIAL / "x" -> 1\n1 FINAL\n')


def test_parse_library_multiple_graphs():
    text = CHOCOLATE + "\nGRAPH Other TAG T\n0 INITIAL -> 1\n1 FINAL\n"
    graphs = parse_graph_library(text)
    assert [g.name for g in graphs] == ["Choco", "Other"]


def test_print_parse_round_trip():
    g = parse_graph(CHOCOLATE)
    assert parse_graph(print_graph(g)) == g


def test_print_parse_round_trip_random():
    rng = random.Random(3)
    for _ in range(50):
        g = parse_graph(random_graph_text(rng))
        assert parse_graph(print_graph(g)) == g


def test_validate_clean_graph():
    assert validate(parse_graph(CHOCOLATE)) == []


def test_validate_bundled_library(library):
    for g in library.graphs:
        assert validate(g, library.graphs) == []


def test_dangling_successor():
    text = 'GRAPH G TAG T\n0 INITIAL -> 1\n1 "a" -> 99,9\n9 FINAL\n'
    diags = validate(parse_graph(text))
    assert [d.code for d in diags] == [DiagnosticCode.DANGLING_SUCCESSOR]
    assert diags[0].detail == ("99",)


def test_unreachable_and_dead_end():
    text = ('GRAPH G TAG T\n0 INITIAL -> 1\n1 "a" -> 9\n'
            '2 "b" -> 9\n3 "c" -> 3\n9 FINAL\n')
    codes = {(d.code, d.box_id) for d in validate(parse_graph(text))}
    assert (DiagnosticCode.UNREACHABLE_BOX, 2) in codes
    assert (DiagnosticCode.UNREACHABLE_BOX, 3) in codes
    assert (DiagnosticCode.FINAL_UNREACHABLE, 3) in codes


def test_unknown_subgraph():
    text = "GRAPH G TAG T\n0 INITIAL -> 1\n1 :Nowhere -> 9\n9 FINAL\n"
    diags = validate(parse_graph(text))
    assert any(d.code is DiagnosticCode.UNKNOWN_SUBGRAPH for d in diags)


def test_recursive_call_cycle():
    a = parse_graph("GRAPH A TAG T\n0 INITIAL -> 1\n1 :B -> 9\n9 FINAL\n")
    b = parse_graph("GRAPH B TAG T\n0 INITIAL -> 1\n1 :A -> 9\n9 FINAL\n")
    diags = validate(a, [a, b])
    recursive = [d for d in diags if d.code is DiagnosticCode.RECURSIVE_CALL]
    assert recursive and set(recursive[0].detail) == {"A", "B"}


def test_validation_soundness_random():
    """Zero diagnostics implies the graph compiles (or is epsilon-only)."""
    rng = random.Random(21)
    compiled = 0
    for _ in range(120):
        g = parse_graph(random_graph_text(rng))
        if validate(g):
            continue
        try:
            compile_graph(g)
            compiled += 1
        except EpsilonOnlyPath:
            pass  # rejected by design, not a validation concern
        except CompileError as exc:  # pragma: no cover
            raise AssertionError(f"clean graph failed to compile: {exc}")
    assert compiled > 30


def test_validate_matches_recursive_validate():
    """Libraries of four graphs calling any of five names (one missing),
    so cycles and unknown subgraphs occur: the same diagnostics in the
    same order."""
    rng = random.Random(8)
    names = ("G0", "G1", "G2", "G3")
    found = set()
    for _ in range(200):
        lib = [parse_graph(random_graph_text(rng, name=name, tag="T", max_boxes=6,
                                             subgraphs=names + ("Missing",)))
               for name in names]
        diags = validate(lib[0], lib)
        assert diags == validate_by_recursion(lib[0], lib)
        found.update(d.code for d in diags)
    assert {DiagnosticCode.RECURSIVE_CALL, DiagnosticCode.UNKNOWN_SUBGRAPH} <= found
