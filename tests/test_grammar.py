import random
import re

import pytest

from lggnorm.fst import compile_graph, CompileError, EpsilonOnlyPath
from lggnorm.grammar import (
    BoxKind,
    DiagnosticCode,
    GraphError,
    GraphSyntaxError,
    TAG_PATTERN,
    Label,
    LabelKind,
    load_grammar_file,
    parse_graph,
    parse_graph_library,
    root_graphs,
    validate,
)
from oracles import box_reachability_by_fixed_point, random_graph_text, validate_by_recursion

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


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_two_initials_is_duplicate_not_missing():
    text = "GRAPH G TAG T\n0 INITIAL -> 2\n1 INITIAL -> 2\n2 FINAL\n"
    with pytest.raises(GraphSyntaxError, match=exactly("line 3: second INITIAL box")) as exc:
        parse_graph(text)
    assert exc.value.line == 3


def test_two_finals_is_a_syntax_error():
    text = "GRAPH G TAG T\n0 INITIAL -> 1\n1 FINAL\n2 FINAL\n"
    with pytest.raises(GraphSyntaxError, match=exactly("line 4: second FINAL box")) as exc:
        parse_graph(text)
    assert exc.value.line == 4


def test_missing_initial_and_final():
    # no one line is at fault, so these are plain GraphErrors
    with pytest.raises(GraphError, match=exactly("graph 'G' (line 1) has no INITIAL box")) as exc:
        parse_graph("GRAPH G TAG T\n1 FINAL\n")
    assert type(exc.value) is GraphError
    with pytest.raises(GraphError, match=exactly("graph 'G' (line 1) has no FINAL box")) as exc:
        parse_graph("GRAPH G TAG T\n0 INITIAL -> 0\n")
    assert type(exc.value) is GraphError


def test_duplicate_box_id():
    text = 'GRAPH G TAG T\n0 INITIAL -> 1\n1 "a" -> 2\n1 "b" -> 2\n2 FINAL\n'
    with pytest.raises(GraphSyntaxError, match=exactly("line 4: duplicate box id 1")) as exc:
        parse_graph(text)
    assert exc.value.line == 4


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


@pytest.mark.parametrize("spec, message", [
    ('"a||b"', "line 3: empty literal alternative (use <E>)"),
    ('""', "line 3: empty literal alternative (use <E>)"),
    ("<NOUN>", "line 3: unknown POS mask <NOUN>"),
])
def test_label_errors_carry_the_line(spec, message):
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph(f"GRAPH G TAG T\n0 INITIAL -> 1\n1 {spec} -> 9\n9 FINAL\n")
    assert str(exc.value) == message


@pytest.mark.parametrize("kind, payload, message", [
    (LabelKind.LITERAL, "", "empty literal alternative (use <E>)"),
    (LabelKind.MASK, "NOUN", "unknown POS mask <NOUN>"),
    (LabelKind.EPSILON, "x", "epsilon label carries no payload"),
])
def test_label_checks_itself(kind, payload, message):
    with pytest.raises(GraphError) as exc:
        Label(kind, payload)
    assert str(exc.value) == message


def test_root_graphs_reject_a_repeated_name():
    graphs = parse_graph_library(CHOCOLATE + CHOCOLATE.replace("Choco", "Other"))
    assert [g.name for g in root_graphs(graphs)] == ["Choco", "Other"]
    with pytest.raises(GraphError, match="two graphs are named 'Choco'"):
        root_graphs(graphs + graphs[:1])


def test_parse_graph_takes_exactly_one_graph():
    with pytest.raises(GraphError, match=exactly("expected exactly one graph, found 2")):
        parse_graph(CHOCOLATE + CHOCOLATE.replace("Choco", "Other"))


def test_final_with_successors_rejected():
    with pytest.raises(GraphSyntaxError):
        parse_graph("GRAPH G TAG T\n0 INITIAL -> 1\n1 FINAL -> 0\n")


def test_output_on_initial_rejected():
    with pytest.raises(GraphSyntaxError):
        parse_graph('GRAPH G TAG T\n0 INITIAL / "x" -> 1\n1 FINAL\n')


def test_grammar_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "choco.lgg"
    path.write_bytes(("\ufeff" + CHOCOLATE).encode())
    assert load_grammar_file(path) == [parse_graph(CHOCOLATE)]


def test_parse_library_multiple_graphs():
    text = CHOCOLATE + "\nGRAPH Other TAG T\n0 INITIAL -> 1\n1 FINAL\n"
    graphs = parse_graph_library(text)
    assert [g.name for g in graphs] == ["Choco", "Other"]


def test_validate_clean_graph():
    assert validate(parse_graph(CHOCOLATE)) == []


def test_validate_bundled_library(graphs):
    for g in graphs:
        assert validate(g, graphs) == []


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


def test_validate_reports_each_diagnostic_once():
    """Libraries of one to six graphs, each free to call itself, any other
    or a missing name: no diagnostic comes twice, although validate keeps
    no record of the recursive calls it reported."""
    rng = random.Random(14)
    recursive = 0
    for _ in range(500):
        names = tuple(f"G{i}" for i in range(rng.randint(1, 6)))
        lib = [parse_graph(random_graph_text(rng, name=name, tag="T", max_boxes=6,
                                             subgraphs=names + ("Missing",)))
               for name in names]
        for g in lib:
            diags = validate(g, lib)
            assert len(set(diags)) == len(diags)
            recursive += sum(d.code is DiagnosticCode.RECURSIVE_CALL for d in diags)
    assert recursive > 100


def test_box_walks_match_fixed_point():
    """unreachable-box and final-unreachable name exactly the boxes a
    fixed-point sweep leaves out, also once one box's successors are
    rewired to a missing box or back to an earlier one."""
    rng = random.Random(12)
    found = set()
    for _ in range(300):
        lines = random_graph_text(rng).splitlines()
        if rng.random() < 0.7:  # lines[1:-1] are INITIAL and the plain boxes
            k = rng.randrange(1, len(lines) - 1)
            head = lines[k].split("->")[0].rstrip()
            lines[k] = f"{head} -> {rng.choice(('99', '0', '1', '1,99', '2'))}"
        g = parse_graph("\n".join(lines) + "\n")
        reach, coreach = box_reachability_by_fixed_point(g)
        diags = validate(g)
        assert [d.box_id for d in diags if d.code is DiagnosticCode.UNREACHABLE_BOX] \
            == sorted(set(g.boxes) - reach)
        assert [d.box_id for d in diags if d.code is DiagnosticCode.FINAL_UNREACHABLE] \
            == sorted(set(g.boxes) - coreach)
        found.update(d.code for d in diags)
    assert {DiagnosticCode.UNREACHABLE_BOX, DiagnosticCode.FINAL_UNREACHABLE,
            DiagnosticCode.DANGLING_SUCCESSOR} <= found


def test_root_graphs_append_the_graphs_no_root_reaches():
    """A self-call and a two-graph cycle no root reaches follow the
    roots, in library order; validating them reports the recursion."""
    texts = {
        "Loop": "GRAPH Loop TAG T\n0 INITIAL -> 1\n1 :Loop -> 2\n2 FINAL\n",
        "A": "GRAPH A TAG T\n0 INITIAL -> 1\n1 :B -> 2\n2 FINAL\n",
        "Root": "GRAPH Root TAG T\n0 INITIAL -> 1\n1 :Help -> 2\n2 FINAL\n",
        "B": "GRAPH B TAG T\n0 INITIAL -> 1\n1 :A -> 2\n2 FINAL\n",
        "Help": CHOCOLATE.replace("Choco", "Help"),
    }
    graphs = parse_graph_library("".join(texts.values()))
    roots = root_graphs(graphs)
    assert [g.name for g in roots] == ["Root", "Loop", "A", "B"]
    assert validate(roots[0], graphs) == []
    for g in roots[1:]:
        assert [d.code for d in validate(g, graphs)] == [DiagnosticCode.RECURSIVE_CALL]


@pytest.mark.parametrize("tag", ["joy-1", "joy", "Joy", "1JOY", "JOY-1", "JÖY"])
def test_tag_outside_the_tag_pattern_is_rejected(tag):
    text = f'# laughs\nGRAPH J TAG {tag}\n0 INITIAL -> 1\n1 "ㅋㅋ" / "웃음" -> 2\n2 FINAL\n'
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph(text)
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: tag {tag!r} does not match {TAG_PATTERN}"
