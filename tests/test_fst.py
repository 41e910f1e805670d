import random
from collections import Counter

import pytest

from lggnorm.fst import (
    CompileError,
    CompileOverflow,
    EpsilonCycle,
    EpsilonOnlyPath,
    GraphValidationError,
    TOKEN_BOUNDARY,
    compile_graph,
)
from lggnorm.grammar import parse_graph
from oracles import (compile_graph_by_recursion, compile_graph_in_passes, enumerate_paths,
                     random_cyclic_graph_text, random_graph_text, relation, text_to_symbols)

CHOCOLATE = """\
GRAPH Choco TAG LOAN
0 INITIAL -> 2
2 "초콜렛|쪼꼬렛|초코렛|초코레트" / "초콜릿" -> 1
1 FINAL
"""


def machine_relation_text(fst, max_len):
    return {("".join(syms), out) for syms, out in relation(fst, max_len)}


def ir_relation_text(g, library, max_len):
    return {("".join(text_to_symbols(inp)), out)
            for inp, out in enumerate_paths(g, library, max_len)}


def test_chocolate_relation():
    g = parse_graph(CHOCOLATE)
    fst = compile_graph(g)
    expected = {("초콜렛", "초콜릿"), ("쪼꼬렛", "초콜릿"),
                ("초코렛", "초콜릿"), ("초코레트", "초콜릿")}
    got = {("".join(syms), out) for syms, out in relation(fst, 12)}
    rendered = {("".join(text_to_symbols(i)), o) for i, o in expected}
    assert got == rendered


def test_enumerate_chocolate():
    g = parse_graph(CHOCOLATE)
    assert enumerate_paths(g, max_input_len=10) == {
        ("초콜렛", "초콜릿"), ("쪼꼬렛", "초콜릿"),
        ("초코렛", "초콜릿"), ("초코레트", "초콜릿")}


def test_enumerate_mask_path():
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 <N> -> 2\n2 "이" -> 9\n9 FINAL\n')
    assert enumerate_paths(g, max_input_len=10) == {("<N>이", "")}


def test_enumerate_zero_budget():
    g = parse_graph(CHOCOLATE)
    assert enumerate_paths(g, max_input_len=0) == set()


def test_no_epsilon_inputs_remain(library):
    for fst in library.fsts:
        for _, sym, _, _ in fst.transitions:
            assert sym != ""


def test_epsilon_only_path_rejected():
    g = parse_graph("GRAPH G TAG T\n0 INITIAL -> 1\n1 <E> -> 9\n9 FINAL\n")
    with pytest.raises(EpsilonOnlyPath):
        compile_graph(g)


def test_epsilon_output_carried_to_final():
    text = ('GRAPH G TAG T\n0 INITIAL -> 1\n1 "가" -> 2\n'
            '2 <E> / "x" -> 9\n9 FINAL\n')
    g = parse_graph(text)
    fst = compile_graph(g)
    assert machine_relation_text(fst, 4) == ir_relation_text(g, [], 4)
    assert enumerate_paths(g, max_input_len=4) == {("가", "x")}


def test_epsilon_cycle_with_output_rejected():
    text = ('GRAPH G TAG T\n0 INITIAL -> 1\n1 "가" -> 2\n'
            '2 <E> / "x" -> 3\n3 <E> -> 2,9\n9 FINAL\n')
    with pytest.raises(EpsilonCycle):
        compile_graph(parse_graph(text))


def test_epsilon_cycle_names_the_output_of_one_trip_round_it():
    # both arcs of the cycle emit; the walk goes round once from box 2
    text = ('GRAPH G TAG T\n0 INITIAL -> 1\n1 "가" -> 2\n'
            '2 <E> / "x" -> 3\n3 <E> / "y" -> 2,9\n9 FINAL\n')
    with pytest.raises(EpsilonCycle) as exc:
        compile_graph(parse_graph(text))
    assert str(exc.value) == "graph 'G': an epsilon cycle emits 'xy'"


def test_compile_requires_valid_graph():
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 "a" -> 9,42\n9 FINAL\n')
    with pytest.raises(GraphValidationError):
        compile_graph(g)


def test_state_cap():
    g = parse_graph(CHOCOLATE)
    with pytest.raises(CompileOverflow):
        compile_graph(g, max_states=4)


def test_subgraph_inlining_matches_hand_inlined():
    outer = """\
GRAPH Outer TAG T
0 INITIAL -> 1
1 :Mid / "out" -> 9
9 FINAL
"""
    mid = """\
GRAPH Mid TAG T
0 INITIAL -> 1
1 :Inner -> 9
9 FINAL
"""
    inner = """\
GRAPH Inner TAG T
0 INITIAL -> 1
1 "가나|다" -> 9
9 FINAL
"""
    flat = """\
GRAPH Flat TAG T
0 INITIAL -> 1
1 "가나|다" / "out" -> 9
9 FINAL
"""
    lib = [parse_graph(outer), parse_graph(mid), parse_graph(inner)]
    compiled = compile_graph(lib[0], lib)
    flat_fst = compile_graph(parse_graph(flat))
    assert machine_relation_text(compiled, 8) == machine_relation_text(flat_fst, 8)
    assert machine_relation_text(compiled, 8) == ir_relation_text(lib[0], lib, 8)


def test_space_in_literal_is_token_boundary():
    g = parse_graph('GRAPH G TAG T\n0 INITIAL -> 1\n1 "강력 추천" -> 9\n9 FINAL\n')
    fst = compile_graph(g)
    syms = {sym for _, sym, _, _ in fst.transitions}
    assert TOKEN_BOUNDARY in syms
    assert enumerate_paths(g, max_input_len=12) == {("강력 추천", "")}


def test_compilation_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        g = parse_graph(random_graph_text(rng))
        if not _compiles(g):
            continue
        a = compile_graph(g)
        b = compile_graph(g)
        assert a.dump() == b.dump()


def _compiles(g):
    from lggnorm.grammar import validate

    if validate(g):
        return False
    try:
        compile_graph(g)
        return True
    except (EpsilonOnlyPath, EpsilonCycle):
        return False


def test_loops_enumerate_and_compile_equally():
    text = ('GRAPH Loop TAG T\n0 INITIAL -> 1\n1 "ㅋ" -> 2\n'
            '2 "ㅋ" -> 2,9\n9 FINAL\n')
    g = parse_graph(text)
    fst = compile_graph(g)
    assert machine_relation_text(fst, 5) == ir_relation_text(g, [], 5)
    assert ("ㅋㅋㅋ", "") in enumerate_paths(g, max_input_len=5)


def test_every_state_on_initial_final_path(library):
    """On the bundled transducers and on random libraries of one to three
    graphs, each calling only later ones."""
    rng = random.Random(13)
    names = ("G0", "G1", "G2")
    fsts = list(library.fsts)
    for _ in range(200):
        n = rng.randint(1, 3)
        lib = [parse_graph(random_graph_text(rng, name=name, tag="T", max_boxes=6,
                                             subgraphs=names[i + 1:n]))
               for i, name in enumerate(names[:n])]
        try:
            fsts.append(compile_graph(lib[0], lib))
        except CompileError:
            pass
    assert len(fsts) > len(library.fsts) + 50
    for fst in fsts:
        fwd = {}
        rev = {}
        for src, _, _, dst in fst.transitions:
            fwd.setdefault(src, set()).add(dst)
            rev.setdefault(dst, set()).add(src)

        def closure(starts, adj):
            seen = set(starts)
            stack = list(starts)
            while stack:
                s = stack.pop()
                for d in adj.get(s, ()):
                    if d not in seen:
                        seen.add(d)
                        stack.append(d)
            return seen

        reach = closure({fst.initial}, fwd)
        coreach = closure(set(fst.final_outputs), rev)
        assert reach == set(range(fst.n_states))
        assert coreach == set(range(fst.n_states))


def test_dump_has_one_line_per_transition(library):
    fst = library.fsts[0]
    lines = fst.dump().splitlines()
    tab_lines = [l for l in lines if "\t" in l]
    assert len([l for l in tab_lines
                if not l.startswith(("fst", "states", "initial", "final"))]) == len(fst.transitions)


def test_random_subgraph_libraries_match_oracle():
    from lggnorm.grammar import validate

    rng = random.Random(77)
    done = 0
    guard = 0
    while done < 30:
        guard += 1
        assert guard < 500
        helper = parse_graph(random_graph_text(
            rng, name="Help", tag="T", max_boxes=5, allow_mask=False))
        root = parse_graph(random_graph_text(
            rng, name="Root", tag="T", max_boxes=6, subgraphs=("Help",)))
        lib = [root, helper]
        if validate(root, lib):
            continue
        try:
            fst = compile_graph(root, lib)
        except EpsilonOnlyPath:
            continue
        assert machine_relation_text(fst, 12) == ir_relation_text(root, lib, 12)
        done += 1


def test_inlining_matches_recursive_inlining():
    """Libraries of four graphs, each calling only later ones: the same
    dump (state numbering and arc order) or the same error."""
    rng = random.Random(5)
    names = ("G0", "G1", "G2", "G3")
    compiled = 0
    for _ in range(400):
        lib = [parse_graph(random_graph_text(rng, name=name, tag="T", max_boxes=6,
                                             subgraphs=names[i + 1:]))
               for i, name in enumerate(names)]
        try:
            expected = compile_graph_by_recursion(lib[0], lib).dump()
        except CompileError as exc:
            with pytest.raises(type(exc)):
                compile_graph(lib[0], lib)
            continue
        assert compile_graph(lib[0], lib).dump() == expected
        compiled += bool(lib[0].subgraph_names())
    assert compiled > 30


def test_bundled_grammars_match_oracle(library, graphs):
    for g in graphs:
        if any(g.name in other.subgraph_names() for other in graphs):
            continue
        fst = next(f for f in library.fsts if f.name == g.name)
        assert machine_relation_text(fst, 12) == ir_relation_text(g, graphs, 12)


def outcome_in_passes(g, library=()):
    """The error type that compile_graph and compile_graph_in_passes both
    raise, or "compiled" when both dump the same."""
    try:
        expected = compile_graph_in_passes(g, library).dump()
    except CompileError as exc:
        with pytest.raises(type(exc)):
            compile_graph(g, library)
        return type(exc)
    assert compile_graph(g, library).dump() == expected
    return "compiled"


def test_bundled_roots_compile_as_in_passes(library, graphs):
    for fst in library.fsts:
        g = next(g for g in graphs if g.name == fst.name)
        assert outcome_in_passes(g, graphs) == "compiled"


def test_random_libraries_compile_as_in_passes():
    """Libraries of four graphs, each calling only later ones."""
    rng = random.Random(14)
    names = ("G0", "G1", "G2", "G3")
    outcomes = Counter()
    for _ in range(400):
        lib = [parse_graph(random_graph_text(rng, name=name, tag="T", max_boxes=6,
                                             subgraphs=names[i + 1:]))
               for i, name in enumerate(names)]
        outcomes[outcome_in_passes(lib[0], lib)] += 1
    assert outcomes["compiled"] > 30


def test_random_cyclic_graphs_compile_as_in_passes():
    """Graphs whose boxes point back: each outcome at least 100 times."""
    rng = random.Random(14)
    outcomes = Counter(outcome_in_passes(parse_graph(random_cyclic_graph_text(rng)))
                       for _ in range(2000))
    assert min(outcomes[k] for k in ("compiled", EpsilonCycle, EpsilonOnlyPath)) >= 100
