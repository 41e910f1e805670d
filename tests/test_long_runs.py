"""Long inputs: matching, analysis and graph compilation keep no call
frame per consumed unit, morpheme, epsilon box or subgraph call."""

import subprocess
import sys
import time

import pytest

from lggnorm import resources
from lggnorm.apply import normalize
from lggnorm.classify import Category, classify_token
from lggnorm.fst import compile_graph
from lggnorm.grammar import parse_graph_library
from lggnorm.tokenizer import tokenize


def test_long_laugh_run_normalizes_like_a_short_one(library, lexicon):
    # 900 letters fit the interpreter's recursion limit, 3,000 do not
    short = normalize("ㅋ" * 900, library.fsts, lexicon)
    assert normalize("ㅋ" * 3000, library.fsts, lexicon) == short


def test_cli_normalizes_a_long_laugh_run(tmp_path):
    path = tmp_path / "laugh.txt"
    path.write_text("ㅋ" * 3000, encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "lggnorm", "normalize",
         "--dict", str(resources.dictionary_path("core.dic")), str(path)],
        capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lggnorm", *map(str, args)],
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("command", ["stats", "analyze"])
def test_cli_analyses_a_token_of_1501_morphemes(tmp_path, command):
    path = tmp_path / "people.txt"
    path.write_text("사람" + "들" * 1500 + "\n", encoding="utf-8")
    r = run_cli(command, "--dict", resources.dictionary_path("core.dic"), path)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""


def test_a_2000_char_glued_token_classifies_as_spacing_within_a_second(classifier_resources):
    words = ["영화를", "가격이", "배송도", "좋아요", "맛있다", "제품은", "받았다", "친구와",
             "사람들이", "추천합니다"]
    glued = []
    while sum(map(len, glued)) < 2000:
        glued.append(words[len(glued) % len(words)])
    token = tokenize("".join(glued)).tokens[0]
    start = time.perf_counter()
    result = classify_token(token, classifier_resources)
    assert time.perf_counter() - start < 1.0
    assert result.primary is Category.SPACING
    assert result.suggestion == " ".join(glued)


def chain_graph(boxes: int) -> str:
    """A graph whose one literal box sits behind ``boxes`` epsilon boxes."""
    lines = ["GRAPH Chain TAG CHAIN", "0 INITIAL -> 1"]
    lines += [f"{i} <E> -> {i + 1}" for i in range(1, boxes + 1)]
    lines += [f'{boxes + 1} "짱|대박" / "진짜" -> 9999', "9999 FINAL"]
    return "\n".join(lines) + "\n"


def test_cli_compiles_a_long_epsilon_chain(tmp_path):
    path = tmp_path / "chain.lgg"
    path.write_text(chain_graph(1202), encoding="utf-8")
    r = run_cli("graph", "compile", path)
    assert r.returncode == 0, r.stderr.decode()
    chained = parse_graph_library(chain_graph(1202))
    direct = parse_graph_library(chain_graph(0))
    fst = compile_graph(chained[0], chained)
    assert fst == compile_graph(direct[0], direct)
    assert r.stdout.decode() == fst.dump()


def call_chain(graphs: int) -> str:
    """``graphs`` graphs, each calling the next; the last holds one literal."""
    lines = []
    for i in range(graphs):
        label = f":G{i + 1}" if i < graphs - 1 else '"짱|대박" / "진짜"'
        lines += [f"GRAPH G{i} TAG CHAIN", "0 INITIAL -> 1", f"1 {label} -> 2", "2 FINAL"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["validate", "compile"])
def test_cli_handles_a_chain_of_1100_subgraph_calls(tmp_path, command):
    path = tmp_path / "calls.lgg"
    path.write_text(call_chain(1100), encoding="utf-8")
    r = run_cli("graph", command, path)
    assert r.returncode == 0, r.stderr.decode()
    if command == "validate":
        assert r.stdout == b"OK\n"
    else:
        direct = parse_graph_library(call_chain(1))
        assert r.stdout.decode() == compile_graph(direct[0], direct).dump()
