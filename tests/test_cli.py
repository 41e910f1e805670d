import hashlib
import json
import random
import shutil
import string
import subprocess
import sys
import unicodedata

import pytest

from lggnorm import cli, resources

DICT_ARGS = ["--dict", str(resources.dictionary_path("core.dic")),
             "--dict", str(resources.dictionary_path("loan.dic"))]


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "lggnorm", *args],
        input=stdin.encode("utf-8"), capture_output=True, timeout=120)


def test_normalize_stdin():
    r = run_cli("normalize", *DICT_ARGS, "-", stdin="효과가 넘 좋아요")
    assert r.returncode == 0
    assert r.stdout.decode() == "효과가 너무 좋아요"
    assert r.stderr == b""


def test_normalize_merge_mode():
    r = run_cli("normalize", "--mode", "merge", *DICT_ARGS, stdin="영화 잼있어요")
    assert r.stdout.decode() == "영화 {잼,재미.ABBR}있어요"


def test_stats_requires_dict():
    r = run_cli("stats", stdin="가나다")
    assert r.returncode == 1
    assert r.stdout == b""
    assert b"usage" in r.stderr


def test_graph_validate_ok():
    r = run_cli("graph", "validate", str(resources.grammar_dir() / "abbr.lgg"))
    assert r.returncode == 0
    assert r.stdout.decode().strip() == "OK"


def test_graph_validate_reports_problems(tmp_path):
    bad = tmp_path / "bad.lgg"
    bad.write_text('GRAPH G TAG T\n0 INITIAL -> 1\n1 "a" -> 99\n9 FINAL\n')
    r = run_cli("graph", "validate", str(bad))
    assert r.returncode == 2
    assert b"dangling-successor" in r.stdout


def test_graph_reads_a_file_path_and_no_stdin(capsys, monkeypatch, tmp_path):
    # '-' names a file like any other path, and there is none of that name
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(capsys, "graph", "validate", "-")
    assert_usage_error(code, err)
    assert out == ""


def test_graph_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.lgg"
    bad.write_text("GRAPH G TAG T\nnot a box line\n")
    r = run_cli("graph", "validate", str(bad))
    assert r.returncode == 2
    assert r.stdout == b""


def test_tokenize_tsv():
    r = run_cli("tokenize", stdin="영화 잼있어요")
    rows = [line.split("\t") for line in r.stdout.decode().splitlines()]
    assert rows == [["0", "6", "HANGUL", "영화"], ["7", "19", "HANGUL", "잼있어요"]]


def test_invalid_encoding_exit_code():
    r = run_cli("tokenize", stdin="한")  # NFD input
    assert r.returncode == 3
    assert b"NFC" in r.stderr


def test_classify_tsv_and_json(tmp_path):
    r = run_cli("classify", *DICT_ARGS, stdin="짱 멋있다")
    assert r.returncode == 0
    line = r.stdout.decode().splitlines()[0].split("\t")
    assert line[0] == "짱" and line[1] == "NEOLOGISM" and line[2] == "진짜"

    r = run_cli("classify", "--format", "json", *DICT_ARGS, stdin="짱 멋있다")
    payload = json.loads(r.stdout.decode())
    assert payload["schema"] == 1
    assert payload["results"][0]["category"] == "NEOLOGISM"


def test_stats_single_and_compare(tmp_path):
    r = run_cli("stats", *DICT_ARGS, stdin="효과가 좋아요 잼")
    rows = dict(line.split("\t") for line in r.stdout.decode().splitlines())
    assert rows["corpus_size"] == "3"
    assert rows["types"] == "3"
    assert rows["non_analyzable_types"] == "1"

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("효과가 좋아요", encoding="utf-8")
    b.write_text("잼 짱 좋아요", encoding="utf-8")
    r = run_cli("stats", *DICT_ARGS, str(a), str(b))
    lines = [l.split("\t") for l in r.stdout.decode().splitlines()]
    assert lines[0][:3] == ["corpus_size", "2", "3"]


def test_concord_output():
    r = run_cli("concord", *DICT_ARGS, "--left", "5", "--right", "5",
                stdin="영화 잼있어요")
    out = r.stdout.decode()
    assert "[잼]" in out


CORE_DICT = ["--dict", str(resources.dictionary_path("core.dic"))]


def test_stats_json_of_the_bundled_corpora(capsys, monkeypatch):
    # the paper's headline numbers as JSON, labelled by the names given
    monkeypatch.chdir(resources.corpus_path("formal_sample.txt").parent)
    code, out, err = run_main(capsys, "stats", "--format", "json", *CORE_DICT,
                              "formal_sample.txt", "informal_sample.txt")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": 1,
        "corpora": [
            {"corpus_size": 307, "types": 113, "non_analyzable_types": 2,
             "non_analyzable_pct": 1.8, "empty": False, "label": "formal_sample.txt"},
            {"corpus_size": 312, "types": 125, "non_analyzable_types": 28,
             "non_analyzable_pct": 22.4, "empty": False, "label": "informal_sample.txt"},
        ],
        "delta": {"corpus_size": 5, "types": 12, "non_analyzable_types": 26,
                  "non_analyzable_pct": 20.6},
    }
    assert hashlib.sha256(out.encode("utf-8")).hexdigest().startswith("33e81ca29dce97b7")


def test_stats_json_of_an_empty_file_has_no_delta(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    code, out, err = run_main(capsys, "stats", "--format", "json", *CORE_DICT, str(empty))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": 1,
        "corpora": [{"corpus_size": 0, "types": 0, "non_analyzable_types": 0,
                     "non_analyzable_pct": 0.0, "empty": True, "label": str(empty)}],
    }


def test_stats_tsv_of_three_files_is_one_block_per_file(capsys):
    # no delta column past two inputs: each file's four rows, in input order
    paths = [str(resources.corpus_path(f"{name}_sample.txt"))
             for name in ("formal", "informal", "formal")]
    code, out, err = run_main(capsys, "stats", *CORE_DICT, *paths)
    assert (code, err) == (0, "")
    figures = ("corpus_size", "types", "non_analyzable_types", "non_analyzable_pct")
    values = ["307", "113", "2", "1.8", "312", "125", "28", "22.4", "307", "113", "2", "1.8"]
    assert out == "".join(f"{name}\t{value}\n" for name, value in zip(figures * 3, values))


def test_stats_of_an_empty_file_then_a_corpus(capsys, tmp_path):
    # the delta against an empty corpus is the second corpus's figures
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    informal = str(resources.corpus_path("informal_sample.txt"))
    code, out, err = run_main(capsys, "stats", *CORE_DICT, str(empty), informal)
    assert (code, err) == (0, "")
    assert out == ("corpus_size\t0\t312\t312\n"
                   "types\t0\t125\t125\n"
                   "non_analyzable_types\t0\t28\t28\n"
                   "non_analyzable_pct\t0.0\t22.4\t+22.4\n")
    code, out, err = run_main(capsys, "stats", "--format", "json", *CORE_DICT, str(empty), informal)
    assert (code, err) == (0, "")
    figures = {"corpus_size": 312, "types": 125, "non_analyzable_types": 28,
               "non_analyzable_pct": 22.4}
    assert json.loads(out) == {
        "schema": 1,
        "corpora": [{"corpus_size": 0, "types": 0, "non_analyzable_types": 0,
                     "non_analyzable_pct": 0.0, "empty": True, "label": str(empty)},
                    dict(figures, empty=False, label=informal)],
        "delta": figures,
    }


@pytest.mark.parametrize("argv, expected", [
    (["normalize", "--mode", "bogus"],
     "argument --mode: invalid choice: 'bogus' (choose from 'replace', 'merge')"),
    (["normalize", "--anchor", "bogus"],
     "argument --anchor: invalid choice: 'bogus' (choose from 'token', 'anywhere')"),
    (["concord", "--sort", "bogus"],
     "argument --sort: invalid choice: 'bogus' (choose from 'text', 'keyword', 'right')"),
])
def test_an_invalid_choice_lists_every_choice_in_order(capsys, argv, expected):
    code, out, err = run_main(capsys, *argv, *CORE_DICT, "-")
    assert (code, out, err) == (1, "", f"usage error: {expected}\n")


def test_concord_tsv_columns_after_multibyte_text(capsys, tmp_path):
    # byte offset, left context, keyword, right context; U+3000 after the
    # astral symbol and U+00A0 before the second match stay as they are
    path = tmp_path / "multibyte.txt"
    path.write_text("😀\u3000넘 좋아요\u00a0넘\n", encoding="utf-8")
    code, out, err = run_main(capsys, "concord", "--format", "tsv", *CORE_DICT, str(path))
    assert (code, err) == (0, "")
    assert out == ("7\t😀\u3000\t넘\t 좋아요\u00a0넘⏎\n"
                   "22\t😀\u3000넘 좋아요\u00a0\t넘\t⏎\n")


def test_normalize_bad_dictionary_exit_code(tmp_path):
    bad = tmp_path / "bad.dic"
    bad.write_text("no commas here\n", encoding="utf-8")
    r = run_cli("normalize", "--dict", str(bad), stdin="가")
    assert r.returncode == 2


def test_priority_flag_rejects_partial_cover():
    r = run_cli("normalize", *DICT_ARGS, "--priority", "Abbrev", stdin="가")
    assert r.returncode == 1


def test_byte_identical_runs(tmp_path):
    corpus = str(resources.corpus_path("informal_sample.txt"))
    first = run_cli("normalize", *DICT_ARGS, corpus)
    second = run_cli("normalize", *DICT_ARGS, corpus)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_analyze_output():
    r = run_cli("analyze", *DICT_ARGS, stdin="색깔이 잼")
    lines = r.stdout.decode().splitlines()
    assert lines[0].startswith("색깔이\tyes\t색깔/N+이/JOSA")
    assert lines[1] == "잼\tno\t-"


def test_analyze_prints_the_best_of_exponentially_many_analyses(tmp_path):
    # 가 + 60 아 has Fibonacci(61) analyses; analyze shows only the first
    dic = tmp_path / "tiny.dic"
    dic.write_text("가,가.V\n아,아.EOMI\n아아,아아.EOMI\n", encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "lggnorm", "analyze", "--dict", str(dic), "-"],
        input=("가" + "아" * 60).encode(), capture_output=True, timeout=10)
    assert r.returncode == 0
    assert r.stdout.decode() == "가" + "아" * 60 + "\tyes\t" + "+".join(
        ["가/V"] + ["아아/EOMI"] * 30) + "\n"


def test_assets_env_override(tmp_path, monkeypatch):
    import os
    import shutil
    import subprocess

    root = tmp_path / "assets"
    shutil.copytree(resources.asset_root(), root)
    # tweak the copied abbreviation grammar so the override is observable
    abbr = root / "grammars" / "abbr.lgg"
    abbr.write_text(abbr.read_text(encoding="utf-8").replace("너무", "정말"),
                    encoding="utf-8")
    env = dict(os.environ, LGGNORM_ASSETS=str(root))
    r = subprocess.run(
        [sys.executable, "-m", "lggnorm", "normalize", *DICT_ARGS, "-"],
        input="넘 좋아요".encode(), capture_output=True, env=env, timeout=120)
    assert r.stdout.decode() == "정말 좋아요"


# --------------------------------------------- OS errors and bad arguments

def run_main(capsys, *args):
    """cli.main in this process: (exit code, stdout, stderr)."""
    from lggnorm import cli

    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def assert_usage_error(code, err):
    assert code == 1
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


def test_directory_as_input_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_main(capsys, "tokenize", str(tmp_path))
    assert_usage_error(code, err)
    assert out == ""


def test_directory_as_dictionary_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_main(capsys, "stats", "--dict", str(tmp_path), str(tmp_path))
    assert_usage_error(code, err)
    assert out == ""


def test_permission_error_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # root reads files whatever their mode, so the denial is simulated
    from lggnorm import cli

    def denied(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "_read_text", denied)
    code, _, err = run_main(capsys, "tokenize", str(tmp_path / "secret.txt"))
    assert_usage_error(code, err)
    assert "Permission denied" in err


def test_broken_pipe_still_exits_0(capsys, monkeypatch):
    from lggnorm import cli

    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_tokenize", closed)
    code, _, err = run_main(capsys, "tokenize", "-")
    assert (code, err) == (0, "")


def test_negative_concord_width_is_a_usage_error(capsys, monkeypatch):
    import io

    for flag in ("--left", "--right"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("영화 잼있어요".encode())))
        code, out, err = run_main(capsys, "concord", *DICT_ARGS, flag, "-5")
        assert_usage_error(code, err)
        assert out == ""


def test_concord_width_above_the_maximum_is_a_usage_error(capsys, monkeypatch):
    # the left context is padded to --left columns, so a width without a
    # bound asks for any amount of memory, or for a format string Python
    # refuses (10**19 raised ValueError)
    import io

    pad = {"--left": cli.MAX_WIDTH - 3, "--right": 24 - 3}  # the default --left is 24
    for flag in ("--left", "--right"):
        for width in (cli.MAX_WIDTH, cli.MAX_WIDTH + 1, 10**19):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("영화 잼있어요".encode())))
            code, out, err = run_main(capsys, "concord", *DICT_ARGS, flag, str(width))
            if width == cli.MAX_WIDTH:
                assert (code, out, err) == (0, " " * pad[flag] + "영화 [잼]있어요\n", "")
            else:
                assert_usage_error(code, err)
                assert f"must be at most {cli.MAX_WIDTH}" in err
                assert out == ""


def test_grammars_must_name_a_directory(capsys, tmp_path):
    plain = tmp_path / "abbr.lgg"
    plain.write_text("", encoding="utf-8")
    for path in (tmp_path / "missing", plain):
        r = run_cli("normalize", *DICT_ARGS, "--grammars", str(path), stdin="영화 잼있어요")
        assert r.returncode == 1
        assert r.stdout == b""
        assert r.stderr.decode().startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["stats", "--dict", "{dic}", "{corpus}"],
    ["classify", *DICT_ARGS, "--abbr-dict", "{dic}", "{corpus}"],
    ["normalize", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
    ["graph", "validate", "{lgg}"],
    ["graph", "compile", "{lgg}"],
], ids=["stats-dict", "classify-abbr-dict", "normalize-grammars", "graph-validate",
        "graph-compile"])
def test_non_utf8_dictionary_or_grammar_is_a_parse_error(capsys, tmp_path, argv):
    paths = {"dic": tmp_path / "latin1.dic", "grammars": tmp_path / "grammars",
             "corpus": tmp_path / "corpus.txt"}
    paths["lgg"] = paths["grammars"] / "abbr.lgg"
    paths["dic"].write_bytes("caf\xe9,caf\xe9.N\n".encode("latin-1"))
    paths["grammars"].mkdir()
    paths["lgg"].write_bytes("GRAPH G TAG ABBR\n# caf\xe9\n".encode("latin-1"))
    paths["corpus"].write_text("영화 잼있어요", encoding="utf-8")
    code, out, err = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("first, code, expected", [
    ("\ufeff가", 0, ("가아\tyes\t가/V+아/EOMI\n", "")),
    ("\u1100\u1161", 2, ("", "error: {dic}: malformed dictionary entry at line(s) 1\n")),
    ("가 ", 2, ("", "error: {dic}: malformed dictionary entry at line(s) 1\n")),
    ("가\t", 2, ("", "error: {dic}: malformed dictionary entry at line(s) 1\n")),
], ids=["byte-order-mark", "nfd-surface", "space-in-surface", "tab-in-surface"])
def test_analyze_reads_a_bom_and_rejects_an_nfd_surface(capsys, tmp_path, first, code, expected):
    dic, corpus = tmp_path / "tiny.dic", tmp_path / "corpus.txt"
    dic.write_text(f"{first},가.V\n아,아.EOMI\n", encoding="utf-8")
    corpus.write_text("가아", encoding="utf-8")
    out, err = expected
    assert run_main(capsys, "analyze", "--dict", str(dic), str(corpus)) == \
        (code, out, err.format(dic=dic))


@pytest.mark.parametrize("argv", [
    ["normalize", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
    ["concord", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
    ["classify", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
    ["graph", "compile", "{twice}"],
], ids=["normalize", "concord", "classify", "graph-compile"])
def test_a_repeated_graph_name_is_a_parse_error(capsys, tmp_path, argv):
    abbr = (resources.grammar_dir() / "abbr.lgg").read_text(encoding="utf-8")
    paths = {"grammars": tmp_path / "grammars", "corpus": tmp_path / "corpus.txt",
             "twice": tmp_path / "twice.lgg"}
    paths["grammars"].mkdir()
    for name in ("abbr.lgg", "abbr_copy.lgg"):
        (paths["grammars"] / name).write_text(abbr, encoding="utf-8")
    paths["twice"].write_text(abbr + abbr, encoding="utf-8")
    paths["corpus"].write_text("영화 잼있어요", encoding="utf-8")
    code, out, err = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err == "error: two graphs are named 'Abbrev'\n"


@pytest.mark.parametrize("flag, value", [("--loan-threshold", "-3"),
                                         ("--deviant-threshold", "-1")])
def test_negative_classify_threshold_is_a_usage_error(capsys, tmp_path, flag, value):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("조아요", encoding="utf-8")
    code, out, err = run_main(capsys, "classify", *DICT_ARGS, flag, value, str(corpus))
    assert_usage_error(code, err)
    assert out == ""


def test_a_threshold_that_is_no_integer_is_a_usage_error(capsys):
    code, out, err = run_main(capsys, "classify", "--loan-threshold", "x")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --loan-threshold: invalid int value: 'x'\n"


@pytest.mark.parametrize("argv", [
    ["classify", *DICT_ARGS, "--anchor", "token", "{corpus}"],
    ["graph", "validate", "--max-states", "10", "{abbr}"],
], ids=["classify-anchor", "graph-validate-max-states"])
def test_option_that_did_nothing_is_a_usage_error(capsys, tmp_path, argv):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("영화 잼있어요", encoding="utf-8")
    abbr = resources.grammar_dir() / "abbr.lgg"
    code, out, err = run_main(capsys, *(arg.format(corpus=corpus, abbr=abbr) for arg in argv))
    assert_usage_error(code, err)
    assert out == ""


def test_commands_that_read_anchor_and_max_states_keep_them(capsys):
    abbr = str(resources.grammar_dir() / "abbr.lgg")
    corpus = str(resources.corpus_path("informal_sample.txt"))
    assert run_main(capsys, "graph", "compile", "--max-states", "100000", abbr)[0] == 0
    for command in ("normalize", "concord"):
        assert run_main(capsys, command, *DICT_ARGS, "--anchor", "anywhere", corpus)[0] == 0


@pytest.mark.parametrize("argv", [
    ["graph", "compile", "--max-states", "-5", "{abbr}"],
    ["normalize", *DICT_ARGS, "--max-states", "0", "{corpus}"],
    ["classify", *DICT_ARGS, "--max-states", "0", "{corpus}"],
    ["concord", *DICT_ARGS, "--max-states", "-1", "{corpus}"],
], ids=["graph-compile", "normalize", "classify", "concord"])
def test_max_states_below_one_is_a_usage_error(capsys, tmp_path, argv):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("영화 잼있어요", encoding="utf-8")
    abbr = resources.grammar_dir() / "abbr.lgg"
    code, out, err = run_main(capsys, *(arg.format(corpus=corpus, abbr=abbr) for arg in argv))
    assert_usage_error(code, err)
    assert "--max-states" in err
    assert out == ""


@pytest.mark.parametrize("bad, data, argv", [
    ("latin1.dic", "caf\xe9,caf\xe9.N\n".encode("latin-1"),
     ["stats", *DICT_ARGS, "--dict", "{bad}", "{corpus}"]),
    ("bad.dic", b"no commas here\n", ["stats", *DICT_ARGS, "--dict", "{bad}", "{corpus}"]),
    ("grammars/bad.lgg", b'GRAPH G TAG ABBR\n0 INITIAL -> 1\nnot a box line\n1 FINAL\n',
     ["normalize", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"]),
], ids=["non-utf8-second-dict", "malformed-second-dict", "bad-lgg-under-grammars"])
def test_parse_error_names_the_file(capsys, tmp_path, bad, data, argv):
    (tmp_path / "grammars").mkdir()
    (tmp_path / bad).write_bytes(data)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("영화 잼있어요", encoding="utf-8")
    paths = {"bad": tmp_path / bad, "grammars": tmp_path / "grammars", "corpus": corpus}
    code, out, err = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tmp_path / bad}: ")
    assert err.count("\n") == 1


# each subcommand with the option pools it reads
SUBCOMMANDS = {("tokenize",): (), ("analyze",): ("dict",), ("normalize",): ("dict", "grammars"),
               ("classify",): ("dict", "grammars", "thresholds"), ("stats",): ("dict",),
               ("concord",): ("dict", "grammars", "widths"), ("graph", "validate"): (),
               ("graph", "compile"): ("max_states",)}


def test_cli_sweep_exits_with_a_documented_code(capsys, tmp_path):
    """Every subcommand over every input kind, once with harmless options
    (the first of each pool) and twice with seeded ones (now and then one
    the subcommand does not take, or a flag missing its value), then on a
    text with a match once per value of each pool, returns a documented
    exit code and prints no traceback."""
    inputs = {"directory": str(tmp_path)}
    for kind, data in (("empty", b""), ("non_utf8", "한글 잼".encode("euc-kr")),
                       ("nfd", unicodedata.normalize("NFD", "영화 잼있어요").encode()),
                       ("long_token", ("잼있" * 1000).encode()),
                       ("match", "효과가 넘 좋아요 ㅋㅋ\n".encode())):
        inputs[kind] = str(tmp_path / f"{kind}.txt")
        (tmp_path / f"{kind}.txt").write_bytes(data)
    bad_grammars = tmp_path / "grammars"
    bad_grammars.mkdir()
    (bad_grammars / "bad.lgg").write_bytes(b"GRAPH G TAG T\n\xff\n")
    core = str(resources.dictionary_path("core.dic"))
    every_grammar = ",".join(resources.load_grammar_library().priority)
    pools = {
        "dict": (["--dict", core], ["--dict", inputs["non_utf8"]], []),
        "grammars": ([], ["--grammars", str(resources.grammar_dir())],
                     ["--grammars", str(bad_grammars)], ["--grammars", str(tmp_path / "missing")],
                     ["--priority", every_grammar], ["--priority", every_grammar + ",Extra"],
                     ["--priority", "Abbrev"]),
        "thresholds": ([], ["--loan-threshold", "-3"], ["--deviant-threshold", "-1"],
                       ["--deviant-threshold", "2"]),
        "widths": ([], ["--left", "-3"], ["--right", "-1"], ["--left", "0"],
                   ["--left", "10000000000000000000"]),
        "max_states": ([], ["--max-states", "-5"], ["--max-states", "50"]),
    }
    rng = random.Random(0)
    codes = []
    for command, accepted in SUBCOMMANDS.items():
        for path in inputs.values():
            for seeded in (False, True, True):
                argv = list(command)
                for pool in accepted:
                    argv += rng.choice(pools[pool]) if seeded else pools[pool][0]
                if seeded and rng.random() < 0.2:
                    argv += rng.choice(pools[rng.choice(list(pools))])
                argv.append(path)
                if seeded and rng.random() < 0.2:
                    argv.append(rng.choice(["--grammars", "--priority"]))
                code, _, err = run_main(capsys, *argv)
                assert code in (0, 1, 2, 3), argv
                assert "Traceback" not in err, argv
                codes.append(code)
    # and every value of every pool once on a text the grammars match, so
    # a value reaches the code that renders or rewrites a match; the
    # subcommand's other pools stay at their first, harmless entry
    for command, accepted in SUBCOMMANDS.items():
        for pool in accepted:
            for value in pools[pool]:
                argv = list(command)
                for other in accepted:
                    argv += value if other == pool else pools[other][0]
                code, _, err = run_main(capsys, *argv, inputs["match"])
                assert code in (0, 1, 2, 3), argv
                assert "Traceback" not in err, argv
                codes.append(code)
    assert set(codes) == {0, 1, 2, 3}


SELF_CALL = "GRAPH A TAG T\n0 INITIAL -> 1\n1 :A -> 2\n2 FINAL\n"
TWO_GRAPH_CYCLE = ("GRAPH A TAG T\n0 INITIAL -> 1\n1 :B -> 2\n2 FINAL\n"
                   "GRAPH B TAG T\n0 INITIAL -> 1\n1 :A -> 2\n2 FINAL\n")
RECURSION = pytest.mark.parametrize("text", [SELF_CALL, TWO_GRAPH_CYCLE],
                                    ids=["self-call", "two-graph-cycle"])


def write_grammar(tmp_path, text):
    """{lgg, grammars, corpus} paths: ``text`` as the one grammar file."""
    paths = {"grammars": tmp_path / "grammars", "corpus": tmp_path / "corpus.txt"}
    paths["lgg"] = paths["grammars"] / "g.lgg"
    paths["grammars"].mkdir()
    paths["lgg"].write_text(text, encoding="utf-8")
    paths["corpus"].write_text("영화 잼있어요", encoding="utf-8")
    return paths


@RECURSION
def test_graph_validate_reports_recursion_no_root_reaches(capsys, tmp_path, text):
    paths = write_grammar(tmp_path, text)
    code, out, err = run_main(capsys, "graph", "validate", str(paths["lgg"]))
    assert code == 2
    assert err == ""
    expected = {SELF_CALL: ["A: recursive-call: recursive subgraph call A -> A"],
                TWO_GRAPH_CYCLE: ["A: recursive-call: recursive subgraph call B -> A",
                                  "B: recursive-call: recursive subgraph call A -> B"]}
    assert out.splitlines() == expected[text]


@RECURSION
@pytest.mark.parametrize("argv", [
    ["graph", "compile", "{lgg}"],
    ["normalize", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
    ["classify", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
    ["concord", *DICT_ARGS, "--grammars", "{grammars}", "{corpus}"],
], ids=["graph-compile", "normalize", "classify", "concord"])
def test_recursion_no_root_reaches_is_a_parse_error(capsys, tmp_path, text, argv):
    paths = write_grammar(tmp_path, text)
    code, out, err = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    edge = "A -> A" if text == SELF_CALL else "B -> A"
    assert err == f"error: A: recursive-call: recursive subgraph call {edge}\n"


def test_graph_validate_prints_each_diagnostic_once(capsys, tmp_path):
    """Two roots call one broken helper: its diagnostic is printed once."""
    roots = "".join(f"GRAPH {name} TAG T\n0 INITIAL -> 1\n1 :H -> 2\n2 FINAL\n"
                    for name in ("R1", "R2"))
    helper = 'GRAPH H TAG T\n0 INITIAL -> 1\n1 "가" -> 2,7\n2 FINAL\n'
    paths = write_grammar(tmp_path, roots + helper)
    code, out, err = run_main(capsys, "graph", "validate", str(paths["lgg"]))
    assert code == 2
    assert out == "H: dangling-successor: box 1 points to missing box 7\n"


def test_graph_compile_prints_nothing_when_a_later_root_fails(capsys, tmp_path):
    valid = 'GRAPH R TAG T\n0 INITIAL -> 1\n1 "가" -> 2\n2 FINAL\n'
    dangling = 'GRAPH Bad TAG T\n0 INITIAL -> 1\n1 "나" -> 7\n2 FINAL\n'
    paths = write_grammar(tmp_path, valid + dangling)
    code, out, err = run_main(capsys, "graph", "compile", str(paths["lgg"]))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_an_emitting_epsilon_cycle_names_its_graph(capsys, tmp_path):
    grammars = tmp_path / "grammars"
    shutil.copytree(resources.grammar_dir(), grammars)
    (grammars / "g.lgg").write_text('GRAPH G TAG T\n0 INITIAL -> 1\n1 "가" -> 2\n'
                                    '2 <E> / "x" -> 3\n3 <E> -> 2,4\n4 FINAL\n',
                                    encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("영화 잼있어요", encoding="utf-8")
    code, out, err = run_main(capsys, "normalize", *DICT_ARGS, "--grammars", str(grammars),
                              str(corpus))
    assert code == 2
    assert out == ""
    assert err == "error: graph 'G': an epsilon cycle emits 'x'\n"


@pytest.mark.parametrize("argv", [
    ["stats", *DICT_ARGS], ["classify", *DICT_ARGS], ["analyze", *DICT_ARGS], ["tokenize"],
    ["normalize", *DICT_ARGS],
], ids=["stats", "classify", "analyze", "tokenize", "normalize"])
def test_a_byte_order_mark_before_an_input_is_no_text(capsys, tmp_path, argv):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("영화 잼있어요\n", encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run_main(capsys, *argv, str(marked)) == run_main(capsys, *argv, str(plain))


FUZZ_POOLS = ("".join(map(chr, range(0xAC00, 0xD7A4))),  # Hangul syllables
              "".join(map(chr, range(0x3131, 0x318F))),  # compatibility jamo
              string.ascii_letters, string.digits, string.punctuation, "*_@", "\U0001F602",
              " \u3000\u00a0\t\n")  # ASCII, ideographic and no-break spaces


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """200 seeded random NFC texts of 0-40 characters, one file each."""
    rng = random.Random(24)
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i in range(200):
        text = "".join(rng.choice(rng.choice(FUZZ_POOLS)) for _ in range(rng.randint(0, 40)))
        assert unicodedata.is_normalized("NFC", text)
        paths.append(root / f"{i}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    return [str(p) for p in paths]


@pytest.mark.parametrize("argv", [
    ["tokenize"], ["analyze", *DICT_ARGS], ["normalize", *DICT_ARGS],
    ["normalize", *DICT_ARGS, "--mode", "merge", "--anchor", "anywhere"],
    ["classify", *DICT_ARGS],
    ["classify", *DICT_ARGS, "--deviant-threshold", "3", "--format", "json"],
    ["stats", *DICT_ARGS], ["concord", *DICT_ARGS, "--anchor", "anywhere"],
], ids=["tokenize", "analyze", "normalize", "normalize-merge-anywhere", "classify",
        "classify-deviant-3-json", "stats", "concord-anywhere"])
def test_any_nfc_text_exits_0_without_a_traceback(capsys, fuzz_inputs, argv):
    code, _, err = run_main(capsys, *argv, *fuzz_inputs)
    assert (code, err) == (0, "")


def test_a_state_cap_overflow_names_its_graph(capsys):
    code, out, err = run_main(capsys, "graph", "compile", "--max-states", "10",
                              str(resources.grammar_dir() / "abbr.lgg"))
    assert code == 2
    assert out == ""
    assert err == "error: graph 'Abbrev': state count exceeded cap 10\n"


def test_max_states_help_says_the_cap_counts_states_before_epsilon_removal():
    # abbr.lgg needs cap 16 although its dump's states line reads 12
    r = subprocess.run([sys.executable, "-m", "lggnorm", "graph", "compile", "--help"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    text = " ".join(r.stdout.split())
    assert "--max-states N cap on the states a graph builds before epsilon removal" in text
    assert "a graph can need more than the 'states' line of its compiled dump shows" in text


@pytest.mark.parametrize("argv", [
    ["graph", "validate", "{lgg}"],
    ["normalize", *DICT_ARGS, "--mode", "merge", "--grammars", "{grammars}", "{corpus}"],
], ids=["graph-validate", "normalize-merge"])
def test_a_tag_strip_merge_cannot_read_is_a_parse_error(capsys, tmp_path, argv):
    paths = write_grammar(tmp_path, 'GRAPH J TAG joy-1\n0 INITIAL -> 1\n'
                                    '1 "ㅋㅋ" / "웃음" -> 2\n2 FINAL\n')
    code, out, err = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err == (f"error: {paths['lgg']}: line 1: "
                   "tag 'joy-1' does not match [A-Z][A-Z0-9_]*\n")


# characters the grammar and dictionary formats give a meaning, a few
# letters, and a conjoining final (U+11A8) that leaves an open syllable
# before it not NFC
EDIT_CHARS = ' \t,.+#"|/:<>-*=_0129ENVGRAPHTAGFINALINITIAL가나짱ㅋㅏ\u11a8'
# one token per detector, a laugh run and plain text
EDITED_ASSETS_TEXT = "넘 좋아요 ㅋㅋㅋ 영화했니다 색깔이예뻐요 클래식하다 잼있어요 깜놀했어요 프로그렘 사람들이\n"


def edit_lines(lines: list[str], rng: random.Random) -> None:
    """Delete, duplicate or swap a line of ``lines``, or replace, delete
    or insert one character of a line, in place."""
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["delete", "duplicate", "swap", "replace", "drop", "insert"])
    if kind == "delete":
        if len(lines) > 1:
            del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        at = rng.randrange(len(lines[i]) + 1)
        new = "" if kind == "drop" else rng.choice(EDIT_CHARS)
        lines[i] = lines[i][:at] + new + lines[i][at + (kind != "insert"):]


@pytest.mark.parametrize("seed", range(40))
def test_edited_grammar_and_dictionary_files_exit_0_or_2(capsys, tmp_path, seed):
    """Copies of the bundled grammar and dictionary files after 1-4
    seeded line or character edits, through every command that reads
    them: each exits 0, or 2 with one error line, and none raises."""
    rng = random.Random(seed)
    grammars, dicts = tmp_path / "grammars", tmp_path / "dict"
    grammars.mkdir()
    dicts.mkdir()
    files = {grammars / p.name: p for p in sorted(resources.grammar_dir().glob("*.lgg"))}
    files.update((dicts / n, resources.dictionary_path(n))
                 for n in ("abbr.dic", "core.dic", "loan.dic", "neo.dic"))
    lines = {target: source.read_text(encoding="utf-8").splitlines(keepends=True)
             for target, source in files.items()}
    for _ in range(rng.randint(1, 4)):
        edit_lines(lines[rng.choice(list(files))], rng)
    for target in files:
        target.write_text("".join(lines[target]), encoding="utf-8")
    text = tmp_path / "text.txt"
    text.write_text(EDITED_ASSETS_TEXT, encoding="utf-8")
    dict_args = ["--dict", str(dicts / "core.dic"), "--dict", str(dicts / "loan.dic")]
    side_args = [arg for n in ("abbr", "neo", "loan")
                 for arg in (f"--{n}-dict", str(dicts / f"{n}.dic"))]
    runs = [["graph", command, str(path)] for path in sorted(grammars.iterdir())
            for command in ("validate", "compile")]
    runs += [[command, *dict_args, *extra, str(text)] for command, extra in [
        ("normalize", ["--grammars", str(grammars)]),
        ("classify", [*side_args, "--grammars", str(grammars)]), ("stats", []), ("analyze", [])]]
    for argv in runs:
        code, _, err = run_main(capsys, *argv)
        assert code in (0, 2), argv
        # exit 2 prints one error line, or graph validate's diagnostics on stdout
        assert err == "" or (code == 2 and err.startswith("error: ") and err.count("\n") == 1), \
            (argv, err)
