"""Long inputs: matching, analysis and graph compilation keep no call
frame per consumed unit, morpheme, epsilon box or subgraph call, and
tokenize and classify keep no Token per token read."""

import itertools
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from lggnorm import apply, fst as fst_module, grammar, lexicon as lexicon_module, resources
from lggnorm.apply import TextIndex, normalize
from lggnorm.classify import (Category, PreconditionViolated, Resources, _hada_root, _spacing_split,
                              classify_corpus, classify_token, detections)
from lggnorm.fst import compile_graph, literal_symbols
from lggnorm.grammar import GraphIR, parse_graph_library, validate
from lggnorm.hangul import fold_letters
from lggnorm.lexicon import BandedRows, DictEntry, Lexicon, Pos, read_entries
from lggnorm.tokenizer import tokenize
from oracles import analyses_by_count_masks, every_detection, rebuilt


def test_long_laugh_run_normalizes_like_a_short_one(library, lexicon):
    # 900 letters fit the interpreter's recursion limit, 3,000 do not
    short = normalize("ㅋ" * 900, library.fsts, lexicon)
    assert normalize("ㅋ" * 3000, library.fsts, lexicon) == short


@pytest.mark.parametrize("n", [3000, 6000])
def test_long_laugh_run_consumes_each_letter_about_once(monkeypatch, library, lexicon, n):
    # counts, so they hold on any host: the run is one token, so each root
    # grammar runs once from its start, and the runs together step through
    # about one symbol per letter (n + 25 measured)
    consume, run_from = TextIndex.consume, apply.run_from
    work = {"consume": 0, "run_from": 0}

    def counting_consume(*args):
        work["consume"] += 1
        return consume(*args)

    def counting_run_from(*args):
        work["run_from"] += 1
        return run_from(*args)

    monkeypatch.setattr(TextIndex, "consume", counting_consume)
    monkeypatch.setattr(apply, "run_from", counting_run_from)
    normalize("ㅋ" * n, library.fsts, lexicon)
    assert work["consume"] <= n + 50
    assert work["run_from"] <= len(library.fsts) == 8


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


def test_best_analysis_of_a_verb_with_2000_endings_within_half_a_second():
    # 가 + 아 EOMIs: the number of analyses grows like Fibonacci(2000), the
    # best one is found in one pass over the lattice
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    key = fold_letters("가" + "아" * 2000)
    start = time.perf_counter()
    best = lexicon.best_analysis(key)
    assert time.perf_counter() - start < 0.5
    assert [s for s, _ in best.segments] == ["가"] + ["아아"] * 1000


def segment_ids(analysis) -> list[tuple[str, int]]:
    return [(s, id(e)) for s, e in analysis.segments]


def test_best_analysis_of_a_long_key_is_the_first_of_the_count_mask_oracle():
    # too many analyses for the recursive oracle; the lazy one yields the
    # first after one pass
    verb = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    core = resources.load_lexicon([resources.dictionary_path("core.dic")])
    for lex, word in [(verb, "가" + "아" * 2000), (core, "사람" + "들" * 1500)]:
        key = fold_letters(word)
        first = next(analyses_by_count_masks(lex, key))
        assert segment_ids(lex.best_analysis(key)) == segment_ids(first)


def test_best_analysis_grows_linearly_with_the_endings_of_a_verb():
    # a settle that carried each suffix's key tuple would be quadratic:
    # 4x the endings would cost about 16x the time, yet pass the 0.5 s
    # gate at 2,000 endings
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    short, long = (fold_letters("가" + "아" * n) for n in (2000, 8000))
    assert best_of_3(lambda: lexicon.best_analysis(long)) <= 8 * best_of_3(
        lambda: lexicon.best_analysis(short))


def test_best_analysis_ranks_a_few_key_items_per_ending_of_a_verb(monkeypatch):
    # a count, so it holds on any host: the edges that best_analysis ranks
    # and the items of their (surface, POS, lemma) rank keys, 4,001 edges
    # and 12,000 items at 2,000 endings, both 4x at 8,000.  A settle that
    # carried each suffix's key in its rank reads about 16x the items.
    # The time gate above stays, for it sees slowdowns no count does
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    short, long = (fold_letters("가" + "아" * n) for n in (2000, 8000))
    work = {"edges": 0, "items": 0}

    def counting_min(ranked, **kwargs):
        work["edges"] += len(ranked)
        work["items"] += sum(len(r[1]) for r in ranked)
        return min(ranked, **kwargs)

    def counts(key):
        work.update(edges=0, items=0)
        lexicon.best_analysis(key)
        return dict(work)

    monkeypatch.setattr(lexicon_module, "min", counting_min, raising=False)
    at_2000, at_8000 = counts(short), counts(long)
    assert at_2000["edges"] > 0 and at_2000["items"] > 0, at_2000
    assert at_8000["edges"] <= 5 * at_2000["edges"], (at_2000, at_8000)
    assert at_8000["items"] <= 5 * at_2000["items"], (at_2000, at_8000)


def test_best_analysis_memory_grows_linearly_with_the_endings_of_a_verb():
    # a count, so it holds on any host: the tracemalloc peak of one call.
    # A settle that carried each suffix's segments would hold about 16x
    # the memory at 4x the endings; a linear one reads about 4x
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))

    def peak(n):
        key = fold_letters("가" + "아" * n)
        tracemalloc.start()
        try:
            lexicon.best_analysis(key)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8000) <= 8 * peak(2000)


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_lattice_of_a_verb_with_n_endings_holds_a_pair_per_ending(n):
    # a count, so it holds on any host: 가/V, then one (unit, rule state)
    # pair per 아 ending, n + 2 in all
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    assert len(lexicon.lattice(fold_letters("가" + "아" * n))) <= n + 10


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_letter_automaton_of_a_verb_with_n_endings_holds_a_few_states(n):
    # a count, so it holds on any host: after 가 the states repeat with
    # each 아, whatever the number of endings
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    key = fold_letters("가" + "아" * n)
    assert lexicon.is_word(key)
    assert lexicon.word_ends(key) == set(range(4, len(key) + 1, 2))
    assert len(lexicon._words.pairs) <= 12


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_lattice_of_a_noun_with_n_josas_holds_a_pair_per_syllable(n):
    # 가 is a noun and a josa: one pair per 가, n + 1 in all; the ㅋ ends none
    lexicon = Lexicon(read_entries(["가,가.N", "가,가.JOSA"]))
    assert len(lexicon.lattice(fold_letters("가" * n + "ㅋ"))) <= n + 10


def test_first_ten_analyses_of_a_verb_with_24_endings_within_a_twentieth_of_a_second():
    # 가 + 24 아 has Fibonacci(25) = 75,025 analyses; the first ten come
    # without building the others
    lexicon = Lexicon(read_entries(["가,가.V", "아,아.EOMI", "아아,아아.EOMI"]))
    key = fold_letters("가" + "아" * 24)
    start = time.perf_counter()
    first = list(itertools.islice(analyses_by_count_masks(lexicon, key), 10))
    assert time.perf_counter() - start < 0.05
    assert [s for s, _ in first[0].segments] == ["가"] + ["아아"] * 12
    assert [s for s, _ in first[1].segments] == ["가", "아", "아"] + ["아아"] * 11
    assert [len(a.segments) for a in first] == [13] + [14] * 9


def glued_words() -> list[str]:
    """Ten words repeated until they hold 2,000 characters."""
    words = ["영화를", "가격이", "배송도", "좋아요", "맛있다", "제품은", "받았다", "친구와",
             "사람들이", "추천합니다"]
    glued = []
    while sum(map(len, glued)) < 2000:
        glued.append(words[len(glued) % len(words)])
    return glued


def test_a_2000_char_glued_token_classifies_as_spacing_within_a_second(classifier_resources):
    glued = glued_words()
    token = next(iter(tokenize("".join(glued))))
    start = time.perf_counter()
    result = classify_token(token, classifier_resources)
    assert time.perf_counter() - start < 1.0
    assert result.primary is Category.SPACING
    assert result.suggestion == " ".join(glued)
    # and every category, the deviant search too, within the same bound
    start = time.perf_counter()
    found = tuple(detections(token, classifier_resources))
    assert time.perf_counter() - start < 1.0
    assert found[0] == (result.candidates[0], result.suggestion)


def test_the_deviant_search_of_a_2000_char_glued_token_steps_a_few_hundred_letters(
        classifier_resources):
    # a count, so it holds on any host: from a fresh deviant automaton,
    # the search steps only the letters near the token's first words.
    # classify stops at SPACING, so every category is run to reach it
    res = rebuilt(classifier_resources)
    search, step, steps = res.deviant_search, res.deviant_search.step, []
    search.step = lambda *args: steps.append(args) or step(*args)
    tuple(detections(next(iter(tokenize("".join(glued_words())))), res))
    assert 0 < len(steps) <= 200


def spacing_split(index, res):
    return _spacing_split(index, res, Category.SPACING)


NOUN_AND_JOSA = ["가,가.N", "가,가.JOSA", "나,나.N"]


def test_spacing_stays_linear_when_a_syllable_is_both_noun_and_josa():
    # every 가 both starts and continues a word, so a word walk per start
    # would read the whole run from each of its 2,000 starts
    lexicon = Lexicon(read_entries(NOUN_AND_JOSA))
    text = "가" * 2000 + "나가"
    start = time.perf_counter()
    got = spacing_split(TextIndex(text, lexicon), Resources(lexicon=lexicon, fsts=[]))
    assert time.perf_counter() - start < 0.5
    assert got[1] == "가" * 2000 + " 나가"


@pytest.mark.parametrize("n", [500, 2000, 8000])
def test_spacing_of_a_noun_and_josa_run_holds_a_few_states(n):
    # a count, so it holds on any host: one forward run of the word
    # automaton, whose states repeat with each 가, 10 at any n
    lexicon = Lexicon(read_entries(NOUN_AND_JOSA))
    index = TextIndex("가" * n + "나가", lexicon)
    assert spacing_split(index, Resources(lexicon=lexicon, fsts=[])) is not None
    assert len(lexicon._words.pairs) <= 12


def test_spacing_of_a_2000_char_glued_token_holds_a_few_states(classifier_resources):
    # a count: from a fresh lexicon, the first two rounds of the ten words
    # make the word automaton's 90 states (the second round's first word
    # meets the first round's last), and the rounds after them add none
    base = classifier_resources.lexicon
    lexicon = Lexicon(base.entries, base.concat_rules)
    res = rebuilt(classifier_resources, lexicon=lexicon)
    glued = glued_words()
    assert spacing_split(TextIndex("".join(glued[:20]), lexicon), res) is not None
    states = len(lexicon._words.pairs)
    assert states <= 100
    assert spacing_split(TextIndex("".join(glued), lexicon), res) is not None
    assert len(lexicon._words.pairs) == states


def test_spacing_builds_no_lattice_when_no_first_word_ends_at_a_character(monkeypatch):
    # 가 is a word that ends inside 각, at no character start, so no split
    # can start with it, and the run dies at the ㄱ of 각
    lexicon = Lexicon(read_entries(["가,가.N"]))
    index = TextIndex("각뷁", lexicon)
    assert lexicon.word_ends(index.letters) == {2}
    lattice, lattices = Lexicon.lattice, []
    monkeypatch.setattr(Lexicon, "lattice", lambda *args: lattices.append(args) or lattice(*args))
    assert spacing_split(index, Resources(lexicon=lexicon, fsts=[])) is None
    assert lattices == []
    # spacing's run made no state past word_ends': dead, start, ㄱ and 가
    assert len(lexicon._words.pairs) == 4


def spacing_lattices(monkeypatch, swap_step, classify_texts) -> int:
    """Lexicon.lattice calls made inside the spacing split step while
    ``classify_texts()`` runs."""
    lattice, inside, calls = Lexicon.lattice, [], []

    def counted(self, *args):
        calls.append(bool(inside))
        return lattice(self, *args)

    def spacing(*args):
        inside.append(True)
        try:
            return _spacing_split(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Lexicon, "lattice", counted)
    swap_step(_spacing_split, spacing)
    classify_texts()
    return sum(calls)


@pytest.mark.parametrize("run, ceiling", [(classify_corpus, 0), (every_detection, 0)],
                         ids=["classify_corpus", "every_detection"])
def test_spacing_builds_a_lattice_for_few_corpus_types(monkeypatch, swap_step, classifier_resources,
                                                      formal_text, informal_text, run, ceiling):
    # a count: spacing runs the word automaton and builds no lattice for
    # any of the two corpora's 29 non-analyzable types.  A lattice per
    # spacing check reads 5 under classify_corpus and 19 with every category
    def classify_texts():
        for text in (formal_text, informal_text):
            run(tokenize(text), rebuilt(classifier_resources))

    assert spacing_lattices(monkeypatch, swap_step, classify_texts) <= ceiling


def every_token_exhausted(stream, res):
    """Every category on every non-analyzable token of ``stream``, each
    occurrence of a type again."""
    for token in stream:
        try:
            tuple(detections(token, res))
        except PreconditionViolated:
            pass


@pytest.mark.parametrize("run, ceiling", [(classify_corpus, 17), (every_token_exhausted, 40)],
                         ids=["classify_corpus", "every_token_exhausted"])
def test_grammar_checks_run_few_grammars_over_the_corpora(monkeypatch, classifier_resources,
                                                         formal_text, informal_text, run, ceiling):
    # a count: a grammar check runs only the grammars that may start at the
    # character it starts at.  Running every grammar of the category reads
    # 61 run_from calls under classify_corpus and 278 with every category
    # on every token
    calls, run_from = [], apply.run_from
    monkeypatch.setattr(apply, "run_from", lambda *args: calls.append(args) or run_from(*args))
    for text in (formal_text, informal_text):
        run(tokenize(text), rebuilt(classifier_resources))
    assert 0 < len(calls) <= ceiling


HADA_RUN_ENTRIES =["가,가.N", "하,하.XSV", "아,아.EOMI", "아아,아아.EOMI", "되,되.XSV"]


@pytest.mark.parametrize("n", [500, 2000, 8000])
def test_hada_root_of_a_verb_with_n_endings_holds_a_few_states(n):
    # one backward run over the reversed letters; the endings repeat, so
    # the automaton holds 9 states at any n
    lexicon = Lexicon(read_entries(HADA_RUN_ENTRIES))
    res = Resources(lexicon=lexicon, fsts=[])
    assert _hada_root(TextIndex("뷁하" + "아" * n, lexicon), res, Category.NEOLOGISM) == (
        "hada-pattern:뷁", None)
    assert len(res.hada_tails.pairs) <= 12


def with_10000_loan_entries(res: Resources) -> Resources:
    """``res`` with 10,000 seeded loanword-like entries of 2-5 open
    syllables after its own loan entries."""
    rng = random.Random(0)
    open_syllables = [chr(0xAC00 + 28 * i) for i in range(19 * 21)]
    surfaces = ["".join(rng.choices(open_syllables, k=rng.randint(2, 5))) for _ in range(10000)]
    return rebuilt(res, loan_entries=res.tries[Category.LOANWORD_VARIANT].entries
                   + tuple(DictEntry(s, s, Pos.N, frozenset({"loan"})) for s in surfaces))


def test_informal_sample_classifies_with_10000_loan_entries_within_half_a_second(
        classifier_resources, informal_text):
    # one distance computation per entry takes seconds here
    res = with_10000_loan_entries(classifier_resources)
    stream = tokenize(informal_text)
    start = time.perf_counter()
    out = classify_corpus(stream, res)
    assert time.perf_counter() - start < 0.5
    assert len(out.results) == len(classify_corpus(stream, classifier_resources).results)
    # and every category on each type, from a fresh deviant automaton,
    # within the same bound
    res = rebuilt(res)
    start = time.perf_counter()
    found = every_detection(stream, res)
    assert time.perf_counter() - start < 0.5
    assert list(found) == [r.token.surface for r in out.results]


def test_informal_sample_reads_a_few_thousand_rows_of_10000_loan_entries(
        monkeypatch, classifier_resources, informal_text):
    # a count, so it holds on any host: the rows BandedRows.grow returns
    # inside the loan search with every category run on each type, 7,096
    # measured; trie children follow entry order, so the count is the
    # same in every process
    res = with_10000_loan_entries(classifier_resources)
    trie = res.tries[Category.LOANWORD_VARIANT]
    grow, prefix_matches = BandedRows.grow, trie.prefix_matches
    work = {"rows": 0, "searching": False}

    def counting_grow(self, *args):
        got = grow(self, *args)
        work["rows"] += len(got) if work["searching"] else 0
        return got

    def counting_prefix_matches(*args):
        work["searching"] = True
        try:
            return prefix_matches(*args)
        finally:
            work["searching"] = False

    monkeypatch.setattr(BandedRows, "grow", counting_grow)
    monkeypatch.setattr(trie, "prefix_matches", counting_prefix_matches)
    every_detection(tokenize(informal_text), res)
    assert 0 < work["rows"] <= 1.1 * 7_096


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# counts, so they hold on any host: the peak over 200 copies of the
# informal sample is at most 1.5x the peak over 20, plus 64 KiB for the
# interpreter's own allocations; the texts are built before tracing
# starts.  A stream that kept its tokens read 10x on both (1,457 and
# 14,556 KiB measured)
def test_tokenize_holds_no_token_of_a_long_text(informal_text):
    def iterate(text):
        for _ in tokenize(text):
            pass

    texts = {n: informal_text * n for n in (20, 200)}
    assert traced_peak(lambda: iterate(texts[200])) <= \
        1.5 * traced_peak(lambda: iterate(texts[20])) + 64 * 1024


def test_classify_corpus_holds_no_token_of_a_long_text(classifier_resources, informal_text):
    # the results hold one Token per type, and the texts share their 27
    # types; a warm-up pass first grows the lazy deviant and 하-tail
    # automata, which would otherwise count in the first traced run
    texts = {n: informal_text * n for n in (20, 200)}
    classify_corpus(tokenize(texts[20]), classifier_resources)
    assert traced_peak(lambda: classify_corpus(tokenize(texts[200]), classifier_resources)) <= \
        1.5 * traced_peak(lambda: classify_corpus(tokenize(texts[20]), classifier_resources)) \
        + 64 * 1024


def chain_graph(boxes: int, output: str = "") -> str:
    """A graph whose one literal box sits behind ``boxes`` epsilon boxes,
    each emitting ``output``."""
    label = f'<E> / "{output}"' if output else "<E>"
    lines = ["GRAPH Chain TAG CHAIN", "0 INITIAL -> 1"]
    lines += [f"{i} {label} -> {i + 1}" for i in range(1, boxes + 1)]
    lines += [f'{boxes + 1} "짱|대박" / "진짜" -> 9999', "9999 FINAL"]
    return "\n".join(lines) + "\n"


def test_cli_compiles_a_long_epsilon_chain(tmp_path):
    path = tmp_path / "chain.lgg"
    path.write_text(chain_graph(1202), encoding="utf-8")
    r = run_cli("graph", "compile", path)
    assert r.returncode == 0, r.stderr.decode()
    chained = parse_graph_library(chain_graph(1202))
    direct = parse_graph_library(chain_graph(0))
    start = time.perf_counter()
    fst = compile_graph(chained[0], chained)
    assert time.perf_counter() - start < 0.5
    assert fst.dump() == compile_graph(direct[0], direct).dump()
    assert r.stdout.decode() == fst.dump()


def test_a_chain_of_4800_emitting_epsilons_compiles_within_a_second():
    # one reachability walk per emitting epsilon would be quadratic here
    chained = parse_graph_library(chain_graph(4800, output="x"))
    start = time.perf_counter()
    fst = compile_graph(chained[0], chained)
    assert time.perf_counter() - start < 1.0
    assert [arc[2] for arc in fst.arcs[fst.initial]] == ["x" * 4800] * 2


def call_chain(graphs: int, last: str = '1 "짱|대박" / "진짜" -> 2\n2 FINAL') -> str:
    """``graphs`` graphs, each calling the next; the last holds the boxes
    ``last`` after its initial box, by default one literal."""
    lines = []
    for i in range(graphs - 1):
        lines += [f"GRAPH G{i} TAG CHAIN", "0 INITIAL -> 1", f"1 :G{i + 1} -> 2", "2 FINAL"]
    lines += [f"GRAPH G{graphs - 1} TAG CHAIN", "0 INITIAL -> 1", last]
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


def test_cli_names_the_root_of_a_chain_of_1100_calls_ending_in_an_emitting_cycle(tmp_path):
    path = tmp_path / "cycle.lgg"
    cycle = '1 "짱" -> 2\n2 <E> / "x" -> 3\n3 <E> / "y" -> 2,9\n9 FINAL'
    path.write_text(call_chain(1100, last=cycle), encoding="utf-8")
    r = run_cli("graph", "compile", path)
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr.decode() == "error: graph 'G0': an epsilon cycle emits 'xy'\n"


def test_a_chain_of_1100_subgraph_calls_compiles_within_half_a_second():
    calls = parse_graph_library(call_chain(1100))
    direct = parse_graph_library(call_chain(1))
    start = time.perf_counter()
    fst = compile_graph(calls[0], calls)
    assert time.perf_counter() - start < 0.5
    assert fst.dump() == compile_graph(direct[0], direct).dump()


def best_of_3(run) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def test_validate_grows_linearly_along_a_chain_of_subgraph_calls():
    # each callee is checked against the call path; a scan of the path
    # would make 4x the calls cost 16x the time
    short, long = (parse_graph_library(call_chain(n)) for n in (2200, 8800))
    assert validate(long[0], long) == [] == validate(short[0], short)
    assert best_of_3(lambda: validate(long[0], long)) <= 8 * best_of_3(lambda: validate(short[0], short))


@pytest.mark.parametrize("n", [2200, 8800])
def test_validate_expands_each_graph_of_a_chain_once(monkeypatch, n):
    # counts, so they hold on any host: a second expansion of each graph
    # doubles the time at both sizes and slips past the ratio above
    calls = parse_graph_library(call_chain(n))
    structure, names = grammar._validate_structure, GraphIR.subgraph_names
    work = {"structure": 0, "names": 0}

    def counting_structure(g):
        work["structure"] += 1
        return structure(g)

    def counting_names(g):
        work["names"] += 1
        return names(g)

    monkeypatch.setattr(grammar, "_validate_structure", counting_structure)
    monkeypatch.setattr(GraphIR, "subgraph_names", counting_names)
    assert validate(calls[0], calls) == []
    assert work == {"structure": n, "names": n}


def alternatives_box(words: list[str]) -> str:
    """A graph of one box whose alternatives are ``words``."""
    return ("GRAPH Big TAG LOAN\n0 INITIAL -> 1\n"
            f'1 "{"|".join(words)}" / "x" -> 2\n2 FINAL\n')


def test_a_box_of_2000_alternatives_compiles_within_a_second():
    words = [chr(0xAC00 + 5 * i) + "요" for i in range(2000)]
    g = parse_graph_library(alternatives_box(words))[0]
    start = time.perf_counter()
    fst = compile_graph(g)
    assert time.perf_counter() - start < 1.0
    # one chain of arcs per alternative from the initial state to the one
    # final state, its output on the last arc
    lengths = [len(literal_symbols(w)) for w in words]
    assert fst.n_states == 2 + sum(n - 1 for n in lengths)
    assert len(fst.transitions) == sum(lengths)
    assert list(fst.final_outputs.values()) == [("",)]


def closure_pairs(monkeypatch, text: str) -> int:
    """Epsilon-closure pairs compile_graph computes for the first graph of
    ``text``: a count that, unlike a time, no machine changes."""
    closure = fst_module._epsilon_closure
    sizes = []

    def counted(eps, q):
        pairs = closure(eps, q)
        sizes.append(len(pairs))
        return pairs

    monkeypatch.setattr(fst_module, "_epsilon_closure", counted)
    graphs = parse_graph_library(text)
    compile_graph(graphs[0], graphs)
    return sum(sizes)


@pytest.mark.parametrize("n", [1200, 2400, 4800])
def test_closure_pairs_grow_linearly_along_an_emitting_epsilon_chain(monkeypatch, n):
    assert closure_pairs(monkeypatch, chain_graph(n, output="x")) <= 2 * n + 10


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_closure_pairs_grow_linearly_with_the_alternatives_of_a_box(monkeypatch, n):
    words = [chr(0xAC00 + 5 * i) + "요" for i in range(n)]
    assert closure_pairs(monkeypatch, alternatives_box(words)) <= 4 * n + 10


@pytest.mark.parametrize("n", [1100, 2200, 4400])
def test_closure_pairs_grow_linearly_along_a_chain_of_subgraph_calls(monkeypatch, n):
    assert closure_pairs(monkeypatch, call_chain(n)) <= 4 * n + 10
