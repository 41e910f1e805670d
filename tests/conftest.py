import pytest

from lggnorm import classify, resources
from lggnorm.grammar import load_grammar_file


@pytest.fixture(scope="session")
def lexicon():
    return resources.load_lexicon()


@pytest.fixture(scope="session")
def library():
    return resources.load_grammar_library()


@pytest.fixture(scope="session")
def graphs():
    """Every graph of the bundled grammar files, in load order."""
    return [g for path in sorted(resources.grammar_dir().glob("*.lgg"))
            for g in load_grammar_file(path)]


@pytest.fixture(scope="session")
def classifier_resources(lexicon, library):
    return resources.load_classifier_resources(lexicon, library)


@pytest.fixture(scope="session")
def formal_text():
    return resources.corpus_path("formal_sample.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def informal_text():
    return resources.corpus_path("informal_sample.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def gold_rows():
    rows = {}
    text = resources.corpus_path("informal_gold.tsv").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        parts += [""] * (3 - len(parts))
        rows[parts[0]] = (parts[1], parts[2])
    return rows


@pytest.fixture
def swap_step(monkeypatch):
    """``swap_step(step, replacement)`` puts ``replacement`` in place of
    ``step`` in every category of the classify cascade that runs it, for
    one test.  The cascade table holds the step functions themselves, so
    setting the module attribute that names a step would not reach it."""
    def swap(step, replacement):
        assert any(step in steps for _, _, steps in classify._CASCADE), step
        monkeypatch.setattr(classify, "_CASCADE", tuple(
            (cat, classes, tuple(replacement if s is step else s for s in steps))
            for cat, classes, steps in classify._CASCADE))
    return swap
