import pytest

from lggnorm import resources
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
