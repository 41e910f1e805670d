"""The package's records: immutable named tuples, checked where they are
built, and a start-up that imports none of ``dataclasses``' helpers."""

import subprocess
import sys

import pytest

from lggnorm.apply import ApplyConfig, Match
from lggnorm.classify import Candidate, Category, ClassificationResult, CorpusClassification, Thresholds
from lggnorm.concord import ConcordLine
from lggnorm.grammar import Box, BoxKind, Diagnostic, DiagnosticCode, GraphError, GraphIR, Label, LabelKind
from lggnorm.hangul import IndexOutOfRange, Jamo, JamoKind, initial
from lggnorm.lexicon import DictEntry, MorphAnalysis, Pos
from lggnorm.resources import GrammarLibrary
from lggnorm.stats import ComparisonReport, CorpusStats
from lggnorm.tokenizer import Token, TokenClass

ENTRY = DictEntry("가", "가", Pos.N, frozenset({"src=core"}))
TOKEN = Token("가", TokenClass.HANGUL, 0, 3)
STATS = CorpusStats(3, 2, 1)
RECORDS = [
    TOKEN,
    Match(0, 3, "넘", "너무", "Intensifier", "NEO"),
    ApplyConfig(),
    Thresholds(),
    Candidate(Category.SPACING, "split:2"),
    ClassificationResult(TOKEN, Category.UNKNOWN, (), None),
    CorpusClassification(()),
    ConcordLine("", "넘", "", 0),
    Label(LabelKind.LITERAL, "넘"),
    Box(0, BoxKind.INITIAL),
    GraphIR("G", "T", {}),
    Diagnostic(DiagnosticCode.UNREACHABLE_BOX, "box 3"),
    initial(0),
    ENTRY,
    MorphAnalysis((("가", ENTRY),)),
    GrammarLibrary([]),
    STATS,
    ComparisonReport(STATS, STATS),
]

# the modules ``import dataclasses`` loads, which no lggnorm module needs
DATACLASS_IMPORTS = ("dataclasses", "inspect", "ast", "dis")


def test_the_cli_and_api_modules_import_without_dataclasses():
    code = ("import sys\n"
            "import lggnorm.cli, lggnorm.resources, lggnorm.classify, lggnorm.stats, lggnorm.concord\n"
            f"print(' '.join(m for m in {DATACLASS_IMPORTS!r} if m in sys.modules))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout.decode().split() == []


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_label_and_jamo_check_their_replacements_too():
    with pytest.raises(GraphError):
        Label(LabelKind.LITERAL, "넘")._replace(payload="")
    with pytest.raises(GraphError):
        Label(LabelKind.EPSILON)._replace(kind=LabelKind.MASK)
    with pytest.raises(IndexOutOfRange):
        initial(0)._replace(index=19)
    with pytest.raises(IndexOutOfRange):
        Jamo(JamoKind.COMPAT, 0, 0x3131)._replace(codepoint=0x3130)
    assert Label(LabelKind.LITERAL, "넘")._replace(payload="너무") == Label(LabelKind.LITERAL, "너무")


@pytest.mark.parametrize("make", [
    lambda: Jamo(JamoKind.INITIAL, 1, 0x1100),
    lambda: initial(0)._replace(index=1),
    lambda: Jamo(JamoKind.MEDIAL, 0, 0x1100),
    lambda: Jamo(JamoKind.COMPAT, 1, 0x3131),
], ids=["initial", "initial-replaced", "medial", "compat"])
def test_a_jamo_codepoint_must_be_that_of_its_index(make):
    with pytest.raises(IndexOutOfRange):
        make()


def test_entries_hash_as_their_field_tuples():
    # the frozen dataclass hashed its field tuple too, so sets and dicts
    # of entries keep their iteration order, and with it every output
    assert hash(ENTRY) == hash(("가", "가", Pos.N, frozenset({"src=core"})))
    assert ENTRY == ENTRY._replace() and ENTRY != ENTRY._replace(pos=Pos.V)
