"""Access to the bundled dictionaries, grammars and sample corpora.

The asset root defaults to the data shipped inside the package and can
be overridden with the ``LGGNORM_ASSETS`` environment variable.  When a
grammar directory is loaded, graphs referenced as subgraphs by other
graphs are treated as helpers: only the root graphs
(``grammar.root_graphs``; two graphs of one name are a GraphError, and
a recursive call no root reaches fails to compile) are applied to text,
in (file name, in-file) order — which is also the default grammar
priority.  Dictionary files are read by
``lexicon.read_entries_file``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .classify import Resources, Thresholds
from .fst import DEFAULT_MAX_STATES, Fst, compile_graph
from .grammar import GraphIR, load_grammar_file, root_graphs
from .lexicon import Lexicon, read_entries_file

ASSETS_ENV = "LGGNORM_ASSETS"


def asset_root() -> Path:
    override = os.environ.get(ASSETS_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "assets"


def dictionary_path(name: str) -> Path:
    return asset_root() / "dict" / name


def corpus_path(name: str) -> Path:
    return asset_root() / "corpora" / name


def grammar_dir() -> Path:
    return asset_root() / "grammars"


class GrammarLibrary(NamedTuple):
    """The compiled root transducers of a grammar directory."""

    fsts: list[Fst]

    @property
    def priority(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fsts)


def load_grammar_library(directory: Path | str | None = None,
                         max_states: int = DEFAULT_MAX_STATES) -> GrammarLibrary:
    directory = Path(directory) if directory is not None else grammar_dir()
    graphs: list[GraphIR] = []
    for path in sorted(directory.glob("*.lgg")):
        graphs.extend(load_grammar_file(path))
    fsts = [compile_graph(g, graphs, max_states=max_states) for g in root_graphs(graphs)]
    return GrammarLibrary(fsts)


def load_lexicon(paths=None) -> Lexicon:
    """Analyzability dictionary; defaults to core + loanword standards."""
    if not paths:
        paths = [dictionary_path("core.dic"), dictionary_path("loan.dic")]
    return Lexicon(e for p in paths for e in read_entries_file(p))


def load_classifier_resources(lexicon: Lexicon | None = None,
                              library: GrammarLibrary | None = None,
                              abbr_path=None, neo_path=None, loan_path=None,
                              thresholds: Thresholds = Thresholds()) -> Resources:
    if lexicon is None:
        lexicon = load_lexicon()
    if library is None:
        library = load_grammar_library()
    return Resources(
        lexicon=lexicon,
        fsts=library.fsts,
        abbr_entries=read_entries_file(abbr_path or dictionary_path("abbr.dic")),
        neo_entries=read_entries_file(neo_path or dictionary_path("neo.dic")),
        loan_entries=read_entries_file(loan_path or dictionary_path("loan.dic")),
        thresholds=thresholds,
    )
