"""lggnorm: non-standard Korean word forms — detection, classification,
normalization via local grammar graphs compiled to transducers."""

from .apply import Anchor, ApplyConfig, Match, Mode, find_matches, normalize, transform
from .classify import (Category, ClassificationResult, Resources, Thresholds,
                       classify_corpus, classify_token)
from .concord import ConcordLine, ConcordSort, build_concordance
from .fst import Fst, compile_graph
from .grammar import GraphIR, parse_graph, parse_graph_library, print_graph, validate
from .hangul import (JamoSeq, compose_syllable, decompose_syllable, from_jamo_seq,
                     jamo_edit_distance, to_jamo_seq)
from .lexicon import (DictEntry, Lexicon, MorphAnalysis, analyze_token,
                      is_analyzable, load_dictionary)
from .stats import ComparisonReport, CorpusStats, compare, corpus_stats
from .tokenizer import Token, TokenClass, TokenStream, tokenize, type_census

__version__ = "0.1.0"
