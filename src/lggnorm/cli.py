"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 grammar/dictionary parse error
(a dictionary or grammar file that is not UTF-8 included; the ``error:``
line names the file), 3 input encoding error.  Diagnostics go to stderr;
data to stdout.

Options are checked where argparse parses them (``--dict`` is required,
numbers have a lower bound, concord widths ``MAX_WIDTH`` as an upper one,
``--grammars`` names a directory), so every usage error is a
``_Parser.error``.  The one check argparse cannot make
is ``--priority`` against the loaded grammars: ``_load_library`` reorders
the transducers once, and that order is the priority from then on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import unicodedata

from . import resources
from .apply import Anchor, ApplyConfig, Mode, find_matches, order_grammars, transform
from .classify import classify_corpus, Thresholds
from .concord import ConcordSort, build_concordance, flat
from .fst import CompileError, compile_graph, DEFAULT_MAX_STATES
from .grammar import GraphError, load_grammar_file, root_graphs, validate
from .hangul import fold_letters
from .lexicon import MalformedEntry, is_analyzable
from .stats import FIGURES, compare, corpus_stats
from .tokenizer import InvalidEncoding, TokenClass, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ENCODING = 3

SCHEMA_VERSION = 1
MAX_WIDTH = 10_000  # concord context columns a side; render pads the left to --left


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value
    return parse


def _width(text: str) -> int:
    """An argparse type: a concord context width, 0 to MAX_WIDTH columns."""
    if (value := _at_least(0)(text)) > MAX_WIDTH:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WIDTH}, got {text!r}")
    return value


def _directory(text: str) -> str:
    """An argparse type: the path of an existing directory."""
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"must name a directory: {text}")
    return text


def _read_text(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8-sig")  # a byte order mark is not text
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"{path}: not valid UTF-8 ({exc})") from exc
    if not unicodedata.is_normalized("NFC", text):
        raise InvalidEncoding(f"{path}: input is not NFC-normalized")
    return text


def _load_library(args):
    library = resources.load_grammar_library(args.grammars, max_states=args.max_states)
    if args.priority:
        wanted = tuple(p.strip() for p in args.priority.split(",") if p.strip())
        try:
            library = library._replace(fsts=order_grammars(library.fsts, wanted))
        except ValueError:
            raise UsageError(
                "--priority must list every loaded grammar exactly once; "
                f"loaded: {', '.join(library.priority)}") from None
    return library


def cmd_tokenize(args) -> int:
    for path in args.inputs:
        for tok in tokenize(_read_text(path)):
            print(f"{tok.start}\t{tok.end}\t{tok.cls.value}\t{tok.surface}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    lexicon = resources.load_lexicon(args.dict)
    for path in args.inputs:
        for tok in tokenize(_read_text(path)):
            if tok.cls is TokenClass.HANGUL:
                best = lexicon.best_analysis(fold_letters(tok.surface))
                ok = "yes" if best else "no"
                shown = "+".join(f"{s}/{e.pos.value}" for s, e in best.segments) if best else "-"
            else:
                ok = "yes" if is_analyzable(tok, lexicon) else "no"
                shown = "-"
            print(f"{tok.surface}\t{ok}\t{shown}")
    return EXIT_OK


def cmd_normalize(args) -> int:
    lexicon = resources.load_lexicon(args.dict)
    library = _load_library(args)
    config = ApplyConfig(mode=Mode(args.mode), anchor=Anchor(args.anchor))
    for path in args.inputs:
        text = _read_text(path)
        matches = find_matches(text, library.fsts, lexicon, config)
        sys.stdout.write(transform(text, matches, config.mode))
    return EXIT_OK


def cmd_classify(args) -> int:
    lexicon = resources.load_lexicon(args.dict)
    library = _load_library(args)
    res = resources.load_classifier_resources(
        lexicon, library,
        abbr_path=args.abbr_dict, neo_path=args.neo_dict, loan_path=args.loan_dict,
        thresholds=Thresholds(loan=args.loan_threshold, deviant=args.deviant_threshold))
    rows = [(r.token.surface, r.primary.value, r.suggestion or "",
             r.candidates[0].evidence if r.candidates else "")
            for path in args.inputs
            for r in classify_corpus(tokenize(_read_text(path)), res).results]
    if args.format == "json":
        keys = ("surface", "category", "suggestion", "evidence")
        print(json.dumps({"schema": SCHEMA_VERSION, "results": [dict(zip(keys, r)) for r in rows]},
                         ensure_ascii=False, indent=2))
    else:
        for row in rows:
            print("\t".join(row))
    return EXIT_OK


def cmd_stats(args) -> int:
    lexicon = resources.load_lexicon(args.dict)
    all_stats = [corpus_stats(tokenize(_read_text(path)), lexicon) for path in args.inputs]
    delta = None
    if len(all_stats) == 2:
        report = compare(*all_stats)
        delta = [report.token_delta, report.type_delta,
                 report.non_analyzable_delta, report.ratio_delta]
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "corpora": [
            dict(zip(FIGURES, (round(v, 1) for v in s.figures())), empty=s.empty, label=path)
            for path, s in zip(args.inputs, all_stats)]}
        if delta:
            payload["delta"] = dict(zip(FIGURES, (round(d, 1) for d in delta)))
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    elif delta:
        a, b = all_stats
        delta[-1] = f"{delta[-1]:+.1f}"
        for (name, va), (_, vb), d in zip(a.rows(), b.rows(), delta):
            print(f"{name}\t{va}\t{vb}\t{d}")
    else:
        for s in all_stats:
            for name, value in s.rows():
                print(f"{name}\t{value}")
    return EXIT_OK


def cmd_concord(args) -> int:
    lexicon = resources.load_lexicon(args.dict)
    library = _load_library(args)
    config = ApplyConfig(anchor=Anchor(args.anchor))
    sort = ConcordSort(args.sort)
    for path in args.inputs:
        text = _read_text(path)
        matches = find_matches(text, library.fsts, lexicon, config)
        for line in build_concordance(text, matches, args.left, args.right, sort):
            if args.format == "tsv":
                print(f"{line.offset}\t{flat(line.left)}\t{flat(line.keyword)}\t{flat(line.right)}")
            else:
                print(line.render(args.left))
    return EXIT_OK


def cmd_graph(args) -> int:
    graphs = load_grammar_file(args.file)
    roots = root_graphs(graphs)
    if args.graph_cmd == "validate":
        # a helper two roots call is validated twice; report it once
        diags = dict.fromkeys(d for g in roots for d in validate(g, graphs))
        if diags:
            for d in diags:
                print(str(d))
            return EXIT_PARSE
        print("OK")
        return EXIT_OK
    # compile every root before printing, so an error leaves stdout empty
    fsts = [compile_graph(g, graphs, max_states=args.max_states) for g in roots]
    for fst in fsts:
        sys.stdout.write(fst.dump())
    return EXIT_OK


MAX_STATES_HELP = ("cap on the states a graph builds before epsilon removal "
                   "(default: %(default)s); a graph can need more than the "
                   "'states' line of its compiled dump shows")


def build_parser() -> _Parser:
    parser = _Parser(prog="lggnorm",
                     description="Detect, classify and normalize non-standard "
                                 "Korean word forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("inputs", nargs="*", default=["-"], metavar="FILE",
                       help="input files ('-' or none = stdin)")

    def add_dict(p):
        p.add_argument("--dict", action="append", required=True, metavar="FILE",
                       help="dictionary file (repeatable)")

    def add_grammars(p, anchor=True):
        p.add_argument("--grammars", type=_directory, metavar="DIR",
                       help="grammar directory (default: bundled)")
        p.add_argument("--priority", metavar="NAMES",
                       help="comma-separated grammar priority order")
        if anchor:  # classify scans no text with the grammars
            p.add_argument("--anchor", choices=[a.value for a in Anchor],
                           default=Anchor.TOKEN_START.value)
        p.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES,
                       metavar="N", help=MAX_STATES_HELP)

    p = sub.add_parser("tokenize", help="emit classified token spans as TSV")
    add_inputs(p)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("analyze", help="dictionary analysis per token")
    add_dict(p)
    add_inputs(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("normalize", help="rewrite non-standard forms")
    add_dict(p)
    add_grammars(p)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.REPLACE.value)
    add_inputs(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="classify non-analyzable types")
    add_dict(p)
    add_grammars(p, anchor=False)
    p.add_argument("--abbr-dict", metavar="FILE")
    p.add_argument("--neo-dict", metavar="FILE")
    p.add_argument("--loan-dict", metavar="FILE")
    p.add_argument("--loan-threshold", type=_at_least(0), default=Thresholds().loan)
    p.add_argument("--deviant-threshold", type=_at_least(0), default=Thresholds().deviant)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    add_inputs(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stats", help="corpus size / type / non-analyzable stats")
    add_dict(p)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    add_inputs(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("concord", help="keyword-in-context for matched spans")
    add_dict(p)
    add_grammars(p)
    p.add_argument("--left", type=_width, default=24)
    p.add_argument("--right", type=_width, default=24)
    p.add_argument("--sort", choices=[s.value for s in ConcordSort],
                   default=ConcordSort.TEXT_ORDER.value)
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    add_inputs(p)
    p.set_defaults(func=cmd_concord)

    p = sub.add_parser("graph", help="compile or validate grammar files")
    gsub = p.add_subparsers(dest="graph_cmd", required=True)
    for name in ("compile", "validate"):
        gp = gsub.add_parser(name)
        gp.add_argument("file")
        if name == "compile":  # validate compiles nothing
            gp.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES,
                            metavar="N", help=MAX_STATES_HELP)
        gp.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedEntry, GraphError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidEncoding as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENCODING
    except BrokenPipeError:  # before OSError, of which it is one
        return EXIT_OK
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
