"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 grammar/dictionary parse error,
3 input encoding error.  Diagnostics go to stderr; data to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import unicodedata

from . import resources
from .apply import Anchor, ApplyConfig, Mode, find_matches, order_grammars, transform
from .classify import classify_corpus, Thresholds
from .concord import ConcordSort, build_concordance
from .fst import CompileError, compile_graph, DEFAULT_MAX_STATES
from .grammar import GraphError, load_grammar_file, validate
from .lexicon import MalformedEntry, analyze_token, is_analyzable
from .stats import compare, corpus_stats
from .tokenizer import InvalidEncoding, TokenClass, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ENCODING = 3

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"{path}: not valid UTF-8 ({exc})") from exc
    if not unicodedata.is_normalized("NFC", text):
        raise InvalidEncoding(f"{path}: input is not NFC-normalized")
    return text


def _require_dict(args):
    if not args.dict:
        raise UsageError("--dict is required for this subcommand")


def _load_lexicon(args):
    return resources.load_lexicon(args.dict)


def _load_library(args):
    directory = getattr(args, "grammars", None)
    library = resources.load_grammar_library(
        directory, max_states=getattr(args, "max_states", DEFAULT_MAX_STATES))
    priority = getattr(args, "priority", None)
    if priority:
        wanted = tuple(p.strip() for p in priority.split(",") if p.strip())
        try:
            library.fsts = order_grammars(library.fsts, wanted)
        except ValueError:
            raise UsageError(
                "--priority must list every loaded grammar exactly once; "
                f"loaded: {', '.join(library.priority)}") from None
    return library


def _apply_config(args, library, mode=Mode.REPLACE) -> ApplyConfig:
    anchor = Anchor.TOKEN_START if getattr(args, "anchor", "token") == "token" else Anchor.ANYWHERE
    if hasattr(args, "mode"):
        mode = Mode.REPLACE if args.mode == "replace" else Mode.MERGE
    return ApplyConfig(mode=mode, anchor=anchor, grammar_priority=library.priority)


def cmd_tokenize(args) -> int:
    for path in args.inputs:
        for tok in tokenize(_read_text(path)):
            print(f"{tok.start}\t{tok.end}\t{tok.cls.value}\t{tok.surface}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _require_dict(args)
    lexicon = _load_lexicon(args)
    for path in args.inputs:
        for tok in tokenize(_read_text(path)):
            if tok.cls is TokenClass.HANGUL:
                analyses = analyze_token(tok, lexicon)
                ok = "yes" if analyses else "no"
                shown = ("+".join(f"{s}/{e.pos.value}" for s, e in analyses[0].segments)
                         if analyses else "-")
            else:
                ok = "yes" if is_analyzable(tok, lexicon) else "no"
                shown = "-"
            print(f"{tok.surface}\t{ok}\t{shown}")
    return EXIT_OK


def cmd_normalize(args) -> int:
    _require_dict(args)
    lexicon = _load_lexicon(args)
    library = _load_library(args)
    config = _apply_config(args, library)
    for path in args.inputs:
        text = _read_text(path)
        matches = find_matches(text, library.fsts, lexicon, config)
        sys.stdout.write(transform(text, matches, config.mode))
    return EXIT_OK


def cmd_classify(args) -> int:
    _require_dict(args)
    lexicon = _load_lexicon(args)
    library = _load_library(args)
    res = resources.load_classifier_resources(
        lexicon, library,
        abbr_path=args.abbr_dict, neo_path=args.neo_dict, loan_path=args.loan_dict,
        thresholds=Thresholds(loan=args.loan_threshold, deviant=args.deviant_threshold))
    rows = []
    for path in args.inputs:
        stream = tokenize(_read_text(path))
        result = classify_corpus(stream, res)
        for r in result.results:
            rows.append({
                "surface": r.token.surface,
                "category": r.primary.value,
                "suggestion": r.suggestion or "",
                "evidence": r.candidates[0].evidence if r.candidates else "",
            })
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "results": rows},
                         ensure_ascii=False, indent=2))
    else:
        for row in rows:
            print(f"{row['surface']}\t{row['category']}\t{row['suggestion']}\t{row['evidence']}")
    return EXIT_OK


def cmd_stats(args) -> int:
    _require_dict(args)
    lexicon = _load_lexicon(args)
    all_stats = [(path, corpus_stats(tokenize(_read_text(path)), lexicon))
                 for path in args.inputs]
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "corpora": [dict(rows_to_json(s), label=path) for path, s in all_stats],
        }
        if len(all_stats) == 2:
            report = compare(all_stats[0][1], all_stats[1][1])
            payload["delta"] = {
                "corpus_size": report.token_delta,
                "types": report.type_delta,
                "non_analyzable_types": report.non_analyzable_delta,
                "non_analyzable_pct": round(report.ratio_delta, 1),
            }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return EXIT_OK
    if len(all_stats) == 2:
        (_, a), (_, b) = all_stats
        report = compare(a, b)
        deltas = [report.token_delta, report.type_delta,
                  report.non_analyzable_delta, f"{report.ratio_delta:+.1f}"]
        for (name, va), (_, vb), d in zip(a.rows(), b.rows(), deltas):
            print(f"{name}\t{va}\t{vb}\t{d}")
    else:
        for _, s in all_stats:
            for name, value in s.rows():
                print(f"{name}\t{value}")
    return EXIT_OK


def rows_to_json(s) -> dict:
    return {
        "corpus_size": s.token_count,
        "types": s.type_count,
        "non_analyzable_types": s.non_analyzable_types,
        "non_analyzable_pct": round(s.non_analyzable_ratio, 1),
        "empty": s.empty,
    }


def cmd_concord(args) -> int:
    _require_dict(args)
    lexicon = _load_lexicon(args)
    library = _load_library(args)
    config = _apply_config(args, library)
    sort = {s.value: s for s in ConcordSort}[args.sort]
    for path in args.inputs:
        text = _read_text(path)
        matches = find_matches(text, library.fsts, lexicon, config)
        for line in build_concordance(text, matches, args.left, args.right, sort):
            if args.format == "tsv":
                def flat(s):
                    return s.replace("\n", "⏎")
                print(f"{line.offset}\t{flat(line.left)}\t{flat(line.keyword)}\t{flat(line.right)}")
            else:
                print(line.render(args.left))
    return EXIT_OK


def cmd_graph(args) -> int:
    graphs = load_grammar_file(args.file)
    called = {name for g in graphs for name in g.subgraph_names()}
    roots = [g for g in graphs if g.name not in called]
    if args.graph_cmd == "validate":
        diags = [d for g in roots for d in validate(g, graphs)]
        if diags:
            for d in diags:
                print(str(d))
            return EXIT_PARSE
        print("OK")
        return EXIT_OK
    for g in roots:
        fst = compile_graph(g, graphs, max_states=args.max_states)
        sys.stdout.write(fst.dump())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lggnorm",
                     description="Detect, classify and normalize non-standard "
                                 "Korean word forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("inputs", nargs="*", default=["-"], metavar="FILE",
                       help="input files ('-' or none = stdin)")

    def add_dict(p):
        p.add_argument("--dict", action="append", metavar="FILE",
                       help="dictionary file (repeatable)")

    def add_grammars(p):
        p.add_argument("--grammars", metavar="DIR",
                       help="grammar directory (default: bundled)")
        p.add_argument("--priority", metavar="NAMES",
                       help="comma-separated grammar priority order")
        p.add_argument("--anchor", choices=["token", "anywhere"], default="token")
        p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

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
    p.add_argument("--mode", choices=["replace", "merge"], default="replace")
    add_inputs(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="classify non-analyzable types")
    add_dict(p)
    add_grammars(p)
    p.add_argument("--abbr-dict", metavar="FILE")
    p.add_argument("--neo-dict", metavar="FILE")
    p.add_argument("--loan-dict", metavar="FILE")
    p.add_argument("--loan-threshold", type=int, default=2)
    p.add_argument("--deviant-threshold", type=int, default=1)
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
    p.add_argument("--left", type=int, default=24)
    p.add_argument("--right", type=int, default=24)
    p.add_argument("--sort", choices=["text", "keyword", "right"], default="text")
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    add_inputs(p)
    p.set_defaults(func=cmd_concord)

    p = sub.add_parser("graph", help="compile or validate grammar files")
    gsub = p.add_subparsers(dest="graph_cmd", required=True)
    for name in ("compile", "validate"):
        gp = gsub.add_parser(name)
        gp.add_argument("file")
        gp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
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
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
