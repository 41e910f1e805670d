"""lggnorm benchmark: seeded workloads, end-to-end metrics, per-layer trace.

One run measures one workload in a fresh child process that holds only
the program and its inputs (``measure.py``), as a closed loop with one
caller (the next op starts when the previous one returns), for a fixed
number of seconds:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced replay of
the first half of the same ops, and the spans go to ``perfbench/out/``.
The line before it is a report: input size, output digest, failures by
exception class, tail percentile, reference loop times, unscaled
throughput and correctness-gate findings.  The exit code is 1 when the
correctness gate or an output check fails.

The loop goes through the whole item pool over and over.  Every op's
time is scaled by a reference loop timed between ops (``measure.py``),
which cancels the host's speed swings, and each item counts once, with
the median of its scaled times; the end-to-end rates and latencies are
taken over those per-item times.  ``setup_s`` is the median of fresh
set-up processes, each scaled the same way by the reference loop timed
in it; ``peak_rss_mb`` is not scaled.

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

runs every workload, each in its own fresh process, one at a time, and
prints every metric by name with its unit.  ``plan.json`` says what each
per-layer metric should move and where the generator's rates come from;
``python3 perfbench/selftest.py`` checks the benchmark itself.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with an error before measuring anything.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

from measure import (HERE, REF_NOMINAL_S, SRC, Record, _alarm, closed_loop, outputs_differ,
                     use_checkout_source)

# Fresh processes whose set-up time is measured, half before and half
# after the timed loop so they span more of the machine's speed swings;
# setup_s is their median.
SETUP_PROBES = 8
MEASURE = os.path.join(HERE, "measure.py")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_chars_per_s", "chars/s"),
    ("types_per_s", "types/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_plan() -> dict:
    with open(os.path.join(HERE, "plan.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- end-to-end metrics ----------------------------------------------------

def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure_setup(workload, probes):
    """Set-up seconds of ``probes`` fresh processes, each as measured and
    scaled like the op times, by the reference loop timed around it."""
    measured, scaled = [], []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, MEASURE, "setup", workload],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        measured.append(probe["seconds"])
        scaled.append(probe["seconds"] * REF_NOMINAL_S / statistics.fmean(probe["ref_s"]))
    return measured, scaled


def measure_in_child(workload, seed, items, seconds):
    """(record, peak RSS in MB) of one measuring child process; the
    items reach it through a file under ``out/``."""
    path = os.path.join(HERE, "out", f"items-{workload}-{seed}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(items, fh, ensure_ascii=False)
    try:
        done = subprocess.run(
            [sys.executable, MEASURE, "loop", workload, path, str(seconds)],
            capture_output=True, text=True, timeout=150)
    finally:
        os.remove(path)
    if done.returncode != 0:
        sys.exit(f"error: the measuring process exited with {done.returncode}:\n{done.stderr}")
    data = json.loads(done.stdout.strip().splitlines()[-1])
    return Record.from_state(items, data["record"]), data["peak_rss_mb"]


def scaled_durations(rec) -> list[float]:
    """Each timed op's seconds on a host that runs the reference loop in
    REF_NOMINAL_S: its measured seconds divided by the mean of the
    reference times taken just before and just after it."""
    scaled = []
    p = 0
    for k, seconds in enumerate(rec.durations):
        while p + 1 < len(rec.ref_at) and rec.ref_at[p + 1] <= k:
            p += 1
        local = (rec.ref_s[p] + rec.ref_s[min(p + 1, len(rec.ref_s) - 1)]) / 2
        scaled.append(seconds * REF_NOMINAL_S / local)
    return scaled


def item_times(rec) -> dict[int, float]:
    """Median scaled time of each item over its completed timed attempts.

    The loop goes through the whole pool over and over, so a run times
    the same items whatever the program's speed, each once or more."""
    attempts: dict[int, list[float]] = {}
    for idx, seconds, failure in zip(rec.indices, scaled_durations(rec), rec.failures):
        if failure is None:
            attempts.setdefault(idx, []).append(seconds)
    return {idx: statistics.median(times) for idx, times in attempts.items()}


def end_to_end(rec, types_of, setup_samples, tail_pct, peak_rss_mb):
    """Rates and latencies over the scaled time of each item (one sample
    per item), plus the median set-up time and the peak memory."""
    times = item_times(rec)
    busy = sum(times.values())
    tail, _ = percentile(times.values(), tail_pct)
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_chars_per_s": sum(len(rec.items[i][1]) for i in times) / busy,
        "types_per_s": sum(types_of[i] for i in times) / busy,
        "op_p50_ms": 1000 * statistics.median(times.values()),
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": peak_rss_mb,
    }


def length_slopes(rec):
    """Log-log slope of median op time against input length, per op
    kind, over the items that completed on every attempt."""
    times: dict[int, list[float]] = {}
    failed = {idx for idx, f in zip(rec.indices, rec.failures) if f is not None}
    for idx, seconds in zip(rec.indices, rec.durations):
        if idx not in failed:
            times.setdefault(idx, []).append(seconds)
    slopes = {}
    for op in ("classify", "replace"):
        rungs = [i for i in sorted(times) if rec.items[i][0] == op]
        if len(rungs) >= 2:
            slopes[op] = statistics.linear_regression(
                [math.log(len(rec.items[i][1])) for i in rungs],
                [math.log(statistics.median(times[i])) for i in rungs]).slope
    return slopes


# -- per-layer metrics -----------------------------------------------------
#
# Hot-path figures are per op of the traced replay (calls per op, self
# milliseconds per op), so a faster layer shows as a smaller number
# rather than as more ops squeezed into the same seconds.  Set-up figures
# are totals over the traced set-up, which loads every resource.

def _calls(n):
    return f"{n}.calls", "1/op", "lower", lambda s, o, k: o.calls[n] / k


def _self_ms(n):
    return f"{n}.self_ms", "ms/op", "lower", lambda s, o, k: 1000 * o.self_s[n] / k


def _count(n, counter, unit, better="lower"):
    return (f"{n}.{counter}", unit, better,
            lambda s, o, k: o.counters[n][counter] / k)


def _ratio(n, counter, name):
    return (f"{n}.{name}", "1", "higher",
            lambda s, o, k: o.counters[n][counter] / o.calls[n] if o.calls[n] else 0.0)


def _setup_s(n):
    return f"{n}.total_s", "s", "lower", lambda s, o, k: s.total_s[n]


def _setup_calls(n):
    return f"{n}.calls", "count", "lower", lambda s, o, k: s.calls[n]


def _setup_count(n, counter):
    return f"{n}.{counter}", "count", "lower", lambda s, o, k: s.counters[n][counter]


CATEGORIES = ("EMOTICON", "ABBREVIATION", "NEOLOGISM", "LOANWORD_VARIANT",
              "SPACING", "DEVIANT_SPELLING", "UNKNOWN")

PER_LAYER = (
    _calls("tokenizer.tokenize"), _self_ms("tokenizer.tokenize"),
    _count("tokenizer.tokenize", "chars", "chars/op"),
    _calls("hangul.to_jamo_seq"), _self_ms("hangul.to_jamo_seq"),
    _calls("hangul.fold_letters"), _self_ms("hangul.fold_letters"),
    _calls("hangul.distance_key"), _self_ms("hangul.distance_key"),
    _calls("hangul.key_distance"), _self_ms("hangul.key_distance"),
    _ratio("hangul.key_distance", "within_cap", "within_cap_ratio"),
    _setup_s("lexicon.load_dictionary_file"),
    _calls("lexicon.analyze_key"), _self_ms("lexicon.analyze_key"),
    _ratio("lexicon.analyze_key", "hits", "hit_ratio"),
    _calls("lexicon.is_analyzable"),
    _setup_s("grammar.load_grammar_file"),
    _setup_calls("fst.compile_graph"), _setup_s("fst.compile_graph"),
    _setup_count("fst.compile_graph", "states"), _setup_count("fst.compile_graph", "arcs"),
    _calls("apply.TextIndex"), _self_ms("apply.TextIndex"),
    _count("apply.TextIndex", "units", "units/op"),
    _calls("apply.run_from"), _self_ms("apply.run_from"),
    _ratio("apply.run_from", "hits", "hit_ratio"),
    _calls("apply.find_matches"), _self_ms("apply.find_matches"),
    _count("apply.find_matches", "matches", "1/op", "higher"),
    _self_ms("apply.transform"),
    _calls("classify.classify_corpus"), _self_ms("classify.classify_corpus"),
    _calls("classify.classify_token"), _self_ms("classify.classify_token"),
    *(_count("classify.classify_token", f"primary.{c}", "1/op",
             "lower" if c == "UNKNOWN" else "higher") for c in CATEGORIES),
    _calls("stats.corpus_stats"), _self_ms("stats.corpus_stats"),
    _calls("concord.build_concordance"), _self_ms("concord.build_concordance"),
    _setup_s("resources.load_classifier_resources"),
)

TRACE_METRICS = (
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


def traced_replay(workload, items, untraced, seconds):
    """Replay the first half of the untraced run's ops with every traced
    function wrapped, stopping after ``seconds``; returns (per-layer
    metrics, tracer, traced record, set-up totals)."""
    import program
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        prog = program.Program(workload)
        if prog.res is None:
            # set-up figures cover every resource on every workload
            program.resources.load_classifier_resources(prog.lexicon, prog.library)
        setup = tr.reset_stats()
        rec = Record(items)
        closed_loop(prog, items, seconds, rec, tracer=tr,
                    max_ops=max(1, len(untraced.durations) // 2))
    finally:
        tr.uninstall()
    n = len(rec.durations)
    base = sum(untraced.durations[:n])
    overhead = sum(rec.durations) - base
    metrics = {name: get(setup, tr.stats, n) for name, _, _, get in PER_LAYER}
    metrics.update({"trace.ops": n, "trace.overhead_s": overhead,
                    "trace.overhead_ratio": overhead / base})
    return metrics, tr, rec, setup


# -- one workload run ------------------------------------------------------

def run_workload(args) -> int:
    use_checkout_source()
    import gate
    import gen
    import program

    lggnorm_file = os.path.abspath(sys.modules["lggnorm"].__file__)
    if not lggnorm_file.startswith(SRC + os.sep):
        sys.exit(f"error: lggnorm imported from {lggnorm_file}, not from {SRC}")
    plan = load_plan()["workloads"][args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    items = gen.generate(args.workload, args.seed)
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_measured, setup_samples = measure_setup(args.workload, probes)
    rec, peak_rss_mb = measure_in_child(args.workload, args.seed, items, args.seconds)
    measured, scaled = measure_setup(args.workload, probes)
    setup_measured += measured
    setup_samples += scaled
    # Types per item as the program reported them; the normalize ops
    # report none, so theirs are the input's distinct words.
    types_of = [len(set(text.split())) if t is None else t
                for t, (_, text, _) in zip(rec.types, items)]
    if args.trace:
        metrics, tr, traced, setup = traced_replay(args.workload, items, rec, args.seconds)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        units.update({name: unit for name, unit, _ in TRACE_METRICS})
    else:
        metrics = end_to_end(rec, types_of, setup_samples, plan["tail_percentile"],
                             peak_rss_mb)
        units = dict(END_TO_END)
    gate_failures = gate.check(args.seed, items)
    if args.trace:
        differ = [i for i, d in enumerate(traced.outputs)
                  if d is not None and outputs_differ(d, rec.outputs[i])]
        if differ:
            gate_failures.append(f"traced replay changed the outputs of items {differ[:5]}")
        tr.write(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "setup": setup.as_dict(), "ops": tr.stats.as_dict()})
    if rec.unstable:
        gate_failures.append(f"outputs changed between repeats of items {rec.unstable[:5]}")

    times = item_times(rec)
    _, beyond = percentile(times.values(), plan["tail_percentile"])
    completed = [(i, d) for i, d, f in zip(rec.indices, rec.durations, rec.failures) if f is None]
    whole = "\n".join(text for _, text, _ in items)
    pool = program.stats.corpus_stats(program.tokenizer.tokenize(whole),
                                      program.resources.load_lexicon())
    failures = rec.failure_counts()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(rec.durations), "busy_s": sum(rec.durations),
        "items_timed": len(times),
        "attempts_per_item": len(rec.durations) / max(1, len(times)),
        "reference_s": {"runs": len(rec.ref_s), "min": min(rec.ref_s),
                        "median": statistics.median(rec.ref_s), "max": max(rec.ref_s)},
        "unscaled_throughput_chars_per_s":
            sum(len(items[i][1]) for i, _ in completed) / (sum(d for _, d in completed) or math.inf),
        "tail_percentile": plan["tail_percentile"], "tail_samples_beyond": beyond,
        "failed_ops_ratio": sum(failures.values()) / len(rec.durations),
        "failures": failures,
        "failed_items": {f"{items[i][0]}:{items[i][2]}": f
                         for i, f in zip(rec.indices, rec.failures) if f},
        "output_digest": rec.digest(), "digest_items": len(items),
        "input": {"items": len(items), "chars": sum(len(text) for _, text, _ in items),
                  "tokens": pool.token_count, "types": pool.type_count,
                  "non_analyzable_types": pool.non_analyzable_types,
                  "matches": sum(rec.matches)},
        "setup_samples_s": setup_samples,
        "unscaled_setup_samples_s": setup_measured,
        "gate_failures": gate_failures,
    }
    if args.workload == "long-tokens":
        report["length_slope"] = length_slopes(rec)
    print(json.dumps({"report": report}, ensure_ascii=False))
    correct = not gate_failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(traced.durations) if args.trace else len(rec.durations),
        "failed": sum(f is not None for f in (traced if args.trace else rec).failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


# -- all workloads ---------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    for workload in load_plan()["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            status = 1
        print(f"== {workload} (exit {done.returncode})")
        if len(lines) < 2:
            print(done.stderr.strip())
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"  {name:44} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'failed_ops_ratio':44} {report['failed_ops_ratio']:>16.6g} 1"
              f"  {report['failures'] or ''}")
        for item, failure in report["failed_items"].items():
            print(f"    failed {item}: {failure}")
        for op, slope in report.get("length_slope", {}).items():
            print(f"  {'length_slope.' + op:44} {slope:>16.6g} 1")
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={report['output_digest'][:16]}")
        for finding in report["gate_failures"]:
            print(f"  GATE: {finding}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("normalize-docs", "classify-types",
                                               "stats-vocab", "long-tokens"))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
