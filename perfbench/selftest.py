"""Checks of the benchmark itself: generator determinism, the measured
generator constants in plan.json against the bundled corpora, the per-op
time limit, the tracer's patching, and agreement between BENCHMARK.json,
the metric tables in run.py and the predictions in plan.json.

    python3 perfbench/selftest.py
"""

import collections
import hashlib
import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

# sha256 of repr(generate(workload, 0)).  A change here changes what every
# run measures, so it must come with a fresh baseline.
PINNED_SEED0 = {
    "normalize-docs":
        "17fd41956f3ce942d1d66da97b6fb82e3a4220aff21a44a46f232d0faa800fe9",
    "classify-types":
        "0ab0637eea9d7bb73d3b345cff30dcd06887368ab7a94238a395254e98809f48",
    "stats-vocab":
        "3d501486a4ff64251a05b36dc297ca36199886b5e21f259959e13c357a281299",
    "long-tokens":
        "6d9bfcd0f297a5438dd8277c6139389c2a5f06c32914bd9ed446b3b7ca5fc1a2",
}


def inputs_digest(workload, seed):
    return hashlib.sha256(repr(gen.generate(workload, seed)).encode("utf-8")).hexdigest()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_across_processes(self):
        code = ("import sys; sys.path.insert(0, %r); import selftest; "
                "print(*(selftest.inputs_digest(w, 3) for w in selftest.gen.WORKLOADS))" % HERE)
        outs = {
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONHASHSEED=h)).stdout
            for h in ("1", "2")
        }
        self.assertEqual(len(outs), 1)
        self.assertEqual(outs.pop().split(), [inputs_digest(w, 3) for w in gen.WORKLOADS])

    def test_pinned_seed0_inputs(self):
        for workload, digest in PINNED_SEED0.items():
            self.assertEqual(inputs_digest(workload, 0), digest, workload)

    def test_seeds_differ(self):
        for workload in gen.WORKLOADS:
            if workload != "long-tokens":  # the laugh runs do not depend on the seed
                self.assertNotEqual(inputs_digest(workload, 1), inputs_digest(workload, 2))

    def test_shapes(self):
        docs = gen.generate("normalize-docs", 5)
        self.assertEqual({op for op, _, _ in docs}, {"replace", "merge", "concord"})
        self.assertIn("clean", {note for _, _, note in docs})
        lines = gen.generate("classify-types", 5)
        types = [t for _, line, _ in lines for t in line.split(" ")]
        self.assertEqual(len(set(types)), len(types))
        self.assertTrue(all(2 <= len(t) <= 12 for t in types))
        self.assertEqual({c for _, _, cats in lines for c in cats.split(" ")},
                         set(gen.constants()["classify-types"]["lengths"]))
        pairs = gen.generate("stats-vocab", 5)
        self.assertTrue(all(text.count(gen.PAIR_SEPARATOR) == 1 for _, text, _ in pairs))
        ladder = gen.generate("long-tokens", 5)
        self.assertEqual([len(t) for op, t, _ in ladder if op == "classify"],
                         list(gen.CLASSIFY_RUNGS))
        self.assertIn(("replace", "ㅋ" * 3000, "3000"), ladder)
        self.assertTrue(all(" " not in t for _, t, _ in ladder))


class HarnessTest(unittest.TestCase):
    def test_time_limit_stops_a_runaway_op(self):
        class Spin:
            def run(self, op, text):
                while True:
                    pass

        old = measure.signal.signal(measure.signal.SIGALRM, measure._alarm)
        try:
            start = time.perf_counter()
            seconds, out, _, _, failure = measure.call(Spin(), "spin", "")
        finally:
            measure.signal.signal(measure.signal.SIGALRM, old)
        self.assertEqual(failure, "timeout")
        self.assertIsNone(out)
        self.assertLess(time.perf_counter() - start, measure.OP_LIMIT_S + 1)

    def test_a_failure_on_a_repeat_is_not_an_output_change(self):
        rec = measure.Record([("op", "text", "")])
        rec.note(0, 0.9, "out", 0, None, None)
        rec.note(0, 1.0, None, 0, None, "timeout")
        rec.note(0, 0.9, "out", 0, None, None)
        self.assertEqual(rec.unstable, [])
        rec.note(0, 0.9, "other", 0, None, None)
        self.assertEqual(rec.unstable, [0])

    def test_op_times_scale_with_the_reference_around_them(self):
        nominal = measure.REF_NOMINAL_S
        rec = measure.Record([("op", "a", ""), ("op", "bb", "")])
        rec.note_ref(nominal)
        rec.note(0, 0.010, "out", 0, 1, None)
        rec.note(1, 0.020, "out", 0, 1, None)
        rec.note_ref(3 * nominal)  # the host slowed down to a third
        rec.note(0, 0.030, "out", 0, 1, None)
        rec.note_ref(3 * nominal)
        scaled = run.scaled_durations(rec)
        self.assertEqual([round(x, 9) for x in scaled], [0.005, 0.01, 0.01])
        self.assertEqual({i: round(t, 9) for i, t in run.item_times(rec).items()},
                         {0: 0.0075, 1: 0.01})

    def test_tracer_patches_every_binding_and_restores_it(self):
        import lggnorm.apply
        import lggnorm.classify
        import tracer

        original = lggnorm.apply.run_from
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(lggnorm.apply.run_from, original)
            self.assertIs(lggnorm.classify.run_from, lggnorm.apply.run_from)
            self.assertEqual(tr.missing, [])
        finally:
            tr.uninstall()
        self.assertIs(lggnorm.apply.run_from, original)
        self.assertIs(lggnorm.classify.run_from, original)


class MixTest(unittest.TestCase):
    """The constants plan.json marks as measured still describe the
    bundled corpora as the program reads them."""

    @classmethod
    def setUpClass(cls):
        from lggnorm import apply, lexicon, resources, tokenizer

        lex = resources.load_lexicon()
        fsts = resources.load_grammar_library().fsts
        cls.mix = gen.constants()
        text = resources.corpus_path("informal_sample.txt").read_text(encoding="utf-8")
        per_line = collections.Counter()
        kinds = collections.Counter()
        cls.glued = cls.stems = cls.runs = cls.emoticons = 0
        for line in filter(str.strip, text.splitlines()):
            matches = apply.find_matches(line, fsts, lex)
            per_line[len(matches)] += 1
            data = line.encode("utf-8")
            for m in matches:
                kind = "emoticon" if m.grammar.startswith("Emo") else m.grammar.lower()[:4]
                kinds[{"abbr": "abbr", "loan": "loan", "neo": "neo",
                       "devi": "deviant"}.get(kind, kind)] += 1
                if kind == "emoticon":
                    cls.emoticons += 1
                    cls.runs += len(set(m.surface)) == 1 and m.surface[0] in gen.LAUGH_CRY
                else:
                    alone = (m.start == 0 or data[m.start - 1:m.start] == b" ") and (
                        m.end == len(data) or data[m.end:m.end + 1] == b" ")
                    if kind in ("abbr", "loan", "neo"):
                        cls.stems += 1
                        cls.glued += not alone
        cls.per_line = [per_line[n] for n in range(max(per_line) + 1)]
        cls.kinds = dict(kinds)
        cls.nonstandard = {}
        for register in ("formal", "informal"):
            tokens = list(tokenizer.tokenize(resources.corpus_path(
                f"{register}_sample.txt").read_text(encoding="utf-8")))
            cls.nonstandard[register] = [
                sum(not lexicon.is_analyzable(t, lex) for t in tokens), len(tokens)]

    def test_normalize_docs_rates(self):
        mix = self.mix["normalize-docs"]
        self.assertEqual(mix["matches_per_informal_line"], self.per_line)
        self.assertEqual(mix["matches_by_kind"], self.kinds)
        self.assertEqual(mix["glued_stems"], [self.glued, self.stems])
        self.assertEqual(mix["laugh_runs"], [self.runs, self.emoticons])

    def test_stats_vocab_rates(self):
        self.assertEqual(self.mix["stats-vocab"]["nonstandard_tokens"], self.nonstandard)


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.bench = json.load(fh)
        self.plan = run.load_plan()

    def test_benchmark_json_matches_run(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual({w["name"] for w in b["workloads"]}, set(self.plan["workloads"]))
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]], list(run.END_TO_END))
        layers = [(n, u, d) for n, u, d, _ in run.PER_LAYER] + list(run.TRACE_METRICS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in b["per_layer"]], layers)

    def test_every_layer_metric_has_a_prediction(self):
        predictions = self.plan["predictions"]
        metrics = {m["name"] for m in self.bench["end_to_end"]} | set(self.plan["report_metrics"])
        for m in self.bench["per_layer"]:
            self.assertTrue(any(m["name"].startswith(key + ".") for key in predictions),
                            m["name"])
        for key, p in predictions.items():
            for metric, workloads in p["moves"].items():
                self.assertIn(metric, metrics, key)
                self.assertLessEqual(set(workloads), set(self.plan["workloads"]), key)
            self.assertLessEqual(set(p["holds"]), set(self.plan["workloads"]), key)


if __name__ == "__main__":
    unittest.main()
