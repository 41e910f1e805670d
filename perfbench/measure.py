"""The workload process: the program, its inputs and the timed loop.

    python3 perfbench/measure.py loop WORKLOAD ITEMS_JSON SECONDS

loads the program, runs the items of ITEMS_JSON as a closed loop with one
caller for SECONDS, then, untimed, every item the loop did not reach, and
prints the record and the process's peak resident memory as one JSON
line.

    python3 perfbench/measure.py setup WORKLOAD

prints the seconds taken by import, resource loading and one warm-up op,
and the reference loop's time just before and just after them.

``run.py`` starts both in fresh processes.  The input generator, the
correctness gate and the metric arithmetic stay out of them, so that
their time and memory are the program's and the inputs', not the
harness's.
"""

import gc
import json
import os
import resource
import signal
import sys
import time
from array import array

# The interpreter's own SHA-256.  hashlib would map OpenSSL, about 4 MB
# that peak_rss_mb would count as the program's.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    from _sha256 import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# An op that runs longer than this is stopped and counted as failed.
OP_LIMIT_S = 1.0

# The reference loop.  The host's speed swings by up to 2x for seconds to
# minutes at a time, as other tenants of the machine come and go.  A
# fixed piece of pure-Python work that imports nothing from the program,
# timed every REF_EVERY_S between ops, slows and speeds up with the host:
# run.py divides each op's time by the reference time measured around it
# and multiplies it by REF_NOMINAL_S, so that the end-to-end metrics read
# as on a host that runs the reference loop in REF_NOMINAL_S.
REF_TEXT = "정부가 새 정책을 발표했다 효과가 넘 좋아요 ㅋㅋㅋ " * 40
REF_REPS = 6
REF_EVERY_S = 0.05
REF_NOMINAL_S = 0.002


def use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "lggnorm", "__init__.py")):
        sys.exit(f"error: {SRC} holds no lggnorm package; run from a full checkout")
    sys.path.insert(0, SRC)


# -- one op under the time limit -------------------------------------------

class OpTimeout(BaseException):
    """The per-op time limit expired (raised from the SIGALRM handler)."""


def _alarm(signum, frame):
    raise OpTimeout


def call(prog, op: str, text: str):
    """(seconds, output, match count, types, failure or None), where a
    failure is "timeout" or "ExceptionClass: message".  The limit is a
    one-shot interval timer in this process: no thread or process per op."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        try:
            out, matches, types = prog.run(op, text)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return time.perf_counter() - start, None, 0, None, "timeout"
    except Exception as exc:  # counted as a failed op, never retried
        failure = f"{type(exc).__name__}: {exc}"[:160]
        return time.perf_counter() - start, None, 0, None, failure
    return time.perf_counter() - start, out, matches, types, None


def reference_loop() -> float:
    """Seconds the reference work takes.  The garbage collector is off
    meanwhile, so that no garbage of the program is collected inside it."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        n = 0
        for _ in range(REF_REPS):
            for i, ch in enumerate(REF_TEXT):
                k = ord(ch) % 97
                counts[k] = counts.get(k, 0) + 1
                if ch == " ":
                    n += len(REF_TEXT[i - 3:i])
        return time.perf_counter() - start
    finally:
        gc.enable()


def outputs_differ(a: str, b: str) -> bool:
    """Two output digests of one item disagree.  A failure on one side
    does not count: an op close to the time limit may finish on one pass
    and time out on the next without any output changing."""
    return a != b and not a.startswith("failed:") and not b.startswith("failed:")


class Record:
    """Per-op durations and outcomes, plus per item the output hash, the
    match count and the types the program reported."""

    def __init__(self, items):
        self.items = items
        # arrays, not lists of number objects, so that the record adds
        # little to the measured process's memory however many ops it takes
        self.durations = array("d")
        self.indices = array("l")
        self.failures: list[str | None] = []
        self.outputs: list[str | None] = [None] * len(items)
        self.matches: list[int] = [0] * len(items)
        self.types: list[int | None] = [None] * len(items)
        self.unstable: list[int] = []  # items whose output changed on a repeat
        # reference loop times, each with the number of timed ops before it
        self.ref_s = array("d")
        self.ref_at = array("l")

    STATE = ("durations", "indices", "failures", "outputs", "matches", "types", "unstable",
             "ref_s", "ref_at")

    def state(self) -> dict:
        return {name: list(getattr(self, name)) for name in self.STATE}

    @classmethod
    def from_state(cls, items, state: dict) -> "Record":
        rec = cls(items)
        for name in cls.STATE:
            setattr(rec, name, state[name])
        return rec

    def note(self, idx, seconds, out, matches, types, failure, timed=True):
        if timed:
            self.durations.append(seconds)
            self.indices.append(idx)
            self.failures.append(failure)
        if failure is None:
            digest = sha256(out.encode("utf-8")).hexdigest()
            self.matches[idx] = matches
            self.types[idx] = types
        else:
            digest = "failed:" + failure.split(":")[0]
        old = self.outputs[idx]
        if old is None or old.startswith("failed:"):
            self.outputs[idx] = digest  # a completed output replaces a failure
        elif outputs_differ(old, digest):
            self.unstable.append(idx)

    def note_ref(self, seconds):
        self.ref_s.append(seconds)
        self.ref_at.append(len(self.durations))

    def complete(self, prog):
        """Run, untimed, every item the timed loop did not reach, so that
        the output digest covers the whole input set on every run."""
        for idx, (op, text, _) in enumerate(self.items):
            if self.outputs[idx] is None:
                self.note(idx, *call(prog, op, text), timed=False)

    def digest(self) -> str:
        h = sha256()
        for idx in range(len(self.items)):
            h.update(f"{idx}\t{self.outputs[idx]}\n".encode("ascii"))
        return h.hexdigest()

    def failure_counts(self) -> dict[str, int]:
        """Failed timed ops per exception class ("timeout" for the limit)."""
        counts: dict[str, int] = {}
        for f in self.failures:
            if f is not None:
                name = f.split(":")[0]
                counts[name] = counts.get(name, 0) + 1
        return counts


def closed_loop(prog, items, seconds, rec, tracer=None, max_ops=None):
    """Run the items in order, over and over, for ``seconds``, with the
    reference loop timed before the first op, at least REF_EVERY_S apart
    between ops, and after the last op."""
    deadline = time.perf_counter() + seconds
    next_ref = 0.0
    i = 0
    while time.perf_counter() < deadline and (max_ops is None or i < max_ops):
        if time.perf_counter() >= next_ref:
            rec.note_ref(reference_loop())
            next_ref = time.perf_counter() + REF_EVERY_S
        idx = i % len(items)
        if tracer is not None:
            tracer.op = i
        op, text, _ = items[idx]
        rec.note(idx, *call(prog, op, text))
        i += 1
    rec.note_ref(reference_loop())


def setup(workload: str):
    """Time import, resource loading and one warm-up op, between two
    runs of the reference loop."""
    use_checkout_source()
    before = reference_loop()
    start = time.perf_counter()
    import program
    program.Program(workload)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "ref_s": [before, reference_loop()]}))


def loop(workload: str, items_path: str, seconds: str):
    """Timed closed loop, then every item it did not reach; prints the
    record and the peak resident memory as one JSON line."""
    use_checkout_source()
    import program

    with open(items_path, encoding="utf-8") as fh:
        items = [tuple(item) for item in json.load(fh)]
    signal.signal(signal.SIGALRM, _alarm)
    prog = program.Program(workload)
    rec = Record(items)
    closed_loop(prog, items, float(seconds), rec)
    rec.complete(prog)
    print(json.dumps({"record": rec.state(), "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    {"setup": setup, "loop": loop}[sys.argv[1]](*sys.argv[2:])
