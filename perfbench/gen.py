"""Seeded input generator for the lggnorm benchmark.

Inputs are built only from the bundled corpora, dictionaries and grammar
alternatives, read here as plain text.  This module never imports
lggnorm, so a change to the program cannot change what the program is
fed.  The same (workload, seed) gives byte-identical inputs: every random
choice comes from one ``random.Random`` seeded with a string, and nothing
iterates a set or depends on hash order.

The rates and sizes the workloads are built with are read from the
"generator" section of ``plan.json``, which gives each one its source:
measured on the bundled corpora, taken from the specification, or chosen.
"""

from __future__ import annotations

import functools
import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
ASSETS = HERE.parent / "src" / "lggnorm" / "assets"


@functools.cache
def constants() -> dict[str, dict]:
    """Generator constants per workload, without their sources."""
    with open(HERE / "plan.json", encoding="utf-8") as fh:
        spec = json.load(fh)["generator"]
    return {w: {name: value for name, (value, _source) in consts.items()}
            for w, consts in spec.items()}

INITIALS = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
MEDIALS = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"
FINALS = "ㄱㄲㄳㄴㄵㄶㄷㄹㄺㄻㄼㄽㄾㄿㅀㅁㅂㅄㅅㅆㅇㅈㅊㅋㅌㅍㅎ"
SYLLABLE_BASE, SYLLABLE_LAST = 0xAC00, 0xD7A3

LAUGH_CRY = "ㅋㅎㅠㅜ"

# Joins the two files of a stats-vocab pair into one item (program.py
# splits on it); the generated corpora never contain it.
PAIR_SEPARATOR = "\f"

# Rung lengths of the long-tokens ladders: doubling, ending at the sizes
# that expose the spacing blow-up (2,000 chars) and the matcher's
# recursion limit (3,000 letters).
CLASSIFY_RUNGS = (16, 31, 62, 125, 250, 500, 1000, 2000)
LAUGH_RUNGS = (23, 47, 94, 188, 375, 750, 1500, 3000)


# -- hangul letter arithmetic (kept independent of lggnorm.hangul) --------

def is_syllable(ch: str) -> bool:
    return SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


def split_syllable(ch: str) -> tuple[int, int, int]:
    o = ord(ch) - SYLLABLE_BASE
    return o // 588, (o // 28) % 21, o % 28


def join_syllable(i: int, m: int, f: int) -> str:
    return chr(SYLLABLE_BASE + (i * 21 + m) * 28 + f)


def letters(s: str) -> list[str]:
    out: list[str] = []
    for ch in s:
        if is_syllable(ch):
            i, m, f = split_syllable(ch)
            out += [INITIALS[i], MEDIALS[m]]
            if f:
                out.append(FINALS[f - 1])
        else:
            out.append(ch)
    return out


def compose(seq: list[str]) -> str:
    """Greedy regrouping of letters into syllables; a consonant becomes a
    final only when no vowel follows it."""
    out: list[str] = []
    i = 0
    while i < len(seq):
        ch = seq[i]
        if ch in INITIALS and i + 1 < len(seq) and seq[i + 1] in MEDIALS:
            j = i + 2
            f = 0
            if (j < len(seq) and seq[j] in FINALS
                    and not (j + 1 < len(seq) and seq[j + 1] in MEDIALS)):
                f = FINALS.index(seq[j]) + 1
                j += 1
            out.append(join_syllable(INITIALS.index(ch), MEDIALS.index(seq[i + 1]), f))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def glue(*morphemes: str) -> str | None:
    """Surface of morphemes joined at letter level (하 + ㅂ니다 = 합니다);
    None when a letter is left outside any syllable."""
    form = compose([l for m in morphemes for l in letters(m)])
    return form if all(is_syllable(ch) for ch in form) else None


def jamo_edit(word: str, rng: random.Random) -> str:
    """One jamo substituted, or one final added or dropped."""
    chars = list(word)
    k = rng.randrange(len(chars))
    i, m, f = split_syllable(chars[k])
    op = rng.randrange(3)
    if op == 0:
        m = rng.choice([x for x in range(21) if x != m])
    elif op == 1:
        f = rng.choice([x for x in range(28) if x != f])
    else:
        i = rng.choice([x for x in range(19) if x != i])
    chars[k] = join_syllable(i, m, f)
    return "".join(chars)


# -- asset reading --------------------------------------------------------

def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def corpus_lines(name: str) -> list[str]:
    return [l for l in _read(ASSETS / "corpora" / name).splitlines() if l.strip()]


def dictionary(name: str) -> list[tuple[str, str, str]]:
    """(surface, lemma, POS) per entry line."""
    rows = []
    for raw in _read(ASSETS / "dict" / name).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        surface, _, rest = line.partition(",")
        lemma, _, pos = rest.split("+")[0].rpartition(".")
        rows.append((surface, lemma, pos))
    return rows


_BOX = re.compile(r'^(\d+)\s+(\S.*?)(?:\s*/\s*"[^"]*")?(?:\s*->\s*([\d,\s]+))?$')


def grammar_surfaces(name: str) -> list[str]:
    """Input strings accepted by the root graphs of one grammar file,
    following each box at most once per path (loops taken once)."""
    graphs: dict[str, dict[int, tuple[str, tuple[int, ...]]]] = {}
    current = None
    for raw in _read(ASSETS / "grammars" / name).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("GRAPH "):
            current = graphs.setdefault(line.split()[1], {})
            continue
        m = _BOX.match(line)
        succ = tuple(int(s) for s in m.group(3).split(",")) if m.group(3) else ()
        current[int(m.group(1))] = (m.group(2), succ)

    def paths(graph: str) -> list[str]:
        boxes = graphs[graph]
        start = next(b for b, (spec, _) in boxes.items() if spec == "INITIAL")
        out: list[str] = []

        def walk(box: int, text: str, seen: tuple[int, ...]):
            spec, succ = boxes[box]
            if spec == "FINAL":
                out.append(text)
                return
            if spec.startswith('"'):
                pieces = spec.strip('"').split("|")
            elif spec.startswith(":"):
                pieces = paths(spec[1:])
            else:
                pieces = [""]
            for nxt in succ:
                if nxt in seen:
                    continue
                for p in pieces:
                    walk(nxt, text + p, seen + (box,))

        walk(start, "", ())
        return out

    called = [s[1:] for g in graphs.values() for s, _ in g.values() if s.startswith(":")]
    found: list[str] = []
    for g in graphs:
        if g not in called:
            found += [p for p in paths(g) if p and p not in found]
    return found


class Vocabulary:
    """Morphemes, composed word forms and variant surfaces from the assets."""

    def __init__(self):
        self.by_pos: dict[str, list[str]] = {}
        for surface, _, pos in dictionary("core.dic"):
            self.by_pos.setdefault(pos, []).append(surface)
        self.loan_standards = [s for s, _, _ in dictionary("loan.dic")]
        self.abbr_stems = [s for s, _, _ in dictionary("abbr.dic")]
        self.neo_stems = [s for s, _, _ in dictionary("neo.dic")]
        self.grammar = {
            "abbr": grammar_surfaces("abbr.lgg"),
            "neo": grammar_surfaces("neo.lgg"),
            "loan": grammar_surfaces("loan.lgg"),
            "deviant": grammar_surfaces("deviant.lgg"),
            "emoticon": grammar_surfaces("emoticon.lgg"),
        }
        self.formal = corpus_lines("formal_sample.txt")
        self.informal = corpus_lines("informal_sample.txt")
        self.syllables = list(dict.fromkeys(
            ch for line in self.formal + self.informal for ch in line if is_syllable(ch)))
        self.forms = self._analyzable_forms()
        self.by_len: dict[int, list[str]] = {}
        for f in self.forms:
            self.by_len.setdefault(len(f), []).append(f)

    def _analyzable_forms(self) -> list[str]:
        """Pure-syllable words the core dictionary's concatenation rules
        accept: N, N JOSA, N 들 JOSA, V/ADJ EOMI, N XSV EOMI and standalone
        ADV/DET/INTERJ/PROPER."""
        p = self.by_pos
        forms: list[str] = []

        def add(*morphemes: str):
            form = glue(*morphemes)
            if form is not None:
                forms.append(form)

        # N XSV EOMI only with the verbalizer+ending pairs the corpora use
        # (발표했다, 만족해요, 시작됐다), not every allomorph pairing
        words = [w for line in self.formal + self.informal for w in line.split()]
        verbal = [e for e in (glue(x, y) for x in p["XSV"] for y in p["EOMI"])
                  if e is not None and any(len(w) > len(e) and w.endswith(e) for w in words)]
        for n in p["N"]:
            add(n)
            for j in p["JOSA"]:
                add(n, j)
            for j in p["JOSA"]:
                if j != "들":
                    add(n, "들", j)
            for ending in verbal:
                add(n, ending)
        for pos in ("V", "ADJ"):
            for v in p[pos]:
                for e in p["EOMI"]:
                    add(v, e)
        for pos in ("ADV", "DET", "INTERJ", "PROPER"):
            for w in p[pos]:
                add(w)
        return list(dict.fromkeys(forms))


# -- workloads ------------------------------------------------------------
#
# Each generator returns a list of items (op, text, note).  ``op`` names
# the call the benchmark makes on ``text``; ``note`` says what the
# generator meant the text to be (category, register or rung length).

def _share(pair: list[int]) -> float:
    part, whole = pair
    return part / whole


def _variant(v: Vocabulary, rng: random.Random, kind: str) -> str:
    """One non-standard surface of the given kind; abbreviation, neologism
    and loanword stems are sometimes glued to the first two syllables of a
    standard form (잼공개, 초콜렛향기)."""
    mix = constants()["normalize-docs"]
    if kind == "emoticon":
        if rng.random() < _share(mix["laugh_runs"]):
            return rng.choice(LAUGH_CRY) * rng.randint(*mix["laugh_run_letters"])
        return rng.choice(v.grammar["emoticon"])
    if kind == "deviant":
        return rng.choice(v.grammar["deviant"])
    if kind == "abbr":
        stem = rng.choice(v.grammar["abbr"] + v.abbr_stems)
    elif kind == "neo":
        stem = rng.choice(v.grammar["neo"] + v.neo_stems)
    else:
        stem = rng.choice(v.grammar["loan"])
    if rng.random() < _share(mix["glued_stems"]):
        return stem + rng.choice(v.forms)[:2]
    return stem


def normalize_docs(seed: int) -> list[tuple[str, str, str]]:
    """Multi-line documents of lines drawn from both corpora alike.  An
    informal line keeps the variants it has; a formal line gets as many
    injected at seeded word positions as an informal line has matches.
    Some documents are clean formal text.  The seed also picks each
    document's CLI path."""
    mix = constants()["normalize-docs"]
    rng = random.Random(f"normalize-docs:{seed}")
    v = Vocabulary()
    kinds, kind_weights = zip(*mix["matches_by_kind"].items())
    per_line = mix["matches_per_informal_line"]
    lines_of_both = v.formal + v.informal
    docs = []
    for _ in range(mix["docs"]):
        clean = rng.random() < mix["clean_doc_share"]
        lines = []
        for _ in range(rng.randint(*mix["lines_per_doc"])):
            if clean:
                lines.append(rng.choice(v.formal))
                continue
            k = rng.randrange(len(lines_of_both))
            if k >= len(v.formal):
                lines.append(lines_of_both[k])
                continue
            words = lines_of_both[k].split(" ")
            n = rng.choices(range(len(per_line)), weights=per_line)[0]
            for kind in rng.choices(kinds, weights=kind_weights, k=n):
                words.insert(rng.randint(0, len(words)), _variant(v, rng, kind))
            lines.append(" ".join(words))
        op = rng.choice(mix["ops"])
        docs.append((op, "\n".join(lines) + "\n", "clean" if clean else "mixed"))
    return docs


def _fill(v: Vocabulary, rng: random.Random, stem: str, length: int) -> str | None:
    """``stem`` followed by a standard form so the whole is ``length`` long."""
    room = length - len(stem)
    if room == 0:
        return stem
    if room < 0 or room not in v.by_len:
        return None
    return stem + rng.choice(v.by_len[room])


def nonstandard_type(v: Vocabulary, rng: random.Random, category: str,
                     length: int) -> str | None:
    """One type of a classifier category, ``length`` long, or None when
    this draw cannot reach that length."""
    if category == "DEVIANT_SPELLING":
        return jamo_edit(rng.choice(v.by_len[length]), rng) if length in v.by_len else None
    if category == "SPACING":
        n = 2 if length < 4 else rng.randint(2, 3)
        cuts = sorted(rng.sample(range(1, length), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
        if any(p not in v.by_len for p in parts):
            return None
        return "".join(rng.choice(v.by_len[p]) for p in parts)
    if category == "LOANWORD_VARIANT":
        word = rng.choice(v.loan_standards + v.grammar["loan"])
        for _ in range(rng.randint(*constants()["classify-types"]["jamo_edits"])):
            word = jamo_edit(word, rng)
        return _fill(v, rng, word, length)
    if category == "ABBREVIATION":
        return _fill(v, rng, rng.choice(v.abbr_stems + v.grammar["abbr"]), length)
    if category == "NEOLOGISM":
        if rng.random() >= constants()["classify-types"]["ha_verb_neologisms"]:
            return _fill(v, rng, rng.choice(v.neo_stems + v.grammar["neo"]), length)
        # an unknown root carrying the 하-verbalizer and an ending
        nouns = [n for n in v.by_pos["N"] if len(n) == length - 2]
        if not nouns:
            return None
        return jamo_edit(rng.choice(nouns), rng) + rng.choice(("하고", "해요", "했다"))
    if category == "EMOTICON":
        if rng.random() < _share(constants()["normalize-docs"]["laugh_runs"]):
            return "".join(rng.choice(LAUGH_CRY) for _ in range(length))
        return "".join(rng.choice(v.grammar["emoticon"]) for _ in range(length))[:length]
    return "".join(rng.choice(v.syllables) for _ in range(length))


def distinct_types(v: Vocabulary, rng: random.Random, per_category: int) -> dict[str, str]:
    """``per_category`` distinct non-standard types (word -> category) per
    category, each category cycling through its whole length range:
    fuzzy-scan cost depends steeply on length, so every category covers its
    lengths (syllables, or letters for emoticons) the same way for every
    seed."""
    standard = set(v.forms)
    types: dict[str, str] = {}
    for category, (lo, hi) in constants()["classify-types"]["lengths"].items():
        for k in range(per_category):
            # a length whose distinct forms run out passes to the next one
            for attempt in range(1000):
                length = lo + (k + attempt // 50) % (hi - lo + 1)
                word = nonstandard_type(v, rng, category, length)
                if word is not None and word not in types and word not in standard:
                    types[word] = category
                    break
    return types


def stratified(rng: random.Random, words: list[str], key) -> list[str]:
    """Seeded order of ``words`` in which every stretch of positions holds
    the same mix of ``key`` classes whatever the seed: each class is
    shuffled, then the classes are merged in proportion to their sizes.
    Seeds then change which words come first, not how costly they are."""
    groups: dict = {}
    for w in words:
        groups.setdefault(key(w), []).append(w)
    for group in groups.values():
        rng.shuffle(group)
    taken = dict.fromkeys(groups, 0)
    order = []
    for _ in range(len(words)):
        k = min(groups, key=lambda c: (taken[c] + 0.5) / len(groups[c]))
        order.append(groups[k][taken[k]])
        taken[k] += 1
    return order


def classify_types(seed: int) -> list[tuple[str, str, str]]:
    """Distinct non-standard types over all six categories plus unknown
    strings, the same count and length mix per category for every seed,
    a few types to a line; one classify op per line."""
    mix = constants()["classify-types"]
    per_line = mix["per_line"]
    rng = random.Random(f"classify-types:{seed}")
    types = distinct_types(Vocabulary(), rng, mix["per_category"])
    words = stratified(rng, list(types), key=types.get)
    return [("classify", " ".join(words[i:i + per_line]),
             " ".join(types[w] for w in words[i:i + per_line]))
            for i in range(0, len(words), per_line)]


def stats_vocab(seed: int) -> list[tuple[str, str, str]]:
    """Formal/informal file pairs, one ``lggnorm stats A B`` op each, drawn
    from a Zipf vocabulary of composed dictionary forms; informal files mix
    in non-analyzable types.  Each register's files take their share of
    non-standard tokens and their words per line from the bundled corpus
    of that register.
    Zipf ranks go to words in a length-stratified order, so the frequent
    head costs the same to analyze for every seed.  File sizes vary, as
    real corpus files do."""
    mix = constants()["stats-vocab"]
    rng = random.Random(f"stats-vocab:{seed}")
    v = Vocabulary()
    standard = stratified(rng, v.forms, key=len)
    types = distinct_types(v, rng, mix["nonstandard_per_category"])
    informal = stratified(rng, list(types), key=types.get)

    def zipf(n: int) -> list[float]:
        cum, total = [], 0.0
        for rank in range(1, n + 1):
            total += rank ** -mix["zipf_exponent"]
            cum.append(total)
        return cum

    cum_standard, cum_informal = zipf(len(standard)), zipf(len(informal))

    def write(register: str, corpus: list[str]) -> str:
        share_nonstandard = _share(mix["nonstandard_tokens"][register])
        lines = []
        for _ in range(rng.randint(*mix["lines_per_file"])):
            words = []
            for _ in range(len(rng.choice(corpus).split())):
                if rng.random() < share_nonstandard:
                    words.append(rng.choices(informal, cum_weights=cum_informal)[0])
                else:
                    words.append(rng.choices(standard, cum_weights=cum_standard)[0])
            lines.append(" ".join(words))
        return "\n".join(lines) + "\n"

    return [("compare", write("formal", v.formal) + PAIR_SEPARATOR
             + write("informal", v.informal), "formal|informal")
            for _ in range(mix["pairs"])]


def _word_run(v: Vocabulary, rng: random.Random, length: int) -> str:
    """No-space token of exactly ``length`` chars made of whole words."""
    out = ""
    while len(out) < length:
        room = length - len(out)
        word = rng.choice(v.by_len[room]) if room <= 4 else rng.choice(v.forms)
        if len(word) <= room:
            out += word
    return out


def long_tokens(seed: int) -> list[tuple[str, str, str]]:
    """The adversarial ladder: one no-space word run per classify rung,
    then one laugh-letter run per normalize rung, shortest first."""
    rng = random.Random(f"long-tokens:{seed}")
    v = Vocabulary()
    items = [("classify", _word_run(v, rng, n), str(n)) for n in CLASSIFY_RUNGS]
    items += [("replace", "ㅋ" * n, str(n)) for n in LAUGH_RUNGS]
    return items


WORKLOADS = {
    "normalize-docs": normalize_docs,
    "classify-types": classify_types,
    "stats-vocab": stats_vocab,
    "long-tokens": long_tokens,
}


def generate(workload: str, seed: int) -> list[tuple[str, str, str]]:
    return WORKLOADS[workload](seed)
