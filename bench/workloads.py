"""The three workloads: inputs made from a seed, one round of timed
operations, and the checks that judge each operation's output.

Checks run after a round's clock stops.  A check's verdict is memoised by
the output it judged, so identical outputs in later rounds are not
re-checked.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Optional

import dcflab
from dcflab import cli, corpus

import machines
import reference as ref
from hostspeed import clock

# Agreement walks use the CLI default check length; grids go past
# find_witness's own (25, 25).
CHECK_LEN = 16
CORPUS_GRID = 32
COUNTER_GRID = 30
RANDOM_GRID = 16
RANDOM_REDUCE_LEN = 12
# A `random` round is too long to run twice in a run, so its short
# operations repeat inside the round instead, in passes made after the
# extraction pass, and each reports the mean of its 15 times.
SHORT_PASSES = 15

REGULAR = "even_length_reg"
COMMA_CASE = "compose-comma-names"


@dataclass
class Round:
    """What one round did: the time of each operation, counts, and checks
    still to run."""

    wall_s: float = 0.0
    # Per operation, (clock() at its start, seconds) of each repetition.
    times: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    kinds: dict[str, str] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    found: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    checks: list[tuple[str, str, Callable[[], Optional[str]], bool, bool]] = field(default_factory=list)
    # Called, untimed, before every operation: the run's set-up sampler.
    before_op: Optional[Callable[[], None]] = None
    # The traced round makes one pass of operations that a round repeats,
    # so that its layer counts are the work of one pass.
    single: bool = False

    def op(self, label: str, fn: Callable, kind: str = "", symbols: int = 0):
        """Run one timed operation; an exception counts it as failed.

        `label` names the operation, so that its repetitions, in this
        round and in others, can be matched; each one's time is kept.
        """
        if self.before_op is not None:
            self.before_op()
        self.attempted += 1
        t0 = clock()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.times.setdefault(label, []).append((t0, clock() - t0))
        self.kinds[label] = kind
        self.symbols[label] = symbols
        return result

    def check(self, label: str, output, fn: Callable[[], Optional[str]], found: bool = False,
              known_fault: bool = False) -> None:
        """Queue a check of `output`: `fn` returns None when it is right.

        A found witness that passes adds to `found`.  A `known_fault`
        operation that fails its check counts as failed, not as wrong.
        """
        self.checks.append((label, str(output), fn, found, known_fault))

    def verify(self, memo: dict) -> None:
        for label, output, fn, found, known_fault in self.checks:
            key = (label, output)
            if key not in memo:
                memo[key] = fn()
            problem = memo[key]
            if problem is None:
                self.found += found
            elif known_fault:
                self.failed += 1
                self.failures.append(f"{label}: {problem}")
            else:
                self.wrong.append(f"{label}: {problem}")
        self.checks.clear()


def _timed_setup(build: Callable[[], object]) -> tuple[object, tuple[float, float]]:
    """The inputs, and (clock() at the start, seconds) of building them."""
    t0 = clock()
    inputs = build()
    return inputs, (t0, clock() - t0)


def _grid_problem(member, t, bound: int) -> Optional[str]:
    bad = ref.grid_counterexample(member, t, bound, bound)
    return None if bad is None else f"grid fails at (m, n, left, right) = {bad}"


def _reducer_problem(machine, oracle, max_len: int, expect_words: Optional[int] = None) -> Optional[str]:
    checked, bad = ref.reducer_mismatch(machine, oracle, max_len)
    if bad is not None:
        return f"reducer disagrees with 0^n 1^n on {bad!r}"
    if expect_words is not None and expect_words != checked:
        return f"agreement reported {expect_words} words, expected {checked}"
    return None


def _tuple_key(t) -> str:
    return json.dumps(t.to_json_dict(), sort_keys=True)


class Workload:
    name = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.memo: dict = {}

    def setup(self) -> tuple[object, float]:
        raise NotImplementedError

    def run_round(self, inputs, rnd: Round) -> None:
        raise NotImplementedError


# --- corpus ------------------------------------------------------------------


def _comma_doc(states, start, moves, queries) -> dict:
    return {
        "states": states,
        "input_alphabet": ["0", "1"],
        "oracle_alphabet": ["0", "1"],
        "delta": [{"from": p, "on": c, "to": q} for p, c, q, _ in moves],
        "lambda": [{"from": p, "on": c, "out": o} for p, c, _, o in moves],
        "start_state": start,
        "queries": [{"state": s, "suffixes": sf, "table": tb} for s, sf, tb in queries],
    }


# compose names product states f"({q1},{q2})", so the pairs (a, "b,c") and
# ("a,b", c) get one name; sequential evaluation disagrees with the
# composed machine on 63 of the 127 binary words of length <= 6.
COMMA_FRONT = _comma_doc(
    ["a", "a,b"],
    "a",
    [("a", "0", "a,b", "0"), ("a", "1", "a", "1"), ("a,b", "0", "a", "00"), ("a,b", "1", "a,b", "1")],
    [("a", [""], [0, 1]), ("a,b", ["1"], [1, 0])],
)
COMMA_BACK = _comma_doc(
    ["b,c", "c"],
    "b,c",
    [("b,c", "0", "c", "0"), ("b,c", "1", "b,c", "1"), ("c", "0", "b,c", "0"), ("c", "1", "c", "11")],
    [("b,c", [""], [0, 1]), ("c", ["", "1"], [0, 1, 1, 0])],
)
COMMA_LEN = 6


def _binary_words(max_len: int):
    for n in range(max_len + 1):
        for chars in product("01", repeat=n):
            yield "".join(chars)


def _compose_problem(doc: str) -> Optional[str]:
    if not doc:
        return "compose failed"
    front = dcflab.validate_mealy(COMMA_FRONT)
    back = dcflab.validate_mealy(COMMA_BACK)
    composed = dcflab.validate_mealy(json.loads(doc))
    middle = lambda u: ref.mealy_verdict(back, ref.is_lsharp, u)  # noqa: E731
    bad = [
        w for w in _binary_words(COMMA_LEN)
        if ref.mealy_verdict(composed, ref.is_lsharp, w) != ref.mealy_verdict(front, middle, w)
    ]
    total = 2 ** (COMMA_LEN + 1) - 1
    return f"composed machine disagrees with sequential evaluation on {len(bad)} of {total} words" if bad else None


class CorpusWorkload(Workload):
    """All 8 corpus languages through `run_cli` with `--json`."""

    name = "corpus"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.order = corpus.names()
        rng.shuffle(self.order)
        self.nonregular = [n for n in self.order if n != REGULAR]
        n = rng.randint(20, 23)
        self.eval_words = ["0" * n + "1" * n, "0" * n + "1" * (n + 1)]
        self.member_words = {}
        for name in sorted(corpus.names()):
            a = rng.randint(2000, 2100)
            self.member_words[name] = (a, rng.randint(1000, 1050))
        for stem, doc in (("comma_front", COMMA_FRONT), ("comma_back", COMMA_BACK)):
            self._write(stem, doc)

    def _path(self, stem: str) -> Path:
        return self.workdir / f"{stem}.json"

    def _write(self, stem: str, doc: dict) -> Path:
        path = self._path(stem)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def setup(self):
        def build():
            corpus.get_entry.cache_clear()
            return {name: corpus.get_entry(name) for name in self.order}

        entries, seconds = _timed_setup(build)
        for name, entry in entries.items():
            self._write(f"machine_{name}", corpus.entry_document(entry))
        return entries, seconds

    def _member_words(self, name: str, alphabet: list[str]) -> list[str]:
        a, c = self.member_words[name]
        x, y = alphabet[0], alphabet[1]
        return [x * a + y * a, x * a + y * (a + 1), x * c + y * c + x * c + y * c]

    def run_round(self, entries, rnd: Round) -> None:
        for name in self.order:
            pred = entries[name].predicate
            tfile = self._path(f"tuple_{name}")
            out = rnd.op(f"witness find {name}", lambda: cli.run_cli(
                ["witness", "find", "--lang", name, "--json", "-o", str(tfile)]), "extract")
            if name == REGULAR:
                rnd.check(f"witness find {name}", out, lambda out=out: None if out is not None and out.exit_code == 1
                          and out.payload.get("stage") else f"expected exhaustion, got {out}")
            elif out is not None:
                rnd.check(f"witness find {name}", out,
                          lambda out=out, pred=pred: self._find_problem(out, pred), found=True)
                v = rnd.op(f"witness verify {name}", lambda: cli.run_cli(
                    ["witness", "verify", str(tfile), "--oracle", name, "--json"]))
                if v is not None:
                    rnd.check(f"witness verify {name}", v,
                              lambda v=v: None if v.exit_code == 0 and v.payload["passed"]
                              else f"verify rejected the tuple: {v.report}")

            r = rnd.op(f"reduce lsharp {name}", lambda: cli.run_cli(
                ["reduce", "lsharp", "--lang", name, "--json"]), "reduce")
            if name == REGULAR:
                rnd.check(f"reduce lsharp {name}", r, lambda r=r: None if r is not None and r.exit_code == 1
                          else f"expected exhaustion, got {r}")
            elif r is not None:
                self._write(f"reducer_{name}", r.payload["reducer"] if r.exit_code == 0 else {})
                rnd.check(f"reduce lsharp {name}", r,
                          lambda r=r, pred=pred: self._reduce_problem(r, pred))

        front = str(self._path("reducer_lsharp"))
        for name in self.nonregular:
            pred = entries[name].predicate
            cfile = self._path(f"composed_{name}")
            c = rnd.op(f"mealy compose lsharp {name}", lambda: cli.run_cli(
                ["mealy", "compose", front, str(self._path(f"reducer_{name}")), "-o", str(cfile), "--json"]))
            if c is not None:
                doc = cfile.read_text(encoding="utf-8") if c.exit_code == 0 else ""
                rnd.check(f"mealy compose lsharp {name}", doc, lambda c=c, doc=doc, pred=pred: self._composed_problem(c, doc, pred))
            for word in self.eval_words:
                e = rnd.op(f"mealy eval {name} {word}", lambda: cli.run_cli(
                    ["mealy", "eval", str(cfile), word, "--oracle", name, "--json"]))
                if e is not None:
                    rnd.check(f"mealy eval {name} {word}", e, lambda e=e, word=word:
                              None if e.exit_code == (0 if ref.is_lsharp(word) else 1)
                              else f"verdict exit {e.exit_code} on {word!r}")

        comma_out = self._path("comma_composed")
        c = rnd.op(COMMA_CASE, lambda: cli.run_cli(
            ["mealy", "compose", str(self._path("comma_front")), str(self._path("comma_back")),
             "-o", str(comma_out), "--json"]))
        if c is not None:
            doc = comma_out.read_text(encoding="utf-8") if c.exit_code == 0 else ""
            rnd.check(COMMA_CASE, doc, lambda doc=doc: _compose_problem(doc), known_fault=True)

        for name in self.order:
            pred = entries[name].predicate
            mfile = str(self._path(f"machine_{name}"))
            alphabet = sorted(entries[name].machine.input_alphabet)
            for j, word in enumerate(self._member_words(name, alphabet)):
                p = rnd.op(f"pda member {name} #{j}", lambda: cli.run_cli(
                    ["pda", "member", mfile, word, "--json"]), "member", len(word))
                if p is not None:
                    rnd.check(f"pda member {name} #{j}", (word, p), lambda p=p, word=word, pred=pred:
                              None if p.exit_code == (0 if pred(word) else 1)
                              else f"membership exit {p.exit_code} on a word of length {len(word)}")

    @staticmethod
    def _find_problem(out, pred) -> Optional[str]:
        if out.exit_code != 0:
            return f"witness find failed: {out.report}"
        return _grid_problem(pred, dcflab.WitnessTuple.from_json_dict(out.payload), CORPUS_GRID)

    @staticmethod
    def _reduce_problem(r, pred) -> Optional[str]:
        if r.exit_code != 0:
            return f"reduce failed: {r.report}"
        t = dcflab.WitnessTuple.from_json_dict(r.payload["tuple"])
        problem = _grid_problem(pred, t, CORPUS_GRID)
        if problem:
            return problem
        reducer = dcflab.validate_mealy(r.payload["reducer"])
        return _reducer_problem(reducer, pred, CHECK_LEN, r.payload["agreement"]["words_checked"])

    @staticmethod
    def _composed_problem(c, doc: str, pred) -> Optional[str]:
        if c.exit_code != 0:
            return f"compose failed: {c.report}"
        return _reducer_problem(dcflab.validate_mealy(json.loads(doc)), pred, CHECK_LEN)


# --- counters ------------------------------------------------------------------


class CountersWorkload(Workload):
    """0^n 1^n with n divisible by k, for k in COUNTER_KS."""

    name = "counters"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.points = {}
        for k in machines.COUNTER_KS:
            m = rng.randint(600, 640)
            self.points[k] = [(m, m), (m, m + 1), (m + 1, m)]
        self.docs = {k: machines.counter_doc(k) for k in machines.COUNTER_KS}

    def setup(self):
        return _timed_setup(lambda: {
            k: dcflab.complete_dpda(dcflab.validate_dpda(doc)) for k, doc in self.docs.items()
        })

    def run_round(self, built, rnd: Round) -> None:
        for k, m in built.items():
            pred = lambda w, k=k: ref.is_counter_word(w, k)  # noqa: E731
            t = rnd.op(f"find_witness k={k}", lambda: dcflab.find_witness(m), "extract")
            if t is not None:
                rnd.check(f"find_witness k={k}", _tuple_key(t), lambda t=t, pred=pred:
                          _grid_problem(pred, t, COUNTER_GRID), found=True)
            r = rnd.op(f"reduce_lsharp k={k}", lambda: dcflab.reduce_lsharp(m), "reduce")
            if r is not None:
                t2, reducer, report = r
                doc = json.dumps(dcflab.mealy_to_document(reducer), sort_keys=True)
                rnd.check(f"reduce_lsharp k={k}", (_tuple_key(t2), doc, report),
                          lambda t2=t2, reducer=reducer, report=report, pred=pred:
                          _grid_problem(pred, t2, COUNTER_GRID)
                          or _reducer_problem(reducer, pred, CHECK_LEN, report.words_checked))
            if t is None:
                continue
            for mm, nn in self.points[k]:
                word = t.v + t.x * mm + t.w + t.y * nn + t.z
                verdict = rnd.op(f"member k={k} ({mm}, {nn})", lambda: dcflab.member(m, word),
                                 "member", len(word))
                if verdict is not None:
                    rnd.check(f"member k={k} ({mm}, {nn})", (word, verdict), lambda verdict=verdict, word=word, pred=pred:
                              None if verdict == pred(word) else f"member says {verdict} on a word of length {len(word)}")


# --- random ---------------------------------------------------------------------


class RandomWorkload(Workload):
    """The seeded random-DPDA suite through `find_witness` at default budgets."""

    name = "random"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.docs = [machines.rename(doc, seed) for doc in machines.random_suite()]
        lo = rng.randint(200, 204)
        self.points = [(lo, lo), (lo, lo + 1), (lo + 1, lo)]
        self.reduce_words = list(_binary_words(RANDOM_REDUCE_LEN))
        self.references: dict[int, ref.ReferenceMachine] = {}

    def setup(self):
        return _timed_setup(lambda: [
            dcflab.complete_dpda(dcflab.validate_dpda(doc)) for doc in self.docs
        ])

    def _reference(self, i: int) -> ref.ReferenceMachine:
        if i not in self.references:
            self.references[i] = ref.ReferenceMachine.of(dcflab.validate_dpda(self.docs[i]))
        return self.references[i]

    def run_round(self, built, rnd: Round) -> None:
        found = []
        for i, m in enumerate(built):
            t = rnd.op(f"find_witness #{i}", lambda: _find_or_exhaust(m), "extract")
            if t is None or t == "exhausted":
                continue
            member = lambda w, i=i: self._reference(i).accepts(w)  # noqa: E731
            rnd.check(f"find_witness #{i}", _tuple_key(t), lambda t=t, member=member:
                      _grid_problem(member, t, RANDOM_GRID), found=True)
            found.append((i, m, t, member))
        for _ in range(1 if rnd.single else SHORT_PASSES):
            for i, m, t, member in found:
                self._short_ops(rnd, i, m, t, member)

    def _short_ops(self, rnd: Round, i: int, m, t, member) -> None:
        words = self.reduce_words

        def certify():
            reducer = dcflab.build_lsharp_reducer(t, sorted(m.input_alphabet))
            oracle = dcflab.oracle_from_dpda(m)
            return [dcflab.evaluate(reducer, oracle, w) for w in words]

        verdicts = rnd.op(f"reduce #{i}", certify, "reduce")
        if verdicts is not None:
            # One character per word keeps the queued checks of all passes
            # small; a verdict that is not a bool reads "?", which is wrong.
            verdicts = "".join(("1" if v else "0") if type(v) is bool else "?" for v in verdicts)
            rnd.check(f"reduce #{i}", (_tuple_key(t), verdicts), lambda: next(
                (f"reducer verdict {v} on {w!r}" for w, v in zip(words, verdicts)
                 if v != ("1" if ref.is_lsharp(w) else "0")),
                None))
        for mm, nn in self.points:
            word = t.v + t.x * mm + t.w + t.y * nn + t.z
            verdict = rnd.op(f"member #{i} ({mm}, {nn})", lambda: dcflab.member(m, word),
                             "member", len(word))
            if verdict is not None:
                rnd.check(f"member #{i} ({mm}, {nn})", (word, verdict), lambda verdict=verdict, word=word:
                          None if verdict == member(word) else f"member says {verdict} on {word!r}")


def _find_or_exhaust(m):
    """find_witness; exhaustion is a valid outcome on a random machine."""
    try:
        return dcflab.find_witness(m)
    except dcflab.SearchExhaustedError:
        return "exhausted"


WORKLOADS = {w.name: w for w in (CorpusWorkload, CountersWorkload, RandomWorkload)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
