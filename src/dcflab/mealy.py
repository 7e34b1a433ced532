"""Oracle Mealy machines with truth-table acceptance.

A machine transduces its input to a query prefix on a write-only oracle
tape; the state reached at the end contributes a tuple of query suffixes
and a truth table that aggregates the oracle's answers into the verdict.
Rejection by an undefined transition beats every table.  Machines are
immutable after validation and evaluation is pure given a deterministic
oracle.  Every transducer run walks `OracleMealyMachine.step_table`,
compiled once per machine, whose moves hold the next state's row already
resolved, so a letter costs one lookup.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import product
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from .dpda import (
    Dpda,
    InvalidMachineError,
    StuckError,
    Violation,
    _check_fields,
    _fresh,
    _read_json,
    advance,
    complete_dpda,
    config_member,
    member,
)


@dataclass(frozen=True)
class TruthTable:
    """Boolean aggregation of oracle answers.

    Row index reads the answer tuple as a binary number with the first
    query as the most significant bit.
    """

    arity: int
    rows: tuple[bool, ...]

    def __post_init__(self):
        if len(self.rows) != 2**self.arity:
            raise ValueError(f"table of arity {self.arity} needs {2 ** self.arity} rows")

    def value(self, answers: Sequence[bool]) -> bool:
        if len(answers) != self.arity:
            raise ValueError("answer tuple does not match table arity")
        idx = 0
        for b in answers:
            idx = (idx << 1) | (1 if b else 0)
        return self.rows[idx]


def constant_table(value: bool) -> TruthTable:
    return TruthTable(0, (value,))


IDENTITY_TABLE = TruthTable(1, (False, True))

QuerySpec = tuple[tuple[str, ...], TruthTable]


@dataclass(frozen=True)
class OracleMealyMachine:
    states: frozenset[str]
    input_alphabet: frozenset[str]
    oracle_alphabet: frozenset[str]
    delta: Mapping[tuple[str, str], str]
    outputs: Mapping[tuple[str, str], str]
    start_state: str
    per_state: Mapping[str, QuerySpec]

    @cached_property
    def step_table(self) -> dict[str, dict[str, tuple[str, str, dict]]]:
        """state -> letter -> (next state, output, the next state's row),
        for the defined moves; every state has a row, empty if it has none."""
        table: dict = {q: {} for q in self.states}
        for (q, ch), nxt in self.delta.items():
            table[q][ch] = (nxt, self.outputs[(q, ch)], table[nxt])
        # Resolved rows form cycles whenever the states loop; emptying them
        # with the machine frees them without the collector.
        weakref.finalize(self, _clear_rows, table)
        return table

    def __reduce__(self):
        # Copies and pickles rebuild the machine from its fields, so none
        # carries the compiled table that this machine's finalizer empties.
        return OracleMealyMachine, tuple(getattr(self, f.name) for f in fields(self))


def _clear_rows(table: dict) -> None:
    for row in table.values():
        row.clear()


class Positions(NamedTuple):
    """Resumable run positions of a language (see `LanguageOracle`)."""

    start: Callable[[], Any]
    step: Callable[[Any, str], Any]
    accepts: Callable[[Any, str], bool]


@dataclass(frozen=True)
class LanguageOracle:
    """A total, deterministic membership predicate over a fixed alphabet.

    `start`, `step` and `accepts` read the same language from resumable
    run positions: `start()` is the position before any input, `step(p,
    word)` the position after reading `word` from p, and `accepts(p, s)`
    whether the word read up to p, followed by s, is in the language.
    Stepping by "" leaves a position unchanged.  By default a position is
    the prefix read so far; `positions` may supply a cheaper one (see
    `oracle_from_dpda`).  Equal positions must read the same language,
    and so step to equal positions: readers such as `verify_witness` copy
    answers once two positions compare equal.
    """

    alphabet: frozenset[str]
    membership: Callable[[str], bool]
    name: str = ""
    positions: Optional[Positions] = None

    def start(self) -> Any:
        return "" if self.positions is None else self.positions.start()

    def step(self, position: Any, word: str) -> Any:
        if self.positions is None:
            return position + word
        return self.positions.step(position, word)

    def accepts(self, position: Any, suffix: str) -> bool:
        if self.positions is None:
            return self.membership(position + suffix)
        return self.positions.accepts(position, suffix)


@dataclass(frozen=True)
class Dfa:
    """A total deterministic finite automaton."""

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: Mapping[tuple[str, str], str]
    start: str
    accepting: frozenset[str]

    def __post_init__(self):
        problems = []
        for q in sorted(self.states):
            for a in sorted(self.alphabet):
                target = self.transitions.get((q, a))
                if target is None:
                    problems.append(Violation("MissingTransition", f"({q}, {a})"))
                elif target not in self.states:
                    problems.append(Violation("UndeclaredSymbol", f"target of ({q}, {a})"))
        if self.start not in self.states:
            problems.append(Violation("UndeclaredSymbol", "start"))
        if not self.accepting <= self.states:
            problems.append(Violation("UndeclaredSymbol", "accepting"))
        if problems:
            raise InvalidMachineError(problems)

    def accepts(self, word: str) -> bool:
        q = self.start
        for a in word:
            q = self.transitions[(q, a)]
        return q in self.accepting


def validate_mealy(candidate: Mapping) -> OracleMealyMachine:
    """Check a raw transducer description and return the validated machine.

    Document shape: `states`, `input_alphabet`, `oracle_alphabet`, `delta`
    (list of `{from, on, to}`; a missing pair means the transition is
    undefined), `lambda` (list of `{from, on, out}`, defined exactly where
    delta is), `start_state`, `queries` (one `{state, suffixes, table}`
    entry per state, table rows as 0/1 with the first suffix as the most
    significant bit).
    """
    violations: list[Violation] = []
    kinds = dict.fromkeys(("states", "input_alphabet", "oracle_alphabet"), "a list of strings")
    kinds.update(dict.fromkeys(("delta", "lambda", "queries"), "a list"), start_state="a string")
    if not _check_fields(candidate, kinds, violations, ""):
        raise InvalidMachineError(violations)

    states = frozenset(candidate["states"])
    input_alphabet = frozenset(candidate["input_alphabet"])
    oracle_alphabet = frozenset(candidate["oracle_alphabet"])
    for name, alpha in (("input_alphabet", input_alphabet), ("oracle_alphabet", oracle_alphabet)):
        if not alpha:
            violations.append(Violation("BadType", f"{name} must be nonempty"))
        for a in sorted(alpha):
            if len(a) != 1:
                violations.append(
                    Violation("BadSymbol", f"{name} symbol {a!r} is not a single character")
                )
    if candidate["start_state"] not in states:
        violations.append(Violation("UndeclaredSymbol", "start_state"))

    delta: dict[tuple[str, str], str] = {}
    for i, raw in enumerate(candidate["delta"]):
        where = f"delta[{i}]"
        kinds = dict.fromkeys(("from", "on", "to"), "a string")
        if not _check_fields(raw, kinds, violations, where):
            continue
        key = (raw["from"], raw["on"])
        if key in delta:
            violations.append(Violation("DuplicateTransition", f"({key[0]}, {key[1]})"))
        if raw["from"] not in states or raw["to"] not in states:
            violations.append(Violation("UndeclaredSymbol", where))
        if raw["on"] not in input_alphabet:
            violations.append(Violation("UndeclaredSymbol", f"{where}.on"))
        delta[key] = raw["to"]

    outputs: dict[tuple[str, str], str] = {}
    for i, raw in enumerate(candidate["lambda"]):
        where = f"lambda[{i}]"
        kinds = dict.fromkeys(("from", "on", "out"), "a string")
        if not _check_fields(raw, kinds, violations, where):
            continue
        key = (raw["from"], raw["on"])
        if key not in delta:
            violations.append(Violation("LambdaDomainMismatch", f"({key[0]}, {key[1]})"))
        for ch in raw["out"]:
            if ch not in oracle_alphabet:
                violations.append(Violation("UndeclaredSymbol", f"{where}.out {ch!r}"))
        outputs[key] = raw["out"]
    for key in sorted(delta):
        if key not in outputs:
            violations.append(Violation("LambdaDomainMismatch", f"({key[0]}, {key[1]})"))

    per_state: dict[str, QuerySpec] = {}
    for i, raw in enumerate(candidate["queries"]):
        where = f"queries[{i}]"
        kinds = {"state": "a string", "suffixes": "a list of strings", "table": "a list"}
        if not _check_fields(raw, kinds, violations, where):
            continue
        q = raw["state"]
        if q not in states:
            violations.append(Violation("UndeclaredSymbol", f"{where}.state"))
            continue
        if q in per_state:
            violations.append(Violation("DuplicateQueries", q))
            continue
        suffixes = tuple(raw["suffixes"])
        for s in suffixes:
            for ch in s:
                if ch not in oracle_alphabet:
                    violations.append(Violation("UndeclaredSymbol", f"{where} suffix {ch!r}"))
        rows = raw["table"]
        if len(rows) != 2 ** len(suffixes) or not all(type(r) is int and r in (0, 1) for r in rows):
            violations.append(Violation("ArityMismatch", q))
            continue
        per_state[q] = (suffixes, TruthTable(len(suffixes), tuple(bool(r) for r in rows)))
    for q in sorted(states - set(per_state)):
        violations.append(Violation("MissingQueries", q))

    if violations:
        raise InvalidMachineError(violations)
    return OracleMealyMachine(
        states=states,
        input_alphabet=input_alphabet,
        oracle_alphabet=oracle_alphabet,
        delta=delta,
        outputs=outputs,
        start_state=candidate["start_state"],
        per_state=per_state,
    )


def mealy_to_document(a: OracleMealyMachine) -> dict:
    return {
        "states": sorted(a.states),
        "input_alphabet": sorted(a.input_alphabet),
        "oracle_alphabet": sorted(a.oracle_alphabet),
        "delta": [
            {"from": q, "on": ch, "to": a.delta[(q, ch)]} for q, ch in sorted(a.delta)
        ],
        "lambda": [
            {"from": q, "on": ch, "out": a.outputs[(q, ch)]} for q, ch in sorted(a.outputs)
        ],
        "start_state": a.start_state,
        "queries": [
            {
                "state": q,
                "suffixes": list(a.per_state[q][0]),
                "table": [1 if r else 0 for r in a.per_state[q][1].rows],
            }
            for q in sorted(a.states)
        ],
    }


def load_mealy(path: str) -> OracleMealyMachine:
    return validate_mealy(_read_json(path))


def _run_transducer(a: OracleMealyMachine, state: str, word: str) -> Optional[tuple[str, str]]:
    """Walk the rows first, so a word that dies builds no output."""
    row = start = a.step_table[state]
    for ch in word:
        hit = row.get(ch)
        if hit is None:
            return None
        row = hit[2]
    out: list[str] = []
    row = start
    for ch in word:
        state, piece, row = row[ch]
        out.append(piece)
    return state, "".join(out)


def transduce(a: OracleMealyMachine, word: str) -> Optional[tuple[str, str]]:
    """Fold δ and λ over `word`; None the moment δ is undefined."""
    return _run_transducer(a, a.start_state, word)


def evaluate(a: OracleMealyMachine, oracle: LanguageOracle, word: str) -> bool:
    """Acceptance of `word` by the machine running against `oracle`.

    The transduced output extended by each suffix of the final state forms
    the oracle queries; the state's truth table aggregates the answers.  An
    undefined transition rejects outright.
    """
    res = _run_transducer(a, a.start_state, word)
    if res is None:
        return False
    suffixes, table = a.per_state[res[0]]
    return table.value([oracle.membership(res[1] + s) for s in suffixes])


def oracle_from_dpda(m: Dpda) -> LanguageOracle:
    """Wrap a machine's accepted language as a (memoized) oracle.

    A run position is a stable configuration of the completed machine with
    `advance`'s flag, which tells whether the word read so far is
    accepted, so reading on from a position costs only the new letters.
    A word the machine cannot read (a letter outside its alphabet) is
    rejected, as is every extension of it: its position is None.
    """
    mc = m if m.completed else complete_dpda(m)

    @lru_cache(maxsize=1 << 20)
    def membership(word: str) -> bool:
        try:
            return member(mc, word)
        except StuckError:
            return False

    def start():
        return advance(mc, mc.start_configuration(), "")

    def step(position, word: str):
        # Re-closing the stable configuration on "" would drop an accepting
        # state seen inside the ε-chain that led to it.
        if position is None or not word:
            return position
        return advance(mc, position[0], word)

    def accepts(position, suffix: str) -> bool:
        if position is None:
            return False
        config, accepted = position
        return config_member(mc, config, suffix) if suffix else accepted

    return LanguageOracle(
        alphabet=mc.input_alphabet,
        membership=membership,
        name="dpda",
        positions=Positions(start, step, accepts),
    )


def oracle_from_machine(
    a: OracleMealyMachine, oracle: LanguageOracle, name: str = ""
) -> LanguageOracle:
    """The language of a^oracle, itself wrapped as an oracle."""
    return LanguageOracle(
        alphabet=a.input_alphabet,
        membership=lambda w: evaluate(a, oracle, w),
        name=name or f"eval({oracle.name})",
    )


def identity_machine(alphabet: Sequence[str]) -> OracleMealyMachine:
    """One state copying input to the oracle tape; suffix ε, identity table."""
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    alpha = frozenset(alphabet)
    return OracleMealyMachine(
        states=frozenset({"q"}),
        input_alphabet=alpha,
        oracle_alphabet=alpha,
        delta={("q", a): "q" for a in alpha},
        outputs={("q", a): a for a in alpha},
        start_state="q",
        per_state={"q": (("",), IDENTITY_TABLE)},
    )


def _product(
    a: OracleMealyMachine, oracle_alphabet, start: tuple, step, spec
) -> OracleMealyMachine:
    """The one product explorer behind `compose` and `restrict_regular`.

    Walks the product states (tuples of component states) reachable from
    `start` over a's input alphabet: `step(pair, ch)` gives the target pair
    and its output, or None where the product transition is undefined, and
    `spec(pair)` gives the pair's queries.  Each product state is named
    once, by its JSON array, which is injective where joining names with
    commas is not.
    """
    sigma = sorted(a.input_alphabet)
    delta: dict[tuple[tuple, str], tuple] = {}
    outputs: dict[tuple[tuple, str], str] = {}
    per_state: dict[tuple, QuerySpec] = {start: spec(start)}
    todo = [start]
    while todo:
        here = todo.pop()
        for ch in sigma:
            hit = step(here, ch)
            if hit is None:
                continue
            there, out = hit
            delta[(here, ch)] = there
            outputs[(here, ch)] = out
            if there not in per_state:
                per_state[there] = spec(there)
                todo.append(there)
    name = {pair: json.dumps(pair, ensure_ascii=False) for pair in per_state}
    return OracleMealyMachine(
        states=frozenset(name.values()),
        input_alphabet=a.input_alphabet,
        oracle_alphabet=oracle_alphabet,
        delta={(name[p], ch): name[t] for (p, ch), t in delta.items()},
        outputs={(name[p], ch): out for (p, ch), out in outputs.items()},
        start_state=name[start],
        per_state={name[p]: qs for p, qs in per_state.items()},
    )


def compose(a1: OracleMealyMachine, a2: OracleMealyMachine) -> OracleMealyMachine:
    """Chain two reductions: the result queries a2's oracle directly.

    Product of the state graphs where a2 consumes a1's output on the fly.
    Per product state (p1, p2), each a1-suffix is pushed through a2 from p2
    and paired with the suffixes of the a2-state it reaches; the table
    plugs a2's tables into a1's.  When a2 dies while consuming a1-output
    the second component collapses to a sink whose verdict is a1's table on
    all-negative answers (a rejecting back end answers every query
    negatively); a2 dying inside one suffix pins that single slot to a
    negative answer the same way.
    """
    if a1.oracle_alphabet != a2.input_alphabet:
        raise ValueError("oracle alphabet of the front machine must feed the back machine")

    def step(pair: tuple[str, Optional[str]], ch: str):
        q1, q2 = pair
        hit = a1.step_table[q1].get(ch)
        if hit is None:
            return None
        mid = None if q2 is None else _run_transducer(a2, q2, hit[1])
        return ((hit[0], None), "") if mid is None else ((hit[0], mid[0]), mid[1])

    def spec(pair: tuple[str, Optional[str]]) -> QuerySpec:
        q1, q2 = pair
        suffixes1, table1 = a1.per_state[q1]
        if q2 is None:
            return (), constant_table(table1.value([False] * table1.arity))
        slots: list[Optional[QuerySpec]] = []
        suffixes: list[str] = []
        for s in suffixes1:
            mid = _run_transducer(a2, q2, s)
            if mid is None:
                slots.append(None)
            else:
                p2i, out_i = mid
                sfx2, tbl2 = a2.per_state[p2i]
                slots.append((sfx2, tbl2))
                suffixes.extend(out_i + s2 for s2 in sfx2)
        total = sum(len(slot[0]) for slot in slots if slot is not None)
        rows = []
        for idx in range(2**total):
            bits = [bool((idx >> (total - 1 - k)) & 1) for k in range(total)]
            answers: list[bool] = []
            pos = 0
            for slot in slots:
                if slot is None:
                    answers.append(False)
                else:
                    sfx2, tbl2 = slot
                    answers.append(tbl2.value(bits[pos : pos + len(sfx2)]))
                    pos += len(sfx2)
            rows.append(table1.value(answers))
        return tuple(suffixes), TruthTable(total, tuple(rows))

    return _product(a1, a2.oracle_alphabet, (a1.start_state, a2.start_state), step, spec)


def complement_machine(a: OracleMealyMachine) -> OracleMealyMachine:
    """Accept exactly the words the given machine rejects.

    δ is first totalized with a fresh sink (so that undefined-transition
    rejection becomes a table verdict), then every table row is negated,
    the sink's included.
    """
    sink = _fresh("sink", a.states)
    states = frozenset(a.states | {sink})
    delta = dict(a.delta)
    outputs = dict(a.outputs)
    for q in sorted(states):
        for ch in sorted(a.input_alphabet):
            if (q, ch) not in delta:
                delta[(q, ch)] = sink
                outputs[(q, ch)] = ""
    per_state: dict[str, QuerySpec] = {}
    for q, (sfx, tbl) in a.per_state.items():
        per_state[q] = (sfx, TruthTable(tbl.arity, tuple(not r for r in tbl.rows)))
    per_state[sink] = ((), constant_table(True))
    return OracleMealyMachine(
        states=states,
        input_alphabet=a.input_alphabet,
        oracle_alphabet=a.oracle_alphabet,
        delta=delta,
        outputs=outputs,
        start_state=a.start_state,
        per_state=per_state,
    )


def restrict_regular(a: OracleMealyMachine, d: Dfa) -> OracleMealyMachine:
    """Conjunction with a regular language: simulate d in parallel and
    force constant-0 tables wherever d rejects."""
    if d.alphabet != a.input_alphabet:
        raise ValueError("DFA alphabet must match the machine's input alphabet")

    def step(pair: tuple[str, str], ch: str):
        q, s = pair
        hit = a.step_table[q].get(ch)
        return None if hit is None else ((hit[0], d.transitions[(s, ch)]), hit[1])

    def spec(pair: tuple[str, str]) -> QuerySpec:
        q, s = pair
        return a.per_state[q] if s in d.accepting else ((), constant_table(False))

    return _product(a, a.oracle_alphabet, (a.start_state, d.start), step, spec)


def lift_dfa(d: Dfa, oracle_alphabet: Sequence[str]) -> OracleMealyMachine:
    """Embed a DFA as an oracle machine that never queries.

    Constant tables produce 1 exactly at accepting states, so the verdict
    is oracle-independent.
    """
    alpha = frozenset(oracle_alphabet)
    if not alpha:
        raise ValueError("oracle alphabet must be nonempty")
    return OracleMealyMachine(
        states=d.states,
        input_alphabet=d.alphabet,
        oracle_alphabet=alpha,
        delta=dict(d.transitions),
        outputs={key: "" for key in d.transitions},
        start_state=d.start,
        per_state={q: ((), constant_table(q in d.accepting)) for q in d.states},
    )


def refute_simplicity_LR(a: OracleMealyMachine, k_max: int) -> Optional[str]:
    """Search for a word over {a, b, c} that the machine misclassifies
    against the marked-palindrome language, running the machine over the
    0^n1^n oracle.

    Prefixes over {a, b} of each length k are bucketed by the machine's
    state and the run position of the corpus `lsharp` machine after the
    oracle tape.  Equal positions read the same language, so two prefixes
    with one key get the same verdict on every extension.  After a prefix
    w over {a, b}, the marked palindromes go on by exactly `c wᴿ`, so on a
    collision (w1, w2) of one length the separator s = c·min(w1ᴿ, w2ᴿ)
    puts exactly one of w1·s and w2·s in the language, and the machine
    misclassifies one of them.  A prefix w on which the transducer dies
    rejects `w c wᴿ`, a marked palindrome.  Each word is confirmed against
    the direct predicates before being returned.  None means the bound was
    exhausted without a word that confirms (the machine may still be
    incorrect elsewhere).  Raises ValueError when k_max is below 1.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    from .corpus import get_entry, is_lr, is_lsharp  # corpus imports this module

    tape = oracle_from_dpda(get_entry("lsharp").machine)
    oracle = LanguageOracle(alphabet=a.oracle_alphabet, membership=is_lsharp, name="lsharp")
    for k in range(1, k_max + 1):
        buckets: dict[tuple, str] = {}
        for chars in product("ab", repeat=k):
            w2 = "".join(chars)
            res = transduce(a, w2)
            if res is None:
                cands = (w2 + "c" + w2[::-1],)
            else:
                state, out = res
                w1 = buckets.setdefault((state, tape.step(tape.start(), out)), w2)
                if w1 == w2:
                    continue
                s = "c" + min(w1[::-1], w2[::-1])
                cands = (w1 + s, w2 + s)
            for cand in cands:
                if evaluate(a, oracle, cand) != is_lr(cand):
                    return cand
    return None
