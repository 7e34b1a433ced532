"""Witness tuples (v, x, w, y, z) and the reduction they power.

A witness tuple for a language L' (either the source language or its
complement) satisfies, for all m >= 0 and n >= 1:

    (v x^m w y^(n-1) z not in L'  and  v x^m w y^n z in L')   iff   m = n

which lets a three-state transducer with two oracle queries decide the
0^n 1^n language against the oracle L.  `verify_witness` checks the grid
exhaustively up to bounds; `find_witness` extracts a verified tuple from a
machine by bounded structural search; `build_lsharp_reducer` realizes the
reduction; `reduce_lsharp` chains the three and certifies the result
against the 0^n 1^n predicate on every binary word up to a length bound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional

from .analysis import (
    ExhaustedError,
    _level_flags,
    _levels,
    _periodicity,
    _Product,
    _pumps,
    find_divergent_word,
)
from .corpus import is_lsharp, is_lsharp_prefix
from .dpda import Dpda, Word, complete_dpda
from .mealy import (
    LanguageOracle,
    OracleMealyMachine,
    TruthTable,
    constant_table,
    oracle_from_dpda,
)

DIRECT = "direct"
COMPLEMENT = "complement"


@dataclass(frozen=True)
class WitnessTuple:
    v: Word
    x: Word
    w: Word
    y: Word
    z: Word
    polarity: str

    def __post_init__(self):
        for name in ("v", "x", "w", "y", "z"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if not self.x or not self.y:
            raise ValueError("x and y must be nonempty")
        if self.polarity not in (DIRECT, COMPLEMENT):
            raise ValueError(f"polarity must be {DIRECT!r} or {COMPLEMENT!r}")

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "x": self.x,
            "w": self.w,
            "y": self.y,
            "z": self.z,
            "polarity": self.polarity,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "WitnessTuple":
        expected = {"v", "x", "w", "y", "z", "polarity"}
        if not isinstance(doc, dict) or set(doc) != expected:
            raise ValueError(f"witness tuple must be an object with fields {sorted(expected)}")
        return WitnessTuple(**doc)


@dataclass(frozen=True)
class VerificationReport:
    m_bound: int
    n_bound: int
    passed: bool
    counterexamples: tuple[tuple[int, int, bool, bool], ...]


@dataclass(frozen=True)
class SearchBudgets:
    """Bounds on `find_witness`'s search, each an integer >= 1.
    `word_length` is the divergent word's length, and so bounds the pumps
    tried, one per pair of its levels; `z_length` bounds the length of the
    z words.  Every later stage is exact and needs no bound.  The
    distinguisher's node cap is not a budget but the module constant
    `analysis.DISTINGUISH_NODE_CAP`.
    """

    word_length: int = 24
    z_length: int = 6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise ValueError(f"budget {f.name} must be an integer >= 1, not {value!r}")


@dataclass(frozen=True)
class AgreementReport:
    max_len: int
    words_checked: int
    passed: bool


class SearchExhaustedError(Exception):
    """The extraction pipeline ran out of candidates; reports the deepest
    stage that was reached."""

    def __init__(self, stage: str, budgets: SearchBudgets):
        self.stage = stage
        self.budgets = budgets
        super().__init__(f"witness search exhausted at stage {stage!r} under {budgets}")


class AgreementFailureError(AssertionError):
    """The built reducer disagreed with the 0^n 1^n predicate; unreachable
    unless the implementation is broken, since the tuple was verified."""

    def __init__(self, word: Word):
        self.word = word
        super().__init__(f"reducer disagrees on {word!r}")


def verify_witness(
    oracle: LanguageOracle, t: WitnessTuple, m_bound: int, n_bound: int
) -> VerificationReport:
    """Exhaustively check the witness grid up to the given bounds.

    For every m in [0, m_bound] and n in [1, n_bound] the pair of membership
    answers for v x^m w y^(n-1) z and v x^m w y^n z (with the tuple's
    polarity applied) must spell out m = n.  Each row holds the answer a_j
    on v x^m w y^j z, j in [0, n_bound], and reads the pair at n as
    (a_(n-1), a_n).  The words are read through the oracle's run
    positions: v x^m is one x past the previous row's, and each y^j one y
    past the last.  Once the position after v x^m w y^n equals the row
    above's after v x^(m-1) w y^(n-1), as it does when each y pops what
    one x pushed, every later answer in the row equals the row above's one
    column back, and is copied instead of asked; string positions never
    meet.  A bound below 1 raises ValueError: the grid would hold no point
    with m = n.
    """
    for name, bound in (("m_bound", m_bound), ("n_bound", n_bound)):
        if bound < 1:
            raise ValueError(f"{name} must be >= 1, not {bound}")
    flip = t.polarity == COMPLEMENT
    counterexamples: list[tuple[int, int, bool, bool]] = []
    above: list[tuple] = []  # the previous row's (position, answer) per j
    prefix = oracle.step(oracle.start(), t.v)
    for m in range(m_bound + 1):
        position = oracle.step(prefix, t.w)
        row = [(position, oracle.accepts(position, t.z) ^ flip)]
        for n in range(1, n_bound + 1):
            position = oracle.step(position, t.y)
            if above and position == above[n - 1][0]:
                row += above[n - 1 : n_bound]
                break
            row.append((position, oracle.accepts(position, t.z) ^ flip))
        for n in range(1, n_bound + 1):
            left, right = row[n - 1][1], row[n][1]
            if ((not left) and right) != (m == n):
                counterexamples.append((m, n, left, right))
        above = row
        prefix = oracle.step(prefix, t.x)
    return VerificationReport(
        m_bound=m_bound,
        n_bound=n_bound,
        passed=not counterexamples,
        counterexamples=tuple(counterexamples),
    )


def repair_nonempty(t: WitnessTuple) -> WitnessTuple:
    """Make every component nonempty while preserving the grid property.

    An empty w is wrapped as x·w·y and an empty v or z is replaced by the
    pair (v·x, y·z); both rewrites shift the verification grid diagonally
    by one, which keeps the m = n characterization intact.
    """
    v, x, w, y, z = t.v, t.x, t.w, t.y, t.z
    if not w:
        w = x + w + y
    if not v or not z:
        v, z = v + x, y + z
    return replace(t, v=v, w=w, z=z)


def _loop_candidates(graph: _Product, pump):
    """States q with nonempty pX ->w q and q gamma ->y q witnesses, gamma
    being the stack from the pump's node `top` down to its node `bottom`."""
    pops_here = graph.summary.get((pump.p, pump.X), {})
    for q in sorted(pops_here):
        w_word = pops_here[q]  # nonempty: a level's top (p, X) has no ε-rule
        *_, pops = graph.pop_layers(q, pump.top, pump.bottom)
        y_word = pops.get(q)
        if y_word:
            yield q, w_word, y_word


def find_witness(m: Dpda, budgets: SearchBudgets = SearchBudgets()) -> WitnessTuple:
    """Extract a verified witness tuple from a machine with a non-regular
    language (the caller asserts non-regularity).

    Pipeline: complete the machine and build its one `_Product` graph,
    whose sides and nodes every stage below reads; grow a divergent word;
    read its levels as sides of the graph and take its verified pumps one
    at a time, so that a candidate is re-checked only when the search gets
    to it; for each pump, whose gamma·delta and delta are nodes read off
    two levels, find a state q reachable by popping X and again by
    popping gamma (nonempty witnesses w and y); walk the words z on which
    L(q gamma delta) and L(q delta) differ, in one pruned walk; read z's
    membership on every level q gamma^l delta exactly, as the threshold
    and cycle of one gamma window's orbit, skip z when the cycle is not
    constant, and shift the base by gamma^l0, l0 the last change, so that
    the difference stabilizes; read the periodicity of y-iterates from the
    shifted base's side exactly and raise x, y to a multiple of the period
    above the threshold; fix the polarity by whether z lies in the shifted
    base language; repair empty components.  Every stage is exact, so the first
    z that stabilizes gives a tuple that holds for every (m, n) (Jančar &
    Šíma); its re-check at bounds (25, 25) against the machine's own
    language raises AssertionError, a bug, if it fails.

    Pumps are tried until they run out: `_pumps` yields at most one per pair
    of levels of u past the first, so `word_length` bounds their number,
    and a word with fewer than two such levels exhausts at "pump".  The
    outcome is kept in `m.outcomes` per budgets: a repeat returns the same
    tuple, or raises anew at the same stage, without a search.
    """
    return _kept_outcome(m, budgets, m)


def _kept_outcome(m: Dpda, budgets: SearchBudgets, searched: Dpda) -> WitnessTuple:
    """m's outcome under budgets, searched on `searched` (m or its completion) if m keeps none."""
    kept = m.outcomes.get(budgets)
    if kept is None:
        try:
            kept = m.outcomes[budgets] = _search_witness(searched, budgets)
        except SearchExhaustedError as exc:
            m.outcomes[budgets] = exc.stage
            raise
    elif type(kept) is str:
        raise SearchExhaustedError(kept, budgets)
    return kept


def _search_witness(m: Dpda, budgets: SearchBudgets) -> WitnessTuple:
    """`find_witness`'s search."""
    mc = m if m.completed else complete_dpda(m)
    oracle = oracle_from_dpda(mc)
    graph = _Product(mc)

    try:
        u = find_divergent_word(graph, budgets.word_length)
    except ExhaustedError as exc:
        raise SearchExhaustedError("divergent_word", budgets) from exc

    origin, _ = graph.close(mc.start_configuration())
    deepest = "pump"
    for pump in _pumps(graph, u, _levels(graph, origin, u)[1:]):
        deepest = max(deepest, "pop_witness", key=_STAGES.index)
        for q, w_word, y_word in _loop_candidates(graph, pump):
            deepest = max(deepest, "z_probe", key=_STAGES.index)
            # Each z separates q delta from q gamma delta: its flags on the
            # levels q gamma^l delta differ at l = 0 and 1.
            sides = graph.side(q, pump.bottom), graph.side(q, pump.top)
            for z in graph.separators(*sides, budgets.z_length):
                deepest = max(deepest, "stabilize", key=_STAGES.index)
                flags, start = _level_flags(graph, q, pump.top, pump.bottom, z)
                settled = flags[-1]
                if len(set(flags[start:])) > 1:
                    continue  # the cycle holds both values: z never settles
                l0 = max(l for l, f in enumerate(flags) if f != settled)  # the last change
                v = pump.v + pump.x * l0
                # v leads to p X gamma^l0 delta; the base is q over what lies below X.
                below = graph.cells[graph.pairs[graph.read(origin, v)[0]][1]][1]
                report = _periodicity(graph, graph.side(q, below), y_word, z)
                k0 = report.period * (report.k // report.period + 1)
                polarity = COMPLEMENT if settled else DIRECT
                x, y = pump.x * k0, y_word * k0
                candidate = repair_nonempty(WitnessTuple(v, x, w_word, y, z, polarity))
                if not verify_witness(oracle, candidate, 25, 25).passed:
                    raise AssertionError(f"{candidate} fails its 25 x 25 grid")
                return candidate
    raise SearchExhaustedError(deepest, budgets)


_STAGES = ("divergent_word", "pump", "pop_witness", "z_probe", "stabilize")


def build_lsharp_reducer(t: WitnessTuple, delta_alphabet) -> OracleMealyMachine:
    """The three-state transducer reducing 0^n 1^n to the witness's language.

    On input 0^m 1^n the oracle tape holds v x^m w y^(n-1) and the two
    queries append z and y·z; the final table accepts exactly when the two
    answers differ, oriented by the tuple's polarity.  Inputs outside
    0^+ 1^+ are rejected by undefined transitions.
    """
    alpha = frozenset(delta_alphabet)
    for word in (t.v, t.x, t.w, t.y, t.z):
        for ch in word:
            if ch not in alpha:
                raise ValueError(f"tuple symbol {ch!r} outside the oracle alphabet")
    accept_01 = t.polarity == DIRECT
    final_table = TruthTable(2, (False, accept_01, not accept_01, False))
    return OracleMealyMachine(
        states=frozenset({"q0", "q1", "q2"}),
        input_alphabet=frozenset({"0", "1"}),
        oracle_alphabet=alpha,
        delta={
            ("q0", "0"): "q1",
            ("q1", "0"): "q1",
            ("q1", "1"): "q2",
            ("q2", "1"): "q2",
        },
        outputs={
            ("q0", "0"): t.v + t.x,
            ("q1", "0"): t.x,
            ("q1", "1"): t.w,
            ("q2", "1"): t.y,
        },
        start_state="q0",
        per_state={
            "q0": ((), constant_table(False)),
            "q1": ((), constant_table(False)),
            "q2": ((t.z, t.y + t.z), final_table),
        },
    )


def _check_reducer_agreement(
    reducer: OracleMealyMachine, oracle: LanguageOracle, max_len: int
) -> int:
    """Walk the binary prefix tree up to max_len comparing the reducer's
    verdict with the 0^n 1^n predicate; raises on the first mismatch and
    returns the number of words checked, 2^(max_len+1) - 1 on success.

    The walk advances the transducer incrementally, which agrees with
    `evaluate` by the transduction morphism, and carries the oracle's run
    position on the tape: a child's is its parent's stepped by the
    transition's output, and a verdict is the state's table over the
    answers from that position.  A word on which the transducer has died
    is rejected, and so is every extension of it; when no extension lies
    in 0^n 1^n either, the whole subtree agrees and is counted without
    being walked.

    Each distinct position is interned as a small int, and the oracle is
    asked once per (position, word): by `LanguageOracle`'s contract equal
    positions read the same language and step to equal positions, so the
    memo, which dies with the call, changes no verdict."""
    checked = 0
    origin = oracle.start()
    ids: dict[Any, int] = {origin: 0}  # each distinct position -> its small int
    steps: dict[tuple[int, str], tuple[Any, int]] = {}
    answers: dict[tuple[int, str], bool] = {}

    def step(position, pid: int, output: str) -> tuple[Any, int]:
        after = steps.get((pid, output))
        if after is None:
            child = oracle.step(position, output)
            after = steps[pid, output] = (child, ids.setdefault(child, len(ids)))
        return after

    def accepts(position, pid: int, suffix: str) -> bool:
        answer = answers.get((pid, suffix))
        if answer is None:
            answer = answers[pid, suffix] = oracle.accepts(position, suffix)
        return answer

    # (word, the move that read it, or None once dead, oracle position after
    # the tape and its int); the empty word's move is the start state's,
    # with no output
    start = reducer.start_state
    stack: list[tuple[str, Optional[tuple], Any, int]] = [
        ("", (start, "", reducer.step_table[start]), origin, 0)
    ]
    while stack:
        word, move, position, pid = stack.pop()
        if move is None and not is_lsharp_prefix(word):
            checked += 2 ** (max_len - len(word) + 1) - 1
            continue
        verdict = False
        if move is not None:
            suffixes, table = reducer.per_state[move[0]]
            verdict = table.value([accepts(position, pid, s) for s in suffixes])
        if verdict != is_lsharp(word):
            raise AgreementFailureError(word)
        checked += 1
        if len(word) == max_len:
            continue
        for ch in ("0", "1"):
            hit = None if move is None else move[2].get(ch)
            if hit is None:
                stack.append((word + ch, None, None, -1))
            else:
                stack.append((word + ch, hit, *step(position, pid, hit[1])))
    return checked


def reduce_lsharp(
    m: Dpda, budgets: SearchBudgets = SearchBudgets(), check_len: int = 16
) -> tuple[WitnessTuple, OracleMealyMachine, AgreementReport]:
    """Take m's kept `find_witness` outcome, build the reducer, and certify it.

    The reducer runs against the machine's own language as the oracle and
    must agree with the 0^n 1^n predicate on every binary word of length up
    to check_len.  Disagreement raises AgreementFailureError (unreachable
    for a verified tuple).  A negative check_len raises ValueError.
    """
    if check_len < 0:
        raise ValueError(f"check_len must be >= 0, not {check_len}")
    mc = m if m.completed else complete_dpda(m)
    t = _kept_outcome(m, budgets, mc)
    reducer = build_lsharp_reducer(t, sorted(m.input_alphabet))
    oracle = oracle_from_dpda(mc)
    checked = _check_reducer_agreement(reducer, oracle, check_len)
    return t, reducer, AgreementReport(max_len=check_len, words_checked=checked, passed=True)
