"""Checks made apart from the code under test.

Nothing here calls `dcflab.dpda` run functions, `Dpda.visible`/`Dpda.eps`,
`dcflab.mealy.evaluate` or `TruthTable.value`: the benchmark judges the
program's outputs with these instead, so a fault in an optimised path
cannot hide itself.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Iterable, Optional

Predicate = Callable[[str], bool]


def is_counter_word(word: str, k: int = 1) -> bool:
    """0^n 1^n with n >= 1 and n divisible by k (k = 1 gives 0^n 1^n)."""
    zeros = len(word) - len(word.lstrip("0"))
    return zeros >= 1 and zeros % k == 0 and word[zeros:] == "1" * zeros


def is_lsharp(word: str) -> bool:
    return is_counter_word(word, 1)


def could_extend_into_lsharp(prefix: str) -> bool:
    """Whether some extension of `prefix` lies in 0^n 1^n."""
    zeros = len(prefix) - len(prefix.lstrip("0"))
    ones = prefix[zeros:]
    return ones == "1" * len(ones) and (not ones or len(ones) <= zeros)


class ReferenceMachine:
    """Membership read straight from a DPDA's raw rule list.

    Acceptance follows the documented run semantics: after the last input
    symbol (or at the start, for the empty word) the run accepts when the
    state it reaches, or any state on the ε-chain that follows, is
    accepting.  A run with no applicable rule, or with an empty stack
    before the input ends, rejects.
    """

    def __init__(self, rules: Iterable, start_state: str, start_symbol: str, accepting):
        self.moves: dict[tuple[str, str, str], tuple[str, tuple[str, ...]]] = {}
        for r in rules:
            self.moves[(r.from_state, r.top, r.label)] = (r.to_state, tuple(r.push))
        self.start_state = start_state
        self.start_symbol = start_symbol
        self.accepting = frozenset(accepting)

    @classmethod
    def of(cls, m) -> "ReferenceMachine":
        return cls(m.rules, m.start_state, m.start_symbol, m.accepting)

    @classmethod
    def from_document(cls, doc: dict) -> "ReferenceMachine":
        """From a machine document as `machines.py` writes it, without dcflab."""
        rules = [SimpleNamespace(from_state=r["from"], top=r["top"], label=r["label"],
                                 to_state=r["to"], push=r["push"]) for r in doc["rules"]]
        return cls(rules, doc["start_state"], doc["start_symbol"], doc["accepting"])

    def _settle(self, state: str, stack: list[str], seen: bool) -> tuple[str, bool]:
        while stack:
            move = self.moves.get((state, stack[-1], ""))
            if move is None:
                break
            state = move[0]
            stack.pop()
            seen = seen or state in self.accepting
        return state, seen

    def accepts(self, word: str) -> bool:
        stack = [self.start_symbol]  # topmost symbol last
        state, seen = self._settle(self.start_state, stack, self.start_state in self.accepting)
        for ch in word:
            if not stack:
                return False
            move = self.moves.get((state, stack[-1], ch))
            if move is None:
                return False
            state, push = move
            stack.pop()
            stack.extend(push[::-1])
            state, seen = self._settle(state, stack, state in self.accepting)
        return seen


def grid_counterexample(member: Predicate, t, m_bound: int, n_bound: int) -> Optional[tuple]:
    """First (m, n) where the tuple's grid property fails under `member`.

    For m in 0..m_bound and n in 1..n_bound the pair of answers for
    v x^m w y^(n-1) z and v x^m w y^n z, flipped for a complement
    polarity, must read (reject, accept) exactly when m = n.
    """
    flip = t.polarity == "complement"
    for m in range(m_bound + 1):
        head = t.v + t.x * m + t.w
        for n in range(1, n_bound + 1):
            left = member(head + t.y * (n - 1) + t.z) != flip
            right = member(head + t.y * n + t.z) != flip
            if ((not left) and right) != (m == n):
                return (m, n, left, right)
    return None


def mealy_verdict(machine, oracle: Predicate, word: str) -> bool:
    """A transducer's verdict on `word`, read from its tables directly."""
    state, tape = machine.start_state, []
    for ch in word:
        nxt = machine.delta.get((state, ch))
        if nxt is None:
            return False
        tape.append(machine.outputs[(state, ch)])
        state = nxt
    return _table_verdict(machine, state, "".join(tape), oracle)


def _table_verdict(machine, state: str, tape: str, oracle: Predicate) -> bool:
    suffixes, table = machine.per_state[state]
    row = 0
    for s in suffixes:
        row = 2 * row + (1 if oracle(tape + s) else 0)
    return table.rows[row]


def reducer_mismatch(machine, oracle: Predicate, max_len: int) -> tuple[int, Optional[str]]:
    """Compare a 0^n 1^n reducer with `is_lsharp` on every binary word of
    length <= max_len; returns (words checked, first mismatch or None).

    A word on which the transducer has died is rejected, and so is every
    extension of it; when no extension can lie in 0^n 1^n either, the whole
    subtree agrees and is counted without being walked.
    """
    checked = 0
    todo: list[tuple[str, Optional[str], str]] = [("", machine.start_state, "")]
    while todo:
        word, state, tape = todo.pop()
        if state is None and not could_extend_into_lsharp(word):
            checked += 2 ** (max_len - len(word) + 1) - 1
            continue
        verdict = False if state is None else _table_verdict(machine, state, tape, oracle)
        if verdict != is_lsharp(word):
            return checked, word
        checked += 1
        if len(word) == max_len:
            continue
        for ch in "01":
            nxt = None if state is None else machine.delta.get((state, ch))
            out = "" if nxt is None else tape + machine.outputs[(state, ch)]
            todo.append((word + ch, nxt, out))
    return checked, None
