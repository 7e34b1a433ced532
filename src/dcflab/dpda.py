"""Deterministic pushdown automata: validation, completion, and runs.

Machines are immutable values once validated; every operation here is a
pure function, so machines and configurations can be shared freely between
workers.  Input words are plain strings (one character per input symbol);
stack words are tuples of stack-symbol strings with the topmost symbol
first, matching the pXα convention where X is the top of the stack.

Every run goes through the one stepping loop `_drive`, behind `member`,
`advance` and `config_member`.  It walks `Dpda.step_table`, compiled once
per machine, whose letter moves hold the next move already resolved, so a
letter costs one lookup.
"""

from __future__ import annotations

import json
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

Word = str
StackWord = tuple[str, ...]

EPSILON = ""

_STUCK: dict = {}  # the move of a rule-less (state, top) pair or an empty stack

_RULE_FIELDS = frozenset({"from", "top", "label", "to", "push"})


@dataclass(frozen=True)
class Violation:
    """One structural defect found while validating a machine description."""

    kind: str
    where: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.where}"


class InvalidMachineError(ValueError):
    """Raised when a machine description violates its invariants."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class StuckError(RuntimeError):
    """A run could not consume the next input symbol.

    Only possible on machines that have not been completed.
    """

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"run stuck at input position {position}")


class Rule(NamedTuple):
    """Transition pX -a-> qγ; label "" is an ε-step, push is topmost first."""

    from_state: str
    top: str
    label: str
    to_state: str
    push: StackWord


@dataclass(frozen=True)
class Configuration:
    """A control state plus a stack word (topmost symbol first)."""

    state: str
    stack: StackWord


@dataclass(frozen=True)
class Dpda:
    states: frozenset[str]
    input_alphabet: frozenset[str]
    stack_alphabet: frozenset[str]
    rules: tuple[Rule, ...]
    start_state: str
    start_symbol: str
    accepting: frozenset[str]
    # Set by complete_dpda; completion guarantees every run reads its whole
    # input, which `member` relies on.
    completed: bool = False

    @cached_property
    def step_table(self) -> dict[str, dict[str, str | dict[str, tuple]]]:
        """state -> top -> the target state of its ε-rule, or a dict from
        each letter to (next state, pushed word with the top last, whether
        the next state accepts, next move): the next state's entry on the
        pushed top, or None when the rule pops.  Rule-less pairs are absent."""
        table: dict = {q: {} for q in self.states}
        for p, x, a, q, _ in self.rules:
            table[p].setdefault(x, q if a == EPSILON else {})
        # Every entry exists before a next move is resolved, or it reads stuck.
        for p, x, a, q, push in self.rules:
            if a != EPSILON:
                pushed = push[::-1]
                nxt = table[q].get(pushed[-1], _STUCK) if pushed else None
                table[p][x][a] = (q, pushed, q in self.accepting, nxt)
        # Next moves link letter moves into cycles whenever the states loop;
        # emptying them with the machine frees them without the collector.
        weakref.finalize(self, _clear_letter_moves, table)
        return table

    @cached_property
    def outcomes(self) -> dict:
        """`find_witness`'s outcome per budgets: a tuple, or the stage it exhausted at."""
        return {}

    def start_configuration(self) -> Configuration:
        return Configuration(self.start_state, (self.start_symbol,))

    def __reduce__(self):
        # Copies and pickles rebuild the machine from its fields, so none carries
        # its outcomes or the compiled table that this machine's finalizer empties.
        return Dpda, tuple(getattr(self, f.name) for f in fields(self))


def _clear_letter_moves(table: dict) -> None:
    for row in table.values():
        for move in row.values():
            if type(move) is dict:
                move.clear()


_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, (list, tuple)),
    "a list of strings": lambda v: (
        isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v)
    ),
}


def _check_fields(doc, kinds: Mapping[str, str], violations: list[Violation], where: str) -> bool:
    """Check that `doc` is an object whose fields are exactly those of
    `kinds`, each of its kind: "a string", "a list" or "a list of strings".

    Appends one violation per defect, naming fields after the prefix
    `where` ("" for a whole document); returns whether `doc` is usable.
    """
    prefix = f"{where}." if where else ""
    if not isinstance(doc, Mapping):
        violations.append(Violation("BadType", f"{where or 'document'} must be an object"))
        return False
    for f in sorted(set(doc) - set(kinds)):
        violations.append(Violation("UnknownField", f"{prefix}{f}"))
    usable = True
    for f, kind in sorted(kinds.items()):
        if f not in doc:
            violations.append(Violation("MissingField", f"{prefix}{f}"))
            usable = False
        elif not _KINDS[kind](doc[f]):
            violations.append(Violation("BadType", f"{prefix}{f} must be {kind}"))
            usable = False
    return usable


def validate_dpda(candidate: Mapping) -> Dpda:
    """Check a raw machine description and return the validated machine.

    The description uses the documented JSON shape: `states`,
    `input_alphabet`, `stack_alphabet`, `rules` (objects with `from`, `top`,
    `label`, `to`, `push`; label "" means ε; push is topmost first),
    `start_state`, `start_symbol`, `accepting`.  Unknown fields are
    rejected.  All violations are collected and raised together as an
    InvalidMachineError.
    """
    violations: list[Violation] = []
    symbol_sets = ("states", "input_alphabet", "stack_alphabet", "accepting")
    kinds = dict.fromkeys(symbol_sets, "a list of strings")
    kinds.update(rules="a list", start_state="a string", start_symbol="a string")
    if not _check_fields(candidate, kinds, violations, ""):
        raise InvalidMachineError(violations)

    states = frozenset(candidate["states"])
    input_alphabet = frozenset(candidate["input_alphabet"])
    stack_alphabet = frozenset(candidate["stack_alphabet"])
    accepting = frozenset(candidate["accepting"])

    if not input_alphabet:
        violations.append(Violation("BadType", "input_alphabet must be nonempty"))
    if not stack_alphabet:
        violations.append(Violation("BadType", "stack_alphabet must be nonempty"))
    for a in sorted(input_alphabet):
        if len(a) != 1:
            violations.append(
                Violation("BadSymbol", f"input symbol {a!r} is not a single character")
            )
    for x in sorted(stack_alphabet):
        if not x:
            violations.append(Violation("BadSymbol", "empty stack symbol"))

    if candidate["start_state"] not in states:
        violations.append(Violation("UndeclaredSymbol", "start_state"))
    if candidate["start_symbol"] not in stack_alphabet:
        violations.append(Violation("UndeclaredSymbol", "start_symbol"))
    for q in sorted(accepting - states):
        violations.append(Violation("UndeclaredSymbol", f"accepting state {q}"))

    rules = []
    for i, raw in enumerate(candidate["rules"]):
        where = f"rules[{i}]"
        if not isinstance(raw, Mapping) or raw.keys() != _RULE_FIELDS:
            violations.append(
                Violation("BadType", f"{where} must have fields from/top/label/to/push")
            )
            continue
        push = raw["push"]
        if not isinstance(push, (list, tuple)) or not all(
            isinstance(s, str) for s in push
        ):
            violations.append(Violation("BadType", f"{where}.push"))
            continue
        # One combined test keeps a valid rule cheap; the per-field report
        # runs only on failure.
        frm, top, label, to = raw["from"], raw["top"], raw["label"], raw["to"]
        if not (
            isinstance(frm, str)
            and isinstance(top, str)
            and isinstance(label, str)
            and isinstance(to, str)
        ):
            for f in ("from", "top", "label", "to"):
                if not isinstance(raw[f], str):
                    violations.append(Violation("BadType", f"{where}.{f} must be a string"))
            continue
        push = tuple(push)
        if frm not in states:
            violations.append(Violation("UndeclaredSymbol", f"{where}.from"))
        if to not in states:
            violations.append(Violation("UndeclaredSymbol", f"{where}.to"))
        if top not in stack_alphabet:
            violations.append(Violation("UndeclaredSymbol", f"{where}.top"))
        for s in push:
            if s not in stack_alphabet:
                violations.append(Violation("UndeclaredSymbol", f"{where}.push {s!r}"))
        if label != EPSILON and label not in input_alphabet:
            violations.append(Violation("UndeclaredSymbol", f"{where}.label"))
        if label == EPSILON and push:
            violations.append(Violation("NonPoppingEpsilon", f"{frm} {top} -ε-> {to} pushes"))
        rules.append(Rule(frm, top, label, to, push))

    # Determinism: at most one rule per (p, X, a); ε excludes visible rules.
    seen: set[tuple[str, str, str]] = set()
    duplicates: set[tuple[str, str, str]] = set()
    eps_at: set[tuple[str, str]] = set()
    visible_at: set[tuple[str, str]] = set()
    for p, x, a, _, _ in rules:
        key = (p, x, a)
        (duplicates if key in seen else seen).add(key)
        (eps_at if a == EPSILON else visible_at).add((p, x))
    for p, x, a in sorted(duplicates):
        label = a if a != EPSILON else "ε"
        violations.append(Violation("DuplicateRule", f"({p}, {x}, {label})"))
    for p, x in sorted(eps_at & visible_at):
        violations.append(Violation("EpsilonVisibleConflict", f"({p}, {x})"))

    if violations:
        raise InvalidMachineError(violations)
    return Dpda(
        states=states,
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        rules=tuple(rules),
        start_state=candidate["start_state"],
        start_symbol=candidate["start_symbol"],
        accepting=accepting,
    )


def dpda_to_document(m: Dpda) -> dict:
    """Export a machine in the documented JSON shape (sorted, reproducible)."""
    return {
        "states": sorted(m.states),
        "input_alphabet": sorted(m.input_alphabet),
        "stack_alphabet": sorted(m.stack_alphabet),
        "rules": [
            {
                "from": r.from_state,
                "top": r.top,
                "label": r.label,
                "to": r.to_state,
                "push": list(r.push),
            }
            for r in m.rules
        ],
        "start_state": m.start_state,
        "start_symbol": m.start_symbol,
        "accepting": sorted(m.accepting),
    }


def _read_json(path: str):
    """The JSON document in the file at `path`.

    A document nested too deeply for the parser raises ValueError, like any
    other malformed document, rather than RecursionError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON document nested too deeply") from None


def load_dpda(path: str) -> Dpda:
    return validate_dpda(_read_json(path))


def _fresh(base: str, taken: frozenset[str]) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _drive(m: Dpda, state: str, stack: list[str], word: Word) -> tuple[str, bool, int]:
    """The one stepping loop, over `m.step_table`: ε-close, then read
    `word` letter by letter, ε-closing after each letter.  A letter costs
    one lookup; the next move is looked up by (state, top) only after a pop.

    `stack` holds the top last and is updated in place.  Returns the final
    state, whether an accepting state was seen since the last consumed
    letter (for the empty word: on the closure of the given state), and how
    many letters were consumed; fewer than len(word) means the run got
    stuck.  ε-steps pop one symbol each, so every closure is finite, and
    the stable stack after a letter is the lowest one since that letter's
    own step.
    """
    table = m.step_table
    accepting = m.accepting
    acc = state in accepting
    move = table.get(state, _STUCK).get(stack[-1], _STUCK) if stack else _STUCK
    while type(move) is str:
        state = move
        stack.pop()
        acc = acc or state in accepting
        move = table.get(state, _STUCK).get(stack[-1], _STUCK) if stack else _STUCK
    consumed = 0
    for a in word:
        hit = move.get(a)
        if hit is None:
            break
        state, pushed, acc, move = hit
        stack[-1:] = pushed
        consumed += 1
        if move is None:
            move = table.get(state, _STUCK).get(stack[-1], _STUCK) if stack else _STUCK
        while type(move) is str:
            state = move
            stack.pop()
            acc = acc or state in accepting
            move = table.get(state, _STUCK).get(stack[-1], _STUCK) if stack else _STUCK
    return state, acc, consumed


def complete_dpda(m: Dpda) -> Dpda:
    """Return a machine that reads every input word in full.

    A fresh bottom symbol is kept below the original start symbol and a
    fresh non-accepting fail state absorbs every configuration that would
    otherwise be stuck.  The accepted language is unchanged (stuck runs of
    the original machine reject).  Because ε-rules may not push, the new
    start configuration carries only the bottom symbol and the first visible
    step jumps directly to the simulated configuration.  Only the rule list
    is read; `m.step_table` is never compiled.
    """
    bot = _fresh("⊥", m.stack_alphabet)
    fail = _fresh("fail", m.states)
    init = _fresh("init", m.states | {fail})

    rules = list(m.rules)
    states = set(m.states) | {fail, init}
    stack_alphabet = set(m.stack_alphabet) | {bot}
    accepting = set(m.accepting)
    sigma = sorted(m.input_alphabet)
    eps: dict[tuple[str, str], str] = {}  # (state, top) -> target of its ε-rule
    visible: dict[tuple[str, str], dict] = {}  # (state, top) -> letter -> (target, push)
    for p, x, a, q, push in rules:
        if a == EPSILON:
            eps[p, x] = q
        else:
            visible.setdefault((p, x), {})[a] = (q, push)

    # ε-closure of the conceptual start q0 X0 ⊥: ⊥ has no rules, so at
    # most X0 is popped.
    state, stack = m.start_state, (m.start_symbol, bot)
    if (state, stack[0]) in eps:
        state, stack = eps[state, stack[0]], stack[1:]
    if {m.start_state, state} & m.accepting:
        accepting.add(init)
    letters = visible.get((state, stack[0]), {})
    for a in sigma:
        if a in letters:
            q, push = letters[a]
            rules.append(Rule(init, bot, a, q, push + stack[1:]))
        else:
            rules.append(Rule(init, bot, a, fail, (bot,)))

    # Route every remaining stuck (state, top, symbol) hole to the fail state.
    for q in sorted(states - {init}):
        for x in sorted(stack_alphabet):
            if (q, x) in eps:
                continue  # an ε-rule applies
            letters = visible.get((q, x), {})
            for a in sigma:
                if a not in letters:
                    rules.append(Rule(q, x, a, fail, (x,)))

    return Dpda(
        states=frozenset(states),
        input_alphabet=m.input_alphabet,
        stack_alphabet=frozenset(stack_alphabet),
        rules=tuple(rules),
        start_state=init,
        start_symbol=bot,
        accepting=frozenset(accepting),
        completed=True,
    )


_BLOCK = 32  # letters per block of a long word read by `member`
_WINDOW = 48  # top stack symbols that key a block's memoised run
_SHORT = 8 * _BLOCK  # `member` reads a shorter word in one `_drive` run


def member(m: Dpda, word: Word) -> bool:
    """Membership of `word` in the language of a completed machine.

    `word` is accepted iff some configuration reached by reading exactly
    `word` (the one right after the last visible step, or any on its
    trailing ε-chain) has an accepting state.  Raises StuckError, at the
    position of the first unread letter, on a machine that was not
    completed when no rule applies.

    A word shorter than `_SHORT` rarely repeats a block, so it is read in
    one `_drive` run.  A longer one is read in blocks of `_BLOCK` letters,
    and a block string seen before in the word is looked up by (state, the
    top `_WINDOW` stack symbols) in a memo that lives for this call.  On a
    miss the block runs on a copy of that window; the run is kept only if
    it read the whole block and left the window nonempty, because then it
    never read below the window and replacing the window by its result is
    its exact effect on any stack with that top.  The last kept run of
    each (block, state) is tried first, by comparing its window with the
    top of the stack, which spares building and hashing the key.  Every
    other block, and each first sighting of a block string, runs on the
    real stack, so verdicts and StuckError positions are those of one
    `_drive` run over the whole word.
    """
    state, stack = m.start_state, [m.start_symbol]
    if len(word) < _SHORT:
        _, acc, consumed = _drive(m, state, stack, word)
        if consumed < len(word):
            raise StuckError(consumed)
        return acc
    memo: dict[str, dict] = {}  # block -> (state, *window) -> (state, acc, window) or ()
    last: dict[tuple, tuple] = {}  # (block, state) -> (window, state, acc, window)
    for i in range(0, len(word), _BLOCK):
        block = word[i : i + _BLOCK]
        hit = last.get((block, state))
        if hit is not None and stack[-_WINDOW:] == hit[0]:
            _, state, acc, stack[-_WINDOW:] = hit
            continue
        runs = memo.get(block)
        if runs is None:
            memo[block] = {}
        else:
            key = (state, *stack[-_WINDOW:])
            hit = runs.get(key)
            if hit is None:
                window = stack[-_WINDOW:]
                end, acc, consumed = _drive(m, state, window, block)
                whole = consumed == len(block) and window
                hit = runs[key] = (end, acc, window) if whole else ()
            if hit:
                last[block, state] = (stack[-_WINDOW:], *hit)
                state, acc, stack[-_WINDOW:] = hit
                continue
        state, acc, consumed = _drive(m, state, stack, block)
        if consumed < len(block):
            raise StuckError(i + consumed)
    return acc


def advance(m: Dpda, c: Configuration, word: Word) -> Optional[tuple[Configuration, bool]]:
    """Run `word` from configuration c (ε-closing first).

    Returns the stable configuration together with the accepting-seen flag
    for the last consumed symbol (for the empty word: the closure of c
    itself), or None when the run gets stuck, which on a completed machine
    can only happen from a configuration whose stack runs empty.
    """
    stack = list(reversed(c.stack))
    state, acc, consumed = _drive(m, c.state, stack, word)
    if consumed < len(word):
        return None
    return Configuration(state, tuple(reversed(stack))), acc


def config_member(m: Dpda, c: Configuration, word: Word) -> bool:
    """Membership of `word` in L(c), the language of configuration c.

    A run that strands (empty stack mid-word) rejects; in particular an
    empty-stack configuration accepts nothing but possibly ε.
    """
    _, acc, consumed = _drive(m, c.state, list(reversed(c.stack)), word)
    return acc and consumed == len(word)
