"""Built-in languages: machines paired with independent direct predicates.

Every entry carries both a completed DPDA and a plain string predicate for
the same language.  The predicate is the ground truth; the machine is an
implementation detail certified against it (the test suite sweeps all words
up to length 14).  Oracles built from entries wrap the predicate, never the
machine, so machine bugs cannot mask verification failures downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Callable

from .dpda import Dpda, complete_dpda, dpda_to_document, validate_dpda
from .mealy import LanguageOracle


class UnknownNameError(KeyError):
    """No corpus entry under the requested name."""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    machine: Dpda
    predicate: Callable[[str], bool]
    notes: str


def _machine(doc: dict) -> Dpda:
    return complete_dpda(validate_dpda(doc))


def _rule(from_state, top, label, to_state, push=()) -> dict:
    return {
        "from": from_state,
        "top": top,
        "label": label,
        "to": to_state,
        "push": list(push),
    }


# --- predicates -----------------------------------------------------------


def is_lsharp(w: str) -> bool:
    """0^n 1^n with n >= 1."""
    n = len(w) // 2
    return n >= 1 and w == "0" * n + "1" * n


def is_lsharp_prefix(w: str) -> bool:
    """Whether some extension of w, w itself included, lies in 0^n 1^n."""
    zeros = len(w) - len(w.lstrip("0"))
    ones = len(w) - zeros
    return ones <= zeros and w[zeros:] == "1" * ones


def is_l1_le(w: str) -> bool:
    """0^m 1^n with 1 <= m <= n."""
    m = len(w) - len(w.lstrip("0"))
    rest = w[m:]
    return 1 <= m <= len(rest) and rest == "1" * len(rest)


def is_dyck1(w: str) -> bool:
    """Balanced words over ( and ), including the empty word."""
    depth = 0
    for ch in w:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def is_lr(w: str) -> bool:
    """w c w^R for w over {a, b}."""
    i = w.find("c")
    if i < 0 or w.find("c", i + 1) >= 0:
        return False
    left, right = w[:i], w[i + 1 :]
    return left == right[::-1] and set(left) <= {"a", "b"}


def _runs(w: str) -> list[tuple[str, int]]:
    """The maximal runs of equal letters in `w`, as (letter, length) pairs."""
    return [(ch, len(list(g))) for ch, g in groupby(w)]


def is_l_mm_n(w: str) -> bool:
    """0^m 1^m 0^n with m, n >= 1."""
    r = _runs(w)
    return (
        len(r) == 3
        and r[0][0] == "0"
        and r[1][0] == "1"
        and r[2][0] == "0"
        and r[0][1] == r[1][1]
    )


def is_l_m_nn(w: str) -> bool:
    """0^m 1^n 0^n with m, n >= 1."""
    r = _runs(w)
    return (
        len(r) == 3
        and r[0][0] == "0"
        and r[1][0] == "1"
        and r[2][0] == "0"
        and r[1][1] == r[2][1]
    )


def is_lsharp_squared(w: str) -> bool:
    """0^a 1^a 0^b 1^b with a, b >= 1 (the two-block concatenation)."""
    r = _runs(w)
    return (
        len(r) == 4
        and [c for c, _ in r] == ["0", "1", "0", "1"]
        and r[0][1] == r[1][1]
        and r[2][1] == r[3][1]
    )


def is_even_length(w: str) -> bool:
    return len(w) % 2 == 0 and set(w) <= {"0", "1"}


# --- machines -------------------------------------------------------------


def _lsharp_doc() -> dict:
    return {
        "states": ["q0", "q1", "qf"],
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0", "A0", "A"],
        "rules": [
            _rule("q0", "X0", "0", "q0", ["A0", "X0"]),
            _rule("q0", "A0", "0", "q0", ["A", "A0"]),
            _rule("q0", "A", "0", "q0", ["A", "A"]),
            _rule("q0", "A0", "1", "qf"),
            _rule("q0", "A", "1", "q1"),
            _rule("q1", "A", "1", "q1"),
            _rule("q1", "A0", "1", "qf"),
        ],
        "start_state": "q0",
        "start_symbol": "X0",
        "accepting": ["qf"],
    }


def _l1_le_doc() -> dict:
    return {
        "states": ["q0", "q1", "qge"],
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0", "A0", "A"],
        "rules": [
            _rule("q0", "X0", "0", "q0", ["A0", "X0"]),
            _rule("q0", "A0", "0", "q0", ["A", "A0"]),
            _rule("q0", "A", "0", "q0", ["A", "A"]),
            _rule("q0", "A0", "1", "qge"),
            _rule("q0", "A", "1", "q1"),
            _rule("q1", "A", "1", "q1"),
            _rule("q1", "A0", "1", "qge"),
            _rule("qge", "X0", "1", "qge", ["X0"]),
        ],
        "start_state": "q0",
        "start_symbol": "X0",
        "accepting": ["qge"],
    }


def _dyck1_doc() -> dict:
    return {
        "states": ["s", "t"],
        "input_alphabet": ["(", ")"],
        "stack_alphabet": ["X0", "P0", "P"],
        "rules": [
            _rule("s", "X0", "(", "t", ["P0", "X0"]),
            _rule("t", "P0", "(", "t", ["P", "P0"]),
            _rule("t", "P", "(", "t", ["P", "P"]),
            _rule("t", "P", ")", "t"),
            _rule("t", "P0", ")", "s"),
        ],
        "start_state": "s",
        "start_symbol": "X0",
        "accepting": ["s"],
    }


def _lr_doc() -> dict:
    return {
        "states": ["q0", "r", "qf"],
        "input_alphabet": ["a", "b", "c"],
        "stack_alphabet": ["X0", "A0", "A", "B0", "B"],
        "rules": [
            _rule("q0", "X0", "a", "q0", ["A0", "X0"]),
            _rule("q0", "X0", "b", "q0", ["B0", "X0"]),
            _rule("q0", "X0", "c", "qf", ["X0"]),
            _rule("q0", "A0", "a", "q0", ["A", "A0"]),
            _rule("q0", "A0", "b", "q0", ["B", "A0"]),
            _rule("q0", "A0", "c", "r", ["A0"]),
            _rule("q0", "A", "a", "q0", ["A", "A"]),
            _rule("q0", "A", "b", "q0", ["B", "A"]),
            _rule("q0", "A", "c", "r", ["A"]),
            _rule("q0", "B0", "a", "q0", ["A", "B0"]),
            _rule("q0", "B0", "b", "q0", ["B", "B0"]),
            _rule("q0", "B0", "c", "r", ["B0"]),
            _rule("q0", "B", "a", "q0", ["A", "B"]),
            _rule("q0", "B", "b", "q0", ["B", "B"]),
            _rule("q0", "B", "c", "r", ["B"]),
            _rule("r", "A", "a", "r"),
            _rule("r", "B", "b", "r"),
            _rule("r", "A0", "a", "qf"),
            _rule("r", "B0", "b", "qf"),
        ],
        "start_state": "q0",
        "start_symbol": "X0",
        "accepting": ["qf"],
    }


def _l_mm_n_doc() -> dict:
    return {
        "states": ["q0", "q1", "u", "uf"],
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0", "A0", "A"],
        "rules": [
            _rule("q0", "X0", "0", "q0", ["A0", "X0"]),
            _rule("q0", "A0", "0", "q0", ["A", "A0"]),
            _rule("q0", "A", "0", "q0", ["A", "A"]),
            _rule("q0", "A0", "1", "u"),
            _rule("q0", "A", "1", "q1"),
            _rule("q1", "A", "1", "q1"),
            _rule("q1", "A0", "1", "u"),
            _rule("u", "X0", "0", "uf", ["X0"]),
            _rule("uf", "X0", "0", "uf", ["X0"]),
        ],
        "start_state": "q0",
        "start_symbol": "X0",
        "accepting": ["uf"],
    }


def _l_m_nn_doc() -> dict:
    return {
        "states": ["q0", "qa", "qb", "qc", "qf"],
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0", "I0", "I"],
        "rules": [
            _rule("q0", "X0", "0", "qa", ["X0"]),
            _rule("qa", "X0", "0", "qa", ["X0"]),
            _rule("qa", "X0", "1", "qb", ["I0", "X0"]),
            _rule("qb", "I0", "1", "qb", ["I", "I0"]),
            _rule("qb", "I", "1", "qb", ["I", "I"]),
            _rule("qb", "I", "0", "qc"),
            _rule("qb", "I0", "0", "qf"),
            _rule("qc", "I", "0", "qc"),
            _rule("qc", "I0", "0", "qf"),
        ],
        "start_state": "q0",
        "start_symbol": "X0",
        "accepting": ["qf"],
    }


def _lsharp_squared_doc() -> dict:
    return {
        "states": ["q0", "q1", "qf", "p0", "p1", "pf"],
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0", "A0", "A", "B0", "B"],
        "rules": [
            _rule("q0", "X0", "0", "q0", ["A0", "X0"]),
            _rule("q0", "A0", "0", "q0", ["A", "A0"]),
            _rule("q0", "A", "0", "q0", ["A", "A"]),
            _rule("q0", "A0", "1", "qf"),
            _rule("q0", "A", "1", "q1"),
            _rule("q1", "A", "1", "q1"),
            _rule("q1", "A0", "1", "qf"),
            _rule("qf", "X0", "0", "p0", ["B0", "X0"]),
            _rule("p0", "B0", "0", "p0", ["B", "B0"]),
            _rule("p0", "B", "0", "p0", ["B", "B"]),
            _rule("p0", "B0", "1", "pf"),
            _rule("p0", "B", "1", "p1"),
            _rule("p1", "B", "1", "p1"),
            _rule("p1", "B0", "1", "pf"),
        ],
        "start_state": "q0",
        "start_symbol": "X0",
        "accepting": ["pf"],
    }


def _even_length_doc() -> dict:
    return {
        "states": ["e", "o"],
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0"],
        "rules": [
            _rule("e", "X0", "0", "o", ["X0"]),
            _rule("e", "X0", "1", "o", ["X0"]),
            _rule("o", "X0", "0", "e", ["X0"]),
            _rule("o", "X0", "1", "e", ["X0"]),
        ],
        "start_state": "e",
        "start_symbol": "X0",
        "accepting": ["e"],
    }


_ENTRIES: dict[str, tuple[Callable[[], dict], Callable[[str], bool], str]] = {
    "lsharp": (_lsharp_doc, is_lsharp, "0^n 1^n with n >= 1; the canonical counting language"),
    "l1_le": (_l1_le_doc, is_l1_le, "0^m 1^n with 1 <= m <= n"),
    "dyck1": (_dyck1_doc, is_dyck1, "balanced parentheses over one bracket pair"),
    "lr": (_lr_doc, is_lr, "marked palindromes w c w^R over {a, b}"),
    "l_mm_n": (_l_mm_n_doc, is_l_mm_n, "0^m 1^m 0^n with m, n >= 1"),
    "l_m_nn": (_l_m_nn_doc, is_l_m_nn, "0^m 1^n 0^n with m, n >= 1"),
    "lsharp_squared": (
        _lsharp_squared_doc,
        is_lsharp_squared,
        "two 0^k 1^k blocks in a row: the square of the counting language",
    ),
    "even_length_reg": (_even_length_doc, is_even_length, "regular: binary words of even length"),
}


def names() -> list[str]:
    return sorted(_ENTRIES)


@lru_cache(maxsize=None)
def get_entry(name: str) -> CorpusEntry:
    """Return the named entry with its machine validated and completed."""
    try:
        doc_fn, predicate, notes = _ENTRIES[name]
    except KeyError:
        raise UnknownNameError(name) from None
    return CorpusEntry(name=name, machine=_machine(doc_fn()), predicate=predicate, notes=notes)


def oracle_of(entry: CorpusEntry) -> LanguageOracle:
    """Oracle over the entry's direct predicate (never the machine)."""
    return LanguageOracle(
        alphabet=entry.machine.input_alphabet,
        membership=entry.predicate,
        name=entry.name,
    )


def entry_document(entry: CorpusEntry) -> dict:
    """The entry's machine in the interchange JSON shape."""
    return dpda_to_document(entry.machine)
