"""Machine documents the benchmark builds itself: the modular-counter
family and the seeded random-DPDA suite."""

from __future__ import annotations

import random

COUNTER_KS = (1, 2, 3, 5, 8, 13)

# The random suite: ROADMAP shape (2-6 states, 2-4 stack symbols, 2-3
# letters), 60 machines drawn from generator seed 1.
SUITE_SEED = 1
SUITE_SIZE = 60


def _rule(p, top, label, q, push=()):
    return {"from": p, "top": top, "label": label, "to": q, "push": list(push)}


def counter_doc(k: int) -> dict:
    """DPDA document for 0^n 1^n with n >= 1 and n divisible by k.

    State c<i> reads zeros with i = (zeros read) mod k, pushing one A per
    zero above a bottom marker A0; ones are accepted only from c0 and pop
    one symbol each; popping A0 lands in the accepting state f.
    """
    states = [f"c{i}" for i in range(k)] + ["s", "p", "f"]
    rules = [_rule("s", "X0", "0", f"c{1 % k}", ["A0", "X0"])]
    for i in range(k):
        nxt = f"c{(i + 1) % k}"
        rules.append(_rule(f"c{i}", "A0", "0", nxt, ["A", "A0"]))
        rules.append(_rule(f"c{i}", "A", "0", nxt, ["A", "A"]))
    rules += [
        _rule("c0", "A", "1", "p"),
        _rule("c0", "A0", "1", "f"),
        _rule("p", "A", "1", "p"),
        _rule("p", "A0", "1", "f"),
    ]
    return {
        "states": states,
        "input_alphabet": ["0", "1"],
        "stack_alphabet": ["X0", "A0", "A"],
        "rules": rules,
        "start_state": "s",
        "start_symbol": "X0",
        "accepting": ["f"],
    }


def random_doc(rng: random.Random) -> dict:
    """One random deterministic machine.

    Each (state, top) pair gets, with probability 0.15, a popping ε-rule;
    otherwise each letter gets, with probability 0.8, a visible rule that
    pushes 0, 1 or 2 symbols (weights 3:4:3) and moves to a random state.
    """
    states = [f"q{i}" for i in range(rng.randint(2, 6))]
    stack = [f"Z{i}" for i in range(rng.randint(2, 4))]
    letters = "abc"[: rng.randint(2, 3)]
    rules = []
    for p in states:
        for top in stack:
            if rng.random() < 0.15:
                rules.append(_rule(p, top, "", rng.choice(states)))
                continue
            for a in letters:
                if rng.random() < 0.8:
                    k = rng.choices([0, 1, 2], weights=[3, 4, 3])[0]
                    push = [rng.choice(stack) for _ in range(k)]
                    rules.append(_rule(p, top, a, rng.choice(states), push))
    accepting = [q for q in states if rng.random() < 0.4] or [rng.choice(states)]
    return {
        "states": states,
        "input_alphabet": list(letters),
        "stack_alphabet": stack,
        "rules": rules,
        "start_state": states[0],
        "start_symbol": stack[0],
        "accepting": accepting,
    }


def random_suite(suite_seed: int = SUITE_SEED) -> list[dict]:
    rng = random.Random(suite_seed)
    return [random_doc(rng) for _ in range(SUITE_SIZE)]


def _order_preserving_names(rng: random.Random, old: list[str], prefix: str) -> dict[str, str]:
    tokens = sorted(rng.sample(range(10**6), len(old)))
    return {o: f"{prefix}{t:06d}" for o, t in zip(sorted(old), tokens)}


def rename(doc: dict, seed: int) -> dict:
    """A copy of `doc` whose states and stack symbols carry fresh names
    drawn from `seed`.

    The renaming keeps the sort order of names (every sorted walk in the
    program meets the symbols in the same order), and letters are kept,
    so the copy is searched exactly like the original: seeds change the
    input, not the work it costs.
    """
    rng = random.Random(seed)
    sm = _order_preserving_names(rng, doc["states"], "q")
    zm = _order_preserving_names(rng, doc["stack_alphabet"], "Z")
    return {
        "states": [sm[q] for q in doc["states"]],
        "input_alphabet": list(doc["input_alphabet"]),
        "stack_alphabet": [zm[z] for z in doc["stack_alphabet"]],
        "rules": [
            _rule(sm[r["from"]], zm[r["top"]], r["label"], sm[r["to"]], [zm[z] for z in r["push"]])
            for r in doc["rules"]
        ],
        "start_state": sm[doc["start_state"]],
        "start_symbol": zm[doc["start_symbol"]],
        "accepting": [sm[q] for q in doc["accepting"]],
    }
