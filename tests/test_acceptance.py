"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them) and enforces the stated time budget where one is given.  Everything
is exact: no tolerances beyond the explicit word-length and bound limits.
"""

import copy
import time
from contextlib import contextmanager
from itertools import product

import pytest

from dcflab import corpus
from dcflab.analysis import periodicity, pop_summaries
from dcflab.dpda import Configuration, advance, config_member
from dcflab.mealy import (
    LanguageOracle,
    complement_machine,
    compose,
    evaluate,
    identity_machine,
    oracle_from_machine,
    refute_simplicity_LR,
    restrict_regular,
)
from dcflab.witness import (
    WitnessTuple,
    build_lsharp_reducer,
    find_witness,
    reduce_lsharp,
    verify_witness,
)

import bruteforce as bf
from test_analysis import pop_witnesses
from test_mealy import (
    copier_machine,
    even_length_dfa,
    length_counter_machine,
    lr_predicate,
    silent_machine,
)


@contextmanager
def criterion(num, description, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        print(f"[FAIL] criterion {num}: {description} ({elapsed:.2f}s over {budget}s budget)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"[PASS] criterion {num}: {description} ({elapsed:.2f}s)")


MINIMAL_TUPLE = WitnessTuple(v="", x="0", w="", y="1", z="", polarity="direct")

WITNESS_ENTRIES = ["lsharp", "l1_le", "dyck1"]


def test_criterion_1_single_pair_witness_reproduction():
    with criterion(1, "single-query-pair witness verifies on l1_le at (25, 25)", budget=1.0):
        oracle = corpus.oracle_of(corpus.get_entry("l1_le"))
        report = verify_witness(oracle, MINIMAL_TUPLE, 25, 25)
        assert report.passed
        assert report.counterexamples == ()


def test_criterion_2_extraction_end_to_end():
    with criterion(2, "witness extraction verified on lsharp, l1_le, dyck1 (10s each)"):
        for name in WITNESS_ENTRIES:
            entry = corpus.get_entry(name)
            m = copy.copy(entry.machine)  # no earlier test's outcome is kept on a copy
            t0 = time.perf_counter()
            t = find_witness(m)
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"{name} took {elapsed:.2f}s"
            report = verify_witness(corpus.oracle_of(entry), t, 25, 25)
            assert report.passed, (name, t)


def test_criterion_3_reducer_faithfulness():
    with criterion(3, "reducers agree with the 0^n1^n predicate on 131071 words (5s each)"):
        for name in WITNESS_ENTRIES:
            entry = corpus.get_entry(name)
            m = copy.copy(entry.machine)  # no earlier test's outcome is kept on a copy
            t0 = time.perf_counter()
            _, _, report = reduce_lsharp(m, check_len=16)
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"
            assert report.passed
            assert report.words_checked == 2**17 - 1, name


def test_criterion_4_composition_equals_sequential_evaluation():
    with criterion(4, "composition equals sequential evaluation on two pairs, words <= 8"):
        l1 = corpus.oracle_of(corpus.get_entry("l1_le"))
        reducer = build_lsharp_reducer(MINIMAL_TUPLE, "01")
        ident = identity_machine("01")
        pairs = [(reducer, ident), (ident, reducer)]
        for a1, a2 in pairs:
            composed = compose(a1, a2)
            middle = oracle_from_machine(a2, l1)
            for w in bf.iter_words("01", 8):
                assert evaluate(composed, l1, w) == evaluate(a1, middle, w), (w,)


def test_criterion_5_saturation_matches_brute_force():
    with criterion(5, "down-state saturation equals BFS on all stacks of height <= 3"):
        for name in corpus.names():
            m = corpus.get_entry(name).machine
            s = pop_summaries(m)
            symbols = sorted(m.stack_alphabet)
            for state in sorted(m.states):
                for height in range(4):
                    for stack in product(symbols, repeat=height):
                        down = frozenset(pop_witnesses(s, state, stack))
                        assert down == bf.bfs_pop_states(m, state, stack, 12), (
                            name,
                            state,
                            stack,
                        )
                        end, _ = advance(m, Configuration(state, stack), "")
                        eps_end = None if end.stack else end.state
                        assert eps_end == bf.eps_pop_end(m, state, stack), (
                            name,
                            state,
                            stack,
                        )


def _periodicity_triples(entry):
    sigma = sorted(entry.machine.input_alphabet)
    a0 = sigma[0]
    a1 = sigma[1] if len(sigma) > 1 else sigma[0]
    return [("", a0, ""), (a0, a0, a1), (a0 * 2, a1, a0)]


def test_criterion_6_periodicity_reverified_independently():
    with criterion(6, "periodicity reports re-verified by full re-simulation, 3 triples/entry"):
        for name in corpus.names():
            entry = corpus.get_entry(name)
            m = entry.machine
            triples = _periodicity_triples(entry)
            assert len(triples) >= 3
            for prefix, y, z in triples:
                base = advance(m, m.start_configuration(), prefix)[0]
                report = periodicity(m, base, y, z)
                for l in range(report.k, report.k + 3 * report.period + 1):
                    fresh = config_member(m, base, y * l + z)
                    assert fresh == report.table[l % report.period], (name, prefix, y, z, l)


def test_criterion_7_complement_and_regular_restriction():
    with criterion(7, "complement is pointwise negation/involution; restriction is conjunction"):
        l_sharp = corpus.oracle_of(corpus.get_entry("lsharp"))
        l1 = corpus.oracle_of(corpus.get_entry("l1_le"))
        machines = [
            (identity_machine("01"), l_sharp),
            (build_lsharp_reducer(MINIMAL_TUPLE, "01"), l1),
        ]
        dfa = even_length_dfa()
        for machine, oracle in machines:
            comp = complement_machine(machine)
            twice = complement_machine(comp)
            restricted = restrict_regular(machine, dfa)
            for w in bf.iter_words("01", 10):
                plain = evaluate(machine, oracle, w)
                assert evaluate(comp, oracle, w) == (not plain), w
                assert evaluate(twice, oracle, w) == plain, w
                assert evaluate(restricted, oracle, w) == (plain and len(w) % 2 == 0), w


def test_criterion_8_marked_palindrome_refutation():
    with criterion(8, "three candidate machines refuted with k <= 6 (2s each)"):
        lsharp_pred = corpus.get_entry("lsharp").predicate
        for build in (copier_machine, silent_machine, length_counter_machine):
            machine = build()
            t0 = time.perf_counter()
            word = refute_simplicity_LR(machine, k_max=6)
            elapsed = time.perf_counter() - t0
            assert elapsed < 2.0, f"{build.__name__} took {elapsed:.2f}s"
            assert word is not None, build.__name__
            left = word[: word.index("c")]
            assert 1 <= len(left) <= 6
            oracle = LanguageOracle(machine.oracle_alphabet, lsharp_pred)
            assert evaluate(machine, oracle, word) != lr_predicate(word), word


def test_criterion_9_machine_predicate_agreement():
    with criterion(9, "corpus machines agree with predicates on all words <= 14", budget=30.0):
        expected = {2: 32767, 3: 7174453}
        for name in corpus.names():
            entry = corpus.get_entry(name)
            mismatch, checked = bf.sweep_agreement(entry.machine, entry.predicate, 14)
            assert mismatch is None, (name, mismatch)
            assert checked == expected[len(entry.machine.input_alphabet)], name
