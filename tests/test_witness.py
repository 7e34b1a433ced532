import json
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from dcflab import analysis, corpus, dpda, mealy, witness
from dcflab.dpda import complete_dpda, validate_dpda
from dcflab.mealy import LanguageOracle, TruthTable, evaluate, oracle_from_dpda, transduce
from dcflab.witness import (
    AgreementFailureError,
    AgreementReport,
    SearchBudgets,
    SearchExhaustedError,
    WitnessTuple,
    _check_reducer_agreement,
    build_lsharp_reducer,
    find_witness,
    reduce_lsharp,
    repair_nonempty,
    verify_witness,
)

import bruteforce as bf
from test_dpda import SMALL_MACHINES, random_eps_machine

# Each SMALL_MACHINES id's find_witness outcome at default budgets: the
# tuple's JSON object, or "exhausted:<stage>".  Runs under PYTHONHASHSEED=0
# and =1 write the same file.
OUTCOMES = Path(__file__).parent / "data" / "witness_outcomes.json"


def oracle(name):
    return corpus.oracle_of(corpus.get_entry(name))


def string_prefixes(o):
    """The same language read from string-prefix positions."""
    return LanguageOracle(o.alphabet, o.membership)


MINIMAL_TUPLE = WitnessTuple(v="", x="0", w="", y="1", z="", polarity="direct")


class TestWitnessTuple:
    def test_x_and_y_must_be_nonempty(self):
        with pytest.raises(ValueError):
            WitnessTuple(v="", x="", w="", y="1", z="", polarity="direct")
        with pytest.raises(ValueError):
            WitnessTuple(v="", x="0", w="", y="", z="", polarity="direct")

    def test_polarity_checked(self):
        with pytest.raises(ValueError):
            WitnessTuple(v="", x="0", w="", y="1", z="", polarity="maybe")

    def test_json_round_trip(self):
        doc = MINIMAL_TUPLE.to_json_dict()
        assert WitnessTuple.from_json_dict(doc) == MINIMAL_TUPLE


class TestVerifyWitness:
    def test_single_query_pair_tuple_on_l1(self):
        report = verify_witness(oracle("l1_le"), MINIMAL_TUPLE, 10, 10)
        assert report.passed
        assert report.counterexamples == ()

    def test_same_words_on_lsharp(self):
        # derived by enumeration against the 0^n 1^n predicate
        report = verify_witness(oracle("lsharp"), MINIMAL_TUPLE, 10, 10)
        assert report.passed

    def test_grid_matches_direct_enumeration(self):
        pred = corpus.get_entry("l1_le").predicate
        t = MINIMAL_TUPLE
        for m in range(8):
            for n in range(1, 8):
                left = pred(t.v + t.x * m + t.w + t.y * (n - 1) + t.z)
                right = pred(t.v + t.x * m + t.w + t.y * n + t.z)
                assert ((not left) and right) == (m == n), (m, n)

    def test_flipped_polarity_fails_with_counterexample(self):
        flipped = WitnessTuple(v="", x="0", w="", y="1", z="", polarity="complement")
        report = verify_witness(oracle("l1_le"), flipped, 10, 10)
        assert not report.passed
        m, n, left, right = report.counterexamples[0]
        assert (m, n) <= (2, 2)

    def test_verifier_is_deterministic(self):
        first = verify_witness(oracle("l1_le"), MINIMAL_TUPLE, 12, 12)
        second = verify_witness(oracle("l1_le"), MINIMAL_TUPLE, 12, 12)
        assert first == second

    def test_report_records_answers(self):
        flipped = WitnessTuple(v="", x="0", w="", y="1", z="", polarity="complement")
        pred = corpus.get_entry("l1_le").predicate
        report = verify_witness(oracle("l1_le"), flipped, 6, 6)
        for m, n, left, right in report.counterexamples:
            assert left == (not pred("0" * m + "1" * (n - 1)))
            assert right == (not pred("0" * m + "1" * n))

    @pytest.mark.parametrize("m_bound, n_bound", [(-1, 25), (0, 25), (25, 0), (25, -3)])
    def test_bounds_below_one_raise(self, m_bound, n_bound):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            verify_witness(oracle("lsharp"), MINIMAL_TUPLE, m_bound, n_bound)


GRID_WORDS = ("", "0", "1", "00", "01", "10")


class TestResumableGrid:
    @pytest.mark.parametrize(
        "raw",
        [bf.EPS_CHAIN_RAW, bf.LSHARP_EPS_RAW, bf.LSHARP_RAW],
        ids=["eps_chain", "lsharp_eps", "lsharp"],
    )
    def test_machine_positions_give_the_string_grid(self, raw):
        # 3,888 tuples per machine; empty w and z step and accept by "".
        resumable = oracle_from_dpda(validate_dpda(raw))
        strings = LanguageOracle(resumable.alphabet, resumable.membership)
        for v, w, z in product(GRID_WORDS, repeat=3):
            for x, y, polarity in product(("0", "1", "01"), ("0", "1", "10"), ("direct", "complement")):
                t = WitnessTuple(v=v, x=x, w=w, y=y, z=z, polarity=polarity)
                assert verify_witness(resumable, t, 5, 5) == verify_witness(strings, t, 5, 5), t

    def test_empty_step_keeps_acceptance_seen_inside_an_eps_chain(self):
        # After "001" the run rests in the non-accepting `done`, having
        # accepted only in `hit` inside the ε-chain.
        o = oracle_from_dpda(validate_dpda(bf.EPS_CHAIN_RAW))
        position = o.step(o.start(), "001")
        assert o.step(position, "") == position
        assert o.accepts(position, "")
        t = WitnessTuple(v="00", x="1", w="", y="1", z="", polarity="complement")
        strings = LanguageOracle(o.alphabet, o.membership)
        assert verify_witness(o, t, 25, 25) == verify_witness(strings, t, 25, 25)

    @pytest.mark.parametrize("form", ["raw", "completed"])
    @pytest.mark.parametrize("seed", range(30))
    def test_random_machines_give_the_string_grid(self, seed, form):
        # Most drawn tuples fail, and on most of them rows meet the row
        # above; a found tuple passes, and its flipped polarity fails.
        raw = random_eps_machine(random.Random(seed))
        m = raw if form == "raw" else complete_dpda(raw)
        resumable = oracle_from_dpda(m)
        strings = string_prefixes(resumable)
        words = list(bf.iter_words("01", 2))
        rng = random.Random(seed)
        tuples = [
            WitnessTuple(
                v=rng.choice(words), x=rng.choice(words[1:]), w=rng.choice(words),
                y=rng.choice(words[1:]), z=rng.choice(words),
                polarity=rng.choice(("direct", "complement")),
            )
            for _ in range(40)
        ]
        try:
            found = find_witness(m)
        except SearchExhaustedError:
            pass
        else:
            flipped = "complement" if found.polarity == "direct" else "direct"
            tuples += [found, replace(found, polarity=flipped), replace(found, z=found.z + "0")]
            assert verify_witness(resumable, found, 25, 25).passed
        for t in tuples:
            assert verify_witness(resumable, t, 9, 9) == verify_witness(strings, t, 9, 9), t

    def test_rows_that_meet_the_row_above_are_copied(self):
        # On a tuple read off a pump each y pops what one x pushed, so every
        # row meets the row above after one y: about 3 steps a row, where
        # stepping every grid point takes 26 * 27 + 1 = 703.
        entry = corpus.get_entry("lsharp")
        t = find_witness(entry.machine)
        o = oracle_from_dpda(entry.machine)
        steps = []

        def step(position, word):
            steps.append(word)
            return o.positions.step(position, word)

        counted = replace(o, positions=o.positions._replace(step=step))
        report = verify_witness(counted, t, 25, 25)
        assert report == verify_witness(string_prefixes(o), t, 25, 25)
        assert report.passed
        assert len(steps) <= 4 * (25 + 25 + 2)


class TestRepair:
    def test_repaired_tuple_is_nonempty_and_still_passes(self):
        repaired = repair_nonempty(MINIMAL_TUPLE)
        assert all((repaired.v, repaired.x, repaired.w, repaired.y, repaired.z))
        assert verify_witness(oracle("l1_le"), repaired, 20, 20).passed

    def test_repair_keeps_passing_tuples_passing(self):
        t = WitnessTuple(v="00", x="00", w="1", y="11", z="1", polarity="direct")
        assert repair_nonempty(t) == t


class TestFindWitness:
    def test_lsharp_deterministic_output(self):
        t = find_witness(corpus.get_entry("lsharp").machine)
        assert t == WitnessTuple(v="00", x="00", w="1", y="11", z="1", polarity="direct")

    # lsharp's tuple is pinned above.
    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("l1_le", ("00", "0", "1", "1", "1")),
            ("dyck1", ("((", "((", ")", "))", ")")),
            ("lr", ("aa", "aa", "ca", "aa", "a")),
            ("l_mm_n", ("00", "00", "1", "11", "10")),
            ("l_m_nn", ("011", "11", "0", "00", "0")),
            ("lsharp_squared", ("00", "00", "1", "11", "101")),
        ],
    )
    def test_corpus_tuples_are_pinned(self, name, pinned):
        t = find_witness(corpus.get_entry(name).machine)
        v, x, w, y, z = pinned
        assert t.to_json_dict() == {"v": v, "x": x, "w": w, "y": y, "z": z, "polarity": "direct"}

    @pytest.mark.parametrize(
        "name", ["lsharp", "l1_le", "dyck1", "lr", "l_mm_n", "l_m_nn", "lsharp_squared"]
    )
    def test_found_tuples_verify_against_the_predicate(self, name):
        entry = corpus.get_entry(name)
        t = find_witness(entry.machine)
        assert all((t.v, t.x, t.w, t.y, t.z))
        assert verify_witness(corpus.oracle_of(entry), t, 25, 25).passed

    @pytest.mark.parametrize("name", ["lsharp", "l1_le"])
    def test_polarity_exclusivity(self, name):
        entry = corpus.get_entry(name)
        t = find_witness(entry.machine)
        flipped = WitnessTuple(
            v=t.v, x=t.x, w=t.w, y=t.y, z=t.z,
            polarity="complement" if t.polarity == "direct" else "direct",
        )
        assert not verify_witness(corpus.oracle_of(entry), flipped, 25, 25).passed

    def test_regular_language_exhausts_at_divergence(self):
        entry = corpus.get_entry("even_length_reg")
        with pytest.raises(SearchExhaustedError) as excinfo:
            find_witness(entry.machine)
        assert excinfo.value.stage == "divergent_word"

    def test_machine_accepting_through_epsilon_chain(self):
        from dcflab.dpda import validate_dpda

        machine = validate_dpda(bf.LSHARP_EPS_RAW)
        t = find_witness(machine)
        assert verify_witness(oracle("lsharp"), t, 25, 25).passed

    def test_pop_summary_is_computed_once(self, monkeypatch):
        calls = counting(monkeypatch, "pop_summaries", (analysis, witness))
        find_witness(corpus.get_entry("lsharp").machine)
        assert len(calls) == 1

    def test_outcomes_match_the_golden_file(self):
        got = {}
        for param in SMALL_MACHINES:
            (m,) = param.values
            try:
                got[param.id] = find_witness(m).to_json_dict()
            except SearchExhaustedError as e:
                got[param.id] = f"exhausted:{e.stage}"
        assert got == json.loads(OUTCOMES.read_text(encoding="utf-8"))


class TestReducer:
    def test_transduction_writes_v_xm_w_yn1(self):
        t = WitnessTuple(v="00", x="0", w="1", y="1", z="1", polarity="direct")
        reducer = build_lsharp_reducer(t, "01")
        state, out = transduce(reducer, "0011")
        assert state == "q2"
        assert out == t.v + t.x * 2 + t.w + t.y * 1

    def test_queries_are_z_and_yz(self):
        t = WitnessTuple(v="00", x="0", w="1", y="1", z="1", polarity="direct")
        reducer = build_lsharp_reducer(t, "01")
        suffixes, table = reducer.per_state["q2"]
        assert suffixes == (t.z, t.y + t.z)
        assert table.rows == (False, True, False, False)

    def test_evaluate_on_l1(self):
        reducer = build_lsharp_reducer(MINIMAL_TUPLE, "01")
        l1 = oracle("l1_le")
        assert evaluate(reducer, l1, "0011")
        assert not evaluate(reducer, l1, "0001")
        assert not evaluate(reducer, l1, "1")
        assert not evaluate(reducer, l1, "")

    def test_reducer_decides_lsharp_under_l1(self):
        reducer = build_lsharp_reducer(MINIMAL_TUPLE, "01")
        l1 = oracle("l1_le")
        pred = corpus.get_entry("lsharp").predicate
        for w in bf.iter_words("01", 10):
            assert evaluate(reducer, l1, w) == pred(w), w

    def test_symbols_must_lie_in_alphabet(self):
        t = WitnessTuple(v="", x="2", w="", y="1", z="", polarity="direct")
        with pytest.raises(ValueError):
            build_lsharp_reducer(t, "01")

    def test_complement_accepts_rejected_input_via_sink(self):
        from dcflab.mealy import complement_machine

        reducer = build_lsharp_reducer(MINIMAL_TUPLE, "01")
        comp = complement_machine(reducer)
        l1 = oracle("l1_le")
        assert not evaluate(reducer, l1, "10")
        assert evaluate(comp, l1, "10")


def counting(monkeypatch, name, modules):
    """Record each call of the function `name` through any of `modules`."""
    calls = []
    real = getattr(modules[0], name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestReduceLsharp:
    def test_end_to_end_on_lsharp(self):
        entry = corpus.get_entry("lsharp")
        t, reducer, report = reduce_lsharp(entry.machine, check_len=10)
        assert isinstance(report, AgreementReport)
        assert report.passed
        assert report.words_checked == 2**11 - 1
        # spot-check the walk against plain evaluate
        oracle_m = oracle_from_dpda(entry.machine)
        pred = corpus.get_entry("lsharp").predicate
        for w in ["", "01", "0011", "0101", "111", "000111"]:
            assert evaluate(reducer, oracle_m, w) == pred(w)

    def test_raw_machine_is_completed_once(self, monkeypatch):
        calls = counting(monkeypatch, "complete_dpda", (dpda, mealy, witness))
        t, _, report = reduce_lsharp(validate_dpda(bf.LSHARP_RAW), check_len=8)
        assert report.passed
        assert t == find_witness(corpus.get_entry("lsharp").machine)
        assert len(calls) == 1

    def test_budgets_are_threaded(self):
        entry = corpus.get_entry("even_length_reg")
        with pytest.raises(SearchExhaustedError):
            reduce_lsharp(entry.machine, SearchBudgets(word_length=6), check_len=4)


@pytest.fixture(scope="module")
def lsharp_reducer():
    entry = corpus.get_entry("lsharp")
    reducer = build_lsharp_reducer(find_witness(entry.machine), "01")
    return reducer, oracle_from_dpda(entry.machine)


NON_REGULAR = ["lsharp", "l1_le", "dyck1", "lr", "l_mm_n", "l_m_nn", "lsharp_squared"]


class TestAgreementWalk:
    @pytest.mark.parametrize("name", NON_REGULAR)
    def test_both_position_kinds_count_the_same(self, name):
        m = corpus.get_entry(name).machine
        reducer = build_lsharp_reducer(find_witness(m), sorted(m.input_alphabet))
        o = oracle_from_dpda(m)
        checked = _check_reducer_agreement(reducer, o, 12)
        assert checked == _check_reducer_agreement(reducer, string_prefixes(o), 12)
        assert checked == 2**13 - 1

    def test_every_word_is_counted(self, lsharp_reducer):
        reducer, o = lsharp_reducer
        for max_len in range(17):
            assert _check_reducer_agreement(reducer, o, max_len) == 2 ** (max_len + 1) - 1

    def test_flipped_final_table_is_caught(self, lsharp_reducer):
        reducer, o = lsharp_reducer
        suffixes, table = reducer.per_state["q2"]
        flipped = TruthTable(table.arity, tuple(not r for r in table.rows))
        bad = replace(reducer, per_state={**reducer.per_state, "q2": (suffixes, flipped)})
        for kind in (o, string_prefixes(o)):
            with pytest.raises(AgreementFailureError) as excinfo:
                _check_reducer_agreement(bad, kind, 16)
            assert excinfo.value.word == "01"

    def test_live_transition_outside_the_prefixes_is_caught(self, lsharp_reducer):
        # (q2, "0") keeps words such as 0010 alive although no extension of
        # them lies in 0^n 1^n, so their subtrees must still be walked.
        reducer, o = lsharp_reducer
        bad = replace(
            reducer,
            delta={**reducer.delta, ("q2", "0"): "q2"},
            outputs={**reducer.outputs, ("q2", "0"): reducer.outputs[("q2", "1")]},
        )
        for kind in (o, string_prefixes(o)):
            with pytest.raises(AgreementFailureError) as excinfo:
                _check_reducer_agreement(bad, kind, 16)
            assert excinfo.value.word == "0010"
