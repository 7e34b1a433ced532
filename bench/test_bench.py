"""The benchmark's own tests: `python -m pytest bench`."""

import json
from itertools import product
from time import perf_counter

import pytest

import dcflab
from dcflab import corpus

import hostspeed
import machines
import reference as ref
import workloads


def words(alphabet, max_len):
    for n in range(max_len + 1):
        for chars in product(sorted(alphabet), repeat=n):
            yield "".join(chars)


def test_generator_is_deterministic_for_a_seed():
    assert machines.random_suite(1) == machines.random_suite(1)
    assert machines.random_suite(1) != machines.random_suite(2)
    doc = machines.random_suite(1)[0]
    assert machines.rename(doc, 5) == machines.rename(doc, 5)
    assert machines.rename(doc, 5) != machines.rename(doc, 6)
    assert workloads.RandomWorkload(3, None).docs == workloads.RandomWorkload(3, None).docs


def test_rename_keeps_name_order():
    doc = machines.random_suite(1)[7]
    renamed = machines.rename(doc, 11)
    for key in ("states", "stack_alphabet"):
        old, new = doc[key], renamed[key]
        assert sorted(range(len(old)), key=old.__getitem__) == sorted(range(len(new)), key=new.__getitem__)


@pytest.mark.parametrize("k", machines.COUNTER_KS)
def test_counter_machine_agrees_with_its_predicate(k):
    m = dcflab.complete_dpda(dcflab.validate_dpda(machines.counter_doc(k)))
    for w in words("01", 14):
        assert dcflab.member(m, w) == ref.is_counter_word(w, k), w
    assert dcflab.member(m, "0" * (3 * k) + "1" * (3 * k))


@pytest.mark.parametrize("name", corpus.names())
def test_reference_membership_agrees_with_member_on_corpus(name):
    entry = corpus.get_entry(name)
    reference = ref.ReferenceMachine.of(entry.machine)
    for w in words(entry.machine.input_alphabet, 8):
        assert reference.accepts(w) == dcflab.member(entry.machine, w) == entry.predicate(w), w


def test_reference_membership_agrees_with_member_on_random_suite():
    # Random machines have ε-rules, which no corpus machine has.
    for doc in machines.random_suite()[:30]:
        raw = dcflab.validate_dpda(doc)
        m = dcflab.complete_dpda(raw)
        reference = ref.ReferenceMachine.of(raw)
        for w in words(raw.input_alphabet, 6):
            assert reference.accepts(w) == dcflab.member(m, w), (doc, w)


def test_lsharp_predicate():
    members = {w for w in words("01", 10) if ref.is_lsharp(w)}
    assert members == {"0" * n + "1" * n for n in range(1, 6)}
    assert [n for n in range(1, 10) if ref.is_counter_word("0" * n + "1" * n, 3)] == [3, 6, 9]


def test_grid_check_accepts_a_witness_and_rejects_a_wrong_one():
    l1_le = corpus.get_entry("l1_le").predicate
    good = dcflab.WitnessTuple(v="", x="0", w="", y="1", z="", polarity="direct")
    assert ref.grid_counterexample(l1_le, good, 30, 30) is None
    bad = dcflab.WitnessTuple(v="", x="0", w="", y="11", z="", polarity="direct")
    assert ref.grid_counterexample(l1_le, bad, 30, 30) is not None


def test_reducer_check_counts_every_word_and_catches_a_wrong_table():
    t = dcflab.WitnessTuple(v="00", x="00", w="1", y="11", z="1", polarity="direct")
    reducer = dcflab.build_lsharp_reducer(t, "01")
    lsharp = corpus.get_entry("lsharp").predicate
    assert ref.reducer_mismatch(reducer, lsharp, 12) == (2**13 - 1, None)
    suffixes, table = reducer.per_state["q2"]
    flipped = type(table)(table.arity, tuple(not r for r in table.rows))
    wrong = dcflab.OracleMealyMachine(**{**reducer.__dict__, "per_state": {**reducer.per_state, "q2": (suffixes, flipped)}})
    assert ref.reducer_mismatch(wrong, lsharp, 12)[1] is not None


def test_compose_check_passes_a_correct_composition():
    # With comma-free names compose is right, so the check of the comma
    # case measures the naming fault and nothing else.
    def friendly(doc):
        return json.loads(json.dumps(doc).replace("a,b", "ab").replace("b,c", "bc"))

    composed = dcflab.compose(
        dcflab.validate_mealy(friendly(workloads.COMMA_FRONT)),
        dcflab.validate_mealy(friendly(workloads.COMMA_BACK)),
    )
    assert workloads._compose_problem(json.dumps(dcflab.mealy_to_document(composed))) is None


def test_reference_machine_from_a_document_agrees_with_the_counter_predicate():
    m = ref.ReferenceMachine.from_document(machines.counter_doc(3))
    for w in words("01", 12):
        assert m.accepts(w) == ref.is_counter_word(w, 3), w


def test_host_speed_sampler_keeps_its_time_out_of_the_clock():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        t0, c0 = perf_counter(), hostspeed.clock()
        while perf_counter() - t0 < 0.3:
            pass
        wall, clocked = perf_counter() - t0, hostspeed.clock() - c0
    finally:
        speed.stop()
    assert len(speed.samples) >= 3
    assert wall - clocked >= sum(s for _, s in speed.samples)


def test_host_speed_scales_by_the_samples_taken_while_an_interval_ran():
    speed = hostspeed.HostSpeed()
    speed.samples = [(0.0, 0.001), (1.0, 0.002), (1.1, 0.002), (5.0, 0.004)]
    speed.stop()
    reference = hostspeed.REFERENCE_S
    assert speed.scaled(0.9, 0.3) == pytest.approx(0.3 * reference / 0.002)
    # A short interval's window widens to LOCAL_S around it.
    assert speed.scaled(0.99, 0.01) == pytest.approx(0.01 * reference / 0.002)
    # With no sample in the window, the run's mean sample.
    assert speed.scaled(3.0, 0.01) == pytest.approx(0.01 * reference / 0.00225)
