import copy
import gc
import json
import pickle
import random
import types
import weakref
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

# The same for the benchmark's machines: each counter machine and each
# random-suite machine under rename seeds 1 and 11, completed as the
# benchmark completes them, keyed "counter-<k>" and "random-<seed>-<i>".
BENCH_OUTCOMES = Path(__file__).parent / "data" / "bench_outcomes.json"
BENCH_MACHINES = Path(__file__).parents[1] / "bench" / "machines.py"


def outcome(m):
    """find_witness's outcome at default budgets, as the golden files hold it."""
    try:
        return find_witness(m).to_json_dict()
    except SearchExhaustedError as e:
        return f"exhausted:{e.stage}"


def assert_stages_are_known(outcomes):
    """Every exhausted outcome recorded names a stage the search has."""
    stages = {o.partition(":")[2] for o in outcomes.values() if isinstance(o, str)}
    assert stages and stages <= set(witness._STAGES), stages


def bench_machines():
    """bench/machines.py, run from its source without importing `bench`."""
    module = types.ModuleType("bench_machines")
    source = BENCH_MACHINES.read_text(encoding="utf-8")
    exec(compile(source, str(BENCH_MACHINES), "exec"), module.__dict__)
    return module


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

    @pytest.mark.parametrize(
        "length, stage", [(1, "pump"), (2, "pump"), (3, "divergent_word"), (24, "divergent_word")]
    )
    def test_a_word_with_one_level_exhausts_at_the_pump(self, length, stage):
        # s reads a and pops its only X into the accepting f.  On the
        # completed machine the prefixes ε, a and aa (in the fail state)
        # are pairwise distinct and no fourth one is, and every prefix's
        # stable stack is the bottom symbol alone: a divergent word of
        # length 1 or 2 has one level, so no level follows the first and
        # no pump can be read.
        m = validate_dpda(
            {
                "states": ["s", "f"],
                "input_alphabet": ["a"],
                "stack_alphabet": ["X"],
                "rules": [{"from": "s", "top": "X", "label": "a", "to": "f", "push": []}],
                "start_state": "s",
                "start_symbol": "X",
                "accepting": ["f"],
            }
        )
        budgets = SearchBudgets(word_length=length)
        with pytest.raises(SearchExhaustedError) as excinfo:
            find_witness(m, budgets)
        assert excinfo.value.stage == stage
        assert m.outcomes == {budgets: stage}
        if stage == "pump":
            mc = complete_dpda(m)
            graph = analysis._Product(mc)
            u = analysis.find_divergent_word(graph, length)
            start = graph.close(mc.start_configuration())[0]
            assert len(u) == length and len(analysis._levels(graph, start, u)) == 1

    def test_a_z_that_never_settles_gives_way_to_the_next(self, monkeypatch):
        # The first z's flags on the levels q gamma^l delta cycle through
        # both values, so no shift of the base settles them: the search
        # goes on to the next z and returns a tuple that passes its grid.
        real, zs = witness._level_flags, []

        def first_cycles(m, q, gamma, delta, z, *rest):
            zs.append(z)
            return ([False, True], 0) if len(zs) == 1 else real(m, q, gamma, delta, z, *rest)

        monkeypatch.setattr(witness, "_level_flags", first_cycles)
        t = find_witness(copy.copy(corpus.get_entry("lsharp").machine))
        assert len(zs) == 2 and zs[0] != zs[1]
        assert verify_witness(oracle("lsharp"), t, 25, 25).passed

    def test_no_z_that_settles_exhausts_at_stabilize(self, monkeypatch):
        # Every z's flags cycle through both values: the search runs out
        # of z words, pumps and states at the "stabilize" stage, which the
        # machine keeps, so a repeat raises again without a search.
        calls = 0

        def cycling(*args):
            nonlocal calls
            calls += 1
            return [False, True], 0

        monkeypatch.setattr(witness, "_level_flags", cycling)
        m = copy.copy(corpus.get_entry("lsharp").machine)
        with pytest.raises(SearchExhaustedError) as excinfo:
            find_witness(m)
        assert excinfo.value.stage == "stabilize"
        assert m.outcomes == {SearchBudgets(): "stabilize"}
        searched = calls
        with pytest.raises(SearchExhaustedError, match="stabilize"):
            find_witness(m)
        assert calls == searched > 1

    def test_machine_accepting_through_epsilon_chain(self):
        from dcflab.dpda import validate_dpda

        machine = validate_dpda(bf.LSHARP_EPS_RAW)
        t = find_witness(machine)
        assert verify_witness(oracle("lsharp"), t, 25, 25).passed

    def test_pop_summary_is_computed_once(self, monkeypatch):
        # On a copy: the shared corpus machine keeps any earlier test's outcome.
        calls = counting(monkeypatch, "pop_summaries", (analysis,))
        find_witness(copy.copy(corpus.get_entry("lsharp").machine))
        assert len(calls) == 1

    def test_one_graph_per_extraction(self, monkeypatch):
        # A first extraction, through `find_witness` or through
        # `reduce_lsharp`, builds one `_Product` over one pop summary, which
        # serves the divergent-word search, its distinguisher calls and the
        # pump stage.  The outcome is kept on the machine, so a repeated
        # `find_witness`, and a `reduce_lsharp` after it, build none.  On
        # copies of the corpus machines, the counter machines and the first
        # random-suite machines.
        machines = bench_machines()
        docs = [machines.counter_doc(k) for k in machines.COUNTER_KS] + machines.random_suite()[:12]
        suite = [corpus.get_entry(name).machine for name in corpus.names()]
        suite += [complete_dpda(validate_dpda(doc)) for doc in docs]
        graphs = counted_graphs(monkeypatch)
        summaries = counting(monkeypatch, "pop_summaries", (analysis,))
        reduce = lambda m: reduce_lsharp(m, check_len=4)  # noqa: E731
        for m in suite:
            for first in (find_witness, reduce):
                fresh = copy.copy(m)
                for run, built in ((first, 1), (find_witness, 0), (reduce, 0)):
                    graphs.clear()
                    summaries.clear()
                    try:
                        run(fresh)
                    except SearchExhaustedError:
                        pass
                    assert len(graphs) == len(summaries) == built, (m, run)

    def test_a_word_that_does_not_separate_its_pair_raises(self, monkeypatch, ten_seconds):
        # A distinguisher word that leaves the clashing pair's signatures
        # equal must not be appended again and again; the error is not kept.
        monkeypatch.setattr(analysis, "distinguishing_word", lambda *args, **kwargs: "")
        m = copy.copy(corpus.get_entry("lsharp").machine)
        with pytest.raises(RuntimeError, match="does not separate"):
            analysis.find_divergent_word(analysis._Product(m), 24)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="distinguishing word '' does not separate"):
                find_witness(m)
        assert m.outcomes == {}

    def test_a_tuple_that_fails_its_grid_raises(self, monkeypatch):
        # Every stage is exact, so a failed re-check is a bug: the search
        # raises, tries no further z and does not exhaust; nothing is kept.
        failed = witness.VerificationReport(25, 25, False, ((1, 1, False, False),))
        monkeypatch.setattr(witness, "verify_witness", lambda *args: failed)
        m = copy.copy(corpus.get_entry("lsharp").machine)
        for _ in range(2):
            with pytest.raises(AssertionError, match="fails its 25 x 25 grid"):
                find_witness(m)
        assert m.outcomes == {}
        # A search that reaches a z that stabilizes returns or raises there.
        assert witness._STAGES[-1] == "stabilize"
        assert {"periodicity", "verify"}.isdisjoint(witness._STAGES)

    def test_outcomes_match_the_golden_file(self):
        got = {param.id: outcome(param.values[0]) for param in SMALL_MACHINES}
        recorded = json.loads(OUTCOMES.read_text(encoding="utf-8"))
        assert got == recorded
        assert_stages_are_known(recorded)

    def test_benchmark_outcomes_match_the_golden_file(self):
        machines = bench_machines()
        docs = {f"counter-{k}": machines.counter_doc(k) for k in machines.COUNTER_KS}
        for seed in (1, 11):
            for i, doc in enumerate(machines.random_suite()):
                docs[f"random-{seed}-{i:02d}"] = machines.rename(doc, seed)
        got = {name: outcome(complete_dpda(validate_dpda(doc))) for name, doc in docs.items()}
        recorded = json.loads(BENCH_OUTCOMES.read_text(encoding="utf-8"))
        assert got == recorded
        assert_stages_are_known(recorded)

    def test_pumps_are_taken_on_demand(self, monkeypatch):
        # The pumps find_witness takes are a prefix of every pump read off
        # the levels of its divergent word, and no candidate past the pump
        # it returns with is re-checked.
        calls, taken = [], []  # the generator's arguments; (pump, re-checks so far)
        rechecks = []  # graph reads made inside the pump generator
        inside = False
        real_read, real_pumps = analysis._Product.read, analysis._pumps

        def read(graph, *args):
            if inside:
                rechecks.append(args)
            return real_read(graph, *args)

        def pumps(graph, u, levels):
            nonlocal inside
            calls.append((graph, u, levels))
            gen = real_pumps(graph, u, levels)
            while True:
                inside = True
                pump = next(gen, None)
                inside = False
                if pump is None:
                    return
                taken.append((pump, len(rechecks)))
                yield pump

        monkeypatch.setattr(analysis._Product, "read", read)
        monkeypatch.setattr(witness, "_pumps", pumps)
        skipped = 0
        for name in corpus.names():
            m = complete_dpda(corpus.get_entry(name).machine)
            calls.clear()
            taken.clear()
            rechecks.clear()
            if isinstance(outcome(m), str):
                continue
            assert rechecks and len(rechecks) == taken[-1][1], name
            every = list(real_pumps(*calls[0]))
            assert [pump for pump, _ in taken] == every[: len(taken)], name
            skipped += len(every) > len(taken)
        assert skipped


def counted_graphs(monkeypatch):
    """Record each `_Product` built."""
    graphs = []
    init = analysis._Product.__init__

    def counted_init(graph, *args, **kwargs):
        graphs.append(graph)
        init(graph, *args, **kwargs)

    monkeypatch.setattr(analysis._Product, "__init__", counted_init)
    return graphs


class TestKeptOutcomes:
    # `find_witness` keeps its outcome on the machine it was given, per
    # budgets: a tuple, or the stage of an exhaustion.

    def test_a_repeat_returns_the_identical_tuple(self, monkeypatch):
        m = copy.copy(corpus.get_entry("lsharp").machine)
        t = find_witness(m)
        graphs = counted_graphs(monkeypatch)
        assert find_witness(m) is t
        assert find_witness(m, SearchBudgets()) is t
        assert reduce_lsharp(m, check_len=4)[0] is t
        assert m.outcomes == {SearchBudgets(): t}
        assert graphs == []

    def test_an_exhaustion_is_kept_as_its_stage(self, monkeypatch):
        m = copy.copy(corpus.get_entry("even_length_reg").machine)
        with pytest.raises(SearchExhaustedError) as first:
            find_witness(m)
        assert first.value.stage == "divergent_word"
        assert m.outcomes == {SearchBudgets(): "divergent_word"}
        graphs = counted_graphs(monkeypatch)
        for run in (find_witness, lambda m: reduce_lsharp(m, check_len=4)):
            with pytest.raises(SearchExhaustedError) as again:
                run(m)
            assert again.value is not first.value
            assert (again.value.stage, again.value.budgets) == ("divergent_word", SearchBudgets())
        assert graphs == []

    def test_distinct_budgets_search_separately(self, monkeypatch):
        m = copy.copy(corpus.get_entry("lsharp").machine)
        graphs = counted_graphs(monkeypatch)
        short = SearchBudgets(word_length=8)
        t = find_witness(m)
        u = find_witness(m, short)
        assert len(graphs) == 2
        assert t == find_witness(copy.copy(m)) and u == find_witness(copy.copy(m), short)
        assert find_witness(m) is t and find_witness(m, SearchBudgets(word_length=8)) is u
        assert m.outcomes == {SearchBudgets(): t, short: u}
        assert len(graphs) == 4

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(copy.copy, id="copy"),
            pytest.param(copy.deepcopy, id="deepcopy"),
            pytest.param(lambda m: pickle.loads(pickle.dumps(m)), id="pickle"),
        ],
    )
    def test_copies_carry_no_outcomes(self, monkeypatch, make):
        m = copy.copy(corpus.get_entry("lsharp").machine)
        t = find_witness(m)
        c = make(m)
        assert c == m and "outcomes" not in vars(c)
        graphs = counted_graphs(monkeypatch)
        assert find_witness(c) == t
        assert len(graphs) == 1

    @pytest.mark.parametrize("name", ["lsharp", "even_length_reg"])
    def test_no_graph_outlives_the_extraction(self, monkeypatch, name):
        # Without the cyclic collector, every graph is freed when the
        # extraction returns, and a machine that keeps outcomes is freed
        # when it is dropped.
        graphs = counted_graphs(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            m = copy.copy(corpus.get_entry(name).machine)
            for _ in range(2):
                try:
                    find_witness(m)
                except SearchExhaustedError:
                    pass
            assert len(graphs) == 1 and len(m.outcomes) == 1
            # Once this list lets go of the one graph built, nothing holds it.
            graph = weakref.ref(graphs.pop())
            assert graph() is None
            machine = weakref.ref(m)
            del m
            assert machine() is None
        finally:
            gc.enable()


def _rule(source, top, label, target, push=()):
    return {"from": source, "top": top, "label": label, "to": target, "push": list(push)}


def dyck_doc(k):
    """k bracket pairs on one state: every word that closes no bracket
    it did not open is accepted."""
    pairs = list(zip("([{<", ")]}>"))[:k]
    opens = [o for o, _ in pairs]
    rules = [_rule("s", top, o, "s", [o, top]) for o in opens for top in ["Z", *opens]]
    rules += [_rule("s", o, c, "s") for o, c in pairs]
    return {
        "states": ["s"],
        "input_alphabet": [a for pair in pairs for a in pair],
        "stack_alphabet": ["Z", *opens],
        "rules": rules,
        "start_state": "s",
        "start_symbol": "Z",
        "accepting": ["s"],
    }


def pal_doc(k):
    """w z w-reversed over k letters and the marker z; the corpus `lr`
    language scaled up.  A letter's lowest copy on the stack is marked, so
    that matching it accepts."""
    letters = "abcdefgh"[:k]
    stack = ["Z", *(a + "0" for a in letters), *(a.upper() for a in letters)]
    rules = []
    for top in stack:
        rules += [_rule("p", top, a, "p", [a + "0" if top == "Z" else a.upper(), top]) for a in letters]
        rules.append(_rule("p", top, "z", "f" if top == "Z" else "r", [top]))
    for a in letters:
        rules += [_rule("r", a.upper(), a, "r"), _rule("r", a + "0", a, "f")]
    return {
        "states": ["p", "r", "f"],
        "input_alphabet": [*letters, "z"],
        "stack_alphabet": stack,
        "rules": rules,
        "start_state": "p",
        "start_symbol": "Z",
        "accepting": ["f"],
    }


class TestWideAlphabets:
    # With 7 or more letters the search meets many leaves of other sides;
    # no cap may stop such a meeting from getting its distinguisher
    # verdict and splitting the leaf (a cap of that kind made Dyck_4 hang).
    @pytest.mark.parametrize("doc", [dyck_doc(4), pal_doc(6)], ids=["dyck4", "pal6"])
    def test_default_budgets_find_a_verified_tuple(self, ten_seconds, doc):
        m = complete_dpda(validate_dpda(doc))
        assert len(m.input_alphabet) >= 7
        t = find_witness(m)
        assert verify_witness(oracle_from_dpda(m), t, 40, 40).passed


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

    def test_outputs_that_repeat_the_roots_are_stepped_anew(self):
        # With v empty the root and its child both write x, from different
        # positions: the memo must not take one position for the other.
        reducer = build_lsharp_reducer(MINIMAL_TUPLE, "01")
        o = oracle_from_dpda(corpus.get_entry("l1_le").machine)
        for kind in (o, string_prefixes(o)):
            assert _check_reducer_agreement(reducer, kind, 12) == 2**13 - 1

    @pytest.mark.parametrize("name", ["lsharp", "counter13"])
    def test_each_position_and_word_is_asked_once(self, monkeypatch, name):
        # Equal run positions read the same language, so the walk asks the
        # oracle once per distinct (position, word), not once per node.  A
        # `step` that returns a fresh but equal position every time gets the
        # same counts: the memo keys by equality, not identity.
        if name == "lsharp":
            m = corpus.get_entry("lsharp").machine
        else:
            m = complete_dpda(validate_dpda(bench_machines().counter_doc(13)))
        reducer = build_lsharp_reducer(find_witness(m), sorted(m.input_alphabet))
        o = oracle_from_dpda(m)
        counts = []
        for fresh in (False, True):
            steps, answers = [], []

            def step(position, word):
                steps.append((position, word))
                after = o.positions.step(position, word)
                if fresh:
                    state, stack, accepted = after
                    after = (state, tuple(list(stack)), accepted)
                return after

            def accepts(position, suffix):
                answers.append((position, suffix))
                return o.positions.accepts(position, suffix)

            visited = counting(monkeypatch, "is_lsharp", (witness,))
            counted = replace(o, positions=o.positions._replace(step=step, accepts=accepts))
            assert _check_reducer_agreement(reducer, counted, 16) == 2**17 - 1
            assert len(set(steps)) == len(steps) < len(visited) == 137
            assert len(set(answers)) == len(answers)
            counts.append((len(steps), len(answers)))
        assert counts[0] == counts[1]
