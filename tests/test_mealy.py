import copy
import gc
import hashlib
import json
import pickle
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflab import analysis, corpus
from dcflab.dpda import InvalidMachineError, validate_dpda
from dcflab.mealy import (
    IDENTITY_TABLE,
    Dfa,
    LanguageOracle,
    OracleMealyMachine,
    TruthTable,
    complement_machine,
    compose,
    constant_table,
    evaluate,
    identity_machine,
    lift_dfa,
    mealy_to_document,
    oracle_from_dpda,
    oracle_from_machine,
    refute_simplicity_LR,
    restrict_regular,
    transduce,
    validate_mealy,
)
from dcflab.witness import build_lsharp_reducer, find_witness

import bruteforce as bf


def words(alphabet, max_len):
    return list(bf.iter_words(alphabet, max_len))


def comma_doc(states, start, moves, queries):
    return {
        "states": states,
        "input_alphabet": ["0", "1"],
        "oracle_alphabet": ["0", "1"],
        "delta": [{"from": p, "on": c, "to": q} for p, c, q, _ in moves],
        "lambda": [{"from": p, "on": c, "out": o} for p, c, _, o in moves],
        "start_state": start,
        "queries": [{"state": q, "suffixes": sf, "table": tb} for q, sf, tb in queries],
    }


# Product states ("a", "b,c") and ("a,b", "c") of these two machines share a
# name when the components are joined with commas.
COMMA_FRONT = comma_doc(
    ["a", "a,b"],
    "a",
    [("a", "0", "a,b", "0"), ("a", "1", "a", "1"), ("a,b", "0", "a", "00"), ("a,b", "1", "a,b", "1")],
    [("a", [""], [0, 1]), ("a,b", ["1"], [1, 0])],
)
COMMA_BACK = comma_doc(
    ["b,c", "c"],
    "b,c",
    [("b,c", "0", "c", "0"), ("b,c", "1", "b,c", "1"), ("c", "0", "b,c", "0"), ("c", "1", "c", "11")],
    [("b,c", [""], [0, 1]), ("c", ["", "1"], [0, 1, 1, 0])],
)


def lsharp_oracle():
    return corpus.oracle_of(corpus.get_entry("lsharp"))


def l1_oracle():
    return corpus.oracle_of(corpus.get_entry("l1_le"))


IDENTITY_DOC = {
    "states": ["q"],
    "input_alphabet": ["0", "1"],
    "oracle_alphabet": ["0", "1"],
    "delta": [
        {"from": "q", "on": "0", "to": "q"},
        {"from": "q", "on": "1", "to": "q"},
    ],
    "lambda": [
        {"from": "q", "on": "0", "out": "0"},
        {"from": "q", "on": "1", "out": "1"},
    ],
    "start_state": "q",
    "queries": [{"state": "q", "suffixes": [""], "table": [0, 1]}],
}


class TestValidation:
    def test_valid_document(self):
        m = validate_mealy(IDENTITY_DOC)
        assert m.per_state["q"][0] == ("",)

    def test_arity_mismatch(self):
        doc = dict(IDENTITY_DOC)
        doc["queries"] = [{"state": "q", "suffixes": ["", "1"], "table": [0, 1]}]
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_mealy(doc)
        assert any(v.kind == "ArityMismatch" for v in excinfo.value.violations)

    def test_lambda_domain_mismatch(self):
        doc = dict(IDENTITY_DOC)
        doc["lambda"] = IDENTITY_DOC["lambda"] + [{"from": "q", "on": "0", "out": "0"}]
        doc["lambda"] = [{"from": "q", "on": "0", "out": "0"}]  # missing the "1" entry
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_mealy(doc)
        assert any(v.kind == "LambdaDomainMismatch" for v in excinfo.value.violations)

    def test_undeclared_output_symbol(self):
        doc = dict(IDENTITY_DOC)
        doc["lambda"] = [
            {"from": "q", "on": "0", "out": "x"},
            {"from": "q", "on": "1", "out": "1"},
        ]
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_mealy(doc)
        assert any(v.kind == "UndeclaredSymbol" for v in excinfo.value.violations)

    def test_report_lists_every_defect_in_order(self):
        doc = {
            "states": ["q", "r", "t"],
            "input_alphabet": ["0", "1"],
            "oracle_alphabet": ["0", "1"],
            "delta": [
                {"from": "q", "on": "0", "to": "q"},
                {"from": "q", "on": "1", "to": "q"},
                "not a move",
                {"from": "q", "on": 0, "go": "q"},
                {"from": "q", "on": "0", "to": "r"},
                {"from": "q", "on": "2", "to": "s"},
            ],
            "lambda": [
                {"from": "q", "on": "0", "out": "0"},
                {"from": "q", "on": "1", "out": "1x"},
                {"from": "r", "on": "1", "out": "1"},
                ["q", "0", "0"],
            ],
            "start_state": "q",
            "queries": [
                {"state": "q", "suffixes": [""], "table": [0, 1]},
                {"state": "q", "suffixes": [""], "table": [0, 1]},
                {"state": "s", "suffixes": [""], "table": [0, 1]},
                {"state": "r", "suffixes": ["2"], "table": [0]},
                {"state": "t", "suffixes": [], "table": [0], "rows": 1},
            ],
            "mystery": 1,
        }
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_mealy(doc)
        assert [str(v) for v in excinfo.value.violations] == [
            "UnknownField: mystery",
            "BadType: delta[2] must be an object",
            "UnknownField: delta[3].go",
            "BadType: delta[3].on must be a string",
            "MissingField: delta[3].to",
            "DuplicateTransition: (q, 0)",
            "UndeclaredSymbol: delta[5]",
            "UndeclaredSymbol: delta[5].on",
            "UndeclaredSymbol: lambda[1].out 'x'",
            "LambdaDomainMismatch: (r, 1)",
            "BadType: lambda[3] must be an object",
            "LambdaDomainMismatch: (q, 2)",
            "DuplicateQueries: q",
            "UndeclaredSymbol: queries[2].state",
            "UndeclaredSymbol: queries[3] suffix '2'",
            "ArityMismatch: r",
            "UnknownField: queries[4].rows",
            "MissingQueries: r",
        ]

    def test_document_round_trip(self):
        m = validate_mealy(IDENTITY_DOC)
        again = validate_mealy(mealy_to_document(m))
        assert again == m

    def test_truth_table_row_count(self):
        with pytest.raises(ValueError):
            TruthTable(2, (True, False))

    def test_truth_table_value_of_the_wrong_arity(self):
        with pytest.raises(ValueError, match="arity"):
            TruthTable(2, (True, False, False, True)).value([True])


class TestTransduce:
    def test_empty_word(self):
        m = identity_machine("01")
        assert transduce(m, "") == ("q", "")

    def test_identity_copies(self):
        m = identity_machine("01")
        for w in words("01", 6):
            assert transduce(m, w) == ("q", w)

    def test_undefined_transition_rejects(self):
        m = validate_mealy(IDENTITY_DOC)
        partial = OracleMealyMachine(
            states=m.states,
            input_alphabet=m.input_alphabet,
            oracle_alphabet=m.oracle_alphabet,
            delta={("q", "0"): "q"},
            outputs={("q", "0"): "0"},
            start_state="q",
            per_state=m.per_state,
        )
        assert transduce(partial, "01") is None

    @given(st.text(alphabet="01", max_size=10), st.sampled_from("01"))
    @settings(max_examples=50, deadline=None)
    def test_transduction_morphism(self, w, a):
        # one step extends the fold: delta/lambda of (w + a) from the w-state
        m = identity_machine("01")
        state, out = transduce(m, w)
        assert transduce(m, w + a) == (m.delta[(state, a)], out + m.outputs[(state, a)])


class TestEvaluate:
    def test_identity_is_reflexive_reduction(self):
        m = identity_machine("01")
        oracle = lsharp_oracle()
        for w in words("01", 10):
            assert evaluate(m, oracle, w) == oracle.membership(w)

    def test_identity_reflexive_for_every_corpus_oracle(self):
        for name in corpus.names():
            entry = corpus.get_entry(name)
            alphabet = sorted(entry.machine.input_alphabet)
            m = identity_machine(alphabet)
            oracle = corpus.oracle_of(entry)
            limit = 10 if len(alphabet) == 2 else 7
            for w in words(alphabet, limit):
                assert evaluate(m, oracle, w) == oracle.membership(w), (name, w)

    def test_identity_over_no_letters_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            identity_machine([])

    def test_constant_zero_tables_reject_all(self):
        m = identity_machine("01")
        dead = OracleMealyMachine(
            states=m.states,
            input_alphabet=m.input_alphabet,
            oracle_alphabet=m.oracle_alphabet,
            delta=m.delta,
            outputs=m.outputs,
            start_state=m.start_state,
            per_state={"q": ((), constant_table(False))},
        )
        assert not any(evaluate(dead, lsharp_oracle(), w) for w in words("01", 6))

    def test_oracle_from_dpda_matches_predicate(self):
        entry = corpus.get_entry("lsharp")
        oracle = oracle_from_dpda(entry.machine)
        for w in words("01", 8):
            assert oracle.membership(w) == entry.predicate(w)

    @pytest.mark.parametrize("raw", [bf.EPS_CHAIN_RAW, bf.LSHARP_EPS_RAW, bf.EMPTY_LANGUAGE_RAW])
    def test_positions_read_every_split_of_a_word(self, raw):
        # Reading u = a·b·s as start, step a, step b, accepts s gives u's
        # membership, for the machine's positions and the string default.
        machine_oracle = oracle_from_dpda(validate_dpda(raw))
        string_oracle = LanguageOracle(machine_oracle.alphabet, machine_oracle.membership)
        for o in (machine_oracle, string_oracle):
            for u in words("01", 5):
                for i in range(len(u) + 1):
                    for j in range(i, len(u) + 1):
                        position = o.step(o.step(o.start(), u[:i]), u[i:j])
                        assert o.accepts(position, u[j:]) == o.membership(u), (u, i, j)

    def test_string_positions_are_prefixes(self):
        oracle = lsharp_oracle()
        assert oracle.step(oracle.step(oracle.start(), "00"), "1") == "001"
        assert oracle.accepts("001", "1") and not oracle.accepts("001", "")


NONREGULAR = [name for name in corpus.names() if name != "even_length_reg"]


@pytest.fixture(scope="module")
def lsharp_reducers():
    """The certified 0^n 1^n reducer to each non-regular corpus language."""
    out = {}
    for name in NONREGULAR:
        m = corpus.get_entry(name).machine
        out[name] = build_lsharp_reducer(find_witness(m), sorted(m.input_alphabet))
    return out


class TestCompose:
    def test_identity_with_identity(self):
        ident = identity_machine("01")
        comp = compose(ident, ident)
        oracle = lsharp_oracle()
        for w in words("01", 8):
            assert evaluate(comp, oracle, w) == evaluate(ident, oracle, w)

    def test_oracle_equivalence_identity_pair(self):
        a1 = identity_machine("01")
        a2 = identity_machine("01")
        oracle = l1_oracle()
        middle = oracle_from_machine(a2, oracle)
        comp = compose(a1, a2)
        for w in words("01", 8):
            assert evaluate(comp, oracle, w) == evaluate(a1, middle, w)

    def test_state_count_bounded_by_product(self):
        a1 = identity_machine("01")
        a2 = identity_machine("01")
        comp = compose(a1, a2)
        assert len(comp.states) <= len(a1.states) * len(a2.states)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(identity_machine("01"), identity_machine("ab"))

    def test_comma_state_names_do_not_collide(self):
        front = validate_mealy(COMMA_FRONT)
        back = validate_mealy(COMMA_BACK)
        oracle = lsharp_oracle()
        middle = oracle_from_machine(back, oracle)
        comp = compose(front, back)
        assert len(words("01", 6)) == 127
        for w in words("01", 6):
            assert evaluate(comp, oracle, w) == evaluate(front, middle, w), w

    @pytest.mark.parametrize("name", NONREGULAR)
    def test_real_reducers_compose_like_sequential_evaluation(self, name, lsharp_reducers):
        """lsharp -> lsharp chained with lsharp -> L, on every binary word
        of length <= 10."""
        front, back = lsharp_reducers["lsharp"], lsharp_reducers[name]
        oracle = corpus.oracle_of(corpus.get_entry(name))
        middle = oracle_from_machine(back, oracle)
        comp = compose(front, back)
        for w in words("01", 10):
            assert evaluate(comp, oracle, w) == evaluate(front, middle, w) == corpus.is_lsharp(w), w

    def test_back_end_dies_mid_output(self):
        # front machine flips bits and accepts exactly when its single query
        # fails; back machine only survives 0s
        front = OracleMealyMachine(
            states=frozenset({"p"}),
            input_alphabet=frozenset("01"),
            oracle_alphabet=frozenset("01"),
            delta={("p", "0"): "p", ("p", "1"): "p"},
            outputs={("p", "0"): "1", ("p", "1"): "0"},
            start_state="p",
            per_state={"p": (("",), TruthTable(1, (True, False)))},
        )
        back = OracleMealyMachine(
            states=frozenset({"r"}),
            input_alphabet=frozenset("01"),
            oracle_alphabet=frozenset("01"),
            delta={("r", "0"): "r"},
            outputs={("r", "0"): "0"},
            start_state="r",
            per_state={"r": (("",), TruthTable(1, (False, True)))},
        )
        oracle = lsharp_oracle()
        middle = oracle_from_machine(back, oracle)
        comp = compose(front, back)
        for w in words("01", 7):
            assert evaluate(comp, oracle, w) == evaluate(front, middle, w), w

    def test_back_end_dies_inside_suffix(self):
        front = OracleMealyMachine(
            states=frozenset({"p"}),
            input_alphabet=frozenset("01"),
            oracle_alphabet=frozenset("01"),
            delta={("p", "0"): "p"},
            outputs={("p", "0"): "0"},
            start_state="p",
            # accepts exactly when both queries come back negative
            per_state={"p": (("1", ""), TruthTable(2, (True, False, False, False)))},
        )
        back = OracleMealyMachine(
            states=frozenset({"r"}),
            input_alphabet=frozenset("01"),
            oracle_alphabet=frozenset("01"),
            delta={("r", "0"): "r"},
            outputs={("r", "0"): "0"},
            start_state="r",
            per_state={"r": (("",), TruthTable(1, (False, True)))},
        )
        oracle = lsharp_oracle()
        middle = oracle_from_machine(back, oracle)
        comp = compose(front, back)
        for w in ["", "0", "00", "000"]:
            assert evaluate(comp, oracle, w) == evaluate(front, middle, w), w


class TestComplement:
    @pytest.mark.parametrize("oracle_name", ["lsharp", "l1_le"])
    def test_pointwise_negation(self, oracle_name):
        oracle = corpus.oracle_of(corpus.get_entry(oracle_name))
        m = identity_machine("01")
        comp = complement_machine(m)
        for w in words("01", 10):
            assert evaluate(comp, oracle, w) == (not evaluate(m, oracle, w))

    def test_involution(self):
        m = identity_machine("01")
        twice = complement_machine(complement_machine(m))
        oracle = lsharp_oracle()
        for w in words("01", 10):
            assert evaluate(twice, oracle, w) == evaluate(m, oracle, w)

    def test_sink_path_accepts(self):
        # a machine with no transitions at all rejects everything, so its
        # complement accepts everything, including via the fresh sink
        m = OracleMealyMachine(
            states=frozenset({"q"}),
            input_alphabet=frozenset("01"),
            oracle_alphabet=frozenset("01"),
            delta={},
            outputs={},
            start_state="q",
            per_state={"q": ((), constant_table(False))},
        )
        comp = complement_machine(m)
        oracle = lsharp_oracle()
        assert evaluate(comp, oracle, "10")
        assert evaluate(comp, oracle, "")


def even_length_dfa(alphabet="01"):
    return Dfa(
        states=frozenset({"e", "o"}),
        alphabet=frozenset(alphabet),
        transitions={(q, ch): "eo"[q == "e"] for q in "eo" for ch in alphabet},
        start="e",
        accepting=frozenset({"e"}),
    )


def all_accepting_dfa():
    return Dfa(
        states=frozenset({"s"}),
        alphabet=frozenset("01"),
        transitions={("s", "0"): "s", ("s", "1"): "s"},
        start="s",
        accepting=frozenset({"s"}),
    )


def nothing_dfa():
    return Dfa(
        states=frozenset({"s"}),
        alphabet=frozenset("01"),
        transitions={("s", "0"): "s", ("s", "1"): "s"},
        start="s",
        accepting=frozenset(),
    )


class TestRestrictRegular:
    def test_the_even_length_dfa_accepts_even_lengths(self):
        d = even_length_dfa()
        assert d.accepts("") and d.accepts("01")
        assert not d.accepts("0")

    def test_a_mismatched_alphabet_raises(self):
        with pytest.raises(ValueError, match="alphabet"):
            restrict_regular(identity_machine("01"), even_length_dfa("ab"))

    def test_all_accepting_changes_nothing(self):
        m = identity_machine("01")
        oracle = lsharp_oracle()
        restricted = restrict_regular(m, all_accepting_dfa())
        for w in words("01", 8):
            assert evaluate(restricted, oracle, w) == evaluate(m, oracle, w)

    def test_even_length_conjunction(self):
        m = identity_machine("01")
        oracle = lsharp_oracle()
        d = even_length_dfa()
        restricted = restrict_regular(m, d)
        for w in words("01", 10):
            assert evaluate(restricted, oracle, w) == (
                evaluate(m, oracle, w) and len(w) % 2 == 0
            )

    def test_comma_state_names_do_not_collide(self):
        front = validate_mealy(COMMA_FRONT)
        parity = Dfa(
            states=frozenset({"b,c", "c"}),
            alphabet=frozenset("01"),
            transitions={("b,c", "0"): "c", ("b,c", "1"): "c", ("c", "0"): "b,c", ("c", "1"): "b,c"},
            start="b,c",
            accepting=frozenset({"b,c"}),
        )
        restricted = restrict_regular(front, parity)
        oracle = lsharp_oracle()
        for w in words("01", 6):
            assert evaluate(restricted, oracle, w) == (
                evaluate(front, oracle, w) and len(w) % 2 == 0
            ), w

    def test_empty_language_is_constant_false(self):
        m = identity_machine("01")
        restricted = restrict_regular(m, nothing_dfa())
        oracle = lsharp_oracle()
        assert not any(evaluate(restricted, oracle, w) for w in words("01", 6))

    def test_dfa_must_be_total(self):
        with pytest.raises(InvalidMachineError):
            Dfa(
                states=frozenset({"s"}),
                alphabet=frozenset("01"),
                transitions={("s", "0"): "s"},
                start="s",
                accepting=frozenset(),
            )


def zero_one_star_dfa():
    # words of the form (01)*
    return Dfa(
        states=frozenset({"even", "saw0", "dead"}),
        alphabet=frozenset("01"),
        transitions={
            ("even", "0"): "saw0",
            ("even", "1"): "dead",
            ("saw0", "0"): "dead",
            ("saw0", "1"): "even",
            ("dead", "0"): "dead",
            ("dead", "1"): "dead",
        },
        start="even",
        accepting=frozenset({"even"}),
    )


class TestLiftDfa:
    def test_accepts_like_the_dfa(self):
        lifted = lift_dfa(zero_one_star_dfa(), "01")
        oracle = lsharp_oracle()
        assert evaluate(lifted, oracle, "0101")
        assert not evaluate(lifted, oracle, "010")

    def test_oracle_independence(self):
        lifted = lift_dfa(zero_one_star_dfa(), "01")
        first = lsharp_oracle()
        second = l1_oracle()
        for w in words("01", 10):
            assert evaluate(lifted, first, w) == evaluate(lifted, second, w)

    def test_rejecting_start_rejects_epsilon(self):
        lifted = lift_dfa(nothing_dfa(), "01")
        assert not evaluate(lifted, lsharp_oracle(), "")

    def test_an_empty_oracle_alphabet_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            lift_dfa(even_length_dfa(), [])


# Candidate machines for the marked-palindrome refutation, all over input
# {a, b, c}.  None of them can be a correct reduction; each gets caught by a
# prefix collision.

def copier_machine():
    symbols = "abc"
    return OracleMealyMachine(
        states=frozenset({"q"}),
        input_alphabet=frozenset(symbols),
        oracle_alphabet=frozenset(symbols),
        delta={("q", s): "q" for s in symbols},
        outputs={("q", s): s for s in symbols},
        start_state="q",
        per_state={"q": (("",), TruthTable(1, (False, True)))},
    )


def silent_machine():
    symbols = "abc"
    return OracleMealyMachine(
        states=frozenset({"q"}),
        input_alphabet=frozenset(symbols),
        oracle_alphabet=frozenset("01"),
        delta={("q", s): "q" for s in symbols},
        outputs={("q", s): "" for s in symbols},
        start_state="q",
        per_state={"q": (("01",), TruthTable(1, (False, True)))},
    )


def length_counter_machine():
    # counts letters as 0s, then counts letters after the c as 1s: correct
    # on a^m c a^m but blind to the letters themselves
    return OracleMealyMachine(
        states=frozenset({"s0", "s1"}),
        input_alphabet=frozenset("abc"),
        oracle_alphabet=frozenset("01"),
        delta={
            ("s0", "a"): "s0",
            ("s0", "b"): "s0",
            ("s0", "c"): "s1",
            ("s1", "a"): "s1",
            ("s1", "b"): "s1",
        },
        outputs={
            ("s0", "a"): "0",
            ("s0", "b"): "0",
            ("s0", "c"): "",
            ("s1", "a"): "1",
            ("s1", "b"): "1",
        },
        start_state="s0",
        per_state={
            "s0": ((), constant_table(False)),
            "s1": (("",), TruthTable(1, (False, True))),
        },
    )


def wide_tree_machine(depth=6):
    # pairwise distinct states for every {a,b}-prefix up to `depth`: no
    # collisions exist within that bound, so refutation must give up
    states = {""}
    delta = {}
    outputs = {}
    for n in range(depth):
        for prefix in map("".join, product("ab", repeat=n)):
            states.add(prefix)
            for s in "ab":
                states.add(prefix + s)
                delta[(prefix, s)] = prefix + s
                outputs[(prefix, s)] = ""
    return OracleMealyMachine(
        states=frozenset(states),
        input_alphabet=frozenset("abc"),
        oracle_alphabet=frozenset("01"),
        delta=delta,
        outputs=outputs,
        start_state="",
        per_state={q: ((), constant_table(False)) for q in states},
    )


def lr_predicate(w):
    i = w.find("c")
    if i < 0 or w.find("c", i + 1) >= 0:
        return False
    return w[:i] == w[i + 1 :][::-1] and set(w[:i]) <= {"a", "b"}


class TestRefuteLR:
    @pytest.mark.parametrize(
        "build", [copier_machine, silent_machine, length_counter_machine]
    )
    def test_candidates_are_refuted(self, build):
        machine = build()
        word = refute_simplicity_LR(machine, k_max=6)
        assert word is not None
        # shape w1 c w2^R with w1, w2 over {a,b}
        i = word.index("c")
        assert set(word[:i]) <= {"a", "b"} and set(word[i + 1 :]) <= {"a", "b"}
        # confirmed misclassification against the direct predicate
        oracle = LanguageOracle(frozenset("01abc"), corpus.get_entry("lsharp").predicate)
        assert evaluate(machine, oracle, word) != lr_predicate(word)

    def test_no_collision_within_bound_gives_none(self):
        assert refute_simplicity_LR(wide_tree_machine(), k_max=5) is None

    def test_a_dead_prefix_refutes(self):
        # The transducer dies on every prefix of length 7, so the machine
        # rejects the marked palindrome w c wᴿ for the first of them.
        assert refute_simplicity_LR(wide_tree_machine(), k_max=7) == "aaaaaaacaaaaaaa"

    def test_the_separator_is_the_distinguishers_word(self):
        # After w over {a, b}, lr accepts exactly c wᴿ, so c·min(w1ᴿ, w2ᴿ)
        # is the (length, lex)-least word that separates w1 from w2: the
        # distinguisher on lr's graph must return that very word.
        lr = corpus.get_entry("lr").machine
        graph = analysis._Product(lr)
        start = graph.close(lr.start_configuration())[0]
        pairs = 0
        for k in range(1, 7):
            for w1, w2 in combinations(map("".join, product("ab", repeat=k)), 2):
                s1, s2 = graph.read(start, w1)[0], graph.read(start, w2)[0]
                assert analysis.distinguishing_word(graph, s1, s2) == "c" + min(w1[::-1], w2[::-1])
                pairs += 1
        assert pairs == 2667

    def test_tapes_at_one_position_collide(self):
        # "01" and "0011" differ as tapes but leave the 0^n1^n oracle at
        # one run position, so a and b already collide at k = 1.
        machine = OracleMealyMachine(
            states=frozenset({"q"}),
            input_alphabet=frozenset("abc"),
            oracle_alphabet=frozenset("01"),
            delta={("q", ch): "q" for ch in "abc"},
            outputs={("q", "a"): "01", ("q", "b"): "0011", ("q", "c"): ""},
            start_state="q",
            per_state={"q": (("",), IDENTITY_TABLE)},
        )
        word = refute_simplicity_LR(machine, k_max=1)
        assert word == "aca"
        oracle = LanguageOracle(frozenset("01"), corpus.get_entry("lsharp").predicate)
        assert evaluate(machine, oracle, word) != lr_predicate(word)


def partial_machine():
    # "s" has no transitions and "r" reads only some letters; the tables
    # have arity 1, 2 and 3
    return OracleMealyMachine(
        states=frozenset({"p", "r", "s"}),
        input_alphabet=frozenset("01"),
        oracle_alphabet=frozenset("01"),
        delta={("p", "0"): "r", ("p", "1"): "p", ("r", "0"): "r", ("r", "1"): "s"},
        outputs={("p", "0"): "0", ("p", "1"): "", ("r", "0"): "01", ("r", "1"): "11"},
        start_state="p",
        per_state={
            "p": (("",), IDENTITY_TABLE),
            "r": (("1", "0"), TruthTable(2, (True, False, False, True))),
            "s": (("", "1", "01"), TruthTable(3, (False, True, True, False, True, False, False, True))),
        },
    )


# sha256 of each composable pair of corpus reducers' `compose` document
# (sorted-key JSON), pinned from the implementation that read `delta` and
# `outputs` directly.  Runs under PYTHONHASHSEED=0 and =1 write the same file.
COMPOSED = Path(__file__).parent / "data" / "compose_golden.json"

REFERENCE_MACHINES = (
    ["identity_01", "identity_abc", "partial"]
    + [f"reducer_{name}" for name in NONREGULAR]
    + [f"compose_{name}" for name in NONREGULAR]
)


@pytest.fixture(scope="module")
def reference_machines(lsharp_reducers):
    """name -> (machine, membership predicate of its oracle language)."""
    out = {
        "identity_01": (identity_machine("01"), corpus.is_lsharp),
        "identity_abc": (identity_machine("abc"), lr_predicate),
        "partial": (partial_machine(), corpus.is_lsharp),
    }
    front = lsharp_reducers["lsharp"]
    for name in NONREGULAR:
        predicate = corpus.get_entry(name).predicate
        out[f"reducer_{name}"] = (lsharp_reducers[name], predicate)
        out[f"compose_{name}"] = (compose(front, lsharp_reducers[name]), predicate)
    return out


class TestReferenceEvaluation:
    @pytest.mark.parametrize("name", REFERENCE_MACHINES)
    def test_evaluate_and_transduce_match_the_reference(self, name, reference_machines):
        """The machine, its complement and its restriction to even length,
        on every word up to length 8 (6 over three letters)."""
        base, predicate = reference_machines[name]
        alphabet = sorted(base.input_alphabet)
        oracle = LanguageOracle(base.oracle_alphabet, predicate)
        for m in (base, complement_machine(base), restrict_regular(base, even_length_dfa(alphabet))):
            for w in words(alphabet, 8 if len(alphabet) == 2 else 6):
                assert transduce(m, w) == bf.ref_transduce(m, w), (name, w)
                assert evaluate(m, oracle, w) == bf.ref_evaluate(m, predicate, w), (name, w)


class TestStepTable:
    @pytest.mark.parametrize("build", [partial_machine, wide_tree_machine, lambda: identity_machine("abc")])
    def test_one_entry_per_defined_move(self, build):
        m = build()
        table = m.step_table
        assert table is m.step_table and set(table) == m.states
        moves = {(q, ch): hit for q, row in table.items() for ch, hit in row.items()}
        assert moves.keys() == m.delta.keys()
        for key, (nxt, out, row) in moves.items():
            assert (nxt, out) == (m.delta[key], m.outputs[key]) and row is table[nxt]

    @pytest.mark.parametrize(
        "runs, make",
        [
            pytest.param(False, None, id="False"),
            pytest.param(True, None, id="True"),
            pytest.param(True, copy.copy, id="copy"),
            pytest.param(True, copy.deepcopy, id="deepcopy"),
            pytest.param(True, lambda m: pickle.loads(pickle.dumps(m)), id="pickle"),
        ],
    )
    def test_a_dropped_machine_leaves_no_garbage_cycles(self, runs, make):
        # Resolved rows refer back to themselves whenever the states loop;
        # without the cyclic collector they must still be freed.  A copy of
        # a machine that has run compiles a table of its own.
        oracle = LanguageOracle(frozenset("01"), corpus.is_lsharp)
        gc.collect()
        gc.disable()
        try:
            m = partial_machine()
            if runs:
                assert evaluate(m, oracle, "000") and not evaluate(m, oracle, "001")
            if make is not None:
                c = make(m)
                assert c == m and "step_table" not in vars(c)
                assert evaluate(c, oracle, "000") and not evaluate(c, oracle, "001")
                del c
            del m
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "make",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_runs_after_its_original_is_freed(self, make):
        oracle = LanguageOracle(frozenset("01"), corpus.is_lsharp)
        m = partial_machine()
        assert evaluate(m, oracle, "000")
        c = make(m)
        assert c == m and "step_table" not in vars(c)
        del m
        gc.collect()
        for w in words("01", 6):
            assert transduce(c, w) == bf.ref_transduce(c, w), w
            assert evaluate(c, oracle, w) == bf.ref_evaluate(c, corpus.is_lsharp, w), w

    def test_reading_the_table_keeps_equality(self):
        doc = mealy_to_document(partial_machine())
        m = validate_mealy(doc)
        m.step_table
        assert validate_mealy(mealy_to_document(m)) == m
        assert mealy_to_document(m) == doc

    def test_compose_matches_the_golden_documents(self, lsharp_reducers):
        golden = json.loads(COMPOSED.read_text())
        got = {}
        for f, b in product(sorted(lsharp_reducers), repeat=2):
            front, back = lsharp_reducers[f], lsharp_reducers[b]
            if front.oracle_alphabet == back.input_alphabet:
                doc = json.dumps(mealy_to_document(compose(front, back)), sort_keys=True)
                got[f"{f}>{b}"] = hashlib.sha256(doc.encode()).hexdigest()
        assert got == golden
