import ast
import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflab import corpus, dpda
from dcflab.dpda import (
    _BLOCK,
    _SHORT,
    _WINDOW,
    Configuration,
    InvalidMachineError,
    StuckError,
    advance,
    complete_dpda,
    config_member,
    dpda_to_document,
    member,
    validate_dpda,
)
from dcflab.witness import find_witness

import bruteforce as bf

# sha256 of each machine's completed document, json.dumps of
# dpda_to_document(complete_dpda(validate_dpda(doc))): the corpus, counter
# and random-suite documents and the random ε-machines.  Runs under
# PYTHONHASHSEED=0 and =1 write the same file.
COMPLETED = Path(__file__).parent / "data" / "completed_machines.json"


@pytest.fixture(scope="module")
def lsharp_raw():
    return validate_dpda(bf.LSHARP_RAW)


@pytest.fixture(scope="module")
def lsharp():
    return complete_dpda(validate_dpda(bf.LSHARP_RAW))


@pytest.fixture(scope="module")
def eps_chain():
    return complete_dpda(validate_dpda(bf.EPS_CHAIN_RAW))


def violation_kinds(excinfo):
    return {v.kind for v in excinfo.value.violations}


class TestValidation:
    def test_corpus_shape_document_is_valid(self):
        m = validate_dpda(bf.LSHARP_RAW)
        assert m.start_state == "q0"
        assert len(m.rules) == 7

    def test_duplicate_rule(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["rules"].append({"from": "q0", "top": "X0", "label": "0", "to": "q1", "push": []})
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert "DuplicateRule" in violation_kinds(excinfo)

    def test_epsilon_visible_conflict(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["rules"].append({"from": "q0", "top": "X0", "label": "", "to": "q1", "push": []})
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert "EpsilonVisibleConflict" in violation_kinds(excinfo)

    def test_non_popping_epsilon(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["rules"].append({"from": "q1", "top": "X0", "label": "", "to": "q1", "push": ["A"]})
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert "NonPoppingEpsilon" in violation_kinds(excinfo)

    def test_undeclared_symbols(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["rules"].append({"from": "q0", "top": "ZZ", "label": "0", "to": "nope", "push": []})
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert "UndeclaredSymbol" in violation_kinds(excinfo)

    def test_unknown_field_rejected(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["mystery"] = 1
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert "UnknownField" in violation_kinds(excinfo)

    def test_all_violations_collected(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["rules"].append({"from": "q0", "top": "X0", "label": "0", "to": "q1", "push": []})
        doc["rules"].append({"from": "q1", "top": "X0", "label": "", "to": "q1", "push": ["A"]})
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert {"DuplicateRule", "NonPoppingEpsilon"} <= violation_kinds(excinfo)

    def test_report_lists_every_defect_in_order(self):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc["zeta"] = 2
        doc["mystery"] = 1
        doc["accepting"] = ["qf", "zz"]
        doc["rules"] += [
            "not a rule",
            {"from": "q0", "top": "A", "label": "0", "to": "q0", "push": [], "extra": 1},
            {"from": "q0", "top": "A", "label": "1", "to": "q1", "push": "A"},
            {"from": 1, "top": "A", "label": "0", "to": ["q0"], "push": []},
            {"from": "nowhere", "top": "ZZ", "label": "z", "to": "nope", "push": ["A", "YY"]},
            {"from": "q1", "top": "X0", "label": "", "to": "q1", "push": ["A"]},
            {"from": "qf", "top": "A", "label": "", "to": "q1", "push": []},
            {"from": "qf", "top": "A", "label": "", "to": "q0", "push": []},
            {"from": "q0", "top": "X0", "label": "0", "to": "q1", "push": []},
            {"from": "q1", "top": "A", "label": "", "to": "q1", "push": []},
        ]
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert [str(v) for v in excinfo.value.violations] == [
            "UnknownField: mystery",
            "UnknownField: zeta",
            "UndeclaredSymbol: accepting state zz",
            "BadType: rules[7] must have fields from/top/label/to/push",
            "BadType: rules[8] must have fields from/top/label/to/push",
            "BadType: rules[9].push",
            "BadType: rules[10].from must be a string",
            "BadType: rules[10].to must be a string",
            "UndeclaredSymbol: rules[11].from",
            "UndeclaredSymbol: rules[11].to",
            "UndeclaredSymbol: rules[11].top",
            "UndeclaredSymbol: rules[11].push 'YY'",
            "UndeclaredSymbol: rules[11].label",
            "NonPoppingEpsilon: q1 X0 -ε-> q1 pushes",
            "DuplicateRule: (q0, X0, 0)",
            "DuplicateRule: (qf, A, ε)",
            "EpsilonVisibleConflict: (q1, A)",
        ]

    def test_report_on_unusable_fields_lists_every_defect_in_order(self):
        doc = {
            "states": "q0",
            "input_alphabet": ["0", 1],
            "rules": {},
            "start_state": "q0",
            "start_symbol": 3,
            "accepting": [],
            "mystery": 1,
        }
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert [str(v) for v in excinfo.value.violations] == [
            "UnknownField: mystery",
            "BadType: input_alphabet must be a list of strings",
            "BadType: rules must be a list",
            "MissingField: stack_alphabet",
            "BadType: start_symbol must be a string",
            "BadType: states must be a list of strings",
        ]

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("input_alphabet", [], "BadType: input_alphabet must be nonempty"),
            ("stack_alphabet", [], "BadType: stack_alphabet must be nonempty"),
            ("input_alphabet", ["0", "1", "01"], "BadSymbol: input symbol '01' is not a single character"),
            ("stack_alphabet", ["X0", "A", ""], "BadSymbol: empty stack symbol"),
            ("start_state", "nowhere", "UndeclaredSymbol: start_state"),
            ("start_symbol", "ZZ", "UndeclaredSymbol: start_symbol"),
        ],
    )
    def test_each_alphabet_and_start_defect_is_named(self, field, value, expected):
        doc = copy.deepcopy(bf.LSHARP_RAW)
        doc[field] = value
        with pytest.raises(InvalidMachineError) as excinfo:
            validate_dpda(doc)
        assert expected in [str(v) for v in excinfo.value.violations]

    def test_document_round_trip(self, lsharp_raw):
        again = validate_dpda(dpda_to_document(lsharp_raw))
        assert set(again.rules) == set(lsharp_raw.rules)
        assert again.states == lsharp_raw.states
        assert again.accepting == lsharp_raw.accepting


class TestCompletion:
    def test_language_preserved_with_stuck_as_reject(self, lsharp_raw, lsharp):
        for w in bf.iter_words("01", 10):
            assert member(lsharp, w) == bf.ref_member(lsharp_raw, w), w

    def test_language_preserved_on_eps_machine(self, eps_chain):
        raw = validate_dpda(bf.EPS_CHAIN_RAW)
        for w in bf.iter_words("01", 9):
            assert member(eps_chain, w) == bf.ref_member(raw, w), w

    def test_bad_word_ends_in_fail_state(self, lsharp):
        final, accepted = advance(lsharp, lsharp.start_configuration(), "10")
        assert not accepted
        assert final.state == "fail"

    def test_double_completion_preserves_language(self, lsharp):
        twice = complete_dpda(lsharp)
        for w in bf.iter_words("01", 10):
            assert member(twice, w) == member(lsharp, w), w

    def test_completion_reads_the_rule_list_only(self):
        raw = validate_dpda(bf.EPS_CHAIN_RAW)
        complete_dpda(raw)
        assert "step_table" not in vars(raw)

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
        # Compiled step tables refer back to themselves whenever the states
        # loop; without the cyclic collector they must still be freed.  A
        # copy of a machine that has run compiles a table of its own.
        gc.collect()
        gc.disable()
        try:
            m = complete_dpda(validate_dpda(bf.LSHARP_RAW))
            if runs:
                assert member(m, "0011")
            if make is not None:
                c = make(m)
                assert c == m and "step_table" not in vars(c)
                assert member(c, "0011") and not member(c, "0010")
                del c
            del m
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_copy_runs_after_its_original_is_freed(self):
        m = complete_dpda(validate_dpda(bf.LSHARP_RAW))
        assert member(m, "01")
        c = copy.copy(m)
        del m
        gc.collect()
        assert member(c, "0011") and not member(c, "0010")

    def test_empty_language_machine_routes_to_fail(self):
        m = complete_dpda(validate_dpda(bf.EMPTY_LANGUAGE_RAW))
        for w in bf.iter_words("01", 4):
            final, accepted = advance(m, m.start_configuration(), w)
            assert not accepted
            if w:
                assert final.state == "fail"

    def test_totality(self, lsharp, eps_chain):
        for m in (lsharp, eps_chain):
            for w in bf.iter_words("01", 8):
                member(m, w)  # must not raise

    def test_raw_machine_can_stick(self, lsharp_raw):
        with pytest.raises(StuckError) as excinfo:
            member(lsharp_raw, "10")
        assert excinfo.value.position == 0

    def test_fresh_names_skip_the_taken_ones(self):
        # The machine already uses fail, fail2, init and ⊥, ⊥2, so the
        # completion takes the next free name of each.
        doc = {
            "states": ["init", "fail", "fail2"],
            "input_alphabet": ["0", "1"],
            "stack_alphabet": ["⊥", "⊥2"],
            "rules": [
                {"from": "init", "top": "⊥", "label": "0", "to": "fail", "push": ["⊥2", "⊥"]},
                {"from": "fail", "top": "⊥2", "label": "0", "to": "fail", "push": ["⊥2", "⊥2"]},
                {"from": "fail", "top": "⊥2", "label": "1", "to": "fail2", "push": []},
                {"from": "fail2", "top": "⊥2", "label": "1", "to": "fail2", "push": []},
                {"from": "fail2", "top": "⊥", "label": "", "to": "init", "push": []},
            ],
            "start_state": "init",
            "start_symbol": "⊥",
            "accepting": ["init"],
        }
        raw = validate_dpda(doc)
        m = complete_dpda(raw)
        assert m.start_state == "init2" and m.start_symbol == "⊥3"
        assert m.states == raw.states | {"init2", "fail3"}
        assert m.stack_alphabet == raw.stack_alphabet | {"⊥3"}
        assert member(m, "0011") and not member(m, "0010")
        for w in bf.iter_words("01", 8):
            assert member(m, w) == bf.ref_member(raw, w), w

    def test_start_epsilon_chain_that_empties_the_stack(self):
        # the language {ε}, accepted through an ε-pop of the start symbol
        doc = {
            "states": ["q0", "qf"],
            "input_alphabet": ["0"],
            "stack_alphabet": ["X0"],
            "rules": [{"from": "q0", "top": "X0", "label": "", "to": "qf", "push": []}],
            "start_state": "q0",
            "start_symbol": "X0",
            "accepting": ["qf"],
        }
        m = complete_dpda(validate_dpda(doc))
        assert member(m, "")
        assert not member(m, "0")
        assert not member(m, "00")


class TestRun:
    def test_membership_examples(self, lsharp):
        assert member(lsharp, "0011")
        assert not member(lsharp, "001")
        assert member(lsharp, "01")
        assert not member(lsharp, "")

    def test_empty_word_uses_start_closure(self, eps_chain):
        assert not member(eps_chain, "")

    def test_acceptance_through_epsilon_chain(self, eps_chain):
        # the accepting state is only ever visited inside the ε-chain
        final, accepted = advance(eps_chain, eps_chain.start_configuration(), "001")
        assert accepted
        assert final.state == "done"
        for w in bf.iter_words("01", 9):
            assert member(eps_chain, w) == bf.eps_chain_predicate(w), w

    @given(st.text(alphabet="01", max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_runs_are_deterministic(self, w):
        m = complete_dpda(validate_dpda(bf.LSHARP_RAW))
        first = advance(m, m.start_configuration(), w)
        second = advance(m, m.start_configuration(), w)
        assert first == second
        assert member(m, w) == member(m, w) == first[1]

    @given(st.text(alphabet="01", max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_member_matches_reference(self, w):
        raw = validate_dpda(bf.EPS_CHAIN_RAW)
        m = complete_dpda(raw)
        assert member(m, w) == bf.ref_member(raw, w)


class TestStepClosure:
    def test_stable_configuration_is_fixed(self, lsharp):
        c = Configuration("q0", ("A", "X0"))
        stable, acc = advance(lsharp, c, "")
        assert stable == c
        assert not acc

    def test_one_step_chain_into_accepting(self, eps_chain):
        stable, acc = advance(eps_chain, Configuration("pe", ("A", "X0")), "")
        assert acc
        assert stable.state == "done"
        assert stable.stack == ()

    def test_chain_length_bounded_by_stack(self, eps_chain):
        stack = ("A",) * 6 + ("X0",)
        stable, acc = advance(eps_chain, Configuration("pe", stack), "")
        assert stable.stack == ()
        assert acc

    def test_mid_run_configuration(self, lsharp):
        reached = advance(lsharp, lsharp.start_configuration(), "00")
        assert reached is not None
        assert config_member(lsharp, reached[0], "11")
        assert not config_member(lsharp, reached[0], "1")


class TestConfigMember:
    def test_start_configuration_agrees_with_member(self, lsharp):
        start = lsharp.start_configuration()
        for w in bf.iter_words("01", 7):
            assert config_member(lsharp, start, w) == member(lsharp, w)

    def test_fail_configuration_rejects_everything(self, lsharp):
        fail = Configuration("fail", (lsharp.start_symbol,))
        for w in bf.iter_words("01", 4):
            assert not config_member(lsharp, fail, w)

    def test_empty_stack_configuration(self, lsharp):
        empty_nonacc = Configuration("q0", ())
        assert not config_member(lsharp, empty_nonacc, "0")
        assert not config_member(lsharp, empty_nonacc, "")
        empty_acc = Configuration("qf", ())
        assert config_member(lsharp, empty_acc, "")
        assert not config_member(lsharp, empty_acc, "1")

    def test_foreign_state_or_symbol_is_stuck(self, lsharp):
        for c in (Configuration("nowhere", ("A",)), Configuration("q0", ("nothing",))):
            assert not config_member(lsharp, c, "")
            assert not config_member(lsharp, c, "01")
            assert advance(lsharp, c, "0") is None
            assert advance(lsharp, c, "") == (c, False)


WORDS_UP_TO_6 = list(bf.iter_words("01", 6))


def random_eps_machine(rng):
    """A raw machine over {0, 1} whose bottom symbol X0 is never popped.
    Some (state, top) pairs above it, at least one, carry a popping ε-rule
    and the others visible rules pushing up to two symbols.  Visible rules
    are left out at random, so runs can stick.  Draws again until the
    reference accepts some but not all words of length <= 6."""
    while True:
        states = [f"s{i}" for i in range(rng.randint(2, 4))]
        bottom, *above = [f"X{i}" for i in range(rng.randint(2, 3))]
        eps_pairs = {(rng.choice(states), rng.choice(above))}
        rules = []
        for p in states:
            for x in [bottom, *above]:
                if (p, x) in eps_pairs or (x != bottom and rng.random() < 0.35):
                    rules.append({"from": p, "top": x, "label": "", "to": rng.choice(states), "push": []})
                    continue
                for a in "01":
                    if rng.random() < 0.85:
                        push = [rng.choice(above) for _ in range(rng.randint(0, 2))]
                        if x == bottom:
                            push.append(bottom)
                        rules.append({"from": p, "top": x, "label": a, "to": rng.choice(states), "push": push})
        raw = validate_dpda(
            {
                "states": states,
                "input_alphabet": ["0", "1"],
                "stack_alphabet": [bottom, *above],
                "rules": rules,
                "start_state": states[0],
                "start_symbol": bottom,
                "accepting": [q for q in states if rng.random() < 0.4],
            }
        )
        accepted = sum(bf.ref_member(raw, w) for w in WORDS_UP_TO_6)
        if 0 < accepted < len(WORDS_UP_TO_6):
            return raw


@pytest.mark.parametrize("seed", range(30))
def test_runs_agree_with_reference_on_random_eps_machines(seed):
    raw = random_eps_machine(random.Random(seed))
    m = complete_dpda(raw)
    for w in WORDS_UP_TO_6:
        want = bf.ref_member(raw, w)
        assert member(m, w) == want, w
        assert config_member(m, m.start_configuration(), w) == want, w
        assert advance(m, m.start_configuration(), w)[1] == want, w
        assert config_member(raw, raw.start_configuration(), w) == want, w


# The corpus machines and 30 random ε-machines, raw and completed.
SMALL_MACHINES = [
    pytest.param(corpus.get_entry(name).machine, id=name) for name in corpus.names()
] + [
    pytest.param(make(random_eps_machine(random.Random(seed))), id=f"eps{seed}{form}")
    for seed in range(30)
    for form, make in (("", lambda raw: raw), ("-completed", complete_dpda))
]


def run_record(m, w):
    """Everything the public runs report on w from the start."""
    try:
        accepted = member(m, w)
    except StuckError as e:
        accepted = ("stuck", e.position)
    start = m.start_configuration()
    return accepted, advance(m, start, w), config_member(m, start, w)


@pytest.mark.parametrize("m", SMALL_MACHINES)
def test_rule_order_does_not_matter(m):
    # A step table that resolved a rule's next move before that move's own
    # entry was made would read it as stuck for some rule orders.
    words = list(bf.iter_words(m.input_alphabet, 6))
    want = [run_record(m, w) for w in words]
    for w, (accepted, _, in_language) in zip(words, want):
        assert in_language == bf.ref_member(m, w), w
        if m.completed:
            assert accepted == in_language, w
    for seed in range(3):
        rules = list(m.rules)
        random.Random(seed).shuffle(rules)
        shuffled = dataclasses.replace(m, rules=tuple(rules))
        assert [run_record(shuffled, w) for w in words] == want, seed


@pytest.mark.parametrize("m", SMALL_MACHINES)
def test_visit_heights_match_the_reference(m):
    # `analysis._levels` reads levels off the heights of the stable sides
    # alone, because from a letter's own step to the next letter the run
    # only pops: of the heights it visits since the letter, the stable one
    # is the lowest.
    start = (m.start_symbol,)
    for w in bf.iter_words(m.input_alphabet, 6):
        before = bf.ref_heights(m, m.start_state, start, w[:-1])
        heights = bf.ref_heights(m, m.start_state, start, w)
        assert heights[: len(before)] == before, w
        since = heights[len(before) :]  # the last letter's step and its ε-steps
        assert all(a > b for a, b in zip(since, since[1:])), w
        stable = advance(m, m.start_configuration(), w)
        if stable is not None and since:
            assert len(stable[0].stack) == since[-1], w


def test_reference_reads_only_the_rule_list():
    tree = ast.parse(Path(bf.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "dcflab" for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "dcflab", node.lineno
        elif isinstance(node, ast.Attribute):
            assert node.attr not in {"visible", "eps", "moves", "step_table"}, node.lineno


def long_words(m, rng, count):
    """`count` words p0 p1^i p2 p3^j p4 over m's letters, each at least
    `_SHORT` letters long, so `member` reads them in blocks."""
    sigma = sorted(m.input_alphabet)

    def piece(lo):
        return "".join(rng.choice(sigma) for _ in range(rng.randint(lo, 4)))

    for _ in range(count):
        p0, p1, p2, p3, p4 = piece(0), piece(1), piece(0), piece(1), piece(0)
        head = p0 + p1 * rng.randint(0, _SHORT // len(p1)) + p2
        j = -(-max(0, _SHORT - len(head) - len(p4)) // len(p3))  # reaches _SHORT
        yield head + p3 * rng.randint(j, j + 60) + p4


@pytest.mark.parametrize("m", SMALL_MACHINES)
def test_blocked_member_matches_the_reference_on_long_words(m):
    for w in long_words(m, random.Random(len(m.rules)), 8):
        consumed = dpda._drive(m, m.start_state, [m.start_symbol], w)[2]
        if consumed < len(w):
            assert not bf.ref_member(m, w), w
            with pytest.raises(StuckError) as excinfo:
                member(m, w)
            assert excinfo.value.position == consumed, w
        else:
            assert member(m, w) == bf.ref_member(m, w), w


def marker_machine():
    """A raw machine that pushes a marker B (on b) or C (on c), then one A
    per letter.  `k` moves p to q, where `d` sets off an ε-chain that pops
    every A down to the marker: B leads to the accepting f, C to g.  No
    rule reads `k` in q."""
    rules = [("s", "X0", "b", "p", ["B", "X0"]), ("s", "X0", "c", "p", ["C", "X0"])]
    for top in ("A", "B", "C"):
        rules += [("p", top, a, to, ["A", top]) for a, to in (("a", "p"), ("d", "p"), ("k", "q"))]
        rules.append(("q", top, "a", "q", ["A", top]))
    rules += [("q", "A", "d", "e", []), ("e", "A", "", "e", []), ("e", "B", "", "f", []), ("e", "C", "", "g", [])]
    return validate_dpda(
        {
            "states": ["s", "p", "q", "e", "f", "g"],
            "input_alphabet": ["a", "b", "c", "d", "k"],
            "stack_alphabet": ["X0", "A", "B", "C"],
            "rules": [{"from": f, "top": x, "label": a, "to": t, "push": p} for f, x, a, t, p in rules],
            "start_state": "s",
            "start_symbol": "X0",
            "accepting": ["f"],
        }
    )


def marker_word(marker, turn, last):
    """A word of whole `_BLOCK`-letter blocks, `_SHORT` letters long: the
    marker and a's, a's, `last` (read in p), `turn` and a's, a's, and
    `last` again, so that the last block repeats an earlier one."""
    fill = "a" * (_BLOCK - 1)
    middle = ["a" + fill] * (_SHORT // _BLOCK - 5)
    return "".join([marker + fill, "a" + fill, last, turn + fill, *middle, last])


def test_a_run_that_empties_its_window_is_not_memoised():
    # `member` tries the last block, read in q, on a window copy, whose run
    # empties the window after its last letter; replaying that run on the
    # real stack would drop the chain's end, and with it the one difference
    # between the two words.
    m = marker_machine()
    words = [marker_word(marker, "k", "a" * (_BLOCK - 1) + "d") for marker in "bc"]
    assert words[0].count("a") > _WINDOW  # the chain pops below a window
    assert [member(m, w) for w in words] == [True, False]
    assert [bf.ref_member(m, w) for w in words] == [True, False]


def test_a_run_that_sticks_in_a_repeated_block_is_not_memoised():
    # The first `last` moves p to q on its `k`; the second sticks on it.
    m = marker_machine()
    word = marker_word("b", "a", "a" * (_BLOCK - 1) + "k")
    with pytest.raises(StuckError) as excinfo:
        member(m, word)
    assert excinfo.value.position == len(word) - 1


def test_a_periodic_word_is_read_once_per_stack_window(monkeypatch):
    # The counter machine for 0^n 1^n, k | n, at k = 13 and its grid word
    # at m = n = 620, as the benchmark's `counters` workload reads them.
    from test_witness import bench_machines  # test_witness imports this module

    m = complete_dpda(validate_dpda(bench_machines().counter_doc(13)))
    t = find_witness(m)
    word = t.v + t.x * 620 + t.w + t.y * 620 + t.z
    letters = []
    real_drive = dpda._drive

    def drive(m, state, stack, w):
        letters.append(len(w))
        return real_drive(m, state, stack, w)

    monkeypatch.setattr(dpda, "_drive", drive)
    assert member(m, word)
    assert sum(letters) < len(word) / 10, (sum(letters), len(word))


def stack_reader(d):
    """A raw machine whose block `x y n^30` pops exactly d stack symbols
    and pushes the same d back.  In s, `p` pushes Z, `b` or `c` a marker
    B or C, `a` one A, `u` pops an A, `w` swaps the marker on top, and `n`
    changes nothing.  `x` sets off an ε-chain that pops d - 1 A's, and `y`
    replaces the marker under them by itself and the d - 1 A's, so the
    block reads the top d symbols and nothing below.  `z` pops every A
    down to the marker: B leads to the accepting f, C to g."""
    tops = ("X0", "Z", "A", "B", "C")
    rules = [("s", x, "n", "s", [x]) for x in tops] + [("s", x, "x", "e0", [x]) for x in tops]
    rules += [("s", x, "z", "h", [x]) for x in tops] + [("s", x, "p", "s", ["Z", x]) for x in ("X0", "Z")]
    rules += [("s", "Z", m.lower(), "s", [m, "Z"]) for m in "BC"] + [("s", "A", "u", "s", [])]
    rules += [("s", m, "w", "s", ["C" if m == "B" else "B"]) for m in "BC"]
    rules += [("s", x, "a", "s", ["A", x]) for x in ("A", "B", "C")]
    rules += [(f"e{i}", "A", "", f"e{i + 1}", []) for i in range(d - 1)]
    rules += [(f"e{d - 1}", m, "y", "s", ["A"] * (d - 1) + [m]) for m in "BC"]
    rules += [("h", "A", "", "h", []), ("h", "B", "", "f", []), ("h", "C", "", "g", [])]
    return validate_dpda(
        {
            "states": ["s", "h", "f", "g", *(f"e{i}" for i in range(d))],
            "input_alphabet": list("abcnpuwxyz"),
            "stack_alphabet": list(tops),
            "rules": [{"from": f, "top": x, "label": a, "to": t, "push": p} for f, x, a, t, p in rules],
            "start_state": "s",
            "start_symbol": "X0",
            "accepting": ["f"],
        }
    )


def whole_blocks(letters):
    return letters + "n" * (-len(letters) % _BLOCK)


@pytest.mark.parametrize("d", [1, 3, 4, 5, 15, 16, 17, 47, 48, 49])
def test_a_block_that_reads_d_symbols_is_looked_up_by_at_least_d(d):
    # Z's pad the stack, so that the stack is taller than every window.
    # The marker sits at depth d, the deepest symbol the block reads, both
    # before and after `w` swaps it, so in each word the block runs over
    # two stacks that differ only at depth d.  A lookup keyed by fewer
    # than d symbols would replay the first stack's window onto the
    # second, marker and all.
    m = stack_reader(d)
    block = "xy" + "n" * (_BLOCK - 2)
    for marker in "bc":
        build = whole_blocks("p" * 60 + marker + "a" * (d - 1))
        swap = whole_blocks("u" * (d - 1) + "w" + "a" * (d - 1))
        word = build + block * 4 + swap + block * 4 + "z"
        assert len(word) >= _SHORT
        assert member(m, word) == bf.ref_member(m, word) == (marker == "c"), word


def test_member_keeps_nothing_after_it_returns():
    # A call on the grid word leaves no attribute behind it, and a second
    # call, after the first has warmed every cache, no memory either: the
    # memo dies with the call and nothing is cached on the machine.
    from test_witness import bench_machines  # test_witness imports this module

    m = complete_dpda(validate_dpda(bench_machines().counter_doc(13)))
    t = find_witness(m)
    word = t.v + t.x * 620 + t.w + t.y * 620 + t.z
    attributes = set(vars(m))  # the step table, compiled by `find_witness`
    assert member(m, word)
    assert set(vars(m)) == attributes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert member(m, word)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert set(vars(m)) == attributes
    assert abs(after - before) <= 4096, (before, after)


def completed_machine_digests():
    from test_witness import bench_machines  # test_witness imports this module

    machines = bench_machines()
    docs = {f"counter-{k}": machines.counter_doc(k) for k in machines.COUNTER_KS}
    docs.update((f"random-{i:02d}", doc) for i, doc in enumerate(machines.random_suite()))
    completed = {f"corpus-{name}": corpus.get_entry(name).machine for name in corpus.names()}
    completed.update((name, complete_dpda(validate_dpda(doc))) for name, doc in docs.items())
    for seed in range(30):
        completed[f"eps{seed}"] = complete_dpda(random_eps_machine(random.Random(seed)))
    return {
        name: hashlib.sha256(json.dumps(dpda_to_document(m)).encode()).hexdigest()
        for name, m in completed.items()
    }


def test_completed_machines_match_the_golden_file():
    assert completed_machine_digests() == json.loads(COMPLETED.read_text(encoding="utf-8"))
