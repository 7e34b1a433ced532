import hashlib
import json
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflab import analysis, corpus, dpda
from dcflab.analysis import (
    DISTINGUISH_NODE_CAP,
    ExhaustedError,
    NoLevelsError,
    NoPeriodFoundError,
    distinguishing_word,
    find_divergent_word,
    periodicity,
    pop_summaries,
    pop_witnesses,
    stair_factorize,
)
from dcflab.dpda import Configuration, advance, config_member, complete_dpda, validate_dpda
from dcflab.witness import SearchBudgets

import bruteforce as bf
from test_dpda import SMALL_MACHINES, random_eps_machine
from test_witness import bench_machines


def machine(name):
    return corpus.get_entry(name).machine


def eps_pop_end(m, c):
    """The end of c's ε-closure when that closure empties the stack, else None."""
    end, _ = advance(m, c, "")
    return None if end.stack else end.state


def pumps(m, u):
    """Every pump read off the levels of u."""
    return list(analysis._pumps(m, u, stair_factorize(m, u)))


@pytest.fixture(scope="module")
def lsharp():
    return machine("lsharp")


@pytest.fixture(scope="module")
def eps_chain():
    return complete_dpda(validate_dpda(bf.EPS_CHAIN_RAW))


# End states, symbols and words for the `_pop_step` property: few states and
# short words make equal-length ties and empty (ε-pop) words common.
POP_STATES = st.sampled_from("pqr")
POP_SYMBOLS = st.sampled_from("XY")
POP_WORDS = st.text(alphabet="ab", max_size=2)


def pop_walk(summary, state, stack):
    """The top segments of `stack` that `pop_probes` walks: every one down
    to the first whose pop witnesses from `state` are empty."""
    for k in range(1, len(stack) + 1):
        yield stack[:k]
        if not pop_witnesses(summary, state, stack[:k]):
            return


def bench_suite_machines():
    machines = bench_machines()
    docs = [machines.counter_doc(k) for k in machines.COUNTER_KS] + machines.random_suite()
    return [corpus.get_entry(name).machine for name in corpus.names()] + [
        complete_dpda(validate_dpda(doc)) for doc in docs
    ]


class TestPopSummaries:
    def test_single_popping_rule(self):
        doc = {
            "states": ["p", "q"],
            "input_alphabet": ["a"],
            "stack_alphabet": ["X"],
            "rules": [{"from": "p", "top": "X", "label": "a", "to": "q", "push": []}],
            "start_state": "p",
            "start_symbol": "X",
            "accepting": [],
        }
        s = pop_summaries(validate_dpda(doc))
        assert s[("p", "X")] == {"q": "a"}

    def test_push_only_machine_has_no_entries(self):
        doc = {
            "states": ["p", "q"],
            "input_alphabet": ["a"],
            "stack_alphabet": ["X", "Y"],
            "rules": [{"from": "p", "top": "X", "label": "a", "to": "q", "push": ["Y", "X"]}],
            "start_state": "p",
            "start_symbol": "X",
            "accepting": [],
        }
        s = pop_summaries(validate_dpda(doc))
        assert s.get(("p", "X"), {}) == {}

    @pytest.mark.parametrize("name", ["lsharp", "dyck1", "l1_le"])
    def test_matches_bfs_on_small_stacks(self, name):
        m = machine(name)
        s = pop_summaries(m)
        symbols = sorted(m.stack_alphabet)
        for state in sorted(m.states):
            for height in range(3):
                for stack in product(symbols, repeat=height):
                    got = frozenset(pop_witnesses(s, state, stack))
                    want = bf.bfs_pop_states(m, state, stack, 12)
                    assert got == want, (state, stack)

    def test_witness_replay(self):
        for name in ("lsharp", "dyck1", "lr"):
            m = machine(name)
            s = pop_summaries(m)
            for (p, x), targets in s.items():
                for q, w in targets.items():
                    res = advance(m, Configuration(p, (x,)), w)
                    assert res is not None, (p, x, q, w)
                    assert res[0] == Configuration(q, ()), (p, x, q, w)

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_witnesses_are_least(self, m):
        """Each witness, of one symbol or composed along two, is the
        (length, lex)-least word that pops them, where that word has
        length <= 7."""
        s = pop_summaries(m)
        for p in sorted(m.states):
            for x in sorted(m.stack_alphabet):
                got = {q: w for q, w in s.get((p, x), {}).items() if len(w) <= 7}
                assert got == bf.least_pop_words(m, p, (x,), 7), (p, x)
                for y in sorted(m.stack_alphabet):
                    got = {q: w for q, w in pop_witnesses(s, p, (x, y)).items() if len(w) <= 7}
                    assert got == bf.least_pop_words(m, p, (x, y), 7), (p, x, y)

    def test_eps_entries_on_eps_machine(self, eps_chain):
        assert eps_pop_end(eps_chain, Configuration("pe", ("A", "A", "X0"))) == "done"
        assert eps_pop_end(eps_chain, Configuration("pe", ("A",))) == "hit"
        assert eps_pop_end(eps_chain, Configuration("p", ("A",))) is None

    def test_eps_down_state_matches_direct_simulation(self, eps_chain):
        symbols = sorted(eps_chain.stack_alphabet)
        for state in sorted(eps_chain.states):
            for height in range(3):
                for stack in product(symbols, repeat=height):
                    got = eps_pop_end(eps_chain, Configuration(state, stack))
                    want = bf.eps_pop_end(eps_chain, state, stack)
                    assert got == want, (state, stack)

    def test_es_subset_ds(self, eps_chain):
        s = pop_summaries(eps_chain)
        symbols = sorted(eps_chain.stack_alphabet)
        for state in sorted(eps_chain.states):
            for stack in product(symbols, repeat=2):
                e = eps_pop_end(eps_chain, Configuration(state, stack))
                if e is not None:
                    assert e in pop_witnesses(s, state, stack)

    def test_down_states_empty_stack(self, lsharp):
        s = pop_summaries(lsharp)
        assert frozenset(pop_witnesses(s, "q0", ())) == frozenset({"q0"})

    @given(
        st.dictionaries(st.tuples(POP_STATES, POP_SYMBOLS), st.dictionaries(POP_STATES, POP_WORDS)),
        st.dictionaries(POP_STATES, POP_WORDS),
        POP_SYMBOLS,
    )
    @settings(max_examples=300, deadline=None)
    def test_pop_step_keeps_the_least_concatenation(self, entries, current, symbol):
        # Entries may be empty maps, as `pop_summaries` leaves them while it
        # runs; the least word is taken over every concatenation per end state.
        words = {}
        for q, w in current.items():
            for q2, w2 in entries.get((q, symbol), {}).items():
                words.setdefault(q2, []).append(w + w2)
        want = {q2: min(ws, key=lambda w: (len(w), w)) for q2, ws in words.items()}
        assert analysis._pop_step(entries, current, symbol) == want

    def test_summaries_match_the_pinned_digest(self):
        # Every corpus, counter and random-suite machine's summary, its
        # entries and end states in their order.  The digest was taken
        # before `_pop_step` became the one composition, so a change to
        # any witness word, or to the order the distinguisher reads them
        # in, fails here.
        digest = hashlib.sha256()
        for m in bench_suite_machines():
            s = pop_summaries(m)
            digest.update(json.dumps([[p, x, list(t.items())] for (p, x), t in s.items()]).encode())
        pinned = "a3a20e246dbbf73b0207a207aeb77ca00df22f8384046e8234e649237ab27e06"
        assert digest.hexdigest() == pinned


class TestDistinguishing:
    def test_identical_configurations_have_no_distinguisher(self, lsharp):
        c = advance(lsharp, lsharp.start_configuration(), "0")[0]
        assert distinguishing_word(lsharp, c, c) is None

    def test_a_graph_of_another_machine_raises(self, lsharp):
        # Its steps and pop layers answer for the other machine's runs.
        s = pop_summaries(lsharp)
        c0 = lsharp.start_configuration()
        c1 = advance(lsharp, c0, "0")[0]
        assert distinguishing_word(lsharp, c0, c1, s, graph=analysis._Product(lsharp)) == "1"
        with pytest.raises(ValueError, match="another machine"):
            distinguishing_word(lsharp, c0, c1, s, graph=analysis._Product(machine("dyck1")))

    def test_found_word_actually_separates(self, lsharp):
        s = pop_summaries(lsharp)
        c1 = advance(lsharp, lsharp.start_configuration(), "00")[0]
        c2 = advance(lsharp, lsharp.start_configuration(), "0000")[0]
        w = distinguishing_word(lsharp, c1, c2, s)
        assert w is not None
        assert config_member(lsharp, c1, w) != config_member(lsharp, c2, w)

    @pytest.mark.parametrize("seed", range(30))
    def test_product_search_against_reference(self, seed):
        # Pairs of configurations reached by words of length <= 3, on the
        # raw machine (runs stick) and on its completion.  Wherever a plain
        # product BFS off the rule list closes under its own cap, the
        # distinguisher returns its very word, or None.  In any case a
        # found word separates the pair and no shorter word does; None
        # means no word of length <= 6 separates it, since the depth-6
        # product tree (126 nodes) lies far below the node cap.
        raw = random_eps_machine(random.Random(seed))
        short = list(bf.iter_words("01", 6))
        for m in (raw, complete_dpda(raw)):
            configs = []
            for u in bf.iter_words("01", 3):
                reached = advance(m, m.start_configuration(), u)
                if reached is not None and reached[0] not in configs:
                    configs.append(reached[0])

            def verdicts(c, words):
                return [bf.ref_config_member(m, c.state, c.stack, w) for w in words]

            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    w = distinguishing_word(m, c1, c2)
                    want, closed = bf.ref_distinguishing_word(
                        m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                    )
                    if closed:
                        assert w == want, (c1, c2)
                    if w is None:
                        assert verdicts(c1, short) == verdicts(c2, short), (c1, c2)
                        continue
                    assert verdicts(c1, [w]) != verdicts(c2, [w]), (c1, c2, w)
                    shorter = list(bf.iter_words("01", len(w) - 1)) if w else []
                    assert verdicts(c1, shorter) == verdicts(c2, shorter), (c1, c2, w)

    def test_coinciding_sides_end_the_search(self, monkeypatch):
        # From every state and top, a and b both go to r, so (p, X) and
        # (q, X) coincide after any letter; a walk through r's growing
        # stacks would reach the node cap.
        rules = [
            {"from": p, "top": top, "label": a, "to": "r", "push": [push, top]}
            for p in "pqr"
            for top in "XY"
            for a, push in (("a", "X"), ("b", "Y"))
        ]
        m = validate_dpda(
            {
                "states": ["p", "q", "r"],
                "input_alphabet": ["a", "b"],
                "stack_alphabet": ["X", "Y"],
                "rules": rules,
                "start_state": "p",
                "start_symbol": "X",
                "accepting": [],
            }
        )
        calls = 0
        drive = analysis._drive

        def counted(*args):
            nonlocal calls
            calls += 1
            return drive(*args)

        monkeypatch.setattr(analysis, "_drive", counted)
        assert distinguishing_word(m, Configuration("p", ("X",)), Configuration("q", ("X",))) is None
        assert calls <= 2 + 2 * len(m.input_alphabet)

    def test_none_at_the_node_cap_proves_nothing(self, lsharp):
        c1 = advance(lsharp, lsharp.start_configuration(), "00")[0]
        c2 = advance(lsharp, lsharp.start_configuration(), "0000")[0]
        assert distinguishing_word(lsharp, c1, c2) == "11"
        assert distinguishing_word(lsharp, c1, c2, node_cap=1) is None

    def test_one_drive_per_state_top_and_letter(self, monkeypatch, lsharp):
        # Steps are memoised per call: `_drive` runs at most once per
        # (state, top, letter or ε), on lsharp's separating search and its
        # cap walk, and on twin states p, q whose every letter pushes, so
        # the product grows without bound and walks to the full node cap.
        twins = validate_dpda(
            {
                "states": ["p", "q"],
                "input_alphabet": ["a", "b"],
                "stack_alphabet": ["X", "Y"],
                "rules": [
                    {"from": s, "top": top, "label": a, "to": s, "push": [push, top]}
                    for s in "pq"
                    for top in "XY"
                    for a, push in (("a", "X"), ("b", "Y"))
                ],
                "start_state": "p",
                "start_symbol": "X",
                "accepting": [],
            }
        )
        runs = []
        drive = analysis._drive

        def counted(m, state, stack, word):
            runs.append((state, stack[-1], word))
            return drive(m, state, stack, word)

        monkeypatch.setattr(analysis, "_drive", counted)
        c1 = advance(lsharp, lsharp.start_configuration(), "00")[0]
        c2 = advance(lsharp, lsharp.start_configuration(), "0000")[0]
        p, q = Configuration("p", ("X",)), Configuration("q", ("X",))
        searches = [
            (lsharp, c1, c2, DISTINGUISH_NODE_CAP, "11"),
            (lsharp, c1, c2, 1, None),
            (twins, p, q, DISTINGUISH_NODE_CAP, None),
        ]
        for m, c1, c2, node_cap, want in searches:
            runs.clear()
            assert distinguishing_word(m, c1, c2, node_cap=node_cap) == want
            bound = len(m.states) * len(m.stack_alphabet) * (len(m.input_alphabet) + 1)
            assert len(runs) == len(set(runs)) <= bound, runs

    @pytest.mark.parametrize("seed", range(30))
    def test_deep_stacks_against_reference(self, seed):
        # Configurations reached by words of length <= 6 stack up to nine
        # symbols, so steps pop through many stack nodes and ε-chains
        # run below the one-symbol window.  Wherever the reference closes,
        # the distinguisher returns its very word.
        raw = random_eps_machine(random.Random(seed))
        for m in (raw, complete_dpda(raw)):
            runs = (advance(m, m.start_configuration(), u) for u in bf.iter_words("01", 6))
            configs = list(dict.fromkeys(r[0] for r in runs if r is not None))
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    want, closed = bf.ref_distinguishing_word(
                        m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                    )
                    if closed:
                        assert distinguishing_word(m, c1, c2) == want, (c1, c2)

    def test_an_eps_chain_that_strands_the_side(self):
        # From p, the letter a sets off an ε-chain e, o, e, ... that pops
        # every X, passing the accepting o.  On X^4 it leaves the side on
        # the empty stack, so the next letter strands it; on X^4 Y it stops
        # at e over Y, where a accepts.
        rules = [
            {"from": "p", "top": "X", "label": "a", "to": "e", "push": ["X"]},
            {"from": "p", "top": "X", "label": "b", "to": "p", "push": ["X"]},
            {"from": "e", "top": "X", "label": "", "to": "o", "push": []},
            {"from": "o", "top": "X", "label": "", "to": "e", "push": []},
            {"from": "e", "top": "Y", "label": "a", "to": "f", "push": ["Y"]},
            {"from": "e", "top": "Y", "label": "b", "to": "p", "push": ["Y"]},
            {"from": "o", "top": "Y", "label": "a", "to": "p", "push": ["Y"]},
            {"from": "o", "top": "Y", "label": "b", "to": "f", "push": ["Y"]},
            {"from": "p", "top": "Y", "label": "a", "to": "f", "push": []},
            {"from": "p", "top": "Y", "label": "b", "to": "p", "push": ["X", "Y"]},
            {"from": "f", "top": "Y", "label": "a", "to": "f", "push": ["Y"]},
        ]
        raw = validate_dpda(
            {
                "states": ["p", "e", "o", "f"],
                "input_alphabet": ["a", "b"],
                "stack_alphabet": ["X", "Y"],
                "rules": rules,
                "start_state": "p",
                "start_symbol": "X",
                "accepting": ["o", "f"],
            }
        )
        stacks = [("X",) * k + bottom for k in range(1, 5) for bottom in ((), ("Y",))]
        configs = [Configuration("p", stack) for stack in stacks]
        assert distinguishing_word(raw, configs[-2], configs[-1]) == "aa"
        # Sides that start on the empty stack: only their own state counts.
        configs += [Configuration("o", ()), Configuration("e", ())]
        for m in (raw, complete_dpda(raw)):
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    want, closed = bf.ref_distinguishing_word(
                        m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                    )
                    assert closed, (c1, c2)
                    assert distinguishing_word(m, c1, c2) == want, (c1, c2)


def proved(m, c1, c2, node_cap=DISTINGUISH_NODE_CAP):
    """Whether the search with a pop summary, past the pop probes, closes
    with no separator, which proves c1 and c2 equivalent."""
    sides = analysis._Product(m)
    (s1, a1), (s2, a2) = sides.close(c1), sides.close(c2)
    return a1 == a2 and analysis._search(sides, pop_summaries(m), s1, s2, node_cap) == (None, True)


class TestDecompositionProof:
    @pytest.mark.parametrize("seed", range(30))
    def test_proved_pairs_have_no_separator(self, seed):
        # Pairs of configurations reached by words of length <= 6, raw and
        # completed: wherever the search proves a pair equivalent, or the
        # distinguisher with a pop summary returns None, the plain product
        # BFS off the rule list finds no separator; every word it returns
        # separates the pair off the rule list.
        raw = random_eps_machine(random.Random(seed))
        for m in (raw, complete_dpda(raw)):
            summary = pop_summaries(m)
            runs = (advance(m, m.start_configuration(), u) for u in bf.iter_words("01", 6))
            configs = list(dict.fromkeys(r[0] for r in runs if r is not None))
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    w = distinguishing_word(m, c1, c2, summary)
                    if w is not None:
                        assert bf.ref_config_member(m, c1.state, c1.stack, w) != bf.ref_config_member(
                            m, c2.state, c2.stack, w
                        ), (c1, c2, w)
                    if w is None or proved(m, c1, c2):
                        want, _ = bf.ref_distinguishing_word(
                            m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                        )
                        assert want is None, (c1, c2, want)

    def test_closure_flags_after_the_common_top(self):
        # b pops the common top A into r, and r's ε-closure passes the
        # accepting s over X but not over Y; after that both sides are
        # stuck.  So b is the only separator, and only the closure flags
        # show it.
        m = validate_dpda(
            {
                "states": ["p", "r", "s", "t"],
                "input_alphabet": ["a", "b"],
                "stack_alphabet": ["A", "X", "Y"],
                "rules": [
                    {"from": "p", "top": "A", "label": "b", "to": "r", "push": []},
                    {"from": "r", "top": "X", "label": "", "to": "s", "push": []},
                    {"from": "r", "top": "Y", "label": "", "to": "t", "push": []},
                ],
                "start_state": "p",
                "start_symbol": "A",
                "accepting": ["s"],
            }
        )
        c1, c2 = Configuration("p", ("A", "X")), Configuration("p", ("A", "Y"))
        assert not proved(m, c1, c2)
        assert distinguishing_word(m, c1, c2, pop_summaries(m)) == "b"

    def test_sides_that_coincide_after_closure(self):
        # (p, X Y) ε-pops X into (q, Y): the two configurations differ,
        # but their closed sides are one side, which needs no split.
        m = validate_dpda(
            {
                "states": ["p", "q"],
                "input_alphabet": ["a"],
                "stack_alphabet": ["X", "Y"],
                "rules": [
                    {"from": "p", "top": "X", "label": "", "to": "q", "push": []},
                    {"from": "q", "top": "Y", "label": "a", "to": "q", "push": ["Y", "Y"]},
                ],
                "start_state": "p",
                "start_symbol": "X",
                "accepting": [],
            }
        )
        c1, c2 = Configuration("p", ("X", "Y")), Configuration("q", ("Y",))
        assert proved(m, c1, c2)
        assert distinguishing_word(m, c1, c2, pop_summaries(m)) is None

    def test_growing_stacks_are_proved_under_a_small_cap(self, monkeypatch):
        # The only state accepts, a and b push A and B above a bottom Z
        # that never pops, and c pops.  Over A Z and B Z the product holds
        # the pair (w A Z, w B Z) for every stack word w, so the BFS walks
        # to its cap: each expanded pair adds at most two new ones, so
        # passing 50 pairs takes over 25 expansions of 2 * 3 probes each.
        # The proof splits off each common top and closes on three pairs.
        rules = [
            {"from": "q", "top": top, "label": a, "to": "q", "push": [push, top]}
            for top in "ABZ"
            for a, push in (("a", "A"), ("b", "B"))
        ]
        rules += [{"from": "q", "top": top, "label": "c", "to": "q", "push": []} for top in "AB"]
        rules.append({"from": "q", "top": "Z", "label": "c", "to": "q", "push": ["Z"]})
        m = validate_dpda(
            {
                "states": ["q"],
                "input_alphabet": ["a", "b", "c"],
                "stack_alphabet": ["A", "B", "Z"],
                "rules": rules,
                "start_state": "q",
                "start_symbol": "Z",
                "accepting": ["q"],
            }
        )
        calls = 0
        probe = analysis._Product.probe

        def counted(*args):
            nonlocal calls
            calls += 1
            return probe(*args)

        monkeypatch.setattr(analysis._Product, "probe", counted)
        c1, c2 = Configuration("q", ("A", "Z")), Configuration("q", ("B", "Z"))
        assert distinguishing_word(m, c1, c2, node_cap=50) is None
        assert calls > 150
        assert proved(m, c1, c2, node_cap=50)
        calls = 0
        assert distinguishing_word(m, c1, c2, pop_summaries(m), node_cap=50) is None
        assert calls <= 2 + 3 * 2 + 2 * 2

    def test_separator_below_a_deep_common_top(self):
        # Sides in q over Z^20 X and Z^20 Y: c pops a Z or a pushed A or B,
        # and a, b push A, B on every top, so the product grows.  Only
        # after c^20 pops the common top do the sides differ: a pushes into
        # the accepting f over X and into q over Y.  Every pop probe ends in
        # q, which rejects, and the shortest separator c^20 a lies deeper
        # than a product walk capped at 200 pairs reaches; splitting the
        # common top reaches it through its pop witness.
        rules = [
            {"from": "q", "top": top, "label": a, "to": "q", "push": [push, top]}
            for top in "ABYZ"
            for a, push in (("a", "A"), ("b", "B"))
        ]
        rules += [{"from": "q", "top": top, "label": "c", "to": "q", "push": []} for top in "ABZ"]
        rules += [
            {"from": "q", "top": "X", "label": "a", "to": "f", "push": ["A", "X"]},
            {"from": "q", "top": "X", "label": "b", "to": "q", "push": ["B", "X"]},
        ]
        m = validate_dpda(
            {
                "states": ["q", "f"],
                "input_alphabet": ["a", "b", "c"],
                "stack_alphabet": ["A", "B", "X", "Y", "Z"],
                "rules": rules,
                "start_state": "q",
                "start_symbol": "Z",
                "accepting": ["f"],
            }
        )
        c1, c2 = Configuration("q", ("Z",) * 20 + ("X",)), Configuration("q", ("Z",) * 20 + ("Y",))
        w = distinguishing_word(m, c1, c2, pop_summaries(m), node_cap=200)
        assert w is not None
        assert bf.ref_config_member(m, "q", c1.stack, w) != bf.ref_config_member(m, "q", c2.stack, w)
        assert distinguishing_word(m, c1, c2, node_cap=200) is None


def graph_read_ends(m):
    """Check the graph's reading of every word of length <= 6 against
    `config_member`, `advance` and, on a completed machine, the rules-only
    reference, from each stable configuration reached by a word of length
    <= 3 and from an empty stack.  Each word is read twice on each of two
    graphs, after its prefixes on one and before them (longest words first)
    on the other: the first read walks the word's letters, the second is
    the row's entry for the whole word, and all four must agree.  Returns
    the kinds of reads that end on no side: "stranded" from the empty
    stack, "stuck" from any other."""
    start = m.start_configuration()
    configs = {Configuration(m.start_state, ())}
    for u in bf.iter_words(m.input_alphabet, 3):
        reached = advance(m, start, u)
        if reached is not None:
            configs.add(reached[0])
    words = list(bf.iter_words(m.input_alphabet, 6))
    graph, cold = analysis._Product(m), analysis._Product(m)
    kinds = set()
    for c in sorted(configs, key=lambda c: (c.state, len(c.stack), c.stack)):
        side, cold_side = graph.close(c)[0], cold.close(c)[0]
        cold_reads = {}
        for w in reversed(words):
            cold_reads[w] = cold.read(cold_side, w)
            assert cold.read(cold_side, w) == cold_reads[w], (c, w)
        for w in words:
            end, flag = graph.read(side, w)
            assert graph.read(side, w) == (end, flag), (c, w)
            cold_end, cold_flag = cold_reads[w]
            assert flag == cold_flag == config_member(m, c, w), (c, w)
            if m.completed:
                assert flag == bf.ref_config_member(m, c.state, c.stack, w), (c, w)
            reached = advance(m, c, w)
            if end is None:
                assert reached is None and cold_end is None, (c, w)
                kinds.add("stuck" if c.stack else "stranded")
            else:
                assert graph.configuration(end) == cold.configuration(cold_end) == reached[0], (c, w)
    return kinds


@pytest.mark.parametrize("m", SMALL_MACHINES)
def test_graph_reads_match_config_member(m):
    kinds = graph_read_ends(m)
    assert "stranded" in kinds
    if m.completed:
        assert "stuck" not in kinds


def test_graph_reads_get_stuck_on_raw_machines():
    raw = (random_eps_machine(random.Random(seed)) for seed in range(30))
    assert any("stuck" in graph_read_ends(m) for m in raw)


@pytest.mark.parametrize("m", SMALL_MACHINES)
def test_side_ids_are_hash_consed(m):
    # Each configuration, stable or not, closes to one side every time, and
    # that side stands for `advance`'s ε-closure of it; distinct stable
    # configurations get distinct sides.
    start = m.start_configuration()
    reached = {advance(m, start, u) for u in bf.iter_words(m.input_alphabet, 3)} - {None}
    stable = {c for c, _ in reached} | {Configuration(m.start_state, ())}
    configs = stable | {Configuration(q, c.stack) for q in m.states for c in stable}
    graph = analysis._Product(m)
    sides = {}
    for c in sorted(configs, key=lambda c: (c.state, len(c.stack), c.stack)):
        sides[c] = graph.close(c)[0]
        assert graph.close(c)[0] == sides[c], c
        assert graph.configuration(sides[c]) == advance(m, c, "")[0], c
    assert len({sides[c] for c in stable}) == len(stable)
    # A letter read on the empty stack strands the side.
    empty = sides[Configuration(m.start_state, ())]
    assert graph.read(empty, min(m.input_alphabet)) == (None, False)


@pytest.mark.parametrize("m", SMALL_MACHINES)
def test_separators_are_the_words_whose_flags_differ(m):
    # Over every pair of sides for the configurations reached by words of
    # length <= 2, the empty stack and the stranded side, the pruned walk
    # must list exactly the nonempty words up to length 4 that the
    # rules-only reference tells apart, in (length, lex) order.
    start = m.start_configuration()
    reached = {advance(m, start, u) for u in bf.iter_words(m.input_alphabet, 2)} - {None}
    configs = sorted(
        {c for c, _ in reached} | {Configuration(m.start_state, ())},
        key=lambda c: (c.state, len(c.stack), c.stack),
    )
    words = [w for w in bf.iter_words(m.input_alphabet, 4) if w]
    graph = analysis._Product(m)
    sides = [graph.side(c.state, graph.push(0, c.stack[::-1])) for c in configs] + [None]
    flags = [[bf.ref_config_member(m, c.state, c.stack, w) for w in words] for c in configs]
    flags.append([False] * len(words))
    for i, j in product(range(len(sides)), repeat=2):
        want = [w for w, f0, f1 in zip(words, flags[i], flags[j]) if f0 != f1]
        assert list(graph.separators(sides[i], sides[j], 4)) == want, (i, j)


def divergent(m, length):
    return find_divergent_word(m, pop_summaries(m), length)


class TestDivergentWord:
    def test_lsharp_grows_zeros(self, lsharp):
        assert divergent(lsharp, 8) == "00000000"

    def test_dyck_grows_opens(self):
        assert divergent(machine("dyck1"), 6) == "(((((("

    def test_prefix_signatures_pairwise_distinct(self, lsharp):
        u = divergent(lsharp, 8)
        # confirmed by direct product simulation on every prefix pair
        configs = [advance(lsharp, lsharp.start_configuration(), u[:i])[0] for i in range(9)]
        s = pop_summaries(lsharp)
        for i in range(len(configs)):
            for j in range(i + 1, len(configs)):
                assert distinguishing_word(lsharp, configs[i], configs[j], s) is not None

    @pytest.mark.parametrize("length", [0, -1])
    def test_a_target_below_one_raises(self, lsharp, length):
        # No grown word has fewer than one letter, so nothing would stop
        # the search on a non-regular language.
        with pytest.raises(ValueError, match="target_length"):
            divergent(lsharp, length)

    def test_regular_machine_exhausts(self):
        with pytest.raises(ExhaustedError) as excinfo:
            divergent(machine("even_length_reg"), 8)
        assert len(excinfo.value.best_prefix) < 8

    @pytest.mark.parametrize("name, length", [("lsharp", 8), ("dyck1", 8), ("l_m_nn", 12)])
    def test_kept_signature_bits_match_a_fresh_signature(self, monkeypatch, name, length):
        # Each distinguisher call meets a clash in the kept signatures; at
        # that moment every kept signature, and the candidate's, must be
        # the one signed afresh over the suffixes known so far.
        real = analysis.distinguishing_word
        sizes = []

        def checking(m, c1, c2, summary=None, **kwargs):
            search = sys._getframe(1).f_locals
            suffixes, graph = search["suffixes"], search["graph"]

            def fresh(c):
                return tuple(config_member(m, c, s) for s in suffixes)

            for side, bits in zip(search["sides"], search["sigs"], strict=True):
                assert bits == fresh(graph.configuration(side))
            assert c1 == graph.configuration(search["side"])
            assert search["sig"] == fresh(c1)
            sizes.append(len(suffixes))
            return real(m, c1, c2, summary, **kwargs)

        monkeypatch.setattr(analysis, "distinguishing_word", checking)
        divergent(machine(name), length)
        assert len(set(sizes)) > 2

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_drive_runs_are_bounded_by_the_step_keys(self, monkeypatch, m):
        # One graph serves the whole search, distinguisher calls included,
        # so `_drive` runs at most once per (state, top, letter or ε).
        runs = 0
        real = dpda._drive

        def counted(*args, **kwargs):
            nonlocal runs
            runs += 1
            return real(*args, **kwargs)

        summary = pop_summaries(m)
        monkeypatch.setattr(dpda, "_drive", counted)
        monkeypatch.setattr(analysis, "_drive", counted)
        budgets = SearchBudgets()
        try:
            find_divergent_word(m, summary, budgets.word_length)
        except ExhaustedError:
            pass
        assert runs <= len(m.states) * len(m.stack_alphabet) * (len(m.input_alphabet) + 1)

    @pytest.mark.parametrize(
        "doc",
        [corpus._ENTRIES[name][0]() for name in corpus.names()]
        + [bench_machines().counter_doc(k) for k in bench_machines().COUNTER_KS],
    )
    def test_the_search_builds_configurations_only_for_the_distinguisher(self, monkeypatch, doc):
        # The search holds sides; a configuration is built only for the two
        # arguments of a distinguisher call, not for every extension.
        m = complete_dpda(validate_dpda(doc))
        built = calls = 0
        configuration, distinguish = analysis._Product.configuration, analysis.distinguishing_word

        def counted_configuration(graph, side):
            nonlocal built
            built += 1
            return configuration(graph, side)

        def counted_distinguish(*args, **kwargs):
            nonlocal calls
            calls += 1
            return distinguish(*args, **kwargs)

        summary = pop_summaries(m)
        monkeypatch.setattr(analysis._Product, "configuration", counted_configuration)
        monkeypatch.setattr(analysis, "distinguishing_word", counted_distinguish)
        budgets = SearchBudgets()
        try:
            find_divergent_word(m, summary, budgets.word_length)
        except ExhaustedError:
            pass
        assert built <= 2 * calls, (built, calls)

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_pop_probes_are_built_once_per_side(self, monkeypatch, m):
        # The graph composes each pop-probe layer once per search: one
        # `_pop_step` per trie entry.  Each side's probes are the pop
        # witnesses of every prefix of its stack.
        summary = pop_summaries(m)
        steps, probed = 0, set()
        real_step, real_probes = analysis._pop_step, analysis._Product.pop_probes

        def counted_step(entries, current, symbol):
            nonlocal steps
            if sys._getframe(1).f_code.co_name == "pop_probes":
                steps += 1
            return real_step(entries, current, symbol)

        def recorded_probes(graph, side, summary):
            probed.add((graph, side))
            return real_probes(graph, side, summary)

        monkeypatch.setattr(analysis, "_pop_step", counted_step)
        monkeypatch.setattr(analysis._Product, "pop_probes", recorded_probes)
        budgets = SearchBudgets()
        try:
            find_divergent_word(m, summary, budgets.word_length)
        except ExhaustedError:
            pass
        graphs = {graph for graph, _ in probed}
        assert len(graphs) <= 1
        composed = steps
        assert composed == sum(len(graph.layers) for graph in graphs)
        for graph, side in probed:
            c = graph.configuration(side)
            want = {
                w
                for k in range(1, len(c.stack) + 1)
                for w in pop_witnesses(summary, c.state, c.stack[:k]).values()
            }
            assert set(real_probes(graph, side, summary)) == want, c
        assert steps == composed  # reading the probes again composes nothing

    @pytest.mark.parametrize(
        "m, steady",
        [
            pytest.param(corpus.get_entry("lsharp").machine, 3, id="lsharp"),
            pytest.param(
                complete_dpda(validate_dpda(bench_machines().counter_doc(3))), 5, id="counter-3"
            ),
        ],
    )
    def test_sides_sharing_a_top_segment_share_its_layers(self, m, steady):
        # The side after 0^k composes only the layers of the top segments
        # that no side before it walked: every (state, top segment) is
        # composed once.  On lsharp the side after 0^(k+1) shares A^(k-1)
        # with the one after 0^k and composes A, A0 and X0 below it, where
        # the walk stops on an empty layer.  On the counter the state
        # cycles with period 3: the side after 0^k shares A^(k-4) with the
        # one after 0^(k-3) and composes three A's, A0 and X0.
        summary = pop_summaries(m)
        graph = analysis._Product(m)
        walked = set()
        for k in range(12):
            c = advance(m, m.start_configuration(), "0" * k)[0]
            new = {(c.state, top) for top in pop_walk(summary, c.state, c.stack)} - walked
            before = len(graph.layers)
            graph.pop_probes(graph.side(c.state, graph.push(0, c.stack[::-1])), summary)
            assert len(graph.layers) - before == len(new), (k, c)
            walked |= new
            if k >= 5:
                assert len(new) == steady, c

    def test_one_distinguisher_run_per_pair(self, monkeypatch):
        # Backtracking meets the same clashing pair four times on this
        # machine; the verdict of the first run is reused.
        calls = []
        real = analysis.distinguishing_word

        def counting(m, c1, c2, summary=None, **kwargs):
            calls.append((c1, c2))
            return real(m, c1, c2, summary, **kwargs)

        monkeypatch.setattr(analysis, "distinguishing_word", counting)
        with pytest.raises(ExhaustedError) as excinfo:
            divergent(machine("even_length_reg"), 8)
        assert excinfo.value.best_prefix == "0"
        assert len(calls) == len(set(calls)) == 1


class TestStairs:
    def test_lsharp_0000(self, lsharp):
        st_ = stair_factorize(lsharp, "0000")
        assert [i for i, _ in st_] == [1, 2, 3, 4]
        assert [c.stack[0] for _, c in st_] == ["A0", "A", "A", "A"]
        assert all(c.state == "q0" for _, c in st_)

    def test_replaying_prefixes_reproduces_levels(self, lsharp):
        u = "000000"
        for i, c in stair_factorize(lsharp, u):
            assert advance(lsharp, lsharp.start_configuration(), u[:i])[0] == c

    def test_positions_and_heights_increase(self, lsharp):
        u = "000000"
        levels = stair_factorize(lsharp, u)
        for (i, ci), (j, cj) in zip(levels, levels[1:]):
            assert 0 < i < j <= len(u)
            assert len(ci.stack) < len(cj.stack)
            assert cj.stack[-len(ci.stack) :] == ci.stack

    def test_fail_word_has_no_levels(self, lsharp):
        with pytest.raises(NoLevelsError):
            stair_factorize(lsharp, "10")

    @pytest.mark.parametrize("complete", [False, True])
    def test_levels_match_the_rules_only_reference(self, complete):
        machines = [validate_dpda(corpus._ENTRIES[name][0]()) for name in corpus.names()]
        machines += [random_eps_machine(random.Random(seed)) for seed in range(30)]
        for m in machines:
            m = complete_dpda(m) if complete else m
            for u in bf.iter_words(m.input_alphabet, 6):
                ref = [(i, Configuration(*c)) for i, c in bf.ref_levels(m, u)]
                if len(ref) < 2:
                    with pytest.raises(NoLevelsError):
                        stair_factorize(m, u)
                else:
                    assert stair_factorize(m, u) == tuple(ref[1:]), u


class TestPumps:
    def test_lsharp_pump(self, lsharp):
        found = pumps(lsharp, "000000")
        assert found
        first = found[0]
        assert first.x == "0"
        assert len(first.gamma) == 1

    def test_pump_soundness_iterates(self, lsharp):
        for pump in pumps(lsharp, "000000"):
            for m_times in range(6):
                res = advance(lsharp, Configuration(pump.p, (pump.X,)), pump.x * m_times)
                assert res is not None
                assert res[0] == Configuration(pump.p, (pump.X,) + pump.gamma * m_times)

    def test_short_word_has_no_pump(self, lsharp):
        assert pumps(lsharp, "0") == []

    def test_pop_witnesses_compose(self, lsharp):
        s = pop_summaries(lsharp)
        ends = pop_witnesses(s, "q0", ("A", "A0"))
        for q, w in ends.items():
            res = advance(lsharp, Configuration("q0", ("A", "A0")), w)
            assert res is not None and res[0] == Configuration(q, ())

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_the_re_check_rejects_no_candidate(self, m):
        # From a level c_i on, the run keeps every stack taller than c_i's,
        # so it reads the same from the bare top X, and every repeated
        # (state, top) level pair is a pump.
        for u in bf.iter_words(m.input_alphabet, 6):
            try:
                levels = stair_factorize(m, u)
            except NoLevelsError:
                continue
            unchecked = [
                analysis.Pump(
                    v=u[:i],
                    x=u[i:j],
                    p=ci.state,
                    X=ci.stack[0],
                    gamma=cj.stack[1 : len(cj.stack) - len(ci.stack) + 1],
                    delta=ci.stack[1:],
                )
                for lo, (i, ci) in enumerate(levels)
                for j, cj in levels[lo + 1 :]
                if (cj.state, cj.stack[0]) == (ci.state, ci.stack[0])
            ]
            assert list(analysis._pumps(m, u, levels)) == unchecked, u

    def test_stair_and_pump_invariants_on_random_words(self):
        import random

        from dcflab.analysis import NoLevelsError

        rng = random.Random(1789)
        factorized = 0
        for name in corpus.names():
            m = machine(name)
            sigma = sorted(m.input_alphabet)
            for _ in range(120):
                u = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 14)))
                try:
                    st_ = stair_factorize(m, u)
                except NoLevelsError:
                    continue
                factorized += 1
                for i, c in st_:
                    got = advance(m, m.start_configuration(), u[:i])[0]
                    assert got == c, (name, u)
                for p in pumps(m, u)[:4]:
                    assert p.x and p.gamma, (name, u)
                    for reps in range(4):
                        r = advance(m, Configuration(p.p, (p.X,)), p.x * reps)
                        assert r is not None
                        assert r[0] == Configuration(p.p, (p.X,) + p.gamma * reps)
        assert factorized > 100


def first_pumps(m, count=2):
    """The first pumps read off m's divergent word, or off the longest
    prefix the search kept when it exhausts."""
    try:
        u = divergent(m, 24)
    except ExhaustedError as exc:
        u = exc.best_prefix
    try:
        return pumps(m, u)[:count]
    except NoLevelsError:
        return []


def level_cases(m, max_len=3):
    """(pump, q, z) for the first pumps of m, every state q and every z
    with |z| <= max_len."""
    words = list(bf.iter_words(m.input_alphabet, max_len))
    return [(p, q, z) for p in first_pumps(m) for q in sorted(m.states) for z in words]


# The carried flag: from p A^l B, z = a moves to the accepting f, whose
# ε-rule pops A into r; r ε-pops the A's below and then B.  For l >= 1 the
# run ends on the empty stack in s, and z is accepted only because f was
# seen after the last letter, in the top window.
CARRY_RAW = {
    "states": ["p", "f", "r", "s"],
    "input_alphabet": ["a"],
    "stack_alphabet": ["A", "B"],
    "rules": [
        {"from": "p", "top": "A", "label": "a", "to": "f", "push": ["A"]},
        {"from": "f", "top": "A", "label": "", "to": "r", "push": []},
        {"from": "r", "top": "A", "label": "", "to": "r", "push": []},
        {"from": "r", "top": "B", "label": "", "to": "s", "push": []},
    ],
    "start_state": "p",
    "start_symbol": "A",
    "accepting": ["f"],
}


def level_flags(m, q, gamma, delta, z, top=20):
    """`_level_flags`' flags for l = 0..top, its cycle unrolled."""
    flags, start = analysis._level_flags(m, q, gamma, delta, z)
    cycle = flags[start:]
    return [flags[l] if l < start else cycle[(l - start) % len(cycle)] for l in range(top + 1)]


class TestLevelFlags:
    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_matches_the_reference(self, m):
        for pump, q, z in level_cases(m):
            got = level_flags(m, q, pump.gamma, pump.delta, z)
            want = [
                bf.ref_config_member(m, q, pump.gamma * l + pump.delta, z) for l in range(21)
            ]
            assert got == want, (pump, q, z)

    def test_flag_is_carried_across_windows(self):
        m = complete_dpda(validate_dpda(CARRY_RAW))
        got = level_flags(m, "p", ("A",), ("B",), "a")
        assert got == [False] + [True] * 20
        assert got == [bf.ref_config_member(m, "p", ("A",) * l + ("B",), "a") for l in range(21)]

    def test_the_orbit_is_a_threshold_and_a_cycle(self):
        # Level 0 rejects; from level 1 on, the carried flag accepts, and
        # the key after the second window repeats the first's.
        m = complete_dpda(validate_dpda(CARRY_RAW))
        assert analysis._level_flags(m, "p", ("A",), ("B",), "a") == ([False, True], 1)

    def test_drive_runs_are_bounded_by_the_keys(self, monkeypatch):
        # One gamma run and one delta run per key of the orbit.
        runs = []
        real = analysis._drive

        def counting(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "_drive", counting)
        checked = 0
        for param in SMALL_MACHINES:
            (m,) = param.values
            for pump, q, z in level_cases(m):
                runs.clear()
                analysis._level_flags(m, q, pump.gamma, pump.delta, z)
                assert len(runs) <= 2 * len(m.states) * (len(z) + 2), (pump, q, z)
                checked += 1
        assert checked > 1000


class TestPeriodicity:
    def test_constant_true(self):
        m = machine("l1_le")
        base = advance(m, m.start_configuration(), "01")[0]
        report = periodicity(m, base, "1", "", max_l=60)
        assert (report.k, report.period, report.table) == (0, 1, (True,))

    def test_l1_le_threshold(self):
        # frozen from the predicate: "00" + 1^l is in the language iff l >= 2
        m = machine("l1_le")
        pred = corpus.get_entry("l1_le").predicate
        expected = [pred("00" + "1" * l) for l in range(10)]
        assert expected == [False, False] + [True] * 8
        base = advance(m, m.start_configuration(), "00")[0]
        report = periodicity(m, base, "1", "", max_l=60)
        assert (report.k, report.period, report.table) == (2, 1, (True,))

    def test_alternating_parity(self):
        m = machine("even_length_reg")
        report = periodicity(m, m.start_configuration(), "0", "", max_l=60)
        assert (report.k, report.period) == (0, 2)
        assert report.table == (True, False)

    def test_z_probe_against_predicate(self):
        m = machine("lsharp")
        pred = corpus.get_entry("lsharp").predicate
        base = advance(m, m.start_configuration(), "000")[0]
        report = periodicity(m, base, "1", "1", max_l=60)
        for l in range(report.k, report.k + 3 * report.period + 1):
            assert pred("000" + "1" * l + "1") == report.table[l % report.period]

    def test_independent_re_simulation(self):
        m = machine("dyck1")
        base = advance(m, m.start_configuration(), "((")[0]
        report = periodicity(m, base, ")", "", max_l=60)
        for l in range(report.k, report.k + 3 * report.period + 1):
            assert config_member(m, base, ")" * l) == report.table[l % report.period]

    def test_no_period_when_sample_too_short(self):
        m = machine("l1_le")
        base = advance(m, m.start_configuration(), "00")[0]
        with pytest.raises(NoPeriodFoundError):
            periodicity(m, base, "1", "", max_l=3)

    def test_rejects_empty_y(self, lsharp):
        with pytest.raises(ValueError):
            periodicity(lsharp, lsharp.start_configuration(), "", "1")

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_matches_a_full_sample(self, m):
        # The report read off a cycle of snapshots must be the one a full
        # sample of every l gives, and so must a missing period.
        sigma = sorted(m.input_alphabet)
        rng = random.Random(len(m.rules))
        words = list(bf.iter_words(sigma, 2))
        for max_l in (4, 12, 30, 45):
            for _ in range(3):
                prefix, y, z = rng.choice(words), rng.choice(words[1:]), rng.choice(words)
                res = advance(m, m.start_configuration(), prefix)
                if res is None:
                    continue
                base = res[0]
                want = reference_periodicity(m, base, y, z, max_l)
                if want is None:
                    with pytest.raises(NoPeriodFoundError):
                        periodicity(m, base, y, z, max_l)
                else:
                    report = periodicity(m, base, y, z, max_l)
                    assert (report.k, report.period, report.table) == want, (prefix, y, z, max_l)


def reference_periodicity(m, base, y, z, max_l):
    """The least (k, period, table) of `periodicity`'s search over all
    max_l + 1 memberships of y^l z in L(base), each run from base by the
    rules-only reference; None when no period fits."""
    seq = [bf.ref_config_member(m, base.state, base.stack, y * l + z) for l in range(max_l + 1)]
    for k in range(max_l + 1):
        for p in range(1, min((max_l - k) // 3, max_l // 3) + 1):
            if all(seq[l] == seq[l - p] for l in range(k + p, max_l + 1)):
                table = [None] * p
                for l in range(k, k + p):
                    table[l % p] = seq[l]
                return k, p, tuple(table)
    return None
