import copy
import dataclasses
import hashlib
import inspect
import json
import random
import sys
from itertools import product, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflab import analysis, corpus, dpda
from dcflab.analysis import (
    DISTINGUISH_NODE_CAP,
    ExhaustedError,
    distinguishing_word,
    find_divergent_word,
    periodicity,
    pop_summaries,
)
from dcflab.dpda import Configuration, advance, config_member, complete_dpda, validate_dpda
from dcflab.witness import SearchBudgets, SearchExhaustedError, _loop_candidates, find_witness

import bruteforce as bf
from test_dpda import SMALL_MACHINES, random_eps_machine
from test_witness import bench_machines


def machine(name):
    return corpus.get_entry(name).machine


def eps_pop_end(m, c):
    """The end of c's ε-closure when that closure empties the stack, else None."""
    end, _ = advance(m, c, "")
    return None if end.stack else end.state


def distinguish(m, c1, c2, *, graph=None):
    """The distinguisher on the sides of c1 and c2 in `graph`, or in a
    fresh `_Product(m)`."""
    graph = analysis._Product(m) if graph is None else graph
    s1, s2 = (graph.side(c.state, graph.push(0, c.stack[::-1])) for c in (c1, c2))
    return distinguishing_word(graph, s1, s2)


def separates(m, c1, c2, w):
    """Whether the rules-only reference accepts w from exactly one of c1, c2."""
    return bf.ref_config_member(m, c1.state, c1.stack, w) != bf.ref_config_member(
        m, c2.state, c2.stack, w
    )


def start_levels(graph, u):
    """`_levels` of the run on u from the start of the graph's machine."""
    return analysis._levels(graph, graph.close(graph.m.start_configuration())[0], u)


def run_levels(m, u, graph=None):
    """The levels of the run on u from m's start, as (position,
    configuration) pairs, on `graph` or a fresh `_Product(m)`."""
    graph = analysis._Product(m) if graph is None else graph
    return [(i, graph.configuration(side)) for i, side in start_levels(graph, u)]


def pumps(m, u):
    """Every pump read off the levels of u past the first, on a fresh
    graph, as (pump, gamma, delta) with gamma and delta its nodes' stacks."""
    graph = analysis._Product(m)
    return [
        (pump, graph.stack(pump.top, pump.bottom), graph.stack(pump.bottom))
        for pump in analysis._pumps(graph, u, start_levels(graph, u)[1:])
    ]


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


def pop_witnesses(summary, state, stack):
    """The reference for the graph's pop layers: the pop witnesses from
    `state` of the whole stack word, composed symbol by symbol from
    scratch, one (length, lex)-least word per reachable end state."""
    current = {state: ""}
    for symbol in stack:
        current = analysis._pop_step(summary, current, symbol)
    return current


def pop_walk(summary, state, stack):
    """The top segments of `stack` that `pop_layers` walks: every one down
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

    @given(st.integers(0, 2**32), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_round_robin_reference(self, seed, completed):
        # Small random machines beyond the pinned suite, raw and completed,
        # their rules in a drawn order: the same witness words, entries and
        # end states in the same order as sweeps that re-run every rule
        # until nothing changes.
        rng = random.Random(seed)
        m = random_eps_machine(rng)
        m = complete_dpda(m) if completed else m
        m = dataclasses.replace(m, rules=tuple(rng.sample(m.rules, len(m.rules))))

        def ordered(s):
            return [(key, list(targets.items())) for key, targets in s.items()]

        assert ordered(pop_summaries(m)) == ordered(bf.round_robin_pop_summaries(m))

    def test_a_rule_re_runs_only_after_an_entry_it_read_changed(self, monkeypatch):
        # Over the benchmark's random suite, also renamed: 8,548 one-symbol
        # compositions when every rule pushing X re-ran after any (p, X)
        # entry changed, 3,158 with read sets.
        machines = bench_machines()
        calls = 0
        pop_step = analysis._pop_step

        def counted(*args):
            nonlocal calls
            calls += 1
            return pop_step(*args)

        monkeypatch.setattr(analysis, "_pop_step", counted)
        for seed in (None, 1, 11):
            docs = machines.random_suite()
            if seed is not None:
                docs = [machines.rename(doc, seed) for doc in docs]
            calls = 0
            for doc in docs:
                pop_summaries(complete_dpda(validate_dpda(doc)))
            assert calls <= 3_200, seed

    def test_every_pop_witness_of_an_eps_free_top_is_nonempty(self):
        # A pump's (p, X) tops a stable level, so it has no ε-rule, and a
        # pop witness from it starts with a letter: the loop stage's w is
        # never empty.  On the small machines and the benchmark's, the
        # random suite also under rename seeds 1 and 11.
        machines = bench_machines()
        renamed = [machines.rename(doc, seed) for doc in machines.random_suite() for seed in (1, 11)]
        suite = [param.values[0] for param in SMALL_MACHINES] + bench_suite_machines()
        suite += [complete_dpda(validate_dpda(doc)) for doc in renamed]
        checked = 0
        for m in suite:
            eps = {(r.from_state, r.top) for r in m.rules if not r.label}
            for (p, X), pops in pop_summaries(m).items():
                if (p, X) not in eps:
                    assert all(pops.values()), (m, p, X, pops)
                    checked += len(pops)
        assert checked > 1000

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
        assert distinguish(lsharp, c, c) is None

    def test_a_graph_answers_for_its_own_machine(self, lsharp):
        c0 = lsharp.start_configuration()
        c1 = advance(lsharp, c0, "0")[0]
        assert distinguish(lsharp, c0, c1, graph=analysis._Product(lsharp)) == "1"
        # A graph's trie layers answer for its own machine's pop summary:
        # on lr this pair gets "bb" through them.
        lr = machine("lr")
        c1, c2 = Configuration("qf", ("X0", "⊥")), Configuration("r", ("B", "B0", "X0", "⊥"))
        assert distinguish(lr, c1, c2, graph=analysis._Product(lr)) == "bb"

    def test_found_word_actually_separates(self, lsharp):
        c1 = advance(lsharp, lsharp.start_configuration(), "00")[0]
        c2 = advance(lsharp, lsharp.start_configuration(), "0000")[0]
        w = distinguish(lsharp, c1, c2)
        assert w is not None
        assert config_member(lsharp, c1, w) != config_member(lsharp, c2, w)

    @pytest.mark.parametrize("seed", range(30))
    def test_product_search_against_reference(self, seed):
        # Pairs of configurations reached by words of length <= 3, on the
        # raw machine (runs stick) and on its completion.  A found word
        # separates the pair off the rule list.  None means that no word of
        # length <= 6 separates it, and, wherever a plain product BFS off
        # the rule list closes under its own cap, that the BFS found no
        # word either.
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
                    w = distinguish(m, c1, c2)
                    if w is not None:
                        assert separates(m, c1, c2, w), (c1, c2, w)
                        continue
                    want, closed = bf.ref_distinguishing_word(
                        m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                    )
                    assert want is None or not closed, (c1, c2, want)
                    assert verdicts(c1, short) == verdicts(c2, short), (c1, c2)

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
        assert distinguish(m, Configuration("p", ("X",)), Configuration("q", ("X",))) is None
        assert calls <= 2 + 2 * len(m.input_alphabet)

    def test_none_at_the_node_cap_proves_nothing(self, monkeypatch, lsharp):
        # No pop probe separates q0 and q1 over A0 X0 ⊥, so the word comes
        # from the search, three letters deep.
        c1 = advance(lsharp, lsharp.start_configuration(), "0")[0]
        c2 = advance(lsharp, lsharp.start_configuration(), "001")[0]
        assert distinguish(lsharp, c1, c2) == "011"
        monkeypatch.setattr(analysis, "DISTINGUISH_NODE_CAP", 1)
        assert distinguish(lsharp, c1, c2) is None

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
        c1 = advance(lsharp, lsharp.start_configuration(), "0")[0]
        c2 = advance(lsharp, lsharp.start_configuration(), "001")[0]
        p, q = Configuration("p", ("X",)), Configuration("q", ("X",))
        searches = [
            (lsharp, c1, c2, DISTINGUISH_NODE_CAP, "011"),
            (lsharp, c1, c2, 1, None),
            (twins, p, q, DISTINGUISH_NODE_CAP, None),
        ]
        for m, c1, c2, node_cap, want in searches:
            runs.clear()
            monkeypatch.setattr(analysis, "DISTINGUISH_NODE_CAP", node_cap)
            assert distinguish(m, c1, c2) == want
            bound = len(m.states) * len(m.stack_alphabet) * (len(m.input_alphabet) + 1)
            assert len(runs) == len(set(runs)) <= bound, runs

    @pytest.mark.parametrize("seed", range(30))
    def test_deep_stacks_against_reference(self, seed):
        # Configurations reached by words of length <= 6 stack up to nine
        # symbols, so steps pop through many stack nodes and ε-chains
        # run below the one-symbol window.  A found word separates the pair
        # off the rule list; wherever the reference closes, None means that
        # it found no word either.
        raw = random_eps_machine(random.Random(seed))
        for m in (raw, complete_dpda(raw)):
            runs = (advance(m, m.start_configuration(), u) for u in bf.iter_words("01", 6))
            configs = list(dict.fromkeys(r[0] for r in runs if r is not None))
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    w = distinguish(m, c1, c2)
                    if w is not None:
                        assert separates(m, c1, c2, w), (c1, c2, w)
                        continue
                    want, closed = bf.ref_distinguishing_word(
                        m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                    )
                    assert want is None or not closed, (c1, c2, want)

    def test_an_eps_chain_that_strands_the_side(self):
        # From p, the letter a sets off an ε-chain e, o, e, ... that pops
        # every X, passing the accepting o.  On X^4 it leaves the side on
        # the empty stack, so the next letter strands it; on X^4 Y it stops
        # at e over Y, where a accepts: "aa" separates the two.
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
        graph = analysis._Product(raw)
        stranded, kept = (graph.close(c)[0] for c in configs[-2:])
        assert graph.read(stranded, "a") == (graph.side("e", 0), True)
        assert graph.read(stranded, "aa") == (None, False)
        assert graph.read(kept, "aa")[1]
        assert separates(raw, *configs[-2:], distinguish(raw, *configs[-2:], graph=graph))
        # Sides that start on the empty stack: only their own state counts.
        configs += [Configuration("o", ()), Configuration("e", ())]
        for m in (raw, complete_dpda(raw)):
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    want, closed = bf.ref_distinguishing_word(
                        m, (c1.state, c1.stack), (c2.state, c2.stack), max_len=64, node_cap=2_000
                    )
                    assert closed, (c1, c2)
                    w = distinguish(m, c1, c2)
                    assert (w is None) == (want is None), (c1, c2, w, want)
                    if w is not None:
                        assert separates(m, c1, c2, w), (c1, c2, w)


def proved(m, c1, c2):
    """Whether the search, past the pop probes, closes with no separator,
    which proves c1 and c2 equivalent."""
    sides = analysis._Product(m)
    (s1, a1), (s2, a2) = sides.close(c1), sides.close(c2)
    return a1 == a2 and analysis._search(sides, s1, s2) == (None, True)


class TestDecompositionProof:
    @pytest.mark.parametrize("seed", range(30))
    def test_proved_pairs_have_no_separator(self, seed):
        # Pairs of configurations reached by words of length <= 6, raw and
        # completed: wherever the search proves a pair equivalent, or the
        # distinguisher returns None, the plain product BFS off the rule
        # list finds no separator; every word it returns separates the pair
        # off the rule list.
        raw = random_eps_machine(random.Random(seed))
        for m in (raw, complete_dpda(raw)):
            graph = analysis._Product(m)
            runs = (advance(m, m.start_configuration(), u) for u in bf.iter_words("01", 6))
            configs = list(dict.fromkeys(r[0] for r in runs if r is not None))
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    w = distinguish(m, c1, c2, graph=graph)
                    if w is not None:
                        assert separates(m, c1, c2, w), (c1, c2, w)
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
        assert distinguish(m, c1, c2) == "b"

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
        assert distinguish(m, c1, c2) is None

    def test_growing_stacks_are_proved_under_a_small_cap(self, monkeypatch):
        # The only state accepts, a and b push A and B above a bottom Z
        # that never pops, and c pops.  Over A Z and B Z the product holds
        # the pair (w A Z, w B Z) for every stack word w, so a plain
        # product BFS walks to its cap.  The proof splits off each common
        # top and closes on three pairs.
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
        assert bf.ref_distinguishing_word(m, ("q", c1.stack), ("q", c2.stack), 64, 50) == (None, False)
        monkeypatch.setattr(analysis, "DISTINGUISH_NODE_CAP", 50)
        assert proved(m, c1, c2)
        calls = 0
        assert distinguish(m, c1, c2) is None
        assert calls <= 2 + 3 * 2 + 2 * 2

    def test_separator_below_a_deep_common_top(self, monkeypatch):
        # Sides in q over Z^20 X and Z^20 Y: c pops a Z or a pushed A or B,
        # and a, b push A, B on every top, so the product grows.  Only
        # after c^20 pops the common top do the sides differ: a pushes into
        # the accepting f over X and into q over Y.  Every pop probe ends in
        # q, which rejects, and the shortest separator c^20 a lies deeper
        # than a plain product BFS capped at 200 pairs reaches; splitting
        # the common top reaches it through its pop witness.
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
        assert bf.ref_distinguishing_word(m, ("q", c1.stack), ("q", c2.stack), 64, 200) == (None, False)
        monkeypatch.setattr(analysis, "DISTINGUISH_NODE_CAP", 200)
        w = distinguish(m, c1, c2)
        assert w is not None and separates(m, c1, c2, w)


def pop_layer_machines():
    """Random ε-machines, raw and completed."""
    for seed in range(30):
        raw = random_eps_machine(random.Random(seed))
        yield from (raw, complete_dpda(raw))


class TestPopLayers:
    def test_every_split_reads_the_reference_layer(self, monkeypatch):
        # Over every pair of configurations reached by words of length
        # <= 5, on one graph per machine: the last layer each common-top
        # split reads is the pop witnesses of its segment α, composed from
        # scratch.
        splits = []
        real = analysis._Product.pop_layers

        def recorded(graph, state, node, stop=0):
            layers = list(real(graph, state, node, stop))
            if sys._getframe(1).f_code.co_name == "_search":
                alpha = graph.stack(node)[: graph.heights[node] - graph.heights[stop]]
                splits.append((state, alpha, layers[-1], pop_witnesses(graph.summary, state, alpha)))
            return iter(layers)

        monkeypatch.setattr(analysis._Product, "pop_layers", recorded)
        for m in pop_layer_machines():
            graph = analysis._Product(m)
            runs = (advance(m, m.start_configuration(), u) for u in bf.iter_words("01", 5))
            configs = list(dict.fromkeys(r[0] for r in runs if r is not None))
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1 :]:
                    distinguish(m, c1, c2, graph=graph)
        assert len(splits) > 100
        for state, alpha, got, want in splits:
            assert got == want, (state, alpha)

    def test_loop_candidates_match_the_reference(self):
        # Every pump read off a word of length <= 6, on one graph per
        # machine: the loop stage's candidates are the summary's nonempty
        # w words whose end state q pops gamma back into q by a nonempty y,
        # with y composed from scratch.
        found = 0
        for m in pop_layer_machines():
            graph = analysis._Product(m)
            summary, seen = graph.summary, set()
            for u in bf.iter_words(m.input_alphabet, 6):
                for pump in analysis._pumps(graph, u, start_levels(graph, u)[1:]):
                    if pump in seen:
                        continue
                    seen.add(pump)
                    gamma = graph.stack(pump.top, pump.bottom)
                    want = [
                        (q, w, y)
                        for q, w in sorted(summary.get((pump.p, pump.X), {}).items())
                        for y in [pop_witnesses(summary, q, gamma).get(q)]
                        if w and y
                    ]
                    assert list(_loop_candidates(graph, pump)) == want, pump
                    found += len(want)
        assert found > 100


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
    return find_divergent_word(analysis._Product(m), length)


def leaves(tree):
    """The kept sides at the leaves of the search's discrimination tree."""
    return [tree[0]] if len(tree) == 1 else leaves(tree[1]) + leaves(tree[2])


class TestDivergentWord:
    def test_lsharp_grows_zeros(self, lsharp):
        assert divergent(lsharp, 8) == "00000000"

    def test_dyck_grows_opens(self):
        assert divergent(machine("dyck1"), 6) == "(((((("

    def test_prefix_signatures_pairwise_distinct(self, lsharp):
        u = divergent(lsharp, 8)
        # confirmed by direct product simulation on every prefix pair
        configs = [advance(lsharp, lsharp.start_configuration(), u[:i])[0] for i in range(9)]
        for i in range(len(configs)):
            for j in range(i + 1, len(configs)):
                assert distinguish(lsharp, configs[i], configs[j]) is not None

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
        # Each distinguisher call meets a leaf: the candidate agrees with
        # that leaf's prefix on every word along its sift path, and every
        # inner word separates the prefixes of its two subtrees, so every
        # two kept prefixes differ on the word at their lowest common node.
        # Both are checked against `config_member` alone.
        real = analysis.distinguishing_word
        depths = []

        def checking(graph, s1, s2):
            search = sys._getframe(1).f_locals
            m, node = graph.m, search["tree"]
            assert graph is search["graph"]
            assert len(leaves(node)) == len(search["word"]) + 1
            assert s1 == search["side"]
            c1, c2 = graph.configuration(s1), graph.configuration(s2)
            path = []
            while len(node) > 1:
                path.append(node[0])
                node = node[1 + config_member(m, c1, node[0])]
            assert s2 == node[0]
            assert [config_member(m, c2, w) for w in path] == [config_member(m, c1, w) for w in path]
            nodes = [search["tree"]]
            while nodes:
                w, *subtrees = nodes.pop()  # no subtrees at a leaf
                for bit, subtree in enumerate(subtrees):
                    kept = [graph.configuration(side) for side in leaves(subtree)]
                    assert all(config_member(m, c, w) == bit for c in kept), w
                    nodes.append(subtree)
            depths.append(len(path))
            return real(graph, s1, s2)

        monkeypatch.setattr(analysis, "distinguishing_word", checking)
        divergent(machine(name), length)
        assert len(set(depths)) > 2

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

        monkeypatch.setattr(dpda, "_drive", counted)
        monkeypatch.setattr(analysis, "_drive", counted)
        budgets = SearchBudgets()
        try:
            find_divergent_word(analysis._Product(m), budgets.word_length)
        except ExhaustedError:
            pass
        assert runs <= len(m.states) * len(m.stack_alphabet) * (len(m.input_alphabet) + 1)

    @pytest.mark.parametrize(
        "doc",
        [corpus._ENTRIES[name][0]() for name in corpus.names()]
        + [bench_machines().counter_doc(k) for k in bench_machines().COUNTER_KS],
    )
    def test_the_search_builds_no_configuration(self, monkeypatch, doc):
        # The search holds sides and hands the distinguisher two of them,
        # so no side is turned back into a configuration.
        m = complete_dpda(validate_dpda(doc))
        built = calls = 0
        configuration, real = analysis._Product.configuration, analysis.distinguishing_word

        def counted_configuration(graph, side):
            nonlocal built
            built += 1
            return configuration(graph, side)

        def counted_distinguish(graph, s1, s2):
            nonlocal calls
            calls += 1
            return real(graph, s1, s2)

        monkeypatch.setattr(analysis._Product, "configuration", counted_configuration)
        monkeypatch.setattr(analysis, "distinguishing_word", counted_distinguish)
        budgets = SearchBudgets()
        try:
            find_divergent_word(analysis._Product(m), budgets.word_length)
        except ExhaustedError:
            pass
        assert built == 0 < calls, (built, calls)

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_pop_probes_are_built_once_per_side(self, monkeypatch, m):
        # One graph serves the whole extraction, and every reader of its
        # trie (the distinguisher's probes, `_search`'s common-top splits
        # and the loop stage's y words) walks it through `pop_layers`: the
        # extraction composes each layer once, one `_pop_step` per trie
        # entry.  Every walk's layers are the pop witnesses of its top
        # segments, so a walk down a whole stack, as a side's probes are,
        # gives the pop witnesses of every prefix of that stack.
        steps, walks = 0, []
        real_step, real_layers = analysis._pop_step, analysis._Product.pop_layers

        def counted_step(entries, current, symbol):
            nonlocal steps
            if sys._getframe(1).f_code.co_name == "pop_layers":
                steps += 1
            return real_step(entries, current, symbol)

        def recorded_layers(graph, state, node, stop=0):
            walks.append((graph, state, node, stop))
            return real_layers(graph, state, node, stop)

        monkeypatch.setattr(analysis, "_pop_step", counted_step)
        monkeypatch.setattr(analysis._Product, "pop_layers", recorded_layers)
        try:
            find_witness(copy.copy(m))  # a copy keeps no earlier test's outcome
        except SearchExhaustedError:
            pass
        graphs = {graph for graph, *_ in walks}
        assert len(graphs) <= 1
        composed = steps
        assert composed == sum(len(graph.layers) for graph in graphs)
        for graph, state, node, stop in walks:
            summary = graph.summary
            segment = graph.stack(node)[: graph.heights[node] - graph.heights[stop]]
            layers = list(real_layers(graph, state, node, stop))
            want = [pop_witnesses(summary, state, top) for top in pop_walk(summary, state, segment)]
            assert layers == want, (state, segment)
            if not stop:
                probes = {w for layer in layers for w in layer.values()}
                stack = graph.stack(node)
                assert probes == {
                    w
                    for k in range(1, len(stack) + 1)
                    for w in pop_witnesses(summary, state, stack[:k]).values()
                }, (state, stack)
        assert steps == composed  # reading every walk again composes nothing

    def test_each_closure_flag_is_read_once_per_graph(self):
        # The distinguisher's shared-top filter asks for the ε-closure flag
        # of each down-state over each rest below a common segment, again
        # for every layer and call that meets the pair; the graph reads each
        # (state, node) pair's flag once.  Over the benchmark's machines,
        # each searched on a graph of its own.
        code = analysis._Product.closure_flag.__code__
        asked = reads = 0
        for m in bench_suite_machines():
            graph, flags = analysis._Product(m), []
            read = graph.read

            def recorded(side, word):
                if sys._getframe(1).f_code is code:
                    flags.append(graph.pairs[side])
                return read(side, word)

            def counted(state, node):
                nonlocal asked
                asked += 1
                return analysis._Product.closure_flag(graph, state, node)

            graph.read, graph.closure_flag = recorded, counted
            try:
                find_divergent_word(graph, SearchBudgets().word_length)
            except ExhaustedError:
                pass
            assert len(set(flags)) == len(flags), m
            reads += len(flags)
        assert 0 < reads < asked  # 1,136 reads for 20,932 asks

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
        # one after 0^(k-3) and composes three A's, A0 and X0.  A walk down
        # a top segment only, as a split's or a loop's is, composes nothing
        # after the whole stack's walk.
        graph = analysis._Product(m)
        summary, walked = graph.summary, set()
        for k in range(12):
            c = advance(m, m.start_configuration(), "0" * k)[0]
            node = graph.push(0, c.stack[::-1])
            new = {(c.state, top) for top in pop_walk(summary, c.state, c.stack)} - walked
            before = len(graph.layers)
            list(graph.pop_layers(c.state, node))
            assert len(graph.layers) - before == len(new), (k, c)
            stop = node
            while stop:
                stop = graph.cells[stop][1]
                list(graph.pop_layers(c.state, node, stop))
            assert len(graph.layers) - before == len(new), (k, c)
            walked |= new
            if k >= 5:
                assert len(new) == steady, c

    def test_one_distinguisher_run_per_pair(self, monkeypatch):
        # Backtracking meets the same two (candidate, leaf) pairs six times
        # on this machine; each pair's verdict is computed once and reused.
        # A meeting is a run of the line that forms the pair, counted by a
        # line tracer on the search's frame.
        calls, meetings = [], 0
        real, code = analysis.distinguishing_word, find_divergent_word.__code__
        source, first = inspect.getsourcelines(code)
        at = first + next(i for i, line in enumerate(source) if "pair = (side, kept)" in line)

        def counting(graph, s1, s2):
            calls.append((s1, s2))
            return real(graph, s1, s2)

        def lines(frame, event, arg):
            nonlocal meetings
            meetings += event == "line" and frame.f_lineno == at
            return lines

        monkeypatch.setattr(analysis, "distinguishing_word", counting)
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: lines if frame.f_code is code else None)
        try:
            with pytest.raises(ExhaustedError) as excinfo:
                divergent(machine("even_length_reg"), 8)
        finally:
            sys.settrace(previous)
        assert excinfo.value.best_prefix == "0"
        assert len(calls) == len(set(calls)) == 2
        assert meetings > len(calls)


def reference_distinguishing_word(m, c1, c2, graph):
    """The distinguisher with every pop probe read: the union of both
    sides' pop probes in (length, word) order, then the closure flags, then
    `_search`, all on `graph`."""
    if c1 == c2:
        return None
    u1, u2 = (graph.side(c.state, graph.push(0, c.stack[::-1])) for c in (c1, c2))
    walks = (graph.pop_layers(*graph.pairs[u]) for u in (u1, u2))
    probes = {w for walk in walks for pops in walk for w in pops.values()}
    for cand in sorted(probes, key=lambda w: (len(w), w)):
        if graph.read(u1, cand)[1] != graph.read(u2, cand)[1]:
            return cand
    (s1, a1), (s2, a2) = graph.read(u1, ""), graph.read(u2, "")
    if a1 != a2:
        return ""
    return analysis._search(graph, s1, s2)[0]


def reference_divergent_word(graph, target_length):
    """The flat signature scan on `graph`: every kept prefix carries its
    flags on the whole suffix list, a candidate is signed on all of it and
    compared with every kept signature, and a new suffix is read from every
    kept prefix.  Returns the word, or the best prefix in an ExhaustedError."""
    m = graph.m
    sigma = sorted(m.input_alphabet)
    suffixes = ["", *sigma, *(a + b for a in sigma for b in sigma)]
    verdicts = {}

    def sign(side):
        return [graph.read(side, s)[1] for s in suffixes]

    def extensions(side):
        ends = [(a, graph.read(side, a)[0]) for a in sigma]
        ends = [(a, end) for a, end in ends if end is not None]
        return iter(sorted(ends, key=lambda e: -graph.heights[graph.pairs[e[1]][1]]))

    start = graph.close(m.start_configuration())[0]
    sides, sigs, word, best = [start], [sign(start)], [], ""
    pending = [extensions(start)]
    while True:
        nxt = next(pending[-1], None)
        if nxt is None:
            pending.pop()
            if not pending:
                raise ExhaustedError(best)
            word.pop(), sides.pop(), sigs.pop()
            continue
        symbol, side = nxt
        sig = sign(side)
        clash = next((i for i, kept in enumerate(sigs) if kept == sig), None)
        if clash is not None:
            pair = (side, sides[clash])
            if pair not in verdicts and side == sides[clash]:
                verdicts[pair] = None
            elif pair not in verdicts:
                configurations = map(graph.configuration, pair)
                verdicts[pair] = reference_distinguishing_word(m, *configurations, graph)
            if verdicts[pair] is None:
                continue
            suffixes.append(verdicts[pair])
            for kept, bits in zip(sides, sigs):
                bits.append(graph.read(kept, suffixes[-1])[1])
            sig.append(graph.read(side, suffixes[-1])[1])
        word.append(symbol)
        sides.append(side)
        sigs.append(sig)
        best = max(best, "".join(word), key=len)
        if len(word) == target_length:
            return best
        pending.append(extensions(side))


def rule(p, top, label, q, push):
    return {"from": p, "top": top, "label": label, "to": q, "push": push}


# After "a" and "b" the stacks are A X Z and A Y Z in state p.  From p, "a"
# pops A into r1 and "bb" pops it into r, where an ε-step pops X into the
# accepting f: so "bb" separates the two, though it is a pop word of the
# shared top A only ("ab" pops A X into f first).  "a" and "ab" do not
# separate, and "ac" does and is what `_search` finds alone: a probe stage
# that dropped every shared-top probe would return "ac", not "bb".
COMMON_TOP_PROBE_DOC = {
    "states": ["s", "p", "t", "r", "r1", "f", "acc", "g", "h"],
    "input_alphabet": ["a", "b", "c"],
    "stack_alphabet": ["Z", "A", "X", "Y"],
    "rules": [
        rule("s", "Z", "a", "p", ["A", "X", "Z"]),
        rule("s", "Z", "b", "p", ["A", "Y", "Z"]),
        rule("p", "A", "a", "r1", []),
        rule("p", "A", "b", "t", ["A"]),
        rule("t", "A", "b", "r", []),
        rule("r", "X", "", "f", []),
        rule("r1", "X", "b", "f", []),
        rule("r1", "Y", "b", "acc", ["Y"]),
        rule("r1", "X", "c", "g", ["X"]),
        rule("r1", "Y", "c", "h", ["Y"]),
    ],
    "start_state": "s",
    "start_symbol": "Z",
    "accepting": ["f", "acc", "g"],
}


def divergent_outcome(search, m):
    try:
        return search(analysis._Product(m), SearchBudgets().word_length)
    except ExhaustedError as e:
        return ("exhausted", e.best_prefix)


def exactness_machines(group):
    if group == "eps":
        raw = [random_eps_machine(random.Random(seed)) for seed in range(30)]
        return raw + [complete_dpda(m) for m in raw]
    machines = bench_suite_machines()
    return {"corpus": machines[:8], "counters": machines[8:14], "random": machines[14:]}[group]


class TestFewerReadsSameWords:
    """The discrimination tree and the skipped common-top probes read fewer
    words than the flat signature scan and the read-every-probe stage kept
    above as references, and change nothing they return."""

    @pytest.mark.parametrize("group", ["corpus", "counters", "random", "eps"])
    def test_same_words_as_the_flat_scan(self, monkeypatch, group):
        # The tree asks the distinguisher about other pairs than the flat
        # scan, but it returns the same word or best prefix, and `_search`
        # gives up at its node cap no more often than under the scan.
        real = analysis._search

        def outcome_and_give_ups(search, m):
            gave_up = 0

            def counting(*args):
                nonlocal gave_up
                word, closed = real(*args)
                gave_up += not closed
                return word, closed

            monkeypatch.setattr(analysis, "_search", counting)
            return divergent_outcome(search, m), gave_up

        machines = exactness_machines(group)
        assert len(machines) == {"corpus": 8, "counters": 6, "random": 60, "eps": 60}[group]
        for m in machines:
            got, got_gave_up = outcome_and_give_ups(find_divergent_word, m)
            want, want_gave_up = outcome_and_give_ups(reference_divergent_word, m)
            assert got == want
            assert got_gave_up <= want_gave_up, (got_gave_up, want_gave_up)

    @pytest.mark.parametrize("complete", [False, True])
    def test_a_common_top_probe_whose_closures_differ_is_read(self, complete):
        m = validate_dpda(COMMON_TOP_PROBE_DOC)
        m = complete_dpda(m) if complete else m
        c1, c2 = Configuration("p", ("A", "X", "Z")), Configuration("p", ("A", "Y", "Z"))
        graph = analysis._Product(m)
        u1, u2 = (graph.close(c)[0] for c in (c1, c2))
        assert [list(graph.pop_layers(*graph.pairs[u])) for u in (u1, u2)] == [
            [{"r1": "a", "r": "bb"}, {"f": "ab"}, {}],
            [{"r1": "a", "r": "bb"}, {}],
        ]
        assert analysis._search(graph, u1, u2) == ("ac", True)
        assert distinguish(m, c1, c2, graph=graph) == "bb"
        assert [config_member(m, c, "bb") for c in (c1, c2)] == [True, False]

    @pytest.mark.parametrize(
        "m",
        SMALL_MACHINES
        + [pytest.param(complete_dpda(validate_dpda(COMMON_TOP_PROBE_DOC)), id="common-top-probe")],
    )
    def test_same_word_on_every_pair_of_short_configurations(self, m):
        # Every ordered pair of configurations reached by words of length
        # <= 4 gets the reference's word, each implementation on its own
        # graph.
        start = m.start_configuration()
        reached = {advance(m, start, u) for u in bf.iter_words(m.input_alphabet, 4)} - {None}
        configs = sorted({c for c, _ in reached}, key=lambda c: (c.state, len(c.stack), c.stack))
        graph, reference = analysis._Product(m), analysis._Product(m)
        for c1, c2 in product(configs, repeat=2):
            got = distinguish(m, c1, c2, graph=graph)
            assert got == reference_distinguishing_word(m, c1, c2, reference), (c1, c2)

    def test_read_misses_walk_well_under_half_the_flat_scans_letters(self, monkeypatch):
        # Over the random suite at rename seed 1, `find_witness`'s read
        # misses walked 229,440 letters with the flat scan and every probe
        # read; the tree and the probe filter must stay under half of that.
        walked = 0
        real = analysis._Product.read

        def counted(graph, side, word):
            nonlocal walked
            if side is not None and word not in graph.rows[side]:
                end = side
                for ch in word or ("",):
                    walked += 1
                    end = real(graph, end, ch)[0]
                    if end is None:
                        break
            return real(graph, side, word)

        machines = bench_machines()
        docs = [machines.rename(doc, 1) for doc in machines.random_suite()]
        suite = [complete_dpda(validate_dpda(doc)) for doc in docs]
        monkeypatch.setattr(analysis._Product, "read", counted)
        for m in suite:
            try:
                find_witness(m)
            except SearchExhaustedError:
                pass
        assert 0 < walked <= 229_440 // 2

    @pytest.mark.parametrize("group", ["corpus", "random"])
    def test_a_new_suffix_is_read_from_its_clashing_pair_only(self, monkeypatch, group):
        # Right after a distinguisher call returns a word, the search reads
        # that word from the candidate and the kept prefix it clashed with,
        # and from no other kept prefix.
        log = []
        real_read, real_distinguish = analysis._Product.read, analysis.distinguishing_word

        def logged_read(graph, side, word):
            log.append((side, word))
            return real_read(graph, side, word)

        def marked(graph, s1, s2):
            word = real_distinguish(graph, s1, s2)
            log.append(({s1, s2}, word))
            return word

        monkeypatch.setattr(analysis._Product, "read", logged_read)
        monkeypatch.setattr(analysis, "distinguishing_word", marked)
        for m in exactness_machines(group):
            try:
                find_divergent_word(analysis._Product(m), SearchBudgets().word_length)
            except ExhaustedError:
                pass
        added = 0
        for at, (pair, word) in enumerate(log):
            if isinstance(pair, set) and word is not None:
                read_from = list(takewhile(lambda e: e[1] == word, log[at + 1 :]))
                assert {side for side, _ in read_from} == pair, word
                added += 1
        assert added


class TestStairs:
    def test_lsharp_0000(self, lsharp):
        st_ = run_levels(lsharp, "0000")[1:]
        assert [i for i, _ in st_] == [1, 2, 3, 4]
        assert [c.stack[0] for _, c in st_] == ["A0", "A", "A", "A"]
        assert all(c.state == "q0" for _, c in st_)

    def test_replaying_prefixes_reproduces_levels(self, lsharp):
        u = "000000"
        for i, c in run_levels(lsharp, u):
            assert advance(lsharp, lsharp.start_configuration(), u[:i])[0] == c

    def test_positions_and_heights_increase(self, lsharp):
        u = "000000"
        levels = run_levels(lsharp, u)[1:]
        for (i, ci), (j, cj) in zip(levels, levels[1:]):
            assert 0 < i < j <= len(u)
            assert len(ci.stack) < len(cj.stack)
            assert cj.stack[-len(ci.stack) :] == ci.stack

    def test_fail_word_has_no_levels(self, lsharp):
        assert run_levels(lsharp, "10")[1:] == []

    @pytest.mark.parametrize("complete", [False, True])
    def test_levels_match_the_rules_only_reference(self, complete):
        machines = [validate_dpda(corpus._ENTRIES[name][0]()) for name in corpus.names()]
        machines += [random_eps_machine(random.Random(seed)) for seed in range(30)]
        for m in machines:
            m = complete_dpda(m) if complete else m
            graph = analysis._Product(m)
            for u in bf.iter_words(m.input_alphabet, 6):
                ref = [(i, Configuration(*c)) for i, c in bf.ref_levels(m, u)]
                assert run_levels(m, u, graph) == ref, u


class TestPumps:
    def test_lsharp_pump(self, lsharp):
        found = pumps(lsharp, "000000")
        assert found
        first, gamma, _ = found[0]
        assert first.x == "0"
        assert len(gamma) == 1

    def test_pump_soundness_iterates(self, lsharp):
        for pump, gamma, _ in pumps(lsharp, "000000"):
            for m_times in range(6):
                res = advance(lsharp, Configuration(pump.p, (pump.X,)), pump.x * m_times)
                assert res is not None
                assert res[0] == Configuration(pump.p, (pump.X,) + gamma * m_times)

    def test_short_word_has_no_pump(self, lsharp):
        assert pumps(lsharp, "0") == []

    def test_pop_witnesses_compose(self, lsharp):
        graph = analysis._Product(lsharp)
        *_, ends = graph.pop_layers("q0", graph.push(0, ("A0", "A")))
        assert ends
        for q, w in ends.items():
            res = advance(lsharp, Configuration("q0", ("A", "A0")), w)
            assert res is not None and res[0] == Configuration(q, ())

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_the_re_check_rejects_no_candidate(self, m):
        # From a level c_i on, the run keeps every stack taller than c_i's,
        # so it reads the same from the bare top X, and every repeated
        # (state, top) level pair is a pump.
        graph = analysis._Product(m)
        for u in bf.iter_words(m.input_alphabet, 6):
            levels = start_levels(graph, u)[1:]
            configs = [(i, graph.configuration(side)) for i, side in levels]
            unchecked = [
                (
                    u[:i],
                    u[i:j],
                    ci.state,
                    ci.stack[0],
                    cj.stack[1 : len(cj.stack) - len(ci.stack) + 1],
                    ci.stack[1:],
                )
                for lo, (i, ci) in enumerate(configs)
                for j, cj in configs[lo + 1 :]
                if (cj.state, cj.stack[0]) == (ci.state, ci.stack[0])
            ]
            got = [
                (p.v, p.x, p.p, p.X, graph.stack(p.top, p.bottom), graph.stack(p.bottom))
                for p in analysis._pumps(graph, u, levels)
            ]
            assert got == unchecked, u

    def test_stair_and_pump_invariants_on_random_words(self):
        rng = random.Random(1789)
        factorized = 0
        for name in corpus.names():
            m = machine(name)
            graph = analysis._Product(m)
            sigma = sorted(m.input_alphabet)
            for _ in range(120):
                u = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 14)))
                st_ = run_levels(m, u, graph)[1:]
                if not st_:
                    continue
                factorized += 1
                for i, c in st_:
                    got = advance(m, m.start_configuration(), u[:i])[0]
                    assert got == c, (name, u)
                for p, gamma, _ in pumps(m, u)[:4]:
                    assert p.x and gamma, (name, u)
                    for reps in range(4):
                        r = advance(m, Configuration(p.p, (p.X,)), p.x * reps)
                        assert r is not None
                        assert r[0] == Configuration(p.p, (p.X,) + gamma * reps)
        assert factorized > 100


def first_pumps(m, count=2):
    """The first pumps read off m's divergent word, or off the longest
    prefix the search kept when it exhausts."""
    try:
        u = divergent(m, 24)
    except ExhaustedError as exc:
        u = exc.best_prefix
    return pumps(m, u)[:count]


def level_cases(m, max_len=3):
    """(gamma, delta, q, z) for the first pumps of m, every state q and
    every z with |z| <= max_len."""
    words = list(bf.iter_words(m.input_alphabet, max_len))
    return [
        (gamma, delta, q, z)
        for _, gamma, delta in first_pumps(m)
        for q in sorted(m.states)
        for z in words
    ]


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


def flag_orbit(graph, q, gamma, delta, z):
    """`_level_flags` on the graph's nodes of gamma·delta and delta."""
    bottom = graph.push(0, delta[::-1])
    return analysis._level_flags(graph, q, graph.push(bottom, gamma[::-1]), bottom, z)


def level_flags(graph, q, gamma, delta, z, top=20):
    """`_level_flags`' flags for l = 0..top, its cycle unrolled."""
    flags, start = flag_orbit(graph, q, gamma, delta, z)
    cycle = flags[start:]
    return [flags[l] if l < start else cycle[(l - start) % len(cycle)] for l in range(top + 1)]


class TestLevelFlags:
    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_matches_the_reference(self, m):
        graph = analysis._Product(m)
        for gamma, delta, q, z in level_cases(m):
            got = level_flags(graph, q, gamma, delta, z)
            want = [bf.ref_config_member(m, q, gamma * l + delta, z) for l in range(21)]
            assert got == want, (gamma, delta, q, z)

    def test_flag_is_carried_across_windows(self):
        m = complete_dpda(validate_dpda(CARRY_RAW))
        got = level_flags(analysis._Product(m), "p", ("A",), ("B",), "a")
        assert got == [False] + [True] * 20
        assert got == [bf.ref_config_member(m, "p", ("A",) * l + ("B",), "a") for l in range(21)]

    def test_the_orbit_is_a_threshold_and_a_cycle(self):
        # Level 0 rejects; from level 1 on, the carried flag accepts, and
        # the key after the second window repeats the first's.
        m = complete_dpda(validate_dpda(CARRY_RAW))
        assert flag_orbit(analysis._Product(m), "p", ("A",), ("B",), "a") == ([False, True], 1)

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
            graph = analysis._Product(m)
            for gamma, delta, q, z in level_cases(m):
                runs.clear()
                flag_orbit(graph, q, gamma, delta, z)
                assert len(runs) <= 2 * len(m.states) * (len(z) + 2), (gamma, delta, q, z)
                checked += 1
        assert checked > 1000


class TestPeriodicity:
    def test_constant_true(self):
        m = machine("l1_le")
        base = advance(m, m.start_configuration(), "01")[0]
        report = periodicity(m, base, "1", "")
        assert (report.k, report.period, report.table) == (0, 1, (True,))

    def test_l1_le_threshold(self):
        # frozen from the predicate: "00" + 1^l is in the language iff l >= 2
        m = machine("l1_le")
        pred = corpus.get_entry("l1_le").predicate
        expected = [pred("00" + "1" * l) for l in range(10)]
        assert expected == [False, False] + [True] * 8
        base = advance(m, m.start_configuration(), "00")[0]
        report = periodicity(m, base, "1", "")
        assert (report.k, report.period, report.table) == (2, 1, (True,))

    def test_alternating_parity(self):
        m = machine("even_length_reg")
        report = periodicity(m, m.start_configuration(), "0", "")
        assert (report.k, report.period) == (0, 2)
        assert report.table == (True, False)

    def test_z_probe_against_predicate(self):
        m = machine("lsharp")
        pred = corpus.get_entry("lsharp").predicate
        base = advance(m, m.start_configuration(), "000")[0]
        report = periodicity(m, base, "1", "1")
        for l in range(report.k, report.k + 3 * report.period + 1):
            assert pred("000" + "1" * l + "1") == report.table[l % report.period]

    def test_independent_re_simulation(self):
        m = machine("dyck1")
        base = advance(m, m.start_configuration(), "((")[0]
        report = periodicity(m, base, ")", "")
        for l in range(report.k, report.k + 3 * report.period + 1):
            assert config_member(m, base, ")" * l) == report.table[l % report.period]

    def test_rejects_empty_y(self, lsharp):
        with pytest.raises(ValueError):
            periodicity(lsharp, lsharp.start_configuration(), "", "1")

    @pytest.mark.parametrize("m", SMALL_MACHINES)
    def test_matches_the_brute_force(self, m, ten_seconds):
        for base, y, z in periodicity_cases(m):
            assert_exact_periodicity(m, base, y, z)

    def test_the_sweep_takes_the_growth_branch(self, tails, ten_seconds):
        # Every case above whose snapshots never repeat reads its tail off
        # a pump; enough of them do that the sweep tests that branch too.
        grown = 0
        for param in SMALL_MACHINES:
            (m,) = param.values
            for base, y, z in periodicity_cases(m):
                before = len(tails)
                periodicity(m, base, y, z)
                grown += len(tails) > before
        assert grown >= 20

    def test_growth_with_a_pump_at_y_boundaries(self, tails, ten_seconds):
        # a pushes X and Y in turn over Z, so the run on a^l never repeats;
        # b pops an X into the accepting f, and f pops X or Y on b.
        m = validate_dpda(GROWTH_RAW)
        for z in bf.iter_words("ab", 3):
            before = len(tails)
            assert_exact_periodicity(m, m.start_configuration(), "a", z)
            assert len(tails) > before, z
        report = periodicity(m, m.start_configuration(), "a", "bb")
        assert (report.k, report.period, report.table) == (2, 2, (False, True))

    def test_growth_with_a_rotated_pump(self, tails, ten_seconds):
        # y = ab: a pops an X, b pushes three, so every stack after an a is
        # lower than the one before it, and only the positions after an a
        # (and the run's end) are levels: the pump starts mid-y.
        m = validate_dpda(ROTATED_RAW)
        base = Configuration("p", ("X", "Z"))
        graph = analysis._Product(m)
        side = graph.side(base.state, graph.push(0, base.stack[::-1]))
        assert [i for i, _ in analysis._levels(graph, side, "ab" * 4)] == [1, 3, 5, 7, 8]
        for z in bf.iter_words("abc", 3):
            before = len(tails)
            assert_exact_periodicity(m, base, "ab", z)
            assert len(tails) > before, z

    def test_a_level_on_the_empty_stack_is_not_pumped(self, ten_seconds):
        # The run on a^2 pops both X's, so its last level has no top.
        m = validate_dpda(EMPTY_STACK_RAW)
        base = Configuration("p", ("X", "X"))
        report = periodicity(m, base, "a", "")
        assert (report.k, report.period, report.table) == (3, 1, (False,))
        assert_exact_periodicity(m, base, "a", "")


GROWTH_RAW = {
    "states": ["p", "f"],
    "input_alphabet": ["a", "b"],
    "stack_alphabet": ["Z", "X", "Y"],
    "rules": [
        {"from": "p", "top": "Z", "label": "a", "to": "p", "push": ["X", "Z"]},
        {"from": "p", "top": "X", "label": "a", "to": "p", "push": ["Y", "X"]},
        {"from": "p", "top": "Y", "label": "a", "to": "p", "push": ["X", "Y"]},
        {"from": "p", "top": "X", "label": "b", "to": "f", "push": []},
        {"from": "f", "top": "X", "label": "b", "to": "f", "push": []},
        {"from": "f", "top": "Y", "label": "b", "to": "f", "push": []},
    ],
    "start_state": "p",
    "start_symbol": "Z",
    "accepting": ["f"],
}

# From p X Z: a pops an X, b pushes three (two over Z), and c pops an X into
# the accepting f, which pops one more X per c.
ROTATED_RAW = {
    "states": ["p", "f"],
    "input_alphabet": ["a", "b", "c"],
    "stack_alphabet": ["Z", "X"],
    "rules": [
        {"from": "p", "top": "X", "label": "a", "to": "p", "push": []},
        {"from": "p", "top": "X", "label": "b", "to": "p", "push": ["X", "X", "X"]},
        {"from": "p", "top": "Z", "label": "b", "to": "p", "push": ["X", "X", "Z"]},
        {"from": "p", "top": "X", "label": "c", "to": "f", "push": []},
        {"from": "f", "top": "X", "label": "c", "to": "f", "push": []},
    ],
    "start_state": "p",
    "start_symbol": "Z",
    "accepting": ["f"],
}

EMPTY_STACK_RAW = {
    "states": ["p"],
    "input_alphabet": ["a"],
    "stack_alphabet": ["X"],
    "rules": [{"from": "p", "top": "X", "label": "a", "to": "p", "push": []}],
    "start_state": "p",
    "start_symbol": "X",
    "accepting": ["p"],
}


@pytest.fixture
def tails(monkeypatch):
    """The `_level_flags` calls that read a pump's tail, from a top window."""
    calls = []
    real = analysis._level_flags

    def spy(*args, **kwargs):
        if kwargs.get("head"):
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "_level_flags", spy)
    return calls


def periodicity_cases(m, count=12):
    """(base, y, z) drawn from m's short words: base after a prefix of
    length <= 2, 1 <= |y| <= 2 and |z| <= 2.  Two more bases follow, each
    with z empty and with z nonempty: the start state over the empty stack,
    whose run strands on the first letter, so that every later snapshot is
    stranded, and, when m has an ε-rule, that rule's state over its top
    and m's start symbol, which pops by the ε-rule before reading
    anything."""
    rng = random.Random(len(m.rules))
    words = list(bf.iter_words(sorted(m.input_alphabet), 2))
    cases = []
    for _ in range(count):
        prefix, y, z = rng.choice(words), rng.choice(words[1:]), rng.choice(words)
        res = advance(m, m.start_configuration(), prefix)
        if res is not None:
            cases.append((res[0], y, z))
    bases = [Configuration(m.start_state, ())]
    eps = [r for r in m.rules if not r.label]
    bases += [Configuration(r.from_state, (r.top, m.start_symbol)) for r in eps[:1]]
    for base in bases:
        y = rng.choice(words[1:])
        cases += [(base, y, ""), (base, y, rng.choice(words[1:]))]
    return cases


def reference_periodicity(m, base, y, z, horizon):
    """The least (k, period, table), k-major, that fits the memberships of
    y^l z in L(base) for l = 0..horizon, each run from base by the
    rules-only reference, with k + 3·period <= horizon."""
    seq = [bf.ref_config_member(m, base.state, base.stack, y * l + z) for l in range(horizon + 1)]
    for k in range(horizon + 1):
        for p in range(1, (horizon - k) // 3 + 1):
            if all(seq[l] == seq[l - p] for l in range(k + p, horizon + 1)):
                return k, p, tuple(seq[k + (r - k) % p] for r in range(p))
    return None


def assert_exact_periodicity(m, base, y, z):
    """`periodicity`'s report is the brute-force one over a horizon well
    past its k + 3·period."""
    report = periodicity(m, base, y, z)
    horizon = max(30, 2 * (report.k + 3 * report.period))
    want = reference_periodicity(m, base, y, z, horizon)
    assert (report.k, report.period, report.table) == want, (base, y, z)
