import pytest

from dcflab import corpus
from dcflab.dpda import member, validate_dpda

import bruteforce as bf


ALL_NAMES = [
    "lsharp",
    "l1_le",
    "dyck1",
    "lr",
    "l_mm_n",
    "l_m_nn",
    "lsharp_squared",
    "even_length_reg",
]


def test_names_are_exactly_the_documented_set():
    assert corpus.names() == sorted(ALL_NAMES)


def test_unknown_name():
    with pytest.raises(corpus.UnknownNameError):
        corpus.get_entry("nope")


def test_predicate_spot_checks():
    assert corpus.get_entry("lsharp").predicate("0011")
    assert not corpus.get_entry("lsharp").predicate("0101")
    assert corpus.get_entry("l1_le").predicate("011")
    assert not corpus.get_entry("l1_le").predicate("001")
    assert corpus.get_entry("lr").predicate("abcba")
    assert corpus.get_entry("lr").predicate("c")
    assert not corpus.get_entry("lr").predicate("abccba")
    assert corpus.get_entry("dyck1").predicate("(())()")
    assert corpus.get_entry("dyck1").predicate("")
    assert not corpus.get_entry("dyck1").predicate(")(")
    assert corpus.get_entry("l_mm_n").predicate("010")
    assert corpus.get_entry("l_mm_n").predicate("001100")
    assert not corpus.get_entry("l_mm_n").predicate("0011")
    assert corpus.get_entry("l_m_nn").predicate("01100")
    assert not corpus.get_entry("l_m_nn").predicate("0110")
    assert corpus.get_entry("lsharp_squared").predicate("0101")
    assert not corpus.get_entry("lsharp_squared").predicate("01")
    assert corpus.get_entry("even_length_reg").predicate("")
    assert not corpus.get_entry("even_length_reg").predicate("0")


def test_oracle_wraps_predicate():
    oracle = corpus.oracle_of(corpus.get_entry("lsharp"))
    assert oracle.membership("01")
    assert not oracle.membership("")
    assert oracle.alphabet == frozenset("01")


def test_lsharp_prefix_against_the_language():
    # w extends into 0^n 1^n exactly when it is a prefix of one of the
    # words 0^n 1^n of length <= 2|w| + 2, w itself included.
    for w in bf.iter_words("01", 10):
        want = any(("0" * n + "1" * n).startswith(w) for n in range(1, len(w) + 2))
        assert corpus.is_lsharp_prefix(w) == want, w


def test_lsharp_squared_oracle_splits():
    oracle = corpus.oracle_of(corpus.get_entry("lsharp_squared"))
    assert oracle.membership("0101")
    assert oracle.membership("001101")
    assert not oracle.membership("0110")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_machine_agrees_with_predicate(name):
    # length 10 here; the acceptance suite runs the full length-14 sweep
    entry = corpus.get_entry(name)
    mismatch, _ = bf.sweep_agreement(entry.machine, entry.predicate, 10)
    assert mismatch is None


def test_lsharp_squared_predicate_equals_split_search():
    entry = corpus.get_entry("lsharp_squared")
    single = corpus.get_entry("lsharp").predicate
    for w in bf.iter_words("01", 12):
        assert entry.predicate(w) == bf.two_way_splits(w, single), w


@pytest.mark.parametrize("name", ALL_NAMES)
def test_entries_export_as_valid_documents(name):
    entry = corpus.get_entry(name)
    doc = corpus.entry_document(entry)
    again = validate_dpda(doc)
    assert again.states == entry.machine.states
    # the exported machine accepts the same words (spot grid)
    for w in bf.iter_words(sorted(entry.machine.input_alphabet), 6):
        assert member(entry.machine, w) == bf.ref_member(again, w), w


def test_machines_are_completed():
    for name in ALL_NAMES:
        assert corpus.get_entry(name).machine.completed


def test_random_long_words_agree_beyond_the_sweep():
    # words up to length 25, past the exhaustive length-14 grid
    import random

    rng = random.Random(1623)
    for name in ALL_NAMES:
        entry = corpus.get_entry(name)
        sigma = sorted(entry.machine.input_alphabet)
        for _ in range(600):
            w = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 25)))
            assert member(entry.machine, w) == entry.predicate(w), (name, w)


def test_runs_match_a_letter_by_letter_scan():
    # `_runs` is the ground truth behind l_mm_n, l_m_nn and lsharp_squared.
    def scan(w):
        out = []
        for ch in w:
            if out and out[-1][0] == ch:
                out[-1] = (ch, out[-1][1] + 1)
            else:
                out.append((ch, 1))
        return out

    for w in bf.iter_words("01", 12):
        assert corpus._runs(w) == scan(w), w
