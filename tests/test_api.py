"""The public surface of dcflab, pinned: adding or removing a public name
is an API change, and it must change this list on purpose."""

from dataclasses import fields

import dcflab

PUBLIC = [
    "AgreementReport",
    "Configuration",
    "CorpusEntry",
    "Dfa",
    "Dpda",
    "InvalidMachineError",
    "LanguageOracle",
    "OracleMealyMachine",
    "PeriodicityReport",
    "Rule",
    "SearchBudgets",
    "SearchExhaustedError",
    "StuckError",
    "TruthTable",
    "VerificationReport",
    "WitnessTuple",
    "analysis",
    "build_lsharp_reducer",
    "complement_machine",
    "complete_dpda",
    "compose",
    "config_member",
    "corpus",
    "dpda",
    "dpda_to_document",
    "evaluate",
    "find_witness",
    "get_entry",
    "identity_machine",
    "lift_dfa",
    "load_dpda",
    "load_mealy",
    "mealy",
    "mealy_to_document",
    "member",
    "names",
    "oracle_from_dpda",
    "oracle_from_machine",
    "oracle_of",
    "periodicity",
    "pop_summaries",
    "reduce_lsharp",
    "refute_simplicity_LR",
    "repair_nonempty",
    "restrict_regular",
    "transduce",
    "validate_dpda",
    "validate_mealy",
    "verify_witness",
    "witness",
]


def test_the_public_names_are_pinned():
    assert sorted(dcflab.__all__) == PUBLIC


def test_the_search_budgets_are_pinned():
    # Each field is a `witness find` flag too, so a new knob is a CLI change.
    assert [f.name for f in fields(dcflab.SearchBudgets)] == ["word_length", "z_length"]
