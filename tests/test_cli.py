import gc
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcflab
from dcflab import cli, corpus
from dcflab.cli import _build_parser, main, run_cli
from dcflab.dpda import dpda_to_document, validate_dpda
from dcflab.mealy import mealy_to_document, identity_machine, validate_mealy
from dcflab.witness import SearchBudgets

import bruteforce as bf


@pytest.fixture()
def lsharp_file(tmp_path):
    path = tmp_path / "lsharp.json"
    path.write_text(json.dumps(bf.LSHARP_RAW))
    return str(path)


@pytest.fixture()
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(mealy_to_document(identity_machine("01"))))
    return str(path)


def test_pda_validate_ok(lsharp_file):
    outcome = run_cli(["pda", "validate", lsharp_file])
    assert outcome.exit_code == 0
    assert "valid" in outcome.report


def test_pda_validate_names_offending_field(tmp_path):
    bad = dict(bf.LSHARP_RAW)
    bad["surprise"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    outcome = run_cli(["pda", "validate", str(path)])
    assert outcome.exit_code == 2
    assert "surprise" in outcome.report


def test_pda_member(lsharp_file):
    assert run_cli(["pda", "member", lsharp_file, "0011"]).exit_code == 0
    assert run_cli(["pda", "member", lsharp_file, "001"]).exit_code == 1


def test_pda_member_json_payload(lsharp_file):
    outcome = run_cli(["pda", "member", lsharp_file, "0011", "--json"])
    assert outcome.payload == {"word": "0011", "member": True}


def test_mealy_eval_with_corpus_oracle(identity_file):
    outcome = run_cli(["mealy", "eval", identity_file, "01", "--oracle", "lsharp"])
    assert outcome.exit_code == 0
    outcome = run_cli(["mealy", "eval", identity_file, "0", "--oracle", "lsharp"])
    assert outcome.exit_code == 1


def test_mealy_eval_with_machine_file_oracle(identity_file, lsharp_file):
    outcome = run_cli(["mealy", "eval", identity_file, "0011", "--oracle", lsharp_file])
    assert outcome.exit_code == 0


def test_mealy_eval_word_outside_the_input_alphabet_is_exit_2(identity_file, lsharp_file):
    # As with `pda member`: an unreadable word is a usage error, not "rejected".
    for word in ("0x1", "a"):
        outcome = run_cli(["mealy", "eval", identity_file, word, "--oracle", "lsharp", "--json"])
        assert outcome.exit_code == 2, word
        assert "input alphabet" in outcome.payload["error"]
        assert run_cli(["pda", "member", lsharp_file, word]).exit_code == 2


def test_machine_file_oracle_rejects_a_letter_outside_its_alphabet(tmp_path, lsharp_file):
    # The machine writes "a" to its oracle tape, which lsharp cannot read.
    machine = tmp_path / "a.json"
    machine.write_text(json.dumps(mealy_to_document(identity_machine("a"))))
    for oracle in ("lsharp", lsharp_file):
        assert run_cli(["mealy", "eval", str(machine), "a", "--oracle", oracle]).exit_code == 1


def test_witness_verify_with_machine_file_oracle_rejects_an_unreadable_tuple(tmp_path, lsharp_file):
    tup = tmp_path / "tuple.json"
    tup.write_text(json.dumps({"v": "a", "x": "0", "w": "", "y": "1", "z": "", "polarity": "direct"}))
    for oracle in ("lsharp", lsharp_file):
        outcome = run_cli(["witness", "verify", str(tup), "--oracle", oracle])
        assert outcome.exit_code == 1, oracle
        assert outcome.payload["counterexamples"]


def test_mealy_compose_writes_machine(identity_file, tmp_path):
    out = tmp_path / "composed.json"
    outcome = run_cli(["mealy", "compose", identity_file, identity_file, "-o", str(out)])
    assert outcome.exit_code == 0
    composed = validate_mealy(json.loads(out.read_text()))
    assert composed.states


def test_witness_verify_passes(tmp_path):
    tup = tmp_path / "tuple.json"
    tup.write_text(json.dumps({"v": "", "x": "0", "w": "", "y": "1", "z": "", "polarity": "direct"}))
    outcome = run_cli(
        ["witness", "verify", str(tup), "--oracle", "l1_le", "--m-bound", "10", "--n-bound", "10"]
    )
    assert outcome.exit_code == 0
    assert "passed" in outcome.report


def test_witness_verify_flipped_fails_with_listing(tmp_path):
    tup = tmp_path / "tuple.json"
    tup.write_text(
        json.dumps({"v": "", "x": "0", "w": "", "y": "1", "z": "", "polarity": "complement"})
    )
    outcome = run_cli(["witness", "verify", str(tup), "--oracle", "l1_le"])
    assert outcome.exit_code == 1
    assert "m=" in outcome.report
    assert outcome.payload["counterexamples"]


@pytest.mark.parametrize("bound", [["--m-bound", "-1"], ["--n-bound", "0"], ["--n-bound", "-3"]])
def test_witness_verify_without_grid_points_is_exit_2(tmp_path, bound):
    tup = tmp_path / "tuple.json"
    tup.write_text(json.dumps({"v": "0", "x": "1", "w": "1", "y": "1", "z": "1", "polarity": "direct"}))
    argv = ["witness", "verify", str(tup), "--oracle", "lsharp"]
    assert run_cli(argv).exit_code == 1
    outcome = run_cli(argv + bound)
    assert outcome.exit_code == 2
    assert "bound must be >= 1" in outcome.report


def test_witness_find_writes_tuple(tmp_path):
    out = tmp_path / "found.json"
    outcome = run_cli(["witness", "find", "--lang", "lsharp", "-o", str(out)])
    assert outcome.exit_code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"v", "x", "w", "y", "z", "polarity"}


def test_witness_find_budget_flags():
    outcome = run_cli(["witness", "find", "--lang", "even_length_reg", "--word-length", "6"])
    assert outcome.exit_code == 1
    assert outcome.payload == {"stage": "divergent_word"}


def test_reduce_lsharp_small_grid():
    outcome = run_cli(["reduce", "lsharp", "--lang", "l1_le", "--check-len", "8", "--json"])
    assert outcome.exit_code == 0
    assert outcome.payload["agreement"]["passed"]
    assert outcome.payload["agreement"]["words_checked"] == 2**9 - 1
    validate_mealy(outcome.payload["reducer"])


def test_corpus_list():
    outcome = run_cli(["corpus", "list"])
    assert outcome.exit_code == 0
    for name in corpus.names():
        assert name in outcome.report
    assert len(outcome.payload["entries"]) == len(corpus.names())


def test_refute_lr(tmp_path):
    from test_mealy import length_counter_machine, wide_tree_machine

    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(mealy_to_document(length_counter_machine())))
    outcome = run_cli(["refute", "lr", str(path), "--k-max", "6"])
    assert outcome.exit_code == 0
    assert "c" in outcome.payload["word"]

    path.write_text(json.dumps(mealy_to_document(wide_tree_machine())))
    outcome = run_cli(["refute", "lr", str(path), "--k-max", "5"])
    assert outcome.exit_code == 1
    # Every prefix of length 7 is dead, and a dead prefix refutes.
    outcome = run_cli(["refute", "lr", str(path), "--k-max", "7"])
    assert outcome.exit_code == 0
    assert outcome.payload["word"] == "aaaaaaacaaaaaaa"


def test_usage_error_is_exit_2():
    assert run_cli(["pda"]).exit_code == 2
    assert run_cli(["witness", "verify"]).exit_code == 2
    assert run_cli([]).exit_code == 2


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["--help"], "usage: dcflab [-h]"),
        (["pda", "--help"], "usage: dcflab pda [-h]"),
        (["witness", "find", "-h"], "usage: dcflab witness find [-h]"),
    ],
)
def test_help_is_an_outcome(argv, usage, capsys, monkeypatch):
    outcome = run_cli(argv)
    assert outcome.exit_code == 0
    assert outcome.report.startswith(usage)
    assert capsys.readouterr().out == ""
    monkeypatch.setattr("sys.argv", ["dcflab", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == outcome.report + "\n"


def test_missing_file_is_exit_2():
    assert run_cli(["pda", "member", "/does/not/exist.json", "0"]).exit_code == 2


def test_unknown_corpus_name_is_exit_2():
    outcome = run_cli(["witness", "find", "--lang", "nope"])
    assert outcome.exit_code == 2


def test_corpus_documents_survive_cli_round_trip(tmp_path):
    entry = corpus.get_entry("dyck1")
    path = tmp_path / "dyck.json"
    path.write_text(json.dumps(corpus.entry_document(entry)))
    assert run_cli(["pda", "member", str(path), "(())()"]).exit_code == 0
    assert run_cli(["pda", "member", str(path), "(()"]).exit_code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "find", "--lang", "lsharp", "--z-length", "0"],
        ["witness", "find", "--lang", "lsharp", "--z-length", "-1"],
        ["reduce", "lsharp", "--lang", "lsharp", "--check-len", "-1"],
    ],
)
def test_out_of_range_budget_is_exit_2(argv):
    assert run_cli(argv).exit_code == 2


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_refute_lr_k_max_below_1_is_exit_2(tmp_path, k_max):
    from test_mealy import length_counter_machine

    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(mealy_to_document(length_counter_machine())))
    outcome = run_cli(["refute", "lr", str(path), "--k-max", k_max])
    assert outcome.exit_code == 2
    assert "k_max" in outcome.report


@pytest.mark.parametrize("field", ["from", "top", "label", "to"])
def test_non_string_rule_field_is_exit_2(tmp_path, field):
    doc = json.loads(json.dumps(bf.LSHARP_RAW))
    doc["rules"][0][field] = [doc["rules"][0][field]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    outcome = run_cli(["pda", "validate", str(path)])
    assert outcome.exit_code == 2
    assert f"rules[0].{field}" in outcome.report


@pytest.mark.parametrize("name", ["v", "x", "w", "y", "z"])
def test_non_string_witness_component_is_exit_2(tmp_path, name):
    doc = {"v": "", "x": "0", "w": "", "y": "1", "z": "", "polarity": "direct"}
    doc[name] = 1
    tup = tmp_path / "tuple.json"
    tup.write_text(json.dumps(doc))
    outcome = run_cli(["witness", "verify", str(tup), "--oracle", "lsharp"])
    assert outcome.exit_code == 2
    assert f"{name} must be a string" in outcome.report


def _identity_doc():
    return mealy_to_document(identity_machine("01"))


def _with(doc, path, value):
    cur = doc
    for key in path[:-1]:
        cur = cur[key]
    cur[path[-1]] = value
    return doc


EVAL = ["mealy", "eval", "{}", "01", "--oracle", "lsharp"]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (EVAL, _with(_identity_doc(), ["lambda", 0, "out"], 0)),
        (EVAL, _with(_identity_doc(), ["delta", 0, "from"], ["q"])),
        (EVAL, [["states"]]),
        (["pda", "validate", "{}"], [["states"]]),
        (["witness", "verify", "{}", "--oracle", "lsharp"], [["v"]]),
        (EVAL, _with(_identity_doc(), ["states"], "q")),
        (EVAL, _with(_with(_identity_doc(), ["queries", 0, "suffixes"], ""), ["queries", 0, "table"], [1])),
        (EVAL, _with(_identity_doc(), ["queries", 0, "table"], [False, True])),
    ],
    ids=[
        "lambda-out-int",
        "delta-from-list",
        "mealy-not-an-object",
        "dpda-not-an-object",
        "tuple-not-an-object",
        "mealy-states-string",
        "mealy-suffixes-string",
        "mealy-table-bools",
    ],
)
def test_malformed_document_is_exit_2(tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    outcome = run_cli([str(path) if a == "{}" else a for a in argv])
    assert outcome.exit_code == 2, outcome.report


@pytest.mark.parametrize(
    "argv",
    [
        ["pda", "validate", "{}"],
        ["pda", "member", "{}", "01"],
        ["mealy", "eval", "{}", "01", "--oracle", "lsharp"],
        ["mealy", "compose", "{}", "{}", "-o", "OUT"],
        ["witness", "verify", "{}", "--oracle", "lsharp"],
        ["refute", "lr", "{}"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_deeply_nested_json_is_exit_2(tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    files = {"{}": str(path), "OUT": str(tmp_path / "out.json")}
    outcome = run_cli([files.get(a, a) for a in argv])
    assert outcome.exit_code == 2, outcome.report
    assert "nested too deeply" in outcome.report


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "find", "--lang", "nope"],
        ["pda", "member", "/does/not/exist.json", "0"],
        ["witness", "verify", "--oracle", "lsharp"],
        ["reduce", "lsharp", "--lang", "lsharp", "--check-len", "-1"],
    ],
)
def test_exit_2_prints_a_json_error_under_json(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["dcflab", *argv, "--json"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    report = run_cli([*argv, "--json"]).report
    assert json.loads(capsys.readouterr().out) == {"error": report}


def test_member_word_outside_the_alphabet_is_exit_2(lsharp_file):
    assert run_cli(["pda", "member", lsharp_file, "0a1"]).exit_code == 2


def test_witness_find_flags_mirror_search_budgets():
    parser = _build_parser()
    args = parser.parse_args(["witness", "find", "--lang", "lsharp"])
    for f in fields(SearchBudgets):
        assert getattr(args, f.name) == f.default, f.name
        flag = "--" + f.name.replace("_", "-")
        args = parser.parse_args(["witness", "find", "--lang", "lsharp", flag, "7"])
        assert getattr(args, f.name) == 7, flag


@pytest.mark.parametrize(
    "flag", [["--suffix-budget", "64"], ["--pump-limit", "32"], ["--max-l", "200"]]
)
def test_removed_budget_flags_are_usage_errors(flag, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["dcflab", "witness", "find", "--lang", "lsharp", *flag, "--json"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert flag[0] in json.loads(capsys.readouterr().out)["error"]


REMOVED_FLAG = ["witness", "find", "--lang", "lsharp", "--suffix-budget", "64", "--json"]


@pytest.mark.parametrize("module", ["dcflab", "dcflab.cli"])
@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["corpus", "list"], 0, id="corpus-list"),
        pytest.param(REMOVED_FLAG, 2, id="removed-flag"),
    ],
)
def test_module_entry_points_keep_the_exit_codes(module, argv, code):
    src = str(Path(dcflab.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", module, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    outcome = run_cli(argv)
    if code == 2:
        assert json.loads(done.stdout) == {"error": outcome.report}
    else:
        assert done.stdout == outcome.report + "\n"


def test_written_documents_leave_no_garbage_cycles(identity_file, tmp_path):
    # The indenting JSON encoder is pure Python and leaves cycles behind.
    commands = [
        ["mealy", "compose", identity_file, identity_file, "-o", str(tmp_path / "composed.json")],
        ["witness", "find", "--lang", "lsharp", "-o", str(tmp_path / "found.json")],
    ]
    for argv in commands:  # fills the parser and corpus caches
        assert run_cli(argv).exit_code == 0
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert run_cli(argv).exit_code == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_one_parser_serves_consecutive_calls(monkeypatch):
    seen = []
    real = cli.find_witness

    def recording(machine, budgets):
        seen.append(budgets)
        return real(machine, budgets)

    monkeypatch.setattr(cli, "find_witness", recording)
    short = run_cli(["witness", "find", "--lang", "lsharp", "--word-length", "3"])
    assert short.exit_code == 0
    assert seen == [SearchBudgets(word_length=3)]
    assert run_cli(["witness", "find", "--word-length", "3"]).exit_code == 2
    assert run_cli(["witness", "find", "--help"]).exit_code == 0
    outcome = run_cli(["witness", "find", "--lang", "lsharp"])
    assert outcome.exit_code == 0
    # The flag of the first call must not linger as a default.
    assert seen == [SearchBudgets(word_length=3), SearchBudgets()]
    assert _build_parser() is _build_parser()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
VALID_DOCS = [
    bf.LSHARP_RAW,
    _identity_doc(),
    {"v": "", "x": "0", "w": "", "y": "1", "z": "", "polarity": "direct"},
]


@st.composite
def cli_documents(draw):
    """Any JSON value, or a valid document with one value somewhere inside
    it replaced by any JSON value (which reaches the deeper checks)."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    cur = doc
    while True:
        key = draw(st.sampled_from(sorted(cur) if isinstance(cur, dict) else range(len(cur))))
        if isinstance(cur[key], (dict, list)) and cur[key] and draw(st.booleans()):
            cur = cur[key]
            continue
        cur[key] = draw(JSON_VALUES)
        return doc


@given(cli_documents())
@settings(max_examples=150, deadline=None)
def test_any_json_document_keeps_the_exit_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out.json")
        machine = os.path.join(tmp, "lsharp.json")
        with open(machine, "w", encoding="utf-8") as fh:
            json.dump(bf.LSHARP_RAW, fh)
        for argv in (
            ["pda", "validate", path],
            ["pda", "member", path, "01"],
            ["mealy", "eval", path, "01", "--oracle", "lsharp"],
            ["mealy", "eval", path, "01", "--oracle", machine],
            ["mealy", "compose", path, path, "-o", out],
            ["witness", "verify", path, "--oracle", "lsharp", "--m-bound", "3", "--n-bound", "3"],
            ["witness", "verify", path, "--oracle", machine, "--m-bound", "3", "--n-bound", "3"],
            ["refute", "lr", path, "--k-max", "3"],
        ):
            assert run_cli(argv).exit_code in (0, 1, 2), argv
