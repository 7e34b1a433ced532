"""Command-line surface.

Exit codes: 0 on success, 1 for a negative-but-valid outcome (verification
failed, refutation not found), 2 for usage or input errors.  `--json`
switches the report payload to JSON on stdout; an input error's payload is
{"error": <report>}, or {"violations": [...]} for an invalid machine.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from . import corpus
from .dpda import InvalidMachineError, _read_json, complete_dpda, load_dpda, member
from .mealy import (
    LanguageOracle,
    compose,
    evaluate,
    load_mealy,
    mealy_to_document,
    oracle_from_dpda,
    refute_simplicity_LR,
)
from .witness import (
    SearchBudgets,
    SearchExhaustedError,
    WitnessTuple,
    find_witness,
    reduce_lsharp,
    verify_witness,
)


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    report: str
    payload: Optional[dict] = None


class UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """argparse's help action; run_cli returns the text as exit 0."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")

    def print_help(self, file=None):  # argparse would print and sys.exit(0)
        raise _HelpRequested(self.format_help().rstrip("\n"))


# argparse keeps no state between parse_args calls, so one parser serves
# every run_cli call in a process.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dcflab", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    json_flag = _Parser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    def group(name: str, help: str):
        return top.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def command(group, name: str, help: str) -> _Parser:
        return group.add_parser(name, help=help, parents=[json_flag])

    pda = group("pda", "DPDA operations")
    p = command(pda, "validate", "validate a DPDA document")
    p.add_argument("file")
    p = command(pda, "member", "membership of WORD after completion")
    p.add_argument("file")
    p.add_argument("word")

    mealy = group("mealy", "oracle Mealy machine operations")
    p = command(mealy, "eval", "evaluate a machine on WORD against an oracle")
    p.add_argument("machine_file")
    p.add_argument("word")
    p.add_argument("--oracle", required=True, help="corpus name or DPDA JSON file")
    p = command(mealy, "compose", "compose two machines (front feeds back)")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("-o", "--output", required=True)

    witness = group("witness", "witness tuples")
    p = command(witness, "verify", "check the grid property of a tuple")
    p.add_argument("tuple_file")
    p.add_argument("--oracle", required=True, help="corpus name or DPDA JSON file")
    p.add_argument("--m-bound", type=int, default=25)
    p.add_argument("--n-bound", type=int, default=25)
    p = command(witness, "find", "extract a tuple from a corpus language")
    p.add_argument("--lang", required=True)
    for f in fields(SearchBudgets):
        p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    p.add_argument("-o", "--output")

    reduce_ = group("reduce", "build and certify reducers")
    p = command(reduce_, "lsharp", "reduce 0^n1^n to a corpus language")
    p.add_argument("--lang", required=True)
    p.add_argument("--check-len", type=int, default=16)

    command(group("corpus", "built-in languages"), "list", "list corpus entries")

    refute = group("refute", "refutation searches")
    p = command(refute, "lr", "misclassified marked palindrome for a machine")
    p.add_argument("machine_file")
    p.add_argument("--k-max", type=int, default=6)

    return parser


def _oracle_from_ref(ref: str) -> LanguageOracle:
    if ref in corpus.names():
        return corpus.oracle_of(corpus.get_entry(ref))
    return oracle_from_dpda(load_dpda(ref))


def _load_tuple(path: str) -> WitnessTuple:
    return WitnessTuple.from_json_dict(_read_json(path))


def _dispatch(args) -> CommandOutcome:
    cmd = (args.command, args.subcommand)

    if cmd == ("pda", "validate"):
        machine = load_dpda(args.file)
        payload = {"valid": True, "states": len(machine.states), "rules": len(machine.rules)}
        return CommandOutcome(0, f"valid: {len(machine.states)} states, {len(machine.rules)} rules", payload)

    if cmd == ("pda", "member"):
        machine = complete_dpda(load_dpda(args.file))
        if not set(args.word) <= machine.input_alphabet:
            raise ValueError(f"{args.word!r} is not a word over the input alphabet")
        verdict = member(machine, args.word)
        payload = {"word": args.word, "member": verdict}
        return CommandOutcome(0 if verdict else 1, "accepted" if verdict else "rejected", payload)

    if cmd == ("mealy", "eval"):
        machine = load_mealy(args.machine_file)
        if not set(args.word) <= machine.input_alphabet:
            raise ValueError(f"{args.word!r} is not a word over the input alphabet")
        oracle = _oracle_from_ref(args.oracle)
        verdict = evaluate(machine, oracle, args.word)
        payload = {"word": args.word, "accepted": verdict}
        return CommandOutcome(0 if verdict else 1, "accepted" if verdict else "rejected", payload)

    if cmd == ("mealy", "compose"):
        front = load_mealy(args.a_file)
        back = load_mealy(args.b_file)
        composed = compose(front, back)
        doc = mealy_to_document(composed)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, ensure_ascii=False))
        payload = {"states": len(composed.states), "output": args.output}
        return CommandOutcome(0, f"wrote {args.output} ({len(composed.states)} states)", payload)

    if cmd == ("witness", "verify"):
        oracle = _oracle_from_ref(args.oracle)
        t = _load_tuple(args.tuple_file)
        report = verify_witness(oracle, t, args.m_bound, args.n_bound)
        lines = ["passed" if report.passed else "failed"]
        for m, n, left, right in report.counterexamples[:20]:
            lines.append(f"  m={m} n={n} left={left} right={right}")
        payload = {
            "passed": report.passed,
            "m_bound": report.m_bound,
            "n_bound": report.n_bound,
            "counterexamples": [
                {"m": m, "n": n, "left": left, "right": right}
                for m, n, left, right in report.counterexamples
            ],
        }
        return CommandOutcome(0 if report.passed else 1, "\n".join(lines), payload)

    if cmd == ("witness", "find"):
        entry = corpus.get_entry(args.lang)
        budgets = {f.name: getattr(args, f.name) for f in fields(SearchBudgets)}
        t = find_witness(entry.machine, SearchBudgets(**budgets))
        doc = t.to_json_dict()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, ensure_ascii=False))
        text = " ".join(f"{k}={v!r}" for k, v in doc.items())
        return CommandOutcome(0, text, doc)

    if cmd == ("reduce", "lsharp"):
        entry = corpus.get_entry(args.lang)
        t, reducer, report = reduce_lsharp(entry.machine, check_len=args.check_len)
        payload = {
            "tuple": t.to_json_dict(),
            "reducer": mealy_to_document(reducer),
            "agreement": {
                "max_len": report.max_len,
                "words_checked": report.words_checked,
                "passed": report.passed,
            },
        }
        text = (
            f"agreement on all {report.words_checked} binary words of length <= {report.max_len}"
        )
        return CommandOutcome(0, text, payload)

    if cmd == ("corpus", "list"):
        rows = []
        for name in corpus.names():
            entry = corpus.get_entry(name)
            rows.append(
                {
                    "name": name,
                    "alphabet": sorted(entry.machine.input_alphabet),
                    "notes": entry.notes,
                }
            )
        text = "\n".join(f"{r['name']:16s} {{{','.join(r['alphabet'])}}}  {r['notes']}" for r in rows)
        return CommandOutcome(0, text, {"entries": rows})

    if cmd == ("refute", "lr"):
        machine = load_mealy(args.machine_file)
        word = refute_simplicity_LR(machine, args.k_max)
        if word is None:
            return CommandOutcome(1, f"not refuted within k <= {args.k_max}", {"refuted": False})
        return CommandOutcome(0, f"misclassified: {word}", {"refuted": True, "word": word})

    raise UsageError(f"unknown command {cmd}")


def _input_error(report: str) -> CommandOutcome:
    return CommandOutcome(2, report, {"error": report})


def run_cli(argv: Sequence[str]) -> CommandOutcome:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return _dispatch(args)
    except _HelpRequested as exc:
        return CommandOutcome(0, str(exc))
    except UsageError as exc:
        return _input_error(str(exc))
    except InvalidMachineError as exc:
        lines = ["invalid machine:"] + [f"  {v}" for v in exc.violations]
        return CommandOutcome(2, "\n".join(lines), {"violations": [str(v) for v in exc.violations]})
    except SearchExhaustedError as exc:
        return CommandOutcome(1, str(exc), {"stage": exc.stage})
    except corpus.UnknownNameError as exc:
        return _input_error(f"unknown corpus entry: {exc.args[0]}")
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return _input_error(f"error: {exc}")


def main() -> None:
    argv = sys.argv[1:]
    outcome = run_cli(argv)
    if "--json" in argv and outcome.payload is not None:
        print(json.dumps(outcome.payload, ensure_ascii=False))
    else:
        print(outcome.report)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
