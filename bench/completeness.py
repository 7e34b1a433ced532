#!/usr/bin/env python3
"""Completeness rate of the random suite (a reference figure, not timed).

    python3 bench/completeness.py

Runs find_witness on every machine of the random suite at default
budgets.  Each machine that exhausts is tried again with `word_length`,
`suffix_budget`, `pump_limit` and `max_l` multiplied by SCALE
(`z_length` is an exponent of the z search, so it is kept).  The rate is
the share of exhausted machines that then yield a tuple passing the
reference-membership grid.  A summary goes to stdout and the per-machine
outcomes to bench/results/completeness-suite<seed>.json.
"""

from __future__ import annotations

import json
from dataclasses import replace
from time import perf_counter

from run import RESULTS, _import_program

SCALE = 4


def main() -> int:
    dcflab = _import_program()
    import machines
    import reference as ref

    default = dcflab.SearchBudgets()
    scaled = replace(
        default,
        word_length=default.word_length * SCALE,
        suffix_budget=default.suffix_budget * SCALE,
        pump_limit=default.pump_limit * SCALE,
        max_l=default.max_l * SCALE,
    )

    rows = []
    for i, doc in enumerate(machines.random_suite()):
        raw = dcflab.validate_dpda(doc)
        m = dcflab.complete_dpda(raw)
        row = {"machine": i}
        for label, budgets in (("default", default), ("scaled", scaled)):
            t0 = perf_counter()
            try:
                t = dcflab.find_witness(m, budgets)
            except dcflab.SearchExhaustedError as exc:
                row[label] = {"outcome": f"exhausted:{exc.stage}", "s": perf_counter() - t0}
                continue
            bad = ref.grid_counterexample(ref.ReferenceMachine.of(raw).accepts, t, 16, 16)
            row[label] = {"outcome": "found" if bad is None else f"wrong:{bad}",
                          "s": perf_counter() - t0, "tuple": t.to_json_dict()}
            break
        rows.append(row)
        print(i, {k: v["outcome"] for k, v in row.items() if k != "machine"}, flush=True)

    exhausted = [r for r in rows if r["default"]["outcome"] != "found"]
    recovered = [r for r in exhausted if r.get("scaled", {}).get("outcome") == "found"]
    summary = {
        "suite_seed": machines.SUITE_SEED,
        "size": machines.SUITE_SIZE,
        "scale": SCALE,
        "found_default": len(rows) - len(exhausted),
        "exhausted_default": len(exhausted),
        "found_scaled": len(recovered),
        "completeness_rate": len(recovered) / len(exhausted) if exhausted else 0.0,
        "scaled_budgets": scaled.__dict__,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "completeness.json").write_text(
        json.dumps({**summary, "machines": rows}, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
