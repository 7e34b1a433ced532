#!/usr/bin/env python3
"""dcflab benchmark: one workload per process, one thread, stdlib only.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's operations until `--seconds` of round
time have passed, checks every output apart from the program, writes a
results file under bench/results/ and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Each time
metric is built from each operation's mean time over the run, scaled by
the host's speed in that run (see hostspeed.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` measures the same
untraced rounds, then runs one more round with every public dcflab
function wrapped (see tracer.py) and reports the per-layer metrics, with
the tracing overhead as traced minus untraced round wall time, both
unscaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Set-ups are timed for SETUP_WINDOW_S seconds before the first round
# and after the last.  Each round also sets up afresh, and between
# operations a set-up is timed every SETUP_EVERY_S seconds, so that the
# samples spread over the whole run.
SETUP_WINDOW_S = 1.0
SETUP_EVERY_S = 0.25

PER_LAYER_UNITS = {
    "dpda.member.calls": "count",
    "dpda.member.symbols": "count",
    "dpda.member.s": "s",
    "dpda.advance.calls": "count",
    "dpda.advance.s": "s",
    "dpda.config_member.calls": "count",
    "dpda.config_member.s": "s",
    "dpda.complete.s": "s",
    "analysis.distinguish.calls": "count",
    "analysis.distinguish.distinct_pairs": "count",
    "analysis.distinguish.unresolved": "count",
    "analysis.distinguish.s": "s",
    "analysis.signature.calls": "count",
    "analysis.signature.s": "s",
    "analysis.divergent.self_s": "s",
    "analysis.pop_summaries.calls": "count",
    "analysis.pop_summaries.s": "s",
    "analysis.find_pump.s": "s",
    "analysis.periodicity.calls": "count",
    "analysis.periodicity.s": "s",
    "witness.find.self_s": "s",
    "witness.verify.calls": "count",
    "witness.verify.s": "s",
    "witness.reduce.self_s": "s",
    "witness.agreement.words": "count",
    "mealy.oracle.calls": "count",
    "mealy.oracle.distinct": "count",
    "mealy.oracle.hit_rate": "ratio",
    "mealy.compose.s": "s",
    "mealy.evaluate.calls": "count",
    "mealy.evaluate.s": "s",
    "corpus.get_entry.s": "s",
    "cli.run_cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _import_program():
    """Import dcflab from this checkout's src/, never from elsewhere."""
    if not (SRC / "dcflab" / "__init__.py").is_file():
        sys.exit(f"bench: no dcflab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcflab

    if not Path(dcflab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported dcflab from {dcflab.__file__}, not from {SRC}")
    return dcflab


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _set_up_for(workload, seconds: float, setups: list[tuple[float, float]]) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        setups.append(workload.setup()[1])


def _setup_sampler(workload, setups: list[tuple[float, float]]):
    due = perf_counter() + SETUP_EVERY_S

    def sample() -> None:
        nonlocal due
        if perf_counter() >= due:
            setups.append(workload.setup()[1])
            due = perf_counter() + SETUP_EVERY_S

    return sample


def _measure(workload, seconds: float, setups: list[tuple[float, float]], rounds: list) -> None:
    from hostspeed import clock
    from workloads import Round

    sample = _setup_sampler(workload, setups)
    measured = 0.0
    while True:
        inputs, s = workload.setup()
        setups.append(s)
        rnd = Round(before_op=sample)
        t0 = clock()
        workload.run_round(inputs, rnd)
        rnd.wall_s = clock() - t0
        rnd.verify(workload.memo)
        rounds.append(rnd)
        measured += rnd.wall_s
        if measured >= seconds:
            return


def _means(rounds, scaled) -> dict[str, float]:
    """Per operation, the mean of its repetitions across rounds, each
    passed through `scaled(start, seconds)`."""
    times: dict[str, list[float]] = {}
    for r in rounds:
        for label, ts in r.times.items():
            times.setdefault(label, []).extend(scaled(a, s) for a, s in ts)
    return {label: statistics.fmean(ts) for label, ts in times.items()}


def _end_to_end(rounds, setups, speed) -> dict:
    from workloads import median

    best = _means(rounds, speed.scaled)
    kinds = {label: kind for r in rounds for label, kind in r.kinds.items()}
    symbols = {label: n for r in rounds for label, n in r.symbols.items()}

    def of(kind):
        return [t for label, t in best.items() if kinds[label] == kind]

    member = [label for label in best if kinds[label] == "member"]
    member_s = sum(best[label] for label in member)
    values = {
        "setup_s": (statistics.fmean(speed.scaled(a, s) for a, s in setups), "s"),
        "wall_s": (sum(best.values()), "s"),
        "extract_s": (sum(of("extract")), "s"),
        "extract_max_s": (max(of("extract"), default=0.0), "s"),
        "reduce_s": (sum(of("reduce")), "s"),
        "member_syms_per_s": (
            sum(symbols[label] for label in member) / member_s if member_s else 0.0, "symbols/s"),
        "found": (median([r.found for r in rounds]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    t = tracer
    oracle_calls = t.counts.get("mealy.oracle.calls", 0)
    oracle_distinct = len(t.oracle_words)
    values = {
        "dpda.member.calls": t.calls.get("dpda.member", 0),
        "dpda.member.symbols": t.counts.get("dpda.member.symbols", 0),
        "dpda.member.s": t.seconds("dpda.member"),
        "dpda.advance.calls": t.calls.get("dpda.advance", 0),
        "dpda.advance.s": t.seconds("dpda.advance"),
        "dpda.config_member.calls": t.calls.get("dpda.config_member", 0),
        "dpda.config_member.s": t.seconds("dpda.config_member"),
        "dpda.complete.s": t.seconds("dpda.complete_dpda"),
        "analysis.distinguish.calls": t.calls.get("analysis.distinguishing_word", 0),
        "analysis.distinguish.distinct_pairs": t.distinct_pairs(),
        "analysis.distinguish.unresolved": t.counts.get("analysis.distinguish.unresolved", 0),
        "analysis.distinguish.s": t.seconds("analysis.distinguishing_word"),
        "analysis.signature.calls": t.calls.get("analysis.signature", 0),
        "analysis.signature.s": t.seconds("analysis.signature"),
        "analysis.divergent.self_s": t.self_seconds("analysis.find_divergent_word"),
        "analysis.pop_summaries.calls": t.calls.get("analysis.pop_summaries", 0),
        "analysis.pop_summaries.s": t.seconds("analysis.pop_summaries"),
        "analysis.find_pump.s": t.seconds("analysis.find_pump"),
        "analysis.periodicity.calls": t.calls.get("analysis.periodicity", 0),
        "analysis.periodicity.s": t.seconds("analysis.periodicity"),
        "witness.find.self_s": t.self_seconds("witness.find_witness"),
        "witness.verify.calls": t.calls.get("witness.verify_witness", 0),
        "witness.verify.s": t.seconds("witness.verify_witness"),
        "witness.reduce.self_s": t.self_seconds("witness.reduce_lsharp"),
        "witness.agreement.words": t.counts.get("witness.agreement.words", 0),
        "mealy.oracle.calls": oracle_calls,
        "mealy.oracle.distinct": oracle_distinct,
        "mealy.oracle.hit_rate": 1 - oracle_distinct / oracle_calls if oracle_calls else 0.0,
        "mealy.compose.s": t.seconds("mealy.compose"),
        "mealy.evaluate.calls": t.calls.get("mealy.evaluate", 0),
        "mealy.evaluate.s": t.seconds("mealy.evaluate"),
        "corpus.get_entry.s": t.seconds("corpus.get_entry"),
        "cli.run_cli.self_s": t.self_seconds("cli.run_cli"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(t.spans) + t.dropped_spans,
    }
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def _traced_round(dcflab, workload, setups: list[tuple[float, float]], rounds: list):
    from hostspeed import clock
    from tracer import Tracer
    from workloads import Round

    tracer = Tracer()
    tracer.install(dcflab)
    try:
        inputs, s = workload.setup()
        rnd = Round(single=True)
        t0 = clock()
        workload.run_round(inputs, rnd)
        rnd.wall_s = clock() - t0
    finally:
        tracer.uninstall()
    setups.append(s)
    rnd.verify(workload.memo)
    rounds.append(rnd)
    return tracer, sum(s for ts in rnd.times.values() for _, s in ts)


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "counters", "random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dcflab = _import_program()
    sys.path.insert(0, str(BENCH))
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups: list[tuple[float, float]] = []
        rounds: list = []
        speed = HostSpeed()
        speed.start()
        try:
            _set_up_for(workload, SETUP_WINDOW_S, setups)
            _measure(workload, args.seconds, setups, rounds)
            _set_up_for(workload, SETUP_WINDOW_S, setups)
        finally:
            speed.stop()
        metrics = _end_to_end(rounds, setups, speed)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            untraced_wall = sum(_means(rounds, lambda start, seconds: seconds).values())
            tracer, traced_wall = _traced_round(dcflab, workload, setups, rounds)
            layer = _per_layer(tracer, traced_wall, untraced_wall)
            _write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json", {
                "dropped_spans": tracer.dropped_spans,
                "hot": {name: {"calls": tracer.calls[name], "busy_ns": tracer.busy_ns[name]}
                        for name in sorted(tracer.calls) if name not in tracer.self_ns},
                "spans": tracer.spans_document(),
            })
        else:
            layer = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [w for r in rounds for w in r.wrong]
    result = {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": layer if args.trace else metrics,
    }
    _write(RESULTS / f"{stem}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "commit": _commit(),
        **result,
        "end_to_end": metrics,
        "per_layer": layer,
        "host_samples_s": speed.samples,
        "setup_samples_s": setups,
        "rounds": [
            {"wall_s": r.wall_s, "found": r.found, "attempted": r.attempted, "failed": r.failed,
             "times_s": r.times}
            for r in rounds
        ],
        "failures": sorted({f for r in rounds for f in r.failures}),
        "wrong": sorted(set(wrong)),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
