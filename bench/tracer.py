"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the dcflab modules
with a recording wrapper, in every module that binds it: `witness` binds
`find_divergent_word` and `analysis` binds `advance` through `from ...
import`, so patching only the defining module would miss those calls.
`uninstall` restores the originals.

Hot functions are aggregated as call counts and busy time.  Every other
wrapped call records a span (name, start, end, parent) kept in memory;
a span's self time is its duration minus the time covered by its child
spans, so time in hot calls counts toward the span that made them.
"""

from __future__ import annotations

import sys
import types
from dataclasses import dataclass
from time import perf_counter_ns

MODULES = ("dpda", "analysis", "witness", "mealy", "corpus", "cli")

# One wrapper per call would swamp these: a single random machine makes
# millions of `advance` calls.
HOT = {
    "dpda.member",
    "dpda.advance",
    "dpda.config_member",
    "dpda.step_closure",
    "mealy.evaluate",
    "mealy.transduce",
}

# Word predicates are not a layer; the agreement walk calls
# `is_lsharp_word` about a million times per reducer.
SKIP_PREFIX = "is_"

SPAN_CAP = 200_000


@dataclass
class Span:
    name: str
    parent: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[Span] = []
        self.dropped_spans = 0
        self._open: list[tuple[int, Span]] = []
        self._pairs: set = set()
        # (oracle number, word): oracles are numbered as they are made, not
        # keyed by id(), which CPython reuses once an oracle is freed.
        self.oracle_words: set = set()
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # --- recording -----------------------------------------------------

    def _count(self, key: str, n: int = 1) -> int:
        self.counts[key] = self.counts.get(key, 0) + n
        return self.counts[key]

    def _hot(self, name: str, fn, on_call=None):
        calls, busy = self.calls, self.busy_ns
        calls[name] = 0
        busy[name] = 0

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            busy[name] += perf_counter_ns() - t0
            calls[name] += 1
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def _span(self, name: str, fn, on_call=None):
        self.calls.setdefault(name, 0)
        self.busy_ns.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            span = Span(name, parent, perf_counter_ns())
            if len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                self.spans.append(span)
            else:
                index = -2
                self.dropped_spans += 1
            self._open.append((index, span))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end_ns = perf_counter_ns()
                duration = span.end_ns - span.start_ns
                if self._open:
                    self._open[-1][1].child_ns += duration
                self.calls[name] += 1
                self.busy_ns[name] += duration
                self.self_ns[name] += duration - span.child_ns
            if on_call is not None:
                result = on_call(args, result)
            return result

        return wrapper

    # --- per-function extras ---------------------------------------------

    def _on_member(self, args, result):
        self._count("dpda.member.symbols", len(args[1]))

    def _on_distinguish(self, args, result):
        m, c1, c2 = args[:3]
        self._pairs.add((id(m), c1, c2))
        if result is None:
            self._count("analysis.distinguish.unresolved")
        return result

    def _on_reduce(self, args, result):
        self._count("witness.agreement.words", result[2].words_checked)
        return result

    def _on_oracle(self, args, oracle):
        inner = oracle.membership
        words = self.oracle_words
        counts = self.counts
        counts.setdefault("mealy.oracle.calls", 0)
        key = self._count("mealy.oracle.made")

        def membership(word):
            counts["mealy.oracle.calls"] += 1
            words.add((key, word))
            return inner(word)

        return type(oracle)(alphabet=oracle.alphabet, membership=membership, name=oracle.name)

    EXTRAS = {
        "dpda.member": "_on_member",
        "analysis.distinguishing_word": "_on_distinguish",
        "witness.reduce_lsharp": "_on_reduce",
        "mealy.oracle_from_dpda": "_on_oracle",
    }

    # --- patching ---------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        wrappers: dict[int, tuple] = {}
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr.startswith(SKIP_PREFIX)
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                extra = self.EXTRAS.get(name)
                on_call = getattr(self, extra) if extra else None
                make = self._hot if name in HOT else self._span
                wrapper = make(name, fn, on_call)
                if hasattr(fn, "cache_clear"):  # corpus.get_entry; set-up clears it
                    wrapper.cache_clear = fn.cache_clear
                wrappers[id(fn)] = (fn, wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # --- results ------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.busy_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def distinct_pairs(self) -> int:
        return len(self._pairs)

    def spans_document(self) -> list[dict]:
        return [
            {"id": i, "parent": s.parent, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns}
            for i, s in enumerate(self.spans)
        ]
