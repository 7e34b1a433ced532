"""Structural analyses of DPDA runs.

Pop-relation saturation (which states a configuration can reach with its
stack fully consumed, and with which input words), divergent-word search
over a discrimination tree of separating words, stair factorization of
stack-increasing runs, pump detection, and exact eventual periodicity of
y-iterates.  The pop summary is a plain mapping {(p, X): {q: witness
word}}, and a stair factorization a plain tuple of (position,
configuration) levels.

Exact configuration equivalence is out of desk scope; wherever a decision
would need it, these routines use bounded search (product-simulation
distinguishers under a node cap) and leave final soundness to simulation
re-checks by their callers.  The distinguisher is one search over
pairs of configurations, with no length cap, that splits common stack tops
through pop summaries; when it closes, its None proves the pair equivalent,
and a search cut at its node cap proves nothing.  One graph of int sides,
each with a row of the words read from it, owns the pop summary and serves
a whole extraction, so no word is read, and no pop layer composed, twice.
Words that cannot separate are not read at all: a tree node's word only
from the candidates that sift through it, and a pop probe of a common top
segment only when the closures below that segment tell the two sides
apart.

After the search, work is done on demand: pumps come from a generator
that re-checks a candidate only when it is asked for, the z probes are
one pruned walk over a pair of sides, z's membership on the levels
q gamma^l delta comes from one run per key of a gamma-window map, and the
memberships of y^l z from a cycle of snapshots or such maps over a pump.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

from .dpda import (
    Configuration,
    Dpda,
    StackWord,
    Word,
    _configuration,
    _drive,
    advance,
    config_member,
)

# Cap on the pairs the search for a distinguishing word may visit.  A
# search that closes under it proves the two configurations equivalent; a
# search cut at it proves nothing, and the caller treats the pair as
# equivalent at this scale.
DISTINGUISH_NODE_CAP = 20_000


class ExhaustedError(Exception):
    """Divergent-word search ran out of extensions below its target length."""

    def __init__(self, best_prefix: Word):
        self.best_prefix = best_prefix
        super().__init__(
            f"no divergent extension found (best prefix {best_prefix!r}); "
            "the language looks regular at this word length"
        )


class NoLevelsError(Exception):
    """Stack height does not trend upward on the given word."""


@dataclass(frozen=True)
class Pump:
    """A stack-increasing loop: base -v-> (p, X·delta) and (p, X) -x->
    (p, X·gamma), x and gamma nonempty, from the start or a given base."""

    v: Word
    x: Word
    p: str
    X: str
    gamma: StackWord
    delta: StackWord


@dataclass(frozen=True)
class PeriodicityReport:
    """Membership of y^l z from a base configuration is table[l mod period]
    for every l >= k."""

    k: int
    period: int
    table: tuple[bool, ...]


def _pop_step(entries, current: dict[str, Word], symbol: str) -> dict[str, Word]:
    """The one composition of pop words: each witness in `current`, a map
    from end states to words, extended through `entries` on `symbol`,
    keeping the (length, lex)-least word per reachable end state."""
    step: dict[str, Word] = {}
    for q, w in current.items():
        pops = entries.get((q, symbol))
        if pops:
            for q2, w2 in pops.items():
                c = w + w2
                old = step.get(q2)
                if old is None or len(c) < len(old) or (len(c) == len(old) and c < old):
                    step[q2] = c
    return step


def pop_summaries(m: Dpda) -> dict[tuple[str, str], dict[str, Word]]:
    """Least fixpoint of the pop relation, the pop summary of `m`.

    It maps each (p, X) to {q: w} for every state q reachable from pX with
    X fully popped, with one witness input word w (minimal length, ties
    broken lexicographically); pairs that pop to no state are left out.

    A rule pX -a-> q Y1..Yk contributes (p, X) -> q' for every q' reached
    from q with witness a by popping Y1..Yk through the current summaries
    (k = 0 is a popping rule: q itself, with witness a).  The iteration
    keeps the (length, lexicographic)-minimal word per target, and re-runs
    a rule only after an entry on a symbol it pushes has changed.
    """
    entries: dict[tuple[str, str], dict[str, Word]] = {}
    tops = {r.top for r in m.rules}
    readers = {x: [i for i, r in enumerate(m.rules) if x in r.push] for x in tops}
    dirty = [True] * len(m.rules)
    while any(dirty):
        for i, r in enumerate(m.rules):
            if not dirty[i]:
                continue
            dirty[i] = False
            p, x, a, q, push = r
            targets = entries.setdefault((p, x), {})
            reached = {q: a}
            for symbol in push:
                reached = _pop_step(entries, reached, symbol)
            for q2, w in reached.items():
                old = targets.get(q2)
                if old is None or len(w) < len(old) or (len(w) == len(old) and w < old):
                    targets[q2] = w
                    for j in readers[x]:
                        dirty[j] = True

    return {k: v for k, v in entries.items() if v}


class _Product:
    """Hash-consed stacks and sides with memoised reads over one machine's
    configurations, shared by a whole extraction: the divergent-word
    search, every distinguisher call it makes, and the pump stage.

    Stack node 0 is the empty stack and node i stands for (top symbol, node
    below), `heights[i]` symbols tall; side i stands for the (state, node)
    pair `pairs[i]`.  Both are hash-consed for the life of the object, so
    equal configurations get equal int sides.  None is a stranded side
    (empty stack or stuck), which rejects everything from then on.  A step
    reads only the top symbol, so `_drive` runs on that one-symbol window
    once per (state, top, letter or ε); a window that runs empty hands the
    run to the node below with the unread rest of the letter.  `rows[side]`
    maps each word read from the side, each letter and "" among them, to
    the end side and its flag.

    The graph owns m's pop summary, `summary` (None: plain product
    simulation).  Pop words compose top-down, so `layers` is a trie of their
    layers {end state: pop word} per (state p, top segment), rooted at key
    p, that `pop_layers` walks for the probes, the splits and the y words.
    """

    def __init__(self, m: Dpda, summary: Optional[Mapping] = None):
        self.m = m
        self.summary = summary
        self.cells: list[tuple[str, int]] = [("", 0)]  # node -> (top, node below)
        self.heights: list[int] = [0]  # node -> stack height
        self.ids: dict[tuple[str, int], int] = {}  # (top, node below) -> node
        self.steps: dict[tuple[str, str, Word], tuple[str, StackWord, bool, int]] = {}
        self.pairs: list[tuple[str, int]] = []  # side -> (state, node)
        self.sides: dict[tuple[str, int], int] = {}  # (state, node) -> side
        self.rows: list[dict[Word, tuple[Optional[int], bool]]] = []  # side -> word -> (end, flag)
        self.layers: dict = {}  # (layer key, symbol) -> (layer key, layer)

    def push(self, node: int, symbols) -> int:
        """The node for `symbols` (top last) stacked on `node`."""
        cells, ids, heights = self.cells, self.ids, self.heights
        for symbol in symbols:
            cell = (symbol, node)
            node = ids.get(cell, 0)
            if not node:
                node = ids[cell] = len(cells)
                cells.append(cell)
                heights.append(heights[cell[1]] + 1)
        return node

    def side(self, state: str, node: int) -> int:
        """The side for `state` over the stack `node`."""
        side = self.sides.setdefault((state, node), len(self.pairs))
        if side == len(self.pairs):
            self.pairs.append((state, node))
            self.rows.append({})
        return side

    def close(self, c: Configuration) -> tuple[Optional[int], bool]:
        """c's side after its ε-closure, and whether the closure accepts."""
        return self.read(self.side(c.state, self.push(0, c.stack[::-1])), "")

    def stack(self, node: int) -> StackWord:
        """The stack word that `node` stands for, top first."""
        stack = []
        while node:
            top, node = self.cells[node]
            stack.append(top)
        return tuple(stack)

    def configuration(self, side: int) -> Configuration:
        """The configuration that a side that is not stranded stands for."""
        state, node = self.pairs[side]
        return Configuration(state, self.stack(node))

    def read(self, side: Optional[int], word: Word) -> tuple[Optional[int], bool]:
        """The side after reading `word` from `side`, and whether that
        reading accepts, which is `config_member`'s answer; the empty word
        ε-closes.  A word read before is one lookup in the side's row; any
        other walks its letters through the rows it passes, then is kept."""
        if side is None:
            return None, False
        row = self.rows[side]
        out = row.get(word)
        if out is None:
            rows, end = self.rows, side
            for ch in word or ("",):
                step = rows[end]
                out = step.get(ch) or step.setdefault(ch, self.probe(end, ch))
                end = out[0]
                if end is None:
                    break
            row[word] = out
        return out

    def probe(self, side: int, ch: Word) -> tuple[Optional[int], bool]:
        """The side after reading `ch` (one letter, or "" to ε-close) and
        whether that reading accepts."""
        cells, steps = self.cells, self.steps
        state, node = self.pairs[side]
        # As in `_drive`: a window's flag replaces the side's once a letter
        # has been read and is OR-ed into it otherwise.
        acc = False
        while node:
            top, node = cells[node]
            key = (state, top, ch)
            hit = steps.get(key)
            if hit is None:
                window = [top]
                end, flag, consumed = _drive(self.m, state, window, ch)
                hit = steps[key] = (end, tuple(window), flag, consumed)
            state, window, flag, consumed = hit
            if consumed:
                acc, ch = flag, ""
            else:
                acc = acc or flag
            if window:
                # The run ended on the window: stuck if the letter is unread.
                if ch:
                    return None, False
                return self.side(state, self.push(node, window)), acc
        if ch:
            return None, False
        # Only a side that starts on the empty stack has not yet counted
        # its own state.
        return self.side(state, 0), acc or state in self.m.accepting

    def separators(self, s0: Optional[int], s1: Optional[int], max_len: int):
        """Every nonempty word of length <= max_len whose reading flags from
        s0 and s1 differ, in (length, lex) order.

        The words are walked level by level, each letter read from the
        ends of its prefix, and a prefix whose two ends are the same side,
        or both stranded, is not extended: no word after it can separate.
        """
        sigma = sorted(self.m.input_alphabet)
        read = self.read
        layer = [("", s0, s1)]
        for _ in range(max_len):
            below = []
            for word, d0, d1 in layer:
                for ch in sigma:
                    (e0, b0), (e1, b1) = read(d0, ch), read(d1, ch)
                    if b0 != b1:
                        yield word + ch
                    if e0 != e1:
                        below.append((word + ch, e0, e1))
            layer = below

    def pop_layers(self, state: str, node: int, stop: int = 0):
        """The pop witnesses from `state` of each top segment of the stack
        `node` down to the node `stop`, shortest first: one layer {end
        state: word} per segment, read down the trie under the graph's
        summary; a layer the trie lacks is composed once and kept.  The
        walk ends after the first empty layer."""
        cells, layers, summary = self.cells, self.layers, self.summary
        key, layer = state, {state: ""}  # the root layer, keyed by the state
        while node != stop and layer:
            symbol, node = cells[node]
            key, layer = layers.get((key, symbol)) or layers.setdefault(
                (key, symbol), (len(layers), _pop_step(summary, layer, symbol))
            )
            yield layer


def _search(product: _Product, s1: int, s2: int, node_cap: int) -> tuple[Optional[Word], bool]:
    """A word that separates the stable sides s1 and s2, found by a
    breadth-first walk over side pairs, each carrying the word that leads
    to it.  Returns (word, True), (None, True) when the walk closes, which
    proves that no nonempty word separates them, or (None, False) once it
    meets more than `node_cap` pairs past the first, which proves nothing.

    A pair whose sides coincide needs nothing.  When the graph has a pop
    summary, a pair whose sides share the state p and the top symbol is
    split: with α the longest common top segment, so that the stacks are
    α·ρ1 and α·ρ2, each down-state r of α from p, with pop witness u (in
    the last of α's pop layers), gives the ε-closures of (r, ρ1) and
    (r, ρ2), reached by the pair's word followed by u.  A split needs the
    two closure flags of every r to agree.  Every other pair, and a split
    pair whose flags disagree for some r, is expanded by each letter; a
    letter whose two flags disagree ends the walk with the pair's word and
    that letter.  Without a summary this is plain product
    simulation, and the word found is the shortest separator.

    Every returned word separates: u drives (p, α·ρ) to the ε-closure of
    (r, ρ), since α is popped only after u's last letter.

    Why a closed walk is a proof: say some pair in it has a separator, and
    take a shortest one, w, over all its pairs.  For an expanded pair,
    w = a·w' with w' empty (then the flags of a disagree) or w' a shorter
    separator of the successor pair.  For a split pair, the two runs on w
    are the same step for step until α is popped, so w pops α, into some
    down-state r; since the sides are stable, the top of α has no ε-rule
    in p and that pop takes at least one letter.  The rest w' of w is read
    from the ε-closures of (r, ρ1) and (r, ρ2): w' empty means their flags
    disagree, and w' nonempty is a strictly shorter separator of the
    closed pair.  Each case contradicts the checks or the choice of w.
    """
    cells, pairs, side, read = product.cells, product.pairs, product.side, product.read
    sigma = sorted(product.m.input_alphabet)
    seen = {(s1, s2)}
    work = deque([(s1, s2, "")])
    while work:
        d1, d2, word = work.popleft()
        if d1 == d2:
            continue
        nexts = None
        if product.summary is not None and d1 is not None and d2 is not None:
            (p, n1), (p2, n2) = pairs[d1], pairs[d2]
            if p == p2 and cells[n1][0] == cells[n2][0]:
                # Distinct nodes with one top have distinct nodes below,
                # and the empty stack's top "" is no symbol, so this ends
                # on two distinct rests with different tops.
                top = n1
                while cells[n1][0] == cells[n2][0]:
                    n1, n2 = cells[n1][1], cells[n2][1]
                *_, pops = product.pop_layers(p, top, n1)  # alpha's pop witnesses
                nexts = [
                    (read(side(r, n1), ""), read(side(r, n2), ""), word + u)
                    for r, u in pops.items()
                ]
                if any(b1 != b2 for (_, b1), (_, b2), _ in nexts):
                    nexts = None
        if nexts is None:
            nexts = [(read(d1, ch), read(d2, ch), word + ch) for ch in sigma]
        for (e1, b1), (e2, b2), w in nexts:
            if b1 != b2:
                return w, True
            if e1 == e2 or (e1, e2) in seen:
                continue
            seen.add((e1, e2))
            if len(seen) > node_cap + 1:
                return None, False
            work.append((e1, e2, w))
    return None, True


def distinguishing_word(
    graph: _Product, s1: int, s2: int, node_cap: int = DISTINGUISH_NODE_CAP
) -> Optional[Word]:
    """A word on which exactly one of the configurations that the sides s1
    and s2 of `graph` stand for accepts.

    Equal sides have none.  With a pop summary on the graph, pop-guided
    probes come first, in (length, word) order: words that unwind either
    stack reach the depth at which the configurations differ without any
    search.  A pop word of a top segment α that both stacks share, read
    from their common state, runs alike on both until it pops α, after its
    last letter, into a down-state r.  Its flags can then differ only if
    the ε-closure flags of r over the two rests below α do, so only then
    is it read.  Then `_search` walks the pairs of sides, splitting common
    tops through the pop summary.  None covers two cases: the walk closed,
    which proves the configurations equivalent, or it was cut at
    `node_cap` pairs, which proves nothing.

    One graph serves a whole extraction, so steps, reads and pop layers
    from earlier calls are lookups; given the graph's machine, its pop
    summary and the node cap, the verdict depends on the pair alone.
    """
    if s1 == s2:
        return None
    if graph.summary is not None:
        # Words that pop some prefix of either stack drive that side to a
        # known state with a known stack remainder.  The walks share the
        # layers of the common top segment.
        read, side, cells = graph.read, graph.side, graph.cells
        (p1, d1), (p2, d2) = graph.pairs[s1], graph.pairs[s2]
        walk2, shared, probes = graph.pop_layers(p2, d2), p1 == p2, set()
        for pops in graph.pop_layers(p1, d1):
            if shared := shared and cells[d1][0] == cells[d2][0]:
                next(walk2)  # this same layer
            d1, d2 = cells[d1][1], cells[d2][1]
            probes.update(
                w for r, w in pops.items()
                if not shared or read(side(r, d1), "")[1] != read(side(r, d2), "")[1]
            )
        probes.update(w for pops in walk2 for w in pops.values())
        for cand in sorted(probes, key=lambda w: (len(w), w)):
            if read(s1, cand)[1] != read(s2, cand)[1]:
                return cand

    (e1, a1), (e2, a2) = graph.read(s1, ""), graph.read(s2, "")
    if a1 != a2:
        return ""
    return _search(graph, e1, e2, node_cap)[0]


def find_divergent_word(m: Dpda, target_length: int, *, graph: Optional[_Product] = None) -> Word:
    """Grow a word whose prefixes all lie in pairwise distinct quotients.

    Greedy extension with backtracking; extensions that grow the stack are
    tried first, which steers the word toward the stack-increasing runs the
    downstream stair analysis needs.  The kept prefixes are the leaves of a
    discrimination tree (Kearns & Vazirani); each inner node holds a word
    that separates the prefixes of its two subtrees.  A candidate sifts
    down by its flags on those words to the one leaf it could equal.  It is
    skipped when its side is that leaf's or the distinguisher finds no word
    for the pair; otherwise it splits the leaf on that word, and
    backtracking undoes the split.  Raises ExhaustedError when no extension
    survives, which signals regular-looking behavior at this word length,
    ValueError for a target below 1, which no grown word meets, and
    RuntimeError for a distinguishing word that does not separate its pair.

    The word is the one a flat scan grows, which keeps a candidate iff the
    distinguisher separates it from every kept prefix.  The words on its
    sift path separate a candidate from every other leaf, so it can be
    equivalent to its leaf's prefix only; with an exact distinguisher,
    "equivalent to no kept prefix" does not depend on the tree's shape.
    The two differ only where the distinguisher gives up at its node cap
    on a pair that an earlier word already separates.

    One `_Product` of m, `graph`, serves the whole search; without one, it
    builds one over `pop_summaries(m)`, and one of another machine raises
    ValueError.  The search holds its sides only, ranks extensions by the
    stack heights kept on the graph's nodes, reads each word on the graph
    at most once per side, and hands the distinguisher the two sides.
    That call runs at most once per ordered (candidate, leaf prefix) pair
    per search, since backtracking meets the same pairs again.
    """
    if target_length < 1:
        raise ValueError(f"target_length must be >= 1, not {target_length}")
    graph = _Product(m, pop_summaries(m)) if graph is None else graph
    if graph.m is not m:
        raise ValueError("graph is the _Product of another machine")
    sigma = sorted(m.input_alphabet)
    verdicts: dict[tuple[int, int], Optional[Word]] = {}
    read = graph.read
    start, _ = graph.close(m.start_configuration())
    tree = [start]  # a leaf [kept side], or [word, False subtree, True subtree]
    splits = []  # (leaf, its side before the split), one per kept prefix after the start
    word: list[str] = []
    best = ""

    def extensions(side: int):
        # Taller stacks first; the sort is stable, so letters break ties.
        ends = [(symbol, read(side, symbol)[0]) for symbol in sigma]
        ends = [(symbol, end) for symbol, end in ends if end is not None]
        return iter(sorted(ends, key=lambda e: -graph.heights[graph.pairs[e[1]][1]]))

    pending = [extensions(start)]
    while True:
        nxt = next(pending[-1], None)
        if nxt is None:
            pending.pop()
            if not pending:
                raise ExhaustedError(best)
            word.pop()
            leaf, kept = splits.pop()
            leaf[:] = [kept]
            continue
        symbol, side = nxt
        leaf = tree
        while len(leaf) > 1:
            leaf = leaf[1 + read(side, leaf[0])[1]]
        kept = leaf[0]  # every other kept prefix differs from side on the path
        if side == kept:
            continue  # equal sides are equal configurations
        pair = (side, kept)
        if pair not in verdicts:
            verdicts[pair] = distinguishing_word(graph, side, kept)
        extra = verdicts[pair]
        if extra is None:
            continue  # no word found: treated as equivalent to the leaf's prefix
        bit = read(kept, extra)[1]
        if read(side, extra)[1] == bit:
            c1, c2 = map(graph.configuration, pair)
            raise RuntimeError(f"distinguishing word {extra!r} does not separate {c1} and {c2}")
        leaf[:] = [extra, [side], [kept]] if bit else [extra, [kept], [side]]
        splits.append((leaf, kept))
        word.append(symbol)
        if len(word) > len(best):
            best = "".join(word)
        if len(word) == target_length:
            return "".join(word)
        pending.append(extensions(side))


def stair_factorize(m: Dpda, u: Word) -> tuple[tuple[int, Configuration], ...]:
    """Decompose the run on u along positions whose stack is never touched
    again within u: the levels (i, c) of `_levels` from the start
    configuration, whose positions and stack heights strictly increase, but
    the first, so that pumps are based at the second and later ones.
    """
    levels = _levels(m, m.start_configuration(), u)
    if len(levels) < 2:
        raise NoLevelsError(f"only {len(levels)} level(s) on {u!r}")
    return tuple(levels[1:])


def _levels(m: Dpda, c: Configuration, u: Word) -> list[tuple[int, Configuration]]:
    """The levels (i, c_i) of the run on u from c, in order: reading u[:i]
    from c lands in the stable configuration c_i, and every configuration
    visited after it, unstable ones inside ε-chains included, keeps a
    strictly taller stack.  ε-steps pop, so the lowest stack between two
    letters is the stable one before the next letter, and the test reads
    only the stable stacks after each letter.  A run that sticks ends its
    levels there.
    """
    stack = list(reversed(c.stack))
    state, _, _ = _drive(m, c.state, stack, "")
    stables = [_configuration(state, stack)]  # after each read prefix u[:i]
    for ch in u:
        state, _, consumed = _drive(m, state, stack, ch)
        if not consumed:
            break
        stables.append(_configuration(state, stack))

    levels, lowest = [], float("inf")  # the least stable height after i
    for i in reversed(range(len(stables))):
        if len(stables[i].stack) < lowest:
            levels.append((i, stables[i]))
            lowest = len(stables[i].stack)
    return levels[::-1]


def _pumps(m: Dpda, u: Word, levels):
    """Stack-increasing loops read off repeated pairs of the levels of u,
    generated lazily: a candidate is re-checked only when the pump before
    it has been taken.

    For every two levels (i, c_i) and (j, c_j), i < j, with the same state
    p and top symbol X: v = u[:i] and x = u[i:j], delta is c_i's stack
    below X, and gamma is what c_j's stack holds between X and delta.  x and
    gamma are nonempty because positions and stack heights strictly
    increase along the levels.  Every candidate is re-checked by simulation
    (pX -x-> pX·gamma from the bare stack X) before it is yielded.  The
    check is a safety net, not a filter: the run on x from c_i keeps every
    stack taller than c_i's, so from the bare X it takes the same steps.
    """
    for lo, (i, ci) in enumerate(levels):
        if not ci.stack:
            continue  # only the first level can be empty, and has no top
        p, X, delta = ci.state, ci.stack[0], ci.stack[1:]
        for j, cj in levels[lo + 1 :]:
            if (cj.state, cj.stack[0]) != (p, X):
                continue
            gamma = cj.stack[1 : len(cj.stack) - len(delta)]
            looped = advance(m, Configuration(p, (X,)), u[i:j])
            if looped is None or looped[0] != Configuration(p, (X,) + gamma):
                continue
            yield Pump(v=u[:i], x=u[i:j], p=p, X=X, gamma=gamma, delta=delta)


def _level_flags(
    m: Dpda, q: str, gamma: StackWord, delta: StackWord, z: Word, top: StackWord = ()
) -> tuple[list[bool], int]:
    """z's membership in L(q top gamma^l delta) for every l, as (flags,
    start): flags[l] up to its end, then cycling through flags[start:].

    The run on z reads the stack one gamma window at a time, and what it
    does in a window depends only on the key it enters with: its state,
    how much of z is read, and, once all of z is, whether an accepting
    state was seen since the last letter (the flag is OR-ed across a
    window boundary, as `_Product.probe` does).  So the keys the run
    enters its windows with, from (q, 0, False) on top, are an orbit of
    one map on at most |Q|·(|z| + 2) keys, and level l's flag is delta's
    run from the key after l windows.  The orbit is followed until a key
    repeats, where the flags start to cycle, or the run ends inside a
    window, after which every higher level ends there too, with one flag.
    A nonempty `top` is one more window above them all, read first.
    """
    windows = gamma[::-1], delta[::-1]  # top last, as `_drive` holds them

    def run(key, window):
        # The key entering the window below, or None when the run ends in
        # this one, and the flag z gets if the stack ends under it.
        state, i, carried = key
        stack = list(window)
        state, acc, consumed = _drive(m, state, stack, z[i:])
        i += consumed
        flag = i == len(z) and (acc or (carried and not consumed))
        return (None if stack else (state, i, flag)), flag

    flags: list[bool] = []
    seen: dict[tuple[str, int, bool], int] = {}
    key: Optional[tuple[str, int, bool]] = (q, 0, False)
    if top:
        key, flag = run(key, top[::-1])
        if key is None:
            return [flag], 0
    while key not in seen:
        seen[key] = len(flags)
        flags.append(run(key, windows[1])[1])
        key, flag = run(key, windows[0])
        if key is None:
            return flags + [flag], len(flags)
    return flags, seen[key]


def periodicity(m: Dpda, base: Configuration, y: Word, z: Word) -> PeriodicityReport:
    """The eventual periodicity of membership of y^l z in L(base), exact.

    The snapshots after y^l from base (a configuration, and whether the
    last letter's run saw an accepting state) are values of a deterministic
    run: once one repeats, the memberships cycle.  Until one does, at
    l = 2, 4, 8, ... the run on y^l from base is searched for a verified
    pump at a level i = |v| whose loop x is a multiple of |y| letters.  Each
    loop reads the same letters and stays above its X, so position i + t|x|
    holds p X gamma^t delta for every t, and an l with l|y| = i + t|x| + r,
    0 < r <= |x|, has the membership of x[:r] z there: one `_level_flags`
    orbit in t per r (r > 0 keeps the flag of z = ε the last letter's).

    The search ends.  If no snapshot repeats, no configuration recurs at
    one position mod |y| either, so the stack heights along the run on
    y y y ... tend to infinity and it has infinitely many levels, positions
    whose stack it never touches again.  Two share (state, top, position
    mod |y|); once y^l covers both, they are levels of its run and give
    such a pump.
    """
    if not y:
        raise ValueError("y must be nonempty")
    seq: list[bool] = []  # the membership of y^l z, for l = 0, 1, ...
    seen: dict[Optional[tuple[Configuration, bool]], int] = {}
    snapshot, n, horizon, pump = advance(m, base, ""), len(y), 2, None
    while snapshot not in seen:
        if len(seq) == horizon:
            u, horizon = y * horizon, horizon * 2
            pump = next((p for p in _pumps(m, u, _levels(m, base, u)) if len(p.x) % n == 0), None)
            if pump is not None:
                break
        seen[snapshot] = len(seq)
        if snapshot is None:
            seq.append(False)
        else:
            cfg, arrived = snapshot
            seq.append(config_member(m, cfg, z) if z else arrived)
            snapshot = advance(m, cfg, y)

    if pump is None:  # the memberships cycle from the repeated snapshot's first sighting
        k0 = seen[snapshot]
        flag, period = (seq + seq[k0:]).__getitem__, len(seq) - k0
    else:
        i, size = len(pump.v), len(pump.x)
        orbits = {  # r -> the orbit of x[:r] z, for each r that ends on a y boundary
            r: _level_flags(m, pump.p, pump.gamma, pump.delta, pump.x[:r] + z, top=(pump.X,))
            for r in range(-i % n or n, size + 1, n)
        }

        def flag(l: int) -> bool:
            if l < len(seq):
                return seq[l]
            t, r = divmod(l * n - i - 1, size)  # l * n > i, as i < len(u) = len(seq) * n
            flags, start = orbits[r + 1]
            return flags[t if t < start else start + (t - start) % (len(flags) - start)]

        # Every orbit cycles from t = threshold on, and l + period has the
        # r of l and a t that many cycles on.
        threshold = max(start for _, start in orbits.values())
        k0 = -(-(threshold * size + i + 1) // n)  # the least l with t >= threshold
        period = size // n * math.lcm(*(len(flags) - start for flags, start in orbits.values()))

    # flag(l) == flag(l + period) for l >= k0.  A periodic tail has one least
    # period, dividing every other, so the least p from k0 on is k-major least.
    p = 1
    while period % p or any(flag(l) != flag(l + p) for l in range(k0, k0 + period)):
        p += 1
    k = k0
    while k and flag(k - 1) == flag(k - 1 + p):
        k -= 1
    return PeriodicityReport(k=k, period=p, table=tuple(flag(k + (r - k) % p) for r in range(p)))
