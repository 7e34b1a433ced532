"""Independent brute-force oracles used to cross-check the package.

Everything here recomputes results from the raw rule set by enumeration or
direct simulation, deliberately ignoring the package's own indexes and
algorithms, so that each check stays a genuine second route.
"""

from collections import deque
from itertools import product


def iter_words(alphabet, max_len):
    symbols = sorted(alphabet)
    for n in range(max_len + 1):
        for tup in product(symbols, repeat=n):
            yield "".join(tup)


def _find_rule(rules, state, top, label):
    for r in rules:
        if r.from_state == state and r.top == top and r.label == label:
            return r
    return None


def ref_member(m, word):
    """Reference run with stuck-as-reject semantics, straight off the rules."""
    return ref_config_member(m, m.start_state, (m.start_symbol,), word)


def ref_config_member(m, state, stack, word):
    """Membership of `word` in the language of configuration (state, stack),
    stack topmost first, straight off the rules: a stuck or stranded run
    rejects."""

    def close(state, stack, acc):
        while stack:
            r = _find_rule(m.rules, state, stack[0], "")
            if r is None:
                break
            state = r.to_state
            stack = stack[1:]
            acc = acc or state in m.accepting
        return state, stack, acc

    state, stack, acc = close(state, tuple(stack), state in m.accepting)
    for ch in word:
        if not stack:
            return False
        r = _find_rule(m.rules, state, stack[0], ch)
        if r is None:
            return False
        state, stack = r.to_state, r.push + stack[1:]
        state, stack, acc = close(state, stack, state in m.accepting)
    return acc


def ref_distinguishing_word(m, c1, c2, max_len, node_cap):
    """The first separator of two configurations (state, stack topmost
    first) in a plain breadth-first product simulation straight off the
    rules: letters in sorted order, each side ε-closed after every letter,
    a side that cannot read a letter stranded (it rejects everything from
    then on); a pair already seen, or with both sides stranded, is not
    expanded.  Returns (word or None, closed); closed is False when the
    search was cut at `max_len` or after `node_cap` expanded pairs, which
    proves nothing."""
    visible, eps = _rule_tables(m)
    sigma = sorted(m.input_alphabet)

    def close(state, stack, acc):
        while stack and (state, stack[0]) in eps:
            to, push = eps[(state, stack[0])]
            state, stack = to, push + stack[1:]
            acc = acc or state in m.accepting
        return (state, stack), acc

    def step(side, ch):
        if side is None or not side[1]:
            return None, False
        hit = visible.get((side[0], side[1][0], ch))
        if hit is None:
            return None, False
        return close(hit[0], hit[1] + side[1][1:], hit[0] in m.accepting)

    s1, a1 = close(c1[0], tuple(c1[1]), c1[0] in m.accepting)
    s2, a2 = close(c2[0], tuple(c2[1]), c2[0] in m.accepting)
    if a1 != a2:
        return "", True
    seen = {(s1, s2)}
    queue = deque([(s1, s2, "")])
    closed = True
    while queue:
        d1, d2, word = queue.popleft()
        if len(word) >= max_len:
            closed = False
            continue
        for ch in sigma:
            (e1, b1), (e2, b2) = step(d1, ch), step(d2, ch)
            if b1 != b2:
                return word + ch, True
            if (e1 is None and e2 is None) or (e1, e2) in seen:
                continue
            seen.add((e1, e2))
            if len(seen) > node_cap + 1:
                return None, False
            queue.append((e1, e2, word + ch))
    return None, closed


def ref_heights(m, state, stack, word):
    """The stack height after every ε- or letter step of the run on `word`
    from (state, stack), stack topmost first, straight off the rules: ε-rules
    are followed before the first letter and after each one, and the run
    ends at the first letter it cannot read."""
    visible, eps = _rule_tables(m)
    stack = tuple(stack)
    heights = []
    for i in range(len(word) + 1):
        while stack and (state, stack[0]) in eps:
            state, push = eps[(state, stack[0])]
            stack = push + stack[1:]
            heights.append(len(stack))
        hit = visible.get((state, stack[0], word[i])) if i < len(word) and stack else None
        if hit is None:
            return heights
        state, stack = hit[0], hit[1] + stack[1:]
        heights.append(len(stack))


def ref_levels(m, u):
    """Levels of the run on u straight off the rules, as (position, (state,
    stack)) pairs, stack topmost first: the prefixes u[:i] whose stable
    configuration is followed only by strictly taller stacks, the stack
    being measured after every ε- or letter step.  The run ends at the
    first letter it cannot read."""
    visible, eps = _rule_tables(m)
    state, stack = m.start_state, (m.start_symbol,)
    heights = [len(stack)]
    stables = []
    for i in range(len(u) + 1):
        while stack and (state, stack[0]) in eps:
            to, push = eps[(state, stack[0])]
            state, stack = to, push + stack[1:]
            heights.append(len(stack))
        stables.append((i, len(heights), state, stack))
        hit = visible.get((state, stack[0], u[i])) if i < len(u) and stack else None
        if hit is None:
            break
        state, stack = hit[0], hit[1] + stack[1:]
        heights.append(len(stack))
    return [
        (i, (state, stack))
        for i, after, state, stack in stables
        if all(h > len(stack) for h in heights[after:])
    ]


def _rule_tables(m):
    """(state, top, letter) -> (to, push) and (state, top) -> (to, push) for
    the ε-rules, read straight off the rule list."""
    visible = {}
    eps = {}
    for r in m.rules:
        if r.label == "":
            eps[(r.from_state, r.top)] = (r.to_state, r.push)
        else:
            visible[(r.from_state, r.top, r.label)] = (r.to_state, r.push)
    return visible, eps


def bfs_pop_states(m, state, stack, max_word_len):
    """States reachable from (state, stack) with the whole stack consumed,
    over pop paths whose input word has length <= max_word_len."""
    has_eps = any(r.label == "" for r in m.rules)
    visible, eps = _rule_tables(m)
    sigma = sorted(m.input_alphabet)

    out = set()
    start = (state, tuple(stack))
    seen = {start}
    queue = deque([(state, tuple(stack), 0)])
    while queue:
        st, sk, used = queue.popleft()
        if not sk:
            out.add(st)
            continue
        hit = eps.get((st, sk[0]))
        if hit is not None:
            nxt = (hit[0], hit[1] + sk[1:])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt[0], nxt[1], used))
            continue
        if used == max_word_len:
            continue
        if not has_eps and len(sk) > max_word_len - used:
            continue  # each pop consumes input; emptying is out of reach
        for ch in sigma:
            hit = visible.get((st, sk[0], ch))
            if hit is None:
                continue
            nxt = (hit[0], hit[1] + sk[1:])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt[0], nxt[1], used + 1))
    return frozenset(out)


def least_pop_words(m, state, stack, max_len):
    """For each end state, the first word of length <= max_len in (length,
    lex) order on which the run from (state, stack), stack topmost first,
    first empties the stack exactly at the word's end, ε-closure included."""
    visible, eps = _rule_tables(m)
    sigma = sorted(m.input_alphabet)

    def close(state, stack):
        while stack and (state, stack[0]) in eps:
            to, push = eps[(state, stack[0])]
            state, stack = to, push + stack[1:]
        return state, stack

    out = {}
    layer = [("", *close(state, tuple(stack)))]
    for n in range(max_len + 1):
        alive = []
        for word, st, sk in layer:
            if not sk:
                out.setdefault(st, word)
            elif n < max_len:
                alive.append((word, st, sk))
        layer = []
        for word, st, sk in alive:
            for ch in sigma:
                hit = visible.get((st, sk[0], ch))
                if hit is not None:
                    layer.append((word + ch, *close(hit[0], hit[1] + sk[1:])))
    return out


def round_robin_pop_summaries(m):
    """The pop summary {(p, X): {q: w}} by round-robin sweeps straight off
    the rules: each sweep runs every rule pX -a-> q Y1..Yk in order,
    popping Y1..Yk from q with witness a through the entries as they stand,
    and keeps the (length, lex)-least word per end state, until a sweep
    changes nothing.  Entries appear in the order their first rule runs,
    and end states in the order they are first reached; entries that pop
    to no state are left out."""

    def better(word, old):
        return old is None or (len(word), word) < (len(old), old)

    entries = {}
    changed = True
    while changed:
        changed = False
        for r in m.rules:
            targets = entries.setdefault((r.from_state, r.top), {})
            reached = {r.to_state: r.label}
            for symbol in r.push:
                below = {}
                for q, w in reached.items():
                    for q2, w2 in entries.get((q, symbol), {}).items():
                        if better(w + w2, below.get(q2)):
                            below[q2] = w + w2
                reached = below
            for q, w in reached.items():
                if better(w, targets.get(q)):
                    targets[q] = w
                    changed = True
    return {key: targets for key, targets in entries.items() if targets}


def eps_pop_end(m, state, stack):
    """Endpoint of the ε-only pop chain across the whole stack, or None."""
    stack = tuple(stack)
    while stack:
        r = _find_rule(m.rules, state, stack[0], "")
        if r is None:
            return None
        state = r.to_state
        stack = r.push + stack[1:]
    return state


def sweep_agreement(m, predicate, max_len):
    """First word of length <= max_len where machine and predicate disagree,
    else None; walks the whole prefix tree of the input alphabet.

    Requires a completed machine (every node must have a successor)."""
    visible, eps = _rule_tables(m)
    accepting = m.accepting
    sigma = sorted(m.input_alphabet)

    def close(state, stack, acc):
        while stack:
            hit = eps.get((state, stack[0]))
            if hit is None:
                break
            state = hit[0]
            stack = hit[1] + stack[1:]
            acc = acc or state in accepting
        return state, stack, acc

    state0, stack0, acc0 = close(
        m.start_state, (m.start_symbol,), m.start_state in accepting
    )
    todo = [("", state0, stack0, acc0)]
    checked = 0
    while todo:
        word, state, stack, acc = todo.pop()
        if acc != predicate(word):
            return word, checked
        checked += 1
        if len(word) == max_len:
            continue
        for ch in sigma:
            hit = visible.get((state, stack[0], ch))
            if hit is None:
                raise AssertionError(f"machine not completed: stuck after {word + ch!r}")
            st, push = hit
            st, sk, ac = close(st, push + stack[1:], st in accepting)
            todo.append((word + ch, st, sk, ac))
    return None, checked


def ref_transduce(a, word):
    """(state, oracle tape) after reading `word` straight off the machine's
    δ and λ dicts, or None at the first undefined transition."""
    state, tape = a.start_state, ""
    for ch in word:
        if (state, ch) not in a.delta:
            return None
        tape += a.outputs[(state, ch)]
        state = a.delta[(state, ch)]
    return state, tape


def ref_evaluate(a, membership, word):
    """An oracle Mealy machine's verdict on `word`: an undefined transition
    rejects; otherwise the final state's table row is indexed by the
    answers to tape + suffix, the first suffix the most significant bit."""
    res = ref_transduce(a, word)
    if res is None:
        return False
    state, tape = res
    suffixes, table = a.per_state[state]
    row = 0
    for s in suffixes:
        row = 2 * row + (1 if membership(tape + s) else 0)
    return table.rows[row]


def two_way_splits(word, part_predicate):
    """Brute-force check that `word` splits into two parts both satisfying
    part_predicate."""
    return any(
        part_predicate(word[:i]) and part_predicate(word[i:])
        for i in range(len(word) + 1)
    )


# Small raw machine descriptions owned by the tests (pre-completion).

LSHARP_RAW = {
    "states": ["q0", "q1", "qf"],
    "input_alphabet": ["0", "1"],
    "stack_alphabet": ["X0", "A0", "A"],
    "rules": [
        {"from": "q0", "top": "X0", "label": "0", "to": "q0", "push": ["A0", "X0"]},
        {"from": "q0", "top": "A0", "label": "0", "to": "q0", "push": ["A", "A0"]},
        {"from": "q0", "top": "A", "label": "0", "to": "q0", "push": ["A", "A"]},
        {"from": "q0", "top": "A0", "label": "1", "to": "qf", "push": []},
        {"from": "q0", "top": "A", "label": "1", "to": "q1", "push": []},
        {"from": "q1", "top": "A", "label": "1", "to": "q1", "push": []},
        {"from": "q1", "top": "A0", "label": "1", "to": "qf", "push": []},
    ],
    "start_state": "q0",
    "start_symbol": "X0",
    "accepting": ["qf"],
}

# Accepts 0^n 1 (n >= 2) by unwinding the stack with ε-pops after the 1.
# The chain alternates pe/hit while popping, so acceptance is decided by a
# configuration strictly inside the ε-chain while the run rests in the
# non-accepting `done`.
EPS_CHAIN_RAW = {
    "states": ["p", "pe", "hit", "done"],
    "input_alphabet": ["0", "1"],
    "stack_alphabet": ["X0", "A"],
    "rules": [
        {"from": "p", "top": "X0", "label": "0", "to": "p", "push": ["A", "X0"]},
        {"from": "p", "top": "A", "label": "0", "to": "p", "push": ["A", "A"]},
        {"from": "p", "top": "A", "label": "1", "to": "pe", "push": []},
        {"from": "p", "top": "X0", "label": "1", "to": "done", "push": []},
        {"from": "pe", "top": "A", "label": "", "to": "hit", "push": []},
        {"from": "hit", "top": "A", "label": "", "to": "pe", "push": []},
        {"from": "pe", "top": "X0", "label": "", "to": "done", "push": []},
        {"from": "hit", "top": "X0", "label": "", "to": "done", "push": []},
    ],
    "start_state": "p",
    "start_symbol": "X0",
    "accepting": ["hit"],
}


def eps_chain_predicate(w):
    return len(w) >= 3 and w[-1] == "1" and set(w[:-1]) <= {"0"}

EMPTY_LANGUAGE_RAW = {
    "states": ["q0"],
    "input_alphabet": ["0", "1"],
    "stack_alphabet": ["X0"],
    "rules": [],
    "start_state": "q0",
    "start_symbol": "X0",
    "accepting": [],
}

# The 0^n 1^n language again, but acceptance happens through an ε-pop of the
# bottom marker: the visible run never enters the accepting state directly.
LSHARP_EPS_RAW = {
    "states": ["q0", "q1", "qe", "qf"],
    "input_alphabet": ["0", "1"],
    "stack_alphabet": ["X0", "A0", "A"],
    "rules": [
        {"from": "q0", "top": "X0", "label": "0", "to": "q0", "push": ["A0", "X0"]},
        {"from": "q0", "top": "A0", "label": "0", "to": "q0", "push": ["A", "A0"]},
        {"from": "q0", "top": "A", "label": "0", "to": "q0", "push": ["A", "A"]},
        {"from": "q0", "top": "A0", "label": "1", "to": "qe", "push": []},
        {"from": "q0", "top": "A", "label": "1", "to": "q1", "push": []},
        {"from": "q1", "top": "A", "label": "1", "to": "q1", "push": []},
        {"from": "q1", "top": "A0", "label": "1", "to": "qe", "push": []},
        {"from": "qe", "top": "X0", "label": "", "to": "qf", "push": []},
    ],
    "start_state": "q0",
    "start_symbol": "X0",
    "accepting": ["qf"],
}
