"""Greedy generation of the avoidance sequences, resumable, with a naive oracle.

The greedy rule: start at 0 and repeatedly append the least integer that
creates no forbidden solution among the chosen terms.  ``generate`` runs a
forbidden-value sieve of sumset bitsets from the empty prefix (``Sieve``);
``extend`` of a given prefix fills a window of flags (``_extend_window``).
``naive_generate`` is a separate, deliberately unoptimized implementation
used as an independent oracle in tests and must never share search code
with the solver module or the sieve.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice, product
from operator import lt
from typing import NamedTuple

from .errors import BudgetExhausted
from .solver import AvoidanceRule, _Budget, _iter_assignments, creates_solution, node_cap
from .tuples import CoefficientTuple, coefficient_groups, parse_fields

# The window of candidates of ``_extend_window`` starts this wide and doubles
# at each refill, up to WINDOW_MAX bytes of forbidden-value flags.
WINDOW_START = 64
WINDOW_MAX = 1 << 20


@dataclass(frozen=True)
class GreedySequence:
    """A generated prefix: terms plus the highest integer examined so far.

    ``lines`` is (k, text), text the first k terms in decimal, one line each:
    the lines of the cache the terms were read from, or those ``rendered``
    made, so that each term is turned into text once.
    """

    coefficients: CoefficientTuple
    rule: AvoidanceRule
    terms: tuple
    frontier: int
    lines: tuple = field(default=(0, ""), compare=False, repr=False)


@lru_cache(maxsize=256)
def _splits(slots, distinct):
    """(w(B), slots - B) for each set B of the sorted slots that one new value
    can fill: one slot under the distinct rule, any nonempty sub-multiset
    under the not-all-equal rule.  B is a count vector over the coefficient
    groups, at most prod(count + 1) of them; slots - B keeps slots' order."""
    groups = coefficient_groups(slots)
    if distinct:  # B is one slot: a unit count vector
        counts = [[int(i == j) for j in range(len(groups))] for i in range(len(groups))]
    else:
        counts = product(*(range(n + 1) for _, n in groups))
    splits = []
    for taken in counts:
        if any(taken):
            rest = tuple(c for k, (c, n) in zip(taken, groups) for _ in range(n - k))
            splits.append((sum(k * c for k, (c, _) in zip(taken, groups)), rest))
    return tuple(splits)


def _open_roles(coeffs, distinct):
    """(sigma, rest) for each way a new value n can sit in a solution.

    Every term is below n, so n is never the averaged value: it fills a set
    of left-hand slots of weight sigma (one slot under the distinct rule, a
    nonempty proper subset under the not-all-equal rule) and terms fill the
    ``rest`` slots, coefficients nonincreasing.
    """
    return sorted(split for split in _splits(tuple(reversed(coeffs)), distinct) if split[1])


class _SumsetLayout(NamedTuple):
    """The bitset states of ``Sieve`` for one tuple and rule, indexed
    by sub-multiset M of the roles' rest slots, shortest first (M = () is 0),
    and the update an accepted term runs on them."""

    program: tuple  # per state M but (), largest first: (index, sum parts, gap parts, light)
    heavy: tuple  # (sigma, index of rest) for the sigma > 1 roles
    states: int  # the number of states
    update_nodes: int  # the nodes of one update that does not widen the bitsets


@lru_cache(maxsize=256)
def _sumset_layout(coeffs, distinct):
    """The layout that every sumset sieve of this tuple and rule shares; it
    holds only tuples, so no sieve can change another's.

    A part (w(B), index of M - B) is a slot set B of M that a new term
    fills.  Every part is a sum part, and a gap part only when w(B) < d - 1:
    the gap shifts of the others land at or below the term (see
    ``Sieve``)."""
    d = sum(coeffs)
    roles = _open_roles(coeffs, distinct)
    rests = {rest for _, rest in roles}
    states = sorted(rests.union(r for m in rests for _, r in _splits(m, False)), key=len)
    index = {m: i for i, m in enumerate(states)}
    light = {rest for sigma, rest in roles if sigma == 1}
    program = []
    nodes = 1 + len(light)  # the empty state's one shift-or, and the OR of each light state
    for m in reversed(states[1:]):
        parts = tuple((w, index[r]) for w, r in _splits(m, distinct))
        program.append((index[m], parts, tuple(p for p in parts if p[0] < d - 1), m in light))
        nodes += 2 * len(parts) + 1
    heavy = tuple((sigma, index[rest]) for sigma, rest in roles if sigma > 1)
    return _SumsetLayout(tuple(program), heavy, len(states), nodes)


class Sieve:
    """Greedy scan state from the empty prefix: the terms so far, the
    frontier (the highest integer decided) and sumset bitsets over the
    terms, which cost a fixed number of big-int shifts per accepted term.

    A candidate n is forbidden when sigma*n = d*x_m - (sum of rest slots)
    for some role (sigma, rest) and terms x_m and rest values (pairwise
    distinct under the distinct rule).  For each sub-multiset M of a role's
    rest slots, ``sums[M]`` holds the values s of (sum over M's slots of
    coefficient times term), each stored reversed as bit ``top - s``, and
    ``gaps[M]`` holds the values d*x - s for a further term x; under the
    distinct rule the terms in one value are pairwise distinct.  A
    candidate n is forbidden when sigma*n is in gaps[rest] for a role
    (sigma, rest).

    An accepted term t exceeds every earlier term, so the assignments it
    adds put t in a set B of M's slots (one slot under the distinct rule,
    any nonempty one under the not-all-equal rule) and earlier terms in the
    others: sums[M] gains sums[M - B] + w(B)*t and gaps[M] gains
    gaps[M - B] - w(B)*t, one shift-or each; and with t as x, gaps[M] gains
    d*t - sums[M], one more (the sums before t under the distinct rule,
    after it under the not-all-equal rule).  The layout holds this update as
    a program, one entry per state, largest first: the state's index, its
    sum parts, its gap parts and whether it is a sigma = 1 role's rest, whose
    new gaps go into the OR of those roles as soon as the state is done.
    The empty state M = () has no parts and no entry: after the program it
    only gains d*t in its gaps, and its sums stay the sum 0.

    Gap values at or below the frontier stay in the bitsets but are never
    read: the search starts above the frontier, a sigma > 1 role tests
    sigma*n for n above it, and later updates only shift gaps down.  So a
    gap shift that lands at or below t is dead.  Before t, gaps[M - B] holds
    values at most d times the previous term, below d*t; shifted down by
    w(B)*t they fall below (d - w(B))*t, so every part with w(B) >= d - 1
    is left out of the gap shifts (under both rules for (1, 1), and once in
    every not-all-equal layout, where B is a sigma = 1 role's whole rest).
    The next term is the least value above the frontier that the OR of the
    sigma = 1 roles' gaps leaves open and no sigma > 1 role forbids, tested
    bit by bit: the lowest clear bit of that OR shifted down to the
    frontier + 1, found without a sign as (x ^ (x + 1)).bit_length() - 1,
    and set when a sigma > 1 role forbids the value.

    The node budget applies to each accepted-term update and to each search
    for the next term; an accepted term is in the prefix before its update
    is spent.  A node is one big-int operation: a shift-or of the update's
    plan (a dead gap shift left out still counts as one, so node counts do
    not depend on it) or an OR into the sigma = 1 roles' gaps, a lookup of
    the next value those roles leave open, or one bit test against a
    sigma > 1 role.  An update's node count is known before it starts and is
    spent first, so an update the budget refuses leaves the bitsets as they
    were, and the next ``advance`` applies it before it searches.
    """

    def __init__(self, coefficients: CoefficientTuple, rule: AvoidanceRule):
        self.coefficients = coefficients
        self.rule = rule
        self.distinct = rule is AvoidanceRule.DISTINCT
        self.layout = _sumset_layout(coefficients.coeffs, self.distinct)
        self.terms = []
        self.frontier = -1
        self.top = 0
        self.sums = [1] + [0] * (self.layout.states - 1)  # state 0 is the empty M: the sum 0
        self.gaps = [0] * self.layout.states
        self.open_gaps = 0  # the OR of the sigma = 1 roles' gaps
        self.pending = None  # an accepted term whose update the budget refused

    def advance(self, max_terms=None, max_value=None, node_budget=None) -> GreedySequence:
        """Scan on until max_terms terms or frontier max_value, whichever
        comes first, in one loop on local variables: the search for the next
        term and the update for an accepted one run inline, and the state
        goes back to the sieve once, when the loop returns or the budget
        runs out."""
        program, heavy, states, update_nodes = self.layout
        d = self.coefficients.weight
        distinct = self.distinct
        cap = node_cap(node_budget)
        terms = self.terms
        frontier, pending = self.frontier, self.pending
        top, sums, gaps, open_gaps = self.top, self.sums, self.gaps, self.open_gaps
        try:
            while max_terms is None or len(terms) < max_terms:
                if max_value is not None and frontier >= max_value:
                    break
                if pending is None:  # search for the next term
                    nodes = 0
                    start = frontier + 1
                    shut = open_gaps >> start  # bit i clear: start + i is open to the sigma = 1 roles
                    while True:
                        nodes += 1
                        if nodes > cap:
                            raise BudgetExhausted(nodes)
                        filled = shut + 1  # shut with its lowest clear bit set and the ones below it cleared
                        n = start + (shut ^ filled).bit_length() - 1
                        if max_value is not None and n > max_value:
                            n = None
                            break
                        for sigma, i in heavy:
                            nodes += 1
                            if nodes > cap:
                                raise BudgetExhausted(nodes)
                            if (gaps[i] >> sigma * n) & 1:
                                break
                        else:
                            break
                        shut |= filled  # a sigma > 1 role forbids n: set its bit
                    if n is None:
                        frontier = max_value
                        break
                    terms.append(n)
                    frontier = pending = n
                # The update for the accepted term; its node count is spent
                # first, so a refused one leaves the bitsets as they were.
                dt = d * pending
                grow = dt > top
                nodes = update_nodes + grow * states
                if nodes > cap:
                    raise BudgetExhausted(nodes)
                if grow:  # keep top >= d*t, so that every sum, at most (d - 1)*t, has a bit
                    shift = 2 * dt - top
                    top += shift
                    sums = [s << shift for s in sums]
                down = top - dt
                # In place, largest state first: a state's parts are all
                # smaller states, so they still hold the values before t.
                # Per state the sums, then the gaps: interleaving the two per
                # part made the C allocator return and refault heap pages
                # around the big ints on long (1,1) runs (4,096 terms: 35,766
                # minor faults and 0.58 s, against 859 and 0.47 s in this order).
                for i, sum_parts, gap_parts, light in program:
                    s = before = sums[i]
                    for w, j in sum_parts:
                        s |= sums[j] >> w * pending
                    g = gaps[i] | (before if distinct else s) >> down
                    for w, j in gap_parts:
                        g |= gaps[j] >> w * pending
                    sums[i] = s
                    gaps[i] = g
                    if light:
                        open_gaps |= g
                gaps[0] |= sums[0] >> down  # the empty state: d*t, with no parts
                pending = None
        except BudgetExhausted as exc:
            spent = exc.nodes
        else:
            spent = None
        self.frontier, self.pending = frontier, pending
        self.top, self.sums, self.gaps, self.open_gaps = top, sums, gaps, open_gaps
        if spent is not None:
            raise BudgetExhausted(spent, self.sequence(), frontier + 1)
        return self.sequence()

    def sequence(self) -> GreedySequence:
        return GreedySequence(self.coefficients, self.rule, tuple(self.terms), self.frontier)


def _extend_window(seq: GreedySequence, max_terms, max_value, node_budget) -> GreedySequence:
    """Scan on from the non-empty prefix seq until max_terms terms or
    frontier max_value, whichever comes first, with a window of flags for
    the candidates above the frontier: which ones a solution among the
    terms forbids.

    A prefix such as one read from a cache gets no sumset bitsets, because
    building them would cost at least one big-int shift per given term.  A
    refill enumerates every solution whose n lands in the new window, which
    starts WINDOW_START wide, doubles at each refill up to WINDOW_MAX and
    ends at max_value; accepting a term t adds only the solutions that use
    t.  A node is one enumeration step (a value tried in a slot, or one
    value of a last-slot range); the node budget applies to each refill,
    which is the search for the next term, and to each accepted term's
    marking, which starts once the term is in the prefix.  Nothing is kept
    between calls: a call the budget stops resumes by extending its partial
    prefix.
    """
    coefficients, rule = seq.coefficients, seq.rule
    d = coefficients.weight
    distinct = rule is AvoidanceRule.DISTINCT
    roles = _open_roles(coefficients.coeffs, distinct)
    # Slots after sigma: the averaged value first, with coefficient -d.
    role_slots = [(sigma, (-d,) + rest) for sigma, rest in roles]
    # Solutions that use a new term t in a left-hand slot of coefficient c:
    # (sigma, c, the other slots).
    uses = sorted({(sigma, c, (-d,) + other) for sigma, rest in roles for c, other in _splits(rest, True)})
    terms = list(seq.terms)
    frontier = seq.frontier
    lo = hi = frontier + 1  # an empty window, which the first search refills
    width = WINDOW_START
    blocked = bytearray()

    def mark(sigma, slots, base, used, budget):
        """Flag every n above the frontier in the window with
        sigma*n + base + (sum over slots of coefficient times term) = 0."""
        c = slots[-1]
        for acc, _, last in _iter_assignments(
            slots, -sigma * (hi - 1) - base, -sigma * (frontier + 1) - base, terms, used, distinct, budget,
        ):
            top = -base - acc - sigma * lo  # sigma*(n - lo) for a last value of 0
            if sigma == 1:
                for v in last:
                    blocked[top - c * v] = 1
            else:
                for v in last:
                    i, r = divmod(top - c * v, sigma)
                    if not r:
                        blocked[i] = 1

    try:
        while max_terms is None or len(terms) < max_terms:
            if max_value is not None and frontier >= max_value:
                break
            # The least admissible value above the frontier: while the window
            # holds none, move the frontier to its end and refill it, unless
            # that end is max_value.
            while (pos := blocked.find(0, frontier + 1 - lo)) < 0:
                frontier = hi - 1
                if max_value is not None and frontier >= max_value:
                    break
                lo = frontier + 1
                hi = lo + width if max_value is None else min(lo + width, max_value + 1)
                width = min(2 * width, WINDOW_MAX)
                blocked = bytearray(hi - lo)
                budget = _Budget(node_budget)
                for sigma, slots in role_slots:
                    mark(sigma, slots, 0, set(), budget)
            if pos < 0:
                break
            t = lo + pos
            terms.append(t)
            frontier = t
            # Add the solutions that use the new term t.
            budget = _Budget(node_budget)
            for sigma, slots in role_slots:  # t as the averaged value
                mark(sigma, slots[1:], -d * t, {t}, budget)
            for sigma, c, slots in uses:  # t in a left-hand slot
                mark(sigma, slots, c * t, {t}, budget)
    except BudgetExhausted as exc:
        partial = GreedySequence(coefficients, rule, tuple(terms), frontier, seq.lines)
        raise BudgetExhausted(exc.nodes, partial, frontier + 1) from None
    return GreedySequence(coefficients, rule, tuple(terms), frontier, seq.lines)


def _prefix_within(seq: GreedySequence, max_terms, max_value):
    """What generate(max_terms, max_value) returns, when seq already covers it; else None."""
    terms = seq.terms
    if max_value is not None:
        terms = terms[:bisect_right(terms, max_value)]
    if max_terms is not None and len(terms) >= max_terms:
        terms = terms[:max_terms]
        frontier = terms[-1]
    elif max_value is not None and max_value <= seq.frontier:
        frontier = max(max_value, -1)  # an empty prefix's frontier is -1
    else:
        return None
    lines = seq.lines if len(terms) == len(seq.terms) else (0, "")  # the lines of every term or none
    return GreedySequence(seq.coefficients, seq.rule, terms, frontier, lines)


def _continue(seq: GreedySequence, max_terms, max_value, node_budget) -> GreedySequence:
    if max_terms is None and max_value is None:
        raise ValueError("need max_terms or max_value")
    if max_terms is not None and max_terms <= 0:
        return GreedySequence(seq.coefficients, seq.rule, (), -1)
    done = _prefix_within(seq, max_terms, max_value)
    if done is not None:
        return done
    if seq.terms:
        return _extend_window(seq, max_terms, max_value, node_budget)
    return Sieve(seq.coefficients, seq.rule).advance(max_terms, max_value, node_budget)


def generate(coefficients, rule, max_terms=None, max_value=None, node_budget=None) -> GreedySequence:
    """The unique greedy prefix with at most max_terms terms and frontier <= max_value."""
    return _continue(GreedySequence(coefficients, rule, (), -1), max_terms, max_value, node_budget)


def extend(seq: GreedySequence, max_terms=None, max_value=None, node_budget=None) -> GreedySequence:
    """Resume from seq; equals a fresh generate with the same caps, also caps below seq's."""
    return _continue(seq, max_terms, max_value, node_budget)


def skip_witness(seq: GreedySequence, value: int, node_budget=None):
    """Recompute the rejection witness for a skipped integer at or below the frontier."""
    i = bisect_right(seq.terms, value)
    if i and seq.terms[i - 1] == value:
        raise ValueError(f"{value} is a term, not a skip")
    if value > seq.frontier:
        raise ValueError(f"{value} lies beyond the frontier {seq.frontier}, so it is not decided yet")
    return creates_solution(seq.terms[:i], value, seq.coefficients, seq.rule, node_budget)


# ---------------------------------------------------------------------------
# Independent naive oracle.


def _iter_distinct_groups(groups, pool, used, prefix):
    """All ways to give each coefficient group distinct values from pool."""
    if not groups:
        yield prefix
        return
    coeff, count = groups[0]
    for chosen in combinations(pool, count):
        if any(v in used for v in chosen):
            continue
        yield from _iter_distinct_groups(
            groups[1:], pool, used | set(chosen), prefix + [(coeff, v) for v in chosen]
        )


def _naive_blocked_distinct(coeffs, d, terms, terms_set, n):
    """Is there a distinct-terms solution over terms + {n} that uses n?"""
    m = len(coeffs) + 1
    # Every term is below n, so n cannot sit alone on the averaged side.
    for pos in range(m - 1):
        rest = coeffs[:pos] + coeffs[pos + 1:]
        base = coeffs[pos] * n
        for pairs in _iter_distinct_groups(coefficient_groups(rest), terms, frozenset(), []):
            s = base + sum(c * v for c, v in pairs)
            q, r = divmod(s, d)
            if r == 0 and q in terms_set and q != n:
                if all(q != v for _, v in pairs):
                    return True
    return False


def _profile_sums(profile, terms, cache):
    """Achievable values of sum(c_i * t_i) with t_i ranging over terms, repeats allowed."""
    if profile in cache:
        return cache[profile]
    if not profile:
        result = {0}
    else:
        smaller = _profile_sums(profile[1:], terms, cache)
        c = profile[0]
        result = {s + c * t for s in smaller for t in terms}
    cache[profile] = result
    return result


def _naive_blocked_notallequal(coeffs, d, terms, terms_set, n, sums_cache):
    """Is there a not-all-equal solution over terms + {n} that uses n?

    n may occupy any nonempty set of left-hand slots and/or the averaged
    side; the remaining slots range over terms with repetition.  Any such
    assignment with a term-valued slot is automatically not all equal.
    """
    m = len(coeffs) + 1
    k = m - 1
    seen = set()
    for mask in range(1 << k):
        taken = [i for i in range(k) if (mask >> i) & 1]
        sigma = sum(coeffs[i] for i in taken)
        profile = tuple(sorted(coeffs[i] for i in range(k) if not (mask >> i) & 1))
        key = (sigma, profile)
        if key in seen:
            continue
        seen.add(key)
        sums = _profile_sums(profile, terms, sums_cache)
        if mask:
            # n on the averaged side as well, unless every slot holds n
            if profile:
                if (d - sigma) * n in sums:
                    return True
            # averaged side drawn from terms
            for x_m in terms:
                if d * x_m - sigma * n in sums:
                    return True
        else:
            # n only on the averaged side: impossible, every term is below n
            continue
    return False


def naive_generate(coefficients, rule, max_value):
    """Same output as generate, by unoptimized enumeration; test oracle only."""
    coeffs = coefficients.coeffs
    d = coefficients.weight
    terms: list = []
    terms_set: set = set()
    sums_cache: dict = {}
    for n in range(max_value + 1):
        if rule is AvoidanceRule.DISTINCT:
            blocked = _naive_blocked_distinct(coeffs, d, terms, terms_set, n)
        else:
            blocked = _naive_blocked_notallequal(coeffs, d, terms, terms_set, n, sums_cache)
        if not blocked:
            terms.append(n)
            terms_set.add(n)
            sums_cache = {}
    return terms


# ---------------------------------------------------------------------------
# Sequence cache files and the decimal text of the terms.


def rendered(seq: GreedySequence) -> GreedySequence:
    """seq with the decimal lines of all its terms: the lines it carries,
    then one line for each later term."""
    k, text = seq.lines
    if k == len(seq.terms):
        return seq
    text += "\n".join(map(str, seq.terms[k:])) + "\n"
    return GreedySequence(seq.coefficients, seq.rule, seq.terms, seq.frontier, (len(seq.terms), text))


_DIGITS_AND_NEWLINES = str.maketrans("", "", "0123456789\n")


def _parse_body(body: str):
    """The terms of a cache body, and its lines: (len(terms), body) when body
    is exactly their decimal text, one line each, else (0, "").

    A body of digit lines that ends in a newline is read in one json scan,
    which succeeds exactly when every line is str(int(line)) and none is
    blank; any other body is read line by line with int().
    """
    if body.endswith("\n") and not body.startswith("\n") and not body.translate(_DIGITS_AND_NEWLINES):
        with suppress(ValueError):  # json refuses a leading zero, an empty line and too many digits
            terms = tuple(json.loads("[" + body[:-1].replace("\n", ",") + "]"))
            return terms, (len(terms), body)
    # split("\n"), not splitlines(), which would also split a line at \x0c or \x1c
    return tuple(map(int, filter(str.strip, body.split("\n")))), (0, "")


def write_cache(path, seq: GreedySequence):
    """Cache format: header line, then one decimal term per line.

    The text goes to a temporary file beside ``path`` that is then renamed
    over it, so a reader sees the old cache or the new one, never a part.
    """
    header = f"# tuple={seq.coefficients.text()} rule={seq.rule.value} frontier={seq.frontier}"
    text = f"{header}\n{rendered(seq).lines[1]}"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_cache(path) -> GreedySequence:
    """Read a cache file; ValueError when it is malformed.

    The check is structural: the header names each field once, and the terms
    start at 0, strictly increase and end at or below the frontier (an empty
    cache has the frontier -1).  The terms are not regenerated, which
    would cost as much as the generation the cache saves, so a well-formed
    cache of wrong terms is accepted.  A canonical body (each term's decimal
    text on its own line) is read in one scan and kept as the sequence's
    lines; a lenient one (signs, spaces, leading zeros, blank lines) falls
    back to int() line by line and is rendered again from its integers.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError("missing cache header")
        fields = parse_fields(header[2:], "cache header")
        try:
            coefficients = CoefficientTuple.from_text(fields["tuple"])
            rule = AvoidanceRule.from_text(fields["rule"])
            frontier = int(fields["frontier"])
        except KeyError as exc:
            raise ValueError(f"cache header lacks {exc}") from None
        body = fh.read()
    terms, lines = _parse_body(body)
    if frontier < -1:
        raise ValueError(f"cache frontier {frontier} lies below -1")
    if not terms:
        if frontier >= 0:
            raise ValueError(f"cache holds no terms up to frontier {frontier}")
    elif terms[0] != 0:
        raise ValueError(f"cache starts at {terms[0]}, not 0")
    elif not all(map(lt, terms, islice(terms, 1, None))):
        raise ValueError("cache terms are not strictly increasing")
    elif terms[-1] > frontier:
        raise ValueError(f"cache term {terms[-1]} lies beyond its frontier {frontier}")
    return GreedySequence(coefficients, rule, terms, frontier, lines)
