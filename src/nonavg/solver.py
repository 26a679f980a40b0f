"""Exact decision procedure and witness search for weighted-average equations.

Given a coefficient tuple E and a finite set of nonnegative integers, the
functions here decide whether the set contains a solution to

    d_1*x_1 + ... + d_{m-1}*x_{m-1} = d*x_m

under one of two nontriviality rules, and produce an explicit witness when
one exists.  Searches are exhaustive and deterministic; a node budget guards
against runaway inputs and exhausting it raises instead of returning "no".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement

from .errors import BudgetExhausted
from .tuples import VALUE_LIMIT, CoefficientTuple, coefficient_groups

DEFAULT_NODE_BUDGET = 10 ** 8


def node_cap(node_budget) -> int:
    """The most nodes a search may spend: DEFAULT_NODE_BUDGET for None, and
    a negative budget acts as 0, so any budget <= 0 stops at node 1."""
    return DEFAULT_NODE_BUDGET if node_budget is None else max(node_budget, 0)


class AvoidanceRule(Enum):
    """Which assignments count as forbidden solutions."""

    DISTINCT = "distinct"          # all m values pairwise distinct
    NOT_ALL_EQUAL = "notallequal"  # at least two of the m values differ

    @classmethod
    def from_text(cls, text: str) -> "AvoidanceRule":
        for rule in cls:
            if rule.value == text.strip().lower():
                return rule
        raise ValueError(f"unknown rule {text!r} (expected distinct or notallequal)")


@dataclass(frozen=True)
class Witness:
    """A concrete solution (x_1, ..., x_m); the last value is the averaged side."""

    values: tuple


def witness_satisfies(values, coefficients: CoefficientTuple, rule: AvoidanceRule) -> bool:
    """Check the witness invariants: the equation holds and the rule is met."""
    coeffs = coefficients.coeffs
    if len(values) != coefficients.m:
        return False
    if any(v < 0 for v in values):
        return False
    lhs = sum(c * v for c, v in zip(coeffs, values))
    if lhs != coefficients.weight * values[-1]:
        return False
    if rule is AvoidanceRule.DISTINCT:
        return len(set(values)) == len(values)
    return len(set(values)) >= 2


class _Budget:
    __slots__ = ("cap", "nodes")

    def __init__(self, cap):
        self.cap = node_cap(cap)
        self.nodes = 0

    def spend(self, k: int = 1):
        self.nodes += k
        if self.nodes > self.cap:
            raise BudgetExhausted(self.nodes)


def _check_values_small(values):
    for v in values:
        if v < 0 or v >= VALUE_LIMIT:
            raise ValueError(f"value {v} outside [0, 2^63)")


def _iter_assignments(slots, lo_sum, hi_sum, pool, used, distinct, budget):
    """Yield (acc, prefix, last) for value tuples on ``slots`` whose weighted
    total lies in [lo_sum, hi_sum].

    Each yield is a group of tuples sharing their first len(slots)-1 values,
    ``prefix``, whose weighted sum is ``acc``; ``last`` lists (ascending,
    never empty) the values of the last slot, so each tuple's total is
    acc + slots[-1] * v.  A coefficient may be negative; there is at least
    one slot.  Values come from the sorted ``pool``.  Adjacent positions
    sharing a coefficient receive values in strictly increasing (distinct)
    or nondecreasing order, which removes permutation duplicates without
    losing solutions.  When ``distinct`` is set, values must also avoid
    ``used`` and each other.  Enumeration order is ascending at every level
    but one: a negative slot before the last (the averaged value, written as
    a slot of coefficient -d) runs descending, so the first tuple is the
    canonical one.  A one-value target (lo_sum == hi_sum) yields groups of
    one value.  A last slot left with at most one value looks it up by one
    bisection of ``pool``.
    """
    k = len(slots)
    pmin, pmax = pool[0], pool[-1]
    ptop = len(pool) - 1  # a bisection bounded by it lands on a pool value
    sufmin = [0] * (k + 1)
    sufmax = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        a, b = sorted((slots[i] * pmin, slots[i] * pmax))
        sufmin[i] = sufmin[i + 1] + a
        sufmax[i] = sufmax[i + 1] + b
    out = [0] * (k - 1)

    def rec(i, lo, hi, floor_v, acc):
        c = slots[i]
        # window for v: the remaining slots must be able to absorb the rest
        a, b = lo - sufmax[i + 1], hi - sufmin[i + 1]
        if c < 0:
            a, b = b, a
        v_lo = -(-a // c)
        v_hi = b // c
        if floor_v > v_lo:
            v_lo = floor_v
        if i == k - 1:
            if v_lo >= v_hi:  # at most one value: one lookup
                budget.spend()
                found = v_lo == v_hi and pool[bisect_left(pool, v_lo, 0, ptop)] == v_lo
                if found and not (distinct and v_lo in used):
                    yield acc, tuple(out), [v_lo]
                return
            last = pool[bisect_left(pool, v_lo):bisect_right(pool, v_hi)]
            budget.spend(len(last) or 1)
            if distinct:
                last = [v for v in last if v not in used]
            if last:
                yield acc, tuple(out), last
            return
        same_next = slots[i + 1] == c
        values = pool[bisect_left(pool, v_lo):bisect_right(pool, v_hi)]
        for v in reversed(values) if c < 0 else values:
            budget.spend()
            if distinct and v in used:
                continue
            out[i] = v
            if distinct:
                used.add(v)
            if same_next:
                nf = v + 1 if distinct else v
            else:
                nf = pmin
            yield from rec(i + 1, lo - c * v, hi - c * v, nf, acc + c * v)
            if distinct:
                used.discard(v)

    yield from rec(0, lo_sum, hi_sum, pmin, 0)


def _assemble(coeffs, pairs, rhs):
    """Witness values of assigned (coefficient, value) pairs, in the canonical layout.

    Values are grouped per coefficient and sorted ascending within a group,
    then laid out along the nondecreasing coefficient positions ``coeffs``,
    with the averaged value ``rhs`` last.  A pair whose coefficient is not in
    ``coeffs``, such as the averaged value's -d, is left out.
    """
    by = defaultdict(list)
    for c, v in pairs:
        by[c].append(v)
    out = []
    for c in dict.fromkeys(coeffs):
        out.extend(sorted(by[c]))
    out.append(rhs)
    return tuple(out)


def _blocking_witness(terms, candidate, coefficients, rule, budget):
    """First witness over terms + {candidate} that uses the candidate, or None.

    ``terms`` must be solution-free, sorted, and exclude the candidate.
    The equation is written as slots, the averaged value a slot of
    coefficient -d.  Each role puts the candidate in one slot, the averaged
    value first, then one left-hand slot per distinct coefficient (largest
    first), and enumerates the other slots once, the averaged value
    descending.  Under the not-all-equal rule every role skips the
    all-equal assignment.
    """
    if not terms:
        return None
    coeffs = coefficients.coeffs
    d = coefficients.weight
    distinct = rule is AvoidanceRule.DISTINCT
    if distinct:
        pool, used = terms, {candidate}
    else:
        pool = list(terms)
        insort(pool, candidate)
        used = None
    equation = (-d,) + tuple(sorted(coeffs, reverse=True))
    for role in (-d,) + tuple(sorted(set(coeffs), reverse=True)):
        slots = list(equation)
        slots.remove(role)
        target = -role * candidate
        for _, prefix, last in _iter_assignments(slots, target, target, pool, used, distinct, budget):
            vals = prefix + (last[0],)
            if distinct or any(v != candidate for v in vals):
                pairs = list(zip(slots, vals)) + [(role, candidate)]
                return Witness(_assemble(coeffs, pairs, candidate if role == -d else vals[0]))
    return None


def creates_solution(ground, candidate, coefficients, rule, node_budget=None):
    """Witness over ground + {candidate} using the candidate, or None.

    ``ground`` must be solution-free under (coefficients, rule) and must not
    contain the candidate; under those preconditions, None certifies that
    ground + {candidate} is still solution-free.
    """
    terms = sorted(set(ground))
    _check_values_small(terms)
    _check_values_small((candidate,))
    if candidate in terms:
        raise ValueError("candidate must not be in the ground set")
    return _blocking_witness(terms, candidate, coefficients, rule, _Budget(node_budget))


def _group_partitions(values, groups):
    """Assignments of distinct ``values`` to coefficient groups, deterministically.

    ``groups`` is a list of (coefficient, count) with counts summing to
    len(values).  Yields lists of (coefficient, value) pairs; within a group
    the chosen values are kept sorted ascending.
    """
    if not groups:
        yield []
        return
    coeff, count = groups[0]
    vals = sorted(values)
    for chosen in combinations(vals, count):
        rest = [v for v in vals if v not in chosen]
        for tail in _group_partitions(rest, groups[1:]):
            yield [(coeff, v) for v in chosen] + tail


def relaxed_representation(alpha, pool, coefficients, node_budget=None):
    """Witness with alpha at position 1 and the other values from pool, which
    may contain alpha.

    Only the companions (positions 2..m-1) must be pairwise distinct; the
    averaged value is unconstrained and may repeat any of them.  Companion
    sets below alpha are tried first, largest first; if none work the whole
    pool is scanned ascending.
    """
    pool_sorted = sorted(set(pool))
    _check_values_small(pool_sorted)
    _check_values_small((alpha,))
    budget = _Budget(node_budget)
    coeffs = coefficients.coeffs
    d = coefficients.weight
    d1 = coeffs[0]
    rest_coeffs = coeffs[1:]
    k = len(rest_coeffs)
    pool_set = set(pool_sorted)
    groups = coefficient_groups(rest_coeffs)

    def try_combo(combo):
        for pairs in _group_partitions(combo, groups):
            budget.spend()
            s = d1 * alpha + sum(c * v for c, v in pairs)
            q, r = divmod(s, d)
            if r == 0 and q in pool_set:
                return Witness((alpha,) + _assemble(rest_coeffs, pairs, q))
        return None

    below = [v for v in pool_sorted if v < alpha]
    for combo in combinations(sorted(below, reverse=True), k):
        budget.spend()
        w = try_combo(combo)
        if w is not None:
            return w
    for combo in combinations(pool_sorted, k):
        budget.spend()
        w = try_combo(combo)
        if w is not None:
            return w
    return None


def verify_solution_free(values, coefficients, rule, node_budget=None):
    """Exhaustively search for a witness fully inside ``values``; None means solution-free.

    Deliberately simple (per-group combinations, averaged value solved by
    division) so it can serve as the slow oracle in tests.
    """
    vals = sorted(set(values))
    _check_values_small(vals)
    vset = set(vals)
    coeffs = coefficients.coeffs
    d = coefficients.weight
    budget = _Budget(node_budget)
    distinct = rule is AvoidanceRule.DISTINCT

    groups = coefficient_groups(coeffs)

    def rec(gi, used, pairs, acc):
        if gi == len(groups):
            budget.spend()
            q, r = divmod(acc, d)
            if r != 0 or q not in vset:
                return None
            if distinct and (q in used):
                return None
            if not distinct:
                flat = [v for _, v in pairs]
                if all(v == q for v in flat):
                    return None
            return Witness(_assemble(coeffs, pairs, q))
        coeff, count = groups[gi]
        chooser = combinations(vals, count) if distinct else combinations_with_replacement(vals, count)
        for chosen in chooser:
            budget.spend()
            if distinct and any(v in used for v in chosen):
                continue
            w = rec(
                gi + 1,
                used | set(chosen) if distinct else used,
                pairs + [(coeff, v) for v in chosen],
                acc + coeff * sum(chosen),
            )
            if w is not None:
                return w
        return None

    return rec(0, frozenset(), [], 0)
