"""Structure checks for the distinct-terms sequences and closed-form discovery.

A candidate description (scale c, residue set R) for a sequence must pass
two conditions before the closed form is accepted:

  (i)  an exact identity tying c to the largest residue and the coefficients;
  (ii) for every offset r1 in [0, c-1] and every slack j in [0, d-2], a
       subset of positions with coefficient sum j plus residues r2..rm
       solving the equation with the required distinctness pattern.

``discover_closed_form`` scans greedy prefixes for the least c whose prefix
passes both, which reproduces the known catalog below.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from operator import attrgetter, itemgetter, neg
from typing import NamedTuple

from .closedform import ClosedForm
from .errors import BudgetExhausted, UnsupportedM
from .greedy import Sieve, generate
from .solver import AvoidanceRule, node_cap, relaxed_representation
from .tuples import CoefficientTuple, coefficient_groups, require_valid


@dataclass(frozen=True)
class ConditionIResult:
    """Both sides of the scale identity."""

    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class CellResult(NamedTuple):
    """Outcome for one (offset, slack) pair of the completeness condition.

    A named tuple: one is built per cell, so it must be cheap to construct,
    and it is immutable.
    """

    r1: int
    j: int
    subset: tuple | None       # positions 2..m-1, empty tuple allowed; None on failure
    residues: tuple | None     # (r_2, ..., r_m) aligned with positions, averaged last

    @property
    def passed(self) -> bool:
        return self.residues is not None


@dataclass(frozen=True)
class ConditionReport:
    coefficients: CoefficientTuple
    scale: int
    residues: tuple
    cond_i: ConditionIResult
    cells: tuple

    @property
    def overall(self) -> bool:
        # a passed cell's residues are a non-empty tuple, a failed one's None
        return self.cond_i.passed and all(map(attrgetter("residues"), self.cells))

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The report as JSON text, written in one pass over the cells with
        no dict per cell.

        A passed cell's witness has one value per position 2..m, so one
        ``%`` template renders every passed cell; each distinct H is
        rendered once.
        """
        passed = '{"r1": %d, "j": %d, "H": %s, "witness": [' + ", ".join(["%d"] * (self.coefficients.m - 1)) + "]}"
        failed = '{"r1": %d, "j": %d, "H": null, "witness": null}'
        hs = {}
        parts = []
        for r1, j, subset, witness in self.cells:
            if witness is None:
                parts.append(failed % (r1, j))
                continue
            h = hs.get(subset)
            if h is None:
                h = hs[subset] = json.dumps(list(subset))
            parts.append(passed % (r1, j, h, *witness))
        head = json.dumps({
            "tuple": self.coefficients.text(),
            "c": self.scale,
            "R": list(self.residues),
            "cond_i": {"lhs": self.cond_i.lhs, "rhs": self.cond_i.rhs, "pass": self.cond_i.passed},
        })
        return f'{head[:-1]}, "cond_ii": [{", ".join(parts)}], "overall": {json.dumps(self.overall)}}}'


def check_scale_identity(coefficients, residues, scale) -> ConditionIResult:
    """scale == 1 + d*max(residues) - sum over k>=2 of d_k*(m-k-1), evaluated exactly."""
    require_valid(coefficients)
    if not residues:
        raise ValueError("residues must be nonempty")
    coeffs = coefficients.coeffs
    d = coefficients.weight
    m = coefficients.m
    correction = sum(coeffs[k - 1] * (m - k - 1) for k in range(2, m))
    return ConditionIResult(lhs=scale, rhs=1 + d * max(residues) - correction)


def _head_prefixes(coeffs, residues):
    """The assignments of every coefficient group but the last, in
    lexicographic order, as (values, weighted sum) pairs, and the last group
    as (coefficient, count).

    Each group takes one increasing combination of the residues not used
    yet: any other order inside a group has the same sum and value set and
    comes later in lexicographic order.  The last group is left to the
    caller to stream, never built as a list.
    """
    *head, (last, n) = coefficient_groups(coeffs) or [(0, 0)]
    prefixes = [((), 0)]
    for c, k in head:
        prefixes = [(vals + combo, acc + c * sum(combo)) for vals, acc in prefixes
                    for combo in combinations([v for v in residues if v not in vals], k)]
    return prefixes, last, n


def _assignment_table(coeffs, residues):
    """dict sum -> stored assignments of pairwise distinct residues to positions
    weighted by ``coeffs``.

    Assignments are met in lexicographic order (see ``_head_prefixes``).  One
    is stored only while it shrinks the intersection of the stored value
    sets, so for every single value v the first stored assignment avoiding v
    is the lexicographically first with that sum avoiding v, whenever one
    exists.
    """
    prefixes, last, n = _head_prefixes(coeffs, residues)
    out = {}
    inter = {}
    for vals, acc in prefixes:
        for combo in combinations([v for v in residues if v not in vals], n):
            s = acc + last * sum(combo)
            values = vals + combo
            kept = inter.get(s)
            if kept is None:
                out[s] = [values]
                inter[s] = set(values)
            elif kept:
                shrunk = kept.intersection(values)
                if len(shrunk) < len(kept):
                    out[s].append(values)
                    inter[s] = shrunk
    return out


def _first_assignments(coeffs, residues):
    """``_assignment_table`` with only the first stored assignment per sum:
    dict sum -> [the lexicographically first assignment of pairwise distinct
    residues to positions weighted by ``coeffs``]."""
    prefixes, last, n = _head_prefixes(coeffs, residues)
    out = {}
    for vals, acc in prefixes:
        for combo in combinations([v for v in residues if v not in vals], n):
            s = acc + last * sum(combo)
            if s not in out:
                out[s] = [vals + combo]
    return out


def _slack_plans(coeffs_at, d, residues):
    """Per slack j, one search plan per inside coefficient key of sum j, and
    the number of position subsets of sum j.

    Subsets come in size-then-lexicographic order, and a plan is made for the
    first subset with each inside key: later ones have the same tables, so
    they find a witness exactly when it does.  A plan is (subset, number of
    slack-j subsets up to and including it, sign, walk, look, least and
    greatest member of look, inside table, outside table, reorder).

    The search reads an outside table only for its first stored assignment
    per sum, so only an inside key (sum at most d-2) gets its full table; the
    one key that is never inside, all of the positions, gets
    ``_first_assignments``.  A plan walks the side with fewer sums and looks
    the other up, fixed per plan.  With sign 1 it walks the inside sums
    upward and looks up outside sums.  With sign -1 it walks the negated
    outside sums upward, the outside sums downward, and looks up negated
    inside sums.  Either way, for a target sum ``needed`` the walk value w
    pairs with sign*needed - w, and the inside sums come upward, so the
    first pair found has the least inside sum, and ``reorder`` puts
    inside-then-outside values back in position order.  Tables depend only
    on the coefficients of their positions, so equal ones are built once.
    """
    npos = len(coeffs_at)

    @cache
    def table(key):
        return _assignment_table(key, residues) if sum(key) <= d - 2 else _first_assignments(key, residues)

    plans = [{} for _ in range(d - 1)]
    counts = [0] * (d - 1)
    for size in range(npos + 1):
        for inside in combinations(range(npos), size):
            key = tuple(coeffs_at[i] for i in inside)
            j = sum(key)
            if j > d - 2:
                continue
            counts[j] += 1
            if key in plans[j]:
                continue
            outside = tuple(i for i in range(npos) if i not in inside)
            in_table, out_table = table(key), table(tuple(coeffs_at[i] for i in outside))
            if not out_table:  # no witness without an outside assignment
                sign, walk, look = 1, [], ()
            elif len(out_table) < len(in_table):
                sign, walk, look = -1, sorted(map(neg, out_table)), set(map(neg, in_table))
            else:
                sign, walk, look = 1, sorted(in_table), out_table
            order = inside + outside
            # itemgetter of a single index returns a bare value; up to one
            # position needs no reordering.
            reorder = itemgetter(*(order.index(p) for p in range(npos))) if npos > 1 else tuple
            plans[j][key] = (
                tuple(i + 2 for i in inside),
                counts[j],
                sign,
                walk,
                look,
                min(look, default=0),
                max(look, default=0),
                in_table,
                out_table,
                reorder,
            )
    return [list(slack_plans.values()) for slack_plans in plans], counts


def check_residue_completeness(coefficients, residues, scale, node_budget=None) -> ConditionReport:
    """Search every (offset, slack) cell for a witness; record the first per cell.

    Witnesses are canonical: smallest averaged residue first, then subset
    order, then smallest inside sum, whose inside assignment is the
    lexicographically first avoiding the averaged residue and whose outside
    assignment is the lexicographically first with the remaining sum.  A
    node is one (cell, averaged residue, subset) step: a pass over one
    averaged residue spends the subsets up to the one that succeeds, or all
    subsets of the slack when none does.

    The search runs slack by slack over a block of offsets.  Within a slack
    the averaged residues go upward, each slack's plan in subset order over
    the offsets still without a witness, so each cell meets its (r_m, plan)
    pairs in the order above.  A row of offsets spends at most
    len(rs) * sum(counts) nodes, so a block is as many rows as the remaining
    budget covers in that worst case, and cannot run out.  A row that could
    run out is a block of its own: its cells then finish in slack order, the
    order of one offset after another, and the budget is checked as each
    finishes, so the cell named is the one where the running count first
    passes the budget.
    """
    require_valid(coefficients)
    coeffs = coefficients.coeffs
    d = coefficients.weight
    m = coefficients.m
    rs = tuple(sorted(set(residues)))
    cap = node_cap(node_budget)
    plans, counts = _slack_plans(coeffs[1 : m - 1], d, rs)
    cond_i = check_scale_identity(coefficients, rs, scale)

    n = len(rs)
    drs = [d * r for r in rs]
    firsts = [bisect_left(drs, r1) for r1 in range(scale)]  # every smaller r_m leaves a negative sum
    row_nodes = n * sum(counts)
    new_cell = tuple.__new__  # CellResult's own __new__ is a Python-level call
    cells = [None] * (scale * (d - 1))
    nodes = 0
    start = 0
    while start < scale:
        stop = min(scale, start + max((cap - nodes) // row_nodes, 1))
        for j, slack_plans in enumerate(plans):
            count = counts[j]
            rows = []  # offsets of the block still without a witness, ascending
            below = start
            for k in range(n):
                r_m = rs[k]
                dk = drs[k]
                rows += range(below, min(dk + 1, stop))  # offsets whose least r_m is this one
                below = max(below, dk + 1)
                for subset, upto, sign, walk, look, lo, hi, in_table, out_table, reorder in slack_plans:
                    left = []
                    for r1 in rows:
                        needed = dk - r1
                        base = sign * needed
                        top = base - lo
                        in_assign = None
                        for w in islice(walk, bisect_left(walk, base - hi), None):
                            if w > top:
                                break
                            if base - w not in look:
                                continue
                            s_in = w if sign > 0 else w + needed
                            in_assign = in_table[s_in][0]
                            if r_m in in_assign:
                                in_assign = next((a for a in in_table[s_in] if r_m not in a), None)
                            if in_assign is not None:
                                break
                        if in_assign is None:
                            left.append(r1)
                            continue
                        # a hit spends the subsets of every earlier r_m and those up to its plan's H
                        nodes += (k - firsts[r1]) * count + upto
                        if nodes > cap:  # the nodes ran out inside this cell, one past the cap
                            raise BudgetExhausted(
                                cap + 1, where=f"residue completeness at scale {scale}, cell (r1={r1}, j={j})"
                            )
                        witness = reorder(in_assign + out_table[needed - s_in][0]) + (r_m,)
                        cells[r1 * (d - 1) + j] = new_cell(CellResult, (r1, j, subset, witness))
                    rows = left
            for r1 in [*rows, *range(below, stop)]:  # a miss spends every subset of the slack per r_m
                nodes += (n - firsts[r1]) * count
                if nodes > cap:
                    raise BudgetExhausted(
                        cap + 1, where=f"residue completeness at scale {scale}, cell (r1={r1}, j={j})"
                    )
                cells[r1 * (d - 1) + j] = new_cell(CellResult, (r1, j, None, None))
        start = stop
    return ConditionReport(coefficients, scale, rs, cond_i, tuple(cells))


def validate_cell(coefficients, cell: CellResult, residues) -> bool:
    """Re-validate a recorded witness against its constraint list, independent of the search."""
    if cell.residues is None or cell.subset is None:
        return False
    coeffs = coefficients.coeffs
    d = coefficients.weight
    m = coefficients.m
    positions = tuple(range(2, m))
    rset = set(residues)
    vals = dict(zip(positions, cell.residues[:-1]))
    r_m = cell.residues[-1]
    if any(v not in rset for v in cell.residues):
        return False
    if sum(coeffs[p - 1] for p in cell.subset) != cell.j:
        return False
    total = cell.r1 + sum(coeffs[p - 1] * vals[p] for p in positions)
    if total != d * r_m:
        return False
    inside = [vals[p] for p in cell.subset] + [r_m]
    if len(set(inside)) != len(inside):
        return False
    outside = [vals[p] for p in positions if p not in cell.subset]
    if len(set(outside)) != len(outside):
        return False
    return True


def discover_closed_form(
    coefficients,
    max_residues: int = 64,
    max_frontier: int = 80000,
    node_budget=None,
):
    """Scan greedy prefixes for the least scale passing both conditions.

    Residue sets are the prefixes {a_0..a_z} with candidate scale a_{z+1};
    z runs upward so the first hit has minimal scale.  One greedy sieve
    serves every z.  Returns
    (ClosedForm, ConditionReport) or None when the caps are reached.
    """
    require_valid(coefficients)
    sieve = Sieve(coefficients, AvoidanceRule.DISTINCT)
    terms = ()
    for z in range(max_residues):
        if len(terms) < z + 2:
            terms = sieve.advance(max_terms=z + 2, max_value=max_frontier, node_budget=node_budget).terms
            if len(terms) < z + 2:
                return None  # frontier cap reached before enough terms appeared
        rs = terms[: z + 1]
        scale = terms[z + 1]
        if not check_scale_identity(coefficients, rs, scale).passed:
            continue
        report = check_residue_completeness(coefficients, rs, scale, node_budget=node_budget)
        if report.overall:
            cf = ClosedForm(coefficients.base, scale, rs, coefficients)
            return cf, report
    return None


# ---------------------------------------------------------------------------
# The all-ones family: explicit parameters for every m >= 3.


def uniform_family_parameters(m: int):
    """(scale, residues) for the sequence avoiding plain averages of m-1 terms.

    Small odd sizes (3, 5, 7) are explicit; even sizes and odd sizes above 7
    come from the closed formulas in the catalog.
    """
    if m < 3:
        raise UnsupportedM(f"m must be at least 3, got {m}")
    if m == 3:
        return 1, (0,)
    if m == 5:
        return 122, (0, 1, 2, 3, 5, 7, 13, 26, 27, 28, 29, 31)
    if m == 7:
        return 219, (0, 1, 2, 3, 4, 5, 7, 10, 33, 34, 35, 36, 37, 38)
    n = m // 2
    if m % 2 == 0:
        return 2 * n * n + 3 * n - 2, tuple(range(2 * n + 1))
    base_set = list(range(2 * n)) + [2 * n + 1]
    shift = 2 * n * n + 5 * n
    residues = sorted(base_set + [3 * n + 1] + [v + shift for v in base_set])
    return 4 * n ** 3 + 12 * n * n + 5 * n, tuple(residues)


def verify_family_prefix(m: int, node_budget=None) -> bool:
    """Generate the greedy sequence below the family scale and compare with the residues."""
    scale, residues = uniform_family_parameters(m)
    seq = generate(
        CoefficientTuple.uniform(m),
        AvoidanceRule.DISTINCT,
        max_value=scale - 1,
        node_budget=node_budget,
    )
    return seq.terms == residues


def residue_averaging_witnesses(m: int, node_budget=None):
    """For each family residue r1, a relaxed witness averaging back into the set.

    r2..r_{m-1} are pairwise distinct residues, the averaged value is a
    residue and may repeat one of them.  Returns {r1: Witness or None}.
    """
    _, residues = uniform_family_parameters(m)
    coefficients = CoefficientTuple.uniform(m)
    out = {}
    for r1 in residues:
        out[r1] = relaxed_representation(r1, residues, coefficients, node_budget=node_budget)
    return out


def check_residue_averaging(m: int, node_budget=None) -> bool:
    """True iff every family residue admits a relaxed averaging witness."""
    return all(w is not None for w in residue_averaging_witnesses(m, node_budget).values())


# ---------------------------------------------------------------------------
# Catalog of confirmed closed forms (distinct-terms sequences, m <= 6).
#
# Each entry: coefficient tuple -> (scale, residues).  The base is always
# the tuple weight plus one.  Every row is reproduced by discovery, greedy
# generation, and the naive oracle; two widely circulated residue lists are
# corrected here because the sequences themselves disagree with them:
# (1,1,2,3) has residues {0,1,2,3,10,11,12} (not the (1,1,1,2,3) list) and
# (1,1,2,4,7) omits 5 (the first six terms are 0,1,2,3,4,6).

KNOWN_CLOSED_FORMS = {
    (1, 1, 1): (12, (0, 1, 2, 3, 4)),
    (1, 1, 2): (16, (0, 1, 2, 3, 4)),
    (1, 1, 1, 1): (122, (0, 1, 2, 3, 5, 7, 13, 26, 27, 28, 29, 31)),
    (1, 1, 1, 2): (103, (0, 1, 2, 3, 4, 14, 18, 19, 20, 21)),
    (1, 1, 2, 3): (81, (0, 1, 2, 3, 10, 11, 12)),
    (1, 1, 2, 4): (29, (0, 1, 2, 3, 4)),
    (1, 1, 1, 1, 1): (25, (0, 1, 2, 3, 4, 5, 6)),
    (1, 1, 1, 1, 2): (31, (0, 1, 2, 3, 4, 5, 6)),
    (1, 1, 1, 1, 3): (30, (0, 1, 2, 3, 4, 5)),
    (1, 1, 1, 1, 4): (51, (0, 1, 2, 3, 4, 6, 7)),
    (1, 1, 1, 2, 2): (106, (0, 1, 2, 3, 4, 14, 15, 16)),
    (1, 1, 1, 2, 3): (1170, (0, 1, 2, 3, 4, 14, 17, 31, 130, 131, 132, 133, 134, 144, 147)),
    (1, 1, 1, 3, 3): (38, (0, 1, 2, 3, 4, 5)),
    (1, 1, 1, 3, 4): (43, (0, 1, 2, 3, 4, 5)),
    (1, 1, 1, 3, 5): (48, (0, 1, 2, 3, 4, 5)),
    (1, 1, 1, 3, 6): (653, (0, 1, 2, 3, 4, 12, 34, 42, 48, 55)),
    (1, 1, 2, 2, 2): (32, (0, 1, 2, 3, 4, 5)),
    (1, 1, 2, 2, 3): (208, (0, 1, 2, 3, 4, 18, 19, 20, 24)),
    (1, 1, 2, 2, 5): (3622, (0, 1, 2, 3, 4, 19, 22, 28, 50, 300, 301, 302, 303, 304, 319, 322, 330)),
    (1, 1, 2, 2, 6): (52, (0, 1, 2, 3, 4, 5)),
    (1, 1, 2, 3, 3): (401, (0, 1, 2, 3, 4, 8, 37, 38, 39, 40, 41)),
    (1, 1, 2, 3, 4): (420, (0, 1, 2, 3, 4, 23, 35, 37, 39)),
    (1, 1, 2, 3, 7): (61, (0, 1, 2, 3, 4, 5)),
    (1, 1, 2, 4, 4): (50, (0, 1, 2, 3, 4, 5)),
    (1, 1, 2, 4, 7): (80, (0, 1, 2, 3, 4, 6)),
}


def catalog_closed_form(coefficients: CoefficientTuple) -> ClosedForm:
    """ClosedForm from the catalog; KeyError when the tuple is not cataloged."""
    scale, residues = KNOWN_CLOSED_FORMS[coefficients.coeffs]
    return ClosedForm(coefficients.base, scale, residues, coefficients)
