"""Reference arithmetic and output checkers for the benchmark.

Nothing here imports ``nonavg``: every expected value is recomputed from the
paper's statements with the benchmark's own code, so a fast wrong answer from
the package cannot pass.  Each checker takes plain data (lists, dicts, text)
and returns ``None`` when the output is right, or a one-line reason.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

# The paper's catalog of closed forms: coefficients -> (scale c, residues R).
# Members of the distinct-rule sequence are c*v + r, with v ranging over the
# integers whose base-(d+1) digits are all 0 or 1 and r over R.
CATALOG = {
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


class Form:
    """The set c*v + r of the paper; the zero-one family is c=1, R={0}."""

    def __init__(self, coeffs, scale=1, residues=(0,)):
        self.coeffs = tuple(coeffs)
        self.base = sum(coeffs) + 1
        self.scale = scale
        self.residues = tuple(residues)

    @classmethod
    def catalog(cls, coeffs):
        scale, residues = CATALOG[tuple(coeffs)]
        return cls(coeffs, scale, residues)

    def nth(self, k):
        """k-th member (0-indexed): the binary digits of k // |R| read in the base."""
        q, s = divmod(k, len(self.residues))
        v, place = 0, 1
        for bit in reversed(bin(q)[2:]):
            v += place * int(bit)
            place *= self.base
        return self.scale * v + self.residues[s]

    def prefix(self, n):
        return [self.nth(k) for k in range(n)]

    def count_below(self, n):
        """Members below n, by bisection over ``nth`` (which is increasing)."""
        hi = 1
        while self.nth(hi) < n:
            hi *= 2
        lo = 0  # invariant: nth(lo - 1) < n <= nth(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.nth(mid) < n:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def count_below_by_enumeration(self, n):
        k = 0
        while self.nth(k) < n:
            k += 1
        return k

    def contains(self, x):
        return x >= 0 and self.nth(self.count_below(x)) == x


def scale_identity(coeffs, residues):
    """The paper's scale: 1 + d*max(R) - sum over k = 2..m-1 of d_k*(m-k-1)."""
    m = len(coeffs) + 1
    d = sum(coeffs)
    return 1 + d * max(residues) - sum(coeffs[k - 1] * (m - k - 1) for k in range(2, m))


def find_solution(coeffs, terms, distinct):
    """A solution of sum d_i x_i = d x_m inside ``terms``, by exhaustive search, or None."""
    d = sum(coeffs)
    pool = sorted(set(terms))
    members = set(pool)
    groups = sorted(Counter(coeffs).items())
    choose = combinations if distinct else combinations_with_replacement
    for picks in product(*(choose(pool, count) for _, count in groups)):
        total = sum(c * sum(pick) for (c, _), pick in zip(groups, picks))
        x_m, rem = divmod(total, d)
        if rem or x_m not in members:
            continue
        values = [v for pick in picks for v in pick] + [x_m]
        if distinct and len(set(values)) == len(values):
            return values
        if not distinct and len(set(values)) > 1:
            return values
    return None


def witness_error(coeffs, distinct, witness, value, ground):
    """Why ``witness`` does not show that ``value`` is blocked by ``ground``, or None."""
    if witness is None:
        return f"no witness for skipped value {value}"
    values = list(witness)
    if len(values) != len(coeffs) + 1:
        return f"witness {values} has the wrong length"
    if value not in values:
        return f"witness {values} does not use {value}"
    if any(v != value and v not in ground for v in values):
        return f"witness {values} uses a value outside the prefix"
    if sum(c * v for c, v in zip(coeffs, values)) != sum(coeffs) * values[-1]:
        return f"witness {values} does not solve the equation"
    if distinct and len(set(values)) != len(values):
        return f"witness {values} repeats a value"
    if not distinct and len(set(values)) == 1:
        return f"witness {values} is the trivial solution"
    return None


def prefix_error(coeffs, terms, expected):
    if list(terms) != list(expected):
        bad = next((i for i, (a, b) in enumerate(zip(terms, expected)) if a != b),
                   min(len(terms), len(expected)))
        return (f"{coeffs} prefix differs from the closed form at index {bad} "
                f"({len(terms)} terms, {len(expected)} expected)")
    return None


def free_prefix_error(coeffs, terms, max_terms, distinct):
    """A prefix must have the asked length, increase from 0 and hold no solution."""
    terms = list(terms)
    if len(terms) != max_terms:
        return f"{coeffs} prefix has {len(terms)} terms, {max_terms} asked"
    if terms[:1] != [0] or any(a >= b for a, b in zip(terms, terms[1:])):
        return f"{coeffs} prefix is not increasing from 0"
    solution = find_solution(coeffs, terms, distinct)
    if solution is not None:
        return f"{coeffs} prefix holds the solution {solution}"
    return None


def report_error(coeffs, report):
    """Recheck a discovery report (the JSON form) against the catalog row.

    Every (offset, slack) cell must hold a witness that the benchmark's own
    arithmetic accepts: the slack subset H sums to j, all values are residues,
    r1 + sum d_p r_p = d r_m, and values are pairwise distinct inside H plus
    the averaged side and outside H.
    """
    coeffs = tuple(coeffs)
    scale, residues = CATALOG[coeffs]
    if report.get("c") != scale or list(report.get("R", ())) != list(residues):
        return (f"{coeffs} discovered c={report.get('c')} R={report.get('R')}, "
                f"catalog c={scale} R={list(residues)}")
    want = scale_identity(coeffs, residues)
    cond_i = report.get("cond_i", {})
    if cond_i.get("lhs") != scale or cond_i.get("rhs") != want or want != scale:
        return f"{coeffs} scale identity reads {cond_i}, recomputed {want}"
    if report.get("overall") is not True:
        return f"{coeffs} report is not marked as passing"
    m = len(coeffs) + 1
    d = sum(coeffs)
    positions = range(2, m)
    rset = set(residues)
    seen = set()
    for cell in report.get("cond_ii", ()):
        r1, j, subset, values = cell["r1"], cell["j"], cell["H"], cell["witness"]
        seen.add((r1, j))
        where = f"{coeffs} cell r1={r1} j={j}"
        if subset is None or values is None or len(values) != m - 1:
            return f"{where} has no witness"
        if any(v not in rset for v in values):
            return f"{where} uses a non-residue"
        if not set(subset) <= set(positions) or sum(coeffs[p - 1] for p in subset) != j:
            return f"{where} subset {subset} does not sum to the slack"
        at = dict(zip(positions, values))
        r_m = values[-1]
        if r1 + sum(coeffs[p - 1] * at[p] for p in positions) != d * r_m:
            return f"{where} witness does not solve the equation"
        inside = [at[p] for p in subset] + [r_m]
        outside = [at[p] for p in positions if p not in subset]
        if len(set(inside)) != len(inside) or len(set(outside)) != len(outside):
            return f"{where} witness repeats a value"
    expected_cells = {(r1, j) for r1 in range(scale) for j in range(d - 1)}
    if seen != expected_cells or len(report["cond_ii"]) != len(expected_cells):
        return f"{coeffs} report covers {len(seen)} cells, {len(expected_cells)} expected"
    return None


def queries_error(form, method, args, results):
    """Recheck a batch of ClosedForm / zero-one queries against the own arithmetic."""
    if len(results) != len(args):
        return f"{method} batch returned {len(results)} results for {len(args)} queries"
    for arg, got in zip(args, results):
        if method == "count_below":
            want = form.count_below(arg)
        elif method == "nth":
            want = form.nth(arg)
        else:
            want = form.contains(arg)
        if got != want:
            return f"{method}({arg}) on c={form.scale} R={form.residues} gave {got}, expected {want}"
    return None


def bounds_error(form, kind, n, report):
    """Recheck one bounds report (its JSON form): exact value and sandwich."""
    if kind == "terms":
        want = form.nth(n)
        theta = math.log2(form.base)
    else:
        want = form.count_below(n)
        theta = math.log(2.0) / math.log(form.base)
    exact = report.get("exact")
    # The zero-one count report may withhold exact counts above its cap.
    if exact is None and kind == "count" and form.scale == 1 and n > 10 ** 12:
        exact = want
    where = f"{kind} bounds at n={n} for c={form.scale} R={form.residues}"
    if report.get("n") != n or exact != want:
        return f"{where} report exact={report.get('exact')}, expected {want}"
    if abs(report.get("theta", 0.0) - theta) > 1e-12 * theta:
        return f"{where} exponent {report.get('theta')}, expected {theta}"
    if not report["lower"] <= want <= report["upper"]:
        return f"{where} sandwich [{report['lower']}, {report['upper']}] misses {want}"
    return None


def step_error(form, max_terms, stdout, cache_text, cache_len):
    """A ``generate --format json --cache`` step must print what the same command
    prints without a cache: the first ``max_terms`` terms, with the last one as
    frontier.  The cache must then hold a prefix of ``cache_len`` terms (any
    length of at least ``max_terms`` when ``cache_len`` is None)."""
    try:
        printed = json.loads(stdout)
    except ValueError:
        return "step output is not JSON"
    expected = form.prefix(max_terms)
    terms = printed.get("terms")
    if terms != expected:
        return f"step asked for {max_terms} terms and printed {len(terms or ())} that differ from the prefix"
    if printed.get("frontier") != expected[-1] or printed.get("rule") != "distinct":
        return f"step printed frontier {printed.get('frontier')}, expected {expected[-1]}"
    lines = cache_text.splitlines()
    cached = lines[1:]
    if len(cached) < max_terms or (cache_len is not None and len(cached) != cache_len):
        return f"cache holds {len(cached)} terms after a {max_terms}-term step"
    header = f"# tuple={','.join(map(str, form.coeffs))} rule=distinct frontier={form.nth(len(cached) - 1)}"
    if lines[0] != header or cached != [str(t) for t in form.prefix(len(cached))]:
        return "cache file does not hold a prefix of the sequence"
    return None


def verify_lines_error(stdout, count):
    lines = stdout.splitlines()
    if len(lines) != count or not all(line.startswith("PASS ") for line in lines):
        return f"verify printed {lines}, {count} PASS lines expected"
    return None
