"""Coefficient tuples for weighted-average equations.

A tuple ``E = (d_1, ..., d_{m-1})`` of positive integers, kept in
nondecreasing order, defines the equation

    d_1*x_1 + ... + d_{m-1}*x_{m-1} = d*x_m,      d = d_1 + ... + d_{m-1}.

This module owns the tuple representation, the validity test (two
equivalent routes, kept independent on purpose), the grouping of equal
coefficients, the subset-sum tables used by the closed-form machinery, and
the strict ``key=value`` field syntax of the cache header and closed-form
text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from .errors import InvalidTuple

# Inputs must stay below 63 bits so weighted sums cannot overflow fixed-width
# consumers of the file formats.
VALUE_LIMIT = 1 << 63


@dataclass(frozen=True, repr=False)
class CoefficientTuple:
    """Immutable nondecreasing tuple of positive coefficients.

    Constructors accept any ordering and sort it; sortedness is a
    normalization convention, not a semantic restriction.  Equality and
    hash go by the coefficients.
    """

    coeffs: tuple
    weight: int = field(init=False, compare=False)

    def __post_init__(self):
        values = tuple(sorted(self.coeffs))
        if len(values) < 2:
            raise InvalidTuple("need at least two coefficients")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidTuple(f"coefficients must be integers, got {v!r}")
            if v <= 0:
                raise InvalidTuple(f"coefficients must be positive, got {v}")
            if v >= VALUE_LIMIT:
                raise InvalidTuple(f"coefficient {v} exceeds the 63-bit limit")
        total = sum(values)
        if total >= VALUE_LIMIT:
            raise InvalidTuple("total weight exceeds the 63-bit limit")
        object.__setattr__(self, "coeffs", values)
        object.__setattr__(self, "weight", total)

    @property
    def m(self) -> int:
        """Number of variables in the equation (one more than len(coeffs))."""
        return len(self.coeffs) + 1

    @property
    def base(self) -> int:
        """Digit base used by the closed forms: weight + 1."""
        return self.weight + 1

    @classmethod
    def uniform(cls, m: int) -> "CoefficientTuple":
        """The all-ones tuple with m-1 entries (plain averages of m-1 terms)."""
        if m < 3:
            raise InvalidTuple("uniform tuples need m >= 3")
        return cls((1,) * (m - 1))

    @classmethod
    def from_text(cls, text: str) -> "CoefficientTuple":
        """Parse the comma-separated syntax used by the CLI, e.g. ``1,1,2,3``."""
        parts = [p.strip() for p in text.split(",")]
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise InvalidTuple(f"cannot parse coefficient list {text!r}") from exc
        return cls(values)

    def text(self) -> str:
        return ",".join(str(v) for v in self.coeffs)

    def __repr__(self):
        return f"CoefficientTuple({self.text()})"


def parse_fields(text: str, what: str) -> dict:
    """The whitespace-separated ``key=value`` parts of text as a dict.

    A part without ``=`` or a key given twice is a ValueError whose message
    starts with ``what``, such as "cache header" or "closed form".
    """
    fields = {}
    for part in text.split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"{what} field {part!r} lacks '='")
        if key in fields:
            raise ValueError(f"{what} repeats {key!r}")
        fields[key] = value
    return fields


@dataclass(frozen=True)
class SubsetSumTable:
    """For each j in [0, d-1], a subset of positions {2..m-1} whose coefficients sum to j.

    Positions are 1-based to match the equation's variable numbering.
    """

    coefficients: CoefficientTuple
    entries: dict

    def check(self) -> bool:
        coeffs = self.coefficients.coeffs
        for j, subset in self.entries.items():
            if sum(coeffs[k - 1] for k in subset) != j:
                return False
        return True


def weight(coefficients: CoefficientTuple) -> int:
    """Sum of the coefficients."""
    return coefficients.weight


def is_valid(coefficients: CoefficientTuple) -> bool:
    """Direct validity test: d_1 = 1 and each entry at most the sum of its predecessors."""
    c = coefficients.coeffs
    if c[0] != 1:
        return False
    total = c[0]
    for v in c[1:]:
        if v > total:
            return False
        total += v
    return True


def require_valid(coefficients: CoefficientTuple) -> None:
    """Raise InvalidTuple unless the tuple is valid."""
    if not is_valid(coefficients):
        raise InvalidTuple(f"{coefficients!r} is not valid")


def coefficient_groups(coeffs):
    """Runs of equal coefficients as (coefficient, count) pairs, in order."""
    return [(c, len(list(run))) for c, run in groupby(coeffs)]


def _suffix_reach(coeffs_tail):
    """Bitmask per suffix: reach[i] has bit s set iff positions i.. can sum to s."""
    n = len(coeffs_tail)
    reach = [0] * (n + 1)
    reach[n] = 1
    for i in range(n - 1, -1, -1):
        r = reach[i + 1]
        reach[i] = r | (r << coeffs_tail[i])
    return reach


def is_valid_by_cover(coefficients: CoefficientTuple) -> bool:
    """Independent validity test: every j in [0, d-1] is a subset sum of d_2..d_{m-1}."""
    c = coefficients.coeffs
    d = coefficients.weight
    reach = _suffix_reach(c[1:])[0]
    want = (1 << d) - 1
    return reach & want == want


def subset_sum_table(coefficients: CoefficientTuple) -> SubsetSumTable:
    """Build the total table H_0..H_{d-1} for a valid tuple.

    For each target the lexicographically smallest index set is stored
    (positions taken greedily from the left while the remainder stays
    reachable), so tables are reproducible across runs.
    """
    require_valid(coefficients)
    c = coefficients.coeffs
    d = coefficients.weight
    tail = c[1:]  # coefficients at positions 2..m-1
    reach = _suffix_reach(tail)
    entries = {}
    for j in range(d):
        subset = []
        t = j
        i = 0
        while t:
            ci = tail[i]
            if t >= ci and (reach[i + 1] >> (t - ci)) & 1:
                subset.append(i + 2)  # back to 1-based position
                t -= ci
            i += 1
        entries[j] = frozenset(subset)
    return SubsetSumTable(coefficients, entries)
