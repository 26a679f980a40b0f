"""Analytic envelopes for the counting functions and term growth.

Counting grows like n**theta with theta = log(2)/log(base); the bounds here
are the elementary sandwich constants around that power law, evaluated in
64-bit floating point.  Exact counts come from the digit-walk counters and
are attached for comparison.  The Behrend-style density formula is evaluated
as an asymptotic formula value with its vanishing correction dropped, never
as a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .closedform import ClosedForm, count_zero_one_below, zero_one_nth
from .errors import DomainError, Overflow
from .tuples import CoefficientTuple


@dataclass(frozen=True)
class BoundsReport:
    n: int
    exact: int | None
    lower: float
    upper: float
    theta: float
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def count_exponent(base: int) -> float:
    """theta = log 2 / log base."""
    return math.log(2.0) / math.log(base)


def zero_one_count_bounds(coefficients: CoefficientTuple, n: int) -> BoundsReport:
    """(1/2) n^theta <= count < = 2 n^theta, with the exact digit-walk count attached."""
    if n < 1:
        raise ValueError("n must be at least 1")
    base = coefficients.base
    theta = count_exponent(base)
    power = float(n) ** theta
    return BoundsReport(
        n=n,
        exact=count_zero_one_below(coefficients, n),
        lower=0.5 * power,
        upper=2.0 * power,
        theta=theta,
        params={"d": coefficients.weight},
    )


def closed_form_count_bounds(cf: ClosedForm, n: int) -> BoundsReport:
    """|R|/2 (n/c - 1)^theta <= count <= 2|R| (n/c + 1)^theta for n above the scale."""
    if n <= cf.scale:
        raise DomainError("n must exceed the scale")
    theta = count_exponent(cf.base)
    rho = len(cf.residues)
    ratio = n / cf.scale
    return BoundsReport(
        n=n,
        exact=cf.count_below(n),
        lower=rho * 0.5 * (ratio - 1.0) ** theta,
        upper=rho * 2.0 * (ratio + 1.0) ** theta,
        theta=theta,
        params={"d": cf.base - 1, "c": cf.scale, "r_count": rho},
    )


def term_growth_bounds(subject, n: int) -> BoundsReport:
    """Bounds for the n-th term, by inverting the counting sandwich.

    For a coefficient tuple: n^kappa / base <= a_n <= base * n^kappa with
    kappa = log2(base).  For a closed form the residue count and scale enter:
    c*(n/(2|R|))^kappa - c <= a_n <= c*(2n/|R|)^kappa + c.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(subject, CoefficientTuple):
        base = subject.base
        kappa = math.log2(base)
        power = float(n) ** kappa
        try:
            exact = zero_one_nth(subject, n)
        except Overflow:
            exact = None
        return BoundsReport(
            n=n,
            exact=exact,
            lower=power / base,
            upper=power * base,
            theta=kappa,
            params={"d": subject.weight},
        )
    cf = subject
    kappa = math.log2(cf.base)
    rho = len(cf.residues)
    try:
        exact = cf.nth(n)
    except Overflow:
        exact = None
    return BoundsReport(
        n=n,
        exact=exact,
        lower=cf.scale * (n / (2.0 * rho)) ** kappa - cf.scale,
        upper=cf.scale * (2.0 * n / rho) ** kappa + cf.scale,
        theta=kappa,
        params={"d": cf.base - 1, "c": cf.scale, "r_count": rho},
    )


def behrend_lower_bound(d: int, n) -> float:
    """Asymptotic formula value gamma1 * n * exp(-gamma2 sqrt(ln n) - ln(ln n)/2).

    gamma1 = d^2 sqrt(ln(d)/2), gamma2 = 2 sqrt(2 ln d).  The vanishing
    correction factor is dropped; treat the output as a formula evaluation,
    not a certified bound.
    """
    if d < 2:
        raise DomainError("d must be at least 2")
    if n <= d * d:
        raise DomainError("n must exceed d^2")
    gamma1 = d * d * math.sqrt(0.5 * math.log(d))
    gamma2 = 2.0 * math.sqrt(2.0 * math.log(d))
    ln_n = math.log(n)
    return gamma1 * n * math.exp(-gamma2 * math.sqrt(ln_n) - 0.5 * math.log(ln_n))


# Reference values reproduced by the worked example at n = 10^10.
REFERENCE_EXAMPLE_N = 10 ** 10
REFERENCE_EXAMPLE = {"h_lower": 15360, "f_lower": 10133, "behrend": 3187}


def compare_bound_readings(n) -> dict:
    """Recompute the worked bound example under both parameter readings.

    Reading "base4-literal" uses the all-ones tuple on four variables
    (weight 3, scale 12, five residues); reading "base5" uses the tuple
    1,1,2 (weight 4) with scale 16 and five residues.  Each reading is the
    zero-one bounds of its tuple and the closed-form bounds of its scale and
    residues 0..4, so n must exceed both scales.  The report flags which
    reading lands on the reference values.
    """
    readings = []
    for label, coeffs, scale in (("base4-literal", (1, 1, 1), 12), ("base5", (1, 1, 2), 16)):
        coefficients = CoefficientTuple(coeffs)
        d = coefficients.weight
        f = zero_one_count_bounds(coefficients, n)
        h = closed_form_count_bounds(ClosedForm(d + 1, scale, range(5)), n)
        readings.append({
            "label": label,
            "d": d,
            "c": scale,
            "r_count": h.params["r_count"],
            "theta": f.theta,
            "f_lower": f.lower,
            "f_lower_ceil": math.ceil(f.lower),
            "h_lower": h.lower,
            "h_lower_ceil": math.ceil(h.lower),
            "behrend": behrend_lower_bound(d, n) if n > d * d else None,
        })

    report = {"n": n, "readings": readings}
    if n == REFERENCE_EXAMPLE_N:
        ref = REFERENCE_EXAMPLE

        def close(value, target, rel):
            return value is not None and abs(value - target) <= rel * target

        report["reference"] = dict(ref)
        report["matches"] = {
            "h": [
                r["label"]
                for r in readings
                if close(r["h_lower_ceil"], ref["h_lower"], 0.005)
            ],
            "f": [
                r["label"]
                for r in readings
                if abs(r["f_lower_ceil"] - ref["f_lower"]) <= 2
            ],
            "behrend": [
                r["label"]
                for r in readings
                if close(r["behrend"], ref["behrend"], 0.01) and r["d"] == 4
            ],
        }
    return report
