"""Counting bounds, term growth, and the density formula evaluations."""

import math

import pytest

from nonavg import (
    ClosedForm,
    CoefficientTuple,
    DomainError,
    behrend_lower_bound,
    closed_form_count_bounds,
    compare_bound_readings,
    count_zero_one_below,
    term_growth_bounds,
    zero_one_contains,
    zero_one_count_bounds,
)

E3 = CoefficientTuple((1, 1))
E4 = CoefficientTuple((1, 1, 1))
CF12 = ClosedForm(4, 12, range(5), E4)


class TestZeroOneCountBounds:
    def test_example_power(self):
        rep = zero_one_count_bounds(E3, 81)
        assert rep.exact == 16
        assert rep.lower == pytest.approx(8.0)
        assert rep.upper == pytest.approx(32.0)

    def test_example_unit(self):
        rep = zero_one_count_bounds(E3, 1)
        assert (rep.lower, rep.exact, rep.upper) == (pytest.approx(0.5), 1, pytest.approx(2.0))

    def test_example_40(self):
        rep = zero_one_count_bounds(E3, 40)
        assert rep.exact == 15
        assert rep.lower < 15 < rep.upper
        assert rep.lower == pytest.approx(0.5 * 40 ** rep.theta)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            zero_one_count_bounds(E3, 0)


class TestClosedFormCountBounds:
    def test_example_48(self):
        rep = closed_form_count_bounds(CF12, 48)
        assert rep.exact == 10
        assert rep.lower == pytest.approx(5 * 0.5 * math.sqrt(3))
        assert rep.upper == pytest.approx(5 * 2 * math.sqrt(5))

    def test_example_1e10(self):
        rep = closed_form_count_bounds(CF12, 10 ** 10)
        assert rep.exact == 163840
        assert rep.lower == pytest.approx(72168.78, rel=1e-4)

    def test_degenerate_matches_zero_one_count(self):
        cf = ClosedForm(3, 1, [0], E3)
        rep = closed_form_count_bounds(cf, 81)
        assert rep.exact == zero_one_count_bounds(E3, 81).exact == 16
        assert rep.lower <= rep.exact <= rep.upper

    def test_requires_n_above_scale(self):
        with pytest.raises(DomainError):
            closed_form_count_bounds(CF12, 12)


class TestTermGrowth:
    def test_example_pair_tuple(self):
        rep = term_growth_bounds(E3, 4)
        assert rep.exact == 9
        assert rep.lower == pytest.approx(9.0 / 3.0)
        assert rep.upper == pytest.approx(9.0 * 3.0)

    def test_example_unit(self):
        rep = term_growth_bounds(E3, 1)
        assert rep.exact == 1
        assert rep.lower <= 1 <= rep.upper

    def test_example_closed_form(self):
        rep = term_growth_bounds(CF12, 12)
        assert rep.exact == 50  # 12 * (binary 10 read in base 4) + 2
        assert rep.lower <= rep.exact <= rep.upper

    @pytest.mark.parametrize("subject", [E3, CF12], ids=["tuple", "closed-form"])
    def test_rejects_n_below_one(self, subject):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            term_growth_bounds(subject, 0)

    @pytest.mark.parametrize("subject", [E3, CF12], ids=["tuple", "closed-form"])
    def test_exact_is_none_past_63_bits(self, subject):
        rep = term_growth_bounds(subject, 1 << 45)
        assert rep.exact is None and 0 < rep.lower < rep.upper

    def test_sandwich_along_sequence(self):
        for n in (1, 2, 7, 30, 100, 500):
            rep = term_growth_bounds(E3, n)
            assert rep.lower <= rep.exact <= rep.upper
            cf_rep = term_growth_bounds(CF12, n)
            assert cf_rep.lower <= cf_rep.exact <= cf_rep.upper


class TestBehrend:
    def test_reference_point(self):
        value = behrend_lower_bound(4, 10 ** 10)
        assert value == pytest.approx(3187, rel=0.01)

    def test_smoke_small(self):
        assert 0 < behrend_lower_bound(2, 10 ** 3) < 10 ** 3

    def test_monotone_in_n(self):
        prev = 0.0
        for k in range(3, 12):
            value = behrend_lower_bound(4, 10 ** k)
            assert value > prev
            prev = value

    def test_monotone_dense_grid(self):
        values = [behrend_lower_bound(3, n) for n in range(100, 20000, 137)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            behrend_lower_bound(4, 16)
        with pytest.raises(DomainError):
            behrend_lower_bound(1, 100)


class TestReadingComparison:
    def test_reference_reproduction(self):
        report = compare_bound_readings(10 ** 10)
        by_label = {r["label"]: r for r in report["readings"]}
        base5 = by_label["base5"]
        assert base5["f_lower_ceil"] == 10133
        assert abs(base5["h_lower_ceil"] - 15360) <= 0.005 * 15360
        assert base5["behrend"] == pytest.approx(3187, rel=0.01)
        literal = by_label["base4-literal"]
        assert literal["f_lower_ceil"] == 50000
        assert literal["h_lower_ceil"] == 72169
        assert report["matches"]["h"] == ["base5"]
        assert report["matches"]["f"] == ["base5"]
        assert report["matches"]["behrend"] == ["base5"]

    def test_other_n_has_no_reference_block(self):
        report = compare_bound_readings(10 ** 6)
        assert "matches" not in report
        assert len(report["readings"]) == 2


SANDWICH_SUBJECTS = [
    ((1, 1), ClosedForm(3, 1, [0])),
    ((1, 1, 1), ClosedForm(4, 12, range(5))),
    ((1, 1, 2), ClosedForm(5, 16, range(5))),
]


def test_sandwich_over_decades():
    for coeffs, cf in SANDWICH_SUBJECTS:
        e = CoefficientTuple(coeffs)
        for k in range(1, 11):
            n = 10 ** k
            rep = zero_one_count_bounds(e, n)
            assert rep.lower <= rep.exact <= rep.upper, (coeffs, n)
            if n > cf.scale:
                hrep = closed_form_count_bounds(cf, n)
                assert hrep.lower <= hrep.exact <= hrep.upper, (coeffs, n)


def test_exact_counts_match_enumeration_to_1e5():
    for coeffs, cf in SANDWICH_SUBJECTS:
        e = CoefficientTuple(coeffs)
        members = [x for x in range(10 ** 5) if zero_one_contains(e, x)]
        for n in (10, 100, 1000, 10 ** 4, 10 ** 5):
            assert count_zero_one_below(e, n) == sum(1 for v in members if v < n)
        cf_members = []
        k = 0
        while True:
            v = cf.nth(k)
            if v >= 10 ** 5:
                break
            cf_members.append(v)
            k += 1
        for n in (10, 100, 1000, 10 ** 4, 10 ** 5):
            assert cf.count_below(n) == sum(1 for v in cf_members if v < n)


def test_report_json_shape():
    rep = zero_one_count_bounds(E3, 81)
    payload = rep.to_json_dict()
    assert set(payload) == {"n", "exact", "lower", "upper", "theta", "params"}
    assert payload["params"] == {"d": 2}
