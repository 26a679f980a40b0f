"""Coefficient tuple representation, validity routes, and subset-sum tables."""

import itertools

import pytest
from hypothesis import given, strategies as st

from nonavg import (
    ClosedForm,
    CoefficientTuple,
    InvalidTuple,
    SubsetSumTable,
    check_residue_completeness,
    check_scale_identity,
    count_zero_one_below,
    count_zero_one_below_dp,
    discover_closed_form,
    is_valid,
    is_valid_by_cover,
    subset_sum_table,
    weight,
    zero_one_contains,
    zero_one_nth,
)
from nonavg.closedform import zero_one_prefix


def brute_subset_sums(values):
    """Oracle: every subset sum of the given multiset, by full enumeration."""
    sums = set()
    for k in range(len(values) + 1):
        for combo in itertools.combinations(range(len(values)), k):
            sums.add(sum(values[i] for i in combo))
    return sums


class TestConstruction:
    def test_sorts_input(self):
        assert CoefficientTuple((3, 1, 2)).coeffs == (1, 2, 3)

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6))
    def test_any_permutation_normalizes_identically(self, values):
        base = CoefficientTuple(values)
        for perm in itertools.islice(itertools.permutations(values), 24):
            assert CoefficientTuple(perm).coeffs == base.coeffs

    @pytest.mark.parametrize("bad", [(), (1,), (0, 1), (-1, 2), (1, 2 ** 63), (1, 1.5)])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidTuple):
            CoefficientTuple(bad)

    def test_rejects_huge_weight(self):
        with pytest.raises(InvalidTuple):
            CoefficientTuple((2 ** 62, 2 ** 62))

    def test_text_round_trip(self):
        e = CoefficientTuple.from_text("1,1,2,3")
        assert e.coeffs == (1, 1, 2, 3)
        assert CoefficientTuple.from_text(e.text()) == e

    def test_uniform(self):
        assert CoefficientTuple.uniform(5).coeffs == (1, 1, 1, 1)

    def test_fields_cannot_be_assigned(self):
        e = CoefficientTuple((1, 1, 2))
        for name in ("coeffs", "weight", "other"):
            with pytest.raises(AttributeError):
                setattr(e, name, (1, 1))
        assert e.coeffs == (1, 1, 2) and e.weight == 4

    def test_equal_tuples_hash_equal(self):
        a, b = CoefficientTuple((2, 1, 1)), CoefficientTuple([1, 1, 2])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != CoefficientTuple((1, 1, 1)) and a != (1, 1, 2)

    def test_repr(self):
        assert repr(CoefficientTuple((2, 1, 1))) == "CoefficientTuple(1,1,2)"

    def test_uniform_needs_three_terms(self):
        with pytest.raises(InvalidTuple, match="uniform tuples need m >= 3"):
            CoefficientTuple.uniform(2)


class TestWeight:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [((1, 1), 2), ((1, 1, 2, 4, 8), 16), ((1, 1, 1), 3)],
    )
    def test_examples(self, coeffs, expected):
        assert weight(CoefficientTuple(coeffs)) == expected


class TestValidity:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [((1, 1, 2, 4, 8), True), ((1, 1, 3), False), ((1, 1), True)],
    )
    def test_examples(self, coeffs, expected):
        assert is_valid(CoefficientTuple(coeffs)) is expected

    @pytest.mark.parametrize(
        "coeffs,expected",
        [((1, 1, 3), False), ((1, 1, 2, 4, 8), True), ((1, 1), True)],
    )
    def test_cover_examples(self, coeffs, expected):
        assert is_valid_by_cover(CoefficientTuple(coeffs)) is expected

    def test_cover_route_matches_brute_force(self):
        # j=2 is not a subset sum of {1, 3}
        e = CoefficientTuple((1, 1, 3))
        sums = brute_subset_sums(e.coeffs[1:])
        assert 2 not in sums
        assert not is_valid_by_cover(e)


def nondecreasing_tuples(max_len, max_entry):
    for length in range(2, max_len + 1):
        yield from itertools.combinations_with_replacement(range(1, max_entry + 1), length)


def test_validity_routes_agree_exhaustively():
    """Both validity routes agree on every tuple with entries <= 8, length <= 6."""
    checked = 0
    for coeffs in nondecreasing_tuples(6, 8):
        e = CoefficientTuple(coeffs)
        assert is_valid(e) == is_valid_by_cover(e), coeffs
        checked += 1
    assert checked > 2500


def test_tables_sound_exhaustively():
    for coeffs in nondecreasing_tuples(6, 8):
        e = CoefficientTuple(coeffs)
        if not is_valid(e):
            continue
        table = subset_sum_table(e)
        d = e.weight
        assert sorted(table.entries) == list(range(d))
        for j, subset in table.entries.items():
            assert sum(e.coeffs[k - 1] for k in subset) == j
            assert all(2 <= k <= e.m - 1 for k in subset)


class TestSubsetSumTable:
    def test_example_1_1_1(self):
        table = subset_sum_table(CoefficientTuple((1, 1, 1)))
        assert table.entries == {0: frozenset(), 1: frozenset({2}), 2: frozenset({2, 3})}

    def test_example_1_1(self):
        table = subset_sum_table(CoefficientTuple((1, 1)))
        assert table.entries == {0: frozenset(), 1: frozenset({2})}

    def test_example_1_1_2(self):
        table = subset_sum_table(CoefficientTuple((1, 1, 2)))
        assert table.entries == {
            0: frozenset(),
            1: frozenset({2}),
            2: frozenset({3}),
            3: frozenset({2, 3}),
        }

    def test_rejects_invalid(self):
        with pytest.raises(InvalidTuple):
            subset_sum_table(CoefficientTuple((1, 1, 3)))

    def test_deterministic(self):
        e = CoefficientTuple((1, 1, 2, 4))
        assert subset_sum_table(e).entries == subset_sum_table(e).entries

    def test_check_finds_a_wrong_entry(self):
        e = CoefficientTuple((1, 1, 2))
        table = subset_sum_table(e)
        assert table.check()
        assert not SubsetSumTable(e, {**table.entries, 2: frozenset({2})}).check()


def test_every_validity_gate_raises_one_error():
    """Each function that needs a valid tuple rejects (1,1,3) with the same message."""
    bad = CoefficientTuple((1, 1, 3))
    calls = [
        lambda: subset_sum_table(bad),
        lambda: zero_one_nth(bad, 1),
        lambda: list(zero_one_prefix(bad, 1)),
        lambda: zero_one_contains(bad, 1),
        lambda: count_zero_one_below(bad, 5),
        lambda: count_zero_one_below_dp(bad, 5),
        lambda: ClosedForm(6, 1, [0], bad),
        lambda: check_scale_identity(bad, (0,), 1),
        lambda: check_residue_completeness(bad, (0,), 1),
        lambda: discover_closed_form(bad),
    ]
    for call in calls:
        with pytest.raises(InvalidTuple, match=r"^CoefficientTuple\(1,1,3\) is not valid$"):
            call()
