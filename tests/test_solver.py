"""Witness search: soundness, desk-scale completeness against a naive reference."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nonavg import (
    DEFAULT_NODE_BUDGET,
    AvoidanceRule,
    BudgetExhausted,
    CoefficientTuple,
    creates_solution,
    generate,
    relaxed_representation,
    skip_witness,
    verify_solution_free,
    witness_satisfies,
)
from nonavg.solver import _Budget, _iter_assignments, node_cap

D = AvoidanceRule.DISTINCT
N = AvoidanceRule.NOT_ALL_EQUAL


def ref_solution_exists(values, coefficients, rule):
    """Reference check: full enumeration over all position assignments."""
    coeffs = coefficients.coeffs
    d = coefficients.weight
    m = coefficients.m
    pool = sorted(values)
    for assignment in itertools.product(pool, repeat=m - 1):
        total = sum(c * v for c, v in zip(coeffs, assignment))
        q, r = divmod(total, d)
        if r or q not in values:
            continue
        full = assignment + (q,)
        if rule is D and len(set(full)) == m:
            return True
        if rule is N and len(set(full)) >= 2:
            return True
    return False


def ref_creates(ground, candidate, coefficients, rule):
    return ref_solution_exists(set(ground) | {candidate}, coefficients, rule)


@pytest.mark.parametrize(
    "values", [(0, 2, 1), (0, 2), (0, -2, -1), (0, 2, 3)], ids=["valid", "wrong-length", "negative", "unbalanced"]
)
def test_witness_satisfies(values):
    """(0, -2, -1) balances and is distinct, so only its sign rejects it."""
    assert witness_satisfies(values, CoefficientTuple((1, 1)), D) == (values == (0, 2, 1))


def test_unknown_rule_text():
    with pytest.raises(ValueError, match=r"^unknown rule 'sometimes' \(expected distinct or notallequal\)$"):
        AvoidanceRule.from_text("sometimes")


class TestCreatesSolution:
    def test_example_pair_progression(self):
        w = creates_solution([0, 1], 2, CoefficientTuple((1, 1)), D)
        assert w.values == (0, 2, 1)

    def test_example_nine_is_free(self):
        assert creates_solution([0, 1, 3, 4], 9, CoefficientTuple((1, 1)), D) is None

    def test_example_not_all_equal_singleton(self):
        assert creates_solution([0], 1, CoefficientTuple((1, 1, 1)), N) is None

    def test_rejects_candidate_in_ground(self):
        with pytest.raises(ValueError):
            creates_solution([0, 1], 1, CoefficientTuple((1, 1)), D)

    def test_returned_witness_always_satisfies(self):
        e = CoefficientTuple((1, 1, 2))
        w = creates_solution([0, 1, 2, 3], 5, e, D)
        assert w is not None and witness_satisfies(w.values, e, D)
        assert 5 in w.values

    def test_canonical_repeatability(self):
        e = CoefficientTuple((1, 2, 3))
        args = ([0, 2, 5, 7, 11], 13, e, N)
        first = creates_solution(*args)
        for _ in range(3):
            assert creates_solution(*args) == first

    def test_budget_exhaustion_raises(self):
        e = CoefficientTuple.uniform(6)
        ground = list(range(0, 40, 3))
        with pytest.raises(BudgetExhausted):
            creates_solution(ground, 100, e, D, node_budget=5)

    def test_rejects_values_beyond_63_bits(self):
        e = CoefficientTuple((1, 1))
        with pytest.raises(ValueError):
            creates_solution([0, 2 ** 63], 1, e, D)
        with pytest.raises(ValueError):
            creates_solution([0, 1], 2 ** 63, e, D)

    def test_candidate_below_ground_values(self):
        # the candidate need not exceed the ground set
        e = CoefficientTuple((1, 1))
        w = creates_solution([0, 4], 2, e, D)
        assert w.values == (0, 4, 2)
        assert creates_solution([9, 11], 2, e, D) is None


def random_cases(seed, count):
    rng = random.Random(seed)
    tuples = [(1, 1), (1, 1, 1), (1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1), (1, 1, 2, 4), (2, 2, 3)]
    for _ in range(count):
        coeffs = rng.choice(tuples)
        size = rng.randint(1, 12)
        ground = sorted(rng.sample(range(61), size))
        candidate = rng.choice([v for v in range(61) if v not in ground])
        yield CoefficientTuple(coeffs), ground, candidate


@pytest.mark.parametrize("rule", [D, N])
def test_agrees_with_reference_on_solution_free_grounds(rule):
    """Where the ground set is solution-free, the searcher decides exactly."""
    checked = 0
    for e, ground, candidate in random_cases(20260809, 400):
        if ref_solution_exists(set(ground), e, rule):
            continue  # precondition of creates_solution
        got = creates_solution(ground, candidate, e, rule)
        want = ref_creates(ground, candidate, e, rule)
        assert (got is not None) == want, (e, ground, candidate, rule)
        if got is not None:
            assert witness_satisfies(got.values, e, rule)
            assert candidate in got.values
        checked += 1
    assert checked > 150


def test_exhaustive_small_family():
    """Every ground subset of {0..8} of size <= 4, both rules, m=3 and m=4."""
    for coeffs in [(1, 1), (1, 1, 1), (1, 2)]:
        e = CoefficientTuple(coeffs)
        for size in range(5):
            for ground in itertools.combinations(range(9), size):
                for rule in (D, N):
                    if ref_solution_exists(set(ground), e, rule):
                        continue
                    for candidate in range(9):
                        if candidate in ground:
                            continue
                        got = creates_solution(ground, candidate, e, rule)
                        want = ref_creates(ground, candidate, e, rule)
                        assert (got is not None) == want, (coeffs, ground, candidate, rule)


def test_relaxed_example_family_residues():
    """The relaxed witness may repeat a companion as the averaged value, so it
    is no distinct-rule witness."""
    e = CoefficientTuple((1, 1, 1, 1))
    pool = [0, 1, 2, 3, 5, 7, 26, 27, 28, 29, 31]  # family residues minus 13
    relaxed = relaxed_representation(13, pool, e)
    assert relaxed.values == (13, 3, 5, 7, 7)
    assert witness_satisfies(relaxed.values, e, N)
    assert not witness_satisfies(relaxed.values, e, D)


def test_relaxed_matches_reference():
    """Relaxed rule: companions pairwise distinct, averaged value free."""
    rng = random.Random(11)
    e = CoefficientTuple((1, 1, 1, 1))
    for _ in range(150):
        pool = sorted(rng.sample(range(40), rng.randint(3, 10)))
        alpha = rng.choice(pool)
        got = relaxed_representation(alpha, pool, e)
        want = False
        for rest in itertools.combinations(pool, 3):
            total = alpha + sum(rest)
            q, r = divmod(total, 4)
            if r == 0 and q in pool:
                want = True
                break
        assert (got is not None) == want, (pool, alpha)
        if got is not None:
            companions = got.values[1:-1]
            assert len(set(companions)) == len(companions)
            assert alpha + sum(companions) == 4 * got.values[-1]


class TestVerifySolutionFree:
    def test_example_listed_prefix(self):
        e = CoefficientTuple((1, 1))
        assert verify_solution_free([0, 1, 3, 4, 9, 10, 12, 13], e, D) is None

    def test_example_progression(self):
        w = verify_solution_free([0, 1, 2], CoefficientTuple((1, 1)), D)
        assert w.values == (0, 2, 1)

    def test_example_block_structure(self):
        e = CoefficientTuple((1, 1, 1))
        assert verify_solution_free([0, 1, 2, 3, 4, 12, 13, 14, 15, 16], e, D) is None

    @pytest.mark.parametrize("rule", [D, N])
    def test_matches_reference(self, rule):
        rng = random.Random(5)
        for _ in range(250):
            coeffs = rng.choice([(1, 1), (1, 1, 1), (1, 2), (1, 1, 2)])
            e = CoefficientTuple(coeffs)
            vals = sorted(rng.sample(range(30), rng.randint(0, 9)))
            got = verify_solution_free(vals, e, rule)
            assert (got is not None) == ref_solution_exists(set(vals), e, rule)
            if got is not None:
                assert witness_satisfies(got.values, e, rule)
                assert all(v in set(vals) for v in got.values)


# Tuples for the witness digest: catalog rows, the pair tuple, one m=6 row
# and the invalid (2, 2, 3); each with the prefix length generated for it.
DIGEST_TUPLES = [((1, 1), 14), ((1, 2), 12), ((1, 1, 1), 12), ((1, 1, 2), 12),
                 ((1, 1, 2, 4), 10), ((1, 1, 2, 2, 5), 8), ((2, 2, 3), 10)]
# sha256 of every witness in witness_digest_calls, recorded before the
# witness search was rewritten on top of the enumeration kernel.
WITNESS_DIGEST = "85e98e44410a12f698b3ed99481444b11f8029cd992585e59005689fd5beea6d"


def witness_digest_calls():
    """(kind, coefficients, rule, ground, value, seq) for a fixed, seeded list
    of witness searches; ``seq`` is set for a skip_witness call.

    Grounds are generated prefixes and random solution-free sets; the
    values lie above, inside and below each ground, under both rules.
    """
    rng = random.Random(20261018)
    for rule in (D, N):
        for coeffs, terms in DIGEST_TUPLES:
            e = CoefficientTuple(coeffs)
            seq = generate(e, rule, max_terms=terms)
            for value in range(seq.frontier + 8):
                if value not in seq.terms:
                    kind = "inside" if value < seq.frontier else "above"
                    yield kind, e, rule, seq.terms, value, None
                    if kind == "inside":
                        yield "skip", e, rule, seq.terms, value, seq
            for _ in range(3):  # random solution-free grounds, grown one random value at a time
                lo = rng.randint(5, 20)
                ground = []
                for v in rng.sample(range(lo, lo + 30), 30):
                    if len(ground) < 8 and verify_solution_free(ground + [v], e, rule) is None:
                        ground.append(v)
                ground = tuple(sorted(ground))
                for value in sorted(rng.sample([v for v in range(lo + 35) if v not in ground], 8)):
                    yield "random", e, rule, ground, value, None


def test_witness_digest():
    """The canonical witnesses, None included, stay byte for byte the same."""
    lines = []
    for kind, e, rule, ground, value, seq in witness_digest_calls():
        w = skip_witness(seq, value) if seq else creates_solution(ground, value, e, rule)
        if w is not None:
            assert witness_satisfies(w.values, e, rule) and value in w.values
        lines.append(repr((kind, e.coeffs, rule.value, ground, value, w and w.values)))
    assert len(lines) > 1000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WITNESS_DIGEST


def _assignments_by_predicate(slots, lo, hi, pool, used, distinct):
    """The groups and node count of ``_iter_assignments``, from its contract.

    A slot before the last tries, in order (descending for a negative
    coefficient), each pool value v from its floor up for which values in
    [min(pool), max(pool)] on the later slots can still bring the total into
    [lo, hi], one node each; the floor is the value before it, plus one
    under the distinct rule, when the two slots share a coefficient, else
    min(pool).  The last slot costs one node when at most one integer from
    its floor fits the total, looked up in the pool, else one per pool value
    that fits (at least one).  Under the distinct rule values avoid ``used``
    and each other.
    """
    pmin, pmax = pool[0], pool[-1]
    groups, nodes = [], 0

    def walk(i, prefix, acc):
        nonlocal nodes
        c = slots[i]
        floor = prefix[-1] + distinct if i and slots[i - 1] == c else pmin
        rest = slots[i + 1:]
        rmin = sum(min(r * pmin, r * pmax) for r in rest)
        rmax = sum(max(r * pmin, r * pmax) for r in rest)

        def fits(v):
            return v >= floor and lo - rmax <= acc + c * v <= hi - rmin

        def free(v):
            return not (distinct and (v in used or v in prefix))

        if rest:
            for v in sorted(filter(fits, pool), reverse=c < 0):
                nodes += 1
                if free(v):
                    walk(i + 1, prefix + (v,), acc + c * v)
            return
        x0, x1 = sorted(((lo - acc) // c, (hi - acc) // c))
        if len(list(filter(fits, range(x0 - 1, x1 + 2)))) <= 1:
            nodes += 1
            last = [v for v in pool if fits(v) and free(v)]
        else:
            last = list(filter(fits, pool))
            nodes += len(last) or 1
            last = list(filter(free, last))
        if last:
            groups.append((acc, prefix, last))

    walk(0, (), 0)
    return groups, nodes


def _assignments_by_product(slots, lo, hi, pool, used, distinct):
    """Every value tuple that ``_iter_assignments`` must cover, in its order,
    from all of pool^len(slots)."""
    def valid(vals):
        ordered = all(
            a < b if distinct else a <= b for a, b, c, e in zip(vals, vals[1:], slots, slots[1:]) if c == e
        )
        apart = not distinct or (len(set(vals)) == len(vals) and not used & set(vals))
        return ordered and apart and lo <= sum(map(lambda c, v: c * v, slots, vals)) <= hi

    def order(vals):
        return tuple(-v if c < 0 else v for c, v in zip(slots[:-1], vals)) + vals[-1:]

    return sorted(filter(valid, itertools.product(pool, repeat=len(slots))), key=order)


@settings(max_examples=400, deadline=None)
@given(
    pool=st.lists(st.integers(0, 60), min_size=1, max_size=9, unique=True).map(sorted),
    slots=st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3]), min_size=1, max_size=3),
    lo=st.integers(-300, 300),
    width=st.sampled_from([0, 0, 0, 1, 2, 5, 20]),
    used=st.sets(st.integers(0, 60), max_size=3),
    distinct=st.booleans(),
)
def test_one_value_lookup_by_set_or_bisection(pool, slots, lo, width, used, distinct):
    """The one-value lookup, by bisection of the pool, gives the groups and
    the nodes of a reference that walks the slots by the contract's
    predicates and finds the last value in the pool by scanning it; the
    groups cover exactly the valid tuples of all of pool^len(slots)."""
    budget = _Budget(None)
    own_used = set(used) if distinct or used else None
    groups = list(_iter_assignments(tuple(slots), lo, lo + width, pool, own_used, distinct, budget))
    assert own_used == (set(used) if distinct or used else None)
    assert (groups, budget.nodes) == _assignments_by_predicate(slots, lo, lo + width, pool, used, distinct)
    tuples = [prefix + (v,) for _, prefix, last in groups for v in last]
    assert tuples == _assignments_by_product(slots, lo, lo + width, pool, used, distinct)


def test_node_cap():
    """The one reading of a node budget: None is the default, and a negative budget acts as 0."""
    assert node_cap(None) == DEFAULT_NODE_BUDGET
    assert [node_cap(b) for b in (-3, -1, 0, 1, 7)] == [0, 0, 0, 1, 7]
