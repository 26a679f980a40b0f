"""Greedy generation vs the naive oracle, resumability, and cache files."""

import hashlib
import os
from itertools import chain, count

import pytest
from hypothesis import given, settings, strategies as st

from nonavg import (
    AvoidanceRule,
    BudgetExhausted,
    CoefficientTuple,
    catalog_closed_form,
    creates_solution,
    extend,
    generate,
    naive_generate,
    read_cache,
    skip_witness,
    verify_solution_free,
    witness_satisfies,
    write_cache,
    zero_one_contains,
)
from nonavg.greedy import GreedySequence, Sieve, _parse_body, rendered
from nonavg.theorems import KNOWN_CLOSED_FORMS

D = AvoidanceRule.DISTINCT
N = AvoidanceRule.NOT_ALL_EQUAL

PAIR_PREFIX = (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40, 81)


class TestGenerate:
    def test_pair_tuple_17_terms(self):
        seq = generate(CoefficientTuple((1, 1)), D, max_terms=17)
        assert seq.terms == PAIR_PREFIX
        assert seq.frontier == 81

    def test_triple_tuple_10_terms(self):
        seq = generate(CoefficientTuple((1, 1, 1)), D, max_terms=10)
        assert seq.terms == (0, 1, 2, 3, 4, 12, 13, 14, 15, 16)

    def test_not_all_equal_pair_tuple(self):
        seq = generate(CoefficientTuple((1, 1)), N, max_terms=8)
        assert seq.terms == (0, 1, 3, 4, 9, 10, 12, 13)

    def test_max_value_zero(self):
        seq = generate(CoefficientTuple((1, 1)), D, max_value=0)
        assert seq.terms == (0,)
        assert seq.frontier == 0

    def test_needs_a_cap(self):
        with pytest.raises(ValueError):
            generate(CoefficientTuple((1, 1)), D)

    @pytest.mark.parametrize("rule", [D, N])
    @pytest.mark.parametrize(
        "caps, message",
        [
            ({"max_value": 2.5}, "max_value must be an integer, got 2.5"),
            ({"max_terms": 3.0}, "max_terms must be an integer, got 3.0"),
            ({"max_terms": 0, "max_value": 9.0}, "max_value must be an integer, got 9.0"),
        ],
    )
    @pytest.mark.parametrize("resume", [False, True])
    def test_float_cap_raises(self, rule, caps, message, resume):
        """A float cap is a TypeError, not a frontier of 2.5 that no cache file can hold."""
        e = CoefficientTuple((1, 1))
        with pytest.raises(TypeError, match=f"^{message}$"):
            if resume:
                extend(generate(e, rule, max_terms=2), **caps)
            else:
                generate(e, rule, **caps)

    def test_budget_exhaustion_carries_partial(self):
        e = CoefficientTuple((1, 1))
        for rule in (D, N):
            with pytest.raises(BudgetExhausted) as info:
                generate(e, rule, max_terms=17, node_budget=3)
            partial = info.value.partial
            assert partial is not None
            assert partial.terms[0] == 0
            assert partial == generate(e, rule, max_value=partial.frontier)
            assert info.value.candidate == partial.frontier + 1
            assert f"at candidate {partial.frontier + 1} with {len(partial.terms)} terms" in str(info.value)

    @pytest.mark.parametrize("rule", [D, N])
    def test_sieve_resumes_after_budget_exhaustion(self, rule):
        """However often a small budget stops a sieve, in an update or in a
        search, its next uncapped advance returns the fresh result; and
        however often it stops the window state, which keeps nothing between
        calls, extending the partial prefix does."""
        for coeffs, budget in [((1, 1), 3), ((1, 1), 6), ((1, 1, 2), 8), ((1, 1, 2), 12), ((1, 1, 1, 2), 30)]:
            e = CoefficientTuple(coeffs)
            want = generate(e, rule, max_terms=30)
            sieve = Sieve(e, rule)
            stops = 0
            for _ in range(5):
                try:
                    sieve.advance(max_terms=30, node_budget=budget)
                except BudgetExhausted as exc:
                    stops += 1
                    assert exc.partial == sieve.sequence()
                    assert exc.partial.terms == want.terms[:len(exc.partial.terms)]
            assert stops, (coeffs, budget)
            assert sieve.advance(max_terms=30) == want
            seq = GreedySequence(e, rule, (0,), 0)
            stops = 0
            for _ in range(5):
                try:
                    seq = extend(seq, max_terms=30, node_budget=budget)
                except BudgetExhausted as exc:
                    stops += 1
                    assert exc.partial == generate(e, rule, max_value=exc.partial.frontier)
                    seq = exc.partial
            assert stops, (coeffs, budget)
            assert extend(seq, max_terms=30) == want


# Valid tuples for the budget digest: catalog rows from m = 3 to m = 6.
BUDGET_DIGEST_TUPLES = [(1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 1, 1), (1, 1, 2, 4), (1, 1, 2, 2, 5), (1, 1, 1, 2, 3)]
# sha256 of every outcome in budget_digest_lines, recorded before the
# sumset state's node counts moved from _Budget objects into locals.
BUDGET_DIGEST = "f08df1c9dd30ea048125684dbb241a3eb8c38eadf0bad6cda760acd4d296e0b6"


def budget_digest_lines():
    """One line per generate call with a node budget: for each tuple, rule
    and max_terms 8 and 20, every budget from -2 up to the first one that
    completes; the terms and frontier, or the BudgetExhausted text, nodes
    and partial prefix."""
    for coeffs in BUDGET_DIGEST_TUPLES:
        e = CoefficientTuple(coeffs)
        for rule in (D, N):
            for max_terms in (8, 20):
                budget = -2
                while True:
                    key = (coeffs, rule.value, max_terms, budget)
                    try:
                        seq = generate(e, rule, max_terms=max_terms, node_budget=budget)
                    except BudgetExhausted as exc:
                        yield repr(key + (str(exc), exc.nodes, exc.partial.terms, exc.partial.frontier))
                        budget += 1
                        continue
                    yield repr(key + (seq.terms, seq.frontier))
                    break


def test_budget_digest():
    """Where the node budget stops a generation, and how it reports it, stay
    byte for byte the same."""
    lines = list(budget_digest_lines())
    assert len(lines) == 1620
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BUDGET_DIGEST


# Valid tuples for the window digest: catalog rows from m = 3 to m = 5.
WINDOW_DIGEST_TUPLES = [(1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 1, 1), (1, 1, 2, 4)]
# sha256 of every outcome in window_budget_digest_lines, recorded while the
# window state was a class that kept its window between calls.
WINDOW_DIGEST = "12409f9f7f00e75eb963f09d6201535b100608cd0e7c751f9525e6b2bf00c4bf"


def window_budget_digest_lines():
    """One line per extend call with a node budget, which runs the window
    state: from the 1-term and 6-term prefixes of each tuple and rule, for
    max_terms 12 and 20, every budget from -2 to 39 and then 40 * 3**k for
    k >= 1 (120, 360, ...) up to the first one that completes; the terms and
    frontier, or the BudgetExhausted text, nodes and partial prefix."""
    for coeffs in WINDOW_DIGEST_TUPLES:
        e = CoefficientTuple(coeffs)
        for rule in (D, N):
            for start in (1, 6):
                prefix = generate(e, rule, max_terms=start)
                for max_terms in (12, 20):
                    for budget in chain(range(-2, 40), (40 * 3**k for k in count(1))):
                        key = (coeffs, rule.value, start, max_terms, budget)
                        try:
                            seq = extend(prefix, max_terms=max_terms, node_budget=budget)
                        except BudgetExhausted as exc:
                            yield repr(key + (str(exc), exc.nodes, exc.partial.terms, exc.partial.frontier))
                            continue
                        yield repr(key + (seq.terms, seq.frontier))
                        break


def test_window_budget_digest():
    """Where the node budget stops the window state, and how it reports it,
    stay byte for byte the same."""
    lines = list(window_budget_digest_lines())
    assert len(lines) == 1619
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WINDOW_DIGEST


class TestExtend:
    def test_resume_matches_fresh(self):
        e = CoefficientTuple((1, 1))
        part = generate(e, D, max_terms=8)
        full = extend(part, max_terms=16)
        assert full.terms == PAIR_PREFIX[:16]
        assert full.terms[-4:] == (36, 37, 39, 40)
        assert full == generate(e, D, max_terms=16)

    def test_extend_by_zero_is_identity(self):
        seq = generate(CoefficientTuple((1, 1, 1)), D, max_terms=6)
        assert extend(seq, max_terms=6) == seq
        assert extend(seq, max_value=seq.frontier) == seq

    def test_block_jump_past_first_gap(self):
        e = CoefficientTuple((1, 1, 1))
        prefix = generate(e, D, max_value=16)
        assert prefix.terms == (0, 1, 2, 3, 4, 12, 13, 14, 15, 16)
        full = extend(prefix, max_value=60)
        added = full.terms[len(prefix.terms):]
        assert added == (48, 49, 50, 51, 52, 60)

    def test_max_value_then_more(self):
        e = CoefficientTuple((1, 1))
        a = generate(e, D, max_value=40)
        b = extend(a, max_value=81)
        assert b == generate(e, D, max_value=81)

    def test_caps_below_the_prefix(self):
        e = CoefficientTuple((1, 1))
        long = generate(e, D, max_terms=40)
        assert extend(long, max_terms=5) == generate(e, D, max_terms=5)
        assert extend(long, max_value=20) == generate(e, D, max_value=20)
        assert extend(long, max_terms=30, max_value=50) == generate(e, D, max_terms=30, max_value=50)
        assert extend(long, max_terms=0) == generate(e, D, max_terms=0)

    @pytest.mark.parametrize(
        "coeffs, rule",
        [((1, 1), D), ((1, 1, 2), D), ((1, 1, 1, 1), D), ((1, 1, 1), N), ((1, 1, 2), N)],
    )
    def test_one_value_windows_equal_generate(self, coeffs, rule):
        """Extending by one value at a time, so every window the window state
        opens holds one candidate, gives what one generate call gives."""
        e = CoefficientTuple(coeffs)
        seq = generate(e, rule, max_terms=1)
        while seq.frontier < 150:
            seq = extend(seq, max_value=seq.frontier + 1)
        assert seq == generate(e, rule, max_value=150)


class TestNaive:
    def test_example_pair(self):
        assert naive_generate(CoefficientTuple((1, 1)), D, 13) == [0, 1, 3, 4, 9, 10, 12, 13]

    def test_example_m5(self):
        assert naive_generate(CoefficientTuple((1, 1, 1, 1)), D, 7) == [0, 1, 2, 3, 5, 7]

    def test_example_zero_cap(self):
        assert naive_generate(CoefficientTuple((1, 1)), D, 0) == [0]
        assert naive_generate(CoefficientTuple((1, 1)), N, 0) == [0]


CATALOG_SMALL_M = [
    (1, 1, 1),
    (1, 1, 2),
    (1, 1, 1, 1),
    (1, 1, 1, 2),
    (1, 1, 2, 3),
    (1, 1, 2, 4),
]


@pytest.mark.parametrize("coeffs", CATALOG_SMALL_M)
def test_oracle_equivalence_distinct(coeffs):
    """generate and naive_generate agree term for term up to 300."""
    e = CoefficientTuple(coeffs)
    fast = generate(e, D, max_value=300)
    assert list(fast.terms) == naive_generate(e, D, 300)


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 2), (1, 1, 1, 1), (1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 3), (1, 1, 2, 4)])
def test_oracle_equivalence_not_all_equal(coeffs):
    e = CoefficientTuple(coeffs)
    fast = generate(e, N, max_value=250)
    assert list(fast.terms) == naive_generate(e, N, 250)
    # the not-all-equal sequences are exactly the zero-one digit sets
    assert all(zero_one_contains(e, t) for t in fast.terms)


@st.composite
def valid_tuples(draw, max_len=5):
    """Valid tuples: d_1 = 1 and each entry at most the sum of the ones before."""
    coeffs = [1]
    for _ in range(draw(st.integers(min_value=1, max_value=max_len - 1))):
        coeffs.append(draw(st.integers(min_value=coeffs[-1], max_value=sum(coeffs))))
    return CoefficientTuple(coeffs)


RULES = st.sampled_from([D, N])


@settings(max_examples=40, deadline=None)
@given(valid_tuples(), RULES, st.integers(min_value=0, max_value=70))
def test_sieve_matches_oracles(e, rule, max_value):
    """The sieve equals the naive oracle and a per-candidate witness search:
    every skipped value has a valid witness and no term has one."""
    seq = generate(e, rule, max_value=max_value)
    assert list(seq.terms) == naive_generate(e, rule, max_value)
    assert seq.frontier == max_value
    assert extend(generate(e, rule, max_value=0), max_value=max_value) == seq  # the window state
    terms = set(seq.terms)
    for value in range(max_value + 1):
        ground = [t for t in seq.terms if t < value]
        if value in terms:
            assert creates_solution(ground, value, e, rule) is None
        else:
            witness = skip_witness(seq, value)
            assert witness is not None and value in witness.values
            assert witness_satisfies(witness.values, e, rule)
            assert set(witness.values) <= set(ground) | {value}


@settings(max_examples=40, deadline=None)
@given(valid_tuples(), RULES, st.integers(min_value=1, max_value=14), st.data())
def test_extend_from_any_split_equals_generate(e, rule, max_terms, data):
    """Resuming from any prefix, with any caps, gives the fresh result."""
    full = generate(e, rule, max_terms=max_terms)
    split = data.draw(st.integers(min_value=0, max_value=full.frontier), label="split")
    prefix = generate(e, rule, max_value=split)
    assert extend(prefix, max_terms=max_terms) == full
    caps = data.draw(st.tuples(st.none() | st.integers(1, 16), st.none() | st.integers(0, full.frontier)),
                     label="caps")
    if caps != (None, None):
        assert extend(full, *caps) == generate(e, rule, *caps)


@pytest.mark.parametrize("rule", [D, N])
def test_one_sieve_advanced_in_steps(rule):
    """A sieve kept across calls with growing caps, as discovery keeps it,
    matches fresh generation, also when a value cap falls inside the window
    of an earlier call."""
    e = CoefficientTuple((1, 1, 2))
    sieve = Sieve(e, rule)
    for caps in [(3, None), (None, 20), (None, 90), (17, None), (20, None)]:
        assert sieve.advance(*caps) == generate(e, rule, *caps)


def _state(sieve):
    """A copy of a sumset sieve's bitsets, which its updates change in place."""
    return list(sieve.sums), list(sieve.gaps), sieve.open_gaps, sieve.top


def _frozen(value):
    return isinstance(value, int) or isinstance(value, tuple) and all(map(_frozen, value))


@pytest.mark.parametrize("rule", [D, N])
def test_sumset_sieves_share_a_frozen_layout(rule):
    """Sieves of one tuple and rule share one layout of tuples and ints, and
    advancing one, through a refused update and a resume, leaves the other's
    bitsets and next term as they were."""
    e = CoefficientTuple((1, 1, 2))
    a, b = (Sieve(e, rule) for _ in range(2))
    assert a.layout is b.layout
    assert _frozen(a.layout)
    b.advance(max_terms=3)
    seen = _state(b)
    with pytest.raises(BudgetExhausted):
        a.advance(max_terms=20, node_budget=a.layout.update_nodes - 1)
    assert a.pending == 0
    assert a.advance(max_terms=20) == generate(e, rule, max_terms=20)
    assert _state(b) == seen
    assert b.advance(max_terms=20) == generate(e, rule, max_terms=20)


@pytest.mark.parametrize("rule", [D, N])
@pytest.mark.parametrize("coeffs", [(1, 1, 2), (1, 1, 1, 1), (1, 1)])
def test_update_refused_where_the_bitsets_grow(coeffs, rule):
    """A budget that covers an update but not the widening of its bitsets
    stops the sieve at the first term that widens them, 1, with the term
    accepted and the bitsets as they were; resumed, the sieve matches a
    fresh one advanced to the same length."""
    e = CoefficientTuple(coeffs)

    def fresh(max_terms):
        sieve = Sieve(e, rule)
        sieve.advance(max_terms=max_terms)
        return sieve

    layout = fresh(0).layout
    for budget in range(layout.update_nodes, layout.update_nodes + layout.states):
        sieve = Sieve(e, rule)
        with pytest.raises(BudgetExhausted) as info:
            sieve.advance(max_terms=20, node_budget=budget)
        assert info.value.nodes == layout.update_nodes + layout.states
        assert info.value.partial.terms == (0, 1) and sieve.pending == 1
        assert _state(sieve) == _state(fresh(1))
        assert sieve.advance(max_terms=20) == generate(e, rule, max_terms=20)
        assert sieve.pending is None
        assert _state(sieve) == _state(fresh(20))


# The generate benchmark's tuples and the catalog rows, with the number of
# terms to follow each for.
DEAD_SHIFT_CASES = [((1, 1), 64), ((1, 1, 1), 40), ((1, 1, 2), 25), ((1, 1, 1, 1), 20)]
DEAD_SHIFT_CASES += [(coeffs, 12) for coeffs in KNOWN_CLOSED_FORMS if coeffs not in dict(DEAD_SHIFT_CASES)]


@pytest.mark.parametrize("rule", [D, N])
@pytest.mark.parametrize("coeffs, max_terms", DEAD_SHIFT_CASES)
def test_dead_gap_shifts_change_no_bit_above_the_frontier(coeffs, max_terms, rule):
    """The update leaves out exactly the gap parts with w(B) >= d - 1, and
    after every accepted term each sum bitset, and each gap bitset above the
    frontier, equals that of a reference update on sets of values that
    applies every part."""
    e = CoefficientTuple(coeffs)
    d, distinct = e.weight, rule is D
    sieve = Sieve(e, rule)
    program = sieve.layout.program
    for _, sum_parts, gap_parts, _ in program:
        assert gap_parts == tuple(p for p in sum_parts if p[0] < d - 1)
    # w(B) = d - 1 only where B is the whole rest of a sigma = 1 role; under
    # the distinct rule B is one slot, so only (1, 1) has such a part.
    skipped = sum(len(sum_parts) - len(gap_parts) for _, sum_parts, gap_parts, _ in program)
    assert skipped == (1 if rule is N or coeffs == (1, 1) else 0)
    sums = [{0}] + [set() for _ in program]
    gaps = [set() for _ in sums]
    for k in range(1, max_terms + 1):
        t = sieve.advance(max_terms=k).terms[-1]
        for i, sum_parts, _, _ in program:
            before = sums[i]
            sums[i] = before | {s + w * t for w, j in sum_parts for s in sums[j]}
            gaps[i] = gaps[i] | {d * t - s for s in (before if distinct else sums[i])}
            gaps[i] |= {g - w * t for w, j in sum_parts for g in gaps[j]}
        gaps[0] = gaps[0] | {d * t}
        start = sieve.frontier + 1
        assert sieve.sums == [sum(1 << sieve.top - s for s in values) for values in sums]
        assert [g >> start for g in sieve.gaps] == [sum(1 << g - start for g in values if g >= start) for values in gaps]


# Six to eight coefficients in repeated groups: one new term fills many
# different slot sets, and the window state enumerates many slots.
@pytest.mark.parametrize("coeffs, rule, max_value", [
    ((1,) * 7, D, 45), ((1,) * 8, D, 45), ((1, 1, 1, 2, 2, 2), D, 60), ((1, 1, 2, 2, 4, 4), D, 45),
    ((1, 1, 1, 1, 2, 2, 2, 2), D, 40),
    ((1,) * 7, N, 600), ((1,) * 8, N, 700), ((1, 1, 1, 2, 2, 2), N, 400), ((1, 1, 2, 2, 4, 4), N, 400),
    ((1, 1, 1, 1, 2, 2, 2, 2), N, 400),
])
def test_sieve_matches_naive_on_repeated_groups(coeffs, rule, max_value):
    e = CoefficientTuple(coeffs)
    expected = naive_generate(e, rule, max_value)
    assert list(generate(e, rule, max_value=max_value).terms) == expected
    assert list(extend(generate(e, rule, max_value=0), max_value=max_value).terms) == expected  # the window state


def test_not_all_equal_at_large_m():
    """63 coefficients of 1: the sieve's set-up stays small, and the terms are
    the zero-one digit set in base 64."""
    e = CoefficientTuple.uniform(64)
    assert generate(e, N, max_value=5000).terms == (0, 1, 64, 65, 4096, 4097, 4160, 4161)


def test_pair_tuple_across_the_1024_gap():
    """(1,1) to 1,100 terms: the n-th term is n's binary digits read in base 3."""
    seq = generate(CoefficientTuple((1, 1)), D, max_terms=1100)
    assert seq.terms == tuple(int(f"{n:b}", 3) for n in range(1100))


def test_triple_tuple_200_terms_match_closed_form():
    e = CoefficientTuple((1, 1, 1))
    cf = catalog_closed_form(e)
    assert generate(e, D, max_terms=200).terms == tuple(cf.nth(k) for k in range(200))


def test_greedy_minimality_spot_check():
    """Every skipped integer below the frontier admits a rejection witness."""
    e = CoefficientTuple((1, 1))
    seq = generate(e, D, max_value=45)
    term_set = set(seq.terms)
    for s in range(seq.frontier + 1):
        if s in term_set:
            continue
        ground = [t for t in seq.terms if t < s]
        w = creates_solution(ground, s, e, D)
        assert w is not None, s
        assert s in w.values
        assert skip_witness(seq, s) == w


def test_generated_prefixes_are_solution_free():
    for coeffs, rule in [((1, 1), D), ((1, 1, 1), D), ((1, 1), N), ((1, 1, 2), D)]:
        e = CoefficientTuple(coeffs)
        seq = generate(e, rule, max_terms=12)
        assert verify_solution_free(seq.terms, e, rule) is None


def test_monotone_determinism():
    e = CoefficientTuple((1, 1, 2))
    long = generate(e, D, max_terms=14)
    for k in (1, 5, 9, 14):
        assert generate(e, D, max_terms=k).terms == long.terms[:k]


def test_skip_witness_rejects_a_term():
    seq = generate(CoefficientTuple((1, 1)), D, max_terms=5)
    with pytest.raises(ValueError, match="^3 is a term, not a skip$"):
        skip_witness(seq, 3)
    # 20 is above the frontier 9: whether it is skipped is not decided yet
    with pytest.raises(ValueError, match="^20 lies beyond the frontier 9, so it is not decided yet$"):
        skip_witness(seq, 20)


# Lenient spellings of one term line that read_cache accepts.
LENIENT_EDITS = {
    " ": lambda line: " " + line,
    "\t": lambda line: line + "\t",
    "+": lambda line: "+" + line,
    "0": lambda line: "0" + line,
    "0_": lambda line: "0_" + line,
    "\n": lambda line: line + "\n",  # a blank line after it
}


def _is_canonical_by_lines(body):
    """Every line is str(int(line)), none is blank, and the last ends in a newline."""
    if not body.endswith("\n"):
        return False
    return all(line.strip() and line == str(int(line)) for line in body[:-1].split("\n"))


def _parse_body_by_lines(body):
    """What _parse_body returns, by its definition: the terms int() reads line
    by line, and the body as their lines exactly when it is canonical."""
    terms = tuple(map(int, filter(str.strip, body.split("\n"))))
    return terms, ((len(terms), body) if _is_canonical_by_lines(body) else (0, ""))


class TestCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seq.cache"
        seq = generate(CoefficientTuple((1, 1)), D, max_terms=9)
        write_cache(path, seq)
        assert path.read_bytes() == b"# tuple=1,1 rule=distinct frontier=27\n0\n1\n3\n4\n9\n10\n12\n13\n27\n"
        assert read_cache(path) == seq
        empty = generate(CoefficientTuple((1, 1)), N, max_terms=0)
        write_cache(path, empty)
        assert path.read_bytes() == b"# tuple=1,1 rule=notallequal frontier=-1\n"
        assert read_cache(path) == empty

    @pytest.mark.parametrize("body", [
        "0\n\n1\n\n\n3\n\n",  # blank lines
        " 0\n1 \n\t3\t\n",  # spaces around a term
        "0\r\n1\r\n3\r\n",  # CRLF line ends
        "0\n1\n3",  # no final newline
        "0\n+1\n3\n",  # a sign
        "0\n1\n0_3\n",  # an underscore between digits
        "0\n1\n3\n",  # canonical
        "\n0\n1\n3\n",  # a leading blank line
        "0\r1\r3\r",  # a lone CR as line end
    ])
    def test_lenient_term_lines_are_accepted(self, tmp_path, body):
        path = tmp_path / "seq.cache"
        path.write_bytes(b"# tuple=1,1 rule=distinct frontier=3\n" + body.encode())
        seq = read_cache(path)
        assert seq.terms == (0, 1, 3)
        # The lines are kept only when canonical; universal newlines read CRLF and CR as LF.
        kept = body.replace("\r\n", "\n").replace("\r", "\n") == "0\n1\n3\n"
        assert seq.lines == ((3, "0\n1\n3\n") if kept else (0, ""))

    @pytest.mark.parametrize("body, terms", [
        ("", ()),
        ("\n", ()),
        ("0\n1\n3\n", (0, 1, 3)),
        ("0\n1\n3", (0, 1, 3)),  # no final newline
        ("0\n+1\n2", (0, 1, 2)),  # ... offset by a sign: as long as the canonical text
        ("0\n1\n 2", (0, 1, 2)),  # ... or by a space
        ("0\n\n1\n", (0, 1)),
        ("9\n10\n99\n100\n", (9, 10, 99, 100)),
        ("9\n010\n99\n100\n", (9, 10, 99, 100)),
        ("0\n0_3\n", (0, 3)),
        ("0\n3 \n", (0, 3)),
        ("\n0\n1\n", (0, 1)),  # a leading blank line
        ("0\n0\n", (0, 0)),  # canonical digits that do not increase
        ("0\n1\r\n", (0, 1)),  # a CR before the newline, which a file read in text mode removes
    ])
    def test_canonical_check_matches_its_definition(self, body, terms):
        parsed = _parse_body(body)
        assert parsed == _parse_body_by_lines(body) and parsed[0] == terms

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(1, 10 ** 4), max_size=30, unique=True),
        cap=st.integers(1, 40),
        by_value=st.booleans(),
    )
    def test_a_prefix_of_a_cache_keeps_the_lines_of_its_terms(self, values, cap, by_value):
        """extend with caps the cache already covers keeps the cache's lines
        only when it keeps every term, and the kept prefix renders to the
        decimal lines of its terms."""
        terms = (0, *sorted(values))
        text = "".join(f"{t}\n" for t in terms)
        seq = GreedySequence(CoefficientTuple((1, 1)), D, terms, terms[-1], (len(terms), text))
        if by_value:
            cut = extend(seq, max_value=min(terms[min(cap, len(terms)) - 1] + cap % 3, terms[-1]))
        else:
            cut = extend(seq, max_terms=min(cap, len(terms)))
        assert cut.terms == terms[:len(cut.terms)]
        assert cut.lines == (seq.lines if cut.terms == terms else (0, ""))
        assert rendered(cut).lines == (len(cut.terms), "".join(f"{t}\n" for t in cut.terms))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(1, 10 ** 7), max_size=30, unique=True),
        edits=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(list(LENIENT_EDITS))), max_size=3),
        final_newline=st.booleans(),
    )
    def test_canonical_check_on_lenient_variants(self, values, edits, final_newline):
        """The one-scan read against the line-by-line definition, on the
        canonical text with a few lines spelled leniently, with or without
        the final newline."""
        terms = (0, *sorted(values))
        lines = [str(t) for t in terms]
        for i, edit in edits:
            i %= len(lines)
            if lines[i].isdigit() or edit in (" ", "\t", "\n"):  # a sign or zeros go before the digits
                lines[i] = LENIENT_EDITS[edit](lines[i])
        body = "\n".join(lines) + "\n" * final_newline
        parsed = _parse_body(body)
        assert parsed == _parse_body_by_lines(body) and parsed[0] == terms

    @pytest.mark.parametrize("line", ["1 2", "x", "5\x0c6"])
    def test_a_line_that_is_not_one_integer_is_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cache"
        path.write_bytes(f"# tuple=1,1 rule=distinct frontier=9\n0\n{line}\n9\n".encode())
        with pytest.raises(ValueError) as info:
            read_cache(path)
        assert str(info.value) == f"invalid literal for int() with base 10: {line!r}"

    def test_a_line_past_the_int_digit_limit_is_rejected_as_int_rejects_it(self, tmp_path):
        line = "1" * 4301
        with pytest.raises(ValueError) as expected:
            int(line)
        path = tmp_path / "long.cache"
        path.write_text(f"# tuple=1,1 rule=distinct frontier=9\n0\n{line}\n")
        with pytest.raises(ValueError) as info:
            read_cache(path)
        assert str(info.value) == str(expected.value)

    def test_a_long_round_trip_keeps_the_written_lines(self, tmp_path):
        path = tmp_path / "long.cache"
        seq = generate(CoefficientTuple((1, 1)), D, max_terms=1025)
        write_cache(path, seq)
        body = path.read_text().split("\n", 1)[1]
        read = read_cache(path)
        assert read == seq
        assert read.lines == (1025, body) == (1025, "".join(f"{t}\n" for t in seq.terms))

    def test_write_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "seq.cache"
        write_cache(path, generate(CoefficientTuple((1, 1)), D, max_terms=9))
        write_cache(path, generate(CoefficientTuple((1, 1)), D, max_terms=12))
        assert [p.name for p in tmp_path.iterdir()] == ["seq.cache"]
        assert len(read_cache(path).terms) == 12

    @pytest.mark.parametrize("body,reason", [
        ("frontier=10\n0\n5\n2\n", "not strictly increasing"),
        ("frontier=10\n0\n2\n2\n", "not strictly increasing"),
        ("frontier=10\n1\n2\n", "starts at 1"),
        ("frontier=4\n0\n1\n3\n9\n", "beyond its frontier"),
        ("frontier=3\n", "no terms"),
        ("frontier=3\n0\n1\nx\n", "invalid literal"),
        ("frontier=10\n0\n0\n", "^cache terms are not strictly increasing$"),  # canonical digits
        ("frontier=-2\n", "^cache frontier -2 lies below -1$"),  # an empty prefix's frontier is -1
        ("frontier=-5\n0\n", "^cache frontier -5 lies below -1$"),
    ])
    def test_malformed_cache_is_rejected(self, tmp_path, body, reason):
        path = tmp_path / "bad.cache"
        path.write_text("# tuple=1,1 rule=distinct " + body)
        with pytest.raises(ValueError, match=reason):
            read_cache(path)

    def test_missing_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("0\n1\n3\n")
        with pytest.raises(ValueError, match="^missing cache header$"):
            read_cache(path)

    def test_failed_rename_keeps_the_old_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "seq.cache"
        write_cache(path, generate(CoefficientTuple((1, 1)), D, max_terms=9))
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_cache(path, generate(CoefficientTuple((1, 1)), D, max_terms=12))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["seq.cache"]

    def test_missing_header_field_is_rejected(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("# tuple=1,1 frontier=3\n0\n1\n3\n")
        with pytest.raises(ValueError, match="lacks 'rule'"):
            read_cache(path)

    @pytest.mark.parametrize("header, message", [
        ("tuple=1,1 rule=distinct frontier=3 frontier=5", "cache header repeats 'frontier'"),
        ("tuple=1,1 tuple=1,1 rule=distinct frontier=3", "cache header repeats 'tuple'"),
        ("tuple=1,1 rule=distinct frontier=3 frontier", "cache header field 'frontier' lacks '='"),
        ("tuple=1,1 distinct frontier=3", "cache header field 'distinct' lacks '='"),
    ])
    def test_a_header_field_given_twice_or_without_a_value_is_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.cache"
        path.write_text(f"# {header}\n0\n1\n3\n")
        with pytest.raises(ValueError) as info:
            read_cache(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("rule", [D, N])
    def test_a_negative_max_value_leaves_the_frontier_at_minus_one(self, tmp_path, rule):
        """An empty prefix's frontier is -1 whatever negative cap was asked,
        so it can be resumed, and it survives a cache round trip."""
        e = CoefficientTuple((1, 1))
        for max_value in (-1, -3):
            empty = generate(e, rule, max_value=max_value)
            assert (empty.terms, empty.frontier) == ((), -1)
            assert extend(empty, max_terms=3) == generate(e, rule, max_terms=3)
            path = tmp_path / "empty.cache"
            write_cache(path, empty)
            assert read_cache(path) == empty
        seq = generate(e, rule, max_terms=5)
        assert extend(seq, max_value=-3) == empty

    def test_resume_from_cache(self, tmp_path):
        path = tmp_path / "seq.cache"
        write_cache(path, generate(CoefficientTuple((1, 1)), D, max_terms=8))
        resumed = extend(read_cache(path), max_terms=17)
        assert resumed.terms == PAIR_PREFIX
