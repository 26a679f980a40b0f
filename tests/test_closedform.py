"""Closed forms: digit membership, decomposition uniqueness, exact counting."""

import pytest
from hypothesis import given, settings, strategies as st

from nonavg import (
    AvoidanceRule,
    ClosedForm,
    CoefficientTuple,
    InvalidTuple,
    Overflow,
    KNOWN_CLOSED_FORMS,
    catalog_closed_form,
    count_zero_one_below,
    count_zero_one_below_dp,
    decompose,
    generate,
    popcount_residue_pair,
    thue_morse_bit,
    zero_one_contains,
    zero_one_nth,
)
from nonavg.closedform import (
    _TABLE_SIZE, _binary_in_base, _bits_table, _count_zero_one_below_dp, _is_zero_one, _rank_table, _walk_rank,
    zero_one_prefix,
)
from nonavg.tuples import VALUE_LIMIT

E3 = CoefficientTuple((1, 1))
E4 = CoefficientTuple((1, 1, 1))
CF12 = ClosedForm(4, 12, range(5), E4)


class TestZeroOneNth:
    def test_examples(self):
        assert zero_one_nth(E3, 5) == 10  # 101 in binary, read in base 3
        assert zero_one_nth(E3, 0) == 0
        assert zero_one_nth(E4, 3) == 5  # 11 in binary, read in base 4

    def test_matches_enumeration(self):
        members = [x for x in range(3 ** 7) if zero_one_contains(E3, x)]
        assert members == [zero_one_nth(E3, n) for n in range(len(members))]

    def test_overflow(self):
        with pytest.raises(Overflow):
            zero_one_nth(E3, 1 << 45)

    def test_prefix_overflow(self):
        wide = CoefficientTuple((1, 1) + tuple(1 << k for k in range(1, 62)))  # base 2^62 + 1
        prefix = zero_one_prefix(wide, 5)
        assert [next(prefix) for _ in range(4)] == [0, 1, wide.base, wide.base + 1]
        with pytest.raises(Overflow, match="^term does not fit in 63 bits$"):
            next(prefix)

    def test_requires_valid_tuple(self):
        with pytest.raises(InvalidTuple):
            zero_one_nth(CoefficientTuple((1, 1, 3)), 1)


class TestZeroOneContains:
    def test_examples(self):
        assert zero_one_contains(E3, 4)       # 11 in base 3
        assert not zero_one_contains(E3, 2)   # digit 2 in base 3
        assert zero_one_contains(CoefficientTuple((1, 1, 2, 4, 8)), 17)  # the base itself

    def test_against_digit_strings(self):
        for x in range(2000):
            digits = []
            y = x
            while y:
                y, dd = divmod(y, 3)
                digits.append(dd)
            assert zero_one_contains(E3, x) == all(dd <= 1 for dd in digits)


class TestDecompose:
    def test_example_52(self):
        dec = decompose(52, 4, 12)
        assert dec.remainder == 4 and dec.digits == (0, 1)

    def test_example_zero(self):
        assert decompose(0, 4, 12).remainder == 0
        assert decompose(0, 4, 12).digits == ()

    def test_example_below_scale(self):
        dec = decompose(11, 4, 12)
        assert dec.remainder == 11 and dec.digits == ()

    def test_immutable(self):
        dec = decompose(52, 4, 12)
        for field in ("remainder", "digits"):
            with pytest.raises(AttributeError):
                setattr(dec, field, 0)
        assert dec.value(4, 12) == 52

    @given(
        st.integers(min_value=0, max_value=10 ** 12),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=20),
    )
    def test_round_trip(self, x, base, scale):
        dec = decompose(x, base, scale)
        assert 0 <= dec.remainder < scale
        assert all(0 <= d < base for d in dec.digits)
        if dec.digits:
            assert dec.digits[-1] != 0
        assert dec.value(base, scale) == x

    def test_round_trip_dense_sweep(self):
        for base, scale in [(2, 1), (4, 12), (9, 20)]:
            for x in range(50000):
                assert decompose(x, base, scale).value(base, scale) == x

    @pytest.mark.slow
    def test_round_trip_full_grid(self):
        for base in range(2, 10):
            for scale in range(1, 21):
                for x in range(10 ** 6):
                    assert decompose(x, base, scale).value(base, scale) == x


class TestClosedFormType:
    def test_residues_normalized(self):
        cf = ClosedForm(4, 12, [4, 0, 2, 2, 1, 3])
        assert cf.residues == (0, 1, 2, 3, 4)

    def test_rejects_residue_at_scale(self):
        with pytest.raises(ValueError):
            ClosedForm(4, 12, [0, 12])

    def test_rejects_missing_zero(self):
        with pytest.raises(ValueError):
            ClosedForm(4, 12, [1, 2])

    def test_rejects_base_mismatch(self):
        with pytest.raises(ValueError):
            ClosedForm(5, 12, [0, 1], E4)

    def test_text_round_trip(self):
        assert ClosedForm.from_text(CF12.text()) == CF12
        assert CF12.text() == "c=12 base=4 R=0,1,2,3,4"

    def test_fields_cannot_be_assigned(self):
        for name in ("base", "scale", "residues", "coefficients", "other"):
            with pytest.raises(AttributeError):
                setattr(CF12, name, 5)
        assert CF12.text() == "c=12 base=4 R=0,1,2,3,4" and CF12.coefficients is E4

    def test_equality_and_hash_ignore_the_tuple(self):
        plain = ClosedForm(4, 12, [4, 3, 2, 1, 0, 0])
        assert plain.coefficients is None
        assert plain == CF12 and hash(plain) == hash(CF12) and len({plain, CF12}) == 1
        assert CF12 != ClosedForm(4, 12, range(4))
        assert CF12 != ClosedForm(4, 13, range(5))
        assert CF12 != ClosedForm(5, 12, range(5))
        assert CF12 != CF12.text()

    def test_repr(self):
        assert repr(CF12) == "ClosedForm('c=12 base=4 R=0,1,2,3,4')"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: decompose(-1, 4, 12), "x must be nonnegative"),
        (lambda: decompose(5, 1, 12), "base must be at least 2"),
        (lambda: decompose(5, 4, 0), "scale must be positive"),
        (lambda: zero_one_nth(E4, -1), "index must be nonnegative"),
        (lambda: CF12.nth(-1), "index must be nonnegative"),
        (lambda: ClosedForm.from_text("c=x base=4 R=0"), "cannot parse closed form 'c=x base=4 R=0'"),
        (lambda: ClosedForm.from_text("c=12 c=13 base=4 R=0,1,2,3,4"), "closed form repeats 'c'"),
        (lambda: ClosedForm.from_text("c=12 base=4 R=0,1,2,3,4 oops"), "closed form field 'oops' lacks '='"),
        (lambda: ClosedForm(1, 12, [0]), "base must be at least 2"),
        (lambda: ClosedForm(4, 0, [0]), "scale must be positive"),
        # a negative residue sorts first, so the set lacks 0 in its place
        (lambda: ClosedForm(4, 12, (-1, 0, 1)), "residues must include 0"),
    ],
    ids=[
        "decompose-negative-x", "decompose-base-1", "decompose-scale-0", "zero-one-nth-negative",
        "nth-negative", "unparsable-text", "repeated-field", "part-without-equals", "base-1", "scale-0",
        "negative-residue",
    ],
)
def test_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestNth:
    def test_examples(self):
        assert CF12.nth(5) == 12
        assert CF12.nth(0) == 0
        family5 = catalog_closed_form(CoefficientTuple((1, 1, 1, 1)))
        assert family5.nth(12) == 122

    def test_strictly_increasing(self):
        values = [CF12.nth(k) for k in range(4000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_overflow(self):
        with pytest.raises(Overflow):
            CF12.nth(1 << 40)


class TestContains:
    def test_examples(self):
        assert CF12.contains(52)
        assert not CF12.contains(5)
        assert CF12.contains(0)

    def test_round_trip_with_nth(self):
        for k in range(3000):
            assert CF12.contains(CF12.nth(k))

    def test_complement(self):
        members = {CF12.nth(k) for k in range(200)}
        top = max(members)
        for x in range(top + 1):
            assert CF12.contains(x) == (x in members)


class TestCounting:
    def test_examples(self):
        assert count_zero_one_below(E3, 81) == 16
        assert count_zero_one_below(E3, 1) == 1
        assert count_zero_one_below(E4, 10 ** 10) == 131072

    def test_cf_examples(self):
        assert CF12.count_below(48) == 10
        assert CF12.count_below(1) == 1
        assert CF12.count_below(10 ** 10) == 163840

    def test_walk_vs_dp(self):
        for e in (E3, E4, CoefficientTuple((1, 1, 2, 4))):
            for n in list(range(200)) + [10 ** 6, 10 ** 10, 123456789]:
                assert count_zero_one_below(e, n) == count_zero_one_below_dp(e, n)

    def test_walk_vs_enumeration(self):
        members = [x for x in range(3 ** 8) if zero_one_contains(E3, x)]
        count = 0
        idx = 0
        for n in range(3 ** 8):
            while idx < len(members) and members[idx] < n:
                idx += 1
            assert count_zero_one_below(E3, n) == idx

    def test_counting_consistency(self):
        for k in range(10 ** 4):
            assert CF12.count_below(CF12.nth(k)) == k
        family5 = catalog_closed_form(CoefficientTuple((1, 1, 1, 1)))
        for k in range(0, 10 ** 4, 7):
            assert family5.count_below(family5.nth(k)) == k

    def test_cf_count_vs_enumeration(self):
        members = [CF12.nth(k) for k in range(64)]
        for n in range(max(members) + 2):
            expected = sum(1 for v in members if v < n)
            assert CF12.count_below(n) == expected
            assert CF12.count_below_dp(n) == expected


class TestResidueLaws:
    def test_popcount_examples(self):
        assert popcount_residue_pair(E4, 7) == (0, 0)
        assert popcount_residue_pair(E4, 0) == (0, 0)
        assert popcount_residue_pair(E3, 6) == (0, 0)

    @pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (1, 1, 2)])
    def test_popcount_law_holds(self, coeffs):
        e = CoefficientTuple(coeffs)
        for n in range(2 ** 16):
            a, b = popcount_residue_pair(e, n)
            assert a == b

    def test_thue_morse_examples(self):
        assert thue_morse_bit(0) == 0
        assert thue_morse_bit(1) == 1
        assert thue_morse_bit(3) == 0

    def test_thue_morse_matches_parity_of_terms(self):
        for n in range(2 ** 16):
            assert thue_morse_bit(n) == zero_one_nth(E3, n) % 2

    def test_thue_morse_recurrences(self):
        # t(2n) = t(n), t(2n+1) = 1 - t(n)
        for n in range(5000):
            assert thue_morse_bit(2 * n) == thue_morse_bit(n)
            assert thue_morse_bit(2 * n + 1) == 1 - thue_morse_bit(n)


# ---------------------------------------------------------------------------
# The one-walk queries against the digit DP and against enumeration by nth.


# Bases up to 64 cover every chunk length of the table-driven walks (k = 8
# digits per step in base 2 down to k = 1 above base 16); bases above 256 have
# one-digit chunks with digits past the end of the 256-entry tables.
BASES = st.one_of(st.integers(min_value=2, max_value=64), st.sampled_from((257, 513, 10 ** 6)))


@st.composite
def closed_forms(draw):
    base = draw(BASES)
    scale = draw(st.integers(min_value=1, max_value=300))
    residues = draw(st.sets(st.integers(min_value=0, max_value=scale - 1), max_size=20))
    return ClosedForm(base, scale, residues | {0})


@st.composite
def forms_with_bounds(draw, max_q):
    """A form and n = scale*q + r + delta, with q zero-one or not, r a residue
    or any value below the scale, and delta in {-1, 0, 1}."""
    cf = draw(closed_forms())
    if draw(st.booleans()):
        digits = draw(st.lists(st.integers(min_value=0, max_value=1), max_size=40))
        q = sum(d * cf.base ** i for i, d in enumerate(digits))
        while q > max_q:
            q -= digits.pop() * cf.base ** len(digits)
    else:
        q = draw(st.integers(min_value=0, max_value=max_q))
    r = draw(st.one_of(st.sampled_from(cf.residues), st.integers(min_value=0, max_value=cf.scale - 1)))
    delta = draw(st.sampled_from((-1, 0, 1)))
    return cf, cf.scale * q + r + delta


@settings(max_examples=300, deadline=None)
@given(forms_with_bounds(max_q=10 ** 40))
def test_count_below_matches_dp(form_and_n):
    cf, n = form_and_n
    assert cf.count_below(n) == cf.count_below_dp(n)
    # n is a member exactly when the DP count steps by one across it.
    assert cf.contains(n) == (cf.count_below_dp(n + 1) - cf.count_below_dp(n) == 1)


@settings(max_examples=150, deadline=None)
@given(forms_with_bounds(max_q=12))
def test_queries_match_enumeration(form_and_n):
    cf, n = form_and_n
    members = []
    while (v := cf.nth(len(members))) <= n + 1:
        members.append(v)
    expected = sum(1 for v in members if v < n)
    assert cf.count_below(n) == expected
    assert cf.count_below_dp(n) == expected
    member_set = set(members)
    for x in range(-1, n + 2):
        assert cf.contains(x) == (x in member_set), x


@settings(max_examples=200, deadline=None)
@given(closed_forms(), st.integers(min_value=0, max_value=4095))
def test_count_below_inverts_nth(cf, k):
    k %= min(4096, cf.count_below(VALUE_LIMIT))  # a no-op up to base 16
    x = cf.nth(k)
    assert cf.contains(x)
    assert cf.count_below(x) == k
    assert cf.count_below(x + 1) == k + 1


# Fixed cases at the chunk boundaries of the walks: k base digits per step,
# with base**k = 256 exactly for bases 2, 4 and 16.
CHUNK_DIGITS = {2: 8, 3: 5, 4: 4, 16: 2}


def _chunk_boundary_values(base, k):
    """x = base**(k*i) - 1 and base**(k*i) (+-1), and values whose only digit
    above 1 sits in the top chunk or in the lowest chunk, for i = 1..4."""
    values = []
    for i in range(1, 5):
        edge = base ** (k * i)
        values += [edge - 2, edge - 1, edge, edge + 1]
        ones = sum(base ** p for p in range(0, k * i, 3))  # zero-one, spans i chunks
        for d in range(2, base):
            values += [ones + d * base ** (k * i - 1), ones + d * base ** (k * (i - 1))]
            values += [d * edge + ones, d * base ** (k * i - 1), d]
    return values


def _per_digit_rank(x, base):
    digits = []
    while x:
        x, d = divmod(x, base)
        digits.append(d)
    below = 0
    for i, d in enumerate(digits):
        if d == 1:
            below += 1 << i
        elif d:
            below = 2 << i
    return below, all(d <= 1 for d in digits)


@pytest.mark.parametrize("base,k", sorted(CHUNK_DIGITS.items()))
def test_walks_at_chunk_boundaries(base, k):
    assert _rank_table(base)[:2] == (base ** k, k)
    cf = ClosedForm(base, 1, [0])
    for x in _chunk_boundary_values(base, k):
        below, member = _per_digit_rank(x, base)
        assert cf.count_below(x) == below == cf.count_below_dp(x), (base, x)
        assert cf.contains(x) == member, (base, x)
    for bits in range(8, 8 * 8, 8):
        for n in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
            x = sum(base ** i for i in range(n.bit_length()) if n >> i & 1)
            if x >= VALUE_LIMIT:
                continue
            assert cf.nth(n) == x and cf.contains(x), (base, n)
            assert cf.count_below(x) == n and cf.count_below(x + 1) == n + 1, (base, n)


@pytest.mark.parametrize("base", [257, 513, 10 ** 6])
def test_walks_above_base_256(base):
    """One-digit chunks: digits 255, 256 and base-1 are all above 1."""
    cf = ClosedForm(base, 7, [0, 3])
    for d in (0, 1, 2, 255, 256, base - 1):
        for ones in (0, 1, base ** 3 + 1):
            for q in (d * base ** 4 + ones, ones * base + d, d):
                for n in (7 * q, 7 * q + 2, 7 * q + 3, 7 * q + 4):
                    assert cf.count_below(n) == cf.count_below_dp(n), (base, n)
                    assert cf.contains(n) == (cf.count_below_dp(n + 1) - cf.count_below_dp(n) == 1), (base, n)
    for k in range(16):
        assert cf.count_below(cf.nth(k)) == k


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=3, max_value=300), st.integers(min_value=0, max_value=10 ** 100), st.data())
def test_membership_walk_matches_the_rank_walk(base, x, data):
    """The early-exit membership walk agrees with the full rank walk on any
    value, on zero-one values and on zero-one values with one digit raised;
    above base 256 a chunk is one digit."""
    width = 1
    while base ** (width + 1) <= 10 ** 100:
        width += 1
    ones = _binary_in_base(data.draw(st.integers(min_value=0, max_value=2 ** width - 1)), base)
    raised = ones + data.draw(st.integers(min_value=1, max_value=base - 2)) * base ** data.draw(
        st.integers(min_value=0, max_value=width - 1))
    assert _is_zero_one(ones, base)
    for value in (x, ones, raised):
        assert _is_zero_one(value, base) == _walk_rank(value, _rank_table(base))[1], (base, value)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=10 ** 100), st.data())
def test_rank_walk_matches_the_per_digit_rank(base, x, data):
    """The top-down rank walk equals the per-digit walk on any value, on
    zero-one values (base 2: every value, so every chunk is read) and on
    zero-one values with one digit raised."""
    ones = _binary_in_base(data.draw(st.integers(min_value=0, max_value=2 ** 300)), base)
    values = [x, ones]
    if base > 2:
        values.append(ones + data.draw(st.integers(min_value=1, max_value=base - 2)) * base ** data.draw(
            st.integers(min_value=0, max_value=300)))
    for value in values:
        assert _walk_rank(value, _rank_table(base)) == _per_digit_rank(value, base), (base, value)


@pytest.mark.parametrize("base", [2, 3, 16, 257, 10 ** 6])
def test_rank_walk_at_the_last_cached_power(base):
    """Values at step^J, the first cached power above 2^64, where the walk
    splits a value into parts of J chunks, and zero-one values across it."""
    step, k, powers, _ = _rank_table(base)
    top = powers[-1]
    assert powers == tuple(step ** j for j in range(len(powers))) and powers[-2] <= 2 ** 64 < top
    span = _binary_in_base((1 << 3 * k * (len(powers) - 1)) - 1, base)  # zero-one, three parts wide
    cf = ClosedForm(base, 1, [0])
    for x in (0, top - 1, top, top + 1, top * top - 1, top * top, top * top + 1, span, span + 1, span + top):
        assert _walk_rank(x, _rank_table(base)) == _per_digit_rank(x, base), (base, x)
        assert cf.count_below(x) == cf.count_below_dp(x), (base, x)


def test_rank_walk_at_the_cli_digit_limit():
    """4,300-digit values (the CLI's MAX_N_DIGITS) that read zero-one down to
    the lowest digit, and with a digit above 1 there: exact against the DP
    (base 10^18, and base 3 with its 9,012 digits) and against the per-digit
    walk (base 3), with no cache call per count and the cached powers
    unchanged."""
    base = 10 ** 18
    cf = ClosedForm(base, 7 * 10 ** 15, [0, 3, 2999])
    q = _binary_in_base((1 << 239) - 1 - (1 << 100), base)
    powers = _rank_table(base)[2]
    for n in (cf.scale * q + 1000, cf.scale * (q + 2) + 1000):
        assert 10 ** 4299 <= n < 10 ** 4300
        info = _rank_table.cache_info()
        got = cf.count_below(n)
        assert _rank_table.cache_info() == info
        assert got == cf.count_below_dp(n), n
    assert _rank_table(base)[2] is powers and len(powers) == 3
    q = _binary_in_base((1 << 9011) - 1 - (1 << 300), 3)
    for x in (q, q + 2):
        assert 10 ** 4299 <= x < 10 ** 4300
        assert _walk_rank(x, _rank_table(3)) == _per_digit_rank(x, 3)
        assert _walk_rank(x, _rank_table(3))[0] == _count_zero_one_below_dp(x, 3)


def test_walk_tables_stay_small():
    """Every cached table holds at most 256 entries, whatever the base."""
    bases = (2, 3, 16, 17, 255, 256, 257, 513, 10 ** 6)
    for base in bases:
        cf = ClosedForm(base, 5, [0, 2])
        cf.nth(3)
        cf.contains(10 ** 30)
        cf.count_below(10 ** 30)
    for table in (_rank_table, _bits_table):
        assert table.cache_info().maxsize is not None
        hits = table.cache_info().hits
        for base in bases:
            assert len(table(base)[-1]) <= _TABLE_SIZE
        assert table.cache_info().hits == hits + len(bases)  # each was already cached


def test_catalog_forms_match_dp_up_to_1e100():
    bounds = sorted({p + e for k in range(0, 101, 5) for p in (10 ** k, 7 * 10 ** k) for e in (-1, 0, 1)})
    for coeffs in KNOWN_CLOSED_FORMS:
        cf = catalog_closed_form(CoefficientTuple(coeffs))
        for n in bounds:
            assert cf.count_below(n) == cf.count_below_dp(n), (coeffs, n)


def test_catalog_rows_round_trip_below_1e6():
    """Every cataloged form: nth is strictly increasing and contains its own values."""
    for coeffs in KNOWN_CLOSED_FORMS:
        cf = catalog_closed_form(CoefficientTuple(coeffs))
        prev = -1
        k = 0
        while True:
            v = cf.nth(k)
            if v >= 10 ** 6:
                break
            assert v > prev, (coeffs, k)
            assert cf.contains(v), (coeffs, k)
            prev = v
            k += 1
        assert cf.count_below(10 ** 6) == k, coeffs


GREEDY_AGREEMENT_ROWS = [
    # (coeffs, number of leading values compared)
    ((1, 1, 1), 100),
    ((1, 1, 2), 60),
    ((1, 1, 1, 1), 36),
    ((1, 1, 1, 2), 30),
    ((1, 1, 2, 3), 21),
    ((1, 1, 2, 4), 40),
    ((1, 1, 1, 1, 1), 56),
    ((1, 1, 1, 1, 2), 42),
    ((1, 1, 1, 1, 3), 36),
    ((1, 1, 1, 1, 4), 21),
    ((1, 1, 1, 2, 2), 24),
    ((1, 1, 1, 3, 3), 18),
    ((1, 1, 1, 3, 4), 18),
    ((1, 1, 1, 3, 5), 18),
    ((1, 1, 2, 2, 2), 18),
    ((1, 1, 2, 2, 6), 18),
    ((1, 1, 2, 3, 7), 18),
    ((1, 1, 2, 4, 4), 18),
    ((1, 1, 2, 4, 7), 14),
]


@pytest.mark.parametrize("coeffs,count", GREEDY_AGREEMENT_ROWS)
def test_closed_forms_match_greedy_prefixes(coeffs, count):
    """Catalog closed forms enumerate exactly the greedy sequences."""
    e = CoefficientTuple(coeffs)
    cf = catalog_closed_form(e)
    want = [cf.nth(k) for k in range(count)]
    seq = generate(e, AvoidanceRule.DISTINCT, max_terms=count)
    assert list(seq.terms) == want


HEAVY_ROWS = [
    ((1, 1, 1, 2, 3), 32),
    ((1, 1, 1, 3, 6), 22),
    ((1, 1, 2, 2, 3), 20),
    ((1, 1, 2, 2, 5), 36),
    ((1, 1, 2, 3, 3), 24),
    ((1, 1, 2, 3, 4), 20),
    ((1, 1, 1, 1), 200),
    ((1, 1, 2, 2, 5), 60),
]


@pytest.mark.parametrize("coeffs,count", HEAVY_ROWS)
def test_closed_forms_match_greedy_prefixes_heavy(coeffs, count):
    e = CoefficientTuple(coeffs)
    cf = catalog_closed_form(e)
    want = [cf.nth(k) for k in range(count)]
    seq = generate(e, AvoidanceRule.DISTINCT, max_terms=count)
    assert list(seq.terms) == want
