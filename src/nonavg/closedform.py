"""Digit-based closed forms: membership, enumeration, and exact counting.

Two families of sets appear here.  The zero-one family for a valid tuple E
is the set of integers whose base-(weight+1) digits are all 0 or 1.  A
``ClosedForm`` scales that family by a constant and adds a finite residue
set: its members are  scale * v + r  with v in the zero-one family and r a
residue.  Every query is one digit walk of one integer, never an
enumeration, so bounds like 10^100 are instant; an independently coded digit
DP cross-checks the walks in tests.  The walks take several base digits per
step through small per-base tables.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import Overflow
from .tuples import VALUE_LIMIT, CoefficientTuple, parse_fields, require_valid


class Decomposition(NamedTuple):
    """x = scale * (digits read in the base) + remainder, digits least significant first."""

    remainder: int
    digits: tuple

    def value(self, base: int, scale: int) -> int:
        acc = 0
        for d in reversed(self.digits):
            acc = acc * base + d
        return scale * acc + self.remainder


def decompose(x: int, base: int, scale: int) -> Decomposition:
    """The unique decomposition of x >= 0 for base >= 2 and scale >= 1.

    remainder = x mod scale; digits are the base digits of the quotient,
    with no trailing zeros stored.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if base < 2:
        raise ValueError("base must be at least 2")
    if scale < 1:
        raise ValueError("scale must be positive")
    q, r = divmod(x, scale)
    digits = []
    while q:
        q, d = divmod(q, base)
        digits.append(d)
    return Decomposition(r, tuple(digits))


# Both walks take several base digits per step through per-base tables of at
# most _TABLE_SIZE entries, built on first use per base from the per-digit
# rules.  The rank walk also keeps the powers of its step up to the first
# above 2^64, so that it can start at the highest chunk of a value.
_TABLE_SIZE = 256


def _chunk_rank(c: int, base: int):
    """(zero-one values below c, whether c has a digit above 1): the per-digit walk.

    From the low digit up, a digit 1 at position i adds 2^i, and a digit
    above 1 frees every lower digit, so the count restarts at 2^(i+1).
    """
    below = 0
    big = False
    bit = 1
    while c:
        c, d = divmod(c, base)
        if d == 1:
            below += bit
        elif d:
            below = bit << 1
            big = True
        bit <<= 1
    return below, big


@lru_cache(maxsize=64)
def _rank_table(base: int):
    """(step, k, powers, table) for the rank walk in the base.

    step = base^k for the largest k >= 1 with base^k <= 256, or k = 1 above
    base 256; powers = step^0 .. step^J, step^J the first power above 2^64;
    table = ``_chunk_rank`` of each chunk below min(step, 256).
    """
    step, k = base, 1
    while step * base <= _TABLE_SIZE:
        step *= base
        k += 1
    powers = [1]
    while powers[-1] <= 1 << 64:
        powers.append(powers[-1] * step)
    return step, k, tuple(powers), tuple(_chunk_rank(c, base) for c in range(min(step, _TABLE_SIZE)))


@lru_cache(maxsize=64)
def _bits_table(base: int):
    """(base^8, the bits of each byte read in the base)."""
    powers = [base ** i for i in range(8)]
    table = tuple(sum(p for i, p in enumerate(powers) if b >> i & 1) for b in range(_TABLE_SIZE))
    return powers[-1] * base, table


def _binary_in_base(n: int, base: int) -> int:
    """The binary digits of n >= 0 read in the given base, one byte per step."""
    step, table = _bits_table(base)
    result = 0
    power = 1
    while n:
        result += table[n & 255] * power
        n >>= 8
        power *= step
    return result


def _walk_rank(x: int, walk):
    """(how many zero-one values lie below x, whether x is one), for x >= 0,
    with ``walk`` the base's ``_rank_table``.

    One walk from the high end, k base digits per step: each chunk adds the
    count of the zero-one chunks below it, shifted past the lower chunks; at
    the first chunk with a digit above 1 every lower digit is free, so the
    walk stops there.  Above base 256 a chunk is one digit, and a digit
    c >= 256 counts as 2.  A value of step^J or more is split into parts of
    J chunks, walked from the highest part down.
    """
    _, k, powers, table = walk
    if x >= powers[-1]:
        return _wide_rank(x, walk)
    j = bisect_right(powers, x)
    count = 0
    while j:
        j -= 1
        c, x = divmod(x, powers[j])
        below, big = table[c] if c < _TABLE_SIZE else (2, True)
        count = (count << k) + below
        if big:
            return count << k * j, False
    return count, True


def _wide_rank(x: int, walk):
    """``_walk_rank`` of x >= step^J, split by divmod into parts of J chunks
    below a highest part: the highest is walked first, and each lower part
    only while every part above it is zero-one.  No cache grows with x."""
    _, k, powers, _ = walk
    top = powers[-1]
    width = k * (len(powers) - 1)
    lows = []
    while x >= top:
        x, low = divmod(x, top)
        lows.append(low)
    count, member = _walk_rank(x, walk)
    while lows and member:
        below, member = _walk_rank(lows.pop(), walk)
        count = (count << width) + below
    return count << width * len(lows), member


def _is_zero_one(x: int, base: int) -> bool:
    """Whether x >= 0 has only 0/1 digits: the chunks of ``_rank_table``
    read from the low end, stopped at the first with a digit above 1.  With
    no count to keep, the low end needs no bisect and only the one divisor,
    which measured faster than the top-down walk on membership queries."""
    step, _, _, table = _rank_table(base)
    while x:
        x, c = divmod(x, step)
        if c >= _TABLE_SIZE or table[c][1]:
            return False
    return True


def zero_one_nth(coefficients: CoefficientTuple, n: int) -> int:
    """n-th member (0-indexed): write n in binary, read it in base weight+1."""
    require_valid(coefficients)
    if n < 0:
        raise ValueError("index must be nonnegative")
    result = _binary_in_base(n, coefficients.base)
    if result >= VALUE_LIMIT:
        raise Overflow(f"term does not fit in 63 bits")
    return result


def zero_one_prefix(coefficients: CoefficientTuple, count: int):
    """zero_one_nth(coefficients, n) for n = 0 .. count-1, with one validity check."""
    if count > 0:
        require_valid(coefficients)
    base = coefficients.base
    for n in range(count):
        result = _binary_in_base(n, base)
        if result >= VALUE_LIMIT:
            raise Overflow("term does not fit in 63 bits")
        yield result


def zero_one_contains(coefficients: CoefficientTuple, x: int) -> bool:
    """True iff every base-(weight+1) digit of x is 0 or 1."""
    require_valid(coefficients)
    return x >= 0 and _is_zero_one(x, coefficients.base)


def _digits(x: int, base: int):
    """Base digits of x, least significant first; used by the DP oracle only."""
    out = []
    while x:
        x, d = divmod(x, base)
        out.append(d)
    return out


def _count_zero_one_below_dp(n: int, base: int) -> int:
    """Independent check of the digit walk: a position/tight DP over the
    digits, most significant first, in a loop, so any digit count fits."""
    if n <= 0:
        return 0
    # Zero-one digit strings of the positions so far: equal to n's (tight)
    # and already below n's (loose).
    tight, loose = 1, 0
    for digit in reversed(_digits(n, base)):
        below = sum(v < digit for v in (0, 1))  # choices that drop below n here
        loose, tight = 2 * loose + below * tight, tight if digit in (0, 1) else 0
    return loose


def count_zero_one_below(coefficients: CoefficientTuple, n: int) -> int:
    """Exact count of zero-one family members strictly below n."""
    require_valid(coefficients)
    return _walk_rank(n, _rank_table(coefficients.base))[0] if n > 0 else 0


def count_zero_one_below_dp(coefficients: CoefficientTuple, n: int) -> int:
    """Same count via the independent digit DP (for cross-checking)."""
    require_valid(coefficients)
    return _count_zero_one_below_dp(n, coefficients.base)


@dataclass(frozen=True, repr=False)
class ClosedForm:
    """Members are scale * v + r, v with 0/1 digits in the base, r a residue.

    Residues are stored sorted and deduplicated; they must include 0 as the
    least and stay below the scale, which makes ``nth`` strictly increasing.
    Equality and hash go by the base, scale and residues, not the tuple.
    """

    base: int
    scale: int
    residues: tuple
    coefficients: CoefficientTuple | None = field(default=None, compare=False)
    _walk: tuple = field(init=False, compare=False)  # the base's _rank_table

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.scale < 1:
            raise ValueError("scale must be positive")
        rs = tuple(sorted(set(self.residues)))
        if not rs or rs[0] != 0:
            raise ValueError("residues must include 0")
        if rs[-1] >= self.scale:
            raise ValueError("residues must be below the scale")
        if self.coefficients is not None:
            require_valid(self.coefficients)
            if self.coefficients.base != self.base:
                raise ValueError("base must equal the tuple weight plus one")
        object.__setattr__(self, "residues", rs)
        object.__setattr__(self, "_walk", _rank_table(self.base))

    def __repr__(self):
        return f"ClosedForm({self.text()!r})"

    @classmethod
    def from_text(cls, text: str, coefficients=None) -> "ClosedForm":
        """Parse the report syntax ``c=<int> base=<int> R=<csv>``, each field
        given once (``tuples.parse_fields``)."""
        fields = parse_fields(text, "closed form")
        try:
            scale = int(fields["c"])
            base = int(fields["base"])
            residues = [int(v) for v in fields["R"].split(",")]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"cannot parse closed form {text!r}") from exc
        return cls(base, scale, residues, coefficients)

    def text(self) -> str:
        return f"c={self.scale} base={self.base} R={','.join(str(r) for r in self.residues)}"

    def nth(self, n: int) -> int:
        """n-th member in increasing order (0-indexed)."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        q, s = divmod(n, len(self.residues))
        value = self.scale * _binary_in_base(q, self.base) + self.residues[s]
        if value >= VALUE_LIMIT:
            raise Overflow("term does not fit in 63 bits")
        return value

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        q, s = divmod(x, self.scale)
        rs = self.residues
        i = bisect_left(rs, s)
        return i < len(rs) and rs[i] == s and _is_zero_one(q, self.base)

    def count_below(self, n: int) -> int:
        """Exact count of members strictly below n, by one digit walk.

        With n = scale*q + s, every residue pairs with each zero-one v < q,
        and the residues below s also pair with v = q when q is zero-one.
        """
        if n <= 0:
            return 0
        q, s = divmod(n, self.scale)
        below, member = _walk_rank(q, self._walk)
        return len(self.residues) * below + (bisect_left(self.residues, s) if member else 0)

    def count_below_dp(self, n: int) -> int:
        """Independent digit-DP version of count_below (for cross-checking)."""
        total = 0
        for r in self.residues:
            if n <= r:
                continue
            bound = (n - r - 1) // self.scale + 1
            total += _count_zero_one_below_dp(bound, self.base)
        return total


def popcount_residue_pair(coefficients: CoefficientTuple, n: int):
    """(popcount(n) mod weight, n-th zero-one member mod weight); equality is the tested law."""
    d = coefficients.weight
    return (n.bit_count() % d, zero_one_nth(coefficients, n) % d)


def thue_morse_bit(n: int) -> int:
    """Parity of the number of 1-bits of n."""
    return n.bit_count() & 1
