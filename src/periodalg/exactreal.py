"""Exact arithmetic in multiquadratic fields Q(sqrt(d1), ..., sqrt(dr)).

Elements are finite rational combinations of square roots of distinct
squarefree positive integers, stored on one integer denominator: a
positive `den` and an integer numerator per radicand, reduced so that
gcd(den, *nums) == 1 (the usual number-field layout, Cohen, *A Course
in Computational Algebraic Number Theory*, 1993, ch. 4).  Ring
operations are integer operations with one gcd to reduce; summands on
one denominator, as a pattern's ends usually are, need no lcm.
Because the roots are linearly independent over Q, an element is zero
exactly when it has no numerator, and the reduced form is unique, which
makes equality, sign, floor, and commensurability decidable with no
floating point anywhere in a decision path.  Nonzero signs are
determined by adaptive dyadic interval refinement with an exact zero
short-circuit, and floors and partial quotients by one Euclid on the
ends of dyadic enclosures (`quotients`).  Order comparisons are
filtered: each value keeps its 64-bit enclosure (its box) once first
needed, disjoint boxes decide, and only overlapping ones take the
exact sign test.  `sign()` starts from the box.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import DivisionByZero, SizeLimit

RationalLike = int | Fraction

INITIAL_PRECISION = 64
MAX_RADICAND = 10**18
# the most decimal digits a result integer may have: the library's own
# limit, where the interpreter's integer string limit is a setting
MAX_DIGITS = 4300
MAX_BITS = MAX_DIGITS * 3321928 // 10**6  # 2^MAX_BITS < 10^MAX_DIGITS < 2^(MAX_BITS+1)


def _check_digits(what: str, *ns: int, at: int | None = None) -> None:
    """Raise SizeLimit naming `what` (and `at`, when given) if some |n|
    has more than MAX_DIGITS decimal digits; only one of more than
    MAX_BITS bits is compared with the power."""
    if any(n.bit_length() > MAX_BITS and abs(n) >= 10**MAX_DIGITS for n in ns):
        label = what if at is None else f"{what} {at}"
        raise SizeLimit(f"{label} exceeds the limit of {MAX_DIGITS} digits")


def _squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of n with n/d a perfect square.

    Trial division stops once p^3 > n: the cofactor left has no prime
    factor below p and is less than p^3, so it is 1, q, q*r or q^2 for
    primes q, r >= p, and one square test tells q^2 from the rest.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    out = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    return out if r * r == n else out * n


@lru_cache(maxsize=None)
def _radicand_part(n: int) -> int:
    """`_squarefree_part` of n <= MAX_RADICAND, in at most 5*10^5 trial
    divisions and once per n, since every basis and `sqrt` that reads n
    asks again; a larger n raises SizeLimit before the first one."""
    if n > MAX_RADICAND:
        raise SizeLimit(f"radicand exceeds the limit of {MAX_RADICAND}")
    return _squarefree_part(n)


@lru_cache(maxsize=None)
def _decimal_context(digits: int) -> Context:
    # no exponent limit: a value past 10^999999 is written too
    return Context(prec=digits, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)


@lru_cache(maxsize=None)
def _sqrt_floor_scaled(d: int, prec: int) -> int:
    # s with s <= sqrt(d) * 2^prec < s + 1
    return isqrt(d << (2 * prec))


class RadicalBasis(tuple):
    """Ordered tuple of distinct squarefree radicands, always starting at 1.

    It orders the coordinates of lattices and formula domains.  An
    `ExactReal` carries none: its numerators are keyed by radicand.
    """

    __slots__ = ()

    def __new__(cls, radicands: Iterable[int]) -> "RadicalBasis":
        rads = sorted(set(map(operator.index, radicands)) | {1})
        for d in rads:
            if _radicand_part(d) != d:  # raises for d <= 0 or too large
                raise ValueError(f"radicand {d} is not squarefree")
        return super().__new__(cls, rads)

    @property
    def radicands(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"RadicalBasis({list(self)})"

    def merge(self, other: "RadicalBasis") -> "RadicalBasis":
        if self == other:
            return self
        return RadicalBasis(self + other)


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ExactReal:
    """Immutable element of a multiquadratic field.

    The value is sum(nums[d] * sqrt(d)) / den: `den` is a positive int,
    `nums` maps squarefree radicand -> nonzero int, absent keys mean 0,
    and gcd(den, *nums) == 1, so each value has one representation
    (zero is den 1 with no nums).  `coords` is a read-only view of the
    same value as radicand -> Fraction.  The basis passed to
    `ExactReal(basis, coords)` is only checked: every radicand must be
    in it.  `_box` keeps the 64-bit enclosure once `_boxed` computes it.
    Division is multiplication by the inverse, so every zero divisor
    fails in `invert`.
    """

    __slots__ = ("den", "nums", "_box")

    def __init__(self, basis: RadicalBasis, coords: Mapping[int, RationalLike]):
        clean: dict[int, tuple[int, int]] = {}
        for d, c in coords.items():
            if d not in basis:
                raise ValueError(f"radicand {d} not in basis {basis.radicands}")
            if type(c) is int:
                n, q = c, 1
            else:
                f = _as_fraction(c)
                n, q = f.numerator, f.denominator
            if n:
                clean[int(d)] = n, q
        # the lcm of reduced denominators leaves gcd(den, *nums) == 1
        den = lcm(*(q for _, q in clean.values()))
        self.den: int = den
        self.nums: dict[int, int] = {d: n * (den // q) for d, (n, q) in clean.items()}
        self._box: tuple[int, int] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, den: int, nums: dict[int, int]) -> "ExactReal":
        """An element owning nums, whose keys are squarefree and whose
        values are nonzero ints with gcd(den, *nums) == 1, den > 0;
        nothing is checked or copied."""
        self = object.__new__(cls)
        self.den = den
        self.nums = nums
        self._box = None
        return self

    @classmethod
    def _reduced(cls, den: int, nums: dict[int, int]) -> "ExactReal":
        """`_of` after dividing out gcd(den, *nums), for den > 0 and
        nums with no zero value."""
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {d: n // g for d, n in nums.items()}
        return cls._of(den, nums)

    @classmethod
    def rational(cls, q: RationalLike) -> "ExactReal":
        if type(q) is int:
            return cls._of(1, {1: q} if q else {})
        f = _as_fraction(q)
        return cls._of(f.denominator, {1: f.numerator} if f else {})

    @classmethod
    def sqrt(cls, n: int) -> "ExactReal":
        """sqrt(n) for a positive integer, normalized: sqrt(8) = 2*sqrt(2)."""
        n = operator.index(n)
        d = _radicand_part(n)
        return cls._of(1, {d: isqrt(n // d)})

    @property
    def coords(self) -> dict[int, Fraction]:
        """radicand -> nonzero Fraction, in the order of `nums`; a copy."""
        den = self.den
        return {d: Fraction(n, den) for d, n in self.nums.items()}

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        return self.nums.keys() <= {1}

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(self.nums.get(1, 0), self.den)

    # -- ring operations -----------------------------------------------

    def _sum(self, other: "ExactReal", sign: int) -> "ExactReal":
        """self + sign*other.  A coordinate of other that self has too
        moves to the end, as if popped and put back, in nums and so in
        `coords`."""
        a, b = self.den, other.den
        if a == b:
            den, fb = a, sign
            nums = dict(self.nums)
        else:
            g = gcd(a, b)
            fa, fb = b // g, sign * (a // g)
            den = a * fa
            nums = {d: n * fa for d, n in self.nums.items()}
        for d, n in other.nums.items():
            s = nums.pop(d, 0) + n * fb
            if s:
                nums[d] = s
        return ExactReal._reduced(den, nums)

    def __add__(self, other) -> "ExactReal":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._sum(other, 1)

    def __radd__(self, other) -> "ExactReal":
        # other's coordinate comes first, as in other + self
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._sum(self, 1)

    def __neg__(self) -> "ExactReal":
        return ExactReal._of(self.den, {d: -n for d, n in self.nums.items()})

    def __sub__(self, other) -> "ExactReal":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other) -> "ExactReal":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._sum(self, -1)

    def scale(self, q: RationalLike) -> "ExactReal":
        """Multiply by a rational scalar."""
        if isinstance(q, int):
            p, r = q, 1
        else:
            f = _as_fraction(q)
            p, r = f.numerator, f.denominator
        if not p:
            return ExactReal._of(1, {})
        return ExactReal._reduced(self.den * r, {d: n * p for d, n in self.nums.items()})

    def __mul__(self, other) -> "ExactReal":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ExactReal):
            return NotImplemented
        nums: dict[int, int] = {}
        for a, na in self.nums.items():
            for b, nb in other.nums.items():
                # sqrt(a)*sqrt(b) = g*sqrt(d), and d is squarefree: a/g
                # and b/g are squarefree and coprime
                g = gcd(a, b)
                d = (a // g) * (b // g)
                nums[d] = nums.get(d, 0) + na * nb * g
        return ExactReal._reduced(self.den * other.den, {d: n for d, n in nums.items() if n})

    def __rmul__(self, other) -> "ExactReal":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "ExactReal":
        """Exact reciprocal, by conjugation on a common factor.

        gcd refinement over the radicands finds a c > 1 that divides
        each radicand or is coprime to it.  Split x = a + b where b
        collects the radicands divisible by c and a the rest; then
        x * (a - b) = a^2 - b^2 has every radicand coprime to c, so
        recursion strips the primes of c per level and bottoms out at a
        rational.  Every step works on the numerators alone.
        """
        if self.is_zero():
            raise DivisionByZero("invert of zero element")
        return _invert(self)

    def __truediv__(self, other) -> "ExactReal":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other) -> "ExactReal":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.invert().scale(other)

    # -- order ----------------------------------------------------------

    def sign(self) -> int:
        """-1, 0, or +1; exact.

        Zero is decided structurally (all coordinates zero).  Otherwise a
        dyadic enclosure is refined, doubling precision from the 64-bit
        box, until it excludes zero.  This terminates with no cap: a
        nonzero value is a fixed distance from zero, and the enclosure
        width halves with every extra bit.
        """
        if not self.nums:
            return 0
        if self.is_rational():
            return -1 if self.nums[1] < 0 else 1
        lo, hi = self._boxed()
        prec = INITIAL_PRECISION
        while lo <= 0 <= hi:
            prec *= 2
            lo, hi = self._enclosure_scaled(prec)
        return 1 if lo > 0 else -1

    def _boxed(self) -> tuple[int, int]:
        """(lo, hi) with lo <= value * 2^INITIAL_PRECISION <= hi, kept."""
        if self._box is None:
            self._box = self._enclosure_scaled(INITIAL_PRECISION)
        return self._box

    def _cmp(self, other: "ExactReal") -> int:
        """Sign of self - other: disjoint boxes decide, and only
        overlapping ones take the exact sign test."""
        x_lo, x_hi = self._boxed()
        y_lo, y_hi = other._boxed()
        if x_hi < y_lo:
            return -1
        if x_lo > y_hi:
            return 1
        return (self - other).sign()

    def _enclosure_scaled(self, prec: int) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= value * 2^prec <= hi.

        Each coordinate is floored (and ceiled) on its own, so (lo, hi)
        are the sums of the per-coordinate bounds of n*sqrt(d)/den: the
        very integers a reduced Fraction per coordinate gives, since
        floor(n*s/den) does not depend on how n/den is written.
        """
        q = self.den
        lo = 0
        hi = 0
        for d, n in self.nums.items():
            if d == 1:
                n <<= prec
                lo += n // q
                hi -= (-n) // q
                continue
            s = _sqrt_floor_scaled(d, prec)
            # s <= sqrt(d)*2^prec < s+1
            if n > 0:
                lo += (n * s) // q
                hi -= (-n * (s + 1)) // q
            else:
                lo += (n * (s + 1)) // q
                hi -= (-n * s) // q
        return lo, hi

    def floor(self) -> int:
        """Unique n with n <= x < n+1; exact (`x // 1`)."""
        return self // 1

    def __floordiv__(self, other) -> int:
        """floor(self / other), the first partial quotient of
        self/other (`quotients`); exact, with no field inversion."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("floor division by zero")
        return next(quotients(self, other))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # a rational element equals its Fraction, so it hashes as one
        if self.is_rational():
            n = self.nums.get(1, 0)
            return hash(n) if self.den == 1 else hash(Fraction(n, self.den))
        return hash((self.den, tuple(sorted(self.nums.items()))))

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) >= 0

    def __abs__(self) -> "ExactReal":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExactReal({self})"

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts: list[str] = []
        den = self.den
        for d in sorted(self.nums):
            n = self.nums[d]
            g = gcd(n, den)
            n, q = n // g, den // g
            mag = _magnitude_text(n, q)
            if d == 1:
                body = mag
            elif q > 1:
                body = f"({mag})*sqrt({d})"
            elif n == 1 or n == -1:
                body = f"sqrt({d})"
            else:
                body = f"{mag}*sqrt({d})"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def approx_str(self, digits: int = 12) -> str:
        """Decimal rendering, correct to `digits` significant digits.

        The dyadic enclosure is refined until its width is below
        10^-(digits+2) of its low end.  Its midpoint (lo + hi) /
        2^(prec+1) is rounded half up to `digits` significant digits by
        one correctly rounded decimal division, at any exponent, and
        written in fixed point with no trailing zeros after the point.
        Display only; never feeds back into any decision.
        """
        if digits < 1:
            raise ValueError("approx_str needs at least one digit")
        if self.is_zero():
            return "0"
        prec = INITIAL_PRECISION
        while True:
            lo, hi = self._enclosure_scaled(prec)
            if lo * hi > 0 and (hi - lo) * 10 ** (digits + 2) < abs(lo):
                break
            prec *= 2
        text = format(_decimal_context(digits).divide(lo + hi, 1 << (prec + 1)), "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text


def _magnitude_text(n: int, q: int) -> str:
    """|n|/q as `str(abs(Fraction(n, q)))` writes it, with no Fraction."""
    m = str(-n if n < 0 else n)
    return m if q == 1 else f"{m}/{q}"


def _coerce(x) -> "ExactReal":
    if isinstance(x, ExactReal):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactReal.rational(x)
    return NotImplemented


def _invert(x: ExactReal) -> ExactReal:
    # pre: x nonzero
    if x.is_rational():
        n = x.nums[1]
        return ExactReal._of(-n if n < 0 else n, {1: -x.den if n < 0 else x.den})
    # a c > 1 that divides each radicand or is coprime to it: one pass of
    # gcd refinement keeps that true for the radicands already passed
    c = max(x.nums)
    for d in x.nums:
        if gcd(c, d) > 1:
            c = gcd(c, d)
    a_nums: dict[int, int] = {}
    b_nums: dict[int, int] = {}
    for d, k in x.nums.items():
        (b_nums if d % c == 0 else a_nums)[d] = k
    a = ExactReal._reduced(x.den, a_nums)
    b = ExactReal._reduced(x.den, b_nums)
    # x * (a - b) = a^2 - b^2, whose radicands are all coprime to c: for
    # c | d1, c | d2 the squarefree part of d1*d2 loses the c^2.  Each
    # step drops the primes of c, so the recursion ends.
    return (a - b) * _invert(a * a - b * b)


# -- module-level operation surface -------------------------------------


def commensurable(x: ExactReal, y: ExactReal) -> Fraction | None:
    """Rational ratio x/y in lowest terms, or None if x/y is irrational.

    Exact: x/y is rational iff the coordinate vectors are parallel over Q,
    which reduces to support equality plus one common ratio, tested on
    the numerators by cross-multiplication.
    """
    if x.is_zero() or y.is_zero():
        raise DivisionByZero("commensurability is undefined for zero")
    xs, ys = x.nums, y.nums
    if xs.keys() != ys.keys():
        return None
    d0 = next(iter(ys))
    a, b = xs[d0], ys[d0]
    for d, n in ys.items():
        if xs[d] * b != a * n:
            return None
    return Fraction(a * y.den, b * x.den)


def quotients(x: ExactReal, y: ExactReal) -> Iterator[int]:
    """Partial quotients a_0 = floor(x/y), a_1, ... of x/y; y != 0.

    A rational x/y runs Euclid on its numerator and denominator.  An
    irrational one runs Euclid in lockstep on the least and the greatest
    ratio of the enclosures of x and y at 2^prec, which x/y lies
    strictly between; r -> 1/(r - a) is monotone between two ends that
    share a, so each quotient they share is x/y's, yielded at once.
    When they part, or while y's enclosure holds 0, prec doubles from
    INITIAL_PRECISION and Euclid restarts past the quotients yielded.
    """
    c = Fraction(0) if x.is_zero() else commensurable(x, y)
    if c is not None:
        n, d = c.numerator, c.denominator
        while d:
            a, r = divmod(n, d)
            yield a
            n, d = d, r
        return
    done = 0
    prec = INITIAL_PRECISION
    while True:
        x_lo, x_hi = x._enclosure_scaled(prec)
        y_lo, y_hi = y._enclosure_scaled(prec)
        prec *= 2
        if y_hi < 0:  # x/y = (-x)/(-y)
            x_lo, x_hi, y_lo, y_hi = -x_hi, -x_lo, -y_hi, -y_lo
        if y_lo <= 0:
            continue
        # the least and the greatest ratio of the two enclosures
        n_lo, d_lo = x_lo, y_hi if x_lo >= 0 else y_lo
        n_hi, d_hi = x_hi, y_lo if x_hi >= 0 else y_hi
        k = 0  # quotients shared at this prec
        while d_lo and d_hi:
            a, r_lo = divmod(n_lo, d_lo)
            if n_hi // d_hi != a:
                break
            if k == done:
                yield a
                done += 1
            k += 1
            n_lo, d_lo, n_hi, d_hi = d_lo, r_lo, d_hi, n_hi - a * d_hi
