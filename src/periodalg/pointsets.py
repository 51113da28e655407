"""Exact periodic interval patterns on the line (arcs on a circle).

An IntervalPattern is an L-periodic union of open intervals with exact
real endpoints, stored per period as disjoint open subintervals of
[0, L] plus one bit: whether the wrap point 0 = L belongs to the set.
An arc crossing the seam is stored split, so the bit is allowed only
when the first interval starts at 0 and the last ends at L; under that
invariant the patterns are exactly the finite unions of open arcs on
the circle R/LZ, the class is closed under rotation, and equal sets
have equal representations.

Everything here is decided by exact endpoint arithmetic.  Order
comparisons are `ExactReal`'s: the 64-bit boxes the endpoints keep
decide, and only overlapping ones take an exact sign test.  Invariance
is equality after rotation.  The fundamental period is L/k for the
largest divisor k of the arc count n under whose rotation each arc j
lands on arc j + n/k; that is checked by equality alone, with no sign
test and no rotation.  Symmetric-difference measure is one merge sweep
over both sorted endpoint lists.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .errors import EmptyPattern, FullLine, ModulusMismatch
from .exactreal import ExactReal

RealLike = ExactReal | int | Fraction


def _as_real(x: RealLike) -> ExactReal:
    if isinstance(x, ExactReal):
        return x
    return ExactReal.rational(x)


class IntervalPattern:
    """Canonical L-periodic open set given by one period's intervals."""

    __slots__ = ("modulus", "intervals", "wrap_point")

    def __init__(
        self,
        modulus: RealLike,
        intervals: Iterable[tuple[RealLike, RealLike]],
        wrap_point: bool = False,
    ):
        L = _as_real(modulus)
        if L <= 0:
            raise ValueError("modulus must be positive")
        ivs = [(_as_real(a), _as_real(b)) for a, b in intervals]
        zero = ExactReal.rational(0)
        prev_hi = zero
        for a, b in ivs:
            if a < zero or b <= a or L < b:
                raise ValueError(f"bad interval ({a}, {b}) for modulus {L}")
            if a < prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = b
        if wrap_point:
            if not ivs or ivs[0][0] != zero or ivs[-1][1] != L:
                raise ValueError(
                    "wrap_point requires coverage on both sides of the seam"
                )
        self.modulus = L
        self.intervals: tuple[tuple[ExactReal, ExactReal], ...] = tuple(ivs)
        self.wrap_point = bool(wrap_point)

    @classmethod
    def _canonical(cls, modulus, intervals, wrap_point) -> "IntervalPattern":
        """A pattern from parts already known to satisfy every check above."""
        self = object.__new__(cls)
        self.modulus = modulus
        self.intervals = intervals
        self.wrap_point = wrap_point
        return self

    # -- basics -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalPattern)
            and self.modulus == other.modulus
            and self.wrap_point == other.wrap_point
            and self.intervals == other.intervals
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.intervals, self.wrap_point))

    def __repr__(self) -> str:
        body = " u ".join(f"({a}, {b})" for a, b in self.intervals) or "{}"
        tail = " +wrap" if self.wrap_point else ""
        return f"IntervalPattern({body} mod {self.modulus}{tail})"

    def is_empty(self) -> bool:
        return not self.intervals

    def is_full_line(self) -> bool:
        return (
            self.wrap_point
            and len(self.intervals) == 1
            and self.intervals[0][0].is_zero()
            and self.intervals[0][1] == self.modulus
        )

    def endpoints(self) -> list[ExactReal]:
        out = []
        for a, b in self.intervals:
            out.append(a)
            out.append(b)
        return out


def rotate(pattern: IntervalPattern, alpha: RealLike) -> IntervalPattern:
    """The pattern shifted by alpha, renormalized; an exact bijection.

    The shift is reduced to step = alpha - (alpha // L)*L in [0, L) by
    the exact floor of a quotient, with no field inversion.  Shifting
    by step moves the intervals that pass L to the front, so the result
    is a cyclic shift of the input order and needs no sort.  The new
    seam point is covered exactly when an interval is split at L, and
    the image of the old seam point, when covered, joins the last
    wrapped piece to the first unwrapped one.  Measure is preserved
    exactly.
    """
    alpha = _as_real(alpha)
    L = pattern.modulus
    step = alpha - L.scale(alpha // L)
    if step.is_zero():
        return pattern
    zero = ExactReal.rational(0)
    wrapped: list[tuple[ExactReal, ExactReal]] = []
    unwrapped: list[tuple[ExactReal, ExactReal]] = []
    split = False
    for a, b in pattern.intervals:
        a2, b2 = a + step, b + step
        if b2 <= L:
            unwrapped.append((a2, b2))
        elif a2 >= L:
            wrapped.append((a2 - L, b2 - L))
        else:
            # the one interval over the new seam: every interval before
            # it stays below L and every one after it wraps
            unwrapped.append((a2, L))
            wrapped.append((zero, b2 - L))
            split = True
    if pattern.wrap_point:
        # the last input interval ends at L + step and the first starts
        # at step: glue them where the old seam point landed
        unwrapped[0] = (wrapped.pop()[0], unwrapped[0][1])
    return IntervalPattern._canonical(L, tuple(wrapped + unwrapped), split)


def is_invariant(pattern: IntervalPattern, t: RealLike) -> bool:
    """Exact test of pattern + t = pattern (canonical forms compared)."""
    return rotate(pattern, t) == pattern


def fundamental_period(pattern: IntervalPattern) -> ExactReal:
    """Least t > 0 with pattern + t = pattern; every period is a multiple.

    The invariant shifts mod L form a finite cyclic group of rotations,
    generated by L/K.  A nonzero rotation maps no arc onto itself, so
    the group permutes the pattern's n arcs freely and K divides n; the
    answer is L/k for the largest divisor k of n under which the
    pattern is invariant, or L when there is none.

    With the arcs (a_j, b_j) sorted by start in [0, L), the seam-crossing
    one as (a, L + b), a rotation by t = L/k keeps their cyclic order,
    and each of the k translates of [a_0, a_0 + t) holds n/k starts: an
    invariant rotation maps arc j to arc j + n/k, shifted by t, or to
    arc j + n/k - n, shifted by t - L.  Those n equalities of exact
    reals decide invariance, with no sign test.
    """
    if pattern.is_full_line():
        raise FullLine("every real is a period of the full line")
    if pattern.is_empty():
        raise EmptyPattern("the empty pattern has no fundamental period")
    L = pattern.modulus
    arcs = pattern.intervals
    if pattern.wrap_point:  # the seam-crossing arc is stored as two intervals
        arcs = arcs[1:-1] + ((arcs[-1][0], arcs[0][1] + L),)
    n = len(arcs)
    for k in range(n, 1, -1):
        if n % k:
            continue
        t = L.scale(Fraction(1, k))
        s, back = n // k, t - L
        if all(
            arcs[j + s] == (a + t, b + t) if j + s < n else arcs[j + s - n] == (a + back, b + back)
            for j, (a, b) in enumerate(arcs)
        ):
            return t
    return L


def symdiff_measure(p: IntervalPattern, q: IntervalPattern) -> ExactReal:
    """Exact measure per period of (P minus Q) union (Q minus P).

    One merge of the two sorted endpoint lists, taking p's endpoint
    first on a tie.  Each endpoint toggles its own pattern's membership,
    and both patterns are outside before the first, so exactly one
    covers the cells from the (2i)-th merged endpoint to the next: the
    measure is their alternating sum, taken in integers over the ends'
    common denominator, with one gcd at the end.  Linear in the number
    of intervals.  Wrap bits carry no measure and are ignored.
    """
    if p.modulus != q.modulus:
        raise ModulusMismatch(f"moduli differ: {p.modulus} vs {q.modulus}")
    xs, ys = p.endpoints(), q.endpoints()
    merged = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            merged.append(xs[i])
            i += 1
        else:
            merged.append(ys[j])
            j += 1
    merged += xs[i:] + ys[j:]
    den = lcm(*(x.den for x in merged))
    sums: dict[int, int] = {}
    for k, x in enumerate(merged):
        f = den // x.den if k & 1 else -(den // x.den)
        for d, n in x.nums.items():
            sums[d] = sums.get(d, 0) + n * f
    return ExactReal._reduced(den, {d: n for d, n in sums.items() if n})
