"""Exact periodic interval patterns on the line (arcs on a circle).

An IntervalPattern is an L-periodic union of open intervals with exact
real endpoints, stored per period as disjoint open subintervals of
[0, L] plus one bit: whether the wrap point 0 = L belongs to the set.
An arc crossing the seam is stored split, so the bit is allowed only
when the first interval starts at 0 and the last ends at L; under that
invariant the patterns are exactly the finite unions of open arcs on
the circle R/LZ, the class is closed under rotation, and equal sets
have equal representations.

Everything here is decided by exact endpoint arithmetic: invariance is
equality after rotation, the fundamental period is the least invariant
shift among a finite candidate set (any invariant shift must map the
finite endpoint set to itself, so endpoint differences exhaust the
possibilities), and symmetric-difference measure is an endpoint sweep.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

from .errors import EmptyPattern, FullLine, ModulusMismatch
from .exactreal import ExactReal

RealLike = Union[ExactReal, int, Fraction]


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
        if L.sign() <= 0:
            raise ValueError("modulus must be positive")
        ivs = [(_as_real(a), _as_real(b)) for a, b in intervals]
        zero = ExactReal.rational(0)
        prev_hi = zero
        for a, b in ivs:
            if a.sign() < 0 or (b - a).sign() <= 0 or (L - b).sign() < 0:
                raise ValueError(f"bad interval ({a}, {b}) for modulus {L}")
            if (a - prev_hi).sign() < 0:
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

    def measure(self) -> ExactReal:
        total = ExactReal.rational(0)
        for a, b in self.intervals:
            total = total + (b - a)
        return total

    def endpoints(self) -> list[ExactReal]:
        out = []
        for a, b in self.intervals:
            out.append(a)
            out.append(b)
        return out


def rotate(pattern: IntervalPattern, alpha: RealLike) -> IntervalPattern:
    """The pattern shifted by alpha, renormalized; an exact bijection.

    The seam image (the point that lands on 0) dictates the new wrap
    bit; the image of the old seam point glues its two shifted
    neighbors back together.  Measure is preserved exactly.
    """
    alpha = _as_real(alpha)
    L = pattern.modulus
    step = alpha - L.scale((alpha / L).floor())
    if step.is_zero():
        return pattern
    if not pattern.intervals:
        return pattern
    zero = ExactReal.rational(0)
    pieces: list[tuple[ExactReal, ExactReal]] = []
    for a, b in pattern.intervals:
        a2, b2 = a + step, b + step
        if (b2 - L).sign() <= 0:
            pieces.append((a2, b2))
        elif (a2 - L).sign() >= 0:
            pieces.append((a2 - L, b2 - L))
        else:
            pieces.append((a2, L))
            pieces.append((zero, b2 - L))
    pieces.sort(key=itemgetter(0))
    # seam point of the result comes from the preimage of 0
    w = L - step
    new_wrap = any((w - a).sign() > 0 and (b - w).sign() > 0 for a, b in pattern.intervals)
    # the old seam point lands at `step`: glue the split it left behind
    if pattern.wrap_point:
        for i in range(len(pieces) - 1):
            if pieces[i][1] == step and pieces[i + 1][0] == step:
                pieces[i : i + 2] = [(pieces[i][0], pieces[i + 1][1])]
                break
    return IntervalPattern(L, pieces, wrap_point=new_wrap)


def is_invariant(pattern: IntervalPattern, t: RealLike) -> bool:
    """Exact test of pattern + t = pattern (canonical forms compared)."""
    return rotate(pattern, t) == pattern


def fundamental_period(pattern: IntervalPattern) -> ExactReal:
    """Least t > 0 with pattern + t = pattern; every period is a multiple.

    Any invariant shift permutes the finite endpoint set mod L, so the
    endpoint differences (plus L/j for divisors j of the interval count,
    plus L itself) form a complete candidate list; the smallest
    invariant candidate is the fundamental period, and L is always
    invariant, so the search cannot come up empty.
    """
    if pattern.is_full_line():
        raise FullLine("every real is a period of the full line")
    if pattern.is_empty():
        raise EmptyPattern("the empty pattern has no fundamental period")
    L = pattern.modulus
    candidates: list[ExactReal] = [L]
    points = pattern.endpoints()
    for e1 in points:
        for e2 in points:
            d = e1 - e2
            if d.sign() == 0:
                continue
            d = d - L.scale((d / L).floor())
            if d.sign() > 0 and not any(d == c for c in candidates):
                candidates.append(d)
    n = len(pattern.intervals)
    for j in range(2, n + 1):
        if n % j == 0:
            d = L.scale(Fraction(1, j))
            if not any(d == c for c in candidates):
                candidates.append(d)
    candidates.sort()
    for t in candidates:
        if is_invariant(pattern, t):
            return t
    raise AssertionError("modulus itself must be invariant")


def symdiff_measure(p: IntervalPattern, q: IntervalPattern) -> ExactReal:
    """Exact measure per period of (P minus Q) union (Q minus P).

    Endpoint sweep: between consecutive endpoint values the membership
    of each pattern is constant, so each cell contributes its full
    length or nothing.  Wrap bits carry no measure and are ignored.
    """
    if p.modulus != q.modulus:
        raise ModulusMismatch(f"moduli differ: {p.modulus} vs {q.modulus}")
    events = [ExactReal.rational(0), p.modulus]
    for pat in (p, q):
        events.extend(pat.endpoints())
    events.sort()
    distinct: list[ExactReal] = []
    for e in events:
        if not distinct or distinct[-1] != e:
            distinct.append(e)

    def covered(pat: IntervalPattern, lo: ExactReal, hi: ExactReal) -> bool:
        return any(
            (lo - a).sign() >= 0 and (b - hi).sign() >= 0 for a, b in pat.intervals
        )

    total = ExactReal.rational(0)
    for lo, hi in zip(distinct, distinct[1:]):
        if covered(p, lo, hi) != covered(q, lo, hi):
            total = total + (hi - lo)
    return total
