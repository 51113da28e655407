"""Constructive Diophantine approximation over exact reals.

Continued fractions are computed with exact floors and exact field
inversion, so every quotient and convergent is certain.  On top of them
sit two witness finders: `dirichlet_find` produces integers m, n with
m*T1 + n*T2 within eps of a target (density of T1*Z + T2*Z for an
irrational ratio), and `kronecker_find` produces a simultaneous
approximation q*T - p_i*T_i close to a prescribed displacement.  Both
verify their witnesses by exact sign tests before returning; fast
screening uses rigorous integer interval enclosures, never floats.

`orbit_discrepancy` measures how evenly the rotation orbit {i*alpha}
fills the unit interval, returning a rigorous rational upper bound on
the star discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    Cancelled,
    CommensurableInput,
    DivisionByZero,
    NotFound,
    SearchExhausted,
)
from .exactreal import ExactReal, commensurable

SCREEN_PRECISION = 192


def _check_cancel(cancel) -> None:
    if cancel is not None and cancel.is_set():
        raise Cancelled("search cancelled by caller")


@dataclass(frozen=True)
class ContinuedFraction:
    """Quotients and convergents of x, exact.

    `terminated` marks rational termination: some remainder was an
    integer, so the expansion is complete and shorter than requested.
    """

    x: ExactReal
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    terminated: bool


def continued_fraction(x: ExactReal, depth: int) -> ContinuedFraction:
    """First `depth` quotients of x by exact floor-and-invert steps."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    r = x
    terminated = False
    for _ in range(depth):
        a = r.floor()
        quotients.append(a)
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        convergents.append((p, q))
        p_prev, p_prev2 = p, p_prev
        q_prev, q_prev2 = q, q_prev
        rem = r - a
        if rem.is_zero():
            terminated = True
            break
        r = rem.invert()
    return ContinuedFraction(
        x=x,
        quotients=tuple(quotients),
        convergents=tuple(convergents),
        terminated=terminated,
    )


def _abs_less(u: ExactReal, bound: ExactReal) -> bool:
    """|u| < bound by two exact sign tests."""
    return (bound - u).sign() > 0 and (bound + u).sign() > 0


def dirichlet_find(
    T1: ExactReal,
    T2: ExactReal,
    target: ExactReal,
    eps: ExactReal,
    max_depth: int = 200,
    fallback_bound: int = 2000,
    cancel=None,
) -> tuple[int, int]:
    """Integers (m, n) with |m*T1 + n*T2 - target| < eps, exactly verified.

    Normalize by T1: with theta = T2/T1 irrational, the convergents of
    theta give eta = q*theta - p as small as desired; k copies of eta
    land within |eta|/2 of any prescribed value, so m = -k*p, n = k*q
    works once |eta| < eps/|T1|.  The returned witness is re-checked by
    exact sign tests; a bounded brute-force fallback guards the
    construction but is unreachable for irrational ratios.
    """
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if commensurable(T1, T2) is not None:
        raise CommensurableInput(
            "T1 and T2 are commensurable; T1*Z + T2*Z is discrete, not dense"
        )
    theta = T2 / T1
    tau = target / T1
    delta = abs(eps / T1)

    def verified(m: int, n: int) -> bool:
        u = T1.scale(m) + T2.scale(n) - target
        return _abs_less(u, eps)

    r = theta
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for _ in range(max_depth):
        _check_cancel(cancel)
        a = r.floor()
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        p_prev, p_prev2 = p, p_prev
        q_prev, q_prev2 = q, q_prev
        eta = theta.scale(q) - ExactReal.rational(p)
        if eta.is_zero():  # cannot happen for irrational theta
            break
        if _abs_less(eta, delta):
            k = ((tau / eta) + Fraction(1, 2)).floor()
            m, n = -k * p, k * q
            if verified(m, n):
                return m, n
            break
        r = (r - a).invert()
    # defensive fallback; the constructive route above always succeeds
    for size in range(fallback_bound + 1):
        _check_cancel(cancel)
        for m in range(-size, size + 1):
            for n in (-size, size) if abs(m) != size else range(-size, size + 1):
                if verified(m, n):
                    return m, n
    raise SearchExhausted(fallback_bound)


def kronecker_find(
    T: ExactReal,
    Ts: Sequence[ExactReal],
    delta: ExactReal,
    eps: ExactReal,
    bound: int = 10**6,
    cancel=None,
) -> tuple[int, list[int]] | NotFound:
    """Least q in 1..bound with |q*T - p_i*T_i - delta| < eps for all i.

    Each p_i is the nearest integer to (q*T - delta)/T_i.  The q loop
    screens with rigorous integer enclosures (definite misses are
    skipped wholesale); any candidate that survives is re-derived and
    verified with exact field arithmetic, so a returned witness is
    certain and no true witness is ever skipped.
    """
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if T.is_zero():
        raise DivisionByZero("zero step T")
    for t in Ts:
        if t.is_zero():
            raise DivisionByZero("zero T_i")
    prec = SCREEN_PRECISION
    t_lo, t_hi = T._enclosure_scaled(prec)
    d_lo, d_hi = delta._enclosure_scaled(prec)
    e_lo, e_hi = eps._enclosure_scaled(prec)
    ts_iv = [t._enclosure_scaled(prec) for t in Ts]
    for lo, hi in ts_iv:
        if lo <= 0 <= hi:
            raise AssertionError("enclosure failed to separate T_i from zero")

    def exact_witness(q: int) -> list[int] | None:
        qt = T.scale(q)
        ps = []
        for t in Ts:
            y = (qt - delta) / t
            p = (y + Fraction(1, 2)).floor()
            u = qt - t.scale(p) - delta
            if not _abs_less(u, eps):
                return None
            ps.append(p)
        return ps

    for q in range(1, bound + 1):
        if q % 8192 == 0:
            _check_cancel(cancel)
        n_lo = q * t_lo - d_hi
        n_hi = q * t_hi - d_lo
        definite_fail = False
        ambiguous = False
        for lo, hi in ts_iv:
            y_mid = Fraction(n_lo + n_hi, lo + hi)
            p = (2 * y_mid.numerator + y_mid.denominator) // (2 * y_mid.denominator)
            if p >= 0:
                pt_lo, pt_hi = p * lo, p * hi
            else:
                pt_lo, pt_hi = p * hi, p * lo
            r_lo = n_lo - pt_hi
            r_hi = n_hi - pt_lo
            if r_lo >= e_hi or r_hi <= -e_hi:
                definite_fail = True
                break
            if not (r_hi < e_lo and r_lo > -e_lo):
                ambiguous = True
        if definite_fail:
            continue
        ps = exact_witness(q)
        if ps is not None:
            return q, ps
        if not ambiguous:
            # screen said definite pass but exact check disagreed: the
            # screen's rounded p differed from the exact nearest at a
            # tie; exact_witness already handled it, so just move on
            continue
    return NotFound(bound)


def orbit_discrepancy(alpha: ExactReal, N: int, cancel=None) -> Fraction:
    """Rigorous rational upper bound on the star discrepancy of
    {i*alpha mod 1 : i = 0..N-1}.

    Rational alpha is computed exactly.  Otherwise every fractional
    part gets an integer enclosure at 2*log2(N) + 64 bits (exact floors
    resolve any integer-boundary straddle), the points are sorted by
    enclosure with exact sign tests refereeing any overlap, and the
    discrepancy formula is maximized over the enclosure endpoints, so
    the result can only overestimate.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if alpha.sign() <= 0 or (ExactReal.rational(1) - alpha).sign() <= 0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if alpha.is_rational():
        a = alpha.as_rational()
        pts = sorted(
            Fraction((i * a.numerator) % a.denominator, a.denominator)
            for i in range(N)
        )
        best = Fraction(0)
        for i, x in enumerate(pts):
            best = max(best, Fraction(i + 1, N) - x, x - Fraction(i, N))
        return best
    prec = 2 * N.bit_length() + 64
    unit = 1 << prec
    a_lo, a_hi = alpha._enclosure_scaled(prec)
    encl: list[tuple[int, int]] = []
    for i in range(N):
        if cancel is not None and i % 4096 == 0:
            _check_cancel(cancel)
        v_lo, v_hi = i * a_lo, i * a_hi
        if (v_lo >> prec) == (v_hi >> prec):
            k = v_lo >> prec
            encl.append((v_lo - (k << prec), v_hi - (k << prec)))
        else:
            k = alpha.scale(i).floor()
            encl.append((max(v_lo - (k << prec), 0), min(v_hi - (k << prec), unit)))
    encl.sort()
    if any(encl[j][1] > encl[j + 1][0] for j in range(N - 1)):
        # enclosures overlap, so their order is not certain: fall back
        # to sorting the fractional parts by exact sign tests (the
        # bound formula below only needs the order to be the true one)
        fracs = []
        for i in range(N):
            v = alpha.scale(i)
            fracs.append(v - v.floor())
        fracs.sort()
        encl = [f._enclosure_scaled(prec) for f in fracs]
    best_lo = 0  # maximize (i+1)*unit - N*f_lo
    best_hi = 0  # maximize N*f_hi - i*unit
    for i, (f_lo, f_hi) in enumerate(encl):
        best_lo = max(best_lo, (i + 1) * unit - N * f_lo)
        best_hi = max(best_hi, N * f_hi - i * unit)
    return Fraction(max(best_lo, best_hi), N * unit)
