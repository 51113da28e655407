"""Continued fractions, simultaneous approximation, orbit discrepancy.

Numeric oracles run mpmath at 120 significant digits; witness checks
re-verify every returned pair with exact sign tests so no frozen value
is trusted blindly.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest

from periodalg import approx
from periodalg.approx import (
    _convergents,
    _first_hit,
    _mul,
    _period_word,
    _pow,
    _walk_steps,
    continued_fraction,
    dirichlet_find,
    kronecker_find,
    orbit_discrepancy,
)
from periodalg.errors import (
    CommensurableInput,
    DivisionByZero,
    EmptyInput,
    NotFound,
    SizeLimit,
)
from periodalg.exactreal import MAX_DIGITS, ExactReal, commensurable, quotients
from periodalg.funcalg import composition_check

from oracles import (
    drop_last_quotients,
    float_star_discrepancy,
    floor_cases,
    floor_invert_convergents,
    fresh_residual_dirichlet_find,
    linear_kronecker_find,
    mp_value,
    random_basis,
    sorted_orbit_discrepancy,
)


def random_multiquadratic(rng: random.Random, n_rads: int) -> ExactReal:
    """A random rational plus signed rational multiples of n_rads roots."""
    x = ExactReal.rational(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
    for d in random_basis(rng, n_rads).radicands[1:]:
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
        x = x + ExactReal.sqrt(d).scale(c)
    return x


def mp_quotients(x: ExactReal, depth: int) -> list[int]:
    """Continued-fraction quotients by float floor-and-invert at 120 dps."""
    with mp.workdps(120):
        r = mp.mpf(0)
        for d, c in x.coords.items():
            r += mp.mpf(c.numerator) / c.denominator * mp.sqrt(d)
        out = []
        for _ in range(depth):
            a = int(mp.floor(r))
            out.append(a)
            frac = r - a
            if frac < mp.mpf(10) ** -80:
                break
            r = 1 / frac
        return out


def abs_less(u: ExactReal, bound: ExactReal) -> bool:
    return (bound - u).sign() > 0 and (bound + u).sign() > 0


def test_cf_known_expansions():
    cf = continued_fraction(ExactReal.sqrt(2), 8)
    assert cf.quotients == (1, 2, 2, 2, 2, 2, 2, 2)
    assert not cf.terminated
    assert cf.convergents[0] == (1, 1)
    assert cf.convergents[3] == (17, 12)

    golden = (ExactReal.sqrt(5) + ExactReal.rational(1)).scale(Fraction(1, 2))
    cf = continued_fraction(golden, 10)
    assert cf.quotients == (1,) * 10
    # Fibonacci convergents
    assert cf.convergents[8] == (55, 34)

    cf = continued_fraction(ExactReal.rational(Fraction(355, 113)), 9)
    assert cf.terminated
    assert cf.quotients == (3, 7, 16)
    assert cf.convergents[-1] == (355, 113)


def test_cf_depth_validation():
    with pytest.raises(ValueError):
        continued_fraction(ExactReal.sqrt(2), 0)
    # a depth past sys.maxsize is counted like any other
    for depth in (sys.maxsize, sys.maxsize + 1):
        cf = continued_fraction(ExactReal.rational(Fraction(355, 113)), depth)
        assert (cf.quotients, cf.terminated) == ((3, 7, 16), True)


def test_cf_recurrence_and_coprimality():
    import math

    rng = random.Random(5601)
    for _ in range(40):
        d = rng.choice([2, 3, 5, 7, 11])
        x = ExactReal.sqrt(d).scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        x = x + ExactReal.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        if x.sign() <= 0:
            continue
        cf = continued_fraction(x, 9)
        a = cf.quotients
        p = [c[0] for c in cf.convergents]
        q = [c[1] for c in cf.convergents]
        for n in range(2, len(a)):
            assert p[n] == a[n] * p[n - 1] + p[n - 2]
            assert q[n] == a[n] * q[n - 1] + q[n - 2]
        for pn, qn in cf.convergents:
            assert math.gcd(pn, abs(qn)) == 1


def test_cf_quotients_match_float_oracle():
    rng = random.Random(5602)
    cases = [
        ExactReal.sqrt(2),
        ExactReal.sqrt(3),
        ExactReal.sqrt(5) + ExactReal.rational(1),
        (ExactReal.sqrt(5) + ExactReal.rational(1)).scale(Fraction(1, 2)),
    ]
    for _ in range(25):
        d = rng.choice([2, 3, 6, 7, 10])
        x = ExactReal.sqrt(d) + ExactReal.rational(Fraction(rng.randint(0, 9), 7))
        cases.append(x)
    for x in cases:
        cf = continued_fraction(x, 12)
        assert list(cf.quotients) == mp_quotients(x, 12)


def test_cf_approximation_invariant():
    for x in (ExactReal.sqrt(2), ExactReal.sqrt(3) + ExactReal.rational(2)):
        deep = continued_fraction(x, 11)
        for n in range(10):
            p, q = deep.convergents[n]
            q_next = deep.convergents[n + 1][1]
            err = x - ExactReal.rational(Fraction(p, q))
            assert abs_less(err, ExactReal.rational(Fraction(1, q * q_next)))


def test_cf_matches_floor_invert_walk():
    # the integer-Euclid quotients against the field walk they replaced,
    # on 1-4 radicands; rationals take the exact Euclid path
    rng = random.Random(5606)
    # the field walk is slow on 4 radicands: one of them goes to depth 80
    cases = [
        (random_multiquadratic(rng, k), rng.randint(1, 80 if k < 4 else 40))
        for k in (1, 2, 3, 4) * 6
    ]
    cases.append((random_multiquadratic(rng, 4), 80))
    cases += [(random_multiquadratic(rng, 0), 40) for _ in range(10)]
    for x, depth in cases:
        want = list(islice(floor_invert_convergents(x), depth + 1))
        assert list(islice(_convergents(x), depth)) == want[:depth]
        # the walk ends within depth + 1 steps exactly when x is rational
        # with at most depth quotients
        assert continued_fraction(x, depth).terminated == (len(want) <= depth)
    # quotients of x/y from the two enclosures, for an irrational y of
    # either sign
    for _ in range(12):
        x = random_multiquadratic(rng, rng.randint(0, 2))
        y = random_multiquadratic(rng, rng.randint(1, 2))
        want = list(islice(floor_invert_convergents(x / y), 21))
        assert list(islice(_convergents(x, y), 20)) == want[:20]
    assert list(_convergents(ExactReal.rational(0), ExactReal.sqrt(2))) == [(0, 0, 1)]


def test_cf_matches_drop_last_euclid(monkeypatch):
    # the lockstep Euclid against its form that dropped the last
    # quotient both ends share: the same quotients of x/y, from no more
    # enclosures, on the floor cases (straddling and negative divisors,
    # rational ratios, Dirichlet residuals) and on 600 near-rationals
    # c + sqrt(d)/2^k; continued_fraction on every y = 1 case
    precs = []
    real = ExactReal._enclosure_scaled

    def recorded(self, prec):
        precs.append(prec)
        return real(self, prec)

    monkeypatch.setattr(ExactReal, "_enclosure_scaled", recorded)
    rng = random.Random(5611)
    one = ExactReal.rational(1)
    cases = floor_cases(rng)
    for _ in range(600):
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        tiny = ExactReal.sqrt(rng.choice([2, 3, 5, 6, 7])).scale(Fraction(1, 2 ** rng.randint(1, 400)))
        cases.append((ExactReal.rational(c) + (tiny if rng.random() < 0.5 else -tiny), one))
    for x, y in cases:
        depth = rng.randint(1, 30)
        precs.clear()
        got = list(islice(quotients(x, y), depth))
        work = len(precs)
        precs.clear()
        assert got == list(islice(drop_last_quotients(x, y), depth)), (x, y)
        assert work <= len(precs), (x, y)
        if y == one:
            assert continued_fraction(x, depth).quotients == tuple(got)


def test_cf_depth_1000_matches_mpmath():
    x = ExactReal.sqrt(2) + ExactReal.sqrt(3) + ExactReal.sqrt(5) + ExactReal.sqrt(7)
    cf = continued_fraction(x, 1000)
    # q_1000 has about 520 digits; floor-and-invert at 1500 digits keeps
    # every remainder far more precise than its distance to an integer
    with mp.workdps(1500):
        r = mp.sqrt(2) + mp.sqrt(3) + mp.sqrt(5) + mp.sqrt(7)
        want = []
        for _ in range(1000):
            a = int(mp.floor(r))
            want.append(a)
            r = 1 / (r - a)
    assert list(cf.quotients) == want
    assert len(str(cf.convergents[-1][1])) > 400


def test_cf_convergents_alternate():
    x = ExactReal.sqrt(7)
    cf = continued_fraction(x, 10)
    signs = []
    for p, q in cf.convergents:
        s = (x - ExactReal.rational(Fraction(p, q))).sign()
        assert s != 0
        signs.append(s)
    assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_dirichlet_frozen_witness():
    one = ExactReal.rational(1)
    s2 = ExactReal.sqrt(2)
    s3 = ExactReal.sqrt(3)
    eps = ExactReal.rational(Fraction(1, 10_000))
    m, n = dirichlet_find(one, s2, s3, eps)
    assert (m, n) == (-228346875, 161465625)
    err = one.scale(m) + s2.scale(n) - s3
    assert abs_less(err, eps)
    assert abs(float(mp_value(err))) < 1e-4
    # eps this small needs more than 200 convergents of sqrt(2)
    for digits in (80, 100):
        eps = ExactReal.rational(Fraction(1, 10**digits))
        m, n = dirichlet_find(one, s2, s3, eps)
        assert abs_less(one.scale(m) + s2.scale(n) - s3, eps)
        with mp.workdps(len(str(m)) + digits + 50):
            assert abs(m + n * mp.sqrt(2) - mp.sqrt(3)) < mp.mpf(10) ** -digits


def test_dirichlet_random_instances(monkeypatch):
    # theta = T2/T1 is expanded from the enclosures of T2 and T1, so an
    # irrational or negative T1 is never inverted
    def no_invert(self):
        raise AssertionError(f"invert({self}) called")

    monkeypatch.setattr(ExactReal, "invert", no_invert)
    rng = random.Random(5603)
    for i in range(40):
        d = rng.choice([2, 3, 5, 7])
        t1 = ExactReal.rational(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        if i % 2:
            t1 = t1 + ExactReal.sqrt(rng.choice([6, 10, 11]))
        if i % 3 == 0:
            t1 = -t1
        t2 = ExactReal.sqrt(d).scale(Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        target = ExactReal.rational(Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        eps = ExactReal.rational(Fraction(1, rng.choice([100, 1000])))
        m, n = dirichlet_find(t1, t2, target, eps)
        err = t1.scale(m) + t2.scale(n) - target
        assert abs_less(err, eps)


def test_dirichlet_rejects_commensurable_steps():
    zero, s2, eps = ExactReal.rational(0), ExactReal.sqrt(2), ExactReal.rational(Fraction(1, 10))
    with pytest.raises(DivisionByZero, match="^zero generator T1$"):
        dirichlet_find(zero, s2, s2, eps)
    with pytest.raises(DivisionByZero, match="^zero generator T2$"):
        dirichlet_find(s2, zero, s2, eps)
    with pytest.raises(CommensurableInput):
        dirichlet_find(
            ExactReal.sqrt(2),
            ExactReal.sqrt(8),
            ExactReal.rational(1),
            ExactReal.rational(Fraction(1, 100)),
        )
    with pytest.raises(ValueError):
        dirichlet_find(
            ExactReal.rational(1),
            ExactReal.sqrt(2),
            ExactReal.rational(1),
            ExactReal.rational(0),
        )


def random_dirichlet_case(rng: random.Random):
    """Signed T1, rational or not; T2 over another root; eps = c*10^-e."""
    d1, d2 = rng.sample([2, 3, 5, 6, 7, 10, 11], 2)
    T1 = ExactReal.rational(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    if rng.random() < 0.5:
        T1 = T1 + ExactReal.sqrt(d1).scale(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
    if rng.random() < 0.5:
        T1 = -T1
    T2 = ExactReal.sqrt(d2).scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
    T2 = T2 + ExactReal.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    target = random_multiquadratic(rng, rng.randint(0, 2))
    scale = Fraction(1, 10 ** rng.randint(1, 80))
    c = ExactReal.sqrt(rng.choice([2, 3])) if rng.random() < 0.3 else ExactReal.rational(1)
    return T1, T2, target, c.scale(scale)


def test_dirichlet_matches_fresh_residual_loop():
    rng = random.Random(5604)
    cases = [random_dirichlet_case(rng) for _ in range(150)]
    for T1, T2, target, eps in cases:
        assert commensurable(T1, T2) is None
        assert dirichlet_find(T1, T2, target, eps) == fresh_residual_dirichlet_find(
            T1, T2, target, eps
        ), (T1, T2, target, eps)


def count_cmp(monkeypatch) -> list:
    """Both sides of every filtered comparison, in call order."""
    calls = []
    real = ExactReal._cmp

    def counting(self, other):
        calls.extend((self, other))
        return real(self, other)

    monkeypatch.setattr(ExactReal, "_cmp", counting)
    return calls


@pytest.mark.parametrize("gap", [0, 70])
def test_dirichlet_straddle_takes_the_exact_test(monkeypatch, gap):
    # eps is |u_5| itself, or |u_5| + 2^-70: the 64-bit bound on |u_5|
    # straddles eps and is narrow, so only the exact test can decide
    one = ExactReal.rational(1)
    instances = [
        (one, ExactReal.sqrt(2), ExactReal.sqrt(3)),
        (-(ExactReal.rational(Fraction(3, 2)) + ExactReal.sqrt(6)),
         ExactReal.sqrt(5).scale(Fraction(1, 2)), ExactReal.rational(Fraction(-7, 3))),
        (ExactReal.sqrt(7), ExactReal.sqrt(3).scale(-3), ExactReal.sqrt(2)),
    ]
    for T1, T2, target in instances:
        _, p, q = next(islice(_convergents(T2, T1), 5, None))
        u5 = T2.scale(q) - T1.scale(p)
        eps = abs(u5) + ExactReal.rational(Fraction(1, 2**gap) if gap else 0)
        want = fresh_residual_dirichlet_find(T1, T2, target, eps)
        calls = count_cmp(monkeypatch)
        got = dirichlet_find(T1, T2, target, eps)
        monkeypatch.undo()
        assert got == want
        assert u5 in calls
        if gap:  # the witness is a multiple of (-p_5, q_5)
            assert got[0] * q == -got[1] * p


def test_dirichlet_decides_from_enclosures(monkeypatch):
    # a sign test only where 64-bit boxes overlap: at eps = 10^-4 none,
    # and at 10^-40 and 10^-80 one for eps <= 0 (eps's box holds 0) and
    # one per side of the witness's re-check -eps < r < eps
    one, s2, s3 = ExactReal.rational(1), ExactReal.sqrt(2), ExactReal.sqrt(3)
    real = ExactReal.sign
    calls = [0]

    def counting(self):
        calls[0] += 1
        return real(self)

    for digits in (4, 40, 80):
        eps = ExactReal.rational(Fraction(1, 10**digits))
        want = fresh_residual_dirichlet_find(one, s2, s3, eps)
        calls[0] = 0
        monkeypatch.setattr(ExactReal, "sign", counting)
        assert dirichlet_find(one, s2, s3, eps) == want
        monkeypatch.undo()
        assert calls[0] == {4: 0, 40: 3, 80: 3}[digits], digits


def test_results_past_the_digit_limit_raise():
    one, s2 = ExactReal.rational(1), ExactReal.sqrt(2)
    big = 10**MAX_DIGITS
    # a_0 = 10^MAX_DIGITS - 1 has MAX_DIGITS digits, and 10^MAX_DIGITS one more
    assert continued_fraction(ExactReal.rational(big - 1), 1).quotients == (big - 1,)
    for x in (big, -big):
        with pytest.raises(SizeLimit, match=f"convergent 1 exceeds the limit of {MAX_DIGITS} digits"):
            continued_fraction(ExactReal.rational(x), 1)
    # sqrt(2)'s convergents pass 4300 digits at the 11235th
    assert len(str(continued_fraction(s2, 11234).convergents[-1][0])) == MAX_DIGITS
    with pytest.raises(SizeLimit, match="convergent 11235 exceeds"):
        continued_fraction(s2, 11235)
    # k = round(target/u) copies of a residual u > 10^-2 reach 10^4400;
    # with T2/T1 near 10^20, m = -k*p is past the limit while n = k*q is not
    eps = ExactReal.rational(Fraction(1, 100))
    for T2, target in ((s2, 10**4400), (s2.scale(10**20), 10**4280)):
        with pytest.raises(SizeLimit, match=f"witness coefficient exceeds the limit of {MAX_DIGITS}"):
            dirichlet_find(one, T2, ExactReal.rational(target) + ExactReal.sqrt(3), eps)


def test_kronecker_small_case():
    got = kronecker_find(
        ExactReal.sqrt(2),
        [ExactReal.rational(1)],
        ExactReal.rational(0),
        ExactReal.rational(Fraction(1, 10)),
        bound=1000,
    )
    assert got == (5, [7])
    # every smaller q misses by at least eps
    for q in range(1, 5):
        y = ExactReal.sqrt(2).scale(q)
        p = (y + Fraction(1, 2)).floor()
        gap = y - ExactReal.rational(p)
        assert not abs_less(gap, ExactReal.rational(Fraction(1, 10)))


def test_kronecker_frozen_pair_witness():
    s2 = ExactReal.sqrt(2)
    s3 = ExactReal.sqrt(3)
    eps = ExactReal.rational(Fraction(1, 100))
    delta = ExactReal.rational(Fraction(1, 2))
    got = kronecker_find(s2, [ExactReal.rational(1), s3], delta, eps)
    assert got == (3497, [4945, 2855])
    q, (p1, p2) = got
    for t, p in ((ExactReal.rational(1), p1), (s3, p2)):
        err = s2.scale(q) - t.scale(p) - delta
        assert abs_less(err, eps)


def test_kronecker_not_found_and_errors():
    s2 = ExactReal.sqrt(2)
    got = kronecker_find(
        s2,
        [s2],
        ExactReal.rational(Fraction(1, 3)),
        ExactReal.rational(Fraction(1, 100)),
        bound=50,
    )
    assert got == NotFound(50)
    with pytest.raises(DivisionByZero):
        kronecker_find(
            ExactReal.rational(0), [s2], s2, ExactReal.rational(Fraction(1, 10))
        )
    with pytest.raises(DivisionByZero):
        kronecker_find(
            s2, [ExactReal.rational(0)], s2, ExactReal.rational(Fraction(1, 10))
        )
    with pytest.raises(ValueError):
        kronecker_find(s2, [s2], s2, ExactReal.rational(-1))
    with pytest.raises(EmptyInput):
        kronecker_find(s2, [], s2, ExactReal.rational(Fraction(1, 10)))


def test_kronecker_rejects_a_residual_of_exactly_eps():
    # delta puts the residual q0*T - p0 - delta at exactly +eps or -eps:
    # q0 passes the enclosure screen and only the strict exact test
    # turns it down, so the search resumes at q0 + 1
    T = ExactReal.sqrt(2)
    Ts = [ExactReal.rational(1)]
    eps = ExactReal.rational(Fraction(1, 1000))
    for q0, e, want in (
        (2, eps, (410, [580])),
        (2, -eps, (579, [819])),
        (3, eps, (411, [581])),
        (3, -eps, (580, [820])),
    ):
        qt = T.scale(q0)
        p0 = (qt + Fraction(1, 2)).floor()
        delta = qt - p0 - e
        assert qt - p0 - delta == e
        assert kronecker_find(T, Ts, delta, eps, bound=1000) == want, (q0, e)
        assert linear_kronecker_find(T, Ts, delta, eps, 1000) == want, (q0, e)


def test_rounding_inverts_no_field_element(monkeypatch):
    # nearest integers are exact floors of quotients, and dirichlet_find
    # expands T2/T1 from the enclosures of T2 and T1, so nothing divides
    calls = [0]
    real = ExactReal.invert

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(ExactReal, "invert", counting)
    one = ExactReal.rational(1)
    s2, s3, s6 = ExactReal.sqrt(2), ExactReal.sqrt(3), ExactReal.sqrt(6)
    eps = ExactReal.rational(Fraction(1, 10**6))
    got = kronecker_find(s2, [one, s3], ExactReal.rational(Fraction(1, 2)),
                         ExactReal.rational(Fraction(1, 100)))
    assert got == (3497, [4945, 2855])
    assert kronecker_find(s2, [s3.scale(-1)], s6, eps, bound=1000) == NotFound(1000)
    assert composition_check(s2, s6, s3).n == 1
    assert composition_check(s2, s3, one).holds is False
    assert composition_check(ExactReal.rational(0), s3, s2).n == 0
    m, n = dirichlet_find(one, s2, s3, eps)
    assert abs_less(one.scale(m) + s2.scale(n) - s3, eps)
    assert calls[0] == 0
    m, n = dirichlet_find(s2, s3, one, eps)
    assert abs_less(s2.scale(m) + s3.scale(n) - one, eps)
    assert calls[0] == 0


def test_kronecker_least_q_matches_float_scan():
    rng = random.Random(5604)
    with mp.workdps(50):
        for _ in range(60):
            d = rng.choice([2, 3, 5, 7])
            num = rng.randint(1, 3)
            T = ExactReal.sqrt(d).scale(Fraction(num, 2))
            delta = ExactReal.rational(Fraction(rng.randint(0, 3), 4))
            eps = ExactReal.rational(Fraction(1, 8))
            got = kronecker_find(T, [ExactReal.rational(1)], delta, eps, bound=400)
            t_f = mp.sqrt(d) * num / 2
            d_f = float(delta.as_rational())
            brute = None
            for q in range(1, 401):
                y = q * t_f - d_f
                if abs(y - mp.nint(y)) < 0.125:
                    brute = q
                    break
            if isinstance(got, NotFound):
                assert brute is None
            else:
                assert got[0] == brute

    # T_1 = a - b*sqrt(2) for the 81st convergent a/b of sqrt(2), about
    # -1e-31: 192-bit enclosures cannot tell its sign, and eps is far
    # below |T_1|/2, so only one p per q can fit
    a, b = 1, 1
    for _ in range(80):
        a, b = a + 2 * b, a + b
    t1 = ExactReal.rational(a) - ExactReal.sqrt(2).scale(b)
    delta = ExactReal.rational(Fraction(1, 3))
    eps = ExactReal.rational(Fraction(1, 10**33))
    with mp.workdps(150):
        t1_f = a - b * mp.sqrt(2)
        brute = None
        for q in range(1, 2001):
            y = (q * mp.sqrt(3) - mp.mpf(1) / 3) / t1_f
            if abs(y - mp.nint(y)) * abs(t1_f) < mp.mpf(10) ** -33:
                brute = q
                break
    assert brute is not None
    got = kronecker_find(ExactReal.sqrt(3), [t1], delta, eps, bound=2000)
    assert got[0] == brute
    assert abs_less(ExactReal.sqrt(3).scale(brute) - t1.scale(got[1][0]) - delta, eps)
    got = kronecker_find(ExactReal.sqrt(3), [t1], delta, eps, bound=brute - 1)
    assert got == NotFound(brute - 1)


def test_first_hit_matches_brute_force():
    rng = random.Random(5607)
    for _ in range(20000):
        M = rng.randint(1, 60)
        A, B = rng.randint(-100, 100), rng.randint(-100, 100)
        W = rng.randint(0, 70)
        # the residues repeat with period M
        want = next((x for x in range(M) if (A * x + B) % M <= W), None)
        assert _first_hit(A, B, M, W) == want


def test_kronecker_matches_linear_screen():
    # one or two T_i, found and NotFound, against the per-q screen the
    # first-hit search replaced
    rng = random.Random(5608)
    outcomes = set()
    for _ in range(100):
        T = random_multiquadratic(rng, rng.randint(1, 4))
        n_ts = rng.choice([1, 1, 2])
        Ts = [random_multiquadratic(rng, rng.randint(0, 2)) for _ in range(n_ts)]
        if T.is_zero() or any(t.is_zero() for t in Ts):
            continue
        delta = random_multiquadratic(rng, rng.randint(0, 2))
        eps = ExactReal.rational(Fraction(1, 10 ** rng.randint(1, 5 - n_ts)))
        bound = rng.choice([10, 100, 1000, 10**4])
        want = linear_kronecker_find(T, Ts, delta, eps, bound)
        assert kronecker_find(T, Ts, delta, eps, bound=bound) == want
        outcomes.add((n_ts, isinstance(want, NotFound)))
    assert outcomes == {(1, False), (1, True), (2, False), (2, True)}
    # T = sqrt(2)/1000 comes within eps of Z at runs of one or two
    # consecutive q, and only even q pass T_2 = 2*T (odd q miss it by
    # T - delta > eps): the candidate 707 is rejected and 708 is the
    # witness, so the search must resume at q + 1
    T = ExactReal.sqrt(2).scale(Fraction(1, 1000))
    Ts = [ExactReal.rational(1), T.scale(2)]
    delta, eps = ExactReal.rational(Fraction(1, 4000)), ExactReal.rational(Fraction(1, 943))
    want = linear_kronecker_find(T, Ts, delta, eps, 10**4)
    assert want[0] == 708
    assert kronecker_find(T, Ts, delta, eps, bound=10**4) == want


def test_kronecker_least_q_at_a_100_bit_bound():
    # q*u/P - p - v/P is within 1/(2P) of 0 exactly when q*u = v mod P
    P = 2**100 - 15  # the largest prime below 2^100
    assert pow(3, P - 1, P) == 1
    rng = random.Random(5609)
    u, v = rng.randrange(1, P), rng.randrange(1, P)
    T = ExactReal.rational(Fraction(u, P))
    one = ExactReal.rational(1)
    delta = ExactReal.rational(Fraction(v, P))
    eps = ExactReal.rational(Fraction(1, 2 * P))
    q = v * pow(u, -1, P) % P
    got = kronecker_find(T, [one], delta, eps, bound=P)
    assert got == (q, [(q * u - v) // P])
    assert kronecker_find(T, [one], delta, eps, bound=q - 1) == NotFound(q - 1)
    # over T_1 = sqrt(2)/2^60 with T = sqrt(2)*u/P the witness has
    # |p| ~ q*2^60, and its residual rho is put just inside eps: the
    # screen must allow for p times the width of the enclosure of |T_1|
    # (every other q misses by at least |T_1|/P - eps > eps)
    t1 = ExactReal.sqrt(2).scale(Fraction(1, 2**60))
    T = ExactReal.sqrt(2).scale(Fraction(u, P))
    U = u << 60
    q = v * pow(U, -1, P) % P
    eps = ExactReal.rational(Fraction(1, 2**62 * P))
    for rho in (eps.scale(Fraction(2**100 - 1, 2**100)), eps.scale(Fraction(1 - 2**100, 2**100))):
        delta = t1.scale(Fraction(v, P)) + rho
        got = kronecker_find(T, [t1], delta, eps, bound=P)
        assert got == (q, [(q * U - v) // P])


def test_discrepancy_rational_orbits_exact():
    assert orbit_discrepancy(ExactReal.rational(Fraction(1, 3)), 3) == Fraction(1, 3)
    assert orbit_discrepancy(ExactReal.rational(Fraction(1, 2)), 4) == Fraction(1, 2)
    assert orbit_discrepancy(ExactReal.rational(Fraction(1, 7)), 7) == Fraction(1, 7)
    # 10^9 points as three residues of multiplicity about 3.3*10^8
    assert orbit_discrepancy(ExactReal.rational(Fraction(1, 3)), 10**9) == Fraction(
        166666667, 500000000
    )
    # the counted residues (N >= d) and the sorted ones (N < d) against
    # the sort of all N points
    rng = random.Random(7005)
    for _ in range(300):
        d = rng.randint(2, 60)
        alpha = ExactReal.rational(Fraction(rng.randint(1, d - 1), d))
        N = rng.choice([rng.randint(1, d), rng.randint(1, 400)])
        assert orbit_discrepancy(alpha, N) == sorted_orbit_discrepancy(alpha, N), (alpha, N)


def test_discrepancy_golden_frozen_value():
    # one point, 0, has discrepancy 1 whatever the irrational step
    assert orbit_discrepancy(ExactReal.sqrt(2) - ExactReal.rational(1), 1) == 1
    golden = (ExactReal.sqrt(5) - ExactReal.rational(1)).scale(Fraction(1, 2))
    got = orbit_discrepancy(golden, 100)
    assert got == Fraction(
        39245519449760664991993, 1888946593147858085478400
    )
    assert abs(float(got) - 0.0207764050038) < 1e-10


def test_discrepancy_matches_float_formula():
    golden = (ExactReal.sqrt(5) - ExactReal.rational(1)).scale(Fraction(1, 2))
    cases = [
        (ExactReal.sqrt(2) - ExactReal.rational(1), 500),
        (golden, 1000),
        (ExactReal.sqrt(3) - ExactReal.rational(1), 257),
        (ExactReal.rational(Fraction(5, 17)), 300),
    ]
    for alpha, n in cases:
        exact = orbit_discrepancy(alpha, n)
        approx = float_star_discrepancy(float(mp_value(alpha)), n)
        assert abs(float(exact) - approx) < 1e-9


def random_unit_irrational(rng: random.Random) -> ExactReal:
    """{x} for a random multiquadratic x with 1-3 radicands."""
    x = random_multiquadratic(rng, rng.randint(1, 3))
    return x - x.floor()


# near-rational rotation numbers: some i*alpha, i < N, lies so near an
# integer that the three checks fail at the base prec = 2*log2(N) + 64
PLANTED_ALPHAS = [
    ExactReal.rational(Fraction(1, 3)) + ExactReal.sqrt(2).scale(Fraction(1, 2**80)),
    ExactReal.rational(Fraction(2, 7)) - ExactReal.sqrt(3).scale(Fraction(1, 2**90)),
    ExactReal.rational(1) - ExactReal.sqrt(2).scale(Fraction(1, 2**75)),
]
_ONE = ExactReal.rational(1)
NEAR_RATIONAL = PLANTED_ALPHAS + [
    _ONE / 3 + ExactReal.sqrt(2) / 2**200,
    _ONE / 3 - ExactReal.sqrt(2) / 2**200,
    _ONE / 2 - ExactReal.sqrt(2) / 2**70,
    _ONE - ExactReal.sqrt(2) / 2**68,
]


def base_prec(N: int) -> int:
    """The prec at which `orbit_discrepancy` first tries its checks."""
    return 2 * N.bit_length() + 64


def discrepancy_and_prec(monkeypatch, alpha: ExactReal, N: int) -> tuple[Fraction, int]:
    """orbit_discrepancy(alpha, N) and the prec it took: that of its
    last enclosure of alpha."""
    precs = []
    real = ExactReal._enclosure_scaled

    def enclosure(self, prec):
        if self is alpha:
            precs.append(prec)
        return real(self, prec)

    with monkeypatch.context() as m:
        m.setattr(ExactReal, "_enclosure_scaled", enclosure)
        return orbit_discrepancy(alpha, N), precs[-1]


def test_discrepancy_matches_sorted_oracle(monkeypatch):
    rng = random.Random(7001)
    for _ in range(60):
        alpha = random_unit_irrational(rng)
        N = rng.choice([rng.randint(1, 30), rng.randint(31, 3000)])
        assert orbit_discrepancy(alpha, N) == sorted_orbit_discrepancy(alpha, N), (alpha, N)
    # near a rational the checks fail at the base prec, and prec
    # doubles: the bound is the sort's at the prec taken, and at most
    # the sort's at the base prec
    raised = 0
    for k, alpha in enumerate(NEAR_RATIONAL):
        for N in (2, 3, 4, 5, 6, 10, 57, 300, 1000) + ((3000,) if k < 2 else ()):
            got, prec = discrepancy_and_prec(monkeypatch, alpha, N)
            assert base_prec(N) <= prec <= 4 * base_prec(N), (alpha, N, prec)
            assert got == sorted_orbit_discrepancy(alpha, N, prec), (alpha, N)
            if prec > base_prec(N):
                raised += 1
                assert got <= sorted_orbit_discrepancy(alpha, N), (alpha, N)
    assert raised >= 30


def count_calls(monkeypatch, names: tuple[str, ...]) -> dict[str, int]:
    """Wrap the named functions of periodalg.approx in call counters."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(approx, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(approx, name, counted)
    return calls


def test_renormalized_discrepancy_matches_sorted_oracle(monkeypatch):
    one = ExactReal.rational(1)
    golden = (ExactReal.sqrt(5) - one).scale(Fraction(1, 2))
    sqrt7 = ExactReal.sqrt(7) - one.scale(2)
    small = ExactReal.sqrt(2).scale(Fraction(1, 100))
    calls = count_calls(monkeypatch, ("_period_word", "_pow"))

    def renormalized(alpha, N):
        """Whether the bound took one product at the base prec; it must
        agree with the sort at the prec taken."""
        calls.update(_period_word=0, _pow=0)
        got, prec = discrepancy_and_prec(monkeypatch, alpha, N)
        assert calls["_period_word"] == 1, (alpha, N)
        assert got == sorted_orbit_discrepancy(alpha, N, prec), (alpha, N)
        return prec == base_prec(N)

    rng = random.Random(7003)
    for _ in range(60):
        alpha = random_unit_irrational(rng)
        N = rng.choice([rng.randint(2, 30), rng.randint(31, 3000)])
        assert renormalized(alpha, N), (alpha, N)
    for alpha in PLANTED_ALPHAS:
        for N in (2, 5, 57, 1000):
            renormalized(alpha, N)
    # prec = 2*log2(N) + 64 changes between 2^k - 1 and 2^k; N = 2 has
    # a = b = 1, one step kind and an empty hole
    for alpha in (golden, sqrt7):
        assert renormalized(alpha, 2)
        for k in range(2, 13):
            assert renormalized(alpha, 2**k - 1) and renormalized(alpha, 2**k), (alpha, k)
    # at a Fibonacci N for the golden ratio a + b = N: the hole is empty
    for N in (8, 13, 21, 34, 55, 89, 144):
        assert sum(_walk_steps(golden, N)) == N
        assert renormalized(golden, N), N
    # a = 1 and b = 1
    for alpha, steps in ((small, (1, 49)), (one - small, (49, 1))):
        assert _walk_steps(alpha, 50) == steps
        assert renormalized(alpha, 50), alpha
    # one step kind repeated about N times: the accelerated induction
    for alpha in (ExactReal.sqrt(2) / 10**9, one / 1000 + ExactReal.sqrt(2) / 10**6):
        for N in (50, 999, 3000):
            assert renormalized(alpha, N) and calls["_pow"] > 0, (alpha, N)


def test_period_word_products():
    rng = random.Random(7004)
    for _ in range(50):
        m = rng.choice([None, rng.randint(-50, 50)])
        x = (rng.randint(-9, 9), rng.randint(-9, 9), m, rng.randint(-50, 50))
        y = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-50, 50), None)
        z = (rng.randint(-9, 9), rng.randint(-9, 9), None, rng.randint(-50, 50))
        assert _mul(_mul(x, y), z) == _mul(x, _mul(y, z))
        k = rng.randint(1, 12)
        power = x
        for _ in range(k - 1):
            power = _mul(power, x)
        assert _pow(x, k) == power, (x, k)
    # x -> x + 2 on Z/4 is two cycles, and an interval that is last in
    # both orders is fixed
    word = (0, 0, 0, 0)
    with pytest.raises(AssertionError):
        _period_word([2, 0, 2], [word] * 3)
    with pytest.raises(AssertionError):
        _period_word([1, 1, 0], [word] * 3)
    # with every length 0 there is no interval at all
    with pytest.raises(AssertionError, match="is not one cycle"):
        _period_word([0, 0, 0], [word] * 3)


def test_period_word_is_the_rotation_word():
    # top order 0, 1, 2 and bottom order 2, 0, 1 exchange the integers
    # 0..n-1 as the rotation x -> x + L[2] mod n, one cycle when L[2] is
    # prime to n: the word is the product of the letters along the
    # orbit of 0, read from 0
    rng = random.Random(7005)

    def random_word():
        m_lo, m_hi = (rng.choice([None, rng.randint(-50, 50)]) for _ in range(2))
        return (rng.randint(-9, 9), rng.randint(-9, 9), m_lo, m_hi)

    for _ in range(400):
        n = rng.randint(1, 60)
        lengths = [0, 0, rng.choice([a for a in range(n + 1) if math.gcd(a, n) == 1])]
        lengths[0] = rng.randint(0, n - lengths[2])
        lengths[1] = n - lengths[0] - lengths[2]
        words = [random_word() for _ in range(3)]
        want, x = None, 0
        while want is None or x:
            letter = 0 if x < lengths[0] else 1 if x < n - lengths[2] else 2
            want = words[letter] if want is None else _mul(want, words[letter])
            x = (x + lengths[2]) % n
        assert _period_word(lengths, words) == want, lengths


def test_renormalized_discrepancy_at_scale(monkeypatch):
    one = ExactReal.rational(1)
    golden = (ExactReal.sqrt(5) - one).scale(Fraction(1, 2))
    sqrt7 = ExactReal.sqrt(7) - one.scale(2)
    # frozen from the point-by-point walk this product replaced; the
    # sort takes seconds at this size
    frozen = [
        (golden, Fraction(186410407034330185549378283213, 79228162514264337593543950336000000)),
        (sqrt7, Fraction(1025433412086161136000698201557, 316912650057057350374175801344000000)),
    ]
    for alpha, bound in frozen:
        assert orbit_discrepancy(alpha, 10**6) == bound
    calls = count_calls(monkeypatch, ("_mul",))
    for alpha in (golden, sqrt7, ExactReal.sqrt(2) / 10**9, one - ExactReal.sqrt(2) / 100):
        calls.update(_mul=0)
        bound = orbit_discrepancy(alpha, 2**60)
        assert 0 < calls["_mul"] <= 8 * 60, (alpha, calls)
        # every N points have a star discrepancy of at least 1/(2N)
        assert Fraction(1, 2**61) <= bound < Fraction(1, 10**6), (alpha, bound)


def test_walk_steps_are_the_extreme_points():
    rng = random.Random(7002)
    alphas = PLANTED_ALPHAS + [random_unit_irrational(rng) for _ in range(12)]
    for alpha in alphas:
        frac = [None] + [alpha.scale(n) - alpha.scale(n).floor() for n in range(1, 500)]
        a = b = 1
        for N in range(2, 501):
            n = N - 1
            if frac[n] < frac[a]:
                a = n
            if frac[n] > frac[b]:
                b = n
            assert _walk_steps(alpha, N) == (a, b), (alpha, N)
        for N in (2, 3, 17, 100, 499):
            a, b = _walk_steps(alpha, N)
            # three-distance theorem: the neighbour above {i*alpha}
            order = [0]
            for _ in range(N - 1):
                i = order[-1]
                order.append(i + a if i < N - a else i - b if i >= b else i + a - b)
            want = sorted(range(N), key=lambda i: mp_value(alpha * i) % 1)
            assert order == want, (alpha, N)


def test_discrepancy_makes_no_sign_tests_per_point(monkeypatch):
    alphas = [
        ExactReal.sqrt(7) - ExactReal.rational(2),
        (ExactReal.sqrt(5) - ExactReal.rational(1)).scale(Fraction(1, 2)),
    ] + NEAR_RATIONAL[:5]
    calls = {"sign": 0, "floor": 0}
    real_sign, real_floor = ExactReal.sign, ExactReal.floor

    def sign(self):
        calls["sign"] += 1
        return real_sign(self)

    def floor(self):
        calls["floor"] += 1
        return real_floor(self)

    monkeypatch.setattr(ExactReal, "sign", sign)
    monkeypatch.setattr(ExactReal, "floor", floor)
    sizes, counts, checks, got = (10**3, 10**5, 10**9), [], [], []
    for alpha in alphas:
        for N in sizes:
            calls.update(sign=0, floor=0)
            assert 0 < alpha < 1
            checks.append({"sign": calls["sign"], "floor": 0})
            calls.update(sign=0, floor=0)
            got.append((alpha, N, orbit_discrepancy(alpha, N)))
            counts.append(dict(calls))
    monkeypatch.undo()
    # only the input check 0 < alpha < 1 takes sign tests (where alpha's
    # box overlaps 0's or 1's); the bound itself makes no sign test and
    # takes no exact floor, near a rational too
    assert counts == checks
    # floats merge the points of a near-rational orbit: the float check
    # is for the first two
    for alpha, N, bound in got[: 2 * len(sizes)]:
        if N <= 10**5:
            assert abs(float(bound) - float_star_discrepancy(float(mp_value(alpha)), N)) < 1e-9


def test_discrepancy_input_validation():
    with pytest.raises(ValueError):
        orbit_discrepancy(ExactReal.sqrt(2), 100)
    with pytest.raises(ValueError):
        orbit_discrepancy(ExactReal.rational(0), 100)
    with pytest.raises(ValueError):
        orbit_discrepancy(ExactReal.rational(Fraction(1, 3)), 0)
