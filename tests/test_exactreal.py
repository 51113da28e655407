"""Field arithmetic over Q(sqrt(p1), ..., sqrt(pr)) against an mpmath oracle.

Every numeric comparison uses 60-digit mpmath values computed straight
from the coordinate dictionaries, so agreement is meaningful: the
library never touches floats on these paths.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from periodalg.approx import orbit_discrepancy
from periodalg.errors import DivisionByZero, SizeLimit
from periodalg.exactreal import (
    MAX_RADICAND,
    ExactReal,
    RadicalBasis,
    _squarefree_part,
    commensurable,
    quotients,
)
from periodalg.funcalg import parse_real

from oracles import (
    FractionMapReal,
    approx_str_reference,
    corner_floor,
    decimal_text,
    drop_last_quotients,
    enclosure,
    floor_cases,
    fraction_commensurable,
    fraction_quotients,
    fraction_real_text,
    mp_value,
    random_coefficient,
    squarefree_part,
)

mpmath.mp.dps = 60


def random_element(rng: random.Random, basis: RadicalBasis, span: int = 9) -> ExactReal:
    coords = {}
    for d in basis.radicands:
        if rng.random() < 0.7:
            coords[d] = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    return ExactReal(basis, coords)


def test_sqrt_normalizes_square_factors():
    assert ExactReal.sqrt(8) == ExactReal.sqrt(2).scale(2)
    assert ExactReal.sqrt(12) == ExactReal.sqrt(3).scale(2)
    assert ExactReal.sqrt(1) == ExactReal.rational(1)
    assert ExactReal.sqrt(49) == ExactReal.rational(7)


def test_squarefree_part_against_trial_division():
    for n in range(1, 3 * 10**5):
        assert _squarefree_part(n) == squarefree_part(n), n
    rng = random.Random(2217)
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    for _ in range(20000):
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= rng.choice(primes) ** rng.randint(1, 3)
        assert _squarefree_part(n) == squarefree_part(n), n


def test_large_radicands_factor_quickly():
    # trial division stops at the cube root of the cofactor: a prime
    # near 10^14 costs about 2*10^4 divisions, not 5*10^6
    p = 100000000000031
    assert ExactReal.sqrt(p).coords == {p: 1}
    assert ExactReal.sqrt(7 * 1000003**2) == ExactReal.sqrt(7).scale(1000003)
    assert ExactReal.sqrt(1000003 * 1000033).coords == {1000003 * 1000033: 1}


def test_radicands_past_the_cap_raise_before_factoring():
    # a prime just below the cap factors in about 5*10^5 divisions; one
    # above it raises at once, however large
    p = 999999999999999989
    assert ExactReal.sqrt(p).coords == {p: 1}
    assert RadicalBasis([p]).radicands == (1, p)
    assert ExactReal.sqrt(MAX_RADICAND) == ExactReal.rational(10**9)
    for n in (MAX_RADICAND + 1, 10**4301 - 1):
        with pytest.raises(SizeLimit, match=f"^radicand exceeds the limit of {MAX_RADICAND}$"):
            ExactReal.sqrt(n)
        with pytest.raises(SizeLimit):
            RadicalBasis([2, n])
    with pytest.raises(SizeLimit) as err:
        parse_real(f"1 + sqrt({MAX_RADICAND + 1})")
    assert err.value.pos == 4


def test_radical_basis_validation():
    with pytest.raises(ValueError, match="^radicand 4 is not squarefree$"):
        RadicalBasis([4])
    # a nonpositive radicand gets the message ExactReal.sqrt gives it
    for bad in (-2, 0):
        with pytest.raises(ValueError, match="^radicand must be positive$"):
            RadicalBasis([bad])
        with pytest.raises(ValueError, match="^radicand must be positive$"):
            ExactReal.sqrt(bad)
    # a tuple of the radicands, sorted and deduplicated, with 1 added
    basis = RadicalBasis([3, 2, 3])
    assert basis.radicands == (1, 2, 3) and len(basis) == 3
    assert 2 in basis and 5 not in basis
    assert basis.index(3) == 2
    with pytest.raises(ValueError):
        basis.index(5)
    assert basis == RadicalBasis([1, 2, 3]) and hash(basis) == hash(RadicalBasis([2, 3]))
    assert basis != RadicalBasis([2])
    assert repr(basis) == "RadicalBasis([1, 2, 3])"
    merged = basis.merge(RadicalBasis([5]))
    assert isinstance(merged, RadicalBasis) and merged.radicands == (1, 2, 3, 5)


def test_non_integer_radicands_are_rejected():
    # radicands are read with operator.index, never truncated
    for bad in (2.7, Fraction(7, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            RadicalBasis([bad])
    with pytest.raises(TypeError):
        ExactReal.sqrt(2.9)
    assert RadicalBasis([True, 2]).radicands == (1, 2)


def test_constructors_check_a_given_basis():
    # the basis is checked, not stored
    with pytest.raises(ValueError):
        ExactReal(RadicalBasis([2]), {3: 1})
    assert ExactReal.sqrt(12) == ExactReal.sqrt(3).scale(2)
    assert not hasattr(ExactReal.sqrt(2), "basis")


def test_zero_coordinates_are_dropped():
    basis = RadicalBasis([2])
    x = ExactReal(basis, {1: Fraction(0), 2: Fraction(3)})
    assert 1 not in x.coords
    assert x == ExactReal.sqrt(2).scale(3)


def test_known_inversion():
    x = ExactReal.rational(1) + ExactReal.sqrt(2)
    assert x.invert() == ExactReal.sqrt(2) - ExactReal.rational(1)
    assert (x * x.invert()).as_rational() == 1
    # the conjugation splits on a c > 1 that divides each radicand or is
    # coprime to it, found by gcds: c = 6 for 2 + sqrt(5) - sqrt(6)
    one = ExactReal.rational(1)
    for x in (
        one + ExactReal.sqrt(6) + ExactReal.sqrt(10) + ExactReal.sqrt(15),
        one.scale(2) + ExactReal.sqrt(5) - ExactReal.sqrt(6),
    ):
        assert x * x.invert() == one
    # a prime radicand near 10^14 is split on, never factored
    p = 100000000000031
    x = one + ExactReal.sqrt(p)
    assert x.invert() == (ExactReal.sqrt(p) - one).scale(Fraction(1, p - 1))


def test_known_floor_and_sign():
    assert (ExactReal.sqrt(2) + ExactReal.sqrt(3)).floor() == 3
    assert (-ExactReal.sqrt(2)).floor() == -2
    assert ExactReal.rational(Fraction(-7, 2)).floor() == -4
    assert (ExactReal.sqrt(2) + ExactReal.sqrt(3) - ExactReal.sqrt(5)).sign() == 1
    assert ExactReal.rational(0).sign() == 0
    # sqrt(2)+sqrt(3) < sqrt(5)+1, a near-tie that floats get wrong at
    # low precision: 3.14626... vs 3.23606...
    lhs = ExactReal.sqrt(2) + ExactReal.sqrt(3)
    rhs = ExactReal.sqrt(5) + ExactReal.rational(1)
    assert (lhs - rhs).sign() == -1
    # p - q*sqrt(2) = 1/(p + q*sqrt(2)) for the 1800th convergent p/q of
    # sqrt(2): q has 2288 bits, so the value is about 2^-2290 and needs
    # enclosures above 4096 bits
    p, q = 1, 1
    for _ in range(1799):
        p, q = p + 2 * q, p + q
    tiny = ExactReal.rational(p) - ExactReal.sqrt(2).scale(q)
    assert tiny.sign() == 1
    assert tiny.floor() == 0
    assert (-tiny).floor() == -1


def test_arithmetic_matches_mpmath():
    rng = random.Random(1201)
    basis = RadicalBasis([2, 3, 5, 6, 10, 15, 30])
    for _ in range(300):
        x = random_element(rng, basis)
        y = random_element(rng, basis)
        for got, want in (
            (x + y, mp_value(x) + mp_value(y)),
            (x - y, mp_value(x) - mp_value(y)),
            (x * y, mp_value(x) * mp_value(y)),
        ):
            assert abs(mp_value(got) - want) < mpmath.mpf(10) ** -40


def test_division_round_trips():
    rng = random.Random(1202)
    basis = RadicalBasis([2, 3])
    for _ in range(150):
        x = random_element(rng, basis)
        y = random_element(rng, basis)
        if y.is_zero():
            continue
        assert (x / y) * y == x


def test_inversion_round_trips():
    rng = random.Random(1203)
    basis = RadicalBasis([2, 3, 5])
    for _ in range(150):
        x = random_element(rng, basis)
        if x.is_zero():
            continue
        assert (x * x.invert()).as_rational() == 1


def test_products_across_radicands():
    # a product lands on the squarefree part of the product of radicands
    x = ExactReal.sqrt(2)
    y = ExactReal.sqrt(3)
    assert x * y == ExactReal.sqrt(6)
    assert ExactReal.sqrt(6) * ExactReal.sqrt(10) == ExactReal.sqrt(15).scale(2)
    assert ExactReal.sqrt(2) * ExactReal.sqrt(2) == ExactReal.rational(2)
    assert parse_real("sqrt(2)*sqrt(3)") == ExactReal.sqrt(6)


def test_sign_matches_mpmath():
    rng = random.Random(1204)
    basis = RadicalBasis([2, 3, 5, 7])
    for _ in range(400):
        x = random_element(rng, basis)
        val = mp_value(x)
        if abs(val) < mpmath.mpf(10) ** -45:
            assert x.sign() == 0
        else:
            assert x.sign() == (1 if val > 0 else -1)


def test_floor_is_exactly_consistent():
    # floor needs no oracle: n = floor(x) is correct iff n <= x < n+1,
    # and both inequalities are exact sign tests
    rng = random.Random(1205)
    basis = RadicalBasis([2, 5, 7])
    for _ in range(200):
        x = random_element(rng, basis)
        n = x.floor()
        assert (x - ExactReal.rational(n)).sign() >= 0
        assert (x - ExactReal.rational(n + 1)).sign() < 0


def test_floor_division_matches_mpmath():
    rng = random.Random(1210)
    basis = RadicalBasis([2, 3, 5, 7])
    checked = 0
    with mpmath.workdps(200):
        for _ in range(300):
            x = random_element(rng, basis)
            y = random_element(rng, basis)
            if x.is_zero() or y.is_zero():
                continue
            r = commensurable(x, y)
            if r is not None:
                assert x // y == r.numerator // r.denominator
                continue
            q = mp_value(x) / mp_value(y)
            # an irrational ratio is far from every integer at 200 digits
            assert abs(q - mpmath.nint(q)) > mpmath.mpf(10) ** -150
            neg, man, exp, _ = q._mpf_  # q = (-1)^neg * man * 2^exp
            assert x // y == math.floor((-1) ** neg * man * Fraction(2) ** exp)
            checked += 1
    assert checked > 100


def test_floor_division_of_exact_integer_ratios():
    # x = k*y: the enclosures straddle k at every precision, so only the
    # exact ratio decides; a 2^-200 nudge either way is decided by them
    tiny = ExactReal.sqrt(7).scale(Fraction(1, 2**200))
    for y in (
        ExactReal.rational(1) + ExactReal.sqrt(2),
        ExactReal.sqrt(5) - ExactReal.sqrt(3),
        -ExactReal.sqrt(3),
    ):
        below = 0 if y.sign() > 0 else -1
        for k in range(-5, 6):
            x = y.scale(k)
            assert x // y == k
            assert (x + tiny) // y == k + below
            assert (x - tiny) // y == k - 1 - below


def _enclosures_taken(monkeypatch) -> list[int]:
    """The prec of every enclosure taken from now on, in order."""
    precs: list[int] = []
    real = ExactReal._enclosure_scaled

    def recorded(self, prec):
        precs.append(prec)
        return real(self, prec)

    monkeypatch.setattr(ExactReal, "_enclosure_scaled", recorded)
    return precs


def test_floor_division_matches_corner_quotients(monkeypatch):
    # x // y, the first partial quotient, against the four-corner floor
    # it replaced: the same floor from the same enclosures, and exact,
    # k <= x/y < k + 1 by two sign tests
    precs = _enclosures_taken(monkeypatch)
    cases = floor_cases(random.Random(2101))
    assert len(cases) > 600
    for x, y in cases:
        precs.clear()
        k = x // y
        taken = list(precs)
        precs.clear()
        assert k == corner_floor(x, y), (x, y)
        assert taken == precs, (x, y)
        s = y.sign()
        assert (x - y.scale(k)).sign() * s >= 0 and (y.scale(k + 1) - x).sign() * s > 0


def test_a_shared_quotient_is_yielded_at_once(monkeypatch):
    # at 64 bits the low end of x = 3 + sqrt(2)/2^200 is exactly 3, so
    # that end's Euclid stops after one quotient.  x lies strictly above
    # it, so 3 is certain from that one enclosure; dropping the last
    # shared quotient waited for 512 bits
    precs = _enclosures_taken(monkeypatch)
    x = ExactReal.rational(3) + ExactReal.sqrt(2).scale(Fraction(1, 2**200))
    one = ExactReal.rational(1)
    assert next(quotients(x, one)) == 3
    assert precs == [64, 64]
    precs.clear()
    assert next(drop_last_quotients(x, one)) == 3
    assert max(precs) == 512
    assert x.floor() == (-x).floor() + 7 == 3


def test_floor_division_edge_cases():
    s2 = ExactReal.sqrt(2)
    zero = ExactReal.rational(0)
    assert zero // s2 == 0
    assert zero // -s2 == 0
    assert s2 // 1 == 1
    assert s2.scale(10) // 3 == 4
    assert s2 // Fraction(-1, 2) == -3
    assert s2 // ExactReal.rational(Fraction(1, 3)) == 4
    assert ExactReal.rational(Fraction(-7, 2)) // ExactReal.rational(2) == -2
    for x in (s2, zero):
        with pytest.raises(DivisionByZero):
            x // zero
        with pytest.raises(DivisionByZero):
            x // 0


def test_enclosure_brackets_the_value():
    rng = random.Random(1206)
    basis = RadicalBasis([2, 3, 7])
    for _ in range(60):
        x = random_element(rng, basis)
        for prec in (16, 48, 96):
            lo, hi = enclosure(x, prec)
            assert (x - ExactReal.rational(lo)).sign() >= 0
            assert (ExactReal.rational(hi) - x).sign() >= 0
            # each term contributes |coeff| + rounding slack of one
            # scaled unit on each side
            budget = sum(abs(c) for c in x.coords.values()) + 2 * (len(x.coords) + 1)
            assert hi - lo <= Fraction(budget, 2**prec)


def test_comparison_orders_like_mpmath():
    rng = random.Random(1207)
    basis = RadicalBasis([2, 3])
    xs = [random_element(rng, basis) for _ in range(40)]
    by_exact = sorted(xs)
    by_float = sorted(xs, key=lambda v: mp_value(v))
    assert [mp_value(a) for a in by_exact] == [mp_value(a) for a in by_float]


ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def order_pairs(seed: int) -> list[tuple]:
    """Seeded pairs: values over 1-3 radicands, rationals (also as a
    Fraction), equal values built two ways, x against -x, and pairs
    2^-81 apart, whose 64-bit boxes overlap."""
    rng = random.Random(seed)
    one, tiny = ExactReal.rational(1), ExactReal.sqrt(2).scale(Fraction(1, 2**81))
    pairs = []
    for _ in range(40):
        basis = RadicalBasis(rng.sample([2, 3, 5, 6, 7], rng.randint(1, 3)))
        x, y = random_element(rng, basis), random_element(rng, basis)
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        pairs += [
            (x, y),
            (ExactReal.rational(q), ExactReal.rational(Fraction(rng.randint(-20, 20), 3))),
            (x, q),
            ((x + y) - y, x),
            (x * (y + one), x * y + x),
            (x, -x),
            (x, x + tiny),
            (x - tiny, x),
        ]
    return pairs


def test_order_agrees_with_the_sign_of_the_difference():
    for x, y in order_pairs(1209):
        s = (x - y).sign()
        for _ in range(2):  # with fresh boxes, then with the kept ones
            for op in ORDER:
                assert op(x, y) == op(s, 0), (op, x, y)
                assert op(y, x) == op(-s, 0), (op, y, x)


def test_disjoint_boxes_take_no_sign_test(monkeypatch):
    calls = [0]
    real = ExactReal.sign

    def counting(self):
        calls[0] += 1
        return real(self)

    decided = tested = 0
    for x, y in order_pairs(1210):
        y = y if isinstance(y, ExactReal) else ExactReal.rational(y)
        (x_lo, x_hi), (y_lo, y_hi) = x._enclosure_scaled(64), y._enclosure_scaled(64)
        disjoint = x_hi < y_lo or y_hi < x_lo
        decided, tested = decided + disjoint, tested + (not disjoint)
        for op in ORDER:
            calls[0] = 0
            monkeypatch.setattr(ExactReal, "sign", counting)
            op(x, y)
            monkeypatch.undo()
            assert calls[0] == (0 if disjoint else 1), (op, x, y)
    assert decided and tested
    # sign() starts from the box a comparison kept: no second 64-bit
    # enclosure when the box excludes 0
    x = ExactReal.sqrt(2) - ExactReal.rational(1)
    assert x > 0
    monkeypatch.setattr(ExactReal, "_enclosure_scaled", lambda self, prec: 1 / 0)
    assert x.sign() == 1


def test_string_round_trips_through_parser():
    rng = random.Random(1208)
    basis = RadicalBasis([2, 3, 5])
    for _ in range(120):
        x = random_element(rng, basis)
        assert parse_real(str(x)) == x


def test_str_matches_fraction_renderer():
    rng = random.Random(1209)
    for _ in range(300):
        coords = {d: random_coefficient(rng) for d in rng.sample([1, 2, 3, 5, 6, 7], rng.randint(0, 4))}
        x = ExactReal(RadicalBasis(coords), coords)
        assert str(x) == fraction_real_text(x)
    # a coefficient past the interpreter's integer string limit raises
    # its ValueError, as the Fraction renderer did
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        big = 10**4300
        for c in (Fraction(big), Fraction(-big), Fraction(1, big), Fraction(big, 7)):
            for d in (1, 2):
                x = ExactReal(RadicalBasis([d]), {d: c})
                with pytest.raises(ValueError) as want:
                    fraction_real_text(x)
                with pytest.raises(ValueError) as got:
                    str(x)
                assert str(got.value) == str(want.value)
    finally:
        sys.set_int_max_str_digits(old)


def test_approx_str_is_12_significant_digits():
    x = ExactReal.sqrt(2)
    assert x.approx_str(12) == "1.41421356237"
    y = ExactReal.sqrt(2).scale(100)
    assert y.approx_str(12) == "141.421356237"
    assert ExactReal.rational(0).approx_str(12) == "0"
    assert ExactReal.rational(Fraction(1, 3)).approx_str(6) == "0.333333"
    rng = random.Random(1209)
    basis = RadicalBasis([2, 3])
    for _ in range(80):
        x = random_element(rng, basis)
        s = x.approx_str(12)
        if x.is_zero():
            assert s == "0"
            continue
        rel = abs(mpmath.mpf(s) - mp_value(x)) / abs(mp_value(x))
        assert rel < mpmath.mpf(10) ** -11


def test_approx_str_matches_fraction_reference():
    # seeded differential against the Fraction rendering of the same
    # enclosure midpoint, on signed values from 1e-30 to 1e30
    rng = random.Random(2026)
    bases = [RadicalBasis([2, 3]), RadicalBasis([5, 6, 7]), RadicalBasis([])]
    for _ in range(600):
        x = random_element(rng, rng.choice(bases), span=10**6)
        x = x.scale(Fraction(10) ** rng.randint(-30, 30))
        for digits in (12, rng.randint(1, 20)):
            assert x.approx_str(digits) == approx_str_reference(x, digits), (x, digits)

    # exact decimals, the carry at 0.999..., and exact half units (dyadic,
    # so the enclosure midpoint is the value itself) rounding half up
    for q, text in (
        (Fraction(12345, 1000), "12.345"),
        (Fraction(-7, 10**30), "-0.000000000000000000000000000007"),
        (Fraction(10**30), "1000000000000000000000000000000"),
        (Fraction(9999999999996, 10**13), "1"),
        (Fraction(-9999999999996, 10**13), "-1"),
        (Fraction(9999999999994, 10**13), "0.999999999999"),
        (Fraction(2469135780245, 10), "246913578025"),
        (Fraction(2469135780235, 10), "246913578024"),
        (Fraction(-2469135780245, 10), "-246913578025"),
        (Fraction(1234567890125, 2**3 * 10**9), "154.320986266"),
    ):
        x = ExactReal.rational(q)
        assert x.approx_str(12) == decimal_text(q) == text, q
    for _ in range(300):
        # a / 2^j = a * 5^j / 10^j, with a odd and a * 5^j of 13 digits:
        # the 13th significant digit is an exact 5
        j = rng.randint(1, 18)
        lo, hi = -(-(10**12) // 5**j), -(-(10**13) // 5**j)
        a = 2 * rng.randint(lo // 2, (hi - 2) // 2) + 1
        q = Fraction(a * rng.choice((1, -1)), 2**j) * 10 ** rng.randint(0, 20)
        text = ExactReal.rational(q).approx_str(12)
        assert text == decimal_text(q), q
        assert text.lstrip("-0.").replace(".", "").startswith(str((a * 5**j + 5) // 10).rstrip("0"))
    with pytest.raises(ValueError):
        ExactReal.sqrt(2).approx_str(0)

    # up to 40 digits, and exponents far past the integer string limit
    # (Tier-1 runs under the default limit and with none), signed and
    # irrational too
    rng = random.Random(2028)
    for _ in range(100):
        x = random_element(rng, rng.choice(bases), span=10**6)
        x = x.scale(Fraction(10) ** rng.randint(-40, 40))
        digits = rng.randint(21, 40)
        assert x.approx_str(digits) == approx_str_reference(x, digits), (x, digits)
    neg, pos = ExactReal.rational(Fraction(-7, 3)), ExactReal.sqrt(3).scale(5) - ExactReal.sqrt(2)
    rows = [(x, e, digits) for x in (neg, pos) for e in (5000, -5000) for digits in (1, 12, 40)]
    rows += [(pos, 100000, 40), (neg, 100000, 1), (pos, -100000, 12)]
    for x, e, digits in rows:
        x = x.scale(Fraction(10) ** e)
        assert x.approx_str(digits) == approx_str_reference(x, digits), (e, digits)


def test_division_by_zero():
    x = ExactReal.sqrt(2)
    zero = ExactReal.rational(0)
    # division is multiplication by the inverse: a zero divisor of any
    # type fails alike
    for divisor in (zero, 0, Fraction(0)):
        with pytest.raises(DivisionByZero, match="^invert of zero element$"):
            x / divisor
    with pytest.raises(DivisionByZero):
        zero.invert()
    for q, inverse in ((3, Fraction(1, 3)), (Fraction(-2, 5), Fraction(-5, 2)),
                       (ExactReal.rational(Fraction(7, 3)), Fraction(3, 7))):
        assert x / q == x.scale(inverse), q


def test_rational_elements_hash_as_their_fractions():
    # x == 3 must put x and 3 in one set bucket
    assert ExactReal.rational(3) == 3
    assert 3 in {ExactReal.rational(3)}
    assert ExactReal.rational(3) in {3}
    assert Fraction(-1, 2) in {ExactReal.rational(Fraction(-1, 2))}
    assert hash(ExactReal.rational(0)) == hash(0)
    assert len({ExactReal.rational(2), 2, Fraction(4, 2)}) == 1
    s2 = ExactReal.sqrt(2)
    assert hash(s2 + 1) == hash(1 + s2) and s2 + 1 in {s2 + 1}


def test_reflected_division_by_a_non_number_is_a_type_error():
    # the operand type is checked before the divisor is inverted
    for x in (ExactReal.rational(0), ExactReal.sqrt(2)):
        assert x.__rtruediv__("a") is NotImplemented
        with pytest.raises(TypeError):
            "a" / x
    with pytest.raises(DivisionByZero):
        1 / ExactReal.rational(0)
    assert 1 / ExactReal.sqrt(2) == ExactReal.sqrt(2).scale(Fraction(1, 2))


def test_foreign_operands_are_type_errors():
    # an operand that is not an int, Fraction or ExactReal is refused on
    # either side, and equality with one is False
    x = ExactReal.sqrt(2)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv,
           operator.floordiv, operator.lt, operator.le, operator.gt, operator.ge)
    for op in ops:
        for a, b in ((x, "a"), ("a", x), (x, 1.5), (1.5, x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert (x == "a") is False and (x != 1.5) is True
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        ExactReal.rational(0.5)
    with pytest.raises(ValueError, match=r"^sqrt\(2\) is irrational$"):
        x.as_rational()


def test_repr_shows_the_value():
    x = ExactReal.sqrt(2).scale(Fraction(-1, 2)) + 3
    assert repr(x) == "ExactReal(3 - (1/2)*sqrt(2))"
    assert repr(ExactReal.rational(0)) == "ExactReal(0)"


def test_commensurable_cases():
    assert commensurable(ExactReal.sqrt(2), ExactReal.sqrt(2).scale(3)) == Fraction(1, 3)
    assert commensurable(ExactReal.sqrt(8), ExactReal.sqrt(2)) == 2
    assert commensurable(ExactReal.rational(1), ExactReal.sqrt(2)) is None
    mixed = ExactReal.rational(1) + ExactReal.sqrt(2)
    assert commensurable(mixed, mixed.scale(Fraction(7, 5))) == Fraction(5, 7)
    assert commensurable(mixed, ExactReal.sqrt(2)) is None


def test_commensurable_random_ratios():
    rng = random.Random(1210)
    basis = RadicalBasis([2, 3])
    for _ in range(100):
        y = random_element(rng, basis)
        if y.is_zero():
            continue
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q == 0:
            continue
        assert commensurable(y.scale(q), y) == q


def layout_pair(rng: random.Random) -> tuple[ExactReal, FractionMapReal]:
    """An element and its Fraction map, with keys in a random order:
    rationals, shared and mixed denominators, 31-digit coefficients."""
    keys = rng.sample([1, 2, 3, 5, 6, 7, 10, 15], rng.choice([0, 1, 1, 2, 3, 4]))
    if rng.random() < 0.2:
        keys = [1]
    den = rng.choice([1, 2, 6, 7, 12])
    coords = {}
    for d in keys:
        c = random_coefficient(rng) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), den)
        coords[d] = c
    x = ExactReal(RadicalBasis(keys), coords)
    return x, FractionMapReal({d: c for d, c in coords.items() if c})


def assert_same_layout(x: ExactReal, fx: FractionMapReal) -> None:
    # the same coordinates in the same order, on one reduced denominator
    assert list(x.coords.items()) == list(fx.coords.items()), (x, fx.coords)
    assert x.den > 0 and math.gcd(x.den, *x.nums.values()) == 1, (x.den, x.nums)
    assert all(x.nums.values())
    if x.is_rational():
        assert hash(x) == hash(x.as_rational()) == fx.hash()


def test_integer_layout_matches_the_fraction_map_oracle():
    # every ring operation on (den, nums) against the coordinate-wise
    # Fraction arithmetic it replaced: values, key order, reduction,
    # hashes, commensurability, quotients and every enclosure
    rng = random.Random(2602)
    for _ in range(500):
        (x, fx), (y, fy) = layout_pair(rng), layout_pair(rng)
        q = rng.choice([0, 3, -2, Fraction(1, 2), Fraction(-5, 6), Fraction(7, 12)])
        fq = FractionMapReal({1: Fraction(q)} if q else {})
        cases = [
            (x, fx), (x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (-x, -fx),
            (x.scale(q), fx.scale(q)), (x + q, fx + fq), (q + x, fq + fx), (q - x, fq - fx),
            (x - x, fx - fx), (x + x, fx + fx),
        ]
        if not y.is_zero():
            cases += [(x / y, fx / fy), (y.invert(), fy.invert())]
            if not x.is_zero():
                assert commensurable(x, y) == fraction_commensurable(fx, fy)
            got = list(itertools.islice(quotients(x, y), 6))
            assert got == list(itertools.islice(fraction_quotients(fx, fy), 6)), (x, y)
        for got, want in cases:
            assert_same_layout(got, want)
            for prec in (64, 128, 256, 512, 1024):
                assert got._enclosure_scaled(prec) == want.enclosure_scaled(prec), (got, prec)


def test_enclosures_floor_each_coordinate():
    # floors taken per coordinate, as the Fraction layout took them; one
    # floor of the summed numerators over den gives a narrower box, which
    # moves this bound (the orbit walk's steps come from the boxes)
    alpha = parse_real("(1/3)*sqrt(5) - 2/7")
    assert orbit_discrepancy(alpha, 10) == Fraction(3314116497341319310773, 23611832414348226068480)
    assert alpha._enclosure_scaled(64) == FractionMapReal.of(alpha).enclosure_scaled(64)
