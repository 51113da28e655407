"""Periodic interval patterns: rotation, invariance, symmetric difference.

The symmetric-difference oracles below work in bare Fraction arithmetic
over midpoint membership, or sum pairwise interval overlaps, sharing no
code with the library's merge sweep; fundamental periods are compared
with the complete endpoint-difference search in oracles.py.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import endpoint_difference_period, measure, rotate_scan_period
from periodalg import pointsets
from periodalg.errors import EmptyPattern, FullLine, ModulusMismatch
from periodalg.exactreal import ExactReal
from periodalg.pointsets import (
    IntervalPattern,
    fundamental_period,
    is_invariant,
    rotate,
    symdiff_measure,
)


def frac_symdiff(p_ivs, q_ivs, modulus: Fraction) -> Fraction:
    """Midpoint-membership sweep over rational patterns."""
    cuts = {Fraction(0), modulus}
    for a, b in list(p_ivs) + list(q_ivs):
        cuts.add(Fraction(a))
        cuts.add(Fraction(b))
    xs = sorted(cuts)

    def inside(ivs, x):
        return any(a < x < b for a, b in ivs)

    total = Fraction(0)
    for lo, hi in zip(xs, xs[1:]):
        mid = (lo + hi) / 2
        if inside(p_ivs, mid) != inside(q_ivs, mid):
            total += hi - lo
    return total


def random_rational_pattern(rng: random.Random, modulus: Fraction):
    cuts = set()
    for _ in range(rng.randint(2, 8)):
        cuts.add(Fraction(rng.randint(1, 23), 24) * modulus)
    xs = sorted(cuts)
    ivs = [(a, b) for a, b in zip(xs[::2], xs[1::2])]
    if not ivs:
        ivs = [(modulus / 4, modulus / 2)]
    return ivs


def test_constructor_validation():
    with pytest.raises(ValueError):
        IntervalPattern(0, [])
    with pytest.raises(ValueError):
        IntervalPattern(1, [(Fraction(1, 2), Fraction(1, 4))])
    with pytest.raises(ValueError):
        IntervalPattern(1, [(Fraction(1, 2), Fraction(5, 4))])
    with pytest.raises(ValueError):
        IntervalPattern(1, [(Fraction(1, 2), 1), (0, Fraction(1, 4))])
    with pytest.raises(ValueError):
        IntervalPattern(1, [(Fraction(1, 4), Fraction(1, 2))], wrap_point=True)
    p = IntervalPattern(1, [(0, Fraction(1, 4)), (Fraction(1, 2), 1)], wrap_point=True)
    assert p.wrap_point
    assert measure(p) == ExactReal.rational(Fraction(3, 4))


def test_equal_patterns_hash_equal_and_print_their_intervals():
    # the same set from other inputs: a rational end written as a product
    # of irrationals, and a rotation undone
    s2 = ExactReal.sqrt(2)
    p = IntervalPattern(1, [(0, Fraction(1, 4)), (Fraction(1, 2), 1)], wrap_point=True)
    q = IntervalPattern(
        ExactReal.rational(1),
        [(s2 - s2, s2 * s2.scale(Fraction(1, 8))), (Fraction(1, 2), Fraction(2, 2))],
        wrap_point=True,
    )
    back = rotate(rotate(p, s2), -s2)
    assert p == q == back and hash(p) == hash(q) == hash(back)
    assert len({p, q, back}) == 1
    assert repr(p) == "IntervalPattern((0, 1/4) u (1/2, 1) mod 1 +wrap)"
    assert repr(IntervalPattern(1 + s2, [])) == "IntervalPattern({} mod 1 + sqrt(2))"


def test_rotate_known_images():
    p = IntervalPattern(1, [(0, Fraction(1, 2))])
    q = rotate(p, Fraction(1, 4))
    assert q == IntervalPattern(1, [(Fraction(1, 4), Fraction(3, 4))])
    r = rotate(p, Fraction(3, 4))
    assert r == IntervalPattern(
        1, [(0, Fraction(1, 4)), (Fraction(3, 4), 1)], wrap_point=True
    )
    s = rotate(IntervalPattern(1, [(Fraction(1, 2), 1)]), Fraction(1, 2))
    assert s == IntervalPattern(1, [(0, Fraction(1, 2))])
    empty = IntervalPattern(1, [])
    assert rotate(empty, ExactReal.sqrt(2)) == empty


def test_rotate_glues_the_seam():
    p = IntervalPattern(
        1, [(0, Fraction(1, 4)), (Fraction(3, 4), 1)], wrap_point=True
    )
    assert rotate(p, Fraction(1, 4)) == IntervalPattern(1, [(0, Fraction(1, 2))])


def test_rotate_full_line_stays_full():
    p = IntervalPattern(1, [(0, 1)], wrap_point=True)
    assert p.is_full_line()
    assert rotate(p, ExactReal.sqrt(2)).is_full_line()


def test_rotate_is_group_action():
    rng = random.Random(4501)
    shifts = [
        ExactReal.rational(Fraction(1, 3)),
        ExactReal.sqrt(2),
        ExactReal.sqrt(3) - ExactReal.rational(2),
        ExactReal.rational(Fraction(-7, 5)),
    ]
    for _ in range(40):
        mod = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        p = IntervalPattern(mod, random_rational_pattern(rng, mod))
        a = rng.choice(shifts)
        b = rng.choice(shifts)
        assert rotate(p, a + b) == rotate(rotate(p, a), b)
        assert rotate(rotate(p, a), a.scale(-1)) == p
        assert rotate(p, ExactReal.rational(mod)) == p
        assert measure(rotate(p, a)) == measure(p)


def test_invariance_examples():
    p = IntervalPattern(
        1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
    )
    assert is_invariant(p, Fraction(1, 2))
    assert not is_invariant(p, Fraction(1, 4))
    assert not is_invariant(p, ExactReal.sqrt(2) - ExactReal.rational(1))
    assert fundamental_period(p) == ExactReal.rational(Fraction(1, 2))


def test_fundamental_period_cases():
    q = IntervalPattern(2, [(0, Fraction(1, 2)), (Fraction(3, 2), 2)], wrap_point=True)
    assert fundamental_period(q) == ExactReal.rational(2)
    generic = IntervalPattern(1, [(Fraction(1, 4), Fraction(5, 8))])
    assert fundamental_period(generic) == ExactReal.rational(1)
    with pytest.raises(FullLine):
        fundamental_period(IntervalPattern(1, [(0, 1)], wrap_point=True))
    with pytest.raises(EmptyPattern):
        fundamental_period(IntervalPattern(1, []))


def test_fundamental_period_of_translates():
    rng = random.Random(4502)
    for _ in range(30):
        k = rng.choice([2, 3, 4, 6])
        cell = Fraction(1, k)
        a = Fraction(rng.randint(0, 4), 24) * cell
        b = a + Fraction(rng.randint(1, 4), 24) * cell
        ivs = [(a + i * cell, b + i * cell) for i in range(k)]
        p = IntervalPattern(1, ivs)
        t0 = fundamental_period(p)
        assert is_invariant(p, cell)
        ratio = ExactReal.rational(cell) / t0
        assert ratio.coords.get(1, Fraction(0)).denominator == 1
        assert len(ratio.coords) <= 1


def test_every_invariant_shift_is_multiple_of_fundamental():
    rng = random.Random(4503)
    for _ in range(60):
        mod = Fraction(rng.choice([1, 2]))
        p = IntervalPattern(mod, random_rational_pattern(rng, mod))
        t0 = fundamental_period(p)
        for e1 in p.endpoints():
            for e2 in p.endpoints():
                d = e1 - e2
                if d.sign() <= 0:
                    continue
                if is_invariant(p, d):
                    q = d / t0
                    assert len(q.coords) <= 1
                    assert q.coords.get(1, Fraction(0)).denominator == 1


def test_symdiff_known_value():
    p = IntervalPattern(1, [(0, Fraction(1, 3))])
    q = rotate(p, ExactReal.sqrt(2) - ExactReal.rational(1))
    assert symdiff_measure(p, q) == ExactReal.rational(Fraction(2, 3))


def test_symdiff_degenerate_cases():
    p = IntervalPattern(1, [(Fraction(1, 8), Fraction(3, 8))])
    empty = IntervalPattern(1, [])
    assert symdiff_measure(p, p).is_zero()
    assert symdiff_measure(p, empty) == measure(p)
    with pytest.raises(ModulusMismatch):
        symdiff_measure(p, IntervalPattern(2, []))


def test_symdiff_ignores_wrap_bit_measure():
    p = IntervalPattern(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)], wrap_point=True)
    q = IntervalPattern(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    assert p != q
    assert symdiff_measure(p, q).is_zero()


def test_symdiff_against_fraction_sweep():
    rng = random.Random(4504)
    for _ in range(100):
        mod = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        p_ivs = random_rational_pattern(rng, mod)
        q_ivs = random_rational_pattern(rng, mod)
        p = IntervalPattern(mod, p_ivs)
        q = IntervalPattern(mod, q_ivs)
        want = frac_symdiff(p_ivs, q_ivs, mod)
        assert symdiff_measure(p, q) == ExactReal.rational(want)
        assert symdiff_measure(q, p) == ExactReal.rational(want)


def test_symdiff_with_irrational_rotation_positive():
    rng = random.Random(4505)
    alpha = ExactReal.sqrt(2) - ExactReal.rational(1)
    for _ in range(40):
        mod = Fraction(1)
        p = IntervalPattern(mod, random_rational_pattern(rng, mod))
        if p.is_empty() or p.is_full_line():
            continue
        assert symdiff_measure(p, rotate(p, alpha)).sign() > 0


SILVER = ExactReal.rational(1) + ExactReal.sqrt(2)


def circle_pattern(L: ExactReal, arcs) -> IntervalPattern:
    """Pattern of open arcs (s, e) given in units of L, 0 <= s < e <= s + 1.

    An arc with e > 1 crosses the seam: it is stored split and sets the
    wrap bit, so such a pattern has one more interval than arcs.
    """
    ivs, wrap = [], False
    for s, e in arcs:
        if e > 1:
            ivs += [(s, Fraction(1)), (Fraction(0), e - 1)]
            wrap = True
        else:
            ivs.append((s, e))
    ivs.sort()
    return IntervalPattern(L, [(L.scale(a), L.scale(b)) for a, b in ivs], wrap)


def planted_arcs(rng: random.Random, k: int, offset: Fraction):
    """Arcs of one cell of width 1/k on a 1/24 grid, repeated k times."""
    grid = sorted(rng.sample(range(25), 2 * rng.randint(1, 2)))
    cell = []
    for i in range(0, len(grid), 2):
        lo, hi = grid[i], grid[i + 1]
        if cell and rng.random() < 0.3:
            lo = cell[-1][1]  # touch the previous arc: two arcs, one shared endpoint
        cell.append((lo, hi))
    arcs = []
    for i in range(k):
        for lo, hi in cell:
            s = (i + Fraction(lo, 24)) / k + offset
            e = (i + Fraction(hi, 24)) / k + offset
            if s >= 1:
                s, e = s - 1, e - 1
            arcs.append((s, e))
    return arcs


def perturb_one_endpoint(rng: random.Random, p: IntervalPattern) -> IntervalPattern:
    """Shrink one interval at an endpoint off the seam by an exact tiny step."""
    ivs = list(p.intervals)
    seam = (ExactReal.rational(0), p.modulus)
    choices = [
        (i, side) for i, iv in enumerate(ivs) for side in (0, 1) if iv[side] not in seam
    ]
    if not choices:
        return p
    i, side = rng.choice(choices)
    step = rng.choice(
        [ExactReal.rational(Fraction(1, 1000)), ExactReal.sqrt(3).scale(Fraction(1, 2000))]
    )
    a, b = ivs[i]
    ivs[i] = (a + step, b) if side == 0 else (a, b - step)
    return IntervalPattern(p.modulus, ivs, p.wrap_point)


def seeded_patterns(rng: random.Random, count: int):
    moduli = [
        ExactReal.rational(1), ExactReal.rational(Fraction(3, 2)), SILVER, SILVER.scale(2)
    ]
    for _ in range(count):
        L = rng.choice(moduli)
        k = rng.choice([1, 2, 3, 4, 6])
        offset = rng.choice([Fraction(0), Fraction(0), Fraction(rng.randint(1, 23), 24)])
        p = circle_pattern(L, planted_arcs(rng, k, offset))
        if rng.random() < 0.3:
            p = perturb_one_endpoint(rng, p)
        yield p


def pairwise_overlap_symdiff(p: IntervalPattern, q: IntervalPattern) -> ExactReal:
    """|P| + |Q| - 2|P n Q|, the overlap summed over every pair of intervals."""
    common = ExactReal.rational(0)
    for a, b in p.intervals:
        for c, d in q.intervals:
            width = min(b, d) - max(a, c)
            if width.sign() > 0:
                common = common + width
    return measure(p) + measure(q) - common.scale(2)


def test_fundamental_period_matches_endpoint_oracle():
    rng = random.Random(4506)
    kinds = {"irrational": 0, "wrap": 0, "zero_no_wrap": 0, "planted": 0}
    for p in seeded_patterns(rng, 200):
        want = endpoint_difference_period(p)
        assert fundamental_period(p) == want, p
        kinds["irrational"] += len(p.modulus.coords) > 1
        kinds["wrap"] += p.wrap_point  # a seam-crossing arc: one arc fewer than intervals
        kinds["zero_no_wrap"] += not p.wrap_point and p.intervals[0][0].is_zero()
        kinds["planted"] += want != p.modulus
    assert all(v >= 10 for v in kinds.values()), kinds


def test_rotate_output_passes_the_public_checks():
    # rotate builds its result without re-validation; the public
    # constructor's full checks must accept every output as it stands
    rng = random.Random(4506)
    for p in seeded_patterns(rng, 200):
        L = p.modulus
        shifts = [L.scale(Fraction(1, k)) for k in (2, 3, 5)]
        shifts += [SILVER - ExactReal.rational(2), L - p.intervals[0][1], L - p.intervals[-1][0]]
        for t in shifts:
            out = rotate(p, t)
            assert out == IntervalPattern(out.modulus, out.intervals, out.wrap_point)
            assert rotate(out, -t) == p


def test_symdiff_is_symmetric_and_matches_pairwise_overlap():
    rng = random.Random(4507)
    alpha = ExactReal.sqrt(2) - ExactReal.rational(1)
    patterns = list(seeded_patterns(rng, 80))
    for p in patterns:
        same_modulus = [q for q in patterns if q.modulus == p.modulus]
        for q in (rng.choice(same_modulus), rotate(p, alpha), perturb_one_endpoint(rng, p)):
            want = pairwise_overlap_symdiff(p, q)
            assert symdiff_measure(p, q) == want
            assert symdiff_measure(q, p) == want


def test_symdiff_sums_per_denominator_against_pairwise_overlap():
    # every end is (c/1000) + (w/10^8)*sqrt(d), so the sums run per
    # (radicand, denominator); P and Q draw their ends from one set, so
    # shared ends cancel exactly, and P against itself has no coords
    rng = random.Random(4508)
    for _ in range(60):
        ends = {
            c: ExactReal.rational(Fraction(c, 1000))
            + ExactReal.sqrt(rng.choice([2, 3])).scale(Fraction(rng.randint(-99, 99), 10**8))
            for c in range(1, 1000, 37)
        }

        def pattern() -> IntervalPattern:
            cuts = sorted(rng.sample(sorted(ends), 2 * rng.randint(1, 6)))
            return IntervalPattern(1, [(ends[a], ends[b]) for a, b in zip(cuts[::2], cuts[1::2])])

        p, q = pattern(), pattern()
        for a, b in ((p, q), (q, p)):
            got = symdiff_measure(a, b)
            assert got == pairwise_overlap_symdiff(a, b)
            assert all(isinstance(c, Fraction) and c for c in got.coords.values())
        same = symdiff_measure(p, p)
        assert isinstance(same, ExactReal) and same.coords == {}
    # sqrt(2) sums to 0 across three denominators: -1/2 + 1/3 + 1/6
    s = ExactReal.sqrt(2)
    x0, x1 = Fraction(1, 10) + s.scale(Fraction(1, 2 * 10**8)), Fraction(2, 10) + s.scale(Fraction(1, 3 * 10**8))
    x2, x3 = Fraction(3, 10) - s.scale(Fraction(1, 6 * 10**8)), ExactReal.rational(Fraction(4, 10))
    got = symdiff_measure(IntervalPattern(1, [(x0, x1)]), IntervalPattern(1, [(x2, x3)]))
    assert got.coords == {1: Fraction(1, 5)}


def planted_64(L: ExactReal, cell_grid) -> IntervalPattern:
    """64 intervals: 8 irregular ones per cell of width L/8."""
    ivs = []
    for i in range(8):
        for lo, hi in cell_grid:
            ivs.append(
                (L.scale(Fraction(i * 96 + lo, 768)), L.scale(Fraction(i * 96 + hi, 768)))
            )
    return IntervalPattern(L, ivs)


CELL_8 = [(1, 5), (7, 9), (12, 20), (21, 30), (33, 34), (40, 55), (60, 71), (80, 93)]


def test_fundamental_period_tries_only_divisors_of_the_arc_count(monkeypatch):
    # each candidate L/k is made by one L.scale(1/k), and no rotation
    p = planted_64(SILVER, CELL_8)
    want = SILVER.scale(Fraction(1, 8))
    tried = []
    real = ExactReal.scale

    def recording(self, q):
        if self == SILVER:
            tried.append(q)
        return real(self, q)

    def no_rotate(pattern, alpha):
        raise AssertionError("fundamental_period rotated the pattern")

    monkeypatch.setattr(ExactReal, "scale", recording)
    monkeypatch.setattr(pointsets, "rotate", no_rotate)
    assert fundamental_period(p) == want
    # of the d(64) - 1 = 6 divisors k >= 2 of the arc count, the largest
    # four are tried, down to the planted 8
    assert tried == [Fraction(1, 64), Fraction(1, 32), Fraction(1, 16), Fraction(1, 8)]


def touching_patterns(rng: random.Random, count: int):
    """Patterns whose arcs touch: at a shared endpoint, at 0 and at L
    with and without the wrap bit, over a rational or irrational L."""
    for _ in range(count):
        L = rng.choice([ExactReal.rational(1), SILVER])
        k = rng.choice([1, 2, 3, 4, 6])
        # one cell of width 1/k, cut at 0 < c1 < c2 <= 24 on a 1/24 grid:
        # arcs (0, c1) and (c1, c2), or just (0, c2)
        c1, c2 = sorted(rng.sample(range(1, 25), 2))
        cell = [(0, c1), (c1, c2)] if rng.random() < 0.7 else [(0, c2)]
        offset = Fraction(rng.randint(0, 23), 24 * k) if rng.random() < 0.4 else Fraction(0)
        arcs = [
            ((i + Fraction(lo, 24)) / k + offset, (i + Fraction(hi, 24)) / k + offset)
            for i in range(k)
            for lo, hi in cell
        ]
        arcs = [(s - 1, e - 1) if s >= 1 else (s, e) for s, e in arcs]
        p = circle_pattern(L, arcs)
        if p.is_full_line():
            continue
        if rng.random() < 0.3:
            p = perturb_one_endpoint(rng, p)
        yield p


def test_fundamental_period_matches_rotate_scan(monkeypatch):
    rng = random.Random(4508)
    patterns = list(seeded_patterns(rng, 150)) + list(touching_patterns(rng, 150))
    kinds = {"irrational": 0, "wrap": 0, "touch": 0, "first_at_0": 0, "last_at_L": 0, "planted": 0}
    for p in patterns:
        want = rotate_scan_period(p)
        monkeypatch.setattr(pointsets, "rotate", None)  # fundamental_period must not rotate
        assert fundamental_period(p) == want, p
        monkeypatch.undo()
        ivs = p.intervals
        kinds["irrational"] += len(p.modulus.coords) > 1
        kinds["wrap"] += p.wrap_point
        kinds["touch"] += any(b == a for (_, b), (a, _) in zip(ivs, ivs[1:]))
        kinds["first_at_0"] += not p.wrap_point and ivs[0][0].is_zero()
        kinds["last_at_L"] += not p.wrap_point and ivs[-1][1] == p.modulus
        kinds["planted"] += want != p.modulus
    assert all(v >= 20 for v in kinds.values()), kinds


def count_signs(monkeypatch) -> list:
    calls = [0]
    real = ExactReal.sign

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(ExactReal, "sign", counting)
    return calls


# endpoints this close share their 64-bit enclosures
TINY = ExactReal.sqrt(2).scale(Fraction(1, 2**81))


def test_validation_falls_back_to_exact_signs(monkeypatch):
    L = SILVER
    a, b, c = SILVER.scale(Fraction(1, 5)), ExactReal.sqrt(2), SILVER.scale(Fraction(4, 5))
    ok = [
        [(a, b), (b, c)],
        [(a, b), (b + TINY, c)],
        [(a, b), (b, b + TINY)],
        [(a, L - TINY)],
        [(a, L)],
    ]
    bad = [
        ([(a, b), (b - TINY, c)], "sorted and disjoint"),
        ([(a, b), (b, b)], "bad interval"),
        ([(a, b), (b, b - TINY)], "bad interval"),
        ([(a, L + TINY)], "bad interval"),
        ([(-TINY, a)], "bad interval"),
    ]
    for ivs in ok:
        calls = count_signs(monkeypatch)
        IntervalPattern(L, ivs)
        monkeypatch.undo()
        assert calls[0] >= 1, ivs  # at least one fallback; the modulus's box clears 0
    for ivs, message in bad:
        with pytest.raises(ValueError, match=message):
            IntervalPattern(L, ivs)


def test_rotate_falls_back_to_exact_signs(monkeypatch):
    L = SILVER
    a, b = ExactReal.sqrt(2).scale(Fraction(1, 3)), ExactReal.sqrt(2)
    p = IntervalPattern(L, [(a, b)])
    zero = ExactReal.rational(0)
    cases = [
        (L - b, [(a + L - b, L)], False),
        (L - b + TINY, [(zero, TINY), (a + L - b + TINY, L)], True),
        (L - b - TINY, [(a + L - b - TINY, L - TINY)], False),
        (L - a, [(zero, b - a)], False),
        (L - a + TINY, [(TINY, b - a + TINY)], False),
        (L - a - TINY, [(zero, b - a - TINY), (L - TINY, L)], True),
    ]
    for t, ivs, wrap in cases:
        calls = count_signs(monkeypatch)
        got = rotate(p, t)
        monkeypatch.undo()
        assert got == IntervalPattern(L, ivs, wrap), t
        assert calls[0] >= 1, t
        assert rotate(got, -t) == p
    # a step over three roots takes a rational endpoint e within 2^-68
    # above L: the shifted enclosure must take both ends of the step's
    c, e = ExactReal.rational(Fraction(1, 122)), ExactReal.rational(Fraction(1, 61))
    q = IntervalPattern(L, [(c, e)])
    for k in range(1, 9):
        d = ExactReal.sqrt(3).scale(Fraction(k, 2**68)) - ExactReal.sqrt(6).scale(Fraction(k, 2**69))
        t = L - e + d
        assert rotate(q, t) == IntervalPattern(L, [(zero, d), (c + t, L)], True), k


def test_symdiff_falls_back_to_exact_signs(monkeypatch):
    L = SILVER
    a, b, c = SILVER.scale(Fraction(1, 5)), ExactReal.sqrt(2), SILVER.scale(Fraction(4, 5))
    p = IntervalPattern(L, [(a, b), (b, c)])
    cases = [
        ([(a, b), (b, c)], ExactReal.rational(0)),
        ([(a, b + TINY), (b + TINY.scale(2), c)], TINY),
        ([(a, b - TINY)], c - b + TINY),
        ([(a - TINY, b), (b + TINY, c + TINY)], TINY.scale(3)),
    ]
    for ivs, want in cases:
        q = IntervalPattern(L, ivs)
        calls = count_signs(monkeypatch)
        got = symdiff_measure(p, q), symdiff_measure(q, p)
        monkeypatch.undo()
        assert got == (want, want), ivs
        assert got[0] == pairwise_overlap_symdiff(p, q)
        assert calls[0] >= 2, ivs


def test_symdiff_makes_linearly_many_sign_tests(monkeypatch):
    p = planted_64(SILVER, CELL_8)
    q = planted_64(SILVER, [(lo + 2, hi + 2) for lo, hi in CELL_8])
    n = len(p.intervals) + len(q.intervals)
    calls = [0]
    real = ExactReal.sign

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(ExactReal, "sign", counting)
    got = symdiff_measure(p, q)
    monkeypatch.undo()
    assert got == pairwise_overlap_symdiff(p, q)
    assert calls[0] <= 4 * n


def test_rotate_inverts_no_field_element(monkeypatch):
    calls = [0]
    real = ExactReal.invert

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(ExactReal, "invert", counting)
    p = planted_64(SILVER, CELL_8)
    assert fundamental_period(p) == SILVER.scale(Fraction(1, 8))
    # shifts that are whole multiples of L (the enclosures cannot decide
    # the floor), negative ones, and irrational ones in another field
    for t in (SILVER, SILVER.scale(-3), -ExactReal.sqrt(3), ExactReal.sqrt(3).scale(10**6)):
        out = rotate(p, t)
        assert rotate(out, -t) == p
    assert rotate(p, SILVER.scale(-3)) == p
    monkeypatch.undo()
    assert calls[0] == 0
    assert rotate(p, ExactReal.sqrt(3)) == rotate(p, ExactReal.sqrt(3) - SILVER.scale(7))
