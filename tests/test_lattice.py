"""Integer lattices: HNF canonicality, membership, intersection, classification.

Membership is cross-checked by rational Gaussian elimination and
intersection by brute-force box enumeration; neither oracle shares code
with the implementation.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from periodalg.errors import (
    DimensionMismatch,
    DivisionByZero,
    EmptyInput,
    UnknownRadicand,
)
from periodalg.exactreal import ExactReal, RadicalBasis
from periodalg.funcalg import evaluate, parse, shift
from periodalg.lattice import (
    CoeffLattice,
    Dense,
    Discrete,
    classify_group,
    cut,
    intersect,
    member,
)

from oracles import (
    basis_of_dim,
    common_points_by_box,
    random_basis,
    random_lattice,
    random_operand,
    solve_membership,
)

B2 = basis_of_dim(2)


def test_hnf_is_canonical_under_generator_changes():
    base = CoeffLattice([(2, 0), (0, 3)], B2)
    same = CoeffLattice([(2, 3), (2, 0), (4, 3)], B2)
    assert base == same
    assert base.hnf == ((2, 0), (0, 3))


def test_hnf_removes_redundant_generators():
    lat = CoeffLattice([(1, 2), (2, 4), (3, 6)], B2)
    assert lat.rank == 1
    assert lat.hnf == ((1, 2),)


def test_hnf_pivots_positive_and_reduced():
    rng = random.Random(2301)
    for _ in range(100):
        dim = rng.choice([2, 3, 4])
        gens = [
            tuple(rng.randint(-6, 6) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 1))
        ]
        lat = CoeffLattice(gens, basis_of_dim(dim))
        pivots = []
        for row in lat.hnf:
            j = next(i for i, x in enumerate(row) if x)
            pivots.append(j)
            assert row[j] > 0
            for above in lat.hnf:
                if above is row:
                    break
                assert 0 <= above[j] < row[j]
        assert pivots == sorted(pivots)


def test_hnf_invariant_under_unimodular_remix():
    rng = random.Random(2302)
    for _ in range(60):
        dim = rng.choice([2, 3])
        lat = random_lattice(rng, dim)
        gens = [list(g) for g in lat.hnf]
        # a few random elementary row operations keep the lattice fixed
        for _ in range(6):
            i, j = rng.sample(range(len(gens)), 2)
            c = rng.randint(-2, 2)
            gens[i] = [a + c * b for a, b in zip(gens[i], gens[j])]
        assert CoeffLattice(gens, basis_of_dim(dim)) == lat


def test_membership_against_rational_solver():
    rng = random.Random(2303)
    for _ in range(120):
        dim = rng.choice([2, 3])
        lat = random_lattice(rng, dim)
        v = tuple(rng.randint(-8, 8) for _ in range(dim))
        assert member(lat, v) == solve_membership(list(lat.hnf), v)


def test_membership_of_constructed_points():
    rng = random.Random(2304)
    for _ in range(80):
        dim = rng.choice([2, 3])
        lat = random_lattice(rng, dim)
        coeffs = [rng.randint(-5, 5) for _ in lat.hnf]
        v = tuple(
            sum(c * row[i] for c, row in zip(coeffs, lat.hnf)) for i in range(dim)
        )
        assert member(lat, v)
        assert v in lat


def test_membership_dimension_check():
    lat = CoeffLattice([(1, 0), (0, 1)], B2)
    with pytest.raises(DimensionMismatch):
        member(lat, (1, 2, 3))


def test_to_real_dimension_check():
    lat = CoeffLattice([(1, 0), (0, 1)], B2)
    with pytest.raises(DimensionMismatch, match="^vector length 1, want 2$"):
        lat.to_real((1,))


def test_equal_lattices_hash_equal_and_print_their_hnf():
    basis = RadicalBasis([2])
    lat = CoeffLattice([(2, 0), (1, 3)], basis)
    same = CoeffLattice([(1, 3), (3, 3), (0, 0), (1, -3)], basis)
    assert lat == same and hash(lat) == hash(same) and len({lat, same}) == 1
    assert repr(lat) == repr(same) == "CoeffLattice[[1, 3], [0, 6]]"
    assert repr(CoeffLattice([], basis)) == "CoeffLattice[]"


def test_generator_lengths_checked_before_zero_rows_drop():
    basis = RadicalBasis([2])
    with pytest.raises(DimensionMismatch):
        CoeffLattice([(0, 0, 0)], basis)
    with pytest.raises(DimensionMismatch):
        CoeffLattice([(1, 0), (0, 0, 0)], basis)


def test_intersection_against_box_enumeration():
    rng = random.Random(2305)
    pairs = []
    for _ in range(110):
        dim = rng.choice([2, 2, 3])
        pairs.append((random_lattice(rng, dim), random_lattice(rng, dim)))
    # operands of any rank, the empty one on either side, over one basis
    # or over two bases whose merge has at most three coordinates
    full = CoeffLattice([(1, 0), (0, 1)], B2)
    pairs += [(CoeffLattice([], B2), full), (full, CoeffLattice([], B2))]
    for _ in range(110):
        if rng.random() < 0.5:
            b1 = b2 = basis_of_dim(rng.choice([2, 3]))
        else:
            b1, b2 = random_basis(rng, 1), random_basis(rng, 1)
        pairs.append((random_operand(rng, b1), random_operand(rng, b2)))
    for l1, l2 in pairs:
        meet = intersect(l1, l2)
        basis = l1.basis.merge(l2.basis)
        assert meet.basis == basis
        l1, l2 = l1.embed(basis), l2.embed(basis)
        # soundness: the intersection is inside both inputs
        for row in meet.hnf:
            assert member(l1, row) and member(l2, row)
        # completeness on a box: every common point is in the result
        for v in common_points_by_box(l1, l2, 6):
            assert member(meet, v)


def test_cut_against_box_enumeration():
    # a point p of the lattice is in the cut exactly when p.c_j is 0
    # for each condition c_j of modulus 0 and even for each of modulus 2
    rng = random.Random(2311)
    for _ in range(150):
        basis = basis_of_dim(rng.choice([2, 3]))
        lat = random_operand(rng, basis)
        conds = [tuple(rng.randint(-2, 2) for _ in basis) for _ in range(rng.randint(0, 3))]
        mods = [rng.choice([0, 2]) for _ in conds]
        values = [tuple(sum(x * y for x, y in zip(h, c)) for c in conds) for h in lat.hnf]
        moduli = [tuple(m * (i == j) for i in range(len(conds))) for j, m in enumerate(mods) if m]
        got = cut(lat, values, moduli)
        assert got.basis == basis

        def meets(p):
            dots = (sum(x * y for x, y in zip(p, c)) for c in conds)
            return all(d % m == 0 if m else d == 0 for d, m in zip(dots, mods))

        for row in got.hnf:
            assert member(lat, row) and meets(row)
        for a in itertools.product(range(-3, 4), repeat=lat.rank):
            p = tuple(sum(c * row[j] for c, row in zip(a, lat.hnf)) for j in range(len(basis)))
            assert member(got, p) == meets(p), (lat, conds, mods, p)


def test_non_integer_coordinates_are_rejected():
    basis = RadicalBasis([2])
    z2 = CoeffLattice([(1, 0), (0, 1)], basis)
    sgn = parse("sgn(one)", z2)
    for call in [
        lambda: member(CoeffLattice([(2, 0), (0, 2)], basis), (2.5, 0)),
        lambda: member(z2, (Fraction(1, 2), 0)),
        lambda: CoeffLattice([(Fraction(3, 2), 0)], basis),
        lambda: z2.to_real((Fraction(1, 2), 0)),
        lambda: evaluate(sgn, (Fraction(1, 2), 0)),
        lambda: shift(sgn, (1.5, 0)),
    ]:
        with pytest.raises(TypeError):
            call()


def test_embed_names_a_missing_radicand():
    lat = CoeffLattice([(1, 0)], RadicalBasis([2]))
    with pytest.raises(UnknownRadicand, match=r"sqrt\(2\)"):
        lat.embed(RadicalBasis([3]))


def test_intersection_of_sublattice_is_itself():
    fine = CoeffLattice([(1, 0), (0, 1)], B2)
    coarse = CoeffLattice([(2, 0), (0, 5)], B2)
    assert intersect(fine, coarse) == coarse
    assert intersect(coarse, fine) == coarse


def test_intersection_across_different_bases():
    b1 = RadicalBasis([2, 3, 5])
    b2 = RadicalBasis([2, 3, 7])
    eye = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    d1 = CoeffLattice(eye, basis=b1)
    d2 = CoeffLattice(eye, basis=b2)
    meet = intersect(d1, d2)
    assert meet.basis.radicands == (1, 2, 3, 5, 7)
    assert meet.rank == 3
    gens = [meet.to_real(row) for row in meet.hnf]
    assert gens == [
        ExactReal.rational(1),
        ExactReal.sqrt(2),
        ExactReal.sqrt(3),
    ]


def test_classify_rational_inputs():
    got = classify_group(
        [ExactReal.rational(Fraction(1, 2)), ExactReal.rational(Fraction(3, 4))]
    )
    assert got == Discrete(ExactReal.rational(Fraction(1, 4)))
    single = classify_group([ExactReal.rational(Fraction(-5, 6))])
    assert single == Discrete(ExactReal.rational(Fraction(5, 6)))


def test_classify_dense_pairs():
    assert classify_group([ExactReal.rational(1), ExactReal.sqrt(2)]) == Dense()
    mixed = ExactReal.rational(1) + ExactReal.sqrt(2)
    assert classify_group([mixed, ExactReal.sqrt(2)]) == Dense()


def test_classify_common_irrational_factor():
    s3 = ExactReal.sqrt(3)
    got = classify_group([s3, s3.scale(2), s3.scale(Fraction(5, 2))])
    assert got == Discrete(s3.scale(Fraction(1, 2)))


def test_classify_random_rational_lists_gcd():
    rng = random.Random(2306)
    for _ in range(80):
        qs = [
            Fraction(rng.randint(1, 30), rng.randint(1, 12))
            * rng.choice([1, -1])
            for _ in range(rng.randint(1, 5))
        ]
        got = classify_group([ExactReal.rational(q) for q in qs])
        assert isinstance(got, Discrete)
        t0 = got.T0.as_rational()
        assert t0 > 0
        assert all((q / t0).denominator == 1 for q in qs)
        # t0 is attained: it is an integer combination, so the gcd
        assert t0 == Fraction(
            *_frac_gcd_list([abs(q) for q in qs])
        )


def _frac_gcd_list(qs):
    from math import gcd

    num = 0
    den = 1
    for q in qs:
        num, den = gcd(num * q.denominator, q.numerator * den), den * q.denominator
    g = gcd(num, den)
    return num // g, den // g


def test_classify_random_scaled_families():
    rng = random.Random(2307)
    base = ExactReal.sqrt(5) + ExactReal.rational(2)
    for _ in range(40):
        qs = [
            Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))
        ]
        got = classify_group([base.scale(q) for q in qs])
        assert isinstance(got, Discrete)
        ratio = (got.T0 / base).as_rational()
        assert all((q / ratio).denominator == 1 for q in qs)


def test_classify_errors():
    with pytest.raises(EmptyInput):
        classify_group([])
    with pytest.raises(DivisionByZero):
        classify_group([ExactReal.rational(0)])


def test_empty_lattice_needs_dimension():
    empty = CoeffLattice([], basis_of_dim(3))
    assert empty.rank == 0
    assert not member(empty, (1, 0, 0))
    assert member(empty, (0, 0, 0))
