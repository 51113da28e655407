"""Integer lattices over the coordinate space of a radical basis.

A point v represents the real number sum(v[i] * sqrt(d_i)).  Because
square roots of distinct squarefree integers are linearly independent
over Q, that map is injective, so lattice questions about the numbers
(membership, intersection of domains) reduce to integer linear algebra
on coordinates.  Canonical form is the Hermite normal form of the
generator matrix, computed with exact integer arithmetic by one routine,
`_hnf`.  `cut` reads the points of a lattice that meet linear conditions
from extra columns carried through that same HNF, with no transform
matrix; `intersect` and `funcalg.period_module` both state conditions.
Coordinates enter through `operator.index`, so a float or a `Fraction`
raises `TypeError` instead of being truncated.

`classify_group` settles the structure of a finitely generated group of
real periods: pairwise commensurable generators span a discrete group
T0*Z with T0 an explicit gcd, anything else is dense.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import index

from .errors import DimensionMismatch, DivisionByZero, EmptyInput, FrozenRecord, UnknownRadicand
from .exactreal import ExactReal, RadicalBasis, commensurable

Vector = tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a,b) = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], int]:
    """Row-style HNF of the matrix `rows` on its first `width` columns.

    Returns (H, rank): the first `rank` rows of H are in echelon form
    on those columns, with positive pivots and entries above each pivot
    reduced into [0, pivot), and every later row is zero on them.  Any
    columns past `width` are carried through the same row operations,
    which is how `cut` reads its kernel for `intersect` and
    `funcalg.period_module`.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, m):
            if a[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, m):
            if not a[i][col]:
                continue
            g, s, t = _xgcd(a[rank][col], a[i][col])
            ar, ai = a[rank][col] // g, a[i][col] // g
            a[rank], a[i] = (
                [s * x + t * y for x, y in zip(a[rank], a[i])],
                [-ai * x + ar * y for x, y in zip(a[rank], a[i])],
            )
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
        p = a[rank][col]
        for i in range(rank):
            q = a[i][col] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return a, rank


class CoeffLattice:
    """Sublattice of Z^k given by integer generators, canonicalized by HNF.

    `basis` is required: coordinate i stands for sqrt(d_i), and
    k = len(basis).
    """

    __slots__ = ("basis", "hnf", "_pivots", "dim")

    def __init__(self, generators: Iterable[Sequence[int]], basis: RadicalBasis):
        k = len(basis)
        gens = [tuple(map(index, g)) for g in generators]
        for g in gens:
            if len(g) != k:
                raise DimensionMismatch(f"generator {g} has length {len(g)}, want {k}")
        h, rank = _hnf([g for g in gens if any(g)], k)
        self.basis = basis
        self.hnf: tuple[Vector, ...] = tuple(tuple(r) for r in h[:rank])
        self._pivots: tuple[int, ...] = tuple(
            next(j for j, x in enumerate(row) if x) for row in self.hnf
        )
        self.dim = k

    @property
    def rank(self) -> int:
        return len(self.hnf)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffLattice)
            and self.basis == other.basis
            and self.hnf == other.hnf
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.hnf))

    def __repr__(self) -> str:
        rows = ", ".join(str(list(r)) for r in self.hnf)
        return f"CoeffLattice[{rows}]"

    def __contains__(self, v: Sequence[int]) -> bool:
        return member(self, v)

    def to_real(self, v: Sequence[int]) -> ExactReal:
        """The real number a coordinate vector stands for."""
        if len(v) != len(self.basis):
            raise DimensionMismatch(f"vector length {len(v)}, want {len(self.basis)}")
        return ExactReal(
            self.basis, {d: index(c) for d, c in zip(self.basis, v)}
        )

    def embed(self, basis: RadicalBasis) -> "CoeffLattice":
        """Re-express over a larger basis, zero-filling new coordinates.

        Raises UnknownRadicand when `basis` lacks one of this lattice's
        radicands.
        """
        if self.basis == basis:
            return self
        for d in self.basis:
            if d not in basis:
                raise UnknownRadicand(f"sqrt({d}) is not a coordinate of {basis!r}")
        pos = {d: basis.index(d) for d in self.basis}
        gens = []
        for g in self.hnf:
            w = [0] * len(basis)
            for d, c in zip(self.basis, g):
                w[pos[d]] = c
            gens.append(tuple(w))
        return CoeffLattice(gens, basis)


def member(lat: CoeffLattice, v: Sequence[int]) -> bool:
    """Exact membership by forward elimination against the HNF rows."""
    k = lat.dim
    if len(v) != k:
        raise DimensionMismatch(f"vector length {len(v)}, want {k}")
    w = [index(x) for x in v]
    for row, j in zip(lat.hnf, lat._pivots):
        if w[j] % row[j]:
            return False
        q = w[j] // row[j]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return not any(w)


def cut(lat: CoeffLattice, values: Sequence[Vector], moduli: Sequence[Vector]) -> CoeffLattice:
    """The points of `lat` whose condition values lie in the span of `moduli`.

    values[i] holds the integer conditions evaluated at lat.hnf[i]; they
    are linear, so a point u*H takes the values u*V.  Each row h enters
    as (v, h) and each modulus row m as (m, 0).  The HNF rows that vanish
    on the value columns are the (u, t) with u*V + t*M = 0, and their
    carried columns, the points u*H that meet the conditions, generate
    the cut.  `intersect` and `funcalg.period_module` both call it.
    """
    if not lat.hnf:
        return lat
    n = len(values[0])
    rows = [v + h for v, h in zip(values, lat.hnf)] + [m + (0,) * lat.dim for m in moduli]
    h, rank = _hnf(rows, n)
    return CoeffLattice([row[n:] for row in h[rank:]], lat.basis)


def intersect(lat1: CoeffLattice, lat2: CoeffLattice) -> CoeffLattice:
    """Exact intersection: the points of the first lattice, over the merged
    basis, whose coordinates lie in the second."""
    basis = lat1.basis.merge(lat2.basis)
    lat1 = lat1.embed(basis)
    return cut(lat1, lat1.hnf, lat2.embed(basis).hnf)


class Discrete(FrozenRecord):
    """The periods generate T0 * Z with T0 > 0."""

    __slots__ = _fields = ("T0",)


class Dense(FrozenRecord):
    """The periods generate a dense subgroup of the reals."""

    __slots__ = ()


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def classify_group(periods: Sequence[ExactReal]) -> Discrete | Dense:
    """Structure of the additive group generated by the given reals.

    All pairwise ratios rational: the group is r*Z for r the gcd of the
    ratios against a reference element, returned positive.  Any single
    irrational ratio already forces density (two incommensurable
    generators wrap around every interval), so checking against one
    reference settles all pairs.
    """
    periods = list(periods)
    if not periods:
        raise EmptyInput("classify_group needs at least one period")
    for t in periods:
        if t.is_zero():
            raise DivisionByZero("zero period")
    ref = periods[0]
    ratios = []
    for t in periods:
        r = commensurable(t, ref)
        if r is None:
            return Dense()
        ratios.append(r)
    g = reduce(_frac_gcd, ratios)
    return Discrete(abs(ref.scale(g)))
