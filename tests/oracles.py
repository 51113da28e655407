"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: numeric
evaluation goes through mpmath at high precision, lattice questions are
answered by rational Gaussian elimination or box enumeration, and
discrepancy is recomputed from the textbook formula.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import mpmath

from periodalg.exactreal import ExactReal, RadicalBasis
from periodalg.lattice import CoeffLattice, member

mpmath.mp.dps = 60


def mp_value(x: ExactReal) -> mpmath.mpf:
    """High precision numeric value, computed from the raw coordinates."""
    total = mpmath.mpf(0)
    for d, c in x.coords.items():
        total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
    return total


def solve_membership(gens: list[tuple[int, ...]], v: tuple[int, ...]) -> bool:
    """Is v an integer combination of gens?  Rational elimination oracle.

    Row-reduce the system c * G = v over Q; v is a member exactly when
    the system is consistent and some solution is integral.  Because G
    has full row rank after pruning (we only feed independent rows from
    tests), consistency plus integrality of the unique solution decides.
    """
    # column equations: sum_j c_j * G[j][i] = v[i]
    k = len(v)
    m = len(gens)
    aug = [[Fraction(gens[j][i]) for j in range(m)] + [Fraction(v[i])] for i in range(k)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, k) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(k):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, k):
        if aug[i][m] != 0:
            return False  # inconsistent
    sol = [Fraction(0)] * m
    for row, col in enumerate(pivot_cols):
        sol[col] = aug[row][m]
    # non-pivot coefficients are free; integrality of the pivot part is
    # enough only when the free part cannot repair a fractional pivot,
    # so restrict the oracle to full-column-rank inputs
    assert len(pivot_cols) == m, "oracle needs independent generators"
    return all(s.denominator == 1 for s in sol)


def box_points(bound: int, dim: int):
    """All integer vectors with coordinates in [-bound, bound]."""
    if dim == 1:
        for x in range(-bound, bound + 1):
            yield (x,)
        return
    for rest in box_points(bound, dim - 1):
        for x in range(-bound, bound + 1):
            yield (x,) + rest


def first_box_witness(value, rows, shift, bound: int):
    """First x with value(x + shift) != value(x) in the search box, or None.

    The box is every x = sum(a_i * rows[i]) with each a_i in 0, 1, -1,
    ..., bound, -bound, enumerated with the last coefficient fastest:
    the order the library promises for its counterexample search.
    `value` is an independent evaluator such as py_formula_evaluator;
    it is memoized, since x + shift is usually a box point met nearby.
    """
    value = functools.lru_cache(maxsize=1 << 14)(value)
    steps = [0]
    for a in range(1, bound + 1):
        steps += [a, -a]
    k = len(shift)
    for coeffs in itertools.product(steps, repeat=len(rows)):
        x = tuple(sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(k))
        if value(x) != value(tuple(a + b for a, b in zip(x, shift))):
            return x
    return None


def common_points_by_box(l1: CoeffLattice, l2: CoeffLattice, bound: int):
    """Brute-force intersection inside a coordinate box."""
    dim = l1.dim
    return [
        v for v in box_points(bound, dim) if member(l1, v) and member(l2, v)
    ]


def float_star_discrepancy(alpha: float, n: int) -> float:
    """Textbook D*_N of {i*alpha} for i = 0..N-1, in floats."""
    pts = sorted((i * alpha) % 1.0 for i in range(n))
    worst = 0.0
    for i, x in enumerate(pts):
        worst = max(worst, (i + 1) / n - x, x - i / n)
    return worst


def random_lattice(rng: random.Random, dim: int, spread: int = 3) -> CoeffLattice:
    """Random full-rank integer lattice with small entries."""
    while True:
        gens = [
            tuple(rng.randint(-spread, spread) for _ in range(dim))
            for _ in range(dim)
        ]
        lat = CoeffLattice(gens, dim=dim)
        if lat.rank == dim:
            return lat


_SQUAREFREE_POOL = [2, 3, 5, 6, 7, 10, 11, 13]


def random_basis(rng: random.Random, size: int) -> RadicalBasis:
    """Random radical basis of `size` radicands beyond the constant 1."""
    return RadicalBasis(rng.sample(_SQUAREFREE_POOL, size))


def random_formula_text(rng: random.Random, radicands: list[int]) -> str:
    """Random parseable formula over the given coordinates."""
    def atom() -> str:
        d = rng.choice(radicands)
        arg = "one" if d == 1 else f"sqrt({d})"
        shift = rng.choice(["", "", f"+{rng.randint(1, 2)}", f"-{rng.randint(1, 2)}"])
        head = rng.choice(["abs1", "recip", "sgn"])
        if head == "sgn":
            shift = ""
        return f"{head}({arg}{shift})"

    def factor() -> str:
        body = atom()
        if rng.random() < 0.2:
            return f"{body}^{rng.randint(2, 3)}"
        return body

    def term() -> str:
        parts = [factor() for _ in range(rng.randint(1, 2))]
        out = parts[0]
        for p in parts[1:]:
            out += rng.choice(["*", "*"]) + p
        coeff = rng.choice(["", "", "2*", "3*"])
        return coeff + out

    terms = [term() for _ in range(rng.randint(1, 3))]
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - "]) + t
    return text


def py_formula_evaluator(text: str, radicands):
    """Compile formula text with Python's own parser; returns v -> Fraction.

    A mechanical token swap turns the formula grammar into a Python
    expression (sqrt(d) becomes a coordinate lookup), so evaluation
    never touches the library's parser or canonical forms.
    """
    py = text.replace("^", "**")
    py = py.replace("abs1(", "A1(").replace("recip(", "RC(").replace("sgn(", "SG(")
    code = compile(py, "<formula>", "eval")
    rads = tuple(radicands)

    def run(v) -> Fraction:
        coords = dict(zip(rads, v))
        env = {
            "A1": lambda y: Fraction(abs(y) + 1),
            "RC": lambda y: Fraction(1, abs(y) + 1),
            "SG": lambda y: Fraction(-1 if y % 2 else 1),
            "sqrt": lambda d: coords[d],
            "one": coords.get(1, 0),
            "__builtins__": {},
        }
        return Fraction(eval(code, env))

    return run
