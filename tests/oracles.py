"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: numeric
evaluation goes through mpmath at high precision, lattice questions are
answered by rational Gaussian elimination or box enumeration, and
discrepancy is recomputed from the textbook formula.  Real texts are
generated together with their value, built by explicit `ExactReal`
operations on `ExactReal` operands, and the renderers are checked
against the earlier ones that wrote each coefficient through a
`Fraction`'s `abs` and `str`.  The two floors
read from enclosures keep the earlier forms of `exactreal.quotients`:
four corner quotients, and a lockstep Euclid that drops the last
quotient the ends share.  `fresh_residual_dirichlet_find` and
`rotate_scan_period` keep the earlier, unfiltered forms of
`dirichlet_find` and `fundamental_period`: exact sign tests on every
residual, and a rotation per divisor.  `FractionMapReal` keeps the
earlier layout of `ExactReal`, one `Fraction` per radicand, with its
ring operations, enclosures, hash and `quotients`, down to the order
of its keys; `enclosure`, `measure` and `is_constant` are the Fraction
enclosure, pattern measure and constant test that only tests read.
`pairwise_product` multiplies two forms term by term, merging each
pair's atoms itself, and `repeated_product_power` takes a power as
repeated pairwise products, so neither goes through the library's own
product.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath

from periodalg.approx import _convergents
from periodalg.errors import NotFound
from periodalg.exactreal import INITIAL_PRECISION, ExactReal, RadicalBasis, commensurable
from periodalg.funcalg import CanonicalForm
from periodalg.lattice import CoeffLattice, member
from periodalg.pointsets import IntervalPattern, is_invariant

mpmath.mp.dps = 60


def enclosure(x: ExactReal, prec: int) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing x, width ~2^-prec."""
    lo, hi = x._enclosure_scaled(prec)
    unit = Fraction(1, 1 << prec)
    return lo * unit, hi * unit


def measure(p: IntervalPattern) -> ExactReal:
    """Total length of one period's intervals."""
    total = ExactReal.rational(0)
    for a, b in p.intervals:
        total = total + (b - a)
    return total


def is_constant(f: CanonicalForm) -> bool:
    """A form with no monomial but the constant one."""
    return not any(f.terms)


def pairwise_product(f: CanonicalForm, g: CanonicalForm) -> CanonicalForm:
    """f*g on f's domain, one product per pair of terms.

    Each pair's atoms are merged here: exponents of equal (kind,
    radicand, shift) add up, sgn exponents live mod 2, zero exponents
    drop out, and the rest is sorted, as canonical monomials are.
    """
    acc: dict[tuple, Fraction] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            exps: dict[tuple, int] = {}
            for kind, d, s, e in m1 + m2:
                e += exps.get((kind, d, s), 0)
                exps[kind, d, s] = e % 2 if kind == "sgn" else e
            m = tuple(sorted((*key, e) for key, e in exps.items() if e))
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return CanonicalForm(f.domain, acc)


def repeated_product_power(f: CanonicalForm, n: int) -> CanonicalForm:
    """f^n for n >= 0 as n pairwise products, starting from the constant 1."""
    out = CanonicalForm.constant(1, f.domain)
    for _ in range(n):
        out = pairwise_product(out, f)
    return out


def mp_value(x: ExactReal) -> mpmath.mpf:
    """High precision numeric value, computed from the raw coordinates."""
    total = mpmath.mpf(0)
    for d, c in x.coords.items():
        total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
    return total


def solve_membership(gens: list[tuple[int, ...]], v: tuple[int, ...]) -> bool:
    """Is v an integer combination of gens?  Rational elimination oracle.

    Row-reduce the system c * G = v over Q; v is a member exactly when
    the system is consistent and its unique solution is integral.  The
    elimination depends only on G, so it runs once per generator list
    (see _eliminate) and each v costs one integer matrix product.
    """
    k = len(v)
    rank, scale, ops = _eliminate(tuple(map(tuple, gens)), k)
    w = [sum(e * x for e, x in zip(row, v)) for row in ops]
    # rows past the rank must vanish (consistency); the first `rank`
    # entries are scale * (the pivot coefficients), which must be integers
    return not any(w[rank:]) and all(x % scale == 0 for x in w[:rank])


@functools.lru_cache(maxsize=64)
def _eliminate(gens: tuple[tuple[int, ...], ...], k: int):
    """Gauss-Jordan reduction of the k x m matrix with columns gens.

    Returns (rank, scale, ops): `ops` is the k x k integer matrix of row
    operations times the common denominator `scale`, so that for any v,
    ops * v / scale is the reduced right-hand side.
    """
    # column equations: sum_j c_j * G[j][i] = v[i]; the identity block
    # on the right records the row operations applied to v
    m = len(gens)
    aug = [
        [Fraction(gens[j][i]) for j in range(m)]
        + [Fraction(int(i == c)) for c in range(k)]
        for i in range(k)
    ]
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
        r += 1
    # a non-pivot coefficient is free and could repair a fractional
    # pivot, so integrality of one solution decides membership only for
    # full-column-rank inputs; pivots then sit in rows 0..m-1 in order
    assert r == m, "oracle needs independent generators"
    ops = [row[m:] for row in aug]
    scale = math.lcm(*(x.denominator for row in ops for x in row))
    return r, scale, tuple(tuple(int(x * scale) for x in row) for row in ops)


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


def endpoint_difference_period(pattern: IntervalPattern) -> ExactReal:
    """Least invariant shift among every endpoint difference mod L.

    The complete-candidate search: an invariant rotation maps each
    endpoint to an endpoint, so every period in (0, L] is some endpoint
    difference reduced mod L, or one of L/j and L.  Candidates are
    deduplicated through a set (ExactReal hashes by its coordinates)
    and tried in increasing order; `is_invariant` decides only those
    that map the endpoint set onto itself.  Quadratic in the endpoint
    count, and independent of any argument about arc counts.
    """
    L = pattern.modulus
    points = pattern.endpoints()
    candidates = {L}
    for e1 in points:
        for e2 in points:
            d = e1 - e2  # in [-L, L], since endpoints lie in [0, L]
            if d.sign() < 0:
                d = d + L
            if not d.is_zero():
                candidates.add(d)
    n = len(pattern.intervals)
    candidates.update(L.scale(Fraction(1, j)) for j in range(2, n + 1))

    def mod_L(x: ExactReal) -> ExactReal:  # for x in [0, 2L)
        return x - L if (x - L).sign() >= 0 else x

    # the boundary must map onto itself: a cheap, hash-based filter
    ends = {mod_L(e) for e in points}
    if pattern.wrap_point:
        ends.discard(ExactReal.rational(0))  # the seam is inside the set
    return next(
        t
        for t in sorted(candidates)
        if all(mod_L(e + t) in ends for e in ends) and is_invariant(pattern, t)
    )


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


def decimal_text(q: Fraction, digits: int = 12) -> str:
    """`q` to `digits` significant digits, rounded half up, in the
    report's style: no exponent, no trailing zeros after the point.

    Fraction comparisons against powers of ten place the leading digit,
    starting from the bit lengths, `floor(m + 1/2)` rounds, and a
    `Decimal` read from `<n>E<exponent>`, which no context rounds,
    writes the fixed-point text.
    """
    if q == 0:
        return "0"
    m = abs(q)
    # 10^(exp-1) <= m < 10^exp; 30103/100000 is just below log10(2)
    exp = (m.numerator.bit_length() - m.denominator.bit_length()) * 30103 // 100000
    while m >= Fraction(10) ** exp:
        exp += 1
    while m < Fraction(10) ** (exp - 1):
        exp -= 1
    n = math.floor(m / Fraction(10) ** (exp - digits) + Fraction(1, 2))
    text = format(Decimal(f"{n}E{exp - digits}"), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if q > 0 else "-" + text


def approx_str_reference(x: ExactReal, digits: int = 12) -> str:
    """`ExactReal.approx_str` from Fraction enclosures: the midpoint of
    the first enclosure (precision doubling from 64 bits) narrower than
    10^-(digits+2) of its lower end, written by `decimal_text`."""
    if x.is_zero():
        return "0"
    prec = 64
    while True:
        lo, hi = enclosure(x, prec)
        if lo * hi > 0 and (hi - lo) * 10 ** (digits + 2) < abs(lo):
            return decimal_text((lo + hi) / 2, digits)
        prec *= 2


def random_real_text(rng: random.Random, depth: int = 3) -> tuple[str, ExactReal]:
    """A random real text of the parser's grammar, with its value.

    Each numeral is `ExactReal.rational(n)` and each `sqrt(n)` is
    `ExactReal.sqrt(n)`; unary signs and `+ - * /` then act on those
    elements alone, left to right as the grammar groups them.  A divisor
    that comes out 0 turns its `/` into `*`.  `(E) - (E)` with one text
    makes an exact 0, and `sqrt(8)`, `sqrt(12)` normalize.
    """

    def primary(d: int) -> tuple[str, ExactReal]:
        roll = rng.random()
        if d > 0 and roll < 0.3:
            text, x = expr(d - 1)
            if rng.random() < 0.2:
                return f"(({text}) - ({text}))", x - x
            return f"({text})", x
        if roll < 0.65:
            n = rng.choice([0, 1, 2, 3, 5, 7, 12, 100])
            return str(n), ExactReal.rational(n)
        n = rng.choice([2, 3, 5, 6, 8, 12])
        return f"sqrt({n})", ExactReal.sqrt(n)

    def factor(d: int) -> tuple[str, ExactReal]:
        sign = rng.choice(["", "", "", "-", "+"])
        if not sign:
            return primary(d)
        text, x = factor(d)
        return sign + text, -x if sign == "-" else x

    def term(d: int) -> tuple[str, ExactReal]:
        text, x = factor(d)
        for _ in range(rng.randint(0, 2)):
            rtext, y = factor(d)
            op = rng.choice("*//")
            if op == "/" and y.is_zero():
                op = "*"
            text, x = f"{text}{op}{rtext}", x * y if op == "*" else x / y
        return text, x

    def expr(d: int) -> tuple[str, ExactReal]:
        text, x = term(d)
        for _ in range(rng.randint(0, 2)):
            rtext, y = term(d)
            op = rng.choice("+-")
            text, x = f"{text} {op} {rtext}", x + y if op == "+" else x - y
        return text, x

    return expr(depth)


def random_coefficient(rng: random.Random) -> Fraction:
    """A unit, a 31-digit or a small negative integer, or a small
    fraction of either sign (0 included)."""
    return rng.choice([
        Fraction(1), Fraction(-1), Fraction(rng.randint(2, 10**30)),
        Fraction(-rng.randint(2, 99)), Fraction(rng.randint(-99, 99), rng.randint(2, 99)),
    ])


def fraction_real_text(x: ExactReal) -> str:
    """`str(x)` as written from each coordinate's `abs` and `str`."""
    if not x.coords:
        return "0"
    parts: list[str] = []
    for d in sorted(x.coords):
        c = x.coords[d]
        mag = abs(c)
        if d == 1:
            body = str(mag)
        elif mag == 1:
            body = f"sqrt({d})"
        elif mag.denominator == 1:
            body = f"{mag}*sqrt({d})"
        else:
            body = f"({mag})*sqrt({d})"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fraction_form_text(terms: dict, monomial_text) -> str:
    """`CanonicalForm.text()` of `terms` as written from each
    coefficient's `abs` and `str`; `monomial_text` writes a monomial."""
    if not terms:
        return "0"
    parts: list[str] = []
    for m, c in sorted(terms.items()):
        body = monomial_text(m)
        mag = abs(c)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts)


_SQUAREFREE_POOL = [2, 3, 5, 6, 7, 10, 11, 13]


def basis_of_dim(k: int) -> RadicalBasis:
    """The radical basis of k coordinates: 1 and the pool's first k - 1."""
    return RadicalBasis(_SQUAREFREE_POOL[: k - 1])


def random_lattice(rng: random.Random, dim: int, spread: int = 3) -> CoeffLattice:
    """Random full-rank integer lattice with small entries."""
    while True:
        gens = [
            tuple(rng.randint(-spread, spread) for _ in range(dim))
            for _ in range(dim)
        ]
        lat = CoeffLattice(gens, basis_of_dim(dim))
        if lat.rank == dim:
            return lat


def random_operand(rng: random.Random, basis: RadicalBasis) -> CoeffLattice:
    """Random lattice over `basis` of any rank, the empty one included."""
    k = len(basis)
    n = rng.choice([0, 1, k - 1, k, k + 1])
    gens = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)]
    return CoeffLattice(gens, basis)


def squarefree_part(n: int) -> int:
    """Squarefree part of n > 0 by plain trial division up to sqrt(n)."""
    out = 1
    p = 2
    while p * p <= n:
        if n % p:
            p += 1 if p == 2 else 2
            continue
        n //= p
        if n % p:
            out *= p
        else:
            n //= p
    return out * n


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


def floor_invert_convergents(x: ExactReal) -> Iterator[tuple[int, int, int]]:
    """(a_n, p_n, q_n) for n = 0, 1, ... by exact floor and field inversion.

    The textbook walk: a = floor(r), r = 1/(r - a), with every step in
    the field of x.  Ends after p_n/q_n == x, which happens only for a
    rational x.
    """
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    r = x
    while True:
        a = r.floor()
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield a, p, q
        r = r - a
        if r.is_zero():
            return
        r = r.invert()


def corner_floor(x: ExactReal, y: ExactReal) -> int:
    """floor(x/y) for y != 0 from the four corner quotients.

    A rational ratio floors directly.  Otherwise both enclosures are
    refined, doubling prec from INITIAL_PRECISION, until the floors of
    the four ratios of their ends agree.
    """
    if x.is_zero():
        return 0
    r = commensurable(x, y)
    if r is not None:
        return r.numerator // r.denominator
    prec = INITIAL_PRECISION
    while True:
        a_lo, a_hi = x._enclosure_scaled(prec)
        b_lo, b_hi = y._enclosure_scaled(prec)
        # the quotient is monotone in each end while b keeps its sign
        if b_lo > 0 or b_hi < 0:
            k = a_lo // b_lo
            if k == a_lo // b_hi == a_hi // b_lo == a_hi // b_hi:
                return k
        prec *= 2


def drop_last_quotients(x: ExactReal, y: ExactReal) -> Iterator[int]:
    """Partial quotients of x/y for y != 0, dropping the last shared one.

    Euclid in lockstep on the least and the greatest ratio of the
    enclosures of x and y; of the quotients both share, all but the
    last are taken, which holds even if x/y were one of the ends.
    prec doubles from INITIAL_PRECISION when more are asked for.
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
        if y_hi < 0:
            x_lo, x_hi, y_lo, y_hi = -x_hi, -x_lo, -y_hi, -y_lo
        if y_lo <= 0:
            continue
        n_lo, d_lo = x_lo, y_hi if x_lo >= 0 else y_lo
        n_hi, d_hi = x_hi, y_lo if x_hi >= 0 else y_hi
        shared = []
        while d_lo and d_hi:
            a, r_lo = divmod(n_lo, d_lo)
            if n_hi // d_hi != a:
                break
            shared.append(a)
            n_lo, d_lo, n_hi, d_hi = d_lo, r_lo, d_hi, n_hi - a * d_hi
        yield from shared[done:-1]
        done = max(done, len(shared) - 1)


def floor_cases(rng: random.Random) -> list[tuple[ExactReal, ExactReal]]:
    """Seeded (x, y) pairs, y != 0, for differentials of x // y.

    Random ratios over 1-3 radicands, rational ratios, a zero dividend,
    divisors of both signs, divisors whose 64-bit enclosure holds 0,
    `(2*target + u) // (2*u)` for residuals u = q*T2 - p*T1 of the
    convergents of T2/T1, near-rationals c + sqrt(d)/2^k over 1 with k
    up to 400, and 3 + sqrt(2)/2^200, whose low end at 64 bits is 3.
    """
    one = ExactReal.rational(1)

    def element(n_rads: int) -> ExactReal:
        x = ExactReal.rational(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        for d in rng.sample([2, 3, 5, 6, 7, 10, 11], n_rads):
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
            x = x + ExactReal.sqrt(d).scale(c)
        return x

    def nonzero(n_rads: int) -> ExactReal:
        while True:
            y = element(n_rads)
            if not y.is_zero():
                return y

    cases = []
    for _ in range(300):
        cases.append((element(rng.randint(0, 3)), nonzero(rng.randint(0, 3))))
    for _ in range(60):
        y = nonzero(rng.randint(0, 2))
        cases.append((y.scale(Fraction(rng.randint(-30, 30), rng.randint(1, 7))), y))
        cases.append((ExactReal.rational(0), y))
    for _ in range(60):
        d, k = rng.choice([2, 3, 5, 7]), rng.randint(62, 90)
        # within 2^-k of 0: sqrt(d)/2^k, or sqrt(d) less its k-bit floor
        y = ExactReal.sqrt(d).scale(Fraction(1, 2**k))
        if rng.random() < 0.5:
            y = ExactReal.sqrt(d) - ExactReal.rational(Fraction(math.isqrt(d << 2 * k), 2**k))
        y = y if rng.random() < 0.5 else -y
        cases.append((nonzero(rng.randint(0, 2)), y))
    for _ in range(20):
        T1, T2, target = nonzero(1), nonzero(2), element(2)
        if commensurable(T1, T2) is not None:
            continue
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for a in itertools.islice(drop_last_quotients(T2, T1), 8):
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            u = T2.scale(q) - T1.scale(p)
            cases.append((target.scale(2) + u, u.scale(2)))
    for _ in range(80):
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        tiny = ExactReal.sqrt(rng.choice([2, 3, 5, 7])).scale(Fraction(1, 2 ** rng.randint(1, 400)))
        cases.append((ExactReal.rational(c) + (tiny if rng.random() < 0.5 else -tiny), one))
    cases.append((ExactReal.rational(3) + ExactReal.sqrt(2).scale(Fraction(1, 2**200)), one))
    return cases


def _abs_less(u: ExactReal, bound: ExactReal) -> bool:
    return (bound - u).sign() > 0 and (bound + u).sign() > 0


def fresh_residual_dirichlet_find(
    T1: ExactReal, T2: ExactReal, target: ExactReal, eps: ExactReal
) -> tuple[int, int]:
    """(m, n) from the first convergent p/q of T2/T1 with |u| < eps,
    u = q*T2 - p*T1 built afresh and tested by two exact sign tests at
    every convergent; k = (2*target + u) // (2*u)."""
    for _, p, q in _convergents(T2, T1):
        u = T2.scale(q) - T1.scale(p)
        if _abs_less(u, eps):
            k = (target.scale(2) + u) // u.scale(2)
            return -k * p, k * q


def rotate_scan_period(pattern: IntervalPattern) -> ExactReal:
    """L/k for the largest divisor k of the arc count with
    `is_invariant(pattern, L/k)`, or L: one rotation per divisor."""
    L = pattern.modulus
    arcs = len(pattern.intervals) - pattern.wrap_point  # a seam arc is two intervals
    for k in range(arcs, 1, -1):
        if arcs % k == 0 and is_invariant(pattern, t := L.scale(Fraction(1, k))):
            return t
    return L


def linear_kronecker_find(
    T: ExactReal,
    Ts: Sequence[ExactReal],
    delta: ExactReal,
    eps: ExactReal,
    bound: int,
) -> tuple[int, list[int]] | NotFound:
    """Least q in 1..bound with |q*T - p_i*T_i - delta| < eps for all i.

    Screens every q in turn with integer enclosures scaled by 2^prec
    (prec from 192 bits, doubled until every T_i has a certain sign): q
    is skipped only when, for some T_i, no integer p puts p*|T_i| in the
    enclosure [a, b] of [q*T - delta - eps, q*T - delta + eps].  Every
    other q is decided with exact field arithmetic.  Linear in bound.
    """
    prec = 192
    while True:
        ts_iv = [t._enclosure_scaled(prec) for t in Ts]
        if all(lo > 0 or hi < 0 for lo, hi in ts_iv):
            break
        prec *= 2
    ts_iv = [(lo, hi) if lo > 0 else (-hi, -lo) for lo, hi in ts_iv]
    t_lo, t_hi = T._enclosure_scaled(prec)
    d_lo, d_hi = delta._enclosure_scaled(prec)
    e_hi = eps._enclosure_scaled(prec)[1]

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
        a = q * t_lo - d_hi - e_hi
        b = q * t_hi - d_lo + e_hi
        for lo, hi in ts_iv:
            if max(b // lo, b // hi) < min(-(-a // lo), -(-a // hi)):
                break
        else:
            ps = exact_witness(q)
            if ps is not None:
                return q, ps
    return NotFound(bound)


# `approx.orbit_discrepancy` as it was before the three-distance walk:
# it sorts the enclosures, and on an overlap sorts the exact fractional
# parts by sign tests.  It sorts all N points, so it is a reference up
# to a few thousand of them.  At a `prec` where the library's three
# checks hold, both take the same enclosures and give the same bound.
def sorted_orbit_discrepancy(alpha: ExactReal, N: int, prec: int | None = None) -> Fraction:
    """Rigorous rational upper bound on the star discrepancy of
    {i*alpha mod 1 : i = 0..N-1}.

    Rational alpha is computed exactly.  Otherwise every fractional
    part gets an integer enclosure at `prec` bits, by default
    2*log2(N) + 64 (exact floors resolve any integer-boundary
    straddle), the points are sorted by enclosure with exact sign tests
    refereeing any overlap, and the discrepancy formula is maximized
    over the enclosure endpoints, so the result can only overestimate.
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
    if prec is None:
        prec = 2 * N.bit_length() + 64
    unit = 1 << prec
    a_lo, a_hi = alpha._enclosure_scaled(prec)
    encl: list[tuple[int, int]] = []
    for i in range(N):
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


class FractionMapReal:
    """An element of a multiquadratic field in the earlier layout:
    `coords` maps squarefree radicand -> nonzero Fraction, and each ring
    operation works coordinate by coordinate in Fractions, keeping the
    key order the library keeps (a coordinate both summands have moves
    to the end)."""

    __slots__ = ("coords",)

    def __init__(self, coords: dict[int, Fraction]):
        self.coords = coords

    @classmethod
    def of(cls, x: ExactReal) -> "FractionMapReal":
        return cls(x.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def is_rational(self) -> bool:
        return self.coords.keys() <= {1}

    def __add__(self, other: "FractionMapReal") -> "FractionMapReal":
        coords = dict(self.coords)
        for d, c in other.coords.items():
            s = coords.pop(d, 0) + c
            if s:
                coords[d] = s
        return FractionMapReal(coords)

    def __neg__(self) -> "FractionMapReal":
        return FractionMapReal({d: -c for d, c in self.coords.items()})

    def __sub__(self, other: "FractionMapReal") -> "FractionMapReal":
        return self + (-other)

    def scale(self, q) -> "FractionMapReal":
        f = Fraction(q)
        return FractionMapReal({d: c * f for d, c in self.coords.items()} if f else {})

    def __mul__(self, other: "FractionMapReal") -> "FractionMapReal":
        coords: dict[int, Fraction] = {}
        for a, ca in self.coords.items():
            for b, cb in other.coords.items():
                g = math.gcd(a, b)
                d = (a // g) * (b // g)
                coords[d] = coords.get(d, 0) + ca * cb * g
        return FractionMapReal({d: c for d, c in coords.items() if c})

    def invert(self) -> "FractionMapReal":
        """Conjugation on the c > 1 that gcd refinement finds."""
        if self.is_rational():
            return FractionMapReal({1: 1 / self.coords[1]})
        c = max(self.coords)
        for d in self.coords:
            if math.gcd(c, d) > 1:
                c = math.gcd(c, d)
        a = FractionMapReal({d: k for d, k in self.coords.items() if d % c})
        b = FractionMapReal({d: k for d, k in self.coords.items() if d % c == 0})
        return (a - b) * (a * a - b * b).invert()

    def __truediv__(self, other: "FractionMapReal") -> "FractionMapReal":
        if other.is_rational():
            return self.scale(1 / other.coords[1])
        return self * other.invert()

    def enclosure_scaled(self, prec: int) -> tuple[int, int]:
        """(lo, hi) with lo <= value * 2^prec <= hi, floored per coordinate."""
        lo = hi = 0
        for d, c in self.coords.items():
            if d == 1:
                n = c.numerator << prec
                lo += n // c.denominator
                hi += -((-n) // c.denominator)
                continue
            s = math.isqrt(d << (2 * prec))
            if c > 0:
                lo += (c.numerator * s) // c.denominator
                hi += -((-(c.numerator * (s + 1))) // c.denominator)
            else:
                lo += (c.numerator * (s + 1)) // c.denominator
                hi += -((-(c.numerator * s)) // c.denominator)
        return lo, hi

    def hash(self) -> int:
        if self.is_rational():
            return hash(self.coords.get(1, 0))
        return hash(tuple(sorted(self.coords.items())))


def fraction_commensurable(x: FractionMapReal, y: FractionMapReal) -> Fraction | None:
    """x/y when it is rational, from one ratio of coordinates."""
    if set(x.coords) != set(y.coords):
        return None
    d0 = next(iter(y.coords))
    r = x.coords[d0] / y.coords[d0]
    for d, c in y.coords.items():
        if x.coords[d] != r * c:
            return None
    return r


def fraction_quotients(x: FractionMapReal, y: FractionMapReal) -> Iterator[int]:
    """Partial quotients of x/y, y != 0: Euclid on a rational ratio, else
    lockstep Euclid on the ends of the enclosures, prec doubling from
    INITIAL_PRECISION and Euclid restarting from the first quotient,
    yielding only past the quotients already yielded."""
    c = Fraction(0) if x.is_zero() else fraction_commensurable(x, y)
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
        x_lo, x_hi = x.enclosure_scaled(prec)
        y_lo, y_hi = y.enclosure_scaled(prec)
        prec *= 2
        if y_hi < 0:
            x_lo, x_hi, y_lo, y_hi = -x_hi, -x_lo, -y_hi, -y_lo
        if y_lo <= 0:
            continue
        n_lo, d_lo = x_lo, y_hi if x_lo >= 0 else y_lo
        n_hi, d_hi = x_hi, y_lo if x_hi >= 0 else y_hi
        k = 0
        while d_lo and d_hi:
            a, r_lo = divmod(n_lo, d_lo)
            if n_hi // d_hi != a:
                break
            if k == done:
                yield a
                done += 1
            k += 1
            n_lo, d_lo, n_hi, d_hi = d_lo, r_lo, d_hi, n_hi - a * d_hi
