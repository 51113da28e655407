"""Exact arithmetic the benchmark checks outputs with, kept apart from periodalg.

A real number is a dict radicand -> Fraction (absent means 0), worth
sum(c * sqrt(d)).  Formulas are dicts monomial -> Fraction, a monomial
being a sorted tuple of atoms (kind, radicand, shift, exponent) with
kind "a" for abs1 (negative exponents are recip) and "s" for sgn.
Nothing here imports periodalg, so a defect there cannot hide itself
from these checks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

# -- reals ---------------------------------------------------------------------


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for d, c in y.items():
        v = out.get(d, 0) + c
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def scale(x: dict, q) -> dict:
    q = Fraction(q)
    return {d: c * q for d, c in x.items()} if q else {}


def sub(x: dict, y: dict) -> dict:
    return add(x, scale(y, -1))


def mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            g = gcd(a, b)
            out = add(out, {(a // g) * (b // g): ca * cb * g})
    return out


def rat(q) -> dict:
    q = Fraction(q)
    return {1: q} if q else {}


def sign(x: dict) -> int:
    """Exact sign by dyadic enclosures; no precision cap."""
    if not x:
        return 0
    if set(x) == {1}:
        return 1 if x[1] > 0 else -1
    prec = 64
    while True:
        lo = hi = 0
        for d, c in x.items():
            n, q = c.numerator, c.denominator
            if d == 1:
                v = n << prec
                lo += v // q
                hi += -((-v) // q)
                continue
            s = isqrt(d << (2 * prec))  # s <= sqrt(d) * 2^prec < s + 1
            if n > 0:
                lo += (n * s) // q
                hi += -((-n * (s + 1)) // q)
            else:
                lo += (n * (s + 1)) // q
                hi += -((-n * s) // q)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def less(x: dict, y: dict) -> bool:
    return sign(sub(x, y)) < 0


def abs_below(u: dict, bound: dict) -> bool:
    """|u| < bound by two exact sign tests."""
    return sign(sub(bound, u)) > 0 and sign(add(bound, u)) > 0


def key(x: dict) -> frozenset:
    return frozenset(x.items())


def to_float(x: dict) -> float:
    return sum(float(c) * d**0.5 for d, c in x.items())


def floor(x: dict) -> int:
    if set(x) <= {1}:
        c = x.get(1, Fraction(0))
        return c.numerator // c.denominator
    k = int(to_float(x) // 1)
    while sign(sub(x, rat(k))) < 0:
        k -= 1
    while sign(sub(x, rat(k + 1))) >= 0:
        k += 1
    return k


def ratio(x: dict, y: dict) -> Fraction | None:
    """x / y when it is rational, else None (y nonzero)."""
    if set(x) != set(y):
        return None
    d0 = next(iter(y))
    r = x[d0] / y[d0]
    return r if all(x[d] == r * c for d, c in y.items()) else None


def mod(x: dict, m: dict) -> dict:
    """x reduced into [0, m) for m > 0."""
    k = int(to_float(x) // to_float(m))
    while sign(sub(x, scale(m, k))) < 0:
        k -= 1
    while sign(sub(x, scale(m, k + 1))) >= 0:
        k += 1
    return sub(x, scale(m, k))


def fmt(x: dict) -> str:
    """Scenario-language text for a real."""
    if not x:
        return "0"
    parts = []
    for d in sorted(x):
        c = x[d]
        mag = abs(c)
        body = f"({mag})" if d == 1 else f"({mag})*sqrt({d})"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)|sqrt\((\d+)\)|(\d+)\*sqrt\((\d+)\)|\((\d+/\d+)\)\*sqrt\((\d+)\))$")


def parse(text: str) -> dict:
    """Read the canonical text periodalg prints for an exact real."""
    out: dict = {}
    if text == "0":
        return out
    toks = text.split(" ")
    signs = [1]
    if toks[0].startswith("-"):
        signs = [-1]
        toks[0] = toks[0][1:]
    bodies = [toks[0]]
    for op, body in zip(toks[1::2], toks[2::2]):
        if op not in "+-":
            raise ValueError(f"bad real text {text!r}")
        signs.append(1 if op == "+" else -1)
        bodies.append(body)
    for s, body in zip(signs, bodies):
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"bad real text {text!r}")
        q, d1, c2, d2, c3, d3 = m.groups()
        if q is not None:
            d, c = 1, Fraction(q)
        elif d1 is not None:
            d, c = int(d1), Fraction(1)
        elif d2 is not None:
            d, c = int(d2), Fraction(int(c2))
        else:
            d, c = int(d3), Fraction(c3)
        if d in out:
            raise ValueError(f"repeated radicand in {text!r}")
        out[d] = s * c
    return out


def parse_basis(text: str) -> list[int]:
    """Radicands of a printed basis such as `basis(1, sqrt(2))`."""
    return [1 if t == "1" else int(t[5:-1]) for t in text[6:-1].split(", ")]


# -- lattices ------------------------------------------------------------------


def is_echelon(rows) -> bool:
    last = -1
    for row in rows:
        nz = [i for i, x in enumerate(row) if x]
        if not nz or nz[0] <= last or row[nz[0]] <= 0:
            return False
        last = nz[0]
    return True


def member(rows, v) -> bool:
    """Membership of v in the lattice spanned by echelon rows."""
    w = list(v)
    for row in rows:
        j = next(i for i, x in enumerate(row) if x)
        q, r = divmod(w[j], row[j])
        if r:
            return False
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


def coefficients(rows, v) -> list[int]:
    """Integer a with sum(a_i * rows_i) == v, for v in the lattice."""
    w = list(v)
    out = []
    for row in rows:
        j = next(i for i, x in enumerate(row) if x)
        q = w[j] // row[j]
        out.append(q)
        w = [a - q * b for a, b in zip(w, row)]
    return out


def combine(rows, coeffs, dim) -> tuple:
    v = [0] * dim
    for c, row in zip(coeffs, rows):
        v = [a + c * b for a, b in zip(v, row)]
    return tuple(v)


# -- formulas ------------------------------------------------------------------


def monomial(atoms) -> tuple:
    acc: dict = {}
    for kind, d, s, e in atoms:
        acc[(kind, d, s)] = acc.get((kind, d, s), 0) + e
    out = []
    for (kind, d, s), e in sorted(acc.items()):
        if kind == "s":
            e %= 2
        if e:
            out.append((kind, d, s, e))
    return tuple(out)


def form_add(f: dict, g: dict, sgn: int = 1) -> dict:
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) + sgn * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def form_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            out = form_add(out, {monomial(m1 + m2): c1 * c2})
    return out


def form_text(f: dict) -> str:
    parts = []
    for m, c in sorted(f.items()):
        factors = []
        for kind, d, s, e in m:
            arg = ("one" if d == 1 else f"sqrt({d})") + (f"+{s}" if s > 0 else f"{s}" if s else "")
            if kind == "s":
                factors.append(f"sgn({arg})")
            else:
                head = "abs1" if e > 0 else "recip"
                factors.append(f"{head}({arg})" + (f"^{abs(e)}" if abs(e) != 1 else ""))
        body = "*".join([str(abs(c))] + factors) if abs(c) != 1 or not factors else "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "+ 0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def evaluate(f: dict, radicands, x) -> Fraction:
    index = {d: i for i, d in enumerate(radicands)}
    total = Fraction(0)
    for m, c in f.items():
        v = Fraction(c)
        for kind, d, s, e in m:
            xd = x[index[d]]
            if kind == "s":
                v = -v if xd % 2 else v
            else:
                v *= Fraction(abs(xd + s) + 1) ** e
        total += v
    return total


def abs1_radicands(f: dict) -> set:
    return {d for m in f for kind, d, _s, _e in m if kind == "a"}


def is_formal(f: dict, radicands, s) -> bool:
    """Is s a formal period: zero on abs1 coordinates, even on each sgn support."""
    index = {d: i for i, d in enumerate(radicands)}
    if any(s[index[d]] for d in abs1_radicands(f)):
        return False
    return all(
        sum(s[index[d]] for kind, d, _s, _e in m if kind == "s") % 2 == 0 for m in f
    )
