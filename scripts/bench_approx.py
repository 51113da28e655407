"""Scaled timings of floor division, order comparison, continued_fraction, dirichlet_find, kronecker_find and orbit_discrepancy.

Run from the root of a checkout (stdlib only):

    PYTHONPATH=src python3 scripts/bench_approx.py cfrac 60 200 1000
    PYTHONPATH=src python3 scripts/bench_approx.py dirichlet 10 60 200
    PYTHONPATH=src python3 scripts/bench_approx.py kronecker 5 6 10 30
    PYTHONPATH=src python3 scripts/bench_approx.py discrepancy 10000 100000 1000000
    PYTHONPATH=src python3 scripts/bench_approx.py floor 1000 10000
    PYTHONPATH=src python3 scripts/bench_approx.py compare 1000 10000

`cfrac DEPTH...` expands sqrt(2) + sqrt(3) + sqrt(5) and that value
plus sqrt(7) to each depth.  `dirichlet EXP...` runs dirichlet_find
at eps = 10^-EXP on 40 seeded cases: signed T1 with a root or not, T2
and the target over other roots.  `kronecker K...` searches q*sqrt(3) - p
within eps = 10^-(K+2) of a displacement delta at bound 10^K, with an
exact witness planted at q0 = 10^K - 10^K // 3, so the search must
return some q <= q0.  `discrepancy N...` bounds the star discrepancy
of the first N points of the orbits of sqrt(7) - 2 and (sqrt(5) - 1)/2,
which take one product in O(log N) steps at the first precision; of
1/3 + sqrt(2)/2^200, whose points lie so near the thirds that the
precision is raised first; and of the rationals 1/3, whose N points are
three residues counted with their multiplicities, and 377/1000003,
whose up to 10^6 distinct points take the same product as an
irrational orbit, with exact enclosures.  `floor N...` times
x // y on N seeded pairs of each shape: random ratios over 1-3
radicands, rational ratios, divisors within 2^-62 of 0 (whose 64-bit
enclosure may hold 0), `(2*target + u) // (2*u)` for the residuals
u = q*T2 - p*T1 of the convergents of T2/T1, and near-rationals
c + sqrt(d)/2^k over 1 with k up to 400.  `compare N...` times x < y
on the same pairs, each repeat on fresh copies that keep no comparison
box yet.
It prints one JSON line per case with the fastest of --repeat
wall-clock timings and checks each result: every quotient against
integer Euclid on the ends of a decimal enclosure, each Dirichlet
witness by the exact signs of eps - r and eps + r for its residual r
= m*T1 + n*T2 - target, q <= q0 for
Kronecker (the library re-verifies its witness exactly), the
discrepancy bound against the textbook formula in floats, each
floor k by the exact signs of x - k*y and x - (k+1)*y, and each x < y
by the sign of x - y.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from fractions import Fraction
from itertools import islice
from math import isqrt

from periodalg.approx import (
    _convergents,
    continued_fraction,
    dirichlet_find,
    kronecker_find,
    orbit_discrepancy,
)
from periodalg.exactreal import ExactReal, commensurable

RADICANDS = {3: (2, 3, 5), 4: (2, 3, 5, 7)}


def fastest(fn, repeat: int):
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def leading_quotients(rads, count: int) -> list[int]:
    """The first `count` quotients of the sum of sqrt(d) over rads: Euclid
    on both ends of a decimal enclosure, which lie strictly on either
    side of the sum, with 64 digits doubled until they share that many."""
    digits = 64
    while True:
        unit = 10**digits
        lo = sum(isqrt(d * unit * unit) for d in rads)
        (n0, d0), (n1, d1) = (lo, unit), (lo + len(rads), unit)
        out = []
        while len(out) < count and d0 and d1 and n0 // d0 == n1 // d1:
            a = n0 // d0
            out.append(a)
            n0, d0, n1, d1 = d0, n0 - a * d0, d1, n1 - a * d1
        if len(out) == count:
            return out
        digits *= 2


def bench_cfrac(depths, repeat: int) -> None:
    for n, rads in RADICANDS.items():
        x = sum((ExactReal.sqrt(d) for d in rads), ExactReal.rational(0))
        want = leading_quotients(rads, max(depths))
        for depth in depths:
            t, cf = fastest(lambda: continued_fraction(x, depth), repeat)
            assert list(cf.quotients) == want[:depth], (n, depth)
            print(json.dumps({"kind": "cfrac", "radicands": n, "depth": depth, "seconds": t}))


def dirichlet_cases(rng: random.Random, n: int) -> list[tuple[ExactReal, ...]]:
    cases = []
    while len(cases) < n:
        T1, T2, target = random_real(rng, rng.randint(0, 1)), random_real(rng, 1), random_real(rng, 2)
        if commensurable(T1, T2) is None:
            cases.append((T1, T2, target))
    return cases


def bench_dirichlet(exponents, repeat: int) -> None:
    cases = dirichlet_cases(random.Random("dirichlet"), 40)
    for k in exponents:
        eps = ExactReal.rational(Fraction(1, 10**k))
        t, got = fastest(lambda: [dirichlet_find(*case, eps) for case in cases], repeat)
        for (T1, T2, target), (m, n) in zip(cases, got):
            r = T1.scale(m) + T2.scale(n) - target
            assert (eps - r).sign() > 0 and (eps + r).sign() > 0, (T1, T2, target, m, n)
        print(json.dumps({"kind": "dirichlet", "eps": f"1e-{k}", "cases": len(cases), "seconds": t}))


def bench_kronecker(exponents, repeat: int) -> None:
    T = ExactReal.sqrt(3)
    one = ExactReal.rational(1)
    for k in exponents:
        bound = 10**k
        q0 = bound - bound // 3
        # q0*sqrt(3) - p0 - delta = 0 exactly
        delta = T.scale(q0) - ExactReal.rational(T.scale(q0).floor())
        eps = ExactReal.rational(Fraction(1, 10 ** (k + 2)))
        t, got = fastest(lambda: kronecker_find(T, [one], delta, eps, bound=bound), repeat)
        assert got[0] <= q0, got
        row = {"kind": "kronecker", "bound": f"1e{k}", "q": got[0], "seconds": t}
        print(json.dumps(row))


def float_star_discrepancy(alpha: float, n: int) -> float:
    """D*_N of {i*alpha}, i < n, by sorting floats."""
    pts = sorted((i * alpha) % 1.0 for i in range(n))
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(pts))


def bench_discrepancy(sizes, repeat: int) -> None:
    one = ExactReal.rational(1)
    alphas = {
        "sqrt(7)-2": ExactReal.sqrt(7) - ExactReal.rational(2),
        "(sqrt(5)-1)/2": (ExactReal.sqrt(5) - one).scale(Fraction(1, 2)),
        "1/3+sqrt(2)/2^200": one / 3 + ExactReal.sqrt(2) / 2**200,
        "1/3": one / 3,
        "377/1000003": ExactReal.rational(Fraction(377, 1000003)),
    }
    for name, alpha in alphas.items():
        lo, hi = alpha._enclosure_scaled(64)
        for n in sizes:
            t, got = fastest(lambda: orbit_discrepancy(alpha, n), repeat)
            # float points drift by about n * 2^-53
            assert abs(float(got) - float_star_discrepancy(float(Fraction(lo + hi, 2**65)), n)) < 1e-8, got
            print(json.dumps({"kind": "discrepancy", "alpha": name, "N": n, "seconds": t}))


def random_real(rng: random.Random, n_rads: int) -> ExactReal:
    """A nonzero rational plus signed rational multiples of n_rads roots."""
    x = ExactReal.rational(Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 9)))
    for d in rng.sample([2, 3, 5, 6, 7, 10, 11], n_rads):
        x = x + ExactReal.sqrt(d).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return x if x else ExactReal.rational(1)


def floor_pairs(rng: random.Random, shape: str, n: int) -> list[tuple[ExactReal, ExactReal]]:
    one = ExactReal.rational(1)
    pairs = []
    while len(pairs) < n:
        if shape == "random":
            pairs.append((random_real(rng, rng.randint(0, 3)), random_real(rng, rng.randint(1, 3))))
        elif shape == "rational":
            y = random_real(rng, rng.randint(1, 3))
            pairs.append((y.scale(Fraction(rng.randint(-30, 30), rng.randint(1, 7))), y))
        elif shape == "straddle":
            d, k = rng.choice([2, 3, 5, 7]), rng.randint(62, 90)
            y = ExactReal.sqrt(d) - ExactReal.rational(Fraction(isqrt(d << 2 * k), 2**k))
            pairs.append((random_real(rng, 2), y if rng.random() < 0.5 else -y))
        elif shape == "dirichlet":
            T1, T2, target = random_real(rng, 1), random_real(rng, 2), random_real(rng, 2)
            if commensurable(T1, T2) is not None:
                continue
            for _, p, q in islice(_convergents(T2, T1), 8):
                u = T2.scale(q) - T1.scale(p)
                pairs.append((target.scale(2) + u, u.scale(2)))
        else:
            tiny = ExactReal.sqrt(rng.choice([2, 3, 5, 7])).scale(Fraction(1, 2 ** rng.randint(1, 400)))
            c = ExactReal.rational(Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
            pairs.append((c + tiny if rng.random() < 0.5 else c - tiny, one))
    return pairs[:n]


def bench_floor(sizes, repeat: int) -> None:
    for n in sizes:
        for shape in ("random", "rational", "straddle", "dirichlet", "near_rational"):
            pairs = floor_pairs(random.Random(f"floor:{shape}:{n}"), shape, n)
            t, got = fastest(lambda: [x // y for x, y in pairs], repeat)
            for (x, y), k in zip(pairs, got):
                s = y.sign()
                assert (x - y.scale(k)).sign() * s >= 0 > (x - y.scale(k + 1)).sign() * s, (x, y, k)
            print(json.dumps({"kind": "floor", "shape": shape, "cases": n, "seconds": t}))


def fresh(x: ExactReal) -> ExactReal:
    """A copy of x that keeps no comparison box yet."""
    return ExactReal._of(x.den, dict(x.nums))


def bench_compare(sizes, repeat: int) -> None:
    for n in sizes:
        for shape in ("random", "rational", "straddle", "dirichlet", "near_rational"):
            pairs = floor_pairs(random.Random(f"floor:{shape}:{n}"), shape, n)
            best = float("inf")
            for _ in range(repeat):
                copies = [(fresh(x), fresh(y)) for x, y in pairs]
                t0 = time.perf_counter()
                got = [x < y for x, y in copies]
                best = min(best, time.perf_counter() - t0)
            for (x, y), less in zip(pairs, got):
                assert less == ((x - y).sign() < 0), (x, y, less)
            print(json.dumps({"kind": "compare", "shape": shape, "cases": n, "seconds": best}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "what", choices=("cfrac", "dirichlet", "kronecker", "discrepancy", "floor", "compare")
    )
    ap.add_argument(
        "sizes",
        type=int,
        nargs="+",
        help="cfrac depths, Dirichlet or Kronecker eps/bound exponents, "
        "discrepancy point counts, or floor or compare pairs per shape",
    )
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if args.what == "cfrac":
        bench_cfrac(args.sizes, args.repeat)
    elif args.what == "dirichlet":
        bench_dirichlet(args.sizes, args.repeat)
    elif args.what == "kronecker":
        bench_kronecker(args.sizes, args.repeat)
    elif args.what == "floor":
        bench_floor(args.sizes, args.repeat)
    elif args.what == "compare":
        bench_compare(args.sizes, args.repeat)
    else:
        bench_discrepancy(args.sizes, args.repeat)


if __name__ == "__main__":
    main()
