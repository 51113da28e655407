"""Scaled timings of pointsets.fundamental_period, symdiff_measure, rotate
and IntervalPattern construction.

Run from the root of a checkout (stdlib only):

    PYTHONPATH=src python3 scripts/bench_pointsets.py 64 256 1024

For each interval count n (a multiple of 8) it builds one pattern of n
intervals on modulus 1 + sqrt(2) with planted period L/8, and a second
one, the first rotated by sqrt(2) - 1, so their endpoints differ in
every coordinate.  It prints one JSON line per n with the fastest of
--repeat wall-clock timings of fundamental_period(P),
symdiff_measure(P, Q), rotate(P, sqrt(2) - 1) and the validating
constructor IntervalPattern(L, intervals of Q).  Each repeat runs on
fresh copies of the endpoints, built before the clock starts, so no
comparison box kept from setup or an earlier repeat makes a timing
look faster.  It checks the period found is the planted one, that the
symmetric difference equals |P| + |Q| - 2|P n Q| (the overlap taken by
a walk over both interval lists), that the rotation is Q and that the
constructor rebuilds Q.
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction

from periodalg.exactreal import ExactReal
from periodalg.pointsets import IntervalPattern, fundamental_period, rotate, symdiff_measure

# 8 irregular intervals in a block of 96 grid steps
CELL = [(1, 5), (7, 9), (12, 20), (21, 30), (33, 34), (40, 55), (60, 71), (80, 93)]


def planted(n: int) -> IntervalPattern:
    """n intervals, n/8 in each cell of width L/8, packed into blocks.

    A cell is 96 * (n/8) grid steps wide and only its first n/64 blocks
    (part of one, for n < 64) are used, so no rotation shorter than L/8
    maps the pattern to itself.
    """
    L = ExactReal.rational(1) + ExactReal.sqrt(2)
    per_cell = n // 8
    grid = 96 * per_cell
    ivs = []
    for i in range(8):
        for j in range(per_cell):
            lo, hi = CELL[j % 8]
            off = i * grid + (j // 8) * 96
            a, b = Fraction(off + lo, 8 * grid), Fraction(off + hi, 8 * grid)
            ivs.append((L.scale(a), L.scale(b)))
    return IntervalPattern(L, ivs)


def measure(p: IntervalPattern) -> ExactReal:
    """Total length of one period's intervals."""
    total = ExactReal.rational(0)
    for a, b in p.intervals:
        total = total + (b - a)
    return total


def overlap_symdiff(p: IntervalPattern, q: IntervalPattern) -> ExactReal:
    """|P| + |Q| - 2|P n Q|, with P n Q from one walk over the sorted,
    disjoint intervals of both patterns."""
    common = ExactReal.rational(0)
    i = j = 0
    while i < len(p.intervals) and j < len(q.intervals):
        (a, b), (c, d) = p.intervals[i], q.intervals[j]
        lo, hi = max(a, c), min(b, d)
        if lo < hi:
            common = common + (hi - lo)
        if b < d:
            i += 1
        else:
            j += 1
    return measure(p) + measure(q) - common.scale(2)


def fresh(x: ExactReal) -> ExactReal:
    """A copy of x that keeps no comparison box yet."""
    return ExactReal._of(x.den, dict(x.nums))


def fresh_pattern(p: IntervalPattern) -> IntervalPattern:
    ivs = tuple((fresh(a), fresh(b)) for a, b in p.intervals)
    return IntervalPattern._canonical(fresh(p.modulus), ivs, p.wrap_point)


def fastest(fn, repeat: int, *patterns: IntervalPattern):
    """The fastest of `repeat` calls fn(*copies), each on fresh copies of
    `patterns`, and the last result."""
    best, out = float("inf"), None
    for _ in range(repeat):
        copies = [fresh_pattern(p) for p in patterns]
        t0 = time.perf_counter()
        out = fn(*copies)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sizes", type=int, nargs="+", help="interval counts, multiples of 8")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    alpha = ExactReal.sqrt(2) - ExactReal.rational(1)
    for n in args.sizes:
        p = planted(n)
        q = rotate(p, alpha)
        t_fp, period = fastest(fundamental_period, args.repeat, p)
        assert period == p.modulus.scale(Fraction(1, 8)), period
        t_sd, out = fastest(symdiff_measure, args.repeat, p, q)
        assert out == overlap_symdiff(p, q), out
        t_rot, out = fastest(lambda c: rotate(c, alpha), args.repeat, p)
        assert out == q
        t_new, out = fastest(
            lambda c: IntervalPattern(c.modulus, c.intervals, c.wrap_point), args.repeat, q
        )
        assert out == q
        row = {
            "intervals": n,
            "fundamental_period_s": t_fp,
            "symdiff_measure_s": t_sd,
            "rotate_s": t_rot,
            "construct_s": t_new,
        }
        print(json.dumps(row))


if __name__ == "__main__":
    main()
