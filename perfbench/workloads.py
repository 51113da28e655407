"""Seeded job generators for the three workloads, with independent checks.

A job is one scenario text run through the public scenario path
(`parse_scenario` -> `run_scenario` -> `Report.to_json`), or, for the
three pattern operations the scenario language cannot express, one
direct call into `pointsets`.  Every job carries a check that verifies
its output with the arithmetic in `exact.py` and adds its work counts
(box points, NotFound results, Kronecker q screened, orbit points) to a
Counter.  Each round has a fixed composition of job shapes and sizes;
the seed only picks the values, so rounds of different seeds cost about
the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from typing import Callable

import exact as X
from periodalg import pointsets, scenario
from periodalg.exactreal import ExactReal, RadicalBasis

RADICANDS = [2, 3, 5, 6, 7, 10, 11, 13]


class Mismatch(Exception):
    """An output that failed its independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Job:
    label: str
    call: Callable[[], object]  # the timed part
    check: Callable[[object, dict], None]  # raises Mismatch, adds work counts
    show: Callable[[object], str]  # output as digest text


def run_text(text: str, name: str) -> str:
    """The JSON report `periodalg run --json` writes for a scenario text."""
    sc = scenario.parse_scenario(text, default_name=name)
    return scenario.run_scenario(sc, scenario.RunOptions()).to_json()


def scenario_job(label: str, text: str, checks: list) -> Job:
    def call():
        return run_text(text, label)

    def check(out, counts):
        results = json.loads(out)["results"]
        require(len(results) == len(checks), "analysis count")
        for res, chk in zip(results, checks):
            chk(res, counts)

    return Job(label, call, check, show=lambda out: out)


def bundled_jobs(scenario_dir) -> list[Job]:
    """The bundled scenarios, run verbatim against their frozen reports."""
    jobs = []
    for entry in sorted(scenario_dir.iterdir(), key=lambda p: p.name):
        if not entry.name.endswith(".scn"):
            continue
        name = entry.name[: -len(".scn")]
        text = entry.read_text()
        want = scenario_dir.joinpath(name + ".expected.json").read_text()

        def call(text=text, name=name):
            return run_text(text, name)

        def check(out, counts, want=want, name=name):
            require(out == want, f"{name} differs from its frozen report")

        jobs.append(Job("bundled:" + name, call, check, show=lambda out: out))
    return jobs


# -- shared generators ---------------------------------------------------------


def to_exact(x: dict) -> ExactReal:
    return ExactReal(RadicalBasis(sorted(set(x) | {1})), x)


def rand_basis(rng, dim: int) -> list[int]:
    return [1] + sorted(rng.sample(RADICANDS, dim - 1))


def basis_text(radicands) -> str:
    return "basis(" + ", ".join("1" if d == 1 else f"sqrt({d})" for d in radicands) + ")"


def rand_hnf(rng, rank: int, dim: int, pivot_max: int) -> list[tuple]:
    """Random rows already in the canonical Hermite normal form."""
    cols = sorted(rng.sample(range(dim), rank))
    piv = [rng.randint(1, pivot_max) for _ in cols]
    rows = []
    for i, c in enumerate(cols):
        row = [0] * dim
        row[c] = piv[i]
        for j in range(c + 1, dim):
            if j in cols:
                m = cols.index(j)
                row[j] = rng.randrange(piv[m])
            else:
                row[j] = rng.randint(-3, 3)
        rows.append(tuple(row))
    return rows


def lattice_text(rows) -> str:
    return "lattice[" + ", ".join("(" + ",".join(map(str, r)) + ")" for r in rows) + "]"


def vec_real(radicands, v) -> dict:
    return {d: Fraction(c) for d, c in zip(radicands, v) if c}


def rand_formula(rng, radicands, shape, abs1_share: float = 0.6) -> dict:
    """Sum of distinct monomials, each reading distinct coordinates.

    `shape` lists the atom count of each term.
    """
    f: dict = {}
    for _ in range(20 * len(shape)):
        if len(f) == len(shape):
            break
        atoms = []
        for d in rng.sample(radicands, min(len(radicands), shape[len(f)])):
            if rng.random() < abs1_share:
                e = rng.choice([1, 1, -1, -1, 2, -2])
                atoms.append(("a", d, rng.choice([0, 0, 1, -1, 2]), e))
            else:
                atoms.append(("s", d, 0, 1))
        m = X.monomial(atoms)
        if m not in f:
            f[m] = Fraction(rng.choice([1, 1, 2, 3, -1, -2]))
    return f


def formal_vectors(f: dict, radicands, rows) -> list[tuple]:
    out = []
    for c in product(range(-2, 3), repeat=len(rows)):
        v = X.combine(rows, c, len(radicands))
        if any(v) and X.is_formal(f, radicands, v):
            out.append(v)
    return out


def nonformal_vectors(rng, f: dict, radicands, rows, n: int) -> list[tuple]:
    out = []
    for _ in range(40 * n):
        if len(out) == n:
            break
        v = X.combine(rows, [rng.randint(-3, 3) for _ in rows], len(radicands))
        if any(v) and not X.is_formal(f, radicands, v):
            out.append(v)
    return out


def rand_shape(rng) -> list[int]:
    return [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]


def function_case(rng, radicands, rank: int, n_formal: int, n_other: int, shape):
    """A random domain of the given rank, a formula on it, some of its
    formal periods, and n_formal formal plus n_other non-formal shifts."""
    for _ in range(100):
        rows = rand_hnf(rng, rank, len(radicands), 2)
        for attempt in range(20):
            f = rand_formula(rng, radicands, shape, 0.6 if attempt < 10 else 0.3)
            formal = formal_vectors(f, radicands, rows)
            other = nonformal_vectors(rng, f, radicands, rows, n_other)
            if (formal or not n_formal) and len(other) == n_other:
                shifts = [rng.choice(formal) for _ in range(n_formal)] + other
                rng.shuffle(shifts)
                return rows, f, formal[:6], shifts
    raise RuntimeError("no domain admits the requested shifts")


# -- checks --------------------------------------------------------------------


def check_period_module(f: dict, radicands, in_domain, planted):
    def chk(res, counts):
        require(res["kind"] == "period_module", "kind")
        ex = res["exact"]
        require(X.parse_basis(ex["lattice"]["basis"]) == list(radicands), "module basis")
        rows = [tuple(r) for r in ex["lattice"]["rows"]]
        require(X.is_echelon(rows), "module rows not in echelon form")
        require(ex["zero_coords"] == sorted(X.abs1_radicands(f)), "zero coordinates")
        for row in rows:
            require(in_domain(row), "module generator outside the domain")
            require(X.is_formal(f, radicands, row), "module generator is not a formal period")
        for p in planted:
            require(X.member(rows, p), "planted formal period missing from the module")

    return chk


def check_intersect(rows1, rows2):
    def chk(res, counts):
        require(res["kind"] == "intersect", "kind")
        rows = [tuple(r) for r in res["exact"]["lattice"]["rows"]]
        require(X.is_echelon(rows), "intersection rows not in echelon form")
        for row in rows:
            require(X.member(rows1, row) and X.member(rows2, row), "generator outside a domain")

    return chk


def _axis_index(a: int) -> int:
    return 2 * a - 1 if a > 0 else -2 * a


def check_counterexample(f: dict, radicands, rows, shift, bound: int):
    side = 2 * bound + 1
    formal = X.is_formal(f, radicands, shift)

    def moved(x):
        return tuple(a + b for a, b in zip(x, shift))

    def chk(res, counts):
        require(res["kind"] == "counterexample", "kind")
        counts["ce_calls"] += 1
        counts["ce_formal"] += formal
        if not res["exact"]["found"]:
            counts["ce_notfound"] += 1
            counts["ce_box_points"] += side ** len(rows)
            if not formal:
                counts["ce_notfound_nonformal"] += 1
                for c in product(range(-bound, bound + 1), repeat=len(rows)):
                    x = X.combine(rows, c, len(radicands))
                    require(
                        X.evaluate(f, radicands, x) == X.evaluate(f, radicands, moved(x)),
                        "NotFound, yet the box holds a witness",
                    )
            return
        x = tuple(res["witness"]["x"])
        require(X.member(rows, x), "witness outside the domain")
        require(
            X.evaluate(f, radicands, x) != X.evaluate(f, radicands, moved(x)),
            "witness does not separate f(x) and f(x + T)",
        )
        coeffs = X.coefficients(rows, x)
        require(all(abs(a) <= bound for a in coeffs), "witness outside the box")
        pos = 0
        for a in coeffs:
            pos = pos * side + _axis_index(a)
        counts["ce_box_points"] += pos + 1

    return chk


def check_commensurable(x: dict, y: dict):
    want = X.ratio(x, y)

    def chk(res, counts):
        require(res["exact"]["commensurable"] == (want is not None), "commensurable")
        if want is not None:
            require(Fraction(res["witness"]["ratio"]) == want, "ratio")

    return chk


def check_classify(periods):
    def chk(res, counts):
        ex = res["exact"]
        ratios = [X.ratio(p, periods[0]) for p in periods]
        if ex["classification"] == "dense":
            require(None in ratios, "dense, yet all periods are commensurable")
            return
        require(ex["classification"] == "discrete", "classification")
        t0 = X.parse(ex["T0"])
        require(X.sign(t0) > 0, "T0 not positive")
        mult = [X.ratio(p, t0) for p in periods]
        require(all(m is not None and m.denominator == 1 for m in mult), "T0 does not divide")
        require(gcd(*(m.numerator for m in mult)) == 1, "T0 is not the generator")

    return chk


def check_composition(slope: dict, T: dict, L: dict):
    r = X.ratio(X.mul(slope, L), T)
    holds = r is not None and r.denominator == 1

    def chk(res, counts):
        require(res["exact"]["holds"] == holds, "composition verdict")
        if holds:
            require(res["exact"]["n"] == r.numerator, "composition multiple")

    return chk


def arcs(intervals, L: dict, t: dict | None = None, wrap: bool = False) -> set:
    """Connected components of a pattern on the circle R/LZ, shifted by t.

    Each arc is the pair (start, end) of residues in [0, L); a pattern
    whose wrap bit is set joins its last and first intervals.
    """
    out = []
    for a, b in intervals:
        if t is not None:
            a, b = X.mod(X.add(a, t), L), X.mod(X.add(b, t), L)
        elif X.sign(X.sub(b, L)) == 0:
            b = {}
        out.append((a, b))
    if wrap:
        (a_last, _), (_, b_first) = out[-1], out[0]
        out = [(a_last, b_first)] + out[1:-1]
    return {(X.key(a), X.key(b)) for a, b in out}


def check_fundamental(intervals, L: dict, planted: dict):
    def chk(res, counts):
        t = X.parse(res["exact"]["period"])
        require(X.sign(t) > 0, "period not positive")
        r = X.ratio(planted, t)
        require(r is not None and r.denominator == 1 and r > 0, "period does not divide the planted one")
        require(arcs(intervals, L, t) == arcs(intervals, L), "pattern not invariant")

    return chk


def check_cfrac(x: dict, depth: int):
    rational = set(x) <= {1}

    def chk(res, counts):
        ex = res["exact"]
        qs, cv = ex["quotients"], [tuple(c) for c in ex["convergents"]]
        require(len(qs) == len(cv) and 1 <= len(qs) <= depth, "expansion length")
        exact_end = X.sub(x, X.rat(Fraction(*cv[-1]))) == {}
        require(ex["terminated"] == exact_end, "terminated flag")
        require(exact_end or len(qs) == depth, "expansion stopped early")
        p2, p1, q2, q1 = 0, 1, 1, 0
        for a, (p, q) in zip(qs, cv):
            require((p, q) == (a * p1 + p2, a * q1 + q2), "convergent recurrence")
            p2, p1, q2, q1 = p1, p, q1, q
        for (p, q), (_, q_next) in zip(cv, cv[1:]):
            err = X.sub(x, X.rat(Fraction(p, q)))
            tol = X.rat(Fraction(1, q * q_next))
            if rational:
                require(X.sign(X.sub(tol, err)) >= 0 and X.sign(X.add(tol, err)) >= 0, "convergent bound")
            else:
                require(X.abs_below(err, tol), "convergent bound")

    return chk


def check_dirichlet(T1: dict, T2: dict, target: dict, eps: dict):
    def chk(res, counts):
        m, n = res["witness"]["m"], res["witness"]["n"]
        u = X.sub(X.add(X.scale(T1, m), X.scale(T2, n)), target)
        require(X.abs_below(u, eps), "dirichlet residual not below eps")

    return chk


def check_kronecker(T: dict, Ts, delta: dict, eps: dict, q0: int):
    def chk(res, counts):
        require(res["exact"]["found"], "planted Kronecker witness not found")
        q, ps = res["witness"]["q"], res["witness"]["ps"]
        require(1 <= q <= q0 and len(ps) == len(Ts), "witness q")
        for t, p in zip(Ts, ps):
            u = X.sub(X.sub(X.scale(T, q), X.scale(t, p)), delta)
            require(X.abs_below(u, eps), "kronecker residual not below eps")
        counts["kron_q"] += q

    return chk


def check_discrepancy(alpha: dict, N: int):
    def chk(res, counts):
        got = Fraction(res["exact"]["dstar_upper_bound"])
        a = X.to_float(alpha)
        pts = sorted((i * a) % 1.0 for i in range(N))
        est = max(max((i + 1) / N - p, p - i / N) for i, p in enumerate(pts))
        require(abs(float(got) - est) < 1e-9, "discrepancy bound off the float estimate")
        counts["disc_points"] += N

    return chk


# -- generated values ----------------------------------------------------------


def rand_irrational(rng, n_rads: int, size: int = 9) -> dict:
    """A nonzero real with n_rads irrational parts (a rational if n_rads is 0)."""
    x = {d: Fraction(rng.randint(1, size), rng.randint(1, 3)) for d in rng.sample(RADICANDS, n_rads)}
    c = rng.randint(-size, size) if n_rads else rng.randint(1, size)
    return X.add(x, X.rat(Fraction(c, rng.randint(1, 4))))


def unit_fraction(rng, n_rads: int) -> dict:
    """An irrational strictly between 0 and 1."""
    x = rand_irrational(rng, n_rads)
    return X.sub(x, X.rat(X.floor(x)))


def pell(d: int, minimum: int) -> tuple[int, int]:
    """Solution (p, q) of p^2 - d*q^2 = 1 with p >= minimum."""
    q1 = 1
    while isqrt(d * q1 * q1 + 1) ** 2 != d * q1 * q1 + 1:
        q1 += 1
    p1 = isqrt(d * q1 * q1 + 1)
    p, q = p1, q1
    while p < minimum:
        p, q = p * p1 + d * q * q1, p * q1 + q * p1
    return p, q


def planted_pattern(rng, n: int, j: int, L: dict, irrational: bool = True):
    """n intervals with period L/j: a generic motif of n/j intervals repeated.

    Irrational endpoints carry a tiny multiple of one square root.
    """
    P = X.scale(L, Fraction(1, j))
    m = n // j
    cuts = sorted(rng.sample(range(1, 1000), 2 * m))
    # distinct wiggles, so that only differences of copies of one endpoint are rational
    wiggles = rng.sample(range(1, 100), 2 * m)
    r = rng.choice(RADICANDS)
    ends = [
        X.add(X.scale(P, Fraction(c, 1000)), {r: Fraction(w, 10**8)} if irrational else {})
        for c, w in zip(cuts, wiggles)
    ]
    motif = list(zip(ends[::2], ends[1::2]))
    intervals = [
        (X.add(a, X.scale(P, i)), X.add(b, X.scale(P, i))) for i in range(j) for a, b in motif
    ]
    return intervals, P


def pattern_text(name: str, L: dict, intervals) -> str:
    body = " u ".join(f"({X.fmt(a)}, {X.fmt(b)})" for a, b in intervals)
    return f"pattern {name} mod {X.fmt(L)} = {body};"


def to_pattern(L: dict, intervals) -> pointsets.IntervalPattern:
    return pointsets.IntervalPattern(
        to_exact(L), [(to_exact(a), to_exact(b)) for a, b in intervals]
    )


def eps_text(k: int) -> tuple[dict, str]:
    return X.rat(Fraction(1, 10**k)), f"1/{10**k}"


def kronecker_case(rng, n_ts: int, q0: int, eps_exp: int):
    """Inputs whose search has a planted exact-residual witness at q0."""
    d_t, d_1 = rng.sample(RADICANDS, 2)
    T = X.add({d_t: Fraction(1, rng.randint(1, 3))}, X.rat(Fraction(rng.randint(0, 3), 7)))
    if n_ts == 1:
        T1 = X.rat(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        p1 = rng.randint(q0 // 2, 2 * q0)
        Ts, delta = [T1], X.sub(X.scale(T, q0), X.scale(T1, p1))
    else:
        # p1 - q1*sqrt(d_1) is tiny for a Pell solution, so both residuals
        # at q0 stay below eps
        p1, _q1 = pell(d_1, 10 ** (eps_exp + 1))
        Ts = [X.rat(1), {d_1: Fraction(1)}]
        delta = X.sub(X.scale(T, q0), X.rat(p1))
    eps, etext = eps_text(eps_exp)
    return T, Ts, delta, eps, etext


def _kron_text(T, Ts, delta, etext, bound) -> str:
    return (f"analyze kronecker {X.fmt(T)} over [{', '.join(X.fmt(t) for t in Ts)}] "
            f"delta {X.fmt(delta)} eps {etext} bound {bound};")


# -- scenario_mix: short jobs shaped like the bundled scenarios -----------------


def _real_pair(rng) -> tuple[dict, dict]:
    x = rand_irrational(rng, rng.randint(0, 2))
    if rng.random() < 0.5:
        return x, X.scale(x, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return x, rand_irrational(rng, rng.randint(1, 2))


def mix_functions(rng) -> Job:
    rads = rand_basis(rng, 3)
    D, f, planted_f, shifts = function_case(rng, rads, 3, 1, 1, rand_shape(rng))
    E = rand_hnf(rng, rng.randint(2, 3), 3, 3)
    bound = rng.randint(2, 5)
    g = rand_formula(rng, rads, rand_shape(rng)[:2])
    if rng.random() < 0.5:
        m, c = rng.choice(sorted(f.items()))
        g = X.form_add(g, {m: c}, -1)  # h = f + g loses a term of f
    h = X.form_add(f, g)
    shift_h = X.combine(D, [rng.randint(-2, 2) for _ in D], 3)
    if not any(shift_h):
        shift_h = D[0]
    x, y = _real_pair(rng)
    base = rand_irrational(rng, rng.randint(0, 1))
    periods = [X.scale(base, Fraction(rng.randint(1, 9), rng.randint(1, 6))) for _ in range(2)]
    if rng.random() < 0.5:
        periods.append(rand_irrational(rng, 1))
    slope = X.rat(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    T = rand_irrational(rng, 1)
    L = X.scale(T, Fraction(rng.randint(1, 4)) / slope[1]) if rng.random() < 0.5 else rand_irrational(rng, 1)
    in_D = lambda v: X.member(D, v)
    text = "\n".join([
        'scenario "mix functions";',
        f"basis B = {basis_text(rads)};",
        f"domain D = {lattice_text(D)} over B;",
        f"domain E = {lattice_text(E)} over B;",
        f"function f = {X.form_text(f)} on D;",
        f"function g = {X.form_text(g)} on D;",
        "function h = f + g;",
        "analyze period_module f;",
        "analyze period_module h;",
        "analyze intersect D, E;",
        *(f"analyze counterexample f shift {X.fmt(vec_real(rads, s))} bound {bound};" for s in shifts),
        f"analyze counterexample h shift {X.fmt(vec_real(rads, shift_h))} bound {bound};",
        f"analyze commensurable {X.fmt(x)}, {X.fmt(y)};",
        f"analyze classify {', '.join(X.fmt(p) for p in periods)};",
        f"analyze composition_check slope {X.fmt(slope)} t {X.fmt(T)} l {X.fmt(L)};",
    ])
    checks = [
        check_period_module(f, rads, in_D, planted_f),
        check_period_module(h, rads, in_D, formal_vectors(h, rads, D)[:6]),
        check_intersect(D, E),
        *(check_counterexample(f, rads, D, s, bound) for s in shifts),
        check_counterexample(h, rads, D, shift_h, bound),
        check_commensurable(x, y),
        check_classify(periods),
        check_composition(slope, T, L),
    ]
    return scenario_job("mix_functions", text, checks)


def mix_toolkit(rng) -> Job:
    L1, L2 = (X.rat(Fraction(rng.randint(1, 5), rng.randint(1, 2))) for _ in range(2))
    P, planted_p = planted_pattern(rng, rng.choice([2, 4]), 2, L1, irrational=False)
    Q, planted_q = planted_pattern(rng, 2, rng.choice([1, 2]), L2, irrational=False)
    x = rand_irrational(rng, rng.randint(1, 2))
    depth = rng.randint(6, 12)
    frac = X.rat(Fraction(rng.randint(100, 999), rng.randint(10, 99)))
    T1, T2 = X.rat(1), rand_irrational(rng, 1)
    target = rand_irrational(rng, 1)
    eps_d, etext_d = eps_text(rng.randint(2, 4))
    q0 = rng.randint(100, 1000)
    kT, kTs, kdelta, keps, ketext = kronecker_case(rng, 1, q0, 5)
    alpha = unit_fraction(rng, 1)
    N = rng.randint(50, 200)
    text = "\n".join([
        'scenario "mix toolkit";',
        pattern_text("P", L1, P),
        pattern_text("Q", L2, Q),
        "analyze fundamental_period P;",
        "analyze fundamental_period Q;",
        f"analyze cfrac {X.fmt(x)} depth {depth};",
        f"analyze cfrac {X.fmt(frac)} depth 10;",
        f"analyze dirichlet {X.fmt(T1)}, {X.fmt(T2)} target {X.fmt(target)} eps {etext_d};",
        _kron_text(kT, kTs, kdelta, ketext, 1000),
        f"analyze discrepancy {X.fmt(alpha)} n {N};",
    ])
    checks = [
        check_fundamental(P, L1, planted_p),
        check_fundamental(Q, L2, planted_q),
        check_cfrac(x, depth),
        check_cfrac(frac, 10),
        check_dirichlet(T1, T2, target, eps_d),
        check_kronecker(kT, kTs, kdelta, keps, q0),
        check_discrepancy(alpha, N),
    ]
    return scenario_job("mix_toolkit", text, checks)


def mix_product(rng) -> Job:
    common = rng.sample(RADICANDS, 2)
    e1, e2 = rng.sample([d for d in RADICANDS if d not in common], 2)
    b1, b2 = [1] + sorted(common + [e1]), [1] + sorted(common + [e2])
    merged = sorted(set(b1) | set(b2))
    g1 = rand_formula(rng, b1, rand_shape(rng)[:2])
    g2 = rand_formula(rng, b2, rand_shape(rng)[:2])
    h = X.form_mul(g1, g2)

    def units(sub, over):
        return [tuple(int(d == e) for d in over) for e in sub]

    meet = units([d for d in merged if d in b1 and d in b2], merged)
    in_meet = lambda v: X.member(meet, v)
    text = "\n".join([
        'scenario "mix product";',
        f"basis B1 = {basis_text(b1)};",
        f"basis B2 = {basis_text(b2)};",
        f"domain D1 = {lattice_text(units(b1, b1))} over B1;",
        f"domain D2 = {lattice_text(units(b2, b2))} over B2;",
        f"function g1 = {X.form_text(g1)} on D1;",
        f"function g2 = {X.form_text(g2)} on D2;",
        "function h = g1 * g2;",
        "analyze intersect D1, D2;",
        "analyze period_module g1;",
        "analyze period_module g2;",
        "analyze period_module h;",
    ])
    checks = [
        check_intersect(units(b1, merged), units(b2, merged)),
        check_period_module(g1, b1, lambda v: True, formal_vectors(g1, b1, units(b1, b1))[:6]),
        check_period_module(g2, b2, lambda v: True, formal_vectors(g2, b2, units(b2, b2))[:6]),
        check_period_module(h, merged, in_meet, formal_vectors(h, merged, meet)[:6]),
    ]
    return scenario_job("mix_product", text, checks)


def scenario_mix_round(rng, bundled: list[Job]) -> list[Job]:
    jobs = [mix_functions(rng), mix_functions(rng), mix_toolkit(rng), mix_product(rng)]
    return jobs + bundled


# -- period_search: Tier-1 oracle-equivalence traffic at bound 25 ---------------

# (rank, coordinate count, formal shifts) per job: a rank equal to the
# coordinate count is a full-rank domain (index above 1 when a pivot
# exceeds 1), one less is a rank-deficient sublattice.  9 of the 30
# shifts in a round are formal periods.
PERIOD_SLOTS = [
    (1, 1, 1), (1, 2, 1), (1, 2, 0),
    (2, 2, 1), (2, 3, 1), (2, 2, 1), (2, 3, 1),
    (3, 3, 1), (3, 4, 1), (3, 3, 1),
]
SEARCH_BOUND = 25


def period_search_job(rng, rank: int, dim: int, n_formal: int) -> Job:
    rads = rand_basis(rng, dim)
    shape = [2, 1] if dim > 1 else [1]
    D, f, planted, shifts = function_case(rng, rads, rank, n_formal, 3 - n_formal, shape)
    E = rand_hnf(rng, dim, dim, 3)
    text = "\n".join([
        'scenario "period search";',
        f"basis B = {basis_text(rads)};",
        f"domain D = {lattice_text(D)} over B;",
        f"domain E = {lattice_text(E)} over B;",
        f"function f = {X.form_text(f)} on D;",
        "analyze period_module f;",
        "analyze intersect D, E;",
        *(f"analyze counterexample f shift {X.fmt(vec_real(rads, s))} bound {SEARCH_BOUND};" for s in shifts),
    ])
    checks = [
        check_period_module(f, rads, lambda v: X.member(D, v), planted),
        check_intersect(D, E),
        *(check_counterexample(f, rads, D, s, SEARCH_BOUND) for s in shifts),
    ]
    return scenario_job(f"period_search_r{rank}", text, checks)


def period_search_round(rng) -> list[Job]:
    return [period_search_job(rng, *slot) for slot in PERIOD_SLOTS]


# -- diophantine: scaled-up diophantine_toolkit ---------------------------------

# The slot counts put the rank statistics inside groups of like jobs.
# Of the 55 jobs in a round (at seed), 23 are cheaper than the nine
# cfrac (2, 40) jobs and 23 dearer, so the median falls among those
# nine; 4 (the three largest fundamental periods and the 2e5 Kronecker
# search) are dearer than the three 1e5 Kronecker searches, among which
# the 90th percentile falls.
CFRAC_SLOTS = [(2, 20)] + [(2, 40)] * 9 + [(2, 60), (3, 20), (3, 20), (3, 20), (3, 40), (3, 60)]
DIRICHLET_EPS = [3, 6, 10, 20, 40, 60, 60]
# (T_i count, planted q0 range, eps exponent)
KRONECKER_SLOTS = [(1, (24000, 25000), 8)] + [(1, (96000, 100000), 8)] * 3 + [(2, (192000, 200000), 4)]
DISCREPANCY_N = [1000, 10000, 10000, 100000]
# (intervals, planted period L/j, irrational L)
PERIOD_PATTERNS = [(4, 2, False), (8, 4, True), (12, 4, True), (16, 8, False), (20, 10, False)]
# (intervals, j, irrational L) of the patterns the direct pointsets calls work on
DIRECT_PATTERNS = [(4, 2, False), (4, 2, True), (6, 3, False), (6, 3, True), (12, 4, False), (20, 5, True)]
IRRATIONAL_MODULUS = {1: Fraction(1), 2: Fraction(1)}  # 1 + sqrt(2)


def _single(label: str, line: str, chk) -> Job:
    return scenario_job(label, f'scenario "{label}";\n{line}', [chk])


def cfrac_job(rng, n_rads: int, depth: int) -> Job:
    x = X.add({d: Fraction(1) for d in rng.sample(RADICANDS, n_rads)}, X.rat(Fraction(rng.randint(1, 6), 7)))
    return _single(f"cfrac_{n_rads}x{depth}", f"analyze cfrac {X.fmt(x)} depth {depth};", check_cfrac(x, depth))


def dirichlet_job(rng, k: int) -> Job:
    d1, d2 = rng.sample(RADICANDS, 2)
    T1 = X.rat(1)
    T2 = X.add({d1: Fraction(1)}, X.rat(Fraction(rng.randint(1, 3), 4)))
    target = X.add({d2: Fraction(1)}, X.rat(Fraction(rng.randint(1, 2), 3)))
    eps, etext = eps_text(k)
    line = f"analyze dirichlet {X.fmt(T1)}, {X.fmt(T2)} target {X.fmt(target)} eps {etext};"
    return _single(f"dirichlet_{k}", line, check_dirichlet(T1, T2, target, eps))


def kronecker_job(rng, n_ts: int, q_range, eps_exp: int) -> Job:
    q0 = rng.randint(*q_range)
    T, Ts, delta, eps, etext = kronecker_case(rng, n_ts, q0, eps_exp)
    line = _kron_text(T, Ts, delta, etext, q_range[1])
    return _single(f"kronecker_{n_ts}x{q_range[1]}", line, check_kronecker(T, Ts, delta, eps, q0))


def discrepancy_job(rng, N: int) -> Job:
    alpha = unit_fraction(rng, 1)
    line = f"analyze discrepancy {X.fmt(alpha)} n {N};"
    return _single(f"discrepancy_{N}", line, check_discrepancy(alpha, N))


def fundamental_job(rng, n: int, j: int, irrational: bool) -> Job:
    L = IRRATIONAL_MODULUS if irrational else X.rat(1)
    ivs, planted = planted_pattern(rng, n, j, L)
    text = f'scenario "pattern";\n{pattern_text("P", L, ivs)}\nanalyze fundamental_period P;'
    return scenario_job(f"fundamental_period_{n}", text, [check_fundamental(ivs, L, planted)])


def direct_jobs(rng, n: int, j: int, irrational: bool) -> list[Job]:
    """rotate, is_invariant and symdiff_measure on one planted pattern."""
    L = IRRATIONAL_MODULUS if irrational else X.rat(1)
    ivs, planted = planted_pattern(rng, n, j, L)
    pat = to_pattern(L, ivs)
    alpha = rand_irrational(rng, 1)
    alpha_x = to_exact(alpha)
    t = X.scale(planted, rng.randint(1, 3)) if rng.random() < 0.5 else X.scale(planted, Fraction(1, 2))
    t_x = to_exact(t)
    other = pointsets.rotate(pat, to_exact(rand_irrational(rng, 1)))

    def check_rotate(out, counts):
        require(X.sign(X.sub({d: c for d, c in out.modulus.coords.items()}, L)) == 0, "modulus")
        got = arcs([(dict(a.coords), dict(b.coords)) for a, b in out.intervals], L, wrap=out.wrap_point)
        require(got == arcs(ivs, L, alpha), "rotated pattern")

    def check_invariant(out, counts):
        require(out == (arcs(ivs, L, t) == arcs(ivs, L)), "invariance verdict")

    q_ivs = [(dict(a.coords), dict(b.coords)) for a, b in other.intervals]

    def check_symdiff(out, counts):
        def measure(items):
            total: dict = {}
            for a, b in items:
                total = X.add(total, X.sub(b, a))
            return total

        overlap: dict = {}
        for a, b in ivs:
            for c, d in q_ivs:
                lo = c if X.less(a, c) else a
                hi = b if X.less(b, d) else d
                if X.less(lo, hi):
                    overlap = X.add(overlap, X.sub(hi, lo))
        want = X.sub(X.add(measure(ivs), measure(q_ivs)), X.scale(overlap, 2))
        require(dict(out.coords) == want, "symmetric difference measure")

    return [
        Job(f"rotate_{n}", lambda: pointsets.rotate(pat, alpha_x), check_rotate, repr),
        Job(f"is_invariant_{n}", lambda: pointsets.is_invariant(pat, t_x), check_invariant, str),
        Job(f"symdiff_measure_{n}", lambda: pointsets.symdiff_measure(pat, other), check_symdiff, str),
    ]


def diophantine_round(rng) -> list[Job]:
    jobs = [cfrac_job(rng, *slot) for slot in CFRAC_SLOTS]
    jobs += [dirichlet_job(rng, k) for k in DIRICHLET_EPS]
    jobs += [kronecker_job(rng, *slot) for slot in KRONECKER_SLOTS]
    jobs += [discrepancy_job(rng, N) for N in DISCREPANCY_N]
    jobs += [fundamental_job(rng, *slot) for slot in PERIOD_PATTERNS]
    for slot in DIRECT_PATTERNS:
        jobs += direct_jobs(rng, *slot)
    return jobs


# The cfrac input above the 4096-bit sign cap: p - q*sqrt(2) for the
# 1800th convergent p/q of sqrt(2), about 2^-2289 in size.
def above_cap_text() -> str:
    p, q = 1, 1
    for _ in range(1799):
        p, q = p + 2 * q, p + q
    return f'scenario "above cap";\nanalyze cfrac {p} - {q}*sqrt(2) depth 5;'
