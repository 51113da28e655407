"""Acceptance gate: one test per headline capability, one verdict line each.

Every test prints `PASS`/`FAIL` with its elapsed time against a fixed
wall-clock budget; the lines are echoed after the run by conftest.
Frozen constants in here were computed once by independent means
(float or mpmath scans, rational elimination, Python's own expression
parser) and the exact inequalities are re-verified on every run, so a
regression in either the values or the verification paths turns the
line red.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import conftest
from periodalg.approx import (
    continued_fraction,
    dirichlet_find,
    kronecker_find,
    orbit_discrepancy,
)
from periodalg.errors import NotFound
from periodalg.exactreal import ExactReal, RadicalBasis, commensurable
from periodalg.funcalg import (
    evaluate,
    find_counterexample,
    parse,
    period_module,
    shift_difference,
)
from periodalg.lattice import (
    CoeffLattice,
    Dense,
    Discrete,
    classify_group,
    intersect,
)
from periodalg.pointsets import (
    IntervalPattern,
    fundamental_period,
    is_invariant,
    rotate,
    symdiff_measure,
)

from oracles import (
    box_points,
    first_box_witness,
    py_formula_evaluator,
    random_basis,
    random_formula_text,
    random_lattice,
    solve_membership,
)


@contextmanager
def criterion(name: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        line = f"FAIL {name} ({elapsed:.2f}s, budget {budget:g}s)"
        print(line)
        conftest.acceptance_lines.append(line)
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget
    line = f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s, budget {budget:g}s)"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"{name} exceeded its {budget:g}s budget ({elapsed:.2f}s)"


def full_domain(*radicands: int) -> CoeffLattice:
    basis = RadicalBasis(radicands)
    k = len(basis)
    eye = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    return CoeffLattice(eye, basis=basis)


def test_two_incommensurable_periods_reproduction():
    with criterion("two incommensurable periods", 1.0):
        dom = full_domain(1, 2, 3)
        f = parse("sgn(sqrt(3))", dom)
        pm = period_module(f)
        one = ExactReal.rational(1)
        s2 = ExactReal.sqrt(2)
        s3 = ExactReal.sqrt(3)
        assert pm.generators_real == (one, s2, s3.scale(2))
        assert commensurable(one, s2) is None
        # both 1 and sqrt(2) really are periods, sqrt(3) is not, 2*sqrt(3) is
        assert shift_difference(f, one).is_zero()
        assert shift_difference(f, s2).is_zero()
        assert not shift_difference(f, s3).is_zero()
        assert shift_difference(f, s3.scale(2)).is_zero()


def test_cancelling_sum_reproduction():
    with criterion("cancelling sum", 1.0):
        dom = full_domain(1, 2, 3)
        f1 = parse("recip(sqrt(2)) - recip(sqrt(3))", dom)
        f2 = parse("recip(one) + recip(sqrt(3))", dom)
        h = f1 + f2
        assert h == parse("recip(one) + recip(sqrt(2))", dom)
        one = ExactReal.rational(1)
        s2 = ExactReal.sqrt(2)
        s3 = ExactReal.sqrt(3)
        assert period_module(f1).generators_real == (one,)
        assert period_module(f2).generators_real == (s2,)
        assert commensurable(one, s2) is None
        # the sqrt(3) dependence cancels in the sum, so sqrt(3) turns
        # into a period of h even though it is a period of neither part
        assert period_module(h).generators_real == (s3,)
        assert shift_difference(h, s3).is_zero()
        assert not shift_difference(f1, s3).is_zero()
        assert not shift_difference(f2, s3).is_zero()


def test_product_domains_reproduction():
    with criterion("product across domains", 1.0):
        d1 = full_domain(1, 2, 3, 5)
        d2 = full_domain(1, 2, 3, 7)
        inter = intersect(d1, d2)
        merged = inter.basis
        assert merged.radicands == (1, 2, 3, 5, 7)
        assert inter.rank == 3
        gens = [inter.to_real(row) for row in inter.hnf]
        assert gens == [
            ExactReal.rational(1),
            ExactReal.sqrt(2),
            ExactReal.sqrt(3),
        ]
        g1 = parse("abs1(one) * abs1(sqrt(3))", d1)
        g2 = parse("abs1(sqrt(2)) / abs1(sqrt(3))", d2)
        assert period_module(g1).generators_real == (
            ExactReal.sqrt(2),
            ExactReal.sqrt(5),
        )
        assert period_module(g2).generators_real == (
            ExactReal.rational(1),
            ExactReal.sqrt(7),
        )
        h = g1 * g2
        assert h.domain.rank == 3
        pm = period_module(h)
        assert pm.generators_real == (ExactReal.sqrt(3),)


def test_discrete_or_dense_classification():
    with criterion("discrete-or-dense classification", 10.0):
        assert classify_group([ExactReal.rational(1), ExactReal.sqrt(2)]) == Dense()

        rng = random.Random(9104)
        for _ in range(40):
            periods = [
                ExactReal.rational(Fraction(rng.randint(1, 60), rng.randint(1, 12)))
                for _ in range(rng.randint(1, 5))
            ]
            got = classify_group(periods)
            assert isinstance(got, Discrete)
            assert got.T0.sign() > 0
            for t in periods:
                ratio = t / got.T0
                assert ratio.is_rational()
                assert ratio.as_rational().denominator == 1

        # a common irrational factor keeps the group discrete
        s3 = ExactReal.sqrt(3)
        got = classify_group([s3.scale(Fraction(1, 2)), s3.scale(Fraction(1, 3))])
        assert got == Discrete(s3.scale(Fraction(1, 6)))

        for _ in range(100):
            mod = Fraction(rng.choice([1, 2]))
            cuts = sorted(
                {Fraction(rng.randint(1, 23), 24) * mod for _ in range(rng.randint(2, 8))}
            )
            ivs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2])]
            if not ivs:
                ivs = [(mod / 4, mod / 2)]
            p = IntervalPattern(mod, ivs)
            t0 = fundamental_period(p)
            assert is_invariant(p, t0)
            L = ExactReal.rational(mod)
            candidates = [L]
            for e1 in p.endpoints():
                for e2 in p.endpoints():
                    d = e1 - e2
                    if d.sign() > 0:
                        candidates.append(d)
            for j in range(2, len(ivs) + 1):
                candidates.append(L.scale(Fraction(1, j)))
            for d in candidates:
                if is_invariant(p, d):
                    q = d / t0
                    assert q.is_rational()
                    assert q.as_rational().denominator == 1


def test_rotation_shadow_and_discrepancy():
    with criterion("irrational rotation moves every pattern", 30.0):
        rng = random.Random(9105)
        golden = (ExactReal.sqrt(5) - ExactReal.rational(1)).scale(Fraction(1, 2))
        alphas = [ExactReal.sqrt(2) - ExactReal.rational(1), golden]
        for _ in range(50):
            cuts = sorted(
                {Fraction(rng.randint(1, 23), 24) for _ in range(rng.randint(2, 8))}
            )
            ivs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2])]
            if not ivs:
                ivs = [(Fraction(1, 4), Fraction(1, 2))]
            p = IntervalPattern(1, ivs)
            assert not p.is_empty() and not p.is_full_line()
            for alpha in alphas:
                moved = rotate(p, alpha)
                assert symdiff_measure(p, moved).sign() > 0

        for n in (100, 1000, 10000):
            bound = orbit_discrepancy(golden, n)
            assert float(bound) * n / math.log(n) <= 3.0


def test_constructive_approximation_witnesses():
    with criterion("approximation witnesses vs brute force", 60.0):
        one = ExactReal.rational(1)
        s2 = ExactReal.sqrt(2)
        s3 = ExactReal.sqrt(3)
        eps = ExactReal.rational(Fraction(1, 10_000))

        def within(err: ExactReal, tol: ExactReal) -> bool:
            return (tol - err).sign() > 0 and (tol + err).sign() > 0

        m, n = dirichlet_find(one, s2, s3, eps)
        assert (m, n) == (-228346875, 161465625)
        assert within(one.scale(m) + s2.scale(n) - s3, eps)

        # independent witness: float scan over n, smallest |n| first,
        # then exact confirmation of the hit
        s2f, s3f = math.sqrt(2), math.sqrt(3)
        oracle_pair = None
        for absn in range(1, 400_000):
            for nn in (absn, -absn):
                mm = round(s3f - nn * s2f)
                if abs(mm + nn * s2f - s3f) < 1e-4 * 0.999:
                    if within(one.scale(mm) + s2.scale(nn) - s3, eps):
                        oracle_pair = (mm, nn)
                        break
            if oracle_pair:
                break
        assert oracle_pair == (-489, 347)

        delta = ExactReal.rational(Fraction(1, 2))
        keps = ExactReal.rational(Fraction(1, 100))
        got = kronecker_find(s2, [one, s3], delta, keps)
        assert got == (3497, [4945, 2855])
        q, (p1, p2) = got
        assert within(s2.scale(q) - one.scale(p1) - delta, keps)
        assert within(s2.scale(q) - s3.scale(p2) - delta, keps)

        # independent least-q scan at 50 significant digits
        with mp.workdps(50):
            t = mp.sqrt(2)
            t3 = mp.sqrt(3)
            first = None
            for qq in range(1, 3500):
                y1 = qq * t - mp.mpf(1) / 2
                y2 = y1 / t3
                if abs(y1 - mp.nint(y1)) < mp.mpf(1) / 100 and abs(
                    (y2 - mp.nint(y2)) * t3
                ) < mp.mpf(1) / 100:
                    first = qq
                    break
        assert first == q


def test_oracle_equivalence_suites():
    with criterion("randomized oracle equivalence", 120.0):
        rng = random.Random(9107)

        # counterexample search: every result agrees with the independent
        # box scan, which re-checks the formal periods the library decides
        # without scanning (in a smaller box in dim 3) and pins the
        # enumeration order by matching each first witness
        dim3_period_cases = 0
        for _ in range(500):
            basis = random_basis(rng, rng.choice([1, 1, 2]))
            dom = full_domain(*basis.radicands)
            text = random_formula_text(rng, list(basis.radicands))
            f = parse(text, dom)
            oracle = py_formula_evaluator(text, basis.radicands)
            use_period = rng.random() < 0.3
            rows = period_module(f).as_lattice.hnf if use_period else ()
            period_case = (
                use_period and rows and (dom.dim < 3 or dim3_period_cases < 40)
            )
            if period_case:
                if dom.dim == 3:
                    dim3_period_cases += 1
                vec = rng.choice(rows)
            else:
                vec = tuple(rng.randint(-3, 3) for _ in range(dom.dim))
                if not any(vec):
                    vec = (1,) + vec[1:]
            T = dom.to_real(vec)
            formal = shift_difference(f, T).is_zero()
            assert formal or not period_case
            got = find_counterexample(f, T, bound=25)
            box = 6 if formal and dom.dim == 3 else 25
            expected = first_box_witness(oracle, dom.hnf, vec, box)
            if isinstance(got, NotFound):
                assert got == NotFound(25)
                assert expected is None
            else:
                assert not formal
                assert got == expected
                moved = tuple(a + b for a, b in zip(got, vec))
                assert evaluate(f, got) != evaluate(f, moved)

        # lattice intersection against rational elimination on a box
        for _ in range(100):
            dim = rng.choice([2, 3])
            l1 = random_lattice(rng, dim)
            l2 = random_lattice(rng, dim)
            inter = intersect(l1, l2)
            g1 = list(l1.hnf)
            g2 = list(l2.hnf)
            gi = list(inter.hnf)
            for row in gi:
                assert solve_membership(g1, row) and solve_membership(g2, row)
            bound = 6 if dim == 2 else 4
            for v in box_points(bound, dim):
                both = solve_membership(g1, v) and solve_membership(g2, v)
                ours = solve_membership(gi, v) if gi else not any(v)
                assert ours == both

        # continued fractions: the classical approximation inequality
        golden_up = (ExactReal.sqrt(5) + ExactReal.rational(1)).scale(Fraction(1, 2))
        for x in (
            ExactReal.sqrt(2),
            ExactReal.sqrt(3),
            ExactReal.sqrt(5) + ExactReal.rational(1),
            golden_up,
        ):
            cf = continued_fraction(x, 16)
            assert not cf.terminated
            for n in range(15):
                p, q = cf.convergents[n]
                q_next = cf.convergents[n + 1][1]
                err = x - ExactReal.rational(Fraction(p, q))
                tol = ExactReal.rational(Fraction(1, q * q_next))
                assert (tol - err).sign() > 0 and (tol + err).sign() > 0


def test_property_based_coverage_note():
    with criterion("general statements covered by properties", 5.0):
        # The dichotomy, rotation, and reconstruction statements are
        # universally quantified; this suite pins named instances
        # exactly and samples the rest (see the tests above).  The
        # written-down version of that scope decision must stay in the
        # docs so the limitation remains visible.
        note = Path(__file__).resolve().parents[1] / "docs" / "method-notes.md"
        text = note.read_text()
        assert "property" in text and "oracle" in text
        for marker in (
            "discrete-or-dense",
            "non-invariance",
            "period modules",
        ):
            assert marker in text, marker
