"""Constructive Diophantine approximation over exact reals.

Continued fractions come from `exactreal.quotients`, the one Euclid on
enclosures: every quotient both ends of an enclosure of x/y share is a
quotient of x/y.  No field element is inverted.  On top of them sit
two witness finders: `dirichlet_find` produces integers m, n with
m*T1 + n*T2 within eps of a target (density of T1*Z + T2*Z for an
irrational ratio), and `kronecker_find` produces a simultaneous
approximation q*T - p_i*T_i close to a prescribed displacement.  Its
candidates q are the first hits of an integer rotation, found by a
Euclid-style recursion instead of a scan over q.  Both decide from
rigorous integer enclosures taken once, never floats, and take exact
sign tests only where the enclosures cannot decide: `dirichlet_find`
bounds each residual q*T2 - p*T1 from the enclosures of T1, T2 and
eps.  Both verify their witnesses by exact comparisons before
returning.  Neither has an iteration or precision cap: every
refinement loop ends because enclosure widths halve per bit while the
quantity they must separate is a fixed distance away, or, for a
residual equal to eps, because the exact test takes over once the
bound is narrow.  A convergent, witness integer or discrepancy bound
with more than MAX_DIGITS decimal digits raises SizeLimit.

`orbit_discrepancy` measures how evenly the rotation orbit {i*alpha}
fills the unit interval, returning a rigorous rational upper bound on
the star discrepancy.  It takes the points in increasing order by the
three-distance theorem, with steps read off the continued fraction of
alpha, so nothing is sorted.  Each step is one of three, so once three
O(1) checks show that no enclosure lies near 0, 1 or another, the
integer enclosure of the next point and both maximized quantities move
by one of three constants; prec doubles until the checks hold.  That
walk is a rotation of Z/(a+b) with a hole, so the maxima are one
max-plus product taken by Rauzy induction in O(log N) steps, with no
exact floor or sign test and no walk over the points.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction

from .errors import CommensurableInput, DivisionByZero, EmptyInput, FrozenRecord, NotFound
from .exactreal import INITIAL_PRECISION, ExactReal, _check_digits, commensurable, quotients

_ONE = ExactReal.rational(1)


class ContinuedFraction(FrozenRecord):
    """Quotients and convergents of x, exact.

    `terminated` marks rational termination: some remainder was an
    integer, so the expansion is complete and shorter than requested.
    """

    __slots__ = _fields = ("x", "quotients", "convergents", "terminated")


def _convergents(x: ExactReal, y: ExactReal = _ONE) -> Iterator[tuple[int, int, int]]:
    """Yield (a_n, p_n, q_n) for n = 0, 1, ... from `quotients(x, y)`.

    Ends after p_n/q_n == x/y, which happens only for a rational x/y;
    for an irrational one the stream never ends.
    """
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    for a in quotients(x, y):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield a, p, q


def continued_fraction(x: ExactReal, depth: int) -> ContinuedFraction:
    """First `depth` quotients of x, each certain (see `quotients`).

    Raises SizeLimit at the first convergent whose numerator or
    denominator has more than MAX_DIGITS digits.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    steps = []
    for n, (a, p, q) in zip(range(1, depth + 1), _convergents(x)):
        _check_digits("convergent", p, q, at=n)
        steps.append((a, p, q))
    convergents = tuple((p, q) for _, p, q in steps)
    return ContinuedFraction(
        x=x,
        quotients=tuple(a for a, _, _ in steps),
        convergents=convergents,
        # the stream ends exactly when a convergent equals x
        terminated=x.is_rational() and x.as_rational() == Fraction(*convergents[-1]),
    )


def dirichlet_find(
    T1: ExactReal,
    T2: ExactReal,
    target: ExactReal,
    eps: ExactReal,
) -> tuple[int, int]:
    """Integers (m, n) with |m*T1 + n*T2 - target| < eps, exactly verified.

    The convergents p/q of the irrational theta = T2/T1 give
    u = q*T2 - p*T1 = T1*(q*theta - p) with |u| < |T1|/q_next, where
    the denominators grow at least like the Fibonacci numbers, so the
    walk reaches |u| < eps after finitely many steps.  At the first
    such convergent, k = round(target/u) = (2*target + u) // (2*u)
    copies of u land within |u|/2 of target, so m = -k*p, n = k*q is a
    witness.  Nothing divides: theta's quotients and the rounding are
    both read by `quotients`.

    Each |u| < eps is decided on integers: T1, T2 and eps are enclosed
    once at a shared 2^prec, and u*2^prec lies between q*t2_lo and
    q*t2_hi less the extreme ends of p*[t1_lo, t1_hi].  A bound clear
    of eps's enclosure decides.  One that straddles it doubles prec for
    this and every later convergent while it is at least a quarter of
    eps wide; a narrower one compares -eps < u < eps exactly, so
    |u| == eps is decided too.  u is built as an ExactReal only for
    that comparison and at the witness, which is re-checked the same
    way; a failed re-check is an internal error, not a reason to
    search.  A witness coefficient of more than MAX_DIGITS digits raises
    SizeLimit, and a zero T1 or T2 raises DivisionByZero naming it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for name, t in (("T1", T1), ("T2", T2)):
        if t.is_zero():
            raise DivisionByZero(f"zero generator {name}")
    if commensurable(T1, T2) is not None:
        raise CommensurableInput(
            "T1 and T2 are commensurable; T1*Z + T2*Z is discrete, not dense"
        )
    prec = INITIAL_PRECISION
    (t1_lo, t1_hi), (t2_lo, t2_hi), (e_lo, e_hi) = (
        x._enclosure_scaled(prec) for x in (T1, T2, eps)
    )
    # T2/T1 is irrational, so the convergents never run out
    for _, p, q in _convergents(T2, T1):
        while True:
            # q > 0, and p has either sign
            lo = q * t2_lo - max(p * t1_lo, p * t1_hi)
            hi = q * t2_hi - min(p * t1_lo, p * t1_hi)
            # |u|*2^prec lies in [abs_lo, abs_hi]
            abs_lo, abs_hi = max(lo, -hi, 0), max(hi, -lo)
            if abs_lo >= e_hi:  # |u| >= eps
                break
            if abs_hi < e_lo or 4 * (abs_hi - abs_lo + e_hi - e_lo) < e_lo:
                u = T2.scale(q) - T1.scale(p)
                if abs_hi < e_lo or -eps < u < eps:
                    k = (target.scale(2) + u) // u.scale(2)
                    m, n = -k * p, k * q
                    _check_digits("witness coefficient", m, n)
                    if not -eps < T1.scale(m) + T2.scale(n) - target < eps:
                        raise AssertionError(f"witness ({m}, {n}) failed its exact re-check")
                    return m, n
                break
            prec *= 2
            (t1_lo, t1_hi), (t2_lo, t2_hi), (e_lo, e_hi) = (
                x._enclosure_scaled(prec) for x in (T1, T2, eps)
            )


def _first_hit(A: int, B: int, M: int, W: int) -> int | None:
    """Least x >= 0 with (A*x + B) mod M <= W, or None if there is none.

    Euclid on (A mod M, M), in O(log M) steps.  Replacing (A, B) by
    (M - A, W - B) maps the residue v to W - v mod M and keeps [0, W],
    so A <= M/2 may be assumed.  A hit after y >= 1 wraps needs a
    multiple of A in [M*y - B, M*y - B + W]: y = 1 when W >= A, else
    the least y - 1 >= 0 with ((-M)*(y-1) + B - M) mod A <= W, the
    same problem on modulus A.  Then x = ceil((M*y - B)/A), which grows
    with y, so the least y gives the least x.
    """
    levels = []
    while True:
        A, B = A % M, B % M
        if B <= W:
            x = 0
            break
        if 2 * A > M:
            A, B = M - A, (W - B) % M
        if A == 0:
            return None
        levels.append((A, B, M))
        if W >= A:
            x = 0
            break
        A, B, M = -M % A, (B - M) % A, A
    for A, B, M in reversed(levels):
        x = -((B - M * (x + 1)) // A)
    return x


def kronecker_find(
    T: ExactReal,
    Ts: Sequence[ExactReal],
    delta: ExactReal,
    eps: ExactReal,
    bound: int = 10**6,
) -> tuple[int, list[int]] | NotFound:
    """Least q in 1..bound with |q*T - p_i*T_i - delta| < eps for all i.

    Each p_i is the nearest integer to (q*T - delta)/T_i, taken as the
    exact floor (2*(q*T - delta) + T_i) // (2*T_i) with no inversion
    of T_i.  Candidates come from the tightest constraint, the largest
    |T_i|, on integer enclosures scaled by 2^prec: with M the low end
    of |T_i|*2^prec and Y(q) = q*t_lo - d_hi, a witness puts Y(q)
    within e_hi + slack of a multiple of M, where the slack
    bound*(t_hi-t_lo) + (d_hi-d_lo) + p_max*(m_hi-m_lo) covers every
    enclosure width for q <= bound.  So every true witness is a first hit of (t_lo*x + B) mod M <= W
    (`_first_hit`, no scan over q).  A candidate is dropped when, for
    some T_i, no integer p at all puts p*|T_i| in the enclosure of
    [q*T - delta - eps, q*T - delta + eps]; every other one is decided
    with exact field arithmetic for all T_i.  After a rejected one the
    search resumes at q + 1, so no witness is skipped.  prec starts at
    INITIAL_PRECISION and doubles until every T_i has a certain sign and
    the slack is at most e_hi.  When the window covers a whole period
    of M every q is a candidate, and the search steps q one at a time.
    A witness p_i of more than MAX_DIGITS digits raises SizeLimit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not Ts:
        raise EmptyInput("kronecker_find needs at least one T_i")
    if T.is_zero():
        raise DivisionByZero("zero step T")
    for t in Ts:
        if t.is_zero():
            raise DivisionByZero("zero T_i")
    prec = INITIAL_PRECISION
    while True:
        ts_iv = [t._enclosure_scaled(prec) for t in Ts]
        if all(lo > 0 or hi < 0 for lo, hi in ts_iv):
            m_lo, m_hi = max((lo, hi) if lo > 0 else (-hi, -lo) for lo, hi in ts_iv)
            t_lo, t_hi = T._enclosure_scaled(prec)
            d_lo, d_hi = delta._enclosure_scaled(prec)
            e_hi = eps._enclosure_scaled(prec)[1]
            # |p| <= (q*|T| + |delta| + eps)/|T_i| for any witness p
            p_max = (bound * max(-t_lo, t_hi) + max(-d_lo, d_hi) + e_hi) // m_lo + 1
            slack = bound * (t_hi - t_lo) + (d_hi - d_lo) + p_max * (m_hi - m_lo)
            if slack <= e_hi:
                break
        prec *= 2
    M = m_lo
    W = 2 * (e_hi + slack)
    # Y(q) + e_hi + slack - p*M lies in [0, W] for a witness (q, p)
    shift = e_hi + slack - d_hi
    ts_iv = [(lo, hi) if lo > 0 else (-hi, -lo) for lo, hi in ts_iv]

    def may_hit(q: int) -> bool:
        # a witness p has p*|T_i| in [a, b], scaled by 2^prec; False
        # when for some T_i no integer p can
        a = q * t_lo - d_hi - e_hi
        b = q * t_hi - d_lo + e_hi
        return all(
            max(b // lo, b // hi) >= min(-(-a // lo), -(-a // hi)) for lo, hi in ts_iv
        )

    def exact_witness(q: int) -> list[int] | None:
        qt = T.scale(q)
        ps = []
        for t in Ts:
            p = ((qt - delta).scale(2) + t) // t.scale(2)
            u = qt - t.scale(p) - delta
            if not -eps < u < eps:
                return None
            ps.append(p)
        return ps

    q = 1
    while q <= bound:
        x = _first_hit(t_lo, q * t_lo + shift, M, W)
        if x is None or q + x > bound:
            break
        q += x
        if may_hit(q) and (ps := exact_witness(q)) is not None:
            _check_digits("witness coefficient", *ps)
            return q, ps
        q += 1
    return NotFound(bound)


def _walk_steps(alpha: ExactReal, N: int) -> tuple[int, int]:
    """Indices (a, b) in 1..N-1 of the least and the greatest {n*alpha}.

    For N >= 2 and an irrational alpha in (0, 1).  The one-sided best
    approximations of alpha have denominators q_{n-2} + t*q_{n-1},
    t = 0..a_n (q_{-2} = 1, q_{-1} = 0), and lie above alpha for an
    odd n and below it for an even one, so {c*alpha} is then near 1 or
    near 0.  On each side they increase, and each one's {c*alpha} is
    nearer its end than that of any smaller index: the largest one
    below N is the extreme index on its side.
    """
    side = [0, 0]
    q2, q1 = 1, 0
    for n, (a_n, _, q) in enumerate(_convergents(alpha)):
        t = a_n if q1 == 0 else min(a_n, (N - 1 - q2) // q1)
        side[n % 2] = q2 + t * q1
        q2, q1 = q1, q
        # every later candidate is q_{n-1}, already seen, or >= q_n
        if q1 >= N:
            return side[0], side[1]


def orbit_discrepancy(alpha: ExactReal, N: int) -> Fraction:
    """Rigorous rational upper bound on the star discrepancy of
    {i*alpha mod 1 : i = 0..N-1}.

    Rational alpha = c/d is computed exactly over the common
    denominator N*d.  With N = q*d + s, the residue i*c mod d occurs
    q + 1 times for i < s and q times for the other i < d, and a run of
    m equal points from the j-th gives the larger of (j+m)*d - N*r and
    N*r - j*d.  The residues are taken in order, all d of them when
    q > 0 and the N sorted ones otherwise: O(min(N, d)).

    For an irrational alpha the points are taken in increasing order
    with no sort.  By the three-distance theorem (Sos 1958) the
    neighbour above {i*alpha} is {(i+a)*alpha} when i + a < N, else
    {(i-b)*alpha} when i >= b, else {(i+a-b)*alpha}, where a and b
    index the least and the greatest point (`_walk_steps`).  Each point
    gets an integer enclosure at prec bits: with [a_lo, a_hi] the
    enclosure of alpha*2^prec and width = a_hi - a_lo, {i*alpha}*2^prec
    lies in [r, r + i*width], r = i*a_lo mod 2^prec.  The discrepancy
    formula is maximized over the enclosure endpoints, so the result
    can only overestimate.

    With r_x = x*a_lo mod 2^prec, the checks N*width < r_a,
    r_a + a*width < r_b (unless a == b, at N = 2) and
    r_b + (b + N)*width < 2^prec put the least point's enclosure far
    from 0, the greatest one's far from 1, and keep any two enclosures
    apart.  prec starts at 2*log2(N) + 64 and doubles until they hold.
    That ends: {a*alpha} > 0, 1 - {b*alpha} > 0 and their difference
    are fixed distances, while N*width/2^prec halves per bit.  Then
    every step of the walk moves both maximized quantities by the
    constant of its kind, and the walk is the rotation x -> x + a of
    Z/(a+b) restricted to 0..N-1: a step of i by a - b is a step by a
    into the hole N..a+b-1 and one by -b out of it.  The rotation's
    three arcs [0, N-a), [N-a, b) and [b, a+b) are three elements
    (changes of the two quantities, their greatest sampled prefix sums)
    of a max-plus monoid, and the maxima are their product along one
    period from 0, taken by Rauzy induction in O(log N) steps
    (`_period_word`).

    A bound whose numerator or denominator has more than MAX_DIGITS
    digits raises SizeLimit.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if alpha.is_rational():
        c, d = alpha.as_rational().as_integer_ratio()
        q, s = divmod(N, d)
        if q:
            counts = [q] * d  # the multiplicity of each residue
            for i in range(s):
                counts[i * c % d] += 1
            runs = enumerate(counts)
        else:
            runs = ((r, 1) for r in sorted(i * c % d for i in range(N)))
        best = j = 0  # over N*d
        for r, m in runs:
            best = max(best, (j + m) * d - N * r, N * r - j * d)
            j += m
        bound = Fraction(best, N * d)
        _check_digits("discrepancy bound", *bound.as_integer_ratio())
        return bound
    if N == 1:
        return Fraction(1)  # the one point 0
    a, b = _walk_steps(alpha, N)
    prec = 2 * N.bit_length() + 64
    while True:
        unit = 1 << prec
        a_lo, a_hi = alpha._enclosure_scaled(prec)
        width = a_hi - a_lo
        r_a, r_b = a * a_lo % unit, b * a_lo % unit
        if N * width < r_a and (a == b or r_a + a * width < r_b) and r_b + (b + N) * width < unit:
            break
        prec *= 2
    g_a, g_b = r_a, unit - r_b
    step_a = (unit - N * g_a, N * (g_a + a * width) - unit)
    step_b = (unit - N * g_b, N * (g_b - b * width) - unit)
    # the arcs [0, N-a), [N-a, b), [b, a+b) of Z/(a+b) and the
    # elements (dlo, dhi, mlo, mhi) of their steps; a step into the
    # hole reaches no point, so j does not advance and nothing is
    # sampled
    lengths = [N - a, a + b - N, a]
    words = [step_a + step_a, (step_a[0] - unit, step_a[1] + unit, None, None), step_b + step_b]
    # the maxima of (j+1)*unit - N*f_lo and N*f_hi - j*unit, which are
    # unit and 0 at the point 0; the period's last step, from b back to
    # 0, samples those start values again
    _, _, m_lo, m_hi = _period_word(lengths, words)
    bound = Fraction(max(unit + m_lo, m_hi), N * unit)
    _check_digits("discrepancy bound", *bound.as_integer_ratio())
    return bound


def _mul(x: tuple, y: tuple) -> tuple:
    """x then y in the max-plus monoid of (dlo, dhi, mlo, mhi): the
    sums d add, and m is the greatest sampled prefix sum (None: none)."""
    out = [x[0] + y[0], x[1] + y[1]]
    for m1, d1, m2 in ((x[2], x[0], y[2]), (x[3], x[1], y[3])):
        out.append(m1 if m2 is None else d1 + m2 if m1 is None else max(m1, d1 + m2))
    return tuple(out)


def _pow(x: tuple, k: int) -> tuple:
    """x repeated k >= 1 times: the greatest prefix sum is that of the
    first copy or of the last, as the sums d grow or shrink."""
    d_lo, d_hi, m_lo, m_hi = x
    return (
        k * d_lo,
        k * d_hi,
        None if m_lo is None else m_lo + max(0, (k - 1) * d_lo),
        None if m_hi is None else m_hi + max(0, (k - 1) * d_hi),
    )


def _period_word(lengths: list[int], words: list[tuple]) -> tuple:
    """The product of `words` along one period of the orbit of 0 under
    an interval exchange of the integers 0..sum(lengths)-1.

    The exchange has top order 0, 1, 2 (the intervals by position) and
    bottom order 2, 0, 1 (their images); a zero length is no interval.
    Discrete right Rauzy induction replaces it by its first-return map
    on a shorter initial interval, until the one point 0 is left, whose
    return word is the period.  One rule serves both rows: of the last
    interval of the top and that of the bottom, the longer one wins and
    loses the other's length, and the loser moves next to the winner in
    its own row, its word taking the winner's appended when the top
    wins and prepended when the bottom wins.  A winner beats every
    letter after it in the loser's row in turn, so k such cycles are
    taken at once (Zorich).  On a tie the top one is dropped: the
    bottom one's word takes its word appended, and the bottom one its
    place in the bottom order.
    """
    top = [x for x in (0, 1, 2) if lengths[x]]
    bot = [x for x in (2, 0, 1) if lengths[x]]
    lengths, words = list(lengths), list(words)
    while len(top) > 1:
        t, u = top[-1], bot[-1]
        if t == u:
            raise AssertionError(f"the exchange of {lengths} fixes an interval")
        if lengths[t] == lengths[u]:
            words[u] = _mul(words[u], words[t])
            top.pop()
            bot.pop()
            bot[bot.index(t)] = u
            continue
        # the loser's row, the winner, and how a word takes the winner's
        if lengths[t] > lengths[u]:
            row, w, join = bot, t, _mul
        else:
            row, w, join = top, u, lambda x, y: _mul(y, x)
        after = row[row.index(w) + 1 :]
        cycle = sum(lengths[x] for x in after)
        k = (lengths[w] - 1) // cycle
        if k:
            wk = _pow(words[w], k)
            for x in after:
                words[x] = join(words[x], wk)
            lengths[w] -= k * cycle
            continue
        v = row.pop()
        words[v] = join(words[v], words[w])
        lengths[w] -= lengths[v]
        row.insert(row.index(w) + 1, v)
    if len(top) != 1 or lengths[top[0]] != 1:
        raise AssertionError(f"the exchange of {lengths} is not one cycle")
    return words[top[0]]
