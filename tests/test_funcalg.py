"""Formula algebra: parsing, canonical forms, period modules, counterexamples.

The evaluation oracle re-reads each formula with Python's own parser
(after a mechanical token swap), so the expected values never pass
through the library's grammar or canonicalization.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest

from periodalg import funcalg
from periodalg.errors import (
    DivisionByZero,
    NonIntegralShift,
    NonMonomialDivisor,
    NotFound,
    NotInDomain,
    ParseError,
    ShiftNotInDomain,
    SizeLimit,
    UnknownRadicand,
)
from periodalg.exactreal import MAX_DIGITS, ExactReal, RadicalBasis
from periodalg.funcalg import (
    composition_check,
    evaluate,
    find_counterexample,
    parse,
    parse_real,
    period_module,
    shift,
    shift_difference,
)
from periodalg.lattice import CoeffLattice, member

from oracles import (
    basis_of_dim,
    first_box_witness,
    fraction_form_text,
    is_constant,
    pairwise_product,
    py_formula_evaluator,
    random_basis,
    random_coefficient,
    random_formula_text,
    random_lattice,
    random_real_text,
    repeated_product_power,
)


def full_domain(*radicands: int) -> CoeffLattice:
    basis = RadicalBasis(radicands)
    k = len(basis)
    eye = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    return CoeffLattice(eye, basis=basis)


def test_power_coefficient_limit_is_exact():
    # 2^14284 and 3^9012 have 4300 digits, 2^14285 and 3^9013 4301: the
    # first pair is refused by its bit length before it is built, the
    # second by the digit count
    dom = full_domain(1)
    for c, n in ((2, 14284), (3, 9012), (Fraction(1, 3), 9012), (3, -9012)):
        f = parse(f"{c}*abs1(one)", dom) ** n
        (coef,) = f.terms.values()
        assert coef == Fraction(c) ** n
    for c, n in ((2, 14285), (3, 9013), (Fraction(1, 3), 9013), (3, -9013), (3, 10**30)):
        with pytest.raises(SizeLimit, match=f"^power's coefficient exceeds the limit of {MAX_DIGITS} digits$"):
            parse(f"({c})*abs1(one)", dom) ** n


# sums whose monomials merge: sgn exponents live mod 2, a sgn shift
# folds into the sign, and abs1(one) with abs1(one)^2 or recip(one)
# reach one monomial from several exponent tuples
SUM_ATOMS = [
    "sgn(one)", "sgn(sqrt(2))", "sgn(one+1)", "abs1(one)", "abs1(one)^2",
    "recip(one)", "abs1(sqrt(2)-1)", "abs1(one)*sgn(sqrt(2))",
]
SUM_COEFFICIENTS = ["1", "-1", "2", "-3", "1/2", "-2/3", "5/4"]


def random_sum(rng, dom, least: int = 2):
    terms = []
    for _ in range(rng.randint(least, 4)):
        parts = [f"({rng.choice(SUM_COEFFICIENTS)})"] + rng.sample(SUM_ATOMS, rng.randint(0, 2))
        terms.append("*".join(parts))
    return parse(" + ".join(terms), dom)


def test_power_of_a_sum_matches_repeated_products():
    # the multinomial expansion against n pairwise products
    rng = random.Random(2601)
    dom = full_domain(1, 2)
    merged = 0
    for _ in range(150):
        f = random_sum(rng, dom)
        for n in range(7):
            got = f**n
            assert got == repeated_product_power(f, n), (f, n)
            t = len(f.terms)
            merged += t > 1 and len(got.terms) < math.comb(n + t - 1, t - 1)
    assert merged > 100


def test_products_match_pairwise_products():
    # `*`, `/` and `^` share one expansion: f*g, f^a * g^b and f/m
    # against term-by-term products, on sums and single terms alike
    rng = random.Random(2701)
    dom = full_domain(1, 2)
    for _ in range(150):
        f, g = random_sum(rng, dom, least=1), random_sum(rng, dom, least=1)
        assert f * g == pairwise_product(f, g), (f, g)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        want = pairwise_product(repeated_product_power(f, a), repeated_product_power(g, b))
        assert f**a * g**b == want, (f, a, g, b)
        m = parse(f"({rng.choice(SUM_COEFFICIENTS)})*{rng.choice(SUM_ATOMS)}", dom)
        assert pairwise_product(f / m, m) == f, (f, m)
    # the product of two 251-term sums: 63,001 exponent tuples, within
    # MAX_TERMS, merging into 501 monomials
    s = parse("(abs1(one)+1)^250", dom)
    f = parse("(abs1(one)+1)^250 * (abs1(one)+1)^250", dom)
    assert f == pairwise_product(s, s) == parse("(abs1(one)+1)^500", dom)
    # exponents are summed exactly, so opposite ones cancel
    N = "9" * MAX_DIGITS
    assert parse(f"abs1(one)^{N} * recip(one)^{N}", dom) == parse("1", dom)


def test_products_are_sized_before_any_expansion(monkeypatch):
    # x*x fails as x^2 does; the product of two sums fails on its
    # 501 * 501 exponent tuples before any factor is expanded
    dom = full_domain(1)
    x = parse(f"({'9' * MAX_DIGITS})*abs1(one)", dom)
    coefficient = f"power's coefficient exceeds the limit of {MAX_DIGITS} digits"
    for build in (lambda: x * x, lambda: x**2, lambda: x / x ** -1):
        with pytest.raises(SizeLimit, match=f"^{re.escape(coefficient)}$"):
            build()
    bound = f"power's coefficient bound ||c||_1^n exceeds the limit of {MAX_DIGITS} digits"
    with pytest.raises(SizeLimit, match=f"^{re.escape(bound)}$"):
        x * parse("abs1(one) + 1", dom)
    # the factors' bounds multiply: y*y is 3^9012 (4300 digits) and
    # y*(3*y) is 3^9013 (4301); the bit rule passes both, so the
    # product of the bounds decides
    y = parse(f"{3**4506}*abs1(one)", dom)
    assert (y * y).terms == {(("abs1", 1, 0, 2),): 3**9012}
    with pytest.raises(SizeLimit, match=f"^{re.escape(coefficient)}$"):
        y * (y * parse("3", dom))
    # one monomial's coefficient is sized in lowest terms, so factors of
    # 4300-digit parts that cancel make a small one
    a, b = 10**4299 + 1, 10**4299 + 3
    z = parse(f"({a}/{b})*abs1(one)", dom) * parse(f"({b}/{a})*abs1(one)", dom)
    assert z == parse("abs1(one)^2", dom)
    s = parse("(abs1(one)+1)^500", dom)

    def no_expansion(*args):
        raise AssertionError("sizes are decided before any expansion")

    monkeypatch.setattr(funcalg, "_multinomial", no_expansion)
    count = f"power's monomial count C(n+t-1, t-1) exceeds the limit of {funcalg.MAX_TERMS}"
    with pytest.raises(SizeLimit, match=f"^{re.escape(count)}$"):
        s * s


def test_power_of_a_sum_is_sized_before_any_product():
    # C(n+t-1, t-1) exponent tuples and ||p||_1^n over q^n bound the
    # output; 3^9012 has 4300 digits and 3^9013 4301, and
    # (x + y + 1)^361 has C(363, 2) = 65,703 tuples
    dom = full_domain(1, 2)
    f = parse("abs1(one) + 2", dom) ** 9012
    assert len(f.terms) == 9013 and sum(f.terms.values()) == 3**9012
    assert parse("abs1(one)/3 - 2/3", dom) ** 2 == parse("abs1(one)^2/9 - 4*abs1(one)/9 + 4/9", dom)
    for text, n, message in (
        ("abs1(one) + 2", 9013, f"power's coefficient bound ||c||_1^n exceeds the limit of {MAX_DIGITS} digits"),
        ("abs1(one)/3 + 2/3", 9013, f"power's coefficient bound ||c||_1^n exceeds the limit of {MAX_DIGITS} digits"),
        ("abs1(one) + abs1(sqrt(2)) + 1", 361, f"power's monomial count C(n+t-1, t-1) exceeds the limit of {funcalg.MAX_TERMS}"),
        ("abs1(one) + 1", 10**30, f"power's monomial count C(n+t-1, t-1) exceeds the limit of {funcalg.MAX_TERMS}"),
        (f"abs1(one)^{10**4299} + 1", 10, f"power's exponent exceeds the limit of {MAX_DIGITS} digits"),
    ):
        with pytest.raises(SizeLimit, match=f"^{re.escape(message)}$"):
            parse(text, dom) ** n


def test_power_of_a_sgn_sum_is_sized_by_its_monomials():
    # a sum of sgn atoms alone has at most 2^s monomials for s atoms,
    # however many exponent tuples its power has: 176,851 tuples of the
    # 100th power below merge into 8 monomials
    dom = full_domain(1, 2, 3, 5)
    base = parse("sgn(one)+sgn(sqrt(2))+sgn(sqrt(3))+1", dom)
    f = parse("(sgn(one)+sgn(sqrt(2))+sgn(sqrt(3))+1)^100", dom)
    assert len(f.terms) == 8 and f == repeated_product_power(base, 100)
    g = parse("1/2 - 3*sgn(sqrt(5))*sgn(one) + sgn(sqrt(2))", dom)
    assert g**40 * base == pairwise_product(repeated_product_power(g, 40), base)
    assert parse("(sgn(one) - 1)^50", dom) == parse("2^49 - 2^49*sgn(one)", dom)
    # the count is 2^s, so a huge exponent fails on its coefficients
    bound = f"power's coefficient bound ||c||_1^n exceeds the limit of {MAX_DIGITS} digits"
    with pytest.raises(SizeLimit, match=f"^{re.escape(bound)}$"):
        parse("sgn(one) + 1", dom) ** 10**30
    # the error names what was counted: a power of 18 sgn atoms counts
    # 2^18 = 262,144 monomials; the product of two expanded powers of 9
    # atoms each counts its 512 * 512 tuples at n = 1
    radicands = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29)
    dom = full_domain(*radicands)
    first, second = ("1+" + "+".join(f"sgn(sqrt({d}))" for d in half) for half in (radicands[:9], radicands[9:]))
    assert len(parse(f"({first})^20", dom).terms) == 512
    for text, counted in (
        (f"(({first})*({second}))^20", "2^s"),
        (f"({first})^20 * ({second})^20", "C(n+t-1, t-1)"),
    ):
        message = f"power's monomial count {counted} exceeds the limit of {funcalg.MAX_TERMS}"
        with pytest.raises(SizeLimit, match=f"^{re.escape(message)}$"):
            parse(text, dom)


def test_parse_canonical_cancellation():
    dom = full_domain(1, 2, 3)
    f = parse("recip(sqrt(2)) + recip(sqrt(3)) - recip(sqrt(3))", dom)
    assert f == parse("recip(sqrt(2))", dom)
    assert len(f.terms) == 1


def test_parse_sgn_squares_to_one():
    dom = full_domain(1, 2)
    assert is_constant(parse("sgn(sqrt(2))^2", dom))
    assert parse("sgn(sqrt(2))^2", dom) == parse("1", dom)
    assert parse("sgn(sqrt(2))^3", dom) == parse("sgn(sqrt(2))", dom)


def test_parse_sgn_shift_folds_into_sign():
    dom = full_domain(1, 2)
    assert parse("sgn(sqrt(2)+1)", dom) == parse("-sgn(sqrt(2))", dom)
    assert parse("sgn(sqrt(2)+2)", dom) == parse("sgn(sqrt(2))", dom)
    assert parse("sgn(sqrt(2)-3)", dom) == parse("-sgn(sqrt(2))", dom)


def test_parse_distinct_shifts_stay_distinct():
    dom = full_domain(1, 2)
    f = parse("abs1(sqrt(2)) + abs1(sqrt(2)+1)", dom)
    assert len(f.terms) == 2


def test_power_of_one_term_is_one_step():
    # the power is one monomial, so its cost must not grow with n
    dom = full_domain(1, 2)
    f = parse("abs1(one)^1000000000000*sgn(sqrt(2))^1000000001", dom)
    assert f.text() == "abs1(one)^1000000000000*sgn(sqrt(2))"
    assert parse("sgn(one)^-1", dom) == parse("sgn(one)", dom)
    assert parse("recip(one-2)^3", dom).text() == "abs1(one-2)^-3"
    assert parse("(2*recip(one))^-2", dom).text() == "1/4*abs1(one)^2"


def test_parse_errors():
    dom = full_domain(1, 2)
    with pytest.raises(ParseError) as err:
        parse("abs1(sqrt(2)) + $", dom)
    assert err.value.pos == 16
    with pytest.raises(UnknownRadicand) as err:
        parse("abs1(sqrt(5))", dom)
    assert err.value.pos == 4
    # a bad radicand yields to any later syntax error, and comes before
    # a later value that fails to combine
    with pytest.raises(ParseError) as err:
        parse("abs1(sqrt(5)) + )", dom)
    assert err.value.pos == 16
    with pytest.raises(UnknownRadicand) as err:
        parse("abs1(sqrt(5)) / (abs1(one) + abs1(sqrt(2)))", dom)
    assert err.value.pos == 4
    with pytest.raises(NonMonomialDivisor):
        parse("1 / (abs1(one) + abs1(sqrt(2)))", dom)
    with pytest.raises(DivisionByZero):
        parse("abs1(one) / (abs1(sqrt(2)) - abs1(sqrt(2)))", dom)
    # nothing is computed after a failed value, so the outer '/' never
    # divides by the inner one's placeholder
    with pytest.raises(DivisionByZero) as err:
        parse_real("1/(0/0)")
    assert err.value.pos == 4
    # a value that fails yields to any later syntax error
    for text, pos in (
        ("1 + $", 4), ("2 + sqrt(0)", 4), ("1 + 2 3", 6),
        ("1 + 2/0*", 8), ("1/0 +", 5), ("(1/0", 4),
        ("sqrt(100000000000000000000) + )", 30), ("sqrt(0) + )", 10),
    ):
        with pytest.raises(ParseError) as err:
            parse_real(text)
        assert err.value.pos == pos
    # a position is a token's index while parsing and its offset in the
    # text once the error leaves the parser: comments, blanks and the end
    # of the text are counted as text
    for text, pos, message in (
        ("1 + # note $\n$", 13, "unexpected character '$'"),  # after a comment
        ("1 +   $", 6, "unexpected character '$'"),
        ("1 + $   ", 4, "unexpected character '$'"),  # before trailing blanks
        ("1 +\t\n $ \n ", 6, "unexpected character '$'"),
        ("(1+2)$", 5, "unexpected character '$'"),  # the last character
        ('1 + "', 4, "unterminated string"),  # at the end of the text
        ('1 + "ab', 4, "unterminated string"),
        ("1 +   ", 6, "expected a number or sqrt(...)"),  # the end token
        ("1 + # note", 10, "expected a number or sqrt(...)"),
        ("1 2  # note", 2, "unexpected trailing input"),
        # names and numerals are ASCII, as docs/scenario-format.md says
        ("1/\u0663", 2, "unexpected character '\u0663'"),
        ("2*sqrt(\u0662)", 7, "unexpected character '\u0662'"),
        ("\u00b2", 0, "unexpected character '\u00b2'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_real(text)
        assert (err.value.pos, err.value.message) == (pos, message), text
        assert str(err.value) == f"{message} (at position {pos})"
    with pytest.raises(ParseError) as err:
        parse("abs1(one) # c\n * \u00e9", dom)
    assert (err.value.pos, err.value.message) == (17, "unexpected character '\u00e9'")
    # a kept value error is placed the same way
    with pytest.raises(DivisionByZero) as err:
        parse_real("  1/0")
    assert err.value.pos == 3
    with pytest.raises(UnknownRadicand) as err:
        parse("# c\n  abs1(sqrt(5))", dom)
    assert err.value.pos == 10
    # Python >= 3.11 refuses int() of more digits than its integer string
    # limit (0: no limit); such a numeral is a syntax error, not a crash
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        assert parse_real("1" + "0" * (limit - 1)) == ExactReal.rational(10 ** (limit - 1))
        for text in ("2 + 1" + "0" * limit, "2 + 1" + "0" * 5000):
            with pytest.raises(ParseError) as err:
                parse_real(text)
            assert err.value.pos == 4
            assert f"{len(text) - 4} digits exceeds" in err.value.message
            assert f"limit ({limit} digits)" in err.value.message
        with pytest.raises(ParseError) as err:
            parse("abs1(one) * 1" + "0" * limit, dom)
        assert err.value.pos == 12
        with pytest.raises(ParseError) as err:
            parse_real("2 + # 1/0\n1" + "0" * limit)
        assert err.value.pos == 10
        assert f"limit ({limit} digits)" in err.value.message


def test_real_reader_matches_exact_operations():
    # the reader keeps rationals as ints and Fractions until a sqrt; its
    # value, and the order of its coordinates, which decides the error a
    # shift with two faults reports, are those of ExactReal operations
    rng = random.Random(3410)
    zeros = 0
    for _ in range(300):
        text, want = random_real_text(rng)
        got = parse_real(text)
        assert got == want, text
        assert list(got.coords.items()) == list(want.coords.items()), text
        zeros += want.is_zero()
    assert zeros >= 10
    for text, want in (
        ("-(-(+3))", ExactReal.rational(3)),
        ("6/4", ExactReal.rational(Fraction(3, 2))),
        ("(1/2)*sqrt(3)", ExactReal.sqrt(3).scale(Fraction(1, 2))),
        ("1/(1 + sqrt(2))", ExactReal.sqrt(2) - 1),
        ("sqrt(8)", ExactReal.sqrt(2).scale(2)),
        ("(1 + sqrt(2)) - (1 + sqrt(2))", ExactReal.rational(0)),
        ("2/4 - 1/2", ExactReal.rational(0)),
        ("(69/5000) + (49/50000000)*sqrt(13)",
         ExactReal.rational(Fraction(69, 5000)) + ExactReal.sqrt(13).scale(Fraction(49, 50000000))),
    ):
        assert parse_real(text) == want, text
    # the rational part comes first, as the text has it
    assert list(parse_real("1/2 + sqrt(3)").coords) == [1, 3]
    assert list(parse_real("1/2 - sqrt(3)").coords) == [1, 3]


def test_real_reader_zero_divisors():
    # a zero divisor of any type fails alike, at its '/'
    for text, pos in (
        ("1/0", 1), ("sqrt(2)/0", 7), ("1/(1-1)", 1),
        ("1/(sqrt(2)-sqrt(2))", 1), ("1/(0/0)", 4), ("(1/2)/(1/2-1/2)", 5),
    ):
        with pytest.raises(DivisionByZero) as err:
            parse_real(text)
        assert str(err.value) == "invert of zero element", text
        assert err.value.pos == pos, text


def test_form_text_matches_fraction_renderer():
    rng = random.Random(3411)
    pool = [
        (),
        (("abs1", 1, 0, 1),),
        (("abs1", 2, -1, 2),),
        (("abs1", 1, 0, -1), ("sgn", 2, 0, 1)),
        (("sgn", 1, 0, 1),),
    ]
    for _ in range(300):
        terms = {m: random_coefficient(rng) for m in rng.sample(pool, rng.randint(0, len(pool)))}
        terms = {m: c for m, c in terms.items() if c}
        form = funcalg.CanonicalForm(None, terms)
        assert form.text() == fraction_form_text(terms, funcalg._monomial_text)
    # a coefficient past the interpreter's integer string limit raises
    # its ValueError, as the Fraction renderer did
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        big = 10**4300
        for c in (Fraction(big), Fraction(-big), Fraction(1, big), Fraction(big, 7)):
            for m in ((), (("abs1", 1, 0, 1),)):
                with pytest.raises(ValueError) as want:
                    fraction_form_text({m: c}, funcalg._monomial_text)
                with pytest.raises(ValueError) as got:
                    funcalg.CanonicalForm(None, {m: c}).text()
                assert str(got.value) == str(want.value)
    finally:
        sys.set_int_max_str_digits(old)


def test_text_round_trip_random():
    rng = random.Random(3401)
    for _ in range(150):
        basis = random_basis(rng, rng.choice([1, 2]))
        dom = full_domain(*basis.radicands)
        text = random_formula_text(rng, list(basis.radicands))
        f = parse(text, dom)
        assert parse(f.text(), dom) == f


def test_evaluate_against_python_parser():
    rng = random.Random(3402)
    for _ in range(200):
        basis = random_basis(rng, rng.choice([1, 2]))
        dom = full_domain(*basis.radicands)
        text = random_formula_text(rng, list(basis.radicands))
        f = parse(text, dom)
        oracle = py_formula_evaluator(text, dom.basis.radicands)
        for _ in range(4):
            v = tuple(rng.randint(-6, 6) for _ in range(dom.dim))
            assert evaluate(f, v) == oracle(v)


def test_ring_ops_are_pointwise():
    rng = random.Random(3403)
    dom = full_domain(1, 2, 3)
    rads = [1, 2, 3]
    for _ in range(60):
        f = parse(random_formula_text(rng, rads), dom)
        g = parse(random_formula_text(rng, rads), dom)
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        assert evaluate(f + g, v) == evaluate(f, v) + evaluate(g, v)
        assert evaluate(f - g, v) == evaluate(f, v) - evaluate(g, v)
        assert evaluate(f * g, v) == evaluate(f, v) * evaluate(g, v)
        assert evaluate(f ** 2, v) == evaluate(f, v) ** 2


def test_formula_operands_must_be_formulas():
    # a formula takes no number as an operand: constants are formulas too
    dom = full_domain(1, 2)
    f = parse("sgn(sqrt(2)) - abs1(one+1)/2", dom)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(f, 1)
        with pytest.raises(TypeError):
            op(1, f)
    assert (f == 1) is False
    assert f + funcalg.CanonicalForm.constant(1, dom) == parse("sgn(sqrt(2)) - abs1(one+1)/2 + 1", dom)
    assert repr(f) == "CanonicalForm(-1/2*abs1(one+1) + sgn(sqrt(2)))"


def test_canonical_identity_ignores_construction_order():
    rng = random.Random(3409)
    dom = full_domain(1, 2, 3)
    rads = [1, 2, 3]
    for _ in range(100):
        f = parse(random_formula_text(rng, rads), dom)
        g = parse(random_formula_text(rng, rads), dom)
        for a, b in ((f * g, g * f), (f + g, g + f)):
            assert a == b
            assert hash(a) == hash(b)
            assert a.text() == b.text()
        s = tuple(rng.randint(-4, 4) for _ in range(3))
        assert parse(shift(f, s).text(), dom) == shift(f, s)
    # two tags on one coordinate keep their order when both move past 0
    f = parse("abs1(sqrt(2)) * abs1(sqrt(2)+1)^-1", dom)
    g = shift(f, (0, -3, 0))
    assert g.text() == "abs1(sqrt(2)-3)*abs1(sqrt(2)-2)^-1"
    assert parse(g.text(), dom) == g
    assert hash(parse(g.text(), dom)) == hash(g)


def test_division_by_monomial_is_pointwise():
    rng = random.Random(3404)
    dom = full_domain(1, 2)
    for _ in range(40):
        f = parse(random_formula_text(rng, [1, 2]), dom)
        g = parse("2*abs1(sqrt(2))^2*sgn(one)", dom)
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert evaluate(f / g, v) == evaluate(f, v) / evaluate(g, v)


def test_cross_basis_product_merges_domains():
    d1 = full_domain(1, 2, 3, 5)
    d2 = full_domain(1, 2, 3, 7)
    g1 = parse("abs1(one) * abs1(sqrt(3))", d1)
    g2 = parse("abs1(sqrt(2)) / abs1(sqrt(3))", d2)
    h = g1 * g2
    assert h.domain.basis.radicands == (1, 2, 3, 5, 7)
    assert h.domain.rank == 3
    assert h == parse(
        "abs1(one) * abs1(sqrt(2))",
        CoeffLattice(
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)],
            basis=RadicalBasis([2, 3, 5, 7]),
        ),
    )


def test_shift_matches_translated_evaluation():
    rng = random.Random(3405)
    dom = full_domain(1, 2, 3)
    rads = [1, 2, 3]
    for _ in range(60):
        f = parse(random_formula_text(rng, rads), dom)
        s = tuple(rng.randint(-3, 3) for _ in range(3))
        g = shift(f, s)
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        moved = tuple(a + b for a, b in zip(v, s))
        assert evaluate(g, v) == evaluate(f, moved)


def test_shift_requires_domain_point():
    dom = CoeffLattice([(2, 0), (0, 1)], basis=RadicalBasis([2]))
    f = parse("abs1(one)", dom)
    with pytest.raises(ShiftNotInDomain):
        shift(f, (1, 0))
    shifted = shift(f, (2, 0))
    assert evaluate(shifted, (0, 0)) == evaluate(f, (2, 0))


def test_shift_difference_detects_periods():
    dom = full_domain(1, 2, 3)
    f = parse("sgn(sqrt(3))", dom)
    one = ExactReal.rational(1)
    s3 = ExactReal.sqrt(3)
    assert shift_difference(f, one).is_zero()
    assert not shift_difference(f, s3).is_zero()
    assert shift_difference(f, s3.scale(2)).is_zero()
    with pytest.raises(NonIntegralShift):
        shift_difference(f, one.scale(Fraction(1, 2)))
    with pytest.raises(ShiftNotInDomain):
        shift_difference(f, ExactReal.sqrt(5))


def test_shift_errors_do_not_depend_on_term_order():
    # a radicand outside the basis (the least one) is reported before a
    # coordinate that is not an integer (the first in basis order), and
    # the rational coordinate is named 1, as basis literals do
    f = parse("sgn(sqrt(2))", full_domain(1, 2))
    outside = "shift has a sqrt(5) component outside the domain basis"
    for text, error, message in (
        ("1/2 + sqrt(5)", ShiftNotInDomain, outside),
        ("sqrt(5) + 1/2", ShiftNotInDomain, outside),
        ("sqrt(7) + sqrt(5) + sqrt(2)/2", ShiftNotInDomain, outside),
        ("sqrt(2)/2 + 1/3", NonIntegralShift, "coordinate of 1 is 1/3, not an integer"),
        ("1/3 + sqrt(2)/2", NonIntegralShift, "coordinate of 1 is 1/3, not an integer"),
        ("1 + sqrt(2)/2", NonIntegralShift, "coordinate of sqrt(2) is 1/2, not an integer"),
        ("sqrt(2)/2 + 1", NonIntegralShift, "coordinate of sqrt(2) is 1/2, not an integer"),
    ):
        with pytest.raises(error) as info:
            shift_difference(f, parse_real(text))
        assert str(info.value) == message, text


def test_period_module_parity_wave():
    dom = full_domain(1, 2, 3)
    pm = period_module(parse("sgn(sqrt(3))", dom))
    assert pm.zero_coords == frozenset()
    assert pm.parity_constraints == (frozenset({3}),)
    assert pm.as_lattice.hnf == ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    assert pm.generators_real == (
        ExactReal.rational(1),
        ExactReal.sqrt(2),
        ExactReal.sqrt(3).scale(2),
    )


def test_period_module_joint_parity():
    dom = full_domain(1, 2, 3)
    pm = period_module(parse("sgn(sqrt(2))*sgn(sqrt(3))", dom))
    assert pm.parity_constraints == (frozenset({2, 3}),)
    assert pm.as_lattice.hnf == ((1, 0, 0), (0, 1, 1), (0, 0, 2))


def test_period_module_pinned_coordinates():
    dom = full_domain(1, 2, 3)
    pm = period_module(parse("recip(one) + recip(sqrt(2))", dom))
    assert pm.zero_coords == frozenset({1, 2})
    assert pm.as_lattice.hnf == ((0, 0, 1),)
    assert pm.generators_real == (ExactReal.sqrt(3),)


def test_period_module_constant_is_everything():
    dom = full_domain(1, 2)
    pm = period_module(parse("7", dom))
    assert pm.zero_coords == frozenset()
    assert pm.parity_constraints == ()
    assert pm.as_lattice == dom


def test_period_module_generators_are_formal_periods():
    rng = random.Random(3406)
    for _ in range(50):
        basis = random_basis(rng, rng.choice([1, 2]))
        dom = full_domain(*basis.radicands)
        f = parse(random_formula_text(rng, list(basis.radicands)), dom)
        pm = period_module(f)
        for row in pm.as_lattice.hnf:
            g = pm.as_lattice.to_real(row)
            assert shift_difference(f, g).is_zero()
            for _ in range(3):
                v = tuple(rng.randint(-4, 4) for _ in range(dom.dim))
                moved = tuple(a + b for a, b in zip(v, row))
                assert evaluate(f, v) == evaluate(f, moved)


def test_period_module_is_complete_on_sublattice_domains():
    # box oracle: a domain point s is a formal period exactly when
    # shift(f, s) == f, so every box point must agree with membership
    rng = random.Random(3413)
    for _ in range(100):
        dim = rng.choice([2, 3])
        dom = random_lattice(rng, dim)
        radicands = list(basis_of_dim(dim).radicands)
        subsets = [
            S for r in range(1, dim + 1) for S in itertools.combinations(radicands, r)
        ]
        arg = {d: "one" if d == 1 else f"sqrt({d})" for d in radicands}
        terms = [
            f"{rng.choice([1, -1, 2, -3])}*" + "*".join(f"sgn({arg[d]})" for d in S)
            for S in rng.sample(subsets, rng.randint(2, 3))
        ]
        if rng.random() < 0.3:
            terms.append(f"recip({arg[rng.choice(radicands)]}+1)")
        f = parse(" + ".join(terms), dom)
        pm = period_module(f)
        assert len(pm.parity_constraints) >= 2
        for a in itertools.product(range(-3, 4), repeat=dim):
            s = tuple(sum(c * row[j] for c, row in zip(a, dom.hnf)) for j in range(dim))
            assert (shift(f, s) == f) == member(pm.as_lattice, s), (f.text(), s)
    # domains of rank 0 to dim - 1, some spanned by rows that mix
    # coordinates, with abs1 or recip atoms pinning one or two of them
    for _ in range(150):
        dim = rng.choice([2, 3])
        basis = basis_of_dim(dim)
        rank = rng.randint(0, dim - 1)
        mixed = [(1, 1, 0)[:dim], (0, 1, 1)[:dim]]
        while True:
            gens = [
                rng.choice(mixed) if rng.random() < 0.5
                else tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rank)
            ]
            dom = CoeffLattice(gens, basis)
            if dom.rank == rank:
                break
        radicands = list(basis.radicands)
        arg = {d: "one" if d == 1 else f"sqrt({d})" for d in radicands}
        terms = [
            f"{rng.choice([1, -1, 2])}*" + "*".join(f"sgn({arg[d]})" for d in S)
            for S in [rng.sample(radicands, rng.randint(1, dim)) for _ in range(rng.randint(0, 2))]
        ]
        for d in rng.sample(radicands, rng.randint(1, 2)):
            terms.append(f"{rng.choice(['abs1', 'recip'])}({arg[d]}{rng.choice(['', '+1', '-2'])})")
        f = parse(" + ".join(terms), dom)
        pm = period_module(f)
        for a in itertools.product(range(-3, 4), repeat=rank):
            s = tuple(sum(c * row[j] for c, row in zip(a, dom.hnf)) for j in range(dim))
            assert (shift(f, s) == f) == member(pm.as_lattice, s), (f.text(), dom, s)


def test_period_module_pinned_sublattice_cases():
    dom = CoeffLattice([(1, 1, 0), (0, 2, 1), (0, 0, 3)], RadicalBasis([1, 2, 3]))
    pair = "sgn(one)*sgn(sqrt(2)) + sgn(sqrt(2))*sgn(sqrt(3))"
    for text, hnf in (
        (pair, ((1, 1, 3), (0, 2, 4), (0, 0, 6))),
        (pair + " + 2*sgn(sqrt(3))", ((2, 0, 2), (0, 2, 4), (0, 0, 6))),
        ("sgn(one) + sgn(sqrt(2)) + recip(sqrt(3))", ((2, 2, 0), (0, 6, 0))),
    ):
        assert period_module(parse(text, dom)).as_lattice.hnf == hnf


def test_counterexample_for_reciprocal():
    dom = full_domain(1, 2, 3)
    f = parse("recip(sqrt(2))", dom)
    got = find_counterexample(f, ExactReal.sqrt(2))
    assert got == (0, 0, 0)
    assert evaluate(f, (0, 0, 0)) == 1
    assert evaluate(f, (0, 1, 0)) == Fraction(1, 2)


def test_counterexample_absent_for_true_period():
    dom = full_domain(1, 2, 3)
    f = parse("sgn(sqrt(3))", dom)
    got = find_counterexample(f, ExactReal.sqrt(3).scale(2))
    assert got == NotFound(25)
    got = find_counterexample(f, ExactReal.sqrt(3), bound=3)
    assert got == (0, 0, 0)


def test_counterexample_when_domain_not_invariant():
    dom = CoeffLattice([(2,)], basis=RadicalBasis([]))
    f = parse("abs1(one)", dom)
    got = find_counterexample(f, ExactReal.rational(1), bound=5)
    # shifting by 1 leaves the even lattice entirely
    assert got == (0,)
    assert not member(dom, (1,))


def test_counterexample_respects_sublattice_domain():
    dom = CoeffLattice([(1, 0, 0), (0, 1, 0)], basis=RadicalBasis([2, 3]))
    f = parse("abs1(one) * abs1(sqrt(2))", dom)
    got = find_counterexample(f, ExactReal.rational(1), bound=6)
    assert got != NotFound(6)
    assert member(dom, got)
    vec = (1, 0, 0)
    moved = tuple(a + b for a, b in zip(got, vec))
    assert evaluate(f, got) != evaluate(f, moved)


def test_counterexample_decides_formal_period_without_scanning(monkeypatch):
    dom = full_domain(1, 2, 3)
    f = parse("sgn(sqrt(3)) * recip(sqrt(2)) + abs1(one)", dom)
    T = ExactReal.sqrt(3).scale(2)

    def no_scan(form):
        raise AssertionError("a formal period needs no box point evaluated")

    monkeypatch.setattr(funcalg, "_compile", no_scan)
    assert find_counterexample(f, T, bound=10**6) == NotFound(10**6)


def test_counterexample_first_witness_on_sublattice_matches_oracle():
    # differences that vanish at the origin, so the first witness lies
    # deeper in the box and pins the enumeration order over HNF rows
    dom = CoeffLattice([(1, 1, 0), (0, 2, 1), (0, 0, 3)], basis=RadicalBasis([2, 3]))
    assert dom.hnf == ((1, 1, 0), (0, 2, 1), (0, 0, 3))
    away_from_origin = 0
    for text in ("recip(one) - recip(sqrt(2))", "abs1(sqrt(2)) - abs1(sqrt(3)+1)"):
        f = parse(text, dom)
        oracle = py_formula_evaluator(text, dom.basis.radicands)
        for coeffs in itertools.product((0, 1, -1), repeat=3):
            vec = tuple(
                sum(a * row[j] for a, row in zip(coeffs, dom.hnf)) for j in range(3)
            )
            got = find_counterexample(f, dom.to_real(vec), bound=4)
            expected = first_box_witness(oracle, dom.hnf, vec, 4)
            assert got == (NotFound(4) if expected is None else expected)
            away_from_origin += expected is not None and any(expected)
    assert away_from_origin >= 10


def test_counterexample_shift_outside_domain_is_origin_even_if_formal():
    # an even sqrt(2) shift leaves the formula formally unchanged, but
    # (0, 2, 0) is not in the domain, so the domain itself is not
    # invariant and the origin witnesses it
    text = "sgn(sqrt(2)) + 3"
    full = parse(text, full_domain(1, 2, 3))
    assert shift_difference(full, ExactReal.sqrt(2).scale(2)).is_zero()
    dom = CoeffLattice([(1, 0, 0), (0, 4, 0), (0, 0, 1)], basis=RadicalBasis([2, 3]))
    assert not member(dom, (0, 2, 0))
    T = ExactReal.sqrt(2).scale(2)
    assert find_counterexample(parse(text, dom), T, bound=10**6) == (0, 0, 0)


def test_counterexample_box_walk_order(monkeypatch):
    # the odometer visits every box point once, in the order of the
    # coefficient tuples 0, 1, -1, ..., bound, -bound with the last fastest
    seen = []

    def recording(form):
        def ev(x):
            seen.append(tuple(x))
            return 0, 1
        return ev

    monkeypatch.setattr(funcalg, "_compile", recording)
    basis = RadicalBasis([2, 3])
    for rows in (((1, 1, 0), (0, 2, 1), (0, 0, 3)), ((2, 1, 0),)):
        dom = CoeffLattice(rows, basis=basis)
        f = parse("recip(one) - recip(sqrt(2))", dom)
        for bound in (0, 1, 3):
            seen.clear()
            assert find_counterexample(f, dom.to_real(rows[0]), bound) == NotFound(bound)
            axis = [0] + [a for v in range(1, bound + 1) for a in (v, -v)]
            assert seen == [
                tuple(sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(3))
                for coeffs in itertools.product(axis, repeat=len(rows))
            ]


def test_counterexample_box_is_not_built():
    # a witness at the origin of a box of (2*10^6 + 1)^k points is found
    # without building the box's coefficient lists
    import tracemalloc

    dom = full_domain(1, 2, 3)
    f = parse("recip(sqrt(2))", dom)
    tracemalloc.start()
    try:
        got = find_counterexample(f, ExactReal.sqrt(2), bound=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (0, 0, 0)
    assert peak < 1 << 20


def test_evaluate_outside_domain():
    dom = CoeffLattice([(2, 0), (0, 1)], basis=RadicalBasis([2]))
    f = parse("abs1(one)", dom)
    with pytest.raises(NotInDomain):
        evaluate(f, (1, 0))


def test_composition_check_cases():
    two = ExactReal.rational(2)
    one = ExactReal.rational(1)
    s2 = ExactReal.sqrt(2)
    s3 = ExactReal.sqrt(3)
    assert composition_check(two, one, ExactReal.rational(3)).n == 6
    assert composition_check(s2, s2, ExactReal.rational(5)).n == 5
    assert not composition_check(s2, one, s3).holds
    assert composition_check(s2, one, s2).n == 2
    # sqrt(2) * sqrt(3) / sqrt(6) = 1: the product leaves both radicands
    assert composition_check(s2, ExactReal.sqrt(6), s3).n == 1
    with pytest.raises(DivisionByZero):
        composition_check(two, ExactReal.rational(0), one)
    with pytest.raises(ValueError):
        composition_check(two, one, ExactReal.rational(0))
