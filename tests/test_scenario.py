"""Scenario files and the command line: parsing, reports, exit codes."""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from periodalg import cli, exactreal, lattice, scenario
from periodalg.errors import (
    AnalysisError,
    DivisionByZero,
    ScenarioError,
    ScenarioNameError,
    ScenarioSyntaxError,
    SizeLimit,
)
from periodalg.exactreal import MAX_DIGITS, MAX_RADICAND, ExactReal, RadicalBasis
from periodalg.funcalg import MAX_TERMS, parse_real
from periodalg.scenario import (
    _RESERVED,
    ANALYSES,
    RunOptions,
    parse_scenario,
    run_scenario,
)

BASIC = """\
scenario "small check";

basis B = basis(1, sqrt(2), sqrt(3));
domain D = lattice[(1,0,0), (0,1,0), (0,0,1)] over B;
function f = sgn(sqrt(3)) on D;
pattern P mod 1 = (0, 1/4) u (1/2, 3/4);

analyze period_module f;
analyze fundamental_period P;
analyze commensurable 1, sqrt(2);
"""


def test_parse_positions_in_syntax_errors():
    bad = 'scenario "x";\n\nbasis B = $;\n'
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(bad)
    assert err.value.line == 3
    assert err.value.col == 11

    with pytest.raises(ScenarioSyntaxError):
        parse_scenario('scenario "x"\nbasis B = basis(1);\n')  # missing ;

    with pytest.raises(ScenarioSyntaxError):
        parse_scenario('scenario "unterminated;\n')

    head = (
        'scenario "x";\nbasis B = basis(1, sqrt(2));\n'
        "domain D = lattice[(1,0), (0,1)] over B;\n"
    )
    for text, line, col in (
        (head + "function f = abs1(sqrt(5)) on D;\n", 4, 18),  # at the atom's (
        ('scenario "x";\nanalyze cfrac sqrt(0);\n', 2, 15),
        ('scenario "x";\npattern P mod 1 = (0, 1/ );\n', 2, 26),
        ('scenario "x";\nbasis B = basis(1)', 2, 19),  # final ; missing
        # a basis literal takes 1 and sqrt(<int>), never another integer
        ('scenario "x";\nbasis B = basis(1, 3);\n', 2, 20),
        ('scenario "x";\nbasis B = basis(2);\n', 2, 17),
        # a value that fails to combine yields to its statement's syntax
        # errors, and comes before the checks its placeholder would fail
        ('scenario "x";\nanalyze cfrac 1/0 depth;\n', 2, 24),
        ('scenario "x";\nanalyze cfrac 1/0 2;\n', 2, 19),
        ('scenario "x";\npattern P mod 1 = (1/0, 0);\n', 2, 21),
        # a bad character is an error only where parsing reaches it
        ('scenario "x";\nanalyze cfrac 1/0;\nanalyze cfrac $;\n', 2, 16),
        (head + "function f = abs1(one) on $;\n", 4, 27),
        # a basis literal names the first bad radicand where it stands
        ('scenario "x";\nbasis B = basis(1, sqrt(4), sqrt(2));\n', 2, 20),
        # the formula is read before its `on`, so a syntax error in it
        # is not hidden behind a missing domain
        (head + "function f = abs1(sqrt(5)) + ) on D;\n", 4, 30),
        # a radicand past the cap or not squarefree, a lattice of the
        # wrong width and an interval outside its modulus are values too
        ('scenario "x";\nanalyze cfrac sqrt(100000000000000000000) depth ;\n', 2, 49),
        ('scenario "x";\npattern P mod 1 = (1/2, 1/4) x\n', 2, 30),
        ('scenario "x";\nbasis B = basis(1, sqrt(4)) x\n', 2, 29),
        (head + "domain E = lattice[(1,0),(0,1,1)] over B x\n", 4, 42),
    ):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.col) == (line, col)

    with pytest.raises(ScenarioNameError, match="^unknown domain 'X' at line 4$") as err:
        parse_scenario(head + "function f = abs1(one) on X;\n")
    assert (err.value.line, err.value.col) == (4, 27)
    # on the line after a comment, which counts as text
    with pytest.raises(ScenarioNameError, match="^unknown domain 'X' at line 5$") as err:
        parse_scenario(head + "# f is on X; $ \"\nfunction f = abs1(one) on X;\n")
    assert (err.value.line, err.value.col) == (5, 27)

    # statement and formula errors, each with its message
    one = 'scenario "x";\ndomain D = lattice[(1)] over basis(1);\n'
    for text, line, col, message in (
        ('scenario "x";\nscenario "y";\n', 2, 1, "'scenario' must be the first statement"),
        ('scenario "x";\n5;\n', 2, 1, "expected a statement keyword"),
        ("scenario x;\n", 1, 10, "expected a quoted scenario name"),
        ('scenario "x";\nfrobnicate;\n', 2, 1, "unknown statement 'frobnicate'"),
        ('scenario "x";\nanalyze bogus 1;\n', 2, 1, "unknown analysis kind 'bogus'"),
        (one + "function f = foo(one) on D;\n", 3, 14, "unknown function 'foo'"),
        (one + "function f = abs1(two) on D;\n", 3, 19, "expected 'one' or 'sqrt(<int>)'"),
        # a token's line and column count comments, blanks and the end
        ('scenario "x"; # $ "\nanalyze cfrac 1 + $;\n', 2, 19, "unexpected character '$'"),
        ('scenario "x";\nanalyze cfrac 1 $   \n  ', 2, 17, "unexpected character '$'"),
        ('scenario "x";\nanalyze cfrac 1$', 2, 16, "unexpected character '$'"),
        ('scenario "x";\nanalyze cfrac 1 ', 2, 17, "expected ';'"),
        ('scenario "x";\nanalyze cfrac 1 # no end', 2, 25, "expected ';'"),
        ('scenario "x', 1, 10, "unterminated string"),
        ('scenario "x";\nanalyze cfrac "', 2, 15, "unterminated string"),
        # names and numerals are ASCII: a letter or digit outside ASCII is
        # a character outside the lexicon
        ('basis B\u00e9 = basis(1, sqrt(\u0662));\n', 1, 8, "unexpected character '\u00e9'"),
        ('basis B = basis(1, sqrt(\u0662));\n', 1, 25, "unexpected character '\u0662'"),
        ("analyze cfrac \u0661/\u0663 depth \u0665;\n", 1, 15, "unexpected character '\u0661'"),
        ("analyze cfrac 1/3 depth \u0665;\n", 1, 25, "unexpected character '\u0665'"),
        ("\u00e9", 1, 1, "unexpected character '\u00e9'"),
    ):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(text)
        assert str(err.value) == f"line {line}, col {col}: {message}", text

    # a numeral past Python's integer string limit (Python >= 3.11; 0 is
    # no limit) is a syntax error at the numeral, not a bare ValueError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        big = "1" + "0" * limit
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(f'scenario "x";\nanalyze cfrac 1/{big};\n')
        assert (err.value.line, err.value.col) == (2, 17)
        assert f"limit ({limit} digits)" in str(err.value)
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(f'scenario "x";\nanalyze cfrac 1/ # {big}\n  {big};\n')
        assert (err.value.line, err.value.col) == (3, 3)
        assert f"limit ({limit} digits)" in str(err.value)


_RADICAND_CAP = f"radicand exceeds the limit of {MAX_RADICAND}"
PARITY_HEAD = (
    'scenario "x";\nbasis B = basis(1, sqrt(2));\n'
    "domain D = lattice[(1,0), (0,1)] over B;\n"
)
# A statement on line 4 with a bad token at `{X}`, reached through each
# token accessor of the parser, and the column of `{X}`.  The last entry
# is what the numeral gives when the interpreter has no integer string
# limit, so it is a plain integer: None where the statement parses, else
# (message, column); a radicand past the cap is placed at its sqrt, and
# an exponent past MAX_DIGITS at its '^'.
_EXPONENT_CAP = f"power's exponent exceeds the limit of {MAX_DIGITS} digits"
PARITY_CASES = (
    ("analyze cfrac 2*{X};", 17, None),  # factor after '*'
    ("function f = abs1(one)^{X} on D;", 24, (_EXPONENT_CAP, 23)),  # after '^'
    ("function f = abs1(one)^-{X} on D;", 25, (_EXPONENT_CAP, 23)),
    ("function f = 2*abs1(one) {X} abs1(one) on D;", 26, ("expected ';'", 26)),
    ("basis C {X} basis(1);", 9, ("expected '='", 9)),  # expect_op
    ("analyze cfrac sqrt {X};", 20, ("expected '('", 20)),
    ("analyze cfrac sqrt(2 {X});", 22, ("expected ')'", 22)),
    ("analyze commensurable 1 {X} sqrt(2);", 25, ("expected ','", 25)),
    ("analyze cfrac sqrt({X});", 20, (_RADICAND_CAP, 15)),  # expect_num
    ("analyze cfrac sqrt(2) depth {X};", 29, None),
    ("analyze kronecker sqrt(2) over [1] delta 0 eps 1/10 bound {X};", 59, None),
    ("analyze cfrac sqrt(2) {X};", 23, ("expected ';'", 23)),  # accept_keyword
    ("function f = abs1(one) {X} D;", 24, ("expected ';'", 24)),
    ("domain E = lattice[(1,0)] {X} B;", 27, ("expected keyword 'over'", 27)),
    ("domain E = lattice[({X})] over B;", 21, ("generator (", 1)),  # lattice[...]
    ("domain E = lattice[(1 {X} 0)] over B;", 23, ("expected ')'", 23)),
    ("domain E = lattice[(1,0) {X}] over B;", 26, ("expected ']'", 26)),
    ("pattern P mod {X} = (0, 1/4);", 15, None),  # pattern
    ("pattern P mod 1 = (0, {X});", 23, ("bad interval (0, 9", 23 + 4301 + 1)),
    ("pattern P mod 1 = (0 {X} 1/4);", 22, ("expected ','", 22)),
    ("pattern P mod 1 = (0, 1/4) {X};", 28, ("expected ';'", 28)),
    ("analyze kronecker sqrt(2) over [1 {X}] delta 0 eps 1/10;", 35, ("expected ']'", 35)),
    ("analyze cfrac 1/0 {X};", 19, ("expected ';'", 19)),  # after a failed value
)


def test_bad_tokens_raise_where_parsing_reaches_them():
    # each bad token raises its own message at its own column, however
    # the parser reaches it; run with the interpreter's default integer
    # string limit and with none (PYTHONINTMAXSTRDIGITS=0)
    numeral = "9" * 4301
    limited = "numeral of 4301 digits exceeds Python's integer string limit (4300 digits)"
    limits = (4300, 0) if hasattr(sys, "set_int_max_str_digits") else (0,)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        for limit in limits:
            if limits != (0,):
                sys.set_int_max_str_digits(limit)
            for stmt, col, unlimited in PARITY_CASES:
                bad = [("$", "unexpected character '$'"), ('"ab', "unterminated string")]
                if limit:
                    bad.append((numeral, limited))
                for token, message in bad:
                    with pytest.raises(ScenarioSyntaxError) as err:
                        parse_scenario(PARITY_HEAD + stmt.replace("{X}", token) + "\n")
                    assert str(err.value) == f"line 4, col {col}: {message}", stmt
                if limit:
                    continue
                text = PARITY_HEAD + stmt.replace("{X}", numeral) + "\n"
                if unlimited is None:
                    parse_scenario(text)
                    continue
                with pytest.raises(ScenarioSyntaxError) as err:
                    parse_scenario(text)
                assert (err.value.line, err.value.col) == (4, unlimited[1]), stmt
                assert str(err.value).startswith(f"line 4, col {unlimited[1]}: {unlimited[0]}")
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(old)


def test_radicand_past_the_cap_is_a_syntax_error_at_its_sqrt():
    # with the interpreter's integer string limit and with none, a
    # radicand above MAX_RADICAND is refused before it is factored, in a
    # real and in a basis literal alike
    big = MAX_RADICAND + 1
    cases = (
        (f'scenario "x";\nanalyze cfrac 1 + sqrt({big});\n', 2, 19),
        (f'scenario "x";\nbasis B = basis(1, sqrt(2), sqrt({big}));\n', 2, 29),
        (f'scenario "x";\ndomain D = lattice[(1,0)] over basis(1, sqrt({big}));\n', 2, 41),
        # the cap, not the factoring time, decides: a 19-digit radicand
        # is refused like a 4301-digit numeral
        ('scenario "x";\nanalyze cfrac sqrt(1000000000000000003);\n', 2, 15),
    )
    limits = (4300, 0) if hasattr(sys, "set_int_max_str_digits") else (0,)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        for limit in limits:
            if limits != (0,):
                sys.set_int_max_str_digits(limit)
            for text, line, col in cases:
                with pytest.raises(ScenarioSyntaxError) as err:
                    parse_scenario(text)
                assert str(err.value) == f"line {line}, col {col}: {_RADICAND_CAP}", text
            # the largest radicand allowed still parses
            parse_scenario(f'scenario "x";\nanalyze cfrac sqrt({MAX_RADICAND}) depth 3;\n')
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(old)


_ONE_AXIS = 'scenario "x";\nbasis B = basis(1);\ndomain D = lattice[(1)] over B;\n'
LIMIT_REPROS = {
    # (2*x)^20000 has a coefficient of 6,021 digits
    "power": (
        _ONE_AXIS + "function f = (2*abs1(one))^20000 on D;\nanalyze period_module f;\n",
        f"line 4, col 27: power's coefficient exceeds the limit of {MAX_DIGITS} digits",
    ),
    # (x + 1)^n has n + 1 monomials and coefficients up to 2^n: 2^14284
    # has 4300 digits and 2^14285 4301, refused before any product
    "power_of_sum": (
        _ONE_AXIS + "function f = (abs1(one)+1)^14285 on D;\nanalyze period_module f;\n",
        f"line 4, col 27: power's coefficient bound ||c||_1^n exceeds the limit of {MAX_DIGITS} digits",
    ),
    # three terms to the 400th have C(402, 2) = 80,601 exponent tuples
    "power_monomials": (
        _ONE_AXIS + "function f = (abs1(one)+abs1(one)^2+1)^400 on D;\nanalyze period_module f;\n",
        f"line 4, col 39: power's monomial count C(n+t-1, t-1) exceeds the limit of {MAX_TERMS}",
    ),
    # x*x and x^2 for x = (10^4300 - 1)*abs1(one): a product is sized
    # as the power it equals, whatever the interpreter's limit
    "square": (
        _ONE_AXIS + f"function x = ({'9' * 4300})*abs1(one) on D;\n"
        "function f = x^2;\nanalyze period_module f;\n",
        f"line 5, col 15: power's coefficient exceeds the limit of {MAX_DIGITS} digits",
    ),
    "product": (
        _ONE_AXIS + f"function x = ({'9' * 4300})*abs1(one) on D;\n"
        "function f = x*x;\nanalyze period_module f;\n",
        f"line 5, col 15: power's coefficient exceeds the limit of {MAX_DIGITS} digits",
    ),
    # the exponent 2*(10^4300 - 1) has 4,301 digits
    "product_exponent": (
        _ONE_AXIS + f"function f = abs1(one)^{'9' * 4300} * abs1(one)^{'9' * 4300} on D;\n"
        "analyze period_module f;\n",
        f"line 4, col 4325: power's exponent exceeds the limit of {MAX_DIGITS} digits",
    ),
    # two sums of 501 terms have 251,001 exponent tuples
    "product_monomials": (
        _ONE_AXIS + "function f = (abs1(one)+1)^500 * (abs1(one)+1)^500 on D;\n"
        "analyze period_module f;\n",
        f"line 4, col 32: power's monomial count C(n+t-1, t-1) exceeds the limit of {MAX_TERMS}",
    ),
    # (x^N)^N with N = 10^4200 has an exponent of 8,401 digits
    "exponent": (
        _ONE_AXIS + f"function f = (abs1(one)^1{'0' * 4200})^1{'0' * 4200} on D;\n"
        "analyze period_module f;\n",
        f"line 4, col 4227: power's exponent exceeds the limit of {MAX_DIGITS} digits",
    ),
    # 2^20000, the value of abs1(one+1)^20000 at 0, has 6,021 digits
    "evaluation": (
        _ONE_AXIS + "function f = abs1(one)^20000 on D;\n"
        "analyze counterexample f shift 1 bound 1;\n",
        f"analysis #1 (counterexample): power's value exceeds the limit of {MAX_DIGITS} digits",
    ),
    # f = 3^14000 at the witness 0 has 6,680 digits, though each power
    # stays under the per-power bit rule
    "report_value": (
        _ONE_AXIS + "function f = abs1(one-2)^14000 on D;\n"
        "analyze counterexample f shift 1 bound 1;\n",
        f"analysis #1 (counterexample): function's value exceeds the limit of {MAX_DIGITS} digits",
    ),
    # p is about 7*10^4301 at q = 1
    "kronecker": (
        f'scenario "x";\nanalyze kronecker 1000 over [(1/1{"0" * 4299})*sqrt(2)] delta 0 eps 1;\n',
        f"analysis #1 (kronecker): witness coefficient exceeds the limit of {MAX_DIGITS} digits",
    ),
    # an input of 8,000 digits, past the interpreter's default limit: the
    # analysis runs before its inputs are written, so its own error wins
    "cfrac_input": (
        f'scenario "x";\nanalyze cfrac {"9" * 4000}*{"9" * 4000};\n',
        f"analysis #1 (cfrac): convergent 1 exceeds the limit of {MAX_DIGITS} digits",
    ),
    # points within 10^-4000 of the thirds need a denominator of 6,320 digits
    "discrepancy": (
        f'scenario "x";\nanalyze discrepancy 1/3 + (1/1{"0" * 4000})*sqrt(2) n 300;\n',
        f"analysis #1 (discrepancy): discrepancy bound exceeds the limit of {MAX_DIGITS} digits",
    ),
    # alpha = 7/10^4400 is rational: the bound's denominator is 3*10^4400
    "discrepancy_rational": (
        f'scenario "x";\nanalyze discrepancy 7/1{"0" * 4000}/1{"0" * 400} n 3;\n',
        f"analysis #1 (discrepancy): discrepancy bound exceeds the limit of {MAX_DIGITS} digits",
    ),
    # a target near 10^4400 takes more than 10^4400 copies of a residual below eps
    "dirichlet": (
        f'scenario "x";\nanalyze dirichlet 1, sqrt(2) target {"9" * 4000}*{"9" * 400} eps 1/100;\n',
        f"analysis #1 (dirichlet): witness coefficient exceeds the limit of {MAX_DIGITS} digits",
    ),
}


@pytest.mark.parametrize("case", sorted(LIMIT_REPROS))
def test_results_past_the_digit_limit_are_typed_errors(case):
    # the same SizeLimit with the interpreter's integer string limit and
    # with none: a syntax error at the `^`, or the analysis's error
    text, message = LIMIT_REPROS[case]
    limits = (4300, 0) if hasattr(sys, "set_int_max_str_digits") else (0,)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        for limit in limits:
            if limits != (0,):
                sys.set_int_max_str_digits(limit)
            with pytest.raises((ScenarioSyntaxError, AnalysisError)) as err:
                run_scenario(parse_scenario(text))
            assert str(err.value) == message, limit
            if isinstance(err.value, AnalysisError):
                assert isinstance(err.value.cause, SizeLimit)
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(old)


def test_cfrac_depth_past_sys_maxsize(tmp_path, capsys):
    # a depth is any positive integer, in the text and from --depth
    for depth in (sys.maxsize, sys.maxsize + 1, 10**30):
        text = f'scenario "x";\nanalyze cfrac 355/113 depth {depth};\n'
        (res,) = run_scenario(parse_scenario(text)).results
        assert res["verdict"] == "3 quotients (rational, expansion complete)"
        assert res["inputs"]["depth"] == depth
    scn = tmp_path / "cfrac.scn"
    scn.write_text('scenario "x";\nanalyze cfrac 355/113;\n')
    assert cli.main(["run", str(scn), "--depth", str(sys.maxsize + 1)]) == 0
    assert "3 quotients (rational, expansion complete)" in capsys.readouterr().out


def test_value_errors_while_parsing_have_positions(tmp_path, capsys):
    # values are computed while a statement is read; a failing one is
    # reported at its operator, like a syntax error
    head = (
        'scenario "x";\nbasis B = basis(1, sqrt(2));\n'
        "domain D = lattice[(1,0), (0,1)] over B;\n"
    )
    for text, line, col, message in (
        ('scenario "x";\nanalyze cfrac 1/0;\n', 2, 16, "invert of zero element"),
        (
            head + "function f = 1/(abs1(one)+abs1(sqrt(2))) on D;\n",
            4, 15, "divisor has 2 terms",
        ),
        (
            head + "function g = (abs1(one)+sgn(one))^-2 on D;\n",
            4, 34, "divisor has 2 terms",
        ),
        # a nonpositive radicand is named as such, not as non-squarefree
        ('scenario "x";\nbasis B = basis(1, sqrt(0));\n', 2, 20, "radicand must be positive"),
        # a basis lists its radicals in increasing order, or its sorted
        # coordinates would silently permute the lattice rows
        (
            'scenario "x";\nbasis B = basis(1, sqrt(3), sqrt(2));\n'
            "domain D = lattice[(1,0,0),(0,2,0),(0,0,1)] over B;\n"
            "function f = sgn(sqrt(3)) on D;\nanalyze period_module f;\n",
            2, 29, "basis radicals must increase: sqrt(2) after sqrt(3)",
        ),
        ('scenario "x";\nbasis B = basis(1, sqrt(2), sqrt(2));\n', 2, 29,
         "basis radicals must increase: sqrt(2) after sqrt(2)"),
        ('scenario "x";\nbasis B = basis(sqrt(2), 1);\n', 2, 26, "basis radicals must increase: 1 after sqrt(2)"),
        ('scenario "x";\ndomain D = lattice[(1,0)] over basis(1, 1);\n', 2, 41,
         "basis radicals must increase: 1 after 1"),
        # the lattice checks each row against the basis, zero rows too
        (
            'scenario "x";\ndomain D = lattice[(1,0,0)] over basis(1, sqrt(2));\n',
            2, 1, "generator (1, 0, 0) has length 3, want 2",
        ),
        (
            'scenario "x";\ndomain D = lattice[(1,0), (0,0,0)] over basis(1, sqrt(2));\n',
            2, 1, "generator (0, 0, 0) has length 3, want 2",
        ),
    ):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in str(err.value)
        path = tmp_path / "z.scn"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        assert f"line {line}, col {col}: {message}" in capsys.readouterr().err


def test_a_radicand_is_factored_once(monkeypatch):
    # every basis, inline basis, merge and sqrt that reads n asks for its
    # squarefree part; the trial division for n near MAX_RADICAND runs once
    n = 999999999999999989
    text = (
        f'scenario "x";\nbasis B = basis(1, sqrt({n}));\n'
        "domain D = lattice[(1,0),(0,1)] over B;\n"
        f"domain E = lattice[(2,0),(0,2)] over basis(1, sqrt({n}));\n"
        f"function f = sgn(sqrt({n})) on D;\n"
        f"analyze intersect D, E;\nanalyze period_module f;\nanalyze commensurable sqrt({n}), 2*sqrt({n});\n"
    )
    factored = []
    squarefree_part = exactreal._squarefree_part

    def counting(m):
        factored.append(m)
        return squarefree_part(m)

    monkeypatch.setattr(exactreal, "_squarefree_part", counting)
    exactreal._radicand_part.cache_clear()
    report = run_scenario(parse_scenario(text))
    assert report.results[0]["verdict"] == "intersection of rank 2"
    assert factored.count(n) == 1


def test_name_resolution_errors():
    # every name error points at the name: line, col and message
    for text, message, col in (
        ('scenario "x";\nanalyze period_module nope;\n', "unknown function 'nope'", 23),
        ('scenario "x";\nbasis B = basis(1);\nbasis B = basis(1, sqrt(2));\n',
         "'B' is already bound", 7),
        ('scenario "x";\nbasis sqrt = basis(1);\n', "'sqrt' is a reserved word", 7),
    ):
        with pytest.raises(ScenarioNameError) as err:
            parse_scenario(text)
        line = text.count("\n")
        assert str(err.value) == f"{message} at line {line}"
        assert (err.value.line, err.value.col) == (line, col)
    with pytest.raises(ScenarioError):
        # no `on` clause and no earlier function to inherit a domain from
        parse_scenario('scenario "x";\nfunction f = abs1(one);\n')
    # a name is resolved where it is read, before a later syntax error
    with pytest.raises(ScenarioNameError, match="^unknown domain 'X' at line 3$"):
        parse_scenario(
            'scenario "x";\ndomain D = lattice[(1)] over basis(1);\n'
            "analyze intersect X D;\n"
        )


def test_function_domain_inheritance():
    text = (
        'scenario "x";\n'
        "basis B = basis(1, sqrt(2));\n"
        "domain D = lattice[(1,0), (0,1)] over B;\n"
        "function f = abs1(one) on D;\n"
        "function g = f + recip(sqrt(2));\n"
        "analyze period_module g;\n"
    )
    sc = parse_scenario(text)
    assert sc.functions["g"].domain == sc.functions["f"].domain

    # an explicit `on E` meets the domains of the functions named, in
    # every spelling of the formula
    head = text.replace("analyze period_module g;\n", "domain E = lattice[(2,0), (0,1)] over B;\n")
    sc = parse_scenario(head)
    meet = lattice.intersect(sc.domains["E"], sc.domains["D"])
    assert meet != sc.domains["D"]
    for formula in ("f", "-f", "f^2", "f + f", "1*f"):
        sc = parse_scenario(head + f"function h = {formula} on E;\n")
        assert sc.functions["h"].domain == meet, formula
    assert sc.functions["h"].terms == sc.functions["f"].terms


def test_wrap_pattern_and_fundamental_period():
    text = (
        'scenario "x";\n'
        "pattern Q mod 2 = (0, 1/2) u (3/2, 2) wrap;\n"
        "analyze fundamental_period Q;\n"
    )
    report = run_scenario(parse_scenario(text))
    res = report.results[0]
    assert res["exact"]["period"] == "2"
    assert parse_real(res["exact"]["period"]) == ExactReal.rational(2)


def test_cfrac_of_a_value_below_2_to_the_minus_2000():
    # x = p - q*sqrt(2) = 1/(p + q*sqrt(2)) for the 1800th convergent p/q
    # of sqrt(2); then 1/x = 2p - x, 1/(1 - x) = 1 + x/(1 - x) and
    # (1 - x)/x = 2p - 1 - x, so the quotients are 0, 2p-1, 1, 2p-2, 1
    p, q = 1, 1
    for _ in range(1799):
        p, q = p + 2 * q, p + q
    text = f'scenario "tiny";\nanalyze cfrac {p} - {q}*sqrt(2) depth 5;\n'
    res = run_scenario(parse_scenario(text)).results[0]
    assert res["exact"]["quotients"] == [0, 2 * p - 1, 1, 2 * p - 2, 1]
    assert res["verdict"] == "5 quotients"


def test_report_shape_and_determinism():
    sc = parse_scenario(BASIC)
    r1 = run_scenario(sc)
    r2 = run_scenario(sc)
    assert r1.to_json() == r2.to_json()
    doc = r1.to_json_dict()
    assert sorted(doc.keys()) == ["approx_policy", "results", "scenario", "version"]
    assert doc["scenario"] == "small check"
    for res in doc["results"]:
        assert "kind" in res and "verdict" in res
    json.loads(r1.to_json())
    text = r1.to_text()
    assert "period_module" in text and "verdict" in text


def _random_json(rng, depth: int = 0):
    """A report-shaped value: str keys; str, int, bool, None leaves."""
    roll = rng.random()
    if depth < 4 and roll < 0.3:
        return {
            _random_text(rng): _random_json(rng, depth + 1)
            for _ in range(rng.choice((0, 1, 2, 5)))
        }
    if depth < 4 and roll < 0.5:
        return [_random_json(rng, depth + 1) for _ in range(rng.choice((0, 1, 3, 6)))]
    if roll < 0.75:
        return _random_text(rng)
    if roll < 0.9:
        return rng.choice((1, -1)) * rng.randrange(2 ** rng.choice((4, 63, 64, 65, 200)))
    return rng.choice((True, False, None))


def _random_text(rng) -> str:
    alphabet = 'ab 1"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u03c0\U0001f600'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))


def test_to_json_writes_what_json_dumps_writes():
    from periodalg.scenario import Report

    scenarios = Path(__file__).resolve().parent.parent / "src" / "periodalg" / "scenarios"
    bundled = sorted(scenarios.glob("*.scn"))
    assert len(bundled) == 4
    for scn in bundled:
        report = run_scenario(parse_scenario(scn.read_text(), default_name=scn.stem))
        got = report.to_json()
        assert got == json.dumps(report.to_json_dict(), indent=2) + "\n"
        assert got == scn.with_name(scn.stem + ".expected.json").read_text()
    rng = random.Random(20)
    for _ in range(300):
        report = Report(
            _random_text(rng), _random_text(rng), [_random_json(rng) for _ in range(3)], []
        )
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2) + "\n"
    empty = Report("", "", [{}, [], {"a": {}, "b": []}, [[], {}], True, False, None], [])
    assert empty.to_json() == json.dumps(empty.to_json_dict(), indent=2) + "\n"
    with pytest.raises(TypeError):
        Report("x", "y", [0.5], []).to_json()

    # an int past the interpreter's digit limit fails as in json.dumps
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = Report("x", "y", [{"n": 10**4300}], [])
        with pytest.raises(ValueError, match="4300 digits"):
            json.dumps(big.to_json_dict(), indent=2)
        with pytest.raises(ValueError, match="4300 digits"):
            big.to_json()
    finally:
        sys.set_int_max_str_digits(old)


def test_exact_strings_parse_back():
    sc = parse_scenario(BASIC)
    doc = run_scenario(sc).to_json_dict()
    pm = doc["results"][0]
    gens = [parse_real(s) for s in pm["exact"]["generators"]]
    assert gens == [
        ExactReal.rational(1),
        ExactReal.sqrt(2),
        ExactReal.sqrt(3).scale(2),
    ]
    fp = doc["results"][1]["exact"]["period"]
    assert parse_real(fp) == ExactReal.rational(Fraction(1, 2))


def test_missing_eps_is_a_scenario_error():
    text = 'scenario "x";\nanalyze dirichlet 1, sqrt(2) target sqrt(3);\n'
    sc = parse_scenario(text)
    with pytest.raises(ScenarioError):
        run_scenario(sc)
    report = run_scenario(sc, RunOptions(eps=parse_real("1/100")))
    res = report.results[0]
    assert res["verdict"] == "witness verified by exact sign tests"
    err = parse_real(res["exact"]["error"])
    eps = ExactReal.rational(Fraction(1, 100))
    assert (eps - err).sign() > 0 and (eps + err).sign() > 0


def test_reports_without_a_witness_in_the_box():
    # a difference that vanishes on the whole domain without being
    # formally zero, a shift that leaves the domain (witnessed at the
    # origin), and a Kronecker search that ends at its bound
    head = 'scenario "x";\nbasis B = basis(1, sqrt(2));\n'
    for text, exact, witness, verdict in (
        (
            head + "domain D = lattice[(1,1)] over B;\nfunction f = sgn(one) - sgn(sqrt(2)) on D;\n"
            "analyze counterexample f shift 1 + sqrt(2) bound 3;\n",
            {"found": False}, None, "no counterexample in the search box (bound 3)",
        ),
        (
            'scenario "x";\ndomain D = lattice[(2)] over basis(1);\nfunction f = abs1(one) on D;\n'
            "analyze counterexample f shift 1;\n",
            {"found": True, "domain_invariant": False}, {"x": [0]},
            "counterexample found: the shift is not a period",
        ),
        (
            'scenario "x";\nanalyze kronecker sqrt(2) over [1] delta 1/2 eps 1/1000000 bound 3;\n',
            {"found": False}, None, "no witness up to q = 3",
        ),
    ):
        (res,) = run_scenario(parse_scenario(text)).results
        assert res["exact"] == exact, text
        assert res.get("witness") == witness, text
        assert res["verdict"] == verdict, text


def test_analysis_failure_wraps_index_and_kind():
    text = 'scenario "x";\nanalyze discrepancy sqrt(2) n 50;\n'
    sc = parse_scenario(text)
    with pytest.raises(AnalysisError) as err:
        run_scenario(sc)
    assert err.value.index == 1
    assert err.value.kind == "discrepancy"
    # a zero input is named as the analysis sees it
    for text, kind, message in (
        ("analyze commensurable 0, 1;", "commensurable", "commensurability is undefined for zero"),
        ("analyze dirichlet 0, sqrt(2) target 1 eps 1/10;", "dirichlet", "zero generator T1"),
        ("analyze dirichlet sqrt(2), 0 target 1 eps 1/10;", "dirichlet", "zero generator T2"),
    ):
        with pytest.raises(AnalysisError) as err:
            run_scenario(parse_scenario(f'scenario "x";\n{text}\n'))
        assert str(err.value) == f"analysis #1 ({kind}): {message}"
        assert isinstance(err.value.cause, DivisionByZero)


def test_optional_arguments_fall_back_through_the_table():
    text = (
        'scenario "x";\n'
        "analyze cfrac sqrt(2);\n"
        "analyze cfrac sqrt(2) depth 8;\n"
        "analyze kronecker sqrt(2) over [1] delta 0 eps 1/10;\n"
    )
    sc = parse_scenario(text)
    results = run_scenario(sc, RunOptions(bound=2, depth=3)).results
    assert [r["inputs"]["depth"] for r in results[:2]] == [3, 8]
    assert len(results[0]["exact"]["quotients"]) == 3
    assert results[2]["inputs"]["bound"] == 1000000  # --bound is not kronecker's
    assert [r["inputs"]["depth"] for r in run_scenario(sc).results[:2]] == [10, 8]

    missing = parse_scenario('scenario "x";\nanalyze dirichlet 1, sqrt(2) target sqrt(3);\n')
    with pytest.raises(ScenarioError) as err:
        run_scenario(missing)
    assert str(err.value) == "analysis #1 (dirichlet) has no eps and no --eps was given"


ALL_KINDS = """\
scenario "every kind";
basis B = basis(1, sqrt(2));
domain D = lattice[(1,0), (0,1)] over B;
domain E = lattice[(2,0), (0,1)] over B;
function f = sgn(sqrt(2)) on D;
pattern P mod 1 = (0, 1/4);
analyze period_module f;
analyze commensurable 1, sqrt(2);
analyze classify 1, sqrt(2);
analyze intersect D, E;
analyze fundamental_period P;
analyze dirichlet 1, sqrt(2) target 1/3 eps 1/10;
analyze kronecker sqrt(2) over [1] delta 0 eps 1/10;
analyze cfrac sqrt(2);
analyze discrepancy sqrt(2) - 1 n 10;
analyze composition_check slope 2 t 1 l 1;
analyze counterexample f shift 1 bound 2;
"""


def test_inputs_are_the_signature_slots_in_order():
    # run_scenario writes each result's inputs from its kind's signature:
    # a function adds its formula, a pattern its definition, and
    # period_module the function's domain
    expected = {
        "period_module": ["function", "formula", "domain"],
        "commensurable": ["x", "y"],
        "classify": ["periods"],
        "intersect": ["first", "second"],
        "fundamental_period": ["pattern", "definition"],
        "dirichlet": ["T1", "T2", "target", "eps"],
        "kronecker": ["T", "Ts", "delta", "eps", "bound"],
        "cfrac": ["x", "depth"],
        "discrepancy": ["alpha", "N"],
        "composition_check": ["slope", "T", "L"],
        "counterexample": ["function", "formula", "shift", "bound"],
    }
    results = run_scenario(parse_scenario(ALL_KINDS)).results
    assert [r["kind"] for r in results] == list(expected) == list(ANALYSES)
    for r in results:
        assert list(r["inputs"]) == expected[r["kind"]], r["kind"]
        assert list(r)[:2] == ["kind", "inputs"] and list(r)[-1] in ("verdict", "witness")
    by_kind = {r["kind"]: r["inputs"] for r in results}
    assert by_kind["period_module"] == {
        "function": "f",
        "formula": "sgn(sqrt(2))",
        "domain": {"basis": "basis(1, sqrt(2))", "rows": [[1, 0], [0, 1]]},
    }
    assert by_kind["fundamental_period"] == {"pattern": "P", "definition": "(0, 1/4) mod 1"}
    assert by_kind["kronecker"] == {"T": "sqrt(2)", "Ts": ["1"], "delta": "0", "eps": "1/10", "bound": 10**6}
    assert by_kind["classify"] == {"periods": ["1", "sqrt(2)"]}
    assert by_kind["intersect"] == {"first": "D", "second": "E"}


def test_dense_classify_text_has_no_exact_period():
    # a dense group has no T0, which the text report writes as none
    text = run_scenario(parse_scenario('scenario "d";\nanalyze classify 1, sqrt(2);\n')).to_text()
    assert "    exact T0: none\n    approx T0: none\n    verdict: dense in the reals\n" in text


def test_analysis_table_matches_the_format_doc():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "scenario-format.md").read_text()
    section = doc.split("## Analyses", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert {row.split("`")[1].split()[0] for row in rows} == set(ANALYSES)


def test_every_analysis_names_a_periodalg_layer():
    for kind, (_, runner, layer) in ANALYSES.items():
        module = importlib.import_module(f"periodalg.{layer}")
        # the runner calls into the module its row names
        used = [runner.__globals__.get(name) for name in runner.__code__.co_names]
        assert module in used, kind


def test_reserved_words_cover_every_argument_keyword():
    leads = {lead for sig, *_ in ANALYSES.values() for lead, *_ in sig if lead not in ("", ",")}
    assert leads and leads <= _RESERVED
    assert set(ANALYSES) <= _RESERVED
    for word in sorted(leads):
        with pytest.raises(ScenarioNameError, match="reserved word"):
            parse_scenario(f'scenario "x";\npattern {word} mod 1 = (0, 1/2);\n')


def test_cli_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "ok.scn"
    good.write_text(BASIC)
    assert cli.main(["run", str(good)]) == 0
    out = capsys.readouterr().out
    assert "period_module" in out

    bad = tmp_path / "bad.scn"
    bad.write_text('scenario "x";\nbasis B = $;\n')
    assert cli.main(["run", str(bad)]) == 2

    absent = tmp_path / "absent.scn"
    assert cli.main(["run", str(absent)]) == 2

    failing = tmp_path / "failing.scn"
    failing.write_text('scenario "x";\nanalyze discrepancy sqrt(2) n 50;\n')
    assert cli.main(["run", str(failing)]) == 3
    capsys.readouterr()


def test_cli_flag_validation(tmp_path, capsys):
    good = tmp_path / "ok.scn"
    good.write_text(BASIC)
    assert cli.main(["run", str(good), "--eps", "0"]) == 2
    assert cli.main(["run", str(good), "--eps", "not a number"]) == 2
    assert cli.main(["run", str(good), "--bound", "0"]) == 2
    assert cli.main(["run", str(good), "--depth", "0"]) == 2
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        assert cli.main(["run", str(good), "--eps", "1/1" + "0" * limit]) == 2
        assert "integer string limit" in capsys.readouterr().err
    capsys.readouterr()


def test_cli_file_errors_are_reported(tmp_path, capsys):
    missing = tmp_path / "missing"
    payload = tmp_path / "selfcheck.json"
    assert cli.main(["selfcheck", "--scenario-dir", str(missing), "--json", str(payload)]) == 1
    out = capsys.readouterr().out
    assert f"fail  scenario   {missing}  (cannot read the scenario directory" in out
    doc = json.loads(payload.read_text())
    assert doc["selfcheck"] == "fail" and doc["version"] == scenario._VERSION
    assert len(doc["results"]) == 6  # the missing directory, then the invariants
    row = doc["results"][0]
    assert (row["kind"], row["name"], row["verdict"]) == ("scenario", str(missing), "fail")
    assert row["detail"].startswith("cannot read the scenario directory")

    good = tmp_path / "ok.scn"
    good.write_text(BASIC)
    assert cli.main(["run", str(good), "--json", str(missing / "x.json")]) == 2
    assert f"error: cannot write {missing / 'x.json'}" in capsys.readouterr().err


def test_cli_selfcheck_unwritable_json_exits_2(tmp_path, capsys):
    # the checks run and print, then the --json file fails as run's does:
    # one error line and exit 2, which no failed check returns
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["selfcheck", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.endswith("selfcheck: 9/9 checks passed\n")
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_cli_report_past_the_int_string_limit(tmp_path, capsys):
    # the analysis finishes, but a convergent of about 650 digits cannot
    # be printed under the lowest limit Python allows
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python < 3.11 has no integer string limit")
    scn = tmp_path / "deep.scn"
    scn.write_text('scenario "x";\nanalyze cfrac sqrt(2) depth 1700;\n')
    out = tmp_path / "deep.json"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli.main(["run", str(scn), "--json", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {scn}: cannot render the report: ")
        assert "640 digits" in captured.err
        assert cli.main(["selfcheck", "--scenario-dir", str(tmp_path)]) == 1
        assert "fail  scenario   deep  (Exceeds the limit (640 digits)" in capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(old)


def test_cfrac_past_the_digit_limit_is_a_typed_analysis_error(tmp_path):
    # the library's own MAX_DIGITS stops the expansion, whatever the
    # interpreter's integer string limit is
    scn = tmp_path / "deep.scn"
    scn.write_text('scenario "x";\nanalyze cfrac sqrt(2) depth 12000;\n')
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for limit in (None, "0"):
        run_env = env if limit is None else {**env, "PYTHONINTMAXSTRDIGITS": limit}
        done = subprocess.run(
            [sys.executable, "-m", "periodalg", "run", str(scn)],
            env=run_env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (3, ""), limit
        assert done.stderr == (
            "error: analysis #1 (cfrac): convergent 11235 exceeds the limit of 4300 digits\n"
        ), limit


def test_cli_json_output_is_byte_stable(tmp_path, capsys):
    scn = tmp_path / "case.scn"
    scn.write_text(BASIC)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["run", str(scn), "--json", str(out1)]) == 0
    assert cli.main(["run", str(scn), "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["scenario"] == "small check"
    capsys.readouterr()


def test_cli_option_fallbacks(tmp_path, capsys):
    scn = tmp_path / "eps.scn"
    scn.write_text('scenario "x";\nanalyze dirichlet 1, sqrt(2) target sqrt(3);\n')
    assert cli.main(["run", str(scn)]) == 2
    assert cli.main(["run", str(scn), "--eps", "1/100"]) == 0

    box = tmp_path / "box.scn"
    box.write_text(
        'scenario "x";\n'
        "basis B = basis(1, sqrt(2), sqrt(3));\n"
        "domain D = lattice[(1,0,0), (0,1,0), (0,0,1)] over B;\n"
        "function f = sgn(sqrt(3)) on D;\n"
        "analyze counterexample f shift 2*sqrt(3);\n"
    )
    out = tmp_path / "box.json"
    assert cli.main(["run", str(box), "--bound", "2", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"][0]["inputs"]["bound"] == 2
    assert doc["results"][0]["exact"]["found"] is False
    capsys.readouterr()


def test_cli_selfcheck_passes(tmp_path, capsys):
    payload = tmp_path / "selfcheck.json"
    assert cli.main(["selfcheck", "--json", str(payload)]) == 0
    *rows, summary = capsys.readouterr().out.splitlines()
    # the frozen reports, then only the invariants no report pins
    want = [
        ("pass", "scenario", "cancelling_sum"),
        ("pass", "scenario", "diophantine_toolkit"),
        ("pass", "scenario", "product_domains"),
        ("pass", "scenario", "two_irrational_periods"),
        ("pass", "invariant", "exactreal inversion"),
        ("pass", "invariant", "exactreal floor and sign"),
        ("pass", "invariant", "lattice intersect idempotent"),
        ("pass", "invariant", "funcalg parse roundtrip"),
        ("pass", "invariant", "pointsets rotation roundtrip"),
    ]
    assert [tuple(row.split(maxsplit=2)) for row in rows] == want
    assert summary == "selfcheck: 9/9 checks passed"
    # --json writes the same rows, with no detail on a pass
    doc = json.loads(payload.read_text())
    assert doc["selfcheck"] == "pass" and doc["version"] == scenario._VERSION
    assert doc["results"] == [{"kind": k, "name": n, "verdict": v} for v, k, n in want]


def test_cli_selfcheck_invariant_says_what_it_got(monkeypatch, capsys):
    monkeypatch.setattr(ExactReal, "floor", lambda self: 4)
    assert cli.main(["selfcheck"]) == 1
    assert (
        "fail  invariant  exactreal floor and sign  "
        "(AssertionError: floor(sqrt(2) + sqrt(3)): expected 3, got 4)"
    ) in capsys.readouterr().out.splitlines()


def test_cli_selfcheck_catches_tampering(tmp_path, capsys):
    import shutil
    from importlib import resources

    src = resources.files("periodalg").joinpath("scenarios")
    for entry in src.iterdir():
        if entry.name.endswith((".scn", ".expected.json")):
            shutil.copyfile(str(entry), str(tmp_path / entry.name))
    victim = tmp_path / "two_irrational_periods.expected.json"
    want = victim.read_text()
    doc = json.loads(want)
    doc["results"][0]["exact"]["generators"][0] = "17"
    victim.write_text(json.dumps(doc, indent=2) + "\n")
    assert cli.main(["selfcheck", "--scenario-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    # the JSON reports are compared by key path, naming the analysis
    assert (
        "first difference at results[1] (period_module, funcalg): exact.generators[0]: "
        'expected "17", got "1"'
    ) in out
    # a side that is not JSON falls back to the first differing line
    victim.write_text("not json\n")
    assert cli.main(["selfcheck", "--scenario-dir", str(tmp_path)]) == 1
    assert "first difference at line 1: expected 'not json', got '{'" in capsys.readouterr().out
    # equal documents that differ only as text fall back to the lines,
    # and a kind the library does not know is named as it is
    n = len(want.splitlines())
    doc = json.loads(want)
    doc["results"][1]["kind"] = "bogus"
    for expected, detail in (
        (want + "\n", f"line counts differ: expected {n + 1}, got {n}"),
        (want[:-1], "outputs differ"),
        (json.dumps(doc, indent=2) + "\n",
         'first difference at results[2] (bogus): kind: expected "bogus", got "commensurable"'),
    ):
        victim.write_text(expected)
        assert cli.main(["selfcheck", "--scenario-dir", str(tmp_path)]) == 1
        assert f"fail  scenario   two_irrational_periods  ({detail})" in capsys.readouterr().out


def test_import_loads_only_the_library():
    # `import periodalg` loads what run_scenario needs and no more: no
    # dataclasses (and the inspect it pulls in), no typing, no CLI; the
    # CLI itself leaves importlib.resources to selfcheck
    probe = """
import sys
import periodalg
library = ("approx", "errors", "exactreal", "funcalg", "lattice", "pointsets", "scenario")
assert all(f"periodalg.{m}" in sys.modules for m in library)
heavy = ("dataclasses", "inspect", "typing", "argparse", "importlib.resources", "pathlib", "periodalg.cli")
print(sorted(m for m in heavy if m in sys.modules))
import periodalg.cli
print(sorted(m for m in ("importlib.resources",) if m in sys.modules))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n[]\n"


def test_records_keep_value_semantics():
    # the result, option and parse types compare by value and only with
    # their own type, the frozen ones hash and refuse assignment, and
    # each prints as Name(field=value, ...)
    from periodalg import (
        CompositionResult,
        ContinuedFraction,
        Dense,
        Discrete,
        NotFound,
        PeriodModule,
        Report,
        Scenario,
    )
    import copy
    import pickle

    from periodalg.scenario import Analysis

    half = ExactReal.rational(Fraction(1, 2))
    assert NotFound(6) == NotFound(bound=6) and hash(NotFound(6)) == hash(NotFound(6))
    assert NotFound(6) != NotFound(7) and NotFound(6) != (6,) and (6,) != NotFound(6)
    assert Discrete(half) == Discrete(ExactReal.rational(Fraction(2, 4)))
    assert Discrete(half) != Dense() and Dense() == Dense() and {Dense(), Dense()} == {Dense()}
    assert CompositionResult(True) == CompositionResult(holds=True, n=None) != CompositionResult(True, 0)
    cf = ContinuedFraction(half, (0, 2), ((0, 1), (1, 2)), True)
    assert cf == ContinuedFraction(half, (0, 2), ((0, 1), (1, 2)), terminated=True)
    assert len({cf, cf, NotFound(1)}) == 2
    module = PeriodModule(frozenset(), (), lattice.CoeffLattice([], basis=RadicalBasis([1])), ())
    for frozen, field in ((NotFound(6), "bound"), (Dense(), "T0"), (cf, "quotients"), (module, "as_lattice")):
        with pytest.raises(AttributeError):
            setattr(frozen, field, None)
    with pytest.raises(AttributeError):
        del cf.x
    assert NotFound(6).bound == 6 and CompositionResult(True).n is None
    # one constructor binds arguments to `_fields` as a signature would
    assert PeriodModule(*module._values()) == PeriodModule(**dict(zip(PeriodModule._fields, module._values())))
    for bad in (
        lambda: NotFound(),
        lambda: NotFound(1, 2),
        lambda: NotFound(size=1),
        lambda: NotFound(1, bound=1),
        lambda: Discrete(),
        lambda: Analysis("cfrac"),
        lambda: Report("x", "v", [], [], None),
    ):
        with pytest.raises(TypeError):
            bad()

    assert (RunOptions.bound, RunOptions.depth, RunOptions.eps) == (25, 10, None)
    opts = RunOptions()
    assert (opts.bound, opts.depth, opts.eps) == (25, 10, None)
    assert RunOptions(3) == RunOptions(bound=3, depth=10) != RunOptions()
    opts.eps = half
    assert opts.eps == half and RunOptions.eps is None
    sc = Scenario("x")
    assert (sc.name, sc.bases, sc.domains, sc.functions, sc.patterns, sc.analyses) == ("x", {}, {}, {}, {}, [])
    assert Scenario("x").bases is not sc.bases and sc == Scenario("x") != Scenario("y")
    assert Analysis("cfrac", {}) == Analysis(kind="cfrac", args={})
    report = Report("x", "v", [], [])
    assert report == Report(scenario_name="x", version="v", results=[], timings=[])
    for mutable in (opts, sc, report):
        with pytest.raises(TypeError):
            hash(mutable)
    for record in (NotFound(6), Dense(), cf, module, opts, sc, report):
        assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record

    assert repr(Dense()) == "Dense()"
    assert repr(NotFound(bound=3)) == "NotFound(bound=3)"
    assert repr(CompositionResult(True, 2)) == "CompositionResult(holds=True, n=2)"
    assert repr(RunOptions()) == "RunOptions(bound=25, depth=10, eps=None)"
    assert repr(Scenario("x")) == (
        "Scenario(name='x', bases={}, domains={}, functions={}, patterns={}, analyses=[])"
    )
    assert repr(Analysis("cfrac", {"depth": 3})) == "Analysis(kind='cfrac', args={'depth': 3})"
