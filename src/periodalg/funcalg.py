"""Symbolic algebra of coordinate formulas on a lattice domain.

A function is entered as a formula over two atom shapes, each reading a
single coordinate of the point x = sum(x_d * sqrt(d)):

    abs1(sqrt(d))   ->  |x_d| + 1          (always >= 1)
    recip(sqrt(d))  ->  1 / (|x_d| + 1)    (same atom, exponent -1)
    sgn(sqrt(d))    ->  (-1) ** x_d

combined with rationals and + - * / ^.  Formulas normalize into a
canonical term map (monomial -> coefficient), which makes sums cancel
literally, products collapse literally, and the shift action x -> x + s
computable: abs1 atoms pick up an integer shift tag, sgn atoms a sign.
A monomial is a sorted tuple of (kind, radicand, shift, exponent)
atoms; sgn exponents live mod 2, and a sgn shift folds into the
coefficient sign.  Two forms are equal when their term maps are, and
the canonical text renders the sorted map.  A shift moves every tag on
a coordinate by the same amount, so shifted monomials stay sorted.

Because a shift strictly translates every abs1 tag and flips signs by
parity, formal invariance under a shift is decidable, and the full
module of formal periods is an explicit lattice: zero on every abs1
coordinate, even parity on each term's sgn support.  The bounded
counterexample search decides formal periods from that canonical
difference and otherwise scans a box with direct exact evaluation.
"""

from __future__ import annotations

import operator
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm

from .errors import (
    DivisionByZero,
    FrozenRecord,
    NonIntegralShift,
    NonMonomialDivisor,
    NotFound,
    NotInDomain,
    ParseError,
    PeriodalgError,
    ShiftNotInDomain,
    SizeLimit,
    UnknownRadicand,
)
from .exactreal import MAX_BITS, MAX_DIGITS, ExactReal, _check_digits, _magnitude_text, commensurable
from .lattice import CoeffLattice, cut, intersect, member

ABS1 = "abs1"
SGN = "sgn"
# the most exponent tuples a product of powers may expand to (docs/scenario-format.md)
MAX_TERMS = 2**16


def _monomial(atoms: Iterable[tuple[str, int, int, int]]) -> tuple:
    """The canonical monomial of (kind, radicand, shift, exponent) atoms.

    Exponents of equal (kind, radicand, shift) add up, sgn exponents
    live mod 2 (the atom squares to 1), zero exponents drop out, and the
    rest is sorted; the empty tuple is the constant 1.
    """
    acc: dict[tuple[str, int, int], int] = {}
    for kind, d, s, e in atoms:
        acc[kind, d, s] = acc.get((kind, d, s), 0) + e
    out = []
    for (kind, d, s), e in acc.items():
        if kind == SGN:
            e %= 2
        if e:
            out.append((kind, d, s, e))
    return tuple(sorted(out))


def _monomial_text(m: tuple) -> str:
    parts = []
    for kind, d, s, e in m:
        arg = "one" if d == 1 else f"sqrt({d})"
        if s:
            arg += f"{s:+d}"
        parts.append(f"{kind}({arg})" + (f"^{e}" if e != 1 else ""))
    return "*".join(parts)


def _raised(m: tuple, a: int) -> tuple:
    """The atoms of m^a; none for a = 0."""
    return tuple((k, d, s, e * a) for k, d, s, e in m) if a else ()


def _multinomial(items: list, ps: list[int], n: int) -> list[tuple[int, tuple]]:
    """(integer coefficient, atoms) per exponent tuple (a_1, ..., a_t) of
    (sum of p_i*m_i over the items)^n, for n >= 0: the multinomial
    n!/(a_1!...a_t!) times the product of the p_i^a_i, and each m_i's
    atoms raised to a_i.  A partial tuple whose exponent is used up is
    done, so it skips the terms after it."""
    done = []
    # (exponent left, integer coefficient, atoms) per partial tuple
    parts = [(n, 1, ())]
    for (m, _), p in zip(items[:-1], ps):
        grown = []
        for r, coef, atoms in parts:
            binom = power = 1
            for a in range(r):
                grown.append((r - a, coef * binom * power, atoms + _raised(m, a)))
                binom = binom * (r - a) // (a + 1)
                power *= p
            done.append((coef * power, atoms + _raised(m, r)))
        parts = grown
    m, p = items[-1][0], ps[-1]
    done += [(coef * p**r, atoms + _raised(m, r)) for r, coef, atoms in parts]
    return done


def _sgn_power(items: list, ps: list[int], atoms: list[tuple], n: int) -> list[tuple[int, tuple]]:
    """(integer coefficient, atoms) per monomial of (sum of p_i*m_i
    over the items)^n, for monomials m_i of the s sgn `atoms` alone.

    A sgn atom squares to 1, so a monomial is the set of its odd atoms,
    an s-bit mask, and a product of monomials is the xor of their
    masks.  The Walsh-Hadamard transform turns that product into a
    pointwise one, so the power is taken entry by entry between two
    transforms of the 2^s coefficients; the second transform is the
    inverse times 2^s.  No exponent tuple is built.
    """
    size = 1 << len(atoms)
    bit = {a: 1 << j for j, a in enumerate(atoms)}

    def transform(vec: list[int]) -> None:
        h = 1
        while h < size:
            for i in range(0, size, 2 * h):
                for j in range(i, i + h):
                    vec[j], vec[j + h] = vec[j] + vec[j + h], vec[j] - vec[j + h]
            h *= 2

    vec = [0] * size
    for (m, _), p in zip(items, ps):
        mask = 0
        for kind, d, s, e in m:
            if e % 2:
                mask ^= bit[kind, d, s]
        vec[mask] += p
    transform(vec)
    vec = [v**n for v in vec]
    transform(vec)
    return [
        (v // size, tuple(a + (1,) for a in atoms if mask & bit[a]))
        for mask, v in enumerate(vec)
        if v
    ]


def _expand(factors: Iterable[tuple[Mapping[tuple, Fraction], int]]) -> dict[tuple, Fraction]:
    """The term map of the product of the f^n over (terms of f, n)
    factors, n >= 0: f*g is [(f, 1), (g, 1)] and f^n is [(f, n)].

    The count and the coefficients are sized before any product.  A
    factor of t terms has C(n+t-1, t-1) exponent tuples, and the
    product of these counts must stay within MAX_TERMS; a factor whose
    terms hold only sgn atoms, s distinct ones, has at most 2^s
    monomials and counts 2^s when that is fewer, since `_sgn_power`
    builds it in work that grows with 2^s, not with its tuples; the
    count's error names which of the two it counted.  With q the lcm of
    a factor's denominators and p_i = c_i*q, each coefficient is an
    integer of at most the product of the ||p||_1^n, over the
    product of the q^n, and the larger of the two must stay within
    MAX_DIGITS digits; a factor's part of b bits to the n is at least
    2^((b-1)*n), so past MAX_BITS it is too long before it is built.
    With one exponent tuple, the bound in lowest terms is the
    coefficient.  Each factor is then expanded in integers
    (`_multinomial` or `_sgn_power`), the
    expansions are multiplied out, and each monomial's sum is divided
    by the product of the q^n once.  Exponents are cheap to build (a
    factor of t > 1 terms has n < MAX_TERMS once counted), so they are
    summed exactly, and each abs1 exponent of the result must then stay
    within MAX_DIGITS digits.
    """
    count = bound = den = 1
    too_long = False
    counted = {}  # what `count` multiplied, for its error message
    plan = []
    for terms, n in factors:
        if not terms:
            if n:
                return {}
            continue
        items = list(terms.items())
        t = len(items)
        sgn_atoms = None
        if t > 1:
            tuples = comb(n + t - 1, t - 1) if n < MAX_TERMS else MAX_TERMS + 1
            # at n <= 1 a factor has t tuples, and its t masks need t <= 2^s
            if n > 1 and all(k == SGN for m in terms for k, *_ in m):
                sgn_atoms = sorted({(k, d, s) for m in terms for k, d, s, _ in m})
                if 1 << len(sgn_atoms) >= tuples:
                    sgn_atoms = None
            count *= tuples if sgn_atoms is None else 1 << len(sgn_atoms)
            counted["C(n+t-1, t-1)" if sgn_atoms is None else "2^s"] = None
        q = lcm(*[c.denominator for _, c in items])
        ps = [c.numerator * (q // c.denominator) for _, c in items]
        size = sum(map(abs, ps))
        too_long = too_long or (max(size, q).bit_length() - 1) * n > MAX_BITS
        if not too_long:
            bound *= size**n
            den *= q**n
        plan.append((items, ps, sgn_atoms, n))
    if count > MAX_TERMS:
        raise SizeLimit(f"power's monomial count {' * '.join(counted)} exceeds the limit of {MAX_TERMS}")
    g = gcd(bound, den) if count == 1 else 1
    what = "power's coefficient" if count == 1 else "power's coefficient bound ||c||_1^n"
    # past the bit rule the bound is not built: 10^MAX_DIGITS stands in
    _check_digits(what, 10**MAX_DIGITS if too_long else bound // g, den // g)
    parts = [(1, ())]
    for items, ps, sgn_atoms, n in plan:
        expanded = _multinomial(items, ps, n) if sgn_atoms is None else _sgn_power(items, ps, sgn_atoms, n)
        parts = [(c * p, atoms + more) for c, atoms in parts for p, more in expanded]
    acc: dict[tuple, int] = {}
    for c, atoms in parts:
        key = _monomial(atoms)
        acc[key] = acc.get(key, 0) + c
    out = {m: Fraction(v, den) for m, v in acc.items() if v}
    _check_digits("power's exponent", *(e for m in out for k, _, _, e in m if k == ABS1))
    return out


class CanonicalForm:
    """Normalized formula: domain lattice plus monomial -> coefficient map.

    Monomials are the tuples `_monomial` builds; sgn atoms keep shift 0.
    The domain is None only while a parser reads the formula.
    """

    __slots__ = ("domain", "terms")

    def __init__(self, domain: CoeffLattice | None, terms: Mapping[tuple, Fraction]):
        self.domain = domain
        self.terms = {
            m: c if isinstance(c, Fraction) else Fraction(c)
            for m, c in terms.items()
            if c
        }

    # -- construction --------------------------------------------------

    @classmethod
    def constant(cls, q, domain: CoeffLattice) -> "CanonicalForm":
        return cls(domain, {(): Fraction(q)})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CanonicalForm)
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- ring structure ---------------------------------------------------

    def _aligned(self, other: "CanonicalForm") -> tuple[CoeffLattice, "CanonicalForm", "CanonicalForm"]:
        if self.domain == other.domain:
            return self.domain, self, other
        dom = intersect(self.domain, other.domain)
        return dom, CanonicalForm(dom, self.terms), CanonicalForm(dom, other.terms)

    def __add__(self, other) -> "CanonicalForm":
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        dom, f, g = self._aligned(other)
        acc = dict(f.terms)
        for m, c in g.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return CanonicalForm(dom, acc)

    def __neg__(self) -> "CanonicalForm":
        return CanonicalForm(self.domain, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "CanonicalForm":
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "CanonicalForm":
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        dom, f, g = self._aligned(other)
        return CanonicalForm(dom, _expand([(f.terms, 1), (g.terms, 1)]))

    def __truediv__(self, other) -> "CanonicalForm":
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        dom, f, g = self._aligned(other)
        return CanonicalForm(dom, _expand([(f.terms, 1), (g._inverse(), 1)]))

    def __pow__(self, n: int) -> "CanonicalForm":
        n = int(n)
        if n < 0:
            return CanonicalForm(self.domain, _expand([(self._inverse(), -n)]))
        return CanonicalForm(self.domain, _expand([(self.terms, n)]))

    def _inverse(self) -> dict[tuple, Fraction]:
        """The term map of 1/f, for f of one term; its sgn exponent -1
        is taken mod 2 by the product it enters."""
        if self.is_zero():
            raise DivisionByZero("division by the zero formula")
        if len(self.terms) > 1:
            raise NonMonomialDivisor(
                f"divisor has {len(self.terms)} terms; only single-monomial "
                f"denominators are invertible"
            )
        ((m, c),) = self.terms.items()
        return {_raised(m, -1): Fraction(c.denominator, c.numerator)}

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Deterministic canonical text; parse(text(f), dom) == f."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in sorted(self.terms.items()):
            body = _monomial_text(m)
            n, q = c.numerator, c.denominator
            mag = _magnitude_text(n, q)
            if not body:
                piece = mag
            elif q == 1 and (n == 1 or n == -1):
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(piece if n > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if n > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"CanonicalForm({self.text()})"


class PeriodModule(FrozenRecord):
    """Exact description of all formal periods of a formula.

    Admissible shift vectors s satisfy s_d = 0 for d in zero_coords and,
    for each parity constraint S, sum(s_d for d in S) even; as_lattice
    is that solution set inside the domain, generators_real its rows as
    real numbers.
    """

    __slots__ = _fields = ("zero_coords", "parity_constraints", "as_lattice", "generators_real")


class CompositionResult(FrozenRecord):
    """Whether slope*L is an integer multiple n of T (exactly)."""

    __slots__ = _fields = ("holds", "n")

    def __init__(self, holds: bool, n: int | None = None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "n", n)


# -- parsing ---------------------------------------------------------------

# One lexicon for formulas, reals and scenario files.  The one group is
# a token, read after any whitespace and `#` comments: a numeral, a name,
# a quoted string, an operator, any other single character (which is
# outside the lexicon), or the empty token at the end of the text.
_TOKEN = re.compile(r'(?:\s+|#[^\n]*)*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|"[^"\n]*"|[-+*/^()\[\],=;]|.|\Z)')
_max_str_digits = getattr(sys, "get_int_max_str_digits", None)  # Python >= 3.11


def _fault(tok: str) -> str | None:
    """Why a token is outside the lexicon, or None: a lone `"`, a
    character no token is made of, or a numeral longer than Python's
    integer string limit."""
    if tok == '"':
        return "unterminated string"
    if len(tok) == 1 and not (tok in "-+*/^()[],=;_" or tok.isascii() and tok.isalnum()):
        return f"unexpected character {tok!r}"
    limit = _max_str_digits() if _max_str_digits else 0  # 0: no limit
    if 0 < limit < len(tok) and tok.isdigit():
        return f"numeral of {len(tok)} digits exceeds Python's integer string limit ({limit} digits)"
    return None


def _divide(a, b):
    """a / b, where each is an int, a Fraction, an ExactReal or a
    CanonicalForm: two ints make one Fraction, and every zero divisor of
    a real fails alike."""
    if not b:
        raise DivisionByZero("invert of zero element")
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


# binary operators: (precedence, operation) on reals and formulas alike
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul), "/": (2, _divide)}


class _Parser:
    """Recursive descent over one token list, for reals and formulas alike.

    expr := factor (BINARY factor)*, left to right, `*` and `/` binding
    tighter than `+` and `-` (`_BINARY`);
    factor := ('-'|'+') factor | primary ('^' ['-'] INT)*;
    real primary := INT | 'sqrt' '(' INT ')' | '(' expr ')';
    formula primary := INT | NAME | call | '(' expr ')';
    call := ('abs1'|'recip'|'sgn') '(' ('one' | 'sqrt' '(' INT ')')
            (('+'|'-') INT)? ')'

    A token is its text (`_TOKEN`), and a position is a token's index in
    `toks`: `i` is the current token's.  The accessors match tokens by
    text and read a numeral with int() where they consume it.  An
    error carries the index of the token at fault in its `pos` until it
    leaves `parse`, `parse_real` or `scenario.parse_scenario`, which turn
    it into the token's offset in the text (`offset`) by scanning it
    again; no offset is kept for the tokens that parse.

    A real is built from plain rationals: a numeral is an int, `+ - *`
    act on ints and Fractions as they are, `int / int` is one Fraction,
    and an ExactReal first appears at `sqrt`, so `real_expr` wraps a
    rational result once.  A zero divisor of any of these types fails
    alike (`_divide`).  A formula's numerals are CanonicalForm constants.
    Powers belong to formulas only.  NAME is a key of `functions`, the
    caller's name -> CanonicalForm mapping.  A formula is read with no
    domain: `refs` collects the domains of the functions it names,
    `atoms` its (radicand, index of '(') pairs, and `bind` places it.
    A syntax error is raised at once, through `fail`, which reports a
    token outside the lexicon (`_fault`) at the current token first: no
    accessor matches one, so such a token is an error exactly where
    parsing reaches it.  A value that fails (a division by zero, a non-monomial
    divisor, a power or radicand past its limit, an atom outside the
    domain basis) is kept in `value_error` at its token while parsing
    goes on, and nothing is computed after it, so a syntax error
    anywhere in the text is reported first; `done` raises the earliest
    kept error once the whole text has parsed.
    """

    def __init__(self, text: str, functions: Mapping[str, CanonicalForm]):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.i = 0
        self.functions = functions
        self.refs: list[CoeffLattice] | None = None  # None while reading a real
        self.atoms: list[tuple[int, int]] = []
        self.value_error: PeriodalgError | None = None  # the earliest one

    def peek(self) -> str:
        return self.toks[self.i]

    def fail(self, message: str, i: int | None = None):
        """Raise a ParseError at token i, by default the current one,
        unless that token is outside the lexicon: then its own error."""
        if i is None:
            i = self.i
        raise ParseError(_fault(self.toks[i]) or message, i)

    def offset(self, i: int) -> int:
        """The offset of token i in the text."""
        return next(islice(_TOKEN.finditer(self.text), i, None)).start(1)

    def accept(self, *texts: str) -> str | None:
        tok = self.toks[self.i]
        if tok in texts:
            self.i += 1
            return tok
        return None

    def expect(self, text: str):
        if self.toks[self.i] != text:
            self.fail(f"expected {text!r}")
        self.i += 1

    def accept_num(self) -> int | None:
        tok = self.toks[self.i]
        if tok.isdigit() and tok.isascii():
            try:
                n = int(tok)
            except ValueError:  # past the integer string limit; `fail` says so
                return None
            self.i += 1
            return n
        return None

    def expect_num(self) -> int:
        n = self.accept_num()
        if n is None:
            self.fail("expected an integer")
        return n

    def signed_num(self) -> int:
        if self.accept("-"):
            return -self.expect_num()
        return self.expect_num()

    def sqrt_arg(self) -> int:
        self.expect("(")
        d = self.expect_num()
        self.expect(")")
        return d

    def done(self):
        if self.toks[self.i]:
            self.fail("unexpected trailing input")
        if self.value_error is not None:
            raise self.value_error

    def keep(self, exc: PeriodalgError, pos: int):
        """Keep a failed value at `pos`, unless an earlier one is kept."""
        if self.value_error is None or pos < self.value_error.pos:
            exc.pos = pos
            self.value_error = exc

    def combine(self, pos: int, op, v, *args):
        """op(v, *args), or v with the failure kept at `pos`; once a value
        has failed, op is not called."""
        if self.value_error is None:
            try:
                return op(v, *args)
            except (PeriodalgError, ValueError) as exc:
                self.keep(exc, pos)
        return v

    def real_expr(self) -> ExactReal:
        self.refs = None
        v = self.expr()
        return v if isinstance(v, ExactReal) else ExactReal.rational(v)

    def form_expr(self) -> CanonicalForm:
        """A formula with no domain yet; `bind` gives it one."""
        self.refs, self.atoms = [], []
        return self.expr()

    def bind(self, form: CanonicalForm, domains: Sequence[CoeffLattice], pos: int):
        """`form` on the meet of `domains` and the domains it names.

        Every atom's radicand must be in the meet's basis.  A formula
        with no domain at all fails at `pos`.
        """
        dom = None
        for d in (*domains, *self.refs):
            dom = d if dom is None or d == dom else intersect(dom, d)
        if dom is None:
            msg = "the formula needs 'on <domain>' or a function reference"
            self.keep(ParseError(msg, pos), pos)
            return form
        for d, apos in self.atoms:
            if d not in dom.basis:
                msg = f"sqrt({d}) is not a coordinate of the domain basis"
                self.keep(UnknownRadicand(msg), apos)
        return CanonicalForm(dom, form.terms)

    def expr(self, level: int = 1):
        """Factors joined by binary operators of precedence `level` or more."""
        v = self.factor()
        while True:
            i = self.i
            prec, op = _BINARY.get(self.toks[i], (0, None))
            if prec < level:
                return v
            self.i += 1
            v = self.combine(i, op, v, self.expr(prec + 1))

    def factor(self):
        sign = self.accept("-", "+")
        if sign:
            v = self.factor()
            return -v if sign == "-" else v
        v = self.primary()
        if self.refs is not None:
            while self.toks[self.i] == "^":
                i = self.i
                self.i += 1
                v = self.combine(i, operator.pow, v, self.signed_num())
        return v

    def primary(self):
        i = self.i
        n = self.accept_num()
        if n is not None:
            return n if self.refs is None else CanonicalForm.constant(n, None)
        if self.accept("("):
            v = self.expr()
            self.expect(")")
            return v
        if self.refs is None:
            if not self.accept("sqrt"):
                self.fail("expected a number or sqrt(...)")
            d = self.sqrt_arg()
            if d <= 0:
                self.keep(ParseError("sqrt needs a positive integer", i), i)
            return self.combine(i, ExactReal.sqrt, d)
        name = self.toks[i]
        if name in self.functions:
            self.i += 1
            f = self.functions[name]
            self.refs.append(f.domain)
            return CanonicalForm(None, f.terms)
        if self.accept(ABS1, "recip", SGN):
            return self.call(name)
        self.fail(f"unknown function {name!r}" if name.isidentifier() else "expected a formula term")

    def call(self, name: str) -> CanonicalForm:
        i = self.i
        self.expect("(")
        if self.accept("one"):
            d = 1
        elif self.accept("sqrt"):
            d = self.sqrt_arg()
        else:
            self.fail("expected 'one' or 'sqrt(<int>)'")
        s = 0
        if self.accept("+"):
            s = self.expect_num()
        elif self.accept("-"):
            s = -self.expect_num()
        self.expect(")")
        self.atoms.append((d, i))
        if name == SGN:
            return CanonicalForm(None, {((SGN, d, 0, 1),): -1 if s % 2 else 1})
        exp = 1 if name == ABS1 else -1
        return CanonicalForm(None, {((ABS1, d, s, exp),): 1})


def _read(text: str, read):
    """read(parser) over the whole text; an error's token index becomes
    the token's offset on the way out."""
    p = _Parser(text, {})
    try:
        out = read(p)
        p.done()
    except PeriodalgError as exc:
        if exc.pos is not None:
            exc.pos = p.offset(exc.pos)
        raise
    return out


def parse(expr: str, domain: CoeffLattice) -> CanonicalForm:
    """Parse a formula over the domain's coordinates into canonical form."""
    return _read(expr, lambda p: p.bind(p.form_expr(), [domain], 0))


def parse_real(text: str) -> ExactReal:
    """Parse exact-real text like `1 + 2*sqrt(3) - (1/2)*sqrt(5)`."""
    return _read(text, _Parser.real_expr)


# -- operations --------------------------------------------------------------


def shift(f: CanonicalForm, s: Sequence[int]) -> CanonicalForm:
    """The formula of x -> f(x + s), exactly.

    abs1 atoms absorb s into their shift tag; each sgn atom contributes
    a factor (-1)**s_d to its term's coefficient.
    """
    index = f.domain.basis.index
    s = tuple(map(operator.index, s))
    if not member(f.domain, s):
        raise ShiftNotInDomain(f"{list(s)} is not in the domain lattice")
    # A shift adds s_d to every abs1 tag on coordinate d, so the atoms of
    # a monomial keep their order and stay distinct, and distinct
    # monomials stay distinct: the shifted tuples need no normalizing.
    terms = {}
    for m, c in f.terms.items():
        flips = 0
        atoms = []
        for kind, d, t, e in m:
            move = s[index(d)]
            if kind == ABS1:
                t += move
            else:
                flips += move
            atoms.append((kind, d, t, e))
        terms[tuple(atoms)] = -c if flips % 2 else c
    return CanonicalForm(f.domain, terms)


def _shift_vector(T: ExactReal, domain: CoeffLattice) -> tuple[int, ...]:
    # the least radicand outside the basis, else the first coordinate in
    # basis order that is not an integer, whatever the order of nums
    basis = domain.basis
    outside = T.nums.keys() - basis
    if outside:
        raise ShiftNotInDomain(f"shift has a sqrt({min(outside)}) component outside the domain basis")
    if T.den != 1:
        # gcd(den, *nums) == 1, so some numerator is no multiple of den
        d = next(d for d in basis if T.nums.get(d, 0) % T.den)
        name = "1" if d == 1 else f"sqrt({d})"
        raise NonIntegralShift(f"coordinate of {name} is {Fraction(T.nums[d], T.den)}, not an integer")
    return tuple(T.nums.get(d, 0) for d in basis)


def shift_difference(f: CanonicalForm, T: ExactReal) -> CanonicalForm:
    """f(x + T) - f(x); identically zero IFF T is a formal period."""
    vec = _shift_vector(T, f.domain)
    return shift(f, vec) - f


def period_module(f: CanonicalForm) -> PeriodModule:
    """All formal periods of f, as an explicit sublattice of the domain.

    A shift by s maps each abs1(d, t) to abs1(d, t + s_d): the multiset
    of tags strictly translates unless s_d = 0, so every abs1-bearing
    coordinate is forced to zero.  Each term's sgn atoms multiply the
    coefficient by (-1) to the sum of their s_d, forcing even parity per
    term.  Those conditions are also sufficient, term by term.  One
    `lattice.cut` of the domain, which `intersect` also calls, applies
    them all: a value s_d with modulus 0 per zero coordinate and a sum
    over S with modulus 2 per parity set S.
    """
    basis = f.domain.basis
    zero_coords = frozenset(
        d for m in f.terms for kind, d, _, _ in m if kind == ABS1
    )
    parity = sorted(
        {frozenset(d for kind, d, _, _ in m if kind == SGN) for m in f.terms}
        - {frozenset()},
        key=sorted,
    )
    zero = [i for i, d in enumerate(basis) if d in zero_coords]
    sets = [[basis.index(d) for d in S] for S in parity]
    values = [
        tuple(h[i] for i in zero) + tuple(sum(h[j] for j in js) % 2 for js in sets)
        for h in f.domain.hnf
    ]
    width = len(zero) + len(sets)
    moduli = [tuple(2 * (j == i) for j in range(width)) for i in range(len(zero), width)]
    lat = cut(f.domain, values, moduli)
    gens_real = tuple(lat.to_real(row) for row in lat.hnf)
    return PeriodModule(
        zero_coords=zero_coords,
        parity_constraints=tuple(parity),
        as_lattice=lat,
        generators_real=gens_real,
    )


def _compile(f: CanonicalForm):
    """Closure evaluating f at an integer vector as an unreduced (num, den).

    A power b^e with (b.bit_length() - 1) * |e| > MAX_BITS, the rule of
    `_expand`, raises SizeLimit before it is built: each
    abs1 atom keeps the least such b, 2^(MAX_BITS // |e| + 1).
    """
    index = f.domain.basis.index
    spec = []
    for m, c in f.terms.items():
        atoms = tuple(
            (kind == SGN, index(d), t, e, 1 << (MAX_BITS // abs(e) + 1))
            for kind, d, t, e in m
        )
        spec.append((c.numerator, c.denominator, atoms))

    def ev(x) -> tuple[int, int]:
        tn, td = 0, 1
        for cn, cd, atoms in spec:
            n, d = cn, cd
            for is_sgn, i, sh, e, too_big in atoms:
                if is_sgn:
                    if x[i] & 1:
                        n = -n
                else:
                    b = abs(x[i] + sh) + 1
                    if b >= too_big:
                        raise SizeLimit(f"power's value exceeds the limit of {MAX_DIGITS} digits")
                    if e >= 0:
                        n *= b**e
                    else:
                        d *= b**(-e)
            tn = tn * d + n * td
            td *= d
        return tn, td

    return ev


def find_counterexample(
    f: CanonicalForm, T: ExactReal, bound: int = 25
) -> tuple[int, ...] | NotFound:
    """Bounded exact refutation of "T is a period of f".

    A shift that leaves the domain lattice breaks D + T = D, witnessed
    at the origin.  Otherwise the canonical difference f(x + T) - f(x)
    is built once; when it is identically zero, T is a formal period
    (shifting is exact and D + T = D), so no point can witness and the
    result is NotFound(bound) without evaluating any.  Else the compiled
    difference is evaluated at lattice points x = sum(a_i * h_i) over
    the domain's HNF rows with every a_i in 0, 1, -1, ..., bound, -bound
    (the last coefficient fastest, so witnesses near the origin surface
    first), and the first x where it is nonzero is returned.  The walk
    is an odometer that holds one point: a step moves one coefficient
    to its next value and x by the change times its row, and a
    coefficient past -bound returns to 0 and carries.
    """
    s = _shift_vector(T, f.domain)
    try:
        diff = shift(f, s) - f
    except ShiftNotInDomain:
        return tuple([0] * len(s))
    if diff.is_zero():
        return NotFound(bound)
    ev = _compile(diff)
    rows = f.domain.hnf
    x = [0] * len(s)
    a = [0] * len(rows)

    def move(j: int, value: int):
        step = value - a[j]
        a[j] = value
        for c, h in enumerate(rows[j]):
            x[c] += step * h

    while not ev(x)[0]:
        j = len(rows) - 1
        while j >= 0 and a[j] <= -bound:  # run out (at once when bound < 1)
            move(j, 0)
            j -= 1
        if j < 0:
            return NotFound(bound)
        move(j, -a[j] if a[j] > 0 else 1 - a[j])
    return tuple(x)


def evaluate(f: CanonicalForm, v: Sequence[int]) -> Fraction:
    """Exact rational value of f at a domain point; a value of more than
    MAX_DIGITS digits raises SizeLimit."""
    v = tuple(map(operator.index, v))
    if not member(f.domain, v):
        raise NotInDomain(f"{list(v)} is not in the domain lattice")
    q = Fraction(*_compile(f)(v))
    _check_digits("function's value", *q.as_integer_ratio())
    return q


def composition_check(slope: ExactReal, T: ExactReal, L: ExactReal) -> CompositionResult:
    """Does an affine map with this slope push period L onto a multiple of T?

    Exactly when slope * L / T is an integer n, every function with
    period T composes with the affine map to an L-periodic function.
    The ratio is read off by `commensurable`, with no inversion of T.
    """
    if T.is_zero():
        raise DivisionByZero("zero period T")
    if L.is_zero():
        raise ValueError("zero period L")
    if slope.is_zero():
        return CompositionResult(holds=True, n=0)
    q = commensurable(slope * L, T)
    if q is not None and q.denominator == 1:
        return CompositionResult(holds=True, n=int(q))
    return CompositionResult(holds=False, n=None)
