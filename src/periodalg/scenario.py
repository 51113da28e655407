"""Scenario files: declarations plus analysis requests, and their runner.

A scenario is a small script of statements, each ended by `;`:

    scenario "name";                       # optional, first
    basis B = basis(1, sqrt(2), sqrt(3));
    domain D = lattice[(1,0,0), (0,1,0), (0,0,1)] over B;
    function f = sgn(sqrt(3)) on D;
    function h = f + f;                    # domain inferred from references
    pattern P mod 1 = (0, 1/4) u (1/2, 3/4);
    analyze period_module f;

Names are resolved while parsing, so a parsed scenario is a closed list
of ready-to-run analyses.  Running produces a Report whose JSON region
is a pure function of the scenario text: deterministic ordering, exact
values rendered as canonical round-trippable text, decimals carried
only as tagged non-authoritative extras, and timing kept outside the
comparison region.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _encode_str

from . import approx as approxmod
from . import funcalg, lattice, pointsets
from .errors import (
    AnalysisError,
    NotFound,
    ParseError,
    Record,
    ScenarioError,
    ScenarioNameError,
    ScenarioSyntaxError,
)
from .exactreal import ExactReal, RadicalBasis
from .funcalg import CanonicalForm
from .lattice import CoeffLattice, Discrete
from .pointsets import IntervalPattern


# -- parsed objects ----------------------------------------------------------


class Analysis(Record):
    """One `analyze` statement: its kind and `args`, slot -> value, with
    a (name, value) pair for a function, pattern or domain slot; an
    omitted optional slot is absent."""

    __slots__ = _fields = ("kind", "args")


class Scenario(Record):
    """A parsed scenario: its name, its bindings by kind, its analyses.

    An omitted table starts empty, a new one per scenario.
    """

    __slots__ = _fields = ("name", "bases", "domains", "functions", "patterns", "analyses")

    def __init__(
        self,
        name: str,
        bases: dict[str, RadicalBasis] | None = None,
        domains: dict[str, CoeffLattice] | None = None,
        functions: dict[str, CanonicalForm] | None = None,
        patterns: dict[str, IntervalPattern] | None = None,
        analyses: list[Analysis] | None = None,
    ):
        self.name = name
        self.bases = {} if bases is None else bases
        self.domains = {} if domains is None else domains
        self.functions = {} if functions is None else functions
        self.patterns = {} if patterns is None else patterns
        self.analyses = [] if analyses is None else analyses


_STATEMENTS = ("scenario", "basis", "domain", "function", "pattern", "analyze")


class _ScenarioParser(funcalg._Parser):
    """Statements on top of funcalg's tokens and real/formula grammar.

    A `function` statement reads its formula, then its optional `on D`,
    and `bind` puts the formula on the meet of D and the domains it
    names.  A value that fails while a statement is read, including a
    basis radicand, a lattice's width and a pattern's intervals, is
    kept at its token as in funcalg and raised as a ParseError once
    the statement has parsed up to its ';'.  Positions are token
    indices, as in funcalg; `line_col` turns one into a line and column
    for parse_scenario's error and for a ScenarioNameError, which
    carries the name's.
    """

    def __init__(self, text: str, default_name: str):
        self.sc = Scenario(name=default_name)
        super().__init__(text, self.sc.functions)

    # token helpers

    def line_col(self, i: int) -> tuple[int, int]:
        """1-based line and column of token i."""
        pos = self.offset(i)
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def expect_keyword(self, word: str):
        if not self.accept(word):
            self.fail(f"expected keyword {word!r}")

    def expect_name(self) -> str:
        name = self.peek()
        if not (name.isidentifier() and name.isascii()):
            self.fail("expected a name")
        self.i += 1
        return name

    def fresh_name(self) -> str:
        i = self.i
        name = self.expect_name()
        if name in _RESERVED:
            raise ScenarioNameError(f"{name!r} is a reserved word", *self.line_col(i))
        for space in (self.sc.bases, self.sc.domains, self.sc.functions, self.sc.patterns):
            if name in space:
                raise ScenarioNameError(f"{name!r} is already bound", *self.line_col(i))
        return name

    def lookup(self, space: dict, what: str) -> tuple[str, object]:
        i = self.i
        name = self.expect_name()
        if name not in space:
            raise ScenarioNameError(f"unknown {what} {name!r}", *self.line_col(i))
        return name, space[name]

    # statements

    def parse(self) -> Scenario:
        first = True
        while word := self.peek():
            if not word.isidentifier():
                self.fail("expected a statement keyword")
            if word == "scenario" and not first:
                self.fail("'scenario' must be the first statement")
            if word not in _STATEMENTS:
                self.fail(f"unknown statement {word!r}")
            self.i += 1
            try:
                getattr(self, f"stmt_{word}")()
                self.expect(";")
            except ScenarioNameError:
                if self.value_error is None:
                    raise
            exc = self.value_error
            if exc is not None:
                raise ParseError(getattr(exc, "message", str(exc)), exc.pos) from None
            first = False
        return self.sc

    def stmt_scenario(self):
        name = self.peek()
        if len(name) < 2 or name[0] != '"':
            self.fail("expected a quoted scenario name")
        self.i += 1
        self.sc.name = name[1:-1]

    def parse_basis_literal(self) -> RadicalBasis:
        self.expect_keyword("basis")
        self.expect("(")
        rads = []
        while True:
            i = self.i
            if self.accept("sqrt"):
                d = self.sqrt_arg()
            elif self.accept_num() == 1:
                d = 1
            else:
                self.fail("expected 1 or sqrt(<int>)", i)
            self.combine(i, RadicalBasis, [d])  # each radicand where it was read
            if rads and d <= rads[-1]:  # RadicalBasis sorts, so the text must be sorted
                prev, cur = (r if r == 1 else f"sqrt({r})" for r in (rads[-1], d))
                self.keep(ValueError(f"basis radicals must increase: {cur} after {prev}"), i)
            rads.append(d)
            if not self.accept(","):
                break
        self.expect(")")
        return self.combine(i, RadicalBasis, rads)  # built only if every radicand passed

    def stmt_basis(self):
        name = self.fresh_name()
        self.expect("=")
        self.sc.bases[name] = self.parse_basis_literal()

    def stmt_domain(self):
        i = self.i - 1  # the 'domain' keyword
        name = self.fresh_name()
        self.expect("=")
        self.expect_keyword("lattice")
        self.expect("[")
        vectors = []
        while True:
            self.expect("(")
            vec = [self.signed_num()]
            while self.accept(","):
                vec.append(self.signed_num())
            self.expect(")")
            vectors.append(tuple(vec))
            if not self.accept(","):
                break
        self.expect("]")
        self.expect_keyword("over")
        if self.peek() == "basis":
            basis = self.parse_basis_literal()
        else:
            _, basis = self.lookup(self.sc.bases, "basis")
        self.sc.domains[name] = self.combine(i, CoeffLattice, vectors, basis)

    def stmt_function(self):
        name = self.fresh_name()
        self.expect("=")
        i = self.i
        form = self.form_expr()
        domains = []
        if self.accept("on"):
            domains.append(self.lookup(self.sc.domains, "domain")[1])
        self.sc.functions[name] = self.bind(form, domains, i)

    def stmt_pattern(self):
        name = self.fresh_name()
        self.expect_keyword("mod")
        modulus = self.real_expr()
        self.expect("=")
        intervals = []
        while True:
            self.expect("(")
            lo = self.real_expr()
            self.expect(",")
            hi = self.real_expr()
            self.expect(")")
            intervals.append((lo, hi))
            if not self.accept("u"):
                break
        wrap = bool(self.accept("wrap"))
        self.sc.patterns[name] = self.combine(self.i, IntervalPattern, modulus, intervals, wrap)

    def read(self, reader: str):
        """One analysis argument, by its reader in the analysis table."""
        if reader == "real":
            return self.real_expr()
        if reader == "int":
            return self.expect_num()
        if reader in _NAMED:
            return self.lookup(getattr(self.sc, reader + "s"), reader)
        bracketed = reader == "[real_list]"
        if bracketed:
            self.expect("[")
        values = [self.real_expr()]
        while self.accept(","):
            values.append(self.real_expr())
        if bracketed:
            self.expect("]")
        return values

    def stmt_analyze(self):
        i = self.i - 1  # the 'analyze' keyword
        kind = self.expect_name()
        if kind not in ANALYSES:
            self.fail(f"unknown analysis kind {kind!r}", i)
        args: dict[str, object] = {}
        for lead, slot, reader, fallback in ANALYSES[kind][0]:
            if fallback is not None:
                if not self.accept(lead):
                    continue  # run_scenario fills it in
            elif lead == ",":
                self.expect(",")
            elif lead:
                self.expect_keyword(lead)
            args[slot] = self.read(reader)
        self.sc.analyses.append(Analysis(kind=kind, args=args))


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    p = _ScenarioParser(text, default_name)
    try:
        return p.parse()
    except ParseError as exc:
        raise ScenarioSyntaxError(exc.message, *p.line_col(exc.pos)) from None


# -- execution ---------------------------------------------------------------


class RunOptions(Record):
    """Defaults for optional analysis arguments, set by the CLI flags.

    The defaults stay readable on the class (`RunOptions.bound`), where
    the CLI takes its own; instances keep their fields in a dict.
    """

    _fields = ("bound", "depth", "eps")
    bound: int = 25  # counterexample box bound
    depth: int = 10  # continued fraction depth
    eps: ExactReal | None = None  # dirichlet / kronecker tolerance: no default

    def __init__(self, bound: int = bound, depth: int = depth, eps: ExactReal | None = eps):
        self.bound = bound
        self.depth = depth
        self.eps = eps


class Report(Record):
    """A run's results, one dict per analysis, and its (kind, seconds)
    `timings`, which stay outside the comparison region."""

    __slots__ = _fields = ("scenario_name", "version", "results", "timings")

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "version": self.version,
            "approx_policy": "approx fields are 12-significant-digit decimals, "
            "non-authoritative; exact fields are the ground truth",
            "results": self.results,
        }

    def to_json(self) -> str:
        """The report region as JSON: byte for byte what
        `json.dumps(self.to_json_dict(), indent=2) + "\\n"` returns, the
        format of the frozen `.expected.json` reports.

        `json.dumps` is not called because an indent sends it to its
        pure-Python encoder, which took about a seventh of a small
        scenario's parse, run and render time.  `_json` writes the same
        bytes with one join per container, so no flat list of small
        pieces is held at once.
        """
        return _json(self.to_json_dict(), "\n") + "\n"

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario_name}", f"version: {self.version}"]
        for idx, res in enumerate(self.results, 1):
            lines.append("")
            lines.append(f"[{idx}] {res['kind']}")
            for section in ("inputs", "exact", "approx", "witness"):
                if section not in res:
                    continue
                for key, value in res[section].items():
                    lines.append(f"    {section[:-1] if section == 'inputs' else section} {key}: {_plain(value)}")
            lines.append(f"    verdict: {res['verdict']}")
        return "\n".join(lines) + "\n"


def _json(value, newline: str) -> str:
    """`value` as `json.dumps(value, indent=2)` writes it at one depth.

    `newline` is the line break plus the indent of the depth `value`
    starts at.  Strings are escaped by json's own `encode_basestring_ascii`
    and ints rendered by `int.__repr__`, as `json.dumps` does, so an int
    past the interpreter's digit limit raises the same ValueError.  A
    report holds only str, int, bool, None, lists and dicts with str
    keys; anything else is a TypeError.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join(
            [_encode_str(k) + ": " + _json(v, inner) for k, v in value.items()]
        )
        return "{" + inner + body + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + newline + "]"
    raise TypeError(f"a report holds no {type(value).__name__}")


def _plain(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_plain(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _basis_out(basis: RadicalBasis) -> str:
    return "basis(" + ", ".join(
        "1" if d == 1 else f"sqrt({d})" for d in basis
    ) + ")"


def _lattice_out(lat: CoeffLattice) -> dict:
    return {
        "basis": _basis_out(lat.basis),
        "rows": [list(r) for r in lat.hnf],
    }


_VERSION = "0.1.0"


def run_scenario(sc: Scenario, options: RunOptions | None = None) -> Report:
    options = options or RunOptions()
    calls = []
    for idx, an in enumerate(sc.analyses, 1):
        signature, runner, _ = ANALYSES[an.kind]
        args = dict(an.args)
        for _, slot, _, fallback in signature:
            if slot in args:
                continue
            # a required slot is always read, so `fallback` is not None here
            value = getattr(options, fallback) if isinstance(fallback, str) else fallback
            if value is None:
                raise ScenarioError(
                    f"analysis #{idx} ({an.kind}) has no {slot} and no "
                    f"--{fallback} was given"
                )
            args[slot] = value
        calls.append((an.kind, signature, runner, args))
    results: list[dict] = []
    timings: list[tuple[str, float]] = []
    for idx, (kind, signature, runner, args) in enumerate(calls, 1):
        t0 = time.perf_counter()
        try:
            out = runner(**{
                slot: args[slot][1] if reader in _NAMED else args[slot]
                for _, slot, reader, _ in signature
            })
            # the inputs are rendered after the library call, so an input
            # too long to write loses to the library's own typed error
            inputs = _inputs(signature, args)
            inputs.update(out.pop("inputs", ()))
            results.append({"kind": kind, "inputs": inputs, **out})
        except Exception as exc:
            raise AnalysisError(idx, kind, exc) from exc
        timings.append((kind, time.perf_counter() - t0))
    return Report(
        scenario_name=sc.name,
        version=_VERSION,
        results=results,
        timings=timings,
    )


_NAMED = ("function", "pattern", "domain")  # readers whose slot holds (name, value)


def _inputs(signature: tuple[_Slot, ...], args: dict[str, object]) -> dict:
    """A result's `inputs`: each slot in signature order, a real as its
    exact string, a real list as a list of them, an int as it is, and a
    function, pattern or domain by its name, a function followed by its
    `formula` and a pattern by its `definition`."""
    inputs: dict[str, object] = {}
    for _, slot, reader, _ in signature:
        value = args[slot]
        if reader == "int":
            inputs[slot] = value
        elif reader == "real":
            inputs[slot] = str(value)
        elif reader not in _NAMED:
            inputs[slot] = [str(v) for v in value]
        else:
            name, value = value
            inputs[slot] = name
            if reader == "function":
                inputs["formula"] = value.text()
            elif reader == "pattern":
                inputs["definition"] = _pattern_out(value)
    return inputs


# Runners take their signature's slots as keyword arguments, a function,
# pattern or domain slot by its value, and return the result's exact,
# approx, witness and verdict; run_scenario writes the inputs.


def _run_period_module(function) -> dict:
    pm = funcalg.period_module(function)
    return {
        "inputs": {"domain": _lattice_out(function.domain)},
        "exact": {
            "zero_coords": sorted(pm.zero_coords),
            "parity_constraints": [sorted(s) for s in pm.parity_constraints],
            "lattice": _lattice_out(pm.as_lattice),
            "generators": [str(g) for g in pm.generators_real],
        },
        "approx": {"generators": [g.approx_str() for g in pm.generators_real]},
        "verdict": f"period module of rank {pm.as_lattice.rank}",
    }


def _run_commensurable(x, y) -> dict:
    ratio = lattice.commensurable(x, y)
    out = {
        "exact": {"commensurable": ratio is not None},
        "approx": {"x": x.approx_str(), "y": y.approx_str()},
        "verdict": "commensurable" if ratio is not None else "incommensurable",
    }
    if ratio is not None:
        out["witness"] = {"ratio": str(ratio)}
    return out


def _run_classify(periods) -> dict:
    outcome = lattice.classify_group(periods)
    exact: dict[str, object] = {}
    if isinstance(outcome, Discrete):
        exact["classification"] = "discrete"
        exact["T0"] = str(outcome.T0)
        approx = {"T0": outcome.T0.approx_str()}
        verdict = f"discrete: T0 = {str(outcome.T0)}"
    else:
        exact["classification"] = "dense"
        exact["T0"] = None
        approx = {"T0": None}
        verdict = "dense in the reals"
    return {"exact": exact, "approx": approx, "verdict": verdict}


def _run_intersect(first, second) -> dict:
    meet = lattice.intersect(first, second)
    gens = [meet.to_real(row) for row in meet.hnf]
    return {
        "exact": {
            "lattice": _lattice_out(meet),
            "generators": [str(g) for g in gens],
        },
        "approx": {"generators": [g.approx_str() for g in gens]},
        "verdict": f"intersection of rank {meet.rank}",
    }


def _pattern_out(p: IntervalPattern) -> str:
    body = " u ".join(f"({str(a)}, {str(b)})" for a, b in p.intervals)
    if p.wrap_point:
        body += " wrap"
    return f"{body or 'empty'} mod {str(p.modulus)}"


def _run_fundamental_period(pattern) -> dict:
    t0 = pointsets.fundamental_period(pattern)
    return {
        "exact": {"period": str(t0)},
        "approx": {"period": t0.approx_str()},
        "verdict": f"fundamental period {str(t0)}",
    }


def _run_dirichlet(T1, T2, target, eps) -> dict:
    m, n = approxmod.dirichlet_find(T1, T2, target, eps)
    value = T1.scale(m) + T2.scale(n)
    err = value - target
    return {
        "exact": {
            "combination": str(value),
            "error": str(err),
        },
        "approx": {"error": err.approx_str()},
        "witness": {"m": m, "n": n},
        "verdict": "witness verified by exact sign tests",
    }


def _run_kronecker(T, Ts, delta, eps, bound) -> dict:
    got = approxmod.kronecker_find(T, Ts, delta, eps, bound=bound)
    if isinstance(got, NotFound):
        return {
            "exact": {"found": False},
            "approx": {},
            "verdict": f"no witness up to q = {got.bound}",
        }
    q, ps = got
    residuals = [T.scale(q) - t.scale(p) - delta for t, p in zip(Ts, ps)]
    return {
        "exact": {
            "found": True,
            "residuals": [str(r) for r in residuals],
        },
        "approx": {"residuals": [r.approx_str() for r in residuals]},
        "witness": {"q": q, "ps": list(ps)},
        "verdict": "witness verified by exact sign tests",
    }


def _run_cfrac(x, depth) -> dict:
    cf = approxmod.continued_fraction(x, depth)
    verdict = f"{len(cf.quotients)} quotients"
    if cf.terminated:
        verdict += " (rational, expansion complete)"
    return {
        "exact": {
            "quotients": list(cf.quotients),
            "convergents": [[p, q] for p, q in cf.convergents],
            "terminated": cf.terminated,
        },
        "approx": {"x": x.approx_str()},
        "verdict": verdict,
    }


def _run_discrepancy(alpha, N) -> dict:
    dstar = approxmod.orbit_discrepancy(alpha, N)
    as_real = ExactReal.rational(dstar)
    return {
        "exact": {"dstar_upper_bound": str(dstar)},
        "approx": {"dstar_upper_bound": as_real.approx_str()},
        "verdict": f"star discrepancy at most {str(dstar)}",
    }


def _run_composition_check(slope, T, L) -> dict:
    res = funcalg.composition_check(slope, T, L)
    return {
        "exact": {"holds": res.holds, "n": res.n},
        "approx": {},
        "verdict": (
            f"holds: slope*L = {res.n}*T" if res.holds else "does not hold"
        ),
    }


def _run_counterexample(function, shift, bound) -> dict:
    got = funcalg.find_counterexample(function, shift, bound)
    if isinstance(got, NotFound):
        return {
            "exact": {"found": False},
            "approx": {},
            "verdict": f"no counterexample in the search box (bound {got.bound})",
        }
    x = got
    exact: dict[str, object] = {"found": True}
    # find_counterexample has already rejected a shift outside the basis
    vec = funcalg._shift_vector(shift, function.domain)
    shifted = tuple(a + b for a, b in zip(x, vec))
    if lattice.member(function.domain, shifted):
        exact["f_at_x"] = str(funcalg.evaluate(function, x))
        exact["f_at_x_plus_shift"] = str(funcalg.evaluate(function, shifted))
    else:
        exact["domain_invariant"] = False
    return {
        "exact": exact,
        "approx": {},
        "witness": {"x": list(x)},
        "verdict": "counterexample found: the shift is not a period",
    }


# -- the analysis table ------------------------------------------------------

# Each kind is one row `kind -> (signature, runner, layer)`.  The layer
# is the periodalg module the runner calls into; selfcheck names it for
# an analysis that diverges.  A signature lists the slots of
# `analyze <kind> ...` in order, each as (lead, slot, reader,
# fallback): the keyword or "," read before the value ("" for
# none); the runner's parameter the value fills, and its key in the
# result's inputs; the reader, one of
# real, real_list, [real_list] (in brackets), int, function, pattern,
# domain; and None for a required slot, else what an omitted value
# falls back to: a RunOptions field by name, or a constant.  A fallback
# that comes out None is an error before any analysis runs.
_Slot = tuple[str, str, str, object]

ANALYSES: dict[str, tuple[tuple[_Slot, ...], Callable[..., dict], str]] = {
    "period_module": (
        (("", "function", "function", None),), _run_period_module, "funcalg",
    ),
    "commensurable": (
        (("", "x", "real", None), (",", "y", "real", None)),
        _run_commensurable, "lattice",
    ),
    "classify": ((("", "periods", "real_list", None),), _run_classify, "lattice"),
    "intersect": (
        (("", "first", "domain", None), (",", "second", "domain", None)),
        _run_intersect, "lattice",
    ),
    "fundamental_period": (
        (("", "pattern", "pattern", None),), _run_fundamental_period, "pointsets",
    ),
    "dirichlet": (
        (("", "T1", "real", None), (",", "T2", "real", None),
         ("target", "target", "real", None), ("eps", "eps", "real", "eps")),
        _run_dirichlet, "approx",
    ),
    "kronecker": (
        (("", "T", "real", None), ("over", "Ts", "[real_list]", None),
         ("delta", "delta", "real", None), ("eps", "eps", "real", "eps"),
         ("bound", "bound", "int", 10**6)),
        _run_kronecker, "approx",
    ),
    "cfrac": (
        (("", "x", "real", None), ("depth", "depth", "int", "depth")),
        _run_cfrac, "approx",
    ),
    "discrepancy": (
        (("", "alpha", "real", None), ("n", "N", "int", None)),
        _run_discrepancy, "approx",
    ),
    "composition_check": (
        (("slope", "slope", "real", None), ("t", "T", "real", None),
         ("l", "L", "real", None)),
        _run_composition_check, "funcalg",
    ),
    "counterexample": (
        (("", "function", "function", None), ("shift", "shift", "real", None),
         ("bound", "bound", "int", "bound")),
        _run_counterexample, "funcalg",
    ),
}

_RESERVED = (
    set(_STATEMENTS)
    | {"lattice", "over", "on", "mod", "wrap", "u"}
    | {"one", "sqrt", "abs1", "recip", "sgn"}
    | set(ANALYSES)
    | {lead for sig, *_ in ANALYSES.values() for lead, *_ in sig if lead.isidentifier()}
)
