"""Exception types and the record base of the package's result types.

Every error names something about the input or the caller: a malformed
text, a value outside a domain, a zero divisor, an input past one of the
library's own size limits.  None of them stands for an internal
precision or iteration cap: exact signs and floors refine until they
are decided, and `dirichlet_find` walks convergents until one is close
enough.  A search bounded by the caller that finds nothing returns
`NotFound` instead of raising.
"""


class Record:
    """Base of the package's small result, option and parse types.

    A subclass lists its fields in `_fields`, in constructor order; the
    one `__init__` binds positional and keyword arguments to them, as a
    function with those parameters would, and a subclass writes its own
    only to give defaults.  Records compare equal field by field,
    and only to an instance of the same class, print as
    `Name(field=value, ...)`, and copy and pickle through their
    constructor.  A plain record's fields may change, so it is
    unhashable.  They are not dataclasses: importing `dataclasses` and
    building the classes took about a fifth of `import periodalg`
    (docs/method-notes.md, "Import cost").
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # as many values as fields and each field bound: none is unknown
        # or given twice
        if len(args) + len(kwargs) == len(fields):
            try:
                for field in fields:
                    object.__setattr__(self, field, values[field])
                return
            except KeyError:
                pass
        raise TypeError(
            f"{type(self).__qualname__}() takes ({', '.join(fields)}), each once; got "
            f"{len(args)} positional and the keywords ({', '.join(kwargs)})"
        )

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A record set once, by `__init__`: assigning or deleting a field
    raises AttributeError, and equal records hash equal."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NotFound(FrozenRecord):
    """Returned (never raised) by bounded searches that come up empty.

    Carries the bound that was exhausted so reports can state how far
    the search went.
    """

    __slots__ = _fields = ("bound",)


class PeriodalgError(Exception):
    """Base class for all errors raised by this package.

    `pos`, when a parser raised the error, is the 0-based offset of the
    token at fault.
    """

    pos: int | None = None


class DivisionByZero(PeriodalgError, ZeroDivisionError):
    """Inversion or division of an exactly-zero element."""


class DimensionMismatch(PeriodalgError):
    """Vector length does not match the lattice's coordinate count."""


class EmptyInput(PeriodalgError):
    """An operation requiring at least one element got none."""


class ParseError(PeriodalgError):
    """Malformed expression text, at the offending token's `pos`."""

    def __init__(self, message: str, pos: int):
        super().__init__(message, pos)
        self.message = message
        self.pos = pos

    def __str__(self) -> str:
        return f"{self.message} (at position {self.pos})"


class NonMonomialDivisor(PeriodalgError):
    """Division is only defined for single-monomial denominators."""


class UnknownRadicand(PeriodalgError):
    """A radicand is absent from the basis it must be read in.

    A formula atom's radicand must be in its domain's basis, and a
    lattice's radicands in the basis `CoeffLattice.embed` targets.
    """


class ShiftNotInDomain(PeriodalgError):
    """Shift vector is not a member of the function's domain lattice."""


class NonIntegralShift(PeriodalgError):
    """Shift amount has non-integer coordinates over the domain basis."""


class NotInDomain(PeriodalgError):
    """Evaluation point is not a member of the domain lattice."""


class ModulusMismatch(PeriodalgError):
    """Interval patterns with different moduli cannot be compared."""


class FullLine(PeriodalgError):
    """The pattern is the whole line; every real is a period."""


class EmptyPattern(PeriodalgError):
    """The pattern is empty; the fundamental period is undefined."""


class SizeLimit(PeriodalgError):
    """An input past one of the library's own size limits, named in the
    message and checked before the work it would take."""


class CommensurableInput(PeriodalgError):
    """Density search requires incommensurable generators.

    With a rational ratio T1*Z + T2*Z is discrete, so no witness exists
    for a small enough eps.
    """


class ScenarioError(PeriodalgError):
    """Base class for scenario-file problems (exit code 2)."""


class ScenarioSyntaxError(ScenarioError):
    """Malformed scenario text, or a value that fails while it is read.

    `line` and `col` are 1-based and point at the offending token.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ScenarioNameError(ScenarioError):
    """Unbound or rebound name in a scenario file.

    `line` and `col` are 1-based and point at the name; the message
    ends in ` at line N`.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}")
        self.line = line
        self.col = col


class AnalysisError(PeriodalgError):
    """An analysis failed while executing (exit code 3).

    Wraps the underlying module error together with the analysis index.
    """

    def __init__(self, index: int, kind: str, cause: Exception):
        super().__init__(f"analysis #{index} ({kind}): {cause}")
        self.index = index
        self.kind = kind
        self.cause = cause
