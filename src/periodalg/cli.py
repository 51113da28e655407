"""Command line front end.

    periodalg run <file> [--json OUT] [--bound N] [--depth D] [--eps Q]
    periodalg selfcheck [--json OUT] [--scenario-dir DIR]

`run` executes one scenario file and prints its report to stdout; the
report is a pure function of the scenario text, so repeated runs emit
identical bytes.  Timing goes to stderr only.  Exit codes: 0 success,
2 scenario problem (unreadable file, unwritable --json file, syntax,
names, missing options), 3 analysis failure (also a report integer too
long for Python's integer string limit).

`selfcheck` re-runs the bundled scenarios and compares their reports
byte-for-byte against the frozen expected output; a divergence names
the analysis by index, kind and layer.  It then runs the few library
invariants that no bundled report pins (inversion, floor and sign,
intersect, parse roundtrip, rotation roundtrip), each failure saying
what it expected and what it got.  It exits 1 on any mismatch and 2
when its --json file cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import funcalg, lattice, pointsets, scenario
from .errors import AnalysisError, PeriodalgError, ScenarioError
from .exactreal import ExactReal, RadicalBasis
from .funcalg import parse_real
from .lattice import CoeffLattice
from .pointsets import IntervalPattern
from .scenario import RunOptions, parse_scenario, run_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="periodalg",
        description="exact periodicity analysis for functions on "
        "finitely generated subgroups of the reals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("file", help="scenario file to execute")
    run_p.add_argument("--json", metavar="OUT", help="also write the report as JSON")
    run_p.add_argument(
        "--bound", type=int, metavar="N", default=RunOptions.bound,
        help="default search box bound for counterexample analyses "
        "(default %(default)s)",
    )
    run_p.add_argument(
        "--depth", type=int, metavar="D", default=RunOptions.depth,
        help="default depth for continued fraction analyses (default %(default)s)",
    )
    run_p.add_argument(
        "--eps", metavar="Q",
        help="default tolerance for dirichlet/kronecker analyses, "
        "an exact expression such as 1/10000",
    )

    check_p = sub.add_parser(
        "selfcheck", help="re-run bundled scenarios against frozen reports"
    )
    check_p.add_argument("--json", metavar="OUT", help="write results as JSON")
    check_p.add_argument(
        "--scenario-dir", metavar="DIR",
        help="read scenarios from DIR instead of the bundled set",
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_selfcheck(args)


def _cmd_run(args) -> int:
    options = RunOptions(bound=args.bound, depth=args.depth)
    if args.eps is not None:
        try:
            eps = parse_real(args.eps)
        except PeriodalgError as exc:
            print(f"error: bad --eps: {exc}", file=sys.stderr)
            return 2
        if eps <= 0:
            print("error: --eps must be positive", file=sys.stderr)
            return 2
        options.eps = eps
    if args.bound < 1:
        print("error: --bound must be at least 1", file=sys.stderr)
        return 2
    if args.depth < 1:
        print("error: --depth must be at least 1", file=sys.stderr)
        return 2

    path = Path(args.file)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(text, default_name=path.stem)
    except PeriodalgError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        report = run_scenario(sc, options)
    except ScenarioError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    total = time.perf_counter() - t0

    try:
        text = report.to_text()
        payload = report.to_json() if args.json else None
    except ValueError as exc:  # an integer past Python's string limit
        print(f"error: {args.file}: cannot render the report: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    if payload is not None and not _write(args.json, payload):
        return 2
    for idx, (kind, dt) in enumerate(report.timings, 1):
        print(f"# timing [{idx}] {kind}: {dt * 1000:.3f} ms", file=sys.stderr)
    print(f"# timing total: {total * 1000:.3f} ms", file=sys.stderr)
    return 0


def _write(path: str, text: str) -> bool:
    """Write text to path, or print why it cannot be and return False."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


# -- selfcheck ---------------------------------------------------------------


def _bundled_dir():
    # imported here, so that only selfcheck pays for importlib.resources
    from importlib import resources

    return resources.files("periodalg").joinpath("scenarios")


def _cmd_selfcheck(args) -> int:
    src = Path(args.scenario_dir) if args.scenario_dir else _bundled_dir()
    rows: list[dict] = []

    try:
        entries = sorted(
            (p for p in src.iterdir() if p.name.endswith(".scn")),
            key=lambda p: p.name,
        )
        empty = "no .scn files found"
    except OSError as exc:
        entries, empty = [], f"cannot read the scenario directory: {exc}"
    if not entries:
        rows.append(_row("scenario", str(src), empty))
    for entry in entries:
        name = entry.name[: -len(".scn")]
        try:
            sc = parse_scenario(entry.read_text(), default_name=name)
            got = run_scenario(sc, RunOptions()).to_json()
            want = src.joinpath(name + ".expected.json").read_text()
        except (PeriodalgError, OSError, ValueError) as exc:
            # ValueError: a report integer past Python's string limit
            rows.append(_row("scenario", name, str(exc)))
            continue
        rows.append(_row("scenario", name, None if got == want else _first_diff(want, got)))

    for name, check in _INVARIANTS:
        try:
            check()
        except Exception as exc:
            rows.append(_row("invariant", name, f"{type(exc).__name__}: {exc}"))
        else:
            rows.append(_row("invariant", name))

    failed = [r for r in rows if r["verdict"] == "fail"]
    for r in rows:
        line = f"{r['verdict']:4s}  {r['kind']:9s}  {r['name']}"
        if "detail" in r:
            line += f"  ({r['detail']})"
        print(line)
    print(f"selfcheck: {len(rows) - len(failed)}/{len(rows)} checks passed")

    if args.json:
        payload = {
            "selfcheck": "pass" if not failed else "fail",
            "version": scenario._VERSION,
            "results": rows,
        }
        if not _write(args.json, json.dumps(payload, indent=2) + "\n"):
            return 2
    return 1 if failed else 0


def _row(kind: str, name: str, detail: str | None = None) -> dict:
    """One selfcheck result, a pass unless it has a detail."""
    if detail is None:
        return {"kind": kind, "name": name, "verdict": "pass"}
    return {"kind": kind, "name": name, "verdict": "fail", "detail": detail}


def _first_diff(want: str, got: str) -> str:
    try:
        want_doc, got_doc = json.loads(want), json.loads(got)
    except ValueError:
        want_doc = got_doc = None
    found = _json_diff(want_doc, got_doc, [])
    if found is not None:
        path, w, g = found
        where = _key_path(path) or "the top level"
        if len(path) > 1 and path[0] == "results" and isinstance(path[1], int):
            # name the analysis by its 1-based index, its kind and the
            # library module the kind runs in
            i = path[1]
            entry = (want_doc if i < len(want_doc["results"]) else got_doc)["results"][i]
            kind = entry.get("kind") if isinstance(entry, dict) else None
            if isinstance(kind, str) and kind in scenario.ANALYSES:
                where = f"results[{i + 1}] ({kind}, {scenario.ANALYSES[kind][2]})"
            else:
                where = f"results[{i + 1}] ({kind})"
            if len(path) > 2:
                where += ": " + _key_path(path[2:])
        w, g = ("absent" if v is _ABSENT else json.dumps(v) for v in (w, g))
        return f"first difference at {where}: expected {w}, got {g}"
    want_lines = want.splitlines()
    got_lines = got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), 1):
        if w != g:
            return f"first difference at line {i}: expected {w.strip()!r}, got {g.strip()!r}"
    if len(want_lines) != len(got_lines):
        return (
            f"line counts differ: expected {len(want_lines)}, got {len(got_lines)}"
        )
    return "outputs differ"


_ABSENT = object()


def _key_path(path: list) -> str:
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return text.lstrip(".")


def _json_diff(want, got, path: list):
    """(key path, want, got) at the first difference of two JSON values."""
    if isinstance(want, dict) and isinstance(got, dict):
        keys = [*want, *(k for k in got if k not in want)]
        pairs = ((k, want.get(k, _ABSENT), got.get(k, _ABSENT)) for k in keys)
    elif isinstance(want, list) and isinstance(got, list):
        pad = [_ABSENT] * abs(len(want) - len(got))
        pairs = ((i, w, g) for i, (w, g) in enumerate(zip(want + pad, got + pad)))
    elif type(want) is type(got) and want == got:
        return None
    else:
        return path, want, got
    for key, w, g in pairs:
        found = _json_diff(w, g, path + [key])
        if found is not None:
            return found
    return None


# -- invariant quick-suite ---------------------------------------------------
#
# Only facts that no bundled report pins: a fact a frozen report already
# shows is checked there, once.


def _expect(what: str, got, want) -> None:
    """Raise an AssertionError naming `what` unless got == want."""
    if got != want:
        raise AssertionError(f"{what}: expected {want!r}, got {got!r}")


def _check_inversion():
    x = ExactReal.rational(1) + ExactReal.sqrt(2)
    _expect("x * x.invert()", x * x.invert(), ExactReal.rational(1))
    _expect("x.invert()", x.invert(), ExactReal.sqrt(2) - ExactReal.rational(1))


def _check_floor_and_sign():
    v = ExactReal.sqrt(2) + ExactReal.sqrt(3)
    _expect("floor(sqrt(2) + sqrt(3))", v.floor(), 3)
    _expect("sign(sqrt(2) + sqrt(3) - sqrt(5))", (v - ExactReal.sqrt(5)).sign(), 1)


def _check_intersect_idempotent():
    lat = CoeffLattice([(2, 0), (1, 3)], RadicalBasis([2]))
    _expect("intersect(L, L)", lattice.intersect(lat, lat), lat)


def _check_formula_roundtrip():
    basis = RadicalBasis([1, 2, 3])
    dom = CoeffLattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], basis=basis)
    f = funcalg.parse("recip(sqrt(2)) + sgn(sqrt(3))*abs1(one+1)", dom)
    _expect("parse(f.text())", funcalg.parse(f.text(), dom), f)


def _check_rotation_roundtrip():
    alpha = ExactReal.sqrt(2)
    quarters = [(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
    pat = IntervalPattern(
        ExactReal.rational(1),
        [(ExactReal.rational(a), ExactReal.rational(b)) for a, b in quarters],
    )
    back = pointsets.rotate(pointsets.rotate(pat, alpha), -alpha)
    _expect("rotate(rotate(P, a), -a)", back, pat)
    # three intervals but two arcs: (7L/8, L) and (0, L/8) meet across the seam
    L = ExactReal.rational(1) + ExactReal.sqrt(2)
    eighths = ((0, 1), (3, 5), (7, 8))
    seam = IntervalPattern(
        L,
        [(L.scale(Fraction(a, 8)), L.scale(Fraction(b, 8))) for a, b in eighths],
        wrap_point=True,
    )
    back = pointsets.rotate(pointsets.rotate(seam, alpha), -alpha)
    _expect("rotate(rotate(seam, a), -a)", back, seam)
    half = L.scale(Fraction(1, 2))
    _expect("fundamental_period(seam)", pointsets.fundamental_period(seam), half)


_INVARIANTS = [
    ("exactreal inversion", _check_inversion),
    ("exactreal floor and sign", _check_floor_and_sign),
    ("lattice intersect idempotent", _check_intersect_idempotent),
    ("funcalg parse roundtrip", _check_formula_roundtrip),
    ("pointsets rotation roundtrip", _check_rotation_roundtrip),
]
