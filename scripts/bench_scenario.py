"""Timings of the scenario text path, layer by layer: parse, run, to_json.

Run from the root of a checkout (stdlib only):

    PYTHONPATH=src python3 scripts/bench_scenario.py --repeat 5
    PYTHONPATH=src python3 scripts/bench_scenario.py --seed 13 --n 40

Each case is timed in three separate steps: `parse_scenario` on its
text, `run_scenario` on the parsed scenario, and `Report.to_json` on the
report.  The cases are the bundled scenarios
(`src/periodalg/scenarios/*.scn`, read next to this script), each of
whose reports must equal its frozen `.expected.json` byte for byte, and
--n scenarios generated from --seed: a random basis of one or two
square roots, the unit lattice over it, two formulas, a rational
interval pattern, a pattern of period 1/2 whose endpoints are written
`(a/1000) + (w/100000000)*sqrt(d)`, and one analysis of each kind at
small sizes.  A generated
report must be what `json.dumps(report.to_json_dict(), indent=2)`
writes.  It prints one JSON line per case with the fastest of --repeat
timings of each step, then one line per set with their sums.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from periodalg.scenario import parse_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "periodalg" / "scenarios"
RADICANDS = (2, 3, 5, 6, 7)


def fastest(fn, repeat: int):
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def generated(rng: random.Random, i: int) -> str:
    """One scenario with every analysis kind, from `rng`."""
    rads = sorted(rng.sample(RADICANDS, rng.randint(1, 2)))
    k = len(rads) + 1
    basis = "basis(1, " + ", ".join(f"sqrt({d})" for d in rads) + ")"
    unit = ", ".join("(" + ",".join(str(int(r == c)) for c in range(k)) + ")" for r in range(k))
    double = unit.replace("1", "2", 1)
    args = ["one"] + [f"sqrt({d})" for d in rads]

    def atom() -> str:
        t = rng.randint(-2, 2)
        return f"{rng.choice(('abs1', 'recip', 'sgn'))}({rng.choice(args)}{f'{t:+d}' if t else ''})"

    def formula() -> str:
        terms = ["*".join([str(rng.randint(1, 9))] + [atom() for _ in range(rng.randint(1, 2))])
                 for _ in range(rng.randint(1, 3))]
        return " - ".join(terms)

    def real() -> str:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)} + {rng.randint(1, 9)}*sqrt({rng.choice(rads)})"

    shift = " + ".join(
        f"{rng.randint(-3, 3)}" if d == 1 else f"{rng.randint(-3, 3)}*sqrt({d})" for d in (1, *rads)
    )
    n = rng.randint(2, 5)
    a, b = sorted(rng.sample(range(8), 2))
    arcs = " u ".join(f"({8 * j + a}/{8 * n}, {8 * j + b}/{8 * n})" for j in range(n))
    # irrational endpoints: a motif in [0, 1/2) and its copy shifted by 1/2
    d = rng.choice(rads)
    cuts = sorted(rng.sample(range(1, 500), 4))
    ends = [(c, rng.randint(1, 99)) for c in cuts]
    ends += [(c + 500, w) for c, w in ends]
    ends = [f"({c}/1000) + ({w}/100000000)*sqrt({d})" for c, w in ends]
    wiggled = " u ".join(f"({lo}, {hi})" for lo, hi in zip(ends[::2], ends[1::2]))
    return "\n".join([
        f'scenario "generated {i}";',
        f"basis B = {basis};",
        f"domain D = lattice[{unit}] over B;",
        f"domain E = lattice[{double}] over B;",
        f"function f = {formula()} on D;",
        f"function g = f * ({formula()});",
        f"pattern P mod 1 = {arcs};",
        f"pattern Q mod 1 = {wiggled};",
        "analyze period_module f;",
        "analyze period_module g;",
        f"analyze counterexample g shift {shift} bound 3;",
        "analyze intersect D, E;",
        f"analyze commensurable {real()}, {real()};",
        f"analyze classify 1/{rng.randint(2, 9)}, {real()};",
        "analyze fundamental_period P;",
        "analyze fundamental_period Q;",
        f"analyze cfrac {real()} depth {rng.randint(5, 20)};",
        f"analyze dirichlet 1, sqrt({rads[0]}) target {real()} eps 1/{10 ** rng.randint(2, 6)};",
        f"analyze kronecker sqrt({rads[-1]}) over [1] delta 1/{rng.randint(2, 9)} eps 1/100;",
        f"analyze discrepancy sqrt({rads[0]}) - {int(rads[0] ** 0.5)} n {rng.randint(10, 2000)};",
        f"analyze composition_check slope {rng.randint(1, 4)} t 1 l {real()};",
        "",
    ])


def bench(name: str, text: str, repeat: int, want: str | None) -> dict:
    t_parse, sc = fastest(lambda: parse_scenario(text, default_name=name), repeat)
    t_run, report = fastest(lambda: run_scenario(sc), repeat)
    t_json, out = fastest(report.to_json, repeat)
    if want is None:
        want = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert out == want, f"{name}: the report differs from what it must be"
    return {"case": name, "parse_s": t_parse, "run_s": t_run, "to_json_s": t_json}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--n", type=int, default=20, help="generated scenarios")
    args = ap.parse_args()
    bundled = [
        (p.stem, p.read_text(), p.with_name(p.stem + ".expected.json").read_text())
        for p in sorted(SCENARIOS.glob("*.scn"))
    ]
    rng = random.Random(args.seed)
    cases = {
        "bundled": bundled,
        "generated": [(f"generated_{i}", generated(rng, i), None) for i in range(args.n)],
    }
    for group, items in cases.items():
        rows = [bench(name, text, args.repeat, want) for name, text, want in items]
        for row in rows:
            print(json.dumps(row))
        total = {key: sum(r[key] for r in rows) for key in ("parse_s", "run_s", "to_json_s")}
        print(json.dumps({"set": group, "cases": len(rows), **total}))


if __name__ == "__main__":
    main()
