"""Seeded single-token mutation fuzz of the bundled scenarios.

Run from the root of a checkout (stdlib only):

    PYTHONPATH=src python3 scripts/scenario_fuzz.py --seed 11 --n 3000 > new.jsonl

Each mutant takes one bundled scenario (`src/periodalg/scenarios/*.scn`,
read next to this script) and changes one of its tokens at that token's
offset in the original text: it deletes the token, replaces it, or
inserts a token before it.  New tokens are drawn from the scenarios'
own tokens (half of the replacements from those of the replaced
token's class: numbers, names, or that same character) plus a few that
no scenario holds (an unbound name, a bad character, zero, brackets).
Everything before the offset is left as it was, so an error's line and
column keep their meaning.  Each mutant is parsed and run with
`RunOptions()` under a 2 s alarm, and one JSON line is printed: the
report, or the error as `[type, message, line, col, cause]`, or
`"timeout"`.  `line` and `col` are null for errors without a position;
`cause` is the type of the exception an `AnalysisError` wraps, and null
for other errors.  The mutants depend only on the seed and the scenario
texts, not on the library, so two checkouts can be compared by running
this script under each one's `src` and diffing the outputs:

    PYTHONPATH=src python3 scripts/scenario_fuzz.py > new.jsonl
    PYTHONPATH=../parent/src python3 scripts/scenario_fuzz.py > old.jsonl
    diff old.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
import re
import signal
from pathlib import Path

from periodalg.scenario import RunOptions, parse_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "periodalg" / "scenarios"
# whitespace and comments match no group; group 1 is one token
TOKEN = re.compile(r'\s+|#[^\n]*|(\d+|[^\W\d]\w*|"[^"\n]*"|.)', re.S)
EXTRA = ("X", "$", "0", "[", "]", ",", ";")
OPS = ("delete", "replace", "insert")


class Timeout(BaseException):
    """Not an Exception, so no handler in the library can catch it."""


def _alarm(signum, frame):
    raise Timeout


def tokens(text: str) -> list[tuple[int, int]]:
    return [m.span(1) for m in TOKEN.finditer(text) if m.group(1)]


def kind(token: str) -> str:
    return "num" if token.isdigit() else "name" if token.isidentifier() else token[0]


def mutants(seed: int, n: int):
    texts = {p.stem: p.read_text() for p in sorted(SCENARIOS.glob("*.scn"))}
    spans = {name: tokens(text) for name, text in texts.items()}
    vocab = {text[a:b] for name, text in texts.items() for a, b in spans[name]}
    vocab = sorted(vocab | set(EXTRA))
    rng = random.Random(seed)
    for i in range(n):
        name = rng.choice(sorted(texts))
        text = texts[name]
        start, end = rng.choice(spans[name])
        op = rng.choice(OPS)
        new = "" if op == "delete" else rng.choice(vocab)
        if op == "replace" and rng.random() < 0.5:  # a token of the same class
            new = rng.choice([t for t in vocab if kind(t) == kind(text[start:end])])
        if op == "replace":
            mutated = text[:start] + new + text[end:]
        elif op == "insert":
            mutated = text[:start] + new + " " + text[start:]
        else:
            mutated = text[:start] + text[end:]
        yield i, name, [op, start, text[start:end], new], mutated


def outcome(name: str, text: str):
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        report = run_scenario(parse_scenario(text, default_name=name), RunOptions())
        return {"report": report.to_json_dict()}
    except Timeout:
        return {"error": "timeout"}
    except Exception as exc:
        where = [getattr(exc, "line", None), getattr(exc, "col", None)]
        cause = getattr(exc, "cause", None)
        cause = None if cause is None else type(cause).__name__
        return {"error": [type(exc).__name__, str(exc), *where, cause]}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--n", type=int, default=3000)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    for i, name, mutation, text in mutants(args.seed, args.n):
        row = {"i": i, "scenario": name, "mutation": mutation, **outcome(name, text)}
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
