"""Seeded end-to-end and per-layer benchmark of periodalg's scenario path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scenario_mix --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): scenario_mix, period_search, diophantine.
Load model: a closed loop in one process, one client, no threads; each
job starts when the previous one (and its output check) has finished,
and all jobs share the process after one import, as library and batch
callers do.  Jobs come in rounds of fixed composition; a run completes
FIXED_ROUNDS[workload] rounds, then keeps starting rounds until
--seconds have passed.  Each job is timed on two CPUs and counts its
faster time (see Pass).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the fixed
rounds twice untraced and once, on one CPU, with spans around each
public layer function, and prints the per-layer metrics; the traced
pass minus the second untraced pass is the tracing overhead.  Either
way the last stdout line is one JSON object, a digest of the fixed
rounds' outputs is printed before it, and the full record (with the
Python version, CPU count and CPU model) is written to perfbench/out/.
Without periodalg sources under src/ the script exits with status 2
before printing any result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("scenario_mix", "period_search", "diophantine")
# rounds every run completes; the digest covers exactly these, and the
# traced run measures them
FIXED_ROUNDS = {"scenario_mix": 40, "period_search": 10, "diophantine": 3}
SETUP_RUNS = 9


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def measure_setup(src: Path, cpus) -> list[float]:
    """Wall time of fresh interpreters that only import periodalg.

    Each of the SETUP_RUNS values is the fastest start over `cpus`.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_RUNS):
        best = math.inf
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import periodalg"], env=env, cwd=ROOT, check=True)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    return times


class Pass:
    """Jobs run, their fastest timings, output checks and work counts.

    Each job is timed once on each CPU in `cpus`, back to back, and its
    latency is the fastest of those timings.  On a shared host one
    logical CPU is often slowed for seconds at a time while the other
    is not; timing each job on both keeps that out of the figures.  The first timing is the one digested and checked; the
    others must repeat its output.
    """

    def __init__(self, cpus=(None,), tracer=None):
        self.cpus = cpus
        self.tracer = tracer
        self.attempted = 0
        self.latencies: list[float] = []
        self.wrong = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.digest = hashlib.sha256()
        self.digest_jobs = 0

    def _time(self, job, cpu):
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        if self.tracer is None:
            out = job.call()
        else:
            out = self.tracer.run_job(self.attempted, job.call)
        return out, time.perf_counter() - t0

    def _fail(self, job, what: str, wrong: bool) -> None:
        self.wrong += wrong
        self.failures.append(f"{job.label} {what}\n{traceback.format_exc()}")

    def add(self, jobs, digest: bool) -> None:
        for job in jobs:
            self.attempted += 1
            try:
                out, best = self._time(job, self.cpus[0])
            except Exception as exc:
                self._fail(job, "raised", wrong=False)
                if digest:
                    self.digest.update(f"{job.label}\n!{type(exc).__name__}\n".encode())
                    self.digest_jobs += 1
                continue
            text = job.show(out)
            if digest:
                self.digest.update(f"{job.label}\n{text}\n".encode())
                self.digest_jobs += 1
            try:
                job.check(out, self.counts)
                for cpu in self.cpus[1:]:
                    again, dt = self._time(job, cpu)
                    best = min(best, dt)
                    if job.show(again) != text:
                        raise RuntimeError(f"output differs when run again on CPU {cpu}")
            except Exception:
                self._fail(job, "failed its check", wrong=True)
                continue
            self.latencies.append(best)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else float("nan")


def rounds(workload: str, seed: int, bundled):
    import workloads as W

    r = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{r}")
        if workload == "scenario_mix":
            yield W.scenario_mix_round(rng, bundled)
        elif workload == "period_search":
            yield W.period_search_round(rng)
        else:
            yield W.diophantine_round(rng)
        r += 1


def end_to_end(workload, seed, seconds, bundled, src, cpus):
    setup = measure_setup(src, cpus)
    p = Pass(cpus)
    n_rounds = 0
    t_end = time.perf_counter() + seconds
    for jobs in rounds(workload, seed, bundled):
        if n_rounds >= FIXED_ROUNDS[workload] and time.perf_counter() >= t_end:
            break
        p.add(jobs, digest=n_rounds < FIXED_ROUNDS[workload])
        n_rounds += 1
    ok = len(p.latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (ok / sum(p.latencies) if ok else 0.0, "1/s"),
        "job_p50_s": (percentile(p.latencies, 0.5), "s"),
        "job_p90_s": (percentile(p.latencies, 0.9), "s"),
        "verified_share": ((p.attempted - len(p.failures)) / p.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return p, metrics, n_rounds, {}


def per_layer(workload, seed, bundled, cpus):
    import tracing
    import workloads as W

    gen = rounds(workload, seed, bundled)
    jobs = [job for _ in range(FIXED_ROUNDS[workload]) for job in next(gen)]
    # the first pass warms caches, so that the overhead compares warm passes
    for plain in (Pass(cpus[:1]), Pass(cpus[:1])):
        plain.add(jobs, digest=False)
    tracer = tracing.Tracer()
    tracer.install()
    p = Pass(cpus[:1], tracer)
    p.add(jobs, digest=True)
    probe_failed = 0
    notes = {}
    if workload == "diophantine":
        probe = W.scenario_job("above_cap", W.above_cap_text(), [])
        try:
            tracer.run_job(-1, probe.call)
        except Exception:
            probe_failed = 1
            notes["above_cap_probe"] = traceback.format_exc()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.bin")

    table = tracer.table()
    c = p.counts
    metrics = {}
    for name in tracing.SPANNED:
        metrics[f"{name}.calls"] = (table[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (table[name]["self_s"], "s")
    fp_calls = table["pointsets.fundamental_period"]["calls"]
    tested = table["pointsets.is_invariant"]["under"].get("pointsets.fundamental_period", 0)
    metrics.update({
        "funcalg.find_counterexample.box_points": (c["ce_box_points"], "count"),
        "funcalg.find_counterexample.notfound_share": (c["ce_notfound"] / c["ce_calls"] if c["ce_calls"] else 0.0, "ratio"),
        "funcalg.find_counterexample.notfound_nonformal": (c["ce_notfound_nonformal"], "count"),
        "pointsets.candidates_per_period": (tested / fp_calls if fp_calls else 0.0, "count"),
        "exactreal.ring_ops.calls": (tracer.ring_ops[0], "count"),
        "approx.kronecker_find.q_screened": (c["kron_q"], "count"),
        "approx.orbit_discrepancy.points": (c["disc_points"], "count"),
        "approx.continued_fraction.above_cap_failed": (probe_failed, "count"),
        "trace.untraced_s": (sum(plain.latencies), "s"),
        "trace.overhead_s": (sum(p.latencies) - sum(plain.latencies), "s"),
    })
    return p, metrics, FIXED_ROUNDS[workload], notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "periodalg" / "__init__.py").is_file():
        print(f"error: no periodalg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from importlib import resources

    import workloads as W

    bundled = W.bundled_jobs(resources.files("periodalg").joinpath("scenarios"))
    allowed = os.sched_getaffinity(0)
    cpus = tuple(sorted(allowed)[:2]) if len(allowed) > 1 else (None,)
    try:
        if args.trace:
            p, metrics, n_rounds, notes = per_layer(args.workload, args.seed, bundled, cpus)
        else:
            p, metrics, n_rounds, notes = end_to_end(args.workload, args.seed, args.seconds, bundled, src, cpus)
    finally:
        os.sched_setaffinity(0, allowed)

    c = p.counts
    digest = p.digest.hexdigest()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": n_rounds,
        "jobs": p.attempted,
        "latency_samples": len(p.latencies),
        "digest_rounds": FIXED_ROUNDS[args.workload],
        "digest_jobs": p.digest_jobs,
        "digest": digest,
        "formal_shift_share": c["ce_formal"] / c["ce_calls"] if c["ce_calls"] else None,
        "work_counts": dict(sorted(c.items())),
    }
    record = {**info, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "environment": environment(), "failures": p.failures, **notes}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in p.failures[:3]:
        print(failure, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {n_rounds} rounds, {p.attempted} jobs, "
          f"{len(p.latencies)} verified and timed, {len(p.failures)} failed")
    if info["formal_shift_share"] is not None:
        print(f"# formal-period shifts: {c['ce_formal']}/{c['ce_calls']} = {info['formal_shift_share']:.3f}")
    print(f"# digest of the first {info['digest_rounds']} rounds ({p.digest_jobs} jobs): sha256:{digest}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": p.wrong == 0,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
