"""Spans and call counts around periodalg's public functions.

The wrappers are installed from here, where each function's callers look
it up: module attributes for functions (including the copies funcalg
imported from lattice), class attributes for methods.  A span records
(name, start, end, parent span, job id) in flat arrays; nothing is
aggregated until the run ends.
"""

from __future__ import annotations

import json
import time
from array import array

from periodalg import approx, funcalg, lattice, pointsets, scenario
from periodalg.exactreal import ExactReal

# span name -> (owners whose attribute is replaced, attribute)
SPANNED = {
    "scenario.parse_scenario": ([scenario], "parse_scenario"),
    "scenario.run_scenario": ([scenario], "run_scenario"),
    "scenario.to_json": ([scenario.Report], "to_json"),
    "funcalg.period_module": ([funcalg], "period_module"),
    "funcalg.find_counterexample": ([funcalg], "find_counterexample"),
    "lattice.CoeffLattice": ([lattice.CoeffLattice], "__init__"),
    "lattice.intersect": ([lattice, funcalg], "intersect"),
    "lattice.member": ([lattice, funcalg], "member"),
    "pointsets.fundamental_period": ([pointsets], "fundamental_period"),
    "pointsets.is_invariant": ([pointsets], "is_invariant"),
    "pointsets.rotate": ([pointsets], "rotate"),
    "pointsets.symdiff_measure": ([pointsets], "symdiff_measure"),
    "approx.continued_fraction": ([approx], "continued_fraction"),
    "approx.dirichlet_find": ([approx], "dirichlet_find"),
    "approx.kronecker_find": ([approx], "kronecker_find"),
    "approx.orbit_discrepancy": ([approx], "orbit_discrepancy"),
    "exactreal.sign": ([ExactReal], "sign"),
    "exactreal.floor": ([ExactReal], "floor"),
    "exactreal.invert": ([ExactReal], "invert"),
    "exactreal.approx_str": ([ExactReal], "approx_str"),
}
# counted without spans: too frequent to time one by one
RING_OPS = ("__add__", "__sub__", "__mul__", "__eq__")

JOB_SPAN = "bench.job"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.ring_ops = [0]
        self._job_span = self._wrap(JOB_SPAN, lambda call: call())

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, job, start, end, stack = (
            self.name_id, self.parent, self.job, self.start, self.end, self.stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, (owners, attr) in SPANNED.items():
            wrapped = self._wrap(name, getattr(owners[0], attr))
            for owner in owners:
                setattr(owner, attr, wrapped)
        ring = self.ring_ops
        for attr in RING_OPS:
            def counted(*args, _fn=getattr(ExactReal, attr)):
                ring[0] += 1
                return _fn(*args)

            setattr(ExactReal, attr, counted)

    def run_job(self, job_id: int, call):
        """Run one job under a root span of its own."""
        self.job_id = job_id
        return self._job_span(call)

    def table(self) -> dict:
        """Per name: calls, self seconds, and calls whose parent span is each name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "under": {}} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if p >= 0:
                pname = self.names[self.name_id[p]]
                row["under"][pname] = row["under"].get(pname, 0) + 1
        return out

    def write(self, path) -> None:
        """Spans as raw columns after a one-line JSON header."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [["name_id", "H"], ["parent", "l"], ["job", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name_id, self.parent, self.job, self.start, self.end):
                col.tofile(fh)
