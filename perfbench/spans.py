"""Span tracing for the benchmark's traced pass.

Spans are recorded only from benchmark code: :func:`installed` swaps, for
the duration of a ``with`` block, the public functions of each tangentkit
layer (and the integrator's field-evaluator boundary) for wrappers that
time each call.  Nothing under ``src/`` is modified; the originals are put
back on exit.

Spans nest: each records its total duration and its self time (total
minus the spans it directly contains), aggregated per name as
``[count, total_s, self_s]``.  Counters hold plain tallies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        stats = self.stats[name]
        stack = self._child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if stack:
                    stack[-1] += dt

        return traced

    def record(self, name: str, seconds: float) -> None:
        """A span timed by the caller (used for child processes)."""
        s = self.stats[name]
        s[0] += 1
        s[1] += seconds
        s[2] += seconds
        if self._child_time:
            self._child_time[-1] += seconds

    def merge(self, dumped: dict) -> None:
        """Add span statistics and counters dumped by another tracer."""
        for name, (count, total, self_s) in dumped["stats"].items():
            s = self.stats[name]
            s[0] += count
            s[1] += total
            s[2] += self_s
        for name, value in dumped["counters"].items():
            self.counters[name] += value

    def dump(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
        }


def _patches(tracer: Tracer) -> dict:
    """Original function -> traced replacement, for every traced boundary."""
    from tangentkit import dynamics, fields, kernel, reports, rig, verify
    from tangentkit.jets import jet_depth

    integrate_field = dynamics._integrate_field

    def traced_integrate_field(vhat, t, xs, cfg):
        depth = max(jet_depth(v) for v in [t, *xs])
        counted = dataclasses.replace(
            vhat, evaluator=tracer.wrap(f"rhs.d{depth}", vhat.evaluator)
        )
        return tracer.wrap(f"integrate.d{depth}", integrate_field)(counted, t, xs, cfg)

    linear_flow = dynamics.linear_flow

    def traced_linear_flow(A):
        flow = linear_flow(A)
        return dataclasses.replace(
            flow, evaluate=tracer.wrap("linear_flow", flow.evaluate)
        )

    tangent = kernel.tangent

    def traced_tangent(f):
        level = getattr(f.evaluator, "tangent_level", 0) + 1
        tf = tangent(f)
        ev = tracer.wrap(f"tangent.d{level}", tf.evaluator)
        ev.tangent_level = level
        return dataclasses.replace(tf, evaluator=ev)

    structural_map = kernel.structural_map

    def traced_structural_map(kind, shape):
        m = structural_map(kind, shape)
        if kind != "flip":
            return m
        return dataclasses.replace(m, evaluator=tracer.wrap("flip", m.evaluator))

    lie_bracket = fields.lie_bracket

    def traced_lie_bracket(v1, v2):
        v = lie_bracket(v1, v2)
        vhat = dataclasses.replace(
            v.vhat, evaluator=tracer.wrap("bracket", v.vhat.evaluator)
        )
        return dataclasses.replace(v, vhat=vhat)

    e_map = rig.e_map

    def traced_e_map(*args, **kwargs):
        e = e_map(*args, **kwargs)
        return dataclasses.replace(e, evaluator=tracer.wrap("e", e.evaluator))

    run_suite = verify.run_suite

    def traced_run_suite(name, *args, **kwargs):
        rows = tracer.wrap(f"suite.{name}", run_suite)(name, *args, **kwargs)
        tracer.counters["laws"] += len(rows)
        tracer.counters["laws_failed"] += sum(1 for c in rows if not c.passed)
        return rows

    emit_report = reports.emit_report

    def traced_emit_report(*args, **kwargs):
        out = tracer.wrap("emit_report", emit_report)(*args, **kwargs)
        tracer.counters["report_bytes"] += len(out)
        return out

    return {
        integrate_field: traced_integrate_field,
        linear_flow: traced_linear_flow,
        dynamics.expm: tracer.wrap("expm", dynamics.expm),
        tangent: traced_tangent,
        structural_map: traced_structural_map,
        lie_bracket: traced_lie_bracket,
        fields.commutes: tracer.wrap("commutes", fields.commutes),
        fields.matrix_of: tracer.wrap("matrix_of", fields.matrix_of),
        e_map: traced_e_map,
        rig.multiply: tracer.wrap("multiply", rig.multiply),
        run_suite: traced_run_suite,
        emit_report: traced_emit_report,
    }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every tangentkit boundary inside the block.

    Modules import these functions by name, so each name bound to an
    original in any loaded ``tangentkit`` module is rebound, then restored.
    """
    patches = {id(orig): new for orig, new in _patches(tracer).items()}
    swapped = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tangentkit" or mod_name.startswith("tangentkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in patches:
                setattr(mod, attr, patches[id(value)])
                swapped.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in swapped:
            setattr(mod, attr, value)
