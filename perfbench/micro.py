"""Micro-benchmarks of the layers every other layer runs on: jet arithmetic
(``jets``) and the evaluator compiled from the expression language (``dsl``),
at jet depths 0, 1 and 2.  Each figure is the median of five repeats."""

from __future__ import annotations

import operator
import random
import statistics
from time import perf_counter

from workloads import LORENZ

REPEATS = 5
ITEMS = 1000


def _median_time(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _scalars(depth: int, rng: random.Random, count: int) -> list:
    from tangentkit.jets import Jet

    def one(d):
        if d == 0:
            return rng.uniform(0.5, 2.0)
        return Jet(one(d - 1), one(d - 1))

    return [one(depth) for _ in range(count)]


def measure() -> dict[str, float]:
    from tangentkit import dsl, jets

    rng = random.Random(0)
    out = {}
    for depth in (0, 1, 2):
        xs = _scalars(depth, rng, ITEMS)
        ys = _scalars(depth, rng, ITEMS)
        for name, fn in (("add", operator.add), ("mul", operator.mul)):
            t = _median_time(lambda: list(map(fn, xs, ys)))
            out[f"jets.{name}_ns_d{depth}"] = t / ITEMS * 1e9
        t = _median_time(lambda: list(map(jets.sin, xs)))
        out[f"jets.sin_ns_d{depth}"] = t / ITEMS * 1e9
        if depth == 1:
            t = _median_time(lambda: list(map(operator.truediv, xs, ys)))
            out["jets.div_ns_d1"] = t / ITEMS * 1e9

    calls = 100
    out["dsl.parse_us"] = _median_time(
        lambda: [dsl.parse(LORENZ, 3) for _ in range(calls)]) / calls * 1e6
    spec = dsl.parse(LORENZ, 3)
    out["dsl.compile_us"] = _median_time(
        lambda: [dsl.compile_spec(spec) for _ in range(calls)]) / calls * 1e6
    evaluator = dsl.compile_spec(spec).evaluator
    for depth in (0, 1, 2):
        points = [_scalars(depth, rng, 3) for _ in range(calls)]
        out[f"dsl.eval_us_d{depth}"] = _median_time(
            lambda: [evaluator(p) for p in points]) / calls * 1e6
    return out
