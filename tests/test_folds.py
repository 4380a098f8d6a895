"""The shared fold behind every sampled law: ``gap``, ``worst_case``,
``law_check`` and its witness-free form, the detector-row fold, and the
time-derivative probe."""

import math

from tangentkit.dynamics import time_derivative
from tangentkit.fields import _witness_free, gap, law_check, worst_case
from tangentkit.jets import Jet
from tangentkit.verify import _detector


def test_gap_is_the_largest_primal_difference():
    assert gap([1.0, Jet(5.0, 9.0)], [1.5, 2.0]) == 3.0
    assert gap([], []) == 0.0


def test_gap_is_nan_when_the_first_component_is_nan():
    assert math.isnan(gap([math.nan, 1.0], [0.0, 0.0]))


def test_gap_is_nan_when_the_last_component_is_nan():
    assert math.isnan(gap([1.0, math.nan], [0.0, 0.0]))


def test_tie_keeps_the_first_case():
    assert worst_case([(1.0,), (3.0,), (3.0,), (2.0,)], lambda r: r) == (3.0, (3.0,))
    cases = [("a", 2.0), ("b", 2.0)]
    assert worst_case(cases, lambda name, r: r) == (2.0, ("a", 2.0))


def test_all_zero_residuals_give_no_witness():
    assert worst_case([(0.0,), (0.0,)], lambda r: r) == (0.0, None)


def test_no_cases_give_zero_and_no_witness():
    assert worst_case([], lambda r: r) == (0.0, None)


def test_witness_comes_out_flat():
    worst, witness = worst_case([(0.5, -1.0, [2.0, 3.0])], lambda t, s, x: 1.0)
    assert witness == (0.5, -1.0, 2.0, 3.0)
    assert worst_case(zip([[4.0, 5.0]]), lambda p: 1.0)[1] == (4.0, 5.0)


def test_nan_at_a_later_case_sticks_and_every_case_runs():
    seen = []

    def residual(r):
        seen.append(r)
        return r

    worst, witness = worst_case([(1.0,), (math.nan,), (5.0,), (math.nan,)], residual)
    assert math.isnan(worst) and math.isnan(witness[0])
    assert len(seen) == 4


def test_law_check_passes_iff_worst_is_within_tol():
    ok = law_check("unit", [(1e-3,)], lambda r: r, 1e-2, 7)
    assert ok.passed and ok.max_residual == 1e-3 and ok.witness == (1e-3,)
    assert ok.seed == 7
    assert not law_check("unit", [(1.0,)], lambda r: r, 1e-2, 7).passed
    assert not law_check("unit", [(math.nan,)], lambda r: r, 1e-2, 7).passed


def test_time_derivative_is_d_dt_at_a_fresh_outer_level():
    vals, rates = time_derivative(lambda t, xs: [t * t * xs[0], 2.0], 3.0, [5.0])
    assert vals == [45.0, 2.0]
    assert rates == [30.0, 0.0]


def test_time_derivative_keeps_nested_jets_below_the_time_level():
    inner = Jet(2.0, 1.0)  # a direction already in flight
    vals, rates = time_derivative(lambda t, xs: [t * xs[0]], 3.0, [inner])
    # d/dt (t x) = x, carried with its own inner direction
    assert isinstance(rates[0], Jet)
    assert (rates[0].primal, rates[0].tangent) == (2.0, 1.0)
    assert (vals[0].primal, vals[0].tangent) == (6.0, 3.0)


def test_detector_row_needs_every_verdict_and_keeps_a_nan_residual():
    judged = []

    def judge(right, residual):
        judged.append(residual)
        return right, residual

    row = _detector("d", [(True, 0.5), (True, 2.0), (True, 1.0)], judge, 3)
    assert (row.passed, row.max_residual, row.witness, row.seed) == (True, 2.0, None, 3)
    assert not _detector("d", [(True, 0.0), (False, 0.0)], judge, 3).passed
    judged.clear()
    row = _detector("d", [(True, 1.0), (True, math.nan), (True, 5.0)], judge, 3)
    assert row.passed and math.isnan(row.max_residual) and row.witness is None
    assert len(judged) == 3  # every case is judged


def both_folds(cases, tol=1e-2):
    return (
        law_check("unit", cases, lambda r: r, tol, 7),
        _witness_free("unit", cases, lambda r: r, tol, 7),
    )


def test_witness_free_fold_is_law_check_with_no_witness():
    full, free = both_folds([(1e-3,), (5e-3,), (2e-3,)])
    assert full.witness == (5e-3,) and free.witness is None
    assert (free.law, free.passed, free.max_residual, free.seed) == ("unit", True, 5e-3, 7)
    full, free = both_folds([(1.0,)])
    assert not free.passed and free.max_residual == 1.0 and free.witness is None


def test_witness_free_fold_of_zero_residuals():
    full, free = both_folds([(0.0,), (0.0,)], tol=0.0)
    assert full == free
    assert free.passed and free.max_residual == 0.0 and free.witness is None


def test_witness_free_fold_keeps_a_nan_residual():
    full, free = both_folds([(1.0,), (math.nan,), (5.0,)], tol=math.inf)
    assert math.isnan(full.witness[0]) and free.witness is None
    assert not free.passed and math.isnan(free.max_residual)
