"""The SQP's bounded QP solver against the least-distance path it replaced.

`solve_bcd` solves each QP with `_qp_step` (one Cholesky of B, then
`_dual_active_set`) and each minimum-norm correction of `_feasible_trial`
with `_dual_active_set` at B = I. `tests/qp_oracle.py` keeps the old path,
NNLS on the least-distance dual with the boxes as dense rows. On every QP
and every correction of the bundled solves and of C4's random instances,
the solver must return the oracle's step and multipliers, started cold,
from the right working set and from wrong ones.
"""

import numpy as np
import pytest

from wpcsma import InfeasibleError, bundled_scenario, optimize

import qp_oracle as oracle
from conftest import random_scenario, solve_quiet

REL = 1e-9


def _recorded():
    """(qps, corrections) of the bundled solves and of C4's instances: the
    inputs of every `_qp_step` and of every `_dual_active_set` at B = I."""
    qps, corrections = [], []
    qp_step, dual = optimize._qp_step, optimize._dual_active_set

    def record_qp(hess, grad, jac, h, lo, hi, work=None):
        qps.append((hess, grad, jac, h, lo, hi))
        return qp_step(hess, grad, jac, h, lo, hi, work)

    def record_dual(hinv, d0, jac, h, lo, hi, work=None):
        if not d0.any():
            corrections.append((jac, h, lo, hi))
        return dual(hinv, d0, jac, h, lo, hi, work)

    cases = [bundled_scenario("example1"), bundled_scenario("example2")]
    rng = np.random.default_rng(2026)   # C4's instances
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_qp_step", record_qp)
        mp.setattr(optimize, "_dual_active_set", record_dual)
        for scn in cases:
            solve_quiet(scn)
        solved = tried = 0
        while solved < 100 and tried < 500:
            tried += 1
            try:
                solve_quiet(random_scenario(rng))
            except InfeasibleError:
                continue
            solved += 1
    return qps, corrections


@pytest.fixture(scope="module")
def recorded():
    return _recorded()


def _starts(want, rng):
    """None, the oracle's working set, and three wrong ones: one constraint
    short, every constraint, and a random mask."""
    right = want[1] > 0.0
    short = right.copy()
    short[np.flatnonzero(right)[:1]] = False
    return [None, right, short, np.ones_like(right), rng.random(len(right)) < 0.3]


def _assert_same(got, want, d0):
    """got is want: the step within REL of the larger of it and the
    unconstrained step d0 (the oracle's step is d0 plus a correction, so it
    carries d0's rounding), the multipliers within REL of the largest."""
    assert (got is None) == (want is None)
    if want is None:
        return
    step, mult = got
    assert np.abs(step - want[0]).max() <= REL * max(np.abs(want[0]).max(), np.abs(d0).max())
    assert np.abs(mult - want[1]).max() <= REL * np.abs(want[1]).max()


def test_qp_steps_match_the_least_distance_oracle(recorded):
    qps, _ = recorded
    assert len(qps) > 1000
    rng = np.random.default_rng(23)
    for hess, grad, jac, h, lo, hi in qps:
        want = oracle.qp_step(hess, grad, jac, h, lo, hi)
        d0 = np.linalg.solve(hess, grad)
        for start in _starts(want, rng):
            _assert_same(optimize._qp_step(hess, grad, jac, h, lo, hi, start), want, d0)


def test_corrections_match_the_least_distance_oracle(recorded):
    _, corrections = recorded
    assert len(corrections) > 50
    rng = np.random.default_rng(24)
    for jac, h, lo, hi in corrections:
        want = oracle.correction(jac, h, lo, hi)
        eye, zero = np.eye(len(lo)), np.zeros(len(lo))
        for start in _starts(want, rng):
            _assert_same(optimize._dual_active_set(eye, zero, jac, h, lo, hi, start), want, zero)


def test_infeasible_constraints_give_none():
    # d_0 >= 1 and d_0 <= 0.5 admit no step, started anywhere
    jac = np.array([[1.0, 0.0]])
    for start in (None, np.array([True, False, False, False, True]), np.ones(5, dtype=bool)):
        assert optimize._qp_step(np.eye(2), np.zeros(2), jac, np.ones(1),
                                 np.full(2, -1.0), np.full(2, 0.5), start) is None


def test_one_cholesky_and_no_lu_of_b_per_qp(recorded, monkeypatch):
    qps, _ = recorded
    calls = []
    for name in ("cholesky", "inv", "solve", "lstsq"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, real=real, name=name, **kw:
                            calls.append((name, np.array(a))) or real(a, *args, **kw))
    for hess, grad, jac, h, lo, hi in qps[-20:]:
        calls.clear()
        optimize._qp_step(hess, grad, jac, h, lo, hi)
        names = [name for name, _ in calls]
        assert names.count("cholesky") == 1 and names.count("inv") == 1
        assert "lstsq" not in names
        # the one inverse is of the triangular factor; solves are of Gram
        # matrices of the working set, never of B
        for name, a in calls:
            if name == "inv":
                assert not np.triu(a, 1).any()
            if name == "solve":
                assert a.shape != hess.shape or not np.array_equal(a, hess)
