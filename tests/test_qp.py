"""The SQP's bounded QP solver against the least-distance path it replaced.

`solve_bcd` carries the BFGS model B and its inverse H = B^-1, both
updated by `_bfgs`. It solves each QP with `_qp_step`, which takes H and
calls `_dual_active_set`, and each minimum-norm correction of
`_feasible_trial` with `_dual_active_set` at B = I. `tests/qp_oracle.py`
keeps the old path, NNLS on the least-distance dual with the boxes as
dense rows, which factors B itself. Every QP and every correction of the
bundled solves and of C4's random instances is recorded, each QP with
both B and H. Given H, the solver must return the step and multipliers
that the oracle finds from B, started cold, from the right working set and
from wrong ones. H must stay B^-1 through every update.
"""

import numpy as np
import pytest

from wpcsma import InfeasibleError, bundled_scenario, optimize

import qp_oracle as oracle
from conftest import random_scenario, solve_quiet

REL = 1e-9


def _recorded():
    """(qps, corrections, updates) of the bundled solves and of C4's
    instances: the inputs of every `_qp_step` with the B whose inverse it
    was given, of every `_dual_active_set` at B = I, and of every `_bfgs`
    call with its result."""
    qps, corrections, updates = [], [], []
    qp_step, dual, bfgs = optimize._qp_step, optimize._dual_active_set, optimize._bfgs

    def record_qp(hinv, grad, jac, h, lo, hi, work=None):
        # H is the last update's, or the identity that each solve starts from
        if updates and hinv is updates[-1][1][1]:
            hess = updates[-1][1][0]
        else:
            assert np.array_equal(hinv, np.eye(len(grad)))
            hess = hinv
        qps.append((hess, hinv, grad, jac, h, lo, hi))
        return qp_step(hinv, grad, jac, h, lo, hi, work)

    def record_dual(hinv, d0, jac, h, lo, hi, work=None):
        if not d0.any():
            corrections.append((jac, h, lo, hi))
        return dual(hinv, d0, jac, h, lo, hi, work)

    def record_bfgs(hess, hinv, s, y):
        out = bfgs(hess, hinv, s, y)
        updates.append(((hess, hinv, s, y), out))
        return out

    cases = [bundled_scenario("example1"), bundled_scenario("example2")]
    rng = np.random.default_rng(2026)   # C4's instances
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_qp_step", record_qp)
        mp.setattr(optimize, "_dual_active_set", record_dual)
        mp.setattr(optimize, "_bfgs", record_bfgs)
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
    return qps, corrections, updates


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
    qps, _, _ = recorded
    assert len(qps) > 1000
    rng = np.random.default_rng(23)
    for hess, hinv, grad, jac, h, lo, hi in qps:
        want = oracle.qp_step(hess, grad, jac, h, lo, hi)
        d0 = np.linalg.solve(hess, grad)
        for start in _starts(want, rng):
            _assert_same(optimize._qp_step(hinv, grad, jac, h, lo, hi, start), want, d0)


def test_corrections_match_the_least_distance_oracle(recorded):
    _, corrections, _ = recorded
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


def test_h_stays_the_inverse_of_b(recorded):
    _, _, updates = recorded
    damped = 0
    for (hess, _, s, y), (hess_new, hinv_new) in updates:
        hs = hess @ s
        damped += float(s @ y) < 0.2 * float(s @ hs)
        assert np.abs(hinv_new @ hess_new - np.eye(len(s))).max() <= 1e-8
    assert len(updates) > 500 and damped > 10


def _gram_rows(a, gram, tol):
    """Indices k with a equal to gram[k][:, k] within tol, found by search
    over the rows whose diagonal matches; None when there are none."""
    cands = [np.flatnonzero(np.abs(np.diag(gram) - a[i, i]) <= tol) for i in range(len(a))]

    def extend(picked):
        i = len(picked)
        if i == len(a):
            return picked
        for p in cands[i]:
            if p not in picked and np.all(np.abs(gram[p, picked] - a[i, :i]) <= tol) \
                    and np.all(np.abs(gram[picked, p] - a[:i, i]) <= tol):
                found = extend(picked + [p])
                if found is not None:
                    return found
        return None

    return extend([])


def test_a_qp_factors_nothing_and_solves_only_working_set_gram_matrices(recorded,
                                                                        monkeypatch):
    qps, _, _ = recorded
    calls = []
    for name in ("cholesky", "inv", "solve", "lstsq"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, real=real, name=name, **kw:
                            calls.append((name, np.array(a))) or real(a, *args, **kw))
    for _, hinv, grad, jac, h, lo, hi in qps[-20:]:
        calls.clear()
        optimize._qp_step(hinv, grad, jac, h, lo, hi)
        assert calls and {name for name, _ in calls} == {"solve"}
        # every solve is of C_A H C_A' for a set A of the constraint rows
        # C = (jac, I, -I): a working set's Gram matrix, never B
        rows = np.vstack([jac, np.eye(len(grad)), -np.eye(len(grad))])
        gram = rows @ hinv @ rows.T
        tol = 1e-10 * np.abs(gram).max()
        for _, a in calls:
            assert _gram_rows(a, gram, tol) is not None
