"""The warm-started NNLS of `wpcsma.optimize` against its cold start.

`check_kkt` is the one caller of `_nnls` and starts it from every active
row; `tests/nnls_oracle.py` keeps the cold-start form. Started anywhere,
`_nnls` must solve the same problem, and on the certificate's own calls it
must give the oracle's bits.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wpcsma import InfeasibleError, bundled_scenario, check_kkt, optimize
from wpcsma.scenario_io import scenario_from_dict

import nnls_oracle as oracle
from conftest import random_scenario, solve_quiet

DATA = Path(__file__).parent / "data"


def _cases():
    cases = [bundled_scenario("example1"), bundled_scenario("example2")]
    cases += [scenario_from_dict(json.loads(p.read_text())) for p in sorted(DATA.glob("*.json"))]
    rng = np.random.default_rng(2026)
    while len(cases) < 25:
        scn = random_scenario(rng)
        try:
            solve_quiet(scn)
        except InfeasibleError:
            continue
        cases.append(scn)
    return cases


def _solve_and_certify(scn):
    return check_kkt(scn, solve_quiet(scn).decision)


def _record(fn, *args):
    """Every (a, b, start) that fn(*args) passes to `_nnls`."""
    calls = []
    nnls = optimize._nnls

    def recording(a, b, start=None):
        calls.append((a, b, start))
        return nnls(a, b, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_nnls", recording)
        fn(*args)
    return calls


def test_warm_starts_give_the_cold_start_bits():
    cases = _cases()
    calls = [call for scn in cases for call in _record(_solve_and_certify, scn)]
    # one certificate per case, each started from its active rows
    assert len(calls) == len(cases)
    assert sum(start.any() for _, _, start in calls) == len(cases)
    for a, b, start in calls:
        got, want = optimize._nnls(a, b, start), oracle.nnls(a, b)
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def problems():
    """Tall random problems, whose NNLS solution is unique, a zero matrix,
    and the certificate's problems at the bundled optima."""
    rng = np.random.default_rng(14)
    out = [(rng.standard_normal((m, k)), rng.standard_normal(m))
           for m, k in ((1, 1), (5, 3), (12, 12), (40, 25), (200, 106))]
    out.append((np.zeros((4, 3)), np.ones(4)))
    for name in ("example1", "example2"):
        scn = bundled_scenario(name)
        a, b, _ = _record(check_kkt, scn, solve_quiet(scn).decision)[-1]
        out.append((a, b))
    return out


def _starts(a, b):
    rng = np.random.default_rng(7)
    k = a.shape[1]
    best = oracle.nnls(a, b) > 0.0
    return ([np.ones(k, dtype=bool), np.zeros(k, dtype=bool), ~best, best]
            + [rng.random(k) < p for p in (0.2, 0.5, 0.8)])


def test_any_start_ends_at_an_nnls_optimum(problems):
    for a, b in problems:
        tol = 1e-9 * max(1.0, float(np.abs(a).sum(axis=0).max()) * float(np.abs(b).max()))
        for start in _starts(a, b):
            x = optimize._nnls(a, b, start)
            dual = a.T @ (b - a @ x)
            assert np.all(x >= 0.0)
            assert np.all(dual <= tol)
            assert np.all(np.abs(dual[x > 0.0]) <= tol)


def test_no_columns():
    for start in (None, np.zeros(0, dtype=bool)):
        assert optimize._nnls(np.zeros((3, 0)), np.ones(3), start).shape == (0,)


def test_any_start_agrees_with_scipy(problems):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for a, b in problems:
        want = scipy_optimize.nnls(a, b)[0]
        for start in _starts(a, b):
            got = optimize._nnls(a, b, start)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(want).max()))


def test_warm_starts_halve_the_lstsq_calls(monkeypatch):
    scn = scenario_from_dict(json.loads((DATA / "gen24_rng24000.json").read_text()))
    count = [0]
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        count[0] += 1
        return lstsq(*args, **kwargs)

    dv = solve_quiet(scn).decision
    monkeypatch.setattr(np.linalg, "lstsq", counting)
    check_kkt(scn, dv)
    warm, count[0] = count[0], 0
    monkeypatch.setattr(optimize, "_nnls", lambda a, b, start=None: oracle.nnls(a, b))
    check_kkt(scn, dv)
    assert warm <= count[0] / 2
