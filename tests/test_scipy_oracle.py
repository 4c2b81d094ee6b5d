"""scipy's SLSQP as an independent oracle for the joint solver.

Optional: skipped when scipy is not installed (`pip install -e .[test]`).
SLSQP gets the same problem in the same log coordinates, the same analytic
gradients and the same start as `solve_bcd`, and must end at the same
utility.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wpcsma import bundled_scenario, model
from wpcsma.optimize import (_bounds, _derivatives, _energy_scale, _start,
                             _utility_raw)
from wpcsma.scenario_io import scenario_from_dict

from conftest import solve_quiet

optimize = pytest.importorskip("scipy.optimize")


def _slsqp(scn):
    md = model.build(scn)
    lo, hi = _bounds(md)
    scale = _energy_scale(md)

    def split(z):
        return np.exp(z[:md.n]), np.exp(z[md.n:])

    def neg_u(z):
        return -_utility_raw(md, *split(z))

    def neg_grad(z):
        return -_derivatives(md, *split(z), scale)[0]

    def scaled_slacks(z):
        return model.slacks(md, *split(z)) / scale

    def jac(z):
        return _derivatives(md, *split(z), scale)[1][:md.n]

    z0 = np.log(np.concatenate(_start(md)))
    res = optimize.minimize(neg_u, z0, jac=neg_grad, method="SLSQP",
                            bounds=list(zip(lo, hi)),
                            constraints=[{"type": "ineq", "fun": scaled_slacks, "jac": jac}],
                            options={"ftol": 1e-15, "maxiter": 500})
    assert res.success, res.message
    return -res.fun


@pytest.mark.parametrize("name", ["example1", "example2", "gen24_rng24000"])
def test_slsqp_agrees_with_solve_bcd(name):
    if name.startswith("example"):
        scn = bundled_scenario(name)
    else:
        path = Path(__file__).parent / "data" / f"{name}.json"
        scn = scenario_from_dict(json.loads(path.read_text()))
    assert solve_quiet(scn).utility == pytest.approx(_slsqp(scn), rel=1e-8)
