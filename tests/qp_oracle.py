"""The least-distance QP path, kept as the oracle of `wpcsma.optimize`'s QPs.

`qp_step` is `_qp_step` as it was before the boxes became bounds: the 4N
box constraints as dense rows beside the N energy rows, B factored by
Cholesky and by LU, and the QP solved as a least-distance problem through
NNLS on its dual (Lawson & Hanson, "Solving Least Squares Problems", 1974,
ch. 23). `ldp` is the least-distance solver itself, which the minimum-norm
corrections of `_feasible_trial` called directly. Both take and return the
constraints in the order energy rows, lower bounds, upper bounds;
`tests/test_qp.py` holds the solver against them. Not collected by pytest
(no `test_` prefix).
"""

from __future__ import annotations

import numpy as np

from wpcsma.optimize import _nnls


def box_rows(jac, h, lo, hi):
    """The rows and right-hand sides of jac d >= h, d >= lo and -d >= -hi."""
    eye = np.eye(jac.shape[1])
    return np.vstack([jac, eye, -eye]), np.concatenate([h, lo, -hi])


def ldp(e, f, start=None):
    """Least-distance point argmin ||w|| subject to e w >= f, and its
    multipliers, through NNLS on the dual, that NNLS started from the rows
    in `start`. None when the constraints admit no point."""
    # the problem is homogeneous in f: scale its largest entry to 1, so
    # that NNLS's tolerance does not swallow a tiny violation
    top = float(f.max(initial=0.0))
    if top <= 0.0:
        return np.zeros(e.shape[1]), np.zeros(e.shape[0])
    rows = np.vstack([e.T, f / top])
    target = np.zeros(rows.shape[0])
    target[-1] = 1.0
    u = _nnls(rows, target, start)
    r = rows @ u - target
    if -r[-1] <= 1e-12:
        return None
    return -top * r[:-1] / r[-1], top * u / -r[-1]


def qp_step(hess, grad, jac, h, lo, hi, start=None):
    """argmax grad.d - d'Bd/2 subject to jac d >= h and lo <= d <= hi, and the
    multipliers of every row; with B = LL', a least-distance problem in
    w = L'd - L^-1 grad, its NNLS started from the rows in `start`."""
    rows, rhs = box_rows(jac, h, lo, hi)
    low = np.linalg.cholesky(hess)
    d0 = np.linalg.solve(hess, grad)
    sol = ldp(np.linalg.solve(low, rows.T).T, rhs - rows @ d0, start)
    if sol is None:
        return None
    return d0 + np.linalg.solve(low.T, sol[0]), sol[1]


def correction(jac, h, lo, hi):
    """The minimum-norm w with jac w >= h and lo <= w <= hi, and its
    multipliers, as `_feasible_trial` found it: `ldp` from a cold start."""
    return ldp(*box_rows(jac, h, lo, hi))
