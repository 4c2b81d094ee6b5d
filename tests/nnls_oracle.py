"""The cold-start NNLS, kept as the oracle of `wpcsma.optimize._nnls`.

`nnls` is `_nnls` as it was before it took a start mask: Lawson-Hanson from
an empty passive set, one column added per outer step. `_nnls` started from
any mask must end on the same passive set and so give the same bits;
`tests/test_nnls.py` holds the two against each other. Not collected by
pytest (no `test_` prefix).
"""

from __future__ import annotations

import numpy as np


def nnls(a, b) -> np.ndarray:
    """Lawson-Hanson non-negative least squares: argmin ||a x - b|| over x >= 0."""
    k = a.shape[1]
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    # rounding error of each gradient entry, which scales with its column
    tol = 10.0 * np.finfo(float).eps * max(a.shape) * np.abs(a).sum(axis=0) \
        * max(float(np.abs(b).max(initial=0.0)), 1.0)
    for _ in range(3 * k):
        w = a.T @ (b - a @ x) - tol
        w[passive] = -np.inf
        if w.max() <= 0.0:
            break
        passive[np.argmax(w)] = True
        while True:
            z = np.zeros(k)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                break
            # step back to the first passive entry that reaches 0, drop it
            neg = np.flatnonzero(passive & (z <= 0.0))
            ratio = x[neg] / (x[neg] - z[neg])
            x += ratio.min() * (z - x)
            x[neg[np.argmin(ratio)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
        x = z
    return x
