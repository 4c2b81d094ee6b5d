"""The scalar n block and rounding loops, kept as a reference for `wpcsma.optimize`.

These are the optimizer's original one-row forms: `sample_intervals` as a
Python loop over the nodes, `solve_n_block` on one alpha vector, the start
point as one n block per grid alpha with a `u > best` scan, and
`round_decision`'s greedy step as one utility call per +1 candidate, which
also counts its steps.
`wpcsma.optimize` replaces them with calls on (rows, N) arrays that must give
the same results bit for bit; `tests/test_optimize.py` holds the two against
each other. The load and the utility are written out here as well, with
their original 1-D reductions, so that the reference shares no reduction
with the code it checks.
"""

from __future__ import annotations

import numpy as np

from wpcsma import mac, model
from wpcsma.optimize import (ALPHA_FLOOR, INNER_TOL, MAX_INNER_ITERS,
                             argmax_log_minus_linear)
from wpcsma.params import InfeasibleError, InvalidStateError


def load(md, n, alpha) -> float:
    return (md.sigma_ratio
            + float(np.sum(md.per_ratio * n * alpha))
            + float(np.sum(md.ovh_ratio * alpha))
            + float(np.prod(1.0 + alpha)) - 1.0)


def utility(md, n, alpha) -> float:
    x = load(md, n, alpha)
    s = alpha * n * md.payload / (x * md.t_col)
    if np.any(s <= 0.0) or not np.isfinite(x):
        raise InvalidStateError("throughput must be positive")
    return float(np.sum(np.log(s)))


def sample_intervals(md, alpha):
    alpha = np.asarray(alpha, dtype=float)
    lo = np.ones(md.n)
    hi = md.duty.n_max.copy()
    problems = []
    prod_all = float(np.prod(1.0 + alpha))
    for i in range(md.n):
        prod_inv = (1.0 + alpha[i]) / prod_all
        k = md.a[i] + md.c[i] * prod_inv
        r = md.f[i] - md.b[i] / alpha[i] - md.d[i] * prod_inv
        if k > 0.0:
            hi[i] = min(hi[i], r / k)
        elif k < 0.0:
            lo[i] = max(lo[i], r / k)
        elif r < 0.0:
            problems.append(f"node {i}: energy constraint unsatisfiable at any "
                            f"sample count (deficit {-r:.3e} J)")
            continue
        if lo[i] > hi[i]:
            # a constraint active to rounding error collapses the interval
            if lo[i] - hi[i] <= 1e-9 * max(1.0, abs(hi[i])):
                lo[i] = hi[i]
            else:
                problems.append(f"node {i}: feasible sample range is empty "
                                f"(needs n in [{lo[i]:.4g}, {hi[i]:.4g}], "
                                f"box is [1, {md.duty.n_max[i]:.0f}])")
    if problems:
        raise InfeasibleError("energy budget admits no sample count", problems)
    return lo, hi


def solve_n_block(md, alpha, n0):
    alpha = np.asarray(alpha, dtype=float)
    n = np.clip(np.asarray(n0, dtype=float), 1.0, md.duty.n_max)
    lo, hi = sample_intervals(md, alpha)
    slope = md.per_ratio * alpha  # dX/dn_i, constant
    f_prev = None
    for _ in range(MAX_INNER_ITERS):
        n = argmax_log_minus_linear(md.n * slope / load(md, n, alpha), lo, hi)
        f_cur = float(np.sum(np.log(n))) - md.n * np.log(load(md, n, alpha))
        if f_prev is not None and abs(f_cur - f_prev) <= INNER_TOL * max(1.0, abs(f_cur)):
            break
        f_prev = f_cur
    return n


def start(md):
    best = None
    for a in np.geomspace(max(1e-4, ALPHA_FLOOR), 0.5, 60):
        alpha = np.full(md.n, a)
        try:
            n = solve_n_block(md, alpha, np.ones(md.n))
        except InfeasibleError as err:
            error = err           # the last one is the diagnosis at alpha = 0.5
            continue
        u = utility(md, n, alpha)
        if best is None or u > best[0]:
            best = (u, n, alpha)
    if best is None:
        raise error
    return best[1], best[2]


def round_decision(md, dv):
    lo, hi = sample_intervals(md, dv.alpha)
    n_int = np.floor(dv.n + 1e-9)
    n_int = np.maximum(n_int, np.ceil(lo - 1e-9))
    n_int = np.minimum(n_int, np.maximum(np.floor(hi + 1e-9), 1.0))
    n_int = np.clip(n_int, 1.0, md.duty.n_max)
    steps = 0
    if np.all(n_int >= lo - 1e-9) and np.all(n_int <= hi + 1e-9):
        u_cur = utility(md, n_int, dv.alpha)
        improved = True
        while improved:
            improved = False
            best_gain, best_i = 0.0, -1
            for i in range(md.n):
                if n_int[i] + 1.0 > min(md.duty.n_max[i], np.floor(hi[i] + 1e-9)):
                    continue
                trial = n_int.copy()
                trial[i] += 1.0
                gain = utility(md, trial, dv.alpha) - u_cur
                if gain > best_gain:
                    best_gain, best_i = gain, i
            if best_i >= 0:
                n_int[best_i] += 1.0
                u_cur += best_gain
                improved = True
                steps += 1
    w_int, tau_int = mac.integer_window(dv.alpha, n_int * md.duty.h + md.duty.g)
    feasible = bool(np.all(model.slacks(md, n_int, mac.alpha_from_tau(tau_int)) >= 0.0))
    return n_int.astype(int), w_int, feasible, steps
