"""Proportional-fair allocation of samples per cycle and attempt rates.

Maximizes the sum of log throughputs U over (n, alpha) subject to the boxes
1 <= n_i <= n_max_i, 0 < alpha_i <= 0.5 and per-node energy neutrality. In
z = (log n, log alpha) the channel load is a posynomial, so U is jointly
concave, the boxes are linear and only the N energy constraints are not
convex. `solve_bcd` runs one feasible-iterate SQP in z (Panier & Tits, Math.
Prog. 59, 1993). Its QPs keep the N energy rows as general constraints and
the boxes as bounds, and are solved by Goldfarb and Idnani's dual
active-set method from the previous QP's working set. `check_kkt` judges a
point by one test: the multipliers of its active constraints from NNLS
(Lawson & Hanson, 1974), and the residual of the Lagrangian's gradient per
coordinate of z. The one-block solvers (closed-form maximizers of
log x - gamma*x on an interval) remain for the start point and as tools;
the start solves its 60 common alphas as one (60, N) batch of n blocks,
each row stopping on its own test.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import energy, mac, model
from .params import InfeasibleError, InvalidStateError, Scenario, require


@dataclass(frozen=True)
class DecisionVector:
    """The optimization variables: per-node sample counts and attempt odds."""

    n: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", np.asarray(self.n, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        require(self.n.shape == self.alpha.shape, "n and alpha lengths differ")
        require(np.all(self.n >= 1.0), "each n must be >= 1")
        require(np.all(np.isfinite(self.n)), "each n must be finite")
        require(np.all(self.alpha > 0.0), "each alpha must be > 0")
        require(np.all(self.alpha <= 0.5), "each alpha must be <= 0.5")


# One setting for every solve and every certificate, so that the solver and
# `check_kkt` judge a point against the same box.
OUTER_TOL = 1e-8       # relative utility change of one SQP iteration
MOVE_TOL = 1e-9        # max move of one SQP iteration (n relative, alpha absolute)
INNER_TOL = 1e-10      # relative objective change inside a block solve
MAX_INNER_ITERS = 100  # iterations of one block solve
ALPHA_FLOOR = 1e-6     # lower alpha box end, guarding the open alpha > 0
KKT_TOL = 1e-4         # largest scaled residual entry `check_kkt` accepts


@dataclass(frozen=True)
class OptimizerConfig:
    max_outer_iters: int = 200    # SQP iterations

    def __post_init__(self):
        v = self.max_outer_iters
        require(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                and v >= 1, f"max_outer_iters must be an integer >= 1, got {v!r}")


def _utility_raw(md, n, alpha):
    """U of each (..., N) row, reduced as `model.load` is; a float for 1-D."""
    x = np.asarray(model.load(md, n, alpha))
    s = alpha * n * md.payload / (x[..., None] * md.t_col)
    if (s <= 0.0).any() or not np.isfinite(x).all():
        raise InvalidStateError("throughput must be positive")
    u = np.log(s).sum(-1)
    return float(u) if u.ndim == 0 else u


def utility(scenario: Scenario, dv: DecisionVector) -> float:
    """Sum of natural-log node throughputs at a decision point."""
    md = model.build(scenario)
    require(np.all(dv.n <= md.duty.n_max + 1e-12), "n exceeds a node's n_max")
    return _utility_raw(md, dv.n, dv.alpha)


def argmax_log_minus_linear(gamma, lo, hi):
    """Maximizer of log(x) - gamma*x over [lo, hi] (closed form), elementwise."""
    require(bool(np.all((lo <= hi) & (lo > 0))), "interval must satisfy 0 < lo <= hi")
    # 1/gamma where gamma > 0; +inf, which clips to hi, elsewhere
    inv = np.divide(1.0, gamma, out=np.full(np.shape(gamma), np.inf),
                    where=np.greater(gamma, 0.0))
    return np.minimum(np.maximum(inv, lo), hi)


def sample_intervals(scenario: Scenario, alpha):
    """Feasible per-node sample intervals [lo, hi] at fixed attempt odds.

    Intersects the 1..n_max box with each node's energy-neutrality constraint,
    which is linear in that node's own n once alpha is fixed. Depending on the
    sign of the linear coefficient the energy constraint caps n from above
    (extra samples cost net energy) or from below (extra samples harvest net
    energy). Raises with a per-node diagnosis when any interval is empty.
    """
    return _sample_intervals(model.build(scenario), alpha)[:2]


def _sample_intervals(md, alpha):
    """(lo, hi, ok) for each (..., N) row of alpha, ok saying whether every
    interval of the row is non-empty; a 1-D alpha raises when it is not."""
    alpha = np.asarray(alpha, dtype=float)
    quiet = model.others_quiet(alpha)
    k = md.a + md.c * quiet
    r = md.f - md.b / alpha - md.d * quiet
    with np.errstate(divide="ignore", invalid="ignore"):
        end = r / k
    # the forms of min(hi, end) and max(lo, end), NaN included
    hi = np.where((k > 0.0) & (end < md.duty.n_max), end, md.duty.n_max)
    lo = np.where((k < 0.0) & (end > 1.0), end, 1.0)
    dead = (k == 0.0) & (r < 0.0)
    # a constraint active to rounding error collapses the interval
    near = lo - hi <= 1e-9 * np.maximum(1.0, np.abs(hi))
    lo = np.where((lo > hi) & near, hi, lo)
    empty = (lo > hi) & ~dead
    ok = ~np.any(dead | empty, axis=-1)
    if alpha.ndim == 1 and not ok:
        raise InfeasibleError("energy budget admits no sample count", [
            f"node {i}: energy constraint unsatisfiable at any sample count "
            f"(deficit {-r[i]:.3e} J)" if dead[i] else
            f"node {i}: feasible sample range is empty (needs n in "
            f"[{lo[i]:.4g}, {hi[i]:.4g}], box is [1, {md.duty.n_max[i]:.0f}])"
            for i in np.flatnonzero(dead | empty)])
    return lo, hi, ok


def solve_n_block(scenario: Scenario, alpha, n0):
    """Best sample counts at fixed attempt odds (iterated linearization).

    Each iteration replaces the concave log-load term by its tangent at the
    current point; the surrogate separates per node and is maximized in
    closed form over the feasible box. The true block objective is
    non-decreasing along the iterates.
    """
    return _solve_n_block(model.build(scenario), alpha, n0)


def _solve_n_block(md, alpha, n0):
    """Each row of a (rows, N) alpha solved with the iterates and the stop it
    has alone; NaN rows where some interval is empty (a 1-D alpha raises)."""
    lo, hi, ok = _sample_intervals(md, alpha)
    alpha, lo, hi, n = np.atleast_2d(alpha, lo, hi, np.clip(n0, 1.0, md.duty.n_max))
    n[~ok] = np.nan
    live = np.flatnonzero(ok)
    slope = md.per_ratio * alpha  # dX/dn_i, constant
    f_prev = np.zeros(len(n))
    x = model.load(md, n[live], alpha[live])   # each row's load, kept across iterations
    for it in range(MAX_INNER_ITERS):
        if not len(live):
            break
        n[live] = argmax_log_minus_linear(md.n * slope[live] / x[:, None], lo[live], hi[live])
        x = model.load(md, n[live], alpha[live])
        f_cur = np.log(n[live]).sum(-1) - md.n * np.log(x)
        done = np.abs(f_cur - f_prev[live]) <= INNER_TOL * np.maximum(1.0, np.abs(f_cur))
        f_prev[live] = f_cur
        if it > 0:
            live, x = live[~done], x[~done]
    return n if np.ndim(ok) else n[0]


def attempt_interval(scenario: Scenario, n, alpha, i: int):
    """Feasible interval for node i's attempt odds, all else fixed.

    The lower end comes from node i's own energy constraint (backoff
    listening grows like 1/alpha) and from every other node's constraint
    (node i attempting more often makes the others' transmissions collide,
    which costs them less than a full exchange). Raises when empty.
    """
    return _attempt_interval(model.build(scenario), n, alpha, i)


def _attempt_interval(md, n, alpha, i: int):
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    prod_all = float(np.prod(1.0 + alpha))
    lo = ALPHA_FLOOR
    hi = 0.5
    rhs_own = (md.f[i] - md.a[i] * n[i]
               - (md.c[i] * n[i] + md.d[i]) * model.others_quiet(alpha)[i])
    if rhs_own <= 0.0:
        raise InfeasibleError(
            "energy budget admits no attempt rate",
            [f"node {i}: backoff listening exceeds the remaining budget by "
             f"{-rhs_own:.3e} J even before the 1/alpha term"])
    lo = max(lo, md.b[i] / rhs_own)
    # every other node j's constraint as a function of alpha_i:
    # r_j - k_j / (1 + alpha_i) >= 0
    others = np.arange(md.n) != i
    prod_k = prod_all / ((1.0 + alpha[i]) * (1.0 + alpha[others]))
    k = (md.c[others] * n[others] + md.d[others]) / prod_k
    r = md.f[others] - md.a[others] * n[others] - md.b[others] / alpha[others]
    dead = ((k > 0.0) & (r <= 0.0)) | ((k == 0.0) & (r < 0.0))
    if np.any(dead):
        j_pos = int(np.argmax(dead))
        j = int(np.flatnonzero(others)[j_pos])
        detail = (f"node {j}: constraint unsatisfiable for any alpha of node {i}"
                  if k[j_pos] > 0.0 else f"node {j}: constraint unsatisfiable")
        raise InfeasibleError("energy budget admits no attempt rate",
                              [f"{detail} (deficit {-r[j_pos]:.3e} J)"])
    rises = k > 0.0
    if np.any(rises):
        lo = max(lo, float(np.max(k[rises] / r[rises])) - 1.0)
    caps = (k < 0.0) & (r < 0.0)
    if np.any(caps):
        hi = min(hi, float(np.min(k[caps] / r[caps])) - 1.0)
    if lo > hi:
        if lo - hi <= 1e-9:
            lo = hi
        else:
            raise InfeasibleError(
                "energy budget admits no attempt rate",
                [f"node {i}: attempt odds must be >= {lo:.4g} for energy "
                 f"neutrality but <= {hi:.4g} is required"])
    return lo, hi


def solve_alpha_block(scenario: Scenario, n, alpha, i: int) -> float:
    """Best attempt odds for node i, all else fixed (iterated linearization).

    The load factor is affine in alpha_i, so the concave log-load term is
    linearized at the current iterate and log(alpha) - gamma*alpha is
    maximized in closed form on the feasible interval.
    """
    md = model.build(scenario)
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float).copy()
    lo, hi = _attempt_interval(md, n, alpha, i)
    prod_others = float(np.prod(1.0 + alpha)) / (1.0 + alpha[i])
    slope = md.per_ratio[i] * n[i] + md.ovh_ratio[i] + prod_others
    alpha[i] = min(max(alpha[i], lo), hi)
    f_prev = None
    for _ in range(MAX_INNER_ITERS):
        x = model.load(md, n, alpha)
        alpha[i] = argmax_log_minus_linear(md.n * slope / x, lo, hi)
        f_cur = np.log(alpha[i]) - md.n * np.log(model.load(md, n, alpha))
        if f_prev is not None and abs(f_cur - f_prev) <= INNER_TOL * max(1.0, abs(f_cur)):
            break
        f_prev = f_cur
    return float(alpha[i])


def _nnls(a, b, start=None) -> np.ndarray:
    """Lawson-Hanson non-negative least squares: argmin ||a x - b|| over x >= 0.

    `start` is an initial passive mask: solved on, its entries <= 0 dropped
    until the rest are positive, and the loop run on from that feasible x
    (Bro & De Jong, J. Chemometrics 11, 1997). The result is `lstsq` on the
    final passive set, so it does not depend on the start when that set
    does not."""
    k = a.shape[1]
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool) if start is None else start.copy()
    while passive.any():
        x[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        if np.all(x[passive] > 0.0):
            break
        passive &= x > 0.0
        x[:] = 0.0
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


def _derivatives(md, n, alpha, scale):
    """Gradient of U and `_energy_jacobian`, in z = (log n, log alpha). The
    boxes are bounds on z and have no rows."""
    x = model.load(md, n, alpha)
    prod = float((1.0 + alpha).prod())
    tau = mac.tau_from_alpha(alpha)
    per = md.per_ratio * n * alpha
    grad = np.concatenate([1.0 - md.n * per / x,
                           1.0 - md.n * (per + md.ovh_ratio * alpha + prod * tau) / x])
    return grad, _energy_jacobian(md, n, alpha, scale)


def _energy_jacobian(md, n, alpha, scale):
    """Jacobian of the energy slacks over `scale` in z, one row per node."""
    q = model.others_quiet(alpha)
    jac = np.zeros((md.n, 2 * md.n))
    jac[:, md.n:] = ((md.c * n + md.d) * q)[:, None] * mac.tau_from_alpha(alpha)
    node = np.arange(md.n)
    jac[node, node] = -(md.a + md.c * q) * n
    jac[node, md.n + node] = md.b / alpha
    return jac / scale[:, None]


def _bounds(md):
    """The boxes 1 <= n <= n_max and ALPHA_FLOOR <= alpha <= 0.5 in z."""
    return (np.concatenate([np.zeros(md.n), np.full(md.n, math.log(ALPHA_FLOOR))]),
            np.concatenate([np.log(md.duty.n_max), np.full(md.n, math.log(0.5))]))


def _energy_scale(md) -> np.ndarray:
    """|f| per node: the solver and the certificate work on slack / |f|."""
    return np.maximum(np.abs(md.f), 1e-30)


def _qp_step(hess, grad, jac, h, lo, hi, work=None):
    """argmax grad.d - d'Bd/2 subject to jac d >= h and lo <= d <= hi, by
    `_dual_active_set` started from `work`. B is factored once, B = LL', and
    B^-1 formed as L^-T L^-1."""
    inv_low = np.linalg.inv(np.linalg.cholesky(hess))
    hinv = inv_low.T @ inv_low
    return _dual_active_set(hinv, hinv @ grad, jac, h, lo, hi, work)


def _dual_active_set(hinv, d0, jac, h, lo, hi, work=None):
    """min (d - d0)'B(d - d0)/2 subject to jac d >= h and lo <= d <= hi, with
    H = B^-1 given, by Goldfarb and Idnani's dual active-set method (Math.
    Prog. 27, 1983). Constraint k reads c_k.d >= b_k, with the c_k the rows
    of jac, then +e_j and -e_j, and b = (h, lo, -hi).

    The start holds as equalities the constraints of the mask `work` (or,
    without one, those that d0 violates) and drops those with a negative
    multiplier until none has one. From there the method adds the most
    violated constraint until none is, each time stepping back to drop a
    constraint whose multiplier reaches 0; a working set it grew is solved
    once more, sorted. Returns (d, multipliers of every k), or None when no
    d is feasible."""
    m, n = jac.shape
    b = np.concatenate([h, lo, -hi])
    hc = np.concatenate([hinv @ jac.T, hinv, -hinv], axis=1)   # H c_k for every k

    def rows(v):
        """c_k.v for every k, of a vector or of each column of v."""
        return np.concatenate([jac @ v, v, -v])

    gap = b - rows(d0)
    if work is None:
        act = np.flatnonzero(gap > 0.0)
    else:
        both = work[m:m + n] & work[m + n:]
        if both.any():   # no coordinate is held at both of its ends
            work = work & ~np.concatenate([np.zeros(m, dtype=bool), both, both])
        act = np.flatnonzero(work)
    hca = hc[:, act]
    gram = rows(hca)[act]
    try:
        lam = np.linalg.solve(gram, gap[act])
        while lam.size and lam.min() < 0.0:
            keep = lam >= 0.0
            act, hca, gram = act[keep], hca[:, keep], gram[np.ix_(keep, keep)]
            lam = np.linalg.solve(gram, gap[act])
    except np.linalg.LinAlgError:   # dependent constraints: start from none
        act, hca, gram, lam = act[:0], hca[:, :0], gram[:0, :0], gap[:0]
    x = d0 + hca @ lam
    # rounding error of each c_k.x - b_k
    ax = np.abs(x)
    tol = 1e-13 * (np.abs(b) + np.concatenate([np.abs(jac) @ ax, ax, ax]))
    grown = False
    for _ in range(3 * len(b)):
        slack = rows(x) - b + tol
        slack[act] = 0.0
        p = int(np.argmin(slack))
        if slack[p] >= 0.0:
            break
        grown, lam_p, viol = True, 0.0, tol[p] - slack[p]
        while True:
            hcp = rows(hc[:, p])
            r = np.linalg.solve(gram, hcp[act])
            z = hc[:, p] - hca @ r
            curv = hcp[p] - hcp[act] @ r      # c_p.z, 0 when c_p is dependent
            full = viol / curv if curv > 1e-12 * hcp[p] else np.inf
            pos = np.flatnonzero(r > 0.0)
            part = lam[pos] / r[pos]
            t = min(full, part.min(initial=np.inf))
            if t == np.inf:
                return None
            if full < np.inf:
                x = x + t * z
                viol -= t * curv
            lam = lam - t * r
            lam_p += t
            if full <= t:
                size = act.size
                grown_gram = np.empty((size + 1, size + 1))
                grown_gram[:size, :size] = gram
                grown_gram[size, :size] = grown_gram[:size, size] = hcp[act]
                grown_gram[size, size] = hcp[p]
                gram, act = grown_gram, np.concatenate([act, [p]])
                lam, hca = np.concatenate([lam, [lam_p]]), hc[:, act]
                break
            keep = np.arange(act.size) != pos[np.argmin(part)]
            act, lam, hca, gram = act[keep], lam[keep], hca[:, keep], gram[np.ix_(keep, keep)]
    else:
        return None
    if grown:
        act = np.sort(act)
        lam = np.linalg.solve(rows(hc[:, act])[act], gap[act])
        x = d0 + hc[:, act] @ lam
    # a coordinate held at a bound sits on it exactly
    ends = act[act >= m] - m
    k = ends % n
    x[k] = np.where(ends < n, lo[k], hi[k])
    mult = np.zeros(len(b))
    mult[act] = lam
    return x, mult


def _feasible_trial(md, z, lo, hi, scale, work):
    """z, or z pulled onto the curved energy constraints by at most three
    minimum-norm corrections, as (z, n, alpha, slacks); None when still
    infeasible. Each correction is `_dual_active_set` with B = I, started
    from the constraints of `work` and the violated energy rows."""
    top = np.concatenate([md.duty.n_max, np.full(md.n, 0.5)])
    for _ in range(4):
        z = np.minimum(np.maximum(z, lo), hi)
        # exp(log v) can miss v by an ulp: z at an upper box end gives that end
        v = np.where(z >= hi, top, np.minimum(np.exp(z), top))
        n, alpha = v[:md.n], v[md.n:]
        slack = model.slacks(md, n, alpha)
        if (slack >= -1e-18).all():
            return z, n, alpha, slack
        start = work.copy()
        start[:md.n] |= slack < 0.0
        step = _dual_active_set(np.eye(2 * md.n), np.zeros(2 * md.n),
                                _energy_jacobian(md, n, alpha, scale), -slack / scale,
                                lo - z, hi - z, start)
        if step is None:
            return None
        z = z + step[0]
    return None


def _line_search(md, z, d, u, lo, hi, scale, work):
    """The first of z + d, z + d/2, ... that `_feasible_trial` (started from
    `work`) keeps and whose utility beats u, as (z, n, alpha, slacks,
    utility); None when none does."""
    t = 1.0
    while t > 1e-10:
        z_trial = z + t * d
        trial = _feasible_trial(md, z_trial, lo, hi, scale, work)
        if trial is not None:
            u_trial = _utility_raw(md, *trial[1:3])
            if u_trial > u:
                return (*trial, u_trial)
        if np.array_equal(z_trial, z):
            break   # every shorter step rounds to this same trial
        t *= 0.5
    return None


def _start(md):
    """Best energy-feasible point with one common alpha for every node: the
    60 alphas of the grid solved as one batch of n blocks, the first best
    row kept."""
    grid = np.geomspace(max(1e-4, ALPHA_FLOOR), 0.5, 60)
    alpha = np.repeat(grid[:, None], md.n, axis=1)
    n = _solve_n_block(md, alpha, np.ones_like(alpha))
    ok = ~np.isnan(n[:, 0])
    if not np.any(ok):
        _sample_intervals(md, alpha[-1])  # raises the diagnosis at alpha = 0.5
    best = int(np.argmax(_utility_raw(md, n[ok], alpha[ok])))
    return n[ok][best], alpha[ok][best]


def decision_reports(scenario: Scenario, n, alpha):
    """The model at a decision: PerfReport, EnergyBreakdown per node, slacks."""
    return _decision_reports(*model.at_point(scenario, n, alpha))


def _decision_reports(md, n, alpha):
    perf = mac._evaluate(md, n, alpha)
    breakdown = energy._breakdown(md, n, perf.window, perf.slot_probs)
    return (perf, tuple(energy._row(energy.EnergyBreakdown, breakdown, i) for i in range(md.n)),
            model.slacks(md, n, alpha))


@dataclass
class OptResult:
    """Solver output: the decision, its audit trail and derived reports."""

    decision: DecisionVector
    utility: float
    utility_trace: list[float]
    perf: mac.PerfReport
    energy: tuple[energy.EnergyBreakdown, ...]
    slacks: np.ndarray
    integer_n: np.ndarray
    integer_w: np.ndarray
    integer_feasible: bool
    status: str            # "converged" or "iteration-cap"
    outer_iters: int


def solve_bcd(scenario: Scenario, cfg: OptimizerConfig | None = None) -> OptResult:
    """Proportional-fair decision by a feasible-iterate SQP in z = (log n, log alpha).

    Starts at `_start`. Each iteration's QP maximizes grad U . d - d'Bd/2
    over the step d, subject to the boxes and the energy slacks over |f|
    linearized at z; B is a Powell-damped BFGS model of minus the Lagrangian's
    Hessian. Each QP starts from the working set the previous one ended on.
    The step is halved until `_feasible_trial` keeps it (every slack
    >= -1e-18 J) and U rises; if no step does, the iterate stays. From the
    second iteration on, stops once the utility change and the largest move
    are within `OUTER_TOL` and `MOVE_TOL`. Raises InfeasibleError with
    per-node details when no common alpha admits feasible sample counts.
    """
    cfg = cfg or OptimizerConfig()
    md = model.build(scenario)
    lo, hi = _bounds(md)
    scale = _energy_scale(md)
    n, alpha = _start(md)
    z = np.log(np.concatenate([n, alpha]))
    u = _utility_raw(md, n, alpha)
    grad, jac = _derivatives(md, n, alpha, scale)
    slack = model.slacks(md, n, alpha)
    hess = np.eye(2 * md.n)
    active = None   # the last QP's active constraints, where the next QP starts

    trace: list[float] = []
    status = "iteration-cap"
    outer = 0
    for outer in range(1, cfg.max_outer_iters + 1):
        n_before, alpha_before = n, alpha
        qp = _qp_step(hess, grad, jac, -np.maximum(slack / scale, 0.0), lo - z, hi - z, active)
        if qp:
            active = qp[1] > 0.0
        found = qp and _line_search(md, z, qp[0], u, lo, hi, scale, active)
        if found:
            z_new, n, alpha, slack, u = found
            grad_new, jac_new = _derivatives(md, n, alpha, scale)
            # change of the Lagrangian's gradient at the QP's multipliers
            hess = _bfgs(hess, z_new - z, grad - grad_new + (jac - jac_new).T @ qp[1][:md.n])
            z, grad, jac = z_new, grad_new, jac_new
        trace.append(u)
        if outer > 1:
            du = abs(u - trace[-2]) / max(1.0, abs(u))
            move = max(float(np.max(np.abs(n - n_before) / np.maximum(1.0, n_before))),
                       float(np.max(np.abs(alpha - alpha_before))))
            if du <= OUTER_TOL and move <= MOVE_TOL:
                status = "converged"
                break

    dv = DecisionVector(n=n, alpha=alpha)
    perf, breakdowns, slacks = _decision_reports(md, n, alpha)
    if np.any(perf.window < 1.0):
        bad = np.nonzero(perf.window < 1.0)[0]
        warnings.warn(
            f"recovered contention window below one slot for nodes "
            f"{bad.tolist()}; the alpha box ignores the window floor",
            RuntimeWarning, stacklevel=2)
    int_n, int_w, int_feasible = _round_decision(md, dv)
    return OptResult(decision=dv, utility=trace[-1], utility_trace=trace,
                     perf=perf, energy=breakdowns, slacks=slacks,
                     integer_n=int_n, integer_w=int_w,
                     integer_feasible=int_feasible,
                     status=status, outer_iters=outer)


def _bfgs(hess, s, y):
    """BFGS update with Powell's damping, which keeps the model positive definite."""
    hs = hess @ s
    shs = float(s @ hs)
    sy = float(s @ y)
    if sy < 0.2 * shs:
        theta = 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        sy = float(s @ y)
    return hess + y[:, None] * y / sy - hs[:, None] * hs / shs


def round_decision(scenario: Scenario, dv: DecisionVector):
    """Nearest integer operating point below/around a decision.

    Floors the sample counts, lifts any node whose energy constraint bounds
    n from below, then greedily increments while within the sample intervals
    and utility improves. The window is `mac.integer_window`'s. Returns
    (n, W, feasible), where feasible says whether every node is energy-neutral
    at the attempt odds alpha(W, m) that the integer point itself realizes.
    """
    return _round_decision(model.build(scenario), dv)


def _round_decision(md, dv):
    lo, hi, _ = _sample_intervals(md, dv.alpha)
    n_int = np.floor(dv.n + 1e-9)
    n_int = np.maximum(n_int, np.ceil(lo - 1e-9))
    n_int = np.minimum(n_int, np.maximum(np.floor(hi + 1e-9), 1.0))
    n_int = np.clip(n_int, 1.0, md.duty.n_max)
    if np.all(n_int >= lo - 1e-9) and np.all(n_int <= hi + 1e-9):
        u_cur = _utility_raw(md, n_int, dv.alpha)
        cap = np.minimum(md.duty.n_max, np.floor(hi + 1e-9))
        while True:
            # every +1 step as one row; the first best gain wins
            up = np.flatnonzero(n_int + 1.0 <= cap)
            trials = np.repeat(n_int[None], len(up), axis=0)
            trials[np.arange(len(up)), up] += 1.0
            gains = _utility_raw(md, trials, dv.alpha) - u_cur
            if not np.any(gains > 0.0):
                break
            best = int(np.argmax(gains))
            n_int[up[best]] += 1.0
            u_cur += gains[best]
    w_int, tau_int = mac.integer_window(dv.alpha, model.sleep_slots(md, n_int))
    feasible = bool(np.all(model.slacks(md, n_int, mac.alpha_from_tau(tau_int)) >= 0.0))
    return n_int.astype(int), w_int, feasible


@dataclass
class KktEntry:
    """One coordinate of z = (log n, log alpha): its value (n_i or alpha_i),
    dU/dz_k, and coordinate k of the certificate's scaled residual."""

    name: str
    value: float
    derivative: float
    residual: float
    ok: bool


@dataclass
class KktReport:
    """Per-coordinate entries, and the multiplier certificate in log
    coordinates: `multipliers` (lambda >= 0, one per name in `active`)
    minimize ||grad U + sum lambda_k grad g_k||, and `residual` is that norm
    over max(1, ||grad U||). Energy rows g_k are the slacks over |f|."""

    entries: list[KktEntry] = field(default_factory=list)
    residual: float = math.nan
    active: list[str] = field(default_factory=list)
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def check_kkt(scenario: Scenario, dv: DecisionVector) -> KktReport:
    """First-order optimality certificate at a feasible decision.

    Takes as active the energy slacks within 1e-7 of |f| and the boxes of z
    at their ends, and finds their multipliers by NNLS. Entry k carries
    coordinate k of grad U + sum lambda grad g over max(1, ||grad U||); it
    is ok within `KKT_TOL`, and `ok` needs every entry ok. This also fails a
    point where one active constraint holds several coordinates, so that
    none can move alone but a joint move still gains.
    """
    md = model.build(scenario)
    lo, hi = _bounds(md)
    scale = _energy_scale(md)
    grad, jac = _derivatives(md, dv.n, dv.alpha, scale)
    z = np.log(np.concatenate([dv.n, dv.alpha]))
    on = np.concatenate([model.slacks(md, dv.n, dv.alpha) <= 1e-7 * scale,
                         z - lo <= 1e-9, hi - z <= 1e-9])
    # the active rows: energy, then e_k at a lower end and -e_k at an upper one
    ends = np.flatnonzero(on[md.n:])
    box = np.zeros((len(ends), 2 * md.n))
    box[np.arange(len(ends)), ends % (2 * md.n)] = np.where(ends < 2 * md.n, 1.0, -1.0)
    rows = np.vstack([jac[on[:md.n]], box])
    coords = [f"{v}[{i}]" for v in ("n", "alpha") for i in range(md.n)]
    names = ([f"energy[{i}]" for i in range(md.n)]
             + [f"{c} {end}" for end in ("lower", "upper") for c in coords])
    # started from every active row: at an optimum each one usually binds
    lam = _nnls(rows.T, -grad, np.ones(len(rows), dtype=bool))
    res = (grad + rows.T @ lam) / max(1.0, float(np.linalg.norm(grad)))
    values = np.concatenate([dv.n, dv.alpha])
    return KktReport(
        entries=[KktEntry(name=c, value=float(v), derivative=float(d),
                          residual=float(r), ok=bool(abs(r) <= KKT_TOL))
                 for c, v, d, r in zip(coords, values, grad, res)],
        residual=float(np.linalg.norm(res)),
        active=[name for name, a in zip(names, on) if a], multipliers=lam)
