"""Proportional-fair allocation of samples per cycle and attempt rates.

Maximizes the sum of log throughputs U over (n, alpha) subject to the boxes
1 <= n_i <= n_max_i, 0 < alpha_i <= 0.5 and per-node energy neutrality. In
z = (log n, log alpha) the channel load is a posynomial, so U is jointly
concave, the boxes are linear and only the N energy constraints are not
convex. `solve_bcd` runs one feasible-iterate SQP in z (Panier & Tits, Math.
Prog. 59, 1993) whose QPs are least-distance problems solved by NNLS
(Lawson & Hanson, 1974). `check_kkt` judges a point by one test: the
multipliers of its active constraints from the same NNLS, and the residual
of the Lagrangian's gradient per coordinate of z. The one-block solvers
(closed-form maximizers of log x - gamma*x on an interval) remain for the
start point and as tools.
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


def _utility_raw(md, n, alpha) -> float:
    x = model.load(md, n, alpha)
    s = alpha * n * md.payload / (x * md.t_col)
    if np.any(s <= 0.0) or not np.isfinite(x):
        raise InvalidStateError("throughput must be positive")
    return float(np.sum(np.log(s)))


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
    return _sample_intervals(model.build(scenario), alpha)


def _sample_intervals(md, alpha):
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


def solve_n_block(scenario: Scenario, alpha, n0):
    """Best sample counts at fixed attempt odds (iterated linearization).

    Each iteration replaces the concave log-load term by its tangent at the
    current point; the surrogate separates per node and is maximized in
    closed form over the feasible box. The true block objective is
    non-decreasing along the iterates.
    """
    return _solve_n_block(model.build(scenario), alpha, n0)


def _solve_n_block(md, alpha, n0):
    alpha = np.asarray(alpha, dtype=float)
    n = np.clip(np.asarray(n0, dtype=float), 1.0, md.duty.n_max)
    lo, hi = _sample_intervals(md, alpha)
    slope = md.per_ratio * alpha  # dX/dn_i, constant
    f_prev = None
    for _ in range(MAX_INNER_ITERS):
        n = argmax_log_minus_linear(md.n * slope / model.load(md, n, alpha), lo, hi)
        f_cur = float(np.sum(np.log(n))) - md.n * np.log(model.load(md, n, alpha))
        if f_prev is not None and abs(f_cur - f_prev) <= INNER_TOL * max(1.0, abs(f_cur)):
            break
        f_prev = f_cur
    return n


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
    prod_inv_i = (1.0 + alpha[i]) / prod_all
    rhs_own = md.f[i] - md.a[i] * n[i] - (md.c[i] * n[i] + md.d[i]) * prod_inv_i
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


def _nnls(a, b) -> np.ndarray:
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


def _ldp(e, f):
    """Least-distance point argmin ||w|| subject to e w >= f, and its
    multipliers, through NNLS on the dual (Lawson & Hanson, ch. 23).
    None when the constraints admit no point."""
    # the problem is homogeneous in f: scale its largest entry to 1, so
    # that NNLS's tolerance does not swallow a tiny violation
    top = float(f.max(initial=0.0))
    if top <= 0.0:
        return np.zeros(e.shape[1]), np.zeros(e.shape[0])
    rows = np.vstack([e.T, f / top])
    target = np.zeros(rows.shape[0])
    target[-1] = 1.0
    u = _nnls(rows, target)
    r = rows @ u - target
    if -r[-1] <= 1e-12:
        return None
    return -top * r[:-1] / r[-1], top * u / -r[-1]


def _derivatives(md, n, alpha, scale):
    """Gradient of U and the constraint rows g(z) >= 0 with their gradients,
    in z = (log n, log alpha): the energy slacks over `scale`, then the lower
    and the upper boxes."""
    x = model.load(md, n, alpha)
    prod = float(np.prod(1.0 + alpha))
    tau = alpha / (1.0 + alpha)
    per = md.per_ratio * n * alpha
    grad = np.concatenate([1.0 - md.n * per / x,
                           1.0 - md.n * (per + md.ovh_ratio * alpha + prod * tau) / x])
    q = (1.0 + alpha) / prod      # prod over the other nodes of 1/(1 + alpha_j)
    jac_x = np.outer((md.c * n + md.d) * q, tau)
    np.fill_diagonal(jac_x, md.b / alpha)
    jac = np.hstack([np.diag(-(md.a + md.c * q) * n), jac_x]) / scale[:, None]
    eye = np.eye(2 * md.n)
    return grad, np.vstack([jac, eye, -eye])


def _bounds(md):
    """The boxes 1 <= n <= n_max and ALPHA_FLOOR <= alpha <= 0.5 in z."""
    return (np.concatenate([np.zeros(md.n), np.full(md.n, math.log(ALPHA_FLOOR))]),
            np.concatenate([np.log(md.duty.n_max), np.full(md.n, math.log(0.5))]))


def _energy_scale(md) -> np.ndarray:
    """|f| per node: the solver and the certificate work on slack / |f|."""
    return np.maximum(np.abs(md.f), 1e-30)


def _qp_step(hess, grad, rows, h):
    """argmax grad.d - d'Bd/2 subject to rows d >= h, and the multipliers of
    the rows; with B = LL', a least-distance problem in w = L'd - L^-1 grad."""
    low = np.linalg.cholesky(hess)
    d0 = np.linalg.solve(hess, grad)
    sol = _ldp(np.linalg.solve(low, rows.T).T, h - rows @ d0)
    if sol is None:
        return None
    return d0 + np.linalg.solve(low.T, sol[0]), sol[1]


def _feasible_trial(md, z, lo, hi, scale):
    """z, or z pulled onto the curved energy constraints by at most three
    minimum-norm corrections, as (z, n, alpha); None when still infeasible."""
    top = np.concatenate([md.duty.n_max, np.full(md.n, 0.5)])
    for _ in range(4):
        z = np.clip(z, lo, hi)
        # exp(log v) can miss v by an ulp: z at an upper box end gives that end
        v = np.where(z >= hi, top, np.minimum(np.exp(z), top))
        n, alpha = v[:md.n], v[md.n:]
        slack = model.slacks(md, n, alpha)
        if np.all(slack >= -1e-18):
            return z, n, alpha
        rows = _derivatives(md, n, alpha, scale)[1]
        step = _ldp(rows, np.concatenate([-slack / scale, lo - z, z - hi]))
        if step is None:
            return None
        z = z + step[0]
    return None


def _line_search(md, z, d, u, lo, hi, scale):
    """The first of z + d, z + d/2, ... that `_feasible_trial` keeps and whose
    utility beats u, as (z, n, alpha, utility); None when none does."""
    t = 1.0
    while t > 1e-10:
        trial = _feasible_trial(md, z + t * d, lo, hi, scale)
        if trial is not None:
            u_trial = _utility_raw(md, *trial[1:])
            if u_trial > u:
                return (*trial, u_trial)
        t *= 0.5
    return None


def _start(md):
    """Best energy-feasible point with one common alpha for every node."""
    best = None
    for a in np.geomspace(max(1e-4, ALPHA_FLOOR), 0.5, 60):
        alpha = np.full(md.n, a)
        try:
            n = _solve_n_block(md, alpha, np.ones(md.n))
        except InfeasibleError as err:
            error = err           # the last one is the diagnosis at alpha = 0.5
            continue
        u = _utility_raw(md, n, alpha)
        if best is None or u > best[0]:
            best = (u, n, alpha)
    if best is None:
        raise error
    return best[1], best[2]


def decision_reports(scenario: Scenario, n, alpha):
    """The model at a decision: PerfReport, EnergyBreakdown per node, slacks."""
    return (mac.evaluate(scenario, n, alpha),
            tuple(energy.cycle_energy(scenario, i, n, alpha) for i in range(scenario.n_nodes)),
            model.slacks(model.build(scenario), n, alpha))


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
    Hessian. The step is halved until `_feasible_trial` keeps it (every slack
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
    grad, rows = _derivatives(md, n, alpha, scale)
    hess = np.eye(2 * md.n)

    trace: list[float] = []
    status = "iteration-cap"
    outer = 0
    for outer in range(1, cfg.max_outer_iters + 1):
        n_before, alpha_before = n, alpha
        slack = model.slacks(md, n, alpha) / scale
        qp = _qp_step(hess, grad, rows,
                      np.concatenate([-np.maximum(slack, 0.0), lo - z, z - hi]))
        found = qp and _line_search(md, z, qp[0], u, lo, hi, scale)
        if found:
            z_new, n, alpha, u = found
            grad_new, rows_new = _derivatives(md, n, alpha, scale)
            # change of the Lagrangian's gradient at the QP's multipliers
            hess = _bfgs(hess, z_new - z, grad - grad_new + (rows - rows_new).T @ qp[1])
            z, grad, rows = z_new, grad_new, rows_new
        trace.append(u)
        if outer > 1:
            du = abs(u - trace[-2]) / max(1.0, abs(u))
            move = max(float(np.max(np.abs(n - n_before) / np.maximum(1.0, n_before))),
                       float(np.max(np.abs(alpha - alpha_before))))
            if du <= OUTER_TOL and move <= MOVE_TOL:
                status = "converged"
                break

    dv = DecisionVector(n=n, alpha=alpha)
    perf, breakdowns, slacks = decision_reports(scenario, n, alpha)
    if np.any(perf.window < 1.0):
        bad = np.nonzero(perf.window < 1.0)[0]
        warnings.warn(
            f"recovered contention window below one slot for nodes "
            f"{bad.tolist()}; the alpha box ignores the window floor",
            RuntimeWarning, stacklevel=2)
    int_n, int_w, int_feasible = round_decision(scenario, dv)
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
    return hess + np.outer(y, y) / sy - np.outer(hs, hs) / shs


def round_decision(scenario: Scenario, dv: DecisionVector):
    """Nearest integer operating point below/around a decision.

    Floors the sample counts, lifts any node whose energy constraint bounds
    n from below, then greedily increments while within the sample intervals
    and utility improves. The window is `mac.integer_window`'s. Returns
    (n, W, feasible), where feasible says whether every node is energy-neutral
    at the attempt odds alpha(W, m) that the integer point itself realizes.
    """
    md = model.build(scenario)
    lo, hi = _sample_intervals(md, dv.alpha)
    n_int = np.floor(dv.n + 1e-9)
    n_int = np.maximum(n_int, np.ceil(lo - 1e-9))
    n_int = np.minimum(n_int, np.maximum(np.floor(hi + 1e-9), 1.0))
    n_int = np.clip(n_int, 1.0, md.duty.n_max)
    if np.all(n_int >= lo - 1e-9) and np.all(n_int <= hi + 1e-9):
        u_cur = _utility_raw(md, n_int, dv.alpha)
        improved = True
        while improved:
            improved = False
            best_gain, best_i = 0.0, -1
            for i in range(md.n):
                if n_int[i] + 1.0 > min(md.duty.n_max[i], np.floor(hi[i] + 1e-9)):
                    continue
                trial = n_int.copy()
                trial[i] += 1.0
                gain = _utility_raw(md, trial, dv.alpha) - u_cur
                if gain > best_gain:
                    best_gain, best_i = gain, i
            if best_i >= 0:
                n_int[best_i] += 1.0
                u_cur += best_gain
                improved = True
    w_int, tau_int = mac.integer_window(dv.alpha, n_int * md.duty.h + md.duty.g)
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
    grad, rows = _derivatives(md, dv.n, dv.alpha, scale)
    z = np.log(np.concatenate([dv.n, dv.alpha]))
    on = np.concatenate([model.slacks(md, dv.n, dv.alpha) <= 1e-7 * scale,
                         z - lo <= 1e-9, hi - z <= 1e-9])
    coords = [f"{v}[{i}]" for v in ("n", "alpha") for i in range(md.n)]
    names = ([f"energy[{i}]" for i in range(md.n)]
             + [f"{c} {end}" for end in ("lower", "upper") for c in coords])
    lam = _nnls(rows[on].T, -grad)
    res = (grad + rows[on].T @ lam) / max(1.0, float(np.linalg.norm(grad)))
    values = np.concatenate([dv.n, dv.alpha])
    return KktReport(
        entries=[KktEntry(name=c, value=float(v), derivative=float(d),
                          residual=float(r), ok=bool(abs(r) <= KKT_TOL))
                 for c, v, d, r in zip(coords, values, grad, res)],
        residual=float(np.linalg.norm(res)),
        active=[name for name, a in zip(names, on) if a], multipliers=lam)
