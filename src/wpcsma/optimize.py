"""Proportional-fair allocation of samples per cycle and attempt rates.

Maximizes the sum of log throughputs over (n, alpha) subject to the box
constraints 1 <= n_i <= n_max_i, 0 < alpha_i <= 0.5 and per-node energy
neutrality. The objective is a difference of concave functions along each
block, so each block is solved by iterating a linearized surrogate whose
per-coordinate maximizer (of log x - gamma*x over an interval) is closed
form; block coordinate descent alternates a full n update with a
Gauss-Seidel sweep over the alpha coordinates.
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


@dataclass(frozen=True)
class OptimizerConfig:
    outer_tol: float = 1e-8       # relative utility change across outer iters
    inner_tol: float = 1e-10      # relative objective change inside a block
    max_outer_iters: int = 200
    max_inner_iters: int = 100
    alpha_floor: float = 1e-6     # numerical guard at the open alpha > 0 end
    move_tol: float = 1e-9        # max coordinate move across outer iters

    def __post_init__(self):
        for name in ("max_outer_iters", "max_inner_iters"):
            v = getattr(self, name)
            require(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                    and v >= 1, f"{name} must be an integer >= 1, got {v!r}")
        for name in ("outer_tol", "inner_tol", "alpha_floor", "move_tol"):
            v = getattr(self, name)
            require(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) and v > 0,
                    f"{name} must be a finite number > 0, got {v!r}")


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


def argmax_log_minus_linear(gamma: float, lo: float, hi: float) -> float:
    """Maximizer of log(x) - gamma*x over [lo, hi] (closed form)."""
    require(lo <= hi and lo > 0, "interval must satisfy 0 < lo <= hi")
    if gamma <= 0.0:
        return hi
    return min(max(1.0 / gamma, lo), hi)


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


def solve_n_block(scenario: Scenario, alpha, n0, cfg: OptimizerConfig | None = None):
    """Best sample counts at fixed attempt odds (iterated linearization).

    Each iteration replaces the concave log-load term by its tangent at the
    current point; the surrogate separates per node and is maximized in
    closed form over the feasible box. The true block objective is
    non-decreasing along the iterates.
    """
    return _solve_n_block(model.build(scenario), alpha, n0, cfg or OptimizerConfig())


def _solve_n_block(md, alpha, n0, cfg: OptimizerConfig):
    alpha = np.asarray(alpha, dtype=float)
    n = np.clip(np.asarray(n0, dtype=float), 1.0, md.duty.n_max)
    lo, hi = _sample_intervals(md, alpha)
    slope = md.per_ratio * alpha  # dX/dn_i, constant
    f_prev = None
    for _ in range(cfg.max_inner_iters):
        gamma = md.n * slope / model.load(md, n, alpha)
        # argmax_log_minus_linear per node; slope > 0, so gamma > 0
        n = np.minimum(np.maximum(1.0 / gamma, lo), hi)
        f_cur = float(np.sum(np.log(n))) - md.n * np.log(model.load(md, n, alpha))
        if f_prev is not None and abs(f_cur - f_prev) <= cfg.inner_tol * max(1.0, abs(f_cur)):
            break
        f_prev = f_cur
    return n


def attempt_interval(scenario: Scenario, n, alpha, i: int,
                     floor: float = 1e-6):
    """Feasible interval for node i's attempt odds, all else fixed.

    The lower end comes from node i's own energy constraint (backoff
    listening grows like 1/alpha) and from every other node's constraint
    (node i attempting more often makes the others' transmissions collide,
    which costs them less than a full exchange). Raises when empty.
    """
    return _attempt_interval(model.build(scenario), n, alpha, i, floor)


def _attempt_interval(md, n, alpha, i: int, floor: float):
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    prod_all = float(np.prod(1.0 + alpha))
    lo = floor
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


def solve_alpha_block(scenario: Scenario, n, alpha, i: int,
                      cfg: OptimizerConfig | None = None) -> float:
    """Best attempt odds for node i, all else fixed (iterated linearization).

    The load factor is affine in alpha_i, so the concave log-load term is
    linearized at the current iterate and log(alpha) - gamma*alpha is
    maximized in closed form on the feasible interval.
    """
    return _solve_alpha_block(model.build(scenario), n, alpha, i, cfg or OptimizerConfig())


def _solve_alpha_block(md, n, alpha, i: int, cfg: OptimizerConfig) -> float:
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float).copy()
    lo, hi = _attempt_interval(md, n, alpha, i, cfg.alpha_floor)
    prod_others = float(np.prod(1.0 + alpha)) / (1.0 + alpha[i])
    slope = md.per_ratio[i] * n[i] + md.ovh_ratio[i] + prod_others
    alpha[i] = min(max(alpha[i], lo), hi)
    f_prev = None
    for _ in range(cfg.max_inner_iters):
        x = model.load(md, n, alpha)
        alpha[i] = argmax_log_minus_linear(md.n * slope / x, lo, hi)
        f_cur = np.log(alpha[i]) - md.n * np.log(model.load(md, n, alpha))
        if f_prev is not None and abs(f_cur - f_prev) <= cfg.inner_tol * max(1.0, abs(f_cur)):
            break
        f_prev = f_cur
    return float(alpha[i])


def _any_energy_bound_active(md, n, alpha, rel: float = 1e-7) -> bool:
    # pair moves only help when an energy constraint pins coordinates;
    # an alpha pinned by (17)/(18) leaves that node's slack at exactly 0
    budgets = np.abs(md.f) + np.abs(md.a) * n + md.b / alpha
    return bool(np.any(model.slacks(md, n, alpha) <= rel * np.maximum(budgets, 1e-30)))


class _PairTerms:
    """Scalars of the two-coordinate move, fixed for one pass of pair moves.

    With t_k = 1 + alpha_k, a move scales t_i by e^d and t_j by e^-d, so
    prod(1 + alpha) = P stays fixed and, with n fixed, along d:
      load     X(d) = X0 + s_i (t_i - 1) + s_j (t_j - 1)
      utility  U(d) = U0 + log(t_i - 1) + log(t_j - 1) - N log X(d)
      slack_k       = r_k - b_k / (t_k - 1) - K_k t_k
    with s_k = per_ratio_k n_k + ovh_ratio_k, r_k = f_k - a_k n_k,
    K_k = (c_k n_k + d_k) / P and X0 the load with both alphas removed.
    Every other node's slack is invariant. Each step is O(1) float work
    instead of an O(N) array pass.
    """

    def __init__(self, md, n, alpha):
        self.nn = md.n
        self.s = (md.per_ratio * n + md.ovh_ratio).tolist()
        self.r = (md.f - md.a * n).tolist()
        self.k = ((md.c * n + md.d) / float(np.prod(1.0 + alpha))).tolist()
        self.b = md.b.tolist()

    def gain(self, i: int, j: int, x0: float, bi: float, bj: float, d: float) -> float:
        """U(d) - U0 for the pair (i, j) starting at t_i = bi, t_j = bj."""
        ai = bi * math.exp(d) - 1.0
        aj = bj * math.exp(-d) - 1.0
        x = x0 + self.s[i] * ai + self.s[j] * aj
        return math.log(ai) + math.log(aj) - self.nn * math.log(x)

    def slack(self, k: int, a: float) -> float:
        """Node k's energy slack at attempt odds a (the pair move's P)."""
        return self.r[k] - self.b[k] / a - self.k[k] * (1.0 + a)

    def odds_limit(self, k: int, a0: float, up: bool) -> float | None:
        """First odds reached from a0 (moving up or down) where node k's slack
        turns negative, or None when it never does.

        Multiplied by a > 0, slack >= 0 reads q(a) = -K a^2 + (r - K) a - b >= 0.
        """
        kk, r, b = self.k[k], self.r[k], self.b[k]
        if kk == 0.0:
            if r <= 0.0:
                return a0
            return None if up else b / r
        disc = (r - kk) ** 2 - 4.0 * kk * b
        if disc < 0.0:
            return a0 if kk > 0.0 else None
        # numerically stable roots of the quadratic
        qq = -0.5 * ((r - kk) + math.copysign(math.sqrt(disc), r - kk))
        a1, a2 = sorted((qq / -kk, -b / qq))
        if kk > 0.0:        # feasible set [a1, a2]
            return a2 if up else a1
        # kk < 0: feasible set (-inf, a1] and [a2, inf)
        if up:
            return a1 if a0 < 0.5 * (a1 + a2) else None
        return a2 if a0 > 0.5 * (a1 + a2) else None

    def ends(self, i: int, j: int, bi: float, bj: float, floor: float):
        """Feasible step range [d_lo, d_hi] around 0, or None when (almost) empty.

        The boxes floor <= alpha <= 0.5 bound d first; the closed-form roots of
        the two moving constraints then shrink it, and each end is re-checked
        with the slack itself (bisecting only if rounding put it outside).
        """
        d_hi = min(math.log(1.5 / bi), math.log(bj / (1.0 + floor)))
        d_lo = max(math.log((1.0 + floor) / bi), math.log(bj / 1.5))
        if d_hi <= 0.0 or d_lo >= 0.0 or d_hi - d_lo < 1e-12:
            return None
        # node i's odds rise with d (t_i = bi e^d), node j's fall (t_j = bj e^-d)
        for k, t0, sign in ((i, bi, 1.0), (j, bj, -1.0)):
            for up in (True, False):
                a = self.odds_limit(k, t0 - 1.0, up)
                if a is None:
                    continue
                # a root at or below -1 lies behind a0: no step that way
                d = sign * math.log((1.0 + a) / t0) if a > -1.0 else 0.0
                if up == (sign > 0.0):
                    d_hi = min(d_hi, d)
                else:
                    d_lo = max(d_lo, d)

        def feasible(d):
            return (self.slack(i, bi * math.exp(d) - 1.0) >= -1e-18
                    and self.slack(j, bj * math.exp(-d) - 1.0) >= -1e-18)

        d_hi = _feasible_end(feasible, d_hi)
        d_lo = -_feasible_end(lambda d: feasible(-d), -d_lo)
        return d_lo, d_hi


def _pair_sweep(md, n, alpha, floor: float) -> float:
    """One pass of two-coordinate attempt-odds moves; returns the max move.

    A shared active energy constraint pins several alpha coordinates at once
    (it depends on them only through the product of 1 + alpha), and no single
    coordinate can then move without breaking feasibility. Scaling
    (1 + alpha_i) by e^d and (1 + alpha_j) by e^-d leaves every constraint of
    the other nodes exactly invariant, so a line search along d redistributes
    attempt odds within the pinned set. Only the pair's own constraints and
    boxes bound d, and along d everything is scalar (see `_PairTerms`).
    """
    terms = _PairTerms(md, n, alpha)
    moved = 0.0
    u_cur = _utility_raw(md, n, alpha)
    x_cur = model.load(md, n, alpha)
    for i in range(md.n):
        for j in range(i + 1, md.n):
            ai0, aj0 = float(alpha[i]), float(alpha[j])
            bi, bj = 1.0 + ai0, 1.0 + aj0
            span = terms.ends(i, j, bi, bj, floor)
            if span is None:
                continue
            x0 = x_cur - terms.s[i] * ai0 - terms.s[j] * aj0

            def gain(d):
                return terms.gain(i, j, x0, bi, bj, d)

            d_best = _line_max(gain, *span)
            tol = 1e-14 * max(1.0, abs(u_cur))
            if gain(d_best) - gain(0.0) <= tol:
                continue
            trial = alpha.copy()
            trial[i] = bi * math.exp(d_best) - 1.0
            trial[j] = bj * math.exp(-d_best) - 1.0
            u_new = _utility_raw(md, n, trial)
            if u_new > u_cur + tol:
                alpha[:] = trial
                moved = max(moved, abs(alpha[i] - ai0), abs(alpha[j] - aj0))
                u_cur = u_new
                x_cur = model.load(md, n, alpha)
    return moved


def _feasible_end(feasible, d_end: float, iters: int = 60) -> float:
    """Largest feasible step in [0, d_end]; feasibility holds at 0."""
    if d_end <= 0.0 or feasible(d_end):
        return max(d_end, 0.0)
    lo, hi = 0.0, d_end
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _line_max(fun, lo: float, hi: float, coarse: int = 17,
              tol: float = 1e-12) -> float:
    """Deterministic 1-D maximizer: coarse grid then golden-section refine."""
    grid = np.linspace(lo, hi, coarse).tolist()
    vals = [fun(g) for g in grid]
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


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


def solve_bcd(scenario: Scenario, cfg: OptimizerConfig | None = None,
              init: DecisionVector | None = None) -> OptResult:
    """Block coordinate descent over (n, alpha).

    Starts from n = 1, alpha = 0.5 (alpha at the top of its box puts the
    least coupling pressure on the energy constraints); each outer iteration
    runs the n block, one ascending Gauss-Seidel sweep of the alpha
    coordinates, and a pass of two-coordinate alpha moves that redistribute
    attempt odds pinned together by a shared active energy constraint (single
    coordinates cannot move along such a constraint). Stops when the utility
    change and the largest coordinate move both fall under their tolerances.
    Raises InfeasibleError with per-node details when no feasible decision
    exists.
    """
    cfg = cfg or OptimizerConfig()
    md = model.build(scenario)
    if init is not None:
        n = init.n.copy()
        alpha = init.alpha.copy()
    else:
        n = np.ones(md.n)
        alpha = np.full(md.n, 0.5)

    trace: list[float] = []
    status = "iteration-cap"
    u_prev = None
    outer = 0
    for outer in range(1, cfg.max_outer_iters + 1):
        n_before, alpha_before = n.copy(), alpha.copy()
        n = _solve_n_block(md, alpha, n, cfg)
        for i in range(md.n):
            alpha[i] = _solve_alpha_block(md, n, alpha, i, cfg)
        if md.n > 1 and _any_energy_bound_active(md, n, alpha):
            _pair_sweep(md, n, alpha, cfg.alpha_floor)
        u = _utility_raw(md, n, alpha)
        trace.append(u)
        if u_prev is not None:
            du = abs(u - u_prev) / max(1.0, abs(u))
            move = max(float(np.max(np.abs(n - n_before) / np.maximum(1.0, n_before))),
                       float(np.max(np.abs(alpha - alpha_before))))
            if du <= cfg.outer_tol and move <= cfg.move_tol:
                status = "converged"
                break
        u_prev = u

    dv = DecisionVector(n=n, alpha=np.minimum(alpha, 0.5))
    perf = mac.evaluate(scenario, n, alpha)
    breakdowns = tuple(energy.cycle_energy(scenario, i, n, alpha)
                       for i in range(md.n))
    slacks = model.slacks(md, n, alpha)
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


def round_decision(scenario: Scenario, dv: DecisionVector):
    """Nearest integer operating point below/around a decision.

    Floors the sample counts, lifts any node whose energy constraint bounds
    n from below, then greedily increments while within the sample intervals
    and utility improves. The window is the recovered one rounded to an
    integer >= 1. Returns (n, W, feasible), where feasible says whether every
    node is energy-neutral at the attempt odds alpha(W, m) that the integer
    point itself realizes.
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
    m_int = n_int * md.duty.h + md.duty.g
    w_real = mac.window_from_alpha(dv.alpha, m_int)
    w_int = np.maximum(1.0, np.rint(w_real))
    alpha_int = mac.alpha_from_tau(mac.tau_from_window(w_int, m_int))
    feasible = bool(np.all(model.slacks(md, n_int, alpha_int) >= 0.0))
    return n_int.astype(int), w_int.astype(int), feasible


@dataclass
class KktEntry:
    name: str
    value: float
    lo: float
    hi: float
    position: str      # "interior", "lower", "upper" or "pinned"
    derivative: float
    ok: bool


@dataclass
class KktReport:
    entries: list[KktEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def check_kkt(scenario: Scenario, dv: DecisionVector, tol: float = 1e-4,
              fd_step: float = 1e-6) -> KktReport:
    """First-order optimality diagnostics at a feasible decision.

    For every coordinate, computes the feasible interval with all other
    coordinates fixed and a central finite-difference utility derivative:
    interior coordinates need a near-zero derivative, coordinates at the
    interval ends need the correctly signed one.
    """
    md = model.build(scenario)
    report = KktReport()

    def central(fun, x):
        # both coordinate kinds are positive; keep x - h on the open side
        h = min(fd_step * max(1.0, abs(x)), 0.5 * x)
        return (fun(x + h) - fun(x - h)) / (2.0 * h)

    n_lo, n_hi = _sample_intervals(md, dv.alpha)
    n_hi = np.minimum(n_hi, md.duty.n_max)
    for i in range(md.n):
        def u_of_n(v, i=i):
            trial = dv.n.copy()
            trial[i] = v
            return _utility_raw(md, trial, dv.alpha)

        report.entries.append(_classify(f"n[{i}]", float(dv.n[i]),
                                        float(max(1.0, n_lo[i])), float(n_hi[i]),
                                        central(u_of_n, float(dv.n[i])), tol))
    for i in range(md.n):
        lo, hi = _attempt_interval(md, dv.n, dv.alpha, i, OptimizerConfig.alpha_floor)

        def u_of_a(v, i=i):
            trial = dv.alpha.copy()
            trial[i] = v
            return _utility_raw(md, dv.n, trial)

        report.entries.append(_classify(f"alpha[{i}]", float(dv.alpha[i]),
                                        lo, hi,
                                        central(u_of_a, float(dv.alpha[i])), tol))
    return report


def _classify(name, value, lo, hi, deriv, tol) -> KktEntry:
    span = max(hi - lo, 0.0)
    at_tol = 1e-6 * max(1.0, abs(value))
    if span <= 2 * at_tol:
        position, ok = "pinned", True
    elif value - lo <= at_tol:
        position, ok = "lower", deriv <= tol
    elif hi - value <= at_tol:
        position, ok = "upper", deriv >= -tol
    else:
        position, ok = "interior", abs(deriv) <= tol
    return KktEntry(name=name, value=value, lo=lo, hi=hi, position=position,
                    derivative=deriv, ok=ok)
