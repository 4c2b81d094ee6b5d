"""Time solve_bcd plus check_kkt on large generated instances.

Usage: python tools/solve_scaling.py [N ...]        (default: 48 96 192)

Instance N is gen{N}-{1000 N}: `wpbench/inputs.feasible_doc` on
`numpy.random.default_rng(1000 N)`, the family wpbench's opt-scaling draws
its fixed instances from. For each it prints the seconds of `solve_bcd` and
of `check_kkt`, the status and outer iterations, the utility, the
certificate's verdict and residual, the line-search trials of the solve
(calls of `_feasible_trial`), and how many times the solve and the
certificate called numpy's `lstsq`, `cholesky`, `solve` and `inv`. Run
from the root of a source checkout; the package is imported from `src/`.
numpy and the standard library only.
"""

from __future__ import annotations

import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "wpbench")]

import inputs  # noqa: E402  (wpbench/inputs.py, read only)
from wpcsma import check_kkt, optimize, solve_bcd  # noqa: E402
from wpcsma.scenario_io import scenario_from_dict  # noqa: E402

# (module, name) of each counted routine
COUNTED = tuple((np.linalg, name) for name in ("lstsq", "cholesky", "solve", "inv")) \
    + ((optimize, "_feasible_trial"),)


def counted(fn, *args):
    """fn(*args), its wall seconds, and its calls of each `COUNTED` routine."""
    counts = {name: 0 for _, name in COUNTED}
    originals = {(mod, name): getattr(mod, name) for mod, name in COUNTED}

    def wrap(mod, name):
        def call(*a, **k):
            counts[name] += 1
            return originals[mod, name](*a, **k)
        return call

    try:
        for mod, name in COUNTED:
            setattr(mod, name, wrap(mod, name))
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
    finally:
        for (mod, name), original in originals.items():
            setattr(mod, name, original)
    return out, seconds, counts


def main(sizes) -> None:
    for n in sizes:
        name = f"gen{n}-{1000 * n}"
        doc = inputs.feasible_doc(np.random.default_rng(1000 * n), n, name, scenario_from_dict)
        scn = scenario_from_dict(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res, solve_s, solve_calls = counted(solve_bcd, scn)
        kkt, kkt_s, kkt_calls = counted(check_kkt, scn, res.decision)
        trials = solve_calls.pop("_feasible_trial")
        kkt_calls.pop("_feasible_trial")
        print(f"{name}: solve {solve_s:.3f} s, {res.status}, {res.outer_iters} iterations, "
              f"{trials} line-search trials, U = {res.utility:.9f}; check_kkt "
              f"{1e3 * kkt_s:.1f} ms, ok {kkt.ok}, residual {kkt.residual:.1e}")
        for label, calls in (("solve", solve_calls), ("check_kkt", kkt_calls)):
            print(f"  {label} calls: " + ", ".join(f"{k} {v}" for k, v in calls.items()))


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [48, 96, 192])
