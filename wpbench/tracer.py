"""Span recorder for the traced run, and the per-layer report built from it.

Each traced function is replaced, at every module binding through which it
is called, by a wrapper that records a span: name, start, end, parent span
and the workload operation it belongs to. `frame_times`, for instance, is
bound by name in `timing`, `mac`, `energy`, `optimize`, `sim` and the
package itself, and all six bindings are wrapped. Spans stay in memory and
are written out when the run ends. The program itself is not changed.
"""

from __future__ import annotations

import functools
import gzip
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

TRACED = (
    ("timing", "frame_times"),
    ("mac", "evaluate"), ("mac", "slot_probabilities"), ("mac", "channel_load"),
    ("energy", "energy_coefficients"), ("energy", "cycle_energy"),
    ("energy", "constraint_slack"),
    ("optimize", "solve_bcd"), ("optimize", "solve_n_block"),
    ("optimize", "solve_alpha_block"), ("optimize", "sample_intervals"),
    ("optimize", "attempt_interval"), ("optimize", "round_decision"),
    ("optimize", "check_kkt"),
    ("sim", "simulate"),
    ("scenario_io", "load_scenario"), ("scenario_io", "scenario_from_dict"),
    ("cli", "main"),
)
WITH_TOTAL = ("optimize.solve_bcd", "sim.simulate", "cli.main")
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


class Recorder:
    """Spans as (name index, start ns, end ns, parent index, op index)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.ops: list[str] = []
        self.op = -1
        self.counts = {"optimize.outer_iters": 0, "sim.slots": 0, "sim.busy_slots": 0,
                       "sim.cycles": 0.0, "sim.advanced": 0}
        self._patched: list = []

    def begin_op(self, name: str) -> None:
        self.ops.append(name)
        self.op = len(self.ops) - 1

    def install(self) -> None:
        """Wrap every binding of every traced function in the program."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "wpcsma" or k.startswith("wpcsma."))]
        for idx, (mod, fn) in enumerate(TRACED):
            orig = getattr(sys.modules[f"wpcsma.{mod}"], fn)
            wrapper = self._wrap(idx, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, idx: int, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        name = NAMES[idx]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, self.op)
            if name == "optimize.solve_bcd":
                counts["optimize.outer_iters"] += result.outer_iters
            elif name == "sim.simulate":
                cfg = args[3] if len(args) > 3 else kwargs["cfg"]
                counts["sim.advanced"] += cfg.n_slots
                counts["sim.slots"] += result.slots
                counts["sim.busy_slots"] += result.slots - round(result.p_idle * result.slots)
                counts["sim.cycles"] += float(np.sum(result.cycles))
            return result

        return wrapper

    def report(self, rounds: int) -> dict:
        """Per-round calls, self time and (for the entry points) total time."""
        sp = np.array([s for s in self.spans if s is not None], dtype=np.int64).reshape(-1, 5)
        dur = (sp[:, 2] - sp[:, 1]).astype(float) * 1e-9
        child = np.zeros(len(sp))
        has_parent = sp[:, 3] >= 0
        np.add.at(child, sp[has_parent, 3], dur[has_parent])
        self_t = dur - child
        out = {}
        for idx, name in enumerate(NAMES):
            sel = sp[:, 0] == idx
            out[f"{name}.calls"] = int(sel.sum()) / rounds
            out[f"{name}.self_s"] = float(self_t[sel].sum()) / rounds
            if name in WITH_TOTAL:
                out[f"{name}.total_s"] = float(dur[sel].sum()) / rounds
        c = self.counts
        out["optimize.outer_iters"] = c["optimize.outer_iters"] / rounds
        out["sim.slots"] = c["sim.slots"] / rounds
        out["sim.busy_slots"] = c["sim.busy_slots"] / rounds
        out["sim.cycles"] = c["sim.cycles"] / rounds
        total_sim = float(dur[sp[:, 0] == NAMES.index("sim.simulate")].sum())
        out["sim.host_ns_per_slot"] = total_sim * 1e9 / c["sim.advanced"] if c["sim.advanced"] else 0.0
        self.top_level_s = float(dur[~has_parent].sum())
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV (gzip): id, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("id,name,start_ns,end_ns,parent,op\n")
            for sid, s in enumerate(self.spans):
                if s is not None:
                    idx, t0, t1, parent, op = s
                    f.write(f"{sid},{NAMES[idx]},{t0},{t1},{parent},"
                            f"{self.ops[op] if op >= 0 else ''}\n")
