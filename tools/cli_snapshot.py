"""Write the CLI's outputs on the bundled scenarios into one directory.

Usage: python tools/cli_snapshot.py OUT

Runs the wpcsma CLI of the checkout this file sits in (its `src/`) and
writes, each into its own subdirectory of OUT:

- reproduce --exp 1 and --exp 2;
- optimize on example1 and example2, and analyze at each optimum;
- optimize on example1 with `--config` capping the solver at 3 iterations,
  which stops at the cap and exits 4;
- simulate --trace at each optimum;
- simulate at an example1 point whose integer windows are all W = 16
  (n = n_max on every node).

`OUT/commands.txt` lists each command with its exit code. Two checkouts
produce byte-identical outputs exactly when `diff -r` of their OUT
directories is empty, which is the gate of a refactor that must not change
what the CLI writes. To snapshot another checkout, copy this file into its
`tools/` directory and run it from there. Standard library only, so that it
runs unchanged against older checkouts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "wpcsma" / "data"
SLOTS = ("--slots", "200000", "--warmup", "10000", "--seed", "1")
W16 = 16


def _cli(out: Path, log: list[str], name: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "wpcsma.cli", *args, "--out", str(out / name)]
    code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
    shown = " ".join(Path(a).name if os.sep in a else a for a in args)
    log.append(f"{name}: wpcsma {shown} -> exit {code}")


def _point(path: Path, n: list[float], alpha: list[float]) -> str:
    path.write_text(json.dumps({"n": n, "alpha": alpha}) + "\n")
    return str(path)


def _w16_point(path: Path) -> str:
    """Every node at n = n_max with the attempt odds of window W16."""
    nodes = json.loads((DATA / "example1.json").read_text())["nodes"]
    n = [float(nd["n_max"]) for nd in nodes]
    alpha = []
    for nd, ni in zip(nodes, n):
        tau = 2.0 / (W16 + 2.0 * (ni * nd["h_slots"] + nd["g_slots"]) + 1.0)
        alpha.append(tau / (1.0 - tau))
    return _point(path, n, alpha)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    points = out / "points"
    points.mkdir(parents=True, exist_ok=True)
    log: list[str] = []
    for exp in (1, 2):
        _cli(out, log, f"reproduce-exp{exp}", "reproduce", "--exp", str(exp))
    for name in ("example1", "example2"):
        scenario = str(DATA / f"{name}.json")
        _cli(out, log, f"optimize-{name}", "optimize", "--scenario", scenario)
        opt = out / f"optimize-{name}" / "optimize.json"
        if not opt.is_file():
            log.append(f"{name}: no optimize.json, analyze and simulate skipped")
            continue
        rows = json.loads(opt.read_text())["nodes"]
        point = _point(points / f"{name}_opt.json", [r["n"] for r in rows],
                       [r["alpha"] for r in rows])
        _cli(out, log, f"analyze-{name}", "analyze", "--scenario", scenario,
             "--point", point)
        _cli(out, log, f"simulate-{name}", "simulate", "--scenario", scenario,
             "--point", point, *SLOTS, "--trace")
    config = points / "cap3.json"
    config.write_text(json.dumps({"max_outer_iters": 3}) + "\n")
    _cli(out, log, "optimize-example1-cap3", "optimize",
         "--scenario", str(DATA / "example1.json"), "--config", str(config))
    _cli(out, log, "simulate-example1-w16", "simulate",
         "--scenario", str(DATA / "example1.json"),
         "--point", _w16_point(points / "example1_w16.json"), *SLOTS)
    (out / "commands.txt").write_text("\n".join(log) + "\n")
    print("\n".join(log))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
