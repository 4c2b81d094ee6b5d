"""Run the benchmark on two checkouts in alternating pairs; write a BENCH_*.json.

Usage: python tools/bench_compare.py BASE HEAD OUT.json

BASE and HEAD are source checkouts of wpcsma, each with its own `src/` and
`wpbench/`. For each workload and seed, each of the 10 pairs runs
`python3 wpbench/run.py --workload NAME --seed SEED` once in each checkout,
alternating which side runs first. OUT records:

- the machine, the python and numpy versions;
- for each side its git revision, whether its tracked files differ from
  that revision, and a sha256 of its `src/` files, which names the
  measured code even when it is not committed;
- per workload and seed, every run (its metrics, digest, correctness and
  failed operations) and per side the median, quartiles and p90 of
  `run_s`, `setup_s` and `peak_rss_mib`, with the pairs HEAD won on each;
- per workload, seed and metric a verdict (`verdict`), judged with the
  metric's direction and bound from the BENCHMARK.json beside this file:
  "gain" when HEAD won at least 9 of the 10 pairs and its median is better
  by more than BASE's interquartile range; "regression" when HEAD's median
  is worse than BASE's by more than the bound (a share of BASE's median);
  "unresolved" when either side's interquartile range exceeds the bound
  (as a share of its median); "unchanged" otherwise.

The set is fixed: the three workloads of BENCHMARK.json at seed 1 and
again at the held-back seed 2, so that a claim on any of them is confirmed
on a seed it was not written against; each run at wpbench/run.py's own
default length. Standard library only, so that it runs against older
checkouts too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mib")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
GAIN_WINS = 9
RUNS = (("opt-scaling", 1), ("opt-scaling", 2), ("sim-dense", 1), ("sim-dense", 2),
        ("paper-pipeline", 1), ("paper-pipeline", 2))
PAIRS = 10


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def describe(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"revision": _git(root, "rev-parse", "HEAD"),
            "modified": bool(status) if status is not None else None,
            "src_sha256": digest.hexdigest()}


def machine() -> dict:
    info = {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version()}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu"] = next(line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                           if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True)
    info["numpy"] = numpy.stdout.strip() or None
    return info


def run_once(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "wpbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    run = {k: result["metrics"][k]["value"] for k in METRICS}
    run["correct"], run["failed"] = result["correct"], result["failed"]
    run["digest"] = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
    return run


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3,
            "p90": statistics.quantiles(values, n=10, method="inclusive")[-1],
            "runs": len(values)}


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from paired runs, base[k] beside head[k]."""
    sign = 1.0 if better == "lower" else -1.0
    b, h = summary(base), summary(head)
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, head))
    gap = sign * (b["median"] - h["median"])   # > 0: HEAD is better
    if -gap > bound * abs(b["median"]):
        return "regression"
    if wins >= GAIN_WINS and gap > b["q3"] - b["q1"]:
        return "gain"
    if any(s["q3"] - s["q1"] > bound * abs(s["median"]) for s in (b, h)):
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    ap.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    doc = {"machine": machine(), **{side: describe(root) for side, root in sides.items()},
           "workloads": {}}
    for name, seed in RUNS:
        runs = {"base": [], "head": []}
        for k in range(PAIRS):
            for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                runs[side].append(run_once(sides[side], name, seed))
                print(f"{name} seed {seed} pair {k + 1} {side}: {runs[side][-1]}",
                      file=sys.stderr)
        entry = {"runs": runs}
        if all("run_s" in r for side in runs.values() for r in side):
            for side in runs:
                entry[side] = {m: summary([r[m] for r in runs[side]]) for m in METRICS}
            entry["head_wins"] = {m: sum(h[m] < b[m] for b, h in zip(runs["base"], runs["head"]))
                                  for m in METRICS}
            entry["verdict"] = {m: verdict([r[m] for r in runs["base"]],
                                           [r[m] for r in runs["head"]],
                                           bounds[m]["better"], bounds[m]["bound"])
                                for m in METRICS}
        doc["workloads"][f"{name}:seed{seed}"] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
