"""Write the CLI's outputs on the bundled scenarios into one directory.

Usage: python tools/cli_snapshot.py OUT
       python tools/cli_snapshot.py --compare A B

The first form runs the wpcsma CLI of the checkout this file sits in (its `src/`) and
writes, each into its own subdirectory of OUT:

- reproduce --exp 1 and --exp 2;
- optimize on example1 and example2, and analyze at each optimum;
- optimize on example1 with `--config` capping the solver at 3 iterations,
  which stops at the cap and exits 4;
- simulate --trace at each optimum;
- analyze and simulate at an example1 point whose integer windows are all
  W = 16 (n = n_max on every node), where the backoff energy is not
  extrapolated below zero.

`OUT/commands.txt` lists each command with its exit code. Two checkouts
produce byte-identical outputs exactly when `diff -r` of their OUT
directories is empty, which is the gate of a refactor that must not change
what the CLI writes. To snapshot another checkout, copy this file into its
`tools/` directory and run it from there. Standard library only, so that it
runs unchanged against older checkouts.

The second form compares two such directories, A and B, file by file. For
each file that differs it prints, for JSON, every path whose number differs
with its relative difference |a - b| / max(|a|, |b|), and every path present
on one side only; for CSV, every differing column and `# key=` line, with the
largest relative difference; for any other file, "bytes differ". It exits 0
when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
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


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if not math.isfinite(scale):
        return math.inf
    return abs(a - b) / scale


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN here


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _union(a, b) -> list:
    """The keys of a, then those only in b, each in its own order."""
    return [*a, *(k for k in b if k not in a)]


def _only_in(in_a: bool) -> str:
    return f"only in {'A' if in_a else 'B'}"


_MISSING = object()


def _json_diffs(a, b, path: str = "$"):
    """One line per differing leaf of two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        children = [(f"{path}.{k}", a.get(k, _MISSING), b.get(k, _MISSING))
                    for k in _union(a, b)]
    elif isinstance(a, list) and isinstance(b, list):
        children = [(f"{path}[{k}]", a[k] if k < len(a) else _MISSING,
                     b[k] if k < len(b) else _MISSING)
                    for k in range(max(len(a), len(b)))]
    elif _is_number(a) and _is_number(b):
        if not _same(a, b):
            yield f"{path}: {a!r} -> {b!r}, rel {_rel(a, b):.3g}"
        return
    else:
        if a != b:
            yield f"{path}: {a!r} -> {b!r}"
        return
    for sub, va, vb in children:
        if va is _MISSING or vb is _MISSING:
            yield f"{sub}: {_only_in(vb is _MISSING)}"
        else:
            yield from _json_diffs(va, vb, sub)


def _csv_parts(text: str):
    """(`# key=value` lines as a dict, header, data rows) of one CSV file."""
    keys, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            keys[key] = value
        else:
            lines.append(line)
    table = list(csv.reader(lines))
    return keys, (table[0] if table else []), table[1:]


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_diff(cells_a, cells_b) -> str | None:
    """How two lists of CSV cells differ: the count of differing cells and
    the largest relative difference of the numeric ones; None if equal."""
    pairs = [(x, y) for x, y in zip(cells_a, cells_b) if x != y]
    if not pairs and len(cells_a) == len(cells_b):
        return None
    nums = [(_float(x), _float(y)) for x, y in pairs]
    rels = [_rel(x, y) for x, y in nums if x is not None and y is not None]
    text = f"{len(pairs)} of {min(len(cells_a), len(cells_b))} differ"
    if rels:
        text += f", largest rel {max(rels):.3g}"
    if len(rels) < len(pairs):
        text += f", {len(pairs) - len(rels)} not numbers"
    if len(cells_a) != len(cells_b):
        text += f", rows {len(cells_a)} -> {len(cells_b)}"
    return text


def _csv_diffs(text_a: str, text_b: str):
    keys_a, head_a, rows_a = _csv_parts(text_a)
    keys_b, head_b, rows_b = _csv_parts(text_b)
    for key in _union(keys_a, keys_b):
        if key not in keys_a or key not in keys_b:
            yield f"# {key}=: {_only_in(key in keys_a)}"
        elif keys_a[key] != keys_b[key]:
            a, b = _float(keys_a[key]), _float(keys_b[key])
            rel = f", rel {_rel(a, b):.3g}" if a is not None and b is not None else ""
            yield f"# {key}=: {keys_a[key]} -> {keys_b[key]}{rel}"
    for name in _union(head_a, head_b):
        if name not in head_a or name not in head_b:
            yield f"column {name}: {_only_in(name in head_a)}"
            continue
        ja, jb = head_a.index(name), head_b.index(name)
        diff = _cells_diff([r[ja] if ja < len(r) else "" for r in rows_a],
                           [r[jb] if jb < len(r) else "" for r in rows_b])
        if diff:
            yield f"column {name}: {diff}"


def _file_diffs(a: Path, b: Path) -> list[str]:
    lines: list[str] = []
    if a.suffix == ".json":
        try:
            lines = list(_json_diffs(json.loads(a.read_text()), json.loads(b.read_text())))
        except ValueError:  # not JSON after all: only the bytes can be compared
            pass
    elif a.suffix == ".csv":
        lines = list(_csv_diffs(a.read_text(), b.read_text()))
    return lines or ["bytes differ"]


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print how two snapshot directories differ; 0 if byte-identical."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    differ = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel}: {_only_in(rel in files_a)}")
        elif (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes():
            print(f"{rel}:")
            for line in _file_diffs(dir_a / rel, dir_b / rel):
                print(f"  {line}")
        else:
            continue
        differ += 1
    total = len(files_a | files_b)
    print(f"{differ} of {total} files differ" if differ
          else f"all {total} files are byte-identical")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("--"):
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
    w16 = _w16_point(points / "example1_w16.json")
    _cli(out, log, "analyze-example1-w16", "analyze",
         "--scenario", str(DATA / "example1.json"), "--point", w16)
    _cli(out, log, "simulate-example1-w16", "simulate",
         "--scenario", str(DATA / "example1.json"), "--point", w16, *SLOTS)
    (out / "commands.txt").write_text("\n".join(log) + "\n")
    print("\n".join(log))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
