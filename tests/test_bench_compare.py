import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]   # IQR 0.02


@pytest.mark.parametrize("head, better, want", [
    # 10 of 10 pairs won, medians 0.1 apart against an IQR of 0.02
    ([v - 0.1 for v in BASE], "lower", "gain"),
    ([v + 0.1 for v in BASE], "higher", "gain"),
    # 9 of 10 won is enough; 8 of 10 is not
    ([v - 0.1 for v in BASE[:9]] + [BASE[9] + 0.01], "lower", "gain"),
    ([v - 0.1 for v in BASE[:8]] + [v + 0.01 for v in BASE[8:]], "lower", "unchanged"),
    # every pair won, but by less than the parent's IQR in the median
    ([v - 0.01 for v in BASE], "lower", "unchanged"),
    # worse by more than the bound (0.25 of the parent's median)
    ([v + 0.3 for v in BASE], "lower", "regression"),
    ([v - 0.3 for v in BASE], "higher", "regression"),
    # worse, but inside the bound
    ([v + 0.2 for v in BASE], "lower", "unchanged"),
    # the change's runs spread wider than the bound
    ([0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 1.0, 1.0], "lower", "unresolved"),
])
def test_verdict_on_hand_made_runs(head, better, want):
    assert bench_compare.verdict(BASE, head, better, 0.25) == want


def test_bounds_come_from_the_benchmark_file():
    declared = {m["name"]: m for m in
                json.loads(bench_compare.BENCHMARK.read_text())["end_to_end"]}
    assert set(bench_compare.METRICS) <= set(declared)
    for name in bench_compare.METRICS:
        assert declared[name]["better"] in ("lower", "higher")
