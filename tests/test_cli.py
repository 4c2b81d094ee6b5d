import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wpcsma.cli as cli
from wpcsma.cli import main
from wpcsma.params import InvalidStateError
from wpcsma.scenario_io import bundled_scenario, save_scenario, scenario_from_dict

from conftest import make_node, make_scenario


_EXAMPLE1 = Path(__file__).parent.parent / "src" / "wpcsma" / "data" / "example1.json"


def write_scenario(tmp_path, scn, name="scn.json"):
    path = tmp_path / name
    save_scenario(scn, path)
    return path


def write_point(tmp_path, n, alpha, name="point.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": list(n), "alpha": list(alpha)}))
    return path


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return meta, rows


def test_analyze_symmetric_rows(tmp_path):
    scn = make_scenario([make_node(phi=40e-3), make_node(phi=40e-3)])
    spath = write_scenario(tmp_path, scn)
    ppath = write_point(tmp_path, [4.0, 4.0], [0.2, 0.2])
    out = tmp_path / "out"
    assert main(["analyze", "--scenario", str(spath), "--point", str(ppath),
                 "--out", str(out)]) == 0
    meta, rows = read_csv(out / "analyze.csv")
    assert meta["command"] == "analyze"
    assert len(rows) == 2
    for col in ("throughput_bps", "airtime", "slack_j"):
        assert rows[0][col] == rows[1][col]
    for row in rows:
        slack = float(row["energy_received_j"]) - float(row["energy_consumed_j"])
        assert slack == pytest.approx(float(row["slack_j"]), rel=1e-9)


def test_optimize_example1(tmp_path):
    out = tmp_path / "opt"
    scn = bundled_scenario("example1")
    spath = write_scenario(tmp_path, scn)
    code = main(["optimize", "--scenario", str(spath), "--out", str(out)])
    assert code == 0
    meta, rows = read_csv(out / "optimize.csv")
    assert meta["status"] == "converged"
    assert [float(r["n"]) for r in rows] == [10, 20, 30, 40, 50, 60]
    assert (out / "utility_trace.csv").exists()
    sidecar = json.loads((out / "optimize.json").read_text())
    assert sidecar["status"] == "converged"
    assert sidecar["kkt_ok"] is True
    trace_meta, trace_rows = read_csv(out / "utility_trace.csv")
    us = [float(r["utility"]) for r in trace_rows]
    assert np.all(np.diff(us) >= -1e-9)


def test_analyze_reproduces_optimize_point(tmp_path):
    scn = bundled_scenario("example1")
    spath = write_scenario(tmp_path, scn)
    out1 = tmp_path / "opt"
    assert main(["optimize", "--scenario", str(spath), "--out", str(out1)]) == 0
    _, rows = read_csv(out1 / "optimize.csv")
    ppath = write_point(tmp_path, [float(r["n"]) for r in rows],
                        [float(r["alpha"]) for r in rows])
    out2 = tmp_path / "ana"
    assert main(["analyze", "--scenario", str(spath), "--point", str(ppath),
                 "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2 / "analyze.csv")
    for r1, r2 in zip(rows, rows2):
        assert r1 == r2  # same code path, same cells


def test_simulate_deterministic_bytes(tmp_path):
    scn = make_scenario([make_node(phi=40e-3), make_node(phi=40e-3, n_max=20)])
    spath = write_scenario(tmp_path, scn)
    ppath = write_point(tmp_path, [5.0, 8.0], [0.05, 0.05])
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(spath), "--point",
                     str(ppath), "--slots", "50000", "--seed", "9",
                     "--warmup", "1000", "--out", str(out)]) == 0
        outs.append((out / "simulate.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_model_agreement_columns(tmp_path):
    scn = make_scenario([make_node(phi=40e-3), make_node(phi=40e-3)])
    spath = write_scenario(tmp_path, scn)
    ppath = write_point(tmp_path, [5.0, 5.0], [0.04, 0.04])
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(spath), "--point", str(ppath),
                 "--slots", "400000", "--seed", "3", "--warmup", "4000",
                 "--out", str(out)]) == 0
    sidecar = json.loads((out / "simulate.json").read_text())
    p_idle_model = sidecar["model"]["p_idle"]
    p_idle_sim = sidecar["simulated"]["p_idle"]
    hw = sidecar["ci_halfwidth"]["p_idle"]
    assert abs(p_idle_sim - p_idle_model) <= 3.0 / 2.093 * hw
    _, rows = read_csv(out / "simulate.csv")
    for row in rows:
        assert float(row["throughput_rel_err"]) < 0.02


def test_simulate_trace_flag(tmp_path):
    scn = make_scenario([make_node(phi=40e-3)])
    spath = write_scenario(tmp_path, scn)
    ppath = write_point(tmp_path, [2.0], [0.05])
    out = tmp_path / "tr"
    assert main(["simulate", "--scenario", str(spath), "--point", str(ppath),
                 "--slots", "2000", "--seed", "1", "--warmup", "0",
                 "--trace", "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 2001
    # the slots that wake or transmit some node, from the transmissions
    sidecar = json.loads((out / "simulate.json").read_text())
    n_tx = sum(ln.split(",")[1] != "idle" for ln in lines[1:])
    assert n_tx < sidecar["simulated"]["event_slots"] <= 2000


def test_reproduce_exp1(tmp_path):
    out = tmp_path / "r1"
    assert main(["reproduce", "--exp", "1", "--out", str(out)]) == 0
    meta, erows = read_csv(out / "exp1_energy.csv")
    budgets = [float(r["received_j"]) for r in erows]
    consumed = [float(r["consumed_j"]) for r in erows]
    # the n_max=10 node consumes exactly its harvest; the others less
    assert consumed[0] == pytest.approx(budgets[0], rel=1e-6)
    assert all(c < b for c, b in zip(consumed[1:], budgets[1:]))
    _, arows = read_csv(out / "exp1_airtime.csv")
    at = [float(r["airtime"]) for r in arows]
    assert np.all(np.diff(at[1:]) < 0)
    _, srows = read_csv(out / "exp1_samples.csv")
    assert [float(r["n_opt"]) for r in srows] == [10, 20, 30, 40, 50, 60]
    assert [int(r["n_max"]) for r in srows] == [10, 20, 30, 40, 50, 60]


def test_reproduce_exp2(tmp_path):
    out = tmp_path / "r2"
    assert main(["reproduce", "--exp", "2", "--out", str(out)]) == 0
    assert (out / "exp2_energy.csv").exists()
    assert (out / "exp2_airtime.csv").exists()
    _, erows = read_csv(out / "exp2_energy.csv")
    assert float(erows[0]["consumed_j"]) == pytest.approx(
        float(erows[0]["received_j"]), rel=1e-6)


def test_exit_code_infeasible(tmp_path, capsys):
    doc = {
        "name": "starved",
        "protocol": {"sigma_us": 9, "t_sifs_us": 16, "t_difs_us": 34,
                     "t_ack_us": 38.67, "t_rts_us": 46.67, "t_cts_us": 38.67,
                     "t_phy_hdr_us": 20, "l_mac_hdr_bytes": 36,
                     "l_shdr_bytes": 14, "l_fcs_bytes": 4},
        "nodes": [{"l_bytes": 50, "rate_mbps": 11, "n_max": 10, "h_slots": 3,
                   "g_slots": 2, "p_tx_mw": 15, "p_rx_mw": 11.37,
                   "p_listen_mw": 1, "p_acq_mw": 5, "p_proc_mw": 6,
                   "e_bg_uj": 0, "phi_mw": 0.01}] * 2,
    }
    spath = tmp_path / "starved.json"
    spath.write_text(json.dumps(doc))
    code = main(["optimize", "--scenario", str(spath), "--out",
                 str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "node 0" in err and "node 1" in err


def test_exit_code_invalid_input(tmp_path, capsys):
    code = main(["optimize", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    doc = json.loads((Path(__file__).parent.parent / "src" / "wpcsma" /
                      "data" / "example1.json").read_text())
    doc["nodes"][0]["h_slots"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["optimize", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "duty.h" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    '{"max_outer_iters": 1.5}',    # was a TypeError from range()
    '{"alpha_floor": -1}',         # was a ZeroDivisionError in the pair sweep
    '{"move_tol": -1}',            # ran silently to the iteration cap
    '{"max_inner_iters": true}',   # was taken as 1
    '{"alpha_floor": NaN}',
    # fixed settings, no longer fields: unknown keys, whatever their value
    '{"alpha_floor": 0.2}',
    '{"outer_tol": 1e-6}',
    '{"move_tol": 1e-6}',
    '{"inner_tol": 1e-12}',
    '{"max_inner_iters": 50}',
])
def test_bad_optimizer_config_exits_invalid(tmp_path, capsys, config):
    cpath = tmp_path / "config.json"
    cpath.write_text(config)
    code = main(["optimize", "--scenario", str(_EXAMPLE1), "--config", str(cpath),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_optimizer_config_max_outer_iters(tmp_path):
    # the one field: a cap the solve never reaches changes nothing
    cpath = tmp_path / "config.json"
    cpath.write_text('{"max_outer_iters": 500}')
    base = ["optimize", "--scenario", str(_EXAMPLE1)]
    assert main(base + ["--out", str(tmp_path / "plain")]) == 0
    assert main(base + ["--config", str(cpath), "--out", str(tmp_path / "capped")]) == 0
    assert ((tmp_path / "capped" / "optimize.json").read_bytes()
            == (tmp_path / "plain" / "optimize.json").read_bytes())


def test_point_length_mismatch(tmp_path):
    scn = make_scenario([make_node(phi=40e-3)])
    spath = write_scenario(tmp_path, scn)
    ppath = write_point(tmp_path, [2.0, 2.0], [0.1, 0.1])
    assert main(["analyze", "--scenario", str(spath), "--point", str(ppath),
                 "--out", str(tmp_path / "o")]) == 3


def _with_field(path, raw):
    """example1's JSON text with the field at `path` replaced by raw JSON text."""
    doc = json.loads(_EXAMPLE1.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@@"
    return json.dumps(doc).replace('"@@"', raw)


@pytest.mark.parametrize("path, raw", [
    pytest.param(("protocol",), "5", id="protocol-number"),
    pytest.param(("protocol",), "[{}]", id="protocol-list"),
    pytest.param(("nodes", 0), "5", id="node-number"),
    pytest.param(("nodes", 0), "null", id="node-null"),
    pytest.param(("nodes", 0, "n_max"), "1e400", id="n_max-1e400"),
    pytest.param(("nodes", 0, "n_max"), "1" + "0" * 400, id="n_max-huge-int"),
    pytest.param(("nodes", 0, "rate_mbps"), "Infinity", id="rate-Infinity"),
    pytest.param(("nodes", 0, "phi_mw"), "NaN", id="phi-NaN"),
])
def test_malformed_scenario_exits_invalid(tmp_path, capsys, path, raw):
    spath = tmp_path / "bad.json"
    spath.write_text(_with_field(path, raw))
    code = main(["optimize", "--scenario", str(spath),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("n, alpha", [
    ('"abc"', "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]"),
    ('["abc", 1, 1, 1, 1, 1]', "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]"),
    ("[Infinity, 1, 1, 1, 1, 1]", "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]"),
    ("[[1, 1, 1, 1, 1, 1]]", "[[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]]"),
])
def test_malformed_point_exits_invalid(tmp_path, capsys, n, alpha):
    ppath = tmp_path / "point.json"
    ppath.write_text('{"n": %s, "alpha": %s}' % (n, alpha))
    code = main(["simulate", "--scenario", str(_EXAMPLE1), "--point", str(ppath),
                 "--slots", "20000", "--warmup", "1000",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "invalid input" in capsys.readouterr().err


def test_negative_seed_exits_invalid(tmp_path, capsys):
    # was a ValueError traceback from default_rng, exit 1
    ppath = write_point(tmp_path, [10.0] * 6, [0.1] * 6)
    code = main(["simulate", "--scenario", str(_EXAMPLE1), "--point", str(ppath),
                 "--slots", "20000", "--warmup", "1000", "--seed", "-1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()   # a refused run writes nothing


def test_warmup_not_below_slots_exits_invalid(tmp_path, capsys):
    ppath = write_point(tmp_path, [10.0] * 6, [0.1] * 6)
    code = main(["simulate", "--scenario", str(_EXAMPLE1), "--point", str(ppath),
                 "--slots", "20000", "--warmup", "20000",
                 "--out", str(tmp_path / "o" / "sub")])
    assert code == 3
    assert "warmup_slots" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("slots, warmup", [("5", "0"), ("1019", "1000")])
def test_fewer_measured_slots_than_batches_exits_invalid(tmp_path, capsys, slots, warmup):
    # 5 slots ran: 15 of the 20 batches were empty and entered the
    # confidence intervals as zero ratios
    ppath = write_point(tmp_path, [10.0] * 6, [0.1] * 6)
    code = main(["simulate", "--scenario", str(_EXAMPLE1), "--point", str(ppath),
                 "--slots", slots, "--warmup", warmup, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "one slot per batch" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_optimize_kkt_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    # the certificate ran after the CSVs were written, which a failure left
    # without their sidecar
    def fail(*_):
        raise InvalidStateError("no certificate")
    monkeypatch.setattr(cli, "check_kkt", fail)
    spath = write_scenario(tmp_path, make_scenario([make_node(phi=80e-3, n_max=7)]))
    out = tmp_path / "o"
    assert main(["optimize", "--scenario", str(spath), "--out", str(out)]) == 4
    assert "no certificate" in capsys.readouterr().err
    assert _files(out) == {}


def test_window_overflow_exits_invalid(tmp_path, capsys):
    # alpha = 1e-30 gives W ~ 2e30; cast to int64 it wrapped to INT64_MIN,
    # was clamped to W = 1 and simulated at the opposite extreme
    alpha = [0.1] * 6
    alpha[2] = 1e-30
    ppath = write_point(tmp_path, [10.0] * 6, alpha)
    code = main(["simulate", "--scenario", str(_EXAMPLE1), "--point", str(ppath),
                 "--slots", "20000", "--warmup", "1000",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "invalid input" in err and "node 2" in err


def test_wide_window_simulates(tmp_path):
    # alpha = 1e-12 gives W ~ 2e12, above 2**32: drawn from whole 64-bit
    # outputs, and the node's one backoff outlasts the run
    alpha = [0.1] * 6
    alpha[2] = 1e-12
    ppath = write_point(tmp_path, [10.0] * 6, alpha)
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(_EXAMPLE1), "--point", str(ppath),
                 "--slots", "20000", "--warmup", "1000", "--out", str(out)]) == 0
    _, rows = read_csv(out / "simulate.csv")
    assert int(rows[2]["w"]) > 2**32
    assert float(rows[2]["throughput_sim"]) == 0.0


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


def test_main_runs_many_commands_in_one_process(tmp_path):
    # main parses with one parser per process; each call must behave as a
    # fresh process running that command alone
    spath = write_scenario(tmp_path, bundled_scenario("example1"))
    ppath = write_point(tmp_path, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [0.01] * 6)
    commands = {
        "optimize": ["optimize", "--scenario", str(spath)],
        "simulate": ["simulate", "--scenario", str(spath), "--point", str(ppath),
                     "--slots", "20000", "--warmup", "1000", "--seed", "4", "--trace"],
        "bad": ["simulate", "--scenario", str(spath), "--point", str(ppath),
                "--slots", "many"],
    }

    def in_process(argv):
        try:
            return main(argv)
        except SystemExit as stop:   # argparse's exit on a bad argument
            return stop.code

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    for name, argv in commands.items():
        here, fresh = tmp_path / f"{name}-here", tmp_path / f"{name}-fresh"
        code = in_process(argv + ["--out", str(here)])
        proc = subprocess.run([sys.executable, "-m", "wpcsma.cli", *argv, "--out", str(fresh)],
                              env=env, capture_output=True)
        assert code == proc.returncode == {"bad": 2}.get(name, 0), name
        assert _files(here) == _files(fresh), name
