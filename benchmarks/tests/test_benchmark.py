"""Tests of the benchmark itself: its references, its checks and its output.

Run from the root of a checkout::

    python -m pytest -q benchmarks/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

tr = run.import_taurho()


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- references ---------------------------------------------------------------

def test_float_reference_matches_exact_fractions():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 20, 33):
        data = workloads.random_shuffle_dict(rng, n)
        et, er = ref.exact_tau_rho(data["perm"], data["weights"], data["signs"])
        ft, fr = ref.float_tau_rho(data["perm"], data["weights"], data["signs"])
        assert abs(ft - float(et)) <= 1e-13 and abs(fr - float(er)) <= 1e-13


def test_exact_reference_of_worked_example():
    # inv = 35/128 and invs = 95/1024 for the four-piece example shuffle.
    tau, rho = ref.exact_tau_rho((4, 2, 1, 3), (1 / 8, 3 / 8, 1 / 4, 1 / 4), (1, -1, 1, 1))
    assert tau == 1 - 4 * 35 / 128 and rho == 1 - 12 * 95 / 1024


def test_boundary_reference_matches_phi_boundary():
    xs = np.concatenate([-1 + np.logspace(-6, 0, 200), np.linspace(-1, 1, 401)])
    for x in xs:
        assert abs(ref.lower_boundary(x) - tr.region.phi_boundary(float(x))) <= 1e-14


def test_area_reference():
    assert abs(ref.area_mpmath() - tr.region.area_closed_form()) <= 1e-14


# --- each check rejects a wrong answer ------------------------------------------

def _score_data(n=12, seed=3):
    return workloads.random_shuffle_dict(np.random.default_rng(seed), n)


@pytest.mark.parametrize("n", [12, 300])
def test_score_check_rejects_tau_or_rho_off_by_1e_5(n):
    op = workloads._score_op(tr, _score_data(n), oracle=False)
    tau, rho, inside = op.run()
    assert op.check((tau, rho, inside)) == []
    assert op.check((tau + 1e-5, rho, inside))
    assert op.check((tau, rho - 1e-5, inside))
    assert op.check((tau, rho, False))


def test_score_check_rejects_classical_bound_violation():
    # The corner (-1, 1) breaks Daniels' bound whatever shuffle it is paired with.
    problems = workloads.check_score_point(tr, _score_data(), -1.0, 1.0)
    assert any("Daniels" in p for p in problems)


def test_oracle_check_rejects_estimate_beyond_bound():
    data = _score_data(8)
    op = workloads._score_op(tr, data, oracle=True)
    out = op.run()
    assert op.check(out) == []
    bt, _ = ref.oracle_error_bound(8, workloads.ORACLE_GRID)
    assert op.check(out[:3] + (out[0] + 2 * bt, out[4]))


def test_file_check_rejects_wrong_output(tmp_path):
    data = _score_data(10)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    op = workloads._score_file_op(tr, data, str(path))
    code, text = op.run()
    assert op.check((code, text)) == []
    got = json.loads(text)
    got["tau"] += 1e-5
    assert op.check((0, json.dumps(got)))
    assert op.check((2, text))


def test_realize_check_rejects_missed_target_and_large_residual():
    op = workloads._realize_op(tr, "interior", (0.2, 0.1))
    shuffle, cert = op.run()
    assert op.check((shuffle, cert)) == []
    other = workloads._realize_op(tr, "interior", (0.2, 0.1 + 1e-5))
    assert other.check((shuffle, cert))
    loose = type(cert)(cert.s, cert.t, 1e-3)
    assert op.check((shuffle, loose))


def test_verify_checks_reject_failed_report_and_loose_margin():
    report = tr.verify.check_main_inequality(3, 4)
    assert workloads.check_report(report) == []
    fields = report.as_dict()
    failed = type(report)(**{**fields, "passed": False})
    assert workloads.check_report(failed)
    slack = type(report)(**{**fields, "worst_margin": 1e-6})
    assert workloads.check_report(slack)
    broken = type(report)(**{**fields, "worst_margin": -1e-9})
    assert workloads.check_report(broken)


def test_area_check_rejects_value_outside_tolerance():
    op = workloads._area_op(tr, 1e-8)
    value = op.run()
    assert op.check(value) == []
    assert op.check(value + 3e-8)


def test_verify_cli_check_rejects_failed_line():
    op = workloads._verify_cli_op(tr, "swap_descent")
    code, text = op.run()
    assert op.check((code, text)) == []
    assert op.check((0, text.replace('"passed": true', '"passed": false')))
    assert op.check((1, text))
    assert op.check((0, ""))


# --- failures are counted, not fatal ---------------------------------------------

def test_realize_runtime_error_is_counted_as_failed():
    sliver = workloads._realize_op(tr, "sliver", workloads.sliver_targets()[0])
    good = workloads._realize_op(tr, "interior", (0.2, 0.1))
    load = workloads.Workload([sliver, good], lambda: None)
    runner = run.Runner(load, tracing.Tracer())
    runner.round(False)
    runner.round(False)
    assert (runner.attempted, runner.failed) == (4, 2)
    assert [len(t) for t in runner.completed] == [0, 2] and runner.problems == []
    assert all("RuntimeError" in key for key in runner.failures)


def test_failed_share_does_not_depend_on_seed():
    rounds = [workloads.realize_targets(seed) for seed in (1, 2, 99)]
    assert len({len(r) for r in rounds}) == 1
    slivers = [[t for s, t in r if s == "sliver"] for r in rounds]
    assert slivers[0] == slivers[1] == slivers[2]
    for target in slivers[0]:
        with pytest.raises(RuntimeError, match="no bracket"):
            tr.realize.realize(target)


# --- percentiles ------------------------------------------------------------------

def test_harrell_davis_percentiles():
    assert run.harrell_davis([3.0] * 50, 0.9) == pytest.approx(3.0)
    # Symmetric data: the median estimate is the centre.
    assert run.harrell_davis(list(range(101)), 0.5) == pytest.approx(50.0)
    # Uniform order statistics: E[X_(i)] weighted by Beta mass gives about p.
    values = [(i + 0.5) / 200 for i in range(200)]
    assert abs(run.harrell_davis(values, 0.9) - 0.9) < 0.005
    assert run.harrell_davis(values, 0.5) < run.harrell_davis(values, 0.9) < max(values)


# --- the output matches BENCHMARK.json ------------------------------------------

def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run_bench(ROOT, "--workload", "realize", "--seed", "5", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])
    assert {"python", "numpy", "cpu", "nproc"} <= set(env)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * len(workloads.realize_targets(5)) == (
        result["attempted"] * len(workloads.SLIVER_TARGETS)
    )
    declared = {m["name"]: m["unit"] for m in _bench_json()[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_layer_metric_directions_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in _bench_json()["per_layer"]}
    computed = tracing.layer_metrics(tracing.Tracer(), 1, 1, workloads.CHECK_NAMES)
    for name, (_value, unit, better) in computed.items():
        assert declared[name] == (unit, better)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
