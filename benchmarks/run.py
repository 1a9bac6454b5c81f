"""Benchmark of the ``taurho`` package: one workload per process.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload score --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload

A run imports ``taurho`` from ``src/``, builds the workload's inputs from
the seed, warms up, and then runs whole rounds of the workload's
operations in a closed loop (one caller) until ``--seconds`` have passed
and at least ``MIN_OPS`` operations have been timed.  Each operation is
timed from outside, as a call into a layer's public function, and its
output is checked outside the timed region.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` rounds alternate between untraced and traced, and the
result holds the per-layer figures from the traced rounds together with
the tracing overhead.  The line before the result gives the Python and
numpy versions, the CPU model and the core count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("score", "realize", "verify")
MIN_OPS = 100
SETUP_REPEATS = 4
STARTUP_RUNS = 5
SUBPROCESS_TIMEOUT = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_taurho():
    """Import taurho from this checkout's ``src/`` and return its layer modules."""
    import importlib
    from types import SimpleNamespace

    sys.path.insert(0, str(SRC))
    taurho = importlib.import_module("taurho")
    if Path(taurho.__file__).resolve().parent != SRC / "taurho":
        raise ImportError(f"taurho imported from {taurho.__file__}, not from {SRC}")
    layers = {
        name: importlib.import_module(f"taurho.{name}")
        for name in ("shuffles", "concordance", "region", "realize", "verify", "cli")
    }
    return SimpleNamespace(**layers)


class Runner:
    """Runs rounds of a workload, times each operation and checks it once."""

    def __init__(self, workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.seen: dict[int, object] = {}
        self.times: list[list[float]] = [[] for _ in workload.ops]
        self.completed: list[list[float]] = [[] for _ in workload.ops]
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.targets = 0
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}

    def round(self, traced: bool) -> float:
        """One pass over the workload's operations; returns the time spent in them."""
        spent = 0.0
        tracer = self.tracer
        for index, op in enumerate(self.workload.ops):
            tracer.enabled = traced
            with tracer.op_span(op.kind):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    error = exc
                dt = time.perf_counter() - t0
            tracer.enabled = False
            spent += dt
            self.times[index].append(dt)
            self.attempted += 1
            self.targets += int(traced and op.expect_target)
            if error is not None:
                self.failed += 1
                key = f"{op.kind}: {type(error).__name__}: {str(error)[:60]}"
                self.failures[key] = self.failures.get(key, 0) + 1
                continue
            self.completed[index].append(dt)
            self.check(index, op, out)
        self.rounds += 1
        return spent

    def check(self, index: int, op, out) -> None:
        """Full check the first time an operation runs; later, the same output."""
        fp = op.fingerprint(out)
        if index not in self.seen:
            self.seen[index] = fp
            for problem in op.check(out):
                self.problems.append(f"{op.kind}: {problem}")
        elif self.seen[index] != fp:
            self.problems.append(f"{op.kind}: output changed between rounds")

    def end_to_end(self) -> dict:
        """Throughput and latency percentiles from each operation's median time.

        Every round runs the same operations, so an operation's median over
        the rounds is its latency with bursts of machine noise set aside;
        the percentiles are taken over operations, and the throughput is
        the completed operations of one round over the sum of the medians.
        """
        latency = [statistics.median(t) for t in self.completed if t]
        round_s = sum(statistics.median(t) for t in self.times)
        done_per_round = (self.attempted - self.failed) / self.rounds
        return {
            "ops_per_s": (done_per_round / round_s, "1/s"),
            "latency_p50_ms": (1000.0 * harrell_davis(latency, 0.5), "ms"),
            "latency_p90_ms": (1000.0 * harrell_davis(latency, 0.9), "ms"),
        }


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all order statistics, the i-th of n weighted by the
    mass a Beta(p(n+1), (1-p)(n+1)) law puts on ((i-1)/n, i/n].  Unlike a
    single order statistic it draws on every operation near the quantile,
    so one operation's noise, or the size the seed gave it, moves it less.
    The Beta mass is integrated by the midpoint rule, 1000 points to a
    cell.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    u = (np.arange(n * 1000) + 0.5) / (n * 1000)
    log_pdf = (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, 1000).sum(axis=1)
    return float(np.dot(mass / mass.sum(), x))


def startup_seconds(tr) -> tuple[float, list]:
    """Median wall time of a process running the declared ``taurho`` entry point."""
    import tomllib

    import reference as ref

    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["taurho"]
    module, func = entry.split(":")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"startup-{os.getpid()}.json"
    data = {"perm": [4, 2, 1, 3], "weights": [0.125, 0.375, 0.25, 0.25], "signs": [1, -1, 1, 1]}
    path.write_text(json.dumps(data), encoding="utf-8")
    code = (
        "import importlib, sys; sys.argv[0] = 'taurho'; "
        f"sys.exit(getattr(importlib.import_module({module!r}), {func!r})())"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    want_tau, want_rho = ref.exact_tau_rho(data["perm"], data["weights"], data["signs"])
    times = []
    problems = []
    try:
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code, "eval", "--shuffle", str(path)],
                capture_output=True, text=True, env=env, timeout=SUBPROCESS_TIMEOUT,
            )
            times.append(time.perf_counter() - t0)
            got = json.loads(proc.stdout) if proc.returncode == 0 else {}
            if got.get("tau") != float(want_tau) or got.get("rho") != float(want_rho):
                problems.append(f"entry point eval: exit {proc.returncode}, {proc.stdout!r}")
    finally:
        path.unlink(missing_ok=True)
    return statistics.median(times), problems


def src_lines() -> dict:
    out = {}
    for layer in ("shuffles", "concordance", "region", "realize", "verify", "cli"):
        text = (SRC / "taurho" / f"{layer}.py").read_text(encoding="utf-8")
        out[layer] = sum(1 for line in text.splitlines() if line.strip())
    return out


def set_up(name: str, seed: int, workdir: Path):
    """Import taurho, build the workload's inputs and warm up; time all three."""
    t0 = time.perf_counter()
    tr = import_taurho()
    import workloads

    workload = workloads.BUILDERS[name](tr, seed, str(workdir))
    workload.warmup()
    return tr, workload, time.perf_counter() - t0


def setup_in_children(name: str, seed: int) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes doing the same set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory under OUT_DIR for this process's input files, removed after."""
    path = OUT_DIR / f"inputs-{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    with scratch_dir(name) as workdir:
        tr, workload, setup_s = set_up(name, seed, workdir)
        tracer = tracing.Tracer()
        if trace:
            tracer.install()
        runner = Runner(workload, tracer)
        timed = {False: [], True: []}
        t_start = time.perf_counter()
        while True:
            # Traced runs alternate untraced and traced rounds, starting untraced.
            traced = trace and len(timed[False]) > len(timed[True])
            timed[traced].append(runner.round(traced))
            elapsed = time.perf_counter() - t_start
            enough = elapsed >= seconds and runner.attempted >= MIN_OPS
            if enough and (not trace or len(timed[False]) >= 2 and timed[True]):
                break
        tracer.uninstall()

    if trace:
        traced_ops = len(timed[True]) * len(workload.ops)
        # The first round runs cold, so the untraced figure leaves it out.
        per_round = {True: statistics.mean(timed[True]), False: statistics.mean(timed[False][1:])}
        metrics = {
            key: (value, unit)
            for key, (value, unit, _better) in tracing.layer_metrics(
                tracer, traced_ops, runner.targets, workloads.CHECK_NAMES
            ).items()
        }
        startup, problems = startup_seconds(tr)
        runner.problems += problems
        metrics["cli.startup_s"] = (startup, "s")
        for layer, lines in src_lines().items():
            metrics[f"{layer}.src_lines"] = (float(lines), "lines")
        metrics["trace.overhead_pct"] = (100.0 * (per_round[True] / per_round[False] - 1.0), "%")
        tracer.write(OUT_DIR / f"trace-{name}-{seed}.jsonl")
    else:
        metrics = runner.end_to_end()
        metrics["setup_s"] = (statistics.median([setup_s] + setup_in_children(name, seed)), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure, count in sorted(runner.failures.items()):
        print(f"operation failed {count}x: {failure}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def environment(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def run_all(args) -> int:
    """Run every workload, each in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        with scratch_dir(args.workload) as workdir:
            print(set_up(args.workload, args.seed, workdir)[2])
        return 0
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load taurho from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8"
    )
    print(json.dumps(environment(args.workload, args.seed, args.seconds, bool(args.trace))))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
