"""End-to-end tests of the ``taurho`` command line.

Everything runs in-process through :func:`taurho.cli.run` except two
tests that start subprocesses: a smoke test that runs the entry point
declared under ``[project.scripts]`` in ``pyproject.toml`` the way a
console-script wrapper does, so no installed executable is needed, and
the fresh-process side of the test that one parser serves many calls.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taurho
from taurho import boundary_samples, cli, concordance, verify, write_shuffle_json
from taurho.cli import run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FOUR_SEGMENT_LINE = (
    '{"tau": -0.09375, "rho": -0.11328125, '
    '"inv": 0.2734375, "invs": 0.0927734375}'
)


@pytest.fixture
def shuffle_path(tmp_path, four_segment):
    path = tmp_path / "shuffle.json"
    write_shuffle_json(four_segment, path)
    return str(path)


class TestEval:
    def test_frozen_output(self, shuffle_path, capsys):
        assert run(["eval", "--shuffle", shuffle_path]) == 0
        assert capsys.readouterr().out == FOUR_SEGMENT_LINE + "\n"

    def test_byte_identical_reruns(self, shuffle_path, capsys):
        run(["eval", "--shuffle", shuffle_path])
        first = capsys.readouterr().out
        run(["eval", "--shuffle", shuffle_path])
        assert capsys.readouterr().out == first

    def test_counts_inversions_once(self, shuffle_path, monkeypatch, capsys):
        calls = []

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        kernel = concordance._inversions
        monkeypatch.setattr(concordance, "_inversions", spy)
        assert run(["eval", "--shuffle", shuffle_path]) == 0
        assert capsys.readouterr().out == FOUR_SEGMENT_LINE + "\n"
        assert len(calls) == 1

    def test_missing_file(self, tmp_path, capsys):
        code = run(["eval", "--shuffle", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_shuffle(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"perm": [2, 1], "weights": [0.5, 0.4], "signs": [1, 1]}')
        assert run(["eval", "--shuffle", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_weight_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"perm": [1, 2], "weights": [NaN, 0.5], "signs": [1, 1]}')
        assert run(["eval", "--shuffle", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_string_weight_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "string.json"
        bad.write_text('{"perm": [1, 2], "weights": ["0.5", 0.5], "signs": [1, 1]}')
        assert run(["eval", "--shuffle", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weights entries must be real numbers, got '0.5' at weights[0]\n"

    def test_unparseable_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert run(["eval", "--shuffle", str(bad)]) == 2
        capsys.readouterr()


class TestOracle:
    def test_output_keys(self, shuffle_path, capsys):
        assert run(["oracle", "--shuffle", shuffle_path, "--grid", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"tau", "rho", "grid"}
        assert payload["grid"] == 200
        assert payload["tau"] == pytest.approx(-0.09375, abs=0.02)


class TestBoundary:
    def test_csv_round_trip(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(["boundary", "--k", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,rho_lower,rho_upper"
        parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
        expected = boundary_samples(7)
        assert len(parsed) == 7
        for row, exp in zip(parsed, expected):
            assert row == [float(x) for x in exp]

    def test_bad_k(self, tmp_path, capsys):
        assert run(["boundary", "--k", "1", "--out", str(tmp_path / "t.csv")]) == 2
        capsys.readouterr()


class TestRealize:
    def test_sharp_point_target(self, capsys):
        code = run(["realize", "--tau", repr(-1 / 3), "--rho", repr(-7 / 9)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"shuffle", "homotopy"}
        assert payload["shuffle"]["perm"] == [3, 2, 1]
        assert payload["homotopy"]["residual"] <= 1e-6

    def test_sliver_target(self, capsys):
        code = run(
            ["realize", "--tau", "-0.9999521533741442", "--rho", "-0.9999999919626323"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["homotopy"]["residual"] <= 1e-6

    def test_outside_region_is_exit_1(self, capsys):
        assert run(["realize", "--tau", "0.0", "--rho", "0.9"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("tau,rho", [("0", "nan"), ("nan", "0.0")])
    def test_non_finite_target_is_exit_2(self, tau, rho, capsys):
        assert run(["realize", "--tau", tau, "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "nan" in captured.err


class TestArea:
    def test_keys_and_agreement(self, capsys):
        assert run(["area", "--tol", "1e-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"closed_form", "quadrature", "difference"}
        assert abs(payload["difference"]) < 1e-6

    def test_nan_tol_is_exit_2(self, capsys):
        assert run(["area", "--tol", "nan"]) == 2
        assert "tol must be > 0, got nan" in capsys.readouterr().err

    def test_infinite_tol_is_exit_2(self, capsys):
        assert run(["area", "--tol", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "tol must be finite, got inf" in captured.err


class TestVerify:
    def test_single_check(self, capsys):
        assert run(["verify", "--suite", "swap_descent", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["check_name"] == "swap_descent"
        assert payload["passed"] is True

    def test_exhaustive_check(self, capsys):
        assert run(["verify", "--suite", "almost_decreasing_classification"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instances_tested"] == 5913

    def test_negative_seed_is_rejected_before_any_check(self, monkeypatch, capsys):
        ran = []
        for name in [n for n in dir(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name))
        assert run(["verify", "--suite", "all", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "nonsense"]) == 2
        capsys.readouterr()

    def test_every_registry_entry_is_a_suite(self, monkeypatch, capsys):
        """The suites are the entries of verify.CHECKS, and each check is
        looked up on the verify module when it runs."""
        seen = []

        def stub(name):
            def check(*args):
                seen.append((name, args))
                return verify.VerificationReport(name, 1, 0.0, "", True)
            return check

        for name in [n for n in dir(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, stub(name))
        for suite in verify.CHECKS:
            assert run(["verify", "--suite", suite, "--seed", "9"]) == 0
        assert ("check_swap_descent", (500, 9)) in seen
        assert len(capsys.readouterr().out.splitlines()) == len(seen) == 8


class TestArgErrors:
    def test_no_command(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["realize", "--tau", "0.0"]) == 2
        capsys.readouterr()


def _subprocess_env():
    """The environment with the source tree the in-process tests imported
    first on PYTHONPATH."""
    src = str(Path(taurho.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


# SHA-256 of the output of every frozen CLI input (stdout, and the CSV for
# boundary); ROADMAP lists the inputs.  Any change to these outputs must be
# named and signed off, and its digest replaced here.
FROZEN_OUTPUTS = [
    ("eval", ["eval", "--shuffle", "{shuffle}"], "1e398acbfbf6f972695630a39c1a9893b49b0af4415c6f7cf998b3f74bd6e318"),
    ("boundary-7", ["boundary", "--k", "7"], "07f533fbe0a653bae44a5d9ba3a1e1829ef5d52b5ac002f2dd9d3b3f1eefeba2"),
    ("boundary-101", ["boundary", "--k", "101"], "ea75daeb15691d4037aac51149b96e45d31f1c6f6d4fcb5007ba69e4db485c78"),
    ("boundary-1001", ["boundary", "--k", "1001"], "9e1023a2bb89aa0dbd618dac6b600674e625507caf9117b60cabdfaa45f402be"),
    ("boundary-4097", ["boundary", "--k", "4097"], "c12ef8c48ce337e5a2d105f27b4767b4cc3ec91e4c3e6593401a4fad59be7f69"),
    (
        "realize-sharp",
        ["realize", "--tau", "-0.3333333333", "--rho", "-0.7777777778"],
        "f50ef2bb5a9181a96eb56bf02359c7f6b85bf1f270287478d1dc3c68844c16e4",
    ),
    ("realize-interior", ["realize", "--tau", "0.2", "--rho", "0.1"], "61728d9fcf1ab8bd934050adbd738ba6f7135a3cd589e3f879e29ef715979665"),
    ("realize-corner", ["realize", "--tau", "-0.9", "--rho", "-0.95"], "88dcaa40e7cd9e8c1a9cdef8f88a52d8518da71e4d406f80427a96040a2b4820"),
    ("realize-upper", ["realize", "--tau", "0.5", "--rho", "0.6"], "8adb22696ad71ccbe1cd15eace390fa6b9a26e7225cad2389343750ff3bf35d5"),
    ("area", ["area"], "60d7eb3bb76f7c7825e13296e691c28806a511d7416287a5a4c199fdadbf1ed0"),
    ("verify", ["verify", "--suite", "all", "--seed", "0"], "9c0656629943934c85bffd1f572d59ee0b1dcb6d8566b07a7b385ea95a7b344e"),
]


@pytest.mark.parametrize("args,digest", [case[1:] for case in FROZEN_OUTPUTS], ids=[case[0] for case in FROZEN_OUTPUTS])
def test_frozen_outputs_are_byte_identical(args, digest, shuffle_path, tmp_path, capsys):
    args = [a.format(shuffle=shuffle_path) for a in args]
    csv = tmp_path / "boundary.csv"
    if args[0] == "boundary":
        args += ["--out", str(csv)]
    assert run(args) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(csv.read_bytes() if args[0] == "boundary" else out).hexdigest() == digest


def test_one_parser_serves_every_call(shuffle_path, capsys):
    """A malformed call, then eval, then a verify suite, in one process,
    exit and print as each does in a fresh process."""
    calls = [
        ["verify", "--suite", "nonsense"],
        ["eval", "--shuffle", shuffle_path],
        ["verify", "--suite", "swap_descent"],
    ]
    here = []
    for argv in calls:
        code = run(argv)
        here.append((code, capsys.readouterr().out))
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from taurho.cli import run; sys.exit(run(sys.argv[1:]))", *argv],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in here] == [2, 0, 0]
    assert here == fresh
    assert cli._parser() is cli._parser()


def test_console_script(shuffle_path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["taurho"]
    module, func = entry.split(":")
    # What a generated console-script wrapper runs.
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'taurho'; sys.exit({func}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "eval", "--shuffle", shuffle_path],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == FOUR_SEGMENT_LINE + "\n", proc.stderr
