"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``eval`` and
``oracle`` score a shuffle stored as JSON, ``boundary`` tabulates the
attainable region, ``realize`` solves the inverse problem, ``verify``
runs the check battery, and ``area`` compares the closed-form region
area against quadrature.

All numeric output goes through a single 17-significant-digit JSON
formatter so that repeated runs with the same inputs produce
byte-identical stdout.  Exit codes: 0 on success, 1 when a verification
check fails or a target lies outside the attainable region, 2 on
malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .concordance import inv_invs, oracle_tau_rho
from .realize import TargetOutsideRegion, realize
from .region import area_closed_form, area_quadrature, boundary_samples
from .shuffles import RegionPoint, read_shuffle_json, shuffle_to_dict
from . import verify as _verify

__all__ = ["run", "main"]


def _fmt(value) -> str:
    """Minimal JSON writer with floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cmd_eval(args) -> int:
    shuffle = read_shuffle_json(args.shuffle)
    inv, invs = inv_invs(shuffle)
    point = RegionPoint(1.0 - 4.0 * inv, 1.0 - 12.0 * invs)  # as tau_rho builds it
    print(_fmt({"tau": point.tau, "rho": point.rho, "inv": inv, "invs": invs}))
    return 0


def _cmd_oracle(args) -> int:
    shuffle = read_shuffle_json(args.shuffle)
    point = oracle_tau_rho(shuffle, grid_m=args.grid)
    print(_fmt({"tau": point.tau, "rho": point.rho, "grid": args.grid}))
    return 0


def _cmd_boundary(args) -> int:
    rows = boundary_samples(args.k)
    lines = ["tau,rho_lower,rho_upper"]
    for tau, lo, hi in rows:
        lines.append(
            ",".join(format(float(v), ".17g") for v in (tau, lo, hi))
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_realize(args) -> int:
    shuffle, homotopy = realize((args.tau, args.rho))
    print(
        _fmt(
            {
                "shuffle": shuffle_to_dict(shuffle),
                "homotopy": {
                    "s": homotopy.s,
                    "t": homotopy.t,
                    "residual": homotopy.residual,
                },
            }
        )
    )
    return 0


def _cmd_area(args) -> int:
    closed = area_closed_form()
    quad = area_quadrature(args.tol)
    print(
        _fmt(
            {"closed_form": closed, "quadrature": quad, "difference": quad - closed}
        )
    )
    return 0


def _cmd_verify(args) -> int:
    seed = _verify._seed(args.seed)  # reject a bad seed before any check runs
    if args.suite == "all":
        reports = _verify.run_all_checks(seed)
    else:
        reports = _verify.CHECKS[args.suite](seed)
    for report in reports:
        print(_fmt(report.as_dict()))
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taurho",
        description="Shuffle concordance toolkit: evaluate, realize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tau, rho, inv, invs of a shuffle JSON file")
    p.add_argument("--shuffle", required=True, help="path to a shuffle JSON file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="rank-statistic estimate of tau and rho")
    p.add_argument("--shuffle", required=True, help="path to a shuffle JSON file")
    p.add_argument("--grid", type=int, default=2000, help="midpoint grid size")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("boundary", help="CSV table of the attainable rho range per tau")
    p.add_argument("--k", type=int, required=True, help="number of tau samples")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("realize", help="construct a shuffle hitting a (tau, rho) target")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="run the check battery, one JSON line per check")
    p.add_argument(
        "--suite",
        default="all",
        choices=["all"] + sorted(_verify.CHECKS),
        help="which checks to run",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("area", help="closed-form region area vs adaptive quadrature")
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    p.set_defaults(func=_cmd_area)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except TargetOutsideRegion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
