"""The package's public surface: the union of its five layers' names."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import taurho
from taurho import (
    RegionPoint,
    area_quadrature,
    boundary_curve,
    classical_area_quadrature,
    evaluate,
    make_shuffle,
    ordinal_sum_with_identity,
    phi_boundary,
    segment_index,
    theta,
    varphi,
)

LAYERS = ("shuffles", "concordance", "region", "realize", "verify")

# Every public name, in order; adding or dropping one is a deliberate change.
PUBLIC_NAMES = [
    # shuffles
    "Permutation", "SimplexWeights", "Shuffle", "RegionPoint", "make_shuffle",
    "identity_shuffle", "flip_shuffle", "breakpoints", "evaluate", "inverse", "flip",
    "ordinal_sum_with_identity", "shuffle_to_dict", "shuffle_from_dict",
    "read_shuffle_json", "write_shuffle_json",
    # concordance
    "inv_invs", "tau_rho", "InversionData", "inversion_data", "ab_values",
    "PerturbationCoeffs", "perturbation_coeffs", "oracle_tau_rho",
    # region
    "APERY", "segment_index", "phi_boundary", "varphi", "theta", "contains",
    "classical_contains", "classical_rho_bounds", "boundary_samples",
    "area_closed_form", "area_quadrature", "classical_area_quadrature",
    # realize
    "PROTOTYPE_N_CAP", "BOUNDARY_SNAP", "Prototype", "HomotopyPoint",
    "TargetOutsideRegion", "prototype_for_tau", "prototype_shuffle", "boundary_curve",
    "realize",
    # verify
    "VerificationReport", "find_pattern",
    "check_main_inequality", "check_minimizer_structure", "check_perturbation_identities",
    "check_triangle_inequality", "check_delta_construction",
    "check_almost_decreasing_classification", "check_swap_descent", "CHECKS",
    "run_all_checks",
    "__version__",
]


def test_all_is_the_layers_lists():
    modules = [importlib.import_module(f"taurho.{name}") for name in LAYERS]
    assert taurho.__all__ == [n for m in modules for n in m.__all__] + ["__version__"]
    assert len(set(taurho.__all__)) == len(taurho.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(taurho, name) is getattr(module, name), name


def test_all_is_pinned():
    assert taurho.__all__ == PUBLIC_NAMES


_SHUFFLE = make_shuffle((2, 1), (0.25, 0.75), (1, -1))

# Scalar arguments of the public entry points, each read by one reader: a
# bool or a str is rejected with a message that names the argument.
SCALAR_ARGUMENTS = [
    (segment_index, -0.5, "segment_index: x"),
    (boundary_curve, 0.3, "boundary_curve: t"),
    (area_quadrature, 1e-6, "area_quadrature: tol"),
    (classical_area_quadrature, 1e-6, "classical_area_quadrature: tol"),
    (phi_boundary, -0.5, "phi_boundary: x"),
    (varphi, 0.3, "varphi: x"),
    (theta, 0.3, "varphi: x"),
    (lambda s: ordinal_sum_with_identity(_SHUFFLE, s), 0.25, "ordinal_sum_with_identity: s"),
    (lambda x: evaluate(_SHUFFLE, x), 0.5, "evaluate: x"),
    (lambda tau: RegionPoint(tau, 0.1), 0.2, "tau"),
]


@pytest.mark.parametrize("call,ok,name", SCALAR_ARGUMENTS)
def test_scalar_arguments_are_read_as_real_numbers(call, ok, name):
    """A bool or a str raises ValueError naming the argument; a numpy scalar
    and a 0-d array give what the float gives."""
    for bad in (True, str(ok)):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {bad!r}")):
            call(bad)
    expected = call(ok)
    for kind in (np.float64, np.array):
        assert call(kind(ok)) == expected


def test_import_does_no_check_work():
    """A fresh ``import taurho`` fills none of the layers' caches: the
    position tables, the pattern subsets and the main sweep's orbits are
    built on first use, not at import."""
    probe = (
        "import json, taurho\n"
        "caches = {f'{m}.{n}': f.cache_info().currsize for m in ('concordance', 'verify')\n"
        "          for n, f in vars(getattr(taurho, m)).items() if hasattr(f, 'cache_info')}\n"
        "print(json.dumps(caches))"
    )
    src = str(Path(taurho.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    caches = json.loads(proc.stdout)
    assert {"concordance._positions", "verify._subsets", "verify._orbits"} <= set(caches)
    assert all(size == 0 for size in caches.values()), caches


def _loads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a variable or as an
    attribute (``module._helper``)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_private_helper_has_a_caller_in_src():
    """Each top-level private function, class and constant of the package is
    read somewhere in ``src/`` outside its own definition, so that a helper
    does not outlive its last caller."""
    trees = [ast.parse(f.read_text()) for f in Path(taurho.__file__).parent.glob("*.py")]
    used = sum((_loads(tree) for tree in trees), Counter())
    unused = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _loads(node)
            unused += [
                name for name in names
                if name.startswith("_") and not name.startswith("__") and used[name] <= own[name]
            ]
    assert not unused
