"""The package's public surface: the union of its five layers' names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import taurho

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
