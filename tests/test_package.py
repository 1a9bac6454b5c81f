"""The package's public surface: the union of its five layers' names."""

import importlib

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
    "VerificationReport", "fisher_yates", "random_simplex", "find_pattern",
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
