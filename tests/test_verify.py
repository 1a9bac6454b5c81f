"""The check battery itself: reports, helpers, determinism, and small runs."""

import json

import numpy as np
import pytest

from taurho import verify
from taurho import (
    Permutation,
    VerificationReport,
    ab_values,
    check_almost_decreasing_classification,
    check_delta_construction,
    check_main_inequality,
    check_minimizer_structure,
    check_perturbation_identities,
    check_swap_descent,
    check_triangle_inequality,
    find_pattern,
    fisher_yates,
    random_shuffle,
    random_simplex,
)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestHelpers:
    def test_fisher_yates_is_deterministic(self):
        a = fisher_yates(_rng(42), 8)
        b = fisher_yates(_rng(42), 8)
        assert a == b

    def test_fisher_yates_reaches_everything(self):
        rng = _rng(1)
        seen = {fisher_yates(rng, 3).images for _ in range(200)}
        assert len(seen) == 6

    def test_random_simplex(self):
        u = random_simplex(_rng(0), 12)
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(u > 0)

    def test_random_shuffle_signs(self):
        rng = _rng(9)
        straight = random_shuffle(rng, n_max=6, mixed_signs=False)
        assert set(straight.signs) == {1}
        signs = set()
        for _ in range(20):
            signs.update(random_shuffle(rng, n_max=6).signs)
        assert signs == {1, -1}

    @pytest.mark.parametrize(
        "images,pattern,hit",
        [
            ((2, 1, 3), (1, 2, 3), None),
            ((1, 3, 2), (1, 2, 3), None),
            ((1, 2, 3), (1, 2, 3), (1, 2, 3)),
            ((3, 4, 1, 2), (3, 4, 1, 2), (1, 2, 3, 4)),
            ((2, 4, 1, 3), (3, 4, 1, 2), None),
            ((5, 3, 4, 1, 2), (2, 3, 1), (2, 3, 4)),
        ],
    )
    def test_find_pattern(self, images, pattern, hit):
        assert find_pattern(Permutation(images), pattern) == hit


class TestReport:
    def test_plain_python_types(self):
        r = VerificationReport(
            check_name="x",
            instances_tested=np.int64(3),
            worst_margin=np.float64(-0.5),
            worst_witness="{}",
            passed=np.bool_(True),
        )
        assert type(r.instances_tested) is int
        assert type(r.worst_margin) is float
        assert type(r.passed) is bool

    def test_as_dict_round_trips_through_json(self):
        r = VerificationReport("c", 1, 0.0, "{}", True, "note")
        assert json.loads(json.dumps(r.as_dict()))["check_name"] == "c"


class TestMainInequality:
    def test_small_sweep_passes(self):
        r = check_main_inequality(4, 6)
        assert r.passed
        assert r.worst_margin >= -1e-10
        assert "0 unexpected" in r.notes

    def test_witness_reproduces_margin(self):
        r = check_main_inequality(4, 6)
        w = json.loads(r.worst_witness)
        from taurho import theta

        a, b = ab_values(Permutation(tuple(w["perm"])), np.array(w["u"]))
        assert b - theta(min(a, 0.5)) == pytest.approx(r.worst_margin, abs=1e-14)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            check_main_inequality(7, 40)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            check_main_inequality(1, 10)
        with pytest.raises(ValueError):
            check_main_inequality(4, 1)


class TestMinimizer:
    def test_structure_holds(self):
        for n in (3, 4):
            r = check_minimizer_structure(n, 3)
            assert r.passed, r.notes

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            check_minimizer_structure(5, 4)
        with pytest.raises(ValueError):
            check_minimizer_structure(3, 0)


class TestSampledChecks:
    def test_perturbation(self):
        r = check_perturbation_identities(100, 3)
        assert r.passed and r.instances_tested == 100

    def test_triangle(self):
        r = check_triangle_inequality(60, 3)
        assert r.passed
        assert r.instances_tested > 0

    def test_delta_construction(self):
        r = check_delta_construction(100, 3)
        assert r.passed
        assert "pattern (i)" in r.notes

    def test_swap_descent(self):
        r = check_swap_descent(100, 3)
        assert r.passed
        # the margin strictly decreased every time
        assert "smallest margin decrease" in r.notes

    def test_determinism(self):
        a = check_swap_descent(50, 11)
        b = check_swap_descent(50, 11)
        assert a == b
        c = check_perturbation_identities(50, 11)
        d = check_perturbation_identities(50, 11)
        assert c == d

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            check_perturbation_identities(0, 0)

    def test_perturbation_direction_sums_to_zero(self):
        """Rescaling a centred direction can move its sum off zero by more
        than perturbation_coeffs allows; this seed did so before the
        direction was centred again."""
        assert check_perturbation_identities(1000, 676687234).passed


class TestRegistry:
    def test_run_all_checks_follows_the_registry(self, monkeypatch):
        calls = []

        def stub(name):
            def check(*args):
                calls.append((name, args))
                return VerificationReport(name, 1, 0.0, "", True)
            return check

        for name in [n for n in dir(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, stub(name))
        reports = verify.run_all_checks(5)
        assert calls == [
            ("check_main_inequality", (6, 10)),
            ("check_minimizer_structure", (3, 4)),
            ("check_minimizer_structure", (4, 4)),
            ("check_perturbation_identities", (1000, 5)),
            ("check_triangle_inequality", (500, 5)),
            ("check_delta_construction", (500, 5)),
            ("check_almost_decreasing_classification", (7,)),
            ("check_swap_descent", (500, 5)),
        ]
        assert [r.check_name for r in reports] == [c[0] for c in calls]
        assert list(verify.CHECKS) == [
            "main_inequality",
            "minimizer_structure",
            "perturbation_identities",
            "triangle_inequality",
            "delta_construction",
            "almost_decreasing_classification",
            "swap_descent",
        ]


def test_swap_descent_three_piece_example():
    """Smallest case by hand: moving the piece holding value 1 past the
    piece holding value 3 adds u2*u3 to a and removes u1*u2*u3 from b."""
    u = np.array([0.2, 0.3, 0.5])
    a0, b0 = ab_values(Permutation((2, 1, 3)), u)
    u_swapped = np.array([0.2, 0.5, 0.3])
    a1, b1 = ab_values(Permutation((2, 3, 1)), u_swapped)
    assert a1 - a0 == pytest.approx(u[1] * u[2], abs=1e-15)
    assert b1 - b0 == pytest.approx(-u[1] * u[2] * u[0], abs=1e-15)


def test_almost_decreasing_exhaustive_small():
    r = check_almost_decreasing_classification(5)
    assert r.passed
    assert r.instances_tested == 1 + 2 + 6 + 24 + 120
    with pytest.raises(ValueError):
        check_almost_decreasing_classification(0)
    with pytest.raises(ValueError):
        check_almost_decreasing_classification(9)
