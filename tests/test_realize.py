"""Prototypes, the boundary curve, and inverse realization of targets."""

import math

import numpy as np
import pytest

from taurho import (
    HomotopyPoint,
    Prototype,
    TargetOutsideRegion,
    boundary_curve,
    contains,
    flip_shuffle,
    phi_boundary,
    prototype_for_tau,
    prototype_shuffle,
    realize,
    tau_rho,
)


class TestPrototype:
    @pytest.mark.parametrize(
        "x,n,r",
        [
            (-1 / 3, 3, 1 / 3),
            (0.0, 2, 0.5),
            (-0.5, 4, 0.25),
            (-1 + 2 / 20, 20, 1 / 20),
        ],
    )
    def test_for_tau_at_sharp_points(self, x, n, r):
        proto = prototype_for_tau(x)
        assert proto.n == n
        assert proto.r == pytest.approx(r, abs=1e-12)

    def test_tau_round_trip(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-0.999, 1.0, 300):
            proto = prototype_for_tau(float(x))
            pt = tau_rho(prototype_shuffle(proto))
            assert pt.tau == pytest.approx(float(x), abs=1e-11)

    def test_shuffle_structure(self):
        sh = prototype_shuffle(Prototype(4, 0.27))
        assert sh.perm.images == (4, 3, 2, 1)
        assert sh.signs == (1, 1, 1, 1)
        np.testing.assert_allclose(sh.weights.u[:3], 0.27)
        assert sh.weights.u[3] == pytest.approx(1 - 3 * 0.27, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Prototype(1, 0.5)
        with pytest.raises(ValueError):
            Prototype(3, 0.6)  # r beyond 1/(n-1)
        with pytest.raises(ValueError):
            Prototype(3, 0.2)  # r below 1/n

    def test_lies_on_lower_boundary(self):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-0.99, 1.0, 200):
            pt = tau_rho(prototype_shuffle(prototype_for_tau(float(x))))
            assert pt.rho == pytest.approx(phi_boundary(pt.tau), abs=1e-11)


class TestBoundaryCurve:
    def test_endpoints_are_flip(self):
        for t in (0.0, 1.0):
            sh, pt = boundary_curve(t)
            assert sh == flip_shuffle()
            assert (pt.tau, pt.rho) == (-1.0, -1.0)

    @pytest.mark.parametrize(
        "t,tau,rho",
        [(0.25, 0.0, -0.5), (0.5, 1.0, 1.0), (0.75, 0.0, 0.5)],
    )
    def test_landmarks(self, t, tau, rho):
        _, pt = boundary_curve(t)
        assert pt.tau == pytest.approx(tau, abs=1e-12)
        assert pt.rho == pytest.approx(rho, abs=1e-12)

    def test_traces_the_boundary(self):
        """1000 parameter values, both halves, seam neighbourhood included."""
        ts = np.concatenate(
            [np.linspace(0, 1, 991), [0.4999999, 0.5000001, 0.0001, 0.9999]]
        )
        for t in ts:
            _, pt = boundary_curve(float(t))
            if t <= 0.5:
                assert pt.rho == pytest.approx(phi_boundary(pt.tau), abs=1e-9)
            else:
                assert pt.rho == pytest.approx(-phi_boundary(-pt.tau), abs=1e-9)

    def test_returned_point_matches_measurement(self):
        for t in (0.01, 0.1, 0.3, 0.499, 0.52, 0.7, 0.95):
            sh, pt = boundary_curve(t)
            measured = tau_rho(sh)
            assert measured.tau == pytest.approx(pt.tau, abs=1e-11)
            assert measured.rho == pytest.approx(pt.rho, abs=1e-11)

    def test_domain_and_guard(self):
        with pytest.raises(ValueError):
            boundary_curve(-0.1)
        with pytest.raises(ValueError):
            boundary_curve(1.1)
        with pytest.raises(ValueError):
            boundary_curve(0.5 + 1e-9)  # implied piece count past the guard


class TestHomotopyPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            HomotopyPoint(-0.1, 0.5, 0.0)
        with pytest.raises(ValueError):
            HomotopyPoint(0.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            HomotopyPoint(0.0, 0.5, -1e-3)


class TestRealize:
    def test_cli_worked_example(self):
        sh, h = realize((-0.3333333333, -0.7777777778))
        assert h.residual <= 1e-6
        assert sh.perm.images == (3, 2, 1)

    def test_corners(self):
        sh, h = realize((1.0, 1.0))
        assert sh.n == 1 and h.residual == 0.0
        sh, h = realize((-1.0, -1.0))
        assert sh == flip_shuffle() and h.residual == 0.0

    def test_boundary_targets(self):
        for x in (-0.6, -0.25, 0.3):
            sh, h = realize((x, phi_boundary(x)))
            assert h.residual <= 1e-9
            sh, h = realize((x, -phi_boundary(-x)))
            assert h.residual <= 1e-9

    def test_interior_grid(self, rng):
        hits = 0
        while hits < 100:
            x, y = rng.uniform(-1, 1, 2)
            if not contains((x, y)):
                continue
            hits += 1
            sh, h = realize((x, y))
            pt = tau_rho(sh)
            assert h.residual <= 1e-6
            assert math.hypot(pt.tau - x, pt.rho - y) <= 1e-6

    def test_snaps_just_outside_points(self):
        x = -0.4
        y = phi_boundary(x) - 5e-8  # inside the snap band
        _, h = realize((x, y))
        assert h.residual <= 1e-6

    def test_rejects_outside(self):
        with pytest.raises(TargetOutsideRegion):
            realize((-0.5, -0.99))
        with pytest.raises(TargetOutsideRegion):
            realize((0.0, 0.9))
        with pytest.raises(TargetOutsideRegion):
            realize((1.5, 0.0))
        with pytest.raises(TargetOutsideRegion):
            realize((0.5, 0.2))  # below the Daniels line, outside the region

    @pytest.mark.parametrize(
        "target", [(0.0, math.nan), (math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)]
    )
    def test_rejects_non_finite(self, target):
        with pytest.raises(ValueError, match="not finite") as info:
            realize(target)
        assert not isinstance(info.value, TargetOutsideRegion)

    def test_band_below_flip_curve_uses_wedge(self):
        """Targets between the flip scaling curve and the boundary would
        need prototypes with millions of pieces; the reflected two-piece
        wedge family covers them with a tiny representation."""
        x = -0.5
        flipcurve = 1 - 2 * ((1 - x) / 2) ** 1.5
        for eps in (1e-9, 1e-12, 0.0):
            sh, h = realize((x, flipcurve - eps))
            assert h.residual <= 1e-6
            assert sh.n <= 4
            assert -1 in sh.signs

    def test_band_above_flip_curve_on_the_flip_side(self):
        x = 0.5
        y = -(1 - 2 * ((1 + x) / 2) ** 1.5) + 1e-9
        sh, h = realize((x, y))
        assert h.residual <= 1e-6

    def test_homotopy_fields_are_consistent(self, rng):
        for _ in range(25):
            x, y = rng.uniform(-1, 1, 2)
            if not contains((x, y)):
                continue
            sh, h = realize((x, y))
            assert 0.0 <= h.s <= 1.0
            assert 0.0 <= h.t <= 1.0
            pt = tau_rho(sh)
            assert math.hypot(pt.tau - x, pt.rho - y) == pytest.approx(
                h.residual, abs=1e-12
            )
