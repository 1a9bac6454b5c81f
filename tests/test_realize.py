"""Prototypes, the boundary curve, and inverse realization of targets."""

import importlib
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from taurho import (
    HomotopyPoint,
    Prototype,
    TargetOutsideRegion,
    boundary_curve,
    contains,
    flip,
    flip_shuffle,
    make_shuffle,
    ordinal_sum_with_identity,
    phi_boundary,
    prototype_for_tau,
    prototype_shuffle,
    realize,
    tau_rho,
)
from taurho import concordance, region
from taurho.realize import _prototype_point
from conftest import exact_tau_rho, random_shuffle

realize_module = importlib.import_module("taurho.realize")


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
        with pytest.raises(ValueError, match="prototype n .*3.9"):
            Prototype(3.9, 0.4)
        with pytest.raises(ValueError, match="prototype n .*True"):
            Prototype(True, 0.5)
        with pytest.raises(ValueError, match="prototype r=nan"):
            Prototype(3, math.nan)
        with pytest.raises(ValueError, match="prototype r=inf"):
            Prototype(3, math.inf)

    def test_numpy_integers_are_accepted(self):
        proto = Prototype(np.int64(3), np.float64(0.4))
        assert (proto.n, proto.r) == (3, 0.4)
        assert type(proto.n) is int and type(proto.r) is float

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


def _flip_curve(x: float) -> float:
    """F(x): the flip under ordinal sums with the identity."""
    return 1.0 - 2.0 * ((1.0 - x) / 2.0) ** 1.5


# The targets of the CLI examples, with the shuffle (perm, weights, signs),
# s and t that realize gives them.
_R3 = 0.33333500000006894
_R30 = 0.03458764725447037
FROZEN_TARGETS = [
    (
        (-0.3333333333, -0.7777777778),
        (3, 2, 1),
        (_R3, _R3, 0.3333299999998621),
        (1, 1, 1),
        0.0,
        0.16666666667500002,
    ),
    (
        (0.2, 0.1),
        (1, 4, 3, 2),
        (0.18491381899128934, 0.356263237881162, 0.356263237881162,
         0.10255970524638665),
        (1, 1, 1, 1),
        0.18491381899128934,
        0.19896088030337972,
    ),
    (
        (-0.9, -0.95),
        (1,) + tuple(range(30, 1, -1)),
        (0.008006733457524229,) + (_R30,) * 28 + (0.02353914341730545,),
        (1,) * 30,
        0.008006733457524229,
        0.01730126451401881,
    ),
    (
        (0.5, 0.6),
        (1, 5, 4, 3, 2),
        (0.39320333262142726,) + (0.19838218182895578,) * 3
        + (0.01165012189170537,),
        (1, 1, 1, 1, 1),
        0.39320333262142726,
        0.16051261640065628,
    ),
]

# Targets in the sliver above the lower corner, under the reach of the
# near-flip wedge family, and one in the mirrored sliver at the upper corner.
# The first two take prototypes of 10^4 to 2^15 pieces, the others wedges.
SLIVER_TARGETS = [
    (-0.99981, -0.9999999819497971),
    (-0.99981, -0.9999996969678473),
    (-0.9999521533741442, -0.9999999919626323),
    (-0.9999968377223398, -0.9999999999902566),
    (-0.99999, -0.999999998450005),
    (-0.9999683772233983, -0.999999952066334),
    (0.99999, 0.99999999995),
]


@st.composite
def region_targets(draw):
    """Points of the region, weighted toward both corners, both boundaries
    and the band around the flip curve F."""
    gap = 10.0 ** draw(st.floats(-9.0, -1.0))
    x = draw(
        st.one_of(
            st.just(-1.0 + gap),
            st.just(1.0 - gap),
            st.floats(-1.0, 1.0, allow_nan=False),
        )
    )
    lo, hi = phi_boundary(x), -phi_boundary(-x)
    width = hi - lo
    near = width * 10.0 ** draw(st.floats(-12.0, 0.0))
    y = draw(
        st.sampled_from(
            [
                lo,
                hi,
                lo + near,
                hi - near,
                _flip_curve(x),
                _flip_curve(x) + near,
                _flip_curve(x) - near,
                lo + width * draw(st.floats(0.0, 1.0)),
            ]
        )
    )
    assume(contains((x, y)))
    return x, y


class TestRealize:
    def test_cli_worked_example(self):
        for target, perm, weights, signs, s, t in FROZEN_TARGETS:
            sh, h = realize(target)
            assert h.residual <= 1e-6
            assert sh.perm.images == perm
            assert sh.signs == signs
            assert sh.weights.u == pytest.approx(weights, rel=0, abs=1e-12)
            assert h.s == pytest.approx(s, rel=0, abs=1e-12)
            assert h.t == pytest.approx(t, rel=0, abs=1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(region_targets())
    def test_every_region_point_is_realized(self, target):
        sh, h = realize(target)
        pt = tau_rho(sh)
        assert math.hypot(pt.tau - target[0], pt.rho - target[1]) <= 1e-6
        assert h.residual <= 1e-6
        assert sh.n <= 2**15 + 1

    @pytest.mark.parametrize("target", SLIVER_TARGETS)
    def test_sliver(self, target):
        assert contains(target)
        sh, h = realize(target)
        pt = tau_rho(sh)
        assert math.hypot(pt.tau - target[0], pt.rho - target[1]) <= 1e-6
        assert h.residual <= 1e-6
        assert sh.n <= 2**15 + 1

    def test_wedge_comes_before_large_prototypes(self):
        """The root here needs a prototype of 11,293 pieces; the exact wedge
        reaches the target with three."""
        sh, h = realize((-0.9994220307115846, -0.9993986543394635))
        assert sh.n == 3 and -1 in sh.signs
        assert h.residual <= 1e-12

    def test_scan_that_loses_the_sign_at_the_flip_end(self):
        """On the flip curve the residual at t = 0 is zero in exact
        arithmetic, but numpy's SIMD power (AVX-512) rounds it to -2.2e-16
        on arrays.  The scalar residual runs the float operations of the
        flip-curve test, so it is exactly 0 at t = 0, and the search
        returns the root t = 0."""
        x = -0.6647876036897746
        sh, h = realize((x, _flip_curve(x)))
        assert (h.s, h.t) == (pytest.approx(0.0876438185418551, abs=1e-12), 0.0)
        assert h.residual <= 1e-12

    def test_corners(self):
        sh, h = realize((1.0, 1.0))
        assert sh.n == 1 and h.residual == 0.0
        sh, h = realize((-1.0, -1.0))
        assert sh == flip_shuffle() and h.residual == 0.0

    def test_boundary_targets(self):
        for x in (-0.6, -0.25, 0.3):
            sh, h = realize((x, phi_boundary(x)))
            assert h.residual <= 1e-9
            assert (h.s, h.t) == (0.0, (1.0 + x) / 4.0)
            sh, h = realize((x, -phi_boundary(-x)))
            assert h.residual <= 1e-9
            assert (h.s, h.t) == (0.0, (3.0 - x) / 4.0)

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

    @pytest.mark.parametrize(
        "target,shown",
        [
            ((0.2,), "realize: target (0.2,) is not a (tau, rho) pair"),
            (0.2, "realize: target 0.2 is not a (tau, rho) pair"),
            (("0.2", "0.1"), "realize: tau must be a real number, got '0.2'"),
            ((True, 0.9), "realize: tau must be a real number, got True"),
            ((0.2, np.array([0.1])), "realize: rho must be a real number"),
        ],
    )
    def test_rejects_what_is_not_a_pair_of_reals(self, target, shown):
        with pytest.raises(ValueError, match=re.escape(shown)) as info:
            realize(target)
        assert not isinstance(info.value, TargetOutsideRegion)

    def test_numpy_scalars_and_0d_arrays_are_accepted(self):
        expected = realize((0.2, 0.1))
        for target in ((np.float64(0.2), np.float64(0.1)), (np.array(0.2), np.array(0.1))):
            assert realize(target) == expected

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


# One target per branch of the certificate: both corners, both boundaries,
# lower-half and flipped interior targets, a target on the flip curve, the
# exactly solved wedge, the 5,838-piece prototype near the lower corner, and
# the slivers (prototypes of 10^4 to 2^15 pieces, and wedges of their tau).
_CORNER_PROTOTYPE = (-0.9996272406279685, -0.9999548056215535)
CERTIFICATE_TARGETS = [
    (1.0, 1.0),
    (-1.0, -1.0),
    (-0.6, phi_boundary(-0.6)),
    (0.3, -phi_boundary(-0.3)),
    (0.2, 0.1),
    (0.0, 0.4),
    (-0.6647876036897746, _flip_curve(-0.6647876036897746)),
    (-0.9994220307115846, -0.9993986543394635),
    _CORNER_PROTOTYPE,
] + SLIVER_TARGETS


def _refuse(*args):
    raise AssertionError("realize measured a shuffle")


def _checked_phi_scalar(monkeypatch) -> list:
    """Wrap the search's boundary so that it fails outside [-1, 1]; the
    returned list collects the arguments it was called with."""
    inner = realize_module._phi_scalar
    seen = []

    def checked(x):
        assert -1.0 <= x <= 1.0, x
        seen.append(x)
        return inner(x)

    monkeypatch.setattr(realize_module, "_phi_scalar", checked)
    return seen


class TestCertificate:
    """The residual comes from closed forms; it must agree with the measured
    distance of the witness, and with an exact one where that is cheap."""

    def test_exact_reference(self, four_segment, rng):
        assert exact_tau_rho(four_segment) == (Fraction(-3, 32), Fraction(-29, 256))
        for _ in range(50):
            sh = random_shuffle(rng, n_max=12)
            tau, rho = exact_tau_rho(sh)
            pt = tau_rho(sh)
            assert abs(pt.tau - tau) <= 1e-14 and abs(pt.rho - rho) <= 1e-14

    def test_targets_cover_every_branch(self):
        witnesses = {t: realize(t) for t in CERTIFICATE_TARGETS}
        assert witnesses[(1.0, 1.0)][0].n == 1
        assert witnesses[(-1.0, -1.0)][0] == flip_shuffle()
        assert witnesses[(0.0, 0.4)][1].t > 0.5 > witnesses[(0.2, 0.1)][1].t
        assert witnesses[_CORNER_PROTOTYPE][0].n == 5838
        assert witnesses[(-0.9994220307115846, -0.9993986543394635)][0].n == 3
        assert max(sh.n for sh, _ in witnesses.values()) > 10_000

    @pytest.mark.parametrize("target", CERTIFICATE_TARGETS)
    def test_residual_is_the_measured_distance(self, target):
        sh, h = realize(target)
        pt = tau_rho(sh)
        measured = math.hypot(pt.tau - target[0], pt.rho - target[1])
        assert abs(h.residual - measured) <= 1e-12
        if sh.n <= 48:
            tau, rho = exact_tau_rho(sh)
            exact = math.hypot(
                float(tau - Fraction(target[0])), float(rho - Fraction(target[1]))
            )
            assert abs(h.residual - exact) <= 1e-12

    def test_realize_never_measures(self, monkeypatch):
        monkeypatch.setattr(concordance, "_inversions", _refuse)
        for target in [frozen[0] for frozen in FROZEN_TARGETS] + SLIVER_TARGETS:
            realize(target)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(region_targets())
    def test_realize_never_measures_region_targets(self, target):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concordance, "_inversions", _refuse)
            realize(target)

    def test_search_stays_in_the_boundary_domain(self, monkeypatch):
        """A target more than 1e-12 from both boundaries searches, so the
        wrapper must have seen a call for each of them."""
        seen = _checked_phi_scalar(monkeypatch)
        searched = 0
        for x, y in [frozen[0] for frozen in FROZEN_TARGETS] + SLIVER_TARGETS:
            seen.clear()
            realize((x, y))
            if min(y - phi_boundary(x), -phi_boundary(-x) - y) > 1e-12:
                assert seen, (x, y)
                searched += 1
        assert searched == 8

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(region_targets())
    def test_search_stays_in_the_boundary_domain_on_region_targets(self, target):
        with pytest.MonkeyPatch.context() as mp:
            _checked_phi_scalar(mp)
            realize(target)


class TestResidualIsMonotone:
    """The lower-half residual g(t) = 1 - (1-x)^1.5 h(4t-1) - y, with
    h(tau) = (1 - Phi(tau))/(1 - tau)^1.5, strictly decreases in t because
    h strictly increases on [-1, 1); so it has one root, on one segment."""

    def test_h_increases_on_every_segment(self):
        """On segment n the boundary is the prototype point (tau(r), rho(r))
        for r in (1/n, 1/(n-1)]; dh/dr factors as below, every factor is
        positive there (at n = 2 the point r = 1 is tau = 1), and
        dtau/dr = 4(n-1)(nr-1) is positive too."""
        n, r = sp.symbols("n r", positive=True)
        tau, rho = (sp.nsimplify(e, rational=True) for e in _prototype_point(n, r))
        h = (1 - rho) / (1 - tau) ** sp.Rational(3, 2)
        dh = (
            3 * sp.sqrt(2) * ((n - 1) * (2 - n * r)) ** sp.Rational(3, 2)
            * (1 - r) * (n * r - 1)
            / (2 * r ** sp.Rational(3, 2) * (n - 1) ** 2 * (n * r - 2) ** 4)
        )
        assert sp.simplify(sp.diff(h, r) / dh) == 1
        assert sp.expand(sp.diff(tau, r) - 4 * (n - 1) * (n * r - 1)) == 0
        # r = (1 + 1/((k+1)(n-1)))/n runs over (1/n, 1/(n-1)] as k runs over
        # [0, oo); at n = 2, k > 0 keeps r < 1.
        p, k = sp.symbols("p k", nonnegative=True)
        k2 = sp.Symbol("k2", positive=True)
        for sub in (
            {n: p + 3, r: (1 + 1 / ((k + 1) * (p + 2))) / (p + 3)},
            {n: 2, r: (1 + 1 / (k2 + 1)) / 2},
        ):
            for factor in (n - 1, r, 1 - r, n * r - 1, 2 - n * r):
                assert sp.factor(factor.subs(sub)).is_positive, (factor, sub)

    def test_h_never_decreases_in_floats(self):
        """h on about 10^6 taus: a uniform grid of [-1, 1) and a log grid of
        1 + tau down to 1e-15, where the segments crowd together."""
        taus = np.unique(
            np.concatenate(
                [
                    np.linspace(-1.0, 1.0, 2**19 + 1)[:-1],
                    -1.0 + np.logspace(-15.0, 0.0, 2**19, endpoint=False),
                ]
            )
        )
        h = (1.0 - phi_boundary(taus)) / (1.0 - taus) ** 1.5
        assert len(taus) > 900_000
        assert np.all(np.diff(h) >= 0.0)

    def test_realize_evaluates_the_boundary_on_floats(self, monkeypatch):
        """The search runs on the scalar path of phi_boundary only."""

        def array_path(x):
            raise AssertionError("phi_boundary evaluated on an array")

        monkeypatch.setattr(region, "_phi", array_path)
        for target in [frozen[0] for frozen in FROZEN_TARGETS] + SLIVER_TARGETS:
            _, h = realize(target)
            assert h.residual <= 1e-6


def _searched_target(x: float, y: float) -> tuple[float, float]:
    """The target that ``realize`` searches for (x, y): itself on or below
    the flip curve (by ``realize``'s own test), else (-x, -y)."""
    return (-x, -y) if y > realize_module._rho_scaled(x, -1.0, -1.0) else (x, y)


def _g_lower(x: float, y: float, t: float) -> float:
    """The lower-half residual g at t in [0, (1+x)/4], in floats, as the ITP
    search of ``realize`` evaluated it before the per-segment solve."""
    tau_c = 4.0 * t - 1.0
    return realize_module._rho_scaled(x, tau_c, region._phi_scalar(tau_c)) - y


def _bisection_bracket(g, a: float, b: float) -> tuple[float, float]:
    """The final bracket of the bisection that the ITP search replaced, to
    the same width, or (m, m) for a point m where g is exactly 0."""
    ga = g(a)
    if ga == 0.0:
        return a, a
    if g(b) == 0.0:
        return b, b
    while b - a > realize_module._ROOT_TOL:
        m = (a + b) / 2.0
        gm = g(m)
        if gm == 0.0:
            return m, m
        if (ga < 0.0) == (gm < 0.0):
            a, ga = m, gm
        else:
            b = m
    return a, b


def _bisection(g, a: float, b: float) -> float:
    """That bisection's root, its bracket's midpoint: the reference for the
    ITP search's count of evaluations."""
    return sum(_bisection_bracket(g, a, b)) / 2.0


def _random_targets(seed: int, count: int) -> list[tuple[float, float]]:
    """``count`` uniform points of the square [-1, 1]^2 that ``contains`` accepts."""
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < count:
        x, y = rng.uniform(-1, 1, 2)
        if contains((x, y)):
            targets.append((float(x), float(y)))
    return targets


def _corner_grid() -> list[tuple[float, float]]:
    """A 45 x 48 grid of (1 + tau gap, share of the slice between the
    boundaries) next to both corners."""
    targets = []
    for gap in np.logspace(-8.0, -1.0, 45):
        for x in (-1.0 + gap, 1.0 - gap):
            lo, hi = phi_boundary(x), -phi_boundary(-x)
            targets += [(x, lo + share * (hi - lo)) for share in np.linspace(0.0, 1.0, 48)]
    return targets


def _solved(targets) -> list[tuple[float, float]]:
    """The lower-half targets that ``realize`` solves for ``targets``: each
    mirrored as ``realize`` does, and those more than 1e-12 above the lower
    boundary (the others take the boundary point without a solve)."""
    solved = [_searched_target(*target) for target in targets]
    return [(x, y) for x, y in solved if y - phi_boundary(x) > 1e-12]


def _evaluations(solver, x: float, y: float) -> int:
    """How many evaluations ``solver`` takes for the root of ``_g_lower``
    at (x, y)."""
    calls = []

    def g(t):
        calls.append(t)
        return _g_lower(x, y, t)

    solver(g, 0.0, (1.0 + x) / 4.0)
    return len(calls)


def _exact_g(x: float, y: float, t) -> mpmath.mpf:
    """g(t) = 1 - ((1-x)/(1-tau))^1.5 (1 - Phi(tau)) - y at tau = 4t - 1,
    in the working precision, with Phi(tau) from the prototype of tau's
    segment n: its tau 1 - 4(n-1)r + 2n(n-1)r^2 solved for r >= 1/n, then
    its rho."""
    tau = 4 * t - 1
    n = max(2, int(mpmath.ceil(2 / (1 + tau))))
    m = n - 1
    r = (2 * m + mpmath.sqrt(4 * m * m - 2 * n * m * (1 - tau))) / (2 * n * m)
    phi = 1 - 2 * r * m * (3 - 3 * r * m + r * r * (n - 2) * n)
    return 1 - ((1 - x) / (1 - tau)) ** mpmath.mpf(1.5) * (1 - phi) - y


def _exact_root(x: float, y: float, t: float) -> mpmath.mpf:
    """The root of g within 1e-12 of t, to 50 digits (g decreases in t)."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(t) - mpmath.mpf(1e-12), mpmath.mpf(t) + mpmath.mpf(1e-12)
        assert _exact_g(x, y, lo) > 0 > _exact_g(x, y, hi), (x, y, t)
        for _ in range(100):
            mid = (lo + hi) / 2
            if _exact_g(x, y, mid) > 0:
                lo = mid
            else:
                hi = mid
        return lo


class TestRootSearch:
    """The ITP search against an exact root, and its count of evaluations
    against the bisection it replaced."""

    def test_root_is_within_1e_15_of_the_exact_root(self, rng):
        """Bisection to the same 1e-13 bracket returned its midpoint, up to
        5e-14 from the root (4.1e-14 on these targets)."""
        targets = [frozen[0] for frozen in FROZEN_TARGETS[1:]]
        while len(targets) < 53:
            x, y = rng.uniform(-1, 1, 2)
            if contains((x, y)):
                targets.append((float(x), float(y)))
        worst = 0.0
        for target in targets:
            x, y = _searched_target(*target)
            lower = phi_boundary(x)
            assert y - lower > 1e-12
            _, _, v, t = realize_module._lower_half(x, y, lower)
            assert v == 4.0 * t - 1.0 > -1.0
            with mpmath.workdps(50):
                worst = max(worst, float(abs(_exact_root(x, y, t) - mpmath.mpf(t))))
        assert worst <= 1e-15

    def test_no_root_takes_more_than_one_evaluation_over_bisection(self):
        """A 45 x 48 grid of (1 + tau gap, share of the slice between the
        boundaries) next to both corners, and the sliver targets."""
        targets = list(SLIVER_TARGETS) + _corner_grid()
        counts = []
        for target in targets:
            x, y = _searched_target(*target)
            if y - phi_boundary(x) <= 1e-12:
                continue  # on the boundary: no search
            itp = _evaluations(realize_module._itp, x, y)
            bisection = _evaluations(_bisection, x, y)
            assert itp <= bisection + 1, (target, itp, bisection)
            counts.append((itp, bisection))
        assert len(counts) > 3500
        itp, bisection = np.sum(counts, axis=0)
        assert itp < 0.75 * bisection


# Targets on which the solve is checked closely: the corner next to (1, 1),
# where ITP took 46 evaluations; targets on F in floats, where c rounds to 1
# or y is 1; and one where the float g is 0 on a run of t about 1e-12 wide.
UPPER_CORNER_TARGET = (0.99999999, 0.9999999920212764)
FLIP_ROUNDING_TARGET = (-0.9999999855758275, -0.9999999783637412)
C_ROUNDING_TARGET = (-0.7684979444157374, -0.6629984376209125)
TOP_EDGE_TARGETS = [(1.0 - 1e-11, 1.0), (1.0 - 5e-12, 1.0)]
RUN_OF_ZEROS_TARGET = (0.9991452911874408, 0.9999723645643245)


class TestSegmentSolve:
    """``_lower_root`` finds the root's segment in closed form and solves it
    there; checked against the bisection reference, 50-digit roots and the
    ITP search that it replaced."""

    def test_lattice_and_segment_two_closed_forms(self):
        """At tau_k = -1 + 2/k (the prototype with n = k, r = 1/k), Phi is
        -1 + 2/k^2 and h^2 = (k+1)^2/(2k(k-1)); with H^2 = (1-y)^2/(1-x)^3 =
        1/(2c), h(tau_k) <= H is c(k+1)^2 <= k(k-1), the quadratic of the
        segment.  On segment 2, 1 - Phi = 1.5(1 - tau), so h = H at
        1 - tau = 2.25/H^2 = 4.5c."""
        k, r, c = sp.symbols("k r c", positive=True)
        tau, rho = (sp.nsimplify(e, rational=True) for e in _prototype_point(k, 1 / k))
        assert sp.simplify(tau - (-1 + 2 / k)) == 0
        assert sp.simplify(rho - (-1 + 2 / k**2)) == 0
        h2 = (1 - rho) ** 2 / (1 - tau) ** 3
        assert sp.simplify(h2 - (k + 1) ** 2 / (2 * k * (k - 1))) == 0
        quadratic = (1 - c) * k**2 - (1 + 2 * c) * k - c
        assert sp.expand(quadratic - (k * (k - 1) - c * (k + 1) ** 2)) == 0
        tau2, rho2 = (sp.nsimplify(e, rational=True) for e in _prototype_point(2, r))
        assert sp.expand((1 - rho2) - sp.Rational(3, 2) * (1 - tau2)) == 0

    def test_segment_is_the_bisection_roots(self):
        """The closed-form n equals ``segment_index`` of the bisection
        reference root wherever the reference's 1e-13 bracket lies in one
        segment, and lies among the segments it spans elsewhere: next to
        (-1, -1) the segments are narrower than that bracket (2/n^2 < 1e-13
        for n > 4.5e6)."""
        random = _solved(_random_targets(2, 3000))
        corner = _solved(_corner_grid() + SLIVER_TARGETS)
        single = {"random": 0, "corner": 0}
        for name, targets in (("random", random), ("corner", corner)):
            for x, y in targets:
                t = realize_module._lower_root(x, y)
                lo, hi = _bisection_bracket(lambda s: _g_lower(x, y, s), 0.0, (1.0 + x) / 4.0)
                if t == 0.0:
                    assert lo == 0.0, (x, y, lo)
                    continue
                n = region.segment_index(4.0 * t - 1.0)
                left = region.segment_index(4.0 * lo - 1.0) if lo > 0.0 else math.inf
                right = region.segment_index(4.0 * hi - 1.0)
                assert right <= n <= left, (x, y, n, right, left)
                single[name] += left == right
        assert single["random"] == len(random) > 2900
        assert single["corner"] > 3300 and len(corner) > 4000

    def test_iterations(self, monkeypatch):
        """Newton's steps, counted as boundary evaluations: a few per root,
        none on segment 2, and never more than the ITP search's evaluations
        on the same target."""
        seen = _checked_phi_scalar(monkeypatch)
        counts = {}
        for name, targets in (
            ("random", _random_targets(2, 3000)),
            ("corner", _corner_grid() + SLIVER_TARGETS),
        ):
            counts[name] = []
            for x, y in _solved(targets):
                seen.clear()
                t = realize_module._lower_root(x, y)
                assert 4.0 * t - 1.0 < 0.0 or not seen, (x, y, seen)  # segment 2: tau >= 0
                assert len(seen) <= _evaluations(realize_module._itp, x, y), (x, y)
                counts[name].append(len(seen))
        assert np.mean(counts["random"]) < 4 and max(counts["random"]) <= 10
        assert np.mean(counts["corner"]) < 2 and max(counts["corner"]) <= 10
        seen.clear()
        t = realize_module._lower_root(*_searched_target(*UPPER_CORNER_TARGET))
        assert 4.0 * t - 1.0 >= 0.0 and not seen

    def test_flip_rounding_targets_take_t_0(self):
        """Targets on F in floats.  The first passes ``realize``'s test of F
        (its c also rounds to 1).  The second lies just below F(x) in floats,
        with c = 1.0.  At the last two y = 1 and F(x) rounds to 1, so 1 - y
        is 0 and c cannot be formed."""
        below = _searched_target(*C_ROUNDING_TARGET)
        assert below[1] < realize_module._rho_scaled(below[0], -1.0, -1.0)
        assert (1.0 - below[0]) ** 3 / (2.0 * (1.0 - below[1]) ** 2) == 1.0
        for target in (FLIP_ROUNDING_TARGET, C_ROUNDING_TARGET, *TOP_EDGE_TARGETS):
            assert contains(target)
            assert realize_module._lower_root(*_searched_target(*target)) == 0.0, target
            _, h = realize(target)
            assert h.t == 0.0 and h.residual <= 1e-12, (target, h)

    @pytest.mark.parametrize("target", [RUN_OF_ZEROS_TARGET, UPPER_CORNER_TARGET])
    def test_corner_roots_are_within_1e_15_of_the_exact_root(self, target):
        """The float g is 0 on a run of t about 1e-12 wide at the first
        target, which fixed ITP's root only to the run (1.4e-13 away)."""
        x, y = _searched_target(*target)
        _, _, v, t = realize_module._lower_half(x, y, phi_boundary(x))
        assert v == 4.0 * t - 1.0
        with mpmath.workdps(50):
            assert abs(_exact_root(x, y, t) - mpmath.mpf(t)) <= 1e-15


def _base_shuffle(base):
    """A prototype's or a wedge's shuffle, spelled out: the decreasing
    permutation with weights (r, ..., r, 1 - (n-1)r), or the reversed piece
    of width 1 - w over the straight piece of width w."""
    if isinstance(base, Prototype):
        n, r = base.n, base.r
        return make_shuffle(
            tuple(range(n, 0, -1)), (r,) * (n - 1) + (max(0.0, 1.0 - (n - 1) * r),)
        )
    return make_shuffle((2, 1), (1.0 - base, base), (-1, 1))


_WITNESS_BASES = [
    Prototype(n, (1.0 / n + 1.0 / (n - 1)) / 2.0) for n in (2, 3, 30, 10**4, 2**15)
] + [
    0.0,
    realize_module._solve_wedge(-0.9994220307115846, -0.9993986543394635),
    math.sqrt((1.0 + -0.99999) / 2.0),
]


class TestWitness:
    """``realize`` builds its witness in one pass; it must be the shuffle
    that the ordinal sum and the flip compose, bit for bit."""

    def test_bases_cover_both_wedges(self):
        assert 0.0 < _WITNESS_BASES[-2] < 1e-2
        sh, _ = realize((-0.9994220307115846, -0.9993986543394635))
        assert sh.weights.u[-1] == (1.0 - sh.weights.u[0]) * _WITNESS_BASES[-2]

    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("s", [0.0, 0.008006733457524229, 0.3])
    @pytest.mark.parametrize("base", _WITNESS_BASES)
    def test_equals_the_composed_witness(self, base, s, flipped):
        expected = ordinal_sum_with_identity(_base_shuffle(base), s)
        if flipped:
            expected = flip(expected)
        sh, point = realize_module._witness(base, s, flipped)
        assert sh == expected
        if isinstance(base, Prototype):
            assert point == _prototype_point(base.n, base.r)
        else:
            assert point == (-1.0 + 2.0 * base * base, -1.0 + 2.0 * base**3)

