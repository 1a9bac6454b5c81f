"""Boundary functions, membership, and area of the attainable region."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from taurho import (
    APERY,
    RegionPoint,
    area_closed_form,
    area_quadrature,
    boundary_samples,
    classical_area_quadrature,
    classical_contains,
    classical_rho_bounds,
    contains,
    phi_boundary,
    segment_index,
    theta,
    varphi,
)
from taurho import region


def _loop_segment_index(x: float) -> int:
    """Reference finder: min{k >= 2 : -1 + 2/k <= x} by unit steps from the
    real-arithmetic ceiling.  Exact, but it takes one step per float
    junction that rounds onto x, so it is slow below 1 + x of about 1e-9."""
    n = max(2, math.ceil(2.0 / (1.0 + x)))
    while n > 2 and x >= -1.0 + 2.0 / (n - 1):
        n -= 1
    while -1.0 + 2.0 / n > x:
        n += 1
    return n


def _bisect_segment_index(x: np.ndarray) -> np.ndarray:
    """Reference finder: min{k >= 2 : -1 + 2/k <= x} for every x in
    (-1, 1) by bisection on k, in int64 since k reaches about 1.2e16 at
    the float just above -1."""
    lo = np.ones(x.shape, dtype=np.int64)  # -1 + 2/1 = 1 > x
    hi = np.full(x.shape, 2**55, dtype=np.int64)  # -1 + 2**-54 rounds to -1
    while np.any(hi - lo > 1):
        mid = (lo + hi) >> 1
        right = -1.0 + 2.0 / mid <= x
        np.copyto(hi, mid, where=right)
        np.copyto(lo, mid, where=~right)
    return hi


def _ulps(a, b) -> np.ndarray:
    """How many float64 steps apart a and b are (-0.0 and 0.0 count as one)."""

    def key(v):
        i = np.asarray(v, dtype=float).view(np.int64)
        return np.where(i < 0, -(i & 0x7FFF_FFFF_FFFF_FFFF), i)

    return np.abs(key(a) - key(b))


class TestSegmentIndex:
    @pytest.mark.parametrize(
        "x,n",
        [
            (0.5, 2),
            (1.0, 2),
            (0.0, 2),
            (-1 / 3, 3),  # junction: ties go to the smaller segment
            (-0.33, 3),
            (-0.34, 4),
            (-0.5, 4),
            (-0.55, 5),
            (-1 + 2 / 17, 17),
            (-0.999, 2000),
        ],
    )
    def test_values(self, x, n):
        assert segment_index(x) == n

    def test_domain(self):
        with pytest.raises(ValueError):
            segment_index(-1.0)
        with pytest.raises(ValueError):
            segment_index(1.0000001)

    def test_matches_reference_loop_on_log_grid(self):
        xs = -1.0 + np.logspace(-9, math.log10(2.0), 2000)
        expected = np.array([_loop_segment_index(float(x)) for x in xs])
        np.testing.assert_array_equal(region._segments(xs), expected)
        below_one = xs < 1.0
        np.testing.assert_array_equal(
            _bisect_segment_index(xs[below_one]), expected[below_one]
        )
        assert [segment_index(float(x)) for x in xs] == list(expected)

    def test_matches_reference_loop_at_junctions(self):
        ks = np.arange(2, 100_001)
        xs = -1.0 + 2.0 / ks
        expected = np.array([_loop_segment_index(float(x)) for x in xs])
        np.testing.assert_array_equal(region._segments(xs), expected)
        assert [segment_index(float(x)) for x in xs] == list(expected)

    def test_one_unit_step_matches_bisection(self):
        """The start plus one unit step is the index on every float up to
        -1 + 1e-12, where the docstring's bound gives out, and on
        every junction -1 + 2/k with k < 2e6 and its lower neighbour."""
        corner = -1.0 + np.arange(1, 9008) * 2.0**-53
        assert corner[-1] == -1.0 + 1e-12
        expected = _bisect_segment_index(corner)
        np.testing.assert_array_equal(region._segments(corner), expected)
        assert [segment_index(float(x)) for x in corner] == list(expected)
        for ks in np.array_split(np.arange(2, 2_000_000), 8):
            junctions = -1.0 + 2.0 / ks
            for xs in (junctions, np.nextafter(junctions, -1.0)):
                np.testing.assert_array_equal(
                    region._segments(xs), _bisect_segment_index(xs)
                )

    @pytest.mark.parametrize(
        "x", [-1.0 + 1e-11, -1.0 + 3e-13, float(np.nextafter(-1.0, 0.0))]
    )
    def test_brackets_its_segment_next_to_the_corner(self, x):
        n = segment_index(x)
        assert -1.0 + 2.0 / n <= x < -1.0 + 2.0 / (n - 1)
        assert region._segments(np.array([x]))[0] == n
        assert _bisect_segment_index(np.array([x]))[0] == n

    def test_brackets_its_segment(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-1 + 1e-9, 1, 3000):
            n = segment_index(float(x))
            assert -1 + 2 / n <= x or n == 2
            if n > 2:
                assert x < -1 + 2 / (n - 1)


class TestPhi:
    def test_anchors(self):
        assert phi_boundary(-1.0) == -1.0
        assert phi_boundary(1.0) == 1.0
        assert phi_boundary(0.0) == pytest.approx(-0.5, abs=1e-15)
        assert phi_boundary(-1 / 3) == pytest.approx(-7 / 9, abs=1e-14)

    def test_linear_on_last_segment(self):
        xs = np.linspace(0, 1, 50)
        np.testing.assert_allclose(phi_boundary(xs), -0.5 + 1.5 * xs, atol=1e-14)

    def test_sharp_points(self):
        for n in range(2, 51):
            x = -1 + 2 / n
            assert phi_boundary(x) == pytest.approx(-1 + 2 / n**2, abs=1e-12)

    def test_junction_continuity(self):
        """Adjacent segment formulas agree where they meet."""
        for n in range(3, 51):
            x = -1 + 2 / (n - 1)
            left = phi_boundary(x - 1e-13)
            right = phi_boundary(x + 1e-13)
            assert left == pytest.approx(right, abs=1e-11)

    def test_monotone_increasing(self):
        xs = np.linspace(-1, 1, 10_001)
        ys = phi_boundary(xs)
        assert np.all(np.diff(ys) > -1e-13)

    def test_monotone_down_to_the_corner(self):
        """Non-decreasing on a log grid down to 1 + x = 1e-15, up to the
        float error of the segment formula.  That error reaches about two
        ulps, so neighbouring values can step down by 1.5 * 2**-52 where
        the curve is flatter than an ulp per grid step."""
        xs = -1.0 + np.logspace(-15, math.log10(2.0), 20_001)
        ys = phi_boundary(xs[xs <= 1.0])
        assert np.all(np.diff(ys) >= -2.0 * np.spacing(1.0))

    def test_concave_within_segments(self):
        for n in range(2, 51):
            lo = -1 + 2 / n
            hi = -1 + 2 / (n - 1) if n > 2 else 1.0
            a = lo + (hi - lo) * 0.2
            b = lo + (hi - lo) * 0.8
            mid = (a + b) / 2
            assert phi_boundary(mid) >= (phi_boundary(a) + phi_boundary(b)) / 2 - 1e-13

    def test_concave_on_every_segment_exactly(self):
        """Where excess = n(1 + x) - 2 > 0, segment n >= 3 of the code's
        formula has d^2/dx^2 = -(3/4) coef n^2 excess^(-1/2), with coef =
        (n - 2)/(sqrt(2) n^2 sqrt(n - 1)).  In sympy, the second derivative
        over n^2 excess^(-1/2) is free of x, matches -(3/4) coef to float
        precision and is negative for every n = m + 3, m >= 0; segment 2 is
        linear."""
        n, x = sp.symbols("n x")
        m, e = sp.symbols("m e", positive=True)
        phi = region._phi_segment_value(n, x, sp.sqrt, lambda excess, zero: excess)
        second = sp.diff(phi, x, 2).subs(x, (e + 2) / n - 1)  # excess = e
        ratio = sp.simplify(second * sp.sqrt(e) / n**2)
        assert ratio.free_symbols == {n}
        coef = (n - 2) / (sp.sqrt(2) * n**2 * sp.sqrt(n - 1))
        for k in (3, 4, 10, 1000):
            assert abs(ratio.subs(n, k) / (-sp.Rational(3, 4) * coef.subs(n, k)) - 1) <= 4 * 2.0**-52
        assert sp.factor(ratio.subs(n, m + 3)).is_negative
        assert sp.diff(phi.subs(n, 2), x, 2) == 0

    def test_below_the_diagonal_exactly(self):
        """Phi(x) < x < -Phi(-x) on (-1, 1), so the lower boundary stays
        below the upper one except at the corners.  On segment n, on
        [-1 + 2/n, -1 + 2/(n - 1)], the code's formula is a line l_n minus
        coef * excess^(3/2) with coef >= 0, so Phi <= l_n there; l_n(x) - x
        is linear, -2(n - 1)/n^2 at the left end and -4/n^2 + 2(3 - n)/(n(n -
        1)) at the right end, negative except at the right end of segment 2,
        x = 1.  So Phi(x) < x, and -Phi(-x) > x, for x in (-1, 1).  Decided in
        sympy on ``_phi_segment_value``, its float constants made rational
        (1/sqrt(2) to 15 digits, a positive factor of coef)."""
        n, x = sp.symbols("n x")
        m = sp.Symbol("m", integer=True, nonnegative=True)
        e = sp.Symbol("e", positive=True)  # the excess
        phi = sp.nsimplify(region._phi_segment_value(n, x, sp.sqrt, lambda excess, zero: e), rational=True)
        line = phi.subs(e, 0)
        coef = sp.simplify((line - phi) / e ** sp.Rational(3, 2))
        assert coef.free_symbols == {n}
        assert sp.factor(coef.subs(n, m + 2)).is_nonnegative
        left = sp.simplify(line.subs(x, -1 + 2 / n) - (-1 + 2 / n))
        right = sp.simplify(line.subs(x, -1 + 2 / (n - 1)) - (-1 + 2 / (n - 1)))
        assert sp.simplify(left + 2 * (n - 1) / n**2) == 0
        assert sp.simplify(right - (-4 / n**2 + 2 * (3 - n) / (n * (n - 1)))) == 0
        assert sp.factor(left.subs(n, m + 2)).is_negative
        assert right.subs(n, 2) == 0 and sp.factor(right.subs(n, m + 3)).is_negative

    def test_scalar_and_array_agree(self):
        xs = np.linspace(-1, 1, 257)
        ys = phi_boundary(xs)
        scalar = [phi_boundary(float(x)) for x in xs]
        assert _ulps(scalar, ys).max() <= 1

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_boundary(-1.001)
        with pytest.raises(ValueError):
            phi_boundary(np.array([0.0, 1.01]))


class TestVarphiTheta:
    def test_anchors(self):
        assert varphi(0.0) == 0.0
        assert varphi(0.5) == pytest.approx(1 / 6, abs=1e-15)
        assert varphi(0.25) == pytest.approx(1 / 8, abs=1e-14)
        assert varphi(1 / 3) == pytest.approx((1 / 3 - 1 / 27) / 2, abs=1e-14)

    def test_linear_below_quarter(self):
        xs = np.linspace(0, 0.25, 40)
        np.testing.assert_allclose(varphi(xs), xs / 2, atol=1e-15)

    def test_theta_is_x_minus_two_varphi(self):
        xs = np.linspace(0, 0.5, 501)
        np.testing.assert_allclose(theta(xs), xs - 2 * varphi(xs), atol=1e-16)

    def test_theta_anchors(self):
        assert theta(1 / 3) == pytest.approx(1 / 27, abs=1e-14)
        assert theta(0.5) == pytest.approx(1 / 6, abs=1e-14)
        assert np.all(theta(np.linspace(0, 0.25, 20)) == 0.0)

    def test_duality_with_phi(self):
        """The two boundary coordinates describe one curve: on a dense
        grid, phi(x) = 1 - 12*varphi((1 - x)/4)."""
        xs = np.linspace(-1, 1, 2001)
        np.testing.assert_allclose(
            phi_boundary(xs), 1 - 12 * varphi((1 - xs) / 4), atol=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            varphi(-0.01)
        with pytest.raises(ValueError):
            varphi(0.51)

    def test_array_mask_at_half(self):
        out = varphi(np.array([0.5, 0.5, 0.1]))
        assert out[0] == out[1] == pytest.approx(1 / 6, abs=1e-15)


# --- the scalar path and exact references --------------------------------


def _zero_d_phi(x: float) -> float:
    """phi_boundary(x) as numpy evaluated a 0-d input before the math path."""
    return float(region._phi(np.clip(np.asarray(x, dtype=float), -1.0, 1.0)))


def _zero_d_varphi(u: float) -> float:
    """varphi(u) as numpy evaluated a 0-d input before the math path."""
    arr = np.clip(np.asarray(u, dtype=float), 0.0, 0.5)
    return float(np.where(arr <= 0.25, arr / 2.0, (1.0 - region._phi(1.0 - 4.0 * arr)) / 12.0))


def _zero_d_phis(xs: np.ndarray) -> np.ndarray:
    """_zero_d_phi at every x, several times faster.  The segment comes
    from the array finder, whose integers do not depend on the shape, and
    the segment formula runs on numpy float64 scalars, as on a 0-d input."""
    xs = np.clip(xs, -1.0, 1.0)
    ns = region._segments(np.where(xs == -1.0, 0.0, xs)).astype(float)
    return np.array([
        -1.0 if x == -1.0 else float(region._phi_segment_value(n, x))
        for n, x in zip(ns, xs)
    ])


def _zero_d_varphis(us: np.ndarray) -> np.ndarray:
    """_zero_d_varphi at every u; outside the inner phi every operation is
    one correctly rounded step, the same on arrays and on scalars."""
    us = np.clip(us, 0.0, 0.5)
    out = us / 2.0
    high = us > 0.25
    out[high] = (1.0 - _zero_d_phis(1.0 - 4.0 * us[high])) / 12.0
    return out


def _point_sets() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(phi points, varphi points) per set; the varphi points other than
    the uniform ones are the phi points mapped by u = (1 - x)/4."""
    rng = np.random.default_rng(2024)
    junctions = -1.0 + 2.0 / np.arange(2, 10_001)
    xs = {
        "log grid": -1.0 + np.logspace(-15, math.log10(2.0), 5_001),
        "junctions": np.concatenate(
            [junctions, np.nextafter(junctions, -2.0), np.nextafter(junctions, 2.0)]
        ),
        # with the ends of the domain's slack, which are clipped
        "anchors": np.array([-1.0 - 1e-13, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.0 + 1e-13]),
    }
    sets = {k: (v, (1.0 - v) / 4.0) for k, v in xs.items()}
    sets["uniform"] = (rng.uniform(-1.0, 1.0, 100_000), rng.uniform(0.0, 0.5, 100_000))
    phis, us = sets["anchors"]
    sets["anchors"] = (phis, np.concatenate([us, [-1e-13, -0.0, 0.0, 0.25, 0.5, 0.5 + 1e-13]]))
    return sets


_POINT_SETS = _point_sets()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


class TestScalarPath:
    """Scalars take the math path; it must give the bits of numpy's 0-d
    evaluation, which the helpers above keep as the reference."""

    def test_reference_is_the_zero_d_evaluation(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.choice(xs, 300) for xs, _ in _POINT_SETS.values()])
        us = np.concatenate([rng.choice(us, 300) for _, us in _POINT_SETS.values()])
        assert _same_bits(_zero_d_phis(xs), [_zero_d_phi(x) for x in xs])
        assert _same_bits(_zero_d_varphis(us), [_zero_d_varphi(u) for u in us])

    @pytest.mark.parametrize("name", list(_POINT_SETS))
    def test_bit_identical_to_zero_d_numpy(self, name):
        xs, us = _POINT_SETS[name]
        phis = [phi_boundary(float(x)) for x in xs]
        varphis = [varphi(float(u)) for u in us]
        thetas = [theta(float(u)) for u in us]
        assert all(type(v) is float for v in phis + varphis + thetas)
        assert _same_bits(phis, _zero_d_phis(xs))
        ref = _zero_d_varphis(us)
        assert _same_bits(varphis, ref)
        assert _same_bits(thetas, us - 2.0 * ref)

    def test_scalar_and_array_paths_are_bit_identical(self):
        """phi_boundary, varphi and theta give the same bits on a float as on
        an array, on 10^5 uniform inputs and the log grid down to the
        corner: both paths take the 3/2 power as excess * sqrt(excess)."""
        xs, us = (np.concatenate([_POINT_SETS["uniform"][i], _POINT_SETS["log grid"][i]]) for i in (0, 1))
        xs, us = np.clip(xs, -1.0, 1.0), np.clip(us, 0.0, 0.5)
        assert _same_bits([phi_boundary(x) for x in xs.tolist()], phi_boundary(xs))
        for fn in (varphi, theta):
            assert _same_bits([fn(u) for u in us.tolist()], fn(us))

    def test_numpy_scalars_and_0d_arrays_take_it(self):
        for x in (np.float64(-0.7), np.array(-0.7), np.float32(-0.7)):
            assert phi_boundary(x) == phi_boundary(float(x))
            assert type(phi_boundary(x)) is float
            assert type(theta(x / -2.0)) is float

    @pytest.mark.parametrize(
        "fn,x,message",
        [
            (phi_boundary, math.nan, "phi_boundary: argument outside [-1, 1]"),
            (phi_boundary, math.inf, "phi_boundary: argument outside [-1, 1]"),
            (phi_boundary, -math.inf, "phi_boundary: argument outside [-1, 1]"),
            (phi_boundary, -1.001, "phi_boundary: argument outside [-1, 1]"),
            (phi_boundary, np.array(1.01), "phi_boundary: argument outside [-1, 1]"),
            (varphi, math.nan, "varphi: argument outside [0, 1/2]"),
            (varphi, math.inf, "varphi: argument outside [0, 1/2]"),
            (varphi, -0.01, "varphi: argument outside [0, 1/2]"),
            (theta, math.nan, "varphi: argument outside [0, 1/2]"),
            (theta, -math.inf, "varphi: argument outside [0, 1/2]"),
            (theta, np.float64(0.51), "varphi: argument outside [0, 1/2]"),
        ],
    )
    def test_domain_errors(self, fn, x, message):
        with pytest.raises(ValueError) as err:
            fn(x)
        assert str(err.value) == message


def _exact_boundary(x: float) -> mpmath.mpf:
    """Phi(x) to 50 digits, for x in (-1, 1], from the prototype of x's
    segment n (found in rationals): its tau 1 - 4(n-1)r + 2n(n-1)r^2
    solved for r >= 1/n, then its rho."""
    n = max(2, math.ceil(2 / (1 + Fraction(x))))
    m = n - 1
    with mpmath.workdps(50):
        r = (2 * m + mpmath.sqrt(4 * m * m - 2 * n * m * (1 - mpmath.mpf(x)))) / (2 * n * m)
        return 1 - 2 * r * m * (3 - 3 * r * m + r * r * (n - 2) * n)


def _worst_ulps(xs: np.ndarray) -> float:
    """The largest error of phi_boundary at xs, on the scalar and on the
    array path, in ulps of the exact value."""
    exact = [_exact_boundary(float(x)) for x in xs]
    scalar = [phi_boundary(float(x)) for x in xs]
    with mpmath.workdps(50):
        return max(
            float(abs(mpmath.mpf(float(v)) - e)) / math.ulp(float(e))
            for values in (scalar, phi_boundary(xs))
            for v, e in zip(values, exact)
        )


class TestExactReferences:
    def test_corner_points(self):
        ns = np.arange(2, 10_001)
        for n in ns.tolist():
            # The prototype at the corner -1 + 2/n has r = 1/n exactly.
            r, m = Fraction(1, n), n - 1
            assert 1 - 4 * m * r + 2 * n * m * r * r == Fraction(2, n) - 1
            rho = 1 - 2 * r * m * (3 - 3 * r * m + r * r * (n - 2) * n)
            assert rho == Fraction(2, n * n) - 1
        assert _worst_ulps(-1.0 + 2.0 / ns) <= 3.0

    def test_three_halves_power_arcs(self):
        ns = np.arange(3, 1_001)
        lo, hi = -1.0 + 2.0 / ns, -1.0 + 2.0 / (ns - 1)
        xs = np.concatenate([lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)])
        assert _worst_ulps(xs) <= 3.0

    def test_apery_is_zeta_3(self):
        with mpmath.workdps(50):
            assert APERY == float(mpmath.zeta(3))

    def test_area_closed_form(self):
        with mpmath.workdps(50):
            exact = mpmath.mpf(4) / 5 * (1 - mpmath.zeta(3)) + 2 * mpmath.pi**2 / 15
            assert abs(area_closed_form() - exact) <= 1e-15


class TestContains:
    @pytest.mark.parametrize(
        "p,expected",
        [
            ((0.0, 0.0), True),
            ((-1 / 3, -7 / 9), True),  # boundary point counts
            ((0.9, -0.9), False),
            ((1.0, 1.0), True),
            ((-1.0, -1.0), True),
            ((0.0, 0.51), False),
            ((0.0, -0.51), False),
            ((1.5, 1.0), False),  # tau outside [-1, 1] is never clamped in
            ((-3.0, -1.0), False),
            ((math.nan, -1.0), False),
            ((math.inf, 1.0), False),
            ((1 + 5e-13, 1.0), True),  # within the 1e-12 tolerance
        ],
    )
    def test_membership(self, p, expected):
        assert contains(p) is expected

    def test_accepts_region_point(self):
        assert contains(RegionPoint(0.2, 0.3)) is True

    def test_point_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = rng.uniform(-1, 1, 2)
            assert contains((x, y)) == contains((-x, -y))


class TestClassicalRegion:
    def test_membership(self):
        assert classical_contains((0.0, -0.5)) is True
        assert classical_contains((0.5, 0.0)) is False

    def test_bounds_at_zero(self):
        lo, hi = classical_rho_bounds(0.0)
        assert lo == pytest.approx(-0.5) and hi == pytest.approx(0.5)

    def test_bounds_at_half(self):
        lo, hi = classical_rho_bounds(0.5)
        assert lo == pytest.approx(0.25)     # Daniels line is the binding one
        assert hi == pytest.approx(0.875)    # Durbin-Stuart caps the top

    def test_non_finite_tau_is_rejected(self):
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="classical_rho_bounds: tau=.* is not finite"):
                classical_rho_bounds(tau)
        assert classical_rho_bounds(np.array(0.5)) == classical_rho_bounds(np.float32(0.5)) == (0.25, 0.875)

    def test_membership_stays_a_predicate_for_nan(self):
        for p in ((math.nan, 0.0), (0.0, math.nan)):
            assert classical_contains(p) is False
            assert contains(p) is False

    @pytest.mark.parametrize(
        "p,shown",
        [((0.2,), "target (0.2,) is not"), (("0.2", 0.1), "tau must be a real"), ((0.2, True), "rho must be a real")],
    )
    def test_points_are_read_by_one_reader(self, p, shown):
        for predicate in (contains, classical_contains):
            with pytest.raises(ValueError, match=re.escape(f"{predicate.__name__}: {shown}")):
                predicate(p)

    def test_exact_region_is_inside(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(10_000, 2))
        for x, y in pts:
            if contains((x, y)):
                assert classical_contains((x, y))


class TestBoundarySamples:
    def test_three_rows(self):
        rows = boundary_samples(3)
        np.testing.assert_allclose(
            rows,
            [[-1, -1, -1], [0, -0.5, 0.5], [1, 1, 1]],
            atol=1e-15,
        )

    def test_columns_order(self):
        rows = boundary_samples(33)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-15)
        assert np.all(np.diff(rows[:, 0]) > 0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            boundary_samples(1)

    def test_k_must_be_an_integer(self):
        """A bool or a non-integral k is rejected by name, not truncated;
        numpy integers pass."""
        for k in (2.9, 3.0, True):
            with pytest.raises(ValueError, match="^k "):
                boundary_samples(k)
        assert np.array_equal(boundary_samples(np.int64(5)), boundary_samples(5))


class TestArea:
    def test_closed_form_value(self):
        v = area_closed_form()
        assert v == pytest.approx(
            4 / 5 - (4 / 5) * APERY + (2 / 15) * math.pi**2, abs=1e-15
        )
        assert round(v, 4) == 1.1543

    def test_quadrature_matches(self):
        closed = area_closed_form()
        for tol in np.logspace(-13.0, -6.0, 29):
            assert abs(area_quadrature(tol) - closed) <= tol, tol

    def test_quadrature_looser_tolerance(self):
        assert abs(area_quadrature(1e-6) - area_closed_form()) <= 1e-5

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            area_quadrature(0.0)
        with pytest.raises(ValueError):
            area_quadrature(-1e-8)
        with pytest.raises(ValueError):
            area_quadrature(1e-14)
        with pytest.raises(ValueError, match="tol must be > 0, got nan"):
            area_quadrature(math.nan)
        with pytest.raises(ValueError, match="tol must be > 0, got nan"):
            classical_area_quadrature(math.nan)

    def test_infinite_tol_is_rejected(self):
        for quadrature in (area_quadrature, classical_area_quadrature):
            with pytest.raises(ValueError, match="tol must be finite, got inf"):
                quadrature(math.inf)

    def test_classical_area_is_seven_sixths(self):
        assert abs(classical_area_quadrature(1e-10) - 7 / 6) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 100, 1000])
    def test_segment_rule_is_exact(self, n):
        """The 3-node rule on segment n, between the float64 ends the
        quadrature uses, against the segment's antiderivative to 50 digits."""
        a = -1.0 + 2.0 / n
        h = (-1.0 + 2.0 / (n - 1)) - a
        value = region._panel_sum(phi_boundary, np.array([a]), np.array([h]))
        with mpmath.workdps(50):
            k, lo, hi = mpmath.mpf(n), mpmath.mpf(a), mpmath.mpf(a) + mpmath.mpf(h)
            coef = (k - 2) / (mpmath.sqrt(2) * k**2 * mpmath.sqrt(k - 1))

            def antiderivative(x):
                excess = max(k * (1 + x) - 2, 0)
                return (
                    (-1 - 4 / k**2 + 3 / k) * x + 3 * x**2 / (2 * k)
                    - coef * excess**2.5 / (mpmath.mpf(5) / 2 * k)
                )

            exact = antiderivative(hi) - antiderivative(lo)
            assert abs(value - exact) <= 4 * 2.0**-52 * abs(exact)

    @pytest.mark.parametrize(
        "exponent,shift,sign",
        [(1.4, 0, 1.0), (1.5, 1, 1.0), (1.5, 0, -1.0)],
        ids=["exponent 1.4", "3/(n+1)", "coef sign"],
    )
    def test_segment_mutants_move_the_area(self, monkeypatch, exponent, shift, sign):
        def mutant(n, x, sqrt=np.sqrt, maximum=np.maximum):
            linear = -1.0 - 4.0 / n**2 + 3.0 / (n + shift) + 3.0 * x / n
            excess = maximum(n * (1.0 + x) - 2.0, 0.0)
            coef = sign * (n - 2.0) / (math.sqrt(2.0) * n**2 * sqrt(n - 1.0))
            return linear - coef * excess**exponent

        monkeypatch.setattr(region, "_phi_segment_value", mutant)
        assert abs(area_quadrature(1e-10) - area_closed_form()) >= 1e-3


def _prototype_segment():
    """Segment n of Phi as the prototype point (tau(r), rho(r)), r in
    [1/n, 1/(n-1)], in sympy (the parametrisation of _exact_boundary);
    r = (n - 1 + w)/(n(n - 1)) runs over it as w runs over [0, 1]."""
    n, r = sp.symbols("n r", positive=True)
    tau = 1 - 4 * (n - 1) * r + 2 * n * (n - 1) * r**2
    rho = 1 - 2 * r * (n - 1) * (3 - 3 * r * (n - 1) + r**2 * (n - 2) * n)
    return n, r, tau, rho


def _corner_remainder(N: int) -> mpmath.mpf:
    """2 * sum over k > N of the segment gaps 2(3k-1)/(15 k^3 (k-1)^3), to
    50 digits: their partial fractions 2/(5(k-1)) - 2/(5k) telescope to
    2/(5N), and the others sum to Hurwitz zeta values."""
    with mpmath.workdps(50):
        z, N = mpmath.zeta, mpmath.mpf(N)
        return 2 * (2 / (5 * N) - 2 * z(2, N) / 5 + 4 * z(3, N) / 15 + 2 * z(3, N + 1) / 15)


class TestCornerBound:
    """The premises and the size of area_quadrature's corner remainder,
    the area between Phi and the Durbin-Stuart parabola (1+x)^2/2 - 1 on
    [-1, -1 + 2/N], counted twice."""

    def test_phi_lies_above_the_parabola(self):
        """rho - ((1+tau)^2/2 - 1) = 2r(n-1)(nr-1)^2(1-(n-1)r): positive
        inside every segment and zero at its ends, the corners
        (-1 + 2/n, -1 + 2/n^2) and (-1 + 2/(n-1), -1 + 2/(n-1)^2)."""
        n, r, tau, rho = _prototype_segment()
        gap = rho - ((1 + tau) ** 2 / 2 - 1)
        assert sp.expand(gap - 2 * r * (n - 1) * (n * r - 1) ** 2 * (1 - (n - 1) * r)) == 0
        for end, m in ((1 / n, n), (1 / (n - 1), n - 1)):
            assert sp.simplify(tau.subs(r, end) - (-1 + 2 / m)) == 0
            assert sp.simplify(rho.subs(r, end) - (-1 + 2 / m**2)) == 0
        p, k = sp.symbols("p k", positive=True)  # n = p + 2 >= 2, w = 1/(1+k) in (0, 1)
        inside = {r: (n - 1 + 1 / (1 + k)) / (n * (n - 1))}
        assert sp.factor(gap.subs(inside).subs(n, p + 2)).is_positive
        assert sp.factor(gap.subs(inside).subs(n, 2)).is_positive

    def test_phi_increases_on_every_segment(self):
        """dtau/dr = 4(n-1)(nr-1) > 0 inside the segment, and
        dPhi/dtau = (3/2)(1 - (n-2)r) >= 3/(2(n-1)) on all of it."""
        n, r, tau, rho = _prototype_segment()
        slope = sp.Rational(3, 2) * (1 - (n - 2) * r)
        assert sp.expand(sp.diff(tau, r) - 4 * (n - 1) * (n * r - 1)) == 0
        assert sp.expand(sp.diff(rho, r) - slope * sp.diff(tau, r)) == 0
        w = sp.Symbol("w", nonnegative=True)
        on_segment = slope.subs(r, (n - 1 + w) / (n * (n - 1))) - sp.Rational(3, 2) / (n - 1)
        # (3/2)(1 - w)(n - 2)/(n(n - 1)) >= 0 for w in [0, 1]
        assert sp.simplify(on_segment - sp.Rational(3, 2) * (1 - w) * (n - 2) / (n * (n - 1))) == 0

    def test_corner_remainder_is_within_the_bound(self):
        """The gap integrates to 2(3n-1)/(15 n^3 (n-1)^3) over segment n, so
        the remainder at N lies in [0, 4/N^4] (the docstring's bound), and
        it is all of area_quadrature's error but rounding."""
        n, r, tau, rho = _prototype_segment()
        gap = rho - ((1 + tau) ** 2 / 2 - 1)
        integral = sp.integrate(sp.expand(gap * sp.diff(tau, r)), (r, 1 / n, 1 / (n - 1)))
        assert sp.simplify(integral - 2 * (3 * n - 1) / (15 * n**3 * (n - 1) ** 3)) == 0
        partial_fractions = (
            2 / (5 * (n - 1)) - 2 / (5 * n)
            - 2 / (5 * (n - 1) ** 2) + 4 / (15 * (n - 1) ** 3) + 2 / (15 * n**3)
        )
        assert sp.simplify(integral - partial_fractions) == 0
        for N in (2, 3, 10, 59, 1862, 3310):
            assert 0 < _corner_remainder(N) <= mpmath.mpf(4) / N**4, N
        with mpmath.workdps(50):
            exact = mpmath.mpf(4) / 5 * (1 - mpmath.zeta(3)) + 2 * mpmath.pi**2 / 15
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-13):
            N = math.ceil((12.0 / tol) ** 0.25)
            expected = float(exact + _corner_remainder(N))
            assert abs(area_quadrature(tol) - expected) <= 1e-15, tol


def _exact_segment(m: int, x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Segment m of Phi at a rational x in its range as (L, c, D) with
    value L - c*sqrt(D): coef*excess^1.5 = (m-2)excess/m^2 * sqrt(excess/(2(m-1)))."""
    excess = m * (1 + x) - 2
    linear = -1 - Fraction(4, m * m) + Fraction(3, m) + 3 * x / m
    return linear, (m - 2) * excess / (m * m), excess / (2 * (m - 1))


class TestExactShape:
    """Two claims of the abstract, decided in rationals: Phi is continuous,
    and the region is not convex."""

    def test_segments_meet_at_the_corners(self):
        """At every junction x = -1 + 2/n, n <= 10^4, segments n and n + 1
        of the code both give -1 + 2/n^2 to within 4 * 2**-53, on the
        scalar and on the array path (2.3 * 2**-53 seen)."""
        ns = np.arange(2, 10_001)
        xs = -1.0 + 2.0 / ns
        bound = Fraction(4, 2**53)
        for m in (ns, ns + 1):
            values = region._phi_segment_value(m.astype(float), xs)
            for n, k, x, v in zip(ns.tolist(), m.tolist(), xs.tolist(), values.tolist()):
                exact = -1 + Fraction(2, n * n)
                assert abs(Fraction(v) - exact) <= bound, (n, k)
                scalar = region._phi_segment_value(float(k), x, math.sqrt, max)
                assert abs(Fraction(scalar) - exact) <= bound, (n, k)

    def test_midpoint_of_adjacent_corners_lies_below_phi(self):
        """For n = 2..200 the midpoint of the corners (-1 + 2/n, -1 + 2/n^2)
        and (-1 + 2/(n+1), -1 + 2/(n+1)^2) lies on segment n + 1, where
        Phi - chord = A - c*sqrt(D) with A, c, D rational; it is > 0 since
        A > 0 and A^2 > c^2 D.  The code's Phi there agrees with the
        rational form to 4 * 2**-53, and ``contains`` rejects the point."""
        for n in range(2, 201):
            x = -1 + Fraction(1, n) + Fraction(1, n + 1)
            y = -1 + Fraction(1, n * n) + Fraction(1, (n + 1) ** 2)
            assert segment_index(float(x)) == n + 1
            linear, c, d = _exact_segment(n + 1, x)
            a = linear - y
            assert c > 0 and a > 0 and a * a > c * c * d, n

            xf = float(x)
            linear, c, d = _exact_segment(n + 1, Fraction(xf))
            with mpmath.workdps(50):
                exact = mpmath.mpf(linear.numerator) / linear.denominator - (
                    mpmath.mpf(c.numerator) / c.denominator
                    * mpmath.sqrt(mpmath.mpf(d.numerator) / d.denominator)
                )
                assert abs(phi_boundary(xf) - exact) <= 4 * 2.0**-53, n
            assert not contains((xf, float(y))), n


@settings(derandomize=True, max_examples=300)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_lower_boundary_never_exceeds_upper(x):
    assert phi_boundary(x) <= -phi_boundary(-x) + 1e-15
