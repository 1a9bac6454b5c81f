"""The attainable (tau, rho) region for shuffles and its boundary.

The lower boundary is a piecewise function ``Phi`` built from countably
many segments indexed by ``n >= 2``; segment ``n`` lives on
``[-1 + 2/n, -1 + 2/(n-1)]`` and carries a 3/2-power correction term, so
the curve is C^1 away from the segment junctions and has a corner in its
second derivative at each junction.  The upper boundary is the point
reflection ``-Phi(-x)``.  The same curve in inversion coordinates is
``varphi`` (with ``inv`` on the x-axis and ``invs`` on the y-axis), and
``theta(x) = x - 2*varphi(x)`` is the minimal triple weight ``b``
compatible with a given pair weight ``a`` — the quantity the main
inequality of the verification harness bounds from below.

The segment of x in (-1, 1] is n = min{k >= 2 : -1 + 2/k <= x}, with
-1 + 2/k in float64, so a junction -1 + 2/n goes to the smaller index n
and x in [0, 1] gives 2.  ``segment_index`` and ``phi_boundary`` share
one finder for it; ``varphi`` and ``theta`` follow from ``phi_boundary``.

Membership tests use closed-region semantics with a 1e-12 tolerance:
boundary points belong to the region.

A query takes one of two paths, chosen by the input's shape.  A 0-d
input (a float, a numpy scalar or a 0-d array) is converted with
``float`` and evaluated with ``math`` on Python floats and ints, and
gives a float; ``contains`` and per-sample ``theta`` calls take this
path, and ``realize``'s root solve calls its ``_phi_scalar`` directly.
An array goes through numpy elementwise, for ``boundary_samples``, the
quadrature and the main-inequality sweep.  Both paths run the same
correctly rounded operations (the 3/2 power is taken as
``excess * sqrt(excess)``) in the same order, so they give the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .shuffles import RegionPoint, _integer, _scalar

__all__ = [
    "APERY",
    "segment_index",
    "phi_boundary",
    "varphi",
    "theta",
    "contains",
    "classical_contains",
    "classical_rho_bounds",
    "boundary_samples",
    "area_closed_form",
    "area_quadrature",
    "classical_area_quadrature",
]

# Apery's constant zeta(3), to 20 significant digits; the quadrature in
# area_quadrature provides the independent numeric check of any formula
# using it.
APERY = 1.2020569031595942854

_MEMBERSHIP_TOL = 1e-12
_DOMAIN_SLACK = 1e-12


def _segments(x: np.ndarray) -> np.ndarray:
    """The segment index of every x in (-1, 1], as int64.

    -1 + 2/k rounds to the nearest float, so the index is
    N = min{k >= 2 : fl(2/k) <= 1 + x + 2**-54} (ties aside), and
    T(1 - u) <= N < T(1 + u) + 1 for T = 2/(1 + x + 2**-54) and
    u = 2**-53.  The start ceil(fl(T)) takes at most three roundings, so
    it lies in [T(1 - 3u), T(1 + 3u) + 1), and the two differ by less
    than 1 + 4uT <= 1 + 2**-50/(1 + x).  For 1 + x > 1e-12 rounding moves
    the start by under 1e-3 of a step, so one unit step settles the
    index; the tests check every float with 1 + x <= 1e-12.
    """
    n = np.maximum(np.ceil(2.0 / (1.0 + x + 2.0**-54)), 2.0).astype(np.int64)
    down = (n > 2) & (-1.0 + 2.0 / (n - 1) <= x)
    up = -1.0 + 2.0 / n > x
    return n - down + up


def _segment_scalar(x: float) -> int:
    """``_segments`` for one float in (-1, 1], in Python ints: the same
    start and unit step."""
    n = max(math.ceil(2.0 / (1.0 + x + 2.0**-54)), 2)
    if n > 2 and -1.0 + 2.0 / (n - 1) <= x:
        return n - 1
    if -1.0 + 2.0 / n > x:
        return n + 1
    return n


def segment_index(x: float) -> int:
    """The n >= 2 whose boundary segment [-1+2/n, -1+2/(n-1)) contains x.

    Ties at shared endpoints resolve to the smaller n; x in [0, 1] gives 2.
    """
    x = float(x)
    if not -1.0 < x <= 1.0:
        raise ValueError(f"segment_index: x={x!r} outside (-1, 1]")
    return _segment_scalar(x)


def _phi_segment_value(n, x, sqrt=np.sqrt, maximum=np.maximum):
    """Segment n's closed form at x, for arrays or, given ``math.sqrt``
    and ``max``, for floats."""
    linear = -1.0 - 4.0 / n**2 + 3.0 / n + 3.0 * x / n
    excess = maximum(n * (1.0 + x) - 2.0, 0.0)
    coef = (n - 2.0) / (math.sqrt(2.0) * n**2 * sqrt(n - 1.0))  # 0 for n = 2
    return linear - coef * (excess * sqrt(excess))


def _phi(x: np.ndarray) -> np.ndarray:
    """phi_boundary on values already in [-1, 1], without checks."""
    at_corner = x == -1.0
    safe = np.where(at_corner, 0.0, x)
    n = _segments(safe).astype(float)
    return np.where(at_corner, -1.0, _phi_segment_value(n, safe))


def _phi_scalar(x: float) -> float:
    """``_phi`` for one float already in [-1, 1]."""
    if x == -1.0:
        return -1.0
    return _phi_segment_value(float(_segment_scalar(x)), x, math.sqrt, max)


def _checked(x, lo: float, hi: float, message: str):
    """x as a float (any 0-d input) or a float array, rejected with
    ``message`` unless within _DOMAIN_SLACK of [lo, hi], then clipped."""
    if isinstance(x, float) or np.ndim(x) == 0:
        v = float(x)
        if not lo - _DOMAIN_SLACK <= v <= hi + _DOMAIN_SLACK:
            raise ValueError(message)
        return min(max(v, lo), hi)  # keeps -0.0, as np.clip does
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= lo - _DOMAIN_SLACK) & (arr <= hi + _DOMAIN_SLACK)):
        raise ValueError(message)
    return np.clip(arr, lo, hi)


def phi_boundary(x):
    """Lower boundary of the region at tau = x, for x in [-1, 1].

    Strictly increasing, with phi_boundary(-1) = -1 and
    phi_boundary(1) = 1; on [0, 1] it is the line -1/2 + 3x/2.  A 0-d
    input is evaluated in ``math`` and returns a float; an array goes
    through numpy, with the same bits.
    """
    x = _checked(x, -1.0, 1.0, "phi_boundary: argument outside [-1, 1]")
    return _phi_scalar(x) if isinstance(x, float) else _phi(x)


def varphi(x):
    """Maximal invs compatible with inv = x, for x in [0, 1/2].

    Equals x/2 on [0, 1/4] and 1/6 at x = 1/2; in between it is the
    segmented 3/2-power curve mirroring phi_boundary in inversion
    coordinates: varphi(x) = (1 - phi_boundary(1 - 4x)) / 12.
    """
    x = _checked(x, 0.0, 0.5, "varphi: argument outside [0, 1/2]")
    # x/2 is the identity's exact value on [0, 1/4]; taking it directly
    # keeps theta exactly zero there.
    if isinstance(x, float):
        return x / 2.0 if x <= 0.25 else (1.0 - _phi_scalar(1.0 - 4.0 * x)) / 12.0
    return np.where(x <= 0.25, x / 2.0, (1.0 - _phi(1.0 - 4.0 * x)) / 12.0)


def theta(x):
    """theta(x) = x - 2*varphi(x): the least b attainable at a = x.

    Vanishes on [0, 1/4], is non-decreasing, and reaches 1/6 at x = 1/2.
    """
    v = varphi(x)
    return (float(x) if isinstance(v, float) else np.asarray(x, dtype=float)) - 2.0 * v


def _real(name: str, value) -> float:
    """value as a float: a real number, a numpy scalar or a 0-d array of
    one, but not a bool or a str; an error names the argument."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    return _scalar(name, value, float)


def _coords(p, name: str) -> tuple[float, float]:
    """(tau, rho) of a RegionPoint or of a pair read by ``_real``; the one
    reader of a point, for ``name``'s errors."""
    if isinstance(p, RegionPoint):
        return p.tau, p.rho
    try:
        t, r = p
    except (TypeError, ValueError):
        raise ValueError(f"{name}: target {p!r} is not a (tau, rho) pair") from None
    return _real(f"{name}: tau", t), _real(f"{name}: rho", r)


def contains(p) -> bool:
    """Closed-region membership: |tau| <= 1 and Phi(tau) <= rho <= -Phi(-tau),
    each up to 1e-12.

    Accepts a RegionPoint or a (tau, rho) pair of real numbers; NaN gives
    False, and a bool, a str or a wrong length raises ValueError.
    """
    t, r = _coords(p, "contains")
    if not -1.0 - _MEMBERSHIP_TOL <= t <= 1.0 + _MEMBERSHIP_TOL:
        return False
    t = min(max(t, -1.0), 1.0)
    return _phi_scalar(t) - _MEMBERSHIP_TOL <= r <= -_phi_scalar(-t) + _MEMBERSHIP_TOL


def _classical_bounds(t):
    """The classical lower/upper rho bounds at tau = t, on floats or arrays:
    Daniels' band |3t - 2rho| <= 1 intersected with the Durbin-Stuart
    envelope (1+t)^2/2 - 1 <= rho <= 1 - (1-t)^2/2."""
    lower = np.maximum((3.0 * t - 1.0) / 2.0, (1.0 + t) ** 2 / 2.0 - 1.0)
    upper = np.minimum((3.0 * t + 1.0) / 2.0, 1.0 - (1.0 - t) ** 2 / 2.0)
    return lower, upper


def classical_rho_bounds(tau: float) -> tuple[float, float]:
    """The classical lower/upper rho bounds at a given tau, as floats.

    Combines the linear band |3*tau - 2*rho| <= 1 with the quadratic
    envelope (1+tau)^2/2 - 1 <= rho <= 1 - (1-tau)^2/2.  Raises ValueError
    for a NaN or infinite tau.
    """
    tau = _real("classical_rho_bounds: tau", tau)
    if not math.isfinite(tau):
        raise ValueError(f"classical_rho_bounds: tau={tau!r} is not finite")
    lower, upper = _classical_bounds(tau)
    return float(lower), float(upper)


def classical_contains(p) -> bool:
    """Membership in the classical region (both textbook bounds, tol 1e-12)."""
    t, r = _coords(p, "classical_contains")
    lower, upper = _classical_bounds(t)
    return bool(lower - _MEMBERSHIP_TOL <= r <= upper + _MEMBERSHIP_TOL)


def boundary_samples(k: int) -> np.ndarray:
    """(k, 3) array of rows (tau, rho_lower, rho_upper), tau equispaced in [-1, 1]."""
    k = _integer("k", k)
    if k < 2:
        raise ValueError(f"boundary_samples: k must be >= 2, got {k}")
    taus = np.linspace(-1.0, 1.0, k)
    lower = phi_boundary(taus)
    upper = -phi_boundary(-taus)
    return np.column_stack([taus, lower, upper])


def area_closed_form() -> float:
    """Closed-form area of the region: 4/5 - (4/5)*zeta(3) + (2/15)*pi^2."""
    return 4.0 / 5.0 - (4.0 / 5.0) * APERY + (2.0 / 15.0) * math.pi**2


# Nodes and weights of the 3-node Gauss-Legendre rule on [0, 1]; the
# weights carry the factor 2s of dx = 2h s ds.
_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_WEIGHTS = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0]) * 2.0 * _NODES


def _panel_sum(f, a: np.ndarray, h: np.ndarray) -> float:
    """Sum over the panels [a, a + h] of the integral of f, each taken as
    the integral over s in [0, 1] of f(a + h s^2) 2h s by the 3-node
    Gauss-Legendre rule, which is exact when f(a + h s^2) s is a
    polynomial in s of degree at most 5."""
    x = a[:, None] + h[:, None] * _NODES**2
    return float(np.sum(h * (f(x) @ _WEIGHTS)))


def _checked_tol(name: str, tol) -> float:
    """tol as a float, rejected unless it is > 0 and finite."""
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError(f"{name}: tol must be > 0, got {tol!r}")
    if tol == math.inf:
        raise ValueError(f"{name}: tol must be finite, got {tol!r}")
    return tol


def area_quadrature(tol: float) -> float:
    """Area of the region by exact quadrature of the boundary segments.

    The upper boundary is -Phi(-x), so the area is -2 times the integral
    of Phi over [-1, 1].  On segment n, Phi is a line minus
    c_n (n(1+x) - 2)^1.5; from its left end a = -1 + 2/n, x = a + h s^2
    (h the segment's width) makes n(1+x) - 2 = n h s^2, so ``_panel_sum``
    integrates segments 2, ..., N exactly (segment 2 is [0, 1]).

    On the corner [-1, -1 + 2/N] Phi is replaced by the Durbin-Stuart
    parabola (1+x)^2/2 - 1, whose integral there is -2/N + 4/(3N^3).  Phi
    lies on or above it, and both increase, so on segment k > N the gap
    is at most Phi(-1 + 2/(k-1)) - ((1 + (-1 + 2/k))^2/2 - 1) =
    2/(k-1)^2 - 2/k^2, over a width of 2/(k(k-1)).  That product,
    4(2k - 1)/(k^3 (k-1)^3), falls short of 2/(k-1)^4 - 2/k^4 by
    (4k - 2)/(k^4 (k-1)^4), so the gaps sum to at most 2/N^4, and the
    area's error lies in [0, 4/N^4].  With N = ceil((12/tol)^(1/4)) that
    is at most tol/3, leaving the rest of tol to rounding; tol = 1e-12
    gives N = 1,862.
    """
    tol = _checked_tol("area_quadrature", tol)
    if tol < 1e-13:
        raise ValueError("area_quadrature: tol below 1e-13 exceeds float64 resolution")
    n_cut = math.ceil((12.0 / tol) ** 0.25)
    edges = -1.0 + 2.0 / np.arange(1.0, n_cut + 1.0)  # 1, 0, ..., -1 + 2/N
    corner = -2.0 / n_cut + 4.0 / (3.0 * n_cut**3)
    return -2.0 * (_panel_sum(phi_boundary, edges[1:], edges[:-1] - edges[1:]) + corner)


def _classical_width(x: np.ndarray) -> np.ndarray:
    lower, upper = _classical_bounds(x)
    return upper - lower


def classical_area_quadrature(tol: float) -> float:
    """Area of the classical region (exactly 7/6) by the same rule.

    The width is quadratic on [-1, 0] and on [0, 1], so one panel each
    integrates it exactly; tol is only validated.
    """
    _checked_tol("classical_area_quadrature", tol)
    return _panel_sum(_classical_width, np.array([-1.0, 0.0]), np.array([1.0, 1.0]))
