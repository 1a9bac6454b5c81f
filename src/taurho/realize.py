"""Constructing a shuffle that attains a prescribed (tau, rho) point.

Boundary points are hit exactly by *prototypes*: straight shuffles with
decreasing permutation and weights (r, ..., r, 1-(n-1)r).  Interior
points are reached by sliding along the boundary curve gamma(t) and
pulling toward (1, 1) with an ordinal sum: tau scales as 1-(1-s)^2(1-tau)
and rho as 1-(1-s)^3(1-rho), so for a fixed curve point the parameter s
is determined by the tau coordinate alone and the remaining rho residual
is a one-dimensional root-finding problem in t.  The scan works entirely
on closed forms (no shuffles are built until the root is found).

Prototypes near tau = -1 need unboundedly many pieces; construction is
capped at PROTOTYPE_N_CAP pieces.  Targets whose root would exceed the
cap sit in a hair-thin band under the image of the flip under ordinal
sums; those are realized through a two-piece near-flip family (a
reversed long piece plus a short straight piece) that covers the band
with bounded representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concordance import tau_rho
from .region import phi_boundary, segment_index
from .shuffles import (
    RegionPoint,
    Shuffle,
    flip,
    flip_shuffle,
    identity_shuffle,
    make_shuffle,
    ordinal_sum_with_identity,
)

__all__ = [
    "PROTOTYPE_N_CAP",
    "BOUNDARY_SNAP",
    "Prototype",
    "HomotopyPoint",
    "TargetOutsideRegion",
    "prototype_for_tau",
    "prototype_shuffle",
    "boundary_curve",
    "realize",
]

PROTOTYPE_N_CAP = 10_000
BOUNDARY_SNAP = 1e-7
# segment_index(x) <= N is exactly -1 + 2/N <= x, so the taus whose
# prototypes have at most PROTOTYPE_N_CAP pieces are those >= _CAP_TAU.
_CAP_TAU = -1.0 + 2.0 / PROTOTYPE_N_CAP
_CURVE_N_GUARD = 10_000_000
_SCAN_POINTS = 4096
_BISECT_TOL = 1e-13


class TargetOutsideRegion(ValueError):
    """Raised when the requested point is not in the attainable region."""


@dataclass(frozen=True)
class Prototype:
    """Parameters of a boundary-attaining shuffle: n pieces, n-1 of width r."""

    n: int
    r: float

    def __post_init__(self) -> None:
        n = int(self.n)
        r = float(self.r)
        if n < 2:
            raise ValueError(f"prototype needs n >= 2, got {n}")
        lo, hi = 1.0 / n, 1.0 / (n - 1)
        if r < lo - 1e-9 or r > hi + 1e-9:
            raise ValueError(f"prototype r={r!r} outside [{lo!r}, {hi!r}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", min(hi, max(lo, r)))


@dataclass(frozen=True)
class HomotopyPoint:
    """Where on the (s, t) homotopy a realization landed, and how close."""

    s: float
    t: float
    residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "residual", float(self.residual))
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s={self.s!r} outside [0, 1]")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t={self.t!r} outside [0, 1]")
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def prototype_for_tau(x: float) -> Prototype:
    """The prototype whose tau equals x, for x in (-1, 1].

    n is the boundary segment index of x and r solves the quadratic
    2n(n-1)r^2 - 4(n-1)r + (1-x) = 0 in [1/n, 1/(n-1)] (the + root; the
    parabola's vertex sits at r = 1/n, which also makes the tau and rho
    round-trips insensitive to the float noise of the discriminant at
    the segment endpoints).
    """
    x = float(x)
    n = segment_index(x)
    disc = 4.0 * (n - 1.0) ** 2 - 2.0 * n * (n - 1.0) * (1.0 - x)
    r = (2.0 * (n - 1.0) + math.sqrt(max(disc, 0.0))) / (2.0 * n * (n - 1.0))
    return Prototype(n, r)


def prototype_shuffle(p: Prototype) -> Shuffle:
    """Materialize a prototype: decreasing permutation, weights (r,...,r,1-(n-1)r)."""
    n, r = p.n, p.r
    last = max(0.0, 1.0 - (n - 1) * r)
    weights = (r,) * (n - 1) + (last,)
    return make_shuffle(tuple(range(n, 0, -1)), weights, (1,) * n)


def _prototype_point(n: float, r: float) -> tuple[float, float]:
    tau = 1.0 - 4.0 * (n - 1.0) * r + 2.0 * r * r * n * (n - 1.0)
    rho = 1.0 - 2.0 * r * (n - 1.0) * (3.0 - 3.0 * r * (n - 1.0) + r * r * (n - 2.0) * n)
    return tau, rho


def _clip_unit(v: float) -> float:
    return min(1.0, max(-1.0, float(v)))


def boundary_curve(t: float) -> tuple[Shuffle, RegionPoint]:
    """The closed boundary curve: prototypes for t <= 1/2, their flips after.

    Runs (−1,−1) → (1,1) along the lower boundary as t goes 0 → 1/2 and
    back along the upper boundary to (−1,−1) at t = 1.  The returned
    point is the exact closed form of the constructed prototype (its
    agreement with the measured shuffle is itself a tested fact); the
    piece count grows like 1/(2t) near t = 0 and 2/(4t-2) just past the
    seam, so measuring here would be quadratic in that count.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"boundary_curve: t={t!r} outside [0, 1]")
    if t == 0.0 or t == 1.0:
        sh = flip_shuffle()
        return sh, tau_rho(sh)
    x = 4.0 * t - 1.0 if t <= 0.5 else 4.0 * t - 3.0
    if x < -1.0 + 2.0 / _CURVE_N_GUARD:
        raise ValueError(
            f"boundary_curve: t={t!r} implies a prototype with more than "
            f"{_CURVE_N_GUARD} pieces"
        )
    proto = prototype_for_tau(x)
    sh = prototype_shuffle(proto)
    tau_c, rho_c = _prototype_point(proto.n, proto.r)
    if t > 0.5:
        sh = flip(sh)
        tau_c, rho_c = -tau_c, -rho_c
    return sh, RegionPoint(_clip_unit(tau_c), _clip_unit(rho_c))


# --- homotopy search ------------------------------------------------------

def _rho_scaled(x: float, tau_c, rho_c):
    """rho of the ordinal sum whose curve point is (tau_c, rho_c) and whose
    s is chosen so that the composed tau equals x; requires tau_c <= x."""
    ratio = (1.0 - x) / (1.0 - tau_c)
    return 1.0 - ratio**1.5 * (1.0 - rho_c)


def _g_lower(x: float, y: float, t):
    tau_c = 4.0 * np.asarray(t, dtype=float) - 1.0
    rho_c = phi_boundary(tau_c)
    return _rho_scaled(x, tau_c, rho_c) - y


def _g_upper(x: float, y: float, t):
    v = 4.0 * np.asarray(t, dtype=float) - 3.0
    tau_c = -v
    rho_c = -phi_boundary(v)
    return _rho_scaled(x, tau_c, rho_c) - y


def _rightmost_bracket(g, lo: float, hi: float, points: int):
    """Scan [lo, hi] and return the bracketing cell closest to hi, or None."""
    ts = np.linspace(lo, hi, points + 1)
    gs = np.asarray(g(ts))
    sign_change = gs[:-1] * gs[1:] <= 0.0
    idx = np.nonzero(sign_change)[0]
    if len(idx) == 0:
        return None
    i = int(idx[-1])
    return float(ts[i]), float(ts[i + 1])


def _bisect(g, a: float, b: float) -> float:
    ga = float(g(a))
    gb = float(g(b))
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    for _ in range(200):
        m = (a + b) / 2.0
        if b - a <= _BISECT_TOL:
            return m
        gm = float(g(m))
        if gm == 0.0:
            return m
        if (ga < 0.0) == (gm < 0.0):
            a, ga = m, gm
        else:
            b, gb = m, gm
    return (a + b) / 2.0


def _wedge_shuffle(w: float) -> Shuffle:
    """Near-flip two-piece shuffle: a reversed piece of width 1-w followed by
    a straight piece of width w sent to the bottom.  Exactly the flip at
    w = 0; tau = -1 + 2w^2 and rho = -1 + 2w^3 (exact algebra)."""
    return make_shuffle((2, 1), (1.0 - w, w), (-1, 1))


def _solve_wedge(x: float, y: float) -> float | None:
    def achieved(w):
        tau_c = -1.0 + 2.0 * w * w
        rho_c = -1.0 + 2.0 * w**3
        return _rho_scaled(x, tau_c, rho_c) - y

    w_hi = min(math.sqrt(max(1.0 + x, 0.0) / 2.0), 1.0 - 1e-9)
    g_lo = float(achieved(0.0))
    g_hi = float(achieved(w_hi))
    if g_lo < 0.0 or g_hi > 0.0:
        return None
    a, b = 0.0, w_hi
    for _ in range(200):
        if b - a <= 1e-15:
            break
        m = (a + b) / 2.0
        if float(achieved(m)) >= 0.0:
            a = m
        else:
            b = m
    return (a + b) / 2.0


def _ordinal_s(x: float, tau_c: float) -> float:
    ratio = (1.0 - x) / (1.0 - tau_c) if tau_c < 1.0 else 1.0
    s = 1.0 - math.sqrt(min(max(ratio, 0.0), 1.0))
    return min(1.0, max(0.0, s))


def _assemble(curve_shuffle: Shuffle, tau_c: float, x: float, t_report: float,
              tau_t: float, rho_t: float) -> tuple[Shuffle, HomotopyPoint]:
    s = _ordinal_s(x, tau_c)
    assembled = ordinal_sum_with_identity(curve_shuffle, s)
    achieved = tau_rho(assembled)
    residual = math.hypot(achieved.tau - tau_t, achieved.rho - rho_t)
    return assembled, HomotopyPoint(s, t_report, residual)


def _wedge_realize(x: float, y: float) -> tuple[Shuffle, float] | None:
    """Ordinal sum over the near-flip wedge family hitting (x, y), if it can."""
    w = _solve_wedge(x, y)
    if w is None:
        return None
    s = _ordinal_s(x, -1.0 + 2.0 * w * w)
    return ordinal_sum_with_identity(_wedge_shuffle(w), s), s


def realize(
    target: RegionPoint | tuple[float, float],
) -> tuple[Shuffle, HomotopyPoint]:
    """A shuffle whose (tau, rho) is within 1e-6 of the target point.

    The target must lie in the region (points within BOUNDARY_SNAP of the
    boundary in the rho direction are snapped onto it first).  The snap is
    wider than membership: ``BOUNDARY_SNAP`` is 1e-7 while ``contains``
    accepts only 1e-12 beyond the boundary, so ``realize`` solves some
    targets that ``contains`` rejects, replacing them by the boundary
    point at the same tau; the residual still measures from the original
    target.  Corners
    and boundary targets short-circuit to flips and prototypes; interior
    targets go through the homotopy search, scanning the upper boundary
    interval first (it keeps the underlying prototypes small), then the
    lower one, with a 16x finer rescan before giving up.  Raises
    ValueError for a NaN or infinite tau or rho, TargetOutsideRegion (a
    ValueError) for outside points, and RuntimeError with diagnostics if
    no bracket is found (which no in-region target should trigger, except
    deep in the near-corner sliver below the wedge family's reach).
    """
    if isinstance(target, RegionPoint):
        tau_t, rho_t = target.tau, target.rho
    else:
        tau_t, rho_t = float(target[0]), float(target[1])
    if not (math.isfinite(tau_t) and math.isfinite(rho_t)):
        raise ValueError(f"realize: target ({tau_t!r}, {rho_t!r}) is not finite")
    if not -1.0 - BOUNDARY_SNAP <= tau_t <= 1.0 + BOUNDARY_SNAP:
        raise TargetOutsideRegion(f"({tau_t!r}, {rho_t!r}) has tau outside [-1, 1]")
    x = min(1.0, max(-1.0, tau_t))
    y = rho_t
    lower = phi_boundary(x)
    upper = -phi_boundary(-x)
    if y < lower:
        if y < lower - BOUNDARY_SNAP:
            raise TargetOutsideRegion(
                f"({tau_t!r}, {rho_t!r}) below the lower boundary {lower!r}"
            )
        y = lower
    elif y > upper:
        if y > upper + BOUNDARY_SNAP:
            raise TargetOutsideRegion(
                f"({tau_t!r}, {rho_t!r}) above the upper boundary {upper!r}"
            )
        y = upper

    if abs(x - 1.0) <= 1e-12:
        sh = identity_shuffle()
        pt = tau_rho(sh)
        return sh, HomotopyPoint(0.0, 0.5, math.hypot(pt.tau - tau_t, pt.rho - rho_t))
    if abs(x + 1.0) <= 1e-9:
        sh = flip_shuffle()
        pt = tau_rho(sh)
        return sh, HomotopyPoint(0.0, 0.0, math.hypot(pt.tau - tau_t, pt.rho - rho_t))

    if y - lower <= 1e-12 and x >= _CAP_TAU:
        sh = prototype_shuffle(prototype_for_tau(x))
        pt = tau_rho(sh)
        return sh, HomotopyPoint(
            0.0, (1.0 + x) / 4.0, math.hypot(pt.tau - tau_t, pt.rho - rho_t)
        )
    if upper - y <= 1e-12 and -x >= _CAP_TAU:
        sh = flip(prototype_shuffle(prototype_for_tau(-x)))
        pt = tau_rho(sh)
        return sh, HomotopyPoint(
            0.0, (3.0 - x) / 4.0, math.hypot(pt.tau - tau_t, pt.rho - rho_t)
        )

    def g_up(t):
        return _g_upper(x, y, t)

    def g_lo(t):
        return _g_lower(x, y, t)

    up_lo, up_hi = (3.0 - x) / 4.0, 1.0
    lo_lo, lo_hi = 0.0, (1.0 + x) / 4.0
    for points in (_SCAN_POINTS, 16 * _SCAN_POINTS):
        bracket = _rightmost_bracket(g_up, up_lo, up_hi, points)
        if bracket is not None:
            t_star = _bisect(g_up, *bracket)
            v = 4.0 * t_star - 3.0
            if v >= _CAP_TAU:
                base = flip(prototype_shuffle(prototype_for_tau(v)))
                return _assemble(base, -v, x, t_star, tau_t, rho_t)
            # Root needs an oversized prototype: realize the point-reflected
            # target through the wedge family and flip the whole assembly.
            hit = _wedge_realize(-x, -y)
            if hit is not None:
                sh, s = hit
                sh = flip(sh)
                pt = tau_rho(sh)
                residual = math.hypot(pt.tau - tau_t, pt.rho - rho_t)
                return sh, HomotopyPoint(s, 1.0, residual)
        bracket = _rightmost_bracket(g_lo, lo_lo, lo_hi, points)
        if bracket is not None:
            t_star = _bisect(g_lo, *bracket)
            v = 4.0 * t_star - 1.0
            if v >= _CAP_TAU:
                base = prototype_shuffle(prototype_for_tau(v))
                return _assemble(base, v, x, t_star, tau_t, rho_t)
            hit = _wedge_realize(x, y)
            if hit is not None:
                sh, s = hit
                pt = tau_rho(sh)
                residual = math.hypot(pt.tau - tau_t, pt.rho - rho_t)
                return sh, HomotopyPoint(s, 0.0, residual)
    raise RuntimeError(
        f"realize: no bracket for target ({tau_t!r}, {rho_t!r}); "
        f"slice bounds [{lower!r}, {upper!r}], scan intervals "
        f"[{lo_lo!r}, {lo_hi!r}] and [{up_lo!r}, {up_hi!r}]"
    )
