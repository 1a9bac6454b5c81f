"""Constructing a shuffle that attains a prescribed (tau, rho) point.

Boundary points are hit exactly by *prototypes*: straight shuffles with
decreasing permutation and weights (r, ..., r, 1-(n-1)r).  Interior
points are reached by sliding along the boundary curve gamma(t) and
pulling toward (1, 1) with an ordinal sum: tau scales as 1-(1-s)^2(1-tau)
and rho as 1-(1-s)^3(1-rho), so for a fixed curve point the parameter s
is determined by the tau coordinate alone and the remaining rho residual
is a one-dimensional root-finding problem in t.  The solve works
entirely on closed forms (no shuffles are built until the root is found),
and so does the certificate's residual, which the tests hold to the
witness's measured ``tau_rho`` within 1e-12.

Only the lower half is solved.  The ordinal sums of the flip, gamma(0),
trace the flip curve F(x) = 1 - 2((1-x)/2)^1.5; a target above F is
mirrored to (-x, -y), which lies on or below F, and the assembly for it
is flipped.  For a target (x, y) on or below F the residual
g(t) = 1 - (1-x)^1.5 h(4t-1) - y, where h(tau) = (1 - Phi(tau))/(1-tau)^1.5
strictly increases on [-1, 1), has one root, solved on its segment n.  At
tau_k = -1 + 2/k, Phi is -1 + 2/k^2, so h(tau_k) <= (1-y)/(1-x)^1.5 exactly
when c(k+1)^2 <= k(k-1), c = (1-x)^3/(2(1-y)^2): n = max(2, ceil(k)) for k
the quadratic's larger root, and c >= 1 puts the target on F (t = 0).
Segment 2 gives 1 - tau = 4.5c; any other, safeguarded Newton steps on
log h.  A boundary target takes t = (1+x)/4.  From the root's tau v, the
base under the ordinal sum follows three rules:

1. if the prototype at v has more than PROTOTYPE_N_CAP pieces, the
   two-piece near-flip wedge solved exactly for the target, if there is
   one, its w bisected on the sign of the rho residual;
2. else the prototype at v, if it has at most 2**15 pieces;
3. else (the sliver under the slid wedge curve) the wedge of the same
   tau v, whose rho lies less than 3.4e-7 above the lower boundary for
   1 + v < 2**-14.

The wedge of rule 1 comes before the large prototypes of rule 2 because
a wedge has two pieces: building and validating the witness takes about
50 us for a prototype of 10^4 pieces and 370 us for one of 2^15, against
15 us for a wedge (timeit, best of 5, on a 2-core Intel Xeon), while a
typical call of ``realize`` takes about 40 us.  The solve returns only
the base's parameters; the witness (ordinal sum, and flip for a mirrored
target) is built and validated once, from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .region import _coords, _phi_scalar, phi_boundary, segment_index
from .shuffles import (
    RegionPoint,
    Shuffle,
    _integer,
    _real,
    flip_shuffle,
    identity_shuffle,
    make_shuffle,
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
# Past the wedge family's reach, prototypes of up to 2**15 pieces; below
# that tau the same-tau wedge is closer to the boundary than 3.4e-7.
_SLIVER_TAU = -1.0 + 2.0 / 2**15
_CURVE_N_GUARD = 10_000_000
_ROOT_TOL = 1e-13


class TargetOutsideRegion(ValueError):
    """Raised when the requested point is not in the attainable region."""


@dataclass(frozen=True)
class Prototype:
    """Parameters of a boundary-attaining shuffle: n pieces, n-1 of width r."""

    n: int
    r: float

    def __post_init__(self) -> None:
        n, r = _integer("prototype n", self.n), _real("prototype r", self.r)
        if n < 2:
            raise ValueError(f"prototype needs n >= 2, got {n}")
        lo, hi = 1.0 / n, 1.0 / (n - 1)
        if not lo - 1e-9 <= r <= hi + 1e-9:
            raise ValueError(f"prototype r={r!r} outside [{lo!r}, {hi!r}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", min(hi, max(lo, r)))


@dataclass(frozen=True)
class HomotopyPoint:
    """Where on the (s, t) homotopy a realization landed, and how close.

    The shuffle is the ordinal sum with share s (the identity on [0, s])
    over a base shuffle: the prototype at curve parameter t (see
    ``boundary_curve``), whose tau is v = 4t - 1; in the sliver, the
    near-flip wedge of that tau; or, reported at t = 0 and v = -1, the
    near-flip wedge solved exactly for the target.  For a target above
    the flip curve the shuffle is the flip of the lower-half solution for
    (-x, -y): s is that solution's share and t = (3 + v)/4 the curve
    parameter of its flipped base point.  The residual is the distance
    from the original target of the witness's closed-form (tau, rho); the
    tests hold it to within 1e-12 of the measured distance.
    """

    s: float
    t: float
    residual: float

    def __post_init__(self) -> None:
        for name in ("s", "t", "residual"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
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
    return _witness(p, 0.0, False)[0]


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
    t = _real("boundary_curve: t", t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"boundary_curve: t={t!r} outside [0, 1]")
    if t == 0.0 or t == 1.0:
        return flip_shuffle(), RegionPoint(-1.0, -1.0)
    x = 4.0 * t - 1.0 if t <= 0.5 else 4.0 * t - 3.0
    if x < -1.0 + 2.0 / _CURVE_N_GUARD:
        raise ValueError(
            f"boundary_curve: t={t!r} implies a prototype with more than "
            f"{_CURVE_N_GUARD} pieces"
        )
    sh, (tau_c, rho_c) = _witness(prototype_for_tau(x), 0.0, t > 0.5)
    if t > 0.5:
        tau_c, rho_c = -tau_c, -rho_c
    return sh, RegionPoint(_clip_unit(tau_c), _clip_unit(rho_c))


# --- homotopy solve -------------------------------------------------------

def _rho_scaled(x: float, tau_c, rho_c):
    """rho of the ordinal sum whose curve point is (tau_c, rho_c) and whose
    s is chosen so that the composed tau equals x; requires tau_c <= x.
    At (tau_c, rho_c) = (-1, -1) it is the flip curve F(x)."""
    ratio = (1.0 - x) / (1.0 - tau_c)
    return 1.0 - ratio**1.5 * (1.0 - rho_c)


def _lower_root(x: float, y: float) -> float:
    """The root t of g for Phi(x) < y <= F(x), 0 on F.  Newton starts at -1 + 2/k,
    the lattice parabola's root (at the shared end where rounding puts ceil(k) a
    segment off), and stops at a step under 1e-8 of the segment: t within 2e-16."""
    c = (1.0 - x) ** 3 / (2.0 * (1.0 - y) ** 2) if y < _rho_scaled(x, -1.0, -1.0) else 1.0
    if c >= 1.0:  # on F by realize's own test (y may be 1, so 1 - y is 0), or after rounding
        return 0.0
    k = (1.0 + 2.0 * c + math.sqrt(1.0 + 8.0 * c)) / (2.0 * (1.0 - c))
    n = max(2, math.ceil(k))
    if n == 2:
        return 0.5 - 1.125 * c
    a, b, log_h = -1.0 + 2.0 / n, -1.0 + 2.0 / (n - 1), math.log((1.0 - y) / (1.0 - x) ** 1.5)
    tau, tol, step = min(b, max(a, -1.0 + 2.0 / k)), 1e-8 * (b - a) + 2.0**-52, 1.0
    bend = 1.5 * (n - 2.0) / (math.sqrt(2.0) * n * math.sqrt(n - 1.0))
    while abs(step) > tol:
        phi = _phi_scalar(tau)
        f = math.log((1.0 - phi) / (1.0 - tau) ** 1.5) - log_h
        a, b = (tau, b) if f < 0.0 else (a, tau)
        dphi = 3.0 / n - bend * math.sqrt(max(n * (1.0 + tau) - 2.0, 0.0))
        step = f / (1.5 / (1.0 - tau) - dphi / (1.0 - phi))
        tau -= step
        if abs(step) > tol and not a < tau < b:  # bisect, until no float is inside
            tau = (a + b) / 2.0
            step = step if a < tau < b else 0.0
    return (1.0 + tau) / 4.0


def _wedge_point(w: float) -> tuple[float, float]:
    return -1.0 + 2.0 * w * w, -1.0 + 2.0 * w**3


def _solve_wedge(x: float, y: float) -> float | None:
    def achieved(w):
        return _rho_scaled(x, *_wedge_point(w)) - y

    w_hi = min(math.sqrt(max(1.0 + x, 0.0) / 2.0), 1.0 - 1e-9)
    if achieved(0.0) < 0.0 or achieved(w_hi) > 0.0:
        return None
    # Bisect w on the residual's sign alone: near its root achieved rounds
    # to 0 on a run of w, and the root taken is the run's right end (to
    # _ROOT_TOL), not whichever midpoint first lands inside the run.
    a, b = 0.0, w_hi
    while b - a > _ROOT_TOL:
        m = (a + b) / 2.0
        if achieved(m) >= 0.0:
            a = m
        else:
            b = m
    return (a + b) / 2.0


def _ordinal_s(x: float, tau_c: float) -> float:
    """The share s that takes tau_c to x, for tau_c <= x < 1."""
    return 1.0 - math.sqrt(min(max((1.0 - x) / (1.0 - tau_c), 0.0), 1.0))


def _lower_half(x: float, y: float, lower: float) -> tuple[Prototype | float, float, float, float]:
    """(base, s, v, t) for a target with lower <= y <= F(x) and |x| < 1: the
    ordinal sum with share s over the base (a prototype, or a wedge's w) of
    tau v = 4t - 1; t is (1+x)/4 on the boundary, else ``_lower_root``'s."""
    v, t = x, (1.0 + x) / 4.0
    if y - lower > 1e-12:
        t = _lower_root(x, y)
        v = 4.0 * t - 1.0
    w = _solve_wedge(x, y) if v < _CAP_TAU else None
    if w is not None:
        return w, _ordinal_s(x, _wedge_point(w)[0]), -1.0, 0.0
    base = prototype_for_tau(v) if v >= _SLIVER_TAU else math.sqrt((1.0 + v) / 2.0)
    return base, _ordinal_s(x, v), v, t


def _witness(
    base: Prototype | float, s: float, flipped: bool
) -> tuple[Shuffle, tuple[float, float]]:
    """The ordinal sum with share s over the base, flipped if asked, built
    and validated once; and the base's closed-form (tau, rho).  A float
    base w is the near-flip wedge: a reversed piece of width 1-w, then a
    straight piece of width w sent to the bottom, exactly the flip at
    w = 0, with tau = -1 + 2w^2 and rho = -1 + 2w^3.  The entries are the
    bits of ``flip(ordinal_sum_with_identity(base, s))``: the same single
    multiplies by q = 1 - s, and the bare base for s = 0."""
    q, k, e = 1.0 - s, int(s > 0.0), -1 if flipped else 1
    if isinstance(base, Prototype):
        n, r = base.n, base.r
        last, point = max(0.0, 1.0 - (n - 1) * r), _prototype_point(n, r)
    else:
        n, r, last, point = 2, 1.0 - base, base, _wedge_point(base)
    # empty and fill, not np.full, whose Python wrapper costs more at a few pieces
    weights, signs = np.empty(n + k), np.empty(n + k, dtype=np.int8)
    weights.fill(q * r)
    signs.fill(e)
    weights[:k], weights[-1] = s, q * last
    signs[k] = e if isinstance(base, Prototype) else -e
    perm = np.arange(n + 2 * k, k, -1)  # ends n + k, ..., k + 1
    perm[:k] = 1  # the identity piece
    if flipped:
        perm = n + k + 1 - perm
    return make_shuffle(perm, weights, signs), point


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
    target, to the witness's closed-form (tau, rho).

    Corners give the identity and the flip.  Any other target (x, y) is
    solved in the lower half, on or below the flip curve
    F(x) = 1 - 2((1-x)/2)^1.5: a target above F is mirrored to (-x, -y),
    which lies on or below F since F(x) >= x >= -F(-x), and the whole
    assembly is flipped.  Every point that ``contains`` accepts is
    realized.  Raises ValueError for a target that is not a pair of real
    numbers (a bool or a str is not one), for a NaN or infinite tau or rho,
    and TargetOutsideRegion (a ValueError) for outside points.
    """
    tau_t, rho_t = _coords(target, "realize")
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
        sh, s, t, base = identity_shuffle(), 0.0, 0.5, (1.0, 1.0)
    elif abs(x + 1.0) <= 1e-9:
        sh, s, t, base = flip_shuffle(), 0.0, 0.0, (-1.0, -1.0)
    elif y > _rho_scaled(x, -1.0, -1.0):
        found, s, v, _ = _lower_half(-x, -y, -upper)
        sh, base = _witness(found, s, True)
        t, tau_t, rho_t = (3.0 + v) / 4.0, -tau_t, -rho_t
    else:
        found, s, _, t = _lower_half(x, y, lower)
        sh, base = _witness(found, s, False)
    tau_c = 1.0 - (1.0 - s) ** 2 * (1.0 - base[0])
    rho_c = 1.0 - (1.0 - s) ** 3 * (1.0 - base[1])
    return sh, HomotopyPoint(s, t, math.hypot(tau_c - tau_t, rho_c - rho_t))
