"""Computations the benchmark makes apart from ``taurho`` to check its outputs.

Nothing here imports ``taurho``.  Every function works from the defining
data of a shuffle (one-line permutation, weights, signs) or from a
(tau, rho) point, so a fault in the package cannot hide itself by being
used on both sides of a comparison.

Notation: for a shuffle with pieces of widths ``u`` sent to slots
``perm`` with orientations ``signs``, ``inv`` is the measure of inverted
pairs and ``invs`` the same pairs weighted by their distance, so that
``tau = 1 - 4 inv`` and ``rho = 1 - 12 invs``.  Two distinct pieces
i < j invert exactly when ``perm[i] > perm[j]`` and then contribute
``u_i u_j`` and ``u_i u_j (mid_j - mid_i)``; a reversed piece inverts
within itself, contributing ``u^2 / 2`` and ``u^3 / 6``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "exact_tau_rho",
    "float_tau_rho",
    "lower_boundary",
    "upper_boundary",
    "classical_violation",
    "oracle_error_bound",
    "area_mpmath",
]


def exact_tau_rho(perm, weights, signs) -> tuple[Fraction, Fraction]:
    """(tau, rho) as exact fractions, after normalising the weights exactly.

    O(n^2) in Python rationals: meant for shuffles of a few dozen pieces.
    """
    u = [Fraction(float(w)) for w in weights]
    total = sum(u)
    u = [w / total for w in u]
    mids = []
    left = Fraction(0)
    for w in u:
        mids.append(left + w / 2)
        left += w
    inv = Fraction(0)
    invs = Fraction(0)
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                w = u[i] * u[j]
                inv += w
                invs += w * (mids[j] - mids[i])
    for w, e in zip(u, signs):
        if e == -1:
            inv += w * w / 2
            invs += w * w * w / 6
    return 1 - 4 * inv, 1 - 12 * invs


def float_tau_rho(perm, weights, signs) -> tuple[float, float]:
    """(tau, rho) in floating point by a bottom-up merge over positions.

    At each level every position in the right half of a block collects
    the weight (and weight times midpoint) of the positions in the left
    half that map above it, found by one sort and two binary searches
    over block-tagged keys.  O(n log^2 n) in numpy, so it checks shuffles
    of ten thousand pieces in milliseconds.
    """
    p = np.asarray(perm, dtype=np.int64)
    u = np.asarray(weights, dtype=float)
    u = u / u.sum()
    e = np.asarray(signs)
    n = len(p)
    mid = np.cumsum(u) - u / 2.0
    um = u * mid
    pos = np.arange(n)
    inv = 0.0
    invs = 0.0
    width = 1
    while width < n:
        block = pos // (2 * width)
        right = (pos // width) % 2 == 1
        left = ~right
        keys = block[left] * (n + 1) + p[left]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        cu = np.concatenate(([0.0], np.cumsum(u[left][order])))
        cum = np.concatenate(([0.0], np.cumsum(um[left][order])))
        rblock = block[right]
        lo = np.searchsorted(keys, rblock * (n + 1) + p[right], side="right")
        hi = np.searchsorted(keys, (rblock + 1) * (n + 1), side="left")
        above_u = cu[hi] - cu[lo]
        above_um = cum[hi] - cum[lo]
        inv += float(u[right] @ above_u)
        invs += float(u[right] @ (mid[right] * above_u - above_um))
        width *= 2
    rev = e == -1
    inv += float((u[rev] ** 2).sum()) / 2.0
    invs += float((u[rev] ** 3).sum()) / 6.0
    return 1.0 - 4.0 * inv, 1.0 - 12.0 * invs


def lower_boundary(x: float) -> float:
    """Least rho at tau = x, from the prototype that attains it.

    A straight shuffle with decreasing permutation and weights
    (r, ..., r, 1 - (n-1) r) inverts every pair and every triple, so
    tau = 2 p2 - 1 and rho = 2 p3 - 1 with p_k the power sums of the
    weights.  Solving p2 = (1 + x) / 2 for r on the segment
    -1 + 2/n <= x <= -1 + 2/(n-1) gives r = (1 + sqrt(1 - n(1-x)/(2(n-1)))) / n.
    """
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"lower_boundary: x={x!r} outside [-1, 1]")
    if x == -1.0:
        return -1.0
    if x >= 0.0:
        return (3.0 * x - 1.0) / 2.0
    n = max(3, math.ceil(2.0 / (1.0 + x)))
    disc = max(0.0, 1.0 - n * (1.0 - x) / (2.0 * (n - 1)))
    r = (1.0 + math.sqrt(disc)) / n
    y = max(0.0, 1.0 - (n - 1) * r)
    return 2.0 * ((n - 1) * r**3 + y**3) - 1.0


def upper_boundary(x: float) -> float:
    """Greatest rho at tau = x: the point reflection of the lower boundary."""
    return -lower_boundary(-float(x))


def classical_violation(tau: float, rho: float) -> float:
    """How far (tau, rho) breaks the classical bounds; <= 0 when it keeps them.

    Daniels: |3 tau - 2 rho| <= 1.  Durbin and Stuart:
    (1 + tau)^2 / 2 - 1 <= rho <= 1 - (1 - tau)^2 / 2.
    """
    return max(
        abs(3.0 * tau - 2.0 * rho) - 1.0,
        (1.0 + tau) ** 2 / 2.0 - 1.0 - rho,
        rho - (1.0 - (1.0 - tau) ** 2 / 2.0),
    )


def oracle_error_bound(n: int, grid_m: int) -> tuple[float, float]:
    """Bounds on |oracle - exact| for tau and rho on an m-point midpoint grid.

    The grid estimate replaces each (1/m)^2 cell of the unit square by
    its centre.  A cell is misjudged only if the inversion indicator is
    not constant on it: its column or row holds one of the n - 1 cuts
    (at most 2 (n - 1) m cells), the line h(x) = h(y) inside one piece
    crosses it (at most 2 m + 2 n cells), or it lies on the diagonal
    (m half-cells).  Where the indicator is constant, the centre gives
    the exact integral of both 1 and the linear weight y - x.  Each
    misjudged cell costs at most 1/m^2 for inv and invs alike.
    """
    err = (2.0 * (n - 1) * grid_m + 2.0 * grid_m + 2.0 * n + grid_m) / grid_m**2
    return 4.0 * err, 12.0 * err


def area_mpmath(digits: int = 50) -> float:
    """4/5 - (4/5) zeta(3) + 2 pi^2 / 15 evaluated with ``digits`` digits."""
    import mpmath

    with mpmath.workdps(digits):
        value = mpmath.mpf(4) / 5 - mpmath.mpf(4) / 5 * mpmath.zeta(3) + 2 * mpmath.pi**2 / 15
        return float(value)
