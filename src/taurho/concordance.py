"""Kendall's tau and Spearman's rho for shuffle maps.

For a measure-preserving map ``h`` the two coefficients of the copula of
``(U, h(U))`` reduce to weighted counts of inverted pairs:

* ``tau = 1 - 4 * inv`` where ``inv`` is the measure of pairs ``x < y``
  with ``h(x) > h(y)``,
* ``rho = 1 - 12 * invs`` where ``invs`` additionally weights each such
  pair by ``y - x``.

Both integrals collapse to finite sums over the pieces of a shuffle,
which is what :func:`inv_invs` evaluates.  :func:`oracle_tau_rho` is an
intentionally independent cross-check: it never looks at the piece
structure, only at point evaluations of the map on a midpoint grid.  Both
count inverted pairs with one kernel, ``_inversions``, by bottom-up merge
counting (Knight, JASA 1966) in O(n log n) time and O(n) extra memory.

The combinatorial layer (:func:`inversion_data`, :func:`ab_values`,
:func:`perturbation_coeffs`) exposes the same quantities for straight
shuffles as explicit polynomials in the weights, which is the form the
verification harness differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shuffles import Permutation, RegionPoint, Shuffle, SimplexWeights, evaluate

__all__ = [
    "inv_invs",
    "tau_rho",
    "InversionData",
    "inversion_data",
    "ab_values",
    "PerturbationCoeffs",
    "perturbation_coeffs",
    "oracle_tau_rho",
]

# Entries of the (levels x n) arrays of one merge pass: small inputs run
# several levels per pass, larger ones one level, so memory stays O(n).
_PASS_ELEMENTS = 1 << 12


def _inversions(keys, u, x) -> tuple[float, float]:
    """``sum u_i u_j`` and ``sum u_i u_j (x_j - x_i)`` over inverted pairs.

    A pair ``i < j`` is inverted when ``keys[i] > keys[j]``; the keys are
    distinct integers.  Each pair is counted at the level ``l`` of the
    highest bit in which ``i`` and ``j`` differ, where they share a block of
    ``2^(l+1)`` positions with ``i`` in its left half and ``j`` in its
    right half.  Sorting each block by descending key turns the weight of
    the left-half elements above each right-half element into a cumulative
    sum within the block.  Each stable sort starts from the order the
    previous pass left, so it merges sorted runs.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.size
    if n < 2:
        return 0.0, 0.0
    span = int(keys.max() - keys.min()) + 1
    ux = u * x
    pos = np.arange(n)
    prev = pos
    depth = (n - 1).bit_length()
    per_pass = max(1, _PASS_ELEMENTS // n)
    inv = invs = 0.0
    for lo in range(0, depth, per_pass):
        lv = np.arange(lo, min(lo + per_pass, depth))[:, None]
        start = pos & -(2 << lv)
        # sort key: block, then descending key
        merge = (prev & -(2 << lv)) * span - keys[prev]
        order = prev[np.argsort(merge, axis=1, kind="stable")]
        prev = order[-1]
        left = order < start + (1 << lv)  # from the block's left half
        first = start + n * (lv - lo)  # flat index of the block's start
        w = u[order]
        wx = ux[order]
        lw = w * left
        lwx = wx * left
        a = lw.cumsum(axis=1)
        b = lwx.cumsum(axis=1)
        # weight of the left-half entries above each entry of its block
        a -= (a - lw).take(first)
        b -= (b - lwx).take(first)
        w -= lw  # keep the right half
        wx -= lwx
        inv += (w * a).sum()
        invs += (wx * a).sum() - (w * b).sum()
    return float(inv), float(invs)


def inv_invs(shuffle: Shuffle) -> tuple[float, float]:
    """Plain and position-weighted inversion measures of a shuffle.

    Pairs of distinct pieces invert exactly when the permutation inverts
    them, contributing ``u_i * u_j`` to ``inv`` and additionally the
    distance between the piece midpoints to ``invs``.  A reversed piece
    inverts within itself: ``u_i^2 / 2`` and ``u_i^3 / 6``.

    Runs in O(n log n) time and O(n) extra memory (see ``_inversions``).
    """
    u = shuffle.weights.as_array()
    e = np.asarray(shuffle.signs)
    inv, invs = _inversions(shuffle.perm.images, u, np.cumsum(u) - u / 2.0)

    rev = e == -1
    if rev.any():
        inv += float((u[rev] ** 2).sum()) / 2.0
        invs += float((u[rev] ** 3).sum()) / 6.0
    return inv, invs


def tau_rho(shuffle: Shuffle) -> RegionPoint:
    """Exact (tau, rho) of a shuffle."""
    inv, invs = inv_invs(shuffle)
    return RegionPoint(1.0 - 4.0 * inv, 1.0 - 12.0 * invs)


@dataclass(frozen=True)
class InversionData:
    """Inverted pairs and cyclically-descending triples of a permutation.

    ``pairs`` holds the (i, j), i < j, with ``perm(i) > perm(j)``.
    ``triples`` holds the (i, j, k), i < j < k, whose image pattern is one
    of the three cyclic rotations of a strict descent: 321, 213 or 132
    read as relative order.  Both use 1-based positions.
    """

    pairs: frozenset[tuple[int, int]]
    triples: frozenset[tuple[int, int, int]]


def inversion_data(perm: Permutation) -> InversionData:
    n = perm.n
    img = perm.images
    pairs = frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if img[i - 1] > img[j - 1]
    )
    triples = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                a, b, c = img[i - 1], img[j - 1], img[k - 1]
                if (a > b > c) or (b > c > a) or (c > a > b):
                    triples.append((i, j, k))
    return InversionData(pairs, frozenset(triples))


def _weights_array(u, n: int) -> np.ndarray:
    if isinstance(u, SimplexWeights):
        arr = u.as_array()
    else:
        arr = np.asarray(u, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {arr.shape}")
    return arr


def ab_values(perm: Permutation, u) -> tuple[float, float]:
    """The pair and triple weight polynomials of a straight shuffle.

    ``a = sum u_i u_j`` over inverted pairs and ``b = sum u_i u_j u_k``
    over the cyclic-descent triples.  For simplex weights on a straight
    shuffle these determine both coefficients: ``tau = 1 - 4a`` and
    ``rho = 1 - 6(a - b)``.  Here they are evaluated as formal
    polynomials, so ``u`` is not required to be normalised (the
    perturbation checks feed in off-simplex points on purpose).
    """
    arr = _weights_array(u, perm.n)
    data = inversion_data(perm)
    a = 0.0
    for i, j in sorted(data.pairs):
        a += arr[i - 1] * arr[j - 1]
    b = 0.0
    for i, j, k in sorted(data.triples):
        b += arr[i - 1] * arr[j - 1] * arr[k - 1]
    return a, b


@dataclass(eq=False)
class PerturbationCoeffs:
    """Taylor data of ``a`` and ``b`` along a direction in the simplex.

    With ``delta`` summing to zero, the exact finite expansions are::

        a(u + t*delta) = a(u) + t*alpha1 + t^2*alpha2
        b(u + t*delta) = b(u) + t*beta1  + t^2*beta2  + t^3*beta3

    ``a_vec``, ``b_vec`` and ``c_mat`` are the raw gradients/curvatures
    the five scalars contract against (``c_mat`` is symmetric with zero
    diagonal and only its upper triangle enters ``beta2``).
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    beta3: float
    a_vec: np.ndarray
    b_vec: np.ndarray
    c_mat: np.ndarray


def perturbation_coeffs(perm: Permutation, u, delta) -> PerturbationCoeffs:
    n = perm.n
    arr = _weights_array(u, n)
    d = np.asarray(delta, dtype=float)
    if d.shape != (n,):
        raise ValueError(f"delta must have shape ({n},), got {d.shape}")
    if abs(float(d.sum())) > 1e-12:
        raise ValueError(f"delta must sum to zero, got {float(d.sum())!r}")

    data = inversion_data(perm)
    a_vec = np.zeros(n)
    for i, j in data.pairs:
        a_vec[i - 1] += arr[j - 1]
        a_vec[j - 1] += arr[i - 1]
    b_vec = np.zeros(n)
    c_mat = np.zeros((n, n))
    for i, j, k in data.triples:
        b_vec[i - 1] += arr[j - 1] * arr[k - 1]
        b_vec[j - 1] += arr[i - 1] * arr[k - 1]
        b_vec[k - 1] += arr[i - 1] * arr[j - 1]
        c_mat[i - 1, j - 1] += arr[k - 1]
        c_mat[i - 1, k - 1] += arr[j - 1]
        c_mat[j - 1, k - 1] += arr[i - 1]
    c_mat = c_mat + c_mat.T

    alpha1 = float(a_vec @ d)
    alpha2 = 0.0
    for i, j in data.pairs:
        alpha2 += d[i - 1] * d[j - 1]
    beta1 = float(b_vec @ d)
    beta2 = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            beta2 += c_mat[i, j] * d[i] * d[j]
    beta3 = 0.0
    for i, j, k in data.triples:
        beta3 += d[i - 1] * d[j - 1] * d[k - 1]
    return PerturbationCoeffs(
        alpha1=alpha1,
        alpha2=float(alpha2),
        beta1=beta1,
        beta2=float(beta2),
        beta3=float(beta3),
        a_vec=a_vec,
        b_vec=b_vec,
        c_mat=c_mat,
    )


def oracle_tau_rho(shuffle: Shuffle, grid_m: int = 2000) -> RegionPoint:
    """Grid estimate of (tau, rho) using only point evaluations of the map.

    Places ``grid_m`` midpoints, evaluates the shuffle at each, and counts
    inverted pairs (for tau) and their x-distances (for rho) in
    O(m log m).  Ties in the evaluated heights are treated as concordant,
    matching stable sorting.  The error of either estimate decays like
    ``O(pieces / grid_m)``, so this is a cross-check, not an exact value.
    """
    m = int(grid_m)
    if m < 2:
        raise ValueError(f"grid_m must be >= 2, got {grid_m}")
    xs = (np.arange(m) + 0.5) / m
    hv = evaluate(shuffle, xs)

    ranks = np.empty(m, dtype=np.int64)
    ranks[np.argsort(hv, kind="stable")] = np.arange(m)
    inv, invs = _inversions(ranks, np.ones(m), xs)

    inv_est = inv / (m * m)
    invs_est = invs / (m * m)
    return RegionPoint(1.0 - 4.0 * inv_est, 1.0 - 12.0 * invs_est)
