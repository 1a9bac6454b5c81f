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
verification harness differentiates.  All three read one incidence,
``_incidence``: which lex-ordered position pairs are inverted and which
triples are cyclic descents, for one permutation or a stack of them.
The polynomials are contractions of weight products with it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .shuffles import Permutation, RegionPoint, Shuffle, SimplexWeights, _integer, _reals, evaluate

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
_SUM_BLOCK = 256


def _prefix_sum(a: np.ndarray) -> np.ndarray:
    """``a.cumsum(axis=-1)``; rows longer than ``_PASS_ELEMENTS`` are summed
    in two levels, a cumsum within blocks of ``_SUM_BLOCK`` entries plus the
    exclusive prefix sum of the block totals, so that the rounding error of
    equal weights grows like the square root of the row length rather than
    like the length itself (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 4)."""
    n = a.shape[-1]
    if n <= _PASS_ELEMENTS:
        return a.cumsum(axis=-1)
    cut = n - n % _SUM_BLOCK
    out = np.empty(a.shape)
    blocks, tail = out[..., :cut].reshape(a.shape[:-1] + (-1, _SUM_BLOCK)), out[..., cut:]
    np.cumsum(a[..., :cut].reshape(blocks.shape), axis=-1, out=blocks)
    np.cumsum(a[..., cut:], axis=-1, out=tail)
    starts = _prefix_sum(blocks[..., -1])
    blocks[..., 1:, :] += starts[..., :-1, None]
    tail += starts[..., -1:]
    return out


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
        a = _prefix_sum(lw)
        b = _prefix_sum(lwx)
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
    p, u, e = shuffle.as_arrays()
    inv, invs = _inversions(p, u, _prefix_sum(u) - u / 2.0)

    rev = e == -1
    if rev.any():
        inv += float((u[rev] ** 2).sum()) / 2.0
        invs += float((u[rev] ** 3).sum()) / 6.0
    return inv, invs


def tau_rho(shuffle: Shuffle) -> RegionPoint:
    """Exact (tau, rho) of a shuffle."""
    inv, invs = inv_invs(shuffle)
    return RegionPoint(1.0 - 4.0 * inv, 1.0 - 12.0 * invs)


@functools.lru_cache(maxsize=16)
def _positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lex-ordered 0-based position pairs (2, P) and triples (3, T) of
    1..n, one per column."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2).T
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    pairs.setflags(write=False)
    triples.setflags(write=False)
    return pairs, triples


def _incidence(images) -> tuple[np.ndarray, np.ndarray]:
    """Which lex-ordered position pairs are inverted, and which triples are
    cyclic descents (relative order 321, 213 or 132: exactly two of x > y,
    y > z, z > x), for the images of one permutation (n,) or of a stack of
    them (m, n): bool (..., P) and (..., T)."""
    img = np.asarray(images).T
    pairs, triples = _positions(len(img))
    p, q = img[pairs]
    x, y, z = img[triples]
    inverted, cyclic = (p > q).T, (((x > y) ^ (y > z)) == (z > x)).T
    # row-major, so each row of a stack reaches BLAS laid out as one permutation's
    return np.ascontiguousarray(inverted), np.ascontiguousarray(cyclic)


def _ab(inverted, cyclic, u):
    """a and b of the incidence's permutations (..., m, P) and (..., m, T)
    at the weight rows u (..., r, n): the pair and triple products of each
    row summed over the masks, (..., m, r).  A stack of permutations shares
    one stack of rows; leading axes give each permutation its own rows."""
    pairs, triples = _positions(u.shape[-1])
    rows = np.swapaxes(u, -1, -2)
    # products laid out as for one permutation, so each ``@`` makes its BLAS call
    a = inverted @ np.ascontiguousarray(rows[..., pairs, :].prod(-3))
    b = cyclic @ np.ascontiguousarray(rows[..., triples, :].prod(-3))
    return a, b


def _tensors(inverted, cyclic, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverted pairs (..., P) as symmetric 0/1 matrices (..., n, n) and
    cyclic-descent triples (..., T) as symmetric 0/1 tensors (..., n, n, n),
    for one permutation or a stack: one scatter per order of the positions."""
    pairs, triples = _positions(n)
    pair_mat = np.zeros(inverted.shape[:-1] + (n, n))
    triple_ten = np.zeros(cyclic.shape[:-1] + (n, n, n))
    for p, q in itertools.permutations(pairs):
        pair_mat[..., p, q] = inverted
    for x, y, z in itertools.permutations(triples):
        triple_ten[..., x, y, z] = cyclic
    return pair_mat, triple_ten


# Products over stacks of one permutation's vectors, matrices and tensors.
# Each runs, per member, the BLAS dot or matvec that ``@`` runs on one, so a
# stack gives bit for bit what a loop over its members gives.

def _matvec(x, v):
    """x (..., [n,] n, n) times the vectors v (..., n), as ``x @ v``."""
    shape = v.shape[:-1] + (1,) * (x.ndim - v.ndim - 1) + v.shape[-1:] + (1,)
    return (x @ v.reshape(shape))[..., 0]


def _vecmat(v, x):
    """The vectors v (..., n) times the matrices x (..., n, n), as ``v @ x``."""
    return (v[..., None, :] @ x)[..., 0, :]


def _dot(v, w):
    """Row by row v . w of two (..., n) stacks, as ``v @ w``."""
    return (v[..., None, :] @ w[..., None])[..., 0, 0]


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
    pairs, triples = _positions(perm.n)
    inverted, cyclic = _incidence(perm.as_arrays()[0])
    return InversionData(
        frozenset(map(tuple, (pairs.T[inverted] + 1).tolist())),
        frozenset(map(tuple, (triples.T[cyclic] + 1).tolist())),
    )


def _weights_array(name: str, u, n: int) -> np.ndarray:
    """u as a finite float array of shape (n,): a SimplexWeights' array or an
    array-like read by ``_reals``; an error names ``name`` and the entry."""
    arr = u.as_arrays()[0] if isinstance(u, SimplexWeights) else _reals(name, u)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{name}[{i}] = {float(arr[i])!r} is not finite")
    return arr


def ab_values(perm: Permutation, u) -> tuple[float, float]:
    """The pair and triple weight polynomials of a straight shuffle.

    ``a = sum u_i u_j`` over inverted pairs and ``b = sum u_i u_j u_k``
    over the cyclic-descent triples.  For simplex weights on a straight
    shuffle these determine both coefficients: ``tau = 1 - 4a`` and
    ``rho = 1 - 6(a - b)``.  Here they are evaluated as formal
    polynomials, so ``u`` may be any finite real vector, on the simplex or
    off it (the perturbation checks feed in off-simplex points on
    purpose); a NaN or infinite entry raises ValueError.
    """
    a, b = _ab(*_incidence(perm.as_arrays()[0]), _weights_array("weights", u, perm.n)[None])
    return float(a[0]), float(b[0])


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


def _coeffs(pair_mat, triple_ten, u, d) -> PerturbationCoeffs:
    """The expansion from the matrix and tensor of ``_tensors``: a is
    u.A.u / 2 and b is T[u, u, u] / 6, so each coefficient is a contraction.
    On stacks (a leading axis on all four) every field is stacked, the five
    coefficients as arrays."""
    a_vec = _matvec(pair_mat, u)
    c_mat = _matvec(triple_ten, u)
    b_vec = _matvec(c_mat, u) / 2.0
    return PerturbationCoeffs(
        alpha1=_dot(a_vec, d),
        alpha2=_dot(_vecmat(d, pair_mat), d) / 2.0,
        beta1=_dot(b_vec, d),
        beta2=_dot(_vecmat(d, c_mat), d) / 2.0,
        beta3=_dot(_matvec(_matvec(triple_ten, d), d), d) / 6.0,
        a_vec=a_vec,
        b_vec=b_vec,
        c_mat=c_mat,
    )


def perturbation_coeffs(perm: Permutation, u, delta) -> PerturbationCoeffs:
    """The expansion of a and b at u along delta, a direction summing to
    zero within 1e-12.  As in ``ab_values``, u may be any finite real
    vector, on the simplex or off it; a NaN or infinite entry of u or
    delta raises ValueError."""
    n = perm.n
    arr, d = _weights_array("weights", u, n), _weights_array("delta", delta, n)
    if abs(float(d.sum())) > 1e-12:
        raise ValueError(f"delta must sum to zero, got {float(d.sum())!r}")
    c = _coeffs(*_tensors(*_incidence(perm.as_arrays()[0]), n), arr, d)
    return replace(
        c, **{f: float(getattr(c, f)) for f in ("alpha1", "alpha2", "beta1", "beta2", "beta3")}
    )


def oracle_tau_rho(shuffle: Shuffle, grid_m: int = 2000) -> RegionPoint:
    """Grid estimate of (tau, rho) using only point evaluations of the map.

    Places ``grid_m`` midpoints, evaluates the shuffle at each, and counts
    inverted pairs (for tau) and their x-distances (for rho) in
    O(m log m).  Ties in the evaluated heights are treated as concordant,
    matching stable sorting.  The error of either estimate decays like
    ``O(pieces / grid_m)``, so this is a cross-check, not an exact value.
    """
    m = _integer("grid_m", grid_m)
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
