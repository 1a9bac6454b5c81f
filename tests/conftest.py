import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

# Hypothesis imports its patch writer, and through it libcst, only once a
# test has failed; libcst's use of mypy_extensions.TypedDict warns with a
# DeprecationWarning, which the "error" filter turns into an INTERNALERROR
# that ends the run without a report.  Imported here, with that one
# category ignored, it is already loaded when the plugin needs it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from taurho import Permutation, make_shuffle
from taurho.concordance import _positions


def fisher_yates(rng: np.random.Generator, n: int) -> Permutation:
    """Uniform random permutation by an explicit Fisher-Yates pass; its n - 1
    swap positions come from one draw, the stream of n - 1 single draws."""
    imgs = list(range(1, n + 1))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        imgs[i], imgs[j] = imgs[j], imgs[i]
    return Permutation(tuple(imgs))


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform point of the simplex via normalized standard exponentials."""
    e = rng.standard_exponential(n)
    return e / e.sum()


def random_shuffle(rng, n_max=10, mixed_signs=True, n_min=2):
    """A shuffle of n_min to n_max pieces: a Fisher-Yates permutation,
    uniform simplex weights and, with ``mixed_signs``, fair random signs."""
    n = int(rng.integers(n_min, n_max + 1))
    perm = fisher_yates(rng, n)
    u = random_simplex(rng, n)
    if mixed_signs:
        signs = tuple(1 if rng.integers(0, 2) == 0 else -1 for _ in range(n))
    else:
        signs = (1,) * n
    return make_shuffle(perm, tuple(u), signs)


def exact_tau_rho(shuffle) -> tuple[Fraction, Fraction]:
    """tau and rho of a shuffle in exact rationals of its float weights.

    Piece i covers [a_i, a_i + u_i] and is sent to [b_i, b_i + u_i], with
    b_i the weight of the pieces in lower slots.  Two points are discordant
    when their pieces are inverted, or when they share a reversed piece, so
    tau = 1 - 2 (2 sum of inverted u_i u_j + sum of reversed u_i^2); and
    rho = 12 E[U f(U)] - 3, integrating the line of each piece exactly.
    """
    u = [Fraction(w) for w in shuffle.weights.u]
    perm, signs, n = shuffle.perm.images, shuffle.signs, len(u)
    discordant = sum(u[i] ** 2 for i in range(n) if signs[i] < 0) + 2 * sum(
        u[i] * u[j] for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
    )
    moment = Fraction(0)
    for i in range(n):
        a = sum(u[:i], Fraction(0))
        b = sum((u[k] for k in range(n) if perm[k] < perm[i]), Fraction(0))
        if signs[i] > 0:  # f(a + s) = b + s
            moment += a * b * u[i] + (a + b) * u[i] ** 2 / 2 + u[i] ** 3 / 3
        else:  # f(a + s) = b + u_i - s
            moment += a * (b + u[i]) * u[i] + (b + u[i] - a) * u[i] ** 2 / 2 - u[i] ** 3 / 3
    return 1 - 2 * discordant, 12 * moment - 3


def tensors_loop(inverted, cyclic, n):
    """One permutation's inverted pairs as a symmetric 0/1 matrix and its
    cyclic-descent triples as a symmetric 0/1 tensor, one entry at a time:
    the reference for ``concordance._tensors``."""
    pairs, triples = _positions(n)
    pair_mat = np.zeros((n, n))
    triple_ten = np.zeros((n, n, n))
    for p, q in itertools.permutations(pairs[:, inverted]):
        pair_mat[p, q] = 1.0
    for x, y, z in itertools.permutations(triples[:, cyclic]):
        triple_ten[x, y, z] = 1.0
    return pair_mat, triple_ten


def coeffs_one(pair_mat, triple_ten, u, d):
    """The perturbation coefficients of one permutation, each contraction one
    ``@`` on its own vectors: the reference for ``concordance._coeffs``."""
    a_vec = pair_mat @ u
    c_mat = triple_ten @ u
    b_vec = c_mat @ u / 2.0
    return {
        "alpha1": float(a_vec @ d),
        "alpha2": float(d @ pair_mat @ d) / 2.0,
        "beta1": float(b_vec @ d),
        "beta2": float(d @ c_mat @ d) / 2.0,
        "beta3": float(triple_ten @ d @ d @ d) / 6.0,
        "a_vec": a_vec,
        "b_vec": b_vec,
        "c_mat": c_mat,
    }


@pytest.fixture
def four_segment():
    """Four-segment reference shuffle with one reflected piece.

    Breakpoints at (0, 1/8, 1/2, 3/4, 1); the second piece (weight 3/8)
    runs with slope -1.  Doubles as the worked example for the exact
    inv/invs values 35/128 and 95/1024.
    """
    return make_shuffle((4, 2, 1, 3), (1 / 8, 3 / 8, 1 / 4, 1 / 4), (1, -1, 1, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
