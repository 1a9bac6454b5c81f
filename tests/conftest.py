import numpy as np
import pytest

from taurho import fisher_yates, make_shuffle, random_simplex


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
