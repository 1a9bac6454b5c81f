"""Exact concordance values, pair/triple statistics, and the rank oracle.

The closed-form inv/invs values for shuffles with reflected pieces were
frozen only after the independent midpoint-grid oracle reproduced them;
the reference-shuffle assertions below keep both routes in the suite.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from taurho import (
    Permutation,
    ab_values,
    flip,
    flip_shuffle,
    identity_shuffle,
    inv_invs,
    inverse,
    inversion_data,
    make_shuffle,
    oracle_tau_rho,
    perturbation_coeffs,
    prototype_shuffle,
    Prototype,
    tau_rho,
)
from taurho import concordance
from taurho.concordance import _inversions
from conftest import coeffs_one, exact_tau_rho, random_shuffle, tensors_loop


def _brute_inversions(keys, u, x):
    """O(n^2) reference for ``_inversions``: every pair i < j, one at a time."""
    inv = invs = 0.0
    for j in range(len(keys)):
        for i in range(j):
            if keys[i] > keys[j]:
                inv += u[i] * u[j]
                invs += u[i] * u[j] * (x[j] - x[i])
    return inv, invs


_KERNEL_SIZES = sorted(
    {0, 1, 2, 3} | {2**k + d for k in range(1, 11) for d in (-1, 0, 1)}
)


def test_kernel_matches_brute_force(rng):
    # 2^k - 1, 2^k and 2^k + 1 end the keys just before, at and just after
    # a block edge; with _PASS_ELEMENTS = 4096, n >= 511 takes several
    # passes, the last one shorter than the others.
    for n in _KERNEL_SIZES:
        heights = rng.integers(0, max(n // 3, 1), size=n)
        tied_ranks = np.empty(n, dtype=int)
        tied_ranks[np.argsort(heights, kind="stable")] = np.arange(n)
        for keys in (rng.permutation(n), rng.permutation(n) + 1, tied_ranks):
            u = rng.random(n)
            x = rng.random(n)
            got = _inversions(keys, u, x)
            want = _brute_inversions(keys.tolist(), u.tolist(), x.tolist())
            assert got == pytest.approx(want, rel=1e-12, abs=0), n


def test_reference_inv_invs(four_segment):
    inv, invs = inv_invs(four_segment)
    assert inv == pytest.approx(35 / 128, abs=1e-15)
    assert invs == pytest.approx(95 / 1024, abs=1e-15)


def test_reference_tau_rho(four_segment):
    pt = tau_rho(four_segment)
    assert pt.tau == pytest.approx(-3 / 32, abs=1e-15)
    assert pt.rho == pytest.approx(-29 / 256, abs=1e-15)


def test_reference_against_oracle(four_segment):
    exact = tau_rho(four_segment)
    est = oracle_tau_rho(four_segment, grid_m=4000)
    assert abs(est.tau - exact.tau) <= 5e-3
    assert abs(est.rho - exact.rho) <= 5e-3


def test_endpoints():
    ident = tau_rho(identity_shuffle())
    assert (ident.tau, ident.rho) == (1.0, 1.0)
    flipped = tau_rho(flip_shuffle())
    assert (flipped.tau, flipped.rho) == (-1.0, -1.0)
    inv, invs = inv_invs(flip_shuffle())
    assert inv == pytest.approx(0.5, abs=0)
    assert invs == pytest.approx(1 / 6, abs=1e-16)


class TestInversionData:
    def test_small_cases(self):
        d = inversion_data(Permutation((2, 1, 3)))
        assert sorted(d.pairs) == [(1, 2)]
        assert sorted(d.triples) == [(1, 2, 3)]  # images (2,1,3): last-is-largest cycle

        d = inversion_data(Permutation((1, 3, 2)))
        assert sorted(d.pairs) == [(2, 3)]
        assert sorted(d.triples) == [(1, 2, 3)]

        d = inversion_data(Permutation((3, 2, 1)))
        assert sorted(d.pairs) == [(1, 2), (1, 3), (2, 3)]
        assert sorted(d.triples) == [(1, 2, 3)]

    def test_monotone_have_none(self):
        d = inversion_data(Permutation((1, 2, 3, 4)))
        assert not d.pairs and not d.triples

    def test_decreasing_has_all(self):
        n = 6
        d = inversion_data(Permutation(tuple(range(n, 0, -1))))
        assert len(d.pairs) == n * (n - 1) // 2
        assert len(d.triples) == n * (n - 1) * (n - 2) // 6


class TestAbValues:
    def test_single_inversion(self):
        a, b = ab_values(Permutation((2, 1, 3)), np.full(3, 1 / 3))
        assert a == pytest.approx(1 / 9, abs=1e-16)
        assert b == pytest.approx(1 / 27, abs=1e-16)

    def test_decreasing(self):
        a, b = ab_values(Permutation((3, 2, 1)), np.full(3, 1 / 3))
        assert a == pytest.approx(1 / 3, abs=1e-15)
        assert b == pytest.approx(1 / 27, abs=1e-16)

    def test_accepts_off_simplex_vectors(self):
        # formal polynomial: no simplex validation on purpose
        a, b = ab_values(Permutation((2, 1)), np.array([2.0, -1.0]))
        assert a == pytest.approx(-2.0)
        assert b == 0.0

    def test_ties_to_inv_invs_for_straight_shuffles(self, rng):
        for _ in range(100):
            sh = random_shuffle(rng, n_max=9, mixed_signs=False)
            a, b = ab_values(sh.perm, sh.weights.as_arrays()[0])
            inv, invs = inv_invs(sh)
            assert inv == pytest.approx(a, abs=1e-14)
            assert b == pytest.approx(a - 2 * invs, abs=1e-14)


def _brute_incidence(images):
    """Inverted pairs and cyclic-descent triples (321, 213, 132), 1-based,
    straight from the definitions."""
    n = len(images)
    pairs = {
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(n), 2)
        if images[i] > images[j]
    }
    triples = set()
    for i, j, k in itertools.combinations(range(n), 3):
        x, y, z = images[i], images[j], images[k]
        if x > y > z or y > z > x or z > x > y:
            triples.add((i + 1, j + 1, k + 1))
    return pairs, triples


class TestExactReference:
    """The polynomial layer against a ``fractions`` evaluation of its pair
    and triple sums, for every permutation with n <= 5, at rational weights
    (the reference takes the float inputs exactly)."""

    @staticmethod
    def _cases():
        for n in range(2, 6):
            ks = [np.arange(1, n + 1), np.array([3, 1, 4, 1, 5][:n]), np.array([7, 0, 2, 9, 6][:n])]
            for images in itertools.permutations(range(1, n + 1)):
                for k in ks:
                    u = k / k.sum()
                    d = (np.roll(k, 1) - k) / 16  # sums to zero exactly, |d| < 1
                    yield Permutation(images), u, d

    def test_inversion_data_matches_brute_force(self):
        for n in range(1, 8):
            for images in itertools.permutations(range(1, n + 1)):
                pairs, triples = _brute_incidence(images)
                data = inversion_data(Permutation(images))
                assert data.pairs == pairs and data.triples == triples, images

    def test_ab_values(self):
        for perm, u, _ in self._cases():
            pairs, triples = _brute_incidence(perm.images)
            x = [Fraction(v) for v in u]
            a = sum((x[i - 1] * x[j - 1] for i, j in pairs), Fraction(0))
            b = sum((x[i - 1] * x[j - 1] * x[k - 1] for i, j, k in triples), Fraction(0))
            got = ab_values(perm, u)
            assert abs(got[0] - a) <= 1e-15 and abs(got[1] - b) <= 1e-15, (perm, u)

    def test_perturbation_coeffs(self):
        for perm, u, d in self._cases():
            n = perm.n
            pairs, triples = _brute_incidence(perm.images)
            x = [Fraction(v) for v in u]
            e = [Fraction(v) for v in d]
            a_vec = [Fraction(0)] * n
            for i, j in pairs:
                a_vec[i - 1] += x[j - 1]
                a_vec[j - 1] += x[i - 1]
            c_mat = [[Fraction(0)] * n for _ in range(n)]
            for t in triples:
                for i, j, k in itertools.permutations(t):
                    c_mat[i - 1][j - 1] += x[k - 1]
            b_vec = [sum(c_mat[i][j] * x[j] for j in range(n)) / 2 for i in range(n)]
            expect = {
                "alpha1": sum(a_vec[i] * e[i] for i in range(n)),
                "alpha2": sum((e[i - 1] * e[j - 1] for i, j in pairs), Fraction(0)),
                "beta1": sum(b_vec[i] * e[i] for i in range(n)),
                "beta2": sum(
                    (c_mat[i][j] * e[i] * e[j] for i, j in itertools.combinations(range(n), 2)),
                    Fraction(0),
                ),
                "beta3": sum((e[i - 1] * e[j - 1] * e[k - 1] for i, j, k in triples), Fraction(0)),
            }
            got = perturbation_coeffs(perm, u, d)
            for name, value in expect.items():
                assert abs(getattr(got, name) - value) <= 1e-15, (name, perm, u)
            assert np.all(np.abs(got.c_mat - np.array(c_mat, dtype=float)) <= 1e-15)
            assert np.all(np.abs(got.a_vec - np.array(a_vec, dtype=float)) <= 1e-15)
            assert np.all(np.abs(got.b_vec - np.array(b_vec, dtype=float)) <= 1e-15)


def test_perturbation_worked_example():
    coeffs = perturbation_coeffs(
        Permutation((3, 2, 1)), np.full(3, 1 / 3), np.array([1.0, -1.0, 0.0])
    )
    assert coeffs.alpha1 == pytest.approx(0.0, abs=1e-16)
    assert coeffs.alpha2 == pytest.approx(-1.0, abs=1e-15)
    assert coeffs.beta1 == pytest.approx(0.0, abs=1e-16)
    assert coeffs.beta2 == pytest.approx(-1 / 3, abs=1e-15)
    assert coeffs.beta3 == pytest.approx(0.0, abs=1e-16)


def test_perturbation_requires_zero_sum():
    with pytest.raises(ValueError):
        perturbation_coeffs(Permutation((2, 1)), np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_perturbation_expansion_is_exact(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        sh = random_shuffle(rng, n_min=n, n_max=n, mixed_signs=False)
        u = sh.weights.as_arrays()[0]
        d = rng.standard_normal(n)
        d -= d.mean()
        coeffs = perturbation_coeffs(sh.perm, u, d)
        a0, b0 = ab_values(sh.perm, u)
        for t in (0.3, -0.8):
            a1, b1 = ab_values(sh.perm, u + t * d)
            assert a1 - a0 == pytest.approx(
                coeffs.alpha1 * t + coeffs.alpha2 * t**2, abs=1e-12
            )
            assert b1 - b0 == pytest.approx(
                coeffs.beta1 * t + coeffs.beta2 * t**2 + coeffs.beta3 * t**3,
                abs=1e-12,
            )


class TestOracle:
    def test_identity_is_exact(self):
        for m in (100, 2000, 20000):
            pt = oracle_tau_rho(identity_shuffle(), grid_m=m)
            assert pt.tau == 1.0 and pt.rho == 1.0, m

    def test_flip_tau_has_known_bias(self):
        # all m(m-1)/2 grid pairs are discordant
        pt = oracle_tau_rho(flip_shuffle(), grid_m=100)
        assert pt.tau == pytest.approx(-1 + 2 / 100, abs=1e-15)

    def test_grid_validation(self, four_segment):
        with pytest.raises(ValueError):
            oracle_tau_rho(four_segment, grid_m=1)

    def test_grid_must_be_an_integer(self, four_segment):
        """A bool or a non-integral grid_m is rejected by name, not
        truncated; numpy integers pass."""
        for m in (2.5, 100.0, True):
            with pytest.raises(ValueError, match="^grid_m "):
                oracle_tau_rho(four_segment, grid_m=m)
        assert oracle_tau_rho(four_segment, grid_m=np.int32(100)) == oracle_tau_rho(four_segment, grid_m=100)

    def test_agreement_on_mixed_sign_shuffles(self, rng):
        for _ in range(25):
            sh = random_shuffle(rng, n_max=8)
            exact = tau_rho(sh)
            est = oracle_tau_rho(sh, grid_m=4000)
            assert abs(est.tau - exact.tau) <= 5e-3
            assert abs(est.rho - exact.rho) <= 5e-3


def test_symmetries(rng):
    for _ in range(100):
        sh = random_shuffle(rng, n_max=8)
        pt = tau_rho(sh)
        ptf = tau_rho(flip(sh))
        pti = tau_rho(inverse(sh))
        assert ptf.tau == pytest.approx(-pt.tau, abs=1e-12)
        assert ptf.rho == pytest.approx(-pt.rho, abs=1e-12)
        assert pti.tau == pytest.approx(pt.tau, abs=1e-12)
        assert pti.rho == pytest.approx(pt.rho, abs=1e-12)


def test_chunked_path_matches_closed_form():
    """Prototypes big enough to run one merge level per pass of the kernel.

    2^17 + 1 pieces make a top level whose left half is a whole 2^17 block
    and whose right half is a single piece.
    """
    big = 2**17 + 1
    for proto in (Prototype(3000, 1 / 3000 + 1e-7), Prototype(big, 1 / big + 5e-11)):
        sh = prototype_shuffle(proto)
        pt = tau_rho(sh)
        n, r = proto.n, proto.r
        tau_c = 1 - 4 * (n - 1) * r + 2 * r * r * n * (n - 1)
        rho_c = 1 - 2 * r * (n - 1) * (3 - 3 * r * (n - 1) + r * r * (n - 2) * n)
        assert pt.tau == pytest.approx(tau_c, abs=1e-11), n
        assert pt.rho == pytest.approx(rho_c, abs=1e-11), n


def _exact_corner_prototype(sh) -> tuple[Fraction, Fraction]:
    """tau and rho of a prototype with weights (r, ..., r, l), in exact
    rationals of its float weights.  Every pair is inverted, so 2 inv is
    (sum u)^2 - sum u^2; the midpoints are (i - 1/2) r for i < n and
    (n-1) r + l/2, so the pairs among the first n - 1 pieces give
    r^3 (n-2)(n-1)n/6 to invs and the pairs with the last r l (n-1)((n-1) r + l)/2."""
    n = sh.n
    r, last = Fraction(sh.weights.u[0]), Fraction(sh.weights.u[-1])
    total, squares = (n - 1) * r + last, (n - 1) * r * r + last * last
    invs = r**3 * (n - 2) * (n - 1) * n / 6 + r * last * (n - 1) * ((n - 1) * r + last) / 2
    return 1 - 2 * (total * total - squares), 1 - 12 * invs


class TestLongRows:
    """Rows longer than _PASS_ELEMENTS are prefix-summed in two levels, so
    that the rounding error of many equal weights does not grow like n."""

    @pytest.mark.parametrize("n", [300_000, 2**20 + 1])
    def test_corner_prototype_against_exact(self, n):
        sh = prototype_shuffle(Prototype(n, 1.0 / n))
        assert set(sh.weights.u[:-1]) == {1.0 / n}
        tau, rho = _exact_corner_prototype(sh)
        pt = tau_rho(sh)
        assert abs(pt.tau - tau) <= 1e-12 and abs(pt.rho - rho) <= 1e-12

    def test_exact_reference_on_a_small_prototype(self):
        sh = prototype_shuffle(Prototype(9, 0.115))
        assert _exact_corner_prototype(sh) == exact_tau_rho(sh)

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 4096), (4096,)])
    def test_short_rows_keep_the_cumsum_bits(self, rng, shape):
        a = rng.random(shape)
        assert np.array_equal(concordance._prefix_sum(a), a.cumsum(axis=-1))

    @pytest.mark.parametrize("n", [4097, 20 * 256, 2**20 + 256 * 300 + 17])
    def test_long_rows_sum_every_entry_once(self, n):
        """Integers sum exactly, so the offsets of the blocks, the tail and
        the block totals (summed in blocks again past 2^20 entries) show."""
        a = np.ones((2, n))
        a[1] = np.arange(n) % 7
        want = np.cumsum(a.astype(np.int64), axis=-1).astype(float)
        assert np.array_equal(concordance._prefix_sum(a), want)
        assert np.array_equal(concordance._prefix_sum(a[1]), want[1])

    def test_equal_weights_do_not_drift(self):
        """k * w rounds the exact k-th prefix of equal weights w once."""
        n = 300_001
        a = np.full(n, 1.0 / n)
        exact = np.arange(1, n + 1) * (1.0 / n)
        assert np.abs(concordance._prefix_sum(a) - exact).max() <= 1e-13
        assert np.abs(np.cumsum(a) - exact).max() > 1e-12


class TestStacks:
    """The stack forms of the pair/triple algebra against one permutation
    at a time."""

    def test_scatter_matches_the_loop(self):
        """One scatter per order of the positions sets the entries the loop
        sets one at a time: every permutation with n <= 6, one at a time and
        as one stack."""
        for n in range(1, 7):
            perms = np.array(list(itertools.permutations(range(1, n + 1))))
            masks = concordance._incidence(perms)
            pair_mats, triple_tens = concordance._tensors(*masks, n)
            assert pair_mats.shape == (len(perms), n, n)
            assert triple_tens.shape == (len(perms), n, n, n)
            for i, images in enumerate(perms):
                want = tensors_loop(*concordance._incidence(images), n)
                got = concordance._tensors(*concordance._incidence(images), n)
                for w, g, stacked in zip(want, got, (pair_mats[i], triple_tens[i])):
                    assert np.array_equal(g, w) and np.array_equal(stacked, w)

    def test_coefficients_are_bit_identical(self, rng):
        """perturbation_coeffs and a stack of _coeffs give, bit for bit, what
        one ``@`` per contraction gives on the loop's matrix and tensor."""
        for n in range(2, 11):
            images = np.array([rng.permutation(n) + 1 for _ in range(20)])
            u = rng.standard_exponential((20, n))
            u /= u.sum(axis=1, keepdims=True)
            d = rng.standard_normal((20, n))
            d -= d.mean(axis=1, keepdims=True)
            stacked = concordance._coeffs(*concordance._tensors(*concordance._incidence(images), n), u, d)
            for i in range(20):
                want = coeffs_one(*tensors_loop(*concordance._incidence(images[i]), n), u[i], d[i])
                got = perturbation_coeffs(Permutation(tuple(images[i].tolist())), u[i], d[i])
                for name, value in want.items():
                    assert np.array_equal(getattr(got, name), value), (n, i, name)
                    assert np.array_equal(getattr(stacked, name)[i], value), (n, i, name)
                assert all(type(getattr(got, f)) is float for f in ("alpha1", "alpha2", "beta1", "beta2", "beta3"))

    def test_paired_ab_is_bit_identical(self, rng):
        """_ab with each permutation paired to its own rows gives, bit for
        bit, what it gives for that permutation alone: one ``@`` of each mask
        with the row products, a dot for a single row as in ab_values."""
        for n in range(2, 11):
            images = np.array([rng.permutation(n) + 1 for _ in range(10)])
            rows = rng.standard_exponential((10, 3, n))
            inverted, cyclic = concordance._incidence(images)
            pairs, triples = concordance._positions(n)
            for r in (slice(None), slice(1, 2)):
                a, b = concordance._ab(inverted[:, None], cyclic[:, None], rows[:, r])
                assert a.shape == b.shape == (10, 1, len(rows[0, r]))
                for i in range(10):
                    u = rows[i, r]
                    assert np.array_equal(a[i, 0], inverted[i] @ u.T[pairs].prod(0))
                    assert np.array_equal(b[i, 0], cyclic[i] @ u.T[triples].prod(0))
            for i in range(10):
                u = rows[i, 1]
                got = ab_values(Permutation(tuple(images[i].tolist())), u)
                assert got == (a[i, 0, 0], b[i, 0, 0])
                assert got == (inverted[i] @ u[pairs].prod(0), cyclic[i] @ u[triples].prod(0))
