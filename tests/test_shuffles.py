"""Shuffle data model and interval-map behaviour."""

import json
import math
import re

import numpy as np
import pytest

from taurho import (
    Permutation,
    SimplexWeights,
    breakpoints,
    evaluate,
    flip,
    flip_shuffle,
    identity_shuffle,
    inverse,
    make_shuffle,
    ordinal_sum_with_identity,
    read_shuffle_json,
    shuffle_from_dict,
    shuffle_to_dict,
    tau_rho,
    write_shuffle_json,
)
from conftest import random_shuffle


class TestPermutation:
    def test_inverse(self):
        p = Permutation((3, 1, 2))
        assert p.inverse().images == (2, 3, 1)
        assert p.inverse().inverse() == p

    def test_call_is_one_based(self):
        p = Permutation((2, 1, 3))
        assert p(1) == 2 and p(2) == 1 and p(3) == 3

    @pytest.mark.parametrize("images", [(1, 1, 2), (2, 3), (0, 1), ()])
    def test_rejects_non_bijections(self, images):
        with pytest.raises(ValueError):
            Permutation(images)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SimplexWeights((0.5, 0.4))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SimplexWeights((1.5, -0.5))

    @pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (math.inf, "inf")])
    def test_weights_must_be_finite(self, bad, shown):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got .*{shown}"):
            SimplexWeights((bad, 0.5))
        with pytest.raises(ValueError, match=shown):
            make_shuffle((2, 1), (bad, 0.5))

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            make_shuffle((2, 1), (0.5, 0.5), (1,))

    def test_signs_must_be_unit(self):
        with pytest.raises(ValueError):
            make_shuffle((2, 1), (0.5, 0.5), (1, 0))

    def test_signs_default_to_straight(self):
        sh = make_shuffle((2, 1), (0.5, 0.5))
        assert sh.signs == (1, 1)

    @pytest.mark.parametrize(
        "build,shown",
        [
            (lambda: Permutation((1.5, 2)), "perm entries must be integers, got 1.5"),
            (lambda: make_shuffle((True, 2), (0.5, 0.5)), "perm entries must be integers, got True"),
            (lambda: make_shuffle((1, 2), (0.5, 0.5), (1.0, -1.9)), "signs entries must be integers, got 1.0"),
            (lambda: SimplexWeights(("0.5", "0.5")), "weights entries must be real numbers, got '0.5'"),
            (lambda: make_shuffle((1, 2), (0.5, 0.5), (np.True_, 1)), "signs entries must be integers"),
            (lambda: SimplexWeights((None, 1.0)), "weights entries must be real numbers, got None"),
        ],
    )
    def test_entries_are_not_coerced(self, build, shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            build()

    def test_numpy_scalars_are_accepted(self):
        sh = make_shuffle(np.array([2, 1]), np.array([0.25, 0.75]), np.array([1, -1], dtype=np.int8))
        assert sh == make_shuffle((2, 1), (0.25, 0.75), (1, -1))
        assert {type(v) for v in sh.perm.images + sh.signs} == {int}
        assert {type(v) for v in sh.weights.u} == {float}
        assert SimplexWeights((1, 0)).u == (1.0, 0.0)


def test_breakpoints_reference(four_segment):
    s, t = breakpoints(four_segment)
    np.testing.assert_allclose(s, [0, 1 / 8, 1 / 2, 3 / 4, 1], atol=0)
    np.testing.assert_allclose(t, [0, 1 / 4, 5 / 8, 7 / 8, 1], atol=0)
    assert s[-1] == 1.0 and t[-1] == 1.0


def test_evaluate_reference_points(four_segment):
    # first piece climbs from 7/8; reflected second piece starts at its top
    assert evaluate(four_segment, 1 / 16) == pytest.approx(15 / 16, abs=1e-15)
    assert evaluate(four_segment, 1 / 8) == pytest.approx(5 / 8, abs=1e-15)
    assert evaluate(four_segment, 1 / 4) == pytest.approx(1 / 2, abs=1e-15)


def test_evaluate_vectorized_matches_scalar(four_segment):
    xs = np.linspace(0, 1, 101)
    ys = evaluate(four_segment, xs)
    for x, y in zip(xs, ys):
        assert evaluate(four_segment, float(x)) == y


def test_evaluate_domain():
    with pytest.raises(ValueError):
        evaluate(identity_shuffle(), -0.1)
    with pytest.raises(ValueError):
        evaluate(identity_shuffle(), np.array([0.2, 1.3]))
    with pytest.raises(ValueError):
        evaluate(identity_shuffle(), math.nan)
    with pytest.raises(ValueError):
        evaluate(identity_shuffle(), np.array([0.2, math.nan, 0.7]))


def test_identity_and_flip_maps():
    xs = np.linspace(0, 1, 33)
    np.testing.assert_allclose(evaluate(identity_shuffle(), xs), xs, atol=1e-15)
    np.testing.assert_allclose(evaluate(flip_shuffle(), xs[:-1]), 1 - xs[:-1], atol=1e-15)


def test_measure_preservation(rng):
    """Pushing a fine uniform grid through h rearranges it: the sorted
    outputs must again be (close to) a uniform grid."""
    m = 4000
    grid = (np.arange(m) + 0.5) / m
    for _ in range(20):
        sh = random_shuffle(rng, n_max=8)
        ys = np.sort(evaluate(sh, grid))
        assert np.max(np.abs(ys - grid)) <= 1.5 / m


def test_round_trip_bijection(rng):
    for _ in range(20):
        sh = random_shuffle(rng, n_max=8)
        inv_sh = inverse(sh)
        s, _ = breakpoints(sh)
        xs = rng.uniform(0, 1, 200)
        # stay away from breakpoints, where one-sided conventions differ
        xs = xs[np.min(np.abs(xs[:, None] - s[None, :]), axis=1) > 1e-6]
        np.testing.assert_allclose(evaluate(inv_sh, evaluate(sh, xs)), xs, atol=1e-12)


def test_inverse_reference():
    inv = inverse(make_shuffle((2, 1), (1 / 3, 2 / 3)))
    assert inv.perm.images == (2, 1)
    np.testing.assert_allclose(inv.weights.u, (2 / 3, 1 / 3), atol=1e-15)


def test_flip_involution(four_segment):
    assert flip(flip(four_segment)) == four_segment


def test_flip_reverses_images(four_segment):
    f = flip(four_segment)
    assert f.perm.images == (1, 3, 4, 2)
    assert f.signs == (-1, 1, -1, -1)


class TestOrdinalSum:
    def test_s_zero_is_identity_operation(self, four_segment):
        assert ordinal_sum_with_identity(four_segment, 0.0) == four_segment

    def test_s_one_collapses_to_identity_map(self, four_segment):
        assert ordinal_sum_with_identity(four_segment, 1.0) == identity_shuffle()

    def test_prepends_identity_segment(self, four_segment):
        sh = ordinal_sum_with_identity(four_segment, 0.25)
        assert sh.n == 5
        assert sh.perm.images[0] == 1
        assert sh.signs[0] == 1
        assert sh.weights.u[0] == pytest.approx(0.25, abs=1e-15)

    def test_flip_half_lands_at_half_three_quarters(self):
        pt = tau_rho(ordinal_sum_with_identity(flip_shuffle(), 0.5))
        assert pt.tau == pytest.approx(0.5, abs=1e-15)
        assert pt.rho == pytest.approx(0.75, abs=1e-15)

    def test_scaling_laws(self, rng):
        for _ in range(200):
            sh = random_shuffle(rng, n_max=7)
            s = float(rng.uniform(0, 1))
            p0 = tau_rho(sh)
            p1 = tau_rho(ordinal_sum_with_identity(sh, s))
            assert p1.tau == pytest.approx(1 - (1 - s) ** 2 * (1 - p0.tau), abs=1e-12)
            assert p1.rho == pytest.approx(1 - (1 - s) ** 3 * (1 - p0.rho), abs=1e-12)


class TestSerialization:
    def test_round_trip(self, four_segment, tmp_path):
        path = tmp_path / "sh.json"
        write_shuffle_json(four_segment, path)
        back = read_shuffle_json(path)
        assert back == four_segment

    def test_dict_round_trip(self, four_segment):
        assert shuffle_from_dict(shuffle_to_dict(four_segment)) == four_segment

    def test_renormalizes_small_drift(self):
        d = {"perm": [2, 1], "weights": [0.5 + 2e-10, 0.5], "signs": [1, 1]}
        sh = shuffle_from_dict(d)
        assert math.isclose(sum(sh.weights.u), 1.0, abs_tol=1e-15)

    @pytest.mark.parametrize(
        "payload",
        [
            {"perm": [2, 1], "weights": [0.5, 0.5]},
            {"perm": [2, 2], "weights": [0.5, 0.5], "signs": [1, 1]},
            {"perm": [2, 1], "weights": [0.6, 0.5], "signs": [1, 1]},
            {"perm": [2, 1], "weights": [0.5, 0.5], "signs": [1, 2]},
            {"perm": [2, 1], "weights": [0.5], "signs": [1, 1]},
            {"perm": [True, 2], "weights": [0.5, 0.5], "signs": [1, 1]},
            {"perm": [2, 1], "weights": [0.5, True], "signs": [1, 1]},
            {"perm": [1, 2], "weights": [math.nan, 0.5], "signs": [1, 1]},
            {"perm": 3, "weights": [0.5, 0.5], "signs": [1, 1]},
            {"perm": [1.5, 2], "weights": [0.5, 0.5], "signs": [1, 1]},
            {"perm": [1, 2], "weights": [0.5, 0.5], "signs": [1.0, -1.9]},
            {"perm": [1, 2], "weights": ["0.5", "0.5"], "signs": [1, 1]},
            {"perm": [1, 2], "weights": [0.5, 0.5], "signs": [True, 1]},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            shuffle_from_dict(payload)

    def test_rejects_bad_json_text(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            read_shuffle_json(path)

    def test_json_file_contents_are_plain(self, four_segment, tmp_path):
        path = tmp_path / "sh.json"
        write_shuffle_json(four_segment, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"perm", "weights", "signs"}
        assert payload["perm"] == [4, 2, 1, 3]
