"""Shuffle data model and interval-map behaviour."""

import json
import math
import pickle
import re

import numpy as np
import pytest

from taurho import (
    Permutation,
    RegionPoint,
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

# The container axis of the rejection tests: a sequence is judged entry by
# entry, an ndarray by its dtype.  It is a loop inside each test, so that the
# tests keep their ids.
CONTAINERS = (tuple, list, np.array)


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
        for container in CONTAINERS:
            with pytest.raises(ValueError):
                Permutation(container(images))


class TestValidation:
    def test_weights_must_sum_to_one(self):
        for container in CONTAINERS:
            with pytest.raises(ValueError, match=re.escape("weights sum to 0.9, not 1 within 1e-12")):
                SimplexWeights(container((0.5, 0.4)))

    def test_weights_must_be_nonnegative(self):
        for container in CONTAINERS:
            with pytest.raises(ValueError, match=re.escape("weights[1] = -0.5 is not finite")):
                SimplexWeights(container((1.5, -0.5)))

    @pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (math.inf, "inf")])
    def test_weights_must_be_finite(self, bad, shown):
        for container in CONTAINERS:
            with pytest.raises(ValueError, match=rf"weights\[0\] = {shown} is not finite and nonnegative"):
                SimplexWeights(container((bad, 0.5)))
            with pytest.raises(ValueError, match=shown):
                make_shuffle((2, 1), container((bad, 0.5)))
        with pytest.raises(ValueError, match=r"weights\[0\] = inf"):  # and no warning from inf - inf
            SimplexWeights(np.array([math.inf, -math.inf]))

    def test_lengths_must_agree(self):
        for container in CONTAINERS:
            with pytest.raises(ValueError, match="perm 2, weights 2, signs 1"):
                make_shuffle((2, 1), (0.5, 0.5), container((1,)))

    def test_signs_must_be_unit(self):
        for container in CONTAINERS:
            with pytest.raises(ValueError, match=re.escape("signs[1] = 0 is not -1 or 1")):
                make_shuffle((2, 1), (0.5, 0.5), container((1, 0)))

    def test_signs_default_to_straight(self):
        sh = make_shuffle((2, 1), (0.5, 0.5))
        assert sh.signs == (1, 1)

    @pytest.mark.parametrize(
        "build,shown",
        [
            (lambda c: Permutation(c((1.5, 2))), "perm entries must be integers, got 1.5"),
            (lambda c: make_shuffle(c((True, 2)), (0.5, 0.5)), "perm entries must be integers, got True"),
            (lambda c: make_shuffle((1, 2), (0.5, 0.5), c((1.0, -1.9))), "signs entries must be integers, got 1.0"),
            (lambda c: SimplexWeights(c(("0.5", "0.5"))), "weights entries must be real numbers, got '0.5'"),
            (lambda c: make_shuffle((1, 2), (0.5, 0.5), c((np.True_, 1))), "signs entries must be integers"),
            (lambda c: SimplexWeights(c((None, 1.0))), "weights entries must be real numbers, got None"),
            # An ndarray is judged by its dtype: an integral float array is
            # rejected like 1.0, and a bool or object array like True or None.
            (lambda c: Permutation(np.array([2.0, 1.0])), "perm must be a 1-D array of integers, got float64"),
            (lambda c: make_shuffle((1, 2), (0.5, 0.5), np.array([1.0, -1.0])), "signs must be a 1-D array of integers, got float64"),
            (lambda c: Permutation(np.array([True, False])), "perm must be a 1-D array of integers, got bool"),
            (lambda c: make_shuffle((1, 2), np.array([0.5, 0.5], dtype=object)), "weights must be a 1-D array of real numbers, got object"),
            (lambda c: SimplexWeights(np.array([[0.5, 0.5]])), "got float64 of shape (1, 2)"),
            # 2**64 - 1 would wrap to -1 in int64
            (lambda c: make_shuffle((1, 2), (0.5, 0.5), np.array([2**64 - 1, 1], dtype=np.uint64)), "got uint64"),
            (lambda c: Permutation(np.array([], dtype=np.int64)), "perm must have length >= 1"),
            (lambda c: SimplexWeights(np.array([], dtype=np.float64)), "weights must have length >= 1"),
        ],
    )
    def test_entries_are_not_coerced(self, build, shown):
        for container in (tuple, list):
            with pytest.raises(ValueError, match=re.escape(shown)):
                build(container)

    def test_numpy_scalars_are_accepted(self):
        sh = make_shuffle(np.array([2, 1]), np.array([0.25, 0.75]), np.array([1, -1], dtype=np.int8))
        assert sh == make_shuffle((2, 1), (0.25, 0.75), (1, -1))
        assert {type(v) for v in sh.perm.images + sh.signs} == {int}
        assert {type(v) for v in sh.weights.u} == {float}
        assert SimplexWeights((1, 0)).u == (1.0, 0.0)
        assert make_shuffle((np.int32(2), 1), (np.float32(0.25), 0.75), (1, np.int8(-1))) == sh

    def test_int8_signs_are_copied_without_widening(self):
        signs = np.array([1, -1], dtype=np.int8)
        stored = make_shuffle((2, 1), (0.5, 0.5), signs).as_arrays()[2]
        assert stored.dtype == np.int8 and not np.shares_memory(stored, signs)
        assert not stored.flags.writeable

    @pytest.mark.parametrize("int_type", [np.int8, np.int32, np.uint16, np.int64])
    @pytest.mark.parametrize("float_type", [np.float32, np.float64, np.int64])
    def test_int_and_float_arrays_are_accepted(self, int_type, float_type):
        sh = make_shuffle(
            np.array([2, 1], dtype=int_type), np.array([0, 1], dtype=float_type), np.array([1, 1], dtype=np.int8)
        )
        assert sh == make_shuffle((2, 1), (0.0, 1.0), (1, 1))

    @pytest.mark.parametrize(
        "build,shown",
        [
            (lambda: Permutation((1, 3, 7, 2, 5)), "perm[2] = 7 outside 1..5"),
            (lambda: Permutation((2, 0)), "perm[1] = 0 outside 1..2"),
            (lambda: Permutation((1, 4, 3, 4, 2)), "perm[3] = 4 repeats an earlier entry"),
            (lambda: Permutation((9, 1, 1)), "perm[0] = 9 outside 1..3"),
            (lambda: Permutation((-(2**63), 1)), f"perm[0] = {-(2**63)} outside 1..2"),
            (lambda: make_shuffle((1, 2), (0.5, 0.5), (1, 2**63 - 1)), f"signs[1] = {2**63 - 1} is not -1 or 1"),
            (
                lambda: Permutation((2**64, 1)),
                f"perm[0] = {2**64} is outside the int64 range [{-(2**63)}, {2**63 - 1}]",
            ),
            (lambda: make_shuffle((1, 2), (0.5, 0.5), (1, -(2**70))), f"signs[1] = {-(2**70)} is outside the int64"),
            (lambda: SimplexWeights((0.5, 10**400)), "weights[1] = 1000"),
        ],
    )
    def test_errors_name_the_entry_and_the_bound(self, build, shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            build()

    @pytest.mark.parametrize(
        "build,index",
        [
            (lambda ok: Permutation(ok[:-1] + [7]), 99_999),
            (lambda ok: Permutation(ok[:-1] + [1]), 99_999),
            (lambda ok: SimplexWeights([1e-5] * 50_000 + [math.nan] + [1e-5] * 49_999), 50_000),
            (lambda ok: make_shuffle(ok, [1e-5] * 100_000, [1] * 99_999 + [3]), 99_999),
            (lambda ok: SimplexWeights(np.array(ok, dtype=float)), None),
            (lambda ok: make_shuffle(ok, [1e-5] * 100_000, [1.0] * 100_000), 0),
        ],
    )
    def test_long_input_messages_stay_short(self, build, index):
        """A bad 10^5-piece input names its first offending entry in a short
        message instead of printing every entry."""
        with pytest.raises(ValueError) as info:
            build(list(range(1, 100_001)))
        message = str(info.value)
        assert len(message) < 200
        assert index is None or f"[{index}]" in message


    @pytest.mark.parametrize(
        "tau,rho,shown",
        [("0.2", True, "tau must be a real number, got '0.2'"), (0.2, True, "rho must be a real number, got True")],
    )
    def test_region_point_reads_real_coordinates(self, tau, rho, shown):
        """A str or a bool is not cast to a coordinate; an int, a numpy scalar
        and a 0-d array are, to a Python float."""
        with pytest.raises(ValueError, match=re.escape(shown)):
            RegionPoint(tau, rho)
        point = RegionPoint(np.float64(0.2), np.array(1))
        assert point == RegionPoint(0.2, 1.0) and type(point.tau) is type(point.rho) is float


class TestValueSemantics:
    def test_a_writeable_source_array_is_copied(self):
        images, u, e = np.array([2, 1]), np.array([0.25, 0.75]), np.array([1, -1])
        sh = make_shuffle(images, u, e)
        images[:], u[:], e[:] = (1, 2), (0.5, 0.5), (1, 1)
        assert sh == make_shuffle((2, 1), (0.25, 0.75), (1, -1))

    def test_arrays_handed_out_are_read_only(self, four_segment):
        arrays = (*four_segment.as_arrays(), *four_segment.perm.as_arrays(), *four_segment.weights.as_arrays())
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        for arr in pickle.loads(pickle.dumps(four_segment)).as_arrays():
            assert not arr.flags.writeable
        with pytest.raises(AttributeError):
            four_segment.signs = (1, 1, 1, 1)

    def test_equal_and_hashed_alike_from_every_input_kind(self, four_segment):
        perm, u, e = (4, 2, 1, 3), (1 / 8, 3 / 8, 1 / 4, 1 / 4), (1, -1, 1, 1)
        built = [make_shuffle(c(perm), c(u), c(e)) for c in CONTAINERS]
        built.append(shuffle_from_dict(json.loads(json.dumps(shuffle_to_dict(four_segment)))))
        built.append(pickle.loads(pickle.dumps(four_segment)))
        for sh in built:
            assert sh == four_segment and hash(sh) == hash(four_segment)
            assert (sh.perm.images, sh.weights.u, sh.signs) == (perm, u, e)
        assert len({four_segment, *built}) == 1
        assert hash(SimplexWeights((-0.0, 1.0))) == hash(SimplexWeights((0.0, 1.0)))

    def test_one_ulp_makes_a_difference(self, four_segment):
        u = four_segment.weights.as_arrays()[0]
        moved = make_shuffle((4, 2, 1, 3), (u[0], np.nextafter(u[1], 1.0), u[2], u[3]), (1, -1, 1, 1))
        assert moved != four_segment and moved.weights != four_segment.weights
        assert moved.perm == four_segment.perm
        assert flip(four_segment) != four_segment and four_segment != four_segment.perm

    def test_n_is_a_python_int(self, four_segment):
        for value in (four_segment, four_segment.perm, four_segment.weights):
            assert type(value.n) is int and value.n == 4
        assert type(four_segment.perm(1)) is int


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
