"""The check battery itself: reports, helpers, determinism, and small runs."""

import itertools
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from taurho import verify
from taurho import (
    Permutation,
    VerificationReport,
    ab_values,
    canonicalize,
    check_almost_decreasing_classification,
    check_delta_construction,
    check_main_inequality,
    check_minimizer_structure,
    check_perturbation_identities,
    check_swap_descent,
    check_triangle_inequality,
    find_pattern,
    fisher_yates,
    inversion_data,
    make_shuffle,
    random_shuffle,
    random_simplex,
    theta,
)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestHelpers:
    def test_fisher_yates_is_deterministic(self):
        a = fisher_yates(_rng(42), 8)
        b = fisher_yates(_rng(42), 8)
        assert a == b

    def test_fisher_yates_reaches_everything(self):
        rng = _rng(1)
        seen = {fisher_yates(rng, 3).images for _ in range(200)}
        assert len(seen) == 6

    def test_random_simplex(self):
        u = random_simplex(_rng(0), 12)
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(u > 0)

    def test_random_shuffle_signs(self):
        rng = _rng(9)
        straight = random_shuffle(rng, n_max=6, mixed_signs=False)
        assert set(straight.signs) == {1}
        signs = set()
        for _ in range(20):
            signs.update(random_shuffle(rng, n_max=6).signs)
        assert signs == {1, -1}

    @pytest.mark.parametrize(
        "images,pattern,hit",
        [
            ((2, 1, 3), (1, 2, 3), None),
            ((1, 3, 2), (1, 2, 3), None),
            ((1, 2, 3), (1, 2, 3), (1, 2, 3)),
            ((3, 4, 1, 2), (3, 4, 1, 2), (1, 2, 3, 4)),
            ((2, 4, 1, 3), (3, 4, 1, 2), None),
            ((5, 3, 4, 1, 2), (2, 3, 1), (2, 3, 4)),
        ],
    )
    def test_find_pattern(self, images, pattern, hit):
        assert find_pattern(Permutation(images), pattern) == hit


class TestReport:
    def test_plain_python_types(self):
        r = VerificationReport(
            check_name="x",
            instances_tested=np.int64(3),
            worst_margin=np.float64(-0.5),
            worst_witness="{}",
            passed=np.bool_(True),
        )
        assert type(r.instances_tested) is int
        assert type(r.worst_margin) is float
        assert type(r.passed) is bool

    def test_as_dict_round_trips_through_json(self):
        r = VerificationReport("c", 1, 0.0, "{}", True, "note")
        assert json.loads(json.dumps(r.as_dict()))["check_name"] == "c"


def _is_prototype_shaped(perm: Permutation, u: np.ndarray, tol: float = 1e-9) -> bool:
    """Reference classifier: whether (perm, u) is a prototype up to
    representation.

    Canonicalizing the all-ascending shuffle merges split segments
    (adjacent positions with consecutive ascending images carry the same
    pair/triple statistics as one piece) and drops zero weights; the
    result must be a decreasing permutation with weights (r, ..., r, y),
    y <= r, after sorting.
    """
    sh = canonicalize(make_shuffle(perm, tuple(u), (1,) * len(u)))
    imgs = sh.perm.images
    if any(a <= b for a, b in zip(imgs, imgs[1:])):
        return False
    v = np.sort(np.asarray(sh.weights.u))[::-1]
    if len(v) >= 2 and v[0] - v[-2] > tol:
        return False
    return True


def _reference_shapes(images, k):
    return [
        _is_prototype_shaped(Permutation(tuple(int(v) for v in im)), kk / kk.sum())
        for im, kk in zip(images, k)
    ]


def _notes_counts(notes):
    found = re.search(
        r"(\d+) prototype-shaped, (\d+) flat .*?(\d+) unexpected; (\d+) prototype lattice", notes
    )
    return tuple(int(v) for v in found.groups())


class TestMainInequality:
    def test_small_sweep_passes(self):
        r = check_main_inequality(4, 6)
        assert r.passed
        assert r.worst_margin >= -1e-10
        assert "0 unexpected" in r.notes

    def test_witness_reproduces_margin(self):
        r = check_main_inequality(4, 6)
        w = json.loads(r.worst_witness)

        a, b = ab_values(Permutation(tuple(w["perm"])), np.array(w["u"]))
        assert b - theta(min(a, 0.5)) == pytest.approx(r.worst_margin, abs=1e-14)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            check_main_inequality(7, 40)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            check_main_inequality(1, 10)
        with pytest.raises(ValueError):
            check_main_inequality(4, 1)

    @pytest.mark.parametrize("n_max, grid_steps", [(5, 10), (6, 6)])
    def test_classifier_matches_canonicalize_on_the_sweep(self, monkeypatch, n_max, grid_steps):
        """Every non-flat equality point of the sweep gets the verdict of
        the canonicalize-based reference."""
        seen = []

        def spy(images, k):
            got = classify(images, k)
            seen.append(got)
            assert got.tolist() == _reference_shapes(images, k)
            return got

        classify = verify._prototype_shaped
        monkeypatch.setattr(verify, "_prototype_shaped", spy)
        r = check_main_inequality(n_max, grid_steps)
        shaped, _, other, _ = _notes_counts(r.notes)
        verdicts = np.concatenate(seen)
        assert len(verdicts) == shaped + other > 1000
        assert verdicts.sum() == shaped and other == 0

    def test_classifier_matches_canonicalize_on_random_rows(self):
        """Random lattice rows with zeros, n <= 7: half on random
        permutations, half on decreasing runs of ascending blocks (the
        shapes canonicalize merges) with block sums near (r, ..., r, y)."""
        rng = _rng(6)
        verdicts = []
        for n in range(2, 8):
            images, ks = [], []
            for t in range(500):
                if t % 2:
                    images.append(rng.permutation(n) + 1)
                    ks.append(rng.integers(0, 4, n) * (rng.random(n) < 0.7))
                else:
                    cuts = np.flatnonzero(rng.random(n - 1) < 0.5) + 1
                    blocks = np.split(np.arange(1, n + 1), cuts)[::-1]
                    images.append(np.concatenate(blocks))
                    k = rng.integers(0, 2, n) * 2
                    k[rng.integers(0, n)] += rng.integers(-1, 2)
                    ks.append(np.maximum(k, 0))
                if ks[-1].sum() == 0:
                    ks[-1][rng.integers(0, n)] = 1
            images, ks = np.array(images), np.array(ks)
            got = verify._prototype_shaped(images, ks)
            assert got.tolist() == _reference_shapes(images, ks), n
            verdicts.append(got)
        verdicts = np.concatenate(verdicts)
        assert 500 < verdicts.sum() < len(verdicts) - 500

    def test_scaled_ab_is_exact(self):
        """a*g^2 and b*g^3 of every permutation with n <= 5 at every lattice
        point with g = 6 equal the pair and triple polynomials of ab_values
        evaluated exactly in fractions."""
        g = 6
        for n in range(2, 6):
            perms, _, _, scaled_ab = verify._incidence(n)
            (k,) = verify._compositions(g, n, 10**6)
            a_int, b_int = scaled_ab(k)
            assert a_int.shape == b_int.shape == (math.factorial(n), math.comb(g + n - 1, n - 1))
            u = np.array([[Fraction(int(v), g) for v in kk] for kk in k], dtype=object)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            triples = list(itertools.combinations(range(1, n + 1), 3))
            pair_terms = {t: u[:, t[0] - 1] * u[:, t[1] - 1] for t in pairs}
            triple_terms = {t: pair_terms[t[:2]] * u[:, t[2] - 1] for t in triples}
            for p, images in enumerate(perms):
                data = inversion_data(Permutation(tuple(int(v) for v in images)))
                a = sum((pair_terms[t] for t in sorted(data.pairs)), np.full(len(k), Fraction(0)))
                b = sum((triple_terms[t] for t in sorted(data.triples)), np.full(len(k), Fraction(0)))
                assert (a * g**2 == a_int[p]).all() and (b * g**3 == b_int[p]).all()

    def test_compositions_in_lex_order_and_blocks(self):
        for total, parts in [(0, 2), (5, 2), (4, 3), (6, 5)]:
            expect = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
            for rows in (1, 2, 7, 1000):
                blocks = list(verify._compositions(total, parts, rows))
                assert all(1 <= len(b) <= rows for b in blocks)
                assert np.concatenate(blocks).tolist() == [list(c) for c in expect]

    def test_block_size_does_not_change_the_report(self, monkeypatch):
        full = check_main_inequality(5, 7)
        monkeypatch.setattr(verify, "_SWEEP_ENTRIES", 7)
        assert check_main_inequality(5, 7) == full

    def test_unexpected_points_are_listed_in_sweep_order(self, monkeypatch):
        """With every equality point declared unexpected, the notes count
        them all and list the first five in (n, permutation, lattice row)
        order, as a plain loop over ab_values finds them; tiny blocks make
        the order cross block boundaries."""
        monkeypatch.setattr(verify, "_prototype_shaped", lambda images, k: np.zeros(len(k), bool))
        monkeypatch.setattr(verify, "_SWEEP_ENTRIES", 5)
        r = check_main_inequality(4, 6)
        expect = []
        for n in range(2, 5):
            for images in itertools.permutations(range(1, n + 1)):
                for kk in next(verify._compositions(6, n, 10**6)):
                    u = kk / 6
                    a, b = ab_values(Permutation(images), u)
                    if abs(b - theta(min(a, 0.5))) <= 1e-12 and b > 1e-12:
                        expect.append({"n": n, "perm": list(images), "u": u.tolist()})
        assert _notes_counts(r.notes)[:3] == (0, 1488, len(expect))
        assert r.notes.endswith("unexpected samples: " + json.dumps(expect[:5], sort_keys=True))
        assert r.passed

    def test_seven_pieces_pinned(self):
        """The n = 7 sweep, counts as the canonicalize-based sweep found them."""
        r = check_main_inequality(7, 8)
        assert r.passed and -1e-10 <= r.worst_margin <= 1e-12
        assert r.instances_tested == 16_125_408
        assert _notes_counts(r.notes) == (254_332, 4_146_231, 0, 9)

    @pytest.mark.parametrize("n_max, grid_steps", [(2, 10**6), (3, 2000)])
    def test_fine_lattices_run_in_bounded_time_and_memory(self, n_max, grid_steps):
        """No table over all a*g^2 (up to 2.5e11 at g = 10^6) and no whole
        lattice in memory; b*g^3 stays below g^3 = 8e9 at g = 2000, far
        below 2^53."""
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            r = check_main_inequality(n_max, grid_steps)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed and "0 unexpected" in r.notes
        assert elapsed < 30.0
        assert peak < 32 * 2**20


def _ref_e2(u):
    return float((u.sum() ** 2 - (u * u).sum()) / 2.0)


def _ref_e3(u):
    p1 = float(u.sum())
    p2 = float((u * u).sum())
    p3 = float((u**3).sum())
    return (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _ref_project_to_level(u, c2):
    """Reference: the sequential projection of one point, as the check
    ran it before its descent went lockstep."""
    n = len(u)
    if abs(_ref_e2(u) - c2) <= 1e-15:
        return u
    if _ref_e2(u) < c2:
        v = np.full(n, 1.0 / n)
    else:
        v = np.zeros(n)
        v[0] = 1.0
    target_sq = 1.0 - 2.0 * c2
    s_uu = float(u @ u)
    s_uv = float(u @ v)
    s_vv = float(v @ v)
    a = s_uu - 2.0 * s_uv + s_vv
    b = 2.0 * (s_uv - s_uu)
    c = s_uu - target_sq
    if a <= 1e-30:
        alpha = -c / b if b != 0.0 else 0.0
    else:
        disc = max(b * b - 4.0 * a * c, 0.0)
        roots = [(-b - math.sqrt(disc)) / (2.0 * a), (-b + math.sqrt(disc)) / (2.0 * a)]
        inside = [r for r in roots if -1e-12 <= r <= 1.0 + 1e-12]
        alpha = min(inside, key=abs) if inside else min(roots, key=lambda r: abs(r - 0.5))
    alpha = min(1.0, max(0.0, alpha))
    w = (1.0 - alpha) * u + alpha * v
    w = np.maximum(w, 0.0)
    return w / w.sum()


def _ref_descend_on_level(u, c2, max_sweeps=300):
    """Reference: the sequential coordinate descent from one start."""
    n = len(u)
    best = _ref_e3(u)
    triples = list(itertools.combinations(range(n), 3))
    for _ in range(max_sweeps):
        improved = False
        for (i, j, k) in triples:
            delta = np.zeros(n)
            delta[i] = u[j] - u[k]
            delta[j] = u[k] - u[i]
            delta[k] = u[i] - u[j]
            for signed in (delta, -delta):
                scale = float(np.max(np.abs(signed)))
                if scale <= 1e-14:
                    continue
                neg = signed < 0.0
                h_max = float(np.min(u[neg] / -signed[neg])) if neg.any() else 1.0 / scale
                if h_max <= 1e-14:
                    continue
                h = h_max
                for _ in range(40):
                    w = _ref_project_to_level(np.maximum(u + h * signed, 0.0), c2)
                    val = _ref_e3(w)
                    if val < best - 1e-15:
                        u, best = w, val
                        improved = True
                        break
                    h /= 2.0
                    if h < 1e-12 * h_max:
                        break
        if not improved:
            return u, True
    return u, False


def _ref_minimizer_structure(n, levels):
    """Reference: the check with one sequential descent per start."""
    from taurho.realize import prototype_for_tau

    a_max = (1.0 - 1.0 / n) / 2.0
    worst, worst_info, notes_parts, all_converged = math.inf, {}, [], True
    seeds_raw = list(np.concatenate(list(verify._compositions(12, n, 10**6))) / 12.0)
    for lvl in range(1, levels + 1):
        c2 = a_max * lvl / levels
        candidates = [_ref_project_to_level(s.copy(), c2) for s in seeds_raw]
        proto = prototype_for_tau(1.0 - 4.0 * c2)
        if proto.n <= n:
            seed = np.zeros(n)
            seed[: proto.n - 1] = proto.r
            seed[proto.n - 1] = max(0.0, 1.0 - (proto.n - 1) * proto.r)
            candidates.append(_ref_project_to_level(seed, c2))
        candidates.sort(key=_ref_e3)
        best_u, best_val, converged = None, math.inf, True
        seen, starts = set(), 0
        for cand in candidates:
            key = tuple(np.round(np.sort(cand), 9))
            if key in seen:
                continue
            seen.add(key)
            u_fin, ok = _ref_descend_on_level(cand, c2)
            val = _ref_e3(u_fin)
            if val < best_val:
                best_u, best_val, converged = u_fin, val, ok
            starts += 1
            if starts >= 10:
                break
        all_converged = all_converged and converged
        v = np.sort(best_u)[::-1]
        m = int((v > 1e-6).sum())
        spread = float(v[0] - v[m - 2]) if m >= 2 else 0.0
        tail = float(v[m:].max()) if m < n else 0.0
        theta_dev = abs(best_val - theta(min(c2, 0.5)))
        margin = -max(spread, tail, theta_dev) if converged else -math.inf
        if margin < worst:
            worst = margin
            worst_info = {
                "n": n,
                "c2": c2,
                "minimizer": [float(x) for x in best_u],
                "e3": best_val,
                "theta": theta(min(c2, 0.5)),
            }
        notes_parts.append(f"c2={c2:.6g}: spread={spread:.2e}, theta_dev={theta_dev:.2e}")
    notes = "; ".join(notes_parts)
    if not all_converged:
        notes += "; WARNING: descent did not converge on some level"
    return VerificationReport(
        check_name="minimizer_structure",
        instances_tested=levels,
        worst_margin=worst,
        worst_witness=json.dumps(worst_info, sort_keys=True),
        passed=worst >= -1e-6 and all_converged,
        notes=notes,
    )


def _level_notes(notes):
    return re.findall(r"c2=([^:]+): spread=([^,]+), theta_dev=([^;]+)", notes)


class TestMinimizer:
    def test_three_pieces_match_the_sequential_reference(self):
        assert check_minimizer_structure(3, 4) == _ref_minimizer_structure(3, 4)

    def test_four_pieces_match_the_sequential_reference(self):
        got, ref = check_minimizer_structure(4, 4), _ref_minimizer_structure(4, 4)
        assert got.passed == ref.passed
        assert ("WARNING" in got.notes) == ("WARNING" in ref.notes)
        got_levels, ref_levels = _level_notes(got.notes), _level_notes(ref.notes)
        assert len(got_levels) == len(ref_levels) == 4
        for (c2, spread, theta_dev), (c2_ref, spread_ref, theta_dev_ref) in zip(got_levels, ref_levels):
            assert (c2, theta_dev) == (c2_ref, theta_dev_ref)
            assert abs(float(spread) - float(spread_ref)) <= 1e-8

    @pytest.mark.parametrize("n, max_sweeps", [(3, 300), (4, 300), (4, 2), (5, 4)])
    def test_lockstep_descent_matches_one_start_at_a_time(self, n, max_sweeps):
        """Seeded starts on several levels, some on a face of the simplex;
        with few sweeps some of them do not converge."""
        rng = _rng(n)
        a_max = (1.0 - 1.0 / n) / 2.0
        u = rng.dirichlet(np.ones(n), 6) * (rng.random((6, n)) < 0.8)
        u[:, 0] += 1e-3
        u /= u.sum(axis=1, keepdims=True)
        c2 = a_max * rng.uniform(0.1, 1.0, 6)
        starts = np.array([_ref_project_to_level(s, c) for s, c in zip(u, c2)])
        points, converged = verify._descend_on_level(starts, c2, max_sweeps)
        for s, c, point, ok in zip(starts, c2, points, converged):
            ref_point, ref_ok = _ref_descend_on_level(s, c, max_sweeps)
            assert ok == ref_ok
            assert np.array_equal(point, ref_point)
        if max_sweeps < 300:
            assert not converged.all()
        else:
            assert converged.all()

    def test_projection_matches_one_point_at_a_time(self):
        rng = _rng(8)
        for n in (3, 4, 6):
            u = rng.dirichlet(np.ones(n), 200) * (rng.random((200, n)) < 0.7)
            u[:, 0] += 1e-9
            u /= u.sum(axis=1, keepdims=True)
            c2 = (1.0 - 1.0 / n) / 2.0 * rng.random(200)
            c2[:20] = [_ref_e2(row) for row in u[:20]]  # already on the level
            got = verify._project_to_level(u, c2)
            assert np.array_equal(got, [_ref_project_to_level(s, c) for s, c in zip(u, c2)])

    def test_structure_holds(self):
        for n in (3, 4):
            r = check_minimizer_structure(n, 3)
            assert r.passed, r.notes

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            check_minimizer_structure(5, 4)
        with pytest.raises(ValueError):
            check_minimizer_structure(3, 0)


class TestSampledChecks:
    def test_perturbation(self):
        r = check_perturbation_identities(100, 3)
        assert r.passed and r.instances_tested == 100

    def test_triangle(self):
        r = check_triangle_inequality(60, 3)
        assert r.passed
        assert r.instances_tested > 0

    def test_delta_construction(self):
        r = check_delta_construction(100, 3)
        assert r.passed
        assert "pattern (i)" in r.notes

    def test_swap_descent(self):
        r = check_swap_descent(100, 3)
        assert r.passed
        # the margin strictly decreased every time
        assert "smallest margin decrease" in r.notes

    def test_determinism(self):
        a = check_swap_descent(50, 11)
        b = check_swap_descent(50, 11)
        assert a == b
        c = check_perturbation_identities(50, 11)
        d = check_perturbation_identities(50, 11)
        assert c == d

    def test_sample_validation(self):
        for check in (
            check_perturbation_identities,
            check_triangle_inequality,
            check_delta_construction,
            check_swap_descent,
        ):
            with pytest.raises(ValueError, match=r"samples must be >= 1, got 0$"):
                check(0, 0)
            with pytest.raises(ValueError, match=r"got -3$"):
                check(-3, 0)

    def test_negative_seed_is_named(self):
        for check in (
            check_perturbation_identities,
            check_triangle_inequality,
            check_delta_construction,
            check_swap_descent,
        ):
            with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
                check(5, -1)

    def test_perturbation_direction_sums_to_zero(self):
        """Rescaling a centred direction can move its sum off zero by more
        than perturbation_coeffs allows; this seed did so before the
        direction was centred again."""
        assert check_perturbation_identities(1000, 676687234).passed


class TestRegistry:
    def test_run_all_checks_follows_the_registry(self, monkeypatch):
        calls = []

        def stub(name):
            def check(*args):
                calls.append((name, args))
                return VerificationReport(name, 1, 0.0, "", True)
            return check

        for name in [n for n in dir(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, stub(name))
        reports = verify.run_all_checks(5)
        assert calls == [
            ("check_main_inequality", (6, 10)),
            ("check_minimizer_structure", (3, 4)),
            ("check_minimizer_structure", (4, 4)),
            ("check_perturbation_identities", (1000, 5)),
            ("check_triangle_inequality", (500, 5)),
            ("check_delta_construction", (500, 5)),
            ("check_almost_decreasing_classification", (7,)),
            ("check_swap_descent", (500, 5)),
        ]
        assert [r.check_name for r in reports] == [c[0] for c in calls]
        assert list(verify.CHECKS) == [
            "main_inequality",
            "minimizer_structure",
            "perturbation_identities",
            "triangle_inequality",
            "delta_construction",
            "almost_decreasing_classification",
            "swap_descent",
        ]


def test_swap_descent_three_piece_example():
    """Smallest case by hand: moving the piece holding value 1 past the
    piece holding value 3 adds u2*u3 to a and removes u1*u2*u3 from b."""
    u = np.array([0.2, 0.3, 0.5])
    a0, b0 = ab_values(Permutation((2, 1, 3)), u)
    u_swapped = np.array([0.2, 0.5, 0.3])
    a1, b1 = ab_values(Permutation((2, 3, 1)), u_swapped)
    assert a1 - a0 == pytest.approx(u[1] * u[2], abs=1e-15)
    assert b1 - b0 == pytest.approx(-u[1] * u[2] * u[0], abs=1e-15)


def test_almost_decreasing_exhaustive_small():
    r = check_almost_decreasing_classification(5)
    assert r.passed
    assert r.instances_tested == 1 + 2 + 6 + 24 + 120
    with pytest.raises(ValueError):
        check_almost_decreasing_classification(0)
    with pytest.raises(ValueError):
        check_almost_decreasing_classification(9)
