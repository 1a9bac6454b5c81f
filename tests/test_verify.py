"""The check battery itself: reports, helpers, determinism, and small runs."""

import collections
import itertools
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from taurho import concordance, verify
from taurho import (
    Permutation,
    Shuffle,
    SimplexWeights,
    VerificationReport,
    ab_values,
    check_almost_decreasing_classification,
    check_delta_construction,
    check_main_inequality,
    check_minimizer_structure,
    check_perturbation_identities,
    check_swap_descent,
    check_triangle_inequality,
    find_pattern,
    inversion_data,
    make_shuffle,
    perturbation_coeffs,
    theta,
)
from conftest import coeffs_one, fisher_yates, random_shuffle, random_simplex, tensors_loop


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

    @pytest.mark.parametrize("pattern", [(1, 1), ()])
    def test_find_pattern_rejects_what_is_not_a_permutation(self, pattern):
        with pytest.raises(ValueError, match=re.escape(f"pattern {pattern!r} is not a permutation")):
            find_pattern(Permutation((3, 1, 2, 4)), pattern)


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

    def test_fields_are_read_not_cast(self):
        """A str, a bool or a fraction is not an instance count, a str not a
        margin, and only a bool or a numpy bool is a verdict."""
        for args, match in (
            (("5", 0.1, "w", True), "instances_tested must be an integer, got '5'"),
            ((True, 0.1, "w", True), "instances_tested must be an integer, got True"),
            ((5.5, 0.1, "w", True), "instances_tested must be an integer, got 5.5"),
            ((5, "0.1", "w", True), "worst_margin must be a real number, got '0.1'"),
            ((5, 0.1, "w", "no"), "passed must be a bool, got 'no'"),
            ((5, 0.1, "w", 1), "passed must be a bool, got 1"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
                VerificationReport("x", *args)

    def test_as_dict_round_trips_through_json(self):
        r = VerificationReport("c", 1, 0.0, "{}", True, "note")
        assert json.loads(json.dumps(r.as_dict()))["check_name"] == "c"


_ZERO_WEIGHT = 1e-12


def canonicalize(shuffle: Shuffle) -> Shuffle:
    """Minimal representation: drop zero pieces, merge continuing runs.

    Adjacent pieces merge when one linear branch continues through their
    shared cut: equal signs with target slots adjacent in the same
    direction (ascending for +1, descending for -1).  Idempotent, and a
    bit-exact pass-through for inputs already in canonical form.  The
    reference that ``verify._prototype_shaped`` is checked against.
    """
    u = shuffle.weights.as_arrays()[0]
    total = float(u.sum())
    keep = (u / total) > _ZERO_WEIGHT
    if not keep.any():  # pragma: no cover - sum constraint makes this unreachable
        keep[int(np.argmax(u))] = True
    dropped = not keep.all()

    imgs = [v for v, k in zip(shuffle.perm.images, keep) if k]
    ws = [float(v) for v, k in zip(u, keep) if k]
    es = [v for v, k in zip(shuffle.signs, keep) if k]
    if dropped:
        order = sorted(imgs)
        imgs = [order.index(v) + 1 for v in imgs]
        scale = sum(ws)
        ws = [v / scale for v in ws]

    # Single left-to-right pass; each block remembers its slot range.
    blocks: list[list] = []  # [img_lo, img_hi, weight, sign]
    for img, w, e in zip(imgs, ws, es):
        if blocks:
            lo, hi, bw, be = blocks[-1]
            if e == be == 1 and img == hi + 1:
                blocks[-1] = [lo, img, bw + w, be]
                continue
            if e == be == -1 and img == lo - 1:
                blocks[-1] = [img, hi, bw + w, be]
                continue
        blocks.append([img, img, w, e])

    merged = len(blocks) != len(imgs)
    if not (dropped or merged):
        return shuffle

    los = [b[0] for b in blocks]
    rank = {lo: i + 1 for i, lo in enumerate(sorted(los))}
    new_p = tuple(rank[b[0]] for b in blocks)
    new_w = np.array([b[2] for b in blocks])
    new_w = new_w / new_w.sum()
    new_e = tuple(b[3] for b in blocks)
    return Shuffle(Permutation(new_p), SimplexWeights(tuple(new_w)), new_e)


class TestCanonicalize:
    def test_merges_and_drops(self, four_segment):
        messy = make_shuffle(
            (5, 3, 1, 2, 4),
            (1 / 8, 3 / 8, 1 / 8, 1 / 8, 1 / 4),
            (1, -1, 1, 1, 1),
        )
        assert canonicalize(messy) == four_segment

    def test_passthrough_is_bit_exact(self, four_segment):
        assert canonicalize(four_segment) is four_segment

    def test_drops_zero_weights(self):
        sh = make_shuffle((3, 1, 2), (0.5, 0.0, 0.5), (1, 1, 1))
        c = canonicalize(sh)
        assert c.perm.images == (2, 1)
        np.testing.assert_allclose(c.weights.u, (0.5, 0.5))

    def test_reflected_merge_needs_descending_images(self):
        # adjacent -1 pieces glue when images step downward
        sh = make_shuffle((2, 1), (0.5, 0.5), (-1, -1))
        c = canonicalize(sh)
        assert c.n == 1 and c.signs == (-1,)

    def test_idempotent(self, rng):
        for _ in range(30):
            sh = random_shuffle(rng, n_max=7)
            once = canonicalize(sh)
            assert canonicalize(once) is once


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
            weights.append([sizes[tuple(im)] for im in images.tolist()])
            return got

        sizes = {}
        for n in range(2, n_max + 1):
            reps, counts = verify._orbits(n)
            sizes.update(zip(map(tuple, reps.tolist()), counts.tolist()))
        weights = []
        classify = verify._prototype_shaped
        monkeypatch.setattr(verify, "_prototype_shaped", spy)
        r = check_main_inequality(n_max, grid_steps)
        shaped, _, other, _ = _notes_counts(r.notes)
        # each verdict stands for its permutation's whole orbit
        verdicts, weights = np.concatenate(seen), np.concatenate(weights)
        assert weights.sum() == shaped + other > 1000
        assert weights[verdicts].sum() == shaped and other == 0

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
            perms = np.array(list(itertools.permutations(range(1, n + 1))))
            inverted, cyclic = (mask.astype(float) for mask in concordance._incidence(perms))
            (k,) = verify._compositions(g, n, 10**6)
            a_int, b_int = concordance._ab(inverted, cyclic, k)
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

    @pytest.mark.parametrize("n, count", [(2, 2), (3, 4), (4, 13), (5, 45), (6, 230), (7, 1388)])
    def test_orbits_partition_the_permutations(self, n, count):
        """The representatives are the lex-first members of disjoint orbits
        that cover every permutation, with their sizes; the orbits are
        closed under both maps, applied by hand."""
        reps, sizes = verify._orbits(n)
        assert len(reps) == count and sizes.sum() == math.factorial(n)
        inverse = lambda p: tuple(sorted(range(1, n + 1), key=lambda i: p[i - 1]))
        reverse_complement = lambda p: tuple(n + 1 - v for v in reversed(p))
        covered = set()
        for rep, size in zip(map(tuple, reps.tolist()), sizes.tolist()):
            orbit = {rep, inverse(rep), reverse_complement(rep), reverse_complement(inverse(rep))}
            assert min(orbit) == rep and len(orbit) == size and not orbit & covered
            covered |= orbit
        assert len(covered) == math.factorial(n)
        assert reps.tolist() == sorted(reps.tolist())

    def test_symmetries_keep_a_b_and_the_shape(self):
        """Exhaustively for n <= 6 at g = 6: each of the four maps sends
        every entry (permutation, k) to an entry with the same integer a*g^2
        and b*g^3 and the same prototype-shape verdict."""
        g = 6
        for n in range(2, 7):
            perms = np.array(list(itertools.permutations(range(1, n + 1))))
            (k,) = verify._compositions(g, n, 10**6)
            a, b = concordance._ab(*(m.astype(float) for m in concordance._incidence(perms)), k)
            p, r = (v.ravel() for v in np.indices(a.shape))
            shaped = verify._prototype_shaped(perms[p], k[r]).reshape(a.shape)
            for images, ks in zip(*verify._symmetric_images(perms[p], k[r])):
                # both tables are in lex order, so their base-(max + 1) codes increase
                q, s = (
                    np.searchsorted(table @ base ** np.arange(n)[::-1], rows @ base ** np.arange(n)[::-1])
                    for table, rows, base in ((perms, images, n + 1), (k, ks, g + 1))
                )
                assert np.array_equal(perms[q], images) and np.array_equal(k[s], ks)
                for table in (a, b, shaped):
                    assert np.array_equal(table[q, s], table[p, r])

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

    @pytest.mark.parametrize("n_max, grid_steps, block", [(4, 8, 7), (5, 4, 3), (6, 3, 50)])
    def test_unexpected_samples_are_distinct_across_blocks(self, monkeypatch, n_max, grid_steps, block):
        """With every equality point declared unexpected, the five listed
        are the first five distinct points in sweep order, as a loop over
        all permutations finds them, though blocks meet the same point
        through different representatives."""
        monkeypatch.setattr(verify, "_prototype_shaped", lambda images, k: np.zeros(len(k), bool))
        monkeypatch.setattr(verify, "_SWEEP_ENTRIES", block)
        r = check_main_inequality(n_max, grid_steps)
        expect = []
        for n in range(2, n_max + 1):
            perms = np.array(list(itertools.permutations(range(1, n + 1))))
            (k,) = verify._compositions(grid_steps, n, 10**6)
            a, b = concordance._ab(*(m.astype(float) for m in concordance._incidence(perms)), k)
            a, b = a / grid_steps**2, b / grid_steps**3
            margins = b - theta(np.minimum(a, 0.5))
            p, q = np.nonzero((np.abs(margins) <= 1e-12) & (b > 1e-12))
            expect += [{"n": n, "perm": perms[i].tolist(), "u": (k[j] / grid_steps).tolist()} for i, j in zip(p, q)]
        assert _notes_counts(r.notes)[2] == len(expect) > 5
        assert r.notes.endswith("unexpected samples: " + json.dumps(expect[:5], sort_keys=True))

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


def _e3(u):
    p1 = u.sum(-1)
    p2 = (u * u).sum(-1)
    p3 = (u**3).sum(-1)
    return (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _project_to_level(u, c2):
    """Exact blend of each row of ``u`` toward the centroid or a vertex so
    e2 hits c2 (broadcast against the rows).

    e2 along a straight segment of the simplex is quadratic in the blend
    parameter, so the crossing is solved in closed form rather than
    iterated.  A row already within 1e-15 of its level is returned as is.
    """
    n = u.shape[-1]
    e2 = (u.sum(-1) ** 2 - (u * u).sum(-1)) / 2.0
    v = np.where((e2 < c2)[..., None], 1.0 / n, np.arange(n) == 0)
    # row-wise inner products, summed as u @ v sums one pair: a row projects as one point does
    s_uu, s_uv, s_vv = (concordance._dot(x, y) for x, y in ((u, u), (u, v), (v, v)))
    a = s_uu - 2.0 * s_uv + s_vv
    b = 2.0 * (s_uv - s_uu)
    c = s_uu - (1.0 - 2.0 * c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        r1, r2 = (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)
        in1, in2 = ((-1e-12 <= r) & (r <= 1.0 + 1e-12) for r in (r1, r2))
        # the root inside [0, 1] nearer 0, else the root nearer 1/2; ties to r1
        take2 = np.where(in1 == in2, np.where(in1, abs(r2) < abs(r1), abs(r2 - 0.5) < abs(r1 - 0.5)), in2)
        alpha = np.where(a <= 1e-30, np.where(b != 0.0, -c / b, 0.0), np.where(take2, r2, r1))
    alpha = np.minimum(1.0, np.maximum(0.0, alpha))[..., None]
    w = np.maximum((1.0 - alpha) * u + alpha * v, 0.0)
    return np.where((abs(e2 - c2) <= 1e-15)[..., None], u, w / w.sum(-1, keepdims=True))


def _descend_on_level(u, c2, max_sweeps=300):
    """Coordinate descent for e3 on the slice {e2 = c2} of the simplex, for
    every start (row of ``u``, level ``c2``) at once.

    Steps follow the tangent directions (u_j - u_k, u_k - u_i, u_i - u_j)
    placed on index triples, first + then -, both taken from the point at
    the start of the triple.  Each step tries h = h_max * 2^-m, m < 40, all
    at once, re-projected exactly onto the level set, and takes the first
    that lowers e3 by more than 1e-15.  A start stops after a sweep with no
    step.  Returns the points and which of them converged.
    """
    u = u.copy()
    best = _e3(u)
    active = np.ones(len(u), dtype=bool)
    halvings = 2.0 ** -np.arange(40)
    for _ in range(max_sweeps):
        live = np.flatnonzero(active)
        if not live.size:
            break
        pts, vals, lvl = u[live], best[live], c2[live, None]
        improved = np.zeros(live.size, dtype=bool)
        for i, j, k in itertools.combinations(range(u.shape[1]), 3):
            delta = np.zeros_like(pts)
            delta[:, [i, j, k]] = pts[:, [j, k, i]] - pts[:, [k, i, j]]
            for signed in (delta, -delta):
                neg = signed < 0.0
                scale = abs(signed).max(axis=1)
                with np.errstate(divide="ignore"):
                    ratio = np.divide(pts, -signed, out=np.full_like(pts, np.inf), where=neg)
                    h_max = np.where(neg.any(axis=1), ratio.min(axis=1), 1.0 / scale)
                rows = np.flatnonzero((scale > 1e-14) & (h_max > 1e-14))
                h = h_max[rows, None, None] * halvings[:, None]
                trial = _project_to_level(np.maximum(pts[rows, None] + h * signed[rows, None], 0.0), lvl[rows])
                e3 = _e3(trial)
                lower = e3 < vals[rows, None] - 1e-15
                hit = lower.any(axis=1)
                first = lower[hit].argmax(axis=1)
                rows = rows[hit]
                pts[rows], vals[rows] = trial[hit, first], e3[hit, first]
                improved[rows] = True
        u[live], best[live] = pts, vals
        active[live[~improved]] = False
    return u, ~active


def _descent_minima(n, c2s):
    """Reference: the least e3 that the lockstep descent finds on each
    level.  It starts from the 455 lattice points k/12 and the analytic
    prototype seed, each projected onto the level: the up to 10 of these
    lowest in e3 that differ after sorting (to 1e-9).  Each final point
    lies on its level, converged or not, so its e3 bounds the level's
    least from above."""
    from taurho.realize import prototype_for_tau, prototype_shuffle

    lattice = np.concatenate(list(verify._compositions(12, n, 10**6))) / 12.0
    starts, start_level = [], []
    for lvl, c2 in enumerate(c2s):
        seeds = lattice
        proto = prototype_for_tau(1.0 - 4.0 * c2)
        if proto.n <= n:
            seed = np.zeros(n)
            seed[: proto.n] = prototype_shuffle(proto).weights.u
            seeds = np.vstack([lattice, seed])
        candidates = _project_to_level(seeds, c2)
        seen = set()
        for cand in candidates[np.argsort(_e3(candidates), kind="stable")]:
            key = tuple(np.round(np.sort(cand), 9))
            if key not in seen:
                seen.add(key)
                starts.append(cand)
                start_level.append(lvl)
            if len(seen) >= 10:
                break
    start_level = np.array(start_level)
    values = _e3(_descend_on_level(np.array(starts), np.asarray(c2s)[start_level])[0])
    return np.array([values[start_level == lvl].min() for lvl in range(len(c2s))])


def _ref_level_minimum(n, c2):
    """Reference: the least e3 that one sequential descent per start finds
    on the level e2 = c2, from the starts of ``_descent_minima``."""
    from taurho.realize import prototype_for_tau

    lattice = np.concatenate(list(verify._compositions(12, n, 10**6))) / 12.0
    candidates = [_ref_project_to_level(s, c2) for s in lattice]
    proto = prototype_for_tau(1.0 - 4.0 * c2)
    if proto.n <= n:
        seed = np.zeros(n)
        seed[: proto.n - 1] = proto.r
        seed[proto.n - 1] = max(0.0, 1.0 - (proto.n - 1) * proto.r)
        candidates.append(_ref_project_to_level(seed, c2))
    best, seen = math.inf, set()
    for cand in sorted(candidates, key=_ref_e3):
        key = tuple(np.round(np.sort(cand), 9))
        if key not in seen:
            seen.add(key)
            best = min(best, _ref_e3(_ref_descend_on_level(cand, c2)[0]))
        if len(seen) >= 10:
            return best
    return best


def _candidates_loop(n, c2):
    """Every point with k entries x, j entries y and the rest 0 on the
    level e2 = c2, solved one (k, j) at a time from the quadratic
    k(k + j) x^2 - 2k x + 1 - j(1 - 2 c2) = 0, both roots, in floats."""
    p2 = 1.0 - 2.0 * c2
    points = []
    for k in range(1, n + 1):
        for j in range(0, n - k + 1):
            disc = k * k - k * (k + j) * (1.0 - j * p2)
            if disc < -1e-12:
                continue
            for sign in (1.0, -1.0):
                x = (k + sign * math.sqrt(max(disc, 0.0))) / (k * (k + j))
                y = (1.0 - k * x) / j if j else 0.0
                u = np.array([x] * k + [y] * j + [0.0] * (n - k - j))
                if u.min() >= -1e-12 and abs(_ref_e2(u) - c2) <= 1e-9:
                    points.append(u)
    return np.array(points)


class TestMinimizer:
    @pytest.mark.parametrize("n", [3, 4])
    def test_no_worse_than_the_descent(self, n):
        """For each ladder of 1, 2, 4 and 7 levels, the least candidate's
        e3 is at most the descent's + 1e-15 and within 1e-15 of theta(c2)."""
        for levels in (1, 2, 4, 7):
            c2s, points, e3 = verify._level_minima(n, levels)
            descent = _descent_minima(n, c2s)
            assert np.all(e3 <= descent + 1e-15), (levels, e3 - descent)
            assert np.all(np.abs(e3 - theta(c2s)) <= 1e-15), levels
            assert check_minimizer_structure(n, levels).passed

    def test_three_pieces_match_the_sequential_reference(self):
        c2s, _, e3 = verify._level_minima(3, 4)
        assert np.all(e3 <= [_ref_level_minimum(3, c2) + 1e-15 for c2 in c2s])

    def test_four_pieces_match_the_sequential_reference(self):
        c2s, _, e3 = verify._level_minima(4, 4)
        assert np.all(e3 <= [_ref_level_minimum(4, c2) + 1e-15 for c2 in c2s])

    def test_least_candidate_is_the_least_of_the_loop(self):
        """The vectorised candidate set has the least e3 of a loop that
        solves each (k, j) quadratic for both roots in floats, and its
        point lies on the level set of the simplex."""
        for n in (2, 3, 5, 8, 12):
            c2s, points, e3 = verify._level_minima(n, 7)
            for c2, point, value in zip(c2s, points, e3):
                loop = _candidates_loop(n, c2)
                assert value <= _e3(loop).min() + 1e-15, (n, c2)
                assert abs(point.sum() - 1.0) <= 1e-15 and point.min() >= 0.0
                assert abs(_ref_e2(point) - c2) <= 1e-15 and abs(_ref_e3(point) - value) <= 1e-15
                assert np.all(np.diff(point) <= 0.0)

    def test_top_level_is_the_centroid(self):
        """At c2 = (1 - 1/n)/2 the two roots merge: the least candidate is
        u = 1/n exactly, with no spread."""
        for n in range(2, 13):
            c2s, points, e3 = verify._level_minima(n, 5)
            assert c2s[-1] == (n - 1) / (2 * n)
            assert np.all(points[-1] == 1.0 / n)
        assert "spread=0.00e+00" in check_minimizer_structure(7, 1).notes

    def test_every_size_passes_quickly(self):
        for n in range(3, 13):
            t0 = time.perf_counter()
            r = check_minimizer_structure(n, 7)
            elapsed = time.perf_counter() - t0
            assert r.passed and r.instances_tested == 7, r.notes
            assert elapsed < 0.01, (n, elapsed)

    def test_reports_a_misshapen_minimiser(self, monkeypatch):
        """A least candidate with two entries at its smaller value fails the
        check, with the gap as its spread."""
        def misshapen(n, levels):
            c2s, points, e3 = level_minima(n, levels)
            points[0] = [0.5, 0.25, 0.25, 0.0]
            return c2s, points, e3

        level_minima = verify._level_minima
        monkeypatch.setattr(verify, "_level_minima", misshapen)
        r = check_minimizer_structure(4, 2)
        assert not r.passed and r.worst_margin == -0.25
        assert r.notes.startswith("c2=0.1875: spread=2.50e-01")

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
        points, converged = _descend_on_level(starts, c2, max_sweeps)
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
            got = _project_to_level(u, c2)
            assert np.array_equal(got, [_ref_project_to_level(s, c) for s, c in zip(u, c2)])

    def test_structure_holds(self):
        for n in (3, 4):
            r = check_minimizer_structure(n, 3)
            assert r.passed, r.notes

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            check_minimizer_structure(1, 4)
        with pytest.raises(ValueError):
            check_minimizer_structure(3, 0)
        with pytest.raises(ValueError, match="over the budget"):
            check_minimizer_structure(1500, 1)


class TestIntegerArguments:
    """Sizes and seeds must be integers: a bool or a non-integral value is
    rejected with the argument's name, not truncated; numpy integers pass."""

    def test_main_inequality(self):
        for args, name in (((3.9, 4.5), "n_max"), ((3, 4.5), "grid_steps"), ((True, 4), "n_max")):
            with pytest.raises(ValueError, match=f"^{name} "):
                check_main_inequality(*args)
        assert check_main_inequality(np.int64(3), np.int32(4)) == check_main_inequality(3, 4)

    @pytest.mark.parametrize(
        "check",
        [
            check_perturbation_identities,
            check_triangle_inequality,
            check_delta_construction,
            check_swap_descent,
        ],
    )
    def test_sampled_checks(self, check):
        bad = (((True, 2.7), "samples"), ((5.0, 2), "samples"), ((5, 2.7), "seed"), ((5, False), "seed"))
        for args, name in bad:
            with pytest.raises(ValueError, match=f"^{name} "):
                check(*args)
        assert check(np.int16(5), np.uint8(2)) == check(5, 2)

    def test_almost_decreasing_classification(self):
        for value in (4.99, 4.0, True):
            with pytest.raises(ValueError, match="^l_max "):
                check_almost_decreasing_classification(value)
        assert check_almost_decreasing_classification(np.int8(4)) == check_almost_decreasing_classification(4)

    def test_minimizer_structure(self):
        for args, name in (((3.5, True), "n"), ((3, True), "levels"), ((3, 2.0), "levels")):
            with pytest.raises(ValueError, match=f"^{name} "):
                check_minimizer_structure(*args)
        assert check_minimizer_structure(np.int64(3), np.int64(2)) == check_minimizer_structure(3, 2)


class TestSampledChecks:
    def test_perturbation(self):
        r = check_perturbation_identities(100, 3)
        assert r.passed and r.instances_tested == 100

    def test_triangle(self):
        r = check_triangle_inequality(60, 3)
        assert r.passed
        assert r.instances_tested > 0

    def test_delta_construction(self):
        assert check_delta_construction(100, 3) == VerificationReport(
            "delta_construction", 41, 0.0, '{"failing_cases": 0}', True,
            "exact: 1-2-3 and 3-4-1-2 with one more piece in each place",
        )

    def test_swap_descent(self):
        r = check_swap_descent(100, 3)
        assert r.passed

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
            with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
                check(0, -1)  # the sample count is checked before the seed

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


# --- per-sample references -------------------------------------------------
# The sampled check one sample at a time: ``_drawn`` draws the check's blocks
# and hands the samples out in draw order; each is then evaluated with its
# own BLAS calls.  Pattern occurrences are found by a scan of the position
# tuples.

_BLOCK = 1 << 10  # the check's block, ``verify._SAMPLE_BLOCK``


# (n, perm) of the first five of 50 samples at seed 0
_PINNED_STREAM = [
    (9, [8, 9, 3, 2, 7, 1, 6, 4, 5]), (7, [3, 1, 6, 2, 4, 5, 7]), (6, [1, 5, 6, 3, 2, 4]),
    (4, [2, 1, 4, 3]), (4, [1, 2, 4, 3]),
]


def _drawn(samples, seed, fields, block=_BLOCK):
    """The perturbation check's samples at ``seed`` in draw order, each (n,
    u, *fields): per block, every n in [2, 10] in one draw, then per n in
    ascending order the weights, each row normalized alone, and
    ``fields(rng, count, n)``."""
    rng = _rng(seed)
    for start in range(0, samples, block):
        sizes = rng.integers(2, 11, size=min(block, samples - start)).tolist()
        rows = {}
        for n in range(2, 11):
            if sizes.count(n):
                e = rng.standard_exponential((sizes.count(n), n))
                rows[n] = zip([row / row.sum() for row in e], *fields(rng, sizes.count(n), n))
        for n in sizes:
            yield (n, *next(rows[n]))


def _permuted(rng, count, n):
    return rng.permuted(np.tile(np.arange(1, n + 1), (count, 1)), axis=1)


def _perturbation_fields(rng, count, n):
    """A permutation, a direction and a random t per sample."""
    return _permuted(rng, count, n), rng.standard_normal((count, n)), rng.uniform(-1.0, 1.0, count)


def _find_pattern_loop(perm, pattern):
    k = len(pattern)
    imgs = perm.images
    order = tuple(np.argsort(pattern))
    for positions in itertools.combinations(range(perm.n), k):
        vals = [imgs[p] for p in positions]
        ranked = sorted(range(k), key=vals.__getitem__)
        if tuple(ranked) == order:
            return tuple(p + 1 for p in positions)
    return None


def _ab_loop(perm, rows):
    """a and b of one permutation at the weight rows (r, n), or at one (n,)."""
    pairs, triples = concordance._positions(perm.n)
    inverted, cyclic = concordance._incidence(perm.images)
    return inverted @ rows.T[pairs].prod(0), cyclic @ rows.T[triples].prod(0)


def _perturbation_loop(samples, seed, block=_BLOCK):
    worst = math.inf
    worst_info: dict = {}
    for n, u, images, d, t in _drawn(samples, seed, _perturbation_fields, block):
        perm = Permutation(tuple(images.tolist()))
        d -= d.mean()
        scale = float(np.max(np.abs(d)))
        if scale > 0.0:
            d /= scale
        d -= d.mean()
        coeffs = coeffs_one(*tensors_loop(*concordance._incidence(perm.images), n), u, d)
        ts = np.array([0.5, -0.5, 1.0 / 7.0, -1.0 / 7.0, float(t)])
        a, b = _ab_loop(perm, np.vstack([u, u + ts[:, None] * d]))
        lhs = np.array([a[1:] - a[0], b[1:] - b[0]])
        rhs = np.array([
            coeffs["alpha1"] * ts + coeffs["alpha2"] * ts * ts,
            coeffs["beta1"] * ts + coeffs["beta2"] * ts * ts + coeffs["beta3"] * ts**3,
        ])
        dev = (abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))).max(axis=0)
        j = int(np.argmax(dev))
        if -dev[j] < worst:
            worst = -float(dev[j])
            worst_info = {
                "n": n,
                "perm": list(perm.images),
                "u": [float(v) for v in u],
                "delta": [float(v) for v in d],
                "t": float(ts[j]),
                "deviation": float(dev[j]),
            }
    return VerificationReport(
        check_name="perturbation_identities",
        instances_tested=samples,
        worst_margin=worst,
        worst_witness=json.dumps(worst_info, sort_keys=True),
        passed=worst >= -1e-12,
        notes="",
    )


_SAMPLED = {
    check_perturbation_identities: _perturbation_loop,
}


def _assert_same_report(got, want):
    assert (got.check_name, got.passed, got.instances_tested, got.notes, got.worst_witness) == (
        want.check_name, want.passed, want.instances_tested, want.notes, want.worst_witness
    )
    assert abs(got.worst_margin - want.worst_margin) <= 1e-15


class TestBatchedSamples:
    @pytest.mark.parametrize("check", list(_SAMPLED), ids=lambda f: f.__name__)
    def test_matches_the_per_sample_loop(self, check):
        """Seeds 0-19 at 1, 7 and 50 samples: the same report as the loop."""
        for seed in range(20):
            for samples in (1, 7, 50):
                _assert_same_report(check(samples, seed), _SAMPLED[check](samples, seed))

    @pytest.mark.parametrize(
        "check, samples",
        [
            (check_perturbation_identities, 1000),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_cli_defaults_match_the_per_sample_loop(self, check, samples):
        """The registry's call at seed 0, as ``taurho verify`` runs it."""
        (got,) = verify.CHECKS[check.__name__[len("check_"):]](0)
        _assert_same_report(got, _SAMPLED[check](samples, 0))

    @pytest.mark.parametrize("check", list(_SAMPLED), ids=lambda f: f.__name__)
    def test_blocks_of_seven_match_the_loop(self, monkeypatch, check):
        """60 samples in blocks of 7, the last one short: the report of the
        loop drawing the same blocks."""
        monkeypatch.setattr(verify, "_SAMPLE_BLOCK", 7)
        for seed in (2, 5):
            _assert_same_report(check(60, seed), _SAMPLED[check](60, seed, block=7))

    def test_blocks_bound_the_memory(self, monkeypatch):
        """The block size, not the sample count, sets the peak: 1,000
        samples in blocks of 16 stay under 0.5 MB, in one block they take
        over 2 MB."""
        peaks = []
        for block in (16, 1000):
            monkeypatch.setattr(verify, "_SAMPLE_BLOCK", block)
            tracemalloc.start()
            try:
                check_perturbation_identities(1000, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2**19 < 2**21 < peaks[1]

    def test_permutations_and_weights(self):
        """6,000 permutations of 3 reach each of the six 800-1,200 times;
        the weights are positive, each row sums to 1 within 1e-12, and the
        stacks hold every sample once."""
        counts = collections.Counter(map(tuple, verify._permutations(_rng(0), 6000, 3).tolist()))
        assert len(counts) == 6 and all(800 <= c <= 1200 for c in counts.values()), counts
        seen = []
        for index, n, u in verify._samples(6000, _rng(1), lambda rng, count, n: ()):
            assert u.shape == (len(index), n) and np.all(u > 0.0)
            assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-12
            seen += index.tolist()
        assert sorted(seen) == list(range(6000))

    def test_streams_are_pinned(self):
        """(n, perm) of the first five of 50 samples at seed 0; the check
        draws as ``_drawn`` does, so a change of its stream shows here."""
        first = itertools.islice(_drawn(50, 0, _perturbation_fields), 5)
        assert [(n, images.tolist()) for n, _, images, *_ in first] == _PINNED_STREAM


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

    def test_exact_checks_ignore_the_seed(self):
        """Only the perturbation check draws; a draw slipping back into an
        exact check would show here."""
        for name, run in verify.CHECKS.items():
            if name != "perturbation_identities":
                assert run(0) == run(12345), name


def test_swap_descent_three_piece_example():
    """Smallest case by hand: moving the piece holding value 1 past the
    piece holding value 3 adds u2*u3 to a and removes u1*u2*u3 from b."""
    u = np.array([0.2, 0.3, 0.5])
    a0, b0 = ab_values(Permutation((2, 1, 3)), u)
    u_swapped = np.array([0.2, 0.5, 0.3])
    a1, b1 = ab_values(Permutation((2, 3, 1)), u_swapped)
    assert a1 - a0 == pytest.approx(u[1] * u[2], abs=1e-15)
    assert b1 - b0 == pytest.approx(-u[1] * u[2] * u[0], abs=1e-15)


def _incidence_with(rule, pair=np.greater):
    """``concordance._incidence`` with its cyclic rule replaced by
    ``rule(x, y, z)`` on the images of each lex-ordered triple, and its
    inversion rule by ``pair(x, y)`` on those of each lex-ordered pair."""
    def incidence(images):
        img = np.asarray(images).T
        pairs, triples = concordance._positions(len(img))
        return np.ascontiguousarray(pair(*img[pairs]).T), np.ascontiguousarray(rule(*img[triples]).T)
    return incidence


def _cyclic(x, y, z):
    return ((x > y) ^ (y > z)) == (z > x)


def _without_132(x, y, z):
    return _cyclic(x, y, z) & ~((x < z) & (z < y))


class TestExactLemmas:
    """The triangle and swap-descent checks decide their lemmas on the
    permutations of 4; these tests check the reduction on every permutation
    of 5 and 6, and that a defect in the cyclic rule fails them."""

    def test_reports(self):
        tri, swap = check_triangle_inequality(1, 0), check_swap_descent(1, 0)
        assert (tri.passed, tri.worst_margin, tri.instances_tested) == (True, 0.0, 144)
        assert (swap.passed, swap.worst_margin, swap.instances_tested) == (True, 0.0, 6)
        assert check_triangle_inequality(500, 909) == tri and check_swap_descent(500, 909) == swap

    @pytest.mark.parametrize("n", [5, 6])
    def test_triangle_coefficients_on_every_permutation(self, n):
        """c[p,r] + c[q,r] - c[p,q] has no negative coefficient, at any s,
        whenever {p,q,r} is not a descent triple, over every permutation
        of n and every (p, q, r) with p < q."""
        perms = np.array(list(itertools.permutations(range(1, n + 1))))
        t = concordance._tensors(*concordance._incidence(perms), n)[1]
        p, q, r = np.array([o for o in itertools.permutations(range(n), 3) if o[0] < o[1]]).T
        coef = t[:, p, r] + t[:, q, r] - t[:, p, q]  # (permutation, (p, q, r), s)
        assert coef[t[:, p, q, r] == 0.0].min() == 0.0

    @pytest.mark.parametrize("n", [5, 6])
    def test_swap_changes_on_every_permutation(self, n):
        """Every permutation of n with 1 right before n: swapping the two
        pieces, relabelled to the pieces, adds exactly the pair (k, k+1)
        and removes exactly the triples {k, k+1, s}, one entry at a time."""
        count = 0
        for images in itertools.permutations(range(1, n + 1)):
            k = images.index(1)
            if k + 1 == n or images[k + 1] != n:
                continue
            count += 1
            pieces = list(range(n))
            pieces[k], pieces[k + 1] = k + 1, k
            swapped = [images[i] for i in pieces]
            pair, triple = tensors_loop(*concordance._incidence(images), n)
            pair2, triple2 = tensors_loop(*concordance._incidence(swapped), n)
            pair2, triple2 = pair2[np.ix_(pieces, pieces)], triple2[np.ix_(pieces, pieces, pieces)]
            gain = np.zeros((n, n))
            gain[k, k + 1] = gain[k + 1, k] = 1.0
            loss = np.zeros((n, n, n))
            for s in set(range(n)) - {k, k + 1}:
                for i, j, l in itertools.permutations((k, k + 1, s)):
                    loss[i, j, l] = 1.0
            assert np.array_equal(pair2 - pair, gain) and np.array_equal(triple2 - triple, -loss), images
        assert count == (n - 1) * math.factorial(n - 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_the_reference_rule_is_the_incidence(self, n):
        perms = np.array(list(itertools.permutations(range(1, n + 1))))
        for got, want in zip(_incidence_with(_cyclic)(perms), concordance._incidence(perms)):
            assert np.array_equal(got, want)

    def test_a_rule_without_132_fails_both(self, monkeypatch):
        monkeypatch.setattr(concordance, "_incidence", _incidence_with(_without_132))
        tri, swap = check_triangle_inequality(1, 0), check_swap_descent(1, 0)
        assert not tri.passed and tri.worst_margin == -1.0
        assert not swap.passed and swap.worst_margin < 0.0

    def test_the_complement_rule_fails_swap(self, monkeypatch):
        """The complement of the cyclic set (123, 231, 312) satisfies the
        triangle lemma as well, so only the swap check can catch it."""
        monkeypatch.setattr(concordance, "_incidence", _incidence_with(lambda x, y, z: ~_cyclic(x, y, z)))
        assert check_triangle_inequality(1, 0).passed
        swap = check_swap_descent(1, 0)
        assert not swap.passed and swap.worst_margin < 0.0


# A basis of each pattern's plane of directions, other than the check's for
# 1-2-3: every zero-sum delta on 1-2-3, (x, -x, y, -y) on 3-4-1-2.
_PLANES = (((1, 2, 3), [[1, 1], [-1, 0], [0, -1]]), ((3, 4, 1, 2), [[1, 0], [-1, 0], [0, 1], [0, -1]]))


class TestDeltaConstruction:
    """The delta check decides its lemma on the two patterns with one more
    piece; these tests check the reduction on every occurrence in every
    permutation of 5 and 6, keep the proof's explicit direction as sampled
    evidence, and check that defects in the incidence fail the check."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_every_occurrence_meets_the_conditions(self, n):
        """The pair form vanishes on the plane, the pattern holds no cyclic
        triple, and T[., ., k] on the plane is negative semidefinite for
        every piece k outside the occurrence."""
        perms = np.array(list(itertools.permutations(range(1, n + 1))))
        pair, triple = concordance._tensors(*concordance._incidence(perms), n)
        count = 0
        for pattern, basis in _PLANES:
            for at in map(list, itertools.combinations(range(n), len(pattern))):
                ranks = np.argsort(np.argsort(perms[:, at], axis=1), axis=1)
                hit = np.all(ranks == np.subtract(pattern, 1), axis=1)
                plane = np.zeros((n, 2))
                plane[at] = basis
                assert not (plane.T @ pair[hit] @ plane).any()
                assert not triple[hit][:, at][:, :, at][:, :, :, at].any()
                q = np.einsum("ia,pijk,jb->pkab", plane, triple[hit], plane)
                q = np.delete(q, at, axis=1)
                assert np.all(q[..., 0, 0] + q[..., 1, 1] <= 0)
                assert np.all(q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0] >= 0)
                count += int(hit.sum())
        assert count == sum(math.comb(n, m) ** 2 * math.factorial(n - m) for m in (3, 4))

    def test_the_papers_direction(self):
        """The proof's delta, built from the gradient of a at u: on the first
        1-2-3 occurrence p < q < r, (a_q - a_r, a_r - a_p, a_p - a_q); on a
        permutation without one, on the first 3-4-1-2 occurrence p < q < r <
        s, (a_r - a_s, a_s - a_r, a_q - a_p, a_p - a_q); e_p - e_q where a is
        equal on the pattern.  alpha1, alpha2 and beta3 vanish and beta2 <= 0,
        to 1e-12, on 300 seeded (permutation, u) pairs with n <= 10 (the
        worst is 1.4e-16)."""
        rng = _rng(29)
        tested = collections.Counter()
        for _ in range(300):
            n = int(rng.integers(3, 11))
            perm, u = Permutation(tuple((rng.permutation(n) + 1).tolist())), random_simplex(rng, n)
            a = perturbation_coeffs(perm, u, np.zeros(n)).a_vec
            d = np.zeros(n)
            hit = find_pattern(perm, (1, 2, 3))
            if hit is not None:
                p, q, r = np.subtract(hit, 1)
                d[[p, q, r]] = a[q] - a[r], a[r] - a[p], a[p] - a[q]
            elif (hit := find_pattern(perm, (3, 4, 1, 2))) is not None:
                p, q, r, s = np.subtract(hit, 1)
                d[[p, q, r, s]] = a[r] - a[s], a[s] - a[r], a[q] - a[p], a[p] - a[q]
            else:
                continue
            if np.abs(d).max() <= 1e-14:
                d[:] = 0.0
                d[p], d[q] = 1.0, -1.0
            c = perturbation_coeffs(perm, u, d / np.abs(d).max())
            assert max(abs(c.alpha1), abs(c.alpha2), abs(c.beta3), c.beta2) <= 1e-12, (perm, u)
            tested[len(hit)] += 1
        assert tested == {3: 232, 4: 17}  # by pattern length; 51 permutations avoid both

    @pytest.mark.parametrize(
        "rule, pair, margin, witness",
        [
            (_without_132, np.greater, -3, ([1, 2, 3], [1, 3, 2, 4], 2)),
            (lambda x, y, z: ~_cyclic(x, y, z), np.greater, -41, ([1, 2, 3], [1, 2, 3, 4], 1)),
            (_cyclic, np.less, -41, ([1, 2, 3], [1, 2, 3, 4], 1)),
        ],
        ids=["without-132", "cyclic-complement", "pair-complement"],
    )
    def test_a_defect_fails(self, monkeypatch, rule, pair, margin, witness):
        monkeypatch.setattr(concordance, "_incidence", _incidence_with(rule, pair))
        r = check_delta_construction(1, 0)
        assert (r.passed, r.worst_margin) == (False, margin)
        assert json.loads(r.worst_witness) == dict(zip(("pattern", "perm", "piece"), witness))

    def test_a_negated_triple_tensor_fails(self, monkeypatch):
        """Negating T turns each nonzero Q_k positive semidefinite with the
        same determinant, so only the trace condition catches it."""
        tensors = concordance._tensors

        def negated(*args):
            pair, triple = tensors(*args)
            return pair, -triple

        monkeypatch.setattr(concordance, "_tensors", negated)
        r = check_delta_construction(1, 0)
        assert (r.passed, r.worst_margin) == (False, -24.0)


def test_almost_decreasing_exhaustive_small():
    r = check_almost_decreasing_classification(5)
    assert r.passed
    assert r.instances_tested == 1 + 2 + 6 + 24 + 120
    with pytest.raises(ValueError):
        check_almost_decreasing_classification(0)
    with pytest.raises(ValueError):
        check_almost_decreasing_classification(9)


def _classification_loop(l_max):
    """The per-permutation classification, kept as the reference for the
    stack version: its reports for every l_max <= the given one."""
    instances = mismatches = 0
    first_bad = None
    reports = []
    for l in range(1, l_max + 1):
        for images in itertools.permutations(range(1, l + 1)):
            perm = Permutation(images)
            cond_a = all(_find_pattern_loop(perm, pattern) is None for pattern in ((1, 2, 3), (3, 4, 1, 2)))
            cond_b = min(
                sum(a < b for a, b in zip(p.images, p.images[1:])) for p in (perm, perm.inverse())
            ) <= 1
            instances += 1
            if cond_a != cond_b:
                mismatches += 1
                if first_bad is None:
                    first_bad = {"perm": list(images), "condition_a": cond_a, "condition_b": cond_b}
        witness = first_bad if first_bad is not None else {"l_max": l, "mismatches": 0}
        reports.append(VerificationReport(
            check_name="almost_decreasing_classification",
            instances_tested=instances,
            worst_margin=-float(mismatches),
            worst_witness=json.dumps(witness, sort_keys=True),
            passed=mismatches == 0,
            notes=f"exhaustive over {instances} permutations up to length {l}",
        ))
    return reports


def test_classification_matches_the_loop():
    reference = _classification_loop(8)
    for l_max, want in enumerate(reference, start=1):
        assert check_almost_decreasing_classification(l_max) == want


def test_classification_reports_a_mismatch(monkeypatch):
    """With 3412 dropped from condition (a), 3412 itself is the first
    permutation the two conditions disagree on."""
    first_occurrence = verify._first_occurrence

    def without_3412(perms, pattern):
        found, first = first_occurrence(perms, pattern)
        return found & (len(pattern) == 3), first

    monkeypatch.setattr(verify, "_first_occurrence", without_3412)
    r = check_almost_decreasing_classification(4)
    assert not r.passed and r.worst_margin < 0
    assert json.loads(r.worst_witness)["perm"] == [3, 4, 1, 2]


@pytest.mark.parametrize("pattern", [(1, 2, 3), (3, 4, 1, 2), (2, 3, 1)])
def test_stack_masks_match_find_pattern(pattern):
    """Over a stack, and through find_pattern, the first occurrence is the
    one a scan of the position tuples finds first."""
    for l in range(1, 8):
        perms = np.array(list(itertools.permutations(range(1, l + 1))), dtype=np.int8)
        want = [_find_pattern_loop(Permutation(tuple(p)), pattern) for p in perms.tolist()]
        found, first = verify._first_occurrence(perms, pattern)
        assert found.tolist() == [hit is not None for hit in want]
        assert [tuple(f) for f in (first[found] + 1).tolist()] == [hit for hit in want if hit]
        assert [find_pattern(Permutation(tuple(p)), pattern) for p in perms.tolist()] == want
