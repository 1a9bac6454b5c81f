"""Numeric and combinatorial checks of the library's load-bearing facts.

Each check exercises one identity, inequality, or structural claim on an
exhaustive grid or a seeded random sample and condenses the outcome into
a :class:`VerificationReport`.  Margins are oriented so that bigger is
safer: a check passes when its worst margin stays above minus the
tolerance declared for that check.  Identity-style checks therefore
report minus the largest deviation seen.

The two exhaustive checks do only the work their claims need.  The main
inequality sweeps one permutation per orbit of the symmetries that keep
a and b, counting each entry once per member of its orbit, and reports
as the full sweep would.  The minimizer lemma is decided on its finite
candidate set, which holds every minimiser by Lagrange.

Everything is deterministic given (seed, parameters), and all
reductions are order-fixed min/max folds.  The sampled checks draw from
a PCG64 generator one block of at most ``_SAMPLE_BLOCK`` samples at a
time: first every sample's piece count n, then, for each n in ascending
order, the simplex weights (normalized standard exponentials) and the
check's own fields, each with one array call; permutations come from
``Generator.permuted``, numpy's Fisher-Yates pass per row.  So the block
size, which bounds the memory, also defines the stream.  Every registry
and benchmark size (at most 1,000 samples) fits in one block of 1,024;
the block size changes a report only above 1,024 samples.

The samples of one n form one stack, and each product in it runs the
BLAS call that one sample alone would run, so a report does not depend
on how a block is stacked.  The witness is the first sample in draw
order that reaches the worst margin.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import concordance
from .region import theta
from .shuffles import Permutation, _integer

__all__ = [
    "VerificationReport",
    "find_pattern",
    "check_main_inequality",
    "check_minimizer_structure",
    "check_perturbation_identities",
    "check_triangle_inequality",
    "check_delta_construction",
    "check_almost_decreasing_classification",
    "check_swap_descent",
    "CHECKS",
    "run_all_checks",
]

_MAIN_TOL = 1e-10
_EQUALITY_TOL = 1e-12
_IDENTITY_TOL = 1e-12
_EXACT_TOL = 1e-14
_MAIN_BUDGET = 50_000_000
_MINIMIZER_BUDGET = 1 << 20
# (permutation, lattice row) entries of one block of the main sweep
_SWEEP_ENTRIES = 1 << 17
# samples of one block of a sampled check
_SAMPLE_BLOCK = 1 << 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: what ran, how close it came, and a witness."""

    check_name: str
    instances_tested: int
    worst_margin: float
    worst_witness: str
    passed: bool
    notes: str = ""

    def __post_init__(self) -> None:
        # Checks hand in numpy scalars; pin the plain-Python types here.
        object.__setattr__(self, "instances_tested", int(self.instances_tested))
        object.__setattr__(self, "worst_margin", float(self.worst_margin))
        object.__setattr__(self, "passed", bool(self.passed))

    def as_dict(self) -> dict:
        return asdict(self)


def _seed(seed: int) -> int:
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _sampled(samples: int, seed: int) -> tuple[int, np.random.Generator]:
    """A sampled check's sample count, checked before its seed, and its
    seeded generator."""
    samples = _integer("samples", samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return samples, np.random.Generator(np.random.PCG64(_seed(seed)))


def _samples(samples: int, rng: np.random.Generator, n_min: int, draw):
    """Draw ``samples`` samples with n in [n_min, 10] pieces and yield them
    stacked by n: (index, n, u, *fields), each an array with one row per
    sample and ``index`` their places in draw order.  A block of at most
    ``_SAMPLE_BLOCK`` samples draws every n in one call, then, for each n
    in ascending order, the weights u and ``draw(rng, count, n)``."""
    for start in range(0, samples, _SAMPLE_BLOCK):
        sizes = rng.integers(n_min, 11, size=min(_SAMPLE_BLOCK, samples - start))
        for n in range(n_min, 11):
            (index,) = np.nonzero(sizes == n)
            if len(index):
                e = rng.standard_exponential((len(index), n))
                yield start + index, n, e / e.sum(axis=1, keepdims=True), *draw(rng, len(index), n)


def _permutations(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform permutations of 1..n, one per row."""
    return rng.permuted(np.broadcast_to(np.arange(1, n + 1), (count, n)), axis=1)


@functools.lru_cache(maxsize=32)
def _subsets(l: int, k: int) -> np.ndarray:
    """The k-subsets of the 0-based positions 0..l-1 in lex order, (C, k)."""
    subsets = np.array(list(itertools.combinations(range(l), k)), dtype=np.intp).reshape(-1, k)
    subsets.setflags(write=False)
    return subsets


def _first_occurrence(perms: np.ndarray, pattern: tuple[int, ...]):
    """Which rows of a permutation stack (m, l) contain ``pattern``, and the
    lex-first 0-based positions of an occurrence in each (0, ..., k - 1
    where there is none): a k-subset of positions is one when its images,
    read in the pattern's value order, increase."""
    k = len(pattern)
    subsets = _subsets(perms.shape[1], k)
    vals = perms[:, subsets[:, np.argsort(pattern)]]
    hits = np.all(vals[..., 1:] > vals[..., :-1], axis=2)
    found = hits.any(axis=1)
    if not found.any():
        return found, np.broadcast_to(np.arange(k), (len(perms), k))
    return found, subsets[hits.argmax(axis=1)]


def find_pattern(perm: Permutation, pattern: tuple[int, ...]):
    """First (lex-smallest) positions realizing ``pattern`` as relative order.

    ``pattern`` is itself a permutation of 1..k; a hit is a position tuple
    p_1 < ... < p_k whose images compare exactly like the pattern values.
    Returns None if the permutation avoids the pattern.
    """
    (found,), (first,) = _first_occurrence(np.array([perm.images]), pattern)
    return tuple((first + 1).tolist()) if found else None


def _compositions(total: int, parts: int, rows: int):
    """Every tuple of ``parts`` non-negative integers summing to ``total``,
    in lex order, in int64 arrays of at most ``rows`` rows: each one into
    ``parts - 1`` parts, last part s, gives (..., j, s - j) for j = 0..s."""
    if parts == 1:
        yield np.array([[total]])
        return
    for heads in _compositions(total, parts - 1, rows):
        ends = np.cumsum(heads[:, -1] + 1)
        for start in range(0, int(ends[-1]), rows):
            i = np.arange(start, min(start + rows, int(ends[-1])))
            h = np.searchsorted(ends, i, side="right")
            j = i - ends[h] + heads[h, -1] + 1
            yield np.column_stack([heads[h, :-1], j, heads[h, -1] - j])


def _witness(**kwargs) -> str:
    return json.dumps(kwargs, sort_keys=True)


# --- the main inequality --------------------------------------------------

def _symmetric_images(images: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries (permutation images, lattice k), both (m, n), under the
    four maps that keep a and b: the identity; inversion, pi^-1 with the
    weights re-indexed by image; reverse-complement, n + 1 - pi(n + 1 - i)
    with the weights reversed; and both.  (4, m, n) each."""
    n = images.shape[1]
    rows = np.arange(len(images))[:, None]
    inv, k_inv = np.empty_like(images), np.empty_like(k)
    inv[rows, images - 1] = np.arange(1, n + 1)
    k_inv[rows, images - 1] = k
    perms, ks = np.stack([images, inv]), np.stack([k, k_inv])
    return np.concatenate([perms, n + 1 - perms[..., ::-1]]), np.concatenate([ks, ks[..., ::-1]])


@functools.lru_cache(maxsize=8)
def _orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lex-first permutation of each orbit of the four maps on the
    permutations of 1..n, in lex order (r, n), and the orbit sizes (r,)."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))))
    codes = _symmetric_images(perms, perms)[0] @ (n + 1) ** np.arange(n - 1, -1, -1)
    first = codes[0] == codes.min(axis=0)
    sizes = 1 + (np.diff(np.sort(codes, axis=0), axis=0) != 0).sum(axis=0)
    reps, sizes = perms[first], sizes[first]
    reps.setflags(write=False)
    sizes.setflags(write=False)
    return reps, sizes


def _first_keys(perms: np.ndarray, k: np.ndarray, p: np.ndarray, r: np.ndarray, count: int) -> list:
    """The first ``count`` distinct keys (permutation, k), as tuples in
    sweep order, among the images of the entries (perms[p], k[r]).  A map
    re-indexes k by columns fixed by the map and the permutation, so the
    rows of each permutation are sorted once per map by those columns."""
    keys = set()
    for q in np.flatnonzero(np.bincount(p)):  # the distinct p
        rows = k[r[p == q]]
        images, columns = _symmetric_images(perms[q : q + 1], np.arange(k.shape[1])[None])
        for image, cols in zip(images[:, 0].tolist(), columns[:, 0]):
            mapped = rows[:, cols]
            first = mapped[np.lexsort(mapped.T[::-1])[:count]].tolist()
            keys.update((tuple(image), tuple(row)) for row in first)
    return sorted(keys)[:count]


def _prototype_shaped(images: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Which rows (permutation images, lattice k) are prototypes up to
    representation; the rule is in ``check_main_inequality``."""
    m, n = k.shape
    rows = np.arange(m)[:, None]
    order = np.argsort(k == 0, axis=1, kind="stable")  # kept entries first
    images, k = images[rows, order], k[rows, order]
    kept = k > 0
    by_image = np.zeros((m, n + 1), dtype=np.int64)
    by_image[rows, images] = kept
    step = np.diff(by_image.cumsum(axis=1)[rows, images], axis=1)  # of ranks among the kept
    starts = kept.copy()
    starts[:, 1:] &= step != 1
    block = rows * n + starts.cumsum(axis=1) - 1
    sums = np.bincount(block.ravel(), k.ravel(), m * n).reshape(m, n)
    n_top = (sums == sums.max(axis=1, keepdims=True)).sum(axis=1)
    return np.all((step <= 1) | ~kept[:, 1:], axis=1) & (n_top >= starts.sum(axis=1) - 1)


def check_main_inequality(n_max: int = 6, grid_steps: int = 10) -> VerificationReport:
    """b >= theta(a) for every permutation and every lattice weight vector.

    Covers all permutations of each size n up to ``n_max`` against the
    simplex lattice u = k / g, g = ``grid_steps``, k integer.  Inversion
    (weights re-indexed by image) and reverse-complement (weights reversed)
    keep the inverted pairs and cyclic triples, so a and b: the sweep takes
    one permutation per orbit of the two (230 of 720 at n = 6) and counts
    each entry once per member of its orbit.  a*g^2 and b*g^3 are sums of
    pair and triple products of k, for all permutations one matrix product
    with their incidence; the budget keeps them below 2^53, so they are
    exact in float64.  theta is taken once per distinct a; blocks of at
    most 2^17 (permutation, lattice row) entries bound the memory.  The
    witness is the first minimum in (n, permutation, lattice row) order
    over all permutations, found among the images of the minima.

    Equality points (|margin| <= 1e-12) are flat (b = 0, a <= 1/4, where
    theta vanishes) or should be prototype-shaped, a rule decided in
    integers: drop the zero k's and re-rank the images left; each step
    between neighbouring kept entries must be +1 (the two pieces continue
    one straight branch, so they merge into one block) or a descent, so
    the blocks form a decreasing permutation; the block sums of k must
    sort as (r, ..., r, y) with y <= r.  Other points are flagged in the
    notes, the first five in sweep order as above, but do not fail the
    check, which demands the margin stay above -1e-10 and prototype
    lattice points sit on equality to 1e-12.
    """
    n_max, g = _integer("n_max", n_max), _integer("grid_steps", grid_steps)
    if not 2 <= n_max <= 7:
        raise ValueError(f"n_max must be in [2, 7], got {n_max}")
    if g < 2:
        raise ValueError(f"grid_steps must be >= 2, got {g}")
    cost = sum(math.factorial(n) * math.comb(g + n - 1, n - 1) for n in range(2, n_max + 1))
    if cost > _MAIN_BUDGET:
        raise ValueError(
            f"requested sweep needs {cost} margin evaluations, over the "
            f"budget of {_MAIN_BUDGET}"
        )

    worst: tuple = (math.inf,)  # (margin, n, permutation, k)
    others: list[tuple] = []  # the first unexpected points: (n, permutation, k)
    n_prototype_eq = n_flat_eq = n_other = n_proto_points = 0
    proto_dev = 0.0
    for n in range(2, n_max + 1):
        perms, sizes = _orbits(n)
        inverted, cyclic = (mask.astype(float) for mask in concordance._incidence(perms))
        for k in _compositions(g, n, max(1, _SWEEP_ENTRIES // len(perms))):
            a_int, margins = concordance._ab(inverted, cyclic, k)
            margins /= g**3  # b, until theta is subtracted
            flat = margins <= _EQUALITY_TOL
            high = 4 * a_int > g**2  # theta vanishes for a <= 1/4
            values, inverse = np.unique(a_int[high], return_inverse=True)
            margins[high] -= theta(values / g**2)[inverse]

            least = float(margins.min())
            if (least, n) <= worst[:2]:  # a tie at a larger n comes later
                worst = min(worst, (least, n, *_first_keys(perms, k, *np.nonzero(margins == least), 1)[0]))

            eq = np.abs(margins) <= _EQUALITY_TOL
            flat &= eq
            n_flat_eq += int(sizes @ flat.sum(axis=1))
            p, r = np.nonzero(eq & ~flat)
            shaped = _prototype_shaped(perms[p], k[r])
            n_prototype_eq += int(sizes[p[shaped]].sum())
            n_other += int(sizes[p[~shaped]].sum())
            if not shaped.all():
                keys = _first_keys(perms, k, p[~shaped], r[~shaped], 5)
                # images of entries in different blocks can coincide
                others = sorted(set(others).union((n, *key) for key in keys))[:5]

            # Equality must hold at the prototype lattice points (r, ..., r, y),
            # y <= r, of the decreasing permutation, the last in lex order and
            # alone in its orbit; their margins come from the exact a and b above.
            proto = np.all(k[:, :-1] == k[:, :1], axis=1) & (k[:, -1] <= k[:, 0])
            proto_dev = np.max(np.abs(margins[-1, proto]), initial=proto_dev)
            n_proto_points += int(proto.sum())

    margin, n, perm, k = worst
    notes = (
        f"equality points: {n_prototype_eq} prototype-shaped, {n_flat_eq} flat "
        f"(b=0, theta=0), {n_other} unexpected; "
        f"{n_proto_points} prototype lattice points, max |margin| {proto_dev:.3e}"
    )
    if others:
        samples = [{"n": m, "perm": list(im), "u": (np.array(kk) / g).tolist()} for m, im, kk in others]
        notes += "; unexpected samples: " + json.dumps(samples, sort_keys=True)
    return VerificationReport(
        check_name="main_inequality",
        instances_tested=cost,
        worst_margin=margin,
        worst_witness=_witness(n=n, perm=list(perm), u=(np.array(k) / g).tolist(), margin=margin),
        passed=margin >= -_MAIN_TOL and proto_dev <= _EQUALITY_TOL,
        notes=notes,
    )


# --- minimizer structure --------------------------------------------------

def _level_minima(n: int, levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least e3 on each level set e2 = c2 of the n-simplex, c2 =
    (n - 1) l / (2 n L) for l = 1..L, over its finite candidate set.

    On the level set, p1 = 1 and p2 = 1 - 2 c2 are fixed and e3 = (1 - 3 p2
    + 2 p3) / 6, so a minimiser minimises p3.  On the face where it is
    positive, Lagrange gives 3 u_i^2 = lambda + mu u_i, so its positive
    entries take at most two values (u constant there is the case where
    the constraints' gradients are dependent).  The candidates are k
    entries x >= y on j entries, k, j >= 1, k + j = m <= n: with s = m p2 -
    1 >= 0, x = (1 + sqrt(j s / k)) / m and y = (1 - sqrt(k s / j)) / m, and
    y >= 0 iff k s <= j.  Both conditions are decided in integers, as
    n L s = m (n L - (n - 1) l) - n L; at the top level s = 0 for m = n, so
    the two roots there are the one point u = 1/n.  Returns c2 (L,), the
    least candidates sorted descending (L, n), and their e3 (L,).
    """
    k, j = np.array([(a, m - a) for m in range(2, n + 1) for a in range(1, m)]).T
    m = k + j
    den = n * levels
    lvl = np.arange(1, levels + 1)[:, None]
    num = m * (den - (n - 1) * lvl) - den  # n L s
    feasible = (num >= 0) & (k * num <= j * den)
    s = np.maximum(num, 0) / den
    x = (1.0 + np.sqrt(j * s / k)) / m
    y = np.maximum((1.0 - np.sqrt(k * s / j)) / m, 0.0)
    # e3 of k x's and j y's, C(k,3) x^3 + C(k,2) j x^2 y + k C(j,2) x y^2 + C(j,3) y^3: no cancellation
    e3 = (k - 1) * k * x * x * ((k - 2) * x + 3 * j * y) + (j - 1) * j * y * y * ((j - 2) * y + 3 * k * x)
    e3 /= 6
    at = np.arange(levels), np.where(feasible, e3, np.inf).argmin(axis=1)
    k, m, x, y = k[at[1], None], m[at[1], None], x[at][:, None], y[at][:, None]
    place = np.arange(n)
    points = np.where(place < k, x, np.where(place < m, y, 0.0))
    return (n - 1) * lvl[:, 0] / (2 * den), points, e3[at]


def check_minimizer_structure(n: int, levels: int = 4) -> VerificationReport:
    """The e3-minimizer on each e2 level set has prototype shape.

    For the decreasing permutation (so a = e2 and b = e3), on the levels
    of ``_level_minima`` up to the top one, (1 - 1/n)/2, the least
    candidate must be (r, ..., r, y, 0, ..., 0) with y <= r (its spread,
    the gap between its two values when two or more entries hold the
    smaller, is 0) and its e3 must equal theta(c2) to 1e-12.
    """
    n, levels = _integer("n", n), _integer("levels", levels)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    cost = levels * n * (n - 1) // 2
    if cost > _MINIMIZER_BUDGET:
        raise ValueError(f"requested check needs {cost} candidates, over the budget of {_MINIMIZER_BUDGET}")
    c2s, points, e3 = _level_minima(n, levels)
    thetas = theta(c2s)
    smallest = np.where(points > 0.0, points, np.inf).min(axis=1)
    spreads = np.where((points == smallest[:, None]).sum(axis=1) >= 2, points[:, 0] - smallest, 0.0)
    theta_devs = np.abs(e3 - thetas)
    margins = -np.maximum(spreads, theta_devs)
    i = int(np.argmin(margins))
    return VerificationReport(
        check_name="minimizer_structure",
        instances_tested=levels,
        worst_margin=margins[i],
        worst_witness=_witness(
            n=n, c2=float(c2s[i]), minimizer=points[i].tolist(), e3=float(e3[i]), theta=float(thetas[i])
        ),
        passed=margins[i] >= -_IDENTITY_TOL,
        notes="; ".join(
            f"c2={c2:.6g}: spread={spread:.2e}, theta_dev={dev:.2e}"
            for c2, spread, dev in zip(c2s.tolist(), spreads.tolist(), theta_devs.tolist())
        ),
    )


# --- perturbation identities ----------------------------------------------

def check_perturbation_identities(samples: int, seed: int) -> VerificationReport:
    """a and b along u + t*delta match their finite Taylor forms exactly.

    Each sample draws a permutation, a simplex point, and a zero-sum
    direction, then compares both polynomial identities at t in
    {1/2, -1/2, 1/7, -1/7} and one random t, at 1e-12 relative tolerance.
    """
    samples, rng = _sampled(samples, seed)
    worst = (math.inf, -1, {})  # (margin, draw index, witness)
    draw = lambda rng, count, n: (
        _permutations(rng, count, n), rng.standard_normal((count, n)), rng.uniform(-1.0, 1.0, count)
    )
    for index, n, u, images, d, t in _samples(samples, rng, 2, draw):
        d -= d.mean(axis=1, keepdims=True)
        scale = np.abs(d).max(axis=1, keepdims=True)
        np.divide(d, scale, out=d, where=scale > 0.0)
        d -= d.mean(axis=1, keepdims=True)  # the rescaling can move the sum off zero again
        masks = concordance._incidence(images)
        coeffs = concordance._coeffs(*concordance._tensors(*masks, n), u, d)
        ts = np.empty((5, len(t)))  # one column per sample
        ts[:4] = np.array([0.5, -0.5, 1.0 / 7.0, -1.0 / 7.0])[:, None]
        ts[4] = t
        points = np.concatenate([u[None], u + ts[..., None] * d]).transpose(1, 0, 2)
        a, b = (v[:, 0].T for v in concordance._ab(*(mask[:, None] for mask in masks), points))
        lhs = np.array([a[1:] - a[0], b[1:] - b[0]])
        rhs = np.array([
            coeffs.alpha1 * ts + coeffs.alpha2 * ts * ts,
            coeffs.beta1 * ts + coeffs.beta2 * ts * ts + coeffs.beta3 * ts**3,
        ])
        dev = (abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))).max(axis=0)
        j = dev.argmax(axis=0)
        margin = -dev[j, np.arange(len(t))]
        s = int(np.argmin(margin))
        if (margin[s], index[s]) < worst[:2]:
            worst = (float(margin[s]), int(index[s]), {
                "n": n,
                "perm": images[s].tolist(),
                "u": u[s].tolist(),
                "delta": d[s].tolist(),
                "t": float(ts[j[s], s]),
                "deviation": float(dev[j[s], s]),
            })
    return VerificationReport(
        check_name="perturbation_identities",
        instances_tested=samples,
        worst_margin=worst[0],
        worst_witness=_witness(**worst[2]),
        passed=worst[0] >= -_IDENTITY_TOL,
        notes="",
    )


# --- triangle inequality for the c coefficients ---------------------------

def check_triangle_inequality(samples: int, seed: int) -> VerificationReport:
    """c[p,r] + c[q,r] >= c[p,q] >= 0 whenever {p,q,r} is not a descent triple."""
    samples, rng = _sampled(samples, seed)
    worst = (math.inf, -1, {})  # (margin, draw index, witness)
    qualifying = 0
    vacuous = 0
    draw = lambda rng, count, n: (_permutations(rng, count, n),)
    for index, n, u, images in _samples(samples, rng, 3, draw):
        triple_ten = concordance._tensors(*concordance._incidence(images), n)[1]
        c = concordance._matvec(triple_ten, u)
        # (p, q, r) over the lex-ordered pairs p < q (rows) and every r
        p, q = concordance._positions(n)[0]
        r = np.arange(n)
        keep = (r != p[:, None]) & (r != q[:, None]) & (triple_ten[:, p, q] == 0.0)
        cpq = c[:, p, q][..., None]
        margins = np.where(keep, np.minimum(c[:, p] + c[:, q] - cpq, cpq), np.inf)
        margins = margins.reshape(len(u), -1)
        qualifying += int(keep.sum())
        vacuous += int((~keep.any(axis=(1, 2))).sum())
        at = margins.argmin(axis=1)
        margin = margins[np.arange(len(u)), at]  # inf for a sample with no qualifying triple
        s = int(np.argmin(margin))
        if (margin[s], index[s]) < worst[:2]:
            i, k = divmod(int(at[s]), n)
            worst = (float(margin[s]), int(index[s]), {
                "n": n,
                "perm": images[s].tolist(),
                "u": u[s].tolist(),
                "pqr": [int(p[i]) + 1, int(q[i]) + 1, k + 1],
                "margin": float(margin[s]),
            })
    margin, _, info = worst
    if qualifying == 0:
        margin, info = 0.0, {"note": "no qualifying triples in any sample"}
    return VerificationReport(
        check_name="triangle_inequality",
        instances_tested=qualifying,
        worst_margin=margin,
        worst_witness=_witness(**info),
        passed=margin >= -_EXACT_TOL,
        notes=f"{samples} permutations sampled, {vacuous} with no qualifying triple",
    )


# --- delta construction ---------------------------------------------------

def check_delta_construction(samples: int, seed: int) -> VerificationReport:
    """The proof's explicit directions kill alpha1, alpha2, beta3 and keep beta2 <= 0.

    Pattern (i) is an increasing triple p<q<r; pattern (ii) an occurrence
    of the relative order 3-4-1-2 on p<q<r<s.  For a sampled permutation
    the first pattern found supplies the support of delta; permutations
    containing neither are counted as skipped.
    """
    samples, rng = _sampled(samples, seed)
    worst = (math.inf, -1, {})  # (margin, draw index, witness)
    tested = 0
    used_i = 0
    used_ii = 0
    draw = lambda rng, count, n: (_permutations(rng, count, n),)
    for index, n, u, images in _samples(samples, rng, 3, draw):
        pair_mat, triple_ten = concordance._tensors(*concordance._incidence(images), n)
        a_vec = concordance._matvec(pair_mat, u)
        found_i, hit_i = _first_occurrence(images, (1, 2, 3))
        found_ii, hit_ii = _first_occurrence(images, (3, 4, 1, 2))
        found_ii &= ~found_i
        (used,) = np.nonzero(found_i | found_ii)
        tested += len(used)
        used_i += int(found_i.sum())
        used_ii += int(found_ii.sum())
        if not len(used):
            continue
        d = np.zeros_like(u)
        rows = np.flatnonzero(found_i)[:, None]
        at = a_vec[rows, hit_i[found_i]]  # a at p, q, r
        d[rows, hit_i[found_i]] = at[:, [1, 2, 0]] - at[:, [2, 0, 1]]
        rows = np.flatnonzero(found_ii)[:, None]
        at = a_vec[rows, hit_ii[found_ii]]  # a at p, q, r, s
        d_p, d_r = at[:, 2] - at[:, 3], at[:, 1] - at[:, 0]
        d[rows, hit_ii[found_ii]] = np.column_stack([d_p, -d_p, d_r, -d_r])

        d = d[used]
        p, q = np.where(found_i[:, None], hit_i[:, :2], hit_ii[:, :2])[used].T
        (tiny,) = np.nonzero(np.abs(d).max(axis=1) <= 1e-14)
        d[tiny] = 0.0
        d[tiny, p[tiny]], d[tiny, q[tiny]] = 1.0, -1.0
        d /= np.abs(d).max(axis=1, keepdims=True)
        coeffs = concordance._coeffs(pair_mat[used], triple_ten[used], u[used], d)
        deviation = abs(coeffs.alpha1)
        for x in (abs(coeffs.alpha2), abs(coeffs.beta3), coeffs.beta2):
            deviation = np.where(x > deviation, x, deviation)  # as max(): ties keep the first
        s = int(np.argmin(-deviation))
        row = used[s]
        if (-deviation[s], index[row]) < worst[:2]:
            positions = hit_i[row] if found_i[row] else hit_ii[row]
            worst = (-float(deviation[s]), int(index[row]), {
                "n": n,
                "perm": images[row].tolist(),
                "u": u[row].tolist(),
                "delta": d[s].tolist(),
                "pattern_positions": (positions + 1).tolist(),
                "coeffs": [float(getattr(coeffs, f)[s]) for f in ("alpha1", "alpha2", "beta2", "beta3")],
            })
    margin, _, info = worst
    if tested == 0:
        margin, info = 0.0, {"note": "every sampled permutation avoided both patterns"}
    skipped = samples - tested
    return VerificationReport(
        check_name="delta_construction",
        instances_tested=tested,
        worst_margin=margin,
        worst_witness=_witness(**info),
        passed=margin >= -_IDENTITY_TOL,
        notes=f"pattern (i) used {used_i} times, pattern (ii) {used_ii}, skipped {skipped}",
    )


# --- almost-decreasing classification -------------------------------------

def check_almost_decreasing_classification(l_max: int) -> VerificationReport:
    """Avoiding both patterns 123 and 3412 is the same as being almost
    decreasing up to inversion (the permutation or its inverse has at
    most one ascent).  Exhaustive over all permutations of length <= l_max,
    each length decided for all its permutations at once."""
    l_max = _integer("l_max", l_max)
    if not 1 <= l_max <= 8:
        raise ValueError(f"l_max must be in [1, 8], got {l_max}")
    instances = 0
    mismatches = 0
    first_bad: dict | None = None
    for l in range(1, l_max + 1):
        perms = np.array(list(itertools.permutations(range(1, l + 1))), dtype=np.int8)
        cond_a = ~(_first_occurrence(perms, (1, 2, 3))[0] | _first_occurrence(perms, (3, 4, 1, 2))[0])
        cond_b = (np.diff(perms, axis=1) > 0).sum(axis=1) <= 1
        cond_b |= (np.diff(np.argsort(perms, axis=1), axis=1) > 0).sum(axis=1) <= 1
        bad = np.flatnonzero(cond_a != cond_b)
        instances += len(perms)
        mismatches += len(bad)
        if first_bad is None and len(bad):
            i = bad[0]
            first_bad = {
                "perm": perms[i].tolist(),
                "condition_a": bool(cond_a[i]),
                "condition_b": bool(cond_b[i]),
            }
    witness = first_bad if first_bad is not None else {"l_max": l_max, "mismatches": 0}
    return VerificationReport(
        check_name="almost_decreasing_classification",
        instances_tested=instances,
        worst_margin=-float(mismatches),
        worst_witness=_witness(**witness),
        passed=mismatches == 0,
        notes=f"exhaustive over {instances} permutations up to length {l_max}",
    )


# --- swap descent ---------------------------------------------------------

def check_swap_descent(samples: int, seed: int) -> VerificationReport:
    """Swapping the pieces holding values 1 and n changes (a, b) by the
    closed forms u_k*u_{k+1} and -u_k*u_{k+1}*(sum of the other weights),
    strictly worsening the margin b - theta(a).

    Permutations are drawn as two decreasing blocks with 1 closing the
    first block and n opening the second, which is exactly the shape the
    swap argument needs (pi(1) != n, pi(n) != 1, pi(k+1) = n for
    k = position of 1).
    """
    samples, rng = _sampled(samples, seed)
    worst = (math.inf, -1, {})  # (margin, draw index, witness)
    min_decrease = math.inf
    # does value 2, ..., n - 1 join 1 in block A
    draw = lambda rng, count, n: (rng.integers(0, 2, size=(count, n - 2)) == 1,)
    for index, n, u, in_a in _samples(samples, rng, 3, draw):
        rows = np.arange(len(u))[:, None]
        in_a = np.column_stack([np.ones(len(u), bool), in_a, np.zeros(len(u), bool)])
        # block A (the values in_a) decreasing, then block B decreasing
        images = np.argsort(np.where(in_a, 0, n + 1) - np.arange(1, n + 1), axis=1) + 1
        k = in_a.sum(axis=1)
        swap = np.column_stack([k - 1, k])  # the 0-based positions of values 1 and n
        structural_ok = (
            (images[rows, swap] == (1, n)).all(axis=1) & (images[:, 0] != n) & (images[:, -1] != 1)
        )
        images2, u2 = images.copy(), u.copy()
        images2[rows, swap] = images[rows, swap[:, ::-1]]
        u2[rows, swap] = u[rows, swap[:, ::-1]]

        masks = concordance._incidence(np.stack([images, images2], axis=1))
        at = np.stack([u, u2], axis=1)[:, :, None]
        a, b = (v[..., 0, 0].T for v in concordance._ab(*(m[..., None, :] for m in masks), at))
        prod = u[rows, swap].prod(axis=1)
        rest_sum = u.sum(axis=1) - u[rows[:, 0], k - 1] - u[rows[:, 0], k]
        dev = np.maximum(abs((a[1] - a[0]) - prod), abs((b[1] - b[0]) + prod * rest_sum))
        margin0, margin1 = b - theta(a)
        decrease = margin0 - margin1
        min_decrease = min(min_decrease, float(decrease.min()))
        dev = np.where(structural_ok & ~(decrease <= 0.0), dev, np.maximum(dev, 1.0))

        s = int(np.argmin(-dev))
        if (-dev[s], index[s]) < worst[:2]:
            worst = (-float(dev[s]), int(index[s]), {
                "n": n,
                "perm": images[s].tolist(),
                "u": u[s].tolist(),
                "k": int(k[s]),
                "deviation": float(dev[s]),
                "margin_decrease": float(decrease[s]),
            })
    return VerificationReport(
        check_name="swap_descent",
        instances_tested=samples,
        worst_margin=worst[0],
        worst_witness=_witness(**worst[2]),
        passed=worst[0] >= -_EXACT_TOL,
        notes=f"smallest margin decrease {min_decrease:.3e}",
    )


# The default battery in run order: name -> default call given a seed.  The
# calls look their checks up in this module when they run.
CHECKS = {
    "main_inequality": lambda seed: [check_main_inequality(6, 10)],
    "minimizer_structure": lambda seed: [
        check_minimizer_structure(3, 4),
        check_minimizer_structure(4, 4),
    ],
    "perturbation_identities": lambda seed: [check_perturbation_identities(1000, seed)],
    "triangle_inequality": lambda seed: [check_triangle_inequality(500, seed)],
    "delta_construction": lambda seed: [check_delta_construction(500, seed)],
    "almost_decreasing_classification": lambda seed: [
        check_almost_decreasing_classification(7)
    ],
    "swap_descent": lambda seed: [check_swap_descent(500, seed)],
}


def run_all_checks(seed: int = 0) -> list[VerificationReport]:
    """The default full battery, in a fixed order."""
    return [report for run in CHECKS.values() for report in run(seed)]
