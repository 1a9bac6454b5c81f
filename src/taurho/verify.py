"""Numeric and combinatorial checks of the library's load-bearing facts.

Each check exercises one identity, inequality, or structural claim on an
exhaustive grid or a seeded random sample and condenses the outcome into
a :class:`VerificationReport`.  Margins are oriented so that bigger is
safer: a check passes when its worst margin stays above minus the
tolerance declared for that check.  Identity-style checks therefore
report minus the largest deviation seen.

Everything is deterministic given (seed, parameters): random
permutations come from an explicit Fisher-Yates driven by a PCG64
generator, random weights from normalized standard exponentials, and all
reductions are order-fixed min/max folds.

The sampled checks draw their samples one at a time, in order, and
evaluate them in batches: the samples of one piece count n form one
stack, and each product in it runs the BLAS call that one sample alone
would run, so a report does not depend on the batching.  Blocks of at most
``_SAMPLE_BLOCK`` draws bound the memory; the witness is the first sample
in draw order that reaches the worst margin.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import concordance
from .realize import prototype_for_tau, prototype_shuffle
from .region import theta
from .shuffles import Permutation

__all__ = [
    "VerificationReport",
    "fisher_yates",
    "random_simplex",
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
_SHAPE_TOL = 1e-6
_IDENTITY_TOL = 1e-12
_EXACT_TOL = 1e-14
_MAIN_BUDGET = 50_000_000
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
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _sampled(samples: int, seed: int) -> tuple[int, np.random.Generator]:
    """A sampled check's sample count, checked before its seed, and its
    seeded generator."""
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return samples, np.random.Generator(np.random.PCG64(_seed(seed)))


def _stacks(samples: int, rng: np.random.Generator, draw):
    """Draw ``samples`` samples in order, each ``draw(rng)`` = (n, *fields),
    and yield them stacked by n: (index, n, *fields), each field an array
    with one row per sample and ``index`` their places in draw order.  Draws
    go in blocks of at most ``_SAMPLE_BLOCK``, which bound the memory."""
    for start in range(0, samples, _SAMPLE_BLOCK):
        block = [draw(rng) for _ in range(min(_SAMPLE_BLOCK, samples - start))]
        sizes = np.array([sample[0] for sample in block])
        for n in sorted(set(sizes.tolist())):
            (index,) = np.nonzero(sizes == n)
            yield start + index, n, *(np.array(f) for f in zip(*(block[i][1:] for i in index)))


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

    Exhausts all permutations of each size n up to ``n_max`` against the
    simplex lattice u = k / g, g = ``grid_steps``, k integer.  a*g^2 and
    b*g^3 are sums of pair and triple products of k, for all permutations
    one matrix product with their incidence; the budget keeps them below
    2^53, so they are exact in float64.  theta is taken once per distinct
    a; blocks of at most 2^17 (permutation, lattice row) entries bound the
    memory.  The witness is the first minimum in (n, permutation, lattice
    row) order.

    Equality points (|margin| <= 1e-12) are flat (b = 0, a <= 1/4, where
    theta vanishes) or should be prototype-shaped, a rule decided in
    integers: drop the zero k's and re-rank the images left; each step
    between neighbouring kept entries must be +1 (the two pieces continue
    one straight branch, so they merge into one block) or a descent, so
    the blocks form a decreasing permutation; the block sums of k must
    sort as (r, ..., r, y) with y <= r.  Other points are flagged in the
    notes but do not fail the check, which demands the margin stay above
    -1e-10 and prototype lattice points sit on equality to 1e-12.
    """
    n_max, g = int(n_max), int(grid_steps)
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

    worst: tuple = (math.inf,)  # (margin, n, permutation, chunk, row, images, k)
    others: list[tuple] = []  # unexpected: (n, permutation, chunk, row, images, k)
    n_prototype_eq = n_flat_eq = n_other = n_proto_points = 0
    proto_dev = 0.0
    for n in range(2, n_max + 1):
        perms = np.array(list(itertools.permutations(range(1, n + 1))))
        inverted, cyclic = (mask.astype(float) for mask in concordance._incidence(perms))
        for c, k in enumerate(_compositions(g, n, max(1, _SWEEP_ENTRIES // len(perms)))):
            a_int, margins = concordance._ab(inverted, cyclic, k)
            margins /= g**3  # b, until theta is subtracted
            flat = margins <= _EQUALITY_TOL
            high = 4 * a_int > g**2  # theta vanishes for a <= 1/4
            values, inverse = np.unique(a_int[high], return_inverse=True)
            margins[high] -= theta(values / g**2)[inverse]

            p, r = np.unravel_index(int(np.argmin(margins)), margins.shape)
            worst = min(worst, (float(margins[p, r]), n, int(p), c, int(r), perms[p], k[r]))

            eq = np.abs(margins) <= _EQUALITY_TOL
            flat &= eq
            n_flat_eq += int(flat.sum())
            p, r = np.nonzero(eq & ~flat)
            shaped = _prototype_shaped(perms[p], k[r])
            n_prototype_eq += int(shaped.sum())
            n_other += int((~shaped).sum())
            others += [(n, i, c, j, perms[i], k[j]) for i, j in zip(p[~shaped][:5], r[~shaped][:5])]

            # Equality must hold at the prototype lattice points (r, ..., r, y),
            # y <= r, of the decreasing permutation, the last in lex order;
            # their margins come from the exact a and b above.
            proto = np.all(k[:, :-1] == k[:, :1], axis=1) & (k[:, -1] <= k[:, 0])
            proto_dev = np.max(np.abs(margins[-1, proto]), initial=proto_dev)
            n_proto_points += int(proto.sum())

    margin, n, *_, perm, k = worst
    notes = (
        f"equality points: {n_prototype_eq} prototype-shaped, {n_flat_eq} flat "
        f"(b=0, theta=0), {n_other} unexpected; "
        f"{n_proto_points} prototype lattice points, max |margin| {proto_dev:.3e}"
    )
    if others:
        first = sorted(others, key=lambda t: t[:4])[:5]
        samples = [{"n": m, "perm": im.tolist(), "u": (kk / g).tolist()} for m, *_, im, kk in first]
        notes += "; unexpected samples: " + json.dumps(samples, sort_keys=True)
    return VerificationReport(
        check_name="main_inequality",
        instances_tested=cost,
        worst_margin=margin,
        worst_witness=_witness(n=n, perm=perm.tolist(), u=(k / g).tolist(), margin=margin),
        passed=margin >= -_MAIN_TOL and proto_dev <= _EQUALITY_TOL,
        notes=notes,
    )


# --- minimizer structure --------------------------------------------------

def _e3(u: np.ndarray) -> np.ndarray:
    p1 = u.sum(-1)
    p2 = (u * u).sum(-1)
    p3 = (u**3).sum(-1)
    return (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _project_to_level(u: np.ndarray, c2) -> np.ndarray:
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


def _descend_on_level(u: np.ndarray, c2: np.ndarray, max_sweeps: int = 300):
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


def check_minimizer_structure(n: int, levels: int = 4) -> VerificationReport:
    """The e3-minimizer on each e2 level set has prototype shape.

    For the decreasing permutation (so a = e2 and b = e3) and a ladder of
    level values, minimizes e3 over {u in the simplex : e2(u) = c2} from
    the 455 lattice points k/12 and the analytic prototype seed, each
    projected onto the level: on each level the up to 10 of these lowest
    in e3 that differ after sorting (to 1e-9) are the starts.  One
    coordinate descent runs all starts of all levels in lockstep.  It
    then checks the best point of each level is, after sorting, (r, ...,
    r, y, 0, ..., 0) with y <= r, and that its value agrees with
    theta(c2).
    """
    n = int(n)
    levels = int(levels)
    if n not in (3, 4):
        raise ValueError(f"n must be 3 or 4, got {n}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")

    a_max = (1.0 - 1.0 / n) / 2.0
    lattice = np.concatenate(list(_compositions(12, n, _SWEEP_ENTRIES))) / 12.0
    c2s = [a_max * lvl / levels for lvl in range(1, levels + 1)]
    starts, start_level = [], []
    for lvl, c2 in enumerate(c2s):
        seeds = lattice
        # Analytic prototype seed: invert the prototype pair-weight formula.
        proto = prototype_for_tau(1.0 - 4.0 * c2)
        if proto.n <= n:
            seed = np.zeros(n)
            seed[: proto.n] = prototype_shuffle(proto).weights.u
            seeds = np.vstack([lattice, seed])
        candidates = _project_to_level(seeds, c2)
        seen: set[tuple] = set()
        for cand in candidates[np.argsort(_e3(candidates), kind="stable")]:
            key = tuple(np.round(np.sort(cand), 9))
            if key not in seen:
                seen.add(key)
                starts.append(cand)
                start_level.append(lvl)
            if len(seen) >= 10:
                break
    start_level = np.array(start_level)
    finals, ok = _descend_on_level(np.array(starts), np.array(c2s)[start_level])
    values = _e3(finals)

    worst = math.inf
    worst_info: dict = {}
    notes_parts = []
    all_converged = True
    for lvl, c2 in enumerate(c2s):
        (mine,) = np.nonzero(start_level == lvl)
        pick = mine[np.argmin(values[mine])]
        best_u, best_val, converged = finals[pick], float(values[pick]), bool(ok[pick])
        all_converged = all_converged and converged

        v = np.sort(best_u)[::-1]
        m = int((v > _SHAPE_TOL).sum())
        spread = float(v[0] - v[m - 2]) if m >= 2 else 0.0
        tail = float(v[m:].max()) if m < n else 0.0
        theta_dev = abs(best_val - theta(c2))
        deviation = max(spread, tail, theta_dev)
        if not converged:
            deviation = math.inf
        margin = -deviation
        if margin < worst:
            worst = margin
            worst_info = {
                "n": n,
                "c2": c2,
                "minimizer": [float(x) for x in best_u],
                "e3": best_val,
                "theta": theta(c2),
            }
        notes_parts.append(f"c2={c2:.6g}: spread={spread:.2e}, theta_dev={theta_dev:.2e}")

    passed = worst >= -_SHAPE_TOL and all_converged
    notes = "; ".join(notes_parts)
    if not all_converged:
        notes += "; WARNING: descent did not converge on some level"
    return VerificationReport(
        check_name="minimizer_structure",
        instances_tested=levels,
        worst_margin=worst,
        worst_witness=_witness(**worst_info),
        passed=passed,
        notes=notes,
    )


# --- perturbation identities ----------------------------------------------

def _draw_perturbation(rng: np.random.Generator):
    n = int(rng.integers(2, 11))
    perm = fisher_yates(rng, n)
    u = random_simplex(rng, n)
    d = rng.standard_normal(n)
    return n, perm.images, u, d, rng.uniform(-1.0, 1.0)


def check_perturbation_identities(samples: int, seed: int) -> VerificationReport:
    """a and b along u + t*delta match their finite Taylor forms exactly.

    Each sample draws a permutation, a simplex point, and a zero-sum
    direction, then compares both polynomial identities at t in
    {1/2, -1/2, 1/7, -1/7} and one random t, at 1e-12 relative tolerance.
    """
    samples, rng = _sampled(samples, seed)
    worst = (math.inf, -1, {})  # (margin, draw index, witness)
    for index, n, images, u, d, t in _stacks(samples, rng, _draw_perturbation):
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

def _draw_weighted(rng: np.random.Generator):
    """A sample of the triangle and delta checks: n in 3..10, a permutation
    and a simplex point."""
    n = int(rng.integers(3, 11))
    perm = fisher_yates(rng, n)
    return n, perm.images, random_simplex(rng, n)


def check_triangle_inequality(samples: int, seed: int) -> VerificationReport:
    """c[p,r] + c[q,r] >= c[p,q] >= 0 whenever {p,q,r} is not a descent triple."""
    samples, rng = _sampled(samples, seed)
    worst = (math.inf, -1, {})  # (margin, draw index, witness)
    qualifying = 0
    vacuous = 0
    for index, n, images, u in _stacks(samples, rng, _draw_weighted):
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
    for index, n, images, u in _stacks(samples, rng, _draw_weighted):
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
    l_max = int(l_max)
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

def _draw_swap(rng: np.random.Generator):
    n = int(rng.integers(3, 11))
    in_a = rng.integers(0, 2, size=n - 2) == 1  # does value 2, ..., n - 1 join 1 in block A
    return n, in_a, random_simplex(rng, n)


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
    for index, n, in_a, u in _stacks(samples, rng, _draw_swap):
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
