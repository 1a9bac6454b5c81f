"""Piecewise-linear measure-preserving rearrangements of the unit interval.

A *shuffle* cuts [0, 1] into ``n`` consecutive source pieces of widths
``u_1, ..., u_n`` (a point of the probability simplex), transports piece
``k`` rigidly onto the ``perm(k)``-th slot of a re-partitioned target
interval, and optionally reverses the orientation of individual pieces
(sign -1).  Every such map is a.e. bijective, preserves Lebesgue measure,
and has slope +-1 wherever it is differentiable.  The copula of
``(U, h(U))`` for uniform ``U`` concentrates its mass on the graph of the
map.

Breakpoint convention: the map is evaluated right-continuously, i.e. at a
cut point the segment to the right wins.  Nothing downstream depends on
the choice because single points carry no mass.

Indices are 1-based in the public data types (``perm`` lists the target
slot of each source piece), mirroring the usual one-line permutation
notation.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Permutation",
    "SimplexWeights",
    "Shuffle",
    "RegionPoint",
    "make_shuffle",
    "identity_shuffle",
    "flip_shuffle",
    "breakpoints",
    "evaluate",
    "inverse",
    "flip",
    "ordinal_sum_with_identity",
    "shuffle_to_dict",
    "shuffle_from_dict",
    "read_shuffle_json",
    "write_shuffle_json",
]

_WEIGHT_SUM_TOL = 1e-12
_JSON_SUM_TOL = 1e-9


def _entries(field: str, values, plain: type) -> tuple:
    """``values`` as a tuple of ``plain`` (int or float), after checking that
    every entry is an integer (for int) or a real number (for float) and not
    a bool; numpy integer and float scalars qualify."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= {plain}:
        return values
    kind, what = (numbers.Integral, "integers") if plain is int else (numbers.Real, "real numbers")
    for t in types:
        if issubclass(t, bool) or not issubclass(t, kind):
            bad = next(v for v in values if type(v) is t)
            raise ValueError(f"{field} entries must be {what}, got {bad!r}")
    return tuple(map(plain, values))


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral value raises
    ``ValueError`` naming the argument."""
    (value,) = _entries(name, (value,), int)
    return value


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        imgs = _entries("perm", self.images, int)
        object.__setattr__(self, "images", imgs)
        n = len(imgs)
        if n == 0:
            raise ValueError("permutation must have length >= 1")
        if not (min(imgs) >= 1 and max(imgs) <= n and len(set(imgs)) == n):
            raise ValueError(f"not a bijection of 1..{n}: {imgs}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Image of position ``i`` (1-based)."""
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(tuple(inv))


@dataclass(frozen=True)
class SimplexWeights:
    """Finite nonnegative weights summing to one (tolerance 1e-12)."""

    u: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = _entries("weights", self.u, float)
        object.__setattr__(self, "u", vals)
        if len(vals) == 0:
            raise ValueError("weights must have length >= 1")
        arr = np.asarray(vals)
        if not np.all(np.isfinite(arr) & (arr >= 0.0)):
            raise ValueError(f"weights must be finite and nonnegative, got {vals}")
        total = float(np.sum(arr))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.u)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)


@dataclass(frozen=True)
class Shuffle:
    """A piecewise-linear slope +-1 rearrangement of [0, 1]."""

    perm: Permutation
    weights: SimplexWeights
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = _entries("signs", self.signs, int)
        object.__setattr__(self, "signs", signs)
        if not (self.perm.n == self.weights.n == len(signs)):
            raise ValueError(
                f"length mismatch: perm {self.perm.n}, weights {self.weights.n}, "
                f"signs {len(signs)}"
            )
        if not set(signs) <= {-1, 1}:
            raise ValueError(f"signs must be +-1, got {signs}")

    @property
    def n(self) -> int:
        return self.perm.n


@dataclass(frozen=True)
class RegionPoint:
    """A (tau, rho) pair, both coordinates in [-1, 1] up to 1e-12."""

    tau: float
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "rho", float(self.rho))
        for name, v in (("tau", self.tau), ("rho", self.rho)):
            if not (-1.0 - 1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name}={v!r} outside [-1, 1]")


def make_shuffle(
    perm: Sequence[int] | Permutation,
    weights: Sequence[float] | SimplexWeights,
    signs: Sequence[int] | None = None,
) -> Shuffle:
    """Build a validated shuffle; ``signs`` defaults to all +1 (straight).

    The representation is stored as given: zero pieces and neighbours that
    continue one linear branch are kept.
    """
    p = perm if isinstance(perm, Permutation) else Permutation(tuple(perm))
    w = weights if isinstance(weights, SimplexWeights) else SimplexWeights(tuple(weights))
    if signs is None:
        signs = (1,) * p.n
    return Shuffle(p, w, tuple(signs))


def identity_shuffle() -> Shuffle:
    return make_shuffle((1,), (1.0,), (1,))


def flip_shuffle() -> Shuffle:
    """The map x -> 1 - x (a single reversed piece)."""
    return make_shuffle((1,), (1.0,), (-1,))


def breakpoints(shuffle: Shuffle) -> tuple[np.ndarray, np.ndarray]:
    """Source and target cut points ``(s, t)``, each of length n+1.

    ``s_k`` is the right end of source piece k; ``t_j`` is the right end
    of target slot j, whose width equals the weight of the piece sent
    there.  Both arrays start at 0 and are snapped to end at exactly 1.
    """
    u = shuffle.weights.as_array()
    s = np.concatenate(([0.0], np.cumsum(u)))
    s[-1] = 1.0
    inv_positions = np.argsort(np.asarray(shuffle.perm.images))
    t = np.concatenate(([0.0], np.cumsum(u[inv_positions])))
    t[-1] = 1.0
    return s, t


def evaluate(shuffle: Shuffle, x):
    """Value of the map at ``x`` (scalar or array), right-continuous at cuts.

    Raises ValueError when any input lies outside [0, 1].
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("evaluate: argument outside [0, 1]")
    s, t = breakpoints(shuffle)
    u = shuffle.weights.as_array()
    p = np.asarray(shuffle.perm.images)
    e = np.asarray(shuffle.signs)

    # 'right' makes the segment starting at a cut win and skips zero pieces.
    k = np.searchsorted(s, arr, side="right") - 1
    k = np.clip(k, 0, shuffle.n - 1)

    offset = arr - s[k]
    up = (e[k] == 1)
    y = np.where(up, t[p[k] - 1] + offset, t[p[k]] - offset)
    y = np.clip(y, 0.0, 1.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(y)
    return y


def inverse(shuffle: Shuffle) -> Shuffle:
    """The inverse map, again as a shuffle.

    Target slot j of the input becomes source piece j of the inverse, so
    the inverse carries the inverse permutation with weights and signs
    pulled along it.
    """
    pinv = shuffle.perm.inverse()
    idx = [i - 1 for i in pinv.images]
    u = tuple(shuffle.weights.u[i] for i in idx)
    e = tuple(shuffle.signs[i] for i in idx)
    return Shuffle(pinv, SimplexWeights(u), e)


def flip(shuffle: Shuffle) -> Shuffle:
    """Compose with x -> 1 - x on the output: slot order reverses, signs negate."""
    n = shuffle.n
    p = tuple(n + 1 - v for v in shuffle.perm.images)
    e = tuple(-s for s in shuffle.signs)
    return Shuffle(Permutation(p), shuffle.weights, e)


def ordinal_sum_with_identity(shuffle: Shuffle, s: float) -> Shuffle:
    """Identity on [0, s], then a (1-s)-scaled copy of ``shuffle`` above it.

    ``s = 0`` returns the input unchanged and ``s = 1`` collapses to the
    identity map.  The construction rescales tau by (1-s)^2 and rho by
    (1-s)^3 toward +1.
    """
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s!r} outside [0, 1]")
    if s == 0.0:
        return shuffle
    if s == 1.0:
        return identity_shuffle()
    p = (1,) + tuple(v + 1 for v in shuffle.perm.images)
    w = (s,) + tuple((1.0 - s) * v for v in shuffle.weights.u)
    e = (1,) + shuffle.signs
    return Shuffle(Permutation(p), SimplexWeights(w), e)


# --- JSON interchange -----------------------------------------------------

def shuffle_to_dict(shuffle: Shuffle) -> dict:
    return {
        "perm": list(shuffle.perm.images),
        "weights": list(shuffle.weights.u),
        "signs": list(shuffle.signs),
    }


def shuffle_from_dict(data: dict) -> Shuffle:
    """Validate the ``{"perm": ..., "weights": ..., "signs": ...}`` schema.

    Weight sums are accepted within 1e-9 of one and renormalized.
    """
    if not isinstance(data, dict):
        raise ValueError("shuffle JSON must be an object")
    missing = {"perm", "weights", "signs"} - set(data)
    if missing:
        raise ValueError(f"shuffle JSON missing keys: {sorted(missing)}")
    perm = data["perm"]
    weights = data["weights"]
    signs = data["signs"]
    if not (isinstance(perm, list) and isinstance(weights, list) and isinstance(signs, list)):
        raise ValueError("perm, weights and signs must be arrays")
    if not len(perm) == len(weights) == len(signs):
        raise ValueError("perm, weights and signs must have equal length")
    w = _entries("weights", weights, float)
    total = float(np.sum(w))
    if not abs(total - 1.0) <= _JSON_SUM_TOL:  # also refuses a NaN sum
        raise ValueError(f"weights sum to {total!r}, outside 1 +- {_JSON_SUM_TOL}")
    return make_shuffle(perm, [v / total for v in w], signs)


def read_shuffle_json(path: str | Path) -> Shuffle:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return shuffle_from_dict(data)


def write_shuffle_json(shuffle: Shuffle, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(shuffle_to_dict(shuffle), fh)
        fh.write("\n")
