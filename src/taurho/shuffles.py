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

``Permutation``, ``SimplexWeights`` and ``Shuffle`` hold their entries
once, as read-only numpy arrays (int64 images, float64 weights, int8
signs) that a few vector operations validate; an array passed in is
copied.  ``as_array()`` and ``as_arrays()`` hand those arrays out, and
the values compare and hash by their entries.  ``images``, ``u`` and
``signs`` are tuple views, built at each read in O(n).  A tuple, list or
JSON array is judged entry by entry, so that ``True`` or ``1.5`` is
rejected rather than cast; an ndarray is judged by its dtype.  An error
names the field, its first offending entry and the bound it broke.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
# plain type -> (type an entry must have, its name, ndarray dtype kinds accepted, dtype stored)
_KINDS = {
    int: (numbers.Integral, "integers", "iu", np.int64),
    float: (numbers.Real, "real numbers", "iuf", np.float64),
}


def _wrong_type(t: type, plain: type) -> bool:
    """Whether a value of type ``t`` fails as ``plain``: a bool, or not an
    integer (for int) or a real number (for float).  Numpy integer and
    float scalars pass."""
    return issubclass(t, bool) or not issubclass(t, _KINDS[plain][0])


def _scalar(name: str, value, plain: type):
    """``value`` as ``plain`` (int or float); an error names the argument."""
    if type(value) is not plain and _wrong_type(type(value), plain):
        what = "an integer" if plain is int else "a real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return plain(value)


def _integer(name: str, value) -> int:
    return _scalar(name, value, int)


def _array(field: str, values, plain: type, narrow=None) -> np.ndarray:
    """``values`` as a new nonempty 1-D int64 (``plain`` int) or float64
    (``plain`` float) array, owned by the caller; an ndarray that casts
    safely to the dtype ``narrow`` is cast once, to it.  An ndarray is
    judged by its dtype; any other sequence by the type of each entry,
    because casting ``[1, True]`` or ``[1.5]`` to int64 passes silently.
    An error names the first offending entry."""
    what, kinds, dtype = _KINDS[plain][1:]
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        wraps = kind == "u" and values.itemsize == 8 and plain is int  # int64 can't hold all uint64
        if values.ndim != 1 or kind not in kinds or wraps:
            got = f"{values.dtype} of shape {values.shape}"
            raise ValueError(f"{field} must be a 1-D array of {what}, got {got}")
        arr = values.astype(narrow if narrow and np.can_cast(values.dtype, narrow) else dtype)
    else:
        values = tuple(values)
        types = set(map(type, values))
        if not types <= {plain} and any(_wrong_type(t, plain) for t in types):
            i = next(i for i, v in enumerate(values) if _wrong_type(type(v), plain))
            raise ValueError(f"{field} entries must be {what}, got {values[i]!r} at {field}[{i}]")
        try:
            arr = np.array(values, dtype)
        except OverflowError:  # an entry beyond the dtype's range
            info = np.iinfo(dtype) if plain is int else np.finfo(dtype)
            lo, hi = plain(info.min), plain(info.max)
            i = next(i for i, v in enumerate(values) if not lo <= v <= hi)
            raise ValueError(
                f"{field}[{i}] = {values[i]} is outside the {info.dtype} range [{lo}, {hi}]"
            ) from None
    if len(arr) == 0:
        raise ValueError(f"{field} must have length >= 1")
    return arr


class _Frozen:
    """A value held as validated read-only arrays, ``as_arrays()``: equal,
    hashed, shown and pickled (so rebuilt and validated) by their entries."""

    __slots__ = ()
    n = property(lambda self: len(self.as_arrays()[-1]), doc="The number of pieces.")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self.as_arrays(), other.as_arrays()))

    def __hash__(self) -> int:
        return hash(tuple((a + 0).tobytes() for a in self.as_arrays()))  # + 0 maps -0.0 to 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(repr(a.tolist()) for a in self.as_arrays())})"

    def __reduce__(self):
        return type(self), self.as_arrays()


class Permutation(_Frozen):
    """A permutation of {1, ..., n} in one-line notation, held as a
    read-only int64 array."""

    __slots__ = ("_images",)

    def __init__(self, images) -> None:
        arr = _array("perm", images, int)
        n = len(arr)
        try:  # every entry at most n, and each of 1..n seen; bincount rejects a negative
            ok = np.maximum.reduce(arr) <= n
            ok = ok and np.count_nonzero(np.bincount(arr, minlength=n + 1)[1:]) == n
        except ValueError:
            ok = False
        if not ok:
            repeat = np.ones(n, dtype=bool)
            repeat[np.unique(arr, return_index=True)[1]] = False
            i = int(((arr < 1) | (arr > n) | repeat).argmax())
            bound = "repeats an earlier entry" if 1 <= arr[i] <= n else f"outside 1..{n}"
            raise ValueError(f"perm[{i}] = {arr[i]} {bound}")
        arr.setflags(write=False)
        self._images = arr

    @property
    def images(self) -> tuple[int, ...]:
        """The images as a tuple of int, built at each read in O(n)."""
        return tuple(self._images.tolist())

    def as_arrays(self) -> tuple[np.ndarray]:
        return (self._images,)

    def as_array(self) -> np.ndarray:
        """The images as a read-only int64 array."""
        return self._images

    def __call__(self, i: int) -> int:
        """Image of position ``i`` (1-based)."""
        return int(self._images[i - 1])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self._images)
        inv[self._images - 1] = np.arange(1, self.n + 1)
        return Permutation(inv)


class SimplexWeights(_Frozen):
    """Finite nonnegative weights summing to one (tolerance 1e-12), held as
    a read-only float64 array."""

    __slots__ = ("_u",)

    def __init__(self, u) -> None:
        arr = _array("weights", u, float)
        # A NaN fails >= 0 and an infinity makes the sum infinite.  The
        # ufuncs' reduce skips the Python wrappers of arr.min() and arr.sum().
        if not (np.minimum.reduce(arr) >= 0.0 and abs(np.add.reduce(arr) - 1.0) <= _WEIGHT_SUM_TOL):
            bad = ~(np.isfinite(arr) & (arr >= 0.0))
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"weights[{i}] = {float(arr[i])!r} is not finite and nonnegative")
            raise ValueError(f"weights sum to {float(arr.sum())!r}, not 1 within {_WEIGHT_SUM_TOL}")
        arr.setflags(write=False)
        self._u = arr

    @property
    def u(self) -> tuple[float, ...]:
        """The weights as a tuple of float, built at each read in O(n)."""
        return tuple(self._u.tolist())

    def as_arrays(self) -> tuple[np.ndarray]:
        return (self._u,)

    def as_array(self) -> np.ndarray:
        """The weights as a read-only float64 array."""
        return self._u


class Shuffle(_Frozen):
    """A piecewise-linear slope +-1 rearrangement of [0, 1]; its signs are
    held as a read-only int8 array."""

    __slots__ = ("_perm", "_weights", "_signs")

    def __init__(self, perm: Permutation, weights: SimplexWeights, signs) -> None:
        arr = _array("signs", signs, int, np.int8)
        if not (len(perm._images) == len(weights._u) == len(arr)):
            raise ValueError(
                f"length mismatch: perm {perm.n}, weights {weights.n}, signs {len(arr)}"
            )
        bad = np.abs(arr) != 1
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            raise ValueError(f"signs[{i}] = {arr[i]} is not -1 or 1")
        self._perm, self._weights, self._signs = perm, weights, arr.astype(np.int8, copy=False)
        self._signs.setflags(write=False)

    perm = property(lambda self: self._perm)
    weights = property(lambda self: self._weights)

    @property
    def signs(self) -> tuple[int, ...]:
        """The signs as a tuple of int, built at each read in O(n)."""
        return tuple(self._signs.tolist())

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The images, weights and signs as read-only arrays."""
        return self._perm._images, self._weights._u, self._signs

    def __reduce__(self):
        return make_shuffle, self.as_arrays()


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
    p = perm if isinstance(perm, Permutation) else Permutation(perm)
    w = weights if isinstance(weights, SimplexWeights) else SimplexWeights(weights)
    return Shuffle(p, w, np.ones(p.n, dtype=np.int8) if signs is None else signs)


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
    p, u, _ = shuffle.as_arrays()
    s = np.concatenate(([0.0], np.cumsum(u)))
    s[-1] = 1.0
    t = np.concatenate(([0.0], np.cumsum(u[np.argsort(p)])))
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
    p, _, e = shuffle.as_arrays()

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
    _, u, e = shuffle.as_arrays()
    idx = pinv.as_array() - 1
    return Shuffle(pinv, SimplexWeights(u[idx]), e[idx])


def flip(shuffle: Shuffle) -> Shuffle:
    """Compose with x -> 1 - x on the output: slot order reverses, signs negate."""
    p, _, e = shuffle.as_arrays()
    return Shuffle(Permutation(shuffle.n + 1 - p), shuffle.weights, -e)


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
    p, u, e = shuffle.as_arrays()
    return Shuffle(
        Permutation(np.concatenate(([1], p + 1))),
        SimplexWeights(np.concatenate(([s], (1.0 - s) * u))),
        np.concatenate(([1], e)),
    )


# --- JSON interchange -----------------------------------------------------

def shuffle_to_dict(shuffle: Shuffle) -> dict:
    p, u, e = shuffle.as_arrays()
    return {"perm": p.tolist(), "weights": u.tolist(), "signs": e.tolist()}


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
    w = _array("weights", weights, float)
    total = float(np.add.reduce(w))
    if not abs(total - 1.0) <= _JSON_SUM_TOL:  # also refuses a NaN sum
        raise ValueError(f"weights sum to {total!r}, outside 1 +- {_JSON_SUM_TOL}")
    return make_shuffle(perm, w / total, signs)


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
