"""Compatible pairs (Lambda, B) on finite windows and their mutations.

A pair lives on a window [1, s].  The exchange matrix is stored as a dense
(s, s) integer matrix whose columns at frozen positions are identically zero;
Lambda is dense skew-symmetric.  Positions are 1-based in every public API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SeedError(ValueError):
    pass


def pos(a: np.ndarray) -> np.ndarray:
    """Entrywise positive part [x]_+."""
    return np.maximum(a, 0)


@dataclass(frozen=True)
class CompatiblePair:
    """A skew-symmetric Lambda with an exchange matrix B and diagonal data.

    ``diag[u-1]`` is the symmetrizer value attached to position u; the
    compatibility identity reads sum_k B[k,u] Lambda[k,v] = 2 diag[u] delta_uv
    for exchangeable u.
    """

    lam: np.ndarray
    b: np.ndarray
    exchangeable: frozenset[int]
    diag: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.lam.shape[0]

    @property
    def frozen(self) -> frozenset[int]:
        return frozenset(range(1, self.size + 1)) - self.exchangeable

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompatiblePair):
            return NotImplemented
        return (
            self.exchangeable == other.exchangeable
            and self.diag == other.diag
            and np.array_equal(self.lam, other.lam)
            and np.array_equal(self.b, other.b)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.exchangeable, self.diag, self.lam.tobytes(), self.b.tobytes()))

    def __reduce__(self):
        # A copied or unpickled pair gets read-only arrays of its own and no cached data.
        return (_frozen_pair, (self.lam.copy(), self.b.copy(), self.exchangeable, self.diag))

    @cached_property
    def degree_check(self):
        """The seed data of ``torus.degree_of_pointed`` for this pair, built on first use."""
        from .torus import DegreeCheck  # the torus layer builds on this module

        return DegreeCheck(self)


def _frozen_pair(lam: np.ndarray, b: np.ndarray, ex: frozenset[int], diag: tuple[int, ...]) -> CompatiblePair:
    lam.setflags(write=False)
    b.setflags(write=False)
    return CompatiblePair(lam, b, ex, diag)


def make_pair(
    lam: np.ndarray,
    b: np.ndarray,
    exchangeable: frozenset[int] | set[int],
    diag: tuple[int, ...],
) -> CompatiblePair:
    """A checked pair on copies of lam and b; the caller's arrays stay writable."""
    return _adopt_pair(np.array(lam, dtype=np.int64), np.array(b, dtype=np.int64), exchangeable, diag)


def _adopt_pair(
    lam: np.ndarray,
    b: np.ndarray,
    exchangeable: frozenset[int] | set[int],
    diag: tuple[int, ...],
) -> CompatiblePair:
    """make_pair on fresh int64 arrays the caller gives up: they are frozen in place."""
    s = lam.shape[0]
    if lam.shape != (s, s) or b.shape != (s, s):
        raise SeedError("Lambda and B must be square of equal size")
    if not np.array_equal(lam, -lam.T):
        raise SeedError("Lambda must be skew-symmetric")
    ex = frozenset(int(u) for u in exchangeable)
    for v in range(1, s + 1):
        if v not in ex and np.any(b[:, v - 1]):
            raise SeedError(f"frozen column {v} must be zero")
    if len(diag) != s:
        raise SeedError("diagonal length mismatch")
    diag = tuple(int(d) for d in diag)
    for u, d in enumerate(diag, 1):
        if d < 1:
            raise SeedError(f"diag entry {d} at position {u} is below 1")
        if 2 * d >= 2**63:
            raise SeedError(f"diag entry {d} at position {u} is too large: 2 d must fit in int64")
    return _frozen_pair(lam, b, ex, diag)


def check_compatible(pair: CompatiblePair) -> bool:
    """Whether sum_k b_{k,u} Lambda_{k,v} = 2 d_u delta_{u,v} for u exchangeable.

    Raises SeedError unless s max|b| max|Lambda| is below 2**63, which keeps
    every partial sum of B^T Lambda in int64.
    """
    if pair.size * _amax(pair.b) * _amax(pair.lam) >= 2**63:
        raise SeedError("B^T Lambda would overflow int64: s max|b| max|Lambda| reaches 2**63")
    m = pair.b.T @ pair.lam
    for u in pair.exchangeable:
        row = m[u - 1]
        want = np.zeros(pair.size, dtype=np.int64)
        want[u - 1] = 2 * pair.diag[u - 1]
        if not np.array_equal(row, want):
            return False
    return True


def _amax(a: np.ndarray) -> int:
    """max |a| as a Python int; the unsigned view reads |-2**63| as 2**63."""
    return int(np.abs(a).view(np.uint64).max(initial=0))


def mutate_arrays(lam: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """BZ mutation mu_k(Lambda, B) = (E^T Lambda E, E B F) at position k (1-based).

    Works on plain arrays of shape (..., s, s), mutating every pair of a stack
    at the same k, and returns new ones; the inputs are not written to and k is
    not checked against the frozen set.  Raises SeedError unless
    s max|Lambda| max|b| and max|b| (max|b| + 1) are below 2**63.
    """
    # These bound every partial sum below, for skew-symmetric Lambda: column
    # k of Lambda' sums s terms Lambda_uv e_v with |e_v| <= max(|b_vk|, 1),
    # and b'_uv adds at most one b_uk b_kv to b_uv.
    mb = _amax(b)
    if lam.shape[-1] * _amax(lam) * max(mb, 1) >= 2**63 or mb * (mb + 1) >= 2**63:
        raise SeedError(f"mutation at {k} would overflow int64")
    kk = k - 1
    col = b[..., :, kk]
    row = b[..., kk, :]
    # E differs from the identity in column k only, so Lambda E differs from
    # Lambda in column k, and the skew-symmetric E^T Lambda E in row k as well.
    e = pos(-col)
    e[..., kk] = -1
    lam2 = lam.copy()
    lam2[..., :, kk] = (lam @ e[..., :, None])[..., 0]
    lam2[..., kk, :] = -lam2[..., :, kk]
    lam2[..., kk, kk] = 0
    # B' via the scalar rule b'_uv = b_uv + sgn(b_uk) [b_uk b_kv]_+ (equal to E B F).
    b2 = b + np.sign(col)[..., :, None] * pos(col[..., :, None] * row[..., None, :])
    b2[..., kk, :] = -row
    b2[..., :, kk] = -col
    return lam2, b2


def mutate_pair(pair: CompatiblePair, k: int) -> CompatiblePair:
    """BZ mutation of a pair at an exchangeable position k."""
    if k not in pair.exchangeable:
        raise SeedError(f"position {k} is frozen or out of range")
    lam, b = mutate_arrays(pair.lam, pair.b, k)
    return _frozen_pair(lam, b, pair.exchangeable, pair.diag)


def permute_pair(pair: CompatiblePair, perm: dict[int, int]) -> CompatiblePair:
    """Relabel positions by a permutation of the window.

    ``perm`` maps old position -> new position; unspecified points are fixed.
    Every row, column and label moves with it, so the exchangeable and the
    frozen sets of the result are the images of the pair's own.
    """
    s = pair.size
    full = {u: perm.get(u, u) for u in range(1, s + 1)}
    if sorted(full.values()) != list(range(1, s + 1)):
        raise SeedError("not a permutation of the window")
    inv = {v: u for u, v in full.items()}
    idx = np.array([inv[v] - 1 for v in range(1, s + 1)])
    lam = pair.lam[np.ix_(idx, idx)].copy()
    b = pair.b[np.ix_(idx, idx)].copy()
    diag = tuple(pair.diag[inv[v] - 1] for v in range(1, s + 1))
    ex = frozenset(full[u] for u in pair.exchangeable)
    return _frozen_pair(lam, b, ex, diag)


def transpositions(*ks: int) -> dict[int, int]:
    """The permutation sigma_{k_1} sigma_{k_2} ... for disjoint transpositions."""
    perm: dict[int, int] = {}
    for k in ks:
        perm[k] = k + 1
        perm[k + 1] = k
    return perm


# ----------------------------------------------------------------------
# valued quivers


@dataclass(frozen=True)
class ValuedQuiver:
    """Arrow presentation of an exchange matrix.

    An arrow (u, v) with value (a, b) means b_{u,v} = a >= 0 and b_{v,u} = b <= 0,
    entries at frozen columns being understood as 0.  No arrows are kept
    between two frozen vertices.
    """

    size: int
    frozen: frozenset[int]
    arrows: tuple[tuple[int, int, int, int], ...]  # (src, dst, a, b)

    def arrow_map(self) -> dict[tuple[int, int], tuple[int, int]]:
        return {(s, t): (a, b) for s, t, a, b in self.arrows}


def quiver_from_matrix(b: np.ndarray, frozen: frozenset[int] | set[int]) -> ValuedQuiver:
    s = b.shape[0]
    frozen = frozenset(frozen)
    arrows = []
    for u in range(1, s + 1):
        for v in range(u + 1, s + 1):
            if u in frozen and v in frozen:
                continue
            x = int(b[u - 1, v - 1]) if v not in frozen else 0
            y = int(b[v - 1, u - 1]) if u not in frozen else 0
            if x == 0 and y == 0:
                continue
            if x > 0 or y < 0:
                if x < 0 or y > 0:
                    raise SeedError(f"entries at ({u},{v}) have incoherent signs")
                arrows.append((u, v, x, y))
            else:
                arrows.append((v, u, y, x))
    return ValuedQuiver(s, frozen, tuple(sorted(arrows)))


def quiver_to_matrix(q: ValuedQuiver) -> np.ndarray:
    b = np.zeros((q.size, q.size), dtype=np.int64)
    for s, t, a, bb in q.arrows:
        if t not in q.frozen:
            b[s - 1, t - 1] = a
        if s not in q.frozen:
            b[t - 1, s - 1] = bb
    return b


def quiver_mutate(q: ValuedQuiver, k: int) -> ValuedQuiver:
    """Valued-quiver mutation at k via the local composition/cancel/reverse rules."""
    if k in q.frozen or not 1 <= k <= q.size:
        raise SeedError(f"vertex {k} is frozen or out of range")
    amap = q.arrow_map()

    def value_between(u: int, v: int) -> tuple[int, int, int]:
        # returns (orientation, a, b): +1 for arrow u->v, -1 for v->u, 0 none
        if (u, v) in amap:
            a, b = amap[(u, v)]
            return 1, a, b
        if (v, u) in amap:
            a, b = amap[(v, u)]
            return -1, a, b
        return 0, 0, 0

    ins = [(s, a, b) for (s, t), (a, b) in amap.items() if t == k]
    outs = [(t, a, b) for (s, t), (a, b) in amap.items() if s == k]

    new: dict[tuple[int, int], tuple[int, int]] = dict(amap)

    for i, a, b in ins:  # arrow i -> k with value (a, b)
        for j, c, d in outs:  # arrow k -> j with value (c, d)
            if i == j or (i in q.frozen and j in q.frozen):
                continue
            if a * c <= 0 and b * d <= 0:
                continue
            orient, e, f = value_between(i, j)
            for key in ((i, j), (j, i)):
                new.pop(key, None)
            if orient >= 0:
                # composition rule on a path i -> k -> j with arrow i -> j
                e2, f2 = e + a * c, f - b * d
                if e2 or f2:
                    new[(i, j)] = (e2, f2)
            else:
                # cancellation rule against the closing arrow j -> i
                if f + a * c <= 0 <= e - b * d:
                    if e - b * d or f + a * c:
                        new[(j, i)] = (e - b * d, f + a * c)
                elif f + a * c >= 0 >= e - b * d:
                    new[(i, j)] = (f + a * c, e - b * d)
                else:  # pragma: no cover - cannot happen for exchange matrices
                    raise SeedError("cancel rule produced incoherent values")

    # reversal rule at k
    final: dict[tuple[int, int], tuple[int, int]] = {}
    for (s, t), (a, b) in new.items():
        if s == k or t == k:
            final[(t, s)] = (-b, -a)
        else:
            final[(s, t)] = (a, b)
    arrows = tuple(sorted((s, t, a, b) for (s, t), (a, b) in final.items()))
    return ValuedQuiver(q.size, q.frozen, arrows)


# ----------------------------------------------------------------------
# seed files


def pair_to_json(pair: CompatiblePair, type_code: str = "", sequence: list[int] | None = None) -> str:
    s = pair.size
    triplets = [
        [u, v, int(pair.b[u - 1, v - 1])]
        for u in range(1, s + 1)
        for v in range(1, s + 1)
        if pair.b[u - 1, v - 1]
    ]
    doc = {
        "type": type_code,
        "sequence": list(sequence) if sequence is not None else [],
        "window": s,
        "lambda": pair.lam.tolist(),
        "b": triplets,
        "frozen": sorted(pair.frozen),
        "diag": list(pair.diag),
    }
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SeedError(f"{what} {value!r} is not an integer")
    if not -(2**63) <= value < 2**63:
        raise SeedError(f"{what} {value} does not fit in int64")
    return value


def _json_ints(values, what: str) -> list[int]:
    if not isinstance(values, list):
        raise SeedError(f"{what} {values!r} is not a list of integers")
    return [_json_int(v, f"{what} entry") for v in values]


def pair_from_json(text: str) -> tuple[CompatiblePair, dict]:
    """Read a seed file, checking its keys, that its numbers are integers, its
    window, frozen positions and triplet indices, and compatibility."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeedError(f"seed file is not valid JSON: {exc}") from None
    missing = [key for key in ("window", "lambda", "b") if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise SeedError(f"seed file lacks {', '.join(missing)}")
    if not isinstance(doc.get("type", ""), str):
        raise SeedError(f"type {doc['type']!r} is not a string")
    _json_ints(doc.get("sequence", []), "sequence")
    s = _json_int(doc["window"], "window")
    if not isinstance(doc["lambda"], list) or not isinstance(doc["b"], list):
        raise SeedError("lambda and b must be lists")
    rows = [_json_ints(row, "lambda row") for row in doc["lambda"]]
    if len(rows) != s or any(len(row) != s for row in rows):
        raise SeedError(f"lambda is not a {s} x {s} matrix for window {s}")
    frozen = set(_json_ints(doc.get("frozen", []), "frozen"))
    if any(not 1 <= v <= s for v in frozen):
        raise SeedError(f"frozen positions {sorted(frozen)} outside the window 1..{s}")
    lam = np.array(rows, dtype=np.int64)
    b = np.zeros((s, s), dtype=np.int64)
    for entry in doc["b"]:
        triplet = _json_ints(entry, "b triplet")
        if len(triplet) != 3:
            raise SeedError(f"b triplet {entry!r} does not have three entries")
        u, v, val = triplet
        if not (1 <= u <= s and 1 <= v <= s):
            raise SeedError(f"b entry ({u},{v}) outside the window 1..{s}")
        b[u - 1, v - 1] = val
    ex = set(range(1, s + 1)) - frozen
    diag = tuple(_json_ints(doc.get("diag", [1] * s), "diag"))
    pair = _adopt_pair(lam, b, ex, diag)
    if not check_compatible(pair):
        raise SeedError("Lambda and B are not compatible")
    return pair, doc
