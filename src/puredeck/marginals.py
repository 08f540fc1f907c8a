"""Partial traces, marginal families, and decks of reduced density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .states import (Marginal, PureState, _cut, _integer, _text_integer,
                     _unchecked, check_subset)

# Two aligned decks are called equal when no pair of corresponding marginals
# differs by more than this in Frobenius norm.  Two orders above accumulated
# double-precision error at the sizes handled here, far below any genuine
# physical difference.
DECK_TOL = 1e-9

# Bytes per scratch array of one chunk of subsets in the pair kernel
# (`_pair_gap`).
_PAIR_BYTES = 1 << 20


@dataclass(frozen=True)
class MarginalFamily:
    """Ordered, duplicate-free family of party subsets."""

    num_parties: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        num_parties = _integer(self.num_parties, "num_parties")
        if num_parties < 1:
            raise ValueError("need at least one party")
        object.__setattr__(self, "num_parties", num_parties)
        subsets = tuple(check_subset(s, num_parties) for s in self.subsets)
        if len(set(subsets)) != len(subsets):
            raise ValueError("family contains duplicate subsets")
        object.__setattr__(self, "subsets", subsets)

    @classmethod
    def complete(cls, num_parties: int, k: int) -> "MarginalFamily":
        """All C(N, k) k-subsets in lexicographic order.

        N and k are read by `states._integer`: a float, bool or string
        raises TypeError.  The subsets skip the constructor's checks, as
        `Marginal._trusted` does, since they are sorted, in range and
        distinct by construction.
        """
        num_parties = _integer(num_parties, "num_parties")
        k = _integer(k, "k")
        if k < 1 or k > num_parties:
            raise ValueError(f"k={k} outside 1..{num_parties}")
        return _unchecked(cls, num_parties=num_parties, subsets=tuple(
            combinations(range(1, num_parties + 1), k)))

    @classmethod
    def parse(cls, num_parties: int, text: str) -> "MarginalFamily":
        """Parse 'k=<int>' (complete k-deck) or '1,2,3;4,5,6;...'."""
        text = text.strip(" ")
        if text.startswith("k="):
            return cls.complete(num_parties, _text_integer(text[2:], "k"))
        subsets = []
        for chunk in text.split(";"):
            chunk = chunk.strip(" ")
            if not chunk:
                continue
            subsets.append(tuple(_text_integer(p, "party")
                                 for p in chunk.split(",")))
        return cls(num_parties, tuple(subsets))

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    @cached_property
    def _masks(self) -> np.ndarray:
        """Each member as an integer bitmask, bit p - 1 set for party p;
        worked out on first use and kept."""
        sizes = np.fromiter(map(len, self.subsets), dtype=np.intp,
                            count=len(self))
        member = np.zeros((len(self), self.num_parties), dtype=bool)
        member[np.repeat(np.arange(len(self)), sizes),
               np.fromiter(chain.from_iterable(self.subsets), dtype=np.intp,
                           count=int(sizes.sum())) - 1] = True
        return member @ (1 << np.arange(self.num_parties))


@dataclass(frozen=True)
class Deck:
    """The marginals of one state, aligned with a family of subsets."""

    family: MarginalFamily
    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        if len(self.marginals) != len(self.family.subsets):
            raise ValueError("deck length does not match family length")
        for marg, subset in zip(self.marginals, self.family.subsets):
            if marg.parties != subset:
                raise ValueError(
                    f"marginal for {marg.parties} misaligned with subset {subset}"
                )

    def to_json_dict(self) -> dict:
        cards = []
        for marg in self.marginals:
            flat = [[float(z.real), float(z.imag)] for z in marg.matrix.ravel()]
            cards.append({"parties": list(marg.parties), "matrix": flat})
        return {"num_parties": self.family.num_parties, "marginals": cards}


def _product(state: PureState, subset, buffers: dict) -> np.ndarray:
    """rho = M M^dagger for the checked `subset`, M being `state` as a
    dim(subset) x dim(rest) matrix; the only place a marginal is computed.

    M, its conjugate and rho are written into arrays that `buffers`, a dict
    owned by the caller, keeps by shape, so streaming a deck touches no
    fresh pages after the first marginal of each shape.  The next call with
    the same dict overwrites rho; a fresh dict gives a rho of its own.
    """
    dims = state.structure.local_dims
    first = [p - 1 for p in subset]
    rows = math.prod(dims[i] for i in first)
    shape = (rows, state.structure.total_dim // rows)
    if shape not in buffers:
        buffers[shape] = (np.empty(shape, dtype=np.complex128),
                          np.empty(shape, dtype=np.complex128),
                          np.empty((rows, rows), dtype=np.complex128))
    mat, conj, rho = buffers[shape]
    _cut(state.amplitudes, dims, first, out=mat)
    np.conjugate(mat, out=conj)
    return np.matmul(mat, conj.T, out=rho)


def _check_parties(state: PureState, family: MarginalFamily) -> None:
    if family.num_parties != state.structure.num_parties:
        raise ValueError("family defined for a different number of parties")


def partial_trace(state: PureState, keep) -> Marginal:
    """Reduced density matrix on `keep`, tracing out the complement.

    The result skips `Marginal`'s checks because it passes them by
    construction.  rho = M M^dagger, where M is the state reshaped to
    dim(keep) x dim(traced), is Hermitian, positive semidefinite and of
    trace ||psi||^2 in exact arithmetic, and `PureState` guarantees finite
    amplitudes with | ||psi||^2 - 1 | <= NORM_TOL = 1e-12.  M has at most
    DIM_CAP / 2 = 32768 columns, so the rounding error E of the product obeys
    |E| <= c * 32768 * u * |M| |M|^T entrywise, with u = 2^-53 and a small
    constant c for complex arithmetic (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.5).  Both ||E||_F and |trace E| are then
    at most c * 32768 * u * ||M||_F^2, below 1e-11.  That bounds the
    Hermiticity error (2 ||E||_F), the trace error (|trace E| + NORM_TOL)
    and how far the smallest eigenvalue can fall below zero (||E||_2), each
    well inside MARGINAL_TOL (1e-10).  `compute_deck` builds its decks from
    it; a twin check never calls it, but either streams its marginals from
    the same `_product` or sums their nonzero terms in another order
    (`_deck_gap`), so the bound covers them too.
    """
    keep = check_subset(keep, state.structure.num_parties)
    return Marginal._trusted(keep, _product(state, keep, {}))


def compute_deck(state: PureState, family: MarginalFamily) -> Deck:
    _check_parties(state, family)
    return Deck(family, tuple(partial_trace(state, s) for s in family.subsets))


def _deck_gap(reference: PureState, twin: PureState,
              family: MarginalFamily) -> float:
    """`deck_distance` of the decks of `reference` and `twin` on `family`,
    without building either deck.

    Let S be the union of the two states' supports, their nonzero
    amplitudes (an exact test, with no tolerance).  When |S|^2 is at most
    the total dimension, the gap comes from `_pair_gap`, which reads only
    the amplitudes on S at a cost of about |S|^2 per subset K, no more than
    the total dimension, while a dense marginal costs dim(K)^2 dim(rest) =
    dim(K) total_dim.  Otherwise, and so for every pair with no zero
    amplitude, such as any Haar pair, the two states' marginals are
    streamed side by side: only one marginal of each is alive at a time, in
    `_product`'s buffers reused across marginals of one shape.  The
    arithmetic on that path is that of `deck_distance`, bit for bit: each
    marginal's product is the same gemm, each reference-minus-twin
    difference gets one `np.linalg.norm`, and the maximum runs over the
    whole family, without stopping early.
    """
    _check_parties(reference, family)
    _check_parties(twin, family)
    dims = reference.structure.local_dims
    if dims != twin.structure.local_dims:
        raise ValueError("states have different local dimensions")
    support = np.flatnonzero((reference.amplitudes != 0)
                             | (twin.amplitudes != 0))
    if support.size ** 2 <= reference.structure.total_dim:
        return _pair_gap(reference.amplitudes[support],
                         twin.amplitudes[support], support, dims, family)
    ref_buffers, twin_buffers = {}, {}
    gap = 0.0
    for subset in family.subsets:
        ref = _product(reference, subset, ref_buffers)
        mat = _product(twin, subset, twin_buffers)
        # reference minus twin, written over the twin's spent product
        gap = max(gap, float(np.linalg.norm(np.subtract(ref, mat, out=mat))))
    return gap


def _pair_gap(a: np.ndarray, b: np.ndarray, support: np.ndarray, dims,
              family: MarginalFamily) -> float:
    """The largest Frobenius norm over `family` of the difference of the
    marginals of two states that are zero off the basis indices `support`
    and hold amplitudes `a` and `b` on it.

    Entry (x_K, y_K) of the marginal on a subset K sums psi_x conj(psi_y)
    over the basis pairs x, y that agree on every party outside K.  So the
    difference is a group sum of w = a a^H - b b^H over the ordered pairs
    of `support`: a pair reaches exactly the subsets that contain the
    parties where its digits differ, and lands on the entry keyed by the
    subset and its digits on the subset.  Those keys are summed with
    `np.unique` and `np.bincount`, and each subset's squared entries are
    summed the same way.  Both orders of a pair are kept, so an
    off-diagonal entry counts as often as in the matrix.  A pair that
    differs on more parties than the largest subset has reaches nothing and
    is dropped first.  The family is walked in chunks of subsets, sized so
    that no scratch array of a chunk exceeds `_PAIR_BYTES`.

    Each entry sums the nonzero terms of the dense difference, only in
    another order, and `partial_trace`'s rounding bound holds for any
    order, so it covers the gap too.  The cost is about |S|^2 per subset,
    against dim(K)^2 dim(rest) for a dense marginal.
    """
    n = len(dims)
    total = math.prod(dims)
    # bit i of a mask is set when party i + 1 is in the subset, or when the
    # digits of party i + 1 differ in the pair
    bits = 1 << np.arange(n)
    masks = family._masks
    member = (masks[:, None] & bits) != 0
    sizes = np.count_nonzero(member, axis=1)
    digits = np.stack(np.unravel_index(support, dims), axis=-1)
    differ = digits[:, None, :] != digits[None, :, :]
    x, y = np.nonzero(np.count_nonzero(differ, axis=-1)
                      <= sizes.max(initial=0))
    mismatch = differ[x, y] @ bits
    w = a[x] * np.conjugate(a[y]) - b[x] * np.conjugate(b[y])
    # x_K of a basis state: its index with the digits outside K zeroed
    strides = total // np.cumprod(dims)
    inside = member * strides
    chunk = max(1, _PAIR_BYTES // (8 * x.size))
    best = 0.0
    for start in range(0, len(family), chunk):
        stop = start + chunk
        k, pair = np.nonzero((mismatch & ~masks[start:stop, None]) == 0)
        codes = inside[start:stop] @ digits.T
        key = (k * total + codes[k, x[pair]]) * total + codes[k, y[pair]]
        entries, slot = np.unique(key, return_inverse=True)
        square = (np.bincount(slot, w.real[pair]) ** 2
                  + np.bincount(slot, w.imag[pair]) ** 2)
        best = max(best, float(np.bincount(entries // total ** 2,
                                           square).max()))
    return math.sqrt(best)


def deck_distance(a: Deck, b: Deck) -> float:
    """Maximum Frobenius distance across marginals aligned by position."""
    if a.family.num_parties != b.family.num_parties:
        raise ValueError("decks defined over different party counts")
    if a.family.subsets != b.family.subsets:
        raise ValueError("decks have different (ordered) families")
    dist = 0.0
    for ma, mb in zip(a.marginals, b.marginals):
        dist = max(dist, float(np.linalg.norm(ma.matrix - mb.matrix)))
    return dist


def decks_equal(a: Deck, b: Deck) -> bool:
    return deck_distance(a, b) <= DECK_TOL
