"""Partial traces, marginal families, and decks of reduced density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .states import Marginal, PureState, _cut, check_subset

# Two aligned decks are called equal when no pair of corresponding marginals
# differs by more than this in Frobenius norm.  Two orders above accumulated
# double-precision error at the sizes handled here, far below any genuine
# physical difference.
DECK_TOL = 1e-9


@dataclass(frozen=True)
class MarginalFamily:
    """Ordered, duplicate-free family of party subsets."""

    num_parties: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_parties < 1:
            raise ValueError("need at least one party")
        subsets = tuple(check_subset(s, self.num_parties) for s in self.subsets)
        if len(set(subsets)) != len(subsets):
            raise ValueError("family contains duplicate subsets")
        object.__setattr__(self, "subsets", subsets)

    @classmethod
    def complete(cls, num_parties: int, k: int) -> "MarginalFamily":
        """All C(N, k) k-subsets in lexicographic order."""
        if k < 1 or k > num_parties:
            raise ValueError(f"k={k} outside 1..{num_parties}")
        return cls(num_parties, tuple(combinations(range(1, num_parties + 1), k)))

    @classmethod
    def parse(cls, num_parties: int, text: str) -> "MarginalFamily":
        """Parse 'k=<int>' (complete k-deck) or '1,2,3;4,5,6;...'."""
        text = text.strip()
        if text.startswith("k="):
            return cls.complete(num_parties, int(text[2:]))
        subsets = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            subsets.append(tuple(int(p) for p in chunk.split(",")))
        return cls(num_parties, tuple(subsets))

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)


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


def _product(state: PureState, subset, buffers: dict,
             live: np.ndarray | None = None) -> np.ndarray:
    """rho = M M^dagger for the checked `subset`, M being `state` as a
    dim(subset) x dim(rest) matrix; the only place a marginal is computed.

    M, its conjugate and rho are written into arrays that `buffers`, a dict
    owned by the caller, keeps by shape, so streaming a deck touches no
    fresh pages after the first marginal of each shape.  The next call with
    the same dict overwrites rho; a fresh dict gives a rho of its own.

    `live`, when given, holds where some rows of M sit in the amplitude
    vector: an integer array (rows kept, dim(rest)), as `_cut` gathers
    those rows from np.arange(total_dim).  Only those entries are read, and
    the product of M[live] with its conjugate, the live x live block of
    rho, is formed by the same two steps in fresh arrays that `buffers`
    does not keep.  Each entry of that block is the same sum as in the full
    product; gemm may add its terms in another order.
    """
    if live is not None:
        mat, conj, rho = state.amplitudes[live], None, None
    else:
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
    conj = np.conjugate(mat, out=conj)
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
    it; a twin check never calls it, but streams its marginals from the same
    `_product` (`_deck_gap`), so the bound covers them too.
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

    The two states' marginals are streamed side by side: only one marginal
    of each is alive at a time, in buffers reused across marginals of one
    shape.  The arithmetic is that of `deck_distance`: each marginal's
    product is the same gemm, each reference-minus-twin difference gets one
    `np.linalg.norm`, and the maximum runs over the whole family, without
    stopping early.

    Each product is restricted to the live rows of the cut: the rows where
    either state's M has a nonzero entry, read off the union of the two
    states' nonzero amplitudes (an exact test, with no tolerance).  A dead
    row of M gives an exactly zero row and column of rho in both states,
    so the difference's norm is its norm over live x live, where every
    entry is the same sum of the same nonzero terms as in the full product.
    Only the order in which gemm and `norm` add those terms can change, and
    `partial_trace`'s rounding bound holds for any order, so it covers the
    gap too.  The live rows must be the union over both states: rows taken
    from one state alone would drop the other's mass on the rest, and with
    it part of the difference.  A cut with no dead row, as for any Haar
    state, takes `_product`'s buffered path, so the gap is `deck_distance`
    bit for bit.  A sparse pair, such as an array state and its twin or
    GHZ, costs about (live rows)^2 dim(rest) per marginal, at most
    (nonzero amplitudes)^2 dim(rest), instead of dim(subset)^2 dim(rest).
    """
    _check_parties(reference, family)
    _check_parties(twin, family)
    dims = reference.structure.local_dims
    if dims != twin.structure.local_dims:
        raise ValueError("states have different local dimensions")
    total = reference.structure.total_dim
    support = np.flatnonzero((reference.amplitudes != 0)
                             | (twin.amplitudes != 0))
    # when every amplitude is nonzero in one state or the other, no row of
    # any cut is dead
    sparse = support.size < total
    if sparse:
        digits = np.unravel_index(support, dims)
        positions = np.arange(total)
    ref_buffers, twin_buffers = {}, {}
    gap = 0.0
    for subset in family.subsets:
        live = None
        if sparse:
            first = [p - 1 for p in subset]
            rows = np.unique(np.ravel_multi_index(
                [digits[i] for i in first], [dims[i] for i in first]))
            if rows.size < math.prod(dims[i] for i in first):
                live = _cut(positions, dims, first, rows=rows)
        ref = _product(reference, subset, ref_buffers, live)
        mat = _product(twin, subset, twin_buffers, live)
        # reference minus twin, written over the twin's spent product
        gap = max(gap, float(np.linalg.norm(np.subtract(ref, mat, out=mat))))
    return gap


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
