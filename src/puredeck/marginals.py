"""Partial traces, marginal families, and decks of reduced density matrices."""

from __future__ import annotations

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
    well inside MARGINAL_TOL (1e-10).
    """
    structure = state.structure
    keep = check_subset(keep, structure.num_parties)
    mat = _cut(state.amplitudes, structure.local_dims, [p - 1 for p in keep])
    return Marginal._trusted(keep, mat @ mat.conj().T)


def compute_deck(state: PureState, family: MarginalFamily) -> Deck:
    if family.num_parties != state.structure.num_parties:
        raise ValueError("family defined for a different number of parties")
    return Deck(family, tuple(partial_trace(state, s) for s in family.subsets))


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
