"""Schmidt decomposition along a bipartition, genericity tests, phase twists."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (PartyStructure, PureState, _cut, _freeze, _tolerance,
                     _uncut, check_subset, complement)

# Singular values below RANK_TOL times the largest are treated as zero.
RANK_TOL = 1e-10
# Squared coefficients closer than GAP_TOL are treated as degenerate.
GAP_TOL = 1e-8
# Neighbouring coefficients within _TIE_TOL times the largest count as tied
# (`_separated`).
_TIE_TOL = 1e-12


def _schmidt_factors(mats: np.ndarray):
    """Thin SVD of cut matrices (..., d_left, d_right), one LAPACK call per
    item.

    Returns the singular values (..., k) in decreasing order, k the smaller
    dimension, and the left and right singular vectors as rows,
    (..., k, d_left) and (..., k, d_right).  Each pair is rotated so that
    the left vector's first entry above RANK_TOL times the largest singular
    value is real and positive.  That entry exists: a unit vector of
    dimension at most DIM_CAP has an entry of modulus at least 1/256, and
    the largest singular value of a unit state is at most 1.
    """
    u, s, vh = np.linalg.svd(mats, full_matrices=False)
    left = u.swapaxes(-1, -2)
    nonzero = np.abs(left) > RANK_TOL * s[..., :1, None]
    pivot = np.take_along_axis(left, np.argmax(nonzero, axis=-1)[..., None],
                               axis=-1)
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    return s, left / phase, vh * phase


def _separated(coeffs: np.ndarray) -> np.ndarray:
    """The tie rule: whether each coefficient (decreasing along the last
    axis) is more than _TIE_TOL times the largest above the next, (..., k-1).
    A run of neighbours that no gap separates is tied."""
    return coeffs[..., :-1] - coeffs[..., 1:] > _TIE_TOL * coeffs[..., :1]


def _untied(coeffs: np.ndarray) -> np.ndarray:
    """Whether no two neighbouring coefficients are tied, i.e.
    `_tie_break_degenerate` leaves their order alone."""
    return np.all(_separated(coeffs), axis=-1)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """State written as sum_i c_i |left_i> |right_i> along a bipartition.

    `coefficients` are the strictly positive singular values c_i = sqrt(lambda_i)
    in decreasing order; `left_basis[i]` / `right_basis[i]` are the orthonormal
    factor vectors, each over the subset's parties in ascending party order.
    """

    structure: PartyStructure
    left_parties: tuple[int, ...]
    right_parties: tuple[int, ...]
    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    @property
    def lambdas(self) -> np.ndarray:
        """Squared Schmidt coefficients (eigenvalues of either cut marginal)."""
        return self.coefficients ** 2

    @property
    def dim_left(self) -> int:
        return self.structure.subset_dim(self.left_parties)

    @property
    def dim_right(self) -> int:
        return self.structure.subset_dim(self.right_parties)

    def reconstruct(self, phases=None) -> PureState:
        """Rebuild sum_i e^{i phi_i} c_i |left_i>|right_i> in original party order."""
        coeffs = self.coefficients.astype(np.complex128)
        if phases is not None:
            phases = np.asarray(phases, dtype=float)
            if phases.shape != (self.rank,):
                raise ValueError(
                    f"expected {self.rank} phases, got shape {phases.shape}"
                )
            coeffs = coeffs * np.exp(1j * phases)
        mat = (self.left_basis.T * coeffs) @ self.right_basis
        vec = _uncut(mat, self.structure.local_dims,
                     [p - 1 for p in self.left_parties])
        return PureState.from_amplitudes(self.structure, vec, normalize=True)


def _tie_break_degenerate(coeffs, left, right):
    """Deterministic order among tied singular values: each tied run (see
    `_separated`) sorted by its left vectors' entries rounded to 10 places."""
    separated = _separated(coeffs)
    if separated.all():
        return coeffs, left, right
    order = list(range(len(coeffs)))
    bounds = [0, *(np.flatnonzero(separated) + 1).tolist(), len(coeffs)]
    for start, stop in zip(bounds, bounds[1:]):
        order[start:stop] = sorted(
            order[start:stop],
            key=lambda i: tuple((round(z.real, 10), round(z.imag, 10))
                                for z in left[i]))
    return coeffs[order], left[order], right[order]


def schmidt_decompose(state: PureState, cut) -> SchmidtDecomposition:
    """Schmidt decomposition of `state` along the bipartition (cut | complement)."""
    structure = state.structure
    left = check_subset(cut, structure.num_parties)
    right = complement(left, structure.num_parties)
    if not right:
        raise ValueError("cut must be a proper subset of the parties")
    s, left_vecs, right_vecs = _schmidt_factors(
        _cut(state.amplitudes, structure.local_dims, [p - 1 for p in left]))
    rank = _genericity(s[None], s.size, GAP_TOL)[0].rank
    coeffs, left_basis, right_basis = map(_freeze, _tie_break_degenerate(
        s[:rank], left_vecs[:rank], right_vecs[:rank]))
    return SchmidtDecomposition(structure, left, right, coeffs, left_basis, right_basis)


@dataclass(frozen=True)
class GenericityReport:
    """Whether a decomposition has full rank and a nondegenerate spectrum."""

    full_rank: bool
    distinct_spectrum: bool
    min_gap: float
    rank: int

    @property
    def generic(self) -> bool:
        return self.full_rank and self.distinct_spectrum


def _genericity(coeffs: np.ndarray, max_rank: int,
                gap_tol: float) -> list[GenericityReport]:
    """The genericity rule: one report per row of Schmidt coefficients
    (n, k), each row decreasing up to tie-break swaps, of cuts that admit
    rank `max_rank`.  The rank counts the coefficients above RANK_TOL times
    the row's first, and full rank means `max_rank`.  `min_gap` is the
    smallest gap between neighbouring squared coefficients among those
    counted, infinite for fewer than two; the spectrum is distinct when it
    exceeds `gap_tol`.
    """
    ranks = np.sum(coeffs > RANK_TOL * coeffs[:, :1], axis=1)
    gaps = np.abs(np.diff(coeffs ** 2, axis=1))
    gaps[np.arange(gaps.shape[1]) >= ranks[:, None] - 1] = math.inf
    min_gaps = gaps.min(axis=1, initial=math.inf)
    return [GenericityReport(rank == max_rank, gap > gap_tol, gap, rank)
            for rank, gap in zip(ranks.tolist(), min_gaps.tolist())]


def classify_genericity(dec: SchmidtDecomposition, *,
                        gap_tol: float = GAP_TOL) -> GenericityReport:
    """Full-rank / distinct-spectrum report for a decomposition.

    Full rank means min(dim_left, dim_right), the largest rank the cut admits.
    `gap_tol` must lie in (0, 1e-2), else ValueError.
    """
    return _genericity(dec.coefficients[None], min(dec.dim_left, dec.dim_right),
                       _tolerance(gap_tol, "gap_tol"))[0]


def phase_twist(dec: SchmidtDecomposition, phases) -> PureState:
    """Apply per-coefficient phases; both cut marginals are left unchanged."""
    return dec.reconstruct(phases)
