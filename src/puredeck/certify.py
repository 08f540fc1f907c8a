"""Uniqueness certification from two crossing pairs of marginals.

Given a state and four disjoint blocks A, B, C, D covering all parties, any
other pure state sharing the two marginals of the primary cut (AB|CD) can
only differ by phases on the Schmidt terms of that cut (when the spectrum is
nondegenerate).  Requiring the secondary-cut marginals (AC and BD) to match
as well imposes a homogeneous real-linear system on the phase variables

    gamma_ij = (1 - e^{i(phi_i - phi_j)}) * sqrt(lambda_i lambda_j),  i < j.

A trivial null space certifies uniqueness among pure states; a nontrivial one
is searched for an explicit second state with the same marginals.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .marginals import DECK_TOL, MarginalFamily, _deck_gap
from .schmidt import (GAP_TOL, GenericityReport, SchmidtDecomposition,
                      _genericity, _schmidt_factors, _untied,
                      classify_genericity, phase_twist, schmidt_decompose)
from .states import (PartyStructure, PureState, _cut, _freeze, _integer,
                     _seed, _text_integer, _tolerance, check_subset,
                     fidelity_up_to_phase)

# Singular values below SVD_TOL times the largest count as zero when deciding
# the rank of the assembled phase system.
SVD_TOL = 1e-9
# Smallest Gram eigenvalue ratio lambda_min / lambda_max that the shifted
# Cholesky certifies to decide a trivial null space without the SVD (a
# singular-value ratio of 1e-4); see `_shifted_cholesky`.
GRAM_MIN_RATIO = 1e-8
# A candidate second state must have fidelity-up-to-phase below 1 - DISTINCT_TOL
# with the input to count as a genuine counterexample.
DISTINCT_TOL = 1e-6

TRACE_IDENTITY_TOL = 1e-10
# Singular values below OVERLAP_RANK_TOL times the largest count as zero in
# the sampled overlap-entry rank of `verify_overlap_dependences`.
OVERLAP_RANK_TOL = 1e-8
# Bytes the trials of one `_certify_stack` call may take; see `_stack_size`.
# Only a lone trial's rung can have overlap products or a Gram that alone
# take more; such a rung borrows its thread's buffer (`_lent`), which holds
# the products, then the Gram and its factor, and is kept between verdicts.
# numpy's working copy of the Gram stays on the heap.
_STACK_BYTES = 2 << 20
# Most bytes `_lent` holds per thread, glibc's largest dynamic mmap
# threshold: a rung that needs more (a 12-qubit float64 Gram, 130 MB)
# allocates its products and Gram as a stack does.
_LENT_BYTES = 32 << 20
_LENT = threading.local()
_TILE_BYTES = 256 << 10  # per scratch buffer of a tile of Gram rows


def _lent(nbytes: int) -> np.ndarray:
    """This thread's byte buffer, at least `nbytes` long: kept between
    calls, so its pages stay mapped, and regrown when a rung needs more."""
    if getattr(_LENT, "buffer", None) is None or _LENT.buffer.size < nbytes:
        _LENT.buffer = None  # the short one is freed before the new one
        _LENT.buffer = np.empty(nbytes, dtype=np.uint8)
    return _LENT.buffer


def _carve(buffer: np.ndarray, shape: tuple[int, ...],
           dtype: np.dtype) -> np.ndarray:
    """A C-contiguous `dtype` array of `shape` over the first bytes of the
    byte buffer `buffer`."""
    return buffer[:math.prod(shape) * dtype.itemsize].view(dtype).reshape(
        shape)


@dataclass(frozen=True)
class Tolerances:
    """The settable tolerances of a certification, each in (0, 1e-2)."""

    gap_tol: float = GAP_TOL
    svd_tol: float = SVD_TOL
    deck_tol: float = DECK_TOL

    def __post_init__(self):
        for field in fields(self):
            _tolerance(getattr(self, field.name), field.name)


@dataclass(frozen=True)
class CrossCutSpec:
    """Four disjoint blocks covering {1..N}; cuts (AB|CD) and (AC|BD).

    Individual blocks may be empty as long as the four unions AB, CD, AC and
    BD are all nonempty, i.e. both cuts are genuine bipartitions.
    """

    block_a: tuple[int, ...]
    block_b: tuple[int, ...]
    block_c: tuple[int, ...]
    block_d: tuple[int, ...]
    num_parties: int

    def __post_init__(self):
        num_parties = _integer(self.num_parties, "num_parties")
        object.__setattr__(self, "num_parties", num_parties)
        blocks = []
        for name in ("block_a", "block_b", "block_c", "block_d"):
            block = check_subset(getattr(self, name), num_parties,
                                 allow_empty=True)
            object.__setattr__(self, name, block)
            blocks.append(block)
        flat = [p for block in blocks for p in block]
        if len(set(flat)) != len(flat):
            raise ValueError("blocks A, B, C, D must be pairwise disjoint")
        if set(flat) != set(range(1, num_parties + 1)):
            raise ValueError("blocks must cover all parties")
        for pair, label in ((self.ab, "AB"), (self.cd, "CD"),
                            (self.ac, "AC"), (self.bd, "BD")):
            if not pair:
                raise ValueError(f"union {label} must be nonempty")

    @classmethod
    def parse(cls, text: str, num_parties: int) -> "CrossCutSpec":
        """Parse 'A=1,2;B=3;C=4;D=5,6' (an empty block is 'B=')."""
        blocks = {}
        for chunk in text.split(";"):
            chunk = chunk.strip(" ")
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"bad block chunk {chunk!r}, expected NAME=parties")
            name, _, parties = chunk.partition("=")
            name = name.strip(" ").upper()
            if name not in ("A", "B", "C", "D"):
                raise ValueError(f"unknown block {name!r}")
            if name in blocks:
                raise ValueError(f"block {name} given twice")
            blocks[name] = tuple(_text_integer(p, f"party of block {name}")
                                 for p in parties.split(",") if p.strip(" "))
        return cls(*(blocks.get(name, ()) for name in "ABCD"), num_parties)

    @property
    def ab(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_a + self.block_b))

    @property
    def cd(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_c + self.block_d))

    @property
    def ac(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_a + self.block_c))

    @property
    def bd(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_b + self.block_d))

    def block_dims(self, structure: PartyStructure) -> tuple[int, int, int, int]:
        return (structure.subset_dim(self.block_a),
                structure.subset_dim(self.block_b),
                structure.subset_dim(self.block_c),
                structure.subset_dim(self.block_d))

    def verification_family(self) -> MarginalFamily:
        """The four cut marginals AB, CD, AC, BD (deduplicated, in that order)."""
        return MarginalFamily(self.num_parties, tuple(dict.fromkeys(
            (self.ab, self.cd, self.ac, self.bd))))


def _overlap_products(factor: np.ndarray, out: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Tr_rest |i><j| and Tr_first |i><j| of split basis rows, each as one
    matrix product.

    `factor` (..., r, d_first, d_rest) holds |i> as a d_first x d_rest
    matrix X_i, so Tr_rest |i><j| = X_i X_j^H and Tr_first |i><j| =
    X_i^T conj(X_j).  Stacking the X_i (or X_i^T) as rows of R gives
    G = R R^H of shape (..., r d, r d), with G[(i, a), (j, b)] the (a, b)
    entry of the (i, j) operator; `_cross_matrices` reads it as blocks.
    Given a byte buffer `out`, the two products fill it from its start,
    one after the other; else each is a new array.
    """
    *lead, r, _, _ = factor.shape
    products, used = [], 0
    for x in (factor, factor.swapaxes(-1, -2)):
        rows = x.reshape(*lead, r * x.shape[-2], x.shape[-1])
        dest = None if out is None else _carve(
            out[used:], (*lead, rows.shape[-2], rows.shape[-2]), rows.dtype)
        products.append(np.matmul(rows, rows.conj().swapaxes(-1, -2),
                                  out=dest))
        used += products[-1].nbytes
    return products[0], products[1]


def _orthonormality_defects(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each item's largest entry of |R R^H - I| for the AB rows `left` and
    the CD rows `right` (..., rank, dim), as (..., 2): the trace identity
    Tr O[i, j] = <j|i> = delta_ij of q, l and of p, m, which lets the phase
    system drop one diagonal entry per block.  ValueError names the first
    basis whose defect exceeds TRACE_IDENTITY_TOL."""
    defects = np.stack([np.abs(rows @ rows.conj().swapaxes(-1, -2) - np.eye(
        rows.shape[-2])).max(axis=(-2, -1)) for rows in (left, right)], -1)
    for k, side in enumerate(("AB", "CD")):
        if np.any(defects[..., k] > TRACE_IDENTITY_TOL):
            raise ValueError(f"Schmidt rows on {side} are not orthonormal")
    return defects


@dataclass(frozen=True)
class CrossCutMatrices:
    """Cross-block overlap operators for every Schmidt index pair.

    q[i, j] = Tr_B |i><j|_AB   (dim d_A), l[i, j] = Tr_A |i><j|_AB (dim d_B),
    p[i, j] = Tr_D |i><j|_CD   (dim d_C), m[i, j] = Tr_C |i><j|_CD (dim d_D).
    """

    q: np.ndarray
    p: np.ndarray
    l: np.ndarray
    m: np.ndarray


def _cross_matrices(left: np.ndarray, right: np.ndarray, spec: CrossCutSpec,
                    structure: PartyStructure,
                    out: np.ndarray | None = None) -> CrossCutMatrices:
    """Overlap operators of basis rows (..., rank, dim), one state or a
    stack, as read-only blocks (..., rank, rank, d, d): the left rows split
    as A x B, the right ones as C x D.  Nothing checks the rows here.  The
    blocks are views of the four overlap products, which fill the byte
    buffer `out` from its start when one is given (16 rank^2 (d_A^2 +
    d_B^2 + d_C^2 + d_D^2) bytes per item)."""
    rank, blocks, used = left.shape[-2], [], 0
    for basis, parties, first in ((left, spec.ab, spec.block_a),
                                  (right, spec.cd, spec.block_c)):
        dims = [structure.local_dims[p - 1] for p in parties]
        for product in _overlap_products(
                _cut(basis, dims, [parties.index(p) for p in first]),
                None if out is None else out[used:]):
            used += product.nbytes
            d = product.shape[-1] // rank
            blocks.append(_freeze(product.reshape(
                *product.shape[:-2], rank, d, rank, d).swapaxes(-3, -2)))
    q, l, p, m = blocks
    return CrossCutMatrices(q, p, l, m)


def build_cross_matrices(dec: SchmidtDecomposition,
                         spec: CrossCutSpec) -> CrossCutMatrices:
    """Overlap operators of the Schmidt bases across the secondary cut,
    once the bases pass `_orthonormality_defects` (else ValueError)."""
    if dec.left_parties != spec.ab or dec.right_parties != spec.cd:
        raise ValueError(
            f"decomposition cut {dec.left_parties}|{dec.right_parties} does not "
            f"match the primary cut {spec.ab}|{spec.cd}"
        )
    _orthonormality_defects(dec.left_basis, dec.right_basis)
    return _cross_matrices(dec.left_basis, dec.right_basis, spec,
                           dec.structure)


class SourceFactors(NamedTuple):
    """Khatri-Rao factors of one source's coefficients, U = O_u (.) I_u and
    V = O_v (.) I_v, one column per Schmidt index pair; a stack of systems
    carries leading axes in front of (rows, columns).

    Row (a, b), a < b, of an outer factor holds that entry of the outer
    overlap operator; row (c, e) of an inner factor holds that entry of the
    inner operator, for every (c, e) except the last diagonal one.  Row
    (a, b, c, e) of U is then O_u[ab] * I_u[ce], and likewise for V.
    """

    outer_u: np.ndarray
    inner_u: np.ndarray
    outer_v: np.ndarray
    inner_v: np.ndarray


def _khatri_rao(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: row (r, s) is outer[r] * inner[s]."""
    return (outer[:, None, :] * inner[None, :, :]).reshape(
        outer.shape[0] * inner.shape[0], outer.shape[1])


@dataclass(frozen=True)
class GammaSystem:
    """Real homogeneous system over (Re gamma_ij, Im gamma_ij), i < j.

    Complex equation r reads sum_t gamma_t U[r, t] + conj(gamma_t) V[r, t] = 0,
    where U and V stack the Khatri-Rao products of `factors` (the ac source,
    then bd).  Row 2r of the real `matrix` is its real part, row 2r+1 its
    imaginary part; column 2t holds Re gamma for the t-th pair (i, j), i < j,
    in row-major order (`_pairs`), column 2t+1 holds Im gamma.
    gamma_ii = 0 and gamma_ji = conj(gamma_ij) are eliminated structurally,
    so only the i < j entries appear.  The zero vector always solves the
    system.  It holds one system; a stack of systems is a tuple of
    factors with leading axes, which the stack passes around bare.
    """

    factors: tuple[SourceFactors, ...]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense real system, built from the factors on first access.

        With gamma = x + iy, equation r is x (U + V) + i y (U - V) = 0:
        rows [Re(U + V), -Im(U - V)] and [Im(U + V), Re(U - V)], each
        block written in place into the one array.
        """
        u = np.concatenate([_khatri_rao(f.outer_u, f.inner_u)
                            for f in self.factors])
        v = np.concatenate([_khatri_rao(f.outer_v, f.inner_v)
                            for f in self.factors])
        rows, cols = u.shape
        matrix = np.empty((rows, 2, cols, 2), dtype=u.real.dtype)
        np.add(u.real, v.real, out=matrix[:, 0, :, 0])
        np.negative(np.subtract(u.imag, v.imag, out=matrix[:, 0, :, 1]),
                    out=matrix[:, 0, :, 1])
        np.add(u.imag, v.imag, out=matrix[:, 1, :, 0])
        np.subtract(u.real, v.real, out=matrix[:, 1, :, 1])
        return _freeze(matrix.reshape(2 * rows, 2 * cols))


def _upper_gram(factors: tuple[SourceFactors, ...],
                out: np.ndarray | None = None) -> np.ndarray:
    """The upper triangle of the real Gram of each system of `factors`
    (`GammaSystem`, one or a stack): with A = U + V and B = i(U - V)
    the Gram is [[Re A^H A, Re A^H B], [Re B^H A, Re B^H B]]
    = [[Re(P + Q), Im(Q - P)], [Im(Q + P), Re(P - Q)]] in the interleaved
    order, for P = U^H U + conj(V^H V) and Q = U^H V + (U^H V)^T summed
    over both sources (Re conj X = Re X, Im conj X = -Im X, V^H U =
    (U^H V)^H).  Per source, with O = [O_u; conj O_v] and O' = [O_v;
    conj O_u] stacked by rows, they are Hadamard products of factor Grams
    (Kolda & Bader, SIAM Review 51, 2009), P = (O^H O) * (I_u^H I_u) and
    Q = (O^H O') * (I_u^H I_v), by two identities of I_v = conj(T I_u), T
    the permutation (c, e) -> (e, c) of the kept rows, so T^T = T = T^-1:
      conj(I_v^H I_v) = I_u^H I_u, as conj(I_v^H I_v) = (T I_u)^H T I_u
        = I_u^H T^T T I_u and T^T T = 1;
      I_u^H I_v = I_u^H T conj(I_u) is symmetric, as its transpose is
        conj(I_u)^T T^T (I_u^H)^T = I_u^H T conj(I_u).
    So conj(V^H V) and (U^H V)^T are the conj O_v rows' share of P, Q.
    Rows 2s, 2s+1 are conj P + Q, i (conj P - Q) as complex pairs, the
    second written through its real and imaginary parts, formed in tiles
    of rows fixed from n and the factors' precision alone, each from its
    first row's column on; the strict lower triangle is left unset but for
    the lower entry of each diagonal 2 x 2 block.  The Gram takes the
    factors' precision: complex64 factors give a float32 Gram, complex128
    ones a float64 Gram.  Given a byte buffer `out`, which the factors
    must not share, the Gram fills it from its start and its strict lower
    triangle keeps whatever bytes lay there; else it is a new array.
    `_stack_verdicts` passes its thread's buffer (`_lent`, at most
    _LENT_BYTES) only for a lone trial's rung whose products or Gram
    overflow _STACK_BYTES; the buffer held that rung's overlap products
    until its factors were gathered, and then holds the Gram and, once
    `_factorizes` has run, its factor.  The tiles' scratch buffers and
    numpy's working copy of the Gram are on the heap either way.
    """
    *lead, _, n = factors[0].outer_u.shape
    dtype = factors[0].outer_u.dtype
    tile = max(1, min(n, _TILE_BYTES // (dtype.itemsize * n or 1)))
    terms = []  # per source conj P, Q: outer and inner factors, unswapped
    for o_u, i_u, o_v, i_v in factors:
        outer = np.concatenate([o_u, o_v.conj()], axis=-2)
        outer_c, inner_c = outer.conj(), i_u.conj()
        terms += [(outer, outer_c, i_u, inner_c), (outer_c, np.concatenate(
            [o_v, o_u.conj()], axis=-2), inner_c, i_v)]
    scratch = [np.empty((*lead, tile * n), dtype=dtype) for _ in range(2)]
    gram = None  # made once the first tile's products are freed
    for start in range(0, max(n, 1), tile):  # once even without pairs
        stop = min(start + tile, n)
        p, q = (buf[..., :(stop - start) * (n - start)].reshape(
            *lead, stop - start, n - start) for buf in scratch)
        for k, (o_l, o_r, i_l, i_r) in enumerate(terms):
            acc = (p, q)[k % 2]  # the first source's terms start them
            term = np.matmul(o_l[..., start:stop].swapaxes(-1, -2),
                             o_r[..., start:], out=acc if k < 2 else None)
            term *= i_l[..., start:stop].swapaxes(-1, -2) @ i_r[..., start:]
            if k >= 2:
                acc += term
            del term  # freed before the next product is made
        if gram is None:
            shape, real = (*lead, 2 * n, 2 * n), p.real.dtype
            gram = (np.empty(shape, dtype=real) if out is None
                    else _carve(out, shape, real))
        rows = gram.view(dtype)[..., 2 * start:2 * stop, start:]
        np.add(p, q, out=rows[..., 0::2, :])
        odd = rows[..., 1::2, :]  # i (conj P - Q), without a product
        np.subtract(q.imag, p.imag, out=odd.real)
        np.subtract(p.real, q.real, out=odd.imag)
    return gram


def _system_size(dims: tuple[int, int, int, int],
                 rank: int) -> tuple[dict, int]:
    """The phase system of blocks of dimensions d_A..d_D at Schmidt rank k,
    from those alone, as `_gamma_factors` shapes it: a verdict's
    `equation_counts` (C(d_A, 2)(d_C^2 - 1) ac and C(d_B, 2)(d_D^2 - 1) bd
    complex equations, C(k, 2) complex unknowns) and m of
    `_shifted_cholesky`, the most rows a factor Gram sums over."""
    da, db, dc, dd = dims
    ac = math.comb(da, 2) * (dc * dc - 1)
    bd = math.comb(db, 2) * (dd * dd - 1)
    counts = {"ac": ac, "bd": bd, "complex_variables": math.comb(rank, 2),
              "complex_equations": ac + bd}
    return counts, max(2 * math.comb(da, 2), dc * dc - 1,
                       2 * math.comb(db, 2), dd * dd - 1)


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of range(n) in row-major order, as read-only index
    arrays: the phase system's column order and its block entries."""
    return tuple(map(_freeze, np.triu_indices(n, 1)))


def _gamma_factors(matrices: CrossCutMatrices) -> tuple[SourceFactors, ...]:
    """The ac source's factors, from Q (x) P, then the bd source's, from
    L (x) M, of one system or a stack (see `assemble_gamma_system`): for
    a < b the (a, b) block of outer[i, j] (x) inner[i, j] gives U and the
    (b, a) block of its adjoint gives V, each inner block less its last
    diagonal entry, as the rows' trace identity fixes it
    (`_orthonormality_defects`)."""
    ii, jj = _pairs(matrices.q.shape[-3])
    sources = []
    for outer, inner in ((matrices.q, matrices.p), (matrices.l, matrices.m)):
        outer_ij = outer[..., ii, jj, :, :]
        inner_ij = inner[..., ii, jj, :, :]
        a, b = _pairs(outer.shape[-1])
        flat = (*inner_ij.shape[:-2], inner.shape[-1] ** 2)
        sources.append(SourceFactors(*(_freeze(f.swapaxes(-1, -2)) for f in (
            outer_ij[..., a, b],
            inner_ij.reshape(flat)[..., :-1],
            outer_ij[..., b, a].conj(),
            inner_ij.swapaxes(-1, -2).conj().reshape(flat)[..., :-1]))))
    return tuple(sources)


def assemble_gamma_system(matrices: CrossCutMatrices) -> GammaSystem:
    """Harvest the entry equations of the two secondary-cut marginal matches.

    For each off-diagonal block (a, b), a < b, of the Kronecker products
    Q (x) P and L (x) M, all entries are kept except one diagonal entry per
    block: the block's diagonal entries sum to zero because the off-diagonal
    overlap operators are traceless, so one of them is redundant.  A block
    of dimension one has no entry left and contributes no equation.
    """
    return GammaSystem(_gamma_factors(matrices))


@dataclass(frozen=True)
class NullSpaceResult:
    """Numerical null space of a phase system.

    `singular_values` are the exact SVD's, in descending order.  Two
    cases need no SVD: a system without unknowns gets none, and a zero
    system (no equations, or factors all exactly zero) gets the SVD's
    min(rows, columns) zeros, none without equations.  Both arrays are
    made read-only.
    """

    null_dim: int
    basis: np.ndarray | None          # (num_real_variables, null_dim), orthonormal
    singular_values: np.ndarray

    def __post_init__(self):
        for arr in (self.basis, self.singular_values):
            if arr is not None:
                arr.setflags(write=False)


def _svd_null_space(matrix: np.ndarray, svd_tol: float) -> NullSpaceResult:
    """Exact decision: threshold the singular values of the dense system.

    A tall system takes the thin SVD, whose V^T is already square; only a
    wide one needs the full V^T for its complete null basis.
    """
    n_rows, n_cols = matrix.shape
    _, s, vt = np.linalg.svd(matrix, full_matrices=n_rows < n_cols)
    rank = int(np.sum(s > svd_tol * s[0])) if s[0] > 0.0 else 0
    null_dim = n_cols - rank
    basis = vt[rank:].T.copy() if null_dim > 0 else None
    return NullSpaceResult(null_dim, basis, s)


def decide_null_space(system: GammaSystem, *,
                      svd_tol: float = SVD_TOL) -> NullSpaceResult:
    """Numerical null space of the phase system from the exact SVD of the
    dense matrix.  Two cases need no SVD and build no dense matrix, as its
    shape is read off the factors: a system without unknowns, and a zero
    system, without equations or with factors all exactly zero (a GHZ
    cut's, say).  The latter gets what the SVD gives a zero matrix, s = 0
    and V^T = 1, field for field; its row count is tested on its own, as
    an equation-free system's factors need not be zero.
    `svd_tol` must lie in (0, 1e-2), else ValueError."""
    _tolerance(svd_tol, "svd_tol")
    n_rows = 2 * sum(f.outer_u.shape[0] * f.inner_u.shape[0]
                     for f in system.factors)
    n_cols = 2 * system.factors[0].outer_u.shape[1]
    if n_cols == 0:
        return NullSpaceResult(0, None, np.zeros(0))
    if n_rows == 0 or not any(np.any(f) for source in system.factors
                              for f in source):
        return NullSpaceResult(n_cols, np.eye(n_cols),
                               np.zeros(min(n_rows, n_cols)))
    return _svd_null_space(system.matrix, svd_tol)


@cache
def _roundoff(dtype) -> tuple[float, float]:
    """The unit roundoff u and the smallest normal number of the precision
    of `dtype` (float32 and complex64 share theirs)."""
    info = np.finfo(dtype)
    return float(info.eps) / 2, float(info.smallest_normal)


def _shift_coefficient(n: int, rows: int, dtype) -> float:
    """c of `_shifted_cholesky`'s shift for n x n Grams built and factored
    in the precision of `dtype`, whose factor Grams sum at most `rows`
    rows: c = gamma_{n+1} + 8 (rows + 5) u, u the unit roundoff and
    gamma_k = k u / (1 - k u); inf once (n + 1) u reaches 1/2 or
    (6 rows + 30) u exceeds 1/5, where the shift's proof ends.  From the
    dimensions alone."""
    u, _ = _roundoff(dtype)
    if (n + 1) * u >= 0.5 or (6 * rows + 30) * u > 0.2:
        return math.inf
    return (n + 1) * u / (1 - (n + 1) * u) + 8 * (rows + 5) * u


def _shifted_cholesky(gram: np.ndarray, svd_tol: float,
                      rows: int) -> np.ndarray:
    """Whether the Cholesky of each shifted Gram (..., n, n) succeeds, which
    certifies a trivial null space; a zero Gram never does.  Shifts the
    diagonal of `gram` in place, the only part read here, and `_factorizes`
    writes each item's factor over it (NaN where it fails) in one call.

    One rule serves float32 and float64 Grams, with u the unit roundoff of
    `gram` (2^-24 or 2^-53).  H is the symmetric matrix whose upper triangle
    `_upper_gram` fills from the factors rounded to that precision, and G
    the exact Gram of the complex128 factors, the system the exact SVD of
    `decide_null_space` reads.  m = `rows` is the most rows a factor Gram
    sums over (2 C(d_A, 2), d_C^2 - 1, ...).  The shift is

        s = (tau + c) tr H + 32 n (n + m)^2 t,
        c = gamma_{n+1} + 8 (m + 5) u                (`_shift_coefficient`),

    tau = max(4 svd_tol^2, GRAM_MIN_RATIO), gamma_k = k u / (1 - k u), t
    the smallest normal number of the precision and tr H summed in float64
    here.  Success proves lambda_min(G) > tau tr G >= tau ||G||_F >= tau
    lambda_max(G), i.e. sigma_min >= sqrt(tau) sigma_max with sqrt(tau) >=
    max(2 svd_tol, 1e-4), so the exact SVD, accurate to about 1e-16
    sigma_max, keeps every singular value too.  Each term covers one error
    source (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.6 and 10.1; Rump, "Verification of positive definiteness",
    BIT 46, 2006):

    1. The Gram: |H - G| <= (6m + 30) u (d d^T (x) J), J the 2 x 2 ones
       and d_s^2 = P_ss = sum over the sources of D_s = ||O_s||^2 ||I_s||^2
       (columns of the factors in `_upper_gram`; O' and I_v have the
       column norms of O and I_u).  Rounding the factors to complex64 moves
       each entry by at most u relatively, and a factor-Gram entry, a
       complex inner product of at most m terms, is then off by
       (sqrt2 gamma_{m+2} + 2u) ||x|| ||y|| (section 3.6, and |x|^T |y| <=
       ||x|| ||y|| by Cauchy-Schwarz); the Hadamard product doubles that
       and adds sqrt2 gamma_2, the sum over sources adds u (Cauchy-Schwarz
       over them gives sqrt(P_ss P_tt)), and P +- Q doubles it and adds 2u.
       The majorant has rank one and norm 2 sum_s P_ss = tr G, so
       ||H - G||_2 and |tr H - tr G| are at most (6m + 30) u tr G.
    2. The Cholesky: a factor R that completes has R^T R = H' + E with
       |E| <= gamma_{n+1} |R^T| |R| (Thm 10.3, for any order of the inner
       products), H' = fl(H - s I) rounding each diagonal entry once.
       Success leaves H'_ii > 0, so that rounding is at most u (tr H - n s)
       in norm, and ||E||_2 <= gamma_{n+1} || |R| ||_F^2 = gamma_{n+1}
       tr(R^T R) <= gamma_{n+1} (1 + u) (tr H - n s) / (1 - gamma_{n+1});
       as s >= gamma_{n+1} tr H, the two are below (gamma_{n+1} + 2u) tr H.
    3. Underflow: every product that underflows errs by at most t, and
       entries of the factors are at most 1 in modulus, so underflow moves
       H by at most 32 n m^2 t and R^T R by n (n + 1 + tr H) t in norm.
    Then H' + E > 0 gives lambda_min(G) > s - (gamma_{n+1} + 2u) tr H
    - (6m + 30) u tr G - ... >= tau tr G, as tr G <= tr H / (1 - (6m + 30)
    u) by 1; and tr G >= ||G||_F for G >= 0, its eigenvalues' sum against
    their 2-norm.  The (2m + 8) u left in c covers tau (6m + 30) u (tau <
    4e-4) and the second-order terms, as (6m + 30) u <= 1/5 (c is inf
    beyond), the float64 trace's rounding (c n < 1) and a kernel that
    divides by a rounded reciprocal.  Squaring the condition number is why the ratio
    never goes below 1e-8: the Gram cannot resolve svd_tol = 1e-9 itself.
    """
    n = gram.shape[-1]
    tau = max(4.0 * svd_tol * svd_tol, GRAM_MIN_RATIO)
    _, tiny = _roundoff(gram.dtype)
    diag = gram.reshape(*gram.shape[:-2], n * n)[..., ::n + 1]
    trace = diag.sum(-1, dtype=float)
    diag -= ((tau + _shift_coefficient(n, rows, gram.dtype)) * trace
             + 32 * n * (n + rows) ** 2 * tiny)[..., None]
    return (trace > 0.0) & _factorizes(gram)


def _factorizes(gram: np.ndarray) -> np.ndarray:
    """Whether LAPACK's Cholesky of the upper triangle of each matrix of
    `gram` (..., n, n) succeeds; the factor overwrites `gram`.

    This is the gufunc np.linalg.cholesky calls (uplo 'L', which OpenBLAS
    runs faster than 'U'), on the transposed view: that view is
    F-contiguous, its lower triangle is `gram`'s upper one, and its lower
    factor L, with L L^T the Gram, goes back over it as R = L^T without a
    new n x n array.  A failed item is filled with NaN and the others are
    kept, so every item is decided by one call.
    """
    view, code = gram.swapaxes(-1, -2), gram.dtype.char
    with np.errstate(invalid="ignore"):  # the failed items' NaN
        np.linalg._umath_linalg.cholesky_lo(view, out=view,
                                            signature=f"{code}->{code}")
    return ~np.isnan(gram[..., 0, 0])


class UdpStatus(str, Enum):
    CERTIFIED_UDP = "CERTIFIED_UDP"
    NOT_UDP_WITNESSED = "NOT_UDP_WITNESSED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class UdpVerdict:
    """Outcome of a cross-cut uniqueness analysis.

    CERTIFIED_UDP is only claimed together with a trivial null space and full
    genericity; NOT_UDP_WITNESSED always carries a verified second state.
    """

    status: UdpStatus
    null_dim: int
    genericity: GenericityReport
    equation_counts: dict
    witness: PureState | None = None
    witness_deck_distance: float | None = None
    witness_fidelity: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status == UdpStatus.CERTIFIED_UDP:
            if self.null_dim != 0 or not self.genericity.generic:
                raise ValueError("certified verdict requires trivial null space "
                                 "and a generic decomposition")
        if self.status == UdpStatus.NOT_UDP_WITNESSED and self.witness is None:
            raise ValueError("witnessed verdict requires a witness state")


def _gamma_vector(phases: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Interleaved (Re, Im) gamma vectors, in the column order of
    `GammaSystem`, for a (c, r) batch of phase assignments: one row per
    assignment, each computed entry by entry as for that row alone."""
    coeff = np.sqrt(lambdas)
    ii, jj = _pairs(len(lambdas))
    g = ((1.0 - np.exp(1j * (phases[:, ii] - phases[:, jj])))
         * coeff[ii] * coeff[jj])
    return np.stack([g.real, g.imag], axis=-1).reshape(len(phases),
                                                        2 * len(ii))


def _phase_candidates(rank: int, rng: np.random.Generator) -> np.ndarray:
    """(c, rank) phase assignments: the sign patterns (phases in {0, pi})
    up to rank 12, in lexicographic order, then 64 random phase vectors
    drawn from `rng`.  Every row starts with phase 0."""
    drawn = rng.uniform(0.0, 2.0 * math.pi, size=(64, rank))
    drawn[:, 0] = 0.0
    if rank > 12:
        return drawn
    # code 0, the all-zeros pattern, is no twist at all
    codes = np.arange(1, 2 ** (rank - 1))[:, None]
    signs = (codes >> np.arange(rank - 1)[::-1]) & 1
    patterns = np.concatenate([np.zeros((len(codes), 1)), signs * math.pi],
                              axis=1)
    return np.concatenate([patterns, drawn])


@dataclass(frozen=True)
class WitnessCheck:
    """A candidate second state and the evidence for or against it."""

    witness: PureState
    verified: bool
    deck_distance: float
    fidelity: float


def verify_twin(state: PureState, twin: PureState, family: MarginalFamily,
                *, deck_tol: float = DECK_TOL) -> WitnessCheck:
    """Check `twin` as a second pure state sharing the deck of `state` on
    `family`; every twin in the package is accepted by this rule.

    The twin is verified exactly when the deck distance of the two states
    on `family` is at most `deck_tol` and its fidelity up to phase with
    `state` is below 1 - DISTINCT_TOL, i.e. it shares the deck and differs
    from `state` beyond a global phase.  Both states' marginals are
    streamed one at a time (`marginals._deck_gap`); neither deck is built.
    `deck_tol` must lie in (0, 1e-2), else ValueError.
    """
    _tolerance(deck_tol, "deck_tol")
    dist = _deck_gap(state, twin, family)
    fid = fidelity_up_to_phase(state, twin)
    return WitnessCheck(twin, dist <= deck_tol and fid < 1.0 - DISTINCT_TOL,
                        dist, fid)


def _search_phase_witness(state, dec, null, family, *, deck_tol,
                          seed) -> WitnessCheck | None:
    """The first phase twist whose gamma image lies in the null space (full
    exactly when its basis is square) and that `verify_twin` accepts over
    `family`, or None.

    All candidates are scored as one batch.  Candidates off the null space
    by a relative residual above 1e-7 are dropped; at most 16 of the rest
    are verified, closest first, ties going to the lower predicted
    fidelity and then to the earlier candidate.
    """
    lambdas = dec.lambdas
    basis = null.basis
    phases = _phase_candidates(dec.rank, np.random.default_rng(seed))
    gammas = _gamma_vector(phases, lambdas)
    norms = np.sqrt(np.vecdot(gammas, gammas))
    kept = norms >= 1e-14
    phases, gammas, norms = phases[kept], gammas[kept], norms[kept]
    if basis.shape[0] == basis.shape[1]:
        residuals = np.zeros(len(phases))
    else:
        off = gammas - np.matmul(
            basis, np.matmul(basis.T, gammas[..., None]))[..., 0]
        residuals = np.sqrt(np.vecdot(off, off)) / norms
    predicted_fid = np.abs(np.sum(lambdas * np.exp(1j * phases), axis=-1))
    order = np.lexsort((predicted_fid, residuals))
    order = order[residuals[order] <= 1e-7]
    for index in order[:16]:
        check = verify_twin(state, phase_twist(dec, phases[index]), family,
                            deck_tol=deck_tol)
        if check.verified:
            return check
    return None


def _uncovered_cuts(spec: CrossCutSpec, family: MarginalFamily) -> list[str]:
    """Labels of the cut marginals AB, CD, AC, BD that lie inside no member
    of `family`; a member's marginal fixes the marginals of its subsets only.
    A cut lies inside a member when the member's bitmask holds every bit of
    the cut's."""
    masks = family._masks
    uncovered = []
    for label, cut in (("AB", spec.ab), ("CD", spec.cd), ("AC", spec.ac),
                       ("BD", spec.bd)):
        bits = sum(1 << (p - 1) for p in cut)
        if not np.any((masks & bits) == bits):
            uncovered.append(label)
    return uncovered


def certify_udp(state: PureState, spec: CrossCutSpec,
                family: MarginalFamily | None = None, *,
                svd_tol: float = SVD_TOL, deck_tol: float = DECK_TOL,
                gap_tol: float = GAP_TOL, seed: int = 0) -> UdpVerdict:
    """Three-valued uniqueness verdict for `state` under a cross-cut spec.

    `family` is the marginal family the verdict is about; it defaults to the
    four cut marginals AB, CD, AC, BD.  A trivial null space certifies only
    when each of those four lies inside a member of `family`, and any
    emitted witness is verified against the deck of `family`.  The
    tolerances must pass `Tolerances`, and `family` must be defined on the
    state's parties; otherwise ValueError.  `seed` is read by
    `states._seed`: TypeError unless an int, ValueError below 0.
    The verdict is that of `_certify_stack` on a stack of one.
    """
    tol = Tolerances(gap_tol=gap_tol, svd_tol=svd_tol, deck_tol=deck_tol)
    return _certify_stack([state], spec, family, seeds=(_seed(seed),),
                          tol=tol)[0]


def _exact_verdict(state: PureState, spec: CrossCutSpec,
                   family: MarginalFamily, uncovered: list[str],
                   dims: tuple[int, int, int, int], tol: Tolerances,
                   seed: int) -> UdpVerdict:
    """The verdict of an item `_certify_stack` does not certify, from its
    exact null space: Schmidt pairs in tie-broken order, the SVD, then the
    witness search against the deck of `family`."""
    dec = schmidt_decompose(state, spec.ab)
    genericity = classify_genericity(dec, gap_tol=tol.gap_tol)
    system = assemble_gamma_system(build_cross_matrices(dec, spec))
    null = decide_null_space(system, svd_tol=tol.svd_tol)
    del system  # and the dense matrix it caches, before the witness search
    counts, _ = _system_size(dims, dec.rank)
    if null.null_dim == 0:
        return _trivial_null_verdict(genericity, uncovered, counts)
    found = _search_phase_witness(state, dec, null, family,
                                  deck_tol=tol.deck_tol, seed=seed)
    if found is None:
        return UdpVerdict(UdpStatus.INCONCLUSIVE, null.null_dim, genericity,
                          counts, notes=("nontrivial null space but no "
                                         "verified phase witness found",))
    return UdpVerdict(UdpStatus.NOT_UDP_WITNESSED, null.null_dim, genericity,
                      counts, witness=found.witness,
                      witness_deck_distance=found.deck_distance,
                      witness_fidelity=found.fidelity)


def _trivial_null_verdict(genericity: GenericityReport, uncovered: list[str],
                          counts: dict) -> UdpVerdict:
    """The verdict for a trivial null space, the one place CERTIFIED_UDP
    is issued: certified when the decomposition is generic and `uncovered`
    names no cut marginal, INCONCLUSIVE with a note per shortfall otherwise.
    A rank-1 cut has no phase variables, so its note is made here."""
    notes = []
    if genericity.rank == 1:
        notes.append("rank-1 primary cut: the state is a product across AB|CD "
                     "and is already determined by that cut's marginals")
    if uncovered:
        notes.append("phase system has trivial null space but the family "
                     "does not fix the cut marginals "
                     f"{', '.join(uncovered)}; no member contains them")
    if not genericity.full_rank:
        notes.append("phase system has trivial null space but the cut is "
                     "rank deficient; phase family may not exhaust all "
                     "competitors")
    if not genericity.distinct_spectrum:
        notes.append("degenerate Schmidt spectrum; phase family may not "
                     "exhaust all competitors")
    status = (UdpStatus.CERTIFIED_UDP if genericity.generic and not uncovered
              else UdpStatus.INCONCLUSIVE)
    return UdpVerdict(status, 0, genericity, counts, notes=tuple(notes))


def _stack_size(structure: PartyStructure, spec: CrossCutSpec) -> int:
    """States per stack of `_certify_stack`, from the dimensions alone.

    With D amplitudes, block dimensions d_A..d_D, full Schmidt rank k and
    n = C(k, 2) (`_system_size`), one trial takes at most, in bytes: 96 D
    for its state and Schmidt factors; 32 k^2 (d_A^2 + d_B^2 + d_C^2 +
    d_D^2) for its overlap products (half of that; the row check before
    them, 2 k^2 entries) and the factors gathered from them; and 64 n^2 for
    its Gram stage: the float64 real Gram (32 n^2), which the factor
    overwrites, and 32 n^2 for the working copy numpy factors it in, as
    much as building the Gram takes at its peak (four n x n complex arrays
    for a stack in one tile); the float32 rung takes half of that, and is
    freed before float64 runs.  numpy's Cholesky mallocs one working
    matrix per call, not one per trial, so that term is a looser bound
    still.  The sum stays an upper bound, as the stages are not all alive
    at once: a rung frees its overlap products once its factors are
    gathered and those once its Gram is built, so the Cholesky runs beside
    the Gram and its working copy alone (`_stack_verdicts`).  As many whole
    trials as fit _STACK_BYTES go in one stack, at least one; so only a
    lone trial can have a rung whose products or Gram alone overflow the
    budget, the rungs that borrow their thread's buffer (`_lent`).
    """
    da, db, dc, dd = dims = spec.block_dims(structure)
    rank = min(da * db, dc * dd)
    counts, _ = _system_size(dims, rank)
    per_trial = (96 * structure.total_dim
                 + 32 * rank ** 2 * sum(d * d for d in dims)
                 + 64 * counts["complex_variables"] ** 2)
    return max(1, _STACK_BYTES // per_trial)


def _certify_stack(states: Iterable[PureState], spec: CrossCutSpec,
                   family: MarginalFamily | None = None, *,
                   seeds: Iterable[int], tol: Tolerances) -> list[UdpVerdict]:
    """`certify_udp` verdicts of `states`, of one structure, one seed each;
    `family` and the checks as in `certify_udp`, done once per call, with
    `tol` already validated.  `states` is read one `_stack_size` at a time."""
    states, seeds = iter(states), iter(seeds)
    first = next(states, None)
    if first is None:
        return []
    if spec.num_parties != first.structure.num_parties:
        raise ValueError("spec covers a different number of parties")
    if family is None:  # its members are the four cuts: each covers itself
        family, uncovered = spec.verification_family(), []
    elif family.num_parties != spec.num_parties:
        raise ValueError("family defined for a different number of parties")
    else:
        uncovered = _uncovered_cuts(spec, family)
    size = _stack_size(first.structure, spec)
    verdicts = []
    for head in chain([first], states):
        verdicts += _stack_verdicts([head, *islice(states, size - 1)], seeds,
                                    spec, family, uncovered, tol)
    return verdicts


def _stack_verdicts(states: list[PureState], seeds: Iterator[int],
                    spec: CrossCutSpec, family: MarginalFamily,
                    uncovered: list[str], tol: Tolerances) -> list[UdpVerdict]:
    """The verdicts of one stack of `_certify_stack`, each stage run once on
    the whole stack; one seed is read from `seeds` per state.

    An item gets its verdict from `_trivial_null_verdict` here when its
    primary cut has full rank and is `_untied` (so its pairs come in
    `schmidt_decompose`'s order), its system is tall and its shifted
    Cholesky succeeds in float32 or, for the items float32 left, in
    float64.  The system's size comes from the dimensions alone
    (`_system_size`), so a wide stack gathers no factors, and a precision
    whose shift coefficient c has c n >= 1, n the real unknowns, is
    skipped before its factors are gathered: lambda_min <= tr G / n, so
    its Cholesky must fail.  Every other item gets `_exact_verdict` with
    its seed.  When some item is undecided, the stack's rows pass
    `_orthonormality_defects` once, before any rung, or raise the
    ValueError `build_cross_matrices` does; when none is, as for GHZ and
    other rank-deficient stacks, no rung reads the rows, and each item's
    `build_cross_matrices` runs that check on its own decomposition.

    Each rung gathers the complex128 factors of the items it decides from
    the Schmidt rows by one kernel, so they and their Grams are the whole
    stack's, bit for bit.  Alive besides the Schmidt rows: the overlap
    products until the factors are gathered; those until the rung's copy
    in its precision exists (at float64 they are it); the copy until its
    Gram is built, so only the Gram, with numpy's working copy, is alive
    through its Cholesky.

    A rung whose overlap products or Gram alone take more than
    _STACK_BYTES, and at most _LENT_BYTES, is lent its thread's buffer
    (`_lent`, kept between verdicts, at most _LENT_BYTES per thread): it
    holds the products until the factors are gathered onto the heap, then
    the Gram, over which the factor is written.  numpy's working copy, the
    factors and everything a verdict returns stay on the heap.  Only a
    lone trial has such a rung (`_stack_size`); other stacks and rungs
    over _LENT_BYTES allocate as they did.
    """
    structure = states[0].structure
    s, left, right = _schmidt_factors(_cut(
        np.stack([state.amplitudes for state in states]),
        structure.local_dims, [p - 1 for p in spec.ab]))
    reports = _genericity(s, s.shape[1], tol.gap_tol)
    dims = spec.block_dims(structure)
    counts, rows = _system_size(dims, s.shape[1])
    n = 2 * counts["complex_variables"]
    # a wide system's Gram is singular: only the exact SVD decides it
    tall = 2 * counts["complex_equations"] >= n
    undecided = np.flatnonzero(np.array([r.full_rank for r in reports])
                               & _untied(s) & tall)
    if undecided.size:  # else each item's `build_cross_matrices` checks
        _orthonormality_defects(left, right)
    # one item's complex128 overlap products, in bytes
    products = 16 * s.shape[1] ** 2 * sum(d * d for d in dims)
    certified = {}
    for dtype in (np.complex64, np.complex128):
        if not undecided.size or _shift_coefficient(n, rows, dtype) * n >= 1:
            continue
        need = undecided.size * max(products,
                                    n * n * np.dtype(dtype).itemsize // 2)
        out = _lent(need) if _STACK_BYTES < need <= _LENT_BYTES else None
        factors = _gamma_factors(_cross_matrices(
            left[undecided], right[undecided], spec, structure, out))
        factors = tuple(source._make(f.astype(dtype, copy=False)
                                     for f in source) for source in factors)
        gram, factors = _upper_gram(factors, out), None
        passed = _shifted_cholesky(gram, tol.svd_tol, rows)
        del gram  # not alive beside the next rung's factors
        certified.update(
            (item, _trivial_null_verdict(reports[item], uncovered,
                                         dict(counts)))
            for item in undecided[passed].tolist())
        undecided = undecided[~passed]
    return [certified[item] if item in certified
            else _exact_verdict(state, spec, family, uncovered, dims, tol,
                                seed)
            for item, (state, seed) in enumerate(zip(states, seeds))]


@dataclass(frozen=True)
class OverlapDependenceReport:
    entry_count: int
    measured_rank: int
    predicted_rank: int


def verify_overlap_dependences(structure: PartyStructure, spec: CrossCutSpec,
                               trials: int,
                               seed: int) -> OverlapDependenceReport:
    """Sample random orthonormal basis pairs and measure the rank of the
    stacked (Q, L, P, M) entry tuples.

    Each trial draws an orthonormal pair on AB and one on CD (the QR of a
    complex Gaussian dim x 2 matrix) and takes their (0, 1) overlap
    operators from the kernel of `build_cross_matrices`.  Each tuple
    satisfies the four trace-zero identities, so with enough samples the
    stack has rank T - 4 (T = total entry count) exactly when no further
    dependence exists.  `spec` must cover the parties of `structure`,
    else ValueError.  `trials` and `seed` are read by `states._integer`
    (TypeError), and `seed` must be at least 0 (ValueError).
    """
    trials, seed = _integer(trials, "trials"), _seed(seed)
    if spec.num_parties != structure.num_parties:
        raise ValueError("spec covers a different number of parties")
    da, db, dc, dd = spec.block_dims(structure)
    entry_count = da * da + db * db + dc * dc + dd * dd
    if trials < entry_count:
        raise ValueError(f"need at least {entry_count} trials, got {trials}")
    rng = np.random.default_rng(seed)
    pairs = []
    for dim in (da * db, dc * dd):
        z = rng.standard_normal((2, trials, dim, 2))
        pairs.append(np.linalg.qr(z[0] + 1j * z[1])[0].swapaxes(-1, -2))
    ops = _cross_matrices(*pairs, spec, structure)
    rows = np.concatenate([o[:, 0, 1].reshape(trials, -1)
                           for o in (ops.q, ops.l, ops.p, ops.m)], axis=1)
    s = np.linalg.svd(rows, compute_uv=False)
    measured = int(np.sum(s > OVERLAP_RANK_TOL * s[0]))
    return OverlapDependenceReport(entry_count, measured, entry_count - 4)
