"""Tests for the cross-cut phase-system certifier."""

import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import puredeck.certify as certify_module
from puredeck.arrays import OA_9_4_3_2, OrthogonalArray, qoa_state
from puredeck import (CrossCutSpec, MarginalFamily, PartyStructure, PureState,
                      Tolerances, UdpStatus, UdpVerdict,
                      assemble_gamma_system, build_cross_matrices, certify_udp,
                      compute_deck, deck_distance, decide_null_space,
                      fidelity_up_to_phase, ghz_state, sample_haar_state,
                      schmidt_decompose, verify_overlap_dependences,
                      verify_twin)
from puredeck.certify import (DISTINCT_TOL, GRAM_MIN_RATIO, SVD_TOL,
                              TRACE_IDENTITY_TOL, _certify_stack,
                              _cross_matrices, _factorizes, _gamma_factors,
                              _gamma_vector, _khatri_rao,
                              _orthonormality_defects, _overlap_products,
                              _pairs, _shift_coefficient, _shifted_cholesky,
                              _svd_null_space, _system_size, _upper_gram)
from puredeck.schmidt import SchmidtDecomposition, _schmidt_factors
from puredeck.states import _cut

SIX_QUBIT_SPEC = CrossCutSpec.parse("A=1,2;B=3;C=4;D=5,6", 6)
SIX_QUBIT_STRUCTURE = PartyStructure.uniform(6, 2)

COUNTING_LAW_CASES = [
    (4, 2, "A=1;B=2;C=3;D=4"),
    (4, 3, "A=1;B=2;C=3;D=4"),
    (6, 2, "A=1,2;B=3;C=4;D=5,6"),
    (6, 2, "A=1;B=2,3;C=4,5;D=6"),
    (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),
]


def haar_system(n, d, blocks, seed):
    spec = CrossCutSpec.parse(blocks, n)
    psi = sample_haar_state(PartyStructure.uniform(n, d), seed)
    dec = schmidt_decompose(psi, spec.ab)
    return assemble_gamma_system(build_cross_matrices(dec, spec))


def shape_counts(factors):
    """Oracle: a verdict's counts read off the factor shapes of one system
    or a stack: per source, outer rows times inner rows complex equations;
    one complex unknown per pair i < j."""
    ac, bd = (f.outer_u.shape[-2] * f.inner_u.shape[-2] for f in factors)
    return {"ac": ac, "bd": bd,
            "complex_variables": factors[0].outer_u.shape[-1],
            "complex_equations": ac + bd}


def shape_rows(factors):
    """Oracle: m of `_shifted_cholesky` read off the factor shapes, the
    most rows a factor Gram sums over, the stacked outer factors or an
    inner one."""
    return max(max(2 * f.outer_u.shape[-2], f.inner_u.shape[-2])
               for f in factors)


def system_size(n, d, blocks):
    """`_system_size` of a spec at full rank, from its block dimensions."""
    spec = CrossCutSpec.parse(blocks, n)
    da, db, dc, dd = dims = spec.block_dims(PartyStructure.uniform(n, d))
    return _system_size(dims, min(da * db, dc * dd))


def real_unknowns(system):
    """The real unknowns of `system`, twice its complex ones."""
    return 2 * shape_counts(system.factors)["complex_variables"]


def full_gram(factors):
    """Oracle: the real Gram matrix.T @ matrix, `_upper_gram` mirrored."""
    gram = _upper_gram(factors)
    return np.where(np.tri(gram.shape[-1], dtype=bool).T, gram,
                    gram.swapaxes(-1, -2))


def at_precision(system, dtype):
    """The factors of `system` rounded to `dtype`, as a rung of the
    stack's ladder reads them."""
    return tuple(source._make(f.astype(dtype) for f in source)
                 for source in system.factors)


def reference_matrix(matrices):
    """Entry-by-entry assembly of the real system, for comparison.

    Row pair (a, b, c, e), a < b and (c, e) not the last diagonal entry,
    holds gamma * Out[a, b] In[c, e] + conj(gamma) * conj(Out[b, a] In[e, c])
    for each pair, split into (Re, Im) rows and (Re gamma, Im gamma) columns.
    """
    rank = matrices.q.shape[0]
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    rows = []
    for outer, inner in ((matrices.q, matrices.p), (matrices.l, matrices.m)):
        d_out, d_in = outer.shape[-1], inner.shape[-1]
        for a in range(d_out):
            for b in range(a + 1, d_out):
                for c in range(d_in):
                    for e in range(d_in):
                        if (c, e) == (d_in - 1, d_in - 1):
                            continue
                        re_row, im_row = [], []
                        for i, j in pairs:
                            u = outer[i, j, a, b] * inner[i, j, c, e]
                            v = (outer[i, j, b, a].conjugate()
                                 * inner[i, j, e, c].conjugate())
                            re_row += [(u + v).real, (v - u).imag]
                            im_row += [(u + v).imag, (u - v).real]
                        rows += [re_row, im_row]
    return np.array(rows, dtype=float).reshape(len(rows), 2 * len(pairs))


def overlap_oracle(basis, parties, keep, local_dims):
    """Tr over the factor's parties outside `keep` of |i><j|, for every pair
    of basis rows, by one einsum with one index per party (kept parties
    get a separate index on the bra)."""
    rank = basis.shape[0]
    x = basis.reshape(rank, *(local_dims[p - 1] for p in parties))
    ket = "abcdef"[:len(parties)]
    bra = "".join(c.upper() if p in keep else c for c, p in zip(ket, parties))
    kept = "".join(c for c, p in zip(ket, parties) if p in keep)
    ops = np.einsum(f"i{ket},j{bra}->ij{kept}{kept.upper()}", x, x.conj())
    dim = math.prod(local_dims[p - 1] for p in keep)
    return ops.reshape(rank, rank, dim, dim)


def stack_verdict(psi, *, svd_tol=SVD_TOL):
    """The verdict of `_certify_stack` on a stack of one, under the
    six-qubit spec."""
    tol = Tolerances(svd_tol=svd_tol, deck_tol=1e-9, gap_tol=1e-8)
    return _certify_stack([psi], SIX_QUBIT_SPEC, seeds=(0,), tol=tol)[0]


def near_singular_state():
    """sum_i c_i |i>_AB |i>_CD with distinct c_i, whose phase system has a
    nontrivial null space, plus a tenth of a Haar state: full rank, with
    sigma_min / sigma_max of its phase system about 9e-4."""
    coeffs = np.sqrt(np.arange(1, 9) / 36.0)
    ladder = np.diag(coeffs).ravel().astype(complex)
    haar = sample_haar_state(SIX_QUBIT_STRUCTURE, 17).amplitudes
    return PureState.from_amplitudes(SIX_QUBIT_STRUCTURE, ladder + 0.1 * haar,
                                     normalize=True)


def spy_on_exact_path(monkeypatch):
    """Record the svd_tol of every call `decide_null_space` makes to the SVD."""
    calls = []

    def spy(matrix, svd_tol):
        calls.append(svd_tol)
        return _svd_null_space(matrix, svd_tol)

    monkeypatch.setattr(certify_module, "_svd_null_space", spy)
    return calls


class TestCrossCutSpec:
    def test_parse_and_unions(self):
        spec = SIX_QUBIT_SPEC
        assert spec.ab == (1, 2, 3)
        assert spec.cd == (4, 5, 6)
        assert spec.ac == (1, 2, 4)
        assert spec.bd == (3, 5, 6)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            CrossCutSpec.parse("A=1,2;B=2;C=3;D=4", 4)

    def test_cover_required(self):
        with pytest.raises(ValueError, match="cover"):
            CrossCutSpec.parse("A=1;B=2;C=3;D=", 4)

    @pytest.mark.parametrize("text", ["A=1,2;B=3;C=4;D=5,6;A=1,2",
                                      "A=1;A=2;B=3;C=4;D=5,6",
                                      "A=1,2;B=3;C=4;D=5,6;a="])
    def test_repeated_block_refused(self, text):
        with pytest.raises(ValueError, match="block A given twice"):
            CrossCutSpec.parse(text, 6)

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            CrossCutSpec.parse("A=1;B=2;C=;D=", 2)

    @pytest.mark.parametrize("n", [4.0, True, "4", None])
    def test_non_integer_num_parties_refused(self, n):
        with pytest.raises(TypeError, match="num_parties must be int"):
            CrossCutSpec((1,), (2,), (3,), (4,), n)

    def test_numpy_num_parties_stored_as_int(self):
        spec = CrossCutSpec((1,), (2,), (3,), (4,), np.int64(4))
        assert type(spec.num_parties) is int
        assert spec == CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4)

    def test_empty_block_allowed_when_unions_nonempty(self):
        spec = CrossCutSpec.parse("A=1;B=;C=2;D=3", 3)
        assert spec.ab == (1,) and spec.bd == (3,)

    @pytest.mark.parametrize("text", [
        "A=\u0661;B=2;C=3;D=4", "A=+1;B=2;C=3;D=4", "A=0_1;B=2;C=3;D=4",
        "A=\u20031;B=2;C=3;D=4"])
    def test_parties_take_ascii_digits_only(self, text):
        # int() read each of these as party 1
        with pytest.raises(ValueError, match="invalid party of block A"):
            CrossCutSpec.parse(text, 4)
        assert CrossCutSpec.parse(" A = 1 , 2 ;B=3;C=4;D=5,6", 6) == \
            SIX_QUBIT_SPEC

    @pytest.mark.parametrize("text, error", [
        ("A=1\u2003;B=2;C=3;D=4", "invalid party of block A"),
        ("A=1,\u2003,2;B=3;C=4;D=5,6", "invalid party of block A"),
        ("A=1\t;B=2;C=3;D=4", "invalid party of block A"),
        ("\u2003A=1;B=2;C=3;D=4", "unknown block")])
    def test_only_ascii_spaces_are_stripped(self, text, error):
        # str.strip() took the em space off a chunk's end, and a party of
        # one em space was dropped: "A=1,\u2003,2" read as A = (1, 2)
        with pytest.raises(ValueError, match=error):
            CrossCutSpec.parse(text, 4 if text.endswith("D=4") else 6)

    def test_verification_family_order(self):
        fam = SIX_QUBIT_SPEC.verification_family()
        assert fam.subsets == ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6))


class TestCrossMatrices:
    def test_six_qubit_block_sizes(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 0)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        mats = build_cross_matrices(dec, SIX_QUBIT_SPEC)
        assert mats.q.shape == (8, 8, 4, 4)
        assert mats.p.shape == (8, 8, 2, 2)
        assert mats.l.shape == (8, 8, 2, 2)
        assert mats.m.shape == (8, 8, 4, 4)

    def test_trace_identities(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 1)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        mats = build_cross_matrices(dec, SIX_QUBIT_SPEC)
        for grid in (mats.q, mats.p, mats.l, mats.m):
            traces = np.trace(grid, axis1=2, axis2=3)
            np.testing.assert_allclose(traces, np.eye(dec.rank), atol=1e-12)

    def test_adjoint_pairing(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 2)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        mats = build_cross_matrices(dec, SIX_QUBIT_SPEC)
        i, j = 2, 5
        np.testing.assert_allclose(mats.q[i, j].conj().T, mats.q[j, i], atol=1e-12)
        np.testing.assert_allclose(mats.m[i, j].conj().T, mats.m[j, i], atol=1e-12)

    @pytest.mark.parametrize("blocks", ["A=2,5;B=1;C=3;D=4,6",
                                        "A=1;B=2,5;C=4,6;D=3"])
    def test_operators_match_einsum_oracle(self, blocks):
        # blocks that are not prefixes of their cut, on mixed local dims
        structure = PartyStructure(6, (2, 3, 2, 2, 3, 2))
        spec = CrossCutSpec.parse(blocks, 6)
        psi = sample_haar_state(structure, 9)
        dec = schmidt_decompose(psi, spec.ab)
        mats = build_cross_matrices(dec, spec)
        dims = structure.local_dims
        for got, basis, parties, keep in (
                (mats.q, dec.left_basis, spec.ab, spec.block_a),
                (mats.l, dec.left_basis, spec.ab, spec.block_b),
                (mats.p, dec.right_basis, spec.cd, spec.block_c),
                (mats.m, dec.right_basis, spec.cd, spec.block_d)):
            np.testing.assert_allclose(
                got, overlap_oracle(basis, parties, keep, dims), atol=1e-14)

    def test_cut_mismatch_rejected(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        dec = schmidt_decompose(psi, (1, 2, 4))
        with pytest.raises(ValueError, match="primary cut"):
            build_cross_matrices(dec, SIX_QUBIT_SPEC)

    def test_overlap_consistency_with_marginal_match(self):
        # the assembled constraint encodes equality of the secondary-cut
        # marginals: the zero-phase gamma vector must satisfy it exactly
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 4)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        zero = np.zeros(real_unknowns(system))
        assert np.linalg.norm(system.matrix @ zero) == 0.0


class TestGammaSystem:
    def test_six_qubit_counts(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 5)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        counts, rows = _system_size(
            SIX_QUBIT_SPEC.block_dims(SIX_QUBIT_STRUCTURE), dec.rank)
        assert counts == shape_counts(system.factors) == {
            "ac": 18, "bd": 15, "complex_variables": 28,
            "complex_equations": 33}
        assert rows == shape_rows(system.factors) == 15
        assert system.matrix.shape == (66, 56)

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES)
    def test_counting_law(self, n, d, blocks):
        structure = PartyStructure.uniform(n, d)
        spec = CrossCutSpec.parse(blocks, n)
        psi = sample_haar_state(structure, 7)
        dec = schmidt_decompose(psi, spec.ab)
        counts = shape_counts(assemble_gamma_system(
            build_cross_matrices(dec, spec)).factors)
        expected, _ = _system_size(spec.block_dims(structure), dec.rank)
        assert counts == expected
        assert counts["complex_equations"] == expected["ac"] + expected["bd"]

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES)
    def test_verdict_counts_of_one_system_and_a_stack(self, n, d, blocks):
        # the closed-form equations and C(rank, 2) unknowns, from the block
        # dimensions alone, are the factor shapes with or without a leading
        # stack axis
        structure = PartyStructure.uniform(n, d)
        spec = CrossCutSpec.parse(blocks, n)
        da, db, dc, dd = spec.block_dims(structure)
        ac, bd = (math.comb(da, 2) * (dc * dc - 1),
                  math.comb(db, 2) * (dd * dd - 1))
        expected = {"ac": ac, "bd": bd,
                    "complex_variables": math.comb(min(da * db, dc * dd), 2),
                    "complex_equations": ac + bd}
        assert system_size(n, d, blocks)[0] == expected
        decs = [schmidt_decompose(sample_haar_state(structure, seed), spec.ab)
                for seed in (7, 8, 9)]
        one = assemble_gamma_system(build_cross_matrices(decs[0], spec))
        stack = _gamma_factors(_cross_matrices(
            np.stack([dec.left_basis for dec in decs]),
            np.stack([dec.right_basis for dec in decs]), spec, structure))
        assert stack[0].outer_u.shape[0] == len(decs)
        assert shape_counts(one.factors) == expected
        assert shape_counts(stack) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([(), (2,), (3,), (4,), (2, 2)]),
                    min_size=4, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_system_size_is_the_factor_shapes(self, blocks, seed):
        # from the block dimensions and the rank alone, at every rank from
        # 1 to full and with empty blocks: the shapes of the factors
        # `_gamma_factors` gathers for a stack of two, read by the oracles
        a, b, c, d = blocks
        assume(a + b and c + d and a + c and b + d)
        local = a + b + c + d
        labels = iter(range(1, len(local) + 1))
        spec = CrossCutSpec(*(tuple(next(labels) for _ in block)
                              for block in blocks), len(local))
        structure = PartyStructure(len(local), local)
        dims = spec.block_dims(structure)
        rng = np.random.default_rng(seed)
        d_ab, d_cd = dims[0] * dims[1], dims[2] * dims[3]
        for rank in range(1, min(d_ab, d_cd) + 1):
            left, right = (np.linalg.qr(
                rng.standard_normal((2, dim, rank))
                + 1j * rng.standard_normal((2, dim, rank)))[0].swapaxes(-1, -2)
                for dim in (d_ab, d_cd))
            factors = _gamma_factors(_cross_matrices(left, right, spec,
                                                     structure))
            assert _system_size(dims, rank) == (shape_counts(factors),
                                                shape_rows(factors))

    def test_empty_block_spec_assembles(self):
        # B empty: no equations from the L/M side
        structure = PartyStructure.uniform(4, 2)
        spec = CrossCutSpec.parse("A=1,2;B=;C=3;D=4", 4)
        psi = sample_haar_state(structure, 9)
        dec = schmidt_decompose(psi, spec.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, spec))
        counts = shape_counts(system.factors)
        assert counts["bd"] == 0
        assert counts == _system_size(spec.block_dims(structure),
                                      dec.rank)[0]

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES[:4] + [
        (4, 2, "A=1;B=2;C=;D=3,4"),
        (4, 2, "A=1,2;B=3;C=4;D="),
    ])
    def test_matrix_matches_entrywise_assembly(self, n, d, blocks):
        spec = CrossCutSpec.parse(blocks, n)
        psi = sample_haar_state(PartyStructure.uniform(n, d), 7)
        matrices = build_cross_matrices(schmidt_decompose(psi, spec.ab), spec)
        system = assemble_gamma_system(matrices)
        reference = reference_matrix(matrices)
        # the same products, rounded by Python's complex arithmetic: one ulp
        np.testing.assert_allclose(
            system.matrix, reference, rtol=0,
            atol=4 * np.finfo(float).eps * np.max(np.abs(reference)))

    def test_pairs_are_the_row_major_upper_triangle(self):
        # one column order for assembly and the witness search, built once
        # per size and shared, so no caller may write to it
        for n in range(41):
            pairs = _pairs(n)
            assert _pairs(n) is pairs
            for got, want in zip(pairs, np.triu_indices(n, 1), strict=True):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype and not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0

    @pytest.mark.parametrize("rank", range(1, 14))
    def test_gamma_vector_matches_entrywise_reference(self, rank):
        # same arithmetic per entry, so equal to the last bit: the witness
        # search ranks candidates by their residual against the null space;
        # a (c, r) batch gives each row exactly as for that row alone
        rng = np.random.default_rng(rank)
        for count in (1, 2, 7, 50):
            lambdas = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
            batch = rng.uniform(0.0, 2.0 * math.pi, (count, rank))
            got = _gamma_vector(batch, lambdas)
            assert got.shape == (count, rank * (rank - 1))
            for row, phases in zip(got, batch):
                expected = []
                for i in range(rank):
                    for j in range(i + 1, rank):
                        g = ((1.0 - np.exp(1j * (phases[i] - phases[j])))
                             * np.sqrt(lambdas[i]) * np.sqrt(lambdas[j]))
                        expected += [g.real, g.imag]
                np.testing.assert_array_equal(row,
                                              np.array(expected, dtype=float))

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES)
    def test_gram_matches_dense_system(self, n, d, blocks):
        system = haar_system(n, d, blocks, 7)
        dense = system.matrix.T @ system.matrix
        np.testing.assert_allclose(full_gram(system.factors), dense,
                                   atol=1e-12 * np.max(np.abs(dense)), rtol=0)

    @pytest.mark.parametrize("blocks, counts", [
        ("A=1;B=2;C=;D=3,4", {"ac": 0, "bd": 15}),
        ("A=1,2;B=3;C=4;D=", {"ac": 18, "bd": 0}),
        ("A=1;B=;C=;D=2,3,4", {"ac": 0, "bd": 0}),
    ])
    def test_empty_inner_block_gives_verdict(self, blocks, counts):
        # an inner block of dimension one keeps no entry: zero-row factors
        structure = PartyStructure.uniform(4, 2)
        spec = CrossCutSpec.parse(blocks, 4)
        verdict = certify_udp(sample_haar_state(structure, 11), spec)
        assert verdict.status in tuple(UdpStatus)
        expected, _ = system_size(4, 2, blocks)
        assert {k: expected[k] for k in counts} == counts
        assert verdict.equation_counts == expected


EMPTY_INNER_BLOCK_CASES = [
    (4, 2, "A=1;B=2;C=;D=3,4"),
    (4, 2, "A=1,2;B=3;C=4;D="),
    (4, 2, "A=1;B=;C=;D=2,3,4"),
]


def trace_errors_oracle(left, right, spec, structure):
    """Oracle: the four-product trace check the kernel once ran, the
    largest |Tr O[i, j] - delta_ij| over the operators q and l of the AB
    rows and over p and m of the CD rows, per item, (..., 2)."""
    rank = left.shape[-2]
    sides = []
    for basis, parties, first in ((left, spec.ab, spec.block_a),
                                  (right, spec.cd, spec.block_c)):
        dims = [structure.local_dims[p - 1] for p in parties]
        errors = []
        for product in _overlap_products(
                _cut(basis, dims, [parties.index(p) for p in first])):
            d = product.shape[-1] // rank
            blocks = product.reshape(*product.shape[:-2], rank, d, rank, d)
            traces = np.einsum("...iaja->...ij", blocks) - np.eye(rank)
            errors.append(np.abs(traces).max(axis=(-2, -1)))
        sides.append(np.maximum(*errors))
    return np.stack(sides, axis=-1)


def assert_defects_match_oracle(states, spec):
    """The row defects of `states`, one at a time from `schmidt_decompose`
    and stacked from `_schmidt_factors`, against the trace oracle."""
    structure = states[0].structure
    for psi in states:
        dec = schmidt_decompose(psi, spec.ab)
        got = _orthonormality_defects(dec.left_basis, dec.right_basis)
        assert got.shape == (2,)
        np.testing.assert_allclose(got, trace_errors_oracle(
            dec.left_basis, dec.right_basis, spec, structure),
            rtol=0, atol=1e-14)
    _, left, right = _schmidt_factors(_cut(
        np.stack([psi.amplitudes for psi in states]), structure.local_dims,
        [p - 1 for p in spec.ab]))
    got = _orthonormality_defects(left, right)
    assert got.shape == (len(states), 2)
    np.testing.assert_allclose(
        got, trace_errors_oracle(left, right, spec, structure),
        rtol=0, atol=1e-14)
    assert np.all(got <= TRACE_IDENTITY_TOL)


class TestOrthonormality:
    """Each Schmidt basis's orthonormality, |R R^H - I|, is the trace
    identity of all four overlap operators; it is checked where rows enter
    the kernel, once per stack and once per `build_cross_matrices`."""

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES + [
        (6, 2, "A=2,5;B=1;C=3;D=4,6")] + EMPTY_INNER_BLOCK_CASES)
    def test_haar_defects_match_trace_oracle(self, n, d, blocks):
        structure = PartyStructure.uniform(n, d)
        states = [sample_haar_state(structure, seed) for seed in range(3)]
        assert_defects_match_oracle(states, CrossCutSpec.parse(blocks, n))

    def test_ghz_and_array_defects_match_trace_oracle(self):
        # rank-deficient cuts: the stack's rows include those of zero
        # singular values, which `schmidt_decompose` drops
        assert_defects_match_oracle(
            [ghz_state(6, 2, 0.6, 0.8), ghz_state(6),
             sample_haar_state(SIX_QUBIT_STRUCTURE, 4)], SIX_QUBIT_SPEC)
        assert_defects_match_oracle(
            [oa_state(seed) for seed in range(3)]
            + [qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)).state],
            CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([(), (2,), (3,), (2, 2)]),
                    min_size=4, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_drawn_specs_match_trace_oracle(self, blocks, seed):
        a, b, c, d = blocks
        assume(a + b and c + d and a + c and b + d)
        local = a + b + c + d
        labels = iter(range(1, len(local) + 1))
        spec = CrossCutSpec(*(tuple(next(labels) for _ in block)
                              for block in blocks), len(local))
        structure = PartyStructure(len(local), local)
        assert_defects_match_oracle(
            [sample_haar_state(structure, seed + k) for k in range(2)], spec)

    @pytest.mark.parametrize("side, scale", [
        ("AB", 1 + 1e-10), ("CD", 1 + 1e-10), ("AB", 1 + 1e-6),
        ("CD", 1 - 1e-6)])
    def test_non_orthonormal_rows_refused(self, side, scale):
        # a row scaled by 1 + e puts 2e on the diagonal of R R^H
        dec = schmidt_decompose(sample_haar_state(SIX_QUBIT_STRUCTURE, 5),
                                SIX_QUBIT_SPEC.ab)
        bases = [dec.left_basis.copy(), dec.right_basis.copy()]
        bases[side == "CD"][3] *= scale
        broken = SchmidtDecomposition(dec.structure, dec.left_parties,
                                      dec.right_parties, dec.coefficients,
                                      *bases)
        with pytest.raises(ValueError,
                           match=f"^Schmidt rows on {side} are not "
                                 "orthonormal$"):
            build_cross_matrices(broken, SIX_QUBIT_SPEC)

    def test_defect_below_the_tolerance_passes(self):
        dec = schmidt_decompose(sample_haar_state(SIX_QUBIT_STRUCTURE, 5),
                                SIX_QUBIT_SPEC.ab)
        left = dec.left_basis.copy()
        left[3] *= 1 + 2e-11
        nearly = SchmidtDecomposition(dec.structure, dec.left_parties,
                                      dec.right_parties, dec.coefficients,
                                      left, dec.right_basis)
        defects = _orthonormality_defects(left, dec.right_basis)
        assert 3e-11 < defects[0] < TRACE_IDENTITY_TOL
        build_cross_matrices(nearly, SIX_QUBIT_SPEC)

    def test_checked_once_per_stack_not_per_rung(self, monkeypatch):
        # a stack whose float32 rung leaves one item to float64 and one
        # item to the exact path: the stack checks its rows once, and the
        # exact item's `build_cross_matrices` checks its decomposition
        callers, real = [], certify_module._orthonormality_defects

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        rungs = []
        real_factorizes = certify_module._factorizes
        monkeypatch.setattr(certify_module, "_orthonormality_defects", spy)
        monkeypatch.setattr(certify_module, "_factorizes", lambda gram: (
            rungs.append(gram.dtype.char) or real_factorizes(gram)))
        states = [sample_haar_state(SIX_QUBIT_STRUCTURE, 1),
                  near_singular_state(), ghz_state(6, 2, 0.6, 0.8)]
        verdicts = _certify_stack(states, SIX_QUBIT_SPEC, seeds=range(3),
                                  tol=Tolerances())
        assert rungs == ["f", "d"]
        assert callers == ["_stack_verdicts", "build_cross_matrices"]
        assert [v.status for v in verdicts] == [
            UdpStatus.CERTIFIED_UDP, UdpStatus.CERTIFIED_UDP,
            UdpStatus.NOT_UDP_WITNESSED]


def adjoint_product(x, y):
    return x.conj().T @ y


class TestGramKernel:
    """The identities `_upper_gram` rests on, its stack/item
    agreement and its memory."""

    @staticmethod
    def _close(got, want):
        scale = max(np.max(np.abs(want), initial=0.0), 1.0)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=64 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("n, d, blocks",
                             COUNTING_LAW_CASES + EMPTY_INNER_BLOCK_CASES)
    def test_inner_identities_and_hadamard_forms(self, n, d, blocks):
        for o_u, i_u, o_v, i_v in haar_system(n, d, blocks, 7).factors:
            inner_uu = adjoint_product(i_u, i_u)
            inner_uv = adjoint_product(i_u, i_v)
            self._close(adjoint_product(i_v, i_v).conj(), inner_uu)
            self._close(inner_uv.T, inner_uv)
            # P and Q from the dense Khatri-Rao factors and from the
            # stacked outer factors the Gram uses
            u, v = _khatri_rao(o_u, i_u), _khatri_rao(o_v, i_v)
            uv = adjoint_product(u, v)
            p = adjoint_product(u, u) + adjoint_product(v, v).conj()
            q = uv + uv.T
            outer = np.concatenate([o_u, o_v.conj()])
            swapped = np.concatenate([o_v, o_u.conj()])
            self._close(adjoint_product(outer, outer) * inner_uu, p)
            self._close(adjoint_product(outer, swapped) * inner_uv, q)
            self._close(p.conj().T, p)
            self._close(q.T, q)

    @pytest.mark.parametrize("n, d, blocks", [
        (6, 2, "A=1,2;B=3;C=4;D=5,6"),
        (4, 3, "A=1;B=2;C=3;D=4"),
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),
        (4, 2, "A=1;B=2;C=;D=3,4"),
    ])
    def test_stacked_gram_matches_items_bit_for_bit(self, monkeypatch, n, d,
                                                     blocks):
        for rung in (np.complex64, np.complex128):
            with monkeypatch.context() as patch:
                self._check_rung(patch, n, d, blocks, rung)

    @staticmethod
    def _check_rung(monkeypatch, n, d, blocks, rung):
        # the stack certifies an item from the stacked Gram, so what decides
        # it must be what `certify_udp` decides that item by, to the last
        # bit, in each precision: every entry the Cholesky reads, before
        # and after the shift, and the factor written over it; the strict
        # lower triangle is read by neither.  The float64 rung is reached
        # by skipping float32.
        spec = CrossCutSpec.parse(blocks, n)
        structure = PartyStructure.uniform(n, d)
        seeds = range(60, 64)
        states = [sample_haar_state(structure, s) for s in seeds]
        tol = Tolerances(svd_tol=SVD_TOL, deck_tol=1e-9, gap_tol=1e-8)
        grams, factors = [], []
        real, real_factorizes, real_coefficient = (
            certify_module._shifted_cholesky, certify_module._factorizes,
            certify_module._shift_coefficient)

        def spy(gram, svd_tol, rows):
            grams.append(gram.copy())
            return real(gram, svd_tol, rows)

        def spy_factorizes(gram):
            shifted = gram.copy()
            passed = real_factorizes(gram)
            factors.append((shifted, gram.copy()))
            return passed

        monkeypatch.setattr(certify_module, "_shifted_cholesky", spy)
        monkeypatch.setattr(certify_module, "_factorizes", spy_factorizes)
        if rung is np.complex128:
            monkeypatch.setattr(
                certify_module, "_shift_coefficient",
                lambda n, rows, dtype: math.inf if dtype is np.complex64
                else real_coefficient(n, rows, dtype))
        with monkeypatch.context() as patch:
            # one stack of all four, also where the memory budget holds one
            patch.setattr(certify_module, "_stack_size",
                          lambda structure, spec: len(seeds))
            _certify_stack(states, spec, seeds=seeds, tol=tol)
        for state, seed in zip(states, seeds):
            _certify_stack([state], spec, seeds=[seed], tol=tol)
        # each Haar item is decided by the first rung it reaches
        real_dtype = np.finfo(rung).dtype
        assert [g.dtype for g in grams] == [real_dtype] * (1 + len(seeds))
        stacked, *items = grams
        (shifted, factor), *items_factored = factors
        assert stacked.shape[0] == len(items) == len(seeds)
        size = stacked.shape[-1]
        upper = np.triu_indices(size)
        for item, (seed, alone, (alone_shifted, alone_factor)) \
                in enumerate(zip(seeds, items, items_factored)):
            np.testing.assert_array_equal(stacked[item][upper],
                                          alone[0][upper])
            system = haar_system(n, d, blocks, seed)
            np.testing.assert_array_equal(
                stacked[item][upper],
                full_gram(at_precision(system, rung))[upper])
            np.testing.assert_array_equal(shifted[item][upper],
                                          alone_shifted[0][upper])
            np.testing.assert_array_equal(factor[item][upper],
                                          alone_factor[0][upper])
            # the shift is the one `_shifted_cholesky` documents, from the
            # trace alone (read back to within the rounding of the diagonal)
            gram = stacked[item].astype(float)
            dims = gram.shape[-1]
            want = ((GRAM_MIN_RATIO
                     + real_coefficient(dims, system_size(n, d, blocks)[1],
                                        rung))
                    * np.trace(gram))
            diag = np.diagonal(gram)
            np.testing.assert_allclose(
                diag - np.diagonal(shifted[item]), want, rtol=1e-6,
                atol=4 * np.finfo(real_dtype).eps * np.max(np.abs(diag)))
            if rung is np.complex128:
                # the factor is LAPACK's lower one of the shifted Gram,
                # transposed, to the last bit
                mirrored = np.triu(shifted[item]) + np.triu(shifted[item], 1).T
                np.testing.assert_array_equal(
                    factor[item], np.linalg.cholesky(mirrored).T)

    def test_ten_qubit_gram_peak(self):
        # P, Q and one pair of factor-Gram products, then P, Q and the real
        # Gram: four n x n complex arrays, below the bound of 4.5; in float32
        # about half of that (the Gram and its tiles halve, the boolean mask
        # `full_gram` mirrors by does not)
        system = haar_system(10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10", 3)
        n = real_unknowns(system) // 2
        peaks = {}
        for dtype in (np.complex64, np.complex128):
            rung = at_precision(system, dtype)
            tracemalloc.start()
            try:
                full_gram(rung)
                _, peaks[dtype] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[np.complex128] < 4.5 * 16 * n * n
        assert peaks[np.complex64] < 0.55 * peaks[np.complex128]


def same_verdicts(got, want):
    """Field by field, witnesses to the last bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.status, a.null_dim, a.genericity, a.equation_counts,
                a.notes, a.witness_deck_distance, a.witness_fidelity) == (
            b.status, b.null_dim, b.genericity, b.equation_counts, b.notes,
            b.witness_deck_distance, b.witness_fidelity)
        assert (a.witness is None) == (b.witness is None)
        if b.witness is not None:
            np.testing.assert_array_equal(a.witness.amplitudes,
                                          b.witness.amplitudes)


class TestLowerBlocksUnread:
    """No reader takes a block i > j of an overlap product R R^H: it is the
    adjoint of block (j, i) by construction, so it is neither checked nor
    used."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, d, blocks", [
        (6, 2, "A=1,2;B=3;C=4;D=5,6"),
        (4, 3, "A=1;B=2;C=3;D=4"),
    ] + EMPTY_INNER_BLOCK_CASES)
    def test_nan_lower_blocks_change_no_verdict(self, monkeypatch, n, d,
                                                blocks):
        spec = CrossCutSpec.parse(blocks, n)
        structure = PartyStructure.uniform(n, d)
        states = [sample_haar_state(structure, seed) for seed in range(90, 93)]
        if (n, d) == (6, 2):
            # the exact path, a witness search and a degenerate spectrum
            states += [ghz_state(6, 2, 0.6, 0.8), near_singular_state(),
                       PureState(SIX_QUBIT_STRUCTURE,
                                 np.eye(8).ravel().astype(complex) / 8 ** 0.5)]
        tol = Tolerances(svd_tol=SVD_TOL, deck_tol=1e-9, gap_tol=1e-8)
        seeds = range(len(states))
        trials = 2 * sum(dim * dim for dim in spec.block_dims(structure))
        runs = []
        for poison in (False, True):
            with monkeypatch.context() as patch:
                if poison:
                    patch.setattr(certify_module, "_overlap_products",
                                  with_nan_lower_blocks(
                                      certify_module._overlap_products))
                runs.append((
                    _certify_stack(states, spec, seeds=seeds, tol=tol),
                    verify_overlap_dependences(structure, spec, trials, 3)))
        (clean, clean_rank), (dirty, dirty_rank) = runs
        same_verdicts(dirty, clean)
        assert dirty_rank == clean_rank


def with_nan_lower_blocks(overlap_products):
    """`overlap_products` (an `_overlap_products`) with every block i > j
    of both products it returns set to NaN."""
    def poisoned(factor, out=None):
        rank = factor.shape[-3]
        products = overlap_products(factor, out)
        for product in products:
            d = product.shape[-1] // rank
            below = np.tri(rank, k=-1, dtype=bool).repeat(d, 0).repeat(d, 1)
            product[..., below] = np.nan
        return products
    return poisoned


class TestLowerTriangle:
    """Only the lower triangle of the matrix LAPACK factors decides a
    verdict: `_factorizes` hands it the transposed view of the Gram, whose
    lower triangle is the upper one `_upper_gram` fills.  The strict upper
    triangle of that view, the Gram's strict lower one, is left unset but
    for the diagonal 2 x 2 blocks, and `_shifted_cholesky` reads none of
    it."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, d, blocks", [
        (6, 2, "A=1,2;B=3;C=4;D=5,6"),      # one tile of rows
        (4, 3, "A=1;B=2;C=3;D=4"),
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),  # Gram tiles of 68 and 52 pairs
        (6, 3, "A=1;B=2,3;C=4;D=5,6"),      # 351 pairs: 15 tiles and a part
    ] + EMPTY_INNER_BLOCK_CASES)
    def test_poisoned_upper_triangle_changes_no_verdict(self, monkeypatch,
                                                         n, d, blocks):
        if (n, d) in ((8, 2), (6, 3)):  # float32 tiles of 64 KiB rows
            monkeypatch.setattr(certify_module, "_TILE_BYTES", 64 << 10)
        spec = CrossCutSpec.parse(blocks, n)
        structure = PartyStructure.uniform(n, d)
        states = [sample_haar_state(structure, seed)
                  for seed in range(70, 71 if n * d > 16 else 73)]
        if (n, d) == (6, 2):
            # a vanishing Gram, one near the margin, a degenerate spectrum
            states += [ghz_state(6, 2, 0.6, 0.8), near_singular_state(),
                       PureState(SIX_QUBIT_STRUCTURE,
                                 np.eye(8).ravel().astype(complex) / 8 ** 0.5)]
        tol = Tolerances(svd_tol=SVD_TOL, deck_tol=1e-9, gap_tol=1e-8)
        seeds = range(len(states))
        real = certify_module._shifted_cholesky
        runs = {}
        for poison in (False, True):
            decided = []

            def spy(gram, svd_tol, rows):
                if poison:  # the view's strict upper triangle
                    view = gram.swapaxes(-1, -2)
                    view[(..., *np.triu_indices(gram.shape[-1], 1))] = np.nan
                passed = real(gram, svd_tol, rows)
                decided.append((gram.dtype.char, passed.tolist()))
                return passed

            with monkeypatch.context() as patch:
                patch.setattr(certify_module, "_shifted_cholesky", spy)
                calls = spy_on_exact_path(patch)
                verdicts = _certify_stack(states, spec, seeds=seeds, tol=tol)
            runs[poison] = verdicts, decided, calls
        (clean, decided, calls), (dirty, *evidence) = runs[False], runs[True]
        same_verdicts(dirty, clean)
        # the same items certified by each rung's Cholesky, the same left
        # for the SVD; every spec with equations reaches the Cholesky and
        # certifies
        assert evidence == [decided, calls]
        assert any(any(passed) for _, passed in decided) == bool(
            system_size(n, d, blocks)[0]["complex_equations"])

    @pytest.mark.parametrize("n, d, blocks, within_one", [
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8", False),
        (6, 2, "A=1,2;B=3;C=4;D=5,6", True),
    ] + [(*case, True) for case in EMPTY_INNER_BLOCK_CASES])
    def test_lower_triangle_matches_dense_oracle(self, monkeypatch, n, d,
                                                 blocks, within_one):
        system = haar_system(n, d, blocks, 7)
        pairs = real_unknowns(system) // 2
        if not within_one:  # complex128 tiles of 128 KiB rows: 68 and 52
            monkeypatch.setattr(certify_module, "_TILE_BYTES", 128 << 10)
        tile = certify_module._TILE_BYTES // (16 * pairs)
        if within_one:
            assert pairs < tile
        else:  # several tiles, the last one cut short
            assert pairs > tile and pairs % tile != 0
        dense = system.matrix.T @ system.matrix
        lower = np.tril_indices(2 * pairs)
        # as LAPACK reads it
        view = _upper_gram(system.factors).swapaxes(-1, -2)
        np.testing.assert_allclose(
            view[lower], dense[lower], rtol=0,
            atol=1e-12 * max(np.max(np.abs(dense)), 1.0))


def gram_trace(gram):
    """tr H of each Gram (..., n, n), summed in float64 as the shift of
    `_shifted_cholesky` sums it."""
    return np.trace(gram, axis1=-2, axis2=-1, dtype=float)


class TestTileNorm:
    """The shift of `_shifted_cholesky` is made of the trace norm tr H, the
    diagonal `_upper_gram` writes in its tiles of rows; the tiles sum no
    other norm."""

    @pytest.mark.parametrize("n, d, blocks", [
        (6, 2, "A=1,2;B=3;C=4;D=5,6"),      # one tile of rows
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),  # tiles of 68 and 52 pairs
        (6, 3, "A=1;B=2,3;C=4;D=5,6"),      # 351 pairs: 15 tiles and a part
    ] + EMPTY_INNER_BLOCK_CASES)
    def test_norm_matches_dense_gram(self, monkeypatch, n, d, blocks):
        if (n, d) in ((8, 2), (6, 3)):  # complex128 tiles of 128 KiB rows
            monkeypatch.setattr(certify_module, "_TILE_BYTES", 128 << 10)
        for seed in (7, 8):
            system = haar_system(n, d, blocks, seed)
            want = np.trace(system.matrix.T @ system.matrix)
            trace = gram_trace(_upper_gram(system.factors))
            assert trace.shape == ()
            assert abs(trace - want) <= 8 * np.finfo(float).eps * want
            # a PSD Gram's trace bounds its Frobenius norm, the bound the
            # certificate rests on
            assert np.linalg.norm(system.matrix.T @ system.matrix) <= want

    def test_norm_vanishes_with_the_gram(self):
        psi = ghz_state(6, 2, 0.6, 0.8)
        system = assemble_gamma_system(build_cross_matrices(
            schmidt_decompose(psi, SIX_QUBIT_SPEC.ab), SIX_QUBIT_SPEC))
        gram = _upper_gram(system.factors)
        assert np.all(gram[np.triu_indices(gram.shape[-1])] == 0.0)
        assert gram_trace(gram) == 0.0


class TestInPlaceCholesky:
    """`_factorizes` leans on numpy's private LAPACK gufunc: it writes the
    transpose of the factor np.linalg.cholesky would return over the Gram,
    fills a failed item with NaN without a warning, and allocates no n x n
    array."""

    @pytest.mark.filterwarnings("error")
    def test_factor_overwrites_each_item(self):
        # in the Gram's own precision: LAPACK's spotrf or dpotrf
        exact = np.stack([full_gram(haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6",
                                                 seed).factors)
                          for seed in (80, 81, 82)])
        exact[1] -= 2 * np.trace(exact[1]) * np.eye(exact.shape[-1])
        for dtype in (np.float32, np.float64):
            self._check_factor(exact.astype(dtype))

    @staticmethod
    def _check_factor(grams):
        dtype = grams.dtype.type
        before = grams.copy()
        assert _factorizes(grams).tolist() == [True, False, True]
        n = grams.shape[-1]
        gamma = (n + 1) * np.finfo(dtype).eps / 2
        for item in (0, 2):
            r = grams[item].astype(float)
            assert np.all(np.tril(r, -1) == 0.0)
            # error source 2 of `_shifted_cholesky`: R^T R is the Gram up
            # to gamma_{n+1} |R^T| |R| entrywise (Higham, Thm 10.3), plus
            # the rounding of R^T R in float64 here
            gram = before[item].astype(float)
            slack = n * np.finfo(float).eps
            assert np.all(np.abs(r.T @ r - gram)
                          <= (gamma + slack) * (np.abs(r).T @ np.abs(r)))
            if dtype is np.float64:  # numpy computes float32 in float64
                np.testing.assert_array_equal(
                    grams[item].swapaxes(-1, -2),
                    np.linalg.cholesky(before[item]))
        assert np.isnan(grams[1]).all()

    def test_ten_qubit_factor_allocates_no_matrix(self):
        gram = full_gram(
            haar_system(10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10", 3).factors)
        n = gram.shape[-1]
        tracemalloc.start()
        try:
            passed = _factorizes(gram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < 8 * n  # not even one row of the Gram


class TestNullSpace:
    def test_haar_state_trivial_null_space(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 10)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        assert decide_null_space(system).null_dim == 0

    def test_ghz_nontrivial_null_space_with_explicit_solution(self):
        # oracle: flipping the relative phase preserves all four cut marginals
        psi = ghz_state(6)
        flipped = ghz_state(6, 2, 1 / math.sqrt(2), -1 / math.sqrt(2))
        fam = SIX_QUBIT_SPEC.verification_family()
        dist = deck_distance(compute_deck(psi, fam), compute_deck(flipped, fam))
        assert dist <= 1e-12  # a genuine competitor exists...
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        null = decide_null_space(system)
        assert null.null_dim >= 1  # ...so the system must be singular

    def test_zero_row_system_is_unconstrained(self):
        # qutrits, C and B empty: 3 pairs, 6 real variables and no equations
        system = haar_system(3, 3, "A=1;B=;C=;D=2,3", 5)
        counts, _ = system_size(3, 3, "A=1;B=;C=;D=2,3")
        assert shape_counts(system.factors) == counts
        assert counts["complex_variables"] == 3
        assert counts["complex_equations"] == 0
        result = decide_null_space(system)
        assert result.null_dim == 6
        np.testing.assert_array_equal(result.basis, np.eye(6))

    def test_result_arrays_are_read_only(self):
        ghz = ghz_state(6, 2, 0.6, 0.8)
        results = {
            "no-equations": decide_null_space(
                haar_system(3, 3, "A=1;B=;C=;D=2,3", 5)),
            "exact": decide_null_space(assemble_gamma_system(
                build_cross_matrices(schmidt_decompose(ghz, SIX_QUBIT_SPEC.ab),
                                     SIX_QUBIT_SPEC))),
            "haar": decide_null_space(
                haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 1)),
        }
        assert results["exact"].singular_values.size > 0
        for name, result in results.items():
            for arr in (result.basis, result.singular_values):
                if arr is not None:
                    assert not arr.flags.writeable, name
                    with pytest.raises(ValueError):
                        arr[...] = 0.0

    @pytest.mark.parametrize("svd_tol", [0.5, 0.0, -1.0])
    def test_tolerance_outside_range_refused(self, svd_tol):
        # unchecked, 0.5 gave null_dim 32 on this trivial null space, and
        # 0 and -1 passed unnoticed
        with pytest.raises(ValueError, match="svd_tol=.* outside"):
            decide_null_space(haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 19),
                              svd_tol=svd_tol)

    def test_null_basis_orthonormal_and_annihilated(self):
        psi = ghz_state(6, 2, 0.6, 0.8)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        null = decide_null_space(system)
        assert null.null_dim == 2
        basis = null.basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert np.linalg.norm(system.matrix @ basis) <= 1e-12


GHZ_SPECS = [(6, "A=1,2;B=3;C=4;D=5,6"), (8, "A=1,2;B=3,4;C=5,6;D=7,8"),
             (10, "A=1,2;B=3,4,5;C=6,7;D=8,9,10")]


def ghz_system(n, blocks, a, b):
    spec = CrossCutSpec.parse(blocks, n)
    dec = schmidt_decompose(ghz_state(n, 2, a, b), spec.ab)
    return assemble_gamma_system(build_cross_matrices(dec, spec))


def assert_same_result(got, want):
    """Field for field: null dimension, and each array's values, dtype,
    shape and read-only flag."""
    assert got.null_dim == want.null_dim
    for name in ("basis", "singular_values"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert np.array_equal(g, w) and not g.flags.writeable, name
            assert np.array_equal(np.signbit(g), np.signbit(w)), name


class TestZeroSystem:
    """A system whose factors are all exactly zero, a GHZ cut's, is decided
    from the factors: the SVD's result of its zero matrix, s = 0 and
    V^T = 1, without the dense matrix or the SVD."""

    @pytest.mark.parametrize("n, blocks", GHZ_SPECS)
    @pytest.mark.parametrize("a, b", [(1 / math.sqrt(2), 1 / math.sqrt(2)),
                                      (0.6, 0.8)], ids=["ghz", "lopsided"])
    def test_matches_svd_without_the_matrix(self, monkeypatch, n, blocks, a,
                                            b):
        system = ghz_system(n, blocks, a, b)
        with monkeypatch.context() as patch:
            def refuse(outer, inner):
                raise AssertionError("the dense matrix was built")
            patch.setattr(certify_module, "_khatri_rao", refuse)
            calls = spy_on_exact_path(patch)
            got = decide_null_space(system)
        assert calls == [] and "matrix" not in vars(system)
        assert got.null_dim == real_unknowns(system) == 2
        assert_same_result(got, _svd_null_space(system.matrix, SVD_TOL))

    def test_subnormal_entry_takes_the_svd(self, monkeypatch):
        # no tolerance: one factor entry of 5e-324 sends the system to the
        # SVD, though every product with it still vanishes
        ac, bd = ghz_system(6, "A=1,2;B=3;C=4;D=5,6", 0.6, 0.8).factors
        inner = ac.inner_u.copy()
        inner[0, 0] = 5e-324
        system = certify_module.GammaSystem((ac._replace(inner_u=inner), bd))
        calls = spy_on_exact_path(monkeypatch)
        got = decide_null_space(system)
        assert calls == [SVD_TOL]
        assert_same_result(got, _svd_null_space(system.matrix, SVD_TOL))


    def test_equation_free_system_with_nonzero_factors(self, monkeypatch):
        # A=;B=1;C=2;D= on two qubits: nonzero factors that span no rows, so
        # the all-zero test alone would not see that the system is empty
        spec = CrossCutSpec.parse("A=;B=1;C=2;D=", 2)
        psi = sample_haar_state(PartyStructure.uniform(2, 2), 0)
        system = assemble_gamma_system(build_cross_matrices(
            schmidt_decompose(psi, spec.ab), spec))
        assert any(np.any(f) for source in system.factors for f in source)
        assert all(f.outer_u.shape[0] * f.inner_u.shape[0] == 0
                   for f in system.factors)
        calls = spy_on_exact_path(monkeypatch)
        got = decide_null_space(system)
        assert calls == [] and "matrix" not in vars(system)
        # the fields the parent's separate no-equations branch gave
        assert got.null_dim == 2
        assert_same_result(got, certify_module.NullSpaceResult(
            2, np.eye(2), np.zeros(0)))
        verdict = certify_udp(psi, spec)
        assert verdict.status == UdpStatus.NOT_UDP_WITNESSED
        assert verdict.null_dim == 2
        assert verdict.equation_counts == {"ac": 0, "bd": 0,
                                           "complex_variables": 1,
                                           "complex_equations": 0}


def stacked_matrix(system):
    """Oracle: the dense system as first built, from U + V, U - V and three
    stacked copies."""
    u = np.concatenate([_khatri_rao(f.outer_u, f.inner_u)
                        for f in system.factors])
    v = np.concatenate([_khatri_rao(f.outer_v, f.inner_v)
                        for f in system.factors])
    a, b = u + v, u - v
    return np.stack([np.stack([a.real, -b.imag], axis=-1),
                     np.stack([a.imag, b.real], axis=-1)], axis=1
                    ).reshape(2 * u.shape[0], 2 * u.shape[1])


def gf5_state():
    """The state of the GF(5) Reed-Solomon array, rows (a + b x) mod 5 for
    x = 0..3, with moduli in [0.5, 1.5] and random phases: its exact-path
    phase system is 960 x 600."""
    rng = np.random.default_rng(0)
    rows = [[(a + b * x) % 5 for x in range(4)]
            for a in range(5) for b in range(5)]
    amps = rng.uniform(0.5, 1.5, 25) * np.exp(2j * np.pi * rng.random(25))
    return qoa_state(OrthogonalArray.from_rows(rows, 5, 2), amps).state


ONE_ARRAY_CASES = [
    *((f"{kind}-{n}x{d}", n, d, blocks, kind)
      for kind in ("haar", "ghz", "lopsided")
      for n, d, blocks in ((4, 2, "A=1;B=2;C=3;D=4"),
                           (6, 2, "A=1,2;B=3;C=4;D=5,6"),
                           (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),
                           (4, 3, "A=1;B=2;C=3;D=4"))),
    *((f"empty-{blocks}", n, d, blocks, "haar")
      for n, d, blocks in ((4, 2, "A=1;B=2;C=;D=3,4"),
                           (4, 2, "A=1,2;B=3;C=4;D="),
                           (4, 2, "A=1;B=;C=;D=2,3,4"),
                           (3, 3, "A=1;B=;C=;D=2,3"),
                           (2, 2, "A=;B=1;C=2;D="))),
    ("oa-uniform", 4, 3, "A=1;B=2;C=3;D=4", "oa-uniform"),
    ("oa-random", 4, 3, "A=1;B=2;C=3;D=4", "oa-random"),
    ("gf5", 4, 5, "A=1;B=2;C=3;D=4", "gf5"),
]


def one_array_system(n, d, blocks, kind):
    spec = CrossCutSpec.parse(blocks, n)
    psi = {"haar": lambda: sample_haar_state(PartyStructure.uniform(n, d), 7),
           "ghz": lambda: ghz_state(n, d),
           "lopsided": lambda: ghz_state(n, d, 0.6, 0.8),
           "oa-uniform": lambda: qoa_state(OrthogonalArray.from_rows(
               OA_9_4_3_2, 3, 2)).state,
           "oa-random": lambda: oa_state(3),
           "gf5": gf5_state}[kind]()
    return assemble_gamma_system(build_cross_matrices(
        schmidt_decompose(psi, spec.ab), spec))


class TestOneArrayMatrix:
    """`GammaSystem.matrix` writes its four real blocks into one array; it
    must equal the stacked construction bit for bit, signed zeros too."""

    @pytest.mark.parametrize("name, n, d, blocks, kind", ONE_ARRAY_CASES,
                             ids=[case[0] for case in ONE_ARRAY_CASES])
    def test_bit_equal_to_the_stacked_build(self, name, n, d, blocks, kind):
        system = one_array_system(n, d, blocks, kind)
        got, want = system.matrix, stacked_matrix(system)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_build_peak_is_about_twice_the_matrix(self):
        # U and V and the matrix itself, 2.03 times its bytes on this
        # 960 x 600 system (the stacked build peaked at 4 times)
        system = one_array_system(4, 5, "A=1;B=2;C=3;D=4", "gf5")
        tracemalloc.start()
        try:
            matrix = system.matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.shape == (960, 600)
        assert peak <= 2.2 * matrix.nbytes


class TestGramFastPath:
    DIFFERENTIAL_HAAR = [
        (4, 2, "A=1;B=2;C=3;D=4"),
        (6, 2, "A=1,2;B=3;C=4;D=5,6"),
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),
        (4, 3, "A=1;B=2;C=3;D=4"),
    ]

    @staticmethod
    def _both_verdicts(monkeypatch, psi, spec):
        """The verdict as decided, the verdict from the exact SVD alone, and
        how many times the first fell back to the SVD."""
        with monkeypatch.context() as patch:
            calls = spy_on_exact_path(patch)
            fast = certify_udp(psi, spec)
        with monkeypatch.context() as patch:
            # lambda_min never exceeds lambda_max: always the exact SVD
            patch.setattr(certify_module, "GRAM_MIN_RATIO", 1.0)
            exact = certify_udp(psi, spec)
        return fast, exact, len(calls)

    @pytest.mark.parametrize("n, d, blocks", DIFFERENTIAL_HAAR)
    def test_haar_fast_and_exact_agree(self, monkeypatch, n, d, blocks):
        spec = CrossCutSpec.parse(blocks, n)
        structure = PartyStructure.uniform(n, d)
        for seed in range(200, 206):
            psi = sample_haar_state(structure, seed)
            fast, exact, fallbacks = self._both_verdicts(monkeypatch, psi, spec)
            assert (fast.status, fast.null_dim) == (exact.status, exact.null_dim)
            assert fallbacks == 0  # generic margins are wide

    def test_six_qutrit_fast_and_exact_agree(self, monkeypatch):
        spec = CrossCutSpec.parse("A=1;B=2,3;C=4;D=5,6", 6)
        psi = sample_haar_state(PartyStructure.uniform(6, 3), 207)
        fast, exact, fallbacks = self._both_verdicts(monkeypatch, psi, spec)
        assert (fast.status, fast.null_dim) == (exact.status, exact.null_dim)
        assert fast.status == UdpStatus.CERTIFIED_UDP
        assert fallbacks == 0

    @pytest.mark.parametrize("make_state", [
        lambda: ghz_state(6),
        lambda: ghz_state(6, 2, 0.6, 0.8),
        lambda: PureState.basis_state(SIX_QUBIT_STRUCTURE, (0,) * 6),
        # maximally entangled across AB|CD: fully degenerate spectrum
        lambda: PureState(SIX_QUBIT_STRUCTURE,
                          np.eye(8).ravel().astype(complex) / math.sqrt(8)),
    ], ids=["ghz", "lopsided-ghz", "product", "degenerate"])
    def test_special_states_fast_and_exact_agree(self, monkeypatch, make_state):
        fast, exact, _ = self._both_verdicts(monkeypatch, make_state(),
                                             SIX_QUBIT_SPEC)
        assert (fast.status, fast.null_dim) == (exact.status, exact.null_dim)

    def test_ghz_gram_vanishes_and_takes_exact_path(self, monkeypatch):
        psi = ghz_state(6, 2, 0.6, 0.8)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        assert np.all(full_gram(system.factors) == 0.0)
        for dtype in (np.complex64, np.complex128):
            gram = _upper_gram(at_precision(system, dtype))
            # `trace > 0` refuses it, whatever LAPACK makes of a zero Gram
            assert gram_trace(gram) == 0.0
            assert not _shifted_cholesky(
                gram, SVD_TOL, system_size(6, 2, "A=1,2;B=3;C=4;D=5,6")[1])
        # the exact path decides its zero factors without the SVD
        calls = spy_on_exact_path(monkeypatch)
        assert decide_null_space(system).null_dim == 2
        assert calls == []

    def test_fast_path_singular_values_match_svd(self, monkeypatch):
        # the stack certifies without a spectrum; the exact SVD of the same
        # system must bear out the ratio its shifted Cholesky certified
        calls = spy_on_exact_path(monkeypatch)
        verdict = stack_verdict(sample_haar_state(SIX_QUBIT_STRUCTURE, 13))
        assert calls == []
        assert (verdict.status, verdict.null_dim) == (UdpStatus.CERTIFIED_UDP, 0)
        system = haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 13)
        exact = _svd_null_space(system.matrix, SVD_TOL)
        assert exact.null_dim == 0
        s = exact.singular_values
        assert s[-1] / s[0] >= math.sqrt(GRAM_MIN_RATIO)

    @pytest.mark.parametrize("case", ["above-shift", "between-shifts",
                                      "below-tau", "singular"])
    def test_certificate_direction_on_synthetic_grams(self, monkeypatch, case):
        # Q diag(lam) Q^T with lam_max = 1 stands in for each rung's Gram,
        # rounded to the rung's precision: lam_min above the float32 shift
        # certifies in float32, between the float64 and the float32 shift
        # in float64, and below tau or at zero in neither
        decided_by = {"above-shift": "f", "between-shifts": "d"}.get(case,
                                                                    "svd")
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 31)
        counts, rows = system_size(6, 2, "A=1,2;B=3;C=4;D=5,6")
        n = 2 * counts["complex_variables"]
        # each rung's shift for a trace of n at most
        shift = {dtype: (GRAM_MIN_RATIO + _shift_coefficient(n, rows, dtype))
                 * n for dtype in (np.complex64, np.complex128)}
        assert 1e3 * shift[np.complex128] < shift[np.complex64]
        lam = np.ones(n)
        lam[-1] = {"above-shift": 10 * shift[np.complex64],
                   "between-shifts": math.sqrt(shift[np.complex64]
                                              * shift[np.complex128]),
                   "below-tau": GRAM_MIN_RATIO / 10, "singular": 0.0}[case]
        q, _ = np.linalg.qr(np.random.default_rng(29).standard_normal((n, n)))
        gram = (q * lam) @ q.T  # Q diag(lam) Q^T

        def synthetic(rung, out):
            # the stack of one reads the synthetic Gram as its only item; a
            # six-qubit rung borrows no buffer
            assert out is None
            precision = np.finfo(rung[0].outer_u.dtype).dtype
            return gram.astype(precision)[None].copy()

        monkeypatch.setattr(certify_module, "_upper_gram", synthetic)
        tried, real = [], certify_module._factorizes
        monkeypatch.setattr(
            certify_module, "_factorizes", lambda g: tried.append(
                (g.dtype.char, bool(passed := real(g)[0])))
            or np.array([passed]))
        calls = spy_on_exact_path(monkeypatch)
        verdict = stack_verdict(psi)
        rungs = {"f": [("f", True)], "d": [("f", False), ("d", True)],
                 "svd": [("f", False), ("d", False)]}
        assert tried == rungs[decided_by]
        if decided_by == "svd":
            assert calls == [SVD_TOL]  # never certified from the Gram
        else:
            assert calls == []
            assert verdict.status == UdpStatus.CERTIFIED_UDP

    def test_margin_straddle_falls_back_to_exact(self, monkeypatch):
        psi = near_singular_state()
        system = assemble_gamma_system(build_cross_matrices(
            schmidt_decompose(psi, SIX_QUBIT_SPEC.ab), SIX_QUBIT_SPEC))
        s = np.linalg.svd(system.matrix, compute_uv=False)
        ratio = s[-1] / s[0]
        assert 1.1 * ratio < 1e-2  # both tolerances pass `Tolerances`
        calls, tried = spy_on_exact_path(monkeypatch), []
        real = certify_module._shifted_cholesky
        monkeypatch.setattr(certify_module, "_shifted_cholesky",
                            lambda gram, tol, rows:
                            tried.append((gram.dtype.char, tol))
                            or real(gram, tol, rows))
        results = {}
        for factor in (0.9, 1.1):
            tol = factor * ratio
            results[factor] = stack_verdict(psi, svd_tol=tol)
            assert results[factor].null_dim == \
                _svd_null_space(system.matrix, tol).null_dim
        # the stack tried its Cholesky in both precisions both times, and
        # both fell back
        assert calls == [0.9 * ratio, 1.1 * ratio]
        assert tried == [(char, tol) for tol in calls for char in "fd"]
        assert results[0.9].null_dim == 0
        assert results[1.1].null_dim >= 1
        # the float64 Cholesky's own threshold, lambda_min = (tau + c) tr G:
        # just inside it the Cholesky certifies; just outside, where the
        # earlier shift tau ||G||_F (||G||_F = 0.32 tr G here) would still
        # have certified, the SVD decides the same verdict
        dense = system.matrix.T @ system.matrix
        edge = (np.linalg.eigvalsh(dense)[0] / np.trace(dense)
                - _shift_coefficient(real_unknowns(system),
                                     shape_rows(system.factors),
                                     np.complex128))
        assert np.linalg.norm(dense) < 0.9 / 1.1 * np.trace(dense)
        for factor, exact in ((0.9, False), (1.1, True)):
            calls.clear()
            tried.clear()
            tol = math.sqrt(factor * edge / 4)  # tau = factor * edge
            assert 4 * tol * tol > GRAM_MIN_RATIO
            verdict = stack_verdict(psi, svd_tol=tol)
            assert (verdict.status, verdict.null_dim) == (
                results[0.9].status, 0)
            assert tried == [("f", tol), ("d", tol)]
            assert calls == ([tol] if exact else [])

    @pytest.mark.parametrize("svd_tol", [math.nan, math.inf])
    def test_non_finite_tolerance_refused(self, monkeypatch, svd_tol):
        # decide_null_space once took a non-finite svd_tol to the SVD, which
        # then called every singular value zero
        calls = spy_on_exact_path(monkeypatch)
        with pytest.raises(ValueError, match="svd_tol=.* outside"):
            stack_verdict(sample_haar_state(SIX_QUBIT_STRUCTURE, 19),
                          svd_tol=svd_tol)
        with pytest.raises(ValueError, match="svd_tol=.* outside"):
            decide_null_space(haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 19),
                              svd_tol=svd_tol)
        assert calls == []

    def test_wide_exact_path_returns_complete_null_basis(self):
        # 4 real equations in 12 unknowns: the thin SVD would miss null vectors
        system = haar_system(4, 2, "A=1;B=2;C=3;D=4", 23)
        rows = system.matrix[:4]
        result = _svd_null_space(rows, SVD_TOL)
        assert result.null_dim == 12 - np.linalg.matrix_rank(rows)
        assert result.basis.shape == (12, result.null_dim)
        np.testing.assert_allclose(result.basis.T @ result.basis,
                                   np.eye(result.null_dim), atol=1e-12)
        assert np.linalg.norm(rows @ result.basis) <= 1e-12

    def test_ten_qubit_verdict_memory_bound(self):
        spec = CrossCutSpec.parse("A=1,2;B=3,4,5;C=6,7;D=8,9,10", 10)
        psi = sample_haar_state(PartyStructure.uniform(10, 2), 3)
        tracemalloc.start()
        try:
            verdict = certify_udp(psi, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.status == UdpStatus.CERTIFIED_UDP
        assert peak < 72e6

    def test_exact_tail_frees_the_dense_system(self, monkeypatch):
        # sum_i c_i |i>_AB |i>_CD in product bases fails its Cholesky, so
        # the exact path decides it; the witness search that follows holds
        # the null basis, not the dense system the SVD read (360 x 240)
        structure = PartyStructure.uniform(8, 2)
        spec = CrossCutSpec.parse("A=1,2;B=3,4;C=5,6;D=7,8", 8)
        coeffs = np.sqrt(np.arange(1, 17) / 136.0)
        psi = PureState(structure, np.diag(coeffs).ravel().astype(complex))
        held, nulls = [], []
        real_search, real_decide = (certify_module._search_phase_witness,
                                    certify_module.decide_null_space)

        def spy_decide(system, **kwargs):
            nulls.append((null := real_decide(system, **kwargs),
                          system.matrix.nbytes))
            return null

        def spy_search(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_search(*args, **kwargs)

        monkeypatch.setattr(certify_module, "decide_null_space", spy_decide)
        monkeypatch.setattr(certify_module, "_search_phase_witness",
                            spy_search)
        certify_udp(psi, spec)  # warm caches first
        held.clear()
        nulls.clear()
        tracemalloc.start()
        try:
            verdict = certify_udp(psi, spec)
        finally:
            tracemalloc.stop()
        [(null, matrix_bytes)] = nulls
        assert verdict.null_dim == null.null_dim > 0
        assert matrix_bytes == 360 * 240 * 8
        assert len(held) == 1
        assert held[0] < null.basis.nbytes + matrix_bytes // 4


def frobenius_rule(gram, svd_tol, rows):
    """Oracle: the earlier shift, tau (1 + 8 n u) ||H||_F + c tr H plus the
    underflow term, ||H||_F that of the symmetric matrix of the upper
    triangle in float64; whether each item's Cholesky passes it, and the
    shifts."""
    n = gram.shape[-1]
    tau = max(4.0 * svd_tol * svd_tol, GRAM_MIN_RATIO)
    info = np.finfo(gram.dtype)
    u, tiny = float(info.eps) / 2, float(info.smallest_normal)
    wide = gram.astype(float)
    norm = np.linalg.norm(np.triu(wide) + np.triu(wide, 1).swapaxes(-1, -2),
                          axis=(-2, -1))
    shift = (tau * (1 + 8 * n * u) * norm
             + _shift_coefficient(n, rows, gram.dtype) * gram_trace(gram)
             + 32 * n * (n + rows) ** 2 * tiny)
    shifted = gram.copy()
    shifted[..., range(n), range(n)] -= shift[..., None]
    return (norm > 0.0) & _factorizes(shifted), shift


def synthetic_ladder(n, precision):
    """Q diag(lam) Q^T with lam_max = 1 and lam_min from 1 down to 1e-13 in
    half decades, each with the rest of lam at 1 (tr H about n ||H||_F /
    sqrt(n)) and at lam_min (tr H and ||H||_F both about 1), rounded to
    `precision`."""
    q, _ = np.linalg.qr(np.random.default_rng(41).standard_normal((n, n)))
    grams = []
    for lam_min in 10.0 ** -np.arange(0.0, 13.5, 0.5):
        for rest in (1.0, lam_min):
            lam = np.full(n, rest)
            lam[0], lam[-1] = 1.0, lam_min
            grams.append((q * lam) @ q.T)
    return np.stack(grams).astype(precision)


class TestTraceShift:
    """The shift on the trace alone, (tau + c) tr H, certifies a subset of
    what the earlier (1 + 8 n u) tau ||H||_F + c tr H did: wherever the
    earlier shift passes, tr H - ||H||_F >= (n - 1) lambda_min / 2 exceeds
    8 n u ||H||_F, so the new shift is the larger."""

    @staticmethod
    def _compare(grams, svd_tol, rows):
        old, old_shift = frobenius_rule(grams, svd_tol, rows)
        new = _shifted_cholesky(grams.copy(), svd_tol, rows)
        assert not np.any(new & ~old)
        # and where the earlier shift passes, the new one is the larger
        n, tau = grams.shape[-1], max(4.0 * svd_tol * svd_tol, GRAM_MIN_RATIO)
        new_shift = ((tau + _shift_coefficient(n, rows, grams.dtype))
                     * gram_trace(grams))
        assert np.all(new_shift[old] >= old_shift[old])
        return old, new

    def test_underflow_term_refuses_a_gram_at_the_underflow_scale(self):
        # a well-conditioned float32 Gram near float32's smallest normal t:
        # (tau + c) tr H is about 3.5e-40, far below lambda_min = 1e-35,
        # but each product that underflows may err by t, and the term
        # 32 n (n + m)^2 t, about 3.6e-34, exceeds lambda_min
        n, rows = 8, 3
        tiny = float(np.finfo(np.float32).smallest_normal)
        gram = 1e-35 * np.eye(n, dtype=np.float32)
        trace_term = ((GRAM_MIN_RATIO + _shift_coefficient(n, rows,
                                                           gram.dtype))
                      * gram_trace(gram))
        assert trace_term < 1e-38
        assert 32 * n * (n + rows) ** 2 * tiny > 10 * 1e-35
        assert not _shifted_cholesky(gram, SVD_TOL, rows)
        # the same Gram at unit scale is certified
        assert _shifted_cholesky(np.eye(n, dtype=np.float32), SVD_TOL, rows)

    @pytest.mark.parametrize("rung", [np.float32, np.float64])
    def test_synthetic_ladder(self, rung):
        system = haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 31)
        grams = synthetic_ladder(real_unknowns(system), rung)
        for svd_tol in (SVD_TOL, 1e-4):
            old, new = self._compare(grams, svd_tol,
                                     system_size(*LADDER_SPECS["6q"])[1])
            assert new.any() and not new.all()
            if rung is np.float64 and svd_tol == SVD_TOL:
                # lambda_min between tau ||H||_F and tau tr H: the earlier
                # shift certified these, the exact SVD decides them now
                assert np.any(old & ~new)

    @pytest.mark.parametrize("name, seeds", [
        ("6q", range(8)), ("4qt", range(8)), ("8q", range(2))])
    def test_haar_and_ghz_grams(self, name, seeds):
        n, d, blocks = LADDER_SPECS[name]
        stacks = [[haar_system(n, d, blocks, seed) for seed in seeds]]
        if name == "6q":
            # GHZ Grams vanish (rank 2); the near-singular one is full rank
            stacks[0].append(assemble_gamma_system(build_cross_matrices(
                schmidt_decompose(near_singular_state(), SIX_QUBIT_SPEC.ab),
                SIX_QUBIT_SPEC)))
            stacks.append([assemble_gamma_system(build_cross_matrices(
                schmidt_decompose(psi, SIX_QUBIT_SPEC.ab), SIX_QUBIT_SPEC))
                for psi in (ghz_state(6), ghz_state(6, 2, 0.6, 0.8))])
        for dtype in (np.complex64, np.complex128):
            (_, haar_new), *ghz = [self._compare(
                np.stack([_upper_gram(at_precision(system, dtype))
                          for system in systems]),
                SVD_TOL, system_size(n, d, blocks)[1])
                for systems in stacks]
            # every Haar item passes in both precisions, a GHZ Gram in none
            assert haar_new[:len(seeds)].all()
            assert not any(old.any() for old, _ in ghz)


LADDER_SPECS = {
    "6q": (6, 2, "A=1,2;B=3;C=4;D=5,6"),
    "4qt": (4, 3, "A=1;B=2;C=3;D=4"),
    "8q": (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8"),
    "10q": (10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10"),
    "6qt": (6, 3, "A=1;B=2,3;C=4;D=5,6"),
    "12q": (12, 2, "A=1,2,3;B=4,5,6;C=7,8,9;D=10,11,12"),
    "12q-wide": (12, 2, "A=1,2;B=3,4,5,6;C=7,8;D=9,10,11,12"),
    "14q": (14, 2, "A=1,2,3;B=4,5,6,7;C=8,9,10;D=11,12,13,14"),
}


def ladder_dimensions(n, d, blocks):
    """The real unknowns and the factor rows m of a full-rank spec, from
    its block dimensions alone."""
    counts, rows = system_size(n, d, blocks)
    return 2 * counts["complex_variables"], rows


class TestPrecisionLadder:
    """The stack's fast path tries a float32 Gram and Cholesky first, then
    float64 on the items float32 left, then the exact SVD."""

    @pytest.mark.parametrize("name, seeds", [
        ("6q", range(200)), ("4qt", range(200)), ("8q", range(200)),
        ("10q", range(1))])
    def test_float32_certificates_hold_for_the_exact_svd(self, monkeypatch,
                                                         name, seeds):
        # every item the float32 rung certifies has a float64 system whose
        # exact singular values bear out the certified ratio sqrt(tau)
        n, d, blocks = LADDER_SPECS[name]
        spec = CrossCutSpec.parse(blocks, n)
        structure = PartyStructure.uniform(n, d)
        decided, real = [], certify_module._factorizes
        monkeypatch.setattr(
            certify_module, "_factorizes", lambda g: decided.append(
                (g.dtype.char, (passed := real(g)).tolist())) or passed)
        certified_in_float32 = []
        for seed in seeds:
            decided.clear()
            verdict = certify_udp(sample_haar_state(structure, seed), spec)
            if decided[0] == ("f", [True]):
                assert verdict.status == UdpStatus.CERTIFIED_UDP
                certified_in_float32.append(seed)
        # generic margins are wide: no Haar item needs float64 here
        assert certified_in_float32 == list(seeds)
        for seed in certified_in_float32:
            s = np.linalg.svd(haar_system(n, d, blocks, seed).matrix,
                              compute_uv=False)
            assert s[-1] >= math.sqrt(GRAM_MIN_RATIO) * s[0]

    @pytest.mark.parametrize("name", ["6q", "4qt", "8q", "6qt"])
    def test_float32_gram_within_its_majorant(self, name):
        # error source 1 of `_shifted_cholesky`: entrywise, the float32
        # Gram is within (6m + 30) u sqrt(P_ss P_tt) of the float64 one
        n, d, blocks = LADDER_SPECS[name]
        system = haar_system(n, d, blocks, 5)
        exact = full_gram(system.factors)
        rounded = full_gram(at_precision(system, np.complex64)).astype(float)
        diag = np.diagonal(exact)
        d_s = np.repeat(np.sqrt((diag[0::2] + diag[1::2]) / 2), 2)
        u = np.finfo(np.float32).eps / 2
        bound = ((6 * system_size(n, d, blocks)[1] + 30) * u
                 * np.outer(d_s, d_s))
        assert np.all(np.abs(rounded - exact) <= bound)
        # the majorant has norm tr G
        assert math.isclose(np.linalg.norm(np.outer(d_s, d_s), 2),
                            np.trace(exact), rel_tol=1e-12)

    @pytest.mark.parametrize("name, skips_float32", [
        ("6q", False), ("4qt", False), ("8q", False), ("10q", False),
        ("6qt", False), ("12q", True), ("12q-wide", True), ("14q", True)])
    def test_skip_rule_from_dimensions_alone(self, name, skips_float32):
        # lambda_min <= tr G / n, so a shift coefficient c with c n >= 1
        # cannot certify; the rule reads dimensions, and no system of the
        # larger specs is built here
        unknowns, rows = ladder_dimensions(*LADDER_SPECS[name])
        tracemalloc.start()
        try:
            single, double = (
                _shift_coefficient(unknowns, rows, dtype) * unknowns
                for dtype in (np.complex64, np.complex128))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096
        assert (single >= 1) == skips_float32
        assert double < 1e-6
        if name == "10q":
            assert 0.05 < single < 0.2

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_rung_skipped_where_the_shift_proof_ends(self, dtype):
        # the shift's proof needs (6m + 30) u <= 1/5, which c n < 1 alone
        # does not give at n = 2 (a Schmidt rank of 2): c is inf beyond it
        u = np.finfo(dtype).eps / 2
        edge = math.floor((0.2 / u - 30) / 6)  # the largest m within 1/5
        assert math.isfinite(_shift_coefficient(2, edge, dtype))
        assert _shift_coefficient(2, edge + 1, dtype) == math.inf
        if dtype is np.complex64:  # c n < 1 would have let it through
            assert _shift_coefficient(2, edge, dtype) * 2 < 1

    @pytest.mark.parametrize("name", ["6q", "4qt", "8q"])
    def test_factor_rows_match_the_dimensions(self, name):
        n, d, blocks = LADDER_SPECS[name]
        assert shape_rows(haar_system(n, d, blocks, 3).factors) == \
            ladder_dimensions(n, d, blocks)[1]

    @pytest.mark.parametrize("margin, rungs", [(1.0, "d"), (0.999, "fd")])
    def test_skipped_rung_builds_no_gram(self, monkeypatch, margin, rungs):
        # a float32 coefficient of 1/n skips float32 before its Gram is
        # built; just below it, the rung is tried and, unable to pass,
        # leaves the item to float64
        real = certify_module._shift_coefficient
        monkeypatch.setattr(
            certify_module, "_shift_coefficient",
            lambda n, rows, dtype: margin / n if np.finfo(dtype).bits == 32
            else real(n, rows, dtype))
        built, real_gram = [], certify_module._upper_gram
        monkeypatch.setattr(certify_module, "_upper_gram",
                            lambda factors, out: (
                                built.append(factors[0].outer_u.dtype.char)
                                or real_gram(factors, out)))
        calls = spy_on_exact_path(monkeypatch)
        verdict = stack_verdict(sample_haar_state(SIX_QUBIT_STRUCTURE, 3))
        assert "".join(built) == rungs.upper()
        assert calls == []
        assert verdict.status == UdpStatus.CERTIFIED_UDP

    @pytest.mark.parametrize("rung", ["f", "d"])
    def test_only_the_gram_is_alive_through_the_cholesky(self, monkeypatch,
                                                         rung):
        # the rung's factors (1.8 MB in complex128, 0.9 MB in complex64 at
        # 10 qubits) are dropped once its Gram is built; the float64 rung is
        # reached by skipping float32
        n, d, blocks = LADDER_SPECS["10q"]
        spec = CrossCutSpec.parse(blocks, n)
        psi = sample_haar_state(PartyStructure.uniform(n, d), 3)
        if rung == "d":
            real_coefficient = certify_module._shift_coefficient
            monkeypatch.setattr(
                certify_module, "_shift_coefficient",
                lambda n, rows, dtype: math.inf if dtype is np.complex64
                else real_coefficient(n, rows, dtype))
        entries, real = [], certify_module._factorizes

        def spy(gram):
            entries.append((gram.dtype.char, gram.nbytes,
                            tracemalloc.get_traced_memory()[0]))
            return real(gram)

        monkeypatch.setattr(certify_module, "_factorizes", spy)
        certify_udp(psi, spec)  # warm caches first
        entries.clear()
        tracemalloc.start()
        try:
            verdict = certify_udp(psi, spec)
        finally:
            tracemalloc.stop()
        assert verdict.status == UdpStatus.CERTIFIED_UDP
        [(char, gram_bytes, held)] = entries
        assert char == rung
        assert gram_bytes == 992 * 992 * {"f": 4, "d": 8}[rung]
        assert held <= gram_bytes + 128 * 1024

    def test_float64_rung_rebuilds_the_factors_it_reads(self, monkeypatch):
        # the near-singular item fails its float32 Cholesky between two Haar
        # items that pass; the float64 rung rebuilds its factors from the
        # stack's Schmidt rows, the slice of the whole stack's to the bit,
        # and certifies it
        states = [sample_haar_state(SIX_QUBIT_STRUCTURE, 5),
                  near_singular_state(),
                  sample_haar_state(SIX_QUBIT_STRUCTURE, 6)]
        built, passed = [], []
        real_factors, real_factorizes = (certify_module._gamma_factors,
                                         certify_module._factorizes)
        monkeypatch.setattr(certify_module, "_gamma_factors",
                            lambda m: built.append(real_factors(m))
                            or built[-1])
        monkeypatch.setattr(certify_module, "_factorizes", lambda g: (
            passed.append((g.dtype.char, (ok := real_factorizes(g)).tolist()))
            or ok))
        tol = Tolerances(svd_tol=SVD_TOL, deck_tol=1e-9, gap_tol=1e-8)
        calls = spy_on_exact_path(monkeypatch)
        verdicts = _certify_stack(states, SIX_QUBIT_SPEC, seeds=(0, 1, 2),
                                  tol=tol)
        assert passed == [("f", [True, False, True]), ("d", [True])]
        assert calls == []
        assert [v.status for v in verdicts] == [UdpStatus.CERTIFIED_UDP] * 3
        whole, rebuilt = built
        for stacked, alone in zip(whole, rebuilt):
            for field, got in zip(stacked, alone):
                assert got.shape == field[1:2].shape
                assert got.tobytes() == field[1:2].tobytes()


class TestCertify:
    def test_haar_states_certified(self):
        for seed in range(10):
            psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 100 + seed)
            verdict = certify_udp(psi, SIX_QUBIT_SPEC)
            assert verdict.status == UdpStatus.CERTIFIED_UDP
            assert verdict.null_dim == 0
            assert verdict.genericity.generic

    def test_ghz_witnessed_against_complete_deck(self):
        psi = ghz_state(6, 2, 0.6, 0.8)
        verdict = certify_udp(psi, SIX_QUBIT_SPEC, MarginalFamily.complete(6, 3))
        assert verdict.status == UdpStatus.NOT_UDP_WITNESSED
        assert verdict.witness is not None
        fam = MarginalFamily.complete(6, 3)
        dist = deck_distance(compute_deck(psi, fam),
                             compute_deck(verdict.witness, fam))
        assert dist <= 1e-9
        fid = fidelity_up_to_phase(psi, verdict.witness)
        assert fid < 1 - 1e-6
        assert fid == pytest.approx(0.28, abs=1e-9)

    @pytest.mark.parametrize("seed, error, match", [
        (True, TypeError, "seed must be int"),
        (1.5, TypeError, "seed must be int"),
        ("x", TypeError, "seed must be int"),
        (None, TypeError, "seed must be int"),
        (-1, ValueError, "seed must be at least 0"),
    ], ids=["bool", "float", "str", "none", "negative"])
    @pytest.mark.parametrize("kind", ["haar", "ghz"])
    def test_seed_read_up_front(self, kind, seed, error, match):
        # read before any stage: a certified state, whose verdict never
        # draws a phase, is refused as the witnessed one is
        psi = (sample_haar_state(SIX_QUBIT_STRUCTURE, 3) if kind == "haar"
               else ghz_state(6, 2, 0.6, 0.8))
        with pytest.raises(error, match=match):
            certify_udp(psi, SIX_QUBIT_SPEC, seed=seed)

    def test_numpy_integer_seed_draws_the_same_witness(self):
        psi = ghz_state(6, 2, 0.6, 0.8)
        family = MarginalFamily.complete(6, 3)
        a = certify_udp(psi, SIX_QUBIT_SPEC, family, seed=np.int64(5))
        b = certify_udp(psi, SIX_QUBIT_SPEC, family, seed=5)
        assert np.array_equal(a.witness.amplitudes, b.witness.amplitudes)

    def test_product_state_inconclusive_with_note(self):
        psi = PureState.basis_state(SIX_QUBIT_STRUCTURE, (0,) * 6)
        verdict = certify_udp(psi, SIX_QUBIT_SPEC)
        assert verdict.status == UdpStatus.INCONCLUSIVE
        assert verdict.null_dim == 0
        assert any("rank-1" in note for note in verdict.notes)

    def test_status_invariant_under_global_phase(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 55)
        rotated = PureState(psi.structure, np.exp(0.77j) * psi.amplitudes)
        a = certify_udp(psi, SIX_QUBIT_SPEC)
        b = certify_udp(rotated, SIX_QUBIT_SPEC)
        assert a.status == b.status == UdpStatus.CERTIFIED_UDP

    def test_primary_secondary_roles_interchangeable(self):
        # swapping B and C swaps the two cuts; generic states certify both ways
        swapped = CrossCutSpec.parse("A=1,2;B=4;C=3;D=5,6", 6)
        for seed in (7, 21):
            psi = sample_haar_state(SIX_QUBIT_STRUCTURE, seed)
            a = certify_udp(psi, SIX_QUBIT_SPEC)
            b = certify_udp(psi, swapped)
            assert (a.null_dim == 0) == (b.null_dim == 0)

    def test_spec_structure_mismatch(self):
        psi = ghz_state(4)
        with pytest.raises(ValueError, match="parties"):
            certify_udp(psi, SIX_QUBIT_SPEC)

    @pytest.mark.parametrize("keyword, value", [
        ("svd_tol", -1.0), ("gap_tol", -1.0), ("deck_tol", math.nan)])
    def test_tolerance_outside_range_refused(self, keyword, value):
        # svd_tol=-1 counted every singular value as nonzero, so a state
        # with a verified twin certified; gap_tol=-1 called a fully
        # degenerate spectrum distinct
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        with pytest.raises(ValueError, match=rf"{keyword}=.* outside"):
            certify_udp(psi, SIX_QUBIT_SPEC, **{keyword: value})

    def test_golden_lopsided_ghz_witness(self):
        # sha256 of the witness amplitudes, recorded before both witness
        # searches shared one twist-and-verify loop (numpy 2.4 with its
        # OpenBLAS, x86-64, 1 and 2 BLAS threads); its 0.6 and 0.8 and
        # exact zeros are the same bytes under every OpenBLAS kernel tried
        # (SkylakeX, Haswell, Sandybridge, Prescott), so it stays exact
        verdict = certify_udp(ghz_state(8, 2, 0.6, 0.8),
                              CrossCutSpec.parse("A=1,2;B=3,4;C=5,6;D=7,8", 8),
                              MarginalFamily.complete(8, 4))
        assert verdict.status == UdpStatus.NOT_UDP_WITNESSED
        assert hashlib.sha256(
            verdict.witness.amplitudes.tobytes()).hexdigest() == \
            "8dcf729cc54016bcbcb8647215f7048856920d3180a7a3b72ff2e98d70122c7d"

    def test_maximally_entangled_cut_never_certified(self):
        # fully degenerate spectrum: the verdict must not be CERTIFIED_UDP,
        # and any witness it does emit must be independently sound
        vec = np.zeros(64, dtype=complex)
        for i in range(8):
            vec[i * 8 + i] = 1 / math.sqrt(8)
        psi = PureState(SIX_QUBIT_STRUCTURE, vec)
        verdict = certify_udp(psi, SIX_QUBIT_SPEC)
        assert verdict.status != UdpStatus.CERTIFIED_UDP
        assert not verdict.genericity.distinct_spectrum
        if verdict.witness is not None:
            fam = SIX_QUBIT_SPEC.verification_family()
            dist = deck_distance(compute_deck(psi, fam),
                                 compute_deck(verdict.witness, fam))
            assert dist <= 1e-9
            assert fidelity_up_to_phase(psi, verdict.witness) < 1 - 1e-6

    def test_verdict_invariants_enforced(self):
        from puredeck.schmidt import GenericityReport
        generic = GenericityReport(True, True, 0.1, 4)
        degenerate = GenericityReport(False, True, 0.1, 2)
        with pytest.raises(ValueError):
            UdpVerdict(UdpStatus.CERTIFIED_UDP, 1, generic, {})
        with pytest.raises(ValueError):
            UdpVerdict(UdpStatus.CERTIFIED_UDP, 0, degenerate, {})
        with pytest.raises(ValueError):
            UdpVerdict(UdpStatus.NOT_UDP_WITNESSED, 1, generic, {})



class TestFamilyCoverage:
    """A trivial null space certifies the spec's four cut marginals; it says
    nothing about a family that does not contain them."""

    def test_uncovered_family_is_not_certified(self):
        from puredeck import counterexample_from_disconnection
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        family = MarginalFamily.parse(6, "1,2;3,4")
        verdict = certify_udp(psi, SIX_QUBIT_SPEC, family)
        assert verdict.null_dim == 0 and verdict.genericity.generic
        assert verdict.status == UdpStatus.INCONCLUSIVE
        assert any("AB, CD, AC, BD" in note for note in verdict.notes)
        # the family really leaves room: a verified twin shares its deck
        twin = counterexample_from_disconnection(psi, family)
        assert verify_twin(psi, twin, family).verified

    def test_partly_covering_family_names_the_gaps(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        family = MarginalFamily.parse(6, "1,2,3;4,5,6;1,2,4,5")
        verdict = certify_udp(psi, SIX_QUBIT_SPEC, family)
        assert verdict.status == UdpStatus.INCONCLUSIVE
        assert any("marginals BD;" in note for note in verdict.notes)

    def test_complete_half_deck_still_certifies(self):
        family = MarginalFamily.complete(6, 3)
        for seed in range(5):
            psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 100 + seed)
            verdict = certify_udp(psi, SIX_QUBIT_SPEC, family)
            assert verdict.status == UdpStatus.CERTIFIED_UDP

    def test_empty_family_is_not_certified(self):
        # an empty family is falsy (`MarginalFamily.__len__`), yet it fixes
        # none of the cut marginals
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        verdict = certify_udp(psi, SIX_QUBIT_SPEC, MarginalFamily(6, ()))
        assert verdict.null_dim == 0 and verdict.genericity.generic
        assert verdict.status == UdpStatus.INCONCLUSIVE
        assert any("marginals AB, CD, AC, BD;" in note
                   for note in verdict.notes)

    def test_family_on_other_parties_refused(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        family = MarginalFamily(8, ((1, 2, 3, 4, 5, 6),))
        with pytest.raises(ValueError, match="family defined for a different "
                                             "number of parties"):
            certify_udp(psi, SIX_QUBIT_SPEC, family)

    def test_superset_members_cover(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 3)
        family = MarginalFamily.parse(6, "1,2,3,4;3,4,5,6;1,2,4,5;3,5,6")
        assert certify_udp(psi, SIX_QUBIT_SPEC, family).status \
            == UdpStatus.CERTIFIED_UDP


def set_uncovered_cuts(spec, family):
    """Oracle: the set-based coverage rule the bitmask test replaced."""
    members = [set(member) for member in family]
    return [label for label, cut in (("AB", spec.ab), ("CD", spec.cd),
                                     ("AC", spec.ac), ("BD", spec.bd))
            if not any(set(cut) <= member for member in members)]


class TestBitmaskCoverage:
    """`_uncovered_cuts` by member bitmasks against the set-based rule."""

    @staticmethod
    def random_spec(n, rng):
        """Four blocks, some of them empty, whose unions AB, CD, AC and BD
        are all nonempty."""
        while True:
            labels = rng.integers(0, 4, size=n)
            blocks = [tuple(np.flatnonzero(labels == b) + 1)
                      for b in range(4)]
            try:
                return CrossCutSpec(*blocks, n)
            except ValueError:
                continue

    def test_random_families(self):
        rng = np.random.default_rng(12)
        seen_empty, seen = False, set()
        for trial in range(400):
            n = int(rng.integers(2, 11))
            spec = self.random_spec(n, rng)
            seen_empty |= not all((spec.block_a, spec.block_b, spec.block_c,
                                   spec.block_d))
            members = {tuple(sorted(rng.choice(np.arange(1, n + 1),
                                               size=rng.integers(1, n + 1),
                                               replace=False).tolist()))
                       for _ in range(int(rng.integers(0, 8)))}
            family = MarginalFamily(n, tuple(members))
            got = certify_module._uncovered_cuts(spec, family)
            assert got == set_uncovered_cuts(spec, family)
            seen.add(len(got))
        assert seen_empty and seen == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("blocks", ["A=1;B=2;C=3;D=4", "A=1,2;B=;C=;D=3,4",
                                        "A=;B=1,2;C=3;D=4"])
    def test_complete_decks(self, blocks):
        spec = CrossCutSpec.parse(blocks, 4)
        for k in range(1, 5):
            family = MarginalFamily.complete(4, k)
            assert certify_module._uncovered_cuts(spec, family) \
                == set_uncovered_cuts(spec, family)


class TestVerifyTwin:
    FAMILY = MarginalFamily.complete(6, 3)
    PSI = ghz_state(6, 2, 0.6, 0.8)

    def check(self, twin):
        return verify_twin(self.PSI, twin, self.FAMILY)

    def test_accepts_lopsided_ghz_phase_twin(self):
        check = self.check(ghz_state(6, 2, 0.6, -0.8))
        assert check.verified
        assert check.deck_distance <= 1e-9
        assert check.fidelity == pytest.approx(0.28, abs=1e-12)

    def test_rejects_global_phase(self):
        twin = PureState(self.PSI.structure, np.exp(0.3j) * self.PSI.amplitudes)
        check = self.check(twin)
        assert check.deck_distance <= 1e-9
        assert check.fidelity >= 1 - DISTINCT_TOL
        assert not check.verified

    def test_rejects_deck_mismatch(self):
        check = self.check(sample_haar_state(SIX_QUBIT_STRUCTURE, 4))
        assert check.deck_distance > 1e-3
        assert check.fidelity < 1 - DISTINCT_TOL
        assert not check.verified

    @pytest.mark.parametrize("deck_tol", [0.9, 1e-2, 0.0, -1.0, math.nan])
    def test_deck_tolerance_refused(self, monkeypatch, deck_tol):
        # deck_tol=0.9 once verified two unrelated 4-qubit Haar states at a
        # deck distance of 0.76; refused before any marginal is formed
        structure = PartyStructure.uniform(4, 2)
        a, b = (sample_haar_state(structure, seed) for seed in (1, 2))
        monkeypatch.setattr(certify_module, "_deck_gap", None)
        with pytest.raises(ValueError, match="deck_tol=.* outside"):
            verify_twin(a, b, MarginalFamily.complete(4, 2), deck_tol=deck_tol)

    @pytest.mark.parametrize("twin", [
        ghz_state(6, 2, 0.6, -0.8),
        sample_haar_state(SIX_QUBIT_STRUCTURE, 4),
    ], ids=["twin", "haar"])
    def test_evidence_matches_direct_computation(self, twin):
        check = self.check(twin)
        assert check.witness is twin
        assert check.deck_distance == deck_distance(
            compute_deck(self.PSI, self.FAMILY), compute_deck(twin, self.FAMILY))
        assert check.fidelity == fidelity_up_to_phase(self.PSI, twin)


class TestNoReferenceDeck:
    """The witness search streams the input's marginals alongside each
    candidate's, so certifying builds no deck at all."""

    def test_ghz_witness_without_partial_trace(self, monkeypatch):
        import puredeck.marginals as marginals_module
        calls = []
        inner = marginals_module.partial_trace

        def spy(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(marginals_module, "partial_trace", spy)
        psi = ghz_state(8, 2, 0.6, 0.8)
        family = MarginalFamily.complete(8, 4)
        spec = CrossCutSpec.parse("A=1,2;B=3,4;C=5,6;D=7,8", 8)
        verdict = certify_udp(psi, spec, family)
        assert calls == []
        assert verdict.status == UdpStatus.NOT_UDP_WITNESSED
        assert verdict.witness is not None
        # GHZ's support is two basis states, so the pair kernel gives the
        # gap, summing the dense terms in another order; it may differ from
        # the dense distance by rounding: here the twin's complex phase
        # leaves an FMA residue of about 2e-33
        gap = verdict.witness_deck_distance
        assert gap <= 1e-12
        assert abs(gap - deck_distance(
            compute_deck(psi, family),
            compute_deck(verdict.witness, family))) <= 1e-15


def oracle_phase_candidates(rank, rng):
    """Test oracle: the candidate stream one phase vector at a time."""
    if rank <= 12:
        for bits in itertools.islice(
                itertools.product((0.0, math.pi), repeat=rank - 1), 1, None):
            yield np.array((0.0,) + bits)
    for _ in range(64):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=rank)
        phases[0] = 0.0
        yield phases


def oracle_search(state, dec, null, family, *, deck_tol, seed):
    """Test oracle: the witness search scoring one candidate at a time."""
    lambdas = dec.lambdas
    basis = null.basis
    full_null = basis.shape[0] == basis.shape[1]
    candidates = []
    for phases in oracle_phase_candidates(dec.rank,
                                          np.random.default_rng(seed)):
        gamma = _gamma_vector(phases[None, :], lambdas)[0]
        norm = np.linalg.norm(gamma)
        if norm < 1e-14:
            continue
        residual = 0.0 if full_null else float(
            np.linalg.norm(gamma - basis @ (basis.T @ gamma)) / norm)
        if residual > 1e-7:
            continue
        predicted_fid = abs(np.sum(lambdas * np.exp(1j * phases)))
        candidates.append((residual, predicted_fid, len(candidates), phases))
    candidates.sort(key=lambda item: item[:3])
    for *_, phases in candidates[:16]:
        check = certify_module.verify_twin(
            state, certify_module.phase_twist(dec, phases), family,
            deck_tol=deck_tol)
        if check.verified:
            return check
    return None


def oa_state(seed):
    """OA(9,4,3,2) state with moduli in [0.5, 1.5] and random phases; its
    phase system's null space is not full (60 to 64 of 72)."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.5, 9) * np.exp(2j * np.pi * rng.random(9))
    return qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2), amps).state


class TestBatchedWitnessSearch:
    """The witness search scores every candidate in one batch; it must try
    the same twists in the same order, and return the same witness, as the
    one-candidate-at-a-time loop."""

    @staticmethod
    def _cases():
        for n, blocks in ((6, "A=1,2;B=3;C=4;D=5,6"),
                          (8, "A=1,2;B=3,4;C=5,6;D=7,8"),
                          (10, "A=1,2;B=3,4,5;C=6,7;D=8,9,10")):
            yield (f"ghz-{n}q", ghz_state(n, 2, 0.6, 0.8),
                   CrossCutSpec.parse(blocks, n),
                   MarginalFamily.complete(n, n // 2))
        spec = CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4)
        for seed in (1, 2, 4):
            yield (f"oa-{seed}", oa_state(seed), spec,
                   spec.verification_family())

    @pytest.mark.parametrize("rank", [1, 2, 3, 9, 12, 13, 16])
    def test_candidates_are_the_oracle_stream(self, rank):
        got = certify_module._phase_candidates(rank,
                                               np.random.default_rng(rank))
        want = list(oracle_phase_candidates(rank, np.random.default_rng(rank)))
        assert got.shape == (len(want), rank)
        np.testing.assert_array_equal(got, np.array(want))

    def test_same_witness_as_per_candidate_loop(self):
        null_dims = set()
        for name, psi, spec, family in self._cases():
            dec = schmidt_decompose(psi, spec.ab)
            null = decide_null_space(assemble_gamma_system(
                build_cross_matrices(dec, spec)), svd_tol=SVD_TOL)
            null_dims.add((name[:3], null.basis.shape))
            for seed in (0, 5):
                got = certify_module._search_phase_witness(
                    psi, dec, null, family, deck_tol=1e-9, seed=seed)
                want = oracle_search(psi, dec, null, family, deck_tol=1e-9,
                                     seed=seed)
                assert got is not None and want is not None, name
                assert np.array_equal(got.witness.amplitudes,
                                      want.witness.amplitudes), name
                assert (got.deck_distance, got.fidelity) == (
                    want.deck_distance, want.fidelity), name
        # the arrays' null spaces are not full, so their order rests on
        # the residuals
        assert any(name == "oa-" and shape[1] < shape[0]
                   for name, shape in null_dims)

    def test_same_twists_in_the_same_order(self, monkeypatch):
        # with every check refused, both searches try their 16 closest
        # candidates; the tries go through the module bindings
        tried = []

        def refuse(state, twin, family, *, deck_tol):
            tried.append(twin.amplitudes)
            return certify_module.WitnessCheck(twin, False, 1.0, 0.0)

        monkeypatch.setattr(certify_module, "verify_twin", refuse)
        for name, psi, spec, family in self._cases():
            dec = schmidt_decompose(psi, spec.ab)
            null = decide_null_space(assemble_gamma_system(
                build_cross_matrices(dec, spec)), svd_tol=SVD_TOL)
            tried.clear()
            assert certify_module._search_phase_witness(
                psi, dec, null, family, deck_tol=1e-9, seed=0) is None
            batched = list(tried)
            tried.clear()
            assert oracle_search(psi, dec, null, family, deck_tol=1e-9,
                                 seed=0) is None
            assert len(batched) == len(tried) > 0, name
            for a, b in zip(batched, tried):
                assert np.array_equal(a, b), name


class TestOverlapDependences:
    def test_single_party_blocks(self):
        structure = PartyStructure.uniform(4, 2)
        spec = CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4)
        report = verify_overlap_dependences(structure, spec, trials=64, seed=0)
        assert report.entry_count == 16
        assert report.predicted_rank == 12
        assert report.measured_rank == 12

    def test_six_qubit_spec(self):
        report = verify_overlap_dependences(SIX_QUBIT_STRUCTURE, SIX_QUBIT_SPEC,
                                            trials=80, seed=1)
        assert report.entry_count == 40
        assert report.measured_rank == report.predicted_rank == 36

    def test_party_count_mismatch_refused(self):
        spec = CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4)
        with pytest.raises(ValueError, match="different number of parties"):
            verify_overlap_dependences(SIX_QUBIT_STRUCTURE, spec, trials=64,
                                       seed=0)

    @pytest.mark.parametrize("settings, error, message", [
        ({"trials": 40.5}, TypeError, "trials must be int"),
        ({"trials": True}, TypeError, "trials must be int"),
        ({"seed": 1.5}, TypeError, "seed must be int"),
        ({"seed": -1}, ValueError, "seed must be at least 0"),
    ], ids=["float-trials", "bool-trials", "float-seed", "negative-seed"])
    def test_trials_and_seed_read_as_certify_udp_reads_seed(
            self, settings, error, message):
        # these once failed late, in Python or numpy, or (True) ran one trial
        with pytest.raises(error, match=message):
            verify_overlap_dependences(SIX_QUBIT_STRUCTURE, SIX_QUBIT_SPEC,
                                       **{"trials": 80, "seed": 1, **settings})

    def test_numpy_integer_trials_and_seed(self):
        want = verify_overlap_dependences(SIX_QUBIT_STRUCTURE, SIX_QUBIT_SPEC,
                                          trials=80, seed=1)
        assert verify_overlap_dependences(
            SIX_QUBIT_STRUCTURE, SIX_QUBIT_SPEC, trials=np.int64(80),
            seed=np.uint8(1)) == want

    def test_trials_too_small(self):
        with pytest.raises(ValueError, match="trials"):
            verify_overlap_dependences(SIX_QUBIT_STRUCTURE, SIX_QUBIT_SPEC,
                                       trials=10, seed=0)

    def test_single_sample_traces_vanish(self):
        # one orthonormal pair on AB (A=1,2 x B=3) and one on CD (C=4 x
        # D=5,6), drawn as `verify_overlap_dependences` draws them; the
        # hand formulas are the oracle for the kernel's (0, 1) operators
        rng = np.random.default_rng(3)
        pairs = [np.linalg.qr(rng.standard_normal((8, 2))
                              + 1j * rng.standard_normal((8, 2)))[0].T
                 for _ in range(2)]
        ops = _cross_matrices(*pairs, SIX_QUBIT_SPEC, SIX_QUBIT_STRUCTURE)
        u1, u2 = pairs[0].reshape(2, 4, 2)
        v1, v2 = pairs[1].reshape(2, 2, 4)
        hand = {"q": u1 @ u2.conj().T, "l": u1.T @ u2.conj(),
                "p": v1 @ v2.conj().T, "m": v1.T @ v2.conj()}
        for name, want in hand.items():
            np.testing.assert_allclose(getattr(ops, name)[0, 1], want,
                                       rtol=0, atol=1e-14)
            assert abs(np.trace(want)) <= 1e-12
