"""Tests for the cross-cut phase-system certifier."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import puredeck.certify as certify_module
from puredeck.arrays import OA_9_4_3_2, OrthogonalArray, qoa_state
from puredeck import (CrossCutSpec, MarginalFamily, PartyStructure, PureState,
                      Tolerances, UdpStatus, UdpVerdict,
                      assemble_gamma_system, build_cross_matrices, certify_udp,
                      compute_deck, deck_distance, decide_null_space,
                      expected_equation_counts, fidelity_up_to_phase,
                      ghz_state, sample_haar_state, schmidt_decompose,
                      verify_overlap_dependences, verify_twin)
from puredeck.certify import (DISTINCT_TOL, GRAM_MIN_RATIO, SVD_TOL,
                              GammaSystem, _certify_stack, _cross_matrices,
                              _factor_rows, _factorizes, _gamma_vector,
                              _khatri_rao, _pairs, _shift_coefficient,
                              _shifted_cholesky, _svd_null_space,
                              _upper_gram)

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


def full_gram(system):
    """Oracle: the real Gram matrix.T @ matrix, `_upper_gram` mirrored."""
    gram = _upper_gram(system)
    return np.where(np.tri(gram.shape[-1], dtype=bool).T, gram,
                    gram.swapaxes(-1, -2))


def at_precision(system, dtype):
    """`system` with its factors rounded to `dtype`, as a rung of the
    stack's ladder reads them."""
    return GammaSystem(tuple(source._make(f.astype(dtype) for f in source)
                             for source in system.factors))


def reference_matrix(matrices):
    """Entry-by-entry assembly of the real system, for comparison.

    Row pair (a, b, c, e), a < b and (c, e) not the last diagonal entry,
    holds gamma * Out[a, b] In[c, e] + conj(gamma) * conj(Out[b, a] In[e, c])
    for each pair, split into (Re, Im) rows and (Re gamma, Im gamma) columns.
    """
    rank = matrices.rank
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

    def test_empty_block_allowed_when_unions_nonempty(self):
        spec = CrossCutSpec.parse("A=1;B=;C=2;D=3", 3)
        assert spec.ab == (1,) and spec.bd == (3,)

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
        zero = np.zeros(system.num_real_variables)
        assert np.linalg.norm(system.matrix @ zero) == 0.0


class TestGammaSystem:
    def test_six_qubit_counts(self):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 5)
        dec = schmidt_decompose(psi, SIX_QUBIT_SPEC.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, SIX_QUBIT_SPEC))
        assert system.num_complex_variables == 28
        assert system.num_complex_equations == 33
        assert system.equation_counts == {"ac": 18, "bd": 15}
        assert system.matrix.shape == (66, 56)

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES)
    def test_counting_law(self, n, d, blocks):
        structure = PartyStructure.uniform(n, d)
        spec = CrossCutSpec.parse(blocks, n)
        psi = sample_haar_state(structure, 7)
        dec = schmidt_decompose(psi, spec.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, spec))
        expected = expected_equation_counts(structure, spec)
        assert system.equation_counts == expected
        assert system.num_complex_equations == expected["ac"] + expected["bd"]

    def test_empty_block_spec_assembles(self):
        # B empty: no equations from the L/M side
        structure = PartyStructure.uniform(4, 2)
        spec = CrossCutSpec.parse("A=1,2;B=;C=3;D=4", 4)
        psi = sample_haar_state(structure, 9)
        dec = schmidt_decompose(psi, spec.ab)
        system = assemble_gamma_system(build_cross_matrices(dec, spec))
        assert system.equation_counts["bd"] == 0
        assert system.equation_counts["ac"] == \
            expected_equation_counts(structure, spec)["ac"]

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
        np.testing.assert_allclose(full_gram(system), dense,
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
        assert expected_equation_counts(structure, spec) == counts
        assert {k: verdict.equation_counts[k] for k in counts} == counts


EMPTY_INNER_BLOCK_CASES = [
    (4, 2, "A=1;B=2;C=;D=3,4"),
    (4, 2, "A=1,2;B=3;C=4;D="),
    (4, 2, "A=1;B=;C=;D=2,3,4"),
]


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
                     + real_coefficient(dims, _factor_rows(system), rung))
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
        n = system.num_complex_variables
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
    def poisoned(factor):
        rank = factor.shape[-3]
        products = overlap_products(factor)
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
        assert any(any(passed) for _, passed in decided) == any(
            expected_equation_counts(structure, spec).values())

    @pytest.mark.parametrize("n, d, blocks, within_one", [
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8", False),
        (6, 2, "A=1,2;B=3;C=4;D=5,6", True),
    ] + [(*case, True) for case in EMPTY_INNER_BLOCK_CASES])
    def test_lower_triangle_matches_dense_oracle(self, n, d, blocks,
                                                 within_one):
        system = haar_system(n, d, blocks, 7)
        pairs = system.num_complex_variables
        tile = certify_module._TILE_BYTES // (16 * pairs)
        if within_one:
            assert pairs < tile
        else:  # several tiles, the last one cut short
            assert pairs > tile and pairs % tile != 0
        dense = system.matrix.T @ system.matrix
        lower = np.tril_indices(2 * pairs)
        view = _upper_gram(system).swapaxes(-1, -2)  # as LAPACK reads it
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
    def test_norm_matches_dense_gram(self, n, d, blocks):
        for seed in (7, 8):
            system = haar_system(n, d, blocks, seed)
            want = np.trace(system.matrix.T @ system.matrix)
            trace = gram_trace(_upper_gram(system))
            assert trace.shape == ()
            assert abs(trace - want) <= 8 * np.finfo(float).eps * want
            # a PSD Gram's trace bounds its Frobenius norm, the bound the
            # certificate rests on
            assert np.linalg.norm(system.matrix.T @ system.matrix) <= want

    def test_norm_vanishes_with_the_gram(self):
        psi = ghz_state(6, 2, 0.6, 0.8)
        system = assemble_gamma_system(build_cross_matrices(
            schmidt_decompose(psi, SIX_QUBIT_SPEC.ab), SIX_QUBIT_SPEC))
        gram = _upper_gram(system)
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
                                                 seed))
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
            haar_system(10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10", 3))
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
        assert system.num_complex_variables == 3
        assert system.num_complex_equations == 0
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
        assert np.all(full_gram(system) == 0.0)
        for dtype in (np.complex64, np.complex128):
            gram = _upper_gram(at_precision(system, dtype))
            # `trace > 0` refuses it, whatever LAPACK makes of a zero Gram
            assert gram_trace(gram) == 0.0
            assert not _shifted_cholesky(gram, SVD_TOL, _factor_rows(system))
        calls = spy_on_exact_path(monkeypatch)
        assert decide_null_space(system).null_dim == 2
        assert calls == [SVD_TOL]

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
        system = haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 31)
        n, rows = system.num_real_variables, _factor_rows(system)
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

        def synthetic(rung):
            # the stack of one reads the synthetic Gram as its only item
            precision = np.finfo(rung.factors[0].outer_u.dtype).dtype
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
                - _shift_coefficient(system.num_real_variables,
                                     _factor_rows(system), np.complex128))
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

    @pytest.mark.parametrize("rung", [np.float32, np.float64])
    def test_synthetic_ladder(self, rung):
        system = haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 31)
        grams = synthetic_ladder(system.num_real_variables, rung)
        for svd_tol in (SVD_TOL, 1e-4):
            old, new = self._compare(grams, svd_tol, _factor_rows(system))
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
                SVD_TOL, _factor_rows(systems[0])) for systems in stacks]
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
    spec = CrossCutSpec.parse(blocks, n)
    da, db, dc, dd = spec.block_dims(PartyStructure.uniform(n, d))
    unknowns = 2 * math.comb(min(da * db, dc * dd), 2)
    rows = max(2 * math.comb(da, 2), dc * dc - 1, 2 * math.comb(db, 2),
               dd * dd - 1)
    return unknowns, rows


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
        exact = full_gram(system)
        rounded = full_gram(at_precision(system, np.complex64)).astype(float)
        diag = np.diagonal(exact)
        d_s = np.repeat(np.sqrt((diag[0::2] + diag[1::2]) / 2), 2)
        u = np.finfo(np.float32).eps / 2
        bound = (6 * _factor_rows(system) + 30) * u * np.outer(d_s, d_s)
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
        assert _factor_rows(haar_system(n, d, blocks, 3)) == \
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
        monkeypatch.setattr(certify_module, "_upper_gram", lambda system: (
            built.append(system.factors[0].outer_u.dtype.char)
            or real_gram(system)))
        calls = spy_on_exact_path(monkeypatch)
        verdict = stack_verdict(sample_haar_state(SIX_QUBIT_STRUCTURE, 3))
        assert "".join(built) == rungs.upper()
        assert calls == []
        assert verdict.status == UdpStatus.CERTIFIED_UDP


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
