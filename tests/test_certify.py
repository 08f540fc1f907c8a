"""Tests for the cross-cut phase-system certifier."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import puredeck.certify as certify_module
from puredeck import (CrossCutSpec, MarginalFamily, PartyStructure, PureState,
                      Tolerances, UdpStatus, UdpVerdict,
                      assemble_gamma_system, build_cross_matrices, certify_udp,
                      compute_deck, deck_distance, decide_null_space,
                      expected_equation_counts, fidelity_up_to_phase,
                      ghz_state, sample_haar_state, schmidt_decompose,
                      verify_overlap_dependences, verify_twin)
from puredeck.certify import (DISTINCT_TOL, GRAM_MIN_RATIO, SVD_TOL,
                              _certify_stack, _cross_matrices, _factorizes,
                              _gamma_vector, _khatri_rao, _shifted_cholesky,
                              _svd_null_space)

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

    @pytest.mark.parametrize("rank", range(1, 14))
    def test_gamma_vector_matches_entrywise_reference(self, rank):
        # same arithmetic per entry, so equal to the last bit: the witness
        # search ranks candidates by their residual against the null space
        rng = np.random.default_rng(rank)
        for _ in range(50):
            lambdas = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
            phases = rng.uniform(0.0, 2.0 * math.pi, rank)
            expected = []
            for i in range(rank):
                for j in range(i + 1, rank):
                    g = ((1.0 - np.exp(1j * (phases[i] - phases[j])))
                         * np.sqrt(lambdas[i]) * np.sqrt(lambdas[j]))
                    expected += [g.real, g.imag]
            np.testing.assert_array_equal(_gamma_vector(phases, lambdas),
                                          np.array(expected, dtype=float))

    @pytest.mark.parametrize("n, d, blocks", COUNTING_LAW_CASES)
    def test_gram_matches_dense_system(self, n, d, blocks):
        system = haar_system(n, d, blocks, 7)
        dense = system.matrix.T @ system.matrix
        np.testing.assert_allclose(system.gram, dense,
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
    """The identities `GammaSystem.gram` rests on, its stack/item
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
        # the stack certifies an item from the stacked Gram, so what decides
        # it must be what `certify_udp` decides that item by, to the last
        # bit: every entry the Cholesky reads, before and after the shift,
        # and so the norm the shift is made of, and the factor written over
        # it; the strict upper triangle is read by neither
        spec = CrossCutSpec.parse(blocks, n)
        structure = PartyStructure.uniform(n, d)
        seeds = range(60, 64)
        states = [sample_haar_state(structure, s) for s in seeds]
        tol = Tolerances(svd_tol=SVD_TOL, deck_tol=1e-9, gap_tol=1e-8)
        grams, factors = [], []
        real, real_factorizes = (certify_module._shifted_cholesky,
                                 certify_module._factorizes)

        def spy(gram, svd_tol):
            grams.append(gram.copy())
            return real(gram, svd_tol)

        def spy_factorizes(gram):
            shifted = gram.copy()
            passed = real_factorizes(gram)
            factors.append((shifted, gram.copy()))
            return passed

        monkeypatch.setattr(certify_module, "_shifted_cholesky", spy)
        monkeypatch.setattr(certify_module, "_factorizes", spy_factorizes)
        with monkeypatch.context() as patch:
            # one stack of all four, also where the memory budget holds one
            patch.setattr(certify_module, "_stack_size",
                          lambda structure, spec: len(seeds))
            _certify_stack(states, spec, seeds=seeds, tol=tol)
        for state, seed in zip(states, seeds):
            _certify_stack([state], spec, seeds=[seed], tol=tol)
        stacked, *items = grams
        (shifted, factor), *items_factored = factors
        assert stacked.shape[0] == len(items) == len(seeds)
        size = stacked.shape[-1]
        lower = np.tril_indices(size)
        scale = ((GRAM_MIN_RATIO + (size + 1) ** 2 * np.finfo(float).eps)
                 * np.array([np.linalg.norm(np.tril(g) + np.tril(g, -1).T)
                             for g in stacked]))
        for item, (seed, alone, (alone_shifted, alone_factor)) in enumerate(
                zip(seeds, items, items_factored)):
            np.testing.assert_array_equal(stacked[item][lower],
                                          alone[0][lower])
            np.testing.assert_array_equal(
                stacked[item][lower], haar_system(n, d, blocks, seed).gram[lower])
            np.testing.assert_array_equal(shifted[item][lower],
                                          alone_shifted[0][lower])
            np.testing.assert_array_equal(factor[item][lower],
                                          alone_factor[0][lower])
            # the shift is the norm of the symmetric matrix of the lower
            # triangle, scaled as `_shifted_cholesky` documents (read back
            # to within the rounding of the diagonal it was taken from)
            diag = np.diagonal(stacked[item])
            np.testing.assert_allclose(
                diag - np.diagonal(shifted[item]), scale[item], rtol=1e-12,
                atol=4 * np.finfo(float).eps * np.max(np.abs(diag)))

    def test_ten_qubit_gram_peak(self):
        # P, Q and one pair of factor-Gram products, then P, Q and the real
        # Gram: four n x n complex arrays, below the bound of 4.5
        system = haar_system(10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10", 3)
        n = system.num_complex_variables
        tracemalloc.start()
        try:
            system.gram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 16 * n * n


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


class TestLowerTriangle:
    """Only the lower triangle of the Gram decides a verdict: `_lower_gram`
    leaves the strict upper one unset, and `_shifted_cholesky` reads none
    of it."""

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

            def spy(gram, svd_tol):
                if poison:
                    gram[(..., *np.triu_indices(gram.shape[-1], 1))] = np.nan
                passed = real(gram, svd_tol)
                decided.append(passed.tolist())
                return passed

            with monkeypatch.context() as patch:
                patch.setattr(certify_module, "_shifted_cholesky", spy)
                calls = spy_on_exact_path(patch)
                verdicts = _certify_stack(states, spec, seeds=seeds, tol=tol)
            runs[poison] = verdicts, decided, calls
        (clean, decided, calls), (dirty, *evidence) = runs[False], runs[True]
        same_verdicts(dirty, clean)
        # the same items certified by the Cholesky, the same left for the
        # SVD; every spec with equations reaches the Cholesky and certifies
        assert evidence == [decided, calls]
        assert any(map(any, decided)) == any(
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
        np.testing.assert_allclose(
            certify_module._lower_gram(system)[lower], dense[lower], rtol=0,
            atol=1e-12 * max(np.max(np.abs(dense)), 1.0))


class TestInPlaceCholesky:
    """`_factorizes` leans on numpy's private LAPACK gufunc: it writes the
    factor np.linalg.cholesky would return over the Gram, fills a failed
    item with NaN without a warning, and allocates no n x n array."""

    @pytest.mark.filterwarnings("error")
    def test_factor_overwrites_each_item(self):
        grams = np.stack([haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", seed).gram
                          for seed in (80, 81, 82)])
        grams[1] -= 2 * np.trace(grams[1]) * np.eye(grams.shape[-1])
        before = grams.copy()
        assert _factorizes(grams).tolist() == [True, False, True]
        for item in (0, 2):
            np.testing.assert_array_equal(
                grams[item].swapaxes(-1, -2),
                np.linalg.cholesky(before[item].swapaxes(-1, -2), upper=True))
        assert np.isnan(grams[1]).all()

    def test_ten_qubit_factor_allocates_no_matrix(self):
        gram = haar_system(10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10", 3).gram
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
        assert np.all(system.gram == 0.0)
        assert not _shifted_cholesky(system.gram, SVD_TOL)
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

    @pytest.mark.parametrize("case", ["above-shift", "below-tau", "singular"])
    def test_certificate_direction_on_synthetic_grams(self, monkeypatch, case):
        psi = sample_haar_state(SIX_QUBIT_STRUCTURE, 31)
        n = haar_system(6, 2, "A=1,2;B=3;C=4;D=5,6", 31).num_real_variables
        # the shift for lambda_max = 1, where ||G||_F is sqrt(n) at most
        shift = (GRAM_MIN_RATIO + (n + 1) ** 2 * np.finfo(float).eps) * math.sqrt(n)
        lam = np.ones(n)
        lam[-1] = {"above-shift": 10 * shift, "below-tau": GRAM_MIN_RATIO / 10,
                   "singular": 0.0}[case]
        q, _ = np.linalg.qr(np.random.default_rng(29).standard_normal((n, n)))
        gram = (q * lam) @ q.T  # Q diag(lam) Q^T
        # the stack of one reads the synthetic Gram as its only item
        monkeypatch.setattr(certify_module, "_lower_gram",
                            lambda system: gram[None].copy())
        calls = spy_on_exact_path(monkeypatch)
        verdict = stack_verdict(psi)
        if case == "above-shift":
            assert calls == []
            assert verdict.status == UdpStatus.CERTIFIED_UDP
        else:
            assert calls == [SVD_TOL]  # never certified from the Gram

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
                            lambda gram, tol: tried.append(tol)
                            or real(gram, tol))
        results = {}
        for factor in (0.9, 1.1):
            tol = factor * ratio
            results[factor] = stack_verdict(psi, svd_tol=tol)
            assert results[factor].null_dim == \
                _svd_null_space(system.matrix, tol).null_dim
        # the stack tried its Cholesky both times, and both fell back
        assert tried == calls == [0.9 * ratio, 1.1 * ratio]
        assert results[0.9].null_dim == 0
        assert results[1.1].null_dim >= 1

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
        # OpenBLAS, x86-64, 1 and 2 BLAS threads)
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
        assert verdict.witness_deck_distance == deck_distance(
            compute_deck(psi, family), compute_deck(verdict.witness, family))


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
