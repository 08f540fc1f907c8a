"""Tests for Schmidt decomposition, genericity, and phase twists."""

import math

import numpy as np
import pytest

from puredeck import (MarginalFamily, PartyStructure, PureState,
                      classify_genericity, compute_deck, deck_distance,
                      fidelity_up_to_phase, ghz_state, partial_trace,
                      phase_twist, sample_haar_state, schmidt_decompose)
from puredeck.schmidt import (_TIE_TOL, RANK_TOL, _genericity,
                              _schmidt_factors, _tie_break_degenerate,
                              _untied)
from puredeck.states import _cut


def row_by_row_decomposition(state, cut):
    """Reference: thin SVD of the cut matrix, rank truncation, then each
    left vector's first entry above RANK_TOL * s_max made real and positive,
    one row at a time with scalar arithmetic (no tie-break: for states
    without tied coefficients)."""
    structure = state.structure
    rest = tuple(p for p in range(1, structure.num_parties + 1) if p not in cut)
    order = [p - 1 for p in cut + rest]
    tensor = state.amplitudes.reshape(structure.local_dims)
    mat = tensor.transpose(order).reshape(
        structure.subset_dim(cut), structure.subset_dim(rest))
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    left, right = u[:, :rank].T.copy(), vh[:rank].copy()
    for i in range(rank):
        first = np.flatnonzero(np.abs(left[i]) > RANK_TOL * s[0])[0]
        phase = left[i][first] / abs(left[i][first])
        left[i] = left[i] / phase
        right[i] = right[i] * phase
    return s[:rank], left, right


class TestDecomposition:
    def test_product_state_rank_one(self):
        psi = PureState.basis_state(PartyStructure.uniform(2, 2), (0, 0))
        dec = schmidt_decompose(psi, (1,))
        assert dec.rank == 1
        np.testing.assert_allclose(dec.coefficients, [1.0])

    def test_bell_state_spectrum(self):
        bell = ghz_state(2)
        dec = schmidt_decompose(bell, (1,))
        np.testing.assert_allclose(dec.lambdas, [0.5, 0.5], atol=1e-14)

    def test_haar_six_qubit_full_rank_and_reconstruction(self):
        psi = sample_haar_state(PartyStructure.uniform(6, 2), 12)
        dec = schmidt_decompose(psi, (1, 2, 3))
        assert dec.rank == 8
        rec = dec.reconstruct()
        assert fidelity_up_to_phase(psi, rec) >= 1 - 1e-10

    def test_reconstruction_against_awkward_cut(self):
        # non-contiguous cut exercises the axis bookkeeping
        psi = sample_haar_state(PartyStructure(5, (2, 3, 2, 2, 3)), 9)
        dec = schmidt_decompose(psi, (2, 5))
        assert fidelity_up_to_phase(psi, dec.reconstruct()) >= 1 - 1e-10

    def test_bases_are_orthonormal(self):
        psi = sample_haar_state(PartyStructure.uniform(5, 2), 77)
        dec = schmidt_decompose(psi, (1, 4))
        gram_l = dec.left_basis @ dec.left_basis.conj().T
        gram_r = dec.right_basis @ dec.right_basis.conj().T
        assert np.linalg.norm(gram_l - np.eye(dec.rank)) <= 1e-10
        assert np.linalg.norm(gram_r - np.eye(dec.rank)) <= 1e-10

    def test_spectrum_sums_to_one_and_sorted(self):
        psi = sample_haar_state(PartyStructure.uniform(4, 3), 5)
        dec = schmidt_decompose(psi, (1, 2))
        assert abs(dec.lambdas.sum() - 1) <= 1e-10
        assert np.all(np.diff(dec.coefficients) <= 0)
        assert np.all(dec.coefficients > 0)

    def test_spectra_duality_with_partial_trace(self):
        psi = sample_haar_state(PartyStructure.uniform(5, 2), 31)
        dec = schmidt_decompose(psi, (2, 3))
        eigs = np.sort(np.linalg.eigvalsh(partial_trace(psi, (2, 3)).matrix))[::-1]
        np.testing.assert_allclose(eigs[:dec.rank], dec.lambdas, atol=1e-10)

    @pytest.mark.parametrize("n, d, cut", [(6, 2, (1, 2, 3)), (4, 3, (1, 2)),
                                           (8, 2, (1, 2, 5, 6)), (5, 2, (2, 4))])
    def test_matches_row_by_row_reference(self, n, d, cut):
        # same arithmetic per row, so equal to the last bit, in a stack too
        structure = PartyStructure.uniform(n, d)
        states = [sample_haar_state(structure, seed) for seed in range(12)]
        stacked = _schmidt_factors(_cut(
            np.stack([psi.amplitudes for psi in states]), structure.local_dims,
            [p - 1 for p in cut]))
        for item, psi in enumerate(states):
            dec = schmidt_decompose(psi, cut)
            for got, want, row in zip(
                    (dec.coefficients, dec.left_basis, dec.right_basis),
                    row_by_row_decomposition(psi, cut), stacked):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(row[item], want)

    def test_invalid_cuts(self):
        psi = ghz_state(3)
        with pytest.raises(ValueError):
            schmidt_decompose(psi, ())
        with pytest.raises(ValueError, match="proper"):
            schmidt_decompose(psi, (1, 2, 3))

    def test_deterministic_output_with_degenerate_spectrum(self):
        ghz = ghz_state(4)  # two equal coefficients
        a = schmidt_decompose(ghz, (1, 2))
        b = schmidt_decompose(ghz, (1, 2))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.left_basis, b.left_basis)
        np.testing.assert_array_equal(a.right_basis, b.right_basis)


def run_start_tie_break(coeffs, left, right, scale):
    """Oracle: the earlier tie-break, which measured each coefficient
    against the first of its run; for runs spanning less than the window
    it forms the runs the neighbour rule forms."""
    order = list(range(len(coeffs)))
    start = 0
    while start < len(coeffs):
        stop = start + 1
        while (stop < len(coeffs)
               and abs(coeffs[stop] - coeffs[start]) <= _TIE_TOL * scale):
            stop += 1
        if stop - start > 1:
            block = sorted(
                order[start:stop],
                key=lambda i: tuple((round(z.real, 10), round(z.imag, 10))
                                    for z in left[i]),
            )
            order[start:stop] = block
        start = stop
    order = np.asarray(order)
    return coeffs[order], left[order], right[order]


def tied_spectrum(rng, k):
    """k decreasing coefficients in runs of 1 to 4, each run spanning less
    than 0.9 of the tie window and the runs 1e-3 or more apart."""
    sizes = []
    while sum(sizes) < k:
        sizes.append(int(rng.integers(1, 5)))
    sizes[-1] -= sum(sizes) - k
    levels = 1.0 - 0.01 * np.arange(len(sizes)) - rng.uniform(0, 5e-3,
                                                              len(sizes))
    levels[0] = 1.0
    coeffs = [level - np.sort(np.r_[0.0, rng.uniform(
        0.0, 0.9 * _TIE_TOL, size - 1)]) for level, size in zip(levels, sizes)]
    return np.concatenate(coeffs)


class TestTieRule:
    """One tie rule: a run of neighbours each within _TIE_TOL times the
    largest coefficient of the next is tied, in `_untied` and in the
    tie-break alike."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_run_start_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        coeffs = tied_spectrum(rng, k)
        assert np.all(np.diff(coeffs) <= 0.0)
        # entries from a small set, so sort keys often tie on early entries
        values = np.array([-0.5, 0.0, 0.5])
        left = (rng.choice(values, (k, d))
                + 1j * rng.choice(values, (k, d)))
        right = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
        got = _tie_break_degenerate(coeffs, left, right)
        want = run_start_tie_break(coeffs, left, right, coeffs[0])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_neighbour_chain_is_one_run(self):
        # each gap is 0.6e-12, within the window, but the run spans 1.2e-12:
        # the neighbour rule ties all three, where the run-start oracle split
        # them after the second
        coeffs = np.array([1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12, 0.5])
        left = np.array([[0.3], [0.2], [0.1], [0.0]], dtype=complex)
        right = np.eye(4, dtype=complex)
        assert not _untied(coeffs)
        _, _, got = _tie_break_degenerate(coeffs, left, right)
        assert np.argmax(got.real, axis=1).tolist() == [2, 1, 0, 3]
        _, _, old = run_start_tie_break(coeffs, left, right, coeffs[0])
        assert np.argmax(old.real, axis=1).tolist() == [1, 0, 2, 3]

    @pytest.mark.parametrize("seed", range(20))
    def test_untied_items_keep_their_order(self, seed):
        # the promise the stacked kernel rests on: an untied row comes back
        # as given, the very arrays, and only a tied one is gathered anew
        rng = np.random.default_rng(seed)
        coeffs = np.stack([tied_spectrum(rng, 6) for _ in range(4)])
        coeffs[0] = np.linspace(1.0, 0.5, 6)
        untied = _untied(coeffs)
        assert untied[0]
        left = rng.standard_normal((6, 4)) + 0j
        for row, flag in zip(coeffs, untied.tolist()):
            assert _untied(row) == flag
            got = _tie_break_degenerate(row, left, left)
            assert all(g is a for g, a in zip(got, (row, left, left))) == flag

    def test_tied_states_keep_the_oracle_order(self):
        # GHZ and maximally entangled cuts: every tie is far inside the window
        bell = np.zeros(16, dtype=complex)
        bell[[0, 5, 10, 15]] = 0.5
        states = [ghz_state(4), ghz_state(5, 3),
                  PureState.from_amplitudes(PartyStructure.uniform(4, 2),
                                            bell)]
        for psi in states:
            n = psi.structure.num_parties
            for cut in ((1,), (1, 2), (1, 3), tuple(range(1, n))):
                structure = psi.structure
                s, left, right = _schmidt_factors(_cut(
                    psi.amplitudes, structure.local_dims,
                    [p - 1 for p in cut]))
                dec = schmidt_decompose(psi, cut)
                want = run_start_tie_break(s[:dec.rank], left[:dec.rank],
                                           right[:dec.rank], s[0])
                for g, w in zip((dec.coefficients, dec.left_basis,
                                 dec.right_basis), want):
                    np.testing.assert_array_equal(g, w)


class TestGenericity:
    def test_ghz_not_full_rank(self):
        report = classify_genericity(schmidt_decompose(ghz_state(4), (1, 2)))
        assert report.rank == 2
        assert not report.full_rank  # rank 2 of possible 4

    def test_bell_degenerate_spectrum(self):
        report = classify_genericity(schmidt_decompose(ghz_state(2), (1,)))
        assert report.full_rank
        assert not report.distinct_spectrum
        assert report.min_gap <= 1e-12

    @pytest.mark.parametrize("gap_tol", [-1.0, 0.0, 1e-2, math.nan])
    def test_gap_tolerance_refused(self, gap_tol):
        # gap_tol=-1 once called GHZ's degenerate spectrum distinct
        dec = schmidt_decompose(ghz_state(2), (1,))
        with pytest.raises(ValueError, match="gap_tol=.* outside"):
            classify_genericity(dec, gap_tol=gap_tol)

    def test_haar_states_generic(self):
        struct = PartyStructure.uniform(6, 2)
        for seed in range(100):
            dec = schmidt_decompose(sample_haar_state(struct, seed), (1, 2, 3))
            assert classify_genericity(dec).generic

    def test_rank_one_report(self):
        psi = PureState.basis_state(PartyStructure.uniform(3, 2), (0, 1, 0))
        report = classify_genericity(schmidt_decompose(psi, (2,)))
        assert report.rank == 1 and not report.full_rank
        assert report.min_gap == math.inf and report.distinct_spectrum

    def test_stacked_rule_matches_scalar_oracle(self):
        # one stack mixing full rank, rank deficits, rank 1 and a
        # degenerate spectrum; each row against the definition, by hand
        rows = np.array([[0.8, 0.5, 0.3, 0.1], [0.9, 0.4, 1e-12, 0.0],
                         [1.0, 0.0, 0.0, 0.0], [0.6, 0.6, 0.5, 0.2]])
        reports = _genericity(rows, 4, 1e-8)
        for row, report in zip(rows, reports, strict=True):
            kept = [c for c in row if c > RANK_TOL * row[0]]
            gaps = [abs(a * a - b * b) for a, b in zip(kept, kept[1:])]
            assert report.rank == len(kept)
            assert report.full_rank == (len(kept) == 4)
            assert report.min_gap == min(gaps, default=math.inf)
            assert report.distinct_spectrum == (report.min_gap > 1e-8)
        assert [r.rank for r in reports] == [4, 2, 1, 4]
        assert [r.generic for r in reports] == [True, False, False, False]


class TestPhaseTwist:
    def test_zero_phases_reproduce_state(self):
        psi = sample_haar_state(PartyStructure.uniform(4, 2), 3)
        dec = schmidt_decompose(psi, (1, 2))
        rec = phase_twist(dec, np.zeros(dec.rank))
        assert fidelity_up_to_phase(psi, rec) >= 1 - 1e-10

    def test_equal_phases_give_global_phase(self):
        from puredeck import inner_product
        psi = sample_haar_state(PartyStructure.uniform(4, 2), 13)
        dec = schmidt_decompose(psi, (1, 3))
        theta = 1.234
        rec = phase_twist(dec, np.full(dec.rank, theta))
        assert abs(inner_product(psi, rec) - np.exp(1j * theta)) <= 1e-10

    def test_ghz_twist_keeps_three_deck_but_changes_state(self):
        alpha, beta = 0.6, 0.8
        psi = ghz_state(4, 2, alpha, beta)
        dec = schmidt_decompose(psi, (1, 2))
        twisted = phase_twist(dec, [0.0, math.pi])
        fam = MarginalFamily.complete(4, 3)
        dist = deck_distance(compute_deck(psi, fam), compute_deck(twisted, fam))
        assert dist <= 1e-12
        fid = fidelity_up_to_phase(psi, twisted)
        assert fid == pytest.approx(abs(alpha ** 2 - beta ** 2), abs=1e-12)
        assert fid < 1

    def test_cut_marginals_invariant_under_arbitrary_phases(self):
        rng = np.random.default_rng(8)
        psi = sample_haar_state(PartyStructure.uniform(5, 2), 19)
        cut = (1, 4)
        dec = schmidt_decompose(psi, cut)
        fam = MarginalFamily(5, (cut, (2, 3, 5)))
        for _ in range(5):
            twisted = phase_twist(dec, rng.uniform(0, 2 * math.pi, dec.rank))
            dist = deck_distance(compute_deck(psi, fam),
                                 compute_deck(twisted, fam))
            assert dist <= 1e-10

    def test_twist_preserves_spectrum(self):
        rng = np.random.default_rng(4)
        psi = sample_haar_state(PartyStructure.uniform(4, 3), 6)
        dec = schmidt_decompose(psi, (2, 3))
        twisted = phase_twist(dec, rng.uniform(0, 2 * math.pi, dec.rank))
        dec2 = schmidt_decompose(twisted, (2, 3))
        np.testing.assert_allclose(np.sort(dec2.lambdas), np.sort(dec.lambdas),
                                   atol=1e-10)

    def test_phase_length_mismatch(self):
        dec = schmidt_decompose(ghz_state(4), (1, 2))
        with pytest.raises(ValueError, match="phases"):
            phase_twist(dec, [0.0])
