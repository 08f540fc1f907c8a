"""Tests for partial traces, decks, and deck comparison."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puredeck.marginals as marginals_module
from puredeck import (Deck, MarginalFamily, PartyStructure, PureState,
                      compute_deck, deck_distance, fidelity_up_to_phase,
                      ghz_state, partial_trace, sample_haar_state)
from puredeck.arrays import (OA_9_4_3_2, OrthogonalArray,
                             greedy_packing_array, non_udp_witness, qoa_state)
from puredeck.certify import DISTINCT_TOL, verify_twin
from puredeck.marginals import DECK_TOL, _deck_gap, _product
from puredeck.states import Marginal, complement


def brute_force_marginal(state, keep):
    """Independent oracle: double loop over basis pairs, traced digits equated."""
    struct = state.structure
    keep = tuple(sorted(keep))
    traced = [p for p in range(1, struct.num_parties + 1) if p not in keep]
    keep_dims = [struct.local_dims[p - 1] for p in keep]
    dim_keep = math.prod(keep_dims)
    rho = np.zeros((dim_keep, dim_keep), dtype=complex)

    def sub_index(digits):
        idx = 0
        for p, d in zip(keep, keep_dims):
            idx = idx * d + digits[p - 1]
        return idx

    amps = state.amplitudes
    all_digits = [struct.index_to_digits(i) for i in range(struct.total_dim)]
    for a in range(struct.total_dim):
        for b in range(struct.total_dim):
            da, db = all_digits[a], all_digits[b]
            if all(da[p - 1] == db[p - 1] for p in traced):
                rho[sub_index(da), sub_index(db)] += amps[a] * np.conj(amps[b])
    return rho


def trace_down(marginal, parties, sub, dims):
    """Matrix-level partial trace of a marginal to a sub-subset (test oracle)."""
    local = [dims[p - 1] for p in parties]
    t = marginal.matrix.reshape(local + local)
    n = len(parties)
    for pos in reversed([i for i, p in enumerate(parties) if p not in sub]):
        t = np.trace(t, axis1=pos, axis2=pos + t.ndim // 2)
    d = math.prod(dims[p - 1] for p in sub)
    return t.reshape(d, d)


class TestPartialTrace:
    def test_product_state(self):
        psi = PureState.basis_state(PartyStructure.uniform(2, 2), (0, 0))
        np.testing.assert_allclose(partial_trace(psi, (1,)).matrix,
                                   [[1, 0], [0, 0]])

    def test_two_uniform_qutrit_state(self):
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        for pair in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            marg = partial_trace(g.state, pair)
            assert np.max(np.abs(marg.matrix - np.eye(9) / 9)) <= 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        struct = PartyStructure.uniform(3, 2)
        psi = sample_haar_state(struct, rng)
        marg = partial_trace(psi, (1, 3))
        np.testing.assert_allclose(marg.matrix, brute_force_marginal(psi, (1, 3)),
                                   atol=1e-12)

    def test_oracle_on_mixed_dims(self):
        struct = PartyStructure(3, (2, 3, 2))
        psi = sample_haar_state(struct, 11)
        for keep in ((1,), (2,), (1, 2), (2, 3), (1, 3)):
            np.testing.assert_allclose(partial_trace(psi, keep).matrix,
                                       brute_force_marginal(psi, keep),
                                       atol=1e-12)

    def test_keep_everything_gives_projector(self):
        psi = sample_haar_state(PartyStructure.uniform(2, 3), 3)
        full = partial_trace(psi, (1, 2)).matrix
        np.testing.assert_allclose(full, np.outer(psi.amplitudes,
                                                  psi.amplitudes.conj()),
                                   atol=1e-14)

    def test_invalid_subset(self):
        psi = ghz_state(3)
        with pytest.raises(ValueError):
            partial_trace(psi, ())
        with pytest.raises(ValueError):
            partial_trace(psi, (0, 1))
        with pytest.raises(ValueError):
            partial_trace(psi, (1, 1))

    def test_trace_preservation(self):
        psi = sample_haar_state(PartyStructure(4, (2, 3, 2, 2)), 8)
        for keep in ((1,), (2, 4), (1, 2, 3), (1, 2, 3, 4)):
            assert abs(np.trace(partial_trace(psi, keep).matrix) - 1) <= 1e-12

    def test_nesting_consistency(self):
        psi = sample_haar_state(PartyStructure.uniform(4, 2), 21)
        big = partial_trace(psi, (1, 2, 4))
        small = partial_trace(psi, (2, 4))
        via_big = trace_down(big, (1, 2, 4), (2, 4), psi.structure.local_dims)
        assert np.linalg.norm(via_big - small.matrix) <= 1e-12

    def test_complementary_spectra_agree(self):
        psi = sample_haar_state(PartyStructure.uniform(5, 2), 33)
        for keep in ((1,), (1, 3), (2, 4, 5)):
            ev_a = np.linalg.eigvalsh(partial_trace(psi, keep).matrix)
            comp = complement(keep, 5)
            ev_b = np.linalg.eigvalsh(partial_trace(psi, comp).matrix)
            nz_a = np.sort(ev_a[ev_a > 1e-10])
            nz_b = np.sort(ev_b[ev_b > 1e-10])
            assert len(nz_a) == len(nz_b)
            assert np.max(np.abs(nz_a - nz_b)) <= 1e-10


def reshaped_block(state, keep):
    """The state as a dim(keep) x dim(rest) matrix, built independently of
    partial_trace (np.moveaxis instead of one transpose)."""
    dims = state.structure.local_dims
    axes = [p - 1 for p in keep]
    tensor = np.moveaxis(state.amplitudes.reshape(dims), axes,
                         list(range(len(axes))))
    return tensor.reshape(math.prod(dims[a] for a in axes), -1)


def trusted_deck_cases():
    """(state, family) pairs: complete k-decks of Haar qubit states at
    N = 2..10 (every k < N up to 8 qubits; k = 1, N/2, N-1 above, where the
    rank-deficient (N-1)-deck is the closest to a negative eigenvalue),
    mixed local dimensions, GHZ half-body decks, and the (N-k)-decks of the
    benchmark's array states."""
    for n in range(2, 11):
        psi = sample_haar_state(PartyStructure.uniform(n, 2), 100 + n)
        for k in range(1, n) if n <= 8 else (1, n // 2, n - 1):
            yield f"haar-{n}q-k{k}", psi, MarginalFamily.complete(n, k)
    mixed = sample_haar_state(PartyStructure(5, (2, 3, 2, 4, 3)), 5)
    for k in range(1, 5):
        yield f"mixed-k{k}", mixed, MarginalFamily.complete(5, k)
    for n in (8, 10):
        yield f"ghz-{n}q", ghz_state(n, 2, 0.6, 0.8), \
            MarginalFamily.complete(n, n // 2)
    for array in (greedy_packing_array(8, 3, 3, seed=1),
                  greedy_packing_array(10, 2, 3, seed=0),
                  OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)):
        g = qoa_state(array)
        n = g.num_parties
        yield f"array-{n}-{g.strength}", g.state, \
            MarginalFamily.complete(n, n - g.strength)


class TestTrustedMarginals:
    """partial_trace skips Marginal's checks; its marginals must still pass
    them and equal M M^dagger bit for bit."""

    def test_decks_pass_public_checks_and_match_product(self):
        for name, state, family in trusted_deck_cases():
            deck = compute_deck(state, family)
            for subset, marg in zip(family.subsets, deck.marginals):
                assert marg.parties == subset, name
                Marginal(marg.parties, marg.matrix)  # the public checks
                mat = reshaped_block(state, subset)
                assert np.array_equal(marg.matrix, mat @ mat.conj().T), \
                    (name, subset)

    def test_matrix_is_read_only(self):
        marg = partial_trace(sample_haar_state(PartyStructure.uniform(4, 2),
                                               1), (1, 3))
        assert not marg.matrix.flags.writeable
        with pytest.raises(ValueError):
            marg.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("dims,keeps", [
        ((2,) * 16, [(1,), (2, 5, 9, 12, 16), (1, 2, 3, 4, 5, 6, 7, 8),
                     (1, 3, 5, 7, 9, 11, 13, 15)]),
        ((3,) * 10, [(1,), (2, 4, 6, 8, 10)]),
        ((16,) * 4, [(1, 3), (2, 4)])])
    def test_rounding_stays_far_inside_tolerances(self, dims, keeps):
        # keeping at most half the parties bounds each marginal at 256 x 256
        psi = sample_haar_state(PartyStructure(len(dims), dims), 16)
        for keep in keeps:
            rho = partial_trace(psi, keep).matrix
            assert np.linalg.norm(rho - rho.conj().T) < 1e-11
            assert abs(np.trace(rho) - 1) < 1e-11
            assert np.linalg.eigvalsh(rho)[0] > -1e-11


class TestStreamedDecks:
    """Every marginal comes from `_product`, and twins are checked against
    a reference state marginal by marginal (`_deck_gap`) in reused buffers;
    both must match the one-marginal product and `deck_distance` bit for
    bit."""

    MIXED = PartyStructure(5, (2, 3, 2, 3, 2))

    def test_deck_equals_partial_trace_and_product_on_mixed_dims(self):
        psi = sample_haar_state(self.MIXED, 7)
        subsets = tuple(s for k in range(1, 6)
                        for s in combinations(range(1, 6), k))
        deck = compute_deck(psi, MarginalFamily(5, subsets))
        for subset, marg in zip(subsets, deck.marginals):
            mat = reshaped_block(psi, subset)
            assert np.array_equal(marg.matrix, mat @ mat.conj().T), subset
            assert np.array_equal(marg.matrix,
                                  partial_trace(psi, subset).matrix), subset

    def test_mixed_sizes_out_of_order_stay_aligned(self):
        psi = sample_haar_state(self.MIXED, 8)
        family = MarginalFamily(5, ((2, 4, 5), (1,), (3, 5), (2,), (1, 2, 3, 4),
                                    (4,), (1, 3), (2, 3, 4)))
        deck = compute_deck(psi, family)
        assert [m.parties for m in deck.marginals] == list(family.subsets)
        for subset, marg in zip(family.subsets, deck.marginals):
            assert np.array_equal(marg.matrix,
                                  partial_trace(psi, subset).matrix), subset
        haar = sample_haar_state(self.MIXED, 9)
        expected = deck_distance(deck, compute_deck(haar, family))
        assert _deck_gap(psi, haar, family) == expected

    def test_streamed_products_reuse_one_buffer_per_shape(self):
        psi = sample_haar_state(PartyStructure.uniform(8, 3), 9)
        family = MarginalFamily(8, ((1, 2), (3, 4, 5), (2, 7), (6,), (1, 5, 8)))
        buffers = {}
        for subset in family:
            rho = _product(psi.amplitudes, psi.structure.local_dims, subset,
                           buffers)
            mat = reshaped_block(psi, subset)
            assert np.array_equal(rho, mat @ mat.conj().T), subset
            assert rho is buffers[(rho.shape[0], 3 ** 8 // rho.shape[0])][2]
        assert sorted(buffers) == [(3, 2187), (9, 729), (27, 243)]

    def test_stacked_products_equal_each_states_bit_for_bit(self):
        # one batched product per subset gives each vector's own gemm, on
        # local dimensions that mix 2 and 3, in one buffer per stacked shape
        states = [sample_haar_state(self.MIXED, seed) for seed in (3, 4, 5)]
        stack = np.stack([psi.amplitudes for psi in states])
        dims = self.MIXED.local_dims
        buffers = {}
        for k in range(1, 6):
            for subset in combinations(range(1, 6), k):
                rhos = _product(stack, dims, subset, buffers)
                assert rhos is buffers[(3, *reshaped_block(
                    states[0], subset).shape)][2]
                for psi, rho in zip(states, rhos):
                    alone = _product(psi.amplitudes, dims, subset, {})
                    assert np.array_equal(rho, alone), subset
                    assert np.array_equal(
                        rho, partial_trace(psi, subset).matrix), subset
        assert all(shape[0] == 3 for shape in buffers)

    def test_dense_gap_forms_both_marginals_in_one_product(self, monkeypatch):
        family = MarginalFamily.complete(6, 3)
        a, b = (sample_haar_state(PartyStructure.uniform(6, 2), seed)
                for seed in (1, 2))
        shapes, real = [], marginals_module._product

        def spy(vectors, *args):
            shapes.append(vectors.shape)
            return real(vectors, *args)

        monkeypatch.setattr(marginals_module, "_product", spy)
        gap = _deck_gap(a, b, family)
        assert shapes == [(2, 64)] * len(family)
        assert gap == deck_distance(compute_deck(a, family),
                                    compute_deck(b, family))

    @pytest.mark.parametrize("structure,k", [
        (PartyStructure(5, (2, 3, 2, 3, 2)), 2),
        (PartyStructure(5, (2, 3, 2, 3, 2)), 3),
        (PartyStructure.uniform(8, 3), 5),
        (PartyStructure.uniform(10, 2), 5)])
    def test_gap_equals_deck_distance(self, structure, k):
        family = MarginalFamily.complete(structure.num_parties, k)
        a = sample_haar_state(structure, 1)
        haar = sample_haar_state(structure, 2)
        for b in (haar, PureState(structure, a.amplitudes * np.exp(0.7j))):
            ref, twin = compute_deck(a, family), compute_deck(b, family)
            expected = deck_distance(ref, twin)
            assert _deck_gap(a, b, family) == expected
        # the mismatching Haar pair differs most past the first marginal, so
        # an early exit would report less than the maximum
        ref, twin = compute_deck(a, family), compute_deck(haar, family)
        gaps = [np.linalg.norm(x.matrix - y.matrix)
                for x, y in zip(ref.marginals, twin.marginals)]
        assert int(np.argmax(gaps)) > 0

    def test_gap_refuses_mismatched_states(self):
        family = MarginalFamily.complete(3, 1)
        a = sample_haar_state(PartyStructure(3, (2, 3, 2)), 1)
        with pytest.raises(ValueError, match="local dimensions"):
            _deck_gap(a, sample_haar_state(PartyStructure(3, (2, 2, 3)), 1),
                      family)
        with pytest.raises(ValueError, match="number of parties"):
            _deck_gap(a, ghz_state(4), family)

    def test_deck_marginals_are_frozen_and_unshared(self):
        psi = sample_haar_state(PartyStructure.uniform(6, 2), 3)
        deck = compute_deck(psi, MarginalFamily.complete(6, 3))
        for marg in deck.marginals:
            assert marg.matrix.base is None
            assert not marg.matrix.flags.writeable
            with pytest.raises(ValueError):
                marg.matrix[0, 0] = 1.0
        first, second = deck.marginals[:2]
        assert not np.shares_memory(first.matrix, second.matrix)


def dense_gap(a, b, family):
    """Oracle: `deck_distance` of the two states' full decks."""
    return deck_distance(compute_deck(a, family), compute_deck(b, family))


def with_amplitude(state, index, amp):
    """`state` plus `amp` on basis state `index`, renormalized."""
    vec = state.amplitudes.copy()
    vec[index] += amp
    return PureState.from_amplitudes(state.structure, vec, normalize=True)


def sparse_pair(structure, support, seed):
    """Two random states on one support: the basis indices `support`, or
    that many drawn at random."""
    rng = np.random.default_rng(seed)
    if isinstance(support, int):
        support = rng.choice(structure.total_dim, size=support, replace=False)
    size = len(support)
    pair = []
    for _ in range(2):
        vec = np.zeros(structure.total_dim, dtype=complex)
        vec[support] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        pair.append(PureState.from_amplitudes(structure, vec, normalize=True))
    return pair


def shared_entries(ref, twin, subset):
    """How many entries of the marginal difference on `subset` sum two or
    more off-diagonal basis pairs of the union support."""
    dims = ref.structure.local_dims
    union = np.flatnonzero((ref.amplitudes != 0) | (twin.amplitudes != 0))
    digits = np.unravel_index(union, dims)
    inside = [p - 1 for p in subset]
    outside = [i for i in range(len(dims)) if i not in inside]
    keys = {}
    for x in range(union.size):
        for y in range(union.size):
            if x != y and all(digits[i][x] == digits[i][y] for i in outside):
                key = tuple(digits[i][x] for i in inside) + tuple(
                    digits[i][y] for i in inside)
                keys[key] = keys.get(key, 0) + 1
    return sum(count > 1 for count in keys.values())


class TestPairKernel:
    """When the union support S of two states has |S|^2 <= total_dim,
    `_deck_gap` group-sums w = a a^H - b b^H over the pairs of S for the
    whole family, never forming a marginal; it must report the dense
    `deck_distance` up to rounding, whichever state is the sparse one.
    Larger supports take the dense path and equal it bit for bit."""

    @staticmethod
    def _union_cases():
        n = 6
        structure = PartyStructure.uniform(n, 2)
        family = MarginalFamily.complete(n, n // 2)
        zeros = PureState.basis_state(structure, (0,) * n)
        ones = PureState.basis_state(structure, (1,) * n)
        ghz = ghz_state(n, 2, 0.6, 0.8)
        haar = sample_haar_state(structure, 11)
        # the phase-flipped GHZ shares the deck; the extra basis state |010101>
        # lies off the reference's support
        flipped = PureState(structure, ghz.amplitudes * np.where(
            np.arange(2 ** n) == 0, -1.0, 1.0))
        extra = with_amplitude(flipped, int("010101", 2), 0.1)
        yield "disjoint", zeros, ones, family
        yield "sparse-vs-haar", ghz, haar, family
        yield "haar-vs-sparse", haar, ghz, family
        yield "ghz-vs-extra-basis-state", ghz, extra, family
        # |1111> is off the support of the qutrit GHZ 0.6|0000> + 0.8|2222>
        ghz3 = ghz_state(4, 3, 0.6, 0.8)
        yield "ghz-vs-dead-everywhere", ghz3, with_amplitude(
            ghz3, int("1111", 3), 0.3), MarginalFamily.complete(4, 2)

    def test_union_of_both_supports(self):
        for name, ref, twin, family in self._union_cases():
            want = dense_gap(ref, twin, family)
            got = _deck_gap(ref, twin, family)
            assert abs(got - want) <= 1e-15 * max(1.0, want), name
            assert want > DECK_TOL, name
            assert not verify_twin(ref, twin, family).verified, name

    @staticmethod
    def _twin_cases():
        rng = np.random.default_rng(21)
        for array in (greedy_packing_array(8, 3, 3, seed=1),
                      greedy_packing_array(10, 2, 3, seed=0),
                      OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)):
            rows = array.num_rows
            amps = (rng.uniform(0.5, 1.5, rows)
                    * np.exp(2j * np.pi * rng.random(rows)))
            g = qoa_state(array, amps)
            n = g.num_parties
            family = MarginalFamily.complete(n, n - g.strength)
            for flip in sorted({0, rows - 1, *rng.integers(rows, size=2)}):
                yield (f"array-{n}-{g.strength}-flip{flip}", g.state,
                       non_udp_witness(g, int(flip)).witness, family)
        for n in (6, 8, 10):
            ghz = ghz_state(n, 2, 0.6, 0.8)
            family = MarginalFamily.complete(n, n // 2)
            for phase in (np.pi, 2 * np.pi / 3, 1.0):
                twist = np.where(np.arange(2 ** n) == 0, np.exp(1j * phase), 1)
                yield (f"ghz-{n}q-{phase:.3f}", ghz,
                       PureState(ghz.structure, ghz.amplitudes * twist), family)

    def test_sparse_twins_agree_with_dense_decks(self):
        for name, ref, twin, family in self._twin_cases():
            want = dense_gap(ref, twin, family)
            check = verify_twin(ref, twin, family)
            assert abs(check.deck_distance - want) <= 1e-15, name
            dense_verdict = (want <= DECK_TOL and fidelity_up_to_phase(
                ref, twin) < 1.0 - DISTINCT_TOL)
            assert check.verified == dense_verdict, name
            assert check.verified, name

    @staticmethod
    def _kernel_cases():
        for n in range(4, 11):
            ghz = ghz_state(n, 2, 0.6, 0.8)
            family = MarginalFamily.complete(n, n // 2)
            twin = PureState(ghz.structure, ghz.amplitudes * np.where(
                np.arange(2 ** n) == 0, np.exp(2j), 1))
            yield f"ghz-{n}q-twin", ghz, twin, family
            yield f"ghz-{n}q-other", ghz, ghz_state(n, 2, 0.8, 0.6), family
        yield "empty-family", ghz, ghz_state(n, 2, 0.8, 0.6), \
            MarginalFamily(n, ())
        yield from TestPairKernel._twin_cases()
        for case in TestPairKernel._union_cases():
            if "haar" not in case[0]:
                yield case
        ghz3 = ghz_state(4, 3, 0.6, 0.8)
        yield "qutrit-pair", ghz3, with_amplitude(
            ghz3, int("0120", 3), 0.5j), MarginalFamily.complete(4, 2)
        for n, size, seed in ((6, 8, 1), (6, 8, 2), (8, 16, 3), (8, 12, 4)):
            ref, twin = sparse_pair(PartyStructure.uniform(n, 2), size, seed)
            for k in (1, n // 2, n - 1):
                yield (f"random-{n}q-{size}-{seed}-k{k}", ref, twin,
                       MarginalFamily.complete(n, k))
        ref, twin = sparse_pair(PartyStructure(4, (2, 3, 2, 3)), 6, 5)
        yield "random-mixed", ref, twin, MarginalFamily.complete(4, 2)
        # on party 1, the pairs (|0000>, |1000>) and (|0001>, |1001>) land
        # on one entry
        yield ("random-shared-4q",
               *sparse_pair(PartyStructure.uniform(4, 2), [0, 8, 1, 9], 8),
               MarginalFamily.complete(4, 1))

    def test_gaps_match_dense_decks(self, monkeypatch):
        # each of these supports has |S|^2 <= total_dim, so the pair kernel
        # gives the gap
        import puredeck.marginals as marginals_module
        calls = []
        kernel = marginals_module._pair_gap
        monkeypatch.setattr(marginals_module, "_pair_gap",
                            lambda *args: calls.append(args) or kernel(*args))
        shared = 0
        for name, ref, twin, family in self._kernel_cases():
            want = dense_gap(ref, twin, family)
            calls.clear()
            got = _deck_gap(ref, twin, family)
            assert len(calls) == 1, name
            assert abs(got - want) <= 1e-15 * max(1.0, want), name
            if name.startswith("random"):
                assert want > 0.1, name
                shared += sum(shared_entries(ref, twin, subset)
                              for subset in family.subsets)
        # some entries sum two pairs (x, y) and (x', y') with the same
        # digits on the subset and other digits off it
        assert shared > 0

    def test_each_subset_gap_is_its_marginal_difference(self):
        # the kernel's per-subset sums, alone and in chunks of one subset,
        # are the Frobenius norms of the dense marginal differences
        import puredeck.marginals as marginals_module
        for name, ref, twin, family in self._kernel_cases():
            if not name.startswith(("random", "qutrit", "ghz-6q-other")):
                continue
            gap = _deck_gap(ref, twin, family)
            singles = []
            for subset in family.subsets:
                want = np.linalg.norm(partial_trace(ref, subset).matrix
                                      - partial_trace(twin, subset).matrix)
                got = _deck_gap(ref, twin, MarginalFamily(
                    family.num_parties, (subset,)))
                assert abs(got - want) <= 1e-15 * max(1.0, want), (name, subset)
                singles.append(got)
            assert gap == max(singles), name
            saved = marginals_module._PAIR_BYTES
            marginals_module._PAIR_BYTES = 1
            try:
                assert _deck_gap(ref, twin, family) == gap, name
            finally:
                marginals_module._PAIR_BYTES = saved

    def test_dense_route_is_bit_equal(self, monkeypatch):
        # |S|^2 > total_dim: every marginal is the buffered product, so the
        # gap is deck_distance to the last bit
        import puredeck.marginals as marginals_module
        monkeypatch.setattr(marginals_module, "_pair_gap", None)
        structure = PartyStructure.uniform(10, 2)
        weights = np.array([bin(i).count("1") for i in range(2 ** 10)])
        dicke = PureState.from_amplitudes(structure, (weights == 5) * 1.0,
                                          normalize=True)
        rng = np.random.default_rng(3)
        phased = PureState(structure, dicke.amplitudes * np.exp(
            2j * np.pi * rng.random(2 ** 10)))
        assert np.count_nonzero(dicke.amplitudes) == 252
        family = MarginalFamily.complete(10, 5)
        assert _deck_gap(dicke, phased, family) == dense_gap(
            dicke, phased, family)
        ref, twin = sparse_pair(PartyStructure.uniform(4, 2), 5, 6)
        family = MarginalFamily.complete(4, 2)
        assert _deck_gap(ref, twin, family) == dense_gap(ref, twin, family)

    def test_sixteen_qubit_pair_is_chunked(self):
        # 256 support states give about 65536 pairs; unchunked, one mask of
        # pairs by 300 subsets would take over 100 MB
        structure = PartyStructure.uniform(16, 2)
        ref, twin = sparse_pair(structure, 256, 7)
        family = MarginalFamily(16, tuple(
            combinations(range(1, 17), 8))[::43][:300])
        assert len(family) == 300
        tracemalloc.start()
        try:
            gap = _deck_gap(ref, twin, family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        head = MarginalFamily(16, family.subsets[:3])
        want = dense_gap(ref, twin, head)
        assert abs(_deck_gap(ref, twin, head) - want) <= 1e-15
        assert gap >= want > 0.1

    def test_ten_qutrit_strength_three_witness_is_small(self):
        # the dense check forms 120 products of 2187 x 27 x 2187 (each rho
        # 76 MB); the pair kernel reads a few dozen basis pairs
        g = qoa_state(greedy_packing_array(10, 3, 3, seed=0))
        tracemalloc.start()
        try:
            check = non_udp_witness(g, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.verified
        assert check.deck_distance <= 1e-15
        assert peak < 16 * 2 ** 20


class TestMarginalFamily:
    def test_complete_family(self):
        fam = MarginalFamily.complete(4, 2)
        assert len(fam) == 6
        assert fam.subsets[0] == (1, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MarginalFamily(3, ((1, 2), (2, 1)))

    def test_parse(self):
        fam = MarginalFamily.parse(6, "1,2,3;4,5,6")
        assert fam.subsets == ((1, 2, 3), (4, 5, 6))
        assert MarginalFamily.parse(4, "k=3") == MarginalFamily.complete(4, 3)
        assert MarginalFamily.parse(4, " k= 3 ") == MarginalFamily.complete(4, 3)
        assert MarginalFamily.parse(6, "1, 2 ,3").subsets == ((1, 2, 3),)

    @pytest.mark.parametrize("text, named", [
        ("1_0,2", "party"), ("\u0661,2", "party"), ("+1,2", "party"),
        ("1,,2", "party"), ("k=0_3", "k"), ("k=\u0663", "k"), ("k=+3", "k"),
        ("\u20031,2;3,4\u2003", "party"), ("1,2\t;3,4", "party"),
        ("1,\u2003,2", "party"), ("k=3\u2003", "k")])
    def test_parse_takes_ascii_digits_only(self, text, named):
        # int() read "1_0,2" as (2, 10) and "k=0_3" as the complete 3-deck;
        # str.strip() took Unicode spaces off the text and each chunk
        with pytest.raises(ValueError, match=f"invalid {named} "):
            MarginalFamily.parse(10, text)

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError):
            MarginalFamily(3, ((1, 4),))

    @pytest.mark.parametrize("n", [4.0, True, "4", None])
    def test_non_integer_num_parties_refused(self, n):
        # 4.0 once built a family that `compute_deck` accepted and
        # `certify_udp` failed on late, in Python's own TypeError
        with pytest.raises(TypeError, match="num_parties must be int"):
            MarginalFamily(n, ((1, 2), (3, 4)))

    def test_numpy_num_parties_stored_as_int(self):
        fam = MarginalFamily(np.int64(4), ((1, 2), (3, 4)))
        assert type(fam.num_parties) is int
        assert fam == MarginalFamily(4, ((1, 2), (3, 4)))


class TestCompleteFamily:
    """`MarginalFamily.complete` builds its subsets without the
    constructor's per-subset checks."""

    def test_equals_validated_constructor(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                checked = MarginalFamily(
                    n, tuple(combinations(range(1, n + 1), k)))
                fam = MarginalFamily.complete(n, k)
                assert fam == checked
                assert type(fam.num_parties) is int
                assert all(type(p) is int for s in fam.subsets for p in s)
        assert MarginalFamily.complete(np.int64(4), np.int32(2)) \
            == MarginalFamily.complete(4, 2)

    @pytest.mark.parametrize("n, k", [(3, True), (3, 2.0), (3.0, 2),
                                      (True, 1), ("3", 2), (3, None)])
    def test_non_integer_counts_refused(self, n, k):
        # True once gave the 1-deck and 2.0 leaked itertools' TypeError
        with pytest.raises(TypeError, match="must be int"):
            MarginalFamily.complete(n, k)

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (0, 1), (-2, -1)])
    def test_out_of_range_k_refused(self, n, k):
        with pytest.raises(ValueError, match=f"k={k} outside"):
            MarginalFamily.complete(n, k)

    def test_masks_match_members(self):
        rng = np.random.default_rng(3)
        for n in range(1, 11):
            subsets = {tuple(sorted(rng.choice(np.arange(1, n + 1),
                                               size=rng.integers(1, n + 1),
                                               replace=False).tolist()))
                       for _ in range(12)}
            for fam in (MarginalFamily(n, tuple(subsets)),
                        MarginalFamily.complete(n, (n + 1) // 2),
                        MarginalFamily(n, ())):
                assert fam._masks.tolist() == [sum(1 << (p - 1) for p in s)
                                               for s in fam.subsets]


class TestDecks:
    def test_complete_one_deck_of_00(self):
        psi = PureState.basis_state(PartyStructure.uniform(2, 2), (0, 0))
        deck = compute_deck(psi, MarginalFamily.complete(2, 1))
        assert len(deck.marginals) == 2
        for marg in deck.marginals:
            np.testing.assert_allclose(marg.matrix, [[1, 0], [0, 0]])

    def test_two_deck_of_qutrit_array_state_is_maximally_mixed(self):
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        deck = compute_deck(g.state, MarginalFamily.complete(4, 2))
        assert len(deck.marginals) == 6
        for m in deck.marginals:
            mixed = np.eye(m.dim) / m.dim
            assert np.linalg.norm(m.matrix - mixed) <= 1e-12

    def test_ghz_three_body_marginals_diagonal(self):
        alpha, beta = 0.6, 0.8
        psi = ghz_state(4, 2, alpha, beta)
        deck = compute_deck(psi, MarginalFamily.complete(4, 3))
        expected = np.zeros((8, 8))
        expected[0, 0] = alpha ** 2
        expected[7, 7] = beta ** 2
        for marg in deck.marginals:
            np.testing.assert_allclose(marg.matrix, expected, atol=1e-12)

    def test_misaligned_deck_rejected(self):
        psi = ghz_state(2)
        fam = MarginalFamily.complete(2, 1)
        marg = [partial_trace(psi, (2,)), partial_trace(psi, (1,))]
        with pytest.raises(ValueError, match="misaligned"):
            Deck(fam, tuple(marg))


class TestDeckDistance:
    def test_deck_vs_itself(self):
        psi = sample_haar_state(PartyStructure.uniform(3, 2), 2)
        deck = compute_deck(psi, MarginalFamily.complete(3, 2))
        assert deck_distance(deck, deck) == 0.0

    def test_ghz_phase_flip_shares_three_deck(self):
        fam = MarginalFamily.complete(4, 3)
        a = compute_deck(ghz_state(4, 2, 0.6, 0.8), fam)
        b = compute_deck(ghz_state(4, 2, 0.6, -0.8), fam)
        assert deck_distance(a, b) <= 1e-14

    def test_orthogonal_product_states(self):
        struct = PartyStructure.uniform(4, 2)
        fam = MarginalFamily.complete(4, 1)
        a = compute_deck(PureState.basis_state(struct, (0,) * 4), fam)
        b = compute_deck(PureState.basis_state(struct, (1,) * 4), fam)
        assert deck_distance(a, b) == pytest.approx(math.sqrt(2))

    def test_family_mismatch(self):
        psi = ghz_state(3)
        a = compute_deck(psi, MarginalFamily.complete(3, 1))
        b = compute_deck(psi, MarginalFamily.complete(3, 2))
        with pytest.raises(ValueError):
            deck_distance(a, b)

    def test_unordered_mode_matches_by_subset(self):
        psi = sample_haar_state(PartyStructure.uniform(3, 2), 4)
        fam_a = MarginalFamily(3, ((1,), (2,), (3,)))
        fam_b = MarginalFamily(3, ((3,), (1,), (2,)))
        a = compute_deck(psi, fam_a)
        b = compute_deck(psi, fam_b)
        with pytest.raises(ValueError):
            deck_distance(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=3))
def test_partial_trace_oracle_property(seed, n, d):
    rng = np.random.default_rng(seed)
    struct = PartyStructure.uniform(n, d)
    psi = sample_haar_state(struct, rng)
    size = int(rng.integers(1, n + 1))
    keep = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
    np.testing.assert_allclose(partial_trace(psi, keep).matrix,
                               brute_force_marginal(psi, keep), atol=1e-12)
