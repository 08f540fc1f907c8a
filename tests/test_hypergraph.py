"""Tests for hypergraph connectivity and disconnection counterexamples."""

from itertools import combinations

import numpy as np
import pytest

import puredeck.certify
import puredeck.hypergraph
from puredeck import (MarginalFamily, PartyStructure, PureState, components,
                      compute_deck, counterexample_from_disconnection,
                      deck_distance, fidelity_up_to_phase, ghz_state,
                      is_connected, marginal_number_lower_bound,
                      sample_haar_state, verify_twin)
from puredeck.arrays import OA_9_4_3_2, OrthogonalArray, qoa_state

from digests import amplitude_digest

FOUR_MARGINAL_FAMILY = MarginalFamily(6, ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6)))


def bfs_connected(num_vertices, edges):
    """Reachability oracle over the bipartite vertex-edge incidence graph."""
    covered = set()
    for e in edges:
        covered.update(e)
    if covered != set(range(1, num_vertices + 1)):
        return False
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for e in edges:
            if v in e:
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
    return len(seen) == num_vertices


def random_family(num_vertices, rng):
    edges = set()
    for _ in range(rng.integers(1, 6)):
        size = int(rng.integers(1, num_vertices + 1))
        edge = tuple(sorted(rng.choice(np.arange(1, num_vertices + 1),
                                       size=size, replace=False)))
        edges.add(edge)
    return MarginalFamily(num_vertices, tuple(sorted(edges)))


class TestConnectivity:
    def test_four_marginal_family_connected(self):
        assert is_connected(FOUR_MARGINAL_FAMILY)

    def test_split_pairs_disconnected(self):
        fam = MarginalFamily(4, ((1, 2), (3, 4)))
        assert not is_connected(fam)

    def test_empty_family_single_vertex_disconnected(self):
        assert not is_connected(MarginalFamily(1, ()))

    def test_single_vertex_with_loop_edge_connected(self):
        assert is_connected(MarginalFamily(1, ((1,),)))

    def test_single_full_edge_connected(self):
        assert is_connected(MarginalFamily(5, ((1, 2, 3, 4, 5),)))

    def test_uncovered_vertex_disconnects(self):
        assert not is_connected(MarginalFamily(3, ((1, 2),)))

    def test_agrees_with_bfs_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            fam = random_family(n, rng)
            assert is_connected(fam) == bfs_connected(n, fam.subsets)

    def test_components_order_against_bfs(self):
        # components by smallest vertex, members ascending, uncovered vertices
        # as singletons: the order in which disconnection cuts are tried
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            fam = random_family(n, rng)
            expected, seen = [], set()
            for start in range(1, n + 1):
                if start in seen:
                    continue
                part, frontier = {start}, [start]
                while frontier:
                    v = frontier.pop()
                    for e in fam.subsets:
                        if v in e:
                            frontier.extend(w for w in e if w not in part)
                            part.update(e)
                seen |= part
                expected.append(tuple(sorted(part)))
            assert components(fam) == expected

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MarginalFamily(3, ((1, 2), (1, 2)))

    @pytest.mark.parametrize("num_parties", [0, -2])
    def test_fewer_than_one_party_rejected(self, num_parties):
        with pytest.raises(ValueError, match="at least one party"):
            MarginalFamily(num_parties, ())


class TestNecessaryCheck:
    def test_connected_family_no_violation(self):
        assert is_connected(FOUR_MARGINAL_FAMILY)

    def test_family_inside_proper_subset_violates(self):
        fam = MarginalFamily(5, ((1, 2), (2, 3)))  # parties 4, 5 uncovered
        assert not is_connected(fam)
        # the promised phase counterexample exists for an entangled state
        psi = sample_haar_state(PartyStructure.uniform(5, 2), 3)
        other = counterexample_from_disconnection(psi, fam)
        assert other is not None
        dist = deck_distance(compute_deck(psi, fam), compute_deck(other, fam))
        assert dist <= 1e-10


class TestLowerBound:
    def test_pair_marginals_need_a_tree(self):
        for n in (3, 5, 8):
            assert marginal_number_lower_bound(n, 2) == n - 1

    def test_six_parties_three_body(self):
        assert marginal_number_lower_bound(6, 3) == 3

    def test_full_body_needs_one(self):
        assert marginal_number_lower_bound(5, 5) == 1

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            marginal_number_lower_bound(4, 1)

    @pytest.mark.parametrize("n, k", [(10, 2.5), (10.0, 3), (True, 2),
                                      (10, "3"), (10, None)])
    def test_non_integer_arguments_refused(self, n, k):
        # (10, 2.5) once gave 6
        with pytest.raises(TypeError, match="must be int"):
            marginal_number_lower_bound(n, k)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            marginal_number_lower_bound(3, 4)

    def test_connected_families_respect_bound_small_cases(self):
        # any connected covering family of k-subsets has at least the bound
        from itertools import combinations
        for n, k in ((4, 2), (5, 3), (5, 4)):
            bound = marginal_number_lower_bound(n, k)
            subsets = list(combinations(range(1, n + 1), k))
            for size in range(bound):
                for fam in combinations(subsets, size):
                    assert not is_connected(MarginalFamily(n, fam))


class TestCounterexample:
    def test_ghz_split_family(self):
        psi = ghz_state(4)
        fam = MarginalFamily(4, ((1, 2), (3, 4)))
        other = counterexample_from_disconnection(psi, fam)
        assert other is not None
        assert deck_distance(compute_deck(psi, fam),
                             compute_deck(other, fam)) <= 1e-12
        assert fidelity_up_to_phase(psi, other) < 1 - 1e-6

    def test_fully_product_state_has_no_counterexample(self):
        psi = PureState.basis_state(PartyStructure.uniform(4, 2), (0,) * 4)
        fam = MarginalFamily(4, ((1, 2), (3, 4)))
        assert counterexample_from_disconnection(psi, fam) is None

    def test_qutrit_array_state(self):
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        fam = MarginalFamily(4, ((1, 2), (3, 4)))
        other = counterexample_from_disconnection(g.state, fam)
        assert other is not None
        assert deck_distance(compute_deck(g.state, fam),
                             compute_deck(other, fam)) <= 1e-10

    def test_connected_family_rejected(self):
        psi = ghz_state(4)
        with pytest.raises(ValueError, match="connected"):
            counterexample_from_disconnection(psi, MarginalFamily.complete(4, 2))

    @pytest.mark.parametrize("family", [
        MarginalFamily.complete(6, 3), MarginalFamily(6, ((1, 2, 3), (4, 5))),
        MarginalFamily(6, ())], ids=["connected", "disconnected", "empty"])
    def test_family_on_other_parties_refused(self, family):
        # the party count is checked before connectivity, so a connected
        # family on six parties is not reported as merely connected
        psi = sample_haar_state(PartyStructure.uniform(4, 2), 1)
        with pytest.raises(ValueError, match="family defined for a different "
                                             "number of parties"):
            counterexample_from_disconnection(psi, family)

    def test_product_across_unique_cut_gives_none(self):
        # |00> (x) bell: entangled, but product across the only separating cut
        structure = PartyStructure.uniform(4, 2)
        bell = ghz_state(2)
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        psi = PureState(structure, np.kron(vec, bell.amplitudes))
        fam = MarginalFamily(4, ((1, 2), (3, 4)))
        assert counterexample_from_disconnection(psi, fam) is None

    def test_partial_product_state_uses_other_cut(self):
        # bell on (1,2) (x) |00>: product across {1,2}|{3,4} but a three
        # component family admits the working cut {1}|{2,3,4}
        structure = PartyStructure.uniform(4, 2)
        bell = ghz_state(2)
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        psi = PureState(structure, np.kron(bell.amplitudes, vec))
        fam = MarginalFamily(4, ((1,), (2,), (3, 4)))
        other = counterexample_from_disconnection(psi, fam)
        assert other is not None
        assert deck_distance(compute_deck(psi, fam),
                             compute_deck(other, fam)) <= 1e-10
        assert fidelity_up_to_phase(psi, other) < 1 - 1e-6

    def test_golden_ten_qubit_twin(self):
        # complete 3-decks of parties 1..5 and 6..10, as in the benchmark;
        # the twin is the one found before both witness searches shared one
        # twist-and-verify loop, and its digest (`digests.amplitude_digest`,
        # the same under OpenBLAS's SkylakeX, Haswell, Sandybridge and
        # Prescott kernels) pins the cut and the twist that yield it
        psi = sample_haar_state(PartyStructure.uniform(10, 2), 11)
        fam = MarginalFamily(10, tuple(combinations(range(1, 6), 3))
                             + tuple(combinations(range(6, 11), 3)))
        twin = counterexample_from_disconnection(psi, fam, seed=0)
        assert amplitude_digest(twin.amplitudes) == \
            "a6fc62c3872f857666b6174f868544ed65ec2c19691d47d66eea88abbae5b9f6"

    def test_golden_nine_qubit_twin_three_components(self):
        # complete 2-decks of {1,2,3}, {4,5,6} and {7,8,9}; the digest is
        # the same when every grouping of components is tried, and under
        # OpenBLAS's SkylakeX, Haswell, Sandybridge and Prescott kernels
        psi = sample_haar_state(PartyStructure.uniform(9, 2), 13)
        fam = MarginalFamily(9, tuple(pair for group in ((1, 2, 3), (4, 5, 6),
                                                          (7, 8, 9))
                                      for pair in combinations(group, 2)))
        twin = counterexample_from_disconnection(psi, fam)
        assert amplitude_digest(twin.amplitudes) == \
            "0a4af9bdf4c17ffe80c2b602268cf79426b57066ded19bf687cdc9d7d90937f4"

    def test_first_component_product_second_entangled(self):
        # |0> (x) bell(2,3) (x) |0>: product across {1}|{2,3,4}, entangled
        # across the next component cut {2}|{1,3,4}
        structure = PartyStructure.uniform(4, 2)
        zero = np.array([1.0, 0.0], dtype=complex)
        bell = ghz_state(2).amplitudes
        psi = PureState(structure, np.kron(np.kron(zero, bell), zero))
        fam = MarginalFamily(4, ((1,), (2,), (3, 4)))
        other = counterexample_from_disconnection(psi, fam)
        assert other is not None
        assert verify_twin(psi, other, fam).verified


def counting(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestCounterexampleWork:
    def test_component_cuts_only(self, monkeypatch):
        # four singleton components: the cuts {1}, {2}, {3} against the
        # rest, not all seven groupings
        calls = counting(monkeypatch, puredeck.hypergraph, "schmidt_decompose")
        psi = PureState.basis_state(PartyStructure.uniform(4, 2), (0,) * 4)
        fam = MarginalFamily(4, ((1,), (2,), (3,), (4,)))
        assert counterexample_from_disconnection(psi, fam) is None
        assert [tuple(args[1]) for args in calls] == [(1,), (2,), (3,)]

    def test_one_twist_per_entangled_cut(self, monkeypatch):
        # weights (1 - 1e-7, 1e-7) across {1,2}|{3,4}: the balanced twist
        # has fidelity 1 - 2e-7, and so has any other twist at least
        calls = counting(monkeypatch, puredeck.hypergraph, "phase_twist")
        vec = np.zeros(16, dtype=complex)
        vec[0], vec[15] = np.sqrt(1 - 1e-7), np.sqrt(1e-7)
        psi = PureState(PartyStructure.uniform(4, 2), vec)
        fam = MarginalFamily(4, ((1, 2), (3, 4)))
        assert counterexample_from_disconnection(psi, fam) is None
        assert len(calls) == 1
