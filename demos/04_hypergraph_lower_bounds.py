"""A necessary condition: the marginal family must be connected.

View parties as vertices and each marginal's subset as a hyperedge.  If the
hypergraph is disconnected, some cut separates the family; twisting Schmidt
phases along that cut changes any state entangled across it while keeping
every marginal of the family.  Connectivity also forces at least
ceil((N-1)/(k-1)) k-body marginals.
"""

from puredeck import (MarginalFamily, PartyStructure, compute_deck,
                      counterexample_from_disconnection, deck_distance,
                      fidelity_up_to_phase, ghz_state, is_connected,
                      marginal_number_lower_bound, sample_haar_state)

crossing = MarginalFamily(6, ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6)))
print("crossing family {123, 456, 124, 356}:",
      "connected" if is_connected(crossing)
      else "disconnected")

split = MarginalFamily(4, ((1, 2), (3, 4)))
connected = is_connected(split)
print(f"split family {{12, 34}}: connected={connected}, "
      f"violation={not connected}")

# The violation is constructive: a second state with the same deck.
psi = sample_haar_state(PartyStructure.uniform(4, 2), 11)
other = counterexample_from_disconnection(psi, split)
dist = deck_distance(compute_deck(psi, split), compute_deck(other, split))
print(f"counterexample for a random 4-qubit state: deck distance {dist:.1e}, "
      f"fidelity {fidelity_up_to_phase(psi, other):.3f}")

ghz = ghz_state(4)
other = counterexample_from_disconnection(ghz, split)
print(f"counterexample for GHZ: fidelity "
      f"{fidelity_up_to_phase(ghz, other):.3f} (orthogonal partner)")

print("\nminimum family sizes (k-body marginals on N parties):")
for n in (4, 6, 8):
    row = {k: marginal_number_lower_bound(n, k) for k in range(2, n + 1)}
    print(f"  N={n}: {row}")
print("pair marginals (k=2) need a spanning tree: N-1 of them")
