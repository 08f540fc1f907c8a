"""Marginal families as hypergraphs: connectivity and marginal-count bounds.

A family that leaves the hypergraph disconnected cannot single out any state
that is entangled across the separating cut: twisting the Schmidt phases
along that cut changes the state but none of the family's marginals.

Note: deciding genuine multipartite entanglement is out of scope here.  The
connectivity check reports the graph condition only; the counterexample
constructor checks the actual Schmidt rank along each separating cut instead
of assuming anything about the state.
"""

from __future__ import annotations

import math

import numpy as np

from .certify import _first_twin
from .marginals import DECK_TOL, MarginalFamily, compute_deck
from .schmidt import schmidt_decompose
from .states import PureState


def components(family: MarginalFamily) -> list[tuple[int, ...]]:
    """Connected components of the family's hypergraph (vertices 1..N, one
    edge per subset), listed by smallest vertex, members ascending;
    vertices in no subset form singleton components."""
    parts = [{v} for v in range(1, family.num_parties + 1)]
    for subset in family:
        joined = [p for p in parts if not p.isdisjoint(subset)]
        parts = ([p for p in parts if p.isdisjoint(subset)]
                 + [set().union(*joined)])
    return sorted(tuple(sorted(p)) for p in parts)


def is_connected(family: MarginalFamily) -> bool:
    """True iff every pair of parties is joined through shared subsets.

    A party in no subset counts as disconnected, including the single party
    of an empty one-party family.  A component of two or more parties is
    covered, so one component means connected unless the family is empty.
    """
    return len(family) > 0 and len(components(family)) == 1


def marginal_number_lower_bound(num_parties: int, k: int) -> int:
    """Minimum number of k-body marginals any determining family must contain.

    A connected covering family of k-subsets needs at least
    ceil((N - 1) / (k - 1)) edges.
    """
    if k < 2:
        raise ValueError("bound requires subset size k >= 2")
    if k > num_parties:
        raise ValueError(f"k={k} exceeds the number of parties {num_parties}")
    return math.ceil((num_parties - 1) / (k - 1))


def _balanced_sign_phases(lambdas: np.ndarray) -> np.ndarray:
    """0/pi phases splitting the spectrum into two near-balanced groups."""
    phases = np.zeros(len(lambdas))
    weight = [0.0, 0.0]
    for i in np.argsort(lambdas)[::-1]:
        side = 0 if weight[0] <= weight[1] else 1
        weight[side] += lambdas[i]
        phases[i] = math.pi * side
    return phases


def counterexample_from_disconnection(state: PureState, family: MarginalFamily,
                                      *, seed: int = 0) -> PureState | None:
    """A distinct state with the same deck, built from a separating cut.

    Requires a disconnected family.  Every edge lies inside one connected
    component, so any grouping of components into two sides gives a cut no
    edge crosses; phase-twisting the Schmidt terms along such a cut preserves
    every marginal in the family.  Returns None when the state is a product
    across every separating cut.
    """
    parts = components(family)
    if len(parts) < 2:
        if len(family) > 0:
            raise ValueError("family is connected; no separating cut exists")
        return None  # single uncovered vertex graph: no bipartition available
    rng = np.random.default_rng(seed)
    reference = compute_deck(state, family)
    # enumerate component groupings; component 0 stays on the left and the
    # all-components-left mask is excluded so the right side is never empty
    for mask in range(2 ** (len(parts) - 1) - 1):
        left = list(parts[0])
        for b in range(1, len(parts)):
            if mask & (1 << (b - 1)):
                left.extend(parts[b])
        dec = schmidt_decompose(state, sorted(left))
        if dec.rank < 2:
            continue
        attempts = [_balanced_sign_phases(dec.lambdas)]
        for _ in range(3):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=dec.rank)
            phases[0] = 0.0
            attempts.append(phases)
        found = _first_twin(reference, state, dec, attempts, deck_tol=DECK_TOL)
        if found is not None:
            return found.witness
    return None
