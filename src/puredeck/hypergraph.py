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
from dataclasses import dataclass

import numpy as np

from .certify import verify_twin
from .marginals import MarginalFamily, compute_deck
from .schmidt import schmidt_decompose, phase_twist
from .states import PureState


@dataclass(frozen=True)
class DeckHypergraph:
    """Vertices 1..N, one (hyper)edge per subset in a marginal family."""

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for edge in self.edges:
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            for v in edge:
                if v < 1 or v > self.num_vertices:
                    raise ValueError(f"vertex {v} outside 1..{self.num_vertices}")

    @classmethod
    def from_family(cls, family: MarginalFamily) -> "DeckHypergraph":
        return cls(family.num_parties, family.subsets)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components, listed by smallest vertex, members ascending;
        vertices in no edge form singleton components."""
        parts = [{v} for v in range(1, self.num_vertices + 1)]
        for edge in self.edges:
            joined = [p for p in parts if not p.isdisjoint(edge)]
            if joined:
                parts = ([p for p in parts if p.isdisjoint(edge)]
                         + [set().union(*joined)])
        return sorted(tuple(sorted(p)) for p in parts)


def is_connected(graph: DeckHypergraph) -> bool:
    """True iff every vertex pair is joined through shared edges.

    A vertex in no edge counts as disconnected, including the one-vertex graph
    with an empty edge set.
    """
    covered = {v for edge in graph.edges for v in edge}
    if len(covered) != graph.num_vertices:
        return False
    return len(graph.components()) == 1


@dataclass(frozen=True)
class NecessaryCheck:
    connected: bool
    violation: bool


def udp_necessary_check(family: MarginalFamily) -> NecessaryCheck:
    """Connectivity check of the family's hypergraph.

    `violation=True` means: no state that is entangled across the separating
    cut can be uniquely determined among pure states by this family.
    """
    connected = is_connected(DeckHypergraph.from_family(family))
    return NecessaryCheck(connected=connected, violation=not connected)


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
    graph = DeckHypergraph.from_family(family)
    if is_connected(graph):
        raise ValueError("family is connected; no separating cut exists")
    parts = graph.components()
    if len(parts) < 2:
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
        for phases in attempts:
            check = verify_twin(reference, state, phase_twist(dec, phases))
            if check.verified:
                return check.witness
    return None
