"""Marginal families as hypergraphs: connectivity and marginal-count bounds.

A family that leaves the hypergraph disconnected cannot single out any state
that is entangled across the separating cut: twisting the Schmidt phases
along that cut changes the state but none of the family's marginals.

Note: deciding genuine multipartite entanglement is out of scope here.  The
connectivity check reports the graph condition only; the counterexample
constructor checks the actual Schmidt rank along the cuts "component i |
rest" for all but the last component, which suffice because a product across
each of them is a product of its components; its `seed` has no effect.
"""

from __future__ import annotations

import math

import numpy as np

from .certify import verify_twin
from .marginals import MarginalFamily, _check_parties
from .schmidt import phase_twist, schmidt_decompose
from .states import PureState, _integer


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
    ceil((N - 1) / (k - 1)) edges.  N and k are read by `states._integer`.
    """
    num_parties, k = _integer(num_parties, "num_parties"), _integer(k, "k")
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

    Requires a disconnected family.  No edge crosses a component cut
    "component i | rest", so a Schmidt phase twist along it keeps every
    marginal.  The cuts of all components but the last are tried, in
    `components` order: a product across each of them is a product of its
    components.  Each entangled cut gets the balanced-sign twist only: it
    fails only when the largest Schmidt weight is at least 1 - 5e-7, and
    then every twist has fidelity at least 2 lambda_max - 1 >= 1 - 1e-6.
    Returns None when no cut yields a twin.  `seed` has no effect.
    """
    _check_parties(state, family)
    parts = components(family)
    if len(parts) < 2:
        if len(family) > 0:
            raise ValueError("family is connected; no separating cut exists")
        return None  # single uncovered vertex graph: no bipartition available
    for part in parts[:-1]:
        dec = schmidt_decompose(state, part)
        if dec.rank < 2:
            continue
        check = verify_twin(state, phase_twist(
            dec, _balanced_sign_phases(dec.lambdas)), family)
        if check.verified:
            return check.witness
    return None
