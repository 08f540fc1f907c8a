"""The puredeck layers the tracer wraps, and the per-layer metrics.

Span names are ``<module>.<layer>``.  Counts marked "computed" come from the
shapes of the arrays a layer returns, not from timers.
"""

from __future__ import annotations

from tracer import Tracer

PACKAGE = "puredeck"


def _count_system(counts, system) -> None:
    rows, cols = system.matrix.shape
    counts["certify.system.rows"] = max(counts["certify.system.rows"], rows)
    counts["certify.system.cols"] = max(counts["certify.system.cols"], cols)
    counts["certify.system.bytes"] = max(counts["certify.system.bytes"],
                                         system.matrix.nbytes)
    # the full U factor of a full_matrices SVD is rows x rows float64
    counts["certify.svd_u.bytes"] = max(counts["certify.svd_u.bytes"],
                                        rows * rows * system.matrix.itemsize)


def _count_marginal(counts, marginal) -> None:
    counts["marginals.partial_trace.bytes"] += marginal.matrix.nbytes


def _count_verdict(counts, verdict) -> None:
    counts["certify.witnesses"] += verdict.witness is not None


def _count_array_witness(counts, check) -> None:
    counts["arrays.witness.verified"] += bool(check.verified)


# span name -> (defining module, function, counter hook)
TARGETS = {
    "certify.certify_udp": ("puredeck.certify", "certify_udp", _count_verdict),
    "certify.cross_matrices": ("puredeck.certify", "build_cross_matrices", None),
    "certify.assemble": ("puredeck.certify", "assemble_gamma_system",
                         _count_system),
    "certify.null_space": ("puredeck.certify", "decide_null_space", None),
    "schmidt.decompose": ("puredeck.schmidt", "schmidt_decompose", None),
    "schmidt.genericity": ("puredeck.schmidt", "classify_genericity", None),
    "schmidt.phase_twist": ("puredeck.schmidt", "phase_twist", None),
    "marginals.partial_trace": ("puredeck.marginals", "partial_trace",
                                _count_marginal),
    "marginals.compute_deck": ("puredeck.marginals", "compute_deck", None),
    "marginals.deck_distance": ("puredeck.marginals", "deck_distance", None),
    "states.sample_haar": ("puredeck.states", "sample_haar_state", None),
    "states.fidelity": ("puredeck.states", "fidelity_up_to_phase", None),
    "arrays.greedy_pa": ("puredeck.arrays", "greedy_packing_array", None),
    "arrays.qoa_state": ("puredeck.arrays", "qoa_state", None),
    "arrays.non_udp_witness": ("puredeck.arrays", "non_udp_witness",
                               _count_array_witness),
    "hypergraph.counterexample": ("puredeck.hypergraph",
                                  "counterexample_from_disconnection", None),
    "experiments.run_experiment": ("puredeck.experiments", "run_experiment",
                                   None),
}

_CALL_COUNTS = ("certify.null_space", "schmidt.decompose", "schmidt.phase_twist",
                "marginals.partial_trace", "marginals.deck_distance")
_LARGEST = ("certify.system.rows", "certify.system.cols",
            "certify.system.bytes", "certify.svd_u.bytes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, op_seconds: float) -> dict:
    """Per-layer values of a traced run of `passes` passes over a workload.

    Self times, call counts and byte totals are per pass; the `_LARGEST`
    counts are the largest seen in the run.  `op_seconds` is the summed
    wall time of the traced operations.
    """
    self_s, calls = tracer.by_name()
    counts = tracer.counts
    out = {f"{name}.self_ms": 1000.0 * self_s.get(name, 0.0) / passes
           for name in TARGETS}
    out.update({f"{name}.calls": calls[name] / passes for name in _CALL_COUNTS})
    out.update({name: counts[name] for name in _LARGEST})
    out["marginals.partial_trace.bytes"] = (
        counts["marginals.partial_trace.bytes"] / passes)
    # witness-search twists tried per witness found (per search when none is)
    out["certify.twists_per_witness"] = _ratio(
        tracer.child_calls("schmidt.phase_twist", "certify.certify_udp"),
        max(counts["certify.witnesses"], 1))
    out["arrays.witness.verified_ratio"] = _ratio(
        counts["arrays.witness.verified"], calls["arrays.non_udp_witness"])
    out["hypergraph.schmidt_calls_per_counterexample"] = _ratio(
        tracer.child_calls("schmidt.decompose", "hypergraph.counterexample"),
        calls["hypergraph.counterexample"])
    out["trace.coverage_frac"] = _ratio(sum(self_s.values()), op_seconds)
    return out
