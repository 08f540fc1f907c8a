"""The stacked certification kernel behind `certify_udp` and
`run_experiment` against the exact SVD on each state: verdicts field by
field, whole reports, and memory."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import puredeck.certify as certify_module
import puredeck.experiments as experiments_module
from puredeck import (CrossCutSpec, ExperimentConfig, PartyStructure, PureState,
                      Tolerances, UdpStatus, certify_udp, ghz_state,
                      run_experiment, sample_haar_state)
from puredeck.certify import _certify_stack, _stack_size
from puredeck.cli import main

SPEC = CrossCutSpec.parse("A=1,2;B=3;C=4;D=5,6", 6)
STRUCTURE = PartyStructure.uniform(6, 2)
TOL = Tolerances(svd_tol=1e-9, deck_tol=1e-9, gap_tol=1e-8)


def stacks_of_one(states, spec, *, seeds, tol):
    """One `certify_udp` call, a stack of one, per state."""
    return [certify_udp(state, spec, seed=seed, **tol.to_dict())
            for state, seed in zip(states, seeds)]


def per_state_route(states, spec, **kwargs):
    """`stacks_of_one` with every shifted Cholesky failing (GRAM_MIN_RATIO = 1
    shifts each Gram past its largest eigenvalue), so that each verdict
    comes from the exact SVD: the reference the stack must match."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify_module, "GRAM_MIN_RATIO", 1.0)
        return stacks_of_one(states, spec, **kwargs)


def ladder_state():
    """sum_i c_i |i>_AB |i>_CD in product bases with distinct c_i: a
    generic spectrum, yet the phases of {0,1,4,5} and {2,3,6,7} are free,
    so its Gram is singular and its shifted Cholesky fails."""
    rng = np.random.default_rng(5)
    coeffs = np.sqrt(np.arange(1, 9) / 36.0) * np.exp(2j * np.pi * rng.random(8))
    return PureState(STRUCTURE, np.diag(coeffs).ravel())


def with_coefficients(coeffs, seed):
    """U diag(coeffs) V^T across AB|CD with Haar-like unitaries U, V."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((8, 8))
                         + 1j * rng.standard_normal((8, 8)))[0]
            for _ in range(2))
    coeffs = np.asarray(coeffs, dtype=float) / np.linalg.norm(coeffs)
    return PureState(STRUCTURE, ((u * coeffs) @ v.T).ravel())


def mixed_batch():
    """Haar states with the special cases spread among them, as
    (name, state) pairs."""
    half = PartyStructure.uniform(3, 2)
    spread = np.linspace(1.0, 0.3, 8)
    near = spread.copy()
    near[3] = math.sqrt(near[2] ** 2 - 1e-10)  # squared gap below gap_tol
    specials = [
        ("lopsided-ghz", ghz_state(6, 2, 0.6, 0.8)),
        ("maximally-entangled",
         PureState(STRUCTURE, np.eye(8).ravel().astype(complex) / math.sqrt(8))),
        ("product-AB|CD",
         PureState(STRUCTURE, np.kron(sample_haar_state(half, 1).amplitudes,
                                      sample_haar_state(half, 2).amplitudes))),
        ("cholesky-fails", ladder_state()),
        ("rank-deficient-by-one", with_coefficients(np.append(spread[:7], 0.0), 9)),
        ("near-degenerate", with_coefficients(near, 9)),
    ]
    batch = [(f"haar-{seed}", sample_haar_state(STRUCTURE, 300 + seed))
             for seed in range(10)]
    for slot, special in zip((1, 4, 6, 8, 11, 14), specials):
        batch.insert(slot, special)
    return batch


def assert_same_verdict(got, want):
    assert got.status == want.status
    assert got.null_dim == want.null_dim
    assert got.genericity == want.genericity
    assert got.equation_counts == want.equation_counts
    assert got.notes == want.notes
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.structure == want.witness.structure
        np.testing.assert_array_equal(got.witness.amplitudes,
                                      want.witness.amplitudes)
    assert got.witness_deck_distance == want.witness_deck_distance
    assert got.witness_fidelity == want.witness_fidelity


class TestDifferential:
    def test_mixed_batch_matches_per_state_route(self, monkeypatch):
        names, states = zip(*mixed_batch())
        seeds = range(40, 40 + len(states))
        want = per_state_route(states, SPEC, seeds=seeds, tol=TOL)
        name_of = {id(state): name for name, state in zip(names, states)}
        per_state, factorized = [], []
        real_exact, real_factorizes = (certify_module._exact_verdict,
                                       certify_module._factorizes)

        def spy_exact(state, *args):
            per_state.append(name_of[id(state)])
            return real_exact(state, *args)

        def spy_factorizes(mats):
            factorized.append(mats.ndim)
            return real_factorizes(mats)

        monkeypatch.setattr(certify_module, "_exact_verdict", spy_exact)
        monkeypatch.setattr(certify_module, "_factorizes", spy_factorizes)
        got = _certify_stack(states, SPEC, seeds=seeds, tol=TOL)
        assert len(got) == len(want)
        for verdict, expected in zip(got, want):
            assert_same_verdict(verdict, expected)
        # every path is taken: witnesses, tied or rank-deficient spectra and
        # a failed Cholesky leave the stack; the Haar states and the
        # full-rank, untied near-degenerate one stay in it
        statuses = {name: v.status for name, v in zip(names, got)}
        assert statuses["lopsided-ghz"] == UdpStatus.NOT_UDP_WITNESSED
        assert statuses["cholesky-fails"] == UdpStatus.NOT_UDP_WITNESSED
        for name in ("product-AB|CD", "rank-deficient-by-one",
                     "near-degenerate"):
            assert statuses[name] == UdpStatus.INCONCLUSIVE
        assert not got[names.index("maximally-entangled")].genericity.generic
        assert sorted(per_state) == sorted(
            n for n in names
            if not n.startswith("haar") and n != "near-degenerate")
        # the kernel reads the 16 states as stacks of 15 and 1, each
        # factorized once: the first keeps 11 items, and the one whose
        # Cholesky fails leaves it while the other 10 pass; the exact
        # verdicts of the items that leave a stack run no Cholesky
        assert _stack_size(STRUCTURE, SPEC) == 15
        assert factorized == [3, 3]

    def test_partial_last_stack_matches_per_state_route(self, monkeypatch):
        batch = [state for _, state in mixed_batch()]
        assert len(batch) % _stack_size(STRUCTURE, SPEC) != 0
        monkeypatch.setattr(experiments_module, "sample_haar_state",
                            lambda structure, seed: batch[seed - 900])
        config = ExperimentConfig(6, 2, trials=len(batch), seed=900,
                                  blocks=SPEC)
        stacked = run_experiment(config, verbose=False)
        monkeypatch.setattr(experiments_module, "_certify_stack",
                            per_state_route)
        reference = run_experiment(config, verbose=False)
        assert (stacked.to_json(include_timing=False)
                == reference.to_json(include_timing=False))
        assert stacked.counts["certified"] == 10

    def test_tied_coefficients_leave_the_stack(self, monkeypatch):
        # two coefficients 1e-13 apart: inside the tie-break window, yet
        # distinct under a tiny gap_tol, so only the window sends the item
        # to `_exact_verdict`, whose tie-break fixes the order of the pairs
        coeffs = np.linspace(1.0, 0.3, 8)
        coeffs[3] = coeffs[2] * (1 - 1e-13)
        tied = with_coefficients(coeffs, 8)
        states = [sample_haar_state(STRUCTURE, 7), tied]
        tol = Tolerances(svd_tol=1e-9, deck_tol=1e-9, gap_tol=1e-30)
        want = per_state_route(states, SPEC, seeds=(1, 2), tol=tol)
        per_state = []
        real_exact = certify_module._exact_verdict
        monkeypatch.setattr(certify_module, "_exact_verdict",
                            lambda state, *a: per_state.append(state)
                            or real_exact(state, *a))
        got = _certify_stack(states, SPEC, seeds=(1, 2), tol=tol)
        assert per_state == [tied]
        assert got[1].status == UdpStatus.CERTIFIED_UDP
        for verdict, expected in zip(got, want):
            assert_same_verdict(verdict, expected)

    @pytest.mark.parametrize("n, d, blocks", [
        (2, 3, "A=1;B=;C=;D=2"), (4, 2, "A=1;B=;C=;D=2,3,4")],
        ids=["2qt", "4q"])
    def test_stacks_the_gram_cannot_decide(self, monkeypatch, n, d, blocks):
        # zero-equation systems: the Gram decides nothing, so every trial
        # leaves the stack for `_exact_verdict`, which finds its witness
        structure = PartyStructure.uniform(n, d)
        spec = CrossCutSpec.parse(blocks, n)
        assert _stack_size(structure, spec) > 1
        seeds = range(60, 72)
        states = [sample_haar_state(structure, seed) for seed in seeds]
        got = _certify_stack(states, spec, seeds=seeds, tol=TOL)
        want = per_state_route(states, spec, seeds=seeds, tol=TOL)
        for verdict, expected in zip(got, want, strict=True):
            assert verdict.status == UdpStatus.NOT_UDP_WITNESSED
            assert verdict.equation_counts["complex_equations"] == 0
            assert_same_verdict(verdict, expected)
        config = ExperimentConfig(n, d, trials=12, seed=60, blocks=spec)
        stacked = run_experiment(config, verbose=False)
        monkeypatch.setattr(experiments_module, "_certify_stack",
                            per_state_route)
        reference = run_experiment(config, verbose=False)
        assert stacked.counts["witnessed"] == 12
        assert (stacked.to_json(include_timing=False)
                == reference.to_json(include_timing=False))

    def test_one_check_per_call(self, monkeypatch):
        # 200 four-qutrit trials are 19 stacks of at most 11, read by one
        # kernel call: the default family and its uncovered cuts are
        # worked out once, not once per stack
        spec = CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4)
        calls = {"_uncovered_cuts": 0, "_schmidt_factors": 0,
                 "verification_family": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, spy)

        counted(certify_module, "_uncovered_cuts")
        counted(certify_module, "_schmidt_factors")
        counted(CrossCutSpec, "verification_family")
        run_experiment(ExperimentConfig(4, 3, trials=200, seed=5, blocks=spec),
                       verbose=False)
        assert _stack_size(PartyStructure.uniform(4, 3), spec) == 11
        assert calls == {"_uncovered_cuts": 1, "_schmidt_factors": 19,
                         "verification_family": 1}

    def test_identity_violation_raises_the_same_error(self, monkeypatch):
        monkeypatch.setattr(certify_module, "TRACE_IDENTITY_TOL", -1.0)
        states = [sample_haar_state(STRUCTURE, seed) for seed in range(3)]
        with pytest.raises(ValueError) as per_state:
            certify_udp(states[0], SPEC)
        with pytest.raises(ValueError) as stacked:
            _certify_stack(states, SPEC, seeds=range(3), tol=TOL)
        assert str(stacked.value) == str(per_state.value) == \
            "trace identity violated for Q blocks"


# sha256 of `run_experiment(...).to_json(include_timing=False)`, recorded
# with one `certify_udp` call per trial, before trials were stacked (numpy
# 2.4 with its OpenBLAS, x86-64); min_spectral_gap is printed to the last
# digit, so a LAPACK build that rounds the Schmidt SVD differently changes
# the digests without any change here
GOLDEN = [
    (6, 2, "A=1,2;B=3;C=4;D=5,6", 200, 2026,
     "694c11f3fdeefeac2e5b93dcae2050f2539d1696b553325eb21979b73c5a718c"),
    (4, 3, "A=1;B=2;C=3;D=4", 200, 2027,
     "7955ac3da4b1b67710a2edf485c06d917aa416dd2224fc4549796da3273478f6"),
    (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8", 20, 2028,
     "05de329b9c5d2dc87a23da055314ba2c2eb000a018aef52c20c871b64823baae"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, d, blocks, trials, seed, digest", GOLDEN,
                         ids=["6q", "4qt", "8q"])
class TestGoldenReports:
    def test_report(self, n, d, blocks, trials, seed, digest):
        config = ExperimentConfig(n, d, trials=trials, seed=seed,
                                  blocks=CrossCutSpec.parse(blocks, n))
        report = run_experiment(config, verbose=False)
        assert sha256(report.to_json(include_timing=False)) == digest

    def test_cli_json(self, capsys, n, d, blocks, trials, seed, digest):
        assert main(["experiment", "--n", str(n), "--d", str(d),
                     "--trials", str(trials), "--seed", str(seed),
                     "--blocks", blocks, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        del data["timing"]
        assert sha256(json.dumps(data, indent=2, sort_keys=True)) == digest


class TestMemory:
    def test_stack_size_from_dimensions_alone(self):
        spec = CrossCutSpec.parse("A=1,2,3;B=4,5,6;C=7,8,9;D=10,11,12", 12)
        structure = PartyStructure.uniform(12, 2)
        tracemalloc.start()
        try:
            size = _stack_size(structure, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == 1
        assert peak < 16 * 1024  # no array of the 8 GiB-class Gram stage
        assert _stack_size(STRUCTURE, SPEC) > 1

    def test_stacked_peak_within_budget(self, monkeypatch):
        config = ExperimentConfig(4, 3, trials=200, seed=5,
                                  blocks=CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4))

        def traced_peak():
            run_experiment(config, verbose=False)  # warm caches first
            tracemalloc.start()
            try:
                run_experiment(config, verbose=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stacked = traced_peak()
        monkeypatch.setattr(experiments_module, "_certify_stack",
                            stacks_of_one)
        per_state = traced_peak()
        assert stacked <= per_state + certify_module._STACK_BYTES
