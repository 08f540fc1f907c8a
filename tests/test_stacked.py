"""The stacked certification kernel behind `certify_udp` and
`run_experiment` against the exact SVD on each state: verdicts field by
field, whole reports, and memory."""

import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

import puredeck.certify as certify_module
import puredeck.experiments as experiments_module
from puredeck import (CrossCutSpec, ExperimentConfig, PartyStructure, PureState,
                      Tolerances, UdpStatus, certify_udp, ghz_state,
                      run_experiment, sample_haar_state)
from puredeck.certify import _certify_stack, _stack_size
from puredeck.cli import main

from digests import report_digest

SPEC = CrossCutSpec.parse("A=1,2;B=3;C=4;D=5,6", 6)
STRUCTURE = PartyStructure.uniform(6, 2)
TOL = Tolerances(svd_tol=1e-9, deck_tol=1e-9, gap_tol=1e-8)


def stacks_of_one(states, spec, *, seeds, tol):
    """One `certify_udp` call, a stack of one, per state."""
    return [certify_udp(state, spec, seed=seed, **asdict(tol))
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


def without_timing(report):
    """A report's JSON document less its wall-clock `timing` field."""
    data = report.to_json_dict()
    del data["timing"]
    return data


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
            factorized.append((mats.dtype.char, len(mats)))
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
        # the kernel reads the 16 states as stacks of 15 and 1: the first
        # keeps 11 items, whose float32 Cholesky passes 10; the float64 one
        # gets only the item float32 left, fails it too, and the item leaves
        # the stack; the second stack's item passes in float32; the exact
        # verdicts of the items that leave a stack run no Cholesky
        assert _stack_size(STRUCTURE, SPEC) == 15
        assert factorized == [("f", 11), ("d", 1), ("f", 1)]

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
        assert without_timing(stacked) == without_timing(reference)
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
        assert without_timing(stacked) == without_timing(reference)

    @pytest.mark.parametrize("n, d, blocks", [
        (2, 3, "A=1;B=;C=;D=2"), (4, 2, "A=1;B=;C=;D=2,3,4")],
        ids=["2qt", "4q"])
    def test_wide_stack_gathers_no_factors(self, monkeypatch, n, d, blocks):
        # the system's size comes from the dimensions before any factor
        # exists, so a wide stack gathers no overlap operators: only each
        # item's exact verdict does, through `build_cross_matrices`
        structure = PartyStructure.uniform(n, d)
        spec = CrossCutSpec.parse(blocks, n)
        seeds = range(60, 66)
        states = [sample_haar_state(structure, seed) for seed in seeds]
        want = per_state_route(states, spec, seeds=seeds, tol=TOL)
        callers, real = [], certify_module._cross_matrices

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(certify_module, "_cross_matrices", spy)
        got = _certify_stack(states, spec, seeds=seeds, tol=TOL)
        assert callers == ["build_cross_matrices"] * len(states)
        for verdict, expected in zip(got, want, strict=True):
            assert_same_verdict(verdict, expected)

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
            "Schmidt rows on AB are not orthonormal"


# `digests.report_digest` of the experiment report's JSON, timing left out:
# statuses, counts, ranks, null dims and equation counts exactly, floats such
# as min_spectral_gap to 10 significant digits.  The verdicts are those one
# `certify_udp` call per trial gave before trials were stacked; the digests
# are the same under OpenBLAS's SkylakeX, Haswell, Sandybridge and Prescott
# kernels, which round the Schmidt SVD's last digits differently
GOLDEN = [
    (6, 2, "A=1,2;B=3;C=4;D=5,6", 200, 2026,
     "35f41b3228c9f8dba09b8c5f2254b41f5259738a0458daa57c94000a847c52ad"),
    (4, 3, "A=1;B=2;C=3;D=4", 200, 2027,
     "b56616afb446f94035a3dd1e86803ce9b8ed6da829bfb2dd62c2d79f8961ae7a"),
    (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8", 20, 2028,
     "31976d6d9e209c8482aed6b3cdf5d32ed73d88656d39b58ed9c6473f01d3e44b"),
]


@pytest.mark.parametrize("n, d, blocks, trials, seed, digest", GOLDEN,
                         ids=["6q", "4qt", "8q"])
class TestGoldenReports:
    def test_report(self, n, d, blocks, trials, seed, digest):
        config = ExperimentConfig(n, d, trials=trials, seed=seed,
                                  blocks=CrossCutSpec.parse(blocks, n))
        report = run_experiment(config, verbose=False)
        assert report_digest(json.dumps(without_timing(report))) == digest

    def test_cli_json(self, capsys, n, d, blocks, trials, seed, digest):
        assert main(["experiment", "--n", str(n), "--d", str(d),
                     "--trials", str(trials), "--seed", str(seed),
                     "--blocks", blocks, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        del data["timing"]
        assert report_digest(json.dumps(data)) == digest


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


TEN_QUBITS = (PartyStructure.uniform(10, 2),
              CrossCutSpec.parse("A=1,2;B=3,4,5;C=6,7;D=8,9,10", 10))
TEN_QUBIT_GRAM = 992 * 992  # entries of its real Gram, 2 C(32, 2) squared


def lent_buffer():
    """The buffer `certify._lent` holds for the calling thread, or None."""
    return getattr(certify_module._LENT, "buffer", None)


def spy_on_gram_buffers(monkeypatch):
    """(factor precision, `out`) of every `_upper_gram` call, in order."""
    calls, real = [], certify_module._upper_gram
    monkeypatch.setattr(certify_module, "_upper_gram", lambda factors, out: (
        calls.append((factors[0].outer_u.dtype.char, out))
        or real(factors, out)))
    return calls


class TestLentBuffer:
    """A rung of a lone trial whose overlap products or Gram alone take more
    than _STACK_BYTES borrows its thread's buffer (`certify._lent`, at most
    _LENT_BYTES), which outlives the verdict; every other rung, the exact
    path and the public stage functions allocate as before."""

    def test_second_verdict_factors_in_the_held_buffer(self, monkeypatch):
        structure, spec = TEN_QUBITS
        entries, real = [], certify_module._factorizes

        def spy(gram):
            entries.append((gram.dtype.char,
                            np.may_share_memory(gram, lent_buffer()),
                            tracemalloc.get_traced_memory()[0]))
            return real(gram)

        monkeypatch.setattr(certify_module, "_factorizes", spy)
        certify_udp(sample_haar_state(structure, 1), spec)
        state = sample_haar_state(structure, 2)
        entries.clear()
        tracemalloc.start()
        try:
            verdict = certify_udp(state, spec)
        finally:
            tracemalloc.stop()
        assert verdict.status == UdpStatus.CERTIFIED_UDP
        # the 3.9 MB float32 Gram lies in the buffer the first call left
        [(char, shared, held)] = entries
        assert (char, shared) == ("f", True)
        assert held <= 128 * 1024

    def test_factors_never_share_the_buffer(self, monkeypatch):
        # the products fill the buffer, the factors are gathered from them
        # onto the heap, and the Gram then goes over the products
        structure, spec = TEN_QUBITS
        seen, real_factors = [], certify_module._gamma_factors

        def spy_factors(matrices):
            seen.append(("products", all(
                np.may_share_memory(block, lent_buffer())
                for block in (matrices.q, matrices.l, matrices.p,
                              matrices.m))))
            factors = real_factors(matrices)
            seen.append(("factors", any(
                np.may_share_memory(f, lent_buffer())
                for source in factors for f in source)))
            return factors

        monkeypatch.setattr(certify_module, "_gamma_factors", spy_factors)
        grams = spy_on_gram_buffers(monkeypatch)
        verdict = certify_udp(sample_haar_state(structure, 3), spec)
        assert verdict.status == UdpStatus.CERTIFIED_UDP
        assert seen == [("products", True), ("factors", False)]
        [(char, out)] = grams
        assert char == "F" and out is lent_buffer()
        assert out.nbytes >= 4 * TEN_QUBIT_GRAM

    @pytest.mark.parametrize("n, d, blocks, trials", [
        (6, 2, "A=1,2;B=3;C=4;D=5,6", 15),
        (4, 3, "A=1;B=2;C=3;D=4", 11),
        (8, 2, "A=1,2;B=3,4;C=5,6;D=7,8", 2),
        (10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10", 1),
    ])
    def test_other_rungs_borrow_nothing(self, monkeypatch, n, d, blocks,
                                        trials):
        # haar-batch's stacks, whose Grams fit _STACK_BYTES, and a 10-qubit
        # Gram over a cap lowered to 1 MiB allocate their products and
        # Grams as before
        structure, spec = (PartyStructure.uniform(n, d),
                           CrossCutSpec.parse(blocks, n))
        if n == 10:
            monkeypatch.setattr(certify_module, "_LENT_BYTES", 1 << 20)
        lent, real = [], certify_module._lent
        monkeypatch.setattr(certify_module, "_lent",
                            lambda nbytes: lent.append(nbytes) or real(nbytes))
        grams, real_gram = [], certify_module._upper_gram

        def spy_gram(factors, out):
            grams.append((out, (gram := real_gram(factors, out)).nbytes))
            return gram

        monkeypatch.setattr(certify_module, "_upper_gram", spy_gram)
        states = [sample_haar_state(structure, seed) for seed in range(trials)]
        verdicts = _certify_stack(states, spec, seeds=range(trials), tol=TOL)
        assert [v.status for v in verdicts] == [UdpStatus.CERTIFIED_UDP] * trials
        assert lent == [] and grams
        assert all(out is None for out, _ in grams)
        fits = [nbytes <= certify_module._STACK_BYTES for _, nbytes in grams]
        assert all(fits) == (n != 10)

    def test_float64_rung_regrows_the_buffer(self, monkeypatch):
        # a float32 coefficient just under 1/n: that rung is tried and
        # cannot pass, so float64 decides the 10-qubit item, in a buffer
        # regrown to its 7.9 MB Gram in a thread that held none before
        structure, spec = TEN_QUBITS
        state = sample_haar_state(structure, 4)
        real = certify_module._shift_coefficient
        monkeypatch.setattr(
            certify_module, "_shift_coefficient",
            lambda n, rows, dtype: 0.999 / n if np.finfo(dtype).bits == 32
            else real(n, rows, dtype))
        grams = spy_on_gram_buffers(monkeypatch)
        with ThreadPoolExecutor(1) as pool:
            verdict, held = pool.submit(
                lambda: (certify_udp(state, spec), lent_buffer())).result(
                    timeout=120)
        [(low, first), (high, second)] = grams
        assert low + high == "FD"
        assert first.nbytes == 4 * TEN_QUBIT_GRAM
        assert second.nbytes == 8 * TEN_QUBIT_GRAM and held is second
        assert verdict.status == UdpStatus.CERTIFIED_UDP
        # the verdict of the same item with nothing lent
        monkeypatch.setattr(certify_module, "_LENT_BYTES", 0)
        grams.clear()
        assert certify_udp(state, spec) == verdict
        assert [out for _, out in grams] == [None, None]

    def test_threads_certify_as_serial_calls_do(self, monkeypatch):
        # three threads on two cores, each certifying its own 10-qubit
        # state three times with a short switch interval, each in a buffer
        # of its own
        structure, spec = TEN_QUBITS
        states = [sample_haar_state(structure, seed) for seed in (5, 6, 7)]
        serial = [certify_udp(state, spec) for state in states]
        owners, lock = {}, threading.Lock()
        real_gram = certify_module._upper_gram

        def spy_gram(factors, out):
            with lock:
                owners.setdefault(threading.get_ident(), set()).add(
                    out.ctypes.data)
            return real_gram(factors, out)

        monkeypatch.setattr(certify_module, "_upper_gram", spy_gram)
        barrier = threading.Barrier(len(states), timeout=60)

        def certify_thrice(state):
            barrier.wait()
            return [certify_udp(state, spec) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(states)) as pool:
                futures = [pool.submit(certify_thrice, state)
                           for state in states]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[verdict] * 3 for verdict in serial]
        assert len(owners) == len(states)
        assert all(len(addresses) == 1 for addresses in owners.values())
        assert len(set.union(*owners.values())) == len(states)
