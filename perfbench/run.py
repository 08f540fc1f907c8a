#!/usr/bin/env python3
"""Benchmark of the puredeck certify / witness / deck pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload haar-large --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25
    python3 perfbench/run.py --self-test

The package is imported from ``src/`` next to this directory, never from an
installed copy.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are measured with no tracing; with ``--trace 1`` every pass runs once
untraced and once traced, and the per-layer metrics come from the traced
spans.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads and what each per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 7
CLI_CALLS = 5


def pin_blas_threads() -> int:
    """Run BLAS on one thread; returns the number of usable cores.

    With two OpenBLAS threads on a 2-core VM, small-problem timings spread
    8-18% (quartile distance over median) against about 2% on one thread, and
    ran slower.  Must run before numpy is imported, which reads these
    variables once.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"nproc": nproc, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "physical_mb": physical_bytes() / 2 ** 20}


def physical_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def timed_child(args: list[str]) -> float:
    """Wall seconds of a cold child interpreter running `args`."""
    started = time.perf_counter()
    subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - started


@dataclass
class Tally:
    latencies: list = field(default_factory=list)   # seconds, every op
    scaled: list = field(default_factory=list)      # at reference speed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    passes: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_op(op, reference, tally: Tally, tracer=None, calibrator=None) -> None:
    """Time one operation, then check it outside the timed region."""
    from workloads import check
    tally.attempted += 1
    started = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, exc
    else:
        error = None
    elapsed = time.perf_counter() - started
    tally.latencies.append(elapsed)
    if calibrator is not None:
        tally.scaled.append(calibrator.scale(elapsed))
    if error is not None:
        tally.failed += 1
        tally.problems.append(f"{op.kind}: raised {error!r}")
        return
    with tracer.paused() if tracer else nullcontext():
        problems = check(op, result, reference.get(op.kind))
    if problems:
        tally.failed += 1
        tally.problems += problems


def run_pass(workload, seed, index, reference, tally: Tally,
             tracer=None, calibrator=None) -> None:
    with tracer.paused() if tracer else nullcontext():
        ops = workload.passes(seed, index)
    for op in ops:
        if tracer is not None:
            tracer.op = f"{index}:{op.kind}"
        run_op(op, reference, tally, tracer, calibrator)
    tally.passes += 1


def run_passes(workload, seed, reference, seconds, calibrator) -> Tally:
    """Whole passes until `seconds` have elapsed, at least two.

    The allocator keeps part of the first pass's largest arrays, so peak
    memory reaches its plateau only in the second pass (haar-large: 642 MB
    after one pass, 736 MB after two, three and four).
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while tally.passes < 2 or time.perf_counter() < deadline:
        run_pass(workload, seed, tally.passes, reference, tally,
                 calibrator=calibrator)
    return tally


def run_traced_passes(workload, seed, reference, seconds, tracer,
                      calibrator):
    """Each pass twice, untraced and traced, alternating which goes first so
    that neither side always meets the warmer caches; at least two passes.
    Returns the (untraced, traced) tallies."""
    from layers import PACKAGE, TARGETS
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    while plain.passes < 2 or time.perf_counter() < deadline:
        index = plain.passes
        for with_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if with_tracer:
                with tracer.installed(TARGETS, PACKAGE):
                    run_pass(workload, seed, index, reference, traced, tracer,
                             calibrator)
            else:
                run_pass(workload, seed, index, reference, plain,
                         calibrator=calibrator)
    return plain, traced


def setup_once(workload, seed, reference, budget) -> tuple[float, Tally]:
    """Cold import, preflight, input generation and warm-up, as a fresh
    process pays them."""
    from workloads import preflight
    tally = Tally()
    started = time.perf_counter()
    timed_child(["-c", "import puredeck"])
    preflight(workload.footprint(), budget)
    workload.passes(seed, 0)
    for op in workload.warmup(seed):
        run_op(op, reference, tally)
    return time.perf_counter() - started, tally


def cli_metrics(seed, reference, tally: Tally) -> dict:
    """Cold command-line verdicts on a stored 6-qubit state, and cold
    imports of the command-line module."""
    from workloads import cli_op, write_cli_state
    state = WORK / f"cli-state-{os.getpid()}.json"
    write_cli_state(state, seed)
    try:
        op = cli_op(sys.executable, state, child_env(), ROOT)
        start = len(tally.latencies)
        for _ in range(CLI_CALLS):
            run_op(op, reference, tally)
        cold = tally.latencies[start:]
    finally:
        state.unlink()
    imports = [timed_child(["-c", "import puredeck.cli"])
               for _ in range(CLI_CALLS)]
    return {"cli.cold_ms": 1000.0 * statistics.median(cold),
            "cli.import_ms": 1000.0 * statistics.median(imports)}


def measure(workload, seed, seconds, trace: bool, reference, budget):
    """Returns (metrics, tally): end-to-end metrics, or per-layer with trace."""
    from calibrate import REFERENCE_S, Calibrator
    from layers import layer_metrics
    from tracer import Tracer

    WORK.mkdir(exist_ok=True)
    total = Tally()
    calibrator = Calibrator()
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, tally = setup_once(workload, seed, reference, budget)
        setups.append(calibrator.scale(elapsed))
        total.add(tally)
    if not trace:
        loop = run_passes(workload, seed, reference, seconds, calibrator)
        total.add(loop)
        ok = loop.attempted - loop.failed
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok / sum(loop.scaled),
            "op_p50_ms": 1000.0 * statistics.median(loop.scaled),
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"unscaled: ops_per_s {ok / sum(loop.latencies):.6g} 1/s, "
              f"op_p50_ms {1000.0 * statistics.median(loop.latencies):.6g} "
              f"ms; calibration block median "
              f"{1000.0 * statistics.median(calibrator.blocks):.6g} ms "
              f"(reference {1000.0 * REFERENCE_S:g} ms); "
              f"{loop.passes} passes")
    else:
        problems = self_test()
        total.problems += problems
        total.failed += bool(problems)
        tracer = Tracer()
        plain, traced = run_traced_passes(workload, seed, reference, seconds,
                                          tracer, calibrator)
        total.add(plain)
        total.add(traced)
        metrics = layer_metrics(tracer, traced.passes, sum(traced.latencies))
        metrics["trace.overhead_frac"] = (sum(traced.scaled)
                                          / sum(plain.scaled) - 1)
        metrics.update(cli_metrics(seed, reference, total))
        tracer.write_spans(WORK / f"spans-{workload.name}-{seed}.json")
    rss = peak_rss_mb()
    if rss * 2 ** 20 > budget:
        total.problems.append(f"peak RSS {rss:.0f} MB over the preflight "
                              f"budget {budget / 2**20:.0f} MB")
    return metrics, total


def self_test() -> list[str]:
    """Tracer and preflight checks; returns the problems found.

    Wrapped calls must return what unwrapped calls return, calls made through
    by-name imports must be seen, self times must sum to the top-level span
    total, and the originals must be restored.  The preflight must refuse a
    10-qutrit strength-3 array witness (two complete 7-decks, about 18 GB)
    from its dimensions alone.
    """
    import numpy as np
    import puredeck as pd
    from layers import PACKAGE, TARGETS
    from tracer import Tracer
    from workloads import array_witness_bytes, budget_bytes, preflight

    problems = []
    spec = pd.CrossCutSpec.parse("A=1,2;B=3;C=4;D=5,6", 6)
    state = pd.sample_haar_state(pd.PartyStructure.uniform(6, 2), 11)
    ghz = pd.ghz_state(6, 2, 0.6, 0.8)
    family = pd.MarginalFamily.complete(6, 3)

    def work():
        return (pd.certify_udp(state, spec), pd.certify_udp(ghz, spec, family),
                pd.compute_deck(state, family))

    originals = {n: getattr(sys.modules[m], a) for n, (m, a, _) in TARGETS.items()}
    plain = work()
    tracer = Tracer()
    with tracer.installed(TARGETS, PACKAGE):
        traced = work()
    for a, b in zip(plain[:2], traced[:2]):
        if (a.status, a.null_dim, a.equation_counts, a.witness_fidelity) != \
                (b.status, b.null_dim, b.equation_counts, b.witness_fidelity):
            problems.append("self-test: traced verdict differs")
    if plain[1].witness is None or traced[1].witness is None or not \
            np.array_equal(plain[1].witness.amplitudes,
                           traced[1].witness.amplitudes):
        problems.append("self-test: traced witness differs")
    if not all(np.array_equal(x.matrix, y.matrix)
               for x, y in zip(plain[2].marginals, traced[2].marginals)):
        problems.append("self-test: traced deck differs")
    _, calls = tracer.by_name()
    for name in ("certify.null_space", "schmidt.decompose",
                 "schmidt.phase_twist", "marginals.partial_trace"):
        if calls[name] == 0:
            problems.append(f"self-test: no {name} span recorded")
    drift = abs(sum(tracer.self_times()) - tracer.root_total())
    if drift > 1e-9:
        problems.append(f"self-test: self times miss the span total by {drift}")
    if any(getattr(sys.modules[m], a) is not originals[n]
           for n, (m, a, _) in TARGETS.items()):
        problems.append("self-test: wrapped functions were not restored")
    try:
        preflight([("oa 10x3 k=3", array_witness_bytes(10, 3, 3))],
                  budget_bytes(physical_bytes()))
        problems.append("self-test: preflight admitted a 10-qutrit k=3 witness")
    except MemoryError:
        pass
    return problems


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> int:
    """Each workload in its own process; prints one table of all metrics."""
    spec = load_spec()
    results = {}
    for item in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", item["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results[item["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"== {name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} failed_frac="
              f"{result['failed'] / result['attempted']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "puredeck" / "__init__.py").is_file():
        print(f"error: no puredeck sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import puredeck
    import puredeck.cli  # noqa: F401  (byte-compiled before the cold CLI calls)
    if Path(puredeck.__file__).resolve().parent != SRC / "puredeck":
        print(f"error: imported puredeck from {puredeck.__file__}",
              file=sys.stderr)
        return 2

    if args.self_test:
        problems = self_test()
        print("\n".join(problems) or "self-test passed")
        return 1 if problems else 0
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS, budget_bytes, preflight
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    budget = budget_bytes(physical_bytes())
    try:
        preflight(workload.footprint(), budget)
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(machine_facts(nproc)))
    metrics, tally = measure(workload, args.seed, args.seconds,
                             bool(args.trace), reference, budget)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
