"""The benchmark's workloads: inputs, operations, reference checks, preflight.

Every workload is a closed loop with one caller: passes over a fixed list of
operations, one operation at a time.  The inputs of pass `p` are drawn from
``(seed, p)`` only, so the same seed gives the same inputs.  Each operation
is checked against `reference.json` (recorded at the commit that added the
benchmark, by `record_reference.py`), and every twin state it returns is
re-checked independently: same deck on the operation's family, and fidelity
below ``1 - DISTINCT_TOL``.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable

import numpy as np

import puredeck as pd
from puredeck.arrays import OA_9_4_3_2
from puredeck.certify import DISTINCT_TOL

# Dense estimates count the phase system, the U factor of its full SVD and
# two decks; LAPACK workspace and complex intermediates come on top, so a
# run is refused unless HEADROOM times the estimate fits the budget.
HEADROOM = 3
BUDGET_CAP = 2 * 1024 ** 3

CLI_BLOCKS = "A=1,2;B=3;C=4;D=5,6"


@dataclass(frozen=True)
class Op:
    """One top-level operation: `call` is timed, the rest is checking."""

    kind: str
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    twins: Callable[[Any], list] = field(default=lambda result: [])


@dataclass(frozen=True)
class Workload:
    name: str
    passes: Callable[[int, int], list[Op]]   # (seed, pass index) -> ops
    warmup: Callable[[int], list[Op]]
    footprint: Callable[[], list[tuple[str, int]]]  # (label, dense bytes)


def check(op: Op, result, expected) -> list[str]:
    """Problems of one operation's result; an empty list means it passed."""
    problems = []
    observed = json.loads(json.dumps(op.observe(result)))
    if observed != expected:
        problems.append(f"{op.kind}: observed {observed}, reference {expected}")
    for state, twin, family in op.twins(result):
        if not pd.decks_equal(pd.compute_deck(state, family),
                              pd.compute_deck(twin, family)):
            problems.append(f"{op.kind}: twin does not share the deck")
        if pd.fidelity_up_to_phase(state, twin) >= 1.0 - DISTINCT_TOL:
            problems.append(f"{op.kind}: twin is not distinct from the input")
    return problems


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for one input; keys (0, pass, slot) feed passes, (1, slot)
    warm-up and (2,) the stored command-line state."""
    return np.random.default_rng([seed, *key])


def _verdict_facts(verdict) -> dict:
    return {"status": verdict.status.value, "null_dim": verdict.null_dim,
            "equation_counts": dict(verdict.equation_counts),
            "rank": verdict.genericity.rank}


def _report_facts(report) -> dict:
    keys = ("status", "rank", "null_dim", "complex_equations",
            "complex_variables")
    distinct = sorted({tuple(t[k] for k in keys) for t in report.trials})
    return {"counts": dict(report.counts),
            "trials": [dict(zip(keys, row)) for row in distinct]}


# ---------------------------------------------------------------------------
# Dense-memory estimates from dimensions alone (nothing is allocated).
# ---------------------------------------------------------------------------

def deck_bytes(structure, family) -> int:
    return sum(16 * structure.subset_dim(s) ** 2 for s in family.subsets)


def certify_bytes(structure, spec, family=None) -> int:
    """Phase system, full U of its SVD and two witness decks, at full rank."""
    da, db, dc, dd = spec.block_dims(structure)
    rank = min(da * db, dc * dd)
    cols = rank * (rank - 1)
    rows = 2 * (math.comb(da, 2) * (dc * dc - 1)
                + math.comb(db, 2) * (dd * dd - 1))
    family = family or spec.verification_family()
    return 8 * rows * cols + 8 * rows * rows + 2 * deck_bytes(structure, family)


def array_witness_bytes(num_cols: int, levels: int, strength: int) -> int:
    """Both complete (N-k)-decks that `non_udp_witness` holds."""
    structure = pd.PartyStructure.uniform(num_cols, levels)
    family = pd.MarginalFamily.complete(num_cols, num_cols - strength)
    return 2 * deck_bytes(structure, family)


def budget_bytes(physical: int) -> int:
    """Preflight budget: a quarter of physical memory, at most 2 GiB."""
    return min(physical // 4, BUDGET_CAP)


def preflight(footprint: list[tuple[str, int]], budget: int) -> None:
    for label, nbytes in footprint:
        if HEADROOM * nbytes > budget:
            raise MemoryError(
                f"{label} needs about {nbytes / 2**20:.0f} MiB dense "
                f"(x{HEADROOM} headroom), over the {budget / 2**20:.0f} MiB "
                "budget; refusing to start")


# ---------------------------------------------------------------------------
# haar-large: single verdicts on large Haar states (null-space SVD bound).
# ---------------------------------------------------------------------------

def _certify_op(kind, n, d, blocks, rng) -> Op:
    spec = pd.CrossCutSpec.parse(blocks, n)
    state = pd.sample_haar_state(pd.PartyStructure.uniform(n, d), rng)
    return Op(kind, lambda: pd.certify_udp(state, spec), _verdict_facts)


_LARGE = (("haar-10q", 10, 2, "A=1,2;B=3,4,5;C=6,7;D=8,9,10"),
          ("haar-6qt", 6, 3, "A=1;B=2,3;C=4;D=5,6"))
# two 10-qubit verdicts per 6-qutrit one keep the median on the 10-qubit case
_LARGE_PASS = (_LARGE[0], _LARGE[0], _LARGE[1])


def _large_passes(seed, p):
    return [_certify_op(*case, _rng(seed, 0, p, slot))
            for slot, case in enumerate(_LARGE_PASS)]


def _large_warmup(seed):
    return [_certify_op("haar-6q", 6, 2, CLI_BLOCKS, _rng(seed, 1, 0))]


def _large_footprint():
    return [(f"certify_udp {kind}",
             certify_bytes(pd.PartyStructure.uniform(n, d),
                           pd.CrossCutSpec.parse(blocks, n)))
            for kind, n, d, blocks in _LARGE]


# ---------------------------------------------------------------------------
# haar-batch: run_experiment over many small states (per-call overhead).
# ---------------------------------------------------------------------------

_BATCH = (("exp-6q", 6, 2, CLI_BLOCKS, 200),
          ("exp-4qt", 4, 3, "A=1;B=2;C=3;D=4", 200),
          ("exp-8q", 8, 2, "A=1,2;B=3,4;C=5,6;D=7,8", 20))


def _experiment_op(kind, n, d, blocks, trials, rng) -> Op:
    config = pd.ExperimentConfig(n, d, trials=trials,
                                 seed=int(rng.integers(2 ** 31)),
                                 blocks=pd.CrossCutSpec.parse(blocks, n))
    return Op(kind, lambda: pd.run_experiment(config, verbose=False),
              _report_facts)


def _batch_passes(seed, p):
    return [_experiment_op(*case, _rng(seed, 0, p, slot))
            for slot, case in enumerate(_BATCH)]


def _batch_warmup(seed):
    return [_experiment_op("exp-6q-warm", 6, 2, CLI_BLOCKS, 5,
                           _rng(seed, 1, 0))]


def _batch_footprint():
    return [(f"run_experiment {kind}",
             certify_bytes(pd.PartyStructure.uniform(n, d),
                           pd.CrossCutSpec.parse(blocks, n)))
            for kind, n, d, blocks, _ in _BATCH]


# ---------------------------------------------------------------------------
# witness-decks: the NOT_UDP branches, each verified against whole decks.
# ---------------------------------------------------------------------------

_GHZ = {"ghz-4q": (4, "A=1;B=2;C=3;D=4"),
        "ghz-8q": (8, "A=1,2;B=3,4;C=5,6;D=7,8"),
        "ghz-10q": (10, "A=1,2;B=3,4,5;C=6,7;D=8,9,10")}
# two 10-qubit GHZ verdicts per pass keep the median on that case: with
# seven operations the median never straddles two kinds
_GHZ_PASS = ("ghz-8q", "ghz-10q", "ghz-10q")
# (kind, columns, levels, strength, greedy seed or None for OA_9_4_3_2)
_ARRAYS = (("pa-8-3-3", 8, 3, 3, 1), ("pa-10-2-3", 10, 2, 3, 0),
           ("oa-9-4-3-2", 4, 3, 2, None))
_CEX_PARTIES = 10


def _ghz_op(kind, rng) -> Op:
    n, blocks = _GHZ[kind]
    psi = pd.ghz_state(n, 2, 0.6, 0.8)
    spec = pd.CrossCutSpec.parse(blocks, n)
    family = pd.MarginalFamily.complete(n, n // 2)
    seed = int(rng.integers(2 ** 31))
    return Op(kind, lambda: pd.certify_udp(psi, spec, family, seed=seed),
              _verdict_facts,
              lambda v: [] if v.witness is None else [(psi, v.witness, family)])


def _array_op(kind, num_cols, levels, strength, greedy_seed, rng) -> Op:
    def build():
        if greedy_seed is None:
            return pd.OrthogonalArray.from_rows(OA_9_4_3_2, levels, strength)
        return pd.greedy_packing_array(num_cols, levels, strength,
                                       seed=greedy_seed)

    # moduli in [0.5, 1.5] and a single flipped row keep every twin distinct
    size = levels ** strength
    amps = rng.uniform(0.5, 1.5, size) * np.exp(2j * np.pi * rng.random(size))
    flip = int(rng.integers(2 ** 31))

    def call():
        array = build()
        rows = array.num_rows
        gstate = pd.qoa_state(array, amps[:rows])
        return gstate, pd.non_udp_witness(gstate, flip % rows)

    family = pd.MarginalFamily.complete(num_cols, num_cols - strength)
    return Op(kind, call,
              lambda r: {"rows": r[0].num_rows, "verified": r[1].verified},
              lambda r: [(r[0].state, r[1].witness, family)])


def _cex_family() -> pd.MarginalFamily:
    """Complete 3-decks of parties 1..5 and 6..10: a disconnected family."""
    half = _CEX_PARTIES // 2
    return pd.MarginalFamily(_CEX_PARTIES, tuple(
        combinations(range(1, half + 1), 3))
        + tuple(combinations(range(half + 1, _CEX_PARTIES + 1), 3)))


def _cex_op(rng) -> Op:
    state = pd.sample_haar_state(pd.PartyStructure.uniform(_CEX_PARTIES, 2),
                                 rng)
    family = _cex_family()
    seed = int(rng.integers(2 ** 31))
    return Op("cex-10q",
              lambda: pd.counterexample_from_disconnection(state, family,
                                                           seed=seed),
              lambda twin: {"found": twin is not None},
              lambda twin: [] if twin is None else [(state, twin, family)])


def _witness_passes(seed, p):
    ops = [_ghz_op(kind, _rng(seed, 0, p, i))
           for i, kind in enumerate(_GHZ_PASS)]
    ops += [_array_op(*case, _rng(seed, 0, p, 3 + i))
            for i, case in enumerate(_ARRAYS)]
    ops.append(_cex_op(_rng(seed, 0, p, 6)))
    return ops


def _witness_warmup(seed):
    return [_ghz_op("ghz-4q", _rng(seed, 1, 0)),
            _array_op(*_ARRAYS[2], _rng(seed, 1, 1)),
            _cex_op(_rng(seed, 1, 2))]


def _witness_footprint():
    out = []
    for kind, (n, blocks) in _GHZ.items():
        out.append((f"certify_udp {kind}",
                    certify_bytes(pd.PartyStructure.uniform(n, 2),
                                  pd.CrossCutSpec.parse(blocks, n),
                                  pd.MarginalFamily.complete(n, n // 2))))
    out += [(f"non_udp_witness {kind}", array_witness_bytes(n, d, k))
            for kind, n, d, k, _ in _ARRAYS]
    out.append(("counterexample cex-10q", 2 * deck_bytes(
        pd.PartyStructure.uniform(_CEX_PARTIES, 2), _cex_family())))
    return out


WORKLOADS = {
    "haar-large": Workload("haar-large", _large_passes, _large_warmup,
                           _large_footprint),
    "haar-batch": Workload("haar-batch", _batch_passes, _batch_warmup,
                           _batch_footprint),
    "witness-decks": Workload("witness-decks", _witness_passes,
                              _witness_warmup, _witness_footprint),
}


# ---------------------------------------------------------------------------
# Cold command-line verdicts on a stored 6-qubit state.
# ---------------------------------------------------------------------------

def write_cli_state(path, seed: int) -> None:
    state = pd.sample_haar_state(pd.PartyStructure.uniform(6, 2),
                                 _rng(seed, 2))
    pd.save_state(state, path)


def cli_op(python: str, state_path, env: dict, cwd) -> Op:
    cmd = [python, "-m", "puredeck.cli", "certify", str(state_path),
           "--blocks", CLI_BLOCKS, "--json"]

    def call():
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cli exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        return json.loads(proc.stdout)

    return Op("cli-certify-6q", call,
              lambda d: {"status": d["status"], "null_dim": d["null_dim"],
                         "equation_counts": d["equation_counts"],
                         "rank": d["genericity"]["rank"]})
