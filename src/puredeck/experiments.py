"""Batch certification experiments and equation-counting tables."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .certify import (CrossCutSpec, Tolerances, UdpStatus, _certify_stack,
                      _system_size)
from .states import (PartyStructure, _checked, _dumps, _integer, _seed,
                     sample_haar_state)

# `check_counting_table` refuses a table of more rows than this before it
# builds any; 100,000 rows take about a second and 40 MB.
TABLE_ROW_CAP = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    num_parties: int
    local_dim: int
    trials: int
    seed: int
    blocks: CrossCutSpec
    tolerances: Tolerances = Tolerances()
    output_path: str | None = None

    def __post_init__(self):
        # read as `states._integer` reads them, so the report holds ints;
        # `PartyStructure.uniform` below bounds the two dimensions
        for name in ("num_parties", "local_dim"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        trials = _integer(self.trials, "trials")
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.blocks.num_parties != self.num_parties:
            raise ValueError("block spec covers a different number of parties")
        # dimension-cap check happens here rather than at first sample
        PartyStructure.uniform(self.num_parties, self.local_dim)

    def to_dict(self) -> dict:
        return {
            "num_parties": self.num_parties,
            "local_dim": self.local_dim,
            "trials": self.trials,
            "seed": self.seed,
            "blocks": {"A": list(self.blocks.block_a), "B": list(self.blocks.block_b),
                       "C": list(self.blocks.block_c), "D": list(self.blocks.block_d)},
            "tolerances": asdict(self.tolerances),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of to_dict; the JSON config file uses this layout.  Counts,
        the seed and parties must be JSON integers, blocks lists, any
        `tolerances` an object of JSON numbers and any `output_path` a
        string; other values are refused, not converted."""
        try:
            blocks = _checked(data["blocks"], dict, "blocks")
            tolerances = _checked(data.get("tolerances", {}), dict,
                                  "tolerances")
            num_parties = _checked(data["num_parties"], int, "num_parties")
            spec = CrossCutSpec(*(
                tuple(_checked(p, int, f"party of block {name}") for p in
                      _checked(blocks.get(name, []), list, f"block {name}"))
                for name in "ABCD"), num_parties)
            path = data.get("output_path")
            return cls(num_parties=num_parties,
                       local_dim=_checked(data["local_dim"], int, "local_dim"),
                       trials=_checked(data["trials"], int, "trials"),
                       seed=_checked(data.get("seed", 0), int, "seed"),
                       blocks=spec,
                       tolerances=Tolerances(**{
                           name: _checked(value, (int, float), name)
                           for name, value in tolerances.items()}),
                       output_path=path if path is None
                       else _checked(path, str, "output_path"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed experiment config: {exc}") from exc


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    trials: tuple[dict, ...]
    counts: dict
    spectral_gap: dict
    equation_counts: dict
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "summary": {
                "trials": len(self.trials),
                "certified": self.counts["certified"],
                "witnessed": self.counts["witnessed"],
                "inconclusive": self.counts["inconclusive"],
                "min_spectral_gap": self.spectral_gap["min"],
            },
            "trials": list(self.trials),
            "counts": self.counts,
            "spectral_gap": self.spectral_gap,
            "equation_counts": self.equation_counts,
            # wall clock is the only nondeterministic field; keep it isolated
            "timing": {"runtime_ms": self.runtime_ms},
        }

    def to_json(self) -> str:
        """`to_json_dict` as strict JSON text (`states._dumps`)."""
        return _dumps(self.to_json_dict())


def run_experiment(config: ExperimentConfig, *, verbose: bool = True) -> ExperimentReport:
    """Certify `trials` Haar-random states; trial i uses seed + i.

    One `certify._certify_stack` call certifies the trials, sampling each
    only when its stack is read; every verdict is the one `certify_udp`
    gives for the trial.  The report is deterministic for a fixed config
    apart from the isolated `timing` field; it is written to
    `config.output_path` when that is set.
    """
    structure = PartyStructure.uniform(config.num_parties, config.local_dim)
    started = time.perf_counter()
    seeds = range(config.seed, config.seed + config.trials)
    verdicts = _certify_stack(
        (sample_haar_state(structure, seed) for seed in seeds), config.blocks,
        seeds=seeds, tol=config.tolerances)
    records = [{
        "trial": seed - config.seed,
        "seed": seed,
        "status": verdict.status.value,
        "rank": verdict.genericity.rank,
        "min_spectral_gap": verdict.genericity.min_gap,
        "null_dim": verdict.null_dim,
        "complex_equations": verdict.equation_counts["complex_equations"],
        "complex_variables": verdict.equation_counts["complex_variables"],
    } for seed, verdict in zip(seeds, verdicts)]
    statuses = [verdict.status for verdict in verdicts]
    counts = {"certified": statuses.count(UdpStatus.CERTIFIED_UDP),
              "witnessed": statuses.count(UdpStatus.NOT_UDP_WITNESSED),
              "inconclusive": statuses.count(UdpStatus.INCONCLUSIVE)}
    runtime_ms = (time.perf_counter() - started) * 1000.0
    gaps = [record["min_spectral_gap"] for record in records]
    finite = [g for g in gaps if math.isfinite(g)]
    spectral = {
        "min": min(finite) if finite else None,
        "max": max(finite) if finite else None,
        "mean": sum(finite) / len(finite) if finite else None,
    }
    expected, _ = _system_size(
        config.blocks.block_dims(structure),
        min(structure.subset_dim(config.blocks.ab),
            structure.subset_dim(config.blocks.cd)))
    equation_counts = {
        "expected_ac": expected["ac"],
        "expected_bd": expected["bd"],
        "expected_total": expected["complex_equations"],
        "observed_total": records[0]["complex_equations"],
        "variables_full_rank": expected["complex_variables"],
    }
    report = ExperimentReport(config.to_dict(), tuple(records), counts,
                              spectral, equation_counts, runtime_ms)
    if config.output_path:
        Path(config.output_path).write_text(report.to_json())
    if verbose:
        print(f"trials={config.trials} certified={counts['certified']} "
              f"witnessed={counts['witnessed']} "
              f"inconclusive={counts['inconclusive']} "
              f"runtime_ms={runtime_ms:.1f}")
    return report


# ---------------------------------------------------------------------------
# Equation counting: direct combinatorics against the closed-form worst case.
# ---------------------------------------------------------------------------

def _split_counts(n: int, d: int, a_size: int) -> dict:
    """Counts of blocks |A|=|D|=a, |B|=|C|=n-a at full rank d^n."""
    d_a, d_c = d ** a_size, d ** (n - a_size)
    return _system_size((d_a, d_c, d_c, d_a), d ** n)[0]


def equations_for_split(n: int, d: int, a_size: int) -> int:
    """Complex equations for half-body blocks |A|=a, |B|=|C|=n-a, |D|=a."""
    n, d, a_size = map(_integer, (n, d, a_size), ("n", "d", "a_size"))
    if not 1 <= a_size <= n - 1:
        raise ValueError("block size must satisfy 1 <= |A| <= n-1")
    return _split_counts(n, d, a_size)["complex_equations"]


def worst_case_surplus_closed_form(n: int, d: int) -> int:
    """Closed-form surplus (equations - variables) at the most unbalanced split."""
    n, d = _integer(n, "n"), _integer(d, "d")
    numerator = (d ** (2 * n) - d ** (2 * n - 1) - d ** (2 * n - 2)
                 - d ** (n + 1) + d ** n + d ** (n - 1) - d ** 2 + d)
    if numerator % 2 != 0:
        raise ArithmeticError(f"closed form not even for n={n}, d={d}")
    return numerator // 2


@dataclass(frozen=True)
class CountingRow:
    n: int
    d: int
    a_size: int
    variables: int
    equations: int
    surplus: int
    is_extreme_split: bool
    closed_form_surplus: int | None
    closed_form_matches: bool | None
    nonpositive_surplus: bool


@dataclass(frozen=True)
class CountingSummary:
    n: int
    d: int
    min_equations: int
    minimizing_a_sizes: tuple[int, ...]
    min_at_extremes: bool


@dataclass(frozen=True)
class CountingTable:
    rows: tuple[CountingRow, ...]
    summaries: tuple[CountingSummary, ...]

    @property
    def flagged_rows(self) -> tuple[CountingRow, ...]:
        return tuple(r for r in self.rows if r.nonpositive_surplus)

    @property
    def all_closed_forms_match(self) -> bool:
        return all(r.closed_form_matches for r in self.rows
                   if r.closed_form_matches is not None)

    def to_json_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows],
                "summaries": [asdict(s) for s in self.summaries],
                "flagged_nonpositive": [asdict(r) for r in self.flagged_rows],
                "all_closed_forms_match": self.all_closed_forms_match}


def check_counting_table(max_n: int, max_d: int) -> CountingTable:
    """Tabulate variables vs equations for all 2 <= n <= max_n, 2 <= d <= max_d.

    The closed-form worst-case surplus is recomputed by direct counting at the
    extreme splits; any mismatch or non-positive surplus is recorded in the
    table rather than suppressed.  Direct counting is the authority.
    The table has (max_d - 1) max_n (max_n - 1) / 2 rows, one per (n, d,
    |A|); more than TABLE_ROW_CAP raise ValueError before any is built.
    """
    max_n, max_d = _integer(max_n, "max_n"), _integer(max_d, "max_d")
    if max_n < 2 or max_d < 2:
        raise ValueError("need max_n >= 2 and max_d >= 2")
    size = (max_d - 1) * max_n * (max_n - 1) // 2
    if size > TABLE_ROW_CAP:
        raise ValueError(f"a counting table to max_n={max_n}, max_d={max_d} "
                         f"has {size} rows, more than the cap of "
                         f"{TABLE_ROW_CAP}")
    rows = []
    summaries = []
    for n in range(2, max_n + 1):
        for d in range(2, max_d + 1):
            closed = worst_case_surplus_closed_form(n, d)
            by_a = {}
            for a_size in range(1, n):
                counts = _split_counts(n, d, a_size)
                variables, eqs = (counts["complex_variables"],
                                  counts["complex_equations"])
                by_a[a_size] = eqs
                extreme = a_size in (1, n - 1)
                surplus = eqs - variables
                rows.append(CountingRow(
                    n=n, d=d, a_size=a_size, variables=variables,
                    equations=eqs, surplus=surplus, is_extreme_split=extreme,
                    closed_form_surplus=closed if extreme else None,
                    closed_form_matches=(surplus == closed) if extreme else None,
                    nonpositive_surplus=surplus <= 0,
                ))
            min_eqs = min(by_a.values())
            minimizers = tuple(a for a, e in by_a.items() if e == min_eqs)
            summaries.append(CountingSummary(
                n=n, d=d, min_equations=min_eqs,
                minimizing_a_sizes=minimizers,
                min_at_extremes=all(a in (1, n - 1) for a in minimizers),
            ))
    return CountingTable(tuple(rows), tuple(summaries))
