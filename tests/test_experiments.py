"""Tests for batch experiments and the equation-counting table."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import puredeck.experiments as experiments_module
from puredeck import (CrossCutSpec, ExperimentConfig, Tolerances,
                      check_counting_table, equations_for_split,
                      run_experiment, worst_case_surplus_closed_form)
from puredeck.certify import SVD_TOL
from puredeck.marginals import DECK_TOL
from puredeck.schmidt import GAP_TOL


def direct_equation_count(n, d, a_size):
    """Independent recount of the two constraint families."""
    c_size = n - a_size
    from_ac = math.comb(d ** a_size, 2) * (d ** (2 * c_size) - 1)
    from_bd = math.comb(d ** c_size, 2) * (d ** (2 * a_size) - 1)
    return from_ac + from_bd


class TestCountingTable:
    def test_six_qubit_row(self):
        # n = 3 halves, d = 2, |A| = 2: 28 variables against 33 equations
        assert math.comb(2 ** 3, 2) == 28
        assert equations_for_split(3, 2, 2) == 33
        table = check_counting_table(3, 2)
        row = next(r for r in table.rows if (r.n, r.d, r.a_size) == (3, 2, 2))
        assert row.variables == 28
        assert row.equations == 33
        assert row.surplus == 5
        assert row.closed_form_surplus == 5
        assert row.closed_form_matches

    def test_square_case_flagged_not_suppressed(self):
        # n = d = 2: six equations against six unknowns, surplus exactly zero
        table = check_counting_table(2, 2)
        row = table.rows[0]
        assert (row.n, row.d, row.a_size) == (2, 2, 1)
        assert row.variables == row.equations == 6
        assert row.surplus == 0
        assert row.nonpositive_surplus
        assert row in table.flagged_rows

    def test_closed_form_matches_direct_counting(self):
        for n in range(2, 7):
            for d in range(2, 5):
                variables = math.comb(d ** n, 2)
                direct = direct_equation_count(n, d, 1) - variables
                assert worst_case_surplus_closed_form(n, d) == direct
                # symmetric split value agrees with the |A| = n-1 extreme
                assert direct_equation_count(n, d, n - 1) - variables == direct

    def test_minimum_at_extreme_splits(self):
        table = check_counting_table(6, 4)
        for summary in table.summaries:
            assert summary.min_at_extremes
        assert table.all_closed_forms_match

    def test_surplus_positive_beyond_square_case(self):
        for n in range(2, 7):
            for d in range(2, 5):
                surplus = worst_case_surplus_closed_form(n, d)
                if (n, d) == (2, 2):
                    assert surplus == 0
                else:
                    assert surplus > 0

    @pytest.mark.parametrize("n, d", [(3, 2.5), (3.0, 2), (3, True),
                                      ("3", 2)])
    def test_closed_form_takes_integers_only(self, n, d):
        # (3, 2.5) once raised "closed form not even", an ArithmeticError
        with pytest.raises(TypeError, match="must be int"):
            worst_case_surplus_closed_form(n, d)

    @pytest.mark.parametrize("args, name", [
        ((3, True, 1), "d"), ((3, 2, True), "a_size"), ((3.0, 2, 1), "n"),
        ((3, 2.0, 1), "d"), ((3, 2, 1.0), "a_size"), (("3", 2, 1), "n")])
    def test_equations_for_split_takes_integers_only(self, args, name):
        # (3, True, 1) once returned 0 and (3, 2, True) 33; floats failed
        # late, in `range` or `math.comb`
        with pytest.raises(TypeError, match=f"^{name} must be int"):
            equations_for_split(*args)
        assert equations_for_split(np.int64(3), np.uint8(2),
                                   np.int32(2)) == 33

    @pytest.mark.parametrize("args, name", [
        ((True, 3), "max_n"), ((3, True), "max_d"), ((3.0, 3), "max_n"),
        ((3, 2.5), "max_d"), ((3, "3"), "max_d")])
    def test_counting_table_takes_integers_only(self, args, name):
        # (True, 3) once raised "need max_n >= 2", a ValueError
        with pytest.raises(TypeError, match=f"^{name} must be int"):
            check_counting_table(*args)
        assert check_counting_table(np.int64(3), np.int64(2)) == \
            check_counting_table(3, 2)

    def test_equations_for_split_range_checked(self):
        with pytest.raises(ValueError):
            equations_for_split(3, 2, 0)
        with pytest.raises(ValueError):
            equations_for_split(3, 2, 3)

    def test_defaults_have_45_rows(self):
        table = check_counting_table(6, 4)
        assert len(table.rows) == 3 * 6 * 5 // 2 == 45
        assert len(table.summaries) == 5 * 3

    @pytest.mark.parametrize("max_n, max_d, rows", [
        (2000, 2000, 3996001000), (448, 2, 100128), (2, 100002, 100001),
        (60, 60, 104430)])
    def test_oversize_table_refused_before_any_row(self, monkeypatch, max_n,
                                                   max_d, rows):
        # --max-n 2000 --max-d 2000 once built rows until memory ran out
        def refuse(**fields):
            raise AssertionError("a row was built")
        monkeypatch.setattr(experiments_module, "CountingRow", refuse)
        with pytest.raises(ValueError, match=f"has {rows} rows, more than "
                                             f"the cap of 100000"):
            check_counting_table(max_n, max_d)

    @pytest.mark.parametrize("max_n, max_d", [(2, 100001), (447, 2)])
    def test_table_at_the_cap_is_built(self, monkeypatch, max_n, max_d):
        # 100,000 and 99,681 rows pass the cap; the first row is not built
        # here, to keep the test fast
        def stop(**fields):
            raise LookupError("first row")
        monkeypatch.setattr(experiments_module, "CountingRow", stop)
        with pytest.raises(LookupError, match="first row"):
            check_counting_table(max_n, max_d)

    def test_json_round_trip(self):
        table = check_counting_table(3, 3)
        data = json.loads(json.dumps(table.to_json_dict()))
        assert data["all_closed_forms_match"] is True
        assert len(data["rows"]) == len(table.rows)


BALANCED_4 = CrossCutSpec.parse("A=1;B=2;C=3;D=4", 4)


class TestExperiments:
    def test_counts_sum_to_trials(self):
        config = ExperimentConfig(4, 2, trials=5, seed=3, blocks=BALANCED_4)
        report = run_experiment(config, verbose=False)
        assert sum(report.counts.values()) == 5
        assert len(report.trials) == 5
        assert [t["trial"] for t in report.trials] == list(range(5))

    def test_deterministic_report(self):
        config = ExperimentConfig(4, 2, trials=4, seed=9, blocks=BALANCED_4)
        a = run_experiment(config, verbose=False)
        b = run_experiment(config, verbose=False)
        a, b = (json.loads(report.to_json()) for report in (a, b))
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_report_always_carries_its_timing(self):
        # the one JSON form; a caller drops `timing` itself
        config = ExperimentConfig(4, 2, trials=1, seed=1, blocks=BALANCED_4)
        report = run_experiment(config, verbose=False)
        assert set(json.loads(report.to_json())["timing"]) == {"runtime_ms"}
        with pytest.raises(TypeError):
            report.to_json_dict(include_timing=False)

    def test_report_round_trips_through_json(self):
        config = ExperimentConfig(4, 2, trials=3, seed=1, blocks=BALANCED_4)
        report = run_experiment(config, verbose=False)
        data = json.loads(report.to_json())
        assert data["counts"]["certified"] == report.counts["certified"]
        assert "timing" in data
        assert json.loads(json.dumps(data)) == data

    def test_report_text_is_strict_json(self, tmp_path):
        # finite reports read byte for byte as json.dumps(indent=2,
        # sort_keys=True), the writer before the strict one; a NaN is
        # refused rather than written as a token strict readers refuse
        config = ExperimentConfig(4, 2, trials=2, seed=5, blocks=BALANCED_4)
        report = run_experiment(config, verbose=False)
        assert report.to_json() == json.dumps(report.to_json_dict(),
                                              indent=2, sort_keys=True)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                replace(report, runtime_ms=bad).to_json()

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        config = ExperimentConfig(4, 2, trials=2, seed=0, blocks=BALANCED_4,
                                  output_path=str(out))
        run_experiment(config, verbose=False)
        data = json.loads(out.read_text())
        assert data["config"]["trials"] == 2

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(4, 2, trials=0, seed=0, blocks=BALANCED_4)

    @pytest.mark.parametrize("value", [True, 2.5, "2", None],
                             ids=["bool", "float", "str", "none"])
    @pytest.mark.parametrize("name", ["trials", "seed"])
    def test_trials_and_seed_must_be_int(self, name, value):
        # True once ran one trial and wrote "trials": true into the report
        settings = {"trials": 2, "seed": 0, name: value}
        with pytest.raises(TypeError, match=f"{name} must be int"):
            ExperimentConfig(4, 2, blocks=BALANCED_4, **settings)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be at least 0"):
            ExperimentConfig(4, 2, trials=1, seed=-3, blocks=BALANCED_4)

    def test_numpy_integers_are_stored_as_int(self):
        config = ExperimentConfig(4, 2, trials=np.int64(2), seed=np.uint8(7),
                                  blocks=BALANCED_4)
        assert type(config.trials) is int and type(config.seed) is int
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_numpy_dimensions_round_trip_to_json(self):
        # numpy dimensions were kept as given, and the report's JSON then
        # raised "Object of type int64 is not JSON serializable"
        config = ExperimentConfig(np.int64(4), np.int64(2), trials=1, seed=0,
                                  blocks=BALANCED_4)
        assert type(config.num_parties) is int
        assert type(config.local_dim) is int
        data = json.loads(run_experiment(config, verbose=False).to_json())
        assert (data["config"]["num_parties"], data["config"]["local_dim"]) \
            == (4, 2)
        assert ExperimentConfig.from_dict(data["config"]) == config

    @pytest.mark.parametrize("value", [True, 4.0, "4"],
                             ids=["bool", "float", "str"])
    @pytest.mark.parametrize("name", ["num_parties", "local_dim"])
    def test_dimensions_must_be_int(self, name, value):
        settings = {"num_parties": 4, "local_dim": 2, name: value}
        with pytest.raises(TypeError, match=f"{name} must be int"):
            ExperimentConfig(trials=1, seed=0, blocks=BALANCED_4, **settings)

    def test_blocks_must_match_party_count(self):
        with pytest.raises(ValueError, match="parties"):
            ExperimentConfig(6, 2, trials=1, seed=0, blocks=BALANCED_4)

    def test_dimension_cap_checked_at_config_time(self):
        big = CrossCutSpec.parse(
            "A=" + ",".join(str(i) for i in range(1, 9)) + ";B=9;C=10;D="
            + ",".join(str(i) for i in range(11, 18)), 17)
        with pytest.raises(ValueError, match="cap"):
            ExperimentConfig(17, 2, trials=1, seed=0, blocks=big)

    def test_equation_bookkeeping(self):
        config = ExperimentConfig(4, 2, trials=2, seed=4, blocks=BALANCED_4)
        report = run_experiment(config, verbose=False)
        assert report.equation_counts["expected_total"] == 6
        assert report.equation_counts["observed_total"] == 6
        assert report.equation_counts["variables_full_rank"] == 6


class TestTolerances:
    def test_defaults_valid(self):
        tol = Tolerances()
        assert (tol.svd_tol, tol.deck_tol, tol.gap_tol) == (SVD_TOL, DECK_TOL,
                                                            GAP_TOL)
        assert set(asdict(tol)) == {"gap_tol", "svd_tol", "deck_tol"}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(svd_tol=0.0)
        with pytest.raises(ValueError):
            Tolerances(deck_tol=0.5)

    def test_unapplied_norm_tol_refused(self):
        # the norm check is fixed (states.NORM_TOL); a config may not claim one
        data = {"num_parties": 4, "local_dim": 2, "trials": 1,
                "blocks": {"A": [1], "B": [2], "C": [3], "D": [4]},
                "tolerances": {"norm_tol": 1e-12}}
        with pytest.raises(ValueError, match="malformed"):
            ExperimentConfig.from_dict(data)
