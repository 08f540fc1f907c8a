"""End-to-end tests of the command-line interface."""

import argparse
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from puredeck import (PackingArray, PureState, format_array_text, ghz_state,
                      sample_haar_state, save_state)
from puredeck.certify import SVD_TOL
from puredeck.cli import _tolerance_flags, build_parser, main
from puredeck.experiments import Tolerances
from puredeck.marginals import DECK_TOL
from puredeck.schmidt import GAP_TOL
from puredeck.states import PartyStructure

OA_TEXT = "OA 9 4 3 2\n0000\n0111\n0222\n1021\n1102\n1210\n2012\n2120\n2201\n"


@pytest.fixture()
def ghz6_file(tmp_path):
    path = tmp_path / "ghz6.json"
    save_state(ghz_state(6, 2, 0.6, 0.8), path)
    return str(path)


@pytest.fixture()
def haar6_file(tmp_path):
    path = tmp_path / "haar6.json"
    save_state(sample_haar_state(PartyStructure.uniform(6, 2), 3), path)
    return str(path)


@pytest.fixture()
def product_file(tmp_path):
    path = tmp_path / "product.json"
    save_state(PureState.basis_state(PartyStructure.uniform(4, 2), (0,) * 4), path)
    return str(path)


@pytest.fixture()
def oa_file(tmp_path):
    path = tmp_path / "array.txt"
    path.write_text(OA_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys, haar6_file):
        code, _, _ = run_cli(capsys, "schmidt", haar6_file, "--cut", "1,2,3")
        assert code == 0

    def test_domain_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "schmidt", str(bad), "--cut", "1")
        assert code == 1
        assert "error" in err

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify"])  # missing required arguments
        assert excinfo.value.code == 2


class TestCertifyCommand:
    def test_haar_state_certified(self, capsys, haar6_file):
        code, out, _ = run_cli(capsys, "certify", haar6_file,
                               "--blocks", "A=1,2;B=3;C=4;D=5,6", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "CERTIFIED_UDP"
        assert data["equation_counts"]["complex_variables"] == 28
        assert data["equation_counts"]["complex_equations"] == 33

    def test_ghz_witnessed_with_family(self, capsys, ghz6_file, tmp_path):
        witness_path = tmp_path / "witness.json"
        code, out, _ = run_cli(capsys, "certify", ghz6_file,
                               "--blocks", "A=1,2;B=3;C=4;D=5,6",
                               "--family", "k=5", "--json",
                               "--out", str(witness_path))
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "NOT_UDP_WITNESSED"
        assert abs(data["witness_fidelity"] - 0.28) <= 1e-9
        assert witness_path.exists()

    def test_uncovering_family_is_not_certified(self, capsys, haar6_file):
        # the family leaves parties 5 and 6 out, so it holds none of the cut
        # marginals the phase system is about
        code, out, _ = run_cli(capsys, "certify", haar6_file,
                               "--blocks", "A=1,2;B=3;C=4;D=5,6",
                               "--family", "1,2;3,4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "INCONCLUSIVE" and data["null_dim"] == 0
        assert any("AB, CD, AC, BD" in note for note in data["notes"])
        code, out, _ = run_cli(capsys, "certify", haar6_file,
                               "--blocks", "A=1,2;B=3;C=4;D=5,6",
                               "--family", "k=3")
        assert code == 0 and out.startswith("CERTIFIED_UDP")

    @pytest.mark.parametrize("family", ["", ";"], ids=["blank", "semicolon"])
    def test_empty_family_is_not_certified(self, capsys, haar6_file, family):
        # an empty family fixes none of the cut marginals, however spelled
        code, out, _ = run_cli(capsys, "certify", haar6_file,
                               "--blocks", "A=1,2;B=3;C=4;D=5,6",
                               "--family", family, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "INCONCLUSIVE" and data["null_dim"] == 0
        assert any("AB, CD, AC, BD" in note for note in data["notes"])

    @pytest.mark.parametrize("kind", ["haar", "ghz"])
    def test_negative_seed_is_domain_error(self, capsys, haar6_file,
                                           ghz6_file, kind):
        # the certified Haar state once exited 0, since its verdict never
        # reached the witness search that refused the seed
        path = haar6_file if kind == "haar" else ghz6_file
        code, out, err = run_cli(capsys, "certify", path, "--blocks",
                                 "A=1,2;B=3;C=4;D=5,6", "--seed", "-1")
        assert (code, out) == (1, "")
        assert "seed must be at least 0" in err

    @pytest.mark.parametrize("argv, named", [
        (["certify", "{path}", "--blocks", "A=\u0661,2;B=3;C=4;D=5,6"],
         "invalid party of block A"),
        (["certify", "{path}", "--blocks", "A=1,2;B=3;C=4;D=5,6",
          "--family", "k=0_3"], "invalid k"),
        (["schmidt", "{path}", "--cut", "+1,2"], "invalid party"),
        (["certify", "{path}", "--blocks", "A=1,2\u2003;B=3;C=4;D=5,6"],
         "invalid party of block A"),
        (["certify", "{path}", "--blocks", "A=1,2;B=3;C=4;D=5,6",
          "--family", "\u20031,2,3;4,5,6"], "invalid party"),
    ], ids=["blocks", "family", "cut", "blocks-em-space", "family-em-space"])
    def test_non_ascii_digits_are_domain_errors(self, capsys, haar6_file,
                                                argv, named):
        code, out, err = run_cli(capsys, *(a.format(path=haar6_file)
                                           for a in argv))
        assert (code, out) == (1, "")
        assert named in err

    def test_bad_blocks_is_domain_error(self, capsys, ghz6_file):
        code, _, err = run_cli(capsys, "certify", ghz6_file,
                               "--blocks", "A=1;B=1;C=2;D=3,4,5,6")
        assert code == 1 and "disjoint" in err

    @pytest.mark.parametrize("command,flag", [
        ("certify", "--svd-tol"), ("certify", "--deck-tol"),
        ("certify", "--gap-tol"), ("schmidt", "--gap-tol"),
        ("deck", "--tol"), ("oa", "--deck-tol"),
        ("experiment", "--svd-tol"), ("experiment", "--deck-tol"),
        ("experiment", "--gap-tol"),
    ], ids=["--svd-tol", "--deck-tol", "--gap-tol", "schmidt--gap-tol",
            "deck--tol", "oa--deck-tol", "experiment--svd-tol",
            "experiment--deck-tol", "experiment--gap-tol"])
    @pytest.mark.parametrize("value", ["nan", "-1", "0"])
    def test_invalid_tolerance_is_domain_error(self, capsys, haar6_file,
                                               oa_file, command, flag, value):
        argv = {
            "certify": ["certify", haar6_file, "--blocks", "A=1,2;B=3;C=4;D=5,6"],
            "schmidt": ["schmidt", haar6_file, "--cut", "1,2"],
            "deck": ["deck", "diff", haar6_file, haar6_file, "--family", "k=2"],
            "oa": ["oa", "witness", oa_file, "--flip", "1"],
            "experiment": ["experiment", "--n", "4", "--d", "2", "--trials",
                           "1", "--blocks", "A=1;B=2;C=3;D=4"],
        }[command]
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert "outside (0, 1e-2)" in err

    def test_tolerance_defaults_come_from_constants(self, haar6_file,
                                                    oa_file):
        # every tolerance flag defaults to None, so that a given flag is
        # told from an omitted one; the Tolerances a command builds with no
        # flag given holds the named constants
        parser = build_parser()
        seen = set()

        def walk(command, sub):
            # `deck` and `oa` nest one parser per action
            for action in sub._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, nested in action.choices.items():
                        walk(f"{command} {name}".strip(), nested)
                elif action.dest in ("svd_tol", "deck_tol", "gap_tol"):
                    assert action.default is None, (command, action.dest)
                    seen.add((command, action.dest))

        walk("", parser)
        assert seen == {("certify", "svd_tol"), ("certify", "deck_tol"),
                        ("certify", "gap_tol"), ("experiment", "svd_tol"),
                        ("experiment", "deck_tol"), ("experiment", "gap_tol"),
                        ("deck diff", "deck_tol"), ("schmidt", "gap_tol"),
                        ("oa witness", "deck_tol")}
        constants = Tolerances(svd_tol=SVD_TOL, deck_tol=DECK_TOL,
                               gap_tol=GAP_TOL)
        assert Tolerances() == constants
        for argv in (["certify", haar6_file, "--blocks", "A=1;B=2;C=3;D=4"],
                     ["experiment", "--n", "4"],
                     ["deck", "diff", haar6_file, haar6_file, "--family",
                      "k=2"],
                     ["schmidt", haar6_file, "--cut", "1"],
                     ["oa", "witness", oa_file, "--flip", "1"]):
            args = parser.parse_args(argv)
            assert Tolerances(**_tolerance_flags(args)) == constants, argv
        args = parser.parse_args(["deck", "diff", haar6_file, haar6_file,
                                  "--family", "k=2", "--tol", "1e-7"])
        assert _tolerance_flags(args) == {"deck_tol": 1e-7}

    def test_empty_inner_block_spec(self, capsys, tmp_path):
        path = tmp_path / "haar4.json"
        save_state(sample_haar_state(PartyStructure.uniform(4, 2), 3), path)
        code, out, _ = run_cli(capsys, "certify", str(path),
                               "--blocks", "A=1;B=2;C=;D=3,4", "--json")
        assert code == 0
        counts = json.loads(out)["equation_counts"]
        assert (counts["ac"], counts["bd"]) == (0, 15)


class TestDeckCommand:
    def test_diff_identical_states(self, capsys, ghz6_file):
        code, out, _ = run_cli(capsys, "deck", "diff", ghz6_file, ghz6_file,
                               "--family", "k=3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["distance"] == 0.0 and data["equal"]

    def test_diff_phase_flip_shares_deck(self, capsys, tmp_path, ghz6_file):
        other = tmp_path / "flipped.json"
        save_state(ghz_state(6, 2, 0.6, -0.8), other)
        code, out, _ = run_cli(capsys, "deck", "diff", ghz6_file, str(other),
                               "--family", "k=5", "--json")
        data = json.loads(out)
        assert data["equal"]

    def test_diff_distinguishes_one_deck(self, capsys, tmp_path):
        struct = PartyStructure.uniform(4, 2)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        from puredeck import PureState
        save_state(PureState.basis_state(struct, (0,) * 4), a)
        save_state(PureState.basis_state(struct, (1,) * 4), b)
        code, out, _ = run_cli(capsys, "deck", "diff", str(a), str(b),
                               "--family", "k=1", "--json")
        data = json.loads(out)
        assert not data["equal"]
        assert data["distance"] == pytest.approx(np.sqrt(2))

    def test_diff_needs_two_states(self, capsys, ghz6_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["deck", "diff", ghz6_file, "--family", "k=3"])
        out, err = capsys.readouterr()
        assert excinfo.value.code == 2 and out == ""
        assert "the following arguments are required: state_b" in err

    def test_export_refuses_a_second_state(self, capsys, ghz6_file, tmp_path):
        other = tmp_path / "b.json"
        save_state(ghz_state(6), other)
        with pytest.raises(SystemExit) as excinfo:
            main(["deck", "export", ghz6_file, str(other), "--family", "k=3"])
        out, err = capsys.readouterr()
        assert excinfo.value.code == 2 and out == ""
        assert "unrecognized arguments" in err and "b.json" in err

    @pytest.mark.parametrize("action,extra", [
        ("diff", ["--out", "{tmp}/x.json"]),
        ("export", ["--tol", "1e-7"]),
        ("export", ["--out", "{tmp}/x.json", "--tol", "1e-7"])])
    def test_flags_the_action_does_not_use_are_refused(self, capsys, ghz6_file,
                                                       tmp_path, action, extra):
        states = [ghz6_file, ghz6_file] if action == "diff" else [ghz6_file]
        with pytest.raises(SystemExit) as excinfo:
            main(["deck", action, *states, "--family", "k=3",
                  *(arg.format(tmp=tmp_path) for arg in extra)])
        out, err = capsys.readouterr()
        assert excinfo.value.code == 2 and out == ""
        assert "unrecognized arguments" in err
        assert not (tmp_path / "x.json").exists()

    def test_diff_refuses_mismatched_local_dims(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_state(sample_haar_state(PartyStructure(2, (2, 3)), 1), a)
        save_state(sample_haar_state(PartyStructure(2, (3, 2)), 1), b)
        code, out, err = run_cli(capsys, "deck", "diff", str(a), str(b),
                                 "--family", "k=1")
        assert code == 1 and out == ""
        assert err == "error: states have different local dimensions\n"

    def test_export_writes_family_and_matrices(self, capsys, ghz6_file, tmp_path):
        out_path = tmp_path / "deck.json"
        code, _, _ = run_cli(capsys, "deck", "export", ghz6_file,
                             "--family", "1,2;5,6", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert [m["parties"] for m in data["marginals"]] == [[1, 2], [5, 6]]
        assert len(data["marginals"][0]["matrix"]) == 16  # 4x4 entries as [re, im]


class TestSchmidtCommand:
    def test_spectrum_output(self, capsys, ghz6_file):
        code, out, _ = run_cli(capsys, "schmidt", ghz6_file, "--cut", "1,2,3")
        data = json.loads(out)
        assert data["rank"] == 2
        assert data["lambdas"] == pytest.approx([0.64, 0.36])
        assert data["genericity"]["full_rank"] is False


class TestHypergraphCommand:
    def test_connected_family(self, capsys):
        code, out, _ = run_cli(capsys, "hypergraph", "--n", "6",
                               "--family", "1,2,3;4,5,6;1,2,4;3,5,6", "--json")
        data = json.loads(out)
        assert data == {"connected": True, "lower_bound_for_k": 3,
                        "violation": False}

    def test_disconnected_family(self, capsys):
        code, out, _ = run_cli(capsys, "hypergraph", "--n", "4",
                               "--family", "1,2;3,4", "--json")
        data = json.loads(out)
        assert data["violation"] is True

    @pytest.mark.parametrize("n, family", [("0", ""), ("-2", ""), ("-2", "1")])
    def test_fewer_than_one_party_refused(self, capsys, n, family):
        code, out, err = run_cli(capsys, "hypergraph", "--n", n,
                                 "--family", family)
        assert code == 1 and out == ""
        assert err == "error: need at least one party\n"


class TestOaCommands:
    def test_verify(self, capsys, oa_file):
        code, out, _ = run_cli(capsys, "oa", "verify", oa_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["index_lambda"] == 1 and data["irredundant"]

    def test_verify_one_column_array_above_ten_levels(self, capsys,
                                                       tmp_path):
        # the file `format_array_text` writes; its row "10" once failed as
        # two entries
        path = tmp_path / "array.txt"
        path.write_text(format_array_text(
            PackingArray(np.array([[0], [10]]), 11, 1)))
        code, out, _ = run_cli(capsys, "oa", "verify", str(path), "--json")
        assert code == 0
        assert json.loads(out)["levels"] == 11

    def test_verify_rejects_broken_array(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("OA 2 2 2 2\n00\n01\n")
        code, _, err = run_cli(capsys, "oa", "verify", str(path))
        assert code == 1

    @pytest.mark.parametrize("old, new", [
        ("\n0000\n", "\n0000\u2003\n"), ("OA 9 4", "OA 9\u00a04"),
        ("\n0000\n", "\n0000\u2028")],
        ids=["row-em-space", "header-no-break-space", "line-separator"])
    def test_verify_rejects_unicode_whitespace(self, capsys, tmp_path, old,
                                               new):
        path = tmp_path / "array.txt"
        path.write_text(OA_TEXT.replace(old, new, 1), encoding="utf-8")
        code, out, err = run_cli(capsys, "oa", "verify", str(path))
        assert code == 1
        assert out == "" and err

    def test_state_output(self, capsys, oa_file, tmp_path):
        out_path = tmp_path / "state.json"
        code, _, _ = run_cli(capsys, "oa", "state", oa_file,
                             "--out", str(out_path))
        assert code == 0
        from puredeck import load_state
        state = load_state(out_path.read_text())
        assert np.count_nonzero(state.amplitudes) == 9

    def test_witness_flip(self, capsys, oa_file):
        code, out, _ = run_cli(capsys, "oa", "witness", oa_file,
                               "--flip", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["deck_distance"] <= 1e-10

    @pytest.mark.parametrize("flip", ["0", "10"])
    def test_witness_flip_range_is_one_based(self, capsys, oa_file, flip):
        code, out, err = run_cli(capsys, "oa", "witness", oa_file,
                                 "--flip", flip)
        assert code == 1 and out == ""
        assert err == f"error: --flip {flip} outside 1..9\n"

    def test_witness_needs_flip_or_phases(self, capsys, oa_file):
        code, _, err = run_cli(capsys, "oa", "witness", oa_file)
        assert code == 1 and "flip" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--flip", "2", "--out", "{tmp}/y.json"],
        ["verify", "--amps", "[1]"],
        ["verify", "--deck-tol", "1e-7"],
        ["state", "--flip", "2"],
        ["state", "--phases", "[0]"],
        ["witness", "--flip", "1", "--phases", "[0]"]],
        ids=["verify-flip-out", "verify-amps", "verify-deck-tol", "state-flip",
             "state-phases", "witness-flip-and-phases"])
    def test_flags_the_action_does_not_use_are_refused(self, capsys, oa_file,
                                                       tmp_path, argv):
        action, *flags = argv
        with pytest.raises(SystemExit) as excinfo:
            main(["oa", action, oa_file,
                  *(arg.format(tmp=tmp_path) for arg in flags)])
        out, _ = capsys.readouterr()
        assert excinfo.value.code == 2 and out == ""
        assert not (tmp_path / "y.json").exists()

    def test_state_with_amplitudes(self, capsys, oa_file):
        amps = json.dumps([[1, 0]] * 8 + [[2, 0]])
        code, out, _ = run_cli(capsys, "oa", "state", oa_file, "--amps", amps)
        assert code == 0
        data = json.loads(out)
        values = sorted(round(e["re"], 6) for e in data["amplitudes"])
        assert len(set(values)) == 2  # one doubled amplitude after normalizing

    @pytest.mark.parametrize("action,flag", [("state", "--amps"),
                                             ("witness", "--phases")])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                       "1e309", "1" + "0" * 400])
    def test_non_finite_values_refused(self, capsys, oa_file, action, flag,
                                       value):
        values = "[" + ", ".join([value] + ["0.5"] * 8) + "]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "oa", action, oa_file, flag,
                                     values)
        assert code == 1 and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("action, flag, value, named", [
        ("state", "--amps", [[1]] * 9, "entry [1]"),
        ("state", "--amps", [{"re": 1}] * 9, 'entry {"re": 1}'),
        ("state", "--amps", [[1, 0, 0]] * 9, "entry [1, 0, 0]"),
        ("state", "--amps", [True] * 9, "entry true"),
        ("witness", "--phases", {"a": 1}, "must be a JSON list"),
        ("witness", "--phases", 3, "must be a JSON list"),
        ("witness", "--phases", [[0, 1]] * 9, "entry [0, 1]"),
    ], ids=["amps-short-pair", "amps-object", "amps-long-pair", "amps-bool",
            "phases-object", "phases-number", "phases-pair"])
    def test_malformed_entries_refused(self, capsys, oa_file, action, flag,
                                       value, named):
        code, out, err = run_cli(capsys, "oa", action, oa_file, flag,
                                 json.dumps(value))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} ") and named in err

    def test_witness_with_phase_vector(self, capsys, oa_file):
        phases = json.dumps([0.0] * 8 + [3.14159])
        code, out, _ = run_cli(capsys, "oa", "witness", oa_file,
                               "--phases", phases, "--json")
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestCountingTableCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "counting-table", "--max-n", "3",
                               "--max-d", "2", "--json")
        data = json.loads(out)
        assert data["all_closed_forms_match"] is True
        assert len(data["flagged_nonpositive"]) == 1  # the square 6-vs-6 case

    @pytest.mark.parametrize("flags", [("--json",), ()])
    def test_oversize_table_exits_1(self, capsys, flags):
        code, out, err = run_cli(capsys, "counting-table", "--max-n", "2000",
                                 "--max-d", "2000", *flags)
        assert code == 1 and out == ""
        assert "has 3996001000 rows, more than the cap of 100000" in err

    def test_human_output_flags_square_case(self, capsys):
        code, out, _ = run_cli(capsys, "counting-table", "--max-n", "2",
                               "--max-d", "2")
        assert code == 0
        assert "<=0" in out


class TestExperimentCommand:
    def test_small_batch(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "experiment", "--n", "4", "--d", "2",
                               "--trials", "3", "--seed", "1",
                               "--blocks", "A=1;B=2;C=3;D=4",
                               "--out", str(out_path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["counts"]["certified"] == 3
        assert out_path.exists()

    def test_reports_reproducible(self, capsys, tmp_path):
        args = ["experiment", "--n", "4", "--d", "2", "--trials", "2",
                "--seed", "5", "--blocks", "A=1;B=2;C=3;D=4", "--json"]
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        a = json.loads(out_a)
        b = json.loads(out_b)
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_summary_block_present(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--n", "4", "--d", "2",
                               "--trials", "2", "--seed", "0",
                               "--blocks", "A=1;B=2;C=3;D=4", "--json")
        summary = json.loads(out)["summary"]
        assert summary["trials"] == 2
        assert summary["certified"] + summary["witnessed"] \
            + summary["inconclusive"] == 2
        assert summary["min_spectral_gap"] > 0

    def test_config_file(self, capsys, tmp_path):
        config = {
            "num_parties": 4, "local_dim": 2, "trials": 2, "seed": 3,
            "blocks": {"A": [1], "B": [2], "C": [3], "D": [4]},
            "tolerances": {"svd_tol": 1e-9},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path),
                               "--json")
        assert code == 0
        data = json.loads(out)
        assert data["config"]["seed"] == 3
        assert data["counts"]["certified"] == 2
        # flag overrides win over the file
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path),
                               "--trials", "1", "--json")
        assert json.loads(out)["summary"]["trials"] == 1

    @pytest.mark.parametrize("extra, named", [
        (["--n", "9"], "--n"),
        (["--d", "3"], "--d"),
        (["--blocks", "A=1,2;B=;C=3;D=4"], "--blocks"),
        (["--svd-tol", "1e-8"], "--svd-tol"),
        (["--gap-tol", "1e-6"], "--gap-tol"),
        (["--deck-tol", "1e-7"], "--deck-tol"),
        (["--svd-tol", "nan", "--n", "9", "--blocks", "A=1,2;B=;C=3;D=4"],
         "svd_tol=nan"),
    ], ids=["n", "d", "blocks", "svd-tol", "gap-tol", "deck-tol",
            "invalid-tolerance"])
    def test_config_refuses_flags_it_would_drop(self, capsys, tmp_path, extra,
                                                named):
        config = {"num_parties": 4, "local_dim": 2, "trials": 2,
                  "blocks": {"A": [1], "B": [2], "C": [3], "D": [4]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                                 *extra)
        assert code == 1
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("change, named", [
        ({"num_parties": 4.9, "local_dim": 2.7, "trials": True, "seed": 1.5},
         "num_parties"),
        ({"local_dim": 2.7}, "local_dim"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"blocks": [1, 2]}, "blocks"),
        ({"blocks": {"A": "12", "B": [], "C": [3], "D": [4]}}, "block A"),
        ({"blocks": {"A": [1, 2], "B": [], "C": [3], "D": [4.2]}},
         "party of block D"),
        ({"output_path": 5}, "output_path"),
        ({"tolerances": [1]}, "tolerances"),
        ({"tolerances": {"svd_tol": "x"}}, "svd_tol"),
        ({"tolerances": {"gap_tol": True}}, "gap_tol"),
        ({"tolerances": {"deck_tol": None}}, "deck_tol"),
        ({"tolerances": {"norm_tol": 1e-9}}, "norm_tol"),
    ], ids=["floats-and-bool", "local_dim", "trials", "seed", "blocks-list",
            "block-string", "party-float", "output-path", "tolerances-list",
            "tolerance-string", "tolerance-bool", "tolerance-null",
            "tolerance-unknown"])
    def test_config_values_are_not_converted(self, capsys, tmp_path, change,
                                             named):
        config = {"num_parties": 4, "local_dim": 2, "trials": 2,
                  "blocks": {"A": [1], "B": [2], "C": [3], "D": [4]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **change}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert out == ""  # refused before any trial runs
        assert err.startswith("error: malformed experiment config: ")
        assert named in err

    @pytest.mark.parametrize("flag, value", [
        ("--svd-tol", SVD_TOL), ("--gap-tol", GAP_TOL),
        ("--deck-tol", DECK_TOL)])
    def test_config_refuses_a_tolerance_flag_at_its_default(
            self, capsys, tmp_path, flag, value):
        # the file sets 1e-6; a flag equal to the built-in default would
        # otherwise be dropped without a word
        name = flag[2:].replace("-", "_")
        config = {"num_parties": 4, "local_dim": 2, "trials": 2,
                  "blocks": {"A": [1], "B": [2], "C": [3], "D": [4]},
                  "tolerances": {name: 1e-6}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                                 flag, repr(value), "--json")
        assert code == 1
        assert out == ""
        assert flag in err and "cannot be combined with --config" in err

    def test_flags_required_without_config(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--n", "4", "--d", "2")
        assert code == 1 and "required" in err


def strict_json(text):
    """json.loads that refuses the non-standard tokens NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"invalid JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_every_json_subcommand_is_strict_json(self, capsys, haar6_file,
                                                  ghz6_file, product_file,
                                                  oa_file):
        runs = [
            ("certify", haar6_file, "--blocks", "A=1,2;B=3;C=4;D=5,6", "--json"),
            ("certify", ghz6_file, "--blocks", "A=1,2;B=3;C=4;D=5,6",
             "--family", "k=5", "--json"),
            ("certify", product_file, "--blocks", "A=1;B=2;C=3;D=4", "--json"),
            ("experiment", "--n", "4", "--d", "2", "--trials", "2",
             "--blocks", "A=1;B=2;C=3;D=4", "--json"),
            ("deck", "diff", ghz6_file, haar6_file, "--family", "k=3", "--json"),
            ("deck", "export", product_file, "--family", "1,2;3,4"),
            ("schmidt", product_file, "--cut", "1,2"),
            ("hypergraph", "--n", "4", "--family", "1,2;3,4", "--json"),
            ("oa", "verify", oa_file, "--json"),
            ("oa", "state", oa_file),
            ("oa", "witness", oa_file, "--flip", "1", "--json"),
            ("counting-table", "--max-n", "3", "--max-d", "2", "--json"),
        ]
        for argv in runs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            strict_json(out)

    def test_rank_one_min_gap_is_null(self, capsys, product_file):
        _, out, _ = run_cli(capsys, "certify", product_file,
                            "--blocks", "A=1;B=2;C=3;D=4", "--json")
        assert strict_json(out)["genericity"]["min_gap"] is None
        _, out, _ = run_cli(capsys, "schmidt", product_file, "--cut", "1,2")
        assert strict_json(out)["genericity"]["min_gap"] is None


class TestStateRecord:
    @pytest.mark.parametrize("normalize", ['"false"', '"true"', "1", "null"])
    def test_normalize_flag_must_be_boolean(self, capsys, tmp_path,
                                            normalize):
        path = tmp_path / "flag.json"
        path.write_text(
            '{"num_parties": 1, "local_dims": [2], "amplitudes": '
            f'[{{"basis": "0", "re": 2}}], "normalize": {normalize}}}')
        code, out, err = run_cli(capsys, "schmidt", str(path), "--cut", "1")
        assert code == 1 and out == ""
        assert "normalize must be true or false" in err

    @pytest.mark.parametrize("record, named", [
        ('{"num_parties": 2.9, "local_dims": [2.5, 2], '
         '"amplitudes": [{"basis": "00", "re": 1}]}', "num_parties must be"),
        ('{"num_parties": true, "local_dims": [2], '
         '"amplitudes": [{"basis": "0", "re": 1}]}', "num_parties must be"),
        ('{"num_parties": "1", "local_dims": [2], '
         '"amplitudes": [{"basis": "0", "re": 1}]}', "num_parties must be"),
        ('{"num_parties": 1, "local_dims": [2], '
         '"amplitudes": [{"basis": "0", "re": "1"}]}', "re must be"),
        ('{"num_parties": 1, "local_dims": [2], '
         '"amplitudes": [{"basis": "0", "re": true}]}', "re must be"),
        ('{"num_parties": 1, "local_dims": [2], '
         '"amplitudes": [{"basis": 0, "re": 1}]}', "basis must be"),
    ], ids=["floats", "parties-bool", "parties-string", "re-string",
            "re-bool", "basis-int"])
    def test_values_are_not_converted(self, capsys, tmp_path, record, named):
        # any exception other than the domain error would escape `main`
        path = tmp_path / "state.json"
        path.write_text(record)
        code, out, err = run_cli(capsys, "schmidt", str(path), "--cut", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: malformed state record: ")
        assert named in err and err.count("\n") == 1


class TestNonFiniteAmplitudes:
    @pytest.mark.parametrize("argv", [
        ["certify", "{path}", "--blocks", "A=1;B=2;C=3;D=4"],
        ["deck", "diff", "{path}", "{path}", "--family", "k=2"],
        ["schmidt", "{path}", "--cut", "1,2"],
    ], ids=["certify", "deck-diff", "schmidt"])
    @pytest.mark.parametrize("value,normalize", [
        ("NaN", False), ("Infinity", False), ("NaN", True), ("Infinity", True),
    ])
    def test_refused_with_exit_one(self, capsys, tmp_path, argv, value,
                                   normalize):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"num_parties": 4, "local_dims": [2, 2, 2, 2], "amplitudes": '
            f'[{{"basis": "0000", "re": {value}, "im": 0}}, '
            '{"basis": "1111", "re": 1, "im": 0}], '
            f'"normalize": {json.dumps(normalize)}}}')
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert code == 1
        assert out == ""
        assert "non-finite" in err


def test_numpy_is_the_only_runtime_dependency():
    # the baseline is taken inside the child, so modules that site hooks
    # load before the import do not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import puredeck.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == ["numpy", "puredeck"]
