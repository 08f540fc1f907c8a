"""Tests for party structures, pure states, sampling, and serialization."""

import json
import math
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puredeck import (DIM_CAP, CrossCutSpec, Marginal, MarginalFamily,
                      PartyStructure, PureState, fidelity_up_to_phase,
                      ghz_state, inner_product, load_state, partial_trace,
                      sample_haar_state, save_state, state_from_json_dict,
                      state_to_json_dict)
from puredeck.arrays import PackingArray
from puredeck.schmidt import classify_genericity, schmidt_decompose
from puredeck.states import _cut, _dumps, _uncut, _unchecked

NINE_TERM_QUTRIT = {
    "0000": 1 / 3, "0111": 1 / 3, "0222": 1 / 3,
    "1021": 1 / 3, "1102": 1 / 3, "1210": 1 / 3,
    "2012": 1 / 3, "2120": 1 / 3, "2201": 1 / 3,
}


class TestPartyStructure:
    def test_total_dim_and_subset_dim(self):
        st_ = PartyStructure(3, (2, 3, 4))
        assert st_.total_dim == 24
        assert st_.subset_dim((1, 3)) == 8
        assert st_.subset_dim(()) == 1

    def test_dimension_cap_enforced(self):
        PartyStructure.uniform(16, 2)  # exactly at the cap
        with pytest.raises(ValueError, match="cap"):
            PartyStructure.uniform(17, 2)
        assert PartyStructure.uniform(16, 2).total_dim == DIM_CAP

    def test_local_dims_validated(self):
        with pytest.raises(ValueError):
            PartyStructure(2, (2, 1))
        with pytest.raises(ValueError):
            PartyStructure(2, (2,))

    @pytest.mark.parametrize("num_parties, local_dims, name", [
        (2, (2.5, 2), "local dimension"),
        (2, ("3", 2), "local dimension"),
        (True, (2,), "num_parties"),
        (2.0, (2, 2), "num_parties"),
    ])
    def test_non_integers_refused(self, num_parties, local_dims, name):
        # read as given, never converted: 2.5 is not a qubit, "3" no qutrit
        with pytest.raises(TypeError, match=f"{name} must be int"):
            PartyStructure(num_parties, local_dims)

    def test_numpy_integers_accepted(self):
        st_ = PartyStructure(np.int64(2), (np.int32(3), np.uint8(2)))
        assert st_ == PartyStructure(2, (3, 2))
        assert all(type(v) is int for v in (st_.num_parties, *st_.local_dims))

    def test_mixed_radix_round_trip_exhaustive(self):
        st_ = PartyStructure(3, (2, 3, 2))
        for idx in range(st_.total_dim):
            digits = st_.index_to_digits(idx)
            assert st_.digits_to_index(digits) == idx

    def test_big_endian_convention(self):
        # party 1 is the most significant digit
        st_ = PartyStructure(2, (2, 3))
        assert st_.index_to_digits(0) == (0, 0)
        assert st_.index_to_digits(3) == (1, 0)
        assert st_.digits_to_index((1, 2)) == 5
        assert st_.basis_label(5) == "12"

    @pytest.mark.parametrize("convert, value, name", [
        ("digits_to_index", (0.7, 1.0), "digit"),
        ("digits_to_index", (True, 1), "digit"),
        ("digits_to_index", ("1", "0"), "digit"),
        ("index_to_digits", 1.5, "basis index"),
        ("index_to_digits", 1.0, "basis index"),
        ("index_to_digits", True, "basis index"),
        ("index_to_digits", "1", "basis index"),
    ])
    def test_non_integer_digits_refused(self, convert, value, name):
        # once read by int(): (0.7, 1.0) was |01>, (True, 1) was |11>,
        # ("1", "0") was index 2 and 1.5 gave the digits (0.0, 1.5)
        st_ = PartyStructure(2, (2, 2))
        with pytest.raises(TypeError, match=f"{name} must be int"):
            getattr(st_, convert)(value)
        if convert == "digits_to_index":
            with pytest.raises(TypeError, match="digit must be int"):
                PureState.basis_state(st_, value)

    @pytest.mark.parametrize("label", [
        "\u0661\u0660", " +1, 0", "1,\u0660", "-1,0", "\u00b20", "1 0",
        "1\u20030", "1,\u20030", "0\t1", "1,,0"])
    def test_basis_label_takes_ascii_digits_only(self, label):
        # int() read the first three as (1, 0)
        st_ = PartyStructure(2, (2, 2))
        with pytest.raises(ValueError, match="invalid basis label"):
            st_.parse_basis_label(label)
        with pytest.raises(ValueError, match="invalid basis label"):
            load_state({"num_parties": 2, "local_dims": [2, 2],
                        "amplitudes": [{"basis": label, "re": 1}]})

    @pytest.mark.parametrize("label", ["10", " 10 ", "1,0", " 1 , 0 "])
    def test_basis_label_forms(self, label):
        assert PartyStructure(2, (2, 2)).parse_basis_label(label) == (1, 0)

    def test_numpy_integer_digits_accepted(self):
        st_ = PartyStructure(2, (2, 3))
        assert st_.digits_to_index((np.int64(1), np.uint8(2))) == 5
        assert st_.index_to_digits(np.int32(5)) == (1, 2)
        assert all(type(v) is int for v in st_.index_to_digits(np.int64(5)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_mixed_radix_round_trip_random(self, dims, raw):
        st_ = PartyStructure(len(dims), tuple(dims))
        idx = raw % st_.total_dim
        assert st_.digits_to_index(st_.index_to_digits(idx)) == idx


class TestPartyLabels:
    """Party labels are read as `PartyStructure` reads its counts; each of
    1.9, 1.7, 2.5, True and "1" was once converted to a party by int()."""

    @pytest.mark.parametrize("make", [
        lambda: MarginalFamily(3, ((1.9, 2),)),
        lambda: MarginalFamily(3, ((True, 2),)),
        lambda: MarginalFamily(3, (("1", 2),)),
        lambda: CrossCutSpec((1.7,), (2,), (3,), (4.2,), 4),
        lambda: partial_trace(ghz_state(3), (2.5,)),
        lambda: Marginal((1.5,), np.eye(2) / 2),
    ], ids=["family-float", "family-bool", "family-str", "spec-float",
            "partial-trace-float", "marginal-float"])
    def test_non_integer_labels_refused(self, make):
        with pytest.raises(TypeError, match="party must be int"):
            make()

    def test_numpy_integer_labels_accepted(self):
        family = MarginalFamily(3, ((np.int64(2), np.int32(1)),))
        spec = CrossCutSpec((np.int64(1),), (2,), (np.uint8(3),), (4,), 4)
        marginal = Marginal((np.int16(2),), np.eye(2) / 2)
        assert family.subsets == ((1, 2),)
        assert (spec.ab, spec.cd) == ((1, 2), (3, 4))
        assert partial_trace(ghz_state(3), np.array([2])).parties == \
            marginal.parties == (2,)
        assert all(type(p) is int for p in (*family.subsets[0], *spec.ac,
                                            *marginal.parties))


class TestCutLayout:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=4), min_size=1,
                    max_size=6), st.data())
    def test_cut_then_uncut_is_identity(self, dims, data):
        n = len(dims)
        first = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                   unique=True, max_size=n))
        rest = [i for i in range(n) if i not in first]
        lead = data.draw(st.sampled_from([(), (3,)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 9)))
        total = math.prod(dims)
        vectors = (rng.standard_normal((*lead, total))
                   + 1j * rng.standard_normal((*lead, total)))
        mats = _cut(vectors, dims, first)
        d_first = math.prod(dims[i] for i in first)
        assert mats.shape == (*lead, d_first, total // d_first)
        # entry (row, col) holds the amplitude whose party digits, read in
        # the order `first` then the ascending rest, give row then col
        digits = np.unravel_index(np.arange(total), dims)
        row = np.ravel_multi_index([digits[i] for i in first],
                                   [dims[i] for i in first])
        col = np.ravel_multi_index([digits[i] for i in rest],
                                   [dims[i] for i in rest])
        np.testing.assert_array_equal(mats[..., row, col], vectors)
        # `out` receives the same matrices and is returned
        out = np.empty(mats.shape, dtype=complex)
        assert _cut(vectors, dims, first, out=out) is out
        np.testing.assert_array_equal(out, mats)
        for item in np.ndindex(lead):
            np.testing.assert_array_equal(mats[item],
                                          _cut(vectors[item], dims, first))
            np.testing.assert_array_equal(_uncut(mats[item], dims, first),
                                          vectors[item])


class TestPureState:
    def test_norm_enforced(self):
        st_ = PartyStructure.uniform(2, 2)
        with pytest.raises(ValueError, match="normalized"):
            PureState(st_, np.array([1.0, 1.0, 0, 0]))
        ok = PureState.from_amplitudes(st_, [1.0, 1.0, 0, 0], normalize=True)
        assert abs(np.linalg.norm(ok.amplitudes) - 1) <= 1e-12

    def test_zero_vector_rejected(self):
        st_ = PartyStructure.uniform(2, 2)
        with pytest.raises(ValueError, match="zero"):
            PureState.from_amplitudes(st_, np.zeros(4), normalize=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_amplitudes_rejected(self, bad):
        st_ = PartyStructure.uniform(2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            PureState(st_, [bad, 0, 0, 0])
        with pytest.raises(ValueError, match="non-finite"):
            PureState.from_amplitudes(st_, [bad, 1, 0, 0], normalize=True)

    @pytest.mark.parametrize("kwargs", [{"alpha": 1.0}, {"beta": 0.6}])
    def test_ghz_needs_both_amplitudes(self, kwargs):
        with pytest.raises(ValueError, match="both"):
            ghz_state(4, 2, **kwargs)
        assert ghz_state(4, 2, alpha=0.6, beta=0.8).amplitudes[-1] == 0.8

    def test_amplitudes_immutable(self):
        psi = ghz_state(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestHaarSampling:
    def test_deterministic_for_fixed_seed(self):
        st_ = PartyStructure.uniform(2, 2)
        a = sample_haar_state(st_, 7)
        b = sample_haar_state(st_, 7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_six_qubit_states_are_generic(self):
        # along 123|456: full rank and pairwise distinct spectrum, every seed
        st_ = PartyStructure.uniform(6, 2)
        for seed in range(100):
            dec = schmidt_decompose(sample_haar_state(st_, seed), (1, 2, 3))
            report = classify_genericity(dec)
            assert dec.rank == 8
            assert report.full_rank and report.distinct_spectrum

    @pytest.mark.parametrize("seed", [True, 1.0, "1", None],
                             ids=["bool", "float", "string", "none"])
    def test_non_integer_seed_refused(self, seed):
        # True once meant seed 1, and None a fresh state on every call
        with pytest.raises(TypeError, match="seed must be int"):
            sample_haar_state(PartyStructure.uniform(2, 2), seed)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError,
                           match="seed must be at least 0, got -1"):
            sample_haar_state(PartyStructure.uniform(2, 2), -1)

    def test_numpy_integer_seed_passes(self):
        st_ = PartyStructure.uniform(3, 2)
        for seed in (np.int64(7), np.int32(7), np.uint8(7)):
            np.testing.assert_array_equal(
                sample_haar_state(st_, seed).amplitudes,
                sample_haar_state(st_, 7).amplitudes)

    def test_generator_draws_as_before(self):
        # a Generator is drawn from directly: two standard normal draws of
        # the dimension each, normalized, and it is left after them
        st_ = PartyStructure.uniform(3, 3)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            got = sample_haar_state(st_, rng).amplitudes
            vec = twin.standard_normal(27) + 1j * twin.standard_normal(27)
            np.testing.assert_array_equal(got, vec / np.linalg.norm(vec))

    def test_mean_probability_is_uniform(self):
        # Monte-Carlo oracle: E|amp_k|^2 = 1/4 for two qubits, within 3 SE
        st_ = PartyStructure.uniform(2, 2)
        rng = np.random.default_rng(123)
        probs = np.empty((10_000, 4))
        for i in range(probs.shape[0]):
            probs[i] = np.abs(sample_haar_state(st_, rng).amplitudes) ** 2
        mean = probs.mean(axis=0)
        se = probs.std(axis=0, ddof=1) / math.sqrt(probs.shape[0])
        assert np.all(np.abs(mean - 0.25) <= 3 * se)


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        psi = sample_haar_state(PartyStructure.uniform(3, 2), 5)
        assert abs(inner_product(psi, psi) - 1) <= 1e-12

    def test_orthogonal_basis_states(self):
        st_ = PartyStructure.uniform(2, 2)
        a = PureState.basis_state(st_, (0, 0))
        b = PureState.basis_state(st_, (1, 1))
        assert inner_product(a, b) == 0

    def test_global_phase(self):
        psi = sample_haar_state(PartyStructure.uniform(2, 2), 9)
        theta = 0.731
        rotated = PureState(psi.structure, np.exp(1j * theta) * psi.amplitudes)
        assert abs(inner_product(psi, rotated) - np.exp(1j * theta)) <= 1e-12
        assert abs(fidelity_up_to_phase(psi, rotated) - 1) <= 1e-12

    def test_conjugate_linear_in_first_argument(self):
        st_ = PartyStructure.uniform(2, 2)
        a = sample_haar_state(st_, 1)
        b = sample_haar_state(st_, 2)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_structure_mismatch(self):
        a = sample_haar_state(PartyStructure.uniform(2, 2), 0)
        b = sample_haar_state(PartyStructure.uniform(3, 2), 0)
        with pytest.raises(ValueError, match="structure"):
            inner_product(a, b)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        st_ = PartyStructure.uniform(3, 2)
        for _ in range(20):
            a = sample_haar_state(st_, rng)
            b = sample_haar_state(st_, rng)
            assert abs(inner_product(a, b)) <= 1 + 1e-12


class TestJsonFormat:
    def test_single_basis_state(self):
        psi = load_state({"num_parties": 2, "local_dims": [2, 2],
                          "amplitudes": [{"basis": "00", "re": 1, "im": 0}]})
        np.testing.assert_array_equal(psi.amplitudes, [1, 0, 0, 0])

    def test_nine_term_qutrit_state(self):
        entries = [{"basis": b, "re": a, "im": 0.0}
                   for b, a in NINE_TERM_QUTRIT.items()]
        psi = load_state({"num_parties": 4, "local_dims": [3, 3, 3, 3],
                          "amplitudes": entries})
        assert abs(np.linalg.norm(psi.amplitudes) - 1) <= 1e-12
        assert np.count_nonzero(psi.amplitudes) == 9

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            load_state({"num_parties": 2, "local_dims": [2, 2],
                        "amplitudes": [{"basis": "02", "re": 1, "im": 0}]})

    def test_duplicate_basis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_state({"num_parties": 1, "local_dims": [2],
                        "amplitudes": [{"basis": "0", "re": 1, "im": 0},
                                       {"basis": "0", "re": 0, "im": 1}]})

    def test_norm_deviation_needs_flag(self):
        record = {"num_parties": 1, "local_dims": [2],
                  "amplitudes": [{"basis": "0", "re": 2, "im": 0}]}
        with pytest.raises(ValueError, match="normalized"):
            load_state(record)
        assert load_state(dict(record, normalize=True)).amplitudes[0] == 1

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
    def test_normalize_flag_must_be_json_boolean(self, flag):
        record = {"num_parties": 1, "local_dims": [2],
                  "amplitudes": [{"basis": "0", "re": 2, "im": 0}],
                  "normalize": flag}
        with pytest.raises(ValueError, match="normalize must be true or false"):
            load_state(record)
        with pytest.raises(ValueError, match="normalize must be true or false"):
            load_state(json.dumps(record))
        assert load_state(dict(record, normalize=False, amplitudes=[
            {"basis": "0", "re": 1, "im": 0}])).amplitudes[0] == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_amplitudes_rejected(self, token, normalize):
        text = ('{"num_parties": 1, "local_dims": [2], "amplitudes": '
                f'[{{"basis": "0", "re": {token}, "im": 0}}, '
                '{"basis": "1", "re": 1, "im": 0}], '
                f'"normalize": {json.dumps(normalize)}}}')
        with pytest.raises(ValueError, match="non-finite"):
            load_state(text)

    def test_malformed_json_text(self):
        with pytest.raises(ValueError, match="JSON"):
            load_state("{not json")

    @pytest.mark.parametrize("change, named", [
        ({"num_parties": 2.9, "local_dims": [2.5, 2]}, "num_parties must be"),
        ({"local_dims": [2.5, 2]}, "local dimension must be"),
        ({"local_dims": [True, 2]}, "local dimension must be"),
        ({"num_parties": True, "local_dims": [2]}, "num_parties must be"),
        ({"num_parties": "1", "local_dims": [2]}, "num_parties must be"),
        ({"amplitudes": {"basis": "00", "re": 1}}, "amplitudes must be"),
        ({"amplitudes": [["00", 1]]}, "amplitude entry"),
        ({"amplitudes": [{"basis": 0, "re": 1}]}, "basis must be"),
        ({"amplitudes": [{"basis": "00", "re": "1"}]}, "re must be"),
        ({"amplitudes": [{"basis": "00", "re": True}]}, "re must be"),
        ({"amplitudes": [{"basis": "00", "re": 1, "im": None}]}, "im must be"),
        ({"amplitudes": [{"basis": "00", "re": 10 ** 400}]}, "too large"),
    ], ids=["floats", "dim-float", "dim-bool", "parties-bool",
            "parties-string", "amplitudes-object", "entry-list",
            "basis-int", "re-string", "re-bool", "im-null", "re-huge-int"])
    def test_values_are_not_converted(self, change, named):
        record = {"num_parties": 2, "local_dims": [2, 2],
                  "amplitudes": [{"basis": "00", "re": 1}]}
        with pytest.raises(ValueError,
                           match="^malformed state record: ") as excinfo:
            state_from_json_dict({**record, **change})
        assert named in str(excinfo.value)

    def test_round_trip_exact(self, tmp_path):
        psi = sample_haar_state(PartyStructure.uniform(3, 3), 17)
        path = tmp_path / "state.json"
        save_state(psi, path)
        back = load_state(path)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-15

    @pytest.mark.parametrize("dims", [(12,), (11,), (3,)])
    def test_one_party_labels_round_trip(self, tmp_path, dims):
        # `basis_label` writes digit 11 of a one-party structure as "11",
        # which was once read back as the two digits (1, 1) and refused
        structure = PartyStructure(1, dims)
        amplitudes = np.arange(1, dims[0] + 1) * np.exp(1j * np.arange(
            dims[0]))
        psi = PureState.from_amplitudes(structure, amplitudes, normalize=True)
        path = tmp_path / "state.json"
        save_state(psi, path)
        back = load_state(path)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-15
        for index in range(dims[0]):
            label = structure.basis_label(index)
            assert structure.parse_basis_label(label) == (index,)

    def test_labels_of_two_parties_keep_one_digit_a_character(self):
        assert PartyStructure(2, (2, 2)).parse_basis_label("11") == (1, 1)
        wide = PartyStructure(2, (12, 2))
        assert wide.basis_label(23) == "11,1"
        assert wide.parse_basis_label("11,1") == (11, 1)
        with pytest.raises(ValueError, match="expected 2 digits, got 3"):
            wide.parse_basis_label("111")

    def test_saved_text_is_the_strict_json_of_the_record(self, tmp_path):
        # byte for byte what json.dumps(indent=2, sort_keys=True) wrote
        # before the strict writer, for finite amplitudes
        path = tmp_path / "state.json"
        for psi in (sample_haar_state(PartyStructure.uniform(3, 3), 17),
                    ghz_state(4, 2, 0.6, 0.8)):
            save_state(psi, path)
            assert path.read_text() == json.dumps(
                state_to_json_dict(psi), indent=2, sort_keys=True)

    def test_save_refuses_a_non_finite_amplitude(self, tmp_path):
        # a state bypassing its checks still cannot leave as NaN tokens
        psi = _unchecked(PureState, structure=PartyStructure.uniform(1, 2),
                         amplitudes=np.array([math.nan, 1.0], dtype=complex))
        path = tmp_path / "state.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_state(psi, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dumps_refuses_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _dumps({"x": [1.0, value]})
        assert _dumps({"b": 1.5, "a": [1]}) == json.dumps(
            {"b": 1.5, "a": [1]}, indent=2, sort_keys=True)

    def test_omitted_entries_are_zero(self):
        data = state_to_json_dict(ghz_state(3))
        assert len(data["amplitudes"]) == 2  # six zero entries dropped
        back = load_state(json.dumps(data))
        np.testing.assert_allclose(back.amplitudes, ghz_state(3).amplitudes)


class TestMarginalType:
    def test_valid_marginal(self):
        m = Marginal((1,), np.array([[0.5, 0], [0, 0.5]]))
        assert m.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Marginal((1,), np.array([[0.5, 0.3], [0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            Marginal((1,), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            Marginal((1,), np.array([[1.1, 0], [0, -0.1]]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
    def test_rejects_nan_entries(self, entry):
        mat = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        mat[entry] = math.nan
        with pytest.raises(ValueError, match="Hermitian|trace"):
            Marginal((1,), mat)


def assert_same_record(got, want):
    """Field for field: equal values of the same type, and each array's
    dtype, shape and read-only flag."""
    assert type(got) is type(want)
    for field in fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert type(g) is type(w), field.name
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), field.name
            assert np.array_equal(g, w), field.name
            assert g.flags.writeable == w.flags.writeable, field.name
        else:
            assert g == w, field.name


class TestUncheckedRecords:
    """`states._unchecked` is the one way past a record's checks; the
    unchecked constructors built on it store what the checked ones do
    (`PackingArray._trusted`: `test_arrays.py`,
    `test_trusted_stores_what_the_constructor_stores`)."""

    def test_every_field_is_needed(self):
        with pytest.raises(TypeError, match="needs the fields"):
            _unchecked(Marginal, parties=(1,))
        with pytest.raises(TypeError, match="needs the fields"):
            _unchecked(Marginal, parties=(1,), matrix=np.eye(2) / 2,
                       dim=2)
        with pytest.raises(TypeError, match="needs the fields"):
            _unchecked(PackingArray, rows=np.eye(2, dtype=int), levels=2)

    def test_values_are_held_as_given(self):
        matrix = np.eye(2) / 2
        marg = _unchecked(Marginal, parties=(1,), matrix=matrix)
        assert marg.parties == (1,) and marg.matrix is matrix

    def test_trusted_marginal_matches_constructor(self):
        psi = sample_haar_state(PartyStructure(4, (2, 3, 2, 2)), 3)
        for keep in ((1,), (2, 4), (1, 2, 3)):
            trusted = partial_trace(psi, keep)
            assert_same_record(trusted, Marginal(keep, trusted.matrix))

    def test_complete_family_matches_constructor(self):
        for n, k in ((1, 1), (4, 2), (6, 3), (7, 7)):
            assert_same_record(MarginalFamily.complete(n, k), MarginalFamily(
                n, tuple(combinations(range(1, n + 1), k))))
