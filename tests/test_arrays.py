"""Tests for orthogonal/packing arrays and their superposition states."""

import math
from collections import Counter
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

import puredeck.arrays as arrays_module
from puredeck import (MarginalFamily, compute_deck, deck_distance,
                      ghz_state, partial_trace)
from puredeck.arrays import (OA_9_4_3_2, OaCheck, OrthogonalArray,
                             PackingArray, format_array_text,
                             greedy_packing_array, non_udp_witness,
                             parse_array_text, qoa_state, verify_oa,
                             verify_pa)


def histogram_oa_check(rows, levels, strength):
    """Independent oracle: Counter-based tuple histogram per column subset."""
    rows = [tuple(r) for r in np.asarray(rows)]
    r = len(rows)
    lam, rem = divmod(r, levels ** strength)
    if rem != 0:
        return None
    n_cols = len(rows[0])
    for cols in combinations(range(n_cols), strength):
        hist = Counter(tuple(row[c] for c in cols) for row in rows)
        if len(hist) != levels ** strength or set(hist.values()) != {lam}:
            return None
    return lam


def column_subset_distinct(rows, width):
    """Reference oracle: enumerate every `width`-column subset and ask
    np.unique whether the projected rows stay distinct."""
    mat = np.asarray(rows)
    r, n_cols = mat.shape
    return all(len(np.unique(mat[:, cols], axis=0)) == r
               for cols in combinations(range(n_cols), width))


def unique_count_oa_check(rows, levels, strength):
    """Reference oracle: the counting loop with one np.unique(axis=0) per
    column subset, returning (is_oa, index_lambda)."""
    mat = np.asarray(rows)
    lam, rem = divmod(mat.shape[0], levels ** strength)
    if rem != 0 or lam < 1:
        return False, None
    for cols in combinations(range(mat.shape[1]), strength):
        _, counts = np.unique(mat[:, cols], axis=0, return_counts=True)
        if len(counts) != levels ** strength or np.any(counts != lam):
            return False, None
    return True, lam


def random_linear_oa(rng):
    """Full factorial on m columns plus random linear combinations of them
    (mod levels), repeated lam times, rows and columns shuffled, and with
    one entry altered in about a third of the draws."""
    levels = int(rng.choice([2, 3]))
    m = int(rng.integers(1, 4))
    base = np.array(list(product(range(levels), repeat=m)))
    combos = rng.integers(0, levels, size=(m, int(rng.integers(0, 3))))
    rows = np.tile(np.hstack([base, base @ combos % levels]),
                   (int(rng.integers(1, 4)), 1))
    rows = rows[rng.permutation(rows.shape[0])]
    rows = rows[:, rng.permutation(rows.shape[1])]
    altered = rng.random() < 0.3
    if altered:
        i, j = rng.integers(rows.shape[0]), rng.integers(rows.shape[1])
        rows[i, j] = (rows[i, j] + rng.integers(1, levels)) % levels
    return rows, levels, m, altered


def random_rows(rng):
    """Small random arrays, often with repeated rows or agreeing pairs."""
    levels = int(rng.integers(2, 4))
    n_cols = int(rng.integers(1, 7))
    r = int(rng.integers(1, 13))
    if rng.random() < 0.3:  # draw from a small pool so rows repeat
        pool = rng.integers(0, levels, size=(int(rng.integers(1, 4)), n_cols))
        rows = pool[rng.integers(0, len(pool), size=r)]
    else:
        rows = rng.integers(0, levels, size=(r, n_cols))
    return rows, levels


class TestDistinctnessMatchesSubsetOracle:
    def test_random_arrays(self):
        rng = np.random.default_rng(2024)
        seen = Counter()
        for _ in range(1500):
            rows, levels = random_rows(rng)
            r, n_cols = rows.shape
            k = int(rng.integers(1, n_cols + 1))
            expected_pa = column_subset_distinct(rows, k)
            assert verify_pa(rows, levels, k) == expected_pa, (rows, k)
            width = n_cols - k if k < n_cols else n_cols
            expected_irr = column_subset_distinct(rows, width)
            assert verify_oa(rows, levels, k) == OaCheck(
                *unique_count_oa_check(rows, levels, k), expected_irr)
            seen["k=N"] += k == n_cols
            seen["r=1"] += r == 1
            seen["repeated"] += len(np.unique(rows, axis=0)) < r
            seen["r>d^k"] += r > levels ** k
            seen["pa"] += expected_pa
        # every edge case was drawn many times, and both outcomes occur
        assert min(seen.values()) >= 50, seen

    def test_larger_arrays(self):
        rng = np.random.default_rng(7)
        cases = [(greedy_packing_array(8, 3, 7, seed=2).rows, 3),
                 (greedy_packing_array(10, 2, 8, seed=2).rows, 2),
                 (rng.integers(0, 3, size=(200, 9)), 3)]
        for rows, levels in cases:
            n_cols = rows.shape[1]
            for k in range(1, n_cols + 1):
                assert verify_pa(rows, levels, k) == \
                    column_subset_distinct(rows, k)

    def test_irredundant_property_matches_check(self):
        full = np.array(list(product(range(2), repeat=3)))
        for rows, d, k in [(OA_9_4_3_2, 3, 2), (full, 2, 3), (full, 2, 1),
                           ([(0, 0), (0, 1), (1, 0), (1, 1)] * 2, 2, 2)]:
            oa = OrthogonalArray.from_rows(rows, d, k)
            assert oa.irredundant == verify_oa(rows, d, k).irredundant


class TestOaCountingMatchesUniqueOracle:
    @staticmethod
    def expected(rows, levels, k):
        is_oa, lam = unique_count_oa_check(rows, levels, k)
        n_cols = np.asarray(rows).shape[1]
        return OaCheck(is_oa, lam,
                       column_subset_distinct(rows, n_cols - k or n_cols))

    def test_random_arrays(self):
        rng = np.random.default_rng(77)
        seen = Counter()
        for _ in range(800):
            rows, levels, m, altered = random_linear_oa(rng)
            n_cols = rows.shape[1]
            k = int(rng.integers(1, min(m, n_cols) + 1))
            check = verify_oa(rows, levels, k)
            assert check == self.expected(rows, levels, k), (rows, levels, k)
            seen["oa"] += check.is_oa
            seen["not oa"] += not check.is_oa
            seen["altered"] += altered
            seen["lambda>1"] += check.is_oa and check.index_lambda > 1
            seen["k=N oa"] += check.is_oa and k == n_cols
            seen["k=N not oa"] += not check.is_oa and k == n_cols
        assert min(seen.values()) >= 50, seen

    def test_larger_arrays(self):
        full = np.array(list(product(range(3), repeat=6)))
        altered = full.copy()
        altered[100, 2] = (altered[100, 2] + 1) % 3
        for rows, levels, k in [(full, 3, 3), (full, 3, 6), (altered, 3, 3),
                                (altered, 3, 6), (np.vstack([full] * 2), 3, 4),
                                (OA_9_4_3_2, 3, 2)]:
            check = verify_oa(rows, levels, k)
            assert check == self.expected(rows, levels, k)
        assert verify_oa(full, 3, 6) == OaCheck(True, 1, True)


class TestVerifyOa:
    def test_nine_row_qutrit_array(self):
        check = verify_oa(OA_9_4_3_2, 3, 2)
        assert check.is_oa
        assert check.index_lambda == 1
        assert check.irredundant

    def test_duplicated_row_breaks_counts(self):
        rows = list(OA_9_4_3_2)
        rows[1] = rows[0]
        assert not verify_oa(rows, 3, 2).is_oa

    def test_ghz_support_is_strength_one(self):
        check = verify_oa([(0, 0, 0), (1, 1, 1)], 2, 1)
        assert check.is_oa and check.index_lambda == 1 and check.irredundant

    def test_matches_histogram_oracle(self):
        cases = [
            (OA_9_4_3_2, 3, 2),
            ([(0, 0, 0), (1, 1, 1)], 2, 1),
            ([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2),
            ([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], 2, 2),
            ([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 2, 2),  # not an OA
        ]
        for rows, d, k in cases:
            oracle = histogram_oa_check(rows, d, k)
            check = verify_oa(rows, d, k)
            assert check.is_oa == (oracle is not None)
            if oracle is not None:
                assert check.index_lambda == oracle

    def test_index_two_array(self):
        rows = [(0, 0), (0, 1), (1, 0), (1, 1)] * 2
        check = verify_oa(rows, 2, 2)
        assert check.is_oa and check.index_lambda == 2
        assert not check.irredundant  # repeated rows project onto repeats

    def test_out_of_range_entries(self):
        with pytest.raises(ValueError, match="entries"):
            verify_oa([(0, 2)], 2, 1)

    def test_strength_beyond_columns(self):
        with pytest.raises(ValueError, match="strength"):
            verify_oa([(0, 0)], 2, 3)

    def test_construction_verifies(self):
        with pytest.raises(ValueError, match="orthogonal array"):
            OrthogonalArray.from_rows([(0, 0), (0, 1), (1, 0), (1, 0)], 2, 2)

    def test_constructor_checks_stated_index(self):
        with pytest.raises(ValueError, match="index 1, not 5"):
            OrthogonalArray(OA_9_4_3_2, 3, 2, 5)
        assert OrthogonalArray(OA_9_4_3_2, 3, 2, 1).index_lambda == 1

    def test_constructor_checks_counting_property(self):
        with pytest.raises(ValueError, match="orthogonal array"):
            OrthogonalArray(((0, 0), (0, 0)), 2, 2, 1)


class TestVerifyPa:
    def test_subset_of_index_one_rows(self):
        assert verify_pa(np.asarray(OA_9_4_3_2)[:5], 3, 2)

    def test_small_true_case(self):
        assert verify_pa([(0, 0), (0, 1)], 2, 2)

    def test_repeated_tuple_false(self):
        assert not verify_pa([(0, 0), (0, 0)], 2, 2)

    def test_row_count_bounds_enforced(self):
        with pytest.raises(ValueError, match="2 <= r"):
            PackingArray([(0, 0)], 2, 2)
        with pytest.raises(ValueError, match="2 <= r"):
            PackingArray([(i, j) for i in range(2) for j in range(2)]
                         + [(0, 1)], 2, 2)

    def test_constructor_checks_packing_property(self):
        with pytest.raises(ValueError, match="packing array"):
            PackingArray(((0, 0), (0, 0)), 2, 2)
        with pytest.raises(ValueError, match="2 <= r"):
            PackingArray(((0, 0),), 2, 2)
        assert PackingArray(((0, 0), (0, 1)), 2, 2).num_rows == 2


class TestQoaState:
    def test_uniform_state_matches_explicit_nine_terms(self):
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        nonzero = np.flatnonzero(g.state.amplitudes)
        assert len(nonzero) == 9
        np.testing.assert_allclose(g.state.amplitudes[nonzero], 1 / 3)
        # 2-uniform: every 2-body marginal is I/9
        for pair in combinations(range(1, 5), 2):
            marg = partial_trace(g.state, pair)
            assert np.max(np.abs(marg.matrix - np.eye(9) / 9)) <= 1e-12

    def test_two_row_strength_one_array_gives_ghz(self):
        oa = OrthogonalArray.from_rows([(0, 0, 0), (1, 1, 1)], 2, 1)
        g = qoa_state(oa, [0.6, 0.8])
        np.testing.assert_allclose(g.state.amplitudes,
                                   ghz_state(3, 2, 0.6, 0.8).amplitudes)

    def test_random_amplitudes_give_diagonal_reductions(self):
        # oracle: the 2-body reduction must be diagonal with one |a_i|^2 per
        # surviving row projection
        rng = np.random.default_rng(6)
        oa = OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)
        amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        g = qoa_state(oa, amps)
        probs = np.abs(g.amplitudes) ** 2
        for pair in combinations(range(4), 2):
            marg = partial_trace(g.state, tuple(p + 1 for p in pair)).matrix
            off_diag = marg - np.diag(np.diag(marg))
            assert np.max(np.abs(off_diag)) <= 1e-12
            expected = np.zeros(9)
            for row, prob in zip(oa.rows, probs):
                expected[3 * row[pair[0]] + row[pair[1]]] += prob
            np.testing.assert_allclose(np.diag(marg).real, expected, atol=1e-12)

    def test_amplitude_validation(self):
        oa = OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)
        with pytest.raises(ValueError, match="9 amplitudes"):
            qoa_state(oa, [1.0, 2.0])
        amps = np.ones(9)
        amps[3] = 0.0
        with pytest.raises(ValueError, match="amplitudes"):
            qoa_state(oa, amps)

    def test_repeated_rows_rejected(self):
        oa = OrthogonalArray.from_rows([(0, 0), (0, 1), (1, 0), (1, 1)] * 2,
                                       2, 2)
        # an index-2 array with repeated rows is not irredundant, so it is
        # still scanned
        assert not oa.irredundant
        with pytest.raises(ValueError, match="repeated rows"):
            qoa_state(oa)

    @pytest.mark.parametrize("make_array", [
        lambda: OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2),
        lambda: PackingArray([(0, 0, 0), (1, 1, 1), (2, 2, 2)], 3, 1),
        lambda: greedy_packing_array(8, 3, 3, seed=1),
    ], ids=["irredundant-oa", "packing-array", "greedy"])
    def test_distinct_rows_by_invariant_not_rescanned(self, monkeypatch,
                                                      make_array):
        # these rows pairwise agree in fewer than N columns by the array's
        # own invariant, so they cannot repeat
        array = make_array()
        assert not isinstance(array, OrthogonalArray) or array.irredundant

        def refuse(rows, levels, width):
            raise AssertionError("rows scanned for repeats again")
        monkeypatch.setattr(arrays_module, "_distinct_on_every", refuse)
        g = qoa_state(array)
        assert np.count_nonzero(g.state.amplitudes) == array.num_rows


class TestWitness:
    def test_flip_first_amplitude(self):
        rng = np.random.default_rng(1)
        oa = OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)
        amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        g = qoa_state(oa, amps)
        result = non_udp_witness(g, 0)
        assert result.verified
        assert result.deck_distance <= 1e-10
        assert result.fidelity < 1 - 1e-6
        fam = MarginalFamily.complete(4, 2)
        dist = deck_distance(compute_deck(g.state, fam),
                             compute_deck(result.witness, fam))
        assert dist <= 1e-10

    @pytest.mark.parametrize("deck_tol", [0.5, 0.0, math.nan])
    def test_deck_tolerance_refused(self, deck_tol):
        # the check of `verify_twin`, which every array witness goes through
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        with pytest.raises(ValueError, match="deck_tol=.* outside"):
            non_udp_witness(g, 0, deck_tol=deck_tol)

    def test_generalized_ghz_flip(self):
        oa = OrthogonalArray.from_rows([(0,) * 5, (1,) * 5], 2, 1)
        g = qoa_state(oa, [0.6, 0.8])
        result = non_udp_witness(g, 1)
        assert result.verified
        assert result.fidelity == pytest.approx(abs(0.36 - 0.64), abs=1e-12)

    def test_three_row_qutrit_packing(self):
        pa = PackingArray([(0,) * 5, (1,) * 5, (2,) * 5], 3, 2)
        rng = np.random.default_rng(9)
        g = qoa_state(pa)
        result = non_udp_witness(g, rng.uniform(0, 2 * math.pi, 3))
        assert result.verified

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_named(self, bad):
        oa = OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)
        values = np.ones(9)
        values[4] = bad
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"non-finite amplitudes .* \[4\]"):
                qoa_state(oa, values)
            with pytest.raises(ValueError, match=r"non-finite phases .* \[4\]"):
                non_udp_witness(qoa_state(oa), values)

    def test_all_equal_phases_rejected(self):
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        with pytest.raises(ValueError, match="equal"):
            non_udp_witness(g, np.full(9, 0.3))

    def test_large_strength_needs_override(self):
        # strength 2 on three columns exceeds floor(N/2) = 1
        oa = OrthogonalArray.from_rows([(0, 0, 0), (0, 1, 1), (1, 0, 1),
                                        (1, 1, 0)], 2, 2)
        g = qoa_state(oa)
        with pytest.raises(ValueError, match="strength"):
            non_udp_witness(g, 0)


class TestGreedyPacking:
    @pytest.mark.parametrize("args,kwargs,rows", [
        ((8, 3, 3), {"seed": 1},
         ["22221212", "00111122", "02120001", "10000211", "01202200",
          "21022121"]),
        ((10, 2, 3), {"seed": 0}, ["0001010100", "1111101001"]),
        ((4, 3, 2), {"max_rows": 5}, ["0000", "0111", "0222", "1012", "1120"]),
        ((4, 3, 2), {"seed": None},
         ["0000", "0111", "0222", "1012", "1120", "1201", "2021", "2102",
          "2210"]),
        ((8, 3, 4), {"max_rows": 10, "seed": 1},
         ["22221212", "00111122", "12021001", "00220221", "21120002",
          "21011110", "00022012", "01202200", "11102111", "11001222"]),
    ])
    def test_rows_pinned(self, args, kwargs, rows):
        # the rows the column-subset implementation returned for these inputs
        pa = greedy_packing_array(*args, **kwargs)
        assert ["".join(map(str, row)) for row in pa.rows] == rows

    def test_produces_valid_packing(self):
        pa = greedy_packing_array(4, 3, 2, max_rows=3, seed=0)
        assert pa.num_rows == 3
        assert verify_pa(pa.rows, 3, 2)

    def test_binary_strength_two_capacity_is_two(self):
        # rows must pairwise agree on at most one of five columns, i.e.
        # Hamming distance >= 4: only two such binary words fit
        pa = greedy_packing_array(5, 2, 2, max_rows=None, seed=0)
        assert pa.num_rows == 2

    def test_lexicographic_without_seed(self):
        a = greedy_packing_array(4, 3, 2, max_rows=5)
        b = greedy_packing_array(4, 3, 2, max_rows=5)
        np.testing.assert_array_equal(a.rows, b.rows)

    @pytest.mark.parametrize("seed", [True, 1.0, "1"],
                             ids=["bool", "float", "string"])
    def test_non_integer_seed_refused(self, seed):
        # True once shuffled as seed 1
        with pytest.raises(TypeError, match="seed must be int"):
            greedy_packing_array(4, 3, 2, seed=seed)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError,
                           match="seed must be at least 0, got -1"):
            greedy_packing_array(4, 3, 2, seed=-1)

    def test_numpy_integer_seed_passes(self):
        want = greedy_packing_array(8, 3, 3, seed=1).rows
        for seed in (np.int64(1), np.uint8(1)):
            np.testing.assert_array_equal(
                greedy_packing_array(8, 3, 3, seed=seed).rows, want)

    def test_seeded_reproducibility(self):
        a = greedy_packing_array(6, 2, 3, max_rows=4, seed=11)
        b = greedy_packing_array(6, 2, 3, max_rows=4, seed=11)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_saturates_below_capacity(self):
        # no packing beyond d^k rows is possible; greedy stays within
        pa = greedy_packing_array(4, 2, 2, max_rows=None, seed=5)
        assert 2 <= pa.num_rows <= 4

    @pytest.mark.parametrize("levels, widths", [(2, range(1, 11)),
                                                (3, range(1, 8)),
                                                (4, range(1, 6))])
    def test_trusted_rows_pass_verify_pa(self, levels, widths):
        # the arrays skip the constructor's check; its checks hold anyway
        for num_cols in widths:
            for strength in range(1, num_cols + 1):
                for seed in (None, 0, 1):
                    pa = greedy_packing_array(num_cols, levels, strength,
                                              seed=seed)
                    assert verify_pa(pa.rows, levels, strength)
                    assert 2 <= pa.num_rows <= levels ** strength

    @pytest.mark.parametrize("args, kwargs", [
        ((8, 3, 3), {"seed": 1}), ((4, 3, 2), {"max_rows": 5}),
        ((3, 2, 3), {}), ((5, 2, 2), {"seed": 0})])
    def test_trusted_stores_what_the_constructor_stores(self, args, kwargs):
        trusted = greedy_packing_array(*args, **kwargs)
        _, levels, strength = args
        for rows in (trusted.rows, trusted.rows.astype(np.uint32)):
            checked = PackingArray(rows, levels, strength)
            got = PackingArray._trusted(rows, levels, strength)
            for pa in (trusted, got):
                assert np.array_equal(pa.rows, checked.rows)
                assert pa.rows.dtype == checked.rows.dtype
                assert not pa.rows.flags.writeable
                assert (pa.levels, pa.strength) == (levels, strength)
                assert (pa.num_rows, pa.num_cols) == (checked.num_rows,
                                                      checked.num_cols)


@cache
def candidate_rows(num_cols, levels):
    """Every candidate row's digits in code order (uint8) and its one-hot
    row (float32), whose products count agreeing columns exactly; both
    read-only, shared by the scans of one shape."""
    codes = np.arange(levels ** num_cols)
    digits = (codes[:, None] // levels ** np.arange(num_cols - 1, -1, -1)
              % levels).astype(np.uint8)
    onehot = np.equal.outer(digits, np.arange(levels)).reshape(
        len(codes), -1).astype(np.float32)
    for arr in (digits, onehot):
        arr.setflags(write=False)
    return digits, onehot


def full_scan_packing(num_cols, levels, strength, max_rows=None, seed=None):
    """Oracle: the greedy full scan, with the open candidates decided a
    batch at a time in the scan order instead of one by one; returns the
    kept rows.

    A candidate is kept exactly when no kept candidate before it in the
    scan agrees with it in `strength` or more columns.  Every candidate
    before a batch of the first open ones is decided, so the batch decides
    itself, in rounds: a row whose earlier conflicts in the batch are all
    dropped is kept, a row with a kept earlier conflict is dropped, and the
    first undecided row is kept in every round.  The batch's kept rows then
    close the candidates after it that agree with them in `strength` or
    more columns: by listing each kept row's neighbours, the row plus each
    shift with at most num_cols - strength nonzero digits, mod `levels`,
    or, where the open rows are fewer than the shifts, by comparing them
    with the kept rows.
    """
    digits, onehot = candidate_rows(num_cols, levels)
    total = len(digits)
    order = np.arange(total)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(total)
    place = levels ** np.arange(num_cols - 1, -1, -1)
    shifts = digits[np.count_nonzero(digits, axis=1) <= num_cols - strength]
    earlier = np.tri(256, k=-1, dtype=bool)  # row i against rows j < i
    blocked = np.zeros(total, dtype=bool)
    open_rows, kept = order, []
    while open_rows.size and (max_rows is None or len(kept) < max_rows):
        batch, rest = open_rows[:256], open_rows[256:]
        size = len(batch)
        conflict = ((onehot[batch] @ onehot[batch].T >= strength)
                    & earlier[:size, :size])
        keep = np.zeros(size, dtype=bool)
        drop = np.zeros(size, dtype=bool)
        while not np.all(keep | drop):
            undecided = ~(keep | drop)
            keep |= undecided & ~np.any(conflict & ~drop, axis=1)
            drop |= ~keep & np.any(conflict & keep, axis=1)
        new = batch[keep]
        kept.extend(new.tolist())
        if len(shifts) < len(rest):
            blocked[((digits[new, None, :] + shifts) % levels) @ place] = True
            open_rows = rest[~blocked[rest]]
        else:
            agree = onehot[rest] @ onehot[new].T
            open_rows = rest[~np.any(agree >= strength, axis=1)]
    return digits[kept[:max_rows]].astype(int)


class TestGreedyScan:
    """The scan over kept rows against the full scan it replaced."""

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("num_cols", range(1, 11))
    def test_matches_full_scan(self, num_cols, levels):
        for strength in range(1, num_cols + 1):
            for seed in (None, 0, 1, 2, 3):
                # a scan capped at m rows keeps the first m of the full one
                rows = full_scan_packing(num_cols, levels, strength,
                                         seed=seed)
                for max_rows in (None, 2, 3, 7):
                    got = greedy_packing_array(num_cols, levels, strength,
                                               max_rows=max_rows, seed=seed)
                    np.testing.assert_array_equal(got.rows, rows[:max_rows])
                    assert got.rows.dtype == rows.dtype
        capped = full_scan_packing(num_cols, levels, 1, max_rows=2, seed=0)
        np.testing.assert_array_equal(capped, full_scan_packing(
            num_cols, levels, 1, seed=0)[:2])

    @pytest.mark.parametrize("kwargs, name", [
        ({"levels": 1}, "levels"), ({"levels": 0}, "levels"),
        ({"levels": -2}, "levels"), ({"max_rows": 1}, "max_rows"),
        ({"max_rows": 0}, "max_rows"), ({"max_rows": -4}, "max_rows")])
    def test_counts_below_two_refused(self, kwargs, name):
        # refused up front, not by the PackingArray check or by numpy
        args = {"num_cols": 4, "levels": 3, "strength": 2, **kwargs}
        with pytest.raises(ValueError, match=f"{name} must be at least 2, "
                                             f"got {kwargs[name]}"):
            greedy_packing_array(**args)


class TestIntegerInputs:
    """Entries, counts and row indices are read as `states._integer` reads
    a count: integers (numpy ones too) pass; floats, bools and strings are
    refused, not converted."""

    def test_float_entries_refused(self):
        # int() would read these as the valid OA on 00, 01, 10, 11
        rows = [[0.2, 0.2], [0.3, 1.1], [1.4, 0.2], [1.5, 1.6]]
        with pytest.raises(TypeError, match="integers"):
            OrthogonalArray.from_rows(rows, 2, 2)
        with pytest.raises(TypeError, match="integers"):
            verify_oa(rows, 2, 2)

    @pytest.mark.parametrize("rows", [[["1", "0"], ["0", "1"]],
                                      [[True, False], [False, True]]],
                             ids=["strings", "bools"])
    def test_string_and_bool_entries_refused(self, rows):
        with pytest.raises(TypeError, match="integers"):
            verify_pa(rows, 2, 2)
        with pytest.raises(TypeError, match="integers"):
            PackingArray(rows, 2, 2)

    def test_integer_entries_pass(self):
        assert verify_pa(np.array([[1, 0], [0, 1]], dtype=np.uint8), 2, 2)
        assert verify_pa([[np.int64(1), 0], [0, 1]], 2, 2)

    @pytest.mark.parametrize("levels, strength", [(2.0, 2), (2, 2.0),
                                                  (True, 2), (2, "2")])
    def test_levels_and_strength_refused(self, levels, strength):
        with pytest.raises(TypeError):
            verify_pa([[1, 0], [0, 1]], levels, strength)
        with pytest.raises(TypeError):
            greedy_packing_array(3, levels, strength)

    def test_stated_index_refused(self):
        with pytest.raises(TypeError, match="index_lambda"):
            OrthogonalArray(OA_9_4_3_2, 3, 2, 1.0)

    @pytest.mark.parametrize("args, kwargs", [
        ((3, 2, 2), {"max_rows": 2.5}), ((3, 2, 2), {"max_rows": True}),
        ((3.0, 2, 2), {})])
    def test_greedy_counts_refused(self, args, kwargs):
        with pytest.raises(TypeError):
            greedy_packing_array(*args, **kwargs)
        assert greedy_packing_array(3, 2, 2, max_rows=np.int64(2)).num_rows == 2

    def test_bool_row_index_refused(self):
        g = qoa_state(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        with pytest.raises(TypeError, match="row index"):
            non_udp_witness(g, True)
        assert non_udp_witness(g, np.int64(1)).verified


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        oa = OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2)
        text = format_array_text(oa)
        back = parse_array_text(text)
        assert isinstance(back, OrthogonalArray)
        np.testing.assert_array_equal(back.rows, oa.rows)
        assert back.index_lambda == 1

    @pytest.mark.parametrize("levels", [11, 12, 3])
    def test_one_column_round_trip(self, levels):
        # `format_array_text` writes entry 10 of one column as "10", which
        # was once read back as the two entries 1 and 0 and refused
        pa = PackingArray(np.arange(levels)[:, None], levels, 1)
        back = parse_array_text(format_array_text(pa))
        np.testing.assert_array_equal(back.rows, pa.rows)

    def test_whitespace_rows(self):
        text = "PA 2 3 12 1\n0 5 11\n1 4 2\n"
        pa = parse_array_text(text)
        assert isinstance(pa, PackingArray)
        np.testing.assert_array_equal(pa.rows, [[0, 5, 11], [1, 4, 2]])

    @pytest.mark.parametrize("old, new", [
        ("OA 9 ", "OA 0_9 "), ("OA 9 ", "OA +9 "), ("OA 9 ", "OA \u0669 "),
        ("\n0000\n", "\n\u0660000\n"), ("\n0000\n", "\n0 0 0 +0\n")],
        ids=["header-underscore", "header-sign", "header-arabic-indic",
             "row-arabic-indic", "row-sign"])
    def test_numbers_take_ascii_digits_only(self, old, new):
        # int() read each of these as the plain number: "0_9" gave 9 rows
        text = format_array_text(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        assert old in text
        with pytest.raises(ValueError, match="header numbers|array entry"):
            parse_array_text(text.replace(old, new, 1))

    @pytest.mark.parametrize("old, new", [
        ("\n0000\n", "\n0000\u2003\n"), ("OA 9 4", "OA 9\u00a04"),
        ("\n0000\n", "\n0000\u2028"), ("\n0000\n", "\n0000\x0c\n")],
        ids=["row-em-space", "header-no-break-space", "line-separator",
             "form-feed"])
    def test_only_ascii_spaces_and_tabs_part_fields(self, old, new):
        # str.strip(), split() and splitlines() took each of these as
        # whitespace or a line break, and the array parsed
        text = format_array_text(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        assert old in text
        with pytest.raises(ValueError,
                           match="header|array entry|entries|rows"):
            parse_array_text(text.replace(old, new, 1))

    def test_ascii_spacing_and_comments_parse(self):
        text = format_array_text(OrthogonalArray.from_rows(OA_9_4_3_2, 3, 2))
        header, *rows = text.splitlines()
        spaced = "\r\n".join(
            ["# OA(9, 4, 3, 2)", "", "\t" + header.replace(" ", " \t ")]
            + [" \t".join(row) + " " for row in rows] + ["  # end", ""])
        np.testing.assert_array_equal(parse_array_text(spaced).rows,
                                      parse_array_text(text).rows)

    def test_header_row_count_must_match(self):
        with pytest.raises(ValueError, match="rows"):
            parse_array_text("OA 3 4 3 2\n0000\n0111\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_array_text("XX 1 2 3 4\n00\n")

    def test_verification_on_load(self):
        text = "OA 4 2 2 2\n00\n01\n10\n10\n"
        with pytest.raises(ValueError, match="orthogonal array"):
            parse_array_text(text)
