"""Orthogonal arrays, packing arrays, and the states built on their rows.

A packing array of strength k is a set of rows that pairwise agree in fewer
than k positions; irredundancy is the same test at N-k.  Index-1 orthogonal
arrays and packing arrays of strength k <= floor(N/2) are irredundant, so the
superposition of their rows with arbitrary nonzero amplitudes has
diagonal (N-k)-body marginals, and twisting the row phases yields a distinct
state with exactly the same complete (N-k)-deck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .certify import WitnessCheck, verify_twin
from .marginals import DECK_TOL, MarginalFamily
from .states import (PartyStructure, PureState, _integer, _seed,
                     _text_integer, _unchecked)

# Amplitudes this small (after normalization) void the all-nonzero hypothesis.
AMP_FLOOR = 1e-12


def _as_row_matrix(rows, levels: int, strength: int) -> np.ndarray:
    """`rows` as an integer matrix, with `levels` and `strength` checked.
    Entries, levels and strength are read as `states._integer` reads a
    count: integers pass, floats, bools and strings raise TypeError."""
    levels = _integer(levels, "levels")
    strength = _integer(strength, "strength")
    mat = np.asarray(rows)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("rows must form a nonempty 2-D integer array")
    if mat.dtype.kind not in "iu":
        raise TypeError(f"array entries must be integers, got {mat.dtype}")
    mat = mat.astype(int, copy=False)
    if mat.min() < 0 or mat.max() >= levels:
        raise ValueError(f"entries must lie in 0..{levels - 1}")
    if strength < 1 or strength > mat.shape[1]:
        raise ValueError(f"strength {strength} outside 1..{mat.shape[1]}")
    return mat


def _distinct_on_every(rows: np.ndarray, levels: int, width: int) -> bool:
    """True iff no two rows agree in `width` or more positions."""
    r, n_cols = rows.shape
    if r > levels ** width:
        return False
    # such rows differ in at most n_cols - width positions, so they agree on
    # all of one of n_cols - width + 1 disjoint column groups and, sorted by
    # that group, lie in one run at some offset s below the run's length
    for group in np.array_split(np.arange(n_cols), n_cols - width + 1):
        srt = rows[np.lexsort(rows[:, group].T)]
        for s in range(1, r):
            same = np.all(srt[s:, group] == srt[:-s, group], axis=1)
            if not same.any():
                break
            agree = np.count_nonzero(srt[s:][same] == srt[:-s][same], axis=1)
            if agree.max() >= width:
                return False
    return True


@dataclass(frozen=True)
class OaCheck:
    is_oa: bool
    index_lambda: int | None
    irredundant: bool


def verify_oa(rows, levels: int, strength: int) -> OaCheck:
    """Exhaustive check of the orthogonal-array counting property.

    Every strength-subset of columns must contain each tuple exactly
    r / levels^strength times.  Irredundancy additionally demands that rows
    pairwise agree in fewer than N-strength positions; with strength N, that
    full rows are distinct.  Index-1 arrays of strength <= N/2 always pass.
    """
    mat = _as_row_matrix(rows, levels, strength)
    r, n_cols = mat.shape
    lam, rem = divmod(r, levels ** strength)
    is_oa = rem == 0 and lam >= 1
    if is_oa:
        # each strength-tuple as its mixed-radix code; the codes lie below
        # levels**strength <= r, so the count table is no larger than mat
        place = levels ** np.arange(strength - 1, -1, -1)
        for cols in combinations(range(n_cols), strength):
            counts = np.bincount(mat[:, cols] @ place,
                                 minlength=levels ** strength)
            if np.any(counts != lam):
                is_oa = False
                break
    return OaCheck(is_oa=is_oa, index_lambda=lam if is_oa else None,
                   irredundant=_distinct_on_every(mat, levels,
                                                  n_cols - strength or n_cols))


def verify_pa(rows, levels: int, strength: int) -> bool:
    """True iff the rows pairwise agree in fewer than `strength` positions."""
    return _distinct_on_every(_as_row_matrix(rows, levels, strength), levels,
                              strength)


@dataclass(frozen=True)
class _RowArray:
    rows: np.ndarray
    levels: int
    strength: int

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def num_cols(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class OrthogonalArray(_RowArray):
    """r x N array over {0..d-1}: every strength-subset of columns sees each
    tuple exactly index_lambda times.  Verified on construction."""

    index_lambda: int

    def __post_init__(self):
        mat = _as_row_matrix(self.rows, self.levels, self.strength)
        check = verify_oa(mat, self.levels, self.strength)
        if not check.is_oa:
            raise ValueError(
                f"rows do not form an orthogonal array of strength {self.strength}"
            )
        if check.index_lambda != _integer(self.index_lambda, "index_lambda"):
            raise ValueError(f"rows form an orthogonal array of index "
                             f"{check.index_lambda}, not {self.index_lambda}")
        mat.setflags(write=False)
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "_irredundant", check.irredundant)

    @classmethod
    def from_rows(cls, rows, levels: int, strength: int) -> "OrthogonalArray":
        """The array on `rows`, its index taken from the row count."""
        mat = _as_row_matrix(rows, levels, strength)
        return cls(mat, levels, strength, mat.shape[0] // levels ** strength)

    @property
    def irredundant(self) -> bool:
        return self._irredundant


@dataclass(frozen=True)
class PackingArray(_RowArray):
    """r x N array over {0..d-1} where every strength-subset of columns sees
    each tuple at most once; 2 <= r <= d^strength.  Verified on
    construction; `greedy_packing_array` builds its arrays through
    `_trusted` instead, since its scan proves both."""

    def __post_init__(self):
        mat = _as_row_matrix(self.rows, self.levels, self.strength)
        r = mat.shape[0]
        if r < 2 or r > self.levels ** self.strength:
            raise ValueError(f"packing array needs 2 <= r <= "
                             f"{self.levels ** self.strength}, got r={r}")
        if not verify_pa(mat, self.levels, self.strength):
            raise ValueError(
                f"rows do not form a packing array of strength {self.strength}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "rows", mat)

    @classmethod
    def _trusted(cls, rows: np.ndarray, levels: int,
                 strength: int) -> "PackingArray":
        """Wrap rows that already form a packing array of 2 to
        levels^strength rows, without the constructor's `verify_pa`; they
        are stored as the constructor stores them, int and read-only."""
        mat = rows.astype(int)
        mat.setflags(write=False)
        return _unchecked(cls, rows=mat, levels=levels, strength=strength)


# The strength-2 array on nine qutrit rows whose uniform superposition has
# every 2-body marginal maximally mixed.
OA_9_4_3_2 = (
    (0, 0, 0, 0),
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (1, 0, 2, 1),
    (1, 1, 0, 2),
    (1, 2, 1, 0),
    (2, 0, 1, 2),
    (2, 1, 2, 0),
    (2, 2, 0, 1),
)


@dataclass(frozen=True)
class GeneralizedQoaState:
    """Superposition of an array's rows with explicit nonzero amplitudes."""

    array: OrthogonalArray | PackingArray
    amplitudes: np.ndarray
    state: PureState

    @property
    def num_parties(self) -> int:
        return self.array.num_cols

    @property
    def strength(self) -> int:
        return self.array.strength

    @property
    def num_rows(self) -> int:
        return self.array.num_rows


def _rows_to_state(array, amplitudes: np.ndarray) -> PureState:
    structure = PartyStructure.uniform(array.num_cols, array.levels)
    vec = np.zeros(structure.total_dim, dtype=np.complex128)
    vec[np.ravel_multi_index(array.rows.T, structure.local_dims)] = amplitudes
    return PureState.from_amplitudes(structure, vec, normalize=True)


def _per_row(values, r: int, dtype, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=dtype)
    if vec.shape != (r,):
        raise ValueError(f"need {r} {name}, got shape {vec.shape}")
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise ValueError(f"non-finite {name} {vec[bad[:4]].tolist()} "
                         f"at row indices {bad[:4].tolist()}")
    return vec


def qoa_state(array, amplitudes=None) -> GeneralizedQoaState:
    """State sum_i a_i |row_i> from an array; uniform amplitudes by default.

    For an index-1 orthogonal array with uniform amplitudes, every
    strength-body marginal of the result is maximally mixed.  An array
    with repeated rows is refused (ValueError).  The rows are scanned for
    repeats only when the array's own invariant leaves them possible: a
    `PackingArray`'s rows pairwise agree in fewer than strength <= N
    columns, and an irredundant `OrthogonalArray`'s in fewer than N, so
    neither can repeat one.
    """
    r = array.num_rows
    distinct = isinstance(array, PackingArray) or (
        isinstance(array, OrthogonalArray) and array.irredundant)
    if not (distinct or _distinct_on_every(array.rows, array.levels,
                                           array.num_cols)):
        raise ValueError("array has repeated rows; amplitudes would merge")
    if amplitudes is None:
        amps = np.full(r, 1.0 / math.sqrt(r), dtype=np.complex128)
    else:
        amps = _per_row(amplitudes, r, np.complex128, "amplitudes")
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("amplitude vector is zero")
    amps = amps / nrm
    if np.min(np.abs(amps)) <= AMP_FLOOR:
        raise ValueError(
            f"all amplitudes must exceed {AMP_FLOOR} in modulus after normalization"
        )
    amps.setflags(write=False)
    return GeneralizedQoaState(array, amps, _rows_to_state(array, amps))


def non_udp_witness(gstate: GeneralizedQoaState, phases, *,
                    deck_tol: float = DECK_TOL) -> WitnessCheck:
    """Phase-twist the row amplitudes and verify the complete (N-k)-deck match.

    `phases` is either a single row index (that row's amplitude is negated) or
    a full phase vector.  The construction refutes uniqueness only for
    strength k <= floor(N/2); larger strengths are refused.
    """
    n = gstate.num_parties
    k = gstate.strength
    if k > n // 2:
        raise ValueError(
            f"strength {k} exceeds floor(N/2) = {n // 2}; the deck match is "
            "only guaranteed below that"
        )
    r = gstate.num_rows
    if isinstance(phases, (int, np.integer)):
        phases = _integer(phases, "row index")  # a bool is refused
        if phases < 0 or phases >= r:
            raise ValueError(f"row index {phases} outside 0..{r - 1}")
        phases = np.where(np.arange(r) == phases, math.pi, 0.0)
    phases = _per_row(phases, r, float, "phases")
    unit = np.exp(1j * phases)
    if np.max(np.abs(unit - unit[0])) < 1e-12:
        raise ValueError("phases are all equal; the twist is only a global phase")
    twisted = _rows_to_state(gstate.array, gstate.amplitudes * unit)
    family = MarginalFamily.complete(n, n - k)
    return verify_twin(gstate.state, twisted, family, deck_tol=deck_tol)


def greedy_packing_array(num_cols: int, levels: int, strength: int, *,
                         max_rows: int | None = None,
                         seed=None) -> PackingArray:
    """Greedy packing-array builder: scan candidate rows, keep each one that
    agrees with every kept row in fewer than `strength` positions.

    With an integer `seed`, read by `states._seed` (TypeError unless an
    int, ValueError below 0), the candidate order is shuffled; with
    seed=None the scan is lexicographic.  Stops at `max_rows` when given.
    The counts are read by `states._integer`: a float, bool or string
    raises TypeError; `levels` and `max_rows` below 2 raise ValueError.

    The scan visits only the rows it keeps: each one blocks the candidates
    it agrees with in `strength` or more positions, and the scan jumps to
    the next candidate still open.  Those candidates are the kept row plus
    each shift with at most num_cols - strength nonzero digits, mod
    `levels`, so each of their codes is a sum over the columns of one entry
    per (column, digit) of a table built once.  A kept row then costs one
    gather and sum over the shifts; a jump costs one search of the open
    flags, which stops at the first open one, so the searches together read
    each flag at most once.  At strength = num_cols a row blocks only
    itself, so the kept rows are the scan order itself, up to `max_rows`.

    The rows come back through `PackingArray._trusted`, without the
    constructor's `verify_pa`, as the scan proves what it checks:
    - each kept row blocks every later candidate that agrees with it in
      `strength` or more columns, so kept rows pairwise agree in fewer;
    - 2 <= r <= levels^strength: the first row is kept, and a row that
      differs from it in every column agrees with it in none, so it stays
      open while the scan may take a second row (max_rows >= 2); and rows
      that pairwise agree in fewer than `strength` columns differ on the
      first `strength` columns, which take levels^strength values.
    """
    num_cols = _integer(num_cols, "num_cols")
    levels = _integer(levels, "levels")
    strength = _integer(strength, "strength")
    if max_rows is not None:
        max_rows = _integer(max_rows, "max_rows")
        if max_rows < 2:
            raise ValueError(f"max_rows must be at least 2, got {max_rows}")
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    if strength < 1 or strength > num_cols:
        raise ValueError(f"strength {strength} outside 1..{num_cols}")
    total = levels ** num_cols
    if total > 300000:
        raise ValueError("candidate space too large for the greedy builder")
    order = np.arange(total)
    if seed is not None:
        order = np.random.default_rng(_seed(seed)).permutation(total)
    # values stay below 2 * total <= 600000, so 32 bits hold every digit,
    # table entry and code
    digits = np.indices((levels,) * num_cols, dtype=np.uint32).reshape(
        num_cols, total)
    if strength == num_cols:  # a row blocks itself alone: all are kept
        return PackingArray._trusted(digits[:, order[:max_rows]].T, levels,
                                     strength)
    position = np.empty(total, dtype=np.intp)
    position[order] = np.arange(total)
    shifts = digits[:, np.count_nonzero(digits, axis=0) <= num_cols - strength]
    place = levels ** np.arange(num_cols - 1, -1, -1, dtype=np.uint32)
    # table[c, v]: column c's share of the code of each neighbour of a row
    # whose digit in column c is v, ((v + shift) mod levels) place[c]; with
    # unsigned wrap-around, a sum below levels minus levels exceeds the sum,
    # so the smaller of the two products is the one mod levels
    table = np.arange(levels, dtype=np.uint32)[:, None] + shifts[:, None, :]
    table *= place[:, None, None]
    np.minimum(table, table - levels * place[:, None, None], out=table)
    table = table.reshape(num_cols * levels, -1)
    slots = levels * np.arange(num_cols, dtype=np.uint32)
    blocked = np.zeros(total, dtype=bool)  # by position in the scan
    kept = []
    start = 0
    while start < total and (max_rows is None or len(kept) < max_rows):
        if blocked[start]:  # jump to the next open candidate, if any
            start += int(np.argmin(blocked[start:]))
            if blocked[start]:
                break
        row = order[start]
        kept.append(row)
        codes = table[slots + digits[:, row]].sum(axis=0, dtype=np.uint32)
        blocked[position[codes]] = True
        start += 1
    return PackingArray._trusted(digits[:, kept].T, levels, strength)


# ---------------------------------------------------------------------------
# Text format: header "OA r N d k" or "PA r N d k", then one row per line,
# written either as contiguous digits (levels <= 10) or parted by spaces/tabs.
# ---------------------------------------------------------------------------

def parse_array_text(text: str):
    """Lines end at "\n" (after a dropped "\r") and fields at ASCII spaces
    and tabs only: other whitespace fails as a number (ValueError).  A row
    without spaces is one digit a character, or one entry in one column."""
    lines = [ln for ln in (raw.removesuffix("\r").replace("\t", " ")
                           .strip(" ") for raw in text.split("\n"))
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty array file")
    header = [x for x in lines[0].split(" ") if x]
    if len(header) != 5 or header[0].upper() not in ("OA", "PA"):
        raise ValueError("header must be 'OA r N d k' or 'PA r N d k'")
    kind = header[0].upper()
    try:
        r, n_cols, levels, strength = (_text_integer(x, "header number")
                                       for x in header[1:])
    except ValueError as exc:
        raise ValueError(f"bad header numbers in {lines[0]!r}") from exc
    if len(lines) - 1 != r:
        raise ValueError(f"header promises {r} rows, file has {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ([x for x in ln.split(" ") if x] if " " in ln or n_cols == 1
                 else list(ln))
        row = [_text_integer(x, "array entry") for x in parts]
        if len(row) != n_cols:
            raise ValueError(f"row {ln!r} has {len(row)} entries, expected {n_cols}")
        rows.append(row)
    mat = np.array(rows, dtype=int)
    if kind == "OA":
        return OrthogonalArray.from_rows(mat, levels, strength)
    return PackingArray(mat, levels, strength)


def format_array_text(array) -> str:
    kind = "OA" if isinstance(array, OrthogonalArray) else "PA"
    lines = [f"{kind} {array.num_rows} {array.num_cols} "
             f"{array.levels} {array.strength}"]
    contiguous = array.levels <= 10
    for row in array.rows:
        lines.append("".join(str(x) for x in row) if contiguous
                     else " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
