"""N-qudit pure states with an explicit party structure.

Conventions used throughout the package:

* Parties are labeled 1..N.  Party 1 is the *most significant* digit of the
  mixed-radix basis index, i.e. the leftmost digit in a ket string like
  ``|011>``.
* Subsets of parties are sorted, duplicate-free tuples of 1-based labels.
* All state vectors are dense complex128 arrays, normalized to unit norm.
* A flat vector over some parties is their tensor in numpy C order, first
  party the leading axis; `_cut` and `_uncut` are the only conversions
  between that layout and a matrix across a bipartition.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Product of local dimensions may not exceed this; larger systems are refused
# outright instead of silently degrading.
DIM_CAP = 65536

NORM_TOL = 1e-12
# Hermiticity, trace and positivity tolerance of a `Marginal`.
MARGINAL_TOL = 1e-10


def check_subset(parties, num_parties: int, *, allow_empty: bool = False) -> tuple[int, ...]:
    """Sorted duplicate-free tuple of party labels, each read by `_integer`."""
    subset = tuple(sorted(_integer(p, "party") for p in parties))
    if not subset and not allow_empty:
        raise ValueError("party subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate parties in subset {subset}")
    for p in subset:
        if p < 1 or p > num_parties:
            raise ValueError(f"party {p} outside 1..{num_parties}")
    return subset


def complement(subset, num_parties: int) -> tuple[int, ...]:
    """Complement of a party subset within {1..num_parties}."""
    inside = set(subset)
    return tuple(p for p in range(1, num_parties + 1) if p not in inside)


@dataclass(frozen=True)
class PartyStructure:
    """Number of parties and their local dimensions."""

    num_parties: int
    local_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_parties",
                           _integer(self.num_parties, "num_parties"))
        object.__setattr__(self, "local_dims", tuple(
            _integer(d, "local dimension") for d in self.local_dims))
        if self.num_parties < 1:
            raise ValueError("need at least one party")
        if len(self.local_dims) != self.num_parties:
            raise ValueError("local_dims length must equal num_parties")
        if any(d < 2 for d in self.local_dims):
            raise ValueError("every local dimension must be at least 2")
        if self.total_dim > DIM_CAP:
            raise ValueError(
                f"total dimension {self.total_dim} exceeds cap {DIM_CAP}"
            )

    @classmethod
    def uniform(cls, num_parties: int, local_dim: int) -> "PartyStructure":
        return cls(num_parties, (local_dim,) * num_parties)

    @property
    def total_dim(self) -> int:
        return math.prod(self.local_dims)

    def subset_dim(self, parties) -> int:
        parties = check_subset(parties, self.num_parties, allow_empty=True)
        return math.prod(self.local_dims[p - 1] for p in parties)

    def index_to_digits(self, index: int) -> tuple[int, ...]:
        """Big-endian mixed-radix digits of a basis index (party 1 first)."""
        index = _integer(index, "basis index")
        if index < 0 or index >= self.total_dim:
            raise ValueError(f"basis index {index} outside 0..{self.total_dim - 1}")
        return tuple(map(int, np.unravel_index(index, self.local_dims)))

    def digits_to_index(self, digits) -> int:
        digits = tuple(_integer(x, "digit") for x in digits)
        if len(digits) != self.num_parties:
            raise ValueError(
                f"expected {self.num_parties} digits, got {len(digits)}"
            )
        for digit, d in zip(digits, self.local_dims):
            if digit < 0 or digit >= d:
                raise ValueError(f"digit {digit} out of range for local dimension {d}")
        return int(np.ravel_multi_index(digits, self.local_dims))

    def parse_basis_label(self, label: str) -> tuple[int, ...]:
        """Parse a ket label, either contiguous digits ('0121'; one digit
        for one party) or comma separated ('0, 12, 1'); each digit is ASCII
        0-9 only, so other Unicode digits and signs are refused.  Spaces
        may surround the label and each comma-separated part."""
        label = label.strip(" ")
        parts = (label.split(",") if "," in label or self.num_parties == 1
                 else list(label))
        digits = tuple(_text_integer(s, f"basis label {label!r} digit")
                       for s in parts)
        self.digits_to_index(digits)  # range validation
        return digits

    def basis_label(self, index: int) -> str:
        digits = self.index_to_digits(index)
        if all(d <= 10 for d in self.local_dims):
            return "".join(str(x) for x in digits)
        return ",".join(str(x) for x in digits)


def _cut(vectors: np.ndarray, dims, first, out=None) -> np.ndarray:
    """Flat vectors (..., prod(dims)) as matrices (..., d_first, d_rest).

    `dims` are the local dimensions of the vectors' parties in order, and
    `first` lists positions into `dims` (0-based) for the row index, in the
    given order; the other positions form the column index in ascending
    order.  Leading stack axes are kept.  With `out`, a C-contiguous array
    of the result's shape, the matrices are copied into it once and `out`
    is returned.
    """
    lead = vectors.shape[:-1]
    rest = [i for i in range(len(dims)) if i not in first]
    skip = len(lead)
    d_first = math.prod(dims[i] for i in first)
    d_rest = math.prod(dims) // d_first
    tensor = vectors.reshape(*lead, *dims).transpose(
        *range(skip), *(skip + i for i in first), *(skip + i for i in rest))
    if out is not None:
        out.reshape(tensor.shape)[...] = tensor
        return out
    return tensor.reshape(*lead, d_first, d_rest)


def _uncut(matrix: np.ndarray, dims, first) -> np.ndarray:
    """Inverse of `_cut` for one matrix (d_first, d_rest): the flat vector."""
    order = [*first, *(i for i in range(len(dims)) if i not in first)]
    return (matrix.reshape([dims[i] for i in order])
            .transpose(np.argsort(order)).reshape(-1))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Pure state given by its amplitude vector over the computational basis."""

    structure: PartyStructure
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if vec.shape != (self.structure.total_dim,):
            raise ValueError(
                f"amplitude vector has shape {vec.shape}, "
                f"expected ({self.structure.total_dim},)"
            )
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise ValueError(f"non-finite amplitudes {vec[bad[:4]].tolist()} "
                             f"at basis indices {bad[:4].tolist()}")
        nrm2 = float(np.vdot(vec, vec).real)
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"state not normalized: |norm^2 - 1| = {abs(nrm2 - 1.0):.3e}"
            )
        object.__setattr__(self, "amplitudes", _freeze(vec.copy()))

    @classmethod
    def from_amplitudes(cls, structure: PartyStructure, amplitudes,
                        normalize: bool = False) -> "PureState":
        vec = np.asarray(amplitudes, dtype=np.complex128)
        if normalize:
            nrm = np.linalg.norm(vec)
            if not math.isfinite(nrm):
                raise ValueError(f"cannot normalize amplitudes of non-finite "
                                 f"norm {nrm}")
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / nrm
        return cls(structure, vec)

    @classmethod
    def basis_state(cls, structure: PartyStructure, digits) -> "PureState":
        vec = np.zeros(structure.total_dim, dtype=np.complex128)
        vec[structure.digits_to_index(digits)] = 1.0
        return cls(structure, vec)

    @property
    def num_parties(self) -> int:
        return self.structure.num_parties


def ghz_state(num_parties: int, local_dim: int = 2,
              alpha: complex = None, beta: complex = None) -> PureState:
    """Generalized GHZ state alpha|0..0> + beta|d-1..d-1> (balanced by
    default); alpha and beta are given both or neither, else ValueError."""
    structure = PartyStructure.uniform(num_parties, local_dim)
    if (alpha is None) != (beta is None):
        raise ValueError("give both GHZ amplitudes alpha and beta, or neither")
    if alpha is None:
        alpha = beta = 1.0 / math.sqrt(2.0)
    vec = np.zeros(structure.total_dim, dtype=np.complex128)
    vec[0] = alpha
    vec[-1] = beta
    return PureState.from_amplitudes(structure, vec, normalize=True)


def sample_haar_state(structure: PartyStructure, seed) -> PureState:
    """Haar-random pure state: i.i.d. standard complex Gaussians, normalized.

    `seed` is a numpy Generator, drawn from, or an integer read by `_seed`;
    a fixed integer seed gives a reproducible state.
    """
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(_seed(seed)))
    dim = structure.total_dim
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.from_amplitudes(structure, vec, normalize=True)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.structure != b.structure:
        raise ValueError("states live on different party structures")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_up_to_phase(a: PureState, b: PureState) -> float:
    """max over theta of |<a| e^{i theta} |b>|, i.e. |<a|b>|."""
    return abs(inner_product(a, b))


@dataclass(frozen=True)
class Marginal:
    """Reduced density matrix of a subset of parties.

    The public constructor validates its input: Hermitian, unit trace and
    positive semidefinite, each within MARGINAL_TOL.
    `marginals.partial_trace` builds its marginals through `_trusted`
    instead: its rho = M M^dagger of a norm-checked state meets all three
    by construction, with rounding errors far inside the tolerances (the
    bound is in its docstring), so the checks would only cost time.
    """

    parties: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        parties = tuple(sorted(_integer(p, "party") for p in self.parties))
        if not parties or len(set(parties)) != len(parties):
            raise ValueError("marginal parties must be a nonempty duplicate-free subset")
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("marginal matrix must be square")
        # written as `not err <= tol` so that a NaN error is refused too
        herm_err = np.linalg.norm(mat - mat.conj().T)
        if not herm_err <= MARGINAL_TOL:
            raise ValueError(f"marginal not Hermitian: |rho - rho^dag| = {herm_err:.3e}")
        tr_err = abs(np.trace(mat).real - 1.0) + abs(np.trace(mat).imag)
        if not tr_err <= MARGINAL_TOL:
            raise ValueError(f"marginal trace deviates from 1 by {tr_err:.3e}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if not min_eig >= -MARGINAL_TOL:
            raise ValueError(f"marginal has negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "matrix", _freeze(mat.copy()))

    @classmethod
    def _trusted(cls, parties: tuple[int, ...],
                 matrix: np.ndarray) -> "Marginal":
        """Wrap a sorted subset and a freshly computed, unshared complex128
        matrix without the constructor's checks; the matrix is frozen in
        place, not copied."""
        return _unchecked(cls, parties=parties, matrix=_freeze(matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# JSON serialization
#
# Format: {"num_parties": N, "local_dims": [...],
#          "amplitudes": [{"basis": "<digits, party 1 leftmost>",
#                          "re": x, "im": y}, ...],
#          "normalize": false}
# Basis strings not listed carry amplitude zero.
# ---------------------------------------------------------------------------

def state_to_json_dict(state: PureState) -> dict:
    entries = []
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        entries.append({
            "basis": state.structure.basis_label(idx),
            "re": float(amp.real),
            "im": float(amp.imag),
        })
    return {
        "num_parties": state.structure.num_parties,
        "local_dims": list(state.structure.local_dims),
        "amplitudes": entries,
    }


def _checked(value, kind, name: str):
    """`value` if its type is exactly `kind`, or one of a tuple of kinds (so
    no bool passes for an int), else TypeError."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        raise TypeError(f"{name} must be "
                        f"{' or '.join(k.__name__ for k in kinds)}, "
                        f"got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """`value` as an int by `operator.index` (numpy integers pass, floats
    and strings do not), else TypeError; bool is refused too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be int, got {value!r}")


def _seed(value) -> int:
    """A seed read by `_integer` (TypeError), at least 0 (else ValueError)."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    return seed


def _unchecked(cls, **values):
    """An instance of the frozen dataclass `cls` holding `values` as they
    are, without its `__post_init__`: the one way past a record's checks,
    for callers that prove them.  Every field must be given, no other
    name, else TypeError."""
    # the field map itself: `fields(cls)` would double the cost of each
    # trusted marginal of a deck
    names = cls.__dataclass_fields__
    if values.keys() != names.keys():
        raise TypeError(f"{cls.__name__} needs the fields {list(names)}, "
                        f"got {list(values)}")
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


def _dumps(data) -> str:
    """Strict JSON text, indented with sorted keys: a non-finite float
    raises ValueError instead of leaving as the invalid tokens NaN or
    Infinity."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False)


def _text_integer(text: str, name: str) -> int:
    """The integer `text` writes in ASCII digits 0-9, spaces around it
    allowed; anything else (a sign, an underscore, another script's
    digits) is ValueError."""
    digits = text.strip(" ")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid {name} {text!r}: expected digits 0-9")
    return int(digits)


def _tolerance(value, name: str):
    """`value` if it lies in (0, 1e-2), else ValueError (NaN never does)."""
    if not 0.0 < value < 1e-2:
        raise ValueError(f"{name}={value} outside (0, 1e-2)")
    return value


def state_from_json_dict(data: dict) -> PureState:
    """Inverse of `state_to_json_dict`.  The party count and dimensions must
    be JSON integers, the amplitudes a list, each basis label a string and
    each `re` / `im` a JSON number; other values are refused, not converted."""
    try:
        num_parties = _checked(data["num_parties"], int, "num_parties")
        local_dims = [_checked(d, int, "local dimension")
                      for d in data["local_dims"]]
        raw_amps = _checked(data["amplitudes"], list, "amplitudes")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state record: {exc}") from exc
    normalize = data.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ValueError(f"malformed state record: normalize must be true or "
                         f"false, got {normalize!r}")
    structure = PartyStructure(num_parties, local_dims)
    vec = np.zeros(structure.total_dim, dtype=np.complex128)
    seen = set()
    for entry in raw_amps:
        try:
            basis = _checked(entry["basis"], str, "basis")
            amp = complex(_checked(entry.get("re", 0.0), (int, float), "re"),
                          _checked(entry.get("im", 0.0), (int, float), "im"))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed state record: amplitude entry "
                             f"{entry!r}: {exc}") from exc
        idx = structure.digits_to_index(structure.parse_basis_label(basis))
        if idx in seen:
            raise ValueError(f"duplicate basis entry {basis!r}")
        seen.add(idx)
        vec[idx] = amp
    if not np.any(vec):
        raise ValueError("state record has zero amplitude vector")
    return PureState.from_amplitudes(structure, vec, normalize=normalize)


def load_state(source) -> PureState:
    """Load a state from a JSON dict, a JSON text string, or a file path."""
    if isinstance(source, dict):
        return state_from_json_dict(source)
    if isinstance(source, Path):
        text = source.read_text()
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state JSON: {exc}") from exc
    return state_from_json_dict(data)


def save_state(state: PureState, path) -> None:
    """Write `state_to_json_dict(state)` to `path` as `_dumps` text."""
    Path(path).write_text(_dumps(state_to_json_dict(state)))
