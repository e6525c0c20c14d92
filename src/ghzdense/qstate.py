"""Exact state-vector algebra for small qubit registers.

Conventions, fixed across the whole package:

* Qubit positions are 1-based. Qubit 1 is the most significant bit of a
  basis-state index, so for three qubits the ket |011> sits at index 3.
* Values are immutable once constructed; every operation returns a new
  value and all functions are pure.
* Exact-algebra checks use the shared tolerance ``ATOL`` (1e-12). The
  amplitudes handled here are signed powers of 1/sqrt(2), so everything
  should hold near machine precision.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

ATOL = 1e-12
MAX_QUBITS = 20  # dense amplitude arrays; 2**20 is the supported ceiling
# Dense 2^n x 2^n operators the package builds (embed_on_subset,
# haar_random_unitary): 16 MB at the ceiling, against 8x8 in the protocols.
_MAX_OPERATOR_QUBITS = 10


def _checked(value, name: str, low, high=None, kind=int):
    """``value`` as a plain ``kind`` (int or float) in [low, high], the input
    check of every entry point: Python and numpy numbers pass, bools and
    other types do not, and every rejection is a ``ValueError``."""
    if type(value) is not kind:  # plain ints and floats skip the type checks
        kinds = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds):
            what = "an integer" if kind is int else "a real number"
            raise ValueError(f"{name} must be {what}, got {value!r}")
        value = kind(value)
    if not (low <= value if high is None else low <= value <= high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {value!r}")
    return value


def _qubit_count(dim, name: str, max_qubits: int) -> int:
    """n for an integer dimension ``dim`` = 2^n with 1 <= n <= ``max_qubits``,
    the one dimension check. It reads only the integer, so a builder can
    run it before it allocates."""
    n = _checked(dim, name, 2, 1 << max_qubits).bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"{name} {dim} is not a power of two >= 2")
    return n


def _rng(seed) -> np.random.Generator:
    """Random stream for ``seed``, the package's one seed check: a
    ``numpy.random.Generator`` passes through, any other seed must be an
    integer >= 0."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked(seed, "rng_seed", 0))


def _haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar-random dim x dim unitaries, shape (count, dim, dim).

    QR orthonormalization of complex Gaussian matrices; the R factor's
    diagonal phases are divided out, which removes the QR sign ambiguity
    and makes the distribution properly uniform (Mezzadri,
    arXiv:math-ph/0609050).
    """
    z = (rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _as_finite_complex(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


class StateVector:
    """Normalized complex amplitude vector over one or more qubits."""

    __slots__ = ("_amps", "_n_qubits")

    def __init__(self, amplitudes) -> None:
        amps = _as_finite_complex(amplitudes, "amplitudes")
        if amps.ndim != 1:
            raise ValueError("amplitudes must be one-dimensional")
        n = _qubit_count(amps.shape[0], "amplitude count", MAX_QUBITS)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {ATOL}")
        amps.setflags(write=False)
        self._amps = amps
        self._n_qubits = n

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only amplitude array, indexed by basis state."""
        return self._amps

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def dim(self) -> int:
        return self._amps.shape[0]

    def probabilities(self) -> np.ndarray:
        """Born-rule probability vector |amplitude|^2 (a fresh, writable array)."""
        return np.abs(self._amps) ** 2

    def __repr__(self) -> str:
        terms = ", ".join(
            f"|{idx:0{self._n_qubits}b}>: {amp:.6g}"
            for idx, amp in enumerate(self._amps)
            if abs(amp) > 1e-9
        )
        return f"StateVector({terms})"

    @classmethod
    def _from_unitary_output(cls, amps: np.ndarray) -> StateVector:
        # Internal fast path for products of a checked unitary with an
        # already-validated state: finiteness and unit norm are carried
        # by the algebra (and property-tested), so skip re-validation.
        obj = object.__new__(cls)
        amps.setflags(write=False)
        obj._amps = amps
        obj._n_qubits = amps.shape[0].bit_length() - 1
        return obj


class UnitaryMatrix:
    """Square complex matrix, checked for unitarity at construction time."""

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        m = _as_finite_complex(entries, "entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must form a square matrix")
        _qubit_count(m.shape[0], "dimension", MAX_QUBITS)
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if defect > ATOL:
            raise ValueError(f"matrix is not unitary (max |U^H U - I| = {defect:.3e})")
        m.setflags(write=False)
        self._entries = m

    @property
    def entries(self) -> np.ndarray:
        """Read-only matrix entries."""
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def dagger(self) -> UnitaryMatrix:
        """Conjugate transpose (the inverse)."""
        return UnitaryMatrix(self._entries.conj().T)

    def __matmul__(self, other: UnitaryMatrix) -> UnitaryMatrix:
        return UnitaryMatrix(self._entries @ other.entries)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


IDENTITY = UnitaryMatrix(np.eye(2))
PAULI_X = UnitaryMatrix([[0, 1], [1, 0]])
PAULI_Y = UnitaryMatrix([[0, -1j], [1j, 0]])
PAULI_Z = UnitaryMatrix([[1, 0], [0, -1]])
HADAMARD = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
# Control is the first qubit of the pair the gate is applied to.
CNOT = UnitaryMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
# The names encoders, networks and error patterns use for the gates above.
_NAMED_GATES = {"I": IDENTITY, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD, "CNOT": CNOT}


def basis_state(bits: str) -> StateVector:
    """Computational basis ket from its bit-string label, e.g. ``"011"``."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"malformed bit string {bits!r}")
    _checked(len(bits), "bit string length", 1, MAX_QUBITS)
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugating ``a``."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2. Equals 1 exactly when the states agree up to a global phase.

    This is the only notion of state equality used in this package; raw
    amplitude comparison would wrongly distinguish physically identical
    states.
    """
    return float(abs(inner_product(a, b)) ** 2)


def tensor(u: UnitaryMatrix, v: UnitaryMatrix) -> UnitaryMatrix:
    """Kronecker product; ``u`` acts on the more significant qubits."""
    return UnitaryMatrix(np.kron(u.entries, v.entries))


def _checked_axes(qubits: Sequence[int], n_qubits: int) -> tuple[int, ...]:
    positions = tuple(_checked(q, "qubit", 1, n_qubits) for q in qubits)
    if not positions:
        raise ValueError("qubit subset is empty")
    if len(set(positions)) != len(positions):
        raise ValueError(f"qubit positions must be distinct, got {positions}")
    return tuple(q - 1 for q in positions)


def _split(state: StateVector, qubits: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """The checked axes of ``qubits`` and the 2^k x 2^(n-k) amplitude
    matrix whose row index is those qubits' bits, the first listed qubit
    most significant, and whose column index is the other qubits' bits in
    order: the package's one split of a register into a subset and the rest."""
    axes = _checked_axes(qubits, state.n_qubits)
    # One transpose, listed axes first: np.moveaxis builds the same order at several times the cost.
    order = axes + tuple(a for a in range(state.n_qubits) if a not in axes)
    psi = state.amplitudes.reshape((2,) * state.n_qubits).transpose(order)
    return axes, psi.reshape(1 << len(axes), -1)


def apply_on_subset(state: StateVector, u: UnitaryMatrix, qubits: Sequence[int]) -> StateVector:
    """Apply ``u`` to the listed qubits of ``state`` and identity elsewhere.

    The i-th listed position receives the i-th tensor factor of ``u``, so
    the first listed qubit is the most significant bit of u's own index
    (for CNOT that makes it the control).
    """
    axes, rows = _split(state, qubits)
    if u.dim != rows.shape[0]:
        raise ValueError(f"operator dimension {u.dim} does not match {len(axes)} qubit(s)")
    out = np.moveaxis((u.entries @ rows).reshape((2,) * state.n_qubits), range(len(axes)), axes)
    return StateVector._from_unitary_output(np.ascontiguousarray(out.reshape(state.dim)))


def _operator(state_map, n_qubits: int) -> UnitaryMatrix:
    """The 2^n x 2^n matrix whose column j is ``state_map`` applied to
    computational ket j. Built column by column, so it is only meant for
    small registers: ``n_qubits`` above ``_MAX_OPERATOR_QUBITS`` is a
    ``ValueError``."""
    dim = 1 << _checked(n_qubits, "n_qubits", 1, _MAX_OPERATOR_QUBITS)
    full = np.empty((dim, dim), dtype=np.complex128)
    for col in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[col] = 1.0
        full[:, col] = state_map(StateVector(e)).amplitudes
    return UnitaryMatrix(full)


def embed_on_subset(u: UnitaryMatrix, qubits: Sequence[int], n_qubits: int) -> UnitaryMatrix:
    """Full 2^n x 2^n matrix acting as ``u`` on ``qubits`` and identity
    elsewhere; only meant for small registers, at most 10 qubits."""
    return _operator(lambda ket: apply_on_subset(ket, u, qubits), n_qubits)


def measure_computational(state: StateVector, rng_seed) -> tuple[str, float]:
    """Sample a computational-basis outcome by the Born rule.

    Parameters
    ----------
    state:
        State to measure (it is not modified; this is a pure sampler).
    rng_seed:
        Integer seed >= 0 or ``numpy.random.Generator``; anything else,
        bools included, is a ``ValueError``. The same seed always yields
        the same outcome.

    Returns
    -------
    tuple
        The outcome as a bit string (qubit 1 first) and its probability.
    """
    probs = state.probabilities()
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, _rng(rng_seed).random() * cdf[-1], side="right"))
    idx = min(idx, state.dim - 1)
    return format(idx, f"0{state.n_qubits}b"), float(probs[idx])


def haar_random_unitary(dim: int, rng_seed) -> UnitaryMatrix:
    """Haar-distributed unitary of dimension ``dim`` (a power of two from 2
    to 2^10), the one-matrix case of the package's batched QR sampler.

    ``rng_seed`` is an integer seed >= 0 or a ``numpy.random.Generator``,
    as in :func:`measure_computational`; a non-integer ``dim`` or seed is a
    ``ValueError``.
    """
    n = _qubit_count(dim, "dimension", _MAX_OPERATOR_QUBITS)
    return UnitaryMatrix(_haar_unitaries(1, 1 << n, _rng(rng_seed))[0])


def dump_state(state: StateVector) -> str:
    """Serialize to text: header ``nqubits <n>``, then one ``index re im``
    line per nonzero amplitude. Floats use shortest round-trip notation,
    so dump followed by load reproduces the state exactly."""
    lines = [f"nqubits {state.n_qubits}"]
    for idx, amp in enumerate(state.amplitudes):
        if amp != 0:
            lines.append(f"{idx} {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


def load_state(text: str) -> StateVector:
    """Parse the ``dump_state`` text format.

    Amplitudes whose norm is within ``ATOL`` of 1 are kept as written, so
    ``load_state(dump_state(s))`` reproduces ``s`` bit for bit. Reduced
    precision is renormalized; a norm more than 1e-9 away from 1 is
    rejected as malformed instead.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty state text")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "nqubits":
        raise ValueError("first line must be 'nqubits <n>'")
    try:
        n = int(header[1])
    except ValueError:
        raise ValueError(f"malformed qubit count {header[1]!r}") from None
    n = _checked(n, "qubit count", 1, MAX_QUBITS)
    amps = np.zeros(1 << n, dtype=np.complex128)
    seen: set[int] = set()
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 3:
            raise ValueError(f"expected 'index re im', got {ln!r}")
        try:
            idx, re, im = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(f"malformed amplitude line {ln!r}") from None
        idx = _checked(idx, f"amplitude index for {n} qubit(s)", 0, amps.shape[0] - 1)
        if idx in seen:
            raise ValueError(f"duplicate index {idx}")
        seen.add(idx)
        amps[idx] = complex(re, im)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm} too far from 1")
    return StateVector(amps if abs(norm - 1.0) <= ATOL else amps / norm)
