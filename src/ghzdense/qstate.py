"""Exact state-vector algebra for small qubit registers.

Conventions, fixed across the whole package:

* Qubit positions are 1-based. Qubit 1 is the most significant bit of a
  basis-state index, so for three qubits the ket |011> sits at index 3.
* Values are immutable once constructed; every operation returns a new
  value and all functions are pure.
* Exact-algebra checks use the shared tolerance ``ATOL`` (1e-12). The
  amplitudes handled here are signed powers of 1/sqrt(2), so everything
  should hold near machine precision.

Input contract of the whole package: a number, string, sequence or
mapping parameter that the package rejects raises ``ValueError``, which
the command line reports with exit code 2. Numbers are checked by
``_checked``. Amplitudes and matrix entries are admitted by
``_as_finite_complex`` alone, before any norm or product is taken: no
amplitude of a unit vector and no entry of a unitary has a part above 1,
so a larger part is rejected there, and so is a string, which numpy
would parse as a number. A rejected integer of more than 20 digits, and
rejected text of more than 60 characters, is echoed shortened
(``_shown``). Integer text, a state file's counts and indices and the
command line's state indices and integer flags, is parsed by
``_decimal`` alone: ASCII digits only. Real-number text, a state file's
amplitudes and the command line's ``--noise``, is parsed by ``_real``
alone: ASCII only, with no underscore or surrounding space. States that
meet (in an inner product, a catalog, an encoding's shared state, the
receiver's network or a reachability pair) have one qubit count, checked
by ``_same_qubits`` alone: a mismatch reads "qubit counts differ: a vs
b", the first state's count, then the other's. A parameter
that holds one of the package's objects (``StateVector``,
``UnitaryMatrix``, ``BasisCatalog``, ``ChannelConfig``, or the states of
a catalog) is outside that contract: passing something else there raises
whatever Python raises, usually ``TypeError`` or ``AttributeError``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

ATOL = 1e-12
MAX_QUBITS = 20  # dense amplitude arrays; 2**20 is the supported ceiling
# Dense 2^n x 2^n operators, given to UnitaryMatrix or built by
# embed_on_subset, haar_random_unitary and tensor: 16 MB at the ceiling,
# against 8x8 in the protocols. The Gram test's matrices are this size at
# one qubit more.
_MAX_OPERATOR_QUBITS = 10
_SHOWN_DIGITS = 20  # an error echoes a longer integer by its first and last digits
_SHOWN_CHARS = 60  # an error echoes longer text by its start; no dump_state line is as long


def _abbreviated(digits: str) -> str:
    """A long digit string as its first 8 and last 4 digits and its length."""
    return f"{digits[:8]}...{digits[-4:]} ({len(digits)} digits)"


def _shown(value) -> str:
    """``value``'s repr for an error message, an integer of more than
    ``_SHOWN_DIGITS`` digits and a str of more than ``_SHOWN_CHARS``
    characters abbreviated. Python writes out no integer of more than 4300
    digits (its repr raises), so one of more than 14000 bits is shown by its
    size in bits."""
    if isinstance(value, str) and len(value) > _SHOWN_CHARS:
        return f"{value[:_SHOWN_CHARS]!r}... ({len(value)} characters)"
    if not isinstance(value, int) or abs(value) < 10**_SHOWN_DIGITS:
        return repr(value)
    if value.bit_length() > 14_000:
        return f"an integer of {value.bit_length()} bits"
    return "-" * (value < 0) + _abbreviated(str(abs(value)))


def _checked(value, name: str, low, high=None, kind=int):
    """``value`` as a plain ``kind`` (int or float) in [low, high], the input
    check of every entry point: Python and numpy numbers pass, bools and
    other types do not, and every rejection is a ``ValueError``."""
    if type(value) is not kind:  # plain ints and floats skip the type checks
        kinds = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds):
            what = "an integer" if kind is int else "a real number"
            raise ValueError(f"{name} must be {what}, got {_shown(value)}")
        try:
            value = kind(value)
        except OverflowError:  # an int beyond float range
            raise ValueError(f"{name} must be a real number, got an integer beyond float range") from None
    if not (low <= value if high is None else low <= value <= high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {_shown(value)}")
    return value


def _decimal(text: str, name: str, low: int, high: int) -> int:
    """``text`` as an int in [low, high], the package's one parser of
    integer text: ASCII decimal digits only, so no sign, space, underscore
    or other script, leading zeros ignored. ``high`` is below 10^20, so a
    longer digit run is out of range, and is rejected before ``int()``
    sees it."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed {name} {_shown(text)}")
    digits = text.lstrip("0") or "0"
    if len(digits) > _SHOWN_DIGITS:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {_abbreviated(digits)}")
    return _checked(int(digits), name, low, high)


def _real(text: str) -> float:
    """``text`` as a float, the package's one parser of real-number text:
    ASCII only, with no underscore or surrounding space, in Python's
    ``float()`` grammar otherwise. Raises ``ValueError``; each caller
    names the field in its own message."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"malformed real number {_shown(text)}")
    return float(text)


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

    QR orthonormalization of standard complex Gaussian matrices, real parts
    drawn before imaginary parts; the R factor's diagonal phases are
    divided out, which removes the QR sign ambiguity and makes the
    distribution properly uniform (Mezzadri, arXiv:math-ph/0609050).
    """
    z = (rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _as_finite_complex(values, name: str) -> np.ndarray:
    """``values`` as a fresh read-only complex array, the package's one
    admission rule for amplitudes and matrix entries: each real and
    imaginary part must be at most 1 + 1e-9 in magnitude, which also
    rejects nan and +-inf. Anything that does not convert, an int beyond
    float range and a str or bytes entry included, is a ``ValueError``; so
    is a bad part, named by its entry's index and value. An ndarray is
    checked by its dtype, and copied once."""
    try:
        given = np.asarray(values)  # an ndarray as it is, not copied
        if given.dtype.kind in "SUO" and any(isinstance(v, (str, bytes)) for v in given.flat):
            raise TypeError("a string is not a number")  # numpy would parse it
        arr = np.array(given, dtype=np.complex128)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must be complex numbers ({exc})") from None
    if not np.abs(arr.reshape(-1).view(np.float64)).max(initial=0.0) <= 1 + 1e-9:  # not >, so nan fails
        at = tuple(np.argwhere(~(np.maximum(abs(arr.real), abs(arr.imag)) <= 1 + 1e-9))[0].tolist())
        raise ValueError(f"{name}{list(at)} = {arr[at]} has a part that is not finite or exceeds 1 in magnitude")
    arr.setflags(write=False)
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
    """Square complex matrix, checked for unitarity at construction time.
    Its dimension is 2^n for 1 <= n <= 10 (``_MAX_OPERATOR_QUBITS``),
    checked before the unitarity product."""

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        m = _as_finite_complex(entries, "entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must form a square matrix")
        _qubit_count(m.shape[0], "dimension", _MAX_OPERATOR_QUBITS)
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if defect > ATOL:
            raise ValueError(f"matrix is not unitary (max |U^H U - I| = {defect:.3e})")
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
# The names encoders, networks and the decode row's errors use for the gates above.
_NAMED_GATES = {"I": IDENTITY, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD, "CNOT": CNOT}


def basis_state(bits: str) -> StateVector:
    """Computational basis ket from its bit-string label, e.g. ``"011"``."""
    if not isinstance(bits, str) or not bits or any(c not in "01" for c in bits):
        raise ValueError(f"malformed bit string {_shown(bits)}")
    _checked(len(bits), "bit string length", 1, MAX_QUBITS)
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def _same_qubits(states) -> None:
    """The package's one qubit-count rule for states that meet: every state
    in ``states`` has the first one's qubit count, else ``ValueError``
    "qubit counts differ: a vs b", the first count then the other."""
    n = states[0].n_qubits
    for state in states:
        if state.n_qubits != n:
            raise ValueError(f"qubit counts differ: {n} vs {state.n_qubits}")


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugating ``a``."""
    _same_qubits((a, b))
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2. Equals 1 exactly when the states agree up to a global phase.

    This is the only notion of state equality used in this package; raw
    amplitude comparison would wrongly distinguish physically identical
    states.
    """
    return float(abs(inner_product(a, b)) ** 2)


def tensor(u: UnitaryMatrix, v: UnitaryMatrix) -> UnitaryMatrix:
    """Kronecker product; ``u`` acts on the more significant qubits. The
    product's qubit count is checked against ``_MAX_OPERATOR_QUBITS`` (10)
    before it is formed."""
    _checked(u.n_qubits + v.n_qubits, "tensor qubit count", 2, _MAX_OPERATOR_QUBITS)
    return UnitaryMatrix(np.kron(u.entries, v.entries))


def _split(state: StateVector, qubits: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """The axis order that puts ``qubits``' axes first and the other axes
    after them in order, and the 2^k x 2^(n-k) amplitude matrix it makes:
    row index those qubits' bits, the first listed qubit most significant,
    column index the other qubits' bits. The package's one split of a
    register into a subset and the rest, and its one qubit-subset check:
    ``qubits`` is a ``Sequence`` or a 1-D ndarray, since an iterator, set
    or mapping gives no order to read; transposing the (2,) * n array by
    the inverse order undoes the split."""
    n = state.n_qubits
    if not (isinstance(qubits, Sequence) or isinstance(qubits, np.ndarray) and qubits.ndim == 1):
        raise ValueError(f"qubits must be a sequence of qubit positions, got {type(qubits).__name__}")
    axes = tuple(_checked(q, "qubit", 1, n) - 1 for q in qubits)
    if not axes:
        raise ValueError("qubit subset is empty")
    if len(set(axes)) != len(axes):
        raise ValueError(f"qubit positions must be distinct, got {tuple(a + 1 for a in axes)}")
    order = axes + tuple(a for a in range(n) if a not in axes)
    return order, state.amplitudes.reshape((2,) * n).transpose(order).reshape(1 << len(axes), -1)


def apply_on_subset(state: StateVector, u: UnitaryMatrix, qubits: Sequence[int]) -> StateVector:
    """Apply ``u`` to the listed qubits of ``state`` and identity elsewhere.

    The i-th listed position receives the i-th tensor factor of ``u``, so
    the first listed qubit is the most significant bit of u's own index
    (for CNOT that makes it the control).
    """
    order, rows = _split(state, qubits)
    if u.dim != rows.shape[0]:
        raise ValueError(f"operator dimension {u.dim} does not match {rows.shape[0].bit_length() - 1} qubit(s)")
    inverse = tuple(map(order.index, range(state.n_qubits)))
    out = (u.entries @ rows).reshape((2,) * state.n_qubits).transpose(inverse)
    # All axes have length 2: reshape copies a permuted array to C order, and an unpermuted one is the fresh product.
    return StateVector._from_unitary_output(out.reshape(state.dim))


def embed_on_subset(u: UnitaryMatrix, qubits: Sequence[int], n_qubits: int) -> UnitaryMatrix:
    """Full 2^n x 2^n matrix acting as ``u`` on ``qubits`` and identity
    elsewhere: column j is :func:`apply_on_subset` of ``u`` on computational
    ket j, the kets read from the identity matrix. Built column by
    column, so it is only meant for small registers: ``n_qubits`` above
    ``_MAX_OPERATOR_QUBITS`` (10) is a ``ValueError``, checked first."""
    kets = np.eye(1 << _checked(n_qubits, "n_qubits", 1, _MAX_OPERATOR_QUBITS), dtype=np.complex128)
    return UnitaryMatrix(np.column_stack([apply_on_subset(StateVector(e), u, qubits).amplitudes for e in kets]))


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
    cdf = probs.cumsum()
    idx = int(cdf.searchsorted(_rng(rng_seed).random() * cdf[-1], side="right"))
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
    so load reads every written amplitude back bit for bit."""
    lines = [f"nqubits {state.n_qubits}"]
    for idx, amp in enumerate(state.amplitudes):
        if amp != 0:
            lines.append(f"{idx} {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


# Longest state text a reader takes: dump_state writes at most 11 + 58 * 2^20
# characters (about 58 MiB) at MAX_QUBITS, and a longer file is rejected
# before it is parsed.
_MAX_STATE_CHARS = 64 << 20


def load_state(text: str) -> StateVector:
    """Parse the ``dump_state`` text format.

    Amplitudes whose norm is within ``ATOL`` of 1 are kept as written, so
    ``load_state(dump_state(s))`` reads every amplitude that ``dump_state``
    wrote back bit for bit; a zero amplitude, ``-0.0`` included, is not
    written and reads back as ``+0.0``, so the two states are equal in
    value but may differ in sign bits. Reduced precision is renormalized;
    a norm more than 1e-9 away from 1 is rejected as malformed instead.
    The amplitudes pass the admission rule of :class:`StateVector` before
    the norm is taken.
    """
    if not isinstance(text, str):
        raise ValueError(f"state text must be a str, got {type(text).__name__}")
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty state text")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "nqubits":
        raise ValueError("first line must be 'nqubits <n>'")
    n = _decimal(header[1], "qubit count", 1, MAX_QUBITS)
    amps = np.zeros(1 << n, dtype=np.complex128)
    seen: set[int] = set()
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 3:
            raise ValueError(f"expected 'index re im', got {_shown(ln)}")
        idx = _decimal(fields[0], f"amplitude index for {n} qubit(s)", 0, amps.shape[0] - 1)
        try:
            amp = complex(_real(fields[1]), _real(fields[2]))
        except ValueError:
            raise ValueError(f"malformed amplitude line {_shown(ln)}") from None
        if idx in seen:
            raise ValueError(f"duplicate index {idx}")
        seen.add(idx)
        amps[idx] = amp
    norm = float(np.linalg.norm(_as_finite_complex(amps, "amplitudes")))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm} too far from 1")
    return StateVector(amps if abs(norm - 1.0) <= ATOL else amps / norm)
