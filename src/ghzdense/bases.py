"""The three named orthonormal bases used by the dense-coding protocols.

* ``bell``: the four Bell pairs, the n=2 catalog of :func:`ghz_family`.
* ``ghz``: the eight GHZ triples, its n=3 catalog. Message numbering
  throughout the package follows the catalogs' order.
* ``phi``: an eight-state basis whose amplitudes all have magnitude
  1/(2*sqrt(2)) and differ only in sign. It is the standard contrast
  case for the reachability analysis: unlike the GHZ catalog it is not
  built from two-ket superpositions.

Amplitudes are constructed from integer sign patterns times a single
normalization constant rather than floating literals, so a transcription
slip cannot hide below the Gram-test tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qstate import ATOL, _NAMED_GATES, StateVector, UnitaryMatrix, _checked, tensor

_PHI_SIGNS = (
    (+1, +1, +1, +1, +1, +1, +1, +1),
    (+1, +1, +1, +1, -1, -1, -1, -1),
    (+1, +1, -1, -1, -1, -1, +1, +1),
    (+1, +1, -1, -1, +1, +1, -1, -1),
    (+1, -1, +1, -1, -1, +1, +1, -1),
    (+1, -1, +1, -1, +1, -1, -1, +1),
    (+1, -1, -1, +1, -1, +1, -1, +1),
    (+1, -1, -1, +1, +1, -1, +1, -1),
)


@dataclass(frozen=True)
class BasisCatalog:
    """Ordered family of equally sized states; indexing is 1-based."""

    name: str
    states: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("catalog needs at least one state")
        n = self.states[0].n_qubits
        if any(s.n_qubits != n for s in self.states):
            raise ValueError("all catalog states must have the same qubit count")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_qubits(self) -> int:
        return self.states[0].n_qubits

    def state(self, index: int) -> StateVector:
        return self.states[_checked(index, f"{self.name} index", 1, len(self.states)) - 1]


@dataclass(frozen=True, eq=False)
class Protocol:
    """The n-qubit GHZ dense-coding protocol of :func:`ghz_family`. Message m
    applies ``encoders[m-1]`` to the ``transit`` qubits of catalog state 1,
    giving state m; ``network`` then turns it into the bits that
    ``decode_table`` maps back to m. Its keys are listed in message order,
    so the i-th key is message i's readout."""

    name: str
    catalog: BasisCatalog
    transit: tuple[int, ...]
    encoders: tuple[UnitaryMatrix, ...]
    network: tuple[tuple[str, tuple[int, ...]], ...]
    decode_table: dict[str, int]


# Per family size: protocol name, basis name, and each message's encoder
# as tensor factors over the transit qubits, qubit 1 first; a factor such
# as ZX is the matrix product of its named gates. The tables are explicit
# because n=3 message 6 is I (x) XZ, where the rule behind the n=2 table
# (X onto the ket tail, then Z on qubit 1 for '-') gives Z (x) X.
_LAYOUTS = {
    2: ("bell2", "bell", ("I", "Z", "X", "ZX")),
    3: ("ghz3", "ghz", ("I I", "Z I", "X I", "ZX I", "I X", "I XZ", "X X", "ZX X")),
}


def _gates(word: str) -> UnitaryMatrix:
    """Matrix product of the named one-letter gates in ``word``: ZX is Z @ X."""
    return reduce(UnitaryMatrix.__matmul__, map(_NAMED_GATES.__getitem__, word))


def _build_family(n: int) -> Protocol:
    name, basis, factors = _LAYOUTS[n]
    half = 1 << (n - 1)
    states, decode_table = [], {}
    for index in range(1, 2 * half + 1):
        # Pair k joins 0 followed by (-k) mod 2^(n-1) with its complement;
        # odd indices take the '+' superposition, even ones the '-'.
        first = -((index - 1) // 2) % half
        minus = index % 2 == 0
        amps = np.zeros(2 * half, dtype=np.complex128)
        amps[first] = 1.0
        amps[first ^ (2 * half - 1)] = -1.0 if minus else 1.0
        states.append(StateVector(amps / np.sqrt(2.0)))
        # The network reads the sign into qubit 1 and leaves the tail of
        # the first ket on the others.
        decode_table[f"{int(minus)}{first:0{n - 1}b}"] = index
    return Protocol(
        name=name,
        catalog=BasisCatalog(basis, tuple(states)),
        transit=tuple(range(1, n)),
        encoders=tuple(reduce(tensor, map(_gates, ops.split())) for ops in factors),
        network=tuple(("CNOT", (1, t)) for t in range(n, 1, -1)) + (("H", (1,)),),
        decode_table=decode_table,
    )


_FAMILIES = {n: _build_family(n) for n in _LAYOUTS}
# Every named basis, built once at import: bell, ghz, phi.
_CATALOGS = {family.catalog.name: family.catalog for family in _FAMILIES.values()}
_CATALOGS["phi"] = BasisCatalog(
    "phi", tuple(StateVector(np.array(signs, dtype=np.complex128) / np.sqrt(8.0)) for signs in _PHI_SIGNS)
)


def ghz_family(n: int) -> Protocol:
    """The n-qubit GHZ dense-coding protocol: n=2 is the Bell protocol
    ``bell2``, n=3 the GHZ-triple protocol ``ghz3``."""
    return _FAMILIES[_checked(n, "GHZ family size n", 2, 3)]


def bell_state(index: int) -> StateVector:
    """Bell pair number ``index`` (1..4): (|00>+|11>), (|00>-|11>),
    (|01>+|10>), (|01>-|10>), each over sqrt(2)."""
    return bell_catalog().state(index)


def ghz_state(index: int) -> StateVector:
    """GHZ triple number ``index`` (1..8); index 1 is (|000>+|111>)/sqrt(2)."""
    return ghz_catalog().state(index)


def phi_state(index: int) -> StateVector:
    """Sign-pattern basis state number ``index`` (1..8)."""
    return phi_catalog().state(index)


def bell_catalog() -> BasisCatalog:
    return _CATALOGS["bell"]


def ghz_catalog() -> BasisCatalog:
    return _CATALOGS["ghz"]


def phi_catalog() -> BasisCatalog:
    return _CATALOGS["phi"]


def catalog_by_name(name: str) -> BasisCatalog:
    try:
        return _CATALOGS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown basis {name!r}; expected one of {sorted(_CATALOGS)}") from None


@dataclass(frozen=True)
class OrthonormalityReport:
    """Worst-case deviations of a catalog's Gram matrix from the identity."""

    max_off_diagonal: float
    max_diagonal_deviation: float

    def within(self, tol: float = ATOL) -> bool:
        return self.max_off_diagonal <= tol and self.max_diagonal_deviation <= tol


def verify_orthonormal(catalog: BasisCatalog) -> OrthonormalityReport:
    """Largest |<i|j>| for i != j and largest |1 - <i|i>| over the catalog."""
    rows = np.stack([s.amplitudes for s in catalog.states])
    gram = rows.conj() @ rows.T
    diag = np.diagonal(gram).copy()
    np.fill_diagonal(gram, 0.0)
    return OrthonormalityReport(
        max_off_diagonal=float(np.max(np.abs(gram))),
        max_diagonal_deviation=float(np.max(np.abs(1.0 - diag))),
    )
