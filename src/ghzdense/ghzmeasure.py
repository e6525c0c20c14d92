"""Receiver-side disentangling network and GHZ-basis measurement.

The receiver cannot read the GHZ basis with independent single-qubit
measurements directly, but a short network turns each GHZ basis state
into a distinct computational ket first:

    CNOT(control=1, target=3), CNOT(control=1, target=2), H(qubit 1)

The two CNOTs share the control and have disjoint targets, so they
commute; their listed order is a convention, not a requirement. After
the network, three ordinary single-qubit readouts plus a classical table
lookup recover the GHZ index.

Network and table are ``bases.ghz_family(3)``'s; the n=2 case, CNOT(1,2)
then H(1), is the Bell protocol's. One rule decodes both: the sign bit (0
for '+'), then the tail of the first ket. Readouts of messages 1, 2, ...::

    ghz3   000 100 011 111 010 110 001 101
    bell2  00  10  01  11

Indices may be Python or numpy integers; anything else is a ValueError.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .bases import Protocol, ghz_family
from .qstate import _NAMED_GATES, StateVector, UnitaryMatrix, _checked, _operator, apply_on_subset
from .qstate import measure_computational

_GHZ = ghz_family(3)

GATE_SEQUENCE = _GHZ.network
# Measurement outcome (bits of qubits 1, 2, 3) -> GHZ index, keys in message
# order. This is the contract; tests re-derive it from the network itself.
DECODE_TABLE = _GHZ.decode_table


def _run_network(family: Protocol, state: StateVector) -> StateVector:
    n = family.catalog.n_qubits
    if state.n_qubits != n:
        raise ValueError(f"network expects {n} qubits, got {state.n_qubits}")
    for name, qubits in family.network:
        state = apply_on_subset(state, _NAMED_GATES[name], qubits)
    return state


def _read_out(family: Protocol, disentangled: StateVector, rng_seed) -> tuple[int, float]:
    outcome, probability = measure_computational(disentangled, rng_seed)
    return family.decode_table[outcome], probability


def disentangle(state: StateVector) -> StateVector:
    """Run the gate sequence; GHZ basis states come out as computational kets."""
    return _run_network(_GHZ, state)


def network_unitary() -> UnitaryMatrix:
    """The whole network as one 8x8 operator: column j is the network run on ket j."""
    return _operator(partial(_run_network, _GHZ), _GHZ.catalog.n_qubits)


def decode(outcome: str) -> int:
    """GHZ index for a three-bit measurement outcome string."""
    if not isinstance(outcome, str) or outcome not in DECODE_TABLE:
        raise ValueError(f"malformed outcome {outcome!r}; expected three bits like '011'")
    return DECODE_TABLE[outcome]


def outcome_for_index(index: int) -> str:
    """Bit string the network produces for GHZ state ``index`` (the
    inverse of :func:`decode`); this is the classical label of a message."""
    return tuple(DECODE_TABLE)[_checked(index, "index", 1, len(DECODE_TABLE)) - 1]


def ghz_measure(state: StateVector, rng_seed) -> tuple[int, float]:
    """Measure a three-qubit state in the GHZ basis.

    Disentangles, samples a computational outcome, decodes. Index i is
    returned with probability |<ghz_i|state>|^2 for any input, because
    the network is unitary. ``rng_seed`` is an integer seed >= 0 or a numpy
    Generator, as in :func:`ghzdense.qstate.measure_computational`.
    """
    return _read_out(_GHZ, disentangle(state), rng_seed)


def index_distribution(state: StateVector) -> np.ndarray:
    """Probability of each GHZ index (entry i-1 for index i), no sampling."""
    probs = disentangle(state).probabilities()
    return np.array([probs[int(outcome, 2)] for outcome in DECODE_TABLE])
