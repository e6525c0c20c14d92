"""Receiver-side disentangling network and GHZ-basis measurement.

The receiver cannot read the GHZ basis with independent single-qubit
measurements directly, but a short network turns each GHZ basis state
into a distinct computational ket first:

    CNOT(control=1, target=3), CNOT(control=1, target=2), H(qubit 1)

The two CNOTs share the control and have disjoint targets, so they
commute; their listed order is a convention, not a requirement. After
the network, three ordinary single-qubit readouts plus a classical table
lookup recover the GHZ index.

The gate list defines the network. It runs as one operator per family:
on first use its gates, each embedded by ``qstate.embed_on_subset``, are
multiplied into one matrix, which is then applied to each state by one
product.

Network and table are ``bases.ghz_family(3)``'s; the n=2 case, CNOT(1,2)
then H(1), is the Bell protocol's. One rule decodes both: the sign bit (0
for '+'), then the tail of the first ket. Readouts of messages 1, 2, ...::

    ghz3   000 100 011 111 010 110 001 101
    bell2  00  10  01  11

A Pauli error before the network only relabels the readout. The network
and every Pauli are Clifford, so each error XORs a fixed bit pattern, its
syndrome, into the readout of every basis state (the stabilizer
formalism: Gottesman, quant-ph/9705052, 1997; Aaronson & Gottesman, PRA
70:052328, 2004). ``_syndromes`` gives them in closed form for an n-qubit
family, with the readout read as an integer, sign bit first:

* Z on any qubit flips the sign, since it anticommutes with X^n: 2^(n-1);
* X on qubit 1 swaps the two kets, which flips the whole tail: 2^(n-1) - 1;
* X on qubit q >= 2 flips tail bit q: 2^(n-q);
* Y = iXZ gives the XOR of X's and Z's.

Indices may be Python or numpy integers; anything else is a ValueError.
"""

from __future__ import annotations

from functools import cache, reduce

import numpy as np

from .bases import Protocol, ghz_family
from .qstate import _NAMED_GATES, StateVector, UnitaryMatrix, _checked, _same_qubits, _shown, embed_on_subset
from .qstate import measure_computational

_GHZ = ghz_family(3)

GATE_SEQUENCE = _GHZ.network
# Measurement outcome (bits of qubits 1, 2, 3) -> GHZ index, keys in message
# order. This is the contract; tests re-derive it from the network itself.
DECODE_TABLE = _GHZ.decode_table


@cache
def _network_operator(family: Protocol) -> UnitaryMatrix:
    """``family``'s network as one 2^n x 2^n operator, the owner of the
    network matrix: the product of its gates embedded by
    :func:`~ghzdense.qstate.embed_on_subset`, the last gate leftmost.
    Built on first use, once per family (``Protocol`` hashes by identity)."""
    n = family.catalog.n_qubits
    gates = [embed_on_subset(_NAMED_GATES[name], qubits, n).entries for name, qubits in family.network]
    return UnitaryMatrix(reduce(lambda product, gate: gate @ product, gates))


def _syndromes(n: int, qubit: int) -> tuple[int, int]:
    """The syndromes (x, z) that X and Z on ``qubit`` XOR into the readout
    of an n-qubit family, sign bit first (see the module docstring)."""
    sign = 1 << (n - 1)
    return (sign - 1 if qubit == 1 else 1 << (n - qubit)), sign


def _run_network(family: Protocol, state: StateVector) -> StateVector:
    _same_qubits((family.catalog.states[0], state))
    return StateVector._from_unitary_output(_network_operator(family).entries @ state.amplitudes)


def _read_out(family: Protocol, disentangled: StateVector, rng_seed) -> tuple[int, float]:
    outcome, probability = measure_computational(disentangled, rng_seed)
    return family.decode_table[outcome], probability


def disentangle(state: StateVector) -> StateVector:
    """Run the network; GHZ basis states come out as computational kets.

    ``GATE_SEQUENCE`` defines the network, which runs as one 8x8 operator
    built from it on first use."""
    return _run_network(_GHZ, state)


def network_unitary() -> UnitaryMatrix:
    """The whole network as one 8x8 operator, the product of the gate
    sequence's embedded gates. Every call returns the same read-only matrix."""
    return _network_operator(_GHZ)


def decode(outcome: str) -> int:
    """GHZ index for a three-bit measurement outcome string."""
    if not isinstance(outcome, str) or outcome not in DECODE_TABLE:
        raise ValueError(f"malformed outcome {_shown(outcome)}; expected three bits like '011'")
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
