"""End-to-end protocol round trips with optional Pauli transmission noise.

Two protocols are covered:

* ``ghz3``: three parties share a GHZ triple; the sender encodes one of
  8 messages on qubits 1 and 2 and transmits both, so each transmitted
  qubit carries log2(8)/2 = 1.5 classical bits.
* ``bell2``: the two-party baseline; one of 4 messages rides on the
  single transmitted qubit 1, i.e. 2 bits per transmitted qubit.

Noise model: while a qubit is in transit it suffers, with probability p,
one Pauli error (X, Y or Z, each with probability p/3). Only qubits in
transit are exposed; the receiver's qubit is ideal. Trajectories stay
pure states. Per-trial randomness derives from (seed, trial index), so
batch results do not depend on evaluation order.

Both are ``bases.ghz_family(n)``, n=3 and n=2. The label of message m is
the readout its state gives: the sign bit (0 for '+'), then the tail of
the pair's first ket. Labels of messages 1, 2, ...::

    ghz3   000 100 011 111 010 110 001 101
    bell2  00  10  01  11

Integers may be Python or numpy ints and the error probability any real
in [0, 1]; bools and other types, like every rejected input, raise
ValueError (exit code 2 on the command line).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .bases import Protocol, ghz_family
from .encoding import _encode
from .ghzmeasure import _read_out, _run_network, ghz_measure
from .qstate import PAULI_X, PAULI_Y, PAULI_Z, StateVector, _checked, apply_on_subset

_BELL = ghz_family(2)
_BY_NAME = {family.name: family for family in (ghz_family(3), _BELL)}
PROTOCOL_NAMES = tuple(_BY_NAME)

_PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Outcome of the two-qubit disentangler (CNOT(1,2) then H(1)) -> message.
BELL_DECODE_TABLE = _BELL.decode_table


def _family(protocol: str) -> Protocol:
    try:
        return _BY_NAME[protocol]
    except (KeyError, TypeError):
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOL_NAMES}") from None


@dataclass(frozen=True)
class ChannelConfig:
    """Transmission channel settings.

    ``forced_errors`` replaces the stochastic channel with fixed Pauli
    insertions, given as a mapping or pairs like ``{1: "Z"}``; listed
    qubits must be in transit for the protocol used. It exists for
    deterministic fault-injection tests, and while set the error
    probability is ignored.
    """

    pauli_error_prob: float = 0.0
    rng_seed: int = 0
    forced_errors: tuple[tuple[int, str], ...] | None = None

    def __post_init__(self) -> None:
        p = _checked(self.pauli_error_prob, "pauli_error_prob", 0, 1, kind=float)
        object.__setattr__(self, "pauli_error_prob", p)
        object.__setattr__(self, "rng_seed", _checked(self.rng_seed, "rng_seed", 0))
        if self.forced_errors is not None:
            raw = self.forced_errors
            items = raw.items() if isinstance(raw, Mapping) else raw
            pairs = tuple((_checked(q, "qubit position", 1), str(g).upper()) for q, g in items)
            for _, g in pairs:
                if g not in _PAULIS:
                    raise ValueError(f"forced error {g!r} is not one of X, Y, Z")
            if len({q for q, _ in pairs}) != len(pairs):
                raise ValueError("at most one forced error per qubit")
            object.__setattr__(self, "forced_errors", pairs)


@dataclass(frozen=True)
class TrialReport:
    """Aggregate outcome of a batch of round trips."""

    protocol: str
    trials: int
    successes: int
    success_rate: float
    messages_histogram: tuple[int, ...]
    bits_per_transmitted_qubit: float
    seed: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "messages_histogram": list(self.messages_histogram)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> TrialReport:
        return cls(
            protocol=str(data["protocol"]),
            trials=int(data["trials"]),
            successes=int(data["successes"]),
            success_rate=float(data["success_rate"]),
            messages_histogram=tuple(int(c) for c in data["messages_histogram"]),
            bits_per_transmitted_qubit=float(data["bits_per_transmitted_qubit"]),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class CapacityRow:
    """Classical-capacity bookkeeping for one protocol."""

    protocol: str
    message_count: int
    qubits_transmitted: int
    total_bits: float
    bits_per_transmitted_qubit: float


def capacity_summary() -> tuple[CapacityRow, ...]:
    """Message counts and bits per transmitted qubit for both protocols."""
    rows = []
    for family in _BY_NAME.values():
        k, q = len(family.catalog), len(family.transit)
        rows.append(CapacityRow(family.name, k, q, math.log2(k), math.log2(k) / q))
    return tuple(rows)


def bell_measure(state: StateVector, rng_seed) -> tuple[int, float]:
    """Measure a two-qubit state in the Bell basis: CNOT(1,2), H(1), then
    computational readout decoded through ``BELL_DECODE_TABLE``.

    This is :func:`ghzdense.ghzmeasure.ghz_measure` for the n=2 family."""
    return _read_out(_BELL, _run_network(_BELL, state), rng_seed)


def _apply_channel(
    state: StateVector,
    transmitted: tuple[int, ...],
    channel: ChannelConfig,
    rng: np.random.Generator,
) -> StateVector:
    if channel.forced_errors is not None:
        for q, g in channel.forced_errors:
            if q not in transmitted:
                raise ValueError(
                    f"forced error on qubit {q}, but only qubits {transmitted} are in transit"
                )
            state = apply_on_subset(state, _PAULIS[g], (q,))
        return state
    p = channel.pauli_error_prob
    if p == 0.0:
        return state
    for q in transmitted:
        if rng.random() < p:
            g = "XYZ"[rng.integers(3)]
            state = apply_on_subset(state, _PAULIS[g], (q,))
    return state


# Encoding a given message onto the default shared state is pure, so the
# hot trial loop reuses one immutable result per message.
@lru_cache(maxsize=None)
def _encoded(family: Protocol, message: int) -> StateVector:
    return _encode(family, message)


def _roundtrip(
    family: Protocol, message: int, channel: ChannelConfig, rng: np.random.Generator
) -> tuple[int, bool]:
    sent = _encoded(family, message)
    received = _apply_channel(sent, family.transit, channel, rng)
    # Called through the module-level names, so whatever is bound to them
    # (such as the span wrappers of perfbench/tracer.py) runs.
    measure = bell_measure if family is _BELL else ghz_measure
    decoded, _ = measure(received, rng)
    return decoded, decoded == message


def _one_exchange(protocol: str, message: int, channel: ChannelConfig) -> tuple[int, bool]:
    family = _family(protocol)
    message = _checked(message, "message index", 1, len(family.catalog))
    return _roundtrip(family, message, channel, np.random.default_rng(channel.rng_seed))


def roundtrip_ghz(message: int, channel: ChannelConfig = ChannelConfig()) -> tuple[int, bool]:
    """One full ghz3 exchange. Returns (decoded message, success flag)."""
    return _one_exchange("ghz3", message, channel)


def roundtrip_bell(message: int, channel: ChannelConfig = ChannelConfig()) -> tuple[int, bool]:
    """One full bell2 exchange. Returns (decoded message, success flag)."""
    return _one_exchange("bell2", message, channel)


def run_trials(
    protocol: str,
    trials: int,
    channel: ChannelConfig = ChannelConfig(),
    fixed_message: int | None = None,
) -> TrialReport:
    """Run independent round trips and aggregate them.

    Messages are drawn uniformly per trial (the capacity-optimal prior)
    unless ``fixed_message`` pins them all to one value. Each trial's
    randomness comes from its own stream spawned off ``channel.rng_seed``,
    so reports are reproducible and order-independent.
    """
    family = _family(protocol)
    trials = _checked(trials, "trials", 1)
    k = len(family.catalog)
    if fixed_message is not None:
        fixed_message = _checked(fixed_message, "fixed message", 1, k)
    histogram = [0] * k
    successes = 0
    for child in np.random.SeedSequence(channel.rng_seed).spawn(trials):
        rng = np.random.default_rng(child)
        message = fixed_message if fixed_message is not None else 1 + int(rng.integers(k))
        _, ok = _roundtrip(family, message, channel, rng)
        histogram[message - 1] += 1
        successes += ok
    return TrialReport(
        protocol=protocol,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        messages_histogram=tuple(histogram),
        bits_per_transmitted_qubit=math.log2(k) / len(family.transit),
        seed=channel.rng_seed,
    )
