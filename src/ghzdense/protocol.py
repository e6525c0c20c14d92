"""End-to-end protocol round trips with optional Pauli transmission noise.

Two protocols are covered:

* ``ghz3``: three parties share a GHZ triple; the sender encodes one of
  8 messages on qubits 1 and 2 and transmits both, so each transmitted
  qubit carries log2(8)/2 = 1.5 classical bits.
* ``bell2``: the two-party baseline; one of 4 messages rides on the
  single transmitted qubit 1, i.e. 2 bits per transmitted qubit.

Noise model: while a qubit is in transit it suffers, with probability p,
one Pauli error (X, Y or Z, each with probability p/3). Only qubits in
transit are exposed; the receiver's qubit is ideal. The channel is thus a
finite mixture of error patterns (16 for ghz3, 4 for bell2), and each
pattern maps every basis state to another basis state, so the decode
distribution ``C[m-1, j-1]`` (message m read as j) is exact: one
state-vector exchange per pattern, made on message 1. The encoders are
local Paulis and the receiver's network is Clifford, so a pattern adds
the same bit syndrome (XOR) to every message's label, and the other rows
are row 1 relabelled. Batches sample from C with one random stream per
call, seeded by the channel: first the message counts, then each
message's decoded counts in message order.

Both are ``bases.ghz_family(n)``, n=3 and n=2. The label of message m is
the readout its state gives; :mod:`ghzdense.ghzmeasure` lists the labels
of both protocols.

Integers may be Python or numpy ints and the error probability any real
in [0, 1]; bools and other types, like every rejected input, raise
ValueError (exit code 2 on the command line).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bases import Protocol, ghz_family
from .encoding import _encode
from .ghzmeasure import _read_out, _run_network, ghz_measure
from .qstate import _NAMED_GATES, StateVector, _checked, _rng, apply_on_subset

_BELL = ghz_family(2)
_BY_NAME = {family.name: family for family in (ghz_family(3), _BELL)}
PROTOCOL_NAMES = tuple(_BY_NAME)

_ERRORS = ("X", "Y", "Z")  # the Pauli errors a qubit in transit can suffer

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

    With ``forced_errors`` unset, the channel is the mixture of every
    Pauli pattern on the transit qubits, weighted by ``pauli_error_prob``.
    ``forced_errors`` makes it one fixed pattern of weight 1, given as a
    mapping or pairs like ``{1: "Z"}``; listed qubits must be in transit
    for the protocol used. It exists for deterministic fault-injection
    tests, and while set the error probability is ignored.
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
            try:
                pairs = tuple((q, str(g).upper()) for q, g in items)
            except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
                raise ValueError(f"forced_errors must map qubits to Pauli errors, got {raw!r}") from None
            if any(g not in _ERRORS for _, g in pairs):
                raise ValueError(f"forced_errors {raw!r} names an error other than X, Y, Z")
            pairs = tuple((_checked(q, "forced_errors qubit", 1), g) for q, g in pairs)
            if len({q for q, _ in pairs}) != len(pairs):
                raise ValueError("forced_errors may hold at most one error per qubit")
            object.__setattr__(self, "forced_errors", pairs)


@dataclass(frozen=True)
class TrialReport:
    """Aggregate outcome of a batch of round trips.

    ``messages_histogram`` counts the messages sent and
    ``decoded_histogram`` the messages decoded, entry m-1 for message m.
    ``expected_success_rate`` is the exact success probability the sampled
    ``success_rate`` estimates: the diagonal of the decode distribution,
    which is the same for every message.
    """

    protocol: str
    trials: int
    successes: int
    success_rate: float
    expected_success_rate: float
    messages_histogram: tuple[int, ...]
    decoded_histogram: tuple[int, ...]
    bits_per_transmitted_qubit: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "messages_histogram": list(self.messages_histogram),
            "decoded_histogram": list(self.decoded_histogram),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> TrialReport:
        """Inverse of :meth:`to_json_dict`. A missing field, a value of the
        wrong type or out of range, and a payload that contradicts itself
        raise ``ValueError``: ``success_rate`` must be ``successes / trials``,
        ``bits_per_transmitted_qubit`` the protocol's own, and each
        histogram must hold one count per message, summing to ``trials``."""

        def real(key, high=None):
            return _checked(data[key], key, 0, high, kind=float)

        try:
            family = _family(data["protocol"])
            trials = _checked(data["trials"], "trials", 1)
            report = cls(
                protocol=family.name,
                trials=trials,
                successes=_checked(data["successes"], "successes", 0, trials),
                success_rate=real("success_rate", 1),
                expected_success_rate=real("expected_success_rate", 1),
                messages_histogram=tuple(_checked(c, "count", 0) for c in data["messages_histogram"]),
                decoded_histogram=tuple(_checked(c, "count", 0) for c in data["decoded_histogram"]),
                bits_per_transmitted_qubit=real("bits_per_transmitted_qubit"),
                seed=_checked(data["seed"], "seed", 0),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed trial report: {exc!r}") from None
        bits = _capacity(family).bits_per_transmitted_qubit
        own = replace(report, success_rate=report.successes / trials, bits_per_transmitted_qubit=bits)
        histograms = (report.messages_histogram, report.decoded_histogram)
        if report != own or any(len(h) != len(family.catalog) or sum(h) != trials for h in histograms):
            raise ValueError(f"trial report contradicts itself: {dict(data)!r}")
        return report


@dataclass(frozen=True)
class CapacityRow:
    """Classical-capacity bookkeeping for one protocol."""

    protocol: str
    message_count: int
    qubits_transmitted: int
    total_bits: float
    bits_per_transmitted_qubit: float


def _capacity(family: Protocol) -> CapacityRow:
    k, q = len(family.catalog), len(family.transit)
    return CapacityRow(family.name, k, q, math.log2(k), math.log2(k) / q)


def capacity_summary() -> tuple[CapacityRow, ...]:
    """Message counts and bits per transmitted qubit for both protocols."""
    return tuple(_capacity(family) for family in _BY_NAME.values())


def bell_measure(state: StateVector, rng_seed) -> tuple[int, float]:
    """Measure a two-qubit state in the Bell basis: CNOT(1,2), H(1), then
    computational readout decoded through ``BELL_DECODE_TABLE``.

    This is :func:`ghzdense.ghzmeasure.ghz_measure` for the n=2 family."""
    return _read_out(_BELL, _run_network(_BELL, state), rng_seed)


def _channel_terms(family: Protocol, channel: ChannelConfig) -> list[tuple[float, tuple]]:
    """The channel as ``(weight, ((qubit, pauli), ...))`` error patterns of
    nonzero weight: one per Pauli choice on each transit qubit, or the
    forced errors with weight 1."""
    if channel.forced_errors is not None:
        for q, _ in channel.forced_errors:
            if q not in family.transit:
                raise ValueError(
                    f"forced error on qubit {q}, but only qubits {family.transit} are in transit"
                )
        return [(1.0, channel.forced_errors)]
    p = channel.pauli_error_prob
    per_qubit = [(1.0 - p, None)] + [(p / 3.0, g) for g in _ERRORS]
    terms = []
    for choice in itertools.product(per_qubit, repeat=len(family.transit)):
        weight = math.prod(w for w, _ in choice)
        if weight > 0.0:
            terms.append((weight, tuple((q, g) for q, (_, g) in zip(family.transit, choice) if g)))
    return terms


def _decode_distribution(family: Protocol, channel: ChannelConfig) -> np.ndarray:
    """``C[m-1, j-1]``, the probability that message m is decoded as j.

    Every pattern maps a basis state to a basis state, so one exchange per
    pattern gives message 1's outcome with certainty. The encoders are
    local Paulis and the network is Clifford, so a pattern XORs the same
    syndrome into every message's label. With ``R[r]`` the probability
    that message 1 reads out as the integer r, every row is R relabelled:
    ``C[m, j] = R[label(m) XOR label(j) XOR label(1)]``, labels read from
    ``decode_table``'s keys, which are listed in message order."""
    labels = np.array([int(bits, 2) for bits in family.decode_table])  # message order
    # Called through the module-level names, so whatever is bound to them
    # (such as the span wrappers of perfbench/tracer.py) runs.
    measure = bell_measure if family is _BELL else ghz_measure
    readout = _rng(0)  # outcomes are certain; the seed is irrelevant
    sent = _encode(family, 1)
    row = np.zeros(len(labels))  # R, message 1's distribution by readout
    for weight, errors in _channel_terms(family, channel):
        state = sent
        for q, g in errors:
            state = apply_on_subset(state, _NAMED_GATES[g], (q,))
        decoded, probability = measure(state, readout)
        if abs(probability - 1.0) > 1e-9:
            raise RuntimeError(
                f"errors {errors} leave message 1 decoded as {decoded} only with "
                f"probability {probability}; the channel must map basis states to basis states"
            )
        row[labels[decoded - 1]] += weight
    return row[labels[:, None] ^ labels ^ labels[0]]


def _one_exchange(protocol: str, message: int, channel: ChannelConfig) -> tuple[int, bool]:
    report = run_trials(protocol, 1, channel, message)
    return 1 + report.decoded_histogram.index(1), report.successes == 1


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

    Messages are drawn uniformly (the capacity-optimal prior) unless
    ``fixed_message`` pins them all to one value, which changes only the
    message counts. The decoded messages are drawn from the exact decode
    distribution, so the cost does not grow with ``trials``. All draws
    come from one stream seeded by ``channel.rng_seed``: the message counts
    (one multinomial draw, skipped when a message is pinned), then each
    message's decoded counts, in message order; a message sent 0 times
    draws nothing. Equal arguments give equal reports.
    """
    family = _family(protocol)
    # numpy's multinomial counts in int64
    trials = _checked(trials, "trials", 1, np.iinfo(np.int64).max)
    k = len(family.catalog)
    dist = _decode_distribution(family, channel)
    rng = _rng(channel.rng_seed)
    if fixed_message is None:
        sent = rng.multinomial(trials, [1.0 / k] * k)
    else:
        sent = trials * np.eye(k, dtype=np.int64)[_checked(fixed_message, "fixed message", 1, k) - 1]
    counts = rng.multinomial(sent, dist)  # row m draws message m's decoded counts
    successes = int(np.trace(counts))
    return TrialReport(
        protocol=protocol,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        expected_success_rate=float(dist[0, 0]),
        messages_histogram=tuple(sent.tolist()),
        decoded_histogram=tuple(counts.sum(axis=0).tolist()),
        bits_per_transmitted_qubit=_capacity(family).bits_per_transmitted_qubit,
        seed=channel.rng_seed,
    )
