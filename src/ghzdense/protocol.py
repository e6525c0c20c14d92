"""End-to-end protocol round trips with optional Pauli transmission noise.

Two protocols are covered:

* ``ghz3``: three parties share a GHZ triple; the sender encodes one of
  8 messages on qubits 1 and 2 and transmits both, so each transmitted
  qubit carries log2(8)/2 = 1.5 classical bits.
* ``bell2``: the two-party baseline; one of 4 messages rides on the
  single transmitted qubit 1, i.e. 2 bits per transmitted qubit.

Noise model: while a qubit is in transit it suffers, with probability p,
one Pauli error (X, Y or Z, each with probability p/3). Only qubits in
transit are exposed; the receiver's qubit is ideal. Every Pauli maps
basis states to basis states, so the decode distribution is exact: it is
the channel's syndrome distribution, folded from the closed-form
syndromes of ``ghzmeasure._syndromes`` and relabelled, with no exchange
(see ``_decode_distribution``). Batches sample from it with one random
stream per call, seeded by the channel: first one multinomial draw of
the joint (sent, decoded) counts over the pairs that can occur, then the
one readout, message 1's error-free exchange, which must decode as
message 1 with certainty.

Both are ``bases.ghz_family(n)``, n=3 and n=2. The label of message m is
the readout its state gives; :mod:`ghzdense.ghzmeasure` lists the labels
of both protocols.

Integers may be Python or numpy ints and the error probability any real
in [0, 1]; bools and other types, like every rejected input, raise
ValueError (exit code 2 on the command line).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .bases import Protocol, ghz_family
from .ghzmeasure import _read_out, _run_network, _syndromes, ghz_measure
from .qstate import StateVector, _checked, _rng, _shown

_BELL = ghz_family(2)
_BY_NAME = {family.name: family for family in (ghz_family(3), _BELL)}
PROTOCOL_NAMES = tuple(_BY_NAME)

_ERRORS = ("X", "Y", "Z")  # the Pauli errors a qubit in transit can suffer
_MAX_TRIALS = np.iinfo(np.int64).max  # numpy's multinomial counts in int64

# Outcome of the two-qubit disentangler (CNOT(1,2) then H(1)) -> message.
BELL_DECODE_TABLE = _BELL.decode_table


def _family(protocol: str) -> Protocol:
    try:
        return _BY_NAME[protocol]
    except (KeyError, TypeError):
        raise ValueError(f"unknown protocol {_shown(protocol)}; expected one of {PROTOCOL_NAMES}") from None


@dataclass(frozen=True)
class ChannelConfig:
    """Transmission channel settings.

    The channel hits each transit qubit on its own with one Pauli drawn
    from that qubit's table. With ``forced_errors`` unset, every table is
    I with weight 1 - ``pauli_error_prob`` and X, Y, Z with a third of it
    each. ``forced_errors`` puts weight 1 on each listed qubit's error and
    on I for every other transit qubit, given as a mapping or pairs like
    ``{1: "Z"}``, and stored as pairs sorted by qubit, so configs that list
    the same errors in another order are equal; listed qubits must be in
    transit for the protocol used.
    It exists for deterministic fault-injection tests, and while set the
    error probability is ignored.
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
                raise ValueError("forced_errors must map qubits to Pauli errors") from None
            if any(g not in _ERRORS for _, g in pairs):
                raise ValueError("forced_errors names an error other than X, Y, Z")
            pairs = tuple(sorted((_checked(q, "forced_errors qubit", 1), g) for q, g in pairs))
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
    which is the same for every message. On a channel of error
    probability p it is (1/2)[(1 - 2p/3)^(n-1) + (1 - 4p/3)^(n-1)] for the
    n-qubit family: 1 - p for bell2, and (1-p)^2 + (p/3)^2 for ghz3, which
    is lowest at p = 0.9 (0.1) and rises to 1/9 at p = 1.
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
        ``bits_per_transmitted_qubit`` the protocol's own, each histogram
        must hold one count per message, summing to ``trials``, and
        ``successes`` must be a diagonal the histograms allow: with s_m
        sent and d_m decoded counts, sum max(0, s_m + d_m - trials) <=
        ``successes`` <= sum min(s_m, d_m). A contradiction's message names
        the fields that break these rules."""

        if not isinstance(data, Mapping):
            raise ValueError(f"trial report must be a mapping, got {type(data).__name__}")

        def real(key, high=None):
            return _checked(data[key], key, 0, high, kind=float)

        try:
            family = _family(data["protocol"])
            trials = _checked(data["trials"], "trials", 1, _MAX_TRIALS)
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
        n, bits = len(family.catalog), _capacity(family).bits_per_transmitted_qubit
        sent, decoded = report.messages_histogram, report.decoded_histogram
        low, high = sum(max(0, s + d - trials) for s, d in zip(sent, decoded)), sum(map(min, sent, decoded))
        holds = {
            "success_rate": report.success_rate == report.successes / trials,
            "bits_per_transmitted_qubit": report.bits_per_transmitted_qubit == bits,
            "messages_histogram": len(sent) == n and sum(sent) == trials,
            "decoded_histogram": len(decoded) == n and sum(decoded) == trials,
            "successes": low <= report.successes <= high,
        }
        if not all(holds.values()):
            raise ValueError("trial report contradicts itself: " + ", ".join(k for k, ok in holds.items() if not ok))
        return report


@dataclass(frozen=True)
class CapacityRow:
    """Classical-capacity bookkeeping for one protocol."""

    protocol: str
    message_count: int
    qubits_transmitted: int
    total_bits: float
    bits_per_transmitted_qubit: float


@cache
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


def _pauli_tables(family: Protocol, channel: ChannelConfig) -> list[tuple[float, float, float, float]]:
    """The channel as one row per transit qubit, in transit order, giving
    the weights of the Paulis (I, X, Y, Z) that qubit suffers on its own:
    (1-p, p/3, p/3, p/3), or one-hot on the forced error (on I for a qubit
    with none listed)."""
    if channel.forced_errors is None:
        p = channel.pauli_error_prob
        return [(1.0 - p, p / 3.0, p / 3.0, p / 3.0)] * len(family.transit)
    forced = dict(channel.forced_errors)
    for q in forced:
        if q not in family.transit:
            raise ValueError(f"forced error on qubit {_shown(q)}, but only qubits {family.transit} are in transit")
    return [tuple(float(g == forced.get(q, "I")) for g in ("I", *_ERRORS)) for q in family.transit]


@cache
def _exchange_inputs(family: Protocol) -> tuple[tuple, np.ndarray]:
    """What ``_decode_distribution`` reads for ``family``, none of it
    depending on the channel: for each transit qubit in transit order its
    syndromes (x, z) from ``ghzmeasure._syndromes``, and the relabel index
    ``labels[:, None] ^ labels`` that spreads the syndrome distribution into
    every row, labels read from ``decode_table``'s keys, which are listed in
    message order. Built on first use, once per family; the index is
    read-only."""
    syndromes = tuple(_syndromes(family.catalog.n_qubits, q) for q in family.transit)
    labels = np.array([int(bits, 2) for bits in family.decode_table])
    relabel = labels[:, None] ^ labels
    relabel.flags.writeable = False
    return syndromes, relabel


def _decode_distribution(family: Protocol, channel: ChannelConfig) -> np.ndarray:
    """``C[m-1, j-1]``, the probability that message m is decoded as j.

    The encoders are local Paulis and the network is Clifford, so a Pauli
    error maps each basis state to a basis state and XORs one bit syndrome
    into every message's label, the same for every message, and errors on
    several qubits XOR their syndromes. That map is a homomorphism: the
    syndrome of a product of Paulis is the XOR of theirs, and Y = iXZ. So
    C needs no exchange, only each transit qubit's syndromes x (of X) and
    z (of Z), which ``ghzmeasure._syndromes`` gives in closed form.
    ``R[s]``, the probability that the channel XORs the syndrome s (an
    integer) into a readout, starts as weight 1 on s = 0; each transit
    qubit's row (I, X, Y, Z) of ``_pauli_tables`` then folds in by XOR
    against the shifts (0, x, x XOR z, z): ``R'[r] = sum of w R[r XOR s]``
    over its terms of nonzero weight w, added left to right from 0 in row
    order (a term of weight 0 would only add 0.0). R holds at most 8
    entries, so it is folded as a list of Python floats and becomes an
    array once, at the end. Every row of C is R relabelled:
    ``C[m, j] = R[label(m) XOR label(j)]``.

    The syndromes and the relabel index come from ``_exchange_inputs``,
    built once per family. The call makes no readout and draws nothing;
    ``run_trials`` checks the error-free exchange."""
    syndromes, relabel = _exchange_inputs(family)
    readouts = range(len(relabel))
    row = [1.0] + [0.0] * (len(relabel) - 1)  # R, by syndrome
    for weights, (x, z) in zip(_pauli_tables(family, channel), syndromes):
        folded = [0.0] * len(row)
        for w, s in zip(weights, (0, x, x ^ z, z)):
            if w:
                for r in readouts:
                    folded[r] += w * row[r ^ s]
        row = folded
    return np.array(row)[relabel]


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
    ``fixed_message`` pins them all to one value. Each trial yields one
    pair (m, j), message m sent and decoded as j, whose exact law is the
    decode distribution C scaled by the prior: C/k, or row m of C alone
    when m is pinned. All draws come from one stream seeded by
    ``channel.rng_seed``: one multinomial draw of ``trials`` over the
    k x k pairs of nonzero weight, in row-major order, so the cost does
    not grow with ``trials`` and a pair of probability 0 is never counted,
    then one readout of message 1's error-free exchange. That readout
    checks the network: unless it decodes as message 1 with certainty the
    call raises ``RuntimeError``. The report's histograms and successes
    are the margins and trace of the joint counts. Equal arguments give
    equal reports.
    """
    family = _family(protocol)
    trials = _checked(trials, "trials", 1, _MAX_TRIALS)
    k = len(family.catalog)
    fixed_message = None if fixed_message is None else _checked(fixed_message, "message index", 1, k)
    dist = _decode_distribution(family, channel)
    rng = _rng(channel.rng_seed)
    weights = dist / k if fixed_message is None else dist * (np.arange(k) == fixed_message - 1)[:, None]
    support = weights > 0
    counts = np.zeros((k, k), dtype=np.int64)  # counts[m, j]: message m + 1 sent, decoded as j + 1
    counts[support] = rng.multinomial(trials, weights[support])
    # Called through the module-level names, so whatever is bound to them
    # (such as the span wrappers of perfbench/tracer.py) runs.
    measure = bell_measure if family is _BELL else ghz_measure
    decoded, probability = measure(family.catalog.states[0], rng)
    if decoded != 1 or abs(probability - 1.0) > 1e-9:
        raise RuntimeError(
            f"no error leaves message 1 decoded as {decoded} only with "
            f"probability {probability}; the channel must map basis states to basis states"
        )
    successes = int(counts.trace())
    return TrialReport(
        protocol=protocol,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        expected_success_rate=float(dist[0, 0]),
        messages_histogram=tuple(counts.sum(axis=1).tolist()),
        decoded_histogram=tuple(counts.sum(axis=0).tolist()),
        bits_per_transmitted_qubit=_capacity(family).bits_per_transmitted_qubit,
        seed=channel.rng_seed,
    )
