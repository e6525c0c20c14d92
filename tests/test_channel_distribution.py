"""The exact decode distribution behind ``run_trials``.

``C[m-1, j-1]`` is the probability that message m is decoded as j. It is
checked against the closed-form success rates, against a Born-rule
reference that uses only the catalog's states, and, through
``run_trials``, against the sampled rates it drives.
"""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import ghzdense
from ghzdense import cli, ghzmeasure, protocol
from ghzdense.encoding import _encode
from ghzdense.ghzmeasure import ghz_measure
from ghzdense.protocol import (
    PROTOCOL_NAMES,
    ChannelConfig,
    TrialReport,
    _decode_distribution,
    _family,
    run_trials,
)
from ghzdense.qstate import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    apply_on_subset,
    embed_on_subset,
    inner_product,
    measure_computational,
)
from test_protocol import _exhaustive_ghz_rate_at_full_noise

PARTNER = [2, 1, 4, 3, 6, 5, 8, 7]
INT64_MAX = np.iinfo(np.int64).max
WILSON_Z = 5.0


def _full_distribution(name: str, channel: ChannelConfig) -> np.ndarray:
    return _decode_distribution(_family(name), channel)


def _closed_form_rate(name: str, p: float) -> float:
    return (1 - p) ** 2 + (p / 3) ** 2 if name == "ghz3" else 1 - p


def _patterns(family) -> list[tuple[tuple[int, str], ...]]:
    """Every Pauli pattern on the transit qubits as ((qubit, error), ...),
    the error-free one first."""
    return [
        tuple((q, g) for q, g in zip(family.transit, letters) if g != "I")
        for letters in itertools.product("IXYZ", repeat=len(family.transit))
    ]


def _overlaps(family, errors) -> np.ndarray:
    """|<basis_j|E enc_m>|^2 at [m-1, j-1] for the pattern E, read from the
    catalog's states without the receiver's network."""
    paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    k = len(family.catalog)
    out = np.zeros((k, k))
    for m in range(1, k + 1):
        state = _encode(family, m)
        for q, g in errors:
            state = apply_on_subset(state, paulis[g], (q,))
        for j in range(1, k + 1):
            out[m - 1, j - 1] = abs(inner_product(family.catalog.state(j), state)) ** 2
    return out


def _weighted_patterns(family, channel: ChannelConfig) -> list[tuple[float, tuple]]:
    """Every pattern of ``_patterns`` with its weight: 1 for the forced
    pattern and 0 for the rest, or (1-p)^(t-e) (p/3)^e for e errors on t
    transit qubits, multiplied out one factor per qubit."""
    if channel.forced_errors is not None:
        return [(float(set(errors) == set(channel.forced_errors)), errors) for errors in _patterns(family)]
    p, t = channel.pauli_error_prob, len(family.transit)
    return [(math.prod([1 - p] * (t - len(e)) + [p / 3] * len(e)), e) for e in _patterns(family)]


def _born_reference(name: str, p: float) -> np.ndarray:
    """Sum over every Pauli pattern of its weight times its overlaps."""
    family = _family(name)
    k = len(family.catalog)
    dist = np.zeros((k, k))
    for weight, errors in _weighted_patterns(family, ChannelConfig(pauli_error_prob=p)):
        dist += weight * _overlaps(family, errors)
    return dist


def _per_pattern_reference(family, channel: ChannelConfig) -> np.ndarray:
    """The decode distribution built by one exchange of message 1 per
    weighted pattern, each landing at its own readout label, then
    relabelled into every row by XOR."""
    paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    measure = protocol.bell_measure if family.name == "bell2" else ghz_measure
    labels = np.array([int(bits, 2) for bits in family.decode_table])
    row = np.zeros(len(labels))
    for weight, errors in _weighted_patterns(family, channel):
        state = _encode(family, 1)
        for q, g in errors:
            state = apply_on_subset(state, paulis[g], (q,))
        decoded, probability = measure(state, 0)
        assert probability == pytest.approx(1.0, abs=1e-9)
        row[labels[decoded - 1]] += weight
    return row[labels[:, None] ^ labels ^ labels[0]]


def _syndromes(family) -> tuple[int, list[tuple[int, int]]]:
    """Message 1's error-free readout label, and for each transit qubit in
    transit order the syndromes (x, z) that X and Z on it XOR into it."""
    paulis = {"X": PAULI_X, "Z": PAULI_Z}
    measure = protocol.bell_measure if family.name == "bell2" else ghz_measure
    labels = [int(bits, 2) for bits in family.decode_table]
    sent = _encode(family, 1)

    def label(state):
        return labels[measure(state, 0)[0] - 1]

    base = label(sent)
    return base, [tuple(label(apply_on_subset(sent, paulis[g], (q,))) ^ base for g in "XZ") for q in family.transit]


def _array_fold(family, channel: ChannelConfig, base: int, syndromes) -> np.ndarray:
    """The decode distribution folded as numpy arrays: each transit qubit's
    row of ``_pauli_tables`` adds ``w * R[readouts ^ s]`` over its terms of
    nonzero weight, left to right from 0, then R is relabelled into every
    row by XOR."""
    labels = np.array([int(bits, 2) for bits in family.decode_table])
    readouts = np.arange(len(labels))
    row = (readouts == base).astype(float)
    for weights, (x, z) in zip(protocol._pauli_tables(family, channel), syndromes):
        row = sum(w * row[readouts ^ s] for w, s in zip(weights, (0, x, x ^ z, z)) if w)
    return row[labels[:, None] ^ labels ^ labels[0]]


def _wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval (Wilson 1927) for a binomial proportion."""
    rate = successes / trials
    denom = 1 + z * z / trials
    centre = (rate + z * z / (2 * trials)) / denom
    half = z / denom * math.sqrt(rate * (1 - rate) / trials + z * z / (4 * trials * trials))
    return centre - half, centre + half


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_rows_sum_to_one(name):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.given(st.floats(0.0, 1.0))
    def check(p):
        dist = _full_distribution(name, ChannelConfig(pauli_error_prob=p))
        assert np.all(dist >= 0.0)
        assert_allclose(dist.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    check()


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("p", [0.0, 0.05, 0.2, 0.5, 0.9, 1.0])
def test_mean_diagonal_is_the_closed_form_rate(name, p):
    dist = _full_distribution(name, ChannelConfig(pauli_error_prob=p))
    assert np.trace(dist) / len(dist) == pytest.approx(_closed_form_rate(name, p), abs=1e-12)


def _walsh_hadamard_row(family, channel: ChannelConfig) -> np.ndarray:
    """Message 1's readout distribution R as a Walsh-Hadamard transform,
    folding nothing: R = H (chi * prod_q lambda_q) / 2^n, with H[r, s] =
    (-1)^(r . s) the Sylvester-Hadamard matrix, chi = H[base] the
    transform of weight 1 on message 1's error-free readout, and
    lambda_q = w_I + w_X H[x] + w_Y H[x ^ z] + w_Z H[z] from qubit q's row
    of ``_pauli_tables`` and its syndromes from ``ghzmeasure._syndromes``.
    Then relabelled into every row by XOR."""
    n = family.catalog.n_qubits
    labels = np.array([int(bits, 2) for bits in family.decode_table])
    readouts = np.arange(2**n)
    hadamard = np.array([[(-1) ** bin(r & s).count("1") for s in readouts] for r in readouts], dtype=float)
    spectrum = hadamard[labels[0]].copy()
    for (w_i, w_x, w_y, w_z), q in zip(protocol._pauli_tables(family, channel), family.transit):
        x, z = ghzmeasure._syndromes(n, q)
        spectrum *= w_i + w_x * hadamard[x] + w_y * hadamard[x ^ z] + w_z * hadamard[z]
    row = hadamard @ spectrum / 2**n
    return row[labels[:, None] ^ labels ^ labels[0]]


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_decode_distribution_equals_its_closed_forms_on_a_grid(name):
    """Two references that share no code with the fold, on 2001 values of
    p in [0, 1]: every diagonal entry is the success rate
    (1/2)[(1 - 2p/3)^(n-1) + (1 - 4p/3)^(n-1)], and the whole distribution
    is the Walsh-Hadamard row, both to 1e-12."""
    family = _family(name)
    n = family.catalog.n_qubits
    for p in np.linspace(0.0, 1.0, 2001):
        channel = ChannelConfig(pauli_error_prob=p)
        dist = _decode_distribution(family, channel)
        rate = ((1 - 2 * p / 3) ** (n - 1) + (1 - 4 * p / 3) ** (n - 1)) / 2
        assert_allclose(np.diag(dist), rate, rtol=0, atol=1e-12, err_msg=f"p = {p}")
        assert_allclose(dist, _walsh_hadamard_row(family, channel), rtol=0, atol=1e-12, err_msg=f"p = {p}")


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_decode_distribution_equals_the_fold_in_fractions(name):
    """The exact reference at rational p: each transit qubit's weights
    (1 - p, p/3, p/3, p/3) folded against the syndromes of the exchanges in
    ``Fraction``s, then relabelled into every row, lies within 1e-15 of the
    floats; for ghz3 at p = 1/10 the diagonal is exactly 73/90."""
    family = _family(name)
    base, syndromes = _syndromes(family)
    labels = [int(bits, 2) for bits in family.decode_table]
    readouts = range(len(labels))
    for p in (Fraction(1, 10), Fraction(3, 10), Fraction(3, 4), Fraction(1)):
        row = [Fraction(r == base) for r in readouts]
        for x, z in syndromes:
            weights = (1 - p, p / 3, p / 3, p / 3)
            row = [sum(w * row[r ^ s] for w, s in zip(weights, (0, x, x ^ z, z))) for r in readouts]
        exact = [[row[a ^ b ^ labels[0]] for b in labels] for a in labels]
        dist = _decode_distribution(family, ChannelConfig(pauli_error_prob=float(p)))
        worst = max(abs(Fraction(float(d)) - e) for drow, erow in zip(dist, exact) for d, e in zip(drow, erow))
        assert worst <= Fraction(1, 10**15), (p, float(worst))
        if name == "ghz3" and p == Fraction(1, 10):
            assert {exact[m][m] for m in readouts} == {Fraction(73, 90)}


def test_full_noise_rate_matches_exhaustive_enumeration():
    dist = _full_distribution("ghz3", ChannelConfig(pauli_error_prob=1.0))
    rate = np.trace(dist) / 8
    assert rate == pytest.approx(1 / 9, abs=1e-12)
    assert rate == pytest.approx(_exhaustive_ghz_rate_at_full_noise(), abs=1e-12)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_matches_born_rule_reference(name, p):
    dist = _full_distribution(name, ChannelConfig(pauli_error_prob=p))
    assert_allclose(dist, _born_reference(name, p), rtol=0, atol=1e-12)


def test_forced_phase_flip_is_the_partner_permutation():
    dist = _full_distribution("ghz3", ChannelConfig(forced_errors={1: "Z"}))
    assert_array_equal(dist, np.eye(8)[np.array(PARTNER) - 1])


FORCED = [(name, errors) for name in PROTOCOL_NAMES for errors in _patterns(_family(name))]


@pytest.mark.parametrize(
    "name, errors", FORCED, ids=[f"{n}-{''.join(f'{q}{g}' for q, g in e)}" for n, e in FORCED]
)
def test_forced_pattern_is_the_catalog_permutation(name, errors):
    overlaps = _overlaps(_family(name), errors)
    target = overlaps.argmax(axis=1)
    assert sorted(target) == list(range(len(overlaps)))
    assert_allclose(overlaps.max(axis=1), 1.0, rtol=0, atol=1e-12)
    channel = ChannelConfig(forced_errors=errors)
    dist = _full_distribution(name, channel)
    assert_array_equal(dist, np.eye(len(overlaps))[target])
    assert_array_equal(dist, _per_pattern_reference(_family(name), channel))


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.7, 1.0])
def test_errors_shift_every_label_by_one_syndrome(name, p):
    """Row m of the reference is row 1 with labels XORed by message m's:
    the physics that lets the decode distribution be built from one row."""
    family = _family(name)
    label = {m: int(bits, 2) for bits, m in family.decode_table.items()}
    message = {v: m for m, v in label.items()}
    reference = _born_reference(name, p)
    relabelled = [
        [reference[0, message[label[m] ^ label[j]] - 1] for j in sorted(label)] for m in sorted(label)
    ]
    assert_allclose(reference, relabelled, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.75, 1.0])
def test_generator_build_equals_one_exchange_per_pattern(name, p):
    """Syndromes XOR: the build from one exchange per X or Z error on each
    transit qubit is bit for bit the build from one exchange per pattern."""
    family, channel = _family(name), ChannelConfig(pauli_error_prob=p)
    assert_array_equal(_decode_distribution(family, channel), _per_pattern_reference(family, channel))


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_generator_build_equals_one_exchange_per_pattern_at_any_p(name):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.given(st.floats(0.0, 1.0))
    def check(p):
        family, channel = _family(name), ChannelConfig(pauli_error_prob=p)
        assert_array_equal(_decode_distribution(family, channel), _per_pattern_reference(family, channel))

    check()


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_float_fold_equals_the_array_fold_bit_for_bit(name):
    """Same products, added in the same order: on 2017 values of p, the
    two smallest positive ones and every forced pattern, the decode
    distribution holds exactly the floats of the array fold."""
    family = _family(name)
    base, syndromes = _syndromes(family)
    grid = [*np.linspace(0.0, 1.0, 2017).tolist(), 5e-324, 1e-300]
    channels = [ChannelConfig(pauli_error_prob=p) for p in grid]
    channels += [ChannelConfig(forced_errors=errors) for errors in _patterns(family)]
    assert len(channels) == 2019 + 4 ** len(family.transit)
    for channel in channels:
        want = _array_fold(family, channel, base, syndromes)
        assert np.array_equal(_decode_distribution(family, channel), want), channel


def _assert_rule_syndromes(n: int, states, label) -> None:
    """For every state and every qubit, the receiver's included, the
    rule's x and z are what X and Z XOR into ``label``, the readout as an
    integer, sign bit first; Y XORs their XOR."""
    paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    for state in states:
        for q in range(1, n + 1):
            x, z = ghzmeasure._syndromes(n, q)
            got = {g: label(apply_on_subset(state, u, (q,))) ^ label(state) for g, u in paulis.items()}
            assert got == {"X": x, "Y": x ^ z, "Z": z}, (q, got)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_syndromes_equal_the_exchanges(name):
    """On every message of the family, read out by its own measurement."""
    family = _family(name)
    measure = protocol.bell_measure if name == "bell2" else ghz_measure
    labels = [int(bits, 2) for bits in family.decode_table]

    def label(state):
        decoded, probability = measure(state, 0)
        assert probability == pytest.approx(1.0, abs=1e-9)
        return labels[decoded - 1]

    _assert_rule_syndromes(family.catalog.n_qubits, family.catalog.states, label)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_syndromes_equal_the_exchanges_beyond_three_qubits(n):
    """On every n-qubit GHZ state (|0t> +- |1t'>)/sqrt(2), t' the complement
    of t, read out through the network CNOT(1, k) for k = n..2, then H(1),
    built here from embedded gates."""
    gates = [embed_on_subset(CNOT, (1, k), n) for k in range(n, 1, -1)] + [embed_on_subset(HADAMARD, (1,), n)]
    network = np.eye(1 << n)
    for gate in gates:
        network = gate.entries @ network

    def label(state):
        outcome, probability = measure_computational(StateVector(network @ state.amplitudes), 0)
        assert probability == pytest.approx(1.0, abs=1e-9)
        return int(outcome, 2)

    states = []
    for first, sign in itertools.product(range(1 << (n - 1)), (1.0, -1.0)):
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[first], amps[first ^ ((1 << n) - 1)] = 1.0, sign
        states.append(StateVector(amps / np.sqrt(2.0)))
    _assert_rule_syndromes(n, states, label)


@pytest.fixture
def exchanges(monkeypatch) -> list[str]:
    """The measurements ``protocol`` makes, by name, in call order."""
    calls = []
    for name in ("ghz_measure", "bell_measure"):
        real = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


@pytest.mark.parametrize(
    "name, channel",
    [
        ("ghz3", ChannelConfig(forced_errors={1: "Z"})),
        ("ghz3", ChannelConfig(forced_errors={2: "Y"})),
        ("ghz3", ChannelConfig(forced_errors={1: "X", 2: "Z"})),
        ("ghz3", ChannelConfig(forced_errors={1: "Y", 2: "Y"})),
        ("ghz3", ChannelConfig(forced_errors={})),
        ("ghz3", ChannelConfig(pauli_error_prob=0.5, forced_errors={2: "Y"})),  # p is ignored
        ("bell2", ChannelConfig(forced_errors={1: "X"})),
        ("bell2", ChannelConfig(forced_errors={1: "Y"})),
        ("ghz3", ChannelConfig(pauli_error_prob=1.0)),
        ("bell2", ChannelConfig(pauli_error_prob=1.0)),
        ("ghz3", ChannelConfig(pauli_error_prob=0.0)),
        ("ghz3", ChannelConfig(pauli_error_prob=0.1)),
        ("bell2", ChannelConfig(pauli_error_prob=0.0)),
        ("bell2", ChannelConfig(pauli_error_prob=0.3)),
    ],
)
def test_exchange_counts(exchanges, monkeypatch, name, channel):
    """Whatever the channel, a call reads out the error-free exchange only:
    one measurement and one computational readout, also on a warm call."""
    run_trials(name, 1_000, channel)
    readouts, real = [], ghzmeasure.measure_computational
    monkeypatch.setattr(ghzmeasure, "measure_computational", lambda *a: readouts.append(a) or real(*a))
    run_trials(name, 1_000, channel)
    assert exchanges == ["bell_measure" if name == "bell2" else "ghz_measure"] * 2
    assert len(readouts) == 1


def test_uncertain_readout_is_an_error(monkeypatch):
    monkeypatch.setattr(protocol, "ghz_measure", lambda state, rng: (1, 0.5))
    with pytest.raises(RuntimeError, match="basis states"):
        run_trials("ghz3", 10)


def test_uncertain_readout_error_names_the_exchange(monkeypatch):
    monkeypatch.setattr(protocol, "ghz_measure", lambda state, rng: (1, 0.5))
    message = (
        "no error leaves message 1 decoded as 1 only with probability 0.5; "
        "the channel must map basis states to basis states"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        run_trials("ghz3", 10, ChannelConfig(pauli_error_prob=0.1))


def test_a_wrong_certain_readout_is_an_error(monkeypatch):
    """The readout must be message 1's, not only certain."""
    monkeypatch.setattr(protocol, "ghz_measure", lambda state, rng: (3, 1.0))
    with pytest.raises(RuntimeError, match="decoded as 3 only with probability 1.0"):
        run_trials("ghz3", 10)


def test_decode_distribution_makes_no_readout():
    """In a fresh process, on a noisy and a forced channel of both families:
    no measurement, no computational readout, and no ``numpy.random``
    beyond what numpy itself loads."""
    probe = (
        "import sys, numpy\n"
        "bare = 'numpy.random' in sys.modules\n"
        "from ghzdense import ghzmeasure, protocol, qstate\n"
        "calls = []\n"
        "for module, name in [(protocol, 'ghz_measure'), (protocol, 'bell_measure'),\n"
        "                     (ghzmeasure, 'measure_computational'), (qstate, 'measure_computational')]:\n"
        "    real = getattr(module, name)\n"
        "    setattr(module, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))\n"
        "for family in protocol._BY_NAME.values():\n"
        "    protocol._decode_distribution(family, protocol.ChannelConfig(pauli_error_prob=0.1))\n"
        "    protocol._decode_distribution(family, protocol.ChannelConfig(forced_errors={1: 'Y'}))\n"
        "print(calls, bare, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ghzdense.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    calls, bare, after = out.stdout.rsplit(maxsplit=2)
    assert calls == "[]"
    assert after == bare


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: protocol.roundtrip_ghz(9), "message index must lie in [1, 8], got 9"),
        (lambda: protocol.roundtrip_bell(0), "message index must lie in [1, 4], got 0"),
        (lambda: run_trials("bell2", 10, fixed_message=5), "message index must lie in [1, 4], got 5"),
        (lambda: run_trials("ghz3", 10, fixed_message=True), "message index must be an integer, got True"),
    ],
    ids=["roundtrip_ghz(9)", "roundtrip_bell(0)", "bell2 pinned to 5", "ghz3 pinned to True"],
)
def test_a_rejected_pinned_message_is_a_message_index(exchanges, call, shown):
    """Named as ``encode`` names it, and rejected before any readout."""
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        call()
    assert exchanges == []


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_exchange_inputs_are_the_rule_syndromes_and_read_only_labels(name):
    family = _family(name)
    syndromes, relabel = protocol._exchange_inputs(family)
    assert syndromes == tuple(ghzmeasure._syndromes(family.catalog.n_qubits, q) for q in family.transit)
    labels = np.array([int(bits, 2) for bits in family.decode_table])
    assert labels[0] == 0  # message 1 reads out as 0, so R is message 1's row
    assert_array_equal(relabel, labels[:, None] ^ labels)
    assert not relabel.flags.writeable


@pytest.fixture
def applied(monkeypatch) -> list[tuple]:
    """The arguments of every ``apply_on_subset`` call, patched at each
    binding the package's modules hold."""
    calls, real = [], ghzdense.qstate.apply_on_subset
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ghzdense" and getattr(module, "apply_on_subset", None) is real:
            monkeypatch.setattr(module, "apply_on_subset", lambda *a: calls.append(a) or real(*a))
    return calls


def test_run_trials_never_calls_apply_on_subset(applied):
    """No error is injected into a state, with the exchange inputs cold
    (cache cleared) or warm, on any channel. The networks are built first:
    ``embed_on_subset`` builds their operators from ``apply_on_subset``."""
    for name in PROTOCOL_NAMES:
        ghzmeasure._network_operator(_family(name))
    applied.clear()
    protocol._exchange_inputs.cache_clear()
    try:
        for p in (0.0, 0.1):
            run_trials("ghz3", 10, ChannelConfig(pauli_error_prob=p))
            run_trials("bell2", 10, ChannelConfig(pauli_error_prob=p))
    finally:
        protocol._exchange_inputs.cache_clear()
    assert applied == []


def test_warm_trials_inject_no_error_and_seed_only_their_own_stream(monkeypatch, applied):
    for name in PROTOCOL_NAMES:
        run_trials(name, 10)
    applied.clear()  # a cold network operator is built from apply_on_subset
    seeded, real_rng = [], protocol._rng
    monkeypatch.setattr(protocol, "_rng", lambda seed: seeded.append(seed) or real_rng(seed))
    channels = [ChannelConfig(p, seed) for p, seed in [(0.0, 3), (0.1, 4), (1.0, 5)]]
    channels.append(ChannelConfig(rng_seed=6, forced_errors={1: "Y"}))
    for name in PROTOCOL_NAMES:
        for channel in channels:
            run_trials(name, 1_000, channel)
    assert applied == []
    assert seeded == [3, 4, 5, 6] * 2


def test_import_loads_no_numpy_random():
    """Each random stream is built by the call that draws from it, so
    importing the package or its command line loads ``numpy.random`` only
    if numpy itself does."""
    probe = (
        "import sys, numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "import ghzdense\n"
        "print('numpy.random' in sys.modules)\n"
        "import ghzdense.cli\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ghzdense.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    bare, package, command_line = out.stdout.split()
    assert package == command_line == bare


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("p", [round(0.05 * i, 2) for i in range(1, 11)])
def test_sampled_rate_lies_in_wilson_interval(name, p):
    seed = 1000 + round(100 * p)
    report = run_trials(name, 100_000, ChannelConfig(pauli_error_prob=p, rng_seed=seed))
    assert report.expected_success_rate == pytest.approx(_closed_form_rate(name, p), abs=1e-12)
    low, high = _wilson_interval(report.successes, report.trials, WILSON_Z)
    assert low <= report.expected_success_rate <= high


def test_report_fields():
    report = run_trials("ghz3", 5_000, ChannelConfig(pauli_error_prob=0.3, rng_seed=4))
    assert sum(report.decoded_histogram) == 5_000
    assert len(report.decoded_histogram) == 8
    assert report.expected_success_rate == pytest.approx(_closed_form_rate("ghz3", 0.3), abs=1e-12)
    pinned = run_trials("bell2", 50, ChannelConfig(forced_errors={1: "X"}), fixed_message=1)
    assert pinned.decoded_histogram == (0, 0, 50, 0)
    assert pinned.expected_success_rate == 0.0
    assert pinned.successes == 0


@pytest.mark.parametrize("fixed", [3])
def test_one_stream_draws_message_counts_then_each_row(fixed):
    """A pinned message draws what it drew when each message's row was
    drawn on its own: its row alone, replayed as the reference."""
    channel = ChannelConfig(pauli_error_prob=0.3, rng_seed=17)
    report = run_trials("ghz3", 5_000, channel, fixed_message=fixed)
    rng = np.random.default_rng(17)
    sent = [5_000 if m == fixed else 0 for m in range(1, 9)]
    rows = [rng.multinomial(n, row) for n, row in zip(sent, _full_distribution("ghz3", channel))]
    assert report.messages_histogram == tuple(sent)
    assert report.decoded_histogram == tuple(np.sum(rows, axis=0))


@pytest.mark.parametrize("name, p", [("ghz3", 0.3), ("ghz3", 1.0), ("bell2", 0.3)])
@pytest.mark.parametrize("fixed", [None, 3])
def test_one_stream_draws_the_joint_counts_then_the_readout(monkeypatch, name, p, fixed):
    """The documented draw order, replayed as the reference: one multinomial
    over the (sent, decoded) pairs of nonzero weight, C/k or row m of C
    alone, in row-major order, then the readout on the same stream. At
    ghz3 and p = 1 some pairs have weight 0."""
    readout_states = []
    measure = "ghz_measure" if name == "ghz3" else "bell_measure"
    real = getattr(protocol, measure)
    monkeypatch.setattr(
        protocol, measure, lambda state, rng: readout_states.append(rng.bit_generator.state) or real(state, rng)
    )
    channel = ChannelConfig(pauli_error_prob=p, rng_seed=17)
    report = run_trials(name, 5_000, channel, fixed_message=fixed)
    dist = _full_distribution(name, channel)
    k = len(dist)
    weights = dist / k if fixed is None else np.where(np.arange(k)[:, None] == fixed - 1, dist, 0.0)
    support = weights > 0
    rng = np.random.default_rng(17)
    counts = np.zeros((k, k), dtype=np.int64)
    counts[support] = rng.multinomial(5_000, weights[support])
    assert readout_states == [rng.bit_generator.state]
    assert report.messages_histogram == tuple(counts.sum(axis=1))
    assert report.decoded_histogram == tuple(counts.sum(axis=0))
    assert report.successes == counts.trace()


# Pinned-message reports as the per-row draw gave them, before the batch
# became one joint draw: (protocol, p, seed, trials, message) -> (successes,
# decoded_histogram). A pinned message's draw is its row alone, so they hold.
PINNED_REPORTS = {
    ("ghz3", 0.1, 0, 1_000, 1): (833, (833, 54, 31, 32, 24, 22, 2, 2)),
    ("ghz3", 0.3, 7, 1_000_000, 5): (500420, (79959, 79722, 19761, 20050, 500420, 140110, 79917, 80061)),
    ("ghz3", 0.9, 3, 7, 8): (1, (0, 1, 2, 1, 0, 1, 1, 1)),
    ("ghz3", 1.0, 2, 1_000, 4): (114, (114, 119, 0, 114, 213, 205, 117, 118)),
    ("ghz3", 0.5, 11, 1_000_000, 2): (278590, (166398, 278590, 110526, 111098, 111116, 111447, 55192, 55633)),
    ("bell2", 0.05, 1, 1_000_000, 2): (950369, (16591, 950369, 16522, 16518)),
    ("bell2", 0.5, 19, 1_000, 3): (503, (161, 175, 503, 161)),
    ("bell2", 0.75, 4, 7, 4): (0, (4, 1, 2, 0)),
}


@pytest.mark.parametrize("case", PINNED_REPORTS, ids=lambda case: "-".join(map(str, case)))
def test_pinned_message_reports_are_the_recorded_ones(case):
    name, p, seed, trials, message = case
    report = run_trials(name, trials, ChannelConfig(pauli_error_prob=p, rng_seed=seed), fixed_message=message)
    assert (report.successes, report.decoded_histogram) == PINNED_REPORTS[case]
    assert report.messages_histogram[message - 1] == sum(report.messages_histogram) == trials


def _impossible_success_channels():
    """bell2 at p = 1 and every forced pattern whose diagonal is 0, with
    uniform messages and pinned to the last message."""
    cases = [("bell2", ChannelConfig(pauli_error_prob=1.0), fixed, "p=1") for fixed in (None, 4)]
    for name in PROTOCOL_NAMES:
        family = _family(name)
        for errors in _patterns(family):
            channel = ChannelConfig(forced_errors=errors)
            if _full_distribution(name, channel)[0, 0] == 0:
                shown = "".join(f"{g}{q}" for q, g in errors)
                cases += [(name, channel, fixed, shown) for fixed in (None, len(family.catalog))]
    return [pytest.param(*case[:3], id=f"{case[0]}-{case[3]}-{case[2]}") for case in cases]


@pytest.mark.parametrize("name, channel, fixed", _impossible_success_channels())
def test_a_batch_never_counts_a_pair_of_probability_zero(name, channel, fixed):
    """At 2^63 - 1 trials numpy's multinomial hands its last category what
    rounding leaves over; that category is always one of positive weight."""
    report = run_trials(name, INT64_MAX, channel, fixed_message=fixed)
    assert report.expected_success_rate == 0.0
    assert report.successes == 0
    dist = _full_distribution(name, channel)
    sent, decoded = report.messages_histogram, report.decoded_histogram
    assert all(d == 0 for d, column in zip(decoded, dist.T) if not column.any())
    if fixed is not None:
        assert all(d == 0 for d, w in zip(decoded, dist[fixed - 1]) if w == 0)
        assert sent[fixed - 1] == INT64_MAX


def test_single_exchange_is_a_one_trial_batch():
    channel = ChannelConfig(pauli_error_prob=0.6, rng_seed=3)
    for m in range(1, 9):
        decoded, ok = protocol.roundtrip_ghz(m, channel)
        report = run_trials("ghz3", 1, channel, fixed_message=m)
        assert report.decoded_histogram[decoded - 1] == 1
        assert ok == (report.successes == 1)


def test_cost_does_not_grow_with_trials(exchanges):
    """One readout per call, the error-free exchange's, whatever the trial
    count, the channel or a pinned message."""
    calls = exchanges
    channel = ChannelConfig(pauli_error_prob=0.1, rng_seed=0)
    run_trials("ghz3", 10, channel)
    assert len(calls) == 1
    report = run_trials("ghz3", 1_000_000, channel)
    assert len(calls) == 2
    assert sum(report.messages_histogram) == 1_000_000
    run_trials("ghz3", 1_000, channel, fixed_message=5)
    assert len(calls) == 3
    for name, measure in [("ghz3", "ghz_measure"), ("bell2", "bell_measure")]:
        for p in (0.1, 0.0):
            calls.clear()
            run_trials(name, 1_000_000, ChannelConfig(pauli_error_prob=p))
            assert calls == [measure], (name, p)


def test_roundtrip_json_carries_exact_rate_and_decoded_counts():
    argv = ["roundtrip", "--protocol", "bell2", "--trials", "300", "--noise", "0.2", "--seed", "9"]
    payload = json.loads(cli.dispatch([*argv, "--json"]).stdout)
    assert payload["expected_success_rate"] == pytest.approx(0.8, abs=1e-12)
    assert sum(payload["decoded_histogram"]) == 300
    assert TrialReport.from_json_dict(payload).to_json_dict() == payload
    text = cli.dispatch(argv).stdout
    rows = [line.split(maxsplit=1) for line in text.splitlines()]
    assert [key for key, _ in rows] == [
        "protocol",
        "trials",
        "successes",
        "success_rate",
        "expected_success_rate",
        "messages_histogram",
        "decoded_histogram",
        "bits_per_transmitted_qubit",
        "seed",
    ]

    def rendered(value):
        if isinstance(value, float):
            return cli._fmt(value)
        if isinstance(value, list):
            return " ".join(f"{m}:{count}" for m, count in enumerate(value, start=1))
        return str(value)

    assert dict(rows) == {key: rendered(value) for key, value in payload.items()}
