"""The exact decode distribution behind ``run_trials``.

``C[m-1, j-1]`` is the probability that message m is decoded as j. It is
checked against the closed-form success rates, against a Born-rule
reference that uses only the catalog's states, and, through
``run_trials``, against the sampled rates it drives.
"""

import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ghzdense import cli, protocol
from ghzdense.encoding import _encode
from ghzdense.protocol import (
    PROTOCOL_NAMES,
    ChannelConfig,
    TrialReport,
    _channel_terms,
    _decode_distribution,
    _family,
    run_trials,
)
from ghzdense.qstate import PAULI_X, PAULI_Y, PAULI_Z, apply_on_subset, inner_product
from test_protocol import _exhaustive_ghz_rate_at_full_noise

PARTNER = [2, 1, 4, 3, 6, 5, 8, 7]
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


def _born_reference(name: str, p: float) -> np.ndarray:
    """Sum over every Pauli pattern of its weight times its overlaps."""
    family = _family(name)
    k = len(family.catalog)
    dist = np.zeros((k, k))
    for errors in _patterns(family):
        weight = (1 - p) ** (len(family.transit) - len(errors)) * (p / 3) ** len(errors)
        dist += weight * _overlaps(family, errors)
    return dist


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


FORCED = [(name, errors) for name in PROTOCOL_NAMES for errors in _patterns(_family(name))[1:]]


@pytest.mark.parametrize(
    "name, errors", FORCED, ids=[f"{n}-{''.join(f'{q}{g}' for q, g in e)}" for n, e in FORCED]
)
def test_forced_pattern_is_the_catalog_permutation(name, errors):
    overlaps = _overlaps(_family(name), errors)
    target = overlaps.argmax(axis=1)
    assert sorted(target) == list(range(len(overlaps)))
    assert_allclose(overlaps.max(axis=1), 1.0, rtol=0, atol=1e-12)
    dist = _full_distribution(name, ChannelConfig(forced_errors=errors))
    assert_array_equal(dist, np.eye(len(overlaps))[target])


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


def test_pattern_counts():
    ghz, bell = _family("ghz3"), _family("bell2")
    assert len(_channel_terms(ghz, ChannelConfig())) == 1
    assert len(_channel_terms(ghz, ChannelConfig(pauli_error_prob=0.2))) == 16
    assert len(_channel_terms(ghz, ChannelConfig(pauli_error_prob=1.0))) == 9
    assert len(_channel_terms(bell, ChannelConfig(pauli_error_prob=0.2))) == 4
    assert len(_channel_terms(bell, ChannelConfig(pauli_error_prob=1.0))) == 3
    forced = ChannelConfig(pauli_error_prob=0.5, forced_errors={2: "Y"})
    assert _channel_terms(ghz, forced) == [(1.0, ((2, "Y"),))]


def test_uncertain_readout_is_an_error(monkeypatch):
    monkeypatch.setattr(protocol, "ghz_measure", lambda state, rng: (1, 0.5))
    with pytest.raises(RuntimeError, match="basis states"):
        run_trials("ghz3", 10)


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


@pytest.mark.parametrize("fixed", [None, 3])
def test_one_stream_draws_message_counts_then_each_row(fixed):
    """The documented draw order, replayed one row at a time as the reference."""
    channel = ChannelConfig(pauli_error_prob=0.3, rng_seed=17)
    report = run_trials("ghz3", 5_000, channel, fixed_message=fixed)
    rng = np.random.default_rng(17)
    if fixed is None:
        sent = rng.multinomial(5_000, [1 / 8] * 8)
    else:
        sent = [5_000 if m == fixed else 0 for m in range(1, 9)]
    rows = [rng.multinomial(n, row) for n, row in zip(sent, _full_distribution("ghz3", channel))]
    assert report.messages_histogram == tuple(sent)
    assert report.decoded_histogram == tuple(np.sum(rows, axis=0))


def test_single_exchange_is_a_one_trial_batch():
    channel = ChannelConfig(pauli_error_prob=0.6, rng_seed=3)
    for m in range(1, 9):
        decoded, ok = protocol.roundtrip_ghz(m, channel)
        report = run_trials("ghz3", 1, channel, fixed_message=m)
        assert report.decoded_histogram[decoded - 1] == 1
        assert ok == (report.successes == 1)


def test_cost_does_not_grow_with_trials(monkeypatch):
    calls = []
    real = protocol.ghz_measure
    monkeypatch.setattr(protocol, "ghz_measure", lambda *a: calls.append(1) or real(*a))
    channel = ChannelConfig(pauli_error_prob=0.1, rng_seed=0)
    run_trials("ghz3", 10, channel)
    few = len(calls)
    report = run_trials("ghz3", 1_000_000, channel)
    assert len(calls) - few == few == 16
    assert sum(report.messages_histogram) == 1_000_000
    run_trials("ghz3", 1_000, channel, fixed_message=5)
    assert len(calls) == 3 * 16


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
