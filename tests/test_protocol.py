import json
import math

import numpy as np
import pytest

from ghzdense.bases import bell_state, ghz_family
from ghzdense.encoding import bell_encode, encode
from ghzdense.protocol import (
    BELL_DECODE_TABLE,
    PROTOCOL_NAMES,
    CapacityRow,
    ChannelConfig,
    TrialReport,
    _decode_distribution,
    bell_measure,
    capacity_summary,
    roundtrip_bell,
    roundtrip_ghz,
    run_trials,
)
from ghzdense.qstate import PAULI_X, PAULI_Y, PAULI_Z, apply_on_subset


# ---------------------------------------------------------------------------
# noiseless round trips
# ---------------------------------------------------------------------------


class TestNoiselessRoundtrip:
    def test_ghz_all_messages_survive(self):
        for m in range(1, 9):
            decoded, ok = roundtrip_ghz(m, ChannelConfig(rng_seed=m))
            assert decoded == m
            assert ok

    def test_bell_all_messages_survive(self):
        for m in range(1, 5):
            decoded, ok = roundtrip_bell(m, ChannelConfig(rng_seed=m))
            assert decoded == m
            assert ok

    def test_bell_decode_table_and_measurement(self):
        assert BELL_DECODE_TABLE == {"00": 1, "10": 2, "01": 3, "11": 4}
        for m in range(1, 5):
            decoded, prob = bell_measure(bell_encode(m), rng_seed=0)
            assert decoded == m
            assert prob == pytest.approx(1.0, abs=1e-12)

    def test_message_validation(self):
        with pytest.raises(ValueError):
            roundtrip_ghz(0, ChannelConfig())
        with pytest.raises(ValueError):
            roundtrip_ghz(9, ChannelConfig())
        with pytest.raises(ValueError):
            roundtrip_bell(5, ChannelConfig())


# ---------------------------------------------------------------------------
# forced single errors: exact consequences
# ---------------------------------------------------------------------------


class TestForcedErrors:
    def test_bit_flip_on_first_transit_qubit_confuses_third_message(self):
        cfg = ChannelConfig(forced_errors={1: "X"})
        decoded, ok = roundtrip_ghz(3, cfg)
        assert decoded == 1
        assert not ok

    def test_phase_flip_on_first_qubit_swaps_partner_states(self):
        """A Z error on transit qubit 1 flips the sign between the two
        kets, landing on the partner basis state every time."""
        partner = [2, 1, 4, 3, 6, 5, 8, 7]
        cfg = ChannelConfig(forced_errors={1: "Z"})
        for m in range(1, 9):
            decoded, ok = roundtrip_ghz(m, cfg)
            assert decoded == partner[m - 1]
            assert not ok

    def test_phase_flip_breaks_bell_message_1(self):
        decoded, ok = roundtrip_bell(1, ChannelConfig(forced_errors={1: "Z"}))
        assert decoded == 2
        assert not ok

    def test_matching_phase_flips_cancel(self):
        cfg = ChannelConfig(forced_errors={1: "Z", 2: "Z"})
        for m in range(1, 9):
            decoded, ok = roundtrip_ghz(m, cfg)
            assert decoded == m
            assert ok

    def test_forced_error_off_transit_rejected(self):
        with pytest.raises(ValueError):
            roundtrip_ghz(1, ChannelConfig(forced_errors={3: "X"}))
        with pytest.raises(ValueError):
            roundtrip_bell(1, ChannelConfig(forced_errors={2: "X"}))


class TestChannelConfig:
    def test_probability_bounds(self):
        ChannelConfig(pauli_error_prob=0.0)
        ChannelConfig(pauli_error_prob=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(pauli_error_prob=-0.1)
        with pytest.raises(ValueError):
            ChannelConfig(pauli_error_prob=1.1)

    def test_forced_error_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(forced_errors={1: "Q"})
        with pytest.raises(ValueError):
            ChannelConfig(forced_errors={0: "X"})
        with pytest.raises(ValueError):
            ChannelConfig(forced_errors=[(1, "X"), (1, "Z")])

    def test_forced_errors_accept_pair_sequences(self):
        cfg = ChannelConfig(forced_errors=[(2, "Y")])
        assert cfg.forced_errors == ((2, "Y"),)

    def test_forced_errors_order_does_not_matter(self):
        a = ChannelConfig(forced_errors={1: "X", 2: "Z"})
        b = ChannelConfig(forced_errors={2: "Z", 1: "X"})
        assert a == b
        assert hash(a) == hash(b)
        assert a.forced_errors == ((1, "X"), (2, "Z"))
        family = ghz_family(3)
        assert np.array_equal(_decode_distribution(family, a), _decode_distribution(family, b))

    def test_frozen(self):
        cfg = ChannelConfig()
        with pytest.raises(AttributeError):
            cfg.pauli_error_prob = 0.5


# ---------------------------------------------------------------------------
# noisy channel statistics
# ---------------------------------------------------------------------------


def _exhaustive_ghz_rate_at_full_noise() -> float:
    """Oracle for p=1: every transit qubit suffers exactly one Pauli error,
    uniformly X, Y, or Z. Enumerate all nine combinations for every message
    and count the ones the receiver still decodes correctly."""
    paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    from ghzdense.ghzmeasure import index_distribution

    hits = 0
    total = 0
    for m in range(1, 9):
        sent = encode(m)
        for a in "XYZ":
            for b in "XYZ":
                hit = apply_on_subset(sent, paulis[a], (1,))
                hit = apply_on_subset(hit, paulis[b], (2,))
                dist = index_distribution(hit)
                total += 1
                hits += dist[m - 1]
    return hits / total


class TestNoisyStatistics:
    def test_full_noise_rate_is_one_ninth(self):
        """At p=1 the only error pair that decodes correctly is a phase
        flip on both transit qubits, which acts as a global phase on every
        entangled basis state. One combination out of nine: exactly 1/9."""
        assert _exhaustive_ghz_rate_at_full_noise() == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_monte_carlo_matches_full_noise_oracle(self):
        report = run_trials("ghz3", 10_000, ChannelConfig(pauli_error_prob=1.0, rng_seed=1))
        assert abs(report.success_rate - 1.0 / 9.0) < 0.02

    def test_success_rate_decreases_with_noise(self):
        low = run_trials("ghz3", 10_000, ChannelConfig(pauli_error_prob=0.1, rng_seed=3))
        high = run_trials("ghz3", 10_000, ChannelConfig(pauli_error_prob=0.3, rng_seed=3))
        assert high.success_rate <= low.success_rate

    def test_moderate_noise_near_theory(self):
        """Success needs the two transit errors to compose to identity or
        to matching phase flips: (1-p)^2 + (p/3)^2."""
        p = 0.2
        want = (1 - p) ** 2 + (p / 3) ** 2
        report = run_trials("ghz3", 20_000, ChannelConfig(pauli_error_prob=p, rng_seed=8))
        assert abs(report.success_rate - want) < 0.02

    def test_bell_single_qubit_noise_near_theory(self):
        # One transit qubit: success iff no error, rate 1 - p.
        p = 0.25
        report = run_trials("bell2", 20_000, ChannelConfig(pauli_error_prob=p, rng_seed=5))
        assert abs(report.success_rate - (1 - p)) < 0.02


# ---------------------------------------------------------------------------
# trial batches
# ---------------------------------------------------------------------------


class TestRunTrials:
    def test_noiseless_batches_are_perfect(self):
        for name in PROTOCOL_NAMES:
            report = run_trials(name, 500, ChannelConfig(rng_seed=0))
            assert report.successes == 500
            assert report.success_rate == 1.0

    def test_reproducible(self):
        a = run_trials("ghz3", 300, ChannelConfig(pauli_error_prob=0.2, rng_seed=42))
        b = run_trials("ghz3", 300, ChannelConfig(pauli_error_prob=0.2, rng_seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = run_trials("ghz3", 300, ChannelConfig(pauli_error_prob=0.2, rng_seed=1))
        b = run_trials("ghz3", 300, ChannelConfig(pauli_error_prob=0.2, rng_seed=2))
        assert a.messages_histogram != b.messages_histogram

    def test_histogram_accounts_for_every_trial(self):
        report = run_trials("ghz3", 4_000, ChannelConfig(rng_seed=7))
        assert len(report.messages_histogram) == 8
        assert sum(report.messages_histogram) == 4_000
        assert all(count > 0 for count in report.messages_histogram)

    def test_fixed_message_concentrates_histogram(self):
        report = run_trials("bell2", 100, ChannelConfig(rng_seed=0), fixed_message=3)
        assert report.messages_histogram == (0, 0, 100, 0)

    def test_bits_per_transmitted_qubit(self):
        ghz = run_trials("ghz3", 10, ChannelConfig(rng_seed=0))
        bell = run_trials("bell2", 10, ChannelConfig(rng_seed=0))
        assert ghz.bits_per_transmitted_qubit == 1.5
        assert bell.bits_per_transmitted_qubit == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials("nope", 10)
        with pytest.raises(ValueError):
            run_trials("ghz3", 0)
        with pytest.raises(ValueError):
            run_trials("bell2", 10, fixed_message=5)

    def test_report_json_round_trip(self):
        report = run_trials("ghz3", 200, ChannelConfig(pauli_error_prob=0.1, rng_seed=11))
        packed = json.dumps(report.to_json_dict())
        again = TrialReport.from_json_dict(json.loads(packed))
        assert again == report


class TestCapacitySummary:
    def test_rows(self):
        rows = capacity_summary()
        by_name = {row.protocol: row for row in rows}
        ghz = by_name["ghz3"]
        assert (ghz.message_count, ghz.qubits_transmitted) == (8, 2)
        assert ghz.total_bits == 3.0
        assert ghz.bits_per_transmitted_qubit == 1.5
        bell = by_name["bell2"]
        assert (bell.message_count, bell.qubits_transmitted) == (4, 1)
        assert bell.total_bits == 2.0
        assert bell.bits_per_transmitted_qubit == 2.0

    def test_bits_are_exact_logs(self):
        for row in capacity_summary():
            assert row.total_bits == math.log2(row.message_count)
            assert row.bits_per_transmitted_qubit == row.total_bits / row.qubits_transmitted
            assert isinstance(row, CapacityRow)
