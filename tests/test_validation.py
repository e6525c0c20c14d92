"""One input contract for every entry point.

Integer parameters accept Python and numpy integers and store plain
ints; bools, floats and other types are rejected. Seeds are integers
>= 0, and the library also takes a ``numpy.random.Generator``. Every
rejection is a ``ValueError``, which the CLI turns into exit code 2.
"""

import json
from functools import partial

import numpy as np
import pytest

from ghzdense.bases import bell_state, ghz_state
from ghzdense.cli import main
from ghzdense.encoding import (
    bell_encode,
    encode,
    encoding_op,
    reachability_oracle,
    reachable_by_single_qubit,
)
from ghzdense.ghzmeasure import outcome_for_index
from ghzdense.protocol import ChannelConfig, TrialReport, run_trials
from ghzdense.qstate import (
    CNOT,
    PAULI_X,
    basis_state,
    embed_on_subset,
    haar_random_unitary,
    load_state,
    measure_computational,
)

INT64_MAX = np.iinfo(np.int64).max
REPORT = run_trials("bell2", 10).to_json_dict()

REJECTED = {
    "encode(True)": lambda: encode(True),
    "encoding_op(True)": lambda: encoding_op(True),
    "pauli_error_prob=True": lambda: ChannelConfig(pauli_error_prob=True),
    "forced_errors={1.7: 'X'}": lambda: ChannelConfig(forced_errors={1.7: "X"}),
    "rng_seed=-1": lambda: ChannelConfig(rng_seed=-1),
    "run_trials trials=2.5": lambda: run_trials("ghz3", 2.5),
    "run_trials trials=True": lambda: run_trials("ghz3", True),
    "run_trials fixed_message=True": lambda: run_trials("ghz3", 10, fixed_message=True),
    "reachability_oracle samples=2.5": lambda: reachability_oracle(
        ghz_state(1), ghz_state(3), 1, samples=2.5
    ),
    "reachable_by_single_qubit qubit=True": lambda: reachable_by_single_qubit(
        ghz_state(1), ghz_state(3), qubit=True
    ),
    "reachability_oracle rng_seed=True": lambda: reachability_oracle(
        ghz_state(1), ghz_state(3), 1, samples=10, rng_seed=True
    ),
    "reachability_oracle rng_seed=1.5": lambda: reachability_oracle(
        ghz_state(1), ghz_state(3), 1, samples=10, rng_seed=1.5
    ),
    "measure_computational seed=1.5": lambda: measure_computational(ghz_state(1), 1.5),
    "measure_computational seed=True": lambda: measure_computational(ghz_state(1), True),
    "measure_computational seed=-1": lambda: measure_computational(ghz_state(1), -1),
    "haar_random_unitary(2.0, 0)": lambda: haar_random_unitary(2.0, 0),
    "haar_random_unitary(True, 0)": lambda: haar_random_unitary(True, 0),
    "haar_random_unitary(3, 0)": lambda: haar_random_unitary(3, 0),
    "load_state qubit count 21": lambda: load_state("nqubits 21\n0 1 0\n"),
    "load_state amplitude index 4 of 2 qubits": lambda: load_state("nqubits 2\n4 1 0\n"),
    "load_state amplitude 0 nan 0": lambda: load_state("nqubits 1\n0 nan 0\n"),
    "load_state amplitude 0 1 nan": lambda: load_state("nqubits 1\n0 1 nan\n"),
    "load_state amplitude 1 inf 0": lambda: load_state("nqubits 1\n1 inf 0\n"),
    "load_state amplitude 0 1e200 0": lambda: load_state("nqubits 1\n0 1e200 0\n"),
    "load_state amplitude 0 1e308 1e308": lambda: load_state("nqubits 1\n0 1e308 1e308\n"),
    "run_trials trials=2**63": lambda: run_trials("ghz3", INT64_MAX + 1),
    "embed_on_subset n_qubits=2.0": lambda: embed_on_subset(CNOT, (1, 2), 2.0),
    "basis_state 40 bits": lambda: basis_state("0" * 40),
    "embed_on_subset n_qubits=20": lambda: embed_on_subset(PAULI_X, (1,), 20),
    "haar_random_unitary(2**20, 0)": lambda: haar_random_unitary(2**20, 0),
    "haar_random_unitary(2**40, 0)": lambda: haar_random_unitary(2**40, 0),
    "TrialReport.from_json_dict({})": lambda: TrialReport.from_json_dict({}),
    "TrialReport.from_json_dict decoded_histogram=None": lambda: TrialReport.from_json_dict(
        {**REPORT, "decoded_histogram": None}
    ),
    "TrialReport.from_json_dict trials=1.5": lambda: TrialReport.from_json_dict({**REPORT, "trials": 1.5}),
    "TrialReport.from_json_dict trials=True": lambda: TrialReport.from_json_dict({**REPORT, "trials": True}),
    "basis_state('')": lambda: basis_state(""),
    "basis_state('012')": lambda: basis_state("012"),
}

# Payloads with every field present but wrong in type, range or
# against each other; REPORT is bell2, 10 trials, 10 successes.
CONTRADICTORY_REPORTS = {
    "protocol=None": {"protocol": None},
    "protocol='nope'": {"protocol": "nope"},
    "success_rate=True": {"success_rate": True},
    "success_rate=nan": {"success_rate": float("nan")},
    "successes=3 with success_rate=1.0": {"successes": 3},
    "successes=99 of 10 trials": {"successes": 99},
    "messages_histogram of 5 entries": {"messages_histogram": [*REPORT["messages_histogram"], 0]},
    "decoded_histogram not summing to trials": {"decoded_histogram": [*REPORT["decoded_histogram"][:-1], 11]},
    "expected_success_rate=7.0": {"expected_success_rate": 7.0},
    "bits_per_transmitted_qubit='2.0'": {"bits_per_transmitted_qubit": "2.0"},
    "trials=2**70 with histograms to match": {
        "trials": 2**70,
        "successes": 2**70,
        "messages_histogram": [2**68] * 4,
        "decoded_histogram": [2**68] * 4,
    },
}
REJECTED.update(
    (f"TrialReport.from_json_dict {name}", partial(TrialReport.from_json_dict, {**REPORT, **edit}))
    for name, edit in CONTRADICTORY_REPORTS.items()
)


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_with_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("check", [reachable_by_single_qubit, reachability_oracle])
@pytest.mark.parametrize(
    "source, target, qubit, message",
    [
        (bell_state(1), ghz_state(2), 1, "qubit counts differ: 2 vs 3"),
        (bell_state(1), ghz_state(2), 3, "qubit counts differ: 2 vs 3"),
        (ghz_state(1), bell_state(2), 3, "qubit counts differ: 3 vs 2"),
    ],
)
def test_qubit_count_mismatch_is_reported_before_the_qubit_range(check, source, target, qubit, message):
    with pytest.raises(ValueError) as caught:
        check(source, target, qubit)
    assert str(caught.value) == message


@pytest.mark.parametrize("protocol", ["ghz3", "bell2"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 5, 123])
def test_trial_reports_pass_the_consistency_checks_exactly(protocol, p, seed):
    payload = json.loads(json.dumps(run_trials(protocol, 1000, ChannelConfig(p, seed)).to_json_dict()))
    assert TrialReport.from_json_dict(payload).to_json_dict() == payload


def test_trial_report_at_the_trial_ceiling_round_trips():
    # run_trials and from_json_dict share one ceiling: int64 max is the largest count either accepts.
    payload = json.loads(json.dumps(run_trials("bell2", INT64_MAX, ChannelConfig(0.2, 1)).to_json_dict()))
    assert TrialReport.from_json_dict(payload).to_json_dict() == payload


MALFORMED_FORCED_ERRORS = {
    "not iterable": 5,
    "entry not a pair": [1],
    "string": "1Z",
    "one-element entry": [(1,)],
    "three-element entry": [(1, "X", "Y")],
    "qubit as string": ["1Z"],
    "qubit 0": {0: "X"},
    "unknown error": {1: "W"},
    "two errors on one qubit": [(1, "X"), (1, "Z")],
}


@pytest.mark.parametrize("value", MALFORMED_FORCED_ERRORS.values(), ids=MALFORMED_FORCED_ERRORS.keys())
def test_malformed_forced_errors_name_the_field(value):
    with pytest.raises(ValueError, match="forced_errors"):
        ChannelConfig(forced_errors=value)


def test_largest_int64_trial_count_runs():
    report = run_trials("ghz3", INT64_MAX, ChannelConfig(pauli_error_prob=0.1))
    assert report.trials == INT64_MAX
    assert sum(report.messages_histogram) == sum(report.decoded_histogram) == INT64_MAX


def test_numpy_integer_message_is_stored_as_int():
    op = encoding_op(np.int64(3))
    assert type(op.message_index) is int and op.message_index == 3
    assert np.array_equal(op.matrix.entries, encoding_op(3).matrix.entries)


ACCEPTED = {
    "bell_encode(np.int64(2))": (
        lambda: bell_encode(np.int64(2)).amplitudes,
        lambda: bell_encode(2).amplitudes,
    ),
    "outcome_for_index(np.int64(2))": (lambda: outcome_for_index(np.int64(2)), lambda: "100"),
    "haar_random_unitary(np.int64(4), np.int64(3))": (
        lambda: haar_random_unitary(np.int64(4), np.int64(3)).entries,
        lambda: haar_random_unitary(4, 3).entries,
    ),
    "reachability_oracle rng_seed=np.int64(3)": (
        lambda: reachability_oracle(ghz_state(1), ghz_state(3), 2, samples=50, rng_seed=np.int64(3)),
        lambda: reachability_oracle(ghz_state(1), ghz_state(3), 2, samples=50, rng_seed=3),
    ),
    "pauli_error_prob=np.float32(0.1)": (
        lambda: ChannelConfig(pauli_error_prob=np.float32(0.1)).pauli_error_prob,
        lambda: float(np.float32(0.1)),
    ),
}


@pytest.mark.parametrize("call,want", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_numpy_numbers_accepted(call, want):
    assert np.array_equal(call(), want())


def test_cli_negative_seed_exits_2_naming_the_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", "--protocol", "ghz3", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err


def test_cli_trial_count_beyond_int64_exits_2_naming_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", "--protocol", "ghz3", "--trials", str(INT64_MAX + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials" in captured.err
