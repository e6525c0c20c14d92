"""One input contract for every entry point.

Integer parameters accept Python and numpy integers and store plain
ints; bools, floats and other types are rejected. Seeds are integers
>= 0, and the library also takes a ``numpy.random.Generator``. Every
rejection is a ``ValueError``, which the CLI turns into exit code 2.
The probe tests at the end hand hostile values to every number, string,
sequence and mapping parameter of the public API and to every CLI
option. Parameters that hold the package's objects are outside the
contract (see ``ghzdense.qstate``).
"""

import json
import math
import re
from functools import partial

import numpy as np
import pytest

from ghzdense.bases import (
    BasisCatalog,
    bell_catalog,
    bell_state,
    catalog_by_name,
    ghz_catalog,
    ghz_family,
    ghz_state,
    phi_state,
    verify_orthonormal,
)
from ghzdense.cli import _parse_state_index, dispatch, main
from ghzdense.encoding import (
    bell_encode,
    encode,
    encoding_op,
    reachability_matrix,
    reachability_oracle,
    reachability_oracle_matrix,
    reachable_by_single_qubit,
)
from ghzdense.ghzmeasure import decode, disentangle, ghz_measure, index_distribution, outcome_for_index
from ghzdense.protocol import (
    ChannelConfig,
    TrialReport,
    bell_measure,
    roundtrip_bell,
    roundtrip_ghz,
    run_trials,
)
from ghzdense.qstate import (
    CNOT,
    PAULI_X,
    StateVector,
    UnitaryMatrix,
    apply_on_subset,
    basis_state,
    dump_state,
    embed_on_subset,
    fidelity_up_to_phase,
    haar_random_unitary,
    inner_product,
    load_state,
    measure_computational,
    tensor,
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
    "StateVector([1e200, 0])": lambda: StateVector([1e200, 0]),
    "StateVector([1e300j, 1e300])": lambda: StateVector([1e300j, 1e300]),
    "StateVector([10**400, 0])": lambda: StateVector([10**400, 0]),
    "StateVector([None, 1])": lambda: StateVector([None, 1]),
    "StateVector({})": lambda: StateVector({}),
    "UnitaryMatrix([[1e200, 0], [0, 1]])": lambda: UnitaryMatrix([[1e200, 0], [0, 1]]),
    "pauli_error_prob=10**400": lambda: ChannelConfig(pauli_error_prob=10**400),
    "basis_state(True)": lambda: basis_state(True),
    "apply_on_subset qubits=1": lambda: apply_on_subset(ghz_state(1), PAULI_X, 1),
    "TrialReport.from_json_dict(np.int64(2))": lambda: TrialReport.from_json_dict(np.int64(2)),
    "load_state(5)": lambda: load_state(5),
    "reachability_oracle samples=2**70": lambda: reachability_oracle(
        ghz_state(1), ghz_state(3), 1, samples=2**70
    ),
    "OrthonormalityReport.within tol=None": lambda: verify_orthonormal(ghz_catalog()).within(None),
}

# Payloads with every field present but wrong in type, range or
# against each other; REPORT is bell2, 10 trials, 10 successes.
CONTRADICTORY_REPORTS = {
    "protocol=None": {"protocol": None},
    "protocol='nope'": {"protocol": "nope"},
    "success_rate=True": {"success_rate": True},
    "success_rate=nan": {"success_rate": float("nan")},
    "success_rate=10**400": {"success_rate": 10**400},
    "successes=3 with success_rate=1.0": {"successes": 3},
    "successes=99 of 10 trials": {"successes": 99},
    "messages_histogram of 5 entries": {"messages_histogram": [*REPORT["messages_histogram"], 0]},
    "decoded_histogram not summing to trials": {"decoded_histogram": [*REPORT["decoded_histogram"][:-1], 11]},
    "expected_success_rate=7.0": {"expected_success_rate": 7.0},
    "bits_per_transmitted_qubit='2.0'": {"bits_per_transmitted_qubit": "2.0"},
    "successes=10 with no message decoded as itself": {
        "messages_histogram": [10, 0, 0, 0],
        "decoded_histogram": [0, 10, 0, 0],
    },
    "successes=0 with every message decoded as itself": {
        "successes": 0,
        "success_rate": 0.0,
        "messages_histogram": [10, 0, 0, 0],
        "decoded_histogram": [10, 0, 0, 0],
    },
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

# Rejections whose message must name the parameter: (call, the message's start).
# An integer of more than 4300 digits has no repr, so it is shown by its size.
NAMED_REJECTIONS = {
    "run_trials trials=10**4300": (
        lambda: run_trials("ghz3", 10**4300),
        "trials must lie in [1, 9223372036854775807], got an integer of 14285 bits",
    ),
    "run_trials trials=10**30": (
        lambda: run_trials("ghz3", 10**30),
        "trials must lie in [1, 9223372036854775807], got 10000000...0000 (31 digits)",
    ),
    "rng_seed=-10**4300": (lambda: ChannelConfig(rng_seed=-(10**4300)), "rng_seed must be >= 0, got an integer"),
    "rng_seed=-10**30": (lambda: ChannelConfig(rng_seed=-(10**30)), "rng_seed must be >= 0, got -10000000...0000"),
    "forced error on qubit 10**4300": (
        lambda: run_trials("ghz3", 10, ChannelConfig(forced_errors={10**4300: "X"})),
        "forced error on qubit an integer of 14285 bits",
    ),
    "StateVector(['1', '0'])": (lambda: StateVector(["1", "0"]), "amplitudes must be complex numbers"),
    "StateVector([b'1', b'0'])": (lambda: StateVector([b"1", b"0"]), "amplitudes must be complex numbers"),
    "StateVector(['1', 0])": (lambda: StateVector(["1", 0]), "amplitudes must be complex numbers"),
    "StateVector(np.array(['1', '0']))": (lambda: StateVector(np.array(["1", "0"])), "amplitudes must be complex"),
    "StateVector of an object array holding '1'": (
        lambda: StateVector(np.array(["1", 0], dtype=object)),
        "amplitudes must be complex numbers",
    ),
    "UnitaryMatrix([['0', '1'], ['1', '0']])": (
        lambda: UnitaryMatrix([["0", "1"], ["1", "0"]]),
        "entries must be complex numbers",
    ),
    # A qubit subset is an ordered sequence: an iterator, a set or a mapping is not.
    "apply_on_subset qubits=iter([1])": (
        lambda: apply_on_subset(ghz_state(1), CNOT, iter([1])),
        "qubits must be a sequence of qubit positions",
    ),
    "embed_on_subset qubits=iter([1])": (
        lambda: embed_on_subset(PAULI_X, iter([1]), 2),
        "qubits must be a sequence of qubit positions",
    ),
    "apply_on_subset qubits={2, 1}": (
        lambda: apply_on_subset(ghz_state(1), CNOT, {2, 1}),
        "qubits must be a sequence of qubit positions",
    ),
    "apply_on_subset qubits={1: 'X'}": (
        lambda: apply_on_subset(ghz_state(1), PAULI_X, {1: "X"}),
        "qubits must be a sequence of qubit positions",
    ),
    # State-file integers are ASCII digits; a long one is shown abbreviated, never echoed in full.
    "load_state 5000-digit qubit count": (
        lambda: load_state(f"nqubits {'9' * 5000}\n0 1 0\n"),
        "qubit count must lie in [1, 20], got 99999999...9999 (5000 digits)",
    ),
    "load_state 5000-digit amplitude index": (
        lambda: load_state(f"nqubits 1\n{'9' * 5000} 1 0\n"),
        "amplitude index for 1 qubit(s) must lie in [0, 1], got 99999999...9999 (5000 digits)",
    ),
    "load_state qubit count +2": (lambda: load_state("nqubits +2\n0 1 0\n"), "malformed qubit count '+2'"),
    "load_state qubit count in Arabic-Indic digits": (
        lambda: load_state("nqubits \u0663\n0 1 0\n"),
        "malformed qubit count",
    ),
    "load_state amplitude index 1_1": (lambda: load_state("nqubits 4\n1_1 1 0\n"), "malformed amplitude index"),
    "load_state amplitude index -0": (lambda: load_state("nqubits 1\n-0 1 0\n"), "malformed amplitude index"),
    # Short text is echoed whole.
    "load_state amplitude line '0 1 x'": (
        lambda: load_state("nqubits 1\n0 1 x\n"),
        "malformed amplitude line '0 1 x'",
    ),
    # Real-number text is ASCII, with no underscore: float() alone would read these as 0, 1, 0.6+0.8i.
    "load_state amplitude 0_0": (lambda: load_state("nqubits 1\n0 1 0_0\n"), "malformed amplitude line '0 1 0_0'"),
    "load_state amplitude in Arabic-Indic digits": (
        lambda: load_state("nqubits 1\n0 \u0661 0\n"),
        "malformed amplitude line '0 \u0661 0'",
    ),
    "load_state amplitudes with Arabic-Indic decimals": (
        lambda: load_state("nqubits 1\n1 \u0660.\u0666 \u0660.\u0668\n"),
        "malformed amplitude line '1 \u0660.\u0666 \u0660.\u0668'",
    ),
    "load_state line of four fields": (
        lambda: load_state("nqubits 1\n0 1 0 1\n"),
        "expected 'index re im', got '0 1 0 1'",
    ),
    "basis_state('0120')": (lambda: basis_state("0120"), "malformed bit string '0120'"),
    # Dense matrices stop at 10 qubits wide, the Gram test's at 11 qubits.
    "reachable_by_single_qubit of 12 qubits": (
        lambda: reachable_by_single_qubit(basis_state("0" * 12), basis_state("0" * 12), 1),
        "qubit count for the Gram test must lie in [1, 11], got 12",
    ),
    "reachability_matrix of 12 qubits": (
        lambda: reachability_matrix(BasisCatalog("wide", (basis_state("0" * 12), basis_state("1" * 12))), 1),
        "qubit count for the Gram test must lie in [1, 11], got 12",
    ),
    "tensor of 5 + 6 qubits": (
        lambda: tensor(haar_random_unitary(32, 0), haar_random_unitary(64, 1)),
        "tensor qubit count must lie in [2, 10], got 11",
    ),
    "UnitaryMatrix of 11 qubits": (lambda: UnitaryMatrix(np.eye(2048)), "dimension must lie in [2, 1024], got 2048"),
}
REJECTED.update((name, call) for name, (call, _) in NAMED_REJECTIONS.items())

# Rejected text of 5000 characters: (call, the field the message must name).
# The message echoes the text's start and length, never the whole text.
LONG_TEXT_REJECTIONS = {
    "load_state qubit count of 5000 characters": (
        lambda: load_state(f"nqubits {'9' * 4999}x\n0 1 0\n"),
        "malformed qubit count",
    ),
    "load_state amplitude index of 5000 characters": (
        lambda: load_state(f"nqubits 1\n{'x' * 5000} 1 0\n"),
        "malformed amplitude index",
    ),
    "load_state amplitude of 5000 characters": (
        lambda: load_state(f"nqubits 1\n0 {'x' * 5000} 0\n"),
        "malformed amplitude line",
    ),
    "load_state fourth field of 5000 characters": (
        lambda: load_state(f"nqubits 1\n0 1 0 {'x' * 5000}\n"),
        "expected 'index re im'",
    ),
    "basis_state of 5000 characters": (lambda: basis_state("2" * 5000), "malformed bit string"),
    "state index of 5000 characters": (
        lambda: _parse_state_index("1" + "x" * 4999, ghz_catalog()),
        "malformed state index",
    ),
    "run_trials trials of 5000 characters": (lambda: run_trials("ghz3", "9" * 5000), "trials must be an integer"),
}
REJECTED.update((name, call) for name, (call, _) in LONG_TEXT_REJECTIONS.items())

# Rejected text of 5000 characters echoed inside a longer message: (call,
# the field the message must name, the text that follows the echo).
LONG_TEXT_INSIDE_REJECTIONS = {
    "state index prefix of 5000 characters": (
        lambda: _parse_state_index("x" * 5000, ghz_catalog()),
        "index prefix",
        " does not name a ghz state; use e.g. psi3 or 3",
    ),
    "decode of 5000 characters": (
        lambda: decode("0" * 5000),
        "malformed outcome",
        "; expected three bits like '011'",
    ),
    "catalog_by_name of 5000 characters": (
        lambda: catalog_by_name("x" * 5000),
        "unknown basis",
        "; expected one of ['bell', 'ghz', 'phi']",
    ),
    "run_trials protocol of 5000 characters": (
        lambda: run_trials("x" * 5000, 10),
        "unknown protocol",
        "; expected one of ('ghz3', 'bell2')",
    ),
}
REJECTED.update((name, call) for name, (call, _, _) in LONG_TEXT_INSIDE_REJECTIONS.items())


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_with_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, start", NAMED_REJECTIONS.values(), ids=NAMED_REJECTIONS.keys())
def test_rejection_names_the_parameter(call, start):
    with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
        call()


@pytest.mark.parametrize("call, field", LONG_TEXT_REJECTIONS.values(), ids=LONG_TEXT_REJECTIONS.keys())
def test_long_rejected_text_is_echoed_shortened(call, field):
    with pytest.raises(ValueError) as caught:
        call()
    message = str(caught.value)
    assert len(message) < 200
    assert message.startswith(field)
    assert re.search(r"'\.\.\. \(500\d characters\)$", message)


@pytest.mark.parametrize(
    "call, field, tail", LONG_TEXT_INSIDE_REJECTIONS.values(), ids=LONG_TEXT_INSIDE_REJECTIONS.keys()
)
def test_long_rejected_text_is_echoed_shortened_inside_the_message(call, field, tail):
    with pytest.raises(ValueError) as caught:
        call()
    message = str(caught.value)
    assert len(message) < 200
    assert message.startswith(field)
    assert re.search(rf"'\.\.\. \(5000 characters\){re.escape(tail)}$", message)


@pytest.mark.parametrize(
    "message, start",
    [("x" * 5000, "error: index prefix 'xxxx"), ("1" + "x" * 5000, "error: malformed state index '1xxx")],
    ids=["5000 letters", "a digit and 5000 letters"],
)
def test_cli_echoes_a_long_message_index_shortened(message, start):
    result = dispatch(["encode", "--message", message])
    assert result.exit_code == 2
    assert len(result.stdout) < 200
    assert result.stdout.startswith(start)
    assert re.search(r"'\.\.\. \(500\d characters\)", result.stdout)


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


# Every entry point where two states meet, each with a state of the wrong size.
QUBIT_COUNT_MISMATCHES = {
    "inner_product": (lambda: inner_product(ghz_state(1), bell_state(1)), "3 vs 2"),
    "fidelity_up_to_phase": (lambda: fidelity_up_to_phase(bell_state(1), ghz_state(1)), "2 vs 3"),
    "BasisCatalog": (lambda: BasisCatalog("mixed", [ghz_state(1), bell_state(1)]), "3 vs 2"),
    "encode": (lambda: encode(1, basis_state("0000")), "3 vs 4"),
    "bell_encode": (lambda: bell_encode(1, ghz_state(1)), "2 vs 3"),
    "disentangle": (lambda: disentangle(bell_state(1)), "3 vs 2"),
    "ghz_measure": (lambda: ghz_measure(basis_state("0000"), 0), "3 vs 4"),
    "bell_measure": (lambda: bell_measure(ghz_state(1), 0), "2 vs 3"),
    "index_distribution": (lambda: index_distribution(bell_state(1)), "3 vs 2"),
}


@pytest.mark.parametrize("call, counts", QUBIT_COUNT_MISMATCHES.values(), ids=QUBIT_COUNT_MISMATCHES.keys())
def test_states_that_meet_report_one_qubit_count_message(call, counts):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == f"qubit counts differ: {counts}"


def test_network_apply_reports_the_qubit_count_message(tmp_path):
    path = tmp_path / "bell.txt"
    path.write_text(dump_state(bell_state(1)))
    result = dispatch(["network", "apply", "--state-file", str(path)])
    assert (result.exit_code, result.stdout) == (2, "error: qubit counts differ: 3 vs 2")


@pytest.mark.parametrize("protocol", ["ghz3", "bell2"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 5, 123])
def test_trial_reports_pass_the_consistency_checks_exactly(protocol, p, seed):
    payload = json.loads(json.dumps(run_trials(protocol, 1000, ChannelConfig(p, seed)).to_json_dict()))
    assert TrialReport.from_json_dict(payload).to_json_dict() == payload


def test_a_contradicting_report_names_the_field_not_the_payload():
    payload = {**REPORT, "decoded_histogram": [*REPORT["decoded_histogram"], *[0] * 10**5]}
    with pytest.raises(ValueError) as caught:
        TrialReport.from_json_dict(payload)
    assert str(caught.value) == "trial report contradicts itself: decoded_histogram"


def test_successes_outside_the_histograms_bounds_name_the_rule():
    payload = {**REPORT, "messages_histogram": [10, 0, 0, 0], "decoded_histogram": [0, 10, 0, 0]}
    with pytest.raises(ValueError) as caught:
        TrialReport.from_json_dict(payload)
    assert str(caught.value) == "trial report contradicts itself: successes"


@pytest.mark.parametrize("protocol", ["ghz3", "bell2"])
@pytest.mark.parametrize("message", [None, 1, 3])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_sampled_reports_meet_the_successes_bounds(protocol, message, p):
    # Every counts matrix has sum max(0, s_m + d_m - trials) <= trace <= sum min(s_m, d_m).
    for trials in (1, 7, 1000):
        payload = run_trials(protocol, trials, ChannelConfig(p, 11), message).to_json_dict()
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
    # Python writes out no integer of more than 4300 digits, so no message may echo one.
    "4301-digit qubit with unknown error": {10**4300: "W"},
    "4301-digit one-element entry": [(10**4300,)],
    "4301-digit error": {1: 10**4300},
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
    # The dense-operator ceiling itself.
    "UnitaryMatrix of 10 qubits": (lambda: UnitaryMatrix(np.eye(1024)).entries, lambda: np.eye(1024)),
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


@pytest.mark.parametrize(
    "text, where",
    [
        ("nqubits 2\n0 0.5 0\n3 1e200 0\n", "amplitudes[3] = (1e+200+0j)"),
        ("nqubits 2\n2 0 nan\n0 1 0\n", "amplitudes[2] = nanj"),
    ],
)
def test_a_bad_state_file_amplitude_is_named_by_index_and_value(text, where):
    with pytest.raises(ValueError, match=f"^{re.escape(where)} has a part that is not finite"):
        load_state(text)


def test_a_bad_matrix_entry_is_named_by_row_and_column():
    with pytest.raises(ValueError, match=r"^entries\[1, 0\] = \(inf\+0j\)"):
        UnitaryMatrix([[1, 0], [math.inf, 1]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StateVector(1), "amplitudes must be one-dimensional"),
        (lambda: StateVector([[1, 0]]), "amplitudes must be one-dimensional"),
        (lambda: UnitaryMatrix([1, 0]), "entries must form a square matrix"),
    ],
)
def test_shape_messages_stay_with_their_constructors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# Values a number, string, sequence or mapping parameter may be handed.
HOSTILE = (True, False, np.bool_(True), np.int64(2), np.int64(-1), np.float64(0.5), np.float32("nan"))
HOSTILE += (math.nan, math.inf, -math.inf, 1e308, -1e308, 2**70, -(2**70), 10**4300)  # the last has 4301 digits
HOSTILE += ("", "1", "011", "psi3", "nan", None, [], [1, 2], [0.5, 0.5], [[1, 0], [0, 1]], {1: "X"}, {})

GHZ1, GHZ3 = ghz_state(1), ghz_state(3)
# Every public entry point's number, string, sequence and mapping
# parameters, one at a time. Oracle calls draw 20 samples unless the
# sample count is the parameter under probe; the ceiling bounds that one.
PROBES = {
    "StateVector amplitudes": StateVector,
    "UnitaryMatrix entries": UnitaryMatrix,
    "basis_state bits": basis_state,
    "apply_on_subset qubits": lambda v: apply_on_subset(GHZ1, PAULI_X, v),
    "embed_on_subset qubits": lambda v: embed_on_subset(PAULI_X, v, 2),
    "embed_on_subset n_qubits": lambda v: embed_on_subset(PAULI_X, (1,), v),
    "measure_computational rng_seed": lambda v: measure_computational(GHZ1, v),
    "haar_random_unitary dim": lambda v: haar_random_unitary(v, 0),
    "haar_random_unitary rng_seed": lambda v: haar_random_unitary(2, v),
    "load_state text": load_state,
    "ghz_family n": ghz_family,
    "bell_state index": bell_state,
    "ghz_state index": ghz_state,
    "phi_state index": phi_state,
    "BasisCatalog.state index": lambda v: ghz_catalog().state(v),
    "catalog_by_name name": catalog_by_name,
    "OrthonormalityReport.within tol": lambda v: verify_orthonormal(ghz_catalog()).within(v),
    "decode outcome": decode,
    "outcome_for_index index": outcome_for_index,
    "ghz_measure rng_seed": lambda v: ghz_measure(GHZ1, v),
    "bell_measure rng_seed": lambda v: bell_measure(bell_state(1), v),
    "encoding_op message": encoding_op,
    "encode message": encode,
    "bell_encode message": bell_encode,
    "reachable_by_single_qubit qubit": lambda v: reachable_by_single_qubit(GHZ1, GHZ3, v),
    "reachability_oracle qubit": lambda v: reachability_oracle(GHZ1, GHZ3, v, 20),
    "reachability_oracle samples": lambda v: reachability_oracle(GHZ1, GHZ3, 1, v),
    "reachability_oracle rng_seed": lambda v: reachability_oracle(GHZ1, GHZ3, 1, 20, v),
    "reachability_matrix qubit": lambda v: reachability_matrix(bell_catalog(), v),
    "reachability_oracle_matrix qubit": lambda v: reachability_oracle_matrix(bell_catalog(), v, 20),
    "reachability_oracle_matrix samples": lambda v: reachability_oracle_matrix(bell_catalog(), 1, v),
    "reachability_oracle_matrix rng_seed": lambda v: reachability_oracle_matrix(bell_catalog(), 1, 20, v),
    "ChannelConfig pauli_error_prob": lambda v: ChannelConfig(pauli_error_prob=v),
    "ChannelConfig rng_seed": lambda v: ChannelConfig(rng_seed=v),
    "ChannelConfig forced_errors": lambda v: ChannelConfig(forced_errors=v),
    "run_trials protocol": lambda v: run_trials(v, 10),
    "run_trials trials": lambda v: run_trials("bell2", v),
    "run_trials fixed_message": lambda v: run_trials("bell2", 10, fixed_message=v),
    "roundtrip_ghz message": roundtrip_ghz,
    "roundtrip_bell message": roundtrip_bell,
    "TrialReport.from_json_dict data": TrialReport.from_json_dict,
}
PROBES.update(
    (f"TrialReport.from_json_dict {key}", lambda v, key=key: TrialReport.from_json_dict({**REPORT, key: v}))
    for key in REPORT
)


def probed(check, fixed):
    """``check`` as a hypothesis test: each of ``fixed`` as an explicit
    example, then drawn small integers, floats and short strings. Small
    integers keep every sampled call short."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    test = hypothesis.given(st.one_of(st.integers(-3, 9), st.floats(), st.text(max_size=4)))(check)
    for value in fixed:
        test = hypothesis.example(value)(test)
    return hypothesis.settings(max_examples=20)(test)


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_any_value_gives_a_result_or_value_error(call):
    def check(value):
        try:
            call(value)
        except ValueError:
            pass

    probed(check, HOSTILE)()


# Each CLI option, an extra argument and the command name, with the token
# under probe in place of "{}".
CLI_OPTIONS = {
    "bases verify --basis": "bases verify --basis {}",
    "bases dump --basis": "bases dump --basis {} --index 1",
    "bases dump --index": "bases dump --basis ghz --index {}",
    "encode --message": "encode --message {}",
    "reach --basis": "reach --basis {}",
    "reach --qubit": "reach --basis bell --qubit {}",
    "reach --samples": "reach --basis bell --oracle --samples {}",
    "reach --seed": "reach --basis bell --oracle --samples 20 --seed {}",
    "network apply --state-file": "network apply --state-file {}",
    "roundtrip --protocol": "roundtrip --protocol {}",
    "roundtrip --trials": "roundtrip --protocol bell2 --trials {}",
    "roundtrip --seed": "roundtrip --protocol bell2 --seed {}",
    "roundtrip --noise": "roundtrip --protocol bell2 --noise {}",
    "roundtrip --message": "roundtrip --protocol ghz3 --message {}",
    "capacity": "capacity {}",
    "command": "{}",
}
TOKENS = ("True", "nan", "inf", "-inf", "1e308", str(2**70), "9" * 4301, "", "abc", "None", "[1, 2]", "{}")
TOKENS += ("-1", "0", "1", "psi3", "1.5", "0x10", "１", "--json")


def _exits_cleanly(argv):
    result = dispatch(argv)
    assert result.exit_code in (0, 1, 2), (argv, result)
    assert "Traceback" not in result.stdout


@pytest.mark.parametrize("template", CLI_OPTIONS.values(), ids=CLI_OPTIONS.keys())
def test_any_option_token_exits_0_1_or_2(template):
    def check(value):
        _exits_cleanly([str(value) if word == "{}" else word for word in template.split()])

    probed(check, TOKENS)()


def test_any_state_file_amplitude_exits_0_1_or_2(tmp_path):
    path = tmp_path / "state.txt"

    def check(value):
        path.write_text(f"nqubits 1\n0 {value} 0\n", encoding="utf-8")
        _exits_cleanly(["network", "apply", "--state-file", str(path)])

    probed(check, TOKENS)()


@pytest.mark.parametrize("value", ["x" * 5000, "9" * 5000], ids=["5000 letters", "5000 digits"])
@pytest.mark.parametrize("template", CLI_OPTIONS.values(), ids=CLI_OPTIONS.keys())
def test_a_long_option_value_exits_2_with_a_short_message(template, value):
    result = dispatch([value if word == "{}" else word for word in template.split()])
    assert result.exit_code == 2
    assert len(result.stdout.encode()) + 1 < 400  # main() prints it with a newline
    message = result.stdout.splitlines()[-1]  # argparse's errors follow the usage text
    assert "error: " in message
    assert len(message) < 200, message[:300]


@pytest.mark.parametrize("text", ["١", "1_000", " 7 ", "+1"], ids=["arabic-indic one", "underscore", "spaces", "sign"])
@pytest.mark.parametrize(
    "option", ["reach --qubit", "reach --samples", "reach --seed", "roundtrip --trials", "roundtrip --seed"]
)
def test_integer_flags_read_ascii_digits_only(option, text):
    result = dispatch([text if word == "{}" else word for word in CLI_OPTIONS[option].split()])
    assert result.exit_code == 2
    assert result.stdout.splitlines()[-1].endswith(f": malformed {option.split('--')[1]} {text!r}")


@pytest.mark.parametrize(
    "text",
    [" 7 ", "7 ", "١", "+1", "1_000", "ı3"],
    ids=["spaces", "trailing space", "arabic-indic one", "sign", "underscore", "dotless i prefix"],
)
@pytest.mark.parametrize("option", ["bases dump --index", "encode --message", "roundtrip --message"])
def test_state_indices_read_as_given(option, text):
    """No space is stripped, and only ASCII letters make a prefix."""
    result = dispatch([text if word == "{}" else word for word in CLI_OPTIONS[option].split()])
    assert result.exit_code == 2
    assert result.stdout.splitlines()[-1] == f"error: malformed state index {text!r}"


@pytest.mark.parametrize(
    "text", ["0_1", "١", " 0.1 ", "٠.١"], ids=["underscore", "arabic-indic one", "spaces", "arabic-indic decimal"]
)
def test_noise_reads_ascii_text_only(text):
    result = dispatch(["roundtrip", "--protocol", "bell2", "--noise", text])
    assert result.exit_code == 2
    assert result.stdout.splitlines()[-1].endswith(f": invalid float value: {text!r}")
