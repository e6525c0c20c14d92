"""One input contract for every entry point.

Integer parameters accept Python and numpy integers and store plain
ints; bools, floats and other types are rejected. Every rejection is a
``ValueError``, which the CLI turns into exit code 2.
"""

import numpy as np
import pytest

from ghzdense.bases import ghz_state
from ghzdense.cli import main
from ghzdense.encoding import (
    bell_encode,
    encode,
    encoding_op,
    reachability_oracle,
    reachable_by_single_qubit,
)
from ghzdense.ghzmeasure import outcome_for_index
from ghzdense.protocol import ChannelConfig, run_trials

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
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_with_value_error(call):
    with pytest.raises(ValueError):
        call()


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
