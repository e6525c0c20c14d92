"""Workload inputs, generated from the workload seed, and the calls that run them.

Input generation uses only numpy, so ``selftest.py`` can check it without
the package. Every workload is a closed loop with one client: the next
operation starts when the last one has returned. A workload is a sequence
of *cycles*; a cycle is a fixed list of operations that covers the
workload's whole input mix once, and runs are made of whole cycles so that
the mix does not depend on how fast the machine is.
"""

from __future__ import annotations

import subprocess
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks

NOISE_GRID = (0.0, 0.1, 0.3)
# A bell2 trial costs about two thirds of a ghz3 trial, so these sizes
# make calls of both protocols take about as long, and the per-call
# latency has one mode instead of two.
TRIALS_PER_CALL = {"ghz3": 10_000, "bell2": 15_000}
ORACLE_SAMPLES = 10_000  # the CLI default, and acceptance criterion 6's sample count
REACH_COMBOS = tuple((basis, qubit) for basis in ("ghz", "phi") for qubit in (1, 2, 3))
CLI_TRIALS = 300
CLI_SAMPLES = 300
CLI_TIMEOUT_S = 120

_TRIALS_TAG, _REACH_TAG, _CLI_TAG = 1, 2, 3


@dataclass(frozen=True)
class TrialsCall:
    protocol: str
    trials: int
    noise: float
    channel_seed: int


@dataclass(frozen=True)
class ReachReport:
    basis: str
    qubit: int
    samples: int
    oracle_seed: int


def trials_cycle(seed: int) -> list[TrialsCall]:
    """Every (protocol, noise) pair once, alternating ghz3 and bell2, each
    call with its own channel seed."""
    rng = np.random.default_rng([seed, _TRIALS_TAG])
    ghz_order = rng.permutation(len(NOISE_GRID))
    bell_order = rng.permutation(len(NOISE_GRID))
    calls = []
    for a, b in zip(ghz_order, bell_order):
        for protocol, i in (("ghz3", a), ("bell2", b)):
            calls.append(
                TrialsCall(protocol, TRIALS_PER_CALL[protocol], NOISE_GRID[i], int(rng.integers(2**31)))
            )
    return calls


def reach_cycle(seed: int) -> list[ReachReport]:
    """Every (basis, qubit) report once, in a seeded order and with seeded
    oracle streams."""
    rng = np.random.default_rng([seed, _REACH_TAG])
    return [
        ReachReport(*REACH_COMBOS[i], ORACLE_SAMPLES, int(rng.integers(2**31)))
        for i in rng.permutation(len(REACH_COMBOS))
    ]


def state_file_text(index: int) -> str:
    """GHZ state ``index`` in the package's state-file format."""
    amps = checks.reference_state("ghz", index)
    lines = ["nqubits 3"] + [
        f"{i} {float(a.real)!r} {float(a.imag)!r}" for i, a in enumerate(amps) if a != 0
    ]
    return "\n".join(lines) + "\n"


def cli_script(seed: int, state_file: str) -> list[dict]:
    """The user session replayed by ``cli_session``: one dict per command
    with its argv (after ``python -m ghzdense``) and what its check needs.
    The network-apply command reads ``state_file``, which must hold
    ``state_file_text(spec["index"])``."""
    rng = np.random.default_rng([seed, _CLI_TAG])

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def index_arg(prefix: str, index: int) -> str:
        return f"{prefix}{index}" if rng.integers(2) else str(index)

    script = [
        {"kind": "capacity", "argv": ["capacity"], "json": False},
        {"kind": "capacity", "argv": ["capacity", "--json"], "json": True},
    ]
    for basis in ("bell", "ghz", "phi"):
        as_json = bool(rng.integers(2))
        argv = ["bases", "verify", "--basis", basis] + (["--json"] if as_json else [])
        script.append({"kind": "bases_verify", "argv": argv, "json": as_json})
    for basis, count, prefix in (("bell", 4, "bell"), ("ghz", 8, "psi"), ("phi", 8, "phi")):
        index = 1 + int(rng.integers(count))
        argv = ["bases", "dump", "--basis", basis, "--index", index_arg(prefix, index)]
        script.append({"kind": "bases_dump", "argv": argv, "basis": basis, "index": index})
    message = 1 + int(rng.integers(8))
    script.append({"kind": "encode", "argv": ["encode", "--message", index_arg("psi", message)],
                   "message": message})
    script.append({"kind": "network_show", "argv": ["network", "show"]})
    script.append({"kind": "network_apply", "argv": ["network", "apply", "--state-file", state_file],
                   "index": 1 + int(rng.integers(8))})
    for oracle in (False, False, True, True):
        basis, qubit = pick(REACH_COMBOS)
        argv = ["reach", "--basis", basis, "--qubit", str(qubit), "--json"]
        samples = 0
        if oracle:
            samples = CLI_SAMPLES
            argv += ["--oracle", "--samples", str(samples), "--seed", str(int(rng.integers(2**31)))]
        script.append({"kind": "reach", "argv": argv, "basis": basis, "qubit": qubit,
                       "samples": samples})
    for protocol in ("ghz3", "bell2"):
        for noise in (0.0, pick(NOISE_GRID[1:])):
            rt_seed = int(rng.integers(2**31))
            argv = ["roundtrip", "--protocol", protocol, "--trials", str(CLI_TRIALS),
                    "--noise", repr(noise), "--seed", str(rt_seed), "--json"]
            script.append({"kind": "roundtrip", "argv": argv, "protocol": protocol,
                           "trials": CLI_TRIALS, "noise": noise, "seed": rt_seed})
    return script


# ---------------------------------------------------------------------------
# operations: each returns (seconds, problems); only the call is timed
# ---------------------------------------------------------------------------


def _guarded(op):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return op()
    except Exception:  # noqa: BLE001 - the loop must keep running and report it
        return float("nan"), [traceback.format_exc(limit=3).strip()]


def run_trials_call(g, call: TrialsCall):
    def op():
        channel = g.ChannelConfig(pauli_error_prob=call.noise, rng_seed=call.channel_seed)
        t0 = time.perf_counter()
        report = g.run_trials(call.protocol, call.trials, channel)
        elapsed = time.perf_counter() - t0
        return elapsed, checks.check_trial_report(
            report.to_json_dict(), call.protocol, call.trials, call.noise
        )

    return _guarded(op)


def run_reach_report(g, report: ReachReport):
    def op():
        t0 = time.perf_counter()
        catalog = g.catalog_by_name(report.basis)
        exact = g.reachability_matrix(catalog, report.qubit)
        sampled = g.reachability_oracle_matrix(catalog, report.qubit, report.samples, report.oracle_seed)
        elapsed = time.perf_counter() - t0
        return elapsed, checks.check_reach_matrix(exact, report.basis, report.qubit) + checks.check_oracle_matrix(
            sampled, report.basis, report.qubit, report.samples
        )

    return _guarded(op)


def run_command(python: str, env: dict, spec: dict):
    """One fresh ``python -m ghzdense`` process, timed from launch to exit."""

    def op():
        t0 = time.perf_counter()
        proc = subprocess.run(
            [python, "-m", "ghzdense", *spec["argv"]],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=False,
        )
        elapsed = time.perf_counter() - t0
        return elapsed, checks.check_command(spec, proc.returncode, proc.stdout)

    return _guarded(op)


def dispatch_command(cli, spec: dict):
    """The same command through ``cli.dispatch`` in this process."""

    def op():
        t0 = time.perf_counter()
        result = cli.dispatch(spec["argv"])
        elapsed = time.perf_counter() - t0
        return elapsed, checks.check_command(spec, result.exit_code, result.stdout)

    return _guarded(op)
