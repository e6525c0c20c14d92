"""Self-test of the benchmark's checker and input generator.

``run.py`` runs it before every measurement and refuses to measure if it
fails; ``python3 perfbench/selftest.py`` runs it alone. It shows that the
checks are not vacuous (fabricated wrong outputs are caught, right ones
pass) and that a workload seed fixes the generated inputs.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import checks
import workloads


def _report(protocol: str, trials: int, successes: int) -> dict:
    k = checks.MESSAGE_COUNT[protocol]
    hist = [trials // k] * k
    hist[0] += trials - sum(hist)
    return {
        "protocol": protocol,
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "messages_histogram": hist,
        "bits_per_transmitted_qubit": checks.CAPACITY[protocol][3],
        "seed": 0,
    }


def run() -> list[str]:
    """Every failed self-check, as one line each; empty when all pass."""
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    # Round-trip rates: exact values pass, 10 sigma off is caught.
    trials = 10_000
    for protocol, p in (("ghz3", 0.2), ("bell2", 0.1)):
        exact = checks.expected_success_rate(protocol, p)
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        at = round(exact * trials)
        off = round((exact - 10.0 * sigma) * trials)
        expect(not checks.check_trial_report(_report(protocol, trials, at), protocol, trials, p),
               f"{protocol} rate at its exact value is flagged")
        expect(bool(checks.check_trial_report(_report(protocol, trials, off), protocol, trials, p)),
               f"{protocol} rate 10 sigma below exact is not caught")
    expect(bool(checks.check_trial_report(_report("ghz3", trials, trials - 1), "ghz3", trials, 0.0)),
           "a noiseless rate below 1.0 is not caught")
    short = _report("bell2", trials, trials)
    short["messages_histogram"][0] -= 1
    expect(bool(checks.check_trial_report(short, "bell2", trials, 0.0)),
           "a histogram that misses a trial is not caught")
    skewed = _report("ghz3", trials, trials)
    skewed["messages_histogram"][0] += 500
    skewed["messages_histogram"][1] -= 500
    expect(bool(checks.check_trial_report(skewed, "ghz3", trials, 0.0)),
           "a non-uniform message histogram is not caught")

    # Reachability: the pinned structure passes, one flipped entry is caught.
    for basis, qubit in workloads.REACH_COMBOS:
        exact = checks.expected_reach(basis, qubit)
        expect(not checks.check_reach_matrix(exact, basis, qubit), f"{basis} q{qubit} structure flagged")
        flipped = exact.copy()
        flipped[0, 7] = not flipped[0, 7]
        expect(bool(checks.check_reach_matrix(flipped, basis, qubit)),
               f"{basis} q{qubit} flipped entry not caught")

    # Oracle: the optimum itself passes, above it or far below it is caught.
    samples = workloads.ORACLE_SAMPLES
    for basis, qubit in (("ghz", 1), ("phi", 3)):
        opt = np.array(checks.oracle_optimum(basis, qubit))
        expect(not checks.check_oracle_matrix(opt, basis, qubit, samples), f"{basis} q{qubit} optimum flagged")
        above = opt.copy()
        above[0, 0] += 1e-9
        expect(bool(checks.check_oracle_matrix(above, basis, qubit, samples)),
               f"{basis} q{qubit} entry above its optimum not caught")
        low = opt.copy()
        low[0, 0] = 0.9
        expect(bool(checks.check_oracle_matrix(low, basis, qubit, samples)),
               f"{basis} q{qubit} reachable pair at 0.9 not caught")
    expect(checks.oracle_margin(samples) < checks.oracle_margin(samples // 10) < 1.0,
           "oracle margin does not shrink with the sample count")

    # Command outputs: a right answer passes, a wrong one is caught.
    spec = {"kind": "roundtrip", "argv": ["roundtrip"], "protocol": "ghz3", "trials": trials,
            "noise": 0.0, "seed": 0}
    right = json.dumps(_report("ghz3", trials, trials))
    expect(not checks.check_command(spec, 0, right), "correct roundtrip output flagged")
    expect(bool(checks.check_command(spec, 2, right)), "non-zero exit not caught")
    dump = {"kind": "bases_dump", "argv": ["bases"], "basis": "ghz", "index": 3}
    expect(not checks.check_command(dump, 0, workloads.state_file_text(3)), "correct dump flagged")
    expect(bool(checks.check_command(dump, 0, workloads.state_file_text(4))), "wrong dump not caught")

    # Generator: the same seed gives the same inputs, another seed others.
    def inputs(seed: int):
        return (
            workloads.trials_cycle(seed),
            workloads.reach_cycle(seed),
            workloads.cli_script(seed, "state.txt"),
        )

    expect(inputs(7) == inputs(7), "seed 7 gives different inputs on two calls")
    expect(inputs(7) != inputs(8), "seeds 7 and 8 give the same inputs")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(f"FAIL: {line}")
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)
