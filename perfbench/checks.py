"""Correctness checks for the benchmark's outputs.

Every check compares the package's output with reference data written out
here from the protocol's specification (the README and the pinned tests),
never with a second call into the package. Each check returns a list of
problems; an empty list means the output is correct.

The statistical bounds are chosen so that a correct program fails a
single check with probability below about 1e-9, which keeps false alarms
out of thousands of benchmark runs while a result 10 standard deviations
off is still caught (see ``selftest.py``).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

EXACT_ATOL = 1e-12  # the package's own tolerance for exact algebra
RATE_Z = 6.0  # binomial bound, in standard deviations
ORACLE_MISS_PROB = 1e-12  # chance a correct oracle entry falls below its bound

# Specification data, independent of the package's tables.
GHZ_PAIRS = ((0b000, 0b111), (0b011, 0b100), (0b010, 0b101), (0b001, 0b110))
BELL_PAIRS = ((0b00, 0b11), (0b01, 0b10))
PHI_SIGNS = (
    (+1, +1, +1, +1, +1, +1, +1, +1),
    (+1, +1, +1, +1, -1, -1, -1, -1),
    (+1, +1, -1, -1, -1, -1, +1, +1),
    (+1, +1, -1, -1, +1, +1, -1, -1),
    (+1, -1, +1, -1, -1, +1, +1, -1),
    (+1, -1, +1, -1, +1, -1, -1, +1),
    (+1, -1, -1, +1, -1, +1, -1, +1),
    (+1, -1, -1, +1, +1, -1, +1, -1),
)
# GHZ index -> bits measured after the receiver's network (README table).
GHZ_OUTCOME = {1: "000", 2: "100", 3: "011", 4: "111", 5: "010", 6: "110", 7: "001", 8: "101"}
# Single-qubit reachability classes, as pinned in tests/test_encoding.py.
REACH_GROUPS = {
    ("ghz", 1): ({1, 2, 3, 4}, {5, 6, 7, 8}),
    ("ghz", 2): ({1, 2, 5, 6}, {3, 4, 7, 8}),
    ("ghz", 3): ({1, 2, 7, 8}, {3, 4, 5, 6}),
    ("phi", 1): ({1, 2}, {3, 4}, {5, 6, 7, 8}),
    ("phi", 2): ({1, 4}, {2, 3}, {5, 6, 7, 8}),
    ("phi", 3): tuple({i} for i in range(1, 9)),
}
CAPACITY = {"ghz3": (8, 2, 3.0, 1.5), "bell2": (4, 1, 2.0, 2.0)}
MESSAGE_COUNT = {"ghz3": 8, "bell2": 4}


def reference_state(basis: str, index: int) -> np.ndarray:
    """Amplitudes of basis state ``index`` (1-based) of ``basis``."""
    if basis == "phi":
        return np.array(PHI_SIGNS[index - 1], dtype=np.complex128) / math.sqrt(8.0)
    pairs, n = (GHZ_PAIRS, 3) if basis == "ghz" else (BELL_PAIRS, 2)
    first, second = pairs[(index - 1) // 2]
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[first] = 1.0
    amps[second] = 1.0 if index % 2 else -1.0
    return amps / math.sqrt(2.0)


def reference_catalog(basis: str) -> list[np.ndarray]:
    count = 4 if basis == "bell" else 8
    return [reference_state(basis, i) for i in range(1, count + 1)]


def expected_success_rate(protocol: str, p: float) -> float:
    """Closed-form round-trip success probability under Pauli noise p."""
    if protocol == "ghz3":
        return (1.0 - p) ** 2 + (p / 3.0) ** 2
    return 1.0 - p


def expected_reach(basis: str, qubit: int) -> np.ndarray:
    groups = REACH_GROUPS[(basis, qubit)]
    return np.array(
        [[any(i in g and j in g for g in groups) for j in range(1, 9)] for i in range(1, 9)]
    )


def _cofactors(amps: np.ndarray, qubit: int) -> np.ndarray:
    n = amps.shape[0].bit_length() - 1
    return np.moveaxis(amps.reshape((2,) * n), qubit - 1, 0).reshape(2, -1)


@functools.lru_cache(maxsize=None)
def oracle_optimum(basis: str, qubit: int) -> np.ndarray:
    """Best fidelity over all single-qubit unitaries, for every ordered pair.

    It is the squared nuclear norm of Y X^H built from the co-factor rows
    of source (X) and target (Y): 1 for a reachable pair, the squared
    obstruction otherwise.
    """
    states = reference_catalog(basis)
    out = np.empty((len(states), len(states)))
    for i, s in enumerate(states):
        x = _cofactors(s, qubit)
        for j, t in enumerate(states):
            y = _cofactors(t, qubit)
            out[i, j] = float(np.linalg.svd(y @ x.conj().T, compute_uv=False).sum()) ** 2
    out.setflags(write=False)
    return out


def oracle_margin(samples: int, miss_prob: float = ORACLE_MISS_PROB) -> float:
    """How far below its optimum a correct oracle entry may read.

    For a Haar unitary on one qubit the fidelity deficit D = 1 - F/F_opt is
    stochastically largest when the two singular values of Y X^H are equal,
    and then P(D <= m) = 1 - (2/pi) (sqrt(m (1-m)) + asin(sqrt(1-m))). The
    best of ``samples`` draws misses m with probability (1 - P)^samples;
    the margin is the smallest m that makes this at most ``miss_prob``.
    """
    need = math.log(1.0 / miss_prob) / samples

    def hit(m: float) -> float:
        return 1.0 - (2.0 / math.pi) * (math.sqrt(m * (1.0 - m)) + math.asin(math.sqrt(1.0 - m)))

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if -math.log1p(-hit(mid)) >= need:
            hi = mid
        else:
            lo = mid
    return hi


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


# ---------------------------------------------------------------------------
# library results
# ---------------------------------------------------------------------------


def check_trial_report(report: dict, protocol: str, trials: int, p: float) -> list[str]:
    """A ``TrialReport.to_json_dict()`` payload against the exact rate."""
    problems = []
    k = MESSAGE_COUNT[protocol]
    if report.get("protocol") != protocol or report.get("trials") != trials:
        problems.append(f"report is for {report.get('protocol')}/{report.get('trials')}")
    hist = list(report.get("messages_histogram", ()))
    if len(hist) != k or sum(hist) != trials:
        problems.append(f"histogram {hist} does not hold {trials} trials over {k} messages")
    else:
        problems += check_rate(hist, trials, 1.0 / k, "message count", per_bin=True)
    successes = report.get("successes")
    rate = report.get("success_rate")
    if not isinstance(successes, int) or not 0 <= successes <= trials or rate != successes / trials:
        problems.append(f"successes {successes!r} and rate {rate!r} disagree for {trials} trials")
        return problems
    problems += check_rate([successes], trials, expected_success_rate(protocol, p), "success rate")
    want_bits = CAPACITY[protocol][3]
    if report.get("bits_per_transmitted_qubit") != want_bits:
        problems.append(f"bits per qubit {report.get('bits_per_transmitted_qubit')} != {want_bits}")
    return problems


def check_rate(
    counts: list[int], trials: int, expected: float, label: str, per_bin: bool = False
) -> list[str]:
    """Each count must lie within RATE_Z binomial standard deviations of
    ``expected * trials``; a certain outcome (0 or 1) must be exact."""
    problems = []
    for bin_index, count in enumerate(counts, start=1):
        rate = count / trials
        if expected in (0.0, 1.0):
            ok = rate == expected
            allowed = 0.0
        else:
            allowed = RATE_Z * math.sqrt(expected * (1.0 - expected) / trials) + 1.0 / trials
            ok = abs(rate - expected) <= allowed
        if not ok:
            where = f" {bin_index}" if per_bin else ""
            problems.append(
                f"{label}{where} {rate:.6f} over {trials} trials is off the exact "
                f"{expected:.6f} by more than {allowed:.6f}"
            )
    return problems


def check_reach_matrix(matrix, basis: str, qubit: int) -> list[str]:
    got = np.asarray(matrix, dtype=bool)
    want = expected_reach(basis, qubit)
    if got.shape != want.shape or not np.array_equal(got, want):
        return [f"reachability matrix for {basis} qubit {qubit} differs from the pinned structure"]
    return []


def check_oracle_matrix(fidelities, basis: str, qubit: int, samples: int) -> list[str]:
    """Each sampled best fidelity must not beat the exact optimum and must
    come within the sample-count margin of it."""
    got = np.asarray(fidelities, dtype=float)
    opt = oracle_optimum(basis, qubit)
    if got.shape != opt.shape:
        return [f"oracle matrix shape {got.shape} != {opt.shape}"]
    problems = []
    margin = oracle_margin(samples)
    above = got > opt + EXACT_ATOL
    below = got < opt - margin
    for kind, mask in (("above its exact optimum", above), (f"more than {margin:.4f} below its optimum", below)):
        for i, j in zip(*np.nonzero(mask)):
            problems.append(
                f"oracle {basis} qubit {qubit} pair ({i + 1},{j + 1}) = {got[i, j]!r} is "
                f"{kind} {opt[i, j]!r} ({samples} samples)"
            )
    return problems


# ---------------------------------------------------------------------------
# command-line results
# ---------------------------------------------------------------------------


def _parse_dump(text: str) -> np.ndarray:
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0][0] != "nqubits":
        raise ValueError("missing 'nqubits' header")
    amps = np.zeros(1 << int(lines[0][1]), dtype=np.complex128)
    for idx, re, im in lines[1:]:
        amps[int(idx)] = complex(float(re), float(im))
    return amps


def _expect_state(stdout: str, want: np.ndarray, label: str) -> list[str]:
    try:
        got = _parse_dump(stdout)
    except (ValueError, IndexError) as exc:
        return [f"{label}: unreadable state dump ({exc})"]
    if got.shape != want.shape or _fidelity(got, want) < 1.0 - EXACT_ATOL:
        return [f"{label}: state differs from the reference"]
    return []


def check_command(spec: dict, exit_code: int, stdout: str) -> list[str]:
    """Output of one CLI command (see ``workloads.cli_script``)."""
    kind = spec["kind"]
    label = " ".join(spec["argv"])
    if exit_code != 0:
        return [f"{label}: exit code {exit_code}"]
    try:
        if kind == "capacity":
            return _check_capacity(stdout, spec["json"], label)
        if kind == "bases_verify":
            return _check_verify(stdout, spec["json"], label)
        if kind == "bases_dump":
            return _expect_state(stdout, reference_state(spec["basis"], spec["index"]), label)
        if kind == "encode":
            return _expect_state(stdout, reference_state("ghz", spec["message"]), label)
        if kind == "network_show":
            return _check_network_show(stdout, label)
        if kind == "network_apply":
            want = np.zeros(8, dtype=np.complex128)
            want[int(GHZ_OUTCOME[spec["index"]], 2)] = 1.0
            return _expect_state(stdout, want, label)
        if kind == "reach":
            data = json.loads(stdout)
            problems = check_reach_matrix(data["reachable"], spec["basis"], spec["qubit"])
            if spec["samples"]:
                problems += check_oracle_matrix(
                    data["max_fidelity"], spec["basis"], spec["qubit"], spec["samples"]
                )
            return [f"{label}: {p}" for p in problems]
        if kind == "roundtrip":
            data = json.loads(stdout)
            problems = check_trial_report(data, spec["protocol"], spec["trials"], spec["noise"])
            if data.get("seed") != spec["seed"]:
                problems.append(f"seed {data.get('seed')} != {spec['seed']}")
            return [f"{label}: {p}" for p in problems]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{label}: unreadable output ({exc!r})"]
    return [f"{label}: no check for command kind {kind!r}"]


def _check_capacity(stdout: str, as_json: bool, label: str) -> list[str]:
    if as_json:
        rows = {
            r["protocol"]: (r["message_count"], r["qubits_transmitted"], r["total_bits"],
                            r["bits_per_transmitted_qubit"])
            for r in json.loads(stdout)
        }
    else:
        rows = {}
        for line in stdout.strip().splitlines()[1:]:
            name, k, q, bits, per = line.split()
            rows[name] = (int(k), int(q), float(bits), float(per))
    if rows != CAPACITY:
        return [f"{label}: capacity rows {rows} != {CAPACITY}"]
    return []


def _check_verify(stdout: str, as_json: bool, label: str) -> list[str]:
    if as_json:
        data = json.loads(stdout)
        ok = (
            data["within_tolerance"] is True
            and data["max_off_diagonal"] <= EXACT_ATOL
            and data["max_diagonal_deviation"] <= EXACT_ATOL
        )
    else:
        ok = stdout.strip().splitlines()[-1].endswith(": yes")
    return [] if ok else [f"{label}: basis not reported orthonormal"]


def _check_network_show(stdout: str, label: str) -> list[str]:
    lines = [ln.strip() for ln in stdout.strip().splitlines()]
    want_gates = ["CNOT control=1 target=3", "CNOT control=1 target=2", "H qubit=1"]
    want_table = [f"psi{i} -> {GHZ_OUTCOME[i]}" for i in range(1, 9)]
    if lines[1:4] != want_gates or lines[5:13] != want_table:
        return [f"{label}: gate list or truth table differs from the reference"]
    return []
