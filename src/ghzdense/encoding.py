"""Sender-side encoding operations and the single-qubit reachability analysis.

The dense-coding sender holds qubits 1 and 2 of a shared GHZ triple and
turns the shared state into any of the eight GHZ basis states with one
fixed two-qubit operation per message. The reachability half answers a
sharper question: which basis states can be turned into which others by
acting on a *single* qubit only, up to global phase?

The decision procedure writes a state s as

    |0>_q (x) x0  +  |1>_q (x) x1

and collects the two co-factor rows into a 2 x 2^(n-1) matrix X (same
for the target, giving Y). A unitary u on qubit q maps s to the target
exactly when u X = Y, and such a u exists iff the column Gram matrices
X^H X and Y^H Y agree entrywise: the columns are frames of vectors in
C^2, and frames with equal Gram matrices are unitarily related. A global
phase on either state cancels out of its Gram matrix, so the criterion
already carries the up-to-phase freedom. When the verdict is positive,
the witness is the unitary polar factor of Y X^H; when negative, the
largest achievable overlap |<target| (u (x) 1) |source>| over all
unitaries u is the nuclear norm of Y X^H, reported as the obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisCatalog, Protocol, ghz_family
from .qstate import StateVector, UnitaryMatrix, _checked, _haar_unitaries, _rng, _split, apply_on_subset
from .qstate import fidelity_up_to_phase

REACH_ATOL = 1e-10  # Gram comparisons accumulate a few products
_WITNESS_MIN_FIDELITY = 1.0 - 1e-9
_ORACLE_BATCH = 50_000  # unitaries per Haar draw
_ORACLE_CHUNK = 256  # unitaries per scoring product; bounds the overlaps at 256 x pairs

_GHZ, _BELL = ghz_family(3), ghz_family(2)


@dataclass(frozen=True)
class EncodingOp:
    """One message's two-qubit operation and where it acts."""

    message_index: int
    matrix: UnitaryMatrix
    acts_on: tuple[int, int]


def encoding_op(message: int) -> EncodingOp:
    """Operation taking the first GHZ state to GHZ state ``message`` (1..8)."""
    message = _checked(message, "message index", 1, len(_GHZ.encoders))
    return EncodingOp(message_index=message, matrix=_GHZ.encoders[message - 1], acts_on=_GHZ.transit)


def _encode(family: Protocol, message: int, shared: StateVector | None = None) -> StateVector:
    message = _checked(message, "message index", 1, len(family.encoders))
    n = family.catalog.n_qubits
    if shared is None:
        shared = family.catalog.state(1)
    elif shared.n_qubits != n:
        raise ValueError(f"shared state must have {n} qubits, got {shared.n_qubits}")
    return apply_on_subset(shared, family.encoders[message - 1], family.transit)


def encode(message: int, shared: StateVector | None = None) -> StateVector:
    """Apply message ``message``'s operation to qubits 1 and 2 of ``shared``.

    ``shared`` defaults to the first GHZ state, the protocol's standing
    assumption; any other three-qubit state is accepted for general use.
    """
    return _encode(_GHZ, message, shared)


def bell_encode(message: int, shared: StateVector | None = None) -> StateVector:
    """Two-qubit-protocol encoding: one single-qubit operation on qubit 1
    turns the first Bell pair into Bell pair ``message`` (1..4)."""
    return _encode(_BELL, message, shared)


@dataclass(frozen=True)
class ReachabilityVerdict:
    """Outcome of a single-qubit reachability question.

    Exactly one of ``witness`` (when reachable) and ``obstruction`` (the
    best achievable overlap magnitude, when not) is populated.
    """

    reachable: bool
    witness: UnitaryMatrix | None = None
    obstruction: float | None = None


def _cofactors(source: StateVector, target: StateVector, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """For each state, the 2 x 2^(n-1) matrix whose rows are the
    (unnormalized) co-factors of the |0> and |1> branches of ``qubit``."""
    if target.n_qubits != source.n_qubits:
        raise ValueError(f"qubit counts differ: {source.n_qubits} vs {target.n_qubits}")
    return tuple(_split(s, (qubit,))[1] for s in (source, target))


def reachable_by_single_qubit(
    source: StateVector, target: StateVector, qubit: int
) -> ReachabilityVerdict:
    """Decide whether some unitary on ``qubit`` alone maps ``source`` to
    ``target`` up to global phase, exactly (no sampling involved)."""
    x, y = _cofactors(source, target, qubit)
    gram_gap = float(np.max(np.abs(x.conj().T @ x - y.conj().T @ y)))
    cross = y @ x.conj().T
    w, sing, vh = np.linalg.svd(cross)
    if gram_gap > REACH_ATOL:
        return ReachabilityVerdict(reachable=False, obstruction=float(sing.sum()))
    witness = UnitaryMatrix(w @ vh)
    achieved = fidelity_up_to_phase(apply_on_subset(source, witness, (qubit,)), target)
    if achieved < _WITNESS_MIN_FIDELITY:
        raise ArithmeticError(
            f"witness fidelity {achieved} below {_WITNESS_MIN_FIDELITY}; "
            "Gram comparison and polar construction disagree"
        )
    return ReachabilityVerdict(reachable=True, witness=witness)


def _best_sampled_fidelities(pairs, qubit: int, samples, rng_seed) -> np.ndarray:
    """Best fidelity (up to phase) for each (source, target) pair in
    ``pairs``, over one shared set of ``samples`` Haar-random unitaries on
    ``qubit``: the one scorer behind both oracle functions.

    The overlap <target| (u (x) 1) |source> is sum_ab u_ab M_ab with
    M = conj(Y) X^T, so stacking each pair's M as a column turns one
    (chunk, 4) @ (4, pairs) product into every pair's overlaps.
    """
    samples = _checked(samples, "samples", 1)
    cofactors = [_cofactors(source, target, qubit) for source, target in pairs]
    coeffs = np.stack([(y.conj() @ x.T).ravel() for x, y in cofactors], axis=1)
    rng = _rng(rng_seed)
    best = np.zeros(coeffs.shape[1])
    for start in range(0, samples, _ORACLE_BATCH):
        batch = _haar_unitaries(min(samples - start, _ORACLE_BATCH), 2, rng).reshape(-1, 4)
        for chunk in range(0, batch.shape[0], _ORACLE_CHUNK):
            overlaps = np.abs(batch[chunk : chunk + _ORACLE_CHUNK] @ coeffs) ** 2
            np.maximum(best, overlaps.max(axis=0), out=best)
    return best


def reachability_oracle(
    source: StateVector,
    target: StateVector,
    qubit: int,
    samples: int = 10_000,
    rng_seed=0,
) -> float:
    """Brute-force cross-check, kept independent of the Gram analysis:
    apply ``samples`` Haar-random unitaries to ``qubit`` of ``source`` and
    return the best fidelity (up to phase) against ``target`` seen.

    ``rng_seed`` is an integer seed >= 0 or a ``numpy.random.Generator``;
    anything else, bools and floats included, is a ``ValueError``.
    Results are a deterministic function of the arguments. This is the
    one-pair case of :func:`reachability_oracle_matrix`: the same seed
    draws the same unitaries in both.
    """
    return float(_best_sampled_fidelities([(source, target)], qubit, samples, rng_seed)[0])


def reachability_matrix(catalog: BasisCatalog, qubit: int) -> np.ndarray:
    """Boolean matrix over ordered catalog pairs: entry (i-1, j-1) says
    whether state i reaches state j through a unitary on ``qubit``."""
    k = len(catalog)
    out = np.zeros((k, k), dtype=bool)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            verdict = reachable_by_single_qubit(catalog.state(i), catalog.state(j), qubit)
            out[i - 1, j - 1] = verdict.reachable
    return out


def reachability_oracle_matrix(
    catalog: BasisCatalog, qubit: int, samples: int = 10_000, rng_seed=0
) -> np.ndarray:
    """Best sampled fidelity for every ordered catalog pair.

    One stream from ``rng_seed`` (an integer >= 0 or a
    ``numpy.random.Generator``) draws one set of ``samples`` unitaries,
    and every pair is scored against that shared set, so entry
    (i-1, j-1) equals ``reachability_oracle(catalog.state(i),
    catalog.state(j), qubit, samples, rng_seed)``. Because the pairs share
    their draws, an unlucky set lowers every reachable entry together.
    """
    states = [catalog.state(i) for i in range(1, len(catalog) + 1)]
    best = _best_sampled_fidelities([(s, t) for s in states for t in states], qubit, samples, rng_seed)
    return best.reshape(len(states), len(states))
