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
the witness is the unitary polar factor W of Y X^H, re-checked on the
same split: |<Y, W X>|^2 must reach 1 - 1e-9, else the Gram test and the
polar construction disagree and an ``ArithmeticError`` is raised. When
negative, the largest achievable overlap |<target| (u (x) 1) |source>|
over all unitaries u is the nuclear norm of Y X^H, reported as the
obstruction.

Reachability by one qubit is an equivalence: its classes are the states
with equal reduced states on the other qubits. Each pairwise quantity
has one owner, which scores every ordered pair of one stack of k states
at once: the Gram gap in :func:`_gram_gaps`, the witness re-check in
:func:`_witness_fidelities` and the sampled oracle in
:func:`_best_sampled_fidelities`. A catalog's matrix reads the k x k
case, and a single pair's function reads entry [0, 1] of the two-state
case (source, target). Each class's first state takes the identity as
its witness, and every other state gets its witness from one exact call
from that first state; these compose into a witness for every pair. One
rule certifies each reachable pair: a composed witness that re-checks
needs nothing more, a failing pair whose two states share their class's
first state is an ``ArithmeticError``, and any other failing pair is
decided by a call of its own (see :func:`reachability_matrix`).

The sampled oracle cross-checks these verdicts by brute force. Each
sample is a row g of four normals, whose direction is a unit quaternion,
a Haar unitary on SU(2), and each pair's fidelity is the real quadratic
form g^T Q g / |g|^2, with Q of rank at most 2 and its largest eigenvalue
the exact optimum: 1 when reachable, else the squared obstruction. Pairs
with equal Q are scored once (5 distinct forms of the 64 ghz pairs), in
real arithmetic on the raw normals, without building a unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisCatalog, Protocol, ghz_family
from .qstate import (_MAX_OPERATOR_QUBITS, IDENTITY, StateVector, UnitaryMatrix, _checked, _rng, _same_qubits,
                     _split, apply_on_subset)

REACH_ATOL = 1e-10  # Gram comparisons accumulate a few products
_WITNESS_MIN_FIDELITY = 1.0 - 1e-9
_ORACLE_SAMPLES = 10_000  # the oracle's default sample count, the command line's too
_MAX_SAMPLES = 10**8  # oracle samples per call: 9-12 s for a catalog on a 2-vCPU Xeon
# Samples per draw and scoring product. It bounds each chunk's temporaries:
# the normals at 1024 x 4 (32 KB), the squared projections at 2c x 1024 and
# the scores at c x 1024 for c distinct forms (115 KB and 57 KB for phi's
# 7), while the per-chunk calls stay few.
_ORACLE_CHUNK = 1024

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
    shared = family.catalog.states[0] if shared is None else shared
    _same_qubits((family.catalog.states[0], shared))
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


def _cofactors(states, qubit: int) -> np.ndarray:
    """For each state, the 2 x 2^(n-1) matrix whose rows are the
    (unnormalized) co-factors of the |0> and |1> branches of ``qubit``,
    stacked into one k x 2 x 2^(n-1) array: one ``_split`` per state.
    Every state's qubit count is checked by ``qstate._same_qubits`` before
    any state is split, so a mismatch is reported ahead of an out-of-range
    ``qubit``."""
    _same_qubits(states)
    return np.array([_split(state, (qubit,))[1] for state in states])


def _gram_gaps(x: np.ndarray) -> np.ndarray:
    """The Gram test's one owner: for stacked co-factor matrices ``x``
    (k x 2 x 2^(n-1), from :func:`_cofactors`), the k x k gaps
    max|G_i - G_j| between the column Gram matrices G = X^H X, all formed
    in one stacked product and compared in one broadcast. A pair is
    reachable exactly when its gap is not above ``REACH_ATOL``; the gap
    reads the same in either order.

    A k-state stack holds k Gram matrices of 2^(n-1) x 2^(n-1) and k^2
    differences of them, so n may be at most one above the package's
    dense-operator ceiling ``_MAX_OPERATOR_QUBITS`` (1024 x 1024 Gram
    matrices at 11 qubits), checked before any is formed."""
    _checked(x.shape[2].bit_length(), "qubit count for the Gram test", 1, _MAX_OPERATOR_QUBITS + 1)
    grams = x.conj().transpose(0, 2, 1) @ x
    return np.abs(grams[:, None] - grams[None]).max(axis=(2, 3))


def _witness_fidelities(witnesses: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The witness re-check's one owner: for stacked 2 x 2 witnesses W
    (k x 2 x 2) and co-factor matrices ``x`` (k x 2 x 2^(n-1), from
    :func:`_cofactors`), the k x k fidelities |<X_j, W_j W_i^H X_i>|^2 of
    the composed witness W_j W_i^H from state i to state j, read as
    |<W_j^H X_j, W_i^H X_i>|^2 from one stacked product and one ``einsum``.
    The witnesses act on the rows of the split, so no state is built."""
    back = witnesses.conj().transpose(0, 2, 1) @ x
    return np.abs(np.einsum("jad,iad->ij", back.conj(), back)) ** 2


def reachable_by_single_qubit(
    source: StateVector, target: StateVector, qubit: int
) -> ReachabilityVerdict:
    """Decide whether some unitary on ``qubit`` alone maps ``source`` to
    ``target`` up to global phase, exactly (no sampling involved).

    The verdict is entry [0, 1] of :func:`_gram_gaps` on the pair's two
    stacked co-factor matrices, the two-state case of the comparison
    :func:`reachability_matrix` makes. A positive verdict's witness W is
    re-checked on the pair's own two splits, building no state: entry
    [0, 1] of :func:`_witness_fidelities` on the witness stack (identity,
    W), the pair as the matrix treats a class's first state and one other.
    A fidelity below ``_WITNESS_MIN_FIDELITY`` is an ``ArithmeticError``.

    Each call compares a two-state stack and re-checks the whole stack
    (identity, W), not the one pair alone. A caller that loops over the
    pairs of a catalog should call :func:`reachability_matrix`, which
    splits each state once and calls this only for a state that is not
    its class's first or a pair whose composed witness fails."""
    pair = _cofactors((source, target), qubit)
    x, y = pair
    w, sing, vh = np.linalg.svd(y @ x.conj().T)
    if _gram_gaps(pair)[0, 1] > REACH_ATOL:
        return ReachabilityVerdict(reachable=False, obstruction=float(sing.sum()))
    witness = UnitaryMatrix(w @ vh)
    achieved = _witness_fidelities(np.array((IDENTITY.entries, witness.entries)), pair)[0, 1]
    if achieved < _WITNESS_MIN_FIDELITY:
        raise ArithmeticError(
            f"witness fidelity {achieved} below {_WITNESS_MIN_FIDELITY}; "
            "Gram comparison and polar construction disagree"
        )
    return ReachabilityVerdict(reachable=True, witness=witness)


def _oracle_forms(states, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ordered (source, target) pair of ``states``' fidelity under a
    unitary on ``qubit``, as a real quadratic form on the unit quaternions:
    the distinct forms' contiguous 2c x 4 rows (c real parts of L, then c
    imaginary parts) and, per pair in row-major order, the index of its
    form.

    The overlap <target| (u (x) 1) |source> is sum_ab u_ab M_ab with
    M = conj(Y) X^T, every pair's M from one ``einsum`` over the stacked
    co-factors (each state split once: 8 splits for the ghz matrix and 2
    for a single pair). For a row g of four reals,
    alpha = g0 + i g1 and beta = g2 + i g3, the unitary u = [[alpha,
    -conj beta], [beta, conj alpha]] / |g| has overlap g . L / |g|, with
    L = (M00 + M11, i(M00 - M11), M10 - M01, i(M10 + M01)), so the
    fidelity is g^T Q g / |g|^2 with Q = Re L Re L^T + Im L Im L^T, of
    rank at most 2.
    Q cannot see M's phase, so pairs are deduplicated by Q: 5 distinct
    forms of the 64 ghz pairs. A phase of -1, i or -i on M only negates
    or swaps L's two real parts, so such pairs have the same Q bit for bit
    and score the same floats as the pair that represents their form."""
    x = _cofactors(states, qubit)
    m00, m01, m10, m11 = np.einsum("tad,sbd->stab", x.conj(), x).reshape(-1, 4).T
    forms = np.stack((m00 + m11, 1j * (m00 - m11), m10 - m01, 1j * (m10 + m01)), axis=1)
    re, im = forms.real, forms.imag
    quadratic = re[:, :, None] * re[:, None] + im[:, :, None] * im[:, None] + 0.0  # + 0.0 turns -0.0 into 0.0
    # Each Q compared as its 128 bytes, several times faster than np.unique over rows of floats.
    keys = quadratic.reshape(-1, 16).view((np.void, 128)).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return np.concatenate((re[first], im[first])), which


def _best_sampled_fidelities(states, qubit: int, samples, rng_seed) -> np.ndarray:
    """Best fidelity (up to phase) for every ordered (source, target) pair
    of ``states``, as a k x k array, over one shared set of ``samples``
    Haar-random unitaries on ``qubit``: the sampled oracle's one owner. A
    catalog's matrix reads the k x k case and a single pair's oracle entry
    [0, 1] of its two-state case.

    Each sample is a row g of four standard normals, whose direction
    g / |g| is uniform on the 3-sphere, the unit quaternions (Muller,
    Commun. ACM 2:19, 1959), which :func:`_oracle_forms`' u maps onto Haar
    on SU(2). A U(2) Haar unitary is that times a uniform global phase,
    which no fidelity can see, so the best scores have the distribution
    Haar draws on U(2) would give. The samples are drawn ``_ORACLE_CHUNK``
    rows at a time from the one stream, which yields the same normals as
    one draw of them all. Each chunk scores every distinct form in real
    arithmetic on the raw normals: one (2c, 4) @ (4, chunk) product of the
    forms' contiguous rows and the draws, squared in place and its two row
    halves added, gives the c sums g^T Q g, each divided in place by
    |g|^2 (one ``einsum`` per chunk) and reduced along its own contiguous
    row into the running max. Neither a normalised copy of the draws nor a
    unitary is built.
    """
    samples = _checked(samples, "samples", 1, _MAX_SAMPLES)
    rows, which = _oracle_forms(states, qubit)
    count = rows.shape[0] // 2
    rng = _rng(rng_seed)
    best = np.zeros(count)
    for start in range(0, samples, _ORACLE_CHUNK):
        g = rng.standard_normal((min(samples - start, _ORACLE_CHUNK), 4))
        parts = rows @ g.T
        parts *= parts
        scores = parts[:count] + parts[count:]
        scores /= np.einsum("ij,ij->i", g, g)
        np.maximum(best, scores.max(axis=1), out=best)
    return best[which].reshape(len(states), len(states))


def reachability_oracle(
    source: StateVector,
    target: StateVector,
    qubit: int,
    samples: int = _ORACLE_SAMPLES,
    rng_seed=0,
) -> float:
    """Brute-force cross-check, kept independent of the Gram analysis:
    apply ``samples`` Haar-random unitaries to ``qubit`` of ``source`` and
    return the best fidelity (up to phase) against ``target`` seen.

    ``samples`` is an integer in [1, 10^8]; the ceiling, 9-12 s of
    sampling for a catalog on a 2-vCPU Xeon, keeps a mistyped count from
    running until killed.
    ``rng_seed`` is an integer seed >= 0 or a ``numpy.random.Generator``;
    anything else, bools and floats included, is a ``ValueError``.
    Results are a deterministic function of the arguments. This is entry
    [0, 1] of :func:`_best_sampled_fidelities` on the two states (source,
    target), the two-state case of :func:`reachability_oracle_matrix`: the
    same seed draws the same unitaries in both.

    Each call scores the forms of all 4 ordered pairs of that two-state
    stack, the diagonal pairs included, not the one pair alone. A caller
    that loops over the pairs of a catalog should call
    :func:`reachability_oracle_matrix`, which draws one set of samples and
    scores each distinct form once.
    """
    return float(_best_sampled_fidelities((source, target), qubit, samples, rng_seed)[0, 1])


def reachability_matrix(catalog: BasisCatalog, qubit: int) -> np.ndarray:
    """Boolean matrix over ordered catalog pairs: entry (i-1, j-1) says
    whether state i reaches state j through a unitary on ``qubit``.

    Every state is split once, and every pair's verdict is
    ``not gap > REACH_ATOL`` on the k x k gaps of :func:`_gram_gaps`, whose
    two-state case :func:`reachable_by_single_qubit` reads. The gap reads
    the same in either order, so the matrix is symmetric.

    Reachability by one qubit is an equivalence: its classes are the
    states with equal reduced states on the other qubits (Hughston, Jozsa
    and Wootters, Phys. Lett. A 183:14, 1993). State j's representative
    r(j) is the first state that reaches it. A representative, r(j) = j,
    takes the exact 2 x 2 identity as its witness W_j; every other state
    gets W_j from one :func:`reachable_by_single_qubit` call from r(j) to
    j: one call per state that is not its class's first, 6 for ghz at
    every qubit, and 5, 5 and 0 for phi on qubits 1, 2 and 3. Each call
    decides its pair from the same gap on the same split, so it agrees
    with the matrix and its witness is read directly.

    One rule then certifies every reachable pair i < j. Its composed
    witness W_j W_i^H is re-checked against ``_WITNESS_MIN_FIDELITY``, all
    pairs at once, on the k x k fidelities of :func:`_witness_fidelities`,
    whose two-state case :func:`reachable_by_single_qubit` reads; a pair
    that re-checks needs no call, and with i = r(j) this re-checks the
    call's own W_j. A failing pair with r(i) = r(j) is an
    ``ArithmeticError``. Any other failing pair, which only gaps chaining
    within ``REACH_ATOL`` can give, is decided by a call of its own. The
    verdicts stay pairwise, so such a chain merges no classes.
    """
    states = catalog.states
    x = _cofactors(states, qubit)
    out = ~(_gram_gaps(x) > REACH_ATOL)
    rep = out.argmax(axis=0)
    witnesses = np.array([IDENTITY.entries if r == j
                          else reachable_by_single_qubit(states[r], states[j], qubit).witness.entries
                          for j, r in enumerate(rep)])
    fidelity = _witness_fidelities(witnesses, x)
    for i, j in np.argwhere(np.triu(out, 1) & (fidelity < _WITNESS_MIN_FIDELITY)):
        if rep[i] == rep[j]:
            raise ArithmeticError(
                f"states {i + 1} and {j + 1}: composed witness fidelity {fidelity[i, j]} "
                f"below {_WITNESS_MIN_FIDELITY}"
            )
        reachable_by_single_qubit(states[i], states[j], qubit)
    return out


def reachability_oracle_matrix(
    catalog: BasisCatalog, qubit: int, samples: int = _ORACLE_SAMPLES, rng_seed=0
) -> np.ndarray:
    """Best sampled fidelity for every ordered catalog pair.

    One stream from ``rng_seed`` (an integer >= 0 or a
    ``numpy.random.Generator``) draws one set of ``samples`` unitaries,
    and every pair is scored against that shared set: this is the k x k
    case of :func:`_best_sampled_fidelities`, whose two-state case
    :func:`reachability_oracle` reads, so entry (i-1, j-1) equals
    ``reachability_oracle(catalog.state(i), catalog.state(j), qubit,
    samples, rng_seed)``. Because the pairs share their draws, an unlucky
    set lowers every reachable entry together.
    """
    return _best_sampled_fidelities(catalog.states, qubit, samples, rng_seed)
