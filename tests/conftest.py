"""Shared test helpers.

``kron_embed`` is the independent oracle for subset application: it
builds the full operator by conjugating a plain Kronecker product with
an explicit basis-permutation matrix, touching none of the package's
axis-moving code. ``every_pair_matrix`` is the reference for the
reachability matrix: one ``reachable_by_single_qubit`` call per ordered pair.
``reduced_state_matrix`` decides the same pairs from partial traces alone,
touching neither the package's split nor its Gram gap.
``recorded_calls`` lists the calls that the matrix itself makes.
``integer_signs`` rebuilds each named catalog's amplitudes as integer
signs from the catalog's own rule, ``integer_cofactors`` splits them on
one qubit, and ``exact_gaps`` takes every pair's Gram gap from them in
``Fraction``s: the Gram test with no tolerance, touching no numpy and no
``_split``.

Property tests run under a derandomized hypothesis profile, so their
examples, like every other sample in the suite, are the same on every run.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import ghzdense.encoding as encoding_mod
from ghzdense.bases import _PHI_SIGNS
from ghzdense.encoding import REACH_ATOL, reachable_by_single_qubit
from ghzdense.qstate import StateVector

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("ghzdense", derandomize=True, database=None, deadline=None)
    settings.load_profile("ghzdense")


def kron_embed(gate: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Full 2^n matrix applying ``gate`` to ``qubits`` (1-based, first
    listed qubit = most significant bit of the gate's own index)."""
    k = len(qubits)
    rest = [q for q in range(1, n + 1) if q not in qubits]
    order = list(qubits) + rest
    dim = 2**n
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = format(idx, f"0{n}b")
        permuted = "".join(bits[q - 1] for q in order)
        perm[int(permuted, 2), idx] = 1.0
    full = np.kron(np.asarray(gate, dtype=np.complex128), np.eye(2 ** (n - k)))
    return perm.T @ full @ perm


def random_state(rng: np.random.Generator, n_qubits: int) -> StateVector:
    """Normalized complex Gaussian state vector."""
    z = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return StateVector(z / np.linalg.norm(z))


def every_pair_matrix(catalog, qubit: int) -> np.ndarray:
    """The k^2-verdict reference for ``reachability_matrix``: every ordered
    pair decided by its own ``reachable_by_single_qubit`` call."""
    k = len(catalog)
    return np.array(
        [
            [reachable_by_single_qubit(catalog.state(i), catalog.state(j), qubit).reachable for j in range(1, k + 1)]
            for i in range(1, k + 1)
        ]
    )


def reduced_state(state: StateVector, qubit: int) -> np.ndarray:
    """The reduced state on every qubit but ``qubit``, as a 2^(n-1) square
    matrix: the partial trace of the (2,)*n amplitude tensor by one
    ``np.einsum``, ket indices lower-case and bra indices upper-case, the
    traced qubit's shared."""
    n = state.n_qubits
    ket = "abcdefghijklmnopqrstuvwxyz"[:n]
    bra = "".join(c if i == qubit - 1 else c.upper() for i, c in enumerate(ket))
    rest = ket.replace(ket[qubit - 1], "")
    tensor = state.amplitudes.reshape((2,) * n)
    return np.einsum(f"{ket},{bra}->{rest}{rest.upper()}", tensor, tensor.conj()).reshape(2 ** (n - 1), -1)


def reduced_state_matrix(catalog, qubit: int) -> np.ndarray:
    """Reachability from the reduced states alone: state i reaches state j
    through a unitary on ``qubit`` iff their reduced states on the other
    qubits are equal (Hughston, Jozsa and Wootters, Phys. Lett. A 183:14,
    1993), here within ``REACH_ATOL``."""
    reduced = [reduced_state(state, qubit) for state in catalog.states]
    return np.array([[not np.abs(a - b).max() > REACH_ATOL for b in reduced] for a in reduced])


def integer_signs(name: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Catalog ``name``'s states as integer sign rows (entries -1, 0, 1) and
    the scale s with amplitude = sign / sqrt(s), rebuilt from the catalog's
    own rule: ``bases._PHI_SIGNS`` over sqrt(8) for phi, and for the n-qubit
    GHZ family (bell n = 2, ghz n = 3) over sqrt(2), where states 2k + 1 and
    2k + 2 join ket 0 followed by (-k) mod 2^(n-1) with its complement, with
    a plus and a minus sign."""
    if name == "phi":
        return _PHI_SIGNS, 8
    dim = {"bell": 4, "ghz": 8}[name]
    rows = []
    for index in range(dim):
        first = -(index // 2) % (dim // 2)
        row = [0] * dim
        row[first] = 1
        row[first ^ (dim - 1)] = -1 if index % 2 else 1
        rows.append(tuple(row))
    return tuple(rows), 2


def integer_cofactors(name: str, qubit: int) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Catalog ``name``'s states split on ``qubit`` (qubit 1 the most
    significant bit), in integers: per state the two rows of signs with
    ``qubit`` at 0 and at 1, the other qubits' bits in order, and the scale
    of :func:`integer_signs`."""
    signs, scale = integer_signs(name)
    bit = len(signs[0]).bit_length() - 1 - qubit
    rest = [i for i in range(len(signs[0])) if not i >> bit & 1]
    return [tuple(tuple(row[c | a << bit] for c in rest) for a in (0, 1)) for row in signs], scale


def exact_gaps(name: str, qubit: int) -> list[list[Fraction]]:
    """Every ordered pair's Gram gap max|G_i - G_j| for catalog ``name``
    through ``qubit``, exactly. The signs are real, so scale * G = X^T X is
    an integer matrix, X being the two rows of :func:`integer_cofactors`."""
    cofactors, scale = integer_cofactors(name, qubit)
    grams = [[x0[c] * x0[d] + x1[c] * x1[d] for c in range(len(x0)) for d in range(len(x0))] for x0, x1 in cofactors]
    return [[Fraction(max(abs(a - b) for a, b in zip(gi, gj)), scale) for gj in grams] for gi in grams]


def recorded_calls(catalog, monkeypatch) -> list[tuple[int, int]]:
    """Patch ``reachable_by_single_qubit`` where the reachability matrix
    calls it, to record each call's (source, target) as 1-based catalog
    indices, in call order."""
    index = {id(catalog.state(i)): i for i in range(1, len(catalog) + 1)}
    calls = []

    def recording(source, target, q):
        calls.append((index[id(source)], index[id(target)]))
        return reachable_by_single_qubit(source, target, q)

    monkeypatch.setattr(encoding_mod, "reachable_by_single_qubit", recording)
    return calls
