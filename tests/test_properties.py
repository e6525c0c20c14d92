"""Property tests: the GHZ-family spec against the hand-written layout it
replaced, and algebraic invariants over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import every_pair_matrix, kron_embed, random_state, recorded_calls, reduced_state_matrix
from ghzdense.bases import BasisCatalog, catalog_by_name, ghz_family
from ghzdense.encoding import reachability_matrix
from ghzdense.qstate import StateVector, apply_on_subset, dump_state, haar_random_unitary, load_state

# The layout as it was written out by hand before ghz_family generated it.
PAIRS = {
    2: ((0b00, 0b11), (0b01, 0b10)),
    3: ((0b000, 0b111), (0b011, 0b100), (0b010, 0b101), (0b001, 0b110)),
}
ENCODERS = {
    2: (
        ((1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, 1), (-1, 0)),
    ),
    3: (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
        ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
        ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
    ),
}
DECODE_TABLES = {
    2: {"00": 1, "10": 2, "01": 3, "11": 4},
    3: {"000": 1, "100": 2, "011": 3, "111": 4, "010": 5, "110": 6, "001": 7, "101": 8},
}
NETWORKS = {
    2: (("CNOT", (1, 2)), ("H", (1,))),
    3: (("CNOT", (1, 3)), ("CNOT", (1, 2)), ("H", (1,))),
}
NAMES = {2: ("bell2", "bell"), 3: ("ghz3", "ghz")}


def _paired_amplitudes(n: int, index: int) -> np.ndarray:
    first, second = PAIRS[n][(index - 1) // 2]
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[first] = 1.0
    amps[second] = 1.0 if index % 2 else -1.0
    return amps / np.sqrt(2.0)


@pytest.mark.parametrize("n", [2, 3])
def test_family_reproduces_hand_written_layout(n):
    family = ghz_family(n)
    assert (family.name, family.catalog.name) == NAMES[n]
    assert family.transit == tuple(range(1, n))
    assert family.network == NETWORKS[n]
    assert list(family.decode_table.items()) == list(DECODE_TABLES[n].items())
    assert len(family.catalog) == len(family.encoders) == 1 << n
    for index, (state, encoder) in enumerate(zip(family.catalog.states, family.encoders), start=1):
        assert np.array_equal(state.amplitudes, _paired_amplitudes(n, index))
        assert np.array_equal(encoder.entries, np.array(ENCODERS[n][index - 1], dtype=np.complex128))


@pytest.mark.parametrize("n", [0, 1, 4, True, 2.0, "3"])
def test_family_size_outside_2_3_rejected(n):
    with pytest.raises(ValueError):
        ghz_family(n)


@st.composite
def subsets(draw):
    """(register size, ordered qubit subset, seed)."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(1, min(n, 3)))
    return n, tuple(order[:k]), draw(st.integers(0, 2**32 - 1))


@given(subsets())
def test_apply_on_subset_matches_kron_embed(case):
    n, qubits, seed = case
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    gate = haar_random_unitary(1 << len(qubits), rng)
    got = apply_on_subset(state, gate, qubits).amplitudes
    assert_allclose(got, kron_embed(gate.entries, qubits, n) @ state.amplitudes, atol=1e-12)
    # Reference: the split and merge done with np.moveaxis give the same bits; the result is a
    # C-contiguous, read-only array.
    axes, k = [q - 1 for q in qubits], len(qubits)
    rows = np.moveaxis(state.amplitudes.reshape((2,) * n), axes, range(k)).reshape(1 << k, -1)
    merged = np.moveaxis((gate.entries @ rows).reshape((2,) * n), range(k), axes)
    assert_array_equal(got, merged.reshape(-1))
    assert got.flags.c_contiguous
    assert not got.flags.writeable


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
def test_dump_then_load_is_exact(n, seed, sparsity):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.random(1 << n) < sparsity] = 0.0
    amps[0] += 1.0  # never all zero
    state = StateVector(amps / np.linalg.norm(amps))
    again = load_state(dump_state(state))
    assert np.array_equal(again.amplitudes, state.amplitudes)


@given(st.sampled_from(["bell", "ghz", "phi"]), st.data())
def test_reachability_is_symmetric(basis, data):
    catalog = catalog_by_name(basis)
    qubit = data.draw(st.integers(1, catalog.n_qubits))
    matrix = reachability_matrix(catalog, qubit)
    assert np.array_equal(matrix, matrix.T)


@given(st.integers(2, 4), st.data())
def test_reachability_matrix_equals_every_pair_decided_on_its_own(n, data):
    """Catalogs with classes of more than one state (Haar images of earlier
    states on the decided qubit) and product states, whose co-factor
    matrices have rank 1: the matrix equals the k^2-call reference and the
    partial-trace reference, which touches neither the split nor the Gram
    gap. Its witness calls are the pairs (r(j), j) for each state j that
    is not its own representative r(j), the first state that reaches it,
    then the reachable pairs i < j with r(i) != r(j) and i != r(j) in row
    order."""
    qubit = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = []
    for kind in data.draw(st.lists(st.sampled_from(["random", "product", "image"]), min_size=1, max_size=6)):
        if kind == "image" and states:
            source = states[data.draw(st.integers(0, len(states) - 1))]
            states.append(apply_on_subset(source, haar_random_unitary(2, rng), (qubit,)))
        elif kind == "product":
            amps = np.ones(1)
            for _ in range(n):
                amps = np.kron(amps, random_state(rng, 1).amplitudes)
            states.append(StateVector(amps))
        else:
            states.append(random_state(rng, n))
    catalog = BasisCatalog("generated", tuple(states))
    with pytest.MonkeyPatch.context() as patch:  # hypothesis rejects the function-scoped fixture
        calls = recorded_calls(catalog, patch)
        matrix = reachability_matrix(catalog, qubit)
    assert_array_equal(matrix, every_pair_matrix(catalog, qubit))
    assert_array_equal(matrix, reduced_state_matrix(catalog, qubit))
    k = len(states)
    rep = [1 + int(np.argmax(matrix[:, j - 1])) for j in range(1, k + 1)]
    fallback = [
        (i, j)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        if matrix[i - 1, j - 1] and rep[i - 1] != rep[j - 1] and i != rep[j - 1]
    ]
    assert calls == [(rep[j - 1], j) for j in range(1, k + 1) if rep[j - 1] != j] + fallback
