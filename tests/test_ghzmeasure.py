import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ghzdense
from conftest import kron_embed, random_state
from ghzdense import ghzmeasure
from ghzdense.bases import bell_state, ghz_catalog, ghz_family, ghz_state
from ghzdense.ghzmeasure import (
    DECODE_TABLE,
    GATE_SEQUENCE,
    decode,
    disentangle,
    ghz_measure,
    index_distribution,
    network_unitary,
    outcome_for_index,
)
from ghzdense.protocol import BELL_DECODE_TABLE, ChannelConfig, bell_measure, run_trials
from ghzdense.qstate import (
    CNOT,
    HADAMARD,
    StateVector,
    apply_on_subset,
    basis_state,
    embed_on_subset,
    fidelity_up_to_phase,
    inner_product,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _composed_oracle() -> np.ndarray:
    """Independent 8x8 matrix for the full network: Hadamard on qubit 1
    after the two controlled-NOTs, each embedded by explicit Kronecker
    products and permutations."""
    c13 = kron_embed(CNOT.entries, (1, 3), 3)
    c12 = kron_embed(CNOT.entries, (1, 2), 3)
    h1 = kron_embed(HADAMARD.entries, (1,), 3)
    return h1 @ c12 @ c13


class TestNetworkStructure:
    def test_gate_sequence_frozen(self):
        assert GATE_SEQUENCE == (("CNOT", (1, 3)), ("CNOT", (1, 2)), ("H", (1,)))

    def test_network_unitary_matches_composed_oracle(self):
        assert_allclose(network_unitary().entries, _composed_oracle(), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_network_unitary_equals_the_embedded_gate_product(self, n):
        # The gate-by-gate product of embedded matrices that each family's
        # network must reproduce entry for entry.
        network = {
            2: ((CNOT, (1, 2)), (HADAMARD, (1,))),
            3: ((CNOT, (1, 3)), (CNOT, (1, 2)), (HADAMARD, (1,))),
        }[n]
        composite = np.eye(1 << n, dtype=np.complex128)
        for gate, qubits in network:
            composite = embed_on_subset(gate, qubits, n).entries @ composite
        assert np.array_equal(ghzmeasure._network_operator(ghz_family(n)).entries, composite)

    def test_cnot_order_is_interchangeable(self):
        """The two controlled-NOTs share a control and have disjoint
        targets, so swapping their order gives the same network."""
        c13 = kron_embed(CNOT.entries, (1, 3), 3)
        c12 = kron_embed(CNOT.entries, (1, 2), 3)
        assert_allclose(c13 @ c12, c12 @ c13, atol=0)

    def test_disentangle_applies_swapped_gate_order_identically(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = random_state(rng, 3)
            straight = disentangle(state)
            swapped = apply_on_subset(state, CNOT, (1, 2))
            swapped = apply_on_subset(swapped, CNOT, (1, 3))
            swapped = apply_on_subset(swapped, HADAMARD, (1,))
            assert_allclose(straight.amplitudes, swapped.amplitudes, atol=1e-12)

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            disentangle(basis_state("00"))


class TestDisentangle:
    def test_every_basis_state_maps_to_its_outcome_ket(self):
        for i in range(1, 9):
            got = disentangle(ghz_state(i))
            want = basis_state(outcome_for_index(i))
            assert_allclose(got.amplitudes, want.amplitudes, atol=1e-12)

    def test_superposition_branches_by_hand(self):
        """Build each of the eight plus/minus combinations directly from
        computational kets and check the network output ket by ket."""
        cases = {
            # (a, b, sign): (|abc...> + sign |flip>)/sqrt(2) -> expected bits
            ("000", "111", +1): "000",
            ("000", "111", -1): "100",
            ("011", "100", +1): "011",
            ("011", "100", -1): "111",
            ("010", "101", +1): "010",
            ("010", "101", -1): "110",
            ("001", "110", +1): "001",
            ("001", "110", -1): "101",
        }
        for (hi, lo, sign), want_bits in cases.items():
            amps = (basis_state(hi).amplitudes + sign * basis_state(lo).amplitudes) * INV_SQRT2
            got = disentangle(StateVector(amps))
            assert fidelity_up_to_phase(got, basis_state(want_bits)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(14)
        a, b = random_state(rng, 3), random_state(rng, 3)
        assert inner_product(disentangle(a), disentangle(b)) == pytest.approx(
            inner_product(a, b), abs=1e-12
        )


class TestDecodeTable:
    def test_table_contents(self):
        assert DECODE_TABLE == {
            "000": 1,
            "100": 2,
            "011": 3,
            "111": 4,
            "010": 5,
            "110": 6,
            "001": 7,
            "101": 8,
        }

    def test_bijection(self):
        assert sorted(DECODE_TABLE.values()) == list(range(1, 9))
        assert len(DECODE_TABLE) == 8
        for bits, idx in DECODE_TABLE.items():
            assert outcome_for_index(idx) == bits

    @pytest.mark.parametrize("table", [DECODE_TABLE, BELL_DECODE_TABLE], ids=["ghz", "bell"])
    def test_tables_are_read_only(self, table):
        before = dict(table)
        first = next(iter(table))
        with pytest.raises(TypeError):
            table[first] = 2
        with pytest.raises(TypeError):
            del table[first]
        assert table == before
        assert [decode(bits) for bits in DECODE_TABLE] == list(range(1, 9))
        assert ghz_measure(ghz_state(1), 0)[0] == bell_measure(bell_state(1), 0)[0] == 1

    def test_table_rederivable_from_network(self):
        """The decode table is forced by the network itself: running each
        basis state through and reading off the surviving ket."""
        net = _composed_oracle()
        for i in range(1, 9):
            out = net @ ghz_state(i).amplitudes
            hot = int(np.argmax(np.abs(out)))
            assert decode(format(hot, "03b")) == i

    def test_decode_validation(self):
        with pytest.raises(ValueError):
            decode("0000")
        with pytest.raises(ValueError):
            decode("abc")
        with pytest.raises(ValueError):
            decode("")

    def test_outcome_for_index_validation(self):
        with pytest.raises(ValueError):
            outcome_for_index(0)
        with pytest.raises(ValueError):
            outcome_for_index(9)


class TestGhzMeasure:
    def test_basis_states_identified_with_certainty(self):
        for i in range(1, 9):
            idx, prob = ghz_measure(ghz_state(i), rng_seed=i)
            assert idx == i
            assert prob == pytest.approx(1.0, abs=1e-12)

    def test_product_state_splits_between_two_indices(self):
        # |000> overlaps only the two states built on the 000/111 pair.
        dist = index_distribution(basis_state("000"))
        assert_allclose(dist, [0.5, 0.5, 0, 0, 0, 0, 0, 0], atol=1e-12)
        seen = {ghz_measure(basis_state("000"), seed)[0] for seed in range(200)}
        assert seen == {1, 2}

    def test_distribution_matches_overlaps_on_random_states(self):
        """Born rule: the network-then-measure distribution equals the
        squared overlaps with the eight entangled basis states."""
        rng = np.random.default_rng(23)
        cat = ghz_catalog()
        for _ in range(25):
            state = random_state(rng, 3)
            dist = index_distribution(state)
            want = [abs(inner_product(cat.state(i), state)) ** 2 for i in range(1, 9)]
            assert_allclose(dist, want, atol=1e-10)
            assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_measure_probability_consistent_with_distribution(self):
        rng = np.random.default_rng(29)
        state = random_state(rng, 3)
        dist = index_distribution(state)
        for seed in range(30):
            idx, prob = ghz_measure(state, seed)
            assert prob == pytest.approx(dist[idx - 1], abs=1e-12)

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            ghz_measure(basis_state("0"), rng_seed=0)
        with pytest.raises(ValueError):
            index_distribution(basis_state("0000"))


def _gate_by_gate(family, state):
    """``family``'s network applied one gate at a time."""
    gates = {"CNOT": CNOT, "H": HADAMARD}
    for name, qubits in family.network:
        state = apply_on_subset(state, gates[name], qubits)
    return state


class TestNetworkOperator:
    """The network runs as one operator per family, built on first use."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_operator_matches_the_gates_applied_one_by_one(self, n):
        family = ghz_family(n)
        rng = np.random.default_rng(31 + n)
        for _ in range(50):
            state = random_state(rng, n)
            want = _gate_by_gate(family, state).amplitudes
            assert_allclose(ghzmeasure._run_network(family, state).amplitudes, want, rtol=0, atol=1e-15)
            if n == 3:
                assert_allclose(disentangle(state).amplitudes, want, rtol=0, atol=1e-15)

    def test_each_family_is_built_at_most_once(self):
        ghzmeasure._network_operator.cache_clear()
        try:
            for _ in range(2):
                run_trials("ghz3", 100, ChannelConfig(0.1, 3))
                run_trials("bell2", 100, ChannelConfig(0.1, 3))
            disentangle(ghz_state(2))
            network_unitary()
            info = ghzmeasure._network_operator.cache_info()
        finally:
            ghzmeasure._network_operator.cache_clear()
        # One miss, and so one build, for each of the two families.
        assert (info.misses, info.currsize) == (2, 2)

    def test_network_unitary_is_one_shared_read_only_matrix(self):
        assert network_unitary() is network_unitary()
        assert not network_unitary().entries.flags.writeable

    def test_import_builds_no_operator(self):
        probe = "import ghzdense; print(ghzdense.ghzmeasure._network_operator.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(ghzdense.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "0"
