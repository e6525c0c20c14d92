import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kron_embed, random_state
from ghzdense.qstate import (
    ATOL,
    CNOT,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
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
from ghzdense.bases import bell_state, ghz_state, phi_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


class TestStateVector:
    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0, 0.0])

    def test_rejects_scalar_and_matrix_input(self):
        with pytest.raises(ValueError):
            StateVector(np.eye(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])
        with pytest.raises(ValueError):
            StateVector([np.inf, 0.0])

    def test_norm_tolerance_is_tight(self):
        StateVector([1.0 + 0.9e-12, 0.0])
        with pytest.raises(ValueError):
            StateVector([1.0 + 1e-10, 0.0])

    def test_amplitudes_are_read_only(self):
        state = basis_state("01")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_constructor_copies_input(self):
        amps = np.array([1.0 + 0j, 0.0])
        state = StateVector(amps)
        amps[0] = 0.5
        assert state.amplitudes[0] == 1.0

    def test_counts_qubits(self):
        assert basis_state("0").n_qubits == 1
        assert basis_state("0110").n_qubits == 4
        assert basis_state("0110").dim == 16

    def test_probabilities(self):
        assert_allclose(ghz_state(1).probabilities(), [0.5, 0, 0, 0, 0, 0, 0, 0.5], atol=ATOL)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(rng, 3)
            assert state.probabilities().sum() == pytest.approx(1.0, abs=ATOL)


class TestUnitaryMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix([[1, 0], [1, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.ones((2, 4)))

    def test_entries_read_only(self):
        with pytest.raises(ValueError):
            PAULI_X.entries[0, 0] = 5.0

    def test_dagger_is_inverse(self):
        u = haar_random_unitary(4, rng_seed=11)
        assert_allclose((u @ u.dagger()).entries, np.eye(4), atol=ATOL)

    def test_matmul_composes(self):
        assert_allclose((PAULI_X @ PAULI_X).entries, np.eye(2), atol=ATOL)

    def test_reprs_name_the_nonzero_kets_and_the_dimension(self):
        assert repr(ghz_state(2)) == "StateVector(|000>: 0.707107+0j, |111>: -0.707107+0j)"
        assert repr(StateVector([0.6, 0.8j])) == "StateVector(|0>: 0.6+0j, |1>: 0+0.8j)"
        assert repr(CNOT) == "UnitaryMatrix(dim=4)"


# ---------------------------------------------------------------------------
# inner products and fidelity
# ---------------------------------------------------------------------------


class TestInnerProduct:
    def test_ghz_overlap_with_000(self):
        """<ghz_1|000> = 1/sqrt(2), straight from the two-ket expansion."""
        assert inner_product(ghz_state(1), basis_state("000")) == pytest.approx(INV_SQRT2, abs=ATOL)

    def test_conjugates_first_argument(self):
        plus_i = StateVector(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        zero = basis_state("0")
        assert inner_product(plus_i, zero) == pytest.approx(INV_SQRT2, abs=ATOL)
        assert inner_product(zero, plus_i) == pytest.approx(INV_SQRT2, abs=ATOL)

    def test_orthogonal_ghz_pair(self):
        assert inner_product(ghz_state(1), ghz_state(2)) == pytest.approx(0.0, abs=ATOL)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            inner_product(basis_state("00"), basis_state("000"))

    def test_fidelity_ignores_global_phase(self):
        state = ghz_state(3)
        for phase in (-1.0, 1.0j, np.exp(0.7j)):
            rotated = StateVector(state.amplitudes * phase)
            assert fidelity_up_to_phase(state, rotated) == pytest.approx(1.0, abs=ATOL)

    def test_fidelity_of_product_state_with_ghz(self):
        assert fidelity_up_to_phase(basis_state("000"), ghz_state(1)) == pytest.approx(0.5, abs=ATOL)

    def test_fidelity_of_disjoint_states(self):
        assert fidelity_up_to_phase(ghz_state(1), ghz_state(5)) == 0.0


# ---------------------------------------------------------------------------
# applying operators to subsets of qubits
# ---------------------------------------------------------------------------


class TestApplyOnSubset:
    def test_matches_kron_oracle_on_random_circuits(self):
        """The axis-moving implementation must agree with an explicit
        permutation-conjugated Kronecker embedding."""
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            state = random_state(rng, n)
            for _ in range(25):
                k = int(rng.integers(1, n + 1))
                qubits = tuple(rng.permutation(n)[:k] + 1)
                u = haar_random_unitary(2**k, rng)
                got = apply_on_subset(state, u, qubits).amplitudes
                want = kron_embed(u.entries, qubits, n) @ state.amplitudes
                assert_allclose(got, want, atol=1e-12)

    def test_subset_order_selects_control(self):
        # CNOT with control listed first: (2, 1) controls on qubit 2.
        flipped = apply_on_subset(basis_state("01"), CNOT, (2, 1))
        assert_allclose(flipped.amplitudes, basis_state("11").amplitudes, atol=ATOL)
        unchanged = apply_on_subset(basis_state("01"), CNOT, (1, 2))
        assert_allclose(unchanged.amplitudes, basis_state("01").amplitudes, atol=ATOL)

    def test_non_adjacent_subset(self):
        got = apply_on_subset(basis_state("100"), CNOT, (1, 3))
        assert_allclose(got.amplitudes, basis_state("101").amplitudes, atol=ATOL)

    def test_phase_bit_flip_turns_first_bell_pair_into_fourth(self):
        """The single-qubit map |0> -> -|1>, |1> -> |0> on qubit 1 sends
        (|00>+|11>)/sqrt(2) to (|01>-|10>)/sqrt(2)."""
        flip = UnitaryMatrix([[0, 1], [-1, 0]])
        got = apply_on_subset(bell_state(1), flip, (1,))
        assert fidelity_up_to_phase(got, bell_state(4)) == pytest.approx(1.0, abs=ATOL)

    def test_identity_on_any_subset_is_identity(self):
        state = phi_state(5)
        got = apply_on_subset(state, IDENTITY, (2,))
        assert_allclose(got.amplitudes, state.amplitudes, atol=ATOL)

    def test_norm_preserved_through_random_circuits(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 3)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            qubits = tuple(rng.permutation(3)[:k] + 1)
            state = apply_on_subset(state, haar_random_unitary(2**k, rng), qubits)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=ATOL)

    def test_unitary_then_dagger_restores(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        u = haar_random_unitary(4, rng)
        back = apply_on_subset(apply_on_subset(state, u, (3, 1)), u.dagger(), (3, 1))
        assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_validates_subset(self):
        state = basis_state("000")
        with pytest.raises(ValueError):
            apply_on_subset(state, PAULI_X, ())
        with pytest.raises(ValueError):
            apply_on_subset(state, PAULI_X, (4,))
        with pytest.raises(ValueError):
            apply_on_subset(state, CNOT, (2, 2))
        with pytest.raises(ValueError):
            apply_on_subset(state, CNOT, (1,))

    def test_embed_on_subset_matches_oracle(self):
        rng = np.random.default_rng(9)
        u = haar_random_unitary(2, rng)
        got = embed_on_subset(u, (2,), 3).entries
        assert_allclose(got, kron_embed(u.entries, (2,), 3), atol=1e-12)

    @staticmethod
    def _reference_embed(u, qubits, n):
        # The column loop embed_on_subset must reproduce bit for bit.
        dim = 1 << n
        full = np.empty((dim, dim), dtype=np.complex128)
        for col in range(dim):
            e = np.zeros(dim, dtype=np.complex128)
            e[col] = 1.0
            full[:, col] = apply_on_subset(StateVector(e), u, qubits).amplitudes
        return full

    def test_embed_on_subset_equals_the_column_loop(self):
        rng = np.random.default_rng(21)
        gates = (HADAMARD, PAULI_Z, CNOT, haar_random_unitary(4, rng), haar_random_unitary(8, rng))
        for n in (1, 2, 3):
            for u in gates:
                for qubits in itertools.permutations(range(1, n + 1), u.n_qubits):
                    want = self._reference_embed(u, qubits, n)
                    assert np.array_equal(embed_on_subset(u, qubits, n).entries, want)


class TestTensor:
    def test_hadamard_on_most_significant_qubit(self):
        got = apply_on_subset(basis_state("00"), tensor(HADAMARD, IDENTITY), (1, 2))
        assert_allclose(got.amplitudes, [INV_SQRT2, 0.0, INV_SQRT2, 0.0], atol=ATOL)

    def test_mixed_product_rule(self):
        """tensor(a, b) applied to (1, 2) equals a on qubit 1 then b on qubit 2."""
        rng = np.random.default_rng(13)
        a = haar_random_unitary(2, rng)
        b = haar_random_unitary(2, rng)
        state = random_state(rng, 2)
        joint = apply_on_subset(state, tensor(a, b), (1, 2))
        split = apply_on_subset(apply_on_subset(state, a, (1,)), b, (2,))
        assert_allclose(joint.amplitudes, split.amplitudes, atol=1e-12)

    def test_identity_tensor_identity(self):
        assert_allclose(tensor(IDENTITY, IDENTITY).entries, np.eye(4), atol=ATOL)


# ---------------------------------------------------------------------------
# measurement sampling
# ---------------------------------------------------------------------------


class TestMeasureComputational:
    def test_deterministic_state(self):
        outcome, prob = measure_computational(basis_state("011"), rng_seed=0)
        assert outcome == "011"
        assert prob == pytest.approx(1.0, abs=ATOL)

    def test_same_seed_same_outcome(self):
        state = random_state(np.random.default_rng(21), 3)
        for seed in range(10):
            assert measure_computational(state, seed) == measure_computational(state, seed)

    def test_reported_probability_matches_vector(self):
        state = random_state(np.random.default_rng(22), 3)
        probs = state.probabilities()
        for seed in range(25):
            outcome, prob = measure_computational(state, seed)
            assert prob == pytest.approx(probs[int(outcome, 2)], abs=ATOL)

    def test_outcome_frequencies_follow_born_rule(self):
        outcomes = [measure_computational(ghz_state(1), seed)[0] for seed in range(400)]
        assert set(outcomes) == {"000", "111"}
        share = outcomes.count("000") / len(outcomes)
        assert abs(share - 0.5) < 0.1

    def test_zero_probability_outcomes_never_sampled(self):
        state = phi_state(1)
        seen = {measure_computational(state, seed)[0] for seed in range(300)}
        assert seen <= {format(i, "03b") for i in range(8)}
        state = bell_state(2)
        seen = {measure_computational(state, seed)[0] for seed in range(300)}
        assert seen == {"00", "11"}

    @staticmethod
    def _sampled(state, u):
        """The sampling rule: the first index whose cumulative probability
        exceeds ``u`` times the total, capped at the last index."""
        p = state.probabilities()
        cdf = np.cumsum(p)
        idx = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), state.dim - 1)
        return format(idx, f"0{state.n_qubits}b"), float(p[idx])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_outcome_is_the_first_uniform_through_the_cdf(self, n):
        rng = np.random.default_rng(40 + n)
        for seed in range(20):
            state = random_state(rng, n)
            u = np.random.default_rng(seed).random()
            assert measure_computational(state, seed) == self._sampled(state, u)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_passed_generator_gives_one_uniform_per_call(self, n):
        state = random_state(np.random.default_rng(50 + n), n)
        reference = np.random.default_rng(n)
        first, second = reference.random(), reference.random()
        stream = np.random.default_rng(n)
        assert measure_computational(state, stream) == self._sampled(state, first)
        assert measure_computational(state, stream) == self._sampled(state, second)
        assert stream.random() == reference.random()


class TestHaarRandomUnitary:
    def test_deterministic_given_seed(self):
        assert_allclose(
            haar_random_unitary(2, rng_seed=5).entries,
            haar_random_unitary(2, rng_seed=5).entries,
            atol=0,
        )

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            haar_random_unitary(3, rng_seed=0)

    def test_first_entry_moment(self):
        """Haar measure on 2x2 unitaries gives E|u_00|^2 = 1/2."""
        rng = np.random.default_rng(123)
        values = [abs(haar_random_unitary(2, rng).entries[0, 0]) ** 2 for _ in range(2000)]
        assert np.mean(values) == pytest.approx(0.5, abs=0.05)

    @staticmethod
    def _reference(dim, rng):
        # The one-matrix QR formula the batched sampler must reproduce.
        z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_draws_equal_the_single_matrix_qr_formula(self, dim):
        for seed in (0, 1, 11, 12345):
            want = self._reference(dim, np.random.default_rng(seed))
            assert np.array_equal(haar_random_unitary(dim, seed).entries, want)
        shared, reference = np.random.default_rng(42), np.random.default_rng(42)
        for _ in range(5):
            assert np.array_equal(haar_random_unitary(dim, shared).entries, self._reference(dim, reference))


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------


class TestTextFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            state = random_state(rng, n)
            again = load_state(dump_state(state))
            assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_dump_skips_zero_amplitudes(self):
        text = dump_state(ghz_state(8))
        lines = text.strip().splitlines()
        assert lines[0] == "nqubits 3"
        assert len(lines) == 3
        assert lines[1].startswith("1 ") and lines[2].startswith("6 ")

    def test_load_accepts_reduced_precision(self):
        state = load_state("nqubits 2\n0 0.707106781187 0\n3 -0.707106781187 0\n")
        assert fidelity_up_to_phase(state, bell_state(2)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nqubits\n",
            "nqubits x\n",
            "nqubits 0\n",
            "nqubits 2\n0 1.0\n",
            "nqubits 2\n9 1.0 0.0\n",
            "nqubits 2\n0 0.8 0.0\n",
            "nqubits 2\n0 1.0 0.0\n0 0.0 0.0\n",
            "nqubits 2\n0 one 0.0\n",
        ],
    )
    def test_load_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            load_state(text)
