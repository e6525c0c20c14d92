import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kron_embed, random_state
from ghzdense.bases import bell_catalog, bell_state, ghz_catalog, ghz_state, phi_catalog, phi_state
from ghzdense.encoding import (
    _ORACLE_BATCH,
    REACH_ATOL,
    EncodingOp,
    ReachabilityVerdict,
    bell_encode,
    encode,
    encoding_op,
    reachability_matrix,
    reachability_oracle,
    reachability_oracle_matrix,
    reachable_by_single_qubit,
)
from ghzdense.qstate import (
    ATOL,
    PAULI_X,
    StateVector,
    _haar_unitaries,
    apply_on_subset,
    basis_state,
    fidelity_up_to_phase,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# the eight two-qubit encoders
# ---------------------------------------------------------------------------


class TestEncodingOps:
    def test_message_1_is_identity(self):
        assert_allclose(encoding_op(1).matrix.entries, np.eye(4), atol=0)

    def test_message_6_matrix_frozen(self):
        want = np.array(
            [
                [0, -1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, 1, 0],
            ],
            dtype=np.complex128,
        )
        assert_allclose(encoding_op(6).matrix.entries, want, atol=0)

    def test_all_ops_unitary_with_sign_entries(self):
        for j in range(1, 9):
            op = encoding_op(j)
            assert isinstance(op, EncodingOp)
            assert op.message_index == j
            assert op.acts_on == (1, 2)
            m = op.matrix.entries
            assert_allclose(m.conj().T @ m, np.eye(4), atol=ATOL)
            assert set(np.unique(m.real)) <= {-1.0, 0.0, 1.0}
            assert np.all(m.imag == 0)

    def test_ops_are_distinct(self):
        flat = {tuple(encoding_op(j).matrix.entries.real.ravel()) for j in range(1, 9)}
        assert len(flat) == 8

    def test_index_validation(self):
        for bad in (0, 9, -3):
            with pytest.raises(ValueError):
                encoding_op(bad)


class TestEncode:
    def test_every_message_reaches_its_target_state(self):
        for j in range(1, 9):
            sent = encode(j)
            assert fidelity_up_to_phase(sent, ghz_state(j)) == pytest.approx(1.0, abs=1e-12)

    def test_default_shared_state(self):
        assert_allclose(encode(1).amplitudes, ghz_state(1).amplitudes, atol=0)

    def test_matches_kron_oracle_on_random_shared_state(self):
        rng = np.random.default_rng(17)
        for j in range(1, 9):
            shared = random_state(rng, 3)
            got = encode(j, shared).amplitudes
            want = kron_embed(encoding_op(j).matrix.entries, (1, 2), 3) @ shared.amplitudes
            assert_allclose(got, want, atol=1e-12)

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            encode(1, bell_state(1))

    def test_rejects_bad_message(self):
        with pytest.raises(ValueError):
            encode(0)


class TestBellEncode:
    def test_all_four_targets(self):
        for m in range(1, 5):
            assert fidelity_up_to_phase(bell_encode(m), bell_state(m)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_message_4_amplitudes(self):
        assert_allclose(bell_encode(4).amplitudes, [0, INV_SQRT2, -INV_SQRT2, 0], atol=ATOL)

    def test_message_2_is_phase_flip(self):
        got = bell_encode(2, bell_state(1))
        assert_allclose(got.amplitudes, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=ATOL)

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            bell_encode(1, ghz_state(1))

    def test_rejects_bad_message(self):
        with pytest.raises(ValueError):
            bell_encode(5)


# ---------------------------------------------------------------------------
# single-qubit reachability: exact criterion
# ---------------------------------------------------------------------------


class TestReachableBySingleQubit:
    def test_bit_flip_on_qubit_1_connects_first_and_third(self):
        verdict = reachable_by_single_qubit(ghz_state(1), ghz_state(3), 1)
        assert verdict.reachable
        assert verdict.obstruction is None
        # The witness is exactly the Pauli X up to global phase; pin the
        # phase via the largest entry.
        w = verdict.witness.entries
        w = w / w[0, 1]
        assert_allclose(w, PAULI_X.entries, atol=1e-9)

    def test_witness_actually_maps_source_to_target(self):
        for cat in (ghz_catalog(), phi_catalog()):
            for qubit in (1, 2, 3):
                for i in range(1, 9):
                    for j in range(1, 9):
                        v = reachable_by_single_qubit(cat.state(i), cat.state(j), qubit)
                        if not v.reachable:
                            continue
                        moved = apply_on_subset(cat.state(i), v.witness, (qubit,))
                        fid = fidelity_up_to_phase(moved, cat.state(j))
                        assert fid >= 1.0 - 1e-9

    def test_unreachable_pairs_have_zero_overlap_obstruction(self):
        # These pairs differ on both of the untouched qubits, so the best
        # achievable overlap is exactly zero.
        v = reachable_by_single_qubit(ghz_state(1), ghz_state(5), 1)
        assert not v.reachable
        assert v.witness is None
        assert v.obstruction == pytest.approx(0.0, abs=1e-12)
        v = reachable_by_single_qubit(phi_state(1), phi_state(3), 1)
        assert not v.reachable
        assert v.obstruction == pytest.approx(0.0, abs=1e-12)

    def test_partial_obstruction_strictly_between_zero_and_one(self):
        # Mixing a reachable and an unreachable branch gives an overlap
        # ceiling strictly inside (0, 1).
        mixed = StateVector(
            np.sqrt(0.5) * ghz_state(3).amplitudes + np.sqrt(0.5) * ghz_state(5).amplitudes
        )
        v = reachable_by_single_qubit(ghz_state(1), mixed, 1)
        assert not v.reachable
        assert 0.1 < v.obstruction < 0.999

    def test_every_state_reaches_itself(self):
        for cat in (ghz_catalog(), phi_catalog()):
            for qubit in (1, 2, 3):
                for i in range(1, 9):
                    assert reachable_by_single_qubit(cat.state(i), cat.state(i), qubit).reachable

    def test_verdict_records_indices_when_given_catalog_states(self):
        v = reachable_by_single_qubit(ghz_state(1), ghz_state(2), 1)
        assert isinstance(v, ReachabilityVerdict)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            reachable_by_single_qubit(ghz_state(1), ghz_state(2), 0)
        with pytest.raises(ValueError):
            reachable_by_single_qubit(ghz_state(1), ghz_state(2), 4)
        with pytest.raises(ValueError):
            reachable_by_single_qubit(bell_state(1), ghz_state(2), 1)

    @pytest.mark.parametrize("qubit", [0, 4])
    def test_bad_qubit_message_names_the_range(self, qubit):
        with pytest.raises(ValueError, match=rf"^qubit must lie in \[1, 3\], got {qubit}$"):
            reachable_by_single_qubit(ghz_state(1), ghz_state(3), qubit)

    def test_witness_that_misses_its_target_is_an_arithmetic_error(self, monkeypatch):
        import ghzdense.encoding as encoding_mod

        monkeypatch.setattr(encoding_mod, "fidelity_up_to_phase", lambda a, b: 0.5)
        with pytest.raises(ArithmeticError, match="witness fidelity 0.5"):
            reachable_by_single_qubit(ghz_state(1), ghz_state(3), 1)
        # An unreachable pair is decided before any witness is built.
        assert not reachable_by_single_qubit(ghz_state(1), ghz_state(5), 1).reachable


class TestReachabilityMatrix:
    def test_ghz_qubit_1_block_structure(self):
        got = reachability_matrix(ghz_catalog(), 1)
        want = np.zeros((8, 8), dtype=bool)
        want[:4, :4] = True
        want[4:, 4:] = True
        assert np.array_equal(got, want)

    def test_ghz_qubit_2_block_structure(self):
        got = reachability_matrix(ghz_catalog(), 2)
        groups = [{1, 2, 5, 6}, {3, 4, 7, 8}]
        want = np.array(
            [[any(i in g and j in g for g in groups) for j in range(1, 9)] for i in range(1, 9)]
        )
        assert np.array_equal(got, want)

    def test_ghz_qubit_3_block_structure(self):
        got = reachability_matrix(ghz_catalog(), 3)
        groups = [{1, 2, 7, 8}, {3, 4, 5, 6}]
        want = np.array(
            [[any(i in g and j in g for g in groups) for j in range(1, 9)] for i in range(1, 9)]
        )
        assert np.array_equal(got, want)

    def test_phi_qubit_1_rows(self):
        got = reachability_matrix(phi_catalog(), 1)
        groups = [{1, 2}, {3, 4}, {5, 6, 7, 8}]
        want = np.array(
            [[any(i in g and j in g for g in groups) for j in range(1, 9)] for i in range(1, 9)]
        )
        assert np.array_equal(got, want)

    def test_phi_qubit_2_rows(self):
        got = reachability_matrix(phi_catalog(), 2)
        groups = [{1, 4}, {2, 3}, {5, 6, 7, 8}]
        want = np.array(
            [[any(i in g and j in g for g in groups) for j in range(1, 9)] for i in range(1, 9)]
        )
        assert np.array_equal(got, want)

    def test_phi_qubit_3_is_diagonal(self):
        assert np.array_equal(reachability_matrix(phi_catalog(), 3), np.eye(8, dtype=bool))

    @pytest.mark.parametrize("catalog_fn", [ghz_catalog, phi_catalog])
    @pytest.mark.parametrize("qubit", [1, 2, 3])
    def test_matrix_is_symmetric_and_reflexive(self, catalog_fn, qubit):
        m = reachability_matrix(catalog_fn(), qubit)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m))

    @pytest.mark.parametrize("catalog_fn", [ghz_catalog, phi_catalog])
    @pytest.mark.parametrize("qubit", [1, 2, 3])
    def test_no_single_qubit_covers_a_whole_catalog(self, catalog_fn, qubit):
        """No lone qubit can steer between all pairs of orthogonal basis
        states, so every matrix has at least one False off the diagonal."""
        m = reachability_matrix(catalog_fn(), qubit)
        off = m[~np.eye(8, dtype=bool)]
        assert not off.all()


# ---------------------------------------------------------------------------
# the sampling oracle, and agreement with the exact criterion
# ---------------------------------------------------------------------------


class TestReachabilityOracle:
    def test_reachable_pair_scores_high(self):
        best = reachability_oracle(ghz_state(1), ghz_state(2), 1, samples=10_000, rng_seed=0)
        assert best > 0.99

    def test_phi_reachable_pair_scores_high(self):
        best = reachability_oracle(phi_state(5), phi_state(7), 1, samples=10_000, rng_seed=0)
        assert best > 0.99

    def test_unreachable_pair_scores_zero(self):
        best = reachability_oracle(ghz_state(1), ghz_state(6), 1, samples=2_000, rng_seed=0)
        assert best <= 1e-12

    def test_deterministic_given_seed(self):
        a = reachability_oracle(ghz_state(1), ghz_state(2), 1, samples=500, rng_seed=9)
        b = reachability_oracle(ghz_state(1), ghz_state(2), 1, samples=500, rng_seed=9)
        assert a == b

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            reachability_oracle(ghz_state(1), ghz_state(2), 1, samples=0)

    def test_oracle_agrees_with_exact_criterion_everywhere(self):
        """Sweep all 64 ordered pairs of the three-qubit plus/minus basis:
        the random-search ceiling and the algebraic verdict must agree."""
        cat = ghz_catalog()
        exact = reachability_matrix(cat, 1)
        sampled = reachability_oracle_matrix(cat, 1, samples=3_000, rng_seed=0)
        for i in range(8):
            for j in range(8):
                if exact[i, j]:
                    assert sampled[i, j] > 0.95
                else:
                    assert sampled[i, j] <= 1e-12

    def test_oracle_never_beats_exact_obstruction(self):
        """The sampled best overlap is a lower bound for the algebraic
        ceiling; squaring the obstruction gives the fidelity ceiling."""
        rng = np.random.default_rng(2)
        for _ in range(6):
            source = random_state(rng, 3)
            target = random_state(rng, 3)
            v = reachable_by_single_qubit(source, target, 2)
            ceiling = 1.0 if v.reachable else v.obstruction**2
            best = reachability_oracle(source, target, 2, samples=2_000, rng_seed=4)
            assert best <= ceiling + 1e-9


# Every basis at every qubit: (catalog builder, qubit).
CATALOG_QUBITS = [(ghz_catalog, q) for q in (1, 2, 3)] + [(phi_catalog, q) for q in (1, 2, 3)] + [
    (bell_catalog, q) for q in (1, 2)
]


def _first_oracle_matrix(catalog, qubit, samples, rng):
    """The first oracle's per-pair formula, kept as the reference: each
    pair's overlaps by one einsum over Haar unitaries drawn from the one
    stream ``rng``, in batches of ``_ORACLE_BATCH``."""
    batches = range(0, samples, _ORACLE_BATCH)
    unitaries = np.concatenate([_haar_unitaries(min(_ORACLE_BATCH, samples - s), 2, rng) for s in batches])
    n = catalog.n_qubits
    rows = [
        np.moveaxis(catalog.state(i).amplitudes.reshape((2,) * n), qubit - 1, 0).reshape(2, -1)
        for i in range(1, len(catalog) + 1)
    ]
    return np.array(
        [[np.max(np.abs(np.einsum("id,nij,jd->n", y.conj(), unitaries, x)) ** 2) for y in rows] for x in rows]
    )


class TestReachabilityOracleMatrix:
    """All pairs are scored against one shared set of Haar draws."""

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_every_entry_is_the_one_pair_oracle(self, catalog_fn, qubit):
        cat = catalog_fn()
        got = reachability_oracle_matrix(cat, qubit, samples=300, rng_seed=6)
        for i in range(1, len(cat) + 1):
            for j in range(1, len(cat) + 1):
                want = reachability_oracle(cat.state(i), cat.state(j), qubit, samples=300, rng_seed=6)
                assert abs(got[i - 1, j - 1] - want) <= 1e-12

    @pytest.mark.parametrize("catalog_fn,qubit", [(ghz_catalog, 1), (phi_catalog, 2), (bell_catalog, 2)])
    def test_matches_the_per_pair_formula_across_batches(self, catalog_fn, qubit):
        # Two Haar batches, the second of 3 draws, and a partial scoring chunk.
        samples = _ORACLE_BATCH + 3
        rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = reachability_oracle_matrix(catalog_fn(), qubit, samples=samples, rng_seed=rng)
        want = _first_oracle_matrix(catalog_fn(), qubit, samples, reference_rng)
        assert_allclose(got, want, rtol=0, atol=1e-12)
        # Both drew every batch: the shared stream is left at the same point.
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_never_beats_the_exact_optimum(self, catalog_fn, qubit):
        cat = catalog_fn()
        sampled = reachability_oracle_matrix(cat, qubit, samples=2_000, rng_seed=5)
        for i in range(1, len(cat) + 1):
            for j in range(1, len(cat) + 1):
                v = reachable_by_single_qubit(cat.state(i), cat.state(j), qubit)
                optimum = 1.0 if v.reachable else v.obstruction**2
                assert sampled[i - 1, j - 1] <= optimum + 1e-12

    def test_generator_seed_matches_its_integer_seed(self):
        cat = phi_catalog()
        from_int = reachability_oracle_matrix(cat, 1, samples=500, rng_seed=7)
        from_generator = reachability_oracle_matrix(cat, 1, samples=500, rng_seed=np.random.default_rng(7))
        assert np.array_equal(from_generator, from_int)
