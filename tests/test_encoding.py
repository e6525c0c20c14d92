import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ghzdense.encoding as encoding_mod
from conftest import (
    every_pair_matrix,
    exact_gaps,
    integer_cofactors,
    integer_signs,
    kron_embed,
    random_state,
    recorded_calls,
    reduced_state_matrix,
)
from ghzdense.bases import BasisCatalog, bell_catalog, bell_state, ghz_catalog, ghz_state, phi_catalog, phi_state
from ghzdense.encoding import (
    _ORACLE_CHUNK,
    REACH_ATOL,
    EncodingOp,
    ReachabilityVerdict,
    _oracle_forms,
    _witness_fidelities,
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
    _split,
    apply_on_subset,
    basis_state,
    fidelity_up_to_phase,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Oracle sample counts at the chunk edges: many chunks, a full one and 3
# more, one row, one exact chunk, one short chunk alone, two full chunks.
CHUNK_EDGES = [50_003, _ORACLE_CHUNK + 3, 1, _ORACLE_CHUNK, _ORACLE_CHUNK - 1, 2 * _ORACLE_CHUNK]

# Every basis at every qubit: (catalog builder, qubit).
CATALOG_QUBITS = [(ghz_catalog, q) for q in (1, 2, 3)] + [(phi_catalog, q) for q in (1, 2, 3)] + [
    (bell_catalog, q) for q in (1, 2)
]


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

    def test_verdict_sets_exactly_one_of_witness_and_obstruction(self):
        cat = ghz_catalog()
        for qubit in (1, 2, 3):
            for i in range(1, 9):
                for j in range(1, 9):
                    v = reachable_by_single_qubit(cat.state(i), cat.state(j), qubit)
                    assert isinstance(v, ReachabilityVerdict)
                    assert (v.witness is not None) == v.reachable
                    assert (v.obstruction is not None) == (not v.reachable)

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_every_ordered_pair_gets_its_mirror_verdict(self, catalog_fn, qubit):
        """The premise of the matrix's re-checks, which read only pairs with
        i <= j, checked pair by pair: i reaches j exactly when j reaches i,
        and an unreachable pair's best overlap is the same from either side."""
        cat = catalog_fn()
        for i in range(1, len(cat) + 1):
            for j in range(1, len(cat) + 1):
                forward = reachable_by_single_qubit(cat.state(i), cat.state(j), qubit)
                backward = reachable_by_single_qubit(cat.state(j), cat.state(i), qubit)
                assert forward.reachable == backward.reachable
                if not forward.reachable:
                    assert abs(forward.obstruction - backward.obstruction) <= 1e-12

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
        monkeypatch.setattr(encoding_mod, "_witness_fidelities", lambda witnesses, x: np.full((len(x), len(x)), 0.5))
        with pytest.raises(ArithmeticError, match="witness fidelity 0.5"):
            reachable_by_single_qubit(ghz_state(1), ghz_state(3), 1)
        # An unreachable pair is decided before any witness is built.
        assert not reachable_by_single_qubit(ghz_state(1), ghz_state(5), 1).reachable

    def test_a_wrong_polar_factor_fails_the_recheck(self, monkeypatch):
        # Whatever computes the re-check, a witness of Pauli X for the
        # reachable pair (psi1, psi1), which X does not map, must be caught.
        monkeypatch.setattr(np.linalg, "svd", lambda m: (PAULI_X.entries, np.ones(2), np.eye(2)))
        with pytest.raises(ArithmeticError, match="witness fidelity"):
            reachable_by_single_qubit(ghz_state(1), ghz_state(1), 1)


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

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_equals_every_ordered_pair_decided_on_its_own(self, catalog_fn, qubit):
        cat = catalog_fn()
        assert np.array_equal(reachability_matrix(cat, qubit), every_pair_matrix(cat, qubit))

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_equals_the_reduced_state_reference(self, catalog_fn, qubit):
        # The reference touches neither the split nor the Gram gap: equal partial traces.
        cat = catalog_fn()
        want = reduced_state_matrix(cat, qubit)
        assert np.array_equal(reachability_matrix(cat, qubit), want)
        for i, source in enumerate(cat.states):
            for j, target in enumerate(cat.states):
                assert reachable_by_single_qubit(source, target, qubit).reachable == want[i, j], (i + 1, j + 1)

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_equals_the_integer_verdict(self, catalog_fn, qubit):
        """The exact reference: a pair is reachable iff the Gram gap of the
        catalog's integer signs is 0, decided with no tolerance, no
        ``_split`` and no floats."""
        cat = catalog_fn()
        signs, scale = integer_signs(cat.name)
        # The rebuilt signs are the catalog's amplitudes, bit for bit.
        assert np.array_equal([s.amplitudes for s in cat.states], np.array(signs) / np.sqrt(scale))
        want = [[gap == 0 for gap in row] for row in exact_gaps(cat.name, qubit)]
        assert np.array_equal(reachability_matrix(cat, qubit), want)

    def test_tolerance_lies_below_half_the_smallest_integer_gap(self):
        """Every unreachable catalog pair's exact gap is at least 1/2, so
        ``REACH_ATOL`` sits far below the nearest unreachable pair; bell has
        none through either qubit."""
        smallest = {}
        for catalog_fn, qubit in CATALOG_QUBITS:
            name = catalog_fn().name
            smallest[name, qubit] = min((gap for row in exact_gaps(name, qubit) for gap in row if gap), default=None)
        want = {(name, q): Fraction(1, 2) for name in ("ghz", "phi") for q in (1, 2, 3)}
        assert smallest == {**want, ("bell", 1): None, ("bell", 2): None}
        assert REACH_ATOL < min(gap for gap in smallest.values() if gap) / 2

    def test_every_reachable_pair_is_a_pauli_orbit(self):
        """The exact reference for a named witness: every pair with integer
        gap 0 has a Pauli P on the qubit and a unit u = i^k with
        P X_i = u X_j, compared in Gaussian integers (re, im) with no
        floats. P takes row 0 of its image from row r times i^a and row 1
        from row s times i^b: Y = [[0, -i], [i, 0]] takes -i x_1, then i x_0."""
        paulis = {"I": ((0, 0), (1, 0)), "X": ((1, 0), (0, 0)), "Y": ((1, 3), (0, 1)), "Z": ((0, 0), (1, 2))}

        def times(k, row):  # an integer row times i^k
            re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
            return tuple((re * v, im * v) for v in row)

        reachable = {}
        for catalog_fn, qubit in CATALOG_QUBITS:
            name = catalog_fn().name
            x, _ = integer_cofactors(name, qubit)
            gaps = exact_gaps(name, qubit)
            pairs = [(i, j) for i in range(len(x)) for j in range(len(x)) if gaps[i][j] == 0]
            for i, j in pairs:
                images = [(times(a, x[i][r]), times(b, x[i][s])) for (r, a), (s, b) in paulis.values()]
                units = [(times(k, x[j][0]), times(k, x[j][1])) for k in range(4)]
                assert any(image in units for image in images), (name, qubit, i + 1, j + 1)
            reachable[name, qubit] = len(pairs)
        assert reachable == {
            **{("bell", q): 16 for q in (1, 2)},
            **{("ghz", q): 32 for q in (1, 2, 3)},
            ("phi", 1): 24,
            ("phi", 2): 24,
            ("phi", 3): 8,
        }

    def test_gram_matrices_differing_only_in_their_imaginary_part(self):
        # |+i>|0> and |-i>|0> on qubit 2: the reduced states on qubit 1 are complex conjugates.
        plus_i = np.array([1, 1j]) / np.sqrt(2)
        states = tuple(StateVector(np.kron(v, [1, 0])) for v in (plus_i, plus_i.conj()))
        cat = BasisCatalog("conjugates", states)
        assert not reachable_by_single_qubit(*states, 2).reachable
        assert np.array_equal(reachability_matrix(cat, 2), np.eye(2, dtype=bool))
        assert np.array_equal(reduced_state_matrix(cat, 2), np.eye(2, dtype=bool))

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_one_witness_call_per_state_outside_its_representative(self, catalog_fn, qubit, monkeypatch):
        cat = catalog_fn()
        calls = recorded_calls(cat, monkeypatch)
        m = reachability_matrix(cat, qubit)
        k = len(cat)
        # State j's representative is the first state that reaches it; a representative
        # takes the identity and makes no call.
        first = [min(i for i in range(1, k + 1) if m[i - 1, j - 1]) for j in range(1, k + 1)]
        # 6 for ghz, 5, 5 and 0 for phi on qubits 1, 2 and 3, 3 for bell
        assert calls == [(first[j - 1], j) for j in range(1, k + 1) if first[j - 1] != j]

    def test_ghz_qubit_1_witness_calls(self, monkeypatch):
        calls = recorded_calls(ghz_catalog(), monkeypatch)
        reachability_matrix(ghz_catalog(), 1)
        assert calls == [(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8)]

    def test_phi_qubit_3_makes_no_witness_call(self, monkeypatch):
        cat = phi_catalog()
        calls = recorded_calls(cat, monkeypatch)
        m = reachability_matrix(cat, 3)
        assert calls == []
        assert np.array_equal(m, np.eye(8, dtype=bool))

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_matrix_is_transitive(self, catalog_fn, qubit):
        m = reachability_matrix(catalog_fn(), qubit).astype(int)
        assert np.array_equal((m @ m) > 0, m > 0)

    def test_gaps_chaining_within_tolerance_stay_pairwise(self, monkeypatch):
        # cos t|000> + sin t|011> at t = 0.3, 0.3 + 2 delta, 0.3 + delta: on qubit 1
        # the gaps are 1.16e-10 between states 1 and 2 and 5.8e-11 for the two pairs
        # with state 3, so 3 reaches both, while 1 and 2 do not reach each other.
        delta = 7e-11
        states = []
        for t in (0.3, 0.3 + 2 * delta, 0.3 + delta):
            amps = np.zeros(8, dtype=complex)
            amps[0b000], amps[0b011] = np.cos(t), np.sin(t)
            states.append(StateVector(amps))
        cat = BasisCatalog("edge", tuple(states))
        calls = recorded_calls(cat, monkeypatch)
        m = reachability_matrix(cat, 1)
        assert np.array_equal(m, [[1, 0, 1], [0, 1, 1], [1, 1, 1]])
        # States 1 and 2 are their own representatives and make no call, state 3's
        # witness comes from state 1, and the pair (2, 3), whose representatives
        # differ, is decided by a call of its own.
        assert calls == [(1, 3), (2, 3)]
        assert np.array_equal(m, every_pair_matrix(cat, 1))

    def test_wrong_witness_fails_the_composed_recheck(self, monkeypatch):
        def pauli_x_off_diagonal(source, target, q):
            verdict = reachable_by_single_qubit(source, target, q)
            if source is target or not verdict.reachable:
                return verdict
            return ReachabilityVerdict(reachable=True, witness=PAULI_X)

        monkeypatch.setattr(encoding_mod, "reachable_by_single_qubit", pauli_x_off_diagonal)
        with pytest.raises(ArithmeticError, match=r"^states \d and \d: composed witness fidelity"):
            reachability_matrix(ghz_catalog(), 1)

    def test_witness_recheck_still_guards_the_matrix(self, monkeypatch):
        # Every call for a state outside its class's first re-checks its witness.
        monkeypatch.setattr(encoding_mod, "_witness_fidelities", lambda witnesses, x: np.full((len(x), len(x)), 0.5))
        with pytest.raises(ArithmeticError, match="witness fidelity 0.5"):
            reachability_matrix(ghz_catalog(), 1)

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_witness_fidelities_match_full_state_vectors(self, catalog_fn, qubit, monkeypatch):
        """Entry [i, j] of the re-check's owner is |<psi_j| (W_j W_i^H (x) 1) |psi_i>|^2,
        here built on the full state vectors by ``kron_embed``, which touches no
        co-factor code: for a stack of Haar witnesses and for the matrix's own."""
        cat = catalog_fn()
        seen = []

        def recording(witnesses, x):
            seen.append((witnesses, x))
            return _witness_fidelities(witnesses, x)

        monkeypatch.setattr(encoding_mod, "_witness_fidelities", recording)
        reachability_matrix(cat, qubit)
        own, x = seen[-1]  # the matrix's k x k re-check, after its calls' two-state ones
        assert own.shape == (len(cat), 2, 2)
        n = cat.states[0].n_qubits
        for witnesses in (_haar_unitaries(len(cat), 2, np.random.default_rng(qubit)), own):
            got = _witness_fidelities(witnesses, x)
            want = np.array(
                [
                    [
                        abs(np.vdot(t.amplitudes, kron_embed(w_j @ w_i.conj().T, (qubit,), n) @ s.amplitudes)) ** 2
                        for w_j, t in zip(witnesses, cat.states)
                    ]
                    for w_i, s in zip(witnesses, cat.states)
                ]
            )
            assert np.abs(got - want).max() <= 1e-12

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


def _rows(state, qubit):
    """The 2 x 2^(n-1) co-factor rows of ``qubit``'s |0> and |1> branches,
    by ``np.moveaxis``, independent of ``qstate._split``."""
    return np.moveaxis(state.amplitudes.reshape((2,) * state.n_qubits), qubit - 1, 0).reshape(2, -1)


def _su2_from_normals(g):
    """The unitary [[a, -conj b], [b, conj a]] / |g|, with a = g0 + i g1 and
    b = g2 + i g3, for each row g of four normals: the oracle's draws, which
    its scorer never builds."""
    a, b = (g[:, 0::2] + 1j * g[:, 1::2]).T / np.linalg.norm(g, axis=1)
    return np.stack([np.stack([a, -b.conj()], axis=1), np.stack([b, a.conj()], axis=1)], axis=1)


def _first_oracle_matrix(catalog, qubit, samples, rng):
    """The first oracle's per-pair formula, kept as the reference: each
    pair's overlaps by one einsum over SU(2) unitaries built from four
    normals each, all drawn from the stream ``rng`` in one call."""
    unitaries = _su2_from_normals(rng.standard_normal((samples, 4)))
    rows = [_rows(s, qubit) for s in catalog.states]
    return np.array(
        [[np.max(np.abs(np.einsum("id,nij,jd->n", y.conj(), unitaries, x)) ** 2) for y in rows] for x in rows]
    )


def _raw_scores(g, columns):
    """The scorer's arithmetic: the raw normals' squared parts of L, the
    real and imaginary halves added, over |g|^2."""
    parts = (g @ columns) ** 2
    half = parts.shape[1] // 2
    return (parts[:, :half] + parts[:, half:]) / np.einsum("ij,ij->i", g, g)[:, None]


def _normalised_scores(g, columns):
    """The first scorer's arithmetic: each draw divided by its norm before
    its squared parts of L are taken and the halves added."""
    parts = (g / np.linalg.norm(g, axis=1, keepdims=True) @ columns) ** 2
    half = parts.shape[1] // 2
    return parts[:, :half] + parts[:, half:]


def _every_form_oracle_matrix(catalog, qubit, samples, rng, scores=_raw_scores):
    """Every pair's form scored, none deduplicated: all k^2 pairs' real and
    imaginary parts of L, from the same normals, drawn in the scorer's
    chunks and scored by ``scores``."""
    k = len(catalog)
    rows = np.stack([_rows(s, qubit) for s in catalog.states])
    m00, m01, m10, m11 = np.einsum("tad,sbd->stab", rows.conj(), rows).reshape(-1, 4).T
    forms = np.stack((m00 + m11, 1j * (m00 - m11), m10 - m01, 1j * (m10 + m01)))
    columns = np.concatenate((forms.real, forms.imag), axis=1)
    best = np.zeros(k * k)
    for start in range(0, samples, _ORACLE_CHUNK):
        g = rng.standard_normal((min(_ORACLE_CHUNK, samples - start), 4))
        best = np.maximum(best, scores(g, columns).max(axis=0))
    return best.reshape(k, k)


def _exact_optimum(catalog, qubit):
    """Best fidelity over all unitaries on ``qubit``, per ordered pair: 1 when
    reachable, else the squared obstruction."""
    verdicts = [[reachable_by_single_qubit(s, t, qubit) for t in catalog.states] for s in catalog.states]
    return np.array([[1.0 if v.reachable else v.obstruction**2 for v in row] for row in verdicts])


def _oracle_margin(samples, miss_prob):
    """The deficit 1 - F/F_opt that a correct best of ``samples`` Haar draws
    exceeds with probability at most ``miss_prob``. One draw's deficit D is
    stochastically largest when the two singular values of Y X^H are equal,
    where P(D <= m) = 1 - (2/pi) (sqrt(m (1-m)) + asin(sqrt(1-m))); the best
    of ``samples`` misses m with probability (1 - P)^samples, and the
    margin, the smallest m that makes this at most ``miss_prob``, is found
    by bisection."""
    need = math.log(1.0 / miss_prob) / samples
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        hit = 1.0 - (2.0 / math.pi) * (math.sqrt(mid * (1.0 - mid)) + math.asin(math.sqrt(1.0 - mid)))
        lo, hi = (lo, mid) if -math.log1p(-hit) >= need else (mid, hi)
    return hi


class TestReachabilityOracleMatrix:
    """All pairs are scored against one shared set of Haar draws."""

    @pytest.mark.parametrize("samples", CHUNK_EDGES)
    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_scoring_distinct_forms_once_is_exact(self, catalog_fn, qubit, samples):
        got = reachability_oracle_matrix(catalog_fn(), qubit, samples=samples, rng_seed=3)
        want = _every_form_oracle_matrix(catalog_fn(), qubit, samples, np.random.default_rng(3))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("samples", CHUNK_EDGES)
    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_raw_draws_score_as_normalised_draws(self, catalog_fn, qubit, samples):
        """Dividing the summed squares by |g|^2 moves no entry by more than
        a few ulps from dividing each draw by |g| first."""
        got = reachability_oracle_matrix(catalog_fn(), qubit, samples=samples, rng_seed=3)
        want = _every_form_oracle_matrix(catalog_fn(), qubit, samples, np.random.default_rng(3), _normalised_scores)
        assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_a_later_call_leaves_an_earlier_result_alone(self):
        cat = ghz_catalog()
        first = reachability_oracle_matrix(cat, 1, samples=_ORACLE_CHUNK + 3, rng_seed=1)
        kept = first.copy()
        reachability_oracle_matrix(cat, 1, samples=_ORACLE_CHUNK + 3, rng_seed=2)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_each_form_peaks_at_the_exact_optimum(self, catalog_fn, qubit):
        """The largest eigenvalue of a pair's Q is the best fidelity any
        unitary on the qubit reaches, the Gram analysis' exact optimum."""
        cat = catalog_fn()
        rows, which = _oracle_forms(cat.states, qubit)
        re, im = np.split(rows, 2)
        quadratic = np.einsum("ci,cj->cij", re, re) + np.einsum("ci,cj->cij", im, im)
        peaks = np.linalg.eigvalsh(quadratic)[:, -1][which].reshape(len(cat), len(cat))
        assert np.abs(peaks - _exact_optimum(cat, qubit)).max() <= 1e-12

    @pytest.mark.parametrize(
        "catalog_fn,qubit,count",
        [(ghz_catalog, q, 5) for q in (1, 2, 3)]
        + [(phi_catalog, 1, 7), (phi_catalog, 2, 7), (phi_catalog, 3, 4)]
        + [(bell_catalog, q, 4) for q in (1, 2)],
    )
    def test_scores_each_distinct_form_once(self, catalog_fn, qubit, count):
        cat = catalog_fn()
        rows, which = _oracle_forms(cat.states, qubit)
        assert rows.shape == (2 * count, 4)  # of 64 or 16 pairs
        assert rows.flags.c_contiguous
        assert sorted(set(which.tolist())) == list(range(count))

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_every_entry_is_the_one_pair_oracle(self, catalog_fn, qubit):
        cat = catalog_fn()
        got = reachability_oracle_matrix(cat, qubit, samples=300, rng_seed=6)
        for i in range(1, len(cat) + 1):
            for j in range(1, len(cat) + 1):
                want = reachability_oracle(cat.state(i), cat.state(j), qubit, samples=300, rng_seed=6)
                assert abs(got[i - 1, j - 1] - want) <= 1e-12

    @pytest.mark.parametrize("samples", [50_003, _ORACLE_CHUNK + 3])
    @pytest.mark.parametrize("catalog_fn,qubit", [(ghz_catalog, 1), (phi_catalog, 2), (bell_catalog, 2)])
    def test_matches_the_per_pair_formula_across_batches(self, catalog_fn, qubit, samples):
        # Many chunks ending in a partial one of 851 draws, or one full chunk and a last of 3.
        rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = reachability_oracle_matrix(catalog_fn(), qubit, samples=samples, rng_seed=rng)
        want = _first_oracle_matrix(catalog_fn(), qubit, samples, reference_rng)
        assert_allclose(got, want, rtol=0, atol=1e-12)
        # Both drew every sample: the shared stream is left at the same point.
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

    @pytest.mark.parametrize("catalog_fn,qubit", [(c, q) for c in (ghz_catalog, phi_catalog) for q in (1, 2, 3)])
    def test_every_seed_lies_within_the_oracle_margin(self, catalog_fn, qubit):
        """At 10^4 samples every entry lies within the sampling margin of its
        exact optimum at any seed, not only at a chosen one: over seeds 0-99
        none exceeds it, and none with an optimum above 1e-12 falls below
        optimum (1 - m), m the deficit a correct sampler misses with
        probability 1e-12. phi's unreachable optima, about 1e-34, are
        rounding residue and are checked from above only."""
        margin = _oracle_margin(10_000, 1e-12)
        assert margin == pytest.approx(0.0346, abs=1e-4)
        cat = catalog_fn()
        optimum = _exact_optimum(cat, qubit)
        positive = optimum > 1e-12
        for seed in range(100):
            sampled = reachability_oracle_matrix(cat, qubit, samples=10_000, rng_seed=seed)
            assert np.all(sampled <= optimum + 1e-12), seed
            assert np.all(sampled[positive] >= optimum[positive] * (1 - margin)), seed

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_splits_each_state_once(self, catalog_fn, qubit, monkeypatch):
        cat = catalog_fn()
        splits = []

        def counting(state, qubits):
            splits.append(state)
            return _split(state, qubits)

        monkeypatch.setattr(encoding_mod, "_split", counting)
        reachability_oracle_matrix(cat, qubit, samples=10, rng_seed=0)
        assert len(splits) == len(cat)  # 8 or 4, not 2k^2 (128 or 32)
        splits.clear()
        reachability_oracle(cat.state(1), cat.state(2), qubit, samples=10, rng_seed=0)
        assert len(splits) == 2

    def test_generator_seed_matches_its_integer_seed(self):
        cat = phi_catalog()
        from_int = reachability_oracle_matrix(cat, 1, samples=500, rng_seed=7)
        from_generator = reachability_oracle_matrix(cat, 1, samples=500, rng_seed=np.random.default_rng(7))
        assert np.array_equal(from_generator, from_int)


class TestOracleDraws:
    """The oracle's samples: four normals each, which make a Haar unitary on
    SU(2), built here from the same normals."""

    @pytest.mark.parametrize("count", [1, 2, 257, 50_003])
    def test_four_normals_per_sample_make_a_determinant_1_unitary(self, count):
        for seed in (0, 1, 5, 12345):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            reachability_oracle(ghz_state(1), ghz_state(3), 1, samples=count, rng_seed=rng)
            g = twin.standard_normal((count, 4))
            assert rng.random() == twin.random()
            u = _su2_from_normals(g)
            assert u.shape == (count, 2, 2)
            assert np.abs(np.linalg.det(u) - 1).max() <= 1e-14

    def test_every_draw_is_unitary_within_1e_14(self):
        u = _su2_from_normals(np.random.default_rng(3).standard_normal((50_003, 4)))
        defect = np.abs(np.einsum("nji,njk->nik", u.conj(), u) - np.eye(2)).max()
        assert defect <= 1e-14 < ATOL

    def test_first_entry_moment(self):
        """|u_00|^2 is uniform on [0, 1] under the Haar measure: mean 1/2,
        standard error sqrt(1/12 / N), checked at z = 5."""
        count = 50_003
        values = np.abs(_su2_from_normals(np.random.default_rng(8).standard_normal((count, 4)))[:, 0, 0]) ** 2
        assert abs(values.mean() - 0.5) <= 5 * np.sqrt(1 / 12 / count)

    @pytest.mark.parametrize("catalog_fn,qubit", CATALOG_QUBITS)
    def test_forms_score_the_unitary_overlaps(self, catalog_fn, qubit):
        """g . L / |g| is the overlap sum_ab u_ab M_ab of the unitary built
        from g, and the scorer's form for each pair gives its squared
        magnitude, both within 1e-14."""
        cat = catalog_fn()
        g = np.random.default_rng(qubit).standard_normal((1000, 4))
        u = _su2_from_normals(g)
        rows = [_rows(s, qubit) for s in cat.states]
        m = np.array([[y.conj() @ x.T for y in rows] for x in rows]).reshape(-1, 2, 2)
        overlaps = np.einsum("nab,pab->np", u, m)
        m00, m01, m10, m11 = m.reshape(-1, 4).T
        forms = np.stack((m00 + m11, 1j * (m00 - m11), m10 - m01, 1j * (m10 + m01)))
        unit = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert np.abs(unit @ forms - overlaps).max() <= 1e-14
        form_rows, which = _oracle_forms(cat.states, qubit)
        parts = (form_rows @ unit.T) ** 2
        count = form_rows.shape[0] // 2
        scored = (parts[:count] + parts[count:])[which].T
        assert np.abs(scored - np.abs(overlaps) ** 2).max() <= 1e-14


@pytest.mark.parametrize(
    "catalog_fn,qubit,i,j,optimum", [(ghz_catalog, 1, 1, 3, 1.0), (phi_catalog, 3, 1, 5, 0.25)]
)
def test_su2_and_u2_draws_give_the_same_fidelity_moments(catalog_fn, qubit, i, j, optimum):
    """A fidelity cannot see a unitary's global phase, so single-sample
    fidelities under Haar on SU(2) (the oracle's draws, built from four
    normals each) and on U(2) (the batched QR) agree in distribution: equal
    first and second moments by a two-sample z test at z = 5, over 10^5
    draws each. For a reachable ghz pair F = |tr v|^2 / 4 with v Haar, so
    E[F] = 1/4 and E[F^2] = 1/8."""
    cat, count = catalog_fn(), 100_000
    source, target = cat.state(i), cat.state(j)
    v = reachable_by_single_qubit(source, target, qubit)
    assert (1.0 if v.reachable else v.obstruction**2) == pytest.approx(optimum, abs=1e-12)
    x, y = (_rows(s, qubit) for s in (source, target))
    coeffs = (y.conj() @ x.T).ravel()
    rng = np.random.default_rng(0)
    draws = (_haar_unitaries(count, 2, rng), _su2_from_normals(rng.standard_normal((count, 4))))
    qr, su2 = (np.abs(u.reshape(-1, 4) @ coeffs) ** 2 for u in draws)
    for power in (1, 2):
        a, b = qr**power, su2**power
        assert abs(a.mean() - b.mean()) <= 5 * np.sqrt((a.var() + b.var()) / count)
        if optimum == 1.0:
            for sample in (a, b):
                assert abs(sample.mean() - (1 / 4, 1 / 8)[power - 1]) <= 5 * np.sqrt(sample.var() / count)
