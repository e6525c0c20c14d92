import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzdense.bases import (
    BasisCatalog,
    OrthonormalityReport,
    bell_catalog,
    bell_state,
    catalog_by_name,
    ghz_catalog,
    ghz_state,
    phi_catalog,
    phi_state,
    verify_orthonormal,
)
from ghzdense.qstate import ATOL, StateVector, basis_state, inner_product

INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT8 = 1.0 / np.sqrt(8.0)


# ---------------------------------------------------------------------------
# frozen amplitude tables
# ---------------------------------------------------------------------------


class TestStateConstruction:
    def test_bell_amplitudes(self):
        assert_allclose(bell_state(1).amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=ATOL)
        assert_allclose(bell_state(2).amplitudes, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=ATOL)
        assert_allclose(bell_state(3).amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=ATOL)
        assert_allclose(bell_state(4).amplitudes, [0, INV_SQRT2, -INV_SQRT2, 0], atol=ATOL)

    def test_ghz_amplitudes(self):
        # Odd index: plus sign between the paired kets; even index: minus.
        assert_allclose(ghz_state(1).amplitudes, [INV_SQRT2, 0, 0, 0, 0, 0, 0, INV_SQRT2], atol=ATOL)
        assert_allclose(ghz_state(2).amplitudes, [INV_SQRT2, 0, 0, 0, 0, 0, 0, -INV_SQRT2], atol=ATOL)
        assert_allclose(ghz_state(3).amplitudes, [0, 0, 0, INV_SQRT2, INV_SQRT2, 0, 0, 0], atol=ATOL)
        assert_allclose(ghz_state(5).amplitudes, [0, 0, INV_SQRT2, 0, 0, INV_SQRT2, 0, 0], atol=ATOL)
        assert_allclose(ghz_state(7).amplitudes, [0, INV_SQRT2, 0, 0, 0, 0, INV_SQRT2, 0], atol=ATOL)

    def test_ghz_8_signs(self):
        amps = ghz_state(8).amplitudes
        assert amps[1] == pytest.approx(INV_SQRT2, abs=ATOL)
        assert amps[6] == pytest.approx(-INV_SQRT2, abs=ATOL)
        assert np.count_nonzero(amps) == 2

    def test_phi_uniform_magnitudes(self):
        for i in range(1, 9):
            assert_allclose(np.abs(phi_state(i).amplitudes), INV_SQRT8, atol=ATOL)

    def test_phi_states_are_the_catalog_states(self):
        for i in range(1, 9):
            assert phi_state(i) is phi_catalog().state(i)

    def test_phi_sign_rows(self):
        signs = lambda i: tuple(int(np.sign(a.real)) for a in phi_state(i).amplitudes)
        assert signs(1) == (1, 1, 1, 1, 1, 1, 1, 1)
        assert signs(2) == (1, 1, 1, 1, -1, -1, -1, -1)
        assert signs(4) == (1, 1, -1, -1, 1, 1, -1, -1)
        assert signs(8) == (1, -1, -1, 1, 1, -1, 1, -1)

    def test_index_validation(self):
        for bad in (0, 9, -1, 1.5, True):
            with pytest.raises(ValueError):
                ghz_state(bad)
            with pytest.raises(ValueError):
                phi_state(bad)
        for bad in (0, 5):
            with pytest.raises(ValueError):
                bell_state(bad)


# ---------------------------------------------------------------------------
# orthonormality and completeness
# ---------------------------------------------------------------------------


class TestOrthonormality:
    @pytest.mark.parametrize("catalog_fn", [bell_catalog, ghz_catalog, phi_catalog])
    def test_catalogs_are_orthonormal(self, catalog_fn):
        report = verify_orthonormal(catalog_fn())
        assert report.within(1e-12)
        assert report.max_off_diagonal <= 1e-12
        assert report.max_diagonal_deviation <= 1e-12

    @pytest.mark.parametrize("catalog_fn", [bell_catalog, ghz_catalog, phi_catalog])
    def test_completeness(self, catalog_fn):
        """The catalog states resolve the identity: sum |i><i| = I."""
        catalog = catalog_fn()
        dim = catalog.state(1).dim
        total = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(1, len(catalog) + 1):
            amps = catalog.state(i).amplitudes
            total += np.outer(amps, amps.conj())
        assert_allclose(total, np.eye(dim), atol=1e-12)

    def test_pairwise_inner_products_directly(self):
        for i in range(1, 9):
            for j in range(1, 9):
                want = 1.0 if i == j else 0.0
                assert inner_product(ghz_state(i), ghz_state(j)) == pytest.approx(want, abs=1e-12)

    def test_duplicate_state_is_flagged(self):
        broken = BasisCatalog("broken", (ghz_state(1), ghz_state(1)))
        report = verify_orthonormal(broken)
        assert not report.within(1e-12)
        assert report.max_off_diagonal == pytest.approx(1.0, abs=ATOL)

    def test_report_fields(self):
        report = verify_orthonormal(ghz_catalog())
        assert isinstance(report, OrthonormalityReport)
        assert report.max_off_diagonal >= 0.0
        assert report.max_diagonal_deviation >= 0.0


# ---------------------------------------------------------------------------
# catalog plumbing
# ---------------------------------------------------------------------------


class TestBasisCatalog:
    def test_sizes_and_qubit_counts(self):
        assert len(bell_catalog()) == 4 and bell_catalog().n_qubits == 2
        assert len(ghz_catalog()) == 8 and ghz_catalog().n_qubits == 3
        assert len(phi_catalog()) == 8 and phi_catalog().n_qubits == 3

    def test_state_lookup_is_one_based(self):
        assert_allclose(ghz_catalog().state(3).amplitudes, ghz_state(3).amplitudes, atol=0)
        with pytest.raises(ValueError):
            ghz_catalog().state(0)
        with pytest.raises(ValueError):
            ghz_catalog().state(9)

    def test_by_name(self):
        assert catalog_by_name("ghz") is ghz_catalog()
        assert catalog_by_name("phi") is phi_catalog()
        assert catalog_by_name("bell") is bell_catalog()
        with pytest.raises(ValueError):
            catalog_by_name("nope")

    def test_catalogs_are_cached(self):
        assert ghz_catalog() is ghz_catalog()

    def test_rejects_mixed_qubit_counts(self):
        with pytest.raises(ValueError):
            BasisCatalog("mixed", (bell_state(1), ghz_state(1)))

    def test_a_list_is_stored_as_a_tuple(self):
        """The catalog keeps its own tuple, so a caller's list cannot grow
        it past the qubit-count check, and the catalog hashes."""
        states = [bell_state(1), bell_state(2)]
        catalog = BasisCatalog("listed", states)
        states.append(ghz_state(1))
        assert catalog.states == (bell_state(1), bell_state(2))
        assert hash(catalog) == hash(BasisCatalog("listed", (bell_state(1), bell_state(2))))
        assert verify_orthonormal(catalog).within()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BasisCatalog("empty", ())

    def test_members_are_state_vectors(self):
        assert all(isinstance(s, StateVector) for s in ghz_catalog().states)
        assert basis_state("00").n_qubits == bell_catalog().n_qubits
