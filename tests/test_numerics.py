import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpdilate.errors import NonFinite, NonHermitian, NotPSD
from cpdilate.numerics import (_canonical_phases, hermitian_eig, matrix_rank,
                               psd_functions)

from conftest import (canonical_phases_loop, null_space, random_hermitian,
                      random_psd)


class TestHermitianEig:
    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_canonical_phases_are_bit_identical_to_the_column_loop(self, seed):
        # eigenvectors of generic and of degenerate spectra, with zero
        # columns and ties in modulus mixed in
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        m = random_hermitian(rng, n)
        if rng.random() < 0.5:
            q = np.linalg.qr(m)[0]
            m = (q * rng.integers(0, 3, n)) @ q.conj().T
        v = np.linalg.eigh(m)[1]
        if rng.random() < 0.3:
            v[:, rng.integers(0, n)] = 0.0
        if rng.random() < 0.3:
            v[:, 0] = np.exp(2j * np.pi * rng.random(n)) / np.sqrt(n)
        got = _canonical_phases(v)
        assert got.tobytes() == canonical_phases_loop(v).tobytes()

    def test_diagonal(self):
        eig = hermitian_eig(np.diag([3.0, 1.0]))
        assert_allclose(eig.values, [3.0, 1.0])
        assert_allclose(eig.vectors, np.eye(2), atol=1e-15)

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(eig.values, [1.0, -1.0], atol=1e-15)

    def test_reconstruction_residual(self, rng):
        # oracle: the decomposition must satisfy M V = V Λ directly
        for _ in range(20):
            m = random_hermitian(rng, 6)
            eig = hermitian_eig(m)
            residual = np.linalg.norm(m @ eig.vectors - eig.vectors * eig.values)
            assert residual <= 1e-12 * np.linalg.norm(m)
            assert_allclose(eig.vectors.conj().T @ eig.vectors, np.eye(6),
                            atol=1e-12)

    def test_phase_canonicalization_is_deterministic(self, rng):
        m = random_hermitian(rng, 5)
        e1 = hermitian_eig(m)
        e2 = hermitian_eig(m.copy())
        assert_allclose(e1.vectors, e2.vectors)
        for k in range(5):
            col = e1.vectors[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(max_examples=25)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    def test_recovers_prescribed_spectrum(self, diag):
        values = np.sort(np.array(diag))[::-1]
        n = len(values)
        gen = np.random.default_rng(abs(hash(tuple(diag))) % 2**32)
        q = np.linalg.qr(gen.standard_normal((n, n))
                         + 1j * gen.standard_normal((n, n)))[0]
        m = (q * values) @ q.conj().T
        got = hermitian_eig(m).values
        assert_allclose(got, values, atol=1e-10 * max(1.0, np.abs(values).max()))


class TestPsdFunctions:
    def test_diagonal_example(self):
        fns = psd_functions(np.diag([4.0, 0.0]))
        assert_allclose(fns.sqrt, np.diag([2.0, 0.0]), atol=1e-14)
        assert_allclose(fns.pinv_sqrt, np.diag([0.5, 0.0]), atol=1e-14)
        assert_allclose(fns.support, np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity(self):
        fns = psd_functions(np.eye(3))
        for part in (fns.sqrt, fns.pinv_sqrt, fns.support):
            assert_allclose(part, np.eye(3), atol=1e-14)

    def test_sqrt_reconstructs(self, rng):
        for _ in range(20):
            m = random_psd(rng, 5)
            fns = psd_functions(m)
            assert np.linalg.norm(fns.sqrt @ fns.sqrt - m) <= 1e-10 * np.linalg.norm(m)

    def test_support_is_projection(self, rng):
        for _ in range(10):
            m = random_psd(rng, 6, rank=3)
            fns = psd_functions(m)
            assert np.linalg.norm(fns.support @ fns.support - fns.support) <= 1e-12
            assert np.linalg.norm(fns.support - fns.support.conj().T) <= 1e-12
            assert fns.rank == 3
            assert_allclose(fns.pinv_sqrt @ fns.sqrt, fns.support, atol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_functions(np.diag([1.0, -0.5]))


class TestNullSpace:
    def test_zero_matrix(self):
        basis = null_space(np.zeros((3, 3)))
        assert basis.shape == (3, 3)

    def test_identity(self):
        assert null_space(np.eye(4)).shape == (4, 0)

    def test_rank_two_product(self, rng):
        # oracle: a product of rank-2 factors has a 2-dimensional kernel
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        m = a @ b
        basis = null_space(m)
        assert basis.shape == (4, 2)
        assert np.linalg.norm(m @ basis) <= 1e-10 * np.linalg.norm(m)
        assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_matrix_rank(rng):
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert matrix_rank(a) == 3
    assert matrix_rank(np.zeros((4, 4))) == 0
