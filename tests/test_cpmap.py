import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpdilate.algebra import (coordinate_basis, coordinates, element,
                              identity, make_algebra, represent)
from cpdilate.cpmap import (apply, compose, covariance_residual,
                            identity_map, kraus_decomposition, make_cpmap)
from cpdilate.errors import (AlgebraMismatch, NotFullAlgebra,
                             NotHermitianPreserving)
from cpdilate.numerics import DEFAULT_TOL, hermitian_eig

from conftest import random_psd


def transpose_map(dim=2):
    alg = make_algebra([(dim, 1)])
    cols = []
    for a in coordinate_basis(alg):
        cols.append(coordinates(element(alg, [a.block_matrices[0].T])))
    return make_cpmap(alg, alg, np.stack(cols, axis=1))


class TestMakeCpMap:
    def test_identity_flags(self):
        alg = make_algebra([(1, 1), (1, 1)])
        s = identity_map(alg)
        assert s.is_cp and s.is_unital

    def test_worked_map_flags(self, worked_map):
        assert worked_map.is_cp and worked_map.is_unital

    def test_transpose_not_cp(self):
        # oracle: the flip Choi matrix has eigenvalue -1
        s = transpose_map()
        assert not s.is_cp
        eig = hermitian_eig(s.choi_blocks[0])
        assert eig.values[-1] < -0.5

    def test_star_preservation_enforced(self):
        alg = make_algebra([(2, 1)])
        action = np.eye(4, dtype=complex)
        action[1, 2] = 1.0  # breaks S(E01)* = S(E10)
        with pytest.raises(NotHermitianPreserving):
            make_cpmap(alg, alg, action)

    def test_cp_cross_validated_by_amplification(self, rng):
        # oracle: for CP maps, (id_n ⊗ S) preserves positivity; check on
        # random PSD inputs of M_n(A) for n = 2, 3
        a_alg = make_algebra([(2, 1)])
        b_alg = make_algebra([(1, 1), (1, 1)])
        for _ in range(5):
            k = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            cols = []
            for a in coordinate_basis(a_alg):
                img = k @ np.kron(a.block_matrices[0], np.eye(2)) @ k.conj().T
                cols.append(np.array([img[0, 0], img[1, 1]]))
            s = make_cpmap(a_alg, b_alg, np.stack(cols, axis=1))
            assert s.is_cp
            for n in (2, 3):
                x = random_psd(rng, 2 * n)
                out = np.zeros((2 * n, 2 * n), dtype=complex)
                for u in range(n):
                    for v in range(n):
                        blk = x[u * 2:(u + 1) * 2, v * 2:(v + 1) * 2]
                        img = represent(apply(s, element(a_alg, [blk])))
                        out[u * 2:(u + 1) * 2, v * 2:(v + 1) * 2] = img
                eigs = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
                assert eigs.min() >= -1e-9 * max(1.0, eigs.max())

    def test_unital_contractive_on_hermitian(self, rng, worked_map):
        for _ in range(10):
            h = rng.standard_normal(2)
            a = element(worked_map.source, [np.array([[h[0]]]), np.array([[h[1]]])])
            out = apply(worked_map, a)
            assert np.abs(np.linalg.norm(represent(out), 2)) <= \
                np.linalg.norm(represent(a), 2) + 1e-12


class TestApplyCompose:
    def test_apply_worked_map(self, worked_map):
        a = element(worked_map.source, [np.array([[1.0]]), np.array([[0.0]])])
        out = apply(worked_map, a)
        assert_allclose(coordinates(out), [0.5, 0.5])

    def test_compose_with_identity(self, worked_map):
        s = compose(identity_map(worked_map.target), worked_map)
        assert_allclose(s.action, worked_map.action)

    def test_worked_map_idempotent(self, worked_map):
        # oracle: the stochastic matrix squares to itself
        assert_allclose((worked_map.action @ worked_map.action),
                        worked_map.action, atol=1e-15)
        s2 = compose(worked_map, worked_map)
        assert_allclose(s2.action, worked_map.action, atol=1e-15)

    def test_mismatch_raises(self, worked_map):
        other = make_algebra([(2, 1)])
        with pytest.raises(AlgebraMismatch):
            compose(worked_map, identity_map(other))
        with pytest.raises(AlgebraMismatch):
            apply(worked_map, identity(other))


class TestCovariance:
    def test_identity_same_state(self, rng):
        alg = make_algebra([(2, 1)])
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert covariance_residual(identity_map(alg), v, v) <= DEFAULT_TOL

    def test_worked_map_uniform_states(self, worked_map):
        f = np.array([1.0, 1.0]) / np.sqrt(2)
        assert covariance_residual(worked_map, f, f) <= DEFAULT_TOL

    def test_worked_map_point_states(self, worked_map):
        f = np.array([1.0, 0.0])
        # phi_f(p1) = 1 while phi_g(S(p1)) = 1/2
        assert not covariance_residual(worked_map, f, f) <= DEFAULT_TOL
        assert_allclose(covariance_residual(worked_map, f, f), 0.5)


class TestKraus:
    def test_identity_channel(self):
        alg = make_algebra([(2, 1)])
        kf = kraus_decomposition(identity_map(alg))
        assert kf.l_dim == 1
        op, = kf.isometry.reshape(1, 2, 2)
        assert_allclose(op, np.eye(2), atol=1e-12)
        assert kf.reconstruction_residual <= 1e-12
        assert kf.completeness_residual <= 1e-12

    def test_trace_channel_rank(self):
        # oracle: Z(x) = tr(x)/2 I on M2 has Choi = I/2, rank 4
        alg = make_algebra([(2, 1)])
        cols = []
        for a in coordinate_basis(alg):
            tr = np.trace(a.block_matrices[0]) / 2.0
            cols.append(coordinates(element(alg, [tr * np.eye(2)])))
        z = make_cpmap(alg, alg, np.stack(cols, axis=1))
        assert_allclose(z.choi_blocks[0], 0.5 * np.eye(4), atol=1e-14)
        kf = kraus_decomposition(z)
        assert kf.l_dim == 4
        assert kf.reconstruction_residual <= 1e-12

    def test_unitary_conjugation_rank_one(self, rng):
        # oracle: x -> u* x u has a rank-one Choi matrix
        alg = make_algebra([(2, 1)])
        u = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        cols = []
        for a in coordinate_basis(alg):
            cols.append(coordinates(element(alg, [u.conj().T @ a.block_matrices[0] @ u])))
        z = make_cpmap(alg, alg, np.stack(cols, axis=1))
        eig = hermitian_eig(z.choi_blocks[0])
        assert np.sum(eig.values > 1e-10 * eig.scale) == 1
        kf = kraus_decomposition(z)
        assert kf.l_dim == 1
        op, = kf.isometry.reshape(1, 2, 2)
        phase = op[0, 0] / u[0, 0] if abs(u[0, 0]) > 0.1 else op[0, 1] / u[0, 1]
        assert_allclose(op, phase * u, atol=1e-10)
        assert_allclose(abs(phase), 1.0, atol=1e-10)

    def test_zero_map_has_no_operators(self):
        # oracle: Z = 0 on M2 → M3 has L = 0, so ξ = 0 and ‖ξ*ξ − I‖_F = √3
        z = make_cpmap(make_algebra([(2, 1)]), make_algebra([(3, 1)]),
                       np.zeros((9, 4)))
        kf = kraus_decomposition(z)
        assert kf.l_dim == 0
        assert kf.isometry.shape == (0, 3)
        assert kf.reconstruction_residual == 0.0
        assert_allclose(kf.completeness_residual, np.sqrt(3.0), rtol=1e-15)

    def test_requires_full_algebras(self, worked_map):
        with pytest.raises(NotFullAlgebra):
            kraus_decomposition(worked_map)

    def test_random_channels_reconstruct(self, rng):
        # 100 random channels with dim F, dim G <= 4
        from cpdilate.sampling import random_unital_cp_map
        for i in range(100):
            df = int(rng.integers(1, 5))
            dg = int(rng.integers(1, 5))
            z = random_unital_cp_map(rng, make_algebra([(df, 1)]),
                                     make_algebra([(dg, 1)]))
            kf = kraus_decomposition(z)
            assert kf.reconstruction_residual <= 1e-10
            assert kf.completeness_residual <= 1e-10
            # isometry property of the assembled Stinespring map
            xi = kf.isometry
            assert_allclose(xi.conj().T @ xi, np.eye(dg), atol=1e-10)
