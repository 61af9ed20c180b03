import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpdilate import dilation
from cpdilate.algebra import (adjoint_permutation, commutant, coordinate_basis,
                              coordinates, element, identity, make_algebra,
                              represent)
from cpdilate.cpmap import apply, identity_map, make_cpmap
from cpdilate.dilation import (VERIFY_TOL, WeakTensorDilation,
                               nonunital_recovery, verify_dilation,
                               weak_tensor_dilation)
from cpdilate.errors import NotUnital
from cpdilate.numerics import frob, frob_each
from cpdilate.sampling import random_standard_algebra, random_unital_cp_map
from cpdilate.vnmodule import gns

from conftest import exhaustive_homomorphism_residual
from test_vnmodule import worked_seed


def expected_worked_matrix(a1, a2):
    s = 0.5 * (a1 + a2)
    t = 0.5 * (a1 - a2)
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    eye = np.eye(2)
    z = np.zeros((2, 2))
    return np.block([[s * eye, t * p1, t * p2],
                     [t * p1, s * p1, z],
                     [t * p2, z, s * p2]]).astype(complex)


class TestWeakTensorDilation:
    def test_identity_map(self):
        alg = make_algebra([(1, 1), (1, 1)])
        d = weak_tensor_dilation(identity_map(alg))
        assert d.k_dim == 1
        b = element(alg, [np.array([[0.4]]), np.array([[2.0]])])
        assert_allclose(d.j(b), represent(b), atol=1e-12)
        assert d.certificate.max_residual <= 1e-12

    def test_worked_example_golden_matrix(self, worked_map):
        data = gns(worked_map)
        d = weak_tensor_dilation(worked_map,
                                 seed_qons=worked_seed(data, worked_map))
        assert d.k_dim == 3
        for a1, a2 in [(1.0, 0.0), (0.0, 1.0), (0.6, -0.9)]:
            a = element(worked_map.source, [np.array([[a1]]), np.array([[a2]])])
            assert np.max(np.abs(d.j(a) - expected_worked_matrix(a1, a2))) <= 1e-12
        # the (1,0) block is (a1-a2)/2 p1
        a = element(worked_map.source, [np.array([[1.0]]), np.array([[0.0]])])
        block = d.j(a).reshape(3, 2, 3, 2)[1, :, 0, :]
        assert_allclose(block, 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_k0_compression_is_map(self, rng):
        for _ in range(5):
            a_alg = random_standard_algebra(rng, 4)
            b_alg = random_standard_algebra(rng, 4)
            s = random_unital_cp_map(rng, a_alg, b_alg)
            d = weak_tensor_dilation(s)
            for a in coordinate_basis(a_alg):
                got = d.expectation_ambient(d.j(a))
                assert np.linalg.norm(got - represent(apply(s, a))) <= 1e-10

    def test_random_suite_certificates(self, rng):
        for _ in range(10):
            a_alg = random_standard_algebra(rng, 4)
            b_alg = random_standard_algebra(rng, 4)
            s = random_unital_cp_map(rng, a_alg, b_alg)
            d = weak_tensor_dilation(s)
            assert d.certificate.max_residual <= 1e-9

    def test_values_commute_with_ambient_commutant(self, worked_map):
        # j lands in B ⊗ B(K) = (B' ⊗ 1)': check the commutation literally
        from cpdilate.algebra import commutant
        d = weak_tensor_dilation(worked_map)
        comm = commutant(worked_map.target)
        eye_k = np.eye(d.k_dim)
        for a in coordinate_basis(worked_map.source):
            ja = d.j(a)
            for c in coordinate_basis(comm):
                amb = np.kron(eye_k, represent(c))
                assert np.linalg.norm(ja @ amb - amb @ ja) <= 1e-11

    def test_seed_choice_does_not_change_contract(self, worked_map):
        data = gns(worked_map)
        d1 = weak_tensor_dilation(worked_map)
        d2 = weak_tensor_dilation(worked_map,
                                  seed_qons=worked_seed(data, worked_map))
        assert d1.certificate.max_residual <= 1e-9
        assert d2.certificate.max_residual <= 1e-9

    def test_rejects_non_unital(self, worked_map):
        half = make_cpmap(worked_map.source, worked_map.target,
                          0.5 * worked_map.action)
        with pytest.raises(NotUnital):
            weak_tensor_dilation(half)


class TestVerifyDilation:
    def test_hand_built_identity_dilation(self):
        # j(b) = b ⊗ |k0><k0| for S = id on M2, K of dimension 2
        alg = make_algebra([(2, 1)])
        s = identity_map(alg)
        basis = coordinate_basis(alg)
        j_ops = np.zeros((4, 4, 4), dtype=complex)
        proj = np.diag([1.0, 0.0])
        for i, a in enumerate(basis):
            j_ops[i] = np.kron(proj, a.block_matrices[0])
        p_i = np.kron(proj, np.eye(2))
        d = WeakTensorDilation(cpmap=s, k_dim=2,
                               psi_vector=np.array([1.0, 0.0]),
                               j_ops=j_ops, p_i_matrix=p_i)
        cert = verify_dilation(d)
        assert cert.max_residual <= 1e-12

    def test_perturbation_shows_up_in_membership(self, worked_map):
        d = weak_tensor_dilation(worked_map)
        j_ops = d.j_ops.copy()
        g = worked_map.target.ambient_dim
        # push one block off the algebra by 1e-3
        j_ops[0][0, 1] += 1e-3
        tampered = dataclasses.replace(d, j_ops=j_ops)
        cert = verify_dilation(tampered)
        assert abs(cert.membership - 1e-3) <= 2e-4

    @pytest.mark.parametrize("target", [
        make_algebra([(1, 1), (1, 1)]),
        commutant(make_algebra([(2, 2)])),
    ], ids=["diagonal", "flipped"])
    def test_off_diagonal_k_block_out_of_b_is_caught(self, target, rng):
        # entry (0, G-1) of B's ambient matrices is zero in both targets
        s = random_unital_cp_map(rng, make_algebra([(2, 1)]), target)
        d = weak_tensor_dilation(s)
        assert d.certificate.membership <= VERIFY_TOL
        g, k = target.ambient_dim, d.k_dim
        assert k >= 2
        j_ops = d.j_ops.copy()
        j_ops[-1][0, (k - 1) * g + g - 1] += 1e-3  # K-block (0, K-1)
        cert = verify_dilation(dataclasses.replace(d, j_ops=j_ops))
        assert cert.membership > VERIFY_TOL
        assert abs(cert.membership - 1e-3) <= 1e-9

    def test_projection_calls_do_not_grow_with_k(self, rng, monkeypatch):
        calls = []
        real = dilation.project_to_algebra

        def spy(alg, m):
            calls.append(m.shape)
            return real(alg, m)

        monkeypatch.setattr(dilation, "project_to_algebra", spy)
        counts, ks = [], []
        for blocks in ([(1, 1), (1, 1)], [(2, 1)], [(3, 1)]):
            alg = make_algebra(blocks)
            d = weak_tensor_dilation(random_unital_cp_map(rng, alg, alg))
            counts.append(len(calls))
            ks.append(d.k_dim)
            calls.clear()
        assert len(set(ks)) == 3
        # one batched projection covers all n_A·K² blocks
        assert counts == [1, 1, 1]

    def test_certificate_reports_only(self, worked_map):
        d = weak_tensor_dilation(worked_map)
        cert = verify_dilation(d)
        # the certificate only reports residuals: the verdict is the
        # caller's comparison with a tolerance, and nothing raises
        assert cert.max_residual <= VERIFY_TOL


def perturbed(d, index, size, rng):
    """``d`` with j_ops[index] moved by a random matrix of Frobenius norm
    ``size``."""
    shape = d.j_ops.shape[1:]
    delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j_ops = d.j_ops.copy()
    j_ops[index] += size * delta / frob(delta)
    return dataclasses.replace(d, j_ops=j_ops)


def operator_norm_bound(source, j_ops) -> float:
    """M of the certificate: max(1, ‖j(x)‖_op) over the matrix units x and
    the block units j(1_i)."""
    units = [j_ops[off:off + d * d:d + 1].sum(axis=0)
             for off, (d, _) in zip(source.coord_offsets(), source.blocks)]
    stack = np.concatenate([j_ops, np.stack(units)])
    return max(1.0, float(np.max(np.linalg.norm(stack, ord=2, axis=(-2, -1)))))


class TestHomomorphismCertificate:
    """The matrix-unit relations R1–R3 against the exhaustive oracle over
    all pairs of basis elements.

    On an unperturbed draw the relations form products that the oracle
    forms too, so the certificate is the oracle's residual up to rounding
    (1e-2 relative).  On a perturbed draw the oracle is at most
    c·homomorphism with c = (1 + 10·max_i d_i)·M⁴, the largest constant the
    certificate states, and both flag the draw at VERIFY_TOL.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16),
           st.sampled_from([None, -6, -4, -2]))
    def test_agrees_with_the_exhaustive_oracle(self, seed, index, log_size):
        rng = np.random.default_rng(seed)
        source = random_standard_algebra(rng, 5)
        s = random_unital_cp_map(rng, source, random_standard_algebra(rng, 5))
        d = weak_tensor_dilation(s)
        if log_size is not None:
            d = perturbed(d, index % source.coord_dim, 10.0 ** log_size, rng)
        got = verify_dilation(d).homomorphism
        oracle = exhaustive_homomorphism_residual(source, d.j_ops)
        assert (got > VERIFY_TOL) == (oracle > VERIFY_TOL)
        if log_size is None:
            assert got <= oracle * (1 + 1e-2)
            assert oracle <= VERIFY_TOL
        else:
            c = (1 + 10 * max(dim for dim, _ in source.blocks)) \
                * operator_norm_bound(source, d.j_ops) ** 4
            assert got > VERIFY_TOL
            assert oracle <= c * got

    @pytest.mark.parametrize("dim, u, v", [
        (2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 0, 2), (3, 1, 0), (3, 1, 2),
        (3, 2, 0), (3, 2, 1)])
    def test_perturbed_off_diagonal_unit_is_caught(self, dim, u, v, rng):
        source = make_algebra([(dim, 1)])
        d = weak_tensor_dilation(random_unital_cp_map(rng, source, source))
        assert d.certificate.homomorphism <= VERIFY_TOL
        cert = verify_dilation(perturbed(d, u * dim + v, 1e-6, rng))
        assert cert.homomorphism > VERIFY_TOL

    def test_cross_block_product_is_caught(self, worked_map):
        # j(1_2) += ε·j(1_1) on ℂ⊕ℂ makes j(1_1)·j(1_2) = ε·j(1_1)
        d = weak_tensor_dilation(worked_map)
        assert d.certificate.homomorphism <= VERIFY_TOL
        j_ops = d.j_ops.copy()
        j_ops[1] += 1e-6 * j_ops[0]
        cert = verify_dilation(dataclasses.replace(d, j_ops=j_ops))
        assert cert.homomorphism > VERIFY_TOL
        assert cert.homomorphism >= 1e-6 * frob(d.j_ops[0]) * (1 - 1e-6)

    def test_overlapping_block_units_are_caught(self, worked_map, rng):
        # j(1_2) → U·j(1_2)·U* for a unitary U within 1e-6 of 1 keeps every
        # relation of one block exact, and only R3 sees the overlap
        d = weak_tensor_dilation(worked_map)
        n = d.j_ops.shape[-1]
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam, vec = np.linalg.eigh(h + h.conj().T)
        u = (vec * np.exp(1e-6j * lam / np.max(np.abs(lam)))) @ vec.conj().T
        j_ops = d.j_ops.copy()
        j_ops[1] = u @ j_ops[1] @ u.conj().T
        cert = verify_dilation(dataclasses.replace(d, j_ops=j_ops))
        assert cert.homomorphism > VERIFY_TOL

    def test_vanishing_units_off_the_corner_are_caught(self, rng):
        # j(E_00) = P and j(E_uv) = 0 otherwise satisfies R1 and the star
        # identity, and only R2 sees j(E_01)·j(E_10) = 0 ≠ P
        source = make_algebra([(2, 1)])
        d = weak_tensor_dilation(random_unital_cp_map(rng, source, source))
        j_ops = d.j_ops.copy()
        j_ops[1:] = 0.0
        cert = verify_dilation(dataclasses.replace(d, j_ops=j_ops))
        assert cert.star <= VERIFY_TOL
        assert cert.homomorphism > VERIFY_TOL


class TestStarCertificate:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16),
           st.sampled_from([None, -9, -6, -2]))
    def test_bit_identical_to_the_dense_comparison(self, seed, index,
                                                   log_size):
        # the per-row comparison forms the same elementwise differences as
        # j_ops[perm] − j_ops* over the whole stack
        rng = np.random.default_rng(seed)
        source = random_standard_algebra(rng, 5)
        d = weak_tensor_dilation(
            random_unital_cp_map(rng, source, random_standard_algebra(rng, 5)))
        if log_size is not None:
            d = perturbed(d, index % source.coord_dim, 10.0 ** log_size, rng)
        j_ops = d.j_ops
        dense = j_ops[adjoint_permutation(source)] \
            - np.conj(np.swapaxes(j_ops, -1, -2))
        assert verify_dilation(d).star == float(np.max(frob_each(dense)))


class TestNonunitalRecovery:
    def test_half_worked_map(self, worked_map):
        half = make_cpmap(worked_map.source, worked_map.target,
                          0.5 * worked_map.action)
        d, absxi = nonunital_recovery(half)
        expected = (1.0 / np.sqrt(2.0)) * identity(worked_map.target)
        assert (absxi - expected).norm() <= 1e-12
        assert d.certificate.max_residual <= 1e-10

    def test_projection_compressed_map(self, worked_map):
        # S~(a) = p S(a) p for the first coordinate projection
        b_alg = worked_map.target
        p = element(b_alg, [np.array([[1.0]]), np.array([[0.0]])])
        cols = [coordinates(p @ apply(worked_map, a) @ p)
                for a in coordinate_basis(worked_map.source)]
        compressed = make_cpmap(worked_map.source, b_alg,
                                np.stack(cols, axis=1))
        d, absxi = nonunital_recovery(compressed)
        # p0 = support of S~(1) is the compressing projection
        p0 = d.system.projections[0]
        assert (p0 - p).norm() <= 1e-10
        assert d.certificate.max_residual <= 1e-10

    def test_unital_input_reduces(self, worked_map):
        d, absxi = nonunital_recovery(worked_map)
        assert (absxi - identity(worked_map.target)).norm() <= 1e-12
        assert d.certificate.max_residual <= 1e-10

    def test_random_nonunital(self, rng):
        for _ in range(5):
            a_alg = random_standard_algebra(rng, 4)
            b_alg = random_standard_algebra(rng, 4)
            s = random_unital_cp_map(rng, a_alg, b_alg)
            scaled = make_cpmap(a_alg, b_alg, 0.7 * s.action)
            d, absxi = nonunital_recovery(scaled)
            assert d.certificate.max_residual <= 1e-9
            # sandwiched identity: S(a) = |xi| (id ⊗ psi)(j(a)) |xi|
            sand = represent(absxi)
            for a in coordinate_basis(a_alg):
                got = sand @ d.expectation_ambient(d.j(a)) @ sand
                assert np.linalg.norm(got - represent(apply(scaled, a))) <= 1e-9
