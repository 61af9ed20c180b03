import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpdilate import algebra, dilation, vnmodule
from cpdilate.algebra import (adjoint_permutation, commutant, coordinate_basis,
                              coordinate_basis_stack, coordinates, element,
                              identity, make_algebra, represent)
from cpdilate.cpmap import apply, identity_map, make_cpmap
from cpdilate.dilation import (VERIFY_TOL, WeakTensorDilation,
                               nonunital_recovery, verify_dilation,
                               weak_tensor_dilation)
from cpdilate.duality import dilation_from_extension, extend_cp_map
from cpdilate.errors import NotUnital
from cpdilate.numerics import frob, frob_each
from cpdilate.sampling import (random_covariant_context,
                               random_standard_algebra, random_unital_cp_map)
from cpdilate.vnmodule import gns

from conftest import (dense_certificate, dense_rho_ops, dense_rho_prime_ops,
                      exhaustive_homomorphism_residual, expectation_ambient)
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
                got = expectation_ambient(d, d.j(a))
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
        # j(b) = b ⊗ |k0><k0| for S = id on M2, K of dimension 2: V embeds
        # H = ℂ² (ρ = id) as the first K-block
        alg = make_algebra([(2, 1)])
        s = identity_map(alg)
        data = gns(s)
        assert data.h_dim == 2
        v = np.zeros((4, 2), dtype=complex)
        v[:2] = np.eye(2)
        d = WeakTensorDilation(cpmap=s, k_dim=2,
                               psi_vector=np.array([1.0, 0.0]),
                               isometry=v, gns_data=data)
        proj = np.diag([1.0, 0.0])
        for a in coordinate_basis(alg):
            assert_allclose(d.j(a), np.kron(proj, a.block_matrices[0]),
                            rtol=0, atol=0)
        assert_allclose(d.p_i_matrix, np.kron(proj, np.eye(2)), rtol=0, atol=0)
        cert = verify_dilation(d)
        assert cert.max_residual <= 1e-12

    def test_perturbation_shows_up_in_membership(self, worked_map):
        # V + 1e-3·u·w* with u in the range of the first unit c0 of B' and
        # w in the range of ρ'(1 − c0): the K-block 0 of (c0⊗I_K)·V − V·ρ'(c0)
        # is then 1e-3·u·w*
        d = weak_tensor_dilation(worked_map)
        sigma = dense_rho_prime_ops(d.gns_data)
        w = off_range_vector(sigma[1])
        v = d.isometry.copy()
        v[0] += 1e-3 * w.conj()
        tampered = dataclasses.replace(d, isometry=v)
        cert = verify_dilation(tampered)
        assert abs(cert.membership - 1e-3) <= 1e-9
        assert dense_certificate(tampered)["membership"] > VERIFY_TOL

    @pytest.mark.parametrize("target", [
        make_algebra([(1, 1), (1, 1)]),
        commutant(make_algebra([(2, 2)])),
    ], ids=["diagonal", "flipped"])
    def test_off_diagonal_k_block_out_of_b_is_caught(self, target, rng):
        # K-block K−1 of V gets δ = 1e-3·u·w*, u a basis vector in the
        # range of the first diagonal unit c0 of B' and w in the range of
        # ρ'(1 − c0); the certificate then reads max_c ‖c·δ − δ·ρ'(c)‖
        s = random_unital_cp_map(rng, make_algebra([(2, 1)]), target)
        d = weak_tensor_dilation(s)
        assert d.certificate.membership <= VERIFY_TOL
        g, k = target.ambient_dim, d.k_dim
        assert k >= 2
        comm = represent(coordinate_basis_stack(commutant(target)))
        sigma = dense_rho_prime_ops(d.gns_data)
        w = off_range_vector(sigma[0], complement=True)
        delta = np.zeros((g, w.size), dtype=complex)
        delta[int(np.argmax(np.diag(comm[0]).real))] = 1e-3 * w.conj()
        expected = max(frob(c @ delta - delta @ x) for c, x in zip(comm, sigma))
        v = d.isometry.copy()
        v[(k - 1) * g:] += delta
        tampered = dataclasses.replace(d, isometry=v)
        cert = verify_dilation(tampered)
        assert expected >= 1e-3 * (1 - 1e-9)
        assert abs(cert.membership - expected) <= 1e-9
        assert dense_certificate(tampered)["membership"] > VERIFY_TOL

    def test_projection_calls_do_not_grow_with_k(self, rng, monkeypatch):
        # the dense oracle projects all n_A·K² blocks in one batched call;
        # the factored verify projects no K-block at all
        calls = []
        real = algebra.project_to_algebra

        def spy(alg, m):
            calls.append(m.shape)
            return real(alg, m)

        monkeypatch.setattr(algebra, "project_to_algebra", spy)
        dense, factored, ks = [], [], []
        for blocks in ([(1, 1), (1, 1)], [(2, 1)], [(3, 1)]):
            alg = make_algebra(blocks)
            d = weak_tensor_dilation(random_unital_cp_map(rng, alg, alg))
            calls.clear()
            verify_dilation(d)
            factored.append(len(calls))
            dense_certificate(d)
            dense.append(len(calls) - factored[-1])
            ks.append(d.k_dim)
        assert len(set(ks)) == 3
        assert dense == [1, 1, 1]
        assert factored == [0, 0, 0]
        assert not hasattr(dilation, "project_to_algebra")

    def test_certificate_reports_only(self, worked_map):
        d = weak_tensor_dilation(worked_map)
        cert = verify_dilation(d)
        # the certificate only reports residuals: the verdict is the
        # caller's comparison with a tolerance, and nothing raises
        assert cert.max_residual <= VERIFY_TOL


def off_range_vector(p, complement=False) -> np.ndarray:
    """A unit vector in the range of the projection ``p`` (of 1 − p with
    ``complement``): its column of largest norm, normalized."""
    if complement:
        p = np.eye(len(p)) - p
    col = p[:, int(np.argmax(np.linalg.norm(p, axis=0)))]
    return col / np.linalg.norm(col)


def column_blocks(d) -> list:
    """(slice, d_i) per row block of H, in the order (i, u): the columns of
    V on the range of E^i_uu ⊗ I_{r_i}, for the blocks with r_i > 0."""
    out, pos = [], 0
    for dim, r in d.gns_data.h_alg.blocks:
        for _ in range(dim if r else 0):
            out.append((slice(pos, pos + r), dim))
            pos += r
    return out


def column_block(d, index) -> slice:
    return column_blocks(d)[index][0]


def perturbed_isometry(d, index, size, rng):
    """``d`` with the column block ``index`` of V moved by a random matrix
    of Frobenius norm ``size``."""
    v = d.isometry.copy()
    cols = column_block(d, index)
    shape = v[:, cols].shape
    delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v[:, cols] += size * delta / frob(delta)
    return dataclasses.replace(d, isometry=v)


def perturbed(j_ops, index, size, rng):
    """``j_ops`` with j_ops[index] moved by a random matrix of Frobenius
    norm ``size``."""
    shape = j_ops.shape[1:]
    delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j_ops = j_ops.copy()
    j_ops[index] += size * delta / frob(delta)
    return j_ops


def operator_norm_bound(source, j_ops) -> float:
    """M of the dense relations: max(1, ‖j(x)‖_op) over the matrix units x
    and the block units j(1_i)."""
    units = [j_ops[off:off + d * d:d + 1].sum(axis=0)
             for off, (d, _) in zip(source.coord_offsets(), source.blocks)]
    stack = np.concatenate([j_ops, np.stack(units)])
    return max(1.0, float(np.max(np.linalg.norm(stack, ord=2, axis=(-2, -1)))))


def row_block_count(d) -> int:
    """N of the certificate: the number of row blocks of H."""
    return len(column_blocks(d))


class TestHomomorphismCertificate:
    """The factored relations, Gram blocks of V and π's own R1–R3, against
    the dense relations of the matrices j(x) and the exhaustive oracle
    over all pairs of basis elements.

    The exhaustive residual is at most (1 + 10·max_i d_i)·M_j⁴ times the
    dense R1–R3 (with M_j bounding the ‖j(x)‖_op), and those are at most
    M²·(N + 1)·homomorphism for π = ρ, so both flag the same draws at
    VERIFY_TOL.  Conversely, with π = ρ the oracle's pair (E_0u, E_v0)
    gives V^i_0·D_uv·(V^k_0)*, D_uv the block of V*V − I between the row
    blocks (i, u) and (k, v) and V^i_0 a column block of V, so
    homomorphism ≤ oracle / s², s the smallest singular value of a column
    block of V: the certificate does not over-report.
    """

    # the oracle's products round at about 1e-16 on these draws
    ROUNDING = 4 * np.finfo(float).eps

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16),
           st.sampled_from([None, -6, -4, -2]))
    def test_agrees_with_the_exhaustive_oracle(self, seed, index, log_size):
        rng = np.random.default_rng(seed)
        source = random_standard_algebra(rng, 5)
        s = random_unital_cp_map(rng, source, random_standard_algebra(rng, 5))
        d = weak_tensor_dilation(s)
        n_rows = row_block_count(d)
        if log_size is not None:
            d = perturbed_isometry(d, index % n_rows, 10.0 ** log_size, rng)
        got = verify_dilation(d).homomorphism
        oracle = exhaustive_homomorphism_residual(source, d.j_ops)
        assert (got > VERIFY_TOL) == (oracle > VERIFY_TOL)
        s_min = min(np.linalg.svd(d.isometry[:, cols], compute_uv=False)[-1]
                    for cols, _ in column_blocks(d))
        assert got <= oracle / s_min ** 2 + self.ROUNDING
        if log_size is None:
            assert oracle <= VERIFY_TOL
        else:
            m = max(1.0, np.linalg.norm(d.isometry, ord=2))
            c = (1 + 10 * max(dim for dim, _ in source.blocks)) \
                * operator_norm_bound(source, d.j_ops) ** 4 \
                * m ** 2 * (n_rows + 1)
            assert got > VERIFY_TOL
            assert oracle <= c * got

    @pytest.mark.parametrize("dim, u, v", [
        (2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 0, 2), (3, 1, 0), (3, 1, 2),
        (3, 2, 0), (3, 2, 1)])
    def test_perturbed_off_diagonal_unit_is_caught(self, dim, u, v, rng):
        # V_u += 1e-6·V_v makes the column blocks u and v overlap: the block
        # (v, u) of V*V − I is 1e-6·I_r, which j(E_0v)·j(E_u0) = 0 sees
        source = make_algebra([(dim, 1)])
        d = weak_tensor_dilation(random_unital_cp_map(rng, source, source))
        assert d.certificate.homomorphism <= VERIFY_TOL
        iso = d.isometry.copy()
        iso[:, column_block(d, u)] += 1e-6 * iso[:, column_block(d, v)]
        tampered = dataclasses.replace(d, isometry=iso)
        cert = verify_dilation(tampered)
        r = d.gns_data.h_alg.blocks[0][1]
        assert cert.homomorphism >= 1e-6 * np.sqrt(r) * (1 - 1e-6)
        assert dense_certificate(tampered)["homomorphism"] > VERIFY_TOL

    def test_cross_block_product_is_caught(self, worked_map):
        # V on block 2 of ℂ⊕ℂ += 1e-6·(V on block 1) makes
        # j(1_1)·j(1_2) ≈ 1e-6·j(1_1) and the cross block of V*V − I
        # 1e-6·I_r, r columns shared
        d = weak_tensor_dilation(worked_map)
        assert d.certificate.homomorphism <= VERIFY_TOL
        first, second = column_block(d, 0), column_block(d, 1)
        r = min(first.stop - first.start, second.stop - second.start)
        iso = d.isometry.copy()
        iso[:, second.start:second.start + r] += \
            1e-6 * iso[:, first.start:first.start + r]
        tampered = dataclasses.replace(d, isometry=iso)
        cert = verify_dilation(tampered)
        assert cert.homomorphism > VERIFY_TOL
        assert cert.homomorphism >= 1e-6 * np.sqrt(r) * (1 - 1e-6)
        assert dense_certificate(tampered)["homomorphism"] > VERIFY_TOL

    def test_overlapping_block_units_are_caught(self, worked_map, rng):
        # V on block 2 → U·V for a unitary U within 1e-6 of 1 keeps the
        # Gram blocks within each source block exact, and only the cross
        # blocks see the overlap
        d = weak_tensor_dilation(worked_map)
        n = d.isometry.shape[0]
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam, vec = np.linalg.eigh(h + h.conj().T)
        u = (vec * np.exp(1e-6j * lam / np.max(np.abs(lam)))) @ vec.conj().T
        iso = d.isometry.copy()
        second = column_block(d, 1)
        iso[:, second] = u @ iso[:, second]
        tampered = dataclasses.replace(d, isometry=iso)
        gram = iso.conj().T @ iso - np.eye(iso.shape[1])
        first = column_block(d, 0)
        assert frob(gram[first, first]) <= 1e-12
        assert frob(gram[second, second]) <= 1e-12
        assert verify_dilation(tampered).homomorphism > VERIFY_TOL
        assert dense_certificate(tampered)["homomorphism"] > VERIFY_TOL

    def test_vanishing_units_off_the_corner_are_caught(self, rng):
        # V = 0 on the column block 1 of M2 gives j(E_00) = P and
        # j(E_uv) = 0 otherwise: R1 and the star identity hold, and only the
        # Gram block (1, 1) of V (R2 of the dense relations) sees it
        source = make_algebra([(2, 1)])
        d = weak_tensor_dilation(random_unital_cp_map(rng, source, source))
        iso = d.isometry.copy()
        iso[:, column_block(d, 1)] = 0.0
        tampered = dataclasses.replace(d, isometry=iso)
        cert = verify_dilation(tampered)
        dense = dense_certificate(tampered)
        assert cert.star <= VERIFY_TOL and dense["star"] <= VERIFY_TOL
        assert cert.homomorphism > VERIFY_TOL
        assert dense["homomorphism"] > VERIFY_TOL


class TestStarCertificate:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16),
           st.sampled_from([None, -9, -6, -2]))
    def test_bit_identical_to_the_dense_comparison(self, seed, index,
                                                   log_size):
        # the oracle's per-row comparison forms the same elementwise
        # differences as j_ops[perm] − j_ops* over the whole stack, and the
        # factored star of π = ρ is exactly 0
        rng = np.random.default_rng(seed)
        source = random_standard_algebra(rng, 5)
        d = weak_tensor_dilation(
            random_unital_cp_map(rng, source, random_standard_algebra(rng, 5)))
        assert verify_dilation(d).star == 0.0
        j_ops = d.j_ops
        if log_size is not None:
            j_ops = perturbed(j_ops, index % source.coord_dim,
                              10.0 ** log_size, rng)
        dense = j_ops[adjoint_permutation(source)] \
            - np.conj(np.swapaxes(j_ops, -1, -2))
        assert dense_certificate(d, j_ops)["star"] \
            == float(np.max(frob_each(dense)))


def random_partial_projection(rng, alg):
    """A projection of ``alg`` that is neither 0 nor 1: on block b a
    random subspace of ℂ^{d_b} of a random rank, redrawn until the ranks
    are not all 0 or all full.  ``alg`` needs Σ_b d_b ≥ 2."""
    dims = [d for d, _ in alg.blocks]
    ranks = [0] * len(dims)
    while not 0 < sum(ranks) < sum(dims):
        ranks = [int(rng.integers(0, d + 1)) for d in dims]
    blocks = []
    for d, r in zip(dims, ranks):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q = np.linalg.qr(z)[0][:, :r]
        blocks.append(q @ q.conj().T)
    return element(alg, blocks)


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
        # p0 = support of S~(1) is the compressing projection; e₀ is the
        # adjoint of the first K-block V₀ of V, so p₀ = e₀*·e₀ = V₀·V₀*
        v0 = d.isometry[:b_alg.ambient_dim]
        assert frob(v0 @ v0.conj().T - represent(p)) <= 1e-10
        assert d.certificate.max_residual <= 1e-10

    def test_unital_input_reduces(self, worked_map):
        d, absxi = nonunital_recovery(worked_map)
        assert (absxi - identity(worked_map.target)).norm() <= 1e-12
        assert d.certificate.max_residual <= 1e-10

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_compressed_maps_against_the_oracle(self, seed):
        # S = P·T(·)·P for a unital T and a projection P ∈ B that is neither
        # 0 nor 1, so p₀ = supp S(1) = P is partial and the completion is
        # checked only by verify's membership.  Over seeds 0–499 the
        # factored certificate read at most 1.0e-14 and the dense oracle,
        # S(a) = |ξ|·(id⊗ψ)(j(a))·|ξ| included, 1.4e-14
        rng = np.random.default_rng(seed)
        source = random_standard_algebra(rng, 5)
        target = random_standard_algebra(rng, 5)
        while sum(d for d, _ in target.blocks) < 2:
            target = random_standard_algebra(rng, 5)
        t_map = random_unital_cp_map(rng, source, target)
        proj = random_partial_projection(rng, target)
        cols = [coordinates(proj @ apply(t_map, a) @ proj)
                for a in coordinate_basis(source)]
        s = make_cpmap(source, target, np.stack(cols, axis=1))
        d, absxi = nonunital_recovery(s)
        assert d.certificate.max_residual <= 1e-12
        assert max(dense_certificate(d).values()) <= 1e-12
        sand = represent(absxi)
        for a in coordinate_basis(source):
            got = sand @ expectation_ambient(d, d.j(a)) @ sand
            assert frob(got - represent(apply(s, a))) <= 1e-12

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
                got = sand @ expectation_ambient(d, d.j(a)) @ sand
                assert np.linalg.norm(got - represent(apply(scaled, a))) <= 1e-9


def draw_dilation(kind, rng):
    """A certified dilation of one of four kinds: constructive on multi-block
    algebras with multiplicities, the same into a commutant (flipped)
    target, ``nonunital_recovery`` of a scaled map, and a dilation of S'
    recovered from an extension (π = ρ′)."""
    if kind == "recovered":
        ctx = random_covariant_context(rng, 4)
        return dilation_from_extension(ctx, extend_cp_map(ctx).cpmap)
    source = random_standard_algebra(rng, 5)
    target = random_standard_algebra(rng, 5)
    if kind == "commutant":
        target = commutant(target)
    s = random_unital_cp_map(rng, source, target)
    if kind == "nonunital":
        return nonunital_recovery(make_cpmap(source, target, 0.7 * s.action))[0]
    return weak_tensor_dilation(s)


def pi_ops(d) -> np.ndarray:
    """π over the source coordinate basis as a dense (n, H, H) stack."""
    if d.lifted:
        return dense_rho_prime_ops(d.gns_data)
    return dense_rho_ops(d.gns_data)


def certificate_constants(d) -> dict:
    """The constants of ``DilationCertificate``: each dense residual is at
    most its constant times the factored one."""
    m = max(1.0, np.linalg.norm(d.isometry, ord=2))
    ops = pi_ops(d)
    source = d.cpmap.source
    units = [ops[off:off + k * k:k + 1].sum(axis=0)
             for off, (k, _) in zip(source.coord_offsets(), source.blocks)]
    t = max(1.0, float(np.max(np.linalg.norm(
        np.concatenate([ops, np.stack(units)]), ord=2, axis=(-2, -1)))))
    n = row_block_count(d)
    dims = sum(k for k, _ in commutant(d.cpmap.target).blocks)
    return {"homomorphism": m * m * (t * t * n + 1), "star": m * m,
            "membership": dims * m * t * (m + 2), "expectation": 1.0,
            "unit_projection": m * m * n}


def perturb(d, kind, rng):
    """``d`` with its factors moved by about 1e-6: V scaled, one column
    block of V rotated, or one entry of one τ_i.  None when the change
    leaves j as it is: τ moves j only where π = ρ′, and a rotation only
    where it does not commute with π.  The factored certificate may still
    flag such a V, which intertwines π but not σ: it certifies the
    factors, and j is the same."""
    if kind == "scale":
        return dataclasses.replace(d, isometry=d.isometry * (1 + 1e-6))
    if kind == "rotate":
        cols = next((cols for cols, dim in column_blocks(d) if dim >= 2), None)
        if cols is None:
            return None
        r = cols.stop - cols.start
        h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        lam, vec = np.linalg.eigh(h + h.conj().T)
        rot = (vec * np.exp(1e-6j * lam / np.max(np.abs(lam)))) @ vec.conj().T
        iso = d.isometry.copy()
        iso[:, cols] = iso[:, cols] @ rot
        rotated = dataclasses.replace(d, isometry=iso)
        moved = np.max(np.abs(rotated.j_ops - d.j_ops))
        return rotated if moved > 1e-9 else None
    data = d.gns_data
    kept = [i for i, (_, r) in enumerate(data.h_alg.blocks) if r]
    if not d.lifted or not kept:
        return None
    i = kept[int(rng.integers(len(kept)))]
    tau = [t.copy() for t in data.tau]
    n, r, _ = tau[i].shape
    tau[i][rng.integers(n), rng.integers(r), rng.integers(r)] += 1e-6 * (1 + 1j)
    return dataclasses.replace(d, gns_data=dataclasses.replace(data, tau=tuple(tau)))


class TestFactoredCertificate:
    """The factored certificate against the dense oracle of
    ``tests/conftest.py``: each dense residual is at most its stated
    constant times the factored one, plus rounding, and on factors moved by
    1e-6 both flag the instance."""

    ROUNDING = 1e-13

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["constructive", "commutant", "nonunital",
                            "recovered"]),
           st.sampled_from([None, "scale", "rotate", "tau"]))
    def test_dense_residuals_within_the_stated_bounds(self, seed, kind, change):
        rng = np.random.default_rng(seed)
        d = draw_dilation(kind, rng)
        if change is not None:
            d = perturb(d, change, rng)
            assume(d is not None)
        factored = verify_dilation(d).as_dict()
        dense = dense_certificate(d)
        for key, c in certificate_constants(d).items():
            assert dense[key] <= c * factored[key] + self.ROUNDING, key
        worst = max(dense.values())
        if change is None:
            assert factored["max_residual"] <= VERIFY_TOL
            assert worst <= VERIFY_TOL
        else:
            assert factored["max_residual"] > VERIFY_TOL
            assert worst > VERIFY_TOL

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_nonunital_identity_against_the_oracle(self, seed):
        # S(a) = |ξ|·(id⊗ψ)(j(a))·|ξ| on the dense matrices, and the
        # factored W·ρ(a)·W* agrees with the slice of the dense j(a)
        rng = np.random.default_rng(seed)
        source = random_standard_algebra(rng, 5)
        target = random_standard_algebra(rng, 5)
        s = random_unital_cp_map(rng, source, target)
        scaled = make_cpmap(source, target, 0.7 * s.action)
        d, absxi = nonunital_recovery(scaled)
        sand = represent(absxi)
        worst = max(frob(sand @ expectation_ambient(d, d.j(a)) @ sand
                         - represent(apply(scaled, a)))
                    for a in coordinate_basis(source))
        assert worst <= 1e-12
        assert abs(d.certificate.expectation
                   - dense_certificate(d)["expectation"]) <= self.ROUNDING


def test_m6_dilation_stays_under_twenty_megabytes():
    # the seed-0 M₆→M₆ draw (K = 36, H = K·G = 216) built no (n_A, K·G, K·G)
    # stack: the dense j of its 36 matrix units alone would take 27 MB
    alg = make_algebra([(6, 1)])
    s = random_unital_cp_map(np.random.default_rng(0), alg, alg)
    tracemalloc.start()
    try:
        d = weak_tensor_dilation(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.k_dim == 36
    assert d.certificate.max_residual <= VERIFY_TOL
    assert peak < 20e6


def test_commutant_target_dilation_stays_under_twenty_five_megabytes():
    # M₂⊕M₂ → ℂ·I₁₆: H = K·G = 128, K = 8 and n_{B'} = 256.  The commutant
    # applied to V at once would take 67 MB per array; gns alone peaks near
    # 17 MB with τ
    s = random_unital_cp_map(np.random.default_rng(0),
                             make_algebra([(2, 2), (2, 2)]),
                             make_algebra([(1, 16)]))
    tracemalloc.start()
    try:
        d = weak_tensor_dilation(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.k_dim, d.isometry.shape[1]) == (8, 128)
    assert d.certificate.max_residual <= VERIFY_TOL
    assert peak < 25e6


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["constructive", "commutant", "recovered"]),
       st.sampled_from([None, "rotate", "tau"]))
def test_certificate_in_one_element_chunks_is_the_same(seed, kind, change):
    # membership and ρ′'s star residual taken one basis element at a time
    rng = np.random.default_rng(seed)
    d = draw_dilation(kind, rng)
    if change is not None:
        d = perturb(d, change, rng)
        assume(d is not None)
    whole = verify_dilation(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vnmodule, "CHUNK_ENTRIES", 1)
        chunked = verify_dilation(d)
    assert chunked == whole
