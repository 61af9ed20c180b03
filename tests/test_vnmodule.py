import contextlib
import functools
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpdilate import algebra, cli, cpmap, numerics, vnmodule
from cpdilate.algebra import (commutant, coordinate_basis, coordinates,
                              element, identity, make_algebra, represent)
from cpdilate.cpmap import apply, identity_map, make_cpmap
from cpdilate.dilation import nonunital_recovery, weak_tensor_dilation
from cpdilate.duality import dual_map
from cpdilate.errors import (BadSeed, DimensionCap, IncompleteQONS, NotCP,
                             NotInTargetAlgebra)
from cpdilate.numerics import DEFAULT_TOL, hermitian_eig, matrix_rank
from cpdilate.sampling import (random_covariant_context,
                               random_standard_algebra, random_unital_cp_map)
from cpdilate.vnmodule import (embed_qons, gns, inner_product,
                               module_element, polar_decompose_module, qons)

from conftest import (dense_certificate, dense_rho_ops, dense_rho_prime_ops,
                      gram_schmidt_module_basis, intertwiner_space,
                      structure_constants)


@pytest.fixture
def worked_gns(worked_map):
    return gns(worked_map)


def trace_map_on_m2():
    """S(a) = tr(a)/2 from M2 to the scalars."""
    m2 = make_algebra([(2, 1)])
    c1 = make_algebra([(1, 1)])
    cols = [np.array([np.trace(a.block_matrices[0]) / 2.0])
            for a in coordinate_basis(m2)]
    return make_cpmap(m2, c1, np.stack(cols, axis=1))


class TestGns:
    def test_identity_map_recovers_algebra(self):
        alg = make_algebra([(1, 1), (1, 1)])
        data = gns(identity_map(alg))
        assert data.h_dim == 2
        assert data.module_basis.shape[0] == 2

    def test_worked_map_gram_rank(self, worked_gns):
        # oracle: the Gram of {p_i ⊗ e_j} is one-half the identity on C^4
        assert worked_gns.h_dim == 4
        assert_allclose(worked_gns.gram_eigenvalues, 0.5 * np.ones(4), atol=1e-14)

    def test_trace_map_gram_rank(self):
        # oracle: the Gram is the Hilbert-Schmidt form on M2, rank 4
        data = gns(trace_map_on_m2())
        assert data.h_dim == 4
        assert_allclose(np.sort(data.gram_eigenvalues), 0.5 * np.ones(4),
                        atol=1e-14)

    def test_stinespring_identity(self, worked_gns, worked_map):
        for a in coordinate_basis(worked_map.source):
            lhs = worked_gns.xi.conj().T @ worked_gns.rho(a) @ worked_gns.xi
            assert_allclose(lhs, represent(apply(worked_map, a)), atol=1e-13)

    def test_representations_commute(self, rng):
        a_alg = random_standard_algebra(rng, 5)
        b_alg = random_standard_algebra(rng, 5)
        s = random_unital_cp_map(rng, a_alg, b_alg)
        data = gns(s)
        for ra in dense_rho_ops(data):
            for rc in dense_rho_prime_ops(data):
                assert np.linalg.norm(ra @ rc - rc @ ra) <= 1e-11

    def test_rho_is_homomorphism(self, rng):
        a_alg = make_algebra([(2, 1)])
        b_alg = make_algebra([(2, 1)])
        s = random_unital_cp_map(rng, a_alg, b_alg)
        data = gns(s)
        basis = coordinate_basis(a_alg)
        for x in basis:
            for y in basis:
                lhs = data.rho(x) @ data.rho(y)
                rhs = data.rho(x @ y)
                assert np.linalg.norm(lhs - rhs) <= 1e-11
            assert np.linalg.norm(data.rho(x).conj().T
                                  - data.rho(x.adjoint())) <= 1e-11

    def test_minimality_span(self, worked_gns):
        # span{rho(a) xi g} must be all of H
        cols = []
        for a in coordinate_basis(worked_gns.source):
            cols.append(worked_gns.rho(a) @ worked_gns.xi)
        stacked = np.hstack(cols)
        assert matrix_rank(stacked) == worked_gns.h_dim

    def test_map_vanishing_on_a_summand(self):
        # oracle: S(x ⊕ y) = x from M2 ⊕ ℂ onto M2 is a unital
        # *-homomorphism; the Choi block of ℂ is zero, so ℂ adds nothing
        # to H = ℂ²⊗ℂ¹, and the module is all of B(ℂ², H)
        source = make_algebra([(2, 1), (1, 1)])
        s = make_cpmap(source, make_algebra([(2, 1)]),
                       np.hstack([np.eye(4), np.zeros((4, 1))]))
        data = gns(s)
        assert data.h_dim == 2
        assert data.module_basis.shape[0] == 4
        assert_allclose(data.gram_eigenvalues[:2], [2.0, 2.0], atol=1e-14)
        assert_allclose(data.gram_eigenvalues[2:], 0.0, atol=1e-14)
        for a in coordinate_basis(source):
            assert_allclose(data.xi.conj().T @ data.rho(a) @ data.xi,
                            represent(apply(s, a)), atol=1e-13)
        # the empty block of H adds nothing to the batched products
        rho, rho_prime = dense_rho_ops(data), dense_rho_prime_ops(data)
        assert_allclose(data.rho_basis_action(data.xi), rho @ data.xi,
                        atol=1e-15)
        assert_allclose(data.rho_prime_compression(data.xi),
                        data.xi.conj().T @ rho_prime @ data.xi, atol=1e-15)
        assert_allclose(data.rho_basis_conjugation(data.xi.T),
                        data.xi.T @ rho @ data.xi.conj(), atol=1e-15)
        assert max(data.rho_prime_residuals()) <= 1e-14
        d = weak_tensor_dilation(s)
        assert d.k_dim == 1
        assert d.certificate.max_residual <= 1e-12

    def test_rejects_non_cp(self):
        alg = make_algebra([(2, 1)])
        cols = [coordinates(element(alg, [a.block_matrices[0].T]))
                for a in coordinate_basis(alg)]
        s = make_cpmap(alg, alg, np.stack(cols, axis=1))
        with pytest.raises(NotCP):
            gns(s)


def structure_constant_gns(s, tol=DEFAULT_TOL):
    """Gram eigenvalues, ρ, ρ' and ξ the long way: one represent(apply(...))
    per pair of basis elements for the Gram form, its eigendecomposition,
    then single einsums over the structure constants and over the stacked
    commutant basis."""
    source, target = s.source, s.target
    basis = coordinate_basis(source)
    n_a, g = len(basis), target.ambient_dim
    gram = np.zeros((n_a * g, n_a * g), dtype=complex)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            gram[i * g:(i + 1) * g, j * g:(j + 1) * g] = \
                represent(apply(s, x.adjoint() @ y))
    eig = hermitian_eig(gram, tol)
    kept = eig.values > tol * eig.scale
    lam, u = eig.values[kept], eig.vectors[:, kept]
    q = (np.sqrt(lam)[:, None] * u.conj().T).reshape(lam.size, n_a, g)
    lift = (u / np.sqrt(lam)[None, :]).reshape(n_a, g, lam.size)
    rho = np.einsum("hag,bca,cgk->bhk", q, structure_constants(source), lift,
                    optimize=True)
    comm_reps = np.stack([represent(c)
                          for c in coordinate_basis(commutant(target))])
    rho_prime = np.einsum("hag,cgf,afk->chk", q, comm_reps, lift,
                          optimize=True)
    xi = np.einsum("hag,a->hg", q, coordinates(identity(source)))
    return eig.values, rho, rho_prime, xi


def sandwiched_products(rho, rho_prime, xi):
    """ξ*·ρ(x_a)·ρ'(x_c)·ξ for every pair of basis elements (a, c); these
    do not depend on the basis chosen for H."""
    return np.einsum("hg,ahk,ckl,lf->acgf", xi.conj(), rho, rho_prime, xi,
                     optimize=True)


class TestGnsKernels:
    @pytest.mark.parametrize("source, target", [
        (make_algebra([(3, 3)]), make_algebra([(1, 3), (1, 3)])),
        (make_algebra([(2, 2), (1, 1)]), make_algebra([(2, 1), (1, 2)])),
        (commutant(make_algebra([(1, 2), (1, 2)])),
         commutant(make_algebra([(2, 2)]))),
    ], ids=["M3xI3", "M2xI2+C", "flipped"])
    def test_equal_to_structure_constant_einsums(self, source, target, rng):
        # The basis of H is free; with minimality these pin (H, ρ, ρ', ξ)
        # up to unitary equivalence.
        s = random_unital_cp_map(rng, source, target)
        data = gns(s)
        values, rho, rho_prime, xi = structure_constant_gns(s)
        assert data.h_dim == rho.shape[1]
        assert_allclose(data.gram_eigenvalues, values, rtol=0, atol=1e-12)
        assert_allclose(
            sandwiched_products(dense_rho_ops(data), dense_rho_prime_ops(data),
                                data.xi),
            sandwiched_products(rho, rho_prime, xi), rtol=0, atol=1e-12)

    def test_represent_calls_do_not_grow_with_the_source(self, rng, monkeypatch):
        calls = []
        real = vnmodule.represent

        def spy(x):
            calls.append(x.algebra)
            return real(x)

        monkeypatch.setattr(vnmodule, "represent", spy)
        target = make_algebra([(2, 1)])
        counts = []
        for blocks in ([(1, 1)], [(2, 1)], [(3, 1)]):
            calls.clear()
            gns(random_unital_cp_map(rng, make_algebra(blocks), target))
            counts.append(len(calls))
        # n_A = 1, 4, 9: the Gram form alone took n_A² calls
        assert counts[0] == counts[1] == counts[2] <= 2


class TestOneFactorization:
    """The Choi eigendecompositions of ``make_cpmap`` are the only ones: the
    GNS construction and the Kraus form read them and decompose nothing."""

    @staticmethod
    def spy_on_eig(monkeypatch, calls):
        real = numerics.hermitian_eig

        def spy(m, tol=DEFAULT_TOL):
            calls.append(np.shape(m))
            return real(m, tol)

        for module in (numerics, cpmap, vnmodule):
            monkeypatch.setattr(module, "hermitian_eig", spy)

    def test_make_cpmap_decomposes_each_choi_block_once(self, rng, monkeypatch):
        calls = []
        self.spy_on_eig(monkeypatch, calls)
        source = make_algebra([(2, 1), (1, 2), (3, 1)])
        target = make_algebra([(2, 2), (1, 1)])
        action = random_unital_cp_map(rng, source, target).action
        calls.clear()  # the sampler builds and checks maps of its own
        make_cpmap(source, target, action)
        g = target.ambient_dim
        assert calls == [(2 * g, 2 * g), (g, g), (3 * g, 3 * g)]

    def test_gns_and_kraus_decompose_nothing(self, rng, monkeypatch):
        s = random_unital_cp_map(rng, make_algebra([(2, 1), (1, 1)]),
                                 make_algebra([(1, 2), (2, 1)]))
        z = random_unital_cp_map(rng, make_algebra([(3, 1)]),
                                 make_algebra([(2, 1)]))
        calls = []
        self.spy_on_eig(monkeypatch, calls)
        gns(s)
        cpmap.kraus_decomposition(z)
        assert calls == []

    def test_dimension_cap_is_raised_before_any_represent(self, rng,
                                                          monkeypatch):
        s = random_unital_cp_map(rng, make_algebra([(2, 1), (1, 1)]),
                                 make_algebra([(2, 2)]))
        h_dim = gns(s).h_dim
        calls = []

        def spy(x):
            calls.append(x.algebra)
            return algebra.represent(x)

        for module in (cpmap, vnmodule):
            monkeypatch.setattr(module, "represent", spy)
        with pytest.raises(DimensionCap):
            gns(s, h_cap=h_dim - 1)
        assert calls == []
        assert gns(s, h_cap=h_dim).h_dim == h_dim


class TestInnerProduct:
    def test_gns_reproduces_map(self, worked_gns, worked_map):
        for a in coordinate_basis(worked_map.source):
            got = inner_product(worked_gns, worked_gns.xi,
                                worked_gns.rho(a) @ worked_gns.xi)
            assert (got - apply(worked_map, a)).norm() <= 1e-12

    def test_worked_formula(self, worked_gns, worked_map, rng):
        # oracle: <x,y> = p1 S(x1* y1) + p2 S(x2* y2) for x = x1⊗p1 + x2⊗p2
        a_alg = worked_map.source
        b_alg = worked_map.target
        p1 = element(b_alg, [np.array([[1.0]]), np.array([[0.0]])])
        p2 = element(b_alg, [np.array([[0.0]]), np.array([[1.0]])])
        for _ in range(5):
            c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            x1 = element(a_alg, [np.array([[c[0]]]), np.array([[c[1]]])])
            x2 = element(a_alg, [np.array([[c[2]]]), np.array([[c[3]]])])
            y1 = element(a_alg, [np.array([[c[4]]]), np.array([[c[5]]])])
            y2 = element(a_alg, [np.array([[c[6]]]), np.array([[c[7]]])])
            x = module_element(worked_gns, x1, p1) + module_element(worked_gns, x2, p2)
            y = module_element(worked_gns, y1, p1) + module_element(worked_gns, y2, p2)
            got = inner_product(worked_gns, x, y)
            expected = p1 @ apply(worked_map, x1.adjoint() @ y1) \
                + p2 @ apply(worked_map, x2.adjoint() @ y2)
            assert (got - expected).norm() <= 1e-12

    def test_positivity(self, worked_gns, rng):
        # oracle: eigenvalues of <x,x> are nonnegative
        for _ in range(5):
            coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = np.tensordot(coeff, worked_gns.module_basis, axes=1)
            t = inner_product(worked_gns, x, x)
            for blk in t.block_matrices:
                assert np.linalg.eigvalsh(blk).min() >= -1e-12

    def test_non_module_element_rejected(self, worked_gns, rng):
        x = rng.standard_normal((worked_gns.h_dim, 2)) \
            + 1j * rng.standard_normal((worked_gns.h_dim, 2))
        with pytest.raises(NotInTargetAlgebra):
            inner_product(worked_gns, x, x)


class TestIntertwinerSpace:
    def test_amplification_case(self, rng):
        # rho' = b' ⊗ I_K on G⊗K: the intertwiners are B ⊗ K
        b_alg = make_algebra([(1, 1), (1, 1)])
        comm = commutant(b_alg)
        k_dim = 3
        left = np.stack([np.kron(represent(c), np.eye(k_dim))
                         for c in coordinate_basis(comm)])
        right = np.stack([represent(c) for c in coordinate_basis(comm)])
        space = intertwiner_space(left, right)
        assert space.shape[0] == b_alg.coord_dim * k_dim

    def test_worked_example_dimension(self, worked_gns):
        comm = commutant(worked_gns.target)
        right = np.stack([represent(c) for c in coordinate_basis(comm)])
        space = intertwiner_space(dense_rho_prime_ops(worked_gns), right)
        assert space.shape[0] == 4
        assert space.shape[0] == worked_gns.module_basis.shape[0]

    def test_source_side_commutant_module(self, worked_gns):
        # the commutant module E' = C_A(B(F,H)) has dimension 4 as well
        a_comm = commutant(worked_gns.source)
        right = np.stack([represent(c) for c in coordinate_basis(a_comm)])
        # intertwiners for rho: rho(a) x' = x' a over a basis of A; the
        # defining relation uses A itself, so feed the A-representation
        a_right = np.stack([represent(a) for a in coordinate_basis(worked_gns.source)])
        space = intertwiner_space(dense_rho_ops(worked_gns), a_right)
        assert space.shape[0] == 4

    def test_members_intertwine(self, worked_gns):
        comm = commutant(worked_gns.target)
        right = np.stack([represent(c) for c in coordinate_basis(comm)])
        rho_prime = dense_rho_prime_ops(worked_gns)
        space = intertwiner_space(rho_prime, right)
        for x in space:
            for op, rm in zip(rho_prime, right):
                assert np.linalg.norm(op @ x - x @ rm) <= 1e-10


class TestPolar:
    def test_unit_vector(self, worked_gns):
        x0, absx, p = polar_decompose_module(worked_gns, worked_gns.xi)
        assert (absx - identity(worked_gns.target)).norm() <= 1e-12
        assert (p - identity(worked_gns.target)).norm() <= 1e-12
        assert np.linalg.norm(x0 - worked_gns.xi) <= 1e-12

    def test_scaled_partial_element(self, worked_gns, worked_map):
        # x = e·b for a partial isometry e and positive invertible b on its
        # support recovers |x| = b and x0 = e
        b_alg = worked_map.target
        p1 = element(b_alg, [np.array([[1.0]]), np.array([[0.0]])])
        sgn = element(worked_map.source, [np.array([[1.0]]), np.array([[-1.0]])])
        e = module_element(worked_gns, sgn, p1)
        b = element(b_alg, [np.array([[1.7]]), np.array([[0.0]])])
        x = e @ represent(b)
        x0, absx, p = polar_decompose_module(worked_gns, x)
        assert (absx - b).norm() <= 1e-12
        assert (p - p1).norm() <= 1e-12
        assert np.linalg.norm(x0 - e) <= 1e-12

    def test_reconstruction_random(self, worked_gns, rng):
        for _ in range(5):
            coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = np.tensordot(coeff, worked_gns.module_basis, axes=1)
            x0, absx, p = polar_decompose_module(worked_gns, x)
            assert np.linalg.norm(x - x0 @ represent(absx)) <= 1e-9
            got_p = inner_product(worked_gns, x0, x0)
            assert (got_p - p).norm() <= 1e-9


def worked_seed(data, worked_map):
    a_alg, b_alg = worked_map.source, worked_map.target
    one_a, one_b = identity(a_alg), identity(b_alg)
    sgn = element(a_alg, [np.array([[1.0]]), np.array([[-1.0]])])
    p1 = element(b_alg, [np.array([[1.0]]), np.array([[0.0]])])
    p2 = element(b_alg, [np.array([[0.0]]), np.array([[1.0]])])
    return [module_element(data, one_a, one_b),
            module_element(data, sgn, p1),
            module_element(data, sgn, p2)]


class TestQons:
    def test_identity_map_single_element(self):
        alg = make_algebra([(1, 1), (1, 1)])
        data = gns(identity_map(alg))
        system = qons(data)
        assert len(system) == 1
        assert (system.projections[0] - identity(alg)).norm() <= 1e-12

    def test_worked_seeded(self, worked_gns, worked_map):
        # the displayed complete quasi-orthonormal family verifies exactly
        system = qons(worked_gns, worked_seed(worked_gns, worked_map))
        assert len(system) == 3
        assert system.relation_residual <= 1e-12
        assert system.completeness_residual <= 1e-12
        expected = [np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for p, exp in zip(system.projections, expected):
            got = np.array([p.block_matrices[0][0, 0], p.block_matrices[1][0, 0]])
            assert_allclose(got.real, exp, atol=1e-12)
            assert_allclose(got.imag, 0.0, atol=1e-12)

    def test_worked_unseeded_complete(self, worked_gns):
        # oracle: completeness sum and rank bookkeeping on H of dim 4
        system = qons(worked_gns)
        assert system.relation_residual <= 1e-9
        assert system.completeness_residual <= 1e-9
        assert (system.projections[0] - identity(worked_gns.target)).norm() <= 1e-10
        total_rank = sum(int(round(np.real(np.trace(represent(p)))))
                         for p in system.projections)
        assert total_rank == worked_gns.h_dim

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.one_of(st.none(), st.integers(0, 4)))
    def test_relation_residual_is_the_pairwise_maximum(self, seed, kept):
        # unseeded, or seeded by the caller with the first ``kept``
        # elements of the unseeded system (none for 0), on multi-block
        # algebras with multiplicities
        rng = np.random.default_rng(seed)
        s = random_unital_cp_map(rng, random_standard_algebra(rng, 6),
                                 random_standard_algebra(rng, 6))
        data = gns(s)
        system = qons(data)
        if kept is not None:
            system = qons(data, system.elements[:kept])
        worst = 0.0
        for i, ei in enumerate(system.elements):
            for j, ej in enumerate(system.elements):
                expect = represent(system.projections[i]) if i == j else 0.0
                worst = max(worst, np.linalg.norm(ei.conj().T @ ej - expect))
        assert abs(system.relation_residual - worst) <= 1e-12

    def test_bad_seed_rejected(self, worked_gns):
        with pytest.raises(BadSeed):
            qons(worked_gns, [1.7 * worked_gns.xi])

    def test_seed_orthogonality_enforced(self, worked_gns):
        with pytest.raises(BadSeed):
            qons(worked_gns, [worked_gns.xi, worked_gns.xi])

    @pytest.mark.parametrize("change", ["nan", "inf", "extra row",
                                        "missing column"])
    def test_malformed_seed_rejected_before_any_product(self, worked_gns,
                                                        change, monkeypatch):
        # a NaN passes every residual check (NaN > limit is False), and a
        # wrong shape fails inside a product; both are refused up front
        xi = worked_gns.xi
        bad = {"nan": np.where(np.eye(*xi.shape, dtype=bool), np.nan, xi),
               "inf": np.where(np.eye(*xi.shape, dtype=bool), np.inf, xi),
               "extra row": np.vstack([xi, np.zeros((1, xi.shape[1]))]),
               "missing column": xi[:, 1:]}[change]

        def no_product(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(vnmodule, "inner_product", no_product)
        with pytest.raises(BadSeed, match="finite"):
            qons(worked_gns, [bad])


class TestEmbedding:
    def test_identity_map(self):
        alg = make_algebra([(1, 1), (1, 1)])
        data = gns(identity_map(alg))
        emb = embed_qons(data, qons(data))
        assert emb.k_dim == 1
        assert_allclose(emb.u @ emb.u.conj().T, np.eye(2), atol=1e-12)

    def test_worked_p_i(self, worked_gns, worked_map):
        emb = embed_qons(worked_gns, qons(worked_gns, worked_seed(worked_gns, worked_map)))
        assert emb.k_dim == 3
        assert_allclose(emb.u @ emb.u.conj().T,
                        np.diag([1, 1, 1, 0, 0, 1]).astype(complex), atol=1e-12)

    def test_unitarity_random(self, rng):
        for _ in range(5):
            a_alg = random_standard_algebra(rng, 4)
            b_alg = random_standard_algebra(rng, 4)
            s = random_unital_cp_map(rng, a_alg, b_alg)
            data = gns(s)
            system = qons(data)
            u = embed_qons(data, system).u
            assert np.linalg.norm(u.conj().T @ u - np.eye(data.h_dim)) <= 1e-10
            # u·u* is the diagonal projection Σ_i p_i ⊗ |k_i⟩⟨k_i|
            p_i = np.zeros_like(u @ u.conj().T)
            g = b_alg.ambient_dim
            for k, p in enumerate(system.projections):
                p_i[k * g:(k + 1) * g, k * g:(k + 1) * g] = represent(p)
            assert np.linalg.norm(u @ u.conj().T - p_i) <= 1e-10

    def test_coefficients_land_in_corners(self, worked_gns, worked_map):
        system = qons(worked_gns, worked_seed(worked_gns, worked_map))
        u = embed_qons(worked_gns, system).u
        a = element(worked_map.source, [np.array([[0.3]]), np.array([[-1.1]])])
        j_a = (u @ worked_gns.rho(a) @ u.conj().T).reshape(3, 2, 3, 2)
        for j in range(3):
            for i in range(3):
                # the matrix coefficient ⟨e_j, a·e_i⟩ ∈ p_j B p_i, which is
                # the K-block (j, i) of u·ρ(a)·u*
                c = inner_product(worked_gns, system.elements[j],
                                  worked_gns.rho(a) @ system.elements[i])
                assert_allclose(j_a[j, :, i], represent(c), atol=1e-12)
                pj = system.projections[j]
                pi = system.projections[i]
                sandwiched = pj @ c @ pi
                assert (sandwiched - c).norm() <= 1e-11


def isotypic_multiplicities(data):
    """(μ_i, d_i) per block of B': μ_i = tr ρ'(1_i)/m_i for the block M_{m_i}
    of multiplicity d_i in G."""
    comm = commutant(data.target)
    rho_prime = dense_rho_prime_ops(data)
    out = []
    for off, (m, d) in zip(comm.coord_offsets(), comm.blocks):
        trace = sum(np.trace(rho_prime[off + u * m + u]).real
                    for u in range(m))
        out.append((int(round(trace / m)), d))
    return out


def minimal_k(data):
    return max(-(-mu // d) for mu, d in isotypic_multiplicities(data))


def intertwining_residual(data, elements):
    comm = [represent(c) for c in coordinate_basis(commutant(data.target))]
    return max(np.linalg.norm(op @ e - e @ c)
               for e in elements
               for op, c in zip(dense_rho_prime_ops(data), comm))


class TestIsotypicQons:
    """The closed-form completion: minimal K, intertwining elements, one
    path for every seed, no module basis."""

    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_unseeded_system_is_minimal_and_certified(self, seed):
        rng = np.random.default_rng(seed)
        s = random_unital_cp_map(rng, random_standard_algebra(rng, 6),
                                 random_standard_algebra(rng, 6))
        data = gns(s)
        system = qons(data)
        assert len(system) == minimal_k(data)
        assert intertwining_residual(data, system.elements) <= 1e-12
        assert system.relation_residual <= 1e-12
        # ξ*ξ = S(1): the sampler's unitality error, near 1e-12 when S(1)
        # was badly conditioned before normalization, enters Σ e·e* = 1
        # and p_I through ξ itself
        unit_error = np.linalg.norm(represent(
            apply(s, identity(s.source)) - identity(s.target)))
        assert system.completeness_residual <= 1e-12 + 4 * unit_error
        d = weak_tensor_dilation(s, data=data)
        assert d.k_dim == len(system)
        assert d.certificate.max_residual <= 1e-12 + 4 * unit_error

    @staticmethod
    def spy_on_completion(monkeypatch, calls):
        real = vnmodule._isotypic_completion

        def spy(data, elements, projections):
            calls.append(len(elements))
            return real(data, elements, projections)

        monkeypatch.setattr(vnmodule, "_isotypic_completion", spy)

    def test_nonunital_seed_completes_the_same_way(self, rng, monkeypatch):
        # S(a) = P·T(a)·P for a unital T on M2 and a rank-one projection P
        # that is not diagonal: p₀ = supp S(1) = P is a partial projection
        alg = make_algebra([(2, 1)])
        t_map = random_unital_cp_map(rng, alg, alg)
        v = np.array([0.6, 0.8j])
        proj = element(alg, [np.outer(v, v.conj())])
        cols = [coordinates(proj @ apply(t_map, a) @ proj)
                for a in coordinate_basis(alg)]
        s = make_cpmap(alg, alg, np.stack(cols, axis=1))
        calls = []
        self.spy_on_completion(monkeypatch, calls)
        d, _ = nonunital_recovery(s)
        assert calls == [1]
        # the system's elements e_k are the adjoints of the K-blocks of V,
        # so p₀ = e₀*·e₀ is the first diagonal block of V·V*
        elements = d.isometry.reshape(d.k_dim, 2, -1).conj().transpose(0, 2, 1)
        assert np.linalg.norm(elements[0].conj().T @ elements[0]
                              - represent(proj)) <= 1e-12
        (mu, dim), = isotypic_multiplicities(d.gns_data)
        assert d.k_dim == 1 + -(-(mu - 1) // dim)
        assert intertwining_residual(d.gns_data, elements) <= 1e-12
        assert d.certificate.max_residual <= 1e-12

    def test_partial_caller_seed_completes_the_same_way(self, worked_gns,
                                                        worked_map, monkeypatch):
        # with e₀ = ξ and e₁ = sgn⊗p₁ given, the only missing element is
        # e₂ = sgn⊗p₂ up to a phase
        e0, e1, e2 = worked_seed(worked_gns, worked_map)
        calls = []
        self.spy_on_completion(monkeypatch, calls)
        system = qons(worked_gns, [e0, e1])
        assert calls == [2]
        assert len(system) == 3
        p2 = element(worked_map.target, [np.array([[0.0]]), np.array([[1.0]])])
        assert (system.projections[2] - p2).norm() == 0.0
        new = system.elements[2]
        assert_allclose(new @ new.conj().T, e2 @ e2.conj().T, atol=1e-12)
        assert system.completeness_residual <= 1e-12

    def test_complete_seed_gets_no_new_element(self, worked_gns, worked_map):
        seed = worked_seed(worked_gns, worked_map)
        system = qons(worked_gns, seed)
        assert len(system) == 3
        for got, raw in zip(system.elements, seed):
            assert np.array_equal(got, raw)

    def test_two_calls_give_bitwise_equal_j_ops(self, rng):
        s = random_unital_cp_map(rng, make_algebra([(2, 1), (1, 1)]),
                                 make_algebra([(1, 2), (2, 1)]))
        first = weak_tensor_dilation(s)
        second = weak_tensor_dilation(s)
        assert first.j_ops.tobytes() == second.j_ops.tobytes()

    def test_needs_no_module_basis(self, rng, monkeypatch):
        calls = []
        real = vnmodule.GNSData.module_basis.func

        def counted(data):
            calls.append(data)
            return real(data)

        spy = functools.cached_property(counted)
        spy.__set_name__(vnmodule.GNSData, "module_basis")
        monkeypatch.setattr(vnmodule.GNSData, "module_basis", spy)

        s = random_unital_cp_map(rng, make_algebra([(3, 1)]),
                                 make_algebra([(1, 2), (2, 1)]))
        data = gns(s)
        system = qons(data)
        assert len(system) == minimal_k(data)
        assert system.completeness_residual <= 1e-12
        weak_tensor_dilation(s, data=data)
        dual_map(random_covariant_context(rng, 4))
        for command in ("dilate", "dual", "roundtrip"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([command, "--builtin", "--json"]) == 0
        assert calls == []

        # the first read builds the basis, later reads return it
        basis = data.module_basis
        assert data.module_basis is basis
        assert calls == [data]
        assert basis.shape[0] == data.module_dim

    @staticmethod
    def moved_completion(monkeypatch, move):
        real = vnmodule._isotypic_completion

        def moved(data, elements, projections):
            new, new_projections = real(data, elements, projections)
            new[0] = move(new[0])
            return new, new_projections

        monkeypatch.setattr(vnmodule, "_isotypic_completion", moved)

    def test_element_off_the_intertwiners_raises(self, rng, monkeypatch):
        # a completion element moved at random by 1e-6 leaves the module
        # and breaks Σ e·e* = 1, which qons checks on V*V
        s = random_unital_cp_map(rng, make_algebra([(2, 1)]),
                                 make_algebra([(1, 2)]))
        data = gns(s)
        self.moved_completion(
            monkeypatch, lambda e: e + 1e-6 * rng.standard_normal(e.shape))
        with pytest.raises(IncompleteQONS):
            qons(data)

    def test_completion_off_the_intertwiners_fails_membership(self, rng,
                                                              monkeypatch):
        # e·u for the swap u ∈ B' = M2 keeps Σ e·e* = 1 and e*·e = p, so
        # qons accepts it, but ρ'(c)·e·u − e·u·c = e·(c·u − u·c) ≠ 0: the
        # dilation's membership, the only check of the completion, and the
        # dense oracle both flag it
        s = random_unital_cp_map(rng, make_algebra([(2, 1)]),
                                 make_algebra([(1, 2)]))
        data = gns(s)
        swap = represent(element(commutant(s.target),
                                 [np.array([[0.0, 1.0], [1.0, 0.0]])]))
        self.moved_completion(monkeypatch, lambda e: e @ swap)
        system = qons(data)
        assert system.completeness_residual <= 1e-12
        assert system.relation_residual <= 1e-12
        assert intertwining_residual(data, system.elements[1:2]) >= 1e-3
        d = weak_tensor_dilation(s, data=data)
        assert d.certificate.membership >= 1e-3
        assert dense_certificate(d)["membership"] >= 1e-3

    def test_seed_off_the_intertwiners_is_rejected(self, rng):
        # ξ·u for a unitary u ∈ B' = M2 that is not central: ⟨ξu, ξu⟩ = 1 is
        # a projection in B, but ξu is no module element
        s = random_unital_cp_map(rng, make_algebra([(2, 1)]),
                                 make_algebra([(1, 2)]))
        data = gns(s)
        swap = represent(element(commutant(s.target),
                                 [np.array([[0.0, 1.0], [1.0, 0.0]])]))
        with pytest.raises(BadSeed, match="does not intertwine"):
            qons(data, [data.xi @ swap])


    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_seed_check_equals_the_dense_oracle(self, seed):
        # membership_residual on V = [e₀*; e₁*; …] with σ = ρ' is the
        # largest ‖ρ'(c)·e − e·c‖ of the dense oracle: rounding on a
        # system's elements, and large on ξ·u for a unitary u ∈ B' that
        # is not central
        rng = np.random.default_rng(seed)
        s = random_unital_cp_map(rng, random_standard_algebra(rng, 6),
                                 random_standard_algebra(rng, 6))
        data = gns(s)
        comm = commutant(s.target)
        unitary = represent(element(comm, [
            np.linalg.qr(rng.standard_normal((m, m))
                         + 1j * rng.standard_normal((m, m)))[0]
            for m, _ in comm.blocks]))

        def residual(elements):
            v = np.vstack([e.conj().T for e in elements])
            return vnmodule.membership_residual(s.target, v,
                                                data.rho_prime_basis_action)

        elements = qons(data).elements
        assert residual(elements) <= 1e-12
        assert intertwining_residual(data, elements) <= 1e-12
        moved = data.xi @ unitary
        assert abs(residual([moved])
                   - intertwining_residual(data, [moved])) <= 1e-12
        if max(m for m, _ in comm.blocks) >= 2:
            assert residual([moved]) >= 1e-3
            with pytest.raises(BadSeed, match="does not intertwine"):
                qons(data, [moved])


class TestClosedFormModule:
    """``module_dim`` = Σ d·μ from the ρ' traces, and the lazy closed-form
    basis, against the Gram–Schmidt oracle of the module span."""

    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_basis_matches_the_gram_schmidt_span(self, seed):
        rng = np.random.default_rng(seed)
        s = random_unital_cp_map(rng, random_standard_algebra(rng, 6),
                                 random_standard_algebra(rng, 6))
        data = gns(s)
        basis = data.module_basis
        oracle = gram_schmidt_module_basis(s)
        assert basis.shape[0] == data.module_dim == oracle.shape[0]
        flat = basis.reshape(len(basis), -1)
        assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(flat)))) <= 1e-12
        assert intertwining_residual(data, basis) <= 1e-12
        # the oracle orthogonalizes un-normalized ops·b, so its span carries
        # the rounding of the smallest kept Choi eigenvalue
        span = flat.T @ flat.conj()
        oracle_flat = oracle.reshape(len(oracle), -1)
        assert np.max(np.abs(span - oracle_flat.T @ oracle_flat.conj())) <= 1e-9

    def test_non_integer_multiplicity_raises(self, rng):
        # ℂ → M₃: B' = ℂ with μ = 3, so ρ'(1) = τ(1) scaled by 1.5 has
        # trace 4.5
        s = random_unital_cp_map(rng, make_algebra([(1, 1)]),
                                 make_algebra([(3, 1)]))
        data = gns(s)
        comm = commutant(s.target)
        assert vnmodule._intertwiner_dimension(
            comm, data.h_alg, data.tau, DEFAULT_TOL) == data.module_dim == 9
        scaled = [t.copy() for t in data.tau]
        scaled[0][0] *= 1.5
        with pytest.raises(ArithmeticError,
                           match="non-integer isotypic multiplicity 4.5"):
            vnmodule._intertwiner_dimension(comm, data.h_alg, scaled,
                                            DEFAULT_TOL)

    def test_zero_map_has_no_module(self):
        alg = make_algebra([(2, 1)])
        with pytest.raises(ArithmeticError, match="empty module span"):
            gns(make_cpmap(alg, alg, np.zeros((4, 4))))


def factored_draw(seed, flip_target):
    """GNS data of a random unital map between random multi-block algebras
    with multiplicities; ``flip_target`` makes the target a commutant."""
    rng = np.random.default_rng(seed)
    source = random_standard_algebra(rng, 6)
    target = random_standard_algebra(rng, 6)
    if flip_target:
        target = commutant(target)
    return gns(random_unital_cp_map(rng, source, target)), rng


class TestFactoredRepresentations:
    """ρ and ρ' are stored as h_alg and the τ_i; the accessors, the batched
    products and the frames agree with the dense stacks of the oracle."""

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_rho_and_block_copies_equal_the_dense_stacks(self, seed,
                                                         flip_target):
        data, _ = factored_draw(seed, flip_target)
        for a, op in zip(coordinate_basis(data.source), dense_rho_ops(data)):
            np.testing.assert_array_equal(data.rho(a), op)
        for off, op in enumerate(dense_rho_prime_ops(data)):
            np.testing.assert_array_equal(
                vnmodule._block_diagonal(data, [t[off] for t in data.tau]), op)

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_products_equal_their_dense_forms(self, seed, flip_target):
        data, rng = factored_draw(seed, flip_target)
        rho, rho_prime = dense_rho_ops(data), dense_rho_prime_ops(data)
        h_dim = data.h_dim

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        v, x, u = draw(h_dim), draw(h_dim, 3), draw(5, h_dim)
        bound = 1e-12 * max(np.linalg.norm(v), np.linalg.norm(x),
                            np.linalg.norm(u)) ** 2
        assert np.max(np.abs(data.rho_basis_action(v) - rho @ v)) <= bound
        assert np.max(np.abs(data.rho_basis_action(x) - rho @ x)) <= bound
        conj = np.einsum("ih,ahk,jk->aij", u, rho, u.conj())
        assert np.max(np.abs(data.rho_basis_conjugation(u) - conj)) <= bound
        comp = x.conj().T @ rho_prime @ x
        assert np.max(np.abs(data.rho_prime_compression(x) - comp)) <= bound

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_first_frame_is_exactly_the_dense_svd(self, seed, flip_target):
        # Exact equality of every entry.  The kron's off-diagonal blocks hold
        # the signed zeros 0·τ where the block copy holds +0.0, and the SVD
        # passes a zero's sign on, so the bytes may differ in that sign only.
        data, _ = factored_draw(seed, flip_target)
        rho_prime = dense_rho_prime_ops(data)
        comm = commutant(data.target)
        frames = vnmodule._isotypic_frames(data)
        for off, w in zip(comm.coord_offsets(), frames):
            left, sv, _ = np.linalg.svd(rho_prime[off])
            oracle = left[:, sv > 0.5]
            np.testing.assert_array_equal(w[0], oracle)

    def test_gns_allocates_no_dense_stack(self):
        # H = 128 and n_{B'} = 256: one (n_{B'}, H, H) stack of ρ' alone
        # takes 67 MB, the two τ_i 8.4 MB
        s = random_unital_cp_map(np.random.default_rng(0),
                                 make_algebra([(2, 2), (2, 2)]),
                                 make_algebra([(1, 16)]))
        tracemalloc.start()
        try:
            data = gns(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6
        assert (data.h_dim, len(data.tau[0])) == (128, 256)
