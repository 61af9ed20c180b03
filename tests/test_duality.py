import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpdilate import duality
from cpdilate.algebra import (MatrixBlockAlgebra, basis_action,
                              coordinate_basis, coordinates, element, identity,
                              make_algebra, represent, state_value)
from cpdilate.cpmap import (apply, identity_map, kraus_decomposition,
                            make_cpmap)
from cpdilate.duality import (_commutant_lifting, build_context,
                              dilation_from_extension, double_dual, dual_map,
                              dual_pairing_residual, extend_cp_map,
                              extension_from_dilation, full_algebra,
                              is_minimal_dilation, state_transport_residual,
                              swap_context, xi_prime)
from cpdilate.dilation import (WeakTensorDilation, verify_dilation,
                               weak_tensor_dilation)
from cpdilate.errors import (InconsistentSystem, NotCovariant, NotCyclic,
                             NotExtension, StateMismatch)
from cpdilate.numerics import DEFAULT_TOL, frob, frob_each
from cpdilate.sampling import random_covariant_context, random_unit_vector
from cpdilate.vnmodule import gns

from conftest import (dense_is_minimal, dense_rho_ops, dense_rho_prime_ops,
                      random_covariant_channel, span_commutant_lifting)

SEEDS = range(12)


def vector_state_map(source, target, h):
    """The unital CP map x ↦ ⟨h, x h⟩·1 from ``source`` into ``target``."""
    unit = coordinates(identity(target))
    action = np.stack([state_value(h, represent(a)) * unit
                       for a in coordinate_basis(source)], axis=1)
    return make_cpmap(source, target, action)


@pytest.fixture
def worked_ctx(worked_map):
    f = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return build_context(worked_map.source, worked_map.target, worked_map, f, f)


@pytest.fixture
def g_point_ctx(worked_map):
    # covariant with f cyclic for A, but g = e_1 is not cyclic for B'
    f = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return build_context(worked_map.source, worked_map.target, worked_map,
                         f, np.array([1.0, 0.0]))


class TestBuildContext:
    def test_worked_instance_flags(self, worked_ctx):
        assert worked_ctx.covariant
        assert worked_ctx.f_cyclic_for_source
        assert worked_ctx.g_cyclic_for_target_commutant
        assert worked_ctx.covariance_residual <= 1e-15

    def test_non_cyclic_f_flagged(self, worked_map):
        f = np.array([1.0, 0.0])
        g = np.array([1.0, 1.0]) / np.sqrt(2.0)
        ctx = build_context(worked_map.source, worked_map.target, worked_map, f, g)
        assert not ctx.f_cyclic_for_source

    def test_non_covariant_flagged(self, worked_map):
        f = np.array([1.0, 0.0])
        ctx = build_context(worked_map.source, worked_map.target, worked_map, f, f)
        assert not ctx.covariant
        assert_allclose(ctx.covariance_residual, 0.5)


class TestXiPrime:
    def test_identity_map_isometry(self, rng):
        alg = make_algebra([(1, 1), (1, 1)])
        s = identity_map(alg)
        f = np.array([1.0, 1.0]) / np.sqrt(2.0)
        ctx = build_context(alg, alg, s, f, f)
        data = gns(s)
        xp = xi_prime(ctx, data)
        assert_allclose(xp.conj().T @ xp, np.eye(2), atol=1e-12)

    def test_worked_isometry_and_intertwining(self, worked_ctx):
        data = gns(worked_ctx.cpmap)
        xp = xi_prime(worked_ctx, data)
        assert_allclose(xp.conj().T @ xp, np.eye(2), atol=1e-12)
        for a in coordinate_basis(worked_ctx.source):
            lhs = data.rho(a) @ xp
            rhs = xp @ represent(a)
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_requires_cyclic(self, worked_map):
        f = np.array([1.0, 0.0])
        g = np.array([1.0, 0.0])
        s = identity_map(worked_map.source)
        ctx = build_context(s.source, s.target, s, f, g)
        with pytest.raises(NotCyclic):
            xi_prime(ctx, gns(s))

    def test_gns_dual_vector_identity(self, worked_ctx):
        # b' xi' a f = rho(a) xi b' g over both coordinate bases
        data = gns(worked_ctx.cpmap)
        xp = xi_prime(worked_ctx, data)
        for a in coordinate_basis(worked_ctx.source):
            for b in coordinate_basis(worked_ctx.target_commutant):
                rho_prime = np.tensordot(coordinates(b),
                                         dense_rho_prime_ops(data), axes=1)
                lhs = rho_prime @ xp @ represent(a) @ worked_ctx.f
                rhs = data.rho(a) @ data.xi @ represent(b) @ worked_ctx.g
                assert np.linalg.norm(lhs - rhs) <= 1e-11


class TestDualMap:
    def test_identity_self_dual(self):
        alg = make_algebra([(1, 1), (1, 1)])
        s = identity_map(alg)
        f = np.array([1.0, 1.0]) / np.sqrt(2.0)
        ctx = build_context(alg, alg, s, f, f)
        sp = dual_map(ctx)
        assert_allclose(sp.action, np.eye(2), atol=1e-12)

    def test_worked_example_self_dual(self, worked_ctx):
        # oracle: the pairing identity on the basis p1, p2 forces S' = S
        sp = dual_map(worked_ctx)
        assert_allclose(sp.action, worked_ctx.cpmap.action, atol=1e-12)
        assert dual_pairing_residual(worked_ctx, sp) <= 1e-12
        assert state_transport_residual(worked_ctx, sp) <= 1e-12

    def test_random_instances_pairing(self, rng):
        for _ in range(10):
            ctx = random_covariant_context(rng, 5)
            sp = dual_map(ctx)
            assert sp.is_cp and sp.is_unital
            assert dual_pairing_residual(ctx, sp) <= 1e-9
            assert state_transport_residual(ctx, sp) <= 1e-9

    def test_double_dual(self, worked_ctx, rng):
        _, dist = double_dual(worked_ctx, dual_map(worked_ctx))
        assert dist <= 1e-10
        for _ in range(5):
            ctx = random_covariant_context(rng, 5)
            _, dist = double_dual(ctx, dual_map(ctx))
            assert dist <= 1e-8


class TestExtension:
    def test_full_algebra_context_returns_itself(self, rng):
        # for A = B(F) the unique covariant extension of S is S itself.  g is
        # cyclic for B' iff φ_g is faithful on B, and then the pure state
        # φ_f = φ_g∘S forces S = φ_f(·)·1; B' has cyclic vectors only when
        # every block of B has dim <= mult.
        source = full_algebra(3)
        for blocks in ([(2, 2)], [(1, 1), (2, 2)], [(2, 3)]):
            target = make_algebra(blocks)
            f = random_unit_vector(rng, source.ambient_dim)
            g = random_unit_vector(rng, target.ambient_dim)
            s = vector_state_map(source, target, f)
            ctx = build_context(source, target, s, f, g)
            assert ctx.covariant and ctx.f_cyclic_for_source \
                and ctx.g_cyclic_for_target_commutant
            z = extend_cp_map(ctx).cpmap
            for a in coordinate_basis(source):
                diff = represent(apply(z, a)) - represent(apply(s, a))
                assert np.linalg.norm(diff) <= 1e-8

    def test_worked_pipeline(self, worked_ctx):
        ext = extend_cp_map(worked_ctx)
        z = ext.cpmap
        assert z.is_cp and z.is_unital
        assert ext.restriction_residual <= 1e-9
        assert ext.covariance_residual <= 1e-9
        # restriction to the diagonal equals S: Z(E11) has diagonal (1/2, 1/2)
        e11 = element(z.source, [np.diag([1.0, 0.0]).astype(complex)])
        ze11 = represent(apply(z, e11))
        assert_allclose(np.diag(ze11).real, [0.5, 0.5], atol=1e-10)

    def test_random_instances(self, rng):
        for _ in range(10):
            ctx = random_covariant_context(rng, 5)
            ext = extend_cp_map(ctx)
            assert ext.cpmap.is_cp
            assert ext.cpmap.is_unital
            assert ext.restriction_residual <= 1e-8
            assert ext.covariance_residual <= 1e-8


class TestDilationFromExtension:
    def test_full_algebra_degenerate_commutant(self, rng):
        z0, f, g = random_covariant_channel(rng, 3, 2, 2)
        ctx = build_context(z0.source, z0.target, z0, f, g)
        d = dilation_from_extension(ctx, z0)
        assert d.certificate.max_residual <= 1e-9

    def test_worked_roundtrip(self, worked_ctx):
        sp = dual_map(worked_ctx)
        ext = extend_cp_map(worked_ctx)
        d = dilation_from_extension(worked_ctx, ext.cpmap, s_prime=sp)
        assert d.certificate.max_residual <= 1e-9
        ext2 = extension_from_dilation(worked_ctx, d)
        assert np.linalg.norm(ext2.cpmap.choi_blocks[0]
                              - ext.cpmap.choi_blocks[0]) <= 1e-8

    def test_non_covariant_extension_rejected(self, worked_ctx, rng):
        # a map that does not restrict to S is rejected before state transport
        # is tested
        z_other, _, _ = random_covariant_channel(rng, 2, 2, 2)
        with pytest.raises(NotExtension):
            dilation_from_extension(worked_ctx, z_other)
        # an extension of S built for a different state does not transport
        # ours: h ⊥ f, so ξg is not of the form f⊗ℓ
        h = np.array([1.0, -1.0]) / np.sqrt(2.0)
        z_h = vector_state_map(full_algebra(2), full_algebra(2), h)
        assert z_h.is_cp and z_h.is_unital
        with pytest.raises(StateMismatch):
            dilation_from_extension(worked_ctx, z_h)

    def test_recovered_state_identity(self, rng):
        for _ in range(5):
            ctx = random_covariant_context(rng, 5)
            sp = dual_map(ctx)
            ext = extend_cp_map(ctx)
            d = dilation_from_extension(ctx, ext.cpmap, s_prime=sp)
            # (id ⊗ phi_ell) ∘ j = S' is the expectation residual
            assert d.certificate.expectation <= 1e-9
            assert d.k_dim == ext.kraus.l_dim


def lifting_inputs(ctx):
    """GNS data of S and the Stinespring isometry of an extension of S."""
    xi = kraus_decomposition(extend_cp_map(ctx).cpmap).isometry
    return gns(ctx.cpmap), xi


class TestCommutantLifting:
    def assert_matches_span_oracle(self, ctx):
        data, xi = lifting_inputs(ctx)
        v = _commutant_lifting(ctx, data, xi, DEFAULT_TOL)
        j_ops, p_h = data.rho_prime_compression(v.conj().T), v @ v.conj().T
        j_span, p_span = span_commutant_lifting(ctx, xi)
        assert np.max(frob_each(j_ops - j_span)) <= 1e-12
        assert frob(p_h - p_span) <= 1e-12

    def test_worked_context_matches_span_oracle(self, worked_ctx):
        self.assert_matches_span_oracle(worked_ctx)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_context_matches_span_oracle(self, seed):
        self.assert_matches_span_oracle(random_covariant_context(seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_isometry_is_rejected(self, seed):
        # (1 + 1e-6)·ξ_Z no longer restricts to S, so V*V − I ≈ 2e-6·I_H
        ctx = random_covariant_context(seed)
        data, xi = lifting_inputs(ctx)
        with pytest.raises(InconsistentSystem,
                           match="not well-defined on the span"):
            _commutant_lifting(ctx, data, xi * (1 + 1e-6), DEFAULT_TOL)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovered_certificate_is_at_rounding_level(self, seed):
        ctx = random_covariant_context(seed)
        d = dilation_from_extension(ctx, extend_cp_map(ctx).cpmap)
        assert d.certificate.max_residual <= 1e-13


def lstsq_isometry(x, y):
    """The operator V with V·x[a] = y[a] for a stack of vectors, in least
    squares: the oracle for the closed-form Stinespring isometry."""
    return np.linalg.lstsq(x, y, rcond=None)[0].T


def isometry_defect(v):
    return frob(v.conj().T @ v - np.eye(v.shape[1]))


def dual_dilation(ctx):
    """The weak tensor dilation of S'."""
    return weak_tensor_dilation(dual_map(ctx))


class TestClosedFormIsometries:
    def assert_match_lstsq(self, ctx):
        data = gns(ctx.cpmap)
        xp = xi_prime(ctx, data)
        oracle = lstsq_isometry(basis_action(ctx.source, ctx.f),
                                dense_rho_ops(data) @ (data.xi @ ctx.g))
        assert frob(xp - oracle) <= 1e-12
        assert isometry_defect(xp) <= 1e-13

        d = dual_dilation(ctx)
        xi = extension_from_dilation(ctx, d).isometry
        anchor = np.kron(d.psi_vector, ctx.f)
        oracle = lstsq_isometry(basis_action(ctx.target_commutant, ctx.g),
                                d.j_ops @ anchor)
        assert frob(xi - oracle) <= 1e-12
        assert isometry_defect(xi) <= 1e-13

    def test_worked_context_matches_lstsq(self, worked_ctx):
        self.assert_match_lstsq(worked_ctx)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_context_matches_lstsq(self, seed):
        self.assert_match_lstsq(random_covariant_context(seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_gns_vector_is_rejected(self, seed):
        # (1 + 1e-6)·ξ_S is consistent in least squares, but the pairs
        # (id, f) and (ρ, ξg) no longer have the same Gram data
        ctx = random_covariant_context(seed)
        data = gns(ctx.cpmap)
        with pytest.raises(InconsistentSystem,
                           match="dual isometry is not well-defined"):
            xi_prime(ctx, replace(data, xi=data.xi * (1 + 1e-6)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_dilation_is_rejected(self, seed):
        ctx = random_covariant_context(seed)
        d = dual_dilation(ctx)
        with pytest.raises(InconsistentSystem,
                           match="associated isometry is not well-defined"):
            extension_from_dilation(
                ctx, replace(d, isometry=d.isometry * (1 + 1e-6)))


def doubled_dilation(d, second):
    """The dilation j ⊕ j₂ of S' on L⊕L with the state vector supported on
    the first copy: H⊕H carries ρ ⊕ ρ (each multiplicity r_i doubled) and
    the isometry is V ⊕ ``second``, so j₂(x) = second·ρ(x)·second*."""
    data, v = d.gns_data, d.isometry
    n = v.shape[0]
    big = replace(data, h_alg=MatrixBlockAlgebra(
        blocks=tuple((dim, 2 * r) for dim, r in data.h_alg.blocks)),
        tau=tuple(np.stack([np.kron(np.eye(2), x) for x in t])
                  for t in data.tau))
    v_big = np.zeros((2 * n, 2 * v.shape[1]), dtype=complex)
    pos = 0
    for dim, r in data.h_alg.blocks:
        for u in range(dim):
            cols = slice(pos + u * r, pos + (u + 1) * r)
            start = 2 * pos + u * 2 * r
            v_big[:n, start:start + r] = v[:, cols]
            v_big[n:, start + r:start + 2 * r] = second[:, cols]
        pos += dim * r
    psi_big = np.zeros(2 * d.k_dim, dtype=complex)
    psi_big[:d.k_dim] = d.psi_vector
    return WeakTensorDilation(cpmap=d.cpmap, k_dim=2 * d.k_dim,
                              psi_vector=psi_big, isometry=v_big,
                              gns_data=big)


class TestMinimality:
    def test_constructed_dilation_minimal(self, worked_ctx):
        d = weak_tensor_dilation(dual_map(worked_ctx))
        assert is_minimal_dilation(d, d.gns_data)
        assert dense_is_minimal(d)

    def test_enlarged_dilation_not_minimal(self, worked_ctx):
        # V ⊕ V, so j is j ⊕ j
        d = weak_tensor_dilation(dual_map(worked_ctx))
        enlarged = doubled_dilation(d, d.isometry)
        n = d.isometry.shape[0]
        big_ops = enlarged.j_ops
        for j, big_j in zip(d.j_ops, big_ops, strict=True):
            assert_allclose(big_j[:n, :n], j, rtol=0, atol=1e-15)
            assert_allclose(big_j[n:, n:], j, rtol=0, atol=1e-15)
            assert np.max(np.abs(big_j[:n, n:])) == 0.0
        assert verify_dilation(enlarged).max_residual <= 1e-9
        assert not is_minimal_dilation(enlarged, d.gns_data)
        assert not dense_is_minimal(enlarged)

    # the draws among SEEDS whose H has a block with d ≥ 2
    @pytest.mark.parametrize("seed", [0, 1, 4, 5, 6])
    def test_rotated_copy_not_minimal(self, seed):
        # V ⊕ V·W with W = w⊗I_r on the d leg of the largest block of H:
        # W commutes with σ = ρ′ = I_d⊗τ, so the certificate stays at
        # rounding level, while j₂ = V·W·ρ·W*·V* is not j
        rng = np.random.default_rng(seed)
        d = weak_tensor_dilation(dual_map(random_covariant_context(rng)))
        blocks = d.gns_data.h_alg.blocks
        i = max(range(len(blocks)), key=lambda b: blocks[b][0])
        dim, r = blocks[i]
        assert dim >= 2
        w = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))[0]
        rotation = np.eye(d.isometry.shape[1], dtype=complex)
        pos = sum(x * y for x, y in blocks[:i])
        rotation[pos:pos + dim * r, pos:pos + dim * r] = np.kron(w, np.eye(r))
        rotated = doubled_dilation(d, d.isometry @ rotation)
        n = d.isometry.shape[0]
        moved = max(frob(big_j[n:, n:] - j)
                    for j, big_j in zip(d.j_ops, rotated.j_ops, strict=True))
        assert moved >= 1e-3
        assert verify_dilation(rotated).max_residual <= 1e-9
        assert not is_minimal_dilation(rotated, d.gns_data)
        assert not dense_is_minimal(rotated)

    def test_recovered_dilations_minimal(self, rng):
        for _ in range(3):
            ctx = random_covariant_context(rng, 4)
            ext = extend_cp_map(ctx)
            sp = dual_map(ctx)
            d = dilation_from_extension(ctx, ext.cpmap, s_prime=sp)
            assert is_minimal_dilation(d, gns(sp))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_the_dense_oracle(self, seed):
        # the rank against gns(S′).module_dim decides as the two-rank span
        # check does, on the constructed and on the recovered dilation
        ctx = random_covariant_context(np.random.default_rng(seed))
        sp = dual_map(ctx)
        d = weak_tensor_dilation(sp)
        ext = extension_from_dilation(ctx, d)
        recovered = dilation_from_extension(ctx, ext.cpmap, s_prime=sp)
        for dilation in (d, recovered):
            assert is_minimal_dilation(dilation, d.gns_data) \
                == dense_is_minimal(dilation)

    def test_recovered_check_stays_under_five_megabytes(self):
        # H = L·F = 150, L = 25, F = 6 and n_{A′} = 6: the stack of the
        # V_l*·a′ takes 2.2 MB, and the two span matrices took 9 MB
        ctx = random_covariant_context(np.random.default_rng(1), 32)
        sp = dual_map(ctx)
        d = weak_tensor_dilation(sp)
        recovered = dilation_from_extension(ctx, extend_cp_map(ctx).cpmap,
                                            s_prime=sp)
        tracemalloc.start()
        try:
            minimal = is_minimal_dilation(recovered, d.gns_data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert minimal
        assert peak < 5e6


class TestRoundTrips:
    def test_extension_to_dilation_to_extension(self, rng):
        for _ in range(5):
            ctx = random_covariant_context(rng, 5)
            sp = dual_map(ctx)
            ext = extend_cp_map(ctx)
            d = dilation_from_extension(ctx, ext.cpmap, s_prime=sp)
            ext2 = extension_from_dilation(ctx, d)
            dist = np.linalg.norm(ext2.cpmap.choi_blocks[0]
                                  - ext.cpmap.choi_blocks[0])
            assert dist <= 1e-8

    def test_minimal_dilation_to_extension_and_back(self, rng):
        for _ in range(5):
            ctx = random_covariant_context(rng, 5)
            sp = dual_map(ctx)
            d = weak_tensor_dilation(sp)
            assert is_minimal_dilation(d, d.gns_data)
            ext = extension_from_dilation(ctx, d)
            d2 = dilation_from_extension(ctx, ext.cpmap, s_prime=sp)
            # induced invariants agree: S' reproduced, L dims match
            assert d2.certificate.expectation <= 1e-8
            assert d2.k_dim == kraus_decomposition(ext.cpmap).l_dim
            assert d2.k_dim == d.k_dim


class TestSwapContext:
    def test_roles_exchange(self, worked_ctx):
        sp = dual_map(worked_ctx)
        swapped = swap_context(worked_ctx, sp)
        assert swapped.covariant
        assert swapped.f_cyclic_for_source
        assert swapped.g_cyclic_for_target_commutant

    def test_swapped_flags_match_a_full_build(self, g_point_ctx):
        assert not g_point_ctx.g_cyclic_for_target_commutant
        for ctx in [g_point_ctx] + [random_covariant_context(seed)
                                    for seed in SEEDS]:
            sp = dual_map(ctx)
            swapped = swap_context(ctx, sp)
            built = build_context(ctx.target_commutant, ctx.source_commutant,
                                  sp, ctx.g, ctx.f)
            assert swapped.cpmap is sp
            assert np.array_equal(swapped.f, built.f)
            assert np.array_equal(swapped.g, built.g)
            for name in ("source", "target", "source_commutant",
                         "target_commutant", "f_cyclic_for_source",
                         "g_cyclic_for_target_commutant", "covariant",
                         "covariance_residual"):
                assert getattr(swapped, name) == getattr(built, name), name

    def test_double_dual_makes_no_cyclicity_test(self, worked_ctx,
                                                 monkeypatch):
        calls = []
        real = duality.is_cyclic

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(duality, "is_cyclic", spy)
        sp = dual_map(worked_ctx)
        double_dual(worked_ctx, sp)
        assert calls == []


class TestHypotheses:
    """Each function checks the standing hypotheses in its own order and
    raises with the one message ``duality.HYPOTHESES`` writes for each."""

    COVARIANT = r"^states are not covariant for S \(residual 5\.000e-01\)$"
    F_CYCLIC = "^f not cyclic for A$"
    G_CYCLIC = "^g not cyclic for B'$"

    @pytest.fixture
    def point_ctx(self, worked_map):
        # f = g = e_1: f is not cyclic for A, and φ_f(p1) = 1 ≠ φ_g(S(p1))
        e1 = np.array([1.0, 0.0])
        return build_context(worked_map.source, worked_map.target,
                             worked_map, e1, e1)

    def test_first_failing_hypothesis_in_each_order(self, point_ctx,
                                                    worked_map):
        assert not (point_ctx.covariant or point_ctx.f_cyclic_for_source)
        with pytest.raises(NotCovariant, match=self.COVARIANT):
            xi_prime(point_ctx, gns(worked_map))
        with pytest.raises(NotCovariant, match=self.COVARIANT):
            extend_cp_map(point_ctx)
        with pytest.raises(NotCyclic, match=self.F_CYCLIC):
            dual_map(point_ctx)
        with pytest.raises(NotCyclic, match=self.F_CYCLIC):
            dilation_from_extension(point_ctx, worked_map)

    def test_g_cyclicity(self, g_point_ctx, worked_ctx):
        sp = dual_map(g_point_ctx)
        d = weak_tensor_dilation(dual_map(worked_ctx))
        for call in (lambda: double_dual(g_point_ctx, sp),
                     lambda: extension_from_dilation(g_point_ctx, d),
                     lambda: extend_cp_map(g_point_ctx)):
            with pytest.raises(NotCyclic, match=self.G_CYCLIC):
                call()


def cyclic_condition(alg, v):
    """Condition number of Σ_a (x_a·v)(x_a·v)*, the normal matrix that the
    closed-form Stinespring isometry inverts for the pair (alg, v)."""
    s = np.linalg.svd(basis_action(alg, v), compute_uv=False)
    return (s[0] / s[-1]) ** 2


EPS = np.finfo(float).eps


class TestDualSideLaws:
    """Laws of the dual map on random covariant bi-cyclic contexts of
    ambient dimension ≤ 6, drawn from ``random_covariant_context``.

    ξ' inverts the normal matrix of (A, f) and S'' also that of (B', g),
    so rounding reaches S' and S'' amplified by their condition number
    κ = max(κ_f, κ_g) (``cyclic_condition``), which the sampler does not
    bound.  Each law is therefore bounded by a multiple of ε·κ: the dual
    pairing and φ_f∘S' = φ_g compare sums of at most 36 unit-scale
    products of S' coordinates, bounded by 100·ε·κ; S'' = S chains two
    isometry solves, bounded by 1000·ε·κ.  Over seeds 0–2999 the three
    read at most 10, 14 and 113 ε·κ (6.5e-14, 1.5e-13 and 2.7e-12 at
    κ up to 5e5), over 6000 random 32-bit seeds at most 6, 19 and 38 ε·κ,
    and over seeds 0–59 at most 1.0e-15, 6.7e-16 and 6.0e-15.  The
    examples are derandomized by the profile of ``conftest.py``, so tier-1
    draws the same seeds every run.
    """

    @staticmethod
    def draw(seed):
        ctx = random_covariant_context(seed)
        kappa = max(cyclic_condition(ctx.source, ctx.f),
                    cyclic_condition(ctx.target_commutant, ctx.g))
        return ctx, dual_map(ctx), EPS * kappa

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_state_transport(self, seed):
        ctx, sp, unit = self.draw(seed)
        assert state_transport_residual(ctx, sp) <= 100 * unit

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_dual_pairing(self, seed):
        ctx, sp, unit = self.draw(seed)
        assert dual_pairing_residual(ctx, sp) <= 100 * unit

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_double_dual_is_s(self, seed):
        ctx, sp, unit = self.draw(seed)
        _, distance = double_dual(ctx, sp)
        assert distance <= 1000 * unit
