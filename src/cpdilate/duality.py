"""Duality between weak tensor dilations and CP-map extensions.

Given covariant vector states φ_f, φ_g for S: A → B (f cyclic for A, g
cyclic for B'), the isometry ξ': af ↦ ρ(a)(ξg) produces the dual map
S'(b') = ⟨ξ', ρ'(b')ξ'⟩ from B' to A'.  A weak tensor dilation of S'
induces a unital CP extension Z: B(F) → B(G) of S through the associated
isometry ξ(b'g) = j(b')(f⊗ℓ), and conversely an extension induces a
dilation of S' via the commutant lifting on the Stinespring space of Z.
Both directions are verified with explicit residuals.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (MatrixBlockAlgebra, check_unit_vector, commutant,
                      coordinate_basis, coordinates, decompose, identity,
                      is_cyclic, make_algebra, represent, state_value)
from .cpmap import (CPMap, KrausForm, apply, covariance_residual,
                    kraus_decomposition, make_cpmap)
from .dilation import (WeakTensorDilation, verify_dilation,
                       weak_tensor_dilation)
from .errors import (InconsistentSystem, NotCovariant, NotCyclic,
                     NotExtension, NotInAlgebra, NotInCommutant,
                     StateMismatch)
from .numerics import (DEFAULT_TOL, frob, matrix_rank, orthonormal_columns,
                       solve_least_squares)
from .vnmodule import GNSData, gns


@dataclass(frozen=True)
class DualityContext:
    """Bundle of the standing duality hypotheses with computed flags."""

    source: MatrixBlockAlgebra          # A ⊂ B(F)
    target: MatrixBlockAlgebra          # B ⊂ B(G)
    cpmap: CPMap                        # S: A → B
    f: np.ndarray
    g: np.ndarray
    source_commutant: MatrixBlockAlgebra
    target_commutant: MatrixBlockAlgebra
    f_cyclic_for_source: bool
    g_cyclic_for_target_commutant: bool
    covariant: bool
    covariance_residual: float

    @property
    def dim_f(self) -> int:
        return self.source.ambient_dim


def build_context(source, target, s: CPMap, f, g,
                  tol: float = DEFAULT_TOL) -> DualityContext:
    """Compute the cyclicity and covariance flags for a duality instance."""
    f = check_unit_vector(f)
    g = check_unit_vector(g)
    res = covariance_residual(s, f, g)
    return DualityContext(
        source=source, target=target, cpmap=s, f=f, g=g,
        source_commutant=commutant(source),
        target_commutant=commutant(target),
        f_cyclic_for_source=is_cyclic(source, f, tol),
        g_cyclic_for_target_commutant=is_cyclic(commutant(target), g, tol),
        covariant=res <= max(tol, 1e-9),
        covariance_residual=res)


def xi_prime(ctx: DualityContext, data: GNSData, tol: float = DEFAULT_TOL,
             allow_partial: bool = False) -> np.ndarray:
    """The intertwining isometry ξ': F → H with ξ'(af) = ρ(a)(ξg).

    Solved in least squares over the cyclic span; covariance violations
    surface as InconsistentSystem, never as a silent projection.  With
    ``allow_partial`` a non-cyclic f yields the partial isometry with
    cokernel span(A f).
    """
    if not ctx.covariant:
        raise NotCovariant(
            f"states are not covariant (residual {ctx.covariance_residual:.3e})")
    if not ctx.f_cyclic_for_source and not allow_partial:
        raise NotCyclic("f is not cyclic for A")
    basis = coordinate_basis(ctx.source)
    lhs_cols = np.stack([represent(a) @ ctx.f for a in basis], axis=1)
    rhs_cols = np.stack([data.rho(a) @ (data.xi @ ctx.g) for a in basis], axis=1)
    xt, residual = solve_least_squares(lhs_cols.T, rhs_cols.T, tol)
    if residual > max(tol, 1e-9) * max(1.0, frob(rhs_cols)):
        raise InconsistentSystem(
            f"defining system for the dual isometry is inconsistent "
            f"(residual {residual:.3e})", residual)
    return xt.T


def dual_map(ctx: DualityContext, tol: float = DEFAULT_TOL,
             data: GNSData = None) -> CPMap:
    """The dual CP map S': B' → A', S'(b') = ⟨ξ', ρ'(b')ξ'⟩.

    Unital and covariant the other way round: φ_f∘S' = φ_g.  Raises
    NotInCommutant when a compression fails membership in A'.
    """
    if not ctx.f_cyclic_for_source:
        raise NotCyclic("f is not cyclic for A")
    if data is None:
        data = gns(ctx.cpmap, tol)
    xp = xi_prime(ctx, data, tol)
    cols = []
    for c in coordinate_basis(ctx.target_commutant):
        compressed = xp.conj().T @ data.rho_prime(c) @ xp
        try:
            el = decompose(ctx.source_commutant, compressed, max(tol, 1e-9))
        except NotInAlgebra as exc:
            raise NotInCommutant(
                f"ξ'*ρ'(b')ξ' is not in the source commutant: {exc}") from exc
        cols.append(coordinates(el))
    action = np.stack(cols, axis=1)
    return make_cpmap(ctx.target_commutant, ctx.source_commutant, action, tol)


def dual_pairing_residual(ctx: DualityContext, s_prime: CPMap) -> float:
    """max |φ_g(b'·S(a)) − φ_f(S'(b')·a)| over both coordinate bases."""
    worst = 0.0
    for b in coordinate_basis(ctx.target_commutant):
        sb = represent(apply(s_prime, b))
        rb = represent(b)
        for a in coordinate_basis(ctx.source):
            lhs = state_value(ctx.g, rb @ represent(apply(ctx.cpmap, a)))
            rhs = state_value(ctx.f, sb @ represent(a))
            worst = max(worst, abs(lhs - rhs))
    return worst


def state_transport_residual(ctx: DualityContext, s_prime: CPMap) -> float:
    """max |φ_f(S'(b')) − φ_g(b')| over the commutant coordinate basis."""
    worst = 0.0
    for b in coordinate_basis(ctx.target_commutant):
        lhs = state_value(ctx.f, represent(apply(s_prime, b)))
        rhs = state_value(ctx.g, represent(b))
        worst = max(worst, abs(lhs - rhs))
    return worst


def swap_context(ctx: DualityContext, s_prime: CPMap,
                 tol: float = DEFAULT_TOL) -> DualityContext:
    """Context with the roles of (A, f) and (B', g) exchanged."""
    return build_context(ctx.target_commutant, ctx.source_commutant,
                         s_prime, ctx.g, ctx.f, tol)


def double_dual(ctx: DualityContext, tol: float = DEFAULT_TOL):
    """Apply the duality twice; returns (S'', ‖S'' − S‖ on coordinates)."""
    if not ctx.g_cyclic_for_target_commutant:
        raise NotCyclic("g is not cyclic for B'")
    s_prime = dual_map(ctx, tol)
    swapped = swap_context(ctx, s_prime, tol)
    s_second = dual_map(swapped, tol)
    distance = frob(s_second.action - ctx.cpmap.action)
    return s_second, distance


@dataclass(frozen=True)
class Extension:
    """Unital CP extension Z: B(F) → B(G) of S with transported states."""

    cpmap: CPMap
    kraus: KrausForm
    isometry: np.ndarray = field(repr=False)
    restriction_residual: float = 0.0
    covariance_residual: float = 0.0

    @property
    def l_dim(self) -> int:
        return self.kraus.l_dim


def full_algebra(dim: int) -> MatrixBlockAlgebra:
    return make_algebra([(dim, 1)])


def map_from_isometry(xi: np.ndarray, dim_f: int,
                      tol: float = DEFAULT_TOL) -> CPMap:
    """The CP map Z: B(F) → B(G), Z(x) = ξ*(x⊗I_L)ξ, of an operator
    ξ: G → F⊗L with the L leg slowest."""
    full_f = full_algebra(dim_f)
    full_g = full_algebra(xi.shape[1])
    eye_l = np.eye(xi.shape[0] // dim_f, dtype=np.complex128)
    cols = []
    for x in coordinate_basis(full_f):
        zx = xi.conj().T @ np.kron(eye_l, represent(x)) @ xi
        cols.append(coordinates(decompose(full_g, zx)))
    return make_cpmap(full_f, full_g, np.stack(cols, axis=1), tol)


def _restriction_residual(ctx: DualityContext, z: CPMap) -> float:
    worst = 0.0
    full_f = z.source
    for a in coordinate_basis(ctx.source):
        za = apply(z, decompose(full_f, represent(a)))
        worst = max(worst, frob(represent(za) - represent(apply(ctx.cpmap, a))))
    return worst


def extension_from_dilation(ctx: DualityContext, s_prime: CPMap,
                            d_prime: WeakTensorDilation,
                            tol: float = DEFAULT_TOL) -> Extension:
    """Extension of S from a weak tensor dilation of the dual map.

    The associated isometry is solved from ξ(b'g) = j(b')(f⊗ℓ) over the
    commutant coordinate basis (g cyclic for B'), and
    Z(x) = ξ*(x⊗I_L)ξ.  Verifies restriction to S and state transport.
    """
    if not ctx.g_cyclic_for_target_commutant:
        raise NotCyclic("g is not cyclic for B'")
    anchor = np.kron(d_prime.psi_vector, ctx.f)

    basis_c = coordinate_basis(ctx.target_commutant)
    lhs_cols = np.stack([represent(b) @ ctx.g for b in basis_c], axis=1)
    rhs_cols = np.stack([d_prime.j_ops[i] @ anchor for i in range(len(basis_c))],
                        axis=1)
    xt, residual = solve_least_squares(lhs_cols.T, rhs_cols.T, tol)
    if residual > max(tol, 1e-9) * max(1.0, frob(rhs_cols)):
        raise InconsistentSystem(
            f"defining system for the associated isometry is inconsistent "
            f"(residual {residual:.3e})", residual)
    xi = xt.T
    z = map_from_isometry(xi, ctx.dim_f, tol)

    kraus = kraus_decomposition(z, tol)
    restriction = _restriction_residual(ctx, z)
    cov = covariance_residual(z, ctx.f, ctx.g)
    return Extension(cpmap=z, kraus=kraus, isometry=xi,
                     restriction_residual=restriction,
                     covariance_residual=cov)


def dilation_from_extension(ctx: DualityContext, z: CPMap,
                            tol: float = DEFAULT_TOL,
                            s_prime: CPMap = None) -> WeakTensorDilation:
    """Weak tensor dilation of S' recovered from an extension Z of S.

    ξ comes from the deterministic Kraus form of Z; H is the span of
    (a⊗I_L)ξ·b·g inside F⊗L, the commutant lifting ρ' is defined on that
    spanning family, and j(b') = ρ'(b')p_H.  The state vector is
    ℓ = (⟨f|⊗I_L)ξg, which requires φ_f = φ_g∘Z.

    The checks run in this order: NotCyclic (f not cyclic for A),
    NotCovariant (φ_f ≠ φ_g∘S), NotExtension (Z does not restrict to S on
    A), StateMismatch (ξg is not of the form f⊗ℓ).  A map that is no
    extension of S is thus rejected before state transport is tested.
    """
    if not ctx.f_cyclic_for_source:
        raise NotCyclic("f is not cyclic for A")
    if not ctx.covariant:
        raise NotCovariant(
            f"states are not covariant (residual {ctx.covariance_residual:.3e})")

    restriction = _restriction_residual(ctx, z)
    if restriction > max(tol, 1e-8) * 10:
        raise NotExtension(
            f"map does not restrict to S on A (residual {restriction:.3e})")

    kraus = kraus_decomposition(z, tol)
    xi = kraus.isometry
    l_dim = kraus.l_dim
    dim_f = ctx.dim_f

    xig = xi @ ctx.g
    ell = np.einsum("u,lu->l", np.conj(ctx.f), xig.reshape(l_dim, dim_f))
    mismatch = frob(xig - np.kron(ell, ctx.f))
    if mismatch > max(tol, 1e-8) * 10:
        raise StateMismatch(
            f"ξg is not of the form f⊗ℓ (residual {mismatch:.3e}); "
            "the extension does not transport the states")
    ell = ell / np.linalg.norm(ell)

    eye_l = np.eye(l_dim, dtype=np.complex128)
    basis_a = coordinate_basis(ctx.source)
    basis_b = coordinate_basis(ctx.target)
    basis_c = coordinate_basis(ctx.target_commutant)

    span_blocks = []
    for a in basis_a:
        amb = np.kron(eye_l, represent(a)) @ xi
        for b in basis_b:
            span_blocks.append(amb @ represent(b))
    w = np.hstack(span_blocks)
    v = orthonormal_columns(w, tol)
    h_dim = v.shape[1]
    p_h = v @ v.conj().T

    vw = v.conj().T @ w
    j_ops = np.zeros((len(basis_c), l_dim * dim_f, l_dim * dim_f),
                     dtype=np.complex128)
    rho_prime_small = np.zeros((len(basis_c), h_dim, h_dim), dtype=np.complex128)
    for idx, c in enumerate(basis_c):
        rc = represent(c)
        wc = np.hstack([blk @ rc for blk in span_blocks])
        target_small = v.conj().T @ wc
        r_small, residual = solve_least_squares(vw.T, target_small.T, tol)
        r_small = r_small.T
        outside = frob(wc - v @ target_small)
        consistency = frob(r_small @ vw - target_small)
        total = max(outside, consistency)
        if total > max(tol, 1e-8) * max(1.0, frob(wc)):
            raise InconsistentSystem(
                f"commutant lifting is not well-defined on the span "
                f"(residual {total:.3e})", total)
        rho_prime_small[idx] = r_small
        j_ops[idx] = v @ r_small @ v.conj().T

    if s_prime is None:
        s_prime = dual_map(ctx, tol)

    d = WeakTensorDilation(cpmap=s_prime, k_dim=l_dim, psi_vector=ell,
                           j_ops=j_ops, p_i_matrix=p_h)
    return replace(d, certificate=verify_dilation(d, tol))


def is_minimal_dilation(s_prime: CPMap, d: WeakTensorDilation,
                        tol: float = DEFAULT_TOL) -> bool:
    """True iff the dilation's module is the GNS module of S'.

    Compares the rank of the B'-A' span of ξ'' = (id⊗ℓ) inside
    E' = j(1)(A'⊗L) with the rank of E' itself.
    """
    a_comm = s_prime.target           # A' ⊂ B(F)
    dim_f = a_comm.ambient_dim
    l_dim = d.k_dim
    ell = d.psi_vector
    xi2 = np.kron(ell.reshape(-1, 1), np.eye(dim_f, dtype=np.complex128))

    gns_vecs = []
    for c_idx in range(d.j_ops.shape[0]):
        jb = d.j_ops[c_idx]
        for ap in coordinate_basis(a_comm):
            gns_vecs.append((jb @ xi2 @ represent(ap)).reshape(-1))
    rank_gns = matrix_rank(np.stack(gns_vecs, axis=1), tol)

    j_unit = d.j(identity(s_prime.source))
    full_vecs = []
    for l in range(l_dim):
        slot = np.zeros(l_dim, dtype=np.complex128)
        slot[l] = 1.0
        for ap in coordinate_basis(a_comm):
            mat = np.kron(slot.reshape(-1, 1), represent(ap))
            full_vecs.append((j_unit @ mat).reshape(-1))
    rank_full = matrix_rank(np.stack(full_vecs, axis=1), tol)
    return rank_gns == rank_full


def extend_cp_map(ctx: DualityContext, tol: float = DEFAULT_TOL) -> Extension:
    """Unital CP extension Z of S with φ_f = φ_g∘Z, via the dual dilation.

    Pipeline: dual map, weak tensor dilation of the dual, extension from
    the dilation.  Requires covariance and both cyclicity hypotheses.

    With A = B(F) the hypotheses leave one case: g cyclic for B' makes φ_g
    faithful on B, and the pure state φ_f = φ_g∘S then forces
    S = φ_f(·)·1, whose extension is Z = S.
    """
    if not ctx.covariant:
        raise NotCovariant(
            f"states are not covariant (residual {ctx.covariance_residual:.3e})")
    if not ctx.f_cyclic_for_source:
        raise NotCyclic("f is not cyclic for A")
    if not ctx.g_cyclic_for_target_commutant:
        raise NotCyclic("g is not cyclic for B'")
    s_prime = dual_map(ctx, tol)
    d_prime = weak_tensor_dilation(s_prime, tol=tol)
    return extension_from_dilation(ctx, s_prime, d_prime, tol)
