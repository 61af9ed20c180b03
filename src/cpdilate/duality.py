"""Duality between weak tensor dilations and CP-map extensions.

Given covariant vector states φ_f, φ_g for S: A → B (f cyclic for A, g
cyclic for B'), the isometry ξ': af ↦ ρ(a)(ξg) produces the dual map
S'(b') = ⟨ξ', ρ'(b')ξ'⟩ from B' to A'.  A weak tensor dilation of S'
induces a unital CP extension Z: B(F) → B(G) of S through the associated
isometry ξ(b'g) = j(b')(f⊗ℓ), and conversely an extension induces a
dilation of S'.  For the converse, (a ↦ a⊗I_L, ξ_Z) and the GNS pair
(ρ, ξ_S) are two Stinespring pairs of S, so the isometry V with
V·ρ(a)·ξ_S = (a⊗I_L)·ξ_Z carries the GNS space of S onto the Stinespring
space of Z, and the commutant lifting there is j(b') = V·ρ'(b')·V*.
ξ', ξ and V come from one closed form, ``_stinespring_isometry``.  Both
directions are verified with explicit residuals.

Minimality of a dilation of S' is one rank: by Stinespring uniqueness the
GNS module of S' has the ``module_dim`` of the GNS data of S', which the
caller of ``is_minimal_dilation`` passes in.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (MatrixBlockAlgebra, basis_action, check_unit_vector,
                      commutant, coordinate_basis_stack, coordinates, decompose,
                      is_cyclic, make_algebra, represent, state_value)
from .cpmap import (CPMap, KrausForm, basis_images, covariance_residual,
                    kraus_decomposition, make_cpmap)
from .dilation import (WeakTensorDilation, verify_dilation,
                       weak_tensor_dilation)
from .errors import (InconsistentSystem, NotCovariant, NotCyclic,
                     NotExtension, NotInAlgebra, NotInCommutant,
                     StateMismatch)
from .numerics import (DEFAULT_TOL, IDENTITY_FLOOR, RESIDUAL_FLOOR, floored,
                       frob, frob_each, matrix_rank)
from .vnmodule import GNSData, gns

# The standing duality hypotheses: the DualityContext flag that records
# each one, and the exception and message when it fails.
HYPOTHESES = {
    "covariant": (NotCovariant, "states are not covariant for S"),
    "f_cyclic_for_source": (NotCyclic, "f not cyclic for A"),
    "g_cyclic_for_target_commutant": (NotCyclic, "g not cyclic for B'"),
}


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

    def require(self, *flags: str) -> None:
        """Raise the exception of the first of the hypotheses ``flags``, in
        the order given, that fails; the covariance message adds its
        residual."""
        for flag in flags:
            if not getattr(self, flag):
                error, message = HYPOTHESES[flag]
                if flag == "covariant":
                    message += f" (residual {self.covariance_residual:.3e})"
                raise error(message)


def _context(s: CPMap, f, g, tol: float, **fields) -> DualityContext:
    """Context of S with its covariance flag; ``fields`` holds the algebras
    and the cyclicity flags."""
    res = covariance_residual(s, f, g)
    return DualityContext(cpmap=s, f=f, g=g,
                          covariant=res <= floored(tol, RESIDUAL_FLOOR),
                          covariance_residual=res, **fields)


def build_context(source, target, s: CPMap, f, g,
                  tol: float = DEFAULT_TOL) -> DualityContext:
    """Compute the cyclicity and covariance flags for a duality instance."""
    f = check_unit_vector(f)
    g = check_unit_vector(g)
    target_commutant = commutant(target)
    return _context(
        s, f, g, tol, source=source, target=target,
        source_commutant=commutant(source), target_commutant=target_commutant,
        f_cyclic_for_source=is_cyclic(source, f, tol),
        g_cyclic_for_target_commutant=is_cyclic(target_commutant, g, tol))


def _stinespring_isometry(x, y, tol: float, what: str) -> np.ndarray:
    """The isometry V with V·x[a] = y[a] for the images x (n, P, q) and
    y (n, R, q) of one coordinate basis under two Stinespring pairs (q = 1
    for stacks of vectors): V = (Σ y[a]·x[a]*)·(Σ x[a]·x[a]*)⁻¹, where the
    callers check first that the x[a] span ℂ^P.  InconsistentSystem names
    ``what`` when ‖V*V − I_P‖ shows that the pairs differ; otherwise the
    polar factor of V, an isometry to rounding level, is returned.
    """
    x = x.reshape(*x.shape[:2], -1)
    y = y.reshape(*y.shape[:2], -1)
    xc = x.conj()
    normal = np.tensordot(x, xc, axes=([0, 2], [0, 2]))
    cross = np.tensordot(y, xc, axes=([0, 2], [0, 2]))
    v = np.linalg.solve(normal.T, cross.T).T
    defect = frob(v.conj().T @ v - np.eye(v.shape[1]))
    if defect > floored(tol, IDENTITY_FLOOR, np.sqrt(v.shape[1])):
        raise InconsistentSystem(
            f"{what} is not well-defined on the span "
            f"(residual {defect:.3e})", defect)
    u, _, wh = np.linalg.svd(v, full_matrices=False)
    return u @ wh


def xi_prime(ctx: DualityContext, data: GNSData,
             tol: float = DEFAULT_TOL) -> np.ndarray:
    """The intertwining isometry ξ': F → H with ξ'(af) = ρ(a)(ξg).

    The closed-form Stinespring isometry between the pairs (id, f) and
    (ρ, ξg) of the state φ_f = φ_g∘S on A, so a covariance violation
    surfaces as InconsistentSystem, never as a silent projection.
    """
    ctx.require("covariant", "f_cyclic_for_source")
    return _stinespring_isometry(basis_action(ctx.source, ctx.f),
                                 data.rho_basis_action(data.xi @ ctx.g), tol,
                                 "dual isometry")


def dual_map(ctx: DualityContext, tol: float = DEFAULT_TOL,
             data: GNSData = None) -> CPMap:
    """The dual CP map S': B' → A', S'(b') = ⟨ξ', ρ'(b')ξ'⟩.

    Unital and covariant the other way round: φ_f∘S' = φ_g.  Raises
    NotInCommutant when a compression fails membership in A'.
    """
    ctx.require("f_cyclic_for_source")
    if data is None:
        data = gns(ctx.cpmap, tol)
    xp = xi_prime(ctx, data, tol)
    compressed = data.rho_prime_compression(xp)
    try:
        el = decompose(ctx.source_commutant, compressed,
                       floored(tol, RESIDUAL_FLOOR))
    except NotInAlgebra as exc:
        raise NotInCommutant(
            f"ξ'*ρ'(b')ξ' is not in the source commutant: {exc}") from exc
    action = coordinates(el).T
    return make_cpmap(ctx.target_commutant, ctx.source_commutant, action, tol)


def dual_pairing_residual(ctx: DualityContext, s_prime: CPMap) -> float:
    """max |φ_g(b'·S(a)) − φ_f(S'(b')·a)| over both coordinate bases."""
    reps_b = represent(coordinate_basis_stack(ctx.target_commutant))
    reps_sb = represent(basis_images(s_prime.target, s_prime.action))
    reps_sa = represent(basis_images(ctx.target, ctx.cpmap.action))
    # ⟨v, x·y v⟩ = (v*x)·(y v) for every pair (x, y) of two stacks.
    lhs = (np.conj(ctx.g) @ reps_b) @ (reps_sa @ ctx.g).T
    rhs = (np.conj(ctx.f) @ reps_sb) @ basis_action(ctx.source, ctx.f).T
    return float(np.max(np.abs(lhs - rhs)))


def state_transport_residual(ctx: DualityContext, s_prime: CPMap) -> float:
    """max |φ_f(S'(b')) − φ_g(b')| over the commutant coordinate basis."""
    lhs = state_value(ctx.f, represent(basis_images(s_prime.target,
                                                    s_prime.action)))
    rhs = basis_action(ctx.target_commutant, ctx.g) @ np.conj(ctx.g)
    return float(np.max(np.abs(lhs - rhs)))


def swap_context(ctx: DualityContext, s_prime: CPMap,
                 tol: float = DEFAULT_TOL) -> DualityContext:
    """Context of S' with the roles of (A, f) and (B', g) exchanged.

    Only the covariance of S' is computed: "f cyclic for the source" of
    the swapped context is "g cyclic for B'" of ``ctx`` and the other way
    round, and the commutant of a commutant is the algebra itself.
    """
    return _context(
        s_prime, ctx.g, ctx.f, tol, source=ctx.target_commutant,
        target=ctx.source_commutant, source_commutant=ctx.target,
        target_commutant=ctx.source,
        f_cyclic_for_source=ctx.g_cyclic_for_target_commutant,
        g_cyclic_for_target_commutant=ctx.f_cyclic_for_source)


def double_dual(ctx: DualityContext, s_prime: CPMap,
                tol: float = DEFAULT_TOL):
    """Dualize the dual map S' of ``ctx`` once more; returns
    (S'', ‖S'' − S‖ on coordinates)."""
    ctx.require("g_cyclic_for_target_commutant")
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
    # ξ*(E_uv⊗I_L)ξ has entries Σ_l conj(ξ[(l, u), g])·ξ[(l, v), h].
    x3 = xi.reshape(-1, dim_f, xi.shape[1])
    zx = np.einsum("lug,lvh->uvgh", x3.conj(), x3, optimize=True).reshape(
        dim_f * dim_f, xi.shape[1], xi.shape[1])
    return make_cpmap(full_f, full_g, coordinates(decompose(full_g, zx)).T, tol)


def _restriction_residual(ctx: DualityContext, z: CPMap) -> float:
    """max ‖Z(a) − S(a)‖ over the coordinate basis of A ⊂ B(F)."""
    full_coords = coordinates(decompose(
        z.source, represent(coordinate_basis_stack(ctx.source))))
    za = represent(basis_images(z.target, z.action @ full_coords.T))
    sa = represent(basis_images(ctx.target, ctx.cpmap.action))
    return float(np.max(frob_each(za - sa)))


def extension_from_dilation(ctx: DualityContext, d_prime: WeakTensorDilation,
                            tol: float = DEFAULT_TOL) -> Extension:
    """Extension of S from a weak tensor dilation of the dual map.

    The associated isometry is the closed-form Stinespring isometry with
    ξ(b'g) = j(b')(f⊗ℓ) over the commutant coordinate basis (g cyclic for
    B'), each j(b')(f⊗ℓ) formed from the factors as V·π(b')·(V*(f⊗ℓ)),
    and Z(x) = ξ*(x⊗I_L)ξ.  Verifies restriction to S and state
    transport.
    """
    ctx.require("g_cyclic_for_target_commutant")
    anchor = np.kron(d_prime.psi_vector, ctx.f)
    xi = _stinespring_isometry(basis_action(ctx.target_commutant, ctx.g),
                               d_prime.j_basis_action(anchor), tol,
                               "associated isometry")
    z = map_from_isometry(xi, ctx.dim_f, tol)

    kraus = kraus_decomposition(z, tol)
    restriction = _restriction_residual(ctx, z)
    cov = covariance_residual(z, ctx.f, ctx.g)
    return Extension(cpmap=z, kraus=kraus, isometry=xi,
                     restriction_residual=restriction,
                     covariance_residual=cov)


def _commutant_lifting(ctx: DualityContext, data: GNSData, xi: np.ndarray,
                       tol: float) -> np.ndarray:
    """The isometry V of the lifting j(b') = V·ρ'(b')·V*, from the GNS data
    of S and the Stinespring isometry ξ: G → F⊗L of an extension Z.

    V: H → F⊗L is the closed-form Stinespring isometry with
    V·ρ(a)·ξ_S = (a⊗I_L)·ξ over A's coordinate basis.  Its normal matrix
    Σ_a ρ(x_a)·ξ_S·ξ_S*·ρ(x_a)* is the diagonal I_d⊗diag(λ) of the kept
    Choi eigenvalues, so it is invertible.  V is an isometry exactly when
    Z restricts to S on A; InconsistentSystem reports ‖V*V − I_H‖ when it
    is not.
    """
    dim_f = ctx.dim_f
    l_dim = xi.shape[0] // dim_f
    reps_a = represent(coordinate_basis_stack(ctx.source))
    y = np.einsum("aij,ljg->alig", reps_a, xi.reshape(l_dim, dim_f, -1),
                  optimize=True).reshape(len(reps_a), l_dim * dim_f, -1)
    return _stinespring_isometry(data.rho_basis_action(data.xi), y, tol,
                                 "commutant lifting")


def dilation_from_extension(ctx: DualityContext, z: CPMap | Extension,
                            tol: float = DEFAULT_TOL,
                            s_prime: CPMap = None,
                            data: GNSData = None) -> WeakTensorDilation:
    """Weak tensor dilation of S' recovered from an extension Z of S.

    ξ comes from the deterministic Kraus form of Z.  The GNS space H of S
    is carried into F⊗L by the isometry V with V·ρ(a)·ξ_S = (a⊗I_L)·ξ,
    and the dilation keeps V with π = ρ', j(b') = V·ρ'(b')·V* and
    p_H = V·V*.  The state vector is
    ℓ = (⟨f|⊗I_L)ξg, which requires φ_f = φ_g∘Z.  S' is the dual map of
    the context unless given, computed from the same GNS data, which is
    ``gns(ctx.cpmap, tol)`` unless given.  Z is a CPMap, or an
    ``Extension`` of S for this context, whose Kraus form and restriction
    residual are then used instead of being computed again.

    The checks run in this order: NotCyclic (f not cyclic for A),
    NotCovariant (φ_f ≠ φ_g∘S), NotExtension (Z does not restrict to S on
    A), StateMismatch (ξg is not of the form f⊗ℓ).  A map that is no
    extension of S is thus rejected before state transport is tested.
    """
    ctx.require("f_cyclic_for_source", "covariant")
    if isinstance(z, Extension):
        restriction, kraus = z.restriction_residual, z.kraus
    else:
        restriction, kraus = _restriction_residual(ctx, z), None
    if restriction > floored(tol, IDENTITY_FLOOR, 10):
        raise NotExtension(
            f"map does not restrict to S on A (residual {restriction:.3e})")

    if kraus is None:
        kraus = kraus_decomposition(z, tol)
    xi = kraus.isometry
    l_dim = kraus.l_dim
    dim_f = ctx.dim_f

    xig = xi @ ctx.g
    ell = np.einsum("u,lu->l", np.conj(ctx.f), xig.reshape(l_dim, dim_f))
    mismatch = frob(xig - np.kron(ell, ctx.f))
    if mismatch > floored(tol, IDENTITY_FLOOR, 10):
        raise StateMismatch(
            f"ξg is not of the form f⊗ℓ (residual {mismatch:.3e}); "
            "the extension does not transport the states")
    ell = ell / np.linalg.norm(ell)

    if data is None:
        data = gns(ctx.cpmap, tol)
    v = _commutant_lifting(ctx, data, xi, tol)
    if s_prime is None:
        s_prime = dual_map(ctx, tol, data)

    d = WeakTensorDilation(cpmap=s_prime, k_dim=l_dim, psi_vector=ell,
                           isometry=v, gns_data=data, lifted=True)
    return replace(d, certificate=verify_dilation(d))


def is_minimal_dilation(d: WeakTensorDilation, data: GNSData,
                        tol: float = DEFAULT_TOL) -> bool:
    """True iff the module of the dilation ``d`` of S' = ``d.cpmap`` is the
    GNS module of S'.  ``data`` is the GNSData of S' (the roundtrip passes
    that of the dilation it constructed from S'), not the GNS data of S
    that a recovered dilation conjugates with.

    The module is spanned by the p_I·(e_l⊗a'), and V is injective, so its
    dimension is the rank of the L·n_{A'} operators V_l*·a' in B(F, H),
    V_l* = V*·(e_l⊗I_F), stacked with n_{A'}·L·H·F entries.  It contains
    the span of the π(b')·η·a', η = V*·(ℓ⊗I_F), and η*·π(b')·η = S'(b'),
    so by Stinespring uniqueness that span has dimension
    ``data.module_dim``: minimal iff the rank equals it.
    """
    reps = represent(coordinate_basis_stack(d.cpmap.target))  # A' ⊂ B(F)
    h_dim, dim_f = d.isometry.shape[1], reps.shape[-1]
    v_star = d.isometry.conj().T.reshape(h_dim, d.k_dim, dim_f)
    ops = v_star.transpose(1, 0, 2)[None] @ reps[:, None]
    return matrix_rank(ops.reshape(-1, h_dim * dim_f), tol) == data.module_dim


def extend_cp_map(ctx: DualityContext, tol: float = DEFAULT_TOL) -> Extension:
    """Unital CP extension Z of S with φ_f = φ_g∘Z, via the dual dilation.

    Pipeline: dual map, weak tensor dilation of the dual, extension from
    the dilation.  Requires covariance and both cyclicity hypotheses.

    With A = B(F) the hypotheses leave one case: g cyclic for B' makes φ_g
    faithful on B, and the pure state φ_f = φ_g∘S then forces
    S = φ_f(·)·1, whose extension is Z = S.
    """
    ctx.require("covariant", "f_cyclic_for_source",
                "g_cyclic_for_target_commutant")
    d_prime = weak_tensor_dilation(dual_map(ctx, tol), tol=tol)
    return extension_from_dilation(ctx, d_prime, tol)
