"""GNS/Stinespring construction and concrete von Neumann modules.

For a CP map S: A → B (B acting on G) the GNS space H is the quotient of
A⊗G by the null space of the Gram form ⟨a⊗g, a'⊗g'⟩ = ⟨g, S(a*a')g'⟩.  The
module E is realized as a space of operators G → H spanned by ρ(a)·ξ·b;
it carries the B-valued inner product ⟨x, y⟩ = x*y, the Stinespring
representation ρ of A, and the commutant lifting ρ' of B'.  Complete
quasi-orthonormal systems are produced by a deterministic module
Gram–Schmidt: orthogonalize against the accepted elements, polar-decompose
the remainder, keep the partial-isometry part.
"""

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg_mod
from .algebra import (AlgebraElement, commutant, coordinate_basis_stack,
                      coordinates, identity, represent)
from .cpmap import CPMap, basis_images
from .errors import (BadSeed, DimensionCap, IncompleteQONS, NotCP,
                     NotInAlgebra, NotInTargetAlgebra)
from .numerics import (DEFAULT_TOL, as_complex, frob, frob_each,
                       hermitian_eig, null_space, psd_functions)

H_DIM_CAP = 512


@dataclass(frozen=True)
class GNSData:
    """Stinespring bundle of a CP map.

    ``rho_ops``/``rho_prime_ops`` hold the representation matrices of the
    source coordinate basis and of the target-commutant coordinate basis on
    H.  ``xi`` is the cyclic vector as an operator G → H, and
    ``module_basis`` is a Hilbert–Schmidt-orthonormal basis of the module
    E = span{ρ(a)·ξ·b} ⊂ B(G, H).
    """

    cpmap: CPMap
    h_dim: int
    rho_ops: np.ndarray
    rho_prime_ops: np.ndarray
    xi: np.ndarray
    module_basis: np.ndarray
    gram_eigenvalues: np.ndarray = field(repr=False)

    @property
    def source(self):
        return self.cpmap.source

    @property
    def target(self):
        return self.cpmap.target

    def rho(self, a: AlgebraElement) -> np.ndarray:
        """Stinespring representation of a source element."""
        return np.tensordot(coordinates(a), self.rho_ops, axes=1)

    def rho_prime(self, c: AlgebraElement) -> np.ndarray:
        """Commutant lifting of a target-commutant element."""
        return np.tensordot(coordinates(c), self.rho_prime_ops, axes=1)


def gns(s: CPMap, tol: float = DEFAULT_TOL, h_cap: int = H_DIM_CAP) -> GNSData:
    """GNS/Stinespring construction for a CP map.

    H is the range of the Gram form (eigenvalues > tol·‖Gram‖ kept), ρ acts
    by left multiplication, ρ' by the right action of the target commutant,
    and ξg = [1⊗g].  Raises NotCP when the map's flag is unset and
    DimensionCap when the rank exceeds ``h_cap``.
    """
    if not s.is_cp:
        raise NotCP("GNS construction requires a completely positive map")
    source, target = s.source, s.target
    n_a = source.coord_dim
    dim_g = target.ambient_dim

    # For x_i = E_uv and x_j = E_u'v' of one block, x_i*·x_j = δ_uu'·E_vv';
    # products across blocks vanish.  So the Gram form needs S only on the
    # coordinate basis.
    images = represent(basis_images(target, s.action))
    gram = np.zeros((n_a, dim_g, n_a, dim_g), dtype=np.complex128)
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        span = slice(off, off + d * d)
        tile = images[span].reshape(d, d, dim_g, dim_g)
        gram[span, :, span, :] = np.einsum(
            "uw,vygh->uvgwyh", np.eye(d), tile).reshape(d * d, dim_g, d * d, dim_g)
    gram = gram.reshape(n_a * dim_g, n_a * dim_g)

    eig = hermitian_eig(gram, tol)
    kept = eig.values > tol * eig.scale
    h_dim = int(np.count_nonzero(kept))
    if h_dim > h_cap:
        raise DimensionCap(f"GNS dimension {h_dim} exceeds cap {h_cap}")
    lam = eig.values[kept]
    u = eig.vectors[:, kept]
    # q maps A⊗G coordinates onto H isometrically for the Gram form;
    # lift is its right inverse supported on the kept eigenspace.
    q = (np.sqrt(lam)[:, None] * u.conj().T).reshape(h_dim, n_a, dim_g)
    lift = (u / np.sqrt(lam)[None, :]).reshape(n_a, dim_g, h_dim)

    # ρ(E_uv) sends [E_v'z⊗g] to δ_vv'·[E_uz⊗g], one block of A at a time.
    rho_ops = np.empty((n_a, h_dim, h_dim), dtype=np.complex128)
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        span = slice(off, off + d * d)
        rho_ops[span] = np.einsum(
            "huzg,vzgk->uvhk", q[:, span].reshape(h_dim, d, d, dim_g),
            lift[span].reshape(d, d, dim_g, h_dim),
            optimize=True).reshape(d * d, h_dim, h_dim)

    # ρ'(c) sends [x⊗g] to [x⊗c·g].
    rho_prime_ops = alg_mod.basis_sandwich(commutant(target), q, lift)

    xi = np.einsum("hag,a->hg", q, coordinates(identity(source)))

    module_basis = _module_basis(s, rho_ops, xi, tol)

    data = GNSData(cpmap=s, h_dim=h_dim, rho_ops=rho_ops,
                   rho_prime_ops=rho_prime_ops, xi=xi,
                   module_basis=module_basis, gram_eigenvalues=eig.values)

    expected = _intertwiner_dimension(data, tol)
    if expected != module_basis.shape[0]:
        raise ArithmeticError(
            "module span does not match the commutant intertwiner space "
            f"({module_basis.shape[0]} vs {expected})")
    return data


def _intertwiner_dimension(data: GNSData, tol: float) -> int:
    """dim C_{B'}(B(G,H)) from the irrep multiplicities of ρ' on H.

    For each block of B' (irrep dimension m, multiplicity d inside G) the
    isotypic multiplicity in H is tr ρ'(z)/m for the central projection z,
    and the intertwiner space contributes d·(that multiplicity).
    """
    target_comm = commutant(data.target)
    total = 0
    pos = 0
    for dim_m, mult_d in target_comm.blocks:
        z_coords = np.zeros(target_comm.coord_dim, dtype=np.complex128)
        for u in range(dim_m):
            z_coords[pos + u * dim_m + u] = 1.0
        z = alg_mod.element_from_coordinates(target_comm, z_coords)
        trace = float(np.real(np.trace(data.rho_prime(z))))
        mu = trace / dim_m
        if abs(mu - round(mu)) > max(tol, 1e-8) * max(1.0, trace):
            raise ArithmeticError(f"non-integer isotypic multiplicity {mu}")
        total += mult_d * int(round(mu))
        pos += dim_m * dim_m
    return total


def _module_basis(s: CPMap, rho_ops, xi, tol: float) -> np.ndarray:
    """HS-orthonormal basis of span{ρ(a)·ξ·b}, in fixed candidate order."""
    reps_b = represent(coordinate_basis_stack(s.target))
    picked = []
    for left in rho_ops @ xi:
        for cand in left @ reps_b:
            w = cand.copy()
            for _ in range(2):  # two GS passes keep the drop test clean
                for b in picked:
                    w -= b * np.vdot(b, w)
            nw = frob(w)
            if nw > tol * max(1.0, frob(cand)):
                picked.append(w / nw)
    if not picked:
        raise ArithmeticError("empty module span")
    return np.stack(picked)


def module_element(data: GNSData, a: AlgebraElement, b: AlgebraElement) -> np.ndarray:
    """The module element ρ(a)·ξ·b as an operator G → H."""
    return data.rho(a) @ data.xi @ represent(b)


def inner_product(data: GNSData, x, y, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """B-valued inner product ⟨x, y⟩ = x*y of two module elements.

    Raises NotInTargetAlgebra when the product fails membership in B, which
    signals that x or y is not actually in the module.
    """
    x = as_complex(x)
    y = as_complex(y)
    prod = x.conj().T @ y
    try:
        return alg_mod.decompose(data.target, prod, max(tol, 1e-9))
    except NotInAlgebra as exc:
        raise NotInTargetAlgebra(str(exc), exc.residual) from exc


def intertwiner_space(left_ops, right_mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal basis of {x : L_k x = x R_k for all k}.

    ``left_ops`` is (n, H, H), ``right_mats`` is (n, G, G); the result is
    (dim, H, G).  Used with the commutant lifting to recover the module and,
    with roles exchanged, to compute the commutant module.
    """
    left_ops = as_complex(left_ops)
    right_mats = as_complex(right_mats)
    n, h, _ = left_ops.shape
    g = right_mats.shape[-1]
    eye_h = np.eye(h, dtype=np.complex128)
    eye_g = np.eye(g, dtype=np.complex128)
    rows = [np.kron(left_ops[k], eye_g) - np.kron(eye_h, right_mats[k].T)
            for k in range(n)]
    ns = null_space(np.vstack(rows), tol)
    return ns.T.reshape(-1, h, g)


def polar_decompose_module(data: GNSData, x, tol: float = DEFAULT_TOL):
    """Module polar decomposition x = x₀·|x|.

    |x| is the PSD square root of ⟨x, x⟩ taken blockwise in B with one
    global spectral threshold, x₀ = x·pinv(|x|) is a partial isometry with
    ⟨x₀, x₀⟩ = support(⟨x, x⟩).  Returns (x₀, |x|, support).
    """
    x = as_complex(x)
    t = inner_product(data, x, x, tol)
    scale = 0.0
    for b in t.block_matrices:
        eig = hermitian_eig(b, max(tol, 1e-9))
        if eig.values.size:
            scale = max(scale, eig.scale)
    sqrt_blocks, pinv_blocks, supp_blocks = [], [], []
    for b in t.block_matrices:
        fns = psd_functions(b, tol, scale=scale)
        sqrt_blocks.append(fns.sqrt)
        pinv_blocks.append(fns.pinv_sqrt)
        supp_blocks.append(fns.support)
    absx = AlgebraElement(data.target, tuple(sqrt_blocks))
    pinv = AlgebraElement(data.target, tuple(pinv_blocks))
    support = AlgebraElement(data.target, tuple(supp_blocks))
    x0 = x @ represent(pinv)
    return x0, absx, support


@dataclass(frozen=True)
class QONS:
    """Quasi-orthonormal system: elements e_i (operators G → H) with
    projections p_i = ⟨e_i, e_i⟩ in B, and the completeness projection
    Σ e_i e_i* on H."""

    elements: tuple
    projections: tuple
    p_completeness: np.ndarray
    relation_residual: float
    completeness_residual: float

    def __len__(self):
        return len(self.elements)


def _qons_relation_residual(elements, projections) -> float:
    """max over all pairs of ‖e_i*·e_j − δ_ij·p_i‖."""
    if not elements:
        return 0.0
    e = np.stack(elements)
    prods = np.einsum("ihg,jhf->ijgf", e.conj(), e, optimize=True)
    k = len(elements)
    alg = projections[0].algebra
    p = alg_mod.element_from_coordinates(
        alg, np.stack([coordinates(x) for x in projections]))
    prods[np.arange(k), np.arange(k)] -= represent(p)
    return float(np.max(frob_each(prods)))


def qons(data: GNSData, seed=None, tol: float = DEFAULT_TOL) -> QONS:
    """Complete quasi-orthonormal system for the module, extending a seed.

    With no seed and a unital map the cyclic vector ξ is the first element
    (p₀ = 1).  The remaining elements come from a module Gram–Schmidt over
    the fixed module basis: subtract projections onto accepted elements,
    skip candidates whose self-inner-product is below tolerance, otherwise
    polar-decompose and append.  Deterministic given the basis ordering.
    """
    elements, projections = [], []

    if seed is None:
        seed = [data.xi] if data.cpmap.is_unital else []
    for raw in seed:
        e = as_complex(raw)
        try:
            t = inner_product(data, e, e, tol)
        except NotInTargetAlgebra as exc:
            raise BadSeed(f"seed element is not in the module: {exc}") from exc
        herm = max(frob(b - b.conj().T) for b in t.block_matrices)
        idem = (t @ t - t).norm()
        if herm > max(tol, 1e-9) or idem > max(tol, 1e-9):
            raise BadSeed(
                f"seed self-product is not a projection (residuals {herm:.3e}, {idem:.3e})")
        for prev in elements:
            cross = frob(prev.conj().T @ e)
            if cross > max(tol, 1e-9):
                raise BadSeed(f"seed elements are not orthogonal (residual {cross:.3e})")
        elements.append(e)
        projections.append(t)

    for cand in data.module_basis:
        y = cand.copy()
        for _ in range(2):
            for e in elements:
                y -= e @ (e.conj().T @ y)
        t = inner_product(data, y, y, tol)
        if t.norm() <= tol:
            continue
        e, _, p = polar_decompose_module(data, y, tol)
        elements.append(e)
        projections.append(p)

    p_total = sum(e @ e.conj().T for e in elements) if elements \
        else np.zeros((data.h_dim, data.h_dim), dtype=np.complex128)
    completeness = frob(p_total - np.eye(data.h_dim))
    if completeness > max(tol, 1e-8) * max(1.0, data.h_dim ** 0.5):
        raise IncompleteQONS(
            f"system does not sum to the identity (residual {completeness:.3e})")
    relation = _qons_relation_residual(elements, projections)
    return QONS(elements=tuple(elements), projections=tuple(projections),
                p_completeness=p_total, relation_residual=relation,
                completeness_residual=completeness)


@dataclass(frozen=True)
class ModuleEmbedding:
    """Identification of the module with p_I(B⊗K) via a complete QONS.

    ``u`` is the unitary H → range(p_I) ⊂ G⊗K (K leg slowest) sending
    e_i·b·g to (p_i b g)⊗k_i; ``p_i_matrix`` is the diagonal projection
    Σ_i p_i ⊗ |k_i⟩⟨k_i| on the product space.
    """

    k_dim: int
    u: np.ndarray
    p_i_matrix: np.ndarray
    system: QONS

    def coefficient(self, data: GNSData, j: int, i: int, a: AlgebraElement,
                    tol: float = DEFAULT_TOL) -> AlgebraElement:
        """Matrix coefficient ⟨e_j, a·e_i⟩ ∈ p_j B p_i."""
        ej = self.system.elements[j]
        ei = self.system.elements[i]
        return inner_product(data, ej, data.rho(a) @ ei, tol)


def embed_qons(data: GNSData, system: QONS, tol: float = DEFAULT_TOL) -> ModuleEmbedding:
    """Embed H into G⊗K through a complete QONS; K_dim = |system|."""
    if system.completeness_residual > max(tol, 1e-8) * max(1.0, data.h_dim ** 0.5):
        raise IncompleteQONS("embedding requires a complete system")
    u = np.vstack([e.conj().T for e in system.elements])
    return ModuleEmbedding(k_dim=len(system), u=u,
                           p_i_matrix=u @ u.conj().T, system=system)
