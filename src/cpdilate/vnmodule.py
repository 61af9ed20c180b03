"""GNS/Stinespring construction and concrete von Neumann modules.

For a CP map S: A → B (B acting on G) the GNS space H is the quotient of
A⊗G by the null space of the Gram form ⟨a⊗g, a'⊗g'⟩ = ⟨g, S(a*a')g'⟩.  On
the matrix units of A that form is ⊕_i I_{d_i}⊗C_i for the Choi blocks C_i,
so H = ⊕_i ℂ^{d_i}⊗ℂ^{r_i} is read off the Choi eigenpairs the map already
holds, r_i = rank C_i under one relative cut.  The module E is realized as
a space of operators G → H spanned by ρ(a)·ξ·b; it carries the B-valued
inner product ⟨x, y⟩ = x*y, the Stinespring representation ρ of A, and the
commutant lifting ρ' of B'.  Complete quasi-orthonormal systems are
produced by a deterministic module Gram–Schmidt: orthogonalize against the
accepted elements, polar-decompose the remainder, keep the partial-isometry
part.
"""

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg_mod
from .algebra import (AlgebraElement, MatrixBlockAlgebra, commutant,
                      coordinate_basis_stack, coordinates, represent)
from .cpmap import CPMap, stinespring_blocks
from .errors import (BadSeed, DimensionCap, IncompleteQONS, NotCP,
                     NotInAlgebra, NotInTargetAlgebra)
from .numerics import (DEFAULT_TOL, as_complex, frob, frob_each,
                       hermitian_eig, psd_functions)

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

    H = ⊕_i ℂ^{d_i}⊗ℂ^{r_i}, one summand per source block, where r_i is
    the number of Choi eigenvalues of block i kept by the single cut of
    ``stinespring_blocks``.  ρ(E_uv) = E_uv ⊗ I_{r_i}, the row (u, k) of
    ξ is ops[k, u], and ρ'(c) = I_{d_i} ⊗ Σ_v ops[:, v]·c·ops[:, v]*/λ.
    Raises NotCP when the map's flag is unset and DimensionCap, before
    anything of size H is allocated, when H exceeds ``h_cap``.
    """
    if not s.is_cp:
        raise NotCP("GNS construction requires a completely positive map")
    source, target = s.source, s.target
    blocks = stinespring_blocks(s, tol)
    h_alg = MatrixBlockAlgebra(blocks=tuple(
        (d, lam.size) for (d, _), (lam, _) in zip(source.blocks, blocks)))
    h_dim = h_alg.ambient_dim
    if h_dim > h_cap:
        raise DimensionCap(f"GNS dimension {h_dim} exceeds cap {h_cap}")

    rho_ops = represent(coordinate_basis_stack(h_alg))
    xi = np.concatenate([ops.transpose(1, 0, 2).reshape(-1, target.ambient_dim)
                         for _, ops in blocks])
    target_comm = commutant(target)
    rho_prime_ops = np.zeros((target_comm.coord_dim, h_dim, h_dim),
                             dtype=np.complex128)
    pos = 0
    for (d, r), (lam, ops) in zip(h_alg.blocks, blocks):
        rho_prime_ops[:, pos:pos + d * r, pos:pos + d * r] = np.kron(
            np.eye(d), alg_mod.basis_sandwich(target_comm, ops,
                                              ops.conj().transpose(1, 2, 0) / lam))
        pos += d * r

    module_basis = _module_basis(s, blocks, h_dim, tol)
    gram_eigenvalues = np.sort(np.concatenate([
        np.tile(eig.values, d) for (d, _), eig in zip(source.blocks, s.choi_eigs)]))[::-1]

    data = GNSData(cpmap=s, h_dim=h_dim, rho_ops=rho_ops,
                   rho_prime_ops=rho_prime_ops, xi=xi,
                   module_basis=module_basis, gram_eigenvalues=gram_eigenvalues)

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


def _module_basis(s: CPMap, blocks, h_dim: int, tol: float) -> np.ndarray:
    """HS-orthonormal basis of span{ρ(a)·ξ·b}, in fixed candidate order.

    On block i of H, ρ(E_uv)·ξ·b = e_u ⊗ (ops[:, v]·b), so the module is
    ⊕_i ℂ^{d_i}⊗V_i with V_i = span{ops[:, v]·b}.  Gram–Schmidt runs once
    per block over v, then b, and each result is tensored with every e_u.
    """
    reps_b = represent(coordinate_basis_stack(s.target))
    out = []
    pos = 0
    for _, ops in blocks:
        r, d, dim_g = ops.shape
        picked = []
        cands = ops.transpose(1, 0, 2)[:, None] @ reps_b
        for cand in cands.reshape(d * len(reps_b), r, dim_g):
            w = cand.copy()
            for _ in range(2):  # two GS passes keep the drop test clean
                for b in picked:
                    w -= b * np.vdot(b, w)
            nw = frob(w)
            if nw > tol * max(1.0, frob(cand)):
                picked.append(w / nw)
        for u in range(d):
            for w in picked:
                x = np.zeros((h_dim, dim_g), dtype=np.complex128)
                x[pos + u * r:pos + (u + 1) * r] = w
                out.append(x)
        pos += d * r
    if not out:
        raise ArithmeticError("empty module span")
    return np.stack(out)


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
