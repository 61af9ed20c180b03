"""Weak tensor dilations of unital CP maps.

Given a unital CP map S: A → B, a complete quasi-orthonormal system of the
GNS module gives a unitary U from the Stinespring space H onto the range of
p_I inside G⊗K, and j(a) = U ρ(a) U* is a homomorphism A → B⊗B(K) with
(id⊗⟨k₀,·k₀⟩)∘j = S.  Ambient matrices on the product space carry the K
leg slowest, so j(a) is literally the K×K block matrix of the coefficients
⟨e_j, a e_i⟩ ∈ B.

For non-unital S the cyclic vector is polar-decomposed first and the
identity S(a) = |ξ|·(id⊗ψ)(j(a))·|ξ| is verified instead.
"""

from dataclasses import asdict, dataclass, field, replace
from itertools import permutations

import numpy as np

from .algebra import (AlgebraElement, MatrixBlockAlgebra, coordinates,
                      identity, project_to_algebra, represent, slice_map)
from .cpmap import CPMap, basis_images
from .errors import NotCP, NotUnital
from .numerics import DEFAULT_TOL, RESIDUAL_FLOOR, frob, frob_each
from .vnmodule import (GNSData, QONS, embed_qons, gns, polar_decompose_module,
                       qons)

VERIFY_TOL = RESIDUAL_FLOOR


@dataclass(frozen=True)
class DilationCertificate:
    """Residual norms of all verified dilation identities.

    ``homomorphism`` is the largest Frobenius residual ε of the relations,
    per block i of A with P = j(E_00), R1 j(E_u0)·j(E_0v) = j(E_uv),
    R2 j(E_0u)·j(E_v0) = δ_uv·P and R3 j(1_i)·j(1_k) = 0 (i ≠ k).  With
    M ≥ 1 bounding ‖j(x)‖_op over matrix units x and the j(1_i), every pair
    of matrix units has ‖j(x)·j(y) − j(xy)‖ ≤ 5·M²·ε in one block and
    ≤ (1 + 5·(d_i + d_k))·M⁴·ε for x in block i and y in block k ≠ i.
    """

    homomorphism: float
    star: float
    membership: float
    expectation: float
    unit_projection: float

    @property
    def max_residual(self) -> float:
        return max(self.homomorphism, self.star, self.membership,
                   self.expectation, self.unit_projection)

    def as_dict(self):
        return {**asdict(self), "max_residual": self.max_residual}


@dataclass(frozen=True)
class WeakTensorDilation:
    """A homomorphism j: A → B⊗B(K) with a distinguished vector state on K.

    ``j_ops`` stacks the ambient matrices j(x) over the source coordinate
    basis (K leg slowest).  ``psi_vector`` is the state vector in K; the
    constructive path places it at the first basis slot (the ξ slot of the
    QONS), recovery from an extension may place it anywhere.  For non-unital
    maps ``absxi`` holds |ξ| and the expectation identity is the sandwiched
    one.
    """

    cpmap: CPMap
    k_dim: int
    psi_vector: np.ndarray
    j_ops: np.ndarray
    p_i_matrix: np.ndarray
    certificate: DilationCertificate = None
    absxi: AlgebraElement = None
    gns_data: GNSData = field(default=None, repr=False)
    system: QONS = field(default=None, repr=False)

    def j(self, a: AlgebraElement) -> np.ndarray:
        """Ambient matrix of j(a) on G⊗K."""
        return np.tensordot(coordinates(a), self.j_ops, axes=1)

    def expectation_ambient(self, m) -> np.ndarray:
        """(id⊗ψ) applied to an ambient matrix on G⊗K."""
        return slice_map(m, self.psi_vector, self.cpmap.target.ambient_dim)


def _homomorphism_residual(source: MatrixBlockAlgebra, j_ops) -> float:
    """R1–R3 of ``DilationCertificate``: 2·d_i² products per block of A."""
    worst, units = 0.0, []
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        e = j_ops[off:off + d * d].reshape((d, d) + j_ops.shape[1:])
        for u in range(d):
            r1 = np.einsum("ij,bjk->bik", e[u, 0], e[0], optimize=True)
            r1 -= e[u]
            r2 = np.einsum("ij,bjk->bik", e[0, u], e[:, 0], optimize=True)
            r2[u] -= e[0, 0]
            worst = max(worst, *frob_each(r1), *frob_each(r2))
        units.append(np.trace(e))
    cross = [frob(x @ y) for x, y in permutations(units, 2)]
    return float(max([worst, *cross]))


def _star_residual(source: MatrixBlockAlgebra, j_ops) -> float:
    """max ‖j(E_vu) − j(E_uv)*‖ over the matrix units of A, compared one
    row u of one block at a time, so no copy of the whole ``j_ops`` is
    made."""
    worst = 0.0
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        e = j_ops[off:off + d * d].reshape((d, d) + j_ops.shape[1:])
        for u in range(d):
            diff = e[:, u].copy()
            diff -= np.conj(np.swapaxes(e[u], -1, -2))
            worst = max(worst, float(np.max(frob_each(diff))))
    return worst


def verify_dilation(d: WeakTensorDilation) -> DilationCertificate:
    """Recompute every dilation identity directly from the stored matrices.

    Checks the matrix-unit relations R1–R3 of j (``DilationCertificate``
    states them and their bound on ‖j(x)·j(y) − j(xy)‖: 5·M²·ε within a
    block, (1 + 5·(d_i + d_k))·M⁴·ε across blocks), *-preservation of j
    over the coordinate basis, membership of every K-block of every j(x)
    in B, the expectation identity ((id⊗ψ)∘j = S, sandwiched by |ξ| in the
    non-unital case), and that j(1) = p_I is an orthogonal projection.
    """
    source = d.cpmap.source
    target = d.cpmap.target
    j_ops = d.j_ops
    hom = _homomorphism_residual(source, j_ops)

    star = _star_residual(source, j_ops)

    # Every K×K block of every j(x) at once: (n_A, K, K, G, G).
    g_dim = target.ambient_dim
    blocks = j_ops.reshape(-1, d.k_dim, g_dim, d.k_dim, g_dim)
    _, residuals = project_to_algebra(target, blocks.transpose(0, 1, 3, 2, 4))
    membership = float(np.max(residuals))

    got = d.expectation_ambient(j_ops)
    if d.absxi is not None:
        sandwich = represent(d.absxi)
        got = sandwich @ got @ sandwich
    images = represent(basis_images(target, d.cpmap.action))
    expectation = float(np.max(frob_each(got - images)))

    j_unit = d.j(identity(source))
    unit_res = max(frob(j_unit - d.p_i_matrix),
                   frob(d.p_i_matrix @ d.p_i_matrix - d.p_i_matrix),
                   frob(d.p_i_matrix - d.p_i_matrix.conj().T))

    return DilationCertificate(homomorphism=hom, star=star,
                               membership=membership, expectation=expectation,
                               unit_projection=unit_res)


def _assemble(s: CPMap, data: GNSData, system: QONS, tol: float,
              absxi: AlgebraElement = None) -> WeakTensorDilation:
    emb = embed_qons(data, system, tol)
    j_ops = data.rho_basis_conjugation(emb.u)
    psi = np.zeros(emb.k_dim, dtype=np.complex128)
    psi[0] = 1.0
    d = WeakTensorDilation(cpmap=s, k_dim=emb.k_dim, psi_vector=psi,
                           j_ops=j_ops, p_i_matrix=emb.p_i_matrix,
                           absxi=absxi, gns_data=data, system=system)
    return replace(d, certificate=verify_dilation(d))


def weak_tensor_dilation(s: CPMap, seed_qons=None, tol: float = DEFAULT_TOL,
                         data: GNSData = None) -> WeakTensorDilation:
    """Construct and verify a weak tensor dilation of a unital CP map.

    Pipeline: GNS construction, complete QONS (seeded with ξ, or with the
    caller's seed), embedding into G⊗K.  The certificate is attached and
    holds the residuals of all identities.  A precomputed GNSData for the
    same map can be passed to avoid rebuilding it.
    """
    if not s.is_cp:
        raise NotCP("dilation requires a completely positive map")
    if not s.is_unital:
        raise NotUnital("use nonunital_recovery for non-unital maps")
    if data is None:
        data = gns(s, tol)
    system = qons(data, seed_qons, tol)
    return _assemble(s, data, system, tol)


def nonunital_recovery(s: CPMap, tol: float = DEFAULT_TOL):
    """Dilation-style recovery of a non-unital CP map.

    The cyclic vector is polar-decomposed as ξ = ξ₀|ξ| with
    |ξ| = √⟨ξ,ξ⟩ = √S(1); the QONS is seeded with the partial isometry ξ₀
    (so p₀ = support S(1)) and the verified identity becomes
    S(a) = |ξ|·(id⊗ψ)(j(a))·|ξ|.  Returns ``(dilation, |ξ|)``.
    """
    if not s.is_cp:
        raise NotCP("recovery requires a completely positive map")
    data = gns(s, tol)
    xi0, absxi, _ = polar_decompose_module(data, data.xi, tol)
    system = qons(data, [xi0], tol)
    d = _assemble(s, data, system, tol, absxi=absxi)
    return d, absxi
