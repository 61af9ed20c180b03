"""Weak tensor dilations of unital CP maps, stored and certified factored.

Given a unital CP map S: A → B, a complete quasi-orthonormal system of the
GNS module gives an isometry U from the Stinespring space H onto the range
of p_I inside G⊗K, and j(a) = U ρ(a) U* is a homomorphism A → B⊗B(K) with
(id⊗⟨k₀,·k₀⟩)∘j = S.  Ambient matrices on the product space carry the K
leg slowest, so j(a) is literally the K×K block matrix of the coefficients
⟨e_j, a e_i⟩ ∈ B.

A dilation is kept as that pair: the isometry V (here U) and the
representation π (here ρ) that it conjugates, j(x) = V·π(x)·V*.  A
dilation recovered from an extension has the same form with π = ρ′ (see
``duality.dilation_from_extension``).  The certificate is computed from
V and π, and the dense matrices of j are only built when they are read.

For non-unital S the cyclic vector is polar-decomposed first and the
identity S(a) = |ξ|·(id⊗ψ)(j(a))·|ξ| is verified instead.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algebra import AlgebraElement, represent
from .cpmap import CPMap, basis_images
from .errors import NotCP, NotUnital
from .numerics import DEFAULT_TOL, RESIDUAL_FLOOR, frob_each
from .vnmodule import (GNSData, QONS, complete_seed, embed_qons, gns,
                       isometry_defect, membership_residual,
                       polar_decompose_module, qons)

VERIFY_TOL = RESIDUAL_FLOOR


@dataclass(frozen=True)
class DilationCertificate:
    """Residuals of a dilation j(x) = V·π(x)·V*, computed from V and π.

    With D = V*V − I_H, ε_D is the largest Frobenius norm of a block of D
    between two row blocks of H, the ranges of the matrix units of
    ``h_alg`` (r_i×r_k blocks; there are N = Σ_i d_i row blocks).  M ≥ 1
    bounds ‖V‖_op and T ≥ 1 bounds ‖π(x)‖_op over the matrix units x of
    the source and its block units; T = 1 when π = ρ.  Each key bounds the
    residual that the dense check of the matrices j(x) would report:

    - ``homomorphism`` = max(ε_D, π's own R1–R3).  Since
      j(x)·j(y) − j(z) = V·(π(x)·D·π(y) + π(x)·π(y) − π(z))·V*, every
      relation R1 j(E_u0)·j(E_0v) = j(E_uv), R2 j(E_0u)·j(E_v0) = δ_uv·j(E_00)
      and R3 j(1_i)·j(1_k) = 0 of j is at most M²·(T²·N + 1)·homomorphism.
      π's relations are 0 for ρ and those of the τ_i for ρ′.
    - ``star``: π's star residual, 0 for ρ; ‖j(x*) − j(x)*‖ ≤ M²·star.
    - ``membership``: the largest ‖c·V_k − V_k·σ(c)‖ over the coordinate
      basis c of the target's commutant and the K row blocks V_k (G×H) of
      V, the K-blocks of (c⊗I_K)·V − V·σ(c), with V·σ(c) formed as
      (σ(c*)·V*)*, maxed with σ's star residual.  σ is the representation
      of that commutant on H that commutes with π exactly: ρ′ when π = ρ,
      ρ when π = ρ′.  Every K-block of every j(x) is then within
      (Σ_b m_b)·M·T·(M + 2)·membership of B, m_b the block dims of the
      commutant.  For a full target the commutant is ℂ·1, membership is
      vacuous and reads 0.  When π = ρ the blocks V_k are the adjoints
      of the QONS elements e_k, and membership is the only check that ξ
      and the elements ``qons`` completes intertwine, ρ′(c)·e_k = e_k·c.
    - ``expectation``: the largest ‖W·π(x)·W* − S(x)‖ with
      W = (ψ*⊗I_G)·V, sandwiched by |ξ| in the non-unital case; it equals
      (id⊗ψ)(j(x)) − S(x).
    - ``unit_projection`` = max(ε_D, ‖π(1) − I_H‖).  With p_I = V·V*,
      p_I² − p_I = V·D·V* and j(1) − p_I = V·(π(1) − I)·V*, so both are at
      most M²·N·unit_projection, and p_I is Hermitian by construction.
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
    """A homomorphism j: A → B⊗B(K), j(x) = V·π(x)·V*, with a
    distinguished vector state on K.

    ``isometry`` is V: H → G⊗K (K leg slowest), and π is the
    representation ρ of ``gns_data``, or its commutant lifting ρ′ when
    ``lifted`` (then A is the commutant of the GNS map's target and
    ``gns_data`` is the GNS data of that map, not of ``cpmap``).
    ``psi_vector`` is the state vector in K; the constructive path places
    it at the first basis slot (the ξ slot of the QONS), recovery from an
    extension may place it anywhere.  For non-unital maps ``absxi`` holds
    |ξ| and the expectation identity is the sandwiched one.
    """

    cpmap: CPMap
    k_dim: int
    psi_vector: np.ndarray
    isometry: np.ndarray = field(repr=False)
    gns_data: GNSData = field(repr=False)
    lifted: bool = False
    certificate: DilationCertificate = None
    absxi: AlgebraElement = None

    @property
    def j_ops(self) -> np.ndarray:
        """The ambient matrices j(x) over the source coordinate basis,
        (n_A, K·G, K·G), built on every read."""
        return _pi_conjugation(self, self.isometry)

    @property
    def p_i_matrix(self) -> np.ndarray:
        """p_I = V·V* = j(1), built on every read."""
        return self.isometry @ self.isometry.conj().T

    def j(self, a: AlgebraElement) -> np.ndarray:
        """Ambient matrix of j(a) = V·π(a)·V* on G⊗K."""
        data, v = self.gns_data, self.isometry
        pi = data.rho_prime(a) if self.lifted else data.rho(a)
        return v @ pi @ v.conj().T

    def j_basis_action(self, w) -> np.ndarray:
        """j(x_a)·w = V·π(x_a)·(V*·w) for every source coordinate basis
        element x_a: (n_A, K·G) for a vector w, (n_A, K·G, q) for an
        operator w of shape (K·G, q)."""
        data, v = self.gns_data, self.isometry
        pi = data.rho_prime_basis_action if self.lifted else data.rho_basis_action
        moved = pi(v.conj().T @ w)
        return moved @ v.T if moved.ndim == 2 else v @ moved


def _pi_conjugation(d: WeakTensorDilation, u) -> np.ndarray:
    """u·π(x_a)·u* for every source coordinate basis element x_a."""
    if d.lifted:
        return d.gns_data.rho_prime_compression(u.conj().T)
    return d.gns_data.rho_basis_conjugation(u)


def _gram_block_maximum(d: WeakTensorDilation) -> float:
    """ε_D: the largest Frobenius norm of a block of V*V − I_H between two
    row blocks (r_i rows each) of H."""
    defect = isometry_defect(d.isometry)
    starts, pos = [], 0
    for dim, r in d.gns_data.h_alg.blocks:
        if r:
            starts += range(pos, pos + dim * r, r)
        pos += dim * r
    squares = defect.real ** 2 + defect.imag ** 2
    sums = np.add.reduceat(np.add.reduceat(squares, starts, axis=0), starts,
                           axis=1)
    return float(np.sqrt(np.max(sums)))


def verify_dilation(d: WeakTensorDilation) -> DilationCertificate:
    """Recompute every dilation identity from the factors V and π.

    ``DilationCertificate`` states each residual and the bound it gives on
    the dense check of the matrices j(x): the homomorphism relations, the
    star identity, membership of every K-block of every j(x) in B, the
    expectation identity ((id⊗ψ)∘j = S, sandwiched by |ξ| in the non-unital
    case) and that j(1) = p_I is an orthogonal projection.  Its largest
    arrays are the H² of V*V, the n_A·G² of the expectation, which costs
    n_A·G·H², and a chunk of membership, about max(K·G·H,
    ``CHUNK_ENTRIES``) entries.
    """
    target = d.cpmap.target
    # ρ is exact; ρ′ is π when lifted, and σ otherwise
    data = d.gns_data
    pi_rel = pi_star = pi_unit = sigma_star = 0.0
    if d.lifted:
        pi_rel, pi_star, pi_unit = data.rho_prime_residuals()
        sigma = data.rho_basis_action
    else:
        sigma = data.rho_prime_basis_action
        if not target.is_full():
            sigma_star = data.rho_prime_star_residual()
    gram = _gram_block_maximum(d)

    w = np.tensordot(np.conj(d.psi_vector),
                     d.isometry.reshape(d.k_dim, target.ambient_dim, -1),
                     axes=1)
    got = _pi_conjugation(d, w)
    if d.absxi is not None:
        sandwich = represent(d.absxi)
        got = sandwich @ got @ sandwich
    images = represent(basis_images(target, d.cpmap.action))
    expectation = float(np.max(frob_each(got - images)))

    return DilationCertificate(
        homomorphism=max(gram, pi_rel), star=pi_star,
        membership=max(sigma_star,
                       membership_residual(target, d.isometry, sigma)),
        expectation=expectation, unit_projection=max(gram, pi_unit))


def _assemble(s: CPMap, data: GNSData, system: QONS, tol: float,
              absxi: AlgebraElement = None) -> WeakTensorDilation:
    emb = embed_qons(data, system, tol)
    psi = np.zeros(emb.k_dim, dtype=np.complex128)
    psi[0] = 1.0
    d = WeakTensorDilation(cpmap=s, k_dim=emb.k_dim, psi_vector=psi,
                           isometry=emb.u, gns_data=data, absxi=absxi)
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
    S(a) = |ξ|·(id⊗ψ)(j(a))·|ξ|.  Returns ``(dilation, |ξ|)``.  ξ₀ is
    built here, so it is completed as a library seed: verify's membership
    is the one check that it intertwines B'.
    """
    if not s.is_cp:
        raise NotCP("recovery requires a completely positive map")
    data = gns(s, tol)
    xi0, absxi, _ = polar_decompose_module(data, data.xi, tol)
    system = complete_seed(data, [xi0], tol)
    d = _assemble(s, data, system, tol, absxi=absxi)
    return d, absxi
