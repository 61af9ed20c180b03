"""GNS/Stinespring construction and concrete von Neumann modules.

For a CP map S: A → B (B acting on G) the GNS space H is the quotient of
A⊗G by the null space of the Gram form ⟨a⊗g, a'⊗g'⟩ = ⟨g, S(a*a')g'⟩.  On
the matrix units of A that form is ⊕_i I_{d_i}⊗C_i for the Choi blocks C_i,
so H = ⊕_i ℂ^{d_i}⊗ℂ^{r_i} is read off the Choi eigenpairs the map already
holds, r_i = rank C_i under one relative cut.  The module E is realized as
a space of operators G → H spanned by ρ(a)·ξ·b; it carries the B-valued
inner product ⟨x, y⟩ = x*y, the Stinespring representation ρ of A, and the
commutant lifting ρ' of B'.  Both are kept factored: ρ is the standard
representation of ⊕_i M_{d_i}⊗I_{r_i}, and ρ' is I_{d_i}⊗τ_i on block i
for small r_i×r_i stacks τ_i, so no stack of n matrices H×H is built.
E is the space of operators that intertwine ρ' with B', so it is fixed by
the multiplicities μ_i of the irreducible blocks of B' in ρ': its
dimension is Σᵢ dᵢ·μᵢ, dᵢ the multiplicity in G of block i of B', read
off the traces of the τ_i.  Both an HS-orthonormal basis of
E and complete quasi-orthonormal systems (Paschke) are built from that
decomposition in closed form, with no Gram–Schmidt: a seed, ξ for a unital
map, is completed block by block of B', and with the seed ξ the system has
the minimal size K = maxᵢ ⌈μᵢ/dᵢ⌉.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import algebra as alg_mod
from .algebra import (AlgebraElement, MatrixBlockAlgebra, commutant,
                      coordinates, represent)
from .cpmap import CPMap, stinespring_blocks
from .errors import (BadSeed, DimensionCap, IncompleteQONS, NotCP,
                     NotInAlgebra, NotInTargetAlgebra)
from .numerics import (DEFAULT_TOL, IDENTITY_FLOOR, RESIDUAL_FLOOR, as_complex,
                       floored, frob, frob_each, hermitian_eig, psd_functions)

H_DIM_CAP = 512
# entries of the largest temporary that a check taken in chunks forms
CHUNK_ENTRIES = 2 ** 17


@dataclass(frozen=True)
class GNSData:
    """Stinespring bundle of a CP map, with ρ and ρ' kept factored.

    ``h_alg`` = ⊕_i M_{d_i}⊗I_{r_i} is the image of A on H: ρ is its
    standard representation, ρ(E^i_uv) = E_uv⊗I_{r_i}.  ``tau`` holds,
    per source block i, the (n_{B'}, r_i, r_i) stack τ_i of the
    target-commutant coordinate basis, and ρ'(c) = I_{d_i}⊗τ_i(c) on
    block i of H.  No (n, H, H) stack of either representation is stored:
    ``rho_basis_action``, ``rho_prime_basis_action``,
    ``rho_basis_conjugation`` and ``rho_prime_compression`` apply them
    over a coordinate basis, ``rho_prime_residuals`` certifies ρ' from
    the τ_i, and ``rho`` and ``rho_prime`` materialize a single element.
    ``xi`` is the cyclic vector as an operator G → H, and ``module_dim`` =
    Σ_b d_b·μ_b is the dimension of the module E = span{ρ(a)·ξ·b} =
    C_{B'}(B(G, H)).
    ``module_basis``, an HS-orthonormal basis of E, is built only when
    read; ``bench/`` reads it.
    """

    cpmap: CPMap
    h_alg: MatrixBlockAlgebra
    tau: tuple = field(repr=False)
    xi: np.ndarray
    module_dim: int
    gram_eigenvalues: np.ndarray = field(repr=False)

    @property
    def source(self):
        return self.cpmap.source

    @property
    def target(self):
        return self.cpmap.target

    @property
    def h_dim(self) -> int:
        return self.h_alg.ambient_dim

    def rho(self, a: AlgebraElement) -> np.ndarray:
        """Stinespring representation of a source element, ⊕_i a_i⊗I_{r_i}."""
        return represent(AlgebraElement(self.h_alg, a.block_matrices))

    def rho_prime(self, c: AlgebraElement) -> np.ndarray:
        """Commutant lifting of an element of B', ⊕_i I_{d_i}⊗τ_i(c)."""
        x = coordinates(c)
        return _block_diagonal(self, [np.tensordot(x, t, axes=1)
                                      for t in self.tau])

    def rho_basis_action(self, v, coords=None) -> np.ndarray:
        """ρ(x_a)·v for every coordinate basis element x_a of A, or for the
        elements ``coords``: (n_A, H) for a vector v, (n_A, H, q) for an
        operator v of shape (H, q).  ρ is the standard representation of
        ``h_alg``, so this is its ``basis_action``."""
        return alg_mod.basis_action(self.h_alg, v, coords)

    def rho_basis_conjugation(self, u) -> np.ndarray:
        """u·ρ(x_a)·u* for every coordinate basis element x_a of A, stacked
        as (n_A, P, P) for u of shape (P, H).  With the column blocks U^i_v
        (P, r_i) of u on block i of H, u·ρ(E^i_vw)·u* = U^i_v·(U^i_w)*."""
        u = as_complex(u)
        p = u.shape[0]
        out = np.empty((self.h_alg.coord_dim, p, p), dtype=np.complex128)
        pos = 0
        for off, (d, r) in zip(self.h_alg.coord_offsets(), self.h_alg.blocks):
            cols = u[:, pos:pos + d * r].reshape(p, d, r).transpose(1, 0, 2)
            np.matmul(cols[:, None], cols.conj().transpose(0, 2, 1)[None],
                      out=out[off:off + d * d].reshape(d, d, p, p))
            pos += d * r
        return out

    def rho_prime_basis_action(self, v, coords=None) -> np.ndarray:
        """ρ'(x_c)·v for every coordinate basis element x_c of B', or for
        the elements ``coords``: (n_{B'}, H) for a vector v, (n_{B'}, H, q)
        for an operator v of shape (H, q).  On block i of H, τ_i(x_c) acts
        on the rows (u, ·) of v for each u."""
        v = as_complex(v)
        rows = v.reshape(self.h_dim, -1)
        taus = [t if coords is None else t[coords] for t in self.tau]
        out = np.empty((len(taus[0]),) + rows.shape, dtype=np.complex128)
        pos = 0
        for (d, r), t in zip(self.h_alg.blocks, taus):
            block = rows[pos:pos + d * r].reshape(d, r, -1)
            out[:, pos:pos + d * r] = np.matmul(t[:, None], block).reshape(
                len(t), d * r, -1)
            pos += d * r
        return out.reshape((-1,) + v.shape)

    def rho_prime_residuals(self):
        """How far ρ' is from a unital *-representation of B', as
        (relations, star, unit).  ``relations`` is the largest residual of
        the matrix-unit relations R1 ρ'(E_u0)·ρ'(E_0v) = ρ'(E_uv),
        R2 ρ'(E_0u)·ρ'(E_v0) = δ_uv·ρ'(E_00) per block of B' and
        R3 ρ'(1_b)·ρ'(1_c) = 0 for blocks b ≠ c; ``star`` is the largest
        ‖ρ'(x_c*) − ρ'(x_c)*‖ over the coordinate basis and ``unit`` is
        ‖ρ'(1) − I_H‖ (see ``rho_prime_star_residual``).  Each is the
        Frobenius norm on H of one relation, √(Σ_i d_i·‖…‖²) from the τ_i;
        the products are formed in chunks of ``CHUNK_ENTRIES``."""
        comm = commutant(self.target)
        # R1 and R2 as (left, right, minus) index triples over the basis;
        # minus −1 marks an R2 with u ≠ v, whose product should vanish
        left, right, minus, diagonal, starts = [], [], [], [], []
        for off, (m, _) in zip(comm.coord_offsets(), comm.blocks):
            u, v = np.divmod(np.arange(m * m), m)
            left += [off + u * m, off + u]
            right += [off + v, off + v * m]
            minus += [off + u * m + v, np.where(u == v, off, -1)]
            starts.append(sum(map(len, diagonal)))
            diagonal.append(off + np.arange(m) * (m + 1))
        left, right, minus = map(np.concatenate, (left, right, minus))
        n_blk = comm.block_count
        rel_sq = np.zeros(len(left) + n_blk * n_blk)
        unit_sq = 0.0
        for (d, r), t in zip(self.h_alg.blocks, self.tau):
            rel = np.empty(len(left))
            step = max(1, CHUNK_ENTRIES // max(1, r * r))
            for lo in range(0, len(left), step):
                chunk = slice(lo, lo + step)
                prod = t[left[chunk]] @ t[right[chunk]]
                drop = minus[chunk]
                prod[drop >= 0] -= t[drop[drop >= 0]]
                rel[chunk] = frob_each(prod)
            units = np.add.reduceat(t[np.concatenate(diagonal)], starts, axis=0)
            cross = frob_each(units[:, None] @ units[None])
            cross[np.diag_indices(n_blk)] = 0.0
            rel_sq += d * np.concatenate([rel, cross.ravel()]) ** 2
            unit_sq += d * frob(units.sum(axis=0) - np.eye(r)) ** 2
        return (float(np.sqrt(rel_sq.max())), self.rho_prime_star_residual(),
                float(np.sqrt(unit_sq)))

    def rho_prime_star_residual(self) -> float:
        """max ‖ρ'(x_c*) − ρ'(x_c)*‖ over the coordinate basis of B', the
        Frobenius norm on H from the τ_i, in chunks of ``CHUNK_ENTRIES``."""
        perm = alg_mod.adjoint_permutation(commutant(self.target))
        star_sq = np.zeros(len(perm))
        for (d, r), t in zip(self.h_alg.blocks, self.tau):
            step = max(1, CHUNK_ENTRIES // max(1, r * r))
            for lo in range(0, len(perm), step):
                chunk = slice(lo, lo + step)
                diff = t[perm[chunk]] - t[chunk].conj().transpose(0, 2, 1)
                star_sq[chunk] += d * frob_each(diff) ** 2
        return float(np.sqrt(star_sq.max()))

    def rho_prime_compression(self, x) -> np.ndarray:
        """x*·ρ'(x_c)·x for every coordinate basis element x_c of B', stacked
        as (n_{B'}, q, q) for x of shape (H, q): the sum over source blocks
        i of Σ_u x_u*·τ_i(x_c)·x_u, x_u (r_i, q) the row blocks of x."""
        x = as_complex(x)
        q = x.shape[1]
        n = len(self.tau[0])
        out = np.zeros((n, q, q), dtype=np.complex128)
        pos = 0
        for (d, r), t in zip(self.h_alg.blocks, self.tau):
            # rows (r, u) of x on block i, and τ_i(x_c) applied to each x_u
            rows = x[pos:pos + d * r].reshape(d, r, q).transpose(1, 0, 2)
            moved = t.reshape(n * r, r) @ rows.reshape(r, d * q)
            out += rows.reshape(r * d, q).conj().T @ moved.reshape(n, r * d, q)
            pos += d * r
        return out

    @cached_property
    def module_basis(self) -> np.ndarray:
        """HS-orthonormal basis of E, (module_dim, H, G), built on first read.

        Per block b of B' (M_m, multiplicity d in G, μ in H), element
        (k, l), k < μ and l < d, puts column k of W_s/√m into ambient column
        (l, s) for every s < m, W_s the frames of ``_isotypic_frames``.
        """
        target = self.target
        out = []
        for b, w in enumerate(_isotypic_frames(self)):
            m, d = len(w), target.blocks[b][0]
            h_dim, mu = w[0].shape
            cols = np.stack([_block_columns(target, b, s) for s in range(m)])
            x = np.zeros((mu, d, h_dim, target.ambient_dim), dtype=np.complex128)
            x[..., cols] = np.einsum("shk,lj->klhsj", np.stack(w),
                                     np.eye(d) / np.sqrt(m))
            out.append(x.reshape(mu * d, h_dim, -1))
        return np.concatenate(out)


def _block_diagonal(data: GNSData, taus) -> np.ndarray:
    """The H×H matrix ⊕_i I_{d_i}⊗taus[i], copied block by block.  A copy
    keeps the sign of every zero of the τ_i, which a product with
    coordinates does not, and a zero of the other sign can make the SVD
    of ``_range_basis`` return a column of the opposite sign."""
    out = np.zeros((data.h_dim, data.h_dim), dtype=np.complex128)
    pos = 0
    for (d, r), t in zip(data.h_alg.blocks, taus):
        for _ in range(d):
            out[pos:pos + r, pos:pos + r] = t
            pos += r
    return out


def _apply_block_diagonal(data: GNSData, taus, w) -> np.ndarray:
    """(⊕_i I_{d_i}⊗taus[i])·w for w of shape (…, H, q), block by block."""
    out = np.empty_like(w)
    pos = 0
    for (d, r), t in zip(data.h_alg.blocks, taus):
        rows = w[..., pos:pos + d * r, :]
        out[..., pos:pos + d * r, :] = (
            t @ rows.reshape(rows.shape[:-2] + (d, r, w.shape[-1]))
        ).reshape(rows.shape)
        pos += d * r
    return out


def gns(s: CPMap, tol: float = DEFAULT_TOL, h_cap: int = H_DIM_CAP) -> GNSData:
    """GNS/Stinespring construction for a CP map.

    H = ⊕_i ℂ^{d_i}⊗ℂ^{r_i}, one summand per source block, where r_i is
    the number of Choi eigenvalues of block i kept by the single cut of
    ``stinespring_blocks``.  ρ(E_uv) = E_uv ⊗ I_{r_i}, the row (u, k) of
    ξ is ops[k, u], and ρ'(c) = I_{d_i} ⊗ τ_i(c) with
    τ_i(c) = Σ_v unit[:, v]·c·unit[:, v]* for the unit eigenvectors
    unit[k] = ops[k]/√λ_k; only the τ_i are stored.
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

    xi = np.concatenate([ops.transpose(1, 0, 2).reshape(-1, target.ambient_dim)
                         for _, ops in blocks])
    target_comm = commutant(target)
    tau = []
    for lam, ops in blocks:
        unit = ops / np.sqrt(lam)[:, None, None]
        tau.append(alg_mod.basis_sandwich(target_comm, unit,
                                          unit.conj().transpose(1, 2, 0)))

    module_dim = _intertwiner_dimension(target_comm, h_alg, tau, tol)
    if module_dim == 0:
        raise ArithmeticError("empty module span")
    gram_eigenvalues = np.sort(np.concatenate([
        np.tile(eig.values, d) for (d, _), eig in zip(source.blocks, s.choi_eigs)]))[::-1]
    return GNSData(cpmap=s, h_alg=h_alg, tau=tuple(tau), xi=xi,
                   module_dim=module_dim, gram_eigenvalues=gram_eigenvalues)


def _intertwiner_dimension(target_comm: MatrixBlockAlgebra,
                           h_alg: MatrixBlockAlgebra, tau, tol: float) -> int:
    """dim C_{B'}(B(G,H)) = Σ_b d_b·μ_b from the irrep multiplicities of ρ'.

    For each block b of B' (irrep dimension m, multiplicity d inside G) the
    isotypic multiplicity in H is μ = tr ρ'(z_b)/m for the central
    projection z_b = Σ_u E_uu, and tr ρ'(z_b) = Σ_i d_i·tr τ_i(z_b) over
    the source blocks (d_i, r_i) of ``h_alg``.  Raises ArithmeticError
    when μ is not an integer.
    """
    total = 0
    for off, (dim_m, mult_d) in zip(target_comm.coord_offsets(),
                                    target_comm.blocks):
        diagonal = off + np.arange(dim_m) * (dim_m + 1)
        trace = float(sum(
            d * np.real(np.trace(t[diagonal], axis1=1, axis2=2).sum())
            for (d, _), t in zip(h_alg.blocks, tau)))
        mu = trace / dim_m
        if abs(mu - round(mu)) > floored(tol, IDENTITY_FLOOR, trace):
            raise ArithmeticError(f"non-integer isotypic multiplicity {mu}")
        total += mult_d * int(round(mu))
    return total


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
        return alg_mod.decompose(data.target, prod, floored(tol, RESIDUAL_FLOOR))
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
        eig = hermitian_eig(b, floored(tol, RESIDUAL_FLOOR))
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
    projections p_i = ⟨e_i, e_i⟩ in B.  The residuals are those of the
    relations e_i*·e_j = δ_ij·p_i and of the completeness Σ e_i e_i* = 1;
    ``qons`` raises when a caller's seed element does not intertwine,
    ρ'(c)·e_i ≠ e_i·c, and ``verify_dilation`` checks the other elements."""

    elements: tuple
    projections: tuple
    relation_residual: float
    completeness_residual: float

    def __len__(self):
        return len(self.elements)


def isometry_defect(v) -> np.ndarray:
    """V*V − I for an operator V with H columns; for V = [e₀*; e₁*; …]
    it is Σ e_i·e_i* − I."""
    defect = v.conj().T @ v
    defect[np.diag_indices_from(defect)] -= 1.0
    return defect


def membership_residual(target: MatrixBlockAlgebra, v, sigma_action) -> float:
    """max ‖c·V_k − V_k·σ(c)‖ over the coordinate basis c of the commutant
    of ``target`` and the row blocks V_k (G×H) of v (K leg slowest), with
    V_k·σ(c) formed as (σ(c*)·V_k*)*; ``sigma_action(w, coords)`` is
    σ(x_c)·w over the basis elements ``coords``.  c ↦ c* permutes the
    basis, so for V = [e₀*; e₁*; …] and σ = ρ' it is the largest
    ‖ρ'(c)·e_i − e_i·c‖, zero exactly on the module.  A full target has
    commutant ℂ·1 and reads 0.  The basis is taken in chunks of
    ``CHUNK_ENTRIES`` entries of (c⊗I_K)·V, at least one element each."""
    if target.is_full() or not v.size:
        return 0.0
    comm = commutant(target)
    g, h = target.ambient_dim, v.shape[1]
    k = v.shape[0] // g
    # V on the g leg with columns (k, h), which (c⊗I_K) moves, and V*
    rows = v.reshape(k, g, h).transpose(1, 0, 2).reshape(g, -1)
    v_star = v.conj().T
    perm = alg_mod.adjoint_permutation(comm)
    step = max(1, CHUNK_ENTRIES // v.size)
    worst = 0.0
    for lo in range(0, comm.coord_dim, step):
        chunk = slice(lo, lo + step)
        # (c⊗I_K)·V as (L, G, K, H), minus V·σ(c) = (σ(c*)·V*)* alike
        moved = alg_mod.basis_action(comm, rows, chunk).reshape(-1, g, k, h)
        sigma = sigma_action(v_star, perm[chunk])
        moved -= sigma.conj().reshape(-1, h, k, g).transpose(0, 3, 2, 1)
        sq = np.sum(moved.real ** 2 + moved.imag ** 2, axis=(1, 3))
        worst = max(worst, float(np.sqrt(np.max(sq))))
    return worst


def _qons_relation_residual(v, projections) -> float:
    """max over all pairs of ‖e_i*·e_j − δ_ij·p_i‖, the G×G blocks (i, j)
    of V·V* for V = [e₀*; e₁*; …]."""
    k, p = len(projections), represent(alg_mod.element_from_coordinates(
        projections[0].algebra, np.stack([coordinates(x) for x in projections])))
    blocks = (v @ v.conj().T).reshape(k, p.shape[1], k, p.shape[2])
    blocks[np.arange(k), :, np.arange(k)] -= p
    return float(np.max(frob_each(blocks.transpose(0, 2, 1, 3))))


def _isotypic_completion(data: GNSData, elements, projections):
    """Elements and projections that complete a quasi-orthonormal seed.

    Block b of B' is M_m acting on ℂ^m with multiplicity d in G, and with
    multiplicity μ in H.  W₀ (H×μ) is an orthonormal basis of the range of
    ρ'(E₀₀), W_s = ρ'(E_s0)·W₀, and Q_s (G×d) holds the 0/1 columns (r, s) of
    the block.  Every μ×d matrix T gives the module element
    x(T) = Σ_s W_s·T·Q_s*, with ⟨x(T), x(T')⟩ = T*T' on the d leg of
    block b.  The seed occupies the range of its coefficients W₀*·e·Q₀;
    a complete Householder QR gives an orthonormal basis of the rest,
    and element k takes its d columns from k·d on (fewer in the last
    chunk, which makes a partial projection).  So the system has
    max_b ⌈(μ_b − seed rank)/d_b⌉ new elements.
    """
    target, h_dim = data.target, data.h_dim
    comm = commutant(target)
    frames = _isotypic_frames(data)
    bases = []
    for b, (w, (_, d)) in enumerate(zip(frames, comm.blocks)):
        w0 = w[0]
        coeffs = [np.zeros((w0.shape[1], 0))]
        for e, p in zip(elements, projections):
            t = w0.conj().T @ e[:, _block_columns(target, b, 0)]
            # T*T is block b of ⟨e, e⟩; keep an orthonormal basis of its range
            v = _range_basis(p.block_matrices[b])
            coeffs.append(t if v.shape[1] == d else t @ v)
        seed = np.hstack(coeffs)
        bases.append(np.linalg.qr(seed, mode="complete")[0][:, seed.shape[1]:])

    k_new = max(-(-rest.shape[1] // d)
                for rest, (_, d) in zip(bases, comm.blocks))
    new = np.zeros((k_new, h_dim, target.ambient_dim), dtype=np.complex128)
    proj_blocks = []
    for b, (w, rest, (m, d)) in enumerate(zip(frames, bases, comm.blocks)):
        padded = np.zeros((rest.shape[0], k_new * d), dtype=np.complex128)
        padded[:, :rest.shape[1]] = rest
        for s in range(m):
            new[:, :, _block_columns(target, b, s)] = (w[s] @ padded).reshape(
                h_dim, k_new, d).transpose(1, 0, 2)
        kept = (np.arange(k_new * d) < rest.shape[1]).reshape(k_new, d)
        proj_blocks.append(kept[:, :, None] * np.eye(d, dtype=np.complex128))
    return list(new), [AlgebraElement(target, tuple(x[k] for x in proj_blocks))
                       for k in range(k_new)]


def _isotypic_frames(data: GNSData) -> list:
    """Per block of B' (M_m, multiplicity μ in H), the list of its frames
    W_s (H×μ), s < m: W₀ is an orthonormal basis of the range of ρ'(E₀₀)
    and W_s = ρ'(E_s0)·W₀ one of the range of ρ'(E_ss)."""
    comm = commutant(data.target)
    frames = []
    for off, (m, _) in zip(comm.coord_offsets(), comm.blocks):
        w0 = _range_basis(_block_diagonal(data, [t[off] for t in data.tau]))
        frames.append([w0] + [
            _apply_block_diagonal(data, [t[off + s * m] for t in data.tau], w0)
            for s in range(1, m)])
    return frames


def _block_columns(target: MatrixBlockAlgebra, b: int, s: int) -> np.ndarray:
    """Ambient columns (r, s), r < d, of block b = M_d ⊗ I_m of B: the
    range of the matrix unit E_ss of the commutant block M_m.  The slow
    leg is r, or s when B is itself a commutant (flipped)."""
    d, m = target.blocks[b]
    start = sum(dd * mm for dd, mm in target.blocks[:b])
    if target.flipped:
        return start + s * d + np.arange(d)
    return start + s + m * np.arange(d)


def _range_basis(p) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a projection: the left
    singular vectors whose singular value, 0 or 1 up to rounding, is
    above 1/2."""
    u, sv, _ = np.linalg.svd(p)
    return u[:, sv > 0.5]


def qons(data: GNSData, seed=None, tol: float = DEFAULT_TOL) -> QONS:
    """Complete quasi-orthonormal system for the module, extending a seed.

    With no seed and a unital map the cyclic vector ξ is the first element
    (p₀ = 1).  A seed is validated (shape (H, G), finite, in the module,
    projections, mutually orthogonal, intertwining B') and completed in
    closed form by ``_isotypic_completion``; with the seed ξ the system
    has the minimal size K = maxᵢ ⌈μᵢ/dᵢ⌉.  Completeness and relations
    are read off V = [e₀*; e₁*; …].  The default seed ξ and the new
    elements are not checked to intertwine B' here: ``verify_dilation``'s
    membership checks them in every dilation, and a caller of ``qons``
    alone has no such check.
    """
    elements, projections = [], []
    limit = floored(tol, RESIDUAL_FLOOR)
    shape = (data.h_dim, data.target.ambient_dim)
    from_caller = seed is not None
    if seed is None:
        seed = [data.xi] if data.cpmap.is_unital else []
    for raw in seed:
        e = as_complex(raw)
        if e.shape != shape or not np.all(np.isfinite(e)):
            raise BadSeed(f"seed element is not a finite {shape[0]}x{shape[1]} "
                          f"matrix (shape {e.shape})")
        try:
            t = inner_product(data, e, e, tol)
        except NotInTargetAlgebra as exc:
            raise BadSeed(f"seed element is not in the module: {exc}") from exc
        herm = max(frob(b - b.conj().T) for b in t.block_matrices)
        idem = (t @ t - t).norm()
        if herm > limit or idem > limit:
            raise BadSeed(
                f"seed self-product is not a projection (residuals {herm:.3e}, {idem:.3e})")
        for prev in elements:
            cross = frob(prev.conj().T @ e)
            if cross > limit:
                raise BadSeed(f"seed elements are not orthogonal (residual {cross:.3e})")
        elements.append(e)
        projections.append(t)
    v = np.vstack([np.zeros((0, data.h_dim))] + [e.conj().T for e in elements])
    seed_intertwining = membership_residual(
        data.target, v, data.rho_prime_basis_action) if from_caller else 0.0
    if seed_intertwining > limit:
        raise BadSeed("seed element does not intertwine B' "
                      f"(residual {seed_intertwining:.3e})")

    new, new_projections = _isotypic_completion(data, elements, projections)
    elements += new
    projections += new_projections
    v = np.vstack([v] + [e.conj().T for e in new])
    completeness = frob(isometry_defect(v))
    if completeness > floored(tol, IDENTITY_FLOOR, data.h_dim ** 0.5):
        raise IncompleteQONS(
            f"system does not sum to the identity (residual {completeness:.3e})")
    return QONS(elements=tuple(elements), projections=tuple(projections),
                relation_residual=_qons_relation_residual(v, projections),
                completeness_residual=completeness)


@dataclass(frozen=True)
class ModuleEmbedding:
    """Identification of the module with p_I(B⊗K) via a complete QONS.

    ``u`` is the unitary H → range(p_I) ⊂ G⊗K (K leg slowest) sending
    e_i·b·g to (p_i b g)⊗k_i, so p_I = u·u* is the diagonal projection
    Σ_i p_i ⊗ |k_i⟩⟨k_i| on the product space.
    """

    k_dim: int
    u: np.ndarray


def embed_qons(data: GNSData, system: QONS, tol: float = DEFAULT_TOL) -> ModuleEmbedding:
    """Embed H into G⊗K through a complete QONS; K_dim = |system|."""
    if system.completeness_residual > floored(tol, IDENTITY_FLOOR, data.h_dim ** 0.5):
        raise IncompleteQONS("embedding requires a complete system")
    u = np.vstack([e.conj().T for e in system.elements])
    return ModuleEmbedding(k_dim=len(system), u=u)
