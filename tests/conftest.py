from itertools import permutations

import numpy as np
import pytest
from hypothesis import settings

from cpdilate import algebra, make_algebra, make_cpmap
from cpdilate.algebra import (coordinate_basis_stack, coordinates, identity,
                              represent)
from cpdilate.cpmap import basis_images, stinespring_blocks
from cpdilate.duality import map_from_isometry
from cpdilate.errors import InconsistentSystem
from cpdilate.numerics import (DEFAULT_TOL, _check_finite, as_complex, frob,
                               frob_each, matrix_rank)
from cpdilate.sampling import random_unit_vector

# One profile for every property: no deadline, since a draw's linear
# algebra varies in time with its dimensions, and derandomized examples,
# so each run draws the same ones.  Each test keeps its own max_examples.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def two_point_algebra():
    """The diagonal algebra C^2 on C^2."""
    return make_algebra([(1, 1), (1, 1)])


@pytest.fixture
def worked_map(two_point_algebra):
    """The symmetric stochastic map S(a) = ((a1+a2)/2, (a1+a2)/2) on C^2."""
    alg = two_point_algebra
    return make_cpmap(alg, alg, 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))


def structure_constants(alg) -> np.ndarray:
    """Products of the coordinate basis: ``out[a, b]`` holds the
    coordinates of x_a·x_b.  Within a block E_uv·E_vz = E_uz, and every
    other product of matrix units vanishes.
    """
    n = alg.coord_dim
    out = np.zeros((n, n, n), dtype=np.complex128)
    for off, (d, _) in zip(alg.coord_offsets(), alg.blocks):
        u, v, z = np.indices((d, d, d))
        out[off + u * d + v, off + v * d + z, off + u * d + z] = 1.0
    return out


def einsum_represent(x) -> np.ndarray:
    """Ambient matrices of an element, one einsum of each block with
    np.eye(m) per block: the oracle of ``algebra.represent``'s scatter,
    down to the sign of its zeros."""
    alg = x.algebra
    batch = np.shape(x.block_matrices[0])[:-2]
    n = alg.ambient_dim
    out = np.zeros(batch + (n, n), dtype=np.complex128)
    # b ⊗ I_m has rows and columns (r, s), b acting on r; I_m ⊗ b has (s, r).
    spec = "...ru,st->...srtu" if alg.flipped else "...ru,st->...rsut"
    pos = 0
    for (d, m), b in zip(alg.blocks, x.block_matrices):
        size = d * m
        out[..., pos:pos + size, pos:pos + size] = np.einsum(
            spec, b, np.eye(m)).reshape(batch + (size, size))
        pos += size
    return out


def loop_basis_action(alg, v, coords=None) -> np.ndarray:
    """x_c·v over the coordinate basis, or the elements ``coords``, with
    one row copy per block: the oracle of ``algebra.basis_action``'s
    gather."""
    v = as_complex(v)
    rows = v.reshape(alg.ambient_dim, -1)
    chosen = np.arange(alg.coord_dim)
    if coords is not None:
        chosen = chosen[coords]
    out = np.zeros((len(chosen),) + rows.shape, dtype=np.complex128)
    pos = 0
    for off, (d, m) in zip(alg.coord_offsets(), alg.blocks):
        legs = (m, d) if alg.flipped else (d, m)
        at = np.flatnonzero((chosen >= off) & (chosen < off + d * d))
        s, t = np.divmod(chosen[at] - off, d)
        block = rows[pos:pos + d * m].reshape(legs + rows.shape[1:])
        target = out[:, pos:pos + d * m].reshape(
            (len(chosen),) + legs + rows.shape[1:])
        # out[c, rows (s, e)] = v[rows (t, e)] for c = E_st
        if alg.flipped:
            target[at, :, s] = block[:, t].swapaxes(0, 1)
        else:
            target[at, s] = block[t]
        pos += d * m
    return out.reshape((-1,) + v.shape)


def exhaustive_homomorphism_residual(source, j_ops) -> float:
    """max ‖j(x_a)·j(x_b) − j(x_a·x_b)‖ over all n_A² pairs of coordinate
    basis elements: the oracle of the matrix-unit relations that
    ``verify_dilation`` checks.  One of its n_A iterations holds two arrays
    of n_A·(K·G)² entries.
    """
    prods = structure_constants(source)
    worst = 0.0
    for a in range(source.coord_dim):
        actual = np.einsum("ij,bjk->bik", j_ops[a], j_ops, optimize=True)
        actual -= np.tensordot(prods[a], j_ops, axes=([1], [0]))
        worst = max(worst, float(np.max(frob_each(actual))))
    return worst


def slice_map(m, psi_vector, g_dim: int) -> np.ndarray:
    """(id⊗ψ) of an ambient matrix on G⊗K with the K leg slowest: both K
    legs are contracted against the state vector ψ.  A stack (…, KG, KG)
    gives the stack (…, G, G)."""
    k = psi_vector.size
    m = as_complex(m)
    t = m.reshape(m.shape[:-2] + (k, g_dim, k, g_dim))
    return np.einsum("k,...kglh,l->...gh", np.conj(psi_vector), t, psi_vector)


def expectation_ambient(d, m) -> np.ndarray:
    """(id⊗ψ) of the dilation ``d`` applied to an ambient matrix on G⊗K."""
    return slice_map(m, d.psi_vector, d.cpmap.target.ambient_dim)


def _homomorphism_residual(source, j_ops) -> float:
    """R1–R3 on the dense matrices: per block i of A with P = j(E_00),
    R1 j(E_u0)·j(E_0v) = j(E_uv), R2 j(E_0u)·j(E_v0) = δ_uv·P and
    R3 j(1_i)·j(1_k) = 0 (i ≠ k), 2·d_i² products per block.  With M ≥ 1
    bounding ‖j(x)‖_op over matrix units x and the j(1_i), every pair of
    matrix units has ‖j(x)·j(y) − j(xy)‖ ≤ 5·M²·ε in one block and
    ≤ (1 + 5·(d_i + d_k))·M⁴·ε for x in block i and y in block k ≠ i."""
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


def _star_residual(source, j_ops) -> float:
    """max ‖j(E_vu) − j(E_uv)*‖ over the matrix units of A, compared one
    row u of one block at a time, so no copy of the whole stack is made."""
    worst = 0.0
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        e = j_ops[off:off + d * d].reshape((d, d) + j_ops.shape[1:])
        for u in range(d):
            diff = e[:, u].copy()
            diff -= np.conj(np.swapaxes(e[u], -1, -2))
            worst = max(worst, float(np.max(frob_each(diff))))
    return worst


def dense_certificate(d, j_ops=None) -> dict:
    """The dense oracle of ``verify_dilation``: every identity checked on
    the matrices j(x) of ``j_ops`` (by default the dilation's own), with
    the same keys as ``DilationCertificate``.  R1–R3, the star identity
    one row of a block at a time, membership of every K-block of every
    j(x) in B by one batched ``project_to_algebra`` call, the expectation
    identity through the slice map, and j(1) = p_I an orthogonal
    projection.  Its arrays hold n_A·(K·G)² entries.
    """
    source, target = d.cpmap.source, d.cpmap.target
    j_ops = d.j_ops if j_ops is None else j_ops
    g_dim = target.ambient_dim
    blocks = j_ops.reshape(-1, d.k_dim, g_dim, d.k_dim, g_dim)
    _, residuals = algebra.project_to_algebra(
        target, blocks.transpose(0, 1, 3, 2, 4))
    got = expectation_ambient(d, j_ops)
    if d.absxi is not None:
        sandwich = represent(d.absxi)
        got = sandwich @ got @ sandwich
    images = represent(basis_images(target, d.cpmap.action))
    p_i = d.p_i_matrix
    j_unit = np.tensordot(coordinates(identity(source)), j_ops, axes=1)
    return {"homomorphism": _homomorphism_residual(source, j_ops),
            "star": _star_residual(source, j_ops),
            "membership": float(np.max(residuals)),
            "expectation": float(np.max(frob_each(got - images))),
            "unit_projection": max(frob(j_unit - p_i), frob(p_i @ p_i - p_i),
                                   frob(p_i - p_i.conj().T))}


def dense_is_minimal(d, tol: float = DEFAULT_TOL) -> bool:
    """The two-rank oracle of ``duality.is_minimal_dilation``: whether the
    B'-A' span of ξ'' = ℓ⊗I_F inside E' = j(1)(A'⊗L) has the rank of E'
    itself, for a dilation ``d`` of S' = ``d.cpmap``.  j(b')·ξ'' is formed
    as V·π(b')·(V*·ξ'') and j(1) as p_I = V·V*.  Its span matrices have
    L·F² rows and n_{B'}·n_{A'} or L·n_{A'} columns.
    """
    a_comm = d.cpmap.target           # A' ⊂ B(F)
    dim_f = a_comm.ambient_dim
    l_dim = d.k_dim
    xi2 = np.kron(d.psi_vector.reshape(-1, 1),
                  np.eye(dim_f, dtype=np.complex128))
    reps = represent(coordinate_basis_stack(a_comm))
    gns_vecs = np.einsum("cxf,pfh->cpxh", d.j_basis_action(xi2), reps,
                         optimize=True)
    rank_gns = matrix_rank(gns_vecs.reshape(-1, l_dim * dim_f * dim_f).T, tol)
    full_vecs = np.einsum("xlf,pfh->lpxh",
                          d.p_i_matrix.reshape(l_dim * dim_f, l_dim, dim_f),
                          reps, optimize=True)
    rank_full = matrix_rank(full_vecs.reshape(-1, l_dim * dim_f * dim_f).T, tol)
    return rank_gns == rank_full


def dense_rho_ops(data) -> np.ndarray:
    """ρ over A's coordinate basis as one (n_A, H, H) stack: the standard
    representation of ``data.h_alg``, E_uv ⊗ I_r on each block."""
    return represent(coordinate_basis_stack(data.h_alg))


def dense_rho_prime_ops(data) -> np.ndarray:
    """ρ' over the coordinate basis of B' as one zero-filled (n_{B'}, H, H)
    stack, with the kron I_d ⊗ τ_i on each source block (d, r) of H."""
    h_dim = data.h_dim
    out = np.zeros((len(data.tau[0]), h_dim, h_dim), dtype=np.complex128)
    pos = 0
    for (d, r), tau in zip(data.h_alg.blocks, data.tau):
        out[:, pos:pos + d * r, pos:pos + d * r] = np.kron(np.eye(d), tau)
        pos += d * r
    return out


def qons_elements(system) -> np.ndarray:
    """The elements e_k: G → H of a QONS as one (K, H, G) stack: the
    adjoints of the G-row blocks of its V = [e₀*; e₁*; …]."""
    v = system.isometry
    return v.reshape(len(system), -1, v.shape[1]).conj().transpose(0, 2, 1)


def canonical_phases_loop(vectors: np.ndarray) -> np.ndarray:
    """Column-by-column phase normalization: each column is multiplied by
    conj(p)/|p| for its first coordinate p of largest modulus, and a zero
    column is left alone.  The oracle of ``numerics._canonical_phases``."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, k] = col * (np.conj(pivot) / mag)
    return out


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return a @ a.conj().T


def tensor_with_factor(b_ambient, k_dim: int, factor) -> np.ndarray:
    """Ambient matrix of b⊗c on the product space with the K leg slowest."""
    return np.kron(as_complex(factor).reshape(k_dim, k_dim), as_complex(b_ambient))


def null_space(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``m``.

    The rank cut is at singular values > tol·σ_max, so the zero matrix
    returns the full space and an injective matrix returns an empty basis.
    """
    m = as_complex(m)
    _check_finite(m)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * smax))
    return vh[rank:].conj().T


def intertwiner_space(left_ops, right_mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal basis of {x : L_k x = x R_k for all k}.

    ``left_ops`` is (n, H, H), ``right_mats`` is (n, G, G); the result is
    (dim, H, G).  A brute-force oracle: with the commutant lifting it spans
    the module, and with roles exchanged the commutant module.
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


def gram_schmidt_module_basis(s, tol: float = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal basis of the module span{ρ(a)·ξ·b}, (dim, H, G), in
    fixed candidate order.

    A Gram–Schmidt oracle for the closed-form ``GNSData.module_basis``: on
    block i of H, ρ(E_uv)·ξ·b = e_u ⊗ (ops[:, v]·b), so the module is
    ⊕_i ℂ^{d_i}⊗V_i with V_i = span{ops[:, v]·b}.  Gram–Schmidt runs once
    per block over v, then b, and each result is tensored with every e_u.
    """
    blocks = stinespring_blocks(s, tol)
    h_dim = sum(d * lam.size for (d, _), (lam, _) in zip(s.source.blocks, blocks))
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
    return np.stack(out)


def orthonormal_columns(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m``."""
    m = as_complex(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * smax))
    return u[:, :rank]


def span_commutant_lifting(ctx, xi, tol: float = DEFAULT_TOL):
    """j(b') = ρ'(b')p_H for every b' of the commutant coordinate basis, and
    p_H, from the Stinespring isometry ξ: G → F⊗L of an extension.

    A brute-force oracle for the closed-form lifting: H is the span of the
    blocks (a⊗I_L)ξ·b, cut by an SVD, and ρ'(c) is solved in least squares
    from (a⊗I_L)ξ·b ↦ (a⊗I_L)ξ·b·c for every c at once.  Raises
    InconsistentSystem when ρ'(c) is not well-defined on the span.
    """
    dim_f = ctx.dim_f
    l_dim = xi.shape[0] // dim_f
    reps_a = represent(coordinate_basis_stack(ctx.source))
    reps_b = represent(coordinate_basis_stack(ctx.target))
    reps_c = represent(coordinate_basis_stack(ctx.target_commutant))
    n_ab = len(reps_a) * len(reps_b)
    dim_g = reps_b.shape[-1]

    # w lines up the blocks (a⊗I_L)ξ·b, a-major, as columns: (LF, n_A·n_B·G).
    x3 = xi.reshape(l_dim, dim_f, dim_g)
    amb = np.einsum("aij,ljg->alig", reps_a, x3, optimize=True).reshape(
        len(reps_a), l_dim * dim_f, dim_g)
    w3 = np.einsum("axg,bgh->xabh", amb, reps_b, optimize=True).reshape(
        l_dim * dim_f, n_ab, dim_g)
    w = w3.reshape(l_dim * dim_f, -1)
    v = orthonormal_columns(w, tol)
    h_dim = v.shape[1]

    vw = v.conj().T @ w
    wc = np.einsum("xng,cgh->cxnh", w3, reps_c, optimize=True).reshape(
        len(reps_c), l_dim * dim_f, -1)
    target_small = v.conj().T @ wc
    rhs = target_small.transpose(2, 0, 1).reshape(vw.shape[1], -1)
    sol = np.linalg.lstsq(vw.T, rhs, rcond=tol)[0]
    r_small = sol.reshape(h_dim, len(reps_c), h_dim).transpose(1, 2, 0)
    outside = v @ target_small
    outside -= wc
    total = np.maximum(frob_each(outside),
                       frob_each(r_small @ vw - target_small))
    scale = max(tol, 1e-8) * np.maximum(1.0, frob_each(wc))
    failed = np.flatnonzero(total > scale)
    if failed.size:
        worst = float(total[failed[0]])
        raise InconsistentSystem(
            f"commutant lifting is not well-defined on the span "
            f"(residual {worst:.3e})", worst)
    return v @ r_small @ v.conj().T, v @ v.conj().T


def random_covariant_channel(rng, dim_f: int, dim_g: int, l_dim: int):
    """Random unital CP map B(F) → B(G) with a pinned covariant pair.

    Builds an isometry ξ: G → F⊗L whose action on a random unit vector g is
    f⊗ℓ, and returns (Z, f, g) with φ_f = φ_g∘Z by construction.

    The target is all of B(G), so B' = ℂ·1 and for dim G ≥ 2 its g is never
    cyclic for B'.  The triples suit ``dilation_from_extension``, which
    needs no B'-cyclicity, but not ``extend_cp_map``, which raises
    NotCyclic on them.
    """
    if l_dim * dim_f < dim_g:
        raise ValueError("need dim(F⊗L) >= dim G for an isometry")
    f = random_unit_vector(rng, dim_f)
    g = random_unit_vector(rng, dim_g)
    ell = random_unit_vector(rng, l_dim)
    anchor = np.kron(ell, f)

    g_basis = np.linalg.qr(np.column_stack(
        [g] + [random_unit_vector(rng, dim_g) for _ in range(dim_g - 1)]))[0]
    g_basis[:, 0] = g
    targets = [anchor]
    for _ in range(dim_g - 1):
        w = random_unit_vector(rng, l_dim * dim_f)
        for t in targets:
            w = w - t * np.vdot(t, w)
        targets.append(w / np.linalg.norm(w))
    xi = np.column_stack(targets) @ g_basis.conj().T
    return map_from_isometry(xi, dim_f), f, g
