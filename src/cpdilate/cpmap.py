"""Completely positive maps between multi-matrix algebras.

A map is stored as a coordinate action matrix.  Complete positivity is
certified blockwise through Choi matrices over the source matrix units.
Their eigendecompositions are kept and are the one Stinespring
factorization of the map: ``stinespring_blocks`` cuts them once, and both
the GNS construction and the Kraus form read from it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg_mod
from .algebra import (AlgebraElement, MatrixBlockAlgebra,
                      coordinates, element_from_coordinates, identity,
                      represent, state_value)
from .errors import (AlgebraMismatch, NotCP, NotFullAlgebra,
                     NotHermitianPreserving)
from .numerics import DEFAULT_TOL, as_complex, frob, frob_each, hermitian_eig


@dataclass(frozen=True)
class CPMap:
    """Linear map between standard-form algebras with cached CP certificates.

    ``action`` sends source coordinates to target coordinates.  ``is_cp``
    and ``is_unital`` are verification flags, not promises: building a map
    that fails them is allowed, and the flags say so.  ``choi_eigs`` holds
    the ``HermitianEig`` of each entry of ``choi_blocks``.
    """

    source: MatrixBlockAlgebra
    target: MatrixBlockAlgebra
    action: np.ndarray
    choi_blocks: tuple = field(repr=False)
    choi_eigs: tuple = field(repr=False)
    is_cp: bool = True
    is_unital: bool = True
    choi_min_eigenvalue: float = 0.0

    def __call__(self, a):
        return apply(self, a)


def make_cpmap(source: MatrixBlockAlgebra, target: MatrixBlockAlgebra,
               action, tol: float = DEFAULT_TOL) -> CPMap:
    """Build a CPMap and certify *-preservation, complete positivity and
    unitality.

    Raises NotHermitianPreserving when S(a*) ≠ S(a)* on the coordinate
    basis; CP and unitality failures are recorded as flags.
    """
    action = as_complex(action)
    expected = (target.coord_dim, source.coord_dim)
    if action.shape != expected:
        raise ValueError(f"action shape {action.shape}, expected {expected}")

    images = basis_images(target, action)

    # *-preservation: the image of E_vu must be the adjoint of the image of E_uv.
    scale = max(1.0, frob(action))
    perm = alg_mod.adjoint_permutation(source)
    star_residual = float(np.max(np.linalg.norm(
        coordinates(images)[perm] - coordinates(images.adjoint()), axis=-1)))
    if star_residual > tol * scale:
        raise NotHermitianPreserving(
            f"map is not *-preserving (residual {star_residual:.3e})")

    # Per-source-block Choi matrices; CP iff all are PSD.
    applied_all = represent(images)
    choi_blocks, choi_eigs = [], []
    min_eig = np.inf
    n = target.ambient_dim
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        # C = Σ_uv E_uv ⊗ S(E_uv), rows and columns (u, g)
        c = applied_all[off:off + d * d].reshape(d, d, n, n).transpose(
            0, 2, 1, 3).reshape(d * n, d * n)
        eig = hermitian_eig(c, tol)
        min_eig = min(min_eig, float(eig.values[-1]))
        choi_blocks.append(c)
        choi_eigs.append(eig)
    choi_scale = max(frob(c) for c in choi_blocks)
    is_cp = bool(min_eig >= -tol * max(choi_scale, 1.0))

    unit_diff = action @ coordinates(identity(source)) - coordinates(identity(target))
    is_unital = bool(np.linalg.norm(unit_diff) <= tol * max(1.0, np.sqrt(target.coord_dim)))

    return CPMap(source=source, target=target, action=action,
                 choi_blocks=tuple(choi_blocks), choi_eigs=tuple(choi_eigs),
                 is_cp=is_cp, is_unital=is_unital,
                 choi_min_eigenvalue=float(min_eig))


def stinespring_blocks(s: CPMap, tol: float = DEFAULT_TOL) -> list:
    """Kept Choi eigenpairs of each source block, as a list of (λ, ops).

    The rank cut is made once for the whole map: eigenvalues above
    tol × the largest Choi eigenvalue over all blocks are kept.  For the
    kept eigenvector w_k of C_i, ops[k] = conj(√λ_k·w_k) as a d_i×G
    matrix, so ``ops`` is (r_i, d_i, G) and S(E_uv) = Σ_k ops[k, u]*·ops[k, v].
    """
    threshold = tol * max(eig.scale for eig in s.choi_eigs)
    dim_g = s.target.ambient_dim
    out = []
    for (d, _), eig in zip(s.source.blocks, s.choi_eigs):
        kept = eig.values > threshold
        lam = eig.values[kept]
        ops = np.conj((np.sqrt(lam) * eig.vectors[:, kept]).T).reshape(-1, d, dim_g)
        out.append((lam, ops))
    return out


def basis_images(target: MatrixBlockAlgebra, action) -> AlgebraElement:
    """Images of the whole source coordinate basis under a coordinate
    action (columns = source coordinates), as one target element with a
    leading batch axis of length n_A."""
    return element_from_coordinates(target, as_complex(action).T)


def apply(s: CPMap, a: AlgebraElement) -> AlgebraElement:
    if a.algebra != s.source:
        raise AlgebraMismatch("element does not belong to the source algebra")
    return element_from_coordinates(s.target, s.action @ coordinates(a))


def compose(s2: CPMap, s1: CPMap, tol: float = DEFAULT_TOL) -> CPMap:
    if s1.target != s2.source:
        raise AlgebraMismatch("inner target does not match outer source")
    return make_cpmap(s1.source, s2.target, s2.action @ s1.action, tol)


def identity_map(a: MatrixBlockAlgebra, tol: float = DEFAULT_TOL) -> CPMap:
    return make_cpmap(a, a, np.eye(a.coord_dim, dtype=np.complex128), tol)


def covariance_residual(s: CPMap, f, g) -> float:
    """max_a |φ_f(a) − φ_g(S(a))| over the source coordinate basis."""
    f = alg_mod.check_unit_vector(f)
    g = alg_mod.check_unit_vector(g)
    lhs = alg_mod.basis_action(s.source, f) @ np.conj(f)
    rhs = state_value(g, represent(basis_images(s.target, s.action)))
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class KrausForm:
    """The Stinespring isometry of a map between full algebras, assembled
    from its Kraus operators.

    The isometry stacks the L Kraus operators G → F into G → F⊗L with the
    L leg slowest, so ``Z(x) = ξ*(x ⊗ I_L)ξ`` and operator k is
    ``isometry.reshape(l_dim, F, G)[k]``.
    """

    l_dim: int
    isometry: np.ndarray
    reconstruction_residual: float
    completeness_residual: float


def kraus_decomposition(z: CPMap, tol: float = DEFAULT_TOL) -> KrausForm:
    """Deterministic Kraus form of a CP map between full matrix algebras.

    The operators are those of ``stinespring_blocks``, built from the Choi
    eigenpairs ``make_cpmap`` computed (descending eigenvalues, canonical
    phases); L is the numerical rank of the Choi matrix.  Eigenvalue
    clusters make individual operators basis-dependent, but the span and
    the isometry's range are not.
    """
    if not (z.source.is_full() and z.target.is_full()):
        raise NotFullAlgebra("Kraus form requires full single-block algebras")
    if not z.is_cp:
        raise NotCP("map is not completely positive")
    dim_g = z.target.blocks[0][0]
    (_, stack), = stinespring_blocks(z, tol)
    isometry = stack.reshape(-1, dim_g)

    direct = represent(basis_images(z.target, z.action))
    # Σ_k op_k* E_uv op_k has entries conj(op_k[u, g])·op_k[v, h].
    summed = np.einsum("kug,kvh->uvgh", stack.conj(), stack).reshape(direct.shape)
    recon = float(np.max(frob_each(direct - summed)))
    complete = frob(isometry.conj().T @ isometry - np.eye(dim_g))
    return KrausForm(l_dim=len(stack), isometry=isometry,
                     reconstruction_residual=recon,
                     completeness_residual=complete)
