"""Completely positive maps between multi-matrix algebras.

A map is stored as a coordinate action matrix.  Complete positivity is
certified blockwise through Choi matrices over the source matrix units;
for maps between full algebras a deterministic Kraus/Stinespring form is
derived from the Choi eigendecomposition.
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
    that fails them is allowed, and the flags say so.
    """

    source: MatrixBlockAlgebra
    target: MatrixBlockAlgebra
    action: np.ndarray
    choi_blocks: tuple = field(repr=False)
    is_cp: bool = True
    is_unital: bool = True
    choi_min_eigenvalue: float = 0.0

    def __call__(self, a):
        return apply(self, a)


def _choi_block(source_block_dim: int, applied_ambient: np.ndarray) -> np.ndarray:
    """Choi matrix Σ_{uv} E_uv ⊗ S(E_uv) for one source block.

    ``applied_ambient`` has shape (d², n, n): ambient images of the block's
    matrix units in row-major (u, v) order.
    """
    d = source_block_dim
    n = applied_ambient.shape[-1]
    c = applied_ambient.reshape(d, d, n, n).transpose(0, 2, 1, 3).reshape(d * n, d * n)
    return c


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
    choi_blocks = []
    min_eig = np.inf
    for off, (d, _) in zip(source.coord_offsets(), source.blocks):
        c = _choi_block(d, applied_all[off:off + d * d])
        eig = hermitian_eig(c, tol)
        lam_min = float(eig.values[-1])
        min_eig = min(min_eig, lam_min if eig.values.size else 0.0)
        choi_blocks.append(c)
    choi_scale = max(frob(c) for c in choi_blocks)
    is_cp = bool(min_eig >= -tol * max(choi_scale, 1.0))

    unit_diff = action @ coordinates(identity(source)) - coordinates(identity(target))
    is_unital = bool(np.linalg.norm(unit_diff) <= tol * max(1.0, np.sqrt(target.coord_dim)))

    return CPMap(source=source, target=target, action=action,
                 choi_blocks=tuple(choi_blocks), is_cp=is_cp,
                 is_unital=is_unital, choi_min_eigenvalue=float(min_eig))


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


def check_covariance(s: CPMap, f, g, tol: float = DEFAULT_TOL) -> bool:
    """True iff the vector states transport through S: φ_f = φ_g ∘ S."""
    return covariance_residual(s, f, g) <= tol


@dataclass(frozen=True)
class KrausForm:
    """Kraus operators and the assembled Stinespring isometry of a map
    between full algebras.

    Each entry of ``operators`` maps G → F; the isometry stacks them into
    G → F⊗L with the L leg slowest, so ``Z(x) = ξ*(x ⊗ I_L)ξ``.
    """

    l_dim: int
    operators: tuple
    isometry: np.ndarray
    reconstruction_residual: float
    completeness_residual: float


def kraus_decomposition(z: CPMap, tol: float = DEFAULT_TOL) -> KrausForm:
    """Deterministic Kraus form of a CP map between full matrix algebras.

    The Choi matrix is eigendecomposed with descending eigenvalues and
    canonical phases; L is its numerical rank.  Eigenvalue clusters make
    individual operators basis-dependent, but the span and the isometry's
    range are not.
    """
    if not (z.source.is_full() and z.target.is_full()):
        raise NotFullAlgebra("Kraus form requires full single-block algebras")
    if not z.is_cp:
        raise NotCP("map is not completely positive")
    dim_f = z.source.blocks[0][0]
    dim_g = z.target.blocks[0][0]
    choi = z.choi_blocks[0]
    eig = hermitian_eig(choi, tol)
    threshold = tol * eig.scale
    kept = eig.values > threshold
    l_dim = int(np.count_nonzero(kept))
    ops = []
    for k in range(l_dim):
        vec = np.sqrt(eig.values[k]) * eig.vectors[:, k]
        ops.append(np.conj(vec.reshape(dim_f, dim_g)))
    isometry = (np.vstack(ops) if ops
                else np.zeros((0, dim_g), dtype=np.complex128))

    direct = represent(basis_images(z.target, z.action))
    if ops:
        # Σ_k op_k* E_uv op_k has entries conj(op_k[u, g])·op_k[v, h].
        stacked = np.stack(ops)
        summed = np.einsum("kug,kvh->uvgh", stacked.conj(), stacked).reshape(
            direct.shape)
    else:
        summed = np.zeros_like(direct)
    recon = float(np.max(frob_each(direct - summed)))
    complete = frob(sum(op.conj().T @ op for op in ops) - np.eye(dim_g)) if ops else float(dim_g)
    return KrausForm(l_dim=l_dim, operators=tuple(ops), isometry=isometry,
                     reconstruction_residual=recon,
                     completeness_residual=complete)
