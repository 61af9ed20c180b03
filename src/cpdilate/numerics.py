"""Dense complex-matrix kernel and the package's one threshold policy.

All decompositions used elsewhere in the package funnel through this module
so that thresholding and eigenvector phase conventions are fixed in exactly
one place, and every threshold of the package is declared here once.

Rank decisions are relative: a singular value or eigenvalue counts when it
exceeds ``tol`` times the largest one.  Residual checks are absolute: a
residual passes when it is at most ``floored(tol, floor, size)``, so a
floor keeps a tiny ``tol`` from failing rounding noise and ``size`` (a
dimension, its square root or a trace) lets the bound grow with the sum
that is checked.  The matrices handled here are O(1) at desk scale, so the
rank cut sits about six decades and the floors about seven above the
double-precision rounding of 2.2e-16.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NonHermitian, NotPSD

# Relative: the rank cut of every Choi, Gram and cyclicity decision.
DEFAULT_TOL = 1e-10
# Absolute: membership, covariance, seed and dilation certificate residuals.
RESIDUAL_FLOOR = 1e-9
# Absolute, scaled by size: isometry defects, QONS completeness, restriction,
# state transport, integer multiplicities and unit-vector norms.
IDENTITY_FLOOR = 1e-8
# Absolute: the worked example's closed-form values.
GOLDEN_TOL = 1e-12
# The samplers' cut for singular draws, relative in their rank tests and
# absolute in their membership and norm tests.
DRAW_CUT = 1e-8


def floored(tol: float, floor: float, size: float = 1.0) -> float:
    """The threshold max(tol, floor)·max(1, size) of an absolute check."""
    return max(tol, floor) * max(1.0, size)


def as_complex(m) -> np.ndarray:
    """Return a complex128 array view/copy of ``m``."""
    return np.asarray(m, dtype=np.complex128)


def frob(m) -> float:
    """Frobenius norm, used as the residual norm throughout the package."""
    return float(np.linalg.norm(m))


def frob_each(m) -> np.ndarray:
    """Frobenius norm of every matrix in a stack (…, N, N)."""
    m = np.asarray(m)
    return np.sqrt(np.sum(m.real ** 2 + m.imag ** 2, axis=(-2, -1)))


def _check_finite(m, what="matrix"):
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{what} contains NaN or Inf entries")


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are sorted descending; ``vectors`` holds the matching
    eigenvector columns, each phase-normalized so that its coordinate of
    largest modulus (first such index on ties) is real and positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def scale(self) -> float:
        """Spectral norm of the decomposed matrix."""
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def _canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Multiply each column by conj(p)/|p| for its first coordinate p of
    largest modulus; a zero column is left as it is.  |p| is taken with
    ``np.hypot``, which rounds like the scalar ``abs``."""
    if not vectors.size:
        return vectors.copy()
    pivot = vectors[np.argmax(np.abs(vectors), axis=0),
                    np.arange(vectors.shape[1])]
    mag = np.hypot(pivot.real, pivot.imag)
    nonzero = mag > 0.0
    phase = np.conj(pivot) / np.where(nonzero, mag, 1.0)
    return np.where(nonzero, vectors * phase[None, :], vectors)


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition with descending eigenvalues and canonical phases.

    Raises NonHermitian if ``‖m − m*‖ > tol·‖m‖`` and NonFinite on NaN/Inf.
    Inside a degenerate cluster only cluster-invariant quantities (spectral
    projections, traces) are contract-bearing; individual columns are not.
    """
    m = as_complex(m)
    _check_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitian(f"expected a square matrix, got shape {m.shape}")
    scale = frob(m)
    if frob(m - m.conj().T) > tol * scale:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    order = np.arange(values.size)[::-1]  # eigh is ascending; flip
    values = np.ascontiguousarray(values[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    return HermitianEig(values=values, vectors=_canonical_phases(vectors))


@dataclass(frozen=True)
class PsdFunctions:
    """Square root, pseudo-inverse square root and support projection of a
    positive semidefinite matrix, all sharing one spectral threshold."""

    sqrt: np.ndarray
    pinv_sqrt: np.ndarray
    support: np.ndarray
    rank: int


def psd_functions(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> PsdFunctions:
    """Spectral functions of a PSD matrix.

    Eigenvalues in [−tol·scale, tol·scale] are clamped to zero; anything
    below the band raises NotPSD.  ``scale`` defaults to the spectral norm
    of ``m`` itself; pass an external scale when ``m`` is one block of a
    larger positive element so that near-zero blocks do not keep junk
    directions alive.
    """
    eig = hermitian_eig(m, tol)
    if scale is None:
        scale = eig.scale
    threshold = tol * scale
    if eig.values.size and eig.values[-1] < -threshold:
        raise NotPSD(f"eigenvalue {eig.values[-1]:.3e} below -{threshold:.3e}")
    kept = eig.values > threshold
    lam = np.where(kept, eig.values, 0.0)
    v = eig.vectors
    sqrt = (v * np.sqrt(lam)) @ v.conj().T
    inv = np.zeros_like(lam)
    inv[kept] = 1.0 / np.sqrt(lam[kept])
    pinv_sqrt = (v * inv) @ v.conj().T
    support = (v * kept.astype(float)) @ v.conj().T
    return PsdFunctions(sqrt=sqrt, pinv_sqrt=pinv_sqrt, support=support,
                        rank=int(np.count_nonzero(kept)))


def matrix_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank via singular values > tol·σ_max."""
    m = as_complex(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    smax = s[0] if s.size else 0.0
    return int(np.count_nonzero(s > tol * smax))
