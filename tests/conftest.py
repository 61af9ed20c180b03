import numpy as np
import pytest

from cpdilate import make_algebra, make_cpmap
from cpdilate.numerics import DEFAULT_TOL, as_complex, check_finite


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


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return a @ a.conj().T


def null_space(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``m``.

    The rank cut is at singular values > tol·σ_max, so the zero matrix
    returns the full space and an injective matrix returns an empty basis.
    """
    m = as_complex(m)
    check_finite(m)
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
