"""Finite-dimensional von Neumann algebras in standard form.

An algebra is a direct sum of full matrix blocks with multiplicities,
``⊕_i M_{d_i} ⊗ I_{m_i}``, acting on an ambient Hilbert space of dimension
``Σ d_i·m_i``.  The ambient basis ordering is fixed once and for all:
block-major, then block-row index, then multiplicity index.  The commutant
lives on the same ambient space with the tensor legs of each block swapped,
so commutants are closed-form and the double commutant is bit-identical to
the original.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCap, NotInAlgebra
from .numerics import (DEFAULT_TOL, IDENTITY_FLOOR, RESIDUAL_FLOOR, as_complex,
                       frob, frob_each, matrix_rank)

AMBIENT_CAP = 64
# algebras whose index tables are kept, the most recently used ones
TABLE_CACHE_SIZE = 64


def _per_algebra(build):
    """Cache the tables that ``build`` makes from an algebra's block shape:
    built on first use, read-only, kept for the ``TABLE_CACHE_SIZE`` most
    recently used algebras."""
    @functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
    @functools.wraps(build)
    def cached(alg):
        tables = build(alg)
        for table in tables if isinstance(tables, tuple) else (tables,):
            table.flags.writeable = False
        return tables
    return cached


@dataclass(frozen=True)
class MatrixBlockAlgebra:
    """Standard-form algebra ``⊕_i M_{d_i} ⊗ I_{m_i}`` on a fixed ambient basis.

    ``blocks`` lists (block_dim, multiplicity) pairs.  ``flipped`` marks a
    commutant: element matrices then act on the second tensor leg of each
    ambient block, ``I_{m_i} ⊗ c_i``, while the ambient basis ordering is
    unchanged.
    """

    blocks: tuple
    flipped: bool = False

    @functools.cached_property
    def ambient_dim(self) -> int:
        return sum(d * m for d, m in self.blocks)

    @functools.cached_property
    def coord_dim(self) -> int:
        return sum(d * d for d, _ in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def coord_offsets(self):
        """Start offset of each block in the flat coordinate vector."""
        offs, pos = [], 0
        for d, _ in self.blocks:
            offs.append(pos)
            pos += d * d
        return offs

    def is_full(self) -> bool:
        """True for a single block of multiplicity one, i.e. all of B(H)."""
        return len(self.blocks) == 1 and self.blocks[0][1] == 1


def make_algebra(blocks, ambient_cap: int = AMBIENT_CAP) -> MatrixBlockAlgebra:
    """Build a standard-form algebra from (dim, mult) pairs of integers."""
    if any(int(x) != x for block in blocks for x in block):
        raise ValueError(f"block dims and multiplicities must be integers, got {blocks}")
    blocks = tuple((int(d), int(m)) for d, m in blocks)
    if not blocks:
        raise ValueError("algebra needs at least one block")
    for d, m in blocks:
        if d < 1 or m < 1:
            raise ValueError(f"block dims and multiplicities must be >= 1, got {(d, m)}")
    alg = MatrixBlockAlgebra(blocks=blocks)
    if alg.ambient_dim > ambient_cap:
        raise DimensionCap(f"ambient dimension {alg.ambient_dim} exceeds cap {ambient_cap}")
    return alg


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def commutant(alg: MatrixBlockAlgebra) -> MatrixBlockAlgebra:
    """Commutant on the same ambient space: block list [(m_i, d_i)], legs
    swapped.  One instance per algebra is kept, with its cached sizes."""
    return MatrixBlockAlgebra(blocks=tuple((m, d) for d, m in alg.blocks),
                              flipped=not alg.flipped)


@dataclass(frozen=True)
class AlgebraElement:
    """Element of a MatrixBlockAlgebra, one d_i×d_i matrix per block."""

    algebra: MatrixBlockAlgebra
    block_matrices: tuple

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra,
                              tuple(np.conj(np.swapaxes(b, -1, -2))
                                    for b in self.block_matrices))

    def __add__(self, other):
        _require_same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(
            a + b for a, b in zip(self.block_matrices, other.block_matrices)))

    def __sub__(self, other):
        _require_same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(
            a - b for a, b in zip(self.block_matrices, other.block_matrices)))

    def __mul__(self, scalar):
        return AlgebraElement(self.algebra,
                              tuple(scalar * b for b in self.block_matrices))

    __rmul__ = __mul__

    def __matmul__(self, other):
        _require_same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(
            a @ b for a, b in zip(self.block_matrices, other.block_matrices)))

    def norm(self) -> float:
        return float(np.sqrt(sum(frob(b) ** 2 for b in self.block_matrices)))


def _require_same_algebra(x: AlgebraElement, y: AlgebraElement):
    if x.algebra != y.algebra:
        raise ValueError("elements belong to different algebras")


def element(alg: MatrixBlockAlgebra, block_matrices) -> AlgebraElement:
    mats = []
    for (d, _), b in zip(alg.blocks, block_matrices, strict=True):
        b = as_complex(b).reshape(d, d)
        mats.append(b)
    return AlgebraElement(alg, tuple(mats))


def identity(alg: MatrixBlockAlgebra) -> AlgebraElement:
    return AlgebraElement(alg, tuple(np.eye(d, dtype=np.complex128)
                                     for d, _ in alg.blocks))


def zero(alg: MatrixBlockAlgebra) -> AlgebraElement:
    return AlgebraElement(alg, tuple(np.zeros((d, d), dtype=np.complex128)
                                     for d, _ in alg.blocks))


def represent(x: AlgebraElement) -> np.ndarray:
    """Ambient matrix ``⊕_i (a_i ⊗ I_{m_i})`` (legs swapped when flipped).

    Block matrices may carry leading batch axes, (…, d_i, d_i); the result
    is then the stack (…, N, N) of their ambient matrices.  Coordinates
    (…, n) become such an element through ``element_from_coordinates``.
    The coordinates are scattered into the N×N slots of the algebra's
    ``_represent_slots`` table; adding 0.0 turns a zero of either sign
    into +0.0, as a product with the identity does.
    """
    alg = x.algebra
    coords = coordinates(x)
    batch = coords.shape[:-1]
    slots, source = _represent_slots(alg)
    out = np.zeros(batch + (alg.ambient_dim ** 2,), dtype=np.complex128)
    values = coords[..., source]
    values += 0.0
    out[..., slots] = values
    return out.reshape(batch + (alg.ambient_dim, alg.ambient_dim))


def coordinates(x: AlgebraElement) -> np.ndarray:
    """Flat coordinates: block-major, row-major within each block.  Leading
    batch axes of the block matrices are kept, (…, d_i, d_i) → (…, n)."""
    batch = np.shape(x.block_matrices[0])[:-2]
    return np.concatenate([b.reshape(batch + (-1,)) for b in x.block_matrices],
                          axis=-1)


def element_from_coordinates(alg: MatrixBlockAlgebra, coords) -> AlgebraElement:
    """Element with the given coordinates; coordinates (…, n) give block
    matrices (…, d_i, d_i) with the same leading batch axes."""
    coords = as_complex(coords)
    if coords.ndim == 0 or coords.shape[-1] != alg.coord_dim:
        coords = coords.reshape(-1)
    if coords.shape[-1] != alg.coord_dim:
        raise ValueError(f"expected {alg.coord_dim} coordinates, got {coords.size}")
    batch = coords.shape[:-1]
    mats, pos = [], 0
    for d, _ in alg.blocks:
        mats.append(coords[..., pos:pos + d * d].reshape(batch + (d, d)))
        pos += d * d
    return AlgebraElement(alg, tuple(mats))


def coordinate_basis(alg: MatrixBlockAlgebra):
    """Matrix-unit basis, ordered like the flat coordinates."""
    basis = []
    for bi, (d, _) in enumerate(alg.blocks):
        for u in range(d):
            for v in range(d):
                mats = [np.zeros((dd, dd), dtype=np.complex128) for dd, _ in alg.blocks]
                mats[bi][u, v] = 1.0
                basis.append(AlgebraElement(alg, tuple(mats)))
    return basis


def coordinate_basis_stack(alg: MatrixBlockAlgebra) -> AlgebraElement:
    """The coordinate basis as one element with a leading batch axis of
    length n, ordered like ``coordinate_basis``."""
    return element_from_coordinates(alg, np.eye(alg.coord_dim))


def basis_sandwich(alg: MatrixBlockAlgebra, left, right) -> np.ndarray:
    """``Σ_a left[:, a]·x_c·right[a]`` for every coordinate basis element x_c,
    stacked as (n, P, Q), for ``left`` (P, A, N) and ``right`` (A, N, Q).

    The matrix unit E_st of a block acts as |s⟩⟨t| on one leg of the
    block's ambient slice and as the identity on the other leg e (the slow
    leg, or the fast one when flipped), so each block is one contraction
    over (a, e) and no ambient matrix of the basis is built.
    """
    p, a_dim, _ = left.shape
    q = right.shape[-1]
    out = np.empty((alg.coord_dim, p, q), dtype=np.complex128)
    spec = "paes,aetq->stpq" if alg.flipped else "pase,ateq->stpq"
    pos = 0
    for off, (d, m) in zip(alg.coord_offsets(), alg.blocks):
        legs = (m, d) if alg.flipped else (d, m)
        amb = slice(pos, pos + d * m)
        out[off:off + d * d] = np.einsum(
            spec, left[:, :, amb].reshape((p, a_dim) + legs),
            right[:, amb].reshape((a_dim,) + legs + (q,)),
            optimize=True).reshape(d * d, p, q)
        pos += d * m
    return out


def basis_action(alg: MatrixBlockAlgebra, v, coords=None) -> np.ndarray:
    """x_c·v for every coordinate basis element x_c, or for the elements
    ``coords`` (an index array, repeats allowed, or a slice) in that
    order: rows (n, N) for a vector v, (n, N, q) for an operator v of
    shape (N, q).

    E_st of a block moves the rows (t, e) of v to the rows (s, e), e on the
    block's other leg, and leaves zero rows elsewhere, so the result is one
    gather of the rows of v, and of a zero row, through the algebra's
    ``_action_rows`` table; no ambient matrix of the basis is built.
    """
    v = as_complex(v)
    rows = v.reshape(alg.ambient_dim, -1)
    table = _action_rows(alg)
    if coords is not None:
        table = table[coords]
    padded = np.concatenate([rows, np.zeros((1, rows.shape[1]))])
    return padded[table].reshape((-1,) + v.shape)


@_per_algebra
def adjoint_permutation(alg: MatrixBlockAlgebra) -> np.ndarray:
    """Index array p with x_{p[c]} = x_c* on the coordinate basis, since
    E_uv* = E_vu within each block."""
    return np.concatenate([off + np.arange(d * d).reshape(d, d).T.reshape(-1)
                           for off, (d, _) in zip(alg.coord_offsets(), alg.blocks)])


@_per_algebra
def unit_coordinates(alg: MatrixBlockAlgebra) -> np.ndarray:
    """Coordinates of the unit: 1 on the diagonal matrix units."""
    return coordinates(identity(alg))


@_per_algebra
def _represent_slots(alg: MatrixBlockAlgebra):
    """(slots, source): the flat N×N indices of the ambient matrix of an
    element that can be nonzero, and the coordinate that each one holds.
    E_ru ⊗ I_m puts coordinate (r, u) of a block at the row (r, s) and
    the column (u, s) for every s < m, or at (s, r) and (s, u) when the
    algebra is flipped."""
    n = alg.ambient_dim
    slots, source, pos = [], [], 0
    for off, (d, m) in zip(alg.coord_offsets(), alg.blocks):
        r, u, s = np.indices((d, d, m)).reshape(3, -1)
        row, col = ((s * d + r, s * d + u) if alg.flipped
                    else (r * m + s, u * m + s))
        slots.append((pos + row) * n + pos + col)
        source.append(off + r * d + u)
        pos += d * m
    return np.concatenate(slots), np.concatenate(source)


@_per_algebra
def _action_rows(alg: MatrixBlockAlgebra) -> np.ndarray:
    """(n, N) table of ``basis_action``: entry [c, i] is the row of v that
    x_c moves to row i, or N, a zero row, when row i of x_c·v is zero.
    E_st moves the row (t, e) to (s, e), or (e, t) to (e, s) when the
    algebra is flipped."""
    n = alg.ambient_dim
    table = np.full((alg.coord_dim, n), n)
    pos = 0
    for off, (d, m) in zip(alg.coord_offsets(), alg.blocks):
        s, t, e = np.indices((d, d, m)).reshape(3, -1)
        to, frm = ((e * d + s, e * d + t) if alg.flipped
                   else (s * m + e, t * m + e))
        table[off + s * d + t, pos + to] = pos + frm
        pos += d * m
    return table


def project_to_algebra(alg: MatrixBlockAlgebra, m):
    """Orthogonal (Hilbert–Schmidt) projection of an ambient matrix onto the
    algebra.  Returns ``(element, residual)``; the projection is the partial
    trace over the multiplicity legs of each diagonal block.

    A stack of matrices (…, N, N) is projected matrix by matrix: the
    element then has block matrices (…, d_i, d_i), and the residual is the
    array (…) of per-matrix Frobenius norms instead of a float.
    """
    m = as_complex(m)
    n = alg.ambient_dim
    if m.shape[-2:] != (n, n):
        raise ValueError(f"expected ambient shape {(n, n)}, got {m.shape}")
    batch = m.shape[:-2]
    if alg.is_full():
        # the identity; adding 0.0 writes +0.0 for −0.0, as the trace does
        return AlgebraElement(alg, (m + 0.0,)), (np.zeros(batch) if batch else 0.0)
    # Unflipped blocks carry (row, multiplicity) legs, flipped ones the reverse.
    spec = "...asat->...st" if alg.flipped else "...rsus->...ru"
    mats, pos = [], 0
    for d, mult in alg.blocks:
        size = d * mult
        legs = (mult, d) if alg.flipped else (d, mult)
        blk = m[..., pos:pos + size, pos:pos + size].reshape(batch + legs + legs)
        mats.append(np.einsum(spec, blk) / mult)
        pos += size
    el = AlgebraElement(alg, tuple(mats))
    diff = represent(el)
    diff -= m
    residual = frob_each(diff)
    return el, (float(residual) if not batch else residual)


def decompose(alg: MatrixBlockAlgebra, m, tol: float = RESIDUAL_FLOOR) -> AlgebraElement:
    """Coordinates of an ambient matrix; NotInAlgebra when the projection
    residual exceeds ``tol·max(1, ‖m‖)``.  A stack (…, N, N) is decomposed
    matrix by matrix, and the first matrix that fails raises."""
    m = as_complex(m)
    el, residual = project_to_algebra(alg, m)
    failed = np.flatnonzero(residual > tol * np.maximum(1.0, frob_each(m)))
    if failed.size:
        worst = float(np.ravel(residual)[failed[0]])
        raise NotInAlgebra(
            f"matrix is not in the algebra (residual {worst:.3e})", worst)
    return el


def is_cyclic(alg: MatrixBlockAlgebra, v, tol: float = DEFAULT_TOL) -> bool:
    """True iff span{x·v : x in the coordinate basis} is the ambient space."""
    return matrix_rank(basis_action(alg, v).T, tol) == alg.ambient_dim


def state_value(v, m):
    """Vector state ⟨v, m v⟩; a stack (…, N, N) gives the array (…)."""
    v = as_complex(v).reshape(-1)
    value = np.einsum("i,...ij,j->...", np.conj(v), as_complex(m), v)
    return complex(value) if value.ndim == 0 else value


def check_unit_vector(v, tol: float = IDENTITY_FLOOR) -> np.ndarray:
    v = as_complex(v).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"expected a unit vector, got norm {nrm}")
    return v
