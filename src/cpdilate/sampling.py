"""Random instance generators for property suites and the CLI.

The generators produce standard-form algebras, unital CP maps with exact
(by construction) complete positivity, and covariant bi-cyclic duality
contexts.  Bi-cyclicity constrains the block profiles: a cyclic vector for
A needs multiplicities ≤ block dims on the A side (with equality forced
when the covariant state is generic), and a cyclic vector for B' needs
block dims ≤ multiplicities on the B side.  The samplers draw from those
profiles.
"""

import numpy as np

from .algebra import (MatrixBlockAlgebra, commutant, coordinate_basis,
                      coordinates, decompose, element, identity, is_cyclic,
                      make_algebra, represent, state_value)
from .cpmap import CPMap, apply, make_cpmap
from .duality import DualityContext, build_context
from .numerics import DEFAULT_TOL, DRAW_CUT, psd_functions


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_standard_algebra(rng, max_ambient: int = 6, max_block_dim: int = 3,
                            profile: str = "any") -> MatrixBlockAlgebra:
    """Random standard-form algebra with ambient dimension ≤ max_ambient.

    ``profile`` constrains the blocks: "any", "square" (dim = mult, cyclic
    vectors exist on both sides), or "wide" (dim ≤ mult, commutant has
    cyclic vectors).  Block dims are capped to keep coordinate dimensions
    at desk scale.
    """
    rng = rng_from(rng)
    blocks = []
    remaining = int(rng.integers(2, max_ambient + 1))
    while remaining >= 1:
        if profile == "square":
            d = int(rng.integers(1, min(max_block_dim, int(np.sqrt(remaining))) + 1))
            m = d
        elif profile == "wide":
            d = int(rng.integers(1, min(max_block_dim, remaining) + 1))
            m = int(rng.integers(d, remaining // d + 1)) if remaining // d >= d else d
            if d * m > remaining:
                d, m = 1, 1
        else:
            d = int(rng.integers(1, min(max_block_dim, remaining) + 1))
            m = int(rng.integers(1, remaining // d + 1))
        if d * m > remaining:
            break
        blocks.append((d, m))
        remaining -= d * m
        if blocks and rng.random() < 0.35:
            break
    if not blocks:
        blocks = [(1, 1)]
    return make_algebra(blocks)


def random_unit_vector(rng, dim: int) -> np.ndarray:
    rng = rng_from(rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_element(rng, algebra: MatrixBlockAlgebra):
    rng = rng_from(rng)
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d, _ in algebra.blocks]
    return element(algebra, mats)


def random_cp_map(rng, source: MatrixBlockAlgebra, target: MatrixBlockAlgebra,
                  tol: float = DEFAULT_TOL) -> CPMap:
    """Random CP map via a random PSD Choi element of M_d(B) per source block."""
    rng = rng_from(rng)
    n_g = target.ambient_dim
    cols = []
    for d, _ in source.blocks:
        x = np.zeros((d * n_g, d * n_g), dtype=np.complex128)
        for u in range(d):
            for v in range(d):
                b = represent(random_element(rng, target))
                x[u * n_g:(u + 1) * n_g, v * n_g:(v + 1) * n_g] = b
        c = x.conj().T @ x / (d * n_g)
        for u in range(d):
            for v in range(d):
                blk = c[u * n_g:(u + 1) * n_g, v * n_g:(v + 1) * n_g]
                cols.append(coordinates(decompose(target, blk, DRAW_CUT)))
    action = np.stack(cols, axis=1)
    return make_cpmap(source, target, action, tol)


def random_unital_cp_map(rng, source: MatrixBlockAlgebra,
                         target: MatrixBlockAlgebra,
                         tol: float = DEFAULT_TOL,
                         max_tries: int = 20) -> CPMap:
    """Random unital CP map: a random CP map congruence-normalized by
    S(1)^{-1/2}; retries when S(1) is numerically singular."""
    rng = rng_from(rng)
    for _ in range(max_tries):
        raw = random_cp_map(rng, source, target, tol)
        unit = apply(raw, identity(source))
        sandwich_blocks = []
        ok = True
        for b in unit.block_matrices:
            fns = psd_functions(b, DRAW_CUT)
            if fns.rank < b.shape[0]:
                ok = False
                break
            sandwich_blocks.append(fns.pinv_sqrt)
        if not ok:
            continue
        c = element(target, sandwich_blocks)
        basis = coordinate_basis(source)
        cols = [coordinates(c @ apply(raw, a) @ c) for a in basis]
        return make_cpmap(source, target, np.stack(cols, axis=1), tol)
    raise RuntimeError("could not normalize a random CP map to unital")


def random_covariant_context(rng, max_ambient: int = 6,
                             tol: float = DEFAULT_TOL,
                             max_tries: int = 50) -> DualityContext:
    """Random covariant bi-cyclic duality instance.

    A has square blocks (dim = mult), B has wide blocks (dim ≤ mult); S is
    a random unital CP map, g a random unit vector, and f is built from the
    block densities of φ_g∘S so that covariance holds by construction.
    """
    rng = rng_from(rng)
    for _ in range(max_tries):
        a_alg = random_standard_algebra(rng, max_ambient, profile="square")
        b_alg = random_standard_algebra(rng, max_ambient, profile="wide")
        s = random_unital_cp_map(rng, a_alg, b_alg, tol)
        g = random_unit_vector(rng, b_alg.ambient_dim)
        if not is_cyclic(commutant(b_alg), g, DRAW_CUT):
            continue
        f = _covariant_partner(s, g)
        if f is None:
            continue
        ctx = build_context(a_alg, b_alg, s, f, g, tol)
        if ctx.covariant and ctx.f_cyclic_for_source and ctx.g_cyclic_for_target_commutant:
            return ctx
    raise RuntimeError("failed to sample a covariant bi-cyclic context")


def _covariant_partner(s: CPMap, g) -> np.ndarray:
    """Unit vector f with φ_f = φ_g∘S, or None when the state is too
    degenerate to be a vector state on the A side."""
    source = s.source
    basis = coordinate_basis(source)
    omega = np.array([state_value(g, represent(apply(s, a))) for a in basis])
    parts = []
    pos = 0
    for d, m in source.blocks:
        rho = np.zeros((d, d), dtype=np.complex128)
        for u in range(d):
            for v in range(d):
                rho[u, v] = omega[pos + v * d + u]
        pos += d * d
        rho = 0.5 * (rho + rho.conj().T)
        fns = psd_functions(rho, DRAW_CUT)
        if fns.rank < m:
            return None
        factor = fns.sqrt[:, :]
        if m != d:
            return None
        parts.append(factor.reshape(-1))
    f = np.concatenate(parts)
    nrm = np.linalg.norm(f)
    if nrm < DRAW_CUT:
        return None
    return f / nrm
