import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpdilate.algebra import (adjoint_permutation, basis_action,
                              basis_sandwich, commutant, coordinate_basis,
                              coordinate_basis_stack, coordinates, decompose,
                              element, element_from_coordinates, identity,
                              is_cyclic, make_algebra, project_to_algebra,
                              represent, state_value, zero)
from cpdilate import algebra
from cpdilate.errors import DimensionCap, NotInAlgebra
from cpdilate.sampling import random_standard_algebra

from conftest import (einsum_represent, loop_basis_action, null_space,
                      slice_map, structure_constants, tensor_with_factor)


class TestMakeAlgebra:
    def test_full_two_by_two(self):
        alg = make_algebra([(2, 1)])
        assert alg.ambient_dim == 2
        assert alg.coord_dim == 4

    def test_two_point_diagonal(self):
        alg = make_algebra([(1, 1), (1, 1)])
        assert alg.ambient_dim == 2
        assert alg.coord_dim == 2

    def test_multiplicity_arithmetic(self):
        alg = make_algebra([(2, 3)])
        assert alg.ambient_dim == 6
        assert alg.coord_dim == 4

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            make_algebra([(9, 9)])

    def test_bad_blocks(self):
        with pytest.raises(ValueError):
            make_algebra([(0, 1)])


class TestRepresent:
    def test_identity_is_ambient_identity(self):
        alg = make_algebra([(2, 3), (1, 2)])
        assert_allclose(represent(identity(alg)), np.eye(8))

    def test_two_point_is_diagonal(self):
        alg = make_algebra([(1, 1), (1, 1)])
        a = element(alg, [np.array([[2.0]]), np.array([[-3.0]])])
        assert_allclose(represent(a), np.diag([2.0, -3.0]))

    def test_multiplicity_trace(self, rng):
        alg = make_algebra([(2, 2)])
        blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = element(alg, [blk])
        amb = represent(a)
        assert_allclose(amb, np.kron(blk, np.eye(2)))
        assert_allclose(np.trace(amb), 2 * np.trace(blk))

    def test_star_and_product_homomorphism(self, rng):
        alg = make_algebra([(2, 2), (3, 1)])
        x = element(alg, [rng.standard_normal((2, 2)), rng.standard_normal((3, 3))])
        y = element(alg, [rng.standard_normal((2, 2)), rng.standard_normal((3, 3))])
        assert_allclose(represent(x @ y), represent(x) @ represent(y), atol=1e-13)
        assert_allclose(represent(x.adjoint()), represent(x).conj().T)


class TestCommutant:
    def test_full_algebra_commutant_is_scalars(self):
        alg = make_algebra([(2, 1)])
        comm = commutant(alg)
        assert comm.blocks == ((1, 2),)
        one = identity(comm)
        assert_allclose(represent(one), np.eye(2))

    def test_diagonal_is_self_commutant(self):
        alg = make_algebra([(1, 1), (1, 1)])
        comm = commutant(alg)
        assert comm.blocks == ((1, 1), (1, 1))
        a = element(comm, [np.array([[2.0]]), np.array([[5.0]])])
        assert_allclose(represent(a), np.diag([2.0, 5.0]))

    def test_double_commutant_identical(self):
        alg = make_algebra([(2, 3), (1, 4)])
        assert commutant(commutant(alg)) == alg

    def test_mutual_commutation(self, rng):
        alg = make_algebra([(2, 3)])
        comm = commutant(alg)
        for x in coordinate_basis(alg):
            for y in coordinate_basis(comm):
                bracket = represent(x) @ represent(y) - represent(y) @ represent(x)
                assert np.linalg.norm(bracket) <= 1e-12

    def test_against_brute_force_commutator_kernel(self):
        # oracle: solve [M, a] = 0 over all ambient 6x6 matrices by a null
        # space computation and compare the dimension with the closed form
        alg = make_algebra([(2, 3)])
        comm = commutant(alg)
        n = alg.ambient_dim
        rows = []
        eye = np.eye(n)
        for x in coordinate_basis(alg):
            r = represent(x)
            rows.append(np.kron(r, eye) - np.kron(eye, r.T))
        kernel = null_space(np.vstack(rows))
        assert kernel.shape[1] == comm.coord_dim
        # every kernel vector must decompose in the commutant
        for k in range(kernel.shape[1]):
            decompose(comm, kernel[:, k].reshape(n, n))


class TestStructureConstants:
    @pytest.mark.parametrize("blocks", [[(1, 1)], [(2, 1)], [(3, 1)],
                                        [(1, 1), (1, 1)], [(2, 2), (1, 1)],
                                        [(2, 3)], [(1, 3), (2, 1), (1, 2)],
                                        [(3, 3)], [(1, 2), (1, 1), (2, 1)],
                                        [(2, 1), (2, 2), (1, 3)]])
    def test_equal_to_products_of_basis_elements(self, blocks):
        for alg in (make_algebra(blocks), commutant(make_algebra(blocks))):
            basis = coordinate_basis(alg)
            reference = np.array([[coordinates(x @ y) for y in basis]
                                  for x in basis])
            got = structure_constants(alg)
            assert got.dtype == reference.dtype
            assert np.array_equal(got, reference)


class TestDecompose:
    def test_round_trip(self, rng):
        alg = make_algebra([(2, 2), (1, 3)])
        x = element(alg, [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                          rng.standard_normal((1, 1))])
        got = decompose(alg, represent(x))
        assert_allclose(coordinates(got), coordinates(x), atol=1e-13)

    def test_round_trip_flipped(self, rng):
        comm = commutant(make_algebra([(2, 3)]))
        x = element(comm, [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
        got = decompose(comm, represent(x))
        assert_allclose(coordinates(got), coordinates(x), atol=1e-13)

    def test_off_diagonal_rejected_with_residual(self):
        alg = make_algebra([(1, 1), (1, 1)])
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotInAlgebra) as exc:
            decompose(alg, m)
        assert_allclose(exc.value.residual, 1.0)

    def test_projection_residual_oracle(self, rng):
        # oracle: residual of the projection equals the distance to an
        # explicit Hilbert-Schmidt orthonormal basis of the algebra
        alg = make_algebra([(2, 2), (1, 1)])
        n = alg.ambient_dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis = [represent(x) for x in coordinate_basis(alg)]
        onb = []
        for b in basis:
            w = b.astype(complex)
            for q in onb:
                w = w - q * np.vdot(q, w)
            onb.append(w / np.linalg.norm(w))
        proj = sum(q * np.vdot(q, m) for q in onb)
        expected = np.linalg.norm(m - proj)
        _, residual = project_to_algebra(alg, m)
        assert_allclose(residual, expected, atol=1e-12)


class TestCyclicity:
    def test_full_matrix_any_vector(self):
        alg = make_algebra([(2, 1)])
        assert is_cyclic(alg, np.array([1.0, 0.0]))

    def test_diagonal_needs_support_everywhere(self):
        alg = make_algebra([(1, 1), (1, 1)])
        assert not is_cyclic(alg, np.array([1.0, 0.0]))
        assert is_cyclic(alg, np.array([1.0, 1.0]) / np.sqrt(2))


def conditional_expectation(target, psi):
    """The slice map B⊗B(K) → B of the vector state ψ on K, followed by
    membership in B."""
    return lambda m: decompose(target, slice_map(m, psi, target.ambient_dim))


class TestConditionalExpectation:
    def test_b_tensor_identity(self, rng):
        target = make_algebra([(2, 1)])
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        exp = conditional_expectation(target, psi)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = tensor_with_factor(b, 3, np.eye(3))
        assert_allclose(represent(exp(m)), b, atol=1e-12)

    def test_orthogonal_rank_one_kills(self):
        target = make_algebra([(2, 1)])
        exp = conditional_expectation(target, np.array([1.0, 0.0]))
        proj_k1 = np.diag([0.0, 1.0])
        m = tensor_with_factor(np.eye(2), 2, proj_k1)
        assert_allclose(represent(exp(m)), 0 * np.eye(2), atol=1e-14)

    def test_unital_and_positive(self, rng):
        target = make_algebra([(1, 1), (1, 1)])
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        exp = conditional_expectation(target, psi)
        assert_allclose(represent(exp(np.eye(6))), np.eye(2), atol=1e-13)
        # positivity on T*T for random T in B ⊗ B(K)
        for _ in range(5):
            t = np.zeros((6, 6), dtype=complex)
            for _ in range(4):
                c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                b = np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                t += tensor_with_factor(b, 3, c)
            out = represent(exp(t.conj().T @ t))
            eigs = np.linalg.eigvalsh(out)
            assert eigs.min() >= -1e-10 * max(1.0, eigs.max())

    def test_worked_example_displayed_matrix(self):
        # hand-built dilation matrix of the worked two-state example: the
        # k0-slot compression must give back S, block (1,0) is (a1-a2)/2 p1
        target = make_algebra([(1, 1), (1, 1)])
        exp = conditional_expectation(target, np.array([1.0, 0.0, 0.0]))
        for a1, a2 in [(1.0, 0.0), (0.3, -0.7)]:
            s = 0.5 * (a1 + a2)
            t = 0.5 * (a1 - a2)
            p1 = np.diag([1.0, 0.0])
            p2 = np.diag([0.0, 1.0])
            eye = np.eye(2)
            zero2 = np.zeros((2, 2))
            j_a = np.block([[s * eye, t * p1, t * p2],
                            [t * p1, s * p1, zero2],
                            [t * p2, zero2, s * p2]])
            got = exp(j_a)
            assert_allclose(represent(got), np.diag([s, s]), atol=1e-14)
            assert_allclose(j_a[2:4, 0:2], t * p1)


class TestElementOps:
    def test_zero_and_arithmetic(self, rng):
        alg = make_algebra([(2, 1), (1, 2)])
        x = element(alg, [rng.standard_normal((2, 2)), rng.standard_normal((1, 1))])
        z = zero(alg)
        assert ((x + z) - x).norm() <= 1e-15
        assert (2.0 * x - x - x).norm() <= 1e-15

    def test_coordinates_round_trip(self, rng):
        alg = make_algebra([(2, 2), (3, 1)])
        c = rng.standard_normal(alg.coord_dim) + 1j * rng.standard_normal(alg.coord_dim)
        assert_allclose(coordinates(element_from_coordinates(alg, c)), c)

    def test_state_value(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert_allclose(state_value(v, np.diag([1.0, 3.0])), 2.0)


def loop_represent(alg, coords):
    """Ambient matrix of one coordinate vector, one np.kron per block."""
    out = np.zeros((alg.ambient_dim, alg.ambient_dim), dtype=complex)
    pos = 0
    for (d, m), off in zip(alg.blocks, alg.coord_offsets()):
        b = coords[off:off + d * d].reshape(d, d)
        out[pos:pos + d * m, pos:pos + d * m] = (
            np.kron(np.eye(m), b) if alg.flipped else np.kron(b, np.eye(m)))
        pos += d * m
    return out


def loop_project(alg, m):
    """Coordinates and residual of the projection of one matrix, by the
    partial trace of each diagonal block."""
    coords, pos = [], 0
    for d, mult in alg.blocks:
        blk = m[pos:pos + d * mult, pos:pos + d * mult]
        if alg.flipped:
            c = np.einsum("asat->st", blk.reshape(mult, d, mult, d))
        else:
            c = np.einsum("rsus->ru", blk.reshape(d, mult, d, mult))
        coords.append(c.reshape(-1) / mult)
        pos += d * mult
    coords = np.concatenate(coords)
    return coords, np.linalg.norm(m - loop_represent(alg, coords))


BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  min_size=1, max_size=3)
BATCH = st.lists(st.integers(1, 3), max_size=2).map(tuple)


def _algebra(blocks, flipped):
    alg = make_algebra(blocks)
    return commutant(alg) if flipped else alg


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBatchedKernels:
    @settings(max_examples=60)
    @given(BLOCKS, st.booleans(), BATCH, st.integers(0, 2**32 - 1))
    def test_represent_equals_per_matrix_loop(self, blocks, flipped, batch, seed):
        alg = _algebra(blocks, flipped)
        coords = _complex(np.random.default_rng(seed), batch + (alg.coord_dim,))
        stacked = represent(element_from_coordinates(alg, coords))
        assert stacked.shape == batch + (alg.ambient_dim, alg.ambient_dim)
        for idx in np.ndindex(*batch):
            assert_allclose(stacked[idx], loop_represent(alg, coords[idx]),
                            rtol=0, atol=1e-13)
        assert_allclose(coordinates(element_from_coordinates(alg, coords)),
                        coords, rtol=0, atol=0)

    @settings(max_examples=60)
    @given(BLOCKS, st.booleans(), BATCH, st.integers(0, 2**32 - 1))
    def test_projection_equals_per_matrix_loop(self, blocks, flipped, batch, seed):
        alg = _algebra(blocks, flipped)
        rng = np.random.default_rng(seed)
        n = alg.ambient_dim
        # members of the algebra plus a random perturbation of each
        m = (represent(element_from_coordinates(
            alg, _complex(rng, batch + (alg.coord_dim,))))
            + 0.1 * _complex(rng, batch + (n, n)))
        el, residual = project_to_algebra(alg, m)
        assert np.shape(residual) == batch
        for idx in np.ndindex(*batch):
            ref_coords, ref_residual = loop_project(alg, m[idx])
            assert_allclose(coordinates(el)[idx], ref_coords, rtol=0, atol=1e-13)
            assert abs(np.asarray(residual)[idx] - ref_residual) <= 1e-13
            single, single_residual = project_to_algebra(alg, m[idx])
            assert isinstance(single_residual, float)
            assert abs(single_residual - ref_residual) <= 1e-13

    @settings(max_examples=40)
    @given(BLOCKS, st.booleans(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_basis_sandwich_equals_dense_basis_contraction(self, blocks, flipped,
                                                           a_dim, seed):
        alg = _algebra(blocks, flipped)
        rng = np.random.default_rng(seed)
        n = alg.ambient_dim
        left, right = _complex(rng, (2, a_dim, n)), _complex(rng, (a_dim, n, 3))
        reps = np.stack([loop_represent(alg, c) for c in np.eye(alg.coord_dim)])
        assert_allclose(basis_sandwich(alg, left, right),
                        np.einsum("pag,cgf,afq->cpq", left, reps, right),
                        rtol=0, atol=1e-12)

    @settings(max_examples=40)
    @given(BLOCKS, st.booleans(), st.integers(0, 2**32 - 1))
    def test_basis_action_equals_per_matrix_loop(self, blocks, flipped, seed):
        alg = _algebra(blocks, flipped)
        v = _complex(np.random.default_rng(seed), alg.ambient_dim)
        rows = basis_action(alg, v)
        for c, coords in enumerate(np.eye(alg.coord_dim)):
            assert_allclose(rows[c], loop_represent(alg, coords) @ v,
                            rtol=0, atol=1e-13)

    @settings(max_examples=40)
    @given(BLOCKS, st.booleans(), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_basis_action_is_the_dense_basis_product(self, blocks, flipped,
                                                     q, seed):
        # a copy of rows equals the product with the dense basis matrices,
        # for a vector (q = 0) and for an operator with q columns
        alg = _algebra(blocks, flipped)
        shape = (alg.ambient_dim, q) if q else (alg.ambient_dim,)
        v = _complex(np.random.default_rng(seed), shape)
        dense = represent(coordinate_basis_stack(alg)) @ v
        got = basis_action(alg, v)
        assert got.shape == (alg.coord_dim,) + shape
        np.testing.assert_array_equal(got, dense)

    @settings(max_examples=40)
    @given(BLOCKS, st.booleans(), st.integers(0, 2**32 - 1))
    def test_basis_action_on_chosen_elements_selects_rows(self, blocks,
                                                          flipped, seed):
        # an index array in any order, with repeats, and strided slices
        alg = _algebra(blocks, flipped)
        rng = np.random.default_rng(seed)
        v = _complex(rng, (alg.ambient_dim, 2))
        full = basis_action(alg, v)
        n = alg.coord_dim
        for coords in (rng.integers(0, n, size=n + 2), slice(1, None, 3),
                       slice(n // 2, n), slice(n, n)):
            np.testing.assert_array_equal(basis_action(alg, v, coords),
                                          full[coords])

    def test_decompose_names_the_first_stacked_matrix_that_fails(self):
        alg = make_algebra([(1, 2)])
        good = np.eye(2)
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert_allclose(coordinates(decompose(alg, np.stack([good, good]))),
                        [[1.0], [1.0]])
        with pytest.raises(NotInAlgebra) as exc:
            decompose(alg, np.stack([good, bad, 2 * bad]))
        assert exc.value.residual == pytest.approx(0.5)

    def test_basis_stack_matches_basis_list(self):
        for alg in (make_algebra([(2, 2), (1, 3)]), commutant(make_algebra([(2, 3)]))):
            stacked = represent(coordinate_basis_stack(alg))
            for i, x in enumerate(coordinate_basis(alg)):
                assert_allclose(stacked[i], represent(x), rtol=0, atol=0)
                adj = coordinate_basis(alg)[adjoint_permutation(alg)[i]]
                assert_allclose(represent(adj), represent(x.adjoint()),
                                rtol=0, atol=0)

    def test_stacked_state_values(self, rng):
        alg = make_algebra([(2, 2), (1, 1)])
        v = _complex(rng, alg.ambient_dim)
        stacked = represent(coordinate_basis_stack(alg))
        values = state_value(v, stacked)
        for i, x in enumerate(coordinate_basis(alg)):
            assert abs(values[i] - state_value(v, represent(x))) <= 1e-13


def signed_zeros(rng, values):
    """``values`` with about a third of the real and of the imaginary parts
    replaced by +0.0 or −0.0."""
    out = values.copy()
    for part in (out.real, out.imag):
        zero = rng.random(part.shape) < 1 / 3
        part[zero] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[zero]
    return out


class TestIndexTables:
    """The scatter ``represent`` and the gather ``basis_action`` read
    tables built once per algebra; both copy entries, so they equal the
    einsum and the loop they replaced bit for bit."""

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.booleans(), BATCH)
    def test_represent_is_the_einsum_bit_for_bit(self, seed, flipped, batch):
        rng = np.random.default_rng(seed)
        alg = _algebra(random_standard_algebra(rng, 8).blocks, flipped)
        coords = signed_zeros(rng, _complex(rng, batch + (alg.coord_dim,)))
        x = element_from_coordinates(alg, coords)
        got, want = represent(x), einsum_represent(x)
        assert got.shape == want.shape
        # equal bytes: equal values, and zeros of the same sign
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3))
    def test_basis_action_is_the_loop_bit_for_bit(self, seed, flipped, q):
        # every element, an index array with repeats, and slices, for a
        # vector (q = 0) and for an operator with q columns
        rng = np.random.default_rng(seed)
        alg = _algebra(random_standard_algebra(rng, 8).blocks, flipped)
        shape = (alg.ambient_dim, q) if q else (alg.ambient_dim,)
        v = signed_zeros(rng, _complex(rng, shape))
        n = alg.coord_dim
        for coords in (None, rng.integers(0, n, size=n + 2), slice(1, None, 3),
                       slice(n // 2, n), slice(n, n)):
            got, want = basis_action(alg, v, coords), loop_basis_action(alg, v, coords)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_tables_are_built_once_and_read_only(self):
        alg = make_algebra([(2, 2), (1, 3)])
        for table in (algebra.adjoint_permutation, algebra.unit_coordinates,
                      algebra._action_rows):
            assert table(make_algebra([(2, 2), (1, 3)])) is table(alg)
            assert not table(alg).flags.writeable
        assert all(not t.flags.writeable for t in algebra._represent_slots(alg))
        assert commutant(make_algebra([(2, 2), (1, 3)])) is commutant(alg)

    def test_full_projection_is_the_identity_with_zero_residual(self):
        # the partial trace over a multiplicity of one is the identity and
        # writes +0.0 for −0.0; the shortcut keeps both
        alg = make_algebra([(2, 1)])
        m = np.array([[-0.0 + 1j, 2.0 - 0.0j], [0.0, -3.5 + 0.25j]])
        el, residual = project_to_algebra(alg, np.stack([m, 2 * m]))
        want = np.einsum("...rsus->...ru", np.stack([m, 2 * m]).reshape(2, 2, 1, 2, 1))
        assert el.block_matrices[0].tobytes() == want.tobytes()
        assert np.array_equal(residual, [0.0, 0.0])
        assert project_to_algebra(alg, m)[1] == 0.0
