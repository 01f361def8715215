import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paraunitary as pu
from paraunitary.numfield import (
    InputError,
    frob,
    mat_residual,
    subspace_residual,
    zero_subspace,
)

from conftest import columns_outside, contained_in, rand_matrix, random_subspace

E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


class TestOrthonormalBasis:
    def test_dependent_columns(self):
        s = pu.orthonormal_basis(np.hstack([E1, 2 * E1]))
        assert s.dim == 1
        assert mat_residual(s.projector(), np.diag([1.0, 0.0])) < 1e-12

    def test_zero_matrix(self):
        s = pu.orthonormal_basis(np.zeros((3, 2)))
        assert s.dim == 0 and s.ambient_dim == 3

    def test_full_plane(self):
        # independent check by direct multiplication of the returned frame
        s = pu.orthonormal_basis(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert s.dim == 2
        f = s.frame
        assert mat_residual(f.conj().T @ f, np.eye(2)) < 1e-12
        assert mat_residual(s.projector(), np.eye(2)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            pu.orthonormal_basis(np.array([[np.nan], [0.0]]))


class TestKernel:
    def test_diagonal(self):
        s = pu.kernel(np.diag([1.0, 0.0]))
        assert s.dim == 1
        assert mat_residual(s.projector(), np.diag([0.0, 1.0])) < 1e-12

    def test_zero_matrix(self):
        s = pu.kernel(np.zeros((2, 2)))
        assert s.dim == 2

    def test_rank_one(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        s = pu.kernel(m)
        assert s.dim == 1
        # oracle: the kernel basis is annihilated by m
        assert frob(m @ s.frame) < 1e-12
        v = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert mat_residual(s.projector(), v @ v.conj().T) < 1e-12


@pytest.mark.parametrize(
    "rows, cols, rank",
    [(12, 4, 4), (20, 6, 2), (5, 5, 2), (3, 7, 3), (2, 6, 1), (0, 4, 0)],
    ids=["tall", "tall-deficient", "square", "wide", "wide-deficient", "zero-rows"],
)
def test_kernel_shapes(rows, cols, rank):
    rng = np.random.default_rng([rows, cols, rank])
    m = rand_matrix(rng, rows, rank) @ rand_matrix(rng, rank, cols)
    s = pu.kernel(m)
    assert s.ambient_dim == cols
    assert s.dim == cols - rank
    assert mat_residual(s.frame.conj().T @ s.frame, np.eye(s.dim)) < 1e-12
    assert frob(m @ s.frame) <= pu.tolerances().eq * max(1.0, frob(m))


class TestMeetJoin:
    def test_meet_coordinate_planes(self):
        a = pu.orthonormal_basis(np.eye(3)[:, :2])
        b = pu.orthonormal_basis(np.eye(3)[:, 1:])
        m = pu.meet_subspace(a, b)
        assert m.dim == 1
        assert mat_residual(m.projector(), np.diag([0.0, 1.0, 0.0])) < 1e-10

    def test_meet_idempotent(self):
        s = random_subspace(4, 11)
        m = pu.meet_subspace(s, s)
        assert m.dim == s.dim
        assert subspace_residual(m, s) < 1e-10

    def test_meet_transverse_lines(self):
        # oracle: solving the linear system directly gives only x = 0
        a = pu.orthonormal_basis(E1)
        b = pu.orthonormal_basis(np.array([[1.0], [1.0]]))
        stacked = np.vstack([np.eye(2) - a.projector(), np.eye(2) - b.projector()])
        assert np.linalg.matrix_rank(stacked) == 2
        assert pu.meet_subspace(a, b).dim == 0

    def test_join_coordinates(self):
        j = pu.join_subspace(pu.orthonormal_basis(E1), pu.orthonormal_basis(E2))
        assert j.dim == 2

    def test_join_with_zero(self):
        s = random_subspace(3, 12)
        j = pu.join_subspace(s, zero_subspace(3))
        assert subspace_residual(j, s) < 1e-10

    def test_join_transverse_lines(self):
        # oracle: rank of the concatenated spanning set
        cols = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.linalg.matrix_rank(cols) == 2
        j = pu.join_subspace(
            pu.orthonormal_basis(E1), pu.orthonormal_basis(np.array([[1.0], [1.0]]))
        )
        assert j.dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            pu.meet_subspace(random_subspace(2, 1), random_subspace(3, 1))


@pytest.mark.parametrize(
    "field, value",
    [("rank", float("nan")), ("eq", float("inf")), ("trim", float("inf")),
     ("eq", 0.0), ("eq", 1e-3), ("rank", 1e-5), ("trim", 1e-5), ("trim", 0.9)],
)
def test_tolerances_must_be_finite_positive_and_bounded(field, value):
    with pytest.raises(InputError):
        pu.Tolerances(**{field: value})
    assert pu.Tolerances(eq=1e-4).eq == 1e-4
    assert pu.Tolerances(trim=1e-6).trim == 1e-6


class TestToleranceScope:
    def test_override_is_undone_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="inside the scope"):
            with pu.tolerance_scope(eq=1e-5) as active:
                assert pu.tolerances() is active and active.eq == 1e-5
                raise RuntimeError("inside the scope")
        assert pu.tolerances() == pu.Tolerances()

    def test_bad_value_is_rejected_on_entry_and_the_outer_value_stays(self):
        with pu.tolerance_scope(eq=1e-6):
            with pytest.raises(InputError):
                with pu.tolerance_scope(eq=float("inf")):
                    pytest.fail("entered a scope with an infinite tolerance")
            assert pu.tolerances() == pu.Tolerances(eq=1e-6)
        assert pu.tolerances() == pu.Tolerances()

    def test_scope_is_not_seen_by_a_running_thread(self):
        main_entered, worker_entered, main_checked = (threading.Event() for _ in range(3))
        seen = []

        def worker():
            if main_entered.wait(10):
                seen.append(pu.tolerances())
                with pu.tolerance_scope(trim=1e-8):
                    worker_entered.set()
                    main_checked.wait(10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            with pu.tolerance_scope(rank=1e-7):
                main_entered.set()
                assert worker_entered.wait(10)
                assert pu.tolerances() == pu.Tolerances(rank=1e-7)
        finally:
            main_checked.set()
            thread.join(10)
        assert not thread.is_alive()
        assert seen == [pu.Tolerances()]


class TestComplementAndProjector:
    def test_complement_of_line(self):
        c = pu.ortho_complement(pu.orthonormal_basis(E1))
        assert mat_residual(c.projector(), np.diag([0.0, 1.0])) < 1e-12

    def test_complement_of_everything(self):
        c = pu.ortho_complement(pu.orthonormal_basis(np.eye(4)))
        assert c.dim == 0

    def test_double_complement(self):
        s = random_subspace(5, 13)
        cc = pu.ortho_complement(pu.ortho_complement(s))
        assert subspace_residual(cc, s) < 1e-10

    def test_complement_dims(self):
        s = random_subspace(5, 14)
        c = pu.ortho_complement(s)
        assert s.dim + c.dim == 5
        assert pu.meet_subspace(s, c).dim == 0

    def test_projector_examples(self):
        assert mat_residual(
            pu.orthonormal_basis(E1).projector(), np.diag([1.0, 0.0])
        ) < 1e-12
        assert frob(zero_subspace(2).projector()) == 0.0


dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=10**6)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_projectors_idempotent_self_adjoint(n, seed):
    p = random_subspace(n, seed).projector()
    assert frob(p @ p - p) < 1e-10
    assert frob(p - p.conj().T) < 1e-10


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_lattice_commutative(n, seed):
    a, b = random_subspace(n, seed, 0), random_subspace(n, seed, 1)
    assert subspace_residual(pu.meet_subspace(a, b), pu.meet_subspace(b, a)) < 1e-8
    assert subspace_residual(pu.join_subspace(a, b), pu.join_subspace(b, a)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_lattice_associative(n, seed):
    a, b, c = (random_subspace(n, seed, salt) for salt in range(3))
    lhs = pu.meet_subspace(pu.meet_subspace(a, b), c)
    rhs = pu.meet_subspace(a, pu.meet_subspace(b, c))
    assert subspace_residual(lhs, rhs) < 1e-8
    lhs = pu.join_subspace(pu.join_subspace(a, b), c)
    rhs = pu.join_subspace(a, pu.join_subspace(b, c))
    assert subspace_residual(lhs, rhs) < 1e-8


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_lattice_absorption_and_bounds(n, seed):
    a, b = random_subspace(n, seed, 0), random_subspace(n, seed, 1)
    assert subspace_residual(pu.join_subspace(a, pu.meet_subspace(a, b)), a) < 1e-8
    assert subspace_residual(pu.meet_subspace(a, pu.join_subspace(a, b)), a) < 1e-8
    assert pu.meet_subspace(a, zero_subspace(n)).dim == 0
    full = pu.orthonormal_basis(np.eye(n))
    assert pu.join_subspace(a, full).dim == n


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_de_morgan(n, seed):
    a, b = random_subspace(n, seed, 0), random_subspace(n, seed, 1)
    lhs = pu.ortho_complement(pu.join_subspace(a, b))
    rhs = pu.meet_subspace(pu.ortho_complement(a), pu.ortho_complement(b))
    assert mat_residual(lhs.projector(), rhs.projector()) < 1e-8


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_orthomodular_law(n, seed):
    # coerce an inclusion a <= b, then check a v (a* ^ b) = b
    b = random_subspace(n, seed, 0)
    a = pu.meet_subspace(random_subspace(n, seed, 1), b)
    pb, pa = b.projector(), a.projector()
    assert frob(pb @ pa - pa) < 1e-8  # the inclusion itself
    lhs = pu.join_subspace(a, pu.meet_subspace(pu.ortho_complement(a), b))
    assert mat_residual(lhs.projector(), pb) < 1e-8


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_inclusion_residual_consistent(n, seed):
    a, b = random_subspace(n, seed, 0), random_subspace(n, seed, 1)
    m = pu.meet_subspace(a, b)
    assert contained_in(m, a) and contained_in(m, b)
    assert columns_outside(m.frame, a) < 1e-8
