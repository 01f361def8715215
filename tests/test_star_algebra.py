import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paraunitary as pu
from paraunitary import star_algebra
from paraunitary.numfield import (
    InputError,
    NumericalError,
    _rank_from_singular_values,
    as_matrix,
    frob,
    orthonormal_basis,
    subspace_residual,
)
from paraunitary.star_algebra import _seed_span, is_perp, oml_complement, oml_join, oml_meet

from conftest import (
    block_algebra,
    closure_residual,
    contained_in,
    contains,
    diag_algebra,
    doubled_algebra,
    each_algebra_kind,
    five_shapes,
    full_algebra,
    load_module,
    rand_matrix,
    random_algebra,
    random_subspace,
    scalar_algebra,
)
from test_acceptance import ALGEBRA_SEEDS

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestGenerate:
    def test_no_generators_gives_scalars(self):
        a = pu.generate_algebra(2, [])
        assert a.linear_dim == 1
        assert contains(a, np.eye(2))

    def test_nilpotent_generates_everything(self):
        # products of the generator and its adjoint reach all matrix units
        a = pu.generate_algebra(2, [NILPOTENT])
        assert a.linear_dim == 4
        for unit in (NILPOTENT, NILPOTENT.T, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            assert contains(a, unit)

    def test_distinct_eigenvalues_generate_diagonal(self):
        # powers of diag(1,2,3) span the diagonal (Vandermonde is invertible)
        a = pu.generate_algebra(3, [np.diag([1.0, 2.0, 3.0])])
        assert a.linear_dim == 3
        assert contains(a, np.diag([5.0, -1.0, 2.0]))
        assert not contains(a, np.eye(3)[:, ::-1])

    def test_generator_dimension_mismatch(self):
        with pytest.raises(InputError):
            pu.generate_algebra(2, [np.eye(3)])

    def test_closure_residuals_are_tiny(self):
        a = full_algebra(3, seed=5)
        assert closure_residual(a) < 1e-10
        b = doubled_algebra(2, seed=5)
        assert closure_residual(b) < 1e-10


def reference_closure(n, gens):
    """The all-pairs closure loop that ``generate_algebra`` replaced, as an oracle.

    Every round multiplies all pairs of the current basis and takes a
    row SVD of the basis and the products, cut relative to their largest
    singular value, until the linear dimension stops growing.
    """

    def orthonormalize(mats):
        _, s, vh = np.linalg.svd(np.reshape(mats, (len(mats), n * n)), full_matrices=False)
        return list(vh[: _rank_from_singular_values(s)].reshape(-1, n, n))

    gens = [np.asarray(g, dtype=complex) for g in gens]
    basis = orthonormalize([np.eye(n)] + [m for g in gens for m in (g, g.conj().T)])
    for _ in range(n * n + 1):
        k = len(basis)
        prods = np.einsum("aij,bjk->abik", np.stack(basis), np.stack(basis))
        basis = orthonormalize(basis + list(prods.reshape(k * k, n, n)))
        if len(basis) == k:
            return pu.StarAlgebra(n, gens, basis)
    raise AssertionError("reference closure did not stabilize")


def closure_until_a_round_keeps_nothing(n, gens):
    """``generate_algebra``'s span, from a loop that runs a round even on all of M_n."""
    span = _seed_span(n, [np.asarray(g, dtype=complex) for g in gens])
    seed = added = span.reshape(-1, n, n)
    while True:
        products = np.einsum("aij,bjk->abik", seed, added).reshape(-1, n * n)
        scale = max(1.0, frob(products))
        for _ in range(2):
            products = products - (products @ span.conj().T) @ span
        kept = orthonormal_basis(products.T, scale).frame.T
        if not len(kept):
            return span
        span = np.vstack([span, kept])
        added = kept.reshape(-1, n, n)


# the algebra specs of the bench workloads (verify, factor_deep, cli_lattice)
BENCH_SPECS = (
    "scalars:2", "diagonal:3", "full:3", "block:2+3", "doubled:2", "doubled:3",
    "full:4", "block:2+3+3", "full:5", "block:2+2+3", "full:7",
)


def oracle_cases():
    """One ``pytest.param(n, generators)`` per algebra the closure is checked on."""
    family = {
        "scalars1": scalar_algebra(1),
        "scalars3": scalar_algebra(3),
        "diag4": diag_algebra(4),
        "nilpotent": pu.generate_algebra(2, [NILPOTENT]),
        "full2": full_algebra(2, 1),
        "full4": full_algebra(4, 2),
        "blocks122": block_algebra([1, 2, 2], 2),
        "doubled3": doubled_algebra(3, 2),
        "near-scalar": numerically_scalar_generator(),
    }
    family.update(
        {f"random{n}": random_algebra(n, seed) for n, seed in ALGEBRA_SEEDS.items()}
    )
    cases = [pytest.param(a.dim, a.generators, id=name) for name, a in family.items()]
    cases.append(pytest.param(6, [doubled_near_degenerate(1e-5)], id="near-degenerate"))
    inputs = load_module("bench/inputs.py")
    for seed in (1, 2, 11, 15):
        for spec in BENCH_SPECS:
            n, gens = inputs.algebra_generators(spec, seed)
            cases.append(pytest.param(n, gens, id=f"{spec}/{seed}"))
    for seed in (0, 1):
        for name, a in five_shapes(seed).items():
            cases.append(pytest.param(a.dim, a.generators, id=f"{name}/{seed}"))
    return cases


def doubled_near_degenerate(delta):
    """x + x with x = diag(0, 1, 1 + delta), in a random orthonormal basis of C^6.

    The closure is 3-dimensional with a 12-dimensional commutant; its third
    direction leaves span{1, g} only by about delta.
    """
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rand_matrix(rng, 6, 6))
    return q @ np.kron(np.eye(2), np.diag([0.0, 1.0, 1.0 + delta])) @ q.conj().T


def numerically_scalar_generator():
    # the closure drops the first generator (scalar to 1e-12) and keeps
    # x + x; the commutant must drop it too, though its norm is 1e6
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    near_scalar = 1e6 * (np.eye(6) + 1e-12 * np.diag([1.0, 0, 0, 0, 0, 0]))
    return pu.generate_algebra(6, [near_scalar, np.kron(np.eye(2), x)])


class TestClosureAgainstReference:
    @pytest.mark.parametrize("n, gens", oracle_cases())
    def test_same_algebra_as_all_pairs_closure(self, n, gens):
        a = pu.generate_algebra(n, gens)
        reference = reference_closure(n, gens)
        assert a.linear_dim == reference.linear_dim
        assert a.same_span(reference)
        assert closure_residual(a) <= 1e-10
        c = pu.commutant(a)
        reference_c = basis_commutant(reference)
        assert c.linear_dim == reference_c.linear_dim
        assert c.same_span(reference_c)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_powers_of_two_give_the_diagonal_algebra(self, n):
        # the all-pairs closure returned 51 (n = 11) and 34 (n = 12) matrices
        # with off-diagonal entries up to 0.85, a span that is not an algebra
        a = pu.generate_algebra(n, [np.diag(2.0 ** np.arange(n))])
        eq = pu.tolerances().eq
        assert a.linear_dim == n
        for b in a.basis:
            assert np.linalg.norm(b - np.diag(np.diag(b))) <= eq
        assert closure_residual(a) <= eq

    def test_noise_sized_direction_is_a_numerical_error(self):
        # the third direction leaves span{1, g} by 7.5e-8 of its products, so
        # it is known only to about 3e-9, above the rank cutoff; continuing
        # keeps rounding noise as directions (a 7-dimensional span with
        # closure residual 0.99), and the all-pairs loop returns all of M_6
        with pytest.raises(NumericalError, match="ambiguous"):
            pu.generate_algebra(6, [doubled_near_degenerate(1e-7)])

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_full_algebra_stops_without_a_last_round(self, n):
        # a round on all of M_n can only confirm that it is closed, so
        # skipping it leaves the basis, and every seeded draw, bitwise the same
        gens = [rand_matrix(np.random.default_rng([n, 17]), n, n)]
        a = pu.generate_algebra(n, gens)
        reference = closure_until_a_round_keeps_nothing(n, gens)
        assert reference.shape == (n * n, n * n)
        assert np.stack(a.basis).reshape(n * n, n * n).tobytes() == reference.tobytes()

    def test_full_m16_closes_in_under_a_second(self):
        gen = rand_matrix(np.random.default_rng(16), 16, 16)
        # CPU time of this process, so a busy host does not count against it
        start = time.process_time()
        a = pu.generate_algebra(16, [gen])
        elapsed = time.process_time() - start
        assert a.linear_dim == 256
        assert elapsed < 1.0


class TestStorage:
    @pytest.mark.parametrize("kind", sorted(each_algebra_kind()))
    def test_generators_and_basis_are_read_only_stacks(self, kind):
        a = each_algebra_kind()[kind]
        assert a.basis.shape == (a.linear_dim, a.dim, a.dim)
        assert a.generators.shape[1:] == (a.dim, a.dim)
        for stack in (a.generators, a.basis):
            with pytest.raises(ValueError, match="read-only"):
                stack[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            a.basis[0][...] = 0

    def test_an_algebra_refuses_reassignment(self):
        # a reassigned basis would leave _vec and the caches on the old algebra
        a, b = diag_algebra(3), full_algebra(3, seed=30)
        # fill both caches
        assert a.commutant.linear_dim == 3
        pu.ppu_t_power(a, 0)
        for attr in ("dim", "generators", "basis", "_vec", "_commutant", "_identity"):
            with pytest.raises(AttributeError):
                setattr(a, attr, getattr(b, attr))
            with pytest.raises(AttributeError):
                delattr(a, attr)
        with pytest.raises(AttributeError):
            a.extra = None
        assert a.membership_residual(a.basis) <= 1e-12

    def test_stacks_are_the_per_matrix_copies_bitwise(self):
        rng = np.random.default_rng(41)
        mats = [rand_matrix(rng, 3, 3), np.eye(3).tolist(), np.arange(9).reshape(3, 3)]
        per_matrix = np.array([as_matrix(m) for m in mats])
        a = pu.StarAlgebra(3, mats, [np.eye(3) / np.sqrt(3)])
        assert a.generators.tobytes() == per_matrix.tobytes()
        assert pu.StarAlgebra(3, [], [np.eye(3) / np.sqrt(3)]).generators.shape == (0, 3, 3)

    @pytest.mark.parametrize(
        "generators, message",
        [
            ([np.eye(2), np.eye(3)], "square of the ambient size"),
            ([np.ones((2, 3))], "square of the ambient size"),
            ([np.diag([1.0, np.nan])], "non-finite"),
        ],
        ids=["ragged", "wrong-shape", "non-finite"],
    )
    def test_bad_stacks_are_input_errors(self, generators, message):
        with pytest.raises(InputError, match=message):
            pu.StarAlgebra(2, generators, [np.eye(2) / np.sqrt(2)])

    def test_a_caller_edit_of_a_frame_leaves_its_member_alone(self):
        a = diag_algebra(3)
        f = np.eye(3, dtype=complex)[:, :1]
        m = pu.certify_member(a, pu.Subspace(f))
        # span(e1 + e2) is no member of the diagonal algebra's lattice
        f[:2, 0] = 1.0 / np.sqrt(2.0)
        assert pu.is_member_XAprime(a, m.subspace)
        assert m.subspace.frame[0, 0] == 1.0

    @pytest.mark.parametrize("owner, check, message", [
        (star_algebra, "mat_residual", "not trace-orthonormal"),
        (pu.StarAlgebra, "membership_residual", "identity is not in the span"),
    ], ids=["orthonormality", "identity"])
    def test_a_nan_basis_residual_is_an_input_error(self, monkeypatch, owner, check, message):
        monkeypatch.setattr(owner, check, lambda *args: float("nan"))
        with pytest.raises(InputError, match=message):
            pu.StarAlgebra(2, [np.eye(2)], [np.eye(2) / np.sqrt(2)])

    def test_a_caller_edit_of_a_generator_leaves_the_algebra_alone(self):
        g = np.diag([1, 2, 3]).astype(complex)
        a = pu.generate_algebra(3, [g])
        g[0, 1] = 5
        # the diagonal algebra's commutant is the diagonal algebra
        assert pu.commutant(a).linear_dim == 3


class TestCommutant:
    def test_commutant_of_scalars_is_everything(self):
        assert scalar_algebra(3).commutant.linear_dim == 9

    def test_commutant_of_everything_is_scalars(self):
        c = pu.generate_algebra(2, [NILPOTENT]).commutant
        assert c.linear_dim == 1
        assert contains(c, np.eye(2))

    def test_commutant_of_diagonal_is_diagonal(self):
        c = diag_algebra(3).commutant
        assert c.linear_dim == 3
        assert contains(c, np.diag([1.0, 5.0, 7.0]))
        assert not contains(c, np.eye(3, k=1))

    @pytest.mark.parametrize(
        "name, linear_dim, commutant_dim",
        [
            ("scalars_c2", 1, 4),
            ("diagonal_c3", 3, 3),
            ("full_m3", 9, 1),
            ("block_2_3", 13, 2),
            ("doubled_m2", 4, 4),
        ],
    )
    def test_five_shapes_have_their_known_commutant(self, name, linear_dim, commutant_dim):
        a = five_shapes(0)[name]
        assert a.linear_dim == linear_dim
        assert a.commutant.linear_dim == commutant_dim

    @pytest.mark.parametrize(
        "algebra",
        [scalar_algebra(2), diag_algebra(3), full_algebra(2, 1), doubled_algebra(2, 1)],
        ids=["scalars", "diag", "full", "doubled"],
    )
    def test_double_commutant(self, algebra):
        dc = algebra.commutant.commutant
        assert dc.linear_dim == algebra.linear_dim
        assert algebra.same_span(dc)


def basis_commutant(a):
    """Reference commutant: one commutator block per basis element."""
    n = a.dim
    eye = np.eye(n)
    null = pu.kernel(np.vstack([np.kron(b, eye) - np.kron(eye, b.T) for b in a.basis]))
    basis = [null.frame[:, i].reshape(n, n) for i in range(null.dim)]
    return pu.StarAlgebra(n, basis, basis)


class TestCommutantFromGenerators:
    def test_a_nan_certificate_is_a_numerical_error(self, monkeypatch):
        a = diag_algebra(3)
        monkeypatch.setattr(star_algebra, "_peak_scaled", lambda gens: [np.full((3, 3), np.nan)])
        with pytest.raises(NumericalError, match="residual nan"):
            pu.commutant(a)

    @pytest.mark.parametrize(
        "algebra",
        [
            scalar_algebra(3),
            diag_algebra(4),
            pu.generate_algebra(2, [NILPOTENT]),
            doubled_algebra(3, 2),
            block_algebra([1, 2, 2], 2),
            full_algebra(4, 2),
            numerically_scalar_generator(),
        ],
        ids=["scalars", "diag", "nilpotent", "doubled", "blocks", "full", "near-scalar"],
    )
    def test_same_span_as_basis_built(self, algebra):
        reference = basis_commutant(algebra)
        c = pu.commutant(algebra)
        assert c.same_span(reference)
        dc = pu.commutant(c)
        assert dc.same_span(basis_commutant(reference))
        assert dc.same_span(algebra)

    @pytest.mark.parametrize(
        "n, first, second",
        [
            (3, np.diag([1.0, 2.0, 3.0]), np.diag([2.0, -1.0, 7.0])),
            (
                6,
                np.kron(np.eye(2), rand_matrix(np.random.default_rng(42), 3, 3)),
                np.kron(np.eye(2), rand_matrix(np.random.default_rng(43), 3, 3)),
            ),
        ],
        ids=["diagonal", "doubled"],
    )
    def test_two_generators_of_one_algebra_give_one_commutant(self, n, first, second):
        a, b = pu.generate_algebra(n, [first]), pu.generate_algebra(n, [second])
        assert a.same_span(b)
        assert pu.commutant(a).same_span(pu.commutant(b))

    def test_a_basis_short_of_the_generators_is_a_numerical_error(self):
        # the diagonal units span an algebra whose commutant, the diagonal
        # algebra, does not commute with the all-ones generator
        units = [np.diag(e) for e in np.eye(3)]
        a = pu.StarAlgebra(3, [np.ones((3, 3))], units)
        with pytest.raises(NumericalError, match="residual 2.000e"):
            pu.commutant(a)

    def test_a_basis_that_is_no_algebra_is_a_numerical_error(self):
        # span{1, h}, h = diag(p, -q, q - p) of unit norm with pq = 1/3 - 0.01,
        # is not closed under products; Phi(E_12) = (1/3 - pq) E_12 = 0.01 E_12
        # lies inside the spectral gap
        c = 1.0 / 3.0 - 0.01
        plus, minus = np.sqrt(0.5 + 3.0 * c), np.sqrt(0.5 - c)
        p, q = (plus + minus) / 2.0, (plus - minus) / 2.0
        h = np.diag([p, -q, q - p])
        a = pu.StarAlgebra(3, [h], [np.eye(3) / np.sqrt(3.0), h])
        with pytest.raises(NumericalError, match="ambiguous: Phi has an eigenvalue 1.0e-02"):
            pu.commutant(a)

    def test_full_m16_is_fast_and_small(self):
        # basis of matrix units, so generate_algebra's closure is not timed
        n = 16
        units = [np.outer(e, f) for e in np.eye(n) for f in np.eye(n)]
        gen = rand_matrix(np.random.default_rng(16), n, n)
        a = pu.StarAlgebra(n, [gen], units)
        tracemalloc.start()
        try:
            # CPU time of this process, so a busy host does not count against it
            start = time.process_time()
            c = pu.commutant(a)
            elapsed = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.linear_dim == 1
        assert elapsed < 1.0
        assert peak < 200 * 2**20


class TestContains:
    def test_identity_in_scalars(self):
        assert contains(scalar_algebra(2), np.eye(2))

    def test_offdiagonal_not_in_diagonal(self):
        assert not contains(diag_algebra(2), NILPOTENT)

    def test_products_of_basis_elements_stay_inside(self):
        a = doubled_algebra(2, seed=9)
        for x in a.basis[:3]:
            for y in a.basis[:3]:
                assert contains(a, x @ y)


class TestMembership:
    def test_everything_invariant_under_full_algebra(self):
        a = full_algebra(2, seed=2)
        assert pu.is_member_XAprime(a, pu.orthonormal_basis(np.array([[1.0], [0.0]])))

    def test_line_not_member_for_scalars(self):
        a = scalar_algebra(2)
        assert not pu.is_member_XAprime(a, pu.orthonormal_basis(np.array([[1.0], [0.0]])))

    def test_diagonal_rejects_tilted_line(self):
        a = diag_algebra(2)
        s = pu.orthonormal_basis(np.array([[1.0], [1.0]]))
        # the projector onto span(e1+e2) has off-diagonal entries
        assert np.abs(s.projector()[0, 1]) > 0.4
        assert not pu.is_member_XAprime(a, s)

    def test_certify_rejects_non_member(self):
        with pytest.raises(InputError):
            pu.certify_member(diag_algebra(2), pu.orthonormal_basis(np.array([[1.0], [1.0]])))

    def test_stack_residual_is_the_worst_matrix(self):
        a = diag_algebra(2)
        tilted = pu.orthonormal_basis(np.array([[1.0], [1.0]])).projector()
        stack = np.stack([np.eye(2), np.diag([2.0, 3.0]), 3.0 * tilted])
        per_matrix = [a.membership_residual(m) for m in stack]
        assert max(per_matrix[:2]) < 1e-14 and per_matrix[2] > 0.1
        assert a.membership_residual(stack) == pytest.approx(per_matrix[2], rel=1e-14)
        assert a.membership_residual(stack[:0]) == 0.0
        with pytest.raises(InputError, match="dimension mismatch"):
            a.membership_residual(np.zeros((2, 3, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_criteria_agree_on_random_subspaces(self, seed):
        a = diag_algebra(3)
        s = random_subspace(3, seed, 21)
        pu.is_member_XAprime(a, s)  # must not raise the inconsistency error


def certify_outcome(a, subspaces):
    """The certified subspaces, the ``InputError`` index or the
    ``NumericalError`` message of one ``certify_members`` call."""
    try:
        members = pu.certify_members(a, subspaces)
    except InputError as exc:
        return "index", exc.index
    except NumericalError as exc:
        return "message", str(exc)
    assert all(m.algebra is a for m in members)
    return "certified", [id(m.subspace) for m in members]


class TestCertifyBlocks:
    """Blocks of any size certify as one stacked test of all the subspaces does."""

    @pytest.mark.parametrize("make", [lambda: doubled_algebra(2),
                                      lambda: block_algebra([2, 1, 1])],
                             ids=["doubled:2", "block:2+1+1"])
    def test_every_block_size_answers_as_the_default(self, monkeypatch, make):
        a = make()
        zero = pu.Subspace(np.zeros((a.dim, 0)))
        members = [pu.random_projection_in(a, seed).subspace for seed in range(40)]
        others = [random_subspace(a.dim, seed, 6) for seed in range(10)]
        nonzero = [m for m in members if m.dim]
        tilted = []  # members tilted by 1e-10..1e-6, on a few of which the criteria disagree
        for i, size in enumerate(np.logspace(-10, -6, 401)):
            m, rng = nonzero[i % len(nonzero)], np.random.default_rng([i, 5])
            noise = rng.standard_normal(m.frame.shape) + 1j * rng.standard_normal(m.frame.shape)
            tilted.append(pu.orthonormal_basis(m.frame + size * noise))
        # the subspaces by their outcome alone: member, non-member, disagreement
        by_outcome = {"certified": [], "index": [], "message": []}
        for sub in members + others + tilted:
            by_outcome[certify_outcome(a, [sub])[0]].append(sub)
        pools = [[zero], by_outcome["certified"], by_outcome["index"], by_outcome["message"]]
        rng = np.random.default_rng(7)
        lists = [[zero] * 5] + [
            [pools[k][rng.integers(len(pools[k]))]
             for k in rng.choice(4, size=rng.integers(1, 9), p=[0.2, 0.5, 0.15, 0.15])]
            for _ in range(80)
        ]
        default = [certify_outcome(a, subs) for subs in lists]
        assert {kind for kind, _ in default} == {"certified", "index", "message"}
        rows = []
        measure = star_algebra.StarAlgebra._membership_residuals
        monkeypatch.setattr(star_algebra.StarAlgebra, "_membership_residuals",
                            lambda alg, flat: rows.append(len(flat)) or measure(alg, flat))
        per_subspace = a.commutant.basis.size
        # a budget below one subspace's entries still takes one at a time
        for entries, block in [(1, 1), (per_subspace + 1, 1), (2 * per_subspace + 1, 2),
                               (3 * per_subspace + 1, 3)]:
            monkeypatch.setattr(star_algebra, "CERTIFY_BLOCK_ENTRIES", entries)
            for subs, want in zip(lists, default):
                rows.clear()
                assert certify_outcome(a, subs) == want
                if want[0] == "certified" and any(s.dim for s in subs):
                    assert rows == [len(subs[i:i + block]) for i in range(0, len(subs), block)]


class TestRandomProjection:
    def test_scalar_algebra_gives_trivial_members(self):
        a = scalar_algebra(3)
        dims = {pu.random_projection_in(a, seed).subspace.dim for seed in range(12)}
        assert dims <= {0, 3}
        assert dims == {0, 3}

    def test_diag_algebra_gives_coordinate_subspaces(self):
        a = diag_algebra(3)
        for seed in range(8):
            p = pu.random_projection_in(a, seed).subspace.projector()
            # eigenvectors of diagonal matrices are coordinate vectors
            off = p - np.diag(np.diag(p))
            assert np.abs(off).max() < 1e-9
            entries = np.diag(p).real
            assert np.all(np.minimum(np.abs(entries), np.abs(entries - 1)) < 1e-9)

    def test_deterministic_in_seed(self):
        a = full_algebra(3, seed=4)
        p1 = pu.random_projection_in(a, 123).subspace.projector()
        p2 = pu.random_projection_in(a, 123).subspace.projector()
        assert np.array_equal(p1, p2)

    def test_certified(self):
        a = doubled_algebra(2, seed=3)
        for seed in range(6):
            m = pu.random_projection_in(a, seed)
            assert pu.is_member_XAprime(a, m.subspace)


class TestAtoms:
    @pytest.mark.parametrize("kind", ["full:2", "doubled:2", "block:2+1"])
    def test_a_non_abelian_algebra_has_none(self, kind):
        a = {"full:2": lambda: full_algebra(2), "doubled:2": lambda: doubled_algebra(2),
             "block:2+1": lambda: block_algebra([2, 1])}[kind]()
        assert a.atoms is None

    @pytest.mark.parametrize("make, ranks", [
        (lambda: scalar_algebra(3), [3]),
        (lambda: diag_algebra(4), [1, 1, 1, 1]),
        (lambda: star_algebra.generate_algebra(5, [np.diag([1.0, 1.0, 2.0, 2.0, 2.0])]), [2, 3]),
    ])
    def test_an_abelian_algebra_has_certified_atoms(self, make, ranks):
        a = make()
        atoms = a.atoms
        assert sorted(atoms.ranks.tolist()) == sorted(ranks)
        assert a._commutant is None  # the commutant is not needed for them
        frame = np.concatenate(atoms.frames, axis=1)
        np.testing.assert_allclose(frame.conj().T @ frame, np.eye(a.dim), atol=1e-12)
        assert contains(a, atoms.projectors)
        np.testing.assert_allclose(atoms.projectors.sum(axis=0), np.eye(a.dim), atol=1e-12)
        # coordinates tr(E_i x) / m_i through the dual
        x = np.tensordot(np.arange(1.0, len(ranks) + 1.0), atoms.projectors, axes=1)
        np.testing.assert_allclose(x.reshape(-1) @ atoms.dual, np.arange(1.0, len(ranks) + 1.0))
        assert a.atoms is atoms
        for array in (atoms.projectors, atoms.ranks, atoms.dual, *atoms.frames):
            assert not array.flags.writeable

    def test_a_rotated_diagonal_algebra_has_its_atoms(self):
        u = np.linalg.qr(rand_matrix(np.random.default_rng(5), 3, 3))[0]
        a = star_algebra.generate_algebra(3, [u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T])
        projectors = [np.outer(u[:, i], u[:, i].conj()) for i in range(3)]
        for e in a.atoms.projectors:
            assert min(np.abs(e - p).max() for p in projectors) < 1e-12

    def test_a_sample_that_merges_atoms_gives_none(self, monkeypatch):
        # a gap threshold above every gap puts all eigenvalues in one cluster
        monkeypatch.setattr(star_algebra, "CLUSTER_GAP", 2.0)
        assert diag_algebra(3).atoms is None

    def test_a_non_abelian_algebra_is_told_without_a_sample(self, monkeypatch):
        # by its dimension alone (M_2), or by a commutator of its generators
        # (doubled M_2, as large as its space)
        full, doubled = full_algebra(2), doubled_algebra(2)

        def refused(*args):
            raise AssertionError("called")
        monkeypatch.setattr(star_algebra, "_eigen_clusters", refused)
        assert doubled.atoms is None
        monkeypatch.setattr(star_algebra, "_peak_scaled", refused)
        assert full.atoms is None

    def test_atoms_hold_no_negative_zero(self, monkeypatch):
        # an eigensolver may return -0.0 entries; atoms keep none of them
        eigh = np.linalg.eigh

        def signed_zeros(h):
            vals, vecs = eigh(h)
            return vals, -np.where(vecs == 0, 0.0, vecs)
        a = diag_algebra(3)
        monkeypatch.setattr(np.linalg, "eigh", signed_zeros)
        atoms = a.atoms
        for array in (*atoms.frames, atoms.projectors):
            parts = np.stack([array.real, array.imag])
            assert not np.any((parts == 0.0) & np.signbit(parts))

    def test_atoms_outside_the_basis_give_none(self):
        # a caller's pair whose basis is a rotated diagonal algebra: the
        # diagonal generator's coordinate projectors are not in that span
        u = np.linalg.qr(rand_matrix(np.random.default_rng(6), 3, 3))[0]
        rotated = star_algebra.generate_algebra(3, [u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T])
        lying = pu.StarAlgebra(3, [np.diag([1.0, 2.0, 3.0])], rotated.basis)
        assert lying.atoms is None


class TestOmlOps:
    def test_oplus_neutral_element(self):
        a = diag_algebra(3)
        m = pu.random_projection_in(a, 5)
        zero = pu.certify_member(a, pu.orthonormal_basis(np.zeros((3, 0))))
        out = pu.partial_oplus(m, zero)
        assert out is not None
        assert subspace_residual(out.subspace, m.subspace) < 1e-10

    def test_oplus_coordinate_lines(self):
        a = diag_algebra(2)
        e1 = pu.certify_member(a, pu.orthonormal_basis(np.array([[1.0], [0.0]])))
        e2 = pu.certify_member(a, pu.orthonormal_basis(np.array([[0.0], [1.0]])))
        out = pu.partial_oplus(e1, e2)
        assert out is not None and out.subspace.dim == 2

    def test_oplus_undefined_for_non_orthogonal(self):
        a = full_algebra(2, seed=6)
        e1 = pu.certify_member(a, pu.orthonormal_basis(np.array([[1.0], [0.0]])))
        tilted = pu.certify_member(a, pu.orthonormal_basis(np.array([[1.0], [1.0]])))
        # oracle: the inner product of the spanning vectors is nonzero
        assert abs(np.vdot(e1.subspace.frame[:, 0], tilted.subspace.frame[:, 0])) > 0.1
        assert pu.partial_oplus(e1, tilted) is None

    @pytest.mark.parametrize("kind", sorted(each_algebra_kind()))
    def test_is_perp_matches_containment_in_the_complement(self, kind):
        # oracle: N lies inside the orthocomplement of M
        a = each_algebra_kind()[kind]
        for seed in range(8):
            m = pu.random_projection_in(a, pu.derive_seed(seed, 0))
            n = pu.random_projection_in(a, pu.derive_seed(seed, 1))
            for other in (n, oml_meet(oml_complement(m), n)):
                want = contained_in(other.subspace, pu.ortho_complement(m.subspace))
                assert is_perp(m, other) == want

    def test_partial_commutativity_and_associativity(self):
        a = diag_algebra(4)
        for seed in range(10):
            x = pu.random_projection_in(a, pu.derive_seed(seed, 0))
            y = pu.random_projection_in(a, pu.derive_seed(seed, 1))
            z = pu.random_projection_in(a, pu.derive_seed(seed, 2))
            xy = pu.partial_oplus(x, y)
            if xy is not None:
                yx = pu.partial_oplus(y, x)
                assert yx is not None
                assert subspace_residual(xy.subspace, yx.subspace) < 1e-8
                both = pu.partial_oplus(xy, z)
                if both is not None:
                    yz = pu.partial_oplus(y, z)
                    assert yz is not None
                    other = pu.partial_oplus(x, yz)
                    assert other is not None
                    assert subspace_residual(both.subspace, other.subspace) < 1e-8

    def test_ops_recertify(self):
        a = doubled_algebra(2, seed=8)
        m = pu.random_projection_in(a, 1)
        n = pu.random_projection_in(a, 2)
        for out in (oml_meet(m, n), oml_join(m, n), oml_complement(m)):
            assert pu.is_member_XAprime(a, out.subspace)


class TestOrthomodularCheck:
    def test_full_m4_passes(self):
        report = pu.check_orthomodular(full_algebra(4, seed=11), 200, 0)
        assert report.passed and not report.inconclusive
        assert report.max_error <= 1e-8

    def test_equal_instance_is_exact(self):
        # m = n reduces the law to n v (n* ^ n) = n
        a = full_algebra(2, seed=12)
        n = pu.random_projection_in(a, 3)
        lhs = pu.join_subspace(
            n.subspace,
            pu.meet_subspace(pu.ortho_complement(n.subspace), n.subspace),
        )
        assert subspace_residual(lhs, n.subspace) < 1e-12

    def test_zero_instance_reduces_to_join(self):
        a = full_algebra(2, seed=13)
        n = pu.random_projection_in(a, 4)
        zero = pu.orthonormal_basis(np.zeros((2, 0)))
        lhs = pu.join_subspace(
            zero, pu.meet_subspace(pu.ortho_complement(zero), n.subspace)
        )
        assert subspace_residual(lhs, n.subspace) < 1e-12

    def test_small_sample_is_inconclusive(self):
        report = pu.check_orthomodular(diag_algebra(2), 5, 0)
        assert report.inconclusive

    def test_deterministic(self):
        a = diag_algebra(3)
        r1 = pu.check_orthomodular(a, 25, 9).to_json()
        r2 = pu.check_orthomodular(a, 25, 9).to_json()
        assert r1 == r2
