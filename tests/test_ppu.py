import functools
import time
import tracemalloc

import numpy as np
import pytest

import paraunitary as pu
from paraunitary import axioms, ppu
from paraunitary.laurent import LaurentOp
from paraunitary.numfield import (
    InputError,
    NumericalError,
    kernel,
    mat_residual,
    subspace_residual,
    tolerance_scope,
)

from conftest import (
    Window,
    contained_in,
    deg_det,
    diag_algebra,
    doubled_algebra,
    each_algebra_kind,
    full_algebra,
    kron_peel,
    kron_stability_residual,
    load_module,
    oracle_lattice_op,
    oracle_window,
    random_algebra,
    scalar_algebra,
    stepwise_factor_positive,
)

E1 = np.array([[1.0], [0.0]])


def member_of(algebra, cols):
    return pu.certify_member(algebra, pu.orthonormal_basis(np.asarray(cols, dtype=float)))


def zero_member(algebra):
    return pu.certify_member(algebra, pu.orthonormal_basis(np.zeros((algebra.dim, 0))))


def full_member(algebra):
    return pu.certify_member(algebra, pu.orthonormal_basis(np.eye(algebra.dim)))


class TestElementaryFactor:
    def test_zero_subspace_gives_identity(self):
        a = diag_algebra(2)
        assert pu.p_of(zero_member(a)).close_to(pu.ppu_t_power(a, 0))

    def test_full_space_gives_shift(self):
        a = diag_algebra(2)
        assert pu.p_of(full_member(a)).close_to(pu.ppu_t_power(a, 1))

    def test_coordinate_line(self):
        a = diag_algebra(2)
        el = pu.p_of(member_of(a, E1))
        assert mat_residual(el.op.coeff(1), np.diag([1.0, 0.0])) < 1e-12
        assert mat_residual(el.op.coeff(0), np.diag([0.0, 1.0])) < 1e-12


class TestGammaInverse:
    def test_identity_gives_zero_subspace(self):
        a = diag_algebra(2)
        assert pu.gamma_inverse(pu.ppu_t_power(a, 0)).subspace.dim == 0

    def test_shift_gives_everything(self):
        a = diag_algebra(2)
        assert pu.gamma_inverse(pu.ppu_t_power(a, 1)).subspace.dim == 2

    def test_coordinate_factor(self):
        # oracle: the kernel of diag(0,1) is the first coordinate line
        a = diag_algebra(2)
        el = pu.PpuElement(
            LaurentOp(2, {1: np.diag([1.0, 0.0]), 0: np.diag([0.0, 1.0])}), a
        )
        out = pu.gamma_inverse(el)
        assert subspace_residual(out.subspace, kernel(np.diag([0.0, 1.0]))) < 1e-12

    def test_roundtrip_on_random_members(self):
        a = full_algebra(3, seed=31)
        for seed in range(8):
            m = pu.random_projection_in(a, seed)
            back = pu.gamma_inverse(pu.p_of(m))
            assert subspace_residual(back.subspace, m.subspace) < 1e-10

    def test_rejects_elements_above_t(self):
        a = diag_algebra(2)
        with pytest.raises(InputError):
            pu.gamma_inverse(pu.ppu_t_power(a, 2))


class TestOrder:
    def test_one_below_shift(self):
        a = diag_algebra(2)
        assert pu.leq(pu.ppu_t_power(a, 0), pu.ppu_t_power(a, 1))

    def test_every_factor_divides_t(self):
        a = doubled_algebra(2, seed=32)
        t_el = pu.ppu_t_power(a, 1)
        for seed in range(6):
            assert pu.leq(pu.p_of(pu.random_projection_in(a, seed)), t_el)

    def test_factor_comparison_is_inclusion(self):
        # star(p_M) p_N has t^-1 coefficient pi_M pi_N-perp, zero iff M <= N
        a = full_algebra(2, seed=33)
        line = member_of(a, E1)
        plane = full_member(a)
        tilted = member_of(a, [[1.0], [1.0]])
        assert pu.leq(pu.p_of(line), pu.p_of(plane))
        assert not pu.leq(pu.p_of(line), pu.p_of(tilted))
        pm, pn = line.subspace.projector(), tilted.subspace.projector()
        low = pm @ (np.eye(2) - pn)
        assert np.linalg.norm(low) > 0.1  # oracle for the incomparability

    def test_right_multiples_lie_above(self):
        a = full_algebra(2, seed=34)
        g = pu.random_ppu(a, 2, 1, seed=3)
        assert pu.leq(g, g * pu.random_ppu(a, 1, 0, seed=5))

    def test_antisymmetry(self):
        a = full_algebra(2, seed=35)
        g = pu.random_ppu(a, 2, 0, seed=6)
        h = pu.random_ppu(a, 2, 0, seed=7)
        if pu.leq(g, h) and pu.leq(h, g):
            assert g.close_to(h)
        assert pu.leq(g, g)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t * 3,
        lambda t: t * t.op,
        lambda t: pu.leq(t, t.op),
        lambda t: pu.leq(t.op, t),
        lambda t: pu.meet(t, 5),
        lambda t: pu.meet(None, t),
        lambda t: pu.join(t, t.op),
        lambda t: pu.join(2.0, t),
        # one-operand operations: a LaurentOp passes the cone test
        lambda t: pu.factor_positive(t.op),
        lambda t: pu.gamma_inverse(t.op),
        lambda t: pu.complement_in_t(t.op),
        lambda t: t.close_to(t.op),
    ],
    ids=["mul-int", "mul-op", "leq-op", "leq-op-first", "meet-int", "meet-none-first",
         "join-op", "join-float-first", "factor-op", "gamma-inverse-op", "complement-op",
         "close-to-op"],
)
def test_a_non_element_operand_is_an_input_error(call):
    t = pu.ppu_t_power(diag_algebra(2), 1)
    with pytest.raises(InputError, match="expected a PpuElement operand"):
        call(t)


class TestOmegaWindow:
    def test_identity_window_is_empty(self):
        a = diag_algebra(2)
        w = oracle_window(pu.ppu_t_power(a, 0), 0, 1)
        assert w.space.dim == 0 and w.space.ambient_dim == 2

    def test_elementary_factor_window_holds_the_subspace(self):
        a = diag_algebra(2)
        m = member_of(a, E1)
        w = oracle_window(pu.p_of(m), 0, 1)
        assert subspace_residual(w.space, m.subspace) < 1e-12

    def test_shift_window_fills_slot_one_only(self):
        a = diag_algebra(2)
        w = oracle_window(pu.ppu_t_power(a, 1), 0, 2)
        assert w.space.dim == 2
        p = w.space.projector()
        assert mat_residual(p, np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12

    def test_window_too_small(self):
        a = diag_algebra(2)
        with pytest.raises(InputError):
            oracle_window(pu.ppu_t_power(a, 2), 0, 1)

    def test_monotone_both_ways(self):
        a = full_algebra(2, seed=36)
        for seed in range(6):
            g = pu.random_ppu(a, 2, 1, seed=pu.derive_seed(seed, 0))
            h = pu.random_ppu(a, 2, 1, seed=pu.derive_seed(seed, 1))
            lo, hi = min(g.lo, h.lo), max(g.hi, h.hi)
            wg = oracle_window(g, lo, hi)
            wh = oracle_window(h, lo, hi)
            assert pu.leq(g, h) == contained_in(wg.space, wh.space)
            assert pu.leq(h, g) == contained_in(wh.space, wg.space)

    def test_equal_windows_mean_equal_elements(self):
        a = full_algebra(2, seed=37)
        g = pu.random_ppu(a, 3, 1, seed=8)
        h = g * pu.ppu_t_power(a, 0)
        wg = oracle_window(g, g.lo, g.hi)
        wh = oracle_window(h, g.lo, g.hi)
        assert subspace_residual(wg.space, wh.space) < 1e-12
        assert g.close_to(h)


class TestPeelFormula:
    def test_kernel_formula_matches_window_fiber(self):
        # the closed form ker(phi_0^*) must agree with slot-1 membership
        # in the window picture on random positive elements
        for n, seed in [(2, 41), (3, 42), (4, 43)]:
            a = random_algebra(n, seed)
            for s in range(4):
                el = pu.random_ppu(a, 3, 0, seed=pu.derive_seed(seed, s))
                if el.hi == 0:
                    continue
                by_kernel = kernel(el.op.coeff(0).conj().T)
                w = oracle_window(el, 0, el.hi)
                embed = np.zeros((a.dim * w.width, a.dim), dtype=complex)
                embed[: a.dim] = np.eye(a.dim)
                frame = w.space.frame
                fiber = kernel(embed - frame @ (frame.conj().T @ embed))
                assert subspace_residual(by_kernel, fiber) < 1e-9

    def test_top_coefficient_range_lands_in_the_kernel(self):
        # paraunitarity gives phi_0^* phi_d = 0
        a = full_algebra(3, seed=44)
        el = pu.random_ppu(a, 4, 0, seed=9)
        prod = el.op.coeff(0).conj().T @ el.op.coeff(el.hi)
        assert np.linalg.norm(prod) < 1e-10


class TestFactorPositive:
    def test_identity_factors_empty(self):
        a = diag_algebra(2)
        assert pu.factor_positive(pu.ppu_t_power(a, 0)).factors == ()

    def test_single_factor_peels_once(self):
        a = diag_algebra(2)
        m = member_of(a, E1)
        fl = pu.factor_positive(pu.p_of(m))
        assert len(fl.factors) == 1
        assert subspace_residual(fl.factors[0].subspace, m.subspace) < 1e-10

    def test_diagonal_example(self):
        a = diag_algebra(2)
        el = pu.PpuElement(
            LaurentOp(2, {1: np.diag([1.0, 0.0]), 2: np.diag([0.0, 1.0])}), a
        )
        fl = pu.factor_positive(el)
        assert len(fl.factors) == 2
        assert fl.factors[0].subspace.dim == 2
        assert subspace_residual(
            fl.factors[1].subspace, pu.orthonormal_basis(np.array([[0.0], [1.0]]))
        ) < 1e-10
        # oracle: multiply the factors back together
        assert fl.assemble(a).close_to(el)

    def test_refuses_a_peel_bound_above_the_step_limit(self):
        # a bound of n * hi = 2 * (2^15 + 1) steps, just above the limit;
        # over the diagonal algebra factor would list as many factors, while
        # meet and join are exact there and take no peel
        k = ppu.MAX_PEEL_STEPS // 2 + 1
        coeffs = {k: np.diag([1.0, 0.0]), 0: np.diag([0.0, 1.0])}
        diagonal = pu.PpuElement(LaurentOp(2, coeffs), diag_algebra(2))
        full = pu.PpuElement(LaurentOp(2, coeffs), full_algebra(2))
        for run, el in ((pu.factor_positive, diagonal), (pu.factor_positive, full),
                        (lambda x: pu.meet(x, x), full), (lambda x: pu.join(x, x), full)):
            with pytest.raises(InputError, match="greedy peel"):
                run(el)
        for answer in (pu.meet(diagonal, diagonal), pu.join(diagonal, diagonal)):
            assert answer.op.exponents == diagonal.op.exponents
            assert np.array_equal(answer.op.stack, diagonal.op.stack)

    def test_huge_exponents_meet_and_join_over_the_diagonal_algebra(self):
        # the peel bound n * min(hi) = 3 * 10^30 refused these
        a, n = diag_algebra(3), 10**30
        x, y = (axioms.exponent_vector_element(a, v) for v in ([n, 1, 0], [1, n, 0]))
        for got, want in ((pu.meet(x, y), [1, 1, 0]), (pu.join(x, y), [n, n, 0])):
            want = axioms.exponent_vector_element(a, want)
            assert got.op.exponents == want.op.exponents
            assert np.array_equal(got.op.stack, want.op.stack)
        assert pu.leq(pu.meet(x, y), x) and not pu.leq(x, y)

    def test_an_element_off_the_exponent_vectors_is_a_numerical_error(self):
        # certified under a loose eq, diag(t (1 - d) + d, 1) is 1e-6 from
        # every exponent vector; read under the default eq it must raise,
        # never be taken for diag(t, 1) or diag(1, 1)
        a, d = diag_algebra(2), 1e-6
        with tolerance_scope(eq=1e-4):
            x = pu.PpuElement(LaurentOp(2, {1: np.diag([1 - d, 0.0]), 0: np.diag([d, 1.0])}), a)
        y = pu.ppu_t_power(a, 0)
        for run in (pu.meet, pu.join, pu.leq):
            with pytest.raises(NumericalError, match="not an exponent vector"):
                run(x, y)

    @pytest.mark.parametrize("make", [diag_algebra, full_algebra], ids=["diagonal", "full"])
    def test_peel_without_a_step_answers_at_any_degree(self, make):
        # t^N P + (1 - P) and t^N (1 - P) + P share no head and no tail,
        # so meet and join take no step (over M_2, a peel; over the
        # diagonal algebra, exponent vectors): the pointwise min and max
        a = make(2)
        p, q, n = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 10**30
        x = pu.PpuElement(LaurentOp(2, {n: p, 0: q}), a)
        y = pu.PpuElement(LaurentOp(2, {n: q, 0: p}), a)
        assert pu.meet(x, y).close_to(pu.ppu_t_power(a, 0))
        assert pu.join(x, y).close_to(pu.ppu_t_power(a, n))

    def test_factor_count_equals_degree(self):
        for n, seed in [(2, 51), (3, 52)]:
            a = random_algebra(n, seed)
            for s in range(5):
                el = pu.random_ppu(a, 4, 0, seed=pu.derive_seed(seed, s))
                fl = pu.factor_positive(el)
                assert len(fl.factors) == el.hi
                assert fl.assemble(a).close_to(el)
                for m in fl.factors:
                    assert pu.is_member_XAprime(a, m.subspace)

    def test_rejects_cone_outsiders(self):
        a = diag_algebra(2)
        with pytest.raises(InputError):
            pu.factor_positive(pu.ppu_t_power(a, -1))

    def test_split_head_is_caught_by_the_factor_count(self, monkeypatch):
        # the head of t is C^2; handing out one coordinate line first splits
        # it over two steps, whose two factors still multiply back to t
        a = full_algebra(2)
        heads = iter([pu.orthonormal_basis(E1)])
        monkeypatch.setattr(ppu, "kernel", lambda m: next(heads, None) or kernel(m))
        with pytest.raises(NumericalError, match="2 factors for top exponent 1"):
            pu.factor_positive(pu.ppu_t_power(a, 1))

    @pytest.mark.parametrize("make", [diag_algebra, full_algebra], ids=["diagonal", "full"])
    def test_reassembly_catches_a_factor_other_than_the_divisor(self, monkeypatch, make):
        # the peel (over M_2) or the exponent vector (over the diagonal
        # algebra) finds p_M but records p_{M^perp}: the count is right,
        # only the product differs; both certify their divisors in one call
        a = make(2)
        monkeypatch.setattr(
            ppu, "certify_members",
            lambda alg, subs: pu.certify_members(alg, [pu.ortho_complement(s) for s in subs]),
        )
        with pytest.raises(NumericalError, match="reassembled"):
            pu.factor_positive(pu.p_of(member_of(a, E1)))


def injected_kernel(monkeypatch, steps):
    """``ppu.kernel`` that answers ``steps[j]`` at the step j it names (from
    1), or raises it if it is an exception."""
    calls = []

    def injected(m):
        calls.append(m)
        step = steps.get(len(calls))
        if isinstance(step, Exception):
            raise step
        return step or kernel(m)

    monkeypatch.setattr(ppu, "kernel", injected)
    return calls


def certify_calls(monkeypatch):
    """The sizes of the peel's ``certify_members`` calls, in order."""
    sizes = []
    members = pu.certify_members
    monkeypatch.setattr(ppu, "certify_members",
                        lambda alg, subs: sizes.append(len(subs)) or members(alg, subs))
    return sizes


class TestChunkedCertification:
    """The peel certifies its divisors in one call, and reports a divisor
    outside X(A') ahead of any later error."""

    def test_a_non_member_is_reported_ahead_of_a_later_error(self, monkeypatch):
        # t^2 peels its head C^4; then a coordinate line, which the
        # commutant moves into the other copy of C^2, and C^4 again leave a
        # negative exponent after divisor 3
        a = doubled_algebra(2)
        line = pu.orthonormal_basis(np.array([[1.0], [0.0], [0.0], [0.0]]))
        assert not pu.is_member_XAprime(a, line)
        steps = {2: line, 3: pu.orthonormal_basis(np.eye(4))}
        for run in (pu.factor_positive, stepwise_factor_positive):
            injected_kernel(monkeypatch, steps)
            with pytest.raises(NumericalError, match="^divisor 2 failed certification$"):
                run(pu.ppu_t_power(a, 2))

    @pytest.mark.parametrize("where", ["kernel", "division"])
    def test_a_non_member_is_reported_ahead_of_an_unexpected_exception(self, monkeypatch, where):
        # step 2 takes a non-member line; then the kernel of step 3, or the
        # division of step 2 itself, raises what no peel expects
        a = doubled_algebra(2)
        line = pu.orthonormal_basis(np.array([[1.0], [0.0], [0.0], [0.0]]))
        divide = LaurentOp.times_elementary
        for run in (pu.factor_positive, stepwise_factor_positive):
            if where == "kernel":
                injected_kernel(monkeypatch, {2: line, 3: ZeroDivisionError("step 3")})
            else:
                injected_kernel(monkeypatch, {2: line})
                divisions = []

                def division_2_raises(op, *args, **kwargs):
                    divisions.append(op)
                    if len(divisions) == 2:
                        raise ZeroDivisionError("division 2")
                    return divide(op, *args, **kwargs)

                monkeypatch.setattr(LaurentOp, "times_elementary", division_2_raises)
            with pytest.raises(NumericalError, match="^divisor 2 failed certification$"):
                run(pu.ppu_t_power(a, 3))

    def test_a_peel_past_one_chunk(self, monkeypatch):
        # a 70-step peel certifies all its divisors in one call
        a = doubled_algebra(2)
        el = pu.ppu_t_power(a, 70)
        certified = certify_calls(monkeypatch)
        fl = pu.factor_positive(el)
        assert certified == [70]
        assert len(fl.factors) == 70 and all(m.subspace.dim == 4 for m in fl.factors)
        assert fl.assembled.op.exponents == el.op.exponents
        assert np.array_equal(fl.assembled.op.stack, el.op.stack)
        line = pu.orthonormal_basis(np.array([[0.0], [1.0], [0.0], [0.0]]))
        for run in (pu.factor_positive, stepwise_factor_positive):
            injected_kernel(monkeypatch, {66: line})
            with pytest.raises(NumericalError, match="^divisor 66 failed certification$"):
                run(el)

    def test_a_long_peel_over_a_large_commutant_stays_small(self):
        # M_2 (x) 1_8 has a 64-dimensional commutant on C^16: one stacked
        # invariance test of 64 divisors would hold 64 * 64 * 16^2 entries
        x = np.random.default_rng(11).standard_normal((2, 2))
        a = pu.generate_algebra(16, [np.kron(x, np.eye(8))])
        assert a.commutant.linear_dim == 64
        el = pu.ppu_t_power(a, 64)
        members, _ = stepwise_factor_positive(el)
        tracemalloc.start()
        try:
            # CPU time of this process, so a busy host does not count against it
            start = time.process_time()
            fl = pu.factor_positive(el)
            elapsed = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [m.subspace.frame.tobytes() for m in fl.factors] == [
            m.subspace.frame.tobytes() for m in members]
        assert peak < 16 * 2**20
        assert elapsed < 1.0

    def test_a_disagreement_names_its_divisor(self):
        # a line tilted by e = 9.77e-9 lies in the band (eq / sqrt 2, eq] where
        # the projector residual (sqrt 2 e) fails and the invariance residual
        # (e) passes: the peel names divisor 2, as it does a non-member
        a = pu.generate_algebra(3, [np.diag([1.0, 2.0, 3.0])])
        tilted = pu.orthonormal_basis(np.array([[1.0], [9.77e-9], [0.0]]))
        divisors = [pu.orthonormal_basis(np.zeros((3, 0))), tilted]
        with pytest.raises(NumericalError, match="membership criteria disagree") as caught:
            pu.certify_members(a, divisors)
        assert caught.value.index == 1
        with pytest.raises(NumericalError, match=(
                r"^divisor 2: membership criteria disagree: projector residual 1\.382e-08, "
                r"invariance residual 9\.77\de-09$")):
            ppu._certify(a, divisors)
        # a caller's pair whose commutant fails its own check: that error
        # names no divisor and passes unchanged
        u = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))[0]
        rotated = pu.generate_algebra(3, [u @ np.diag([1.0, 2.0, 3.0]) @ u.T])
        lying = pu.StarAlgebra(3, [np.diag([1.0, 2.0, 3.0])], rotated.basis)
        with pytest.raises(NumericalError, match="^commutant does not commute"):
            ppu._certify(lying, divisors)

    @pytest.mark.parametrize("kind, factors", [("t-power", 1), ("t-power", 3), ("t-power", 64),
                                                ("t-power", 65), ("random", 4), ("random", 16)])
    def test_work_per_factorization(self, monkeypatch, kind, factors):
        # degree k takes k kernels, one certification of its k divisors,
        # and 2k - 1 elementary products: k divisions and k - 1
        # to reassemble (a random product of k factors may have lower degree)
        a = full_algebra(3, seed=7)
        el = (pu.ppu_t_power(a, factors) if kind == "t-power"
              else pu.random_ppu(a, factors, 0, seed=3))
        k = el.hi
        assert k > 0
        kernels = injected_kernel(monkeypatch, {})
        certified = certify_calls(monkeypatch)
        products = []
        times = LaurentOp.times_elementary
        monkeypatch.setattr(LaurentOp, "times_elementary",
                            lambda op, *args, **kw: products.append(op) or times(op, *args, **kw))
        assert len(pu.factor_positive(el).factors) == k
        assert len(kernels) == k
        assert certified == [k]
        assert len(products) == 2 * k - 1


class TestReconstruct:
    def test_empty_window_gives_identity(self):
        a = diag_algebra(2)
        w = Window(a, 0, 1, pu.orthonormal_basis(np.zeros((2, 0))))
        assert kron_peel(w).close_to(pu.ppu_t_power(a, 0).op)

    def test_slot_one_window_gives_elementary_factor(self):
        a = diag_algebra(2)
        m = member_of(a, E1)
        w = Window(a, 0, 1, m.subspace)
        assert kron_peel(w).close_to(pu.p_of(m).op)

    def test_roundtrip_on_random_elements(self):
        for n, seed in [(2, 61), (3, 62), (4, 63)]:
            a = random_algebra(n, seed)
            for s in range(4):
                el = pu.random_ppu(a, 3, 1, seed=pu.derive_seed(seed, s))
                w = oracle_window(el, el.lo, el.hi)
                assert kron_stability_residual(w) < 1e-9
                assert kron_peel(w).distance(el.op) < 1e-9

    def test_rejects_unstable_window(self):
        # a window space violating downshift stability is no element's window
        a = diag_algebra(2)
        bad = pu.orthonormal_basis(np.array([[0.0], [0.0], [1.0], [0.0]]))
        assert kron_stability_residual(Window(a, 0, 2, bad)) > 0.5


class TestMeetJoin:
    def test_idempotent(self):
        a = full_algebra(2, seed=71)
        g = pu.random_ppu(a, 3, 1, seed=14)
        assert pu.meet(g, g).close_to(g)
        assert pu.join(g, g).close_to(g)

    def test_on_elementary_factors_matches_the_lattice(self):
        a = full_algebra(2, seed=72)
        for seed in range(5):
            m = pu.random_projection_in(a, pu.derive_seed(seed, 0))
            n = pu.random_projection_in(a, pu.derive_seed(seed, 1))
            inter = pu.certify_member(a, pu.meet_subspace(m.subspace, n.subspace))
            union = pu.certify_member(a, pu.join_subspace(m.subspace, n.subspace))
            assert pu.meet(pu.p_of(m), pu.p_of(n)).close_to(pu.p_of(inter))
            assert pu.join(pu.p_of(m), pu.p_of(n)).close_to(pu.p_of(union))

    def test_commutative_model_min_max(self):
        a = diag_algebra(2)
        g = pu.PpuElement(
            LaurentOp(2, {1: np.diag([1.0, 0.0]), 2: np.diag([0.0, 1.0])}), a
        )
        h = pu.PpuElement(
            LaurentOp(2, {2: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}), a
        )
        assert pu.meet(g, h).close_to(pu.ppu_t_power(a, 1))
        assert pu.join(g, h).close_to(pu.ppu_t_power(a, 2))

    def test_bounds(self):
        a = doubled_algebra(2, seed=73)
        g = pu.random_ppu(a, 2, 1, seed=15)
        h = pu.random_ppu(a, 3, 0, seed=16)
        mt, jn = pu.meet(g, h), pu.join(g, h)
        assert pu.leq(mt, g) and pu.leq(mt, h)
        assert pu.leq(g, jn) and pu.leq(h, jn)

    def test_universality_against_sampled_bounds(self):
        a = full_algebra(2, seed=74)
        g = pu.random_ppu(a, 2, 0, seed=17)
        h = pu.random_ppu(a, 2, 0, seed=18)
        mt, jn = pu.meet(g, h), pu.join(g, h)
        for s in range(6):
            other = pu.random_ppu(a, 2, 1, seed=pu.derive_seed(74, s))
            if pu.leq(other, g) and pu.leq(other, h):
                assert pu.leq(other, mt)
            if pu.leq(g, other) and pu.leq(h, other):
                assert pu.leq(jn, other)

    def test_left_translation_compatibility(self):
        a = full_algebra(2, seed=75)
        g = pu.random_ppu(a, 2, 0, seed=19)
        h = pu.random_ppu(a, 2, 1, seed=20)
        chi = pu.random_ppu(a, 2, 1, seed=21)
        assert pu.meet(chi * g, chi * h).close_to(chi * pu.meet(g, h))
        assert pu.join(chi * g, chi * h).close_to(chi * pu.join(g, h))

    def test_lattice_laws_on_triples(self):
        a = doubled_algebra(2, seed=76)
        g, h, k = (pu.random_ppu(a, 2, 1, seed=pu.derive_seed(76, s)) for s in range(3))
        assert pu.meet(g, h).close_to(pu.meet(h, g))
        assert pu.join(g, h).close_to(pu.join(h, g))
        assert pu.meet(pu.meet(g, h), k).close_to(pu.meet(g, pu.meet(h, k)))
        assert pu.join(pu.join(g, h), k).close_to(pu.join(g, pu.join(h, k)))
        assert pu.join(g, pu.meet(g, h)).close_to(g)
        assert pu.meet(g, pu.join(g, h)).close_to(g)


# structurally different algebras on C^2..C^5 from the conftest family
ALGEBRA_FAMILY = {
    "scalar": lambda: scalar_algebra(2),
    "diagonal": lambda: diag_algebra(3),
    "doubled": lambda: doubled_algebra(2, seed=101),
    "full": lambda: full_algebra(2, seed=102),
    **{f"random{n}": (lambda n=n: random_algebra(n, 1000 + n)) for n in (3, 4, 5)},
}


def _sampled_pair(a, seed, max_k):
    rng = np.random.default_rng(seed)
    x, y = (
        pu.random_ppu(a, int(rng.integers(0, max_k + 1)), int(rng.integers(0, 3)),
                      seed=int(rng.integers(2**63)))
        for _ in range(2)
    )
    return x, y


@pytest.mark.parametrize("kind", sorted(ALGEBRA_FAMILY))
def test_greedy_meet_join_match_the_window_oracle(kind):
    a = ALGEBRA_FAMILY[kind]()
    for s in range(6):
        x, y = _sampled_pair(a, [105, s], max_k=4)
        assert pu.meet(x, y).op.distance(oracle_lattice_op(x, y, pu.meet_subspace)) <= 1e-8
        assert pu.join(x, y).op.distance(oracle_lattice_op(x, y, pu.join_subspace)) <= 1e-8


@pytest.mark.parametrize("kind", sorted(ALGEBRA_FAMILY))
def test_meet_is_greatest_and_join_least(kind):
    # x = c p_M u and y = c p_M v share the left divisors c and c p_M; the
    # duals x = d p_M^-1 u^-1 and y = d p_M^-1 v^-1 lie below d p_M^-1 and d
    a = ALGEBRA_FAMILY[kind]()
    for s in range(4):
        seed = pu.derive_seed(106, s)
        c = pu.random_ppu(a, 1 + s, s % 3, seed=pu.derive_seed(seed, 0))
        pm = pu.p_of(pu.random_projection_in(a, pu.derive_seed(seed, 1)))
        u = pu.random_ppu(a, 2 + s, 0, seed=pu.derive_seed(seed, 2))
        v = pu.random_ppu(a, 3, 0, seed=pu.derive_seed(seed, 3))
        x, y = c * pm * u, c * pm * v
        mt = pu.meet(x, y)
        assert pu.leq(mt, x) and pu.leq(mt, y)
        assert pu.leq(c, mt) and pu.leq(c * pm, mt)
        above = c * pm.inverse()
        x, y = above * u.inverse(), above * v.inverse()
        jn = pu.join(x, y)
        assert pu.leq(x, jn) and pu.leq(y, jn)
        assert pu.leq(jn, above) and pu.leq(jn, c)


@pytest.fixture(scope="module")
def high_degree_pairs():
    """``pairs(spec, k)``: six seeded pairs (x, y, x ^ y, x v y), built once."""
    build_algebra = load_module("bench/inputs.py").build_algebra

    @functools.cache
    def pairs(spec, k):
        a = build_algebra(spec, 1)
        out = []
        for s in range(6):
            x = pu.random_ppu(a, k, s % 3, 100 + s)
            y = pu.random_ppu(a, k, 0, 200 + s)
            out.append((x, y, pu.meet(x, y), pu.join(x, y)))
        return out

    return pairs


@pytest.mark.parametrize(
    "spec, k",
    [("full:2", 16), ("full:2", 32), ("full:3", 32), ("full:4", 16),
     ("block:2+2+3", 16), ("full:7", 8)],
)
def test_meet_and_join_bound_their_operands_at_high_degree(high_degree_pairs, spec, k):
    for x, y, mt, jn in high_degree_pairs(spec, k):
        assert pu.leq(mt, x) and pu.leq(mt, y)
        assert pu.leq(x, jn) and pu.leq(y, jn)


# full:3/32 and full:4/32 break the law today and are left out
@pytest.mark.parametrize(
    "spec, k",
    [("full:2", 16), ("full:2", 32), ("full:4", 16), ("block:2+2+3", 16), ("full:7", 8)],
)
def test_meet_and_join_keep_the_degree_law_at_high_degree(high_degree_pairs, spec, k):
    for x, y, mt, jn in high_degree_pairs(spec, k):
        degs = [deg_det(el) for el in (x, y, mt, jn)]
        assert all(abs(d - round(d)) <= 1e-6 for d in degs)
        dx, dy, dm, dj = (round(d) for d in degs)
        assert dm + dj == dx + dy
        try:
            factors = pu.factor_positive(y).factors
        except NumericalError:
            continue
        assert sum(m.subspace.dim for m in factors) == dy


def test_the_degree_three_block_sample_fails_loudly_or_answers_right():
    # a normality sample whose uncertified peel ends early: its meet and
    # join may raise, but must never return a bound on the wrong side
    a = load_module("bench/inputs.py").build_algebra("block:2+3", 809)
    seed = 4059951897222041571
    try:
        report = axioms.check_normality(a, 1, seed)
    except NumericalError:
        pass
    else:
        assert report.passed
    g, h = (axioms._random_element(a, seed, 0, j) for j in (0, 1))
    for op, below in ((pu.meet, True), (pu.join, False)):
        try:
            z = op(g, h)
        except NumericalError:
            continue
        assert all(pu.leq(z, x) if below else pu.leq(x, z) for x in (g, h))


class TestComplement:
    def test_ends_of_the_interval(self):
        a = diag_algebra(2)
        one, t_el = pu.ppu_t_power(a, 0), pu.ppu_t_power(a, 1)
        assert pu.complement_in_t(one).close_to(t_el)
        assert pu.complement_in_t(t_el).close_to(one)

    def test_coordinate_factor(self):
        a = diag_algebra(2)
        e1 = member_of(a, E1)
        e2 = member_of(a, [[0.0], [1.0]])
        assert pu.complement_in_t(pu.p_of(e1)).close_to(pu.p_of(e2))

    def test_matches_subspace_complement(self):
        a = full_algebra(3, seed=81)
        for seed in range(5):
            m = pu.random_projection_in(a, seed)
            comp = pu.certify_member(a, pu.ortho_complement(m.subspace))
            assert pu.complement_in_t(pu.p_of(m)).close_to(pu.p_of(comp))

    def test_involution_and_de_morgan_inside_the_interval(self):
        a = full_algebra(2, seed=82)
        m = pu.random_projection_in(a, 1)
        n = pu.random_projection_in(a, 2)
        x, y = pu.p_of(m), pu.p_of(n)
        assert pu.complement_in_t(pu.complement_in_t(x)).close_to(x)
        lhs = pu.complement_in_t(pu.meet(x, y))
        rhs = pu.join(pu.complement_in_t(x), pu.complement_in_t(y))
        assert lhs.close_to(rhs)

    def test_rejects_outside_interval(self):
        a = diag_algebra(2)
        with pytest.raises(InputError):
            pu.complement_in_t(pu.ppu_t_power(a, 2))

    @pytest.mark.parametrize("kind", sorted(each_algebra_kind()))
    def test_equals_the_product_form(self, kind):
        a = each_algebra_kind()[kind]
        t_el = pu.ppu_t_power(a, 1)
        for seed in range(4):
            el = pu.p_of(pu.random_projection_in(a, seed))
            got, want = pu.complement_in_t(el).op, el.op.star() * t_el.op
            assert got.exponents == want.exponents
            # equal values; a zero may differ in sign, since the product adds +0
            assert np.array_equal(got.stack, want.stack)
            # the shift keeps el's norms, the product sums the same squares in
            # another order
            np.testing.assert_array_max_ulp(got.norms, want.norms, maxulp=1)

    def test_uncertified_complement_is_a_numerical_error(self):
        # an eq that el's cone residuals meet and its complement's certificate
        # does not: the complement fails to certify, where the product form
        # reported the element outside the interval
        a = full_algebra(3, seed=83)
        for seed in range(20):
            el = pu.p_of(pu.random_projection_in(a, seed))
            complement = pu.complement_in_t(el)
            eq = max(el.residuals["paraunitarity"], el.residuals["purity"])
            if 0.0 < eq < max(complement.residuals.values()):
                break
        else:
            pytest.fail("no sample straddles eq")
        with tolerance_scope(eq=eq):
            with pytest.raises(NumericalError):
                pu.complement_in_t(el)


@pytest.mark.parametrize("kind", sorted(each_algebra_kind()))
def test_interval_maps_reject_a_degree_two_element(kind):
    a = each_algebra_kind()[kind]
    m = next(m for seed in range(16)
             if (m := pu.random_projection_in(a, seed)).subspace.dim > 0)
    el = pu.ppu_t_power(a, 1) * pu.p_of(m)
    assert pu.in_positive_cone(el) and el.hi == 2
    with pytest.raises(InputError, match=r"^element is not between the identity and t$"):
        pu.gamma_inverse(el)
    with pytest.raises(InputError, match=r"^element is outside the interval \[1, t\]$"):
        pu.complement_in_t(el)


class TestCertifiedOnce:
    """Exact certification counts: an element already certified is not again."""

    @pytest.fixture
    def pm(self):
        """p_M for 0 < M < C^3 in M_3, with the identity already certified."""
        a = full_algebra(3, seed=84)
        pu.ppu_t_power(a, 0)
        m = member_of(a, [[1.0], [0.0], [0.0]])
        return pu.p_of(m), pu.p_of(pu.certify_member(a, pu.ortho_complement(m.subspace)))

    def test_identity_once_per_algebra(self, certifications):
        a = full_algebra(2, seed=85)
        for k in (0, 1, -2, 10**30):
            pu.ppu_t_power(a, k)
        pu.ppu_t_power(a, 0)
        assert len(certifications) == 1

    def test_complement_certifies_only_its_answer(self, pm, certifications):
        el, _ = pm
        pu.complement_in_t(el)
        assert len(certifications) == 1

    def test_gamma_inverse(self, pm, certifications):
        # the peel's remainder and the reassembled factor
        el, _ = pm
        pu.gamma_inverse(el)
        assert len(certifications) == 2

    def test_meet_without_a_common_head(self, pm, certifications):
        # no step divides the operands, so the answer is the algebra's
        # identity, certified before, shifted: nothing is certified
        el, complement = pm
        assert pu.meet(el.shifted(-2), complement.shifted(-2)).close_to(
            pu.ppu_t_power(el.algebra, -2))
        assert len(certifications) == 0


class TestOrderUnitExponent:
    def test_identity(self):
        a = diag_algebra(2)
        assert pu.ppu_t_power(a, 0).hi == 0

    def test_negative_shift(self):
        a = diag_algebra(2)
        el = pu.ppu_t_power(a, -1)
        assert el.hi == -1
        assert pu.leq(el, pu.ppu_t_power(a, -1))
        assert not pu.leq(el, pu.ppu_t_power(a, -2))

    def test_products_bounded_by_their_degree(self):
        a = full_algebra(2, seed=91)
        g = pu.random_ppu(a, 2, 0, seed=22)
        k = g.hi
        assert k == g.hi
        assert pu.leq(g, pu.ppu_t_power(a, k))
        assert not pu.leq(g, pu.ppu_t_power(a, k - 1))


class TestRandomPpu:
    def test_zero_factors_is_identity(self):
        a = diag_algebra(2)
        assert pu.random_ppu(a, 0, 0, seed=0).close_to(pu.ppu_t_power(a, 0))

    def test_single_factor_divides_t(self):
        a = full_algebra(2, seed=92)
        el = pu.random_ppu(a, 1, 0, seed=1)
        assert pu.leq(el, pu.ppu_t_power(a, 1))

    def test_deterministic(self):
        a = full_algebra(3, seed=93)
        x = pu.random_ppu(a, 4, 2, seed=99)
        y = pu.random_ppu(a, 4, 2, seed=99)
        assert x.op.exponents == y.op.exponents
        for e in x.op.exponents:
            assert np.array_equal(x.op.coeff(e), y.op.coeff(e))

    def test_rejects_negative_count(self):
        with pytest.raises(InputError):
            pu.random_ppu(diag_algebra(2), -1, 0, seed=0)
