import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paraunitary as pu
from paraunitary import laurent
from paraunitary.laurent import LaurentOp, paraunitarity_residual
from paraunitary.numfield import InputError, NumericalError, mat_residual, tolerance_scope

from conftest import (
    certified_samples,
    diag_algebra,
    each_algebra_kind,
    full_algebra,
    rand_matrix,
)

P1 = np.diag([1.0, 0.0])
P2 = np.diag([0.0, 1.0])


def p_m_op(pi):
    """t pi + (1 - pi), the elementary degree-one operator."""
    n = pi.shape[0]
    return LaurentOp(n, {1: pi, 0: np.eye(n) - pi})


def random_op(seed, dim=2, span=2):
    rng = np.random.default_rng([seed, 31])
    return LaurentOp(
        dim, {e: rand_matrix(rng, dim, dim) for e in range(-span, span + 1)}
    )


class TestArithmetic:
    def test_add_zero(self):
        op = random_op(1)
        assert (op + LaurentOp(2, {})).close_to(op)

    def test_add_cancels(self):
        t_id = LaurentOp.t_power(2, 1)
        assert not (t_id + (-t_id)).exponents

    def test_add_disjoint_supports(self):
        out = LaurentOp(2, {1: P1}) + LaurentOp(2, {-1: P2})
        assert out.lo == -1 and out.hi == 1

    def test_mul_identity(self):
        op = random_op(2)
        assert (op * LaurentOp.t_power(2, 0)).close_to(op)

    def test_mul_projection_square(self):
        tp = LaurentOp(2, {1: P1})
        out = tp * tp
        assert out.exponents == (2,)
        assert mat_residual(out.coeff(2), P1) < 1e-14

    def test_pm_times_its_star_is_one(self):
        p = p_m_op(P1)
        assert (p * p.star()).close_to(LaurentOp.t_power(2, 0))
        assert (p.star() * p).close_to(LaurentOp.t_power(2, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            LaurentOp.t_power(2, 0) * LaurentOp.t_power(3, 0)


class TestStar:
    def test_star_of_shift(self):
        assert LaurentOp.t_power(2, 1).star().close_to(LaurentOp.t_power(2, -1))

    def test_star_of_constant(self):
        rng = np.random.default_rng(7)
        h = rand_matrix(rng, 2, 2)
        out = LaurentOp(2, {0: h}).star()
        assert out.exponents == (0,)
        assert mat_residual(out.coeff(0), h.conj().T) < 1e-14

    def test_star_of_elementary_factor(self):
        out = p_m_op(P1).star()
        assert mat_residual(out.coeff(-1), P1) < 1e-14
        assert mat_residual(out.coeff(0), P2) < 1e-14

    def test_involution(self):
        op = random_op(3)
        assert op.star().star().close_to(op)

    def test_antihomomorphism(self):
        a, b = random_op(4), random_op(5)
        assert (a * b).star().close_to(b.star() * a.star())


class TestEval:
    def test_at_one_elementary_factor_is_identity(self):
        assert mat_residual(p_m_op(P1).eval_at(1), np.eye(2)) < 1e-14

    def test_at_minus_one(self):
        # direct substitution: -pi + (1 - pi) = 1 - 2 pi
        out = p_m_op(P1).eval_at(-1)
        assert mat_residual(out, np.eye(2) - 2 * P1) < 1e-14

    def test_shift_scales(self):
        z = np.exp(0.7j)
        assert mat_residual(LaurentOp.t_power(2, 1).eval_at(z), z * np.eye(2)) < 1e-14

    def test_rejects_off_circle(self):
        for z in (0.5, complex("nan"), complex("inf")):
            with pytest.raises(InputError):
                LaurentOp.t_power(2, 0).eval_at(z)

    def test_multiplicative_and_star_respecting(self):
        a, b = random_op(6), random_op(7)
        z = np.exp(1.3j)
        assert mat_residual((a * b).eval_at(z), a.eval_at(z) @ b.eval_at(z)) < 1e-12
        assert mat_residual(a.star().eval_at(z), a.eval_at(z).conj().T) < 1e-12

    def test_one_is_exact_at_any_exponent(self):
        for e in (10**6, -10**30, 10**400):
            assert LaurentOp(1, {e: np.eye(1)}).eval_at(1)[0, 0] == 1.0

    def test_value_within_the_horizon_is_the_power(self):
        for z in (1j, -1 + 0j, 0.6 + 0.8j):
            for e in (-10**6, 10**6):
                assert LaurentOp(1, {e: np.eye(1)}).eval_at(z)[0, 0] == z**e
        # |log |z|| bounds |e| off the circle: the double nearest 1.000000001
        # is 1 + 1.00000008e-9, so the horizon is eq / 1.00000008e-9 = 9.9999992
        z = 1.000000001 + 0j
        for e in (-9, 9):
            assert LaurentOp(1, {e: np.eye(1)}).eval_at(z)[0, 0] == z**e
        for e in (-11, -10, 10, 11):
            with pytest.raises(NumericalError, match="rounding noise"):
                LaurentOp(1, {e: np.eye(1)}).eval_at(z)

    def test_exponent_past_the_horizon_is_a_numerical_error(self):
        # arg z is known to an ulp, about 2e-16 at 1j: |e| 1e30 leaves no digit
        for z in (1j, -1, 0.6 + 0.8j):
            with pytest.raises(NumericalError, match="rounding noise"):
                LaurentOp(1, {10**30: np.eye(1)}).eval_at(z)
        with tolerance_scope(eq=1e-12):
            with pytest.raises(NumericalError, match="rounding noise"):
                LaurentOp(1, {10**6: np.eye(1)}).eval_at(1j)

    def test_overflowing_power_is_a_numerical_error(self):
        for e in (10**30, 10**400):
            with pytest.raises(NumericalError, match="rounding noise"):
                LaurentOp(1, {e: np.eye(1)}).eval_at(1.000000001)


class TestPredicates:
    def test_identity_satisfies_all(self):
        one = LaurentOp.t_power(2, 0)
        assert pu.is_paraunitary(one) and pu.is_pure(one) and pu.in_positive_cone(one)

    def test_shift_satisfies_all(self):
        # t times the identity is the elementary factor of the full space
        t_id = LaurentOp.t_power(2, 1)
        assert pu.is_paraunitary(t_id) and pu.is_pure(t_id)
        assert pu.in_positive_cone(t_id)

    def test_twisted_shift_is_not_pure(self):
        u = np.diag([1.0, -1.0])
        op = LaurentOp(2, {1: u})
        assert pu.is_paraunitary(op)
        assert not pu.is_pure(op)  # coefficients sum to u, not 1

    def test_negative_shift_is_outside_the_cone(self):
        op = LaurentOp.t_power(2, -1)
        assert pu.is_pure(op) and not pu.in_positive_cone(op)

    def test_unitary_evaluations_of_paraunitary_ops(self):
        a = full_algebra(2, seed=21)
        el = pu.random_ppu(a, 3, 1, seed=5)
        for k in range(6):
            z = np.exp(2j * np.pi * k / 6)
            u = el.op.eval_at(z)
            assert mat_residual(u.conj().T @ u, np.eye(2)) < 1e-10


ring_seeds = st.integers(min_value=0, max_value=10**6)


@settings(max_examples=40, deadline=None)
@given(ring_seeds)
def test_ring_laws(seed):
    a = random_op(seed, span=1)
    b = random_op(seed + 1, span=1)
    c = random_op(seed + 2, span=1)
    assert ((a * b) * c).close_to(a * (b * c))
    assert (a * (b + c)).close_to(a * b + a * c)
    assert ((a + b) * c).close_to(a * c + b * c)


class TestPpuElement:
    def test_accepts_valid_element(self):
        a = diag_algebra(2)
        el = pu.PpuElement(p_m_op(P1), a)
        assert el.residuals["paraunitarity"] < 1e-12
        assert el.lo == 0 and el.hi == 1

    def test_rejects_non_paraunitary(self):
        a = diag_algebra(2)
        with pytest.raises(NumericalError, match="paraunitarity"):
            pu.PpuElement(LaurentOp(2, {0: 0.5 * np.eye(2), 1: 0.5 * np.eye(2)}), a)

    def test_rejects_impure(self):
        a = diag_algebra(2)
        with pytest.raises(NumericalError, match="purity"):
            pu.PpuElement(LaurentOp(2, {1: np.diag([1.0, -1.0])}), a)

    def test_rejects_coefficients_outside_algebra(self):
        tilted = pu.orthonormal_basis(np.array([[1.0], [1.0]])).projector()
        with pytest.raises(NumericalError, match="membership"):
            pu.PpuElement(p_m_op(tilted), diag_algebra(2))

    def test_group_operations(self):
        a = full_algebra(2, seed=22)
        g = pu.random_ppu(a, 2, 0, seed=9)
        h = pu.random_ppu(a, 2, 1, seed=10)
        gh = g * h
        assert (gh * gh.inverse()).close_to(pu.ppu_t_power(a, 0))
        assert gh.inverse().close_to(h.inverse() * g.inverse())

    def test_pure_submonoid(self):
        # an element in the cone whose inverse is also in the cone is trivial
        a = full_algebra(2, seed=23)
        for seed in range(6):
            g = pu.random_ppu(a, seed % 3, 0, seed)
            if pu.in_positive_cone(g.op) and pu.in_positive_cone(g.op.star()):
                assert g.close_to(pu.ppu_t_power(a, 0))
        one = pu.ppu_t_power(a, 0)
        assert pu.in_positive_cone(one.op) and pu.in_positive_cone(one.op.star())


class TestCertificate:
    @pytest.mark.parametrize("kind", sorted(each_algebra_kind()))
    def test_cone_test_on_the_certificate_decides_as_on_the_op(self, kind):
        for el in certified_samples(each_algebra_kind()[kind]):
            assert pu.in_positive_cone(el) == pu.in_positive_cone(el.op)
            worst = max(el.residuals["paraunitarity"], el.residuals["purity"])
            for eq in (worst, math.nextafter(worst, 0.0)):
                if eq > 0.0:
                    with tolerance_scope(eq=eq):
                        assert pu.in_positive_cone(el) == pu.in_positive_cone(el.op)

    def test_reuse_compares_the_certificate_with_the_active_eq(self):
        a = full_algebra(2, seed=27)
        el = pu.random_ppu(a, 3, 0, seed=15)
        worst = max(el.residuals["paraunitarity"], el.residuals["purity"])
        assert worst > 0.0
        with tolerance_scope(eq=worst):
            assert pu.in_positive_cone(el) and pu.in_positive_cone(el.op)
        with tolerance_scope(eq=math.nextafter(worst, 0.0)):
            assert not pu.in_positive_cone(el) and not pu.in_positive_cone(el.op)
            with pytest.raises(NumericalError):
                pu.PpuElement(el.op.shifted(1), a)
            with pytest.raises(NumericalError):
                el.shifted(1)

    @pytest.mark.parametrize("kind", sorted(each_algebra_kind()))
    def test_shift_carries_the_residuals_of_a_fresh_certification(self, kind):
        a = each_algebra_kind()[kind]
        for el in certified_samples(a) + [pu.ppu_t_power(a, 0)]:
            for k in (*range(-3, 4), 10**30):
                fresh = pu.PpuElement(el.op.shifted(k), a)
                shifted = el.shifted(k)
                assert shifted.op.exponents == fresh.op.exponents
                # residuals are norms, never NaN or -0.0: == is bitwise
                assert dict(shifted.residuals) == dict(fresh.residuals)

    def test_t_powers_carry_the_residuals_of_a_fresh_certification(self):
        a = full_algebra(3, seed=28)
        for k in (-2, 0, 1, 10**30):
            fresh = pu.PpuElement(LaurentOp.t_power(3, k), a)
            assert dict(pu.ppu_t_power(a, k).residuals) == dict(fresh.residuals)

    def test_elements_refuse_reassignment(self):
        el = pu.random_ppu(full_algebra(2, seed=29), 2, 0, seed=16)
        for obj, attrs in (
            (el, ("op", "algebra", "residuals")),
            (el.op, ("dim", "exponents", "stack", "norms")),
        ):
            for attr in attrs:
                with pytest.raises(AttributeError):
                    setattr(obj, attr, getattr(obj, attr))
                with pytest.raises(AttributeError):
                    delattr(obj, attr)
        with pytest.raises(TypeError):
            el.residuals["paraunitarity"] = 0.0
        for array in (el.op.stack, el.op.norms):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestTwist:
    def test_at_one_is_identity_map(self):
        a = full_algebra(2, seed=24)
        el = pu.random_ppu(a, 2, 1, seed=11)
        assert pu.twist_alpha(el, 1).close_to(el.op)

    def test_at_minus_one_on_shift(self):
        a = diag_algebra(2)
        t_el = pu.ppu_t_power(a, 1)
        out = pu.twist_alpha(t_el, -1)
        assert out.exponents == (1,)
        assert mat_residual(out.coeff(1), -np.eye(2)) < 1e-14
        assert mat_residual(out.eval_at(-1), np.eye(2)) < 1e-14

    def test_on_elementary_factor(self):
        a = diag_algebra(2)
        z = np.exp(0.9j)
        el = pu.PpuElement(p_m_op(P1), a)
        out = pu.twist_alpha(el, z)
        assert mat_residual(out.coeff(1), P1 / z) < 1e-14
        assert mat_residual(out.coeff(0), P2) < 1e-14
        assert mat_residual(out.eval_at(z), np.eye(2)) < 1e-14

    def test_twist_is_a_homomorphism_into_the_z_kernel(self):
        a = full_algebra(2, seed=25)
        g = pu.random_ppu(a, 2, 0, seed=12)
        h = pu.random_ppu(a, 3, 1, seed=13)
        z = np.exp(2.1j)
        lhs = pu.twist_alpha(g * h, z)
        rhs = pu.twist_alpha(g, z) * pu.twist_alpha(h, z)
        assert lhs.close_to(rhs)
        assert paraunitarity_residual(lhs) < 1e-10
        assert mat_residual(lhs.eval_at(z), np.eye(2)) < 1e-10

    def test_rejects_off_circle(self):
        el = pu.ppu_t_power(diag_algebra(2), 1)
        for z in (0.5, complex("nan")):
            with pytest.raises(InputError):
                pu.twist_alpha(el, z)

    def test_exponent_horizon(self):
        el = pu.ppu_t_power(diag_algebra(2), 10**30)
        assert pu.twist_alpha(el, 1).close_to(el.op)
        with pytest.raises(NumericalError, match="rounding noise"):
            pu.twist_alpha(el, 1j)
        with pytest.raises(NumericalError, match="rounding noise"):
            pu.twist_alpha(el, 0.999999999)


@pytest.mark.parametrize("on_left", [False, True], ids=["right", "left"])
def test_elementary_factor_is_trimmed_before_it_multiplies(on_left):
    # a full projector from a random frame leaves 1 - pi at rounding size;
    # p = t pi + (1 - pi) drops it as a dict-built p would, so it adds
    # nothing to the coefficients that pi moves onto
    rng = np.random.default_rng(5)
    frame = np.linalg.qr(rand_matrix(rng, 3, 3))[0]
    proj = frame @ frame.conj().T
    assert 0.0 < np.abs(np.eye(3) - proj).max() < 1e-14
    op = LaurentOp(3, {e: rand_matrix(rng, 3, 3) for e in range(4)})
    out = op.times_elementary(proj, 1, on_left=on_left)
    assert out.exponents == (1, 2, 3, 4)
    assert np.array_equal(out.stack, proj @ op.stack if on_left else op.stack @ proj)


def test_trim_drops_dust_relative_to_peak():
    big = np.eye(2)
    dust = 1e-13 * np.eye(2)
    op = LaurentOp(2, {0: big, -3: dust})
    assert op.exponents == (0,)
    assert op.lo == 0


def test_zero_op_degree_convention():
    z = LaurentOp(2, {})
    assert not z.exponents and z.lo == 0 and z.hi == 0


def test_overflowing_coefficient_norm_is_an_input_error():
    # the Frobenius norm of 1e200 I overflows, and a trim against
    # trim * inf used to drop every coefficient, leaving the zero element
    with pytest.raises(InputError, match="coefficient norm overflows"), np.errstate(over="ignore"):
        LaurentOp(2, {0: 1e200 * np.eye(2)})
    op = LaurentOp(1, {0: [[1e150]]})
    assert op.eval_at(1.0)[0, 0] == 1e150


def test_coefficients_whose_squares_underflow_are_kept():
    # the squares of 1e-300 are 0, and a peak norm of 0 used to drop every term
    op = LaurentOp(1, {0: [[1e-300]]})
    assert op.exponents == (0,) and op.eval_at(1.0)[0, 0] == 1e-300
    # each is trimmed against its true norm, relative to the true peak
    op = LaurentOp(1, {0: [[1e-300j]], 1: [[1e-312]], 2: [[1e-305]], 3: [[5e-324]]})
    assert op.exponents == (0, 2)
    # a peak of 1e-155 has a norm, but a term at 1e-163 above its trim does not
    assert LaurentOp(1, {0: [[1e-155]], 1: [[1e-163]]}).exponents == (0, 1)
    assert not LaurentOp(2, {0: np.zeros((2, 2))}).exponents


def test_norm_does_not_square_tiny_coefficients():
    # the squares of 1e-300 are 0: the norm read 0.0 for a kept term
    assert LaurentOp(1, {0: [[1e-300]]}).norm() == 1e-300
    assert LaurentOp(1, {0: [[3e-300]], 5: [[4e-300j]]}).norm() == pytest.approx(5e-300)
    # a 1e-163 term beside a 1e-155 peak is kept, and counts in the norm
    op = LaurentOp(2, {0: 1e-155 * np.eye(2), 1: 1e-163 * np.eye(2)})
    assert op.exponents == (0, 1)
    assert op.norm() == pytest.approx(np.sqrt(2) * np.hypot(1e-155, 1e-163), rel=1e-15)


def reference_residual(op):
    """The residual from the two full Cauchy products, trimming nothing."""
    with tolerance_scope(trim=1e-300):
        one = LaurentOp.t_power(op.dim, 0)
        scale = max(1.0, op.norm() ** 2)
        left = (op.star() * op - one).norm()
        right = (op * op.star() - one).norm()
        return max(left, right) / scale


def sparse_ppu(n, gaps):
    """Product of t^g P_g + (1 - P_g) over commuting diagonal projections."""
    op = LaurentOp.t_power(n, 0)
    for k, g in enumerate(gaps):
        proj = np.diag([float((i >> k) & 1) for i in range(n)])
        op = op * LaurentOp(n, {g: proj, 0: np.eye(n) - proj})
    return op


def residual_cases(n):
    rng = np.random.default_rng([n, 41])
    unitary = np.linalg.qr(rand_matrix(rng, n, n))[0]
    el = pu.random_ppu(full_algebra(n, seed=26), 5, 1, seed=14).op
    dust = LaurentOp(n, {e: 1e-6 * rand_matrix(rng, n, n) for e in el.coeffs})
    return {
        "zero": LaurentOp(n, {}),
        "single-unitary": LaurentOp(n, {3: unitary}),
        "single-random": LaurentOp(n, {-2: rand_matrix(rng, n, n)}),
        "shifted": el.shifted(-9),
        "far-shifted": el.shifted(10**30),
        "gapped-random": LaurentOp(n, {e: rand_matrix(rng, n, n) for e in (-4, 0, 1, 7)}),
        "gapped-paraunitary": sparse_ppu(n, (3, 11)),
        "paraunitary": el,
        "perturbed": el + dust,
    }


@pytest.mark.parametrize("n", [1, 3, 8])
def test_circle_residual_matches_the_product_residual(n, monkeypatch):
    cases = residual_cases(n)
    circle = []
    original = laurent._circle_residual
    monkeypatch.setattr(
        laurent, "_circle_residual", lambda op, m: circle.append(op) or original(op, m)
    )
    for name, op in cases.items():
        got, want = paraunitarity_residual(op), reference_residual(op)
        assert abs(got - want) <= 1e-12, (name, got, want)
    # the dense elements take the unit circle, the sparse ones the products
    assert 0 < len(circle) < len(cases)


@pytest.mark.parametrize("gap", [1, 5], ids=["unit-circle", "products"])
def test_residual_sees_what_the_trim_hides(gap):
    eta = 1e-7
    with tolerance_scope(trim=1e-6):
        op = LaurentOp(2, {0: np.diag([1.0, eta]), gap: np.diag([0.0, 1.0])})
        # op* op - 1 is eta diag(0, 1) at t^gap and t^-gap and eta^2 diag(0, 1)
        # at 1; the products trim the first two at 1e-6 times their peak
        trimmed = (op.star() * op - LaurentOp.t_power(2, 0)).norm()
        assert trimmed < 1e-12
        assert paraunitarity_residual(op) == pytest.approx(eta / np.sqrt(2), rel=1e-6)
        assert not pu.is_paraunitary(op)
    assert reference_residual(op) == pytest.approx(eta / np.sqrt(2), rel=1e-6)


@pytest.mark.parametrize("gaps", [(10**6,), (10**6, 3 * 10**6)], ids=["one-gap", "two-gaps"])
def test_wide_span_costs_nothing_in_proportion_to_the_span(gaps):
    # a naive unit-circle residual would allocate 2 GB here
    op = sparse_ppu(8, gaps)
    tracemalloc.start()
    try:
        # CPU time of this process, so a busy host does not count against it
        start = time.process_time()
        residual = paraunitarity_residual(op)
        square = op * op
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 10 * 2**20, (elapsed, peak)
    assert residual < 1e-12
    # the coefficients are orthogonal projections, so only squares survive
    assert square.exponents == tuple(2 * e for e in op.exponents)
