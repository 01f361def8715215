import json
import types

import numpy as np
import pytest

import paraunitary as pu
from paraunitary import axioms, jsonio, reporting
from paraunitary.laurent import LaurentOp
from paraunitary.numfield import InputError, tolerance_scope
from paraunitary.reporting import CheckReport

from conftest import diag_algebra, doubled_algebra, full_algebra, scalar_algebra

ALGEBRAS = {
    "scalars_c1": scalar_algebra(1),
    "diag3": diag_algebra(3),
    "full2": full_algebra(2, seed=101),
    "doubled4": doubled_algebra(2, seed=102),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS), ids=sorted(ALGEBRAS))
def test_normality_passes(name):
    report = axioms.check_normality(ALGEBRAS[name], samples=30, seed=1)
    assert report.passed and not report.inconclusive
    assert report.max_error <= 1e-8


@pytest.mark.parametrize("name", sorted(ALGEBRAS), ids=sorted(ALGEBRAS))
def test_singularity_passes(name):
    report = axioms.check_singularity(ALGEBRAS[name], samples=80, seed=2)
    assert report.passed and not report.inconclusive
    assert report.samples - report.vacuous >= 20


def test_singularity_counts_vacuous_pairs():
    report = axioms.check_singularity(full_algebra(3, seed=103), samples=80, seed=3)
    assert report.vacuous > 0  # generic pairs are not orthogonal


def test_normality_equal_operands_exact():
    a = diag_algebra(2)
    g = pu.random_ppu(a, 2, 1, seed=55)
    t_el = pu.ppu_t_power(a, 1)
    lhs = (t_el * pu.join(g, g)).op
    rhs = pu.join(t_el * g, t_el * g).op
    assert lhs.distance(rhs) == 0.0


def test_singularity_zero_member_instance():
    # x = identity factor: the hypothesis holds and yx = y = x v y
    a = diag_algebra(2)
    zero = pu.certify_member(a, pu.orthonormal_basis(np.zeros((2, 0))))
    n = pu.random_projection_in(a, 56)
    x, y = pu.p_of(zero), pu.p_of(n)
    assert pu.leq(x * y, pu.ppu_t_power(a, 1))
    assert (y * x).close_to(y)
    assert pu.join(x, y).close_to(y)


@pytest.mark.parametrize("name", sorted(ALGEBRAS), ids=sorted(ALGEBRAS))
def test_order_unit_passes(name):
    report = axioms.check_order_unit(ALGEBRAS[name], samples=30, seed=4)
    assert report.passed and not report.inconclusive


@pytest.mark.parametrize("name", sorted(ALGEBRAS), ids=sorted(ALGEBRAS))
def test_gamma_oml_passes(name):
    report = axioms.check_gamma_oml(ALGEBRAS[name], samples=25, seed=5)
    assert report.passed and not report.inconclusive
    assert report.max_error <= 1e-8


@pytest.mark.parametrize("name", sorted(ALGEBRAS), ids=sorted(ALGEBRAS))
def test_gvm_passes(name):
    report = axioms.check_gvm(ALGEBRAS[name], samples=80, seed=6)
    assert report.passed and not report.inconclusive
    assert report.max_error <= 1e-9


def test_a_nan_residual_is_a_recorded_failure():
    report = CheckReport("x", 2, 0)
    report.record(0.0, {"sample": 0})
    report.record(0.5, {"sample": 1})
    report.record(float("nan"), {"sample": 2})
    # no later residual compares above a NaN, so none replaces it
    report.record(0.1, {"sample": 3})
    assert not report.passed
    assert [f["input"] for f in report.failures] == [{"sample": i} for i in (1, 2, 3)]
    assert np.isnan(report.max_error)
    as_json = report.to_json()
    assert as_json["max_error"] is None
    assert [f["residual"] for f in as_json["failures"]] == [0.5, None, 0.1]


def _same_bits(back, held):
    # a zero is written "-0" or "0", which JSON readers take for the integer 0,
    # so it reads back unsigned; adding 0.0 unsigns the held zeros alike
    held = held + 0.0
    return back.shape == held.shape and back.tobytes() == held.tobytes()


def _reparses_to(held, wire) -> bool:
    """``wire``, as ``canonical_dumps`` wrote ``held``, reads back to its bytes."""
    if isinstance(held, pu.Subspace):
        return _same_bits(jsonio.matrix_from_json(wire), held.frame)
    if isinstance(held, LaurentOp):
        back = jsonio.laurent_from_json(wire)
        return back.exponents == held.exponents and all(
            _same_bits(back.coeff(e), held.coeff(e)) for e in held.exponents)
    return wire == held


def test_every_failure_input_is_written_and_reads_back(monkeypatch):
    # reports read only ``eq``, and below zero it fails every residual
    monkeypatch.setattr(reporting, "tolerances", lambda: types.SimpleNamespace(eq=-1.0))
    a = doubled_algebra(2, seed=103)
    reports = axioms.run_suite(a, samples=4, seed=0, n_points=3)
    # order_unit records flags only: one power of t up, the lower bound fails
    t_power = axioms.ppu_t_power
    monkeypatch.setattr(axioms, "ppu_t_power", lambda a, k: t_power(a, k + 1))
    reports.append(axioms.check_order_unit(a, samples=4, seed=0))
    assert {r.check for r in reports if r.failures} == set(axioms.CHECK_NAMES)
    written = json.loads(jsonio.canonical_dumps([r.to_json() for r in reports]))
    for report, wire in zip(reports, written):
        assert len(wire["failures"]) == len(report.failures)
        for held, got in zip(report.failures, wire["failures"]):
            assert sorted(got["input"]) == sorted(held["input"])
            assert all(_reparses_to(v, got["input"][k]) for k, v in held["input"].items())


def test_a_nan_among_a_samples_residuals_fails_the_check(monkeypatch):
    # the inverse-map residual is the fourth of the six that gamma_oml takes
    # the largest of, where Python's max would drop a NaN
    monkeypatch.setattr(axioms, "subspace_residual", lambda m, n: float("nan"))
    report = axioms.check_gamma_oml(diag_algebra(2), samples=3, seed=1)
    assert len(report.failures) == 3 and np.isnan(report.max_error)


def test_small_sample_counts_are_inconclusive():
    report = axioms.check_order_unit(diag_algebra(2), samples=10, seed=7)
    assert report.inconclusive
    report = axioms.check_normality(diag_algebra(2), samples=0, seed=7)
    assert report.inconclusive


class TestCommutativeModel:
    def test_passes_on_four_points(self):
        report = axioms.check_commutative_model(4, samples=40, seed=8)
        assert report.passed and not report.inconclusive
        assert report.failures == []

    def test_zero_vector_is_the_identity(self):
        a = axioms.diagonal_algebra(3)
        el = axioms.exponent_vector_element(a, [0, 0, 0])
        assert el.close_to(pu.ppu_t_power(a, 0))

    def test_min_max_example(self):
        a = axioms.diagonal_algebra(2)
        u = axioms.exponent_vector_element(a, [1, 2])
        v = axioms.exponent_vector_element(a, [2, 1])
        assert pu.meet(u, v).close_to(axioms.exponent_vector_element(a, [1, 1]))
        assert pu.join(u, v).close_to(axioms.exponent_vector_element(a, [2, 2]))

    def test_incomparable_mixed_signs(self):
        a = axioms.diagonal_algebra(2)
        u = axioms.exponent_vector_element(a, [1, 0])
        v = axioms.exponent_vector_element(a, [0, 1])
        assert not pu.leq(u, v)
        assert not pu.leq(v, u)

    def test_group_law_is_vector_addition(self):
        a = axioms.diagonal_algebra(3)
        u = axioms.exponent_vector_element(a, [1, -2, 0])
        v = axioms.exponent_vector_element(a, [2, 3, -1])
        assert (u * v).close_to(axioms.exponent_vector_element(a, [3, 1, -1]))

    def test_factor_count_is_the_max_entry(self):
        a = axioms.diagonal_algebra(3)
        el = axioms.exponent_vector_element(a, [2, 0, 3])
        assert len(pu.factor_positive(el).factors) == 3

    def test_rejects_empty_model(self):
        with pytest.raises(InputError):
            axioms.check_commutative_model(0, samples=10, seed=0)

    def test_rejects_more_than_64_points_before_building(self, monkeypatch):
        monkeypatch.setattr(axioms, "generate_algebra", None)
        for points in (65, 10**6):
            with pytest.raises(InputError, match="at most 64 points"):
                axioms.check_commutative_model(points, samples=1, seed=0)

    def test_the_model_is_built_once_per_size_and_tolerances(self):
        a = axioms.diagonal_algebra(3)
        assert axioms.diagonal_algebra(3) is a
        assert axioms.diagonal_algebra(4) is not a
        with tolerance_scope(eq=1e-9):
            b = axioms.diagonal_algebra(3)
            assert b is not a and axioms.diagonal_algebra(3) is b
        assert axioms.diagonal_algebra(3) is a

    def test_exponent_vectors_take_no_peel(self, monkeypatch):
        # the model checks the exponent-vector path against elements built
        # coordinate by coordinate
        monkeypatch.setattr(pu.ppu, "_peel", None)
        report = axioms.check_commutative_model(3, samples=10, seed=4)
        assert report.passed and report.failures == []


class TestSuite:
    def test_reports_sorted_and_deterministic(self):
        a = diag_algebra(2)
        r1 = axioms.run_suite(a, samples=25, seed=9)
        r2 = axioms.run_suite(a, samples=25, seed=9)
        names = [r.check for r in r1]
        assert names == sorted(names)
        assert [r.to_json() for r in r1] == [r.to_json() for r in r2]

    def test_check_selection(self):
        a = diag_algebra(2)
        reports = axioms.run_suite(a, checks=["order_unit", "normality"], samples=25, seed=10)
        assert [r.check for r in reports] == ["normality", "order_unit"]

    def test_rejects_unknown_check(self):
        with pytest.raises(InputError):
            axioms.run_suite(diag_algebra(2), checks=["nonsense"], samples=25, seed=0)

    def test_rejects_an_empty_selection(self):
        with pytest.raises(InputError, match="no checks selected"):
            axioms.run_suite(diag_algebra(2), checks=[], samples=25, seed=0)

    def test_full_pass_is_the_structure_group_evidence(self):
        # all checks green on one instance certifies the isomorphism there
        reports = axioms.run_suite(full_algebra(2, seed=104), samples=40, seed=11)
        assert all(r.passed for r in reports)
        assert not any(r.inconclusive for r in reports)
