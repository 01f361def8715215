"""Machine verification of the right-group axioms on sampled instances.

A full pass of these checks on an algebra instance is the package's
evidence that the pure paraunitary group of that algebra, ordered by
its positive cone, is the structure group of the invariant-subspace
orthomodular lattice: t is normal and singular, dominates every element
by some power, the interval [1, t] is an OML isomorphic to the lattice,
and the elementary factors form a group-valued measure on it.
"""

from __future__ import annotations

import numpy as np

from . import ppu
from .jsonio import laurent_to_json, subspace_to_json
from .laurent import LaurentOp, PpuElement, ppu_t_power
from .numfield import InputError, subspace_residual
from .reporting import CheckReport, derive_seed
from .star_algebra import (
    StarAlgebra,
    check_orthomodular,
    generate_algebra,
    is_perp,
    oml_complement,
    oml_join,
    oml_meet,
    random_projection_in,
)


def _random_element(a: StarAlgebra, seed: int, *path: int,
                    max_factors: int = 4, shifts: tuple[int, int] = (0, 3)) -> PpuElement:
    rng = np.random.default_rng([seed, *path])
    k = int(rng.integers(0, max_factors))
    shift = int(rng.integers(*shifts))
    return ppu.random_ppu(a, k, shift, int(rng.integers(2**63)))


def _pair_payload(g: PpuElement, h: PpuElement):
    return lambda: {"g": laurent_to_json(g.op), "h": laurent_to_json(h.op)}


def _member_payload(m, n):
    return lambda: {
        "m": subspace_to_json(m.subspace),
        "n": subspace_to_json(n.subspace),
    }


def check_normality(a: StarAlgebra, samples: int = 100, seed: int = 0) -> CheckReport:
    """Left multiplication by t distributes over joins."""
    report = CheckReport("normality", samples, seed)
    t_el = ppu_t_power(a, 1)
    for i in range(samples):
        g = _random_element(a, seed, i, 0)
        h = _random_element(a, seed, i, 1)
        lhs = (t_el * ppu.join(g, h)).op
        rhs = ppu.join(t_el * g, t_el * h).op
        report.record(lhs.distance(rhs), _pair_payload(g, h))
    return report


def _orthogonalish_pair(a: StarAlgebra, seed: int, i: int):
    """Random member pair, coerced into orthogonality on even indices.

    Independent draws are almost never orthogonal outside tiny lattices,
    so half of the pairs take the second member inside the complement of
    the first; the singularity and measure checks still count only the
    pairs whose hypothesis actually holds.
    """
    m = random_projection_in(a, derive_seed(seed, i, 0))
    n = random_projection_in(a, derive_seed(seed, i, 1))
    if i % 2 == 0:
        n = oml_meet(oml_complement(m), n)
    return m, n


def check_singularity(a: StarAlgebra, samples: int = 100, seed: int = 0) -> CheckReport:
    """xy <= t forces yx = x v y on the interval [1, t].

    The hypothesis is equivalent to M and N being orthogonal; the
    conclusion is asserted against both the lattice join and the
    elementary factor of the orthogonal sum.
    """
    report = CheckReport("singularity", samples, seed)
    t_el = ppu_t_power(a, 1)
    for i in range(samples):
        m, n = _orthogonalish_pair(a, seed, i)
        x, y = ppu.p_of(m), ppu.p_of(n)
        divides_t = ppu.leq(x * y, t_el)
        if divides_t != is_perp(m, n):
            report.record_flag(False, _member_payload(m, n))
            continue
        if not divides_t:
            report.skip_vacuous()
            continue
        yx = (y * x).op
        residual = max(
            yx.distance(ppu.join(x, y).op),
            yx.distance(ppu._elementary(oml_join(m, n).subspace)),
        )
        report.record(residual, _member_payload(m, n))
    return report


def check_order_unit(a: StarAlgebra, samples: int = 100, seed: int = 0) -> CheckReport:
    """Every element sits below t^k for k its top exponent, and no lower."""
    report = CheckReport("order_unit", samples, seed)
    for i in range(samples):
        g = _random_element(a, seed, i, max_factors=5, shifts=(-2, 3))
        k = g.hi
        ok = ppu.leq(g, ppu_t_power(a, k)) and not ppu.leq(g, ppu_t_power(a, k - 1))
        report.record_flag(ok, lambda g=g: {"g": laurent_to_json(g.op)})
    return report


def check_gamma_oml(a: StarAlgebra, samples: int = 100, seed: int = 0) -> CheckReport:
    """The map M -> p_M is an OML isomorphism onto the interval [1, t].

    Meets, joins and complements of elementary factors match the images
    of the lattice operations, the inverse map recovers the subspace,
    and the interval satisfies the orthocomplementation and orthomodular
    laws through these images.
    """
    report = CheckReport("gamma_oml", samples, seed)
    one = ppu_t_power(a, 0)
    t_el = ppu_t_power(a, 1)
    for i in range(samples):
        m = random_projection_in(a, derive_seed(seed, i, 0))
        n = random_projection_in(a, derive_seed(seed, i, 1))
        pm, pn = ppu.p_of(m), ppu.p_of(n)
        pk, pc = ppu.p_of(oml_meet(m, n)), ppu.p_of(oml_complement(m))
        residual = max(
            ppu.meet(pm, pn).op.distance(pk.op),
            ppu.join(pm, pn).op.distance(ppu._elementary(oml_join(m, n).subspace)),
            ppu.complement_in_t(pm).op.distance(pc.op),
            subspace_residual(ppu.gamma_inverse(pm).subspace, m.subspace),
            # OL1/OL2 through the images
            ppu.meet(pm, pc).op.distance(one.op),
            ppu.join(pm, pc).op.distance(t_el.op),
        )
        # orthomodular law with the coerced inclusion meet(m, n) <= n
        oml_lhs = ppu.join(pk, ppu.meet(ppu.complement_in_t(pk), pn))
        residual = max(residual, oml_lhs.op.distance(pn.op))
        report.record(residual, _member_payload(m, n))
    return report


def check_gvm(a: StarAlgebra, samples: int = 100, seed: int = 0) -> CheckReport:
    """M -> p_M is a group-valued measure: orthogonal sums multiply."""
    report = CheckReport("gvm", samples, seed)
    for i in range(samples):
        m, n = _orthogonalish_pair(a, seed, i)
        if not is_perp(m, n):
            report.skip_vacuous()
            continue
        target = ppu._elementary(oml_join(m, n).subspace)
        pm, pn = ppu._elementary(m.subspace), ppu._elementary(n.subspace)
        residual = max((pm * pn).distance(target), (pn * pm).distance(target))
        report.record(residual, _member_payload(m, n))
    return report


def diagonal_algebra(n_points: int) -> StarAlgebra:
    if n_points < 1:
        raise InputError("need at least one point")
    return generate_algebra(n_points, [np.diag(np.arange(1.0, n_points + 1.0))])


def exponent_vector_element(a: StarAlgebra, vec) -> PpuElement:
    """diag(t^v1, ..., t^vn) as a group element over the diagonal algebra."""
    vec = np.asarray(vec, dtype=int)
    coeffs: dict[int, np.ndarray] = {}
    for idx, e in enumerate(vec):
        c = coeffs.setdefault(int(e), np.zeros((len(vec), len(vec)), dtype=np.complex128))
        c[idx, idx] = 1.0
    return PpuElement(LaurentOp(len(vec), coeffs), a)


def check_commutative_model(n_points: int, samples: int = 100, seed: int = 0) -> CheckReport:
    """On the diagonal algebra the group is Z^n with the pointwise order.

    Exponent vectors add under multiplication, comparability is the
    pointwise order, meet/join are the pointwise min/max, and positive
    vectors factor into as many elementary factors as their largest
    entry.
    """
    a = diagonal_algebra(n_points)
    report = CheckReport("commutative_model", samples, seed)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        u = rng.integers(-3, 5, n_points)
        v = rng.integers(-3, 5, n_points)
        eu, ev = exponent_vector_element(a, u), exponent_vector_element(a, v)
        payload = lambda u=u, v=v: {"u": [int(x) for x in u], "v": [int(x) for x in v]}
        report.record((eu * ev).op.distance(exponent_vector_element(a, u + v).op), payload)
        report.record_flag(ppu.leq(eu, ev) == bool(np.all(u <= v)), payload)
        report.record_flag(ppu.leq(ev, eu) == bool(np.all(v <= u)), payload)
        report.record(
            ppu.meet(eu, ev).op.distance(
                exponent_vector_element(a, np.minimum(u, v)).op
            ),
            payload,
        )
        report.record(
            ppu.join(eu, ev).op.distance(
                exponent_vector_element(a, np.maximum(u, v)).op
            ),
            payload,
        )
        w = u - u.min() if u.min() < 0 else u
        factors = ppu.factor_positive(exponent_vector_element(a, w)).factors
        report.record_flag(len(factors) == int(w.max()), payload)
    return report


_ALGEBRA_CHECKS = {
    "gamma_oml": check_gamma_oml,
    "gvm": check_gvm,
    "normality": check_normality,
    "order_unit": check_order_unit,
    "orthomodular": check_orthomodular,
    "singularity": check_singularity,
}
CHECK_NAMES = tuple(sorted([*_ALGEBRA_CHECKS, "commutative_model"]))


def run_suite(a: StarAlgebra, checks=None, samples: int = 100, seed: int = 0,
              n_points: int = 4) -> list[CheckReport]:
    """Run the selected checks; reports come back sorted by check name."""
    selected = tuple(checks) if checks is not None else CHECK_NAMES
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise InputError(f"unknown checks: {', '.join(unknown)}")
    reports = []
    for name in sorted(selected):
        if name == "commutative_model":
            reports.append(check_commutative_model(n_points, samples, seed))
        else:
            reports.append(_ALGEBRA_CHECKS[name](a, samples, seed))
    return reports
