"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here, not configurable.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

import paraunitary as pu
from paraunitary import axioms, jsonio
from paraunitary.cli import main as cli_main
from paraunitary.numfield import frob

from conftest import (
    contained_in,
    kron_peel,
    kron_stability_residual,
    oracle_window,
    random_algebra,
)

# structurally mixed seeded algebras on C^2..C^6: full matrix algebra,
# diagonal, two block direct sums, and a multiplicity-two block
ALGEBRA_SEEDS = {2: 1000, 3: 1000, 4: 1008, 5: 1001, 6: 1001}


@pytest.fixture(scope="session")
def algebras():
    return {n: random_algebra(n, seed) for n, seed in ALGEBRA_SEEDS.items()}


@pytest.fixture(scope="session")
def algebra_files(algebras, tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}
    for n, a in algebras.items():
        p = root / f"algebra_{n}.json"
        p.write_text(jsonio.canonical_dumps(jsonio.algebra_to_json(a)) + "\n")
        paths[n] = str(p)
    return root, paths


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_factorization_roundtrip(algebras, algebra_files):
    root, alg_paths = algebra_files
    element_path = root / "element.json"
    out_path = root / "factors.json"
    per_algebra = 40  # 5 algebras x 40 = 200 elements
    # How many of the 200 draws are canonical depends on the seeded draws
    # (90 to 110 of them across first seeds 11..15), so past them the same
    # per-algebra sequences continue, every assertion included, until 100
    # canonical presentations are checked; the cap makes a run that never
    # gets there fail.
    max_per_algebra = 80
    started = time.perf_counter()
    worst_residual = 0.0
    canonical_checked = 0
    factorized = 0

    def roundtrip(n, a, i):
        nonlocal worst_residual, canonical_checked, factorized
        rng = np.random.default_rng([11, n, i])
        k = int(rng.integers(0, 9))
        j = int(rng.integers(0, 3))
        el = pu.random_ppu(a, k, j, seed=int(rng.integers(2**63)))
        element_path.write_text(
            jsonio.canonical_dumps(jsonio.laurent_to_json(el.op)) + "\n"
        )
        with contextlib.redirect_stderr(io.StringIO()) as diag:
            code = cli_main(
                ["factor", alg_paths[n], str(element_path), "--out", str(out_path)]
            )
        assert code == 0
        assert json.loads(diag.getvalue())["reconstruction_residual"] <= 1e-8
        payload = json.loads(out_path.read_text())
        shift = payload["shift"]
        members = [
            pu.certify_member(a, pu.Subspace(jsonio.matrix_from_json(f)))
            for f in payload["factors"]
        ]
        # every factor certified in the invariant lattice
        assert all(pu.is_member_XAprime(a, m.subspace) for m in members)
        # factor count equals the degree of the normalized element
        assert shift == max(0, -el.lo)
        assert len(members) == el.hi + shift
        normalized = el.op.shifted(j)
        if normalized.lo == 0:
            # the sampled presentation is the canonical one
            assert shift == j and len(members) == normalized.hi
            canonical_checked += 1
        # independent reconstruction of the CLI output
        rebuilt = pu.FactorList(shift, tuple(members)).assemble(a)
        diff = rebuilt.op - el.op
        residual = max((frob(c) for c in diff.coeffs.values()), default=0.0)
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-8
        factorized += 1

    for n, a in algebras.items():
        for i in range(per_algebra):
            roundtrip(n, a, i)
    more = (
        (n, a, i)
        for i in range(per_algebra, max_per_algebra)
        for n, a in algebras.items()
    )
    for n, a, i in more:
        if canonical_checked >= 100:
            break
        roundtrip(n, a, i)
    elapsed = time.perf_counter() - started
    assert canonical_checked >= 100
    _report(
        1,
        worst_residual <= 1e-8 and elapsed <= 60.0,
        f"{factorized} factorizations ({canonical_checked} canonical), "
        f"max residual {worst_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_order_embedding(algebras):
    disagreements = 0
    checked = 0
    for n, a in algebras.items():
        for i in range(40):
            g = axioms._random_element(a, 12, n, i, 0)
            if i % 2 == 0:
                h = g * axioms._random_element(a, 12, n, i, 1, shifts=(0, 1))  # g <= h
            else:
                h = axioms._random_element(a, 12, n, i, 2)
            lo, hi = min(g.lo, h.lo), max(g.hi, h.hi)
            wg = oracle_window(g, lo, hi)
            wh = oracle_window(h, lo, hi)
            for x, y, wx, wy in ((g, h, wg, wh), (h, g, wh, wg)):
                checked += 1
                if pu.leq(x, y) != contained_in(wx.space, wy.space):
                    disagreements += 1
    _report(2, disagreements == 0, f"{checked} comparisons, {disagreements} disagreements")


def test_criterion_3_window_bijectivity(algebras):
    worst = 0.0
    for n, a in algebras.items():
        for i in range(40):
            el = axioms._random_element(a, 13, n, i, max_factors=5)
            window = oracle_window(el, el.lo, el.hi)
            back = kron_peel(window)
            worst = max(worst, kron_stability_residual(window), back.distance(el.op))
    _report(3, worst <= 1e-8, f"200 round trips, max residual {worst:.2e}")


def test_criterion_4_lattice_laws(algebras):
    worst = 0.0
    for n, a in algebras.items():
        for i in range(40):  # 200 pairs: commutativity and absorption
            g = axioms._random_element(a, 14, n, i, 0)
            h = axioms._random_element(a, 14, n, i, 1)
            worst = max(
                worst,
                pu.meet(g, h).op.distance(pu.meet(h, g).op),
                pu.join(g, h).op.distance(pu.join(h, g).op),
                pu.join(g, pu.meet(g, h)).op.distance(g.op),
                pu.meet(g, pu.join(g, h)).op.distance(g.op),
            )
        for i in range(20):  # 100 triples: associativity
            g = axioms._random_element(a, 15, n, i, 0, max_factors=3)
            h = axioms._random_element(a, 15, n, i, 1, max_factors=3)
            k = axioms._random_element(a, 15, n, i, 2, max_factors=3)
            worst = max(
                worst,
                pu.meet(pu.meet(g, h), k).op.distance(pu.meet(g, pu.meet(h, k)).op),
                pu.join(pu.join(g, h), k).op.distance(pu.join(g, pu.join(h, k)).op),
            )
        for i in range(20):  # 100 triples: left-translation compatibility
            chi = axioms._random_element(a, 16, n, i, 0, max_factors=3)
            g = axioms._random_element(a, 16, n, i, 1, max_factors=3)
            h = axioms._random_element(a, 16, n, i, 2, max_factors=3)
            worst = max(
                worst,
                pu.meet(chi * g, chi * h).op.distance((chi * pu.meet(g, h)).op),
                pu.join(chi * g, chi * h).op.distance((chi * pu.join(g, h)).op),
            )
    _report(4, worst <= 1e-8, f"lattice laws, max residual {worst:.2e}")


def test_criterion_5_singular_strong_order_unit(algebras):
    ok = True
    details = []
    for n, a in algebras.items():
        normality = axioms.check_normality(a, samples=30, seed=17)
        singularity = axioms.check_singularity(a, samples=60, seed=18)
        order_unit = axioms.check_order_unit(a, samples=30, seed=19)
        effective = singularity.samples - singularity.vacuous
        good = (
            all(r.passed and not r.inconclusive for r in (normality, singularity, order_unit))
            and effective >= 20
        )
        ok = ok and good
        details.append(f"n={n} singular effective {effective}")
    _report(5, ok, "; ".join(details))


def test_criterion_6_oml_and_gamma(algebras):
    ok = True
    worst_gvm = 0.0
    worst_oml = 0.0
    for n, a in algebras.items():
        gamma = axioms.check_gamma_oml(a, samples=30, seed=20)
        gvm = axioms.check_gvm(a, samples=60, seed=21)
        orthomodular = pu.check_orthomodular(a, 200, 22)
        ok = ok and all(
            r.passed and not r.inconclusive for r in (gamma, gvm, orthomodular)
        )
        ok = ok and gamma.max_error <= 1e-8 and gvm.max_error <= 1e-9
        worst_gvm = max(worst_gvm, gvm.max_error)
        worst_oml = max(worst_oml, orthomodular.max_error)
    _report(
        6,
        ok,
        f"gamma/gvm/orthomodular pass, gvm residual {worst_gvm:.2e}, "
        f"orthomodular residual {worst_oml:.2e}",
    )


def test_criterion_7_commutative_model():
    report = axioms.check_commutative_model(4, samples=100, seed=23)
    a = axioms.diagonal_algebra(4)
    u = axioms.exponent_vector_element(a, [1, 2, 0, -1])
    v = axioms.exponent_vector_element(a, [2, 1, 0, -1])
    exact = (
        pu.meet(u, v).close_to(axioms.exponent_vector_element(a, [1, 1, 0, -1]))
        and pu.join(u, v).close_to(axioms.exponent_vector_element(a, [2, 2, 0, -1]))
        and not pu.leq(u, v)
        and not pu.leq(v, u)
    )
    ok = report.passed and not report.inconclusive and not report.failures and exact
    _report(7, ok, f"Z^4 model, {report.samples} samples, zero violations")


def test_criterion_8_specializations(algebras):
    rng = np.random.default_rng(24)
    zs = np.exp(2j * np.pi * rng.random(10))
    worst = 0.0
    elements = []
    for n, a in algebras.items():
        for i in range(20):
            elements.append(axioms._random_element(a, 25, n, i))
    assert len(elements) == 100
    for z in zs:
        for el in elements:
            u = el.op.eval_at(z)
            worst = max(worst, frob(u.conj().T @ u - np.eye(el.op.dim)))
            twisted = pu.twist_alpha(el, z)
            worst = max(worst, frob(twisted.eval_at(z) - np.eye(el.op.dim)))
        for g, h in zip(elements[::2], elements[1::2]):
            if g.algebra is h.algebra:
                lhs = pu.twist_alpha(g * h, z)
                rhs = pu.twist_alpha(g, z) * pu.twist_alpha(h, z)
                worst = max(worst, (lhs - rhs).norm())
    _report(8, worst <= 1e-8, f"unitarity and twist laws, max residual {worst:.2e}")


def test_criterion_9_algebra_layer(algebras):
    ok = True
    details = []
    for n, a in algebras.items():
        double = a.commutant.commutant
        bicommutant_ok = (
            double.linear_dim == a.linear_dim
            and a.same_span(double)
            and double.same_span(a)
        )
        agreements = 0
        for i in range(200):
            rng = np.random.default_rng([26, n, i])
            if i % 2 == 0:
                s = pu.random_projection_in(a, pu.derive_seed(26, n, i)).subspace
            else:
                k = int(rng.integers(0, n + 1))
                cols = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                s = pu.orthonormal_basis(cols) if k else pu.orthonormal_basis(np.zeros((n, 0)))
            # raises if the projector and invariance criteria disagree
            pu.is_member_XAprime(a, s)
            agreements += 1
        ok = ok and bicommutant_ok and agreements == 200
        details.append(f"n={n} bicommutant={bicommutant_ok}")
    _report(9, ok, "; ".join(details))
