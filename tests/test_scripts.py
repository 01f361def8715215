"""Smoke tests of the scripts under scripts/.

The full axiom suite of ``run_axiom_suite.py`` takes about 16 s, so only
its algebra family is checked here.
"""

import re

import pytest

from conftest import ROOT, load_module, run_python


def test_factorization_demo_reconstructs_every_element():
    proc = run_python(str(ROOT / "scripts" / "factorization_demo.py"))
    assert proc.returncode == 0, proc.stderr
    residuals = [float(r) for r in re.findall(r"residual=(\S+)", proc.stdout)]
    assert len(residuals) == 5  # the default --count
    assert max(residuals) <= 1e-8


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
def test_axiom_suite_algebras(name, linear_dim, commutant_dim):
    a = load_module("scripts/run_axiom_suite.py").build_algebras(0)[name]
    assert a.linear_dim == linear_dim
    assert a.commutant.linear_dim == commutant_dim
