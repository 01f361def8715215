import importlib.util
from pathlib import Path

import numpy as np
import pytest

import paraunitary as pu

ROOT = Path(__file__).resolve().parent.parent


def load_module(relpath):
    """Import a file of the repository that is not on the path, e.g. a script."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _restore_tolerances():
    before = pu.tolerances()
    yield
    pu.set_tolerances(before)


def rand_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_subspace(n, seed, *salt):
    """Seeded subspace of C^n with a random dimension (0..n possible)."""
    rng = np.random.default_rng([seed, *salt])
    k = int(rng.integers(0, n + 2))
    if k == 0:
        return pu.Subspace(np.zeros((n, 0)))
    return pu.orthonormal_basis(rand_matrix(rng, n, k))


def scalar_algebra(n):
    return pu.generate_algebra(n, [])


def diag_algebra(n):
    return pu.generate_algebra(n, [np.diag(np.arange(1.0, n + 1.0))])


def full_algebra(n, seed=0):
    a = pu.generate_algebra(n, [rand_matrix(np.random.default_rng([seed, 77]), n, n)])
    assert a.linear_dim == n * n
    return a


def block_algebra(sizes, seed=0):
    """Direct sum of full matrix blocks of the given sizes."""
    n = sum(sizes)
    rng = np.random.default_rng([seed, 78])
    gen = np.zeros((n, n), dtype=complex)
    at = 0
    for s in sizes:
        gen[at : at + s, at : at + s] = rand_matrix(rng, s, s)
        at += s
    return pu.generate_algebra(n, [gen])


def doubled_algebra(k, seed=0):
    """Matrices of the form x + x (two equal blocks); big commutant."""
    rng = np.random.default_rng([seed, 79])
    x = rand_matrix(rng, k, k)
    gen = np.zeros((2 * k, 2 * k), dtype=complex)
    gen[:k, :k] = x
    gen[k:, k:] = x
    return pu.generate_algebra(2 * k, [gen])


def random_algebra(n, seed):
    """Seeded pick among structurally different algebras on C^n."""
    rng = np.random.default_rng([seed, 80])
    kinds = ["full", "diag", "blocks"]
    if n % 2 == 0:
        kinds.append("doubled")
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "full":
        return full_algebra(n, seed)
    if kind == "diag":
        return diag_algebra(n)
    if kind == "doubled":
        return doubled_algebra(n // 2, seed)
    sizes = []
    remaining = n
    while remaining > 0:
        s = int(rng.integers(1, remaining + 1))
        sizes.append(s)
        remaining -= s
    return block_algebra(sizes, seed)
