"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed: the same seed gives
the same algebras, the same elements and byte-identical payload files.
Algebras are named by a spec string:

- ``full:n``       all of M_n (commutant: the scalars);
- ``doubled:k``    {x (+) x : x in M_k} on C^2k (commutant M_2 (x) 1);
- ``block:a+b+..`` the direct sum of independent full blocks;
- ``scalars:n``    the scalar matrices on C^n;
- ``diagonal:n``   the diagonal matrices on C^n.

Package functions are looked up through their modules at call time, so
that a traced run sees them.
"""

from __future__ import annotations

import zlib

import numpy as np

from paraunitary import jsonio, ppu, star_algebra


def child_seed(*path: int) -> int:
    """Deterministic 63-bit seed from a root seed and an index path."""
    state = np.random.SeedSequence([int(p) for p in path]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


def _rand(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _block_diag(blocks) -> np.ndarray:
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def algebra_generators(spec: str, seed: int) -> tuple[int, list[np.ndarray]]:
    """Ambient dimension and generators of the algebra named by ``spec``."""
    kind, _, arg = spec.partition(":")
    rng = np.random.default_rng([int(seed), zlib.crc32(spec.encode())])
    if kind == "scalars":
        return int(arg), []
    if kind == "diagonal":
        n = int(arg)
        return n, [np.diag(np.arange(1.0, n + 1.0))]
    if kind == "full":
        n = int(arg)
        return n, [_rand(rng, n)]
    if kind == "doubled":
        x = _rand(rng, int(arg))
        return 2 * len(x), [_block_diag([x, x])]
    if kind == "block":
        sizes = [int(s) for s in arg.split("+")]
        return sum(sizes), [_block_diag([_rand(rng, s) for s in sizes])]
    raise ValueError(f"unknown algebra spec {spec!r}")


def commutant_dim(spec: str) -> int:
    """Linear dimension of the commutant, known from the algebra's structure."""
    kind, _, arg = spec.partition(":")
    if kind == "scalars":
        return int(arg) ** 2
    if kind == "diagonal":
        return int(arg)
    if kind == "full":
        return 1
    if kind == "doubled":
        return 4
    if kind == "block":
        # independent random blocks are pairwise inequivalent
        return len(arg.split("+"))
    raise ValueError(f"unknown algebra spec {spec!r}")


def build_algebra(spec: str, seed: int):
    """Generate the algebra and force its commutant, which it caches."""
    n, gens = algebra_generators(spec, seed)
    a = star_algebra.generate_algebra(n, gens)
    a.commutant  # noqa: B018 - cached on the instance
    return a


def basis_rows(a) -> np.ndarray:
    """Flattened trace-orthonormal basis of the algebra, one row per element."""
    return np.stack([b.reshape(-1) for b in a.basis])


def nonzero_factor(a, seed: int):
    """A seeded elementary factor p_M with M != 0, so that x < x p_M strictly."""
    for attempt in range(64):
        m = star_algebra.random_projection_in(a, child_seed(seed, attempt))
        if m.subspace.dim > 0:
            return ppu.p_of(m)
    raise RuntimeError("no nonzero invariant subspace in 64 draws")


def write_payload(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.canonical_dumps(payload) + "\n")


def write_algebra(path: str, a) -> None:
    write_payload(path, jsonio.algebra_to_json(a))


def write_element(path: str, el) -> None:
    write_payload(path, jsonio.laurent_to_json(el.op))
