import dataclasses
import functools
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paraunitary as pu
from paraunitary import laurent
from paraunitary.laurent import LaurentOp
from paraunitary.numfield import (
    InputError,
    as_matrix,
    frob,
    kernel,
    meet_subspace,
    tolerances,
)

ROOT = Path(__file__).resolve().parent.parent


def load_module(relpath):
    """Import a file of the repository that is not on the path, e.g. a script."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_python(*args):
    """Run ``python args`` in a subprocess that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture(autouse=True)
def _default_tolerances_stay_active():
    """A test that leaves a tolerance override active fails at its teardown."""
    yield
    assert pu.tolerances() == pu.Tolerances()


@pytest.fixture
def certifications(monkeypatch):
    """The operators whose paraunitarity residual is computed, in order.

    Every certification, fresh ``PpuElement`` or cone test of a bare
    ``LaurentOp``, computes one.
    """
    seen = []
    residual = laurent.paraunitarity_residual

    def counted(op):
        seen.append(op)
        return residual(op)

    monkeypatch.setattr(laurent, "paraunitarity_residual", counted)
    return seen


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


def each_algebra_kind():
    """One small algebra of each kind above, by name."""
    return {
        "scalar:2": scalar_algebra(2),
        "diag:3": diag_algebra(3),
        "full:2": full_algebra(2, seed=3),
        "blocks:1+2": block_algebra([1, 2], seed=3),
        "doubled:2": doubled_algebra(2, seed=3),
    }


def certified_samples(a):
    """Group elements of ``a`` inside and outside the positive cone.

    The last has span 12 over two terms, so its residual takes the
    Cauchy product rather than the unit circle.
    """
    proj = pu.random_projection_in(a, 5).subspace.projector()
    wide = pu.PpuElement(LaurentOp(a.dim, {11: proj, 0: np.eye(a.dim) - proj}), a)
    return [
        pu.random_ppu(a, k, shift, seed)
        for k, shift, seed in ((0, 0, 1), (1, 0, 2), (3, 1, 3), (4, -1, 4))
    ] + [wide]


def contains(a, x):
    """Is ``x`` in the algebra ``a``, within ``eq``?"""
    return a.membership_residual(x) <= tolerances().eq


def columns_outside(cols, s):
    """How far the columns of ``cols`` stick out of ``s`` (Frobenius norm)."""
    if cols.shape[0] != s.ambient_dim:
        raise InputError("ambient dimension mismatch")
    return frob(cols - s.frame @ (s.frame.conj().T @ cols))


def contained_in(s, other):
    """Inclusion test via the residual ||(I - pi_other) frame||_F."""
    return columns_outside(s.frame, other) <= tolerances().eq


def closure_residual(a):
    """Worst membership residual over the basis's adjoints and pairwise products."""
    basis = a.basis
    worst = a.membership_residual(basis.conj().swapaxes(1, 2))
    for x in basis:
        worst = max(worst, a.membership_residual(x @ basis))
    return worst


# Reference window oracles.  The invariant subspace an element generates
# from the negative-exponent tail space, truncated to the exponents (m, n],
# is an ordinary subspace of C^(n w), w = n - m; the divisibility order is
# its inclusion and the element is recovered by peeling it slot by slot.
# The package does not compute windows; these build them with explicit
# loops and (n w) x (n w) kron operators as an independent check.


@dataclasses.dataclass(frozen=True)
class Window:
    """Slot s in 1..width of ``space`` holds the coefficient of t^(offset+s)."""

    algebra: pu.StarAlgebra
    offset: int
    width: int
    space: pu.Subspace


def loop_window_columns(el, m, n):
    op, amb, w = el.op, el.op.dim, n - m
    js = range(m - op.hi, 1)
    cols = np.zeros((amb * w, amb * len(js)), dtype=complex)
    for idx, j in enumerate(js):
        for s in range(1, w + 1):
            c = op.coeffs.get(m + s - j)
            if c is not None:
                cols[(s - 1) * amb : s * amb, idx * amb : (idx + 1) * amb] = c
    return cols


def oracle_window(el, m, n):
    """Window of the element over the exponents (m, n], which must hold its support."""
    if m > el.lo or n < el.hi:
        raise InputError("window too small for the element")
    return Window(el.algebra, m, n - m, pu.orthonormal_basis(loop_window_columns(el, m, n)))


def kron_stability_residual(window):
    """Worst violation of stability under the downshift and the commutant."""
    n, w = window.algebra.dim, window.width
    frame = window.space.frame
    if window.space.dim == 0 or w == 0:
        return 0.0
    ops = [np.kron(np.eye(w, k=1), np.eye(n))]
    ops += [np.kron(np.eye(w), c) for c in window.algebra.commutant.basis]
    return max(
        columns_outside(op @ frame, window.space) / max(1.0, frob(op @ frame))
        for op in ops
    )


def kron_peel(window):
    """The element with this window: peel slot-1 fibers until the space is empty."""
    a, amb, w = window.algebra, window.algebra.dim, window.width
    space = window.space
    op = LaurentOp.t_power(amb, window.offset)
    for _ in range(w):
        if space.dim == 0:
            break
        embed = np.zeros((amb * w, amb), dtype=complex)
        embed[:amb] = np.eye(amb)
        m1 = kernel(embed - space.frame @ (space.frame.conj().T @ embed))
        op = op * pu.p_of(pu.certify_member(a, m1)).op
        proj = m1.projector()
        block = np.kron(np.eye(w, k=1), proj) + np.kron(np.eye(w), np.eye(amb) - proj)
        space = pu.orthonormal_basis(block @ space.frame)
    assert space.dim == 0, "oracle peel did not exhaust the window"
    return op


def oracle_lattice_op(x, y, combine):
    """Meet (``meet_subspace``) or join (``join_subspace``) through windows."""
    m, n = min(x.lo, y.lo), max(x.hi, y.hi)
    wx, wy = oracle_window(x, m, n), oracle_window(y, m, n)
    return kron_peel(Window(x.algebra, m, n - m, combine(wx.space, wy.space)))


# Reference Laurent arithmetic.  ``LaurentOp`` holds one coefficient stack,
# trims it in one pass, multiplies with one stacked product per term of the
# left factor and divides by an elementary factor with one batched
# product; ``ppu._peel`` takes each common head as one kernel.  These are the
# code they replaced: an exponent -> matrix dict validated and measured one
# coefficient at a time, the pair-loop product with explicit elementary
# factors, the pair loop over two stacks, and the common head as the meet of
# the heads, three SVDs.

_SQUARES_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _reference_scaled_frob(c):
    moduli = np.abs(c)
    peak = moduli.max(initial=0.0)
    return peak * frob(moduli / peak) if peak > 0.0 else 0.0


class ReferenceLaurent:
    """Exponent -> coefficient dict, validated and trimmed per coefficient."""

    def __init__(self, dim, coeffs):
        self.dim = int(dim)
        cleaned, norms = {}, {}
        for e, c in coeffs.items():
            c = as_matrix(c)
            if c.shape != (self.dim, self.dim):
                raise InputError("coefficient of wrong shape")
            e = int(e)
            if e in cleaned:
                raise InputError("duplicate exponent")
            cleaned[e] = c
            norms[e] = frob(c)
        peak = max(norms.values(), default=0.0)
        if not math.isfinite(peak):
            raise InputError("coefficient norm overflows")
        threshold = tolerances().trim * peak
        if threshold < _SQUARES_UNDERFLOW:
            norms = {e: _reference_scaled_frob(c) for e, c in cleaned.items()}
            threshold = tolerances().trim * max(norms.values(), default=0.0)
        self.coeffs = {e: cleaned[e] for e in sorted(cleaned) if norms[e] > threshold}

    @classmethod
    def of(cls, op):
        return cls(op.dim, dict(op.coeffs))

    @property
    def hi(self):
        return max(self.coeffs, default=0)

    def coeff(self, e):
        return self.coeffs.get(e, np.zeros((self.dim, self.dim), dtype=complex))

    def __mul__(self, other):
        acc = {}
        for i, x in self.coeffs.items():
            for j, y in other.coeffs.items():
                prod = x @ y
                acc[i + j] = acc[i + j] + prod if i + j in acc else prod
        return ReferenceLaurent(self.dim, acc)

    def star(self):
        return ReferenceLaurent(self.dim, {-e: c.conj().T for e, c in self.coeffs.items()})

    def shifted(self, k):
        return ReferenceLaurent(self.dim, {e + k: c for e, c in self.coeffs.items()})

    def to_op(self):
        return LaurentOp(self.dim, self.coeffs)


def reference_convolve(a, b):
    """The pair-loop Cauchy product of two ``LaurentOp``: zeros, then one
    in-place add of ``x @ y`` per term pair, in ascending exponent of ``a``
    then ``b``.  Returns the sorted exponents and the untrimmed stack."""
    exponents = tuple(sorted({i + j for i in a.exponents for j in b.exponents}))
    out = np.zeros((len(exponents), a.dim, a.dim), dtype=np.complex128)
    rows = dict(zip(exponents, out))  # views into out
    for i, x in zip(a.exponents, a.stack):
        for j, y in zip(b.exponents, b.stack):
            rows[i + j] += x @ y
    return exponents, out


def reference_elementary(s, power=1):
    proj = s.projector()
    return ReferenceLaurent(s.ambient_dim, {power: proj, 0: np.eye(s.ambient_dim) - proj})


def reference_peel(ops, right=False):
    """Divisors of the greedy gcd by heads (``right``: tails), each the meet of the operands' own."""
    peeled = []
    for _ in range(ops[0].dim * min(op.hi for op in ops)):
        if min(op.hi for op in ops) <= 0:
            break
        heads = [kernel(op.coeff(0) if right else op.coeff(0).conj().T) for op in ops]
        s = functools.reduce(meet_subspace, heads)
        if s.dim == 0:
            break
        inv = reference_elementary(s, -1)
        ops = [op * inv if right else inv * op for op in ops]
        peeled.append(s)
    return peeled


def reference_meet(a, b):
    m = min(a.lo, b.lo)
    ops = [ReferenceLaurent.of(x.op).shifted(-m) for x in (a, b)]
    out = ReferenceLaurent(a.op.dim, {m: np.eye(a.op.dim)})
    for s in reference_peel(ops):
        out = out * reference_elementary(s)
    return out.to_op()


def reference_join(a, b):
    k = max(a.hi, b.hi)
    ops = [ReferenceLaurent.of(x.op).star().shifted(k) for x in (a, b)]
    out = ReferenceLaurent(a.op.dim, {k: np.eye(a.op.dim)})
    for s in reference_peel(ops, right=True):
        out = out * reference_elementary(s, -1)
    return out.to_op()


def reference_factors(el):
    return reference_peel([ReferenceLaurent.of(el.op)])


def reference_random_ppu(algebra, k, shift, seed):
    out = ReferenceLaurent(algebra.dim, {0: np.eye(algebra.dim)})
    for i in range(k):
        member = pu.random_projection_in(algebra, pu.derive_seed(seed, i))
        out = out * reference_elementary(member.subspace)
    return out.shifted(-shift).to_op()


# Reference emitter.  ``jsonio.canonical_dumps`` formats a matrix's data in
# one ``%`` call; this is the recursive emitter it replaced, one call a
# value, against which its bytes are checked.


def oracle_canonical_dumps(obj) -> str:
    parts: list[str] = []
    _oracle_emit(obj, parts)
    return "".join(parts)


def _oracle_emit(obj, parts: list[str]) -> None:
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise InputError("non-finite float in JSON payload")
        parts.append(format(v, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InputError("JSON object keys must be strings")
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _oracle_emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _oracle_emit(item, parts)
        parts.append("]")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
