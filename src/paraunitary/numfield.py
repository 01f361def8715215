"""Tolerance-governed dense complex linear algebra and subspace calculus.

Every rank decision in the package goes through singular values with a
single relative cutoff, and every equality is relative to
``max(1, operand norms)``.  Subspaces are stored as orthonormal frames;
the zero subspace is a frame with zero columns, never ``None``.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import math
import operator
from typing import NoReturn

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Validation or numerical-consistency failure (CLI exit code 1)."""


def _immutable(self, *args) -> NoReturn:
    raise AttributeError(f"{type(self).__name__} is immutable")


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by all modules.

    rank: relative singular-value cutoff for rank decisions.
    eq:   equality tolerance, relative to max(1, operand norms).
    trim: relative threshold below which Laurent coefficients are dropped.
    """

    rank: float = 1e-9
    eq: float = 1e-8
    trim: float = 1e-10

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0.0 for v in (self.rank, self.eq, self.trim)):
            raise InputError("tolerances must be finite and strictly positive")
        if self.rank > 1e-6:
            raise InputError("rank cutoff must not exceed 1e-6")
        if self.eq > 1e-4:
            raise InputError("equality tolerance must not exceed 1e-4")
        if self.trim > 1e-6:
            raise InputError("trim threshold must not exceed 1e-6")


_ACTIVE = contextvars.ContextVar("tolerances", default=Tolerances())


def tolerances() -> Tolerances:
    """The tolerance configuration active in this thread or task."""
    return _ACTIVE.get()


@contextlib.contextmanager
def tolerance_scope(**overrides):
    """Override tolerance fields for a block, in the current thread or task only."""
    token = _ACTIVE.set(dataclasses.replace(_ACTIVE.get(), **overrides))
    try:
        yield _ACTIVE.get()
    finally:
        _ACTIVE.reset(token)


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array; reject NaN/Inf."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InputError("matrix has non-finite entries")
    return a


def as_integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as a Python int if it is an integer of any kind or size, and
    at least ``minimum`` if one is given; anything else, a float or a string
    too, is an ``InputError`` naming ``what``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {type(value).__name__}") from None
    if minimum is not None and value < minimum:
        raise InputError(f"{what} must be at least {minimum}, got {value}")
    return value


@functools.lru_cache(maxsize=64)
def identity(n: int) -> np.ndarray:
    """The real ``n x n`` identity, read-only, built once per ``n``.

    ``identity(n) - p`` is bitwise ``np.eye(n) - p`` for a complex ``p``:
    the real identity is widened to complex before the subtraction.
    """
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def frob(m, axis=None):
    """Frobenius norm, bit for bit ``np.linalg.norm(m, axis=axis)`` without its dispatch.

    Every norm in the package is this kernel.  Without ``axis``, a float:
    the entries in memory order, real and imaginary parts summed as two
    real dots.  With ``axis``, the array of norms over those axes.
    """
    if axis is not None:
        return np.sqrt(np.add.reduce((m.conj() * m).real, axis=axis))
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(float(re.dot(re)) + float(im.dot(im)))
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(float(x.dot(x)))


def mat_residual(a, b) -> float:
    """Relative distance ||a-b||_F / max(1, ||a||_F, ||b||_F)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch {a.shape} vs {b.shape}")
    return frob(a - b) / max(1.0, frob(a), frob(b))


def _rank_from_singular_values(s: np.ndarray, scale: float | None = None) -> int:
    # cutoff relative to ``scale``, by default the largest singular value;
    # an all-zero spectrum gets rank 0 (absolute floor).
    if s.size == 0 or s[0] <= tolerances().rank:
        return 0
    cutoff = tolerances().rank * (s[0] if scale is None else scale)
    return int(np.count_nonzero(s > cutoff))


class Subspace:
    """Closed subspace of C^n held as a frame with orthonormal columns.

    The frame is a read-only copy of the caller's and a subspace is
    immutable, so its projector and its elementary pair are each computed
    once, on first use, and kept.
    """

    __slots__ = ("frame", "_projector", "_pair")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, frame):
        f = as_matrix(np.array(frame, dtype=np.complex128))
        gram = f.conj().T @ f
        # mat_residual(gram, identity(r)), whose ||identity(r)||_F is exactly sqrt(r)
        r = f.shape[1]
        residual = frob(gram - identity(r)) / max(1.0, frob(gram), math.sqrt(r))
        if not residual <= tolerances().eq:  # NaN fails too
            raise InputError("frame columns are not orthonormal")
        f.flags.writeable = False
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "_projector", None)
        object.__setattr__(self, "_pair", None)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        """pi = F F^H for the frame F, read-only."""
        if self._projector is None:
            proj = self.frame @ self.frame.conj().T
            proj.flags.writeable = False
            object.__setattr__(self, "_projector", proj)
        return self._projector

    def elementary_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only stack ``(1 - pi, pi)`` and its two Frobenius norms.

        They are the coefficients of ``t^0`` and ``t^k`` in ``p^k = t^k pi +
        (1 - pi)``, untrimmed: each use trims them against the active
        ``trim``.
        """
        if self._pair is None:
            proj = self.projector()
            pair = np.stack([identity(self.ambient_dim) - proj, proj])
            norms = frob(pair, axis=(1, 2))
            pair.flags.writeable = norms.flags.writeable = False
            object.__setattr__(self, "_pair", (pair, norms))
        return self._pair

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def zero_subspace(n: int) -> Subspace:
    return Subspace(np.zeros((as_integer(n, "dimension", 0), 0), dtype=np.complex128))


def full_subspace(n: int) -> Subspace:
    return Subspace(np.eye(as_integer(n, "dimension", 0), dtype=np.complex128))


def orthonormal_basis(cols, scale: float | None = None) -> Subspace:
    """Orthonormal frame for the numerical column space of ``cols``.

    A direction is kept when its singular value exceeds the rank cutoff
    times ``scale``.  By default ``scale`` is the largest singular value,
    so the rank is relative to ``cols`` itself; a caller whose columns are
    residuals of larger vectors passes their scale instead, so that
    rounding noise left by the subtraction is not kept as a direction.
    """
    c = as_matrix(cols)
    if c.shape[1] == 0:
        return zero_subspace(c.shape[0])
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    return Subspace(u[:, : _rank_from_singular_values(s, scale)])


def kernel(m) -> Subspace:
    """Orthonormal basis of {x : m x = 0} from the small singular vectors.

    Only the right singular vectors are used.  A tall or square input
    takes the reduced SVD, whose ``vh`` is already n x n; only a wide
    input needs the full ``vh`` to reach its null directions.  So a tall
    input costs O(rows * n) memory for the left factor, not O(rows^2).
    """
    a = as_matrix(m)
    rows, n = a.shape
    if rows == 0:
        return full_subspace(n)
    _, s, vh = np.linalg.svd(a, full_matrices=rows < n)
    r = _rank_from_singular_values(s)
    return Subspace(vh[r:].conj().T)


def meet_subspace(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, as the kernel of x -> ((I - pi_a)x, (I - pi_b)x)."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch")
    eye = identity(a.ambient_dim)
    stacked = np.vstack([eye - a.projector(), eye - b.projector()])
    return kernel(stacked)


def join_subspace(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch")
    return orthonormal_basis(np.hstack([a.frame, b.frame]))


def ortho_complement(s: Subspace) -> Subspace:
    return kernel(s.frame.conj().T)


def subspace_residual(a: Subspace, b: Subspace) -> float:
    """Relative projector distance between two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch")
    return mat_residual(a.projector(), b.projector())
