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
import math

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Validation or numerical-consistency failure (CLI exit code 1)."""


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


def frob(m) -> float:
    return float(np.linalg.norm(m))


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
    """Closed subspace of C^n held as a frame with orthonormal columns."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        f = as_matrix(frame)
        gram = f.conj().T @ f
        if mat_residual(gram, np.eye(f.shape[1])) > tolerances().eq:
            raise InputError("frame columns are not orthonormal")
        self.frame = f

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def zero_subspace(n: int) -> Subspace:
    return Subspace(np.zeros((n, 0), dtype=np.complex128))


def full_subspace(n: int) -> Subspace:
    return Subspace(np.eye(n, dtype=np.complex128))


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
    n = a.ambient_dim
    eye = np.eye(n, dtype=np.complex128)
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
