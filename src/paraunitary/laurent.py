"""Finite Laurent series with matrix coefficients and the paraunitary predicates.

The involution reverses exponents and adjoints coefficients; evaluating
at a unit-circle point ``z`` substitutes ``t = z``.  An element is
paraunitary when both products with its involution give the constant
identity, and pure when its coefficients additionally sum to the
identity.
"""

from __future__ import annotations

import math

import numpy as np

from .numfield import InputError, NumericalError, as_matrix, frob, tolerances
from .star_algebra import StarAlgebra


# below this, frob's sum of squares loses precision or underflows to 0
_SQUARES_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _scaled_frob(c: np.ndarray) -> float:
    """Frobenius norm, taken of ``|c|`` divided by its largest entry."""
    moduli = np.abs(c)
    peak = moduli.max(initial=0.0)
    return peak * frob(moduli / peak) if peak > 0.0 else 0.0


class LaurentOp:
    """Finitely supported map exponent -> square matrix coefficient.

    Coefficients with Frobenius norm at or below ``trim`` times the
    largest coefficient norm are dropped at construction, so the degree
    bounds ``lo``/``hi`` are always recomputed from surviving terms.
    The zero element keeps ``lo == hi == 0`` by convention.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs):
        self.dim = int(dim)
        cleaned = {}
        norms = {}
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
            # a norm this small may have lost its squares to underflow
            norms = {e: _scaled_frob(c) for e, c in cleaned.items()}
            threshold = tolerances().trim * max(norms.values(), default=0.0)
        self.coeffs = {
            e: cleaned[e] for e in sorted(cleaned) if norms[e] > threshold
        }

    @classmethod
    def zero(cls, dim: int) -> "LaurentOp":
        return cls(dim, {})

    @classmethod
    def identity(cls, dim: int) -> "LaurentOp":
        return cls(dim, {0: np.eye(dim)})

    @classmethod
    def t_power(cls, dim: int, k: int) -> "LaurentOp":
        return cls(dim, {int(k): np.eye(dim)})

    @property
    def lo(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    @property
    def hi(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, e: int) -> np.ndarray:
        c = self.coeffs.get(int(e))
        return c.copy() if c is not None else np.zeros((self.dim, self.dim), dtype=np.complex128)

    def _binary_check(self, other: "LaurentOp") -> None:
        if not isinstance(other, LaurentOp):
            raise InputError("expected a LaurentOp operand")
        if self.dim != other.dim:
            raise InputError("ambient dimension mismatch")

    def __add__(self, other: "LaurentOp") -> "LaurentOp":
        self._binary_check(other)
        acc = {e: c.copy() for e, c in self.coeffs.items()}
        for e, c in other.coeffs.items():
            acc[e] = acc[e] + c if e in acc else c
        return LaurentOp(self.dim, acc)

    def __neg__(self) -> "LaurentOp":
        return LaurentOp(self.dim, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentOp") -> "LaurentOp":
        return self + (-other)

    def __mul__(self, other: "LaurentOp") -> "LaurentOp":
        """Cauchy convolution of the coefficient maps."""
        self._binary_check(other)
        return LaurentOp(self.dim, _convolve(self.coeffs, other.coeffs))

    def shifted(self, k: int) -> "LaurentOp":
        return LaurentOp(self.dim, {e + int(k): c for e, c in self.coeffs.items()})

    def star(self) -> "LaurentOp":
        return LaurentOp(self.dim, {-e: c.conj().T for e, c in self.coeffs.items()})

    def eval_at(self, z: complex) -> np.ndarray:
        z = complex(z)
        if not abs(abs(z) - 1.0) <= tolerances().eq:  # NaN fails too
            raise InputError("evaluation point must lie on the unit circle")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for e, c in self.coeffs.items():
            out += (z ** e) * c
        return out

    def norm(self) -> float:
        """l2 norm over coefficients: sqrt of the summed squared Frobenius norms."""
        return math.sqrt(sum(frob(c) ** 2 for c in self.coeffs.values()))

    def distance(self, other: "LaurentOp") -> float:
        """Relative coefficientwise distance, scaled by max(1, norms)."""
        return (self - other).norm() / max(1.0, self.norm(), other.norm())

    def close_to(self, other: "LaurentOp") -> bool:
        return self.distance(other) <= tolerances().eq

    def __repr__(self):
        return f"LaurentOp(dim={self.dim}, support={list(self.support())})"


def _convolve(a: dict, b: dict) -> dict:
    """Untrimmed Cauchy product of two coefficient maps, keyed by exponent."""
    acc: dict[int, np.ndarray] = {}
    for i, x in a.items():
        for j, y in b.items():
            e = i + j
            prod = x @ y
            acc[e] = acc[e] + prod if e in acc else prod
    return acc


def _product_residual(op: LaurentOp) -> float:
    """||op* op - 1|| over the coefficients of the untrimmed product."""
    adjoint = {-e: c.conj().T for e, c in op.coeffs.items()}
    acc = _convolve(adjoint, op.coeffs)
    one = np.eye(op.dim)
    total = sum(frob(c - one if e == 0 else c) ** 2 for e, c in acc.items())
    return math.sqrt(total if 0 in acc else total + op.dim)


def _circle_residual(op: LaurentOp, points: int) -> float:
    """Root mean square of ||F(z)^H F(z) - 1||_F over the points-th roots of unity."""
    # exponents relative to lo fit in int64 even when lo does not
    offsets = [e - op.lo for e in op.coeffs]
    # reducing the phase mod points keeps every angle in [0, 2 pi)
    turns = np.outer(np.arange(points), offsets) % points
    dft = np.exp((2j * np.pi / points) * turns)
    stack = np.stack(list(op.coeffs.values())).reshape(len(offsets), -1)
    values = (dft @ stack).reshape(points, op.dim, op.dim)
    gram = values.conj().swapaxes(1, 2) @ values
    return frob(gram - np.eye(op.dim)) / math.sqrt(points)


def paraunitarity_residual(op: LaurentOp) -> float:
    """||op* op - 1|| / max(1, ||op||^2), untrimmed.

    This is also ||op op* - 1|| / max(1, ||op||^2): for a square matrix
    A, A^H A and A A^H have the same eigenvalues, so ||A^H A - 1||_F =
    ||A A^H - 1||_F, at every point z of the unit circle and hence, by
    Parseval's identity below, over the coefficients.  So one side
    certifies both.

    op* op is a Laurent polynomial with exponents in [-(span-1), span-1],
    span = hi - lo + 1, so 2 span - 1 coefficients.  Its values at the
    m = 2 span - 1 roots of unity determine them (the length-m DFT is
    invertible), and by Parseval's identity the l2 norm of the
    coefficients of op* op - 1 is the root mean square over those points
    of ||F(z)^H F(z) - 1||_F, where F(z) is op evaluated at z (the factor
    z^lo cancels).  So the residual costs one product of the m x t DFT
    matrix with the t stacked coefficients and m products of n x n
    matrices, instead of the t^2 products of the Cauchy product.

    Span guard: the arrays grow with m, that is with the span, not only
    with the number of terms t (the DFT matrix holds m t entries, the
    values m n^2), so the unit circle is used only while m <= t^2.  A
    sparse wide-span operator such as P t^N + (1 - P) takes the Cauchy
    product instead, whose size follows the distinct exponent sums.

    Neither path trims: the residual is the exact l2 norm of the
    coefficients of op* op - 1, including those below the ``trim``
    threshold that ``LaurentOp`` construction would drop.
    """
    points = 2 * (op.hi - op.lo) + 1
    if points <= len(op.coeffs) ** 2:
        residual = _circle_residual(op, points)
    else:
        residual = _product_residual(op)
    return residual / max(1.0, op.norm() ** 2)


def is_paraunitary(op: LaurentOp) -> bool:
    return paraunitarity_residual(op) <= tolerances().eq


def purity_residual(op: LaurentOp) -> float:
    total = np.zeros((op.dim, op.dim), dtype=np.complex128)
    for c in op.coeffs.values():
        total += c
    return frob(total - np.eye(op.dim)) / max(1.0, frob(total))


def is_pure(op: LaurentOp) -> bool:
    return is_paraunitary(op) and purity_residual(op) <= tolerances().eq


def in_positive_cone(op: LaurentOp) -> bool:
    """Pure paraunitary with only non-negative exponents after trimming."""
    return op.lo >= 0 and is_pure(op)


class PpuElement:
    """A member of the pure paraunitary group of a fixed algebra.

    Construction validates eagerly: every coefficient must lie in the
    algebra, the element must be paraunitary, and its coefficients must
    sum to the identity.  The certifying residuals are kept for
    diagnostics.
    """

    __slots__ = ("op", "algebra", "residuals")

    def __init__(self, op: LaurentOp, algebra: StarAlgebra):
        if not isinstance(op, LaurentOp):
            raise InputError("expected a LaurentOp")
        if op.dim != algebra.dim:
            raise InputError("element and algebra dimensions differ")
        membership = max(
            (algebra.membership_residual(c) for c in op.coeffs.values()),
            default=0.0,
        )
        residuals = {
            "membership": membership,
            "paraunitarity": paraunitarity_residual(op),
            "purity": purity_residual(op),
        }
        eq = tolerances().eq
        for name, value in residuals.items():
            if value > eq:
                raise NumericalError(f"{name} residual {value:.3e} exceeds tolerance")
        self.op = op
        self.algebra = algebra
        self.residuals = residuals

    @property
    def lo(self) -> int:
        return self.op.lo

    @property
    def hi(self) -> int:
        return self.op.hi

    def __mul__(self, other: "PpuElement") -> "PpuElement":
        self.algebra.require_same(other.algebra)
        return PpuElement(self.op * other.op, self.algebra)

    def inverse(self) -> "PpuElement":
        return PpuElement(self.op.star(), self.algebra)

    def close_to(self, other: "PpuElement") -> bool:
        return self.op.close_to(other.op)

    def __repr__(self):
        return f"PpuElement(dim={self.op.dim}, support={list(self.op.support())})"


def ppu_identity(algebra: StarAlgebra) -> PpuElement:
    return PpuElement(LaurentOp.identity(algebra.dim), algebra)


def ppu_t_power(algebra: StarAlgebra, k: int = 1) -> PpuElement:
    return PpuElement(LaurentOp.t_power(algebra.dim, k), algebra)


def twist_alpha(el: PpuElement, z: complex) -> LaurentOp:
    """Coefficientwise twist t^i phi_i -> t^i z^-i phi_i.

    Carries the pure group isomorphically onto the kernel of the
    specialization at z; the result is paraunitary and evaluates to the
    identity at z, but is generally no longer pure at 1, hence the plain
    LaurentOp return type.
    """
    z = complex(z)
    if not abs(abs(z) - 1.0) <= tolerances().eq:  # NaN fails too
        raise InputError("twist point must lie on the unit circle")
    return LaurentOp(el.op.dim, {e: (z ** (-e)) * c for e, c in el.op.coeffs.items()})
