"""Finite Laurent series with matrix coefficients and the paraunitary predicates.

The involution reverses exponents and adjoints coefficients; evaluating
at a unit-circle point ``z`` substitutes ``t = z``.  An element is
paraunitary when both products with its involution give the constant
identity, and pure when its coefficients additionally sum to the
identity.
"""

from __future__ import annotations

import bisect
import cmath
import math
import types
from typing import NoReturn

import numpy as np

from .numfield import InputError, NumericalError, as_matrix, frob, tolerances
from .star_algebra import StarAlgebra


# below this, a sum of squares loses precision or underflows to 0
_SQUARES_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a ``(t, n, n)`` stack."""
    return np.linalg.norm(stack, axis=(1, 2))


def _scaled_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms, each taken of ``|c|`` divided by its largest entry."""
    moduli = np.abs(stack)
    peaks = moduli.max(axis=(1, 2), initial=0.0)
    return peaks * _norms(moduli / np.where(peaks > 0.0, peaks, 1.0)[:, None, None])


def _trim(exponents: tuple, stack: np.ndarray):
    """Drop the coefficients with norm at or below ``trim`` times the largest.

    Returns the surviving exponents, their stack and their norms.
    """
    norms = _norms(stack)
    peak = norms.max(initial=0.0)
    if not math.isfinite(peak):
        raise InputError("coefficient norm overflows")
    threshold = tolerances().trim * peak
    if threshold < _SQUARES_UNDERFLOW:
        # a norm this small may have lost its squares to underflow
        norms = _scaled_norms(stack)
        threshold = tolerances().trim * norms.max(initial=0.0)
    keep = norms > threshold
    if keep.all():
        return exponents, stack, norms
    kept = tuple([e for e, k in zip(exponents, keep.tolist()) if k])
    return kept, stack[keep], norms[keep]


def _reject(dim: int, coeffs) -> NoReturn:
    """Raise the error of the first malformed coefficient, in the order given.

    Only a dict that failed the stacked checks comes here, so the loop
    runs only to name the coefficient at fault.
    """
    seen = set()
    for e, c in coeffs.items():
        if as_matrix(c).shape != (dim, dim):
            raise InputError("coefficient of wrong shape")
        if int(e) in seen:
            raise InputError("duplicate exponent")
        seen.add(int(e))
    raise InputError("malformed coefficients")


def _immutable(self, *args) -> NoReturn:
    raise AttributeError(f"{type(self).__name__} is immutable")


class LaurentOp:
    """Finitely supported map exponent -> square matrix coefficient.

    Held as the sorted exponents (Python integers of any size), the
    read-only ``(t, n, n)`` stack of their coefficients and the ``t``
    coefficient norms.  Building an element from a dict, a sum or a
    product drops the coefficients with Frobenius norm at or below
    ``trim`` times the largest, so the degree bounds ``lo``/``hi`` always
    come from surviving terms.  ``star``, ``shifted`` and negation keep
    every norm, so they reuse the stack's norms and trim nothing.  The
    zero element keeps ``lo == hi == 0`` by convention.  An element is
    immutable: its attributes cannot be reassigned and its arrays are
    read-only.
    """

    __slots__ = ("dim", "exponents", "stack", "norms")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, dim: int, coeffs):
        dim = int(dim)
        try:
            exponents = [int(e) for e in coeffs]
            stack = np.array(list(coeffs.values()), dtype=np.complex128)
        except (TypeError, ValueError):
            _reject(dim, coeffs)
        if not exponents:
            stack = stack.reshape(0, dim, dim)
        if (
            stack.shape != (len(exponents), dim, dim)
            or len(set(exponents)) < len(exponents)
            or not np.isfinite(stack).all()
        ):
            _reject(dim, coeffs)
        order = sorted(range(len(exponents)), key=exponents.__getitem__)
        self._set(dim, *_trim(tuple([exponents[i] for i in order]), stack[order]))

    def _set(self, dim: int, exponents: tuple, stack: np.ndarray, norms: np.ndarray) -> None:
        stack.flags.writeable = False
        norms.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "norms", norms)

    @classmethod
    def _make(cls, dim: int, exponents: tuple, stack: np.ndarray, norms=None) -> "LaurentOp":
        """From sorted distinct exponents and their stack; without ``norms``, trimmed."""
        op = object.__new__(cls)
        if norms is None:
            op._set(dim, *_trim(exponents, stack))
        else:
            op._set(dim, exponents, stack, norms)
        return op

    @classmethod
    def t_power(cls, dim: int, k: int) -> "LaurentOp":
        return cls(dim, {int(k): np.eye(dim)})

    @property
    def coeffs(self) -> types.MappingProxyType:
        """Read-only map exponent -> coefficient, in exponent order."""
        return types.MappingProxyType(dict(zip(self.exponents, self.stack)))

    @property
    def lo(self) -> int:
        return self.exponents[0] if self.exponents else 0

    @property
    def hi(self) -> int:
        return self.exponents[-1] if self.exponents else 0

    def coeff(self, e: int) -> np.ndarray:
        e = int(e)
        i = bisect.bisect_left(self.exponents, e)
        if i < len(self.exponents) and self.exponents[i] == e:
            return self.stack[i].copy()
        return np.zeros((self.dim, self.dim), dtype=np.complex128)

    def _binary_check(self, other: "LaurentOp") -> None:
        if not isinstance(other, LaurentOp):
            raise InputError("expected a LaurentOp operand")
        if self.dim != other.dim:
            raise InputError("ambient dimension mismatch")

    def __add__(self, other: "LaurentOp") -> "LaurentOp":
        self._binary_check(other)
        return _summed(self.dim, (self.exponents, self.stack), (other.exponents, other.stack))

    def __neg__(self) -> "LaurentOp":
        return LaurentOp._make(self.dim, self.exponents, -self.stack, self.norms)

    def __sub__(self, other: "LaurentOp") -> "LaurentOp":
        return self + (-other)

    def __mul__(self, other: "LaurentOp") -> "LaurentOp":
        """Cauchy convolution of the coefficient maps."""
        self._binary_check(other)
        return LaurentOp._make(self.dim, *_convolve(self, other))

    def times_elementary(self, proj: np.ndarray, power: int, on_left: bool = False) -> "LaurentOp":
        """self p^power, or with ``on_left`` p^power self, p = t proj + (1 - proj).

        ``proj`` must be an orthogonal projection, so p^power = t^power proj
        + (1 - proj) for every integer power.  Its two coefficients are
        trimmed as a dict-built p's are, so a projector within rounding of
        1 leaves no 1 - proj term, and each multiplies the whole stack in
        one batched product.
        """
        terms = np.stack([np.eye(self.dim) - proj, proj])
        shifts, terms, _ = _trim((0, int(power)), terms)
        return _summed(
            self.dim,
            *[
                (_shift(self.exponents, k), c @ self.stack if on_left else self.stack @ c)
                for k, c in zip(shifts, terms)
            ],
        )

    def shifted(self, k: int) -> "LaurentOp":
        return LaurentOp._make(self.dim, _shift(self.exponents, k), self.stack, self.norms)

    def star(self) -> "LaurentOp":
        return LaurentOp._make(
            self.dim,
            tuple([-e for e in reversed(self.exponents)]),
            self.stack[::-1].conj().swapaxes(1, 2),
            self.norms[::-1],
        )

    def eval_at(self, z: complex) -> np.ndarray:
        return np.tensordot(_powers(z, self.exponents), self.stack, axes=1)

    def norm(self) -> float:
        """l2 norm over coefficients, from the stored norms without squaring them."""
        return math.hypot(*self.norms.tolist())

    def distance(self, other: "LaurentOp") -> float:
        """Relative coefficientwise distance, scaled by max(1, norms)."""
        return (self - other).norm() / max(1.0, self.norm(), other.norm())

    def close_to(self, other: "LaurentOp") -> bool:
        return self.distance(other) <= tolerances().eq

    def __repr__(self):
        return f"LaurentOp(dim={self.dim}, support={list(self.exponents)})"


def _shift(exponents: tuple, k: int) -> tuple:
    """The exponents plus ``k``.

    Exponent tuples are built from lists: a tuple filled from an iterator
    of unknown length is resized as it grows, and on the peel's path that
    made the peak resident memory creep up with every call.
    """
    k = int(k)
    return tuple([e + k for e in exponents])


def _powers(z: complex, exponents) -> np.ndarray:
    """``z ** e`` for each exponent, exactly 1 at ``z = 1``.

    ``z`` must lie on the unit circle, up to ``eq``.  Its phase is known
    only to about ulp(arg z), and its modulus is off 1 by up to |log |z||;
    ``z ** e`` multiplies both errors by ``|e|``, so beyond ``|e| = eq /
    max(ulp(arg z), |log |z||)`` the value is rounding noise, and such an
    exponent is a ``NumericalError``.  Within that horizon ``|z ** e|``
    stays within about ``eq`` of 1, so no power overflows.
    """
    z = complex(z)
    if not abs(abs(z) - 1.0) <= tolerances().eq:  # NaN fails too
        raise InputError("evaluation point must lie on the unit circle")
    if z == 1:
        return np.ones(len(exponents), dtype=np.complex128)
    error = max(math.ulp(abs(cmath.phase(z))), abs(math.log(abs(z))))
    horizon = tolerances().eq / error
    if any(abs(e) > horizon for e in exponents):
        raise NumericalError(f"z ** e is rounding noise beyond |e| = {horizon:.3g}")
    return np.array([z ** e for e in exponents], dtype=np.complex128)


def _scattered(dim: int, parts) -> tuple[tuple, np.ndarray]:
    """Untrimmed sum of ``(exponents, stack)`` parts, each with distinct
    exponents, added in the order the parts come."""
    exponents = tuple(sorted({e for exps, _ in parts for e in exps}))
    row = {e: i for i, e in enumerate(exponents)}
    out = np.zeros((len(exponents), dim, dim), dtype=np.complex128)
    for exps, stack in parts:
        out[[row[e] for e in exps]] += stack
    return exponents, out


def _summed(dim: int, *parts: tuple) -> LaurentOp:
    """Trimmed sum of ``(exponents, stack)`` parts, each with distinct exponents."""
    return LaurentOp._make(dim, *_scattered(dim, parts))


def _convolve(a: LaurentOp, b: LaurentOp) -> tuple[tuple, np.ndarray]:
    """Untrimmed Cauchy product: sorted exponents and their coefficient stack.

    One stacked product per term of ``a``: the term times the whole stack
    of ``b``.  A stacked matmul multiplies each matrix on its own, so every
    ``A_i B_j`` is the product a single ``n x n`` matmul gives, and the
    terms of ``a`` are added in ascending exponent, as the pair loop over
    ``a`` then ``b`` adds them: the sums are bitwise that loop's.
    """
    return _scattered(a.dim, [(_shift(b.exponents, i), x @ b.stack)
                              for i, x in zip(a.exponents, a.stack)])


def _product_residual(op: LaurentOp) -> float:
    """||op* op - 1|| over the coefficients of the untrimmed product."""
    exponents, acc = _convolve(op.star(), op)
    if 0 not in exponents:
        return math.hypot(frob(acc), math.sqrt(op.dim))
    acc[exponents.index(0)] -= np.eye(op.dim)
    return frob(acc)


def _circle_residual(op: LaurentOp, points: int) -> float:
    """Root mean square of ||F(z)^H F(z) - 1||_F over the points-th roots of unity."""
    # exponents relative to lo fit in int64 even when lo does not
    offsets = [e - op.lo for e in op.exponents]
    # reducing the phase mod points keeps every angle in [0, 2 pi)
    turns = np.outer(np.arange(points), offsets) % points
    dft = np.exp((2j * np.pi / points) * turns)
    values = (dft @ op.stack.reshape(len(offsets), -1)).reshape(points, op.dim, op.dim)
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
    if points <= len(op.exponents) ** 2:
        residual = _circle_residual(op, points)
    else:
        residual = _product_residual(op)
    return residual / max(1.0, op.norm() ** 2)


def is_paraunitary(op: LaurentOp) -> bool:
    return paraunitarity_residual(op) <= tolerances().eq


def purity_residual(op: LaurentOp) -> float:
    total = op.stack.sum(axis=0)
    return frob(total - np.eye(op.dim)) / max(1.0, frob(total))


def is_pure(op: LaurentOp) -> bool:
    return is_paraunitary(op) and purity_residual(op) <= tolerances().eq


def in_positive_cone(x: LaurentOp | PpuElement) -> bool:
    """Pure paraunitary with only non-negative exponents after trimming.

    A ``PpuElement`` is decided from ``lo`` and its stored residuals,
    against the active ``eq``, as a fresh test of its ``op`` would be.
    """
    if isinstance(x, PpuElement):
        eq = tolerances().eq
        return x.lo >= 0 and x.residuals["paraunitarity"] <= eq and x.residuals["purity"] <= eq
    return x.lo >= 0 and is_pure(x)


class PpuElement:
    """A member of the pure paraunitary group of a fixed algebra.

    Construction validates eagerly: every coefficient must lie in the
    algebra, the element must be paraunitary, and its coefficients must
    sum to the identity.  The certifying residuals are kept, read-only,
    and are the element's certificate: ``shifted`` and
    ``in_positive_cone`` reuse them instead of certifying again, and
    compare them against the ``eq`` active at the reuse.  An element is
    immutable.
    """

    __slots__ = ("op", "algebra", "residuals")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, op: LaurentOp, algebra: StarAlgebra):
        if not isinstance(op, LaurentOp):
            raise InputError("expected a LaurentOp")
        if op.dim != algebra.dim:
            raise InputError("element and algebra dimensions differ")
        self._hold(op, algebra, types.MappingProxyType({
            "membership": algebra.membership_residual(op.stack),
            "paraunitarity": paraunitarity_residual(op),
            "purity": purity_residual(op),
        }))

    def _hold(self, op: LaurentOp, algebra: StarAlgebra, residuals) -> "PpuElement":
        """Keep ``op`` if every residual is within the active ``eq``, else raise."""
        eq = tolerances().eq
        for name, value in residuals.items():
            if value > eq:
                raise NumericalError(f"{name} residual {value:.3e} exceeds tolerance")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "residuals", residuals)
        return self

    @property
    def lo(self) -> int:
        return self.op.lo

    @property
    def hi(self) -> int:
        return self.op.hi

    def shifted(self, k: int) -> "PpuElement":
        """t^k self, certified by this element's residuals.

        A shift keeps the coefficient stack and every exponent's offset
        from ``lo``, so membership, purity and the unit-circle residual
        are bitwise the numbers a fresh certification would compute.
        """
        return object.__new__(PpuElement)._hold(self.op.shifted(k), self.algebra, self.residuals)

    def __mul__(self, other: "PpuElement") -> "PpuElement":
        algebra = common_algebra(self, other)
        return PpuElement(self.op * other.op, algebra)

    def inverse(self) -> "PpuElement":
        return PpuElement(self.op.star(), self.algebra)

    def close_to(self, other: "PpuElement") -> bool:
        return self.op.close_to(other.op)

    def __repr__(self):
        return f"PpuElement(dim={self.op.dim}, support={list(self.op.exponents)})"


def common_algebra(a: PpuElement, b: PpuElement) -> StarAlgebra:
    """The algebra of two group elements, or ``InputError`` for any other operand."""
    if not (isinstance(a, PpuElement) and isinstance(b, PpuElement)):
        raise InputError("expected a PpuElement operand")
    return a.algebra.require_same(b.algebra)


def ppu_t_power(algebra: StarAlgebra, k: int = 1) -> PpuElement:
    """t^k: the algebra's identity, certified once per algebra, shifted."""
    if algebra._identity is None:
        algebra._identity = PpuElement(LaurentOp.t_power(algebra.dim, 0), algebra)
    return algebra._identity.shifted(k)


def twist_alpha(el: PpuElement, z: complex) -> LaurentOp:
    """Coefficientwise twist t^i phi_i -> t^i z^-i phi_i.

    Carries the pure group isomorphically onto the kernel of the
    specialization at z; the result is paraunitary and evaluates to the
    identity at z, but is generally no longer pure at 1, hence the plain
    LaurentOp return type.
    """
    powers = _powers(z, [-e for e in el.op.exponents])
    return LaurentOp._make(el.op.dim, el.op.exponents, el.op.stack * powers[:, None, None])
