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
import functools
import math
import sys
import types
from collections.abc import Mapping
from typing import NoReturn

import numpy as np

from .numfield import (
    InputError,
    NumericalError,
    Subspace,
    _immutable,
    as_integer,
    as_matrix,
    frob,
    identity,
    tolerances,
)
from .star_algebra import StarAlgebra


# below this, a sum of squares loses precision or underflows to 0
_SQUARES_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _scaled_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms, each taken of ``|c|`` divided by its largest entry."""
    moduli = np.abs(stack)
    peaks = moduli.max(axis=(1, 2), initial=0.0)
    return peaks * frob(moduli / np.where(peaks > 0.0, peaks, 1.0)[:, None, None], axis=(1, 2))


def _trim(exponents: tuple, stack: np.ndarray, norms=None):
    """Drop the coefficients with norm at or below ``trim`` times the largest.

    ``norms``, if given, must be the stack's Frobenius norms.  Returns the
    surviving exponents, their stack and their norms.
    """
    trim = tolerances().trim
    if norms is None:
        norms = frob(stack, axis=(1, 2))
    peak = np.maximum.reduce(norms, initial=0.0)
    if not math.isfinite(peak):
        raise InputError("coefficient norm overflows")
    threshold = trim * peak
    if threshold < _SQUARES_UNDERFLOW:
        # a norm this small may have lost its squares to underflow
        norms = _scaled_norms(stack)
        threshold = trim * np.maximum.reduce(norms, initial=0.0)
    if np.minimum.reduce(norms, initial=math.inf) > threshold:
        return exponents, stack, norms
    keep = norms > threshold
    kept = tuple([e for e, k in zip(exponents, keep.tolist()) if k])
    return kept, stack[keep], norms[keep]


def _reject(dim: int, exponents: list, values) -> NoReturn:
    """Raise the error of the first malformed coefficient, in the order given.

    Only coefficients that failed the stacked checks come here, so the
    loop runs only to name the coefficient at fault.
    """
    seen = set()
    for e, c in zip(exponents, values):
        if as_matrix(c).shape != (dim, dim):
            raise InputError("coefficient of wrong shape")
        if e in seen:
            raise InputError("duplicate exponent")
        seen.add(e)
    raise InputError("malformed coefficients")


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
        dim = as_integer(dim, "dimension", 1)
        if not isinstance(coeffs, Mapping):
            raise InputError("coefficients must map exponents to matrices")
        exponents = [as_integer(e, "exponent") for e in coeffs]
        try:
            stack = np.array(list(coeffs.values()), dtype=np.complex128)
        except (TypeError, ValueError):
            _reject(dim, exponents, coeffs.values())
        if not exponents:
            stack = stack.reshape(0, dim, dim)
        if (
            stack.shape != (len(exponents), dim, dim)
            or len(set(exponents)) < len(exponents)
            or not np.isfinite(stack).all()
        ):
            _reject(dim, exponents, coeffs.values())
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
        """t^k: the t^0 kept per size, shifted."""
        return _t_zero(as_integer(dim, "dimension", 1)).shifted(k)

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
        e = as_integer(e, "exponent")
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

    def times_elementary(
        self, s: Subspace, inverse: bool = False, on_left: bool = False
    ) -> "LaurentOp":
        """self p, or with ``on_left`` p self, p = p_s or with ``inverse`` p_s^-1.

        p_s = t pi + (1 - pi) and p_s^-1 = t^-1 pi + (1 - pi), pi = pi_s.
        The two coefficients, the subspace's kept pair, are trimmed against
        the active ``trim`` as a dict-built p's are, so a projector within
        rounding of 1 leaves no 1 - pi term.  Where both survive on a
        contiguous support, one stacked product forms both products and two
        slice adds sum them into zeros in ``_summed``'s order, bitwise its
        sum; otherwise ``_summed`` adds the kept terms' products.
        """
        shifts, terms, _ = _trim((0, -1 if inverse else 1), *s.elementary_pair())
        t = len(self.exponents)
        if len(shifts) < 2 or self.hi - self.lo != t - 1:
            return _summed(
                self.dim,
                *[
                    (_shift(self.exponents, k), c @ self.stack if on_left else self.stack @ c)
                    for k, c in zip(shifts, terms)
                ],
            )
        products = terms[:, None] @ self.stack if on_left else self.stack @ terms[:, None]
        # pi's copy starts one row after 1 - pi's, or with ``inverse`` one before
        pi_row = 0 if inverse else 1
        out = np.zeros((t + 1, self.dim, self.dim), dtype=np.complex128)
        out[1 - pi_row:1 - pi_row + t] += products[0]
        out[pi_row:pi_row + t] += products[1]
        exponents = tuple(range(self.lo + pi_row - 1, self.lo + pi_row + t))
        return LaurentOp._make(self.dim, exponents, out)

    def shifted(self, k: int) -> "LaurentOp":
        k = as_integer(k, "shift")
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
        """Relative coefficientwise distance, scaled by max(1, norms).

        Operands on the same exponents subtract their stacks at once:
        entrywise the sum that ``self - other`` adds into zeros, up to the
        sign of a zero, which no norm sees.
        """
        if (isinstance(other, LaurentOp) and other.dim == self.dim
                and other.exponents == self.exponents):
            diff = LaurentOp._make(self.dim, self.exponents, self.stack - other.stack)
        else:
            diff = self - other
        return diff.norm() / max(1.0, self.norm(), other.norm())

    def close_to(self, other: "LaurentOp") -> bool:
        return self.distance(other) <= tolerances().eq

    def __repr__(self):
        return f"LaurentOp(dim={self.dim}, support={list(self.exponents)})"


@functools.lru_cache(maxsize=64)
def _t_zero(dim: int) -> LaurentOp:
    """t^0 of size ``dim``, built once per size as ``identity(dim)`` is."""
    return LaurentOp._make(dim, (0,), identity(dim)[None].astype(np.complex128))


def _shift(exponents: tuple, k: int) -> tuple:
    """The exponents plus ``k``.

    Exponent tuples are built from lists: a tuple filled from an iterator
    of unknown length is resized as it grows, and on the peel's path that
    made the peak resident memory creep up with every call.
    """
    return tuple([e + k for e in exponents])


def _powers(z: complex, exponents) -> np.ndarray:
    """``z ** e`` for each exponent, exactly 1 at ``z = 1``.

    ``z`` must lie on the unit circle, up to ``eq``.  Its phase is known
    only to about ulp(arg z), and its modulus is off 1 by up to |log |z||;
    ``z ** e`` multiplies both errors by ``|e|``, so beyond ``|e| = eq /
    max(ulp(arg z), |log |z||)`` the value is rounding noise, and such an
    exponent is a ``NumericalError``, as is one past the largest float.
    Within that horizon ``|z ** e|`` stays within about ``eq`` of 1, so no
    power overflows.  The message names ``floor(horizon)``, or its leading
    three digits, truncated, once it is longer than 15 digits.
    """
    z = complex(z)
    if not abs(abs(z) - 1.0) <= tolerances().eq:  # NaN fails too
        raise InputError("evaluation point must lie on the unit circle")
    if z == 1:
        return np.ones(len(exponents), dtype=np.complex128)
    error = max(math.ulp(abs(cmath.phase(z))), abs(math.log(abs(z))))
    horizon = min(tolerances().eq / error, sys.float_info.max)
    if any(abs(e) > horizon for e in exponents):
        d = str(math.floor(horizon))  # decimal digits
        shown = d if len(d) <= 15 else f"{d[0]}.{d[1:3]}e{len(d) - 1}"
        raise NumericalError(f"z ** e is rounding noise beyond |e| = {shown}")
    return np.array([z ** e for e in exponents], dtype=np.complex128)


def _scattered(dim: int, parts) -> tuple[tuple, np.ndarray]:
    """Untrimmed sum of ``(exponents, stack)`` parts, each with sorted distinct
    exponents, added by one index list per part in the order the parts come."""
    exponents = tuple(sorted({e for exps, _ in parts for e in exps}))
    row = {e: i for i, e in enumerate(exponents)}
    out = np.zeros((len(exponents), dim, dim), dtype=np.complex128)
    for exps, stack in parts:
        out[[row[e] for e in exps]] += stack
    return exponents, out


def _summed(dim: int, *parts: tuple) -> LaurentOp:
    """Trimmed sum of ``(exponents, stack)`` parts, each with sorted distinct exponents."""
    return LaurentOp._make(dim, *_scattered(dim, parts))


def _convolve(a: LaurentOp, b: LaurentOp) -> tuple[tuple, np.ndarray]:
    """Untrimmed Cauchy product: sorted exponents and their coefficient stack.

    One stacked product per term of ``a``: the term times the whole stack
    of ``b``.  A stacked matmul multiplies each matrix on its own, so every
    ``A_i B_j`` is the product a single ``n x n`` matmul gives, and the
    terms of ``a`` are added in ascending exponent, as the pair loop over
    ``a`` then ``b`` adds them: the sums are bitwise that loop's.
    When both supports are contiguous, as in products of degree-one
    factors, term ``i`` of ``a`` adds into rows ``i .. i + len(b) - 1``.
    """
    t = len(b.exponents)
    if a.hi - a.lo != len(a.exponents) - 1 or b.hi - b.lo != t - 1:
        return _scattered(a.dim, [(_shift(b.exponents, i), x @ b.stack)
                                  for i, x in zip(a.exponents, a.stack)])
    out = np.zeros((len(a.exponents) + t - 1, a.dim, a.dim), dtype=np.complex128)
    for i, x in enumerate(a.stack):
        out[i:i + t] += x @ b.stack
    return tuple(range(a.lo + b.lo, a.hi + b.hi + 1)), out


def _product_residual(op: LaurentOp) -> float:
    """||op* op - 1|| over the coefficients of the untrimmed product."""
    exponents, acc = _convolve(op.star(), op)
    if 0 not in exponents:
        return math.hypot(frob(acc), math.sqrt(op.dim))
    acc[exponents.index(0)] -= identity(op.dim)
    return frob(acc)


def _dft(points: int, offsets, rows) -> np.ndarray:
    """exp(2 pi i j e / points) for j in ``rows`` and e in ``offsets``."""
    # reducing the phase mod points keeps every angle in [0, 2 pi)
    turns = np.outer(rows, offsets) % points
    return np.exp((2j * np.pi / points) * turns)


# a contiguous support of at most this many terms keeps its DFT matrix;
# all of them together would hold 2.8 MB.  The peels and certificates of
# degree-24 elements use at most about 50 terms, and the order decision
# of two such elements reads the same matrices
_KEPT_DFT_TERMS = 64
# a support that is not kept is evaluated at this many points at a time,
# so its DFT rows never outgrow the largest kept matrix's
_DFT_BLOCK = 2 * _KEPT_DFT_TERMS - 1


@functools.cache
def _contiguous_dft(t: int) -> np.ndarray:
    """``_dft(2 t - 1, range(t), range(2 t - 1))``, read-only: the one DFT
    matrix of every contiguous support of ``t`` terms."""
    dft = _dft(2 * t - 1, np.arange(t), np.arange(2 * t - 1))
    dft.flags.writeable = False
    return dft


def _values(dft: np.ndarray, op: LaurentOp) -> np.ndarray:
    """op's values at the rows' points: the first ``t`` columns of ``dft``
    times the ``t`` stacked coefficients, as a stack of matrices."""
    t = len(op.exponents)
    return (dft[:, :t] @ op.stack.reshape(t, -1)).reshape(-1, op.dim, op.dim)


def _circle_residual(op: LaurentOp, points: int) -> float:
    """Root mean square of ||F(z)^H F(z) - 1||_F over the points-th roots of unity.

    A support that is not kept is evaluated ``_DFT_BLOCK`` points at a
    time, so its DFT rows take ``_DFT_BLOCK t`` entries, not ``points t``,
    and the blocks' squared norms are summed (as one ``hypot``).  A
    support whose points fit in one block takes one product, as a kept
    one does.
    """
    t = len(op.exponents)
    if op.hi - op.lo == t - 1 and t <= _KEPT_DFT_TERMS:
        blocks = [_contiguous_dft(t)]
    else:
        # exponents relative to lo fit in int64 even when lo does not
        offsets = np.array([e - op.lo for e in op.exponents])
        blocks = (_dft(points, offsets, np.arange(j, min(j + _DFT_BLOCK, points)))
                  for j in range(0, points, _DFT_BLOCK))
    norms = []
    for dft in blocks:
        values = _values(dft, op)
        norms.append(frob(values.conj().swapaxes(1, 2) @ values - identity(op.dim)))
    return math.hypot(*norms) / math.sqrt(points)


def _star_product(a: LaurentOp, b: LaurentOp) -> LaurentOp:
    """a* b, trimmed, for the order decision only.

    When both supports are contiguous, ``t = max(t_a, t_b)`` is at most
    ``_KEPT_DFT_TERMS``, and the ``m = 2 t - 1`` roots of unity are fewer
    than the ``t_a t_b`` term pairs, the coefficients are read from the
    values at those points, through the kept ``W = _contiguous_dft(t)``,
    ``W[j, e] = w^(j e)``.  ``A = W a`` and ``B = W b`` are the values of
    ``t^-lo_a a`` and ``t^-lo_b b``, so ``V_j = A_j^H B_j`` is that of
    ``t^(lo_a - lo_b) a* b``, whose ``t_a + t_b - 1 <= m`` coefficients
    the length-m DFT determines.  The one at exponent ``lo_b - hi_a + q``
    is ``(1/m) sum_j w^(j (t_a - 1 - q)) V_j``: the inverse rows are W's
    columns ``t_a - 1, ..., 0`` and the conjugates of its columns ``1,
    ..., t_b - 1``.  That is two products with W, m products of ``n x n``
    matrices and one inverse product, against the ``t_a t_b`` products of
    the Cauchy product.

    These coefficients agree with the Cauchy product ``a.star() * b`` to
    rounding but are not bitwise equal to it, so they serve only the
    order decision, which trims and certifies them as it would the exact
    product.  Every other pair (a gapped support, more than
    ``_KEPT_DFT_TERMS`` terms, a one-term operand) takes ``a.star() * b``.
    """
    ta, tb = len(a.exponents), len(b.exponents)
    t = max(ta, tb)
    points = 2 * t - 1
    if not (a.hi - a.lo == ta - 1 and b.hi - b.lo == tb - 1
            and t <= _KEPT_DFT_TERMS and points < ta * tb):
        return a.star() * b
    a._binary_check(b)
    dft = _contiguous_dft(t)
    values = (_values(dft, a).conj().swapaxes(1, 2) @ _values(dft, b)).reshape(points, -1)
    stack = np.concatenate([dft[:, ta - 1::-1].T @ values, dft[:, 1:tb].T.conj() @ values])
    return LaurentOp._make(a.dim, tuple(range(b.lo - a.hi, b.hi - a.lo + 1)),
                           (stack / points).reshape(-1, a.dim, a.dim))


def paraunitarity_residual(op: LaurentOp) -> float:
    """||op* op - 1|| / max(1, ||op||)^2, untrimmed.

    This is also ||op op* - 1|| / max(1, ||op||)^2: for a square matrix
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
    threshold that ``LaurentOp`` construction would drop.  The scale is
    divided out twice, never squared, since ||op||^2 may overflow.
    """
    points = 2 * (op.hi - op.lo) + 1
    if points <= len(op.exponents) ** 2:
        residual = _circle_residual(op, points)
    else:
        residual = _product_residual(op)
    scale = max(1.0, op.norm())
    return residual / scale / scale


def is_paraunitary(op: LaurentOp) -> bool:
    return paraunitarity_residual(op) <= tolerances().eq


def purity_residual(op: LaurentOp) -> float:
    total = op.stack.sum(axis=0)
    return frob(total - identity(op.dim)) / max(1.0, frob(total))


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
            if not value <= eq:  # NaN fails too
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
        common_algebra(self, other)
        return self.op.close_to(other.op)

    def __repr__(self):
        return f"PpuElement(dim={self.op.dim}, support={list(self.op.exponents)})"


def common_algebra(first: PpuElement, *rest: PpuElement) -> StarAlgebra:
    """The algebra of one or more group elements, or ``InputError`` for any
    other operand or for elements of different algebras."""
    algebra = None
    for x in (first, *rest):
        if not isinstance(x, PpuElement):
            raise InputError("expected a PpuElement operand")
        algebra = x.algebra if algebra is None else algebra.require_same(x.algebra)
    return algebra


def ppu_t_power(algebra: StarAlgebra, k: int = 1) -> PpuElement:
    """t^k: the algebra's identity, certified once per algebra, shifted."""
    if algebra._identity is None:
        identity = PpuElement(LaurentOp.t_power(algebra.dim, 0), algebra)
        object.__setattr__(algebra, "_identity", identity)
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
