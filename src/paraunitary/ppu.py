"""The pure paraunitary group: elementary factors, order, and lattice structure.

The backbone is the correspondence sending an element ``phi`` to the
invariant subspace it generates from the negative-exponent tail space.
Truncated to a finite exponent window this subspace becomes an ordinary
finite-dimensional subspace, which makes order comparison, meet/join,
and factorization into degree-one factors all computable.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .laurent import (
    LaurentOp,
    PpuElement,
    in_positive_cone,
    ppu_identity,
    ppu_t_power,
    require_same_algebra,
)
from .numfield import (
    InputError,
    NumericalError,
    Subspace,
    invariance_residual,
    join_subspace,
    kernel,
    meet_subspace,
    orthonormal_basis,
    subspace_residual,
    tolerances,
)
from .star_algebra import (
    InvariantSubspace,
    StarAlgebra,
    certify_member,
    random_projection_in,
)
from .reporting import derive_seed


def p_of(member: InvariantSubspace) -> PpuElement:
    """Degree-one elementary factor: t on the subspace, identity off it."""
    n = member.algebra.dim
    proj = member.subspace.projector()
    op = LaurentOp(n, {1: proj, 0: np.eye(n) - proj})
    return PpuElement(op, member.algebra)


def gamma_inverse(el: PpuElement) -> InvariantSubspace:
    """Recover M from an elementary factor (any divisor of t is one)."""
    t_el = ppu_t_power(el.algebra, 1)
    if not (in_positive_cone(el.op) and leq(el, t_el)):
        raise InputError("element is not between the identity and t")
    member = certify_member(el.algebra, kernel(el.op.coeff(0).conj().T))
    if not p_of(member).op.close_to(el.op):
        raise NumericalError("elementary-factor round trip failed")
    return member


def leq(a: PpuElement, b: PpuElement) -> bool:
    """Divisibility order: a <= b iff a^-1 b has only non-negative exponents."""
    require_same_algebra(a, b)
    return in_positive_cone(a.op.star() * b.op)


def order_unit_exponent(el: PpuElement) -> int:
    """Least k with el <= t^k; equals the top exponent (0 for the identity)."""
    return el.op.hi


@dataclasses.dataclass(frozen=True, eq=False)
class WindowSubspace:
    """Finite truncation of the invariant tail subspace of an element.

    Slot ``s`` in 1..width holds the coefficient of ``t^(offset+s)``, so
    the window covers the exponent interval (offset, offset+width].  The
    space must be stable under the block downshift (slot s -> s-1, slot 1
    discarded) and under the coefficientwise action of the commutant.
    The ambient index is slot-major, so the frame reshapes to a
    (width, n, dim) slot array (slot, ambient, column), and slot operators
    act on it by slicing and batched products; no (n width) x (n width)
    operator is ever formed.
    """

    algebra: StarAlgebra
    offset: int
    width: int
    space: Subspace

    def __post_init__(self):
        if self.width < 0:
            raise InputError("window width must be non-negative")
        if self.space.ambient_dim != self.algebra.dim * self.width:
            raise InputError("window space has the wrong ambient dimension")

    def stability_residual(self) -> float:
        """Worst violation of the two stability invariants."""
        if self.space.dim == 0 or self.width == 0:
            return 0.0
        slots = self.space.frame.reshape(self.width, self.algebra.dim, -1)
        down = np.zeros_like(slots)
        down[:-1] = slots[1:]
        commuted = (c @ slots for c in self.algebra.commutant.basis)
        return invariance_residual(itertools.chain([down], commuted), self.space)

    def require_valid(self, exc=InputError) -> None:
        residual = self.stability_residual()
        if residual > tolerances().eq:
            raise exc(f"window stability residual {residual:.3e} exceeds tolerance")


def omega_window(el: PpuElement, m: int, n: int) -> WindowSubspace:
    """Truncation of the element's invariant tail subspace to slots m+1..n.

    The window must contain the element's support: m <= lo and n >= hi.
    Columns are the windowed images of t^j e_i over the finitely many j
    that can reach the window.
    """
    op = el.op
    if m > op.lo or n < op.hi:
        raise InputError("window too small for the element")
    amb, w = op.dim, n - m
    # column block q is the image of t^j e_i for j = m - hi + q, so block
    # (slot s, q) holds the coefficient of t^(m+s-j); stack[d] holds that
    # of t^(m+1+d), which makes the window block-Toeplitz in it
    span = op.hi - m + 1
    stack = np.zeros((w + span - 1, amb, amb), dtype=np.complex128)
    for e, c in op.coeffs.items():
        if e > m:
            stack[e - m - 1] = c
    toeplitz = stack[np.subtract.outer(np.arange(w), np.arange(span)) + span - 1]
    cols = toeplitz.transpose(0, 2, 1, 3).reshape(amb * w, amb * span)
    window = WindowSubspace(el.algebra, m, w, orthonormal_basis(cols))
    window.require_valid(NumericalError)
    return window


@dataclasses.dataclass(frozen=True)
class FactorList:
    """Ordered elementary factorization t^-shift * p_1 * ... * p_k."""

    shift: int
    factors: tuple[InvariantSubspace, ...]

    def assemble(self, algebra: StarAlgebra) -> PpuElement:
        op = LaurentOp.t_power(algebra.dim, -self.shift)
        for member in self.factors:
            op = op * p_of(member).op
        return PpuElement(op, algebra)


def factor_positive(el: PpuElement) -> FactorList:
    """Peel a positive-cone element into degree-one factors.

    Each step removes the factor supported on the kernel of the adjoint
    constant coefficient; paraunitarity forces the top coefficient's
    range into that kernel, so the degree drops by at least one per
    step and the factor count equals the top exponent.
    """
    if not in_positive_cone(el.op):
        raise InputError("element is not in the positive cone")
    algebra = el.algebra
    members: list[InvariantSubspace] = []
    cur = el.op
    while cur.hi > 0:
        prev_hi = cur.hi
        m1 = kernel(cur.coeff(0).conj().T)
        try:
            member = certify_member(algebra, m1)
        except InputError as exc:
            raise NumericalError(
                f"peeled subspace at degree {prev_hi} failed certification"
            ) from exc
        members.append(member)
        proj = m1.projector()
        p_star = LaurentOp(algebra.dim, {-1: proj, 0: np.eye(algebra.dim) - proj})
        cur = p_star * cur
        if cur.lo < 0:
            raise NumericalError(
                f"negative exponents survived the peel at degree {prev_hi}"
            )
        if cur.hi >= prev_hi:
            raise NumericalError(f"degree failed to decrease at {prev_hi}")
    if not cur.close_to(LaurentOp.identity(algebra.dim)):
        raise NumericalError("factorization left a non-identity constant")
    result = FactorList(0, tuple(members))
    if not result.assemble(algebra).op.close_to(el.op):
        raise NumericalError("reassembled factorization does not match the input")
    return result


def reconstruct(window: WindowSubspace) -> PpuElement:
    """Inverse of the window map: the unique element with this truncation.

    Peels at the window level: the slot-1 fiber of the space is the
    first factor, then the windowed action of that factor's inverse is
    applied and the peel repeats until the space is exhausted.  The
    window comes from the caller, so an unstable one is an input error.
    """
    window.require_valid(InputError)
    return _peel(window)


def _peel(window: WindowSubspace) -> PpuElement:
    """Window-level peel of a window already validated as stable."""
    algebra = window.algebra
    amb, w = algebra.dim, window.width
    space = window.space
    members: list[InvariantSubspace] = []
    while space.dim > 0:
        if len(members) >= w:
            raise NumericalError("window peel exceeded the width cap")
        frame = space.frame
        # slot-1 fiber {x : x embedded at slot 1 lies in the space}: the
        # kernel of (I - pi) restricted to the first amb coordinates
        fiber = -frame @ frame[:amb].conj().T
        fiber[:amb] += np.eye(amb)
        m1 = kernel(fiber)
        if m1.dim == 0:
            raise NumericalError("window peel stalled on a nonzero space")
        members.append(certify_member(algebra, m1))
        # windowed action of the factor's inverse t^-1 P + (1 - P)
        proj = m1.projector()
        slots = frame.reshape(w, amb, -1)
        peeled = (np.eye(amb) - proj) @ slots
        peeled[:-1] += proj @ slots[1:]
        new_space = orthonormal_basis(peeled.reshape(frame.shape))
        if new_space.dim >= space.dim:
            raise NumericalError("window peel failed to reduce the dimension")
        space = new_space
    op = LaurentOp.t_power(amb, window.offset)
    for member in members:
        op = op * p_of(member).op
    el = PpuElement(op, algebra)
    check = omega_window(el, window.offset, window.offset + w)
    if subspace_residual(check.space, window.space) > tolerances().eq:
        raise NumericalError("reconstructed element does not reproduce the window")
    return el


def _common_window(a: PpuElement, b: PpuElement) -> tuple[int, int]:
    return min(a.op.lo, b.op.lo), max(a.op.hi, b.op.hi)


def _lattice_op(a: PpuElement, b: PpuElement, combine) -> PpuElement:
    """Combine the two windows and peel the result.

    The combined window is computed here from valid elements, so a
    window that fails its stability check is a numerical failure, not
    an input error.
    """
    algebra = require_same_algebra(a, b)
    m, n = _common_window(a, b)
    wa = omega_window(a, m, n)
    wb = omega_window(b, m, n)
    window = WindowSubspace(algebra, m, n - m, combine(wa.space, wb.space))
    window.require_valid(NumericalError)
    return _peel(window)


def meet(a: PpuElement, b: PpuElement) -> PpuElement:
    return _lattice_op(a, b, meet_subspace)


def join(a: PpuElement, b: PpuElement) -> PpuElement:
    return _lattice_op(a, b, join_subspace)


def complement_in_t(el: PpuElement) -> PpuElement:
    """Orthocomplementation of the interval [1, t]: el -> el^-1 t."""
    one = ppu_identity(el.algebra)
    t_el = ppu_t_power(el.algebra, 1)
    if not (leq(one, el) and leq(el, t_el)):
        raise InputError("element is outside the interval [1, t]")
    return PpuElement(el.op.star() * t_el.op, el.algebra)


def random_ppu(algebra: StarAlgebra, k: int, shift: int, seed: int) -> PpuElement:
    """Seeded product of k random elementary factors, shifted by t^-shift."""
    if k < 0:
        raise InputError("factor count must be non-negative")
    op = LaurentOp.identity(algebra.dim)
    for i in range(k):
        member = random_projection_in(algebra, derive_seed(seed, i))
        op = op * p_of(member).op
    return PpuElement(op.shifted(-int(shift)), algebra)
