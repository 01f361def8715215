"""The pure paraunitary group: elementary factors, order, and lattice structure.

The divisors of ``t`` in the positive cone are the elementary factors
``p_M = t pi_M + (1 - pi_M)``, one for each member ``M`` of the
invariant-subspace lattice ``X(A')``.  Every question about a positive
element reduces to its constant coefficient ``phi_0``: the *head*
``ker(phi_0^H)`` is the largest ``M`` with ``p_M`` dividing ``phi`` on
the left, and the *tail* ``ker(phi_0)`` the largest with ``p_M``
dividing on the right.  Peeling heads factors an element into degree-one
pieces; peeling the intersection of two heads (or tails) is the greedy
gcd of Garside theory, which gives the meet (and, through ``phi^-1 t^k``,
the join).  Every rank decision is on an ``n x n`` matrix, whatever the
degree.
"""

from __future__ import annotations

import dataclasses

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
    kernel,
    meet_subspace,
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
    member = certify_member(el.algebra, _head(el.op))
    if not p_of(member).op.close_to(el.op):
        raise NumericalError("elementary-factor round trip failed")
    return member


def _head(op: LaurentOp, right: bool = False) -> Subspace:
    """Head ker(op_0^H) of a positive element, or with ``right`` its tail ker(op_0).

    p_M^-1 op has t^-1 coefficient pi_M op_0, which vanishes iff M lies in
    ker(op_0^H); op p_M^-1 has op_0 pi_M, which vanishes iff M lies in
    ker(op_0).  op_0 is in the algebra, so both kernels are in X(A').
    """
    c0 = op.coeff(0)
    return kernel(c0 if right else c0.conj().T)


def _elementary_inverse(s: Subspace) -> LaurentOp:
    """p_s^-1 = t^-1 pi_s + (1 - pi_s)."""
    proj = s.projector()
    return LaurentOp(s.ambient_dim, {-1: proj, 0: np.eye(s.ambient_dim) - proj})


def leq(a: PpuElement, b: PpuElement) -> bool:
    """Divisibility order: a <= b iff a^-1 b has only non-negative exponents."""
    require_same_algebra(a, b)
    return in_positive_cone(a.op.star() * b.op)


def order_unit_exponent(el: PpuElement) -> int:
    """Least k with el <= t^k; equals the top exponent (0 for the identity)."""
    return el.op.hi


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
        m1 = _head(cur)
        try:
            member = certify_member(algebra, m1)
        except InputError as exc:
            raise NumericalError(
                f"peeled subspace at degree {prev_hi} failed certification"
            ) from exc
        members.append(member)
        cur = _elementary_inverse(m1) * cur
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


def _greedy_gcd(
    x: LaurentOp, y: LaurentOp, algebra: StarAlgebra, right: bool = False
) -> list[InvariantSubspace]:
    """Greedy gcd of two positive elements, left by heads or ``right`` by tails.

    Each step divides both by p_s, s the intersection of their heads
    (tails); the gcd is the product of the p_s in the order peeled (for
    the right gcd, from the right).  A step lowers the determinant degree
    of both by dim s >= 1, not necessarily the top exponent, so at most
    n * min(hi) steps run.  The last step finds no common head, and both
    remainders must then lie in the positive cone.
    """
    cap = algebra.dim * min(x.hi, y.hi)
    peeled: list[InvariantSubspace] = []
    while (s := meet_subspace(_head(x, right), _head(y, right))).dim > 0:
        if len(peeled) == cap:
            raise NumericalError(f"greedy gcd did not end within {cap} steps")
        try:
            member = certify_member(algebra, s)
        except InputError as exc:
            raise NumericalError(
                f"common divisor {len(peeled) + 1} failed certification"
            ) from exc
        inv = _elementary_inverse(s)
        x, y = (x * inv, y * inv) if right else (inv * x, inv * y)
        if min(x.lo, y.lo) < 0:
            raise NumericalError(
                f"negative exponent after common divisor {len(peeled) + 1}"
            )
        peeled.append(member)
    if not (in_positive_cone(x) and in_positive_cone(y)):
        raise NumericalError("greedy gcd left a remainder outside the positive cone")
    return peeled


def meet(a: PpuElement, b: PpuElement) -> PpuElement:
    """Greatest lower bound: t^m times the left gcd of t^-m a and t^-m b."""
    algebra = require_same_algebra(a, b)
    m = min(a.lo, b.lo)
    members = _greedy_gcd(a.op.shifted(-m), b.op.shifted(-m), algebra)
    return FactorList(-m, tuple(members)).assemble(algebra)


def join(a: PpuElement, b: PpuElement) -> PpuElement:
    """Least upper bound: t^k rgcd(a^-1 t^k, b^-1 t^k)^-1 with k = max hi.

    z >= a, b with z <= t^k iff w = z^-1 t^k right-divides a^-1 t^k and
    b^-1 t^k, so the least such z comes from the greatest such w.  The
    order is only left-invariant, so (a^-1 meet b^-1)^-1 is not the join.
    """
    algebra = require_same_algebra(a, b)
    k = max(a.hi, b.hi)
    members = _greedy_gcd(
        a.op.star().shifted(k), b.op.star().shifted(k), algebra, right=True
    )
    op = LaurentOp.t_power(algebra.dim, k)
    for member in members:
        op = op * _elementary_inverse(member.subspace)
    return PpuElement(op, algebra)


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
