"""The pure paraunitary group: elementary factors, order, and lattice structure.

The divisors of ``t`` in the positive cone are the elementary factors
``p_M = t pi_M + (1 - pi_M)``, one for each member ``M`` of the
invariant-subspace lattice ``X(A')``.  Every question about a positive
element reduces to its constant coefficient ``phi_0``: the *head*
``ker(phi_0^H)`` is the largest ``M`` with ``p_M`` dividing ``phi`` on
the left, and the *tail* ``ker(phi_0)`` the largest with ``p_M``
dividing on the right.  One peel does all the work: dividing a list of
elements by ``p_s``, ``s`` the intersection of their heads (or tails),
until ``s`` is zero is the greedy gcd of Garside theory.  The gcd of two
elements is their meet (and, through ``phi^-1 t^k``, their join); the
gcd of an element with itself peels it into degree-one factors.  Every
rank decision is on the stacked constant coefficients, at most
``2n x n``, whatever the degree.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .laurent import (
    LaurentOp,
    PpuElement,
    common_algebra,
    in_positive_cone,
)
from .numfield import (
    InputError,
    NumericalError,
    Subspace,
    kernel,
    zero_subspace,
)
from .star_algebra import (
    InvariantSubspace,
    StarAlgebra,
    certify_member,
    random_projection_in,
)
from .reporting import derive_seed

MAX_PEEL_STEPS = 2**16


def _elementary(s: Subspace) -> LaurentOp:
    """p_s = t pi_s + (1 - pi_s)."""
    proj = s.projector()
    return LaurentOp(s.ambient_dim, {1: proj, 0: np.eye(s.ambient_dim) - proj})


def p_of(member: InvariantSubspace) -> PpuElement:
    """Degree-one elementary factor: t on the subspace, identity off it."""
    return PpuElement(_elementary(member.subspace), member.algebra)


def gamma_inverse(el: PpuElement) -> InvariantSubspace:
    """Recover M from an elementary factor (any divisor of t is one)."""
    if not (in_positive_cone(el) and el.hi <= 1):
        raise InputError("element is not between the identity and t")
    factors = factor_positive(el).factors
    return factors[0] if factors else certify_member(el.algebra, zero_subspace(el.op.dim))


def _peel(
    operands: list[LaurentOp | PpuElement], algebra: StarAlgebra, right: bool = False
) -> tuple[list[InvariantSubspace], list[LaurentOp]]:
    """Greedy gcd of positive elements, left by heads or ``right`` by tails.

    Each step divides every operand by p_s, s the intersection of their
    heads ker(x_0^H) (tails ker(x_0)): p_M^-1 x has t^-1 coefficient
    pi_M x_0, which vanishes iff M lies in ker(x_0^H), and x p_M^-1 has
    x_0 pi_M, which vanishes iff M lies in ker(x_0).  So s is the kernel
    of the stacked [x_0^H; y_0^H] ([x_0; y_0]), one SVD, and it is in
    X(A') since every x_0 is in the algebra.  The gcd is the product of
    the p_s in the order peeled (for the right gcd, from the right).  A
    step lowers the determinant degree of every operand by dim s >= 1,
    not necessarily the top exponent, so at most n * min(hi) steps run.
    The peel ends when s is zero or an operand has top exponent 0 (a pure
    positive constant is the identity), and every remainder must then
    lie in the positive cone.  A certified operand that no step divided
    passes that test on its certificate.  Returns the peeled members and
    the remainders.  A step under a bound above ``MAX_PEEL_STEPS`` raises
    ``InputError``, so a peel that takes no step still answers.
    """
    ops = [x.op if isinstance(x, PpuElement) else x for x in operands]
    cap = algebra.dim * min(op.hi for op in ops)
    peeled: list[InvariantSubspace] = []
    while min(op.hi for op in ops) > 0:
        constants = [op.coeff(0) if right else op.coeff(0).conj().T for op in ops]
        s = kernel(np.concatenate(constants))
        if s.dim == 0:
            break
        if cap > MAX_PEEL_STEPS:
            raise InputError(f"the greedy peel may need more than {MAX_PEEL_STEPS} steps")
        if len(peeled) == cap:
            raise NumericalError(f"greedy peel did not end within {cap} steps")
        try:
            member = certify_member(algebra, s)
        except InputError as exc:
            raise NumericalError(f"divisor {len(peeled) + 1} failed certification") from exc
        proj = s.projector()
        ops = [op.times_elementary(proj, -1, on_left=not right) for op in ops]
        if min(op.lo for op in ops) < 0:
            raise NumericalError(f"negative exponent after divisor {len(peeled) + 1}")
        peeled.append(member)
    if not all(in_positive_cone(x) for x in (ops if peeled else operands)):
        raise NumericalError("greedy peel left a remainder outside the positive cone")
    return peeled, ops


def leq(a: PpuElement, b: PpuElement) -> bool:
    """Divisibility order: a <= b iff a^-1 b has only non-negative exponents."""
    common_algebra(a, b)
    return in_positive_cone(a.op.star() * b.op)


@dataclasses.dataclass(frozen=True)
class FactorList:
    """Ordered elementary factorization t^-shift * p_1 * ... * p_k.

    ``factor_positive`` reassembles the product p_1 * ... * p_k to check
    its answer, and keeps that certified product as ``assembled``; a
    list built otherwise has ``None`` there.
    """

    shift: int
    factors: tuple[InvariantSubspace, ...]
    assembled: PpuElement | None = dataclasses.field(default=None, compare=False, repr=False)

    def assemble(self, algebra: StarAlgebra) -> PpuElement:
        op = LaurentOp.t_power(algebra.dim, -self.shift)
        for member in self.factors:
            op = op.times_elementary(member.subspace.projector(), 1)
        return PpuElement(op, algebra)


def factor_positive(el: PpuElement) -> FactorList:
    """Peel a positive-cone element into degree-one factors: its gcd with itself.

    The head of the element is its greatest common left divisor with t,
    so dividing by it lowers the top exponent by exactly one: the factor
    count equals the top exponent, and a head split over two steps shows
    up as one factor too many.
    """
    if not in_positive_cone(el):
        raise InputError("element is not in the positive cone")
    members, (rest,) = _peel([el], el.algebra)
    if len(members) != el.hi:
        raise NumericalError(f"{len(members)} factors for top exponent {el.hi}")
    if not rest.close_to(LaurentOp.t_power(el.op.dim, 0)):
        raise NumericalError("factorization left a non-identity remainder")
    members = tuple(members)
    assembled = FactorList(0, members).assemble(el.algebra)
    if not assembled.op.close_to(el.op):
        raise NumericalError("reassembled factorization does not match the input")
    return FactorList(0, members, assembled)


def meet(a: PpuElement, b: PpuElement) -> PpuElement:
    """Greatest lower bound: t^m times the left gcd of t^-m a and t^-m b."""
    algebra = common_algebra(a, b)
    m = min(a.lo, b.lo)
    members, _ = _peel([a.shifted(-m), b.shifted(-m)], algebra)
    return FactorList(-m, tuple(members)).assemble(algebra)


def join(a: PpuElement, b: PpuElement) -> PpuElement:
    """Least upper bound: t^k rgcd(a^-1 t^k, b^-1 t^k)^-1 with k = max hi.

    z >= a, b with z <= t^k iff w = z^-1 t^k right-divides a^-1 t^k and
    b^-1 t^k, so the least such z comes from the greatest such w.  The
    order is only left-invariant, so (a^-1 meet b^-1)^-1 is not the join.
    """
    algebra = common_algebra(a, b)
    k = max(a.hi, b.hi)
    members, _ = _peel([a.op.star().shifted(k), b.op.star().shifted(k)], algebra, right=True)
    op = LaurentOp.t_power(algebra.dim, k)
    for member in members:
        op = op.times_elementary(member.subspace.projector(), -1)
    return PpuElement(op, algebra)


def complement_in_t(el: PpuElement) -> PpuElement:
    """Orthocomplementation of the interval [1, t]: el -> el^-1 t.

    el^-1 t is the involution shifted by one, positive iff el.hi <= 1.
    """
    if not (in_positive_cone(el) and el.hi <= 1):
        raise InputError("element is outside the interval [1, t]")
    return PpuElement(el.op.star().shifted(1), el.algebra)


def random_ppu(algebra: StarAlgebra, k: int, shift: int, seed: int) -> PpuElement:
    """Seeded product of k random elementary factors, shifted by t^-shift."""
    if k < 0:
        raise InputError("factor count must be non-negative")
    members = tuple([random_projection_in(algebra, derive_seed(seed, i)) for i in range(k)])
    return FactorList(int(shift), members).assemble(algebra)
