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

An abelian algebra takes no peel.  Its atoms E_i are a basis of it, and
its group is Z^k: every element is ``sum_i t^(v_i) E_i`` for one integer
vector v, read off the coefficients and certified once per operand.
The order is the pointwise one, so meet and join are the pointwise min
and max, and the factors of a positive element are the unions of atoms
whose exponent reaches each level.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .laurent import (
    LaurentOp,
    PpuElement,
    _shift,
    _star_product,
    _trim,
    common_algebra,
    in_positive_cone,
    ppu_t_power,
)
from .numfield import (
    InputError,
    NumericalError,
    Subspace,
    as_integer,
    kernel,
    tolerances,
    zero_subspace,
)
from .star_algebra import (
    Atoms,
    InvariantSubspace,
    StarAlgebra,
    certify_member,
    certify_members,
    random_projections_in,
)
from .reporting import derive_seed

MAX_PEEL_STEPS = 2**16


def _elementary(s: Subspace) -> LaurentOp:
    """p_s = t pi_s + (1 - pi_s), from the subspace's kept pair."""
    return LaurentOp._make(s.ambient_dim, *_trim((0, 1), *s.elementary_pair()))


def _product(algebra: StarAlgebra, k: int, members, inverse: bool = False) -> PpuElement:
    """t^k p_1 ... p_m, or with ``inverse`` t^k p_1^-1 ... p_m^-1, certified.

    The product starts from p_1's kept pair, trimmed, shifted by k and
    plus 0.0: t^k times p_1^(+-1) would add those terms into zeros, which
    turns each negative zero into a positive one, so the start is bitwise
    that product.  No member gives the algebra's certified t^k.
    """
    if not members:
        return ppu_t_power(algebra, k)
    first, *rest = members
    pair = first.subspace.elementary_pair()
    exponents, stack, norms = _trim((0, -1) if inverse else (0, 1), *pair)
    if inverse:  # p^-1 = t^-1 pi + (1 - pi): in exponent order, pi comes first
        exponents, stack, norms = exponents[::-1], stack[::-1], norms[::-1]
    op = LaurentOp._make(algebra.dim, _shift(exponents, k), stack + 0.0, norms)
    for member in rest:
        op = op.times_elementary(member.subspace, inverse)
    return PpuElement(op, algebra)


def p_of(member: InvariantSubspace) -> PpuElement:
    """Degree-one elementary factor: t on the subspace, identity off it."""
    return PpuElement(_elementary(member.subspace), member.algebra)


def gamma_inverse(el: PpuElement) -> InvariantSubspace:
    """Recover M from an elementary factor (any divisor of t is one)."""
    algebra = common_algebra(el)
    if not (in_positive_cone(el) and el.hi <= 1):
        raise InputError("element is not between the identity and t")
    factors = factor_positive(el).factors
    return factors[0] if factors else certify_member(algebra, zero_subspace(el.op.dim))


def _certify(algebra: StarAlgebra, divisors: list[Subspace]) -> list[InvariantSubspace]:
    """The divisors as members of X(A'), certified in one call, or
    ``NumericalError`` naming the first that fails, from 1."""
    try:
        return certify_members(algebra, divisors)
    except InputError as exc:
        raise NumericalError(f"divisor {exc.index + 1} failed certification") from exc
    except NumericalError as exc:
        if not hasattr(exc, "index"):  # the commutant, not a divisor
            raise
        raise NumericalError(f"divisor {exc.index + 1}: {exc}") from exc


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

    The divisors are certified in one ``certify_members`` call when the
    peel ends or before any error is raised, so a divisor j outside X(A')
    is reported as such ahead of any later error, as it was when each
    step certified its own.
    """
    ops = [x.op if isinstance(x, PpuElement) else x for x in operands]
    cap = algebra.dim * min(op.hi for op in ops)
    divisors: list[Subspace] = []
    try:
        while min(op.hi for op in ops) > 0:
            # x_0 is read from the stack, not copied, where it is the first term
            constants = [op.stack[0] if op.lo == 0 else op.coeff(0) for op in ops]
            if not right:
                constants = [c.conj().T for c in constants]
            s = kernel(constants[0] if len(ops) == 1 else np.concatenate(constants))
            if s.dim == 0:
                break
            if cap > MAX_PEEL_STEPS:
                raise InputError(f"the greedy peel may need more than {MAX_PEEL_STEPS} steps")
            if len(divisors) == cap:
                raise NumericalError(f"greedy peel did not end within {cap} steps")
            divisors.append(s)
            ops = [op.times_elementary(s, inverse=True, on_left=not right) for op in ops]
            if min(op.lo for op in ops) < 0:
                raise NumericalError(f"negative exponent after divisor {len(divisors)}")
    except Exception:
        _certify(algebra, divisors)  # its failure replaces the error at hand
        raise
    peeled = _certify(algebra, divisors)
    if not all(in_positive_cone(x) for x in (ops if peeled else operands)):
        raise NumericalError("greedy peel left a remainder outside the positive cone")
    return peeled, ops


def _exponent_vector(el: PpuElement, atoms: Atoms) -> list[int]:
    """The v with ``el = sum_i t^(v_i) E_i``, certified, or ``NumericalError``.

    ``C[e, i] = tr(E_i x_e) / m_i`` are the coordinates of the projection
    pi(x_e) onto the algebra, and v_i is the exponent at which column i
    peaks.  Since x_e - pi(x_e) is orthogonal to the algebra, and so to
    the answer, ``||x - sum_i t^(v_i) E_i||^2`` is at most
    ``sum_e mu^2 max(1, ||x_e||)^2 + sum_(e,i) m_i |C[e, i] - [e = v_i]|^2``,
    mu the element's stored membership residual.  Divided by
    ``max(1, ||x||, sqrt(n))`` that bounds what ``close_to`` measures
    between the element and the answer, and it must be within ``eq``.
    """
    op = el.op
    coords = op.stack.reshape(len(op.exponents), -1) @ atoms.dual
    rows = coords.real.argmax(axis=0)
    coords[rows, range(len(rows))] -= 1.0
    mu = el.residuals["membership"]
    scaled = np.maximum(1.0, op.norms)
    bound = math.sqrt(
        mu * mu * float(scaled @ scaled)
        + float(np.add.reduce((coords.conj() * coords).real, axis=0) @ atoms.ranks)
    )
    scale = max(1.0, op.norm(), math.sqrt(op.dim))
    if not bound / scale <= tolerances().eq:  # NaN fails too
        raise NumericalError(
            f"element is not an exponent vector over the atoms: bound {bound / scale:.3e}"
        )
    return [op.exponents[r] for r in rows.tolist()]


def _from_exponent_vector(algebra: StarAlgebra, atoms: Atoms, v: list[int]) -> PpuElement:
    """``sum_i t^(v_i) E_i``, certified."""
    exponents = sorted(set(v))
    stack = np.zeros((len(exponents), algebra.dim, algebra.dim), dtype=np.complex128)
    for e, proj in zip(v, atoms.projectors):
        stack[exponents.index(e)] += proj
    return PpuElement(LaurentOp._make(algebra.dim, tuple(exponents), stack), algebra)


def leq(a: PpuElement, b: PpuElement) -> bool:
    """Divisibility order: a <= b iff a^-1 b = a* b is in the positive cone.

    Over an abelian algebra this is the pointwise order of the exponent
    vectors.  Otherwise a* b is formed by ``laurent._star_product``, from
    the values at the roots of unity where both supports are contiguous
    and short, else by the Cauchy product, and then trimmed and certified
    pure as any element's cone test is.
    """
    atoms = common_algebra(a, b).atoms
    if atoms is not None:
        return all(x <= y for x, y in zip(_exponent_vector(a, atoms), _exponent_vector(b, atoms)))
    return in_positive_cone(_star_product(a.op, b.op))


@dataclasses.dataclass(frozen=True)
class FactorList:
    """Ordered elementary factorization t^-shift * p_1 * ... * p_k.

    ``factor_positive`` reassembles the product p_1 * ... * p_k to check
    its answer, and keeps that certified product as ``assembled``; a
    list built otherwise has ``None`` there.  ``assemble`` starts the
    product from p_1's kept pair (see ``_product``), and an empty list
    assembles to the algebra's certified identity, shifted.
    """

    shift: int
    factors: tuple[InvariantSubspace, ...]
    assembled: PpuElement | None = dataclasses.field(default=None, compare=False, repr=False)

    def assemble(self, algebra: StarAlgebra) -> PpuElement:
        return _product(algebra, -self.shift, self.factors)


def factor_positive(el: PpuElement) -> FactorList:
    """Peel a positive-cone element into degree-one factors: its gcd with itself.

    The head of the element is its greatest common left divisor with t,
    so dividing by it lowers the top exponent by exactly one: the factor
    count equals the top exponent, and a head split over two steps shows
    up as one factor too many.  The peel certifies its divisors in
    one call (see ``_peel``).  Over an abelian algebra the j-th head is the
    union of the atoms whose exponent is at least j, and the distinct
    heads are certified in one call; a top exponent that a peel might
    refuse is refused there too.  The k factors reassemble in k - 1
    elementary products.
    """
    algebra = common_algebra(el)
    if not in_positive_cone(el):
        raise InputError("element is not in the positive cone")
    atoms = algebra.atoms
    if atoms is None:
        members, (rest,) = _peel([el], algebra)
        if len(members) != el.hi:
            raise NumericalError(f"{len(members)} factors for top exponent {el.hi}")
        if not rest.close_to(LaurentOp.t_power(el.op.dim, 0)):
            raise NumericalError("factorization left a non-identity remainder")
    else:
        if el.op.dim * el.hi > MAX_PEEL_STEPS:
            raise InputError(f"the greedy peel may need more than {MAX_PEEL_STEPS} steps")
        w = _exponent_vector(el, atoms)
        levels = sorted({wi for wi in w if wi > 0})
        heads = certify_members(algebra, [
            Subspace(np.concatenate([f for f, wi in zip(atoms.frames, w) if wi >= level], axis=1))
            for level in levels
        ])
        # the heads at the levels below = wi are the same union of atoms
        members = [m for m, below, level in zip(heads, [0, *levels], levels)
                   for _ in range(level - below)]
    members = tuple(members)
    assembled = FactorList(0, members).assemble(algebra)
    if not assembled.op.close_to(el.op):
        raise NumericalError("reassembled factorization does not match the input")
    return FactorList(0, members, assembled)


def meet(a: PpuElement, b: PpuElement) -> PpuElement:
    """Greatest lower bound: t^m times the left gcd of t^-m a and t^-m b."""
    algebra = common_algebra(a, b)
    atoms = algebra.atoms
    if atoms is not None:
        v = map(min, _exponent_vector(a, atoms), _exponent_vector(b, atoms))
        return _from_exponent_vector(algebra, atoms, list(v))
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
    atoms = algebra.atoms
    if atoms is not None:
        v = map(max, _exponent_vector(a, atoms), _exponent_vector(b, atoms))
        return _from_exponent_vector(algebra, atoms, list(v))
    k = max(a.hi, b.hi)
    members, _ = _peel([a.op.star().shifted(k), b.op.star().shifted(k)], algebra, right=True)
    return _product(algebra, k, members, inverse=True)


def complement_in_t(el: PpuElement) -> PpuElement:
    """Orthocomplementation of the interval [1, t]: el -> el^-1 t.

    el^-1 t is the involution shifted by one, positive iff el.hi <= 1.
    """
    algebra = common_algebra(el)
    if not (in_positive_cone(el) and el.hi <= 1):
        raise InputError("element is outside the interval [1, t]")
    return PpuElement(el.op.star().shifted(1), algebra)


def random_ppu(algebra: StarAlgebra, k: int, shift: int, seed: int) -> PpuElement:
    """Seeded product of k random elementary factors, shifted by t^-shift.

    The k members are drawn in one ``random_projections_in`` call.  A drawn
    member can be the zero subspace, whose factor is the identity, so the
    top exponent ``hi`` can fall below k - shift.
    """
    k, shift = as_integer(k, "factor count"), as_integer(shift, "shift")
    seed = as_integer(seed, "seed", 0)
    if k < 0:
        raise InputError("factor count must be non-negative")
    members = tuple(random_projections_in(algebra, [derive_seed(seed, i) for i in range(k)]))
    return FactorList(shift, members).assemble(algebra)
