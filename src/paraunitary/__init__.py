"""Pure paraunitary groups of finite-dimensional matrix *-algebras.

Factor pure paraunitary Laurent operator polynomials into degree-one
projection factors, decide the divisibility order, compute lattice
meets and joins as greedy gcds of elementary factors, and
machine-verify the axioms that make the group the structure group of
the projection orthomodular lattice of the commutant.

The error classes, ``LaurentOp`` and the single axiom checks are
imported from their modules (``numfield``, ``laurent``, ``axioms``).
"""

from .numfield import (
    Subspace,
    Tolerances,
    join_subspace,
    kernel,
    meet_subspace,
    ortho_complement,
    orthonormal_basis,
    tolerance_scope,
    tolerances,
)
from .star_algebra import (
    StarAlgebra,
    certify_member,
    check_orthomodular,
    commutant,
    generate_algebra,
    is_member_XAprime,
    partial_oplus,
    random_projection_in,
)
from .laurent import (
    PpuElement,
    in_positive_cone,
    is_paraunitary,
    is_pure,
    ppu_t_power,
    twist_alpha,
)
from .ppu import (
    FactorList,
    complement_in_t,
    factor_positive,
    gamma_inverse,
    join,
    leq,
    meet,
    p_of,
    random_ppu,
)
from .axioms import CHECK_NAMES
from .reporting import derive_seed

__all__ = [
    "CHECK_NAMES",
    "FactorList",
    "PpuElement",
    "StarAlgebra",
    "Subspace",
    "Tolerances",
    "certify_member",
    "check_orthomodular",
    "commutant",
    "complement_in_t",
    "derive_seed",
    "factor_positive",
    "gamma_inverse",
    "generate_algebra",
    "in_positive_cone",
    "is_member_XAprime",
    "is_paraunitary",
    "is_pure",
    "join",
    "join_subspace",
    "kernel",
    "leq",
    "meet",
    "meet_subspace",
    "ortho_complement",
    "orthonormal_basis",
    "p_of",
    "partial_oplus",
    "ppu_t_power",
    "random_ppu",
    "random_projection_in",
    "tolerance_scope",
    "tolerances",
    "twist_alpha",
]
