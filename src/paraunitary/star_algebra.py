"""Generated unital *-closed matrix algebras and their invariant subspaces.

An algebra is carried by a linear basis that is orthonormal under the
trace inner product ``<a, b> = tr(a^* b)``; no block-decomposition
structure theory is ever assumed.  The lattice of subspaces invariant
under the commutant (equivalently: whose projector lies in the algebra)
is the orthomodular lattice all higher layers are built on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .numfield import (
    InputError,
    NumericalError,
    Subspace,
    as_matrix,
    frob,
    join_subspace,
    kernel,
    mat_residual,
    meet_subspace,
    ortho_complement,
    orthonormal_basis,
    subspace_residual,
    tolerances,
    zero_subspace,
)
from .reporting import CheckReport, derive_seed

# relative eigenvalue-gap threshold for grouping spectral projections
CLUSTER_GAP = 1e-6


def _stack(n: int, mats) -> np.ndarray:
    """Read-only ``(k, n, n)`` copy of finite complex ``n x n`` matrices."""
    mats = [as_matrix(m) for m in mats]
    if any(m.shape != (n, n) for m in mats):
        raise InputError("algebra elements must be square of the ambient size")
    stack = np.array(mats, dtype=np.complex128).reshape(len(mats), n, n)
    stack.flags.writeable = False
    return stack


class StarAlgebra:
    """Unital *-closed subalgebra of n x n complex matrices.

    Held as two read-only ``(k, n, n)`` arrays, copied from the caller's:
    ``generators`` and a trace-orthonormal ``basis``.  Invariant: the
    basis spans the unital *-closure of the generators.
    ``generate_algebra`` establishes it by construction; a caller who
    builds an instance directly must supply such a pair, because the
    commutant is computed from the generators alone.  Neither array can
    change, so the commutant and the certified identity are cached on the
    instance.
    """

    def __init__(self, dim: int, generators, basis):
        self.dim = int(dim)
        self.generators = _stack(self.dim, generators)
        self.basis = _stack(self.dim, basis)
        # rows are trace-orthonormal iff they are orthonormal as vectors
        self._vec = self.basis.reshape(len(self.basis), self.dim * self.dim)
        gram = self._vec.conj() @ self._vec.T
        if mat_residual(gram, np.eye(len(self.basis))) > tolerances().eq:
            raise InputError("algebra basis is not trace-orthonormal")
        if self.membership_residual(np.eye(self.dim)) > tolerances().eq:
            raise InputError("identity is not in the span of the basis")
        self._commutant = None
        # the certified identity group element, kept by laurent.ppu_t_power
        self._identity = None

    @property
    def linear_dim(self) -> int:
        return len(self.basis)

    def membership_residual(self, x) -> float:
        """Largest ||x - pi(x)||_F / max(1, ||x||_F) over a matrix or a stack of them.

        pi is the orthogonal projection onto the algebra.  A ``(t, n, n)``
        stack is projected in one product; an empty one gives 0.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim not in (2, 3) or x.shape[-2:] != (self.dim, self.dim):
            raise InputError("dimension mismatch")
        if not np.isfinite(x).all():
            raise InputError("matrix has non-finite entries")
        flat = x.reshape(-1, self.dim * self.dim)
        projection = (flat @ self._vec.conj().T) @ self._vec
        residuals = np.linalg.norm(flat - projection, axis=1) / np.maximum(
            1.0, np.linalg.norm(flat, axis=1)
        )
        return float(residuals.max(initial=0.0))

    @property
    def commutant(self) -> "StarAlgebra":
        if self._commutant is None:
            self._commutant = commutant(self)
        return self._commutant

    def same_span(self, other: "StarAlgebra") -> bool:
        if self.dim != other.dim or self.linear_dim != other.linear_dim:
            return False
        return other.membership_residual(self.basis) <= tolerances().eq

    def require_same(self, other: "StarAlgebra") -> "StarAlgebra":
        """This algebra if ``other`` spans the same one, else ``InputError``."""
        if self is other or self.same_span(other):
            return self
        raise InputError("operands belong to different algebras")

    def hermitian_sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random self-adjoint element (Gaussian coefficients on the basis)."""
        c = rng.standard_normal(self.linear_dim) + 1j * rng.standard_normal(self.linear_dim)
        x = (c @ self._vec).reshape(self.dim, self.dim)
        return (x + x.conj().T) / 2.0

    def __repr__(self):
        return f"StarAlgebra(dim={self.dim}, linear_dim={self.linear_dim})"


def _seed_span(n: int, gens) -> np.ndarray:
    """Trace-orthonormal basis of span{1, g, g^* : g in gens}, one vec per row.

    Each nonzero generator is divided by its largest absolute entry first,
    so the rank decision sees every generator at the scale of the identity,
    whatever its norm, and no norm overflows.
    """
    unit = [g / peak for g in gens if (peak := np.abs(g).max(initial=0.0)) > 0.0]
    mats = [np.eye(n)] + [m for g in unit for m in (g, g.conj().T)]
    return orthonormal_basis(np.reshape(mats, (len(mats), n * n)).T).frame.T


def generate_algebra(n: int, gens) -> StarAlgebra:
    """Smallest unital *-closed algebra containing the generators.

    The span V starts as the trace-orthonormal seed S = span{1, g, g^*}.
    Each round multiplies by S, on the left, only the directions that the
    previous round added (in the first round, S itself): S times an older
    direction was taken in an earlier round and lies in V already.  It
    projects V out of these products twice and appends the directions of
    the residual that pass the rank cutoff.  The first round that keeps
    nothing ends the loop and is its certificate: V then contains 1 and S
    and is closed under left multiplication by S, so it holds every word
    in the g and g^*, which is the unital *-closure.  So is a span of all
    n^2 directions, which is M_n: the loop stops there without a round.
    Every other round adds at least one dimension, so at most n^2 rounds
    run.

    The cutoff is relative to the scale of the products (at least 1),
    never to the residual's own largest singular value, which may be
    rounding noise when V already holds every product.  A direction kept
    at singular value s is known only to a relative error of about
    eps * scale / s, and that error re-enters the next round's residual;
    once it can pass the rank cutoff, noise could be kept as a new
    direction and V would be a left module over the closure rather than
    the closure.  Such a round raises ``NumericalError``.
    """
    gens = [as_matrix(g) for g in gens]
    for g in gens:
        if g.shape != (n, n):
            raise InputError("generators must be n x n")
    span = _seed_span(n, gens)
    seed = added = span.reshape(-1, n, n)
    while len(span) < n * n:
        products = np.einsum("aij,bjk->abik", seed, added).reshape(-1, n * n)
        scale = max(1.0, frob(products))
        for _ in range(2):
            products = products - (products @ span.conj().T) @ span
        kept = orthonormal_basis(products.T, scale).frame.T
        if not len(kept):
            break
        # the kept singular values are the row norms of U^H R = Sigma W^H
        weakest = np.linalg.norm(kept.conj() @ products.T, axis=1).min()
        if weakest * tolerances().rank <= np.finfo(float).eps * scale:
            raise NumericalError(
                f"algebra closure is ambiguous: a new direction at {weakest / scale:.1e} "
                "of its products is too weak to tell its successors from rounding noise"
            )
        span = np.vstack([span, kept])
        added = kept.reshape(-1, n, n)
    return StarAlgebra(n, gens, span.reshape(-1, n, n))


def commutant(a: StarAlgebra) -> StarAlgebra:
    """All matrices commuting with the algebra.

    Solves x g = g x for every g of a fixed family as one stacked kernel
    problem: in row-major vec, x -> gx - xg has the entry
    g[i, p] d[j, q] - d[i, p] g[q, j] at row (i, j), column (p, q), with d
    the Kronecker delta.
    The algebra is the unital *-closure of its generators, and whatever
    commutes with g and g^* commutes with every product of them, so the
    generators and their adjoints fix the same commutant as the whole
    basis.  They enter through the span that seeds ``generate_algebra``,
    so a generator the closure dropped as numerically scalar is dropped
    here too, whatever its norm.  The identity commutes with everything,
    so only the traceless part of that span is stacked: at most
    2 |gens| n^2 rows, which is 98 instead of 2401 for full M_7.
    """
    n = a.dim
    eye = np.eye(n, dtype=np.complex128)
    seed = _seed_span(n, a.generators).reshape(-1, n, n)
    traceless = seed - np.trace(seed, axis1=1, axis2=2)[:, None, None] / n * eye
    fixed = orthonormal_basis(traceless.reshape(-1, n * n).T).frame.T.reshape(-1, n, n)
    stacked = (
        np.einsum("aip,jq->aijpq", fixed, eye) - np.einsum("ip,aqj->aijpq", eye, fixed)
    ).reshape(-1, n * n)
    basis = kernel(stacked).frame.T.reshape(-1, n, n)
    return StarAlgebra(n, basis, basis)


@dataclasses.dataclass(frozen=True, eq=False)
class InvariantSubspace:
    """A certified member of the invariant-subspace lattice of an algebra."""

    subspace: Subspace
    algebra: StarAlgebra


def is_member_XAprime(a: StarAlgebra, s: Subspace) -> bool:
    """Does the subspace belong to the lattice X(A')?

    Two criteria are evaluated: the projector lies in the algebra, and
    the subspace is invariant under a basis of the commutant.  They must
    agree; a disagreement beyond tolerance is a numerical inconsistency.
    """
    if s.ambient_dim != a.dim:
        raise InputError("ambient dimension mismatch")
    proj_residual = a.membership_residual(s.projector())
    by_projector = proj_residual <= tolerances().eq
    # worst relative ||(I - pi_s) c f||_F / max(1, ||c f||_F), f the frame,
    # over the commutant basis c, in one stacked product
    inv_residual = 0.0
    if s.dim > 0:
        moved = a.commutant.basis @ s.frame
        outside = moved - s.frame @ (s.frame.conj().T @ moved)
        ratios = np.linalg.norm(outside, axis=(1, 2)) / np.maximum(
            1.0, np.linalg.norm(moved, axis=(1, 2))
        )
        inv_residual = float(ratios.max())
    by_invariance = inv_residual <= tolerances().eq
    if by_projector != by_invariance:
        raise NumericalError(
            "membership criteria disagree: projector residual "
            f"{proj_residual:.3e}, invariance residual {inv_residual:.3e}"
        )
    return by_projector


def certify_member(a: StarAlgebra, s: Subspace) -> InvariantSubspace:
    if not is_member_XAprime(a, s):
        raise InputError("subspace is not a member of the invariant lattice")
    return InvariantSubspace(s, a)


def random_projection_in(a: StarAlgebra, seed: int) -> InvariantSubspace:
    """Seeded random member of X(A').

    Draws a random self-adjoint element of the algebra, groups its
    eigenvalues into clusters separated by more than CLUSTER_GAP times
    the spectral spread, and keeps a random subset of the cluster
    eigenspaces.  The result always certifies; degenerate draws are
    retried up to 16 times.
    """
    for attempt in range(16):
        rng = np.random.default_rng([int(seed), attempt])
        h = a.hermitian_sample(rng)
        vals, vecs = np.linalg.eigh(h)
        spread = float(vals[-1] - vals[0]) if vals.size else 0.0
        if spread <= 1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0))):
            clusters = [list(range(a.dim))]
        else:
            clusters = [[0]]
            for i in range(1, a.dim):
                if vals[i] - vals[i - 1] > CLUSTER_GAP * spread:
                    clusters.append([])
                clusters[-1].append(i)
        chosen = rng.integers(0, 2, size=len(clusters)).astype(bool)
        cols = [vecs[:, idx] for c, keep in zip(clusters, chosen) if keep for idx in c]
        sub = (
            Subspace(np.column_stack(cols)) if cols else zero_subspace(a.dim)
        )
        try:
            return certify_member(a, sub)
        except (InputError, NumericalError):
            continue
    raise NumericalError("no certified spectral projection after 16 attempts")


def oml_meet(m: InvariantSubspace, n: InvariantSubspace) -> InvariantSubspace:
    a = m.algebra.require_same(n.algebra)
    return certify_member(a, meet_subspace(m.subspace, n.subspace))


def oml_join(m: InvariantSubspace, n: InvariantSubspace) -> InvariantSubspace:
    a = m.algebra.require_same(n.algebra)
    return certify_member(a, join_subspace(m.subspace, n.subspace))


def oml_complement(m: InvariantSubspace) -> InvariantSubspace:
    return certify_member(m.algebra, ortho_complement(m.subspace))


def is_perp(m: InvariantSubspace, n: InvariantSubspace) -> bool:
    """||M^H N||_F <= eq for the frames, which is ||pi_M pi_N||_F <= eq."""
    m.algebra.require_same(n.algebra)
    return frob(m.subspace.frame.conj().T @ n.subspace.frame) <= tolerances().eq


def partial_oplus(m: InvariantSubspace, n: InvariantSubspace):
    """Orthogonal sum; returns None when the operands are not orthogonal.

    Undefinedness is a first-class outcome of the partial operation, not
    an error.
    """
    if not is_perp(m, n):
        return None
    return oml_join(m, n)


def check_orthomodular(a: StarAlgebra, samples: int, seed: int) -> CheckReport:
    """Sampled orthomodular law: m <= n implies m v (m* ^ n) = n."""
    from .jsonio import subspace_to_json

    report = CheckReport("orthomodular", samples, seed)
    for i in range(samples):
        n_member = random_projection_in(a, derive_seed(seed, i, 0))
        m_raw = random_projection_in(a, derive_seed(seed, i, 1))
        m_sub = meet_subspace(m_raw.subspace, n_member.subspace)
        lhs = join_subspace(
            m_sub, meet_subspace(ortho_complement(m_sub), n_member.subspace)
        )
        report.record(
            subspace_residual(lhs, n_member.subspace),
            lambda m=m_sub, n=n_member: {
                "m": subspace_to_json(m),
                "n": subspace_to_json(n.subspace),
            },
        )
    return report
