"""Generated unital *-closed matrix algebras and their invariant subspaces.

An algebra is carried by a linear basis that is orthonormal under the
trace inner product ``<a, b> = tr(a^* b)``; no block decomposition is
ever computed, and the structure theorem enters only the proof that the
commutant is the range of one Hermitian map.  The lattice of subspaces
invariant under the commutant (equivalently: whose projector lies in the
algebra) is the orthomodular lattice all higher layers are built on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .numfield import (
    InputError,
    NumericalError,
    Subspace,
    _immutable,
    _rank_from_singular_values,
    as_integer,
    as_matrix,
    frob,
    identity,
    join_subspace,
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
# seed of the one Hermitian sample whose eigenspaces are an abelian
# algebra's atoms
ATOM_SEED = 0
# an algebra's atoms before they are first asked for
_PENDING = object()


def _stack(n: int, mats) -> np.ndarray:
    """Read-only ``(k, n, n)`` copy of finite complex ``n x n`` matrices."""
    try:
        stack = np.array(mats, dtype=np.complex128)
    except (TypeError, ValueError) as exc:  # ragged or not numeric
        raise InputError("algebra elements must be square of the ambient size") from exc
    if stack.shape == (0,):
        stack = stack.reshape(0, n, n)
    if stack.ndim != 3 or stack.shape[1:] != (n, n):
        raise InputError("algebra elements must be square of the ambient size")
    if not np.isfinite(stack).all():
        raise InputError("matrix has non-finite entries")
    stack.flags.writeable = False
    return stack


class StarAlgebra:
    """Unital *-closed subalgebra of n x n complex matrices.

    Held as two read-only ``(k, n, n)`` arrays, copied from the caller's:
    ``generators`` and a trace-orthonormal ``basis``.  Invariant: the
    basis spans the unital *-closure of the generators.
    ``generate_algebra`` establishes it by construction; a caller who
    builds an instance directly must supply such a pair, because the
    commutant is computed from the basis and only checked against the
    generators, which cannot catch a basis larger than their closure.
    Neither array can change and an instance is immutable, so the
    commutant, the atoms and the certified identity are cached on it,
    and the basis is kept as rows ``_vec`` and their conjugate transpose
    ``_vec_h``, both read-only.
    """

    __slots__ = ("dim", "generators", "basis", "_vec", "_vec_h", "_commutant", "_atoms",
                 "_identity")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, dim: int, generators, basis):
        dim = as_integer(dim, "dimension", 1)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", _stack(dim, generators))
        object.__setattr__(self, "basis", _stack(dim, basis))
        # rows are trace-orthonormal iff they are orthonormal as vectors
        object.__setattr__(self, "_vec", self.basis.reshape(len(self.basis), dim * dim))
        vec_h = self._vec.conj().T
        vec_h.flags.writeable = False
        object.__setattr__(self, "_vec_h", vec_h)
        object.__setattr__(self, "_commutant", None)
        object.__setattr__(self, "_atoms", _PENDING)
        # the certified identity group element, kept by laurent.ppu_t_power
        object.__setattr__(self, "_identity", None)
        gram = self._vec.conj() @ self._vec.T
        # NaN fails too
        if not mat_residual(gram, np.eye(len(self.basis))) <= tolerances().eq:
            raise InputError("algebra basis is not trace-orthonormal")
        if not self.membership_residual(identity(self.dim)) <= tolerances().eq:
            raise InputError("identity is not in the span of the basis")

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
        return float(self._membership_residuals(flat).max(initial=0.0))

    def _membership_residuals(self, flat: np.ndarray) -> np.ndarray:
        """||x - pi(x)||_F / max(1, ||x||_F) for each row-major vec x, a row of ``flat``."""
        projection = (flat @ self._vec_h) @ self._vec
        return frob(flat - projection, axis=1) / np.maximum(1.0, frob(flat, axis=1))

    @property
    def commutant(self) -> "StarAlgebra":
        if self._commutant is None:
            object.__setattr__(self, "_commutant", commutant(self))
        return self._commutant

    @property
    def atoms(self) -> "Atoms | None":
        """The certified atoms if the algebra is abelian, else ``None``."""
        if self._atoms is _PENDING:
            object.__setattr__(self, "_atoms", abelian_atoms(self))
        return self._atoms

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


def _peak_scaled(gens) -> list[np.ndarray]:
    """Each nonzero generator divided by its largest absolute entry.

    The closure's rank decision and the commutant's certificate see every
    generator at the scale of the identity, whatever its norm, and no
    norm overflows.
    """
    return [g / peak for g in gens if (peak := np.abs(g).max(initial=0.0)) > 0.0]


def _eigen_clusters(h: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Eigenvectors of a Hermitian matrix, as columns in ascending eigenvalue,
    and the index lists of its eigenvalue clusters: a new cluster starts
    where the gap exceeds CLUSTER_GAP times the spectral spread, and a
    spread at rounding level leaves one cluster."""
    vals, vecs = np.linalg.eigh(h)
    n = len(vals)
    spread = float(vals[-1] - vals[0]) if vals.size else 0.0
    if spread <= 1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0))):
        return vecs, [list(range(n))]
    clusters = [[0]]
    for i in range(1, n):
        if vals[i] - vals[i - 1] > CLUSTER_GAP * spread:
            clusters.append([])
        clusters[-1].append(i)
    return vecs, clusters


def _seed_span(n: int, gens) -> np.ndarray:
    """Trace-orthonormal basis of span{1, g, g^* : g in gens}, one vec per row."""
    mats = [np.eye(n)] + [m for g in _peak_scaled(gens) for m in (g, g.conj().T)]
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
    n = as_integer(n, "dimension", 1)
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
        weakest = frob(kept.conj() @ products.T, axis=1).min()
        if weakest * tolerances().rank <= np.finfo(float).eps * scale:
            raise NumericalError(
                f"algebra closure is ambiguous: a new direction at {weakest / scale:.1e} "
                "of its products is too weak to tell its successors from rounding noise"
            )
        span = np.vstack([span, kept])
        added = kept.reshape(-1, n, n)
    return StarAlgebra(n, gens, span.reshape(-1, n, n))


def commutant(a: StarAlgebra) -> StarAlgebra:
    """All matrices commuting with the algebra: the range of Phi(x) = sum_b b x b^*.

    b runs over the trace-orthonormal basis, and Phi does not depend on
    which one.  In row-major vec, Phi has the entry
    sum_b b[i, p] conj(b[j, q]) at row (i, j), column (p, q): one
    ``(n^2, L) @ (L, n^2)`` product whose axes are then reshuffled.  With
    the algebra written as the sum of the M_{d_k} (x) 1_{m_k}, Phi is
    self-adjoint, vanishes off the commutant, and on its summand
    1_{d_k} (x) M_{m_k} equals d_k / m_k >= 1/n.  So its spectrum lies in
    {0} and [1/n, n], and the eigenvectors of one ``eigh`` that pass the
    rank cutoff are an orthonormal basis of the commutant.

    Two checks certify the answer, each raising ``NumericalError``: no
    kept eigenvalue may lie below 1/(2n), and every kept direction must
    commute, within ``eq``, with every generator divided by its largest
    entry, which ties the commutant to the generators.
    """
    n = a.dim
    # one expression, so the product is freed once it has been reshuffled
    phi = (a._vec.T @ a._vec.conj()).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, -1)
    vals, vecs = np.linalg.eigh(phi)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rank = _rank_from_singular_values(vals)
    if rank and vals[rank - 1] < 0.5 / n:
        raise NumericalError(
            f"commutant is ambiguous: Phi has an eigenvalue {vals[rank - 1]:.1e} "
            f"between the rank cutoff and 1/(2n) = {0.5 / n:.1e}"
        )
    basis = vecs[:, :rank].T.reshape(rank, n, n)
    # one batched product per generator, so memory does not grow with their
    # count; np.max, unlike max, keeps a NaN, which then fails the test
    residual = float(np.max([
        frob(g @ basis - basis @ g, axis=(1, 2)).max(initial=0.0)
        for g in _peak_scaled(a.generators)
    ], initial=0.0))
    if not residual <= tolerances().eq:
        raise NumericalError(
            f"commutant does not commute with the generators: residual {residual:.3e}"
        )
    return StarAlgebra(n, basis, basis)


@dataclasses.dataclass(frozen=True, eq=False)
class Atoms:
    """The minimal projections E_i of an abelian algebra, a basis of it.

    ``frames[i]`` is an orthonormal ``n x m_i`` frame of the range of
    E_i, and the frames side by side are unitary, so the E_i are
    orthogonal and sum to the identity.  ``projectors`` is the read-only
    ``(k, n, n)`` stack of the E_i, ``ranks`` holds the m_i, and ``dual``
    is the ``(n^2, k)`` matrix that takes row-major vecs x to the
    coordinates ``tr(E_i x) / m_i``.  No entry is a negative zero.
    """

    frames: tuple[np.ndarray, ...]
    projectors: np.ndarray
    ranks: np.ndarray
    dual: np.ndarray


def abelian_atoms(a: StarAlgebra) -> Atoms | None:
    """The algebra's atoms, certified, or ``None`` if it is not abelian.

    No abelian subalgebra of M_n has dimension above n, and an algebra is
    abelian iff its generators and their adjoints commute (at the scale of
    their largest entries, within ``eq``).  The atoms are then the joint
    eigenspaces of the generators' Hermitian and skew parts: the
    eigenvalue clusters of one real combination of those parts drawn from
    ATOM_SEED.  Built from the generators, not the basis, diagonal
    generators give atoms with exact 0/1 entries.  They are kept only if
    there are as many as the algebra's dimension, each E_i lies in the
    algebra within ``eq`` and the frames are orthonormal; otherwise (two
    atoms in one cluster, say) the answer is ``None`` and callers peel.
    """
    n, eq = a.dim, tolerances().eq
    if a.linear_dim > n:
        return None
    gens = _peak_scaled(a.generators)
    mats = [m for g in gens for m in (g, g.conj().T)]
    for i, x in enumerate(mats):
        for y in mats[i + 1:]:
            if not frob(x @ y - y @ x) <= eq:
                return None
    parts = [m for g in gens for m in ((g + g.conj().T) / 2, (g - g.conj().T) / 2j)]
    weights = np.random.default_rng(ATOM_SEED).standard_normal(len(parts))
    sample = np.tensordot(weights, parts, axes=1) if parts else np.zeros((n, n))
    vecs, clusters = _eigen_clusters(sample)
    if len(clusters) != a.linear_dim:
        return None
    # adding 0.0 turns every negative zero into a positive one
    vecs = vecs + 0.0
    frames = tuple(vecs[:, c] for c in clusters)
    projectors = np.stack([f @ f.conj().T for f in frames]) + 0.0
    if not (mat_residual(vecs.conj().T @ vecs, identity(n)) <= eq
            and a.membership_residual(projectors) <= eq):
        return None
    ranks = np.array([f.shape[1] for f in frames])
    dual = projectors.conj().reshape(len(frames), n * n).T / ranks
    for array in (*frames, projectors, ranks, dual):
        array.flags.writeable = False
    return Atoms(frames, projectors, ranks, dual)


@dataclasses.dataclass(frozen=True, eq=False)
class InvariantSubspace:
    """A certified member of the invariant-subspace lattice of an algebra."""

    subspace: Subspace
    algebra: StarAlgebra


def _first_nonmember(a: StarAlgebra, subspaces: list[Subspace]) -> int | None:
    """Index of the first subspace outside the lattice X(A'), or ``None``.

    Two criteria are evaluated for every subspace, each in one stacked
    product: its projector lies in the algebra (the stacked projectors
    times the basis), and it is invariant under a basis of the commutant
    (every basis element times every projector).  They must agree; the
    first subspace, in order, on which they disagree beyond tolerance is a
    ``NumericalError``, unless a non-member comes before it.
    """
    if any(s.ambient_dim != a.dim for s in subspaces):
        raise InputError("ambient dimension mismatch")
    if not subspaces:
        return None
    n, r, eq = a.dim, len(subspaces), tolerances().eq
    projectors = np.array([s.projector() for s in subspaces])
    proj_residuals = a._membership_residuals(projectors.reshape(r, n * n)).tolist()
    inv_residuals = [0.0] * r
    if any(s.dim for s in subspaces):  # the zero subspace is invariant, without the commutant
        # worst relative ||(I - pi) c pi||_F / max(1, ||c pi||_F) over the
        # commutant basis c: ||x pi||_F = ||x f||_F for an orthonormal frame f
        moved = a.commutant.basis @ projectors[:, None]
        outside = moved - projectors[:, None] @ moved
        ratios = frob(outside, axis=(2, 3)) / np.maximum(1.0, frob(moved, axis=(2, 3)))
        inv_residuals = ratios.max(axis=1).tolist()
    for i, (proj_residual, inv_residual) in enumerate(zip(proj_residuals, inv_residuals)):
        by_projector = proj_residual <= eq
        if by_projector != (inv_residual <= eq):
            raise NumericalError(
                "membership criteria disagree: projector residual "
                f"{proj_residual:.3e}, invariance residual {inv_residual:.3e}"
            )
        if not by_projector:
            return i
    return None


def is_member_XAprime(a: StarAlgebra, s: Subspace) -> bool:
    """Does the subspace belong to the lattice X(A')?

    The one-subspace case of ``certify_members``: its projector must lie
    in the algebra, and the subspace must be invariant under a basis of
    the commutant.  A disagreement of the two criteria beyond tolerance
    is a numerical inconsistency.
    """
    return _first_nonmember(a, [s]) is None


def certify_members(a: StarAlgebra, subspaces) -> list[InvariantSubspace]:
    """Certify subspaces as members of X(A'), all in one stacked test.

    Raises for the first subspace, in order, that fails: ``NumericalError``
    where the two criteria of ``is_member_XAprime`` disagree on it,
    otherwise ``InputError`` whose ``index`` is its position.
    """
    subspaces = list(subspaces)
    i = _first_nonmember(a, subspaces)
    if i is not None:
        error = InputError("subspace is not a member of the invariant lattice")
        error.index = i
        raise error
    return [InvariantSubspace(s, a) for s in subspaces]


def certify_member(a: StarAlgebra, s: Subspace) -> InvariantSubspace:
    return certify_members(a, [s])[0]


def random_projection_in(a: StarAlgebra, seed: int) -> InvariantSubspace:
    """Seeded random member of X(A').

    Draws a random self-adjoint element of the algebra, groups its
    eigenvalues into clusters separated by more than CLUSTER_GAP times
    the spectral spread, and keeps a random subset of the cluster
    eigenspaces.  The result always certifies; degenerate draws are
    retried up to 16 times.
    """
    seed = as_integer(seed, "seed", 0)
    for attempt in range(16):
        rng = np.random.default_rng([seed, attempt])
        vecs, clusters = _eigen_clusters(a.hermitian_sample(rng))
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
            {"m": m_sub, "n": n_member.subspace},
        )
    return report
