"""Answer checks for the benchmark, written against plain NumPy.

The oracles never call into ``paraunitary``: they work on coefficient
arrays, frames and parsed JSON, so a defect in the package cannot hide
itself by also breaking its own check, and a traced run records no
spans for them.  A Laurent polynomial is a pair ``(lo, C)`` where
``C[i]`` is the ``n x n`` coefficient of ``t^(lo + i)``.
"""

from __future__ import annotations

import numpy as np

# The package's default equality tolerance (relative to max(1, norms)).
EQ = 1e-8


def dense(coeffs: dict, n: int) -> tuple[int, np.ndarray]:
    """``(lo, C)`` from an exponent -> matrix mapping."""
    if not coeffs:
        return 0, np.zeros((0, n, n), dtype=np.complex128)
    exps = sorted(int(e) for e in coeffs)
    lo = exps[0]
    out = np.zeros((exps[-1] - lo + 1, n, n), dtype=np.complex128)
    for e, c in coeffs.items():
        out[int(e) - lo] = c
    return lo, out


def product(a, b):
    (la, ca), (lb, cb) = a, b
    n = ca.shape[1] if ca.size else cb.shape[1]
    if len(ca) == 0 or len(cb) == 0:
        return 0, np.zeros((0, n, n), dtype=np.complex128)
    out = np.zeros((len(ca) + len(cb) - 1, n, n), dtype=np.complex128)
    for i, c in enumerate(ca):
        out[i : i + len(cb)] += c @ cb
    return la + lb, out


def star(a):
    lo, c = a
    return -(lo + len(c) - 1), c[::-1].conj().swapaxes(1, 2)


def norm(c: np.ndarray) -> float:
    return float(np.linalg.norm(c.ravel()))


def identity(n: int):
    return 0, np.eye(n, dtype=np.complex128)[None]


def diff_norm(a, b) -> float:
    """Absolute coefficientwise distance ||a - b||."""
    (la, ca), (lb, cb) = a, b
    n = ca.shape[1] if ca.size else cb.shape[1]
    lo = min(la, lb)
    hi = max(la + len(ca), lb + len(cb))
    diff = np.zeros((hi - lo, n, n), dtype=np.complex128)
    diff[la - lo : la - lo + len(ca)] += ca
    diff[lb - lo : lb - lo + len(cb)] -= cb
    return norm(diff)


def distance(a, b) -> float:
    """Relative coefficientwise distance, scaled by max(1, norms)."""
    return diff_norm(a, b) / max(1.0, norm(a[1]), norm(b[1]))


def negative_part(a) -> float:
    """Relative norm of the coefficients at negative exponents."""
    lo, c = a
    k = min(len(c), max(0, -lo))
    return norm(c[:k]) / max(1.0, norm(c))


def below_residual(m, x) -> float:
    """How far ``m <= x`` is from holding: the negative part of m* x."""
    return negative_part(product(star(m), x))


def paraunitarity_residual(a) -> float:
    """max(||a* a - 1||, ||a a* - 1||) / max(1, ||a||^2), as the package defines it."""
    one = identity(a[1].shape[1])
    worst = max(diff_norm(product(star(a), a), one), diff_norm(product(a, star(a)), one))
    return worst / max(1.0, norm(a[1]) ** 2)


def purity_residual(a) -> float:
    total = a[1].sum(axis=0)
    return float(np.linalg.norm(total - np.eye(len(total)))) / max(
        1.0, float(np.linalg.norm(total))
    )


def membership_residual(a, basis_rows: np.ndarray) -> float:
    """Worst coefficient distance from the span of a trace-orthonormal basis.

    ``basis_rows`` holds the flattened basis matrices as rows.
    """
    _, c = a
    if len(c) == 0:
        return 0.0
    flat = c.reshape(len(c), -1)
    inside = (flat @ basis_rows.conj().T) @ basis_rows
    worst = np.linalg.norm(flat - inside, axis=1) / np.maximum(
        1.0, np.linalg.norm(flat, axis=1)
    )
    return float(worst.max())


def elementary(frame: np.ndarray):
    """``t P + (1 - P)`` for the orthogonal projector onto the frame's span."""
    p = frame @ frame.conj().T
    return 0, np.stack([np.eye(len(p)) - p, p])


def assemble(shift: int, frames, n: int):
    """``t^-shift p_1 ... p_k`` from factor frames."""
    out = (-int(shift), np.eye(n, dtype=np.complex128)[None])
    for f in frames:
        out = product(out, elementary(f))
    return out


def top_exponent(a) -> int:
    return a[0] + len(a[1]) - 1


def check_group_element(a, basis_rows) -> str | None:
    """Reason ``a`` is not a pure paraunitary element of the algebra, if any."""
    for label, value in (
        ("membership", membership_residual(a, basis_rows)),
        ("paraunitarity", paraunitarity_residual(a)),
        ("purity", purity_residual(a)),
    ):
        if not value <= EQ:
            return f"{label} residual {value:.3e}"
    return None


def check_factors(shift: int, frames, element) -> str | None:
    """One factor per unit of degree of t^shift x, multiplying back to x."""
    n = element[1].shape[1]
    expected = top_exponent(element) + int(shift)
    if len(frames) != expected:
        return f"{len(frames)} factors, expected {expected}"
    d = distance(assemble(shift, frames, n), element)
    if not d <= EQ:
        return f"reassembly distance {d:.3e}"
    return None


def check_bound(result, operands, above: bool) -> str | None:
    """The result must lie below (or above) each operand, by residual."""
    for op in operands:
        r = below_residual(op, result) if above else below_residual(result, op)
        if not r <= EQ:
            side = "above" if above else "below"
            return f"not {side} an operand: negative-part residual {r:.3e}"
    return None


def check_commutant(basis, gens, expected_dim: int) -> str | None:
    """A trace-orthonormal basis of matrices commuting with every generator."""
    if len(basis) != expected_dim:
        return f"commutant dimension {len(basis)}, expected {expected_dim}"
    rows = np.stack([b.ravel() for b in basis])
    gram = rows.conj() @ rows.T
    if not np.linalg.norm(gram - np.eye(len(basis))) <= EQ * max(1.0, len(basis)):
        return "commutant basis is not trace-orthonormal"
    for g in gens:
        for c in basis:
            r = float(np.linalg.norm(g @ c - c @ g)) / max(
                1.0, float(np.linalg.norm(g)) * float(np.linalg.norm(c))
            )
            if not r <= EQ:
                return f"basis element fails to commute: residual {r:.3e}"
    return None


def check_reports(reports) -> str | None:
    """An axiom report passes: no failures and max_error within EQ.

    ``inconclusive`` is expected at one sample and is not a failure.
    """
    for r in reports:
        if r.failures:
            return f"{r.check}: {len(r.failures)} failures"
        if not r.max_error <= EQ:
            return f"{r.check}: max_error {r.max_error:.3e}"
    return None


# ---- wire formats, parsed without the package ----

def matrix_from_json(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=np.float64).reshape(obj["rows"], obj["cols"], 2)
    return data[..., 0] + 1j * data[..., 1]


def laurent_from_json(obj):
    coeffs = {int(e): matrix_from_json(m) for e, m in obj["coeffs"].items()}
    return dense(coeffs, int(obj["dim"]))
