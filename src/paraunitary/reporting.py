"""Deterministic verification reports and seed derivation.

All randomness in the package flows from user-supplied integer seeds
through NumPy's SeedSequence/PCG64; child seeds are derived from an
index path so that every sample is reproducible in isolation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .numfield import InputError, as_integer, tolerances


def derive_seed(*path: int) -> int:
    """Deterministic child seed from a root seed and an index path."""
    entries = [as_integer(p, "seed") for p in path]
    if any(p < 0 for p in entries):
        raise InputError("seeds and seed-path entries must be non-negative")
    return int(np.random.SeedSequence(entries).generate_state(1, dtype=np.uint64)[0])


MIN_EFFECTIVE_SAMPLES = 20


def _finite_or_none(value: float) -> float | None:
    """``value``, or ``None`` where JSON has no number for it."""
    return value if math.isfinite(value) else None


@dataclasses.dataclass
class CheckReport:
    """Outcome of one verification check, filled in sample by sample.

    A residual above the active equality tolerance is recorded as a
    failure, so the check passes iff no failures were recorded.  Samples
    whose hypothesis did not apply are counted in ``vacuous``; a check
    with fewer than ``MIN_EFFECTIVE_SAMPLES`` effective samples is
    ``inconclusive`` rather than passing by vacuity.
    """

    check: str
    samples: int
    seed: int
    max_error: float = 0.0
    failures: list = dataclasses.field(default_factory=list)
    vacuous: int = 0
    effective: int = 0

    def __post_init__(self):
        # every check makes its report first, so its arguments are checked here
        self.samples = as_integer(self.samples, "sample count", 0)
        self.seed = as_integer(self.seed, "seed", 0)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def inconclusive(self) -> bool:
        return self.effective < MIN_EFFECTIVE_SAMPLES

    def record(self, residual: float, payload: dict) -> None:
        """Register one effective sample; ``payload`` is kept on failure only.

        ``payload`` holds the sample's inputs as package values (subspaces,
        Laurent operators, integer lists), not as JSON.  A NaN residual is a
        failure and becomes the ``max_error`` for good: no later residual
        compares above it.
        """
        self.effective += 1
        residual = float(residual)
        if math.isnan(residual) or residual > self.max_error:
            self.max_error = residual
        if not residual <= tolerances().eq:
            self.failures.append({"residual": residual, "input": payload})

    def record_flag(self, ok: bool, payload: dict) -> None:
        """Register a boolean law instance (no numeric residual)."""
        self.effective += 1
        if not ok:
            self.failures.append({"input": payload})

    def skip_vacuous(self) -> None:
        self.vacuous += 1

    def to_json(self) -> dict:
        """The report as JSON; a NaN or infinite residual is written ``null``.

        Each failure's ``input`` stays as recorded: ``jsonio.canonical_dumps``
        writes the subspaces and Laurent operators it holds.
        """
        return {
            "check": self.check,
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
            "max_error": _finite_or_none(self.max_error),
            "failures": [
                {**f, "residual": _finite_or_none(f["residual"])} if "residual" in f else f
                for f in self.failures
            ],
            "vacuous": self.vacuous,
            "inconclusive": self.inconclusive,
        }
