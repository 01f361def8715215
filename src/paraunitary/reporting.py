"""Deterministic verification reports and seed derivation.

All randomness in the package flows from user-supplied integer seeds
through NumPy's SeedSequence/PCG64; child seeds are derived from an
index path so that every sample is reproducible in isolation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .numfield import InputError, tolerances


def derive_seed(*path: int) -> int:
    """Deterministic child seed from a root seed and an index path."""
    entries = [int(p) for p in path]
    if any(p < 0 for p in entries):
        raise InputError("seeds and seed-path entries must be non-negative")
    return int(np.random.SeedSequence(entries).generate_state(1, dtype=np.uint64)[0])


MIN_EFFECTIVE_SAMPLES = 20


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

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def inconclusive(self) -> bool:
        return self.effective < MIN_EFFECTIVE_SAMPLES

    def record(self, residual: float, payload) -> None:
        """Register one effective sample; ``payload()`` is kept on failure only.

        ``payload`` is a callable, so that counterexample serialization is
        paid for only when a sample actually fails.
        """
        self.effective += 1
        residual = float(residual)
        self.max_error = max(self.max_error, residual)
        if residual > tolerances().eq:
            self.failures.append({"residual": residual, "input": payload()})

    def record_flag(self, ok: bool, payload) -> None:
        """Register a boolean law instance (no numeric residual)."""
        self.effective += 1
        if not ok:
            self.failures.append({"input": payload()})

    def skip_vacuous(self) -> None:
        self.vacuous += 1

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
            "max_error": self.max_error,
            "failures": self.failures,
            "vacuous": self.vacuous,
            "inconclusive": self.inconclusive,
        }
