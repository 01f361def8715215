"""Closed-loop timing, failure classification and percentile rules.

One caller runs the operations of a workload in order; the next starts
when the previous one returns.  Only the call is timed.  Its answer is
checked afterwards, outside the timed region.  Each time is also kept
scaled to a nominal host speed (``speed.py``); the reported timings are
the scaled ones.

An operation fails in exactly one class, decided in this order:

- it raised: the class is the exception type (``NumericalError``, or
  ``InputError``, which on the valid inputs used here is a wrong error
  class);
- it was a CLI call that exited non-zero: ``exit_<code>``;
- it returned, but the oracle rejected the answer: ``oracle_reject``.
  These are the wrong answers.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Callable

WRONG = "oracle_reject"

# Report a percentile only when at least this many samples lie beyond it.
MIN_BEYOND = 10


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed call and the check of its answer.

    ``check`` returns ``None`` when the answer is right, otherwise a pair
    ``(failure class, detail)``.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, str] | None]


@dataclasses.dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float
    failure: str | None = None
    detail: str = ""
    # nominal over current host speed when the call ran
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def run_op(op: Op, clock=time.perf_counter) -> Outcome:
    t0 = clock()
    try:
        result = op.call()
    except Exception as exc:  # noqa: BLE001 - every raise is a classified failure
        return Outcome(op.label, clock() - t0, type(exc).__name__, str(exc)[:200])
    seconds = clock() - t0
    verdict = op.check(result)
    if verdict is None:
        return Outcome(op.label, seconds)
    return Outcome(op.label, seconds, verdict[0], verdict[1][:200])


def reject(detail: str | None) -> tuple[str, str] | None:
    """Turn an oracle's reason into a wrong-answer verdict."""
    return None if detail is None else (WRONG, detail)


def cli_verdict(code: int, stderr: str, oracle: Callable[[], str | None]):
    """Non-zero exit first; only a zero exit has an answer to check."""
    if code != 0:
        return f"exit_{code}", stderr.strip()
    return reject(oracle())


def run_loop(cycle_ops: Callable[[int], list[Op]], seconds: float,
             min_ok: int, cap_seconds: float, ref) -> list[Outcome]:
    """Run whole cycles of operations until ``seconds`` of wall time pass.

    Stopping only at cycle ends keeps the mix of operations the same in
    every run.  If fewer than ``min_ok`` operations have succeeded by
    then, cycles continue until they have or ``cap_seconds`` pass.
    ``ref`` (a ``speed.Reference``) samples the host speed between
    operations and gives each outcome its scale.
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        for op in cycle_ops(cycle):
            ref.maybe_sample()
            outcomes.append(dataclasses.replace(run_op(op), scale=ref.scale()))
        cycle += 1
        elapsed = time.perf_counter() - start
        ok = sum(1 for o in outcomes if o.failure is None)
        if elapsed >= seconds and (ok >= min_ok or elapsed >= cap_seconds):
            return outcomes


class TooFewSamples(Exception):
    """Fewer successful operations than a percentile's sample rule needs."""


def min_samples(q: float) -> int:
    """Fewest samples with at least MIN_BEYOND of them beyond quantile q."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(samples, q: float) -> float:
    """The q-quantile (linear interpolation), refused below the sample rule."""
    xs = sorted(samples)
    if len(xs) < min_samples(q):
        raise TooFewSamples(
            f"{len(xs)} samples: quantile {q} needs {min_samples(q)} "
            f"for {MIN_BEYOND} beyond it"
        )
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclasses.dataclass
class Summary:
    attempted: int
    ok: int
    wrong: int
    # timings scaled to the nominal host speed
    timed_s: float
    p50_ms: float
    p90_ms: float
    # the same, unscaled
    raw_timed_s: float
    raw_p50_ms: float
    raw_p90_ms: float
    failures: dict[str, int]
    failures_by_slice: dict[str, dict[str, int]]
    examples: dict[str, str]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def count_failures(outcomes: list[Outcome]):
    """Failures per class, per slice and class, and one example per class."""
    failures: dict[str, int] = {}
    by_slice: dict[str, dict[str, int]] = {}
    examples: dict[str, str] = {}
    for o in outcomes:
        if o.failure is None:
            continue
        failures[o.failure] = failures.get(o.failure, 0) + 1
        row = by_slice.setdefault(o.label, {})
        row[o.failure] = row.get(o.failure, 0) + 1
        examples.setdefault(o.failure, f"{o.label}: {o.detail}")
    return failures, by_slice, examples


def summarize(outcomes: list[Outcome]) -> Summary:
    ok_ms = [o.scaled_s * 1e3 for o in outcomes if o.failure is None]
    raw_ms = [o.seconds * 1e3 for o in outcomes if o.failure is None]
    failures, by_slice, examples = count_failures(outcomes)
    return Summary(
        attempted=len(outcomes),
        ok=len(ok_ms),
        wrong=failures.get(WRONG, 0),
        timed_s=sum(o.scaled_s for o in outcomes),
        p50_ms=percentile(ok_ms, 0.5),
        p90_ms=percentile(ok_ms, 0.9),
        raw_timed_s=sum(o.seconds for o in outcomes),
        raw_p50_ms=percentile(raw_ms, 0.5),
        raw_p90_ms=percentile(raw_ms, 0.9),
        failures=failures,
        failures_by_slice=by_slice,
        examples=examples,
    )
