"""Fixed reference kernels that track the speed of the host's core.

On a shared host the speed of one core drifts by up to 2x within a
minute, while CPU time keeps tracking wall time: the process is not
descheduled, it runs slower, because other tenants load the same physical
core.  A run is too short to average that drift out, so the benchmark
measures it: between operations, outside the timed region, it times a
reference kernel, and it scales each operation's time by the kernel's
nominal time over the median of its latest times.  Timings are thus
reported at a nominal host speed.  The kernels never call the package,
so a change to the package leaves the scale alone and shows in full in
the scaled timings.  The unscaled timings are in the report line.

The drift slows different kinds of work by different amounts, so each
workload names the kernel that resembles the work it spends its time on:

- ``convolution``: the Cauchy product of two 16-term Laurent polynomials
  with 6 x 6 complex coefficients, accumulated in a dict, as
  ``LaurentOp.__mul__`` does (interpreted Python around tiny matrix
  products);
- ``tall_svd``: the thin SVD of a 2401 x 49 complex matrix, the shape of
  the commutant kernel of M_7 (LAPACK on a matrix beyond the L2 cache).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Sample the reference before an operation once this long has passed
# since the last sample.
EVERY_S = 0.05
# Scale by the median of this many latest samples.
WINDOW = 3


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _convolution(rng: np.random.Generator):
    left = [_complex(rng, (6, 6)) for _ in range(16)]
    right = [_complex(rng, (6, 6)) for _ in range(16)]

    def run() -> None:
        acc: dict[int, np.ndarray] = {}
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                prod = a @ b
                acc[i + j] = acc[i + j] + prod if i + j in acc else prod

    return run


def _tall_svd(rng: np.random.Generator):
    m = _complex(rng, (2401, 49))
    return lambda: np.linalg.svd(m, full_matrices=False)


# kernel name -> (builder, nominal time: its median on the baseline host
# of bench/README.md, so that scaled timings read close to that host's
# wall-clock times)
KERNELS = {
    "convolution": (_convolution, 0.0009),
    "tall_svd": (_tall_svd, 0.014),
}


class Reference:
    def __init__(self, kernel: str, clock=time.perf_counter):
        build, self.nominal_s = KERNELS[kernel]
        self._run = build(np.random.default_rng(20010775))
        self._clock = clock
        self.times: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = self._clock()
        self._run()
        self._last = self._clock()
        self.times.append(self._last - t0)

    def sample_window(self) -> None:
        """Fresh samples for the whole window, before a longer timed step."""
        for _ in range(WINDOW):
            self.sample()

    def maybe_sample(self) -> None:
        if self._clock() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Nominal time over the median of the latest samples."""
        return self.nominal_s / statistics.median(self.times[-WINDOW:])
