"""Machine-speed probe, so that timings on a shared host can be compared.

On a small shared VM the same single-threaded work runs up to 1.5x slower
from one few-second stretch to the next, because other tenants contend for
the physical cores; raw wall times of repeated runs then spread by 20-30%.
The probe measures that drift while the workload runs: a SIGALRM timer
interrupts the process every INTERVAL_S seconds and times a burst of six
small fixed kernels, each like one kind of work on fdistill's hot paths
(small matmuls with an activation, a Python loop, many tiny numpy calls, a
large elementwise pass, a row-wise log-sum-exp, a tall matmul), and none
calling fdistill, so a change to the program cannot change the burst.

A burst's slowdown is the mean over kernels of its time over the kernel's
reference time; kinds of contention slow the kernels differently, and the
mean tracks all the workloads better than any one kernel. A repetition's
slowdown is the mean over its bursts; its wall time, with the bursts taken
out, divided by that slowdown, is its time at reference speed. Python runs
the handler between bytecodes, so a burst lands between numpy calls, never
inside one.
"""

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.2
# Per-kernel reference times in seconds: the 10th percentile of bursts taken
# inside a running fdistill training workload (one BLAS thread) on a 2-vCPU
# Intel Xeon (2.0 GHz) VM, so a quiet machine reads a slowdown near 1.
REFERENCE_S = {
    "matmul": 0.000617, "python": 0.000180, "tiny": 0.000401,
    "elementwise": 0.000226, "logsumexp": 0.000265, "tall": 0.000623,
}


class SpeedProbe:
    def __init__(self):
        import numpy as np  # not at module level: run.py imports this module

        self._np = np
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((128, 128))
        self._weights = rng.standard_normal((128, 128))
        self._small = rng.standard_normal((128, 2))
        self._rows = rng.standard_normal((128, 512))
        self._tall = rng.standard_normal((1500, 2))
        self._long = rng.standard_normal(50_000)
        self.bursts = []   # slowdown of each burst

    def _matmul(self):
        for _ in range(4):
            z = self._square @ self._weights
            self._np.tanh(z, out=z)

    def _python(self):
        s = 0
        for i in range(2000):
            s += i * 3 % 7

    def _tiny(self):
        np = self._np
        for _ in range(50):
            x = self._small + 1.0
            x = np.exp(-x * x)
            float(np.sum(x))

    def _elementwise(self):
        np = self._np
        np.log1p(np.exp(-np.abs(self._long)))

    def _logsumexp(self):
        np = self._np
        e = np.exp(self._rows - self._rows.max(axis=1, keepdims=True))
        np.log(e.sum(axis=1))

    def _tall_matmul(self):
        z = self._tall @ self._small.T
        self._np.tanh(z, out=z)

    def kernel_times(self):
        out = {}
        for name, kernel in (("matmul", self._matmul), ("python", self._python),
                             ("tiny", self._tiny), ("elementwise", self._elementwise),
                             ("logsumexp", self._logsumexp), ("tall", self._tall_matmul)):
            t0 = perf_counter()
            kernel()
            out[name] = perf_counter() - t0
        return out

    def burst(self) -> float:
        """Run every kernel once; returns the burst's slowdown."""
        times = self.kernel_times()
        return statistics.fmean(times[k] / REFERENCE_S[k] for k in REFERENCE_S)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.bursts.append(self.burst())
        self.burst_s += perf_counter() - t0

    def __enter__(self):
        self.burst_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def slowdown(bursts) -> float:
    """Mean slowdown of the bursts; 1.0 when there is none."""
    return statistics.fmean(bursts) if bursts else 1.0
