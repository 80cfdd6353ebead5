"""Machine-speed calibration: converts wall seconds into reference seconds.

The benchmark runs on shared hosts whose speed drifts by 30% or more
within minutes (other tenants, frequency scaling), in steps that last
tens of seconds.  A run cannot average that away, so every timed stretch
of work is followed by a short probe: a fixed loop that uses nothing
from fockop.  The probe's rate over the reference rate below is the
machine's speed at that moment, and a wall time multiplied by it is the
time the work would have taken at reference speed.  A change to fockop
moves the measured work and leaves the probe alone, so it shows in full.

Two probes match the two kinds of work the workloads do.  ``exact``
does ``Fraction`` and big-integer arithmetic with dicts and tuples, like
the exact engine and the CLI.  ``float`` draws complex Gaussian samples
and multiplies and sums arrays of them at the oracle's Monte Carlo size
(its arrays do not fit in cache, so memory bandwidth counts as it does
there), then runs a scalar adaptive Simpson rule like the oracle's
quadrature, in about the oracle's 4:1 proportion of the two.  The
garbage collector is off during a probe, so the probe's cost does not
depend on how many objects the program under test keeps alive.
"""

from __future__ import annotations

import gc
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from time import perf_counter

import numpy as np

# Probe repetitions per second that define one reference second: about
# the probes' typical rates on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_RATE = {"exact": 450.0, "float": 25.0}
PROBE_SHARE = 0.1  # probe time as a share of the measured time it calibrates
PROBE_QUANTUM_S = 0.25  # measured wall seconds between two probes, at least
MIN_PROBE_S = 0.02
WARMUP_PROBE_S = 0.05  # unrecorded probing when a Clock starts; a cold first probe reads slow


def _exact_probe() -> None:
    seen = {}
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i * 7919 % 1013, i * i + 1)
        seen[(i, i & 7)] = total.numerator.bit_length()


def _simpson(f, a, fa, b, fb, fm, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth == 0:
        return left + right
    return _simpson(f, a, fa, m, fm, flm, depth - 1) + _simpson(f, m, fm, b, fb, frm, depth - 1)


class _FloatProbe:
    SAMPLES = 200_000

    def __init__(self) -> None:
        self.rng = np.random.default_rng(12345)

    def __call__(self) -> None:
        xy = self.rng.standard_normal((self.SAMPLES, 4)) * math.sqrt(0.5)
        z = xy[:, :2] + 1j * xy[:, 2:]
        w = z[:, 0] * np.conj(z[:, 1]) ** 2 * np.sum(xy * xy, axis=1)
        float(np.sum(w.real)) + float(np.sum(w.imag**2))
        f = lambda u: u**7 * math.exp(-u)  # noqa: E731
        _simpson(f, 0.0, f(0.0), 60.0, f(60.0), f(30.0), 12)


class Clock:
    """Probes the machine's speed and scales measured wall times by it.

    ``speed()`` runs the probe for about ``seconds`` and returns its rate
    over the reference rate: 1.0 at reference speed, 0.8 when the machine
    runs 20% slow.  Scale a stretch of work by the mean of the speeds
    probed just before and just after it.

    Work that runs in several threads is probed in as many threads: they
    share the interpreter lock as the work's threads do and run on the
    same set of CPUs, whose speeds can differ.  On the sweep at
    ``--jobs 2`` on a 2-core Xeon VM, a one-thread probe left a
    per-operation spread (standard deviation over mean) of 0.13 against
    0.06 for a two-thread probe.
    """

    def __init__(self, kind: str, threads: int = 1) -> None:
        self.kind = kind
        self.threads = threads
        self.reference = REFERENCE_RATE[kind]
        self.probe = _exact_probe if kind == "exact" else _FloatProbe()
        self.speeds = []  # every speed probed, in order
        self.probe_s = 0.0  # wall seconds spent probing
        self._run_probe(WARMUP_PROBE_S)

    def _run_probe(self, seconds: float) -> int:
        reps = 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            self.probe()
            reps += 1
        return reps

    def speed(self, seconds: float = MIN_PROBE_S) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            if self.threads == 1:
                reps = self._run_probe(seconds)
            else:
                with ThreadPoolExecutor(max_workers=self.threads) as pool:
                    reps = sum(pool.map(self._run_probe, [seconds] * self.threads))
            elapsed = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.probe_s += elapsed
        speed = reps / elapsed / self.reference
        self.speeds.append(speed)
        return speed
