"""Host speed: the reference work every timing is scaled by, and CPU steal.

A shared 2-vCPU VM switches between speeds for seconds to minutes at a
stretch; in slow spells the same code takes up to twice as long.  Runs a
few minutes apart would then disagree by far more than any usable bound,
so each timed interval is scaled by the speed of the host measured right
next to it, with reference work owned by the benchmark that nothing in
``semrd`` changes the cost of.  There are two kinds, because the spells do
not slow every kind of work alike:

- ``slice``: small-array numpy steps, in process, before and after each
  in-process op and every 0.2 s during it (``InOpSlices``).
- ``spawn``: a fresh interpreter that starts and exits.  It scales
  what starts a process: set-up and the CLI commands, which an in-process
  slice tracks poorly (interpreter start, imports, page faults).

A time scaled by ``host_scaled`` reads as the time it would take on a host
where the reference work takes ``REF_MS[kind]``.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Reference times, in ms, on a 2-vCPU Sapphire Rapids VM in a fast spell.
# They only set the scale of the reported times; any constants would do.
REF_MS = {"slice": 2.5, "spawn": 60.0}

_A = np.arange(32 * 32, dtype=float).reshape(32, 32) / 1024.0
_P = np.linspace(0.1, 1.0, 36).reshape(6, 6)
_L = np.linspace(1.0, 0.0, 36).reshape(6, 6)


def slice_ms() -> float:
    """Time of one in-process reference slice, in ms.

    Small-array numpy steps: a 32x32 matvec loop and a Blahut-Arimoto-like
    update on 6x6 arrays.  Measured against codec, chain entropy, Lemma 2
    and Lemma 1 ops in fast and slow spells, these tracked all four better
    than pure-Python loops or mixes with them.
    """
    t0 = time.perf_counter()
    v = np.ones(32)
    for _ in range(300):
        v = np.exp(-(_A @ v))
        v /= v.sum()
    q = _P
    for _ in range(150):
        q = q * np.exp(-2.0 * _L)
        q = q / q.sum(axis=1, keepdims=True)
        np.log(q.sum(axis=0) + 1e-12)
    return 1e3 * (time.perf_counter() - t0)


def spawn_ms() -> float:
    """Time to start an interpreter that does nothing and exits, in ms."""
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would quantize the time.
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True)
    return 1e3 * (time.perf_counter() - t0)


REFERENCE = {"slice": slice_ms, "spawn": spawn_ms}


class InOpSlices:
    """Reference slices taken during an op, every ``period`` seconds.

    An op that runs for seconds can span a change of host speed that the
    slices before and after it miss.  While armed, SIGALRM runs a slice
    between two bytecodes of the op; ``spent`` is the time those slices
    took, which the caller takes off the op's time.
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(slice_ms())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def host_scaled(times: list[float], refs: list[float], kind: str,
                inside: list[list[float]] | None = None) -> list[float]:
    """Each of ``times`` scaled to the reference host.

    ``refs[k]`` ran just before interval k and ``refs[k + 1]`` just after
    it, and ``inside[k]`` (if given) during it; interval k is scaled by the
    mean of all of them.  Wider windows of neighbouring references average
    out the noise of single ones but lag behind the host's speed, which can
    change within a second: over five ``lossless`` runs, the spread of
    ``op_p50_ms`` was 0.04 with the two bracketing references, 0.09 with
    four and 0.13 with six.
    """
    inside = inside or [[] for _ in times]
    return [t * REF_MS[kind] / statistics.fmean([refs[k], *inside[k], refs[k + 1]])
            for k, t in enumerate(times)]


def steal_jiffies():
    """Cumulative CPU steal from /proc/stat, or None where it is not readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
