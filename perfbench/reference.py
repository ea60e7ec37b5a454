"""Host speed: a fixed reference kernel, sampled while the program runs.

The benchmark's host is shared with other machines, and its speed drifts by
up to 2x in phases that last from seconds to minutes; process CPU time drifts
with it, so the slowdown is slower execution, not waiting. No choice of
window or statistic inside one run removes a phase that outlasts the run.

So while the benchmark times the program, an interval timer (SIGALRM, no
extra thread) runs a short fixed kernel every SAMPLE_EVERY_S of wall time,
in the main thread between two bytecodes of the program, and records the
kernel's thread CPU time. Samples spread evenly over the timed window, so
their median is the host's speed over that window, fast phases and slow
ones alike; `rescale` turns the window's wall seconds into seconds of a
host that runs the kernel in REFERENCE_S. Thread CPU time, not wall time,
keeps the samples blind to time-sharing with other threads or processes
of the program itself. The kernel is fixed code of the benchmark's own and
calls nothing in the program, so a change to the program cannot change it.

The kernel mixes the kinds of work the program does: interpreter
bookkeeping (as in the sessions' filters), small complex numpy products (as
in `states`), and a miniature measurement round on qubit and qutrit pairs
(validated state objects, Kronecker products, a tensordot, Born-rule
sampling). It holds no matrix large enough for OpenBLAS to use its worker
threads: on this host a 49 x 49 complex product takes 0.03 ms or 7 ms,
depending on how the process's BLAS threads happen to be scheduled, and the
kernel is meant to measure the host, not that.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# About the kernel's thread CPU time on the host the baseline was measured
# on (a 2-vCPU Xeon virtual machine, notes.json). Rescaled seconds are
# seconds of a host that runs the kernel in this time; the constant only
# scales the figures, it does not steady them.
REFERENCE_S = 0.0015

SAMPLE_EVERY_S = 0.05

_PY_ITERATIONS = 2_000
_NP_ITERATIONS = 30
_ROUNDS = 4

_rng = np.random.default_rng(20210705)
_SMALL = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))


def _unitary(d: int) -> np.ndarray:
    q, _ = np.linalg.qr(_rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d)))
    return q


_UNITARY = {d: _unitary(d) for d in (2, 3)}
_BASIS = {d: _unitary(d) for d in (2, 3)}
_PAIR_BASIS = {d: np.kron(b, b) for d, b in _BASIS.items()}


@dataclass(frozen=True)
class _Pair:
    labels: tuple[str, str]
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1).copy()
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("non-finite amplitudes")
        object.__setattr__(self, "amps", amps / np.sqrt(float(np.vdot(amps, amps).real)))


def _rounds(rng: np.random.Generator) -> None:
    tally: dict[tuple, int] = {}
    for r in range(_ROUNDS):
        d = 2 + (r & 1)
        u, b = _UNITARY[d], _BASIS[d]
        a = np.zeros(d, dtype=np.complex128)
        a[int(rng.integers(d))] = 1.0
        pair = _Pair(("A", "B"), np.kron(a, b[:, int(rng.integers(d))]))
        t = np.tensordot(u, pair.amps.reshape(d, d), axes=([1], [0])).reshape(-1)
        probs = np.abs(_PAIR_BASIS[d].conj().T @ t) ** 2
        outcome = int(rng.choice(d * d, p=probs / probs.sum()))
        unitary_ok = float(np.abs(u @ u.conj().T - np.eye(d)).max()) < 1e-9
        key = (d, outcome, unitary_ok, f"{r % 17}:{outcome}")
        tally[key] = tally.get(key, 0) + 1


def kernel_cpu_seconds() -> float:
    """Thread CPU seconds of one run of the fixed reference work."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_PY_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc + 7 * i) % 1_000_003
    v = np.ones(9, dtype=np.complex128)
    for _ in range(_NP_ITERATIONS):
        v = (_SMALL @ _SMALL.conj().T) @ v
        v = v / np.linalg.norm(v)
    _rounds(np.random.default_rng(7))
    return time.thread_time() - t0


class HostSpeed:
    """Samples the kernel every SAMPLE_EVERY_S of wall time while armed.

    `busy_s` is the wall time the samples themselves took, which the timer
    adds to whatever runs in the main thread meanwhile.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_cpu_seconds())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        kernel_cpu_seconds()  # warm-up: the first run pays for cold caches
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, seconds: float, first: int = 0) -> float:
        """`seconds` of wall time as seconds of a host running the kernel in REFERENCE_S.

        The host's speed is the median of the samples from index `first` on,
        or of all samples when none was taken since.
        """
        return seconds * REFERENCE_S / statistics.median(self.samples[first:] or self.samples)
