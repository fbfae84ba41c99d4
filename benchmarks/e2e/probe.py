"""How fast is the host right now?  Three fixed kernels, ~60 ms.

The reference box is a 2-vCPU VM whose speed moves with its neighbours:
for seconds to minutes at a time (2-5 % steal appears in ``/proc/stat``)
BLAS, the interpreter and memory-bound NumPy all run 20-100 % slower,
and a whole 15 s run can fall inside such a phase.  No statistic of a
run's own windows removes that: ten runs of one commit spread by 0.16-
0.18 (quartile distance / median, mean over the timing metrics) in a
slow hour and by 0.09 in a calm one.  So every timed section — a
set-up, a set-up fit, a window — is bracketed by this probe, and
CPU-bound timings are reported at the reference box's full speed:
seconds / slowdown, the slowdown being the geometric mean of the probes
before and after the section.  The same runs then spread by 0.09-0.11
and 0.05, at ~1 s per run.  The values as measured stay in every record.

The kernels stand for what the program's time is made of: a GEMM
(model math), a dict-updating loop (the interpreter between NumPy
calls), a gather plus an elementwise pass over 2-8 MB (dedup, gather,
activations).  The probe belongs to the benchmark, so a change to the
program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Fastest times of the three kernels on the reference box (seconds):
# the scale on which a slowdown of 1.0 means "the reference box at its
# best".  Any other machine shifts every normalised metric by one
# constant factor, the same for a parent commit and its change.
REFERENCE_S = (0.0112, 0.0225, 0.0170)

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(256, 256))
_C = np.empty((256, 256))
_BIG = _rng.normal(size=1 << 20)
_INDEX = _rng.integers(0, 1 << 20, size=1 << 18)
_BUFFER = np.empty(1 << 18)
_COUNTS = dict.fromkeys(range(1024), 0)


def _gemm(reps: int) -> None:
    for _ in range(reps):
        np.matmul(_A, _A, out=_C)


def _interpreter(reps: int) -> None:
    counts = _COUNTS
    for i in range(reps):
        counts[i & 1023] += i


def _memory(reps: int) -> None:
    for _ in range(reps):
        np.take(_BIG, _INDEX, out=_BUFFER)
        np.add(_BUFFER, 1.0, out=_BUFFER)


_KERNELS = ((_gemm, 20), (_interpreter, 200_000), (_memory, 14))


def kernel_seconds() -> list[float]:
    out = []
    for kernel, reps in _KERNELS:
        kernel(max(1, reps // 20))        # untimed: its data back in cache
        tick = time.perf_counter()
        kernel(reps)
        out.append(time.perf_counter() - tick)
    return out


enabled = True      # ``--smoke`` turns it off: its numbers gate nothing


def slowdown() -> float:
    """Geometric mean of the kernels' times over ``REFERENCE_S``."""
    if not enabled:
        return 1.0
    return math.exp(sum(
        math.log(seconds / reference)
        for seconds, reference in zip(kernel_seconds(), REFERENCE_S)
    ) / len(REFERENCE_S))


def between(before: float, after: float) -> float:
    """The slowdown of a section bracketed by two probes."""
    return math.sqrt(before * after)
