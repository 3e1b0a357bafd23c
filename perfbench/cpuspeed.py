"""How fast the CPU runs right now, from fixed tasks that use no qndcert.

On a shared host, other tenants can slow a CPU by up to 1.7x for seconds
at a time: on the 2-CPU Xeon (KVM) guest this benchmark was written on,
a fixed pure-Python loop swung between 54 and 93 ms while the guest's
other CPU was idle and no steal time was reported.  The benchmark times
a probe task before and after every timed interval and scales the
interval to the speed at which the probe takes its ``REFERENCE_S``.

How much a slowdown costs depends on the kind of code, so each workload
uses the probe closest to its own hot code.  Neither probe runs qndcert
code, so a change to the package cannot move them.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

_MATRIX = np.random.default_rng(0).standard_normal((12, 12)) / 4.0
_IDENTITY = np.eye(12)


def interpreter_probe() -> float:
    """Seconds for interpreter-bound work: float formatting and parsing,
    dicts and JSON, sorting, and many calls on tiny arrays."""
    began = time.perf_counter()
    rng = random.Random(0)
    values = [rng.random() for _ in range(4000)]
    text = ",".join(f"{value:.17g}" for value in values)
    parsed = [float(field) for field in text.split(",")]
    json.loads(json.dumps({str(i): value for i, value in enumerate(parsed)}))
    sorted(values)
    matrix = _IDENTITY
    for _ in range(600):
        matrix = _MATRIX @ matrix + _IDENTITY
    return time.perf_counter() - began


def numpy_probe() -> float:
    """Seconds for vectorised work like the sampler's: blocks of normal
    draws multiplied by a 12x12 matrix."""
    began = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(4):
        (rng.standard_normal((16384, 12)) @ _MATRIX.T).sum()
    return time.perf_counter() - began


# Each probe's duration on the uncontended guest described above.
REFERENCE_S = {interpreter_probe: 0.011, numpy_probe: 0.020}


def scaled_times(intervals: list[float], speeds: list[float],
                 probe=interpreter_probe) -> list[float]:
    """Each interval at reference speed, from the mean of the ``probe``
    timings taken just before and just after it (``speeds[i]`` and
    ``speeds[i + 1]``)."""
    reference = REFERENCE_S[probe]
    return [elapsed * 2.0 * reference / (before + after)
            for elapsed, before, after in zip(intervals, speeds, speeds[1:])]
