"""A fixed block of reference work that gauges the host's current speed.

The benchmark runs on shared machines whose speed drifts by 10 to 25% over
minutes, which moves every wall-clock time of a run by about the same
factor.  The block is timed between the ops of a run, and op latencies are
reported in units of its median time over the run, so that this common
factor cancels.

The block is the benchmark's own code and calls nothing in kmsflow, so a
change to kmsflow cannot change it.  It mixes the kinds of work kmsflow ops
do: interpreted Python, many small numpy calls, and a dense complex product
and eigh.
"""

from __future__ import annotations

import time

import numpy as np

PY_LOOP = 20_000
SMALL_CALLS = 300
_rng = np.random.default_rng(20230328)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_DENSE = _rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))
_HERM = _DENSE[:96, :96] + _DENSE[:96, :96].conj().T


def block() -> float:
    """Seconds taken by one reference block (about 9 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(PY_LOOP):
        acc += i * i
    m = _SMALL
    for _ in range(SMALL_CALLS):
        m = (m @ _SMALL) / np.linalg.norm(m)
    _DENSE @ _DENSE
    np.linalg.eigh(_HERM)
    return time.perf_counter() - start
