"""A fixed speed probe, to express measured CPU times at one reference speed.

The machines the benchmark runs on are shared: the same tuning call can take
twice as long in one minute as in the next, and no run is long enough to
average such periods out.  A run therefore times, between its tuning calls,
blocks of a fixed probe that does the kinds of work the workloads do (a
Python loop of small-vector numpy steps, and small dense matrix products)
with the standalone code of ``reference``, so nothing in it depends on
hozog.  A measured time t, taken next to a probe block whose median probe
took p, is reported as t * PROBE_REF_S / p: the time t would have taken at
the speed at which one probe takes PROBE_REF_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import reference

# CPU seconds of one probe() on the reference machine (2 vCPUs of a shared
# KVM guest, Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread) in a
# fast period; see README.md.
PROBE_REF_S = 0.0038
PROBES_PER_BLOCK = 25

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1000, 40)) / np.sqrt(40)
_Y = np.where(_rng.random(1000) < 0.5, -1.0, 1.0)


def probe() -> None:
    """Fixed work: 100 Adam steps of ridge-logistic on 1000 x 40 dense rows,
    then 500 scalar GD steps on one-element arrays."""
    reference.adam(lambda w: reference.logreg_grad(_X, _Y, w, 0.0), np.zeros(40), 100, 0.1)
    reference.gd(lambda w: (w - 3.0) + 2.0 * w, np.zeros(1), 500, 0.1)


def probe_block() -> float:
    """Median CPU seconds of one probe over a block of PROBES_PER_BLOCK."""
    times = []
    for _ in range(PROBES_PER_BLOCK):
        t0 = time.process_time()
        probe()
        times.append(time.process_time() - t0)
    return statistics.median(times)
