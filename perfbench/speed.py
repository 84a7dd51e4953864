"""A fixed probe of the machine's speed, timed next to every operation.

The shared hosts this benchmark runs on drift in speed by a quarter or
more over minutes, and that drift moves every operation of a run at once,
so a median within the run cannot remove it.  The probe does a fixed
amount of work of the two kinds the program spends its time on: a column
loop of small numpy gathers, products and scatters, like the factor and
selected-inverse kernels, and set and dict updates, like the minimum-degree
ordering.  It calls nothing in the program, so a change to the program
leaves it alone.  Scaling an operation's seconds by ``REFERENCE_S`` over
the probe's median seconds in the same run gives its seconds at a
reference speed; README.md says how far that steadies the figures.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's median seconds on the machine the benchmark was tuned on
# (2 vCPUs of an Intel Xeon host, Python 3.11, numpy 2.4): a scaled time
# reads as seconds on that machine at its usual speed.
REFERENCE_S = 0.6

# _A is 6 MB, like the factor of the larger inputs, so that the probe
# feels the same contention for the caches as the kernels do.
_N, _B, _COLS, _SWEEPS = 6000, 120, 1500, 10
_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((_N, _B)) * 0.01
_ROWS = [np.sort(_rng.choice(_N, size=5 + (j * 53) % (_B - 5), replace=False))
         for j in range(_COLS)]
_NODES, _ROUNDS = 3000, 24


def _columns() -> float:
    """Gather, product and scatter over every column, _SWEEPS times."""
    y = np.ones(_N)
    acc = 0.0
    for _ in range(_SWEEPS):
        for rows in _ROWS:
            k = len(rows)
            v = _A[rows, :k] @ y[rows]
            y[rows] -= 1e-3 * v
            acc += float(y[rows] @ y[rows])
    return acc


def _sets() -> int:
    """Set unions and dict updates over a fixed graph."""
    n = _NODES
    adj = {i: {(i * 7 + 1) % n, (i * 13 + 5) % n, (i + 1) % n} for i in range(n)}
    deg = {}
    for r in range(_ROUNDS):
        for i in range(n):
            s = adj[i]
            if len(s) < 12:
                s |= adj[(i * 31 + r) % n]
            deg[i] = len(s)
        for i in range(n):
            adj[i] = set(sorted(adj[i])[:6])
    return sum(deg.values())


def probe() -> float:
    """Wall seconds of one pass of the fixed probe work."""
    t0 = time.perf_counter()
    _columns()
    _sets()
    return time.perf_counter() - t0
