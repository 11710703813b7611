"""Timing at a nominal machine speed.

The speed of a shared machine drifts by +-20 % over seconds to minutes, and
a kernel that streams a large tableau slows differently from one that is
bound by interpreter overhead.  Around every timed operation the clock runs a
fixed reference kernel of the same kind as the operation's hot loop:

- ``pivot``: dense simplex iterations (pricing, entering and ratio tests,
  rank-one tableau update) at the sizes of a single-slice and a two-slice
  provisioning model;
- ``genz``: Genz sequential conditioning of a Gaussian mixture over a
  scrambled point set (inverse and forward normal CDFs, one column at a time);
- ``sample``: Gaussian draws by inverse-CDF sampling, a correlating product
  and a componentwise box test.

The kernels are the benchmark's own and never call the program, so a change
to the program moves the operation's time and not the reference.  An
operation's wall time is scaled by the kernel's nominal time over the mean of
the kernel's times just before and just after the operation.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import ndtr, ndtri

# Median kernel times in seconds on the machine the benchmark was written on.
NOMINAL_S = {"pivot": 0.0137, "genz": 0.0118, "sample": 0.0098}


class Clock:
    """Runs the reference kernels and times operations against them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tableaus = [rng.standard_normal((185, 520)), rng.standard_normal((370, 1040))]
        self._points = rng.random((8192, 8))
        self._shifts = rng.uniform(0.5, 1.5, (4, 9))
        self._chol = np.linalg.cholesky(np.eye(9) + 0.1)
        self._root = np.linalg.cholesky(np.eye(11) + 0.05)
        self.history = []
        self.last = self.reference()

    def _pivot(self):
        for iterations, matrix in zip((18, 6), self._tableaus):
            tableau = matrix.copy()
            m, n = tableau.shape
            cost = matrix[0]
            basis = np.arange(m)
            upper = np.full(n, 3.0)
            for _ in range(iterations):
                rc = cost - cost[basis] @ tableau
                rc[basis] = 0.0
                movable = upper > 0
                candidates = np.where((rc < -1e-9) & movable)[0]
                j = candidates[np.argmax(np.abs(rc[candidates]))] if candidates.size else 0
                d = tableau[:, j]
                ratios = np.full(m, np.inf)
                pos = d > 1e-9
                ratios[pos] = upper[basis][pos] / d[pos]
                row = int(np.argmin(ratios))
                tableau[row] /= tableau[row, j] or 1.0
                col = tableau[:, j].copy() * 1e-3
                col[row] = 0.0
                tableau -= np.outer(col, tableau[row])
                basis[row] = j

    def _genz(self):
        upper = np.full(9, 2.0)
        b = upper[None, :] - self._shifts
        e_vals = np.repeat(ndtr(b[:, 0])[:, None], self._points.shape[0], axis=1)
        prod = e_vals.copy()
        y = np.empty((4, self._points.shape[0], 8))
        for i in range(1, 9):
            u = np.clip(self._points[None, :, i - 1] * e_vals, 1e-300, 1.0 - 1e-16)
            y[:, :, i - 1] = ndtri(u)
            partial = np.einsum("j,bnj->bn", self._chol[i, :i], y[:, :, :i])
            e_vals = ndtr((b[:, i, None] - partial) / self._chol[i, i])
            prod *= e_vals
        return prod.mean(axis=1)

    def _sample(self):
        rng = np.random.default_rng(1)
        z = ndtri(np.clip(rng.random((30_000, 11)), 1e-16, 1.0 - 1e-16))
        x = 3.0 + z @ self._root.T
        return int(np.sum(np.all(x <= 5.0, axis=1)))

    def reference(self):
        """Seconds of one run of each kernel; also kept in ``history``."""
        times = {}
        for kind, kernel in (("pivot", self._pivot), ("genz", self._genz),
                             ("sample", self._sample)):
            start = time.perf_counter()
            kernel()
            times[kind] = time.perf_counter() - start
        self.history.append(times)
        return times

    def scale_total(self, elapsed):
        """``elapsed`` at nominal speed, judged by all kernels of the last
        reference run (for spans that mix every kind of work)."""
        return elapsed * sum(NOMINAL_S.values()) / sum(self.last.values())

    def time(self, kind, fn, *args, **kwargs):
        """(result, wall seconds, nominal seconds) of one call whose hot loop
        is of the given kind."""
        before = self.last[kind]
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.last = self.reference()
        return result, elapsed, elapsed * NOMINAL_S[kind] / (0.5 * (before + self.last[kind]))
