"""Pure-Python reference implementations of the vectorized solvers.

The hot-path module :mod:`repro.matching.hungarian` is written with
numpy masked reductions for speed.  Vectorized code is easy to get
subtly wrong — an off-by-one in a mask or a tie broken by a different
index is invisible until an instance hits it — so the original scalar
loops live on here, unchanged, as the ground truth the fast paths are
cross-validated against (see ``tests/test_matching_vectorized.py``)
and as the readable exposition of each algorithm.

These functions are *reference* code: clarity beats speed, and the
per-element Python loops are exempt from lint rule R601 via the
``perf_loop_allowed`` allowlist (they are the one place such loops are
the point).  The perf harness (``python -m repro bench``) times them
against the vectorized implementations to report the speedup.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError


def hungarian_reference(cost: np.ndarray) -> tuple[list[int], float]:
    """Scalar-loop Kuhn–Munkres; contract of
    :func:`repro.matching.hungarian.hungarian`.

    Potentials + shortest-augmenting-path formulation in O(n²·m) for an
    ``n × m`` cost matrix with ``n <= m``; minimizes and assigns every
    row.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValidationError(f"cost must be 2-D, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0:
        return [], 0.0
    if n > m:
        raise ValidationError(
            f"cost must have n_rows <= n_cols, got {n} x {m}; "
            "transpose or pad the matrix"
        )
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")

    inf = math.inf
    # 1-indexed potentials; p[j] = row matched to column j (0 = free).
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    total = float(sum(cost[i, assignment[i]] for i in range(n)))
    return assignment, total
