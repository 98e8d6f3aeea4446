"""Gini coefficients, the five-dimension composite index, and size purification."""

from __future__ import annotations

import numpy as np

from .panel import GINI_DIMENSIONS


def gini(distribution):
    """Gini coefficient of a nonnegative share distribution.

    Population form: sum_ij |x_i - x_j| / (2 n^2 mean), which ranges over
    [0, (n-1)/n] and is invariant to scaling and permutation.
    """
    x = np.asarray(distribution, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("distribution must be a non-empty 1-d array")
    if not np.isfinite(x).all():
        raise ValueError("distribution entries must be finite")
    if np.any(x < 0):
        raise ValueError("distribution entries must be nonnegative")
    total = x.sum()
    if total <= 0:
        raise ValueError("distribution must contain at least one positive entry")
    n = x.size
    xs = np.sort(x)
    # sorted-rank identity for the pairwise mean absolute difference
    ranks = np.arange(1, n + 1)
    return float(2.0 * np.sum(ranks * xs) / (n * total) - (n + 1) / n)


def composite_index(components):
    """Equal-weighted mean of the five dimension coefficients."""
    comp = np.asarray(components, dtype=float)
    if comp.shape != (len(GINI_DIMENSIONS),):
        raise ValueError(
            f"expected {len(GINI_DIMENSIONS)} components, got shape {comp.shape}"
        )
    if np.any(comp < 0) or np.any(comp > 1):
        bad = comp[(comp < 0) | (comp > 1)]
        raise ValueError(f"components outside [0, 1]: {bad.tolist()}")
    return float(comp.mean())


def orthogonalize(decentralization, log_mcap):
    """Residuals of a pooled OLS of decentralization on a constant and ln(mcap).

    A missing value is NaN in either series.  Returns ``(residuals,
    missing_mask)`` where the residuals are defined on the joint non-missing
    sample, have mean zero, and are orthogonal to ln(mcap).  Everything else
    stays masked.
    """
    y = np.asarray(decentralization, dtype=float)
    x = np.asarray(log_mcap, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("decentralization and log_mcap must be aligned 1-d series")
    ok = np.isfinite(y) & np.isfinite(x)
    if ok.sum() < 3:
        raise ValueError("need at least 3 joint non-missing points")
    xs = x[ok]
    ys = y[ok]
    x_center = xs - xs.mean()
    sxx = float(x_center @ x_center)
    if sxx <= 1e-12 * max(1.0, float(np.abs(xs).max()) ** 2) * len(xs):
        raise ValueError("log_mcap is (numerically) constant; cannot orthogonalize")
    slope = float(x_center @ ys) / sxx
    intercept = ys.mean() - slope * xs.mean()
    residuals = np.full(y.shape, np.nan)
    residuals[ok] = ys - (intercept + slope * xs)
    return residuals, ~ok
