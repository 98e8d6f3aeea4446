"""Unit-root tests, cross-sectional dependence tests, descriptive moments
and pairwise-complete correlation matrices for the unbalanced panel.

Two kernels carry the work.  Every (C)ADF regression comes from one
Householder QR of its design and response, ``[constant, current...,
lagged..., response]`` (``_kept_factor``): |R[j, j]| is column j's residual
on the columns before it, so a collinear column is found and dropped in
column order, and the AIC lag candidates, which are column prefixes of the
longest one, all read their SSR off R's last column.  Every pairwise
correlation comes from Gram products of the row-centred, zero-filled data
and its finiteness mask (``_pairwise_correlations``), with no loop over
pairs.

scipy is imported inside the functions that call it, so importing this
module, as every CLI command does, does not load it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .estimators import chi2_survival

CADF_LOWER, CADF_UPPER = -6.19, 2.61

# MacKinnon (2010) response-surface critical values, intercept case, one
# variable: cv(T) = b0 + b1/T + b2/T^2 + b3/T^3.
ADF_CONSTANT_CV = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.040),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}

# CIPS critical values (intercept case), simulated under the independent
# random-walk null: 5,000 replications per (N, T) cell, CADF regressions with
# constant, lagged level, lagged cross-section average and its current
# difference (no augmentation).  Values are the 1% / 5% / 10% empirical
# quantiles of the CIPS statistic; used for significance stars only.
CIPS_CV_N = (5, 10, 15, 20, 30, 50)
CIPS_CV_T = (50, 100, 200, 500, 1000, 2000)
CIPS_CV_TABLE = {
    (5, 50): (-2.852, -2.546, -2.382),
    (5, 100): (-2.861, -2.540, -2.368),
    (5, 200): (-2.837, -2.527, -2.391),
    (5, 500): (-2.833, -2.529, -2.364),
    (5, 1000): (-2.828, -2.530, -2.375),
    (5, 2000): (-2.835, -2.532, -2.365),
    (10, 50): (-2.561, -2.335, -2.214),
    (10, 100): (-2.528, -2.324, -2.206),
    (10, 200): (-2.522, -2.320, -2.203),
    (10, 500): (-2.558, -2.337, -2.215),
    (10, 1000): (-2.549, -2.314, -2.214),
    (10, 2000): (-2.535, -2.328, -2.222),
    (15, 50): (-2.432, -2.239, -2.138),
    (15, 100): (-2.420, -2.247, -2.150),
    (15, 200): (-2.423, -2.243, -2.144),
    (15, 500): (-2.418, -2.246, -2.143),
    (15, 1000): (-2.430, -2.247, -2.147),
    (15, 2000): (-2.435, -2.252, -2.168),
    (20, 50): (-2.356, -2.195, -2.104),
    (20, 100): (-2.386, -2.205, -2.116),
    (20, 200): (-2.357, -2.213, -2.127),
    (20, 500): (-2.359, -2.204, -2.122),
    (20, 1000): (-2.367, -2.202, -2.120),
    (20, 2000): (-2.347, -2.205, -2.120),
    (30, 50): (-2.297, -2.164, -2.082),
    (30, 100): (-2.271, -2.147, -2.073),
    (30, 200): (-2.277, -2.154, -2.079),
    (30, 500): (-2.280, -2.161, -2.093),
    (30, 1000): (-2.264, -2.153, -2.082),
    (30, 2000): (-2.301, -2.164, -2.092),
    (50, 50): (-2.234, -2.116, -2.044),
    (50, 100): (-2.230, -2.116, -2.053),
    (50, 200): (-2.223, -2.114, -2.046),
    (50, 500): (-2.236, -2.121, -2.044),
    (50, 1000): (-2.247, -2.124, -2.058),
    (50, 2000): (-2.232, -2.118, -2.054),
}


def _adf_critical_values(nobs):
    out = {}
    for level, (b0, b1, b2, b3) in ADF_CONSTANT_CV.items():
        out[level] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return out


def _interp_axis(grid, value):
    """Clamped linear interpolation weights on a sorted grid."""
    grid = np.asarray(grid, dtype=float)
    if value <= grid[0]:
        return 0, 0, 1.0
    if value >= grid[-1]:
        return len(grid) - 1, len(grid) - 1, 1.0
    hi = int(np.searchsorted(grid, value))
    lo = hi - 1
    w = (grid[hi] - value) / (grid[hi] - grid[lo])
    return lo, hi, float(w)


def cips_critical_values(n_entities, nobs):
    """Bilinear interpolation of the simulated CIPS table on (N, T)."""
    i0, i1, wi = _interp_axis(CIPS_CV_N, n_entities)
    j0, j1, wj = _interp_axis(CIPS_CV_T, nobs)
    out = {}
    for idx, level in enumerate((0.01, 0.05, 0.10)):
        v00 = CIPS_CV_TABLE[(CIPS_CV_N[i0], CIPS_CV_T[j0])][idx]
        v01 = CIPS_CV_TABLE[(CIPS_CV_N[i0], CIPS_CV_T[j1])][idx]
        v10 = CIPS_CV_TABLE[(CIPS_CV_N[i1], CIPS_CV_T[j0])][idx]
        v11 = CIPS_CV_TABLE[(CIPS_CV_N[i1], CIPS_CV_T[j1])][idx]
        out[level] = wi * (wj * v00 + (1 - wj) * v01) + (1 - wi) * (wj * v10 + (1 - wj) * v11)
    return out


def _stars(statistic, critical_values):
    if statistic < critical_values[0.01]:
        return "***"
    if statistic < critical_values[0.05]:
        return "**"
    if statistic < critical_values[0.10]:
        return "*"
    return ""


@dataclass
class UnitRootResult:
    test: str                     # "adf" or "cips"
    statistic: float
    lags: object                  # int, or {entity: int} for CIPS
    nobs: int
    stars: str = ""
    critical_values: dict = None
    cadf_stats: dict = None       # entity -> CADF t-statistic
    truncated_statistic: float = None
    truncated_cadf: dict = None
    flags: list = field(default_factory=list)


@dataclass
class DependenceResult:
    name: str                     # BP-LM, scaled-LM, bias-corrected-LM, Pesaran-CD
    statistic: float
    p_value: float
    pair_count: int
    excluded_pairs: list = field(default_factory=list)


@dataclass
class DescribeRow:
    mean: float
    median: float
    maximum: float
    minimum: float
    std_dev: float
    skewness: float
    kurtosis: float
    nobs: int
    flags: list = field(default_factory=list)


def _df_design(p, stop, current, lagged, response):
    """The Fortran-ordered array ``[constant, current..., lagged at 1..p
    (lag by lag)..., response]`` on rows ``p..stop-1``."""
    columns = [s[p:stop] for s in current]
    for j in range(1, p + 1):
        columns += [s[p - j:stop - j] for s in lagged]
    design = np.empty((stop - p, len(columns) + 2), order="F")
    design[:, 0] = 1.0
    for j, column in enumerate(columns, 1):
        design[:, j] = column
    design[:, -1] = response[p:stop]
    return design


def _r_factor(a):
    """R of the Householder QR of ``a`` (LAPACK, column order), factored in
    ``a``'s own buffer when it is Fortran-ordered."""
    from scipy import linalg as sla

    return sla.qr(a, mode="raw", overwrite_a=True, check_finite=False)[1]


def _kept_factor(build):
    """R factor of the design ``build()`` returns, ``[regressors |
    response]`` in Fortran order, after dropping, in column order, each
    regressor collinear with those before it.

    One Householder QR (LAPACK, column order) of the design, in its own
    buffer, gives every regressor's residual norm on the regressors before
    it as |R[j, j]|.  A regressor is kept while that exceeds
    ``1e-8 * max(|col_j|, 1)``; while one fails, the first that fails is
    removed and the rest factored again.  A failing constant or lagged level
    (column 0 or 1) raises ``ValueError``, and so do kept regressors that
    leave no residual degrees of freedom.  Returns the (k+1) x (k+1) factor
    of the k kept regressors and the response, and the kept indices.  The
    fit on the kept regressors among the first m therefore has SSR
    ``R[k, k]^2 + |R[k_m:k, k]|^2``, k_m being how many they are.
    """
    design = build()
    n, width = design.shape
    norms = np.maximum(np.sqrt(np.einsum("ij,ij->j", design[:, :-1], design[:, :-1])), 1.0)
    kept = np.arange(width - 1)
    while True:
        R = _r_factor(design)
        diagonal = np.abs(np.diagonal(R))[:len(kept)]
        fails = np.flatnonzero(~(diagonal > 1e-8 * norms[kept][:len(diagonal)]))
        if not fails.size:
            break
        if kept[fails[0]] < 2:
            raise ValueError("the lagged level is constant on the sample")
        kept = np.delete(kept, fails[0])
        design = np.asfortranarray(build()[:, np.append(kept, width - 1)])
    k = len(kept)
    if k >= n:
        # the first n regressors passed, so the rest have no residual left
        raise ValueError(f"no residual degrees of freedom ({n} rows, {n} regressors)")
    return R[:k + 1, :k + 1], kept


def _aic(ssr, nobs, n_params):
    return nobs * math.log(ssr / nobs) + 2.0 * n_params


def _df_regression(dy, current, lagged, max_lag):
    """Dickey-Fuller-type t-ratio on ``current[0]`` with AIC-selected lags.

    Every candidate p = 0..max_lag is fitted on the common rows
    ``max_lag..t-1``; its columns are a prefix of the p = max_lag columns, so
    one factor of that design (``_kept_factor``) gives all their SSRs.  The
    chosen p's t-ratio reads that factor when p = max_lag, and otherwise the
    factor of its own design on rows ``p..t-1``; its variance comes from
    R^-1.  Returns (statistic, p, nobs).
    """
    from scipy import linalg as sla

    t = len(dy)
    R, kept = _kept_factor(lambda: _df_design(max_lag, t, current, lagged, dy))
    k = len(kept)
    z, ssr = R[:k, k], R[k, k] ** 2
    best_p, best_aic = 0, np.inf
    for p in range(0, max_lag + 1):
        k_p = bisect_left(kept, 1 + len(current) + len(lagged) * p)
        aic = _aic(ssr + float(z[k_p:] @ z[k_p:]), t - max_lag, k_p)
        if aic < best_aic - 1e-12:
            best_aic, best_p = aic, p

    if best_p < max_lag:
        R, kept = _kept_factor(lambda: _df_design(best_p, t, current, lagged, dy))
        k = len(kept)
    # row 1 of R^-1: the lagged level's coefficient is w @ z, its variance
    # sigma^2 |w|^2
    w = sla.solve_triangular(R[:k, :k], np.eye(k)[1], trans="T")
    z, ssr = R[:k, k], R[k, k] ** 2
    n = t - best_p
    stat = float(w @ z) / math.sqrt(ssr / (n - k) * float(w @ w))
    return stat, best_p, n


def _span(values):
    """The slice of ``values`` from its first to its last finite entry, the
    one sample rule of ``adf`` and ``cips``: leading and trailing NaN are
    trimmed, and an interior one raises ``ValueError``."""
    idx = np.flatnonzero(np.isfinite(values))
    if not idx.size:
        return slice(0, 0)
    if idx[-1] - idx[0] + 1 != idx.size:
        raise ValueError("interior gaps are not supported")
    return slice(idx[0], idx[-1] + 1)


def adf(series, max_lag=4):
    """Augmented Dickey-Fuller test with a constant and AIC lag selection.

    The statistic is the t-ratio on the lagged level in
    Dy_t = a + rho y_{t-1} + sum_j phi_j Dy_{t-j} + e_t; stars use the
    MacKinnon (2010) response-surface critical values.  NaN marks a missing
    value: the test runs from the first to the last present one and refuses
    a gap between them, as ``cips`` does (``_span``).  The fits come from
    the same QR kernel as the CADF regressions (``_df_regression``).
    """
    y = np.asarray(series, dtype=float)
    y = y[_span(y)]
    if len(y) <= max_lag + 3:
        raise ValueError(f"series too short ({len(y)}) for max_lag={max_lag}")
    if np.ptp(y) == 0.0:
        raise ValueError("zero-variance series")

    dy = np.diff(y)
    stat, best_p, nobs = _df_regression(dy, [y], [dy], max_lag)
    cv = _adf_critical_values(nobs)
    return UnitRootResult(
        test="adf",
        statistic=stat,
        lags=best_p,
        nobs=nobs,
        stars=_stars(stat, cv),
        critical_values=cv,
    )


def _cadf_stat(y, ybar_lag, dybar, max_lag):
    """CADF t-statistic for one entity with AIC-selected augmentation, on
    the columns listed in ``cips``.  Returns (statistic, p, nobs)."""
    dy = np.diff(y)
    return _df_regression(dy, [y, ybar_lag, dybar], [dybar, dy], max_lag)


def truncate_cadf(statistic):
    return float(min(max(statistic, CADF_LOWER), CADF_UPPER))


def cips(panel_values, max_lag=4, entity_labels=None):
    """Pesaran-style CIPS test: mean of per-entity CADF statistics.

    ``panel_values`` is an (N, T) array aligned on a common calendar with
    NaN marking missing observations; cross-section averages use whatever
    entities are present at each date.  The truncated variant clips each
    CADF statistic to [-6.19, 2.61] before averaging.

    Each entity's CADF regression has the columns constant, y_{t-1},
    ybar_{t-1}, Dybar_t, then Dybar_{t-j}, Dy_{t-j} for j = 1..p.  One QR
    of the p = max_lag design on the common rows gives the SSR of every p
    for the AIC choice; a column collinear with the columns before it is
    dropped in that order (tolerance 1e-8 relative to the column's norm, or
    absolute below norm 1).  The chosen p's factor gives the t-ratio, its
    variance from R^-1 (``_df_regression``).  Each entity's sample runs from
    its first to its last present value, and a gap between them is refused
    (``_span``).
    """
    data = np.asarray(panel_values, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need an (N, T) array with at least 2 entities")
    n_entities, t_len = data.shape
    labels = list(entity_labels) if entity_labels is not None else list(range(n_entities))

    ybar = np.full(t_len, np.nan)
    has_data = np.isfinite(data).any(axis=0)
    ybar[has_data] = np.nanmean(data[:, has_data], axis=0)
    stats, lags, truncated = {}, {}, {}
    nobs_total = 0
    for i in range(n_entities):
        y = data[i]
        count = np.count_nonzero(np.isfinite(y))
        # the p = max_lag regression has 4 + 2 max_lag columns on
        # count - 1 - max_lag rows and needs a residual degree of freedom
        if count < 3 * max_lag + 6:
            raise ValueError(
                f"entity {labels[i]}: too few observations ({count}) for the CADF regression"
            )
        try:
            span = _span(y)
        except ValueError as exc:
            raise ValueError(f"entity {labels[i]}: {exc}") from None
        seg = y[span]
        ybar_seg = ybar[span]
        if not np.isfinite(ybar_seg).all():
            raise ValueError("cross-section average undefined on part of the sample")
        ybar_lag = ybar_seg[:-1]
        dybar = np.diff(ybar_seg)
        try:
            stat, p, nobs = _cadf_stat(seg, ybar_lag, dybar, max_lag)
        except ValueError as exc:
            raise ValueError(f"entity {labels[i]}: {exc}") from None
        stats[labels[i]] = stat
        lags[labels[i]] = p
        truncated[labels[i]] = truncate_cadf(stat)
        nobs_total += nobs

    cips_stat = float(np.mean(list(stats.values())))
    cips_trunc = float(np.mean(list(truncated.values())))
    cv = cips_critical_values(n_entities, nobs_total / n_entities)
    return UnitRootResult(
        test="cips",
        statistic=cips_stat,
        lags=lags,
        nobs=nobs_total,
        stars=_stars(cips_stat, cv),
        critical_values=cv,
        cadf_stats=stats,
        truncated_statistic=cips_trunc,
        truncated_cadf=truncated,
    )


def _pairwise_correlations(data):
    """Pairwise-complete Pearson correlations of every row pair i < j.

    Each row is centred on the mean of its finite values first, so that
    series with a large mean do not cancel.  With a 0/1 finiteness mask M
    and the zero-filled centred rows X, the products M M^T, X M^T,
    (X*X) M^T and X X^T give every pair's overlap count, sums, sums of
    squares and cross sums, hence its overlap-centred moments.  A pair whose
    overlap variance on either side is within rounding of zero (at most
    4 n eps times its sum of squares) is marked degenerate.

    Returns (i, j, counts, rho, degenerate) over the pairs in row-major
    i < j order; rho is 0 where the pair has fewer than 3 overlapping
    observations or is degenerate.
    """
    ok = np.isfinite(data)
    mask = ok.astype(float)
    x = np.where(ok, data, 0.0)
    x -= x.sum(axis=1, keepdims=True) / np.maximum(ok.sum(axis=1, keepdims=True), 1)
    x[~ok] = 0.0
    counts = mask @ mask.T
    sums = x @ mask.T                      # sums[i, j]: row i over its overlap with j
    cross = x @ x.T
    squares = np.square(x, out=x) @ mask.T
    n = np.maximum(counts, 1.0)
    var = squares - sums * sums / n
    cross -= sums * sums.T / n
    i, j = np.triu_indices(len(data), 1)
    counts = counts[i, j]
    var_i, var_j = var[i, j], var[j, i]
    tiny = 4.0 * np.finfo(float).eps * counts
    degenerate = (counts >= 3) & (
        (var_i <= tiny * squares[i, j]) | (var_j <= tiny * squares[j, i])
    )
    usable = (counts >= 3) & ~degenerate
    rho = np.zeros(len(i))
    rho[usable] = cross[i, j][usable] / np.sqrt(var_i[usable] * var_j[usable])
    return i, j, counts.astype(int), rho, degenerate


def dependence_tests(panel_values, entity_labels=None):
    """Cross-sectional dependence battery on an (N, T) residual panel.

    Pairwise correlations use overlapping non-missing samples.  All pairs
    come at once from the centred Gram kernel ``_pairwise_correlations``
    (four matrix products over the row-centred data and its mask) and are
    summed in i < j order.  Pairs with fewer than 3 joint observations are
    excluded and reported in that order; a pair whose overlap variance is
    zero to rounding raises ``ValueError`` naming the pair.
    """
    from scipy.special import ndtr

    data = np.asarray(panel_values, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need an (N, T) array with at least 2 entities")
    n = data.shape[0]
    labels = list(entity_labels) if entity_labels is not None else list(range(n))

    i, j, counts, rho, degenerate = _pairwise_correlations(data)
    if degenerate.any():
        first = int(np.argmax(degenerate))
        raise ValueError(
            f"zero-variance overlap for pair ({labels[i[first]]}, {labels[j[first]]})"
        )
    usable = counts >= 3
    excluded = [(labels[a], labels[b]) for a, b in zip(i[~usable], j[~usable])]
    if not usable.any():
        raise ValueError("no entity pair has at least 3 overlapping observations")
    rhos = rho[usable]
    t_ij = counts[usable].astype(float)
    pair_count = len(rhos)

    bp = float(np.sum(t_ij * rhos**2))
    scaled = float(np.sum(t_ij * rhos**2 - 1.0) / math.sqrt(n * (n - 1)))
    t_bar = float(t_ij.mean())
    bias_corrected = scaled - n / (2.0 * (t_bar - 1.0))
    cd = float(math.sqrt(2.0 / (n * (n - 1))) * np.sum(np.sqrt(t_ij) * rhos))

    def upper_normal(z):
        return float(1.0 - ndtr(z))

    results = [
        DependenceResult("BP-LM", bp, chi2_survival(bp, pair_count), pair_count, excluded),
        DependenceResult("scaled-LM", scaled, upper_normal(scaled), pair_count, excluded),
        DependenceResult(
            "bias-corrected-LM",
            bias_corrected,
            upper_normal(bias_corrected),
            pair_count,
            excluded,
        ),
        DependenceResult(
            "Pesaran-CD", cd, 2.0 * float(ndtr(-abs(cd))), pair_count, excluded
        ),
    ]
    return results


def describe(values):
    """Moment summary of the finite entries of ``values`` (NaN marks a
    missing one) with population (n-divisor) skewness and non-excess
    kurtosis; the standard deviation uses the sample (n-1) divisor."""
    x = np.asarray(values, dtype=float)
    x = x[np.isfinite(x)]
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 non-missing values")
    mean = float(x.mean())
    centered = x - mean
    # products, not powers: ``**3`` and ``**4`` go through libm's pow, about
    # 100 times slower than a multiplication
    squared = centered * centered
    m2 = float(np.mean(squared))
    flags = []
    if m2 == 0.0:
        skew = float("nan")
        kurt = float("nan")
        flags.append("degenerate")
    else:
        skew = float(np.mean(squared * centered) / m2**1.5)
        kurt = float(np.mean(np.multiply(squared, squared, out=squared)) / m2**2)
    return DescribeRow(
        mean=mean,
        median=float(np.median(x)),
        maximum=float(x.max()),
        minimum=float(x.min()),
        std_dev=float(x.std(ddof=1)),
        skewness=skew,
        kurtosis=kurt,
        nobs=n,
        flags=flags,
    )


def correlation_matrix(series_list, labels=None):
    """Pairwise-complete Pearson correlation matrix (unit diagonal), from the
    same Gram kernel as ``dependence_tests``."""
    data = [np.asarray(s, dtype=float) for s in series_list]
    k = len(data)
    if k < 1:
        raise ValueError("need at least one series")
    length = len(data[0])
    if any(len(s) != length for s in data):
        raise ValueError("series must share a common calendar length")
    labels = list(labels) if labels is not None else [f"x{i}" for i in range(k)]
    i, j, counts, rho, degenerate = _pairwise_correlations(np.vstack(data))
    bad = (counts < 3) | degenerate
    if bad.any():
        first = int(np.argmax(bad))
        pair = f"({labels[i[first]]}, {labels[j[first]]})"
        if counts[first] < 3:
            raise ValueError(f"pair {pair} has fewer than 3 joint observations")
        raise ValueError(f"zero-variance series in pair {pair}")
    out = np.eye(k)
    out[i, j] = out[j, i] = rho
    return out, labels
