"""Quantile (LAD) regression with kernel-based inference.

The solver is a primal-dual interior-point method on the bounded-dual LP of
the check-loss problem (Frisch-Newton with Mehrotra correction).  It stops
when the duality gap falls to ``GAP_TOL``, or when a step fails to halve a
gap already within ``GAP_RTOL`` of the objective, where rounding rather than
the iterate sets the gap.  It never returns a non-finite coefficient: a
non-finite gap or iterate, a singular Newton system, or an iteration budget
spent above both thresholds, raises ``ConvergenceError``.

Large designs go through Portnoy-Koenker (1997) preprocessing ("The Gaussian
hare and the Laplacian tortoise", the method of R's ``quantreg::rq.fit.pfn``):
a fixed-seed subsample of m = round(((k+1) n)^(2/3)) rows is solved first,
the rows its fit places far below or above the quantile are pinned there and
collapsed into two summed rows, and the small remaining problem is solved
with the same interior point.  A sign check on the pinned rows proves the
result optimal for the full problem; mis-pinned rows are released and the
problem solved again.  Preprocessing runs while 2m <= n, in practice from
n >= 8 (k+1)^2 rows; smaller designs are solved directly, and so is a
design whose subsample or reduced solve fails, under the fit flag
``preprocessing_fallback``.  The iteration count of a fit is the sum over
its subproblem solves that converged.

A design's tau-independent work is done once per design, however many taus
fit it (``_Work``): the rank check, the sorted response, X'X and, per
subsample size, the pilot: the subsample, its Cholesky factor, the band of
every row and the subsample's interior-point start.  Each tau still draws
its subsample rows, so the random stream is the same at every tau and in
every order, and the fits equal those of a fresh design bit for bit.

Sparsity is estimated from residuals with an Epanechnikov kernel,
Hall-Sheather bandwidth and Rankit plotting positions; coefficient
covariances use the heteroskedasticity-robust (Huber-White) sandwich.

The design is fixed, so these are module constants, not parameters:
``MAX_ITER`` (the iteration budget of each interior-point solve),
``GAP_TOL`` (its duality-gap tolerance) and ``HS_SIZE``
(the significance level of the Hall-Sheather bandwidth, 0.05 as in Koenker,
*Quantile Regression*, 2005, section 3.4).

scipy is imported inside the functions that call it, so importing this
module, as every CLI command does, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .base import (
    BaseEstimator,
    ConvergenceError,
    as_float_array,
    check_consistent_length,
)
from .estimators import chi2_survival, pivoted_qr

GAP_TOL = 1e-9
GAP_RTOL = 1e-9
MAX_ITER = 200
HS_SIZE = 0.05
_STEP_DAMP = 0.9995
# Portnoy-Koenker preprocessing, with the constants of quantreg's rq.fit.pfn
_PK_MARGIN = 0.8          # M = 0.8 m rows left free around the quantile
_PK_MAX_MISPINNED = 0.1   # mis-pinned rows, as a share of M, before m doubles
_PK_BAND_FLOOR = 1e-6
_PK_SEED = 0


def check_loss(residuals, tau):
    """Asymmetric absolute loss sum(u * (tau - 1{u<0}))."""
    u = np.asarray(residuals, dtype=float)
    return float(np.sum(u * (tau - (u < 0.0))))


def rankit_positions(n):
    """Plotting positions (i - 3/8) / (n + 1/4), i = 1..n."""
    return (np.arange(1, n + 1) - 0.375) / (n + 0.25)


def rankit_quantile(values, tau):
    """Empirical quantile interpolated at Rankit plotting positions."""
    return _rankit_sorted(np.sort(np.asarray(values, dtype=float)), tau)


def _rankit_sorted(xs, tau):
    """``rankit_quantile`` of the sorted values ``xs``."""
    return float(np.interp(tau, rankit_positions(len(xs)), xs))


def _epanechnikov(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u**2), 0.0)


def hall_sheather_bandwidth(tau, n):
    """Plug-in bandwidth in probability units at significance ``HS_SIZE``."""
    from scipy.special import ndtri

    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if n < 2:
        raise ValueError("need n >= 2")
    z_alpha = ndtri(1.0 - HS_SIZE / 2.0)
    z_tau = ndtri(tau)
    density = math.exp(-0.5 * z_tau**2) / math.sqrt(2.0 * math.pi)
    return float(
        n ** (-1.0 / 3.0)
        * z_alpha ** (2.0 / 3.0)
        * (1.5 * density**2 / (2.0 * z_tau**2 + 1.0)) ** (1.0 / 3.0)
    )


def _clamped_bandwidth(tau, n):
    """Hall-Sheather bandwidth, shrunk so [tau-h, tau+h] stays inside (0, 1)."""
    h = hall_sheather_bandwidth(tau, n)
    clamped = False
    limit = min(tau, 1.0 - tau)
    if h >= limit:
        h = limit * (1.0 - 1e-9)
        clamped = True
    return h, clamped


def _median_interval_quantile(ys, tau):
    """Check-loss minimizer of the sorted values ``ys``, with the midpoint
    convention on flat optima."""
    n = len(ys)
    m = n * tau
    j = round(m)
    if abs(m - j) < 1e-9 and 1 <= j <= n - 1:
        return 0.5 * (ys[j - 1] + ys[j])
    return float(ys[min(max(math.ceil(m - 1e-9), 1), n) - 1])


# ---------------------------------------------------------------------------
# interior-point solver


def _bound(v, dv):
    """Largest multiple of dv that keeps v positive: the minimum of -v/dv
    over the entries with dv < 0, or inf when there are none.

    Dividing by min(dv, -0.0) sends every entry with dv >= 0 to -inf, so one
    division and one max give the same bits as the masked minimum without
    gathering the negative entries.  The only NaN it makes is 0/-0.0 (v = 0
    where dv >= 0); then the max is taken over dv < 0 alone.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = v / np.minimum(dv, -0.0)
    top = ratio.max()
    if np.isnan(top):
        top = ratio.max(where=dv < 0, initial=-np.inf)
    return -top


def _newton_step(M, rhs, it):
    """Solve the Newton system of iteration ``it``; a singular ``M`` is a
    ``ConvergenceError``, like the solver's other failures."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(
            f"interior-point solver hit a singular Newton system at iteration {it} ({err})"
        ) from None


def _solve_lp(X, y, tau, start=None):
    """Frisch-Newton interior point on the bounded dual of the check-loss LP.

    Dual: max y'a subject to X'a = (1 - tau) X'1 and a in [0, 1]^n; the
    equality multipliers at the optimum are the negative regression
    coefficients.  They start from the least-squares fit of -y on X, which
    a caller that solves the same (X, y) at several taus passes as
    ``start``.

    The iteration stops when the duality gap is at most ``GAP_TOL``, or when
    a step fails to halve a gap that is already within ``GAP_RTOL`` of the
    objective: the gap is a difference of terms of the objective's size, so
    below that floor its rounding, not the iterate, decides whether it falls
    further, and iterating on drives the iterates toward underflow.  A
    non-finite gap, a singular Newton system, or an exhausted ``MAX_ITER``
    with the gap above both thresholds, raises ``ConvergenceError``.
    """
    n, k = X.shape
    A = X.T
    c = -y
    x = np.full(n, 1.0 - tau)
    s = 1.0 - x
    b = A @ x

    yy = np.linalg.lstsq(A.T, c, rcond=None)[0] if start is None else start
    r = c - A.T @ yy
    r = r + 0.001 * (r == 0.0)
    z = np.where(r > 0, r, 0.0)
    w = z - r
    objective = c @ x
    gap = objective - yy @ b + w.sum()
    floor = GAP_RTOL * max(1.0, abs(objective))

    it = 0
    while math.isfinite(gap) and gap > GAP_TOL and it < MAX_ITER:
        it += 1
        q = 1.0 / (z / x + w / s)
        r = z - w
        qa = q[:, None] * A.T
        M = A @ qa
        rhs = A @ (q * r)
        dy = _newton_step(M, rhs, it)
        dx = q * (A.T @ dy - r)
        ds = -dx
        dz = -z * (1.0 + dx / x)
        dw = -w * (1.0 + ds / s)

        fp = min(_STEP_DAMP * min(_bound(x, dx), _bound(s, ds)), 1.0)
        fd = min(_STEP_DAMP * min(_bound(w, dw), _bound(z, dz)), 1.0)

        if min(fp, fd) < 1.0:
            mu = z @ x + w @ s
            g = (z + fd * dz) @ (x + fp * dx) + (w + fd * dw) @ (s + fp * ds)
            mu = mu * (g / mu) ** 3 / (2.0 * n)
            dxdz = dx * dz
            dsdw = ds * dw
            xinv = 1.0 / x
            sinv = 1.0 / s
            xi = mu * (xinv - sinv)
            dy = _newton_step(M, rhs + A @ (q * (dxdz - dsdw - xi)), it)
            dx = q * (A.T @ dy + xi - r - dxdz + dsdw)
            ds = -dx
            dz = mu * xinv - z - xinv * z * dx - dxdz
            dw = mu * sinv - w - sinv * w * ds - dsdw
            fp = min(_STEP_DAMP * min(_bound(x, dx), _bound(s, ds)), 1.0)
            fd = min(_STEP_DAMP * min(_bound(w, dw), _bound(z, dz)), 1.0)

        x = x + fp * dx
        s = s + fp * ds
        yy = yy + fd * dy
        z = z + fd * dz
        w = w + fd * dw
        previous = gap
        objective = c @ x
        gap = objective - yy @ b + w.sum()
        floor = GAP_RTOL * max(1.0, abs(objective))
        if gap > 0.5 * previous and gap <= floor:
            break

    if not (math.isfinite(gap) and np.isfinite(yy).all()):
        raise ConvergenceError(
            f"interior-point solver produced a non-finite iterate at iteration {it} "
            f"(gap {gap:.3e})"
        )
    if gap > GAP_TOL and gap > floor:
        raise ConvergenceError(
            f"interior-point solver did not converge in {MAX_ITER} iterations "
            f"(gap {gap:.3e})"
        )
    return -yy, it


def _sample_factor(sample):
    """Cholesky factor of a subsample's X'X, or None when the subsample is
    unusable: X'X is singular, or a column is nonzero on one row only.  Such
    a row's dual variable is held at 1 - tau, inside its bounds, and
    ``_solve_lp`` then overflows on it."""
    if np.count_nonzero(sample, axis=0).min() < 2:
        return None
    try:
        return np.linalg.cholesky(sample.T @ sample)
    except np.linalg.LinAlgError:
        return None


@dataclass
class _Pilot:
    """A usable Portnoy-Koenker subsample and what every tau reads of it."""

    sample: np.ndarray      # X[rows]
    response: np.ndarray    # y[rows]
    start: np.ndarray       # the interior point's start on the subsample
    band: np.ndarray        # ||L^-1 x_i|| of every row, L from _sample_factor
    scale: np.ndarray       # the band, floored at _PK_BAND_FLOOR


class _Work:
    """The tau-independent work of quantile fits on one ``(X, y)``, each
    part done on first use: the checks of X and its rank, the sorted
    response, X'X and, per subsample size m, the Portnoy-Koenker pilot.
    ``PanelQuantile.fit`` keeps one per design, so every tau of a battery
    shares it; a bare-array fit makes its own."""

    _BAND_ROWS = 8192   # rows per block of the band, so no k x n temporary

    def __init__(self, X, y, columns=None):
        self.X = as_float_array(X, "X", ndim=2)
        self.y = as_float_array(y, "y")
        check_consistent_length(X=self.X, y=self.y)
        self.columns = columns
        self._full_rank = False
        self._pilots = {}

    def check_rank(self):
        """Refuse a design with no more rows than columns, and raise
        ``RankDeficiencyError`` naming the collinear columns unless X has
        full column rank (one pivoted QR of a copy)."""
        n, k = self.X.shape
        if n <= k:
            raise ValueError(f"need more rows ({n}) than columns ({k})")
        if not self._full_rank:
            pivoted_qr(np.array(self.X, order="F"), self.columns)
            self._full_rank = True

    @cached_property
    def sorted_response(self):
        return np.sort(self.y)

    @cached_property
    def gram(self):
        """X'X, the middle of every tau's sandwich."""
        return self.X.T @ self.X

    def pilot(self, m, rows):
        """The ``_Pilot`` of the m sorted ``rows`` drawn for it, or None when
        the subsample is unusable (``_sample_factor``).  Every tau draws the
        same rows for a given m, so it is built on the first draw only."""
        if m not in self._pilots:
            self._pilots[m] = self._make_pilot(rows)
        return self._pilots[m]

    def _make_pilot(self, rows):
        import scipy.linalg as sla

        sample = self.X[rows]
        chol = _sample_factor(sample)
        if chol is None:
            return None
        response = self.y[rows]
        band = np.empty(len(self.X))
        for lo in range(0, len(band), self._BAND_ROWS):
            block = self.X[lo:lo + self._BAND_ROWS]
            part = sla.solve_triangular(chol, block.T, lower=True)
            band[lo:lo + len(block)] = np.sqrt(np.square(part, out=part).sum(axis=0))
        start = np.linalg.lstsq(sample, -response, rcond=None)[0]
        return _Pilot(sample, response, start, band, np.maximum(_PK_BAND_FLOOR, band))


def _solve_preprocessed(work, tau):
    """Portnoy-Koenker (1997) preprocessing around ``_solve_lp``, on the
    ``_Work`` of a design.

    A subsample of m = round(((k+1) n)^(2/3)) rows gives a first fit.  Rows
    whose residuals, scaled by the band ||L^-1 x_i|| (L the Cholesky factor
    of the subsample's X'X), lie below or above the tau -/+ M/(2n) quantiles
    of the scaled residuals, with M = 0.8 m, are pinned to that side and
    collapsed into one summed "glob" row per side.  The check loss is
    sublinear, so the reduced problem's loss never exceeds the full loss and
    equals it wherever every pinned row keeps its side: a solution of the
    reduced problem under which no row pinned below has a positive residual
    and no row pinned above a negative one is optimal for the full problem.
    Mis-pinned rows are released and the reduced problem solved again; more
    than 0.1 M of them, or an unusable subsample (``_sample_factor``), doubles
    m and redraws.  Once 2m exceeds n the direct solve runs, and so it does,
    flagged ``preprocessing_fallback``, when a sample or reduced solve raises
    ``ConvergenceError``.  The subsample and its band and start, which do not
    depend on tau, come from ``work.pilot``.  Returns the coefficients, the
    iterations summed over every subproblem solve that converged, and the
    flags.
    """
    X, y = work.X, work.y
    n, k = X.shape
    m = round(((k + 1) * n) ** (2.0 / 3.0))
    rng = np.random.default_rng(_PK_SEED)
    iterations = 0
    flags = []
    try:
        while 2 * m <= n:
            pilot = work.pilot(m, np.sort(rng.choice(n, size=m, replace=False)))
            if pilot is None:
                m *= 2
                continue
            beta, it = _solve_lp(pilot.sample, pilot.response, tau, start=pilot.start)
            iterations += it
            band = pilot.band
            r = y - X @ beta
            margin = _PK_MARGIN * m
            lo_q = max(1.0 / n, tau - margin / (2.0 * n))
            hi_q = min(tau + margin / (2.0 * n), (n - 1.0) / n)
            kappa_lo, kappa_hi = np.quantile(r / pilot.scale, [lo_q, hi_q])
            below = r < band * kappa_lo
            above = r > band * kappa_hi
            while True:
                free = ~(below | above)
                parts_X, parts_y = [X[free]], [y[free]]
                for pinned in (below, above):
                    if pinned.any():
                        # equal to X[pinned].sum(axis=0), without the copy
                        parts_X.append(np.add.reduce(X, axis=0, where=pinned[:, None])[None, :])
                        parts_y.append(y[pinned].sum(keepdims=True))
                beta, it = _solve_lp(np.concatenate(parts_X), np.concatenate(parts_y), tau)
                iterations += it
                r = y - X @ beta
                wrong_below = below & (r > 0.0)
                wrong_above = above & (r < 0.0)
                wrong = int(wrong_below.sum() + wrong_above.sum())
                if not wrong:
                    return beta, iterations, flags
                if wrong > _PK_MAX_MISPINNED * margin:
                    m *= 2
                    break
                below &= ~wrong_below
                above &= ~wrong_above
    except ConvergenceError:
        flags.append("preprocessing_fallback")
    beta, it = _solve_lp(X, y, tau)
    return beta, iterations + it, flags


def fit_quantile_coefficients(X, y, tau, columns=None):
    """Coefficients minimizing the check loss, and the solver's iteration count.

    An intercept-only fit takes the midpoint convention on a flat optimum.
    Otherwise, while 2m <= n with m = round(((k+1) n)^(2/3)), the fit runs
    through Portnoy-Koenker preprocessing (``_solve_preprocessed``): the
    reduced problem's solution is returned only once no pinned row has a
    residual of the wrong sign, which proves it optimal for the full problem.
    Smaller designs, and designs whose sample or reduced solve fails, go to
    ``_solve_lp`` directly.  The iteration count is the sum over every
    subproblem that converged; ``MAX_ITER`` and ``GAP_TOL`` apply to each,
    and a ``ConvergenceError`` of the direct solve propagates.  A
    rank-deficient ``X`` raises ``RankDeficiencyError`` naming the collinear
    ``columns`` (``x0``, ``x1``, ... when none are given).
    """
    beta, iterations, _ = _fit_with_flags(_Work(X, y, columns), tau)
    return beta, iterations


def _fit_with_flags(work, tau):
    """``fit_quantile_coefficients`` on the ``_Work`` of a design, and the
    solver's flags."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    work.check_rank()
    X = work.X
    if X.shape[1] == 1 and np.ptp(X[:, 0]) == 0.0:
        level = X[0, 0]
        if level == 0.0:
            raise ValueError("intercept-only design with a zero column")
        return np.array([_median_interval_quantile(work.sorted_response, tau) / level]), 0, []
    return _solve_preprocessed(work, tau)


# ---------------------------------------------------------------------------
# inference


def sparsity_hall_sheather(residuals, tau):
    """Kernel-smoothed derivative of the residual quantile function at ``tau``.

    Epanechnikov kernel over Rankit plotting positions with the Hall-Sheather
    bandwidth; returns ``(sparsity, bandwidth, clamped)``.
    """
    return _sparsity(np.sort(np.asarray(residuals, dtype=float)), tau)


def _sparsity(u, tau):
    """``sparsity_hall_sheather`` of the sorted residuals ``u``."""
    n = len(u)
    if n < 10:
        raise ValueError(f"need at least 10 residuals, got {n}")
    h, clamped = _clamped_bandwidth(tau, n)
    p = rankit_positions(n)
    midpoints = 0.5 * (p[:-1] + p[1:])
    spacings = np.diff(u)
    dp = np.diff(p)
    weights = _epanechnikov((midpoints - tau) / h)
    total = weights @ dp
    if total <= 0.0:
        nearest = int(np.argmin(np.abs(midpoints - tau)))
        weights = np.zeros_like(weights)
        weights[nearest] = 1.0
        total = dp[nearest]
    sparsity = float((weights @ spacings) / total)
    if sparsity <= 0.0:
        raise ValueError("degenerate residual distribution: zero quantile density spacing")
    return sparsity, h, clamped


def sandwich_cov(X, residuals, tau):
    """Huber-White sandwich tau(1-tau) B^-1 (X'X) B^-1 with a kernel
    density-weighted bread B = sum f_i x_i x_i'."""
    X = np.asarray(X, dtype=float)
    u = np.asarray(residuals, dtype=float)
    return _sandwich(X, u, np.sort(u), tau, X.T @ X)


def _sandwich(X, u, u_sorted, tau, gram):
    """``sandwich_cov`` given the sorted residuals and ``gram`` = X'X."""
    h, _ = _clamped_bandwidth(tau, len(u))
    lo = _rankit_sorted(u_sorted, tau - h)
    hi = _rankit_sorted(u_sorted, tau + h)
    c = hi - lo
    if c <= 0.0:
        raise ValueError("degenerate residuals: zero bandwidth in residual units")
    f = _epanechnikov(u / c) / c
    bread = (X * f[:, None]).T @ X
    try:
        bread_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise ValueError("singular bread matrix in the quantile sandwich") from None
    cov = tau * (1.0 - tau) * bread_inv @ gram @ bread_inv
    return (cov + cov.T) / 2.0


@dataclass
class QuantileFit:
    """Per-tau estimate bundle."""

    tau: float
    columns: list
    params: np.ndarray
    cov: np.ndarray
    nobs: int
    check_loss: float
    restricted_loss: float
    pseudo_r2: float
    sparsity: float
    hall_sheather_bw: float
    quantile_dependent: float
    quasi_lr_stat: float
    quasi_lr_pvalue: float
    residuals: np.ndarray
    iterations: int
    flags: list = field(default_factory=list)

    @property
    def se(self):
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))

    def coef(self, name):
        return float(self.params[self.columns.index(name)])

    def se_of(self, name):
        return float(self.se[self.columns.index(name)])


def pseudo_r2(fit_loss, restricted_loss):
    """Koenker-Machado 1 - L_full / L_restricted."""
    if restricted_loss == 0.0:
        if fit_loss == 0.0:
            raise ValueError("pseudo R2 undefined: zero restricted and unrestricted loss")
        raise ValueError("restricted loss is zero but unrestricted loss is not")
    return 1.0 - fit_loss / restricted_loss


def _quasi_lr(tau, loss, restricted_loss, sparsity, df):
    """Quasi-likelihood-ratio statistic and p-value of a fit with check loss
    ``loss`` against a nested fit with ``df`` fewer columns."""
    if df < 0:
        raise ValueError("restricted model must not have more columns than the full model")
    excess = restricted_loss - loss
    if excess < -1e-8 * max(1.0, abs(loss)):
        raise ValueError(
            "restricted loss below full loss: models do not appear to be nested"
        )
    excess = max(excess, 0.0)
    stat = 2.0 * excess / (tau * (1.0 - tau) * sparsity)
    if df == 0:
        if stat > 1e-8:
            raise ValueError("models share a column count but differ in fit")
        return 0.0, 1.0
    return stat, chi2_survival(stat, df)


def quasi_lr(full, restricted):
    """Quasi-likelihood-ratio test of a nested quantile fit.

    statistic = 2 (L_r - L_f) / (tau (1 - tau) sparsity), chi-square with
    df equal to the difference in column counts.  Identical models yield
    (0, 1).
    """
    if abs(full.tau - restricted.tau) > 1e-12 or full.nobs != restricted.nobs:
        raise ValueError("fits must share tau and data")
    return _quasi_lr(full.tau, full.check_loss, restricted.check_loss, full.sparsity,
                     len(full.columns) - len(restricted.columns))


def _work_of(design):
    """The ``_Work`` of a ``DesignMatrix``, made on its first quantile fit
    and kept on the design for the next tau."""
    work = design._quantile_work
    if work is None or work.X is not design.matrix or work.y is not design.response:
        work = design._quantile_work = _Work(design.matrix, design.response, design.columns)
    return work


class PanelQuantile(BaseEstimator):
    """Pooled quantile regression estimator for one tau level."""

    def __init__(self, tau=0.5):
        self.tau = tau

    def fit(self, design):
        work = _work_of(design)
        X, y, ys = work.X, work.y, work.sorted_response
        params, iterations, flags = _fit_with_flags(work, self.tau)
        residuals = y - X @ params
        loss = check_loss(residuals, self.tau)
        spread = float(np.ptp(residuals))
        scale = max(1.0, float(np.abs(y).max()))
        degenerate = spread <= 1e-12 * scale
        if degenerate:
            # residuals carry no dispersion (for example an exact fit);
            # report the point estimates without a covariance
            sparsity = float("nan")
            bw, _ = _clamped_bandwidth(self.tau, design.nobs)
            clamped = False
            cov = np.zeros((X.shape[1], X.shape[1]))
        else:
            u_sorted = np.sort(residuals)
            sparsity, bw, clamped = _sparsity(u_sorted, self.tau)
            cov = _sandwich(X, residuals, u_sorted, self.tau, work.gram)

        restricted_center = _median_interval_quantile(ys, self.tau)
        restricted_loss = check_loss(y - restricted_center, self.tau)
        if clamped:
            flags.append("bandwidth_clamped")
        if degenerate:
            flags.append("degenerate_residuals")

        result = QuantileFit(
            tau=self.tau,
            columns=design.columns,
            params=params,
            cov=cov,
            nobs=design.nobs,
            check_loss=loss,
            restricted_loss=restricted_loss,
            pseudo_r2=pseudo_r2(loss, restricted_loss),
            sparsity=sparsity,
            hall_sheather_bw=bw,
            quantile_dependent=_rankit_sorted(ys, self.tau),
            quasi_lr_stat=0.0,
            quasi_lr_pvalue=1.0,
            residuals=residuals,
            iterations=iterations,
            flags=flags,
        )
        if len(design.columns) > 1 and not degenerate:
            # against the intercept-only fit at the restricted center
            result.quasi_lr_stat, result.quasi_lr_pvalue = _quasi_lr(
                self.tau, loss, restricted_loss, sparsity, len(design.columns) - 1)
        self.result_ = result
        self.coef_ = params
        self.cov_ = cov
        return self
