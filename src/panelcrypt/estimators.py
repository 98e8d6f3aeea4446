"""Panel regression machinery: pooled OLS, fixed/random effects,
cross-section-weighted feasible GLS, White covariance, the Hausman
specification test and long-run effect arithmetic.

Estimators follow the scikit-learn convention: hyperparameters in the
constructor, ``fit`` returns ``self``, learned quantities live on
underscore attributes (``result_``, ``coef_``, ...).  All fits are
deterministic pure functions of the design matrix.

Row weights are the one weighting mechanism: pooled, fixed and random
effects each solve weighted least squares on their transformed rows, and
cross-section EGLS is the same estimator refitted with inverse-variance
weights.  Each fit builds its transform (within deviations, RE
quasi-demeaning, or a copy of the pooled matrix) once, in Fortran order, and
``_wls`` scales it by the square roots of the weights and factors it in
place with one pivoted QR: the coefficients, residuals and both covariances
come from R and Q, so a fit holds one working copy of its design and never
forms X'X.  A dynamic fit is an ordinary fit whose design carries the
response lag column (built by ``pipeline.build_design``).  Each fit keeps
its classical covariance, and EGLS its stage-1 fit, for the Hausman test.

scipy is imported inside the functions that call it, so the commands that
fit nothing (``simulate``, ``ingest``, ``metrics``, ...) start without it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .base import BaseEstimator, RankDeficiencyError

RANK_TOL = 1e-10

EFFECTS = ("pooled", "fixed", "random")
WEIGHTS = ("none", "cross_section_egls")
COVARIANCES = ("classical", "white")


# ---------------------------------------------------------------------------
# design matrix


@dataclass
class DesignMatrix:
    """Complete-case regression data with entity and date labels per row.

    ``weights`` are finite positive row weights (default 1): every estimator
    scales its transformed rows by their square roots before solving.  Under
    fixed effects they must be constant within each entity.
    """

    response: np.ndarray
    matrix: np.ndarray
    columns: list
    entities: np.ndarray
    dates: np.ndarray = None
    weights: np.ndarray = None
    response_name: str = "y"
    _quantile_work = None  # what every tau of a quantile fit shares, set by quantreg

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        n, k = self.matrix.shape
        if len(self.response) != n:
            raise ValueError("response and matrix row counts differ")
        self.columns = list(self.columns)
        if len(self.columns) != k:
            raise ValueError(f"{k} matrix columns but {len(self.columns)} names")
        if len(set(self.columns)) != k:
            dupes = sorted({c for c in self.columns if self.columns.count(c) > 1})
            raise ValueError(f"duplicate column names {dupes}")
        self.entities = np.asarray(self.entities)
        if len(self.entities) != n:
            raise ValueError("entities must align with rows")
        if self.dates is not None:
            self.dates = np.asarray(self.dates)
            if len(self.dates) != n:
                raise ValueError("dates must align with rows")
        if self.weights is None:
            self.weights = np.ones(n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            positive = np.isfinite(self.weights) & (self.weights > 0)
            if len(self.weights) != n or not np.all(positive):
                raise ValueError("weights must be finite, positive and align with rows")
        if not np.all(np.isfinite(self.response)) or not np.all(np.isfinite(self.matrix)):
            raise ValueError("design contains missing or non-finite values; "
                             "drop incomplete rows upstream")

    @property
    def nobs(self):
        return len(self.response)

    @property
    def lag_column(self):
        """Name of the response lag column when the design carries one."""
        name = f"{self.response_name}_lag"
        return name if name in self.columns else None

    def column(self, name):
        return self.matrix[:, self.columns.index(name)]

    @cached_property
    def groups(self):
        """The entity grouping of the rows, built on first use.  Every fit
        of this design reads it; ``replace`` makes a design that builds its
        own, unless the caller assigns the grouping of a design with the same
        entities, as EGLS stage 2 does, or a ``_Groups.subset`` for rows it
        selected, as ``pipeline.build_design`` does."""
        return _Groups(self.entities)

    @cached_property
    def within(self):
        """``(varying, invariant, xbar, ybar)``: the indices of the columns
        with and without within-entity variation, and the entity means of
        every column and of the response.  Built on first use, a column at a
        time; the fixed- and random-effects transforms read it, and EGLS
        stage 2 assigns stage 1's, its matrix and entities being the same."""
        groups = self.groups
        xbar = groups.mean(self.matrix)
        ybar = groups.mean(self.response)
        # a column at a time in two reused n-length buffers; max |v| is
        # max(v.max(), -v.min()), which needs no copy for the abs
        column, deviation = np.empty(self.nobs), np.empty(self.nobs)
        varying = np.empty(self.matrix.shape[1], dtype=bool)
        for j, means in enumerate(np.ascontiguousarray(xbar.T)):
            np.copyto(column, self.matrix[:, j])
            np.take(means, groups.codes, out=deviation, mode="clip")
            np.subtract(column, deviation, out=deviation)
            size = max(column.max(), -column.min(), 1.0)
            varying[j] = max(deviation.max(), -deviation.min()) > RANK_TOL * size
        if not varying.any():
            raise ValueError("no within-entity variation in any regressor")
        return np.flatnonzero(varying), np.flatnonzero(~varying), xbar, ybar


class _Groups:
    """Entity grouping helper (codes, counts, group means).

    ``labels`` and ``codes`` equal ``np.unique(entities, return_inverse=True)``
    in values and dtype.  They come from a set and a dict lookup per row
    instead: ``np.unique`` sorts the whole object array of labels, which on
    a long panel costs far more than hashing each row once.  A report hashes
    its rows once, for its design table, and each design takes the
    ``subset`` of the rows it selects.
    """

    def __init__(self, entities):
        values = entities.tolist()
        labels = sorted(set(values))
        index = {label: code for code, label in enumerate(labels)}
        self.labels = np.array(labels, dtype=entities.dtype)
        self.codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
        self.n_groups = len(self.labels)
        self.counts = np.bincount(self.codes, minlength=self.n_groups)

    def subset(self, rows):
        """The grouping of ``entities[rows]``, from this one's codes: an
        entity left without a row loses its label, and the codes after it
        close up."""
        sub = copy.copy(self)
        sub.codes = self.codes[rows]
        sub.counts = np.bincount(sub.codes, minlength=self.n_groups)
        present = sub.counts > 0
        if not present.all():
            sub.labels = self.labels[present]
            sub.codes = (np.cumsum(present) - 1)[sub.codes]
            sub.counts = sub.counts[present]
            sub.n_groups = len(sub.labels)
        return sub

    def mean(self, v):
        if v.ndim == 1:
            return np.bincount(self.codes, weights=v, minlength=self.n_groups) / self.counts
        out = np.empty((self.n_groups, v.shape[1]))
        for j in range(v.shape[1]):
            out[:, j] = np.bincount(self.codes, weights=v[:, j], minlength=self.n_groups)
        return out / self.counts[:, None]


# ---------------------------------------------------------------------------
# results


@dataclass
class VarianceComponents:
    """Swamy-Arora components for the random-effects GLS transform."""

    sd_alpha: float
    sd_idiosyncratic: float
    rho_alpha: float
    rho_idiosyncratic: float
    theta: dict                   # entity label -> quasi-demeaning factor
    clamped: bool = False


@dataclass
class FitResult:
    """Estimate bundle for one panel regression."""

    method: str
    columns: list
    params: np.ndarray
    cov: np.ndarray
    nobs: int
    n_entities: int
    df_resid: int
    r2: float
    adj_r2: float
    residuals: np.ndarray          # original-scale residuals
    entity_effects: dict = None    # FE intercepts by entity label
    intercept: float = None        # FE: mean entity effect
    intercept_se: float = None
    variance_components: VarianceComponents = None
    absorbed: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    lag_column: str = None
    entity_weights: dict = None    # EGLS: entity label -> 1/sigma_i^2
    classical_cov: np.ndarray = None  # of the same solve
    stage1: FitResult = None       # EGLS: the unweighted stage-1 fit

    def __post_init__(self):
        asym = float(np.abs(self.cov - self.cov.T).max()) if self.cov.size else 0.0
        if asym > 1e-8 * max(1.0, float(np.abs(self.cov).max())):
            raise ValueError("covariance matrix is not symmetric")

    @property
    def se(self):
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))

    @property
    def phi(self):
        """Coefficient on the lagged response in a dynamic fit."""
        if self.lag_column is None or self.lag_column not in self.columns:
            return None
        return float(self.params[self.columns.index(self.lag_column)])

    def coef(self, name):
        return float(self.params[self.columns.index(name)])

    def se_of(self, name):
        return float(self.se[self.columns.index(name)])


@dataclass
class HausmanResult:
    statistic: float
    df: int
    p_value: float
    columns: list
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# linear algebra core


def pivoted_qr(X, columns=None):
    """Pivoted QR ``X[:, piv] = Q R`` with a deterministic rank check.

    LAPACK factors ``X`` in its own buffer when it is a Fortran-ordered
    float array, and ``Q`` then takes that buffer: pass a copy to keep
    ``X``.  Raises RankDeficiencyError naming the offending column
    combination when a pivot of R falls below ``RANK_TOL`` relative to the
    largest pivot.  The combination is the least-squares fit of that
    column on the columns pivoted before it, read from R: with
    ``X[:, piv[:j]] = Q[:, :j] R[:j, :j]``, its coefficients solve
    ``R[:j, :j] c = R[:j, j]``.
    """
    from scipy import linalg as sla

    n, k = X.shape
    if n < k:
        raise ValueError(f"need at least as many rows ({n}) as columns ({k})")
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True, overwrite_a=True)
    diag = np.abs(np.diag(R))
    ref = diag[0] if diag.size else 0.0
    if ref == 0.0:
        raise RankDeficiencyError("design matrix is identically zero", columns or [])
    deficient = np.flatnonzero(diag <= RANK_TOL * ref)
    if deficient.size:
        j = int(deficient[0])
        names = columns if columns is not None else [f"x{i}" for i in range(k)]
        involved = [names[piv[j]]]
        if j > 0:
            coef = sla.solve_triangular(R[:j, :j], R[:j, j])
            scale = max(1.0, float(np.abs(coef).max()))
            for idx, c in zip(piv[:j], coef):
                if abs(c) > 1e-8 * scale:
                    involved.append(names[idx])
        raise RankDeficiencyError(
            f"rank-deficient design: columns {sorted(involved)} are collinear",
            sorted(involved),
        )
    return Q, R, piv


def white_cov(X, residuals):
    """Heteroskedasticity-robust sandwich (X'X)^-1 (sum e_i^2 x_i x_i') (X'X)^-1."""
    X = np.asarray(X, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if X.ndim != 2 or len(residuals) != X.shape[0]:
        raise ValueError("residuals must align with the design rows")
    XtX_inv = np.linalg.inv(X.T @ X)
    meat = (X * residuals[:, None] ** 2).T @ X
    cov = XtX_inv @ meat @ XtX_inv
    return (cov + cov.T) / 2.0


def _unpivoted(cov, piv):
    """The symmetric part of a covariance of the pivoted columns, in the
    columns' own order."""
    out = np.empty_like(cov)
    out[np.ix_(piv, piv)] = (cov + cov.T) / 2.0
    return out


def _wls(X, y, weights, columns, covariance, df_resid):
    """Weighted least squares on a transform that the fit owns.

    ``X`` must be a Fortran-ordered float array: its rows are scaled by
    ``sqrt(weights)`` (unless ``weights`` is None) and LAPACK factors it in
    place, so it is overwritten.  From ``X[:, piv] = Q R`` come the
    coefficients ``R^-1 Q'y``, the residuals ``y - Q Q'y``, the classical
    covariance ``sigma^2 R^-1 R^-T`` and the White covariance
    ``R^-1 (Q o e)'(Q o e) R^-T``, each un-pivoted; X'X is never formed.

    Returns ``(beta, scaled residuals, covariances)``, the last being the
    ``FitResult`` fields ``cov`` and ``classical_cov`` of the scaled rows.
    A design without residual degrees of freedom is refused: its fit is
    exact, and its standard errors would be rounding noise.
    """
    from scipy import linalg as sla

    if df_resid <= 0:
        raise ValueError(f"no residual degrees of freedom ({len(X)} rows, {X.shape[1]} columns)")
    if weights is not None:
        root = np.sqrt(weights)
        X *= root[:, None]
        y = y * root
    Q, R, piv = pivoted_qr(X, columns)
    qty = Q.T @ y
    beta = np.empty(len(qty))
    beta[piv] = sla.solve_triangular(R, qty)
    resid = y - Q @ qty
    R_inv = sla.solve_triangular(R, np.eye(len(qty)))
    classical = _unpivoted(float(resid @ resid) / df_resid * (R_inv @ R_inv.T), piv)
    if covariance == "classical":
        cov = classical
    elif covariance == "white":
        Q *= resid[:, None]
        cov = _unpivoted(R_inv @ (Q.T @ Q) @ R_inv.T, piv)
    else:
        raise ValueError(f"unknown covariance {covariance!r}; expected one of {COVARIANCES}")
    return beta, resid, dict(cov=cov, classical_cov=classical)


def _adj_r2(r2, nobs, n_params):
    return 1.0 - (1.0 - r2) * (nobs - 1) / (nobs - n_params)


def _r2_original(y, fitted):
    resid = y - fitted
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if np.allclose(resid, 0.0) else 0.0
    return 1.0 - float(resid @ resid) / sst


# ---------------------------------------------------------------------------
# estimators


def _demeaned(design, columns, scale=None):
    """Deviations of ``columns`` and of the response from ``scale`` times
    their entity means (the whole means when ``scale`` is None), built a
    column at a time into a new Fortran-ordered matrix that the fit owns and
    ``_wls`` factors in place."""
    _, _, xbar, ybar = design.within
    codes = design.groups.codes
    xbar = np.ascontiguousarray(xbar.T)  # row j: column j's entity means
    X = np.empty((design.nobs, len(columns)), order="F")
    for out, j in zip(X.T, columns):
        means = np.take(xbar[j], codes, out=out, mode="clip")
        if scale is not None:
            means *= scale
        np.subtract(design.matrix[:, j], means, out=out)
    means = ybar[codes]
    if scale is not None:
        means *= scale
    return X, design.response - means


class _LeastSquares(BaseEstimator):
    """Constructor and result assembly shared by the panel estimators."""

    def __init__(self, covariance="white"):
        self.covariance = covariance

    def _finish(self, design, fitted, n_params, **fields):
        """Set ``result_``, ``coef_`` and ``cov_`` from the original-scale
        fitted values; ``fields`` are the ``FitResult`` fields that differ
        between estimators."""
        r2 = _r2_original(design.response, fitted)
        self.result_ = FitResult(
            nobs=design.nobs,
            n_entities=design.groups.n_groups,
            r2=r2,
            adj_r2=_adj_r2(r2, design.nobs, n_params),
            residuals=design.response - fitted,
            lag_column=design.lag_column,
            **fields,
        )
        self.coef_ = self.result_.params
        self.cov_ = self.result_.cov
        return self


class PooledOLS(_LeastSquares):
    """Ordinary least squares on the pooled panel."""

    def fit(self, design):
        n, k = design.matrix.shape
        beta, _, covs = _wls(np.array(design.matrix, order="F"), design.response,
                             design.weights, design.columns, self.covariance, n - k)
        return self._finish(design, design.matrix @ beta, k, method="pooled",
                            columns=list(design.columns), params=beta, df_resid=n - k,
                            **covs)


class FixedEffects(_LeastSquares):
    """Within estimator with recovered per-entity intercepts.

    Time-invariant columns are absorbed by the entity effects; they are
    reported on ``result_.absorbed`` rather than silently dropped.  Row
    weights must be constant within each entity: demeaning and weighting
    then commute, and the weighted within fit equals weighted LSDV.  A
    design without residual degrees of freedom is refused: its fit is exact,
    and its standard errors would be rounding noise.
    """

    def fit(self, design):
        groups = design.groups
        if np.any(groups.counts < 2):
            thin = groups.labels[groups.counts < 2].tolist()
            raise ValueError(f"entities with fewer than 2 rows under fixed effects: {thin}")
        varying, invariant, xbar, ybar = design.within
        absorbed = [design.columns[j] for j in invariant]
        columns = [design.columns[j] for j in varying]
        weights = np.empty(groups.n_groups)
        weights[groups.codes] = design.weights
        if np.any(weights[groups.codes] != design.weights):
            raise ValueError("fixed effects need row weights constant within each entity")
        n, k = design.nobs, varying.size
        df_resid = n - k - groups.n_groups
        if df_resid <= 0:
            raise ValueError(f"no residual degrees of freedom ({n} rows, {k} slopes, "
                             f"{groups.n_groups} entities)")
        X, y = _demeaned(design, varying)
        beta, resid, covs = _wls(X, y, design.weights, columns, self.covariance, df_resid)

        xbar = np.ascontiguousarray(xbar[:, varying])
        alpha = ybar - xbar @ beta
        slopes = np.zeros(len(design.columns))  # absorbed columns take 0
        slopes[varying] = beta
        fitted = alpha[groups.codes] + design.matrix @ slopes
        sigma2 = float(resid @ resid) / df_resid
        xbar_mean = xbar.mean(axis=0)
        # delta-method approximation; ignores the (small) slope/mean cross term.
        # An entity's mean error has variance sigma2 / (w_i T_i).
        intercept_var = float(xbar_mean @ covs["cov"] @ xbar_mean) + sigma2 * float(
            np.sum(1.0 / (weights * groups.counts))
        ) / groups.n_groups**2
        return self._finish(
            design, fitted, k + groups.n_groups,
            method="fixed",
            columns=columns,
            params=beta,
            df_resid=df_resid,
            entity_effects=dict(zip(groups.labels.tolist(), alpha)),
            intercept=float(alpha.mean()),
            intercept_se=float(np.sqrt(max(intercept_var, 0.0))),
            absorbed=absorbed,
            flags=[f"absorbed:{name}" for name in absorbed],
            **covs,
        )


def _swamy_arora(design):
    """Variance components from the within and between regressions.

    Returns ``(components, theta per entity code, flags)``.
    """
    groups = design.groups
    flags = []
    varying, _, xbar, ybar = design.within
    df_within = design.nobs - varying.size - groups.n_groups
    if df_within <= 0:
        raise ValueError(f"no residual degrees of freedom ({design.nobs} rows, "
                         f"{varying.size + groups.n_groups} columns)")
    Xw, yw = _demeaned(design, varying)
    _, resid_w, _ = _wls(Xw, yw, None, [design.columns[j] for j in varying], "classical",
                         df_within)
    sigma2_eps = float(resid_w @ resid_w) / df_within

    Xb = xbar
    if not any(np.allclose(Xb[:, j], Xb[0, j]) and Xb[0, j] == 1.0 for j in range(Xb.shape[1])):
        Xb = np.column_stack([np.ones(groups.n_groups), Xb])
    # lstsq's rank uses matrix_rank's cut-off, max(M, N) * eps * sigma_max
    beta_b, _, rank, _ = np.linalg.lstsq(Xb, ybar, rcond=None)
    t_bar = float(groups.counts.mean())
    if groups.n_groups > rank:
        resid_b = ybar - Xb @ beta_b
        sigma2_between = float(resid_b @ resid_b) / (groups.n_groups - rank)
        sigma2_alpha = sigma2_between - sigma2_eps / t_bar
    else:
        sigma2_alpha = 0.0
        flags.append("between_regression_saturated")
    clamped = sigma2_alpha < 0.0
    if clamped:
        sigma2_alpha = 0.0
        flags.append("sigma_alpha_clamped")
    theta = 1.0 - np.sqrt(sigma2_eps / (groups.counts * sigma2_alpha + sigma2_eps))
    total = sigma2_alpha + sigma2_eps
    components = VarianceComponents(
        sd_alpha=float(np.sqrt(sigma2_alpha)),
        sd_idiosyncratic=float(np.sqrt(sigma2_eps)),
        rho_alpha=float(sigma2_alpha / total) if total > 0 else 0.0,
        rho_idiosyncratic=float(sigma2_eps / total) if total > 0 else 1.0,
        theta=dict(zip(groups.labels.tolist(), theta)),
        clamped=clamped,
    )
    return components, theta, flags


class RandomEffects(_LeastSquares):
    """Swamy-Arora feasible GLS with unbalanced-panel quasi-demeaning.

    Row weights scale the quasi-demeaned rows; the variance components come
    from the unweighted within and between regressions.
    """

    def fit(self, design):
        components, theta, flags = _swamy_arora(design)
        n, k = design.matrix.shape
        X, y = _demeaned(design, range(k), theta[design.groups.codes])
        beta, _, covs = _wls(X, y, design.weights, design.columns, self.covariance, n - k)
        return self._finish(design, design.matrix @ beta, k, method="random",
                            columns=list(design.columns), params=beta, df_resid=n - k,
                            variance_components=components, flags=flags, **covs)


ESTIMATORS = {"pooled": PooledOLS, "fixed": FixedEffects, "random": RandomEffects}


class CrossSectionEGLS(BaseEstimator):
    """Two-step feasible GLS with per-entity variance weights.

    Stage 1 fits the requested effects specification; stage 2 fits the same
    estimator again with every row weighted by the inverse estimated variance
    of its entity, so the covariance is the weighted problem's.  An entity
    with fewer rows than stage-1 parameters, or a zero residual variance,
    takes the pooled variance instead and is named in a flag.  The result
    keeps the stage-1 fit as ``stage1``.
    """

    def __init__(self, effects="fixed", covariance="white"):
        self.effects = effects
        self.covariance = covariance

    def fit(self, design):
        if self.effects not in ESTIMATORS:
            raise ValueError(f"unknown effects {self.effects!r}; expected one of {EFFECTS}")
        estimator = ESTIMATORS[self.effects]
        stage1 = estimator(covariance=self.covariance).fit(design).result_
        groups = design.groups
        resid = stage1.residuals
        flags = []
        sq = np.bincount(groups.codes, weights=resid**2, minlength=groups.n_groups)
        sigma2 = sq / groups.counts
        pooled = float(resid @ resid) / design.nobs
        fallback = (groups.counts < max(len(stage1.columns), 1)) | (sigma2 <= 0)
        if fallback.any():
            sigma2[fallback] = pooled
            flags.append(
                "pooled_variance_fallback:" + ",".join(groups.labels[fallback].astype(str))
            )
        weights = 1.0 / sigma2
        weighted = replace(design, weights=weights[groups.codes])
        weighted.groups = groups
        if self.effects != "pooled":
            # the entity means serve both stages: their rows, entities and
            # matrix are the same; each stage builds its own deviations
            weighted.within = design.within
        result = estimator(covariance=self.covariance).fit(weighted).result_
        result.method = f"{self.effects}_egls"
        result.flags = flags + result.flags
        result.entity_weights = dict(zip(groups.labels.tolist(), weights))
        result.intercept_se = stage1.intercept_se
        result.stage1 = stage1
        self.result_ = result
        self.coef_ = result.params
        self.cov_ = result.cov
        return self


# ---------------------------------------------------------------------------
# model spec facade


@dataclass
class ModelSpec:
    """Declarative regression specification."""

    effects: str = "random"
    weights: str = "none"
    dynamic: bool = False
    covariance: str = "white"
    regressors: list = field(default_factory=list)
    interactions: list = field(default_factory=list)   # (left, right) name pairs

    def __post_init__(self):
        if self.effects not in EFFECTS:
            raise ValueError(f"effects must be one of {EFFECTS}, got {self.effects!r}")
        if self.weights not in WEIGHTS:
            raise ValueError(f"weights must be one of {WEIGHTS}, got {self.weights!r}")
        if self.covariance not in COVARIANCES:
            raise ValueError(
                f"covariance must be one of {COVARIANCES}, got {self.covariance!r}"
            )


def estimator_for(spec):
    if spec.weights == "cross_section_egls":
        return CrossSectionEGLS(effects=spec.effects, covariance=spec.covariance)
    return ESTIMATORS[spec.effects](covariance=spec.covariance)


# ---------------------------------------------------------------------------
# tests and arithmetic


def chi2_survival(x, df):
    """P(chi-square with ``df`` dof exceeds ``x``), via the regularized
    upper incomplete gamma function."""
    from scipy import special

    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x < 0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    return float(special.gammaincc(df / 2.0, x / 2.0))


def hausman(fe, re, columns=None):
    """Hausman specification test on the shared slope coefficients.

    Uses the Moore-Penrose pseudo-inverse and clamps a negative quadratic
    form to zero (with flags) when V_FE - V_RE is not positive definite.
    """
    from scipy import linalg as sla

    if columns is None:
        columns = [c for c in fe.columns if c in re.columns and c != "const"]
    if not columns:
        raise ValueError("no shared slope columns between the two fits")
    for c in columns:
        if c not in fe.columns or c not in re.columns:
            raise ValueError(f"column {c!r} not present in both fits")
    fe_idx = [fe.columns.index(c) for c in columns]
    re_idx = [re.columns.index(c) for c in columns]
    q = fe.params[fe_idx] - re.params[re_idx]
    v = fe.cov[np.ix_(fe_idx, fe_idx)] - re.cov[np.ix_(re_idx, re_idx)]
    v = (v + v.T) / 2.0
    flags = []
    try:
        sla.cholesky(v, lower=True)
        stat = float(q @ np.linalg.solve(v, q))
    except np.linalg.LinAlgError:
        flags.append("pseudo_inverse")
        stat = float(q @ np.linalg.pinv(v) @ q)
    if stat < 0.0:
        stat = 0.0
        flags.append("clamped_negative")
    df = len(columns)
    return HausmanResult(
        statistic=stat,
        df=df,
        p_value=chi2_survival(stat, df),
        columns=list(columns),
        flags=flags,
    )


def long_run_effect(short_run, phi):
    """Long-run multiplier short_run / (1 - phi) for a stationary lag."""
    if abs(phi) >= 1.0:
        raise ValueError(f"lag coefficient {phi} is not stationary (|phi| must be < 1)")
    return short_run / (1.0 - phi)
