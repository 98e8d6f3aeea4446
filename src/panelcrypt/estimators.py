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
weights.  A dynamic fit is an ordinary fit whose design carries the
response lag column (built by ``pipeline.build_design``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg as sla
from scipy import special

from .base import BaseEstimator, RankDeficiencyError, check_is_fitted

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

    def select(self, names):
        idx = [self.columns.index(c) for c in names]
        return replace(self, matrix=self.matrix[:, idx], columns=list(names))

    def take_rows(self, keep):
        return replace(
            self,
            response=self.response[keep],
            matrix=self.matrix[keep],
            entities=self.entities[keep],
            dates=None if self.dates is None else self.dates[keep],
            weights=self.weights[keep],
        )


class _Groups:
    """Entity grouping helper (codes, counts, group means).

    ``labels`` and ``codes`` equal ``np.unique(entities, return_inverse=True)``
    in values and dtype.  They come from a set and a dict lookup per row
    instead: ``np.unique`` sorts the whole object array of labels, which on
    a long panel costs far more than hashing each row once.
    """

    def __init__(self, entities):
        values = entities.tolist()
        labels = sorted(set(values))
        index = {label: code for code, label in enumerate(labels)}
        self.labels = np.array(labels, dtype=entities.dtype)
        self.codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
        self.n_groups = len(self.labels)
        self.counts = np.bincount(self.codes, minlength=self.n_groups)

    def mean(self, v):
        if v.ndim == 1:
            return np.bincount(self.codes, weights=v, minlength=self.n_groups) / self.counts
        out = np.empty((self.n_groups, v.shape[1]))
        for j in range(v.shape[1]):
            out[:, j] = np.bincount(self.codes, weights=v[:, j], minlength=self.n_groups)
        return out / self.counts[:, None]

    def demean(self, v):
        return v - self.mean(v)[self.codes]


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
    fitted: np.ndarray
    entity_effects: dict = None    # FE intercepts by entity label
    intercept: float = None        # FE: mean entity effect
    intercept_se: float = None
    variance_components: VarianceComponents = None
    absorbed: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    lag_column: str = None
    entity_weights: dict = None    # EGLS: entity label -> 1/sigma_i^2

    def __post_init__(self):
        asym = float(np.abs(self.cov - self.cov.T).max()) if self.cov.size else 0.0
        if asym > 1e-8 * max(1.0, float(np.abs(self.cov).max())):
            raise ValueError("covariance matrix is not symmetric")

    @property
    def se(self):
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))

    @property
    def tstats(self):
        se = self.se
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0, self.params / se, np.inf)

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

    def as_dict(self):
        return dict(zip(self.columns, self.params))


@dataclass
class HausmanResult:
    statistic: float
    df: int
    p_value: float
    columns: list
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# linear algebra core


def qr_solve(X, y, columns=None, rank_tol=RANK_TOL):
    """Least-squares solve via pivoted QR with a deterministic rank check.

    Raises RankDeficiencyError naming the offending column combination when
    a pivot of R falls below ``rank_tol`` relative to the largest pivot.
    """
    n, k = X.shape
    if n < k:
        raise ValueError(f"need at least as many rows ({n}) as columns ({k})")
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    ref = diag[0] if diag.size else 0.0
    if ref == 0.0:
        raise RankDeficiencyError("design matrix is identically zero", columns or [])
    deficient = np.flatnonzero(diag <= rank_tol * ref)
    if deficient.size:
        j = int(deficient[0])
        names = columns if columns is not None else [f"x{i}" for i in range(k)]
        offender = names[piv[j]]
        involved = [offender]
        if j > 0:
            basis = X[:, piv[:j]]
            coef, *_ = np.linalg.lstsq(basis, X[:, piv[j]], rcond=None)
            scale = max(1.0, float(np.abs(coef).max()))
            for idx, c in zip(piv[:j], coef):
                if abs(c) > 1e-8 * scale:
                    involved.append(names[idx])
        raise RankDeficiencyError(
            f"rank-deficient design: columns {sorted(involved)} are collinear",
            sorted(involved),
        )
    beta = np.empty(k)
    beta[piv] = sla.solve_triangular(R, Q.T @ y)
    return beta


def classical_cov(X, residuals, df_resid):
    XtX_inv = np.linalg.inv(X.T @ X)
    sigma2 = float(residuals @ residuals) / df_resid
    return sigma2 * XtX_inv


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


def _covariance(X, residuals, df_resid, kind):
    if kind == "white":
        return white_cov(X, residuals)
    if kind == "classical":
        return classical_cov(X, residuals, df_resid)
    raise ValueError(f"unknown covariance {kind!r}; expected one of {COVARIANCES}")


def _adj_r2(r2, nobs, n_params):
    if nobs - n_params <= 0:
        return float("nan")
    return 1.0 - (1.0 - r2) * (nobs - 1) / (nobs - n_params)


def _r2_original(y, fitted):
    resid = y - fitted
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if np.allclose(resid, 0.0) else 0.0
    return 1.0 - float(resid @ resid) / sst


# ---------------------------------------------------------------------------
# estimators


class PooledOLS(BaseEstimator):
    """Ordinary least squares on the pooled panel."""

    def __init__(self, covariance="white"):
        self.covariance = covariance

    def fit(self, design):
        root = np.sqrt(design.weights)
        X, y = design.matrix * root[:, None], design.response * root
        n, k = X.shape
        beta = qr_solve(X, y, design.columns)
        df_resid = n - k
        cov = _covariance(X, y - X @ beta, df_resid, self.covariance)
        fitted = design.matrix @ beta
        r2 = _r2_original(design.response, fitted)
        groups = _Groups(design.entities)
        self.result_ = FitResult(
            method="pooled",
            columns=list(design.columns),
            params=beta,
            cov=cov,
            nobs=n,
            n_entities=groups.n_groups,
            df_resid=df_resid,
            r2=r2,
            adj_r2=_adj_r2(r2, n, k),
            residuals=design.response - fitted,
            fitted=fitted,
            lag_column=design.lag_column,
        )
        self.coef_ = beta
        self.cov_ = cov
        return self

    def predict(self, X):
        check_is_fitted(self)
        return np.asarray(X, dtype=float) @ self.coef_


def _split_time_invariant(design, groups):
    """Indices of columns with and without within-entity variation."""
    demeaned = groups.demean(design.matrix)
    scale = np.maximum(np.abs(design.matrix).max(axis=0), 1.0)
    varying = np.abs(demeaned).max(axis=0) > RANK_TOL * scale
    return np.flatnonzero(varying), np.flatnonzero(~varying)


class FixedEffects(BaseEstimator):
    """Within estimator with recovered per-entity intercepts.

    Time-invariant columns are absorbed by the entity effects; they are
    reported on ``result_.absorbed`` rather than silently dropped.  Row
    weights must be constant within each entity: demeaning and weighting
    then commute, and the weighted within fit equals weighted LSDV.
    """

    def __init__(self, covariance="white"):
        self.covariance = covariance

    def fit(self, design):
        groups = _Groups(design.entities)
        if np.any(groups.counts < 2):
            thin = groups.labels[groups.counts < 2].tolist()
            raise ValueError(f"entities with fewer than 2 rows under fixed effects: {thin}")
        varying, invariant = _split_time_invariant(design, groups)
        absorbed = [design.columns[j] for j in invariant]
        if varying.size == 0:
            raise ValueError("no within-entity variation in any regressor")
        columns = [design.columns[j] for j in varying]
        weights = np.empty(groups.n_groups)
        weights[groups.codes] = design.weights
        if np.any(weights[groups.codes] != design.weights):
            raise ValueError("fixed effects need row weights constant within each entity")
        root = np.sqrt(design.weights)
        X = groups.demean(design.matrix[:, varying])
        y = groups.demean(design.response)
        X *= root[:, None]
        y *= root
        n, k = X.shape
        beta = qr_solve(X, y, columns)
        resid = y - X @ beta
        df_resid = n - k - groups.n_groups
        cov = _covariance(X, resid, df_resid, self.covariance)

        xbar = groups.mean(design.matrix[:, varying])
        ybar = groups.mean(design.response)
        alpha = ybar - xbar @ beta
        fitted = alpha[groups.codes] + design.matrix[:, varying] @ beta
        resid_orig = design.response - fitted
        r2 = _r2_original(design.response, fitted)

        intercept = float(alpha.mean())
        sigma2 = float(resid @ resid) / max(df_resid, 1)
        xbar_mean = xbar.mean(axis=0)
        # delta-method approximation; ignores the (small) slope/mean cross term.
        # An entity's mean error has variance sigma2 / (w_i T_i).
        intercept_var = float(xbar_mean @ cov @ xbar_mean) + sigma2 * float(
            np.sum(1.0 / (weights * groups.counts))
        ) / groups.n_groups**2

        self.result_ = FitResult(
            method="fixed",
            columns=columns,
            params=beta,
            cov=cov,
            nobs=n,
            n_entities=groups.n_groups,
            df_resid=df_resid,
            r2=r2,
            adj_r2=_adj_r2(r2, n, k + groups.n_groups),
            residuals=resid_orig,
            fitted=fitted,
            entity_effects=dict(zip(groups.labels.tolist(), alpha)),
            intercept=intercept,
            intercept_se=float(np.sqrt(max(intercept_var, 0.0))),
            absorbed=absorbed,
            flags=[f"absorbed:{name}" for name in absorbed],
            lag_column=design.lag_column,
        )
        self.coef_ = beta
        self.cov_ = cov
        return self


def _swamy_arora(design, groups):
    """Variance components from the within and between regressions."""
    flags = []
    varying, _ = _split_time_invariant(design, groups)
    if varying.size == 0:
        raise ValueError("no within-entity variation; cannot estimate components")
    Xw = groups.demean(design.matrix[:, varying])
    yw = groups.demean(design.response)
    beta_w = qr_solve(Xw, yw, [design.columns[j] for j in varying])
    resid_w = yw - Xw @ beta_w
    df_within = design.nobs - varying.size - groups.n_groups
    sigma2_eps = float(resid_w @ resid_w) / max(df_within, 1)

    Xb = groups.mean(design.matrix)
    yb = groups.mean(design.response)
    if not any(np.allclose(Xb[:, j], Xb[0, j]) and Xb[0, j] == 1.0 for j in range(Xb.shape[1])):
        Xb = np.column_stack([np.ones(groups.n_groups), Xb])
    rank = np.linalg.matrix_rank(Xb)
    t_bar = float(groups.counts.mean())
    if groups.n_groups > rank:
        beta_b, *_ = np.linalg.lstsq(Xb, yb, rcond=None)
        resid_b = yb - Xb @ beta_b
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


class RandomEffects(BaseEstimator):
    """Swamy-Arora feasible GLS with unbalanced-panel quasi-demeaning.

    Row weights scale the quasi-demeaned rows; the variance components come
    from the unweighted within and between regressions.
    """

    def __init__(self, covariance="white"):
        self.covariance = covariance

    def fit(self, design):
        groups = _Groups(design.entities)
        components, theta, flags = _swamy_arora(design, groups)
        scale = theta[groups.codes]
        root = np.sqrt(design.weights)
        X = design.matrix - scale[:, None] * groups.mean(design.matrix)[groups.codes]
        y = design.response - scale * groups.mean(design.response)[groups.codes]
        X *= root[:, None]
        y *= root
        n, k = X.shape
        beta = qr_solve(X, y, design.columns)
        resid_t = y - X @ beta
        df_resid = n - k
        cov = _covariance(X, resid_t, df_resid, self.covariance)
        fitted = design.matrix @ beta
        r2 = _r2_original(design.response, fitted)
        self.result_ = FitResult(
            method="random",
            columns=list(design.columns),
            params=beta,
            cov=cov,
            nobs=n,
            n_entities=groups.n_groups,
            df_resid=df_resid,
            r2=r2,
            adj_r2=_adj_r2(r2, n, k),
            residuals=design.response - fitted,
            fitted=fitted,
            variance_components=components,
            flags=flags,
            lag_column=design.lag_column,
        )
        self.coef_ = beta
        self.cov_ = cov
        return self


ESTIMATORS = {"pooled": PooledOLS, "fixed": FixedEffects, "random": RandomEffects}


class CrossSectionEGLS(BaseEstimator):
    """Two-step feasible GLS with per-entity variance weights.

    Stage 1 fits the requested effects specification; stage 2 fits the same
    estimator again with every row weighted by the inverse estimated variance
    of its entity, so the covariance is the weighted problem's.  An entity
    with fewer rows than stage-1 parameters, or a zero residual variance,
    takes the pooled variance instead and is named in a flag.
    """

    def __init__(self, effects="fixed", covariance="white"):
        self.effects = effects
        self.covariance = covariance

    def fit(self, design):
        if self.effects not in ESTIMATORS:
            raise ValueError(f"unknown effects {self.effects!r}; expected one of {EFFECTS}")
        estimator = ESTIMATORS[self.effects]
        stage1 = estimator(covariance=self.covariance).fit(design).result_
        groups = _Groups(design.entities)
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
        result = estimator(covariance=self.covariance).fit(weighted).result_
        result.method = f"{self.effects}_egls"
        result.flags = flags + result.flags
        result.entity_weights = dict(zip(groups.labels.tolist(), weights))
        result.intercept_se = stage1.intercept_se
        self.result_ = result
        self.coef_ = result.params
        self.cov_ = result.cov
        self.stage1_result_ = stage1
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
