"""Estimator correctness: LSDV equivalence, variance components, EGLS
efficiency, Hausman arithmetic and the chi-square tail."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from panelcrypt import estimators
from panelcrypt.base import RankDeficiencyError
from panelcrypt.estimators import (
    CrossSectionEGLS,
    DesignMatrix,
    FixedEffects,
    ModelSpec,
    PooledOLS,
    RandomEffects,
    _Groups,
    chi2_survival,
    estimator_for,
    hausman,
    long_run_effect,
    white_cov,
)
from panelcrypt.metrics import records
from panelcrypt.pipeline import build_design


def make_design(y, X, columns, entities, dates=None):
    return DesignMatrix(
        response=np.asarray(y, dtype=float),
        matrix=np.asarray(X, dtype=float),
        columns=columns,
        entities=np.asarray(entities),
        dates=dates,
    )


def random_panel(rng, n_entities, t, beta, sigma_alpha=0.5, sigma_eps=1.0,
                 unbalanced=False):
    """Entity-effect DGP with dates; returns (design, alphas)."""
    rows_y, rows_x, ents, dates = [], [], [], []
    k = len(beta)
    alphas = rng.normal(0.0, sigma_alpha, size=n_entities)
    start = np.datetime64("2021-01-01", "D")
    for i in range(n_entities):
        t_i = t if not unbalanced else int(rng.integers(max(2, t // 2), t + 1))
        X = rng.normal(0.0, 1.0, size=(t_i, k))
        y = X @ beta + alphas[i] + rng.normal(0.0, sigma_eps, size=t_i)
        rows_y.append(y)
        rows_x.append(X)
        ents.append(np.full(t_i, f"E{i:02d}", dtype=object))
        dates.append(start + np.arange(t_i))
    return make_design(
        np.concatenate(rows_y),
        np.vstack(rows_x),
        [f"x{j}" for j in range(k)],
        np.concatenate(ents),
        np.concatenate(dates),
    ), alphas


def lsdv_oracle(design):
    """Least squares with explicit entity dummies; returns slope estimates."""
    labels, codes = np.unique(design.entities, return_inverse=True)
    dummies = np.zeros((design.nobs, len(labels)))
    dummies[np.arange(design.nobs), codes] = 1.0
    full = np.column_stack([design.matrix, dummies])
    coef, *_ = np.linalg.lstsq(full, design.response, rcond=None)
    return coef[: design.matrix.shape[1]]


class TestGroups:
    @pytest.mark.parametrize(
        "labels",
        [
            np.array(["BTC", "ETH", "AAVE", "btc", "MARKET"], dtype=object),
            np.array(["BTC", "ETH", "AAVE", "btc", "MARKET"]),
            np.array([30, -2, 7, 1_000_000, 0]),
        ],
        ids=["object", "str", "int"],
    )
    def test_matches_np_unique(self, labels):
        # entities interleaved and non-contiguous, one of them on a single row
        rng = np.random.default_rng(8)
        entities = labels[rng.integers(0, len(labels) - 1, size=200)]
        entities[rng.integers(0, 200)] = labels[-1]
        groups = _Groups(entities)
        want_labels, want_codes = np.unique(entities, return_inverse=True)
        assert groups.labels.dtype == want_labels.dtype
        assert groups.labels.tolist() == want_labels.tolist()
        assert groups.codes.dtype == want_codes.dtype
        assert np.array_equal(groups.codes, want_codes)
        assert np.array_equal(groups.counts, np.bincount(want_codes))

    def test_empty(self):
        groups = _Groups(np.array([], dtype=object))
        assert groups.n_groups == 0 and len(groups.codes) == 0


class TestPooledOLS:
    def test_two_point_exact(self):
        # two rows, two columns: the line interpolates, and is refused
        design = make_design([1.0, 3.0], [[1.0, 0.0], [1.0, 1.0]],
                             ["const", "x"], ["A", "A"])
        with pytest.raises(ValueError) as err:
            PooledOLS().fit(design)
        assert str(err.value) == "no residual degrees of freedom (2 rows, 2 columns)"

    @pytest.mark.parametrize("covariance", ["white", "classical"])
    def test_exact_fit_refused(self, covariance):
        # three rows, three columns: under either covariance the standard
        # errors of an exact fit would be rounding noise
        design = make_design([1.0, 3.0, 2.0], [[1.0, 0.0, 0.2], [1.0, 1.0, 0.5], [1.0, 0.4, 0.9]],
                             ["const", "x", "z"], ["A", "A", "B"])
        with pytest.raises(ValueError) as err:
            PooledOLS(covariance=covariance).fit(design)
        assert str(err.value) == "no residual degrees of freedom (3 rows, 3 columns)"

    def test_exact_fit_r2_one(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        beta = np.array([0.5, -1.2])
        design = make_design(X @ beta, X, ["const", "x"], ["A"] * 20)
        fit = PooledOLS().fit(design).result_
        assert np.max(np.abs(fit.residuals)) < 1e-10
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
        y = X @ np.array([1.0, 0.3, -0.7, 2.0]) + rng.normal(size=200)
        design = make_design(y, X, ["const", "a", "b", "c"], ["A"] * 200)
        fit = PooledOLS().fit(design).result_
        gram = X.T @ fit.residuals
        scale = np.linalg.norm(X) * np.linalg.norm(fit.residuals)
        assert np.max(np.abs(gram)) / scale < 1e-8

    def test_duplicated_column_names_both(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=30)
        X = np.column_stack([np.ones(30), x, x])
        design = make_design(rng.normal(size=30), X, ["const", "left", "right"], ["A"] * 30)
        with pytest.raises(RankDeficiencyError) as err:
            PooledOLS().fit(design)
        assert "left" in str(err.value) and "right" in str(err.value)

    def test_se_matches_diag_cov(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = X @ np.array([0.1, 0.4]) + rng.normal(size=50)
        fit = PooledOLS().fit(make_design(y, X, ["const", "x"], ["A"] * 50)).result_
        assert fit.se == pytest.approx(np.sqrt(np.diag(fit.cov)), rel=1e-12)
        eigenvalues = np.linalg.eigvalsh(fit.cov)
        assert eigenvalues.min() > -1e-12


class TestRowWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="finite, positive"):
            DesignMatrix(response=[1.0, 2.0, 3.0], matrix=[[0.1], [0.2], [0.4]],
                         columns=["x"], entities=["A", "A", "A"], weights=[1.0, bad, 1.0])

    def test_pooled_is_weighted_least_squares(self):
        rng = np.random.default_rng(34)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = X @ np.array([0.2, 1.0, -0.5]) + rng.normal(size=60)
        w = rng.uniform(0.2, 5.0, size=60)
        design = replace(make_design(y, X, ["const", "a", "b"], ["A"] * 60), weights=w)
        fit = PooledOLS(covariance="classical").fit(design).result_
        root = np.sqrt(w)
        oracle, *_ = np.linalg.lstsq(X * root[:, None], y * root, rcond=None)
        assert fit.params == pytest.approx(oracle, abs=1e-10)
        assert fit.residuals == pytest.approx(y - X @ oracle, abs=1e-10)

    def test_fixed_equals_weighted_lsdv(self):
        rng = np.random.default_rng(35)
        design, _ = random_panel(rng, 5, 12, beta=np.array([0.8, -0.3]), unbalanced=True)
        labels, codes = np.unique(design.entities, return_inverse=True)
        w = rng.uniform(0.2, 5.0, size=len(labels))[codes]
        fit = FixedEffects().fit(replace(design, weights=w)).result_
        root = np.sqrt(w)
        dummies = np.zeros((design.nobs, len(labels)))
        dummies[np.arange(design.nobs), codes] = 1.0
        full = np.column_stack([design.matrix, dummies]) * root[:, None]
        coef, *_ = np.linalg.lstsq(full, design.response * root, rcond=None)
        assert fit.params == pytest.approx(coef[:2], abs=1e-8)

    @pytest.mark.parametrize("cls", [PooledOLS, FixedEffects, RandomEffects])
    def test_constant_weights_change_no_estimate(self, cls):
        rng = np.random.default_rng(37)
        design, _ = random_panel(rng, 5, 20, beta=np.array([0.4, 0.9]), unbalanced=True)
        if cls is not FixedEffects:
            design = TestCrossSectionEGLS.with_const(design)
        plain = cls().fit(design).result_
        scaled = cls().fit(replace(design, weights=np.full(design.nobs, 4.0))).result_
        assert scaled.params == pytest.approx(plain.params, rel=1e-10)
        assert scaled.cov == pytest.approx(plain.cov, rel=1e-10)
        if cls is FixedEffects:
            assert scaled.intercept_se == pytest.approx(plain.intercept_se, rel=1e-10)

    def test_fixed_refuses_weights_varying_within_entity(self):
        rng = np.random.default_rng(36)
        design, _ = random_panel(rng, 3, 6, beta=np.array([0.5]))
        w = np.ones(design.nobs)
        w[4] = 2.0
        with pytest.raises(ValueError, match="constant within each entity"):
            FixedEffects().fit(replace(design, weights=w))


class TestWhiteCovariance:
    def brute_force(self, X, e):
        k = X.shape[1]
        meat = np.zeros((k, k))
        for i in range(len(e)):
            xi = X[i][:, None]
            meat += e[i] ** 2 * (xi @ xi.T)
        bread = np.linalg.inv(X.T @ X)
        return bread @ meat @ bread

    def test_constant_residuals_scaled_classical(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(3), rng.normal(size=3)])
        c = 0.7
        e = np.full(3, c)
        white = white_cov(X, e)
        n, k = X.shape
        classical = (e @ e / (n - k)) * np.linalg.inv(X.T @ X)
        # constant |residual|: white = classical * (n - k) / n
        assert white == pytest.approx(classical * (n - k) / n, rel=1e-12)
        assert white == pytest.approx(self.brute_force(X, e), rel=1e-12)

    def test_zero_residuals(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        assert np.all(white_cov(X, np.zeros(4)) == 0.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        e = rng.normal(size=40)
        assert white_cov(X, e) == pytest.approx(self.brute_force(X, e), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            white_cov(np.ones((5, 2)), np.ones(4))


class TestQRCore:
    """``_wls`` takes every result from one pivoted QR of its input."""

    @staticmethod
    def same_cov(cov, oracle):
        # relative to the oracle's own scale: its correlation-scaled entries
        scale = np.sqrt(np.diag(oracle))
        assert np.abs((cov - oracle) / np.outer(scale, scale)).max() < 1e-10

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("big", [None, 2])
    def test_covariances_match_the_normal_equation_oracles(self, weighted, big):
        rng = np.random.default_rng(41)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        y = X @ np.array([0.5, 1.0, -2.0, 0.3]) + rng.normal(size=80) * (1 + X[:, 1] ** 2)
        if big is not None:
            X[:, big] *= 1e6  # its coefficient becomes -2e-6
        weights = rng.uniform(0.2, 5.0, size=80) if weighted else None
        _, _, piv = estimators.pivoted_qr(np.array(X, order="F"))
        # the scaled column has the largest norm, so the pivoting moves it first
        assert (piv[0] == big) if big is not None else list(piv) != [0, 1, 2, 3]
        columns = ["const", "a", "b", "c"]
        results = {cov: estimators._wls(np.array(X, order="F"), y, weights, columns, cov, 76)
                   for cov in ("classical", "white")}
        root = np.sqrt(weights) if weighted else np.ones(80)
        # the oracles solve on unit-norm columns, which QR's accuracy does
        # not need but the normal equations do, and scale back
        Xw, yw = X * root[:, None], y * root
        norms = np.linalg.norm(Xw, axis=0)
        Xs = Xw / norms
        beta_s, *_ = np.linalg.lstsq(Xs, yw, rcond=None)
        e = yw - Xs @ beta_s
        classical = float(e @ e) / 76 * np.linalg.inv(Xs.T @ Xs) / np.outer(norms, norms)
        white = white_cov(Xs, e) / np.outer(norms, norms)
        for cov, (params, resid, covs) in results.items():
            assert params == pytest.approx(beta_s / norms, rel=1e-10)
            assert np.abs(resid - e).max() < 1e-10 * np.abs(yw).max()
            self.same_cov(covs["classical_cov"], classical)
        self.same_cov(results["classical"][2]["cov"], classical)
        self.same_cov(results["white"][2]["cov"], white)

    @staticmethod
    def design(n_entities=100, t=200, k=8):
        rng = np.random.default_rng(43)
        entities = np.repeat(np.array([f"E{i:03d}" for i in range(n_entities)], dtype=object), t)
        X = rng.normal(size=(n_entities * t, k))
        X[:, 0] = 1.0
        y = (X @ rng.normal(size=k) + np.repeat(rng.normal(size=n_entities), t)
             + rng.normal(size=n_entities * t))
        return make_design(y, X, [f"x{j}" for j in range(k)], entities)

    @pytest.mark.parametrize("estimator", [PooledOLS(), FixedEffects(), RandomEffects(),
                                           CrossSectionEGLS(effects="fixed")],
                             ids=["pooled", "fixed", "random", "egls"])
    def test_fit_holds_one_working_copy_of_the_design(self, estimator):
        # 20,000 x 8: the fit's traced peak above the design, in matrix sizes.
        # One working copy plus row vectors stays under 2.5; each further
        # whole-design temporary adds 1.
        PooledOLS().fit(self.design(20, 10))  # imports scipy outside the trace
        design = self.design()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimator.fit(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / design.matrix.nbytes < 2.5


class TestFixedEffects:
    def test_single_entity_equals_pooled_with_intercept(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=30)
        y = 2.0 + 0.5 * x + rng.normal(size=30)
        fe = FixedEffects().fit(make_design(y, x[:, None], ["x"], ["A"] * 30)).result_
        X = np.column_stack([np.ones(30), x])
        pooled = PooledOLS().fit(
            make_design(y, X, ["const", "x"], ["A"] * 30)
        ).result_
        assert fe.coef("x") == pytest.approx(pooled.coef("x"), abs=1e-10)
        assert fe.intercept == pytest.approx(pooled.coef("const"), abs=1e-10)

    def test_equals_lsdv_small_panel(self):
        rng = np.random.default_rng(9)
        design, _ = random_panel(rng, 3, 4, beta=np.array([0.8, -0.3]))
        fe = FixedEffects().fit(design).result_
        assert fe.params == pytest.approx(lsdv_oracle(design), abs=1e-8)

    def test_time_invariant_column_absorbed(self):
        rng = np.random.default_rng(10)
        design, _ = random_panel(rng, 4, 6, beta=np.array([0.5]))
        hyfi = np.where(np.char.startswith(design.entities.astype(str), "E0"), 1.0, 0.0)
        with_dummy = make_design(
            design.response,
            np.column_stack([design.matrix, hyfi]),
            ["x0", "hyfi"],
            design.entities,
            design.dates,
        )
        fit = FixedEffects().fit(with_dummy).result_
        assert fit.absorbed == ["hyfi"]
        assert fit.columns == ["x0"]
        assert any("absorbed" in flag for flag in fit.flags)

    def test_invariant_to_entity_level_shifts(self):
        rng = np.random.default_rng(11)
        design, _ = random_panel(rng, 5, 8, beta=np.array([1.1, 0.2]))
        fe = FixedEffects().fit(design).result_
        shifts = {label: rng.normal(0, 10) for label in np.unique(design.entities)}
        shifted = make_design(
            design.response + np.array([shifts[e] for e in design.entities]),
            design.matrix,
            design.columns,
            design.entities,
            design.dates,
        )
        fe2 = FixedEffects().fit(shifted).result_
        assert fe2.params == pytest.approx(fe.params, abs=1e-8)

    def test_entity_effects_recovered(self):
        rng = np.random.default_rng(12)
        design, _ = random_panel(rng, 3, 200, beta=np.array([0.7]), sigma_eps=0.5)
        fit = FixedEffects().fit(design).result_
        for label, alpha in fit.entity_effects.items():
            rows = design.entities == label
            expected = design.response[rows].mean() - design.matrix[rows].mean(axis=0) @ fit.params
            assert alpha == pytest.approx(expected, abs=1e-10)

    def test_requires_two_rows_per_entity(self):
        design = make_design([1.0, 2.0, 3.0], [[0.1], [0.2], [0.3]],
                             ["x"], ["A", "A", "B"])
        with pytest.raises(ValueError, match="fewer than 2 rows"):
            FixedEffects().fit(design)

    @pytest.mark.parametrize("estimator", [FixedEffects, lambda: CrossSectionEGLS("fixed")])
    def test_thin_entity_named_before_absent_within_variation(self, estimator):
        # x varies within no entity either; that error comes second
        design = make_design([1.0, 2.0, 3.0], [[0.1], [0.1], [0.3]],
                             ["x"], ["A", "A", "B"])
        with pytest.raises(ValueError, match="fewer than 2 rows"):
            estimator().fit(design)

    @pytest.mark.parametrize("covariance", ["white", "classical"])
    def test_exact_fit_refused(self, covariance):
        # two entities of two rows and two slopes: the fit interpolates, and
        # its standard errors would be rounding noise
        design = make_design([1.0, 2.0, 4.0, 3.0], [[0.1, 1.0], [0.5, 0.2], [0.3, 0.7], [0.9, 0.4]],
                             ["x", "z"], ["A", "A", "B", "B"])
        with pytest.raises(ValueError) as err:
            FixedEffects(covariance=covariance).fit(design)
        assert str(err.value) == "no residual degrees of freedom (4 rows, 2 slopes, 2 entities)"


class TestRandomEffects:
    def test_within_exact_fit_refused(self):
        # three entities of two rows and three varying slopes: the within
        # regression interpolates, so sigma_eps would be rounding noise
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(6), rng.normal(size=(6, 3))])
        design = make_design(rng.normal(size=6), X, ["const", "a", "b", "c"],
                             ["A", "A", "B", "B", "C", "C"])
        with pytest.raises(ValueError) as err:
            RandomEffects().fit(design)
        assert str(err.value) == "no residual degrees of freedom (6 rows, 6 columns)"

    @staticmethod
    def pooled_dgp_fits(seed):
        """RE and pooled OLS fits of a DGP without entity effects."""
        rng = np.random.default_rng(seed)
        design, _ = random_panel(rng, 6, 50, beta=np.array([0.4, -0.9]), sigma_alpha=0.0)
        X = np.column_stack([np.ones(design.nobs), design.matrix])
        with_const = make_design(design.response, X, ["const", "x0", "x1"],
                                 design.entities, design.dates)
        return RandomEffects().fit(with_const).result_, PooledOLS().fit(with_const).result_

    def test_zero_alpha_matches_pooled(self):
        # this draw's between variance falls below sigma_eps^2 / T, so the
        # estimate of sigma_alpha^2 is negative and clamped to 0: theta is 0
        # and RE is pooled OLS
        re, pooled = self.pooled_dgp_fits(13)
        assert re.variance_components.sd_alpha == 0.0
        assert re.variance_components.clamped
        assert re.flags == ["sigma_alpha_clamped"]
        assert re.params == pytest.approx(pooled.params, abs=1e-8)

    def test_small_alpha_stays_near_pooled(self):
        # this draw keeps a small positive sigma_alpha, unclamped
        re, pooled = self.pooled_dgp_fits(12)
        assert 0.0 < re.variance_components.sd_alpha < 0.1
        assert not re.variance_components.clamped
        assert re.flags == []
        assert re.params == pytest.approx(pooled.params, abs=0.05)

    def test_quasi_demeaning_oracle_balanced(self):
        rng = np.random.default_rng(14)
        design, _ = random_panel(rng, 8, 12, beta=np.array([0.6]), sigma_alpha=1.0)
        X = np.column_stack([np.ones(design.nobs), design.matrix])
        with_const = make_design(design.response, X, ["const", "x0"],
                                 design.entities, design.dates)
        re = RandomEffects(covariance="classical").fit(with_const).result_
        vc = re.variance_components
        theta = vc.theta
        # hand-built quasi-demeaned regression with the reported theta
        labels, codes = np.unique(design.entities, return_inverse=True)
        theta_row = np.array([theta[label] for label in labels])[codes]
        ybar = np.array([design.response[design.entities == l].mean() for l in labels])[codes]
        xbar = np.vstack([X[design.entities == l].mean(axis=0) for l in labels])[codes]
        y_t = design.response - theta_row * ybar
        x_t = X - theta_row[:, None] * xbar
        oracle, *_ = np.linalg.lstsq(x_t, y_t, rcond=None)
        assert re.params == pytest.approx(oracle, abs=1e-8)

    def test_rho_pair_sums_to_one(self):
        rng = np.random.default_rng(15)
        design, _ = random_panel(rng, 6, 30, beta=np.array([0.2]), sigma_alpha=0.8)
        X = np.column_stack([np.ones(design.nobs), design.matrix])
        re = RandomEffects().fit(
            make_design(design.response, X, ["const", "x0"], design.entities, design.dates)
        ).result_
        vc = re.variance_components
        assert vc.rho_alpha + vc.rho_idiosyncratic == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= vc.rho_alpha <= 1.0

    def test_continuum_to_fixed_effects(self):
        rng = np.random.default_rng(16)
        # huge entity effects: theta -> 1, RE slopes -> FE slopes
        design, _ = random_panel(rng, 10, 40, beta=np.array([0.5]), sigma_alpha=50.0)
        X = np.column_stack([np.ones(design.nobs), design.matrix])
        with_const = make_design(design.response, X, ["const", "x0"],
                                 design.entities, design.dates)
        re = RandomEffects().fit(with_const).result_
        fe = FixedEffects().fit(design).result_
        assert re.coef("x0") == pytest.approx(fe.coef("x0"), abs=5e-3)

    def test_time_invariant_regressor_allowed(self):
        rng = np.random.default_rng(17)
        design, _ = random_panel(rng, 6, 20, beta=np.array([0.3]))
        hyfi = np.where(np.isin(design.entities, ["E00", "E01"]), 1.0, 0.0)
        X = np.column_stack([np.ones(design.nobs), design.matrix, hyfi])
        re = RandomEffects().fit(
            make_design(design.response + 0.5 * hyfi, X, ["const", "x0", "hyfi"],
                        design.entities, design.dates)
        ).result_
        assert "hyfi" in re.columns


class TestCrossSectionEGLS:
    def test_homoskedastic_matches_unweighted(self):
        rng = np.random.default_rng(18)
        design, _ = random_panel(rng, 6, 80, beta=np.array([0.7, -0.2]),
                                 sigma_alpha=0.0, sigma_eps=1.0)
        fe = FixedEffects().fit(design).result_
        egls = CrossSectionEGLS(effects="fixed").fit(design).result_
        assert egls.params == pytest.approx(fe.params, abs=0.02)

    def test_efficiency_gain_under_heteroskedasticity(self):
        rng = np.random.default_rng(19)
        n_entities, t = 8, 60
        beta = np.array([0.5])
        reps = 200
        plain = np.empty(reps)
        weighted = np.empty(reps)
        for r in range(reps):
            rows_y, rows_x, ents = [], [], []
            start = np.datetime64("2021-01-01", "D")
            dates = []
            for i in range(n_entities):
                sigma = 0.2 * (i + 1)
                X = rng.normal(size=(t, 1))
                y = X @ beta + rng.normal(0, sigma, size=t)
                rows_y.append(y)
                rows_x.append(X)
                ents.append(np.full(t, f"E{i}", dtype=object))
                dates.append(start + np.arange(t))
            design = make_design(np.concatenate(rows_y), np.vstack(rows_x), ["x"],
                                 np.concatenate(ents), np.concatenate(dates))
            plain[r] = FixedEffects().fit(design).result_.coef("x")
            weighted[r] = CrossSectionEGLS(effects="fixed").fit(design).result_.coef("x")
        assert weighted.var() < plain.var()

    def test_weight_iteration_stability(self):
        rng = np.random.default_rng(20)
        design, _ = random_panel(rng, 6, 100, beta=np.array([0.4]), sigma_alpha=0.0)
        first = CrossSectionEGLS(effects="fixed").fit(design)
        result1 = first.result_
        # re-weight from the EGLS residuals and refit once more by hand
        labels, codes = np.unique(design.entities, return_inverse=True)
        resid = result1.residuals
        sigma2 = np.bincount(codes, weights=resid**2) / np.bincount(codes)
        scale = np.sqrt((1.0 / sigma2)[codes])
        demeaned_x = design.matrix - np.vstack(
            [design.matrix[design.entities == l].mean(axis=0) for l in labels]
        )[codes]
        demeaned_y = design.response - np.array(
            [design.response[design.entities == l].mean() for l in labels]
        )[codes]
        second, *_ = np.linalg.lstsq(demeaned_x * scale[:, None], demeaned_y * scale,
                                     rcond=None)
        assert abs(second[0] - result1.coef("x0")) < 1e-3

    def test_thin_entity_falls_back_to_pooled_variance(self):
        rng = np.random.default_rng(21)
        # three slope columns, one entity with only two rows
        design, _ = random_panel(rng, 4, 30, beta=np.array([0.6, 0.1, -0.4]))
        thin = make_design(
            np.concatenate([design.response, [1.0, 1.2]]),
            np.vstack([design.matrix, [[0.5, 0.1, 0.2], [0.4, -0.2, -0.6]]]),
            design.columns,
            np.concatenate([design.entities, ["THIN", "THIN"]]),
            np.concatenate([design.dates,
                            np.array(["2022-01-01", "2022-01-02"], dtype="datetime64[D]")]),
        )
        egls = CrossSectionEGLS(effects="fixed").fit(thin).result_
        assert any("pooled_variance_fallback" in flag for flag in egls.flags)
        assert "THIN" in [f for f in egls.flags if "fallback" in f][0]

    @staticmethod
    def with_const(design):
        X = np.column_stack([np.ones(design.nobs), design.matrix])
        return make_design(design.response, X, ["const"] + design.columns,
                           design.entities, design.dates)

    @staticmethod
    def hand_two_step(design, stage1, transform):
        """Second step by hand: sigma_i^2 from the stage-1 residuals, every
        transformed row scaled by 1/sigma_i, then least squares and White."""
        labels, codes = np.unique(design.entities, return_inverse=True)
        resid = stage1.residuals
        sigma2 = np.bincount(codes, weights=resid**2) / np.bincount(codes)
        scale = np.sqrt(1.0 / sigma2)[codes]
        X, y = transform(design, labels, codes)
        Xw, yw = X * scale[:, None], y * scale
        beta, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
        return beta, white_cov(Xw, yw - Xw @ beta)

    def test_random_matches_hand_built_two_step(self):
        rng = np.random.default_rng(31)
        design, _ = random_panel(rng, 7, 40, beta=np.array([0.6, -0.4]), sigma_alpha=0.8,
                                 unbalanced=True)
        design = self.with_const(design)
        stage1 = RandomEffects().fit(design).result_

        def quasi_demean(design, labels, codes):
            theta = np.array([stage1.variance_components.theta[l] for l in labels])[codes]
            xbar = np.vstack([design.matrix[codes == j].mean(axis=0)
                              for j in range(len(labels))])[codes]
            ybar = np.array([design.response[codes == j].mean()
                             for j in range(len(labels))])[codes]
            return design.matrix - theta[:, None] * xbar, design.response - theta * ybar

        beta, cov = self.hand_two_step(design, stage1, quasi_demean)
        egls = CrossSectionEGLS(effects="random").fit(design).result_
        assert egls.method == "random_egls"
        assert egls.params == pytest.approx(beta, rel=1e-9, abs=1e-12)
        assert egls.cov == pytest.approx(cov, rel=1e-8, abs=1e-15)

    def test_pooled_matches_hand_built_two_step(self):
        rng = np.random.default_rng(32)
        design, _ = random_panel(rng, 5, 50, beta=np.array([0.3, 1.1]), unbalanced=True)
        design = self.with_const(design)
        stage1 = PooledOLS().fit(design).result_
        beta, cov = self.hand_two_step(
            design, stage1, lambda design, labels, codes: (design.matrix, design.response)
        )
        egls = CrossSectionEGLS(effects="pooled").fit(design).result_
        assert egls.method == "pooled_egls"
        assert egls.params == pytest.approx(beta, rel=1e-9, abs=1e-12)
        assert egls.cov == pytest.approx(cov, rel=1e-8, abs=1e-15)

    @pytest.mark.parametrize("effects", ["pooled", "fixed", "random"])
    def test_equals_estimator_on_inverse_variance_weights(self, effects, monkeypatch):
        rng = np.random.default_rng(33)
        design, _ = random_panel(rng, 6, 30, beta=np.array([0.5, -0.2]), unbalanced=True)
        if effects != "fixed":
            design = self.with_const(design)
        mean, calls = estimators._Groups.mean, []
        monkeypatch.setattr(estimators._Groups, "mean",
                            lambda groups, v: calls.append(v) or mean(groups, v))
        egls = CrossSectionEGLS(effects=effects).fit(design).result_
        # one within transform, whose entity means are of the matrix and the
        # response, serves both stages
        assert len(calls) == (0 if effects == "pooled" else 2)
        weights = np.array([egls.entity_weights[e] for e in design.entities])
        plain = estimator_for(ModelSpec(effects=effects)).fit(
            replace(design, weights=weights)
        ).result_
        assert egls.columns == plain.columns
        assert np.array_equal(egls.params, plain.params)
        assert np.array_equal(egls.cov, plain.cov)
        assert np.array_equal(egls.residuals, plain.residuals)


class TestDynamic:
    """Dynamic fits on the report's path: ``build_design`` with
    ``dynamic=True`` adds the gap-aware response lag, then the estimator."""

    def ar1_inputs(self, rng, n_entities, t, phi, beta=0.5):
        dates = np.datetime64("2021-01-01", "D") + np.arange(t)
        none_missing = np.zeros(t, dtype=bool)
        metas, bundle = [], {}
        for i in range(n_entities):
            alpha = rng.normal(0, 0.3)
            x = rng.normal(size=t)
            y = np.empty(t)
            y[0] = alpha + beta * x[0] + rng.normal()
            for s in range(1, t):
                y[s] = alpha + phi * y[s - 1] + beta * x[s] + rng.normal()
            symbol = f"E{i:02d}"
            metas.append(SimpleNamespace(symbol=symbol, hyfi=False))
            bundle[symbol] = records(symbol, dates, {"price_risk": (y, none_missing),
                                                     "x": (x, none_missing)})
        return metas, bundle

    def fit(self, metas, bundle, dynamic):
        spec = ModelSpec(effects="fixed", dynamic=dynamic, regressors=["x"])
        design, _ = build_design(metas, bundle, spec)
        return estimator_for(spec).fit(design).result_

    def test_phi_recovery(self):
        rng = np.random.default_rng(22)
        reps = 20
        estimates = np.empty(reps)
        for r in range(reps):
            metas, bundle = self.ar1_inputs(rng, 18, 500, phi=0.3)
            fit = self.fit(metas, bundle, dynamic=True)
            assert fit.lag_column == "price_risk_lag"
            estimates[r] = fit.phi
        mc_se = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - 0.3) < 3 * mc_se + 1e-9

    def test_zero_phi_matches_static(self):
        rng = np.random.default_rng(23)
        metas, bundle = self.ar1_inputs(rng, 10, 400, phi=0.0)
        static = self.fit(metas, bundle, dynamic=False)
        dynamic = self.fit(metas, bundle, dynamic=True)
        assert static.lag_column is None and static.phi is None
        assert dynamic.nobs == static.nobs - len(metas)
        assert dynamic.coef("x") == pytest.approx(static.coef("x"), abs=0.02)
        assert abs(dynamic.phi) < 3 * dynamic.se_of("price_risk_lag") + 0.02


class TestHausman:
    def fits(self, rng, sigma_alpha=0.5):
        design, _ = random_panel(rng, 8, 40, beta=np.array([0.5, -0.3]),
                                 sigma_alpha=sigma_alpha)
        X = np.column_stack([np.ones(design.nobs), design.matrix])
        with_const = make_design(design.response, X, ["const", "x0", "x1"],
                                 design.entities, design.dates)
        fe = FixedEffects().fit(design).result_
        re = RandomEffects().fit(with_const).result_
        return fe, re

    def test_identical_fits_statistic_zero(self):
        rng = np.random.default_rng(24)
        fe, _ = self.fits(rng)
        result = hausman(fe, fe, columns=["x0", "x1"])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_unit_quadratic_form(self):
        fe, re = self.fits(np.random.default_rng(25))
        fe.params = np.array([1.0, 0.0])
        fe.cov = np.eye(2) * 1.5
        re_sub = [re.columns.index(c) for c in ("x0", "x1")]
        re.params[re_sub] = 0.0
        re.cov[np.ix_(re_sub, re_sub)] = np.eye(2) * 0.5
        fe.columns = ["x0", "x1"]
        result = hausman(fe, re, columns=["x0", "x1"])
        # q = (1, 0), V_diff = I  ->  H = 1
        assert result.statistic == pytest.approx(1.0, abs=1e-12)
        assert result.df == 2

    def test_column_order_invariance(self):
        rng = np.random.default_rng(26)
        fe, re = self.fits(rng)
        a = hausman(fe, re, columns=["x0", "x1"])
        b = hausman(fe, re, columns=["x1", "x0"])
        assert a.statistic == pytest.approx(b.statistic, rel=1e-10)

    def test_non_pd_difference_flagged(self):
        fe, re = self.fits(np.random.default_rng(27))
        fe.columns = ["x0", "x1"]
        fe.params = np.array([0.5, 0.2])
        fe.cov = np.diag([0.5, 0.1])
        re_idx = [re.columns.index(c) for c in ("x0", "x1")]
        re.params[re_idx] = [0.4, 0.3]
        big = np.diag([1.0, 0.05])
        re.cov[np.ix_(re_idx, re_idx)] = big
        result = hausman(fe, re, columns=["x0", "x1"])
        assert "pseudo_inverse" in result.flags
        assert result.statistic >= 0.0

    def test_default_columns_shared_slopes(self):
        rng = np.random.default_rng(28)
        fe, re = self.fits(rng)
        result = hausman(fe, re)
        assert result.columns == ["x0", "x1"]
        assert result.df == 2

    def test_published_anchor(self):
        assert chi2_survival(6.4912, 6) == pytest.approx(0.3705, abs=5e-4)


class TestChi2Survival:
    def test_zero_statistic(self):
        for df in (1, 3, 6, 10):
            assert chi2_survival(0.0, df) == 1.0

    def test_even_df_series_oracle(self):
        # df = 6: P(chi2 > x) = exp(-x/2) (1 + x/2 + x^2/8)
        for x in (0.5, 1.7, 6.4912, 12.0):
            expected = math.exp(-x / 2) * (1 + x / 2 + x * x / 8)
            assert chi2_survival(x, 6) == pytest.approx(expected, rel=1e-12)

    def test_huge_statistic_underflows(self):
        for df in (1, 5, 10):
            assert chi2_survival(3434.2322, df) < 1e-300

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chi2_survival(1.0, 0)
        with pytest.raises(ValueError):
            chi2_survival(-0.5, 3)


class TestLongRunEffect:
    def test_no_persistence(self):
        assert long_run_effect(0.25, 0.0) == 0.25

    def test_published_anchors(self):
        assert long_run_effect(-0.2778, 0.2918) == pytest.approx(-0.3923, abs=5e-4)
        assert long_run_effect(0.3728, 0.2918) == pytest.approx(0.5264, abs=5e-4)

    def test_short_run_slope_additivity(self):
        assert 0.3728 - 0.2778 == pytest.approx(0.0950, abs=1e-12)

    def test_nonstationary_refused(self):
        with pytest.raises(ValueError):
            long_run_effect(0.5, 1.0)
        with pytest.raises(ValueError):
            long_run_effect(0.5, -1.2)


class TestEstimatorAPI:
    def test_get_params_round_trip(self):
        est = CrossSectionEGLS(effects="random", covariance="classical")
        params = est.get_params()
        assert params == {"effects": "random", "covariance": "classical"}
        clone = CrossSectionEGLS(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = FixedEffects()
        assert est.set_params(covariance="classical") is est
        assert est.covariance == "classical"
        with pytest.raises(ValueError, match="invalid parameter"):
            est.set_params(bogus=1)

    def test_repr_shows_params(self):
        assert repr(PooledOLS(covariance="white")) == "PooledOLS(covariance='white')"

    def test_fit_returns_self_and_sets_attributes(self):
        rng = np.random.default_rng(30)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = X @ np.array([1.0, 2.0]) + rng.normal(size=20)
        est = PooledOLS()
        assert est.fit(make_design(y, X, ["const", "x"], ["A"] * 20)) is est
        assert est.coef_.shape == (2,)
        assert est.cov_.shape == (2, 2)
        assert est.result_.nobs == 20


def test_fe_lsdv_equivalence_sweep():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n_entities = int(rng.integers(2, 6))
        t = int(rng.integers(2, 9))
        k = int(rng.integers(1, 3))
        design, _ = random_panel(rng, n_entities, t, beta=rng.normal(size=k),
                                 unbalanced=True)
        fe = FixedEffects().fit(design).result_
        assert fe.params == pytest.approx(lsdv_oracle(design), abs=1e-8)
