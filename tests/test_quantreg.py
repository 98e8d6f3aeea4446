"""Quantile solver optimality, bandwidth/sparsity rules and sandwich checks."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from panelcrypt import quantreg
from panelcrypt.base import ConvergenceError, RankDeficiencyError
from panelcrypt.estimators import DesignMatrix, ModelSpec
from panelcrypt.pipeline import CONTROLS, SynthParams, build_design, simulate_dgp
from panelcrypt.quantreg import (
    PanelQuantile,
    _bound,
    _solve_lp,
    check_loss,
    fit_quantile_coefficients,
    hall_sheather_bandwidth,
    pseudo_r2,
    quasi_lr,
    rankit_positions,
    rankit_quantile,
    sandwich_cov,
    sparsity_hall_sheather,
)


def brute_force_loss(X, y, tau):
    """Minimum check loss over all row-subset interpolating (basic) fits."""
    n, k = X.shape
    best = np.inf
    for rows in combinations(range(n), k):
        sub = X[list(rows)]
        try:
            beta = np.linalg.solve(sub, y[list(rows)])
        except np.linalg.LinAlgError:
            continue
        loss = check_loss(y - X @ beta, tau)
        best = min(best, loss)
    return best


def highs_loss(X, y, tau):
    """Check loss at the HiGHS optimum of min tau 1'u + (1 - tau) 1'v
    subject to X b + u - v = y, u, v >= 0."""
    n, k = X.shape
    cost = np.concatenate([np.zeros(k), np.full(n, tau), np.full(n, 1.0 - tau)])
    eye = sparse.identity(n, format="csr")
    A_eq = sparse.hstack([sparse.csr_matrix(X), eye, -eye], format="csr")
    bounds = [(None, None)] * k + [(0.0, None)] * (2 * n)
    res = linprog(cost, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.status == 0
    return check_loss(y - X @ res.x[:k], tau)


def masked_bound(v, dv):
    """Reference step bound: min of -v/dv over the entries with dv < 0."""
    neg = dv < 0
    if not neg.any():
        return np.inf
    return (-v[neg] / dv[neg]).min()


def pooled_design(X, y, columns=None):
    n, k = X.shape
    return DesignMatrix(
        response=y,
        matrix=X,
        columns=columns or [f"x{i}" for i in range(k)],
        entities=np.array(["A"] * n, dtype=object),
    )


class TestSolver:
    def test_intercept_only_median_odd(self):
        beta, _ = fit_quantile_coefficients(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]), 0.5)
        assert beta[0] == 2.0

    def test_intercept_only_median_even_midpoint(self):
        beta, _ = fit_quantile_coefficients(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
        assert beta[0] == 2.5

    def test_midpoint_convention_exhaustive(self):
        rng = np.random.default_rng(51)
        for n in range(2, 13):
            y = np.sort(rng.normal(size=n))
            beta, _ = fit_quantile_coefficients(np.ones((n, 1)), y, 0.5)
            if n % 2 == 0:
                expected = 0.5 * (y[n // 2 - 1] + y[n // 2])
            else:
                expected = y[n // 2]
            assert beta[0] == pytest.approx(expected, abs=1e-12)

    def test_line_plus_outlier_matches_basic_solutions(self):
        X = np.column_stack([np.ones(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0])])
        y = np.array([0.1, 1.0, 2.05, 2.95, 40.0])       # outlier at the end
        beta, _ = fit_quantile_coefficients(X, y, 0.5)
        loss = check_loss(y - X @ beta, 0.5)
        assert loss <= brute_force_loss(X, y, 0.5) + 1e-8
        # the median line ignores the outlier
        assert abs(beta[1] - 1.0) < 0.1

    def test_random_problems_match_brute_force(self):
        rng = np.random.default_rng(52)
        for _ in range(80):
            n = int(rng.integers(8, 31))
            k = int(rng.integers(1, 4))
            X = rng.normal(size=(n, k))
            X[:, 0] = 1.0
            y = X @ rng.normal(size=k) + rng.standard_t(3, size=n)
            tau = float(rng.uniform(0.1, 0.9))
            beta, _ = fit_quantile_coefficients(X, y, tau)
            loss = check_loss(y - X @ beta, tau)
            assert loss <= brute_force_loss(X, y, tau) + 1e-8

    def test_local_perturbation_optimality(self):
        rng = np.random.default_rng(53)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = X @ np.array([1.0, 0.5, -0.3]) + rng.standard_t(4, size=60)
        for tau in (0.25, 0.5, 0.75):
            beta, _ = fit_quantile_coefficients(X, y, tau)
            base = check_loss(y - X @ beta, tau)
            for j in range(3):
                for sign in (-1.0, 1.0):
                    bumped = beta.copy()
                    bumped[j] += sign * 1e-6
                    assert check_loss(y - X @ bumped, tau) >= base - 1e-10

    def test_equivariance(self):
        rng = np.random.default_rng(54)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
        y = X @ np.array([0.4, 1.2, -0.8]) + rng.normal(size=80)
        tau = 0.3
        beta, _ = fit_quantile_coefficients(X, y, tau)
        scaled, _ = fit_quantile_coefficients(X, 3.5 * y, tau)
        assert scaled == pytest.approx(3.5 * beta, abs=1e-6)
        gamma = np.array([0.2, -1.0, 0.7])
        shifted, _ = fit_quantile_coefficients(X, y + X @ gamma, tau)
        assert shifted == pytest.approx(beta + gamma, abs=1e-6)

    def test_invalid_inputs(self):
        X = np.ones((5, 1))
        with pytest.raises(ValueError):
            fit_quantile_coefficients(X, np.arange(5.0), 0.0)
        with pytest.raises(ValueError):
            fit_quantile_coefficients(X, np.arange(5.0), 1.0)
        with pytest.raises(ValueError):
            fit_quantile_coefficients(np.ones((2, 3)), np.arange(2.0), 0.5)

    def test_monotone_fitted_quantiles_at_centroid(self):
        rng = np.random.default_rng(55)
        n = 400
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = X @ np.array([1.0, 0.3, -0.2]) + rng.normal(size=n) * (
            1.0 + 0.3 * np.abs(X[:, 1])
        )
        centroid = X.mean(axis=0)
        fitted = []
        for tau in (0.10, 0.25, 0.50, 0.75, 0.90):
            beta, _ = fit_quantile_coefficients(X, y, tau)
            fitted.append(float(centroid @ beta))
        assert all(a <= b + 1e-8 for a, b in zip(fitted, fitted[1:]))


def dummy_draw():
    """1,000 rows with a 200-row dummy; at tau 0.5 the subsample solve of its
    preprocessing hits a singular Newton system."""
    rng = np.random.default_rng(4)
    n = 1000
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n), np.zeros(n)])
    X[rng.choice(n, 200, replace=False), 3] = 1.0
    y = X @ np.array([1.0, 0.5, -0.3, 2.0]) + rng.standard_t(3, size=n)
    return X, y


class TestStoppingRule:
    def test_stalled_gap_stops_at_the_optimum(self):
        # the duality gap of this draw stalls a little above GAP_TOL; iterating
        # on drove the iterates into overflow and returned NaN coefficients
        rng = np.random.default_rng(692)
        n = 120
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = X @ rng.normal(size=4) + 50.0 * rng.standard_t(3, size=n)
        beta, iterations = fit_quantile_coefficients(X, y, 0.93)
        assert np.isfinite(beta).all()
        assert iterations < 50
        best = highs_loss(X, y, 0.93)
        assert abs(check_loss(y - X @ beta, 0.93) - best) <= 1e-9 * best

    def test_solver_settings_are_constants(self):
        assert PanelQuantile().get_params() == {"tau": 0.5}

    def test_exhausted_budget_raises(self, monkeypatch):
        rng = np.random.default_rng(70)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = X @ np.array([1.0, 0.5, -0.3]) + rng.standard_t(3, size=200)
        monkeypatch.setattr(quantreg, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
            fit_quantile_coefficients(X, y, 0.3)
        with pytest.raises(ConvergenceError):
            PanelQuantile(tau=0.3).fit(pooled_design(X, y))

    def test_non_finite_iterate_raises(self, monkeypatch):
        rng = np.random.default_rng(71)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = X @ np.array([1.0, 0.5, -0.3]) + rng.standard_t(3, size=200)
        solve = np.linalg.solve
        calls = []

        def poisoned(M, rhs):
            calls.append(None)
            step = solve(M, rhs)
            return step * np.nan if len(calls) == 3 else step

        monkeypatch.setattr(np.linalg, "solve", poisoned)
        with pytest.raises(ConvergenceError, match="non-finite"):
            _solve_lp(X, y, 0.3)
        assert len(calls) == 3


    def test_singular_newton_system_raises(self, monkeypatch):
        # the subsample of the 200-row dummy draw, whose Newton matrix turns
        # singular, which numpy reported as a bare LinAlgError
        X, y = dummy_draw()
        solve = quantreg._solve_lp
        failed = []

        def recorded(X, y, tau, **kwargs):
            try:
                return solve(X, y, tau, **kwargs)
            except ConvergenceError:
                failed.append((X, y))
                raise

        monkeypatch.setattr(quantreg, "_solve_lp", recorded)
        fit_quantile_coefficients(X, y, 0.5)
        assert len(failed) == 1 and failed[0][0].shape[0] == round((5 * 1000) ** (2 / 3))
        with pytest.raises(ConvergenceError, match=r"singular Newton system at iteration \d+"):
            _solve_lp(*failed[0], 0.5)

    def test_failed_subproblem_falls_back_to_the_direct_solve(self):
        X, y = dummy_draw()
        fit = PanelQuantile(tau=0.5).fit(pooled_design(X, y)).result_
        assert "preprocessing_fallback" in fit.flags
        best = highs_loss(X, y, 0.5)
        assert abs(fit.check_loss - best) <= 1e-9 * best
        # the failed sample solve adds no iterations
        assert fit.iterations == _solve_lp(X, y, 0.5)[1]


class TestStepBound:
    def test_matches_masked_formula_bitwise(self):
        rng = np.random.default_rng(72)
        for trial in range(400):
            n = int(rng.integers(1, 40))
            # iterates are positive or +0.0 after underflow
            v = rng.random(n) * 10.0 ** rng.integers(-100, 100, size=n)
            v[rng.random(n) < 0.2] = 0.0
            dv = rng.normal(size=n) * 10.0 ** rng.integers(-100, 100, size=n)
            if trial % 4 == 0:
                dv = np.abs(dv)
            pick = rng.random(n)
            dv[pick < 0.15] = 0.0
            dv[pick > 0.85] = -0.0
            got, want = _bound(v, dv), masked_bound(v, dv)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            if not (dv < 0).any():
                assert got == np.inf
        # a NaN where dv < 0 propagates, as in the masked form
        assert np.isnan(_bound(np.array([np.nan, 1.0, 0.0]), np.array([-1.0, -2.0, 0.0])))


def heavy_tailed_design(seed, n, k):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_t(3, size=(n, k - 1))])
    y = X @ rng.normal(size=k) + rng.standard_t(2, size=n)
    return X, y


def record_solves(monkeypatch, perturb_first=None):
    """Wrap ``_solve_lp`` to record the row count of every subproblem; with
    ``perturb_first``, the first solve's coefficients are moved by it."""
    solve = quantreg._solve_lp
    rows = []

    def recorded(X, y, tau, **kwargs):
        beta, iterations = solve(X, y, tau, **kwargs)
        rows.append(X.shape[0])
        if perturb_first is not None and len(rows) == 1:
            beta = beta + perturb_first
        return beta, iterations

    monkeypatch.setattr(quantreg, "_solve_lp", recorded)
    return rows


class TestPreprocessing:
    @pytest.mark.parametrize("seed, n, k", [(101, 1000, 3), (102, 1500, 8), (103, 2000, 5),
                                            (104, 3000, 8), (105, 3000, 3)])
    def test_heavy_tailed_designs_match_highs(self, monkeypatch, seed, n, k):
        X, y = heavy_tailed_design(seed, n, k)
        m = round(((k + 1) * n) ** (2.0 / 3.0))
        for tau in (0.10, 0.50, 0.90):
            rows = record_solves(monkeypatch)
            beta, iterations = fit_quantile_coefficients(X, y, tau)
            assert rows[0] == m and max(rows) < n      # preprocessed, no direct solve
            assert iterations > 0
            best = highs_loss(X, y, tau)
            assert abs(check_loss(y - X @ beta, tau) - best) <= 1e-9 * best
            monkeypatch.undo()

    def test_simulated_panel_matches_direct_solve(self):
        sim = simulate_dgp(SynthParams(), seed=7)
        spec = ModelSpec(effects="pooled", regressors=list(CONTROLS) + ["hyfi"])
        design, _ = build_design(sim.metas, sim.bundle, spec)
        X, y = design.matrix, design.response
        assert X.shape[0] > 30000
        for tau in (0.10, 0.25, 0.50, 0.75, 0.90):
            beta, _ = fit_quantile_coefficients(X, y, tau)
            again, _ = fit_quantile_coefficients(X, y, tau)
            assert np.isfinite(beta).all()
            assert beta.tobytes() == again.tobytes()
            direct, _ = _solve_lp(X, y, tau)
            want = check_loss(y - X @ direct, tau)
            assert abs(check_loss(y - X @ beta, tau) - want) <= 1e-12 * want

    def test_tau_order_does_not_change_a_design_fit(self):
        # one design's pilot, sorted response and X'X serve every tau: fits in
        # any order equal, bit for bit, fits on fresh designs and on bare arrays
        X, y = heavy_tailed_design(108, 3000, 5)
        shared = pooled_design(X, y)
        for tau in (0.9, 0.1, 0.5):
            fit = PanelQuantile(tau=tau).fit(shared).result_
            fresh = PanelQuantile(tau=tau).fit(pooled_design(X, y)).result_
            bare, iterations = fit_quantile_coefficients(X, y, tau)
            assert fit.params.tobytes() == fresh.params.tobytes() == bare.tobytes()
            assert fit.cov.tobytes() == fresh.cov.tobytes()
            assert fit.iterations == fresh.iterations == iterations
            assert (fit.check_loss, fit.restricted_loss, fit.sparsity, fit.quantile_dependent) \
                == (fresh.check_loss, fresh.restricted_loss, fresh.sparsity,
                    fresh.quantile_dependent)
        assert shared._quantile_work is not None

    def test_small_designs_solve_directly(self, monkeypatch):
        # 2m > n: 120 rows and 4 columns give m = 71
        X, y = heavy_tailed_design(106, 120, 4)
        rows = record_solves(monkeypatch)
        fit_quantile_coefficients(X, y, 0.5)
        assert rows == [120]

    def test_mispinned_rows_are_released(self, monkeypatch):
        X, y = heavy_tailed_design(81, 3000, 4)
        rows = record_solves(monkeypatch, perturb_first=np.array([0.3, 0.0, 0.0, 0.0]))
        beta, _ = fit_quantile_coefficients(X, y, 0.5)
        m = rows[0]
        # sample, reduced problem, and at least one re-solve after a fix-up
        assert len(rows) >= 3 and rows[2] > rows[1] and max(rows) < 2 * m
        best = highs_loss(X, y, 0.5)
        assert abs(check_loss(y - X @ beta, 0.5) - best) <= 1e-9 * best

    @pytest.mark.parametrize("n, tail", [(3000, "second sample"), (1000, "direct solve")])
    def test_too_many_mispinned_rows_double_m(self, monkeypatch, n, tail):
        X, y = heavy_tailed_design(81, n, 4)
        rows = record_solves(monkeypatch, perturb_first=np.array([0.0, 1.0, 0.0, 0.0]))
        beta, _ = fit_quantile_coefficients(X, y, 0.5)
        m = rows[0]
        if tail == "second sample":
            assert rows[2] == 2 * m and len(rows) == 4
        else:
            assert 4 * m > n and rows[2:] == [n]
        best = highs_loss(X, y, 0.5)
        assert abs(check_loss(y - X @ beta, 0.5) - best) <= 1e-9 * best

    @pytest.mark.parametrize("support", [2, 3, 5, 20])
    def test_sparse_columns_reach_the_optimum(self, support):
        # a subsample that misses a sparse dummy leaves X'X singular, and one
        # that holds a single row of it overflows the interior point; either
        # is redrawn larger
        for seed in range(6):
            X, y = heavy_tailed_design(seed, 1000, 3)
            X = np.column_stack([X, np.zeros(1000)])
            X[np.random.default_rng(seed).choice(1000, support, replace=False), 3] = 1.0
            for tau in (0.10, 0.50, 0.90):
                beta, _ = fit_quantile_coefficients(X, y, tau)
                best = highs_loss(X, y, tau)
                assert abs(check_loss(y - X @ beta, tau) - best) <= 1e-9 * best

    def test_subproblem_failure_propagates(self, monkeypatch):
        X, y = heavy_tailed_design(107, 2000, 3)
        monkeypatch.setattr(quantreg, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
            fit_quantile_coefficients(X, y, 0.3)


class TestHallSheather:
    def test_published_bandwidths(self):
        n = 30923
        assert hall_sheather_bandwidth(0.10, n) == pytest.approx(0.0110, abs=5e-5)
        assert hall_sheather_bandwidth(0.25, n) == pytest.approx(0.0214, abs=5e-5)
        assert hall_sheather_bandwidth(0.50, n) == pytest.approx(0.0310, abs=5e-5)
        assert hall_sheather_bandwidth(0.75, n) == pytest.approx(0.0214, abs=5e-5)
        assert hall_sheather_bandwidth(0.90, n) == pytest.approx(0.0110, abs=5e-5)

    def test_symmetry(self):
        for tau in (0.05, 0.10, 0.25, 0.40):
            assert hall_sheather_bandwidth(tau, 500) == pytest.approx(
                hall_sheather_bandwidth(1.0 - tau, 500), rel=1e-12
            )


class TestSparsity:
    def test_uniform_residuals_sparsity_near_one(self):
        rng = np.random.default_rng(56)
        u = rng.uniform(0.0, 1.0, size=20000)
        s, _, clamped = sparsity_hall_sheather(u, 0.5)
        assert not clamped
        assert abs(s - 1.0) < 0.10

    def test_homogeneity(self):
        rng = np.random.default_rng(57)
        u = rng.normal(size=500)
        s1, h1, _ = sparsity_hall_sheather(u, 0.3)
        s2, h2, _ = sparsity_hall_sheather(4.2 * u, 0.3)
        assert s2 == pytest.approx(4.2 * s1, abs=1e-10 * max(1.0, abs(4.2 * s1)))
        assert h1 == h2

    def test_bandwidth_clamped_near_edge(self):
        rng = np.random.default_rng(58)
        u = rng.normal(size=12)
        _, h, clamped = sparsity_hall_sheather(u, 0.10)
        assert clamped
        assert h < 0.10

    def test_requires_ten_residuals(self):
        with pytest.raises(ValueError):
            sparsity_hall_sheather(np.arange(9.0), 0.5)

    def test_gaussian_sparsity_matches_theory(self):
        rng = np.random.default_rng(59)
        u = rng.normal(size=40000)
        s, _, _ = sparsity_hall_sheather(u, 0.5)
        # 1 / phi(0) = sqrt(2 pi)
        assert abs(s - math.sqrt(2 * math.pi)) / math.sqrt(2 * math.pi) < 0.10


class TestSandwich:
    def test_duplication_halves_covariance(self):
        # large n so the bandwidth shift from doubling the sample is negligible
        rng = np.random.default_rng(60)
        n = 2000
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = X @ np.array([0.5, 1.0, -1.0]) + rng.normal(size=n)
        beta, _ = fit_quantile_coefficients(X, y, 0.5)
        u = y - X @ beta
        base = sandwich_cov(X, u, 0.5)
        doubled = sandwich_cov(np.vstack([X, X]), np.concatenate([u, u]), 0.5)
        assert np.diag(doubled) == pytest.approx(0.5 * np.diag(base), rel=0.05)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(60, 200))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            u = rng.normal(size=n)
            cov = sandwich_cov(X, u, 0.4)
            assert np.allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_root_n_rate(self):
        rng = np.random.default_rng(62)
        beta_true = np.array([1.0, 0.5])
        reps = 20
        ses = {}
        for n in (200, 800, 3200):
            draws = np.empty(reps)
            for r in range(reps):
                X = np.column_stack([np.ones(n), rng.normal(size=n)])
                y = X @ beta_true + rng.normal(size=n)
                beta, _ = fit_quantile_coefficients(X, y, 0.5)
                cov = sandwich_cov(X, y - X @ beta, 0.5)
                draws[r] = math.sqrt(cov[1, 1])
            ses[n] = draws.mean()
        assert ses[200] / ses[800] == pytest.approx(2.0, rel=0.15)
        assert ses[800] / ses[3200] == pytest.approx(2.0, rel=0.15)


class TestPseudoR2:
    def test_intercept_only_is_zero(self):
        rng = np.random.default_rng(63)
        y = rng.normal(size=50)
        fit = PanelQuantile(tau=0.5).fit(pooled_design(np.ones((50, 1)), y, ["const"]))
        assert fit.result_.pseudo_r2 == pytest.approx(0.0, abs=1e-12)

    def test_perfect_fit_is_one(self):
        x = np.linspace(0.0, 1.0, 40)
        X = np.column_stack([np.ones(40), x])
        y = 2.0 + 3.0 * x
        fit = PanelQuantile(tau=0.5).fit(pooled_design(X, y, ["const", "x"]))
        assert fit.result_.pseudo_r2 == pytest.approx(1.0, abs=1e-6)

    def test_hand_arithmetic(self):
        x = np.arange(11.0)
        X = np.column_stack([np.ones(11), x])
        y = np.array([0.0, 1.2, 1.9, 3.1, 4.0, 4.8, 6.3, 7.1, 7.9, 9.2, 9.8])
        result = PanelQuantile(tau=0.5).fit(pooled_design(X, y, ["const", "x"])).result_
        med = np.median(y)
        restricted = 0.5 * np.sum(np.abs(y - med))
        full = 0.5 * np.sum(np.abs(result.residuals))
        assert result.pseudo_r2 == pytest.approx(1.0 - full / restricted, rel=1e-10)

    def test_zero_loss_guard(self):
        with pytest.raises(ValueError):
            pseudo_r2(0.0, 0.0)


class TestQuasiLR:
    def test_identical_models_zero(self):
        rng = np.random.default_rng(64)
        X = np.column_stack([np.ones(100), rng.normal(size=100)])
        y = X @ np.array([0.5, 1.0]) + rng.normal(size=100)
        fit = PanelQuantile(tau=0.5).fit(pooled_design(X, y, ["const", "x"])).result_
        stat, p = quasi_lr(fit, fit)
        assert stat == 0.0 and p == 1.0

    def test_power_grows_with_n(self):
        rng = np.random.default_rng(65)
        stats = []
        for n in (200, 800):
            x = rng.normal(size=n)
            X = np.column_stack([np.ones(n), x])
            y = 1.0 + 2.0 * x + rng.normal(size=n)
            full = PanelQuantile(tau=0.5).fit(pooled_design(X, y, ["const", "x"])).result_
            restricted = PanelQuantile(tau=0.5).fit(
                pooled_design(np.ones((n, 1)), y, ["const"])
            ).result_
            stat, _ = quasi_lr(full, restricted)
            stats.append(stat / n)
        # statistic grows roughly linearly in n for a true effect
        assert stats[1] == pytest.approx(stats[0], rel=0.5)
        assert stats[0] * 200 > 50

    def test_non_nested_rejected(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=80)
        X = np.column_stack([np.ones(80), x])
        y = 1.0 + 2.0 * x + rng.normal(size=80)
        full = PanelQuantile(tau=0.5).fit(pooled_design(X, y, ["const", "x"])).result_
        restricted = PanelQuantile(tau=0.5).fit(
            pooled_design(np.ones((80, 1)), y, ["const"])
        ).result_
        with pytest.raises(ValueError):
            quasi_lr(restricted, full)      # reversed nesting

    def test_size_near_nominal(self):
        rng = np.random.default_rng(0)
        reps = 400
        rejections = 0
        n = 400
        for _ in range(reps):
            x = rng.normal(size=n)
            z = rng.normal(size=n)              # irrelevant column
            X_full = np.column_stack([np.ones(n), x, z])
            X_restricted = np.column_stack([np.ones(n), x])
            y = 0.5 + 1.0 * x + rng.normal(size=n)
            full = PanelQuantile(tau=0.5).fit(
                pooled_design(X_full, y, ["const", "x", "z"])
            ).result_
            restricted_result = PanelQuantile(tau=0.5).fit(
                pooled_design(X_restricted, y, ["const", "x"])
            ).result_
            _, p = quasi_lr(full, restricted_result)
            rejections += p < 0.05
        rate = rejections / reps
        assert abs(rate - 0.05) < 0.03

    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.9])
    def test_fit_statistic_is_the_test_against_an_intercept_only_fit(self, tau):
        rng = np.random.default_rng(70)
        n = 301
        x, z = rng.normal(size=n), rng.normal(size=n)
        y = 1.0 + 0.5 * x + rng.standard_t(4, size=n)
        full = PanelQuantile(tau=tau).fit(
            pooled_design(np.column_stack([np.ones(n), x, z]), y, ["const", "x", "z"])
        ).result_
        restricted = PanelQuantile(tau=tau).fit(
            pooled_design(np.ones((n, 1)), y, ["const"])
        ).result_
        assert full.quasi_lr_stat > 0.0
        assert (full.quasi_lr_stat, full.quasi_lr_pvalue) == quasi_lr(full, restricted)


class TestQuantileFitBundle:
    def test_bundle_fields(self):
        rng = np.random.default_rng(68)
        n = 500
        x = rng.normal(size=n)
        hyfi = (rng.random(n) < 0.25).astype(float)
        X = np.column_stack([np.ones(n), x, hyfi])
        y = 1.0 + 0.5 * x - 0.2 * hyfi + rng.normal(size=n)
        result = PanelQuantile(tau=0.25).fit(
            pooled_design(X, y, ["const", "x", "hyfi"])
        ).result_
        assert 0.0 <= result.pseudo_r2 <= 1.0
        assert result.sparsity > 0.0
        assert result.hall_sheather_bw == pytest.approx(hall_sheather_bandwidth(0.25, n))
        assert result.quantile_dependent == pytest.approx(rankit_quantile(y, 0.25))
        assert result.quasi_lr_stat > 0.0
        assert result.nobs == n

    def test_rank_error_names_the_design_columns(self):
        # the same collinear pair the panel estimators name; the bare solver
        # falls back to positional names
        rng = np.random.default_rng(69)
        size = rng.normal(size=60)
        X = np.column_stack([np.ones(60), size, 2.0 * size])
        y = rng.normal(size=60)
        with pytest.raises(RankDeficiencyError, match=r"columns \['size', 'size_twice'\]"):
            PanelQuantile(tau=0.5).fit(pooled_design(X, y, ["const", "size", "size_twice"]))
        with pytest.raises(RankDeficiencyError, match=r"columns \['x1', 'x2'\]"):
            fit_quantile_coefficients(X, y, 0.5)

    def test_rank_checked_once_per_design(self, monkeypatch):
        # the taus of one design share its rank check; a rank error is raised
        # at every tau, and bare arrays are checked on every call
        from panelcrypt import estimators

        calls = []
        factor = estimators.pivoted_qr
        monkeypatch.setattr(estimators, "pivoted_qr",
                            lambda *args: calls.append(1) or factor(*args))
        monkeypatch.setattr(quantreg, "pivoted_qr", estimators.pivoted_qr)
        rng = np.random.default_rng(70)
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        y = rng.normal(size=60)
        design = pooled_design(X, y, ["const", "x"])
        for tau in (0.25, 0.5, 0.75):
            PanelQuantile(tau=tau).fit(design)
        assert len(calls) == 1
        for tau in (0.25, 0.5):
            fit_quantile_coefficients(X, y, tau)
        assert len(calls) == 3
        collinear = pooled_design(np.column_stack([X, 2.0 * X[:, 1]]), y,
                                  ["const", "x", "x_twice"])
        for tau in (0.25, 0.5):
            with pytest.raises(RankDeficiencyError, match=r"columns \['x', 'x_twice'\]"):
                PanelQuantile(tau=tau).fit(collinear)

    def test_rankit_positions(self):
        p = rankit_positions(4)
        assert p == pytest.approx((np.arange(1, 5) - 0.375) / 4.25)
