"""Unit-root, dependence and descriptive diagnostics against oracles."""

import math

import numpy as np
import pytest

from panelcrypt import diagnostics
from panelcrypt.diagnostics import (
    CADF_LOWER,
    _cadf_stat,
    adf,
    cips,
    correlation_matrix,
    dependence_tests,
    describe,
    truncate_cadf,
)


def _reference_cadf(y, ybar_lag, dybar, max_lag, tol=1e-8):
    """Loop oracle for one CADF: each candidate column is kept when its
    ``lstsq`` residual on the columns kept before it exceeds
    ``tol * max(|col|, 1)``; every candidate lag is fitted by ``lstsq`` and
    the t-ratio uses a Householder QR.  Returns (statistic, lag, nobs, k)."""
    dy = np.diff(y)
    t = len(dy)

    def design(rows, p):
        cols = [np.ones(len(rows)), y[rows], ybar_lag[rows], dybar[rows]]
        for j in range(1, p + 1):
            cols += [dybar[rows - j], dy[rows - j]]
        kept = cols[:2]
        for col in cols[2:]:
            basis = np.column_stack(kept)
            coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
            if np.linalg.norm(col - basis @ coef) > tol * max(np.linalg.norm(col), 1.0):
                kept.append(col)
        return np.column_stack(kept), dy[rows]

    best_p, best_aic = 0, np.inf
    for p in range(max_lag + 1):
        X, target = design(np.arange(max_lag, t), p)
        beta, *_ = np.linalg.lstsq(X, target, rcond=None)
        resid = target - X @ beta
        n, k = X.shape
        aic = n * math.log(float(resid @ resid) / n) + 2.0 * k
        if aic < best_aic - 1e-12:
            best_aic, best_p = aic, p
    X, target = design(np.arange(best_p, t), best_p)
    n, k = X.shape
    q, r = np.linalg.qr(X)
    beta = np.linalg.solve(r, q.T @ target)
    resid = target - X @ beta
    rinv = np.linalg.inv(r)
    se = math.sqrt(float(resid @ resid) / (n - k) * float(rinv[1] @ rinv[1]))
    return beta[1] / se, best_p, n, k


def _reference_correlations(data):
    """Per-pair loop oracle: (i, j, overlap count, rho or None) in i < j
    order, each pair centred on its own overlap mean."""
    out = []
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            ok = np.isfinite(data[i]) & np.isfinite(data[j])
            if ok.sum() < 3:
                out.append((i, j, int(ok.sum()), None))
                continue
            a = data[i, ok] - data[i, ok].mean()
            b = data[j, ok] - data[j, ok].mean()
            out.append((i, j, int(ok.sum()), float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))))
    return out


def _offset_panel_with_holes(rng, n, t, offset=1e6, missing=0.02):
    common = rng.normal(size=t)
    data = offset + 0.5 * common + rng.normal(size=(n, t))
    data[rng.uniform(size=(n, t)) < missing] = np.nan
    return data


def _ar_difference_walk(rng, t, phis):
    """Random walk whose differences are AR(len(phis)), so AIC picks lags."""
    e = rng.normal(size=t)
    dy = np.zeros(t)
    for s in range(t):
        dy[s] = e[s] + sum(phi * dy[s - 1 - j] for j, phi in enumerate(phis) if s > j)
    return np.cumsum(dy)


class TestADF:
    def test_white_noise_rejects_at_one_percent(self):
        rng = np.random.default_rng(71)
        result = adf(rng.normal(size=500))
        assert result.statistic < -3.43
        assert result.stars == "***"

    def test_zero_lag_matches_ols_oracle(self):
        y = np.array([1.0, 1.4, 0.9, 1.6, 1.2, 0.8, 1.5, 1.1, 0.7, 1.3, 1.0, 1.45])
        result = adf(y, max_lag=0)
        dy = np.diff(y)
        X = np.column_stack([np.ones(len(dy)), y[:-1]])
        beta, *_ = np.linalg.lstsq(X, dy, rcond=None)
        resid = dy - X @ beta
        sigma2 = resid @ resid / (len(dy) - 2)
        se = math.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
        assert result.statistic == pytest.approx(beta[1] / se, abs=1e-10)
        assert result.lags == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(72)
        y = np.cumsum(rng.normal(size=300)) + rng.normal(size=300)
        a = adf(y)
        b = adf(17.3 * y)
        assert b.statistic == pytest.approx(a.statistic, abs=1e-8)
        assert b.lags == a.lags

    def test_random_walk_size_near_nominal(self):
        rng = np.random.default_rng(73)
        reps = 500
        rejections = 0
        for _ in range(reps):
            y = np.cumsum(rng.normal(size=500))
            result = adf(y)
            rejections += result.statistic < result.critical_values[0.05]
        rate = rejections / reps
        assert abs(rate - 0.05) < 0.02

    def test_aic_prefers_augmentation_for_ar2_differences(self):
        rng = np.random.default_rng(74)
        # Delta y with strong serial correlation needs lagged differences
        n = 600
        e = rng.normal(size=n)
        dy = np.empty(n)
        dy[0] = e[0]
        for t in range(1, n):
            dy[t] = 0.7 * dy[t - 1] + e[t]
        y = np.cumsum(dy)
        result = adf(y, max_lag=4)
        assert result.lags >= 1

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            adf(np.arange(6.0), max_lag=4)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            adf(np.full(50, 2.0))

    def test_sample_rule_is_the_cips_rule(self):
        # leading and trailing NaN are trimmed; an interior one is refused
        rng = np.random.default_rng(75)
        y = np.cumsum(rng.normal(size=300))
        padded = np.concatenate([np.full(7, np.nan), y, np.full(3, np.nan)])
        a, b = adf(y), adf(padded)
        assert (b.statistic, b.lags, b.nobs) == (a.statistic, a.lags, a.nobs)
        padded[150:160] = np.nan
        with pytest.raises(ValueError, match="^interior gaps are not supported$"):
            adf(padded)
        with pytest.raises(ValueError, match="^entity 0: interior gaps are not supported$"):
            cips(np.vstack([padded, np.cumsum(rng.normal(size=310))]))


class TestCIPS:
    def stationary_panel(self, rng, n_entities, t, rho=0.5):
        data = np.empty((n_entities, t))
        for i in range(n_entities):
            e = rng.normal(size=t)
            y = np.empty(t)
            y[0] = e[0]
            for s in range(1, t):
                y[s] = rho * y[s - 1] + e[s]
            data[i] = y + rng.normal() * 0.5
        return data

    def test_mean_of_cadf_statistics(self):
        rng = np.random.default_rng(75)
        data = self.stationary_panel(rng, 5, 120)
        result = cips(data)
        assert result.statistic == pytest.approx(
            np.mean(list(result.cadf_stats.values())), abs=1e-12
        )
        assert result.truncated_statistic == pytest.approx(
            np.mean([truncate_cadf(s) for s in result.cadf_stats.values()]), abs=1e-12
        )

    def test_identical_entities_reduce_to_common_value(self):
        rng = np.random.default_rng(76)
        base = self.stationary_panel(rng, 1, 150)[0]
        data = np.vstack([base, base, base])
        result = cips(data)
        values = list(result.cadf_stats.values())
        assert values[0] == pytest.approx(values[1], abs=1e-10)
        assert values[0] == pytest.approx(values[2], abs=1e-10)
        assert result.statistic == pytest.approx(values[0], abs=1e-12)

    def test_two_entity_oracle(self):
        rng = np.random.default_rng(77)
        data = self.stationary_panel(rng, 2, 90)
        result = cips(data, max_lag=0)
        # independent CADF(0) oracle
        expected = []
        ybar = data.mean(axis=0)
        for i in range(2):
            y = data[i]
            dy = np.diff(y)
            X = np.column_stack([np.ones(len(dy)), y[:-1], ybar[:-1], np.diff(ybar)])
            beta, *_ = np.linalg.lstsq(X, dy, rcond=None)
            resid = dy - X @ beta
            sigma2 = resid @ resid / (len(dy) - X.shape[1])
            se = math.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
            expected.append(beta[1] / se)
        assert result.statistic == pytest.approx(np.mean(expected), abs=1e-10)

    def test_truncation_binds_exactly(self):
        rng = np.random.default_rng(78)
        # strongly anti-persistent series produce CADF far below the bound
        n, t = 3, 400
        data = np.empty((n, t))
        for i in range(n):
            e = rng.normal(size=t)
            y = np.empty(t)
            y[0] = e[0]
            for s in range(1, t):
                y[s] = -0.9 * y[s - 1] + e[s]
            data[i] = y
        result = cips(data, max_lag=0)
        assert all(s < CADF_LOWER for s in result.cadf_stats.values())
        assert all(v == -6.19 for v in result.truncated_cadf.values())
        assert result.truncated_statistic == pytest.approx(-6.190, abs=1e-12)

    def test_truncation_idempotent(self):
        for value in (-12.0, -6.19, -1.0, 0.0, 2.61, 9.0):
            once = truncate_cadf(value)
            assert truncate_cadf(once) == once
            assert -6.19 <= once <= 2.61

    def test_needs_two_entities(self):
        with pytest.raises(ValueError):
            cips(np.random.default_rng(0).normal(size=(1, 50)))

    def test_max_lag_four_matches_lstsq_oracle(self):
        rng = np.random.default_rng(85)
        data = np.vstack([
            _ar_difference_walk(rng, 260, (0.6, -0.3)),
            _ar_difference_walk(rng, 260, (0.0, 0.0, 0.5)),
            _ar_difference_walk(rng, 260, ()),
            _ar_difference_walk(rng, 260, (-0.5,)),
        ])
        result = cips(data, max_lag=4)
        ybar = data.mean(axis=0)
        expected_lags = []
        for i, y in enumerate(data):
            stat, lag, nobs, _ = _reference_cadf(y, ybar[:-1], np.diff(ybar), 4)
            expected_lags.append(lag)
            assert result.lags[i] == lag
            assert result.cadf_stats[i] == pytest.approx(stat, rel=1e-9)
        assert result.nobs == sum(259 - lag for lag in expected_lags)
        assert len(set(expected_lags)) > 1

    def test_lagged_difference_duplicating_lagged_dybar_is_dropped(self):
        rng = np.random.default_rng(86)
        y = _ar_difference_walk(rng, 300, (0.5, 0.3, -0.3))
        dy = np.diff(y)
        # dybar_t = dy_{t-1}: each lagged dybar column repeats the next
        # lagged difference, and the current dybar repeats dy_{t-1}
        dybar = np.concatenate([[0.25], dy[:-1]])
        ybar_lag = np.cumsum(rng.normal(size=len(dy)))
        stat, lag, nobs = _cadf_stat(y, ybar_lag, dybar, 4)
        ref_stat, ref_lag, ref_nobs, k = _reference_cadf(y, ybar_lag, dybar, 4)
        assert (lag, nobs) == (ref_lag, ref_nobs)
        assert lag >= 2 and k == 4 + lag
        assert stat == pytest.approx(ref_stat, rel=1e-9)

    def test_unbalanced_panel_matches_reference(self):
        # entities list on different days (leading NaNs): the cross-section
        # mean averages whoever is present, and each CADF runs on its own span
        rng = np.random.default_rng(91)
        data = np.vstack([
            _ar_difference_walk(rng, 240, (0.5, -0.2)),
            _ar_difference_walk(rng, 240, ()),
            _ar_difference_walk(rng, 240, (0.0, 0.4)),
            _ar_difference_walk(rng, 240, (-0.4,)),
        ])
        starts = (0, 17, 60, 101)
        for i, start in enumerate(starts):
            data[i, :start] = np.nan
        result = cips(data, max_lag=4)
        ybar = np.nanmean(data, axis=0)
        lags = []
        for i, start in enumerate(starts):
            seg, ybar_seg = data[i, start:], ybar[start:]
            stat, lag, nobs, _ = _reference_cadf(seg, ybar_seg[:-1], np.diff(ybar_seg), 4)
            lags.append(lag)
            assert result.lags[i] == lag
            assert result.cadf_stats[i] == pytest.approx(stat, rel=1e-9)
            assert nobs == 240 - start - 1 - lag
        assert result.nobs == sum(240 - start - 1 - lag for start, lag in zip(starts, lags))

    def test_collinear_column_refactors_the_aic_factor(self, monkeypatch):
        # ybar_{t-1} = 2 y_{t-1}: column 2 fails the keep rule on the common
        # rows, so the AIC factor is redone without it, and the chosen lag,
        # whose design lost a column, is factored in full
        rng = np.random.default_rng(90)
        y = _ar_difference_walk(rng, 300, (0.4,))
        ybar_lag = 2.0 * y[:-1]
        dybar = rng.normal(size=len(y) - 1)
        widths = self.record_factors(monkeypatch)
        stat, lag, nobs = _cadf_stat(y, ybar_lag, dybar, 4)
        ref_stat, ref_lag, ref_nobs, k = _reference_cadf(y, ybar_lag, dybar, 4)
        assert widths[:2] == [13, 12]            # the AIC factor, then its refactor
        assert len(widths) == 4                  # the chosen lag in full, twice
        assert (lag, nobs) == (ref_lag, ref_nobs) and k == 3 + 2 * lag
        assert stat == pytest.approx(ref_stat, rel=1e-9)

    def test_column_collinear_only_on_the_chosen_lags_extra_rows_is_dropped(self, monkeypatch):
        # Dybar_t tracks ybar_{t-1} to 2.5e-6 on the common rows, enough to
        # be kept there, and equals it on the first rows, where both are of
        # order 1e6: on the chosen lag's rows its residual falls below the
        # keep rule's tolerance, so the chosen design, factored in full,
        # drops the column and is factored again
        rng = np.random.default_rng(91)
        y = np.cumsum(rng.normal(size=300))
        ybar_lag = np.cumsum(rng.normal(size=299))
        ybar_lag[:4] = 1e6 * np.array([1.0, -2.0, 1.5, 3.0])
        dybar = ybar_lag + 2.5e-6 * rng.normal(size=299)
        dybar[:4] = ybar_lag[:4]
        widths = self.record_factors(monkeypatch)
        stat, lag, nobs = _cadf_stat(y, ybar_lag, dybar, 4)
        ref_stat, ref_lag, ref_nobs, k = _reference_cadf(y, ybar_lag, dybar, 4)
        assert lag == 0 and widths == [13, 5, 4]
        assert (lag, nobs, k) == (ref_lag, ref_nobs, 3)
        assert stat == pytest.approx(ref_stat, rel=1e-9)

    @staticmethod
    def record_factors(monkeypatch):
        """Record the column count of every QR the CADF kernel runs."""
        widths, factor = [], diagnostics._r_factor

        def recorded(a):
            widths.append(a.shape[1])
            return factor(a)

        monkeypatch.setattr(diagnostics, "_r_factor", recorded)
        return widths

    def test_entity_equal_to_cross_section_mean(self):
        rng = np.random.default_rng(87)
        a = _ar_difference_walk(rng, 200, (0.4,))
        b = _ar_difference_walk(rng, 200, (-0.3, 0.3))
        data = np.vstack([a, b, (a + b) / 2.0])
        result = cips(data, max_lag=4, entity_labels=["a", "b", "mean"])
        ybar = data.mean(axis=0)
        for i, label in enumerate(("a", "b")):
            stat, lag, _, _ = _reference_cadf(data[i], ybar[:-1], np.diff(ybar), 4)
            assert result.lags[label] == lag
            assert result.cadf_stats[label] == pytest.approx(stat, rel=1e-9)
        # the mean entity's current dybar column equals its response, so its
        # regression fits exactly and the t-ratio is rounding noise; only
        # finiteness is pinned
        assert math.isfinite(result.cadf_stats["mean"])

    def test_every_entity_carrying_one_series(self):
        rng = np.random.default_rng(88)
        base = _ar_difference_walk(rng, 180, (0.5,))
        for max_lag in range(5):
            result = cips(np.vstack([base, base]), max_lag=max_lag)
            assert math.isfinite(result.statistic)
            assert result.cadf_stats[0] == result.cadf_stats[1]

    def test_error_texts(self):
        rng = np.random.default_rng(89)
        walk = np.cumsum(rng.normal(size=(2, 40)), axis=1)
        short = walk.copy()
        short[1, :31] = np.nan
        with pytest.raises(ValueError) as info:
            cips(short, entity_labels=["BTC", "ETH"])
        assert str(info.value) == "entity ETH: too few observations (9) for the CADF regression"
        gap = walk.copy()
        gap[0, 20] = np.nan
        with pytest.raises(ValueError) as info:
            cips(gap, entity_labels=["BTC", "ETH"])
        assert str(info.value) == "entity BTC: interior gaps are not supported"
        undefined = walk.copy()
        undefined[1, 20] = np.inf
        with pytest.raises(ValueError) as info:
            cips(undefined, entity_labels=["BTC", "ETH"])
        assert str(info.value) == "cross-section average undefined on part of the sample"

    @pytest.mark.parametrize("max_lag", range(5))
    def test_size_check_states_the_minimum(self, max_lag):
        # the p = max_lag regression has 4 + 2 max_lag columns on
        # n - 1 - max_lag rows, so it needs n >= 3 max_lag + 6
        rng = np.random.default_rng(96)
        minimum = 3 * max_lag + 6
        for n in range(max_lag + 6, minimum + 1):
            walk = np.cumsum(rng.normal(size=(3, n)), axis=1)
            if n < minimum:
                with pytest.raises(ValueError) as info:
                    cips(walk, max_lag=max_lag, entity_labels=["a", "b", "c"])
                assert str(info.value) == (
                    f"entity a: too few observations ({n}) for the CADF regression"
                )
            else:
                assert math.isfinite(cips(walk, max_lag=max_lag).statistic)

    def test_degenerate_regressions_raise_value_error_naming_the_entity(self):
        rng = np.random.default_rng(95)
        walk = np.cumsum(rng.normal(size=(3, 60)), axis=1)
        walk[1] = 5.0
        with pytest.raises(ValueError) as info:
            cips(walk, entity_labels=["a", "b", "c"])
        assert str(info.value) == "entity b: the lagged level is constant on the sample"
        # 14 observations would leave the p = 4 regression (12 columns on
        # 9 rows) without residual degrees of freedom
        with pytest.raises(ValueError) as info:
            cips(walk[[0, 2], :14], entity_labels=["a", "c"])
        assert str(info.value) == "entity a: too few observations (14) for the CADF regression"
        with pytest.raises(ValueError, match="no residual degrees of freedom"):
            adf(walk[0, :9])


class TestDependence:
    def by_name(self, results):
        return {r.name: r for r in results}

    def test_identical_pair_closed_form(self):
        rng = np.random.default_rng(79)
        t = 64
        base = rng.normal(size=t)
        results = self.by_name(dependence_tests(np.vstack([base, base])))
        assert results["Pesaran-CD"].statistic == pytest.approx(math.sqrt(t), rel=1e-12)
        assert results["BP-LM"].statistic == pytest.approx(float(t), rel=1e-12)

    def test_orthogonal_pair_cd_zero(self):
        # exactly orthogonal, mean-zero series
        a = np.array([1.0, -1.0, 1.0, -1.0])
        b = np.array([1.0, 1.0, -1.0, -1.0])
        assert abs(a @ b) < 1e-12
        results = self.by_name(dependence_tests(np.vstack([a, b])))
        assert results["Pesaran-CD"].statistic == pytest.approx(0.0, abs=1e-12)

    def test_negation_flips_pair_contribution(self):
        rng = np.random.default_rng(80)
        a, b = rng.normal(size=(2, 50))
        base = self.by_name(dependence_tests(np.vstack([a, b])))
        flipped = self.by_name(dependence_tests(np.vstack([a, -b])))
        assert flipped["Pesaran-CD"].statistic == pytest.approx(
            -base["Pesaran-CD"].statistic, rel=1e-10
        )

    def test_pairs_without_overlap_excluded(self):
        a = np.array([1.0, 2.0, 3.0, np.nan, np.nan, np.nan])
        b = np.array([np.nan, np.nan, np.nan, 1.0, 2.5, 3.5])
        c = np.array([1.0, 2.2, 2.9, 1.1, 2.4, 3.6])
        results = dependence_tests(np.vstack([a, b, c]), entity_labels=["a", "b", "c"])
        assert results[0].pair_count == 2
        assert ("a", "b") in results[0].excluded_pairs

    def test_independent_noise_size(self):
        rng = np.random.default_rng(81)
        reps = 500
        n, t = 18, 500
        rejections = 0
        for _ in range(reps):
            data = rng.normal(size=(n, t))
            results = self.by_name(dependence_tests(data))
            rejections += results["Pesaran-CD"].p_value < 0.05
        rate = rejections / reps
        assert abs(rate - 0.05) < 0.02

    def test_zero_variance_pair_rejected(self):
        with pytest.raises(ValueError):
            dependence_tests(np.vstack([np.ones(10), np.arange(10.0)]))

    def test_gram_kernel_matches_pair_loop_on_offset_series(self):
        rng = np.random.default_rng(90)
        data = _offset_panel_with_holes(rng, 12, 400)
        reference = _reference_correlations(data)
        rhos = np.array([rho for *_, rho in reference])
        t_ij = np.array([t for _, _, t, _ in reference], dtype=float)
        n = len(data)
        results = self.by_name(dependence_tests(data))
        cd = math.sqrt(2.0 / (n * (n - 1))) * np.sum(np.sqrt(t_ij) * rhos)
        assert results["Pesaran-CD"].statistic == pytest.approx(cd, rel=1e-12)
        assert results["BP-LM"].statistic == pytest.approx(np.sum(t_ij * rhos**2), rel=1e-12)
        assert results["BP-LM"].pair_count == len(reference)

    def test_excluded_pairs_keep_pair_loop_order(self):
        rng = np.random.default_rng(91)
        data = rng.normal(size=(6, 30))
        data[1, 2:] = np.nan          # 2 observations: excluded with everyone
        data[4, :28] = np.nan         # overlaps of 2 with every other row
        data[2, 10:] = np.nan
        data[5, :9] = np.nan          # (2, 5) overlap in 1 observation
        labels = ["a", "b", "c", "d", "e", "f"]
        expected = [(labels[i], labels[j]) for i, j, _, rho in _reference_correlations(data)
                    if rho is None]
        results = dependence_tests(data, entity_labels=labels)
        assert results[0].excluded_pairs == expected
        assert results[0].pair_count == 15 - len(expected)

    def test_constant_on_overlap_with_one_partner_rejected(self):
        rng = np.random.default_rng(92)
        data = rng.normal(size=(3, 40))
        data[1, 25:] = 7.3            # constant where the third row is present
        data[2, :25] = np.nan
        with pytest.raises(ValueError) as info:
            dependence_tests(data, entity_labels=["a", "b", "c"])
        assert str(info.value) == "zero-variance overlap for pair (b, c)"


class TestDescribe:
    def test_symmetric_three_points(self):
        row = describe([1.0, 2.0, 3.0])
        assert row.mean == 2.0
        assert row.median == 2.0
        assert row.std_dev == pytest.approx(1.0, abs=1e-12)
        assert row.skewness == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_closed_form(self):
        p = 0.174
        n = 1000
        values = np.zeros(n)
        values[: int(round(p * n))] = 1.0
        row = describe(values)
        q = 1.0 - p
        assert row.mean == pytest.approx(p, abs=1e-12)
        assert row.skewness == pytest.approx((1 - 2 * p) / math.sqrt(p * q), abs=1e-10)
        assert row.kurtosis == pytest.approx((1 - 6 * p * q) / (p * q) + 3.0, abs=1e-10)
        # published benchmark row: 1.724 and 3.972, within 0.5%
        assert row.skewness == pytest.approx(1.724, rel=5e-3)
        assert row.kurtosis == pytest.approx(3.972, rel=5e-3)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_moments_match_an_exact_sum_oracle(self, offset):
        # the moments are products of the centred values, not powers; an
        # offset of 1e6 tests the centring.  The oracle centres on the mean
        # that describe reports, so it checks the moments, not the float mean
        rng = np.random.default_rng(83)
        x = offset + rng.standard_t(4, size=5001) * rng.uniform(0.5, 2.0, size=5001)
        row = describe(x)
        n = len(x)
        assert row.mean == pytest.approx(math.fsum(x) / n, rel=1e-13)
        c = [v - row.mean for v in x]
        m2 = math.fsum(v * v for v in c) / n
        m3 = math.fsum(v * v * v for v in c) / n
        m4 = math.fsum(v * v * v * v for v in c) / n
        assert row.skewness == pytest.approx(m3 / m2**1.5, rel=1e-12)
        assert row.kurtosis == pytest.approx(m4 / m2**2, rel=1e-12)

    def test_constant_series_flagged(self):
        row = describe([4.0, 4.0, 4.0])
        assert row.std_dev == 0.0
        assert math.isnan(row.skewness) and math.isnan(row.kurtosis)
        assert "degenerate" in row.flags

    def test_concatenation_invariance(self):
        rng = np.random.default_rng(82)
        x = rng.normal(size=37)
        single = describe(x)
        double = describe(np.concatenate([x, x]))
        assert double.mean == pytest.approx(single.mean, abs=1e-12)
        assert double.median == pytest.approx(single.median, abs=1e-12)
        assert double.skewness == pytest.approx(single.skewness, abs=1e-10)
        assert double.kurtosis == pytest.approx(single.kurtosis, abs=1e-10)
        n = len(x)
        expected_sd = single.std_dev * math.sqrt(
            (2 * n / (2 * n - 1)) * ((n - 1) / n)
        )
        assert double.std_dev == pytest.approx(expected_sd, abs=1e-12)

    def test_ordering_invariant(self):
        row = describe([5.0, -1.0, 2.0, 2.0, 9.0])
        assert row.minimum <= row.median <= row.maximum

    def test_missing_mask_respected(self):
        row = describe([1.0, 2.0, 3.0, np.nan])
        assert row.nobs == 3
        assert row.maximum == 3.0

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            describe([np.nan, np.nan])


class TestCorrelationMatrix:
    def test_self_correlation(self):
        rng = np.random.default_rng(83)
        x = rng.normal(size=30)
        matrix, _ = correlation_matrix([x, x.copy()])
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_antilinear_pair(self):
        x = np.arange(20.0)
        matrix, _ = correlation_matrix([x, -2.0 * x + 5.0])
        assert matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_pairwise_complete(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
        y = np.array([2.0, 4.0, 6.0, np.nan, 10.0])
        matrix, _ = correlation_matrix([x, y])
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_unit_diagonal_psd(self):
        rng = np.random.default_rng(84)
        data = rng.normal(size=(4, 200))
        matrix, _ = correlation_matrix(list(data))
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        assert np.linalg.eigvalsh(matrix).min() >= -1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix([np.ones(10), np.arange(10.0)])

    def test_gram_kernel_matches_pair_loop_on_offset_series(self):
        rng = np.random.default_rng(93)
        data = _offset_panel_with_holes(rng, 6, 3000)
        matrix, _ = correlation_matrix(list(data))
        for i, j, _, rho in _reference_correlations(data):
            assert abs(matrix[i, j] - rho) < 1e-12
            assert matrix[j, i] == matrix[i, j]

    def test_errors_name_the_first_failing_pair(self):
        rng = np.random.default_rng(94)
        x, y, z = rng.normal(size=(3, 40))
        y[25:] = 7.3
        z[:25] = np.nan
        with pytest.raises(ValueError) as info:
            correlation_matrix([x, y, z], ["x", "y", "z"])
        assert str(info.value) == "zero-variance series in pair (y, z)"
        z[:38] = np.nan
        with pytest.raises(ValueError) as info:
            correlation_matrix([x, y, z], ["x", "y", "z"])
        assert str(info.value) == "pair (x, z) has fewer than 3 joint observations"
