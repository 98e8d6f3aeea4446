"""Metric construction against closed-form oracles and frozen values."""

import math

import numpy as np
import pytest

from panelcrypt import metrics as mx


class TestParkinson:
    def test_zero_range_day(self):
        assert mx.parkinson(100.0, 100.0, 100.0) == 0.0

    def test_frozen_values(self):
        # high-precision closed form, sqrt(2 ln 2) = 1.1774100225154747
        assert mx.parkinson(110.0, 100.0, 105.0) == pytest.approx(0.0808877905, abs=5e-10)
        assert mx.parkinson(2.0, 1.0, 1.5) == pytest.approx(0.5662145335, abs=5e-10)

    def test_matches_oracle_on_random_triples(self):
        rng = np.random.default_rng(7)
        root = math.sqrt(2.0 * math.log(2.0))
        for _ in range(2000):
            low = rng.uniform(0.1, 100.0)
            high = low * (1.0 + rng.uniform(0.0, 0.5))
            close = rng.uniform(low, high)
            expected = (high - low) / (close * root)
            assert mx.parkinson(high, low, close) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            low = rng.uniform(0.5, 10.0)
            high = low * (1.0 + rng.uniform(0.0, 1.0))
            close = rng.uniform(low, high)
            lam = rng.uniform(1e-3, 1e3)
            base = mx.parkinson(high, low, close)
            scaled = mx.parkinson(lam * high, lam * low, lam * close)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mx.parkinson(1.0, 2.0, 1.5)      # high < low
        with pytest.raises(ValueError):
            mx.parkinson(2.0, -1.0, 1.5)
        with pytest.raises(ValueError):
            mx.parkinson(2.0, 1.0, 0.0)


class TestLogReturn:
    def test_values(self):
        assert mx.log_return(100.0, 100.0) == 0.0
        assert mx.log_return(110.0, 100.0) == pytest.approx(0.0953102, abs=5e-8)
        assert mx.log_return(90.0, 100.0) == pytest.approx(-0.1053605, abs=5e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mx.log_return(0.0, 100.0)
        with pytest.raises(ValueError):
            mx.log_return(100.0, -1.0)


class TestAmihud:
    def test_direct_division(self):
        assert mx.amihud(0.0, 1e6) == 0.0
        assert mx.amihud(0.05, 1e6) == pytest.approx(5e-8, rel=1e-12)
        assert mx.amihud(0.10, 2e5) == pytest.approx(5e-7, rel=1e-12)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError):
            mx.amihud(0.05, 0.0)

    def test_series_masks_zero_volume_days(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(4)
        returns = mx.MetricSeries(
            "X", "log_return", dates,
            np.array([np.nan, 0.05, -0.02, 0.01]),
            np.array([True, False, False, False]),
        )
        volume = np.array([1e6, 1e6, 0.0, 2e6])
        series = mx.amihud_series("X", dates, returns, volume, np.zeros(4, dtype=bool))
        assert series.missing.tolist() == [True, False, True, False]
        assert series.values[1] == pytest.approx(5e-8)
        assert any(flag.startswith("masked_volume_days=1") for flag in series.flags)


class TestZScore:
    def make(self, values, missing=None):
        n = len(values)
        dates = np.datetime64("2021-01-01", "D") + np.arange(n)
        missing = np.zeros(n, dtype=bool) if missing is None else np.asarray(missing)
        return mx.MetricSeries("X", "m", dates, np.asarray(values, dtype=float), missing)

    def test_three_points(self):
        z = mx.zscore_per_entity(self.make([1.0, 2.0, 3.0]))
        assert z.values.tolist() == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_constant_series_degenerate(self):
        z = mx.zscore_per_entity(self.make([5.0, 5.0, 5.0]))
        assert z.values.tolist() == [0.0, 0.0, 0.0]
        assert "degenerate" in z.flags

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        series = self.make(rng.normal(5.0, 3.0, size=40))
        once = mx.zscore_per_entity(series)
        twice = mx.zscore_per_entity(once)
        assert np.max(np.abs(once.values - twice.values)) < 1e-10

    def test_sample_sd_divisor(self):
        z = mx.zscore_per_entity(self.make([1.0, 2.0, 3.0, 4.0]))
        sd = np.std([1.0, 2.0, 3.0, 4.0], ddof=1)
        expected = (np.array([1.0, 2, 3, 4]) - 2.5) / sd
        assert z.values == pytest.approx(expected, abs=1e-12)

    def test_pooled_moments_near_standard(self):
        rng = np.random.default_rng(5)
        pooled = []
        for scale in (0.5, 2.0, 7.0):
            series = self.make(rng.normal(scale, scale, size=400))
            pooled.append(mx.zscore_per_entity(series).values)
        pooled = np.concatenate(pooled)
        assert pooled.mean() == pytest.approx(0.0, abs=1e-10)
        assert pooled.std(ddof=1) == pytest.approx(1.0, abs=0.01)

    def test_requires_two_values(self):
        with pytest.raises(ValueError):
            mx.zscore_per_entity(self.make([1.0, 2.0], missing=[False, True]))


class TestRealizedVolatility:
    def test_constant_index_is_zero(self):
        n = 40
        dates = np.datetime64("2021-01-01", "D") + np.arange(n)
        rv = mx.realized_volatility(dates, np.full(n, 1000.0), window=30)
        defined = ~rv.missing
        assert defined.sum() == n - 30
        assert np.all(rv.values[defined] == 0.0)

    def test_two_return_window(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(3)
        levels = np.array([100.0, 100.0 * math.exp(0.01), 100.0 * math.exp(0.0)])
        rv = mx.realized_volatility(dates, levels, window=2)
        # returns {+0.01, -0.01}: sample sd about mean 0
        assert rv.missing.tolist() == [True, True, False]
        assert rv.values[2] == pytest.approx(0.0141421, abs=5e-7)

    def test_matches_sample_sd_oracle(self):
        rng = np.random.default_rng(9)
        n, window = 80, 30
        dates = np.datetime64("2021-01-01", "D") + np.arange(n)
        levels = 500.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
        rv = mx.realized_volatility(dates, levels, window=window)
        returns = np.diff(np.log(levels))
        for t in range(window, n):
            expected = np.std(returns[t - window:t], ddof=1)
            assert rv.values[t] == pytest.approx(expected, rel=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        n = 50
        dates = np.datetime64("2021-01-01", "D") + np.arange(n)
        levels = np.exp(np.cumsum(rng.normal(0, 0.02, size=n))) * 100
        base = mx.realized_volatility(dates, levels, window=30)
        scaled = mx.realized_volatility(dates, levels * 37.5, window=30)
        ok = ~base.missing
        assert scaled.values[ok] == pytest.approx(base.values[ok], rel=1e-12)

    def test_window_too_large(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(10)
        with pytest.raises(ValueError):
            mx.realized_volatility(dates, np.full(10, 1.0), window=30)


class TestLagged:
    """The one gap-aware lag, shared by returns, size and the dynamic fits."""

    dates = np.array(["2021-01-01", "2021-01-02", "2021-01-03", "2021-01-05", "2021-01-06"],
                     dtype="datetime64[D]")

    def test_first_row_gap_and_missing_predecessor(self):
        values = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        missing = np.array([False, False, True, False, False])
        lag, lag_missing = mx.lagged(values, missing, self.dates)
        # row 0: no predecessor; row 3: two days after row 2 (and row 2 is
        # missing); row 2's predecessor is present; row 4 follows row 3
        assert lag_missing.tolist() == [True, False, False, True, False]
        assert lag[1] == 1.0 and lag[2] == 2.0 and lag[4] == 4.0
        assert np.isnan(lag[lag_missing]).all()

    def test_missing_predecessor_on_consecutive_days(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(4)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        missing = np.array([False, True, False, False])
        _lag, lag_missing = mx.lagged(values, missing, dates)
        assert lag_missing.tolist() == [True, False, True, False]

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_short_is_all_missing(self, n):
        lag, lag_missing = mx.lagged(np.ones(n), np.zeros(n, dtype=bool), self.dates[:n])
        assert lag_missing.tolist() == [True] * n and np.isnan(lag).all()


class TestSizeChange:
    def test_constant_mcap(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(3)
        s = mx.size_change("X", dates, np.full(3, 5e8), np.zeros(3, dtype=bool))
        assert s.missing.tolist() == [True, False, False]
        assert np.all(s.values[1:] == 0.0)

    def test_doubling(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(2)
        s = mx.size_change("X", dates, np.array([1e9, 2e9]), np.zeros(2, dtype=bool))
        assert s.values[1] == pytest.approx(0.6931472, abs=5e-8)

    def test_gap_masks_next_day(self):
        dates = np.array(["2021-01-01", "2021-01-02", "2021-01-04"], dtype="datetime64[D]")
        s = mx.size_change("X", dates, np.array([1e9, 1.1e9, 1.2e9]), np.zeros(3, dtype=bool))
        assert s.missing.tolist() == [True, False, True]

    def test_telescoping(self):
        rng = np.random.default_rng(21)
        n = 25
        dates = np.datetime64("2021-01-01", "D") + np.arange(n)
        mcap = 1e9 * np.exp(np.cumsum(rng.normal(0, 0.08, size=n)))
        s = mx.size_change("X", dates, mcap, np.zeros(n, dtype=bool))
        total = np.sum(s.values[1:])
        assert total == pytest.approx(math.log(mcap[-1] / mcap[0]), abs=1e-10)

    def test_nonpositive_mcap_rejected(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(2)
        with pytest.raises(ValueError):
            mx.size_change("X", dates, np.array([1e9, -1.0]), np.zeros(2, dtype=bool))


class TestLog1pMetric:
    def test_values(self):
        assert mx.log1p_metric(0.0) == 0.0
        assert mx.log1p_metric(math.e - 1.0) == pytest.approx(1.0, rel=1e-12)
        assert mx.log1p_metric(1.19e9) == pytest.approx(20.897, abs=5e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mx.log1p_metric(-0.5)


def test_masks_only_grow_and_alignment():
    rng = np.random.default_rng(17)
    n = 40
    dates = np.datetime64("2021-01-01", "D") + np.arange(n)
    close = 100 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
    missing_close = np.zeros(n, dtype=bool)
    missing_close[[5, 17]] = True
    returns = mx.log_return_series("X", dates, close, missing_close)
    assert len(returns) == n
    # mask grows: missing wherever source missing, plus the day after
    assert returns.missing[5] and returns.missing[6]
    assert returns.missing[17] and returns.missing[18]
    assert returns.missing[0]
    present = ~returns.missing
    expected = np.log(close[1:] / close[:-1])
    assert returns.values[present] == pytest.approx(expected[present[1:]], rel=1e-12)
