"""Metric construction against closed-form oracles and frozen values."""

import math

import numpy as np
import pytest

from panelcrypt import decentralization as dec
from panelcrypt import metrics as mx
from panelcrypt.panel import (
    ENTITY_FIELDS,
    MARKET_FIELDS,
    MARKET_SYMBOL,
    EntityMeta,
    EntityRecords,
    PanelDataset,
)


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
        returns = np.array([np.nan, 0.05, -0.02, 0.01]), np.array([True, False, False, False])
        volume = np.array([1e6, 1e6, 0.0, 2e6])
        values, missing = mx.amihud_series(returns, volume, np.zeros(4, dtype=bool))
        assert missing.tolist() == [True, False, True, False]
        assert values[1] == pytest.approx(5e-8)


class TestZScore:
    def zscore(self, values, missing=None):
        """The z-scored values of a column with ``missing`` (none by default)."""
        missing = np.zeros(len(values), dtype=bool) if missing is None else np.asarray(missing)
        return mx.zscore_per_entity((np.asarray(values, dtype=float), missing), "X/m")[0]

    def test_three_points(self):
        assert self.zscore([1.0, 2.0, 3.0]).tolist() == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_constant_series_degenerate(self):
        assert self.zscore([5.0, 5.0, 5.0]).tolist() == [0.0, 0.0, 0.0]

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        once = self.zscore(rng.normal(5.0, 3.0, size=40))
        twice = self.zscore(once)
        assert np.max(np.abs(once - twice)) < 1e-10

    def test_sample_sd_divisor(self):
        sd = np.std([1.0, 2.0, 3.0, 4.0], ddof=1)
        expected = (np.array([1.0, 2, 3, 4]) - 2.5) / sd
        assert self.zscore([1.0, 2.0, 3.0, 4.0]) == pytest.approx(expected, abs=1e-12)

    def test_pooled_moments_near_standard(self):
        rng = np.random.default_rng(5)
        pooled = np.concatenate([self.zscore(rng.normal(scale, scale, size=400))
                                 for scale in (0.5, 2.0, 7.0)])
        assert pooled.mean() == pytest.approx(0.0, abs=1e-10)
        assert pooled.std(ddof=1) == pytest.approx(1.0, abs=0.01)

    def test_requires_two_values(self):
        with pytest.raises(ValueError, match="X/m: need >= 2 non-missing values"):
            self.zscore([1.0, 2.0], missing=[False, True])


class TestRealizedVolatility:
    def test_constant_index_is_zero(self):
        n = 40
        values, missing = mx.realized_volatility(np.full(n, 1000.0), window=30)
        assert (~missing).sum() == n - 30
        assert np.all(values[~missing] == 0.0)

    def test_two_return_window(self):
        levels = np.array([100.0, 100.0 * math.exp(0.01), 100.0 * math.exp(0.0)])
        values, missing = mx.realized_volatility(levels, window=2)
        # returns {+0.01, -0.01}: sample sd about mean 0
        assert missing.tolist() == [True, True, False]
        assert values[2] == pytest.approx(0.0141421, abs=5e-7)

    def test_matches_sample_sd_oracle(self):
        rng = np.random.default_rng(9)
        n, window = 80, 30
        levels = 500.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
        values, _ = mx.realized_volatility(levels, window=window)
        returns = np.diff(np.log(levels))
        for t in range(window, n):
            expected = np.std(returns[t - window:t], ddof=1)
            assert values[t] == pytest.approx(expected, rel=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        n = 50
        levels = np.exp(np.cumsum(rng.normal(0, 0.02, size=n))) * 100
        base, missing = mx.realized_volatility(levels, window=30)
        scaled, _ = mx.realized_volatility(levels * 37.5, window=30)
        assert scaled[~missing] == pytest.approx(base[~missing], rel=1e-12)

    @pytest.mark.parametrize("window", [1, 0, -2])
    def test_window_below_two_refused(self, window):
        with pytest.raises(ValueError, match=rf"volatility window {window}: need at least 2"):
            mx.realized_volatility(np.full(10, 1.0), window=window)

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            mx.realized_volatility(np.full(10, 1.0), window=30)


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
        values, missing = mx.size_change("X", dates, np.full(3, 5e8), np.zeros(3, dtype=bool))
        assert missing.tolist() == [True, False, False]
        assert np.all(values[1:] == 0.0)

    def test_doubling(self):
        dates = np.datetime64("2021-01-01", "D") + np.arange(2)
        values, _ = mx.size_change("X", dates, np.array([1e9, 2e9]), np.zeros(2, dtype=bool))
        assert values[1] == pytest.approx(0.6931472, abs=5e-8)

    def test_gap_masks_next_day(self):
        dates = np.array(["2021-01-01", "2021-01-02", "2021-01-04"], dtype="datetime64[D]")
        _, missing = mx.size_change("X", dates, np.array([1e9, 1.1e9, 1.2e9]),
                                    np.zeros(3, dtype=bool))
        assert missing.tolist() == [True, False, True]

    def test_telescoping(self):
        rng = np.random.default_rng(21)
        n = 25
        dates = np.datetime64("2021-01-01", "D") + np.arange(n)
        mcap = 1e9 * np.exp(np.cumsum(rng.normal(0, 0.08, size=n)))
        values, _ = mx.size_change("X", dates, mcap, np.zeros(n, dtype=bool))
        total = np.sum(values[1:])
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
    values, missing = mx.log_return_series(dates, close, missing_close)
    assert len(values) == len(missing) == n
    # mask grows: missing wherever source missing, plus the day after
    assert missing[5] and missing[6]
    assert missing[17] and missing[18]
    assert missing[0]
    expected = np.log(close[1:] / close[:-1])
    assert values[~missing] == pytest.approx(expected[~missing[1:]], rel=1e-12)


def gapped_records(rng, symbol, fields, n, columns):
    """Records on ``n`` days with two calendar gaps, about 10% empty cells
    per field, and NaN in every empty cell, as the loaders give them."""
    days = np.concatenate([np.arange(0, 20), np.arange(23, 40), np.arange(50, 50 + n - 37)])
    dates = np.datetime64("2021-01-01", "D") + days
    values, missing = {}, {}
    for name in fields:
        missing[name] = rng.random(n) < 0.1
        values[name] = np.where(missing[name], np.nan, columns[name])
    return EntityRecords(symbol, dates, values, missing)


def gapped_market(rng, close):
    """Market records on the days of ``gapped_records`` with an index
    level on every day, as the market metrics require."""
    n = len(close)
    market = gapped_records(rng, MARKET_SYMBOL, MARKET_FIELDS, n, {
        "index_level": 1000.0 * close, "shock_loss": rng.exponential(1e5, size=n),
    })
    market.missing["index_level"][:] = False
    market.values["index_level"][:] = 1000.0 * close
    return market


def test_every_metric_is_nan_exactly_where_masked():
    rng = np.random.default_rng(23)
    n = 80
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
    volume = np.exp(rng.normal(15.0, 1.0, size=n))
    volume[[9, 30]] = 0.0  # zero volume is masked, not a division by zero
    entity = gapped_records(rng, "GAP", ENTITY_FIELDS, n, {
        "open": close, "high": close * 1.02, "low": close * 0.98, "close": close,
        "volume": volume, "mcap": 1e9 * close, "attention": rng.uniform(0, 100, size=n),
    })
    market = gapped_market(rng, close)
    columns = {**mx.compute_entity_metrics(entity), **mx.compute_market_metrics(market)}
    assert set(columns) == {"price_risk", "log_return", "amihud", "illiquidity", "size",
                            "attractiveness", "market_volatility", "market_shocks"}
    for name, (values, missing) in columns.items():
        assert len(values) == len(missing) == n, name
        assert 0 < missing.sum() < n, name
        assert np.array_equal(np.isnan(values), missing), name
    # days with a return whose volume is empty or zero are masked
    bad_volume = entity.missing["volume"] | (volume <= 0)
    masked = ~columns["log_return"][1] & bad_volume
    assert masked.sum() >= 2 and columns["amihud"][1][masked].all()
    # a lag across a calendar gap is missing: 2021-01-24 follows 2021-01-20
    assert columns["log_return"][1][20] and columns["size"][1][20]


def test_decentralization_is_the_pooled_orthogonalization_of_ln_mcap():
    rng = np.random.default_rng(29)
    n = 80
    metas, records = [], {}
    for i, symbol in enumerate(["AAA", "BBB", "CCC"]):
        close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
        records[symbol] = gapped_records(rng, symbol, ENTITY_FIELDS, n, {
            "open": close, "high": close * 1.02, "low": close * 0.98, "close": close,
            "volume": np.exp(rng.normal(15.0, 1.0, size=n)),
            "mcap": 1e9 * (i + 1) * np.exp(np.cumsum(rng.normal(0, 0.05, size=n))),
            "attention": rng.uniform(0, 100, size=n),
        })
        metas.append(EntityMeta(symbol, "test", i == 0, records[symbol].dates[0],
                                tuple(rng.uniform(0.2, 0.9, size=5))))
    panel = PanelDataset(tuple(metas), records, gapped_market(rng, close))
    bundle = mx.compute_all_metrics(panel)
    composites = np.concatenate([np.full(n, dec.composite_index(meta.gini_components))
                                 for meta in metas])
    log_mcap = np.log(np.concatenate([records[meta.symbol].values["mcap"] for meta in metas]))
    expected, _ = dec.orthogonalize(composites, log_mcap)
    for i, meta in enumerate(metas):
        rec = bundle[meta.symbol]
        values, missing = rec.values["decentralization"], rec.missing["decentralization"]
        mcap_missing = records[meta.symbol].missing["mcap"]
        assert mcap_missing.any() and np.array_equal(missing, mcap_missing)
        assert np.array_equal(np.isnan(values), mcap_missing)
        assert np.array_equal(values, expected[i * n:(i + 1) * n], equal_nan=True)
        assert np.array_equal(rec.dates, records[meta.symbol].dates)
