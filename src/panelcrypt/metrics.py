"""Dependent-variable and regressor construction for the daily panel.

All functions are pure and mask-aware: a metric is missing wherever any of
its inputs is missing, wherever a required lag crosses a calendar gap, and
wherever a rule below maps an undefined value (for example zero trading
volume) to a masked slot.  Masks only ever grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .panel import MARKET_SYMBOL

ROOT_TWO_LOG_TWO = math.sqrt(2.0 * math.log(2.0))

DAY = np.timedelta64(1, "D")


@dataclass
class MetricSeries:
    """A named per-entity daily series with an explicit missing-mask."""

    entity: str
    name: str
    dates: np.ndarray
    values: np.ndarray
    missing: np.ndarray
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.dates) == len(self.values) == len(self.missing)):
            raise ValueError(
                f"{self.entity}/{self.name}: dates, values and missing-mask "
                "must have equal length"
            )

    def __len__(self):
        return len(self.values)

    @property
    def present(self):
        return ~self.missing

    def present_values(self):
        return self.values[~self.missing]


def parkinson(high, low, close):
    """Range-based daily volatility (H - L) / (C * sqrt(2 ln 2)).

    Accepts scalars or aligned arrays; exactly zero on zero-range days.
    """
    high = np.asarray(high, dtype=float)
    low = np.asarray(low, dtype=float)
    close = np.asarray(close, dtype=float)
    if np.any(low <= 0) or np.any(close <= 0):
        raise ValueError("prices must be strictly positive")
    if np.any(high < low):
        raise ValueError("high must be >= low")
    out = (high - low) / (close * ROOT_TWO_LOG_TWO)
    return out if out.ndim else float(out)


def log_return(p_now, p_prev):
    """Natural log of the price ratio p_now / p_prev."""
    p_now = np.asarray(p_now, dtype=float)
    p_prev = np.asarray(p_prev, dtype=float)
    if np.any(p_now <= 0) or np.any(p_prev <= 0):
        raise ValueError("prices must be strictly positive")
    out = np.log(p_now / p_prev)
    return out if out.ndim else float(out)


def amihud(abs_return, volume):
    """Price-impact proxy |return| / volume for one day."""
    if volume <= 0:
        raise ValueError("volume must be strictly positive")
    return abs(abs_return) / volume


def log1p_metric(raw):
    """ln(1 + x) transform used for attention and shock-loss levels."""
    raw = np.asarray(raw, dtype=float)
    if np.any(raw < 0):
        raise ValueError("input must be nonnegative")
    out = np.log1p(raw)
    return out if out.ndim else float(out)


def lagged(values, missing, dates):
    """Gap-aware one-day lag of a daily series: ``(values, missing)`` where
    row t holds row t-1's value.  The lag is missing on the first row, where
    the previous row is not exactly one calendar day back, and where the
    previous value is missing."""
    n = len(values)
    out = np.full(n, np.nan)
    out_missing = np.ones(n, dtype=bool)
    if n > 1:
        ok = (np.diff(dates) == DAY) & ~missing[:-1]
        out[1:][ok] = values[:-1][ok]
        out_missing[1:][ok] = False
    return out, out_missing


def price_risk_series(entity, dates, high, low, close, missing):
    """Per-day range volatility with the combined input mask."""
    miss = missing["high"] | missing["low"] | missing["close"]
    values = np.full(len(dates), np.nan)
    ok = ~miss
    if ok.any():
        values[ok] = parkinson(high[ok], low[ok], close[ok])
    return MetricSeries(entity, "price_risk", dates, values, miss)


def log_return_series(entity, dates, close, missing_close):
    """Gap-aware one-day log return of the close price."""
    prev, prev_missing = lagged(close, missing_close, dates)
    miss = missing_close | prev_missing
    values = np.full(len(dates), np.nan)
    ok = ~miss
    values[ok] = np.log(close[ok] / prev[ok])
    return MetricSeries(entity, "log_return", dates, values, miss)


def amihud_series(entity, dates, returns, volume, missing_volume):
    """|return| / volume; zero or missing volume yields a masked value.

    Returns the series together with the count of days masked because the
    reported volume was zero or negative.
    """
    miss = returns.missing.copy()
    bad_volume = missing_volume | (volume <= 0)
    masked_volume_days = int(np.sum(~returns.missing & bad_volume))
    miss |= bad_volume
    values = np.full(len(dates), np.nan)
    ok = ~miss
    values[ok] = np.abs(returns.values[ok]) / volume[ok]
    series = MetricSeries(entity, "amihud", dates, values, miss)
    if masked_volume_days:
        series.flags.append(f"masked_volume_days={masked_volume_days}")
    return series


def zscore_per_entity(series):
    """Standardize a series over its non-missing entries.

    Uses the sample (n-1) standard deviation.  A constant series maps to
    zeros and carries a ``degenerate`` flag rather than failing.
    """
    ok = ~series.missing
    n = int(ok.sum())
    if n < 2:
        raise ValueError(
            f"{series.entity}/{series.name}: need >= 2 non-missing values to z-score"
        )
    data = series.values[ok]
    mean = data.mean()
    sd = data.std(ddof=1)
    values = np.full(len(series), np.nan)
    flags = list(series.flags)
    if sd == 0.0:
        values[ok] = 0.0
        flags.append("degenerate")
    else:
        values[ok] = (data - mean) / sd
    return MetricSeries(
        series.entity, f"z_{series.name}", series.dates, values, series.missing.copy(), flags
    )


def realized_volatility(dates, index_levels, window=30, entity=MARKET_SYMBOL):
    """Rolling sample standard deviation of the last ``window`` log returns.

    The market index series is assumed gap-free daily; the first ``window``
    dates have no full return window and stay masked.
    """
    levels = np.asarray(index_levels, dtype=float)
    if np.any(levels <= 0):
        raise ValueError("index levels must be strictly positive")
    if len(levels) < window + 1:
        raise ValueError(
            f"need at least window+1={window + 1} index levels, got {len(levels)}"
        )
    returns = np.log(levels[1:] / levels[:-1])
    n = len(levels)
    values = np.full(n, np.nan)
    miss = np.ones(n, dtype=bool)
    # sliding sample variance over the trailing `window` returns ending at t
    csum = np.concatenate(([0.0], np.cumsum(returns)))
    csum2 = np.concatenate(([0.0], np.cumsum(returns**2)))
    for t in range(window, n):
        s = csum[t] - csum[t - window]
        s2 = csum2[t] - csum2[t - window]
        var = (s2 - s * s / window) / (window - 1)
        values[t] = math.sqrt(max(var, 0.0))
        miss[t] = False
    return MetricSeries(entity, "market_volatility", np.asarray(dates), values, miss)


def size_change(entity, dates, mcap, missing_mcap):
    """Gap-aware one-day change in ln(market capitalization)."""
    if np.any(mcap[~missing_mcap] <= 0):
        raise ValueError(f"{entity}: mcap must be strictly positive where present")
    prev, prev_missing = lagged(mcap, missing_mcap, dates)
    miss = missing_mcap | prev_missing
    values = np.full(len(dates), np.nan)
    ok = ~miss
    values[ok] = np.log(mcap[ok]) - np.log(prev[ok])
    return MetricSeries(entity, "size", dates, values, miss)


def attractiveness_series(entity, dates, attention, missing_attention):
    """ln(1 + search interest); zero interest maps to exactly zero."""
    values = np.full(len(dates), np.nan)
    ok = ~missing_attention
    values[ok] = log1p_metric(attention[ok])
    return MetricSeries(entity, "attractiveness", dates, values, missing_attention.copy())


def market_shocks_series(dates, shock_loss, missing_loss):
    """ln(1 + fraud/scam loss amount) for the market series."""
    values = np.full(len(dates), np.nan)
    ok = ~missing_loss
    values[ok] = log1p_metric(shock_loss[ok])
    return MetricSeries(MARKET_SYMBOL, "market_shocks", dates, values, missing_loss.copy())


def compute_entity_metrics(rec):
    """All per-entity metric series for one EntityRecords block."""
    out = {}
    out["price_risk"] = price_risk_series(
        rec.symbol, rec.dates, rec.values["high"], rec.values["low"],
        rec.values["close"], rec.missing,
    )
    returns = log_return_series(rec.symbol, rec.dates, rec.values["close"], rec.missing["close"])
    out["log_return"] = returns
    raw_amihud = amihud_series(
        rec.symbol, rec.dates, returns, rec.values["volume"], rec.missing["volume"]
    )
    out["amihud"] = raw_amihud
    illiq = zscore_per_entity(raw_amihud)
    illiq.name = "illiquidity"
    out["illiquidity"] = illiq
    out["size"] = size_change(rec.symbol, rec.dates, rec.values["mcap"], rec.missing["mcap"])
    out["attractiveness"] = attractiveness_series(
        rec.symbol, rec.dates, rec.values["attention"], rec.missing["attention"]
    )
    return out


def compute_market_metrics(market, window=30):
    """Market-wide volatility and shock metrics."""
    ok = ~market.missing["index_level"]
    if not ok.all():
        raise ValueError("market index_level has missing values; series must be gap-free")
    out = {}
    out["market_volatility"] = realized_volatility(
        market.dates, market.values["index_level"], window=window
    )
    out["market_shocks"] = market_shocks_series(
        market.dates, market.values["shock_loss"], market.missing["shock_loss"]
    )
    return out


def compute_all_metrics(panel, window=30):
    """Metric bundle for a whole panel: {entity: {name: MetricSeries}}.

    Market metrics appear under the MARKET pseudo-entity.
    """
    bundle = {}
    for meta in panel.entities:
        bundle[meta.symbol] = compute_entity_metrics(panel.observations[meta.symbol])
    bundle[MARKET_SYMBOL] = compute_market_metrics(panel.market, window=window)
    return bundle
