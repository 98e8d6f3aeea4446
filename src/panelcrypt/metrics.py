"""Dependent-variable and regressor construction for the daily panel.

``compute_all_metrics`` builds every series of a raw panel: the response,
the entity controls with purified decentralization, and the market series.
All functions are pure and mask-aware: a metric is missing wherever any of
its inputs is missing, wherever a required lag crosses a calendar gap, and
wherever a rule below maps an undefined value (for example zero trading
volume) to a masked slot.  Masks only ever grow.  Each series constructor
states its mask and its formula; ``_masked`` applies the one masking rule,
NaN on every masked day and the formula on the present days only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import decentralization as dec
from .panel import MARKET_SYMBOL

ROOT_TWO_LOG_TWO = math.sqrt(2.0 * math.log(2.0))

# days of index log returns behind each market volatility value
VOLATILITY_WINDOW = 30

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
    """Price-impact proxy |return| / volume; accepts scalars or aligned arrays."""
    abs_return = np.asarray(abs_return, dtype=float)
    volume = np.asarray(volume, dtype=float)
    if np.any(volume <= 0):
        raise ValueError("volume must be strictly positive")
    out = np.abs(abs_return) / volume
    return out if out.ndim else float(out)


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


def _masked(entity, name, dates, miss, formula, *columns):
    """The series ``name`` of ``entity``: NaN where ``miss`` is True and
    ``formula(*columns[~miss])`` elsewhere; ``miss`` becomes its mask."""
    values = np.full(len(dates), np.nan)
    ok = ~miss
    values[ok] = formula(*(column[ok] for column in columns))
    return MetricSeries(entity, name, dates, values, miss)


def price_risk_series(entity, dates, high, low, close, missing):
    """Per-day range volatility with the combined input mask."""
    miss = missing["high"] | missing["low"] | missing["close"]
    return _masked(entity, "price_risk", dates, miss, parkinson, high, low, close)


def log_return_series(entity, dates, close, missing_close):
    """Gap-aware one-day log return of the close price."""
    prev, prev_missing = lagged(close, missing_close, dates)
    miss = missing_close | prev_missing
    return _masked(entity, "log_return", dates, miss, log_return, close, prev)


def amihud_series(entity, dates, returns, volume, missing_volume):
    """|return| / volume; zero or missing volume yields a masked value.

    The series carries the count of days with a return that are masked
    because their volume is missing, zero or negative, as the flag
    ``masked_volume_days``.
    """
    bad_volume = missing_volume | (volume <= 0)
    masked_volume_days = int(np.sum(~returns.missing & bad_volume))
    miss = returns.missing | bad_volume
    series = _masked(entity, "amihud", dates, miss, amihud, returns.values, volume)
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
    if sd == 0.0:
        standardize, flags = np.zeros_like, ["degenerate"]
    else:
        standardize, flags = (lambda x: (x - mean) / sd), []
    z = _masked(series.entity, f"z_{series.name}", series.dates, series.missing.copy(),
                standardize, series.values)
    z.flags = list(series.flags) + flags
    return z


def realized_volatility(dates, index_levels, window=VOLATILITY_WINDOW):
    """Rolling sample standard deviation of the last ``window`` log returns.

    The market index series is assumed gap-free daily; the first ``window``
    dates have no full return window and stay masked.
    """
    if window < 2:
        raise ValueError(f"volatility window {window}: need at least 2 returns")
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
    return MetricSeries(MARKET_SYMBOL, "market_volatility", np.asarray(dates), values, miss)


def size_change(entity, dates, mcap, missing_mcap):
    """Gap-aware one-day change in ln(market capitalization)."""
    if np.any(mcap[~missing_mcap] <= 0):
        raise ValueError(f"{entity}: mcap must be strictly positive where present")
    prev, prev_missing = lagged(mcap, missing_mcap, dates)
    miss = missing_mcap | prev_missing
    return _masked(entity, "size", dates, miss,
                   lambda now, before: np.log(now) - np.log(before), mcap, prev)


def attractiveness_series(entity, dates, attention, missing_attention):
    """ln(1 + search interest); zero interest maps to exactly zero."""
    return _masked(entity, "attractiveness", dates, missing_attention.copy(),
                   log1p_metric, attention)


def market_shocks_series(dates, shock_loss, missing_loss):
    """ln(1 + fraud/scam loss amount) for the market series."""
    return _masked(MARKET_SYMBOL, "market_shocks", dates, missing_loss.copy(),
                   log1p_metric, shock_loss)


def compute_entity_metrics(rec):
    """All per-entity metric series for one EntityRecords block."""
    symbol, dates, values, missing = rec.symbol, rec.dates, rec.values, rec.missing
    price_risk = price_risk_series(
        symbol, dates, values["high"], values["low"], values["close"], missing
    )
    returns = log_return_series(symbol, dates, values["close"], missing["close"])
    raw_amihud = amihud_series(symbol, dates, returns, values["volume"], missing["volume"])
    illiquidity = zscore_per_entity(raw_amihud)
    illiquidity.name = "illiquidity"
    return {
        "price_risk": price_risk,
        "log_return": returns,
        "amihud": raw_amihud,
        "illiquidity": illiquidity,
        "size": size_change(symbol, dates, values["mcap"], missing["mcap"]),
        "attractiveness": attractiveness_series(
            symbol, dates, values["attention"], missing["attention"]
        ),
    }


def purified_decentralization(metas, dates, log_mcap):
    """Composite decentralization per token, purified against pooled ln(mcap).

    ``dates`` and ``log_mcap`` hold one array per entry of ``metas`` (NaN
    where ln(mcap) is missing).  Returns ``{symbol: MetricSeries}``.
    """
    composite = [
        np.full(len(d), dec.composite_index(meta.gini_components))
        for meta, d in zip(metas, dates)
    ]
    residuals, missing = dec.orthogonalize(np.concatenate(composite), np.concatenate(log_mcap))
    series, offset = {}, 0
    for meta, d in zip(metas, dates):
        end = offset + len(d)
        series[meta.symbol] = MetricSeries(
            meta.symbol, "decentralization", d, residuals[offset:end], missing[offset:end]
        )
        offset = end
    return series


def decentralization_series(metas, panel):
    """``purified_decentralization`` of the tokens of ``metas`` against the
    ln(mcap) of their ``panel`` rows, missing where mcap is."""
    records = [panel.observations[meta.symbol] for meta in metas]
    log_mcap = [_masked(rec.symbol, "log_mcap", rec.dates, rec.missing["mcap"], np.log,
                        rec.values["mcap"]).values for rec in records]
    return purified_decentralization(metas, [rec.dates for rec in records], log_mcap)


def compute_market_metrics(market):
    """Market-wide volatility and shock metrics."""
    if market.missing["index_level"].any():
        raise ValueError("market index_level has missing values; series must be gap-free")
    return {
        "market_volatility": realized_volatility(market.dates, market.values["index_level"]),
        "market_shocks": market_shocks_series(
            market.dates, market.values["shock_loss"], market.missing["shock_loss"]
        ),
    }


def compute_all_metrics(panel):
    """Metric bundle for a whole panel: {entity: {name: MetricSeries}}.

    Market metrics appear under the MARKET pseudo-entity.
    """
    bundle = {meta.symbol: compute_entity_metrics(panel.observations[meta.symbol])
              for meta in panel.entities}
    bundle[MARKET_SYMBOL] = compute_market_metrics(panel.market)
    for symbol, series in decentralization_series(panel.entities, panel).items():
        bundle[symbol]["decentralization"] = series
    return bundle
