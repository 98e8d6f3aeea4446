"""Dependent-variable and regressor construction for the daily panel.

A metric is a column ``(values, missing)`` on the dates of the records it
is computed from, and a metric bundle is ``{symbol: EntityRecords}``: one
date vector per entity, ``MARKET`` included, with one column per metric,
made by ``records``.  ``compute_all_metrics`` builds the bundle of a raw
panel: the response, the entity controls with purified decentralization,
and the market columns.

All functions are pure and mask-aware: a metric is missing wherever any of
its inputs is missing, wherever a required lag crosses a calendar gap, and
wherever a rule below maps an undefined value (for example zero trading
volume) to a masked slot.  Masks only ever grow.  Each column constructor
states its mask and its formula; ``_masked`` applies the one masking rule,
NaN on every masked day and the formula on the present days only.
"""

from __future__ import annotations

import math

import numpy as np

from . import decentralization as dec
from .panel import MARKET_SYMBOL, EntityRecords

ROOT_TWO_LOG_TWO = math.sqrt(2.0 * math.log(2.0))

# days of index log returns behind each market volatility value
VOLATILITY_WINDOW = 30

DAY = np.timedelta64(1, "D")


def records(symbol, dates, columns):
    """The ``EntityRecords`` of ``symbol`` on ``dates`` holding ``columns``,
    ``{name: (values, missing)}`` with values NaN wherever missing."""
    return EntityRecords(symbol, dates, {name: v for name, (v, _) in columns.items()},
                         {name: m for name, (_, m) in columns.items()})


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


def _masked(miss, formula, *columns):
    """The column NaN where ``miss`` is True and ``formula(*columns[~miss])``
    elsewhere, with ``miss`` as its mask: ``(values, miss)``."""
    values = np.full(len(miss), np.nan)
    ok = ~miss
    values[ok] = formula(*(column[ok] for column in columns))
    return values, miss


def price_risk_series(high, low, close, missing):
    """Per-day range volatility with the combined input mask."""
    miss = missing["high"] | missing["low"] | missing["close"]
    return _masked(miss, parkinson, high, low, close)


def log_return_series(dates, close, missing_close):
    """Gap-aware one-day log return of the close price."""
    prev, prev_missing = lagged(close, missing_close, dates)
    return _masked(missing_close | prev_missing, log_return, close, prev)


def amihud_series(returns, volume, missing_volume):
    """|return| / volume of the ``(values, missing)`` returns; zero or
    missing volume yields a masked value."""
    values, missing = returns
    return _masked(missing | missing_volume | (volume <= 0), amihud, values, volume)


def zscore_per_entity(column, label):
    """Standardize a ``(values, missing)`` column over its non-missing entries.

    Uses the sample (n-1) standard deviation.  A constant column maps to
    zeros rather than failing; fewer than two present values raise
    ``ValueError`` naming ``label``.
    """
    values, missing = column
    data = values[~missing]
    if len(data) < 2:
        raise ValueError(f"{label}: need >= 2 non-missing values to z-score")
    mean = data.mean()
    sd = data.std(ddof=1)
    standardize = np.zeros_like if sd == 0.0 else (lambda x: (x - mean) / sd)
    return _masked(missing.copy(), standardize, values)


def realized_volatility(index_levels, window=VOLATILITY_WINDOW):
    """Rolling sample standard deviation of the last ``window`` log returns.

    The market index series is assumed gap-free daily; the first ``window``
    levels have no full return window and stay masked.
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
    return values, miss


def size_change(entity, dates, mcap, missing_mcap):
    """Gap-aware one-day change in ln(market capitalization)."""
    if np.any(mcap[~missing_mcap] <= 0):
        raise ValueError(f"{entity}: mcap must be strictly positive where present")
    prev, prev_missing = lagged(mcap, missing_mcap, dates)
    return _masked(missing_mcap | prev_missing,
                   lambda now, before: np.log(now) - np.log(before), mcap, prev)


def attractiveness_series(attention, missing_attention):
    """ln(1 + search interest); zero interest maps to exactly zero."""
    return _masked(missing_attention.copy(), log1p_metric, attention)


def market_shocks_series(shock_loss, missing_loss):
    """ln(1 + fraud/scam loss amount) for the market."""
    return _masked(missing_loss.copy(), log1p_metric, shock_loss)


def compute_entity_metrics(rec):
    """Every entity metric column of one ``EntityRecords``, ``{name: (values, missing)}``."""
    values = rec.values
    price_risk = price_risk_series(values["high"], values["low"], values["close"], rec.missing)
    returns = log_return_series(rec.dates, *rec.column("close"))
    raw_amihud = amihud_series(returns, *rec.column("volume"))
    return {
        "price_risk": price_risk,
        "log_return": returns,
        "amihud": raw_amihud,
        "illiquidity": zscore_per_entity(raw_amihud, f"{rec.symbol}/amihud"),
        "size": size_change(rec.symbol, rec.dates, *rec.column("mcap")),
        "attractiveness": attractiveness_series(*rec.column("attention")),
    }


def purified_decentralization(metas, log_mcap):
    """Composite decentralization per token, purified against pooled ln(mcap).

    ``log_mcap`` holds one array per entry of ``metas`` (NaN where ln(mcap)
    is missing).  Returns ``{symbol: (values, missing)}`` on those arrays' days.
    """
    composite = [np.full(len(x), dec.composite_index(meta.gini_components))
                 for meta, x in zip(metas, log_mcap)]
    residuals, missing = dec.orthogonalize(np.concatenate(composite), np.concatenate(log_mcap))
    columns, offset = {}, 0
    for meta, x in zip(metas, log_mcap):
        end = offset + len(x)
        columns[meta.symbol] = residuals[offset:end], missing[offset:end]
        offset = end
    return columns


def decentralization_series(metas, panel):
    """``purified_decentralization`` of the tokens of ``metas`` against the
    ln(mcap) of their ``panel`` rows, missing where mcap is."""
    records = [panel.observations[meta.symbol] for meta in metas]
    log_mcap = [_masked(rec.missing["mcap"], np.log, rec.values["mcap"])[0] for rec in records]
    return purified_decentralization(metas, log_mcap)


def compute_market_metrics(market):
    """Market-wide volatility and shock columns, ``{name: (values, missing)}``."""
    if market.missing["index_level"].any():
        raise ValueError("market index_level has missing values; series must be gap-free")
    return {
        "market_volatility": realized_volatility(market.values["index_level"]),
        "market_shocks": market_shocks_series(*market.column("shock_loss")),
    }


def compute_all_metrics(panel):
    """Metric bundle of a whole panel, ``{symbol: EntityRecords}`` on the
    panel's dates; the market columns are the records of ``MARKET``."""
    columns = {meta.symbol: compute_entity_metrics(panel.observations[meta.symbol])
               for meta in panel.entities}
    market = compute_market_metrics(panel.market)
    for symbol, column in decentralization_series(panel.entities, panel).items():
        columns[symbol]["decentralization"] = column
    bundle = {symbol: records(symbol, panel.observations[symbol].dates, per)
              for symbol, per in columns.items()}
    bundle[MARKET_SYMBOL] = records(MARKET_SYMBOL, panel.market.dates, market)
    return bundle
