"""Seeded raw OHLCV file set for the ``raw_ingest`` workload.

Writes the three input groups that ``panelcrypt ingest`` reads: one CSV per
token, a market CSV and a metadata CSV.  The same seed gives byte-identical
files.  Every row respects the loader's OHLC invariants; when a row's prices
are dropped, open, high, low and close are emptied together.
"""

from __future__ import annotations

import csv
import os

import numpy as np

ENTITY_HEADER = ("date", "open", "high", "low", "close", "volume", "mcap", "attention")
MARKET_HEADER = ("date", "index_level", "shock_loss")
META_HEADER = ("symbol", "category", "hyfi", "listing_date", "gini_network",
               "gini_wealth", "gini_node", "gini_code", "gini_information")

START = np.datetime64("2020-01-01", "D")
MARKET_WARMUP = 31          # realized volatility needs a 30-day window before day one
LATE_SHARE = 2 / 3          # tokens that list after the first day
EMPTY_SHARE = 0.01          # chance that a cell, or a row's four prices together, is empty
HYFI_SHARE = 0.22


def _cell(value, empty):
    return "" if empty else repr(float(value))


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def generate(outdir, seed, n_tokens=40, n_days=1790, max_listing_offset=540):
    """Write ``entities/*.csv``, ``market.csv`` and ``meta.csv`` under ``outdir``.

    A ``LATE_SHARE`` of the tokens list late, at offsets spread evenly over 1
    to ``max_listing_offset`` days and assigned in seeded order; the rest list
    on the first day.  Each token row drops its four price cells together
    with probability ``EMPTY_SHARE``, and volume, mcap and attention each
    drop independently at the same rate.
    """
    rng = np.random.default_rng(seed)
    entity_dir = os.path.join(outdir, "entities")
    os.makedirs(entity_dir, exist_ok=True)

    # late tokens take evenly spaced offsets in seeded order, so every seed
    # yields the same number of token rows
    n_late = round(LATE_SHARE * n_tokens)
    offsets = np.zeros(n_tokens, dtype=int)
    offsets[rng.choice(n_tokens, size=n_late, replace=False)] = rng.permutation(
        np.linspace(1, max_listing_offset, n_late).round().astype(int))
    hyfi = np.zeros(n_tokens, dtype=bool)
    hyfi[rng.choice(n_tokens, size=max(1, round(HYFI_SHARE * n_tokens)), replace=False)] = True

    meta_rows = []
    for i in range(n_tokens):
        symbol = f"RAW{i:02d}"
        n = n_days - offsets[i]
        dates = START + offsets[i] + np.arange(n)
        close = 10.0 ** rng.uniform(-1, 3) * np.exp(np.cumsum(rng.normal(0.0, 0.04, n)))
        open_ = np.concatenate(([close[0]], close[:-1]))
        high = np.maximum(open_, close) * (1.0 + rng.uniform(0.0, 0.05, n))
        low = np.minimum(open_, close) * (1.0 - rng.uniform(0.0, 0.05, n))
        volume = np.exp(rng.normal(16.0, 1.0, n))
        mcap = 1e9 * np.exp(rng.normal(0.0, 1.0) + np.cumsum(rng.normal(0.0, 0.05, n)))
        attention = np.minimum(rng.exponential(12.0, n), 100.0)
        no_price = rng.random(n) < EMPTY_SHARE
        empty = {name: rng.random(n) < EMPTY_SHARE for name in ("volume", "mcap", "attention")}
        rows = [
            (str(dates[t]),
             _cell(open_[t], no_price[t]), _cell(high[t], no_price[t]),
             _cell(low[t], no_price[t]), _cell(close[t], no_price[t]),
             _cell(volume[t], empty["volume"][t]), _cell(mcap[t], empty["mcap"][t]),
             _cell(attention[t], empty["attention"][t]))
            for t in range(n)
        ]
        _write_rows(os.path.join(entity_dir, f"{symbol}.csv"), ENTITY_HEADER, rows)
        components = np.round(rng.uniform(0.1, 0.95, 5), 4)
        meta_rows.append((symbol, "raw", "1" if hyfi[i] else "0", str(dates[0]))
                         + tuple(repr(float(c)) for c in components))
    _write_rows(os.path.join(outdir, "meta.csv"), META_HEADER, meta_rows)

    n_market = n_days + MARKET_WARMUP
    market_dates = START - MARKET_WARMUP + np.arange(n_market)
    index_level = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n_market)))
    shock_loss = np.where(rng.random(n_market) < 0.35,
                          np.exp(rng.normal(12.0, 2.5, n_market)), 0.0)
    _write_rows(
        os.path.join(outdir, "market.csv"), MARKET_HEADER,
        [(str(d), repr(float(v)), repr(float(s)))
         for d, v, s in zip(market_dates, index_level, shock_loss)],
    )
