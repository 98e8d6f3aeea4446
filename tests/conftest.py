"""Shared fixtures: synthetic OHLCV file builders and small loadable panels."""

import csv

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from panelcrypt.panel import ENTITY_HEADER, MARKET_HEADER, META_HEADER

# Bounded, reproducible settings for the property tests, so tier-1 time stays flat.
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)

# Cell texts for the writers' quoting: delimiter, quote and line-break
# characters, blanks that may lead or trail, and non-ASCII letters.
CELL_TEXTS = st.text(alphabet='Ab ,"\r\n\u00e9\u4e2d', max_size=5)
# Finite floats, drawn often at the signed zero and the extremes repr must keep.
FINITE_VALUES = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def write_entity_csv(path, dates, open_, high, low, close, volume, mcap, attention,
                     missing=None):
    """Write one entity file; ``missing`` maps field name -> bool array."""
    missing = missing or {}
    columns = {
        "open": open_, "high": high, "low": low, "close": close,
        "volume": volume, "mcap": mcap, "attention": attention,
    }
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ENTITY_HEADER)
        for i, date in enumerate(dates):
            row = [str(date)]
            for name in ("open", "high", "low", "close", "volume", "mcap", "attention"):
                mask = missing.get(name)
                row.append("" if mask is not None and mask[i] else repr(float(columns[name][i])))
            writer.writerow(row)
    return path


def random_ohlcv(rng, n, start="2020-01-01"):
    """Invariant-respecting synthetic OHLCV block."""
    dates = np.datetime64(start, "D") + np.arange(n)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.04, size=n)))
    open_ = np.concatenate(([close[0]], close[:-1]))
    body_hi = np.maximum(open_, close)
    body_lo = np.minimum(open_, close)
    high = body_hi * (1.0 + rng.uniform(0.0, 0.03, size=n))
    low = body_lo * (1.0 - rng.uniform(0.0, 0.03, size=n))
    volume = np.exp(rng.normal(16.0, 0.8, size=n))
    mcap = 1e9 * np.exp(np.cumsum(rng.normal(0, 0.05, size=n)))
    attention = rng.uniform(0.0, 100.0, size=n)
    return dates, open_, high, low, close, volume, mcap, attention


def write_market_csv(path, dates, index_level, shock_loss):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(MARKET_HEADER)
        for i, date in enumerate(dates):
            writer.writerow([str(date), repr(float(index_level[i])), repr(float(shock_loss[i]))])
    return path


def write_meta_csv(path, rows):
    """rows: (symbol, category, hyfi, listing_date, five gini components)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(META_HEADER)
        for symbol, category, hyfi, listing, components in rows:
            writer.writerow(
                [symbol, category, "1" if hyfi else "0", listing]
                + [repr(float(c)) for c in components]
            )
    return path


def build_panel_files(tmp_path, rng, specs, n_market=None, market_start=None):
    """Write a full file set; specs: (symbol, hyfi, start, n_days)."""
    entity_dir = tmp_path / "entities"
    entity_dir.mkdir(exist_ok=True)
    meta_rows = []
    entity_files = []
    max_days = 0
    earliest = min(np.datetime64(start, "D") for _, _, start, _ in specs)
    for symbol, hyfi, start, n_days in specs:
        dates, o, h, l, c, v, m, a = random_ohlcv(rng, n_days, start=start)
        path = entity_dir / f"{symbol}.csv"
        write_entity_csv(path, dates, o, h, l, c, v, m, a)
        entity_files.append(str(path))
        components = tuple(np.round(rng.uniform(0.1, 0.9, size=5), 4))
        meta_rows.append((symbol, "test", hyfi, start, components))
        max_days = max(max_days, n_days)
    market_start = market_start or str(earliest - 31)
    n_market = n_market or (max_days + 31 + 5)
    market_dates = np.datetime64(market_start, "D") + np.arange(n_market)
    index = 1000.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=n_market)))
    loss = np.where(rng.random(n_market) < 0.3, np.exp(rng.normal(12, 2, size=n_market)), 0.0)
    market_file = write_market_csv(tmp_path / "market.csv", market_dates, index, loss)
    meta_file = write_meta_csv(tmp_path / "meta.csv", meta_rows)
    return entity_files, str(market_file), str(meta_file)


@pytest.fixture
def small_panel_files(tmp_path):
    rng = np.random.default_rng(42)
    specs = [("AAA", True, "2020-01-01", 60), ("BBB", False, "2020-01-01", 60),
             ("CCC", False, "2020-01-12", 49)]
    return build_panel_files(tmp_path, rng, specs)
