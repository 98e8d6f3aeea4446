"""Loading, validation and slicing of the daily cryptocurrency panel.

The panel is ingested from flat CSV files (one per entity, plus a
market-wide file and a metadata file) or from a single consolidated CSV
with an ``entity`` column.  Missing values are empty cells; every field
carries an explicit boolean missing-mask downstream so that no estimator
has to reason about NaN propagation.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

ENTITY_FIELDS = ("open", "high", "low", "close", "volume", "mcap", "attention")
MARKET_FIELDS = ("index_level", "shock_loss")
MARKET_SYMBOL = "MARKET"

ENTITY_HEADER = ("date",) + ENTITY_FIELDS
MARKET_HEADER = ("date",) + MARKET_FIELDS
META_HEADER = (
    "symbol",
    "category",
    "hyfi",
    "listing_date",
    "gini_network",
    "gini_wealth",
    "gini_node",
    "gini_code",
    "gini_information",
)
PANEL_HEADER = ("entity",) + ENTITY_HEADER + MARKET_FIELDS

GINI_DIMENSIONS = ("network", "wealth", "node", "code", "information")


class PanelLoadError(ValueError):
    """Validation failure located as ``path:line``; the header is line 1."""

    def __init__(self, message, source=None, line=None):
        location = ""
        if source is not None:
            location = f"{source}"
            if line is not None:
                location += f":{line}"
            location = f" [{location}]"
        super().__init__(message + location)
        self.source = source
        self.line = line


@dataclass(frozen=True)
class EntityMeta:
    """Static per-token attributes."""

    symbol: str
    category: str
    hyfi: bool
    listing_date: np.datetime64
    gini_components: tuple  # (network, wealth, node, code, information)

    def __post_init__(self):
        if len(self.gini_components) != len(GINI_DIMENSIONS):
            raise ValueError(
                f"{self.symbol}: expected {len(GINI_DIMENSIONS)} gini components, "
                f"got {len(self.gini_components)}"
            )
        for name, value in zip(GINI_DIMENSIONS, self.gini_components):
            if not (0.0 <= value <= 1.0):
                raise ValueError(
                    f"{self.symbol}: gini component {name}={value} outside [0, 1]"
                )


@dataclass(frozen=True)
class EntityRecords:
    """Daily observations for one entity.

    ``values[field]`` is float64 with NaN at masked slots; ``missing[field]``
    is the authoritative mask (True where the cell was empty).
    """

    symbol: str
    dates: np.ndarray                # datetime64[D], strictly increasing
    values: dict                     # field -> float64 array
    missing: dict                    # field -> bool array

    def __len__(self):
        return len(self.dates)


@dataclass(frozen=True)
class MarketSeries:
    """Market-wide daily series: index level and fraud/scam loss amounts."""

    dates: np.ndarray
    values: dict
    missing: dict

    def __len__(self):
        return len(self.dates)


@dataclass(frozen=True)
class PanelDataset:
    """Validated, immutable entity-by-calendar panel."""

    entities: tuple            # EntityMeta, ordered as loaded
    observations: dict         # symbol -> EntityRecords
    market: MarketSeries
    calendar: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.calendar is None:
            dates = [rec.dates for rec in self.observations.values()]
            dates.append(self.market.dates)
            merged = (
                np.unique(np.concatenate(dates)) if dates else np.array([], "datetime64[D]")
            )
            object.__setattr__(self, "calendar", merged)

    @property
    def symbols(self):
        return [meta.symbol for meta in self.entities]

    @property
    def is_empty(self):
        return len(self.entities) == 0

    def meta(self, symbol):
        for meta in self.entities:
            if meta.symbol == symbol:
                return meta
        raise ValueError(f"unknown entity {symbol!r}")

    def n_observations(self, symbol=None):
        if symbol is not None:
            return len(self.observations[symbol])
        return sum(len(rec) for rec in self.observations.values())


def parse_date(text, source=None, line=None):
    """Parse ISO-8601 (YYYY-MM-DD) or DD.MM.YYYY into datetime64[D]."""
    text = text.strip()
    if "." in text:
        parts = text.split(".")
        if len(parts) != 3:
            raise PanelLoadError(f"unparseable date {text!r}", source, line)
        day, month, year = parts
        text = f"{year}-{month.zfill(2)}-{day.zfill(2)}"
    try:
        return np.datetime64(text, "D")
    except ValueError:
        raise PanelLoadError(f"unparseable date {text!r}", source, line) from None


def _parse_float(cell, column, source, line):
    cell = cell.strip()
    if cell == "":
        return np.nan, True
    try:
        return float(cell), False
    except ValueError:
        raise PanelLoadError(
            f"unparseable numeric {cell!r} in column {column!r}", source, line
        ) from None


def _parse_bool(cell, column, source, line):
    text = cell.strip().lower()
    if text in ("1", "true", "yes"):
        return True
    if text in ("0", "false", "no"):
        return False
    raise PanelLoadError(f"unparseable boolean {cell!r} in column {column!r}", source, line)


def _check_header(header, expected, source):
    header = tuple(h.strip() for h in header)
    missing = [col for col in expected if col not in header]
    if missing:
        raise PanelLoadError(f"missing required column(s) {missing}", source)
    return {col: header.index(col) for col in expected}


def _open_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _validate_observation_row(values, missing, source, line):
    """Invariants on one OHLCV row at file line ``line``."""
    o, h, lo, c = (values[f] for f in ("open", "high", "low", "close"))
    present = {f: not missing[f] for f in ENTITY_FIELDS}
    for price_field in ("open", "high", "low", "close"):
        if present[price_field] and values[price_field] <= 0:
            raise PanelLoadError(
                f"nonpositive {price_field} {values[price_field]}", source, line
            )
    if present["volume"] and values["volume"] <= 0:
        raise PanelLoadError(f"nonpositive volume {values['volume']}", source, line)
    if present["mcap"] and values["mcap"] <= 0:
        raise PanelLoadError(f"nonpositive mcap {values['mcap']}", source, line)
    if present["attention"] and not (0.0 <= values["attention"] <= 100.0):
        raise PanelLoadError(
            f"attention {values['attention']} outside [0, 100]", source, line
        )
    if all(present[f] for f in ("open", "high", "low", "close")):
        if h < lo:
            raise PanelLoadError(f"high {h} < low {lo}", source, line)
        if lo > min(o, c):
            raise PanelLoadError(f"low {lo} above min(open, close) {min(o, c)}", source, line)
        if h < max(o, c):
            raise PanelLoadError(f"high {h} below max(open, close) {max(o, c)}", source, line)
    elif present["high"] and present["low"] and h < lo:
        raise PanelLoadError(f"high {h} < low {lo}", source, line)


def _check_dates_strictly_increasing(dates, source, lines):
    """``lines[j]`` is the file line that holds ``dates[j]``."""
    if len(dates) > 1:
        deltas = np.diff(dates)
        bad = np.flatnonzero(deltas <= np.timedelta64(0, "D"))
        if bad.size:
            raise PanelLoadError(
                "dates not strictly increasing", source, lines[bad[0] + 1]
            )


def read_entity_csv(path, symbol=None):
    """Read one entity file with schema ``date,open,high,low,close,volume,mcap,attention``."""
    source = os.fspath(path)
    rows = _open_rows(path)
    if not rows:
        raise PanelLoadError("empty file", source)
    index = _check_header(rows[0], ENTITY_HEADER, source)
    if symbol is None:
        symbol = os.path.splitext(os.path.basename(source))[0].upper()

    n = len(rows) - 1
    dates = np.empty(n, dtype="datetime64[D]")
    values = {f: np.full(n, np.nan) for f in ENTITY_FIELDS}
    missing = {f: np.zeros(n, dtype=bool) for f in ENTITY_FIELDS}
    for j, row in enumerate(rows[1:]):
        line = j + 2
        dates[j] = parse_date(row[index["date"]], source, line)
        row_values, row_missing = {}, {}
        for f in ENTITY_FIELDS:
            row_values[f], row_missing[f] = _parse_float(row[index[f]], f, source, line)
            values[f][j] = row_values[f]
            missing[f][j] = row_missing[f]
        _validate_observation_row(row_values, row_missing, source, line)
    _check_dates_strictly_increasing(dates, source, range(2, n + 2))
    return EntityRecords(symbol=symbol, dates=dates, values=values, missing=missing)


def read_market_csv(path):
    """Read the market file with schema ``date,index_level,shock_loss``."""
    source = os.fspath(path)
    rows = _open_rows(path)
    if not rows:
        raise PanelLoadError("empty file", source)
    index = _check_header(rows[0], MARKET_HEADER, source)
    n = len(rows) - 1
    dates = np.empty(n, dtype="datetime64[D]")
    values = {f: np.full(n, np.nan) for f in MARKET_FIELDS}
    missing = {f: np.zeros(n, dtype=bool) for f in MARKET_FIELDS}
    for j, row in enumerate(rows[1:]):
        line = j + 2
        dates[j] = parse_date(row[index["date"]], source, line)
        for f in MARKET_FIELDS:
            values[f][j], missing[f][j] = _parse_float(row[index[f]], f, source, line)
        if not missing["index_level"][j] and values["index_level"][j] <= 0:
            raise PanelLoadError(
                f"nonpositive index_level {values['index_level'][j]}", source, line
            )
        if not missing["shock_loss"][j] and values["shock_loss"][j] < 0:
            raise PanelLoadError(
                f"negative shock_loss {values['shock_loss'][j]}", source, line
            )
    _check_dates_strictly_increasing(dates, source, range(2, n + 2))
    return MarketSeries(dates=dates, values=values, missing=missing)


def read_meta_csv(path):
    """Read entity metadata: symbol, category, HyFi flag, listing date, gini components."""
    source = os.fspath(path)
    rows = _open_rows(path)
    if not rows:
        raise PanelLoadError("empty file", source)
    index = _check_header(rows[0], META_HEADER, source)
    metas = []
    seen = set()
    for i, row in enumerate(rows[1:], start=2):
        symbol = row[index["symbol"]].strip()
        if symbol in seen:
            raise PanelLoadError(f"duplicate symbol {symbol!r}", source, i)
        seen.add(symbol)
        components = []
        for dim in GINI_DIMENSIONS:
            value, is_missing = _parse_float(row[index[f"gini_{dim}"]], f"gini_{dim}", source, i)
            if is_missing:
                raise PanelLoadError(f"missing gini_{dim}", source, i)
            components.append(value)
        try:
            meta = EntityMeta(
                symbol=symbol,
                category=row[index["category"]].strip(),
                hyfi=_parse_bool(row[index["hyfi"]], "hyfi", source, i),
                listing_date=parse_date(row[index["listing_date"]], source, i),
                gini_components=tuple(components),
            )
        except ValueError as exc:
            raise PanelLoadError(str(exc), source, i) from None
        metas.append(meta)
    return metas


def load_panel(entity_files, market_file, meta_file):
    """Assemble and validate a PanelDataset from its three file groups.

    Entity files must cover exactly the symbols listed in the metadata file;
    each entity's first observed date may not precede its listing date.
    """
    metas = read_meta_csv(meta_file)
    by_symbol = {}
    for path in entity_files:
        rec = read_entity_csv(path)
        if rec.symbol in by_symbol:
            raise PanelLoadError(f"duplicate entity file for {rec.symbol}", os.fspath(path))
        by_symbol[rec.symbol] = rec
    known = {meta.symbol for meta in metas}
    extra = sorted(set(by_symbol) - known)
    if extra:
        raise PanelLoadError(f"entity files without metadata: {extra}")
    missing = sorted(known - set(by_symbol))
    if missing:
        raise PanelLoadError(f"metadata without entity files: {missing}")
    for meta in metas:
        rec = by_symbol[meta.symbol]
        if len(rec) and rec.dates[0] < meta.listing_date:
            raise PanelLoadError(
                f"{meta.symbol}: first observation {rec.dates[0]} precedes "
                f"listing date {meta.listing_date}"
            )
    market = read_market_csv(market_file)
    observations = {meta.symbol: by_symbol[meta.symbol] for meta in metas}
    return PanelDataset(entities=tuple(metas), observations=observations, market=market)


def _format_value(value, is_missing):
    return "" if is_missing else repr(float(value))


def write_panel_csv(panel, path_or_buffer):
    """Write the consolidated panel CSV (entity rows plus MARKET rows).

    Floats are written with ``repr`` so a reload reproduces them bit for bit.
    """
    own = isinstance(path_or_buffer, (str, os.PathLike))
    handle = open(path_or_buffer, "w", newline="") if own else path_or_buffer
    try:
        writer = csv.writer(handle)
        writer.writerow(PANEL_HEADER + META_HEADER[1:])
        for meta in panel.entities:
            rec = panel.observations[meta.symbol]
            meta_cells = [
                meta.category,
                "1" if meta.hyfi else "0",
                str(meta.listing_date),
            ] + [repr(c) for c in meta.gini_components]
            for i in range(len(rec)):
                cells = [meta.symbol, str(rec.dates[i])]
                cells += [
                    _format_value(rec.values[f][i], rec.missing[f][i]) for f in ENTITY_FIELDS
                ]
                cells += ["", ""]  # market columns
                writer.writerow(cells + meta_cells)
        market = panel.market
        for i in range(len(market)):
            cells = [MARKET_SYMBOL, str(market.dates[i])]
            cells += [""] * len(ENTITY_FIELDS)
            cells += [
                _format_value(market.values[f][i], market.missing[f][i])
                for f in MARKET_FIELDS
            ]
            writer.writerow(cells + [""] * len(META_HEADER[1:]))
    finally:
        if own:
            handle.close()


def load_panel_csv(path):
    """Load a consolidated panel CSV produced by :func:`write_panel_csv`."""
    source = os.fspath(path)
    rows = _open_rows(path)
    if not rows:
        raise PanelLoadError("empty file", source)
    expected = PANEL_HEADER + META_HEADER[1:]
    index = _check_header(rows[0], expected, source)

    entity_rows = {}
    meta_cells = {}
    market_rows = []
    order = []
    for i, row in enumerate(rows[1:], start=2):
        symbol = row[index["entity"]].strip()
        if symbol == MARKET_SYMBOL:
            market_rows.append((i, row))
            continue
        if symbol not in entity_rows:
            entity_rows[symbol] = []
            order.append(symbol)
            meta_cells[symbol] = (i, row)
        entity_rows[symbol].append((i, row))

    metas = []
    observations = {}
    for symbol in order:
        i, row = meta_cells[symbol]
        components = []
        for dim in GINI_DIMENSIONS:
            value, is_missing = _parse_float(row[index[f"gini_{dim}"]], f"gini_{dim}", source, i)
            if is_missing:
                raise PanelLoadError(f"missing gini_{dim} for {symbol}", source, i)
            components.append(value)
        try:
            meta = EntityMeta(
                symbol=symbol,
                category=row[index["category"]].strip(),
                hyfi=_parse_bool(row[index["hyfi"]], "hyfi", source, i),
                listing_date=parse_date(row[index["listing_date"]], source, i),
                gini_components=tuple(components),
            )
        except ValueError as exc:
            raise PanelLoadError(str(exc), source, i) from None
        metas.append(meta)

        picked = entity_rows[symbol]
        n = len(picked)
        dates = np.empty(n, dtype="datetime64[D]")
        values = {f: np.full(n, np.nan) for f in ENTITY_FIELDS}
        missing = {f: np.zeros(n, dtype=bool) for f in ENTITY_FIELDS}
        for j, (i, row) in enumerate(picked):
            dates[j] = parse_date(row[index["date"]], source, i)
            row_values, row_missing = {}, {}
            for f in ENTITY_FIELDS:
                row_values[f], row_missing[f] = _parse_float(row[index[f]], f, source, i)
                values[f][j] = row_values[f]
                missing[f][j] = row_missing[f]
            _validate_observation_row(row_values, row_missing, source, i)
        _check_dates_strictly_increasing(dates, source, [i for i, _ in picked])
        if len(dates) and dates[0] < meta.listing_date:
            raise PanelLoadError(
                f"{symbol}: first observation {dates[0]} precedes listing date "
                f"{meta.listing_date}",
                source,
            )
        observations[symbol] = EntityRecords(
            symbol=symbol, dates=dates, values=values, missing=missing
        )

    n = len(market_rows)
    dates = np.empty(n, dtype="datetime64[D]")
    values = {f: np.full(n, np.nan) for f in MARKET_FIELDS}
    missing = {f: np.zeros(n, dtype=bool) for f in MARKET_FIELDS}
    for j, (i, row) in enumerate(market_rows):
        dates[j] = parse_date(row[index["date"]], source, i)
        for f in MARKET_FIELDS:
            values[f][j], missing[f][j] = _parse_float(row[index[f]], f, source, i)
    _check_dates_strictly_increasing(dates, source, [i for i, _ in market_rows])
    market = MarketSeries(dates=dates, values=values, missing=missing)
    return PanelDataset(entities=tuple(metas), observations=observations, market=market)


def panel_to_csv_text(panel):
    buffer = io.StringIO()
    write_panel_csv(panel, buffer)
    return buffer.getvalue()


def subsample(panel, start, end):
    """Restrict the panel to observations with ``start <= date <= end``.

    Entities left with zero rows are dropped together with their metadata;
    the market series is restricted to the same window.
    """
    start = np.datetime64(start, "D")
    end = np.datetime64(end, "D")
    if start > end:
        raise ValueError(f"start {start} after end {end}")

    metas = []
    observations = {}
    for meta in panel.entities:
        rec = panel.observations[meta.symbol]
        keep = (rec.dates >= start) & (rec.dates <= end)
        if not keep.any():
            continue
        metas.append(meta)
        observations[meta.symbol] = EntityRecords(
            symbol=meta.symbol,
            dates=rec.dates[keep],
            values={f: v[keep] for f, v in rec.values.items()},
            missing={f: m[keep] for f, m in rec.missing.items()},
        )
    market = panel.market
    keep = (market.dates >= start) & (market.dates <= end)
    market = MarketSeries(
        dates=market.dates[keep],
        values={f: v[keep] for f, v in market.values.items()},
        missing={f: m[keep] for f, m in market.missing.items()},
    )
    return PanelDataset(entities=tuple(metas), observations=observations, market=market)


def series(panel, entity, field_name):
    """Return ``(dates, values, missing)`` for one entity field, in calendar order."""
    if entity == MARKET_SYMBOL:
        rec = panel.market
        valid = MARKET_FIELDS
    else:
        if entity not in panel.observations:
            raise ValueError(f"unknown entity {entity!r}")
        rec = panel.observations[entity]
        valid = ENTITY_FIELDS
    if field_name not in valid:
        raise ValueError(f"unknown field {field_name!r}; expected one of {valid}")
    return rec.dates, rec.values[field_name].copy(), rec.missing[field_name].copy()
