"""Loading and validation of the daily cryptocurrency panel.

The panel is ingested from flat CSV files (one per entity, plus a
market-wide file and a metadata file) or from a single consolidated CSV
with an ``entity`` column.  Missing values are empty cells; every field
carries an explicit boolean missing-mask downstream so that no estimator
has to reason about NaN propagation.  Every dated series is an
``EntityRecords``: an entity's holds ``ENTITY_FIELDS``, and the market's,
under the pseudo-symbol ``MARKET``, holds ``MARKET_FIELDS``.

This module owns the text form of every value.  A number is read by the
numeric cells' rule, in the settings files and flags too (``parse_number``),
a boolean by ``parse_bool``, and every dated row of the panel and metrics
files is written by ``value_cells`` and ``dated_rows``.

A file is read ``_BLOCK_ROWS`` rows at a time, and in every file an entity's
rows of a block are parsed a column at a time: each distinct date text is
parsed once per load, each numeric column is converted with ``float`` in one
pass, and every row rule is a mask over the columns.  The first row in file
order that any rule breaks fails, with the first rule it breaks: its date, then
each field's cell in schema order, then the value rules
(``_OBSERVATION_RULES``, ``_MARKET_RULES``).  A series keeps its first failure
until the end of the file, so that a row of the wrong width anywhere in it is
reported first.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import operator
import os
import re
from dataclasses import dataclass

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

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_DOTTED_DATE = re.compile(r"([0-9]{1,2})\.([0-9]{1,2})\.([0-9]{4})")

# Data rows parsed at a time.  A row's cells take about seven times its
# bytes as Python strings, so a loader holds only this many rows' cells.
_BLOCK_ROWS = 1024


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

    def column(self, name):
        """``(values, missing)`` of the field ``name``."""
        return self.values[name], self.missing[name]


@dataclass(frozen=True)
class PanelDataset:
    """Validated, immutable entity-by-calendar panel."""

    entities: tuple            # EntityMeta, ordered as loaded
    observations: dict         # symbol -> EntityRecords
    market: EntityRecords      # symbol MARKET, fields MARKET_FIELDS

    def n_observations(self, symbol=None):
        if symbol is not None:
            return len(self.observations[symbol])
        return sum(len(rec) for rec in self.observations.values())


def date_union(dates):
    """The distinct days of the ``datetime64[D]`` arrays in ``dates``, sorted:
    ``np.unique(np.concatenate(dates))`` without the concatenation.  Each
    array marks its days in one presence mask over the span they cover."""
    days = [d.astype("datetime64[D]", copy=False).view(np.int64) for d in dates if len(d)]
    if not days:
        return np.array([], "datetime64[D]")
    first = min(d.min() for d in days)
    present = np.zeros(max(d.max() for d in days) - first + 1, dtype=bool)
    for d in days:
        present[d - first] = True
    return np.datetime64(int(first), "D") + np.flatnonzero(present)


def parse_date(text, source=None, line=None):
    """Parse YYYY-MM-DD or D.M.YYYY (day and month of one or two digits) into
    datetime64[D]; surrounding blanks are ignored.  Any other text, such as
    ``2020``, ``2020-03``, ``NaT``, a time of day or ``today``, and any date
    that does not exist raise ``PanelLoadError``."""
    text = text.strip()
    dotted = _DOTTED_DATE.fullmatch(text)
    if dotted:
        day, month, year = dotted.groups()
        iso = f"{year}-{month.zfill(2)}-{day.zfill(2)}"
    elif _ISO_DATE.fullmatch(text):
        iso = text
    else:
        raise PanelLoadError(f"unparseable date {text!r}", source, line)
    try:
        return np.datetime64(iso, "D")
    except ValueError:
        raise PanelLoadError(f"unparseable date {text!r}", source, line) from None


def parse_bool(text):
    """The boolean ``text`` spells, 1/true/yes or 0/false/no in any case and
    with surrounding blanks ignored; None for any other text."""
    spelled = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    return spelled.get(text.strip().lower())


def _check_header(header, expected, source):
    header = tuple(h.strip() for h in header)
    missing = [col for col in expected if col not in header]
    if missing:
        raise PanelLoadError(f"missing required column(s) {missing}", source)
    return {col: header.index(col) for col in expected}


@contextlib.contextmanager
def _row_source(path, expected):
    """``(source, index, header, rows)`` of a CSV file: its path text, the
    index of the ``expected`` columns, the header's cells as written and an
    iterator of ``(line, row)`` over its data rows, ``line`` being the file
    line on which the row starts.

    A row with another width than the header raises as soon as it is read.
    Every loader reads on to the end of the file before it raises any other
    error, so the first such row is the file's first error.
    """
    source = os.fspath(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise PanelLoadError("empty file", source)
        index = _check_header(header, expected, source)

        def rows():
            line = reader.line_num + 1  # a record's first file line
            for row in reader:
                if len(row) != len(header):
                    raise PanelLoadError(
                        f"expected {len(header)} fields, got {len(row)}", source, line
                    )
                yield line, row
                line = reader.line_num + 1

        yield source, index, header, rows()


def _blocks(rows):
    """Lists of up to ``_BLOCK_ROWS`` consecutive items of ``rows``."""
    return iter(lambda: list(itertools.islice(rows, _BLOCK_ROWS)), [])


def _all_prices(v):
    return ~(np.isnan(v["open"]) | np.isnan(v["high"]) | np.isnan(v["low"])
             | np.isnan(v["close"]))


# Row rules after the date and cell checks, in the order they are checked:
# ``(test, message)``, where ``test`` maps the field columns (NaN at missing
# cells, which fails every comparison) to a mask of breaking rows, and
# ``message`` gives the error from one such row's ``{field: value}``.
_OBSERVATION_RULES = tuple(
    (lambda v, f=f: v[f] <= 0, lambda r, f=f: f"nonpositive {f} {r[f]}")
    for f in ("open", "high", "low", "close", "volume", "mcap")
) + (
    (lambda v: (v["attention"] < 0.0) | (v["attention"] > 100.0),
     lambda r: f"attention {r['attention']} outside [0, 100]"),
    (lambda v: v["high"] < v["low"], lambda r: f"high {r['high']} < low {r['low']}"),
    # these two hold only on rows where all four prices are present
    (lambda v: _all_prices(v) & (v["low"] > np.minimum(v["open"], v["close"])),
     lambda r: f"low {r['low']} above min(open, close) {min(r['open'], r['close'])}"),
    (lambda v: _all_prices(v) & (v["high"] < np.maximum(v["open"], v["close"])),
     lambda r: f"high {r['high']} below max(open, close) {max(r['open'], r['close'])}"),
)
_MARKET_RULES = (
    (lambda v: v["index_level"] <= 0,
     lambda r: f"nonpositive index_level {r['index_level']}"),
    (lambda v: v["shock_loss"] < 0, lambda r: f"negative shock_loss {r['shock_loss']}"),
)


def _parse_days(texts, days):
    """datetime64[D] of date ``texts``, NaT where a text does not parse.

    ``days`` maps date texts to days for a whole load, so each distinct text
    is parsed once.
    """
    for text in set(texts).difference(days):
        try:
            days[text] = parse_date(text)
        except PanelLoadError:
            days[text] = np.datetime64("NaT", "D")
    return np.array([days[text] for text in texts], dtype="datetime64[D]")


def _float_or_none(cell):
    """``float(cell)``, or None where ``cell`` is no number: ``float`` also
    reads ``1_000`` and non-ASCII digits, which no writer writes."""
    if "_" in cell or not cell.isascii():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def parse_number(text, integer=False):
    """The finite number ``text`` spells as a numeric cell, surrounding blanks
    ignored; with ``integer``, an ``int`` of an optional sign and ASCII digits.
    Any other text raises ``ValueError`` naming it."""
    text = text.strip()
    value = _float_or_none(text)
    if value is None or not math.isfinite(value) or (integer and not text.lstrip("+-").isdigit()):
        raise ValueError(f"{'integer' if integer else 'finite number'} expected, got {text!r}")
    return int(text) if integer else value


def _parse_floats(cells):
    """``(values, missing, unparseable)`` of stripped numeric cells.

    An empty cell is missing; missing and unparseable cells hold NaN.
    """
    joined = "".join(cells)
    try:
        if "_" in joined or not joined.isascii():
            raise ValueError  # spellings that float reads and no writer writes
        parsed = [float(c) if c else math.nan for c in cells]
        unparseable = np.zeros(len(cells), dtype=bool)
    except ValueError:
        parsed = [_float_or_none(c) if c else math.nan for c in cells]
        unparseable = np.array([value is None for value in parsed], dtype=bool)
        parsed = [math.nan if value is None else value for value in parsed]
    values = np.array(parsed, dtype=float)
    # an empty cell holds NaN, so only the NaN cells are tested for emptiness
    missing = np.isnan(values)
    missing[missing] = [not cells[i] for i in np.flatnonzero(missing)]
    return values, missing, unparseable


def _parse_dated_rows(block, index, fields, rules, days):
    """``(dates, values, missing, flagged, failure)`` from the ``date`` and
    ``fields`` cells of ``block``, a list of ``(line, row)``.

    Each check is a mask over the rows, in this order: the date parses; per
    field, the cell parses and is finite; then ``rules``.  ``flagged`` marks
    the rows that a check sets, and ``failure(i)`` is the message of the
    first check that row ``i`` fails.  ``days`` is the date-text cache of
    :func:`_parse_days`.
    """
    columns = {name: [row[index[name]] for _, row in block] for name in ("date",) + fields}
    date_texts = columns["date"]
    dates = _parse_days(date_texts, days)
    checks = [(np.isnat(dates), lambda i: f"unparseable date {date_texts[i].strip()!r}")]
    values, missing = {}, {}
    for f in fields:
        cells = list(map(str.strip, columns[f]))
        values[f], missing[f], unparseable = _parse_floats(cells)
        checks.append((unparseable, lambda i, f=f, cells=cells:
                       f"unparseable numeric {cells[i]!r} in column {f!r}"))
        checks.append((~(missing[f] | unparseable | np.isfinite(values[f])),
                       lambda i, f=f, cells=cells:
                       f"non-finite numeric {cells[i]!r} in column {f!r}"))
    for test, message in rules:
        checks.append((test(values), lambda i, message=message:
                       message({f: values[f][i].item() for f in fields})))
    hits = np.array([mask for mask, _ in checks], dtype=bool)
    return (dates, values, missing, hits.any(axis=0),
            lambda i: checks[int(hits[:, i].argmax())][1](i))


class _Series:
    """One dated series of a file, parsed a run of rows at a time.

    ``add`` parses the ``date`` and ``fields`` cells of a run into arrays and
    keeps them and the first row found so far that fails a check, as
    ``(line, message)``, but none of the run's cells.  ``finish`` raises that
    failure, then joins the runs and checks that the dates strictly increase.
    """

    def __init__(self, index, fields, rules, source, days):
        self.index = index
        self.fields = fields
        self.rules = rules
        self.source = source
        self.days = days  # the date-text cache of _parse_days
        self.parts = []
        self.failure = None

    def add(self, run):
        """Parse ``run``, a list of ``(line, row)`` in file order."""
        dates, values, missing, flagged, failure = _parse_dated_rows(
            run, self.index, self.fields, self.rules, self.days)
        lines = np.array([line for line, _ in run], dtype=np.int64)
        if self.failure is None and flagged.any():
            i = int(flagged.argmax())
            self.failure = int(lines[i]), failure(i)
        self.parts.append((lines, dates, values, missing))

    def finish(self, symbol):
        """The ``EntityRecords`` named ``symbol`` of every row added."""
        if self.failure:
            raise PanelLoadError(self.failure[1], self.source, self.failure[0])
        if not self.parts:
            self.add([])
        lines, dates, values, missing = zip(*self.parts)
        lines, dates = np.concatenate(lines), np.concatenate(dates)
        bad = np.flatnonzero(np.diff(dates) <= np.timedelta64(0, "D"))
        if bad.size:
            raise PanelLoadError("dates not strictly increasing", self.source,
                                 int(lines[bad[0] + 1]))
        return EntityRecords(symbol, dates,
                             {f: np.concatenate([v[f] for v in values]) for f in self.fields},
                             {f: np.concatenate([m[f] for m in missing]) for f in self.fields})


def _read_runs(rows, key, groups, new):
    """Add each block of the ``(line, row)`` items of ``rows`` to the series
    of ``groups`` by ``key(row)``, one run of the block's rows per key, in
    file order.  ``new(key, first)`` makes the series of a new key from its
    first item, so keys keep the order of their first row."""
    for block in _blocks(rows):
        runs = {}  # key -> its rows of this block, in file order
        for item in block:
            runs.setdefault(key(item[1]), []).append(item)
        for name, run in runs.items():
            series = groups.get(name)
            if series is None:
                series = groups[name] = new(name, run[0])
            series.add(run)
        # before the next block is read; the last run holds most of its cells
        del block, runs, run


def _read_records(path, symbol, header, fields, rules, days):
    """The ``EntityRecords`` named ``symbol`` of a per-file input."""
    with _row_source(path, header) as (source, index, _, rows):
        series = _Series(index, fields, rules, source, days)
        for block in _blocks(rows):
            series.add(block)
    return series.finish(symbol)


def _new_text(text):
    """An equal string that is a new object.

    Meta texts live as long as the panel.  Were one the cell object itself,
    it would keep resident the allocator arena it shares with thousands of
    the file's other cells, long after those are freed: about 1 MiB per
    entity of a consolidated file.
    """
    return text.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")


def _parse_meta_row(line, row, index, source):
    """EntityMeta from the ``META_HEADER`` cells of one row.  The symbol,
    which names entity files, is stripped; the category is kept as written."""
    symbol = _new_text(row[index["symbol"]].strip())
    if not symbol:
        raise PanelLoadError("empty symbol", source, line)
    columns = [f"gini_{dim}" for dim in GINI_DIMENSIONS]
    cells = [row[index[column]].strip() for column in columns]
    values, missing, unparseable = _parse_floats(cells)
    components = values.tolist()
    for column, cell, value, gone, bad in zip(columns, cells, components, missing, unparseable):
        if bad or not (gone or math.isfinite(value)):
            kind = "unparseable" if bad else "non-finite"
            raise PanelLoadError(f"{kind} numeric {cell!r} in column {column!r}", source, line)
        if gone:
            raise PanelLoadError(f"missing {column}", source, line)
    hyfi = parse_bool(row[index["hyfi"]])
    if hyfi is None:
        raise PanelLoadError(f"unparseable boolean {row[index['hyfi']]!r} in column 'hyfi'",
                             source, line)
    listing_date = parse_date(row[index["listing_date"]], source, line)
    try:
        return EntityMeta(
            symbol=symbol,
            category=_new_text(row[index["category"]]),
            hyfi=hyfi,
            listing_date=listing_date,
            gini_components=tuple(components),
        )
    except ValueError as exc:
        raise PanelLoadError(str(exc), source, line) from None


def _check_listing(meta, rec, source, line):
    """``line`` is the file line of the entity's first observation."""
    if len(rec) and rec.dates[0] < meta.listing_date:
        raise PanelLoadError(
            f"{meta.symbol}: first observation {rec.dates[0]} precedes "
            f"listing date {meta.listing_date}",
            source,
            line,
        )


def read_entity_csv(path):
    """Read one entity file with schema ``date,open,high,low,close,volume,mcap,attention``;
    the symbol is the file's base name in upper case."""
    return _read_entity_csv(path, {})


def _read_entity_csv(path, days):
    symbol = os.path.splitext(os.path.basename(os.fspath(path)))[0].upper()
    return _read_records(path, symbol, ENTITY_HEADER, ENTITY_FIELDS, _OBSERVATION_RULES, days)


def read_market_csv(path):
    """Read the market file with schema ``date,index_level,shock_loss``."""
    return _read_market_csv(path, {})


def _read_market_csv(path, days):
    return _read_records(path, MARKET_SYMBOL, MARKET_HEADER, MARKET_FIELDS, _MARKET_RULES, days)


def read_meta_csv(path):
    """Read entity metadata: symbol, category, HyFi flag, listing date, gini components."""
    metas = []
    seen = set()
    failure = None
    with _row_source(path, META_HEADER) as (source, index, _, rows):
        for line, row in rows:
            if failure:
                continue  # read on: a row of the wrong width comes first
            try:
                meta = _parse_meta_row(line, row, index, source)
                if meta.symbol in seen:
                    raise PanelLoadError(f"duplicate symbol {meta.symbol!r}", source, line)
            except PanelLoadError as err:
                failure = err
                continue
            seen.add(meta.symbol)
            metas.append(meta)
    if failure:
        raise failure
    return metas


def load_panel(entity_files, market_file, meta_file):
    """Assemble and validate a PanelDataset from its three file groups.

    Entity files must cover exactly the symbols listed in the metadata file;
    each entity's first observed date may not precede its listing date.
    """
    metas = read_meta_csv(meta_file)
    days = {}
    by_symbol = {}
    for path in entity_files:
        rec = _read_entity_csv(path, days)
        if rec.symbol in by_symbol:
            raise PanelLoadError(f"duplicate entity file for {rec.symbol}", os.fspath(path))
        by_symbol[rec.symbol] = (rec, os.fspath(path))
    known = {meta.symbol for meta in metas}
    extra = sorted(set(by_symbol) - known)
    if extra:
        raise PanelLoadError(f"entity files without metadata: {extra}")
    missing = sorted(known - set(by_symbol))
    if missing:
        raise PanelLoadError(f"metadata without entity files: {missing}")
    for meta in metas:
        rec, source = by_symbol[meta.symbol]
        _check_listing(meta, rec, source, 2)
    market = _read_market_csv(market_file, days)
    observations = {meta.symbol: by_symbol[meta.symbol][0] for meta in metas}
    return PanelDataset(entities=tuple(metas), observations=observations, market=market)


def csv_cell(text):
    """``text`` as ``csv.writer`` (QUOTE_MINIMAL, ``\r\n`` rows) writes a cell.

    The cell is quoted, with its quotes doubled, when it holds the
    delimiter, the quote character, ``\r`` or ``\n``.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_meta_cells(meta):
    """The ``META_HEADER`` cells after ``symbol``; floats reload bit for bit."""
    return [meta.category, "1" if meta.hyfi else "0", str(meta.listing_date)] + [
        repr(float(c)) for c in meta.gini_components
    ]


def value_cells(label, dates, names, columns):
    """The cells of each of ``names`` on ``dates``, a list per name.  A name
    of ``columns``, ``{name: (values, missing)}`` in file order, has the
    ``repr`` of each present value, which reloads bit for bit, and an empty
    cell where missing; any other name has only empty cells.

    The first present non-finite value in file order, by date and then by
    column, raises ``ValueError`` naming ``label``, the column and the date.
    """
    bad = np.array([~(m | np.isfinite(v)) for v, m in columns.values()],
                   dtype=bool).reshape(len(columns), len(dates))
    if bad.any():
        i, j = np.argwhere(bad.T)[0]
        name, (values, _) = list(columns.items())[j]
        raise ValueError(f"non-finite value {values[i]} for {label} {name} on {dates[i]}")
    cells = {name: list(map(repr, v.tolist())) for name, (v, _) in columns.items()}
    for name, (_, m) in columns.items():
        for i in np.flatnonzero(m).tolist():
            cells[name][i] = ""
    empty = [""] * len(dates)
    return [cells.get(name, empty) for name in names]


def dated_rows(head, dates, columns, tail, days):
    """The text of one entity's rows, one per day of ``dates``: ``head``, the
    day and the cells of ``columns``, joined by commas, then ``tail``, which
    ends the row.  ``days`` caches the day texts by day number."""
    numbers = dates.astype("datetime64[D]", copy=False).view(np.int64).tolist()
    for day in set(numbers).difference(days):
        days[day] = str(np.datetime64(day, "D"))
    rows = map(",".join, zip(map(days.__getitem__, numbers), *columns))
    return "".join([head + row + tail for row in rows])


def write_blocks(path, blocks):
    """Write the text blocks of ``blocks`` to ``path`` one at a time.

    When a block fails with ``ValueError`` the partial file is removed, so
    that no reader takes it for a complete one.
    """
    try:
        with open(path, "w", newline="") as handle:
            for block in blocks:
                handle.write(block)
    except ValueError:
        if os.path.exists(path):
            os.remove(path)
        raise


def write_panel_csv(panel, path):
    """Write the consolidated panel CSV (entity rows plus MARKET rows).

    Floats are written with ``repr`` so a reload reproduces them bit for bit,
    and a present non-finite value or an entity without rows, which would
    lose its meta cells, raises ``ValueError`` and leaves no file.  Each
    entity's rows, then the MARKET rows, are one block of text.
    """
    write_blocks(path, _panel_blocks(panel))


def _panel_blocks(panel):
    """The header, one text block per entity, then the MARKET block, whose
    rows leave the entity and meta columns empty."""
    end = "\r\n"
    days = {}
    yield ",".join(PANEL_HEADER + META_HEADER[1:]) + end
    blocks = [(meta.symbol, panel.observations[meta.symbol], ENTITY_FIELDS, format_meta_cells(meta))
              for meta in panel.entities]
    blocks.append((MARKET_SYMBOL, panel.market, MARKET_FIELDS, [""] * (len(META_HEADER) - 1)))
    for symbol, rec, fields, meta_cells in blocks:
        if not len(rec) and rec is not panel.market:
            raise ValueError(f"{symbol}: no rows to carry its meta cells in the panel file")
        cells = value_cells(symbol, rec.dates, ENTITY_FIELDS + MARKET_FIELDS,
                            {f: rec.column(f) for f in fields})
        tail = "".join("," + csv_cell(c) for c in meta_cells) + end
        yield dated_rows(csv_cell(symbol) + ",", rec.dates, cells, tail, days)


class _EntityGroup(_Series):
    """One entity's rows of a consolidated file.

    Its meta row is parsed from its first row, and each later row's meta
    cells must be the same texts; the first row that differs is kept until
    ``finish``, as is a meta row that does not parse.
    """

    def __init__(self, symbol, first, index, source, days):
        super().__init__(index, ENTITY_FIELDS, _OBSERVATION_RULES, source, days)
        self.symbol = symbol
        self.first_line, row = first
        self.meta_cells = operator.itemgetter(*(index[c] for c in META_HEADER[1:]))
        self.first_cells = self.meta_cells(row)
        try:
            self.meta = _parse_meta_row(self.first_line, row, index, source)
        except PanelLoadError as err:
            self.meta = err
        self.differs = None  # file line of the first row whose meta cells differ

    def add(self, run):
        if self.differs is None:
            cells = [self.meta_cells(row) for _, row in run]
            if cells.count(self.first_cells) != len(cells):
                self.differs = next(line for (line, _), row_cells in zip(run, cells)
                                    if row_cells != self.first_cells)
        super().add(run)

    def finish(self):
        """``(meta, records)``; raises the group's first error in the order
        meta row, meta cells, row checks, dates, listing date."""
        if isinstance(self.meta, PanelLoadError):
            raise self.meta
        if self.differs is not None:
            raise PanelLoadError(f"{self.symbol}: meta cells differ from line {self.first_line}",
                                 self.source, self.differs)
        rec = super().finish(self.meta.symbol)
        _check_listing(self.meta, rec, self.source, self.first_line)
        return self.meta, rec


def load_panel_csv(path):
    """Load a consolidated panel CSV produced by :func:`write_panel_csv`.

    Rows are grouped by ``entity`` and checked by the same row rules as the
    per-file inputs; every row of an entity must repeat the meta cells of
    its first row.  The entity groups are checked in order of their first
    row, then the MARKET rows.

    The file is read a block of rows at a time, and each entity's rows of
    a block are parsed together, so the cells of only one block are held at
    once.  Rows of different entities may interleave, at the cost of one
    parse per run: a file grouped by entity parses fastest.  Each group
    keeps its first error until the end of the file.
    """
    days = {}
    with _row_source(path, PANEL_HEADER + META_HEADER[1:]) as (source, index, _, rows):
        index["symbol"] = index["entity"]  # the meta row parser reads the symbol here
        market = _Series(index, MARKET_FIELDS, _MARKET_RULES, source, days)
        groups = {MARKET_SYMBOL: market}  # then entity -> _EntityGroup, in order of first row
        _read_runs(rows, lambda row: row[index["entity"]].strip(), groups,
                   lambda symbol, first: _EntityGroup(symbol, first, index, source, days))
    del groups[MARKET_SYMBOL]
    metas = []
    observations = {}
    while groups:  # each group's parsed blocks are freed once joined
        meta, rec = groups.pop(next(iter(groups))).finish()
        metas.append(meta)
        observations[meta.symbol] = rec
    return PanelDataset(entities=tuple(metas), observations=observations,
                        market=market.finish(MARKET_SYMBOL))


def read_dated_csv(path):
    """The ``EntityRecords`` of each entity of a CSV file of ``entity``,
    ``date`` and value columns (a metrics file), in order of first row.

    Value columns and entity cells are kept exactly as written.  The header
    is refused when it lacks ``entity`` or ``date``, repeats a cell, has a
    value column that strips to ``entity`` or ``date``, or is the long
    layout ``entity,date,metric,value``.  The rows follow the per-file rules
    with no value rules.  The file is read at the first ``next``, and each
    entity's blocks are joined as its records are taken.
    """
    days = {}
    groups = {}  # entity -> _Series, in order of first row
    with _row_source(path, ("entity", "date")) as (source, index, header, rows):
        keys = (index["entity"], index["date"])
        if len(set(header)) != len(header):
            repeated = next(cell for cell in header if header.count(cell) > 1)
            raise PanelLoadError(f"column {repeated!r} repeated", source)
        fields = tuple(cell for i, cell in enumerate(header) if i not in keys)
        for cell in fields:
            if cell.strip() in ("entity", "date"):
                raise PanelLoadError(f"value column {cell!r} names a key column", source)
        if fields == ("metric", "value"):
            raise PanelLoadError("long metrics layout entity,date,metric,value; write the"
                                 " file again with `metrics` or `simulate`", source)
        index.update((cell, i) for i, cell in enumerate(header) if i not in keys)
        _read_runs(rows, operator.itemgetter(keys[0]), groups,
                   lambda symbol, first: _Series(index, fields, (), source, days))
    for symbol in list(groups):
        yield groups.pop(symbol).finish(symbol)
