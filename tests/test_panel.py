"""Loader validation and round-trip fidelity of the panel store."""

import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelcrypt import panel as ps
from panelcrypt.metrics import compute_all_metrics
from panelcrypt.pipeline import write_meta_csv as write_metas
from panelcrypt.pipeline import write_metrics_csv
from panelcrypt.refdata import BENCHMARK_UNIVERSE, PANEL_END

from conftest import (
    CELL_TEXTS,
    FINITE_VALUES,
    PROPERTY_SETTINGS,
    build_panel_files,
    random_ohlcv,
    write_entity_csv,
    write_meta_csv,
)


def test_load_small_panel(small_panel_files):
    entity_files, market_file, meta_file = small_panel_files
    panel = ps.load_panel(entity_files, market_file, meta_file)
    metas = {meta.symbol: meta for meta in panel.entities}
    assert sorted(metas) == sorted(panel.observations) == ["AAA", "BBB", "CCC"]
    assert panel.n_observations("AAA") == 60
    assert panel.n_observations("CCC") == 49
    assert metas["AAA"].hyfi and not metas["BBB"].hyfi
    assert len(panel.market.dates) >= 60


def test_single_row_panel(tmp_path):
    rng = np.random.default_rng(1)
    files = build_panel_files(tmp_path, rng, [("ONE", False, "2021-06-01", 1)])
    panel = ps.load_panel(*files)
    assert panel.n_observations() == 1
    assert len(panel.observations["ONE"].dates) == 1


def test_high_below_low_names_row(tmp_path):
    rng = np.random.default_rng(2)
    dates, o, h, l, c, v, m, a = random_ohlcv(rng, 5, start="2021-01-01")
    h[3], l[3] = l[3], h[3] + 10.0          # force high < low on data row 4, file line 5
    path = write_entity_csv(tmp_path / "BAD.csv", dates, o, h, l, c, v, m, a)
    with pytest.raises(ps.PanelLoadError) as err:
        ps.read_entity_csv(path)
    assert f"[{path}:5]" in str(err.value)


def test_nonmonotone_dates_rejected(tmp_path):
    rng = np.random.default_rng(3)
    dates, o, h, l, c, v, m, a = random_ohlcv(rng, 5)
    dates = dates.copy()
    dates[3] = dates[1]
    path = write_entity_csv(tmp_path / "DUP.csv", dates, o, h, l, c, v, m, a)
    with pytest.raises(ps.PanelLoadError, match="strictly increasing") as err:
        ps.read_entity_csv(path)
    assert f"[{path}:5]" in str(err.value)


def test_negative_price_and_volume_rejected(tmp_path):
    rng = np.random.default_rng(4)
    dates, o, h, l, c, v, m, a = random_ohlcv(rng, 4)
    bad_volume = v.copy()
    bad_volume[2] = -5.0
    path = write_entity_csv(tmp_path / "VOL.csv", dates, o, h, l, c, bad_volume, m, a)
    with pytest.raises(ps.PanelLoadError, match="volume"):
        ps.read_entity_csv(path)


def test_unparseable_numeric_named(tmp_path):
    path = tmp_path / "JUNK.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ps.ENTITY_HEADER)
        writer.writerow(["2021-01-01", "1", "2", "0.5", "1.5", "10", "1e9", "oops"])
    with pytest.raises(ps.PanelLoadError, match="unparseable numeric"):
        ps.read_entity_csv(path)


def test_missing_column_rejected(tmp_path):
    path = tmp_path / "COLS.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "open", "high", "low", "close", "volume", "mcap"])
        writer.writerow(["2021-01-01", "1", "2", "0.5", "1.5", "10", "1e9"])
    with pytest.raises(ps.PanelLoadError, match="attention"):
        ps.read_entity_csv(path)


def test_listing_date_enforced(tmp_path):
    rng = np.random.default_rng(5)
    entity_files, market_file, _ = build_panel_files(
        tmp_path, rng, [("AAA", False, "2021-01-01", 10)]
    )
    meta_file = write_meta_csv(
        tmp_path / "meta2.csv",
        [("AAA", "test", False, "2021-01-05", (0.5, 0.5, 0.5, 0.5, 0.5))],
    )
    with pytest.raises(ps.PanelLoadError, match="listing"):
        ps.load_panel(entity_files, market_file, meta_file)


def test_gini_component_range_enforced(tmp_path):
    rng = np.random.default_rng(6)
    entity_files, market_file, _ = build_panel_files(
        tmp_path, rng, [("AAA", False, "2021-01-01", 10)]
    )
    meta_file = write_meta_csv(
        tmp_path / "meta3.csv",
        [("AAA", "test", False, "2021-01-01", (0.5, 0.5, 0.5, 0.5, 1.7))],
    )
    with pytest.raises(ps.PanelLoadError, match="gini"):
        ps.load_panel(entity_files, market_file, meta_file)


def test_dd_mm_yyyy_dates_normalized(tmp_path):
    path = tmp_path / "EURO.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ps.ENTITY_HEADER)
        writer.writerow(["01.01.2020", "1", "2", "0.5", "1.5", "10", "1e9", "50"])
        writer.writerow(["02.01.2020", "1", "2", "0.5", "1.5", "10", "1e9", "50"])
    rec = ps.read_entity_csv(path)
    assert str(rec.dates[0]) == "2020-01-01"
    assert str(rec.dates[1]) == "2020-01-02"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2020-01-05", "2020-01-05"),
        (" 2020-01-05 ", "2020-01-05"),
        ("5.1.2020", "2020-01-05"),
        ("05.01.2020", "2020-01-05"),
        ("29.2.2020", "2020-02-29"),
        ("2020", None),
        ("2020-03", None),
        ("NaT", None),
        ("2020-01-05T13:00", None),
        ("today", None),
        ("2020-1-5", None),
        ("20200105", None),
        ("2020-02-30", None),
        ("31.4.2021", None),
        ("1.1.20", None),
        ("005.01.2020", None),
        ("1.2.3.2020", None),
        ("", None),
    ],
)
def test_only_documented_date_formats_accepted(tmp_path, text, expected):
    if expected is not None:
        assert str(ps.parse_date(text)) == expected
    path = tmp_path / "DATE.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ps.ENTITY_HEADER)
        writer.writerow(["01.01.2020", "1", "2", "0.5", "1.5", "10", "1e9", "50"])
        writer.writerow([text, "1", "2", "0.5", "1.5", "10", "1e9", "50"])
    if expected is None:
        with pytest.raises(ps.PanelLoadError, match="unparseable date") as err:
            ps.read_entity_csv(path)
        assert err.value.line == 3
        assert f"[{path}:3]" in str(err.value)
    else:
        assert str(ps.read_entity_csv(path).dates[1]) == expected


def test_missing_cells_masked(tmp_path):
    rng = np.random.default_rng(7)
    dates, o, h, l, c, v, m, a = random_ohlcv(rng, 6)
    missing = {"attention": np.array([False, True, False, False, True, False]),
               "mcap": np.array([False, False, True, False, False, False])}
    path = write_entity_csv(tmp_path / "MISS.csv", dates, o, h, l, c, v, m, a,
                            missing=missing)
    rec = ps.read_entity_csv(path)
    assert rec.missing["attention"].tolist() == missing["attention"].tolist()
    assert rec.missing["mcap"].tolist() == missing["mcap"].tolist()
    assert np.isnan(rec.values["attention"][1])


def assert_market_record(market, dates):
    assert isinstance(market, ps.EntityRecords)
    assert market.symbol == ps.MARKET_SYMBOL
    assert tuple(market.values) == tuple(market.missing) == ps.MARKET_FIELDS
    assert np.array_equal(market.dates, dates)


def test_market_is_a_record_named_market_in_every_loader(tmp_path, small_panel_files):
    panel = ps.load_panel(*small_panel_files)
    assert_market_record(panel.market, panel.market.dates)
    ps.write_panel_csv(panel, tmp_path / "panel.csv")
    assert_market_record(ps.load_panel_csv(tmp_path / "panel.csv").market, panel.market.dates)


class TestDateUnion:
    def test_equals_unique_of_the_concatenation(self):
        rng = np.random.default_rng(5)
        day0 = np.datetime64("2020-01-01", "D")
        market = day0 - 31 + np.arange(120)  # warm-up before every entity
        series = [market]
        for start in (0, 3, 40):
            days = start + np.flatnonzero(rng.random(80) < 0.7)  # interior gaps
            series.append(day0 + days)
        series.append(day0 + np.array([200, 150], dtype=np.int64))  # beyond the market, unsorted
        series.append(day0 + np.arange(0))
        union = ps.date_union(series)
        assert union.dtype == np.dtype("datetime64[D]")
        assert np.array_equal(union, np.unique(np.concatenate(series)))

    @pytest.mark.parametrize("series", [[], [np.array([], "datetime64[D]")]])
    def test_empty_input_gives_an_empty_day_array(self, series):
        union = ps.date_union(series)
        assert union.dtype == np.dtype("datetime64[D]") and union.size == 0


def test_round_trip_bitwise(tmp_path, small_panel_files):
    entity_files, market_file, meta_file = small_panel_files
    panel = ps.load_panel(entity_files, market_file, meta_file)
    out = tmp_path / "consolidated.csv"
    ps.write_panel_csv(panel, out)
    reloaded = ps.load_panel_csv(out)

    assert reloaded.entities == panel.entities
    assert list(reloaded.observations) == list(panel.observations)
    for symbol in panel.observations:
        a, b = panel.observations[symbol], reloaded.observations[symbol]
        assert np.array_equal(a.dates, b.dates)
        for field_name in ps.ENTITY_FIELDS:
            assert np.array_equal(a.missing[field_name], b.missing[field_name])
            ok = ~a.missing[field_name]
            # bitwise equality of the float payloads
            assert np.array_equal(a.values[field_name][ok], b.values[field_name][ok])
    assert np.array_equal(panel.market.dates, reloaded.market.dates)
    for field_name in ps.MARKET_FIELDS:
        ok = ~panel.market.missing[field_name]
        assert np.array_equal(panel.market.values[field_name][ok],
                              reloaded.market.values[field_name][ok])

    # a second write of the reloaded panel is byte-identical
    out2 = tmp_path / "consolidated2.csv"
    ps.write_panel_csv(reloaded, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_benchmark_shaped_observation_counts(tmp_path):
    """Date ranges of the benchmark universe reproduce the published counts."""
    rng = np.random.default_rng(9)
    expected = {
        "BTC": 1790, "ETH": 1790, "SOL": 1689, "XRP": 1790, "ADA": 1790,
        "BNB": 1790, "CRO": 1790, "OKB": 1790, "XLM": 1790, "UNI": 1529,
        "RUNE": 1790, "RAY": 1372, "GNO": 1790, "SNX": 1790, "AVAX": 1524,
        "LINK": 1790, "FTM": 1790, "DOT": 1557,
    }
    end = np.datetime64(PANEL_END, "D")
    specs = []
    for symbol, _category, hyfi, listing, _components in BENCHMARK_UNIVERSE:
        n_days = int((end - np.datetime64(listing, "D")).astype(int)) + 1
        specs.append((symbol, hyfi, listing, n_days))
    files = build_panel_files(tmp_path, rng, specs)
    panel = ps.load_panel(*files)
    assert len(panel.entities) == 18
    counts = {meta.symbol: panel.n_observations(meta.symbol) for meta in panel.entities}
    assert counts == expected
    assert max(counts.values()) == 1790
    assert panel.n_observations() == 30941
    ray = panel.observations["RAY"]
    assert len(ray.values["close"]) == 1372
    assert str(ray.dates[0]) == "2021-02-22"
    assert len(panel.observations["BTC"].values["close"]) == 1790


def rewrite_cell(path, line, column, text):
    """Set the cell at file ``line`` under header ``column`` to ``text``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[line - 1][rows[0].index(column)] = text
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def line_of(path, entity, date=None):
    """File line of ``entity``'s row on ``date``, or of its first row."""
    with open(path, newline="") as handle:
        for line, row in enumerate(csv.reader(handle), start=1):
            if row[0] == entity and date in (None, row[1]):
                return line
    raise AssertionError(f"no row for {entity} {date}")


def message(err):
    """``PanelLoadError`` text without its ``[path:line]`` suffix."""
    return str(err).removesuffix(f" [{err.source}:{err.line}]")


@pytest.fixture
def consolidated(tmp_path, small_panel_files):
    path = tmp_path / "consolidated.csv"
    ps.write_panel_csv(ps.load_panel(*small_panel_files), path)
    return path


@pytest.mark.parametrize(
    "column, text, expected",
    [("shock_loss", "-5", "negative shock_loss -5.0"),
     ("index_level", "0", "nonpositive index_level 0.0")],
)
def test_consolidated_market_rows_checked(consolidated, column, text, expected):
    line = line_of(consolidated, ps.MARKET_SYMBOL) + 3
    rewrite_cell(consolidated, line, column, text)
    with pytest.raises(ps.PanelLoadError) as err:
        ps.load_panel_csv(consolidated)
    assert message(err.value) == expected
    assert f"[{consolidated}:{line}]" in str(err.value)


@pytest.mark.parametrize("column, text", [("hyfi", "0"), ("gini_code", "0.25"),
                                          ("listing_date", "2019-12-31")])
def test_consolidated_meta_cells_must_agree(consolidated, column, text):
    first = line_of(consolidated, "AAA")
    rewrite_cell(consolidated, first + 7, column, text)
    with pytest.raises(ps.PanelLoadError) as err:
        ps.load_panel_csv(consolidated)
    assert message(err.value) == f"AAA: meta cells differ from line {first}"
    assert f"[{consolidated}:{first + 7}]" in str(err.value)


def test_consolidated_listing_date_names_first_row(consolidated):
    first = line_of(consolidated, "CCC")
    with open(consolidated, newline="") as handle:
        n_rows = sum(1 for row in csv.reader(handle) if row[0] == "CCC")
    for line in range(first, first + n_rows):
        rewrite_cell(consolidated, line, "listing_date", "2020-01-13")
    with pytest.raises(ps.PanelLoadError, match="precedes listing date") as err:
        ps.load_panel_csv(consolidated)
    assert (err.value.source, err.value.line) == (str(consolidated), first)



@pytest.mark.parametrize("row", [[], ["2020-01-01", "1"], ["2020-01-01"] + ["1"] * 20])
def test_row_width_must_match_header(consolidated, small_panel_files, row):
    entity_file = small_panel_files[0][0]
    for path, load in [(entity_file, ps.read_entity_csv), (consolidated, ps.load_panel_csv)]:
        with open(path, "a", newline="") as handle:
            csv.writer(handle).writerow(row)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        with pytest.raises(ps.PanelLoadError) as err:
            load(path)
        assert message(err.value) == f"expected {len(rows[0])} fields, got {len(row)}"
        assert (err.value.source, err.value.line) == (str(path), len(rows))

def test_meta_row_error_located_once(tmp_path):
    path = write_meta_csv(tmp_path / "meta.csv",
                          [("AAA", "test", False, "2021-01-01", (0.5,) * 5)])
    rewrite_cell(path, 2, "hyfi", "maybe")
    with pytest.raises(ps.PanelLoadError) as err:
        ps.read_meta_csv(path)
    assert str(err.value) == f"unparseable boolean 'maybe' in column 'hyfi' [{path}:2]"


def test_numpy_float_components_round_trip(tmp_path, small_panel_files):
    panel = ps.load_panel(*small_panel_files)
    metas = tuple(
        ps.EntityMeta(meta.symbol, meta.category, meta.hyfi, meta.listing_date,
                      tuple(np.float64(c) for c in meta.gini_components))
        for meta in panel.entities
    )
    panel = ps.PanelDataset(metas, panel.observations, panel.market)
    ps.write_panel_csv(panel, tmp_path / "panel.csv")
    assert ps.load_panel_csv(tmp_path / "panel.csv").entities == metas
    write_metas(metas, tmp_path / "meta.csv")
    assert tuple(ps.read_meta_csv(tmp_path / "meta.csv")) == metas


# Panel-row properties.  A generated panel is a set of per-file inputs whose
# rows respect every loader rule; empty cells stand for missing values.
SYMBOLS = ("AAA", "BBB", "CCC", "DDD")
PRICES = st.floats(1e-3, 1e6)
STEPS = st.floats(0.0, 1e3)
DAY0 = np.datetime64("2020-01-01", "D")


@st.composite
def cell(draw, values):
    return "" if draw(st.booleans()) else repr(draw(values))


@st.composite
def days(draw, first=0):
    return [str(DAY0 + d) for d in sorted(draw(st.sets(st.integers(first, first + 30),
                                                        min_size=1, max_size=5)))]


@st.composite
def entity_rows(draw, first):
    rows = []
    for date in draw(days(first)):
        low = draw(PRICES)
        open_, close = low + draw(STEPS), low + draw(STEPS)
        prices = [open_, max(open_, close) + draw(STEPS), low, close]
        row = [date] + [draw(cell(st.just(p))) for p in prices]
        row += [draw(cell(PRICES)), draw(cell(PRICES)), draw(cell(st.floats(0.0, 100.0)))]
        rows.append(row)
    return rows


@st.composite
def raw_panels(draw):
    """``(meta rows, {symbol: entity rows}, market rows)`` as text cells."""
    metas, entities = [], {}
    for symbol in draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)):
        listing = draw(st.integers(0, 10))
        gini = draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
        metas.append([symbol, "test", "1" if draw(st.booleans()) else "0",
                      str(DAY0 + listing)] + [repr(g) for g in gini])
        entities[symbol] = draw(entity_rows(listing + draw(st.integers(0, 3))))
    market = [[date, draw(cell(PRICES)), draw(cell(st.floats(0.0, 1e9)))]
              for date in draw(days())]
    return metas, entities, market


def write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header] + rows)
    return str(path)


def write_raw(folder, raw):
    """Write the per-file inputs; return ``load_panel``'s arguments."""
    metas, entities, market = raw
    (folder / "entities").mkdir()
    entity_files = [write_rows(folder / "entities" / f"{symbol}.csv", ps.ENTITY_HEADER, rows)
                    for symbol, rows in entities.items()]
    return (entity_files, write_rows(folder / "market.csv", ps.MARKET_HEADER, market),
            write_rows(folder / "meta.csv", ps.META_HEADER, metas))


def same_records(a, b):
    assert a.dates.dtype == b.dates.dtype and a.dates.tobytes() == b.dates.tobytes()
    assert list(a.values) == list(b.values)
    for name in a.values:
        assert a.values[name].tobytes() == b.values[name].tobytes()
        assert a.missing[name].tobytes() == b.missing[name].tobytes()


def cells_of(rec, fields):
    """The loaded records written back as the generator's text cells."""
    return [[str(rec.dates[i])] + ["" if rec.missing[f][i] else repr(float(rec.values[f][i]))
                                   for f in fields] for i in range(len(rec))]


CORRUPTIONS = {
    "price": (("open", "high", "low", "close"),
              ("-1.0", "0", "x", "nan", "inf", "\uff11\uff12")),
    "volume": (("volume",), ("0", "-2.5", "1e", "nan", "-inf", "1_000")),
    "nonfinite": (("mcap", "attention"), ("nan", "inf", "-inf")),
    "market": (("index_level", "shock_loss"), ("-5", "abc", "NaN", "inf", "1_0")),
    "gini": ([f"gini_{dim}" for dim in ps.GINI_DIMENSIONS],
             ("1.5", "-0.1", "", "x", "nan", "0_1")),
    "symbol": (("symbol",), ("", " ")),
}
BAD_DATES = ("2020-02-30", "1.1.20", "today", "")
# cell texts that break the OHLC order when the row's other prices are present
OHLC_BREAKS = {"open": "1e12", "high": "1e-9", "low": "1e12", "close": "1e-9"}


def reference_row_error(row, index, fields):
    """The first rule one row breaks, checked as a plain per-row loop, or None."""
    text = row[index["date"]].strip()
    try:
        ps.parse_date(text)
    except ps.PanelLoadError:
        return f"unparseable date {text!r}"
    v = {}
    for f in fields:
        cell = row[index[f]].strip()
        if cell:
            # float also reads "1_000" and non-ASCII digits, which no writer writes
            if "_" in cell or not cell.isascii():
                return f"unparseable numeric {cell!r} in column {f!r}"
            try:
                v[f] = float(cell)
            except ValueError:
                return f"unparseable numeric {cell!r} in column {f!r}"
            if not math.isfinite(v[f]):
                return f"non-finite numeric {cell!r} in column {f!r}"
    if fields == ps.MARKET_FIELDS:
        if "index_level" in v and v["index_level"] <= 0:
            return f"nonpositive index_level {v['index_level']}"
        if "shock_loss" in v and v["shock_loss"] < 0:
            return f"negative shock_loss {v['shock_loss']}"
        return None
    for f in ("open", "high", "low", "close", "volume", "mcap"):
        if f in v and v[f] <= 0:
            return f"nonpositive {f} {v[f]}"
    if "attention" in v and not 0.0 <= v["attention"] <= 100.0:
        return f"attention {v['attention']} outside [0, 100]"
    if "high" in v and "low" in v and v["high"] < v["low"]:
        return f"high {v['high']} < low {v['low']}"
    if all(f in v for f in ("open", "high", "low", "close")):
        o, h, lo, c = v["open"], v["high"], v["low"], v["close"]
        if lo > min(o, c):
            return f"low {lo} above min(open, close) {min(o, c)}"
        if h < max(o, c):
            return f"high {h} below max(open, close) {max(o, c)}"
    return None


def reference_rows_error(numbered_rows, index, fields):
    """``(message, line)`` of the first bad row, then of the first date that
    does not increase, or None."""
    dates = []
    for line, row in numbered_rows:
        error = reference_row_error(row, index, fields)
        if error:
            return error, line
        dates.append((ps.parse_date(row[index["date"]]), line))
    for (before, _), (after, line) in zip(dates, dates[1:]):
        if after <= before:
            return "dates not strictly increasing", line
    return None


def numbered_file(path):
    """``(line, row)`` pairs of a CSV file's data rows and its header index."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return list(enumerate(rows[1:], start=2)), {name: k for k, name in enumerate(rows[0])}


def reference_per_file_error(entity_files, market_file, meta_file):
    """``(message, source, line)`` that ``load_panel`` raises, or None.

    The meta file keeps its own row parser.  No corruption moves an entity's
    first date, so the listing check never fires.
    """
    try:
        ps.read_meta_csv(meta_file)
    except ps.PanelLoadError as err:
        return message(err), err.source, err.line
    for path, fields in [(p, ps.ENTITY_FIELDS) for p in entity_files] + [
            (market_file, ps.MARKET_FIELDS)]:
        error = reference_rows_error(*numbered_file(path), fields)
        if error:
            return error[0], path, error[1]
    return None


def reference_consolidated_error(path):
    """``(message, source, line)`` that ``load_panel_csv`` raises, or None:
    entity groups in order of first appearance, then the MARKET rows."""
    source = str(path)
    numbered, index = numbered_file(path)
    index["symbol"] = index["entity"]
    groups = {}
    for line, row in numbered:
        groups.setdefault(row[index["entity"]].strip(), []).append((line, row))
    market = groups.pop(ps.MARKET_SYMBOL, [])
    meta_columns = [index[c] for c in ps.META_HEADER[1:]]
    for symbol, rows in groups.items():
        first_line, first_row = rows[0]
        try:
            ps._parse_meta_row(first_line, first_row, index, source)
        except ps.PanelLoadError as err:
            return message(err), err.source, err.line
        for line, row in rows:
            if [row[k] for k in meta_columns] != [first_row[k] for k in meta_columns]:
                return f"{symbol}: meta cells differ from line {first_line}", source, line
        error = reference_rows_error(rows, index, ps.ENTITY_FIELDS)
        if error:
            return error[0], source, error[1]
    error = reference_rows_error(market, index, ps.MARKET_FIELDS)
    return error and (error[0], source, error[1])


def interleave(data, path):
    """Reorder the data rows of a consolidated file, keeping the order of
    each entity's rows."""
    with open(path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    queues = {}
    for row in rows:
        queues.setdefault(row[0], []).append(row)
    merged = []
    while queues:
        entity = data.draw(st.sampled_from(sorted(queues)))
        merged.append(queues[entity].pop(0))
        if not queues[entity]:
            del queues[entity]
    write_rows(path, header, merged)


def draw_corruption(data, raw):
    """``(meta, (symbol, j), column, text)`` of one bad cell: a meta cell of
    ``symbol`` (whose first consolidated row is row 0), or a cell of its row
    ``j``, the symbol being MARKET for market rows."""
    metas, entities, market = raw
    kind = data.draw(st.sampled_from(["ohlc", "date", "price", "volume", "nonfinite", "market",
                                      "gini", "symbol"]))
    if kind in ("gini", "symbol"):
        symbol, j, rows = metas[data.draw(st.integers(0, len(metas) - 1))][0], 0, None
    else:
        if kind == "market" or (kind == "date" and data.draw(st.booleans())):
            symbol, rows = ps.MARKET_SYMBOL, market
        else:
            symbol = metas[data.draw(st.integers(0, len(metas) - 1))][0]
            rows = entities[symbol]
        j = data.draw(st.integers(0, len(rows) - 1))
    if kind == "date":
        column = "date"
        # an unparseable text, or the date of the row before
        text = data.draw(st.sampled_from(BAD_DATES + ((rows[j - 1][0],) if j else ())))
    elif kind == "ohlc":
        column = data.draw(st.sampled_from(sorted(OHLC_BREAKS)))
        text = OHLC_BREAKS[column]
    else:
        columns, texts = CORRUPTIONS[kind]
        column, text = data.draw(st.sampled_from(columns)), data.draw(st.sampled_from(texts))
    return rows is None, (symbol, j), column, text


class TestPanelRowProperties:
    @PROPERTY_SETTINGS
    @given(raw=raw_panels())
    def test_round_trip_bit_for_bit(self, tmp_path_factory, raw):
        folder = tmp_path_factory.mktemp("panel")
        panel = ps.load_panel(*write_raw(folder, raw))
        metas, entities, market = raw
        assert [[m.symbol] + ps.format_meta_cells(m) for m in panel.entities] == metas
        for symbol, rows in entities.items():
            assert cells_of(panel.observations[symbol], ps.ENTITY_FIELDS) == rows
        assert cells_of(panel.market, ps.MARKET_FIELDS) == market

        ps.write_panel_csv(panel, folder / "panel.csv")
        again = ps.load_panel_csv(folder / "panel.csv")
        assert again.entities == panel.entities
        assert list(again.observations) == list(panel.observations)
        for symbol, rec in panel.observations.items():
            same_records(rec, again.observations[symbol])
        same_records(panel.market, again.market)

    @PROPERTY_SETTINGS
    @given(raw=raw_panels(), kind=st.sampled_from(sorted(CORRUPTIONS)), data=st.data())
    def test_one_bad_cell_same_error_from_both_forms(self, tmp_path_factory, raw, kind, data):
        folder = tmp_path_factory.mktemp("panel")
        files = write_raw(folder, raw)
        consolidated = folder / "panel.csv"
        ps.write_panel_csv(ps.load_panel(*files), consolidated)
        metas, entities, market = raw
        columns, texts = CORRUPTIONS[kind]
        column, text = data.draw(st.sampled_from(columns)), data.draw(st.sampled_from(texts))
        if kind in ("gini", "symbol"):
            k = data.draw(st.integers(0, len(metas) - 1))
            path, line = files[2], k + 2
            panel_line = line_of(consolidated, metas[k][0])
        elif kind == "market":
            j = data.draw(st.integers(0, len(market) - 1))
            path, line = files[1], j + 2
            panel_line = line_of(consolidated, ps.MARKET_SYMBOL, market[j][0])
        else:
            k = data.draw(st.integers(0, len(metas) - 1))
            rows = entities[metas[k][0]]
            j = data.draw(st.integers(0, len(rows) - 1))
            path, line = files[0][k], j + 2
            panel_line = line_of(consolidated, metas[k][0], rows[j][0])
        rewrite_cell(path, line, column, text)
        # the consolidated file carries the symbol in its entity column
        rewrite_cell(consolidated, panel_line, "entity" if kind == "symbol" else column, text)

        with pytest.raises(ps.PanelLoadError) as per_file:
            ps.load_panel(*files)
        with pytest.raises(ps.PanelLoadError) as one_file:
            ps.load_panel_csv(consolidated)
        assert message(per_file.value) == message(one_file.value)
        assert (per_file.value.source, per_file.value.line) == (path, line)
        assert (one_file.value.source, one_file.value.line) == (str(consolidated), panel_line)

    @PROPERTY_SETTINGS
    @given(raw=raw_panels(), data=st.data())
    def test_bad_cells_error_as_a_row_loop(self, tmp_path_factory, raw, data):
        # 1-3 bad cells in different columns, in one row or in several: each
        # form raises the first error a plain per-row loop meets, with the
        # same text and line.  The consolidated rows of different entities
        # may interleave.
        folder = tmp_path_factory.mktemp("panel")
        files = write_raw(folder, raw)
        consolidated = folder / "panel.csv"
        ps.write_panel_csv(ps.load_panel(*files), consolidated)
        if data.draw(st.booleans()):
            interleave(data, consolidated)
        metas, entities, market = raw
        symbols = [meta[0] for meta in metas]
        edits, columns = [], set()
        for _ in range(data.draw(st.integers(1, 3))):
            meta, (symbol, j), column, text = draw_corruption(data, raw)
            if column in columns:
                continue
            columns.add(column)
            if meta:
                k = symbols.index(symbol)
                edits.append((files[2], k + 2, column, text))
                panel_line = line_of(consolidated, symbol)
                column = "entity" if column == "symbol" else column
            elif symbol == ps.MARKET_SYMBOL:
                edits.append((files[1], j + 2, column, text))
                panel_line = line_of(consolidated, symbol, market[j][0])
            else:
                edits.append((files[0][symbols.index(symbol)], j + 2, column, text))
                panel_line = line_of(consolidated, symbol, entities[symbol][j][0])
            edits.append((consolidated, panel_line, column, text))
        for edit in edits:
            rewrite_cell(*edit)

        loaded = []
        for load, args, expected in [
            (ps.load_panel, files, reference_per_file_error(*files)),
            (ps.load_panel_csv, (consolidated,), reference_consolidated_error(consolidated)),
        ]:
            if expected is None:
                loaded.append(load(*args))
                continue
            with pytest.raises(ps.PanelLoadError) as err:
                load(*args)
            assert (message(err.value), err.value.source, err.value.line) == expected
        if len(loaded) == 2:
            per_file, one_file = loaded
            assert one_file.entities == per_file.entities
            for symbol, rec in per_file.observations.items():
                same_records(rec, one_file.observations[symbol])
            same_records(per_file.market, one_file.market)


# one row's cells, and a bad text for each; every nonempty subset of the
# bad texts goes into one row
ROW_DEFECTS = [
    (ps.read_entity_csv, ps.ENTITY_HEADER, ps.ENTITY_FIELDS,
     ["2020-01-02", "2", "3", "1", "2.5", "10", "1e9", "50"],
     {"date": "2020-02-30", "open": "x", "high": "1e-9", "volume": "inf", "mcap": "-1",
      "attention": "200"}),
    (ps.read_market_csv, ps.MARKET_HEADER, ps.MARKET_FIELDS, ["2020-01-02", "100", "5"],
     {"date": "today", "index_level": "0", "shock_loss": "-5"}),
]


@pytest.mark.parametrize("read, header, fields, row, defects", ROW_DEFECTS,
                         ids=["entity", "market"])
def test_several_bad_cells_in_one_row_error_as_a_row_loop(tmp_path, read, header, fields,
                                                         row, defects):
    index = {name: k for k, name in enumerate(header)}
    for n in range(1, len(defects) + 1):
        for names in itertools.combinations(defects, n):
            bad = list(row)
            for name in names:
                bad[index[name]] = defects[name]
            path = write_rows(tmp_path / "rows.csv", header, [["2020-01-01"] + row[1:], bad])
            with pytest.raises(ps.PanelLoadError) as err:
                read(path)
            expected = reference_row_error(bad, index, fields)
            assert (message(err.value), err.value.line) == (expected, 3), names


def test_each_date_text_parsed_once_per_load(monkeypatch, consolidated):
    calls = []
    parse_date = ps.parse_date

    def counted(text, *args):
        calls.append(text)
        return parse_date(text, *args)

    monkeypatch.setattr(ps, "parse_date", counted)
    panel = ps.load_panel_csv(consolidated)
    with open(consolidated, newline="") as handle:
        texts = {row[1] for row in list(csv.reader(handle))[1:]}
    # one parse per distinct observation date, plus each entity's listing date
    assert len(calls) == len(texts) + len(panel.entities)


def test_consolidated_load_holds_less_than_the_file(tmp_path):
    # a row's cells take several times its bytes as Python strings
    specs = [(f"E{i:02d}", i % 3 == 0, "2020-01-01", 2000) for i in range(20)]
    files = build_panel_files(tmp_path, np.random.default_rng(19), specs)
    path = tmp_path / "panel.csv"
    ps.write_panel_csv(ps.load_panel(*files), path)
    tracemalloc.start()
    try:
        panel = ps.load_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.n_observations() == 40_000
    assert peak < path.stat().st_size


def read_body(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture
def metrics_file(tmp_path, consolidated):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(compute_all_metrics(ps.load_panel_csv(consolidated)), path)
    return path


def load_series(form, path):
    """``(metas, {symbol: records})`` of a consolidated or a metrics file."""
    if form == "consolidated":
        panel = ps.load_panel_csv(path)
        return panel.entities, {**panel.observations, ps.MARKET_SYMBOL: panel.market}
    return (), {rec.symbol: rec for rec in ps.read_dated_csv(path)}


# each file form under each block size; a consolidated run is named by its block
FORM_BLOCKS = pytest.mark.parametrize(
    "form, block", [(form, block) for form in ("consolidated", "metrics_file")
                    for block in (1, 7, None)],
    ids=["1", "7", "None", "metrics-1", "metrics-7", "metrics-None"])


@FORM_BLOCKS
def test_interleaved_file_loads_as_the_contiguous_one(tmp_path, request, monkeypatch,
                                                      form, block):
    # block 1 also reads consolidated blocks of MARKET rows only
    if block:
        monkeypatch.setattr(ps, "_BLOCK_ROWS", block)
    file = request.getfixturevalue(form)
    header, *rows = read_body(file)
    # a stable sort on the date keeps the order of each entity's rows
    path = write_rows(tmp_path / "by_date.csv", header, sorted(rows, key=lambda row: row[1]))
    (metas, contiguous), (interleaved_metas, interleaved) = (load_series(form, file),
                                                             load_series(form, path))
    assert interleaved_metas == metas
    assert interleaved.keys() == contiguous.keys()
    for symbol, rec in contiguous.items():
        same_records(rec, interleaved[symbol])


@FORM_BLOCKS
def test_first_entity_error_raised_though_a_later_run_fails_first(tmp_path, request,
                                                                  monkeypatch, form, block):
    # AAA's rows come in two runs around BBB's; BBB's run and AAA's second run
    # each hold a bad cell, and AAA's error is raised, being AAA's group first
    if block:
        monkeypatch.setattr(ps, "_BLOCK_ROWS", block)
    header, *rows = read_body(request.getfixturevalue(form))
    aaa = [row for row in rows if row[0] == "AAA"]
    bbb = [row for row in rows if row[0] == "BBB"]
    rest = [row for row in rows if row[0] not in ("AAA", "BBB")]
    later, column = ("volume", "high") if form == "consolidated" else ("size", "price_risk")
    bbb[3][header.index(later)] = "-1" if form == "consolidated" else "nan"
    aaa[40][header.index(column)] = "x"
    path = write_rows(tmp_path / "runs.csv", header, aaa[:30] + bbb + aaa[30:] + rest)
    with pytest.raises(ps.PanelLoadError) as err:
        load_series(form, path)
    assert message(err.value) == f"unparseable numeric 'x' in column {column!r}"
    assert err.value.line == 2 + len(bbb) + 40
    # a row of the wrong width anywhere in the file is still the first error
    with open(path, "a", newline="") as handle:
        csv.writer(handle).writerow(["AAA"])
    with pytest.raises(ps.PanelLoadError) as err:
        load_series(form, path)
    assert (message(err.value), err.value.line) == (f"expected {len(header)} fields, got 1",
                                                     len(rows) + 2)


# five gini cells, and the error of a row that holds them: the first column
# in GINI_DIMENSIONS order that fails
GINI_DEFECTS = [
    (["0.5", "", "x", "0.5", "0.5"], "missing gini_wealth"),
    (["0.5", " nan ", "", "0.5", "0.5"], "non-finite numeric 'nan' in column 'gini_wealth'"),
    (["0.5", "0.5", " x ", "inf", ""], "unparseable numeric 'x' in column 'gini_node'"),
    (["0.5", "0.5", "0.5", "0.5", "-inf"],
     "non-finite numeric '-inf' in column 'gini_information'"),
]


def gini_error(small_panel_files, consolidated, cells):
    """The errors of the meta file and of the consolidated file when
    ``BBB``'s gini cells are ``cells``, as ``(message, line)``."""
    meta_file = small_panel_files[2]
    line = line_of(consolidated, "BBB")
    errors = []
    for path, at in ((meta_file, line_of(meta_file, "BBB")), (consolidated, line)):
        for dim, cell in zip(ps.GINI_DIMENSIONS, cells):
            rewrite_cell(path, at, f"gini_{dim}", cell)
    for load, args in ((ps.load_panel, small_panel_files), (ps.load_panel_csv, (consolidated,))):
        with pytest.raises(ps.PanelLoadError) as err:
            load(*args)
        errors.append((message(err.value), err.value.line))
    return errors


@pytest.mark.parametrize("cells, expected", GINI_DEFECTS)
def test_gini_cells_fail_in_column_order(small_panel_files, consolidated, cells, expected):
    assert gini_error(small_panel_files, consolidated, cells) == [
        (expected, 3), (expected, line_of(consolidated, "BBB"))]


@pytest.mark.parametrize("text", ["0_1", "\uff10.5", "\u0660"])
def test_gini_cell_refuses_a_spelling_no_writer_writes(small_panel_files, consolidated, text):
    # float reads each of these as a number in [0, 1]
    expected = f"unparseable numeric {text!r} in column 'gini_code'"
    assert gini_error(small_panel_files, consolidated, ["0.5"] * 3 + [text, "0.5"]) == [
        (expected, 3), (expected, line_of(consolidated, "BBB"))]


def writer_columns(draw, fields):
    """Dates and per-field values with a random missing mask (NaN there)."""
    days = sorted(draw(st.sets(st.integers(0, 40), max_size=5)))
    values, missing = {}, {}
    for name in fields:
        mask = np.array(draw(st.lists(st.booleans(), min_size=len(days), max_size=len(days))),
                        dtype=bool)
        drawn = draw(st.lists(FINITE_VALUES, min_size=len(days), max_size=len(days)))
        values[name] = np.where(mask, np.nan, np.array(drawn, dtype=float))
        missing[name] = mask
    return DAY0 + np.array(days, dtype=np.int64), values, missing


@st.composite
def writer_panels(draw):
    """Panels with awkward symbols and categories, edge values, random
    missing masks, and entities or a market without rows."""
    metas, observations = [], {}
    for symbol in draw(st.lists(CELL_TEXTS, max_size=3, unique=True)):
        gini = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)))
        metas.append(ps.EntityMeta(symbol, draw(CELL_TEXTS), draw(st.booleans()),
                                   DAY0 + draw(st.integers(0, 10)), gini))
        observations[symbol] = ps.EntityRecords(symbol, *writer_columns(draw, ps.ENTITY_FIELDS))
    market = ps.EntityRecords(ps.MARKET_SYMBOL, *writer_columns(draw, ps.MARKET_FIELDS))
    return ps.PanelDataset(tuple(metas), observations, market)


def reference_panel_file(panel, path):
    """The consolidated file as a plain ``csv.writer`` row loop writes it."""

    def texts(series, fields, i):
        return ["" if series.missing[f][i] else repr(float(series.values[f][i])) for f in fields]

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ps.PANEL_HEADER + ps.META_HEADER[1:])
        for meta in panel.entities:
            rec = panel.observations[meta.symbol]
            for i in range(len(rec)):
                writer.writerow([meta.symbol, str(rec.dates[i])]
                                + texts(rec, ps.ENTITY_FIELDS, i) + ["", ""]
                                + ps.format_meta_cells(meta))
        market = panel.market
        for i in range(len(market)):
            writer.writerow([ps.MARKET_SYMBOL, str(market.dates[i])]
                            + [""] * len(ps.ENTITY_FIELDS) + texts(market, ps.MARKET_FIELDS, i)
                            + [""] * (len(ps.META_HEADER) - 1))


class TestPanelWriter:
    @PROPERTY_SETTINGS
    @given(panel=writer_panels())
    def test_bytes_equal_a_csv_writer_row_loop(self, tmp_path_factory, panel):
        folder = tmp_path_factory.mktemp("panel")
        if not all(len(rec) for rec in panel.observations.values()):
            # an entity's meta cells are carried on its rows, so it needs one
            with pytest.raises(ValueError, match="no rows to carry its meta cells"):
                ps.write_panel_csv(panel, folder / "blocks.csv")
            assert not (folder / "blocks.csv").exists()
            return
        ps.write_panel_csv(panel, folder / "blocks.csv")
        reference_panel_file(panel, folder / "rows.csv")
        assert (folder / "blocks.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    @PROPERTY_SETTINGS
    @given(categories=st.lists(CELL_TEXTS, min_size=1, max_size=3))
    def test_categories_read_back_as_written(self, tmp_path_factory, categories):
        # symbols name entity files and are stripped on reading; categories are not
        metas, observations = [], {}
        for i, category in enumerate(categories):
            symbol = f"S{i}"
            metas.append(ps.EntityMeta(symbol, category, False, DAY0, (0.5,) * 5))
            observations[symbol] = ps.EntityRecords(
                symbol, DAY0 + np.arange(2), {f: np.ones(2) for f in ps.ENTITY_FIELDS},
                {f: np.zeros(2, dtype=bool) for f in ps.ENTITY_FIELDS},
            )
        market = ps.EntityRecords(ps.MARKET_SYMBOL, DAY0 + np.arange(0),
                                  {f: np.ones(0) for f in ps.MARKET_FIELDS},
                                  {f: np.zeros(0, dtype=bool) for f in ps.MARKET_FIELDS})
        path = tmp_path_factory.mktemp("panel") / "panel.csv"
        ps.write_panel_csv(ps.PanelDataset(tuple(metas), observations, market), path)
        assert list(ps.load_panel_csv(path).entities) == metas

    @pytest.mark.parametrize(
        "symbol, column, value",
        [("BBB", "high", np.nan), ("CCC", "attention", np.inf),
         (ps.MARKET_SYMBOL, "shock_loss", -np.inf)],
    )
    def test_present_non_finite_value_refused(self, tmp_path, small_panel_files,
                                              symbol, column, value):
        panel = ps.load_panel(*small_panel_files)
        series = panel.market if symbol == ps.MARKET_SYMBOL else panel.observations[symbol]
        series.values[column][4] = value
        with pytest.raises(ValueError) as info:
            ps.write_panel_csv(panel, tmp_path / "panel.csv")
        assert str(info.value) == (
            f"non-finite value {value} for {symbol} {column} on {series.dates[4]}"
        )
        # no partial file is left behind
        assert not (tmp_path / "panel.csv").exists()

    def test_first_non_finite_value_in_file_order_refused(self, tmp_path, small_panel_files):
        # rows are by date, so a later column's earlier value comes first
        panel = ps.load_panel(*small_panel_files)
        rec = panel.observations["BBB"]
        rec.values["open"][7] = np.inf
        rec.values["attention"][3] = np.nan
        with pytest.raises(ValueError) as info:
            ps.write_panel_csv(panel, tmp_path / "panel.csv")
        assert str(info.value) == f"non-finite value nan for BBB attention on {rec.dates[3]}"
        assert not (tmp_path / "panel.csv").exists()
