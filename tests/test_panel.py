"""Loader validation, slicing, and round-trip fidelity of the panel store."""

import csv

import numpy as np
import pytest

from panelcrypt import panel as ps
from panelcrypt.refdata import BENCHMARK_UNIVERSE, PANEL_END

from conftest import (
    build_panel_files,
    random_ohlcv,
    write_entity_csv,
    write_meta_csv,
)


def test_load_small_panel(small_panel_files):
    entity_files, market_file, meta_file = small_panel_files
    panel = ps.load_panel(entity_files, market_file, meta_file)
    assert sorted(panel.symbols) == ["AAA", "BBB", "CCC"]
    assert panel.n_observations("AAA") == 60
    assert panel.n_observations("CCC") == 49
    assert panel.meta("AAA").hyfi and not panel.meta("BBB").hyfi
    assert len(panel.calendar) >= 60


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


class TestSubsample:
    @pytest.fixture
    def panel(self, small_panel_files):
        return ps.load_panel(*small_panel_files)

    def test_identity(self, panel):
        full = ps.subsample(panel, panel.calendar[0], panel.calendar[-1])
        assert full.n_observations() == panel.n_observations()
        assert full.symbols == panel.symbols

    def test_idempotence(self, panel):
        a = ps.subsample(panel, "2020-01-10", "2020-02-10")
        b = ps.subsample(a, "2020-01-10", "2020-02-10")
        assert a.n_observations() == b.n_observations()
        for symbol in a.symbols:
            assert np.array_equal(a.observations[symbol].dates, b.observations[symbol].dates)

    def test_empty_range_before_listings(self, panel):
        empty = ps.subsample(panel, "2010-01-01", "2010-02-01")
        assert empty.is_empty
        assert empty.n_observations() == 0

    def test_drops_entities_left_empty(self, panel):
        # CCC starts 2020-01-12; a window before that keeps only AAA and BBB
        early = ps.subsample(panel, "2020-01-01", "2020-01-05")
        assert sorted(early.symbols) == ["AAA", "BBB"]
        assert early.meta("AAA").category == "test"

    def test_start_after_end_rejected(self, panel):
        with pytest.raises(ValueError):
            ps.subsample(panel, "2021-01-01", "2020-01-01")

    def test_split_day_counts(self, tmp_path):
        # full benchmark-shaped calendar: 2020-01-01 .. 2024-11-24
        rng = np.random.default_rng(8)
        files = build_panel_files(tmp_path, rng, [("FULL", False, "2020-01-01", 1790)])
        panel = ps.load_panel(*files)
        pre = ps.subsample(panel, "2020-01-02", "2022-05-06")
        post = ps.subsample(panel, "2022-05-07", "2024-11-24")
        assert pre.n_observations("FULL") == 856
        assert post.n_observations("FULL") == 933
        assert str(panel.observations["FULL"].dates[-1]) == "2024-11-24"


class TestSeries:
    def test_known_entity_field(self, small_panel_files):
        panel = ps.load_panel(*small_panel_files)
        dates, values, missing = ps.series(panel, "CCC", "close")
        assert len(values) == 49
        assert not missing.any()
        assert np.all(np.diff(dates) > np.timedelta64(0, "D"))

    def test_market_series(self, small_panel_files):
        panel = ps.load_panel(*small_panel_files)
        dates, values, _ = ps.series(panel, ps.MARKET_SYMBOL, "index_level")
        assert np.all(values > 0)

    def test_unknown_entity_and_field(self, small_panel_files):
        panel = ps.load_panel(*small_panel_files)
        with pytest.raises(ValueError, match="unknown entity"):
            ps.series(panel, "ZZZ", "close")
        with pytest.raises(ValueError, match="unknown field"):
            ps.series(panel, "AAA", "sentiment")


def test_round_trip_bitwise(tmp_path, small_panel_files):
    entity_files, market_file, meta_file = small_panel_files
    panel = ps.load_panel(entity_files, market_file, meta_file)
    out = tmp_path / "consolidated.csv"
    ps.write_panel_csv(panel, out)
    reloaded = ps.load_panel_csv(out)

    assert reloaded.symbols == panel.symbols
    for meta, again in zip(panel.entities, reloaded.entities):
        assert meta == again
    for symbol in panel.symbols:
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
    counts = {symbol: panel.n_observations(symbol) for symbol in panel.symbols}
    assert counts == expected
    assert max(counts.values()) == 1790
    assert panel.n_observations() == 30941
    dates, values, _ = ps.series(panel, "RAY", "close")
    assert len(values) == 1372
    assert str(dates[0]) == "2021-02-22"
    dates, values, _ = ps.series(panel, "BTC", "close")
    assert len(values) == 1790
