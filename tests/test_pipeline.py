"""Design assembly, synthetic generation, batteries and figure identities."""

import ast
import csv
import fnmatch
import io
import math
import os
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelcrypt import estimators, pipeline
from panelcrypt import metrics as mx
from panelcrypt.estimators import FixedEffects, ModelSpec, RandomEffects, hausman
from panelcrypt.metrics import MetricSeries
from panelcrypt.panel import (
    MARKET_SYMBOL,
    META_HEADER,
    EntityMeta,
    PanelLoadError,
    format_meta_cells,
    read_meta_csv,
)
from panelcrypt.pipeline import (
    BASELINE_JOBS,
    CONTROLS,
    DAY,
    FIG4_GRID,
    MARKET_METRICS,
    BASELINE_SPECS,
    QUANTILE_SPEC,
    RunConfig,
    SynthParams,
    build_design,
    default_truth,
    design_table,
    figure4_rows,
    parse_config,
    read_metrics_csv,
    reference_figures,
    run_baseline,
    run_quantiles,
    run_report,
    run_split,
    simulate_dgp,
    write_meta_csv,
    write_metrics_csv,
    write_simulation,
)

from conftest import CELL_TEXTS, FINITE_VALUES, PROPERTY_SETTINGS


def small_params(**overrides):
    base = dict(n_entities=5, n_periods=150, use_benchmark_universe=False,
                sigma_alpha=0.01, sigma_low=0.006, sigma_high=0.02)
    base.update(overrides)
    return SynthParams(**base)


@pytest.fixture(scope="module")
def small_sim():
    return simulate_dgp(small_params(), seed=11)


def present_by_day(series):
    """{day number: value} of a series' present values."""
    days = series.dates.astype(np.int64).tolist()
    return {day: value for day, value, missing
            in zip(days, series.values.tolist(), series.missing.tolist()) if not missing}


def reference_design(metas, bundle, spec, window=None):
    """A design found row by row with date lookups: ``(columns, dropped,
    rows_in)``, where ``columns`` maps entity, day, the response and every
    non-constant column name to the complete rows' values."""
    regressors = [n for n in spec.regressors if not (spec.effects == "fixed" and n == "hyfi")]
    pairs = [(f"{a}_x_{b}", a, b) for a, b in spec.interactions]
    lo, hi = (-math.inf, math.inf) if window is None else (
        int(np.datetime64(d, "D").astype(np.int64)) for d in window)
    market = {name: present_by_day(bundle[MARKET_SYMBOL][name]) for name in MARKET_METRICS}
    columns, dropped, rows_in = {}, Counter(), 0
    for meta in metas:
        lookups = {name: present_by_day(series) for name, series in bundle[meta.symbol].items()}
        lookups.update(market)
        response = lookups["price_risk"]
        days = bundle[meta.symbol]["price_risk"].dates.astype(np.int64).tolist()
        for day in (d for d in days if lo <= d <= hi):
            rows_in += 1
            cells = {"price_risk": response.get(day)}
            if spec.dynamic:
                cells["price_risk_lag"] = response.get(day - 1)
            for name in regressors:
                cells[name] = float(meta.hyfi) if name == "hyfi" else lookups[name].get(day)
            for name, a, b in pairs:
                left = float(meta.hyfi) if a == "hyfi" else lookups[a].get(day)
                right = lookups[b].get(day)
                cells[name] = None if left is None or right is None else left * right
            missing = [name for name, value in cells.items() if value is None]
            if missing:
                dropped[f"missing_{missing[0]}"] += 1
                continue
            cells.update(entity=meta.symbol, day=day)
            for name, value in cells.items():
                columns.setdefault(name, []).append(value)
    return columns, dict(sorted(dropped.items())), rows_in


class TestBuildDesign:
    def test_report_designs_equal_row_lookups(self, tmp_path, small_sim):
        # a metrics file read back keeps only present values, so each
        # entity's series start on different days; two more carved days make
        # interior gaps in one response and in another entity's size
        write_simulation(small_sim, tmp_path)
        bundle = read_metrics_csv(tmp_path / "metrics.csv")
        metas = small_sim.metas
        for symbol, name, position in ((metas[0].symbol, "price_risk", 60),
                                       (metas[1].symbol, "size", 90)):
            series = bundle[symbol][name]
            keep = np.arange(len(series)) != position
            bundle[symbol][name] = MetricSeries(symbol, name, series.dates[keep],
                                                series.values[keep], series.missing[keep])
        table = design_table(metas, bundle)
        assert design_table(metas, table) is table
        # the report's 14 designs: 4 baseline specs over the full sample and
        # both split windows, the quantile design and the figure-scale design
        lo, hi = table.dates.min(), table.dates.max()
        split = np.datetime64("2020-03-15")
        cases = [(BASELINE_SPECS[job], window)
                 for window in (None, (lo, split - DAY), (split, hi)) for job in BASELINE_JOBS]
        cases += [(QUANTILE_SPEC, None), (BASELINE_SPECS["static_fixed"], None)]
        assert len(cases) == 14
        for spec, window in cases:
            design, ledger = build_design(metas, table, spec, window=window)
            again, again_ledger = build_design(metas, bundle, spec, window=window)
            for attr in ("matrix", "response", "entities", "dates"):
                assert np.array_equal(getattr(design, attr), getattr(again, attr))
            assert design.columns == again.columns and ledger == again_ledger
            columns, dropped, rows_in = reference_design(metas, bundle, spec, window)
            assert ledger.dropped == dropped and ledger.rows_in == rows_in
            assert list(design.entities) == columns["entity"]
            assert design.dates.astype(np.int64).tolist() == columns["day"]
            assert design.response.tolist() == columns["price_risk"]
            for name in design.columns:
                expected = [1.0] * design.nobs if name == "const" else columns[name]
                assert design.column(name).tolist() == expected, name

    def test_no_entities_is_an_empty_design(self, small_sim):
        spec = ModelSpec(effects="pooled", regressors=["market_volatility"])
        with pytest.raises(ValueError,
                           match="design matrix is empty after dropping incomplete rows"):
            build_design([], small_sim.bundle, spec)

    def test_fe_excludes_hyfi_main_effect(self, small_sim):
        # the design keeps hyfi; the fixed-effects fit absorbs it
        spec = ModelSpec(effects="fixed", regressors=list(CONTROLS) + ["hyfi"],
                         interactions=[("hyfi", "market_volatility")])
        design, _ = build_design(small_sim.metas, small_sim.bundle, spec)
        fit = FixedEffects().fit(design).result_
        assert "hyfi" not in fit.columns
        assert "hyfi_x_market_volatility" in fit.columns
        assert fit.absorbed == ["hyfi"]

    def test_random_effects_design_includes_const_and_hyfi(self, small_sim):
        spec = ModelSpec(effects="random", regressors=list(CONTROLS) + ["hyfi"])
        design, _ = build_design(small_sim.metas, small_sim.bundle, spec)
        assert design.columns[0] == "const"
        assert "hyfi" in design.columns

    def test_interaction_zero_for_non_hyfi_entities(self, small_sim):
        spec = ModelSpec(effects="fixed", regressors=list(CONTROLS),
                         interactions=[("hyfi", "market_volatility")])
        design, _ = build_design(small_sim.metas, small_sim.bundle, spec)
        non_hyfi = [m.symbol for m in small_sim.metas if not m.hyfi]
        rows = np.isin(design.entities, non_hyfi)
        assert np.all(design.column("hyfi_x_market_volatility")[rows] == 0.0)

    def test_ledger_conservation(self, small_sim):
        for dynamic in (False, True):
            spec = ModelSpec(effects="fixed", dynamic=dynamic,
                             regressors=list(CONTROLS),
                             interactions=[("hyfi", "market_volatility")])
            design, ledger = build_design(small_sim.metas, small_sim.bundle, spec)
            assert ledger.conserved()
            assert ledger.rows_used == design.nobs

    def test_dynamic_drops_one_extra_row_per_gap(self):
        sim = simulate_dgp(small_params(n_entities=3), seed=13)
        # carve an interior gap into one entity's series
        target = sim.metas[0].symbol
        for series in sim.bundle[target].values():
            keep = np.ones(len(series), dtype=bool)
            keep[40] = False
            series.dates = series.dates[keep]
            series.values = series.values[keep]
            series.missing = series.missing[keep]
        static = ModelSpec(effects="fixed", regressors=list(CONTROLS),
                           interactions=[("hyfi", "market_volatility")])
        dynamic = ModelSpec(effects="fixed", dynamic=True, regressors=list(CONTROLS),
                            interactions=[("hyfi", "market_volatility")])
        d_static, _ = build_design(sim.metas, sim.bundle, static)
        d_dynamic, ledger = build_design(sim.metas, sim.bundle, dynamic)
        # one lag row per entity start, plus exactly one at the carved gap
        lag_dropped = ledger.dropped["missing_price_risk_lag"]
        assert lag_dropped == len(sim.metas) + 1
        assert d_static.nobs - d_dynamic.nobs == lag_dropped

    def test_window_filters_before_accounting(self, small_sim):
        spec = ModelSpec(effects="fixed", regressors=list(CONTROLS),
                         interactions=[("hyfi", "market_volatility")])
        full, full_ledger = build_design(small_sim.metas, small_sim.bundle, spec)
        lo, hi = full.dates.min(), full.dates.max()
        mid = lo + (hi - lo) // 2
        pre, pre_ledger = build_design(small_sim.metas, small_sim.bundle, spec,
                                       window=(lo, mid))
        post, post_ledger = build_design(small_sim.metas, small_sim.bundle, spec,
                                         window=(mid + np.timedelta64(1, "D"), hi))
        assert pre.nobs + post.nobs == full.nobs
        assert pre_ledger.conserved() and post_ledger.conserved()

    def test_lag_before_window(self, small_sim):
        # a window's first day keeps the lag from the day before the window:
        # the lag is taken on the whole series, then the window applies
        spec = ModelSpec(effects="fixed", dynamic=True, regressors=list(CONTROLS),
                         interactions=[("hyfi", "market_volatility")])
        full, _ = build_design(small_sim.metas, small_sim.bundle, spec)
        lo, hi = full.dates.min(), full.dates.max()
        mid = lo + (hi - lo) // 2
        post, ledger = build_design(small_sim.metas, small_sim.bundle, spec,
                                    window=(mid, hi))
        lag = post.column("price_risk_lag")
        for meta in small_sim.metas:
            series = small_sim.bundle[meta.symbol]["price_risk"]
            before = np.flatnonzero(series.dates == mid - np.timedelta64(1, "D"))
            row = np.flatnonzero((post.entities == meta.symbol) & (post.dates == mid))
            assert len(before) == 1 and not series.missing[before[0]]
            assert len(row) == 1
            assert lag[row[0]] == series.values[before[0]]
        assert "missing_price_risk_lag" not in ledger.dropped

    def test_empty_design_rejected(self, small_sim):
        spec = ModelSpec(effects="fixed", regressors=list(CONTROLS),
                         interactions=[("hyfi", "market_volatility")])
        lo = np.datetime64("1990-01-01", "D")
        with pytest.raises(ValueError, match="empty"):
            build_design(small_sim.metas, small_sim.bundle, spec,
                         window=(lo, lo + np.timedelta64(3, "D")))


class TestSimulate:
    def test_seed_determinism_bitwise(self, tmp_path):
        a = simulate_dgp(small_params(), seed=5)
        b = simulate_dgp(small_params(), seed=5)
        for symbol in a.bundle:
            for name in a.bundle[symbol]:
                assert np.array_equal(
                    a.bundle[symbol][name].values, b.bundle[symbol][name].values,
                    equal_nan=True,
                )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_simulation(a, out_a)
        write_simulation(b, out_b)
        for name in ("metrics.csv", "meta.csv", "manifest.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_different_seeds_differ(self):
        a = simulate_dgp(small_params(), seed=5)
        b = simulate_dgp(small_params(), seed=6)
        sym = a.metas[0].symbol
        assert not np.array_equal(
            a.bundle[sym]["price_risk"].values, b.bundle[sym]["price_risk"].values,
            equal_nan=True,
        )

    def test_null_dgp_recovers_zero_slopes(self):
        beta = {key: 0.0 for key in default_truth()}
        params = small_params(n_entities=8, n_periods=250, beta=beta)
        spec = ModelSpec(effects="fixed", regressors=list(CONTROLS),
                         interactions=[("hyfi", "market_volatility")])
        reps = 12
        estimates = []
        for seed in range(reps):
            sim = simulate_dgp(params, seed=seed)
            design, _ = build_design(sim.metas, sim.bundle, spec)
            estimates.append(FixedEffects().fit(design).result_.params)
        estimates = np.vstack(estimates)
        mc_se = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(estimates.mean(axis=0)) <= 3 * mc_se + 1e-9)

    def test_metrics_round_trip(self, tmp_path, small_sim):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(small_sim.bundle, path)
        loaded = read_metrics_csv(path)
        for symbol, per in small_sim.bundle.items():
            for name, series in per.items():
                back = loaded[symbol][name]
                ok = ~series.missing
                assert np.array_equal(series.values[ok], back.values)
                assert np.array_equal(series.dates[ok], back.dates)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("AAA,2020-01-02,size\n", "expected 4 fields"),
            ("AAA,2020-01-02,size,nan\n", "non-finite value 'nan'"),
            ("AAA,2020-01-01,size,2.0\n", "duplicate size row for AAA on 2020-01-01"),
        ],
        ids=["short_row", "nan_value", "duplicate_row"],
    )
    def test_metrics_file_defects_name_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "entity,date,metric,value\n"
            "AAA,2020-01-01,size,1.0\n"
            "AAA,2020-01-03,size,3.0\n" + row
        )
        with pytest.raises(PanelLoadError, match=message) as info:
            read_metrics_csv(path)
        assert info.value.source == str(path)
        assert info.value.line == 4
        assert f"[{path}:4]" in str(info.value)

    @pytest.mark.parametrize("date_text", ["2020", "2020-03", "NaT", "2020-01-05T13:00", "today"])
    def test_metrics_file_bad_date_names_file_and_line(self, tmp_path, date_text):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "entity,date,metric,value\n"
            "AAA,2020-01-01,size,1.0\n"
            "AAA,2020-01-03,size,3.0\n"
            f"AAA,{date_text},size,2.0\n"
        )
        with pytest.raises(PanelLoadError, match="unparseable date") as info:
            read_metrics_csv(path)
        assert info.value.line == 4
        assert f"[{path}:4]" in str(info.value)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(phi=1.0)
        with pytest.raises(ValueError):
            SynthParams(sigma_low=0.0)
        with pytest.raises(ValueError):
            SynthParams(n_entities=1)

    @pytest.mark.parametrize("n_periods", [300, 418, 420])
    def test_short_benchmark_calendar_names_the_late_listing(self, n_periods):
        # RAY lists on 2021-02-22, day 418 of a calendar from 2020-01-01
        with pytest.raises(ValueError) as info:
            simulate_dgp(SynthParams(n_periods=n_periods))
        assert str(info.value) == (
            f"n_periods = {n_periods} leaves RAY, listed 2021-02-22, fewer than 3 days;"
            " the smallest n_periods that simulates is 421"
        )

    def test_market_starts_one_window_and_a_day_before_start(self, small_sim):
        start = np.datetime64(small_sim.params.start, "D")
        for series in small_sim.bundle[MARKET_SYMBOL].values():
            assert series.dates[0] == start - (mx.VOLATILITY_WINDOW + 1) * DAY
        volatility = small_sim.bundle[MARKET_SYMBOL]["market_volatility"]
        assert not volatility.missing[volatility.dates >= start].any()

    def test_shortest_benchmark_calendar_simulates(self):
        sim = simulate_dgp(SynthParams(n_periods=421))
        assert len(sim.bundle["RAY"]["illiquidity"].dates) == 3

    @pytest.mark.parametrize("n_entities", [2, 17, 20])
    def test_benchmark_universe_needs_its_18_tokens(self, n_entities):
        with pytest.raises(ValueError) as info:
            SynthParams(n_entities=n_entities)
        assert str(info.value) == (
            "use_benchmark_universe = true simulates the 18 benchmark tokens, but "
            f"n_entities = {n_entities}; set use_benchmark_universe = false for synthetic tokens"
        )
        assert SynthParams(n_entities=n_entities, use_benchmark_universe=False)

    @pytest.mark.parametrize("phi", [0.0, 0.4])
    def test_regressors_follow_the_metric_definitions(self, phi):
        sim = simulate_dgp(small_params(n_entities=4, n_periods=80, phi=phi), seed=3)
        first_day = np.zeros(80, dtype=bool)
        first_day[0] = True
        for meta in sim.metas:
            per = sim.bundle[meta.symbol]
            for name in ("size", "illiquidity", "price_risk"):
                assert np.array_equal(per[name].missing, first_day), name
                assert np.array_equal(np.isnan(per[name].values), first_day), name
            z = per["illiquidity"].present_values()
            assert abs(z.mean()) < 1e-12 and abs(z.std(ddof=1) - 1.0) < 1e-12
            attractiveness = per["attractiveness"]
            assert not attractiveness.missing.any()
            assert 0.0 <= attractiveness.values.min()
            assert attractiveness.values.max() <= math.log(101.0)


# Metric-file properties.  Names may carry blanks, commas and quotes, so the
# writer's quoting is exercised.  Dates span every four-digit year, as the
# reader requires, and often fall in one short window, so that series share
# date texts.
NAMES = st.text(alphabet='ABab_ ,"', min_size=1, max_size=4)
DAYS = st.one_of(
    st.integers(18_262, 18_272),
    st.integers(
        int(np.datetime64("0001-01-01", "D").astype(np.int64)),
        int(np.datetime64("9999-12-31", "D").astype(np.int64)),
    ),
)


@st.composite
def metric_bundles(draw):
    bundle = {}
    for entity in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        bundle[entity] = {}
        for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
            days = sorted(draw(st.sets(DAYS, min_size=1, max_size=6)))
            values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=len(days), max_size=len(days)))
            bundle[entity][name] = MetricSeries(
                entity, name, np.array(days, dtype=np.int64).view("datetime64[D]"),
                np.array(values), np.zeros(len(days), dtype=bool),
            )
    return bundle


def data_lines(bundle, path):
    """Write ``bundle`` to ``path``; return the header and the data lines."""
    write_metrics_csv(bundle, path)
    header, *lines = path.read_text().splitlines(keepends=True)
    return header, lines


def csv_line(fields, lineterminator="\n"):
    out = io.StringIO()
    csv.writer(out, lineterminator=lineterminator).writerow(fields)
    return out.getvalue()


def same_series(a, b):
    assert a.dates.dtype == b.dates.dtype and a.values.dtype == b.values.dtype
    assert a.dates.tobytes() == b.dates.tobytes()
    assert a.values.tobytes() == b.values.tobytes()
    assert not a.missing.any() and not b.missing.any()


BAD_ROWS = {
    "short": (["{entity},{date},{name}", "{entity},{date},{name},1.0,2.0", ""], "expected 4 fields"),
    "non_finite": (["nan", "inf", "-Infinity", "1e999"], "non-finite value"),
    "bad_number": (["abc", "1.2.3", "", "0x10"], "unparseable numeric"),
    "bad_date": (["2020-13-01", "today", "2020", "NaT", "1.1.20"], "unparseable date"),
}


class TestMetricsFileProperties:
    @PROPERTY_SETTINGS
    @given(bundle=metric_bundles())
    def test_round_trip_bit_for_bit(self, tmp_path_factory, bundle):
        path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
        write_metrics_csv(bundle, path)
        loaded = read_metrics_csv(path)
        # the writer sorts, and the reader keeps first-appearance order
        assert list(loaded) == sorted(bundle)
        for entity, per in loaded.items():
            assert list(per) == sorted(bundle[entity])
            for name, series in per.items():
                assert (series.entity, series.name) == (entity, name)
                same_series(series, bundle[entity][name])

    @PROPERTY_SETTINGS
    @given(bundle=metric_bundles(), data=st.data())
    def test_row_order_does_not_matter(self, tmp_path_factory, bundle, data):
        folder = tmp_path_factory.mktemp("metrics")
        header, lines = data_lines(bundle, folder / "sorted.csv")
        shuffled = data.draw(st.permutations(lines))
        path = folder / "shuffled.csv"
        path.write_text(header + "".join(shuffled))
        loaded = read_metrics_csv(path)
        rows = list(csv.reader(shuffled))
        assert list(loaded) == list(dict.fromkeys(row[0] for row in rows))
        for entity, per in loaded.items():
            names = [row[2] for row in rows if row[0] == entity]
            assert list(per) == list(dict.fromkeys(names))
            for name, series in per.items():
                same_series(series, bundle[entity][name])

    @PROPERTY_SETTINGS
    @given(bundle=metric_bundles(), kind=st.sampled_from([*BAD_ROWS, "duplicate"]),
           data=st.data())
    def test_one_bad_row_is_named_by_its_line(self, tmp_path_factory, bundle, kind, data):
        path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
        header, lines = data_lines(bundle, path)
        if kind == "duplicate":
            # a second row for an earlier row's (entity, date, metric); the
            # error names the later of the two
            at = data.draw(st.integers(1, len(lines)))
            entity, date, name, value = next(csv.reader([lines[data.draw(st.integers(0, at - 1))]]))
            value = data.draw(st.sampled_from([value, "0.5"]))
            bad, message = csv_line([entity, date, name, value]), "duplicate"
        else:
            at = data.draw(st.integers(0, len(lines)))
            entity, date, name, value = next(csv.reader([data.draw(st.sampled_from(lines))]))
            texts, message = BAD_ROWS[kind]
            text = data.draw(st.sampled_from(texts))
            if kind == "short":
                bad = text.format(entity="E", date=date, name="m") + "\n"
            elif kind == "bad_date":
                bad = csv_line([entity, text, name, value])
            else:
                bad = csv_line([entity, date, name, text])
        path.write_text(header + "".join(lines[:at]) + bad + "".join(lines[at:]))
        with pytest.raises(PanelLoadError, match=message) as info:
            read_metrics_csv(path)
        assert info.value.line == at + 2
        assert f"[{path}:{at + 2}]" in str(info.value)


@st.composite
def writer_bundles(draw):
    """Bundles with awkward names, edge values, random missing masks, and
    empty series and entities; missing slots hold NaN."""
    bundle = {}
    for entity in draw(st.lists(CELL_TEXTS, max_size=3, unique=True)):
        bundle[entity] = {}
        for name in draw(st.lists(CELL_TEXTS, max_size=3, unique=True)):
            days = sorted(draw(st.sets(DAYS, max_size=6)))
            values = draw(st.lists(FINITE_VALUES, min_size=len(days), max_size=len(days)))
            missing = np.array(draw(st.lists(st.booleans(), min_size=len(days),
                                             max_size=len(days))), dtype=bool)
            bundle[entity][name] = MetricSeries(
                entity, name, np.array(days, dtype=np.int64).view("datetime64[D]"),
                np.where(missing, np.nan, np.array(values, dtype=float)), missing,
            )
    return bundle


def reference_metrics_file(bundle, path):
    """The metrics file as a plain ``csv.writer`` row loop writes it: rows
    quoted as under the ``\\r\\n`` terminator, each ended by ``\\n``."""
    rows = [("entity", "date", "metric", "value")]
    for entity in sorted(bundle):
        for name in sorted(bundle[entity]):
            series = bundle[entity][name]
            for i in np.flatnonzero(~series.missing):
                rows.append(
                    (entity, str(series.dates[i]), name, repr(float(series.values[i])))
                )
    with open(path, "w", newline="") as handle:
        for row in rows:
            handle.write(csv_line(row, "\r\n").removesuffix("\r\n") + "\n")


class TestMetricsWriter:
    @PROPERTY_SETTINGS
    @given(bundle=writer_bundles())
    def test_bytes_equal_a_csv_writer_row_loop(self, tmp_path_factory, bundle):
        folder = tmp_path_factory.mktemp("metrics")
        write_metrics_csv(bundle, folder / "blocks.csv")
        reference_metrics_file(bundle, folder / "rows.csv")
        assert (folder / "blocks.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    @PROPERTY_SETTINGS
    @given(bundle=writer_bundles())
    def test_awkward_names_read_back(self, tmp_path_factory, bundle):
        # names holding the delimiter, quotes, \r or \n; a series with no
        # present value writes no row and so does not read back
        path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
        write_metrics_csv(bundle, path)
        expected = {}
        for entity in sorted(bundle):
            for name in sorted(bundle[entity]):
                series = bundle[entity][name]
                if not series.missing.all():
                    expected.setdefault(entity, {})[name] = series
        loaded = read_metrics_csv(path)
        assert list(loaded) == list(expected)
        for entity, per in loaded.items():
            assert list(per) == list(expected[entity])
            for name, series in per.items():
                source = expected[entity][name]
                present = ~source.missing
                assert series.dates.tobytes() == source.dates[present].tobytes()
                assert series.values.tobytes() == source.values[present].tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_present_non_finite_value_refused(self, tmp_path, value):
        series = MetricSeries(
            "AAA", "size", np.datetime64("2020-01-01") + np.arange(3),
            np.array([1.0, value, np.nan]), np.array([False, False, True]),
        )
        with pytest.raises(ValueError) as info:
            write_metrics_csv({"AAA": {"size": series}}, tmp_path / "metrics.csv")
        assert str(info.value) == f"non-finite value {value} for AAA size on 2020-01-02"
        # the header alone would read as an empty bundle
        assert not (tmp_path / "metrics.csv").exists()


@st.composite
def writer_metas(draw):
    """Entity metadata with awkward symbols and categories."""
    return [
        EntityMeta(symbol, draw(CELL_TEXTS), draw(st.booleans()),
                   np.datetime64("2020-01-01") + draw(st.integers(0, 10)),
                   tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))))
        for symbol in draw(st.lists(CELL_TEXTS, max_size=3, unique=True))
    ]


class TestMetaWriter:
    @PROPERTY_SETTINGS
    @given(metas=writer_metas())
    def test_bytes_equal_a_csv_writer_row_loop(self, tmp_path_factory, metas):
        folder = tmp_path_factory.mktemp("meta")
        write_meta_csv(metas, folder / "table.csv")
        # csv.writer quotes \r only when it ends rows with \r\n
        rows = [META_HEADER] + [[meta.symbol] + format_meta_cells(meta) for meta in metas]
        with open(folder / "rows.csv", "w", newline="") as handle:
            for row in rows:
                handle.write(csv_line(row, "\r\n").removesuffix("\r\n") + "\n")
        assert (folder / "table.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    @PROPERTY_SETTINGS
    @given(metas=writer_metas())
    def test_categories_read_back_as_written(self, tmp_path_factory, metas):
        # symbols name entity files and are stripped on reading; categories are not
        metas = [replace(meta, symbol=f"S{i}") for i, meta in enumerate(metas)]
        path = tmp_path_factory.mktemp("meta") / "meta.csv"
        write_meta_csv(metas, path)
        assert read_meta_csv(path) == metas


@pytest.fixture(scope="module")
def fragment():
    sim = simulate_dgp(small_params(n_entities=6, n_periods=300), seed=21)
    return sim, run_baseline(sim.metas, sim.bundle)


class TestBaseline:
    def test_four_fits_present(self, fragment):
        _, result = fragment
        assert sorted(result.fits) == sorted(
            ["static_random", "static_fixed", "dynamic_random", "dynamic_fixed"]
        )
        assert result.fits["static_fixed"].method == "fixed_egls"
        assert result.fits["static_random"].method == "random"

    def test_hausman_on_shared_slopes(self, fragment):
        _, result = fragment
        static = result.hausman["static"]
        assert sorted(static.columns) == sorted(CONTROLS)
        assert static.df == 6
        dynamic = result.hausman["dynamic"]
        assert "price_risk_lag" in dynamic.columns
        assert dynamic.df == 7

    def test_long_run_consistency(self, fragment):
        _, result = fragment
        fit = result.fits["dynamic_fixed"]
        phi = fit.phi
        lr = result.long_run["dynamic_fixed"]
        name = "hyfi_x_market_volatility"
        assert lr[name][0] == pytest.approx(fit.coef(name) / (1.0 - phi), rel=1e-12)

    def test_interaction_recovery_small(self):
        params = small_params(n_entities=8, n_periods=400)
        reps = 10
        estimates = np.empty(reps)
        for seed in range(reps):
            sim = simulate_dgp(params, seed=100 + seed)
            fragment = run_baseline(sim.metas, sim.bundle)
            estimates[seed] = fragment.fits["static_fixed"].coef(
                "hyfi_x_market_volatility"
            )
        mc_se = estimates.std(ddof=1) / math.sqrt(reps)
        truth = default_truth()["hyfi_x_market_volatility"]
        assert abs(estimates.mean() - truth) <= 3 * mc_se + 1e-9

    def test_entity_groups_built_once_per_table(self, monkeypatch):
        # the design table hashes its rows once; every design, the RE fits,
        # both EGLS stages and the Hausman inputs take subsets of it
        sim = simulate_dgp(small_params(n_entities=4, n_periods=120), seed=5)
        built, init = [], estimators._Groups.__init__

        def counting(groups, entities):
            built.append(len(entities))
            init(groups, entities)

        monkeypatch.setattr(estimators._Groups, "__init__", counting)
        table = design_table(sim.metas, sim.bundle)
        run_baseline(sim.metas, table)
        run_quantiles(sim.metas, table, (0.5,))
        assert built == [len(table.entities)]
        run_baseline(sim.metas, sim.bundle)  # a table of its own
        assert built == [len(table.entities)] * 2

    def test_window_without_an_entity_groups_like_np_unique(self):
        sim = simulate_dgp(small_params(n_entities=4, n_periods=120), seed=5)
        metas = sorted(sim.metas, key=lambda meta: meta.symbol)
        # the first entity in label order lists after the window ends
        first = sim.bundle[metas[0].symbol]
        late = {name: MetricSeries(metas[0].symbol, name, series.dates[60:],
                                   series.values[60:], series.missing[60:])
                for name, series in first.items()}
        bundle = {**sim.bundle, metas[0].symbol: late}
        table = design_table(sim.metas, bundle)
        window = (table.dates.min(), table.dates.min() + 40 * DAY)
        for spec in BASELINE_SPECS.values():
            design, _ = build_design(sim.metas, table, spec, window=window)
            assert metas[0].symbol not in set(design.entities)
            labels, codes = np.unique(design.entities, return_inverse=True)
            groups = design.groups
            assert groups.labels.dtype == labels.dtype
            assert groups.labels.tolist() == labels.tolist()
            assert groups.codes.dtype == codes.dtype
            assert np.array_equal(groups.codes, codes)
            assert np.array_equal(groups.counts, np.bincount(codes))
            assert groups.n_groups == len(labels) == len(sim.metas) - 1

    def test_hausman_equals_classical_refits(self):
        # the reference is the stated construction, refitted: classical
        # FixedEffects on the unweighted FE design (EGLS stage 1) and
        # classical RandomEffects on the RE design
        sim = simulate_dgp(small_params(n_entities=4, n_periods=120), seed=5)
        fragment = run_baseline(sim.metas, sim.bundle)
        for label in ("static", "dynamic"):
            fe_design, _ = build_design(sim.metas, sim.bundle, BASELINE_SPECS[f"{label}_fixed"])
            re_design, _ = build_design(sim.metas, sim.bundle, BASELINE_SPECS[f"{label}_random"])
            fe = FixedEffects(covariance="classical").fit(fe_design).result_
            re = RandomEffects(covariance="classical").fit(re_design).result_
            assert fragment.hausman[label] == hausman(fe, re)

    def test_hausman_reads_the_battery_fits(self, monkeypatch):
        # per label: the RE fit and its Swamy-Arora within regression, and
        # the EGLS stage-1 and stage-2 FE fits, each one factorization;
        # nothing is refitted
        sim = simulate_dgp(small_params(n_entities=4, n_periods=120), seed=5)
        calls = []

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name if owner is estimators else owner.__name__)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(estimators, "pivoted_qr")
        counting(FixedEffects, "fit")
        counting(RandomEffects, "fit")
        run_baseline(sim.metas, sim.bundle)
        assert calls.count("pivoted_qr") == 8
        assert calls.count("FixedEffects") == 4
        assert calls.count("RandomEffects") == 2

    def test_hausman_without_residual_dof_names_the_job(self):
        # four window days of three entities; the first entity's response is
        # missing the day before the window, so its first dynamic row has no
        # lag and the dynamic FE fit has 11 rows for 8 slopes and 3 effects
        sim = simulate_dgp(small_params(n_entities=3), seed=13)
        start = np.datetime64("2020-03-02")
        series = sim.bundle[sim.metas[0].symbol]["price_risk"]
        before = np.flatnonzero(series.dates == start - np.timedelta64(1, "D"))
        series.values[before] = np.nan
        series.missing[before] = True
        with pytest.raises(ValueError, match="baseline/dynamic_fixed: no residual degrees"):
            run_baseline(sim.metas, sim.bundle, window=(start, start + np.timedelta64(3, "D")))

    def test_variance_components_reported(self, fragment):
        _, result = fragment
        vc = result.fits["static_random"].variance_components
        assert vc.rho_alpha + vc.rho_idiosyncratic == pytest.approx(1.0, abs=1e-12)

    def test_hausman_size_on_re_consistent_dgp(self):
        # alpha independent of regressors: RE is consistent, rejection ~ 5%
        rng = np.random.default_rng(31)
        reps = 300
        n_entities, t = 10, 40
        rejections = 0
        from panelcrypt.estimators import DesignMatrix

        for _ in range(reps):
            alphas = rng.normal(0, 0.5, size=n_entities)
            rows_y, rows_x, ents = [], [], []
            for i in range(n_entities):
                x = rng.normal(size=(t, 2))
                y = x @ np.array([0.5, -0.3]) + alphas[i] + rng.normal(size=t)
                rows_y.append(y)
                rows_x.append(x)
                ents.append(np.full(t, f"E{i}", dtype=object))
            base = DesignMatrix(
                response=np.concatenate(rows_y),
                matrix=np.vstack(rows_x),
                columns=["x0", "x1"],
                entities=np.concatenate(ents),
            )
            with_const = DesignMatrix(
                response=base.response,
                matrix=np.column_stack([np.ones(base.nobs), base.matrix]),
                columns=["const", "x0", "x1"],
                entities=base.entities,
            )
            fe = FixedEffects(covariance="classical").fit(base).result_
            re = RandomEffects(covariance="classical").fit(with_const).result_
            test = hausman(fe, re)
            rejections += test.p_value < 0.05
        rate = rejections / reps
        assert abs(rate - 0.05) < 0.04


class TestQuantileBattery:
    def test_path_shape_and_isolation(self):
        sim = simulate_dgp(small_params(n_entities=6, n_periods=250), seed=41)
        fragment = run_quantiles(sim.metas, sim.bundle, (0.10, 0.25, 0.50, 0.75, 0.90))
        assert not fragment.errors
        assert sorted(fragment.fits) == [0.10, 0.25, 0.50, 0.75, 0.90]
        for fit in fragment.fits.values():
            assert fit.columns[0] == "const"
            assert "hyfi" in fit.columns
            assert len(fit.columns) == len(CONTROLS) + 2
        # combined path: one row per (tau, term) -> five rows per term
        from panelcrypt.pipeline import figure6_rows

        rows = figure6_rows(fragment.fits)
        per_term = {}
        for row in rows:
            per_term[row[1]] = per_term.get(row[1], 0) + 1
        assert set(per_term.values()) == {5}

    def test_tau_increasing_effect_recovered(self):
        # location-scale DGP: hyfi scales the noise down, so the hyfi
        # coefficient becomes more negative at higher quantiles
        rng = np.random.default_rng(43)
        sim = simulate_dgp(small_params(n_entities=8, n_periods=400), seed=47)
        hyfi_flags = {m.symbol: m.hyfi for m in sim.metas}
        for symbol, per in sim.bundle.items():
            if symbol == "MARKET" or not hyfi_flags.get(symbol, False):
                continue
            series = per["price_risk"]
            ok = ~series.missing
            center = np.nanmean(series.values[ok])
            series.values[ok] = center + 0.4 * (series.values[ok] - center) - 0.01
        fragment = run_quantiles(sim.metas, sim.bundle, (0.10, 0.50, 0.90))
        path = [fragment.fits[tau].coef("hyfi") for tau in (0.10, 0.50, 0.90)]
        assert path[0] > path[1] > path[2]


class TestSplit:
    def test_benchmark_shape_split_day_counts(self):
        # full benchmark calendar: one differencing day lost per entity,
        # estimation days split 856 / 933 around 2022-05-07
        sim = simulate_dgp(SynthParams(), seed=71)
        fragment = run_split(sim.metas, sim.bundle, "2022-05-07")
        assert fragment.pre.n_days["static_fixed"] == 856
        assert fragment.post.n_days["static_fixed"] == 933
        total = (fragment.pre.fits["static_fixed"].nobs
                 + fragment.post.fits["static_fixed"].nobs)
        assert total == 30923

    def test_day_counts_and_attenuation(self):
        sim = simulate_dgp(small_params(n_entities=5, n_periods=200), seed=51)
        fragment = run_split(sim.metas, sim.bundle, "2020-04-01")
        assert fragment.pre.n_days["static_fixed"] > 0
        assert fragment.post.n_days["static_fixed"] > 0
        assert set(fragment.attenuation) == {"pre", "post"}
        total = (fragment.pre.fits["static_fixed"].nobs
                 + fragment.post.fits["static_fixed"].nobs)
        full = run_baseline(sim.metas, sim.bundle)
        assert total == full.fits["static_fixed"].nobs

    def test_split_outside_range_rejected(self):
        sim = simulate_dgp(small_params(), seed=53)
        with pytest.raises(ValueError, match="outside panel range"):
            run_split(sim.metas, sim.bundle, "2030-01-01")

    @pytest.mark.parametrize("split_date, message", [
        # in the market warm-up and on the first entity day: no pre-split rows
        ("2019-12-15", r"split_date 2019-12-15 outside panel range \(2020-01-01, 2020-02-29\]"),
        ("2020-01-01", r"split_date 2020-01-01 outside panel range \(2020-01-01, 2020-02-29\]"),
        # one pre-split day whose response is still missing
        ("2020-01-02", r"split_date 2020-01-02: window 2020-01-01 to 2020-01-01: design matrix"
                       r" is empty after dropping incomplete rows"),
    ], ids=["market-warm-up", "first-entity-day", "one-day-before"])
    def test_split_range_from_the_design_rows(self, split_date, message):
        # entities from 2020-01-01, the market from a month earlier
        sim = simulate_dgp(SynthParams(n_entities=3, n_periods=60,
                                       use_benchmark_universe=False), seed=1)
        with pytest.raises(ValueError, match=message):
            run_split(sim.metas, sim.bundle, split_date)

    def test_stationary_dgp_pre_post_agree(self):
        params = small_params(n_entities=8, n_periods=500)
        reps = 8
        gaps = np.empty(reps)
        spreads = np.empty(reps)
        for seed in range(reps):
            sim = simulate_dgp(params, seed=200 + seed)
            fragment = run_split(sim.metas, sim.bundle, "2020-09-01")
            pre, post = fragment.attenuation["pre"], fragment.attenuation["post"]
            gaps[seed] = pre[0] - post[0]
            spreads[seed] = math.hypot(pre[1], post[1])
        mc_se = gaps.std(ddof=1) / math.sqrt(reps)
        assert abs(gaps.mean()) <= 3 * mc_se + 1e-9


class TestFigures:
    def test_fig4_difference_identity(self):
        intercept, slope_non, slope_hyfi, phi = 0.035, 0.3728, 0.0950, 0.2918
        rows = figure4_rows(intercept, slope_non, slope_hyfi, phi)
        beta_int = slope_hyfi - slope_non
        for row in rows:
            x = row[0]
            assert row[3] == pytest.approx(beta_int * x, abs=1e-12)
            assert row[6] == pytest.approx(beta_int / (1.0 - phi) * x, abs=1e-12)

    def test_fig4_zero_point_equals_intercept(self):
        rows = figure4_rows(0.042, 0.4, 0.1, 0.3)
        at_zero = [row for row in rows if row[0] == 0.0]
        assert len(at_zero) == 1
        row = at_zero[0]
        assert row[1] == row[2] == row[4] == row[5] == 0.042

    def test_reference_figures_reproduce_benchmarks(self):
        reference = reference_figures()
        fig6 = {(row[0], row[1]): row[2] for row in reference["fig6"]}
        assert fig6[(0.10, "hyfi")] == -0.0074
        assert fig6[(0.25, "hyfi")] == -0.0092
        assert fig6[(0.50, "hyfi")] == -0.0118
        assert fig6[(0.75, "hyfi")] == -0.0141
        assert fig6[(0.90, "hyfi")] == -0.0167
        fig7 = {row[0]: row[1] for row in reference["fig7"]}
        assert fig7["pre"] == -0.3191
        assert fig7["post"] == -0.2869
        # implied slopes: 0.3728 / 0.0950 short-run, 0.5264 / 0.1341 long-run
        fig5 = {(r[0], r[1], r[2]): r[3] for r in reference["fig5"]}
        assert fig5[("dynamic_fixed", "short", "nonhyfi")] == pytest.approx(0.3728)
        assert fig5[("dynamic_fixed", "short", "hyfi")] == pytest.approx(0.0950)
        assert fig5[("dynamic_fixed", "long", "nonhyfi")] == pytest.approx(0.5264, abs=5e-5)
        assert fig5[("dynamic_fixed", "long", "hyfi")] == pytest.approx(0.1341, abs=5e-5)
        assert len(reference["fig4"]) == len(FIG4_GRID)


class TestReport:
    def write_inputs(self, tmp_path, seed=61):
        sim = simulate_dgp(small_params(n_entities=5, n_periods=160), seed=seed)
        data_dir = tmp_path / "data"
        write_simulation(sim, data_dir)
        return data_dir

    def write_config(self, tmp_path, data_dir, out):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "\n".join(
                [
                    f"metrics = {data_dir / 'metrics.csv'}",
                    f"meta = {data_dir / 'meta.csv'}",
                    f"out = {out}",
                    "seed = 7",
                    "split_date = 2020-04-01",
                    "taus = 0.25,0.50,0.75",
                ]
            )
            + "\n"
        )
        return config_path

    def snapshot(self, outdir):
        files = {}
        for root, _dirs, names in os.walk(outdir):
            for name in sorted(names):
                path = os.path.join(root, name)
                files[os.path.relpath(path, outdir)] = open(path, "rb").read()
        return files

    def test_report_runs_and_is_deterministic(self, tmp_path):
        data_dir = self.write_inputs(tmp_path)
        out = tmp_path / "report"
        config = parse_config(self.write_config(tmp_path, data_dir, out))
        run_report(config)
        first = self.snapshot(out)
        expected = {
            "manifest.txt",
            os.path.join("tables", "descriptives.csv"),
            os.path.join("tables", "correlations.csv"),
            os.path.join("tables", "unit_roots.csv"),
            os.path.join("tables", "dependence.csv"),
            os.path.join("tables", "baseline_coefficients.csv"),
            os.path.join("tables", "baseline_fitstats.csv"),
            os.path.join("tables", "baseline_summary.txt"),
            os.path.join("tables", "quantile_coefficients.csv"),
            os.path.join("tables", "quantile_fitstats.csv"),
            os.path.join("tables", "quantile_path.csv"),
            os.path.join("tables", "split_coefficients.csv"),
            os.path.join("tables", "split_fitstats.csv"),
            os.path.join("figures", "fig4.csv"),
            os.path.join("figures", "fig5.csv"),
            os.path.join("figures", "fig6.csv"),
            os.path.join("figures", "fig7.csv"),
            os.path.join("figures", "reference_fig4.csv"),
            os.path.join("figures", "reference_fig5.csv"),
            os.path.join("figures", "reference_fig6.csv"),
            os.path.join("figures", "reference_fig7.csv"),
        }
        assert expected.issubset(set(first))
        run_report(config)
        second = self.snapshot(out)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

    def test_failed_battery_leaves_no_bundle(self, tmp_path, monkeypatch):
        # a split on the first entity day is refused by run_split, after the
        # diagnostics, baseline and quantile batteries have run
        data_dir = self.write_inputs(tmp_path)
        out = tmp_path / "report"
        config = parse_config(self.write_config(tmp_path, data_dir, out))
        metas, bundle, _ = pipeline.load_inputs(config)
        config = replace(config, split_date=str(design_table(metas, bundle).dates.min()))
        ran, run_quantiles = [], pipeline.run_quantiles

        def counting(*args):
            ran.append(args)
            return run_quantiles(*args)

        monkeypatch.setattr(pipeline, "run_quantiles", counting)
        with pytest.raises(ValueError, match="outside panel range"):
            run_report(config)
        assert len(ran) == 1
        assert self.snapshot(out) == {}

    def test_manifest_names_the_files_written(self, tmp_path):
        data_dir = self.write_inputs(tmp_path)
        out = tmp_path / "report"
        run_report(parse_config(self.write_config(tmp_path, data_dir, out)))
        lines = (out / "manifest.txt").read_text().splitlines()
        diagnostics = [line.split(": ", 1)[1].split(", ") for line in lines
                       if line.startswith("job diagnostics: ")]
        assert len(diagnostics) == 1 and len(diagnostics[0]) == 4
        figures = [ast.literal_eval(line.split(" files=", 1)[1]) for line in lines
                   if line.startswith("job figures: ")]
        assert len(figures) == 1
        assert sorted(figures[0]) == sorted(os.listdir(out / "figures"))
        tables = {f"tables/{name}" for name in os.listdir(out / "tables")}
        assert set(diagnostics[0]) <= tables
        # every other table belongs to the baseline, quantile or split battery
        rest = {name.split("/")[1] for name in tables - set(diagnostics[0])}
        for prefix in ("baseline_", "quantile_", "split_"):
            assert any(name.startswith(prefix) for name in rest), prefix
        assert all(name.startswith(("baseline_", "quantile_", "split_")) for name in rest)
        assert not any(line.startswith("  with_") for line in lines)

    def test_bundle_matches_the_readme_layout(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Report bundle layout", 1)[1].split("```")[1]
        documented, folder = [], ""
        for line in block.splitlines():
            name = line.split()[0] if line.strip() else ""
            if name.endswith("/"):
                folder = "" if name == "report/" else name
            elif "." in name:
                documented.append(folder + name)
        data_dir = self.write_inputs(tmp_path)
        out = tmp_path / "report"
        run_report(parse_config(self.write_config(tmp_path, data_dir, out)))
        written = [path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()]
        for path in written:
            assert len([p for p in documented if fnmatch.fnmatchcase(path, p)]) == 1, path
        for pattern in documented:
            assert any(fnmatch.fnmatchcase(path, pattern) for path in written), pattern

    def test_diagnostics_read_the_report_table(self, tmp_path, monkeypatch):
        # one design table serves every design of the report; the diagnostics
        # align each per-entity variable once more, onto the bundle's
        # calendar, and take everything else from the report's table
        data_dir = self.write_inputs(tmp_path)
        config = parse_config(self.write_config(tmp_path, data_dir, tmp_path / "report"))
        names, aligned = [], pipeline._aligned

        def counting(series, dates):
            names.append(series.name)
            return aligned(series, dates)

        monkeypatch.setattr(pipeline, "_aligned", counting)
        run_report(config)
        per_entity = ["price_risk", *(c for c in CONTROLS if c not in MARKET_METRICS)]
        expected = {**dict.fromkeys(per_entity, 10), **dict.fromkeys(MARKET_METRICS, 5)}
        assert Counter(names) == expected

    def test_failed_adf_is_an_error_row(self):
        # like a failed CIPS, a failed ADF is isolated to its own row
        sim = simulate_dgp(small_params(n_entities=3, n_periods=120), seed=52)
        bundle = dict(sim.bundle)
        market = dict(bundle[MARKET_SYMBOL])
        shocks = market["market_shocks"]
        market["market_shocks"] = replace(shocks, dates=shocks.dates[-6:],
                                          values=shocks.values[-6:],
                                          missing=shocks.missing[-6:])
        bundle[MARKET_SYMBOL] = market
        tables = pipeline._emit_diagnostics(sim.metas, bundle, design_table(sim.metas, bundle))
        rows = {row[:2]: row for row in tables["unit_roots.csv"][1]}
        error = rows[("market_shocks", "adf_error")]
        assert math.isnan(error[2]) and math.isnan(error[3])
        assert error[4:] == ("series too short (6) for max_lag=4", 0.0)
        assert ("market_volatility", "adf") in rows

    def test_descriptives_flag_says_why_a_moment_is_nan(self):
        # no token is HyFi, so the hyfi column is constant: describe flags it
        # degenerate, and the row carries the flag next to its NaN moments
        sim = simulate_dgp(small_params(n_entities=3, n_periods=120), seed=53)
        metas = [replace(meta, hyfi=False) for meta in sim.metas]
        tables = pipeline._emit_diagnostics(metas, sim.bundle, design_table(metas, sim.bundle))
        header, rows = tables["descriptives.csv"]
        assert header[-2:] == ("nobs", "flags")
        by_name = {row[0]: row for row in rows}
        hyfi = by_name["hyfi"]
        assert math.isnan(hyfi[6]) and math.isnan(hyfi[7])
        assert hyfi[-1] == "degenerate"
        assert all(row[-1] == "" for name, row in by_name.items() if name != "hyfi")

    def test_summary_renders_the_coefficient_and_fitstat_rows(self, tmp_path):
        data_dir = self.write_inputs(tmp_path)
        out = tmp_path / "report"
        run_report(parse_config(self.write_config(tmp_path, data_dir, out)))
        tables = out / "tables"
        lines = (tables / "baseline_summary.txt").read_text().splitlines()
        width = 24

        def cells(line):
            return [line[width * i:width * (i + 1)].strip() for i in range(5)]

        assert cells(lines[0]) == ["", *BASELINE_JOBS]
        # two lines per term, then variance components, Hausman tests and
        # four statistic rows
        body = lines[2:-8]
        rows = {cells(top)[0]: (cells(top)[1:], cells(bottom)[1:])
                for top, bottom in zip(body[::2], body[1::2])}
        with open(tables / "baseline_coefficients.csv", newline="") as handle:
            coefficients = list(csv.DictReader(handle))
        seen = {}
        for row in coefficients:
            if row["fit"] not in BASELINE_JOBS:
                continue
            job = BASELINE_JOBS.index(row["fit"])
            est, se = float(row["estimate"]), float(row["se"])
            estimates, ses = rows[row["term"]]
            assert estimates[job] == f"{est:.4f}{row['stars']}"
            assert ses[job] == f"({se:.4f})"
            seen.setdefault(row["term"], set()).add(job)
        # terms in first-seen order; a job without the term shows "-"
        assert list(rows) == list(seen)
        for term, (estimates, ses) in rows.items():
            for job in set(range(4)) - seen[term]:
                assert estimates[job] == "-" and ses[job] == ""
        with open(tables / "baseline_fitstats.csv", newline="") as handle:
            fitstats = {(r["fit"], r["statistic"]): float(r["value"])
                        for r in csv.DictReader(handle)}
        by_caption = {cells(line)[0]: cells(line)[1:] for line in lines}
        for statistic, spec in (("adj_r2", ".4f"), ("nobs", ".0f"), ("n_entities", ".0f")):
            assert by_caption[statistic] == [
                format(fitstats[(job, statistic)], spec) for job in BASELINE_JOBS
            ]

    def test_config_parser_round_trip(self, tmp_path):
        data_dir = self.write_inputs(tmp_path)
        config_path = self.write_config(tmp_path, data_dir, tmp_path / "o")
        config = parse_config(config_path)
        assert config.taus == (0.25, 0.50, 0.75)
        assert config.split_date == "2020-04-01"
        assert config.seed == 7

    def test_config_rejects_unknown_keys(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(bad)

    @pytest.mark.parametrize("key", ["with_baseline", "with_quantiles", "with_split",
                                     "with_diagnostics", "with_reference_figures"])
    def test_config_rejects_removed_battery_toggles(self, tmp_path, key):
        # a report always runs every battery
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"metrics = m.csv\nmeta = m.csv\n{key} = false\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:3: unknown config key '{key}'"):
            parse_config(bad)

    @pytest.mark.parametrize("key", ["standardize_figures", "raw_volatility_in_fits"])
    def test_config_rejects_removed_figure_keys(self, tmp_path, key):
        # fits use raw volatility and figures the z-scored axis, always
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"metrics = m.csv\nmeta = m.csv\n{key} = true\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:3: unknown config key '{key}'"):
            parse_config(bad)

    def test_config_keys_match_readme_and_run_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Report config keys", 1)[1].split("```")[1]
        documented = set()
        for line in block.splitlines():
            names = line.split("  ", 1)[0].strip()
            documented.update(name.strip() for name in names.split("/") if name.strip())
        assert documented == set(pipeline._CONFIG_KEYS)
        targets = {target for target, _ in pipeline._CONFIG_KEYS.values()}
        assert {f.name for f in fields(RunConfig)} == targets

    def test_config_rejects_repeated_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("metrics = m.csv\nmeta = m.csv\nseed = 1\n\nseed = 2\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:5: seed already set at line 3"):
            parse_config(bad)

    def test_config_requires_inputs(self):
        with pytest.raises(ValueError, match="needs either"):
            RunConfig(out="x")

    @pytest.mark.parametrize("text", ["today", "2020", "2020-13-01", "NaT", "2020-04-01T00:00"])
    def test_config_split_date_checked_at_its_line(self, tmp_path, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"metrics = m.csv\nmeta = m.csv\nsplit_date = {text}\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:3: split_date: unparseable date"):
            parse_config(bad)
        with pytest.raises(ValueError, match="split_date"):
            RunConfig(metrics_file="m.csv", meta="m.csv", split_date=text)

    @pytest.mark.parametrize("key, value", [("weights", "cross_section_egls"),
                                            ("covariance", "white")])
    def test_config_rejects_removed_spec_keys(self, tmp_path, key, value):
        # the report's specification is BASELINE_SPECS, whatever the config
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"metrics = m.csv\nmeta = m.csv\n{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:3: unknown config key '{key}'"):
            parse_config(bad)

    @pytest.mark.parametrize("line, message", [
        ("taus = 0.1,1.5", r"tau 1\.5 outside \(0, 1\)"),
        ("taus = 0,0.5", r"tau 0\.0 outside \(0, 1\)"),
        ("taus = nan", r"tau nan outside \(0, 1\)"),
        ("taus =", r"at least one tau is needed"),
        ("taus = 0.1,,0.5", r"could not convert string to float: ''"),
    ], ids=["above-one", "zero", "nan", "empty", "empty-item"])
    def test_config_taus_checked_at_their_line(self, tmp_path, line, message):
        # checked when the config is read: its input files do not exist
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"metrics = m.csv\nmeta = m.csv\n{line}\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:3: taus: {message}$"):
            parse_config(bad)

    def test_config_refuses_both_input_modes(self, tmp_path):
        # a report reads the panel or the metrics files, never both
        bad = tmp_path / "bad.cfg"
        bad.write_text("panel = p.csv\nmetrics = m.csv\nmeta = m.csv\n")
        with pytest.raises(ValueError, match="config sets panel= and metrics=/meta="):
            parse_config(bad)
        with pytest.raises(ValueError, match="config sets panel= and metrics=/meta="):
            RunConfig(panel="p.csv", meta="m.csv")

    @pytest.mark.parametrize("line, message", [
        ("seed = seven", r"bad\.cfg:3: seed: invalid literal for int\(\)"),
        ("taus = 0.1,x", r"bad\.cfg:3: taus: could not convert string to float: 'x'"),
    ])
    def test_config_bad_value_named_at_its_line(self, tmp_path, line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"metrics = m.csv\nmeta = m.csv\n{line}\n")
        with pytest.raises(ValueError, match=message):
            parse_config(bad)

    def test_dotted_split_date_splits_on_the_same_day(self):
        sim = simulate_dgp(small_params(n_entities=3, n_periods=120), seed=52)
        fragments = [run_split(sim.metas, sim.bundle, text) for text in ("2020-03-01", "1.3.2020")]
        assert fragments[0].split_date == fragments[1].split_date == "2020-03-01"
        assert fragments[0].attenuation == fragments[1].attenuation
