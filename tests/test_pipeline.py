"""Design assembly, synthetic generation, batteries and figure identities."""

import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcrypt.estimators import FixedEffects, ModelSpec, hausman
from panelcrypt.metrics import MetricSeries
from panelcrypt.panel import PanelLoadError
from panelcrypt.pipeline import (
    CONTROLS,
    FIG4_GRID,
    RunConfig,
    SynthParams,
    build_design,
    default_truth,
    figure4_rows,
    parse_config,
    read_metrics_csv,
    reference_figures,
    run_baseline,
    run_quantiles,
    run_report,
    run_split,
    simulate_dgp,
    write_metrics_csv,
    write_simulation,
)


def small_params(**overrides):
    base = dict(n_entities=5, n_periods=150, use_benchmark_universe=False,
                sigma_alpha=0.01, sigma_low=0.006, sigma_high=0.02)
    base.update(overrides)
    return SynthParams(**base)


@pytest.fixture(scope="module")
def small_sim():
    return simulate_dgp(small_params(), seed=11)


class TestBuildDesign:
    def test_fe_excludes_hyfi_main_effect(self, small_sim):
        spec = ModelSpec(effects="fixed", regressors=list(CONTROLS) + ["hyfi"],
                         interactions=[("hyfi", "market_volatility")])
        design, ledger = build_design(small_sim.metas, small_sim.bundle, spec)
        assert "hyfi" not in design.columns
        assert "hyfi_x_market_volatility" in design.columns
        assert any("absorbed" in note for note in ledger.notes)

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
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


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


def csv_line(fields):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
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


@pytest.fixture(scope="module")
def fragment():
    sim = simulate_dgp(small_params(n_entities=6, n_periods=300), seed=21)
    config = RunConfig(metrics_file="unused", meta="unused", out="unused")
    return sim, run_baseline(sim.metas, sim.bundle, config)


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
        config = RunConfig(metrics_file="unused", meta="unused", out="unused")
        reps = 10
        estimates = np.empty(reps)
        for seed in range(reps):
            sim = simulate_dgp(params, seed=100 + seed)
            fragment = run_baseline(sim.metas, sim.bundle, config)
            estimates[seed] = fragment.fits["static_fixed"].coef(
                "hyfi_x_market_volatility"
            )
        mc_se = estimates.std(ddof=1) / math.sqrt(reps)
        truth = default_truth()["hyfi_x_market_volatility"]
        assert abs(estimates.mean() - truth) <= 3 * mc_se + 1e-9

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
        from panelcrypt.estimators import DesignMatrix, RandomEffects

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
        config = RunConfig(metrics_file="unused", meta="unused", out="unused")
        fragment = run_quantiles(sim.metas, sim.bundle, config)
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
        config = RunConfig(metrics_file="unused", meta="unused", out="unused",
                           taus=(0.10, 0.50, 0.90))
        fragment = run_quantiles(sim.metas, sim.bundle, config)
        path = [fragment.fits[tau].coef("hyfi") for tau in (0.10, 0.50, 0.90)]
        assert path[0] > path[1] > path[2]


class TestSplit:
    def test_benchmark_shape_split_day_counts(self):
        # full benchmark calendar: one differencing day lost per entity,
        # estimation days split 856 / 933 around 2022-05-07
        sim = simulate_dgp(SynthParams(), seed=71)
        config = RunConfig(metrics_file="unused", meta="unused", out="unused")
        fragment = run_split(sim.metas, sim.bundle, config)
        assert fragment.pre.n_days["static_fixed"] == 856
        assert fragment.post.n_days["static_fixed"] == 933
        total = (fragment.pre.fits["static_fixed"].nobs
                 + fragment.post.fits["static_fixed"].nobs)
        assert total == 30923

    def test_day_counts_and_attenuation(self):
        sim = simulate_dgp(small_params(n_entities=5, n_periods=200), seed=51)
        config = RunConfig(metrics_file="unused", meta="unused", out="unused",
                           split_date="2020-04-01")
        fragment = run_split(sim.metas, sim.bundle, config)
        assert fragment.pre.n_days["static_fixed"] > 0
        assert fragment.post.n_days["static_fixed"] > 0
        assert set(fragment.attenuation) == {"pre", "post"}
        total = (fragment.pre.fits["static_fixed"].nobs
                 + fragment.post.fits["static_fixed"].nobs)
        full = run_baseline(sim.metas, sim.bundle, config)
        assert total == full.fits["static_fixed"].nobs

    def test_split_outside_range_rejected(self):
        sim = simulate_dgp(small_params(), seed=53)
        config = RunConfig(metrics_file="unused", meta="unused", out="unused",
                           split_date="2030-01-01")
        with pytest.raises(ValueError, match="outside panel range"):
            run_split(sim.metas, sim.bundle, config)

    def test_stationary_dgp_pre_post_agree(self):
        params = small_params(n_entities=8, n_periods=500)
        config = RunConfig(metrics_file="unused", meta="unused", out="unused",
                           split_date="2020-09-01")
        reps = 8
        gaps = np.empty(reps)
        spreads = np.empty(reps)
        for seed in range(reps):
            sim = simulate_dgp(params, seed=200 + seed)
            fragment = run_split(sim.metas, sim.bundle, config)
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

    @pytest.mark.parametrize("key, value", [("weights", "bogus"), ("covariance", "hc3")])
    def test_config_rejects_unknown_choice_at_parse_time(self, tmp_path, key, value):
        # rejected even when no battery that reads the key would run
        bad = tmp_path / "bad.cfg"
        bad.write_text("metrics = m.csv\nmeta = m.csv\nwith_baseline = false\n"
                       f"with_split = false\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{key} must be one of"):
            parse_config(bad)

    def test_dotted_split_date_splits_on_the_same_day(self):
        sim = simulate_dgp(small_params(n_entities=3, n_periods=120), seed=52)
        fragments = [
            run_split(sim.metas, sim.bundle,
                      RunConfig(metrics_file="m.csv", meta="m.csv", split_date=text))
            for text in ("2020-03-01", "1.3.2020")
        ]
        assert fragments[0].split_date == fragments[1].split_date == "2020-03-01"
        assert fragments[0].attenuation == fragments[1].attenuation
