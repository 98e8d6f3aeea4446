"""Design assembly, synthetic generation, batteries and figure identities."""

import math
import os

import numpy as np
import pytest

from panelcrypt.estimators import FixedEffects, ModelSpec, hausman
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

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(phi=1.0)
        with pytest.raises(ValueError):
            SynthParams(sigma_low=0.0)
        with pytest.raises(ValueError):
            SynthParams(n_entities=1)


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
