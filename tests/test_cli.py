"""End-to-end CLI coverage on small synthetic inputs."""

import csv

import numpy as np
import pytest

from panelcrypt.base import ConvergenceError
from panelcrypt.cli import main
from panelcrypt.quantreg import PanelQuantile

from conftest import build_panel_files


@pytest.fixture
def panel_file(tmp_path):
    rng = np.random.default_rng(91)
    specs = [("AAA", True, "2020-01-01", 120), ("BBB", False, "2020-01-01", 120),
             ("CCC", False, "2020-01-15", 106), ("DDD", False, "2020-01-01", 120)]
    entity_files, market_file, meta_file = build_panel_files(tmp_path, rng, specs)
    out = tmp_path / "panel.csv"
    code = main([
        "ingest",
        "--meta", meta_file,
        "--market", market_file,
        "--entities", str(tmp_path / "entities"),
        "--out", str(out),
    ])
    assert code == 0
    return out


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_ingest_creates_consolidated_panel(panel_file):
    rows = read_csv_rows(panel_file)
    assert rows[0][0] == "entity"
    entities = {row[0] for row in rows[1:]}
    assert {"AAA", "BBB", "CCC", "DDD", "MARKET"} <= entities


def test_metrics_command(tmp_path, panel_file):
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--panel", str(panel_file), "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert rows[0] == ["entity", "date", "metric", "value"]
    names = {row[2] for row in rows[1:]}
    assert {"price_risk", "illiquidity", "size", "attractiveness",
            "decentralization", "market_volatility", "market_shocks"} <= names


def test_gini_command(tmp_path, capsys):
    dist = tmp_path / "dist.txt"
    dist.write_text("1\n2\n3\n4\n")
    assert main(["gini", "--dist", str(dist)]) == 0
    assert capsys.readouterr().out.strip() == "0.250000"


def test_decentralization_command(tmp_path, panel_file):
    out = tmp_path / "decentralization.csv"
    assert main(["decentralization", "--panel", str(panel_file), "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert rows[0] == ["entity", "date", "composite", "orthogonalized"]
    assert len(rows) > 100


def test_fit_command(tmp_path, panel_file):
    spec = tmp_path / "model.cfg"
    spec.write_text(
        "effects = fixed\nweights = cross_section_egls\ndynamic = false\n"
        "covariance = white\ninteractions = hyfi*market_volatility\n"
    )
    out = tmp_path / "fit"
    assert main(["fit", "--panel", str(panel_file), "--spec", str(spec),
                 "--out", str(out)]) == 0
    rows = read_csv_rows(out / "coefficients.csv")
    assert rows[0] == ["term", "estimate", "se", "stars"]
    terms = {row[0] for row in rows[1:]}
    assert "hyfi_x_market_volatility" in terms
    assert (out / "covariance.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "adj r-squared" in summary
    assert "rows_in=" in summary


def test_fit_dynamic_random(tmp_path, panel_file):
    spec = tmp_path / "dyn.cfg"
    spec.write_text("effects = random\ndynamic = true\nregressors = "
                    + ",".join(["decentralization", "attractiveness", "size",
                                "illiquidity", "market_volatility", "market_shocks",
                                "hyfi"]) + "\n")
    out = tmp_path / "dynfit"
    assert main(["fit", "--panel", str(panel_file), "--spec", str(spec),
                 "--out", str(out)]) == 0
    rows = read_csv_rows(out / "coefficients.csv")
    assert any(row[0] == "price_risk_lag" for row in rows[1:])


def test_quantile_command(tmp_path, panel_file):
    out = tmp_path / "quantiles"
    assert main(["quantile", "--panel", str(panel_file), "--taus", "0.25,0.75",
                 "--out", str(out)]) == 0
    assert (out / "quantile_tau0.25.csv").exists()
    assert (out / "quantile_tau0.75.csv").exists()
    path_rows = read_csv_rows(out / "path.csv")
    assert path_rows[0] == ["tau", "term", "estimate", "se"]
    taus = {row[0] for row in path_rows[1:]}
    assert taus == {"0.25", "0.75"}
    # five terms per tau: const + 6 controls + hyfi
    per_tau = [row for row in path_rows[1:] if row[0] == "0.25"]
    assert len(per_tau) == 8


def test_diagnose_command(tmp_path, panel_file):
    out = tmp_path / "diagnostics"
    assert main(["diagnose", "--panel", str(panel_file), "--out", str(out)]) == 0
    for name in ("descriptives.csv", "correlations.csv", "unit_roots.csv",
                 "dependence.csv"):
        assert (out / name).exists()


def test_simulate_and_report_round_trip(tmp_path):
    sim_dir = tmp_path / "sim"
    params = tmp_path / "params.cfg"
    params.write_text(
        "n_entities = 5\nn_periods = 160\nuse_benchmark_universe = false\n"
        "sigma_alpha = 0.01\nsigma_low = 0.006\nsigma_high = 0.02\n"
    )
    assert main(["simulate", "--params", str(params), "--seed", "3",
                 "--out", str(sim_dir)]) == 0
    assert (sim_dir / "metrics.csv").exists()
    assert (sim_dir / "meta.csv").exists()

    out = tmp_path / "report"
    config = tmp_path / "report.cfg"
    config.write_text(
        f"metrics = {sim_dir / 'metrics.csv'}\n"
        f"meta = {sim_dir / 'meta.csv'}\n"
        f"out = {out}\n"
        "seed = 3\n"
        "split_date = 2020-04-01\n"
        "taus = 0.25,0.50,0.75\n"
    )
    assert main(["report", "--config", str(config)]) == 0
    assert (out / "manifest.txt").exists()
    assert (out / "tables" / "baseline_summary.txt").exists()


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--seed", "9", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "9", "--out", str(b)]) == 0
    for name in ("metrics.csv", "meta.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_error_reporting(tmp_path, capsys):
    code = main(["report", "--config", str(tmp_path / "missing.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solver_failure_reported(tmp_path, panel_file, capsys, monkeypatch):
    def diverge(self, design):
        raise ConvergenceError("interior-point solver produced a non-finite iterate")

    monkeypatch.setattr(PanelQuantile, "fit", diverge)
    code = main(["quantile", "--panel", str(panel_file), "--taus", "0.5",
                 "--out", str(tmp_path / "quantiles")])
    assert code == 1
    assert "error: interior-point solver produced a non-finite iterate" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["regressors = size,bogus", "interactions = hyfi*bogus"])
def test_unknown_spec_name_reported(tmp_path, panel_file, capsys, line):
    spec = tmp_path / "bogus.cfg"
    spec.write_text(f"effects = pooled\n{line}\n")
    code = main(["fit", "--panel", str(panel_file), "--spec", str(spec),
                 "--out", str(tmp_path / "fit")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: model spec names unknown metric 'bogus'" in err
    assert "available: " in err and "market_volatility" in err
    assert not (tmp_path / "fit").exists()
