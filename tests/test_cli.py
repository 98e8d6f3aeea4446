"""End-to-end CLI coverage on small synthetic inputs."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import panelcrypt
from panelcrypt import cli, pipeline
from panelcrypt import metrics as mx
from panelcrypt.base import ConvergenceError
from panelcrypt.cli import _parse_model_spec, _parse_synth_params, main
from panelcrypt.decentralization import composite_index
from panelcrypt.panel import (
    META_HEADER,
    load_panel,
    load_panel_csv,
    parse_bool,
    read_meta_csv,
    write_panel_csv,
)
from panelcrypt.pipeline import parse_config, write_meta_csv
from panelcrypt.quantreg import PanelQuantile

from conftest import CELL_TEXTS, PROPERTY_SETTINGS, build_panel_files


PANEL_SPECS = [("AAA", True, "2020-01-01", 120), ("BBB", False, "2020-01-01", 120),
               ("CCC", False, "2020-01-15", 106), ("DDD", False, "2020-01-01", 120)]


@pytest.fixture
def panel_file(tmp_path):
    rng = np.random.default_rng(91)
    entity_files, market_file, meta_file = build_panel_files(tmp_path, rng, PANEL_SPECS)
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
    # the header names every metric, sorted, and each entity's records read
    # back on all their dates with every column of the header, masked slots
    # included; a column the entity lacks reads back with no present value
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--panel", str(panel_file), "--out", str(out)]) == 0
    bundle = mx.compute_all_metrics(load_panel_csv(panel_file))
    names = sorted({name for rec in bundle.values() for name in rec.values})
    assert read_csv_rows(out)[0] == ["entity", "date"] + names
    assert {"price_risk", "illiquidity", "size", "attractiveness",
            "decentralization", "market_volatility", "market_shocks"} <= set(names)
    assert any(m.any() for rec in bundle.values() for m in rec.missing.values())
    loaded = pipeline.read_metrics_csv(out)
    assert sorted(loaded) == sorted(bundle)
    for entity, rec in loaded.items():
        source = bundle[entity]
        assert rec.dates.tobytes() == source.dates.tobytes()
        assert list(rec.values) == names
        for name in names:
            if name not in source.values:
                assert rec.missing[name].all()
                continue
            assert rec.values[name].tobytes() == source.values[name].tobytes()
            assert np.array_equal(rec.missing[name], source.missing[name])


def test_gini_command(tmp_path, capsys):
    dist = tmp_path / "dist.txt"
    dist.write_text("1\n2\n3\n4\n")
    assert main(["gini", "--dist", str(dist)]) == 0
    assert capsys.readouterr().out.strip() == "0.250000"


@pytest.mark.parametrize("text", ["abc", "nan", "inf", "-inf", "1_0", "\u0663"])
def test_gini_names_the_line_that_is_not_a_finite_number(tmp_path, capsys, text):
    # the blank second line is skipped but still counted
    dist = tmp_path / "dist.txt"
    dist.write_text(f"1\n\n{text}\n3\n")
    assert main(["gini", "--dist", str(dist)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a finite number: {text!r} [{dist}:3]\n"


@pytest.mark.parametrize("text", ["-2", "-1e-300"])
def test_gini_names_the_line_of_a_negative_number(tmp_path, capsys, text):
    dist = tmp_path / "dist.txt"
    dist.write_text(f"1\n{text}\n3\n")
    assert main(["gini", "--dist", str(dist)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: negative number: {text!r} [{dist}:2]\n"


# Run in a fresh interpreter, because this test session has loaded scipy.
FRESH_COMMANDS = """
import sys

import panelcrypt
from panelcrypt import cli

folder = sys.argv[1]


def run(*argv):
    assert cli.main(list(argv)) == 0, argv


run("simulate", "--params", f"{folder}/params.cfg", "--seed", "3", "--out", f"{folder}/sim")
run("ingest", "--meta", f"{folder}/meta.csv", "--market", f"{folder}/market.csv",
    "--entities", f"{folder}/entities", "--out", f"{folder}/panel.csv")
run("metrics", "--panel", f"{folder}/panel.csv", "--out", f"{folder}/metrics.csv")
run("gini", "--dist", f"{folder}/dist.txt")
run("decentralization", "--panel", f"{folder}/panel.csv", "--out", f"{folder}/dec.csv")
print("loaded:", sorted({"scipy.linalg", "scipy.special"} & set(sys.modules)))
run("fit", "--panel", f"{folder}/panel.csv", "--spec", f"{folder}/model.cfg",
    "--out", f"{folder}/fit")
"""


def test_commands_that_fit_nothing_start_without_scipy(tmp_path):
    build_panel_files(tmp_path, np.random.default_rng(91), PANEL_SPECS)
    (tmp_path / "params.cfg").write_text(
        "n_entities = 3\nn_periods = 60\nuse_benchmark_universe = false\n"
    )
    (tmp_path / "dist.txt").write_text("1\n2\n3\n")
    (tmp_path / "model.cfg").write_text("effects = fixed\nweights = cross_section_egls\n")
    src = str(Path(panelcrypt.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_COMMANDS, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "loaded: []" in done.stdout.splitlines()
    # the fit that follows loads scipy and writes what an in-session fit writes
    assert main(["fit", "--panel", str(tmp_path / "panel.csv"), "--spec",
                 str(tmp_path / "model.cfg"), "--out", str(tmp_path / "session")]) == 0
    assert ((tmp_path / "fit" / "coefficients.csv").read_bytes()
            == (tmp_path / "session" / "coefficients.csv").read_bytes())


def test_decentralization_command(tmp_path, panel_file):
    out = tmp_path / "decentralization.csv"
    assert main(["decentralization", "--panel", str(panel_file), "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert rows[0] == ["entity", "date", "composite", "orthogonalized"]
    assert len(rows) > 100


@pytest.fixture(scope="module")
def awkward_panel(tmp_path_factory):
    """A consolidated panel file and its entities' metadata."""
    folder = tmp_path_factory.mktemp("awkward")
    specs = [("AAA", True, "2020-01-01", 90), ("BBB", False, "2020-01-01", 90),
             ("CCC", False, "2020-01-10", 81)]
    entity_files, market_file, meta_file = build_panel_files(
        folder, np.random.default_rng(92), specs)
    out = folder / "panel.csv"
    write_panel_csv(load_panel(entity_files, market_file, meta_file), out)
    return out, read_meta_csv(meta_file)


@PROPERTY_SETTINGS
@given(categories=st.lists(CELL_TEXTS, min_size=3, max_size=3))
def test_decentralization_bytes_equal_a_csv_writer_row_loop(tmp_path_factory, awkward_panel,
                                                            categories):
    # the categories reach only the meta file, which the command must read back
    panel_path, metas = awkward_panel
    metas = [replace(meta, category=category) for meta, category in zip(metas, categories)]
    folder = tmp_path_factory.mktemp("decentralization")
    write_meta_csv(metas, folder / "meta.csv")
    assert main(["decentralization", "--panel", str(panel_path),
                 "--meta", str(folder / "meta.csv"), "--out", str(folder / "table.csv")]) == 0
    panel = load_panel_csv(panel_path)
    purified = mx.decentralization_series(metas, panel)
    with open(folder / "rows.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("entity", "date", "composite", "orthogonalized"))
        for meta in metas:
            composite = composite_index(meta.gini_components)
            values, missing = purified[meta.symbol]
            dates = panel.observations[meta.symbol].dates
            for i in np.flatnonzero(~missing):
                writer.writerow((meta.symbol, str(dates[i]), repr(float(composite)),
                                 repr(float(values[i]))))
    assert (folder / "table.csv").read_bytes() == (folder / "rows.csv").read_bytes()


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


@pytest.mark.parametrize("weights", ["none", "cross_section_egls"])
def test_fit_fixed_effects_absorbs_hyfi(tmp_path, panel_file, weights):
    spec = tmp_path / "model.cfg"
    spec.write_text(f"effects = fixed\nweights = {weights}\n"
                    "regressors = size,illiquidity,hyfi\n")
    out = tmp_path / "fit"
    assert main(["fit", "--panel", str(panel_file), "--spec", str(spec),
                 "--out", str(out)]) == 0
    terms = [row[0] for row in read_csv_rows(out / "coefficients.csv")[1:]]
    assert "hyfi" not in terms and "size" in terms
    assert "absorbed: hyfi" in (out / "summary.txt").read_text().splitlines()


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


def test_quantile_path_keeps_the_order_and_repeats_of_taus(tmp_path, panel_file):
    out = tmp_path / "quantiles"
    assert main(["quantile", "--panel", str(panel_file), "--taus", "0.75,0.25,0.75",
                 "--out", str(out)]) == 0
    taus = [row[0] for row in read_csv_rows(out / "path.csv")[1:]]
    assert taus == ["0.75"] * 8 + ["0.25"] * 8 + ["0.75"] * 8


def test_quantile_taus_sharing_a_file_name_refused(tmp_path, panel_file, capsys, monkeypatch):
    fits = []
    monkeypatch.setattr(PanelQuantile, "fit", lambda self, design: fits.append(self.tau))
    out = tmp_path / "quantiles"
    assert main(["quantile", "--panel", str(panel_file), "--taus", "0.25,0.251,0.252",
                 "--out", str(out)]) == 1
    assert ("error: --taus 0.25 and 0.251 would both write quantile_tau0.25.csv"
            in capsys.readouterr().err)
    assert fits == [] and not out.exists()


def test_diagnose_and_quantile_write_the_report_tables(tmp_path, panel_file):
    # the panel ends before the default split date, so the config sets one
    report = tmp_path / "report"
    config = tmp_path / "report.cfg"
    config.write_text(f"panel = {panel_file}\nout = {report}\nsplit_date = 2020-03-01\n")
    assert main(["report", "--config", str(config)]) == 0
    tables = report / "tables"
    assert main(["diagnose", "--panel", str(panel_file), "--out", str(tmp_path / "d")]) == 0
    for name in ("descriptives.csv", "correlations.csv", "unit_roots.csv", "dependence.csv"):
        assert (tmp_path / "d" / name).read_bytes() == (tables / name).read_bytes(), name
    # without --spec, and with a spec file that sets nothing, the design is the report's
    (tmp_path / "empty.cfg").write_text("# the report's quantile design\n")
    for name, spec in (("q", []), ("q_spec", ["--spec", str(tmp_path / "empty.cfg")])):
        assert main(["quantile", "--panel", str(panel_file), *spec,
                     "--out", str(tmp_path / name)]) == 0
        path = (tmp_path / name / "path.csv").read_bytes()
        assert path == (tables / "quantile_path.csv").read_bytes(), name


def test_quantile_rank_error_names_the_spec_columns(tmp_path, panel_file, capsys):
    # hyfi * hyfi equals hyfi for a 0/1 dummy
    spec = tmp_path / "collinear.cfg"
    spec.write_text("regressors = size,hyfi\ninteractions = hyfi*hyfi\n")
    code = main(["quantile", "--panel", str(panel_file), "--spec", str(spec),
                 "--taus", "0.5", "--out", str(tmp_path / "quantiles")])
    assert code == 1
    assert ("error: rank-deficient design: columns ['hyfi', 'hyfi_x_hyfi'] are collinear"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [("effects", "fixed"), ("weights", "cross_section_egls"),
                                        ("covariance", "classical")])
def test_quantile_spec_refuses_keys_a_quantile_fit_does_not_read(tmp_path, panel_file, capsys,
                                                                  key, value):
    # a quantile fit is pooled with an intercept; effects = fixed used to drop
    # the intercept and fit through the origin
    spec = tmp_path / "spec.cfg"
    spec.write_text(f"regressors = size,hyfi\n{key} = {value}\n")
    code = main(["quantile", "--panel", str(panel_file), "--spec", str(spec),
                 "--taus", "0.5", "--out", str(tmp_path / "quantiles")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {spec}:2: unknown quantile spec key '{key}'\n"
    assert not (tmp_path / "quantiles").exists()


@pytest.mark.parametrize("taus, message", [
    ("1.5", "tau 1.5 outside (0, 1)"),
    ("0.5,1", "tau 1.0 outside (0, 1)"),
    ("", "at least one tau is needed"),
    ("0.1,,0.5", "finite number expected, got ''"),
    ("0.2_5,0.5", "finite number expected, got '0.2_5'"),
    ("1_0", "finite number expected, got '1_0'"),
    ("\uff10.5", "finite number expected, got '\uff10.5'"),
], ids=["above-one", "one", "empty", "empty-item", "underscore", "underscore-int",
        "non-ascii-digit"])
def test_quantile_taus_checked_before_the_panel_is_read(tmp_path, capsys, taus, message):
    # the panel file does not exist: the taus are refused first
    code = main(["quantile", "--panel", str(tmp_path / "absent.csv"), "--taus", taus,
                 "--out", str(tmp_path / "quantiles")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --taus: {message}\n"


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


def blank_prices(entity_files):
    # rows without a price risk: a design row of both reports, dropped
    for path, days in ((entity_files[0], (0, 30, 31)), (entity_files[2], (50,))):
        rows = read_csv_rows(path)
        for day in days:
            rows[1 + day][1:5] = [""] * 4  # open, high, low, close
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    return "'missing_price_risk': 4"


def blank_attention(entity_files):
    # an entity without one present attention cell: its attractiveness
    # column has no present value, so every one of its rows is dropped
    rows = read_csv_rows(entity_files[1])
    column = rows[0].index("attention")
    for row in rows[1:]:
        row[column] = ""
    with open(entity_files[1], "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return "'missing_attractiveness': 119"


@pytest.mark.parametrize("blank", [blank_prices, blank_attention])
def test_panel_and_metrics_reports_read_the_same_rows(tmp_path, blank):
    # a raw panel with empty cells, reported from its panel file and from
    # the metrics file written from it: only the config lines and the raw
    # attention that only a panel carries tell the two bundles apart
    rng = np.random.default_rng(97)
    entity_files, market_file, meta_file = build_panel_files(tmp_path, rng, PANEL_SPECS)
    dropped = blank(entity_files)
    panel, metrics = tmp_path / "panel.csv", tmp_path / "metrics.csv"
    assert main(["ingest", "--meta", meta_file, "--market", market_file,
                 "--entities", str(tmp_path / "entities"), "--out", str(panel)]) == 0
    assert main(["metrics", "--panel", str(panel), "--out", str(metrics)]) == 0
    bundles = {}
    for mode, inputs in (("panel", f"panel = {panel}"),
                         ("metrics", f"metrics = {metrics}\nmeta = {meta_file}")):
        out = tmp_path / mode
        (tmp_path / f"{mode}.cfg").write_text(f"{inputs}\nout = {out}\nsplit_date = 2020-03-01\n")
        assert main(["report", "--config", str(tmp_path / f"{mode}.cfg")]) == 0
        bundles[mode] = {path.relative_to(out).as_posix(): path.read_text().splitlines()
                         for path in out.rglob("*") if path.is_file()}
    for files in bundles.values():
        files["manifest.txt"] = [line for line in files["manifest.txt"]
                                 if not line.startswith("  ")]
    raw = bundles["panel"]["tables/descriptives.csv"]
    assert sum(line.startswith("attention_raw,") for line in raw) == 1
    bundles["panel"]["tables/descriptives.csv"] = [
        line for line in raw if not line.startswith("attention_raw,")]
    assert any(dropped in line for line in bundles["panel"]["manifest.txt"])
    assert bundles["panel"] == bundles["metrics"]


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--seed", "9", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "9", "--out", str(b)]) == 0
    for name in ("metrics.csv", "meta.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture(scope="module")
def small_simulation(tmp_path_factory):
    """The metrics and meta files of a three-token simulation."""
    folder = tmp_path_factory.mktemp("small_simulation")
    (folder / "params.cfg").write_text(
        "n_entities = 3\nn_periods = 60\nuse_benchmark_universe = false\n")
    assert main(["simulate", "--params", str(folder / "params.cfg"),
                 "--out", str(folder / "sim")]) == 0
    return folder / "sim"


def missing_config(tmp_path, sim, awkward):
    return ["report", "--config", str(tmp_path / "missing.cfg")], "missing.cfg"


def meta_token_absent_from_panel(tmp_path, sim, awkward):
    panel_path, metas = awkward
    meta = tmp_path / "meta.csv"
    write_meta_csv(metas + [replace(metas[0], symbol="ZZZ")], meta)
    return (["decentralization", "--panel", str(panel_path), "--meta", str(meta),
             "--out", str(tmp_path / "dec.csv")],
            f"{meta}: tokens ['ZZZ'] have no rows in {panel_path}")


def report_on(tmp_path, sim, select):
    """The argv of a report on the metrics rows that ``select`` keeps of
    ``sim``'s, and the path of the metrics file it reads."""
    metrics = tmp_path / "metrics.csv"
    with open(metrics, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            select(read_csv_rows(sim / "metrics.csv")))
    (tmp_path / "report.cfg").write_text(
        f"metrics = {metrics}\nmeta = {sim / 'meta.csv'}\nout = {tmp_path / 'out'}\n")
    return ["report", "--config", str(tmp_path / "report.cfg")], metrics


def blanked(rows, entity, metric, keep=0):
    """``rows`` of a metrics file with ``entity``'s ``metric`` cells emptied
    but for the first ``keep`` present ones."""
    column = rows[0].index(metric)
    present = [row for row in rows[1:] if row[0] == entity and row[column]]
    for row in present[keep:]:
        row[column] = ""
    return rows


def report_lacking(entity, metric):
    """A report whose metrics file lacks the ``metric`` column, or all of
    ``entity``'s rows when ``metric`` is None, which names the entity's
    first metric; ``entity`` is the one named."""
    def case(tmp_path, sim, awkward):
        argv, metrics = report_on(tmp_path, sim, lambda rows: [
            row for row in rows if row[0] != entity] if metric is None else
            [[cell for cell, name in zip(row, rows[0]) if name != metric] for row in rows])
        first = "market_volatility" if entity == "MARKET" else "price_risk"
        return argv, f"{metrics}: entity {entity} has no {metric or first} rows"
    return case


def empty_panel_value(tmp_path, sim, awkward):
    # a set but empty panel= names no file, and is refused at its line
    config = tmp_path / "report.cfg"
    config.write_text(f"panel =\nout = {tmp_path / 'out'}\n")
    return ["report", "--config", str(config)], f"{config}:1: panel: empty path"


def one_market_shock(tmp_path, sim, awkward):
    # a single value cannot be described; the error names the variable
    argv, _ = report_on(tmp_path, sim, lambda rows: blanked(rows, "MARKET", "market_shocks", 1))
    return argv, "descriptives: market_shocks: need at least 2 non-missing values"


BAD_INPUTS = [
    missing_config,
    meta_token_absent_from_panel,
    report_lacking("TOK00", "size"),
    report_lacking("MARKET", None),
    report_lacking("TOK01", None),
    report_lacking("MARKET", "market_shocks"),
    empty_panel_value,
    one_market_shock,
]


def test_error_reporting(tmp_path, capsys, small_simulation, awkward_panel):
    # bad input is one error line and exit status 1, never a traceback
    for i, case in enumerate(BAD_INPUTS):
        folder = tmp_path / str(i)
        folder.mkdir()
        argv, message = case(folder, small_simulation, awkward_panel)
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert message in err[0]
        assert not (folder / "out").exists()


@pytest.mark.parametrize("key", ["panel", "metrics", "meta", "out"])
def test_report_refuses_an_empty_path_at_its_line(tmp_path, capsys, small_simulation, key):
    # the other keys of the key's input mode name files that exist
    paths = {"metrics": small_simulation / "metrics.csv", "meta": small_simulation / "meta.csv",
             "out": tmp_path / "out"}
    if key == "panel":
        paths = {"out": tmp_path / "out"}
    lines = [f"{name} = {path}" for name, path in paths.items() if name != key] + [f"{key} ="]
    config = tmp_path / "report.cfg"
    config.write_text("\n".join(lines) + "\n")
    assert main(["report", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}:{len(lines)}: {key}: empty path\n"
    assert not (tmp_path / "out").exists()


def test_report_refuses_an_out_that_is_a_file_before_reading_inputs(tmp_path, capsys,
                                                                     monkeypatch):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    (tmp_path / "report.cfg").write_text(
        f"metrics = {tmp_path / 'absent.csv'}\nmeta = {tmp_path / 'absent.csv'}\nout = {out}\n")
    monkeypatch.setattr(pipeline, "load_inputs", lambda config: pytest.fail("inputs read"))
    assert main(["report", "--config", str(tmp_path / "report.cfg")]) == 1
    assert capsys.readouterr().err == f"error: out: {out} exists and is not a directory\n"
    assert out.read_text() == "not a directory\n"


def test_report_writes_an_adf_error_for_an_interior_market_gap(tmp_path, panel_file):
    # ten empty mid-sample shock_loss cells: ADF refuses the gap, as CIPS
    # refuses an entity's, instead of bridging it with one difference
    rows = read_csv_rows(panel_file)
    column = rows[0].index("shock_loss")
    market = [row for row in rows[1:] if row[0] == "MARKET"]
    middle = len(market) // 2
    for row in market[middle:middle + 10]:
        row[column] = ""
    gapped = tmp_path / "gapped.csv"
    with open(gapped, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    config = tmp_path / "report.cfg"
    config.write_text(f"panel = {gapped}\nout = {tmp_path / 'report'}\nsplit_date = 2020-03-01\n")
    assert main(["report", "--config", str(config)]) == 0
    unit_roots = read_csv_rows(tmp_path / "report" / "tables" / "unit_roots.csv")
    shocks = [row for row in unit_roots if row[0] == "market_shocks"]
    assert len(shocks) == 1
    assert shocks[0][1:2] + shocks[0][4:5] == ["adf_error", "interior gaps are not supported"]


def test_volatility_window_is_not_a_setting(tmp_path):
    config = tmp_path / "report.cfg"
    config.write_text("panel = panel.csv\nvolatility_window = 30\n")
    with pytest.raises(ValueError, match=r"report\.cfg:2: unknown config key 'volatility_window'"):
        parse_config(config)
    params = tmp_path / "params.cfg"
    params.write_text("n_periods = 160\nmarket_warmup = 31\n")
    with pytest.raises(ValueError, match=r"params\.cfg:2: unknown parameter 'market_warmup'"):
        _parse_synth_params(params)
    for command, required in [("metrics", []), ("fit", ["--spec", "spec.cfg"]),
                              ("quantile", []), ("diagnose", [])]:
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(
                [command, "--panel", "panel.csv", "--out", "out", *required, "--window", "30"])
        assert info.value.code == 2


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


def test_model_spec_rejects_non_boolean_dynamic(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("effects = fixed\ndynamic = ture\n")
    with pytest.raises(ValueError, match=r"spec\.cfg:2: dynamic: boolean expected, got 'ture'"):
        _parse_model_spec(spec)
    spec.write_text("effects = fixed\ndynamic = YES\n")
    assert _parse_model_spec(spec).dynamic is True


@pytest.mark.parametrize("line, message", [
    ("use_benchmark_universe = ture",
     r"params\.cfg:2: use_benchmark_universe: boolean expected, got 'ture'"),
    ("n_entities = many", r"params\.cfg:2: n_entities: integer expected, got 'many'"),
    ("beta_size = big", r"params\.cfg:2: beta_size: finite number expected, got 'big'"),
    # int and float read these, and no data cell takes them
    ("n_entities = 1_0", r"params\.cfg:2: n_entities: integer expected, got '1_0'"),
    ("n_entities = \u0663", r"params\.cfg:2: n_entities: integer expected, got '\u0663'"),
    ("beta_size = 1_0", r"params\.cfg:2: beta_size: finite number expected, got '1_0'"),
    ("sigma_alpha = \uff10.01",
     r"params\.cfg:2: sigma_alpha: finite number expected, got '\uff10\.01'"),
])
def test_synth_params_bad_value_named_at_its_line(tmp_path, line, message):
    params = tmp_path / "params.cfg"
    params.write_text(f"n_periods = 160\n{line}\n")
    with pytest.raises(ValueError, match=message):
        _parse_synth_params(params)


# int and float read these, and no data cell takes them
@pytest.mark.parametrize("text", ["1_0", "\u0663", "\u0661\u0662"])
def test_simulate_seed_is_spelled_as_a_data_cell(tmp_path, capsys, text):
    code = main(["simulate", "--seed", text, "--out", str(tmp_path / "sim")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --seed: integer expected, got {text!r}\n"
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("text", ["-1", "-12"])
def test_simulate_refuses_a_negative_seed(tmp_path, capsys, text):
    code = main(["simulate", "--seed", text, "--out", str(tmp_path / "sim")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --seed: non-negative integer expected, got {text!r}\n")
    assert not (tmp_path / "sim").exists()


def test_settings_and_meta_booleans_share_one_rule(tmp_path):
    # a spec's dynamic = TRUE and a meta hyfi cell TRUE both go through panel.parse_bool
    spec = tmp_path / "spec.cfg"
    spec.write_text("effects = fixed\ndynamic = TRUE\n")
    meta = tmp_path / "meta.csv"
    meta.write_text(",".join(META_HEADER) + "\nAAA,test,TRUE,2020-01-01,0.1,0.2,0.3,0.4,0.5\n")
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is parse_bool.__code__:
            called.append(frame.f_locals["text"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        dynamic = _parse_model_spec(spec).dynamic
        hyfi = read_meta_csv(meta)[0].hyfi
    finally:
        sys.setprofile(previous)
    assert dynamic is hyfi is True
    assert called == ["TRUE", "TRUE"]


def test_ingest_refuses_an_entity_without_rows(tmp_path, capsys):
    # the consolidated file carries an entity's meta cells only on its rows,
    # so an entity without rows would vanish from it
    rng = np.random.default_rng(91)
    _, market, meta = build_panel_files(tmp_path, rng, PANEL_SPECS)
    entity = tmp_path / "entities" / "BBB.csv"
    entity.write_text(entity.read_text().splitlines(keepends=True)[0])
    out = tmp_path / "panel.csv"
    code = main(["ingest", "--meta", meta, "--market", market,
                 "--entities", str(tmp_path / "entities"), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BBB: no rows to carry its meta cells in the panel file\n"
    assert not out.exists()


def test_synth_params_reject_unknown_coefficient(tmp_path):
    params = tmp_path / "params.cfg"
    params.write_text("n_periods = 160\nbeta_sise = 0.5\n")
    with pytest.raises(ValueError, match=r"params\.cfg:2: unknown parameter 'beta_sise'"):
        _parse_synth_params(params)
    params.write_text("n_periods = 160\nbeta_size = 0.5\n")
    assert _parse_synth_params(params).beta["size"] == 0.5


def test_simulate_refuses_a_benchmark_universe_of_another_size(tmp_path, capsys):
    params = tmp_path / "params.cfg"
    params.write_text("n_entities = 20\nn_periods = 160\n")
    assert main(["simulate", "--params", str(params), "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert "use_benchmark_universe = true simulates the 18 benchmark tokens" in err
    assert "n_entities = 20" in err
    assert not (tmp_path / "sim").exists()


SMALL_PARAMS = "use_benchmark_universe = false\nn_entities = 3\nn_periods = 60\n"


@pytest.mark.parametrize("line", ["beta_size = nan", "sigma_alpha = inf", "phi = nan",
                                  "sigma_high = inf"])
def test_simulate_refuses_a_non_finite_number_at_its_line(tmp_path, capsys, line):
    params = tmp_path / "params.cfg"
    params.write_text(f"{SMALL_PARAMS}{line}\n")
    assert main(["simulate", "--params", str(params), "--out", str(tmp_path / "sim")]) == 1
    key, text = line.split(" = ")
    assert capsys.readouterr().err == (
        f"error: {params}:4: {key}: finite number expected, got {text!r}\n")
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("text, message", [
    ("start = 2020-02-30\n", "{params}:1: start: unparseable date '2020-02-30'"),
    ("start = 2020-01-01T00\n", "{params}:1: start: unparseable date '2020-01-01T00'"),
    (SMALL_PARAMS.replace("= 3", "= 1"), "{params}: need at least 2 entities and 40 periods"),
], ids=["no_such_day", "time_of_day", "one_entity"])
def test_simulate_names_the_params_file(tmp_path, capsys, text, message):
    params = tmp_path / "params.cfg"
    params.write_text(text)
    assert main(["simulate", "--params", str(params), "--out", str(tmp_path / "sim")]) == 1
    assert capsys.readouterr().err == "error: " + message.format(params=params) + "\n"
    assert not (tmp_path / "sim").exists()


def test_simulation_start_takes_either_date_form(tmp_path):
    params = tmp_path / "params.cfg"
    params.write_text(f"{SMALL_PARAMS}start = 5.1.2020\n")
    sim = pipeline.simulate_dgp(_parse_synth_params(params))
    assert sim.bundle["TOK00"].dates[0] == np.datetime64("2020-01-05")


def test_simulation_seed_is_not_a_parameter(tmp_path):
    # simulate --seed is the one seed of a simulation
    params = tmp_path / "params.cfg"
    params.write_text("n_periods = 160\nseed = 3\n")
    with pytest.raises(ValueError, match=r"params\.cfg:2: unknown parameter 'seed'"):
        _parse_synth_params(params)


def test_simulation_keys_match_readme_and_default_truth():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Simulation parameter keys:", 1)[1].split("\n\n", 1)[0]
    keys, coefficients = sentence.split("(", 1)
    keys = keys.split("`")[1::2]
    coefficients = coefficients.split("`")[1::2]
    assert "beta_<name>" in keys
    documented = {key for key in keys if key != "beta_<name>"}
    documented |= {f"beta_{name}" for name in coefficients}
    assert documented == set(cli._SYNTH_KEYS)
    assert coefficients == list(pipeline.default_truth())


def test_metrics_header_matches_readme(small_simulation):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rule = readme.split("\n- metrics CSV", 1)[1].split("\n\n", 1)[0]
    assert "`entity,date`, then every metric name, sorted" in " ".join(rule.split())
    documented = rule.split("`")[-2]
    names = documented.split(",")[2:]
    assert names == sorted(names)
    assert documented == (small_simulation / "metrics.csv").read_text().splitlines()[0]


@pytest.mark.parametrize("token", ["hyfi", "hyfi*", "*market_volatility", "a*b*c"])
def test_model_spec_rejects_malformed_interaction(tmp_path, token):
    spec = tmp_path / "spec.cfg"
    spec.write_text(f"effects = fixed\ninteractions = size*illiquidity, {token}\n")
    with pytest.raises(ValueError, match=r"spec\.cfg:2: interactions: expected 'left\*right'"):
        _parse_model_spec(spec)


def test_model_spec_keys_match_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Model spec keys", 1)[1].split("```")[1]
    header, *rows = block.strip().splitlines()
    start, end = header.index("read by"), header.index("values")
    readers = {row.split()[0]: set(row[start:end].replace(",", " ").split()) for row in rows}
    assert set(readers) == set(cli._MODEL_SPEC_KEYS)
    assert all(read <= {"fit", "quantile"} and "fit" in read for read in readers.values())
    assert {key for key, read in readers.items() if "quantile" in read} == set(
        cli._QUANTILE_SPEC_KEYS)
