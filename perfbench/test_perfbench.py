"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import rawgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {"n_tokens": 4, "n_days": 90, "max_listing_offset": 20}
TINY_PARAMS = "n_entities = 4\nn_periods = 150\nuse_benchmark_universe = false\n"
TINY_CONFIG = """\
metrics = inputs/metrics.csv
meta = inputs/meta.csv
out = out/
seed = 5
split_date = 2020-03-15
taus = 0.10,0.25,0.50,0.75,0.90
"""


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_generator_is_deterministic_and_loadable(tmp_path):
    from panelcrypt.panel import load_panel

    rawgen.generate(str(tmp_path / "a"), 5, **TINY)
    rawgen.generate(str(tmp_path / "b"), 5, **TINY)
    rawgen.generate(str(tmp_path / "c"), 6, **TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")

    entity_files = sorted(str(p) for p in (tmp_path / "a" / "entities").glob("*.csv"))
    panel = load_panel(entity_files, str(tmp_path / "a" / "market.csv"),
                       str(tmp_path / "a" / "meta.csv"))
    assert len(panel.entities) == TINY["n_tokens"]
    for path in entity_files:
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                prices = [row[f] == "" for f in ("open", "high", "low", "close")]
                assert all(prices) or not any(prices)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    """A small simulated report, run plainly and under the tracer."""
    work = tmp_path_factory.mktemp("tiny")
    (work / "tiny.params").write_text(TINY_PARAMS)
    (work / "run.cfg").write_text(TINY_CONFIG)
    log = work / "children.log"
    setup = ["simulate", "--params", "tiny.params", "--seed", "5", "--out", "inputs"]
    assert run.run_child(run.cli(setup), work, log)[2] == 0
    _wall, _rss, code = run.run_child(run.cli(["report", "--config", "run.cfg"]), work, log)
    assert code == 0, log.read_text()
    plain = checks.bundle_digest(str(work / "out"))[0]
    shutil.copytree(work / "out", work / "plain")
    shutil.rmtree(work / "out")
    spans_path = work / "report.spans.json"
    wall, _rss, code = run.run_child(
        run.traced(spans_path, ["report", "--config", "run.cfg"]), work, log)
    assert code == 0, log.read_text()
    return work, plain, wall, json.loads(spans_path.read_text())


def _rewrite(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    for row in rows[1:]:
        edit(row)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_failed_operation_counter(tiny_report, tmp_path):
    work = tiny_report[0]
    bundle = tmp_path / "bundle"
    shutil.copytree(work / "plain", bundle)
    taus = run.TAUS
    assert not any(checks.operations(str(bundle), taus).values())

    def nan_coefficient(row):
        if row[0] == "dynamic_random" and row[1] == "size":
            row[2] = "nan"

    def cips_refused(row):
        if row[0] == "illiquidity":
            row[1:] = ["cips_error", "nan", "nan", "interior gaps", "0.0"]

    _rewrite(bundle / "tables" / "baseline_coefficients.csv", nan_coefficient)
    _rewrite(bundle / "tables" / "unit_roots.csv", cips_refused)
    ops = checks.operations(str(bundle), taus)
    failed = {op for op, why in ops.items() if why}
    assert failed == {"fit:baseline/dynamic_random", "unit_root:illiquidity"}
    assert len(ops) == 34


def test_quantile_and_truth_checks_reject_wrong_estimates(tiny_report, tmp_path):
    work = tiny_report[0]
    bundle = tmp_path / "bundle"
    shutil.copytree(work / "plain", bundle)
    shutil.copytree(work / "inputs", tmp_path / "inputs")
    (tmp_path / "run.cfg").write_text(TINY_CONFIG)
    design = run.quantile_design(tmp_path)
    ops = checks.operations(str(bundle), run.TAUS)
    checks.check_quantiles(str(bundle), design, ops)
    assert not any(ops.values())

    def shift_slope(row):
        if row[0] == "0.5" and row[1] == "market_volatility":
            row[2] = repr(float(row[2]) + 10 * float(row[3]))

    def shift_fe(row):
        if row[0] == "static_fixed" and row[1] == "size":
            row[2] = repr(float(row[2]) + 6 * float(row[3]))

    _rewrite(bundle / "tables" / "quantile_coefficients.csv", shift_slope)
    _rewrite(bundle / "tables" / "baseline_coefficients.csv", shift_fe)
    ops = checks.operations(str(bundle), run.TAUS)
    checks.check_quantiles(str(bundle), design, ops)
    with open(work / "plain" / "tables" / "baseline_coefficients.csv", newline="") as handle:
        truth = {r["term"]: float(r["estimate"]) + 100.0 * (r["term"] == "const")
                 for r in csv.DictReader(handle) if r["fit"] == "static_fixed"}
    checks.check_truth(str(bundle), truth, ops)
    failed = {op for op, why in ops.items() if why}
    assert failed == {"tau:0.5", "fit:baseline/static_fixed"}


def test_tracing_leaves_the_bundle_unchanged(tiny_report):
    work, plain, _wall, _trace = tiny_report
    assert checks.bundle_digest(str(work / "out"))[0] == plain


def test_self_times_account_for_traced_wall(tiny_report):
    _work, _plain, wall, trace = tiny_report
    spans = trace["spans"]
    self_s = tracer.self_times(spans)
    assert min(self_s) >= 0.0
    roots = [span for span in spans if span[3] < 0]
    assert [span[0] for span in roots] == ["cli.main"]
    root_s = sum(span[2] - span[1] for span in roots)
    assert math.isclose(sum(self_s), root_s, rel_tol=1e-9)

    metrics = run.layer_metrics([trace], [wall])
    attributed = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k.split(".self_s")[0] in run.LAYER_SPANS)
    assert metrics["trace.unattributed_s"] >= trace["import_s"]
    assert math.isclose(attributed + metrics["trace.unattributed_s"], wall, rel_tol=1e-9)
    assert metrics["quantreg.PanelQuantile.fit.calls"] == len(run.TAUS)
    assert metrics["pipeline.build_design.calls"] == 14


def test_self_times_clip_children_to_the_parent():
    spans = [
        ["root", 0.0, 10.0, -1, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 3.0, 6.0, 0, {}],        # overlaps a; the union is counted once
        ["c", 1.5, 2.0, 1, {}],
    ]
    assert tracer.self_times(spans) == [5.0, 2.5, 3.0, 0.5]
