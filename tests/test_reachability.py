"""Every function and method of panelcrypt is reached by a CLI command, or is
named in ``ALLOWED`` with the reason it is kept although no command calls it.

The guard runs each subcommand once on tiny inputs under ``sys.setprofile``
and matches the code objects it saw against the ``def`` statements of the
package's source, nested functions included.  Dunder methods are not
checked.
"""

import ast
import os
import sys
from pathlib import Path

import numpy as np

import panelcrypt
from panelcrypt.cli import main
from panelcrypt.estimators import COVARIANCES, EFFECTS, WEIGHTS

from conftest import build_panel_files

SOURCE = Path(panelcrypt.__file__).resolve().parent

API = "documented library API"
REFERENCE = "a reference that tests compare against"
ERROR = "an error-only helper"
TEST = "a test entry point"
BENCHMARK = "a benchmark entry point"

# module-qualified name -> why it stays although no command calls it
ALLOWED = {
    "base.BaseEstimator._param_names": API,
    "base.BaseEstimator.get_params": API,
    "base.BaseEstimator.set_params": API,
    "estimators.DesignMatrix.groups": API,  # the reports' designs are handed theirs
    "estimators.white_cov": REFERENCE,
    "panel.read_entity_csv": TEST,
    "panel.read_market_csv": TEST,
    "pipeline.DropLedger.conserved": TEST,
    "pipeline.quantile_spec": BENCHMARK,
    "quantreg.fit_quantile_coefficients": REFERENCE,
    "quantreg.quasi_lr": REFERENCE,
    "quantreg.rankit_quantile": REFERENCE,
    "quantreg.sandwich_cov": REFERENCE,
    "quantreg.sparsity_hall_sheather": REFERENCE,
}


def defined_functions():
    """``{(source file, first line): "module.qualified.name"}`` of every
    non-dunder ``def`` in the package; a decorated function's code starts
    at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = f"{path.stem}.{name}"
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def run_every_command(folder):
    """Run each subcommand once, ``fit`` once per effects x weights x
    covariance spec and ``simulate`` once per universe, on a four-token
    panel and a three-token simulation."""
    specs = [("AAA", True, "2020-01-01", 120), ("BBB", False, "2020-01-01", 120),
             ("CCC", False, "2020-01-15", 106), ("DDD", False, "2020-01-01", 120)]
    _, market, meta = build_panel_files(folder, np.random.default_rng(91), specs)
    panel = str(folder / "panel.csv")
    (folder / "dist.txt").write_text("1\n2\n\n3\n")
    (folder / "params.cfg").write_text(
        "n_entities = 3\nn_periods = 160\nuse_benchmark_universe = false\nsigma_alpha = 0.01\n")
    (folder / "benchmark.cfg").write_text("n_periods = 430\n")  # the latest listing is day 418
    (folder / "quantile.cfg").write_text("regressors = size,hyfi\n")
    sim = folder / "sim"
    (folder / "panel.cfg").write_text(
        f"panel = {panel}\nout = {folder / 'report_panel'}\nsplit_date = 2020-03-01\n")
    (folder / "sim.cfg").write_text(
        f"metrics = {sim / 'metrics.csv'}\nmeta = {sim / 'meta.csv'}\n"
        f"out = {folder / 'report_sim'}\nsplit_date = 2020-04-01\ntaus = 0.5\n")
    commands = [
        ["ingest", "--meta", meta, "--market", market, "--entities", str(folder / "entities"),
         "--out", panel],
        ["metrics", "--panel", panel, "--out", str(folder / "metrics.csv")],
        ["gini", "--dist", str(folder / "dist.txt")],
        ["decentralization", "--panel", panel, "--meta", meta,
         "--out", str(folder / "decentralization.csv")],
        ["quantile", "--panel", panel, "--spec", str(folder / "quantile.cfg"),
         "--taus", "0.5", "--out", str(folder / "quantile")],
        ["diagnose", "--panel", panel, "--out", str(folder / "diagnose")],
        ["simulate", "--params", str(folder / "params.cfg"), "--seed", "3", "--out", str(sim)],
        ["simulate", "--params", str(folder / "benchmark.cfg"),
         "--out", str(folder / "benchmark")],
        ["report", "--config", str(folder / "panel.cfg")],
        ["report", "--config", str(folder / "sim.cfg")],
    ]
    for effects in EFFECTS:
        for weights in WEIGHTS:
            for covariance in COVARIANCES:
                spec = folder / f"{effects}_{weights}_{covariance}.cfg"
                spec.write_text(f"effects = {effects}\nweights = {weights}\n"
                                f"covariance = {covariance}\ndynamic = true\n"
                                "interactions = hyfi*market_volatility\n")
                commands.append(["fit", "--panel", panel, "--spec", str(spec),
                                 "--out", str(folder / spec.stem)])
    for argv in commands:
        assert main(argv) == 0, argv


def reached_functions(folder):
    """The ``(source file, first line)`` of every Python function that
    ``run_every_command`` calls."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_every_command(folder)
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(path), line) for path, line in reached}


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    defined = defined_functions()
    reached = reached_functions(tmp_path)
    unreached = {name for key, name in defined.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == []
    # the allowlist holds only functions that exist and that no command reaches
    assert sorted(set(ALLOWED) - unreached) == []
    assert set(ALLOWED.values()) <= {API, REFERENCE, ERROR, TEST, BENCHMARK}
