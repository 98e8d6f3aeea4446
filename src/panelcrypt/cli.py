"""Command-line interface.

Subcommands: ingest, metrics, gini, decentralization, fit, quantile,
diagnose, report, simulate.  All outputs are plain CSV / text; runs with the
same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from . import decentralization as dec
from . import metrics as mx
from . import pipeline
from .base import ConvergenceError
from .estimators import COVARIANCES, EFFECTS, WEIGHTS, ModelSpec, estimator_for
from .panel import PanelLoadError, load_panel, load_panel_csv, read_meta_csv, write_panel_csv
from .pipeline import (
    CONTROLS,
    SynthParams,
    build_design,
    parse_config,
    run_report,
    simulate_dgp,
    write_metrics_csv,
    write_simulation,
)
from .quantreg import PanelQuantile


def _cmd_ingest(args):
    entity_files = sorted(
        os.path.join(args.entities, name)
        for name in os.listdir(args.entities)
        if name.lower().endswith(".csv")
    )
    if not entity_files:
        raise SystemExit(f"no entity CSV files found in {args.entities}")
    panel = load_panel(entity_files, args.market, args.meta)
    write_panel_csv(panel, args.out)
    print(
        f"wrote {args.out}: {len(panel.entities)} entities,"
        f" {panel.n_observations()} observations,"
        f" {len(panel.market)} market rows"
    )
    return 0


def _cmd_metrics(args):
    panel = load_panel_csv(args.panel)
    bundle = mx.compute_all_metrics(panel)
    write_metrics_csv(bundle, args.out)
    n_series = sum(len(per) for per in bundle.values())
    print(f"wrote {args.out}: {n_series} metric series")
    return 0


def _cmd_gini(args):
    """One quantity per line; blank lines are skipped, and a line that is not
    a finite, nonnegative number is an error at ``path:line``."""
    values = []
    with open(args.dist) as handle:
        for line, text in enumerate(handle, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise PanelLoadError(f"not a finite number: {text!r}", args.dist, line)
            if value < 0:
                raise PanelLoadError(f"negative number: {text!r}", args.dist, line)
            values.append(value)
    print(f"{dec.gini(values):.6f}")
    return 0


def _cmd_decentralization(args):
    panel = load_panel_csv(args.panel)
    metas = read_meta_csv(args.meta) if args.meta else list(panel.entities)
    absent = [meta.symbol for meta in metas if meta.symbol not in panel.observations]
    if absent:
        raise ValueError(f"{args.meta}: tokens {absent} have no rows in {args.panel}")
    purified = mx.decentralization_series(metas, panel)
    rows = []
    for meta in metas:
        composite = dec.composite_index(meta.gini_components)
        series = purified[meta.symbol]
        rows += [(meta.symbol, str(series.dates[i]), composite, series.values[i])
                 for i in np.flatnonzero(~series.missing)]
    pipeline._write_csv(args.out, ("entity", "date", "composite", "orthogonalized"), rows)
    print(f"wrote {args.out}")
    return 0


# a quantile fit is pooled, unweighted and has its own covariance: it reads the design keys
_QUANTILE_SPEC_KEYS = {"dynamic": "bool", "regressors": "names", "interactions": "pairs"}
_MODEL_SPEC_KEYS = {"effects": EFFECTS, "weights": WEIGHTS, "covariance": COVARIANCES,
                    **_QUANTILE_SPEC_KEYS}


def _parse_model_spec(path):
    """A ``fit`` model spec settings file; unset keys keep ``ModelSpec``'s
    defaults, except that the regressors default to the study's controls."""
    keys = pipeline.read_settings(path, _MODEL_SPEC_KEYS, "model spec key")
    return ModelSpec(**{"regressors": list(CONTROLS), **keys})


def _write_fit_outputs(result, ledger, outdir):
    rows = pipeline._coefficient_rows(result)
    lines = [f"method: {result.method}"]
    for term, est, se, mark in rows:
        lines.append(f"{term:<28}{est:>12.4f}{mark:<4} ({se:.4f})")
    vc = result.variance_components
    if vc is not None:
        lines.append(f"{'cross-section random':<28}SD: {vc.sd_alpha:.4f} Rho: {vc.rho_alpha:.4f}")
        lines.append(
            f"{'idiosyncratic random':<28}SD: {vc.sd_idiosyncratic:.4f}"
            f" Rho: {vc.rho_idiosyncratic:.4f}"
        )
    if result.absorbed:
        lines.append(f"absorbed: {', '.join(result.absorbed)}")
    lines.append(f"{'adj r-squared':<28}{result.adj_r2:.4f}")
    lines.append(f"{'entities':<28}{result.n_entities}")
    lines.append(f"{'observations':<28}{result.nobs}")
    if ledger is not None:
        lines.append(
            f"rows_in={ledger.rows_in} rows_used={ledger.rows_used} dropped={ledger.dropped}"
        )
    pipeline._write_tables(outdir, {
        "coefficients.csv": (("term", "estimate", "se", "stars"), rows),
        "covariance.csv": (("term",) + tuple(result.columns),
                           [(term,) + tuple(row) for term, row in zip(result.columns, result.cov)]),
        "summary.txt": "\n".join(lines) + "\n",
    })


def _cmd_fit(args):
    panel = load_panel_csv(args.panel)
    bundle = mx.compute_all_metrics(panel)
    spec = _parse_model_spec(args.spec)
    design, ledger = build_design(list(panel.entities), bundle, spec)
    result = estimator_for(spec).fit(design).result_
    _write_fit_outputs(result, ledger, args.out)
    print(f"wrote {args.out}: {result.method}, {result.nobs} observations")
    return 0


def _quantile_file(tau):
    return f"quantile_tau{tau:.2f}.csv"


def _cmd_quantile(args):
    try:
        taus = pipeline.parse_taus(args.taus)
    except ValueError as exc:
        raise ValueError(f"--taus: {exc}") from None
    named = {}
    for tau in taus:
        other = named.setdefault(_quantile_file(tau), tau)
        if other != tau:
            raise ValueError(f"--taus {other} and {tau} would both write {_quantile_file(tau)}")
    panel = load_panel_csv(args.panel)
    bundle = mx.compute_all_metrics(panel)
    spec = pipeline.QUANTILE_SPEC  # the report's design, unless --spec sets a key of it
    if args.spec:
        keys = pipeline.read_settings(args.spec, _QUANTILE_SPEC_KEYS, "quantile spec key")
        spec = replace(spec, **keys)
    design, ledger = build_design(list(panel.entities), bundle, spec)
    # (tau, fit) pairs keep the order and repeats of --taus
    fits = [(tau, PanelQuantile(tau=tau).fit(design).result_) for tau in taus]
    files = {}
    for tau, fit in fits:
        terms, stats = pipeline._quantile_rows(fit)
        # the per-tau file carries the summary statistics, not the LR p-value or nobs
        files[_quantile_file(tau)] = (("term", "estimate", "se", "stars"), terms + [
            (name, value, float("nan"), "") for name, value in stats
            if name not in ("quasi_lr_p", "nobs")])
    files["path.csv"] = (("tau", "term", "estimate", "se"), pipeline._path_rows(fits))
    pipeline._write_tables(args.out, files)
    print(f"wrote {args.out}: {len(taus)} quantile fits, {design.nobs} observations")
    return 0


def _cmd_diagnose(args):
    panel = load_panel_csv(args.panel)
    bundle = mx.compute_all_metrics(panel)
    metas = list(panel.entities)
    pipeline._write_tables(args.out, pipeline._emit_diagnostics(
        metas, bundle, pipeline.design_table(metas, bundle), panel))
    print(f"wrote {args.out}: descriptives, correlations, unit roots, dependence tests")
    return 0


def _cmd_report(args):
    config = parse_config(args.config)
    outdir = run_report(config)
    print(f"wrote report bundle to {outdir}")
    return 0


_SYNTH_KEYS = {
    "n_entities": int,
    "n_periods": int,
    "start": str,
    "phi": float,
    "sigma_alpha": float,
    "sigma_low": float,
    "sigma_high": float,
    "use_benchmark_universe": "bool",
    **{f"beta_{name}": float for name in pipeline.default_truth()},
}


def _parse_synth_params(path):
    """A simulation parameter settings file; ``beta_<name>`` overrides one
    coefficient of ``pipeline.default_truth()``."""
    values = pipeline.read_settings(path, _SYNTH_KEYS, "parameter")
    beta = {key[len("beta_"):]: values.pop(key) for key in list(values) if key.startswith("beta_")}
    if beta:
        values["beta"] = {**pipeline.default_truth(), **beta}
    return SynthParams(**values)


def _cmd_simulate(args):
    params = _parse_synth_params(args.params) if args.params else SynthParams()
    sim = simulate_dgp(params, seed=args.seed)
    write_simulation(sim, args.out)
    print(
        f"wrote {args.out}: {params.n_entities} entities x {params.n_periods} periods"
        f" (seed {args.seed})"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="panelcrypt",
        description="Panel econometrics engine for cryptocurrency price-risk analytics",
    )
    parser.add_argument("--version", action="version", version=f"panelcrypt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="consolidate entity/market/meta CSVs into one panel file")
    p.add_argument("--meta", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--entities", required=True, help="directory of per-entity CSV files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("metrics", help="compute all metric series from a panel file")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("gini", help="Gini coefficient of a share distribution file")
    p.add_argument("--dist", required=True, help="text file, one quantity per line")
    p.set_defaults(func=_cmd_gini)

    p = sub.add_parser(
        "decentralization", help="per-entity composite and orthogonalized series"
    )
    p.add_argument("--meta", default=None)
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decentralization)

    p = sub.add_parser("fit", help="fit one panel specification")
    p.add_argument("--panel", required=True)
    p.add_argument("--spec", required=True, help="flat key=value model spec file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("quantile", help="quantile regression battery")
    p.add_argument("--panel", required=True)
    p.add_argument("--spec", default=None)
    p.add_argument("--taus", default="0.10,0.25,0.50,0.75,0.90")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantile)

    p = sub.add_parser("diagnose", help="descriptives, correlations, unit roots, dependence")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("report", help="run the full study from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("simulate", help="generate a seeded synthetic panel")
    p.add_argument("--params", default=None, help="flat key=value parameter file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
