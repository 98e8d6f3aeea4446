"""Command-line interface.

Subcommands: ingest, metrics, gini, decentralization, fit, quantile,
diagnose, report, simulate.  All outputs are plain CSV / text; runs with the
same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import __version__
from . import decentralization as dec
from . import pipeline
from .base import ConvergenceError
from .estimators import ModelSpec, estimator_for
from .metrics import compute_all_metrics
from .panel import load_panel, load_panel_csv, read_meta_csv, write_panel_csv
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
    bundle = compute_all_metrics(panel, window=args.window)
    pipeline.add_decentralization_metric(bundle, panel.entities, panel)
    write_metrics_csv(bundle, args.out)
    n_series = sum(len(per) for per in bundle.values())
    print(f"wrote {args.out}: {n_series} metric series")
    return 0


def _cmd_gini(args):
    with open(args.dist) as handle:
        values = [float(line) for line in handle if line.strip()]
    print(f"{dec.gini(values):.6f}")
    return 0


def _cmd_decentralization(args):
    panel = load_panel_csv(args.panel)
    metas = read_meta_csv(args.meta) if args.meta else list(panel.entities)
    bundle = {meta.symbol: {} for meta in metas}
    pipeline.add_decentralization_metric(bundle, metas, panel)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("entity", "date", "composite", "orthogonalized"))
        for meta in metas:
            composite = dec.composite_index(meta.gini_components)
            series = bundle[meta.symbol]["decentralization"]
            for i in np.flatnonzero(~series.missing):
                writer.writerow(
                    (
                        meta.symbol,
                        str(series.dates[i]),
                        repr(float(composite)),
                        repr(float(series.values[i])),
                    )
                )
    print(f"wrote {args.out}")
    return 0


_MODEL_SPEC_KEYS = ("effects", "weights", "dynamic", "covariance",
                    "regressors", "interactions")


def _parse_model_spec(path):
    keys = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _MODEL_SPEC_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown model spec key {key!r}")
            keys[key] = text.strip()
    regressors = [t.strip() for t in keys.get("regressors", ",".join(CONTROLS)).split(",") if t.strip()]
    interactions = []
    for token in keys.get("interactions", "").split(","):
        token = token.strip()
        if not token:
            continue
        left, _, right = token.partition("*")
        interactions.append((left.strip(), right.strip()))
    return ModelSpec(
        effects=keys.get("effects", "random"),
        weights=keys.get("weights", "none"),
        dynamic=keys.get("dynamic", "false").lower() in ("true", "1", "yes"),
        covariance=keys.get("covariance", "white"),
        regressors=regressors,
        interactions=interactions,
    )


def _write_fit_outputs(result, ledger, outdir):
    os.makedirs(outdir, exist_ok=True)
    rows = pipeline._coefficient_rows(result)
    pipeline._write_csv(
        os.path.join(outdir, "coefficients.csv"),
        ("term", "estimate", "se", "stars"),
        rows,
    )
    pipeline._write_csv(
        os.path.join(outdir, "covariance.csv"),
        ("term",) + tuple(result.columns),
        [(result.columns[i],) + tuple(result.cov[i]) for i in range(len(result.columns))],
    )
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
    with open(os.path.join(outdir, "summary.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _cmd_fit(args):
    panel = load_panel_csv(args.panel)
    bundle = pipeline.metrics_from_panel(panel, window=args.window)
    spec = _parse_model_spec(args.spec)
    design, ledger = build_design(list(panel.entities), bundle, spec)
    result = estimator_for(spec).fit(design).result_
    _write_fit_outputs(result, ledger, args.out)
    print(f"wrote {args.out}: {result.method}, {result.nobs} observations")
    return 0


def _cmd_quantile(args):
    panel = load_panel_csv(args.panel)
    bundle = pipeline.metrics_from_panel(panel, window=args.window)
    if args.spec:
        spec = _parse_model_spec(args.spec)
    else:
        spec = ModelSpec(effects="pooled", regressors=list(CONTROLS) + ["hyfi"])
    taus = tuple(float(t) for t in args.taus.split(","))
    design, ledger = build_design(list(panel.entities), bundle, spec)
    os.makedirs(args.out, exist_ok=True)
    path_rows = []
    for tau in taus:
        terms, stats = pipeline._quantile_rows(PanelQuantile(tau=tau).fit(design).result_)
        # the per-tau file carries the summary statistics, not the LR p-value or nobs
        rows = terms + [(name, value, float("nan"), "") for name, value in stats
                        if name not in ("quasi_lr_p", "nobs")]
        pipeline._write_csv(
            os.path.join(args.out, f"quantile_tau{tau:.2f}.csv"),
            ("term", "estimate", "se", "stars"),
            rows,
        )
        path_rows += [(float(tau),) + row[:3] for row in terms]
    pipeline._write_csv(
        os.path.join(args.out, "path.csv"),
        ("tau", "term", "estimate", "se"),
        path_rows,
    )
    print(f"wrote {args.out}: {len(taus)} quantile fits, {design.nobs} observations")
    return 0


def _cmd_diagnose(args):
    panel = load_panel_csv(args.panel)
    bundle = pipeline.metrics_from_panel(panel, window=args.window)
    os.makedirs(args.out, exist_ok=True)
    config = pipeline.RunConfig(panel=args.panel, out=args.out)
    pipeline._emit_diagnostics(
        list(panel.entities), bundle, config, args.out,
        extra_pooled={"attention_raw": pipeline.raw_attention_pooled(panel)},
    )
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
    "market_warmup": int,
    "phi": float,
    "sigma_alpha": float,
    "sigma_low": float,
    "sigma_high": float,
    "use_benchmark_universe": "bool",
    "seed": int,
}


def _parse_synth_params(path):
    values = {}
    beta = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key.startswith("beta_"):
                beta[key[len("beta_"):]] = float(text)
            elif key in _SYNTH_KEYS:
                kind = _SYNTH_KEYS[key]
                if kind == "bool":
                    values[key] = text.lower() in ("true", "1", "yes")
                else:
                    values[key] = kind(text)
            else:
                raise SystemExit(f"{path}:{lineno}: unknown parameter {key!r}")
    if beta:
        full = pipeline.default_truth()
        full.update(beta)
        values["beta"] = full
    return SynthParams(**values)


def _cmd_simulate(args):
    params = _parse_synth_params(args.params) if args.params else SynthParams()
    if args.seed is not None:
        params.seed = args.seed
    sim = simulate_dgp(params, seed=params.seed)
    write_simulation(sim, args.out)
    print(
        f"wrote {args.out}: {params.n_entities} entities x {params.n_periods} periods"
        f" (seed {params.seed})"
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
    p.add_argument("--window", type=int, default=30)
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
    p.add_argument("--window", type=int, default=30)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("quantile", help="quantile regression battery")
    p.add_argument("--panel", required=True)
    p.add_argument("--spec", default=None)
    p.add_argument("--taus", default="0.10,0.25,0.50,0.75,0.90")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=30)
    p.set_defaults(func=_cmd_quantile)

    p = sub.add_parser("diagnose", help="descriptives, correlations, unit roots, dependence")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=30)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("report", help="run the full study from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("simulate", help="generate a seeded synthetic panel")
    p.add_argument("--params", default=None, help="flat key=value parameter file")
    p.add_argument("--seed", type=int, default=None)
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
